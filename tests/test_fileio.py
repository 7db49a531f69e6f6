import numpy as np
import pytest

from qcapprox.fileio import (
    ParseError,
    format_circuit,
    format_problem,
    format_state,
    parse_circuit,
    parse_problem,
    parse_state,
    read_circuit,
    read_state,
    write_circuit,
    write_state,
)
from qcapprox.measure import sample_haar_state
from qcapprox.problems import DecisionProblem, GuessProblem
from qcapprox.synthesis import prepare_state
from qcapprox.tensor import (
    Circuit,
    ControlledGate,
    DomainError,
    LocalGate,
    PhaseOnZero,
    StateVec,
    apply_circuit,
)
from helpers import (
    assert_same_circuit,
    branch_gates,
    format_circuit_ctrl_lines,
    gate_oracle,
    haar_unitary,
    parse_circuit_reference,
    random_circuit,
    random_state,
)

IDENTITY = "1:0 0:0 0:0 1:0"
DEFECT_3 = "2:0 0:0 0:0 1:0"  # M^H M - I = diag(3, 0)
DEFECT_8 = "3:0 0:0 0:0 1:0"


def test_state_round_trip_bit_exact():
    rng = np.random.default_rng(0)
    for n in (1, 2, 4):
        s = random_state(n, rng)
        back = parse_state(format_state(s))
        assert back.n == n
        assert np.array_equal(back.amps, s.amps)


def test_state_seventeen_digit_floats():
    # a third is not representable; its repr must survive the trip
    amps = np.array([np.sqrt(1 / 3), np.sqrt(2 / 3) * 1j])
    s = StateVec(1, amps)
    text = format_state(s)
    assert "0.57735026918962573" in text
    assert np.array_equal(parse_state(text).amps, amps)


def test_state_parse_errors():
    with pytest.raises(ParseError):
        parse_state("not a header\nn=1\n1 0\n0 0\n")
    with pytest.raises(ParseError):
        parse_state("qstate v1\nn=1\n1 0\n")  # missing line
    with pytest.raises(ParseError):
        parse_state("qstate v1\nn=1\n1 0 0\n0 0\n")  # 3 tokens
    with pytest.raises(ParseError, match="bad amplitude line '1 x'"):
        parse_state("qstate v1\nn=1\n1 x\n0 0\n")  # two tokens, one not a number
    with pytest.raises(ParseError):
        parse_state("qstate v1\nn=x\n1 0\n0 0\n")
    with pytest.raises(ParseError):
        parse_state("qstate v1\nn=0\n1 0\n")
    with pytest.raises(ParseError, match="2\\^1000000000000 amplitude lines"):
        parse_state("qstate v1\nn=1000000000000\n1 0\n0 0\n")  # refused before 1 << n
    with pytest.raises(DomainError):
        parse_state("qstate v1\nn=1\nnan 0\n1 0\n")


def test_state_comments_and_blanks_skipped():
    text = "# made by hand\nqstate v1\n\nn=1\n# amplitudes follow\n1 0\n\n0 0\n"
    s = parse_state(text)
    assert s.amps[0] == 1.0


def test_circuit_round_trip_bit_exact():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        c = random_circuit(n, 5, rng)
        assert_same_circuit(parse_circuit(format_circuit(c)), c)
    # Two lone gates on the same wires and target, one after the other,
    # come back as two gates: lines are read gate for gate.
    lone = Circuit(3, (ControlledGate(((0, 1), (2, 0)), 1, haar_unitary(2, rng)),
                       ControlledGate(((0, 0), (2, 0)), 1, haar_unitary(2, rng))))
    text = format_circuit(lone)
    assert len(text.splitlines()) == 4
    assert_same_circuit(parse_circuit(text), lone)


def test_zero_control_gate_round_trip():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    c = Circuit(2, (ControlledGate((), 1, x),))
    text = format_circuit(c)
    assert text.splitlines()[2] == "mux - 1 0 0:0 1:0 1:0 0:0"
    back = parse_circuit(text).gates[0]
    assert back.controls == () and back.target == 1 and np.array_equal(back.matrix, x)


def test_ctrl_line_files_still_read():
    # Files written before mux lines hold one ctrl line per branch. Each
    # line is read as a gate of its own; branch for branch it is the gate
    # the mux line holds, and it applies as the same unitary.
    rng = np.random.default_rng(5)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    gates = list(random_circuit(3, 12, rng).gates)
    for i in (0, 5, 9):
        gates.insert(i, ControlledGate((), int(rng.integers(0, 3)), haar_unitary(2, rng)))
    circuits = [
        prepare_state(sample_haar_state(11, np.random.default_rng(11))).circuit,
        Circuit(3, tuple(gates)),
        Circuit(2, (ControlledGate((), 1, x),)),
    ]
    texts = [format_circuit_ctrl_lines(c) for c in circuits]
    # the legacy empty control field of a zero-control gate
    texts[2] = texts[2].replace("ctrl - 1 ", "ctrl  1 ")
    assert texts[2].splitlines()[2] == "ctrl  1 0:0 1:0 1:0 0:0"
    for circuit, text in zip(circuits, texts):
        n = circuit.n
        legacy, mux = parse_circuit(text), parse_circuit(format_circuit(circuit))
        assert len(legacy.gates) == len(text.splitlines()) - 2
        assert_same_circuit(Circuit(n, branch_gates(legacy.gates)), Circuit(n, branch_gates(mux.gates)))
        s = random_state(n, rng)
        got = apply_circuit(legacy, s).amps
        assert np.abs(got - apply_circuit(mux, s).amps).max() <= 1e-12
        if n <= 4:
            want = np.eye(1 << n, dtype=complex)
            for gate in parse_circuit_reference(text).gates:
                want = gate_oracle(gate, n) @ want
            assert np.abs(got - want @ s.amps).max() <= 1e-12


def test_circuit_format_lines():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    c_gates = (
        LocalGate((1,), x),
        ControlledGate(((0, 1),), 1, x),
        PhaseOnZero(0.5),
        ControlledGate.multiplexor((2, 0), 1, [2, 1], np.array([x, np.eye(2)])),
    )
    lines = format_circuit(Circuit(3, c_gates)).splitlines()
    assert lines[0] == "qcircuit v1"
    assert lines[1] == "n=3"
    assert lines[2].startswith("local 1 ")
    assert lines[3] == "mux 0 1 1 0:0 1:0 1:0 0:0"
    assert lines[4] == "iw 0.5"
    # bit j of a pattern's numeral is wires[j]: 2 reads wire 2 as 0 and wire 0 as 1
    assert lines[5] == "mux 2,0 1 10,01 0:0 1:0 1:0 0:0 1:0 0:0 0:0 1:0"
    assert len(lines) == 2 + len(c_gates)


def test_circuit_parse_errors():
    head = "qcircuit v1\nn=2\n"
    with pytest.raises(ParseError):
        parse_circuit(head + "warp 0\n")
    with pytest.raises(ParseError):
        parse_circuit(head + "local 0 1:0 0:0 0:0\n")  # 3 entries for dim 2
    with pytest.raises(ParseError):
        parse_circuit(head + "ctrl 0:1 1 1:0 0:0 0:0\n")  # short ctrl line
    with pytest.raises(ParseError):
        parse_circuit(head + "iw fast\n")
    with pytest.raises(ParseError):
        parse_circuit(head + "local 0 1:0 0:0 0:0 badentry\n")
    two = f"{IDENTITY} {IDENTITY}"
    refused = {
        DomainError: [
            f"ctrl 0:1 1 {DEFECT_3}\nwarp 0\n",  # non-unitary above a malformed line
            f"ctrl 0:1 1 {DEFECT_3}\nctrl 0:1 1 1:0 0:0 0:0 x:0\n",
            f"local 0 {DEFECT_3}\nctrl 0:2 1 {IDENTITY}\n",
            f"ctrl 0:1 1 {IDENTITY.replace('1:0', 'nan:0', 1)}\n",
            f"ctrl 0:2 1 {IDENTITY}\n",  # polarity 2
            f"ctrl 1:1 1 {IDENTITY}\n",  # control on the target wire
            f"ctrl 0:1,0:0 1 {IDENTITY}\n",  # the same control twice
            f"ctrl -1:1 1 {IDENTITY}\n",
            f"ctrl 0:1 -1 {IDENTITY}\n",
            f"ctrl 0:1 2 {IDENTITY}\n",  # qubit >= n
            f"ctrl 2:1 1 {IDENTITY}\n",
            f"local 5 {IDENTITY}\n",
            f"mux 0 1 0,1 {IDENTITY} {DEFECT_3}\nwarp 0\n",  # non-unitary branch 1
            f"mux 0 1 0,0 {two}\n",  # a repeated pattern
            f"mux 0 1 0,10 {two}\n",  # a numeral wider than the wires
            f"mux 0 1 0,{'1' * 70} {two}\n",  # and beyond int64
            f"mux - 1 1 {IDENTITY}\n",  # no wires, so only pattern 0
            f"mux {','.join(map(str, range(63)))} 63 0 {IDENTITY}\n",  # 63 wires
            f"mux 0 2 0 {IDENTITY}\n",  # qubit >= n
            "iw nan\n",
            "iw -inf\n",
            "iw inf\nwarp 0\n",  # non-finite angle above a malformed line
        ],
        ParseError: [
            f"warp 0\nctrl 0:1 1 {DEFECT_3}\n",  # malformed above a non-unitary line
            f"ctrl 0:2 1 1:0 0:0 0:0 x:0\n",  # an entry is read before the polarity
            f"ctrl 0:1 2 {IDENTITY}\nwarp 0\n",  # range checked after every line
            f"ctrl 0:1 1 {IDENTITY} 1:0\n",
            f"ctrl 0:1 1 1:0:0 0:0 0:0 1:0\n",
            "warp 0\niw nan\n",  # malformed above a non-finite angle
            f"mux 0 1 0,1 {IDENTITY}\n",  # two patterns, four entries
            f"mux 0 1 0 {two}\n",
            f"mux 0 1 0,2 {two}\n",  # not a binary numeral
            f"mux 0 1 0,,1 {two} {IDENTITY}\n",  # an empty numeral
            f"mux 0 1 0b1 {IDENTITY}\n",
            f"mux 0:1 1 1 {IDENTITY}\n",  # a ctrl field in a mux line
            f"mux 0 x 1 {IDENTITY}\n",
            "mux 0 1 1\n",
            f"mux 0 1 1,0 {IDENTITY} {DEFECT_3} x:0\n",  # entries are read before the branches
        ],
    }
    for kind, bodies in refused.items():
        for body in bodies:
            with pytest.raises(kind) as got:
                parse_circuit(head + body)
            with pytest.raises(kind) as want:
                parse_circuit_reference(head + body)
            assert str(got.value) == str(want.value), body
    with pytest.raises(DomainError, match=r"^patterns must lie in \[0, 2\)$"):
        parse_circuit(head + f"mux 0 1 0,{'1' * 70} {two}\n")
    gate, = parse_circuit(head + f"mux 0 1 {'0' * 70}1 {IDENTITY}\n").gates  # leading zeros
    assert gate.pattern.tolist() == [1]


def test_first_bad_gate_of_a_cascade_decides_the_error():
    circuit = prepare_state(sample_haar_state(11, np.random.default_rng(11))).circuit
    lines = format_circuit(circuit).splitlines()
    assert len(lines) == 2 + 11 and lines[-1].startswith("mux ")
    # Level 11, the last line, holds branches 1023 to 2046 of the 2047:
    # its branch 977 is branch 2000, and its branch 1007 is branch 2030.
    assert lines[-1].split()[3].count(",") + 1 == 1024

    def with_entries(branches: dict[int, str], below: str = "") -> str:
        """The file with the matrix of some level-11 branches replaced and
        `below` appended."""
        toks = lines[-1].split()
        for branch, matrix in branches.items():
            toks[4 + 4 * branch:8 + 4 * branch] = matrix.split()
        return "\n".join(lines[:-1] + [" ".join(toks), below]) + "\n"

    # branch 2000 is the first bad branch; a worse branch after it and a
    # malformed line below do not change the error
    with pytest.raises(DomainError, match=r"Frobenius defect 3\.000e\+00"):
        parse_circuit(with_entries({977: DEFECT_3, 1007: DEFECT_8}, "warp 0"))
    with pytest.raises(ParseError):
        parse_circuit(with_entries({977: "x:0 0:0 0:0 1:0", 1007: DEFECT_8}))
    with pytest.raises(DomainError, match=r"Frobenius defect 8\.000e\+00"):
        parse_circuit(with_entries({1007: DEFECT_8}))
    with pytest.raises(ParseError, match="unknown gate kind 'warp'"):
        parse_circuit(with_entries({}, "warp 0"))


def test_problem_round_trip():
    d = DecisionProblem(3, {0: 1, 5: 0, 7: 1})
    back = parse_problem(format_problem(d))
    assert isinstance(back, DecisionProblem)
    assert back.n == 3 and back.f == d.f

    g = GuessProblem(2, {0: 3, 2: 1})
    back2 = parse_problem(format_problem(g))
    assert isinstance(back2, GuessProblem)
    assert back2.f == g.f


def test_problem_binary_patterns():
    text = format_problem(DecisionProblem(3, {5: 1}))
    assert "101 1" in text
    parsed = parse_problem("qproblem v1\nn=3\nkind=guess\n101 011\n")
    assert parsed.f == {5: 3}


def test_problem_parse_errors():
    with pytest.raises(ParseError):
        parse_problem("qproblem v1\nn=2\nkind=ranking\n00 1\n")
    with pytest.raises(ParseError):
        parse_problem("qproblem v1\nn=2\n00 1\n")  # kind line missing
    with pytest.raises(ParseError):
        parse_problem("qproblem v1\nn=2\nkind=decision\n02 1\n")
    with pytest.raises(ParseError, match="repeated in '0 1'"):
        parse_problem("qproblem v1\nn=2\nkind=decision\n00 0\n0 1\n")  # input 0 twice


def test_path_wrappers(tmp_path):
    rng = np.random.default_rng(2)
    s = random_state(2, rng)
    p = tmp_path / "s.qstate"
    write_state(p, s)
    assert np.array_equal(read_state(p).amps, s.amps)

    c = random_circuit(2, 3, rng)
    pc = tmp_path / "c.qcircuit"
    write_circuit(pc, c)
    assert read_circuit(pc).n == 2
