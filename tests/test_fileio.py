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


def test_zero_control_gate_round_trip():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    c = Circuit(2, (ControlledGate((), 1, x),))
    text = format_circuit(c)
    assert text.splitlines()[2].startswith("ctrl - 1 ")
    back = parse_circuit(text).gates[0]
    assert back.controls == () and back.target == 1 and np.array_equal(back.matrix, x)
    # older files left the control field empty
    legacy = parse_circuit("qcircuit v1\nn=2\nctrl  1 0:0 1:0 1:0 0:0\n").gates[0]
    assert legacy.controls == () and np.array_equal(legacy.matrix, x)


def test_ctrl_lines_merge_until_a_pattern_repeats():
    # Consecutive ctrl lines on one target and one control-qubit sequence
    # are one gate until a pattern comes back; a different control order, a
    # different target or no controls at all starts a gate of its own.
    rng = np.random.default_rng(5)
    lines = [(((0, 1), (2, 0)), 1), (((0, 0), (2, 0)), 1), (((0, 1), (2, 1)), 1),
             (((0, 0), (2, 0)), 1), (((0, 1), (2, 1)), 1)]
    tail = [(((2, 1), (0, 0)), 1), (((2, 0), (0, 0)), 3), ((), 1), ((), 1)]
    for specs, patterns in ((lines, [[1, 0, 3], [0, 3]]), (lines + tail, [[1, 0, 3], [0, 3], [1], [0], [0], [0]])):
        per_line = Circuit(4, tuple(ControlledGate(c, t, haar_unitary(2, rng)) for c, t in specs))
        text = format_circuit(per_line)
        merged = parse_circuit(text)
        assert [g.pattern.tolist() for g in merged.gates] == patterns
        assert format_circuit(merged) == text
        assert_same_circuit(merged, per_line)
        want = np.eye(16, dtype=complex)
        for gate in parse_circuit_reference(text).gates:
            want = gate_oracle(gate, 4) @ want
        s = random_state(4, rng)
        assert np.abs(apply_circuit(merged, s).amps - want @ s.amps).max() <= 1e-12
        assert np.abs(apply_circuit(merged, s).amps - apply_circuit(per_line, s).amps).max() <= 1e-12


def test_circuit_format_lines():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    c_gates = (
        LocalGate((1,), x),
        ControlledGate(((0, 1),), 1, x),
        PhaseOnZero(0.5),
    )
    text = format_circuit(
        __import__("qcapprox").Circuit(2, c_gates)
    )
    lines = text.splitlines()
    assert lines[0] == "qcircuit v1"
    assert lines[1] == "n=2"
    assert lines[2].startswith("local 1 ")
    assert lines[3].startswith("ctrl 0:1 1 ")
    assert lines[4] == "iw 0.5"


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
        ],
    }
    for kind, bodies in refused.items():
        for body in bodies:
            with pytest.raises(kind) as got:
                parse_circuit(head + body)
            with pytest.raises(kind) as want:
                parse_circuit_reference(head + body)
            assert str(got.value) == str(want.value), body


def test_first_bad_gate_of_a_cascade_decides_the_error():
    circuit = prepare_state(sample_haar_state(11, np.random.default_rng(11))).circuit
    lines = format_circuit(circuit).splitlines()
    assert len(lines) == 2 + 2047 and lines[2001].startswith("ctrl ")

    def with_entries(entries: dict[int, str]) -> str:
        """The file with the matrix entries of some lines replaced."""
        edited = list(lines)
        for index, tail in entries.items():
            edited[index] = " ".join(edited[index].split()[:3] + [tail])
        return "\n".join(edited) + "\n"

    # gate line 2000 (file line 2001) is the first bad gate; a worse gate and
    # a malformed line below it do not change the error
    with pytest.raises(DomainError, match=r"Frobenius defect 3\.000e\+00"):
        parse_circuit(with_entries({2001: DEFECT_3, 2030: DEFECT_8, 2040: "x:0 0:0 0:0 1:0"}))
    with pytest.raises(ParseError):
        parse_circuit(with_entries({2001: "x:0 0:0 0:0 1:0", 2030: DEFECT_8}))
    with pytest.raises(DomainError, match=r"Frobenius defect 8\.000e\+00"):
        parse_circuit(with_entries({2030: DEFECT_8}))


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
