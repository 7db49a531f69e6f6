"""Property tests: file round trips, the file formats against their
entry-by-entry references, net index round trips, circuit inverses, the gate
kernel against the dense oracle, and the metric inequalities.

Examples are derandomized and no example database is kept, so every run
draws the same inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qcapprox import tensor
from qcapprox.fileio import (
    ParseError,
    format_circuit,
    format_matrix,
    format_problem,
    format_state,
    parse_circuit,
    parse_problem,
    parse_state,
)
from qcapprox.measure import sample_haar_state, sample_ortho_seq
from qcapprox.metrics import frobenius_norm, tv_operators, tv_states, two_norm, weak_two_norm
from qcapprox.nets import NetSpec, _axis_values, decode_index, encode_matrix
from qcapprox.problems import DecisionProblem, GuessProblem
from qcapprox.synthesis import prepare_state, synthesize_transitive
from qcapprox.tensor import (
    Circuit,
    ControlledGate,
    DomainError,
    LocalGate,
    PhaseOnZero,
    StateVec,
    _run_gates,
    _trusted,
    circuit_dagger,
    circuit_to_matrix,
)
from helpers import (
    assert_same_circuit,
    dagger_reference,
    fmt_reference,
    format_circuit_reference,
    format_state_reference,
    gate_oracle,
    haar_unitary,
    kernel_gate,
    kernel_run,
    parse_circuit_reference,
)

PROPERTY = settings(database=None, derandomize=True, deadline=None, max_examples=40)
GATE_KINDS = ("local", "ctrl", "phase")


@st.composite
def states(draw):
    n = draw(st.integers(1, 4))
    parts = np.array(draw(st.lists(st.floats(-1, 1), min_size=2 << n, max_size=2 << n)))
    z = parts[0::2] + 1j * parts[1::2]
    norm = np.linalg.norm(z)
    assume(norm > 1e-3)
    return StateVec(n, z / norm)


@st.composite
def problems(draw):
    n = draw(st.integers(1, 5))
    cls = draw(st.sampled_from((DecisionProblem, GuessProblem)))
    out_bits = 1 if cls is DecisionProblem else n
    f = draw(st.dictionaries(st.integers(0, (1 << n) - 1), st.integers(0, (1 << out_bits) - 1),
                             min_size=1))
    return cls(n, f)


@st.composite
def gates(draw, n, kind):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wires = draw(st.permutations(range(n)))
    if kind == "local":
        positions = tuple(wires[:draw(st.integers(1, min(n, 3)))])
        return LocalGate(positions, haar_unitary(1 << len(positions), rng))
    if kind == "ctrl":
        controls = tuple((q, draw(st.integers(0, 1))) for q in wires[1:draw(st.integers(1, n))])
        return ControlledGate(controls, wires[0], haar_unitary(2, rng))
    return PhaseOnZero(draw(st.floats(-math.pi, math.pi)))


@st.composite
def gate_lists(draw, n):
    """At least one gate of every kind, zero-control controlled gates included."""
    kinds = list(GATE_KINDS) + draw(st.lists(st.sampled_from(GATE_KINDS), max_size=5))
    return tuple(draw(gates(n, kind)) for kind in draw(st.permutations(kinds)))


@st.composite
def circuits(draw, max_n):
    n = draw(st.integers(1, max_n))
    return Circuit(n, draw(gate_lists(n)))


@PROPERTY
@given(states())
def test_state_format_parse_round_trip(state):
    back = parse_state(format_state(state))
    assert back.n == state.n
    assert np.array_equal(back.amps, state.amps)


@PROPERTY
@given(problems())
def test_problem_format_parse_round_trip(problem):
    back = parse_problem(format_problem(problem))
    assert type(back) is type(problem)
    assert back == problem


@PROPERTY
@given(circuits(max_n=4))
def test_circuit_format_parse_round_trip(circuit):
    assert_same_circuit(parse_circuit(format_circuit(circuit)), circuit)


# Any double, with the edge cases drawn often.
doubles = st.one_of(
    st.sampled_from((-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, 2.2250738585072014e-308)),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def any_complex(draw, *shape):
    size = 2 * math.prod(shape)
    return np.array(draw(st.lists(doubles, min_size=size, max_size=size))).view(complex).reshape(shape)


@st.composite
def raw_circuits(draw):
    """Gates of every kind holding arbitrary doubles, built without the
    unitarity check: the formatter must print any float."""
    n = draw(st.integers(1, 4))
    gates = []
    for gate in draw(gate_lists(n)):
        if isinstance(gate, LocalGate):
            gate = _trusted(LocalGate, positions=gate.positions,
                            matrix=draw(any_complex(*gate.matrix.shape)))
        elif isinstance(gate, ControlledGate):
            gate = _trusted(ControlledGate, controls=gate.controls, target=gate.target,
                            matrix=draw(any_complex(2, 2)), wires=gate.wires, pattern=gate.pattern)
        else:
            gate = _trusted(PhaseOnZero, w=draw(doubles))  # the constructor refuses nan and inf
        gates.append(gate)
    return Circuit(n, tuple(gates))


@PROPERTY
@given(raw_circuits(), st.data())
def test_formats_match_entry_by_entry_reference(circuit, data):
    assert format_circuit(circuit) == format_circuit_reference(circuit)
    state = _trusted(StateVec, n=circuit.n, amps=data.draw(any_complex(1 << circuit.n)))
    assert format_state(state) == format_state_reference(state)
    m = data.draw(any_complex(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))))
    assert format_matrix(m) == "".join(
        " ".join(f"{fmt_reference(z.real)}:{fmt_reference(z.imag)}" for z in row) + "\n"
        for row in m)


def test_cascade_round_trip_bit_exact():
    circuit = prepare_state(sample_haar_state(11, np.random.default_rng(3))).circuit
    back = parse_circuit(format_circuit(circuit))
    assert_same_circuit(back, circuit)
    assert len(back.gates) == 2047
    assert not any(g.matrix.flags.writeable for g in back.gates)


# Edits that damage one line of a circuit file, each a defect parse_circuit
# must refuse as the line-by-line reference does.
DAMAGE = (
    lambda toks, n: toks[:-1] + ["2:0"],  # not unitary
    lambda toks, n: toks[:-1] + ["nan:0"],
    lambda toks, n: toks[:-1] + ["1:0:0"],
    lambda toks, n: toks[:-1] + ["x:0"],
    lambda toks, n: toks[:-1],  # one entry short
    lambda toks, n: ["warp"] + toks[1:],
    lambda toks, n: toks[:1] + [f"0:2,{toks[1]}"] + toks[2:],  # polarity 2, maybe a duplicate
    lambda toks, n: toks[:1] + ["-1:1"] + toks[2:],
    lambda toks, n: toks[:1] + [f"{toks[2]}:1"] + toks[2:],  # a control on the target
    lambda toks, n: toks[:1] + [str(n)] + toks[2:],  # a wire >= n, or a bad control field
    lambda toks, n: toks[:2] + [str(n)] + toks[3:],
    lambda toks, n: toks[:2] + ["x"] + toks[3:],
    lambda toks, n: toks[:1] + toks[2:] if toks[1] == "-" else toks,  # legacy empty field
)


@settings(PROPERTY, max_examples=150)
@given(circuits(max_n=4), st.integers(0, 2**32 - 1))
def test_circuit_parse_matches_line_by_line_reference(circuit, seed):
    rng = np.random.default_rng(seed)  # damages spread evenly over kinds and lines
    lines = format_circuit(circuit).splitlines()
    for _ in range(int(rng.integers(1, 3))):
        i = int(rng.integers(2, len(lines)))
        damage = DAMAGE[int(rng.integers(len(DAMAGE)))]
        lines[i] = " ".join(damage(lines[i].split(), circuit.n))
    text = "\n".join(lines) + "\n"
    try:
        want = parse_circuit_reference(text)
    except (ParseError, DomainError) as exc:
        try:
            parse_circuit(text)
        except (ParseError, DomainError) as got:
            assert (type(got), str(got)) == (type(exc), str(exc))
        else:
            raise AssertionError(f"accepted, the reference raised {exc!r}")
    else:
        assert format_circuit(parse_circuit(text)) == format_circuit(want)


@st.composite
def net_indices(draw):
    spec = NetSpec(*draw(st.sampled_from(((1, 1.0), (1, 0.3), (2, 1.5), (2, 0.5)))))
    return spec, draw(st.integers(0, spec.axis_points ** spec.num_axes - 1))


def decode_reference(spec, index):
    """Entry by entry: real digit, then imaginary digit, row-major, most
    significant digit first."""
    digits = []
    for _ in range(spec.num_axes):
        index, digit = divmod(index, spec.axis_points)
        digits.append(digit)
    digits.reverse()
    values = _axis_values(spec)
    a = np.empty((spec.dim, spec.dim), dtype=complex)
    for i in range(spec.dim):
        for j in range(spec.dim):
            pos = 2 * (i * spec.dim + j)
            a[i, j] = complex(values[digits[pos]], values[digits[pos + 1]])
    return a


@PROPERTY
@given(net_indices())
def test_decode_encode_round_trip(spec_index):
    spec, index = spec_index
    a = decode_index(spec, index)
    assert np.array_equal(a, decode_reference(spec, index))
    assert encode_matrix(spec, a) == index


@settings(PROPERTY, max_examples=25)
@given(circuits(max_n=6))
def test_circuit_dagger_inverts(circuit):
    product = circuit_to_matrix(circuit_dagger(circuit)) @ circuit_to_matrix(circuit)
    assert np.abs(product - np.eye(1 << circuit.n)).max() <= 1e-12


@settings(PROPERTY, max_examples=40)
@given(circuits(max_n=6), st.integers(0, 2))
def test_circuit_dagger_matches_per_gate_reference(circuit, cascades):
    # cascades from prepare_state put views of one shared stack among the gates
    rng = np.random.default_rng(cascades)
    gates = circuit.gates
    for _ in range(cascades):
        gates += prepare_state(sample_haar_state(circuit.n, rng)).circuit.gates
    circuit = Circuit(circuit.n, gates)
    got, want = circuit_dagger(circuit), dagger_reference(circuit)
    assert got.n == want.n and len(got.gates) == len(want.gates)
    for g, w in zip(got.gates, want.gates):
        assert type(g) is type(w)
        if isinstance(w, PhaseOnZero):
            assert g.w == w.w
            continue
        assert getattr(g, "positions", None) == getattr(w, "positions", None)
        assert getattr(g, "controls", None) is getattr(w, "controls", None)
        assert getattr(g, "target", None) == getattr(w, "target", None)
        assert g.matrix.shape == w.matrix.shape and g.matrix.tobytes() == w.matrix.tobytes()
        assert not g.matrix.flags.writeable


@settings(PROPERTY, max_examples=30)
@given(circuits(max_n=5), states(), st.integers(0, 2**32 - 1))
def test_controlled_gates_record_wires_and_pattern(circuit, state, seed):
    # The kernel groups runs by `wires` and reads polarities from `pattern`
    # without looking at `controls` again. Drawn states hold zeros often, so
    # their cascades skip branches.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, min(4, 1 << state.n) + 1))
    built = [circuit, prepare_state(state).circuit,
             synthesize_transitive(sample_ortho_seq(state.n, k, rng)).circuit]
    built += [circuit_dagger(c) for c in built]
    built += [parse_circuit(format_circuit(c)) for c in built]
    for c in built:
        for gate in c.gates:
            if isinstance(gate, ControlledGate):
                assert gate.wires == tuple(q for q, _ in gate.controls)
                assert gate.pattern == sum(p << j for j, (_, p) in enumerate(gate.controls))


@st.composite
def kernel_gates(draw, n):
    """A short gate list for the kernel: single gates from kernel_gate
    (local gates on every placement, controlled gates with and without
    controls, phase-on-zero) and runs from kernel_run."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    runs = draw(st.lists(st.booleans(), min_size=1, max_size=6))
    return [g for run in runs for g in (kernel_run(n, rng) if run else [kernel_gate(n, rng)])]


@settings(PROPERTY, max_examples=60)
@given(st.data())
def test_run_gates_matches_oracle_product(data):
    n = data.draw(st.integers(1, 6))
    gate_list = data.draw(kernel_gates(n))
    cols = data.draw(st.sampled_from((0, 1, 3, 1 << n)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    block = rng.standard_normal((1 << n, cols)) + 1j * rng.standard_normal((1 << n, cols))
    want = block
    for gate in gate_list:
        want = gate_oracle(gate, n) @ want
    got = _run_gates(gate_list, n, block.copy())
    assert got.shape == block.shape and got.flags.c_contiguous
    assert np.abs(got - want).max(initial=0.0) <= 1e-12
    # A 64-amplitude scratch cuts the same gates into slabs, column ranges
    # and groups of gates; hypothesis rejects function-scoped fixtures, so
    # the scratch size is patched here.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "_scratch_amps", lambda amps: 64)
        got = _run_gates(gate_list, n, block.copy())
    assert np.abs(got - want).max(initial=0.0) <= 1e-12


@settings(PROPERTY, max_examples=30)
@given(st.data())
def test_metric_norm_chain_and_tv_bounds(data):
    n = data.draw(st.integers(1, 5))
    a = circuit_to_matrix(Circuit(n, data.draw(gate_lists(n))))
    b = circuit_to_matrix(Circuit(n, data.draw(gate_lists(n))))
    l = data.draw(st.integers(1, n))
    k = data.draw(st.integers(1, 1 << n))
    d = a - b
    tol = 1e-12
    assert tv_operators(a, b, l, k) <= 2 * weak_two_norm(d, k) + tol
    assert weak_two_norm(d, k) <= two_norm(d) + tol
    assert two_norm(d) <= frobenius_norm(d) + tol
    u, v = StateVec(n, a[:, k - 1]), StateVec(n, b[:, k - 1])
    assert tv_states(u, v, l) <= 2 * np.linalg.norm(u.amps - v.amps) + tol
