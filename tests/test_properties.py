"""Property tests: file round trips, net index round trips, circuit inverses.

Examples are derandomized and no example database is kept, so every run
draws the same inputs.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from qcapprox.fileio import (
    format_circuit,
    format_problem,
    format_state,
    parse_circuit,
    parse_problem,
    parse_state,
)
from qcapprox.nets import NetSpec, _axis_values, decode_index, encode_matrix
from qcapprox.problems import DecisionProblem, GuessProblem
from qcapprox.tensor import (
    Circuit,
    ControlledGate,
    LocalGate,
    PhaseOnZero,
    StateVec,
    circuit_dagger,
    circuit_to_matrix,
)
from helpers import assert_same_circuit, haar_unitary

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
def circuits(draw, max_n):
    """A circuit holding at least one gate of every kind, zero-control
    controlled gates included."""
    n = draw(st.integers(1, max_n))
    kinds = list(GATE_KINDS) + draw(st.lists(st.sampled_from(GATE_KINDS), max_size=5))
    return Circuit(n, tuple(draw(gates(n, kind)) for kind in draw(st.permutations(kinds))))


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
