import tracemalloc

import numpy as np
import pytest

from qcapprox import (
    Circuit,
    ControlledGate,
    Distribution,
    DomainError,
    LocalGate,
    PhaseOnZero,
    StateVec,
    apply_circuit,
    basis_columns,
    circuit_dagger,
    circuit_to_matrix,
    default_gate_cost,
    embed_gate,
    measure_prefix,
)
from qcapprox.tensor import SIM_QUBIT_CAP
from helpers import (
    embed_oracle,
    gate_oracle,
    haar_unitary,
    kernel_gate,
    kernel_run,
    random_circuit,
    random_state,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_state_validation():
    with pytest.raises(DomainError):
        StateVec(2, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        StateVec(1, np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        StateVec(1, np.array([np.nan, 1.0]))
    s = StateVec.zero(3)
    assert s.amps[0] == 1.0 and abs(s.amps[1:]).max() == 0.0


def test_basis_states_capped_before_allocating():
    for n in (0, SIM_QUBIT_CAP + 1):
        with pytest.raises(DomainError):
            StateVec.zero(n)
        with pytest.raises(DomainError):
            StateVec.basis(n, 0)


def test_state_amps_frozen():
    s = StateVec.zero(2)
    with pytest.raises(ValueError):
        s.amps[0] = 0.5


def test_gate_validation():
    with pytest.raises(DomainError):
        LocalGate((0, 0), haar_unitary(4, np.random.default_rng(0)))
    with pytest.raises(DomainError):
        LocalGate((0,), np.array([[1, 1], [0, 1]], dtype=complex))  # not unitary
    with pytest.raises(DomainError):
        LocalGate((0,), np.array([[np.nan, 0], [0, 1]], dtype=complex))
    with pytest.raises(DomainError):
        ControlledGate(((0, 1),), 1, np.array([[0, np.nan], [1, 0]], dtype=complex))
    with pytest.raises(DomainError):
        ControlledGate(((0, 2),), 1, X)  # bad polarity
    with pytest.raises(DomainError):
        ControlledGate(((1, 0),), 1, X)  # control hits target
    with pytest.raises(DomainError):
        Circuit(2, (LocalGate((5,), X),))  # out of range
    # the batch constructor rejects what the single-gate form rejects
    nan = np.array([[0, np.nan], [1, 0]], dtype=complex)
    skew = np.array([[1, 1], [0, 1]], dtype=complex)
    for qubits, target, patterns, matrices in (
        ((0,), 1, [[1], [0]], [X, nan]),
        ((0,), 1, [[1], [0]], [X, skew]),  # one non-unitary matrix in the stack
        ((0,), 1, [[2]], [X]),  # bad polarity
        ((1,), 1, [[0]], [X]),  # control hits target
        ((0, 2), 1, [[0]], [X]),  # one polarity for two controls
        ((0,), 1, [[0], [1]], [X]),  # fewer matrices than patterns
    ):
        with pytest.raises(DomainError):
            ControlledGate.batch(qubits, target, patterns, np.array(matrices))


def test_controlled_batch_matches_single_gates():
    rng = np.random.default_rng(4)
    mats = np.array([haar_unitary(2, rng) for _ in range(3)])
    patterns = [[0, 1], [1, 1], [0, 0]]
    gates = ControlledGate.batch([2, 0], 1, patterns, mats)
    for gate, pattern, m in zip(gates, patterns, mats):
        single = ControlledGate(((2, pattern[0]), (0, pattern[1])), 1, m)
        assert gate.controls == single.controls and gate.target == single.target
        assert np.array_equal(gate.matrix, single.matrix)
        assert not gate.matrix.flags.writeable
    assert ControlledGate.batch([], 0, np.zeros((0, 0)), np.zeros((0, 2, 2))) == []


def test_embed_x_on_qubit_one():
    # X on qubit 1 flips bit 1: |00> (index 0) goes to index 2
    u = embed_gate(LocalGate((1,), X), 2)
    out = u @ StateVec.zero(2).amps
    assert np.allclose(out, np.eye(4)[:, 2])


def test_embed_matches_bit_reindex_oracle():
    rng = np.random.default_rng(42)
    m = haar_unitary(4, rng)
    got = embed_gate(LocalGate((0, 2), m), 3)
    want = embed_oracle((0, 2), m, 3)
    assert np.allclose(got, want, atol=1e-12)
    # a few more random position sets
    for _ in range(20):
        n = int(rng.integers(2, 5))
        g = int(rng.integers(1, min(n, 3) + 1))
        positions = tuple(int(q) for q in rng.choice(n, size=g, replace=False))
        m = haar_unitary(1 << g, rng)
        assert np.allclose(
            embed_gate(LocalGate(positions, m), n),
            embed_oracle(positions, m, n),
            atol=1e-12,
        )


def test_embed_unitary_for_all_variants():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        c = random_circuit(n, 1, rng)
        u = embed_gate(c.gates[0], n)
        assert np.allclose(u.conj().T @ u, np.eye(1 << n), atol=1e-10)


def test_phase_on_zero():
    c = Circuit(1, (PhaseOnZero(np.pi),))
    out = apply_circuit(c, StateVec.zero(1))
    assert np.allclose(out.amps, [-1.0, 0.0])
    for w in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            PhaseOnZero(w)


def test_controlled_gate_polarity():
    # fire X on qubit 1 only when qubit 0 is 0
    g = ControlledGate(((0, 0),), 1, X)
    out = apply_circuit(Circuit(2, (g,)), StateVec.zero(2))
    assert np.allclose(out.amps, np.eye(4)[:, 2])
    out2 = apply_circuit(Circuit(2, (g,)), StateVec.basis(2, 1))
    assert np.allclose(out2.amps, np.eye(4)[:, 1])  # control bit is 1, no fire


def test_runs_cut_at_each_repeated_pattern():
    # gates on one target and control sequence commute only while their
    # polarity patterns are distinct; each repeat starts a new step
    rng = np.random.default_rng(31)
    n, qubits = 4, (3, 0, 2)
    for patterns in ([5, 5, 5], [1, 6, 1, 6], [0, 2, 7, 2, 0], [3, 4, 3, 3, 4, 1, 4]):
        gates = [ControlledGate(tuple((q, (b >> j) & 1) for j, q in enumerate(qubits)), 1,
                                haar_unitary(2, rng)) for b in patterns]
        want = np.eye(1 << n, dtype=complex)
        for gate in gates:
            want = gate_oracle(gate, n) @ want
        assert np.abs(circuit_to_matrix(Circuit(n, tuple(gates))) - want).max() <= 1e-12


def test_apply_matches_dense_oracle():
    rng = np.random.default_rng(11)
    c = random_circuit(3, 3, rng)
    s = random_state(3, rng)
    dense = np.eye(8, dtype=complex)
    for gate in c.gates:
        dense = embed_gate(gate, 3) @ dense
    assert np.allclose(apply_circuit(c, s).amps, dense @ s.amps, atol=1e-12)


def test_apply_vs_matrix_random_pairs():
    rng = np.random.default_rng(100)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        c = random_circuit(n, int(rng.integers(0, 6)), rng)
        s = random_state(n, rng)
        direct = apply_circuit(c, s).amps
        via_matrix = circuit_to_matrix(c) @ s.amps
        assert np.linalg.norm(direct - via_matrix) <= 1e-9


def test_circuit_to_matrix_matches_oracle_product():
    # Four circuits of single random gates, then four of controlled-gate runs
    # broken by single gates, each against the brute-force product and
    # against the gates applied one circuit at a time.
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        for trial in range(8):
            if trial < 4:
                gates = tuple(kernel_gate(n, rng) for _ in range(6))
            else:
                gates = tuple(
                    g for i in range(5)
                    for g in (kernel_run(n, rng) if i % 2 == 0 else [kernel_gate(n, rng)])
                )
            want = np.eye(1 << n, dtype=complex)
            one_by_one = np.eye(1 << n, dtype=complex)
            for gate in gates:
                want = gate_oracle(gate, n) @ want
                one_by_one = circuit_to_matrix(Circuit(n, (gate,))) @ one_by_one
            got = circuit_to_matrix(Circuit(n, gates))
            assert np.allclose(got, want, atol=1e-12)
            assert np.allclose(got, one_by_one, atol=1e-12)


def test_apply_leaves_input_state_unchanged():
    rng = np.random.default_rng(13)
    for n in (1, 3):
        s = random_state(n, rng)
        before = s.amps.copy()
        gates = (ControlledGate((), 0, X), PhaseOnZero(0.3)) + random_circuit(n, 6, rng).gates
        out = apply_circuit(Circuit(n, gates), s)
        assert np.array_equal(s.amps, before)
        assert not np.shares_memory(out.amps, s.amps)


def test_apply_peak_memory_and_result_layout():
    # The input copy and one spare buffer, plus at most a quarter of a state
    # of slab temporaries for a gate on non-adjacent qubits.
    rng = np.random.default_rng(14)
    n = 16
    s = random_state(n, rng)
    before = s.amps.copy()
    for gates in (
        (LocalGate((3, 4), haar_unitary(4, rng)), LocalGate((15, 14, 13), haar_unitary(8, rng))),
        (LocalGate((15, 0), haar_unitary(4, rng)), LocalGate((0, 8, 15), haar_unitary(8, rng))),
        (ControlledGate((), 5, X), ControlledGate((), 0, haar_unitary(2, rng))),
    ):
        tracemalloc.start()
        try:
            out = apply_circuit(Circuit(n, gates), s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * s.amps.nbytes
        assert out.amps.flags.c_contiguous and not out.amps.flags.writeable
        assert np.array_equal(s.amps, before)


def test_non_adjacent_gates_in_slabs_match_oracle():
    # Blocks of 2**14 and 2**16 amplitudes, contracted in two and in eight
    # slabs, with gate qubits among the leading axes the slabs are cut from.
    rng = np.random.default_rng(15)
    n = 10
    c = Circuit(n, tuple(
        LocalGate(pos, haar_unitary(1 << len(pos), rng)) for pos in ((9, 0), (0, 5, 9), (8, 1, 9), (3, 7))
    ))
    want = np.eye(1 << n, dtype=complex)
    for gate in c.gates:
        want = gate_oracle(gate, n) @ want
    for cols in (16, 64):
        inputs = rng.choice(1 << n, size=cols, replace=False)
        assert np.allclose(basis_columns(c, inputs), want[:, inputs], atol=1e-12)
    # Wide gates on a block of 2**16 amplitudes that leave two untouched
    # qubits, or one, to cut slabs from.
    n = 8
    for pos in ((0, 1, 2, 3, 4, 6), (7, 0, 1, 2, 3, 4, 5)):
        gate = LocalGate(pos, haar_unitary(1 << len(pos), rng))
        assert np.allclose(circuit_to_matrix(Circuit(n, (gate,))), gate_oracle(gate, n), atol=1e-12)


def test_basis_columns_match_matrix_columns():
    rng = np.random.default_rng(9)
    c = random_circuit(4, 8, rng)
    inputs = [5, 0, 5, 15]
    assert np.allclose(basis_columns(c, inputs), circuit_to_matrix(c)[:, inputs], atol=1e-12)
    assert basis_columns(c, []).shape == (16, 0)
    with pytest.raises(DomainError):
        basis_columns(c, [16])


def test_apply_preserves_norm():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        out = apply_circuit(random_circuit(n, 4, rng), random_state(n, rng))
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12


def test_circuit_to_matrix_trivials():
    assert np.allclose(circuit_to_matrix(Circuit(1, ())), np.eye(2))
    assert np.allclose(circuit_to_matrix(Circuit(1, (LocalGate((0,), X),))), X)


def test_circuit_to_matrix_columns_match_apply():
    rng = np.random.default_rng(8)
    c = random_circuit(2, 4, rng)
    u = circuit_to_matrix(c)
    for b in range(4):
        col = apply_circuit(c, StateVec.basis(2, b)).amps
        assert np.allclose(u[:, b], col, atol=1e-12)


def test_gate_order_is_left_to_right():
    # X then Z on one qubit: amplitudes pick up the phase after the flip
    Z = np.diag([1.0, -1.0]).astype(complex)
    c = Circuit(1, (LocalGate((0,), X), LocalGate((0,), Z)))
    assert np.allclose(circuit_to_matrix(c), Z @ X)


def test_dagger_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        c = random_circuit(n, 5, rng)
        s = random_state(n, rng)
        back = apply_circuit(circuit_dagger(c), apply_circuit(c, s))
        assert np.linalg.norm(back.amps - s.amps) <= 1e-9


def test_dagger_phase_gate():
    d = circuit_dagger(Circuit(1, (PhaseOnZero(0.7),)))
    assert isinstance(d.gates[0], PhaseOnZero) and d.gates[0].w == -0.7


def test_measure_prefix_point_mass():
    for n in (1, 3):
        for l in range(1, n + 1):
            dist = measure_prefix(StateVec.zero(n), l)
            assert dist.probs[0] == 1.0 and dist.probs[1:].sum() == 0.0


def test_measure_prefix_exhaustive_oracle():
    rng = np.random.default_rng(17)
    s = random_state(4, rng)
    dist = measure_prefix(s, 2)
    for pattern in range(4):
        total = sum(
            abs(s.amps[b]) ** 2 for b in range(16) if b % 4 == pattern
        )
        assert abs(dist.probs[pattern] - total) < 1e-12


def test_measure_prefix_coarsening():
    # l-bit distribution is the (l+1)-bit one summed over its top bit
    rng = np.random.default_rng(19)
    s = random_state(4, rng)
    for l in range(1, 4):
        fine = measure_prefix(s, l + 1).probs
        coarse = measure_prefix(s, l).probs
        assert np.allclose(coarse, fine[: 1 << l] + fine[1 << l:], atol=1e-12)


def test_distribution_validation():
    with pytest.raises(DomainError):
        Distribution(1, np.array([0.5, 0.4]))
    with pytest.raises(DomainError):
        Distribution(1, np.array([1.1, -0.1]))
    with pytest.raises(DomainError):
        Distribution(1, np.array([np.nan, 1.0]))
    d = Distribution(1, np.array([1.0 + 5e-13, -5e-13]))  # tiny negatives clamp
    assert d.probs[1] == 0.0


def test_default_cost_model():
    n = 5
    assert default_gate_cost(LocalGate((0, 1), haar_unitary(4, np.random.default_rng(0))), n) == 1
    assert default_gate_cost(LocalGate((0, 1, 2), haar_unitary(8, np.random.default_rng(0))), n) == 8
    assert default_gate_cost(ControlledGate(((0, 1), (1, 0), (2, 1)), 3, X), n) == 3
    assert default_gate_cost(ControlledGate(((0, 1),), 1, X), n) == 1
    assert default_gate_cost(PhaseOnZero(0.5), n) == 25
    c = Circuit(2, (LocalGate((0,), X), PhaseOnZero(1.0)))
    cost = c.cost()
    assert cost.primitive_count == 2
    assert cost.two_qubit_equiv == 1 + 4
