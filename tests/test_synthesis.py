import numpy as np
import pytest

from qcapprox import (
    Circuit,
    ControlledGate,
    LocalGate,
    OrthoSeq,
    PhaseOnZero,
    StateVec,
    apply_circuit,
    circuit_dagger,
    circuit_to_matrix,
    extend_to_unitary,
    gate_budget,
    prepare_state,
    synthesize_transitive,
)
from qcapprox import synthesis, tensor
from qcapprox.linalg import eig_unitary, gram_schmidt
from qcapprox.metrics import weak_two_norm
from qcapprox.synthesis import BRANCH_TOL, IDENTITY_GATE_TOL, _prepare_gates
from qcapprox.tensor import DomainError
from helpers import branch_gates, haar_unitary, random_state, traced_peak


def test_prepare_zero_state_is_empty():
    report = prepare_state(StateVec.zero(3))
    assert report.circuit.gates == ()
    assert report.residual == 0.0


def test_prepare_plus_state_single_gate():
    plus = StateVec(1, np.array([1.0, 1.0]) / np.sqrt(2))
    report = prepare_state(plus)
    assert len(report.circuit.gates) == 1
    g = report.circuit.gates[0]
    assert isinstance(g, LocalGate)
    assert np.allclose(g.matrix[:, 0], plus.amps)
    out = apply_circuit(report.circuit, StateVec.zero(1))
    assert np.linalg.norm(out.amps - plus.amps) < 1e-12


def test_prepare_random_states_exact_with_count_bounds():
    rng = np.random.default_rng(0)
    for n in range(1, 7):
        for _ in range(10):
            u = random_state(n, rng)
            report = prepare_state(u)
            out = apply_circuit(report.circuit, StateVec.zero(n))
            assert np.linalg.norm(out.amps - u.amps) <= 1e-9
            assert report.residual <= 1e-9
            controlled = sum(
                isinstance(g, ControlledGate) for g in report.circuit.gates
            )
            assert controlled <= (1 << n) - 1
            branches = sum(len(g.pattern) for g in report.circuit.gates if isinstance(g, ControlledGate))
            assert branches <= (1 << n) - 1
            assert report.two_qubit_equiv <= n * (1 << n)
            assert report.primitive_count == len(branch_gates(report.circuit.gates))


def test_prepare_sparse_state_skips_dead_branches():
    # amplitude only on |00> and |11>: the last level needs no rotation where qubit 0 is 0
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1 / np.sqrt(2)
    report = prepare_state(StateVec(2, amps))
    out = apply_circuit(report.circuit, StateVec.zero(2))
    assert np.linalg.norm(out.amps - amps) < 1e-12
    controlled = [g for g in report.circuit.gates if isinstance(g, ControlledGate)]
    assert len(controlled) <= 2


def _reference_lift(a0, a1):
    norm = np.sqrt(abs(a0) ** 2 + abs(a1) ** 2)
    a0, a1 = a0 / norm, a1 / norm
    return np.array([[a0, -np.conj(a1)], [a1, np.conj(a0)]])


def _reference_near_identity(m):
    return bool(np.abs(m - np.eye(m.shape[0])).max() <= IDENTITY_GATE_TOL)


def _reference_prepare_gates(amps, n):
    """The cascade built recursively, one gate object at a time."""
    if n == 1:
        gate = LocalGate((0,), _reference_lift(amps[0], amps[1]))
        return [] if _reference_near_identity(gate.matrix) else [gate]
    half = 1 << (n - 1)
    low, high = amps[:half], amps[half:]
    weights = np.sqrt(np.abs(low) ** 2 + np.abs(high) ** 2)
    gates = _reference_prepare_gates(weights.astype(complex), n - 1)
    for b in range(half):
        if weights[b] < BRANCH_TOL:
            continue
        m = _reference_lift(low[b], high[b])
        if _reference_near_identity(m):
            continue
        controls = tuple((i, (b >> i) & 1) for i in range(n - 1))
        gates.append(ControlledGate(controls, n - 1, m))
    return gates


def test_prepare_gates_match_recursive_reference():
    rng = np.random.default_rng(12)
    states = []
    for n in (1, 2, 5, 8):
        states.append(random_state(n, rng))  # Haar
        real = rng.standard_normal(1 << n)
        states.append(StateVec(n, real / np.linalg.norm(real)))
        sparse = random_state(n, rng).amps.copy()
        sparse[rng.random(1 << n) < 0.6] = 0.0  # zero-weight branches
        sparse[0] = 1.0
        states.append(StateVec(n, sparse / np.linalg.norm(sparse)))
        for b in (0, (1 << n) - 1, int(rng.integers(0, 1 << n))):
            # one branch survives per level; it rotates only where bit l-1 of b is set
            assert len(_prepare_gates(StateVec.basis(n, b).amps, n)) == bin(b).count("1")
            states.append(StateVec.basis(n, b))
    for u in states:
        got = branch_gates(_prepare_gates(u.amps, u.n))
        want = _reference_prepare_gates(u.amps, u.n)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert type(g) is type(w)
            assert getattr(g, "positions", None) == getattr(w, "positions", None)
            assert getattr(g, "controls", None) == getattr(w, "controls", None)
            assert getattr(g, "target", None) == getattr(w, "target", None)
            assert np.abs(g.matrix - w.matrix).max() <= 1e-13


def _stacked_prepare_levels(amps, n):
    """(level, patterns, stack) for each level with a kept branch, from
    complex weights, complex division and one np.stack of the four entries."""
    levels = [np.asarray(amps, dtype=complex)]
    for _ in range(n):
        v = levels[-1]
        half = v.size // 2
        levels.append(np.sqrt(np.abs(v[:half]) ** 2 + np.abs(v[half:]) ** 2).astype(complex))
    out = []
    for l in range(1, n + 1):
        v, w = levels[n - l], levels[n - l + 1]
        branches = np.flatnonzero(w.real >= BRANCH_TOL)
        a0, a1 = v[branches] / w[branches], v[w.size + branches] / w[branches]
        lifts = np.stack([a0, -a1.conj(), a1, a0.conj()], axis=-1).reshape(-1, 2, 2)
        keep = np.abs(lifts - np.eye(2)).max(axis=(1, 2)) > IDENTITY_GATE_TOL
        if keep.any():
            out.append((l, branches[keep], lifts[keep]))
    return out


def test_prepare_gates_stacks_match_complex_division_byte_for_byte():
    # Real weights below the top level must round as complex division does
    # and keep its zero signs (conj of a real a0 is -0.0 in the bottom-right
    # imaginary part) and its complex dtype. Real-amplitude targets have
    # real lifts on every level, the top one included.
    rng = np.random.default_rng(21)
    targets = []
    for n in (1, 2, 3, 5, 8, 10):
        real = rng.standard_normal(1 << n)
        sparse = random_state(n, rng).amps.copy()
        sparse[rng.random(1 << n) < 0.6] = 0.0  # zero-weight branches
        sparse[0] = 1.0
        basis = np.zeros(1 << n)
        basis[rng.integers(0, 1 << n)] = 1.0
        # 1j * real holds -0.0 real parts, where complex division and
        # multiplication by the reciprocal give zeros of opposite sign.
        for amps in (random_state(n, rng).amps, real, np.abs(real), 1j * real, sparse, sparse.real,
                     basis):
            targets.append(StateVec(n, amps / np.linalg.norm(amps)))
    for u in targets:
        got = _prepare_gates(u.amps, u.n)
        want = _stacked_prepare_levels(u.amps, u.n)
        assert len(got) == len(want)
        for g, (l, pattern, stack) in zip(got, want):
            if l == 1:
                assert isinstance(g, LocalGate) and g.matrix.tobytes() == stack[0].tobytes()
                continue
            assert g.target == l - 1 and g.wires == tuple(range(l - 1))
            assert g.pattern.dtype == np.int64 and g.pattern.tobytes() == pattern.tobytes()
            assert g.stack.dtype == complex and g.stack.tobytes() == stack.tobytes()


def test_prepare_gates_peak_memory():
    # At n=20 the gates keep 4.5 states (stacks 4, patterns 0.5) and the
    # real weights half a state; the top level's two lift columns and
    # branch indices add about one more while its stack is filled.
    n = 20
    u = random_state(n, np.random.default_rng(22))
    gates, peak = traced_peak(lambda: _prepare_gates(u.amps, n))
    assert len(gates) == n
    assert peak <= 6.5 * u.amps.nbytes


def _assert_passes_public_checks(circuit):
    """The circuit, re-validated by Circuit, and each gate and each branch
    by its constructor; every matrix and pattern array read-only."""
    Circuit(circuit.n, circuit.gates)
    for g in circuit.gates:
        if isinstance(g, ControlledGate):
            ControlledGate.multiplexor(g.wires, g.target, g.pattern, g.stack)
            assert not g.pattern.flags.writeable
    for g in branch_gates(circuit.gates):
        if isinstance(g, LocalGate):
            LocalGate(g.positions, g.matrix)
        elif isinstance(g, ControlledGate):
            ControlledGate(g.controls, g.target, g.matrix)
        if not isinstance(g, PhaseOnZero):
            assert not g.matrix.flags.writeable


def test_synthesized_circuits_pass_the_public_check():
    # both synthesizers build their circuits and gates unchecked
    rng = np.random.default_rng(13)
    for n in range(1, 9):
        for u in (random_state(n, rng), StateVec.basis(n, int(rng.integers(0, 1 << n)))):
            _assert_passes_public_checks(prepare_state(u).circuit)
    for n, k in ((1, 1), (3, 2), (6, 4)):
        report = synthesize_transitive(_random_ortho_seq(n, k, rng))
        assert report.residual <= 1e-7
        _assert_passes_public_checks(report.circuit)


def test_prepare_sparse_target_builds_no_table_per_level():
    # one branch passes BRANCH_TOL per level: no level may build 2^(l-1) control tuples
    n = 20
    for b in (1, (1 << n) - 1, 0b10110011100011110000):
        u = StateVec.basis(n, b)
        report, peak = traced_peak(lambda: prepare_state(u))
        assert report.residual == 0.0
        assert len(report.circuit.gates) <= n
        assert peak < 4 * (16 << n)  # four states of n qubits


def test_prepare_exact_global_phase():
    # exact including global phase, not merely up to phase
    rng = np.random.default_rng(1)
    u = random_state(3, rng)
    phased = StateVec(3, u.amps * np.exp(1.234j))
    out = apply_circuit(prepare_state(phased).circuit, StateVec.zero(3))
    assert np.linalg.norm(out.amps - phased.amps) <= 1e-9


def test_prepare_rejects_unnormalized():
    with pytest.raises(DomainError):
        StateVec(1, np.array([1.0, 1.0]))


def test_synthesis_refuses_beyond_the_simulation_cap_first(monkeypatch):
    """A register above the cap is refused before any cascade, QR, SVD or
    Schur step runs, with the simulation cap's own message."""

    def never(*args):
        raise AssertionError("work started before the cap was checked")

    u = haar_unitary(32, np.random.default_rng(12))
    seq = OrthoSeq(5, (StateVec(5, u[:, 0]), StateVec(5, u[:, 1])))
    monkeypatch.setattr(tensor, "SIM_QUBIT_CAP", 4)
    for name in ("_prepare_gates", "extend_to_unitary"):
        monkeypatch.setattr(synthesis, name, never)
    monkeypatch.setattr(np.linalg, "qr", never)
    with pytest.raises(DomainError, match="simulation capped at 4 qubits, got 5"):
        prepare_state(seq.states[0])
    with pytest.raises(DomainError, match="simulation capped at 4 qubits, got 5"):
        synthesize_transitive(seq)


def test_extend_identity_rows():
    for k, m in ((1, 4), (3, 4), (3, 8), (7, 8), (4, 16), (15, 16)):
        v = np.hstack([np.eye(k), np.zeros((k, m - k))]).astype(complex)
        assert np.array_equal(extend_to_unitary(v), np.eye(m, dtype=complex))


def test_extend_square_input_returned():
    rng = np.random.default_rng(2)
    u = haar_unitary(8, rng)
    assert np.allclose(extend_to_unitary(u), u)


def test_extend_random_rows():
    rng = np.random.default_rng(3)
    for _ in range(40):
        m = int(rng.choice([4, 8, 16]))
        k = int(rng.integers(1, 5))
        rows = gram_schmidt(
            [rng.normal(size=m) + 1j * rng.normal(size=m) for _ in range(k)]
        )
        v = np.array(rows)
        ext = extend_to_unitary(v)
        assert np.allclose(ext[:k, :], v, atol=1e-8)
        assert np.allclose(ext.conj().T @ ext, np.eye(m), atol=1e-8)
        lam, _ = eig_unitary(ext)
        unit_count = int(np.sum(np.abs(lam - 1) <= 1e-7))
        assert unit_count >= m - k


def test_extend_two_rows_in_dim_eight():
    rng = np.random.default_rng(4)
    rows = gram_schmidt(
        [rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(2)]
    )
    ext = extend_to_unitary(np.array(rows))
    lam, _ = eig_unitary(ext)
    assert int(np.sum(np.abs(lam - 1) <= 1e-7)) >= 6


def test_extend_rejects_nonorthonormal():
    with pytest.raises(DomainError):
        extend_to_unitary(np.array([[1.0, 1.0, 0.0, 0.0]], dtype=complex))


def test_transitive_basis_targets_empty():
    for n in range(1, 5):
        for k in range(1, min(1 << n, 6) + 1):
            seq = OrthoSeq(n, tuple(StateVec.basis(n, b) for b in range(k)))
            report = synthesize_transitive(seq)
            assert report.circuit.gates == ()


def test_transitive_bit_flip():
    # swap the two basis states of one qubit: the circuit realizes X
    seq = OrthoSeq(1, (StateVec.basis(1, 1), StateVec.basis(1, 0)))
    report = synthesize_transitive(seq)
    phases = [g for g in report.circuit.gates if isinstance(g, PhaseOnZero)]
    assert len(phases) == 1
    assert abs(abs(phases[0].w) - np.pi) < 1e-9
    m = circuit_to_matrix(report.circuit)
    assert np.allclose(m, np.array([[0, 1], [1, 0]]), atol=1e-8)


def test_transitive_random_columns():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        for k in (1, 2, min(4, 1 << n)):
            for _ in range(5):
                u = haar_unitary(1 << n, rng)
                seq = OrthoSeq(
                    n, tuple(StateVec(n, u[:, i]) for i in range(k))
                )
                report = synthesize_transitive(seq)
                assert report.residual <= 1e-7
                for i in range(k):
                    out = apply_circuit(report.circuit, StateVec.basis(n, i))
                    assert np.linalg.norm(out.amps - u[:, i]) <= 1e-7
                phases = sum(
                    isinstance(g, PhaseOnZero) for g in report.circuit.gates
                )
                assert phases <= k


def _random_ortho_seq(n, k, rng):
    z = rng.standard_normal((1 << n, k)) + 1j * rng.standard_normal((1 << n, k))
    q, _ = np.linalg.qr(z)
    return OrthoSeq(n, tuple(StateVec(n, q[:, i]) for i in range(k)))


@pytest.mark.parametrize("n,k", [(12, 1), (12, 2), (14, 1), (16, 1)])
def test_transitive_large_n(n, k):
    # the linear algebra runs on a <= 2k-dimensional subspace, so n = 16 is cheap
    rng = np.random.default_rng(n + k)
    seq = _random_ortho_seq(n, k, rng)
    report = synthesize_transitive(seq)
    assert report.residual <= 1e-7
    assert sum(isinstance(g, PhaseOnZero) for g in report.circuit.gates) <= k
    # a state orthogonal to every e_i and u_i is left alone
    span, _ = np.linalg.qr(np.column_stack([np.eye(1 << n, k)] + [s.amps for s in seq.states]))
    z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    z -= span @ (span.conj().T @ z)
    fixed = StateVec(n, z / np.linalg.norm(z))
    assert np.linalg.norm(apply_circuit(report.circuit, fixed).amps - fixed.amps) <= 1e-7


def test_transitive_allocates_no_dense_matrix():
    n, k = 9, 1
    seq = _random_ortho_seq(n, k, np.random.default_rng(9))
    _, peak = traced_peak(lambda: synthesize_transitive(seq))
    assert peak < (1 << 2 * n) * 16  # one 2^n x 2^n complex array


def test_transitive_circuit_unit_eigenvalues():
    # the synthesized circuit itself, not just the extension, fixes all but k directions
    rng = np.random.default_rng(8)
    for n in range(1, 7):
        for k in (1, 2, 3):
            if k > 1 << n:
                continue
            report = synthesize_transitive(_random_ortho_seq(n, k, rng))
            lam = np.linalg.eigvals(circuit_to_matrix(report.circuit))
            assert int(np.sum(np.abs(lam - 1) <= 1e-7)) >= (1 << n) - k


def test_transitive_weak_norm_report():
    rng = np.random.default_rng(6)
    u = haar_unitary(8, rng)
    seq = OrthoSeq(3, tuple(StateVec(3, u[:, i]) for i in range(2)))
    report = synthesize_transitive(seq)
    m = circuit_to_matrix(report.circuit)
    assert weak_two_norm(m - u, 2) <= 1e-7


def test_transitive_round_trip_restores_input():
    rng = np.random.default_rng(7)
    u = haar_unitary(8, rng)
    seq = OrthoSeq(3, tuple(StateVec(3, u[:, i]) for i in range(3)))
    circuit = synthesize_transitive(seq).circuit
    s = random_state(3, rng)
    back = apply_circuit(circuit_dagger(circuit), apply_circuit(circuit, s))
    assert np.linalg.norm(back.amps - s.amps) <= 1e-8


def test_ortho_seq_validation():
    with pytest.raises(DomainError):
        OrthoSeq(1, (StateVec.zero(1), StateVec.zero(1)))  # not orthogonal
    with pytest.raises(DomainError):
        OrthoSeq(1, tuple(StateVec.basis(2, b) for b in range(2)))  # wrong n
    with pytest.raises(DomainError):
        OrthoSeq(1, ())
    # pairs (1, 3) and (2, 3) overlap; the first in row-major order is named
    last = StateVec(2, np.array([0, 1, 1, 1]) / np.sqrt(3))
    with pytest.raises(DomainError, match=r"^states 1 and 3 not orthogonal "
                                          r"\(\|<u_i\|u_j>\| = 5\.774e-01\)$"):
        OrthoSeq(2, tuple(StateVec.basis(2, b) for b in range(3)) + (last,))


def test_gate_budget_values():
    assert gate_budget(0, 5, 9) == 0
    assert gate_budget(1, 5, 9) == 19
    assert gate_budget(8, 24, 9) == 456
