"""Exact circuit synthesis.

prepare_state builds a circuit driving |0...0> to a target state with a
cascade of fully conditioned single-qubit rotations. synthesize_transitive
realizes any wanted action on the first k basis states by extending it to
a unitary with at least 2**n - k unit eigenvalues and expanding the rest
into conjugated phase-on-zero factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .tensor import (
    Circuit,
    ControlledGate,
    DomainError,
    LocalGate,
    PhaseOnZero,
    StateVec,
    apply_circuit,
    basis_columns,
    circuit_dagger,
)

BRANCH_TOL = 1e-12       # conditional branches with smaller weight are skipped
IDENTITY_GATE_TOL = 1e-14
UNIT_EIGENVALUE_TOL = 1e-7
ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class OrthoSeq:
    """k pairwise-orthonormal target states on n qubits."""

    n: int
    states: tuple[StateVec, ...]

    def __post_init__(self):
        states = tuple(self.states)
        if not states:
            raise DomainError("need at least one target state")
        if len(states) > 1 << self.n:
            raise DomainError(f"{len(states)} states exceed dimension {1 << self.n}")
        for s in states:
            if s.n != self.n:
                raise DomainError(f"state on {s.n} qubits in a sequence on {self.n}")
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                ip = abs(np.vdot(states[i].amps, states[j].amps))
                if ip > ORTHO_TOL:
                    raise DomainError(f"states {i} and {j} not orthogonal (|<u_i|u_j>| = {ip:.3e})")
        object.__setattr__(self, "states", states)

    @property
    def k(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class SynthesisReport:
    circuit: Circuit
    primitive_count: int
    two_qubit_equiv: float
    residual: float


def _report(circuit: Circuit, residual: float) -> SynthesisReport:
    cost = circuit.cost()
    return SynthesisReport(circuit, cost.primitive_count, cost.two_qubit_equiv, residual)


def _near_identity(m: np.ndarray) -> bool:
    return bool(np.abs(m - np.eye(m.shape[0])).max() <= IDENTITY_GATE_TOL)


def _lift_column(a0: complex, a1: complex) -> np.ndarray:
    """Determinant-1 single-qubit unitary with first column (a0, a1)."""
    norm = np.sqrt(abs(a0) ** 2 + abs(a1) ** 2)
    a0, a1 = a0 / norm, a1 / norm
    return np.array([[a0, -np.conj(a1)], [a1, np.conj(a0)]])


def _prepare_gates(amps: np.ndarray, n: int) -> list:
    if n == 1:
        gate = LocalGate((0,), _lift_column(amps[0], amps[1]))
        return [] if _near_identity(gate.matrix) else [gate]
    half = 1 << (n - 1)
    low = amps[:half]        # last qubit (bit n-1) = 0
    high = amps[half:]       # last qubit (bit n-1) = 1
    weights = np.sqrt(np.abs(low) ** 2 + np.abs(high) ** 2)
    gates = _prepare_gates(weights.astype(complex), n - 1)
    for b in range(half):
        if weights[b] < BRANCH_TOL:
            continue
        m = _lift_column(low[b], high[b])
        if _near_identity(m):
            continue
        controls = tuple((i, (b >> i) & 1) for i in range(n - 1))
        gates.append(ControlledGate(controls, n - 1, m))
    return gates


def prepare_state(u: StateVec) -> SynthesisReport:
    """Circuit mapping |0...0> to u exactly, global phase included.

    Recursive branch construction: the magnitude profile of the first
    n-1 bits is prepared first, then one conditioned rotation per surviving
    branch pattern installs the target pair of amplitudes on the last
    qubit. At most 2**n - 1 primitive gates come out.
    """
    circuit = Circuit(u.n, tuple(_prepare_gates(u.amps, u.n)))
    out = apply_circuit(circuit, StateVec.zero(u.n))
    residual = float(np.linalg.norm(out.amps - u.amps))
    return _report(circuit, residual)


def extend_to_unitary(v, tol: float = ORTHO_TOL) -> np.ndarray:
    """Extend k orthonormal rows to an m x m unitary with at least m - k
    eigenvalues equal to 1.

    The fixed subspace is read off the null space of v - [I_k 0]: those
    null vectors x satisfy v x = (first k entries of x), so any unitary
    completion acting as the identity on their span fixes them. The bottom
    rows are a congruence-matching rotation of the orthogonal complement.
    """
    vm = np.asarray(v, dtype=complex)
    if vm.ndim != 2:
        raise DomainError(f"need a matrix of rows, got shape {vm.shape}")
    k, m = vm.shape
    if k > m:
        raise DomainError(f"more rows ({k}) than columns ({m})")
    gap = np.linalg.norm(vm @ vm.conj().T - np.eye(k))
    if gap > tol:
        raise DomainError(f"rows are not orthonormal (defect {gap:.3e})")
    if k == m:
        return vm.copy()

    q = m - k
    # orthonormal basis of the complement of the row space
    w = linalg.null_space(vm, q)[:, :q].conj().T
    eye_pad = np.zeros((k, m), dtype=complex)
    eye_pad[:, :k] = np.eye(k)
    x = linalg.null_space(vm - eye_pad, q)[:, :q]
    x2 = x[k:, :]
    rot = linalg.unitary_from_congruence(w @ x, x2)
    return np.vstack([vm, rot @ w])


def _phase_factor_gates(x: StateVec, w: float) -> list:
    prep = prepare_state(x).circuit
    return list(circuit_dagger(prep).gates) + [PhaseOnZero(w)] + list(prep.gates)


def synthesize_transitive(targets: OrthoSeq) -> SynthesisReport:
    """Circuit sending |i> to targets.states[i] for every i < k.

    The column action is extended (through its transpose) to a unitary
    with at least 2**n - k unit eigenvalues; each remaining eigenpair
    (exp(i w), x) contributes the factor P_x I_w P_x^dagger where P_x
    prepares x. At most k phase-on-zero gates are emitted.
    """
    n, k = targets.n, targets.k
    rows = np.array([s.amps for s in targets.states])  # row i = u_i (transposed columns)
    extended = extend_to_unitary(rows)
    u_target = extended.T  # column i = u_i; eigenvalue multiset unchanged
    lam, vecs = linalg.eig_unitary(u_target)
    gates: list = []
    for j in range(lam.size):
        if abs(lam[j] - 1.0) <= UNIT_EIGENVALUE_TOL:
            continue
        angle = float(np.angle(lam[j]))
        gates.extend(_phase_factor_gates(StateVec(n, vecs[:, j]), angle))
    circuit = Circuit(n, tuple(gates))
    out = basis_columns(circuit, range(k))
    residual = float(np.linalg.norm(out - rows.T, axis=0).max())
    return _report(circuit, residual)


def gate_budget(k: int, per_prep: float, per_phase: float) -> float:
    """Worst-case gate count for a k-transitive synthesis, given the cost
    of one state preparation and of one phase-on-zero factor."""
    if k < 0:
        raise DomainError(f"k must be nonnegative, got {k}")
    return k * (2 * per_prep + per_phase)
