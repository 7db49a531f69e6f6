"""Exact circuit synthesis.

prepare_state builds a circuit driving |0...0> to a target state with a
cascade of fully conditioned single-qubit rotations. Level l of the cascade
rotates qubit l-1 once for each pattern of qubits 0..l-2 (a uniformly
controlled rotation, Mottonen et al. 2004, quant-ph/0407010) and is one
ControlledGate holding the branches it keeps. Building, inverting and
applying a cascade take O(1) numpy calls per level and no Python work per
branch.
synthesize_transitive realizes any wanted action on the first k basis
states by extending it to a unitary with at least 2**n - k unit
eigenvalues and expanding the rest into conjugated phase-on-zero factors.
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
    _check_sim_cap,
    _trusted,
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
        amps = np.array([s.amps for s in states])
        overlaps = np.abs(amps.conj() @ amps.T)  # |<u_i|u_j>| for every pair at once
        bad = np.argwhere(np.triu(overlaps > ORTHO_TOL, 1))  # pairs i < j, row-major
        if bad.size:
            i, j = bad[0]
            raise DomainError(f"states {i} and {j} not orthogonal (|<u_i|u_j>| = {overlaps[i, j]:.3e})")
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


def _prepare_gates(amps: np.ndarray, n: int) -> list:
    """Gates of the cascade preparing `amps` from |0...0>, one per level.

    v_n = amps, and v_{l-1} = sqrt(|low|^2 + |high|^2) over the halves of
    v_l. Level l rotates qubit l-1 conditioned on every pattern b of qubits
    0..l-2: the determinant-1 lift with first column (v_l[b], v_l[b + half])
    / v_{l-1}[b], kept only where that weight is at least BRANCH_TOL and the
    lift is not the identity. Level 1 is one local gate; every other level
    with a kept branch is one ControlledGate on wires 0..l-2, whose pattern
    array is the kept b and whose stack is their lifts. The gates are built
    unchecked: each lift is unitary by construction, the patterns are
    distinct and every wire lies below n.

    Below the target the weights stay real. A lift's entries come out bit
    for bit as from complex weights: a real level is multiplied by the
    reciprocal weight, which is what complex division by a real weight
    does, and the conjugates are taken on the complex stack, so a real
    a0 gives the bottom-right entry -0.0 as its imaginary part.
    """
    levels = [np.asarray(amps, dtype=complex)]
    for _ in range(n):
        v = levels[-1]
        half = v.size // 2
        levels.append(np.sqrt(np.abs(v[:half]) ** 2 + np.abs(v[half:]) ** 2))
    gates: list = []
    for l in range(1, n + 1):
        v, w = levels[n - l], levels[n - l + 1]
        half = w.size
        branches = np.flatnonzero(w >= BRANCH_TOL)
        # Slices, not copies, when every branch carries weight (a Haar target).
        b = slice(None) if branches.size == half else branches
        low, high, w = v[:half][b], v[half:][b], w[b]
        if l < n:  # real: complex division by a real w multiplies by 1 / w
            w = 1.0 / w
            a0, a1 = low * w, high * w
        else:
            a0, a1 = low / w, high / w
        # max |lift - I| over its four entries, with no (G, 2, 2) temporary
        keep = np.maximum(np.abs(a0 - 1), np.abs(a1)) > IDENTITY_GATE_TOL
        count = np.count_nonzero(keep)
        if not count:
            continue
        kept = branches.astype(np.int64, copy=False)
        if count < keep.size:
            a0, a1, kept = a0[keep], a1[keep], kept[keep]
        lifts = np.empty((len(kept), 2, 2), dtype=complex)
        lifts[:, 0, 0], lifts[:, 1, 0] = a0, a1
        np.conjugate(lifts[:, 0, 0], out=lifts[:, 1, 1])
        np.negative(np.conjugate(lifts[:, 1, 0], out=lifts[:, 0, 1]), out=lifts[:, 0, 1])
        lifts.flags.writeable = kept.flags.writeable = False
        if l == 1:
            gates.append(LocalGate((0,), lifts[0]))
        else:
            gates.append(_trusted(ControlledGate, wires=tuple(range(l - 1)), target=l - 1,
                                  pattern=kept, stack=lifts))
    return gates


def prepare_state(u: StateVec) -> SynthesisReport:
    """Circuit mapping |0...0> to u exactly, global phase included.

    Level by level: level l installs the magnitude profile of the first l
    bits, one conditioned rotation of qubit l-1 per surviving branch
    pattern of the first l-1 bits; the last level installs the target
    amplitudes, phases included. At most n gates come out, one per level,
    with at most 2**n - 1 branches in all. A register above the simulation
    cap is refused before any level is built.
    """
    _check_sim_cap(u.n)
    circuit = _trusted(Circuit, n=u.n, gates=tuple(_prepare_gates(u.amps, u.n)))
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
    prep = _trusted(Circuit, n=x.n, gates=tuple(_prepare_gates(x.amps, x.n)))
    return list(circuit_dagger(prep).gates) + [PhaseOnZero(w)] + list(prep.gates)


def synthesize_transitive(targets: OrthoSeq) -> SynthesisReport:
    """Circuit sending |i> to targets.states[i] for every i < k.

    The wanted unitary is the identity outside a space of dimension
    d <= 2k holding every e_i and u_i; q is an orthonormal basis of it
    with e_0..e_{k-1} first. The column action, written in that basis, is
    extended (through its transpose) to a d x d unitary with at least
    d - k unit eigenvalues; each remaining eigenpair (exp(i w), y)
    contributes the factor P_x I_w P_x^dagger where P_x prepares x = q y.
    At most k phase-on-zero gates are emitted. A register above the
    simulation cap is refused before any of this starts.
    """
    n, k = targets.n, targets.k
    _check_sim_cap(n)
    rows = np.array([s.amps for s in targets.states])  # row i = u_i (transposed columns)
    tail = np.linalg.qr(rows[:, k:].T)[0]
    q = np.zeros((rows.shape[1], k + tail.shape[1]), dtype=complex)
    q[:k, :k] = np.eye(k)
    q[k:, k:] = tail
    extended = extend_to_unitary(rows @ q.conj())  # row i = (q* u_i)^T
    lam, vecs = linalg.eig_unitary(extended.T)
    gates: list = []
    for j in range(lam.size):
        if abs(lam[j] - 1.0) <= UNIT_EIGENVALUE_TOL:
            continue
        angle = float(np.angle(lam[j]))
        gates.extend(_phase_factor_gates(StateVec(n, q @ vecs[:, j]), angle))
    circuit = _trusted(Circuit, n=n, gates=tuple(gates))
    out = basis_columns(circuit, range(k))
    residual = float(np.linalg.norm(out - rows.T, axis=0).max())
    return _report(circuit, residual)


def gate_budget(k: int, per_prep: float, per_phase: float) -> float:
    """Worst-case gate count for a k-transitive synthesis, given the cost
    of one state preparation and of one phase-on-zero factor."""
    if k < 0:
        raise DomainError(f"k must be nonnegative, got {k}")
    return k * (2 * per_prep + per_phase)
