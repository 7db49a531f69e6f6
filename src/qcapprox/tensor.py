"""Qubit state vectors, gates, circuits and measurement statistics.

Bit convention used throughout: qubit i is tensor factor i and bit i of a
basis index b, extracted as (b >> i) & 1. The low-order bit is the "first"
bit, so the first l bits of b are b % 2**l.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

# Checks against these are written `not x <= tol`, so that NaN fails them.
NORM_TOL = 1e-9
UNITARY_TOL = 1e-9

# Full matrices above this register size are refused by default.
DENSE_QUBIT_CAP = 10
# State-only simulation cap (2**24 amplitudes = 256 MiB of complex128).
SIM_QUBIT_CAP = 24
# Columns run through a circuit together are batched up to this many
# amplitudes (16 MiB of complex128), the size of one 20-qubit state.
BLOCK_AMPS = 1 << 20


class DomainError(ValueError):
    """A precondition on operation inputs was violated."""


def _as_complex_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _check_unitary(matrix: np.ndarray, name: str, tol: float = UNITARY_TOL) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"{name} must be square, got shape {m.shape}")
    d = m.shape[0]
    if d == 0 or d & (d - 1):
        raise DomainError(f"{name} must have power-of-two dimension, got {d}")
    err = np.linalg.norm(m.conj().T @ m - np.eye(d))
    if not err <= tol:
        raise DomainError(f"{name} is not unitary (Frobenius defect {err:.3e} > {tol:.0e})")
    return m


@dataclass(frozen=True)
class StateVec:
    """Normalized state of n qubits: 2**n complex amplitudes."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need n >= 1 qubits, got {self.n}")
        amps = _as_complex_array(self.amps, "amps").copy()
        if amps.shape[0] != 1 << self.n:
            raise DomainError(f"expected {1 << self.n} amplitudes, got {amps.shape[0]}")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise DomainError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL:.0e}")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @staticmethod
    def zero(n: int) -> "StateVec":
        """The all-zeros basis state |0...0>."""
        return StateVec.basis(n, 0)

    @staticmethod
    def basis(n: int, b: int) -> "StateVec":
        if not 1 <= n <= SIM_QUBIT_CAP:
            raise DomainError(f"basis states need 1 <= n <= {SIM_QUBIT_CAP} qubits, got {n}")
        if not 0 <= b < 1 << n:
            raise DomainError(f"basis index {b} out of range for n={n}")
        amps = np.zeros(1 << n, dtype=complex)
        amps[b] = 1.0
        return StateVec(n, amps)


@dataclass(frozen=True)
class Distribution:
    """Probabilities of the 2**l outcomes of measuring the first l bits."""

    l: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).copy()
        if p.shape != (1 << self.l,):
            raise DomainError(f"expected {1 << self.l} probabilities, got shape {p.shape}")
        if p.min() < -1e-12:
            raise DomainError(f"negative probability {p.min()!r}")
        np.clip(p, 0.0, None, out=p)
        total = p.sum()
        if not abs(total - 1.0) <= NORM_TOL:
            raise DomainError(f"probabilities sum to {total!r}, not 1")
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True)
class LocalGate:
    """Unitary on an explicit tuple of qubit positions.

    positions[j] is local tensor factor j, i.e. bit j of the row/column
    index of `matrix`.
    """

    positions: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        pos = tuple(int(q) for q in self.positions)
        if len(pos) == 0:
            raise DomainError("local gate needs at least one position")
        if len(set(pos)) != len(pos):
            raise DomainError(f"duplicate qubit positions {pos}")
        if min(pos) < 0:
            raise DomainError(f"negative qubit position in {pos}")
        m = _check_unitary(self.matrix, "gate matrix")
        if m.shape[0] != 1 << len(pos):
            raise DomainError(
                f"matrix dimension {m.shape[0]} does not match {len(pos)} positions"
            )
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "matrix", m)

    @property
    def arity(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class ControlledGate:
    """Single-qubit unitary applied to `target` when every control matches.

    controls is a tuple of (qubit, polarity) pairs; polarity 1 fires on the
    control bit being 1, polarity 0 on it being 0.
    """

    controls: tuple[tuple[int, int], ...]
    target: int
    matrix: np.ndarray

    def __post_init__(self):
        ctrls = tuple((int(q), int(p)) for q, p in self.controls)
        qubits = [q for q, _ in ctrls]
        if any(p not in (0, 1) for _, p in ctrls):
            raise DomainError(f"control polarities must be 0 or 1: {ctrls}")
        touched = qubits + [int(self.target)]
        if len(set(touched)) != len(touched):
            raise DomainError(f"controls {qubits} and target {self.target} must be distinct")
        if min(touched) < 0:
            raise DomainError("negative qubit index")
        m = _check_unitary(self.matrix, "gate matrix")
        if m.shape != (2, 2):
            raise DomainError(f"controlled gate matrix must be 2x2, got {m.shape}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "controls", ctrls)
        object.__setattr__(self, "target", int(self.target))
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class PhaseOnZero:
    """Multiply the amplitude of |0...0> by exp(i*w); identity elsewhere."""

    w: float

    def __post_init__(self):
        object.__setattr__(self, "w", float(self.w))


Gate = Union[LocalGate, ControlledGate, PhaseOnZero]


def gate_qubits(gate: Gate) -> tuple[int, ...]:
    """All qubit indices a gate touches (empty for PhaseOnZero)."""
    if isinstance(gate, LocalGate):
        return gate.positions
    if isinstance(gate, ControlledGate):
        return tuple(q for q, _ in gate.controls) + (gate.target,)
    if isinstance(gate, PhaseOnZero):
        return ()
    raise DomainError(f"unknown gate type {type(gate).__name__}")


def default_gate_cost(gate: Gate, n: int) -> float:
    """Two-qubit-equivalent cost of one primitive gate on an n-qubit register."""
    if isinstance(gate, LocalGate):
        g = gate.arity
        return 1.0 if g <= 2 else float(1 << g)
    if isinstance(gate, ControlledGate):
        return float(max(1, len(gate.controls)))
    if isinstance(gate, PhaseOnZero):
        return float(n * n)
    raise DomainError(f"unknown gate type {type(gate).__name__}")


CostModel = Callable[[Gate, int], float]


@dataclass(frozen=True)
class CircuitCost:
    primitive_count: int
    two_qubit_equiv: float


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on an n-qubit register, applied left to right."""

    n: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need n >= 1 qubits, got {self.n}")
        gates = tuple(self.gates)
        for g in gates:
            bad = [q for q in gate_qubits(g) if not 0 <= q < self.n]
            if bad:
                raise DomainError(f"gate {type(g).__name__} touches qubit(s) {bad} outside [0, {self.n})")
        object.__setattr__(self, "gates", gates)

    def cost(self, model: CostModel = default_gate_cost) -> CircuitCost:
        return CircuitCost(
            primitive_count=len(self.gates),
            two_qubit_equiv=float(sum(model(g, self.n) for g in self.gates)),
        )


def embed_gate(gate: Gate, n: int, dense_cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """Full 2**n x 2**n unitary of a single gate on an n-qubit register."""
    return circuit_to_matrix(Circuit(n, (gate,)), dense_cap)


def _run_gates(gates, n: int, block: np.ndarray) -> np.ndarray:
    """Apply gates in order to every column of a (2**n, B) block.

    The block is viewed as a [2]*n + [B] tensor whose axis n-1-q is qubit
    q. Controlled and phase-on-zero gates update that view in place; a
    local gate contracts into a fresh tensor. Returns the (2**n, B) result,
    which may share memory with `block`.
    """
    t = block.reshape([2] * n + [block.shape[1]])
    for gate in gates:
        if isinstance(gate, ControlledGate):
            # Length-1 slices keep every index basic, so both halves are
            # views of t and the updates land in it.
            index = [slice(None)] * (n + 1)
            for q, pol in gate.controls:
                index[n - 1 - q] = slice(pol, pol + 1)
            axis = n - 1 - gate.target
            index[axis] = slice(0, 1)
            v0 = t[tuple(index)]
            index[axis] = slice(1, 2)
            v1 = t[tuple(index)]
            m = gate.matrix
            new0 = m[0, 0] * v0
            new0 += m[0, 1] * v1
            v1 *= m[1, 1]
            v1 += m[1, 0] * v0
            v0[...] = new0
            # Views left alive would pin this tensor after a local gate
            # replaces it.
            del v0, v1, new0
        elif isinstance(gate, LocalGate):
            g = gate.arity
            mr = gate.matrix.reshape([2] * (2 * g))
            # Input axes of mr run over local bits g-1..0; line the state axes up.
            state_axes = [n - 1 - gate.positions[g - 1 - i] for i in range(g)]
            t = np.tensordot(mr, t, axes=(list(range(g, 2 * g)), state_axes))
            t = np.moveaxis(t, list(range(g)), state_axes)
        else:
            t[(0,) * n] *= np.exp(1j * gate.w)
    return t.reshape(block.shape)


def basis_columns(circuit: Circuit, inputs) -> np.ndarray:
    """Columns `inputs` of the circuit's unitary: column j is the circuit
    applied to the basis state |inputs[j]>. All columns run through the
    gates together, and no 2**n x 2**n matrix is formed unless every
    column is asked for."""
    n = circuit.n
    if n > SIM_QUBIT_CAP:
        raise DomainError(f"simulation capped at {SIM_QUBIT_CAP} qubits, got {n}")
    inputs = np.asarray(inputs, dtype=np.int64)
    if inputs.size and not (0 <= inputs.min() and inputs.max() < 1 << n):
        raise DomainError(f"basis inputs must lie in [0, {1 << n})")
    block = np.zeros((1 << n, inputs.size), dtype=complex)
    block[inputs, np.arange(inputs.size)] = 1.0
    return _run_gates(circuit.gates, n, block)


def apply_circuit(circuit: Circuit, state: StateVec) -> StateVec:
    """Run the circuit on a state, gate by gate on the state tensor; no
    full 2**n x 2**n matrix is ever formed."""
    if circuit.n != state.n:
        raise DomainError(f"circuit on {circuit.n} qubits, state on {state.n}")
    if circuit.n > SIM_QUBIT_CAP:
        raise DomainError(f"simulation capped at {SIM_QUBIT_CAP} qubits, got {circuit.n}")
    amps = _run_gates(circuit.gates, circuit.n, state.amps.reshape(-1, 1).copy())
    return StateVec(circuit.n, amps[:, 0])


def circuit_to_matrix(circuit: Circuit, dense_cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """Dense unitary of the circuit: the gates applied to the identity,
    O(gates * 4**n)."""
    if circuit.n > dense_cap:
        raise DomainError(f"dense matrix for n={circuit.n} exceeds cap {dense_cap}")
    return basis_columns(circuit, range(1 << circuit.n))


def _dagger_gate(gate: Gate) -> Gate:
    if isinstance(gate, LocalGate):
        return LocalGate(gate.positions, gate.matrix.conj().T)
    if isinstance(gate, ControlledGate):
        return ControlledGate(gate.controls, gate.target, gate.matrix.conj().T)
    return PhaseOnZero(-gate.w)


def circuit_dagger(circuit: Circuit) -> Circuit:
    """Inverse circuit: reversed gate order, each gate conjugate-transposed."""
    return Circuit(circuit.n, tuple(_dagger_gate(g) for g in reversed(circuit.gates)))


def measure_prefix(state: StateVec, l: int) -> Distribution:
    """Distribution of the first l bits (the low-order l bits of the index)."""
    if not 1 <= l <= state.n:
        raise DomainError(f"prefix length {l} out of range [1, {state.n}]")
    p = np.abs(state.amps) ** 2
    probs = p.reshape(1 << (state.n - l), 1 << l).sum(axis=0)
    return Distribution(l, probs)
