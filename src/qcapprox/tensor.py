"""Qubit state vectors, gates, circuits and measurement statistics.

Bit convention used throughout: qubit i is tensor factor i and bit i of a
basis index b, extracted as (b >> i) & 1. The low-order bit is the "first"
bit, so the first l bits of b are b % 2**l.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import getitem, itemgetter
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
    """Validate one square matrix, or a (G, d, d) stack of them; the error
    gives the Frobenius defect of the first matrix in the stack that fails."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise DomainError(f"{name} must be square, got shape {m.shape}")
    d = m.shape[-1]
    if d == 0 or d & (d - 1):
        raise DomainError(f"{name} must have power-of-two dimension, got {d}")
    if m.ndim == 2:
        err = np.linalg.norm(m.conj().T @ m - np.eye(d))
    else:
        gram = m.conj().swapaxes(1, 2) @ m - np.eye(d)
        errs = np.linalg.norm(gram, axis=(1, 2))
        bad = ~(errs <= tol)
        err = errs[bad.argmax()] if bad.any() else 0.0
    if not err <= tol:
        raise DomainError(f"{name} is not unitary (Frobenius defect {err:.3e} > {tol:.0e})")
    return m


def _unit_amps(amps: np.ndarray) -> np.ndarray:
    """`amps` itself, made read-only, after checking that its norm is 1."""
    norm = np.linalg.norm(amps)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise DomainError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL:.0e}")
    amps.flags.writeable = False
    return amps


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
        object.__setattr__(self, "amps", _unit_amps(amps))

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


_QUBIT, _POLARITY = itemgetter(0), itemgetter(1)


def _check_controls(controls: tuple, target: int) -> None:
    """Polarities 0 or 1; control and target wires distinct and non-negative."""
    if not set(map(_POLARITY, controls)) <= {0, 1}:
        raise DomainError(f"control polarities must be 0 or 1: {controls}")
    _check_wires(list(map(_QUBIT, controls)), target)


def _check_wires(qubits: list, target: int) -> None:
    touched = qubits + [target]
    if len(set(touched)) != len(touched):
        raise DomainError(f"controls {qubits} and target {target} must be distinct")
    if min(touched) < 0:
        raise DomainError("negative qubit index")


def _trusted(cls, **fields):
    """An instance of a frozen dataclass from fields that are already
    validated, skipping its __post_init__ checks."""
    gate = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(gate, name, value)
    return gate


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
        if m.shape != (1 << len(pos),) * 2:
            raise DomainError(
                f"matrix shape {m.shape} does not match {len(pos)} positions"
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
        ctrls = tuple([(int(q), int(p)) for q, p in self.controls])
        _check_controls(ctrls, int(self.target))
        m = _check_unitary(self.matrix, "gate matrix")
        if m.shape != (2, 2):
            raise DomainError(f"controlled gate matrix must be 2x2, got {m.shape}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "controls", ctrls)
        object.__setattr__(self, "target", int(self.target))
        object.__setattr__(self, "matrix", m)

    @classmethod
    def batch(cls, qubits, target: int, patterns, matrices) -> list["ControlledGate"]:
        """One gate per row g of `patterns`: matrices[g] on `target` where
        control qubit qubits[j] has polarity patterns[g, j].

        The wires and polarities are validated once and the whole (G, 2, 2)
        stack in one unitarity check; the gates share one read-only copy
        of the stack.
        """
        qubits = [int(q) for q in qubits]
        target = int(target)
        pats = np.asarray(patterns, dtype=np.int64)
        if pats.ndim != 2 or pats.shape[1] != len(qubits):
            raise DomainError(f"need one polarity per control qubit, got shape {pats.shape}")
        if not ((pats == 0) | (pats == 1)).all():
            raise DomainError("control polarities must be 0 or 1")
        _check_wires(qubits, target)
        m = _check_unitary(matrices, "gate matrix")
        if m.shape != (pats.shape[0], 2, 2):
            raise DomainError(f"need {pats.shape[0]} 2x2 matrices, got shape {m.shape}")
        m = m.copy()
        m.flags.writeable = False
        # Gates share their (qubit, polarity) pairs: fewer objects to collect.
        pairs = [((q, 0), (q, 1)) for q in qubits]
        controls = [tuple(map(getitem, pairs, row)) for row in pats.tolist()]
        return _controlled_gates(controls, repeat(target), m)


def _controlled_gates(controls, targets, matrices) -> list:
    """ControlledGates from parallel iterables of control tuples, targets and
    read-only 2x2 matrices that are already validated: no __post_init__, and
    none of _trusted's keyword handling, which costs as much again per gate."""
    new, put = object.__new__, object.__setattr__
    gates = []
    for c, t, m in zip(controls, targets, matrices):
        gate = new(ControlledGate)
        put(gate, "controls", c)
        put(gate, "target", t)
        put(gate, "matrix", m)
        gates.append(gate)
    return gates


@dataclass(frozen=True)
class PhaseOnZero:
    """Multiply the amplitude of |0...0> by exp(i*w); identity elsewhere."""

    w: float

    def __post_init__(self):
        w = float(self.w)
        if not np.isfinite(w):
            raise DomainError(f"phase angle must be finite, got {w!r}")
        object.__setattr__(self, "w", w)


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

    The block is viewed as a C-contiguous [2]*n + [B] tensor whose axis
    n-1-q is qubit q, and the state stays C-contiguous for the whole run:
    - A run is a stretch of consecutive ControlledGates with at least one
      control, the same target and the same control qubits in the same
      order. Gates of a run with pairwise distinct polarity patterns act
      on disjoint amplitude pairs, so they commute and are one in-place
      step; _apply_run cuts a run before each repeated pattern.
      Phase-on-zero gates scale one entry in place.
    - A local gate, or a controlled gate without controls, writes its
      result into a spare tensor of the block's shape, allocated on first
      need, and the two tensors swap (see _apply_local). On adjacent
      qubits p..p+g-1, in any order, it is one matmul over the contiguous
      (2**(n-p-g), 2**g, 2**p * B) view of the state. On other qubits it
      is a contraction written slab by slab: a transposed copy of the
      slab with the gate axes first, one matmul, and one strided write.
    Peak memory is the block, the spare and the slab temporaries, which
    stay within a quarter of a block from 2**16 amplitudes up when the gate
    leaves at least three qubits untouched (a wider gate is cut in fewer,
    larger slabs). Returns the (2**n, B) result, which is `block` or the
    spare.
    """
    t = block.reshape([2] * n + [block.shape[1]])
    spare = None
    target, qubits, run = None, None, []  # the run's target, control qubits and gates
    for gate in gates:
        controls = gate.controls if isinstance(gate, ControlledGate) else None
        if controls:
            wires = tuple(map(_QUBIT, controls))
            if gate.target == target and wires == qubits:
                run.append(gate)
                continue
            _apply_run(t, n, run)
            target, qubits, run = gate.target, wires, [gate]
            continue
        _apply_run(t, n, run)
        target, qubits, run = None, None, []
        if isinstance(gate, PhaseOnZero):
            t[(0,) * n] *= np.exp(1j * gate.w)
            continue
        if spare is None:
            spare = np.empty_like(t)
        positions = gate.positions if isinstance(gate, LocalGate) else (gate.target,)
        _apply_local(t, spare, n, positions, gate.matrix)
        t, spare = spare, t
    _apply_run(t, n, run)
    return t.reshape(block.shape)


# A gate on adjacent qubits p..p+g-1 is a (d, d) matrix, d = 2**g, applied
# to the middle axis of the contiguous (X, d, Y) view of the state, where
# Y = 2**p * B. While d * Y is at most this, the matrix is widened to
# kron(M, I_Y) and the whole state is one (X, d*Y) gemm; past it, one gemm
# per (d, Y) slice is faster (measured at n = 10 to 20 and B = 1 to 16
# with one BLAS thread: the crossover sits between d*Y = 40 and 48).
_WIDEN_MAX = 32
# A gate on non-adjacent qubits is contracted slab by slab, in at most
# 2**_SLAB_AXES slabs of at least 2**_SLAB_BITS amplitudes. From 2**16
# amplitudes up, its transposed input and fresh output take an eighth of a
# block each; smaller blocks are cut in fewer slabs, or none, since a slab
# costs 10-25 us of call overhead.
_SLAB_AXES = 3
_SLAB_BITS = 13


def _apply_local(src: np.ndarray, dst: np.ndarray, n: int, positions, m: np.ndarray) -> None:
    """Write the local gate `m` on `positions` applied to the state tensor
    src into dst, a C-contiguous tensor of the same shape."""
    g, d = len(positions), 1 << len(positions)
    # Local bit g-1-k of m's rows and columns is state axis gate_axes[k].
    gate_axes = [n - 1 - q for q in reversed(positions)]
    p = min(positions)
    if max(positions) - p == g - 1:
        # Renumber the matrix's bits in the state's order: local bit i on qubit p + i.
        order = sorted(range(g), key=gate_axes.__getitem__)
        m = m.reshape([2] * (2 * g)).transpose(order + [g + k for k in order]).reshape(d, d)
        x, y = 1 << (n - p - g), src.shape[-1] << p
        if d * y <= _WIDEN_MAX:
            w = (m[:, None, :, None] * np.eye(y)[:, None]).reshape(d * y, d * y)  # kron(m, I_y)
            np.matmul(src.reshape(x, d * y), w.T, out=dst.reshape(x, d * y))
        else:
            np.matmul(m, src.reshape(x, d, y), out=dst.reshape(x, d, y))
        return
    cuts = min(_SLAB_AXES, (src.size >> (_SLAB_BITS + 1)).bit_length())
    # A wide gate may leave fewer untouched qubits than cuts: its slabs are larger.
    slab_axes = [a for a in range(n) if a not in gate_axes][:cuts]
    s = len(slab_axes)
    # Within a slab: the gate axes first, in m's bit order, then the rest.
    rest = [a for a in range(n + 1) if a not in slab_axes]
    perm = [rest.index(a) for a in gate_axes]
    perm += [k for k in range(n + 1 - s) if k not in perm]
    for bits in range(1 << s):
        index = [slice(None)] * (n + 1)
        for j, a in enumerate(slab_axes):
            index[a] = (bits >> j) & 1
        slab = src[tuple(index)].transpose(perm)
        dst[tuple(index)].transpose(perm)[...] = (m @ slab.reshape(d, -1)).reshape(slab.shape)


def _apply_run(t: np.ndarray, n: int, run: list) -> None:
    """Apply consecutive ControlledGates with one target and one sequence of
    control qubits to the state tensor t in place.

    Gates with pairwise distinct polarity patterns act on disjoint amplitude
    pairs, so they commute: the run is cut before each gate whose pattern
    repeats one since the last cut, and each piece is one step. The
    patterns are read from the controls tuples in one fromiter pass and
    compared as integers after one stable sort.
    """
    if len(run) < 2:
        if run:
            _apply_step(t, n, run, None)
        return
    g, c = len(run), len(run[0].controls)
    flat = chain.from_iterable([gate.controls for gate in run])
    polarities = np.fromiter(map(_POLARITY, flat), np.intp, count=g * c).reshape(g, c)
    patterns = polarities @ (1 << np.arange(c))
    order = np.argsort(patterns, kind="stable")
    same = patterns[order[1:]] == patterns[order[:-1]]
    previous = np.full(g, -1)  # the last earlier gate with the same pattern
    previous[order[1:][same]] = order[:-1][same]
    cuts = [0]
    for i in np.flatnonzero(previous >= 0).tolist():
        if previous[i] >= cuts[-1]:
            cuts.append(i)
    cuts.append(g)
    for a, b in zip(cuts, cuts[1:]):
        _apply_step(t, n, run[a:b], polarities[a:b])


def _apply_step(t: np.ndarray, n: int, gates: list, polarities) -> None:
    """Apply controlled gates on disjoint amplitude pairs (one target, one
    sequence of control qubits, distinct patterns) to t in place.

    A single gate updates two basic-indexing views of t (length-1 slices on
    the control axes, so no index arrays and no copy). More gates move the
    control axes and the target axis to the front, gather their G amplitude
    pairs with one advanced index (the rows of `polarities`), apply the
    (G, 2, 2) stack, one concatenate of their matrices, in one einsum and
    scatter the result back.
    """
    first = gates[0]
    axis = n - 1 - first.target
    if len(gates) == 1:
        m = first.matrix
        index = [slice(None)] * (n + 1)
        for q, pol in first.controls:
            index[n - 1 - q] = slice(pol, pol + 1)
        index[axis] = slice(0, 1)
        v0 = t[tuple(index)]
        index[axis] = slice(1, 2)
        v1 = t[tuple(index)]
        new0 = m[0, 0] * v0
        new0 += m[0, 1] * v1
        v1 *= m[1, 1]
        v1 += m[1, 0] * v0
        v0[...] = new0
        return
    front = [n - 1 - q for q, _ in first.controls] + [axis]
    view = np.moveaxis(t, front, range(len(front)))
    pairs = tuple(polarities.T)
    stack = np.concatenate([gate.matrix for gate in gates]).reshape(-1, 2, 2)
    view[pairs] = np.einsum("gij,gj...->gi...", stack, view[pairs])


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
    # The kernel's column has the state's length and dtype: it is frozen in
    # place, without the copy StateVec makes of outside arrays.
    return _trusted(StateVec, n=circuit.n, amps=_unit_amps(amps[:, 0]))


def circuit_to_matrix(circuit: Circuit, dense_cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """Dense unitary of the circuit: the gates applied to the identity,
    O(gates * 4**n)."""
    if circuit.n > dense_cap:
        raise DomainError(f"dense matrix for n={circuit.n} exceeds cap {dense_cap}")
    return basis_columns(circuit, range(1 << circuit.n))


def _dagger_gate(gate: Gate) -> Gate:
    """Adjoint of a local or phase-on-zero gate. The adjoint of a validated
    unitary is unitary, so it is built without checking it again."""
    if isinstance(gate, PhaseOnZero):
        return PhaseOnZero(-gate.w)
    m = gate.matrix.conj().T.copy()
    m.flags.writeable = False
    return _trusted(LocalGate, positions=gate.positions, matrix=m)


def circuit_dagger(circuit: Circuit) -> Circuit:
    """Inverse circuit: reversed gate order, each gate conjugate-transposed.
    It touches the qubits of a validated circuit, so it is not checked again.

    The controlled gates are inverted together: their matrices are
    conjugate-transposed as one read-only (G, 2, 2) stack, and each inverse
    gate keeps its source's controls tuple and takes a view of that stack.
    """
    gates = circuit.gates[::-1]
    controlled = [g for g in gates if isinstance(g, ControlledGate)]
    stack = np.array([g.matrix for g in controlled]).reshape(-1, 2, 2)
    adjoints = np.conjugate(stack.swapaxes(1, 2), out=np.empty_like(stack))
    adjoints.flags.writeable = False
    inverses = iter(_controlled_gates([g.controls for g in controlled],
                                      [g.target for g in controlled], adjoints))
    gates = tuple(next(inverses) if isinstance(g, ControlledGate) else _dagger_gate(g) for g in gates)
    return _trusted(Circuit, n=circuit.n, gates=gates)


def measure_prefix(state: StateVec, l: int) -> Distribution:
    """Distribution of the first l bits (the low-order l bits of the index)."""
    if not 1 <= l <= state.n:
        raise DomainError(f"prefix length {l} out of range [1, {state.n}]")
    p = np.abs(state.amps) ** 2
    probs = p.reshape(1 << (state.n - l), 1 << l).sum(axis=0)
    return Distribution(l, probs)
