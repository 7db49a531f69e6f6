"""Qubit state vectors, gates, circuits and measurement statistics.

Bit convention used throughout: qubit i is tensor factor i and bit i of a
basis index b, extracted as (b >> i) & 1. The low-order bit is the "first"
bit, so the first l bits of b are b % 2**l.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from math import prod
from operator import itemgetter
from typing import Callable, Union

import numpy as np

# Checks against these are written `not x <= tol`, so that NaN fails them.
NORM_TOL = 1e-9
UNITARY_TOL = 1e-9

# Full matrices above this register size are refused by default.
DENSE_QUBIT_CAP = 10
# State-only simulation cap: 2**24 amplitudes, 256 MiB of complex128.
# apply_circuit holds the input, the copy that every gate updates in place
# and one scratch of SCRATCH_AMPS amplitudes: about 515 MiB at the cap.
SIM_QUBIT_CAP = 24
# Columns run through a circuit together are batched up to this many
# amplitudes (16 MiB of complex128), the size of one 20-qubit state; the
# batch is updated in place beside one scratch of SCRATCH_AMPS amplitudes.
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
    qubits = list(map(_QUBIT, controls))
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
    # Cascades are mostly controlled gates: their test comes first.
    if isinstance(gate, ControlledGate):
        return float(max(1, len(gate.controls)))
    if isinstance(gate, LocalGate):
        g = gate.arity
        return 1.0 if g <= 2 else float(1 << g)
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
            two_qubit_equiv=float(sum(map(model, self.gates, repeat(self.n)))),
        )


def embed_gate(gate: Gate, n: int, dense_cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """Full 2**n x 2**n unitary of a single gate on an n-qubit register."""
    return circuit_to_matrix(Circuit(n, (gate,)), dense_cap)


def _run_gates(gates, n: int, block: np.ndarray) -> np.ndarray:
    """Apply gates in order to every column of a C-contiguous (2**n, B)
    block, in place, and return the block.

    The block is viewed as a [2]*n + [B] tensor whose axis n-1-q is qubit
    q. Every gate updates it through one scratch buffer, allocated once per
    call (see _scratch_amps):
    - A run is a stretch of consecutive ControlledGates with at least one
      control, the same target and the same control qubits in the same
      order. Gates of a run with pairwise distinct polarity patterns act
      on disjoint amplitude pairs, so they commute and are one step;
      _apply_run cuts a run before each repeated pattern. A run of one is a
      local gate on the strided view its controls select. Phase-on-zero
      gates scale one entry.
    - A local gate, or a controlled gate without controls, is _apply_local
      on the whole tensor: one matmul per chunk on adjacent qubits, a
      contraction slab by slab on other qubits.
    Peak memory is the block and the scratch; a run step adds its gathered
    amplitude pairs, at most half a scratch at a time.
    """
    if not block.shape[1]:
        return block
    t = block.reshape([2] * n + [block.shape[1]])
    scratch = np.empty(_scratch_amps(block.size), dtype=complex)
    target, qubits, run = None, None, []  # the run's target, control qubits and gates
    for gate in gates:
        controls = gate.controls if isinstance(gate, ControlledGate) else None
        if controls:
            wires = tuple(map(_QUBIT, controls))
            if gate.target == target and wires == qubits:
                run.append(gate)
                continue
            _apply_run(t, n, run, scratch)
            target, qubits, run = gate.target, wires, [gate]
            continue
        _apply_run(t, n, run, scratch)
        target, qubits, run = None, None, []
        if isinstance(gate, PhaseOnZero):
            t[(0,) * n] *= np.exp(1j * gate.w)
            continue
        positions = gate.positions if isinstance(gate, LocalGate) else (gate.target,)
        _apply_local(t, n, positions, gate.matrix, scratch)
    _apply_run(t, n, run, scratch)
    return block


# One call's scratch buffer holds an eighth of the block, at most
# SCRATCH_AMPS amplitudes (512 KiB of complex128, reached at 2**18
# amplitudes) and at least _SCRATCH_MIN, or twice the block when that is
# less. The floor keeps gates on blocks below 2**17 amplitudes in few
# chunks, since a chunk costs 10-25 us of call overhead. The cap keeps a
# chunk and its scratch within a 2 MiB L2 cache: on a 2-vCPU Xeon with one
# BLAS thread, gates at n=20 ran fastest with 2**15 of 2**15, 2**16 and
# 2**17 (BENCH_inplace.json).
SCRATCH_AMPS = 1 << 15
_SCRATCH_MIN = 1 << 14
# A gate on adjacent qubits p..p+g-1 is a (d, d) matrix, d = 2**g, applied
# to the middle axis of the contiguous (X, d, Y) view of the state, where
# Y = 2**p * B. While d * Y is at most this, the matrix is widened to
# kron(M, I_Y) and rows of X go through one (rows, d*Y) gemm; past it, one
# gemm per (d, Y) slice is faster (measured at n = 10 to 20 and B = 1 to 16
# with one BLAS thread: the crossover sits between d*Y = 40 and 48).
_WIDEN_MAX = 32


def _scratch_amps(amps: int) -> int:
    return min(2 * amps, max(_SCRATCH_MIN, min(SCRATCH_AMPS, amps >> 3)))


def _slabs(shape, keep, limit: int):
    """Index tuples of slices that cut an array of `shape` into slabs of at
    most `limit` entries. Every axis has length 2 except the last, the
    block's columns. The fewest leading axes not in `keep` are cut in
    halves; if every such axis is cut and a slab is still too large, the
    columns are cut into ranges too."""
    free = [a for a in range(len(shape) - 1) if a not in keep]
    size, cuts = prod(shape), 0
    while size > limit and cuts < len(free):
        size, cuts = size >> 1, cuts + 1
    cols = shape[-1]
    width = cols if size <= limit else limit // (size // cols)
    index = [slice(None)] * len(shape)
    for bits in range(1 << cuts):
        for j, a in enumerate(free[:cuts]):
            b = (bits >> j) & 1
            index[a] = slice(b, b + 1)
        for c0 in range(0, cols, width):
            index[-1] = slice(c0, c0 + width)
            yield tuple(index)


def _apply_local(src: np.ndarray, n: int, positions, m: np.ndarray, scratch: np.ndarray) -> None:
    """Apply the local gate `m` on `positions` in place to the [2]*n + [B]
    tensor src, which may be a strided view of a larger state.

    On a C-contiguous src, a gate on adjacent qubits runs its matmul over
    scratch-sized chunks of the (X, d, Y) view: rows of X, or column
    ranges of Y when one row is larger than the scratch, as for gates on
    the top qubits. Each chunk is written into the scratch and copied back.
    Otherwise the gate is contracted slab by slab: each slab is gathered
    into one half of the scratch with the gate axes first, multiplied into
    the other half and copied back, where a matmul over a strided view would
    have numpy copy the whole operand.
    """
    g, d = len(positions), 1 << len(positions)
    if scratch.size < 2 * d:  # a gate on 14 or more qubits; its own matrix is far larger
        scratch = np.empty(2 * d, dtype=complex)
    # Local bit g-1-k of m's rows and columns is state axis gate_axes[k].
    gate_axes = [n - 1 - q for q in reversed(positions)]
    p = min(positions)
    if max(positions) - p == g - 1 and src.flags.c_contiguous:
        # Renumber the matrix's bits in the state's order: local bit i on qubit p + i.
        order = sorted(range(g), key=gate_axes.__getitem__)
        m = m.reshape([2] * (2 * g)).transpose(order + [g + k for k in order]).reshape(d, d)
        x, y = 1 << (n - p - g), src.shape[-1] << p
        widened = d * y <= _WIDEN_MAX
        if widened:
            w = (m[:, None, :, None] * np.eye(y)[:, None]).reshape(d * y, d * y).T  # kron(m, I_y).T
        v = src.reshape(x, d, y)
        rows, width = max(1, scratch.size // (d * y)), min(y, scratch.size // d)
        for x0 in range(0, x, rows):
            for y0 in range(0, y, width):
                part = v[x0:x0 + rows, :, y0:y0 + width]
                out = scratch[:part.size].reshape(part.shape)
                if widened:
                    np.matmul(part.reshape(-1, d * y), w, out=out.reshape(-1, d * y))
                else:
                    np.matmul(m, part, out=out)
                part[...] = out
        return
    # Within a slab: the gate axes first, in m's bit order, then the rest.
    perm = gate_axes + [a for a in range(n + 1) if a not in gate_axes]
    half = scratch.size >> 1
    # A src within half a scratch, as in every block up to 2**13 amplitudes, is one slab.
    for index in ((),) if src.size <= half else _slabs(src.shape, gate_axes, half):
        slab = src[index].transpose(perm)
        gathered = scratch[:slab.size].reshape(d, -1)
        gathered.reshape(slab.shape)[...] = slab
        out = scratch[half:half + slab.size].reshape(d, -1)
        np.matmul(m, gathered, out=out)
        slab[...] = out.reshape(slab.shape)


def _apply_run(t: np.ndarray, n: int, run: list, scratch: np.ndarray) -> None:
    """Apply consecutive ControlledGates with one target and one sequence of
    control qubits to the state tensor t in place.

    Gates with pairwise distinct polarity patterns act on disjoint amplitude
    pairs, so they commute: the run is cut before each gate whose pattern
    repeats one since the last cut, and each piece is one step. The
    patterns are read from the controls tuples in one fromiter pass and
    compared as integers after one stable sort.

    A run of one is its matrix as a local gate on the view its controls
    select: integer indices drop the control axes, and the target is
    renumbered among the n - c qubits left.
    """
    if len(run) < 2:
        for gate in run:
            index = [slice(None)] * (n + 1)
            for q, pol in gate.controls:
                index[n - 1 - q] = pol
            below = sum(q < gate.target for q in map(_QUBIT, gate.controls))
            _apply_local(t[tuple(index)], n - len(gate.controls), (gate.target - below,), gate.matrix, scratch)
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
        _apply_step(t, n, run[a:b], polarities[a:b], scratch)


def _apply_step(t: np.ndarray, n: int, gates: list, polarities, scratch: np.ndarray) -> None:
    """Apply controlled gates on disjoint amplitude pairs (one target, one
    sequence of control qubits, distinct patterns) to t in place.

    The control axes and the target axis move to the front. The amplitude
    pairs are taken in pieces of at most half a scratch: slabs of the axes
    behind the target, and within a slab groups of gates. A piece is
    gathered with one advanced index (rows of `polarities`), its slice of
    the (G, 2, 2) stack, one concatenate of the matrices, is applied in one
    einsum into the scratch, and the result is scattered back.
    """
    c = len(gates[0].controls)
    front = [n - 1 - q for q, _ in gates[0].controls] + [n - 1 - gates[0].target]
    view = t.transpose(front + [a for a in range(n + 1) if a not in front])
    stack = np.concatenate([gate.matrix for gate in gates]).reshape(-1, 2, 2)
    half, size = scratch.size >> 1, len(gates) * (view.size >> c)
    if size <= half:  # one piece, as in every block up to 2**13 amplitudes
        pairs = tuple(polarities.T)
        out = scratch[:size].reshape(stack.shape[:1] + view.shape[c:])
        view[pairs] = np.einsum("gij,gj...->gi...", stack, view[pairs], out=out)
        return
    for index in _slabs(view.shape[c:], (0,), half):
        sub = view[(slice(None),) * c + index]
        per = sub.size >> c  # one gate's amplitude pairs in this slab
        group = max(1, half // per)
        for g0 in range(0, len(gates), group):
            m = stack[g0:g0 + group]
            out = scratch[:len(m) * per].reshape(m.shape[:1] + sub.shape[c:])
            pairs = tuple(polarities[g0:g0 + group].T)
            sub[pairs] = np.einsum("gij,gj...->gi...", m, sub[pairs], out=out)


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
