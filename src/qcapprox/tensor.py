"""Qubit state vectors, gates, circuits and measurement statistics.

Bit convention used throughout: qubit i is tensor factor i and bit i of a
basis index b, extracted as (b >> i) & 1. The low-order bit is the "first"
bit, so the first l bits of b are b % 2**l.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import repeat
from math import prod
from typing import Callable, Union

import numpy as np

# Checks against these are written `not x <= tol`, so that NaN fails them.
NORM_TOL = 1e-9
UNITARY_TOL = 1e-9

# Full matrices above this register size are refused.
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


def _unitary(matrix, shape: tuple) -> np.ndarray:
    """A read-only complex copy of `matrix`, after checking that it has exactly
    `shape`, (d, d) or a (G, d, d) stack, and that each matrix in it is
    unitary; the error names the first one's Frobenius defect."""
    m = np.array(matrix, dtype=complex, order="C")
    if m.shape != shape:
        raise DomainError(f"gate matrix must have shape {shape}, got {m.shape}")
    d = shape[-1]
    gram = m.conj().swapaxes(-1, -2) @ m - np.eye(d)
    if not np.vdot(gram, gram).real <= UNITARY_TOL ** 2:  # the squared defects' sum bounds each
        errs = np.linalg.norm(gram.reshape(-1, d * d), axis=1)
        bad = errs[~(errs <= UNITARY_TOL)]
        if bad.size:
            raise DomainError(f"gate matrix is not unitary (Frobenius defect {bad[0]:.3e} "
                              f"> {UNITARY_TOL:.0e})")
    m.flags.writeable = False
    return m


def _unit_amps(amps: np.ndarray) -> np.ndarray:
    """`amps` itself, made read-only, after checking that its norm is 1."""
    norm = np.linalg.norm(amps)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise DomainError(f"state norm {float(norm)!r} deviates from 1 beyond {NORM_TOL:.0e}")
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
            raise DomainError(f"negative probability {float(p.min())!r}")
        np.clip(p, 0.0, None, out=p)
        total = p.sum()
        if not abs(total - 1.0) <= NORM_TOL:
            raise DomainError(f"probabilities sum to {float(total)!r}, not 1")
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)


# Patterns are int64 arrays, so a controlled gate has at most 62 controls.
MAX_CONTROLS = 62


def _check_qubits(qubits) -> tuple[int, ...]:
    """A gate's qubits as ints: one or more, distinct, non-negative, each read
    by operator.index (numpy integers pass, floats do not)."""
    try:
        qs = tuple(map(operator.index, qubits))
    except TypeError:
        qs = ()
    if not qs or len(set(qs)) != len(qs) or min(qs) < 0:
        raise DomainError(f"gate qubits {tuple(qubits)} must be 1 or more distinct non-negative integers")
    return qs


def _trusted(cls, **fields):
    """An instance of a frozen dataclass from fields that are already
    validated, skipping its __post_init__ checks."""
    gate = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(gate, name, value)
    return gate


# Gates hold arrays, so they compare and hash by identity (eq=False).
@dataclass(frozen=True, eq=False)
class LocalGate:
    """Unitary on an explicit tuple of qubit positions.

    positions[j] is local tensor factor j, i.e. bit j of the row/column
    index of `matrix`, a read-only (2**g, 2**g) unitary for g positions.
    """

    positions: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        pos = _check_qubits(self.positions)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "matrix", _unitary(self.matrix, (1 << len(pos),) * 2))

    @property
    def arity(self) -> int:
        return len(self.positions)


@dataclass(frozen=True, init=False, eq=False)
class ControlledGate:
    """Uniformly controlled single-qubit gate (a multiplexor) with G branches.

    Branch i applies stack[i] to `target` where the control qubits `wires`
    read pattern[i]: bit j of the pattern is the bit of wires[j]. The
    patterns are pairwise distinct and lie in [0, 2**c), so the branches
    act on disjoint amplitude pairs and commute. `pattern` is a read-only
    (G,) int64 array and `stack` a read-only (G, 2, 2) array.

    ControlledGate.multiplexor builds any G. ControlledGate(controls, target,
    matrix) is G = 1 from (qubit, polarity) pairs, polarity 1 firing on the
    control bit being 1 and 0 on it being 0: past its polarity check it runs
    the multiplexor's one validation, _validate.
    """

    wires: tuple[int, ...]
    target: int
    pattern: np.ndarray
    stack: np.ndarray

    def __init__(self, controls, target: int, matrix):
        ctrls = tuple(controls)
        try:
            bits = [operator.index(p) for _, p in ctrls]
        except TypeError:
            bits = None
        if bits is None or not set(bits) <= {0, 1}:
            raise DomainError(f"control polarities must be 0 or 1: {ctrls}")
        self._validate([q for q, _ in ctrls], target, [sum([b << j for j, b in enumerate(bits)])],
                       np.asarray(matrix, dtype=complex)[None])

    @classmethod
    def multiplexor(cls, wires, target: int, pattern, stack) -> "ControlledGate":
        """The gate applying stack[i] where `wires` read pattern[i], validated."""
        return object.__new__(cls)._validate(wires, target, pattern, stack)

    def _validate(self, wires, target, pattern, stack) -> "ControlledGate":
        """Check every field of a controlled gate and set it, returning the
        gate: the one validation that both constructors run."""
        qubits = _check_qubits((*wires, target))
        c = len(qubits) - 1
        if c > MAX_CONTROLS:
            raise DomainError(f"{c} controls exceed the limit of {MAX_CONTROLS}")
        p = np.asarray(pattern)
        if p.ndim != 1 or not p.size or p.dtype.kind not in "iu":
            raise DomainError(f"patterns must be a non-empty 1-D integer array, got {p.dtype} "
                              f"of shape {p.shape}")
        lo, hi = (p[0], p[0]) if p.size == 1 else (p.min(), p.max())  # one pattern: no reductions
        if lo < 0 or hi >= 1 << c:
            raise DomainError(f"patterns must lie in [0, {1 << c})")
        if p.size > 1 and np.unique(p).size != p.size:
            raise DomainError("patterns must be pairwise distinct")
        pattern = p.astype(np.int64)
        pattern.flags.writeable = False
        vars(self).update(wires=qubits[:-1], target=qubits[-1], pattern=pattern,
                          stack=_unitary(stack, (p.size, 2, 2)))
        return self

    @property
    def controls(self) -> tuple:
        """The (qubit, polarity) pairs of a gate with one branch. With more,
        (wires, the pattern array's bytes): a value that still changes
        with every wire and pattern, made without a loop over branches."""
        if len(self.pattern) > 1:
            return self.wires, self.pattern.tobytes()
        b = int(self.pattern[0])
        return tuple([(q, (b >> j) & 1) for j, q in enumerate(self.wires)])

    @property
    def matrix(self) -> np.ndarray:
        """The 2x2 matrix of a gate with one branch; with more, the stack."""
        return self.stack if len(self.stack) > 1 else self.stack[0]


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
        return gate.wires + (gate.target,)
    if isinstance(gate, PhaseOnZero):
        return ()
    raise DomainError(f"unknown gate type {type(gate).__name__}")


def default_gate_cost(gate: Gate, n: int) -> float:
    """Two-qubit-equivalent cost of a gate on an n-qubit register: a
    controlled gate costs max(1, controls) per branch."""
    if isinstance(gate, LocalGate):
        g = gate.arity
        return 1.0 if g <= 2 else float(1 << g)
    if isinstance(gate, ControlledGate):
        return float(len(gate.pattern) * max(1, len(gate.wires)))
    if isinstance(gate, PhaseOnZero):
        return float(n * n)
    raise DomainError(f"unknown gate type {type(gate).__name__}")


CostModel = Callable[[Gate, int], float]


@dataclass(frozen=True)
class CircuitCost:
    primitive_count: int  # a controlled gate counts once per branch
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
            primitive_count=sum([len(g.pattern) if isinstance(g, ControlledGate) else 1
                                 for g in self.gates]),
            two_qubit_equiv=float(sum(map(model, self.gates, repeat(self.n)))),
        )


def embed_gate(gate: Gate, n: int) -> np.ndarray:
    """Full 2**n x 2**n unitary of a single gate on an n-qubit register."""
    return circuit_to_matrix(Circuit(n, (gate,)))


def _run_gates(gates, n: int, block: np.ndarray) -> np.ndarray:
    """Apply gates in order to every column of a C-contiguous (2**n, B)
    block, in place, and return the block.

    The block is viewed as a [2]*n + [B] tensor whose axis n-1-q is qubit
    q. Every gate updates it through one scratch buffer, allocated once per
    call (see _scratch_amps), on one of two paths:
    - A local gate, or a controlled gate without controls, on adjacent
      qubits is _apply_local: one matmul per contiguous chunk.
    - Every other gate is one strided _apply_step: a local gate on
      non-adjacent qubits, or a controlled gate with its stack and the
      bits of its pattern array as polarity rows, all its branches in one
      step.
    Phase-on-zero gates scale one entry. Peak memory is the block and the
    scratch; a step of several branches adds its gathered amplitude pairs,
    at most half a scratch at a time.
    """
    if not block.shape[1]:
        return block
    t = block.reshape([2] * n + [block.shape[1]])
    scratch = np.empty(_scratch_amps(block.size), dtype=complex)
    for gate in gates:
        if isinstance(gate, PhaseOnZero):
            t[(0,) * n] *= np.exp(1j * gate.w)
            continue
        if isinstance(gate, ControlledGate) and gate.wires:
            rows = (gate.pattern[:, None] >> np.arange(len(gate.wires))) & 1
            _apply_step(t, n, gate.wires, (gate.target,), gate.stack, rows, scratch)
            continue
        positions = gate.positions if isinstance(gate, LocalGate) else (gate.target,)
        g = len(positions)
        # A gate on 14 or more qubits brings a scratch of its own; its matrix is far larger.
        work = scratch if scratch.size >= 2 << g else np.empty(2 << g, dtype=complex)
        if max(positions) - min(positions) < g:
            _apply_local(t, n, positions, gate.matrix, work)
        else:
            _apply_step(t, n, (), positions, gate.matrix[None], [()], work)
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


def _apply_local(t: np.ndarray, n: int, positions, m: np.ndarray, scratch: np.ndarray) -> None:
    """Apply the local gate `m` on adjacent qubits p..p+g-1, in any order,
    in place to the C-contiguous [2]*n + [B] tensor t.

    The matmul runs over scratch-sized chunks of the (X, d, Y) view: rows
    of X, or column ranges of Y when one row is larger than the scratch, as
    for gates on the top qubits. Each chunk is written into the scratch and
    copied back.
    """
    g, d = len(positions), 1 << len(positions)
    # Local bit g-1-k of m's rows and columns is state axis gate_axes[k];
    # renumber the bits in the state's order: local bit i on qubit p + i.
    gate_axes = [n - 1 - q for q in reversed(positions)]
    order = sorted(range(g), key=gate_axes.__getitem__)
    m = m.reshape([2] * (2 * g)).transpose(order + [g + k for k in order]).reshape(d, d)
    p = min(positions)
    x, y = 1 << (n - p - g), t.shape[-1] << p
    widened = d * y <= _WIDEN_MAX
    if widened:
        w = (m[:, None, :, None] * np.eye(y)[:, None]).reshape(d * y, d * y).T  # kron(m, I_y).T
    v = t.reshape(x, d, y)
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


def _apply_step(t: np.ndarray, n: int, controls, positions, stack: np.ndarray, polarities,
                scratch: np.ndarray) -> None:
    """Apply gate i of the (G, d, d) stack on `positions` to the state
    tensor t in place, wherever the qubits `controls` read row i of the
    (G, c) array `polarities` (a list of one row will do for G = 1). The
    rows are pairwise distinct, so the gates act on disjoint amplitudes:
    they are the branches of one controlled gate.

    The control axes, then the gate axes in the matrix's bit order, move to
    the front. A single gate takes the view its polarities select with
    integer indices. The work runs in pieces of at most half a scratch:
    slabs of the axes behind the gate (_slabs), then groups of gates. One
    gate's slab is gathered into one half of the scratch, multiplied into
    the other half with one matmul and copied back. A group of gates is
    gathered with one advanced index (rows of `polarities`), multiplied
    with one einsum into the scratch and scattered back; the gathered copy
    is freed before the scatter.
    """
    c, g, d = len(controls), len(positions), stack.shape[-1]
    front = [n - 1 - q for q in controls] + [n - 1 - q for q in reversed(positions)]
    view = t.transpose(front + [a for a in range(n + 1) if a not in front])
    if len(stack) == 1:
        view, c = view[tuple(polarities[0])], 0
    half, whole = scratch.size >> 1, (slice(None),) * c
    # A gate within half a scratch, as in every block up to 2**13 amplitudes, is one slab.
    for index in ((),) if view.size >> c <= half else _slabs(view.shape[c:], range(g), half):
        sub = view[whole + index]
        if not c:
            gathered = scratch[:sub.size].reshape(sub.shape)
            gathered[...] = sub
            out = scratch[half:half + sub.size].reshape(d, -1)
            np.matmul(stack[0], gathered.reshape(d, -1), out=out)
            sub[...] = out.reshape(sub.shape)
            continue
        per = sub.size >> c  # one gate's amplitude pairs in this slab
        group = half // per
        for g0 in range(0, len(stack), group):
            m = stack[g0:g0 + group]
            out = scratch[:len(m) * per].reshape(m.shape[:1] + sub.shape[c:])
            pairs = tuple(polarities[g0:g0 + group].T)
            sub[pairs] = np.einsum("gij,gj...->gi...", m, sub[pairs], out=out)


def _check_sim_cap(n: int) -> None:
    """Refuse a register above SIM_QUBIT_CAP qubits, before anything is allocated for it."""
    if n > SIM_QUBIT_CAP:
        raise DomainError(f"simulation capped at {SIM_QUBIT_CAP} qubits, got {n}")


def basis_columns(circuit: Circuit, inputs) -> np.ndarray:
    """Columns `inputs` of the circuit's unitary: column j is the circuit
    applied to the basis state |inputs[j]>. All columns run through the
    gates together, and no 2**n x 2**n matrix is formed unless every
    column is asked for."""
    n = circuit.n
    _check_sim_cap(n)
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
    _check_sim_cap(circuit.n)
    amps = _run_gates(circuit.gates, circuit.n, state.amps.reshape(-1, 1).copy())
    # The kernel's column has the state's length and dtype: it is frozen in
    # place, without the copy StateVec makes of outside arrays.
    return _trusted(StateVec, n=circuit.n, amps=_unit_amps(amps[:, 0]))


def circuit_to_matrix(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the circuit: the gates applied to the identity,
    O(gates * 4**n)."""
    if circuit.n > DENSE_QUBIT_CAP:
        raise DomainError(f"dense matrix for n={circuit.n} exceeds cap {DENSE_QUBIT_CAP}")
    return basis_columns(circuit, range(1 << circuit.n))


def _dagger_gate(gate: Gate) -> Gate:
    """Adjoint of one gate. A controlled gate keeps its wires and lists its
    branches in reverse, as the reversed gates of its branches would come;
    the adjoint of a validated unitary is unitary, so no gate is checked
    again."""
    if isinstance(gate, PhaseOnZero):
        return PhaseOnZero(-gate.w)
    m = gate.matrix if isinstance(gate, LocalGate) else gate.stack[::-1]
    adjoint = np.conjugate(m.swapaxes(-1, -2), out=np.empty(m.shape, dtype=complex))
    adjoint.flags.writeable = False
    if isinstance(gate, LocalGate):
        return _trusted(LocalGate, positions=gate.positions, matrix=adjoint)
    return _trusted(ControlledGate, wires=gate.wires, target=gate.target,
                    pattern=gate.pattern[::-1], stack=adjoint)


def circuit_dagger(circuit: Circuit) -> Circuit:
    """Inverse circuit: reversed gate order, each gate conjugate-transposed
    with O(1) numpy calls. It touches the qubits of a validated circuit, so
    it is not checked again."""
    return _trusted(Circuit, n=circuit.n, gates=tuple(map(_dagger_gate, reversed(circuit.gates))))


def measure_prefix(state: StateVec, l: int) -> Distribution:
    """Distribution of the first l bits (the low-order l bits of the index).

    The squared magnitudes are summed over the high bits of the
    (2**(n-l), 2**l) view in chunks, rows or column ranges of at most one
    scratch (_scratch_amps) of amplitudes, so no temporary has the state's
    length. Each chunk's squares are reduced on their own and the chunk
    sums added up, which keeps the rounding of long sums small.
    """
    if not 1 <= l <= state.n:
        raise DomainError(f"prefix length {l} out of range [1, {state.n}]")
    v = state.amps.reshape(-1, 1 << l)
    work = _scratch_amps(v.size)
    rows, width = max(1, work >> l), min(v.shape[1], work)
    squares, sums = np.empty(rows * width), np.empty(width)
    probs = np.zeros(v.shape[1])
    for c0 in range(0, v.shape[1], width):
        for r0 in range(0, v.shape[0], rows):
            part = v[r0:r0 + rows, c0:c0 + width]
            buf, total = squares[:part.size].reshape(part.shape), sums[:part.shape[1]]
            np.abs(part, out=buf)
            np.square(buf, out=buf)
            probs[c0:c0 + width] += np.add.reduce(buf, axis=0, out=total)
    return Distribution(l, probs)
