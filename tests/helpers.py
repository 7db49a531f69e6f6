"""Shared test utilities: random unitaries, states and circuits, the
brute-force dense oracle for gates, entry-by-entry references for the
circuit and state file formats, the per-branch `ctrl` writer of older
circuit files, per-chunk references for the Monte-Carlo experiments, and
a tracemalloc peak probe."""

import math
import tracemalloc

import numpy as np

from qcapprox import Circuit, ControlledGate, LocalGate, PhaseOnZero, StateVec
from qcapprox.fileio import (
    CIRCUIT_MAGIC,
    NO_CONTROLS,
    STATE_MAGIC,
    ParseError,
    _parse_entry,
    _split_lines,
)
from qcapprox.measure import (
    CHUNK,
    McEstimate,
    RngStream,
    simplex_ball_bound,
    sphere_cap_bound,
)
from qcapprox.tensor import _trusted


def traced_peak(fn):
    """(fn(), the tracemalloc peak in bytes while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with the phase
    convention that makes the factorization unique."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_state(n: int, rng: np.random.Generator) -> StateVec:
    z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVec(n, z / np.linalg.norm(z))


def random_gate(n: int, rng: np.random.Generator):
    kind = rng.integers(0, 3)
    if kind == 0:
        g = int(rng.integers(1, min(n, 3) + 1))
        positions = tuple(int(q) for q in rng.choice(n, size=g, replace=False))
        return LocalGate(positions, haar_unitary(1 << g, rng))
    if kind == 1 and n >= 2:
        c = int(rng.integers(1, n))
        picks = [int(q) for q in rng.choice(n, size=c + 1, replace=False)]
        controls = tuple((q, int(rng.integers(0, 2))) for q in picks[:-1])
        return ControlledGate(controls, picks[-1], haar_unitary(2, rng))
    return PhaseOnZero(float(rng.uniform(-np.pi, np.pi)))


def random_circuit(n: int, b: int, rng: np.random.Generator) -> Circuit:
    return Circuit(n, tuple(random_gate(n, rng) for _ in range(b)))


LOCAL_PLACEMENTS = ("ascending", "descending", "wrap", "scattered")


def kernel_gate(n: int, rng: np.random.Generator):
    """A local gate of arity 1-3 on adjacent qubits in ascending or
    descending order, on a cyclic run that may wrap from qubit n-1 to 0, or
    on scattered qubits; a controlled gate with no controls or with every
    other qubit as a control (random polarities); or phase-on-zero."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        g = int(rng.integers(1, min(n, 3) + 1))
        placement = LOCAL_PLACEMENTS[int(rng.integers(0, len(LOCAL_PLACEMENTS)))]
        start = int(rng.integers(0, (n if placement == "wrap" else n - g + 1)))
        positions = [(start + j) % n for j in range(g)]
        if placement == "descending":
            positions.reverse()
        elif placement == "scattered":
            positions = [int(q) for q in rng.choice(n, size=g, replace=False)]
        return LocalGate(tuple(positions), haar_unitary(1 << g, rng))
    if kind == 3:
        return PhaseOnZero(float(rng.uniform(-np.pi, np.pi)))
    order = [int(q) for q in rng.permutation(n)]
    controls = () if kind == 1 else tuple((q, int(rng.integers(0, 2))) for q in order[1:])
    return ControlledGate(controls, order[0], haar_unitary(2, rng))


def kernel_run(n: int, rng: np.random.Generator):
    """Up to 8 one-branch controlled gates sharing one target and one
    control-qubit sequence (0 to n-1 controls) with distinct polarity
    patterns; half the time one pattern comes back later."""
    order = [int(q) for q in rng.permutation(n)]
    qubits = order[1:1 + int(rng.integers(0, n))]
    size = min(1 << len(qubits), int(rng.integers(2, 9)))
    patterns = [int(b) for b in rng.choice(1 << len(qubits), size=size, replace=False)]
    if rng.random() < 0.5:
        patterns.insert(int(rng.integers(1, size + 1)), patterns[0])
    return [
        ControlledGate(tuple((q, (b >> j) & 1) for j, q in enumerate(qubits)), order[0], haar_unitary(2, rng))
        for b in patterns
    ]


def kernel_multiplexor(n: int, rng: np.random.Generator):
    """A controlled gate of 1 to 8 branches on a random target, its
    controls (0 to n-1 of them) in random order, with distinct random
    patterns."""
    order = [int(q) for q in rng.permutation(n)]
    wires = order[1:1 + int(rng.integers(0, n))]
    size = min(1 << len(wires), int(rng.integers(1, 9)))
    patterns = rng.choice(1 << len(wires), size=size, replace=False)
    return ControlledGate.multiplexor(wires, order[0], patterns,
                                      np.array([haar_unitary(2, rng) for _ in range(size)]))


def branch_gates(gates) -> list:
    """The gates with each controlled gate split into its branches, in
    stack order: one-branch gates whose pattern and stack are views of
    their source's."""
    out = []
    for g in gates:
        if not isinstance(g, ControlledGate):
            out.append(g)
            continue
        out.extend(_trusted(ControlledGate, wires=g.wires, target=g.target, pattern=g.pattern[i:i + 1],
                            stack=g.stack[i:i + 1]) for i in range(len(g.pattern)))
    return out


def assert_same_circuit(got: Circuit, want: Circuit) -> None:
    """Same qubit count and, gate for gate, the same kind, wires, pattern
    array and bit-identical matrix, stack or angle. Compare
    Circuit(n, branch_gates(...)) of both to check branch for branch."""
    assert got.n == want.n
    assert len(got.gates) == len(want.gates)
    for g1, g2 in zip(want.gates, got.gates):
        assert type(g1) is type(g2)
        if isinstance(g1, LocalGate):
            assert g1.positions == g2.positions
            assert np.array_equal(g1.matrix, g2.matrix)
        elif isinstance(g1, ControlledGate):
            assert g1.wires == g2.wires and g1.target == g2.target
            assert g2.pattern.dtype == np.int64 and np.array_equal(g1.pattern, g2.pattern)
            assert np.array_equal(g1.stack, g2.stack)
        else:
            assert g1.w == g2.w


def dagger_reference(circuit: Circuit) -> Circuit:
    """Inverse circuit built one gate, and one branch, at a time: each
    matrix conjugate-transposed into its own copy, read-only, and each
    controlled gate keeping its source's wires (the same tuple object)
    with its branches in reverse."""
    gates = []
    for gate in reversed(circuit.gates):
        if isinstance(gate, PhaseOnZero):
            gates.append(PhaseOnZero(-gate.w))
            continue
        if isinstance(gate, LocalGate):
            m = gate.matrix.conj().T.copy()
            m.flags.writeable = False
            gates.append(_trusted(LocalGate, positions=gate.positions, matrix=m))
            continue
        stack = np.array([m.conj().T for m in gate.stack[::-1]])
        pattern = np.array(gate.pattern[::-1])
        stack.flags.writeable = pattern.flags.writeable = False
        gates.append(_trusted(ControlledGate, wires=gate.wires, target=gate.target, pattern=pattern,
                              stack=stack))
    return Circuit(circuit.n, tuple(gates))


def embed_oracle(positions, matrix, n):
    """Brute-force bit reindexing: U[b', b] = M[loc(b'), loc(b)] where the
    local index collects the bits at `positions` and all other bits agree."""
    dim = 1 << n
    g = len(positions)
    u = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        loc_in = sum(((b >> q) & 1) << j for j, q in enumerate(positions))
        for loc_out in range(1 << g):
            bp = b
            for j, q in enumerate(positions):
                bp &= ~(1 << q)
                bp |= ((loc_out >> j) & 1) << q
            u[bp, b] += matrix[loc_out, loc_in]
    return u


def gate_oracle(gate, n):
    """Dense matrix of any gate through embed_oracle: a controlled gate is
    the product of its branches, each a local gate on (target, *controls)
    that acts only where every control matches, and phase-on-zero is a
    diagonal local gate on all qubits."""
    if isinstance(gate, ControlledGate) and len(gate.pattern) > 1:
        u = np.eye(1 << n, dtype=complex)
        for branch in branch_gates([gate]):
            u = gate_oracle(branch, n) @ u
        return u
    if isinstance(gate, LocalGate):
        return embed_oracle(gate.positions, gate.matrix, n)
    if isinstance(gate, PhaseOnZero):
        diag = np.ones(1 << n, dtype=complex)
        diag[0] = np.exp(1j * gate.w)
        return embed_oracle(tuple(range(n)), np.diag(diag), n)
    pattern = sum(p << (j + 1) for j, (_, p) in enumerate(gate.controls))
    m = np.eye(2 << len(gate.controls), dtype=complex)
    m[pattern:pattern + 2, pattern:pattern + 2] = gate.matrix
    return embed_oracle((gate.target,) + tuple(q for q, _ in gate.controls), m, n)


def fmt_reference(x) -> str:
    return f"{x:.17g}"


def format_state_reference(state: StateVec) -> str:
    """One amplitude at a time, each part through fmt_reference."""
    lines = [STATE_MAGIC, f"n={state.n}"]
    lines.extend(f"{fmt_reference(a.real)} {fmt_reference(a.imag)}" for a in state.amps)
    return "\n".join(lines) + "\n"


def _entries_reference(m) -> str:
    return " ".join(f"{fmt_reference(z.real)}:{fmt_reference(z.imag)}" for z in m.reshape(-1))


def format_circuit_reference(circuit: Circuit) -> str:
    """One gate per line, one pattern and one matrix entry at a time, each
    part through fmt_reference."""
    lines = [CIRCUIT_MAGIC, f"n={circuit.n}"]
    for gate in circuit.gates:
        if isinstance(gate, LocalGate):
            pos = ",".join(str(q) for q in gate.positions)
            lines.append(f"local {pos} {_entries_reference(gate.matrix)}")
        elif isinstance(gate, ControlledGate):
            wires = ",".join(str(q) for q in gate.wires) or NO_CONTROLS
            patterns = ",".join(
                "".join(str((int(b) >> j) & 1) for j in reversed(range(len(gate.wires)))) or "0"
                for b in gate.pattern)
            lines.append(f"mux {wires} {gate.target} {patterns} {_entries_reference(gate.stack)}")
        else:
            lines.append(f"iw {fmt_reference(gate.w)}")
    return "\n".join(lines) + "\n"


def format_circuit_ctrl_lines(circuit: Circuit) -> str:
    """The file as written before `mux` lines: one `ctrl` line of q:p
    control pairs per branch of a controlled gate, in stack order."""
    lines = [CIRCUIT_MAGIC, f"n={circuit.n}"]
    for gate in branch_gates(circuit.gates):
        if isinstance(gate, LocalGate):
            pos = ",".join(str(q) for q in gate.positions)
            lines.append(f"local {pos} {_entries_reference(gate.matrix)}")
        elif isinstance(gate, ControlledGate):
            ctrls = ",".join(f"{q}:{p}" for q, p in gate.controls) or NO_CONTROLS
            lines.append(f"ctrl {ctrls} {gate.target} {_entries_reference(gate.matrix)}")
        else:
            lines.append(f"iw {fmt_reference(gate.w)}")
    return "\n".join(lines) + "\n"


def _parse_gate_reference(line: str):
    toks = line.split()
    kind = toks[0]
    if kind == "local":
        if len(toks) < 3:
            raise ParseError(f"bad local gate line {line!r}")
        try:
            positions = tuple(int(t) for t in toks[1].split(","))
        except ValueError as exc:
            raise ParseError(f"bad positions in {line!r}") from exc
        entries = [_parse_entry(t) for t in toks[2:]]
        dim = 1 << len(positions)
        if len(entries) != dim * dim:
            raise ParseError(f"expected {dim * dim} matrix entries, got {len(entries)}")
        return LocalGate(positions, np.array(entries).reshape(dim, dim))
    if kind == "mux":
        if len(toks) < 5:
            raise ParseError(f"bad mux gate line {line!r}")
        try:
            wires = [] if toks[1] == NO_CONTROLS else [int(t) for t in toks[1].split(",")]
        except ValueError as exc:
            raise ParseError(f"bad wires in {line!r}") from exc
        try:
            target = int(toks[2])
        except ValueError as exc:
            raise ParseError(f"bad target in {line!r}") from exc
        numerals = toks[3].split(",")
        if any(not b or set(b) - {"0", "1"} for b in numerals):
            raise ParseError(f"bad patterns in {line!r}")
        entries = [_parse_entry(t) for t in toks[4:]]
        if len(entries) != 4 * len(numerals):
            raise ParseError(f"expected {4 * len(numerals)} matrix entries for "
                             f"{len(numerals)} patterns, got {len(entries)}")
        patterns = [sum(int(d) << j for j, d in enumerate(reversed(b))) for b in numerals]
        return ControlledGate.multiplexor(wires, target, patterns,
                                          np.array(entries).reshape(len(numerals), 2, 2))
    if kind == "ctrl":
        if len(toks) == 6:
            toks.insert(1, NO_CONTROLS)
        if len(toks) != 7:
            raise ParseError(f"bad ctrl gate line {line!r}")
        controls = []
        for part in [] if toks[1] == NO_CONTROLS else toks[1].split(","):
            qp = part.split(":")
            if len(qp) != 2:
                raise ParseError(f"bad control token {part!r}")
            try:
                controls.append((int(qp[0]), int(qp[1])))
            except ValueError as exc:
                raise ParseError(f"bad control token {part!r}") from exc
        try:
            target = int(toks[2])
        except ValueError as exc:
            raise ParseError(f"bad target in {line!r}") from exc
        entries = [_parse_entry(t) for t in toks[3:]]
        return ControlledGate(tuple(controls), target, np.array(entries).reshape(2, 2))
    if kind == "iw":
        if len(toks) != 2:
            raise ParseError(f"bad iw line {line!r}")
        try:
            w = float(toks[1])
        except ValueError as exc:
            raise ParseError(f"bad angle in {line!r}") from exc
        return PhaseOnZero(w)
    raise ParseError(f"unknown gate kind {kind!r}")


def parse_circuit_reference(text: str) -> Circuit:
    """Line by line, entry by entry, each gate checked by its constructor as
    soon as it is read: the order of checks parse_circuit must keep."""
    n, body = _split_lines(text, CIRCUIT_MAGIC)
    return Circuit(n, tuple(_parse_gate_reference(line) for line in body))


def _mc_reference(samples: int, stream: RngStream, bound: float, chunk_hits) -> McEstimate:
    hits = 0
    for chunk_index, done in enumerate(range(0, samples, CHUNK)):
        hits += chunk_hits(stream.chunk_generator(chunk_index), min(CHUNK, samples - done))
    p = hits / samples
    return McEstimate(p, math.sqrt(p * (1 - p) / samples), samples, bound)


def mc_sphere_cap_reference(eps, m, samples, stream, center=None) -> McEstimate:
    """Fresh complex arrays per chunk: numpy's complex norm and
    complex-by-real division, the estimates mc_sphere_cap must keep."""
    if center is None:
        u = np.zeros(m, dtype=complex)
        u[0] = 1.0
    else:
        u = np.asarray(center, dtype=complex)

    def chunk_hits(rng, take):
        z = rng.standard_normal((take, m)) + 1j * rng.standard_normal((take, m))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        return int((np.linalg.norm(z - u, axis=1) <= eps).sum())

    return _mc_reference(samples, stream, sphere_cap_bound(eps, m), chunk_hits)


def mc_simplex_ball_reference(eps, dim, samples, stream, center=None) -> McEstimate:
    """Fresh arrays per chunk: the estimates mc_simplex_ball must keep."""
    v = np.full(dim, 1.0 / dim) if center is None else np.asarray(center, dtype=float)

    def chunk_hits(rng, take):
        e = rng.standard_exponential((take, dim))
        x = e / e.sum(axis=1, keepdims=True)
        return int((np.abs(x - v).sum(axis=1) <= eps).sum())

    return _mc_reference(samples, stream, simplex_ball_bound(eps, dim), chunk_hits)
