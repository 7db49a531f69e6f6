"""Plain-text formats for states, circuits, raw matrices and oracle problems.

All floats are written with 17 significant digits, which round-trips
IEEE doubles exactly. Bit patterns appear as ordinary binary numerals;
bit i of the numeral is qubit i.

Numbers are converted by one `float` map per line (per file for states
and raw matrices) and printed by one `%`-format per gate (per file for
states and raw matrices). A controlled gate is written as one `ctrl` line
per branch. Reading merges consecutive `ctrl` lines with the same control
qubits, in the same order, and the same target into one gate until a
polarity pattern repeats; a line without controls is a gate of its own.
The 2x2 matrices of a circuit's `ctrl` lines are checked for unitarity as
one stack; errors still come from the first bad line, in the order of the
per-line checks.
"""

from __future__ import annotations

from itertools import repeat
from pathlib import Path

import numpy as np

from .problems import DecisionProblem, GuessProblem
from .tensor import (
    Circuit,
    ControlledGate,
    DomainError,
    LocalGate,
    PhaseOnZero,
    StateVec,
    _check_controls,
    _check_unitary,
    _check_wires,
    _trusted,
)

STATE_MAGIC = "qstate v1"
CIRCUIT_MAGIC = "qcircuit v1"
# Control field of a ctrl line with no controls.
NO_CONTROLS = "-"
_NO_FIELD = ((), 0)  # its wires and pattern
PROBLEM_MAGIC = "qproblem v1"

# One complex entry, written as re:im.
_ENTRY = "%.17g:%.17g"


class ParseError(ValueError):
    """Malformed file content."""


class _Memo(dict):
    """fn(key), computed on first lookup and kept for the rest of one call."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _floats(a: np.ndarray) -> tuple:
    """Real and imaginary part of every entry, row-major, as Python floats."""
    return tuple(np.ascontiguousarray(a, dtype=complex).reshape(-1).view(float).tolist())


def _entries_template(count: int) -> str:
    return " ".join([_ENTRY] * count)


def _parse_entry(token: str) -> complex:
    parts = token.split(":")
    if len(parts) != 2:
        raise ParseError(f"bad complex entry {token!r}, expected re:im")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ParseError(f"bad complex entry {token!r}") from exc


def _entry_values(tokens: list[str]) -> list[float]:
    """re, im of each of one or more re:im tokens in order, each the Python
    float of its text. The first malformed token raises the ParseError
    _parse_entry gives it."""
    if set(map(str.count, tokens, repeat(":"))) == {1}:
        try:
            return list(map(float, ":".join(tokens).split(":")))
        except ValueError:
            pass
    for token in tokens:
        _parse_entry(token)
    raise ParseError(f"bad complex entries {tokens!r}")


def _content_lines(text: str) -> list[str]:
    """Stripped lines, without blank lines and # comments."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]


def header(text: str) -> str:
    """The first line that is neither blank nor a comment ('' if none)."""
    lines = _content_lines(text)
    return lines[0] if lines else ""


def _split_lines(text: str, magic: str) -> tuple[int, list[str]]:
    lines = _content_lines(text)
    if not lines or lines[0] != magic:
        raise ParseError(f"missing header {magic!r}")
    if len(lines) < 2 or not lines[1].startswith("n="):
        raise ParseError("missing n=<int> line")
    try:
        n = int(lines[1][2:])
    except ValueError as exc:
        raise ParseError(f"bad qubit count line {lines[1]!r}") from exc
    if n < 1:
        raise ParseError(f"need n >= 1, got {n}")
    return n, lines[2:]


# ---------------------------------------------------------------- states

def format_state(state: StateVec) -> str:
    body = "\n".join(["%.17g %.17g"] * len(state.amps)) % _floats(state.amps)
    return f"{STATE_MAGIC}\nn={state.n}\n{body}\n"


def parse_state(text: str) -> StateVec:
    n, body = _split_lines(text, STATE_MAGIC)
    # Bit lengths first: 1 << n would not fit in memory for an absurd n.
    if len(body).bit_length() != n + 1 or len(body) != 1 << n:
        want = 1 << n if n < 64 else f"2^{n}"
        raise ParseError(f"expected {want} amplitude lines, got {len(body)}")
    if set(map(len, map(str.split, body))) == {2}:
        try:
            values = list(map(float, " ".join(body).split()))
        except ValueError:
            pass
        else:
            return StateVec(n, np.array(values).view(complex))
    for line in body:  # the first bad line decides the error
        toks = line.split()
        if len(toks) != 2:
            raise ParseError(f"bad amplitude line {line!r}")
        try:
            list(map(float, toks))
        except ValueError as exc:
            raise ParseError(f"bad amplitude line {line!r}") from exc
    raise ParseError("bad amplitude lines")


# -------------------------------------------------------------- circuits

def _ctrl_lines(gate: ControlledGate, wire_texts: _Memo, entries: str) -> str:
    """The ctrl lines of a gate's branches in stack order, one `%`-format
    for all of them. wire_texts[wires] lists ("q:0", "q:1") per control
    qubit q, and `entries` is the template of four entries."""
    pairs = wire_texts[gate.wires]
    tail = f" {gate.target} {entries}"
    fields = [",".join([pq[b >> j & 1] for j, pq in enumerate(pairs)]) or NO_CONTROLS
              for b in gate.pattern.tolist()]
    return "\n".join(["ctrl " + f + tail for f in fields]) % _floats(gate.stack)


def format_circuit(circuit: Circuit) -> str:
    templates = _Memo(_entries_template)
    wire_texts = _Memo(lambda wires: [("%d:0" % q, "%d:1" % q) for q in wires])
    lines = [CIRCUIT_MAGIC, f"n={circuit.n}"]
    for gate in circuit.gates:
        if isinstance(gate, ControlledGate):
            lines.append(_ctrl_lines(gate, wire_texts, templates[4]))
        elif isinstance(gate, LocalGate):
            lines.append(f"local {','.join(map(str, gate.positions))} "
                         + templates[gate.matrix.size] % _floats(gate.matrix))
        elif isinstance(gate, PhaseOnZero):
            lines.append("iw %.17g" % gate.w)
        else:
            raise ParseError(f"unknown gate type {type(gate).__name__}")
    return "\n".join(lines) + "\n"


def _parse_control(token: str) -> tuple[int, int]:
    qp = token.split(":")
    if len(qp) != 2:
        raise ParseError(f"bad control token {token!r}")
    try:
        return int(qp[0]), int(qp[1])
    except ValueError as exc:
        raise ParseError(f"bad control token {token!r}") from exc


class _ControlFields(dict):
    """(wires, pattern) of each control field of one file, read once; the
    pattern is -1 if a polarity is neither 0 nor 1. A field is the field
    before its last comma plus one q:p token, so the fields of a cascade,
    which extend their parents' by one pair each, cost one token each. Each
    q:p token is parsed once, and one wires tuple is shared per
    control-qubit sequence."""

    def __init__(self):
        super().__init__()
        self.pairs = _Memo(_parse_control)
        self.sequences: dict = {}

    def __missing__(self, text):
        head, comma, token = text.rpartition(",")
        wires, pattern = self[head] if comma else _NO_FIELD
        q, p = self.pairs[token]
        pattern = pattern | p << len(wires) if pattern >= 0 and p in (0, 1) else -1
        wires += (q,)
        field = self[text] = (self.sequences.setdefault(wires, wires), pattern)
        return field


def _parse_line(line: str, fields: _ControlFields, ctrl_values: list[float]):
    """The gate of one line, or (wires, pattern, target) of a ctrl line,
    whose entries are appended to ctrl_values once its other checks
    passed; `fields` reads a control field."""
    toks = line.split()
    kind = toks[0]
    if kind == "ctrl":
        if len(toks) == 6:
            # Written by versions that left the control field of a
            # zero-control gate empty.
            toks.insert(1, NO_CONTROLS)
        if len(toks) != 7:
            raise ParseError(f"bad ctrl gate line {line!r}")
        wires, pattern = _NO_FIELD if toks[1] == NO_CONTROLS else fields[toks[1]]
        try:
            target = int(toks[2])
        except ValueError as exc:
            raise ParseError(f"bad target in {line!r}") from exc
        values = _entry_values(toks[3:])
        if pattern < 0:  # raises the polarity error, which names the pairs
            _check_controls(tuple(map(_parse_control, toks[1].split(","))), target)
        _check_wires(wires, target)
        ctrl_values += values
        return wires, pattern, target
    if kind == "local":
        if len(toks) < 3:
            raise ParseError(f"bad local gate line {line!r}")
        try:
            positions = tuple(int(t) for t in toks[1].split(","))
        except ValueError as exc:
            raise ParseError(f"bad positions in {line!r}") from exc
        values = _entry_values(toks[2:])
        dim = 1 << len(positions)
        if len(values) != 2 * dim * dim:
            raise ParseError(f"expected {dim * dim} matrix entries, got {len(values) // 2}")
        return LocalGate(positions, np.array(values).view(complex).reshape(dim, dim))
    if kind == "iw":
        if len(toks) != 2:
            raise ParseError(f"bad iw line {line!r}")
        try:
            w = float(toks[1])
        except ValueError as exc:
            raise ParseError(f"bad angle in {line!r}") from exc
        return PhaseOnZero(w)  # refuses nan and inf with a DomainError
    raise ParseError(f"unknown gate kind {kind!r}")


def _ctrl_stack(values: list[float]) -> np.ndarray:
    """The read-only (G, 2, 2) stack of G ctrl lines' entries, checked for
    unitarity in one call."""
    stack = _check_unitary(np.array(values).view(complex).reshape(-1, 2, 2), "gate matrix")
    stack.flags.writeable = False
    return stack


def parse_circuit(text: str) -> Circuit:
    """Every line is parsed and checked in order, except for the unitarity
    of the ctrl matrices: it is checked for the whole stack at the end, or
    for the lines above the first line that fails, so that the first bad
    line decides the error as a line-by-line read would. Consecutive ctrl
    lines with the same control qubits and target form one gate until a
    pattern repeats; their branches act on disjoint amplitudes."""
    n, body = _split_lines(text, CIRCUIT_MAGIC)
    fields = _ControlFields()
    values: list[float] = []
    specs = []
    for line in body:
        try:
            specs.append(_parse_line(line, fields, values))
        except (ParseError, DomainError):
            _ctrl_stack(values)  # a non-unitary gate above this line comes first
            raise
    ctrl = [s for s in specs if type(s) is tuple]  # (wires, pattern, target) per ctrl line
    stack = _ctrl_stack(values)
    patterns = np.array([p for _, p, _ in ctrl], dtype=np.int64)
    patterns.flags.writeable = False
    merged: list = []  # gates, and [wires, target, first row, end row] of ctrl lines
    row, seen = 0, set()  # seen: the patterns of the last gate of ctrl lines
    for s in specs:
        if type(s) is not tuple:
            merged.append(s)
            continue
        wires, pattern, target = s
        last = merged[-1] if merged else None
        same = type(last) is list and wires and last[0] == wires and last[1] == target
        if same and pattern not in seen:
            seen.add(pattern)
            last[3] += 1
        else:
            seen = {pattern}
            merged.append([wires, target, row, row + 1])
        row += 1
    gates = tuple(_trusted(ControlledGate, wires=g[0], target=g[1], pattern=patterns[g[2]:g[3]],
                           stack=stack[g[2]:g[3]]) if type(g) is list else g for g in merged)
    return Circuit(n, gates)  # raises the range error of the first gate beyond n


# ------------------------------------------------------------- raw matrices

def format_matrix(matrix: np.ndarray) -> str:
    """One line of space-separated re:im entries per row."""
    rows, cols = matrix.shape
    return ("\n".join([_entries_template(cols)] * rows) + "\n") % _floats(matrix)


def parse_matrix(text: str, name: str) -> np.ndarray:
    """The square matrix of a file of re:im rows, read where a qcircuit file
    may also stand; `name` labels the errors."""
    rows = [ln.split() for ln in _content_lines(text)]
    values = _entry_values([tok for row in rows for tok in row]) if rows else []
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ParseError(f"{name} is neither a qcircuit file nor a square re:im matrix")
    m = np.array(values).view(complex).reshape(len(rows), len(rows))
    if not np.isfinite(m).all():
        raise DomainError(f"{name} has a non-finite matrix entry")
    return m


# -------------------------------------------------------------- problems

def format_problem(problem) -> str:
    if isinstance(problem, DecisionProblem):
        kind = "decision"
    elif isinstance(problem, GuessProblem):
        kind = "guess"
    else:
        raise ParseError(f"unknown problem type {type(problem).__name__}")
    lines = [PROBLEM_MAGIC, f"n={problem.n}", f"kind={kind}"]
    for b in problem.domain:
        lines.append(f"{b:0{problem.n}b} {problem.f[b]:0{problem.out_bits}b}")
    return "\n".join(lines) + "\n"


def parse_problem(text: str):
    n, body = _split_lines(text, PROBLEM_MAGIC)
    if not body or not body[0].startswith("kind="):
        raise ParseError("missing kind=decision|guess line")
    kind = body[0][5:]
    if kind not in ("decision", "guess"):
        raise ParseError(f"unknown problem kind {kind!r}")
    table = {}
    for line in body[1:]:
        toks = line.split()
        if len(toks) != 2:
            raise ParseError(f"bad table line {line!r}")
        try:
            b = int(toks[0], 2)
            val = int(toks[1], 2)
        except ValueError as exc:
            raise ParseError(f"bad binary pattern in {line!r}") from exc
        if b in table:
            raise ParseError(f"input {toks[0]} repeated in {line!r}")
        table[b] = val
    if kind == "decision":
        return DecisionProblem(n, table)
    return GuessProblem(n, table)


# ------------------------------------------------------------ path layer

def read_state(path) -> StateVec:
    return parse_state(Path(path).read_text(encoding="utf-8"))


def write_state(path, state: StateVec) -> None:
    Path(path).write_text(format_state(state))


def read_circuit(path) -> Circuit:
    return parse_circuit(Path(path).read_text(encoding="utf-8"))


def write_circuit(path, circuit: Circuit) -> None:
    Path(path).write_text(format_circuit(circuit))


def read_problem(path):
    return parse_problem(Path(path).read_text(encoding="utf-8"))


def write_problem(path, problem) -> None:
    Path(path).write_text(format_problem(problem))
