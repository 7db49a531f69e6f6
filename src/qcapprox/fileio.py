"""Plain-text formats for states, circuits, raw matrices and oracle problems.

All floats are written with 17 significant digits, which round-trips
IEEE doubles exactly. Bit patterns appear as ordinary binary numerals;
bit i of the numeral is qubit i.

Numbers are converted by one `float` map per line (per file for states
and raw matrices) and printed by one `%`-format per gate (per file for
states and raw matrices). A circuit file holds one line per gate. A
controlled gate of G branches is one `mux` line: its control wires (`-`
if none), its target, G comma-separated patterns (bit j of a pattern's
numeral is wires[j]) and its (G, 2, 2) stack, row-major. A `ctrl` line,
one branch given by q:p control pairs, is still read as a gate of its own.
"""

from __future__ import annotations

from itertools import repeat
from pathlib import Path

import numpy as np

from .problems import DecisionProblem, GuessProblem
from .tensor import Circuit, ControlledGate, DomainError, LocalGate, PhaseOnZero, StateVec

STATE_MAGIC = "qstate v1"
CIRCUIT_MAGIC = "qcircuit v1"
# Wires field of a mux or ctrl line with no controls.
NO_CONTROLS = "-"
PROBLEM_MAGIC = "qproblem v1"

# One complex entry, written as re:im.
_ENTRY = "%.17g:%.17g"


class ParseError(ValueError):
    """Malformed file content."""


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

def _entries(a: np.ndarray) -> str:
    """The re:im entries of `a`, row-major, by one `%`-format."""
    return _entries_template(a.size) % _floats(a)


def format_circuit(circuit: Circuit) -> str:
    lines = [CIRCUIT_MAGIC, f"n={circuit.n}"]
    for gate in circuit.gates:
        if isinstance(gate, ControlledGate):
            digits = "0%db" % len(gate.wires)
            patterns = ",".join([format(b, digits) for b in gate.pattern.tolist()])
            lines.append(f"mux {','.join(map(str, gate.wires)) or NO_CONTROLS} {gate.target} "
                         f"{patterns} {_entries(gate.stack)}")
        elif isinstance(gate, LocalGate):
            lines.append(f"local {','.join(map(str, gate.positions))} {_entries(gate.matrix)}")
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


def _parse_target(token: str, line: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise ParseError(f"bad target in {line!r}") from exc


def _parse_line(line: str):
    """The gate of one line, checked in full by its constructor."""
    toks = line.split()
    kind = toks[0]
    if kind == "mux":
        if len(toks) < 5:
            raise ParseError(f"bad mux gate line {line!r}")
        try:
            wires = () if toks[1] == NO_CONTROLS else tuple(map(int, toks[1].split(",")))
        except ValueError as exc:
            raise ParseError(f"bad wires in {line!r}") from exc
        target = _parse_target(toks[2], line)
        numerals = toks[3].split(",")
        if toks[3].strip("01,") or not all(numerals):
            raise ParseError(f"bad patterns in {line!r}")
        values = _entry_values(toks[4:])
        if len(values) != 8 * len(numerals):
            raise ParseError(f"expected {4 * len(numerals)} matrix entries for "
                             f"{len(numerals)} patterns, got {len(values) // 2}")
        return ControlledGate.multiplexor(wires, target, [int(b, 2) for b in numerals],
                                          np.array(values).view(complex).reshape(-1, 2, 2))
    if kind == "ctrl":
        if len(toks) == 6:
            # Written by versions that left the control field of a
            # zero-control gate empty.
            toks.insert(1, NO_CONTROLS)
        if len(toks) != 7:
            raise ParseError(f"bad ctrl gate line {line!r}")
        controls = [] if toks[1] == NO_CONTROLS else list(map(_parse_control, toks[1].split(",")))
        target = _parse_target(toks[2], line)
        values = _entry_values(toks[3:])
        return ControlledGate(controls, target, np.array(values).view(complex).reshape(2, 2))
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


def parse_circuit(text: str) -> Circuit:
    """One gate per line, each checked in full in file order, so the first
    bad line decides the error; then the range of every gate against n."""
    n, body = _split_lines(text, CIRCUIT_MAGIC)
    return Circuit(n, tuple(map(_parse_line, body)))


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
