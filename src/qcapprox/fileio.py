"""Plain-text formats for states, circuits and oracle problems.

All floats are written with 17 significant digits, which round-trips
IEEE doubles exactly. Bit patterns appear as ordinary binary numerals;
bit i of the numeral is qubit i.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .problems import DecisionProblem, GuessProblem
from .tensor import Circuit, ControlledGate, LocalGate, PhaseOnZero, StateVec

STATE_MAGIC = "qstate v1"
CIRCUIT_MAGIC = "qcircuit v1"
# Control field of a ctrl line with no controls.
NO_CONTROLS = "-"
PROBLEM_MAGIC = "qproblem v1"


class ParseError(ValueError):
    """Malformed file content."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_entry(z: complex) -> str:
    return f"{_fmt(z.real)}:{_fmt(z.imag)}"


def _parse_entry(token: str) -> complex:
    parts = token.split(":")
    if len(parts) != 2:
        raise ParseError(f"bad complex entry {token!r}, expected re:im")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ParseError(f"bad complex entry {token!r}") from exc


def _split_lines(text: str, magic: str) -> tuple[int, list[str]]:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
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
    lines = [STATE_MAGIC, f"n={state.n}"]
    lines.extend(f"{_fmt(a.real)} {_fmt(a.imag)}" for a in state.amps)
    return "\n".join(lines) + "\n"


def parse_state(text: str) -> StateVec:
    n, body = _split_lines(text, STATE_MAGIC)
    if len(body) != 1 << n:
        raise ParseError(f"expected {1 << n} amplitude lines, got {len(body)}")
    amps = np.empty(1 << n, dtype=complex)
    for i, line in enumerate(body):
        toks = line.split()
        if len(toks) != 2:
            raise ParseError(f"bad amplitude line {line!r}")
        try:
            amps[i] = complex(float(toks[0]), float(toks[1]))
        except ValueError as exc:
            raise ParseError(f"bad amplitude line {line!r}") from exc
    return StateVec(n, amps)


# -------------------------------------------------------------- circuits

def format_circuit(circuit: Circuit) -> str:
    lines = [CIRCUIT_MAGIC, f"n={circuit.n}"]
    for gate in circuit.gates:
        if isinstance(gate, LocalGate):
            pos = ",".join(str(q) for q in gate.positions)
            entries = " ".join(_fmt_entry(z) for z in gate.matrix.reshape(-1))
            lines.append(f"local {pos} {entries}")
        elif isinstance(gate, ControlledGate):
            ctrls = ",".join(f"{q}:{p}" for q, p in gate.controls) or NO_CONTROLS
            entries = " ".join(_fmt_entry(z) for z in gate.matrix.reshape(-1))
            lines.append(f"ctrl {ctrls} {gate.target} {entries}")
        elif isinstance(gate, PhaseOnZero):
            lines.append(f"iw {_fmt(gate.w)}")
        else:
            raise ParseError(f"unknown gate type {type(gate).__name__}")
    return "\n".join(lines) + "\n"


def _parse_gate(line: str):
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
    if kind == "ctrl":
        if len(toks) == 6:
            # Written by versions that left the control field of a
            # zero-control gate empty.
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
            return PhaseOnZero(float(toks[1]))
        except ValueError as exc:
            raise ParseError(f"bad angle in {line!r}") from exc
    raise ParseError(f"unknown gate kind {kind!r}")


def parse_circuit(text: str) -> Circuit:
    n, body = _split_lines(text, CIRCUIT_MAGIC)
    return Circuit(n, tuple(_parse_gate(line) for line in body))


# -------------------------------------------------------------- problems

def format_problem(problem) -> str:
    if isinstance(problem, DecisionProblem):
        kind, width = "decision", 1
    elif isinstance(problem, GuessProblem):
        kind, width = "guess", problem.n
    else:
        raise ParseError(f"unknown problem type {type(problem).__name__}")
    lines = [PROBLEM_MAGIC, f"n={problem.n}", f"kind={kind}"]
    for b in problem.domain:
        lines.append(f"{b:0{problem.n}b} {problem.f[b]:0{width}b}")
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
