"""Spans around qcapprox's public functions, installed from outside the library.

`install` replaces each function in `WRAPPED` with a timing wrapper in every
qcapprox module that holds it, which covers names imported with
`from .x import f` as well as the defining module. Spans stay in memory and
are summarized (calls, self time, derived counts) when the run ends. When the
tracer is inactive a wrapper calls straight through, so checks and warm-up
jobs record nothing.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

WRAPPED = {
    "tensor": ("apply_circuit", "circuit_to_matrix", "circuit_dagger", "measure_prefix"),
    "linalg": ("svd", "null_space", "gram_schmidt", "eig_unitary", "nearest_unitary",
               "unitary_from_congruence"),
    "metrics": ("two_norm", "weak_two_norm", "tv_states", "tv_operators"),
    "synthesis": ("prepare_state", "extend_to_unitary", "synthesize_transitive"),
    "nets": ("net_cardinality", "decode_index", "nearest_net_index", "net_point"),
    "measure": ("sample_haar_state", "sample_ortho_seq", "mc_sphere_cap", "mc_simplex_ball"),
    "bounds": ("thm34_lower", "thm41_log2", "thm45_log2", "thm51_log2", "thm53_log2"),
    "problems": ("decision_advantage", "guess_advantage"),
    "fileio": ("format_state", "parse_state", "format_circuit", "parse_circuit", "parse_problem"),
}

# Names other modules import by value; a span missed here would hide a
# layer's time inside its caller, so install() refuses to run without them.
BY_NAME_IMPORTS = (
    ("synthesis", "apply_circuit", "tensor.apply_circuit"),
    ("synthesis", "circuit_dagger", "tensor.circuit_dagger"),
    ("problems", "apply_circuit", "tensor.apply_circuit"),
    ("problems", "measure_prefix", "tensor.measure_prefix"),
    ("metrics", "measure_prefix", "tensor.measure_prefix"),
    ("measure", "gram_schmidt", "linalg.gram_schmidt"),
    ("cli", "apply_circuit", "tensor.apply_circuit"),
    ("cli", "circuit_to_matrix", "tensor.circuit_to_matrix"),
    ("cli", "mc_sphere_cap", "measure.mc_sphere_cap"),
    ("cli", "mc_simplex_ball", "measure.mc_simplex_ball"),
)

# Path-level readers and writers: file sizes feed fileio.bytes_read/written.
READERS = (("fileio", "read_state"), ("fileio", "read_circuit"), ("fileio", "read_problem"),
           ("cli", "_load_matrix"))
WRITERS = (("fileio", "write_state"), ("fileio", "write_circuit"), ("fileio", "write_problem"))

GATE_KINDS = {"LocalGate": "local", "ControlledGate": "controlled", "PhaseOnZero": "phase"}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_gate_amps(tracer, args, kwargs, result, parent):
    circuit = args[0] if args else kwargs["circuit"]
    tracer.add("tensor.gate_amps", len(circuit.gates) << circuit.n)


def _count_synth_gates(tracer, args, kwargs, report, parent):
    # Preparations nested in a transitive synthesis are part of its circuit.
    if parent is not None and parent.startswith("synthesis."):
        return
    for gate in report.circuit.gates:
        tracer.add("synthesis.gates." + GATE_KINDS[type(gate).__name__], 1)


def _count_samples(tracer, args, kwargs, result, parent):
    tracer.add("measure.mc_samples", args[2] if len(args) > 2 else kwargs["samples"])


HOOKS = {
    "tensor.apply_circuit": _count_gate_amps,
    "synthesis.prepare_state": _count_synth_gates,
    "synthesis.synthesize_transitive": _count_synth_gates,
    "measure.mc_sphere_cap": _count_samples,
    "measure.mc_simplex_ball": _count_samples,
}


class Tracer:
    """Span store: parallel lists of name, start, end, parent index, job id.

    Job id -1 marks set-up. Summaries are per set-up plus one pass of jobs,
    so they do not depend on how many passes fit in the run.
    """

    def __init__(self):
        self.active = False
        self.job = -1
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self._counts: Counter = Counter()
        self._setup_counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.jobs.append(self.job)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i: int) -> str | None:
        self.ends[i] = perf_counter()
        self._stack.pop()
        return self.names[self._stack[-1]] if self._stack else None

    def add(self, key: str, value: int) -> None:
        (self._setup_counts if self.job < 0 else self._counts)[key] += value

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                parent = self._close(i)
            if hook is not None:
                hook(self, args, kwargs, result, parent)
            return result

        return wrapper

    def wrap_bytes(self, key: str, fn, before: bool):
        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            if self.active and before:
                self.add(key, _file_size(path))
            result = fn(path, *args, **kwargs)
            if self.active and not before:
                self.add(key, _file_size(path))
            return result

        return wrapper

    def summarize(self, passes: int):
        """Calls, inclusive seconds and self seconds per span name, and the
        counters, each for set-up plus one of `passes` passes."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        calls = defaultdict(float)
        total = defaultdict(float)
        own = defaultdict(float)
        for i, name in enumerate(self.names):
            w = 1.0 if self.jobs[i] < 0 else 1.0 / passes
            d = self.ends[i] - self.starts[i]
            calls[name] += w
            total[name] += w * d
            own[name] += w * (d - child[i])
        counts = defaultdict(float, self._setup_counts)
        for key, value in self._counts.items():
            counts[key] += value / passes
        return calls, total, own, counts

    def edges(self) -> set[tuple[str, str]]:
        return {(self.names[p], self.names[i]) for i, p in enumerate(self.parents) if p >= 0}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,job\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                fh.write(f"{name},{self.starts[i] - t0:.9f},{self.ends[i] - t0:.9f},"
                         f"{self.parents[i]},{self.jobs[i]}\n")


def install(tracer: Tracer) -> None:
    """Wrap every function in WRAPPED wherever a qcapprox module holds it."""
    modules = [m for name, m in sys.modules.items()
               if name == "qcapprox" or name.startswith("qcapprox.")]

    def replace_everywhere(original, wrapper):
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)

    wrappers = {}
    for mod_name, fns in WRAPPED.items():
        mod = sys.modules[f"qcapprox.{mod_name}"]
        for fn in fns:
            name = f"{mod_name}.{fn}"
            wrappers[name] = tracer.wrap(name, getattr(mod, fn))
            replace_everywhere(getattr(mod, fn), wrappers[name])
    for table, key, before in ((READERS, "fileio.bytes_read", True),
                               (WRITERS, "fileio.bytes_written", False)):
        for mod_name, fn in table:
            mod = sys.modules[f"qcapprox.{mod_name}"]
            original = getattr(mod, fn)
            replace_everywhere(original, tracer.wrap_bytes(key, original, before))
    missing = [f"{m}.{attr}" for m, attr, name in BY_NAME_IMPORTS
               if getattr(sys.modules[f"qcapprox.{m}"], attr) is not wrappers[name]]
    if missing:
        raise RuntimeError(f"tracing wrappers missing at by-name imports: {missing}")
