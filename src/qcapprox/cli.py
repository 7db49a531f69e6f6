"""Command-line front end.

Every run prints a one-line provenance comment (version, seed, argv),
then CSV rows (or key=value lines with --format text). Floats are
printed with 17 significant digits. Exit codes: 0 success, 1 domain
error, 2 I/O or format error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import __version__, bounds, fileio, metrics, nets, problems, synthesis
from .fileio import ParseError
from .measure import RngStream, mc_simplex_ball, mc_sphere_cap
from .tensor import Circuit, DomainError, PhaseOnZero, StateVec, apply_circuit, circuit_to_matrix


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


class _Out:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self._header = None

    def row(self, names, values):
        """One CSV row (its header only when it differs from the last one
        printed), or one key = value line per column."""
        vals = [_fmt(v) for v in values]
        if self.fmt == "csv":
            header = ",".join(names)
            if header != self._header:
                print(header)
                self._header = header
            print(",".join(vals))
        else:
            for n, v in zip(names, vals):
                print(f"{n} = {v}")


def _provenance(args) -> None:
    seed = getattr(args, "seed", None)
    flags = " ".join(args.raw_argv)
    print(f"# qcapprox {__version__} seed={'-' if seed is None else seed} cmd={flags}")


def _load_state(spec: str, n: int | None) -> StateVec:
    if spec == "zero":
        if n is None:
            raise DomainError("--state zero needs --n")
        return StateVec.zero(n)
    return fileio.read_state(spec)


def _load_matrix(path: str) -> np.ndarray:
    """A unitary from a qcircuit file, or a whitespace matrix of re:im entries."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if fileio.header(text) == fileio.CIRCUIT_MAGIC:
        return circuit_to_matrix(fileio.parse_circuit(text))
    return fileio.parse_matrix(text, path)


def _emit_circuit(circuit: Circuit, out: str | None) -> None:
    if out:
        fileio.write_circuit(out, circuit)
    else:
        sys.stdout.write(fileio.format_circuit(circuit))


def _emit_state(state: StateVec, out: str | None) -> None:
    if out:
        fileio.write_state(out, state)
    else:
        sys.stdout.write(fileio.format_state(state))


# ------------------------------------------------------------ subcommands

def _cmd_synth_state(args, out: _Out) -> None:
    target = _load_state(args.state, args.n)
    report = synthesis.prepare_state(target)
    _emit_circuit(report.circuit, args.out)
    out.row(
        ["n", "primitive_count", "two_qubit_equiv", "residual"],
        [target.n, report.primitive_count, report.two_qubit_equiv, report.residual],
    )


def _cmd_synth_unitary(args, out: _Out) -> None:
    states = [fileio.read_state(p) for p in args.targets]
    seq = synthesis.OrthoSeq(states[0].n, tuple(states))
    report = synthesis.synthesize_transitive(seq)
    _emit_circuit(report.circuit, args.out)
    phase_gates = sum(1 for g in report.circuit.gates if isinstance(g, PhaseOnZero))
    out.row(
        ["n", "k", "primitive_count", "two_qubit_equiv", "residual", "phase_gates"],
        [seq.n, seq.k, report.primitive_count, report.two_qubit_equiv, report.residual, phase_gates],
    )


def _cmd_apply(args, out: _Out) -> None:
    circuit = fileio.read_circuit(args.circuit)
    state = _load_state(args.state, args.n)
    _emit_state(apply_circuit(circuit, state), args.out)


def _cmd_dist(args, out: _Out) -> None:
    kind = metrics.MetricKind(args.metric, l=args.l, k=args.k)
    if args.metric == "tv-states":
        value = kind.between_states(fileio.read_state(args.a), fileio.read_state(args.b))
    else:
        value = kind.between_matrices(_load_matrix(args.a), _load_matrix(args.b))
    out.row(["metric", "l", "k", "value"], [args.metric, args.l or "-", args.k or "-", value])


def _cmd_net(args, out: _Out) -> None:
    spec = nets.NetSpec(args.g, args.delta, args.rho)
    if args.count:
        exact, bound = nets.net_cardinality(spec)
        out.row(
            ["g", "delta", "rho", "axis_points", "exact", "paper_bound"],
            [spec.g, spec.delta, spec.rho, spec.axis_points, exact, bound],
        )
    elif args.point is not None:
        sys.stdout.write(fileio.format_matrix(nets.net_point(spec, args.point)))
    elif args.nearest is not None:
        u = _load_matrix(args.nearest)
        index = nets.nearest_net_index(spec, u)
        dist = metrics.two_norm(u - nets.net_point(spec, index))
        out.row(["index", "two_norm_distance"], [index, dist])
    else:
        raise DomainError("net needs one of --count, --point, --nearest")


def _cmd_mc(args, out: _Out) -> None:
    stream = RngStream(args.seed if args.seed is not None else 0, args.stream)
    if args.experiment == "sphere-ball":
        if args.m is None:
            raise DomainError("sphere-ball needs --m")
        est = mc_sphere_cap(args.eps, args.m, args.samples, stream)
        dim = args.m
    else:
        if args.N is None:
            raise DomainError("simplex-ball needs --N")
        est = mc_simplex_ball(args.eps, args.N, args.samples, stream)
        dim = args.N
    out.row(
        ["experiment", "dim", "eps", "samples", "seed", "stream",
         "estimate", "std_error", "bound", "pass"],
        [args.experiment, dim, args.eps, est.samples, stream.seed, stream.stream,
         est.estimate, est.std_error, est.bound, est.within_bound()],
    )


SWEEP_CAP = 1 << 16
_INT_PARAMS = ("n", "k", "l", "g", "b", "D")

# Bound table -> (parameters in the bound function's order, trailing flags,
# bound function). The function is looked up by name at call time, so a
# wrapper installed on the bounds module is the one that runs.
_TABLES = {
    "thm34": (("n", "k"), (), "thm34_lower"),
    "thm41": (("n", "k", "g", "b", "eps", "alpha"), ("variant",), "thm41_log2"),
    "thm45": (("n", "k", "l", "g", "b", "eps", "alpha"), ("sharp",), "thm45_log2"),
    "thm51": (("n", "D", "g", "b", "q"), (), "thm51_log2"),
    "thm53": (("n", "D", "g", "b", "q"), (), "thm53_log2"),
}


def _sweep_values(spec: str):
    """(name, values) for name=start:stop:step, both ends included: a range
    for integer parameters, floats accumulated by step otherwise. Refused
    before any value is built when it would hold more than SWEEP_CAP."""
    name, _, rng = spec.partition("=")
    parts = rng.split(":")
    if len(parts) != 3:
        raise DomainError(f"--sweep wants name=start:stop:step, got {spec!r}")
    kind = int if name in _INT_PARAMS else float
    try:
        start, stop, step = (kind(p) for p in parts)
    except ValueError:
        raise DomainError(f"--sweep wants {kind.__name__} start:stop:step, got {spec!r}") from None
    if kind is float and not (math.isfinite(start) and math.isfinite(stop)):
        raise DomainError(f"sweep ends must be finite, got {spec!r}")
    if not step > 0:
        raise DomainError("sweep step must be positive")
    if not (stop - start) // step < SWEEP_CAP:
        raise DomainError(f"sweep {spec!r} has more than {SWEEP_CAP} values")
    if kind is int:
        return name, range(start, stop + 1, step)
    vals = []
    x = start
    while x <= stop + 1e-12:
        if len(vals) > SWEEP_CAP:  # step below the float spacing near x
            raise DomainError(f"sweep step {step!r} does not advance past {x!r}")
        vals.append(x)
        x += step
    return name, vals


def _cmd_bounds(args, out: _Out) -> None:
    params, flags, fn_name = _TABLES[args.table]
    missing = [f for f in params if getattr(args, f) is None]
    if missing:
        raise DomainError(f"{args.table} needs --{' --'.join(missing)}")

    swept, vals = None, [None]
    if args.sweep:
        swept, vals = _sweep_values(args.sweep)
        if swept not in params:
            raise DomainError(f"cannot sweep {swept!r} for table {args.table}")

    columns = params + flags
    bound = getattr(bounds, fn_name)
    for v in vals:
        row = [v if c == swept else getattr(args, c) for c in columns]
        value = bound(*row)
        if args.table == "thm34":
            out.row(columns + ("value",), row + [float(value)])
        else:
            out.row(columns + ("log2_bound", "clipped"), row + [value, bounds.clipped_fraction(value)])


def _cmd_advantage(args, out: _Out) -> None:
    circuit = fileio.read_circuit(args.circuit)
    problem = fileio.read_problem(args.problem)
    if isinstance(problem, problems.DecisionProblem):
        adv = problems.decision_advantage(circuit, problem)
        kind = "decision"
    else:
        adv = problems.guess_advantage(circuit, problem)
        kind = "guess"
    out.row(
        ["kind", "p_star", "q"],
        [kind, adv.p_star, "none" if adv.q is None else adv.q],
    )


# ----------------------------------------------------------------- parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="u64 RNG seed")
    common.add_argument("--out", default=None, help="output file path")
    common.add_argument("--format", choices=["csv", "text"], default="csv")

    top = argparse.ArgumentParser(prog="qcapprox", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-state", parents=[common], help="circuit preparing a target state")
    p.add_argument("--state", required=True, help="qstate file or 'zero'")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(fn=_cmd_synth_state)

    p = sub.add_parser("synth-unitary", parents=[common], help="circuit realizing |i> -> u_i")
    p.add_argument("--targets", nargs="+", required=True, help="qstate files, one per target")
    p.set_defaults(fn=_cmd_synth_unitary)

    p = sub.add_parser("apply", parents=[common], help="run a circuit on a state")
    p.add_argument("--circuit", required=True)
    p.add_argument("--state", required=True, help="qstate file or 'zero'")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(fn=_cmd_apply)

    p = sub.add_parser("dist", parents=[common], help="distance between states or operators")
    p.add_argument("--metric", required=True,
                   choices=["frobenius", "two", "weak2", "tv-states", "tv-ops"])
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(fn=_cmd_dist)

    p = sub.add_parser("net", parents=[common], help="delta-net over g-qubit unitaries")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--count", action="store_true")
    p.add_argument("--point", type=int, default=None)
    p.add_argument("--nearest", default=None)
    p.set_defaults(fn=_cmd_net)

    p = sub.add_parser("mc", parents=[common], help="Monte-Carlo measure experiments")
    p.add_argument("--experiment", required=True, choices=["sphere-ball", "simplex-ball"])
    p.add_argument("--m", type=int, default=None, help="complex sphere dimension")
    p.add_argument("--N", type=int, default=None, help="simplex dimension")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--stream", type=int, default=0)
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("bounds", parents=[common], help="closed-form bound tables")
    p.add_argument("--table", required=True,
                   choices=["thm34", "thm41", "thm45", "thm51", "thm53"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--g", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--D", type=int, help="oracle domain size")
    p.add_argument("--variant", choices=["proof", "displayed"], default="proof")
    p.add_argument("--sharp", action="store_true")
    p.add_argument("--sweep", default=None, help="name=start:stop:step")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("advantage", parents=[common], help="worst-case oracle advantage")
    p.add_argument("--circuit", required=True)
    p.add_argument("--problem", required=True)
    p.set_defaults(fn=_cmd_advantage)

    return top


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(raw)
    args.raw_argv = raw
    _provenance(args)
    out = _Out(args.format)
    try:
        args.fn(args, out)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
