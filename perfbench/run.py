"""Closed-loop job benchmark for qcapprox.

    python3 perfbench/run.py --workload synth|simulate|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; qcapprox is imported from its `src/`. One
client runs the workload's seeded pass of jobs again and again, each job
starting when the previous one ends, until the timed jobs add up to S
seconds (whole passes only). Every job's output is checked after its pass,
outside the timed span. BLAS is pinned to one thread in this process.

--trace 0 prints the end-to-end metrics. --trace 1 sets the inputs up once
more with spans around the public qcapprox functions (perfbench/spans.py),
then runs S seconds of passes that alternate between plain and traced, so
both see the same host conditions, and prints the per-layer metrics: calls,
self seconds and counts for that set-up plus one traced pass, the scale
ladder from the plain passes and the tracing overhead. The last stdout line
is the JSON result; the line before it and perfbench/out/ hold the
environment record, failures, exit-code contract probes, the tail
percentile used, and the span dump.
"""

import os
import sys
import time

_T0 = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5          # this process plus four fresh ones
CHILD_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["synth", "simulate", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for setup_s samples)")
    return p.parse_args(argv)


def setup(args):
    """Import qcapprox, numpy and scipy, build the seeded pass and warm up."""
    src = ROOT / "src"
    if not (src / "qcapprox" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qcapprox sources under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import qcapprox
    if Path(qcapprox.__file__).resolve().parent != (src / "qcapprox").resolve():
        sys.exit(f"perfbench: imported qcapprox from {qcapprox.__file__}, not {src}")
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    for job in workload.warmup:
        job.run()
    return workload


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


class Phase:
    """One closed-loop stretch of whole passes: job times, failures, wall time.

    With a tracer on the workload, passes alternate between plain and traced
    and the phase ends on a traced pass. Plain passes still call through the
    inactive span wrappers, which costs one Python call per wrapped function.
    `times` and `by_kind` hold the plain passes; `attempted` and `errors`
    count every pass.
    """

    def __init__(self, workload, seconds: float):
        from workloads import cost_over_lower_bound

        jobs = workload.jobs
        tracer = workload.tracer
        self.times: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.wall = [0.0, 0.0]     # seconds spent in plain and in traced passes
        self.passes = [0, 0]
        self.cost_ratio = None
        traced = False
        while True:
            if tracer is not None:
                tracer.active = traced
            outputs = []
            start = time.perf_counter()
            for j, job in enumerate(jobs):
                if tracer is not None:
                    tracer.job = self.attempted + j
                t = time.perf_counter()
                try:
                    out, err = job.run(), None
                except Exception as exc:  # noqa: BLE001 - counted as a failed job
                    out, err = None, f"{type(exc).__name__}: {exc}"
                outputs.append((out, err, time.perf_counter() - t))
            self.wall[traced] += time.perf_counter() - start
            self.passes[traced] += 1
            if tracer is not None:
                tracer.active = False
            for job, (out, err, dt) in zip(jobs, outputs):
                if err is None:
                    try:
                        err = job.check(out)
                    except Exception as exc:  # noqa: BLE001 - a check that cannot run fails
                        err = f"check raised {type(exc).__name__}: {exc}"
                if err is not None:
                    self.errors.append(f"{job.kind}: {err}")
                if not traced:
                    self.times.append(dt)
                    self.by_kind.setdefault(job.kind, []).append(dt)
            self.attempted += len(jobs)
            if self.cost_ratio is None:
                self.cost_ratio = cost_over_lower_bound(jobs, [o for o, _, _ in outputs])
            if sum(self.wall) >= seconds and (tracer is None or traced):
                break
            traced = tracer is not None and not traced

    @property
    def jobs_per_s(self) -> float:
        return (self.attempted - len(self.errors)) / sum(self.wall)

    @property
    def tracing_overhead_ratio(self) -> float:
        """Jobs per second in traced passes over jobs per second in plain ones."""
        plain, traced = (w / n for w, n in zip(self.wall, self.passes))
        return plain / traced

    def quantile(self, q: float) -> tuple[float, int]:
        """Nearest-rank q-quantile of the job times and the number of jobs above it."""
        ordered = sorted(self.times)
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[rank - 1], len(ordered) - rank


def git_sha() -> str:
    # The ceiling keeps git from reporting a repository that merely encloses
    # an unversioned checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS loaded into this process."""
    import ctypes

    found = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return found
    libs = {ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # noqa: BLE001 - older numpy has no dict form
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS",
                                                            "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "seed": seed,
    }


def end_to_end(args, workload, setup_main: float) -> tuple[dict, Phase, dict]:
    samples = [setup_main] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
    phase = Phase(workload, args.seconds)
    tail, beyond = phase.quantile(workload.tail_q)
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "jobs_per_s": (phase.jobs_per_s, "1/s"),
        "job_p50_s": (statistics.median(phase.times), "s"),
        "job_tail_s": (tail, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    info = {
        "setup_samples_s": samples,
        "job_tail_percentile": 100 * workload.tail_q,
        "jobs": phase.attempted,
        "jobs_beyond_tail": beyond,
        "passes": sum(phase.passes),
        "timed_wall_s": sum(phase.wall),
        "failed_ratio": len(phase.errors) / phase.attempted,
        "cost_over_lower_bound": phase.cost_ratio,
    }
    return metrics, phase, info


def per_layer(args, workload) -> tuple[dict, Phase, dict]:
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    # Input generation once more under the tracer (job id -1), so the layers
    # behind setup_s show too.
    tracer.active = True
    type(workload)(args.seed, OUT).close()
    tracer.active = False
    workload.tracer = tracer
    phase = Phase(workload, args.seconds)
    calls, total, own, counts = tracer.summarize(phase.passes[1])

    metrics = {}
    for mod, fns in spans.WRAPPED.items():
        for fn in fns:
            name = f"{mod}.{fn}"
            if mod != "bounds":          # bounds calls are fixed by the sweep table
                metrics[f"{name}.calls"] = (calls[name], "count")
            metrics[f"{name}.self_s"] = (own[name], "s")
        metrics[f"{mod}.self_s"] = (sum(own[f"{mod}.{fn}"] for fn in fns), "s")
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.self_s"] = (own[f"cli.{sub}"], "s")
    metrics["cli.self_s"] = (sum(own[f"cli.{sub}"] for sub in CLI_SUBCOMMANDS), "s")

    apply_s = total["tensor.apply_circuit"]
    mc_s = total["measure.mc_sphere_cap"] + total["measure.mc_simplex_ball"]
    metrics["tensor.gate_amps"] = (counts["tensor.gate_amps"], "count")
    metrics["tensor.gate_amps_per_s"] = (counts["tensor.gate_amps"] / apply_s if apply_s else 0.0,
                                         "1/s")
    for kind in ("local", "controlled", "phase"):
        metrics[f"synthesis.gates.{kind}"] = (counts[f"synthesis.gates.{kind}"], "count")
    metrics["synthesis.cost_over_lower_bound"] = (phase.cost_ratio, "1")
    metrics["measure.mc_samples_per_s"] = (counts["measure.mc_samples"] / mc_s if mc_s else 0.0,
                                           "1/s")
    metrics["fileio.bytes_read"] = (counts["fileio.bytes_read"], "B")
    metrics["fileio.bytes_written"] = (counts["fileio.bytes_written"], "B")
    for code in (0, 1, 2):
        metrics[f"cli.exit.{code}"] = (counts[f"cli.exit.{code}"], "count")
    for name, kind in ladder():
        times = phase.by_kind.get(kind)
        metrics[name] = (statistics.median(times) if times else 0.0, "s")
    metrics["tracing.overhead_ratio"] = (phase.tracing_overhead_ratio, "1")

    mismatches = coverage_mismatches(args.workload, calls, tracer.edges())
    for text in mismatches:
        print(f"perfbench: coverage mismatch on {args.workload}: {text}", file=sys.stderr)
    metrics["tracing.coverage_mismatches"] = (len(mismatches), "count")

    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write(spans_file)
    info = {"passes_plain_traced": phase.passes, "spans": len(tracer.names),
            "spans_file": str(spans_file.relative_to(ROOT)), "coverage_mismatches": mismatches}
    return metrics, phase, info


CLI_SUBCOMMANDS = ("synth-state", "synth-unitary", "apply", "dist", "net", "mc", "bounds",
                   "advantage")


def ladder() -> list[tuple[str, str]]:
    """(metric name, job kind) of the scale ladder: median seconds per job kind."""
    from workloads import Simulate, Synth

    kinds = [("synth", f"transitive.n{n}k{k}") for n, k in Synth.TRANSITIVE]
    kinds += [("synth", f"prepare.n{n}") for n in Synth.PREPARE]
    kinds += [("simulate", f"apply.n{n}") for n in Simulate.APPLY]
    kinds += [("simulate", f"to_matrix.n{n}") for n in Simulate.MATRIX]
    return [(f"{workload}.{kind}.s", kind) for workload, kind in kinds]


def coverage_mismatches(workload: str, calls, edges) -> list[str]:
    """Compare the traced calls with perfbench/predictions.json."""
    pred = json.loads((HERE / "predictions.json").read_text())["coverage"][workload]
    out = [f"{name} recorded no span" for name in pred["called"] if calls[name] == 0]
    out += [f"{name} recorded {calls[name]} spans, predicted none"
            for name in pred["bypassed"] if calls[name] != 0]
    out += [f"no {child} span inside {parent}" for parent, child in pred["edges"]
            if (parent, child) not in edges]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = setup(args)
    try:
        setup_main = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        if args.trace:
            metrics, phase, info = per_layer(args, workload)
        else:
            metrics, phase, info = end_to_end(args, workload, setup_main)
        probes = workload.probes()
        violations = [f"{label}: {err}" for label, err in probes if err is not None]
        if args.trace:
            metrics["cli.contract_violations"] = (len(violations), "count")
    finally:
        workload.close()

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "errors": phase.errors,
        "contract_violations": violations,
        **info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for err in phase.errors[:20]:
        print(f"perfbench: failed job {err}", file=sys.stderr)
    for text in violations:
        print(f"perfbench: exit-code contract violated by {text}", file=sys.stderr)
    print("# " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": not phase.errors,
        "attempted": phase.attempted,
        "failed": len(phase.errors),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
