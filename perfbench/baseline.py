"""Record every metric of every workload into perfbench/baseline.json.

    python3 perfbench/baseline.py

Runs perfbench/run.py with seed 1 for BENCHMARK.json's run_seconds, once per
workload with --trace 0 (end-to-end metrics) and once with --trace 1
(per-layer metrics), one at a time, and prints the scale ladder: median
seconds per job for state preparation, transitive synthesis, apply and
to-matrix, and Monte-Carlo samples per second.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("synth", "simulate", "cli")
SEED = 1
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2][2:])
    return result


def main() -> int:
    baseline = {"seed": SEED, "seconds": SECONDS, "workloads": {}}
    for workload in WORKLOADS:
        plain = run(workload, 0)
        traced = run(workload, 1)
        baseline["environment"] = plain["record"]["environment"]
        baseline["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "job_tail_percentile": plain["record"]["job_tail_percentile"],
            "jobs_beyond_tail": plain["record"]["jobs_beyond_tail"],
            "failed_ratio": plain["record"]["failed_ratio"],
            "contract_violations": plain["record"]["contract_violations"],
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")

    ladder = {}
    for data in baseline["workloads"].values():
        for name, value in data["per_layer"].items():
            if name.startswith(("synth.", "simulate.")) and value:
                ladder[name] = value
    ladder["measure.mc_samples_per_s"] = \
        baseline["workloads"]["cli"]["per_layer"]["measure.mc_samples_per_s"]
    for name, value in ladder.items():
        print(f"{name:32s} {value:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
