"""Run-to-run spread of the benchmark, and the recorded baseline.

Usage (from the repository root):

    python3 perfbench/baseline.py --runs 10 [--workload W ...] [--write]
    python3 perfbench/baseline.py --record-expected

The first form runs ``run.py`` once per seed (1..runs) on each workload and
prints, for each end-to-end metric, the median of the runs and the distance
between the first and third quartile as a share of the median, the figure
the benchmark's bounds in BENCHMARK.json are set against.  With ``--write``
it also takes one traced run per workload and writes ``baseline.json``:
the machine, the end-to-end medians and spreads, and the per-layer
breakdown.  ``--record-expected`` stores the stdout of one default-seed pass
of each workload in ``expected_seed0.json``, which the gate then requires to
reappear line for line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import run
import workloads

BASELINE = os.path.join(run.HERE, "baseline.json")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["machine"] = json.loads(lines[0])["machine"]
    return out


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def record_expected() -> None:
    recorded = {}
    for name in workloads.WORKLOADS:
        workdir = os.path.relpath(os.path.join(run.WORK, f"record-{name}"))
        plan = workloads.prepare(name, run.DEFAULT_SEED, workdir)
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        rep = run.run_pass(plan_path, 0)
        recorded[name] = [workloads.normalise(r["stdout"], workdir) for r in rep["results"]]
        shutil.rmtree(workdir)
    with open(run.EXPECTED, "w") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--write", action="store_true")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()
    if args.record_expected:
        record_expected()
        return 0
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    result = {"workloads": {}}
    for name in args.workload or workloads.WORKLOADS:
        runs = [bench(name, seed, spec["run_seconds"], 0) for seed in range(1, args.runs + 1)]
        result["machine"] = runs[-1]["machine"]
        entry = {"runs": len(runs), "correct": all(r["correct"] for r in runs), "end_to_end": {}}
        for metric in spec["end_to_end"]:
            vals = [r["metrics"][metric["name"]]["value"] for r in runs]
            entry["end_to_end"][metric["name"]] = {
                "median": statistics.median(vals),
                "iqr_share": spread(vals),
                "bound": metric["bound"],
                "values": vals,
            }
            print(f"{name} {metric['name']}: median {statistics.median(vals):.4g}, "
                  f"iqr/median {spread(vals):.4f} (bound {metric['bound']})", flush=True)
        if args.write:
            traced = bench(name, 1, spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        result["workloads"][name] = entry
    if args.write:
        with open(BASELINE, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
