"""Benchmark of the maxplus-ifs command line, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each was chosen):

* ``verify-cantor-1d``: ``verify`` on the snapped Cantor IFS, 730 points, 100 pairs;
* ``solve-metric-large``: ``solve`` on 6562 points, then ``metric d1`` on
  two 1-D (6562-point) and two 2-D (6561-point) random density files.

Load model: a closed loop with one client.  Each pass is a fresh worker
process (``worker.py``) that runs the workload's commands one after another
in process; passes repeat until ``--seconds`` is spent.  BLAS and OpenMP
run one thread, so a pass does not wait on a second, shared CPU.  Inputs come from
``--seed`` through ``workloads.py``, which does not import the package, and
every command's output goes through the gate in ``workloads.check_command``.

``--trace 0`` reports the end-to-end metrics as medians over passes:
``wall_s`` (first ``main`` call to last return), ``setup_s`` (import plus
building the inputs through the public calls) and ``peak_rss_mb`` (worker
plus children).  ``error_rate`` (failed over attempted commands) is printed
on the summary line and carried by ``failed``/``attempted``.  ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics taken
from the traced passes' spans, plus the tracing overhead on ``wall_s``.
The last stdout line is the JSON result; a failed command makes
``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, ".work")
EXPECTED = os.path.join(HERE, "expected_seed0.json")
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
DEFAULT_SEED = 0
PASS_TIMEOUT_S = 150


def machine() -> dict:
    """The hardware and software a result was measured on."""
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _first_line("/proc/cpuinfo", "model name"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
    }
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache)) if os.path.isdir(cache) else []:
        level = _first_line(os.path.join(cache, index, "level"))
        if level in ("2", "3"):
            info[f"l{level}_cache"] = _first_line(os.path.join(cache, index, "size"))
    return info


def _first_line(path: str, prefix: str = "") -> str:
    """First line of a system file that starts with ``prefix``, past any ``key:``; "unknown" if absent."""
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip()
    except OSError:
        pass
    return "unknown"


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repository."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(".git/packed-refs") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def run_pass(plan_path: str, pass_id: int, trace_path: str | None = None, setup_only=False) -> dict:
    """One worker process; returns its JSON report."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), plan_path, str(pass_id)]
    if trace_path:
        argv += ["--trace", trace_path]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.run(argv, env=_worker_env(), stdout=subprocess.PIPE, timeout=PASS_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _probes_per_d1(agg, spans):
    calls = agg["metrics.coupling_distance"]["calls"] if "metrics.coupling_distance" in agg else 0
    probes = tracing.nested_calls(spans, "metrics.coupling_feasible", "metrics.coupling_distance")
    return probes / calls if calls else 0.0


def _count(agg, span, key, reduce="counts"):
    return float(agg[span][reduce].get(key, 0.0)) if span in agg else 0.0


# Per-layer metrics that are not a plain field of one span name.
DERIVED = {
    "metrics.probes_per_d1": _probes_per_d1,
    "metrics.support_pairs": lambda agg, spans: _count(agg, "metrics.coupling_distance", "pairs"),
    "metrics.coupling_distance.peak_mb": lambda agg, spans: _count(
        agg, "metrics.coupling_distance", "peak_bytes", "max"
    ) / 2**20,
    # computed, not measured: 8 bytes per distance element the kernels produced
    "spaces.distance_bytes": lambda agg, spans: 8.0 * (
        _count(agg, "spaces.distance_submatrix", "elements")
        + _count(agg, "spaces.distances_from", "elements")
    ),
}


def layer_metrics(spans: list[dict], names) -> dict[str, float]:
    """The named per-layer metrics of one traced pass.

    A name is ``<span>.<field>``: field ``calls``, ``s`` (inclusive) or
    ``self_s``, or a count the span's hook records; see ``DERIVED`` for the
    rest.  A layer the workload never calls reads 0.
    """
    agg = tracing.summarize(spans)
    out = {}
    for name in names:
        if name in DERIVED:
            out[name] = float(DERIVED[name](agg, spans))
            continue
        span, field = name.rsplit(".", 1)
        if span not in tracing.SPAN_NAMES:
            raise KeyError(f"no span named {span!r} for metric {name!r}")
        if field in ("calls", "s", "self_s"):
            out[name] = float(agg[span][field]) if span in agg else 0.0
        else:
            out[name] = _count(agg, span, field)
    return out


def _gate(plan, rep, state, log) -> None:
    """Check one pass's outputs; count attempts and failures into ``state``."""
    for i, (cmd, res) in enumerate(zip(plan["commands"], rep["results"])):
        state["attempted"] += 1
        expected = state["expected"][i] if state["expected"] else None
        problems = workloads.check_command(cmd, res, plan["workdir"], state["first"][i], expected)
        if state["first"][i] is None:
            state["first"][i] = res["stdout"]
        if problems:
            state["failed"] += 1
            print(f"gate: {cmd['argv'][0]} failed: {'; '.join(problems)}", file=log)
    for path in plan["outputs"]:  # the next pass must write them again
        if os.path.exists(path):
            os.remove(path)


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full", log=sys.stderr) -> dict:
    """Run passes of one workload for about ``seconds``; return the result object.

    Untraced, passes repeat while another one fits in ``seconds``; the time
    left then goes to set-up-only workers, so that ``setup_s`` is a median
    of several set-ups even when a pass is long.  Traced, untraced and
    traced passes alternate, and at least one of each runs.
    """
    workdir = os.path.relpath(os.path.join(WORK, f"{name}-s{seed}-p{os.getpid()}"))
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        plan = workloads.prepare(name, seed, workdir, size)
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        state = {"attempted": 0, "failed": 0, "first": [None] * len(plan["commands"]), "expected": None}
        if seed == DEFAULT_SEED and size == "full":
            with open(EXPECTED) as fh:
                state["expected"] = json.load(fh)[name]
        trace_path = os.path.join(workdir, "trace.jsonl")

        untraced, traced, setups = [], [], []
        start = time.perf_counter()
        longest = 0.0
        while True:
            tracing_now = trace and len(untraced) > len(traced)
            pass_id = len(untraced) + len(traced)
            t = time.perf_counter()
            rep = run_pass(plan_path, pass_id, trace_path if tracing_now else None)
            longest = max(longest, time.perf_counter() - t)
            rep["pass"] = pass_id
            print(
                f"pass {pass_id}{' traced' if tracing_now else ''}: wall_s {rep['wall_s']:.4f} "
                f"setup_s {rep['setup_s']:.4f} peak_rss_mb {rep['peak_rss_mb']:.1f}",
                file=log,
            )
            (traced if tracing_now else untraced).append(rep)
            if not tracing_now:
                setups.append(rep["setup_s"])
            _gate(plan, rep, state, log)
            if (traced or not trace) and time.perf_counter() - start + longest > seconds:
                break
        longest = min(setups) + 0.5  # first guess at a set-up-only worker's duration
        while not trace and time.perf_counter() - start + longest <= seconds:
            t = time.perf_counter()
            setups.append(run_pass(plan_path, len(setups), setup_only=True)["setup_s"])
            longest = max(longest, time.perf_counter() - t)

        wall = statistics.median(p["wall_s"] for p in untraced)
        if trace:
            names = [m["name"] for m in SPEC["per_layer"] if m["name"] != "trace.overhead_s"]
            spans = tracing.read_spans(trace_path)
            per_pass = [layer_metrics(spans[p["pass"]], names) for p in traced]
            metrics = {k: statistics.median(m[k] for m in per_pass) for k in names}
            metrics["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - wall
            shutil.copyfile(trace_path, os.path.join(WORK, f"trace-{name}-s{seed}.jsonl"))
        else:
            metrics = {
                "wall_s": wall,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "passes": len(untraced) + len(traced),
        "setups": len(setups),
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "maxplus_ifs", "cli.py")):
        print("error: run from the repository root; src/maxplus_ifs is missing", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    print(json.dumps({"machine": machine(), "workload": args.workload, "seed": args.seed,
                      "passes": res["passes"], "setups": res["setups"]}))
    summary = [] if args.trace else [f"{k} {v:.6g} {units[k]}" for k, v in res["metrics"].items()]
    error_rate = res["failed"] / res["attempted"]
    summary.append(f"error_rate {error_rate:.6g} ratio ({res['failed']}/{res['attempted']} commands)")
    print("; ".join(summary))
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
