"""One pass of a workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py <plan.json> <pass id> [--trace FILE] [--setup-only]

Imports ``maxplus_ifs`` from ``src`` of the current directory, builds the
workload's inputs through the public calls (that and the import are the
set-up time), then runs the workload's CLI commands one after another
through ``maxplus_ifs.cli.main`` (the wall time), unless ``--setup-only``.
With ``--trace`` the pass runs under ``tracing.Tracer`` and appends its
spans to that file.  Prints one JSON object: set-up and wall seconds, peak
RSS, and each command's exit code and stdout.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback


def main(plan_path: str, pass_id: int, trace_path: str | None, setup_only: bool) -> dict:
    with open(plan_path) as fh:
        plan = json.load(fh)
    t0 = time.perf_counter()
    import maxplus_ifs  # noqa: F401  (the import is part of set-up)
    from maxplus_ifs import cli, config, measures

    src = os.path.join(os.getcwd(), "src", "")
    if not os.path.abspath(maxplus_ifs.__file__).startswith(src):
        raise SystemExit(f"maxplus_ifs imported from {maxplus_ifs.__file__}, not from {src}")
    tracer = None
    if trace_path:
        from tracing import Tracer

        tracer = Tracer(pass_id)
        tracer.install()
    phase = tracer.span if tracer else lambda name: contextlib.nullcontext()

    with phase("setup"):
        for path in plan["configs"]:
            cfg = config.parse_config(path)
            space = config.build_space(cfg)
            config.build_ifs(cfg, space)
            config.build_initial(cfg, space)
        for path in plan["densities"]:
            measures.read_density_file(path)
    t1 = time.perf_counter()
    cfg = space = None
    gc.collect()

    results = []
    w0 = time.perf_counter()
    for cmd in [] if setup_only else plan["commands"]:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(cmd["argv"])
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed command, not a failed pass
            traceback.print_exc()
            code = 1
        results.append({"code": code, "stdout": buf.getvalue()})
    w1 = time.perf_counter()

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if tracer:
        tracer.uninstall()
        tracer.write(trace_path)
    return {
        "setup_s": t1 - t0,
        "wall_s": w1 - w0,
        # ru_maxrss is in KiB on Linux; children are added so forking cannot hide memory
        "peak_rss_mb": (own + children) / 1024.0,
        "results": results,
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="one pass of a benchmark workload")
    parser.add_argument("plan")
    parser.add_argument("pass_id", type=int)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    out = main(args.plan, args.pass_id, args.trace, args.setup_only)
    sys.stdout.write(json.dumps(out) + "\n")
