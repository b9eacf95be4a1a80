"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root:  python3 -m pytest -q perfbench/selftest.py
(The file name keeps it out of the package's own test collection.)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_pass_of_each_workload(name, tmp_path):
    res = run.measure(name, seed=3, seconds=0, trace=False, size="tiny")
    assert res["failed"] == 0
    assert res["attempted"] == len(workloads.prepare(name, 3, str(tmp_path), "tiny")["commands"])
    assert [m["name"] for m in _spec()["end_to_end"]] == list(res["metrics"])
    assert all(v > 0 for v in res["metrics"].values())


def _corrupt_d1(real):
    def fake(*args, **kwargs):
        rep = real(*args, **kwargs)
        for r in rep["results"]:
            text = r["stdout"].strip()
            try:
                float(text)  # only the metric commands print a bare number
            except ValueError:
                continue
            r["stdout"] = text[:-1] + str((int(text[-1]) + 1) % 10) + "\n"
        return rep

    return fake


def test_gate_counts_a_d1_off_in_the_last_digit(monkeypatch):
    monkeypatch.setattr(run, "run_pass", _corrupt_d1(run.run_pass))
    res = run.measure("solve-metric-large", seed=4, seconds=0, trace=False, size="tiny")
    assert res["attempted"] == 3
    assert res["failed"] == 2  # both metric commands; solve is untouched


def test_gate_rejects_fail_lines_and_wrong_densities(tmp_path):
    plan = workloads.prepare("verify-cantor-1d", 5, str(tmp_path / "v"), "tiny")
    good = "verify: x\ncheck d1: max ratio 0.3 PASS\ncheck dtilde(alpha=1): PASS\nverify: PASS\n"
    cmd = plan["commands"][0]
    assert workloads.check_command(cmd, {"code": 0, "stdout": good}, plan["workdir"], None, None) == []
    bad = good.replace("0.3 PASS", "0.3 FAIL")
    assert workloads.check_command(cmd, {"code": 0, "stdout": bad}, plan["workdir"], None, None)
    assert workloads.check_command(cmd, {"code": 5, "stdout": good}, plan["workdir"], None, None)
    assert workloads.check_command(cmd, {"code": 0, "stdout": good}, plan["workdir"], good + "x", None)
    # recorded default-seed lines must reappear in order
    assert workloads.check_command(cmd, {"code": 0, "stdout": good}, plan["workdir"], None, ["verify: PASS", "verify: x"])

    plan = workloads.prepare("solve-metric-large", 5, str(tmp_path / "s"), "tiny")
    cmd = plan["commands"][0]
    chk = cmd["check"]
    support = " ".join(map(str, chk["support"]))
    out = f"exact fixed point: yes\nsupport ({len(chk['support'])} points): {support}\n"
    coords = workloads.grid_coords([len(chk["density"]) - 1])
    dens = np.array([float(v) for v in chk["density"]])
    workloads.write_density(chk["density_file"], coords, dens)
    assert workloads.check_command(cmd, {"code": 0, "stdout": out}, plan["workdir"], None, None) == []
    dens[chk["support"][-1]] = -0.5
    workloads.write_density(chk["density_file"], coords, dens)
    assert workloads.check_command(cmd, {"code": 0, "stdout": out}, plan["workdir"], None, None)


def test_trace_spans_nest_and_self_times_are_nonnegative():
    res = run.measure("solve-metric-large", seed=6, seconds=0, trace=True, size="tiny")
    assert res["failed"] == 0
    assert [m["name"] for m in _spec()["per_layer"]] == list(res["metrics"])
    m = res["metrics"]
    assert m["metrics.coupling_feasible.calls"] > 0 and m["metrics.probes_per_d1"] > 0
    # set-up reads all four density files without a space; each metric command
    # builds the space from its first file and reuses it for the second
    assert m["spaces.from_coords.calls"] == 4 + 2
    by_pass = tracing.read_spans(os.path.join(run.WORK, "trace-solve-metric-large-s6.jsonl"))
    assert by_pass
    for spans in by_pass.values():
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            assert s["end"] >= s["start"]
            if s["parent"] >= 0:
                parent = by_id[s["parent"]]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
        for agg in tracing.summarize(spans).values():
            assert agg["self_s"] >= 0.0
            assert agg["s"] >= agg["self_s"] - 1e-12


def test_tracer_restores_every_binding():
    import maxplus_ifs.cli as cli
    import maxplus_ifs.metrics as metrics
    from maxplus_ifs.spaces import FiniteMetricSpace

    before = (cli.coupling_distance, metrics.coupling_feasible, FiniteMetricSpace.__dict__["from_coords"])
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.coupling_distance is metrics.coupling_distance is not before[0]
    assert metrics.coupling_feasible is not before[1]
    tracer.uninstall()
    assert (cli.coupling_distance, metrics.coupling_feasible, FiniteMetricSpace.__dict__["from_coords"]) == before


def test_fails_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-cantor-1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
