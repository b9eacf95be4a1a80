"""Spans around the public functions of ``maxplus_ifs``, installed from outside.

A span is (id, name, start, end, parent, pass, counts).  Wrappers replace
each traced function at every place it is bound: module globals such as
``cli.coupling_distance`` or the ``metrics.coupling_feasible`` global that
``coupling_distance`` calls, and class attributes such as
``FiniteMetricSpace.distance_submatrix``.  ``ifs.ContractionMap`` is traced
through ``__post_init__``, which holds the table checks, ``discrete_lip``
and the certificate.  Spans stay in memory and are written as JSON lines
when the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict


def _support_pairs(args, kwargs, out):
    mu1, mu2 = args[:2]
    return {"pairs": int((mu1.density > float("-inf")).sum() * (mu2.density > float("-inf")).sum())}


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _elements(args, kwargs, out):
    return {"elements": int(out.size)}


def _iterations(args, kwargs, out):
    return {"iterations": int(out[1].iterations)}


def _series_terms(args, kwargs, out):
    return {"terms": 2 * int(out.terms) + 1}


# (span name, module, attribute, count hook).  "Class.method" is a class attribute.
TARGETS = [
    ("config.parse_config", "config", "parse_config", None),
    ("config.build_space", "config", "build_space", None),
    ("config.build_ifs", "config", "build_ifs", None),
    ("config.build_initial", "config", "build_initial", None),
    ("spaces.build_grid", "spaces", "build_grid", None),
    ("spaces.from_coords", "spaces", "FiniteMetricSpace.from_coords", None),
    ("spaces.distance_submatrix", "spaces", "FiniteMetricSpace.distance_submatrix", _elements),
    ("spaces.distances_from", "spaces", "FiniteMetricSpace.distances_from", _elements),
    ("measures.pushforward", "measures", "pushforward", None),
    ("measures.read_density_file", "measures", "read_density_file", _file_bytes),
    ("measures.write_density_file", "measures", "write_density_file", _file_bytes),
    ("ifs.snap_affine", "ifs", "snap_affine", None),
    ("ifs.ContractionMap", "ifs", "ContractionMap.__post_init__", None),
    ("ifs.markov", "ifs", "markov", None),
    ("ifs.iterate_fixed_point", "ifs", "iterate_fixed_point", _iterations),
    ("metrics.coupling_distance", "metrics", "coupling_distance", _support_pairs),
    ("metrics.coupling_feasible", "metrics", "coupling_feasible", None),
    ("metrics.series_distance", "metrics", "series_distance", _series_terms),
    ("rng.random_measure", "rng", "random_measure", None),
    ("cli.main", "cli", "main", None),
]

SPAN_NAMES = {t[0] for t in TARGETS}

# Allocation peaks are taken with tracemalloc inside these spans only.
PEAK_MEMORY = {"metrics.coupling_distance"}


class Tracer:
    """Records spans of one pass; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list[list] = []  # [id, name, start, end, parent, counts]
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> list:
        rec = [len(self.spans), name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[2] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, count):
        track_peak = name in PEAK_MEMORY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            peak = track_peak and not tracemalloc.is_tracing()
            if peak:
                tracemalloc.start()
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
                if peak:
                    rec[5] = {"peak_bytes": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
            if count is not None:
                rec[5] = {**(rec[5] or {}), **count(args, kwargs, out)}
            return out

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span that the benchmark itself opens, e.g. around set-up."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def install(self, package="maxplus_ifs"):
        modules = [m for k, m in list(sys.modules.items()) if k == package or k.startswith(package + ".")]
        for name, mod_name, attr, count in TARGETS:
            mod = sys.modules[f"{package}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                base = getattr(mod, cls_name)
                for cls in [base, *_subclasses(base)]:
                    raw = cls.__dict__.get(meth)
                    if raw is None:
                        continue
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__, count))
                    else:
                        new = self._wrap(name, raw, count)
                    self._undo.append((cls, meth, raw))
                    setattr(cls, meth, new)
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, count)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def write(self, path: str):
        with open(path, "a") as fh:
            for sid, name, start, end, parent, counts in self.spans:
                rec = {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "pass": self.pass_id}
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec) + "\n")


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def read_spans(path: str) -> dict[int, list[dict]]:
    """Spans of a JSON-lines trace file, grouped by pass id."""
    by_pass = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            by_pass[rec["pass"]].append(rec)
    return dict(by_pass)


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds and summed counts.

    Self time is a span's duration minus the durations of its direct
    children; a pass runs in one thread, so children never overlap.
    Inclusive seconds skip spans nested in a span of the same name, so
    recursion is not counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": defaultdict(float), "max": defaultdict(float)})
    for s in spans:
        dur = s["end"] - s["start"]
        agg = out[s["name"]]
        agg["calls"] += 1
        agg["self_s"] += dur - child_time[s["id"]]
        anc = s["parent"]
        while anc >= 0 and by_id[anc]["name"] != s["name"]:
            anc = by_id[anc]["parent"]
        if anc < 0:
            agg["s"] += dur
        for key, val in (s.get("counts") or {}).items():
            agg["counts"][key] += val
            agg["max"][key] = max(agg["max"][key], val)
    return dict(out)


def nested_calls(spans: list[dict], child: str, parent: str) -> int:
    """Spans named ``child`` whose direct parent is named ``parent``."""
    names = {s["id"]: s["name"] for s in spans}
    return sum(1 for s in spans if s["name"] == child and names.get(s["parent"]) == parent)
