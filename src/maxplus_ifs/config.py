"""Experiment configuration files.

Flat sectioned text: `[section]` headers and `key = value` lines, `#`
comments, repeated keys where order matters (map / witness / row).  Parsed
by hand so errors carry line numbers and the format stays dependency-free
and diff-friendly.

Sections:

  [space]    kind = grid | matrix; grid: lower/upper/cells (whitespace
             vectors); matrix: size plus one `row = ...` per point.
  [ifs]      one `map = affine <A row-major> <b>` or `map = table <i...>`
             per map; `weights = q1 q2 ...`; optional one `witness =
             none | linear <beta> | rational <c>` per map.
  [initial]  kind = uniform | dirac | file (+ index/path).
  [run]      metric = sup_density | d1; tol; max_iter; seed; out.
  [metric]   alpha; q; tol  (series metric parameters for verify).
  [verify]   pairs; support_prob; depth.

This module only parses.  Each value is converted where it is read, and a
failed conversion names `path:lineno: [section] key = 'raw'`.  The library
object built from the values judges them (the space, `ContractionMap`,
`MaxPlusIFS`, `dirac`, `SeriesParams`), and `reported` turns its
`ValueError` or `OSError` into a `ConfigError` with the position; a
`CertificateError` passes through.  Only `[run]` and `[verify]`, which no
library object owns, are checked here, in a form that also refuses NaN.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field

import numpy as np

from .ifs import CertificateError, ComparisonFunction, ContractionMap, MaxPlusIFS, snap_affine
from .measures import IdempotentMeasure, dirac, read_density_file, uniform
from .metrics import SeriesParams
from .spaces import FiniteMetricSpace, build_grid


class ConfigError(Exception):
    """Configuration problem, with position when one is known."""


@contextlib.contextmanager
def reported(where: str | None = None):
    """Re-raise a ValueError or OSError as a ConfigError prefixed by `where`.

    A CertificateError (a ValueError) passes through unchanged.
    """
    try:
        yield
    except CertificateError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from exc


@dataclass
class RawConfig:
    path: str
    sections: dict = field(default_factory=dict)  # name -> list[(lineno, key, value)]

    def _lines(self, section: str, key: str) -> list[tuple[int, str]]:
        return [(ln, raw) for ln, k, raw in self.sections.get(section, []) if k == key]

    def _convert(self, section: str, key: str, lineno: int, raw: str, convert):
        with reported(f"{self.path}:{lineno}: [{section}] {key} = {raw!r}"):
            return convert(raw)

    def read(self, section: str, key: str, convert=str, default=None):
        """The last value of key in section through convert; default when absent."""
        hits = self._lines(section, key)
        return self._convert(section, key, *hits[-1], convert) if hits else default

    def read_all(self, section: str, key: str, convert=str) -> list:
        """Every value of a repeated key, in file order, through convert."""
        return [self._convert(section, key, *hit, convert) for hit in self._lines(section, key)]


def _each(convert):
    """Converter of a whitespace-separated list."""
    return lambda text: [convert(tok) for tok in text.split()]


def parse_config(path: str) -> RawConfig:
    cfg = RawConfig(path=path)
    with reported(path):
        with open(path) as fh:
            lines = fh.read().splitlines()
    current = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"{path}:{lineno}: empty section name")
            cfg.sections.setdefault(current, [])
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        cfg.sections[current].append((lineno, key.strip(), value.strip()))
    return cfg


def build_space(cfg: RawConfig) -> FiniteMetricSpace:
    kind = cfg.read("space", "kind")
    if kind is None:
        raise ConfigError(f"{cfg.path}: missing [space] kind")
    if kind == "grid":
        lower = cfg.read("space", "lower", _each(float))
        upper = cfg.read("space", "upper", _each(float))
        cells = cfg.read("space", "cells", _each(int))
        if lower is None or upper is None or cells is None:
            raise ConfigError(f"{cfg.path}: grid space needs lower, upper and cells")
        with reported(f"{cfg.path}: [space]"):
            return build_grid(lower, upper, cells)
    if kind == "matrix":
        n = cfg.read("space", "size", int, 0)

        def row(text):
            vals = [float(tok) for tok in text.split()]
            if len(vals) != n:
                raise ValueError(f"expected {n} distances per row")
            return vals

        matrix = cfg.read_all("space", "row", row)
        if n < 1 or len(matrix) != n:
            raise ConfigError(f"{cfg.path}: matrix space needs size = n and n row lines")
        coords = cfg.read_all("space", "coord", _each(float)) or None
        if coords is not None and len(coords) != n:
            raise ConfigError(f"{cfg.path}: need one coord line per point")
        with reported(f"{cfg.path}: [space]"):
            return FiniteMetricSpace.from_matrix(matrix, coords=coords)
    raise ConfigError(f"{cfg.path}: unknown space kind {kind!r}")


def _witness(text: str) -> ComparisonFunction | None:
    kind, *params = text.split() or [""]
    if kind == "none":
        return None
    if len(params) != 1:
        raise ValueError("witness must be 'none', 'linear <beta>' or 'rational <c>'")
    return ComparisonFunction(kind, float(params[0]))


def _map(space: FiniteMetricSpace, text: str, witness) -> ContractionMap:
    kind, *tokens = text.split() or [""]
    if kind == "table":
        return ContractionMap(space, np.array([int(tok) for tok in tokens], dtype=int), witness)
    if kind != "affine":
        raise ValueError("map must be 'affine ...' or 'table ...'")
    if space.coords is None:
        raise ValueError("affine maps need a coordinate space")
    vals = [float(tok) for tok in tokens]
    dim = space.coords.shape[1]
    if len(vals) != dim * dim + dim:
        raise ValueError(f"affine map needs {dim * dim} matrix entries then {dim} offset entries")
    return snap_affine(space, np.reshape(vals[: dim * dim], (dim, dim)), vals[dim * dim :], witness)


def build_ifs(cfg: RawConfig, space: FiniteMetricSpace, renormalize: bool = False) -> MaxPlusIFS:
    n_maps = len(cfg.read_all("ifs", "map"))
    if not n_maps:
        raise ConfigError(f"{cfg.path}: [ifs] needs at least one map")
    witnesses = cfg.read_all("ifs", "witness", _witness) or [None] * n_maps
    if len(witnesses) != n_maps:
        raise ConfigError(f"{cfg.path}: need one witness line per map (or none at all)")
    witness = iter(witnesses)
    maps = cfg.read_all("ifs", "map", lambda text: _map(space, text, next(witness)))
    weights = cfg.read("ifs", "weights", _each(float))
    if weights is None:
        raise ConfigError(f"{cfg.path}: [ifs] needs weights")
    top = max(weights, default=-np.inf)
    if renormalize and np.isfinite(top):
        weights = np.subtract(weights, top)
    with reported(f"{cfg.path}: [ifs]" + ("" if renormalize else " (no --renormalize)")):
        return MaxPlusIFS(space, tuple(maps), weights)


def build_initial(cfg: RawConfig, space: FiniteMetricSpace) -> IdempotentMeasure:
    kind = cfg.read("initial", "kind", default="uniform")
    if kind == "uniform":
        return uniform(space)
    if kind == "dirac":
        index = cfg.read("initial", "index", int, -1)
        with reported(f"{cfg.path}: [initial] index"):
            return dirac(space, index)
    if kind == "file":
        path = cfg.read("initial", "path")
        if path is None:
            raise ConfigError(f"{cfg.path}: [initial] kind=file needs a path")
        path = os.path.join(os.path.dirname(os.path.abspath(cfg.path)), path)  # unless absolute
        with reported(f"{cfg.path}: [initial]"):
            return read_density_file(path, space)
    raise ConfigError(f"{cfg.path}: unknown initial kind {kind!r}")


@dataclass
class RunParams:
    metric: str
    tol: float
    max_iter: int
    seed: int
    out: str


def run_params(cfg: RawConfig) -> RunParams:
    metric = cfg.read("run", "metric", default="sup_density")
    if metric not in ("sup_density", "d1"):
        raise ConfigError(f"{cfg.path}: [run] metric must be sup_density or d1")
    tol = cfg.read("run", "tol", float, 0.0)
    if not tol >= 0:
        raise ConfigError(f"{cfg.path}: [run] tol must be nonnegative")
    max_iter = cfg.read("run", "max_iter", int, 1000)
    if max_iter < 1:
        raise ConfigError(f"{cfg.path}: [run] max_iter must be positive")
    seed = cfg.read("run", "seed", int, 0)
    here = os.path.abspath(cfg.path)
    out = cfg.read("run", "out", default=os.path.splitext(here)[0] + ".density")
    out = os.path.join(os.path.dirname(here), out)  # unless absolute
    return RunParams(metric=metric, tol=tol, max_iter=max_iter, seed=seed, out=out)


def metric_params(cfg: RawConfig) -> SeriesParams:
    alpha = cfg.read("metric", "alpha", float, 0.5)
    q = cfg.read("metric", "q", float, 0.5)
    tol = cfg.read("metric", "tol", float, 1e-6)
    with reported(f"{cfg.path}: [metric]"):
        return SeriesParams(alpha, q, tol)


@dataclass
class VerifyParams:
    pairs: int
    support_prob: float
    depth: float


def verify_params(cfg: RawConfig) -> VerifyParams:
    p = VerifyParams(
        pairs=cfg.read("verify", "pairs", int, 100),
        support_prob=cfg.read("verify", "support_prob", float, 0.7),
        depth=cfg.read("verify", "depth", float, 3.0),
    )
    if p.pairs < 1:
        raise ConfigError(f"{cfg.path}: [verify] pairs must be positive")
    if not 0 < p.support_prob <= 1:
        raise ConfigError(f"{cfg.path}: [verify] support_prob must be in (0, 1]")
    if not 0 < p.depth < np.inf:
        raise ConfigError(f"{cfg.path}: [verify] depth must be positive and finite")
    return p
