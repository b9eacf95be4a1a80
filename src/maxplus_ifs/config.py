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
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .ifs import ComparisonFunction, ContractionMap, MaxPlusIFS, snap_affine
from .measures import IdempotentMeasure, dirac, read_density_file, uniform
from .spaces import FiniteMetricSpace, build_grid


class ConfigError(Exception):
    """Configuration problem, with position when one is known."""


@dataclass
class RawConfig:
    path: str
    sections: dict = field(default_factory=dict)  # name -> list[(lineno, key, value)]

    def section(self, name: str) -> list[tuple[int, str, str]]:
        return self.sections.get(name, [])

    def get(self, section: str, key: str, default=None):
        hits = [v for _, k, v in self.section(section) if k == key]
        if not hits:
            return default
        return hits[-1]

    def get_all(self, section: str, key: str) -> list[tuple[int, str]]:
        return [(ln, v) for ln, k, v in self.section(section) if k == key]


def parse_config(path: str) -> RawConfig:
    cfg = RawConfig(path=path)
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
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


def _floats(cfg: RawConfig, lineno: int, text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split()]
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}:{lineno}: bad number in {text!r}") from exc


def _float(cfg: RawConfig, section: str, key: str, default: float) -> float:
    raw = cfg.get(section, key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}: [{section}] {key} = {raw!r} is not a number") from exc


def _int(cfg: RawConfig, section: str, key: str, default: int) -> int:
    raw = cfg.get(section, key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}: [{section}] {key} = {raw!r} is not an integer") from exc


def build_space(cfg: RawConfig) -> FiniteMetricSpace:
    kind = cfg.get("space", "kind")
    if kind is None:
        raise ConfigError(f"{cfg.path}: missing [space] kind")
    if kind == "grid":
        lower = cfg.get("space", "lower")
        upper = cfg.get("space", "upper")
        cells = cfg.get("space", "cells")
        if lower is None or upper is None or cells is None:
            raise ConfigError(f"{cfg.path}: grid space needs lower, upper and cells")
        try:
            return build_grid(
                [float(t) for t in lower.split()],
                [float(t) for t in upper.split()],
                [int(t) for t in cells.split()],
            )
        except ValueError as exc:
            raise ConfigError(f"{cfg.path}: [space] {exc}") from exc
    if kind == "matrix":
        n = _int(cfg, "space", "size", 0)
        rows = cfg.get_all("space", "row")
        if n < 1 or len(rows) != n:
            raise ConfigError(f"{cfg.path}: matrix space needs size = n and n row lines")
        matrix = []
        for lineno, text in rows:
            vals = _floats(cfg, lineno, text)
            if len(vals) != n:
                raise ConfigError(f"{cfg.path}:{lineno}: expected {n} distances per row")
            matrix.append(vals)
        coords = None
        coord_rows = cfg.get_all("space", "coord")
        if coord_rows:
            if len(coord_rows) != n:
                raise ConfigError(f"{cfg.path}: need one coord line per point")
            coords = [_floats(cfg, ln, text) for ln, text in coord_rows]
        try:
            return FiniteMetricSpace.from_matrix(matrix, coords=coords)
        except ValueError as exc:
            raise ConfigError(f"{cfg.path}: [space] {exc}") from exc
    raise ConfigError(f"{cfg.path}: unknown space kind {kind!r}")


def _parse_witness(cfg: RawConfig, lineno: int, text: str) -> ComparisonFunction | None:
    parts = text.split()
    if parts[0] == "none":
        return None
    if len(parts) != 2 or parts[0] not in ("linear", "rational"):
        raise ConfigError(
            f"{cfg.path}:{lineno}: witness must be 'none', 'linear <beta>' or 'rational <c>'"
        )
    try:
        return ComparisonFunction(parts[0], float(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}:{lineno}: {exc}") from exc


def build_ifs(cfg: RawConfig, space: FiniteMetricSpace, renormalize: bool = False) -> MaxPlusIFS:
    map_lines = cfg.get_all("ifs", "map")
    if not map_lines:
        raise ConfigError(f"{cfg.path}: [ifs] needs at least one map")
    witness_lines = cfg.get_all("ifs", "witness")
    if witness_lines and len(witness_lines) != len(map_lines):
        raise ConfigError(f"{cfg.path}: need one witness line per map (or none at all)")
    witnesses = [
        _parse_witness(cfg, ln, text) for ln, text in witness_lines
    ] or [None] * len(map_lines)

    dim = space.coords.shape[1] if space.coords is not None else 0
    maps = []
    for (lineno, text), witness in zip(map_lines, witnesses):
        parts = text.split()
        if parts[0] == "affine":
            if space.coords is None:
                raise ConfigError(f"{cfg.path}:{lineno}: affine maps need a coordinate space")
            vals = _floats(cfg, lineno, " ".join(parts[1:]))
            if len(vals) != dim * dim + dim:
                raise ConfigError(
                    f"{cfg.path}:{lineno}: affine map needs {dim * dim} matrix entries "
                    f"then {dim} offset entries"
                )
            a = np.array(vals[: dim * dim]).reshape(dim, dim)
            b = np.array(vals[dim * dim :])
            try:
                snapped = snap_affine(space, a, b)
            except ValueError as exc:
                raise ConfigError(f"{cfg.path}:{lineno}: {exc}") from exc
            if witness is not None:
                # verify the declared witness, keeping discrete_lip; raises CertificateError
                snapped = replace(snapped, witness=witness)
            maps.append(snapped)
        elif parts[0] == "table":
            try:
                target = [int(tok) for tok in parts[1:]]
            except ValueError as exc:
                raise ConfigError(f"{cfg.path}:{lineno}: bad point index") from exc
            if len(target) != space.n_points:
                raise ConfigError(
                    f"{cfg.path}:{lineno}: table needs {space.n_points} entries"
                )
            if any(not 0 <= t < space.n_points for t in target):
                raise ConfigError(f"{cfg.path}:{lineno}: table index out of range")
            maps.append(ContractionMap(space, np.array(target), witness=witness))
        else:
            raise ConfigError(f"{cfg.path}:{lineno}: map must be 'affine ...' or 'table ...'")

    weights_raw = cfg.get("ifs", "weights")
    if weights_raw is None:
        raise ConfigError(f"{cfg.path}: [ifs] needs weights")
    weights = np.array([float(t) for t in weights_raw.split()])
    if weights.shape != (len(maps),):
        raise ConfigError(f"{cfg.path}: need one weight per map")
    if weights.max() != 0.0:
        if renormalize:
            weights = weights - weights.max()
        else:
            raise ConfigError(
                f"{cfg.path}: weights must have max 0 (got {weights.max()}); "
                "pass --renormalize to shift them"
            )
    try:
        return MaxPlusIFS(space, tuple(maps), weights)
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}: [ifs] {exc}") from exc


def build_initial(cfg: RawConfig, space: FiniteMetricSpace) -> IdempotentMeasure:
    kind = cfg.get("initial", "kind", "uniform")
    if kind == "uniform":
        return uniform(space)
    if kind == "dirac":
        idx = _int(cfg, "initial", "index", -1)
        if not 0 <= idx < space.n_points:
            raise ConfigError(f"{cfg.path}: [initial] index {idx} out of range")
        return dirac(space, idx)
    if kind == "file":
        path = cfg.get("initial", "path")
        if path is None:
            raise ConfigError(f"{cfg.path}: [initial] kind=file needs a path")
        if not os.path.isabs(path):
            path = os.path.join(os.path.dirname(os.path.abspath(cfg.path)), path)
        try:
            return read_density_file(path, space)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{cfg.path}: [initial] {exc}") from exc
    raise ConfigError(f"{cfg.path}: unknown initial kind {kind!r}")


@dataclass
class RunParams:
    metric: str
    tol: float
    max_iter: int
    seed: int
    out: str


def run_params(cfg: RawConfig) -> RunParams:
    metric = cfg.get("run", "metric", "sup_density")
    if metric not in ("sup_density", "d1"):
        raise ConfigError(f"{cfg.path}: [run] metric must be sup_density or d1")
    tol = _float(cfg, "run", "tol", 0.0)
    if tol < 0:
        raise ConfigError(f"{cfg.path}: [run] tol must be nonnegative")
    max_iter = _int(cfg, "run", "max_iter", 1000)
    if max_iter < 1:
        raise ConfigError(f"{cfg.path}: [run] max_iter must be positive")
    seed = _int(cfg, "run", "seed", 0)
    default_out = os.path.splitext(os.path.abspath(cfg.path))[0] + ".density"
    out = cfg.get("run", "out", default_out)
    if not os.path.isabs(out):
        out = os.path.join(os.path.dirname(os.path.abspath(cfg.path)), out)
    return RunParams(metric=metric, tol=tol, max_iter=max_iter, seed=seed, out=out)


@dataclass
class MetricParams:
    alpha: float
    q: float
    tol: float


def metric_params(cfg: RawConfig) -> MetricParams:
    p = MetricParams(
        alpha=_float(cfg, "metric", "alpha", 0.5),
        q=_float(cfg, "metric", "q", 0.5),
        tol=_float(cfg, "metric", "tol", 1e-6),
    )
    if not 0 < p.alpha < 1 or not 0 < p.q < 1:
        raise ConfigError(f"{cfg.path}: [metric] alpha and q must lie in (0, 1)")
    if p.tol <= 0:
        raise ConfigError(f"{cfg.path}: [metric] tol must be positive")
    return p


@dataclass
class VerifyParams:
    pairs: int
    support_prob: float
    depth: float


def verify_params(cfg: RawConfig) -> VerifyParams:
    p = VerifyParams(
        pairs=_int(cfg, "verify", "pairs", 100),
        support_prob=_float(cfg, "verify", "support_prob", 0.7),
        depth=_float(cfg, "verify", "depth", 3.0),
    )
    if p.pairs < 1:
        raise ConfigError(f"{cfg.path}: [verify] pairs must be positive")
    if not 0 < p.support_prob <= 1:
        raise ConfigError(f"{cfg.path}: [verify] support_prob must be in (0, 1]")
    if p.depth <= 0:
        raise ConfigError(f"{cfg.path}: [verify] depth must be positive")
    return p
