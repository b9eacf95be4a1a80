"""Idempotent measures on finite spaces and the operations on them.

A measure is stored through its density: a table point -> [-inf, 0] whose
maximum is exactly 0.  Integration is sup-plus: mu(f) = max_x(lambda(x) + f(x)).
Normalization subtracts the max, which lands the top entry on an exact 0.0,
so the invariant is checked with exact float comparison throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .semiring import NEG_INF, format_scalar, parse_scalar
from .spaces import FiniteMetricSpace


def _as_density(space: FiniteMetricSpace, values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != (space.n_points,):
        raise ValueError(
            f"density must have one entry per point ({space.n_points}), got {arr.shape}"
        )
    if np.any(np.isnan(arr)) or np.any(arr == np.inf):
        raise ValueError("density entries must be in [-inf, 0]")
    return arr


@dataclass(frozen=True)
class IdempotentMeasure:
    """Normalized density over a finite space (max entry exactly 0)."""

    space: FiniteMetricSpace
    density: np.ndarray

    def __post_init__(self):
        arr = _as_density(self.space, self.density)
        if arr.max() != 0.0:
            raise ValueError("density maximum must be exactly 0; use normalize()")
        if np.any(arr > 0.0):
            raise ValueError("density entries must be <= 0")
        arr.flags.writeable = False
        object.__setattr__(self, "density", arr)

    def support(self) -> np.ndarray:
        """Indices with finite density, ascending."""
        return np.flatnonzero(self.density > NEG_INF)

    def __eq__(self, other):
        if not isinstance(other, IdempotentMeasure):
            return NotImplemented
        return self.space is other.space and np.array_equal(self.density, other.density)

    def __hash__(self):
        return hash((id(self.space), self.density.tobytes()))


@dataclass(frozen=True)
class TestFunction:
    """Finite real table on a space; stands in for C(X) on finite spaces."""

    space: FiniteMetricSpace
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.shape != (self.space.n_points,):
            raise ValueError("test function needs one value per point")
        if not np.all(np.isfinite(arr)):
            raise ValueError("test function values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def lipschitz_constant(self) -> float:
        """max over i != j of |f(i) - f(j)| / dist(i, j)."""
        best = 0.0
        for rows, d in self.space._row_blocks():
            d[np.arange(rows.size), rows] = np.inf
            ratio = self.values - self.values[rows, None]
            np.abs(ratio, out=ratio)
            ratio /= d  # in place: a block holds at most 2^18 floats
            best = max(best, float(ratio.max()))
        return best


def normalize(space: FiniteMetricSpace, raw) -> IdempotentMeasure:
    """Shift a raw table so its maximum is exactly 0.

    Rejects the all-bottom table, which is the density of no measure.
    """
    arr = _as_density(space, raw)
    top = arr.max()
    if top == NEG_INF:
        raise ValueError("cannot normalize an all--inf density")
    finite = arr > NEG_INF
    shifted = np.full_like(arr, NEG_INF)
    shifted[finite] = arr[finite] - top
    return IdempotentMeasure(space, shifted)


def dirac(space: FiniteMetricSpace, point: int) -> IdempotentMeasure:
    """Unit mass at one point: density 0 there, -inf elsewhere."""
    if not 0 <= point < space.n_points:
        raise ValueError(f"point {point} out of range")
    d = np.full(space.n_points, NEG_INF)
    d[point] = 0.0
    return IdempotentMeasure(space, d)


def uniform(space: FiniteMetricSpace) -> IdempotentMeasure:
    """Density identically 0 (the ⊕ of all Dirac measures)."""
    return IdempotentMeasure(space, np.zeros(space.n_points))


def integrate(mu: IdempotentMeasure, f: TestFunction) -> float:
    """mu(f) = max_x(lambda(x) + f(x)); finite since the density tops at 0."""
    if mu.space is not f.space:
        raise ValueError("measure and test function live on different spaces")
    return float(np.max(mu.density + f.values))


def pushforward(
    mu: IdempotentMeasure, point_map, codomain: FiniteMetricSpace
) -> IdempotentMeasure:
    """Transport along a point map: density at y is the max over the fiber.

    The output maximum equals the input maximum (every point belongs to a
    fiber), so the result is normalized without any shift.
    """
    fmap = np.asarray(point_map, dtype=int)
    if fmap.shape != (mu.space.n_points,):
        raise ValueError("point map must be total on the source space")
    if fmap.min(initial=0) < 0 or fmap.max(initial=0) >= codomain.n_points:
        raise ValueError("point map leaves the codomain")
    out = np.full(codomain.n_points, NEG_INF)
    np.maximum.at(out, fmap, mu.density)
    return IdempotentMeasure(codomain, out)


def weighted_oplus(weights, measures) -> IdempotentMeasure:
    """⊕_j weights[j] ⊙ measures[j] for normalized weights (max exactly 0)."""
    if len(measures) == 0 or len(weights) != len(measures):
        raise ValueError("need equally many weights and measures, at least one")
    w = np.asarray(weights, dtype=float)
    if w.max() != 0.0:
        raise ValueError("weights must be normalized: max weight exactly 0")
    space = measures[0].space
    if any(m.space is not space for m in measures):
        raise ValueError("all measures must share one space")
    stacked = np.stack([wj + m.density for wj, m in zip(w, measures)])
    return IdempotentMeasure(space, stacked.max(axis=0))


# ---------------------------------------------------------------------------
# density files:  "space <n>" header, then "<index> <coord...> <value|-inf>"
# ---------------------------------------------------------------------------

def write_density_file(path, mu: IdempotentMeasure) -> None:
    space = mu.space
    with open(path, "w") as fh:
        fh.write(f"space {space.n_points}\n")
        for i in range(space.n_points):
            parts = [str(i)]
            if space.coords is not None:
                parts.extend(format_scalar(c) for c in space.coords[i])
            parts.append(format_scalar(mu.density[i]))
            fh.write(" ".join(parts) + "\n")


def read_density_file(path, space: FiniteMetricSpace | None = None) -> IdempotentMeasure:
    """Read a density file.

    With no space given, the file's coordinate columns define a Euclidean
    space; files without coordinates then fail (the metric is not stored).
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("space "):
        raise ValueError(f"{path}: missing 'space <n>' header")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: bad space header: {lines[0]!r}") from exc
    if space is not None and space.n_points != n:
        raise ValueError(f"{path}: file has {n} points, space has {space.n_points}")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != n:
        raise ValueError(f"{path}: expected {n} point lines, found {len(body)}")
    values = np.full(n, NEG_INF)
    coords: list[list[float]] | None = None
    seen: set[int] = set()
    for lineno, line in enumerate(body, start=2):
        parts = line.split()
        try:
            idx = int(parts[0])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad point index {parts[0]!r}") from exc
        if not 0 <= idx < n:
            raise ValueError(f"{path}:{lineno}: point index {idx} out of range")
        if idx in seen:
            raise ValueError(f"{path}:{lineno}: duplicate point index {idx}")
        seen.add(idx)
        try:
            values[idx] = parse_scalar(parts[-1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad density value") from exc
        cols = parts[1:-1]
        if coords is None:
            coords = [[0.0] * len(cols) for _ in range(n)] if cols else None
        if cols:
            if coords is None or len(cols) != len(coords[idx]):
                raise ValueError(f"{path}:{lineno}: inconsistent coordinate columns")
            coords[idx] = [float(tok) for tok in cols]
    if space is None:
        if coords is None:
            raise ValueError(
                f"{path}: no coordinate columns; pass the space explicitly"
            )
        space = FiniteMetricSpace.from_coords(np.asarray(coords))
    elif coords is not None and space.coords is not None:
        got = np.asarray(coords)
        if got.shape != space.coords.shape or not np.allclose(
            got, space.coords, rtol=1e-12, atol=1e-12
        ):
            raise ValueError(f"{path}: coordinates disagree with the given space")
    return IdempotentMeasure(space, values)
