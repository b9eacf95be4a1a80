"""Idempotent measures on finite spaces and the operations on them.

A measure is stored through its density: a table point -> [-inf, 0] whose
maximum is exactly 0.  Integration is sup-plus: mu(f) = max_x(lambda(x) + f(x)).
Normalization subtracts the max, which lands the top entry on an exact 0.0,
so the invariant is checked with exact float comparison throughout.
Density files are formatted in one format call.  Their point lines are
read by numpy's C text reader; only a file it refuses takes the token
route, which reads Python-only spellings and names the first bad line.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .semiring import NEG_INF
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
        if arr.max() != 0.0:  # NaN is refused, so no entry is above 0 either
            raise ValueError("density maximum must be exactly 0; use normalize()")
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
    return IdempotentMeasure(space, arr - top)  # -inf - top stays -inf


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
    """All point lines in one `%d %.17g ...` format call (`-inf` for bottom)."""
    space = mu.space
    coords = () if space.coords is None else (space.coords,)
    table = np.column_stack([np.arange(space.n_points), *coords, mu.density])
    line = " ".join(["%d"] + ["%.17g"] * (table.shape[1] - 1)) + "\n"
    text = (line * space.n_points) % tuple(table.ravel().tolist())
    with open(path, "w") as fh:
        fh.write(f"space {space.n_points}\n{text}")


def _parse_prefix(tokens: list, dtype) -> np.ndarray:
    """The tokens before the first that does not convert to dtype, by bisection."""
    try:
        return np.array(tokens, dtype=dtype)
    except (ValueError, OverflowError):
        half = len(tokens) // 2
        head = _parse_prefix(tokens[:half], dtype)
        if head.size < half or len(tokens) == 1:
            return head
        return np.concatenate([head, _parse_prefix(tokens[half:], dtype)])


def _line_error(parts: list[str], width: int, n: int, above: np.ndarray) -> str:
    """Why a point line is refused; `above` holds the valid indices before it."""
    try:
        idx = int(parts[0])
    except ValueError:
        return f"bad point index {parts[0]!r}"
    if not 0 <= idx < n:
        return f"point index {idx} out of range"
    if np.any(above == idx):
        return f"duplicate point index {idx}"
    value = np.append(_parse_prefix(parts[1:][-1:], float), np.nan)[0]
    if np.isnan(value) or value == np.inf:
        return "bad density value"
    if value > 0.0:
        return "density entries must be <= 0"
    if len(parts) != width:
        return "inconsistent coordinate columns"
    return f"bad coordinate {parts[1 + _parse_prefix(parts[1:-1], float).size]!r}"


def _c_points(lines: list[str], n: int):
    """(index, numbers) columns of the point lines by numpy's C text reader, or None.

    One np.loadtxt call reads the lines as rows (index, numbers...), its
    width set by the first non-blank line.  None whenever the reader or a
    check refuses the lines, or the reader warns (numpy < 2 parsed an index
    spelled as a float with a DeprecationWarning).
    """
    width = len(next(filter(str.split, lines), "").split())
    if width < 2 or n < 1:
        return None
    dtype = np.dtype([("i", np.intp), ("v", float, (width - 1,))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    idx, nums = table["i"], table["v"]
    bad = idx.size != n or idx.min() < 0 or idx.max() >= n or not np.all(nums[:, -1] <= 0)
    return None if bad or np.bincount(idx, minlength=n).max() > 1 else (idx, nums)


def _token_points(path, lines: list[str], n: int):
    """(index, numbers) columns of the point lines by Python's int and float.

    The route of every file that the C reader refuses: it takes the
    spellings only Python reads (1_0, non-ASCII digits) and names the
    first bad point line of a malformed file.
    """
    rows = list(map(str.split, lines))
    counts = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    body = np.flatnonzero(counts)  # point line k is rows[body[k]], file line body[k] + 2
    if body.size != n:
        raise ValueError(f"{path}: expected {n} point lines, found {body.size}")
    width = max(2, int(counts[body[0]]) if n else 2)  # index, coordinates, value
    # keep the point lines above the first with another width or a bad token
    good = int(np.argmax(np.append(counts[body] != width, True)))
    tokens = list(chain.from_iterable(rows))[: good * width]
    idx = _parse_prefix(tokens[::width], np.intp)
    del tokens[::width]
    nums = _parse_prefix(tokens, float)
    good = min(idx.size, nums.size // (width - 1))
    idx, nums = idx[:good], nums[: good * (width - 1)].reshape(good, width - 1)
    dup = np.isin(np.arange(good), np.unique(idx, return_index=True)[1], invert=True)
    first = int(np.argmax(np.append(dup | (idx < 0) | (idx >= n) | ~(nums[:, -1] <= 0), True)))
    if first < n:
        why = _line_error(rows[body[first]], width, n, idx[:first])
        raise ValueError(f"{path}:{body[first] + 2}: {why}")
    return idx, nums


def read_density_file(path, space: FiniteMetricSpace | None = None) -> IdempotentMeasure:
    """Read a density file; an error names the first bad point line.

    Blank lines are skipped; all point lines have the same columns.  With
    no space given, the coordinate columns define a Euclidean space (the
    metric is not stored, so a file without them needs the space).
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
    idx, nums = _c_points(lines[1:], n) or _token_points(path, lines[1:], n)
    order = np.empty(n, dtype=np.intp)
    order[idx] = np.arange(n)  # idx is a permutation of the points by now
    values, coords = nums[order, -1], (nums[order, :-1] if nums.shape[1] > 1 else None)
    if values.max(initial=NEG_INF) != 0.0:
        raise ValueError(f"{path}: density maximum must be exactly 0; use normalize()")
    if space is None:
        if coords is None:
            raise ValueError(f"{path}: no coordinate columns; pass the space explicitly")
        space = FiniteMetricSpace.from_coords(coords)
    elif coords is not None and space.coords is not None:
        if coords.shape != space.coords.shape or not np.allclose(
            coords, space.coords, rtol=1e-12, atol=1e-12
        ):
            raise ValueError(f"{path}: coordinates disagree with the given space")
    return IdempotentMeasure(space, values)
