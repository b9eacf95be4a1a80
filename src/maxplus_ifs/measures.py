"""Idempotent measures on finite spaces and the operations on them.

A measure is stored through its density: a table point -> [-inf, 0] whose
maximum is exactly 0.  Integration is sup-plus: mu(f) = max_x(lambda(x) + f(x)).
Normalization subtracts the max, which lands the top entry on an exact 0.0,
so the invariant is checked with exact float comparison throughout.
Density files are formatted in one format call and read in one grammar,
numpy's C text reader: one np.loadtxt call reads all point lines.  A
file it refuses is bisected with the same call to name its first bad
line; spellings only Python reads (1_0, non-ASCII digits) are refused.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

import numpy as np

from .semiring import NEG_INF
from .spaces import FiniteMetricSpace


def _as_density(space: FiniteMetricSpace, values, rows: bool = False) -> np.ndarray:
    """values as a float array of one density, or of one per row if rows."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 + rows or arr.shape[-1:] != (space.n_points,):
        raise ValueError(
            f"density must have one entry per point ({space.n_points}), got {arr.shape[rows:]}"
        )
    if np.any(np.isnan(arr)) or np.any(arr == np.inf):
        raise ValueError("density entries must be in [-inf, 0]")
    return arr


def _normalized(space: FiniteMetricSpace, values, rows: bool = False) -> np.ndarray:
    """_as_density, read-only, after checking that each density tops at exactly 0."""
    arr = _as_density(space, values, rows)
    if np.any(arr.max(axis=-1) != 0.0):  # NaN is refused, so no entry is above 0 either
        raise ValueError("density maximum must be exactly 0; use normalize()")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class IdempotentMeasure:
    """Normalized density over a finite space (max entry exactly 0)."""

    space: FiniteMetricSpace
    density: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "density", _normalized(self.space, self.density))

    @classmethod
    def from_rows(cls, space: FiniteMetricSpace, table) -> list[IdempotentMeasure]:
        """One measure per row of table, checked as one array.

        The checks and their messages are those of building each row's
        measure alone; the measures hold read-only views of one copy.
        """
        out = []
        for row in _normalized(space, table, rows=True):
            mu = object.__new__(cls)
            object.__setattr__(mu, "space", space)
            object.__setattr__(mu, "density", row)
            out.append(mu)
        return out

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
    d = np.full(space.n_points, NEG_INF)
    d[space.point_indices([point], "dirac")] = 0.0
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
    space, n = mu.space, mu.space.n_points
    columns = [] if space.coords is None else list(space.coords.T)
    columns.append(mu.density)
    width = len(columns) + 1
    values = [0] * (n * width)  # row by row: the index as an int, then the floats
    values[::width] = range(n)
    for k, column in enumerate(columns, 1):
        values[k::width] = column.tolist()
    line = " ".join(["%d"] + ["%.17g"] * (width - 1)) + "\n"
    text = (line * n) % tuple(values)
    with open(path, "w") as fh:
        fh.write(f"space {space.n_points}\n{text}")


_INDEX = re.compile(r"[+-]?[0-9]+")  # numpy's integer grammar, ASCII digits only


def _loadtxt(lines: list[str], dtype):
    """np.loadtxt of the lines, or None if it refuses them or warns.

    numpy < 2 parsed an index spelled as a float with a DeprecationWarning,
    and any numpy warns on no lines at all.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None


def _line_error(parts: list[str], width: int, n: int, above: np.ndarray) -> str:
    """Why a point line is refused; `above` marks the indices of the lines before it."""
    if not _INDEX.fullmatch(parts[0]):
        return f"bad point index {parts[0]!r}"
    idx = int(parts[0])
    if not 0 <= idx < n:
        return f"point index {idx} out of range"
    if above[idx]:
        return f"duplicate point index {idx}"
    if 1 < len(parts) != width:  # a bare index has no value to count columns by
        return "inconsistent coordinate columns"
    value = _loadtxt(parts[1:][-1:], float)
    if value is None or np.isnan(value[0]) or value[0] == np.inf:
        return "bad density value"
    if value[0] > 0.0:
        return "density entries must be <= 0"
    return f"bad coordinate {next(t for t in parts[1:-1] if _loadtxt([t], float) is None)!r}"


def _rows(lines: list[str], n: int, width: int):
    """(index, numbers) columns of the point lines by one np.loadtxt call, or None
    if it refuses them, an index is out of range or repeated, or a density
    value is not <= 0."""
    table = _loadtxt(lines, np.dtype([("i", np.intp), ("v", float, (width - 1,))]))
    if table is None:
        return None
    idx, nums = table["i"], table["v"]
    bad = idx.min() < 0 or idx.max() >= n or not np.all(nums[:, -1] <= 0)
    return None if bad or np.bincount(idx).max() > 1 else (idx, nums)


def _refusal(path, lines: list[str], n: int, width: int) -> str:
    """The message for point lines that _rows refuses: the first bad line,
    found by bisection over prefixes of the point lines.  A prefix that
    extends a passing one passes if its new lines do and repeat none of
    its indices, so each step parses only the new lines."""
    body = [k for k, line in enumerate(lines) if line.split()]
    if len(body) != n:
        return f"{path}: expected {n} point lines, found {len(body)}"
    if n == 0:  # every check passes on no lines; an empty density has no maximum
        return f"{path}: density maximum must be exactly 0; use normalize()"
    points = [lines[k] for k in body]
    good, bad = 0, n  # points[:good] pass, points[:bad] fail
    above = np.zeros(n, dtype=bool)  # the indices of points[:good]
    while bad - good > 1:
        mid = (good + bad) // 2
        rows = _rows(points[good:mid], n, width)
        if rows is None or above[rows[0]].any():
            bad = mid
        else:
            good = mid
            above[rows[0]] = True
    return f"{path}:{body[good] + 2}: {_line_error(points[good].split(), width, n, above)}"


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
    head = lines[0].split()
    if len(head) < 2 or not _INDEX.fullmatch(head[1]):
        raise ValueError(f"{path}: bad space header: {lines[0]!r}")
    n = int(head[1])
    if space is not None and space.n_points != n:
        raise ValueError(f"{path}: file has {n} points, space has {space.n_points}")
    del lines[0]
    # index, coordinates, value: as many columns as the first point line, at least 2
    width = max(2, len(next(filter(str.split, lines), "").split()))
    rows = _rows(lines, n, width)
    if rows is None or rows[0].size != n:
        raise ValueError(_refusal(path, lines, n, width))
    idx, nums = rows
    order = np.empty(n, dtype=np.intp)
    order[idx] = np.arange(n)  # idx is a permutation of the points by now
    values, coords = nums[order, -1], (nums[order, :-1] if width > 2 else None)
    try:
        if space is None:
            if coords is None:
                raise ValueError("no coordinate columns; pass the space explicitly")
            space = FiniteMetricSpace.from_coords(coords)
        elif coords is not None and space.coords is not None:
            scale = 1e-12 * np.abs(space.coords).max()  # the tolerance at the space's scale
            if coords.shape != space.coords.shape or not np.allclose(
                coords, space.coords, rtol=1e-12, atol=scale
            ):
                raise ValueError("coordinates disagree with the given space")
        return IdempotentMeasure(space, values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
