"""Finite metric spaces: explicit distance matrices, Euclidean grids, products.

Points are identified by index 0..n-1; coordinates, when present, are
metadata used for distance evaluation, snapping and rendering.  Explicit
matrices are validated eagerly (every downstream contraction statement
presupposes an actual metric), and so are Euclidean coordinates (finite,
nonzero distances between distinct points).  Grid spaces keep only
coordinates and evaluate Euclidean distances on demand, so 10^4-point grids
never allocate an n^2 matrix.

A space implements one distance routine, `distance_submatrix(rows, cols)`;
`dist` and the full matrix are read through it, and every fixed-width
sweep reads it through `_row_blocks(rows, cols)`, in row blocks of at most
2^18 distances: the all-pairs checks (a map's Lipschitz constant with its
certificate, a point set's diameter) against all points, or those left,
and a coupling's largest support distance against its support's columns.
The Hausdorff distance of point sets is d1 of their indicators, in
`metrics`.

On the line (1-D Euclidean coordinates) distances are the exact |x - y|,
and the space sorts its points once, into the read-only `order` that the
coincidence check and every 1-D route of `ifs`, `metrics` and `cli` read.
The coincidence check is numpy in any dimension; scipy is imported only by
`_euclidean_table` off the line, for `cdist`.
"""

from __future__ import annotations

import numpy as np

# Full distance matrices are materialized (and cached) only below this size.
_DENSE_LIMIT = 2048
# The package's two memory budgets, read from here at each call: entries per table
# block or chunk (the all-pairs sweeps take rows = this // n, at least 1), and entries
# (64 KB, under glibc's 128 KB mmap threshold) of an array made anew inside a loop.
_BLOCK_ELEMS = 1 << 18
_FRESH_ELEMS = 1 << 13


class FiniteMetricSpace:
    """Finite point set with a metric.

    Backed by an explicit validated distance matrix, by a real-coordinate
    embedding with the Euclidean metric, or (a subclass passing n_points)
    by the subclass's own `distance_submatrix`.  Coordinates beside a
    matrix or n_points are metadata.
    """

    def __init__(self, *, matrix=None, coords=None, n_points=None, validate: bool = True):
        if matrix is None and coords is None and n_points is None:
            raise ValueError("need a distance matrix or point coordinates")
        self._matrix = None  # the explicit metric
        self._dense = None  # the full distance table, once distance_matrix() built it
        self.coords = None
        self.order = None  # on the line: the stable argsort of the coordinate, read-only
        # the metric is the Euclidean distance of coords (not an explicit matrix)
        self.euclidean = matrix is None and n_points is None
        self.grid_lower = None
        self.grid_upper = None
        self.grid_cells = None
        if coords is not None:
            coords = np.array(coords, dtype=float)  # a copy: the caller's array stays writable
            if coords.ndim == 1:
                coords = coords[:, None]
            if coords.ndim != 2 or coords.shape[0] < 1:
                raise ValueError("coords must be a nonempty (n, dim) array")
            if not np.all(np.isfinite(coords)):
                raise ValueError("coordinates must be finite")
            self.coords = coords
            self.coords.flags.writeable = False
            if self.line:
                self.order = np.argsort(coords[:, 0], kind="stable")
                self.order.flags.writeable = False
            if self.euclidean and validate:
                _validate_coords(coords, self.order)
        if matrix is not None:
            matrix = np.array(matrix, dtype=float)  # a copy, as for coords
            if validate:
                _validate_metric(matrix)
            self._matrix = self._dense = matrix
            self._matrix.flags.writeable = False
            if coords is not None and coords.shape[0] != matrix.shape[0]:
                raise ValueError("coords and matrix disagree on point count")
        if n_points is None:
            n_points = (matrix if matrix is not None else coords).shape[0]
        self.n_points = n_points
        self._diameter = None

    @classmethod
    def from_matrix(cls, matrix, coords=None) -> "FiniteMetricSpace":
        """Explicit space; validates symmetry, identity and the triangle inequality."""
        return cls(matrix=matrix, coords=coords)

    @classmethod
    def from_coords(cls, coords) -> "FiniteMetricSpace":
        """Euclidean space on the given points; distinct points required."""
        return cls(coords=coords)

    @property
    def line(self) -> bool:
        """Euclidean on one coordinate axis, where distances are |x - y|."""
        return self.euclidean and self.coords.shape[1] == 1

    def point_indices(self, points, caller: str) -> np.ndarray:
        """The point indices in an iterable, as intp; ValueError naming the caller unless each
        is an integer, not a bool, in [0, n_points): numpy would wrap, truncate or mask."""
        entries = points if isinstance(points, np.ndarray) else list(points)
        idx = np.asarray(entries)
        if idx.dtype.kind not in "iu":
            for p in np.asarray(entries, dtype=object).ravel():  # each keeps its own type
                if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
                    raise ValueError(f"{caller}: point index {p!r} is not an integer")
        outside = np.asarray((idx < 0) | (idx >= self.n_points), dtype=bool)
        if outside.any():
            raise ValueError(
                f"{caller}: point index {idx[outside][0]} is out of range "
                f"for a space of {self.n_points} points"
            )
        return idx.astype(np.intp, copy=False)

    def dist(self, i: int, j: int) -> float:
        return float(self.distance_submatrix([i], [j])[0, 0])

    def distance_submatrix(self, rows, cols) -> np.ndarray:
        """Distances between two index sets, without a full n^2 matrix."""
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        if self._matrix is not None:
            m, step = self._matrix, max(1, _BLOCK_ELEMS // self.n_points)
            if 3 * cols.size < self.n_points:  # few columns: gather them alone
                return m[np.ix_(rows, cols)]
            if rows.size <= step:  # whole rows first, inside the block budget
                return m[rows][:, cols]
            out = np.empty((rows.size, cols.size))
            for i in range(0, rows.size, step):
                out[i : i + step] = m[rows[i : i + step]][:, cols]
            return out
        return _euclidean_table(self.coords[rows], self.coords[cols])

    def distance_matrix(self) -> np.ndarray:
        """Full matrix, cached; refuses on spaces above the dense limit."""
        if self._dense is None:
            if self.n_points > _DENSE_LIMIT:
                raise ValueError(
                    f"space has {self.n_points} points; dense matrix limited "
                    f"to {_DENSE_LIMIT}"
                )
            idx = np.arange(self.n_points)
            m = self.distance_submatrix(idx, idx)
            m.flags.writeable = False
            self._dense = m
        return self._dense

    def _row_blocks(self, rows=None, cols=None):
        """Yield (block, distance_submatrix(block, cols)) over blocks of the rows.

        rows and cols are index arrays, all points by default; a block holds
        at most _BLOCK_ELEMS distances (one row at least) and is a fresh
        array that the caller may overwrite.
        """
        idx = np.arange(self.n_points)
        rows, cols = (idx if rows is None else rows), (idx if cols is None else cols)
        step = max(1, _BLOCK_ELEMS // cols.size)
        for start in range(0, rows.size, step):
            block = rows[start : start + step]
            yield block, self.distance_submatrix(block, cols)

    def diameter(self) -> float:
        """The largest distance, equal to the largest entry of the distance table.

        On the line the span of the sorted coordinates (rounding is
        monotone, so no pair's computed gap is larger).  Off the line, grids
        included, Euclidean points whose farthest corner of the bounding box
        lies nearer than a distance already realized by the extreme points
        along the axes can end no largest pair; the points left are swept
        against each other, in row blocks.  A stored matrix gives its maximum.
        """
        if self._diameter is None and self.line:
            x = self.coords[:, 0]
            self._diameter = float(x[self.order[-1]] - x[self.order[0]])
        elif self._diameter is None and self._matrix is not None:
            self._diameter = float(self._matrix.max())
        elif self._diameter is None:
            keep = None
            if self.euclidean:
                c = self.coords
                ends = np.concatenate([c.argmin(axis=0), c.argmax(axis=0)])
                low = float(self.distance_submatrix(ends, ends).max())
                far = np.maximum(c - c.min(axis=0), c.max(axis=0) - c)
                reach = np.sqrt(np.sum(far * far, axis=1))
                # the margin covers rounding; squares stay normal between 2^-400 and 2^400
                keep = np.flatnonzero(reach >= low * (1.0 - 2.0**-40))
                if not 2.0**-400 < low < 2.0**400:
                    keep = None
            self._diameter = max(float(d.max()) for _, d in self._row_blocks(keep, keep))
        return self._diameter

    def is_grid(self) -> bool:
        return self.grid_cells is not None

    def __repr__(self):
        kind = "grid" if self.is_grid() else ("coords" if self._matrix is None else "matrix")
        return f"FiniteMetricSpace(n={self.n_points}, kind={kind})"


def _euclidean_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of two (n, dim) coordinate arrays.

    On the line the exact |x - y|, in place; it equals `cdist` bit for bit
    wherever the squared gap is a normal float (gaps above about 1.5e-154).
    """
    if a.shape[1] == 1:
        d = np.subtract.outer(a[:, 0], b[:, 0])
        return np.abs(d, out=d)
    from scipy.spatial.distance import cdist

    return cdist(a, b)


def _coincident_pair(coords: np.ndarray, order) -> tuple[int, int] | None:
    """Least pair i < j whose computed squared distance is 0, or None.

    Such a pair has a zero squared gap on every axis, and rounding is
    monotone, so every point sorted between them on an axis has zero
    squared gaps to both there.  The pair thus shares a run of zero squared
    gaps on axis 0, then, sorted inside that run, on axis 1, and so on;
    a point left alone in a run has no twin.  Of the points left, the least
    index with a twin in its final run is i (its twins all exceed it), and
    j is its least twin.  On the line the point order sorts axis 0 and the
    first point left has a twin.
    """
    idx = np.argsort(coords[:, 0], kind="stable") if order is None else order
    run = np.zeros(idx.size, dtype=np.intp)
    for k in range(coords.shape[1]):
        if k:
            by = np.lexsort((coords[idx, k], run))
            idx, run = idx[by], run[by]
        gap = np.diff(coords[idx, k])
        join = (gap * gap == 0.0) & (run[1:] == run[:-1])
        keep = np.zeros(idx.size, dtype=bool)
        keep[1:] = join
        keep[:-1] |= join
        run = np.cumsum(np.concatenate(([0], ~join)))
        idx, run = idx[keep], run[keep]
        if not idx.size:
            return None
    for t in np.argsort(idx, kind="stable"):
        members = idx[np.searchsorted(run, run[t]) : np.searchsorted(run, run[t], "right")]
        off = coords[members] - coords[idx[t]]
        twins = members[(off * off == 0.0).all(axis=1)]
        if twins.size > 1:
            return int(idx[t]), int(twins[twins != idx[t]].min())
    return None


def _validate_coords(coords: np.ndarray, order) -> None:
    """Euclidean distances must be finite, and positive between distinct points.

    The squared span bounds every squared distance, so a finite one rules
    out overflow.  `_coincident_pair` finds exactly the pairs at computed
    squared distance 0: repeated points, and points whose squared offset
    underflows (gaps below about 1.6e-162).
    """
    with np.errstate(over="ignore"):
        span = np.ptp(coords, axis=0)
        overflows = not np.isfinite(span @ span)
    shown = " x ".join(f"{s:.6g}" for s in span)
    if overflows:
        raise ValueError(f"coordinate span {shown} overflows when squared; rescale the points")
    pair = _coincident_pair(coords, order)
    if pair is not None:
        i, j = pair
        raise ValueError(
            f"points {i} and {j} coincide (computed distance 0 within coordinate span {shown})"
        )


def _validate_metric(matrix: np.ndarray) -> None:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("distance matrix must be square")
    n = matrix.shape[0]
    if n < 1:
        raise ValueError("a metric space needs at least one point")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("distances must be finite")
    if np.any(np.diagonal(matrix) != 0.0):
        raise ValueError("dist(i, i) must be 0")
    if not np.array_equal(matrix, matrix.T):
        raise ValueError("distance matrix must be symmetric")
    off = matrix + np.eye(n)
    if np.any(off <= 0.0):
        i, j = np.argwhere((off <= 0.0))[0]
        raise ValueError(f"dist({i}, {j}) must be positive for distinct points")
    # tiny relative slack so genuine float metrics are not rejected by round-off
    tol = 1e-12 * float(matrix.max(initial=1.0))
    for k in range(n):
        slack = matrix[:, k, None] + matrix[None, k, :] - matrix
        if np.any(slack < -tol):
            i, j = np.argwhere(slack < -tol)[0]
            raise ValueError(
                f"triangle inequality fails: d({i},{j}) > d({i},{k}) + d({k},{j})"
            )


def build_grid(lower, upper, cells_per_axis) -> FiniteMetricSpace:
    """Uniform Euclidean grid over a box, both endpoints included per axis.

    cells_per_axis counts cells, so each axis carries cells+1 points.  Point
    order is row-major in the axis indices (first axis slowest).
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    cells = np.atleast_1d(np.asarray(cells_per_axis, dtype=int))
    if not (lower.shape == upper.shape == cells.shape) or lower.ndim != 1:
        raise ValueError("lower, upper and cells_per_axis must share one dimension")
    if np.any(cells < 1):
        raise ValueError("need at least one cell per axis")
    if not np.all(np.isfinite(lower) & np.isfinite(upper)):
        raise ValueError("grid bounds must be finite")
    if np.any(lower >= upper):
        raise ValueError("lower bound must be strictly below upper bound")
    with np.errstate(over="ignore"):
        span = upper - lower
    if not np.all(np.isfinite(span)):
        k = int(np.argmin(np.isfinite(span)))
        raise ValueError(
            f"grid span {upper[k]:.6g} - ({lower[k]:.6g}) overflows on axis {k}; rescale the grid"
        )
    axes = [np.linspace(lo, hi, c + 1) for lo, hi, c in zip(lower, upper, cells)]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)
    space = FiniteMetricSpace(coords=coords)
    space.grid_lower = lower
    space.grid_upper = upper
    space.grid_cells = cells
    return space


class ProductSpace(FiniteMetricSpace):
    """Product of two spaces under the maximum metric.

    Pair (i, j) gets index i * right.n_points + j.  The coordinate
    projections are exposed as index maps for pushforwards.
    """

    def __init__(self, left: FiniteMetricSpace, right: FiniteMetricSpace):
        self.left = left
        self.right = right
        coords = None
        if left.coords is not None and right.coords is not None:
            il, ir = np.divmod(np.arange(left.n_points * right.n_points), right.n_points)
            coords = np.hstack([left.coords[il], right.coords[ir]])
        # the max metric of two metrics is a metric; the methods below evaluate it
        super().__init__(coords=coords, n_points=left.n_points * right.n_points)

    def pair_index(self, i: int, j: int) -> int:
        return i * self.right.n_points + j

    def unpair(self, k: int) -> tuple[int, int]:
        return divmod(k, self.right.n_points)

    @property
    def proj_left(self) -> np.ndarray:
        """Index map (x, y) -> x."""
        return np.repeat(np.arange(self.left.n_points), self.right.n_points)

    @property
    def proj_right(self) -> np.ndarray:
        """Index map (x, y) -> y."""
        return np.tile(np.arange(self.right.n_points), self.left.n_points)

    def distance_submatrix(self, rows, cols) -> np.ndarray:
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        rl, rr = np.divmod(rows, self.right.n_points)
        cl, cr = np.divmod(cols, self.right.n_points)
        return np.maximum(
            self.left.distance_submatrix(rl, cl), self.right.distance_submatrix(rr, cr)
        )

    def diameter(self) -> float:
        if self._diameter is None:
            self._diameter = max(self.left.diameter(), self.right.diameter())
        return self._diameter

    def __repr__(self):
        return f"ProductSpace({self.left!r} x {self.right!r})"


def product(left: FiniteMetricSpace, right: FiniteMetricSpace) -> ProductSpace:
    """Product space under the maximum metric rho = max(d_left, d_right)."""
    return ProductSpace(left, right)
