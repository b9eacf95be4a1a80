"""Finite metric spaces: explicit distance matrices, Euclidean grids, products.

Points are identified by index 0..n-1; coordinates, when present, are
metadata used for distance evaluation, snapping and rendering.  Explicit
matrices are validated eagerly (every downstream contraction statement
presupposes an actual metric), and so are Euclidean coordinates (finite,
nonzero distances between distinct points).  Grid spaces keep only
coordinates and evaluate Euclidean distances on demand, so 10^4-point grids
never allocate an n^2 matrix.

A space implements one distance routine, `distance_submatrix(rows, cols)`;
`dist` and the full matrix are read through it, and the all-pairs checks
(Lipschitz constants, contraction certificates, the diameter) sweep its
blocks of 512 rows against all points.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

# Full distance matrices are materialized (and cached) only below this size.
_DENSE_LIMIT = 2048
# Rows per block of the all-pairs sweeps (512 x n distances at a time).
_BLOCK_ROWS = 512


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
        # the metric is the Euclidean distance of coords (not an explicit matrix)
        self.euclidean = matrix is None and n_points is None
        self.grid_lower = None
        self.grid_upper = None
        self.grid_cells = None
        if coords is not None:
            coords = np.asarray(coords, dtype=float)
            if coords.ndim == 1:
                coords = coords[:, None]
            if coords.ndim != 2 or coords.shape[0] < 1:
                raise ValueError("coords must be a nonempty (n, dim) array")
            if not np.all(np.isfinite(coords)):
                raise ValueError("coordinates must be finite")
            if self.euclidean and validate:
                _validate_coords(coords)
            self.coords = coords
            self.coords.flags.writeable = False
        if matrix is not None:
            matrix = np.asarray(matrix, dtype=float)
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

    def dist(self, i: int, j: int) -> float:
        return float(self.distance_submatrix([i], [j])[0, 0])

    def distance_submatrix(self, rows, cols) -> np.ndarray:
        """Distances between two index sets, without a full n^2 matrix."""
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        if self._matrix is not None:
            return self._matrix[np.ix_(rows, cols)]
        return cdist(self.coords[rows], self.coords[cols])

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
            # exact zero diagonal (cdist can leave tiny round-off)
            np.fill_diagonal(m, 0.0)
            m.flags.writeable = False
            self._dense = m
        return self._dense

    def _row_blocks(self):
        """Yield (rows, distance_submatrix(rows, all points)) over row blocks.

        Each block is a fresh array that the caller may overwrite.
        """
        idx = np.arange(self.n_points)
        for start in range(0, self.n_points, _BLOCK_ROWS):
            rows = idx[start : start + _BLOCK_ROWS]
            yield rows, self.distance_submatrix(rows, idx)

    def diameter(self) -> float:
        if self._diameter is None:
            if self.grid_lower is not None:
                # corner-to-corner realizes the max over a box grid
                self._diameter = float(np.linalg.norm(self.grid_upper - self.grid_lower))
            else:
                self._diameter = max(float(d.max()) for _, d in self._row_blocks())
        return self._diameter

    def is_grid(self) -> bool:
        return self.grid_cells is not None

    def __repr__(self):
        kind = "grid" if self.is_grid() else ("coords" if self._matrix is None else "matrix")
        return f"FiniteMetricSpace(n={self.n_points}, kind={kind})"


def _validate_coords(coords: np.ndarray) -> None:
    """Euclidean distances must be finite, and positive between distinct points.

    The squared span bounds every squared distance, so a finite one rules
    out overflow.  A radius-0 pair query finds exactly the pairs at computed
    distance 0: repeated points, and points whose squared offset underflows
    (grid steps below about 1.6e-162).
    """
    with np.errstate(over="ignore"):
        span = np.ptp(coords, axis=0)
        overflows = not np.isfinite(span @ span)
    shown = " x ".join(f"{s:.6g}" for s in span)
    if overflows:
        raise ValueError(f"coordinate span {shown} overflows when squared; rescale the points")
    pairs = cKDTree(coords).query_pairs(0.0, output_type="ndarray")
    if pairs.size:
        i, j = min(pairs.tolist())
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


def hausdorff(set_a, set_b, space: FiniteMetricSpace) -> float:
    """Hausdorff distance between two nonempty index sets of one space."""
    a = np.fromiter(set_a, dtype=int)
    b = np.fromiter(set_b, dtype=int)
    if a.size == 0 or b.size == 0:
        raise ValueError("hausdorff distance needs nonempty sets")
    d = space.distance_submatrix(a, b)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))
