"""Max-plus normalized IFSs and the idempotent Markov operator.

Maps are explicit point tables on a finite space.  A map may carry a
contraction witness (a comparison function); the discrete certificate
d(f(i), f(j)) <= witness(d(i, j)) is then verified over all pairs at
construction, in the pass that computes the discrete Lipschitz constant,
and violations abort with the worst pair.  Snapping a continuous affine
contraction to a grid can and does break the discrete certificate (any
non-constant map on a uniform grid moves some adjacent pair a full grid
step), so snapped maps carry the continuous constant in `declared_lip` and
per-point snap errors; a witness given to one is checked in the same pass.
The Markov operator steps a list of measures at once (`markov_many`: one
`maximum.at` per map over the stacked densities); `markov` steps one.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .measures import IdempotentMeasure, TestFunction, pushforward
from .semiring import NEG_INF
from . import spaces
from .spaces import FiniteMetricSpace, _euclidean_table, product

# float round-off headroom for certificate comparisons; genuine violations
# on a finite space are at least a fraction of the minimal distance
_CERT_SLACK = 1e-12
_SNAP_TOL = 1e-9  # snap error, relative to max(1, diameter), that counts as exact


class CertificateError(ValueError):
    """A declared contraction witness fails on some point pair."""


@dataclass(frozen=True)
class ComparisonFunction:
    """Matkowski witness: nondecreasing, phi(t) < t, iterates -> 0.

    kind "linear": phi(t) = param * t with param in (0, 1).
    kind "rational": phi(t) = t / (1 + param * t) with param in (0, inf).
    Both families satisfy the iterate condition analytically.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind == "linear":
            if not 0.0 < self.param < 1.0:
                raise ValueError("linear witness needs a factor in (0, 1)")
        elif self.kind == "rational":
            if not 0.0 < self.param < np.inf:
                raise ValueError("rational witness needs a parameter in (0, inf)")
        else:
            raise ValueError(f"unknown witness kind {self.kind!r}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "linear":
            out = self.param * t
        else:
            out = t / (1.0 + self.param * t)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ContractionMap:
    """Total self-map of a space, stored as a point table.

    `discrete_lip` is max over pairs of dist(f(i), f(j)) / dist(i, j),
    computed here unless a trusted value is supplied: on 1-D Euclidean
    spaces from neighbours in the space's point order (O(n); the triangle
    inequality makes it the all-pairs maximum), elsewhere from all pairs
    (O(n^2)).  Witness certificates are always checked on all pairs (a
    concave witness does not add up along neighbours), in the same pass
    over the row blocks of image distances.
    `declared_lip` is an externally known constant (e.g. of the continuous
    map a snapped table approximates); it is reported, never used as a
    certificate.
    """

    space: FiniteMetricSpace
    target: np.ndarray
    witness: ComparisonFunction | None = None
    declared_lip: float | None = None
    snap_error: np.ndarray | None = None
    discrete_lip: float | None = None  # None here means: compute in __post_init__
    verify: InitVar[bool] = True

    def __post_init__(self, verify):
        tgt = np.asarray(self.target, dtype=int)
        if tgt.shape != (self.space.n_points,):
            raise ValueError("target table must be total on the space")
        if tgt.min() < 0 or tgt.max() >= self.space.n_points:
            raise ValueError("target table leaves the space")
        tgt.flags.writeable = False
        object.__setattr__(self, "target", tgt)
        if self.discrete_lip is None or (verify and self.witness is not None):
            object.__setattr__(self, "discrete_lip", self._sweep(self.witness if verify else None))

    def _sweep(self, witness: ComparisonFunction | None) -> float:
        """discrete_lip (unless trusted) and the witness check (if any), in one pass.

        Each row block of image distances gives the ratios and the gaps above
        the witness.  Tables are bit-symmetric, so a gap below the diagonal
        equals its mirror in an earlier row, and a gap on it is d(f(i), f(i))
        - witness(0) = 0, never above the starting worst: with no mask, the
        first maximum over whole rows that beats the earlier blocks is the
        first worst pair i < j in row-major order."""
        space, target, lip = self.space, self.target, self.discrete_lip
        if lip is None and space.line:
            # a pair's image distance is at most the sum over the neighbours between
            x, order = space.coords[:, 0], space.order
            lip = float(np.max(np.abs(np.diff(x[target[order]])) / np.diff(x[order]), initial=0.0))
            if witness is None:
                return lip
        worst, pair, ratios = 0.0, None, []
        for rows, d_in in space._row_blocks():
            d_out = space.distance_submatrix(target[rows], target)
            if witness is not None:
                slack = witness(d_in) - d_out  # the gaps, negated
                k = int(np.argmin(slack))  # first worst gap in row-major order
                if -slack.flat[k] > worst:
                    worst, pair = float(-slack.flat[k]), (int(rows[k // target.size]), k % target.size)
            if lip is None:
                d_in[np.arange(rows.size), rows] = np.inf  # i = j contributes 0
                ratios.append(np.divide(d_out, d_in, out=d_out).max())  # in place
        if pair is not None and worst > _CERT_SLACK * max(1.0, space.diameter()):
            i, j = pair
            raise CertificateError(
                "contraction certificate fails: "
                f"d(f({i}), f({j})) = {space.dist(target[i], target[j]):.6g} "
                f"> witness(d({i}, {j})) = {float(witness(space.dist(i, j))):.6g} "
                f"(worst pair ({i}, {j}))"
            )
        return float(np.max(ratios)) if lip is None else lip

    def __call__(self, mu: IdempotentMeasure) -> IdempotentMeasure:
        return pushforward(mu, self.target, self.space)


def snap_affine(space: FiniteMetricSpace, matrix, offset, witness=None) -> ContractionMap:
    """Discretize x -> Ax + b by snapping each image to the nearest point.

    Ties go to the lowest index.  The image of the bounding box must stay
    inside it.  The discrete Lipschitz constant of the snapped table may
    exceed the continuous constant ||A|| (reported in declared_lip), and a
    witness, if given, is checked in the pass that computes it; per-point
    snap errors are kept for exactness queries.
    """
    if space.coords is None:
        raise ValueError("snapping needs point coordinates")
    dim = space.coords.shape[1]
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    b = np.atleast_1d(np.asarray(offset, dtype=float))
    if a.shape != (dim, dim) or b.shape != (dim,):
        raise ValueError(f"affine map must be ({dim}, {dim}) matrix plus ({dim},) offset")
    images = space.coords @ a.T + b
    lo = space.coords.min(axis=0)
    hi = space.coords.max(axis=0)
    slack = 1e-9 * max(1.0, float(np.abs(space.coords).max()))
    if not np.all((images >= lo - slack) & (images <= hi + slack)):  # NaN images too
        worst = int(np.argmax(np.maximum(images - hi, lo - images).max(axis=1)))
        raise ValueError(
            f"affine image leaves the bounding box (point {worst} -> {images[worst]})"
        )
    if space.is_grid():
        cells = space.grid_cells
        step = (space.grid_upper - space.grid_lower) / cells
        frac = (images - space.grid_lower) / step
        # ceil(x - 1/2) rounds to nearest with exact halves going down
        axis_idx = np.ceil(frac - 0.5).astype(int)
        np.clip(axis_idx, 0, cells, out=axis_idx)
        target = np.ravel_multi_index(tuple(axis_idx.T), tuple(cells + 1))
    else:
        # argmin over row blocks of the sweep budget takes the lowest index on ties
        step = max(1, spaces._BLOCK_ELEMS // space.n_points)
        target = np.concatenate([
            np.argmin(_euclidean_table(images[i : i + step], space.coords), axis=1)
            for i in range(0, space.n_points, step)
        ])
    snap_error = np.linalg.norm(images - space.coords[target], axis=1)
    declared = float(np.linalg.norm(a, 2))
    return ContractionMap(
        space, target, witness=witness, declared_lip=declared, snap_error=snap_error
    )


@dataclass(frozen=True)
class MaxPlusIFS:
    """Finitely many point maps with max-plus weights normalized to max 0."""

    space: FiniteMetricSpace
    maps: tuple[ContractionMap, ...]
    weights: np.ndarray

    def __post_init__(self):
        maps = tuple(self.maps)
        if not maps:
            raise ValueError("an IFS needs at least one map")
        if any(m.space is not self.space for m in maps):
            raise ValueError("all maps must live on the IFS space")
        w = np.array(self.weights, dtype=float)
        if w.shape != (len(maps),):
            raise ValueError("need exactly one weight per map")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if w.max() != 0.0:
            raise ValueError(f"weights must be normalized: max weight exactly 0 (got {w.max():g})")
        w.flags.writeable = False
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "weights", w)

    @property
    def n_maps(self) -> int:
        return len(self.maps)

    @property
    def discrete_lip_max(self) -> float:
        return max(m.discrete_lip for m in self.maps)

    @property
    def declared_lip_max(self) -> float | None:
        lips = [m.declared_lip for m in self.maps]
        if any(l is None for l in lips):
            return None
        return max(lips)

    def all_witnessed(self) -> bool:
        return all(m.witness is not None for m in self.maps)

    def combined_witness(self, t):
        """Pointwise max of the per-map witnesses (requires all declared)."""
        if not self.all_witnessed():
            raise ValueError("not every map declares a witness")
        vals = np.stack([np.atleast_1d(m.witness(t)) for m in self.maps])
        out = vals.max(axis=0)
        return float(out[0]) if np.ndim(t) == 0 else out

    def exactly_mapped_points(self) -> np.ndarray:
        """Points whose snapped images carry no snapping error, for every map.

        Only meaningful for snapped maps; table-built maps count as exact
        everywhere.
        """
        scale = max(1.0, self.space.diameter())
        mask = np.ones(self.space.n_points, dtype=bool)
        for m in self.maps:
            if m.snap_error is not None:
                mask &= m.snap_error <= _SNAP_TOL * scale
        return np.flatnonzero(mask)


def markov_many(ifs: MaxPlusIFS, measures) -> list[IdempotentMeasure]:
    """markov of each measure, over their densities stacked into rows.

    Per map, one maximum.at scatters every row's weighted density onto its
    images in the running maximum: the values of weighted_oplus of the
    pushforwards, bit for bit (a weight added to a fiber's maximum is the
    maximum of the weighted fiber).  Rows go in chunks of at most
    spaces._BLOCK_ELEMS / 4 entries.  The call has one workspace, made once:
    the index rows and the weighted rows (the density stack, plus the map's
    weight) at the first chunk's size, which every chunk writes into, and
    the running maximum of all rows, which one from_rows call copies out.
    """
    space = ifs.space
    n = space.n_points
    if any(mu.space is not space for mu in measures):
        raise ValueError("measure lives on a different space")
    step = max(1, spaces._BLOCK_ELEMS // (4 * n))
    rows = min(step, len(measures))
    weighted, index = np.empty((rows, n)), np.empty((rows, n), dtype=np.intp)
    base = np.arange(0, rows * n, n)[:, None]
    new = np.full((len(measures), n), NEG_INF)
    for lo in range(0, len(measures), step):
        chunk = [mu.density for mu in measures[lo : lo + step]]
        k = len(chunk)
        for w, m in zip(ifs.weights, ifs.maps):
            np.add(base[:k], m.target, out=index[:k])
            np.stack(chunk, out=weighted[:k])
            weighted[:k] += w
            np.maximum.at(new[lo : lo + k].reshape(-1), index[:k].reshape(-1), weighted[:k].reshape(-1))
    return IdempotentMeasure.from_rows(space, new)


def markov(ifs: MaxPlusIFS, mu: IdempotentMeasure) -> IdempotentMeasure:
    """Idempotent Markov step: ⊕_j q_j ⊙ (pushforward of mu along map j).

    Equivalently the density is lambda'(s) = max over j and x in the fiber
    of map j over s of q_j + lambda(x).  Normalization is preserved exactly
    (max weight 0 against max density 0); the measure constructor re-checks
    it on every call.  A batch of one markov_many call.
    """
    return markov_many(ifs, [mu])[0]


def markov_dual(ifs: MaxPlusIFS, f: TestFunction) -> TestFunction:
    """Dual step on test functions: f_S(x) = max_j (q_j + f(map_j(x))).

    Satisfies integrate(markov(S, mu), f) == integrate(mu, f_S) and scales
    Lipschitz constants by at most discrete_lip_max.
    """
    if f.space is not ifs.space:
        raise ValueError("test function lives on a different space")
    stacked = np.stack([q + f.values[m.target] for q, m in zip(ifs.weights, ifs.maps)])
    return TestFunction(ifs.space, stacked.max(axis=0))


@dataclass
class IterationDiagnostics:
    metric: str
    residuals: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    exact: bool = False
    apriori_bound: float | None = None
    message: str = ""


def _sup_density_residual(a: IdempotentMeasure, b: IdempotentMeasure) -> float:
    da, db = a.density, b.density
    fa, fb = da > -np.inf, db > -np.inf
    if np.any(fa != fb):
        return float("inf")
    return float(np.max(np.abs(da[fa] - db[fb])))


def iterate_fixed_point(
    ifs: MaxPlusIFS,
    mu0: IdempotentMeasure,
    metric: str = "sup_density",
    tol: float = 0.0,
    max_iter: int = 1000,
) -> tuple[IdempotentMeasure, IterationDiagnostics]:
    """Iterate the Markov operator until the step residual is <= tol.

    metric is "sup_density" (max density difference, inf on support change)
    or "d1" (the coupling metric).  Bitwise-equal densities are an exact
    fixed point (the operator is a finite max/plus circuit) and stop the
    iteration with a recorded residual of 0 regardless of tol.  When every
    map contracts (discrete_lip_max < 1) and the residual is d1, the metric
    in which the operator contracts, the diagnostics carry the a-priori
    bound residual * a / (1 - a) on the d1 distance to the true fixed
    point.  A sup_density residual gives no such bound: on three points
    with a = 1/3 a step of 2 can end 2 away from the fixed point, in sup
    and in d1, above the 2 a / (1 - a) = 1 that the formula would claim.
    For witness-only (non-Banach) systems the stopping rule is
    residual-only.
    """
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if metric == "sup_density":
        residual_fn = _sup_density_residual
    elif metric == "d1":
        from .metrics import coupling_distance

        residual_fn = coupling_distance
    else:
        raise ValueError(f"unknown iteration metric {metric!r}")

    diag = IterationDiagnostics(metric=metric)
    mu = mu0
    for _ in range(max_iter):
        nxt = markov(ifs, mu)
        diag.iterations += 1
        if np.array_equal(nxt.density, mu.density):
            diag.residuals.append(0.0)
            diag.converged = True
            diag.exact = True
            mu = nxt
            break
        r = residual_fn(mu, nxt)
        diag.residuals.append(r)
        mu = nxt
        if r <= tol:
            diag.converged = True
            break
    alpha = ifs.discrete_lip_max
    if metric == "d1" and diag.residuals and alpha < 1.0:
        diag.apriori_bound = diag.residuals[-1] * alpha / (1.0 - alpha)
    if not diag.converged:
        diag.message = (
            f"no fixed point within {max_iter} iterations "
            f"(last residual {diag.residuals[-1]:.6g})"
        )
    return mu, diag


def product_ifs(ifs: MaxPlusIFS) -> MaxPlusIFS:
    """IFS on space x space acting as (x, y) -> (map_j(x), map_j(y)).

    Weights and witnesses carry over; under the maximum metric each paired
    map has the same discrete Lipschitz constant as its factor, so the
    certificate is inherited rather than re-verified.
    """
    ps = product(ifs.space, ifs.space)
    n = ifs.space.n_points
    paired = []
    for m in ifs.maps:
        t = m.target
        target = np.add.outer(t * n, t).ravel()
        paired.append(
            ContractionMap(
                ps,
                target,
                witness=m.witness,
                declared_lip=m.declared_lip,
                discrete_lip=m.discrete_lip,
                verify=False,
            )
        )
    return MaxPlusIFS(ps, tuple(paired), ifs.weights)


def attractor(ifs: MaxPlusIFS, start) -> frozenset[int]:
    """Iterate K -> union of map images of K to a fixed set.

    Starting from the full space the sequence is decreasing and stabilizes
    within n steps; arbitrary starts of a contractive system also settle.
    A cycle without a fixed set (possible only for non-contractive tables)
    raises a RuntimeError after the iteration cap.
    """
    mask = np.zeros(ifs.space.n_points, dtype=bool)
    idx = ifs.space.point_indices(start, "attractor")
    if idx.size == 0:
        raise ValueError("attractor iteration needs a nonempty start set")
    mask[idx] = True
    for _ in range(ifs.space.n_points + 64):
        nxt = np.zeros_like(mask)
        for m in ifs.maps:
            nxt[m.target[mask]] = True
        if np.array_equal(nxt, mask):
            return frozenset(np.flatnonzero(mask).tolist())
        mask = nxt
    raise RuntimeError("set iteration did not stabilize; system may not contract")
