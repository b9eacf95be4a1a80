"""Metrics between idempotent measures, one production route each.

* the coupling (bottleneck) metric d1: the least threshold at which the
  pointwise-maximal coupling meets both marginals, in closed form as the
  directed level-set value, for a batch of pairs on one space: on the
  line by binary lifting over range-maximum tables of the target levels
  (O(m log m) per pair on the m points of the batch's supports), else by
  nearest neighbours over level-ordered prefixes split into dyadic runs,
  by k-d trees on Euclidean spaces (O(n log^2 n)) and by row chunks of the
  support distance table otherwise (O(|s1| |s2|) time, O(256 |s|) memory);
* the Lipschitz-dual pseudometrics d_a = sup {|mu(f) - nu(f)| : Lip f <= a},
  in closed form through cone test functions; one kernel returns d_a for
  an array of levels, by sorted cone envelopes on 1-D Euclidean spaces
  (O(levels * n) after one sort) and otherwise by blocks of the support
  distance table holding all levels, each block read by both directions
  (O(levels * |s1| |s2|), bounded memory);
* two-sided weighted and harmonic series of the d_a, truncated in closed
  form with certified tails, one kernel call per series.

Slower exact routes (threshold search, subset enumeration, the dense
per-level dual formula) are test oracles; sampled inf-convolution
certificates validate the dual closed form.  scipy is imported only for
the k-d tree off the line, so 1-D runs never load it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence, SupportsFloat

import numpy as np

from .measures import IdempotentMeasure, TestFunction, pushforward
from .semiring import NEG_INF
from .spaces import _BLOCK_ELEMS as _TABLE_ELEMS
from .spaces import ProductSpace, _euclidean_table

Pair = tuple[IdempotentMeasure, IdempotentMeasure]

_CHUNK_ROWS = 256  # rows per distance block of d1 and its feasibility test
_BLOCK_ELEMS = 1 << 20  # level x row x column elements per dual-metric block
_MAX_TERMS = 1_000_000  # series terms per side; more is refused


@dataclass(frozen=True)
class Coupling:
    """Measure on X x X whose projections reproduce the two marginals."""

    measure: IdempotentMeasure
    left: IdempotentMeasure
    right: IdempotentMeasure

    def __post_init__(self):
        ps = self.measure.space
        if not isinstance(ps, ProductSpace):
            raise ValueError("a coupling lives on a product space")
        if ps.left is not self.left.space or ps.right is not self.right.space:
            raise ValueError("product space factors do not match the marginals")
        lam1 = pushforward(self.measure, ps.proj_left, ps.left).density
        lam2 = pushforward(self.measure, ps.proj_right, ps.right).density
        if not np.array_equal(lam1, self.left.density):
            raise ValueError("left marginal condition fails")
        if not np.array_equal(lam2, self.right.density):
            raise ValueError("right marginal condition fails")

    def max_support_distance(self) -> float:
        sup = self.measure.support()
        ps = self.measure.space
        il, ir = np.divmod(sup, ps.right.n_points)
        d = ps.left.distance_submatrix(il, ir)
        return float(np.max(np.diagonal(d))) if d.size else 0.0


def _check_same_space(mu1: IdempotentMeasure, mu2: IdempotentMeasure) -> None:
    if mu1.space is not mu2.space:
        raise ValueError("measures live on different spaces")


def _supports(mu1, mu2):
    s1 = mu1.support()
    s2 = mu2.support()
    return s1, s2, mu1.density[s1], mu2.density[s2]


def maximal_coupling(mu1: IdempotentMeasure, mu2: IdempotentMeasure, t: float) -> np.ndarray:
    """Pointwise-largest coupling candidate at distance threshold t.

    eta[x, y] = min(lambda1(x), lambda2(y)) where d(x, y) <= t, -inf
    elsewhere.  Any coupling supported on pairs of distance <= t lies below
    it pointwise, so a feasible coupling at t exists iff this table already
    satisfies the marginal conditions.  The raw table is returned; it is a
    normalized density only when feasible.
    """
    _check_same_space(mu1, mu2)
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    d = mu1.space.distance_matrix()
    eta = np.minimum(mu1.density[:, None], mu2.density[None, :])
    return np.where(d <= t, eta, NEG_INF)


def coupling_feasible(mu1: IdempotentMeasure, mu2: IdempotentMeasure, t: float) -> bool:
    """Marginal conditions for the maximal coupling at threshold t.

    Row x needs max_y eta(x, y) = lambda1(x); since min(l1, l2) never
    exceeds l1, that holds iff some y within t has lambda2(y) >= lambda1(x)
    (bottom rows are automatic).  Columns are symmetric, settled across
    row chunks of the support distance table.
    """
    _check_same_space(mu1, mu2)
    s1, s2, l1, l2 = _supports(mu1, mu2)
    cols_ok = np.zeros(s2.size, dtype=bool)
    for start in range(0, s1.size, _CHUNK_ROWS):
        near = mu1.space.distance_submatrix(s1[start : start + _CHUNK_ROWS], s2) <= t
        lr = l1[start : start + _CHUNK_ROWS, None]
        if not np.all(((l2 >= lr) & near).any(axis=1)):
            return False
        cols_ok |= ((lr >= l2) & near).any(axis=0)
    return bool(cols_ok.all())


def _nearest(space, rows, cols, width=None) -> np.ndarray:
    """Per rows[i], the least distance to cols[:width[i]] (all of cols by default).

    The one space-dependent step of d1 off the line: a k-d tree over cols
    on Euclidean spaces, row chunks of the distance table elsewhere and for
    the masked widths of a partial block, through the spaces' Euclidean
    table on coordinates.
    """
    if space.euclidean and width is None:
        from scipy.spatial import cKDTree

        return cKDTree(space.coords[cols]).query(space.coords[rows])[0]
    out = np.empty(rows.size)
    for lo in range(0, rows.size, _CHUNK_ROWS):
        r = rows[lo : lo + _CHUNK_ROWS]
        if space.euclidean:
            d = _euclidean_table(space.coords[r], space.coords[cols])
        else:
            d = space.distance_submatrix(r, cols)
        if width is not None:
            d[np.arange(cols.size) >= width[lo : lo + _CHUNK_ROWS, None]] = np.inf
        out[lo : lo + _CHUNK_ROWS] = d.min(axis=1)
    return out


def _directed_d1(space, s_from, l_from, s_to, l_to) -> float:
    """max over x of min {d(x, y) : lambda_to(y) >= lambda_from(x)}.

    With the targets sorted by level, descending, x searches the prefix of
    the p(x) targets at or above its level.  A prefix splits into aligned
    dyadic runs of whole _CHUNK_ROWS-point blocks and one partial block;
    each run is searched once for every x that uses it (Bentley and Saxe's
    logarithmic method), so Euclidean spaces take O(n log^2 n).
    """
    order = np.argsort(-l_to, kind="stable")
    targets = s_to[order]
    p = np.searchsorted(-l_to[order], -l_from, side="right")  # >= 1: lambda_to peaks at 0
    blocks, rest = np.divmod(p, _CHUNK_ROWS)
    best = np.full(s_from.size, np.inf)

    def search(use, first_block, n_blocks, width=None):
        users = np.flatnonzero(use)
        users = users[np.argsort(first_block[users], kind="stable")]
        firsts, starts = np.unique(first_block[users], return_index=True)
        for b, q in zip(firsts, np.split(users, starts[1:])):
            run = targets[b * _CHUNK_ROWS : (b + n_blocks) * _CHUNK_ROWS]
            w = None if width is None else width[q]
            best[q] = np.minimum(best[q], _nearest(space, s_from[q], run, w))

    for k in range(int(blocks.max()).bit_length()):
        search((blocks >> k) & 1 == 1, (blocks >> (k + 1)) << (k + 1), 1 << k)
    search(rest > 0, blocks, 1, rest)
    return float(best.max())


def _line_nearest(x, table, rows, pos, level) -> np.ndarray:
    """Per source i, min |x[pos[i]] - x[j]| over j with table[0, rows[i], j] >= level[i].

    x is sorted; table[0] holds target levels (-inf off a support), and
    table[k] is overwritten with the maxima over windows of 2^k positions.
    Each source lifts left and right past the windows below its level,
    largest first (Bender and Farach-Colton, 2000); rounding is monotone, so
    the nearer of its two nearest targets gives the least |x - y| exactly.
    """
    m = x.size
    for k in range(1, table.shape[0]):
        w = 1 << (k - 1)
        table[k] = table[k - 1]
        np.maximum(table[k, :, :-w], table[k - 1, :, w:], out=table[k, :, :-w])
    flat = table.reshape(table.shape[0], -1)
    base = rows * m
    lo, hi = pos + 1, pos.copy()  # qualifying targets: below lo, at or above hi
    for k in reversed(range(flat.shape[0])):
        w = 1 << k
        lo -= w * ((lo >= w) & (flat[k, base + np.maximum(lo - w, 0)] < level))
        hi += w * ((hi < m) & (flat[k, base + np.minimum(hi, m - 1)] < level))
    xs = x[pos]
    left = np.where(lo > 0, xs - x[np.maximum(lo - 1, 0)], np.inf)
    return np.minimum(left, np.where(hi < m, x[np.minimum(hi, m - 1)] - xs, np.inf))


def _line_d1(space, pairs) -> np.ndarray:
    """d1 of each pair on the line, over the union of the supports sorted once.

    A pair is two table rows, mu1 and mu2, and each row's support is
    searched against the other row.  Chunks of pairs fill one buffer of at
    most 2^18 table entries (the spaces' row-block budget).
    """
    finite = np.zeros(space.n_points, dtype=bool)
    for pair in pairs:
        for mu in pair:
            finite |= mu.density > NEG_INF
    u = np.flatnonzero(finite)
    u = u[np.argsort(space.coords[u, 0], kind="stable")]
    x = space.coords[u, 0]
    depth = u.size.bit_length()
    step = min(len(pairs), max(1, _TABLE_ELEMS // (2 * depth * u.size)))
    buf = np.empty(depth * 2 * step * u.size)
    out = []
    for lo in range(0, len(pairs), step):
        chunk = [mu for pair in pairs[lo : lo + step] for mu in pair]
        table = buf[: depth * len(chunk) * u.size].reshape(depth, len(chunk), u.size)
        for row, mu in zip(table[0], chunk):
            mu.density.take(u, out=row)
        rows, pos = np.nonzero(table[0] > NEG_INF)
        near = _line_nearest(x, table, rows ^ 1, pos, table[0, rows, pos])
        starts = np.flatnonzero(np.diff(rows, prepend=-1))  # every row has support
        out.append(np.maximum.reduceat(near, starts).reshape(-1, 2).max(axis=1))
    return np.concatenate(out)


def coupling_distances(pairs: Sequence[Pair]) -> list[float]:
    """Bottleneck coupling distance d1 of each pair; all measures on one space.

    By coupling_feasible, the least threshold whose maximal coupling meets
    the marginals is the directed level-set value max(max_x min {d(x, y) :
    lambda2(y) >= lambda1(x)}, and the mirror term); it is a realized
    support-pair distance, so also the largest distance in the support of
    the optimal maximal coupling.  On the line the batch is one exact kernel
    (_line_d1).  Elsewhere each term is a nearest-neighbour search over
    level-ordered prefixes (_directed_d1): O(n log^2 n) on Euclidean spaces,
    at most one pass over the support table elsewhere, memory
    O(chunk * |support|).
    """
    if not pairs:
        return []
    space = pairs[0][0].space
    for mu1, mu2 in pairs:
        if mu1.space is not space or mu2.space is not space:
            raise ValueError("measures live on different spaces")
    if space.line:
        return _line_d1(space, pairs).tolist()
    out = []
    for mu1, mu2 in pairs:
        s1, s2, l1, l2 = _supports(mu1, mu2)
        out.append(max(_directed_d1(space, s1, l1, s2, l2), _directed_d1(space, s2, l2, s1, l1)))
    return out


def coupling_distance(mu1: IdempotentMeasure, mu2: IdempotentMeasure) -> float:
    """Bottleneck coupling distance between two measures: a batch of one."""
    return coupling_distances([(mu1, mu2)])[0]


# ---------------------------------------------------------------------------
# Lipschitz-dual pseudometrics
# ---------------------------------------------------------------------------

def _envelope_rows(space, lam_from, lam_to, a):
    """Per level a[k], the support row of lam_from ranked first by cone envelopes.

    1-D Euclidean spaces only.  Over the merged supports sorted by
    coordinate, max_y (lam_to(y) - a |x - y|) is the larger of the forward
    pass maximum.accumulate(g + a x) - a x, its mirror, and the y = x term,
    which enters exactly; O(levels * n) after one sort.
    """
    u = np.flatnonzero((lam_from > NEG_INF) | (lam_to > NEG_INF))
    x = space.coords[u, 0]
    order = np.argsort(x, kind="stable")
    u, x = u[order], x[order] - x[order[0]]
    g, ax = lam_to[u], a * x
    inner = np.broadcast_to(g, ax.shape).copy()
    fwd = np.maximum.accumulate(g[:-1] + ax[:, :-1], axis=1) - ax[:, 1:]
    bwd = np.maximum.accumulate((g - ax)[:, :0:-1], axis=1)[:, ::-1] + ax[:, :-1]
    np.maximum(inner[:, 1:], fwd, out=inner[:, 1:])
    np.maximum(inner[:, :-1], bwd, out=inner[:, :-1])
    return u[np.argmax(lam_from[u] - inner, axis=1)]


def _directed_deltas(space, lam1, lam2, levels) -> tuple[np.ndarray, np.ndarray]:
    """(delta12, delta21) at every level a, delta12 = max_x [lam1(x) - max_y (lam2(y) - a d)].

    delta21 is the mirror term, and d = d(x, y).  Rows are evaluated by the
    dense formula's own arithmetic, in blocks of the support distance table
    holding a chunk of levels.  Off the line each block d(rows of s1, s2)
    is built once for both directions: delta12 reads its rows, delta21
    keeps the running column maximum max_x (lam1(x) - a d(x, y)) across the
    row blocks.  Every row is evaluated, so values are bit-identical to the
    dense formula.  On 1-D Euclidean spaces each direction evaluates only
    the row its envelope ranks first, so a value is never above the dense
    one and below it only where rows tie within the rounding of a * x.
    """
    s1 = np.flatnonzero(lam1 > NEG_INF)
    s2 = np.flatnonzero(lam2 > NEG_INF)
    d12 = np.full(levels.size, NEG_INF)
    d21 = np.full(levels.size, NEG_INF)
    step = max(1, _BLOCK_ELEMS // (s1.size + s2.size))
    for lo in range(0, levels.size, step):
        a = levels[lo : lo + step, None, None]
        if space.line:
            for out, lf, lt, s_to in ((d12, lam1, lam2, s2), (d21, lam2, lam1, s1)):
                rows = _envelope_rows(space, lf, lt, a[:, :, 0])
                d = space.distance_submatrix(rows, s_to)[:, None, :]
                out[lo : lo + step] = lf[rows] - np.max(lt[s_to] - a * d, axis=2)[:, 0]
            continue
        r = max(1, _BLOCK_ELEMS // (a.size * s2.size))
        cols = np.full((a.shape[0], s2.size), NEG_INF)
        for i in range(0, s1.size, r):
            rows = s1[i : i + r]
            ad = a * space.distance_submatrix(rows, s2)
            vals = np.max(lam1[rows] - np.max(lam2[s2] - ad, axis=2), axis=1)
            d12[lo : lo + step] = np.maximum(d12[lo : lo + step], vals)
            np.maximum(cols, np.max(lam1[rows, None] - ad, axis=1), out=cols)
        d21[lo : lo + step] = np.max(lam2[s2] - cols, axis=1)
    return d12, d21


def _dual_distances(mu1, mu2, levels) -> np.ndarray:
    """d_a(mu1, mu2) = max(0, delta12, delta21) for every level a at once.

    The inner maximum of delta12 = max_x [lambda1(x) - max_y (lambda2(y) -
    a d(x, y))] is a distance transform of lambda2 with cone slope a.
    """
    levels = np.asarray(levels, dtype=float)
    d12, d21 = _directed_deltas(mu1.space, mu1.density, mu2.density, levels)
    return np.maximum(np.maximum(d12, d21), 0.0)


def lipschitz_distance(mu1: IdempotentMeasure, mu2: IdempotentMeasure, a: float) -> float:
    """sup over a-Lipschitz f of |mu1(f) - mu2(f)|, in closed form.

    For fixed x the least a-Lipschitz function vanishing at x is the cone
    y -> -a * d(x, y); maximizing over cones gives
    max_x [lambda1(x) - max_y (lambda2(y) - a d(x, y))] and the symmetric
    term, and the larger of the two is attained.
    """
    _check_same_space(mu1, mu2)
    if not 0 < a < math.inf:
        raise ValueError(f"Lipschitz bound a must lie in (0, inf), got {a!r}")
    return float(_dual_distances(mu1, mu2, [a])[0])


@dataclass
class LipschitzCertificates:
    """Two-sided validation data for the closed-form dual distance."""

    value: float            # closed form
    sampled_lower: float    # best regularized random table
    cone: TestFunction      # achieving cone witness
    cone_value: float       # |mu1(cone) - mu2(cone)|
    cone_lip: float         # measured Lipschitz constant of the cone


def lipschitz_distance_certificates(
    mu1: IdempotentMeasure,
    mu2: IdempotentMeasure,
    a: float,
    samples: int = 10_000,
    rng: np.random.Generator | None = None,
) -> LipschitzCertificates:
    """Sampled lower certificate and cone witness for the closed form.

    Random tables are replaced by their greatest a-Lipschitz minorant
    f~(x) = min_y (f(y) + a d(x, y)) (inf-convolution), so every sampled
    value is a true lower bound; the cone at the maximizing support point
    attains the closed form exactly.
    """
    _check_same_space(mu1, mu2)
    space = mu1.space
    if space.n_points > 50:
        raise ValueError("certificate sampling is limited to 50 points")
    if rng is None:
        rng = np.random.default_rng(0)
    d = space.distance_matrix()
    scale = a * max(space.diameter(), 1.0)
    f = rng.uniform(-scale, scale, size=(samples, space.n_points))
    reg = np.min(f[:, None, :] + a * d[None, :, :], axis=2)
    vals1 = np.max(mu1.density[None, :] + reg, axis=1)
    vals2 = np.max(mu2.density[None, :] + reg, axis=1)
    sampled_lower = float(np.max(np.abs(vals1 - vals2)))

    # the dense closed form, row by row, to locate the maximizing cone
    s1, s2, l1, l2 = _supports(mu1, mu2)
    dsup = space.distance_submatrix(s1, s2)
    rows12 = l1 - np.max(l2[None, :] - a * dsup, axis=1)
    rows21 = l2 - np.max(l1[None, :] - a * dsup.T, axis=1)
    d12, d21 = float(rows12.max()), float(rows21.max())
    x_star = int(s1[np.argmax(rows12)] if d12 >= d21 else s2[np.argmax(rows21)])
    cone = TestFunction(space, -a * d[x_star])
    cone_value = abs(
        float(np.max(mu1.density + cone.values)) - float(np.max(mu2.density + cone.values))
    )
    return LipschitzCertificates(
        value=max(d12, d21, 0.0),
        sampled_lower=sampled_lower,
        cone=cone,
        cone_value=cone_value,
        cone_lip=cone.lipschitz_constant(),
    )


# ---------------------------------------------------------------------------
# series metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesParams:
    """Parameters of the two-sided weighted series metric.

    alpha scales the per-term Lipschitz bounds, q the geometric weights;
    both in (0, 1).  Certifying the alpha/q contraction factor additionally
    needs alpha < q, but the metric itself is defined for any combination.
    """

    alpha: float
    q: float
    tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")

    def n_terms(self, diameter: float) -> int:
        """Terms per side: the least N >= 0 with 2 diam q^(N+1) / (1 - q) <= tol.

        Closed form, settled against the float test; 0 on a one-point space.
        ValueError when alpha^(+-N) or diam / alpha^N leaves the normal
        float range, or N would exceed _MAX_TERMS.
        """
        if diameter == 0.0:
            return 0
        q, alpha, tol = self.q, self.alpha, self.tol

        def over(n: int) -> bool:
            return 2.0 * diameter * q ** (n + 1) / (1.0 - q) > tol

        est = (math.log(tol) + math.log1p(-q) - math.log(2.0 * diameter)) / math.log(q) - 1.0
        if est < _MAX_TERMS:
            n = math.ceil(max(0.0, est))  # est is -inf at tol = inf
            while n > 0 and not over(n - 1):
                n -= 1
            while over(n):
                n += 1
            if alpha**n >= sys.float_info.min and math.isfinite(diameter / alpha**n):
                return n
        raise ValueError(
            f"series metric alpha={alpha!r}, q={q!r}, tol={tol!r} on a space of diameter "
            f"{diameter:g} needs levels alpha^n outside the normal float range "
            f"(or over {_MAX_TERMS} terms per side); raise tol or lower q"
        )


@dataclass
class SeriesValue:
    """Truncated series value with its certified tail bound."""

    value: float
    tail_bound: float
    terms: int  # summed indices run over |n| <= terms

    def __float__(self):
        return self.value


def series_distance(
    mu1: IdempotentMeasure, mu2: IdempotentMeasure, params: SeriesParams
) -> SeriesValue:
    """Two-sided series sum_n (q^|n| / alpha^n) d_{alpha^n}(mu1, mu2).

    Each term is bounded by q^|n| * diam (the dual distance at level a is
    at most a * diam), so truncating at N = params.n_terms(diam) certifies
    the tail 2 * diam * q^(N+1) / (1 - q) <= tol.  The partial sum is a
    lower estimate; the true value lies within [value, value + tail_bound].
    All 2N+1 levels come from one kernel call; terms are accumulated in
    ascending |n| for determinism.
    """
    _check_same_space(mu1, mu2)
    diam = mu1.space.diameter()
    if diam == 0.0:
        return SeriesValue(0.0, 0.0, 0)
    q, alpha = params.q, params.alpha
    n_terms = params.n_terms(diam)
    tail = 2.0 * diam * q ** (n_terms + 1) / (1.0 - q)
    order = [0] + [n for k in range(1, n_terms + 1) for n in (-k, k)]
    levels = [alpha**n for n in order]
    total = 0.0
    for n, a, da in zip(order, levels, _dual_distances(mu1, mu2, levels).tolist()):
        total += (q ** abs(n) / a) * da
    return SeriesValue(total, tail, n_terms)


def harmonic_series_distance(
    mu1: IdempotentMeasure, mu2: IdempotentMeasure, tol: float
) -> SeriesValue:
    """One-sided series sum_{n>=1} d_n(mu1, mu2) / (n 2^n).

    d_n <= n * diam bounds each term by diam / 2^n, so the tail after N
    terms is at most diam * 2^-N; N is the least N with that bound <= tol,
    and a ValueError is raised when 2^-N is below the normal float range.
    """
    _check_same_space(mu1, mu2)
    if not tol > 0:
        raise ValueError("tol must be positive")
    diam = mu1.space.diameter()
    if diam == 0.0:
        return SeriesValue(0.0, 0.0, 0)
    n_terms = 1
    while diam * 2.0 ** (-n_terms) > tol:
        n_terms += 1
    if 2.0 ** (-n_terms) < sys.float_info.min:
        raise ValueError(
            f"harmonic series with tol={tol!r} on a space of diameter {diam:g} "
            f"needs weights 2^-n below the normal float range; raise tol"
        )
    levels = np.arange(1, n_terms + 1, dtype=float)
    total = 0.0
    for n, da in zip(range(1, n_terms + 1), _dual_distances(mu1, mu2, levels).tolist()):
        total += da / (n * 2.0**n)
    return SeriesValue(total, diam * 2.0 ** (-n_terms), n_terms)


# ---------------------------------------------------------------------------
# empirical contraction engine
# ---------------------------------------------------------------------------

_PASS_SLACK = 1e-9  # a check passes while every excess over its bound is at most this


@dataclass
class ContractionReport:
    """Worst case of metric(Op mu1, Op mu2) against bound(metric(mu1, mu2)).

    max_ratio and max_excess are maxima over the used pairs (0.0 and -inf
    when none is used); worst is the index in the pair list of the largest
    excess, the first on ties, or None when none is used.
    """

    max_ratio: float
    max_excess: float
    worst: int | None
    used: int
    skipped: int

    @property
    def passed(self) -> bool:
        return self.used > 0 and self.max_excess <= _PASS_SLACK


def empirical_contraction(
    metric: Callable[[list[Pair]], Sequence[SupportsFloat]],
    pairs: Sequence[Pair],
    images: Sequence[Pair],
    bound: Callable[[SupportsFloat], float],
) -> ContractionReport:
    """Measured contraction of an operator over the pairs, given their images.

    images[k] is (Op mu1, Op mu2) for pairs[k] = (mu1, mu2), taken once by
    the caller so several checks can share them.  metric maps a list of
    pairs to their distances and is called once, on the pairs followed by
    the images, so a batched metric such as coupling_distances evaluates a
    check in one call (the images of skipped pairs are measured, unused).
    Each pair at nonzero distance m is used: its ratio
    is metric(Op mu1, Op mu2) / m and its excess is that numerator minus
    bound(m).  bound receives the metric's own return value, so a series
    check can bound factor * (value + tail_bound).  Pairs at distance 0 are
    skipped; a report with used == 0 does not pass.
    """
    if not pairs:
        raise ValueError("need at least one measure pair")
    if len(images) != len(pairs):
        raise ValueError("need one image pair per measure pair")
    values = metric([*pairs, *images])
    report = ContractionReport(0.0, -math.inf, None, 0, 0)
    for k, (den, num) in enumerate(zip(values[: len(pairs)], values[len(pairs) :])):
        if float(den) == 0.0:
            report.skipped += 1
            continue
        report.used += 1
        num = float(num)
        excess = num - bound(den)
        if excess > report.max_excess:
            report.max_excess, report.worst = excess, k
        report.max_ratio = max(report.max_ratio, num / float(den))
    return report
