"""Metrics between idempotent measures, one production route each.

* the coupling (bottleneck) metric d1: the least threshold at which the
  pointwise-maximal coupling meets both marginals, in closed form as the
  directed level-set value, for a batch of pairs on one space: on the
  line by binary lifting over range-maximum tables of the target levels
  (O(m log m) per pair on the m points of the pair's merged supports), on 2-D
  and 3-D Euclidean spaces by one ring search per direction over a
  uniform grid of the targets, capped at _RING_WORK cell visits and
  target reads per point, else (and for the sources left past that cap)
  by one sweep of the support distance table, sources sorted by the
  width of their level-ordered target prefix, in masked row blocks of at
  most 2^18 entries (O(|s1| |s2|) time, bounded memory).  Feasibility of
  the maximal coupling at t is d1 <= t, and the Hausdorff distance of two
  point sets is d1 of their indicators: both read these kernels;
* the Lipschitz-dual pseudometrics d_a = sup {|mu(f) - nu(f)| : Lip f <= a},
  in closed form through cone test functions; one kernel returns d_a for
  a batch of pairs and an array of levels.  On the line every (pair,
  direction, level) row runs cone envelopes over the pair's merged
  supports in point order: all of them on middle levels and the points
  near the top, per level, on flat levels, in padded blocks of frames of
  similar length; on steep levels only the sources that can win, each
  against its two nearest targets, with no block.  Every value is
  bit-equal to the same arithmetic over all merged points (O(levels * n)
  per pair at most).  Elsewhere,
  pair by pair, blocks of the support distance table holding all levels
  are read by both directions (O(levels * |s1| |s2|), bounded memory);
* two-sided weighted and harmonic series of the d_a, truncated in closed
  form with certified tails; series_distances takes a batch of pairs in
  one kernel call.

Both line kernels read one layout of each pair's merged supports
(_line_layout), and ragged blocks, of the table sweep and of the line
dual kernel, come from one packer (_packed).  Slower exact routes
(threshold search over the dense feasibility sweep, subset enumeration,
the dense per-level dual formula, the per-pair line kernel) are test
oracles; sampled inf-convolution certificates validate the dual closed
form.  scipy is never imported here; off the line the distance table
loads it for cdist, so 1-D runs, and ring-search d1 that leaves no source
to the table sweep, never do.
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
from .spaces import FiniteMetricSpace, ProductSpace

Pair = tuple[IdempotentMeasure, IdempotentMeasure]

# cell visits plus targets read by the 2-D and 3-D d1 ring search, per point of both
# supports, before the table sweep takes the sources left
_RING_WORK = 32
# level x row x column elements per dual-kernel block, apart from the 2^18 table
# budget: at 2^18 a series on two 6561-point 2-D files took 4.1 s, not 3.3-3.6 s
_DUAL_ELEMS = 1 << 20
# frame cells (rows x padded frame length) per block of the line dual kernel
_LINE_CELLS = 1 << 15
# relative and absolute slack of the line kernel's frame bounds, far above rounding
_MARGIN = 2.0**-40
_TINY = 2.0**-1000
_MAX_TERMS = 1_000_000  # series terms per side; more is refused
# a level a is refused unless a * diam + depth stays below this: every value and
# intermediate of the dual kernels is at most that sum, times 2 and the margins
_LEVEL_LIMIT = 2.0**1022


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
        if not (ps.left is ps.right is self.left.space is self.right.space):
            raise ValueError("a coupling lives on X x X, for the one space X of both marginals")
        lam1 = pushforward(self.measure, ps.proj_left, ps.left).density
        lam2 = pushforward(self.measure, ps.proj_right, ps.right).density
        if not np.array_equal(lam1, self.left.density):
            raise ValueError("left marginal condition fails")
        if not np.array_equal(lam2, self.right.density):
            raise ValueError("right marginal condition fails")

    def max_support_distance(self) -> float:
        """The largest distance of a support pair, over the base space's row blocks."""
        ps = self.measure.space
        on = self.measure.density.reshape(ps.left.n_points, ps.right.n_points) > NEG_INF
        rows, cols = np.flatnonzero(on.any(axis=1)), np.flatnonzero(on.any(axis=0))
        blocks = ps.left._row_blocks(rows, cols)
        return max(float(np.max(d, where=on[np.ix_(r, cols)], initial=0.0)) for r, d in blocks)


def _batch_space(pairs: Sequence[Pair]):
    """The one space of every measure in the pairs; ValueError otherwise."""
    space = pairs[0][0].space
    for mu1, mu2 in pairs:
        if mu1.space is not space or mu2.space is not space:
            raise ValueError("measures live on different spaces")
    return space


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
    _batch_space([(mu1, mu2)])
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    d = mu1.space.distance_matrix()
    eta = np.minimum(mu1.density[:, None], mu2.density[None, :])
    return np.where(d <= t, eta, NEG_INF)


def _packed(widths, budget: int) -> list[tuple[int, int]]:
    """Blocks (start, end) over ascending widths, each the most rows from its
    start whose count times their widest fits the budget, one row at least."""
    blocks, start = [], 0
    while start < widths.size:
        w = widths[start : start + max(1, budget // int(widths[start]))]
        end = start + max(1, int(np.searchsorted(np.arange(1, w.size + 1) * w, budget, "right")))
        blocks.append((start, end))
        start = end
    return blocks


def _directed_d1(space, s_from, l_from, s_to, l_to) -> float:
    """max over x of min {d(x, y) : lambda_to(y) >= lambda_from(x)}.

    With the targets sorted by level, descending, x searches the prefix of
    the p(x) targets at or above its level.  The sources, sorted by p, read
    row blocks of at most _TABLE_ELEMS entries of the distance table against
    the widest prefix of the block: the narrowest prefix is read whole and
    only the ragged tail past it is masked (O(|s_from| |s_to|) time).
    """
    order = np.argsort(-l_to, kind="stable")
    targets = s_to[order]
    p = np.searchsorted(-l_to[order], -l_from, side="right")  # >= 1: lambda_to peaks at 0
    by = np.argsort(p, kind="stable")
    rows, p = s_from[by], p[by]
    best = 0.0
    for start, end in _packed(p, _TABLE_ELEMS):
        w = p[start:end]
        d = space.distance_submatrix(rows[start:end], targets[: w[-1]])
        d[:, w[0] :][np.arange(w[0], w[-1]) >= w[:, None]] = np.inf
        best = max(best, float(d.min(axis=1).max()))
    return best


def _runs(first, count) -> np.ndarray:
    """The runs first[i], ..., first[i] + count[i] - 1, one after another."""
    return np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())


def _ring_offsets(dim: int, r: int) -> np.ndarray:
    """The cell offsets at Chebyshev distance r, as dim rows of integers."""
    cube = np.indices((2 * r + 1,) * dim).reshape(dim, -1) - r
    return cube[:, np.abs(cube).max(axis=0) == r]


def _ring_d1(space, s_from, l_from, s_to, l_to) -> float:
    """_directed_d1 on Euclidean 2-D and 3-D spaces, by one ring search over a grid.

    The targets go into a uniform grid of about 2 per cell (Bentley, Weide
    and Yao, 1980), sorted by cell and then by level, descending, so the
    first target of a cell gives its maximum.  Every source still
    unresolved visits the next Chebyshev ring of cells around its own,
    reads the targets at or above its level in the cells whose maximum
    reaches it, and is resolved once its least squared distance is at most
    the squared distance to the edge of the searched block, less a margin
    for the rounding of the cell indices.  Squared distances are the
    table's own arithmetic (the gaps squared and summed in axis order), so
    the value is bit-equal.  When the next ring's cell visits, or the
    targets it would read, take the work past _RING_WORK per point of both
    supports, the sources left go through the table sweep of _directed_d1:
    crowded cells and far targets cost no more than a bounded detour.
    """
    x = space.coords[s_from].T.copy()  # one contiguous row per axis
    y = space.coords[s_to].T.copy()
    dim = x.shape[0]
    lo = np.minimum(x.min(axis=1), y.min(axis=1))
    span = np.maximum(x.max(axis=1), y.max(axis=1)) - lo
    # cell width h for about 2 targets per cell, over the axes at least h wide
    wide, h = span > 0.0, 1.0
    while wide.any():
        h = math.exp((np.log(span[wide]).sum() - math.log(max(1.0, s_to.size / 2))) / wide.sum())
        if np.all(span[wide] >= h):
            break
        wide &= span >= h
    k = np.maximum(np.ceil(span / h), 1).astype(np.intp)  # cells per axis
    stride = np.cumprod(np.concatenate(([1], k[:0:-1])))[::-1]
    n_cells = int(k.prod())

    def cells(p):
        u = p - lo[:, None]
        return u, np.minimum(np.floor(u / h), k[:, None] - 1).astype(np.intp)

    levels, rank = np.unique(-l_to, return_inverse=True)  # rank 0: the highest level
    key = stride @ cells(y)[1] * levels.size + rank
    by = np.argsort(key, kind="stable")
    y, rank = y[:, by], rank[by]
    first = np.searchsorted(key[by], np.arange(n_cells + 1) * levels.size)
    top = np.full(n_cells + 1, levels.size)  # rank of each cell's first target; the last
    full = first[:-1] < first[1:]  # entry stands for every cell off the grid
    top[:-1][full] = rank[first[:-1][full]]

    u, c = cells(x)
    # distance to the lower and upper edge of the own cell on each axis, and
    # the rings after which that side of the block is the edge of the grid;
    # the margin exceeds the rounding of u / h and of these sums, so a target
    # outside the block has a gap of at least the edge on some axis, and as
    # rounding is monotone its squared distance is at least reach * reach
    margin = 2.0**-40 * (span + h)
    side = np.concatenate([u - c * h, (c + 1) * h - u]) - np.tile(margin, 2)[:, None]
    last = np.concatenate([c, k[:, None] - 1 - c])
    need = np.searchsorted(levels, -l_from, side="right")  # target ranks below this qualify
    home = stride @ c
    best = np.full(s_from.size, np.inf)  # least squared distance found
    active = np.arange(s_from.size)
    budget, work, r = _RING_WORK * (s_from.size + s_to.size), 0, 0
    while active.size:
        ring = _ring_offsets(dim, r)
        work += active.size * ring.shape[1]
        if work > budget:
            break
        cell = home[active, None] + stride @ ring
        for a in range(dim):
            off = c[a, active, None] + ring[a]
            cell[off.view(np.uintp) >= int(k[a])] = n_cells  # off the grid on axis a
        src, pos = np.nonzero(top[cell] < need[active, None])
        cell = cell[src, pos]
        count = first[cell + 1] - first[cell]
        work += int(count.sum())
        if work > budget:
            break
        pos = _runs(first[cell], count)
        src = np.repeat(active[src], count)
        keep = rank[pos] < need[src]
        src, pos = src[keep], pos[keep]
        gap = x[0, src] - y[0, pos]
        sq = gap * gap
        for a in range(1, dim):
            gap = x[a, src] - y[a, pos]
            sq += gap * gap
        if src.size:
            seg = np.flatnonzero(np.diff(src, prepend=-1))
            best[src[seg]] = np.minimum(best[src[seg]], np.minimum.reduceat(sq, seg))
        edge = np.full(active.size, np.inf)
        for to_edge, rings in zip(side, last):
            np.minimum(edge, np.where(rings[active] > r, to_edge[active] + r * h, np.inf), out=edge)
        reach = np.maximum(edge, 0.0)
        active = active[best[active] > reach * reach]
        r += 1
    best[active] = 0.0  # the table sweep measures these
    value = math.sqrt(best.max())
    if active.size:
        value = max(value, _directed_d1(space, s_from[active], l_from[active], s_to, l_to))
    return value


def _line_layout(space, pairs, depth):
    """Chunks of line pairs, each pair on its merged supports in the space's point order.

    A chunk is the most pairs (one at least) whose depth rows of both
    densities over all n points fit _TABLE_ELEMS entries.  Yields, in pair
    order, the pair pid of each merged point, each pair's run [starts, ends),
    a table (rows: the coordinate shifted by the run's first point, the
    coordinate, l1, l2; a last column of levels -inf at 0) and a buffer of
    the budget, reused by every chunk and free once the table is built.
    """
    n = space.n_points
    step = max(1, _TABLE_ELEMS // (2 * depth * n))
    buf = np.empty(2 * depth * min(step, len(pairs)) * n)
    for lo in range(0, len(pairs), step):
        chunk = [mu.density for pair in pairs[lo : lo + step] for mu in pair]
        dens = np.stack(chunk, out=buf[: len(chunk) * n].reshape(-1, n))
        merged = (dens[0::2] > NEG_INF) | (dens[1::2] > NEG_INF)
        pid, point = np.divmod(np.flatnonzero(merged[:, space.order]), n)
        point, size = space.order[point], pid.size
        starts = np.searchsorted(pid, np.arange(len(chunk) // 2))
        table = np.empty((4, size + 1))
        table[:, size] = (0.0, 0.0, NEG_INF, NEG_INF)
        np.take(space.coords[:, 0], point, out=table[1, :size], mode="clip")
        np.subtract(table[1, :size], table[1, starts][pid], out=table[0, :size])
        point += 2 * n * pid  # the point in row 2 pid of dens
        np.take(dens, point, out=table[2, :size], mode="clip")
        np.take(dens, point + n, out=table[3, :size], mode="clip")
        yield pid, starts, np.append(starts[1:], size), table, buf


def _line_nearest(x, table, pos, level, first, end) -> np.ndarray:
    """Per source i, min |x[pos[i]] - x[j]| over j in [first[i], end[i]) with
    table[0, j] >= level[i], or inf.  x is sorted on each run, 2^depth
    exceeds every run, and table[k] becomes the maxima of table[0] over
    windows of 2^k positions: each source lifts left and right past the
    windows below its level, largest first and never out of its run (Bender
    and Farach-Colton, 2000).  Rounding is monotone, so the nearer of its two
    nearest targets gives the least |x - y| exactly.
    """
    for k in range(1, table.shape[0]):
        w = 1 << (k - 1)
        np.maximum(table[k - 1, :-w], table[k - 1, w:], out=table[k, :-w])
    lo, hi = pos + 1, pos.copy()  # qualifying targets: below lo, at or above hi
    for k in reversed(range(table.shape[0])):
        w = 1 << k
        below = lo - w
        free = (below >= first) & (table[k].take(below, mode="clip") < level)
        np.subtract(lo, w, out=lo, where=free)
        np.add(hi, w, out=hi, where=(hi + w <= end) & (table[k].take(hi, mode="clip") < level))
    xs = x[pos]
    left = np.where(lo > first, xs - x.take(lo - 1, mode="clip"), np.inf)
    return np.minimum(left, np.where(hi < end, x.take(hi, mode="clip") - xs, np.inf))


def _line_d1(space, pairs) -> np.ndarray:
    """d1 of each pair on the line: the sources of each level row, in turn, search the other
    row inside their pair's run, through a range-maximum table in the layout's buffer."""
    out = []
    for pid, starts, ends, table, buf in _line_layout(space, pairs, space.n_points.bit_length()):
        size, depth = pid.size, int((ends - starts).max()).bit_length()
        rmq = buf[: depth * size].reshape(depth, size)
        out.append(np.zeros(starts.size))
        for source, target in ((2, 3), (3, 2)):
            rmq[0] = table[target, :size]
            pos = np.flatnonzero(table[source, :size] > NEG_INF)
            run = np.searchsorted(pos, starts)  # every support has a point
            count = np.diff(run, append=pos.size)
            first, end = np.repeat(starts, count), np.repeat(ends, count)
            near = _line_nearest(table[1, :size], rmq, pos, table[source, pos], first, end)
            np.maximum(out[-1], np.maximum.reduceat(near, run), out=out[-1])
    return np.concatenate(out)


def coupling_distances(pairs: Sequence[Pair]) -> list[float]:
    """Bottleneck coupling distance d1 of each pair; all measures on one space.

    The least threshold whose maximal coupling meets the marginals
    (coupling_feasible) is the directed level-set value max(max_x min {d(x, y) :
    lambda2(y) >= lambda1(x)}, and the mirror term); it is a realized
    support-pair distance, so also the largest distance in the support of
    the optimal maximal coupling.  On the line the batch is one exact kernel
    (_line_d1).  On 2-D and 3-D Euclidean spaces each term is a ring search
    over a grid of the targets (_ring_d1), numpy only.  Elsewhere, and for
    the sources left past the ring budget, it is one sweep of the support
    distance table over level-ordered prefixes (_directed_d1): at most one
    pass over the table, in row blocks of at most _TABLE_ELEMS entries.
    """
    if not pairs:
        return []
    space = _batch_space(pairs)
    if space.line:
        return _line_d1(space, pairs).tolist()
    directed = _ring_d1 if space.euclidean and space.coords.shape[1] in (2, 3) else _directed_d1
    out = []
    for mu1, mu2 in pairs:
        s1, s2, l1, l2 = _supports(mu1, mu2)
        out.append(max(directed(space, s1, l1, s2, l2), directed(space, s2, l2, s1, l1)))
    return out


def coupling_distance(mu1: IdempotentMeasure, mu2: IdempotentMeasure) -> float:
    """Bottleneck coupling distance between two measures: a batch of one."""
    return coupling_distances([(mu1, mu2)])[0]


def coupling_feasible(mu1: IdempotentMeasure, mu2: IdempotentMeasure, t: float) -> bool:
    """Marginal conditions for the maximal coupling at threshold t: d1 <= t.

    Row x needs max_y eta(x, y) = lambda1(x); since min(l1, l2) never
    exceeds l1, that holds iff some y within t has lambda2(y) >= lambda1(x),
    and columns are symmetric: the directed level-set values, and so d1,
    are at most t.
    """
    return coupling_distance(mu1, mu2) <= t


def hausdorff(set_a, set_b, space: FiniteMetricSpace) -> float:
    """Hausdorff distance between two nonempty index sets of one space.

    d1 of the set indicators (density 0 on the set, -inf off it): with one
    level, each directed term is the farthest point of one set from the other.
    """
    indicators = np.full((2, space.n_points), NEG_INF)
    for row, members in zip(indicators, (set_a, set_b)):
        idx = space.point_indices(members, "hausdorff")
        if idx.size == 0:
            raise ValueError("hausdorff distance needs nonempty sets")
        row[idx] = 0.0
    return coupling_distance(*IdempotentMeasure.from_rows(space, indicators))


# ---------------------------------------------------------------------------
# Lipschitz-dual pseudometrics
# ---------------------------------------------------------------------------

def _check_level(a: float, diam: float, depth: float) -> None:
    """ValueError unless a * diam + depth < _LEVEL_LIMIT.

    diam bounds the distances and depth the finite levels that a kernel
    reads, so every value and intermediate stays in the float range.
    """
    if not a * diam + depth < _LEVEL_LIMIT:
        raise ValueError(
            f"Lipschitz level a={a!r} on points up to {diam:g} apart with densities "
            f"{depth:g} deep takes a * diam + depth past 2^1022, where the dual kernels "
            f"overflow; lower a, or raise the tol of a series"
        )


def _line_frames(both, x, starts, ends, pid, levels):
    """The kind of each (pair, level) of the line kernel, and the frames of its blocks.

    both (l1, l2), x (shifted), starts, ends and pid come from _line_layout.
    A (pair, level) is steep when a gmin > 2 spread and flat when at most a
    quarter of the points reach -a D (gmin the least gap, D the span, spread
    the depth of both densities), with margins of 2^-40 and 2^-1000.
    Every other level is middle.  A middle frame is all points of its
    pair, a flat frame the points of its pair at or above its own level's
    reach -a D, built once per pair for the flat levels that every point
    of the pair's loosest flat frame reaches; steep rows read no frame
    (_line_steep).  Returns the frames as runs of elements (elements,
    first, length), the frame of each (pair, level), -1 where steep, and
    spread and D per pair.  Why a frame holds the row's argmax source, its
    scan maximum and the finishing maximum is in _line_deltas.  A pair
    whose D and spread fail _check_level at the largest level is refused.
    """
    k, m = starts.size, ends - starts
    span = x[ends - 1]
    spread = -np.minimum.reduceat(np.where(both > NEG_INF, both, 0.0), starts, axis=1).min(axis=0)
    with np.errstate(over="ignore"):  # an overflow here is refused just below
        worst = int(np.argmax(levels.max() * span + spread))
    _check_level(float(levels.max()), float(span[worst]), float(spread[worst]))
    gap = np.append(np.diff(x), np.inf)
    gap[ends - 1] = np.inf
    gmin = np.where(m > 1, np.minimum.reduceat(gap, starts), 0.0)[:, None]
    a, d, w = levels[None, :], spread[:, None], span[:, None]
    steep = a * gmin > 2.0 * d + _MARGIN * (d + a * w) + _TINY
    reach = a * w * (1.0 + _MARGIN) + _TINY
    # the (m // 4 + 1)-th largest of max(l1, l2), by a sort of padded rows
    top = np.maximum(both[0], both[1])
    table = np.full((k, m.max()), NEG_INF)
    table[np.arange(m.max()) < m[:, None]] = top
    table.sort(axis=1)
    flat = ~steep & (reach < -table[np.arange(k), -1 - m // 4, None])
    middle = ~steep & ~flat
    # a pair's loosest flat frame serves each flat level that every point of it
    # reaches; the others filter it down to their own reach
    loose = np.flatnonzero(top >= -np.max(np.where(flat, reach, -np.inf), axis=1)[pid])
    count = np.bincount(pid[loose], minlength=k)
    begin = np.cumsum(count) - count
    lowest = np.zeros(k)
    lowest[count > 0] = np.minimum.reduceat(top[loose], begin[count > 0])
    fp, fl = np.nonzero(flat & (lowest[:, None] < -reach))
    at = loose[_runs(begin[fp], count[fp])]
    cell = np.repeat(np.arange(fp.size), count[fp])
    keep = top[at] >= -reach[fp, fl][cell]
    has_middle = middle.any(axis=1)
    elements = np.concatenate([np.flatnonzero(has_middle[pid]), loose, at[keep]])
    length = np.concatenate(
        [np.where(has_middle, m, 0), count, np.bincount(cell[keep], minlength=fp.size)]
    )
    frame = np.where(middle, np.arange(k)[:, None], np.where(flat, k + np.arange(k)[:, None], -1))
    frame[fp, fl] = 2 * k + np.arange(fp.size)
    return elements, np.cumsum(length) - length, length, frame, spread, span


def _line_steep(both, x, coord, starts, ends, pid, levels, steep, spread, span) -> np.ndarray:
    """(delta12, delta21) of each steep (pair, level), pair-major: a (2, cells) array.

    both holds l1 and l2 of the chunk, x and coord the shifted and the
    plain coordinates, as in _line_frames.  At a steep level every target
    beyond a nearer one on the same side trails it by at least
    a gmin - spread > spread at every point, so the forward scan maximum
    at a source is the forward term of its nearest target on the left,
    the backward one that of its nearest target on the right, and a
    source that is a target scans to its own level; rounding is monotone
    (fl(max v - c) = max fl(v - c)), so these are bit-equal to the scan
    over all points.  A source's value lies within spread of a near, near
    its distance to its nearest target, so a source with
    a (far - near) > 2 spread, far the largest near, never wins: the
    sources kept at each level are evaluated directly, one entry per
    (row, source), in point order, and the first argmax is finished
    against the same nearest targets.  Entries go in chunks of about
    _LINE_CELLS.
    """
    size = x.size
    idx = np.arange(size)
    first_of, end_of = starts[pid], ends[pid]
    xs = np.append(x, 0.0)  # position size: no target
    sp, sl = np.nonzero(steep)
    out = np.empty((2, sp.size))

    def bound(a, p):  # 2 spread, past every rounding of the values and of near
        return 2.0 * spread[p] + _MARGIN * (spread[p] + a * span[p]) + _TINY

    # bound / a falls as a grows, so a pair's least steep level keeps the most
    # sources: far - near at most this slack, widened past its own rounding
    has = steep.any(axis=1)
    amin = np.min(np.where(steep[has], levels, np.inf), axis=1)
    slack = np.full(starts.size, -1.0)
    slack[has] = bound(amin, np.flatnonzero(has)) / amin * (1.0 + _MARGIN)
    for d in (0, 1):
        lf, g = both[d], np.append(both[1 - d], NEG_INF)
        is_to = g[:-1] > NEG_INF
        # the nearest target on each side, the point itself if it is a target
        left = np.maximum.accumulate(np.where(is_to, idx, -1))
        left[left < first_of] = size
        right = np.minimum.accumulate(np.where(is_to, idx, size)[::-1])[::-1]
        right[right >= end_of] = size
        near = np.minimum(
            np.where(left < size, x - xs[left], np.inf),
            np.where(right < size, xs[right] - x, np.inf),
        )
        far = np.maximum.reduceat(np.where(lf > NEG_INF, near, -np.inf), starts)
        src = np.flatnonzero((lf > NEG_INF) & (far[pid] - near <= slack[pid]))
        per_pair = np.bincount(pid[src], minlength=starts.size)
        first, count = (np.cumsum(per_pair) - per_pair)[sp], per_pair[sp]
        cum = np.cumsum(count)
        lo = 0
        while lo < sp.size:
            hi = max(lo + 1, int(np.searchsorted(cum, cum[lo] - count[lo] + _LINE_CELLS, "right")))
            n_in = count[lo:hi]
            cell = np.repeat(np.arange(lo, hi), n_in)
            i = src[_runs(first[lo:hi], n_in)]
            a = levels[sl[cell]]
            keep = a * (far[sp[cell]] - near[i]) <= bound(a, sp[cell])
            i, cell, a = i[keep], cell[keep], a[keep]
            ax = a * x[i]
            fwd = g[left[i]] + a * xs[left[i]]
            fwd -= ax
            bwd = g[right[i]] - a * xs[right[i]]
            bwd += ax
            value = lf[i] - np.where(is_to[i], g[i], np.maximum(fwd, bwd))
            n_in = np.bincount(cell - lo, minlength=hi - lo)  # at least the farthest source
            best = np.maximum.reduceat(value, np.cumsum(n_in) - n_in)
            hit = np.flatnonzero(value == np.repeat(best, n_in))
            win = hit[np.diff(cell[hit], prepend=-1) != 0]  # the first argmax of each row
            b, a = i[win], a[win]
            fin = []
            for t in (left[b], right[b]):
                # a missing target reads the source's own coordinate: a * 0, at level -inf
                fin.append(g[t] - a * np.abs(coord[b] - coord[np.where(t < size, t, b)]))
            out[d, lo:hi] = lf[b] - np.maximum(*fin)
            lo = hi
    return out


def _line_deltas(space, pairs, levels) -> np.ndarray:
    """(delta12, delta21) of each pair at each level on the line: a (2, P, L) array.

    Each (pair, direction, level) row runs the envelope arithmetic of the
    dense formula's ranking on a frame of the pair's merged supports in
    point order, shifted by the first point of those supports: a forward
    fmax.accumulate(g + a x) - a x over the targets' levels g, its mirror,
    and the y = x term give max_y (lam_to(y) - a |x - y|) at every source
    x; the first argmax of lam_from(x) minus that is the row's source, and
    the dense formula's own arithmetic over the frame's targets finishes
    it.  The frame is all merged points on middle levels.  On flat levels
    it is the points at or above the level's own reach -a D: every other
    target stays below the top target's term at every point, and every
    other source stays below 0, which the top source reaches.  Steep rows
    take no frame: _line_steep reads each kept source's two nearest
    targets.  The margins cover every rounding these bounds skip, so each
    row is bit-equal to the same arithmetic over all merged points.
    Frames of similar length share a block of at most _LINE_CELLS cells,
    padded past their ends with -inf levels, and every block works in one
    scratch buffer, grown only when a chunk of pairs needs more: block
    temporaries never meet the allocator's thresholds.
    """
    out = []
    index, scratch = np.empty(0, dtype=np.intp), np.empty(0)
    for pid, starts, ends, table, _ in _line_layout(space, pairs, 1):
        size = pid.size  # rows 3 - d and 2 + d: target and source levels of direction d
        shift, coord, both = table[0, :size], table[1, :size], table[2:, :size]
        elements, first, length, frame, spread, span = _line_frames(
            both, shift, starts, ends, pid, levels
        )
        steep = frame < 0
        delta = np.empty((2, starts.size, levels.size))
        if steep.any():
            delta[:, steep] = _line_steep(
                both, shift, coord, starts, ends, pid, levels, steep, spread, span
            )
        elements = np.append(elements, size)
        # frames by length, and the rows of every non-steep (pair, level) by
        # frame, through sorted integer keys; row (d, p, l) is d * k * L + p * L + l
        by_len = np.sort(length * length.size + np.arange(length.size)) % length.size
        rank = np.empty_like(by_len)
        rank[by_len] = np.arange(by_len.size)
        cells = np.flatnonzero(~steep)
        row_frame = np.tile(frame.reshape(-1)[cells], 2)
        n_rows = row_frame.size
        by = np.sort(rank[row_frame] * n_rows + np.arange(n_rows)) % n_rows
        rows = np.concatenate([cells, cells + steep.size])[by]
        row_rank, row_len = rank[row_frame[by]], length[row_frame[by]]
        blocks = _packed(row_len, _LINE_CELLS)
        need = max(((r1 - r0) * int(row_len[r1 - 1]) for r0, r1 in blocks), default=0)
        if index.size < 2 * need:  # scratch that every block reuses
            index, scratch = np.empty(2 * need, dtype=np.intp), np.empty(10 * need)
        delta = delta.reshape(-1)  # in row order: (direction, pair, level)
        for r0, r1 in blocks:
            r = rows[r0:r1]
            frames = by_len[row_rank[r0] : row_rank[r1 - 1] + 1]
            local = row_rank[r0:r1] - row_rank[r0]
            nf, cols, nr = frames.size, int(length[frames[-1]]), r.size
            col = np.arange(cols)
            at = index[: nf * cols].reshape(nf, cols)
            np.add(first[frames, None], col, out=at)
            at[col >= length[frames, None]] = elements.size - 1
            out_at = index[need : need + nf * cols].reshape(nf, cols)
            at = np.take(elements, at, out=out_at, mode="clip")
            # the table's rows over each frame, then six row buffers
            frame_rows = scratch[: 4 * nf * cols].reshape(4, nf, cols)
            np.take(table, at, axis=1, out=frame_rows, mode="clip")
            frame_rows = frame_rows.reshape(4 * nf, cols)
            ax, g, lf, inner, s, t = (
                scratch[k * need : k * need + nr * cols].reshape(nr, cols) for k in range(4, 10)
            )
            d, a = r // steep.size, levels[r % levels.size, None]
            np.take(frame_rows, local, axis=0, out=ax, mode="clip")
            ax *= a
            np.take(frame_rows, (3 - d) * nf + local, axis=0, out=g, mode="clip")
            np.take(frame_rows, (2 + d) * nf + local, axis=0, out=lf, mode="clip")
            np.add(g[:, :-1], ax[:, :-1], out=s[:, :-1])
            np.fmax.accumulate(s[:, :-1], axis=1, out=t[:, :-1])
            t[:, :-1] -= ax[:, 1:]
            inner[:, 0] = g[:, 0]
            np.maximum(g[:, 1:], t[:, :-1], out=inner[:, 1:])
            np.subtract(g, ax, out=s)
            np.fmax.accumulate(s[:, :0:-1], axis=1, out=t[:, :0:-1])
            t[:, 1:] += ax[:, :-1]
            np.maximum(inner[:, :-1], t[:, 1:], out=inner[:, :-1])
            np.subtract(lf, inner, out=s)
            best = np.argmax(s, axis=1)
            row = np.arange(nr)
            c = np.take(frame_rows, nf + local, axis=0, out=ax, mode="clip")  # ax is spent
            np.subtract(c[row, best][:, None], c, out=s)
            np.abs(s, out=s)
            with np.errstate(over="ignore"):  # only padding, at coordinate 0: every |x - y| <= D
                s *= a
            np.subtract(g, s, out=s)
            delta[r] = lf[row, best] - s.max(axis=1)
        out.append(delta.reshape(2, starts.size, levels.size))
    return np.concatenate(out, axis=1)


def _directed_deltas(space, lam1, lam2, levels) -> tuple[np.ndarray, np.ndarray]:
    """(delta12, delta21) at every level a, delta12 = max_x [lam1(x) - max_y (lam2(y) - a d)].

    delta21 is the mirror term, and d = d(x, y).  Rows are evaluated by the
    dense formula's own arithmetic, in blocks of the support distance table
    holding a chunk of levels.  Each block d(rows of s1, s2) is built once
    for both directions: delta12 reads its rows, delta21 keeps the running
    column maximum max_x (lam1(x) - a d(x, y)) across the row blocks.
    Every row is evaluated, so values are bit-identical to the dense
    formula.  The line takes _line_deltas instead.
    """
    s1, s2 = np.flatnonzero(lam1 > NEG_INF), np.flatnonzero(lam2 > NEG_INF)
    d12 = np.full(levels.size, NEG_INF)
    d21 = np.full(levels.size, NEG_INF)
    step = max(1, _DUAL_ELEMS // (s1.size + s2.size))
    for lo in range(0, levels.size, step):
        a = levels[lo : lo + step, None, None]
        r = max(1, _DUAL_ELEMS // (a.size * s2.size))
        cols = np.full((a.shape[0], s2.size), NEG_INF)
        for i in range(0, s1.size, r):
            rows = s1[i : i + r]
            ad = a * space.distance_submatrix(rows, s2)
            vals = np.max(lam1[rows] - np.max(lam2[s2] - ad, axis=2), axis=1)
            d12[lo : lo + step] = np.maximum(d12[lo : lo + step], vals)
            np.maximum(cols, np.max(lam1[rows, None] - ad, axis=1), out=cols)
        d21[lo : lo + step] = np.max(lam2[s2] - cols, axis=1)
    return d12, d21


def _dual_distances(pairs: Sequence[Pair], levels) -> np.ndarray:
    """d_a = max(0, delta12, delta21) of each pair (rows) at each level a (columns).

    The inner maximum of delta12 = max_x [lambda1(x) - max_y (lambda2(y) -
    a d(x, y))] is a distance transform of lambda2 with cone slope a.  On
    the line the whole batch is one _line_deltas call; elsewhere each pair
    goes through _directed_deltas, after _check_level on the space's
    diameter and the pair's depth (the line kernel checks its own span).
    """
    levels = np.asarray(levels, dtype=float)
    space = _batch_space(pairs)
    if space.line:
        d12, d21 = _line_deltas(space, pairs, levels)
    else:
        for pair in pairs:
            depth = -min(float(mu.density[mu.support()].min()) for mu in pair)
            _check_level(float(levels.max()), space.diameter(), depth)
        deltas = [_directed_deltas(space, m1.density, m2.density, levels) for m1, m2 in pairs]
        d12, d21 = np.array(deltas).transpose(1, 0, 2)
    return np.maximum(np.maximum(d12, d21), 0.0)


def lipschitz_distance(mu1: IdempotentMeasure, mu2: IdempotentMeasure, a: float) -> float:
    """sup over a-Lipschitz f of |mu1(f) - mu2(f)|, in closed form.

    For fixed x the least a-Lipschitz function vanishing at x is the cone
    y -> -a * d(x, y); maximizing over cones gives
    max_x [lambda1(x) - max_y (lambda2(y) - a d(x, y))] and the symmetric
    term, and the larger of the two is attained.
    """
    _batch_space([(mu1, mu2)])
    if not 0 < a < math.inf:
        raise ValueError(f"Lipschitz bound a must lie in (0, inf), got {a!r}")
    return float(_dual_distances([(mu1, mu2)], [a])[0, 0])


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
    _batch_space([(mu1, mu2)])
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

    def n_terms(self, diameter: float, depth: float = 0.0) -> int:
        """Terms per side: the least N >= 0 with 2 diam q^(N+1) / (1 - q) <= tol.

        Closed form, settled against the float test; 0 on a one-point space.
        ValueError when alpha^(+-N) leaves the normal float range, when
        diam / alpha^N + depth reaches _LEVEL_LIMIT (depth bounds the
        densities from below, as in _check_level), or when N would exceed
        _MAX_TERMS.
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
            if alpha**n >= sys.float_info.min and diameter / alpha**n + depth < _LEVEL_LIMIT:
                return n
        raise ValueError(
            f"series metric alpha={alpha!r}, q={q!r}, tol={tol!r} on a space of diameter "
            f"{diameter:g} with densities {depth:g} deep needs levels alpha^n outside the "
            f"normal float range, or a * diam + depth past 2^1022 at a = alpha^-n (or over "
            f"{_MAX_TERMS} terms per side); raise tol or lower q"
        )


@dataclass
class SeriesValue:
    """Truncated series value with its certified tail bound."""

    value: float
    tail_bound: float
    terms: int  # summed indices run over |n| <= terms

    def __float__(self):
        return self.value


def series_distances(pairs: Sequence[Pair], params: SeriesParams) -> list[SeriesValue]:
    """Two-sided series sum_n (q^|n| / alpha^n) d_{alpha^n}(mu1, mu2) of each pair.

    All measures live on one space.  Each term is bounded by q^|n| * diam
    (the dual distance at level a is at most a * diam), so truncating at
    N = params.n_terms(diam) certifies the tail 2 * diam * q^(N+1) / (1 - q)
    <= tol.  The partial sum is a lower estimate; the true value lies
    within [value, value + tail_bound].  All 2N+1 levels of every pair come
    from one _dual_distances call; terms are accumulated in ascending |n|
    for determinism.
    """
    if not pairs:
        return []
    space = _batch_space(pairs)
    diam = space.diameter()
    if diam == 0.0:
        return [SeriesValue(0.0, 0.0, 0) for _ in pairs]
    q, alpha = params.q, params.alpha
    n_terms = params.n_terms(diam)
    tail = 2.0 * diam * q ** (n_terms + 1) / (1.0 - q)
    order = [0] + [n for k in range(1, n_terms + 1) for n in (-k, k)]
    levels = [alpha**n for n in order]
    total = np.zeros(len(pairs))
    for n, a, da in zip(order, levels, _dual_distances(pairs, levels).T):
        total += (q ** abs(n) / a) * da
    return [SeriesValue(value, tail, n_terms) for value in total.tolist()]


def series_distance(
    mu1: IdempotentMeasure, mu2: IdempotentMeasure, params: SeriesParams
) -> SeriesValue:
    """The two-sided series of one pair: a batch of one series_distances call."""
    return series_distances([(mu1, mu2)], params)[0]


def harmonic_series_distance(
    mu1: IdempotentMeasure, mu2: IdempotentMeasure, tol: float
) -> SeriesValue:
    """One-sided series sum_{n>=1} d_n(mu1, mu2) / (n 2^n).

    d_n <= n * diam bounds each term by diam / 2^n, so the tail after N
    terms is at most diam * 2^-N; N is the least N with that bound <= tol,
    and a ValueError is raised when 2^-N is below the normal float range.
    """
    _batch_space([(mu1, mu2)])
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
    for n, da in zip(range(1, n_terms + 1), _dual_distances([(mu1, mu2)], levels)[0].tolist()):
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
