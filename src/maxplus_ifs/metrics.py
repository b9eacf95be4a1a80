"""Metrics between idempotent measures, one production route each.

* the coupling (bottleneck) metric d1: the least threshold at which the
  pointwise-maximal coupling meets both marginals, in closed form as the
  directed level-set value, for a batch of pairs on one space: on the
  line by binary lifting over range-maximum tables of the target levels
  (O(m log m) per pair on the m points of the pair's merged supports), on 2-D
  and 3-D Euclidean spaces, for pairs whose support table passes one block
  of 2^18 entries, by one grid of both supports per pair: a cell-block
  cover test bounds most sources at once, and a ring search, capped at
  _RING_WORK cell visits and target reads per point, finishes only the
  sources that can set the maximum; else (and for the sources left past
  that cap) by one sweep of the support distance table, sources sorted by
  the width of their level-ordered target prefix, in masked row blocks of
  at most 2^18 entries (O(|s1| |s2|) time, bounded memory).  Feasibility of
  the maximal coupling at t is d1 <= t, and the Hausdorff distance of two
  point sets is d1 of their indicators: both read these kernels;
* the Lipschitz-dual pseudometrics d_a = sup {|mu(f) - nu(f)| : Lip f <= a},
  in closed form through cone test functions; one kernel returns d_a for
  a batch of pairs and an array of levels, each value the dense
  formula's maximum, bit for bit.  On the line every (pair, direction,
  level) row ranks the sources of the pair's merged supports by cone
  envelopes in point order: all of them on middle levels, and on flat
  levels those of one of two frames per pair, each holding every point
  at or above the reach -a D of each level it serves (the points below
  can neither reach an inner maximum nor beat the top source), in padded
  blocks of frames of similar length, and the dense formula finishes the
  sources ranked near the top; each steep level takes one vector pass of
  the dense formula over the sources that can win, kept once per pair,
  each against its two nearest targets, with no block (O(levels * n) per
  pair, and a frame more per finished source).
  Elsewhere one pass per pair and direction over the support distance
  table marks each source's staircase, and every level reads it alone
  (O(|s1| |s2| + levels * entries), bounded memory);
* two-sided weighted and harmonic series of the d_a, truncated in closed
  form with certified tails; series_distances takes a batch of pairs in
  one kernel call.

Both line kernels read one layout of each pair's merged supports
(_line_layout), and ragged blocks, of the table sweep and of the line
dual kernel, come from one packer (_packed).  Both memory budgets live in
`spaces`, read when a call runs.  Workspace rule: a chunk holds at most
spaces._BLOCK_ELEMS entries, a batch call has one workspace (_Workspace)
sized once from it, and every chunk-sized temporary of its chunk loop is
a view of it, written through out=.  Fresh-array rule: what numpy makes
without out= in a chunk loop holds at most spaces._FRESH_ELEMS entries
(index compaction) or a fraction of a chunk (sorts): glibc maps a fresh
array of 128 KB or more and faults it in page by page on each use.
Slower exact routes (threshold search over the dense feasibility sweep,
subset enumeration, the dense per-level dual formula) are test oracles;
sampled inf-convolution certificates validate the dual closed form.
scipy is never imported here; off the line the distance table loads it
for cdist, so 1-D runs, and plane-kernel d1 that leaves no source to the
table sweep, never do.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence, SupportsFloat

import numpy as np

from .measures import IdempotentMeasure, TestFunction, pushforward
from .semiring import NEG_INF
from . import spaces
from .spaces import FiniteMetricSpace, ProductSpace

Pair = tuple[IdempotentMeasure, IdempotentMeasure]

# cell visits plus targets read by a group of sources of the 2-D and 3-D d1 ring
# search, per point of both supports, before the table sweep takes the sources left
_RING_WORK = 32
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
    row blocks of at most spaces._BLOCK_ELEMS entries of the distance table
    against the widest prefix of the block: the narrowest prefix is read
    whole and only the ragged tail past it is masked (O(|s_from| |s_to|)).
    """
    order = np.argsort(-l_to, kind="stable")
    targets = s_to[order]
    p = np.searchsorted(-l_to[order], -l_from, side="right")  # >= 1: lambda_to peaks at 0
    by = np.argsort(p, kind="stable")
    rows, p = s_from[by], p[by]
    best = 0.0
    for start, end in _packed(p, spaces._BLOCK_ELEMS):
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


def _cell_width(span, count: int) -> float:
    """Cell width h for about 2 of count points per cell, over the axes at least h wide."""
    wide, h = span > 0.0, 1.0
    while wide.any():
        h = math.exp((np.log(span[wide]).sum() - math.log(max(1.0, count / 2))) / wide.sum())
        if np.all(span[wide] >= h):
            break
        wide &= span >= h
    return h


def _plane_d1(space, s1, l1, s2, l2) -> float:
    """d1 of one pair on a Euclidean 2-D or 3-D space, each source searched only
    while it can raise the maximum.

    Both supports go into one uniform grid of about 2 points per cell of the
    larger (Bentley, Weide and Yao, 1980).  Per direction the targets are
    sorted by cell and then by level, descending, so the first target of a
    cell gives its maximum, and a source is covered when some target of its
    3^dim block of cells reaches its level: then its distance is at most
    cover.  The uncovered sources go first.  Each visits the next Chebyshev
    ring of cells around its own, reads the targets at or above its level in
    the cells whose maximum reaches it, and is settled once its least
    squared distance is at most the squared distance to the edge of the
    searched block, less a margin for the rounding of the cell indices; it
    leaves earlier once that least distance cannot raise the value (early
    break; Taha and Hanbury, 2015).  Then, only while the value is below
    cover, the covered sources search the same way; the second direction
    starts from the first one's value.  Squared distances are the table's
    own arithmetic (the gaps squared and summed in axis order), so the value
    is bit-equal.  When the next ring's cell visits, or the targets it would
    read, take the work of a group past _RING_WORK per point of both
    supports, its sources left go through the table sweep of _directed_d1 at
    once: crowded cells and far targets cost no more than a bounded detour.
    """
    pts = [space.coords[s1].T.copy(), space.coords[s2].T.copy()]  # one contiguous row per axis
    dim = pts[0].shape[0]
    lo = np.minimum(pts[0].min(axis=1), pts[1].min(axis=1))
    span = np.maximum(pts[0].max(axis=1), pts[1].max(axis=1)) - lo
    h = _cell_width(span, max(s1.size, s2.size))
    k = np.maximum(np.ceil(span / h), 1).astype(np.intp)  # cells per axis
    stride = np.cumprod(np.concatenate(([1], k[:0:-1])))[::-1]
    n_cells = int(k.prod())
    # the margin exceeds the rounding of u / h and of the sums below, so a
    # point's gap to the edges of its own cell on each axis is at least its
    # side; a target outside the searched block has a gap of at least the
    # edge on some axis, and as rounding is monotone its squared distance is
    # at least reach * reach.  A target of a covered source lies in the next
    # cell on each axis at most, so its gap is at most 2h + margin there and
    # its distance at most cover, again by monotone rounding
    margin = 2.0**-40 * (span + h)
    cover = math.sqrt(sum(g * g for g in (2.0 * h + margin).tolist()))  # summed in axis order
    grid = []
    for p in pts:
        u = p - lo[:, None]
        c = np.minimum(np.floor(u / h), k[:, None] - 1).astype(np.intp)
        # distance to the lower and upper edge of the own cell on each axis, and
        # the rings after which that side of the block is the edge of the grid
        side = np.concatenate([u - c * h, (c + 1) * h - u]) - np.tile(margin, 2)[:, None]
        grid.append((c, stride @ c, side, np.concatenate([c, k[:, None] - 1 - c])))
    directions = []
    for i, s_from, l_from, s_to, l_to in ((0, s1, l1, s2, l2), (1, s2, l2, s1, l1)):
        levels, rank = np.unique(-l_to, return_inverse=True)  # rank 0: the highest level
        key = grid[1 - i][1] * levels.size + rank
        by = np.argsort(key)  # the order inside a (cell, rank) run changes no minimum
        y, rank = pts[1 - i][:, by], rank[by]
        first = np.searchsorted(key[by], np.arange(n_cells + 1) * levels.size)
        top = np.full(n_cells + 1, levels.size)  # rank of each cell's first target; the last
        full = first[:-1] < first[1:]  # entry stands for every cell off the grid
        top[:-1][full] = rank[first[:-1][full]]
        block = top[:-1].reshape(k)  # the best rank of each cell's 3^dim block, axis by axis
        for a in range(dim):
            was = np.moveaxis(block, a, 0)
            near = was.copy()
            np.minimum(near[1:], was[:-1], out=near[1:])
            np.minimum(near[:-1], was[1:], out=near[:-1])
            block = np.moveaxis(near, 0, a)
        need = np.searchsorted(levels, -l_from, side="right")  # target ranks below this qualify
        covered = block.reshape(-1)[grid[i][1]] < need
        directions.append((pts[i], *grid[i], y, rank, first, top, need, covered, s_from, l_from, s_to, l_to))
    budget, value = _RING_WORK * (s1.size + s2.size), 0.0
    for group in (False, True):  # the uncovered sources of both directions, then the covered
        for x, c, home, side, last, y, rank, first, top, need, covered, s_from, l_from, s_to, l_to in directions:
            if group and value >= cover:
                return value
            active = np.flatnonzero(covered == group)
            best = np.full(s_from.size, np.inf)  # least squared distance found
            work, r = 0, 0 if group else 2  # no target of an uncovered source lies within ring 1
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
                b = best[active]
                value = max(value, math.sqrt(np.max(b, where=b <= reach * reach, initial=0.0)))
                active = active[np.sqrt(b) > value]  # the settled, and those that cannot raise it, leave
                r += 1
            if active.size:
                value = max(value, _directed_d1(space, s_from[active], l_from[active], s_to, l_to))
    return value


class _Workspace:
    """One buffer for the chunk-sized temporaries of a batch call.

    take() hands out views of it in stack order, and a `with` block gives
    back what was taken inside it: each step of a chunk reuses the memory
    of the step before, and each chunk the pages of the chunk before.  A
    take past the end of the buffer gets an array of its own.
    """

    def __init__(self, entries: int):
        self._buf = np.empty(entries)
        self._top, self._marks = 0, []

    def take(self, shape, dtype=float) -> np.ndarray:
        dtype = np.dtype(dtype)
        count = math.prod(shape) if isinstance(shape, tuple) else shape
        words = -(-count * dtype.itemsize // 8)
        if self._top + words > self._buf.size:
            return np.empty(shape, dtype)
        view = self._buf[self._top : self._top + words].view(np.uint8)
        self._top += words
        return view[: count * dtype.itemsize].view(dtype).reshape(shape)

    def __enter__(self):
        self._marks.append(self._top)

    def __exit__(self, *exc):
        self._top = self._marks.pop()


def _count_up(out) -> np.ndarray:
    """Fill an integer array with 0, 1, 2, ... in place."""
    out[:1] = 0
    out[1:] = 1
    return np.add.accumulate(out, out=out)


def _line_layout(space, pairs, depth, work):
    """Chunks of line pairs, each pair on its merged supports in the space's point order.

    A chunk is the most pairs (one at least) whose depth rows of both
    densities over all n points fit spaces._BLOCK_ELEMS entries, so it has
    at most cap = (pairs per chunk) * n merged points.  The call has one
    _Workspace: five rows of cap + 1 entries for pid and the table, then
    the larger of the six rows that building a chunk's table takes and the
    work(cap) entries that the caller takes per chunk.  Yields, in pair
    order, the pair pid of each merged point, each pair's run [starts,
    ends), a table (rows: the coordinate shifted by the run's first point,
    the coordinate, l1, l2; a last column of levels -inf at 0) and the
    workspace; what the caller takes from it for a chunk is given back at
    the next chunk.  Index compaction, which numpy gives no out= for, reads
    the chunk's support mask in pieces of spaces._FRESH_ELEMS entries (a row
    at least), so that no index array of its own meets the mmap threshold.
    """
    n = space.n_points
    step = max(1, spaces._BLOCK_ELEMS // (2 * depth * n))
    cap = min(step, len(pairs)) * n
    ws = _Workspace(5 * (cap + 1) + max(6 * (cap + 1), work(cap)))
    pid_rows, table_rows = ws.take(cap, np.intp), ws.take(4 * (cap + 1))
    piece = max(1, spaces._FRESH_ELEMS // n)  # rows of the support mask per compaction
    for lo in range(0, len(pairs), step):
        chunk = [mu.density for pair in pairs[lo : lo + step] for mu in pair]
        k = len(chunk) // 2
        with ws:
            dens = np.stack(chunk, out=ws.take((2 * k, n)))
            merged, other = ws.take((k, n), bool), ws.take((k, n), bool)
            np.greater(dens[0::2], NEG_INF, out=merged)
            np.logical_or(merged, np.greater(dens[1::2], NEG_INF, out=other), out=merged)
            np.take(merged, space.order, axis=1, out=other, mode="clip")
            size = int(np.count_nonzero(other))
            flat, point = ws.take(size, np.intp), ws.take(size, np.intp)
            done = 0
            for r in range(0, k, piece):
                at = np.flatnonzero(other[r : r + piece])
                np.add(at, r * n, out=flat[done : done + at.size])
                done += at.size
            pid = pid_rows[:size]
            np.divmod(flat, n, out=(pid, flat))
            np.take(space.order, flat, out=point, mode="clip")
            starts = np.searchsorted(pid, np.arange(k))
            table = table_rows[: 4 * (size + 1)].reshape(4, size + 1)
            table[:, size] = (0.0, 0.0, NEG_INF, NEG_INF)
            np.take(space.coords[:, 0], point, out=table[1, :size], mode="clip")
            np.take(table[1, starts], pid, out=table[0, :size], mode="clip")
            np.subtract(table[1, :size], table[0, :size], out=table[0, :size])
            point += np.multiply(pid, 2 * n, out=flat)  # the point in row 2 pid of dens
            np.take(dens, point, out=table[2, :size], mode="clip")
            point += n
            np.take(dens, point, out=table[3, :size], mode="clip")
        with ws:
            yield pid, starts, np.append(starts[1:], size), table, ws


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
    row inside their pair's run, through a range-maximum table in the layout's workspace."""
    out, lo, bits = np.zeros(len(pairs)), 0, space.n_points.bit_length()
    for pid, starts, ends, table, ws in _line_layout(space, pairs, bits, lambda cap: bits * cap):
        size, depth = pid.size, int((ends - starts).max()).bit_length()
        rmq = ws.take((depth, size))
        value = out[lo : lo + starts.size]
        lo += starts.size
        for source, target in ((2, 3), (3, 2)):
            rmq[0] = table[target, :size]
            pos = np.flatnonzero(table[source, :size] > NEG_INF)
            run = np.searchsorted(pos, starts)  # every support has a point
            count = np.diff(run, append=pos.size)
            first, end = np.repeat(starts, count), np.repeat(ends, count)
            near = _line_nearest(table[1, :size], rmq, pos, table[source, pos], first, end)
            np.maximum(value, np.maximum.reduceat(near, run), out=value)
    return out


def coupling_distances(pairs: Sequence[Pair]) -> list[float]:
    """Bottleneck coupling distance d1 of each pair; all measures on one space.

    The least threshold whose maximal coupling meets the marginals
    (coupling_feasible) is the directed level-set value max(max_x min {d(x, y) :
    lambda2(y) >= lambda1(x)}, and the mirror term); it is a realized
    support-pair distance, so also the largest distance in the support of
    the optimal maximal coupling.  On the line the batch is one exact kernel
    (_line_d1).  On 2-D and 3-D Euclidean spaces a pair whose support table
    has more than spaces._BLOCK_ELEMS entries takes the plane kernel
    (_plane_d1), numpy only.  Elsewhere, for smaller pairs, and for the
    sources left past the ring budget, each term is one sweep of the support
    distance table over level-ordered prefixes (_directed_d1), in row
    blocks: at most one pass over the table.
    """
    if not pairs:
        return []
    space = _batch_space(pairs)
    if space.line:
        return _line_d1(space, pairs).tolist()
    plane = space.euclidean and space.coords.shape[1] in (2, 3)
    out = []
    for mu1, mu2 in pairs:
        s1, s2, l1, l2 = _supports(mu1, mu2)
        if plane and s1.size * s2.size > spaces._BLOCK_ELEMS:
            out.append(_plane_d1(space, s1, l1, s2, l2))
        else:
            out.append(max(_directed_d1(space, s1, l1, s2, l2), _directed_d1(space, s2, l2, s1, l1)))
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


def _line_frames(both, x, starts, ends, pid, levels, ws):
    """The kind of each (pair, level) of the line kernel, and the frames of its blocks.

    both (l1, l2), x (shifted), starts, ends, pid and the workspace ws come
    from _line_layout.  A (pair, level) is steep when a gmin > 2 spread,
    flat when at most a quarter of the points reach -a D, and tight when it
    is flat and at most a thirty-second of them do (gmin the least gap, D
    the span, spread the depth of both densities), with margins of 2^-40
    and 2^-1000.  Every other level is middle.  Each pair has three frames:
    the middle frame, all its points; the flat frame, its points at or
    above the largest reach -a D of its flat levels; and the tight frame,
    the same over its tight levels.  A tight level reads the tight frame,
    any other flat level the flat frame, and steep rows read no frame
    (_line_steep).  Each frame holds every point at or above its level's
    own reach, which is all that the level's row needs: why, and why the
    extra points never change the row, is in _line_deltas.  Returns the
    frames as runs of elements (elements, first, length; elements end with
    size, the table's column of levels -inf, and are taken from ws), the
    frame of each (pair, level), -1 where steep, and spread and D per pair.
    A pair whose D and spread fail _check_level at the largest level is
    refused.
    """
    k, m, size = starts.size, ends - starts, x.size
    span = x[ends - 1]
    with ws:
        finite = ws.take(both.shape)
        np.copyto(finite, both)
        np.copyto(finite, 0.0, where=np.equal(both, NEG_INF, out=ws.take(both.shape, bool)))
        spread = 0.0 - np.minimum.reduceat(finite, starts, axis=1).min(axis=0)
        with np.errstate(over="ignore"):  # an overflow here is refused just below
            worst = int(np.argmax(levels.max() * span + spread))
        _check_level(float(levels.max()), float(span[worst]), float(spread[worst]))
        gap = ws.take(size)
        np.subtract(x[1:], x[:-1], out=gap[:-1])
        gap[-1] = np.inf
        gap[ends - 1] = np.inf
        gmin = np.where(m > 1, np.minimum.reduceat(gap, starts), 0.0)[:, None]
        a, d, w = levels[None, :], spread[:, None], span[:, None]
        steep = a * gmin > _steep_bound(a, d, w)
        reach = a * w * (1.0 + _MARGIN) + _TINY
        # the (m // 4 + 1)-th and (m // 32 + 1)-th largest of max(l1, l2), by a
        # sort of padded rows
        top = np.maximum(both[0], both[1], out=ws.take(size))
        wide = int(m.max())
        table = ws.take((k, wide))
        table.fill(NEG_INF)
        table[np.less(np.arange(wide), m[:, None], out=ws.take((k, wide), bool))] = top
        table.sort(axis=1)
        flat = ~steep & (reach < -table[np.arange(k), -1 - m // 4, None])
        tight = flat & (reach < -table[np.arange(k), -1 - m // 32, None])
        middle = ~steep & ~flat
        kept = []  # the points of the flat, then the tight, frames, by pair
        for kind in (flat, tight):
            bar = -np.max(np.where(kind, reach, -np.inf), axis=1)  # inf where none
            bar = np.take(bar, pid, out=ws.take(size), mode="clip")
            kept.append(np.flatnonzero(np.greater_equal(top, bar, out=ws.take(size, bool))))
    elements = ws.take(size + kept[0].size + kept[1].size + 1, np.intp)
    _count_up(elements[:size])  # every point of every pair: the middle frames
    np.concatenate(kept, out=elements[size:-1])
    elements[-1] = size
    length = np.concatenate([m, *(np.bincount(pid[f], minlength=k) for f in kept)])
    first = np.cumsum(length) - length
    length[:k] *= middle.any(axis=1)
    p = np.arange(k)[:, None]
    frame = np.where(tight, 2 * k + p, np.where(flat, k + p, np.where(middle, p, -1)))
    return elements, first, length, frame, spread, span


def _steep_bound(a, spread, span):
    """2 spread, past every rounding of the line kernel's values at level a and of
    its point gaps: a (pair, level) is steep when a gmin exceeds it."""
    return 2.0 * spread + _MARGIN * (spread + a * span) + _TINY


def _line_steep(both, x, coord, starts, ends, pid, levels, steep, spread, span, delta, ws) -> None:
    """Fill delta[:, p, l] with (delta12, delta21) of each steep (pair p, level l).

    both holds l1 and l2 of the chunk, x and coord the shifted and the
    plain coordinates, each with the table's last column (levels -inf at
    coordinate 0: no target), and ws is the workspace, as in _line_frames.
    At a steep level every target beyond a nearer one on the same side
    trails it by at least a gmin - spread > spread at every point, so the
    inner maximum of a source is the larger of the dense formula's terms of
    its nearest target on either side, and a source that is a target is its
    own nearest, at distance 0.  A source's value lies within spread of a near, near its
    distance to its nearest target, so a source with
    a (far - near) > _steep_bound, far the largest near, never wins.  That
    bound over a falls as a grows, so the sources kept once per pair, at
    its least steep level, hold every steep level's winners.  Each steep
    level takes one vector pass over the kept sources of the chunk, by the
    dense formula's own arithmetic against their two nearest targets, and
    one maximum per pair: the dense maximum over all merged points.
    """
    size = x.size - 1
    has = steep.any(axis=1)
    pairs = np.flatnonzero(has)
    # far - near at most the bound over a at the pair's least steep level,
    # widened past its own rounding
    amin = np.min(np.where(steep[has], levels, np.inf), axis=1)
    slack = np.full(starts.size, -1.0)
    slack[has] = _steep_bound(amin, spread[has], span[has]) / amin * (1.0 + _MARGIN)
    with ws:
        idx = _count_up(ws.take(size, np.intp))
        first_of, end_of, left, right = (ws.take(size, np.intp) for _ in range(4))
        np.take(starts, pid, out=first_of, mode="clip")
        np.take(ends, pid, out=end_of, mode="clip")
        lower, upper, near = (ws.take(size) for _ in range(3))
        is_to, out = ws.take(size, bool), ws.take(size, bool)
        for d in (0, 1):
            lf, g = both[d, :size], both[1 - d]
            np.greater(g[:-1], NEG_INF, out=is_to)
            # the nearest target on each side, the point itself if it is a
            # target: where(is_to, idx, -1) and where(is_to, idx, size), by
            # integer arithmetic, which no random mask slows down
            np.add(idx, 1, out=left)
            left *= is_to
            left -= 1
            np.maximum.accumulate(left, out=left)
            np.copyto(left, size, where=np.less(left, first_of, out=out))
            np.subtract(idx, size, out=right)
            right *= is_to
            right += size
            np.minimum.accumulate(right[::-1], out=right[::-1])
            np.copyto(right, size, where=np.greater_equal(right, end_of, out=out))
            np.subtract(x[:size], np.take(x, left, out=lower, mode="clip"), out=lower)
            np.copyto(lower, np.inf, where=np.equal(left, size, out=out))
            np.subtract(np.take(x, right, out=upper, mode="clip"), x[:size], out=upper)
            np.copyto(upper, np.inf, where=np.equal(right, size, out=out))
            np.minimum(lower, upper, out=near)  # finite: every pair has a target
            source = np.greater(lf, NEG_INF, out=is_to)
            # the largest near over the pair's sources; 0 at the others is no larger
            far = np.maximum.reduceat(np.multiply(near, source, out=upper), starts)
            np.subtract(np.take(far, pid, out=upper, mode="clip"), near, out=upper)
            np.less_equal(upper, np.take(slack, pid, out=lower, mode="clip"), out=out)
            src = np.flatnonzero(np.logical_and(out, source, out=out))
            seg = np.searchsorted(pid[src], pairs)  # each steep pair keeps its farthest source
            # the level and distance of the nearest target on each side; a missing
            # target reads distance 0 at level -inf
            lf_src, t = lf[src], np.stack([left[src], right[src]])
            gt, dt = g[t], np.abs(coord[src] - coord[np.where(t < size, t, src)])
            best = np.empty((pairs.size, levels.size))
            for k in np.flatnonzero(steep.any(axis=0)):
                value = lf_src - (gt - levels[k] * dt).max(axis=0)
                np.maximum.reduceat(value, seg, out=best[:, k])
            delta[d, pairs] = np.where(steep[has], best, delta[d, pairs])


def _dense_inner(x, c, g, a, work) -> np.ndarray:
    """max_j (g[i, j] - a[i] |x[i] - c[i, j]|) of each row i, by the dense formula's own
    arithmetic, worked in the first rows of work."""
    w = work[: c.shape[0]]
    np.subtract(x[:, None], c, out=w)
    np.abs(w, out=w)
    with np.errstate(over="ignore"):  # only padding, at coordinate 0: every |x - y| <= D
        w *= a
    np.subtract(g, w, out=w)
    return w.max(axis=1)


def _line_deltas(space, pairs, levels) -> np.ndarray:
    """(delta12, delta21) of each pair at each level on the line: a (2, P, L) array.

    Each (pair, direction, level) row ranks the sources of a frame of the
    pair's merged supports, in point order and shifted by the first point
    of those supports, by cone envelopes: a forward fmax.accumulate(g +
    a x) - a x over the targets' levels g, its mirror, and the y = x term
    give max_y (lam_to(y) - a |x - y|) at every source x, and lam_from(x)
    minus that ranks x.  A rank lies within _MARGIN (a D + spread) + _TINY
    of the dense formula's value of its source (D the span and spread the
    depth of the pair), far past the rounding of the shifted a x, of the
    scans and of the dense arithmetic, so the source of the dense maximum
    ranks within twice that of the row's top rank.  Every source ranked
    in that band is finished by the dense formula's own arithmetic over
    the frame's targets, and the row is the largest of them.  The frame
    is all merged points on middle levels.  On flat levels it is the
    pair's flat or tight frame, which holds every point at or above the
    level's own reach -a D: a target below that reach, in the frame or
    not, stays below the top target's term at every point, so never
    reaches an inner maximum, and a source below it stays below 0, which
    the top source reaches.  So a frame cut at a looser level's reach,
    which holds more points, gives the same row.  Steep rows take
    no frame: _line_steep keeps the sources that can win once per pair and
    reads, per steep level, each kept source's two nearest targets.
    The margins cover every rounding these bounds skip, so each row is the
    dense maximum over all merged points, bit for bit.
    Frames of similar length share a block of at most _LINE_CELLS cells
    (one row at least), padded past their ends with -inf levels.  Every
    chunk-sized temporary, of the frames, the steep pass and the blocks,
    is a view of the call's one workspace (_line_layout), and the
    envelopes scan whole rows of contiguous buffers, so no numpy iterator
    buffers a strided operand.
    """
    n, levels_at = space.n_points, levels.size
    out, lo = np.empty((2, len(pairs), levels_at)), 0

    def work(cap):  # elements, delta, then the steep pass or a block; _line_frames takes less
        # a block's 12 words a cell: no more cells than the chunk's rows, 2 L a pair, of n at most
        block = 12 * min(max(_LINE_CELLS, n), 2 * levels_at * cap)
        return 3 * cap + 1 + 2 * levels_at * (cap // n) + max(9 * (cap + 1), block)

    for pid, starts, ends, table, ws in _line_layout(space, pairs, 1, work):
        size, k = pid.size, starts.size  # rows 3 - d and 2 + d: target and source levels of d
        elements, first, length, frame, spread, span = _line_frames(
            table[2:, :size], table[0, :size], starts, ends, pid, levels, ws
        )
        steep = frame < 0
        delta = ws.take((2, k, levels_at))
        if steep.any():
            _line_steep(
                table[2:], table[0], table[1], starts, ends, pid, levels, steep, spread, span, delta, ws
            )
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
        index, scratch = ws.take(2 * need, np.intp), ws.take(10 * need)  # every block reuses them
        delta = delta.reshape(-1)  # in row order: (direction, pair, level)
        for r0, r1 in blocks:
            r = rows[r0:r1]
            frames = by_len[row_rank[r0] : row_rank[r1 - 1] + 1]
            local = row_rank[r0:r1] - row_rank[r0]
            nf, cols, nr = frames.size, int(length[frames[-1]]), r.size
            col = np.arange(cols)
            at = index[: nf * cols].reshape(nf, cols)
            np.add(first[frames, None], col, out=at)
            at[col >= length[frames, None]] = elements.size - 1  # the -inf column
            out_at = index[need : need + nf * cols].reshape(nf, cols)
            at = np.take(elements, at, out=out_at, mode="clip")
            # the table's rows over each frame, then six row buffers
            frame_rows = scratch[: 4 * nf * cols].reshape(4, nf, cols)
            np.take(table, at, axis=1, out=frame_rows, mode="clip")
            frame_rows = frame_rows.reshape(4 * nf, cols)
            ax, g, lf, inner, s, t = (
                scratch[j * need : j * need + nr * cols].reshape(nr, cols) for j in range(4, 10)
            )
            d, a = r // steep.size, levels[r % levels.size, None]
            np.take(frame_rows, local, axis=0, out=ax, mode="clip")
            ax *= a
            np.take(frame_rows, (3 - d) * nf + local, axis=0, out=g, mode="clip")
            np.take(frame_rows, (2 + d) * nf + local, axis=0, out=lf, mode="clip")
            # the envelopes over whole rows, shifted as flat arrays (no strided
            # operand, so no iterator buffer): what crosses a row end is never
            # read, is overwritten, or meets -inf in a maximum
            ft, fa, fi = t.reshape(-1), ax.reshape(-1), inner.reshape(-1)
            np.add(g, ax, out=s)
            np.fmax.accumulate(s, axis=1, out=t)
            ft[:-1] -= fa[1:]
            np.maximum(g.reshape(-1)[1:], ft[:-1], out=fi[1:])
            inner[:, 0] = g[:, 0]
            np.subtract(g, ax, out=s)
            np.fmax.accumulate(s[:, ::-1], axis=1, out=t[:, ::-1])
            ft[1:] += fa[:-1]
            t[:, 0] = -np.inf
            np.maximum(fi[:-1], ft[1:], out=fi[:-1])
            np.subtract(lf, inner, out=s)
            row, best = np.arange(nr), np.argmax(s, axis=1)
            p = r % steep.size // levels.size
            band = s[row, best] - 2.0 * (_MARGIN * (a[:, 0] * span[p] + spread[p]) + _TINY)
            near = s >= band[:, None]
            near[row, best] = False  # the other sources ranked in the band: few
            e_row, e_col = np.divmod(np.flatnonzero(near), cols)
            c = np.take(frame_rows, nf + local, axis=0, out=ax, mode="clip")  # ax is spent
            delta[r] = lf[row, best] - _dense_inner(c[row, best], c, g, a, s)
            for e0 in range(0, e_row.size, nr):  # at most nr rows of buffers at once
                e, col = e_row[e0 : e0 + nr], e_col[e0 : e0 + nr]
                ce = np.take(c, e, axis=0, out=t[: e.size], mode="clip")
                ge = np.take(g, e, axis=0, out=inner[: e.size], mode="clip")
                np.maximum.at(delta, r[e], lf[e, col] - _dense_inner(c[e, col], ce, ge, a[e], s))
        out[:, lo : lo + k] = delta.reshape(2, k, levels_at)
        lo += k
    return out


def _directed_deltas(space, lam_from, lam_to, levels) -> np.ndarray:
    """max_x [lam_from(x) - max_y (lam_to(y) - a d(x, y))] at every level a, in one pass.

    Targets by level, descending (stable): an earlier target at most as far
    is at least as high, and rounding is monotone, so at any a only those
    nearer than all earlier ones, the source's staircase (Kung, Luccio and
    Preparata, 1975), can reach its inner maximum.  A running minimum per
    source over the row blocks of d(targets, sources) marks them; every
    level reads them alone, by the dense formula's own arithmetic in chunks
    of spaces._BLOCK_ELEMS values: bit-equal, O(|s_from| |s_to| + levels * entries).
    """
    s_from, s_to = np.flatnonzero(lam_from > NEG_INF), np.flatnonzero(lam_to > NEG_INF)
    targets = s_to[np.argsort(-lam_to[s_to], kind="stable")]
    low, inner = np.full(s_from.size, np.inf), np.full((levels.size, s_from.size), NEG_INF)
    for rows, d in space._row_blocks(targets, s_from):
        on = np.empty(d.shape, dtype=bool)
        for k, row in enumerate(d):
            np.less(row, low, out=on[k])
            np.minimum(low, row, out=low)
        at = np.flatnonzero(on)
        at = at[np.argsort(at % s_from.size, kind="stable")]  # by source, then by target
        cols, first = np.unique(at % s_from.size, return_index=True)
        dist, lam = d.reshape(-1)[at], lam_to[rows[at // s_from.size]]
        step = max(1, spaces._BLOCK_ELEMS // (at.size + 1))  # + 1: a block may hold no entry
        for lo in range(0, levels.size, step):
            best = np.maximum.reduceat(lam - levels[lo : lo + step, None] * dist, first, axis=1)
            np.maximum(best, inner[lo : lo + step, cols], out=best)
            inner[lo : lo + step, cols] = best
    np.subtract(lam_from[s_from], inner, out=inner)
    return inner.max(axis=1)


def _depth(pairs: Sequence[Pair]) -> float:
    """Minus the lowest finite density of the pairs' measures."""
    return 0.0 - min(float(mu.density[mu.support()].min()) for pair in pairs for mu in pair)


def _dual_distances(pairs: Sequence[Pair], levels) -> np.ndarray:
    """d_a = max(0, delta12, delta21) of each pair (rows) at each level a (columns).

    The inner maximum of delta12 = max_x [lambda1(x) - max_y (lambda2(y) -
    a d(x, y))] is a distance transform of lambda2 with cone slope a.  On
    the line the whole batch is one _line_deltas call; elsewhere each pair
    takes one _directed_deltas pass per direction, after _check_level on the
    space's diameter and the deepest pair (the line kernel checks its own span).
    """
    levels = np.asarray(levels, dtype=float)
    space = _batch_space(pairs)
    if space.line:
        d12, d21 = _line_deltas(space, pairs, levels)
    else:
        _check_level(float(levels.max()), space.diameter(), _depth(pairs))
        d12 = np.array([_directed_deltas(space, m.density, n.density, levels) for m, n in pairs])
        d21 = np.array([_directed_deltas(space, n.density, m.density, levels) for m, n in pairs])
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
    N = params.n_terms(diam, depth), depth minus the lowest finite density
    of the batch, certifies the tail 2 * diam * q^(N+1) / (1 - q) <= tol,
    and refuses levels that the kernels cannot take.  The partial sum is a
    lower estimate; the true value lies within [value, value + tail_bound].
    All 2N+1 levels of every pair come from one _dual_distances call;
    terms are accumulated in ascending |n| for determinism.
    """
    if not pairs:
        return []
    space = _batch_space(pairs)
    diam = space.diameter()
    if diam == 0.0:
        return [SeriesValue(0.0, 0.0, 0) for _ in pairs]
    q, alpha = params.q, params.alpha
    n_terms = params.n_terms(diam, _depth(pairs))
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
