"""Slow exact routes kept as test oracles for the production metric kernels."""

from __future__ import annotations

import numpy as np

import maxplus_ifs as mp

NEG = float("-inf")


def threshold_d1(mu1, mu2) -> float:
    """Coupling distance by binary search over candidate thresholds.

    The smallest support-pair distance (or 0) at which the maximal coupling
    satisfies both marginals, found with coupling_feasible; then the largest
    support-pair distance within it, i.e. the largest distance realized in
    the support of the optimal maximal coupling.
    """
    s1, s2 = mu1.support(), mu2.support()
    d = mu1.space.distance_submatrix(s1, s2)
    cands = np.unique(np.concatenate([[0.0], d.ravel()]))
    lo, hi = 0, cands.size - 1
    assert mp.coupling_feasible(mu1, mu2, float(cands[hi]))
    while lo < hi:
        mid = (lo + hi) // 2
        if mp.coupling_feasible(mu1, mu2, float(cands[mid])):
            hi = mid
        else:
            lo = mid + 1
    below = d[d <= cands[lo]]
    return float(below.max()) if below.size else 0.0


def _lipschitz_delta(l_from, l_to, d, a):
    """max_x [l_from(x) - max_y (l_to(y) - a * d(x, y))] over support tables."""
    inner = np.max(l_to[None, :] - a * d, axis=1)
    return float(np.max(l_from - inner))


def dense_deltas(mu1, mu2, a: float) -> tuple[float, float]:
    """Both directed parts of d_a from the full support distance table."""
    s1, s2 = mu1.support(), mu2.support()
    l1, l2 = mu1.density[s1], mu2.density[s2]
    d = mu1.space.distance_submatrix(s1, s2)
    return _lipschitz_delta(l1, l2, d, a), _lipschitz_delta(l2, l1, d.T, a)


def dense_dual(mu1, mu2, a: float) -> float:
    """d_a(mu1, mu2) by the per-level dense formula."""
    return max(*dense_deltas(mu1, mu2, a), 0.0)


def coupling_distance_bruteforce(mu1, mu2) -> float:
    """Exhaustive oracle: try every subset of support pairs as a coupling.

    For each subset A of supp(mu1) x supp(mu2), restrict the pointwise-min
    density to A, test the marginal conditions, and keep the best feasible
    max-distance.  Exponential in |A|; guarded at 16 cells.
    """
    if mu1.space is not mu2.space:
        raise ValueError("measures live on different spaces")
    s1, s2 = mu1.support(), mu2.support()
    l1, l2 = mu1.density[s1], mu2.density[s2]
    d = mu1.space.distance_submatrix(s1, s2)
    n_cells = s1.size * s2.size
    if n_cells > 16:
        raise ValueError(f"{n_cells} support pairs exceed the brute-force bound")
    minval = np.minimum(l1[:, None], l2[None, :]).ravel()
    dist = d.ravel()
    rows = np.repeat(np.arange(s1.size), s2.size)
    cols = np.tile(np.arange(s2.size), s1.size)
    n_masks = 1 << n_cells
    include = (np.arange(n_masks)[:, None] >> np.arange(n_cells)[None, :]) & 1 == 1
    ok = np.ones(n_masks, dtype=bool)
    for x in range(s1.size):
        cells = np.flatnonzero(rows == x)
        got = np.where(include[:, cells], minval[cells][None, :], NEG).max(axis=1)
        ok &= got == l1[x]
    for y in range(s2.size):
        cells = np.flatnonzero(cols == y)
        got = np.where(include[:, cells], minval[cells][None, :], NEG).max(axis=1)
        ok &= got == l2[y]
    if not ok.any():
        raise AssertionError("no feasible coupling subset exists")
    max_dist = np.where(include, dist[None, :], NEG).max(axis=1)
    return float(max_dist[ok].min())


def all_pairs_lip(space, target) -> float:
    """max over pairs i != j of d(f(i), f(j)) / d(i, j), by row blocks of the full table."""
    idx = np.arange(space.n_points)
    best = 0.0
    for lo in range(0, idx.size, 512):
        rows = idx[lo : lo + 512]
        d_in = space.distance_submatrix(rows, idx)
        d_in[np.arange(rows.size), rows] = np.inf  # i = j contributes 0
        d_out = space.distance_submatrix(target[rows], target)
        best = max(best, float(np.max(d_out / d_in)))
    return best


def coincident_pair_kdtree(coords):
    """Least pair i < j at computed distance 0, by a radius-0 k-d tree pair query."""
    from scipy.spatial import cKDTree

    pairs = cKDTree(np.asarray(coords, dtype=float)).query_pairs(0.0, output_type="ndarray")
    return min(map(tuple, pairs.tolist())) if pairs.size else None
