"""Slow exact routes kept as test oracles for the production kernels."""

from __future__ import annotations

import math

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


# ---------------------------------------------------------------------------
# density files and the seeded stream, one point at a time
# ---------------------------------------------------------------------------

def as_scalar(value) -> float:
    """Coerce to a valid semiring scalar, rejecting NaN and +inf."""
    x = float(value)
    if math.isnan(x):
        raise ValueError("NaN is not a max-plus scalar")
    if x == math.inf:
        raise ValueError("+inf is not a max-plus scalar")
    return x


def format_scalar(a: float, digits: int = 17) -> str:
    """Render a scalar for text files; -inf becomes the `-inf` token.

    17 significant digits round-trip any double exactly.
    """
    if a == NEG:
        return "-inf"
    return f"{a:.{digits}g}"


def parse_scalar(token: str) -> float:
    """Inverse of format_scalar; NaN and +inf are refused."""
    return NEG if token == "-inf" else as_scalar(token)


def write_density_file_lines(path, mu) -> None:
    """Density file written line by line, one format_scalar per entry."""
    space = mu.space
    with open(path, "w") as fh:
        fh.write(f"space {space.n_points}\n")
        for i in range(space.n_points):
            parts = [str(i)]
            if space.coords is not None:
                parts.extend(format_scalar(c) for c in space.coords[i])
            parts.append(format_scalar(mu.density[i]))
            fh.write(" ".join(parts) + "\n")


def read_density_file_lines(path, space=None):
    """Density file parsed line by line in Python.

    Known gaps, closed in the production reader: Python's int and float
    read spellings outside numpy's grammar (1_0, non-ASCII digits); a line
    number counts only the point lines above it, not blank lines; a later
    line without coordinate columns is placed at coordinate 0; a bare index
    line reads as density equal to its index; a density that is all below 0
    fails without the path, and so does a space built from bad coordinates;
    coordinates are compared to a given space with an absolute tolerance of
    1e-12, so below that scale any coordinates agree (on a grid from 0 to
    1e-150 in 2 cells, a point at 9e-151 passes for 5e-151).
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
    values = np.full(n, NEG)
    coords = None
    seen = set()
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
        cols = parts[1:-1]
        if coords is None:
            coords = [[0.0] * len(cols) for _ in range(n)] if cols else None
        if cols and (coords is None or len(cols) != len(coords[idx])):
            raise ValueError(f"{path}:{lineno}: inconsistent coordinate columns")
        try:
            values[idx] = parse_scalar(parts[-1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad density value") from exc
        if values[idx] > 0.0:
            raise ValueError(f"{path}:{lineno}: density entries must be <= 0")
        for tok in cols:
            try:
                float(tok)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad coordinate {tok!r}") from exc
        if cols:
            coords[idx] = [float(tok) for tok in cols]
    if space is None:
        if coords is None:
            raise ValueError(f"{path}: no coordinate columns; pass the space explicitly")
        space = mp.FiniteMetricSpace.from_coords(np.asarray(coords))
    elif coords is not None and space.coords is not None:
        got = np.asarray(coords)
        if got.shape != space.coords.shape or not np.allclose(
            got, space.coords, rtol=1e-12, atol=1e-12
        ):
            raise ValueError(f"{path}: coordinates disagree with the given space")
    return mp.IdempotentMeasure(space, values)


def random_measure_scalar(space, rng, support_prob=0.7, depth=3.0, points=None):
    """random_measure with one Lcg64.uniform call per draw."""
    candidates = np.arange(space.n_points) if points is None else np.asarray(points, int)
    raw = np.full(space.n_points, NEG)
    for i in candidates:
        if rng.uniform() < support_prob:
            raw[i] = rng.uniform(-depth, 0.0)
    if not np.any(raw > NEG):
        raw[candidates[rng.randint(candidates.size)]] = rng.uniform(-depth, 0.0)
    return mp.normalize(space, raw)


def _envelope_rows(lam_from, lam_to, u, ax):
    """Per level row of ax, the point of u ranked first by cone envelopes.

    u is the merged supports in point order and ax[k] = a[k] * (x - x[0]);
    max_y (lam_to(y) - a |x - y|) is the larger of the forward pass
    fmax.accumulate(g + a x) - a x, its mirror, and the y = x term.
    """
    g = lam_to[u]
    inner = np.broadcast_to(g, ax.shape).copy()
    fwd = np.fmax.accumulate(g[:-1] + ax[:, :-1], axis=1) - ax[:, 1:]
    bwd = np.fmax.accumulate((g - ax)[:, :0:-1], axis=1)[:, ::-1] + ax[:, :-1]
    np.maximum(inner[:, 1:], fwd, out=inner[:, 1:])
    np.maximum(inner[:, :-1], bwd, out=inner[:, :-1])
    return u[np.argmax(lam_from[u] - inner, axis=1)]


def line_deltas_per_pair(space, lam1, lam2, levels) -> tuple[np.ndarray, np.ndarray]:
    """(delta12, delta21) at every level on the line, one pair at a time.

    Both directions share the frame of the merged supports; each evaluates
    the dense formula only at the row its envelope ranks first.
    """
    f1, f2 = lam1 > NEG, lam2 > NEG
    s1, s2 = np.flatnonzero(f1), np.flatnonzero(f2)
    u = space.order[(f1 | f2)[space.order]]
    x = space.coords[u, 0] - space.coords[u[0], 0]
    a = np.asarray(levels, dtype=float)[:, None, None]
    ax = a[:, :, 0] * x
    out = []
    for lf, lt, s_to in ((lam1, lam2, s2), (lam2, lam1, s1)):
        rows = _envelope_rows(lf, lt, u, ax)
        d = space.distance_submatrix(rows, s_to)[:, None, :]
        out.append(lf[rows] - np.max(lt[s_to] - a * d, axis=2)[:, 0])
    return out[0], out[1]


def diameter_sweep(space) -> float:
    """Largest entry of the distance table, read in blocks of rows."""
    return max(float(d.max()) for _, d in space._row_blocks())
