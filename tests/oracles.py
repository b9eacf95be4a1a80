"""Slow exact routes kept as test oracles for the production kernels."""

from __future__ import annotations

import math

import numpy as np

import maxplus_ifs as mp

NEG = float("-inf")


def feasible_sweep(mu1, mu2, t, d=None) -> bool:
    """Marginal conditions for the maximal coupling at threshold t, on the
    support distance table d (built when not given).

    Row x needs max_y eta(x, y) = lambda1(x); since min(l1, l2) never
    exceeds l1, that holds iff some y within t has lambda2(y) >= lambda1(x)
    (bottom rows are automatic).  Columns are symmetric.
    """
    s1, s2 = mu1.support(), mu2.support()
    l1, l2 = mu1.density[s1, None], mu2.density[s2]
    if d is None:
        d = mu1.space.distance_submatrix(s1, s2)
    near = d <= t
    return bool(((l2 >= l1) & near).any(axis=1).all() and ((l1 >= l2) & near).any(axis=0).all())


def threshold_d1(mu1, mu2) -> float:
    """Coupling distance by binary search over candidate thresholds.

    The smallest support-pair distance (or 0) at which the maximal coupling
    satisfies both marginals, found with feasible_sweep; then the largest
    support-pair distance within it, i.e. the largest distance realized in
    the support of the optimal maximal coupling.
    """
    s1, s2 = mu1.support(), mu2.support()
    d = mu1.space.distance_submatrix(s1, s2)
    cands = np.unique(np.concatenate([[0.0], d.ravel()]))
    lo, hi = 0, cands.size - 1
    assert feasible_sweep(mu1, mu2, float(cands[hi]), d)
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible_sweep(mu1, mu2, float(cands[mid]), d):
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


def two_sweep_lip(space, target) -> float:
    """discrete_lip in a sweep of its own: from neighbours on the line, else by row blocks."""
    if space.n_points == 1:
        return 0.0
    if space.line:
        x, order = space.coords[:, 0], space.order
        return float(np.max(np.abs(np.diff(x[target[order]])) / np.diff(x[order])))
    blocks = []
    for rows, d_in in space._row_blocks():
        d_in[np.arange(rows.size), rows] = np.inf
        ratio = space.distance_submatrix(target[rows], target)
        ratio /= d_in
        blocks.append(ratio.max())
    return float(np.max(blocks))


def two_sweep_certificate(space, target, witness):
    """The CertificateError message of a witness, or None, in a sweep of its own
    over the pairs i < j (the lower triangle masked), by row blocks."""
    n = space.n_points
    worst, pair = 0.0, None
    for rows, d_in in space._row_blocks():
        gap = space.distance_submatrix(target[rows], target)
        gap -= witness(d_in)
        gap[np.arange(n) <= rows[:, None]] = -np.inf
        k = int(np.argmax(gap))
        if gap.flat[k] > worst:
            worst, pair = float(gap.flat[k]), (int(rows[k // n]), k % n)
    if pair is None or worst <= mp.ifs._CERT_SLACK * max(1.0, space.diameter()):
        return None
    i, j = pair
    return (
        "contraction certificate fails: "
        f"d(f({i}), f({j})) = {space.dist(target[i], target[j]):.6g} "
        f"> witness(d({i}, {j})) = {float(witness(space.dist(i, j))):.6g} "
        f"(worst pair ({i}, {j}))"
    )


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

    Every point line has the columns of the first one (at least an index and
    a value).  Known gaps, closed in the production reader: Python's int and
    float read spellings outside numpy's grammar (1_0, non-ASCII digits); a
    line number counts only the point lines above it, not blank lines; a
    density that is all below 0 fails without the path, and so does a space
    built from bad coordinates; coordinates are compared to a given space
    with an absolute tolerance of 1e-12, so below that scale any coordinates
    agree (on a grid from 0 to 1e-150 in 2 cells, a point at 9e-151 passes
    for 5e-151).
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("space "):
        raise ValueError(f"{path}: missing 'space <n>' header")
    try:
        n = int(lines[0].split()[1])
        if n < 0:
            raise ValueError("negative point count")
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: bad space header: {lines[0]!r}") from exc
    if space is not None and space.n_points != n:
        raise ValueError(f"{path}: file has {n} points, space has {space.n_points}")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != n:
        raise ValueError(f"{path}: expected {n} point lines, found {len(body)}")
    values = np.full(n, NEG)
    width = max(2, len(body[0].split())) if body else 2
    coords = [[0.0] * (width - 2) for _ in range(n)] if width > 2 else None
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
        if 1 < len(parts) != width:  # a bare index has no value to count columns by
            raise ValueError(f"{path}:{lineno}: inconsistent coordinate columns")
        try:
            if len(parts) == 1:
                raise ValueError("no density value")
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


def diameter_sweep(space) -> float:
    """Largest entry of the distance table, read in blocks of rows."""
    return max(float(d.max()) for _, d in space._row_blocks())
