import itertools

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import maxplus_ifs as mp
from maxplus_ifs.metrics import (
    SeriesParams,
    _cell_width,
    _directed_d1,
    _directed_deltas,
    _dual_distances,
    _line_deltas,
    _line_nearest,
    _packed,
    _plane_d1,
)
from conftest import (
    EXTREME_LEVELS,
    NEG,
    cantor_ifs,
    np_random_measure,
    random_euclidean_space,
    random_matrix_space,
)
from oracles import (
    coupling_distance_bruteforce,
    dense_deltas,
    dense_dual,
    threshold_d1,
)


# --- maximal coupling and feasibility ----------------------------------------

def test_maximal_coupling_at_diameter_is_min_of_marginals():
    rng = np.random.default_rng(0)
    s = random_matrix_space(rng, 5)
    m1, m2 = np_random_measure(s, rng), np_random_measure(s, rng)
    t = s.diameter()
    eta = mp.maximal_coupling(m1, m2, t)
    np.testing.assert_array_equal(
        eta, np.minimum(m1.density[:, None], m2.density[None, :])
    )
    assert mp.coupling_feasible(m1, m2, t)


def test_maximal_coupling_identity_at_zero():
    rng = np.random.default_rng(1)
    s = random_matrix_space(rng, 5)
    m = np_random_measure(s, rng)
    eta = mp.maximal_coupling(m, m, 0.0)
    np.testing.assert_array_equal(np.diagonal(eta), m.density)
    off = eta[~np.eye(5, dtype=bool)]
    assert np.all(off == NEG)
    assert mp.coupling_feasible(m, m, 0.0)


def test_maximal_coupling_disjoint_diracs_infeasible():
    two = mp.build_grid([0], [1], [1])
    dx, dy = mp.dirac(two, 0), mp.dirac(two, 1)
    assert not mp.coupling_feasible(dx, dy, 0.5)
    eta = mp.maximal_coupling(dx, dy, 0.5)
    assert np.all(eta[0] == NEG)  # row of the first marginal is dead


def test_feasibility_monotone_in_threshold():
    rng = np.random.default_rng(2)
    for _ in range(30):
        s = random_matrix_space(rng, 5)
        m1, m2 = np_random_measure(s, rng), np_random_measure(s, rng)
        d = s.distance_matrix()
        grid = np.unique(np.concatenate([[0.0], d.ravel()]))
        flags = [mp.coupling_feasible(m1, m2, float(t)) for t in grid]
        # once feasible, always feasible
        assert all(b or not a for a, b in zip(flags, flags[1:]))


def test_max_support_distance_reads_the_diagonal_in_blocks():
    # full support on a product of two 60-point spaces: a 3600 x 3600 table
    # (104 MB) only for its diagonal; row blocks of the base space masked by
    # the support give the same value, also when the one far pair of a
    # support lies in the last block
    import tracemalloc

    rng = np.random.default_rng(35)
    for s in (random_euclidean_space(rng, 60), mp.build_grid([0.0], [1.0], [59])):
        ps = mp.product(s, s)
        il, ir = np.divmod(np.arange(ps.n_points), s.n_points)
        late = np.where(np.abs(il - ir) <= 5, 0.0, NEG)  # 630 pairs near the diagonal
        late[ps.pair_index(59, 0)] = -1.0
        for eta in (mp.uniform(ps), mp.IdempotentMeasure(ps, late)):
            coup = mp.Coupling(eta, mp.uniform(s), mp.uniform(s))
            tracemalloc.start()
            got = coup.max_support_distance()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            il, ir = np.divmod(eta.support(), s.n_points)
            assert got == max(s.dist(i, j) for i, j in zip(il, ir)) > 0.0
            assert peak < 5 << 20


def test_coupling_class_checks_marginals():
    two = mp.build_grid([0], [1], [1])
    m1 = mp.IdempotentMeasure(two, [0.0, -1.0])
    m2 = mp.IdempotentMeasure(two, [0.0, -2.0])
    ps = mp.product(two, two)
    eta = mp.maximal_coupling(m1, m2, 1.0).ravel()
    coup = mp.Coupling(mp.IdempotentMeasure(ps, eta), m1, m2)
    assert coup.max_support_distance() == 1.0
    bad = np.array([0.0, NEG, NEG, -1.0])  # right marginal (0, -1) != (0, -2)
    with pytest.raises(ValueError, match="marginal"):
        mp.Coupling(mp.IdempotentMeasure(ps, bad), m1, m2)


def test_coupling_pairs_two_measures_on_one_space():
    # max_support_distance reads the left space's metric at right-space
    # indices: a Dirac coupling on 3 x 5 points raised a bare IndexError
    three, five = mp.build_grid([0.0], [1.0], [2]), mp.build_grid([0.0], [1.0], [4])
    ps = mp.product(three, five)
    with pytest.raises(ValueError, match="one space"):
        mp.Coupling(mp.dirac(ps, ps.pair_index(0, 4)), mp.dirac(three, 0), mp.dirac(five, 4))


def test_maximal_coupling_dominates_feasible_subsets():
    # any oracle-style subset coupling is pointwise below eta_t at its own
    # max distance
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = random_matrix_space(rng, 3)
        m1 = np_random_measure(s, rng, p_finite=0.8)
        m2 = np_random_measure(s, rng, p_finite=0.8)
        s1, s2 = m1.support(), m2.support()
        cells = [(x, y) for x in s1 for y in s2]
        minval = {
            (x, y): min(m1.density[x], m2.density[y]) for x, y in cells
        }
        for mask in range(1, 1 << len(cells)):
            chosen = [c for b, c in enumerate(cells) if mask >> b & 1]
            # marginal check for the restricted min-density
            ok = all(
                max((minval[x, y] for x, y in chosen if x == xx), default=NEG)
                == m1.density[xx]
                for xx in s1
            ) and all(
                max((minval[x, y] for x, y in chosen if y == yy), default=NEG)
                == m2.density[yy]
                for yy in s2
            )
            if not ok:
                continue
            t = max(s.dist(x, y) for x, y in chosen)
            eta = mp.maximal_coupling(m1, m2, t)
            for x, y in chosen:
                assert minval[x, y] <= eta[x, y]


# --- coupling distance --------------------------------------------------------

def test_coupling_distance_diracs():
    rng = np.random.default_rng(4)
    s = random_matrix_space(rng, 6)
    for x in range(6):
        for y in range(6):
            dx, dy = mp.dirac(s, x), mp.dirac(s, y)
            assert mp.coupling_distance(dx, dy) == s.dist(x, y)


def test_coupling_distance_zero_on_equal():
    rng = np.random.default_rng(5)
    s = random_euclidean_space(rng, 8)
    for _ in range(10):
        m = np_random_measure(s, rng)
        assert mp.coupling_distance(m, m) == 0.0


def test_two_point_family_is_uniformly_separated():
    two = mp.build_grid([0], [1], [1])
    for n in range(1, 11):
        for m in range(1, 11):
            mu_n = mp.normalize(two, [0.0, -float(n)])
            mu_m = mp.normalize(two, [0.0, -float(m)])
            expected = 0.0 if n == m else 1.0
            assert mp.coupling_distance(mu_n, mu_m) == expected


def test_coupling_distance_three_routes_agree():
    rng = np.random.default_rng(6)
    for _ in range(200):
        s = (
            random_matrix_space(rng, int(rng.integers(2, 5)))
            if rng.random() < 0.5
            else random_euclidean_space(rng, int(rng.integers(2, 5)))
        )
        m1 = np_random_measure(s, rng, p_finite=0.7, depth=2.0)
        m2 = np_random_measure(s, rng, p_finite=0.7, depth=2.0)
        a = mp.coupling_distance(m1, m2)
        b = threshold_d1(m1, m2)
        c = coupling_distance_bruteforce(m1, m2)
        assert a == b == c


def _measure_pairs(space, rng):
    """Integer-level and continuous pairs, a Dirac against a spread measure,
    and two measures on disjoint halves of the space."""
    half = space.n_points // 2
    for depth, integer in ((7.0, True), (3.0, False)):
        m1 = np_random_measure(space, rng, p_finite=0.8, depth=depth)
        m2 = np_random_measure(space, rng, p_finite=0.8, depth=depth)
        if integer:  # many tied levels
            m1 = mp.normalize(space, np.floor(m1.density))
            m2 = mp.normalize(space, np.floor(m2.density))
        yield m1, m2
    yield mp.dirac(space, space.n_points - 1), m1
    if half:
        yield (
            np_random_measure(space, rng, points=np.arange(half)),
            np_random_measure(space, rng, points=np.arange(half, space.n_points)),
        )


@pytest.mark.parametrize("kind", ["matrix", "coords1d", "coords2d", "coords3d"])
def test_coupling_distance_equals_threshold_search(kind):
    # bit for bit, on supports of 1 point up to more than 768 points (the
    # table sweep then reads several row blocks, most with a ragged tail);
    # coordinate spaces also as matrix copies, and as grids, where distances tie
    rng = np.random.default_rng(21)
    if kind == "matrix":
        spaces = [random_matrix_space(rng, n) for n in (2, 7, 40, 330)]
    else:
        dim = int(kind[6])
        spaces = [
            mp.FiniteMetricSpace.from_coords(rng.uniform(0.0, 1.0, (n, dim)))
            for n in (1, 9, 200, 1100)
        ]
        spaces.append(mp.build_grid([0.0] * dim, [1.0] * dim, [{1: 1100, 2: 33, 3: 8}[dim]] * dim))
    for s in spaces:
        copy = s if s.coords is None else mp.FiniteMetricSpace(
            matrix=cdist(s.coords, s.coords), validate=False
        )
        largest = 0
        for m1, m2 in _measure_pairs(s, rng):
            want = threshold_d1(m1, m2)
            assert mp.coupling_distance(m1, m2) == want
            c1, c2 = (mp.IdempotentMeasure(copy, m.density) for m in (m1, m2))
            assert mp.coupling_distance(c1, c2) == want
            largest = max(largest, m1.support().size)
        assert s.n_points < 1000 or largest > 3 * 256


@pytest.mark.parametrize("budget", [1, 7, None])
def test_table_sweep_equals_threshold_search(monkeypatch, budget):
    # bit for bit on 4-D and 5-D grids and random points and on product
    # spaces, with row blocks of one row, of a few rows, and of 2^18 entries
    if budget is not None:
        monkeypatch.setattr(mp.spaces, "_BLOCK_ELEMS", budget)
    rng = np.random.default_rng(44)
    spaces = [
        mp.build_grid([0.0] * 4, [1.0] * 4, [3] * 4),
        mp.build_grid([-1.0] * 5, [2.0] * 5, [2] * 5),
        mp.FiniteMetricSpace.from_coords(rng.uniform(-1.0, 1.0, (200, 4))),
        mp.FiniteMetricSpace.from_coords(rng.uniform(0.0, 1e-3, (150, 5))),
        mp.product(mp.build_grid([0.0, 0.0], [1.0, 2.0], [4, 4]), random_matrix_space(rng, 8)),
        mp.product(mp.build_grid([0.0], [1.0], [14]), mp.build_grid([0.0], [3.0], [9])),
    ]
    for s in spaces:
        for m1, m2 in _measure_pairs(s, rng):
            assert mp.coupling_distance(m1, m2) == threshold_d1(m1, m2)


def test_table_sweep_memory_is_bounded_on_a_crowded_cell():
    # 3000 points in one cell of the grid that 100 spread points span: the
    # plane kernel settles the crowd by its cover test, and the table sweep
    # alone, which every source would take past the ring budget, holds row
    # blocks of 2^18 distances (2 MiB), not the 73 MiB table
    import tracemalloc

    rng = np.random.default_rng(39)
    crowd = mp.FiniteMetricSpace.from_coords(
        np.concatenate([rng.uniform(0.0, 1e-3, (3000, 2)), rng.uniform(0.0, 1.0, (100, 2))])
    )
    m1, m2 = (mp.normalize(crowd, -rng.integers(0, 8, 3100).astype(float)) for _ in range(2))
    mp.coupling_distance(m1, m2)  # the lazy scipy import is not counted
    tracemalloc.start()
    try:
        got = mp.coupling_distance(m1, m2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == _prefix_d1(m1, m2)
    assert peak < 8 << 20
    tracemalloc.start()
    try:
        _prefix_d1(m1, m2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def _prefix_d1(m1, m2):
    """d1 by the table sweep over level-ordered prefixes alone: the plane kernel's finishing step."""
    s1, s2 = m1.support(), m2.support()
    l1, l2 = m1.density[s1], m2.density[s2]
    space = m1.space
    return max(_directed_d1(space, s1, l1, s2, l2), _directed_d1(space, s2, l2, s1, l1))


def _plane(m1, m2):
    """d1 by the plane kernel, whatever the size of the supports."""
    s1, s2 = m1.support(), m2.support()
    return _plane_d1(m1.space, s1, m1.density[s1], s2, m2.density[s2])


def _ring_cases(space, rng):
    """Integer and continuous levels, cones toward opposite corners and one
    top point in rings around a corner, each pair in both orders."""
    x = space.coords
    lo, hi = x.min(axis=0), x.max(axis=0)
    reach = np.linalg.norm(x - lo, axis=1) / np.linalg.norm(hi - lo)
    rings = -1.0 - np.floor(12.0 * reach)
    rings[np.argmin(reach)] = 0.0
    keep = rng.random((4, space.n_points)) < 0.7
    cases = {
        "integer": [np.where(k, -rng.integers(0, 8, k.size).astype(float), NEG) for k in keep[:2]],
        "continuous": [np.where(k, -rng.uniform(0.0, 3.0, k.size), NEG) for k in keep[2:]],
        "cone": [-reach, -np.linalg.norm(x - hi, axis=1)],
        "top": [rings, np.where(keep[0], -rng.integers(0, 8, space.n_points).astype(float), NEG)],
    }
    for name, (a, b) in cases.items():
        m1, m2 = mp.normalize(space, a), mp.normalize(space, b)
        yield name, m1, m2
        yield name, m2, m1


def test_packed_blocks_take_the_most_rows_within_the_budget():
    rng = np.random.default_rng(37)
    for budget in (1, 7, 64, 1000):
        widths = np.sort(rng.integers(1, 40, 200))
        blocks = _packed(widths, budget)
        assert [b[0] for b in blocks[1:]] == [b[1] for b in blocks[:-1]]
        assert blocks[0][0] == 0 and blocks[-1][1] == widths.size
        for start, end in blocks:
            fits = (end - start) * widths[end - 1] <= budget
            assert fits or end == start + 1  # a row too wide for the budget goes alone
            more = end < widths.size and (end + 1 - start) * widths[end] <= budget
            assert not more
    assert _packed(np.array([], dtype=int), 10) == []


def test_plane_d1_equals_the_threshold_search_and_the_prefix_route():
    # bit for bit, on 2-D and 3-D grids from 1e-150 to 1e150 and shifted off
    # the origin, on a 2-D grid at 1e-160, where squared distances are
    # subnormal, on random 3-D points, and on supports of 2 m^dim lattice
    # points of [0, 1]^dim against larger random supports; the plane kernel
    # is called directly, as coupling_distance sends pairs this small to the
    # table sweep
    rng = np.random.default_rng(38)
    spaces = [
        mp.build_grid([-scale, 2 * scale], [scale, 3 * scale], [20, 20])
        for scale in (1e-160, 1e-150, 1e-100, 1.0, 1e100, 1e150)
    ]
    spaces += [
        mp.build_grid([0.0] * 3, [1e150] * 3, [8] * 3),
        mp.build_grid([-1.0] * 3, [1.0] * 3, [8] * 3),
        mp.FiniteMetricSpace.from_coords(rng.uniform(-1.0, 1.0, (600, 3)) * 1e-120),
    ]
    for space in spaces:
        for name, m1, m2 in _ring_cases(space, rng):
            want = threshold_d1(m1, m2)
            assert _plane(m1, m2) == _prefix_d1(m1, m2) == want, name
    for dim, cells, m in ((2, 20, 10), (3, 8, 4)):
        space = mp.build_grid([0.0] * dim, [1.0] * dim, [cells] * dim)
        for _ in range(3):
            targets = rng.choice(space.n_points, 2 * m**dim, replace=False)
            targets[:2] = 0, space.n_points - 1  # the box stays the unit box
            lam = np.full(space.n_points, NEG)
            lam[targets] = -rng.integers(0, 4, targets.size).astype(float)
            m1 = mp.normalize(space, lam)
            m2 = mp.normalize(space, np.floor(np_random_measure(space, rng, depth=4.0).density))
            want = threshold_d1(m1, m2)
            assert _plane(m1, m2) == _plane(m2, m1) == want
            assert _prefix_d1(m1, m2) == want


def test_plane_d1_equals_the_prefix_route_on_small_random_sets():
    # stretched 2-D and 3-D point sets of up to 150 points, where few
    # targets reach the top levels: sources near the edges of the grid stop
    # at the edge of their block on one side and at the grid's on the other
    # (the plane kernel called directly, as in the test above)
    rng = np.random.default_rng(41)
    for trial in range(300):
        dim = 2 + trial % 2
        n = int(rng.integers(2, 150))
        space = mp.FiniteMetricSpace.from_coords(
            rng.uniform(0.0, 1.0, (n, dim)) * 10.0 ** rng.uniform(-2.0, 2.0, dim)
        )
        m1, m2 = (np_random_measure(space, rng, p_finite=rng.uniform(0.05, 1.0)) for _ in "ab")
        if trial % 3 == 0:  # integer levels: ties at every level
            m1, m2 = (mp.normalize(space, np.floor(m.density)) for m in (m1, m2))
        assert _plane(m1, m2) == _prefix_d1(m1, m2), trial


def test_plane_d1_hands_what_passes_its_budget_to_the_prefix_route(monkeypatch):
    # on 6561 points of the plane the benchmark's integer levels and
    # continuous levels resolve inside the ring budget; cones toward opposite
    # corners, and one top point, would need hundreds to thousands of cell
    # visits per point, so thousands of their sources go through the prefix
    # route; the value is the prefix route's either way
    rng = np.random.default_rng(39)
    plane = mp.build_grid([0.0, 0.0], [1.0, 1.0], [80, 80])
    handed = []

    def spy(space, s_from, *args):
        handed.append(s_from.size)
        return _directed_d1(space, s_from, *args)

    monkeypatch.setattr(mp.metrics, "_directed_d1", spy)

    def sources_handed(m1, m2):
        handed.clear()
        assert mp.coupling_distance(m1, m2) == _prefix_d1(m1, m2)
        return sum(handed)

    for name, m1, m2 in _ring_cases(plane, rng):
        if name in ("integer", "continuous"):
            assert sources_handed(m1, m2) == 0, name
        else:
            assert sources_handed(m1, m2) > 3000, name
    # 3000 points in one cell of the grid that 100 spread points span: every
    # crowd source would read them all, but the spread sources set a value
    # past the cover bound, so the covered crowd is never searched
    crowd = rng.uniform(0.0, 1e-3, (3000, 2))
    space = mp.FiniteMetricSpace.from_coords(np.concatenate([crowd, rng.uniform(0.0, 1.0, (100, 2))]))
    m1, m2 = (mp.normalize(space, -rng.integers(0, 8, 3100).astype(float)) for _ in range(2))
    assert sources_handed(m1, m2) == 0
    # the spread points reach their own level only in the crowd's cell: each
    # spread source would read the crowd, so the budget hands most over
    lam = np.zeros((2, 3100))
    lam[1, 3000:] = -1.0
    m1, m2 = (mp.IdempotentMeasure(space, row) for row in lam)
    assert 50 < sources_handed(m1, m2) <= 100
    # a far point sets the value in the first direction; in the second, 100
    # sources on an arc around the crowd find their targets farther out
    # before the crowd's ring, and leave then: searched on to settle, or from
    # a value of 0, they would read the crowd, and the budget would hand
    # them over
    theta = rng.uniform(np.radians(40.0), np.radians(50.0), 100)
    ray = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    space = mp.FiniteMetricSpace.from_coords(np.concatenate([crowd, [[1.0, 1.0]], 0.375 * ray, 0.675 * ray]))
    lam = np.full((2, space.n_points), NEG)
    lam[:, :3000] = 0.0
    lam[0, 3000], lam[0, 3101:], lam[1, 3001:3101] = 0.0, 0.0, 0.0
    m1, m2 = (mp.IdempotentMeasure(space, row) for row in lam)
    assert sources_handed(m1, m2) == 0
    # without a budget the cones search out to the edges of the grid
    monkeypatch.setattr(mp.metrics, "_RING_WORK", 10**9)
    square = mp.build_grid([0.0, 0.0], [1.0, 1.0], [30, 30])
    for name, m1, m2 in _ring_cases(square, rng):
        assert sources_handed(m1, m2) == 0, name


def _cover_edge_case():
    """A pair whose d1 is set by a covered source just past 2h on both axes.

    Lattice points outside [-0.5, 0.5]^2, at level -1 in both measures,
    settle at 0 and set the cell width h.  The corner (-1, -1) puts the cell
    edges in u = x + 1, whose rounding is coarser than that of x inside the
    box: the least x of cell c and the greatest of cell c + 1 lie further
    than 2h apart for some c.  That pair, on the diagonal, sets d1; an
    uncovered pair exactly 2h apart on both axes, in cells 2 apart, gives a
    value of exactly 2h on both axes before the covered sources are
    searched.  Returns the two measures, h and the edge gap.
    """
    for m in range(24, 40):
        axis = np.linspace(-1.0, 1.0, m + 1)
        fill = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        fill = fill[np.abs(fill).max(axis=1) > 0.5]
        h = _cell_width(np.array([2.0, 2.0]), fill.shape[0] + 2)
        k = int(np.ceil(2.0 / h))

        def cell(x):
            return min(int(np.floor((x + 1.0) / h)), k - 1)

        far = np.array([0.25, -0.4]) - h / 3
        if np.any(far + 2 * h - far != 2 * h) or max(cell(v + 2 * h) - cell(v) for v in far) < 2:
            continue
        for c in range(int(np.ceil(0.55 / h)), int(1.45 / h) - 1):
            lo = c * h - 1.0  # the least x of cell c
            while cell(np.nextafter(lo, -2.0)) == c:
                lo = np.nextafter(lo, -2.0)
            while cell(lo) != c:
                lo = np.nextafter(lo, 2.0)
            hi = (c + 2) * h - 1.0  # the greatest x of cell c + 1
            while cell(hi) != c + 1:
                hi = np.nextafter(hi, -2.0)
            if hi - lo > 2 * h + np.spacing(2 * h):
                points = np.concatenate([fill, [[lo, lo], far, [hi, hi], far + 2 * h]])
                space = mp.FiniteMetricSpace.from_coords(points)
                lam = np.full((2, space.n_points), -1.0)
                lam[:, -4:] = NEG
                lam[0, -4:-2] = lam[1, -2:] = 0.0
                m1, m2 = (mp.IdempotentMeasure(space, row) for row in lam)
                return m1, m2, h, hi - lo
    raise AssertionError("no lattice puts a covered pair past 2h")


def test_plane_d1_searches_a_covered_source_just_past_2h():
    # a covered source has its target in the next cell on each axis, at most
    # 2h apart there up to the rounding of the cell indices: the cover bound
    # needs its margin, or the search would stop at the uncovered pair's value
    m1, m2, h, gap = _cover_edge_case()
    want = _prefix_d1(m1, m2)
    assert want == np.sqrt(2 * gap**2) > np.sqrt((2 * h) ** 2 + (2 * h) ** 2)
    assert _plane(m1, m2) == _plane(m2, m1) == want == threshold_d1(m1, m2)


def _line_kernel(space, cases):
    """_line_nearest on runs side by side, one per case (rows, cols, width).

    A run holds the points of its case in point order.  Target cols[j] sits
    at level -j, so source rows[i], at level 1 - width[i], qualifies exactly
    cols[:width[i]].  One guard position on either end of the table, at
    level +inf and at the coordinate of its neighbour, qualifies every
    source that reads past the ends.
    """
    xs, levels, sources, bounds = [], [np.array([np.inf])], [], []
    first = 1
    for rows, cols, width in cases:
        u = np.union1d(rows, cols)
        u = u[np.argsort(space.coords[u, 0])]
        at = np.empty(space.n_points, dtype=int)
        at[u] = first + np.arange(u.size)
        level = np.full(u.size, NEG)
        level[at[cols] - first] = -np.arange(cols.size, dtype=float)
        xs.append(space.coords[u, 0])
        levels.append(level)
        sources.append((at[rows], 1.0 - width))
        bounds.append(np.full((2, rows.size), [[first], [first + u.size]]))
        first += u.size
    x = np.concatenate([xs[0][:1], *xs, xs[-1][-1:]])
    levels.append(np.array([np.inf]))
    depth = max(u.size for u in levels).bit_length()
    table = np.empty((depth, first + 1))
    table[0] = np.concatenate(levels)
    pos, level = (np.concatenate(v) for v in zip(*sources))
    lo, hi = np.concatenate(bounds, axis=1)
    return _line_nearest(x, table, pos, level, lo, hi)


def test_line_nearest_neighbours_equal_the_distance_table_minimum():
    # the range-maximum lift of the line d1 kernel gives each source the
    # least distance to the targets at or above its level inside its own
    # run: bit for bit the masked distance table minimum, with runs of
    # several cases side by side in one table, rows inside and outside cols,
    # at the ends, on tied gaps, and inf where no target qualifies (width 0)
    rng = np.random.default_rng(22)
    spaces = [mp.build_grid([0.0], [1.0], [300]), mp.build_grid([-3.0], [5.0], [7])]
    for scale in (1e-155, 1e-3, 1.0, 1e150):
        spaces.append(mp.FiniteMetricSpace.from_coords(rng.uniform(-scale, scale, 400)))
    n_none = 0
    for s in spaces:
        for _ in range(8):
            cases, want = [], []
            for _ in range(int(rng.integers(1, 5))):
                cols = rng.choice(s.n_points, int(rng.integers(1, s.n_points)), replace=False)
                rows = rng.integers(0, s.n_points, int(rng.integers(1, 60)))
                table = s.distance_submatrix(rows, cols)
                if rng.random() < 0.5:
                    width = np.full(rows.size, cols.size)
                else:
                    width = rng.integers(0, cols.size + 1, rows.size)
                masked = np.where(np.arange(cols.size) < width[:, None], table, np.inf)
                cases.append((rows, cols, width))
                want.append(masked.min(axis=1))
                n_none += np.sum(width == 0)
            assert np.array_equal(_line_kernel(s, cases), np.concatenate(want))
    assert n_none > 0


def test_line_nearest_never_reads_a_neighbouring_run():
    # the last source of the first run and the first source of the last run
    # each have a nearer qualifying target just across the edge of their run,
    # in the middle run, than inside their own: a lift that leaves its run
    # finds that one (0.1 and 0.5 here)
    line = mp.FiniteMetricSpace.from_coords([0.0, 1.0, 1.1, 1.5, 1.6, 8.0])
    one = np.array([1])
    cases = [
        (np.array([1]), np.array([0]), one),  # 1.0 against 0.0, not 1.1
        (np.array([3]), np.array([2]), one),  # 1.5 against 1.1
        (np.array([4]), np.array([5]), one),  # 1.6 against 8.0, not 1.1
    ]
    assert _line_kernel(line, cases).tolist() == [1.0, 1.5 - 1.1, 8.0 - 1.6]


def test_line_d1_chunks_stay_inside_the_table_budget(monkeypatch):
    # one chunk's table holds at most 2^18 entries: three pairs of ~4600-point
    # supports on the 6562-point line run one pair per chunk, and other
    # budgets, down to one pair per chunk, give the same values
    import tracemalloc

    rng = np.random.default_rng(29)
    line = mp.build_grid([0.0], [1.0], [6561])

    def measure():
        levels = -rng.integers(0, 8, line.n_points).astype(float)
        return mp.normalize(line, np.where(rng.random(line.n_points) < 0.7, levels, NEG))

    pairs = [(measure(), measure()) for _ in range(3)]
    tracemalloc.start()
    got = mp.coupling_distances(pairs)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 3 << 20  # a 2 MB table plus the lifting arrays
    assert got == [mp.coupling_distance(m1, m2) for m1, m2 in pairs]
    for budget in (1, 40_000, 1 << 22):
        monkeypatch.setattr(mp.spaces, "_BLOCK_ELEMS", budget)
        assert mp.coupling_distances(pairs) == got


def test_line_routes_read_the_space_order_and_never_sort(monkeypatch):
    # the point order of a line is computed once, when the space is built;
    # d1, d_a, both series and a map's discrete Lipschitz constant read it
    rng = np.random.default_rng(36)
    line = mp.FiniteMetricSpace.from_coords(rng.permutation(rng.uniform(-1.0, 1.0, 200)))
    pairs = [(np_random_measure(line, rng), np_random_measure(line, rng)) for _ in range(3)]
    target = rng.integers(0, line.n_points, line.n_points)
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(a) or argsort(*a, **k))
    m1, m2 = pairs[0]
    mp.coupling_distances(pairs)
    mp.lipschitz_distance(m1, m2, 0.5)
    mp.series_distance(m1, m2, SeriesParams(alpha=1 / 3, q=0.5, tol=1e-6))
    mp.harmonic_series_distance(m1, m2, 1e-6)
    mp.ContractionMap(line, target)
    assert calls == []
    # the series reaches steep levels, which take the direct route
    steep = mp.metrics._line_steep
    monkeypatch.setattr(mp.metrics, "_line_steep", lambda *a: calls.append("steep") or steep(*a))
    mp.series_distance(m1, m2, SeriesParams(alpha=1 / 3, q=0.5, tol=1e-6))
    assert calls == ["steep"]


def test_coordinate_paths_make_no_distance_table_calls(monkeypatch):
    # a quadratic route through the space's distance methods cannot return
    # unnoticed on the two coordinate workloads: snapped maps on a 3^8-cell
    # line and d1 on 6561 points of the plane
    calls = []
    method = mp.FiniteMetricSpace.distance_submatrix

    def counted(self, *args):
        calls.append("distance_submatrix")
        return method(self, *args)

    monkeypatch.setattr(mp.FiniteMetricSpace, "distance_submatrix", counted)
    ifs = cantor_ifs(8)
    plane = mp.build_grid([0.0, 0.0], [1.0, 1.0], [80, 80])
    rng = np.random.default_rng(70)
    m1 = mp.normalize(plane, -rng.integers(0, 8, plane.n_points).astype(float))
    m2 = mp.normalize(plane, -rng.integers(0, 8, plane.n_points).astype(float))
    assert mp.coupling_distance(m1, m2) > 0.0
    assert ifs.discrete_lip_max == 1.0000000000007285
    assert calls == []
    mp.FiniteMetricSpace.distance_submatrix(plane, [0], [1])
    assert calls == ["distance_submatrix"]  # the counter does count


def test_bruteforce_guard():
    rng = np.random.default_rng(7)
    s = random_euclidean_space(rng, 5)
    m = mp.uniform(s)
    with pytest.raises(ValueError, match="exceed"):
        coupling_distance_bruteforce(m, m)  # 25 cells > 16


def test_coupling_distance_metric_axioms():
    rng = np.random.default_rng(8)
    s = random_matrix_space(rng, 6)
    ms = [np_random_measure(s, rng, depth=2.0) for _ in range(12)]
    for m1, m2 in itertools.combinations(ms, 2):
        d12 = mp.coupling_distance(m1, m2)
        assert d12 == mp.coupling_distance(m2, m1)
        assert (d12 == 0.0) == (m1 == m2)
    for m1, m2, m3 in itertools.combinations(ms, 3):
        assert mp.coupling_distance(m1, m3) <= (
            mp.coupling_distance(m1, m2) + mp.coupling_distance(m2, m3) + 1e-12
        )


def test_coupling_distance_space_mismatch():
    a = mp.build_grid([0], [1], [1])
    b = mp.build_grid([0], [1], [1])
    with pytest.raises(ValueError):
        mp.coupling_distance(mp.dirac(a, 0), mp.dirac(b, 0))


# --- Lipschitz-dual distance ---------------------------------------------------

def test_lipschitz_distance_diracs():
    rng = np.random.default_rng(9)
    s = random_euclidean_space(rng, 7)
    for a in (0.25, 1.0, 4.0):
        for x, y in [(0, 1), (2, 5), (3, 3)]:
            got = mp.lipschitz_distance(mp.dirac(s, x), mp.dirac(s, y), a)
            assert got == pytest.approx(a * s.dist(x, y), abs=1e-12)


def test_lipschitz_distance_two_point_closed_form():
    two = mp.build_grid([0], [1], [1])
    m1 = mp.IdempotentMeasure(two, [0.0, NEG])
    for a in (0.25, 1.0, 4.0):
        for t in (0.1, 1.0, 3.0):
            m2 = mp.IdempotentMeasure(two, [0.0, -t])
            got = mp.lipschitz_distance(m1, m2, a)
            assert got == pytest.approx(max(0.0, a - t), abs=1e-12)


def test_lipschitz_distance_monotone_and_bounded():
    rng = np.random.default_rng(10)
    s = random_euclidean_space(rng, 10)
    for _ in range(30):
        m1, m2 = np_random_measure(s, rng), np_random_measure(s, rng)
        prev = 0.0
        for a in (0.25, 0.5, 1.0, 2.0, 4.0):
            val = mp.lipschitz_distance(m1, m2, a)
            assert val >= prev - 1e-12
            assert val <= a * s.diameter() + 1e-12
            prev = val
        assert mp.lipschitz_distance(m1, m1, 1.0) == 0.0


def test_lipschitz_certificates():
    rng = np.random.default_rng(11)
    for trial in range(5):
        s = random_euclidean_space(rng, 8)
        m1, m2 = np_random_measure(s, rng), np_random_measure(s, rng)
        for a in (0.25, 1.0, 4.0):
            cert = mp.lipschitz_distance_certificates(
                m1, m2, a, samples=2000, rng=np.random.default_rng(trial)
            )
            assert cert.sampled_lower <= cert.value + 1e-12
            assert cert.cone_value == pytest.approx(cert.value, abs=1e-9)
            assert cert.cone_lip <= a * (1 + 1e-12)
            assert cert.value == mp.lipschitz_distance(m1, m2, a)


def test_regularized_tables_are_a_lipschitz():
    # the inf-convolution in the certificates is the greatest a-Lipschitz
    # minorant; check the constant directly on a few tables
    rng = np.random.default_rng(12)
    s = random_euclidean_space(rng, 9)
    d = s.distance_matrix()
    for a in (0.5, 2.0):
        f = rng.uniform(-3, 3, (20, 9))
        reg = np.min(f[:, None, :] + a * d[None, :, :], axis=2)
        for row in reg:
            assert mp.TestFunction(s, row).lipschitz_constant() <= a * (1 + 1e-12)
            assert np.all(row <= f[0] + 1e30)  # minorant of its own table


def test_lipschitz_distance_validation():
    rng = np.random.default_rng(13)
    s = random_euclidean_space(rng, 4)
    m = mp.uniform(s)
    with pytest.raises(ValueError):
        mp.lipschitz_distance(m, m, 0.0)
    with pytest.raises(ValueError):
        mp.lipschitz_distance(m, m, -1.0)


def test_lipschitz_distance_refuses_levels_outside_the_positive_reals():
    g = mp.build_grid([0], [1], [2])
    m1, m2 = mp.dirac(g, 0), mp.dirac(g, 2)
    for a in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"\(0, inf\)"):
            mp.lipschitz_distance(m1, m2, a)
    assert mp.lipschitz_distance(m1, m2, 1e300) == 1e300  # a * d(0, 2), still finite


# --- series metrics -------------------------------------------------------------

def test_series_distance_zero_on_equal():
    rng = np.random.default_rng(14)
    s = random_euclidean_space(rng, 6)
    m = np_random_measure(s, rng)
    res = mp.series_distance(m, m, SeriesParams(0.5, 0.5, 1e-9))
    assert res.value == 0.0


def test_series_distance_dirac_geometric_sum():
    two = mp.build_grid([0], [1], [1])
    dx, dy = mp.dirac(two, 0), mp.dirac(two, 1)
    for q in (0.25, 0.5, 0.75):
        params = SeriesParams(alpha=0.5, q=q, tol=1e-8)
        res = mp.series_distance(dx, dy, params)
        expected = (1 + q) / (1 - q)
        assert res.value <= expected <= res.value + res.tail_bound + 1e-12
        assert res.value == pytest.approx(expected, abs=1e-7)


def test_series_distance_scales_with_the_metric():
    # per-term positive homogeneity in the distance scale
    base = mp.FiniteMetricSpace.from_coords([[0.0], [1.0]])
    scaled = mp.FiniteMetricSpace.from_coords([[0.0], [2.5]])
    params = SeriesParams(alpha=1 / 3, q=0.5, tol=1e-10)
    v1 = mp.series_distance(mp.dirac(base, 0), mp.dirac(base, 1), params).value
    v2 = mp.series_distance(mp.dirac(scaled, 0), mp.dirac(scaled, 1), params).value
    assert v2 == pytest.approx(2.5 * v1, rel=1e-7)


def test_series_tail_decreases_with_tol():
    rng = np.random.default_rng(15)
    s = random_euclidean_space(rng, 5)
    m1, m2 = np_random_measure(s, rng), np_random_measure(s, rng)
    prev_value = -1.0
    for tol in (1e-2, 1e-4, 1e-6):
        res = mp.series_distance(m1, m2, SeriesParams(0.5, 0.5, tol))
        assert res.tail_bound <= tol
        assert res.value >= prev_value  # nonnegative terms only get added
        prev_value = res.value


def test_harmonic_series_examples():
    two = mp.build_grid([0], [1], [1])
    dx, dy = mp.dirac(two, 0), mp.dirac(two, 1)
    res = mp.harmonic_series_distance(dx, dy, 1e-8)
    assert res.value == pytest.approx(1.0, abs=1e-7)  # sum n/(n 2^n) = 1
    m = np_random_measure(two, np.random.default_rng(16))
    assert mp.harmonic_series_distance(m, m, 1e-6).value == 0.0
    coarse = mp.harmonic_series_distance(dx, dy, 1e-2).value
    fine = mp.harmonic_series_distance(dx, dy, 1e-8).value
    assert fine >= coarse


def test_series_metric_axioms():
    rng = np.random.default_rng(17)
    s = random_matrix_space(rng, 5)
    params = SeriesParams(alpha=0.5, q=0.5, tol=1e-9)
    ms = [np_random_measure(s, rng, depth=2.0) for _ in range(8)]
    vals = {}
    for i, j in itertools.combinations(range(len(ms)), 2):
        v = mp.series_distance(ms[i], ms[j], params)
        v_rev = mp.series_distance(ms[j], ms[i], params)
        assert v.value == v_rev.value
        if ms[i] != ms[j]:
            assert v.value > 0.0
        vals[i, j] = vals[j, i] = v.value
    for i, j, k in itertools.combinations(range(len(ms)), 3):
        slack = 1e-9 + 3 * params.tol
        assert vals[i, k] <= vals[i, j] + vals[j, k] + slack


def test_series_params_validation():
    with pytest.raises(ValueError):
        SeriesParams(alpha=0.0, q=0.5)
    with pytest.raises(ValueError):
        SeriesParams(alpha=0.5, q=1.0)
    with pytest.raises(ValueError):
        SeriesParams(alpha=0.5, q=0.5, tol=0.0)


def test_lipschitz_delta_matches_brute_max():
    # the directed parts of the dual kernel against a direct loop
    rng = np.random.default_rng(18)
    s = random_matrix_space(rng, 5)
    m1, m2 = np_random_measure(s, rng), np_random_measure(s, rng)
    s1, s2 = m1.support(), m2.support()
    l1, l2 = m1.density[s1], m2.density[s2]
    d = s.distance_submatrix(s1, s2)
    a = 0.7
    want = max(
        l1[i] - max(l2[j] - a * d[i, j] for j in range(s2.size))
        for i in range(s1.size)
    )
    want_rev = max(
        l2[j] - max(l1[i] - a * d[i, j] for i in range(s1.size))
        for j in range(s2.size)
    )
    d12 = _directed_deltas(s, m1.density, m2.density, np.array([a]))
    d21 = _directed_deltas(s, m2.density, m1.density, np.array([a]))
    assert d12[0] == pytest.approx(want, abs=1e-15)
    assert d21[0] == pytest.approx(want_rev, abs=1e-15)


# --- dual kernel against the per-level dense oracle -------------------------------


def _line_cases(rng):
    """Unsorted 1-D spaces with integer-level, continuous, one-point and disjoint pairs."""
    for trial in range(120):
        n = int(rng.integers(1, 200))
        if trial % 2:
            x = rng.permutation(np.unique(rng.uniform(-2.0, 3.0, n)))
        else:
            x = rng.permutation(np.arange(n) / 7.0 - 3.0)
        s = mp.FiniteMetricSpace.from_coords(x)
        kind = ["integer", "continuous", "one-point", "disjoint"][trial % 4]
        if kind == "disjoint" and n > 1:
            # every other point left of a cut against all points right of it
            order = np.argsort(x)
            cut = int(rng.integers(1, n))
            supports = (order[:cut:2], order[cut:])
        else:
            supports = []
            for _ in range(2):
                mask = rng.random(n) < rng.uniform(0.05, 1.0)
                mask[rng.integers(n)] = True
                supports.append([int(rng.integers(n))] if kind == "one-point" else np.flatnonzero(mask))
        pair = []
        for idx in supports:
            dens = np.full(n, NEG)
            if kind == "continuous":
                dens[idx] = rng.uniform(-5.0, 0.0, len(idx))
            else:
                dens[idx] = -rng.integers(0, 8, len(idx)).astype(float)
            pair.append(mp.normalize(s, dens))
        yield x, pair[0], pair[1]


def test_line_kernel_is_bit_identical_to_dense_oracle():
    # every directed value is the dense formula's maximum over the sources,
    # also at the near-tied rows under a = 3^43 and 1e300, where the dense
    # value of the source the envelopes rank first can be 191 ulps below it
    rng = np.random.default_rng(22)
    for _, m1, m2 in _line_cases(rng):
        got = _line_deltas(m1.space, [(m1, m2)], EXTREME_LEVELS)[:, 0]
        for k, a in enumerate(EXTREME_LEVELS):
            assert got[:, k].tolist() == list(dense_deltas(m1, m2, a))


def _top_level(diam, depth):
    """The largest a with a * diam + depth below 2^1022, in float arithmetic."""
    a = (2.0**1022 - depth) / diam
    while not a * diam + depth < 2.0**1022:
        a = np.nextafter(a, 0.0)
    while np.nextafter(a, np.inf) * diam + depth < 2.0**1022:
        a = np.nextafter(a, np.inf)
    return float(a)


def test_levels_past_the_float_range_are_refused_and_levels_below_match_the_dense_oracle():
    # a * diam used to overflow inside the kernels, with a RuntimeWarning: on
    # the first line below inf - inf read 1e308 where the dense formula gives
    # 1.4e308 (a = 1e307), off the line the value was inf
    rng = np.random.default_rng(24)
    spaces = [
        mp.FiniteMetricSpace.from_coords(np.array([6.0, 12, 13, 25, 35, 49])),
        mp.FiniteMetricSpace.from_coords(rng.permutation(np.arange(40.0)) * 1e150),
        mp.FiniteMetricSpace.from_coords([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]),
        random_euclidean_space(rng, 30, dim=3),
        random_matrix_space(rng, 12),
    ]
    refused = 0
    for space in spaces:
        for _ in range(30):
            m1, m2 = (np_random_measure(space, rng, depth=rng.choice([3.0, 1e306])) for _ in "ab")
            lam = np.abs(np.concatenate([m1.density[m1.support()], m2.density[m2.support()]]))
            both = np.union1d(m1.support(), m2.support())
            # the line kernel reads distances up to the span of the pair's supports
            diam = float(np.ptp(space.coords[both, 0])) if space.line else space.diameter()
            top = _top_level(diam, lam.max())
            for a in (np.nextafter(top, np.inf), 1e307, 1e308):
                if a >= top * (1.0 + 2.0**-52):
                    refused += 1
                    with pytest.raises(ValueError, match=r"a \* diam \+ depth past 2\^1022"):
                        mp.lipschitz_distance(m1, m2, a)
            for a in (top, np.nextafter(top, 0.0), top / 3.0, 1e306, 1.0):
                if a > top:
                    continue
                assert mp.lipschitz_distance(m1, m2, a) == dense_dual(m1, m2, a)
    assert refused >= 300


def test_staircase_kernel_is_bit_identical_to_dense_oracle():
    rng = np.random.default_rng(23)
    levels = np.concatenate([EXTREME_LEVELS, rng.uniform(0.1, 10.0, 40)])
    for make, n in [(random_matrix_space, 6), (random_matrix_space, 150), (random_euclidean_space, 700)]:
        s = make(rng, n)
        for _ in range(3):
            m1 = np_random_measure(s, rng, p_finite=0.8)
            m2 = np_random_measure(s, rng, p_finite=0.8)
            d12 = _directed_deltas(s, m1.density, m2.density, levels)
            d21 = _directed_deltas(s, m2.density, m1.density, levels)
            for k, a in enumerate(levels):
                assert (d12[k], d21[k]) == dense_deltas(m1, m2, a)
            # the largest case spans several row blocks of the support table
            assert m1.support().size * m2.support().size > 1 << 18 or n < 700


def test_staircase_kernel_reads_the_level_ordered_targets_once_per_direction(monkeypatch):
    # off the line each direction reads the table d(targets, sources) once:
    # the rows of its calls are the target support in level order, descending
    # and stable, each read once, always against the whole source support
    rng = np.random.default_rng(27)
    levels = np.concatenate([EXTREME_LEVELS, rng.uniform(0.1, 10.0, 20)])
    calls = []
    method = mp.FiniteMetricSpace.distance_submatrix

    def counted(self, rows, cols):
        calls.append((np.asarray(rows), np.asarray(cols)))
        return method(self, rows, cols)

    monkeypatch.setattr(mp.FiniteMetricSpace, "distance_submatrix", counted)
    for s in (random_euclidean_space(rng, 60), random_matrix_space(rng, 40)):
        m1 = np_random_measure(s, rng, p_finite=0.8)
        m2 = np_random_measure(s, rng, p_finite=0.8)
        for budget in (1 << 18, 1000, 64, 1):
            monkeypatch.setattr(mp.spaces, "_BLOCK_ELEMS", budget)
            for mu, nu in ((m1, m2), (m2, m1)):
                sources, targets = mu.support(), nu.support()
                ordered = targets[np.argsort(-nu.density[targets], kind="stable")]
                calls.clear()
                got = _directed_deltas(s, mu.density, nu.density, levels)
                assert all(np.array_equal(cols, sources) for _, cols in calls)
                assert np.array_equal(np.concatenate([rows for rows, _ in calls]), ordered)
                assert len(calls) == -(-targets.size // max(1, budget // sources.size))
                for k, a in enumerate(levels):
                    assert got[k] == dense_deltas(mu, nu, a)[0]


def test_staircase_kernel_memory_is_bounded():
    # supports of about 2400 and 3000 2-D points: a 58 MB support table, read
    # in 23 or more row blocks.  What the kernel holds at once is bounded by
    # the 2^18-entry budget of the blocks and of the level chunks, 65 bytes
    # an entry: a block of distances and its mask (9 bytes), and at most as
    # many staircase entries, either being sorted (at most 56 bytes with the
    # sort's scratch) or sorted, with their flat indices, distances, levels,
    # columns and segment starts (40 bytes), beside two arrays of a chunk of
    # level values, or one and the next block being built (16 bytes).  To
    # that come the running maxima, 8 bytes per source and level, and index
    # and level arrays of every point (128 bytes a point).  The dense kernel
    # held 8 MB arrays of level x row x column values, two or three at once.
    import tracemalloc

    rng = np.random.default_rng(29)
    s = random_euclidean_space(rng, 3000)
    s.diameter()  # imports scipy for cdist before the measurement
    x = s.coords
    cone = -np.sqrt(np.sum((x - [5.0, 5.0]) ** 2, axis=1))  # far from the points: long staircases
    levels = 2.0 ** np.arange(-22, 23)
    for m1 in (np_random_measure(s, rng, p_finite=0.8), mp.normalize(s, cone)):
        m2 = np_random_measure(s, rng, p_finite=0.8)
        tracemalloc.start()
        got = _dual_distances([(m1, m2)], levels)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        sources = max(m1.support().size, m2.support().size)
        assert peak < 65 * (1 << 18) + 8 * sources * levels.size + 128 * s.n_points
        for k in (0, 22, 44):
            assert got[0, k] == dense_dual(m1, m2, levels[k])


def test_batched_d1_off_the_line_equals_each_pair_and_checks_its_space():
    rng = np.random.default_rng(28)
    plane, other = random_euclidean_space(rng, 30), random_matrix_space(rng, 8)
    pairs = [(np_random_measure(plane, rng), np_random_measure(plane, rng)) for _ in range(5)]
    assert mp.coupling_distances(pairs) == [threshold_d1(m1, m2) for m1, m2 in pairs]
    assert mp.coupling_distances([]) == []
    stranger = np_random_measure(other, rng)
    for bad in ([(pairs[0][0], stranger)], [pairs[0], (stranger, stranger)]):
        with pytest.raises(ValueError, match="different spaces"):
            mp.coupling_distances(bad)


def test_kernel_blocking_does_not_change_values(monkeypatch):
    # tiny budgets force one-row table blocks and one level per chunk
    rng = np.random.default_rng(26)
    levels = np.concatenate([EXTREME_LEVELS, rng.uniform(0.1, 10.0, 20)])
    cases = [mp.build_grid([0.0], [1.0], [60]), random_euclidean_space(rng, 40), random_matrix_space(rng, 30)]
    for s in cases:
        m1, m2 = np_random_measure(s, rng), np_random_measure(s, rng)
        want = _dual_distances([(m1, m2)], levels)
        for budget in (1, 64, 1 << 18):
            monkeypatch.setattr(mp.spaces, "_BLOCK_ELEMS", budget)
            monkeypatch.setattr(mp.metrics, "_LINE_CELLS", 64)
            got = _dual_distances([(m1, m2)], levels)
            monkeypatch.undo()
            np.testing.assert_array_equal(got, want)


def test_dual_metrics_vanish_exactly_on_equal_measures():
    rng = np.random.default_rng(24)
    params = SeriesParams(alpha=1 / 3, q=0.5, tol=1e-9)
    spaces = [
        mp.build_grid([0.0], [1.0], [243]),
        mp.FiniteMetricSpace.from_coords(rng.permutation(np.arange(50) * 0.37 + 1e3)),
        random_euclidean_space(rng, 30),
        random_matrix_space(rng, 12),
    ]
    for s in spaces:
        for _ in range(5):
            m = np_random_measure(s, rng)
            assert np.all(_dual_distances([(m, m)], EXTREME_LEVELS) == 0.0)
            assert mp.lipschitz_distance(m, m, 3.0**43) == 0.0
            assert mp.series_distance(m, m, params).value == 0.0
            assert mp.harmonic_series_distance(m, m, 1e-9).value == 0.0


def test_lipschitz_distance_routes_agree_with_dense_formula():
    rng = np.random.default_rng(25)
    line = mp.build_grid([0.0], [1.0], [81])
    for s in (line, random_euclidean_space(rng, 25), random_matrix_space(rng, 9)):
        for _ in range(10):
            m1, m2 = np_random_measure(s, rng), np_random_measure(s, rng)
            for a in (0.25, 1.0, 4.0, 81.0):
                assert mp.lipschitz_distance(m1, m2, a) == dense_dual(m1, m2, a)


# --- series truncation and its float range ----------------------------------------

def _loop_terms(diam, q, tol):
    n = 0
    while 2.0 * diam * q ** (n + 1) / (1.0 - q) > tol:
        n += 1
    return n


def test_series_terms_closed_form_matches_loop():
    for diam in (1e-3, 1.0, np.sqrt(2), 7.5):
        for q in (0.01, 0.3, 0.5, 0.9, 0.99):
            for tol in (1e-2, 1e-6, 1e-9, 1e-12, 2.0 * diam * q / (1.0 - q)):
                params = SeriesParams(alpha=0.9, q=q, tol=tol)
                assert params.n_terms(diam) == _loop_terms(diam, q, tol)
    assert SeriesParams(alpha=0.5, q=0.5, tol=1e-9).n_terms(0.0) == 0


def test_series_near_one_q_and_tiny_tol():
    two = mp.build_grid([0], [1], [1])
    dx, dy = mp.dirac(two, 0), mp.dirac(two, 1)
    # valid and representable: finite value inside its certified interval
    for params in (SeriesParams(0.9, 0.99, 1e-6), SeriesParams(0.9, 0.95, 1e-12)):
        res = mp.series_distance(dx, dy, params)
        expected = (1 + params.q) / (1 - params.q)
        assert np.isfinite(res.value) and res.tail_bound <= params.tol
        assert res.value <= expected <= res.value + res.tail_bound + 1e-9
    # alpha^-N overflows: a clean error that names the parameters
    with pytest.raises(ValueError, match=r"alpha=0\.5, q=0\.99, tol=1e-09"):
        mp.series_distance(dx, dy, SeriesParams(0.5, 0.99, 1e-9))
    with pytest.raises(ValueError, match="tol=1e-320"):
        mp.harmonic_series_distance(dx, dy, 1e-320)
    assert mp.harmonic_series_distance(dx, dy, 1e-300).tail_bound <= 1e-300


# --- empirical contraction -------------------------------------------------------

def test_empirical_contraction_identity_and_constant():
    rng = np.random.default_rng(19)
    s = random_matrix_space(rng, 5)
    pairs = [
        (np_random_measure(s, rng), np_random_measure(s, rng)) for _ in range(10)
    ]
    dens = [mp.coupling_distance(m1, m2) for m1, m2 in pairs]
    report = mp.empirical_contraction(mp.coupling_distances, pairs, pairs, lambda t: t)
    assert report.max_ratio == pytest.approx(1.0)
    assert report.max_excess == 0.0 and report.worst == 0 and report.passed
    # a bound below the identity's ratio fails at the pair of largest distance
    report = mp.empirical_contraction(mp.coupling_distances, pairs, pairs, lambda t: 0.5 * t)
    assert report.worst == int(np.argmax(dens)) and not report.passed
    assert report.max_excess == 0.5 * max(dens)
    const = mp.dirac(s, 0)
    report = mp.empirical_contraction(
        mp.coupling_distances, pairs, [(const, const)] * len(pairs), lambda t: t
    )
    assert report.max_ratio == 0.0
    assert report.worst == int(np.argmin(dens)) and report.max_excess == -min(dens)
    # a series metric hands its SeriesValue to the bound, which reads the tail
    params = SeriesParams(alpha=1 / 3, q=0.5, tol=1e-6)
    vals = [mp.series_distance(m1, m2, params) for m1, m2 in pairs]
    series = lambda batch: [mp.series_distance(m1, m2, params) for m1, m2 in batch]  # noqa: E731
    report = mp.empirical_contraction(series, pairs, pairs, lambda v: v.value + v.tail_bound)
    assert report.passed and report.used == 10
    assert report.max_excess == pytest.approx(-vals[0].tail_bound, rel=1e-6)
    report = mp.empirical_contraction(series, pairs, pairs, lambda v: 0.5 * (v.value + v.tail_bound))
    assert report.worst == int(np.argmax([v.value for v in vals])) and not report.passed


def test_empirical_contraction_skips_degenerate_pairs():
    rng = np.random.default_rng(20)
    s = random_matrix_space(rng, 4)
    m = np_random_measure(s, rng)
    other = np_random_measure(s, rng)
    pairs = [(m, m), (m, other)]
    report = mp.empirical_contraction(mp.coupling_distances, pairs, pairs, lambda t: t)
    assert report.skipped == 1 and report.used == 1 and report.worst == 1
    # every pair at distance 0: an empty report, which does not pass
    report = mp.empirical_contraction(mp.coupling_distances, [(m, m)], [(m, m)], lambda t: t)
    assert report.used == 0 and not report.passed
    assert (report.max_ratio, report.max_excess, report.worst) == (0.0, -np.inf, None)
    with pytest.raises(ValueError):
        mp.empirical_contraction(mp.coupling_distances, [], [], lambda t: t)
    with pytest.raises(ValueError, match="one image pair per measure pair"):
        mp.empirical_contraction(mp.coupling_distances, pairs, pairs[:1], lambda t: t)


def _steep_by_definition(pair, levels):
    """The kernel's steep levels of a pair: a gmin > 2 spread, past its margins."""
    m1, m2 = pair
    space = m1.space
    u = space.order[((m1.density > NEG) | (m2.density > NEG))[space.order]]
    x = space.coords[u, 0] - space.coords[u[0], 0]
    spread = -min(float(mu.density[mu.support()].min()) for mu in pair)
    gmin = float(np.diff(x).min()) if u.size > 1 else 0.0
    return levels * gmin > 2.0 * spread + 2.0**-40 * (spread + levels * x[-1]) + 2.0**-1000


def test_steep_rows_never_enter_the_block_loop(monkeypatch):
    # the block loop packs the rows of its blocks in one _packed call; the
    # rows it packs are the middle and flat ones, and _line_steep answers
    # every row that is steep by the kernel's definition
    rng = np.random.default_rng(42)
    line = mp.build_grid([0.0], [1.0], [242])
    pairs = [(np_random_measure(line, rng), np_random_measure(line, rng)) for _ in range(8)]
    levels = np.array([3.0**k for k in range(-10, 11)])
    packed, steep_masks = [], []
    pack, steep_route = mp.metrics._packed, mp.metrics._line_steep

    def spy(*args):
        steep_masks.append(args[7].copy())
        return steep_route(*args)

    monkeypatch.setattr(mp.metrics, "_packed", lambda w, b: packed.append(w.size) or pack(w, b))
    monkeypatch.setattr(mp.metrics, "_line_steep", spy)
    got = _line_deltas(line, pairs, levels)
    monkeypatch.undo()
    (steep,) = steep_masks  # one chunk of pairs
    want = np.array([_steep_by_definition(pair, levels) for pair in pairs])
    assert np.array_equal(steep, want)
    assert 0 < steep.sum() < steep.size
    assert packed == [2 * (~steep).sum()]
    for k, (m1, m2) in enumerate(pairs):
        for j, a in enumerate(levels):
            assert got[:, k, j].tolist() == list(dense_deltas(m1, m2, a))


def test_steep_rows_of_tied_sources_take_the_dense_maximum():
    # at every level here (a gmin > 2 spread) several sources of the pair tie
    # in the envelope ranking; their dense values differ in the last bits,
    # and the row is the largest of them, not the first in point order
    x = [1.4, 8.399999999999999, 20.299999999999997, 21.0, 29.4, 31.499999999999996, 32.9, 34.3,
         36.4]
    space = mp.FiniteMetricSpace.from_coords(np.array(x))
    m1 = mp.IdempotentMeasure(space, [-0.0, -0.0, 0.0, -1.0, NEG, -1.0, NEG, -2.0, NEG])
    m2 = mp.IdempotentMeasure(space, [NEG, -2.0, NEG, 0.0, 0.0, NEG, NEG, NEG, -1.0])
    levels = np.array([10.0, 100.0, 1e4, 1e5 / 3])
    assert _steep_by_definition((m1, m2), levels).all()
    got = _line_deltas(space, [(m1, m2)], levels)[:, 0]
    want = np.array([dense_deltas(m1, m2, a) for a in levels]).T
    assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()]


def test_steep_entries_stay_inside_a_memory_budget(monkeypatch):
    # equal supports keep every source at every steep level: 32 levels x 2
    # directions x ~4600 sources.  One vector pass per steep level holds a few
    # source-sized arrays (1.1 MB peak), not one entry per (row, source), and
    # the frame-block budget, which no steep row reads, changes neither the
    # peak nor the values
    import tracemalloc

    rng = np.random.default_rng(43)
    line = mp.build_grid([0.0], [1.0], [6561])
    support = rng.random(line.n_points) < 0.7
    pair = tuple(
        mp.normalize(line, np.where(support, -rng.integers(0, 8, line.n_points).astype(float), NEG))
        for _ in "ab"
    )
    levels = 10.0 ** np.linspace(6.0, 13.0, 32)
    assert _steep_by_definition(pair, levels).all()
    peaks, values = [], []
    for budget in (1 << 15, 1 << 22):
        monkeypatch.setattr(mp.metrics, "_LINE_CELLS", budget)
        tracemalloc.start()
        values.append(_line_deltas(line, [pair], levels))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert max(peaks) < 6 << 20
    assert np.array_equal(values[0], values[1])
    # every source is its own nearest target, and every other target trails
    # it: the dense formula reads lambda_from(x) - lambda_to(x) at each x
    l1, l2 = (mu.density[support] for mu in pair)
    want = np.array([[np.max(l1 - l2)], [np.max(l2 - l1)]])
    assert np.array_equal(values[0][:, 0], np.broadcast_to(want, (2, levels.size)))


def test_far_coordinates_overflow_nothing_in_the_line_kernel():
    # points near 1e161 with gaps of 1e152 pass the span checks, and a * D
    # stays far below 2^1022 at these levels, but a * 1e161 overflows: a
    # steep row's missing side and a block's padding element, both once at
    # coordinate 0, made a * |x - 0| overflow (a RuntimeWarning, an error here)
    space = mp.FiniteMetricSpace.from_coords(1e161 + np.arange(6) * 1e152)
    deep = -1e300
    one_sided = (
        mp.IdempotentMeasure(space, [0.0, NEG, -1.0, NEG, NEG, NEG]),
        mp.IdempotentMeasure(space, [NEG, NEG, NEG, NEG, 0.0, -2.0]),
    )
    short = (
        mp.IdempotentMeasure(space, [0.0, deep, 0.0, 0.0, NEG, NEG]),
        mp.IdempotentMeasure(space, [0.0, 0.0, deep, 0.0, NEG, NEG]),
    )
    wide = (
        mp.IdempotentMeasure(space, [0.0, deep, 0.0, 0.0, 0.0, 0.0]),
        mp.IdempotentMeasure(space, [0.0, 0.0, deep, 0.0, 0.0, 0.0]),
    )
    for pairs, a in (([one_sided], 1e150), ([short, wide], 1.9e148)):
        got = _line_deltas(space, pairs, np.array([a]))
        for k, pair in enumerate(pairs):
            assert got[:, k, 0].tolist() == list(dense_deltas(*pair, a))


def test_line_dual_frames_keep_the_winning_source_at_each_bound():
    # pairs built so that the winning source lies just inside each frame's
    # bound: a middle level below the steep one (a gmin = 1.35 spread), where
    # a source gmin from its target wins; a steep level (a gmin = 3 spread),
    # where a source 1.5 gmin from its target beats the farthest one, 2 gmin
    # from its own; and a flat level, where the top source loses to a point
    # at -0.7 a D; and on 64 points, tight levels 0.0125 and 0.025 (at most 2
    # points reach -a D), where a source at -0.75 a D of the larger wins but
    # lies below the reach of the smaller, and a flat level 0.05 (3 points),
    # where a source at -0.6 a D, below the tight reach, wins
    def pair(x, lam1, lam2):
        space = mp.FiniteMetricSpace.from_coords(np.array(x, dtype=float))
        return space, mp.IdempotentMeasure(space, lam1), mp.IdempotentMeasure(space, lam2)

    cases = [
        (pair([0.0, 0.9, 10.0, 12.0], [0.0, NEG, -1.0, NEG], [NEG, -1.0, NEG, 0.0]), [1.5, 3.0]),
        (
            pair([0.0, 1.5, 10.0, 12.0, 30.0, 31.0], [0.0, NEG, -1.0, NEG, NEG, NEG], [NEG, -1.0, NEG, 0.0, -1.0, -1.0]),
            [1.5, 3.0],
        ),
        (pair(np.arange(16.0), [0.0] + [-5.0] * 14 + [-0.105], [0.0] + [-5.0] * 15), [0.01, 0.005]),
        (
            pair(np.arange(64.0), [0.0] + [-5.0] * 47 + [-1.18125] + [-5.0] * 14 + [-1.89], [0.0] + [-5.0] * 63),
            [0.0125, 0.025, 0.05, 0.1],
        ),
    ]
    for (space, m1, m2), levels in cases:
        levels = np.array(levels)
        got = _line_deltas(space, [(m1, m2)], levels)[:, 0]
        for k, a in enumerate(levels):
            assert got[:, k].tolist() == list(dense_deltas(m1, m2, a))
