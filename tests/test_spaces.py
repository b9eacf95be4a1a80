import itertools
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import maxplus_ifs as mp
from conftest import np_random_measure, random_euclidean_space, random_matrix_space
from oracles import coincident_pair_kdtree, diameter_sweep, threshold_d1


def _five_point_calls():
    g = mp.build_grid([0.0], [1.0], [4])
    ifs = mp.MaxPlusIFS(g, (mp.ContractionMap(g, [2] * 5),), [0.0])
    return {
        "hausdorff": lambda p: mp.hausdorff(p, [0], g),
        "attractor": lambda p: mp.attractor(ifs, p),
        "dirac": lambda p: mp.dirac(g, p[0]),
        "random_measure": lambda p: mp.random_measure(g, mp.Lcg64(0), points=p),
    }


@pytest.mark.parametrize("caller", ["hausdorff", "attractor", "dirac", "random_measure"])
@pytest.mark.parametrize(
    "points, message",
    [
        ([-1], "point index -1 is out of range for a space of 5 points"),  # numpy wraps it
        ([5], "point index 5 is out of range"),  # a bare IndexError
        ([0.5], "point index 0.5 is not an integer"),  # truncated to 0
        ([1.5], "point index 1.5 is not an integer"),
        ([True], "point index True is not an integer"),  # a mask: every point
    ],
)
def test_point_indices_refuse_what_numpy_would_misread(caller, points, message):
    # hausdorff([-1], [4]) and hausdorff([0.5], [0]) used to return 0.0, and
    # dirac(g, True) the uniform measure; one check in spaces refuses them all
    call = _five_point_calls()[caller]
    with pytest.raises(ValueError, match=f"^{caller}: {message}"):
        call(points)


def test_point_indices_keep_numpy_integers():
    calls = _five_point_calls()
    assert calls["hausdorff"]([np.int64(4)]) == 1.0
    assert calls["attractor"](np.array([3, 4])) == frozenset([2])
    assert calls["dirac"]([np.int64(3)]).support().tolist() == [3]
    assert calls["random_measure"](np.array([1], dtype=np.uint8)).support().tolist() == [1]


def test_grid_unit_interval():
    g = mp.build_grid([0], [1], [3])
    assert g.n_points == 4
    np.testing.assert_allclose(g.coords.ravel(), [0, 1 / 3, 2 / 3, 1])
    assert g.dist(0, 3) == 1.0
    assert g.dist(1, 2) == pytest.approx(1 / 3)


def test_grid_square_corners():
    g = mp.build_grid([0, 0], [1, 1], [1, 1])
    assert g.n_points == 4
    assert g.diameter() == pytest.approx(np.sqrt(2))


def test_grid_two_points():
    g = mp.build_grid([0], [1], [1])
    assert g.n_points == 2 and g.dist(0, 1) == 1.0


def test_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        mp.build_grid([0], [1], [0])
    with pytest.raises(ValueError):
        mp.build_grid([1], [0], [2])
    with pytest.raises(ValueError):
        mp.build_grid([0, 0], [1, 1], [2])


def test_matrix_validation_rejects_non_metrics():
    with pytest.raises(ValueError):  # asymmetric
        mp.FiniteMetricSpace.from_matrix([[0, 1], [2, 0]])
    with pytest.raises(ValueError):  # nonzero diagonal
        mp.FiniteMetricSpace.from_matrix([[1, 1], [1, 0]])
    with pytest.raises(ValueError):  # zero off-diagonal
        mp.FiniteMetricSpace.from_matrix([[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="triangle"):
        mp.FiniteMetricSpace.from_matrix([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    with pytest.raises(ValueError):  # negative
        mp.FiniteMetricSpace.from_matrix([[0, -1], [-1, 0]])


def test_from_coords_rejects_duplicates():
    with pytest.raises(ValueError, match="coincide"):
        mp.FiniteMetricSpace.from_coords([[0.0], [0.0], [1.0]])


def test_from_coords_coincidence_is_computed_distance_zero():
    # -0.0 and 0.0 are one point; so are points whose squared offset
    # underflows, while a representable squared offset keeps them apart
    with pytest.raises(ValueError, match="points 1 and 3 coincide"):
        mp.FiniteMetricSpace.from_coords([[1.0, 2.0], [0.0, 1.0], [2.0, 0.0], [-0.0, 1.0]])
    with pytest.raises(ValueError, match="points 0 and 2 coincide"):
        mp.FiniteMetricSpace.from_coords([[1e-170], [1.0], [0.0], [2e-170]])
    assert mp.FiniteMetricSpace.from_coords([[1e-150], [0.0]]).n_points == 2
    # the first index with a twin, and its first twin, as a pairwise scan reports
    with pytest.raises(ValueError, match="points 0 and 4 coincide"):
        mp.FiniteMetricSpace.from_coords([[5.0], [3.0], [3.0], [4.0], [5.0], [3.0]])
    # off the line too: past a point sorted between the pair on axis 0 only,
    # and in a chain of 1e-162 steps (which square to 0) whose ends are apart
    with pytest.raises(ValueError, match="points 0 and 2 coincide"):
        mp.FiniteMetricSpace.from_coords([[0.0, 0.0], [5e-171, 1.0], [1e-170, 0.0], [1e-170, 1.0]])
    with pytest.raises(ValueError, match="points 0 and 2 coincide"):
        mp.FiniteMetricSpace.from_coords([[0.0, 0.0], [0.0, 2e-162], [0.0, 1e-162]])


def test_points_chained_on_every_axis_without_a_twin_are_accepted():
    # steps of 1e-162 square to 0, so the four points form one run on axis 0
    # and, sorted inside it, one on axis 1; yet every pair is at least
    # 2e-162 apart on some axis, whose square is a subnormal above 0
    coords = np.array([[0.0, 1.0], [1.0, 3.0], [2.0, 0.0], [3.0, 2.0]]) * 1e-162
    assert mp.spaces._coincident_pair(coords, None) is None
    assert coincident_pair_kdtree(coords) is None
    assert mp.FiniteMetricSpace.from_coords(coords).n_points == 4


def test_line_coincidence_names_the_pair_of_a_radius_zero_pair_query():
    # one sort on the line refuses exactly the pairs whose squared gap is 0
    # (a gap below about 1.57e-162 squares to 0), and names the least pair,
    # also inside clusters where that pair is not a sorted neighbour
    rng = np.random.default_rng(30)
    threshold = 2.0**-537.5
    refused = 0
    for trial in range(400):
        n = int(rng.integers(2, 30))
        if trial % 4 == 0:  # repeated points, with signed zeros
            x = rng.integers(-3, 4, n).astype(float)
            x[rng.random(n) < 0.3] = -0.0
        elif trial % 4 == 1:  # clusters straddling the underflow threshold
            x = rng.integers(0, 4, n) * 1e-150 + rng.integers(0, 5, n) * threshold * rng.uniform(0.3, 1.2)
        elif trial % 4 == 2:  # offsets on both sides of the threshold around 0
            x = rng.choice([-1.0, 1.0], n) * threshold * rng.uniform(0.0, 3.0, n)
        else:  # distinct points at scales down to the subnormal squared gaps
            x = rng.permutation(rng.uniform(-1.0, 1.0, n)) * 10.0 ** rng.uniform(-165, 0)
        want = coincident_pair_kdtree(x[:, None])
        if want is None:
            assert mp.FiniteMetricSpace.from_coords(x).n_points == n
        else:
            refused += 1
            with pytest.raises(ValueError, match=f"points {want[0]} and {want[1]} coincide"):
                mp.FiniteMetricSpace.from_coords(x)
    assert 100 < refused < 350


def test_vertical_segment_validates_inside_the_table_budget():
    # every point shares x0, so axis 0 is one run; sorting it on axis 1
    # splits it, in O(n) memory rather than a table of the run
    import tracemalloc

    y = np.linspace(0.0, 1.0, 6561)
    coords = np.stack([np.full_like(y, 0.5), y], axis=1)
    tracemalloc.start()
    space = mp.FiniteMetricSpace.from_coords(coords)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert space.n_points == 6561
    assert peak < (1 << 18) * 8  # one 2^18-entry float table
    twin = coords.copy()
    twin[-1] = twin[-2]
    with pytest.raises(ValueError, match="points 6559 and 6560 coincide"):
        mp.FiniteMetricSpace.from_coords(twin)


def test_construction_copies_the_callers_arrays():
    # the space freezes its own copy; the caller can still write to theirs
    c = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    coords_space = mp.FiniteMetricSpace.from_coords(c)
    matrix_space = mp.FiniteMetricSpace.from_matrix(m)
    c[0, 0] = 7.0
    m[0, 2] = m[2, 0] = 1.5
    assert coords_space.coords[0, 0] == 0.0 and coords_space.dist(0, 1) == 1.0
    assert matrix_space.dist(0, 2) == 2.0
    assert not coords_space.coords.flags.writeable
    assert not matrix_space.distance_matrix().flags.writeable


def test_line_distances_are_exact_gaps():
    # |x - y| on the line equals cdist wherever the squared gap is a normal
    # float; below about 1.5e-154 cdist loses bits and the line keeps the gap
    rng = np.random.default_rng(31)
    for scale in (1e-152, 1e-100, 1e-3, 1.0, 1e100, 1e150):
        x = rng.uniform(-scale, scale, (300, 1))
        idx = np.arange(300)
        d = mp.FiniteMetricSpace.from_coords(x).distance_submatrix(idx, idx)
        assert np.array_equal(d, np.abs(x - x.T))
        normal = d * d >= np.finfo(float).tiny
        assert np.array_equal(d[normal], cdist(x, x)[normal]) and normal.sum() > 80000
    tiny = mp.FiniteMetricSpace.from_coords([[0.0], [1e-160], [3e-160]])
    assert tiny.dist(0, 1) == 1e-160 and tiny.dist(2, 0) == 3e-160
    assert tiny.distance_matrix()[1, 2] == 3e-160 - 1e-160
    assert cdist([[0.0]], [[1e-160]])[0, 0] != 1e-160  # the bits cdist loses
    assert tiny.line and mp.build_grid([0], [1], [3]).line
    for space in (
        mp.build_grid([0, 0], [1, 1], [2, 2]),
        mp.FiniteMetricSpace.from_matrix([[0.0, 1.0], [1.0, 0.0]], coords=[[0.0], [1.0]]),
        mp.product(tiny, tiny),
    ):
        assert not space.line


def test_coordinate_distances_must_stay_finite_and_positive():
    # a squared span that overflows would make distances inf (and discrete
    # Lipschitz constants inf / inf); a grid step that squares to 0 would
    # make neighbours coincide; both builders refuse, naming the span
    with pytest.raises(ValueError, match="coordinate span 1e\\+200 overflows"):
        mp.build_grid([0.0], [1e200], [27])
    with pytest.raises(ValueError, match="coordinate span 2e\\+154 overflows"):
        mp.FiniteMetricSpace.from_coords([[0.0], [1e154], [2e154]])
    with pytest.raises(ValueError, match="span 1e\\+154 x 1e\\+154 overflows"):
        mp.FiniteMetricSpace.from_coords([[0.0, 0.0], [1e154, 1e154]])
    with pytest.raises(ValueError, match="points 0 and 1 coincide .*coordinate span 1e-170"):
        mp.build_grid([0.0], [1e-170], [27])
    assert mp.FiniteMetricSpace.from_coords([[0.0], [1e154]]).diameter() == 1e154
    assert mp.build_grid([0.0], [1e-150], [27]).n_points == 28
    # an explicit matrix carries the metric; its coordinates are metadata
    assert mp.FiniteMetricSpace.from_matrix([[0.0, 1.0], [1.0, 0.0]], coords=[[0.0], [0.0]])


def test_metric_axioms_on_random_spaces():
    rng = np.random.default_rng(3)
    for make in (random_euclidean_space, random_matrix_space):
        for n in (2, 5, 9):
            s = make(rng, n)
            d = s.distance_matrix()
            assert np.all(np.diagonal(d) == 0)
            assert np.array_equal(d, d.T)
            assert np.all(d + np.eye(n) > 0)
            for k in range(n):
                assert np.all(d <= d[:, k, None] + d[None, k, :] + 1e-12)


def test_product_examples():
    a = mp.build_grid([0], [1], [1])
    b = mp.build_grid([0], [1], [1])
    p = mp.product(a, b)
    assert p.n_points == 4
    assert p.diameter() == 1.0
    # left components equal: distance is the right-hand distance
    assert p.dist(p.pair_index(0, 0), p.pair_index(0, 1)) == 1.0


def test_product_space_is_built_by_the_base_initializer():
    # coordinates of a product are metadata: its metric is the max metric
    a = mp.build_grid([0.0], [1.0], [6])
    b = mp.build_grid([0.0], [2.0], [4])
    p = mp.product(a, b)
    assert p.euclidean is False and p.coords.shape == (35, 2)
    assert p.n_points == 35 and not p.is_grid()
    rng = np.random.default_rng(7)
    for _ in range(10):
        m1, m2 = np_random_measure(p, rng), np_random_measure(p, rng)
        assert mp.coupling_distance(m1, m2) == threshold_d1(m1, m2)
    assert mp.product(random_matrix_space(np.random.default_rng(6), 3), a).coords is None


def test_product_is_max_metric_exhaustive():
    rng = np.random.default_rng(4)
    a = random_matrix_space(rng, 3)
    b = random_euclidean_space(rng, 4)
    p = mp.product(a, b)
    for (i, j), (k, l) in itertools.product(
        itertools.product(range(3), range(4)), repeat=2
    ):
        expected = max(a.dist(i, k), b.dist(j, l))
        assert p.dist(p.pair_index(i, j), p.pair_index(k, l)) == pytest.approx(
            expected, abs=1e-15
        )


def test_product_distance_matrix_matches_dist():
    rng = np.random.default_rng(11)
    grid2d = mp.build_grid([0, 0], [1, 2], [3, 4])
    for p in (
        mp.product(random_matrix_space(rng, 3), random_matrix_space(rng, 2)),
        mp.product(mp.build_grid([0], [1], [4]), grid2d),
        mp.product(random_matrix_space(rng, 4), grid2d),
    ):
        m = p.distance_matrix()
        dl, dr = p.left.distance_matrix(), p.right.distance_matrix()
        for i in range(p.n_points):
            il, ir = p.unpair(i)
            np.testing.assert_array_equal(m[i], np.maximum(dl[il][:, None], dr[ir][None, :]).ravel())
            assert m[i, i] == 0.0


def test_projections_cover_pairs():
    a = mp.build_grid([0], [1], [2])
    p = mp.product(a, a)
    pl, pr = p.proj_left, p.proj_right
    for k in range(p.n_points):
        i, j = p.unpair(k)
        assert pl[k] == i and pr[k] == j


def test_diameter_equals_the_blocked_sweep():
    # the span on the line and the bounding-box prefilter off it give the
    # sweep's value bit for bit: 300 random sets in 1-3 and 5 dimensions at
    # scales 1e-150 to 1e150, integer lattices with ties, points on a circle
    # (no point is filtered out), and the 6562-point line of the benchmark
    rng = np.random.default_rng(71)
    checked = 0
    for trial in range(300):
        n, dim = int(rng.integers(1, 120)), [1, 2, 3, 5][trial % 4]
        kind = trial % 3
        if kind == 0:
            x = rng.uniform(-1.0, 1.0, (n, dim)) * 10.0 ** rng.integers(-150, 151)
        elif kind == 1:
            x = rng.integers(-3, 4, (n, dim)).astype(float) * rng.choice([1.0, 1e-150, 3e140])
        else:
            t = rng.uniform(0.0, 2.0 * np.pi, n)
            x = np.column_stack([np.cos(t), np.sin(t), np.zeros((n, dim))])[:, :dim]
        try:
            space = mp.FiniteMetricSpace.from_coords(x)
        except ValueError:  # coincident points
            continue
        checked += 1
        want = diameter_sweep(mp.FiniteMetricSpace.from_coords(x))
        assert space.diameter().hex() == want.hex()
    assert checked > 200
    x = np.random.default_rng(3).permutation(np.linspace(0.0, 1.0, 6562))
    line = mp.FiniteMetricSpace.from_coords(x)
    assert line.diameter().hex() == diameter_sweep(line).hex() == (1.0).hex()


def test_row_blocks_cover_index_sets_within_the_budget(monkeypatch):
    # rows in their given order, against the given columns, as many rows
    # per block as the budget of distances holds, and one row at least
    rng = np.random.default_rng(36)
    for space in (random_euclidean_space(rng, 40), random_matrix_space(rng, 40)):
        rows, cols = rng.permutation(40)[:25], rng.permutation(40)[:13]
        for budget in (1, 13, 40, 1 << 18):
            monkeypatch.setattr(mp.spaces, "_BLOCK_ELEMS", budget)
            blocks = list(space._row_blocks(rows, cols))
            sizes, step = [r.size for r, _ in blocks], max(1, budget // 13)
            assert sizes[:-1] == [step] * (len(sizes) - 1) and 0 < sizes[-1] <= step
            np.testing.assert_array_equal(np.concatenate([r for r, _ in blocks]), rows)
            got = np.concatenate([d for _, d in blocks])
            np.testing.assert_array_equal(got, space.distance_submatrix(rows, cols))
        whole = np.concatenate([d for _, d in space._row_blocks()])
        np.testing.assert_array_equal(whole, space.distance_submatrix(range(40), range(40)))


def test_diameter_examples():
    assert mp.build_grid([0], [1], [3]).diameter() == 1.0
    single = mp.FiniteMetricSpace.from_coords([[0.25]])
    assert single.diameter() == 0.0
    assert mp.build_grid([0, 0], [1, 1], [1, 1]).diameter() == pytest.approx(np.sqrt(2))
    # a point set over two row blocks whose farthest pair lies in the second
    pts = np.random.default_rng(13).uniform(-1.0, 1.0, (700, 3))
    pts[[600, 699]] = [[-5.0, 0.0, 1.0], [5.0, 2.0, -1.0]]
    assert mp.FiniteMetricSpace.from_coords(pts).diameter() == cdist(pts, pts).max()


def test_grid_diameter_is_the_table_maximum():
    # the norm of the box diagonal is 1 ulp high on the first grid and 1 ulp
    # low on the second; the diameter is the largest table entry on both
    high = mp.build_grid([0, 0], [0.2, 3.7], [1, 1])
    low = mp.build_grid([0, 0], [0.3, 1.3], [1, 1])
    assert high.diameter().hex() == diameter_sweep(high).hex() == "0x1.da4a985a7ccbep+1"
    assert low.diameter().hex() == diameter_sweep(low).hex() == "0x1.558bedfaf6cfap+0"
    rng = np.random.default_rng(72)
    for trial in range(60):
        dim = 1 + trial % 4
        lower = rng.uniform(-2.0, 2.0, dim)
        grid = mp.build_grid(lower, lower + rng.uniform(0.1, 4.0, dim), rng.integers(1, 5, dim))
        assert grid.diameter().hex() == diameter_sweep(grid).hex(), trial


def test_distance_matrix_cache_keeps_the_space_kind():
    # the full table is cached beside the metric, not in place of it
    pts = mp.FiniteMetricSpace.from_coords([[0.0], [1.0], [3.0], [7.0], [15.0]])
    grid = mp.build_grid([0], [1], [4])
    for space, kind in ((pts, "coords"), (grid, "grid")):
        before = repr(space)
        table = space.distance_matrix()
        assert repr(space) == before and f"kind={kind}" in before
        assert space.distance_matrix() is table
        np.testing.assert_array_equal(
            space.distance_submatrix([0, 4], [1, 2]), cdist(space.coords[[0, 4]], space.coords[[1, 2]])
        )
    explicit = mp.FiniteMetricSpace.from_matrix([[0.0, 1.0], [1.0, 0.0]])
    assert explicit.distance_matrix() is explicit.distance_matrix()
    assert repr(explicit) == "FiniteMetricSpace(n=2, kind=matrix)"


def test_grid_rejects_non_finite_bounds():
    for lower, upper in (([0.0], [np.inf]), ([-np.inf], [1.0]), ([np.nan], [1.0]), ([0.0], [np.nan])):
        with pytest.raises(ValueError, match="finite"):
            mp.build_grid(lower, upper, [9])


def test_grid_refuses_an_overflowing_span_before_linspace():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"grid span 1e\+308 - \(-1e\+308\) overflows on axis 0"):
            mp.build_grid([-1e308], [1e308], [9])
        with pytest.raises(ValueError, match="overflows on axis 1"):
            mp.build_grid([0.0, -1e308], [1.0, 1.7e308], [3, 3])


def test_hausdorff_examples():
    g = mp.build_grid([0], [1], [2])  # points 0, 1/2, 1
    assert mp.hausdorff([0, 1, 2], [0, 1, 2], g) == 0.0
    two = mp.build_grid([0], [1], [1])
    assert mp.hausdorff([0], [1], two) == 1.0
    assert mp.hausdorff([0, 2], [0], g) == 1.0


def test_hausdorff_empty_rejected():
    g = mp.build_grid([0], [1], [1])
    with pytest.raises(ValueError):
        mp.hausdorff([], [0], g)


def test_hausdorff_is_metric_on_subsets():
    rng = np.random.default_rng(5)
    s = random_matrix_space(rng, 5)
    subsets = []
    for mask in range(1, 32):
        subsets.append(tuple(i for i in range(5) if mask >> i & 1))
    h = {}
    for a in subsets:
        for b in subsets:
            h[a, b] = mp.hausdorff(a, b, s)
    for a in subsets:
        for b in subsets:
            assert h[a, b] == h[b, a]
            assert (h[a, b] == 0.0) == (a == b)
            for c in subsets:
                assert h[a, b] <= h[a, c] + h[c, b] + 1e-12


def test_line_space_owns_its_stable_point_order():
    # computed once when the space is built: the stable argsort of the
    # coordinate (ties by index in unvalidated spaces), frozen, and None off
    # the line
    rng = np.random.default_rng(33)
    x = rng.permutation(rng.uniform(-1.0, 1.0, 40))
    tied = np.repeat(x[:10], 3)
    for s in (
        mp.build_grid([0.0], [1.0], [9]),
        mp.FiniteMetricSpace.from_coords(x),
        mp.FiniteMetricSpace(coords=tied, validate=False),
    ):
        np.testing.assert_array_equal(s.order, np.argsort(s.coords[:, 0], kind="stable"))
        assert not s.order.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            s.order[0] = 0
    line = mp.build_grid([0.0], [1.0], [4])
    for s in (
        mp.build_grid([0.0, 0.0], [1.0, 1.0], [3, 3]),
        random_matrix_space(rng, 5),
        mp.FiniteMetricSpace.from_matrix(line.distance_matrix(), coords=line.coords),
        mp.product(line, line),
    ):
        assert s.order is None


def test_hausdorff_reads_row_blocks_of_the_sweep_budget(monkeypatch):
    # the full 2000 x 2000 table would take 32 MB; hausdorff is d1 of the set
    # indicators, whose kernels read bounded blocks, and gives the same value
    # bit for bit
    import tracemalloc

    rng = np.random.default_rng(34)
    line = mp.FiniteMetricSpace.from_coords(rng.uniform(0.0, 1.0, 4000))
    a, b = rng.permutation(4000)[:2000], rng.permutation(4000)[:2000]
    d = line.distance_submatrix(a, b)
    want = float(max(d.min(axis=1).max(), d.min(axis=0).max()))
    del d
    tracemalloc.start()
    got = mp.hausdorff(a, b, line)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert got == want and peak < 5 << 20  # a block and the next one being built
    # off the line the sources left by the ring search, and every source on a
    # matrix space, go through the table sweep in blocks of the patched budget
    plane = random_euclidean_space(rng, 300)
    matrix = random_matrix_space(rng, 300)
    sets = [rng.choice(300, size, replace=False) for size in (1, 7, 120, 300)]
    for space, (sa, sb) in itertools.product((plane, matrix), itertools.product(sets, repeat=2)):
        d = space.distance_submatrix(sa, sb)
        want = float(max(d.min(axis=1).max(), d.min(axis=0).max()))
        for budget in (1, 1000, 1 << 18):
            monkeypatch.setattr(mp.spaces, "_BLOCK_ELEMS", budget)
            assert mp.hausdorff(sa, sb, space) == want


def test_distance_tables_are_symmetric_bit_for_bit_on_every_space_kind():
    # d(a, b) is d(b, a).T in every bit, so one table can serve both
    # directions of a pair: grids and random points in 1-D to 4-D at three
    # scales ((x - y)^2 is (y - x)^2 exactly, summed in axis order), an
    # explicit matrix (checked symmetric when built) and a product space
    rng = np.random.default_rng(44)
    spaces = []
    for dim in (1, 2, 3, 4):
        cells = [6, 5, 4, 3][dim - 1]
        for scale in (1e-150, 1.0, 1e150):
            spaces.append(mp.build_grid([-0.3 * scale] * dim, [0.7 * scale] * dim, [cells] * dim))
            spaces.append(mp.FiniteMetricSpace.from_coords(rng.uniform(-scale, scale, (60, dim))))
    spaces.append(random_matrix_space(rng, 40))
    spaces.append(mp.product(random_euclidean_space(rng, 8), mp.build_grid([0.0], [1.0], [6])))
    for space in spaces:
        n = space.n_points
        for _ in range(3):
            a = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
            b = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
            ab, ba = space.distance_submatrix(a, b), space.distance_submatrix(b, a)
            assert ab.tobytes() == np.ascontiguousarray(ba.T).tobytes(), space
