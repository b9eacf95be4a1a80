import itertools

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import maxplus_ifs as mp
from conftest import np_random_measure, random_euclidean_space, random_matrix_space
from oracles import threshold_d1


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


def test_diameter_examples():
    assert mp.build_grid([0], [1], [3]).diameter() == 1.0
    single = mp.FiniteMetricSpace.from_coords([[0.25]])
    assert single.diameter() == 0.0
    assert mp.build_grid([0, 0], [1, 1], [1, 1]).diameter() == pytest.approx(np.sqrt(2))
    # a point set over two row blocks whose farthest pair lies in the second
    pts = np.random.default_rng(13).uniform(-1.0, 1.0, (700, 3))
    pts[[600, 699]] = [[-5.0, 0.0, 1.0], [5.0, 2.0, -1.0]]
    assert mp.FiniteMetricSpace.from_coords(pts).diameter() == cdist(pts, pts).max()


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
