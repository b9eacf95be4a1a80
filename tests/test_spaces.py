import itertools

import numpy as np
import pytest

import maxplus_ifs as mp
from conftest import random_euclidean_space, random_matrix_space


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
    p = mp.product(random_matrix_space(rng, 3), random_matrix_space(rng, 2))
    m = p.distance_matrix()
    for i in range(p.n_points):
        np.testing.assert_array_equal(m[i], p.distances_from(i))


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
