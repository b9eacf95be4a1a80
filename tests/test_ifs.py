import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import maxplus_ifs as mp
from maxplus_ifs.ifs import CertificateError
from conftest import (
    cantor_ifs,
    ladder_ifs,
    np_random_measure,
    random_matrix_space,
    random_table_ifs,
)
from oracles import all_pairs_lip, two_sweep_certificate


# --- comparison functions ---------------------------------------------------

def test_comparison_function_families():
    lin = mp.ComparisonFunction("linear", 0.5)
    rat = mp.ComparisonFunction("rational", 2.0)
    for t in [0.01, 0.5, 1.0, 7.0]:
        assert 0 < lin(t) < t
        assert 0 < rat(t) < t
    # nondecreasing
    ts = np.linspace(0, 10, 100)
    assert np.all(np.diff(lin(ts)) >= 0)
    assert np.all(np.diff(rat(ts)) >= 0)


def test_comparison_function_validation():
    with pytest.raises(ValueError):
        mp.ComparisonFunction("linear", 1.0)
    with pytest.raises(ValueError):
        mp.ComparisonFunction("linear", 0.0)
    with pytest.raises(ValueError):
        mp.ComparisonFunction("rational", -1.0)
    with pytest.raises(ValueError):
        mp.ComparisonFunction("weird", 0.5)


def test_rational_witness_refuses_an_infinite_parameter():
    # t / (1 + inf * t) is NaN at t = 0, so the certificate would compare NaN gaps
    for param in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError, match=r"rational witness needs a parameter in \(0, inf\)"):
            mp.ComparisonFunction("rational", param)
    assert mp.ComparisonFunction("rational", 1e308)(0.0) == 0.0


# --- snapping ---------------------------------------------------------------

def test_snap_identity_map():
    g = mp.build_grid([0], [1], [5])
    m = mp.snap_affine(g, [[1.0]], [0.0])
    np.testing.assert_array_equal(m.target, np.arange(6))
    assert m.discrete_lip == 1.0


def test_snap_third_on_coarse_grid():
    g = mp.build_grid([0], [1], [3])
    m = mp.snap_affine(g, [[1 / 3]], [0.0])
    # images 0, 1/9, 2/9, 1/3 snap to 0, 0, 1/3, 1/3
    np.testing.assert_array_equal(m.target, [0, 0, 1, 1])


def test_snap_constant_map():
    g = mp.build_grid([0], [1], [4])
    m = mp.snap_affine(g, [[0.0]], [0.0])
    np.testing.assert_array_equal(m.target, np.zeros(5, dtype=int))
    assert m.discrete_lip == 0.0


def test_snap_rejects_escaping_map():
    g = mp.build_grid([0], [1], [4])
    with pytest.raises(ValueError, match="bounding box"):
        mp.snap_affine(g, [[1.0]], [0.5])


def test_snap_rejects_non_finite_images():
    g = mp.build_grid([0], [1], [4])
    for a, b in (([[np.nan]], [0.0]), ([[0.5]], [np.nan]), ([[0.5]], [np.inf])):
        with pytest.raises(ValueError, match="bounding box"):
            mp.snap_affine(g, a, b)


def test_snap_tie_breaks_to_lower_index():
    g = mp.build_grid([0], [1], [2])  # points 0, 1/2, 1
    m = mp.snap_affine(g, [[0.0]], [0.25])  # exactly between 0 and 1/2
    np.testing.assert_array_equal(m.target, [0, 0, 0])


def test_snap_2d():
    g = mp.build_grid([0, 0], [1, 1], [2, 2])
    m = mp.snap_affine(g, [[0.5, 0.0], [0.0, 0.5]], [0.0, 0.0])
    assert m.declared_lip == pytest.approx(0.5)
    img = g.coords @ np.array([[0.5, 0], [0, 0.5]]).T
    np.testing.assert_allclose(
        np.linalg.norm(img - g.coords[m.target], axis=1), m.snap_error
    )


# --- certificates -----------------------------------------------------------

def test_certificate_verified_on_ladder():
    ifs = ladder_ifs()
    assert ifs.all_witnessed()
    assert ifs.discrete_lip_max == pytest.approx(1 / 3)


def test_certificate_failure_reports_worst_pair():
    g = mp.build_grid([0], [1], [9])
    snapped = mp.snap_affine(g, [[1 / 3]], [0.0])
    with pytest.raises(CertificateError, match=r"worst pair \(\d+, \d+\)"):
        mp.ContractionMap(
            g, snapped.target, witness=mp.ComparisonFunction("linear", 1 / 3)
        )
    assert issubclass(CertificateError, ValueError)
    # among tied worst pairs the first in row-major order is named.  With
    # distances 1 and 2 every gap is exact; the largest, 1.5, is tied at
    # pairs (1, 6), (2, 6), (3, 4) and (3, 5)
    m = np.array(
        [
            [0, 2, 1, 2, 1, 2, 2],
            [2, 0, 1, 1, 1, 2, 1],
            [1, 1, 0, 1, 1, 2, 1],
            [2, 1, 1, 0, 1, 1, 2],
            [1, 1, 1, 1, 0, 1, 2],
            [2, 2, 2, 1, 1, 0, 2],
            [2, 1, 1, 2, 2, 2, 0],
        ],
        dtype=float,
    )
    space = mp.FiniteMetricSpace.from_matrix(m)
    half = mp.ComparisonFunction("linear", 0.5)
    with pytest.raises(CertificateError) as err:
        mp.ContractionMap(space, [4, 2, 2, 0, 1, 6, 5], witness=half)
    assert str(err.value) == (
        "contraction certificate fails: d(f(1), f(6)) = 2 > witness(d(1, 6)) = 0.5 "
        "(worst pair (1, 6))"
    )
    # ties in two row blocks of the sweep: (9, 10), (10, 11), (599, 600), (600, 601)
    line = mp.build_grid([0.0], [1000.0], [1000])
    target = np.zeros(line.n_points, dtype=int)
    target[[10, 600]] = 5
    with pytest.raises(CertificateError) as err:
        mp.ContractionMap(line, target, witness=half)
    assert str(err.value).endswith("= 5 > witness(d(9, 10)) = 0.5 (worst pair (9, 10))")


def test_witnessed_table_map_reads_the_row_blocks_in_one_pass(monkeypatch):
    # the constant and the certificate come from one sweep of the image distances
    blocks = mp.FiniteMetricSpace._row_blocks
    passes = []

    def counted(self, *args):
        passes.append(self)
        return blocks(self, *args)

    monkeypatch.setattr(mp.FiniteMetricSpace, "_row_blocks", counted)
    rational = mp.ComparisonFunction("rational", 1.0)
    for space in (random_matrix_space(np.random.default_rng(3), 12), mp.build_grid([0, 0], [1, 1], [9, 9])):
        passes.clear()
        m = mp.ContractionMap(space, np.full(space.n_points, 5), witness=rational)
        assert passes == [space] and m.discrete_lip == 0.0
    assert not hasattr(mp.ContractionMap, "_compute_lip")
    assert not hasattr(mp.ContractionMap, "_verify_certificate")


def test_every_certificate_reads_its_table_once(monkeypatch):
    # a failing certificate reads the n^2 distances and their images once, then
    # the two distances of its message: a matrix space's diameter (the slack's
    # scale) reads no distance, and a witnessed snapped map takes no second sweep
    read = mp.FiniteMetricSpace.distance_submatrix
    entries = []

    def counted(self, rows, cols):
        out = read(self, rows, cols)
        entries.append(out.size)
        return out

    def reads(build) -> tuple[int, str]:
        """Distances that build reads, and the message of its CertificateError."""
        entries.clear()
        monkeypatch.setattr(mp.FiniteMetricSpace, "distance_submatrix", counted)
        with pytest.raises(CertificateError) as err:
            build()
        monkeypatch.undo()
        return sum(entries), str(err.value)

    half = mp.ComparisonFunction("linear", 0.5)
    for space in (random_matrix_space(np.random.default_rng(5), n) for n in (12, 40)):
        target = np.arange(space.n_points)[::-1]
        count, message = reads(lambda: mp.ContractionMap(space, target, half))
        assert count == 2 * space.n_points**2 + 2
        assert message == two_sweep_certificate(space, target, half)
    grid = mp.build_grid([0, 0], [1, 1], [20, 20])
    grid.diameter()  # Euclidean points: a pruned sweep, left out of the count
    count, message = reads(lambda: mp.snap_affine(grid, np.eye(2) / 2, [0, 0], half))
    assert count == 2 * grid.n_points**2 + 2
    target = mp.snap_affine(grid, np.eye(2) / 2, [0, 0]).target
    assert message == two_sweep_certificate(grid, target, half)
    # a constant snapped map passes its witness, with the constant of the same pass
    m = mp.snap_affine(grid, np.zeros((2, 2)), [0.5, 0.5], half)
    assert m.witness == half and m.discrete_lip == 0.0 and m.snap_error.max() == 0.0


def test_contraction_map_validation():
    g = mp.build_grid([0], [1], [2])
    with pytest.raises(ValueError):
        mp.ContractionMap(g, [0, 1])  # not total
    with pytest.raises(ValueError):
        mp.ContractionMap(g, [0, 1, 3])  # out of range


# --- discrete Lipschitz constant: neighbour route on the line ---------------

def test_discrete_lip_line_route_equals_all_pairs_on_snapped_grids():
    maps = [(1 / 3, 0.0), (1 / 3, 2 / 3), (-1 / 3, 1 / 3), (-1 / 3, 1.0), (0.5, 0.25), (-0.9, 0.95)]
    for k in range(1, 9):
        grid = mp.build_grid([0.0], [1.0], [3**k])
        for slope, offset in maps if k < 8 else maps[:2]:
            m = mp.snap_affine(grid, [[slope]], [offset])
            assert m.discrete_lip == all_pairs_lip(grid, m.target), (k, slope, offset)
    # on 3^8 cells a snapped Cantor step grows by a rounding of the grid
    assert m.discrete_lip == 1.0000000000007285


def test_discrete_lip_line_route_equals_all_pairs_on_random_tables():
    rng = np.random.default_rng(40)
    for trial in range(60):
        n = int(rng.integers(1, 40)) if trial % 3 else int(rng.integers(1, 3))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        x = rng.permutation(rng.uniform(-scale, scale, n))  # unsorted
        space = mp.FiniteMetricSpace.from_coords(x)
        twin = mp.FiniteMetricSpace.from_matrix(cdist(space.coords, space.coords))
        for target in (rng.integers(0, n, n), np.argsort(-x)):
            lip = mp.ContractionMap(space, target).discrete_lip
            assert lip == mp.ContractionMap(twin, target).discrete_lip
            assert n > 1 or lip == 0.0


def test_discrete_lip_equals_all_pairs_off_the_line():
    # the sweep over row blocks, on spaces where the line route does not
    # apply; 676 points span two blocks, and 9-D points are where a norm
    # and cdist disagree in the last bit
    rng = np.random.default_rng(41)
    spaces = [
        mp.build_grid([0.0, 0.0], [1.0, 2.0], [25, 25]),
        mp.build_grid([0.0, 0.0, 0.0], [1.0, 1.0, 3.0], [4, 5, 6]),
        mp.FiniteMetricSpace.from_coords(rng.normal(size=(300, 7))),
        mp.FiniteMetricSpace.from_coords(rng.normal(size=(300, 9))),
        random_matrix_space(rng, 60),
        mp.product(mp.build_grid([0.0, 0.0], [1.0, 1.0], [3, 4]), random_matrix_space(rng, 9)),
    ]
    for space in spaces:
        n = space.n_points
        for target in (rng.integers(0, n, n), np.sort(rng.integers(0, n, n)), np.zeros(n, int)):
            assert mp.ContractionMap(space, target).discrete_lip == all_pairs_lip(space, target)
    grid = spaces[0]
    m = mp.snap_affine(grid, [[0.5, 0.0], [0.0, 0.5]], [0.25, 0.5])
    assert m.discrete_lip == all_pairs_lip(grid, m.target)


def test_all_pairs_sweep_memory_is_bounded():
    # row blocks hold at most 2^18 distances, whatever n: snapping on the
    # 81 x 81 grid peaked at 77 MB with 512-row blocks
    grid = mp.build_grid([0.0, 0.0], [1.0, 1.0], [80, 80])
    tracemalloc.start()
    try:
        m = mp.snap_affine(grid, [[0.5, 0.1], [0.0, 0.5]], [0.1, 0.2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6
    assert m.discrete_lip == 1.4142135623731014  # as with 512-row blocks


def test_off_grid_snap_memory_is_bounded():
    # the images x points table of 4000 random 2-D points took 134 MB at once
    space = mp.FiniteMetricSpace.from_coords(np.random.default_rng(5).uniform(0, 1, (4000, 2)))
    tracemalloc.start()
    try:
        m = mp.snap_affine(space, [[0.5, 0.1], [0.0, 0.5]], [0.1, 0.2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6
    images = space.coords @ np.array([[0.5, 0.1], [0.0, 0.5]]).T + [0.1, 0.2]
    np.testing.assert_array_equal(m.target, np.argmin(cdist(images, space.coords), axis=1))


@pytest.mark.parametrize("block", [1, 7, 50, 1 << 18])
def test_off_grid_snap_blocks_equal_the_full_table(monkeypatch, block):
    # lattices given as point sets (not grids) put images exactly halfway
    # between points: ties must still go to the lowest index in every block
    monkeypatch.setattr(mp.spaces, "_BLOCK_ELEMS", block)
    rng = np.random.default_rng(11)
    lattice = mp.build_grid([0, 0], [1, 1], [8, 6]).coords
    cases = [
        (mp.FiniteMetricSpace.from_coords(lattice), np.diag([0.5, 0.5]), [0.0625, 0.0]),
        (mp.FiniteMetricSpace.from_coords(rng.uniform(0, 1, (300, 3))), np.eye(3) / 3, [0.3] * 3),
        (mp.FiniteMetricSpace.from_coords(rng.uniform(0, 1, (97, 1))), [[0.5]], [0.25]),
    ]
    for space, a, b in cases:
        images = space.coords @ np.asarray(a).T + b
        full = np.argmin(cdist(images, space.coords), axis=1)
        np.testing.assert_array_equal(mp.snap_affine(space, a, b).target, full)
    space, a, b = cases[0]
    gaps = np.sort(cdist(space.coords @ a.T + b, space.coords), axis=1)
    assert np.any(gaps[:, 0] == gaps[:, 1])  # the lattice case does have ties


def test_discrete_lip_propagates_nan():
    # unvalidated infinite distances give inf / inf; never a silent 0
    inf = float("inf")
    space = mp.FiniteMetricSpace(matrix=[[0.0, inf], [inf, 0.0]], validate=False)
    with np.errstate(invalid="ignore"):
        assert np.isnan(mp.ContractionMap(space, [1, 0]).discrete_lip)


# --- the Markov operator ----------------------------------------------------

def test_markov_single_constant_map():
    g = mp.build_grid([0], [1], [4])
    ifs = mp.MaxPlusIFS(g, (mp.ContractionMap(g, [2] * 5),), [0.0])
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = np_random_measure(g, rng)
        assert mp.markov(ifs, m) == mp.dirac(g, 2)


def test_markov_on_dirac_matches_definition():
    rng = np.random.default_rng(1)
    s = random_matrix_space(rng, 6)
    ifs = random_table_ifs(s, rng, n_maps=3)
    for x in range(6):
        got = mp.markov(ifs, mp.dirac(s, x))
        expected = mp.weighted_oplus(
            ifs.weights, [mp.dirac(s, int(m.target[x])) for m in ifs.maps]
        )
        assert got == expected


def test_markov_two_point_fixed_measure():
    two = mp.build_grid([0], [1], [1])
    ifs = mp.MaxPlusIFS(
        two,
        (mp.ContractionMap(two, [0, 0]), mp.ContractionMap(two, [1, 1])),
        [0.0, -1.0],
    )
    mu = mp.IdempotentMeasure(two, [0.0, -1.0])
    out = mp.markov(ifs, mu)
    np.testing.assert_array_equal(out.density, [0.0, -1.0])


def test_markov_preserves_normalization():
    rng = np.random.default_rng(2)
    for trial in range(50):
        s = random_matrix_space(rng, int(rng.integers(2, 9)))
        ifs = random_table_ifs(s, rng, n_maps=int(rng.integers(1, 4)))
        m = np_random_measure(s, rng)
        out = mp.markov(ifs, m)
        assert out.density.max() == 0.0


def test_markov_support_recursion():
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = random_matrix_space(rng, 7)
        ifs = random_table_ifs(s, rng)
        m = np_random_measure(s, rng, p_finite=0.5)
        got = set(mp.markov(ifs, m).support().tolist())
        expected = set()
        for cmap in ifs.maps:
            expected |= set(cmap.target[m.support()].tolist())
        assert got == expected


# --- dual operator ----------------------------------------------------------

def test_markov_dual_identity_and_constant():
    g = mp.build_grid([0], [1], [3])
    ident = mp.MaxPlusIFS(g, (mp.ContractionMap(g, np.arange(4)),), [0.0])
    f = mp.TestFunction(g, [1.0, -2.0, 0.5, 3.0])
    np.testing.assert_array_equal(mp.markov_dual(ident, f).values, f.values)
    rng = np.random.default_rng(4)
    ifs = random_table_ifs(g, rng)
    c = mp.TestFunction(g, [2.5] * 4)
    np.testing.assert_array_equal(mp.markov_dual(ifs, c).values, c.values)


def test_duality_identity_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        s = random_matrix_space(rng, int(rng.integers(2, 10)))
        ifs = random_table_ifs(s, rng, n_maps=int(rng.integers(1, 4)))
        m = np_random_measure(s, rng)
        f = mp.TestFunction(s, rng.uniform(-5, 5, s.n_points))
        lhs = mp.integrate(mp.markov(ifs, m), f)
        rhs = mp.integrate(m, mp.markov_dual(ifs, f))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_dual_lipschitz_transfer():
    rng = np.random.default_rng(6)
    for _ in range(30):
        s = random_matrix_space(rng, 6)
        ifs = random_table_ifs(s, rng)
        f = mp.TestFunction(s, rng.uniform(-5, 5, 6))
        out = mp.markov_dual(ifs, f)
        bound = ifs.discrete_lip_max * f.lipschitz_constant()
        assert out.lipschitz_constant() <= bound + 1e-12


# --- product IFS ------------------------------------------------------------

def test_product_ifs_inherits_constants():
    rng = np.random.default_rng(7)
    s = random_matrix_space(rng, 4)
    ifs = random_table_ifs(s, rng)
    pifs = product_recompute_check(ifs)
    for orig, paired in zip(ifs.maps, pifs.maps):
        assert paired.discrete_lip == orig.discrete_lip


def product_recompute_check(ifs):
    """product_ifs with the inherited constants re-derived from all pairs."""
    pifs = mp.product_ifs(ifs)
    for orig, paired in zip(ifs.maps, pifs.maps):
        recomputed = mp.ContractionMap(
            pifs.space, paired.target, witness=None
        ).discrete_lip
        assert recomputed == pytest.approx(orig.discrete_lip, abs=1e-15)
    return pifs


def test_product_ifs_of_identity_is_identity():
    g = mp.build_grid([0], [1], [2])
    ident = mp.MaxPlusIFS(g, (mp.ContractionMap(g, np.arange(3)),), [0.0])
    pifs = mp.product_ifs(ident)
    np.testing.assert_array_equal(pifs.maps[0].target, np.arange(9))


def test_product_ifs_support_recursion():
    rng = np.random.default_rng(8)
    s = random_matrix_space(rng, 4)
    ifs = random_table_ifs(s, rng)
    pifs = mp.product_ifs(ifs)
    xi = np_random_measure(pifs.space, rng, p_finite=0.4)
    got = set(mp.markov(pifs, xi).support().tolist())
    expected = set()
    for m in pifs.maps:
        expected |= set(m.target[xi.support()].tolist())
    assert got == expected


# --- fixed-point iteration --------------------------------------------------

def test_iterate_constant_map_one_step():
    g = mp.build_grid([0], [1], [4])
    ifs = mp.MaxPlusIFS(g, (mp.ContractionMap(g, [3] * 5),), [0.0])
    mu, diag = mp.iterate_fixed_point(ifs, mp.uniform(g), tol=0.0, max_iter=10)
    assert mu == mp.dirac(g, 3)
    assert diag.iterations <= 2 and diag.exact


def test_iterate_two_point_example():
    two = mp.build_grid([0], [1], [1])
    ifs = mp.MaxPlusIFS(
        two,
        (mp.ContractionMap(two, [0, 0]), mp.ContractionMap(two, [1, 1])),
        [0.0, -1.0],
    )
    mu, diag = mp.iterate_fixed_point(ifs, mp.dirac(two, 1), tol=0.0, max_iter=10)
    np.testing.assert_array_equal(mu.density, [0.0, -1.0])
    assert diag.iterations <= 2 and diag.residuals[-1] == 0.0


def test_iterate_cantor_density_peaks_at_zero():
    ifs = cantor_ifs(3)
    mu, diag = mp.iterate_fixed_point(ifs, mp.uniform(ifs.space), tol=0.0, max_iter=200)
    assert diag.exact and diag.converged
    assert mu.density[0] == 0.0  # address of the weight-0 map's fixed point
    # invariant: applying the operator once more changes nothing
    assert mp.markov(ifs, mu) == mu


def test_iterate_refuses_a_nan_tolerance():
    ifs = cantor_ifs(3)
    with pytest.raises(ValueError, match="tol"):
        mp.iterate_fixed_point(ifs, mp.uniform(ifs.space), tol=float("nan"))


def test_iterate_reports_nonconvergence():
    ifs = cantor_ifs(2)
    mu, diag = mp.iterate_fixed_point(ifs, mp.uniform(ifs.space), tol=0.0, max_iter=1)
    assert not diag.converged
    assert "1 iterations" in diag.message


def test_iterate_banach_bound_and_independence():
    # from several starts, a Banach-contractive system lands on one density
    ifs = ladder_ifs()
    rng = np.random.default_rng(9)
    results = []
    for _ in range(10):
        mu0 = np_random_measure(ifs.space, rng)
        mu, diag = mp.iterate_fixed_point(ifs, mu0, metric="d1", tol=0.0, max_iter=200)
        assert diag.exact
        assert diag.apriori_bound == 0.0
        results.append(mu)
    for other in results[1:]:
        assert other == results[0]


def test_iterate_bounds_d1_residuals_only():
    # the Banach factor bounds d1 steps; a sup_density residual carries no bound
    ifs = ladder_ifs()
    assert ifs.discrete_lip_max < 1.0
    mu0 = mp.dirac(ifs.space, 9)
    _, sup = mp.iterate_fixed_point(ifs, mu0, tol=0.5, max_iter=200)
    _, d1 = mp.iterate_fixed_point(ifs, mu0, metric="d1", tol=0.5, max_iter=200)
    assert sup.residuals and sup.apriori_bound is None
    a = ifs.discrete_lip_max
    assert d1.apriori_bound == d1.residuals[-1] * a / (1.0 - a)


def test_iterate_d1_metric_residuals():
    ifs = ladder_ifs()
    mu, diag = mp.iterate_fixed_point(
        ifs, mp.dirac(ifs.space, 9), metric="d1", tol=0.0, max_iter=50
    )
    assert diag.metric == "d1"
    assert diag.converged
    assert all(r >= 0 for r in diag.residuals)


def test_iterate_validates_arguments():
    ifs = ladder_ifs()
    with pytest.raises(ValueError):
        mp.iterate_fixed_point(ifs, mp.uniform(ifs.space), tol=-1.0)
    with pytest.raises(ValueError):
        mp.iterate_fixed_point(ifs, mp.uniform(ifs.space), metric="bogus")


# --- attractor --------------------------------------------------------------

def test_attractor_constant_map():
    g = mp.build_grid([0], [1], [4])
    ifs = mp.MaxPlusIFS(g, (mp.ContractionMap(g, [2] * 5),), [0.0])
    assert mp.attractor(ifs, range(5)) == frozenset([2])
    assert mp.attractor(ifs, [0]) == frozenset([2])


def test_attractor_identity_keeps_closed_sets():
    g = mp.build_grid([0], [1], [4])
    ident = mp.MaxPlusIFS(g, (mp.ContractionMap(g, np.arange(5)),), [0.0])
    assert mp.attractor(ident, [1, 3]) == frozenset([1, 3])


def test_attractor_equals_invariant_support_on_cantor():
    for k in (2, 3, 4):
        ifs = cantor_ifs(k)
        mu, diag = mp.iterate_fixed_point(ifs, mp.uniform(ifs.space), max_iter=200)
        assert diag.exact
        att = mp.attractor(ifs, range(ifs.space.n_points))
        assert att == frozenset(mu.support().tolist())


def test_attractor_rejects_empty_start():
    ifs = ladder_ifs()
    with pytest.raises(ValueError):
        mp.attractor(ifs, [])
