"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance is pinned here, not computed elsewhere.  Criteria that sample use
the fixed 64-bit generator, so reruns are bit-identical.
"""

import itertools
import time

import numpy as np

import maxplus_ifs as mp
from maxplus_ifs.metrics import SeriesParams
from conftest import (
    NEG,
    cantor_ifs,
    ladder_ifs,
    np_random_measure,
    random_euclidean_space,
    random_table_ifs,
)
from oracles import coupling_distance_bruteforce


def _report(num: int, ok: bool, desc: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status} ({elapsed:6.2f}s / budget {budget:g}s) - {desc}")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


# ---------------------------------------------------------------------------
# 1. semiring and measure axioms
# ---------------------------------------------------------------------------

def test_criterion_01_axioms():
    t0 = time.time()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(1000):
        vals = rng.uniform(-40, 40, 3)
        vals[rng.random(3) < 0.25] = NEG
        a, b, c = vals
        ok &= mp.oplus(a, b) == mp.oplus(b, a)
        ok &= mp.oplus(mp.oplus(a, b), c) == mp.oplus(a, mp.oplus(b, c))
        ok &= mp.oplus(a, a) == a and mp.oplus(NEG, a) == a
        ok &= mp.odot(a, b) == mp.odot(b, a)
        ok &= abs(
            (mp.odot(mp.odot(a, b), c) - mp.odot(a, mp.odot(b, c)))
            if a > NEG and b > NEG and c > NEG
            else 0.0
        ) <= 1e-12
        ok &= mp.odot(0.0, a) == a and mp.odot(NEG, a) == NEG
        ok &= mp.odot(a, mp.oplus(b, c)) == mp.oplus(mp.odot(a, b), mp.odot(a, c))
    space = mp.build_grid([0], [1], [9])
    for _ in range(1000):
        m = np_random_measure(space, rng)
        f = rng.uniform(-5, 5, 10)
        g = rng.uniform(-5, 5, 10)
        c = float(rng.uniform(-5, 5))
        tf, tg = mp.TestFunction(space, f), mp.TestFunction(space, g)
        ok &= mp.integrate(m, mp.TestFunction(space, np.full(10, c))) == c
        ok &= (
            abs(mp.integrate(m, mp.TestFunction(space, c + f)) - (c + mp.integrate(m, tf)))
            <= 1e-12
        )
        ok &= mp.integrate(m, mp.TestFunction(space, np.maximum(f, g))) == max(
            mp.integrate(m, tf), mp.integrate(m, tg)
        )
    _report(1, ok, "semiring and measure axioms, 1000 random instances", time.time() - t0, 1.0)


# ---------------------------------------------------------------------------
# 2. coupling distance equals the exhaustive oracle on everything small
# ---------------------------------------------------------------------------

def _enumerate_spaces():
    """All metric spaces with <= 4 points and distances in {1, 2, 3}.

    Enumeration is up to relabeling: both the coupling distance and the
    oracle are permutation-equivariant, and every measure pair on a space
    appears among the pairs enumerated on its canonical representative.
    """
    yield np.zeros((1, 1))
    for n in (2, 3, 4):
        seen = set()
        iu = np.triu_indices(n, 1)
        for vals in itertools.product([1.0, 2.0, 3.0], repeat=n * (n - 1) // 2):
            mat = np.zeros((n, n))
            mat[iu] = vals
            mat = mat + mat.T
            good = True
            for i, j, k in itertools.permutations(range(n), 3):
                if mat[i, j] > mat[i, k] + mat[k, j]:
                    good = False
                    break
            if not good:
                continue
            key = min(
                tuple(mat[np.ix_(p, p)][iu])
                for p in itertools.permutations(range(n))
            )
            if key in seen:
                continue
            seen.add(key)
            yield mat


def _enumerate_densities(n):
    vals = [0.0, -1.0, -2.0, NEG]
    return np.array([t for t in itertools.product(vals, repeat=n) if max(t) == 0.0])


def _batch_threshold_d1(dist, tables):
    """Vectorized threshold search over all ordered measure pairs.

    The route of tests/oracles.threshold_d1: smallest feasible threshold for
    the maximal coupling, then the largest realized support distance below it.
    """
    fin = tables > NEG
    g12 = (tables[None, :, None, :] >= tables[:, None, :, None]) & (
        fin[:, None, :, None] & fin[None, :, None, :]
    )
    g21 = np.swapaxes(np.swapaxes(g12, 0, 1), 2, 3)
    thresholds = [0.0, 1.0, 2.0, 3.0]
    feas = np.zeros((len(thresholds),) + g12.shape[:2], dtype=bool)
    supd = np.zeros_like(feas, dtype=float)
    both = fin[:, None, :, None] & fin[None, :, None, :]
    for ti, t in enumerate(thresholds):
        at = dist <= t
        row_ok = ((g12 & at[None, None]).any(axis=3) | ~fin[:, None, :]).all(axis=2)
        col_ok = ((g21 & at[None, None]).any(axis=2) | ~fin[None, :, :]).all(axis=2)
        feas[ti] = row_ok & col_ok
        supd[ti] = np.where(both & at[None, None], dist[None, None], -np.inf).max(
            axis=(2, 3)
        )
    first = feas.argmax(axis=0)
    return np.take_along_axis(supd, first[None], axis=0)[0]


def _batch_levelset_oracle(dist, tables):
    """Vectorized twin of coupling_distance (the directed level-set formula)."""
    fin = tables > NEG
    g12 = (tables[None, :, None, :] >= tables[:, None, :, None]) & (
        fin[:, None, :, None] & fin[None, :, None, :]
    )
    nearest = np.where(g12, dist[None, None], np.inf).min(axis=3)
    directed = np.where(fin[:, None, :], nearest, -np.inf).max(axis=2)
    return np.maximum(directed, directed.T)


def test_criterion_02_oracle_equivalence():
    t0 = time.time()
    ok = True
    n_spaces = 0
    n_pairs = 0
    n_lib = 0
    n_brute = 0
    for dist in _enumerate_spaces():
        n_spaces += 1
        n = dist.shape[0]
        tables = _enumerate_densities(n)
        m = len(tables)
        n_pairs += m * (m + 1) // 2
        batch = _batch_threshold_d1(dist, tables)
        oracle = _batch_levelset_oracle(dist, tables)
        ok &= np.array_equal(batch, oracle)
        ok &= np.array_equal(batch, batch.T)
        # spot-check the per-pair library functions against the batch
        space = mp.FiniteMetricSpace.from_matrix(dist)
        measures = [mp.IdempotentMeasure(space, t) for t in tables]
        for i in range(0, m, 7):
            for j in range(i, m, 13):
                n_lib += 1
                ok &= mp.coupling_distance(measures[i], measures[j]) == batch[i, j]
        for i in range(0, m, 23):
            for j in range(i, m, 31):
                n_brute += 1
                ok &= (
                    coupling_distance_bruteforce(measures[i], measures[j])
                    == batch[i, j]
                )
    _report(
        2,
        ok and n_spaces == 61,
        f"d1 == oracle on {n_spaces} spaces, {n_pairs} pairs "
        f"({n_lib} library calls, {n_brute} subset enumerations)",
        time.time() - t0,
        60.0,
    )


# ---------------------------------------------------------------------------
# 3. closed-form dual distance against sampled certificates
# ---------------------------------------------------------------------------

def test_criterion_03_dual_closed_form():
    t0 = time.time()
    rng = np.random.default_rng(103)
    ok = True
    n_pairs = 0
    for space_idx in range(20):
        space = random_euclidean_space(rng, 20)
        d = space.distance_matrix()
        pairs = [
            (np_random_measure(space, rng), np_random_measure(space, rng))
            for _ in range(10)
        ]
        n_pairs += len(pairs)
        for a in (0.25, 1.0, 4.0):
            # shared pool of 10^4 regularized tables for this space and level
            f = rng.uniform(-a, a, (10_000, 20)) * space.diameter()
            reg = np.min(f[:, None, :] + a * d[None, :, :], axis=2)
            for m1, m2 in pairs:
                closed = mp.lipschitz_distance(m1, m2, a)
                v1 = np.max(m1.density[None, :] + reg, axis=1)
                v2 = np.max(m2.density[None, :] + reg, axis=1)
                sampled = float(np.max(np.abs(v1 - v2)))
                ok &= sampled <= closed + 1e-12
                cert = mp.lipschitz_distance_certificates(m1, m2, a, samples=10)
                ok &= abs(cert.cone_value - closed) <= 1e-9
                ok &= cert.cone_lip <= a * (1 + 1e-12)
    _report(
        3,
        ok,
        f"closed-form dual vs sampled lower bounds and cone witnesses, "
        f"{n_pairs} pairs x 3 levels",
        time.time() - t0,
        30.0,
    )


# ---------------------------------------------------------------------------
# 4. coupling-metric contraction at the proven factors
# ---------------------------------------------------------------------------

def test_criterion_04_d1_contraction():
    t0 = time.time()
    ok = True
    # middle-thirds maps on 3^k-cell grids; pairs are supported on the
    # sub-lattice the affine maps hit exactly, where the continuous factor
    # 1/3 carries over to the snapped tables without discretization error
    for k in (2, 3, 4, 5):
        ifs = cantor_ifs(k)
        exact = ifs.exactly_mapped_points()
        rng = mp.Lcg64(400 + k)
        for _ in range(100):
            m1 = mp.random_measure(ifs.space, rng, points=exact)
            m2 = mp.random_measure(ifs.space, rng, points=exact)
            den = mp.coupling_distance(m1, m2)
            num = mp.coupling_distance(mp.markov(ifs, m1), mp.markov(ifs, m2))
            ok &= num <= den / 3.0 + 1e-9
    # explicit 10-point space with verified rational witnesses
    ifs = ladder_ifs(10)
    assert ifs.all_witnessed()
    rng = mp.Lcg64(410)
    for _ in range(100):
        m1 = mp.random_measure(ifs.space, rng)
        m2 = mp.random_measure(ifs.space, rng)
        den = mp.coupling_distance(m1, m2)
        num = mp.coupling_distance(mp.markov(ifs, m1), mp.markov(ifs, m2))
        ok &= num <= ifs.combined_witness(den) + 1e-9
    _report(
        4,
        ok,
        "d1 contraction: factor 1/3 on 3^k Cantor grids (k=2..5) and the "
        "rational-witness bound on a 10-point space, 100 pairs each",
        time.time() - t0,
        60.0,
    )


# ---------------------------------------------------------------------------
# 5. series-metric contraction at factor alpha/q
# ---------------------------------------------------------------------------

def test_criterion_05_series_contraction():
    t0 = time.time()
    ifs = cantor_ifs(4)  # 81 cells
    exact = ifs.exactly_mapped_points()
    params = SeriesParams(alpha=1.0 / 3.0, q=0.5, tol=1e-6)
    rng = mp.Lcg64(500)
    worst = 0.0
    for _ in range(100):
        m1 = mp.random_measure(ifs.space, rng, points=exact)
        m2 = mp.random_measure(ifs.space, rng, points=exact)
        den = mp.series_distance(m1, m2, params)
        if den.value == 0.0:
            continue
        num = mp.series_distance(mp.markov(ifs, m1), mp.markov(ifs, m2), params)
        worst = max(worst, num.value / den.value)
    ok = worst <= 2.0 / 3.0 + 1e-3
    _report(
        5,
        ok,
        f"series contraction on the 81-cell Cantor grid: max ratio {worst:.6f} "
        "<= 2/3 + 1e-3",
        time.time() - t0,
        120.0,
    )


# ---------------------------------------------------------------------------
# 6. per-term dual step bound
# ---------------------------------------------------------------------------

def test_criterion_06_per_term_dual_step():
    t0 = time.time()
    ifs = ladder_ifs(10)
    alpha = ifs.discrete_lip_max
    rng = mp.Lcg64(600)
    ok = True
    for _ in range(50):
        m1 = mp.random_measure(ifs.space, rng)
        m2 = mp.random_measure(ifs.space, rng)
        mm1, mm2 = mp.markov(ifs, m1), mp.markov(ifs, m2)
        for n in range(-3, 4):
            lhs = mp.lipschitz_distance(mm1, mm2, alpha**n)
            rhs = mp.lipschitz_distance(m1, m2, alpha ** (n + 1))
            ok &= lhs <= rhs + 1e-9
    _report(
        6,
        ok,
        "per-term dual step d_{a^n}(M mu, M nu) <= d_{a^(n+1)}(mu, nu), "
        "n in -3..3, 50 pairs",
        time.time() - t0,
        60.0,
    )


# ---------------------------------------------------------------------------
# 7. fixed point, attractor, Hausdorff error of the Cantor grids
# ---------------------------------------------------------------------------

def _analytic_cantor_indices(k: int) -> list[int]:
    """Endpoint grid indices of the depth-k middle-thirds intervals."""
    cells = 3**k
    idx = set()
    for digits in itertools.product((0, 2), repeat=k):
        left = 0
        for d in digits:
            left = left * 3 + d
        idx.add(left)       # interval [left, left+1] in units of 3^-k
        idx.add(left + 1)
    assert max(idx) <= cells
    return sorted(idx)


def test_criterion_07_fixed_point_and_attractor():
    t0 = time.time()
    ok = True
    for k in (2, 3, 4, 5):
        ifs = cantor_ifs(k)
        mu, diag = mp.iterate_fixed_point(
            ifs, mp.uniform(ifs.space), tol=0.0, max_iter=200
        )
        ok &= diag.converged and diag.exact and diag.residuals[-1] == 0.0
        att = mp.attractor(ifs, range(ifs.space.n_points))
        ok &= att == frozenset(mu.support().tolist())
        step = 1.0 / 3**k
        hd = mp.hausdorff(att, _analytic_cantor_indices(k), ifs.space)
        ok &= hd <= step + 1e-12
        if k == 5:
            ok &= diag.iterations <= 200
    _report(
        7,
        ok,
        "Cantor grids: residual-0 fixed point, support == attractor, "
        "Hausdorff error <= one grid step (k=2..5)",
        time.time() - t0,
        60.0,
    )


# ---------------------------------------------------------------------------
# 8. the uniformly separated two-point family
# ---------------------------------------------------------------------------

def test_criterion_08_separated_family():
    t0 = time.time()
    two = mp.build_grid([0.0], [1.0], [1])
    family = [mp.normalize(two, [0.0, -float(n)]) for n in range(1, 11)]
    ok = True
    for i in range(10):
        ok &= mp.coupling_distance(family[i], family[i]) == 0.0
        for j in range(i + 1, 10):
            ok &= mp.coupling_distance(family[i], family[j]) == 1.0
    _report(
        8,
        ok,
        "two-point family d1(mu_n, mu_m) = 1 for all n != m in 1..10",
        time.time() - t0,
        10.0,
    )


# ---------------------------------------------------------------------------
# 9. duality identity
# ---------------------------------------------------------------------------

def test_criterion_09_duality():
    t0 = time.time()
    rng = np.random.default_rng(109)
    ok = True
    for trial in range(100):
        n = int(rng.integers(2, 201))
        space = random_euclidean_space(rng, n)
        ifs = random_table_ifs(space, rng, n_maps=int(rng.integers(1, 5)))
        m = np_random_measure(space, rng)
        f = mp.TestFunction(space, rng.uniform(-10, 10, n))
        lhs = mp.integrate(mp.markov(ifs, m), f)
        rhs = mp.integrate(m, mp.markov_dual(ifs, f))
        ok &= abs(lhs - rhs) <= 1e-12
    _report(
        9,
        ok,
        "duality integrate(M mu, f) == integrate(mu, f_S) on 100 random "
        "triples up to 200 points",
        time.time() - t0,
        60.0,
    )


# ---------------------------------------------------------------------------
# 10. metric axioms at scale
# ---------------------------------------------------------------------------

def test_criterion_10_metric_axioms():
    t0 = time.time()
    rng = np.random.default_rng(110)
    params = SeriesParams(alpha=0.5, q=0.5, tol=1e-8)
    ok = True
    for _ in range(100):
        space = random_euclidean_space(rng, int(rng.integers(3, 12)))
        triple = [np_random_measure(space, rng, depth=2.0) for _ in range(3)]
        d1 = {}
        ds = {}
        for i, j in itertools.combinations(range(3), 2):
            a, b = triple[i], triple[j]
            d1[i, j] = mp.coupling_distance(a, b)
            ok &= d1[i, j] == mp.coupling_distance(b, a)
            ok &= (d1[i, j] == 0.0) == (a == b)
            sv = mp.series_distance(a, b, params)
            ok &= sv.value == mp.series_distance(b, a, params).value
            if a != b:
                ok &= sv.value > 0.0
            else:
                ok &= sv.value == 0.0
            ds[i, j] = sv
        ok &= d1[0, 2] <= d1[0, 1] + d1[1, 2] + 1e-9
        slack = 1e-9 + 2 * params.tol
        ok &= ds[0, 2].value <= ds[0, 1].value + ds[1, 2].value + slack
    _report(
        10,
        ok,
        "metric axioms for d1 (exact) and the series metric (within tails) "
        "on 100 random triples",
        time.time() - t0,
        60.0,
    )
