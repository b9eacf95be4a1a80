"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

import maxplus_ifs as mp

NEG = float("-inf")
# Lipschitz levels at both ends of the float range, and between
EXTREME_LEVELS = np.array([1e-300, 3.0**-43, 1.0, 3.0**43, 1e300])


def ladder_space(n: int = 10) -> mp.FiniteMetricSpace:
    """1-D points at (3^i - 1)/2, rescaled to diameter 1.

    Gaps grow geometrically, so the pull-down-one-rung map is exactly
    1/3-Lipschitz: (3^(j-1) - 3^(i-1)) / (3^j - 3^i) = 1/3 away from the
    bottom rung and smaller at it.
    """
    coords = (3.0 ** np.arange(n) - 1.0) / 2.0
    return mp.FiniteMetricSpace.from_coords(coords / coords.max())


def ladder_ifs(n: int = 10, witnesses: bool = True) -> mp.MaxPlusIFS:
    """Two pull-down maps (one and two rungs) with rational witnesses."""
    space = ladder_space(n)
    idx = np.arange(n)
    down1 = np.maximum(idx - 1, 0)
    down2 = np.maximum(idx - 2, 0)
    diam = space.diameter()
    w1 = mp.ComparisonFunction("rational", 2.0 / diam) if witnesses else None
    w2 = mp.ComparisonFunction("rational", 8.0 / diam) if witnesses else None
    maps = (
        mp.ContractionMap(space, down1, witness=w1),
        mp.ContractionMap(space, down2, witness=w2),
    )
    return mp.MaxPlusIFS(space, maps, [0.0, -1.0])


def cantor_ifs(k: int) -> mp.MaxPlusIFS:
    """Snapped middle-thirds maps on the 3^k-cell unit grid, weights (0, -1)."""
    grid = mp.build_grid([0.0], [1.0], [3**k])
    maps = (
        mp.snap_affine(grid, [[1.0 / 3.0]], [0.0]),
        mp.snap_affine(grid, [[1.0 / 3.0]], [2.0 / 3.0]),
    )
    return mp.MaxPlusIFS(grid, maps, [0.0, -1.0])


def np_random_measure(space, rng: np.random.Generator, p_finite=0.7, depth=3.0, points=None):
    """numpy-seeded random normalized density (tests only; the CLI uses Lcg64)."""
    n = space.n_points
    candidates = np.arange(n) if points is None else np.asarray(points, int)
    raw = np.full(n, NEG)
    finite = rng.random(candidates.size) < p_finite
    if not finite.any():
        finite[rng.integers(candidates.size)] = True
    raw[candidates[finite]] = rng.uniform(-depth, 0.0, int(finite.sum()))
    return mp.normalize(space, raw)


def random_euclidean_space(rng: np.random.Generator, n: int, dim: int = 2):
    coords = rng.uniform(0.0, 1.0, (n, dim))
    return mp.FiniteMetricSpace.from_coords(coords)


def random_matrix_space(rng: np.random.Generator, n: int):
    """Random metric via shortest-path completion of random edge weights."""
    w = rng.uniform(0.2, 1.0, (n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    d = w.copy()
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    np.fill_diagonal(d, 0.0)
    return mp.FiniteMetricSpace.from_matrix(d)


def random_table_ifs(space, rng: np.random.Generator, n_maps: int = 2) -> mp.MaxPlusIFS:
    """Arbitrary (not necessarily contractive) table maps; witness-free."""
    n = space.n_points
    maps = tuple(
        mp.ContractionMap(space, rng.integers(0, n, n)) for _ in range(n_maps)
    )
    weights = rng.uniform(-2.0, 0.0, n_maps)
    weights[rng.integers(n_maps)] = 0.0
    return mp.MaxPlusIFS(space, maps, weights)
