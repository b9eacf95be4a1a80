"""The seeded stream: block draws against one scalar Lcg64 call per draw."""

import numpy as np
import pytest

import maxplus_ifs as mp
from conftest import cantor_ifs
from oracles import random_measure_scalar


def test_verify_sized_stream_equals_the_scalar_loop():
    # 200 measures on the exactly mapped points of the 730-point Cantor grid,
    # as `verify` draws them, then one more over every point
    ifs = cantor_ifs(6)
    points = ifs.exactly_mapped_points()
    for seed in (0, 1, 2**64 - 1):
        fast, slow = mp.Lcg64(seed), mp.Lcg64(seed)
        for k in range(201):
            pts = None if k == 200 else points
            got = mp.random_measure(ifs.space, fast, 0.7, 3.0, points=pts)
            want = random_measure_scalar(ifs.space, slow, 0.7, 3.0, points=pts)
            assert got.density.tobytes() == want.density.tobytes()
            assert fast.state == slow.state


def test_forced_point_follows_the_block():
    # support_prob 0 misses every candidate: one point is forced, drawn
    # with randint then uniform from the state after the block
    space = mp.build_grid([0.0], [1.0], [9])
    fast, slow = mp.Lcg64(7), mp.Lcg64(7)
    for _ in range(5):
        got = mp.random_measure(space, fast, 0.0, 2.0, points=[3, 5, 8])
        assert got.support().size == 1 and got.support()[0] in (3, 5, 8)
        assert got == random_measure_scalar(space, slow, 0.0, 2.0, points=[3, 5, 8])
        assert fast.state == slow.state


def test_random_measure_needs_a_candidate():
    # an empty candidate list used to divide by zero inside randint
    with pytest.raises(ValueError, match="at least one candidate"):
        mp.random_measure(mp.build_grid([0.0], [1.0], [3]), mp.Lcg64(0), points=np.array([], int))
