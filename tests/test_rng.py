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


@pytest.mark.parametrize(
    "points, message",
    [
        ([-1], "point index -1 is out of range"),  # used to select the last point
        ([4], "point index 4 is out of range"),  # used to raise a bare IndexError
        ([0, 2, 7], "point index 7 is out of range"),
        ([1.5], "point index 1.5 is not an integer"),  # used to be truncated to 1
        ([0, 2.0], "point index 2.0 is not an integer"),
        ([True], "point index True is not an integer"),
    ],
)
def test_random_measure_refuses_bad_point_indices(points, message):
    space = mp.build_grid([0.0], [1.0], [3])  # 4 points
    rng = mp.Lcg64(0)
    with pytest.raises(ValueError, match=message):
        mp.random_measure(space, rng, points=points)
    assert rng.state == mp.Lcg64(0).state  # refused before any draw
    assert mp.random_measure(space, rng, points=[0, 3, np.int64(3)]).support().tolist() in ([0], [3], [0, 3])


@pytest.mark.parametrize("support_prob", [0.7, 0.002])
def test_seeded_stream_does_not_depend_on_the_block_budget(monkeypatch, support_prob):
    # verify's 200 draws on the 244 exactly mapped points of the 730-point
    # Cantor grid (2c = 488 states a measure): blocks of one state hold one
    # measure, of 976 two, of 2^13 sixteen (the budget) and of 2^16 134 (the
    # budget before); at support_prob 0.002 most measures miss every
    # candidate, so fallback draws land inside a block
    ifs = cantor_ifs(6)
    points = ifs.exactly_mapped_points()
    assert points.size == 244
    for seed in (0, 2**64 - 1):
        slow = mp.Lcg64(seed)
        want = [random_measure_scalar(ifs.space, slow, support_prob, 3.0, points) for _ in range(200)]
        for budget in (1, 976, 1 << 13, 1 << 16):
            monkeypatch.setattr(mp.rng, "_BLOCK_DRAWS", budget)
            fast = mp.Lcg64(seed)
            got = mp.random_measures(ifs.space, fast, 200, support_prob, 3.0, points)
            assert [mu.density.tobytes() for mu in got] == [mu.density.tobytes() for mu in want]
            assert fast.state == slow.state
