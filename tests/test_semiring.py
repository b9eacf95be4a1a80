import numpy as np
import pytest

from maxplus_ifs.semiring import NEG_INF, big_oplus, odot, oplus
from oracles import as_scalar, format_scalar, parse_scalar


def test_oplus_examples():
    assert oplus(3, 5) == 5
    assert oplus(NEG_INF, 7) == 7
    assert oplus(2, 2) == 2


def test_odot_examples():
    assert odot(3, 5) == 8
    assert odot(NEG_INF, 7) == NEG_INF
    assert odot(0, 4.25) == 4.25
    assert odot(7, NEG_INF) == NEG_INF


def test_big_oplus_examples():
    assert big_oplus([-1, 0, -3]) == 0
    assert big_oplus([]) == NEG_INF
    assert big_oplus([NEG_INF, NEG_INF]) == NEG_INF


def _random_scalars(rng, n):
    vals = rng.uniform(-50, 50, n)
    vals[rng.random(n) < 0.25] = NEG_INF
    return vals


def test_semiring_laws_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        a, b, c = _random_scalars(rng, 3)
        assert oplus(a, b) == oplus(b, a)
        assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))
        assert oplus(a, a) == a
        assert oplus(NEG_INF, a) == a
        assert odot(a, b) == odot(b, a)
        # re-associating a sum reorders two roundings
        assert odot(odot(a, b), c) == pytest.approx(odot(a, odot(b, c)), abs=1e-12)
        assert odot(0.0, a) == a
        assert odot(NEG_INF, a) == NEG_INF
        # distributivity is exact: rounding is monotone, so adding a to the
        # larger of b, c stays the larger sum
        assert odot(a, oplus(b, c)) == oplus(odot(a, b), odot(a, c))


def test_big_oplus_permutation_invariant():
    rng = np.random.default_rng(1)
    for _ in range(200):
        vals = _random_scalars(rng, rng.integers(1, 12))
        shuffled = rng.permutation(vals)
        assert big_oplus(vals) == big_oplus(shuffled)


def test_rejects_nan_and_plus_inf():
    with pytest.raises(ValueError):
        as_scalar(float("nan"))
    with pytest.raises(ValueError):
        as_scalar(float("inf"))
    assert as_scalar(NEG_INF) == NEG_INF


def test_format_parse_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = float(rng.uniform(-1, 1) * 10.0 ** rng.integers(-12, 12))
        assert parse_scalar(format_scalar(x)) == x
    assert format_scalar(NEG_INF) == "-inf"
    assert parse_scalar("-inf") == NEG_INF
