"""Deterministic randomness for reproducible verification runs.

A fixed 64-bit linear congruential generator (Knuth's MMIX constants) keeps
verify reports byte-identical across platforms and numpy versions; the
top 53 bits of each state feed the uniform floats.  `random_measures` reads
its draws off blocks of states, s_k = A^k s + C (1 + A + ... + A^(k-1))
mod 2^64 (Brown's jump-ahead, 1994), so it gives the numbers and the end
state of one scalar `uniform` call per draw; `random_measure` is a batch
of one.

A block holds the most measures (one at least) whose states, 2 per
candidate, fit the fresh-array budget spaces._FRESH_ELEMS = 2^13, read
from `spaces` when a call runs, and no more than a block keeps on average
(see random_measures).  So each draw array takes at most 64 KB,
and the density rows stay near that size (on `verify`'s 244 candidates of
the 730-point Cantor grid, 16 rows take 93 KB): under glibc's 128 KB mmap
threshold, a block reuses the memory that the block before freed instead
of faulting in fresh pages.  Where blocks are cut does not change the stream.
"""

from __future__ import annotations

import math

import numpy as np

from .measures import IdempotentMeasure
from .semiring import NEG_INF
from . import spaces
from .spaces import FiniteMetricSpace

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg64:
    """x <- 6364136223846793005 x + 1442695040888963407 (mod 2^64)."""

    def __init__(self, seed: int = 0):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _MASK

    def next_u64(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK
        return self.state

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * (1.0 / (1 << 53))
        return lo + (hi - lo) * u

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return int(self.next_u64() >> 11) % n


def random_measures(
    space: FiniteMetricSpace,
    rng: Lcg64,
    count: int,
    support_prob: float = 0.7,
    depth: float = 3.0,
    points=None,
) -> list[IdempotentMeasure]:
    """`count` random_measure calls in a row, drawn from blocks of the stream.

    A block holds the 2 draws per candidate that each of its measures may
    use, as many measures in every block as spaces._FRESH_ELEMS allows, but
    no more than 1 / P(no hit), the expected run before a measure without a
    hit (all that a low support_prob keeps of a block).  Its
    tests are read off as in one long random_measure call; at the first
    measure without a hit the block stops, that measure takes its
    randint/uniform fallback from the stream, and the next block starts after it.
    """
    candidates = space.point_indices(
        np.arange(space.n_points) if points is None else points, "random_measure"
    )
    if candidates.size == 0:
        raise ValueError("random_measure needs at least one candidate point")
    c = candidates.size
    most = max(1, spaces._FRESH_ELEMS // (2 * c))  # measures per block
    # nor more than the expected run before a measure without a hit, which
    # has probability miss (clipped, so that no support_prob overflows it)
    miss = min(max(1.0 - support_prob, 0.0), 1.0) ** c
    most = min(most, math.ceil(1.0 / max(1.0 / most, miss)))
    # A^k and C (1 + A + ... + A^(k-1)) for the largest block
    powers = np.full(2 * c * min(count, most) + 1, _MULT, dtype=np.uint64)
    powers[0] = 1
    np.multiply.accumulate(powers, out=powers)
    sums = np.uint64(_INC) * np.cumsum(powers[:-1])
    out: list[IdempotentMeasure] = []
    while len(out) < count:
        k = min(count - len(out), most)
        pos = np.arange(2 * c * k)
        states = powers[1 : pos.size + 1] * np.uint64(rng.state) + sums[: pos.size]
        u = (states >> np.uint64(11)).astype(float)
        u *= 1.0 / (1 << 53)
        hit = u < support_prob
        # a draw tests the next candidate unless it follows a test that hit:
        # along a run of hits, tests alternate, restarting after each miss
        restart = np.append(0, np.maximum.accumulate(np.where(hit, 0, pos + 1))[:-1])
        tests = np.flatnonzero((pos - restart) & 1 == 0)[: c * k].reshape(k, c)
        take = hit[tests]
        some = take.any(axis=1)
        if not some.all():  # the block ends with the first measure that has no hit
            k = int(np.argmin(some)) + 1
        raw = np.full((k, space.n_points), NEG_INF)
        rows, cols = np.nonzero(take[:k])
        raw[rows, candidates[cols]] = -depth + (0.0 + depth) * u[tests[:k][take[:k]] + 1]
        rng.state = int(states[tests[k - 1, -1] + take[k - 1, -1]])
        if not some[k - 1]:  # uniform(-depth, 0.0) at a randint-drawn candidate
            raw[-1, candidates[rng.randint(c)]] = rng.uniform(-depth, 0.0)
        # normalize() row by row: every row has a finite entry
        raw -= raw.max(axis=1, keepdims=True)
        out.extend(IdempotentMeasure.from_rows(space, raw))
    return out


def random_measure(
    space: FiniteMetricSpace,
    rng: Lcg64,
    support_prob: float = 0.7,
    depth: float = 3.0,
    points=None,
) -> IdempotentMeasure:
    """Random density: each candidate point finite with the given probability.

    A candidate draws u, and if u < support_prob its value, uniform in
    [-depth, 0]; at least one point is forced finite, and normalize() pins
    the maximum to an exact 0.  `points` restricts the candidate support to
    those point indices; an index that is not an integer in [0, n) is refused.
    A batch of one random_measures call.
    """
    return random_measures(space, rng, 1, support_prob, depth, points)[0]
