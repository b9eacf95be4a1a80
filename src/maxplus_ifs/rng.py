"""Deterministic randomness for reproducible verification runs.

A fixed 64-bit linear congruential generator (Knuth's MMIX constants) keeps
verify reports byte-identical across platforms and numpy versions; the
top 53 bits of each state feed the uniform floats.  `random_measure` reads
its draws off one block of states, s_k = A^k s + C (1 + A + ... + A^(k-1))
mod 2^64 (Brown's jump-ahead, 1994), so it gives the numbers and the end
state of one scalar `uniform` call per draw.
"""

from __future__ import annotations

import numpy as np

from .measures import IdempotentMeasure, normalize
from .semiring import NEG_INF
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
    """
    candidates = np.arange(space.n_points) if points is None else np.asarray(points)
    if candidates.size == 0:
        raise ValueError("random_measure needs at least one candidate point")
    if candidates.dtype.kind not in "iu":
        candidates = np.asarray(points, dtype=object)  # each entry keeps its own type
        for p in candidates.ravel():
            if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
                raise ValueError(f"random_measure: point index {p!r} is not an integer")
    outside = np.asarray((candidates < 0) | (candidates >= space.n_points), dtype=bool)
    if outside.any():
        raise ValueError(
            f"random_measure: point index {candidates[outside][0]} is out of range "
            f"for a space of {space.n_points} points"
        )
    candidates = candidates.astype(np.intp, copy=False)
    pos = np.arange(2 * candidates.size)
    powers = np.multiply.accumulate(np.append(1, np.full(pos.size, _MULT)).astype(np.uint64))
    states = powers[1:] * np.uint64(rng.state) + np.uint64(_INC) * np.cumsum(powers[:-1])
    u = (states >> np.uint64(11)) * (1.0 / (1 << 53))
    hit = u < support_prob
    # a draw tests the next candidate unless it follows a test that hit:
    # along a run of hits, tests alternate, restarting after each miss
    restart = np.append(0, np.maximum.accumulate(np.where(hit, 0, pos + 1))[:-1])
    tests = np.flatnonzero((pos - restart) % 2 == 0)[: candidates.size]
    take = hit[tests]
    raw = np.full(space.n_points, NEG_INF)
    raw[candidates[take]] = -depth + (0.0 + depth) * u[tests[take] + 1]  # uniform(-depth, 0.0)
    rng.state = int(states[tests[-1] + take[-1]])
    if not np.any(raw > NEG_INF):
        raw[candidates[rng.randint(candidates.size)]] = rng.uniform(-depth, 0.0)
    return normalize(space, raw)
