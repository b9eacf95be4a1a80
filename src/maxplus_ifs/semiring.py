"""Max-plus semiring scalars.

Values live in R ∪ {-inf} with ⊕ = max and ⊙ = +.  The bottom element is
IEEE -inf: it is exactly representable, distinguishable from every finite
value, and max/+ against it are exact (no finite sentinel that would corrupt
sums).  +inf and NaN are never valid semiring values; densities and
density files refuse them at input boundaries, and `odot` branches on
bottom explicitly so a bottom operand can never meet +inf inside an
addition.
"""

from __future__ import annotations

from typing import Iterable

NEG_INF = float("-inf")


def oplus(a: float, b: float) -> float:
    """Semiring addition a ⊕ b = max(a, b); -inf is neutral."""
    return a if a >= b else b


def odot(a: float, b: float) -> float:
    """Semiring multiplication a ⊙ b = a + b; -inf is absorbing, 0 neutral."""
    if a == NEG_INF or b == NEG_INF:
        return NEG_INF
    return a + b


def big_oplus(values: Iterable[float]) -> float:
    """⊕ over a finite sequence; the empty reduction is -inf."""
    return max(values, default=NEG_INF)
