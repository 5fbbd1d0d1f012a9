"""Scalar kinds: exact rationals and floats.

Rationals are ``fractions.Fraction`` (always lowest terms, positive
denominator).  An exact square root stays rational or is refused.
Truncated Taylor jets live in :mod:`curvlab.jets` and sit on top of either
exact or float coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ExactnessError


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Fraction(0)
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def exact_sqrt(x) -> Fraction:
    """Square root of a nonnegative rational, which must be rational;
    ExactnessError otherwise (float arithmetic is the way out)."""
    r = rational_sqrt(Fraction(x))
    if r is None:
        raise ExactnessError(
            f"sqrt({x}) is not rational; use a float scalar kind")
    return r


class Ring:
    """Descriptor for the coefficient ring a tensor's components live in."""

    __slots__ = ("name", "_zero", "_one", "exact")

    def __init__(self, name, zero, one, exact):
        self.name, self._zero, self._one, self.exact = name, zero, one, exact

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def __repr__(self):
        return f"Ring({self.name})"


RATIONAL = Ring("rational", Fraction(0), Fraction(1), True)
FLOAT = Ring("float", 0.0, 1.0, False)

