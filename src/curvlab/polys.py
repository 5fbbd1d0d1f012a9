"""Sparse polynomials and rational functions over the rationals.

These are the closed-form descriptions of chart metrics and conformal
factors; they are evaluated into truncated jets at a base point.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .jets import Jet, JetAlgebra


class Poly:
    """Polynomial in n variables: {exponent tuple: Fraction coefficient}."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: dict | None = None):
        self.nvars = nvars
        self.coeffs = {}
        for exp, c in (coeffs or {}).items():
            exp = tuple(exp)
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} has wrong arity")
            c = Fraction(c)
            if c:
                old = self.coeffs.get(exp)
                self.coeffs[exp] = c if old is None else old + c
        self.coeffs = {e: c for e, c in self.coeffs.items() if c}

    @classmethod
    def const(cls, nvars, value) -> "Poly":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def var(cls, nvars, v) -> "Poly":
        e = [0] * nvars
        e[v] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        merged = dict(self.coeffs)
        for e, c in other.coeffs.items():
            merged[e] = merged.get(e, Fraction(0)) + c
        return Poly(self.nvars, merged)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(self.nvars,
                        {e: c * other for e, c in self.coeffs.items()})
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = Poly.const(self.nvars, 1)
        for _ in range(n):
            out = out * self
        return out

    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def __call__(self, point):
        total = Fraction(0)
        for e, c in self.coeffs.items():
            term = c
            for x, k in zip(point, e):
                term *= Fraction(x) ** k
            total += term
        return total

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.coeffs)

    def jet(self, alg: JetAlgebra, base_point, exact: bool) -> Jet:
        """Expand around base_point b as a truncated jet.

        The coefficient of x^m is sum over e >= m of
        c_e prod_v binom(e_v, m_v) b_v^(e_v - m_v), for |m| <= order; it is
        summed in Fractions and, for a float jet, rounded once.
        """
        b = [Fraction(base_point[v]) for v in range(self.nvars)]
        pad = (0,) * (alg.nvars - self.nvars)
        acc: dict = {}
        at_origin = not any(b)
        for e, c in self.coeffs.items():
            if at_origin:           # only m = e: the coefficient itself
                if sum(e) <= alg.order:
                    acc[alg.index[e + pad]] = c
                continue
            lowered = (range(k + 1) if bv else (k,) for k, bv in zip(e, b))
            for m in itertools.product(*lowered):
                if sum(m) > alg.order:
                    continue
                term = c
                for ev, mv, bv in zip(e, m, b):
                    if ev > mv:
                        term *= math.comb(ev, mv) * bv ** (ev - mv)
                i = alg.index[m + pad]
                acc[i] = acc[i] + term if i in acc else term
        if exact:
            c = np.empty(alg.N, dtype=object)
            c[:] = [Fraction(0)] * alg.N
        else:
            c = np.zeros(alg.N)
        for i, x in acc.items():
            c[i] = x if exact else float(x)
        return Jet(alg, c, alg.order, exact)

    def to_config(self) -> dict:
        return {",".join(map(str, e)): str(c) for e, c in self.coeffs.items()}

    @classmethod
    def from_config(cls, nvars: int, data: dict) -> "Poly":
        coeffs = {}
        for key, val in data.items():
            exp = tuple(int(s) for s in key.split(","))
            coeffs[exp] = Fraction(val)
        return cls(nvars, coeffs)


class RationalFunc:
    """Quotient of two polynomials; denominator must be a unit at base points."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        self.num, self.den = num, den

    def jet(self, alg, base_point, exact) -> Jet:
        j = self.num.jet(alg, base_point, exact)
        if self.den is not None:
            j = j / self.den.jet(alg, base_point, exact)
        return j

    def __call__(self, point):
        v = self.num(point)
        if self.den is not None:
            v = v / self.den(point)
        return v
