"""Sparse polynomials and rational functions over the rationals.

These are the closed-form descriptions of chart metrics and conformal
factors; they are evaluated into truncated jets at a base point.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from .jets import Jet, JetAlgebra


class Poly:
    """Polynomial in n variables: {exponent tuple: Fraction coefficient}."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: dict | None = None):
        """coeffs maps exponents (n non-negative ints) to coefficients
        (Fractions, or anything ``Fraction`` takes); exponents that normalize
        alike are summed and zero coefficients dropped.  A table of int
        tuples and Fractions, the common case, is taken in one pass."""
        self.nvars = nvars
        coeffs = coeffs or {}
        if not _plain_exponents(nvars, coeffs.keys()):
            merged = {}
            for exp, c in coeffs.items():
                exp = _exponent(nvars, exp)
                c = c if type(c) is Fraction else Fraction(c)
                merged[exp] = merged[exp] + c if exp in merged else c
            coeffs = merged
        elif set(map(type, coeffs.values())) - {Fraction}:
            coeffs = {e: c if type(c) is Fraction else Fraction(c)
                      for e, c in coeffs.items()}
        self.coeffs = dict(coeffs) if all(coeffs.values()) else \
            {e: c for e, c in coeffs.items() if c}

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
        """The value at point, a Fraction; terms that a zero coordinate
        kills are skipped."""
        point = [Fraction(x) for x in point]
        total = Fraction(0)
        for e, c in self.coeffs.items():
            term = c
            for x, k in zip(point, e):
                if k:
                    if not x:
                        break
                    term *= x ** k
            else:
                total += term
        return total

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.coeffs)

    def taylor(self, alg: JetAlgebra, base_point) -> dict:
        """The Taylor coefficients at base point b up to ``alg.order``,
        {monomial index: Fraction}, zeros left out.

        The coefficient of x^m is sum over e >= m of
        c_e prod_v binom(e_v, m_v) b_v^(e_v - m_v).  At the origin that is
        c_m itself; elsewhere the sum runs in integers over one common
        denominator, lcm(denominators of c) * prod_v q_v^(max_e e_v) for
        b_v = p_v / q_v, and each coefficient is reduced once.
        """
        pad = (0,) * (alg.nvars - self.nvars)
        b = [x if type(x) is Fraction else Fraction(x)
             for x in base_point[:self.nvars]]
        index, order = alg.index, alg.order
        if not any(b):      # index holds the monomials up to the order
            exps = self.coeffs if not pad else (e + pad for e in self.coeffs)
            return {i: c for i, c in zip(map(index.get, exps),
                                         self.coeffs.values())
                    if i is not None}
        top = [max((e[v] for e in self.coeffs), default=0)
               for v in range(self.nvars)]
        lcd = math.lcm(*(c.denominator for c in self.coeffs.values()))
        den = lcd * math.prod(x.denominator ** k for x, k in zip(b, top))
        acc: dict = {}
        for e, c in self.coeffs.items():
            # per variable, (m_v, binom(e_v, m_v) p_v^(e_v - m_v)
            # q_v^(top_v - e_v + m_v)) for each m_v <= e_v; b_v = 0 (q_v = 1)
            # leaves m_v = e_v alone
            choices = []
            for k, x, t in zip(e, b, top):
                p, q = x.numerator, x.denominator
                choices.append([(m, math.comb(k, m) * p ** (k - m)
                                 * q ** (t - k + m)) for m in range(k + 1)]
                               if p else [(k, 1)])
            scaled = c.numerator * (lcd // c.denominator)
            for picks in itertools.product(*choices):
                m = tuple(mv for mv, _ in picks)
                if sum(m) > order:
                    continue
                term = scaled
                for _, f in picks:
                    term *= f
                i = index[m + pad]
                acc[i] = acc[i] + term if i in acc else term
        return {i: Fraction(n, den) for i, n in acc.items() if n}

    def jet(self, alg: JetAlgebra, base_point, exact: bool) -> Jet:
        """The truncated jet at base_point."""
        return taylor_jet(alg, self.taylor(alg, base_point), exact)


def taylor_jet(alg: JetAlgebra, coeffs: dict, exact: bool) -> Jet:
    """The jet with the ``Poly.taylor`` coefficients coeffs, each rounded
    once for a float jet, ``valid`` the order."""
    if exact:
        c = np.empty(alg.N, dtype=object)
        c[:] = [Fraction(0)] * alg.N
    else:
        c = np.zeros(alg.N)
    for i, x in coeffs.items():
        c[i] = x if exact else float(x)
    return Jet(alg, c, alg.order, exact)


def _plain_exponents(nvars: int, exps) -> bool:
    """Whether every exponent is already a tuple of nvars ints in
    [0, 255], checked over the whole table at once (``bytes`` takes
    integers in that range only)."""
    if not exps:
        return True
    if set(map(type, exps)) != {tuple} or set(map(len, exps)) != {nvars}:
        return False
    try:
        bytes(itertools.chain.from_iterable(exps))
    except (TypeError, ValueError):
        return False
    return True


def _exponent(nvars: int, exp) -> tuple:
    """exp as a tuple of nvars non-negative ints; ValueError for a wrong
    arity or a negative entry, TypeError for a non-integer one."""
    exp = tuple(map(operator.index, exp))
    if len(exp) != nvars:
        raise ValueError(f"exponent {exp} has wrong arity")
    if any(k < 0 for k in exp):
        raise ValueError(f"exponent {exp} has a negative entry")
    return exp


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
