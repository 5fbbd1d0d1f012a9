"""Truncated multivariate Taylor jets and first-order dual numbers.

A ``Jet`` stores the Taylor coefficients of a function of ``nvars`` variables
at a base point, up to total degree ``order``.  Coefficients are either a
float64 vector (fast path, vectorized multiply) or an object vector of
``Fraction``s.  Each jet carries ``valid``: the largest total degree whose
stored coefficients are trustworthy.  Differentiation lowers ``valid`` by
one; arithmetic takes the minimum.  Coefficients above ``valid`` are kept at
exact zero so equality tests stay meaningful.

``Dual`` is a nilpotent extension a + eps*b with eps^2 = 0 used for conformal
linearization; its components may themselves be jets.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import ExactnessError, JetOrderError, ScalarKindError
from .scalars import exact_sqrt


class JetAlgebra:
    """Monomial bookkeeping and multiplication tables for (nvars, order)."""

    _cache: dict[tuple[int, int], "JetAlgebra"] = {}

    def __init__(self, nvars: int, order: int):
        self.nvars, self.order = nvars, order
        mons = []
        for deg in range(order + 1):
            for comb in itertools.combinations_with_replacement(range(nvars), deg):
                e = [0] * nvars
                for v in comb:
                    e[v] += 1
                mons.append(tuple(e))
        if nvars == 0:
            mons = [()]
        self.mons = mons
        self.index = {m: i for i, m in enumerate(mons)}
        self.N = len(mons)
        self.deg = np.array([sum(m) for m in mons])
        # upto[d]: the number of monomials of degree <= d (mons is sorted)
        self.upto = [sum(1 for m in mons if sum(m) <= d)
                     for d in range(order + 1)]
        self._mul_tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._product_rows: dict[int, list] = {}
        self._above: dict[int, np.ndarray] = {}
        self._diff_tables = []
        for v in range(nvars):
            src, dst, fac = [], [], []
            for i, m in enumerate(mons):
                if m[v] > 0:
                    lower = list(m)
                    lower[v] -= 1
                    src.append(i)
                    dst.append(self.index[tuple(lower)])
                    fac.append(m[v])
            self._diff_tables.append((np.array(src), np.array(dst),
                                      np.array(fac, dtype=float), fac))

    @classmethod
    def get(cls, nvars: int, order: int) -> "JetAlgebra":
        key = (nvars, order)
        if key not in cls._cache:
            cls._cache[key] = cls(nvars, order)
        return cls._cache[key]

    def above(self, valid: int) -> np.ndarray:
        """Boolean selector of the monomials of total degree > valid."""
        sel = self._above.get(valid)
        if sel is None:
            sel = self._above[valid] = self.deg > valid
            sel.flags.writeable = False
        return sel

    def mul_table(self, cap: int):
        """Index triples (ia, ib, io) for all products of total degree <= cap,
        ia-major and ib-minor: the table at ``order``, built once, with the
        pairs above cap dropped."""
        cap = min(cap, self.order)
        table = self._mul_tables.get(cap)
        if table is None:
            if self.order not in self._mul_tables:
                self._mul_tables[self.order] = self._full_mul_table()
            ia, ib, io = self._mul_tables[self.order]
            keep = self.deg[ia] + self.deg[ib] <= cap
            table = self._mul_tables[cap] = (ia[keep], ib[keep], io[keep])
        return table

    def _full_mul_table(self) -> tuple:
        """(ia, ib, io) up to ``order``: each exponent vector is keyed by its
        digits in base order + 1, and a product's key is looked up among
        the monomials' keys."""
        exps = np.array(self.mons, dtype=np.int64).reshape(self.N, self.nvars)
        ia, ib = np.nonzero(self.deg[:, None] + self.deg <= self.order)
        digits = (self.order + 1) ** np.arange(self.nvars, dtype=np.int64)
        keys = exps @ digits
        sorter = np.argsort(keys)
        io = sorter[np.searchsorted(keys, (exps[ia] + exps[ib]) @ digits,
                                    sorter=sorter)]
        return ia, ib, io

    def product_rows(self, cap: int) -> list:
        """rows[i][j]: the index of monomial i times monomial j, or -1 where
        their degree passes cap; i and j run over the monomials up to cap."""
        cap = min(cap, self.order)
        rows = self._product_rows.get(cap)
        if rows is None:
            ia, ib, io = self.mul_table(cap)
            n = self.upto[cap]
            t = np.full((n, n), -1)
            t[ia, ib] = io
            rows = self._product_rows[cap] = t.tolist()
        return rows


def newton_caps(valid: int):
    """The precision-doubling schedule of a Newton lift to ``valid``.

    A Newton step on truncated series takes an iterate correct through
    degree d - 1 to one correct through 2d - 1 (Griewank & Walther,
    Evaluating Derivatives, 2008, ch. 13), so from a base-point value step k
    needs its operands only up to degree min(2^(k+1) - 1, valid): yields
    that cap for each step, none when valid is 0.  A step raises the
    iterate's ``valid`` to the cap (its coefficients above the old one are
    zero) and runs the iteration there.  The iterate's degrees up to the
    previous cap are final, so the step's correction is zero there: the
    metric inverse (``geometry._newton_inverse``) computes it only at the
    degrees above the previous cap, where ``Jet.inverse`` and ``Jet.sqrt``
    recompute every degree up to the cap.
    """
    cap = 0
    while cap < valid:
        cap = min(2 * cap + 1, valid)
        yield cap


def _as_coeff(x, exact: bool):
    if exact:
        if isinstance(x, float):
            raise ScalarKindError("float coefficient in exact jet")
        return x
    return float(x)


class Jet:
    """Truncated Taylor expansion at a point."""

    __slots__ = ("alg", "c", "valid", "exact")

    def __init__(self, alg: JetAlgebra, c: np.ndarray, valid: int, exact: bool):
        self.alg, self.c, self.valid, self.exact = alg, c, valid, exact

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, alg: JetAlgebra, value, exact: bool) -> "Jet":
        if exact:
            c = np.zeros(alg.N, dtype=object)
            c[:] = [Fraction(0)] * alg.N
            c[0] = value
        else:
            c = np.zeros(alg.N)
            c[0] = float(value)
        return cls(alg, c, alg.order, exact)

    @classmethod
    def variable(cls, alg: JetAlgebra, v: int, base_value, exact: bool) -> "Jet":
        """The coordinate function x_v expanded at x_v = base_value."""
        j = cls.const(alg, base_value, exact)
        e = [0] * alg.nvars
        e[v] = 1
        one = Fraction(1) if exact else 1.0
        j.c[alg.index[tuple(e)]] = one
        return j

    # -- helpers ------------------------------------------------------------

    def _zero_coeff(self):
        return self.c[0] * 0 if self.exact else 0.0

    def _mask(self, c, valid):
        if valid < self.alg.order:
            c[self.alg.above(valid)] = \
                self._zero_coeff() if self.exact else 0.0
        return c

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.alg is not self.alg:
                raise ScalarKindError("jets from different algebras")
            if other.exact != self.exact:
                raise ScalarKindError("mixing exact and float jets")
            return other
        if isinstance(other, (int, Fraction, float)):
            return Jet.const(self.alg, _as_coeff(other, self.exact), self.exact)
        return None

    # -- ring operations ----------------------------------------------------

    # Coefficients above ``valid`` are zero, so a sum or difference of two
    # float jets with the same ``valid`` needs no mask; exact jets combine
    # only the coefficients up to the lower ``valid``.

    def _combine(self, other, op):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        v = min(self.valid, o.valid)
        n = self.alg.upto[v]
        if self.exact and n < self.alg.N:
            c = np.empty(self.alg.N, dtype=object)
            c[:n] = op(self.c[:n], o.c[:n])
            c[n:] = self._zero_coeff()
            return Jet(self.alg, c, v, True)
        c = op(self.c, o.c)
        if self.valid != o.valid:
            self._mask(c, v)
        return Jet(self.alg, c, v, self.exact)

    def __add__(self, other):
        return self._combine(other, np.add)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.alg, -self.c, self.valid, self.exact)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            # a constant keeps every degree: scale the coefficients
            return Jet(self.alg, self.c * _as_coeff(other, self.exact),
                       self.valid, self.exact)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        v = min(self.valid, o.valid)
        if self.exact:
            # the nonzero coefficient pairs only, in the mul_table order
            n, rows = self.alg.upto[v], self.alg.product_rows(v)
            nonzero_b = [(j, y) for j, y in enumerate(o.c[:n].tolist()) if y]
            out = [self._zero_coeff()] * self.alg.N
            for i, x in enumerate(self.c[:n].tolist()):
                if x:
                    row = rows[i]
                    for j, y in nonzero_b:
                        k = row[j]
                        if k >= 0:
                            out[k] += x * y
            c = np.empty(self.alg.N, dtype=object)
            c[:] = out
        else:
            ia, ib, io = self.alg.mul_table(v)
            c = np.bincount(io, weights=self.c[ia] * o.c[ib],
                            minlength=self.alg.N)
        return Jet(self.alg, c, v, self.exact)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        v = min(self.valid, o.valid)
        sel = self.alg.deg <= v
        return bool(np.all(self.c[sel] == o.c[sel]))

    # equality compares coefficients up to the smaller ``valid``, so it is
    # not transitive and no hash can agree with it
    __hash__ = None

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"Jet(val={self.val()!r}, valid={self.valid})"

    # -- analytic primitives -------------------------------------------------

    def inverse(self) -> "Jet":
        a0 = self.c[0]
        if (self.exact and not a0) or (not self.exact and a0 == 0.0):
            raise ZeroDivisionError("jet with zero constant term has no inverse")
        inv0 = Fraction(1) / a0 if self.exact else 1.0 / a0
        x = Jet(self.alg, Jet.const(self.alg, inv0, self.exact).c, 0,
                self.exact)
        two = Fraction(2) if self.exact else 2.0
        for cap in newton_caps(self.valid):
            x = Jet(self.alg, x.c, cap, self.exact)
            x = x * (two - self * x)
        return x

    def exp(self) -> "Jet":
        a0 = self.c[0]
        if self.exact:
            if a0:
                raise ExactnessError("exact exp needs zero constant term")
            e0 = Fraction(1)
        else:
            e0 = math.exp(a0)
        nil = self - a0
        term = Jet.const(self.alg, e0, self.exact)
        term = Jet(self.alg, term.c, self.valid, self.exact)
        acc = term
        for m in range(1, self.valid + 1):
            term = term * nil * Fraction(1, m)
            acc = acc + term
        return acc

    def log(self) -> "Jet":
        a0 = self.c[0]
        if self.exact:
            if a0 != 1:
                raise ExactnessError("exact log needs constant term 1")
            l0 = Fraction(0)
        else:
            if a0 <= 0:
                raise ValueError("jet log needs positive constant term")
            l0 = math.log(a0)
        u = self / a0 - 1
        acc = Jet.const(self.alg, l0, self.exact)
        acc = Jet(self.alg, acc.c, self.valid, self.exact)
        term = Jet.const(self.alg, Fraction(1) if self.exact else 1.0,
                         self.exact)
        term = Jet(self.alg, term.c, self.valid, self.exact)
        sign = 1
        for m in range(1, self.valid + 1):
            term = term * u
            acc = acc + term * Fraction(sign, m)
            sign = -sign
        return acc

    def sqrt(self) -> "Jet":
        a0 = self.c[0]
        if self.exact:
            s0 = exact_sqrt(a0)
        else:
            if a0 <= 0:
                raise ValueError("jet sqrt needs positive constant term")
            s0 = math.sqrt(a0)
        x = Jet(self.alg, Jet.const(self.alg, s0, self.exact).c, 0,
                self.exact)
        half = Fraction(1, 2) if self.exact else 0.5
        for cap in newton_caps(self.valid):
            x = Jet(self.alg, x.c, cap, self.exact)
            x = (x + self / x) * half
        return x

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Jet.const(self.alg, Fraction(1) if self.exact else 1.0, self.exact)
        out = Jet(self.alg, out.c, self.valid, self.exact)
        for _ in range(n):
            out = out * self
        return out

    # -- differentiation ----------------------------------------------------

    def d(self, v: int) -> "Jet":
        """Partial derivative jet with respect to variable v."""
        if self.valid < 1:
            raise JetOrderError(
                "jet order exhausted; rebuild the context with a higher order")
        src, dst, facf, faco = self.alg._diff_tables[v]
        if self.exact:
            out = [self._zero_coeff()] * self.alg.N
            for i in range(len(src)):
                x = self.c[src[i]]
                if x:
                    out[dst[i]] = x * faco[i]
            c = np.empty(self.alg.N, dtype=object)
            c[:] = out
        else:
            c = np.zeros(self.alg.N)
            c[dst] = self.c[src] * facf
        return Jet(self.alg, self._mask(c, self.valid - 1), self.valid - 1,
                   self.exact)

    def val(self):
        """Value at the base point."""
        return self.c[0]

    def is_zero(self) -> bool:
        if self.exact:
            return all(not x for x in self.c)
        return bool(np.all(self.c == 0.0))

    def to_float(self) -> "Jet":
        if not self.exact:
            return self
        return Jet(self.alg, np.array([float(x) for x in self.c]),
                   self.valid, False)


class Dual:
    """First-order dual number a + eps*b (eps^2 = 0) over jets or plain scalars."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = re, im

    def _coerce(self, other):
        if isinstance(other, Dual):
            return other
        if isinstance(other, (int, float, Fraction, Jet)):
            return Dual(other, self.im * 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction, Jet)):
            # x = x + eps 0: the im part is im x, capped at re's ``valid``
            # as the full product caps it
            cap = getattr(self.re, "valid", None)
            return Dual(self.re * other, _capped(self.im * other, cap))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.re * o.re, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inverse(self) -> "Dual":
        inv = self.re.inverse() if isinstance(self.re, Jet) else 1 / self.re
        return Dual(inv, -(inv * inv) * self.im)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def sqrt(self) -> "Dual":
        r = self.re.sqrt() if isinstance(self.re, Jet) else \
            exact_sqrt(self.re) if isinstance(self.re, Fraction) else \
            math.sqrt(self.re)
        half = Fraction(1, 2)
        return Dual(r, half * self.im / r)

    def exp(self) -> "Dual":
        e = self.re.exp() if isinstance(self.re, Jet) else math.exp(self.re)
        return Dual(e, e * self.im)

    def d(self, v: int) -> "Dual":
        return Dual(self.re.d(v), self.im.d(v))

    def val(self):
        return Dual(self.re.val() if isinstance(self.re, Jet) else self.re,
                    self.im.val() if isinstance(self.im, Jet) else self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"Dual({self.re!r}, {self.im!r})"


def _capped(x, valid):
    """x with its ``valid`` lowered to ``valid`` when x is a jet above it."""
    if valid is None or not isinstance(x, Jet) or x.valid <= valid:
        return x
    return Jet(x.alg, x._mask(x.c.copy(), valid), valid, x.exact)


def field_partial(s, v: int):
    """Coordinate derivative of a field scalar; zero for plain constants."""
    if isinstance(s, (Jet, Dual)):
        return s.d(v)
    return s * 0


def field_value(s):
    """Base-point value of a field scalar."""
    if isinstance(s, (Jet, Dual)):
        return s.val()
    return s


def scalar_float(s) -> float:
    """Best-effort float magnitude for residual reporting."""
    s = field_value(s)
    if isinstance(s, Dual):
        return float(max(abs(scalar_float(s.re)), abs(scalar_float(s.im))))
    return float(s)
