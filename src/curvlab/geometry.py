"""Geometry contexts and the pointwise curvature stack.

A context supplies, at a single base point, the metric as a tensor of field
scalars (constants on homogeneous frames: Fractions, or float jets over no
variables; truncated jets on charts),
directional derivatives of field scalars, and commutation coefficients of the
underlying basis.  Charts use coordinate bases (commutators vanish, metric
varies); homogeneous frames use invariant bases (metric constant, commutators
given by structure constants); finite products mix both, block by block.

One code path covers all three: with D_a the basis derivative and c^e_{ab}
the commutation coefficients,

    Gamma_{ab,c} = (D_a g_{bc} + D_b g_{ac} - D_c g_{ab}
                    + c^e_{ab} g_{ec} - c^e_{bc} g_{ea} + c^e_{ca} g_{eb}) / 2
    R_ab^c_d = D_a Gamma^c_bd - D_b Gamma^c_ad
               + Gamma^c_ae Gamma^e_bd - Gamma^c_be Gamma^e_ad
               - c^e_ab Gamma^c_ed

with the curvature sign convention R_ij^k_l X^l = (grad_i grad_j - grad_j
grad_i) X^k and Ricci R_ij = R_ki^k_j.
"""

from __future__ import annotations

import copy
import math
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import (ConfigError, DegenerateMetricError, DimensionError,
                     JetOrderError, ScalarKindError)
from .jets import (Dual, Jet, JetAlgebra, field_partial, field_value,
                   newton_caps, scalar_float)
from .polys import Poly, RationalFunc, taylor_jet
from .scalars import FLOAT, RATIONAL, Ring, exact_sqrt
from .fields import _LETTERS, JetField, _float_jet_einsum
from .rationals import _INT64_BOUND, RationalField, _top, entries_array
from .tensors import Tensor, contract, einsum, lower_slot, raise_slot


def jet_ring(alg: JetAlgebra, exact: bool) -> Ring:
    zero = Jet.const(alg, Fraction(0) if exact else 0.0, exact)
    one = Jet.const(alg, Fraction(1) if exact else 1.0, exact)
    return Ring(f"jet({alg.nvars},{alg.order},{'exact' if exact else 'float'})",
                zero, one, exact)


def dual_ring(base: Ring) -> Ring:
    return Ring("dual:" + base.name, Dual(base.zero(), base.zero()),
                Dual(base.one(), base.zero()), base.exact)


def clone_context(ctx: "GeometryContext", metric: Tensor,
                  ring=None) -> "GeometryContext":
    """Shallow context copy with a new metric; every cached property (the
    inverse, determinant, volume and curvature stack) is dropped."""
    new = copy.copy(ctx)
    for cls in type(ctx).__mro__:
        for key, attr in vars(cls).items():
            if isinstance(attr, cached_property):
                new.__dict__.pop(key, None)
    new.metric = metric
    if ring is not None:
        new.ring = ring
    return new


def _invert_with_det(mat: np.ndarray, ring: Ring):
    """Gauss-Jordan inverse and determinant of an object matrix of constants
    (a metric's base-point values), pivoting on the largest magnitude."""
    n = mat.shape[0]
    aug = np.empty((n, 2 * n), dtype=object)
    aug[:, :n] = mat
    aug[:, n:] = ring.zero()
    for i in range(n):
        aug[i, n + i] = ring.one()
    det = ring.one()
    sign = 1
    for col in range(n):
        piv, best = None, 0.0
        for r in range(col, n):
            m = abs(scalar_float(aug[r, col]))
            if m > best:
                piv, best = r, m
        if piv is None:
            raise DegenerateMetricError("metric is singular at the base point")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
            sign = -sign
        p = aug[col, col]
        det = det * p
        aug[col] = aug[col] * (1 / p)
        for r in range(n):
            if r != col:
                f = aug[r, col]
                if f:
                    aug[r] = aug[r] - aug[col] * f
    if sign < 0:
        det = -det
    return aug[:, n:], det


def _fraction_free_inverse(g: RationalField):
    """(g^-1 as a ``RationalField``, det g as a Fraction) of a matrix of
    Fractions g = M / D by fraction-free Gauss-Jordan elimination on the
    integer numerators M (Bareiss, Math. Comp. 22 (1968)).

    Each step k turns row i != k into (p a_i - a_ik a_k) / p', p the pivot
    and p' the one before it, a division that is exact, so every entry stays
    an integer.  [M | I] ends as [d I | d M^-1] with d the last pivot, the
    determinant of M with its rows swapped; so g^-1 = D (d M^-1) / d and
    det g = +-d / D^n, the sign flipped once per swap."""
    n = g.shape[0]
    rows = [r + [int(i == j) for j in range(n)]
            for i, r in enumerate(g.num.tolist())]
    prev, sign = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            raise DegenerateMetricError("metric is singular at the base point")
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pk = rows[k]
        p = pk[k]
        for i in range(n):
            if i != k:
                a = rows[i][k]
                rows[i] = [(p * x - a * y) // prev
                           for x, y in zip(rows[i], pk)]
        prev = p
    num = np.array([r[n:] for r in rows], dtype=object) \
        * (g.den if prev > 0 else -g.den)
    return RationalField.reduced(num, abs(prev), _top(num)), \
        Fraction(sign * prev, g.den ** n)


def _newton_inverse(g, x0: np.ndarray, alg: JetAlgebra, exact: bool):
    """g^-1 for a matrix g of jets (a ``JetField`` of float jets or an
    object array of jets) from x0 = g(p)^-1, by Newton steps X <- X + XE
    with E = I - GX, stored as g is.

    The error E squares at each step (Griewank & Walther, Evaluating
    Derivatives, 2008, ch. 13), so the steps run on the schedule of
    ``newton_caps``: a step to cap enters with X valid through prev, the
    previous cap, and E zero through degree prev.  On packed float jets E
    is formed only at its degrees (prev, cap], from X's band [0, prev], and
    XE only there too, from X's degrees up to cap - prev - 1: a middle
    product (Hanrot, Quercia & Zimmermann, AAECC 14, 2004).  Other jets run
    the formula through ``einsum``; over exact jets it is 2X - X(GX)
    exactly.
    """
    x, prev = _with_valid(x0, 0, g, alg, exact), 0
    for cap in newton_caps(alg.order):
        x = _with_valid(x, cap, g, alg, exact)
        if isinstance(g, JetField):
            # -E = GX at degrees prev + 1 to cap, X - X(GX) = X + XE there;
            # the kernel runs its inner axis over the first operand's band
            ge = _float_jet_einsum("bc,ab->ac", x, g, prev + 1, (0, prev))
            x = x - _float_jet_einsum("ab,bc->ac", x, ge, prev + 1,
                                      (0, cap - prev - 1), (prev + 1, cap))
        else:
            e = np.identity(len(x), dtype=object) - einsum("ab,bc->ac", g, x)
            x = x + einsum("ab,bc->ac", x, e)
        prev = cap
    return x


def _with_valid(x, cap: int, g, alg: JetAlgebra, exact: bool):
    """x, a matrix of base-point constants or of jets valid below cap, as
    jets stored like g with every ``valid`` raised to cap: the coefficients
    above a jet's old ``valid`` are zero, so only the label changes."""
    if isinstance(g, JetField):
        n = alg.upto[cap]       # the rows a field valid through cap holds
        c = np.zeros((n,) + g.shape)
        if isinstance(x, JetField):
            c[:len(x.c)] = x.c
        else:
            c[0] = x.astype(float)
        return JetField._of(alg, [(c, np.full(g.shape, cap), cap)])

    def lift(s):
        c = s.c if isinstance(s, Jet) else Jet.const(alg, s, exact).c
        return Jet(alg, c, cap, exact)
    return np.frompyfunc(lift, 1, 1)(x)


@lru_cache(maxsize=None)
def _euler_weights(alg: JetAlgebra, exact: bool, inverse: bool) -> np.ndarray:
    """Per monomial its degree: the Euler operator E multiplies each
    coefficient by it.  With ``inverse``, 1/degree and 0 for the constant
    term: E^-1 on the series without one."""
    w = [Fraction(1, d) if d else 0 for d in alg.deg.tolist()] if inverse \
        else alg.deg.tolist()
    return np.array(w, dtype=object if exact else float)


def _euler(x, alg: JetAlgebra, inverse: bool = False):
    """E (or E^-1) on a jet, a ``JetField`` of float jets or an object
    array of jets."""
    if isinstance(x, JetField):
        w = _euler_weights(alg, False, inverse).reshape(
            (-1,) + (1,) * len(x.shape))
        return x._with([(x.c * w[:len(x.c)], x.v, x._u)])
    if isinstance(x, Jet):
        return Jet(alg, x.c * _euler_weights(alg, x.exact, inverse), x.valid,
                   x.exact)
    return np.frompyfunc(lambda s: _euler(s, alg, inverse), 1, 1)(x)


class GeometryContext:
    """Base class; subclasses set dim, ring, metric, orientation, wiring."""

    dim: int
    ring: Ring
    orientation: int | None
    metric: Tensor
    structure: np.ndarray | None        # c^e_{ab}, indexed [e][a][b]
    var_of_direction: list
    meta: dict

    def partial(self, s, direction: int):
        v = self.var_of_direction[direction]
        if v is None:
            return s * 0
        return field_partial(s, v)

    def point_value(self, s):
        return field_value(s)

    @property
    def nvars(self) -> int:
        return sum(1 for v in self.var_of_direction if v is not None)

    @property
    def is_homogeneous(self) -> bool:
        return all(v is None for v in self.var_of_direction)

    @property
    def jet_algebra(self):
        if self.metric.field is not None:
            return getattr(self.metric.field, "alg", None)
        s = self.metric.a.flat[0]
        s = s.re if isinstance(s, Dual) else s
        return s.alg if isinstance(s, Jet) else None

    @cached_property
    def _point_inverse(self):
        """(g(p)^-1, det g(p)): fraction-free elimination on the numerators
        of a packed rational metric, else Gauss-Jordan on the base-point
        values."""
        if isinstance(self.metric.field, RationalField):
            return _fraction_free_inverse(self.metric.field)
        ring = Ring(self.ring.name, field_value(self.ring.zero()),
                    field_value(self.ring.one()), self.ring.exact)
        inv, det = _invert_with_det(self.metric.at_point().a, ring)
        if scalar_float(det) == 0.0:
            raise DegenerateMetricError("metric is singular at the base point")
        return inv, det

    @cached_property
    def _real_part(self) -> "GeometryContext":
        """For a metric of Duals A + eps B, the context of A, whose
        ``metric_inv`` and ``det_metric`` are A^-1 and det A by the plain
        route; ``conformal.linearize`` hands in the context it linearizes."""
        zero, one = self.ring.zero(), self.ring.one()
        ring = Ring(self.ring.name.removeprefix("dual:"), zero.re, one.re,
                    self.ring.exact)
        return clone_context(self, self.metric.dual_parts()[0].pack(), ring)

    @cached_property
    def metric_inv(self) -> Tensor:
        """g^-1; on jets the Newton lift of g(p)^-1.  For Duals A + eps B,
        X - eps XBX with X = A^-1 (eps^2 = 0): XBX sums in X at each place,
        so its ``valid`` is capped at X's, as ``Dual.__mul__`` caps it."""
        if isinstance(self.ring.zero(), Dual):
            x, b = self._real_part.metric_inv, self.metric.dual_parts()[1]
            xbx = einsum("ab,bc->ac", x.data,
                         einsum("ab,bc->ac", b.data, x.data))
            return Tensor.dual(x, Tensor(self.dim, ("u", "u"), -xbx)).pack()
        inv, alg = self._point_inverse[0], self.jet_algebra
        if alg is not None:
            inv = _newton_inverse(self.metric.data, inv, alg,
                                  self.ring.exact)
        return Tensor(self.dim, ("u", "u"), inv).pack()

    @cached_property
    def _log_det(self):
        """L = log(det g / det g(p)) on jets, which Jacobi's formula in
        Euler form, E log det g = tr(g^-1 E g), gives as L = E^-1 tr(g^-1 E
        g), a series without constant term."""
        alg = self.jet_algebra
        tr = einsum("ab,ba->", self.metric_inv.data,
                    _euler(self.metric.data, alg))[()]
        return _euler(tr, alg, inverse=True)

    @cached_property
    def det_metric(self):
        """det g; on jets det g(p) exp(L) (``_log_det``).  For Duals
        A + eps B, det A (1 + eps tr(A^-1 B)), as eps^2 = 0."""
        if isinstance(self.ring.zero(), Dual):
            real = self._real_part
            det = real.det_metric
            tr = einsum("ab,ba->", real.metric_inv.data,
                        self.metric.dual_parts()[1].data)[()]
            return Dual(det, det * tr)
        det = self._point_inverse[1]
        return det if self.jet_algebra is None else self._log_det.exp() * det

    @cached_property
    def volume(self):
        """(eps_{0..n-1}, eps^{0..n-1}) = (o sqrt|det g|, o sgn(det g) / sqrt|det g|)
        for the orientation o = +-1: on jets o r exp(L/2) and o sgn
        exp(-L/2) / r with r = sqrt|det g(p)|, L = ``_log_det``; a Dual's
        sign is read from its real part."""
        o = self.orientation
        if o not in (1, -1):
            raise DimensionError("context has no orientation")
        if isinstance(self.ring.zero(), Dual):
            det = self.det_metric
            sign = 1 if field_value(det.re) > 0 else -1
            root = (det * sign).sqrt()
            return root * o, root.inverse() * (o * sign)
        det = self._point_inverse[1]
        sign = 1 if det > 0 else -1
        root = (exact_sqrt if self.ring.exact else math.sqrt)(det * sign)
        if self.jet_algebra is None:
            return root * o, o * sign / root
        half = self._log_det * Fraction(1, 2)
        return half.exp() * (root * o), (-half).exp() * (o * sign / root)

    @cached_property
    def stack(self) -> "CurvatureStack":
        return CurvatureStack(self)


class FrameContext(GeometryContext):
    """Homogeneous frame: constant metric, constant structure coefficients.

    Every entry is read as a rational, ``Fraction(x)``, exact for floats
    too, and validated on the integer numerators.  An exact ring stores the
    metric and the structure constants as ``RationalField``s; a float ring
    stores float() of each Fraction in a ``JetField`` over no jet
    variables, so float frames run on the float-jet kernel."""

    def __init__(self, dim, structure_constants, metric_entries, *,
                 ring=RATIONAL, orientation=1, name="frame"):
        self.dim = dim
        self.orientation = orientation
        self.var_of_direction = [None] * dim
        self.var_base_point = ()
        self.meta = {"name": name}
        c = entries_array((dim,) * 3, {k: _rational(v) for k, v in
                                       structure_constants.items()},
                          Fraction(0))
        g = entries_array((dim, dim), {(i, j): _rational(metric_entries[i][j])
                                       for i in range(dim)
                                       for j in range(dim)})
        _validate_frame(c, g)
        self.ring = ring
        if not ring.exact:
            self.ring = jet_ring(JetAlgebra.get(0, 0), False)
            c, g = _float_field(c), _float_field(g)
        self.structure = c
        self.metric = Tensor(dim, ("d", "d"), g)

    def to_float(self) -> "FrameContext":
        """The float frame of this exact frame."""
        return FrameContext(self.dim,
                            dict(np.ndenumerate(self.structure.unpack())),
                            self.metric.a.tolist(), ring=FLOAT,
                            orientation=self.orientation,
                            name=self.meta["name"])


def _rational(x) -> Fraction:
    """x as a Fraction, exactly: floats and ints included."""
    return x if type(x) is Fraction else Fraction(x)


def _validate_frame(c: RationalField, g: RationalField):
    """c^e_ab = -c^e_ba, the Jacobi identity and g = g^T, on the integer
    numerators over their one denominator, int64 when the Jacobi sums
    (three of n products each) are proven below 2**63."""
    n = g.shape[0]
    c = c.num.astype(object) if 3 * n * c.bound ** 2 >= _INT64_BOUND \
        else c.num
    if (c + c.transpose(0, 2, 1)).any():
        raise ValueError("structure constants not antisymmetric")
    # Jacobi: c^e_ad c^d_bf summed over d, cyclic in (a, b, f), is zero
    m = np.matmul(c.reshape(n * n, n), c.reshape(n, n * n)).reshape((n,) * 4)
    if (m + m.transpose(0, 3, 1, 2) + m.transpose(0, 2, 3, 1)).any():
        raise ValueError("Jacobi identity fails")
    if (g.num != g.num.transpose()).any():
        raise ValueError("frame metric not symmetric")


def _float_field(f: RationalField) -> JetField:
    """float() of each Fraction of f, one correctly rounded int division
    each (dividing by the shared denominator in floats could round twice),
    as constants over no jet variables."""
    c = np.array([x / f.den for x in f.num.ravel().tolist()])
    return JetField(JetAlgebra.get(0, 0), c.reshape((1,) + f.shape),
                    np.zeros(f.shape, dtype=int))


class ChartContext(GeometryContext):
    """Coordinate chart: metric entries are jets at the base point."""

    def __init__(self, dim, metric_tensor: Tensor, *, ring, base_point,
                 jet_order, orientation=1, name="chart", metric_polys=None):
        self.dim = dim
        self.ring = ring
        self.orientation = orientation
        self.metric = metric_tensor.pack()
        self.base_point = tuple(base_point)
        self.var_base_point = tuple(base_point)
        self.jet_order = jet_order
        self.var_of_direction = list(range(dim))
        self.structure = None
        self.metric_polys = metric_polys
        self.meta = {"name": name}

    @classmethod
    def from_polys(cls, entries, base_point, jet_order=5, *, exact=False,
                   orientation=1, name="chart"):
        """entries: dim x dim nested list of Poly / RationalFunc / Fraction.

        Each entry is expanded by ``Poly.taylor`` at base_point.  Float
        coefficients are rounded once each into one packed ``JetField``,
        and each distinct denominator is inverted once and multiplied into
        the entries over it, as ``RationalFunc.jet`` would, so every
        coefficient is the one the per-entry jets give.  ConfigError names
        an entry whose denominator vanishes at base_point.
        """
        dim = len(entries)
        alg = JetAlgebra.get(dim, jet_order)
        nums = np.empty((dim, dim), dtype=object)
        over = {}       # denominator -> (its Poly, the entries over it)
        for i in range(dim):
            for j in range(dim):
                e = entries[i][j]
                if isinstance(e, (int, Fraction)):
                    e = Poly.const(dim, e)
                if isinstance(e, RationalFunc):
                    e, den = e.num, e.den
                    if den is not None:
                        key = (den.nvars, frozenset(den.coeffs.items()))
                        over.setdefault(key, (den, []))[1].append((i, j))
                nums[i, j] = e.taylor(alg, base_point)
        build = _exact_metric if exact else _float_metric
        g = build(alg, nums, [(den.jet(alg, base_point, exact), ij)
                              for den, ij in over.values()])
        return cls(dim, Tensor(dim, ("d", "d"), g),
                   ring=jet_ring(alg, exact), base_point=base_point,
                   jet_order=jet_order, orientation=orientation, name=name,
                   metric_polys=entries)


def _inverse_of_denominator(den: Jet, ij: list) -> Jet:
    """1/den, or ConfigError naming the first entry (i, j) over den when
    den vanishes at the base point."""
    if not den.c[0]:
        i, j = ij[0]
        raise ConfigError(f"the denominator of metric entry ({i}, {j}) "
                          "vanishes at the base point")
    return den.inverse()


def _float_metric(alg: JetAlgebra, nums: np.ndarray, dens: list) -> JetField:
    """The packed float metric from the numerators' Taylor coefficients
    and (denominator jet, entries over it) pairs.

    The entries over one denominator are multiplied by its inverse in one
    ``np.bincount`` over the product table, each entry's weights in the
    order ``Jet.__mul__`` sums them, so the bits are the same."""
    dim = nums.shape[0]
    rows, cols, vals = [], [], []
    for col, coeffs in enumerate(nums.ravel().tolist()):
        rows += coeffs
        cols += [col] * len(coeffs)
        # float(x)'s own rounding, without its int() calls
        vals += [x.numerator / x.denominator for x in coeffs.values()]
    c = np.zeros((alg.N, dim * dim))
    c[rows, cols] = vals
    c = c.reshape(alg.N, dim, dim)
    ia, ib, io = alg.mul_table(alg.order)
    for den, ij in dens:
        inv = _inverse_of_denominator(den, ij)
        ii, jj = np.array(ij).T
        w = c[:, ii, jj][ia].T * inv.c[ib]          # (entries, products)
        bins = io + alg.N * np.arange(len(ij))[:, None]
        c[:, ii, jj] = np.bincount(bins.ravel(), weights=w.ravel(),
                                   minlength=alg.N * len(ij)) \
            .reshape(len(ij), alg.N).T
    if not np.array_equal(c, c.transpose(0, 2, 1)):
        raise ValueError("chart metric not symmetric")
    return JetField(alg, c, np.full((dim, dim), alg.order))


def _exact_metric(alg: JetAlgebra, nums: np.ndarray, dens: list) -> np.ndarray:
    """The exact metric as an object array of jets: each numerator's jet
    times the inverse of its denominator."""
    g = np.empty(nums.shape, dtype=object)
    for (i, j), coeffs in np.ndenumerate(nums):
        g[i, j] = taylor_jet(alg, coeffs, True)
    for den, ij in dens:
        inv = _inverse_of_denominator(den, ij)
        for i, j in ij:
            g[i, j] = g[i, j] * inv
    for i in range(g.shape[0]):
        for j in range(i):
            if not g[i, j] == g[j, i]:
                raise ValueError("chart metric not symmetric")
    return g


class ProductContext(GeometryContext):
    """Finite Riemannian product assembled block by block."""

    def __init__(self, factors, *, name="product"):
        kinds = {f.ring.exact for f in factors}
        if len(kinds) > 1:
            raise ScalarKindError("product factors mix exact and float scalars")
        exact = kinds.pop()
        self.factors = list(factors)
        self.dim = sum(f.dim for f in factors)
        offsets, off = [], 0
        for f in factors:
            offsets.append(off)
            off += f.dim
        self.offsets = offsets
        chart_orders = [f.jet_order for f in factors if f.nvars > 0]
        nvars = sum(f.nvars for f in factors)
        self.jet_order = min(chart_orders) if chart_orders else None
        self.meta = {"name": name}
        self.orientation = 1
        for f in factors:
            self.orientation *= (f.orientation or 1)
        self.var_of_direction = []
        self.var_base_point = ()
        var_offsets, var_off = [], 0
        for f in factors:
            for v in f.var_of_direction:
                self.var_of_direction.append(None if v is None else var_off + v)
            var_offsets.append(var_off)
            var_off += f.nvars
            self.var_base_point = self.var_base_point + \
                tuple(getattr(f, "var_base_point", ()))
        n, alg = self.dim, JetAlgebra.get(nvars, self.jet_order or 0)
        if not exact:
            self.ring, build = jet_ring(alg, False), _block_jets
        elif nvars == 0:
            self.ring, build = factors[0].ring, _block_field
        else:
            self.ring, build = jet_ring(alg, True), _block_exact_jets
        blocks = list(zip(factors, offsets, var_offsets))
        self.metric = Tensor(n, ("d", "d"), build(
            alg, (n, n), [(f.metric.data, off, v) for f, off, v in blocks]))
        self.structure = build(alg, (n, n, n), [
            (f.structure, off, v) for f, off, v in blocks
            if f.structure is not None])


def _block_field(alg, shape: tuple, blocks: list) -> RationalField:
    """The block-diagonal field of ``shape`` holding each (field, offset,
    variable offset) of ``blocks`` at offset on every axis, its numerators
    rescaled to the lcm of the blocks' denominators."""
    den = math.lcm(*(f.den for f, *_ in blocks))
    bound = max((f.bound * (den // f.den) for f, *_ in blocks), default=1)
    wide = bound >= _INT64_BOUND
    num = np.zeros(shape, dtype=object if wide else np.int64)
    for f, off, _ in blocks:    # widened before the rescaling multiply
        num[_block_at(f, off)] = \
            (f.num.astype(object) if wide else f.num) * (den // f.den)
    return RationalField.reduced(num, den, bound)


def _block_jets(alg: JetAlgebra, shape: tuple, blocks: list) -> JetField:
    """The block-diagonal float-jet field of ``shape`` over ``alg`` holding
    each (field, offset, variable offset) of ``blocks`` at offset on every
    axis, its jet variables moved to start at the variable offset.  A block
    over no variables holds constants, valid through ``alg``'s order, as
    are the zeros between the blocks."""
    c = np.zeros((alg.N,) + shape)
    v = np.full(shape, alg.order)
    for f, off, var_off in blocks:
        src, dst = _embed_table((f.alg.nvars, f.alg.order),
                                (alg.nvars, alg.order), var_off)
        rows = src < len(f.c)       # the rows after f's are zero
        c[(dst[rows],) + _block_at(f, off)] = f.c[src[rows]]
        if f.alg.nvars:
            v[_block_at(f, off)] = np.minimum(f.v, alg.order)
    return JetField(alg, c, v)


def _block_exact_jets(alg: JetAlgebra, shape: tuple,
                      blocks: list) -> np.ndarray:
    """The block-diagonal object array of exact jets over ``alg`` holding
    each (entries, offset, variable offset) of ``blocks``: Fractions as
    constants, jets with their variables moved to the variable offset."""
    def lift(s, var_off):
        return _embed_jet(s, alg, var_off) if isinstance(s, Jet) \
            else Jet.const(alg, s, True)
    out = np.full(shape, Jet.const(alg, Fraction(0), True), dtype=object)
    for x, off, var_off in blocks:
        x = x.unpack() if isinstance(x, RationalField) else x
        out[_block_at(x, off)] = np.frompyfunc(lift, 2, 1)(x, var_off)
    return out


def _block_at(x, off: int) -> tuple:
    """The slices that place x at offset off on every axis."""
    return tuple(slice(off, off + d) for d in x.shape)


@lru_cache(maxsize=None)
def _embed_table(src_key, dst_key, offset):
    src = JetAlgebra.get(*src_key)
    dst = JetAlgebra.get(*dst_key)
    src_idx, dst_idx = [], []
    for i, m in enumerate(src.mons):
        if sum(m) > dst.order:
            continue
        e = [0] * dst.nvars
        for v, k in enumerate(m):
            e[offset + v] = k
        src_idx.append(i)
        dst_idx.append(dst.index[tuple(e)])
    return np.array(src_idx), np.array(dst_idx)


def _embed_jet(j: Jet, alg: JetAlgebra, offset: int) -> Jet:
    """An exact jet with its variables moved to start at offset in alg."""
    src_idx, dst_idx = _embed_table((j.alg.nvars, j.alg.order),
                                    (alg.nvars, alg.order), offset)
    c = np.full(alg.N, Fraction(0), dtype=object)
    c[dst_idx] = j.c[src_idx]
    return Jet(alg, c, min(j.valid, alg.order), True)


def product(contexts, *, name="product") -> ProductContext:
    return ProductContext(contexts, name=name)


class CurvatureStack:
    """Connection, curvature, and conformal curvature at the base point."""

    def __init__(self, ctx: GeometryContext):
        self.ctx = ctx
        if ctx.dim < 2:
            raise DimensionError("curvature stack needs dim >= 2")
        self._phi_cycles = {}       # see invariants._phi_chain_form

    @property
    def dim(self) -> int:
        return self.ctx.dim

    @property
    def ring(self):
        return self.ctx.ring

    @property
    def metric(self) -> Tensor:
        return self.ctx.metric

    @property
    def metric_inv(self) -> Tensor:
        return self.ctx.metric_inv

    # -- derivative machinery -------------------------------------------------

    def _dirderiv(self, t: Tensor) -> Tensor:
        """D_a applied componentwise; derivative slot prepended."""
        ctx = self.ctx
        n = ctx.dim
        f = t.field if t.field is not None else RationalField.pack(t.a)
        if f is not None:
            return Tensor(n, ("d",) + t.valence,
                          f.derivatives(ctx.var_of_direction))
        out = np.empty((n,) + t.a.shape, dtype=object)
        for a in range(n):
            for idx in np.ndindex(t.a.shape):
                out[(a,) + idx] = ctx.partial(t.a[idx], a)
        return Tensor(n, ("d",) + t.valence, out)

    def nabla(self, t: Tensor) -> Tensor:
        """Covariant derivative; new down slot in position 0."""
        out = self._dirderiv(t)
        if t.rank == 0:
            return out
        # each correction is summed with D t, valid one degree lower
        gam, data = (_truncated_to(x, out.data)
                     for x in (self.gamma.data, t.data))
        letters = _LETTERS[:t.rank]
        der, dum = "Y", "Z"
        for s in range(t.rank):
            if t.valence[s] == "u":
                sub = letters[s] + der + dum       # Gamma^{j_s}_{Y e}
            else:
                sub = dum + der + letters[s]       # Gamma^{e}_{Y j_s}
            src = letters[:s] + dum + letters[s + 1:]
            spec = f"{sub},{src}->{der}{letters}"
            corr = einsum(spec, gam, data)
            out = Tensor(out.dim, out.valence,
                         out.data + corr if t.valence[s] == "u"
                         else out.data - corr)
        return out

    def div(self, t: Tensor, slot: int) -> Tensor:
        """Covariant divergence grad^a T_{...a...} over a down slot."""
        nt = self.nabla(t)
        nt = raise_slot(self.ctx, nt, 0)
        return contract(nt, [(0, slot + 1)])

    def laplacian(self, t: Tensor) -> Tensor:
        n2 = self.nabla(self.nabla(t))
        n2 = raise_slot(self.ctx, n2, 0)
        return contract(n2, [(0, 1)])

    def at_point(self, t: Tensor) -> Tensor:
        return t.at_point()

    # -- connection and curvature ---------------------------------------------

    @cached_property
    def gamma(self) -> Tensor:
        ctx = self.ctx
        n = ctx.dim
        g = ctx.metric
        dg = self._dirderiv(g).data                   # [a][b][c] = D_a g_bc
        low = einsum("abc->abc", dg) * Fraction(1, 2) \
            + einsum("bac->abc", dg) * Fraction(1, 2) \
            - einsum("cab->abc", dg) * Fraction(1, 2)
        if ctx.structure is not None:
            # c^e_ab g_ec - c^e_bc g_ea + c^e_ca g_eb: one product m_abc =
            # c^e_ab g_ec and two transposes of it
            m = einsum("eab,ec->abc", ctx.structure, g.data)
            low = low + Fraction(1, 2) * (
                m - einsum("bca->abc", m) + einsum("cab->abc", m))
        gam = einsum("dc,abc->dab", ctx.metric_inv.data, low)
        return Tensor(n, ("u", "d", "d"), gam)

    @cached_property
    def rm_mixed(self) -> Tensor:
        """R_ab^c_d with valence (d, d, u, d)."""
        ctx = self.ctx
        gam = self.gamma
        dgam = self._dirderiv(gam).data         # [a][c][b][d] = D_a G^c_bd
        ga = gam.data
        # G^c_be G^e_ad is G^c_ae G^e_bd with a and b swapped, summed with
        # D Gamma, valid one degree lower
        gt = _truncated_to(ga, dgam)
        gg = einsum("cae,ebd->abcd", gt, gt)
        r = einsum("acbd->abcd", dgam) \
            - einsum("bcad->abcd", dgam) \
            + gg - gg.transpose(1, 0, 2, 3)
        if ctx.structure is not None:
            r = r - einsum("eab,ced->abcd", ctx.structure, ga)
        return Tensor(ctx.dim, ("d", "d", "u", "d"), r)

    @cached_property
    def rm(self) -> Tensor:
        """All-down Riemann tensor R_abcd = g_ce R_ab^e_d."""
        return lower_slot(self.ctx, self.rm_mixed, 2)

    @cached_property
    def ric(self) -> Tensor:
        return contract(self.rm_mixed, [(2, 0)])

    @cached_property
    def scalar_curv(self):
        up = raise_slot(self.ctx, self.ric, 0)
        return contract(up, [(0, 1)]).item()

    @cached_property
    def j_scalar(self):
        return self.scalar_curv * Fraction(1, 2 * (self.ctx.dim - 1))

    @cached_property
    def schouten(self) -> Tensor:
        n = self.ctx.dim
        if n < 3:
            raise DimensionError("Schouten tensor needs dim >= 3")
        jg = self.ctx.metric.scale(self.j_scalar)
        return (self.ric - jg).scale(Fraction(1, n - 2))

    @cached_property
    def schouten_mixed(self) -> Tensor:
        """P_a^b with valence (d, u)."""
        return raise_slot(self.ctx, self.schouten, 1)

    @cached_property
    def weyl(self) -> Tensor:
        """All-down Weyl via R = W + P (kn) g."""
        return self.rm - kulkarni_nomizu_pg(self.schouten, self.ctx.metric)

    @cached_property
    def weyl_dduu(self) -> Tensor:
        w = raise_slot(self.ctx, self.weyl, 2)
        return raise_slot(self.ctx, w, 3)

    @cached_property
    def weyl_dudd(self) -> Tensor:
        """W_t^s_ij (second slot raised), the Phi-chain's curvature
        factor."""
        return raise_slot(self.ctx, self.weyl, 1)

    @cached_property
    def rm_dudd(self) -> Tensor:
        """R_t^s_ij (second slot raised), the Riemann Phi-chain factor."""
        return raise_slot(self.ctx, self.rm, 1)

    @cached_property
    def rm_dduu(self) -> Tensor:
        return raise_slot(self.ctx, self.rm_mixed, 3)

    @cached_property
    def cotton(self) -> Tensor:
        """C_ijk = grad_i P_jk - grad_j P_ik."""
        np_ = self.nabla(self.schouten)
        return Tensor(np_.dim, np_.valence,
                      np_.data - einsum("jik->ijk", np_.data))

    @cached_property
    def cotton_ddu(self) -> Tensor:
        """C_ij^k (third slot raised)."""
        return raise_slot(self.ctx, self.cotton, 2)

    @cached_property
    def cotton_dud(self) -> Tensor:
        """C_t^s_i (second slot raised), the Phi-chain's Cotton factor."""
        return raise_slot(self.ctx, self.cotton, 1)

    @cached_property
    def bach(self) -> Tensor:
        """B_ij = grad^s C_sij + W_isjt P^st."""
        n = self.ctx.dim
        if n < 3:
            raise DimensionError("Bach tensor needs dim >= 3")
        divC = self.div(self.cotton, 0)
        # W P is summed with div C, valid one degree below C
        w, p = (Tensor(n, t.valence, _truncated_to(t.data, divC.data))
                for t in (self.weyl, self.schouten_mixed))
        wp = einsum("isjt,st->ij", w.data, raise_slot(self.ctx, p, 0).data)
        return Tensor(n, ("d", "d"), divC.data + wp)

    # -- small conveniences -----------------------------------------------------

    def trace(self, t: Tensor):
        """g-trace of a (d,d) tensor."""
        return contract(raise_slot(self.ctx, t, 0), [(0, 1)]).item()

    def trace_free(self, t: Tensor) -> Tensor:
        tr = self.trace(t)
        return t - self.ctx.metric.scale(tr * Fraction(1, self.ctx.dim))

    def grad_scalar(self, s) -> Tensor:
        """grad_i f for a scalar field; on a frame, the packed zero of a
        Fraction."""
        n = self.ctx.dim
        if type(s) is Fraction and self.ctx.is_homogeneous:
            zero = RationalField(np.zeros(n, np.int64), 1, 1)
            return Tensor(n, ("d",), zero)
        out = np.empty((n,), dtype=object)
        for a in range(n):
            out[a] = self.ctx.partial(s, a)
        return Tensor(n, ("d",), out)

    def check_invariants(self, tol: float = 1e-10) -> list:
        """Residuals of the structural curvature identities at the base point.

        Exact modes should see zeros; chart (float) modes stay below `tol`
        on well-conditioned metrics.  Returns (name, residual) pairs.
        """
        from .tensors import antisymmetrize, max_abs
        from .tensors import residual as tres
        n = self.ctx.dim
        rm = self.at_point(self.rm)
        scale = max(1.0, max_abs(rm))
        out = [
            ("Rm antisymmetric in the first pair",
             tres(rm, rm.permuted((1, 0, 2, 3)).scale(-1), scale)),
            ("Rm antisymmetric in the second pair",
             tres(rm, rm.permuted((0, 1, 3, 2)).scale(-1), scale)),
            ("Rm symmetric under pair exchange",
             tres(rm, rm.permuted((2, 3, 0, 1)), scale)),
            ("first Bianchi identity",
             max_abs(antisymmetrize(rm, [0, 1, 2])) / scale),
            ("metric compatibility grad g = 0",
             max_abs(self.at_point(self.nabla(self.ctx.metric))) / scale),
        ]
        if n >= 4:
            w = self.at_point(self.weyl)
            wm = self.at_point(self.weyl_dduu)
            traces = max(max_abs(contract(wm, [(2, 0)])),
                         max_abs(contract(wm, [(3, 1)])))
            rec = self.weyl + kulkarni_nomizu_pg(self.schouten,
                                                 self.ctx.metric)
            out += [
                ("Weyl totally trace-free", traces / scale),
                ("Weyl first Bianchi",
                 max_abs(antisymmetrize(w, [0, 1, 2])) / scale),
                ("Rm = W + Schouten (kn) g",
                 tres(self.at_point(rec), rm, scale)),
            ]
        if n >= 4:
            c = self.at_point(self.cotton)
            np_ = self.nabla(self.schouten)
            out += [
                ("Cotton = 2 grad_[i P_j]k",
                 tres(self.at_point(np_ - np_.permuted((1, 0, 2))), c,
                      scale)),
                ("Cotton totally antisymmetric part vanishes",
                 max_abs(antisymmetrize(c, [0, 1, 2])) / scale),
                ("div W = (n-3) Cotton",
                 tres(self.at_point(self.div(self.weyl, 2)),
                      self.at_point(self.cotton.scale(n - 3)), scale)),
            ]
        return out


def _truncated_to(x, term):
    """x, when it and ``term`` are float-jet fields, truncated to the
    largest ``valid`` in ``term``: a product of such operands, summed with
    term, then keeps no degree the sum drops, and as the largest, not the
    smallest, it changes no component's ``valid`` in the sum."""
    if isinstance(x, JetField) and isinstance(term, JetField):
        return x.truncated(max(int(v.max()) if u is None else u
                               for _, v, u in term._parts()))
    return x


def kulkarni_nomizu_pg(p: Tensor, g: Tensor) -> Tensor:
    """P_ik g_jl - P_il g_jk + P_jl g_ik - P_jk g_il."""
    x = einsum("ik,jl->ijkl", p.data, g.data)
    a = x - x.transpose(0, 1, 3, 2) + x.transpose(1, 0, 3, 2) \
        - x.transpose(1, 0, 2, 3)
    return Tensor(p.dim, ("d",) * 4, a)


def cotton(ctx: GeometryContext) -> Tensor:
    if ctx.dim < 3:
        raise DimensionError("Cotton tensor needs dim >= 3")
    return ctx.stack.cotton


def bach(ctx: GeometryContext) -> Tensor:
    try:
        return ctx.stack.bach
    except JetOrderError as exc:
        raise JetOrderError(
            "Bach tensor needs jet order >= 4 on charts") from exc
