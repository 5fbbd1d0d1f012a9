"""Concrete geometries: flat space, round spheres, Berger spheres, circles,
Fubini-Study CP^2, their products, and the seeded random-metric ensemble.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .errors import ConfigError, ExactnessError
from .geometry import ChartContext, FrameContext, GeometryContext, product
from .polys import Poly, RationalFunc
from .rationals import entries_array
from .scalars import FLOAT, RATIONAL, rational_sqrt
from .tensors import Tensor


def flat_chart(dim: int = 4, jet_order: int = 3, exact: bool = True,
               base_point=None) -> ChartContext:
    base_point = base_point or (Fraction(0),) * dim
    entries = [[Fraction(1 if i == j else 0) for j in range(dim)]
               for i in range(dim)]
    return ChartContext.from_polys(entries, base_point=base_point,
                                   jet_order=jet_order, exact=exact,
                                   name=f"flat{dim}")


def round_sphere_chart(dim: int = 4, jet_order: int = 3, exact: bool = True,
                       base_point=None) -> ChartContext:
    """Unit round sphere in stereographic coordinates: g = 4 delta/(1+|x|^2)^2."""
    if base_point is None:
        base_point = tuple(Fraction(1, 5 + 2 * v) for v in range(dim))
    r2 = Poly.const(dim, 0)
    for v in range(dim):
        r2 = r2 + Poly.var(dim, v) * Poly.var(dim, v)
    den = (Poly.const(dim, 1) + r2) ** 2
    entries = [[RationalFunc(Poly.const(dim, 4 if i == j else 0), den)
                for j in range(dim)] for i in range(dim)]
    return ChartContext.from_polys(entries, base_point=base_point,
                                   jet_order=jet_order, exact=exact,
                                   name=f"round_s{dim}")


def berger_frame(t, exact: bool = True) -> FrameContext:
    """Berger three-sphere g_t = t a(x)a + b(x)b + c(x)c on the frame with
    [X,Y] = 2Z, [Y,Z] = 2X, [Z,X] = 2Y (unit-quaternion left-invariant
    fields), metric diag(t, 1, 1)."""
    t = Fraction(t)
    if t <= 0:
        raise ConfigError("Berger parameter t must be positive")
    return _su2_frame(t, bracket_scale=Fraction(2), exact=exact)


def _su2_frame(t: Fraction, bracket_scale: Fraction,
               exact: bool) -> FrameContext:
    sc = {}
    for e, a, b in ((2, 0, 1), (0, 1, 2), (1, 2, 0)):
        sc[e, a, b], sc[e, b, a] = bracket_scale, -bracket_scale
    ctx = FrameContext(3, sc, [[t, 0, 0], [0, 1, 0], [0, 0, 1]],
                       ring=RATIONAL if exact else FLOAT,
                       name=f"berger_t={t if exact else float(t)}")
    ctx.meta["t"] = t
    ctx.meta["bracket_scale"] = bracket_scale
    return ctx


def circle_frame(exact: bool = True) -> FrameContext:
    return FrameContext(1, {}, [[1]], ring=RATIONAL if exact else FLOAT,
                        name="s1")


def berger_product(t, exact: bool = True, *,
                   bracket_scale=Fraction(2)) -> GeometryContext:
    """(S^3 x S^1, g_t + theta^2); exact mode needs sqrt(t) rational."""
    t = Fraction(t)
    if t <= 0:
        raise ConfigError("Berger parameter t must be positive")
    if exact and rational_sqrt(t) is None:
        raise ExactnessError(
            f"exact mode needs a perfect-square t (sqrt({t}) is irrational, "
            "so the volume form leaves the rational field); pass t = p^2/q^2 "
            "or use float mode")
    s3 = _su2_frame(t, Fraction(bracket_scale), exact)
    s1 = circle_frame(exact)
    ctx = product([s3, s1], name=f"berger_product_t={t}")
    ctx.meta["t"] = t
    ctx.meta["killing_T_index"] = 3
    return ctx


def killing_field_T(ctx) -> Tensor:
    """The unit Killing field dual to theta on a Berger product."""
    idx = ctx.meta.get("killing_T_index", ctx.dim - 1)
    return Tensor(ctx.dim, ("u",), entries_array(
        (ctx.dim,), {idx: ctx.ring.one()}, ctx.ring.zero()))


def fs_cp2_chart(jet_order: int = 3, exact: bool = False,
                 base_point=None) -> ChartContext:
    """CP^2 with the Fubini-Study metric in an affine chart.

    Real coordinates (a, b, c, d) for (z1, z2) = (a+ib, c+id); the Kaehler
    potential log(1 + |z|^2) gives g = Re h, normalized so the metric is
    Einstein with Ric = 6 g (holomorphic sectional curvature 4).
    """
    n = 4
    if base_point is None:
        base_point = (Fraction(1, 3), Fraction(-1, 5), Fraction(1, 7),
                      Fraction(2, 7))
    a, b, c, d = (Poly.var(n, v) for v in range(n))
    one = Poly.const(n, 1)
    big_a = one + a * a + b * b + c * c + d * d
    den = big_a * big_a
    p11 = one + c * c + d * d
    p22 = one + a * a + b * b
    p12 = Fraction(-1) * (a * c + b * d)
    q12 = Fraction(-1) * (a * d - b * c)
    zero = Poly.const(n, 0)
    num = [[p11, zero, p12, q12],
           [zero, p11, Fraction(-1) * q12, p12],
           [p12, Fraction(-1) * q12, p22, zero],
           [q12, p12, zero, p22]]
    entries = [[RationalFunc(num[i][j], den) for j in range(4)]
               for i in range(4)]
    ctx = ChartContext.from_polys(entries, base_point=base_point,
                                  jet_order=jet_order, exact=exact,
                                  name="fs_cp2")
    ctx.meta["normalization"] = "holomorphic sectional curvature 4 (Ric = 6 g)"
    return ctx


def product_8d(t=Fraction(4), jet_order: int = 3,
               cp2_point=None) -> GeometryContext:
    """(S^3 x S^1) x CP^2 in float mode, 8-dimensional."""
    s3 = _su2_frame(Fraction(t), Fraction(2), exact=False)
    s1 = circle_frame(exact=False)
    cp2 = fs_cp2_chart(jet_order=jet_order, exact=False, base_point=cp2_point)
    ctx = product([s3, s1, cp2], name=f"prod8_t={t}")
    ctx.meta["t"] = Fraction(t)
    ctx.meta["killing_T_index"] = 3
    return ctx


# -- random ensemble -----------------------------------------------------------


def _random_poly(dim: int, rng, scale: float, degree: int = 3,
                 zero_constant: bool = False) -> Poly:
    """Polynomial with grid-uniform coefficients in [-scale, scale]: one
    draw per monomial, in order of degree."""
    exps = []
    for deg in range(0 if not zero_constant else 1, degree + 1):
        for comb in combinations_with_replacement(range(dim), deg):
            e = [0] * dim
            for v in comb:
                e[v] += 1
            exps.append(tuple(e))
    # grid-uniform exact rationals inside [-scale, scale]
    step = Fraction(scale).limit_denominator(10 ** 6) / 10 ** 6
    nums = rng.integers(-10 ** 6, 10 ** 6 + 1, size=len(exps)).tolist()
    return Poly(dim, {e: k * step for e, k in zip(exps, nums)})


def random_chart(dim: int = 4, seed: int = 0, jet_order: int = 3,
                 scale: float = 0.05) -> ChartContext:
    """g = identity + Q(x), Q symmetric polynomial of degree <= 3 with
    coefficients in [-scale, scale], rejection-sampled for positive
    definiteness at the origin."""
    rng = np.random.default_rng(seed)
    for _ in range(40):
        entries = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                q = _random_poly(dim, rng, scale)
                if i == j:
                    q = q + 1
                entries[i][j] = q
                entries[j][i] = q
        g0 = np.array([[float(entries[i][j]((0,) * dim)) for j in range(dim)]
                       for i in range(dim)])
        if np.all(np.linalg.eigvalsh(g0) > 0.1):
            ctx = ChartContext.from_polys(entries, base_point=(Fraction(0),) * dim,
                                          jet_order=jet_order, exact=False,
                                          name=f"random{dim}[seed={seed}]")
            ctx.meta["seed"] = seed
            return ctx
    raise ConfigError("could not sample a positive-definite random metric")


def random_conformal_factor(dim: int, seed: int, scale: float = 0.5) -> Poly:
    """Polynomial Upsilon of degree <= 3, coefficients in [-scale, scale]."""
    rng = np.random.default_rng(seed + 10 ** 9)
    return _random_poly(dim, rng, scale)

