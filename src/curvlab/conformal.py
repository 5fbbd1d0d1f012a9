"""Conformal rescaling, conformal linearization, and the verification
operations that turn the stated identities into executable checks.

Linearization D_g T(Upsilon) = d/dt|_0 e^{-wt Upsilon} T(e^{2t Upsilon} g) is
computed by adjoining a nilpotent dual variable over the coordinate jets
(exact to rounding), with an optional central finite-difference cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionError, ExactnessError
from .geometry import GeometryContext, clone_context, dual_ring
from .invariants import (InvariantPolynomial, pfaffian_of, rho_phi,
                         star_rho_general, xi_k)
from .jets import Jet
from .polys import Poly
from .report import Check, VerificationReport, check_exact, check_residual
from .tensors import Tensor, einsum, raise_slot, residual as tensor_residual


@dataclass(frozen=True)
class ConformalFactor:
    """A conformal exponent Upsilon.

    Three shapes: a polynomial (charts), a constant (any context), or the
    logarithm of a positive rational function f (so e^{2 Upsilon} = f^2 stays
    inside the rational field; used for conformally flat fixtures).
    """

    poly: Poly | None = None
    constant: object = None
    log_func: object = None            # RationalFunc with Upsilon = log f

    @classmethod
    def from_poly(cls, poly: Poly) -> "ConformalFactor":
        return cls(poly=poly)

    @classmethod
    def const(cls, value) -> "ConformalFactor":
        return cls(constant=value)

    @classmethod
    def zero(cls) -> "ConformalFactor":
        return cls(constant=Fraction(0))

    @property
    def is_constant(self) -> bool:
        if self.log_func is not None:
            return False
        return self.poly is None or self.poly.is_constant()

    def scaled(self, s) -> "ConformalFactor":
        if self.log_func is not None:
            raise ValueError("log-form conformal factors cannot be scaled")
        if self.poly is not None:
            return ConformalFactor(poly=self.poly * Fraction(s))
        return ConformalFactor(constant=self.constant * Fraction(s))

    def field(self, ctx: GeometryContext):
        """Upsilon as a field scalar on the context."""
        alg = ctx.jet_algebra
        exact = ctx.ring.exact
        if ctx.is_homogeneous:
            if not self.is_constant:
                raise DimensionError(
                    "frame contexts admit only constant conformal factors")
            v = self.constant if self.poly is None else self.poly(())
            return v if exact else float(v)
        if self.log_func is not None:
            return self.log_func.jet(alg, ctx.var_base_point, exact).log()
        if self.poly is not None:
            return self.poly.jet(alg, ctx.var_base_point, exact)
        return Jet.const(alg, self.constant if exact else float(self.constant),
                         exact)

    def exp2_field(self, ctx: GeometryContext):
        """e^{2 Upsilon} as a field scalar (exact for log-form factors)."""
        alg = ctx.jet_algebra
        exact = ctx.ring.exact
        if self.log_func is not None and alg is not None:
            f = self.log_func.jet(alg, ctx.var_base_point, exact)
            return f * f
        return (self.field(ctx) * 2).exp()

    def value_at_base(self, ctx) -> float:
        if self.log_func is not None:
            return math.log(float(self.log_func(ctx.var_base_point)))
        if self.poly is not None:
            return float(self.poly(ctx.var_base_point))
        return float(self.constant)


def rescale(ctx: GeometryContext, ups: ConformalFactor) -> GeometryContext:
    """Context for the metric e^{2 Upsilon} g."""
    if ctx.is_homogeneous:
        if not ups.is_constant:
            raise DimensionError(
                "frame contexts admit only constant conformal factors")
        c = ups.constant if ups.poly is None else ups.poly(())
        if not c:
            return clone_context(ctx, ctx.metric)
        if ctx.ring.exact:
            raise ExactnessError(
                "e^{2c} leaves the exact field; rescale a float frame instead")
        factor = math.exp(2.0 * float(c))
        return clone_context(ctx, ctx.metric.scale(factor))
    return clone_context(ctx, ctx.metric.scale(ups.exp2_field(ctx)))


# -- named natural quantities ---------------------------------------------------


def _wp(st) -> Tensor:
    p_uu = raise_slot(st.ctx, st.schouten_mixed, 0)
    return Tensor(st.dim, ("d", "d"),
                  einsum("isjt,st->ij", st.weyl.data, p_uu.data))


def _tf_pp(st) -> Tensor:
    pp = Tensor(st.dim, ("d", "d"),
                einsum("is,sj->ij", st.schouten_mixed.data, st.schouten.data))
    return st.trace_free(pp)


def _tf_jp(st) -> Tensor:
    return st.trace_free(st.schouten.scale(st.j_scalar))


def _hess_j(st) -> Tensor:
    return st.nabla(st.grad_scalar(st.j_scalar))


def _tf_hess_j(st) -> Tensor:
    return st.trace_free(_hess_j(st))


def _w_check_sq(st) -> Tensor:
    """W_istu W_j^stu (all three trailing slots raised on the second factor)."""
    w_up = st.weyl
    for s in (1, 2, 3):
        w_up = raise_slot(st.ctx, w_up, s)
    return Tensor(st.dim, ("d", "d"),
                  einsum("istu,jstu->ij", st.weyl.data, w_up.data))


QUANTITIES = {
    "weyl": (lambda st: st.weyl, 2),
    "cotton": (lambda st: st.cotton, 0),
    "bach": (lambda st: st.bach, -2),
    "pf2_weyl": (lambda st: Tensor.scalar(st.dim, pfaffian_of(st, 2, "weyl")),
                 -4),
    "grad_pf2_weyl": (lambda st: st.grad_scalar(pfaffian_of(st, 2, "weyl")),
                      -4),
    "xi2": (lambda st: xi_k(st, 2).components, -4),
    "rho_phi": (lambda st: rho_phi(st, InvariantPolynomial.pair_swap()).components,
                -4),
    "star_rho": (lambda st: star_rho_general(
        st, InvariantPolynomial.pair_swap()), -2),
    "wp": (_wp, -2),
    "tf_pp": (_tf_pp, -2),
    "tf_jp": (_tf_jp, -2),
    "tf_hess_j": (_tf_hess_j, -2),
}


def resolve_quantity(quantity):
    if callable(quantity):
        return quantity, None
    if quantity in QUANTITIES:
        return QUANTITIES[quantity]
    raise KeyError(f"unknown natural quantity {quantity!r}; "
                   f"known: {sorted(QUANTITIES)}")


@dataclass
class LinearizationResult:
    field: Tensor          # D_g T(Upsilon) as a jet field
    value: Tensor          # the same at the base point
    method: str


def linearize(ctx: GeometryContext, quantity, ups: ConformalFactor,
              weight=None) -> LinearizationResult:
    """Jet-exact conformal linearization of a named natural tensor."""
    fn, default_w = resolve_quantity(quantity)
    w = default_w if weight is None else weight
    if w is None:
        raise ValueError("a conformal weight is required")
    upsj = ups.field(ctx)
    fld = _linear_part(fn(_dual_context(ctx, upsj).stack), w * upsj)
    return LinearizationResult(fld, fld.at_point(), "jet-exact")


def _dual_context(ctx: GeometryContext, upsj) -> GeometryContext:
    """ctx over dual numbers with the metric g + eps 2 Upsilon g; its
    inverse and determinant come from those ctx holds for g."""
    g = ctx.metric
    dual = clone_context(ctx, Tensor.dual(g, g.scale(2 * upsj)),
                         ring=dual_ring(ctx.ring))
    dual._real_part = ctx
    return dual


def _linear_part(t_dual: Tensor, wu) -> Tensor:
    """d/dt of e^{-t w Upsilon} T at t = 0: im - w Upsilon re, given wu."""
    re, im = t_dual.dual_parts()
    return im - re.scale(wu)


def linearize_fd(ctx: GeometryContext, quantity, ups: ConformalFactor,
                 weight=None, h: float = 1e-4) -> LinearizationResult:
    """Central finite-difference linearization (float contexts)."""
    fn, default_w = resolve_quantity(quantity)
    w = default_w if weight is None else weight
    hq = Fraction(h).limit_denominator(10 ** 12)
    tp = fn(rescale(ctx, ups.scaled(hq)).stack).at_point()
    tm = fn(rescale(ctx, ups.scaled(-hq)).stack).at_point()
    u0 = ups.value_at_base(ctx)
    fp = math.exp(-w * h * u0)
    fm = math.exp(w * h * u0)
    val = tp.scale(fp / (2 * h)) - tm.scale(fm / (2 * h))
    return LinearizationResult(val, val, "finite-difference")


# -- verification operations ------------------------------------------------------


def invariance_residual(ctx: GeometryContext, form: str,
                        ups: ConformalFactor, phi=None) -> float:
    """Residual of e^{-w Upsilon} F(e^{2 Upsilon} g) = F(g) at the base point."""
    phi = phi or InvariantPolynomial.pair_swap()
    builders = {
        "xi_k": (lambda st: xi_k(st, st.dim // 2).components, -ctx.dim),
        "rho_phi": (lambda st: rho_phi(st, phi).components, -ctx.dim),
        "star_rho_general": (lambda st: star_rho_general(st, phi), -2),
        "bach": (lambda st: st.bach, -2),
    }
    if form not in builders:
        raise KeyError(f"unknown invariance form {form!r}")
    fn, w = builders[form]
    f0 = fn(ctx.stack).at_point()
    ctx2 = rescale(ctx, ups)
    f1 = fn(ctx2.stack).at_point()
    u0 = ups.value_at_base(ctx)
    return tensor_residual(f1.scale(math.exp(-w * u0)), f0)


def verify_pfaffian_identity(ctx: GeometryContext, tol: float = 1e-8,
                             exact: bool | None = None) -> VerificationReport:
    """Check 2k xi = div(tf Omega) + grad Pf(Rm)/(2k) and its trace companion
    tr Omega = Pf(Rm) - Pf(W) in even dimension n = 2k."""
    from .invariants import (cotton_weyl_divergence_rhs, mixed_to_down, omega_k,
                             trace_mixed)
    from .jets import scalar_float
    from .tensors import tensors_equal
    if ctx.dim % 2:
        raise DimensionError("the Pfaffian identity check runs in even "
                             f"dimension, context has {ctx.dim}")
    if exact is None:
        exact = ctx.ring.exact
    st = ctx.stack
    k = ctx.dim // 2
    rep = VerificationReport("thm_pfaffian", ctx.meta.get("name", "?"))

    def check(name, a, b):      # two tensors equal at the point
        a, b = a.at_point(), b.at_point()
        rep.add(check_exact(name, tensors_equal(a, b)) if exact
                else check_residual(name, tensor_residual(a, b), tol))

    om = omega_k(st, k, "dim2k")
    om_dd = mixed_to_down(st, om)
    pf_rm = pfaffian_of(st, k, "riemann")
    check("pfaffian split: 2k xi = div(tf Omega) + grad Pf(Rm)/(2k)",
          xi_k(st, k).components.scale(2 * k),
          st.div(st.trace_free(om_dd), 1)
          + st.grad_scalar(pf_rm).scale(Fraction(1, 2 * k)))
    trom = trace_mixed(om)
    gap = trom - (pf_rm - pfaffian_of(st, k, "weyl"))
    name = "trace identity: tr Omega = Pf(Rm) - Pf(W)"
    rep.add(check_exact(name, not ctx.point_value(gap)) if exact
            else check_residual(name, abs(scalar_float(gap))
                                / max(1.0, abs(scalar_float(trom))), tol))
    check("divergence identity: div Omega = Cotton-Weyl contraction",
          st.div(om_dd, 1), cotton_weyl_divergence_rhs(st, k))
    return rep


def verify_ac_identities(ctx: GeometryContext, k: int,
                         ups: ConformalFactor | None = None,
                         tol: float = 1e-7) -> VerificationReport:
    """Dimensional identities for n > 2k: the divergence identity, its
    conformal transformation, E = T + (n-2k) Omega, tr E = (n-2k) Pf(Rm),
    div E = 0, and the combined gradient identity."""
    from .invariants import (T_k_W, lovelock_E, mixed_to_down, omega_k,
                             trace_mixed, xi_formula)
    from .jets import scalar_float
    n = ctx.dim
    if n <= 2 * k:
        raise DimensionError("analytic-continuation identities need n > 2k")
    st = ctx.stack
    rep = VerificationReport("ac_identities", ctx.meta.get("name", "?"))
    T = T_k_W(st, k)
    E = lovelock_E(st, k)
    om = omega_k(st, k, "general_n")
    rep.add(check_residual(
        "E = T + (n-2k) Omega",
        tensor_residual(E.at_point(), (T + om.scale(n - 2 * k)).at_point()),
        tol))
    trE = trace_mixed(E)
    pf_rm = pfaffian_of(st, k, "riemann")
    rep.add(check_residual(
        "tr E = (n-2k) Pf(Rm)",
        abs(scalar_float(trE - (n - 2 * k) * pf_rm))
        / max(1.0, abs(scalar_float(trE))), tol))
    from .tensors import max_abs
    E_dd = mixed_to_down(st, E)
    rep.add(check_residual(
        "div E = 0",
        max_abs(st.div(E_dd, 1).at_point())
        / max(1.0, max_abs(E_dd.at_point())), tol))
    T_dd = mixed_to_down(st, T)
    tfT = st.trace_free(T_dd)
    div_tfT = st.div(tfT, 1)
    xi_f = xi_formula(st, k)
    rep.add(check_residual(
        "divergence identity: div(tf T) = -2k(n-2k) xi",
        tensor_residual(div_tfT.at_point(),
                        xi_f.scale(-2 * k * (n - 2 * k)).at_point()), tol))
    om_dd = mixed_to_down(st, om)
    tfom = st.trace_free(om_dd)
    grad_pf = st.grad_scalar(pf_rm)
    rep.add(check_residual(
        "gradient identity: -(n-2k)/n grad Pf(Rm) = div tf T + (n-2k) div tf Omega",
        tensor_residual(grad_pf.scale(Fraction(-(n - 2 * k), n)).at_point(),
                        (div_tfT + st.div(tfom, 1).scale(n - 2 * k)).at_point()),
        tol))
    if ups is not None:
        hat = rescale(ctx, ups)
        sth = hat.stack
        Th = T_k_W(sth, k)
        tfTh = sth.trace_free(mixed_to_down(sth, Th))
        div_h = sth.div(tfTh, 1).at_point()
        u0 = ups.value_at_base(ctx)
        du = st.grad_scalar(ups.field(ctx))
        du_up = raise_slot(ctx, du, 0)
        corr = Tensor(n, ("d",), einsum("i,ij->j", du_up.data, tfT.data))
        rhs16 = (div_tfT + corr.scale(n - 2 * k)).at_point()
        rep.add(check_residual(
            "conformal transformation of div(tf T)",
            tensor_residual(div_h.scale(math.exp(2 * k * u0)), rhs16), tol))
    return rep


def naturality_rows(ctx: GeometryContext, ups: ConformalFactor):
    """Point values of the four candidate linearizations, sharing one dual
    stack: D of W.P, tf P^2, tf JP, tf hess J (all weight -2)."""
    upsj = ups.field(ctx)
    dst = _dual_context(ctx, upsj).stack
    wu = -2 * upsj
    return [_linear_part(fn(dst), wu).at_point()
            for fn in (_wp, _tf_pp, _tf_jp, _tf_hess_j)]


def naturality_rank_test(make_sample, samples: int = 40, *,
                         sv_tol: float = 1e-6, resamples: int = 3,
                         rng=None) -> VerificationReport:
    """Numerical rank of the linear system D_g I_{a,b,c,e}(Upsilon) = 0.

    make_sample(i) returns (ctx, ups); one random component of each sampled
    linearization quadruple becomes a matrix row.  PASS iff the rank is 4
    (only the trivial combination is conformally invariant).  A deficient
    rank is resampled up to `resamples` times and reported either way.
    """
    rng = rng or np.random.default_rng(0)
    rep = VerificationReport("naturality", "random4")
    attempt, rank, sv = 0, 0, None
    base = 0
    while attempt <= resamples:
        rows = []
        for i in range(samples):
            ctx, ups = make_sample(base + i)
            quads = naturality_rows(ctx, ups)
            ii, jj = rng.integers(0, ctx.dim), rng.integers(0, ctx.dim)
            rows.append([float(q.a[ii, jj]) for q in quads])
        m = np.array(rows)
        sv = np.linalg.svd(m, compute_uv=False)
        rank = int(np.sum(sv > sv_tol * sv[0]))
        if rank == 4:
            break
        attempt += 1
        base += samples
    rep.add(Check("naturality rank = 4 (a=b=c=e=0 forced)", rank == 4,
                  exact=True,
                  note=f"rank={rank}, sv_min/sv_max={sv[-1] / sv[0]:.2e} "
                       f"(threshold {sv_tol:.0e}), "
                       f"{attempt + 1} sample set(s)"))
    rep.extras["rank"] = rank
    rep.extras["singular_value_ratio"] = float(sv[-1] / sv[0])
    return rep
