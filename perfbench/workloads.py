"""The benchmark's workloads: seeded verification trials.

A workload turns (seed, trial index) into plain model data -- polynomial
coefficient tables or Berger parameters -- and a trial builds the model
through curvlab's public functions, computes the curvature stack and the
invariants, and checks them at the tolerances pinned in ``curvlab.suites``.
curvlab receives only the generated models, never the seed.

Stack fields are forced one by one in dependency order, each inside its own
span, so each geometry span measures that field's own work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, NamedTuple

import numpy as np

DIM = 4
# tolerances pinned in curvlab.suites (thm_invariance, lemmas, naturality)
TOL_INVARIANCE = 1e-8
TOL_LINEARIZATION = 1e-7
TOL_DIV_BACH = 1e-6
TOL_BACH_SYM_TF = 1e-10
# Berger products per frame_exact trial; t = (p/q)^2 with p, q in [1, T_MAX]
FRAMES_PER_TRIAL = 3
T_MAX = 6


class Check(NamedTuple):
    name: str
    passed: bool
    residual: float | None = None     # None for exact checks
    tol: float | None = None


def residual_check(name, res, tol) -> Check:
    res = float(res)
    return Check(name, res <= tol, res, tol)


def exact_check(name, ok) -> Check:
    return Check(name, bool(ok))


# -- seeded model data ---------------------------------------------------------


def _rng(seed: int, index: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, tag])


def _grid_poly(rng, scale: Fraction, degree: int = 3) -> dict:
    """Coefficients {exponent: Fraction} of degree <= 3 on a 1e-6 grid in
    [-scale, scale], the shape curvlab's random ensemble uses."""
    coeffs = {}
    for deg in range(degree + 1):
        for comb in combinations_with_replacement(range(DIM), deg):
            e = [0] * DIM
            for v in comb:
                e[v] += 1
            num = int(rng.integers(-10 ** 6, 10 ** 6 + 1))
            coeffs[tuple(e)] = Fraction(num, 10 ** 6) * scale
    return coeffs


@dataclass(frozen=True)
class ChartInput:
    metric: tuple       # DIM x DIM coefficient tables, symmetric
    ups: dict           # conformal exponent coefficients


def chart_input(seed: int, index: int, tag: int) -> ChartInput:
    """g = identity + Q(x) with Q symmetric, |coefficients| <= 1/20,
    positive definite at the origin; Upsilon with |coefficients| <= 1/2."""
    rng = _rng(seed, index, tag)
    for _ in range(40):
        rows = [[None] * DIM for _ in range(DIM)]
        for i in range(DIM):
            for j in range(i, DIM):
                q = _grid_poly(rng, Fraction(1, 20))
                if i == j:
                    q[(0,) * DIM] += 1
                rows[i][j] = rows[j][i] = q
        g0 = np.array([[float(rows[i][j][(0,) * DIM]) for j in range(DIM)]
                       for i in range(DIM)])
        if np.all(np.linalg.eigvalsh(g0) > 0.1):
            metric = tuple(tuple(r) for r in rows)
            return ChartInput(metric, _grid_poly(rng, Fraction(1, 2)))
    raise ValueError("no positive-definite metric in 40 draws")


def frame_input(seed: int, index: int, tag: int) -> tuple:
    """FRAMES_PER_TRIAL rational-square Berger parameters t = (p/q)^2."""
    rng = _rng(seed, index, tag)
    pq = rng.integers(1, T_MAX + 1, size=(FRAMES_PER_TRIAL, 2))
    return tuple(Fraction(int(p), int(q)) ** 2 for p, q in pq)


# -- trial bodies --------------------------------------------------------------


def _chart(cl, data: ChartInput, order: int, tr):
    with tr.span("models.build"):
        entries = [[cl.polys.Poly(DIM, q) for q in row] for row in data.metric]
        ctx = cl.geometry.ChartContext.from_polys(
            entries, base_point=(Fraction(0),) * DIM, jet_order=order)
        ups = cl.conformal.ConformalFactor.from_poly(cl.polys.Poly(DIM, data.ups))
    return ctx, ups


def force_stack(ctx, tr, *, bach: bool = False):
    """Evaluate the stack fields in dependency order, one span each."""
    st = ctx.stack
    with tr.span("geometry.metric_inv"):
        ctx.metric_inv
    with tr.span("geometry.gamma"):
        st.gamma
    with tr.span("geometry.riemann"):
        st.rm_mixed, st.rm
    with tr.span("geometry.ricci_schouten"):
        st.ric, st.scalar_curv, st.schouten, st.schouten_mixed
    with tr.span("geometry.weyl"):
        st.weyl
    with tr.span("geometry.cotton"):
        st.cotton
    with tr.span("tensors.raise"):
        st.weyl_dduu, st.rm_dduu, st.cotton_ddu
    if not bach:
        return st, None, None
    with tr.span("geometry.bach"):
        b = st.bach
    with tr.span("geometry.div"):
        div_b = st.div(b, 1)
    return st, b, div_b


def trial_chart4_o3(cl, data: ChartInput, tr) -> list:
    """Invariance of xi and rho^Phi under g -> e^{2 Ups} g, and the jet-exact
    linearization of the Cotton tensor (thm_invariance and lemmas bodies)."""
    inv, residual = cl.invariants, cl.tensors.residual
    ctx, ups = _chart(cl, data, 3, tr)
    st = force_stack(ctx, tr)[0]
    hat = cl.conformal.rescale(ctx, ups)
    sth = force_stack(hat, tr)[0]
    phi = inv.InvariantPolynomial.pair_swap()
    xi, xi_h = inv.xi_k(st, 2), inv.xi_k(sth, 2)
    rho, rho_h = inv.rho_phi(st, phi), inv.rho_phi(sth, phi)
    lin = cl.conformal.linearize(ctx, "cotton", ups)
    with tr.span("report.check"):
        e4u = math.exp(DIM * ups.value_at_base(ctx))
        res_xi = residual(xi_h.components.at_point().scale(e4u),
                          xi.components.at_point())
        res_rho = residual(rho_h.components.at_point().scale(e4u),
                           rho.components.at_point())
        w3 = cl.tensors.raise_slot(ctx, st.weyl, 2)
        du = st.grad_scalar(ups.field(ctx))
        rhs = cl.tensors.Tensor(DIM, ("d",) * 3, np.asarray(
            np.einsum("ijsk,s->ijk", w3.a, du.a, optimize=True), dtype=object))
        res_lin = residual(lin.value, rhs.at_point())
    return [
        residual_check("e^(4 Ups) xi-hat = xi", res_xi, TOL_INVARIANCE),
        residual_check("e^(4 Ups) rho-hat = rho", res_rho, TOL_INVARIANCE),
        residual_check("D_g C = W_ij^s_k Ups_s", res_lin, TOL_LINEARIZATION),
    ]


def trial_chart4_o5(cl, data: ChartInput, tr) -> list:
    """Stack through Bach at jet order 5, div B, Pf2(W) and Pf2(Rm)
    (naturality suite body)."""
    inv, residual, max_abs = cl.invariants, cl.tensors.residual, cl.tensors.max_abs
    ctx = _chart(cl, data, 5, tr)[0]
    st, b, div_b = force_stack(ctx, tr, bach=True)
    inv.pfaffian_of(st, 2, "weyl")
    inv.pfaffian_of(st, 2, "riemann")
    with tr.span("report.check"):
        b0 = b.at_point()
        scale = max(1.0, max_abs(b0))
        sym_tf = max(residual(b0, b.permuted((1, 0)).at_point()),
                     abs(cl.jets.scalar_float(st.trace(b))) / scale)
        res_div = max_abs(div_b.at_point()) / scale
    return [
        residual_check("Bach symmetric and trace-free", sym_tf,
                       TOL_BACH_SYM_TF),
        residual_check("grad^j B_ij = 0", res_div, TOL_DIV_BACH),
    ]


def trial_frame_exact(cl, ts: tuple, tr) -> list:
    """Exact Berger-product identities (berger suite body) for each t."""
    inv = cl.invariants
    checks = []
    for t in ts:
        with tr.span("models.build"):
            ctx = cl.models.berger_product(t, exact=True)
        st = force_stack(ctx, tr)[0]
        phi = inv.InvariantPolynomial.pair_swap()
        star_rho = inv.phi_w_c_form(st, phi)
        rho = inv.rho_phi(st, phi)
        xi = inv.xi_k(st, 2)
        pf_rm = inv.pfaffian_of(st, 2, "riemann")
        with tr.span("report.check"):
            T = cl.models.killing_field_T(ctx)
            coeff = Fraction(-8) * t * (t - 1) ** 2 / 3
            dens = Fraction(8) * t * (t - 1) ** 2 / (
                3 * cl.scalars.rational_sqrt(t))
            checks += [
                exact_check(f"t={t}: star rho^Phi = {coeff} a^b^c",
                            star_rho.comps.get((0, 1, 2), Fraction(0)) == coeff
                            and all(k == (0, 1, 2) for k in star_rho.comps)),
                exact_check(f"t={t}: rho density on T = {dens}",
                            inv.functional_density(ctx, rho, T) == dens),
                exact_check(f"t={t}: xi density on T = 0",
                            not inv.functional_density(ctx, xi, T)),
                exact_check(f"t={t}: Pf2(Rm) = 0 (flat circle factor)",
                            not pf_rm),
            ]
    return checks


@dataclass(frozen=True)
class Workload:
    make_input: Callable     # (seed, index) -> model data
    run_trial: Callable      # (curvlab, data, tracer) -> list[Check]
    tail_pct: int            # tail percentile reported as trial_s.tail


WORKLOADS = {
    "chart4_o3": Workload(lambda s, i: chart_input(s, i, 3),
                          trial_chart4_o3, 87),
    "chart4_o5": Workload(lambda s, i: chart_input(s, i, 5),
                          trial_chart4_o5, 94),
    "frame_exact": Workload(lambda s, i: frame_input(s, i, 0),
                            trial_frame_exact, 90),
}
