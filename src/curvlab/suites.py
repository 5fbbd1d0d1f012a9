"""Named verification suites.

Each suite builds its models, runs its checks at the pinned tolerances, and
returns a VerificationReport.  Suites are deterministic given (seed, flags).
"""

from __future__ import annotations

import inspect
import math
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .conformal import (ConformalFactor, _hess_j, _w_check_sq, _wp,
                        clone_context, invariance_residual, linearize,
                        linearize_fd, naturality_rank_test, rescale,
                        verify_ac_identities, verify_pfaffian_identity)
from .config import check_jet_order, load_model_file
from .errors import ConfigError, ExactnessError
from .geometry import FrameContext, jet_ring
from .invariants import (InvariantPolynomial, conformal_killing_K,
                         functional_density)
from . import invariants as inv
from .jets import scalar_float
from .models import (berger_product, flat_chart, fs_cp2_chart,
                     killing_field_T, product_8d, random_chart,
                     random_conformal_factor, round_sphere_chart)
from .rationals import entries_array
from .report import Check, VerificationReport, check_exact, check_residual
from .scalars import RATIONAL, rational_sqrt
from .tensors import (AltForm, Tensor, antisymmetrize, contract, contract_with,
                      einsum, epsilon_form, generalized_delta, gkd_contract,
                      hodge_star, is_zero_tensor, max_abs, raise_slot,
                      residual, tensors_equal)


class Model(NamedTuple):
    """A ``--model`` chart: its dimension, the family whose members stand
    in for it in other dimensions, whether each trial draws a new chart,
    and its builder ``(dim, seed, jet_order) -> ChartContext``."""
    dim: int
    family: str | None
    per_trial: bool
    build: Callable


def _flat(dim, seed, jet_order):
    return flat_chart(dim, jet_order, exact=False)


MODELS = {
    "flat": Model(4, "flat", False, _flat),
    "flat2": Model(2, "flat", False, _flat),
    "flat4": Model(4, "flat", False, _flat),
    "flat6": Model(6, "flat", False, _flat),
    "round_s4": Model(4, None, False, lambda dim, seed, jet_order:
                      round_sphere_chart(dim, jet_order, exact=False)),
    "fs_cp2": Model(4, None, False, lambda dim, seed, jet_order:
                    fs_cp2_chart(jet_order)),
    "random4": Model(4, "random", True, random_chart),
    "random6": Model(6, "random", True, random_chart),
}


def _model(model: str, dim: int) -> Model:
    """The entry named ``model``, or its family's member of dimension
    ``dim``; a ConfigError listing the names of that dimension otherwise."""
    entry = MODELS.get(model)
    if entry is not None and entry.dim != dim and entry.family:
        entry = next((m for m in MODELS.values()
                      if m.family == entry.family and m.dim == dim), entry)
    if entry is not None and entry.dim == dim:
        return entry
    what = f"unknown model {model!r}" if entry is None else \
        f"model {model!r} has dimension {entry.dim}, but this suite runs " \
        f"in dimension {dim}"
    fit = ", ".join(sorted(n for n, m in MODELS.items() if m.dim == dim))
    raise ConfigError(f"{what}; the models of dimension {dim} are {fit}, "
                      "or a .json path")


def _ctx_for_model(model: str, *, seed: int, jet_order: int, dim: int):
    """(build, per_trial) for a model name or config path: ``build(i)`` is
    trial i's float chart, a new one per trial only when ``per_trial``.  A
    config must hold a chart, and an exact one is demoted to floats once."""
    if not model.endswith(".json"):
        entry = _model(model, dim)
        if entry.per_trial:
            return (lambda i: entry.build(dim, seed * 1009 + i, jet_order),
                    True)
        ctx = entry.build(dim, seed, jet_order)
        return (lambda i: ctx), False
    ctx = load_model_file(model)
    if ctx.dim != dim:
        raise ConfigError(f"model config has dimension {ctx.dim}, "
                          f"but this suite runs in dimension {dim}")
    if ctx.is_homogeneous:
        raise ConfigError(
            f"model {model!r} is homogeneous; this suite differentiates "
            "polynomial conformal factors and needs a chart model")
    if ctx.ring.exact:
        metric = ctx.metric.map(lambda j: j.to_float()).pack()
        ctx = clone_context(ctx, metric,
                            ring=jet_ring(ctx.jet_algebra, False))
    return (lambda i: ctx), False


# -- core identities -------------------------------------------------------------


def _exact(n: int, valence: str, entries: dict) -> Tensor:
    """The packed exact tensor holding ``entries`` and zeros elsewhere."""
    return Tensor(n, valence, entries_array((n,) * len(valence), entries,
                                            Fraction(0)))


def _diag_ctx(n, diag):
    """Flat frame with a constant diagonal metric, for algebraic identity
    checks."""
    return FrameContext(n, {}, [[Fraction(diag[i] if i == j else 0)
                                 for j in range(n)] for i in range(n)],
                        name=f"diag{n}")


def _delta_trace_kernel(p: int, n: int):
    """Full delta self-trace through the double-form kernel."""
    idm = _exact(n, "du", {(i, i): Fraction(1) for i in range(n)})
    return gkd_contract([idm] * p, RATIONAL).item()


def suite_core_identities(seed: int = 0,
                          jet_order: int = 3) -> VerificationReport:
    rep = VerificationReport("core_identities", "builtin", seed)
    rng = np.random.default_rng(seed)
    # generalized delta self-traces, n!/(n-p)!
    ok_small, ok_kernel, ok_zero = True, True, True
    for n in range(2, 6):
        for p in range(1, n + 1):
            expect = Fraction(math.factorial(n), math.factorial(n - p))
            ok_kernel &= _delta_trace_kernel(p, n) == expect
            if n <= 4:
                d = generalized_delta(p, n, RATIONAL)
                full = contract(d, [(p + q, q) for q in range(p)])
                ok_small &= full.item() == expect
        if n <= 3:
            # materialization above n = 3 is a memory bomb at p = n + 1
            ok_zero &= max_abs(generalized_delta(n + 1, n, RATIONAL)) == 0
        ok_zero &= _delta_trace_kernel(n + 1, n) == 0
    rep.add(check_exact("delta full trace = n!/(n-p)! (materialized, n<=4)",
                        ok_small))
    rep.add(check_exact("delta full trace = n!/(n-p)! (kernel, dims 2..5)",
                        ok_kernel))
    rep.add(check_exact("delta^(n+1) = 0 in dim n", ok_zero))
    # epsilon contraction identity
    ok_eps = True
    for n in range(2, 6):
        diags = [[1] * n] + ([[Fraction(4), Fraction(9)] + [1] * (n - 2)]
                             if n <= 4 else [])
        for diag in diags:
            c = _diag_ctx(n, diag)
            eps = epsilon_form(c)
            epsup = eps
            for sl in range(n):
                epsup = raise_slot(c, epsup, sl)
            for k in range(1, n + 1):
                res = contract_with(eps, epsup, [(q, q) for q in range(k)])
                if k < n:
                    ok_eps &= tensors_equal(
                        res, generalized_delta(n - k, n, RATIONAL)
                        .scale(Fraction(math.factorial(k))))
                else:
                    ok_eps &= res.item() == math.factorial(n)
    rep.add(check_exact("eps.eps = k! delta, dims 2..5, all k", ok_eps))
    # double Hodge star
    ok_star = True
    for n in range(2, 6):
        for diag in ([1] * n, [Fraction(1, 4)] * n):
            c = _diag_ctx(n, diag)
            for k in range(0, n + 1):
                raw = _exact(n, "d" * k, {
                    idx: Fraction(int(x)) for idx, x in
                    np.ndenumerate(rng.integers(-5, 6, size=(n,) * k))})
                form = antisymmetrize(raw, list(range(k))) if k >= 2 else raw
                ss = hodge_star(c, hodge_star(c, form))
                ok_star &= tensors_equal(
                    ss, form.scale(Fraction((-1) ** (k * (n - k)))))
    rep.add(check_exact("star star = (-1)^{k(n-k)}, dims 2..5, all k", ok_star))
    # fixtures: flat and round S^4, exact
    phi = InvariantPolynomial.pair_swap()
    fctx = flat_chart(4, jet_order=jet_order, exact=True)
    fst = fctx.stack
    rep.add(check_exact("flat4: curvature stack vanishes",
                        is_zero_tensor(fst.rm) and is_zero_tensor(fst.weyl)
                        and is_zero_tensor(fst.cotton)))
    rep.add(check_exact("flat4: xi = rho = 0",
                        is_zero_tensor(inv.xi_k(fst, 2).components)
                        and is_zero_tensor(inv.rho_phi(fst, phi).components)))
    for label, pt in (("A", None),
                      ("B", (Fraction(-2, 7), Fraction(1, 2), Fraction(0),
                             Fraction(3, 5)))):
        sctx = round_sphere_chart(4, jet_order=jet_order, exact=True,
                                  base_point=pt)
        sst = sctx.stack
        g = sctx.metric
        expect_rm = Tensor(4, ("d",) * 4, einsum("ik,jl->ijkl", g.a, g.a)
                           - einsum("il,jk->ijkl", g.a, g.a))
        rep.add(check_exact(f"round S4[{label}]: Rm = g (kn) g, W = 0, P = g/2",
                            tensors_equal(sst.rm, expect_rm)
                            and is_zero_tensor(sst.weyl)
                            and tensors_equal(sst.schouten,
                                              g.scale(Fraction(1, 2)))))
        rep.add(check_exact(f"round S4[{label}]: xi = rho = 0 identically",
                            is_zero_tensor(inv.xi_k(sst, 2).components)
                            and is_zero_tensor(
                                inv.rho_phi(sst, phi).components)))
        rep.add(check_exact(f"round S4[{label}]: Pf2(Rm) = 48",
                            sctx.point_value(
                                inv.pfaffian_of(sst, 2, "riemann")) == 48))
    # structural curvature identities on one frame and one chart stack
    frame_res = max(r for _, r in berger_product(Fraction(4))
                    .stack.check_invariants())
    rep.add(check_exact("stack invariants exact on the Berger product",
                        frame_res == 0.0))
    chart_res = max(r for _, r in random_chart(4, seed=seed, jet_order=3)
                    .stack.check_invariants())
    rep.add(check_residual("stack invariants on a random chart", chart_res,
                           1e-10))
    return rep


# -- Berger suite ---------------------------------------------------------------


def _basis_one_form(n, k):
    return _exact(n, "d", {(k,): Fraction(1)})


def _basis_two_form(n, i, j):
    return _exact(n, "dd", {(i, j): Fraction(1), (j, i): Fraction(-1)})


def _berger_displays(t: Fraction):
    """The four connection/curvature displays in the invariant coframe."""
    n = 4
    na = _exact(n, "dd", {(1, 2): Fraction(-1), (2, 1): Fraction(1)})
    nb = _exact(n, "dd", {(0, 2): -(t - 2), (2, 0): -t})
    ng = _exact(n, "dd", {(0, 1): t - 2, (1, 0): t})
    ric = _exact(n, "dd", {(0, 0): 2 * t * t, (1, 1): 2 * (2 - t),
                           (2, 2): 2 * (2 - t)})
    w = Fraction(2) * (t - 1) / 3
    wey = None
    for coef, (i, j) in ((t, (0, 1)), (t, (0, 2)), (Fraction(-2), (1, 2)),
                         (-2 * t, (0, 3)), (Fraction(1), (1, 3)),
                         (Fraction(1), (2, 3))):
        term = _basis_two_form(n, i, j).tp(_basis_two_form(n, i, j)).scale(w * coef)
        wey = term if wey is None else wey + term
    cot = None
    c1 = 2 * t * (t - 1)
    for coef, (i, j), k in ((c1, (0, 1), 2), (-c1, (0, 2), 1),
                            (-2 * c1, (1, 2), 0)):
        term = _basis_two_form(n, i, j).tp(_basis_one_form(n, k)).scale(coef)
        cot = term if cot is None else cot + term
    return na, nb, ng, ric, wey, cot


def suite_berger(t=Fraction(4), seed: int = 0,
                 exact: bool = True) -> VerificationReport:
    # this suite asserts exact equalities, so it runs in rationals only
    if not exact:
        raise ConfigError("the berger suite runs in exact rational "
                          "arithmetic only and does not take --float")
    t = Fraction(t)
    rep = VerificationReport("berger", f"berger_product_t={t}", seed)
    if t <= 0:
        raise ConfigError("Berger parameter t must be positive")
    if rational_sqrt(t) is None:
        raise ExactnessError(
            f"the berger suite runs in exact rational arithmetic and needs "
            f"sqrt(t) rational: sqrt({t}) is irrational and enters the "
            "volume form (epsilon normalization)")
    # frame-normalization detection: [X,Y] = 2Z first, then [X,Y] = Z
    chosen = None
    for scale_name, bracket in (("[X,Y]=2Z", Fraction(2)),
                                ("[X,Y]=Z", Fraction(1))):
        ctx = berger_product(t, exact=True, bracket_scale=bracket)
        st = ctx.stack
        alpha = _basis_one_form(4, 0)
        na, nb, ng, ric, wey, cot = _berger_displays(t)
        if tensors_equal(st.nabla(alpha), na):
            chosen = scale_name
            break
    rep.extras["frame_normalization"] = chosen or "none matched"
    rep.add(check_exact("frame normalization reproduces nabla(alpha) display",
                        chosen is not None,
                        note=f"convention {chosen}"))
    beta, gam = _basis_one_form(4, 1), _basis_one_form(4, 2)
    rep.add(check_exact("nabla(beta), nabla(gamma) displays",
                        tensors_equal(st.nabla(beta), nb)
                        and tensors_equal(st.nabla(gam), ng)))
    rep.add(check_exact("Ric = diag(2t^2, 2(2-t), 2(2-t), 0)",
                        tensors_equal(st.ric, ric)))
    rep.add(check_exact("Weyl display with factor 2(t-1)/3",
                        tensors_equal(st.weyl, wey)))
    rep.add(check_exact("Cotton display with factor 2t(t-1)",
                        tensors_equal(st.cotton, cot)))
    diag_expect = [2 * t, 2 * (2 - t), 2 * (2 - t)]
    rep.add(check_exact("raised Ricci diag(2t, 2(2-t), 2(2-t), 0)",
                        tensors_equal(raise_slot(ctx, st.ric, 0), _exact(
                            4, "ud", {(i, i): x for i, x in
                                      enumerate(diag_expect)}))))
    phi = InvariantPolynomial.pair_swap()
    rep.add(check_exact("p_Phi(W) = 0 and p_Phi(Rm) = 0",
                        not inv.p_phi_scalar(st, phi, "weyl")
                        and not inv.p_phi_scalar(st, phi, "riemann")))
    G = inv.phi_w_c_form(st, phi)
    coeff_expect = Fraction(-8) * t * (t - 1) ** 2 / 3
    comp = G.comps.get((0, 1, 2), Fraction(0))
    rep.add(check_exact("star rho^Phi = -(8t(t-1)^2/3) alpha^beta^gamma",
                        comp == coeff_expect
                        and all(k == (0, 1, 2) for k in G.comps)))
    T = killing_field_T(ctx)
    rho = inv.rho_phi(st, phi)
    dens = functional_density(ctx, rho, T)
    dens_expect = Fraction(8) * t * (t - 1) ** 2 / (3 * rational_sqrt(t))
    rep.add(check_exact(f"rho density on T = 8t(t-1)^2/(3 sqrt t) = {dens_expect}",
                        dens == dens_expect))
    xi = inv.xi_k(st, 2)
    rep.add(check_exact("xi density on T = 0 (Killing pairing, pointwise)",
                        not functional_density(ctx, xi, T)))
    theta = _basis_one_form(4, 3)
    rep.add(check_exact("K(theta) = 0 for the Killing coframe leg",
                        is_zero_tensor(conformal_killing_K(st, theta))))
    # orientation reversal flips the density sign
    flipped = clone_context(ctx, ctx.metric)
    flipped.orientation = -ctx.orientation
    rho_f = inv.rho_phi(flipped.stack, phi)
    rep.add(check_exact("orientation reversal flips the rho density sign",
                        functional_density(flipped, rho_f, T) == -dens))
    # Pfaffian identity, exact on the frame
    rep.extend(verify_pfaffian_identity(ctx, exact=True))
    # cross-check of the two rho routes
    sr = inv.star_rho_general(st, phi)
    ssr = hodge_star(ctx, sr)
    rep.add(check_exact("rho = -(star star rho) (general-dimension route agrees)",
                        tensors_equal(rho.components, ssr.scale(-1))))
    # parameter sweep over square t, so sqrt(t) stays rational
    for tv in (Fraction(1), Fraction(4), Fraction(9), Fraction(1, 4)):
        c2 = berger_product(tv, exact=True)
        s2 = c2.stack
        phi_ = InvariantPolynomial.pair_swap()
        G2 = inv.phi_w_c_form(s2, phi_)
        comp2 = G2.comps.get((0, 1, 2), Fraction(0))
        dens2 = functional_density(
            c2, inv.rho_phi(s2, phi_), killing_field_T(c2))
        expect_c = Fraction(-8) * tv * (tv - 1) ** 2 / 3
        expect_d = Fraction(8) * tv * (tv - 1) ** 2 / (3 * rational_sqrt(tv))
        rep.add(check_exact(
            f"sweep t={tv}: star rho coeff {expect_c}, density {expect_d}",
            comp2 == expect_c and dens2 == expect_d))
        if tv == 1:
            rep.add(check_exact("sweep t=1: W = 0 and C = 0 (round case)",
                                is_zero_tensor(s2.weyl)
                                and is_zero_tensor(s2.cotton)))
    return rep


# -- invariance suites -------------------------------------------------------------


def suite_thm_invariance(model: str = "random4", trials: int = 20,
                         seed: int = 7, tol: float = 1e-8,
                         jet_order: int = 3) -> VerificationReport:
    rep = VerificationReport("thm_invariance", model, seed)
    build, _ = _ctx_for_model(model, seed=seed, jet_order=jet_order, dim=4)
    phi = InvariantPolynomial.pair_swap()
    worst_xi = worst_rho = 0.0
    for i in range(trials):
        ctx = build(i)
        ups = ConformalFactor.from_poly(
            random_conformal_factor(ctx.nvars or ctx.dim, seed * 1009 + i))
        st = ctx.stack
        hat = rescale(ctx, ups)
        sth = hat.stack
        u0 = ups.value_at_base(ctx)
        n = ctx.dim
        f_xi = inv.xi_k(st, n // 2).components.at_point()
        f_xi_h = inv.xi_k(sth, n // 2).components.at_point()
        worst_xi = max(worst_xi, residual(f_xi_h.scale(math.exp(n * u0)), f_xi))
        f_rho = inv.rho_phi(st, phi).components.at_point()
        f_rho_h = inv.rho_phi(sth, phi).components.at_point()
        worst_rho = max(worst_rho,
                        residual(f_rho_h.scale(math.exp(n * u0)), f_rho))
    rep.add(check_residual(
        f"conformal invariance: e^(2k Ups) xi-hat = xi over {trials} trials", worst_xi, tol))
    rep.add(check_residual(
        f"conformal invariance: e^(2k Ups) rho-hat = rho over {trials} trials", worst_rho,
        tol))
    return rep


def suite_thm_pfaffian(model: str = "random4", trials: int = 20,
                       seed: int = 11, tol: float = 1e-8,
                       jet_order: int = 3) -> VerificationReport:
    rep = VerificationReport("thm_pfaffian", model, seed)
    build, per_trial = _ctx_for_model(model, seed=seed, jet_order=jet_order,
                                      dim=4)
    if not per_trial:
        trials = 1          # fixed model, no per-trial randomness
    sub_worst = {}
    for i in range(trials):
        ctx = build(i)
        r = verify_pfaffian_identity(ctx, tol=tol, exact=False)
        for c in r.checks:
            sub_worst[c.name] = max(sub_worst.get(c.name, 0.0), c.residual)
    for name, res in sorted(sub_worst.items()):
        rep.add(check_residual(f"{name} [{trials} charts]", res, tol))
    exact_rep = verify_pfaffian_identity(berger_product(Fraction(4)),
                                         exact=True)
    for c in exact_rep.checks:
        rep.add(Check(c.name + " [Berger product, exact]", c.passed,
                      exact=True))
    return rep


def suite_ac_identities(model: str = "random6", trials: int = 10,
                        seed: int = 13, tol: float = 1e-7,
                        jet_order: int = 3) -> VerificationReport:
    rep = VerificationReport("ac_identities", model, seed)
    k = 2
    build, _ = _ctx_for_model(model, seed=seed, jet_order=jet_order,
                              dim=2 * k + 2)
    sub_worst = {}
    for i in range(trials):
        ctx = build(i)
        ups = ConformalFactor.from_poly(
            random_conformal_factor(ctx.nvars or ctx.dim, seed * 211 + i))
        r = verify_ac_identities(ctx, k, ups=ups, tol=tol)
        for c in r.checks:
            sub_worst[c.name] = max(sub_worst.get(c.name, 0.0), c.residual)
    for name, res in sorted(sub_worst.items()):
        rep.add(check_residual(f"{name} [{trials} charts, n=6, k={k}]",
                               res, tol))
    # boundary: T^(k)(W) = 0 when n = 2k
    ctx4 = random_chart(4, seed=seed, jet_order=jet_order)
    T4 = inv.T_k_W(ctx4.stack, 2)
    rep.add(check_residual("T^(2)(W) = 0 in dimension 4",
                           max_abs(T4.at_point())
                           / max(1.0, max_abs(ctx4.stack.weyl.at_point())),
                           tol))
    return rep


# -- lemmas suite ------------------------------------------------------------------


def _lemma_checks(ctx, ups: ConformalFactor, tol: float,
                  fd_tol: float = 1e-5) -> dict:
    st = ctx.stack
    n = ctx.dim
    out = {}
    # Schouten curl and the Weyl-Cotton differential identities
    nP = st.nabla(st.schouten)
    lhs = nP - nP.permuted((1, 0, 2))
    out["schouten curl: 2 grad_[i P_j]k = C_ijk"] = residual(
        lhs.at_point(), st.cotton.at_point())
    wup = raise_slot(ctx, raise_slot(ctx, st.weyl, 2), 3)
    lhs2 = antisymmetrize(st.nabla(wup), [0, 1, 2])
    idm = Tensor(n, "du", entries_array(
        (n, n), {(i, i): ctx.ring.one() for i in range(n)}, ctx.ring.zero()))
    big = st.cotton_ddu.tp(idm).permuted((0, 1, 3, 2, 4))
    rhs2 = antisymmetrize(antisymmetrize(big, [0, 1, 2]), [3, 4]).scale(-2)
    out["weyl curl: grad_[i W_jk]^lm = -2 C_[ij^[l delta_k]^m]"] = residual(
        lhs2.at_point(), rhs2.at_point())
    out["divergence: grad^p W_ijpq = (n-3) C_ijq"] = residual(
        st.div(st.weyl, 2).at_point(), st.cotton.scale(n - 3).at_point())
    # linearizations of the conformally stable curvatures
    lw = linearize(ctx, "weyl", ups)
    out["linearization: D_g W = 0"] = max_abs(lw.value) / max(
        1.0, max_abs(st.weyl.at_point()))
    lc = linearize(ctx, "cotton", ups)
    w3 = raise_slot(ctx, st.weyl, 2)
    du = st.grad_scalar(ups.field(ctx))
    rhs_c = Tensor(n, ("d",) * 3, einsum("ijsk,s->ijk", w3.a, du.a))
    out["linearization: D_g C = W_ij^s_k Ups_s"] = residual(lc.value,
                                                       rhs_c.at_point())
    # gradient commutation for a homogeneous scalar, f = Pf2(W), degree -4
    lg = linearize(ctx, "grad_pf2_weyl", ups)
    lf = linearize(ctx, "pf2_weyl", ups)
    pf = inv.pfaffian_of(st, 2, "weyl")
    rhs3 = du.scale(pf).scale(-4) + st.grad_scalar(lf.field.item())
    out["gradient rule: D grad f = w f dUps + grad D f  (f = Pf2(W))"] = residual(
        lg.value, rhs3.at_point())
    # finite conformal change of the connection on one-forms
    alg = ctx.jet_algebra
    acomp = np.empty((n,), dtype=object)
    for v in range(n):
        acomp[v] = random_conformal_factor(ctx.nvars, 777 + v).jet(
            alg, ctx.var_base_point, False)
    alpha = Tensor(n, ("d",), acomp)
    hat = rescale(ctx, ups)
    na_hat = hat.stack.nabla(alpha).at_point()
    na = st.nabla(alpha)
    du_up = raise_slot(ctx, du, 0)
    usa = einsum("s,s->", du_up.a, alpha.a)[()]
    rhs4 = (na
            - Tensor(n, ("d", "d"), einsum("i,j->ij", du.a, alpha.a))
            - Tensor(n, ("d", "d"), einsum("i,j->ij", alpha.a, du.a))
            + ctx.metric.scale(usa))
    out["connection change: hat-grad alpha on one-forms"] = residual(
        na_hat, rhs4.at_point())
    # divergence commutation for alpha = star p_Phi(W): w = 0, form degree 4
    phi = InvariantPolynomial.pair_swap()

    def alpha_fn(stk):
        return inv.star_p_phi_form(stk, phi).to_tensor(stk.ring)

    def div_alpha_fn(stk):
        return stk.div(alpha_fn(stk), 0)

    kform = 2 * phi.degree
    d_div = linearize(ctx, div_alpha_fn, ups, weight=-2)
    d_alpha = linearize(ctx, alpha_fn, ups, weight=0)
    a0 = alpha_fn(st)
    rest = "jklmnopq"[:kform - 1]
    term1 = Tensor(n, ("d",) * (kform - 1), einsum(
        f"i,i{rest}->{rest}", du_up.a, a0.a)).scale(n + 0 - 2 * kform)
    term2 = st.div(d_alpha.field, 0)
    out["divergence rule: D grad^i alpha = (n+w-2k) Ups^i alpha + grad^i D alpha"] = \
        residual(d_div.value, (term1 + term2).at_point())
    # linearization hygiene
    fd = linearize_fd(ctx, "cotton", ups)
    out["linearize: jet-exact vs finite-difference"] = residual(lc.value,
                                                                fd.value)
    zero_lin = linearize(ctx, "weyl", ConformalFactor.const(Fraction(3, 7)))
    out["linearize: D(const Ups) = 0"] = max_abs(zero_lin.value) / max(
        1.0, max_abs(st.weyl.at_point()))
    return out


def suite_lemmas(trials: int = 10, seed: int = 5, tol: float = 1e-7,
                 jet_order: int = 3,
                 model: str = "random4") -> VerificationReport:
    rep = VerificationReport("lemmas", model, seed)
    build, _ = _ctx_for_model(model, seed=seed, jet_order=jet_order, dim=4)
    fd_names = ("linearize: jet-exact vs finite-difference",)
    sub_worst = {}
    for i in range(trials):
        ctx = build(i)
        ups = ConformalFactor.from_poly(
            random_conformal_factor(ctx.nvars or ctx.dim, seed * 499 + i))
        for name, res in _lemma_checks(ctx, ups, tol).items():
            sub_worst[name] = max(sub_worst.get(name, 0.0), res)
    for name, res in sorted(sub_worst.items()):
        this_tol = 1e-5 if name in fd_names else tol
        rep.add(check_residual(f"{name} [{trials} seeds]", res, this_tol))
    # frame-exact instance of the curl identities on the Berger product
    bctx = berger_product(Fraction(4))
    bst = bctx.stack
    nP = bst.nabla(bst.schouten)
    rep.add(check_exact(
        "curl identities on the Berger product (exact)",
        tensors_equal(nP - nP.permuted((1, 0, 2)), bst.cotton)
        and tensors_equal(bst.div(bst.weyl, 2), bst.cotton.scale(1))))
    return rep


# -- dim-4 naturality suite ------------------------------------------------------


def suite_naturality(seed: int = 17, jet_order: int = 4, trials: int = 6,
                     model: str = "random4") -> VerificationReport:
    rep = VerificationReport("naturality", model, seed)
    build, _ = _ctx_for_model(model, seed=seed * 31, jet_order=jet_order,
                              dim=4)
    rng = np.random.default_rng(seed)
    worst = {"bach_display": 0.0, "bach_sym_tf": 0.0, "bach_inv": 0.0,
             "wcheck": 0.0, "lin_wp": 0.0, "lin_pp": 0.0, "lin_jp": 0.0,
             "lin_hj": 0.0}
    for i in range(trials):
        ctx = build(i)
        if getattr(ctx, "jet_order", None) is not None \
                and ctx.jet_order < 4:
            raise ConfigError("the naturality suite needs jet order >= 4")
        st = ctx.stack
        ups = ConformalFactor.from_poly(
            random_conformal_factor(4, seed * 31 + i))
        B = st.bach
        lap_p = st.laplacian(st.schouten)
        hess_j = _hess_j(st)
        pp = Tensor(4, ("d", "d"),
                    einsum("is,sj->ij", st.schouten_mixed.a, st.schouten.a))
        p_up = raise_slot(ctx, raise_slot(ctx, st.schouten, 0), 1)
        p2 = einsum("ab,ab->", st.schouten.a, p_up.a)[()]
        rhs = lap_p - hess_j + _wp(st).scale(2) - pp.scale(4) \
            + ctx.metric.scale(p2)
        worst["bach_display"] = max(worst["bach_display"],
                                    residual(B.at_point(), rhs.at_point()))
        worst["bach_sym_tf"] = max(
            worst["bach_sym_tf"],
            residual(B.at_point(), B.permuted((1, 0)).at_point()),
            abs(scalar_float(st.trace(B))) / max(1.0, max_abs(B.at_point())))
        worst["bach_inv"] = max(worst["bach_inv"],
                                invariance_residual(ctx, "bach", ups))
        wc = _w_check_sq(st)
        worst["wcheck"] = max(
            worst["wcheck"],
            max_abs(st.trace_free(wc).at_point())
            / max(1.0, max_abs(wc.at_point())))
        # displayed linearizations against the dual-jet engine
        uj = ups.field(ctx)
        du = st.grad_scalar(uj)
        hess_u = st.nabla(du)
        lap_u = st.trace(hess_u)
        du_up = raise_slot(ctx, du, 0)
        hess_u_uu = raise_slot(ctx, raise_slot(ctx, hess_u, 0), 1)
        d_wp = linearize(ctx, "wp", ups)
        rhs_wp = Tensor(4, ("d", "d"),
                        -einsum("isjt,st->ij", st.weyl.a, hess_u_uu.a))
        worst["lin_wp"] = max(worst["lin_wp"],
                              residual(d_wp.value, rhs_wp.at_point()))
        d_pp = linearize(ctx, "tf_pp", ups)
        pu = einsum("is,sj->ij", st.schouten_mixed.a, hess_u.a)
        inner = einsum("ab,ab->", st.schouten.a, hess_u_uu.a)[()]
        rhs_pp = Tensor(4, ("d", "d"),
                        -(pu + pu.T) + Fraction(1, 2) * inner * ctx.metric.a)
        worst["lin_pp"] = max(worst["lin_pp"],
                              residual(d_pp.value, rhs_pp.at_point()))
        d_jp = linearize(ctx, "tf_jp", ups)
        rhs_jp = hess_u.scale(-st.j_scalar) - st.schouten.scale(lap_u) \
            + ctx.metric.scale(st.j_scalar * lap_u * Fraction(1, 2))
        worst["lin_jp"] = max(worst["lin_jp"],
                              residual(d_jp.value, rhs_jp.at_point()))
        d_hj = linearize(ctx, "tf_hess_j", ups)
        lap_u_hess = st.nabla(st.grad_scalar(lap_u))
        lap2_u = st.trace(lap_u_hess)
        dj = st.grad_scalar(st.j_scalar)
        cross = einsum("i,j->ij", du.a, dj.a) \
            + einsum("i,j->ij", dj.a, du.a)
        grad_u_grad_j = einsum("i,i->", du_up.a, dj.a)[()]
        rhs_hj = (lap_u_hess.scale(-1) - hess_u.scale(2 * st.j_scalar)
                  - Tensor(4, ("d", "d"), 3 * cross)
                  + ctx.metric.scale(Fraction(1, 4) * (
                      lap2_u + 2 * st.j_scalar * lap_u
                      + 6 * grad_u_grad_j)))
        worst["lin_hj"] = max(worst["lin_hj"],
                              residual(d_hj.value, rhs_hj.at_point()))
    rep.add(check_residual(
        "bach identity: B = Lap P - Hess J + 2 W.P - 4 P^2 + |P|^2 g",
        worst["bach_display"], 1e-8))
    rep.add(check_residual("Bach symmetric and trace-free",
                           worst["bach_sym_tf"], 1e-10))
    rep.add(check_residual("Bach conformal invariance (w = -2)",
                           worst["bach_inv"], 1e-8))
    rep.add(check_residual("tf(W_istu W_j^stu) = 0", worst["wcheck"], 1e-10))
    rep.add(check_residual("displayed linearization of W.P",
                           worst["lin_wp"], 1e-8))
    rep.add(check_residual("displayed linearization of tf P^2",
                           worst["lin_pp"], 1e-8))
    rep.add(check_residual("displayed linearization of tf JP",
                           worst["lin_jp"], 1e-8))
    rep.add(check_residual("displayed linearization of tf Hess J",
                           worst["lin_hj"], 1e-8))
    # div B = 0 needs fifth metric derivatives
    build5, _ = _ctx_for_model(model, seed=seed * 57, jet_order=5, dim=4)
    worst_div = 0.0
    for i in range(3):
        ctx5 = build5(i)
        st5 = ctx5.stack
        b5 = st5.bach
        worst_div = max(worst_div,
                        max_abs(st5.div(b5, 1).at_point())
                        / max(1.0, max_abs(b5.at_point())))
    rep.add(check_residual("grad^j B_ij = 0 (jet order 5)", worst_div, 1e-6))

    def make_sample(i):
        ctx = random_chart(4, seed=seed * 971 + i, jet_order=jet_order)
        ups = ConformalFactor.from_poly(
            random_conformal_factor(4, seed * 971 + i))
        return ctx, ups

    rep.extend(naturality_rank_test(make_sample,
                                    rng=np.random.default_rng(seed)))
    return rep


# -- product factorization suite --------------------------------------------------


def suite_product_factorization(t=Fraction(4), tol: float = 1e-6,
                                jet_order: int = 3,
                                seed: int = 0) -> VerificationReport:
    t = Fraction(t)
    if t == 1:
        raise ConfigError("the factorization statement needs t != 1 "
                          "(the Berger factor is round and both densities "
                          "vanish)")
    rep = VerificationReport("product_factorization", f"prod8_t={t}", seed)
    cp2 = fs_cp2_chart(jet_order=jet_order, exact=False)
    cst = cp2.stack
    ric = cst.ric.at_point()
    g0 = cp2.metric.at_point()
    rep.add(check_residual("CP^2 chart is Einstein with Ric = 6 g",
                           residual(ric, g0.scale(6.0)), 1e-8))
    rep.add(check_exact("CP^2 has nonzero Weyl tensor",
                        max_abs(cst.weyl.at_point()) > 1e-3))
    ctx = product_8d(t=t, jet_order=jet_order)
    st = ctx.stack
    rm = st.rm.at_point()
    cross = 0.0
    for idx in np.ndindex(rm.a.shape):
        blocks = {0 if q < 4 else 1 for q in idx}
        if len(blocks) > 1:
            cross = max(cross, abs(scalar_float(rm.a[idx])))
    rep.add(check_residual("product Riemann tensor is block-diagonal",
                           cross / max(1.0, max_abs(rm)), 1e-12))
    phi = InvariantPolynomial.trace_power(2)
    p = inv.p_phi_scalar(st, phi, "weyl")
    scale_w = max(1.0, max_abs(st.weyl.at_point()) ** 4)
    rep.add(check_residual("p_Phi(W) = 0 on the 8-dim product (trace-power Phi)",
                           abs(scalar_float(p)) / scale_w, tol))
    G = inv.phi_w_c_form(st, phi)
    gpt = {k: scalar_float(v) for k, v in G.comps.items()}
    phi2 = InvariantPolynomial.pair_swap()
    bp = berger_product(t, exact=False)
    H = inv.phi_w_c_form(bp.stack, phi2)
    Fform = inv.star_p_phi_form(cst, phi2)
    h8 = AltForm(8, 3, {k: scalar_float(v) for k, v in H.comps.items()})
    f8 = AltForm(8, 4, {tuple(q + 4 for q in k): scalar_float(v)
                        for k, v in Fform.comps.items()})
    hf = h8.alt_mul(f8)
    keys = set(gpt) | set(hf.comps)
    best_key = max(keys, key=lambda k: abs(hf.comps.get(k, 0.0)))
    lam = gpt.get(best_key, 0.0) / hf.comps[best_key]
    worst = max(abs(gpt.get(k, 0.0) - lam * hf.comps.get(k, 0.0))
                for k in keys) / max(abs(v) for v in gpt.values())
    rep.add(check_residual(
        "Phi W^3 C factors through the block densities", worst, tol))
    rep.add(check_exact(f"block-density multiple is nonzero (lambda = {lam:.6g})",
                        abs(lam) > 1e-8))
    rep.extras["lambda"] = lam
    return rep


# -- registry --------------------------------------------------------------------


SUITES = {
    "core_identities": suite_core_identities,
    "berger": suite_berger,
    "thm_invariance": suite_thm_invariance,
    "thm_pfaffian": suite_thm_pfaffian,
    "ac_identities": suite_ac_identities,
    "lemmas": suite_lemmas,
    "naturality": suite_naturality,
    "product_factorization": suite_product_factorization,
}


def run_suite(name: str, **options) -> list[VerificationReport]:
    trials, tol = options.get("trials"), options.get("tol")
    if trials is not None and trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    seed = options.get("seed")
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol must be finite and positive, got {tol}")
    if options.get("jet_order") is not None:
        check_jet_order(options["jet_order"])
    if name == "all":
        return [_call_suite(s, options, strict=False) for s in sorted(SUITES)]
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; known: "
                          f"{sorted(SUITES) + ['all']}")
    return [_call_suite(name, options, strict=True)]


def _call_suite(name: str, options: dict, *, strict: bool):
    """The suite run with the options its signature takes; with ``strict``,
    an option it does not take is a ConfigError rather than ignored."""
    suite = SUITES[name]
    params = inspect.signature(suite).parameters
    unknown = [k for k in options if k not in params]
    if strict and unknown:
        flags = ", ".join("--exact/--float" if k == "exact"
                          else "--" + k.replace("_", "-") for k in unknown)
        raise ConfigError(f"suite {name!r} does not take {flags}")
    return suite(**{k: v for k, v in options.items() if k in params})
