import math
from fractions import Fraction

import numpy as np
import pytest

from curvlab.conformal import (ConformalFactor, clone_context,
                               invariance_residual, linearize, linearize_fd,
                               naturality_rank_test, rescale,
                               verify_ac_identities, verify_pfaffian_identity)
from curvlab.errors import DimensionError, ExactnessError
from curvlab.invariants import InvariantPolynomial
from curvlab.models import (berger_product, flat_chart, random_chart,
                            random_conformal_factor, round_sphere_chart)
from curvlab.polys import Poly, RationalFunc
from curvlab.tensors import is_zero_tensor, max_abs, residual, tensors_equal


def ups_for(ctx, seed=0):
    return ConformalFactor.from_poly(
        random_conformal_factor(ctx.nvars or ctx.dim, seed))


class TestRescale:
    def test_zero_factor_is_identity(self, chart4, chart4_stack):
        ctx2 = rescale(chart4, ConformalFactor.zero())
        assert residual(ctx2.stack.rm.at_point(),
                        chart4_stack.rm.at_point()) < 1e-15

    def test_constant_factor_scales_homogeneously(self):
        ctx = random_chart(4, seed=21, jet_order=2)
        c = 0.3
        ctx2 = rescale(ctx, ConformalFactor.const(Fraction(3, 10)))
        st, st2 = ctx.stack, ctx2.stack
        # all-down curvature and Weyl scale by e^{2c}; scalar curvature by e^{-2c}
        assert residual(st2.rm.at_point(),
                        st.rm.at_point().scale(math.exp(2 * c))) < 1e-12
        assert residual(st2.weyl.at_point(),
                        st.weyl.at_point().scale(math.exp(2 * c))) < 1e-12
        r1 = float(st.ctx.point_value(st.scalar_curv))
        r2 = float(st2.ctx.point_value(st2.scalar_curv))
        assert abs(r2 - r1 * math.exp(-2 * c)) < 1e-10 * max(1, abs(r1))

    def test_flat_to_round_sphere(self):
        n = 4
        pt = tuple(Fraction(1, 5 + 2 * v) for v in range(n))
        flat = flat_chart(n, jet_order=3, exact=True, base_point=pt)
        r2 = Poly.const(n, 0)
        for v in range(n):
            r2 = r2 + Poly.var(n, v) * Poly.var(n, v)
        f = RationalFunc(Poly.const(n, 2), Poly.const(n, 1) + r2)
        ctx2 = rescale(flat, ConformalFactor(log_func=f))
        sphere = round_sphere_chart(n, jet_order=3, exact=True, base_point=pt)
        assert tensors_equal(ctx2.stack.rm, sphere.stack.rm)
        assert tensors_equal(ctx2.stack.schouten, sphere.stack.schouten)

    def test_frame_rejects_nonconstant(self):
        ctx = berger_product(Fraction(4))
        with pytest.raises(DimensionError):
            rescale(ctx, ConformalFactor.from_poly(
                Poly(1, {(1,): Fraction(1)})))

    def test_exact_frame_rejects_nonzero_constant(self):
        ctx = berger_product(Fraction(4))
        with pytest.raises(ExactnessError):
            rescale(ctx, ConformalFactor.const(Fraction(1)))

    def test_float_frame_constant_rescale(self):
        ctx = berger_product(Fraction(4), exact=False)
        ctx2 = rescale(ctx, ConformalFactor.const(Fraction(1, 2)))
        assert abs(ctx2.metric.a[0, 0] - 4 * math.e) < 1e-12


class TestLinearize:
    def test_linear_in_upsilon(self, chart4):
        u1, u2 = ups_for(chart4, 1), ups_for(chart4, 2)
        combo = ConformalFactor.from_poly(u1.poly * Fraction(2) +
                                          u2.poly * Fraction(-3))
        d1 = linearize(chart4, "cotton", u1).value
        d2 = linearize(chart4, "cotton", u2).value
        dc = linearize(chart4, "cotton", combo).value
        assert residual(dc, d1.scale(2.0) + d2.scale(-3.0)) < 1e-12

    def test_vanishes_on_constants(self, chart4, chart4_stack):
        for name in ("weyl", "cotton", "xi2", "star_rho"):
            lin = linearize(chart4, name,
                            ConformalFactor.const(Fraction(2, 5)))
            assert max_abs(lin.value) < 1e-11 * max(
                1.0, max_abs(chart4_stack.weyl.at_point()))
        ctx = random_chart(4, seed=77, jet_order=4)
        lin = linearize(ctx, "bach", ConformalFactor.const(Fraction(1, 3)))
        assert max_abs(lin.value) < 1e-11 * max(
            1.0, max_abs(ctx.stack.bach.at_point()))

    def test_fd_cross_check(self, chart4):
        ups = ups_for(chart4, 3)
        jet = linearize(chart4, "weyl", ups)
        fd = linearize_fd(chart4, "weyl", ups)
        assert residual(jet.value, fd.value, scale=1.0) < 1e-5

    def test_weight_required_for_callables(self, chart4):
        with pytest.raises(ValueError):
            linearize(chart4, lambda st: st.weyl, ups_for(chart4), weight=None)


class TestInvarianceOps:
    def test_xi_rho_invariance_single(self, chart4):
        ups = ups_for(chart4, 4)
        assert invariance_residual(chart4, "xi_k", ups) < 1e-10
        assert invariance_residual(chart4, "rho_phi", ups) < 1e-10

    def test_star_rho_invariance_dim6(self):
        ctx = random_chart(6, seed=23, jet_order=3)
        ups = ups_for(ctx, 5)
        assert invariance_residual(ctx, "star_rho_general", ups) < 1e-7

    def test_invariance_over_seeded_trials(self):
        worst = 0.0
        for i in range(2):
            ctx = random_chart(4, seed=100 + i, jet_order=3)
            worst = max(worst, invariance_residual(ctx, "xi_k", ups_for(ctx, i)))
        assert worst < 1e-8

    def test_unknown_form_rejected(self, chart4):
        with pytest.raises(KeyError):
            invariance_residual(chart4, "nonsense", ups_for(chart4))


class TestPfaffianAndAc:
    def test_pfaffian_identity_chart(self, chart4):
        rep = verify_pfaffian_identity(chart4, tol=1e-8)
        assert rep.passed

    def test_pfaffian_identity_exact_frame(self):
        rep = verify_pfaffian_identity(berger_product(Fraction(4)))
        assert rep.passed and all(c.exact for c in rep.checks)

    def test_pfaffian_identity_dim6(self):
        """k = n/2 = 3: Pf_3, xi^(3) and Omega^(3) on a random 6-chart."""
        rep = verify_pfaffian_identity(random_chart(6, seed=0, jet_order=3),
                                       tol=1e-8)
        assert rep.passed and len(rep.checks) == 3

    def test_pfaffian_needs_even_dim(self):
        with pytest.raises(DimensionError):
            verify_pfaffian_identity(random_chart(5, seed=0, jet_order=3))

    def test_ac_identities(self):
        ctx = random_chart(6, seed=29, jet_order=3)
        rep = verify_ac_identities(ctx, 2, ups=ups_for(ctx, 6), tol=1e-7)
        assert rep.passed
        names = {c.name for c in rep.checks}
        assert any("div(tf T)" in n for n in names)
        assert any("conformal transformation" in n for n in names)

    def test_ac_needs_room(self, chart4):
        with pytest.raises(DimensionError):
            verify_ac_identities(chart4, 2)


class TestNaturalityRank:
    def test_rank_is_four(self):
        def make_sample(i):
            ctx = random_chart(4, seed=500 + i, jet_order=4)
            return ctx, ups_for(ctx, i)
        rep = naturality_rank_test(make_sample, samples=10,
                                   rng=np.random.default_rng(1))
        assert rep.passed
        assert rep.extras["rank"] == 4


def test_pfaffian_identity_trivial_on_flat():
    rep = verify_pfaffian_identity(flat_chart(4, jet_order=3, exact=True),
                                   exact=True)
    assert rep.passed
