from fractions import Fraction

import numpy as np
import pytest

from curvlab.errors import ConfigError, ExactnessError
from curvlab.models import (berger_product, fs_cp2_chart, killing_field_T,
                            random_chart, random_conformal_factor)
from curvlab.suites import MODELS, _ctx_for_model, run_suite
from curvlab.tensors import is_zero_tensor, max_abs, residual


class TestRegistry:
    def test_build_flat(self):
        ctx = MODELS["flat4"].build(4, 0, 2)
        assert ctx.dim == 4 and is_zero_tensor(ctx.stack.rm)

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="unknown model 'klein_bottle'"):
            run_suite("thm_invariance", model="klein_bottle", trials=1)

    def test_sweep(self):
        ctxs = [berger_product(t) for t in (Fraction(1), Fraction(4))]
        assert is_zero_tensor(ctxs[0].stack.weyl)        # t = 1 is round
        assert not is_zero_tensor(ctxs[1].stack.weyl)

    @pytest.mark.parametrize("name, per_trial", [
        ("flat", False), ("flat2", False), ("random4", True)])
    def test_family_takes_the_suite_dimension(self, name, per_trial):
        build, drawn = _ctx_for_model(name, seed=1, jet_order=2, dim=6)
        assert drawn is per_trial
        assert build(0).dim == 6
        assert (build(0) is build(1)) is not per_trial

    def test_each_model_builds_its_dimension(self):
        for name, m in MODELS.items():
            ctx = m.build(m.dim, 0, 2)
            assert ctx.dim == m.dim and not ctx.ring.exact, name


class TestBerger:
    def test_exact_mode_needs_square_t(self):
        with pytest.raises(ExactnessError):
            berger_product(Fraction(2), exact=True)
        berger_product(Fraction(2), exact=False)        # float mode is fine
        berger_product(Fraction(1, 4), exact=True)      # sqrt = 1/2

    def test_positive_t_required(self):
        with pytest.raises(ConfigError):
            berger_product(Fraction(-1))

    def test_killing_field(self):
        ctx = berger_product(Fraction(4))
        T = killing_field_T(ctx)
        assert T.a[3] == 1 and all(not T.a[i] for i in range(3))


class TestFubiniStudy:
    def test_einstein_at_two_points(self):
        for pt in (None, (Fraction(1, 9), Fraction(2, 9), Fraction(-1, 3),
                          Fraction(1, 6))):
            ctx = fs_cp2_chart(jet_order=2, exact=True, base_point=pt)
            st = ctx.stack
            ric = st.at_point(st.ric)
            g = ctx.metric.at_point()
            assert all(ric.a[i, j] == 6 * g.a[i, j]
                       for i in range(4) for j in range(4))
            assert not is_zero_tensor(st.weyl)

    def test_point_at_infinity_rejected(self):
        # the affine chart denominator never vanishes; huge points still fine,
        # but a forbidden exact sqrt shows up in float-only epsilon use
        ctx = fs_cp2_chart(jet_order=2, exact=True)
        assert ctx.dim == 4


class TestRandomEnsemble:
    def test_deterministic_given_seed(self):
        a = random_chart(4, seed=3, jet_order=2)
        b = random_chart(4, seed=3, jet_order=2)
        assert residual(a.metric.at_point(), b.metric.at_point()) == 0

    def test_distinct_across_seeds(self):
        a = random_chart(4, seed=3, jet_order=2)
        b = random_chart(4, seed=4, jet_order=2)
        assert residual(a.metric.at_point(), b.metric.at_point()) > 1e-6

    def test_positive_definite_at_base(self):
        for seed in range(5):
            ctx = random_chart(4, seed=seed, jet_order=2)
            g0 = np.array([[float(x) for x in row]
                           for row in ctx.metric.at_point().a])
            assert np.all(np.linalg.eigvalsh(g0) > 0)

    def test_conformal_factor_bounded(self):
        p = random_conformal_factor(4, seed=0)
        assert p.degree() <= 3
        assert all(abs(c) <= Fraction(1, 2) for c in p.coeffs.values())


def test_flat_alias_resolves():
    m = MODELS["flat"]
    assert m.dim == 4 and m.build(m.dim, 0, 3).dim == 4
    rep, = run_suite("thm_pfaffian", model="flat", trials=1)
    assert rep.passed and rep.model == "flat"


def test_product_factorization_at_second_parameter():
    from fractions import Fraction
    from curvlab.suites import suite_product_factorization
    rep = suite_product_factorization(t=Fraction(9))
    assert rep.passed
    assert abs(rep.extras["lambda"]) > 1e-8


def test_product_factorization_rejects_round_t():
    from fractions import Fraction
    from curvlab.suites import suite_product_factorization
    with pytest.raises(ConfigError):
        suite_product_factorization(t=Fraction(1))
