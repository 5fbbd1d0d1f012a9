"""Polynomial normalization, evaluation and Taylor coefficients, and the
packed chart metric ``ChartContext.from_polys`` builds from them."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab.errors import ConfigError
from curvlab.fields import JetField
from curvlab.geometry import ChartContext
from curvlab.jets import Jet, JetAlgebra
from curvlab.models import fs_cp2_chart, random_chart, round_sphere_chart
from curvlab.polys import Poly, RationalFunc

coefficients = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6).map(str))


def exponents(nvars, top=3):
    return st.tuples(*[st.integers(0, top)] * nvars)


def naive_table(nvars, coeffs):
    """The table ``Poly`` should keep: int-tuple exponents, summed
    Fractions, zeros dropped."""
    out = {}
    for e, c in coeffs.items():
        e = tuple(int(k) for k in e)
        out[e] = out.get(e, Fraction(0)) + Fraction(c)
    return {e: c for e, c in out.items() if c}


def naive_value(p, point):
    total = Fraction(0)
    for e, c in p.coeffs.items():
        term = c
        for x, k in zip(point, e):
            term *= Fraction(x) ** k
        total += term
    return total


class TestNormalization:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.dictionaries(exponents(n), coefficients,
                                    max_size=8))))
    def test_matches_the_naive_table(self, case):
        nvars, coeffs = case
        p = Poly(nvars, coeffs)
        assert p.coeffs == naive_table(nvars, coeffs)
        assert all(type(c) is Fraction for c in p.coeffs.values())
        assert all(type(k) is int for e in p.coeffs for k in e)

    def test_exponents_that_normalize_alike_are_summed(self):
        """A range and a tuple are distinct keys but one exponent."""
        p = Poly(2, {(1, 2): Fraction(1, 2), range(1, 3): 1,
                     (np.int64(2), 0): "1/3"})
        assert p.coeffs == {(1, 2): Fraction(3, 2), (2, 0): Fraction(1, 3)}
        assert all(type(k) is int for e in p.coeffs for k in e)
        assert Poly(2, {(1, 2): 1, range(1, 3): -1}).coeffs == {}

    def test_zero_coefficients_dropped(self):
        p = Poly(2, {(0, 0): Fraction(0), (1, 0): 0, (0, 1): "0/5",
                     (1, 1): Fraction(2)})
        assert p.coeffs == {(1, 1): Fraction(2)}

    def test_int_and_str_coefficients_become_fractions(self):
        p = Poly(2, {(1, 0): 3, (0, 1): "-2/6"})
        assert p.coeffs == {(1, 0): Fraction(3), (0, 1): Fraction(-1, 3)}
        assert all(type(c) is Fraction for c in p.coeffs.values())

    def test_large_exponents_accepted(self):
        p = Poly(1, {(300,): Fraction(1)})
        assert p.coeffs == {(300,): Fraction(1)} and p.degree() == 300

    @pytest.mark.parametrize("exp", [(1,), (1, 0, 0), ()])
    def test_wrong_arity_rejected(self, exp):
        with pytest.raises(ValueError, match="arity"):
            Poly(2, {exp: Fraction(1)})

    @pytest.mark.parametrize("exp", [(-1, 0), (0, -300)])
    def test_negative_exponent_rejected(self, exp):
        with pytest.raises(ValueError, match="negative"):
            Poly(2, {exp: Fraction(1)})

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(TypeError):
            Poly(2, {(0.5, 1): Fraction(1)})


class TestEvaluation:
    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(exponents(3), coefficients, max_size=8),
           st.lists(st.one_of(st.just(0), st.fractions(
               min_value=-3, max_value=3, max_denominator=5)),
                    min_size=3, max_size=3))
    def test_matches_naive_evaluation(self, coeffs, point):
        """Zero coordinates included: the terms they kill are skipped."""
        p = Poly(3, coeffs)
        got = p(point)
        assert type(got) is Fraction and got == naive_value(p, point)

    def test_origin_is_the_constant_term(self):
        p = Poly(2, {(0, 0): Fraction(5, 2), (1, 0): 7, (0, 3): 1})
        assert p((0, 0)) == Fraction(5, 2)
        assert Poly(2, {(1, 1): 1})((0, 0)) == 0


class TestTaylor:
    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(exponents(3, top=4), coefficients, max_size=8),
           st.integers(1, 5),
           st.lists(st.one_of(st.just(0), st.fractions(
               min_value=-2, max_value=2, max_denominator=4)),
                    min_size=3, max_size=3))
    def test_matches_the_binomial_sum(self, coeffs, order, point):
        """Each coefficient is sum over e >= m of
        c_e prod binom(e_v, m_v) b_v^(e_v - m_v), zeros left out."""
        from math import comb
        p = Poly(3, coeffs)
        alg = JetAlgebra.get(3, order)
        ref = {}
        for e, c in p.coeffs.items():
            for m in itertools.product(*(range(k + 1) for k in e)):
                if sum(m) > order:
                    continue
                term = c
                for ev, mv, bv in zip(e, m, point):
                    term *= comb(ev, mv) * Fraction(bv) ** (ev - mv)
                i = alg.index[m]
                ref[i] = ref.get(i, Fraction(0)) + term
        got = p.taylor(alg, point)
        assert got == {i: x for i, x in ref.items() if x}
        assert all(type(x) is Fraction for x in got.values())

    def test_fewer_variables_than_the_algebra(self):
        alg = JetAlgebra.get(3, 2)
        p = Poly(2, {(1, 1): Fraction(2), (0, 1): Fraction(1)})
        assert p.taylor(alg, (0, 0, 5)) == {
            alg.index[(1, 1, 0)]: 2, alg.index[(0, 1, 0)]: 1}
        assert p.taylor(alg, (1, 0, 5)) == {
            alg.index[(0, 1, 0)]: 3, alg.index[(1, 1, 0)]: 2}


# -- the packed chart metric ------------------------------------------------

MODELS = {
    "random4": lambda: random_chart(4, seed=7, jet_order=1).metric_polys,
    "round_s4": lambda: round_sphere_chart(4, jet_order=1).metric_polys,
    "fs_cp2": lambda: fs_cp2_chart(jet_order=1).metric_polys,
}
base_points = st.one_of(
    st.just((Fraction(0),) * 4),
    st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=9),
             min_size=4, max_size=4).map(tuple))


def entry_jet(e, alg, base, exact):
    """One entry's jet the per-entry way: ``Poly.jet`` or
    ``RationalFunc.jet``."""
    if isinstance(e, (int, Fraction)):
        e = Poly.const(alg.nvars, e)
    return e.jet(alg, base, exact)


class TestFromPolys:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(MODELS)), st.integers(1, 5), base_points)
    def test_float_coefficients_are_the_per_entry_bits(self, model, order,
                                                       base):
        entries = MODELS[model]()
        ctx = ChartContext.from_polys(entries, base, jet_order=order)
        field = ctx.metric.field
        assert isinstance(field, JetField)
        assert (field.v == order).all()
        alg = field.alg
        for i, j in itertools.product(range(4), repeat=2):
            ref = entry_jet(entries[i][j], alg, base, False)
            assert ref.valid == order
            assert np.array_equal(field.c[:, i, j], ref.c)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(sorted(MODELS)), st.integers(1, 3), base_points)
    def test_exact_entries_are_the_per_entry_jets(self, model, order, base):
        entries = MODELS[model]()
        ctx = ChartContext.from_polys(entries, base, jet_order=order,
                                      exact=True)
        alg = ctx.jet_algebra
        for i, j in itertools.product(range(4), repeat=2):
            got, ref = ctx.metric.a[i, j], entry_jet(entries[i][j], alg,
                                                     base, True)
            assert type(got) is Jet and got.exact and got.valid == order
            assert got == ref
            assert all(type(x) is Fraction for x in got.c)

    @pytest.mark.parametrize("exact", [False, True])
    def test_asymmetric_chart_rejected(self, exact):
        entries = [[Fraction(int(i == j)) for j in range(4)]
                   for i in range(4)]
        entries[0][1] = Poly(4, {(0, 0, 1, 0): Fraction(1, 3)})
        with pytest.raises(ValueError, match="not symmetric"):
            ChartContext.from_polys(entries, (Fraction(0),) * 4,
                                    jet_order=3, exact=exact)

    @pytest.mark.parametrize("exact", [False, True])
    def test_asymmetry_above_the_order_is_invisible(self, exact):
        """Entries that differ only above the jet order give the same jets,
        as the per-entry comparison saw them."""
        entries = [[Fraction(int(i == j)) for j in range(4)]
                   for i in range(4)]
        entries[0][1] = Poly(4, {(3, 0, 0, 0): Fraction(1)})
        ChartContext.from_polys(entries, (Fraction(0),) * 4, jet_order=2,
                                exact=exact)

    @pytest.mark.parametrize("exact", [False, True])
    def test_pole_at_the_base_point_names_the_entry(self, exact):
        x0 = Poly(4, {(1, 0, 0, 0): Fraction(1)})
        entries = [[Fraction(int(i == j)) for j in range(4)]
                   for i in range(4)]
        entries[2][3] = entries[3][2] = RationalFunc(Poly.const(4, 0), x0)
        with pytest.raises(ConfigError, match=r"entry \(2, 3\) vanishes"):
            ChartContext.from_polys(entries, (Fraction(0),) * 4,
                                    jet_order=3, exact=exact)
        # away from x0 = 0 the same chart builds
        ChartContext.from_polys(entries, (Fraction(1), 0, 0, 0),
                                jet_order=3, exact=exact)

    def test_each_denominator_inverted_once(self, monkeypatch):
        calls = []
        real = Jet.inverse

        def spy(self):
            calls.append(self)
            return real(self)
        monkeypatch.setattr(Jet, "inverse", spy)
        fs_cp2_chart(jet_order=3)
        assert len(calls) == 1
