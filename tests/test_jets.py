import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab.errors import ExactnessError, JetOrderError, ScalarKindError
from curvlab.jets import Dual, Jet, JetAlgebra, newton_caps
from curvlab.polys import Poly


def jet_derivative(j: Jet, multi):
    """Oracle: the partial derivative at the base point for a multi-index,
    the Taylor coefficient times the product of the factorials; a
    derivative past the jet's ``valid`` raises JetOrderError."""
    if sum(multi) > j.valid:
        raise JetOrderError(f"derivative order {sum(multi)} exceeds "
                            f"valid jet order {j.valid}")
    return j.c[j.alg.index[tuple(multi)]] * math.prod(
        math.factorial(m) for m in multi)


def poly_strategy(nvars, max_degree=3):
    exps = st.lists(st.integers(0, max_degree), min_size=nvars, max_size=nvars) \
        .filter(lambda e: sum(e) <= max_degree)
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    return st.dictionaries(st.builds(tuple, exps), coeff, max_size=5) \
        .map(lambda d: Poly(nvars, d))


def test_second_derivative_of_square():
    alg = JetAlgebra.get(1, 2)
    x = Jet.variable(alg, 0, Fraction(1), exact=True)
    f = x * x
    assert jet_derivative(f, (2,)) == 2
    assert jet_derivative(f, (1,)) == 2
    assert jet_derivative(f, (0,)) == 1


def test_exp_of_linear_matches_closed_form():
    alg = JetAlgebra.get(1, 4)
    x = Jet.variable(alg, 0, 0.5, exact=False)
    f = (x * 2).exp()                  # e^{2x} at x = 1/2
    for k in range(5):
        assert jet_derivative(f, (k,)) == pytest.approx(2 ** k * math.e)


def test_order5_mixed_partial_matches_polynomial_oracle():
    # oracle: differentiate the coefficient table directly
    rng = np.random.default_rng(2)
    nvars, order = 3, 5
    coeffs = {}
    for _ in range(12):
        e = tuple(int(x) for x in rng.integers(0, 3, nvars))
        if sum(e) <= 5:
            coeffs[e] = Fraction(int(rng.integers(-9, 10)), 7)
    p = Poly(nvars, coeffs)
    base = (Fraction(1, 3), Fraction(-1, 2), Fraction(2, 5))
    alg = JetAlgebra.get(nvars, order)
    j = p.jet(alg, base, exact=True)
    multi = (2, 1, 2)

    def oracle(poly, multi, point):
        total = Fraction(0)
        for e, c in poly.coeffs.items():
            term = c
            for v, (ev, mv) in enumerate(zip(e, multi)):
                if ev < mv:
                    term = Fraction(0)
                    break
                fall = Fraction(math.factorial(ev), math.factorial(ev - mv))
                term *= fall * Fraction(point[v]) ** (ev - mv)
            total += term
        return total

    assert jet_derivative(j, multi) == oracle(p, multi, base)


@settings(max_examples=25, deadline=None)
@given(poly_strategy(2), poly_strategy(2))
def test_leibniz_rule(p, q):
    alg = JetAlgebra.get(2, 4)
    base = (Fraction(1, 2), Fraction(-1, 3))
    a = p.jet(alg, base, exact=True)
    b = q.jet(alg, base, exact=True)
    for v in range(2):
        assert (a * b).d(v) == a.d(v) * b + a * b.d(v)


@settings(max_examples=25, deadline=None)
@given(poly_strategy(2), poly_strategy(2))
def test_ring_ops_match_polynomial_ops(p, q):
    alg = JetAlgebra.get(2, 4)
    base = (Fraction(2, 3), Fraction(1, 5))
    assert p.jet(alg, base, True) * q.jet(alg, base, True) == \
        (p * q).jet(alg, base, True)
    assert p.jet(alg, base, True) + q.jet(alg, base, True) == \
        (p + q).jet(alg, base, True)


def test_inverse_and_sqrt_roundtrip():
    alg = JetAlgebra.get(2, 5)
    base = (Fraction(1, 2), Fraction(1, 3))
    p = Poly(2, {(0, 0): Fraction(4), (1, 1): Fraction(1, 2),
                 (2, 0): Fraction(-1, 3)})
    j = p.jet(alg, base, exact=True)
    one = Jet.const(alg, Fraction(1), True)
    assert j * j.inverse() == one
    s = j.sqrt()
    assert s * s == j
    jf = p.jet(alg, base, exact=False)
    sf = jf.sqrt()
    assert np.allclose((sf * sf).c, jf.c, atol=1e-12)
    lf = jf.log()
    assert np.allclose(lf.exp().c, jf.c, atol=1e-12)


@pytest.mark.parametrize("valid, caps", [
    (0, []), (1, [1]), (2, [1, 2]), (3, [1, 3]), (5, [1, 3, 5]),
    (7, [1, 3, 7]), (8, [1, 3, 7, 8])])
def test_newton_caps_double_the_order(valid, caps):
    assert list(newton_caps(valid)) == caps


def _full_order_newton(j, x0, step):
    """The Newton iteration run at j's full ``valid`` from the start,
    ceil(log2(valid + 1)) steps: the schedule ``newton_caps`` replaced."""
    x = Jet(j.alg, Jet.const(j.alg, x0, j.exact).c, j.valid, j.exact)
    for _ in range(max(1, math.ceil(math.log2(j.valid + 1)))):
        x = step(x)
    return x


@pytest.mark.parametrize("valid", [0, 1, 2, 3, 4, 5])
def test_inverse_and_sqrt_match_the_full_order_iteration(valid):
    """On the doubling schedule exact results are equal and float results
    agree to rounding, with the same ``valid``."""
    alg = JetAlgebra.get(2, 5)
    base = (Fraction(0), Fraction(0))
    p = Poly(2, {(0, 0): Fraction(9, 4), (1, 0): Fraction(2, 3),
                 (1, 1): Fraction(1, 2), (2, 0): Fraction(-1, 3),
                 (0, 3): Fraction(1, 5)})
    for exact in (True, False):
        j = p.jet(alg, base, exact)
        j = Jet(alg, j._mask(j.c.copy(), valid), valid, exact)
        a0 = j.c[0]
        two, half = (Fraction(2), Fraction(1, 2)) if exact else (2.0, 0.5)
        pairs = [
            (j.inverse(), _full_order_newton(
                j, 1 / a0, lambda x: x * (two - j * x))),
            (j.sqrt(), _full_order_newton(
                j, Fraction(3, 2) if exact else math.sqrt(a0),
                lambda x: (x + j / x) * half)),
        ]
        for got, want in pairs:
            assert got.valid == want.valid == valid
            if exact:
                assert list(got.c) == list(want.c)
            else:
                np.testing.assert_allclose(got.c, want.c, rtol=0, atol=1e-14)


def test_irrational_exact_sqrt_rejected():
    alg = JetAlgebra.get(1, 3)
    j = Jet.const(alg, Fraction(2), True)
    with pytest.raises(ExactnessError):
        j.sqrt()
    with pytest.raises(ExactnessError):
        Jet.const(alg, Fraction(3), True).exp()


def test_validity_tracking_and_order_error():
    alg = JetAlgebra.get(2, 3)
    x = Jet.variable(alg, 0, Fraction(0), True)
    j = (x * x) * x
    d3 = j.d(0).d(0).d(0)
    assert d3.val() == 6
    assert d3.valid == 0
    with pytest.raises(JetOrderError):
        d3.d(0)
    with pytest.raises(JetOrderError):
        jet_derivative(j.d(0), (3, 0))


def test_kind_mixing_rejected():
    alg = JetAlgebra.get(1, 2)
    a = Jet.const(alg, Fraction(1), True)
    b = Jet.const(alg, 1.0, False)
    with pytest.raises(ScalarKindError):
        a + b
    with pytest.raises(ScalarKindError):
        a * 0.5


def test_dual_arithmetic_chain_rules():
    alg = JetAlgebra.get(1, 3)
    x = Jet.variable(alg, 0, 2.0, False)
    d = Dual(x, x * x)                 # value x, derivative direction x^2
    e = d * d
    assert e.re == x * x
    assert e.im == (x * x) * x * 2
    inv = d.inverse()
    assert np.allclose((inv.re * x).c, Jet.const(alg, 1.0, False).c)
    assert np.allclose((d / d).im.c, 0.0, atol=1e-14)
    s = d.sqrt()
    assert np.allclose((s.re * s.re).c, x.c, atol=1e-12)
    ex = d.exp()
    assert np.allclose(ex.im.c, (ex.re * d.im).c, atol=1e-10)


def product_jet(p, alg, base, exact):
    """A polynomial's jet by repeated ``Jet.__mul__`` of coordinate jets,
    the loop ``Poly.jet`` replaced; the reference for it."""
    xs = [Jet.variable(alg, v, base[v] if exact else float(base[v]), exact)
          for v in range(p.nvars)]
    acc = Jet.const(alg, Fraction(0) if exact else 0.0, exact)
    for e, c in p.coeffs.items():
        term = Jet.const(alg, c if exact else float(c), exact)
        for v, k in enumerate(e):
            for _ in range(k):
                term = term * xs[v]
        acc = acc + term
    return acc


@settings(max_examples=40, deadline=None)
@given(poly_strategy(3, max_degree=5), st.sampled_from([2, 3, 5]),
       st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=4),
                min_size=3, max_size=3))
def test_poly_jet_writes_coefficients_directly(p, order, base):
    """Exact: every coefficient a Fraction, equal to the product jet's, with
    ``valid`` = order.  Float: the same bits at the origin, and the exact
    coefficients rounded once elsewhere."""
    alg = JetAlgebra.get(3, order)
    exact = p.jet(alg, base, True)
    assert exact.valid == order and exact == product_jet(p, alg, base, True)
    assert all(type(x) is Fraction for x in exact.c)
    flt = p.jet(alg, base, False)
    assert flt.valid == order and flt.c.dtype == float
    assert np.array_equal(flt.c, [float(x) for x in exact.c])
    origin = (0, 0, 0)
    assert p.jet(alg, origin, False).c.tobytes() == \
        product_jet(p, alg, origin, False).c.tobytes()


def test_mask_selector_is_cached():
    alg = JetAlgebra.get(2, 4)
    for v in range(5):
        sel = alg.above(v)
        assert sel is alg.above(v)
        assert np.array_equal(sel, alg.deg > v)


def random_float_jet(alg, valid, rng):
    c = rng.standard_normal(alg.N)
    c[alg.deg > valid] = 0.0
    return Jet(alg, c, valid, False)


@pytest.mark.parametrize("va, vb", [(3, 3), (3, 1), (0, 2), (2, 2)])
def test_add_sub_keep_zeros_above_valid(va, vb):
    """Same ``valid``: a plain coefficient sum; different: masked at the
    min.  Either way nothing is left above the result's ``valid``."""
    alg = JetAlgebra.get(2, 3)
    rng = np.random.default_rng(va * 10 + vb)
    a, b = random_float_jet(alg, va, rng), random_float_jet(alg, vb, rng)
    v = min(va, vb)
    for got, c in ((a + b, a.c + b.c), (a - b, a.c - b.c)):
        assert got.valid == v
        assert np.array_equal(got.c[alg.deg <= v], c[alg.deg <= v])
        assert not got.c[alg.deg > v].any()


def random_exact_jet(alg, valid, rng):
    c = np.empty(alg.N, dtype=object)
    c[:] = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6)))
            if d <= valid else Fraction(0) for d in alg.deg.tolist()]
    return Jet(alg, c, valid, True)


@pytest.mark.parametrize("va, vb", [(3, 3), (3, 1), (0, 2), (2, 2)])
def test_exact_add_sub_stop_at_the_lower_valid(va, vb):
    """Exact sums and differences add only the coefficients up to the
    lower ``valid``, and hold Fraction zeros above it."""
    alg = JetAlgebra.get(2, 3)
    rng = np.random.default_rng(va * 10 + vb)
    a, b = random_exact_jet(alg, va, rng), random_exact_jet(alg, vb, rng)
    v = min(va, vb)
    for got, op in ((a + b, lambda x, y: x + y), (a - b, lambda x, y: x - y)):
        assert got.valid == v and got.exact
        assert got.c.tolist() == [op(x, y) if d <= v else 0 for x, y, d
                                  in zip(a.c, b.c, alg.deg.tolist())]
        assert all(type(x) is Fraction for x in got.c)


def _naive_mul_table(alg, cap):
    """(ia, ib, io) by a loop over every monomial pair, ia-major."""
    ia, ib, io = [], [], []
    for i, a in enumerate(alg.mons):
        for j, b in enumerate(alg.mons):
            if sum(a) + sum(b) <= cap:
                ia.append(i)
                ib.append(j)
                io.append(alg.index[tuple(x + y for x, y in zip(a, b))])
    return ia, ib, io


@pytest.mark.parametrize("nvars, order", [(n, k) for n in range(1, 5)
                                          for k in range(6)] + [(6, 3)])
def test_mul_table_matches_the_pair_loop(nvars, order):
    """Every cap's table, in the loop's (ia-major, ib-minor) order, which
    the sums over it follow; caps past the order give the order's."""
    alg = JetAlgebra(nvars, order)
    for cap in range(order + 2):
        got = alg.mul_table(cap)
        assert [t.tolist() for t in got] == \
            list(_naive_mul_table(alg, min(cap, order)))
        assert alg.mul_table(cap) is got


@pytest.mark.parametrize("x", [2, -3, Fraction(2, 7), 0.375, 0])
def test_mul_by_scalar_scales_coefficients(x):
    """The same values as a product with a constant jet (up to the sign of
    a zero), exact coefficients staying Fractions."""
    alg = JetAlgebra.get(2, 3)
    f = random_float_jet(alg, 2, np.random.default_rng(1))
    got = f * x
    ref = f * Jet.const(alg, float(x), False)
    assert got.valid == ref.valid == 2 and np.array_equal(got.c, ref.c)
    assert np.array_equal((x * f).c, got.c)
    e = Poly(2, {(1, 0): Fraction(1, 3), (1, 2): Fraction(-5, 2)}) \
        .jet(alg, (Fraction(1, 2), Fraction(2)), True)
    if isinstance(x, float):
        with pytest.raises(ScalarKindError):
            e * x
        return
    got = e * x
    assert got == e * Jet.const(alg, Fraction(x), True)
    assert got.valid == e.valid and all(type(c) is Fraction for c in got.c)


@pytest.mark.parametrize("re_v, im_v, x_v", [(3, 3, 3), (3, 2, 1), (1, 3, 3),
                                             (2, 3, None), (0, 3, 2)])
def test_dual_times_jet_or_scalar(re_v, im_v, x_v):
    """Dual(re, im) * x = Dual(re x, im x): re keeps min(re, x) ``valid``,
    im min(re, im, x), as the full Dual product with x + eps 0 gives."""
    alg = JetAlgebra.get(2, 3)
    rng = np.random.default_rng(re_v + 4 * im_v)
    d = Dual(random_float_jet(alg, re_v, rng), random_float_jet(alg, im_v, rng))
    x = 1.75 if x_v is None else random_float_jet(alg, x_v, rng)
    cap = alg.order if x_v is None else x_v
    zero = Jet.const(alg, 0.0, False)
    full = Dual(d.re * x, d.re * (d.im * zero) + d.im * x)
    for got in (d * x, x * d):
        assert got.re.valid == min(re_v, cap)
        assert got.im.valid == min(re_v, im_v, cap) == full.im.valid
        assert np.allclose(got.re.c, full.re.c, rtol=0, atol=1e-15)
        assert np.allclose(got.im.c, full.im.c, rtol=0, atol=1e-15)
        assert not got.im.c[alg.deg > got.im.valid].any()


def test_jets_are_unhashable():
    """Jets equal up to the smaller ``valid`` compare equal, and equality is
    not transitive, so no hash can agree with it: a Jet is unhashable, and
    no set can hold two equal jets."""
    alg = JetAlgebra.get(2, 3)
    c = np.arange(alg.N, dtype=float)
    a, b = Jet(alg, c, 3, False), Jet(alg, np.where(alg.deg > 2, 0.0, c), 2,
                                      False)
    assert a == b
    with pytest.raises(TypeError):
        {a, b}
    with pytest.raises(TypeError):
        hash(a)
