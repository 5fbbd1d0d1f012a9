"""The Phi-chain, matrix products over the exterior algebra, against the
per-assignment loop, kept here as the reference, on every scalar kind and
cycle shape the Phi-chain meets.

``reference_cycle_alt_form`` is that loop: one contraction per (key,
assignment) pair on views of the factors.  ``reference_phi_chain_form``
joins its cycle forms one component pair at a time.  The engine sums in
its own order, so exact kinds must agree exactly and float kinds to 1e-13
of the largest coefficient, with the same per-component ``valid`` orders.
"""

import itertools
import math
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from curvlab import invariants as inv
from curvlab.conformal import ConformalFactor, _dual_context, clone_context
from curvlab.invariants import (InvariantPolynomial, phi_w_c_form, rho_phi,
                                star_p_phi_form)
from curvlab.jets import Dual, Jet, JetAlgebra
from curvlab.models import berger_product, random_conformal_factor
from curvlab.tensors import AltForm, Permutation, Tensor, einsum, perm_sign

FLOAT_TOL = 1e-13


def _assignments(values, degs):
    def rec(remaining, q):
        if q == len(degs):
            if not remaining:
                yield []
            return
        for pick in itertools.combinations(remaining, degs[q]):
            rest = tuple(v for v in remaining if v not in pick)
            for tail in rec(rest, q + 1):
                yield [pick] + tail

    for groups in rec(tuple(values), 0):
        flat = tuple(v for g in groups for v in g)
        order = tuple(sorted(range(len(flat)), key=lambda i: flat[i]))
        yield groups, perm_sign(order)


def reference_cycle_alt_form(factors, cycle, dim) -> AltForm:
    """The per-assignment loop: for every increasing key and every split of
    it into per-factor groups, the signed trace of the factors' matrix
    slices, summed per key and scaled by 2^(2-forms) / (total degree)!."""
    mats = [factors[a] for a in cycle]
    degs = [f.rank - 2 for f in mats]
    total = sum(degs)
    weight = Fraction(2 ** degs.count(2), math.factorial(total))
    letters = "ABCDEFGH"
    subs = ",".join(letters[q] + letters[(q + 1) % len(mats)]
                    for q in range(len(mats))) + "->"
    comps = {}
    for key in itertools.combinations(range(dim), total):
        acc = None
        for groups, sign in _assignments(key, degs):
            slices = [m.data[(slice(None), slice(None)) + g]
                      for m, g in zip(mats, groups)]
            val = einsum(subs, *slices)[()]
            term = val if sign > 0 else -val
            acc = term if acc is None else acc + term
        val = weight * acc
        if val:
            comps[key] = val
    return AltForm(dim, total, comps)


def reference_alt_mul(x: AltForm, y: AltForm) -> AltForm:
    """Alt(x (x) y) one component pair at a time: for every key, the signed
    products over its splits into increasing groups of x's and y's degree,
    skipping components a form does not hold, times p! q! / (p + q)!."""
    p, q = x.degree, y.degree
    w = Fraction(math.factorial(p) * math.factorial(q), math.factorial(p + q))
    comps = {}
    for key in itertools.combinations(range(x.dim), p + q):
        acc = None
        for (s, t), sign in _assignments(key, (p, q)):
            if s in x.comps and t in y.comps:
                term = x.comps[s] * y.comps[t]
                term = term if sign > 0 else -term
                acc = term if acc is None else acc + term
        if acc is not None:
            comps[key] = w * acc
    return AltForm(x.dim, p + q, comps)


def reference_phi_chain_form(stack, phi, factors) -> AltForm:
    """The Phi-chain form from the per-assignment cycle forms, joined by
    ``reference_alt_mul`` and summed per key; zeros are left out."""
    total = {}
    for c, sigma in phi.terms:
        term = None
        for cyc in inv._cycles(sigma):
            part = reference_cycle_alt_form(factors, cyc, stack.dim)
            term = part if term is None else reference_alt_mul(term, part)
        for key, x in term.comps.items():
            total[key] = total[key] + c * x if key in total else c * x
    return AltForm(stack.dim, sum(f.rank - 2 for f in factors),
                   {key: x for key, x in total.items() if x})


@contextmanager
def per_assignment():
    with mock.patch.object(inv, "_phi_chain_form", reference_phi_chain_form):
        yield


def phi_chain_form(stack, phi, factors) -> AltForm:
    """``invariants._phi_chain_form`` looked up at each call, so that
    ``per_assignment`` reaches it."""
    return inv._phi_chain_form(stack, phi, factors)


def engine_and_reference(fn, stack, *args):
    """fn by the engine and by the per-assignment loop, each from an empty
    cycle cache on the stack, which is left empty."""
    try:
        stack._phi_cycles.clear()
        got = fn(stack, *args)
        stack._phi_cycles.clear()
        with per_assignment():
            ref = fn(stack, *args)
    finally:
        stack._phi_cycles.clear()
    return got, ref


def _jets(x) -> list:
    return [x.re, x.im] if isinstance(x, Dual) else [x]


def assert_exact_equal(got: AltForm, ref: AltForm):
    """The same keys and the same values; Fractions stay Fractions and
    jets keep their ``valid`` orders."""
    assert (got.dim, got.degree) == (ref.dim, ref.degree)
    assert got.comps.keys() == ref.comps.keys()
    for key, x in got.comps.items():
        y = ref.comps[key]
        assert type(x) is type(y)
        assert x == y
        if isinstance(x, Jet):
            assert x.valid == y.valid


def assert_float_close(got: AltForm, ref: AltForm):
    """The same keys, every coefficient within FLOAT_TOL of the largest
    one, and identical ``valid`` orders per component and part."""
    assert (got.dim, got.degree) == (ref.dim, ref.degree)
    assert got.comps.keys() == ref.comps.keys()
    scale = max([float(np.abs(j.c).max()) for y in ref.comps.values()
                 for j in _jets(y)] + [1e-300])
    for key, x in got.comps.items():
        for a, b in zip(_jets(x), _jets(ref.comps[key]), strict=True):
            assert a.valid == b.valid
            assert np.abs(a.c - b.c).max() <= FLOAT_TOL * scale


def _cyclic(k: int) -> InvariantPolynomial:
    """tr(w^k): one k-cycle, symmetrized."""
    return InvariantPolynomial(k, [(Fraction(1), Permutation(
        tuple(range(1, k)) + (0,)))])


IDENTITY_2 = InvariantPolynomial(2, [(Fraction(1), Permutation((0, 1)))])


# -- exact kinds ----------------------------------------------------------------


@pytest.mark.parametrize("t", [Fraction(4), Fraction(9, 4)])
def test_exact_berger_frames(t, berger4_stack):
    st = berger4_stack if t == 4 else berger_product(t).stack
    phi = InvariantPolynomial.pair_swap()
    for fn in (phi_w_c_form, star_p_phi_form):
        got, ref = engine_and_reference(fn, st, phi)
        assert_exact_equal(got, ref)
        assert all(type(x) is Fraction for x in got.comps.values())
    got, ref = engine_and_reference(rho_phi, st, phi)
    assert [type(x) for x in got.components.a] == [Fraction] * 4
    assert list(got.components.a) == list(ref.components.a)


def test_exact_jet_charts(s4_exact, cp2_exact):
    """Exact jets run numpy's object einsum: the round S^4 (W = C = 0, as
    the core_identities suite runs it) and the Einstein FS CP^2 chart, whose
    Weyl tensor is not zero."""
    phi = InvariantPolynomial.pair_swap()
    for fn in (phi_w_c_form, star_p_phi_form):
        assert_exact_equal(*engine_and_reference(fn, s4_exact.stack, phi))
    got, ref = engine_and_reference(star_p_phi_form, cp2_exact.stack, phi)
    assert got.comps
    assert_exact_equal(got, ref)


# -- float kinds ----------------------------------------------------------------


@pytest.mark.parametrize("chart, phi", [
    ("chart4", InvariantPolynomial.pair_swap()),
    ("chart6", InvariantPolynomial.pair_swap()),
    ("chart8", InvariantPolynomial.trace_power(2)),  # two 2-cycles, alt_mul
])
def test_float_random_charts(chart, phi, request):
    st = request.getfixturevalue(chart).stack
    for fn in (phi_w_c_form, star_p_phi_form):
        got, ref = engine_and_reference(fn, st, phi)
        assert got.comps
        assert_float_close(got, ref)


def test_dual_context_of_linearize(chart4):
    """The dual-number stack ``linearize(ctx, "rho_phi", ...)`` runs on."""
    ups = ConformalFactor.from_poly(random_conformal_factor(4, seed=12))
    st = _dual_context(chart4, ups.field(chart4)).stack
    phi = InvariantPolynomial.pair_swap()
    for fn in (phi_w_c_form, star_p_phi_form):
        got, ref = engine_and_reference(fn, st, phi)
        assert all(isinstance(x, Dual) for x in got.comps.values())
        assert_float_close(got, ref)
    got, ref = engine_and_reference(rho_phi, st, phi)
    for x, y in zip(got.components.a, ref.components.a):
        for a, b in zip(_jets(x), _jets(y), strict=True):
            assert a.valid == b.valid
            assert np.abs(a.c - b.c).max() <= FLOAT_TOL * max(
                1.0, float(np.abs(b.c).max()))


# -- the cycle cache on the stack --------------------------------------------------


def _fresh_stack(ctx):
    return clone_context(ctx, ctx.metric).stack


@pytest.mark.parametrize("first", ["weyl", "riemann"])
def test_cycle_cache_keeps_factors_apart(chart4, first):
    """On one stack the Riemann and the Weyl forms, in either order, and
    the Cotton chain, are those of fresh stacks."""
    phi = InvariantPolynomial.pair_swap()
    st = _fresh_stack(chart4)
    second = "weyl" if first == "riemann" else "riemann"
    got = {w: star_p_phi_form(st, phi, w) for w in (first, second)}
    got["cotton"] = phi_w_c_form(st, phi)
    assert got["weyl"].comps and got["riemann"].comps
    for which in (first, second):
        assert_exact_equal(got[which], star_p_phi_form(_fresh_stack(chart4),
                                                       phi, which))
    assert_exact_equal(got["cotton"], phi_w_c_form(_fresh_stack(chart4), phi))
    assert len(st._phi_cycles) == 3
    for key, (held, _) in st._phi_cycles.items():
        ids = tuple(map(id, held))
        assert key in {ids[i:] + ids[:i] for i in range(len(ids))}


def test_cycle_cache_across_polynomials(chart4):
    """tr(w^2) and tr(w^2)/2 share their one cycle: trace_power(1) gives
    twice pair_swap on one stack."""
    st = _fresh_stack(chart4)
    half = star_p_phi_form(st, InvariantPolynomial.pair_swap())
    full = star_p_phi_form(st, InvariantPolynomial.trace_power(1))
    assert len(st._phi_cycles) == 1
    assert full.comps.keys() == half.comps.keys()
    for key, x in full.comps.items():
        assert x == half.comps[key] * 2


# -- cycle shapes on random factors of every kind ---------------------------------


def _random_factor(kind: str, dim: int, rank: int, rng) -> Tensor:
    """A (d, u, form...) tensor of random scalars of one kind; the cycle
    code reads only increasing form-index groups, so no symmetry is
    needed."""
    shape = (dim,) * rank
    a = np.empty(shape, dtype=object)
    alg = JetAlgebra.get(2, 2)
    for idx in np.ndindex(shape):
        if kind == "fraction":
            a[idx] = Fraction(int(rng.integers(-9, 10)),
                              int(rng.integers(1, 4)))
        else:
            exact = kind == "exact-jet"
            c = [Fraction(int(x), 3) for x in rng.integers(-5, 6, alg.N)] \
                if exact else rng.standard_normal(alg.N)
            jets = [Jet(alg, np.array(c, dtype=object if exact else float),
                        int(rng.integers(0, 3)), exact)]
            if kind == "dual":
                jets.append(Jet(alg, rng.standard_normal(alg.N),
                                int(rng.integers(0, 3)), False))
            for j in jets:
                j.c[alg.deg > j.valid] = 0
            a[idx] = jets[0] if kind != "dual" else Dual(*jets)
    return Tensor(dim, ("d", "u") + ("d",) * (rank - 2), a).pack()


@pytest.mark.parametrize("kind", ["fraction", "float-jet", "dual",
                                  "exact-jet"])
@pytest.mark.parametrize("phi", [
    InvariantPolynomial.pair_swap(),    # one 2-cycle
    IDENTITY_2,                         # two 1-cycles
    _cyclic(3),                         # 3-cycles: one middle factor
    # a 1-cycle and a 2-cycle: forms of unequal degree joined
    InvariantPolynomial(3, [(Fraction(1), Permutation((0, 2, 1)))]),
], ids=["pair_swap", "identity2", "cyclic3", "cycles12"])
def test_cycle_shapes_on_random_factors(kind, phi):
    rng = np.random.default_rng(7)
    dim = 5
    C = _random_factor(kind, dim, 3, rng)
    W = _random_factor(kind, dim, 4, rng)
    stub = SimpleNamespace(dim=dim, _phi_cycles={})
    compare = assert_exact_equal if kind in ("fraction", "exact-jet") \
        else assert_float_close
    k = phi.degree
    for factors in [[C] + [W] * (k - 1)] + [[W] * k] * (2 * k <= dim):
        got, ref = engine_and_reference(phi_chain_form, stub, phi, factors)
        assert got.comps
        compare(got, ref)


@pytest.mark.parametrize("kind", ["fraction", "float-jet", "dual",
                                  "exact-jet"])
def test_three_cycle_of_distinct_factors(kind):
    """tr(C W V) for three different random factors: the chain multiplies
    in cycle order.  A symmetrized Phi sums both orientations of a 3-cycle,
    so this reads the cycle form itself."""
    rng = np.random.default_rng(9)
    dim = 5
    factors = [_random_factor(kind, dim, rank, rng) for rank in (3, 4, 4)]
    compare = assert_exact_equal if kind in ("fraction", "exact-jet") \
        else assert_float_close
    got = AltForm.from_rows(dim, 5, inv._cycle_alt_form(factors, (0, 1, 2),
                                                        dim))
    assert got.comps
    compare(got, reference_cycle_alt_form(factors, (0, 1, 2), dim))


def test_four_cycle_at_n8():
    """tr w^4 at n = 8: 2,520 assignments of one key for four 2-forms and
    630 for each of 8 keys with a 1-form first."""
    rng = np.random.default_rng(8)
    C = _random_factor("fraction", 8, 3, rng)
    W = _random_factor("fraction", 8, 4, rng)
    for factors in ([W] * 4, [C, W, W, W]):
        total = sum(f.rank - 2 for f in factors)
        got = AltForm.from_rows(8, total, inv._cycle_alt_form(
            factors, (0, 1, 2, 3), 8))
        assert_exact_equal(got, reference_cycle_alt_form(factors,
                                                         (0, 1, 2, 3), 8))


def test_degree_above_dimension_is_zero():
    """A Phi-chain, or a product of forms, of degree above the dimension is
    the zero form."""
    rng = np.random.default_rng(10)
    C = _random_factor("float-jet", 4, 3, rng)
    W = _random_factor("float-jet", 4, 4, rng)
    stub = SimpleNamespace(dim=4, _phi_cycles={})
    form = inv._phi_chain_form(stub, _cyclic(3), [C, W, W])
    assert (form.degree, form.comps) == (5, {})
    x = AltForm(3, 2, {(0, 1): Fraction(1)})
    assert x.alt_mul(x).comps == {}
