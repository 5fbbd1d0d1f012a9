"""The volume form and its consumers: hodge_star, rho_phi and p_phi_scalar
against a dense-epsilon oracle built here from o sqrt|det g| sign(perm),
on exact contexts of signature (-,+,...,+) and both orientations."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from curvlab import invariants
from curvlab.conformal import (ConformalFactor, _dual_context,
                               clone_context, linearize)
from curvlab.errors import DimensionError
from curvlab.geometry import ChartContext, FrameContext
from curvlab.jets import Dual
from curvlab.invariants import InvariantPolynomial, p_phi_scalar, rho_phi
from curvlab.models import random_chart, random_conformal_factor
from curvlab.polys import RationalFunc
from curvlab.tensors import (AltForm, Permutation, Tensor,
                             contract_with, epsilon_form, hodge_star,
                             is_zero_tensor, max_abs, perm_sign, raise_slot,
                             tensors_equal, zeros)
from curvlab.scalars import RATIONAL, rational_sqrt


def gram(n, rng, lorentzian):
    """A^T eta A for a random integer upper-triangular A with det A = 2, so
    det g = -4 (Lorentzian) or 4 and sqrt|det g| = 2."""
    a = np.eye(n, dtype=int) + np.triu(rng.integers(-2, 3, (n, n)), 1)
    a[n - 1, n - 1] = 2
    eta = np.diag([-1 if lorentzian and i == 0 else 1 for i in range(n)])
    return [[Fraction(int(x)) for x in row] for row in a.T @ eta @ a]


def frame(n, rng, *, lorentzian=True, orientation=-1, structure=None):
    return FrameContext(n, structure or {}, gram(n, rng, lorentzian),
                        orientation=orientation)


def dense_epsilon(ctx) -> Tensor:
    """eps_{i_1..i_n} = o sqrt|det g| sign(i_1..i_n), without ctx.volume."""
    n = ctx.dim
    root = rational_sqrt(abs(ctx.det_metric))
    eps = zeros(n, ("d",) * n, RATIONAL)
    for perm in itertools.permutations(range(n)):
        eps.a[perm] = ctx.orientation * perm_sign(perm) * root
    return eps


def random_form(n, k, rng) -> Tensor:
    return AltForm(n, k, {
        idx: Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))
        for idx in itertools.combinations(range(n), k)}).to_tensor(RATIONAL)


def star_oracle(ctx, alpha: Tensor) -> Tensor:
    """(1/k!) eps^{i_1..i_k}_{j..} alpha_{i_1..i_k} on the dense epsilon."""
    k = alpha.rank
    eps = dense_epsilon(ctx)
    for s in range(k):
        eps = raise_slot(ctx, eps, s)
    if k == 0:
        return eps.scale(alpha.item())
    return contract_with(eps, alpha, [(q, q) for q in range(k)]) \
        .scale(Fraction(1, math.factorial(k)))


def rho_first_oracle(ctx, G: AltForm) -> Tensor:
    """(1/(n-1)!) eps_i^{j_2..j_n} G_{j_2..j_n} on the dense epsilon."""
    n = ctx.dim
    eps = dense_epsilon(ctx)
    for s in range(1, n):
        eps = raise_slot(ctx, eps, s)
    return contract_with(eps, G.to_tensor(RATIONAL),
                         [(q + 1, q) for q in range(n - 1)]) \
        .scale(Fraction(1, math.factorial(n - 1)))


def solvable_structure():
    """[e0, e1] = e1, [e0, e2] = 2 e2, [e0, e3] = 3 e3, [e1, e2] = e3."""
    sc = {}
    for e, a, b, c in ((1, 0, 1, 1), (2, 0, 2, 2), (3, 0, 3, 3), (3, 1, 2, 1)):
        sc[(e, a, b)] = Fraction(c)
        sc[(e, b, a)] = Fraction(-c)
    return sc


class TestVolumePair:
    @pytest.mark.parametrize("lorentzian", [False, True])
    @pytest.mark.parametrize("orientation", [1, -1])
    def test_pair(self, lorentzian, orientation):
        ctx = frame(4, np.random.default_rng(1), lorentzian=lorentzian,
                    orientation=orientation)
        sign = -1 if lorentzian else 1
        assert ctx.det_metric == 4 * sign
        assert ctx.volume == (2 * orientation,
                              Fraction(orientation * sign, 2))

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("orientation", [1, -1])
    def test_epsilon_form_matches_oracle(self, n, orientation):
        ctx = frame(n, np.random.default_rng(n), orientation=orientation)
        assert tensors_equal(epsilon_form(ctx), dense_epsilon(ctx))

    def test_unoriented_rejected(self, berger4):
        ctx = clone_context(berger4, berger4.metric)
        ctx.orientation = 2
        with pytest.raises(DimensionError):
            ctx.volume

    def test_clone_recomputes_cached_values(self, berger4):
        det, volume = berger4.det_metric, berger4.volume
        scaled = clone_context(berger4, berger4.metric.scale(Fraction(4)))
        assert scaled.det_metric == 256 * det
        assert scaled.volume == (16 * volume[0], volume[1] / 16)
        flipped = clone_context(berger4, berger4.metric)
        flipped.orientation = -berger4.orientation
        assert flipped.volume == (-volume[0], -volume[1])

    def test_dual_volume_over_an_exact_frame(self, berger4):
        """sqrt|det| of g + eps (2/3) g on the Berger product at t = 4 stays
        rational: det g = 4 and det grows by 1 + eps 4 (2/3)."""
        volume = _dual_context(berger4, Fraction(1, 3)).volume
        parts = [(v.re, v.im) for v in volume]
        assert all(isinstance(v, Dual) for v in volume)
        assert parts == [(2, Fraction(8, 3)), (Fraction(1, 2), Fraction(-2, 3))]
        assert all(type(x) is Fraction for p in parts for x in p)

    def test_exact_linearization_keeps_fractions(self, berger4):
        """rho^Phi linearized on the exact Berger product runs in
        Fractions throughout, down to its components."""
        lin = linearize(berger4, "rho_phi", ConformalFactor.const(
            Fraction(1, 3)))
        assert all(type(x) is Fraction for x in lin.field.a.flat)


def _flipped_chart(ctx, exact):
    """ctx's chart with g_00 negated (signature (-,+,+,+)) and the opposite
    orientation."""
    entries = [list(row) for row in ctx.metric_polys]
    e = entries[0][0]
    entries[0][0] = RationalFunc(e.num * Fraction(-1), e.den) \
        if isinstance(e, RationalFunc) else e * Fraction(-1)
    return ChartContext.from_polys(entries, base_point=ctx.base_point,
                                   jet_order=ctx.jet_order, exact=exact,
                                   orientation=-ctx.orientation)


class TestVolumeFromLogDeterminant:
    """On jets the pair is o r exp(L/2) and o sgn exp(-L/2) / r with
    r = sqrt|det g(p)|: equal to the root of |det g| and its inverse by
    ``Jet.sqrt`` and ``Jet.inverse``, to 1e-13 on float jets and identical
    on exact ones."""

    @pytest.mark.parametrize("name, flip", [
        ("chart4", False), ("chart4", True), ("cp2_exact", False),
        ("s4_exact", True)])
    def test_matches_the_root_of_the_determinant(self, name, flip, request):
        ctx = request.getfixturevalue(name)
        exact = ctx.ring.exact
        if flip:
            ctx = _flipped_chart(ctx, exact)
        det, o = ctx.det_metric, ctx.orientation
        sign = -1 if det.c[0] < 0 else 1
        assert sign == (-1 if flip else 1)
        root = (det * sign).sqrt()
        for got, want in zip(ctx.volume,
                             (root * o, root.inverse() * (o * sign))):
            assert got.valid == want.valid == ctx.jet_order
            if exact:
                assert list(got.c) == list(want.c)
            else:
                assert np.abs(got.c - want.c).max() \
                    <= 1e-13 * np.abs(want.c).max()


class TestHodgeStar:
    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("orientation", [1, -1])
    def test_matches_dense_oracle(self, n, orientation):
        rng = np.random.default_rng(10 + n)
        ctx = frame(n, rng, orientation=orientation)
        for k in range(n + 1):
            form = random_form(n, k, rng)
            assert tensors_equal(hodge_star(ctx, form),
                                 star_oracle(ctx, form)), k

    @pytest.mark.parametrize("lorentzian", [False, True])
    @pytest.mark.parametrize("k", [3, 4])
    def test_double_star_in_dimension_8(self, k, lorentzian):
        """star star = sgn(det g) (-1)^{k(n-k)} beyond the dense n <= 7 cap."""
        rng = np.random.default_rng(k)
        ctx = frame(8, rng, lorentzian=lorentzian, orientation=1)
        form = random_form(8, k, rng)
        sign = (-1) ** (k * (8 - k)) * (-1 if lorentzian else 1)
        assert tensors_equal(hodge_star(ctx, hodge_star(ctx, form)),
                             form.scale(sign))


class TestRhoPhi:
    @pytest.mark.parametrize("orientation", [1, -1])
    def test_cotton_chain_matches_dense_oracle(self, orientation):
        ctx = frame(4, np.random.default_rng(5), orientation=orientation,
                    structure=solvable_structure())
        st = ctx.stack
        phi = InvariantPolynomial.pair_swap()
        G = invariants.phi_w_c_form(st, phi)
        assert len(G.comps) == 4
        oracle = rho_first_oracle(ctx, G)
        assert not is_zero_tensor(oracle)
        assert tensors_equal(rho_phi(st, phi).components, oracle)

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("orientation", [1, -1])
    def test_contraction_of_any_form(self, n, orientation, monkeypatch):
        """The volume contraction alone, on a random (n-1)-form G with every
        component nonzero (a flat frame, so grad p_Phi = 0)."""
        rng = np.random.default_rng(20 + n)
        ctx = frame(n, rng, orientation=orientation)
        G = AltForm(n, n - 1, {
            idx: Fraction(int(rng.choice([-3, -2, -1, 1, 2, 3])))
            for idx in itertools.combinations(range(n), n - 1)})
        monkeypatch.setattr(invariants, "phi_w_c_form", lambda st, phi: G)
        k = n // 2
        phi = InvariantPolynomial(k, [(Fraction(1), Permutation(
            tuple(range(1, k)) + (0,)))])
        assert tensors_equal(rho_phi(ctx.stack, phi).components,
                             rho_first_oracle(ctx, G))

    def test_p_phi_sign(self):
        """p_Phi = top component * o sgn(det g) / sqrt|det g|."""
        rng = np.random.default_rng(5)
        phi = InvariantPolynomial.pair_swap()
        values = {}
        for lorentzian in (False, True):
            for orientation in (1, -1):
                ctx = frame(4, rng, lorentzian=lorentzian,
                            orientation=orientation,
                            structure=solvable_structure())
                form = invariants.star_p_phi_form(ctx.stack, phi)
                top = form.comps.get((0, 1, 2, 3), Fraction(0))
                sign = orientation * (-1 if lorentzian else 1)
                assert p_phi_scalar(ctx.stack, phi) == top * sign / 2
                values[lorentzian, orientation] = top
        assert any(values.values())

    def test_linearized_invariance_on_lorentzian_chart(self):
        """D_g rho^Phi(Ups) at weight -4 vanishes with g_00 < 0: the sign of a
        dual determinant is read from its real part."""
        base = random_chart(4, seed=5, jet_order=3)
        entries = [list(row) for row in base.metric_polys]
        entries[0][0] = entries[0][0] * -1
        ctx = ChartContext.from_polys(entries, base_point=base.base_point,
                                      jet_order=3)
        rho = rho_phi(ctx.stack, InvariantPolynomial.pair_swap())
        ups = ConformalFactor.from_poly(random_conformal_factor(4, 1))
        lin = linearize(ctx, "rho_phi", ups)
        scale = max_abs(rho.components.at_point())
        assert scale > 1e-4
        assert max_abs(lin.value) <= 1e-8 * max(1.0, scale)
