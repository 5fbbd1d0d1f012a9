import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from curvlab.errors import DimensionError, SlotError
from curvlab.geometry import GeometryContext, jet_ring
from curvlab.invariants import (InvariantPolynomial, T_k_W,
                                conformal_killing_K, functional_density,
                                lovelock_E, mixed_to_down, omega_k,
                                p_phi_scalar, pfaffian_k, pfaffian_of,
                                phi_w_c_form, rho_phi, star_p_phi_form,
                                star_rho_general, trace_mixed, xi_k)
from curvlab.jets import scalar_float
from curvlab.models import (berger_product, flat_chart, killing_field_T,
                            random_chart, round_sphere_chart)
from curvlab.polys import Poly
from curvlab.scalars import RATIONAL
from curvlab.tensors import (Permutation, Tensor, generalized_delta,
                             hodge_star, is_zero_tensor, max_abs, raise_slot,
                             residual, tensors_equal, zeros)


def index_tensor(phi, dim, ring):
    """Oracle: the materialized Phi_{s_1..s_k}^{t_1..t_k}, one term at a
    time, with t_b = s_{sigma^-1(b)}."""
    k = phi.degree
    t = zeros(dim, ("d",) * k + ("u",) * k, ring)
    for c, sigma in phi.terms:
        inv = sigma.inverse().images
        for s_idx in np.ndindex((dim,) * k):
            t_idx = tuple(s_idx[inv[b]] for b in range(k))
            t.a[s_idx + t_idx] = t.a[s_idx + t_idx] + c * ring.one()
    return t


def eval_matrices(phi, mats):
    """Oracle: Phi(A_1..A_k) for (d,u)-valence matrix tensors, the product
    over each cycle of sigma of the trace of the matrices along it, summed
    over the terms (c, sigma)."""
    assert len(mats) == phi.degree
    total = Fraction(0)
    for c, sigma in phi.terms:
        images, seen, term = sigma.images, set(), c
        for start in range(len(images)):
            if start in seen:
                continue
            prod, a = mats[start].a, images[start]
            seen.add(start)
            while a != start:
                prod = np.dot(prod, mats[a].a)
                seen.add(a)
                a = images[a]
            term = term * np.trace(prod)
        total += term
    return total


class TestPfaffian:
    def test_flat_is_zero(self):
        st = flat_chart(4, jet_order=2, exact=True).stack
        assert not pfaffian_of(st, 2, "riemann")

    def test_unit_s4_brute_force_oracle(self):
        """Frozen oracle: full materialized-delta contraction of R = g (kn) g."""
        st = round_sphere_chart(4, jet_order=2, exact=True).stack
        rm = st.at_point(st.rm_dduu)
        d = generalized_delta(4, 4, RATIONAL)
        oracle = np.einsum("abcdABCD,ABab,CDcd->", d.a, rm.a, rm.a) \
            * Fraction(1, 2)
        assert oracle == 48
        assert st.ctx.point_value(pfaffian_of(st, 2, "riemann")) == oracle

    def test_berger_trace_identity(self, berger4_stack):
        st = berger4_stack
        om = omega_k(st, 2, "dim2k")
        assert trace_mixed(om) == pfaffian_of(st, 2, "riemann") \
            - pfaffian_of(st, 2, "weyl")

    def test_valence_check(self):
        with pytest.raises(SlotError):
            pfaffian_k(zeros(4, ("d",) * 4, RATIONAL), 2, RATIONAL)


class TestXi:
    def test_conformally_flat_vanishes(self, s4_exact):
        st = s4_exact.stack
        assert is_zero_tensor(xi_k(st, 2).components)

    def test_killing_pairing_on_berger(self, berger4, berger4_stack):
        xi = xi_k(berger4_stack, 2)
        assert xi.weight == -4
        assert not functional_density(berger4, xi, killing_field_T(berger4))

    def test_home_dimension_enforced(self):
        st = random_chart(6, seed=0, jet_order=2).stack
        with pytest.raises(DimensionError):
            xi_k(st, 2)


def uncached_symmetrization(degree, terms):
    """Oracle: each term (c, sigma) averaged over its conjugates tau sigma
    tau^-1, tau running over S_degree in lexicographic order, as [(c,
    images)] in the order the conjugates first appear, zeros dropped."""
    acc = {}
    for c, sigma in terms:
        for tau in itertools.permutations(range(degree)):
            conj = [0] * degree
            for i in range(degree):     # conj(tau(i)) = tau(sigma(i))
                conj[tau[i]] = tau[sigma[i]]
            key = tuple(conj)
            acc[key] = acc.get(key, 0) + Fraction(c) / math.factorial(degree)
    return [(c, images) for images, c in acc.items() if c]


class TestInvariantPolynomial:
    @pytest.mark.parametrize("degree, terms", [
        (2, [(Fraction(1, 2), (1, 0))]),            # pair_swap
        (2, [(Fraction(1), (1, 0))]),               # trace_power(1)
        (4, [(Fraction(1), (1, 0, 3, 2))]),         # trace_power(2)
        (3, [(Fraction(1), (1, 2, 0))]),            # a 3-cycle
        (3, [(Fraction(2), (1, 2, 0)), (Fraction(-1, 3), (0, 2, 1))]),
    ])
    def test_cached_symmetrization_matches_the_loop(self, degree, terms):
        """The cached S_k average gives the loop's terms, in its order, as
        a tuple shared by every polynomial of the same degree and terms."""
        phi = InvariantPolynomial(degree, [(c, Permutation(images))
                                           for c, images in terms])
        got = [(c, sigma.images) for c, sigma in phi.terms]
        assert got == uncached_symmetrization(degree, terms)
        assert InvariantPolynomial(degree, terms).terms is phi.terms

    @pytest.mark.parametrize("make, c, images", [
        (InvariantPolynomial.pair_swap, Fraction(1, 2), (1, 0)),
        (lambda: InvariantPolynomial.trace_power(1), Fraction(1), (1, 0)),
        (lambda: InvariantPolynomial.trace_power(2), Fraction(1),
         (1, 0, 3, 2)),
    ])
    def test_named_polynomials_match_the_loop(self, make, c, images):
        phi = make()
        assert [(x, s.images) for x, s in phi.terms] == \
            uncached_symmetrization(len(images), [(c, images)])
        assert make().terms is phi.terms

    def test_terms_cannot_be_mutated(self):
        phi = InvariantPolynomial.pair_swap()
        with pytest.raises(TypeError):
            phi.terms[0] = (Fraction(1), Permutation((0, 1)))
        with pytest.raises(AttributeError):
            phi.terms.append((Fraction(1), Permutation((0, 1))))
        with pytest.raises(TypeError):
            phi.terms[0][0] = Fraction(3)
        assert InvariantPolynomial.pair_swap().terms == \
            ((Fraction(1, 2), Permutation((1, 0))),)

    def test_pair_swap_evaluates_to_half_trace_square(self):
        phi = InvariantPolynomial.pair_swap()
        rng = np.random.default_rng(0)
        m = zeros(3, ("d", "u"), RATIONAL)
        for idx in np.ndindex(3, 3):
            m.a[idx] = Fraction(int(rng.integers(-4, 5)))
        val = eval_matrices(phi, [m, m])
        tr2 = np.einsum("ab,ba->", m.a, m.a)
        assert val == Fraction(1, 2) * tr2

    def test_trace_power_on_equal_arguments(self):
        phi = InvariantPolynomial.trace_power(2)
        rng = np.random.default_rng(1)
        m = zeros(3, ("d", "u"), RATIONAL)
        for idx in np.ndindex(3, 3):
            m.a[idx] = Fraction(int(rng.integers(-3, 4)))
        tr2 = np.einsum("ab,ba->", m.a, m.a)
        assert eval_matrices(phi, [m] * 4) == tr2 * tr2

    def test_symmetrized_index_form(self):
        phi = InvariantPolynomial(2, [(Fraction(1), Permutation((0, 1)))])
        t = index_tensor(phi, 2, RATIONAL)
        # S_2 symmetry: Phi_{s1 s2}^{t1 t2} = Phi_{s2 s1}^{t2 t1}
        assert tensors_equal(t, t.permuted((1, 0, 3, 2)))

    def test_index_form_matches_evaluation(self):
        phi = InvariantPolynomial.pair_swap()
        t = index_tensor(phi, 2, RATIONAL)
        rng = np.random.default_rng(2)
        mats = []
        for _ in range(2):
            m = zeros(2, ("d", "u"), RATIONAL)
            for idx in np.ndindex(2, 2):
                m.a[idx] = Fraction(int(rng.integers(-4, 5)))
            mats.append(m)
        direct = eval_matrices(phi, mats)
        via_index = np.einsum("stAB,As,Bt->", t.a, mats[0].a, mats[1].a)
        assert direct == via_index


class TestPPhi:
    def test_odd_degree_vanishes(self):
        """p_Phi(W) = 0 for odd k: degree-3 cyclic trace polynomial, dim 6."""
        st = random_chart(6, seed=3, jet_order=2).stack
        phi = InvariantPolynomial(3, [(Fraction(1), Permutation((1, 2, 0)))])
        p = p_phi_scalar(st, phi, "weyl")
        assert abs(scalar_float(p)) < 1e-12

    def test_weyl_equals_riemann(self):
        st = random_chart(4, seed=4, jet_order=2).stack
        phi = InvariantPolynomial.pair_swap()
        pw = scalar_float(p_phi_scalar(st, phi, "weyl"))
        pr = scalar_float(p_phi_scalar(st, phi, "riemann"))
        assert abs(pw - pr) <= 1e-8 * max(1.0, abs(pw))

    def test_berger_vanishes(self, berger4_stack):
        phi = InvariantPolynomial.pair_swap()
        assert not p_phi_scalar(berger4_stack, phi, "weyl")

    def test_star_form_antisymmetric_sources(self, berger4_stack):
        form = star_p_phi_form(berger4_stack, InvariantPolynomial.pair_swap())
        assert form.degree == 4


class TestRho:
    def test_einstein_reduction(self, cp2_exact):
        """C = 0 forces rho = grad p_Phi(W) / (2k) (FS chart is Einstein)."""
        st = cp2_exact.stack
        phi = InvariantPolynomial.pair_swap()
        rho = rho_phi(st, phi)
        p = p_phi_scalar(st, phi, "weyl")
        expect = st.grad_scalar(p).scale(Fraction(1, 4))
        assert tensors_equal(st.at_point(rho.components), st.at_point(expect))

    def test_berger_density(self, berger4, berger4_stack):
        phi = InvariantPolynomial.pair_swap()
        rho = rho_phi(berger4_stack, phi)
        assert functional_density(berger4, rho, killing_field_T(berger4)) == 48

    def test_flat_vanishes(self):
        st = flat_chart(4, jet_order=3, exact=True).stack
        phi = InvariantPolynomial.pair_swap()
        assert is_zero_tensor(rho_phi(st, phi).components)

    def test_unoriented_rejected(self, berger4, berger4_stack):
        from curvlab.conformal import clone_context
        ctx = clone_context(berger4, berger4.metric)
        ctx.orientation = None
        with pytest.raises(DimensionError):
            rho_phi(ctx.stack, InvariantPolynomial.pair_swap())

    def test_star_rho_cross_check_on_chart(self):
        ctx = random_chart(4, seed=6, jet_order=3)
        st = ctx.stack
        phi = InvariantPolynomial.pair_swap()
        rho = rho_phi(st, phi).components.at_point()
        ssr = hodge_star(ctx, star_rho_general(st, phi)).at_point()
        assert residual(rho, ssr.scale(-1)) < 1e-12

    def test_star_rho_pole_rejected(self):
        st = random_chart(4, seed=6, jet_order=2).stack
        phi = InvariantPolynomial(1, [(Fraction(1), Permutation((0,)))])
        with pytest.raises(DimensionError):
            star_rho_general(st, phi)   # n = 4k at k = 1, dim 4


class TestTOmegaE:
    def test_T_vanishes_in_home_dimension(self):
        st = random_chart(4, seed=8, jet_order=2).stack
        T = T_k_W(st, 2)
        assert max_abs(T.at_point()) < 1e-12 * max(
            1.0, max_abs(st.weyl.at_point()))

    def test_lovelock_symmetric(self):
        st = random_chart(6, seed=9, jet_order=2).stack
        E = mixed_to_down(st, lovelock_E(st, 2)).at_point()
        assert residual(E, E.permuted((1, 0))) < 1e-12

    def test_dimension_checks(self):
        st = random_chart(4, seed=9, jet_order=2).stack
        with pytest.raises(DimensionError):
            omega_k(st, 2, "general_n")
        st6 = random_chart(6, seed=9, jet_order=2).stack
        with pytest.raises(DimensionError):
            omega_k(st6, 2, "dim2k")
        with pytest.raises(SlotError):
            omega_k(st, 2, "bogus")


class TestKillingOperators:
    def test_killing_field_annihilated(self, berger4, berger4_stack):
        theta = zeros(4, ("d",), RATIONAL)
        theta.a[3] = Fraction(1)
        assert is_zero_tensor(conformal_killing_K(berger4_stack, theta))

    def test_gradient_oracle_on_flat(self):
        """K(df) = 2 hess f - (2/n) lap f g on flat space, f = |x|^2/2."""
        ctx = flat_chart(4, jet_order=3, exact=True,
                         base_point=(Fraction(1), Fraction(2), Fraction(-1),
                                     Fraction(1, 2)))
        st = ctx.stack
        f = Poly(4, {tuple(2 if v == w else 0 for w in range(4)):
                     Fraction(1, 2) for v in range(4)})
        fj = f.jet(ctx.jet_algebra, ctx.base_point, True)
        alpha = st.grad_scalar(fj)
        K = conformal_killing_K(st, alpha)
        hess = st.nabla(alpha)
        lap = st.trace(hess)
        expect = hess.scale(2) - ctx.metric.scale(lap * Fraction(2, 4))
        assert tensors_equal(st.at_point(K), st.at_point(expect))
        # trace-free by construction
        assert not st.ctx.point_value(st.trace(K))

    def test_kstar_of_parallel_tracefree(self):
        ctx = flat_chart(3, jet_order=2, exact=True)
        st = ctx.stack
        a = zeros(3, ("d", "d"), RATIONAL)
        a.a[0, 0], a.a[1, 1], a.a[2, 2] = Fraction(2), Fraction(-1), \
            Fraction(-1)
        ks = st.div(a, 0).scale(-2)      # K*(A)_i = -2 grad^k A_ki
        assert is_zero_tensor(ks)

    def test_density_requires_homogeneous(self):
        ctx = random_chart(4, seed=10, jet_order=3)
        st = ctx.stack
        phi = InvariantPolynomial.pair_swap()
        rho = rho_phi(st, phi)
        X = zeros(4, ("u",), ctx.ring)
        with pytest.raises(DimensionError):
            functional_density(ctx, rho, X)


class TestProductFactorizationPieces:
    def test_phi_w_c_form_single_component(self, berger4_stack):
        phi = InvariantPolynomial.pair_swap()
        G = phi_w_c_form(berger4_stack, phi)
        assert set(G.comps) == {(0, 1, 2)}
        assert G.comps[(0, 1, 2)] == -96


class TestKernelVsMaterializedOracle:
    """The delta-contraction kernel against naive materialized-delta einsums
    (independent route: full dense delta tensor, no permutation sum)."""

    def test_T_E_omega_match_naive(self, berger4_stack):
        st = berger4_stack
        W, P, R = st.weyl_dduu, st.schouten_mixed, st.rm_dduu
        d5 = generalized_delta(5, 4, RATIONAL)
        t_naive = np.einsum("iabcdjABCD,ABab,CDcd->ij", d5.a, W.a, W.a,
                            optimize=True) * Fraction(1, 2)
        assert np.all(T_k_W(st, 2).a == t_naive)
        e_naive = np.einsum("iabcdjABCD,ABab,CDcd->ij", d5.a, R.a, R.a,
                            optimize=True) * Fraction(1, 2)
        assert np.all(lovelock_E(st, 2).a == e_naive)
        d3 = generalized_delta(3, 4, RATIONAL)
        d4 = generalized_delta(4, 4, RATIONAL)
        om_naive = np.einsum("iabjAB,Aa,Bb->ij", d3.a, P.a, P.a,
                             optimize=True) * Fraction(8) \
            + np.einsum("iabcjABC,ABab,Cc->ij", d4.a, W.a, P.a,
                        optimize=True) * Fraction(4)
        assert np.all(omega_k(st, 2, "dim2k").a == om_naive)

    def test_pfaffian_matches_naive(self, berger4_stack):
        st = berger4_stack
        for which in ("weyl", "riemann"):
            A = st.weyl_dduu if which == "weyl" else st.rm_dduu
            d4 = generalized_delta(4, 4, RATIONAL)
            naive = np.einsum("abcdABCD,ABab,CDcd->", d4.a, A.a, A.a) \
                * Fraction(1, 2)
            assert pfaffian_of(st, 2, which) == naive


def test_xi_invariance_beyond_k2():
    """The weight -2k one-form is conformally invariant at k = 3 as well."""
    import math
    from curvlab.conformal import ConformalFactor, rescale
    from curvlab.models import random_conformal_factor
    ctx = random_chart(6, seed=31, jet_order=3)
    st = ctx.stack
    xi3 = xi_k(st, 3)
    assert xi3.weight == -6
    ups = ConformalFactor.from_poly(random_conformal_factor(6, seed=31))
    hat = rescale(ctx, ups)
    xi3h = xi_k(hat.stack, 3)
    u0 = ups.value_at_base(ctx)
    assert residual(xi3h.components.at_point().scale(math.exp(6 * u0)),
                    xi3.components.at_point()) < 1e-10


def test_rho_invariance_in_dimension_eight(chart8):
    """e^{8 Ups} rho-hat^Phi = rho^Phi for Phi = (tr w^2)^2 on a random
    8-dimensional chart, at least 6 decades inside the 1e-8 invariance
    tolerance.  |rho| is about 1e-5 here, so the residual is taken relative
    to max|rho|, not to ``residual``'s floor of 1."""
    from curvlab.conformal import ConformalFactor, rescale
    from curvlab.models import random_conformal_factor
    ctx = chart8
    ups = ConformalFactor.from_poly(random_conformal_factor(8, seed=81))
    phi = InvariantPolynomial.trace_power(2)
    rho = rho_phi(ctx.stack, phi)
    assert rho.weight == -8
    rho_h = rho_phi(rescale(ctx, ups).stack, phi)
    a = rho.components.at_point()
    b = rho_h.components.at_point().scale(
        math.exp(8 * ups.value_at_base(ctx)))
    rel = max_abs(a - b) / max_abs(a)
    assert math.log10(1e-8 / rel) >= 6
