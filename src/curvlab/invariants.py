"""Curvature invariants built from generalized-delta and trace-polynomial
contractions: the Pfaffian-type scalars, the distinguished one-forms of
weight -2k, their Pontrjagin-flavoured relatives, the generalized Einstein
tensors, and the conformal Killing operator pair.

Index conventions follow the curvature stack: W all-down, C_ijk
antisymmetric in (i, j), and every delta contraction is a product of
double forms read off on increasing indices (``tensors.gkd_contract``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DimensionError, SlotError
from .tensors import (AltForm, Permutation, Tensor, _alt_product, _keys,
                      _wedge, contract, contract_with, einsum, gkd_contract,
                      lower_slot, raise_slot, signed_permutations)


@dataclass(frozen=True)
class WeightedOneForm:
    """One-form components at a point, tagged with a claimed conformal weight."""

    components: Tensor
    weight: int


class InvariantPolynomial:
    """Homogeneous invariant polynomial of degree k as a cycle-trace sum.

    Each term (c, sigma) contributes c * prod_{cycles (a1..am) of sigma}
    tr(A_{a1} A_{a2} .. A_{am}) when evaluated on matrices A_1..A_k.  The
    constructor symmetrizes over relabelings so the index form is
    S_k-invariant; ``terms`` is a tuple of (c, sigma) pairs, shared by every
    polynomial built from the same degree and terms.
    """

    def __init__(self, degree: int, terms):
        self.degree = degree
        self.terms = _symmetrized(degree, tuple(
            (Fraction(c), tuple(sigma.images if isinstance(sigma, Permutation)
                                else sigma)) for c, sigma in terms))

    @classmethod
    def pair_swap(cls) -> "InvariantPolynomial":
        """Degree 2, Phi_ij^rs = (1/2) delta_i^s delta_j^r; Phi(w,w) = tr(w^2)/2."""
        return cls(2, [(Fraction(1, 2), Permutation((1, 0)))])

    @classmethod
    def trace_power(cls, k: int) -> "InvariantPolynomial":
        """Degree 2k with Phi(w,..,w) = (tr w^2)^k."""
        images = list(range(2 * k))
        for m in range(k):
            images[2 * m], images[2 * m + 1] = 2 * m + 1, 2 * m
        return cls(2 * k, [(Fraction(1), Permutation(images))])

    def __repr__(self):
        return f"InvariantPolynomial(deg={self.degree}, {len(self.terms)} terms)"


@lru_cache(maxsize=None)
def _symmetrized(degree: int, terms: tuple) -> tuple:
    """The terms (c, images) averaged over conjugation by S_degree, as
    ((c, Permutation), ...) in the order the conjugates first appear, zero
    coefficients dropped."""
    acc: dict = {}
    fact = math.factorial(degree)
    for c, images in terms:
        sigma = Permutation(images)
        for tau, _ in signed_permutations(degree):
            tau = Permutation(tau)
            conj = tau.compose(sigma).compose(tau.inverse())
            acc[conj.images] = acc.get(conj.images, Fraction(0)) + c / fact
    return tuple((c, Permutation(images)) for images, c in acc.items() if c)


def _cycles(sigma: Permutation):
    seen, cycles = set(), []
    for start in range(len(sigma.images)):
        if start not in seen:
            cyc = [start]
            while sigma.images[cyc[-1]] != start:
                cyc.append(sigma.images[cyc[-1]])
            seen.update(cyc)
            cycles.append(tuple(cyc))
    return cycles


def _curvature_dduu(stack, which: str) -> Tensor:
    if which == "weyl":
        return stack.weyl_dduu
    if which == "riemann":
        return stack.rm_dduu
    raise SlotError(f"unknown curvature choice {which!r}")


# -- Pfaffian-type scalars ------------------------------------------------------


def pfaffian_k(A: Tensor, k: int, ring) -> object:
    """(1/k!) delta^(2k)-contraction of k copies of a curvature-type tensor.

    A must have valence (d, d, u, u) with the antisymmetric-pair structure of
    a Weyl-type tensor.
    """
    if A.valence != ("d", "d", "u", "u"):
        raise SlotError("pfaffian expects valence (d,d,u,u)")
    return gkd_contract([A] * k, ring,
                        coeff=Fraction(1, math.factorial(k))).item()


def pfaffian_of(stack, k: int, which: str = "weyl") -> object:
    return pfaffian_k(_curvature_dduu(stack, which), k, stack.ring)


# -- the distinguished one-form and its building blocks -------------------------


def _xi_first_term(stack, k: int) -> Tensor:
    """(1/k!) delta_{i i2..}^{j j2..} C_{j j2}^{i2} W_..^.. ; free lower slot."""
    return gkd_contract([stack.cotton_ddu] + [stack.weyl_dduu] * (k - 1),
                        stack.ring, free=("d",),
                        coeff=Fraction(1, math.factorial(k)))


def xi_formula(stack, k: int) -> Tensor:
    """The defining contraction evaluated in the ambient dimension n."""
    n = stack.dim
    first = _xi_first_term(stack, k)
    pf_w = pfaffian_of(stack, k, "weyl")
    grad = stack.grad_scalar(pf_w)
    return first + grad.scale(Fraction(1, 2 * n * k))


def xi_k(stack, k: int) -> WeightedOneForm:
    """The weight -2k one-form; defined in its home dimension n = 2k."""
    if stack.dim != 2 * k:
        raise DimensionError(f"xi^({k}) lives in dimension {2 * k}, "
                             f"context has {stack.dim}")
    return WeightedOneForm(xi_formula(stack, k), -2 * k)


def cotton_weyl_divergence_rhs(stack, k: int) -> Tensor:
    """(2k/k!) delta-contraction of C with (k-1) W's (divergence identity RHS)."""
    return _xi_first_term(stack, k).scale(2 * k)


# -- T^(k), Omega^(k), E^(k) ----------------------------------------------------


def T_k_W(stack, k: int) -> Tensor:
    """T^(k)(W)_i^j = (1/k!) delta-contraction of k Weyl factors; valence (d,u)."""
    return gkd_contract([stack.weyl_dduu] * k, stack.ring, free=("d", "u"),
                        coeff=Fraction(1, math.factorial(k)))


def lovelock_E(stack, k: int) -> Tensor:
    """Generalized Einstein tensor E^(k)_i^j (Riemann factors); valence (d,u)."""
    return gkd_contract([stack.rm_dduu] * k, stack.ring, free=("d", "u"),
                        coeff=Fraction(1, math.factorial(k)))


def omega_k(stack, k: int, mode: str = "dim2k") -> Tensor:
    """Omega^(k)_i^j as a weighted sum of W^ell P^(k-ell) chains.

    mode 'dim2k' uses the coefficients 4^{k-l}/(l!(k-l)) valid in dimension
    n = 2k; mode 'general_n' uses the binomial/factorial coefficients that
    make E = T + (n-2k) Omega hold for n > 2k.
    """
    n = stack.dim
    if mode == "dim2k":
        if n != 2 * k:
            raise DimensionError("dim2k mode requires n == 2k")
        coeffs = [Fraction(4 ** (k - ell), math.factorial(ell) * (k - ell))
                  for ell in range(k)]
    elif mode == "general_n":
        if n <= 2 * k:
            raise DimensionError("general_n mode requires n > 2k")
        coeffs = [Fraction(4 ** (k - ell) * math.comb(k, ell)
                           * math.factorial(n - k - ell - 1),
                           math.factorial(k) * math.factorial(n - 2 * k))
                  for ell in range(k)]
    else:
        raise SlotError(f"unknown omega mode {mode!r}")
    total = None
    for ell in range(k):    # delta^(k+1) on ell W's and k - ell P's
        term = gkd_contract(
            [stack.weyl_dduu] * ell + [stack.schouten_mixed] * (k - ell),
            stack.ring, free=("d", "u")).scale(coeffs[ell])
        total = term if total is None else total + term
    return total


def mixed_to_down(stack, t: Tensor) -> Tensor:
    """Lower the up slot of a (d,u) tensor to (d,d)."""
    return lower_slot(stack.ctx, t, 1)


def trace_mixed(t: Tensor):
    """Trace of a (d,u) tensor."""
    return contract(t, [(1, 0)]).item()


# -- Phi-chains: p_Phi, rho^Phi and relatives ------------------------------------


def _cycle_alt_form(factors, cycle, dim):
    """Alt of the matrix-trace chain over one Phi-cycle, as its components
    at the increasing keys of the total degree (``tensors._keys`` rows).

    Each factor is a matrix-valued form with valence (d, u, form...), read
    at its increasing form indices: shape (dim, dim, C(dim, d)).  The chain
    is a matrix product in the exterior algebra (Chern-Weil): each step is
    the exterior product (``tensors._wedge``) of the chain and the next
    factor with matrix entries multiplied, and the last step closes the
    trace.  The full antisymmetrization meets each split once per ordering
    within its groups, hence the weight prod(d_i!) / d!.
    """
    degs = [factors[a].rank - 2 for a in cycle]
    forms = [factors[a].data[(slice(None),) * 2 + tuple(_keys(dim, d).T)]
             for a, d in zip(cycle, degs)]
    chain = einsum("aaK->K", forms[0]) if len(forms) == 1 else forms[0]
    for j in range(1, len(forms)):
        chain = _wedge(dim, "ab,bc->ac" if j < len(forms) - 1 else "ab,ba->",
                       chain, (sum(degs[:j]),), forms[j], (degs[j],))
    return chain * Fraction(math.prod(map(math.factorial, degs)),
                            math.factorial(sum(degs)))


def _phi_chain_form(stack, phi: InvariantPolynomial, factors) -> AltForm:
    """Alt over all form indices of the Phi-contracted factor chain.

    factors: one matrix-valued form per polynomial slot, valence
    (d, u, form...).  Returns the compressed alternating form of degree equal
    to the total form degree.  The cycle forms of each term are joined by
    the exterior product (``tensors._alt_product``) on their increasing
    keys, and the terms summed there.  Each cycle's form is kept on the
    stack, keyed by its factors up to rotation, for every Phi on those
    factors.
    """
    dim, degree = stack.dim, sum(f.rank - 2 for f in factors)
    if degree > dim:
        return AltForm.zero(dim, degree)
    cache = stack._phi_cycles
    total = None
    for c, sigma in phi.terms:
        term, p = None, 0
        for cyc in _cycles(sigma):
            ids = tuple(id(factors[a]) for a in cyc)
            key = min(ids[i:] + ids[:i] for i in range(len(ids)))
            if key not in cache:
                # the entry holds the factors whose ids key it, so no id
                # is reused while it lives
                cache[key] = ([factors[a] for a in cyc],
                              _cycle_alt_form(factors, cyc, dim))
            form, q = cache[key][1], sum(factors[a].rank - 2 for a in cyc)
            term = form if term is None else _alt_product(dim, term, p,
                                                          form, q)
            p += q
        term = term * c
        total = term if total is None else total + term
    return AltForm.from_rows(dim, degree, total)


def star_p_phi_form(stack, phi: InvariantPolynomial,
                    which: str = "weyl") -> AltForm:
    """The 2k-form Phi_{s..}^{t..} W_{[i1 i2 |t1|}^{s1} ... (skew over all)."""
    k = phi.degree
    if 2 * k > stack.dim:
        raise DimensionError("form degree exceeds dimension")
    M = stack.weyl_dudd if which == "weyl" else stack.rm_dudd   # W_t^s_ij
    return _phi_chain_form(stack, phi, [M] * k)


def phi_w_c_form(stack, phi: InvariantPolynomial) -> AltForm:
    """(Phi W^{k-1} C)_{i2..i_{2k}}: the (2k-1)-form with one Cotton factor.

    The Cotton factor enters as C_t^s_i (second slot raised), the curvature
    factors as W_t^s_{ij}; everything is skew-symmetrized over the form
    indices.
    """
    k = phi.degree
    return _phi_chain_form(stack, phi,
                           [stack.cotton_dud] + [stack.weyl_dudd] * (k - 1))


def p_phi_scalar(stack, phi: InvariantPolynomial, which: str = "weyl"):
    """p_Phi = (top component of the Phi-chain form) * eps^{0..n-1};
    requires dim n = 2k."""
    k = phi.degree
    n = stack.dim
    if n != 2 * k:
        raise DimensionError("the scalar p_Phi lives in dimension 2k")
    form = star_p_phi_form(stack, phi, which)
    return form.get(tuple(range(n)), stack.ring.zero()) \
        * stack.ctx.volume[1]


def rho_phi(stack, phi: InvariantPolynomial) -> WeightedOneForm:
    """rho^Phi_i in dimension 2k: volume-contracted Cotton chain plus the
    gradient of p_Phi.

    With G = Phi W^{k-1} C the (n-1)-form, the contraction
    (1/(2k-1)!) eps_i^{j_2..j_n} G_{j_2..j_n} collapses to
    g_im (-1)^m G_{[n] minus m} eps^{0..n-1}.
    """
    k = phi.degree
    n = stack.dim
    if n != 2 * k:
        raise DimensionError("rho^Phi lives in dimension 2k")
    eps_up = stack.ctx.volume[1]
    G = phi_w_c_form(stack, phi)
    zero = stack.ring.zero()
    vec = np.empty((n,), dtype=object)
    for m in range(n):
        x = G.get(tuple(j for j in range(n) if j != m), zero) * eps_up
        vec[m] = x if m % 2 == 0 else -x
    first = lower_slot(stack.ctx, Tensor(n, ("u",), vec).pack(), 0)
    p = p_phi_scalar(stack, phi, "weyl")
    grad = stack.grad_scalar(p)
    return WeightedOneForm(first + grad.scale(Fraction(1, 2 * k)), -2 * k)


def star_rho_general(stack, phi: InvariantPolynomial) -> Tensor:
    """(star rho^Phi)_{i2..i2k} = Phi W^{k-1} C - grad^i(star p_Phi)/(n-4k).

    Defined in every dimension n != 4k; a dense (2k-1)-form tensor.
    """
    k = phi.degree
    n = stack.dim
    if n == 4 * k:
        raise DimensionError("star rho^Phi has a pole at n = 4k")
    G = phi_w_c_form(stack, phi).to_tensor(stack.ring)
    starp = star_p_phi_form(stack, phi, "weyl").to_tensor(stack.ring)
    div = stack.div(starp, 0)
    return G - div.scale(Fraction(1, n - 4 * k))


# -- conformal Killing operator pair --------------------------------------------


def conformal_killing_K(stack, alpha: Tensor) -> Tensor:
    """K(alpha)_ij = 2 grad_(i alpha_j) - (2/n) grad^k alpha_k g_ij; trace-free."""
    n = stack.dim
    na = stack.nabla(alpha)
    sym = Tensor(n, ("d", "d"),
                 na.a + einsum("ij->ji", na.a))
    divv = contract(raise_slot(stack.ctx, na, 0), [(0, 1)]).item()
    return sym - stack.ctx.metric.scale(divv * Fraction(2, n))


def functional_density(ctx, omega: WeightedOneForm, X: Tensor):
    """Pointwise integrand omega_i X^i on a homogeneous context.

    The global functional is this constant times the total volume (supplied
    externally); only homogeneous contexts make the pointwise value equal to
    the integrand everywhere.
    """
    if not ctx.is_homogeneous:
        raise DimensionError(
            "functional density needs a homogeneous (frame) context")
    if X.valence != ("u",):
        raise SlotError("X must be a vector (valence 'u')")
    val = contract_with(omega.components, X, [(0, 0)]).item()
    return ctx.point_value(val)
