"""Curvature invariants built from generalized-delta and trace-polynomial
contractions: the Pfaffian-type scalars, the distinguished one-forms of
weight -2k, their Pontrjagin-flavoured relatives, the generalized Einstein
tensors, and the conformal Killing operator pair.

Index conventions follow the curvature stack: W all-down, C_ijk
antisymmetric in (i, j), and every delta contraction is a product of
double forms read off on increasing indices (``tensors.gkd_contract``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DimensionError, SlotError
from .tensors import (AltForm, Permutation, Tensor, contract, einsum,
                      gkd_contract, lower_slot, perm_sign, raise_slot,
                      signed_permutations)


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
    S_k-invariant.
    """

    def __init__(self, degree: int, terms, *, symmetrize: bool = True):
        self.degree = degree
        terms = [(Fraction(c), sigma if isinstance(sigma, Permutation)
                  else Permutation(sigma)) for c, sigma in terms]
        if symmetrize:
            acc: dict = {}
            fact = math.factorial(degree)
            for c, sigma in terms:
                for tau, _ in signed_permutations(degree):
                    tau = Permutation(tau)
                    conj = tau.compose(sigma).compose(tau.inverse())
                    acc[conj.images] = acc.get(conj.images, Fraction(0)) + \
                        Fraction(c, fact)
            terms = [(c, Permutation(images)) for images, c in acc.items() if c]
        self.terms = terms

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


def _cycles(sigma: Permutation):
    seen, cycles = set(), []
    for start in range(len(sigma.images)):
        if start in seen:
            continue
        cyc, a = [], start
        while a not in seen:
            seen.add(a)
            cyc.append(a)
            a = sigma.images[a]
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


def _chain_with_free_pair(stack, k: int, ell: int, which: str) -> Tensor:
    """delta^{(1+k_top)} contraction with ell curvature factors and the rest
    Schouten factors; free first lower and upper slots."""
    factors = [_curvature_dduu(stack, which)] * ell \
        + [stack.schouten_mixed] * (k - ell)
    return gkd_contract(factors, stack.ring, free=("d", "u"))


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
    for ell in range(k):
        term = _chain_with_free_pair(stack, k, ell, "weyl").scale(coeffs[ell])
        total = term if total is None else total + term
    return total


def mixed_to_down(stack, t: Tensor) -> Tensor:
    """Lower the up slot of a (d,u) tensor to (d,d)."""
    return lower_slot(stack.ctx, t, 1)


def trace_mixed(t: Tensor):
    """Trace of a (d,u) tensor."""
    return contract(t, [(1, 0)]).item()


# -- Phi-chains: p_Phi, rho^Phi and relatives ------------------------------------


def _matrix_two_form(stack, which: str = "weyl") -> Tensor:
    """W_t^s_{ij}: all-down curvature with the second slot raised."""
    return stack.weyl_dudd if which == "weyl" else stack.rm_dudd


# the most components a chain step of a Phi-cycle holds: the middle factors
# of a cycle carry one dim x dim matrix per (key, assignment) pair
_CYCLE_COMPONENTS = 1 << 13


def _assignments(values, degs):
    """Split a sorted tuple into per-factor index groups, pair groups kept
    increasing; yields (groups, parity) for each admissible arrangement."""
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


def _index_arrays(groups) -> tuple:
    """One int array per form slot that gathers a factor at ``groups``."""
    return tuple(np.array(col, dtype=np.intp) for col in zip(*groups))


def _distinct(items) -> dict:
    """Each distinct item to its position, in order of first appearance."""
    return {x: i for i, x in enumerate(dict.fromkeys(items))}


@lru_cache(maxsize=None)
def _cycle_plan(dim: int, degs: tuple):
    """The gathers and read-outs of one Phi-cycle whose factors have form
    degrees ``degs``.

    Returns (keys, pieces): keys are the increasing index tuples of the
    total degree, and a piece (k0, k1, first, steps, last, parts) covers
    some of the assignments of keys[k0:k1].  Factor 0 is gathered at
    ``first``, its distinct form-index groups in the piece.  Each step
    (xi, idx) multiplies the chain prefixes ``xi`` by factor j gathered at
    ``idx``, one row per distinct prefix of j + 1 groups.  The last factor
    is gathered at ``last``, its distinct groups, and the closing product
    holds the trace of every (prefix, last group) pair.  Each part
    (sign, read) reads the traces of the (key, assignment) pairs of one sign
    out of it, with index arrays of shape (k1 - k0, assignments).

    The assignments of a sorted key, and their signs, depend on positions
    alone, so one table serves every key.  A gather at distinct groups is
    never larger than its factor, but a chain step holds a matrix per
    prefix, so a cycle with middle factors takes at most
    ``_CYCLE_COMPONENTS // dim**2`` pairs per piece (one at least).
    """
    total = sum(degs)
    keys = tuple(itertools.combinations(range(dim), total))
    if not keys:
        return keys, ()
    table = tuple(_assignments(range(total), degs))
    most = len(keys) * len(table)
    if len(degs) > 2:
        most = max(1, _CYCLE_COMPONENTS // dim ** 2)
    rows = max(1, most // len(table))
    width = min(len(table), most)
    pieces = []
    for k0 in range(0, len(keys), rows):
        k1 = min(k0 + rows, len(keys))
        for a0 in range(0, len(table), width):
            cols = table[a0:a0 + width]
            chains = {(k, a): [tuple(keys[k][p] for p in g) for g in groups]
                      for k in range(k0, k1)
                      for a, (groups, _) in enumerate(cols)}
            prefixes = head = _distinct(tuple(t[:1])
                                        for t in chains.values())
            steps = []
            for j in range(1, len(degs) - 1):
                nxt = _distinct(tuple(t[:j + 1]) for t in chains.values())
                xi = np.array([prefixes[p[:j]] for p in nxt], dtype=np.intp)
                steps.append((xi, _index_arrays([p[j] for p in nxt])))
                prefixes = nxt
            last = _distinct(t[-1] for t in chains.values())
            parts = []
            for sign in (1, -1):
                picked = [a for a, (_, s) in enumerate(cols) if s == sign]
                if not picked:
                    continue
                where = [[chains[k, a] for a in picked]
                         for k in range(k0, k1)]
                read = [[[last[t[-1]] for t in r] for r in where]]
                if len(degs) > 1:
                    read.insert(0, [[prefixes[tuple(t[:-1])] for t in r]
                                    for r in where])
                parts.append((sign, tuple(np.array(x, dtype=np.intp)
                                          for x in read)))
            pieces.append((k0, k1, _index_arrays([p[0] for p in head]),
                           tuple(steps), _index_arrays(last), tuple(parts)))
    return keys, tuple(pieces)


def _cycle_alt_form(factors, cycle, dim) -> AltForm:
    """Compressed Alt of the matrix-trace chain over one Phi-cycle.

    Each factor is a matrix-valued form with valence (d, u, form-slots...);
    the trace closes over the matrix slots, the form slots are skewed.  The
    per-factor antisymmetry halves the permutation count per 2-form.  Each
    piece of the cycle's plan gathers the factors at their distinct index
    groups, makes one contraction per middle factor and one closing the
    trace, and sums the assignments of each key and sign in one more.
    """
    mats = [factors[a] for a in cycle]
    degs = tuple(f.rank - 2 for f in mats)
    weight = Fraction(2 ** degs.count(2), math.factorial(sum(degs)))
    keys, pieces = _cycle_plan(dim, degs)
    mat = (slice(None), slice(None))
    sums = {}
    for k0, k1, first, steps, last, parts in pieces:
        closing = mats[-1].data[mat + last]
        if len(mats) == 1:
            out = einsum("aaS->S", closing)
        else:
            chain = mats[0].data[mat + first]
            for j, (xi, idx) in enumerate(steps, 1):
                chain = einsum("abX,bcX->acX", chain[mat + (xi,)],
                               mats[j].data[mat + idx])
            out = einsum("abX,baS->XS", chain, closing)
        acc = None
        for sign, read in parts:
            val = einsum("KA->K", out[read])
            val = val if sign > 0 else -val
            acc = val if acc is None else acc + val
        for i, key in enumerate(keys[k0:k1]):
            x = acc[i]
            sums[key] = sums[key] + x if key in sums else x
    comps = {}
    for key, x in sums.items():
        x = weight * x
        if x:
            comps[key] = x
    return AltForm(dim, sum(degs), comps)


def _phi_chain_form(stack, phi: InvariantPolynomial, factors) -> AltForm:
    """Alt over all form indices of the Phi-contracted factor chain.

    factors: one matrix-valued form per polynomial slot, valence
    (d, u, form...).  Returns the compressed alternating form of degree equal
    to the total form degree.  Each cycle's form is kept on the stack, keyed
    by its factors up to rotation, for every Phi on those factors.
    """
    dim = stack.dim
    total_deg = sum(f.rank - 2 for f in factors)
    result = AltForm.zero(dim, total_deg)
    cache = stack._phi_cycles
    for c, sigma in phi.terms:
        chain_form = None
        for cyc in _cycles(sigma):
            ids = tuple(id(factors[a]) for a in cyc)
            key = min(ids[i:] + ids[:i] for i in range(len(ids)))
            if key not in cache:
                # the entry holds the factors whose ids key it, so no id
                # is reused while it lives
                cache[key] = ([factors[a] for a in cyc],
                              _cycle_alt_form(factors, cyc, dim))
            part = cache[key][1]
            chain_form = part if chain_form is None else chain_form.alt_mul(part)
        result = result.add(chain_form.scale(c))
    return result


def star_p_phi_form(stack, phi: InvariantPolynomial,
                    which: str = "weyl") -> AltForm:
    """The 2k-form Phi_{s..}^{t..} W_{[i1 i2 |t1|}^{s1} ... (skew over all)."""
    k = phi.degree
    if 2 * k > stack.dim:
        raise DimensionError("form degree exceeds dimension")
    M = _matrix_two_form(stack, which)
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
    val = contract(omega.components.tp(X), [(1, 0)]).item()
    return ctx.point_value(val)
