"""The blocked exterior product ``tensors._wedge`` behind the delta kernel,
the Phi-chain and ``AltForm.alt_mul``.

Two things are checked here.  A tiny block budget, which cuts every
product into one key row per block, gives the very results of the normal
budget: identical exact values and bit-identical floats.  And the products
agree exactly with an independent oracle, a dense sum over the symmetric
group written here from the definitions alone (the alternation of a
tensor product, and the generalized Kronecker delta as a signed sum over
permutations), sharing no code with the engine's split tables.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from curvlab import tensors
from curvlab.conformal import ConformalFactor, _dual_context
from curvlab.invariants import (InvariantPolynomial, _xi_first_term,
                                pfaffian_of, rho_phi, xi_k)
from curvlab.models import (berger_product, random_chart,
                            random_conformal_factor)
from curvlab.scalars import RATIONAL
from curvlab.tensors import AltForm, Tensor, gkd_contract


@pytest.fixture
def joins(monkeypatch):
    """Counts the products that ran in more than one block."""
    count = [0]
    joined = tensors._joined

    def counted(blocks, axis):
        count[0] += 1
        return joined(blocks, axis)

    monkeypatch.setattr(tensors, "_joined", counted)
    return count


def _tiny_budget(monkeypatch):
    monkeypatch.setattr(tensors, "_WEDGE_FLOATS", 1)


def _exact_values():
    """Berger-product invariants and an ``alt_mul`` at n = 5, exact."""
    st = berger_product(Fraction(4)).stack
    phi = InvariantPolynomial.pair_swap()
    rng = np.random.default_rng(3)
    a, b = (AltForm(5, d, {key: Fraction(int(rng.integers(-9, 10)),
                                         int(rng.integers(1, 5)))
                           for key in itertools.combinations(range(5), d)})
            for d in (1, 2))
    return (pfaffian_of(st, 2, "riemann"), xi_k(st, 2).components.a,
            rho_phi(st, phi).components.a, a.alt_mul(b).comps)


def test_tiny_blocks_give_identical_exact_results(monkeypatch, joins):
    normal = _exact_values()
    assert joins[0] == 0
    _tiny_budget(monkeypatch)
    tiny = _exact_values()
    assert joins[0] > 0
    assert normal[0] == tiny[0]
    assert np.all(normal[1] == tiny[1]) and np.all(normal[2] == tiny[2])
    assert normal[3] == tiny[3] and normal[3]


def _bits(x):
    """The coefficients and valid order of every component, as bytes."""
    return [(j.c.tobytes(), j.valid) for j in np.asarray(x, dtype=object).flat]


def _float_chart_values():
    st = random_chart(6, seed=0, jet_order=3).stack
    return (_bits(pfaffian_of(st, 3, "weyl")),
            _bits(pfaffian_of(st, 3, "riemann")),
            _bits(_xi_first_term(st, 3).a))


def test_tiny_blocks_give_bit_identical_floats(monkeypatch, joins):
    normal = _float_chart_values()
    _tiny_budget(monkeypatch)
    tiny = _float_chart_values()
    assert joins[0] > 0
    assert normal == tiny


def test_tiny_blocks_join_duals(monkeypatch, joins):
    """A Dual stack's blocks join their re and im parts alike."""
    ctx = random_chart(6, seed=1, jet_order=3)
    ups = ConformalFactor.from_poly(random_conformal_factor(6, 1)).field(ctx)
    values = []
    for _ in range(2):
        st = _dual_context(ctx, ups).stack
        xi = _xi_first_term(st, 3).a
        values.append([(_bits([d.re]), _bits([d.im])) for d in xi.flat])
        _tiny_budget(monkeypatch)
    assert joins[0] > 0
    assert values[0] == values[1]


# -- the oracle ------------------------------------------------------------


def _parity(perm) -> int:
    """(-1)^(number of inversions)."""
    inversions = sum(perm[i] > perm[j] for i, j in
                     itertools.combinations(range(len(perm)), 2))
    return -1 if inversions % 2 else 1


def _at(comps: dict, idx: tuple):
    """An alternating form given on increasing keys, at any index tuple."""
    if len(set(idx)) < len(idx):
        return 0
    order = sorted(range(len(idx)), key=lambda i: idx[i])
    x = comps.get(tuple(idx[i] for i in order), 0)
    return x * _parity(order)


def oracle_alt_mul(a: AltForm, b: AltForm) -> dict:
    """Alt(a (x) b) on increasing keys: the signed average over S_{p+q}."""
    p, q = a.degree, b.degree
    out = {}
    for key in itertools.combinations(range(a.dim), p + q):
        total = sum(_parity(s) * _at(a.comps, tuple(key[i] for i in s[:p]))
                    * _at(b.comps, tuple(key[i] for i in s[p:]))
                    for s in itertools.permutations(range(p + q)))
        if total:
            out[key] = Fraction(total, math.factorial(p + q))
    return out


def random_alt_form(n, degree, rng) -> AltForm:
    return AltForm(n, degree, {
        key: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
        for key in itertools.combinations(range(n), degree)
        if rng.random() < 0.8})


@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 2), (2, 3), (1, 4),
                                  (3, 1)])
def test_alt_mul_equals_dense_alternation(p, q):
    rng = np.random.default_rng(10 * p + q)
    a, b = random_alt_form(5, p, rng), random_alt_form(5, q, rng)
    assert a.alt_mul(b).comps == oracle_alt_mul(a, b)


def random_double_form(n, a, b, rng, packed=True) -> Tensor:
    """A tensor of valence (d,)*a + (u,)*b, alternating in its down and in
    its up slots, with random rational components; unpacked (int zeros at
    repeated indices, so it stays an object array) unless ``packed``."""
    zero = Fraction(0) if packed else 0
    arr = np.full((n,) * (a + b), zero, dtype=object)
    for down in itertools.combinations(range(n), a):
        for up in itertools.combinations(range(n), b):
            x = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
            for sd in itertools.permutations(range(a)):
                for su in itertools.permutations(range(b)):
                    idx = tuple(down[i] for i in sd) + tuple(up[i] for i in su)
                    arr[idx] = x * _parity(sd) * _parity(su)
    return Tensor(n, ("d",) * a + ("u",) * b, arr)


def oracle_delta(factors, free) -> dict:
    """delta^(p) contracted with the factors, from
    delta^{u_1..u_p}_{l_1..l_p} = sum over sigma of sign(sigma) times the
    product of [u_i = l_sigma(i)]: the factors' down slots take the upper
    indices u in factor order and their up slots the lower indices l, the
    first of each left free when ``free`` says so."""
    types = [(f.valence.count("d"), f.valence.count("u")) for f in factors]
    p = sum(b for _, b in types) + ("d" in free)
    out = {}
    for low in itertools.permutations(range(factors[0].dim), p):
        for s in itertools.permutations(range(p)):
            up = tuple(low[i] for i in s)
            ups = up[1:] if "u" in free else up
            lows = low[1:] if "d" in free else low
            term, i, j = _parity(s), 0, 0
            for f, (a, b) in zip(factors, types):
                term *= f.a[ups[i:i + a] + lows[j:j + b]]
                i, j = i + a, j + b
            key = (low[0],) * ("d" in free) + (up[0],) * ("u" in free)
            out[key] = out.get(key, 0) + term
    return out


@pytest.mark.parametrize("packed", [True, False], ids=["packed", "objects"])
@pytest.mark.parametrize("types, free", [
    (((2, 2), (2, 2)), ()),
    (((1, 1), (2, 2), (2, 2)), ()),
    (((2, 1), (2, 2)), ("d",)),
    (((2, 1), (2, 1), (1, 2)), ("d",)),
    (((2, 2), (1, 1)), ("d", "u")),
    (((1, 1), (1, 1), (1, 1), (1, 1)), ("d", "u")),
])
def test_gkd_contract_equals_dense_delta(types, free, packed):
    rng = np.random.default_rng(len(types) + 7 * len(free))
    factors = [random_double_form(5, a, b, rng, packed) for a, b in types]
    got = gkd_contract(factors, RATIONAL, free=free)
    want = oracle_delta(factors, free)
    assert got.valence == free
    for key in itertools.product(range(5), repeat=len(free)):
        assert got.a[key] == want.get(key, 0)
