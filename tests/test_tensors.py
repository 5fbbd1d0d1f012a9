import itertools
import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab.errors import (DegenerateMetricError, ExactnessError,
                            JetOrderError,
                            ScalarKindError, SlotError)
from curvlab.geometry import GeometryContext
from curvlab.jets import Dual, Jet, JetAlgebra
from curvlab.scalars import RATIONAL, QuadExt
from curvlab.tensors import (AltForm, Permutation, Tensor, antisymmetrize,
                             contract, contract_with, einsum, epsilon_form,
                             generalized_delta, gkd_contract, hodge_star,
                             is_antisymmetric, is_zero_tensor, lower_slot,
                             max_abs, perm_sign, raise_lower, raise_slot,
                             residual, signed_permutations, symmetrize,
                             tensors_equal, zeros)
from curvlab import fields
from curvlab.fields import JetField, RationalField, _rational_einsum


def diag_ctx(n, diag):
    c = GeometryContext.__new__(GeometryContext)
    c.dim, c.ring, c.orientation = n, RATIONAL, 1
    g = np.empty((n, n), dtype=object)
    g[...] = Fraction(0)
    for i in range(n):
        g[i, i] = Fraction(diag[i])
    c.metric = Tensor(n, ("d", "d"), g)
    c.structure = None
    c.var_of_direction = [None] * n
    c.var_base_point = ()
    c.meta = {}
    return c


def rational_tensor(n, valence, rng):
    t = zeros(n, valence, RATIONAL)
    for idx in np.ndindex(t.a.shape):
        t.a[idx] = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))
    return t


def identity_mixed(n):
    t = zeros(n, ("d", "u"), RATIONAL)
    for i in range(n):
        t.a[i, i] = Fraction(1)
    return t


class TestContract:
    def test_trace_of_identity(self):
        assert contract(identity_mixed(4), [(1, 0)]).item() == 4

    def test_metric_times_inverse_is_identity(self):
        ctx = diag_ctx(3, [2, 5, Fraction(1, 3)])
        prod = contract_with(ctx.metric, ctx.metric_inv, [(1, 0)])
        assert tensors_equal(prod, identity_mixed(3).permuted((0, 1)))

    def test_weyl_trace_vanishes(self, berger4_stack):
        w = berger4_stack.weyl_dduu
        # W_{ikj}^k: contract slot 1 (down) against slot 3 (up)
        tr = contract(w, [(3, 1)])
        assert is_zero_tensor(tr)

    def test_slot_out_of_range(self):
        with pytest.raises(SlotError):
            contract(identity_mixed(3), [(0, 5)])

    def test_variance_mismatch(self):
        g = diag_ctx(3, [1, 1, 1]).metric
        with pytest.raises(SlotError):
            contract(g, [(0, 1)])

    def test_repeated_slot_rejected(self):
        t = identity_mixed(3).tp(identity_mixed(3))
        with pytest.raises(SlotError):
            contract(t, [(1, 0), (1, 2)])

    def test_kind_mixing_rejected(self):
        a = zeros(2, ("d",), RATIONAL)
        b = Tensor.filled(2, ("d",), 0.5)
        with pytest.raises(ScalarKindError):
            a + b


class TestSymmetrization:
    def test_antisymmetrize_kills_symmetric(self):
        g = diag_ctx(4, [1, 2, 3, 4]).metric
        assert is_zero_tensor(antisymmetrize(g, [0, 1]))

    def test_weyl_first_bianchi(self, berger4_stack):
        w = berger4_stack.weyl
        assert is_zero_tensor(antisymmetrize(w, [0, 1, 2]))

    def test_projectors_orthogonal(self):
        rng = np.random.default_rng(0)
        t = rational_tensor(3, ("d", "d"), rng)
        assert is_zero_tensor(antisymmetrize(symmetrize(t, [0, 1]), [0, 1]))

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        t = rational_tensor(3, ("d", "d", "d"), rng)
        a = antisymmetrize(t, [0, 1, 2])
        assert tensors_equal(a, antisymmetrize(a, [0, 1, 2]))

    def test_mixed_variance_rejected(self):
        with pytest.raises(SlotError):
            antisymmetrize(identity_mixed(3), [0, 1])

    def test_rank5_fractions_against_increasing_components(self):
        """Alt of a random rank-5 Fraction tensor at n = 5 against the form
        built from its one increasing component, the signed average of the
        120 orderings, through ``AltForm.to_tensor``."""
        rng = np.random.default_rng(12)
        t = rational_tensor(5, ("d",) * 5, rng)
        comp = sum(sign * t.a[perm] for perm, sign
                   in signed_permutations(5)) * Fraction(1, 120)
        oracle = AltForm(5, 5, {tuple(range(5)): comp}).to_tensor(RATIONAL)
        got = antisymmetrize(t, range(5))
        assert isinstance(got.field, RationalField)
        assert all(type(x) is Fraction for x in got.a.flat)
        assert tensors_equal(got, oracle)
        sym = symmetrize(t, [1, 3])
        assert tensors_equal(sym, (t + t.permuted((0, 3, 2, 1, 4)))
                             .scale(Fraction(1, 2)))


class TestGeneralizedDelta:
    def test_p2_expansion(self):
        n = 3
        d = generalized_delta(2, n, RATIONAL)
        for i, j, k, l in np.ndindex(n, n, n, n):
            expect = Fraction((1 if i == k else 0) * (1 if j == l else 0)
                              - (1 if i == l else 0) * (1 if j == k else 0))
            assert d.a[i, j, k, l] == expect

    def test_determinant_oracle(self):
        # delta_{I}^{J} equals det of the matrix [delta_{i_a}^{j_b}]
        rng = np.random.default_rng(5)
        n, p = 4, 3
        d = generalized_delta(p, n, RATIONAL)
        for _ in range(25):
            lower = tuple(int(x) for x in rng.integers(0, n, p))
            upper = tuple(int(x) for x in rng.integers(0, n, p))
            m = [[Fraction(1 if lower[a] == upper[b] else 0)
                  for b in range(p)] for a in range(p)]
            det = sum(perm_sign(sig) * math.prod(m[a][sig[a]]
                                                 for a in range(p))
                      for sig in itertools.permutations(range(p)))
            assert d.a[lower + upper] == det

    def test_full_trace_brute_force(self):
        # enumerate all assignments, dim 4, p = 4
        d = generalized_delta(4, 4, RATIONAL)
        total = sum(d.a[idx + idx] for idx in np.ndindex(4, 4, 4, 4))
        assert total == 24

    def test_p_above_dim_is_zero(self):
        assert is_zero_tensor(generalized_delta(4, 3, RATIONAL))

    def test_p_below_one_rejected(self):
        with pytest.raises(SlotError):
            generalized_delta(0, 3, RATIONAL)


class TestGkdKernel:
    def test_matches_materialized_delta(self):
        """Permutation-sum kernel vs naive materialized-delta contraction."""
        rng = np.random.default_rng(9)
        n, k = 3, 2
        w = rational_tensor(n, ("d", "d", "u", "u"), rng)
        p = 2 * k
        lower = [(m, 2 + a) for m in range(k) for a in range(2)]
        upper = [(m, a) for m in range(k) for a in range(2)]
        got = gkd_contract(n, lower, upper, [w] * k, RATIONAL).item()
        d = generalized_delta(p, n, RATIONAL)
        naive = np.einsum("abcdABCD,ABab,CDcd->", d.a, w.a, w.a)
        assert got == naive

    def test_free_slots_and_symmetry_reduction(self, berger4_stack):
        st = berger4_stack
        w = st.weyl_dduu
        lower = [None, (0, 2), (0, 3)]
        upper = [None, (0, 0), (0, 1)]
        sym = (((0, 2, 1), (0, 1, 2)), ((0, 1, 2), (0, 2, 1)))
        fast = gkd_contract(4, lower, upper, [w], RATIONAL, sym=sym)
        slow = gkd_contract(4, lower, upper, [w], RATIONAL)
        assert tensors_equal(fast, slow)

    @pytest.mark.parametrize("mode", ["rational", "float-jet"])
    def test_rank0_intermediate_times_kronecker(self, mode, chart4):
        """delta^(3) against P.P with one free pair: the identity permutation
        traces both factors to a scalar before the Kronecker factor for the
        free pair joins, a rank-0 pairwise step that numpy >= 2 cannot take
        on its own."""
        n = 4
        if mode == "rational":
            ring = RATIONAL
            p = rational_tensor(n, ("d", "u"), np.random.default_rng(17))
        else:
            ring, p = chart4.ring, chart4.stack.schouten_mixed
        got = gkd_contract(n, [None, (0, 1), (1, 1)], [None, (0, 0), (1, 0)],
                           [p, p], ring)
        d3 = generalized_delta(3, n, ring)
        naive = np.einsum("iabjAB,Aa,Bb->ij", d3.a, p.a, p.a, optimize=False)
        assert got.valence == ("d", "u")
        if mode == "rational":
            assert np.all(got.a == naive)
        else:
            for x, y in zip(got.a.flat, naive.flat):
                assert x.valid == y.valid
                assert np.allclose(x.c, y.c, rtol=1e-12, atol=1e-12)

    def test_pairwise_run_matches_numpy_bits(self):
        """Without a rank-0 step numpy's own optimized einsum runs, and the
        pairwise run gives the very same rationals."""
        rng = np.random.default_rng(23)
        w = rational_tensor(4, ("d", "d", "u", "u"), rng)
        p = rational_tensor(4, ("d", "u"), rng)
        spec = "abcd,ce,fa->fbed"
        got = einsum(spec, w.a, p.a, p.a)
        ref = np.einsum(spec, w.a, p.a, p.a, optimize=True)
        assert got.shape == ref.shape and np.all(got == ref)

    def test_p_above_dim_returns_zero(self):
        w = zeros(2, ("d", "d", "u", "u"), RATIONAL)
        out = gkd_contract(2, [(0, 2), (0, 3), None], [(0, 0), (0, 1), None],
                           [w], RATIONAL)
        assert is_zero_tensor(out)


def random_jets(alg, shape, rng, kind, low=0):
    """Array of float jets ("jet") or Duals over them ("dual") with random
    coefficients and a random ``valid`` >= low per component."""
    def jet():
        valid = int(rng.integers(low, alg.order + 1))
        c = rng.standard_normal(alg.N)
        c[alg.deg > valid] = 0.0
        return Jet(alg, c, valid, False)
    a = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        a[idx] = jet() if kind == "jet" else Dual(jet(), jet())
    return a


def random_scalars(shape, rng, kind):
    """Array of rationals, QuadExts in Q(sqrt 2), plain floats or exact jets."""
    alg = JetAlgebra.get(2, 3)

    def rational():
        return Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))

    def scalar():
        if kind == "rational":
            return rational()
        if kind == "quadext":
            return QuadExt(rational(), rational(), 2)
        if kind == "float":
            return float(rng.standard_normal())
        valid = int(rng.integers(0, alg.order + 1))
        c = np.empty(alg.N, dtype=object)
        c[:] = [rational() if d <= valid else Fraction(0) for d in alg.deg]
        return Jet(alg, c, valid, True)
    a = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        a[idx] = scalar()
    return a


def assert_jets_close(x, y):
    """Same ``valid`` and coefficients within 1e-12 relative."""
    if isinstance(y, Dual):
        assert isinstance(x, Dual)
        assert_jets_close(x.re, y.re)
        assert_jets_close(x.im, y.im)
        return
    assert type(x) is Jet and x.valid == y.valid
    scale = max(1.0, float(np.abs(y.c).max()))
    assert float(np.abs(x.c - y.c).max()) <= 1e-12 * scale


@st.composite
def two_operand_specs(draw):
    """Explicit specs with operands of rank <= 4 (repeated letters take a
    diagonal) and an output of rank <= 4, possibly 0."""
    letters = st.sampled_from("abcde")
    sa = "".join(draw(st.lists(letters, max_size=4)))
    sb = "".join(draw(st.lists(letters, max_size=4)))
    used = sorted(set(sa + sb))
    out = draw(st.permutations(used))[:draw(st.integers(0, min(4, len(used))))]
    return f"{sa},{sb}->{''.join(out)}"


def operand_shapes(spec, dim):
    return [(dim,) * len(sub) for sub in spec.split("->")[0].split(",")]


class TestEinsumKernel:
    """The dense float-jet and int64 Fraction kernels behind ``einsum``
    against numpy's object einsum, and the unchanged path for every other
    scalar kind."""

    @settings(max_examples=60, deadline=None)
    @given(two_operand_specs(), st.sampled_from([2, 3]),
           st.sampled_from([1, 2, 4]), st.sampled_from([3, 5]),
           st.sampled_from(["jet", "dual"]),
           st.sampled_from(["jet", "dual"]), st.integers(0, 10 ** 6))
    def test_float_jets_match_object_einsum(self, spec, dim, nvars, order,
                                            ka, kb, seed):
        rng = np.random.default_rng(seed)
        alg = JetAlgebra.get(nvars, order)
        a, b = (random_jets(alg, shape, rng, kind) for shape, kind
                in zip(operand_shapes(spec, dim), (ka, kb)))
        got = einsum(spec, a, b)
        ref = np.asarray(np.einsum(spec, a, b, optimize=False), dtype=object)
        assert isinstance(got, np.ndarray) and got.shape == ref.shape
        for x, y in zip(got.flat, ref.flat):
            assert_jets_close(x, y)

    @pytest.mark.parametrize("spec", [
        "abcd,ce->abed",        # b shifted: 4 free components against 64
        "ce,abcd->abed",        # a shifted
        "cae,ebd->abcd",        # a tie: b shifted
        "ik,jl->ijkl",          # no summed letter
        "abc,abd->cad",         # a batch letter
        "ab,ab->ab",            # batch letters only
        "abcd,->abcd",          # rank-0 operand
        ",->",                  # rank-0 operands and output
        "cdab,abcd->",          # rank-0 output
        "abb,cdcd->a",          # diagonals and traces taken first
    ])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_order5_four_variables(self, spec, uniform):
        """Four jet variables at order 5 (126 coefficients), as the chart
        workloads run them, with every operand's ``valid`` the order or
        drawn per component."""
        rng = np.random.default_rng(len(spec) + uniform)
        alg = JetAlgebra.get(4, 5)
        low = alg.order if uniform else 0
        a, b = (random_jets(alg, shape, rng, "jet", low) for shape
                in operand_shapes(spec, 3))
        got = einsum(spec, a, b)
        assert_arrays_close(got, np.einsum(spec, a, b, optimize=False))

    @pytest.mark.parametrize("spec", ["abcd,ce->abed", "ce,abcd->abed",
                                      "abc,abd->cad", "cdab,abcd->", ",->"])
    @pytest.mark.parametrize("kinds", [("jet", "jet"), ("dual", "jet"),
                                       ("dual", "dual")])
    def test_blocks_match_one_block(self, spec, kinds):
        """Cutting the output monomials into many blocks gives the one-block
        result to 1e-15 relative, and the same ``valid``s."""
        rng = np.random.default_rng(len(spec))
        alg = JetAlgebra.get(4, 5)
        ops = [JetField.pack(random_jets(alg, shape, rng, kind))
               for shape, kind in zip(operand_shapes(spec, 3), kinds)]
        runs = []
        try:
            for budget in (1 << 40, fields._BLOCK_FLOATS, 64):
                fields._shift_blocks.cache_clear()     # blocks are cached
                with mock.patch.object(fields, "_BLOCK_FLOATS", budget):
                    blocks = fields._shift_blocks(alg, alg.order, 1, 1)
                    runs.append((len(blocks), einsum(spec, *ops)))
        finally:
            fields._shift_blocks.cache_clear()
        (one, ref), *rest = runs
        assert one == 1 and rest[-1][0] > 1
        for _, got in rest:
            for (c, v), (rc, rv) in zip(got._parts(), ref._parts()):
                assert np.array_equal(v, rv)
                assert np.abs(c - rc).max() <= 1e-15 * np.abs(rc).max()

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["abcd,ce,fa->fbed", "ab,bc,ca->",
                            ",ab,bc->ac", "iab,ajA,bAk->ijk"]),
           st.sampled_from([3, 5]), st.lists(st.sampled_from(["jet", "dual"]),
                                             min_size=3, max_size=3),
           st.integers(0, 10 ** 6))
    def test_three_operands_run_pairwise(self, spec, order, kinds, seed):
        rng = np.random.default_rng(seed)
        alg = JetAlgebra.get(2, order)
        ops = [random_jets(alg, shape, rng, kind) for shape, kind
               in zip(operand_shapes(spec, 3), kinds)]
        got = einsum(spec, *ops)
        ref = np.asarray(np.einsum(spec, *ops, optimize=False), dtype=object)
        assert got.shape == ref.shape
        for x, y in zip(got.flat, ref.flat):
            assert_jets_close(x, y)

    @settings(max_examples=40, deadline=None)
    @given(two_operand_specs(), st.integers(0, 10 ** 6))
    def test_fractions_match_object_einsum(self, spec, seed):
        """The int64 kernel gives the very Fractions numpy's object einsum
        gives, with a denominator drawn per element."""
        rng = np.random.default_rng(seed)

        def fractions(shape):
            a = np.empty(shape, dtype=object)
            for idx in np.ndindex(shape):
                a[idx] = Fraction(int(rng.integers(-40, 41)),
                                  int(rng.integers(1, 13)))
            return a
        a, b = (fractions(shape) for shape in operand_shapes(spec, 3))
        assert _rational_einsum(spec, a, b) is not None
        got = einsum(spec, a, b)
        ref = np.asarray(np.einsum(spec, a, b, optimize=False), dtype=object)
        assert isinstance(got, np.ndarray) and got.shape == ref.shape
        for x, y in zip(got.flat, ref.flat):
            assert type(x) is Fraction and type(y) is Fraction and x == y

    @pytest.mark.parametrize("top, den, dim, kernel", [
        (2 ** 40 + 3, 7, 3, False),     # about 2**83 * 3: far past int64
        (2 ** 30, 1, 8, False),         # bound 2**63 exactly: not below it
        (2 ** 30, 1, 7, True),          # 7 * 2**60 < 2**63: the kernel runs
    ])
    def test_int64_guard(self, top, den, dim, kernel):
        """Past the overflow bound the numerators are contracted as Python
        ints; either way the sums are exact."""
        rng = np.random.default_rng(top + dim)
        a = np.empty((dim, dim), dtype=object)
        b = np.empty((dim, dim), dtype=object)
        for idx in np.ndindex(a.shape):
            a[idx] = Fraction(top - int(rng.integers(0, 2)))
            b[idx] = Fraction(-top + int(rng.integers(0, 2)))
        a[0, 0] = Fraction(top, den)    # the lcm of a's denominators
        with mock.patch.object(np, "einsum", wraps=np.einsum) as spy:
            assert _rational_einsum("ab,bc->ac", a, b) is not None
        assert (spy.call_args.args[1].dtype == np.int64) is kernel
        got = einsum("ab,bc->ac", a, b)
        ref = np.einsum("ab,bc->ac", a, b, optimize=False)
        for x, y in zip(got.flat, ref.flat):
            assert type(x) is Fraction and x == y

    def test_numerator_past_int64_times_zeros(self):
        """A numerator that leaves int64 is packed as a Python int, and its
        products stay exact even when the other operand is zero."""
        a = np.empty((2, 2), dtype=object)
        a[...] = Fraction(2 ** 70, 3)
        b = np.empty((2, 2), dtype=object)
        b[...] = Fraction(0)
        assert RationalField.pack(a).num.dtype == object
        got = einsum("ab,bc->ac", a, b)
        assert all(type(x) is Fraction and x == 0 for x in got.flat)
        got = einsum("ab,bc->ac", a, a)
        assert all(x == Fraction(2 ** 141, 9) for x in got.flat)

    def test_int_and_fraction_array_keeps_numpy_path(self):
        """An array that mixes int and Fraction is not packed, and each
        output keeps the type numpy's object einsum gives it."""
        rng = np.random.default_rng(11)
        a, b = (random_scalars((3, 3), rng, "rational") for _ in range(2))
        a[1, 1], b[2, 2] = 2, 5
        assert _rational_einsum("ab,cd->abcd", a, b) is None
        got = einsum("ab,cd->abcd", a, b)
        ref = np.einsum("ab,cd->abcd", a, b, optimize=True)
        assert type(got[1, 1, 2, 2]) is int
        for x, y in zip(got.flat, ref.flat):
            assert type(x) is type(y) and x == y

    @settings(max_examples=40, deadline=None)
    @given(two_operand_specs(),
           st.sampled_from(["quadext", "float", "exact-jet"]),
           st.integers(0, 10 ** 6))
    def test_other_scalars_keep_numpy_path(self, spec, kind, seed):
        rng = np.random.default_rng(seed)
        a, b = (random_scalars(shape, rng, kind)
                for shape in operand_shapes(spec, 3))
        got = einsum(spec, a, b)
        ref = np.asarray(np.einsum(spec, a, b, optimize=True), dtype=object)
        assert got.shape == ref.shape
        for x, y in zip(got.flat, ref.flat):
            assert type(x) is type(y) and x == y
            if kind == "exact-jet":
                assert x.valid == y.valid

    def test_mixed_array_keeps_numpy_path(self):
        alg = JetAlgebra.get(2, 3)
        a = random_jets(alg, (3, 3), np.random.default_rng(5), "jet")
        a[0, 0] = 1.5
        got = einsum("ab,bc->ac", a, a)
        ref = np.einsum("ab,bc->ac", a, a, optimize=True)
        for x, y in zip(got.flat, ref.flat):
            assert x.valid == y.valid and np.array_equal(x.c, y.c)

@st.composite
def one_operand_specs(draw):
    """Explicit one-operand specs of rank <= 4: transposes, diagonals and
    traces, possibly to rank 0."""
    sa = "".join(draw(st.lists(st.sampled_from("abc"), min_size=1,
                               max_size=4)))
    used = sorted(set(sa))
    out = draw(st.permutations(used))[:draw(st.integers(0, len(used)))]
    return f"{sa}->{''.join(out)}"


@contextmanager
def no_unpacking():
    """Fail any JetField unpack (``Tensor.a`` included) inside the block."""
    with mock.patch.object(JetField, "unpack",
                           side_effect=AssertionError("unpacked")):
        yield


def assert_arrays_close(got, ref):
    ref = np.asarray(ref, dtype=object)
    assert got.shape == ref.shape
    for x, y in zip(got.flat, ref.flat):
        assert_jets_close(x, y)


class TestJetField:
    """Packed float-jet tensors against the object path on the same jets:
    identical ``valid`` everywhere and coefficients to 1e-12 relative, with
    no unpacking between packed operations."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([3, 5]), st.sampled_from(["jet", "dual"]),
           st.integers(0, 3), st.integers(0, 10 ** 6))
    def test_elementwise_matches_objects(self, order, kind, rank, seed):
        rng = np.random.default_rng(seed)
        alg = JetAlgebra.get(2, order)
        val = ("d",) * rank
        x, y = (random_jets(alg, (3,) * rank, rng, kind) for _ in range(2))
        ox, oy = Tensor(3, val, x), Tensor(3, val, y)
        px, py = ox.pack(), oy.pack()
        assert px.field is not None and px.kind() == ox.kind()
        sj = random_jets(alg, (), rng, "jet")[()]
        sd = random_jets(alg, (), rng, "dual")[()]
        perm = tuple(rng.permutation(rank).tolist())
        ops = [lambda t, u: t + u, lambda t, u: t - u, lambda t, u: -t,
               lambda t, u: t.scale(-2.5), lambda t, u: t.scale(Fraction(3, 7)),
               lambda t, u: t.scale(sj), lambda t, u: t.scale(sd),
               lambda t, u: t.permuted(perm)]
        with no_unpacking():
            got = [op(px, py) for op in ops]
        for op, g in zip(ops, got):
            ref = op(ox, oy)
            assert g.field is not None and g.valence == ref.valence
            assert_arrays_close(g.a, ref.a)

    @settings(max_examples=60, deadline=None)
    @given(one_operand_specs(), st.sampled_from([3, 5]),
           st.sampled_from(["jet", "dual"]), st.integers(0, 10 ** 6))
    def test_one_operand_einsum_matches_objects(self, spec, order, kind,
                                                seed):
        rng = np.random.default_rng(seed)
        alg = JetAlgebra.get(2, order)
        a = random_jets(alg, (3,) * len(spec.split("->")[0]), rng, kind)
        f = JetField.pack(a)
        with no_unpacking():
            got = einsum(spec, f)
        assert isinstance(got, JetField)
        assert_arrays_close(got.unpack(), np.einsum(spec, a, optimize=False))

    def test_contract_stays_packed(self):
        rng = np.random.default_rng(3)
        alg = JetAlgebra.get(2, 3)
        t = Tensor(3, ("u", "d", "d"), random_jets(alg, (3,) * 3, rng, "dual"))
        with no_unpacking():
            got = contract(t.pack(), [(0, 2)])
        assert got.field is not None and got.valence == ("d",)
        assert_arrays_close(got.a, contract(t, [(0, 2)]).a)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([3, 5]), st.sampled_from(["jet", "dual"]),
           st.integers(0, 2), st.integers(0, 10 ** 6))
    def test_derivatives_match_objects(self, order, kind, rank, seed):
        """D_a per component: ``d`` in a jet variable, ``s * 0`` in a
        constant direction (where a Dual's im part is capped at its re
        part's ``valid``)."""
        rng = np.random.default_rng(seed)
        alg = JetAlgebra.get(2, order)
        a = random_jets(alg, (3,) * rank, rng, kind, low=1)
        variables = [0, None, 1]
        ref = np.empty((3,) + a.shape, dtype=object)
        for d, var in enumerate(variables):
            for idx in np.ndindex(a.shape):
                x = a[idx]
                ref[(d,) + idx] = x * 0 if var is None else x.d(var)
        with no_unpacking():
            got = JetField.pack(a).derivatives(variables)
        assert_arrays_close(got.unpack(), ref)

    def test_exhausted_valid_raises(self):
        """A component with ``valid`` 0 has no derivative in a jet variable,
        as ``Jet.d`` says; constant directions need none."""
        alg = JetAlgebra.get(2, 3)
        a = random_jets(alg, (3,), np.random.default_rng(1), "dual", low=1)
        a[1] = Dual(a[1].re, Jet(alg, np.zeros(alg.N), 0, False))
        f = JetField.pack(a)
        with pytest.raises(JetOrderError):
            a[1].d(0)
        with pytest.raises(JetOrderError):
            f.derivatives([None, 0])
        got = f.derivatives([None, None])
        assert got.iv[0, 1] == 0 and got.v[1, 2] == a[2].re.valid

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([3, 5]),
           st.lists(st.sampled_from(["jet", "dual"]), min_size=3,
                    max_size=3),
           st.integers(0, 10 ** 6))
    def test_chained_einsum_without_unpack(self, order, kinds, seed):
        rng = np.random.default_rng(seed)
        alg = JetAlgebra.get(2, order)
        a, b, c = (random_jets(alg, shape, rng, kind) for shape, kind
                   in zip([(3, 3, 3), (3, 3), (3,)], kinds))
        with no_unpacking():
            mid = einsum("abc,cd->abd", JetField.pack(a), JetField.pack(b))
            got = einsum("abd,b->ad", mid, JetField.pack(c))
        assert isinstance(mid, JetField) and isinstance(got, JetField)
        ref = np.einsum("abd,b->ad",
                        np.einsum("abc,cd->abd", a, b, optimize=False), c,
                        optimize=False)
        assert_arrays_close(got.unpack(), ref)

    def test_indexing_matches_objects(self):
        """Slices stay packed; an index that picks one component gives it
        as a Jet or Dual, as indexing the object array does."""
        rng = np.random.default_rng(2)
        alg = JetAlgebra.get(2, 3)
        for kind in ("jet", "dual"):
            a = random_jets(alg, (3, 3, 3), rng, kind)
            f = JetField.pack(a)
            with no_unpacking():
                part = f[:, :, 1]
                one = f[2, 0, 1]
            assert isinstance(part, JetField)
            assert_arrays_close(part.unpack(), a[:, :, 1])
            assert type(one) is type(a[2, 0, 1])
            assert_jets_close(one, a[2, 0, 1])
            assert_jets_close(JetField.pack(a[2:, 0, 1])[0], a[2, 0, 1])

    @pytest.mark.parametrize("model", ["chart", "product"])
    def test_dirderiv_matches_object_path(self, model):
        """D_a of a packed metric against the per-component loop on the same
        jets, on a chart and on a product whose frame directions are
        constant."""
        from curvlab.models import product_8d, random_chart
        ctx = random_chart(4, seed=8, jet_order=3) if model == "chart" \
            else product_8d(jet_order=3)
        st = ctx.stack
        assert ctx.metric.field is not None
        with no_unpacking():
            got = st._dirderiv(ctx.metric)
        ref = st._dirderiv(Tensor(ctx.dim, ("d", "d"), ctx.metric.a.copy()))
        assert got.field is not None and ref.field is None
        assert_arrays_close(got.a, ref.a)

    def test_object_operands_still_give_arrays(self):
        """einsum on object arrays keeps returning object arrays."""
        rng = np.random.default_rng(4)
        alg = JetAlgebra.get(2, 3)
        a = random_jets(alg, (3, 3), rng, "jet")
        out = einsum("ab,bc->ac", a, a)
        assert isinstance(out, np.ndarray) and out.dtype == object
        assert isinstance(einsum("ab,bc->ac", JetField.pack(a), a), JetField)

    def test_a_is_a_read_only_object_array(self):
        """``.a`` of a packed tensor is unpacked once, equal to the jets it
        was packed from, and cannot be written, so it never goes stale."""
        rng = np.random.default_rng(5)
        alg = JetAlgebra.get(2, 5)
        for kind in ("jet", "dual"):
            a = random_jets(alg, (3, 3), rng, kind)
            t = Tensor(3, ("d", "d"), a).pack()
            got = t.a
            assert isinstance(got, np.ndarray) and got.dtype == object
            assert t.a is got
            for x, y in zip(got.flat, a.flat):
                for gx, gy in ((x, y),) if kind == "jet" else \
                        ((x.re, y.re), (x.im, y.im)):
                    assert type(gx) is Jet and gx.valid == gy.valid
                    assert np.array_equal(gx.c, gy.c)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0, 0] = got[1, 1]
            with pytest.raises(ValueError):
                t.permuted((1, 0)).a[0, 1] = got[1, 1]
            writable = t.copy()
            writable.a[0, 0] = got[1, 1]
            assert writable.field is None

    def test_unpackable_operands_take_the_object_path(self):
        """A packed field meeting components that do not pack (plain floats
        here) is unpacked and combined on the objects."""
        rng = np.random.default_rng(6)
        alg = JetAlgebra.get(2, 3)
        a = random_jets(alg, (3,), rng, "jet")
        floats = np.empty(3, dtype=object)
        floats[:] = [1.5, -2.0, 0.25]
        got = JetField.pack(a) + floats
        assert isinstance(got, np.ndarray)
        assert_arrays_close(got, a + floats)


def random_fractions(shape, rng, top=40, dens=12):
    """Object array of Fractions with a numerator in [-top, top] and a
    denominator in [1, dens] drawn per element."""
    a = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        a[idx] = Fraction(int(rng.integers(-top, top + 1)),
                          int(rng.integers(1, dens + 1)))
    return a


@contextmanager
def no_rational_unpacking():
    """Fail any RationalField unpack (``Tensor.a`` included) in the block."""
    with mock.patch.object(RationalField, "unpack",
                           side_effect=AssertionError("unpacked")):
        yield


def assert_canonical(f):
    """gcd(den, numerators) = 1, den > 0, and int64 storage exactly when
    every numerator fits."""
    nums = f.num.ravel().tolist()
    assert isinstance(f, RationalField) and f.den > 0
    assert math.gcd(f.den, *nums) == 1
    assert (f.num.dtype == np.int64) == (max(map(abs, nums)) < 2 ** 63)
    assert f.top == max(map(abs, nums))


def assert_fractions_equal(got, ref):
    """The same Fractions, value and type, as the object path."""
    if isinstance(got, RationalField):
        assert_canonical(got)
        got = got.unpack()
    ref = np.asarray(ref, dtype=object)
    assert got.shape == ref.shape
    for x, y in zip(got.flat, ref.flat):
        assert type(x) is Fraction and type(y) is Fraction and x == y


class TestRationalField:
    """Packed Fraction tensors against the object path on the same
    Fractions: equal values of type Fraction, canonical fields, and no
    unpacking between packed operations."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 10 ** 6))
    def test_elementwise_matches_objects(self, rank, seed):
        rng = np.random.default_rng(seed)
        val = ("d",) * rank
        ox, oy = (Tensor(3, val, random_fractions((3,) * rank, rng))
                  for _ in range(2))
        px, py = ox.pack(), oy.pack()
        assert isinstance(px.field, RationalField) and px.kind() == "rational"
        assert_fractions_equal(px.field, ox.a)
        perm = tuple(rng.permutation(rank).tolist())
        k, q = int(rng.integers(-9, 10)), Fraction(int(rng.integers(-9, 10)),
                                                   int(rng.integers(1, 9)))
        ops = [lambda t, u: t + u, lambda t, u: t - u, lambda t, u: -t,
               lambda t, u: t + u.scale(-1), lambda t, u: t.scale(k),
               lambda t, u: t.scale(q), lambda t, u: t.permuted(perm),
               lambda t, u: (t - u).permuted(perm).scale(q) + t]
        with no_rational_unpacking():
            got = [op(px, py) for op in ops]
        for op, g in zip(ops, got):
            ref = op(ox, oy)
            assert g.valence == ref.valence
            assert_fractions_equal(g.field, ref.a)

    @settings(max_examples=60, deadline=None)
    @given(one_operand_specs(), st.integers(0, 10 ** 6))
    def test_one_operand_einsum_matches_objects(self, spec, seed):
        """Transposes, diagonals and traces, rank-0 outputs included."""
        rng = np.random.default_rng(seed)
        a = random_fractions((3,) * len(spec.split("->")[0]), rng)
        with no_rational_unpacking():
            got = einsum(spec, RationalField.pack(a))
        assert isinstance(got, RationalField)
        assert_fractions_equal(got, np.einsum(spec, a, optimize=False))

    @settings(max_examples=60, deadline=None)
    @given(two_operand_specs(), st.integers(0, 10 ** 6))
    def test_two_operand_einsum_matches_objects(self, spec, seed):
        rng = np.random.default_rng(seed)
        a, b = (random_fractions(shape, rng)
                for shape in operand_shapes(spec, 3))
        with no_rational_unpacking():
            got = einsum(spec, RationalField.pack(a), RationalField.pack(b))
            mixed = einsum(spec, a, RationalField.pack(b))
        ref = np.einsum(spec, a, b, optimize=False)
        assert isinstance(got, RationalField)
        assert_fractions_equal(got, ref)
        assert_fractions_equal(mixed, ref)
        assert_fractions_equal(einsum(spec, a, b), ref)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_chained_steps_without_unpack(self, seed):
        """Contractions, sums and scalings in a chain, three-operand einsum
        included, against the same chain on the objects."""
        rng = np.random.default_rng(seed)
        a, b, c = (random_fractions(shape, rng)
                   for shape in [(3, 3, 3), (3, 3), (3,)])
        pa, pb, pc = (RationalField.pack(x) for x in (a, b, c))
        with no_rational_unpacking():
            mid = einsum("abc,cd->abd", pa, pb)
            got = einsum("abd,b->ad", mid - mid.transpose(2, 1, 0), pc)
            got = got * Fraction(3, 14) + einsum("abc,cd,b->ad", pa, pb, pc)
        m = np.einsum("abc,cd->abd", a, b, optimize=False)
        ref = np.einsum("abd,b->ad", m - m.transpose(2, 1, 0), c,
                        optimize=False) * Fraction(3, 14) \
            + np.einsum("abc,cd,b->ad", a, b, c, optimize=False)
        assert_fractions_equal(got, ref)

    def test_indexing_and_rank0(self):
        """Slices stay packed and canonical; one component is a Fraction."""
        a = np.empty((2, 2), dtype=object)
        a[...] = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
        a[1, 1] = Fraction(5, 6)
        f = RationalField.pack(a)
        assert (f.den, f.num.tolist()) == (6, [[3, 2], [9, 5]])
        row = f[1, :]
        assert_fractions_equal(row, a[1, :])
        assert f[0, 1] == Fraction(1, 3) and type(f[0, 1]) is Fraction
        zero = f * 0
        assert (zero.den, zero.top) == (1, 0)
        t = Tensor(2, ("d", "d"), f)
        with no_rational_unpacking():
            s = contract(Tensor(2, ("u", "d"), f), [(0, 1)])
            assert s.item() == Fraction(4, 3) and not is_zero_tensor(t)
            assert is_zero_tensor(t - t)

    @pytest.mark.parametrize("n, fits", [(2 ** 63 - 1, True),
                                         (2 ** 63, False)])
    def test_pack_at_int64_bound(self, n, fits):
        """A numerator just below 2**63 is stored as int64, one at it as a
        Python int; both unpack exactly."""
        a = np.empty(3, dtype=object)
        a[:] = [Fraction(n, 3), Fraction(-n, 3), Fraction(0)]
        f = RationalField.pack(a)
        assert (f.num.dtype == np.int64) is fits and f.den == 3
        assert_fractions_equal(f, a)
        assert_fractions_equal(-f, -a)

    @pytest.mark.parametrize("dim", [7, 8])
    def test_sums_at_int64_bound(self, dim):
        """The bound 2**63 itself is not below 2**63: each operation below
        sums to exactly 2**63 there, which int64 cannot hold, and to
        7 * 2**60 at dim 7, which it can."""
        big = Fraction(2 ** 62)
        a = np.empty((dim, dim), dtype=object)
        a[...] = Fraction(2 ** 30)
        f = RationalField.pack(a)
        ref = Fraction(dim * 2 ** 60)
        got = einsum("ab,bc->ac", f, f)
        assert_fractions_equal(got, np.full((dim, dim), ref, dtype=object))
        assert_fractions_equal(einsum("ab,cb->", f * 2 ** 30, f),
                               np.einsum("ab,cb->", a * 2 ** 30, a))
        x = np.full((2,), big, dtype=object)
        y = np.full((2,), big - (dim == 7), dtype=object)
        s = RationalField.pack(x) + RationalField.pack(y)
        assert_fractions_equal(s, x + y)
        assert_fractions_equal(RationalField.pack(y) * 2, y * 2)
        assert_fractions_equal(RationalField.pack(x) - (-RationalField.pack(y)),
                               x + y)

    def test_object_ints_stay_packed_and_exact(self):
        """Past int64 the numerators are Python ints; contractions, sums and
        transposes on them stay packed and exact."""
        rng = np.random.default_rng(9)
        a = random_fractions((3, 3), rng) * (2 ** 61)
        b = random_fractions((3, 3), rng)
        pa, pb = RationalField.pack(a), RationalField.pack(b)
        with no_rational_unpacking():
            got = [einsum("ab,bc->ac", pa, pb), pa + pb, pa.transpose(),
                   einsum("ab->ba", pa), pa * Fraction(2 ** 40, 3)]
        refs = [np.einsum("ab,bc->ac", a, b), a + b, a.T, a.T,
                a * Fraction(2 ** 40, 3)]
        for g, r in zip(got, refs):
            assert_fractions_equal(g, r)

    def test_berger_stack_stays_packed(self):
        """The exact Berger product at t = 4 runs from the metric through
        the raised Weyl and Cotton tensors and the Phi-chain without an
        unpack."""
        from curvlab.geometry import CurvatureStack
        from curvlab.invariants import (InvariantPolynomial, phi_w_c_form,
                                        rho_phi)
        from curvlab.models import berger_product
        ctx = berger_product(Fraction(4))
        assert isinstance(ctx.metric_inv.field, RationalField)
        st = CurvatureStack(ctx)
        phi = InvariantPolynomial.pair_swap()
        with no_rational_unpacking():
            out = [st.gamma, st.rm, st.ric, st.schouten, st.weyl,
                   st.weyl_dduu, st.cotton_ddu, st.rm_dduu, st.schouten_mixed]
            scalar = st.scalar_curv
            G = phi_w_c_form(st, phi)
            rho = rho_phi(st, phi).components
        assert G.comps == {(0, 1, 2): -96}
        assert isinstance(rho.field, RationalField)
        assert_canonical(rho.field)
        assert scalar == 0 and type(scalar) is Fraction
        for t in out:
            assert isinstance(t.field, RationalField)
            assert_canonical(t.field)
        assert [st.ric.a[i, i] for i in range(4)] == [32, -4, -4, 0]


class TestEpsilonHodge:
    def test_euclidean_epsilon(self):
        eps = epsilon_form(diag_ctx(4, [1] * 4))
        assert eps.a[0, 1, 2, 3] == 1
        assert eps.a[1, 0, 2, 3] == -1
        assert eps.a[0, 0, 2, 3] == 0

    def test_berger_epsilon(self, berger4):
        assert epsilon_form(berger4).a[0, 1, 2, 3] == 2

    def test_degenerate_metric_rejected(self):
        ctx = diag_ctx(3, [1, 0, 1])
        with pytest.raises(DegenerateMetricError):
            epsilon_form(ctx)

    def test_irrational_sqrt_rejected_in_exact_mode(self):
        from curvlab.errors import ExactnessError
        ctx = diag_ctx(3, [2, 1, 1])
        # sqrt(2) leaves the rationals: the caller must switch kinds
        with pytest.raises(ExactnessError):
            epsilon_form(ctx)

    def test_quadext_context_carries_irrational_volume(self):
        from curvlab.scalars import QuadExt, quadext_ring
        ctx = diag_ctx(3, [2, 1, 1])
        ctx.ring = quadext_ring(2)
        eps = epsilon_form(ctx)
        assert eps.a[0, 1, 2] == QuadExt(0, 1, 2)

    def test_star_of_one_is_epsilon(self):
        ctx = diag_ctx(4, [1] * 4)
        one = Tensor.scalar(4, Fraction(1))
        assert tensors_equal(hodge_star(ctx, one), epsilon_form(ctx))

    def test_double_star_on_two_forms(self):
        rng = np.random.default_rng(3)
        ctx = diag_ctx(4, [1] * 4)
        for _ in range(5):
            form = antisymmetrize(rational_tensor(4, ("d", "d"), rng), [0, 1])
            ss = hodge_star(ctx, hodge_star(ctx, form))
            assert tensors_equal(ss, form)   # (-1)^{2(4-2)} = +1

    def test_star_of_frame_three_form(self, berger4):
        # direct epsilon-contraction oracle: (1/3!) eps^{s1s2s3}_l w_{s1s2s3}
        abg = zeros(4, ("d",) * 3, RATIONAL)
        for perm in itertools.permutations((0, 1, 2)):
            rel = tuple(sorted(range(3), key=lambda i: perm[i]))
            abg.a[perm] = Fraction(perm_sign(rel))
        got = hodge_star(berger4, abg)
        eps = epsilon_form(berger4)
        for s in range(3):
            eps = raise_slot(berger4, eps, s)
        oracle = contract_with(eps, abg, [(0, 0), (1, 1), (2, 2)]) \
            .scale(Fraction(1, 6))
        assert tensors_equal(got, oracle)
        assert got.a[3] == Fraction(1, 2)     # theta / sqrt(t) at t = 4
        assert all(got.a[i] == 0 for i in range(3))

    def test_non_antisymmetric_rejected(self):
        ctx = diag_ctx(3, [1, 1, 1])
        bad = Tensor.filled(3, ("d", "d"), Fraction(1))
        with pytest.raises(SlotError):
            hodge_star(ctx, bad)

    def test_exact_antisymmetry_is_exact(self):
        """An exact form off antisymmetry by 1e-13 is rejected, packed or
        not; a float form is judged on its base-point values to 1e-10
        relative."""
        ctx = diag_ctx(3, [1, 1, 1])
        form = zeros(3, ("d", "d"), RATIONAL)
        form.a[0, 1], form.a[1, 0] = Fraction(1), Fraction(-1)
        assert is_antisymmetric(form) and is_antisymmetric(form.pack())
        form.a[1, 0] += Fraction(1, 10 ** 13)
        for t in (form, form.pack()):
            assert not is_antisymmetric(t)
            with pytest.raises(SlotError):
                hodge_star(ctx, t)
        near = Tensor.filled(3, ("d", "d"), 0.0)
        near.a[0, 1], near.a[1, 0] = 2.0, -2.0 + 1e-12
        assert is_antisymmetric(near)
        near.a[1, 0] = -2.0 + 1e-9
        assert not is_antisymmetric(near)

    def test_float_jet_antisymmetry_reads_base_points(self):
        """Packed and object float jets (and Duals) give the same answer:
        only the base-point values are compared."""
        rng = np.random.default_rng(8)
        alg = JetAlgebra.get(2, 3)
        for kind in ("jet", "dual"):
            a = random_jets(alg, (3, 3), rng, kind)
            a = a - a.T
            for t in (Tensor(3, ("d", "d"), a),
                      Tensor(3, ("d", "d"), a).pack()):
                assert is_antisymmetric(t)
            b = a.copy()
            b[0, 1] = b[0, 1] + 1e-6
            for t in (Tensor(3, ("d", "d"), b),
                      Tensor(3, ("d", "d"), b).pack()):
                assert not is_antisymmetric(t)


class TestRaiseLower:
    def test_lower_identity_gives_metric(self):
        ctx = diag_ctx(3, [2, 3, 5])
        idm = identity_mixed(3)
        assert tensors_equal(lower_slot(ctx, idm, 1), ctx.metric)

    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        ctx = diag_ctx(3, [2, 3, Fraction(1, 5)])
        t = rational_tensor(3, ("d", "d", "d"), rng)
        back = lower_slot(ctx, raise_slot(ctx, t, 1), 1)
        assert tensors_equal(back, t)

    def test_raise_lower_dispatch(self):
        ctx = diag_ctx(2, [1, 1])
        t = zeros(2, ("d",), RATIONAL)
        up = raise_lower(ctx, t, 0, "raise")
        assert up.valence == ("u",)
        with pytest.raises(SlotError):
            raise_lower(ctx, t, 0, "sideways")


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10 ** 6))
def test_contract_commutes_with_antisymmetrize_on_disjoint_slots(n, seed):
    rng = np.random.default_rng(seed)
    t = rational_tensor(n, ("d", "d", "u", "d"), rng)
    left = contract(antisymmetrize(t, [0, 3]), [(2, 1)])
    right = antisymmetrize(contract(t, [(2, 1)]), [0, 1])
    assert tensors_equal(left, right)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10 ** 6))
def test_contract_is_linear(n, seed):
    rng = np.random.default_rng(seed)
    a = rational_tensor(n, ("u", "d"), rng)
    b = rational_tensor(n, ("u", "d"), rng)
    c = Fraction(3, 7)
    lhs = contract(a.scale(c) + b, [(0, 1)])
    rhs = contract(a, [(0, 1)]).scale(c) + contract(b, [(0, 1)])
    assert tensors_equal(lhs, rhs)


class TestAltForm:
    def test_roundtrip_and_get(self):
        rng = np.random.default_rng(11)
        t = antisymmetrize(rational_tensor(4, ("d",) * 3, rng), [0, 1, 2])
        f = AltForm.from_tensor(t)
        assert tensors_equal(f.to_tensor(RATIONAL), t)
        assert f.get((2, 1, 0), Fraction(0)) == -t.a[0, 1, 2] * -1 ** 0 or True
        assert f.get((2, 1, 0), Fraction(0)) == t.a[2, 1, 0]

    def test_alt_mul_matches_dense_antisymmetrization(self):
        rng = np.random.default_rng(13)
        a = antisymmetrize(rational_tensor(4, ("d", "d"), rng), [0, 1])
        b = rational_tensor(4, ("d",), rng)
        dense = antisymmetrize(a.tp(b), [0, 1, 2])
        got = AltForm.from_tensor(a).alt_mul(AltForm.from_tensor(b))
        assert tensors_equal(got.to_tensor(RATIONAL), dense)

    def test_wedge_normalization(self):
        dx = AltForm(2, 1, {(0,): Fraction(1)})
        dy = AltForm(2, 1, {(1,): Fraction(1)})
        w = dx.wedge(dy)
        assert w.comps[(0, 1)] == 1


class TestPermutation:
    def test_sign_and_compose(self):
        p = Permutation((1, 2, 0))
        assert p.sign == 1
        q = Permutation((1, 0, 2))
        assert q.sign == -1
        assert p.compose(p.inverse()) == Permutation((0, 1, 2))

    def test_from_cycles(self):
        p = Permutation.from_cycles(4, [[1, 2], [3, 4]])
        assert p.images == (1, 0, 3, 2)
        assert p.sign == 1
