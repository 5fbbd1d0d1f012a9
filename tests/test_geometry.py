import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from curvlab import geometry
from curvlab import invariants
from curvlab.config import context_from_config
from curvlab.conformal import (ConformalFactor, _dual_context, clone_context,
                               linearize)
from curvlab.errors import (ConfigError, DegenerateMetricError,
                            DimensionError, JetOrderError, ScalarKindError)
from curvlab.fields import JetField
from curvlab.rationals import RationalField, _top
from curvlab.geometry import (ChartContext, FrameContext, _invert_with_det,
                              cotton, bach, dual_ring, kulkarni_nomizu_pg,
                              product)
from curvlab.jets import Dual, Jet
from curvlab.models import (_su2_frame, berger_frame, berger_product,
                            circle_frame, flat_chart, fs_cp2_chart,
                            killing_field_T, product_8d, random_chart,
                            random_conformal_factor, round_sphere_chart)
from curvlab.polys import Poly
from curvlab.scalars import FLOAT, RATIONAL
from curvlab.tensors import (Tensor, antisymmetrize, is_zero_tensor, max_abs,
                             residual, tensors_equal, zeros)


class TestFlatAndSphere:
    def test_flat_stack_vanishes(self):
        st = flat_chart(4, jet_order=2, exact=True).stack
        assert is_zero_tensor(st.rm)
        assert is_zero_tensor(st.ric)
        assert st.scalar_curv == 0

    def test_round_sphere_closed_form(self):
        for pt in (None, (Fraction(-2, 7), Fraction(1, 2), Fraction(0),
                          Fraction(3, 5))):
            ctx = round_sphere_chart(4, jet_order=3, exact=True,
                                     base_point=pt)
            st = ctx.stack
            g = ctx.metric
            expect = Tensor(4, ("d",) * 4, np.asarray(
                np.einsum("ik,jl->ijkl", g.a, g.a)
                - np.einsum("il,jk->ijkl", g.a, g.a), dtype=object))
            assert tensors_equal(st.rm, expect)
            assert is_zero_tensor(st.weyl)
            assert tensors_equal(st.schouten, g.scale(Fraction(1, 2)))
            assert is_zero_tensor(st.cotton)


class TestBergerFrame:
    def test_connection_displays(self, berger4, berger4_stack):
        st = berger4_stack
        t = Fraction(4)
        alpha = zeros(4, ("d",), RATIONAL)
        alpha.a[0] = Fraction(1)
        na = st.nabla(alpha)
        assert na.a[1, 2] == -1 and na.a[2, 1] == 1
        assert sum(1 for x in na.a.flat if x) == 2
        beta = zeros(4, ("d",), RATIONAL)
        beta.a[1] = Fraction(1)
        nb = st.nabla(beta)
        assert nb.a[0, 2] == -(t - 2) and nb.a[2, 0] == -t

    def test_ricci_display(self, berger4_stack):
        ric = berger4_stack.ric
        assert [ric.a[i, i] for i in range(4)] == [32, -4, -4, 0]

    def test_torsion_free_with_structure_constants(self, berger4,
                                                   berger4_stack):
        gam = berger4_stack.gamma
        c = berger4.structure
        for k in range(4):
            for a in range(4):
                for b in range(4):
                    assert gam.a[k, a, b] - gam.a[k, b, a] == c[k, a, b]

    def test_frame_validation(self):
        """Both rejections, each with its message, in exact and float mode."""
        bad_jacobi = {(0, 0, 1): 1, (0, 1, 0): -1, (1, 1, 2): 1,
                      (1, 2, 1): -1, (0, 1, 2): 1, (0, 2, 1): -1}
        for scalar, ring in ((Fraction, RATIONAL), (float, FLOAT)):
            for dim, structure, message in (
                    (2, {(0, 0, 1): 1}, "structure constants not antisymmetric"),
                    (3, bad_jacobi, "Jacobi identity fails")):
                sc = {k: scalar(v) for k, v in structure.items()}
                g = [[scalar(int(i == j)) for j in range(dim)]
                     for i in range(dim)]
                with pytest.raises(ValueError, match=message):
                    FrameContext(dim, sc, g, ring=ring)


class TestStackInvariants:
    def test_chart_invariants(self, chart4, chart4_stack):
        st = chart4_stack
        rm = st.rm.at_point()
        scale = max(1.0, max_abs(rm))
        # pair antisymmetry and pair exchange
        assert residual(rm, rm.permuted((1, 0, 2, 3)).scale(-1)) < 1e-12
        assert residual(rm, rm.permuted((0, 1, 3, 2)).scale(-1)) < 1e-12
        assert residual(rm, rm.permuted((2, 3, 0, 1))) < 1e-12
        # first Bianchi
        assert max_abs(antisymmetrize(rm, [0, 1, 2])) / scale < 1e-12
        # Weyl: all traces vanish
        w = st.weyl_dduu.at_point()
        for up, down in (((2, 0)), ((2, 1)), ((3, 0)), ((3, 1))):
            from curvlab.tensors import contract
            assert max_abs(contract(w, [(up, down)])) / scale < 1e-10
        assert max_abs(antisymmetrize(st.weyl.at_point(), [0, 1, 2])) \
            / scale < 1e-12
        # decomposition R = W + P (kn) g
        rec = st.weyl + kulkarni_nomizu_pg(st.schouten, chart4.metric)
        assert residual(rec.at_point(), st.rm.at_point()) < 1e-10
        # Cotton: C_[ijk] = 0 and trace-free
        c = st.cotton.at_point()
        assert max_abs(antisymmetrize(c, [0, 1, 2])) / scale < 1e-12
        from curvlab.tensors import raise_slot, contract
        cu = raise_slot(chart4, st.cotton, 2).at_point()
        assert max_abs(contract(cu, [(2, 1)])) / scale < 1e-10
        # divergence relation
        assert residual(st.div(st.weyl, 2).at_point(),
                        st.cotton.at_point()) < 1e-10

    def test_metric_compatibility(self, chart4, chart4_stack, berger4,
                                  berger4_stack):
        ng = chart4_stack.nabla(chart4.metric)
        assert max_abs(ng.at_point()) < 1e-13
        assert is_zero_tensor(berger4_stack.nabla(berger4.metric))

    def test_frame_invariants_exact(self, berger4, berger4_stack):
        st = berger4_stack
        rm = st.rm
        assert tensors_equal(rm, rm.permuted((2, 3, 0, 1)))
        assert is_zero_tensor(antisymmetrize(rm, [0, 1, 2]))
        rec = st.weyl + kulkarni_nomizu_pg(st.schouten, berger4.metric)
        assert tensors_equal(rec, rm)
        assert tensors_equal(st.div(st.weyl, 2), st.cotton)


class TestCottonBach:
    def test_einstein_chart_has_zero_cotton(self):
        ctx = fs_cp2_chart(jet_order=3, exact=True)
        assert is_zero_tensor(cotton(ctx))

    def test_bach_requires_enough_jets(self):
        ctx = random_chart(4, seed=1, jet_order=3)
        with pytest.raises(JetOrderError):
            bach(ctx)

    def test_schouten_needs_dim3(self):
        ctx = flat_chart(2, jet_order=2, exact=True)
        with pytest.raises(DimensionError):
            ctx.stack.schouten
        with pytest.raises(DimensionError):
            cotton(ctx)

    def test_bach_on_chart(self):
        ctx = random_chart(4, seed=2, jet_order=4)
        b = bach(ctx)
        assert residual(b.at_point(), b.permuted((1, 0)).at_point()) < 1e-12


class TestProducts:
    def test_flat_times_flat_is_flat(self):
        f2 = flat_chart(2, jet_order=2, exact=True)
        prod = product([f2, flat_chart(2, jet_order=2, exact=True)])
        assert prod.dim == 4
        assert is_zero_tensor(prod.stack.rm)

    def test_mixed_scalar_kinds_rejected(self):
        with pytest.raises(ScalarKindError):
            product([berger_frame(Fraction(4)),
                     fs_cp2_chart(jet_order=2, exact=False)])

    def test_cross_block_curvature_vanishes(self):
        prod = product([berger_frame(Fraction(4)).to_float(),
                        circle_frame(exact=False),
                        fs_cp2_chart(jet_order=2, exact=False)])
        rm = prod.stack.rm.at_point()
        worst = 0.0
        for idx in np.ndindex(rm.a.shape):
            blocks = {0 if q < 4 else 1 for q in idx}
            if len(blocks) > 1:
                worst = max(worst, abs(rm.a[idx]))
        assert worst < 1e-12

    @pytest.mark.parametrize("factors", [
        lambda: [berger_frame(Fraction(9, 4)), circle_frame()],
        # lcm 2**40 3**26: rescaled numerators near 2**81
        lambda: [berger_frame(Fraction(1, 2 ** 40)),
                 berger_frame(Fraction(1, 3 ** 26))],
        # the circle's rescaling factor alone is 2**64
        lambda: berger_product(Fraction(1, 2 ** 64)).factors,
        # structure constants over large coprime denominators
        lambda: [_su2_frame(Fraction(1), Fraction(1, 5 ** 27), True),
                 _su2_frame(Fraction(1), Fraction(3, 7 ** 22), True)],
    ], ids=["small", "coprime-2^81", "circle-factor-2^64", "brackets"])
    def test_exact_blocks_pack_like_objects(self, factors):
        """The exact product's metric and structure constants, assembled as
        numerator blocks, are the fields the block-diagonal Fraction arrays
        pack to, also when the rescaled numerators or the rescaling factors
        do not fit in int64."""
        factors = factors()
        prod = product(factors)
        n = prod.dim
        g = np.full((n, n), Fraction(0), dtype=object)
        c = np.full((n, n, n), Fraction(0), dtype=object)
        for f, off in zip(factors, prod.offsets):
            blk = slice(off, off + f.dim)
            g[blk, blk] = f.metric.a
            c[blk, blk, blk] = f.structure.unpack()
        for got, ref in ((prod.metric.field, g), (prod.structure, c)):
            want = RationalField.pack(ref)
            assert isinstance(got, RationalField)
            assert (got.den, got.num.dtype, got.num.tolist()) == \
                (want.den, want.num.dtype, want.num.tolist())
            assert got.bound >= max(_top(got.num), 1)

    def test_product_blocks_match_factors(self):
        s3 = berger_frame(Fraction(4))
        prod = product([s3, circle_frame()])
        sub = prod.stack.ric
        solo = s3.stack.ric
        for i in range(3):
            for j in range(3):
                assert sub.a[i, j] == solo.a[i, j]


class TestCovariantDerivative:
    def test_second_bianchi_consequence(self, chart4, chart4_stack):
        st = chart4_stack
        from curvlab.tensors import raise_slot
        wup = raise_slot(chart4, raise_slot(chart4, st.weyl, 2), 3)
        lhs = antisymmetrize(st.nabla(wup), [0, 1, 2])
        idm = zeros(4, ("d", "u"), chart4.ring)
        for i in range(4):
            idm.a[i, i] = chart4.ring.one()
        big = st.cotton_ddu.tp(idm).permuted((0, 1, 3, 2, 4))
        rhs = antisymmetrize(antisymmetrize(big, [0, 1, 2]),
                             [3, 4]).scale(-2)
        assert residual(lhs.at_point(), rhs.at_point()) < 1e-8

    def test_op_wrapper(self, chart4):
        ng = chart4.stack.nabla(chart4.metric)
        assert ng.valence == ("d", "d", "d")
        assert max_abs(ng.at_point()) < 1e-12


class TestConfig:
    def test_chart_roundtrip(self):
        cfg = {
            "kind": "chart", "dim": 2, "base_point": ["0", "0"],
            "jet_order": 2, "exact": True,
            "metric": [
                [{"num": {"0,0": "1"}}, {"num": {"0,0": "0"}}],
                [{"num": {"0,0": "0"}}, {"num": {"0,0": "1"}}],
            ],
        }
        ctx = context_from_config(cfg)
        assert ctx.dim == 2 and is_zero_tensor(ctx.stack.rm)

    def test_frame_roundtrip(self):
        cfg = {
            "kind": "frame", "dim": 3,
            "metric": [["4", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            "structure": [{"e": 2, "a": 0, "b": 1, "c": "2"},
                          {"e": 0, "a": 1, "b": 2, "c": "2"},
                          {"e": 1, "a": 2, "b": 0, "c": "2"}],
        }
        ctx = context_from_config(cfg)
        assert ctx.stack.ric.a[0, 0] == 32

    def test_product_config(self):
        frame = {
            "kind": "frame", "dim": 1, "metric": [["1"]], "structure": [],
        }
        cfg = {"kind": "product", "factors": [frame, frame]}
        ctx = context_from_config(cfg)
        assert ctx.dim == 2

    def test_bad_config_raises(self):
        with pytest.raises(ConfigError):
            context_from_config({"kind": "nonsense"})
        with pytest.raises(ConfigError):
            context_from_config({"kind": "chart", "dim": 2,
                                 "base_point": ["0"], "metric": []})
        bad_frame = {
            "kind": "frame", "dim": 2,
            "metric": [["1", "0"], ["0", "1"]],
            "structure": [{"e": 0, "a": 0, "b": 1, "c": "x"}],
        }
        with pytest.raises(ConfigError):
            context_from_config(bad_frame)

    @pytest.mark.parametrize("index", [3, -1])
    def test_structure_index_out_of_range_raises(self, index):
        """A negative index is refused too: numpy would wrap it onto the
        last row."""
        cfg = {"kind": "frame", "dim": 3,
               "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
               "structure": [{"e": index, "a": 0, "b": 1, "c": "1"}]}
        with pytest.raises(ConfigError, match="out of range for dim 3"):
            context_from_config(cfg)


class TestStackInvariantChecker:
    def test_exact_on_frame(self, berger4_stack):
        for name, res in berger4_stack.check_invariants():
            assert res == 0.0, name

    def test_tight_on_chart(self, chart4_stack):
        for name, res in chart4_stack.check_invariants():
            assert res <= 1e-10, (name, res)


@pytest.mark.parametrize("model", ["s4_exact", "cp2_exact", "berger4"])
def test_riemann_matches_the_four_term_formula(model, request):
    """R_ab^c_d computed with one Gamma-Gamma product equals the formula
    with both products, exactly."""
    from curvlab.tensors import einsum
    ctx = request.getfixturevalue(model)
    st = ctx.stack
    ga = st.gamma.a
    dgam = st._dirderiv(st.gamma).a
    ref = np.einsum("acbd->abcd", dgam) - np.einsum("bcad->abcd", dgam) \
        + einsum("cae,ebd->abcd", ga, ga) - einsum("cbe,ead->abcd", ga, ga)
    if ctx.structure is not None:
        ref = ref - einsum("eab,ced->abcd", ctx.structure, ga)
    ref = Tensor(ctx.dim, ("d", "d", "u", "d"), ref)
    assert st.rm_mixed.valence == ref.valence
    assert st.rm_mixed.a.tolist() == ref.a.tolist()


def test_insufficient_jet_order_signals_rebuild():
    ctx = random_chart(4, seed=0, jet_order=1)
    assert ctx.stack.gamma is not None
    with pytest.raises(JetOrderError):
        ctx.stack.rm_mixed


def test_lorentzian_signature_smoke():
    """Pseudo-Riemannian metrics work through |det g| in the volume form."""
    from curvlab.tensors import epsilon_form
    entries = [[Fraction(-1 if i == 0 and j == 0 else (1 if i == j else 0))
                for j in range(4)] for i in range(4)]
    ctx = ChartContext.from_polys(entries, base_point=(Fraction(0),) * 4,
                                  jet_order=2, exact=True)
    st = ctx.stack
    assert is_zero_tensor(st.rm)
    eps = epsilon_form(ctx)
    assert eps.a[0, 1, 2, 3] == 1          # sqrt|det g| = 1


class TestShippedConfigs:
    configs = __import__("pathlib").Path(__file__).parent.parent / "configs"

    def test_berger_config_round_trips(self):
        from curvlab.config import load_model_file
        ctx = load_model_file(str(self.configs / "berger_frame.json"))
        assert ctx.dim == 4
        assert ctx.stack.ric.a[0, 0] == 32

    def test_round_sphere_config(self):
        from curvlab.config import load_model_file
        ctx = load_model_file(str(self.configs / "round_s4_chart.json"))
        st = ctx.stack
        assert max_abs(st.weyl.at_point()) < 1e-12


# -- the Newton-lifted metric inverse ------------------------------------------


def _jet_parts(s):
    return (s.re, s.im) if isinstance(s, Dual) else (s,)


def _assert_same_jet(got, want):
    """Equal ``valid`` orders; exact jets equal coefficient for coefficient,
    float jets to 1e-12 of the largest coefficient."""
    for x, y in zip(_jet_parts(got), _jet_parts(want)):
        assert x.valid == y.valid
        if y.exact:
            assert list(x.c) == list(y.c)
        else:
            np.testing.assert_allclose(
                x.c, y.c, rtol=0, atol=1e-12 * max(1.0, np.abs(y.c).max()))


def _assert_matches_gauss_jordan(ctx):
    """metric_inv, det_metric and volume against Gauss-Jordan run on the
    unpacked object matrix of jets."""
    inv, det = _invert_with_det(ctx.metric.a, ctx.ring)
    got = ctx.metric_inv.a
    for idx in np.ndindex(inv.shape):
        _assert_same_jet(got[idx], inv[idx])
    _assert_same_jet(ctx.det_metric, det)
    base = _jet_parts(det)[0].c[0]
    sign = -1 if base < 0 else 1
    root = (det * sign).sqrt()
    o = ctx.orientation
    for g, w in zip(ctx.volume, (root * o, root.inverse() * (o * sign))):
        _assert_same_jet(g, w)


def _coeffs(s) -> list:
    return list(s.c) if isinstance(s, Jet) else [s]


def _assert_close(got, want, scale):
    """Equal coefficient lists (a constant want padded with zeros): exactly
    for exact scalars, else to 1e-13 of scale; jets keep their ``valid``."""
    g, w = _coeffs(got), _coeffs(want)
    w += [0] * (len(g) - len(w))
    if isinstance(got, Jet) and isinstance(want, Jet):
        assert got.valid == want.valid
    if isinstance(g[0], float):
        assert max(abs(x - y) for x, y in zip(g, w)) <= 1e-13 * scale
    else:
        assert g == w


def _leibniz(m):
    """det m as the sum over permutations, in the arithmetic of m's
    entries."""
    total = None
    for perm in itertools.permutations(range(len(m))):
        term = m[0, perm[0]]
        for i in range(1, len(m)):
            term = term * m[i, perm[i]]
        if sum(x > y for x, y in itertools.combinations(perm, 2)) % 2:
            term = -term
        total = term if total is None else total + term
    return total


def _assert_dual_inverse(ctx):
    """metric_inv and det_metric of a metric of Duals G = A + eps B against
    an oracle that shares no code with them: G X = I in Dual arithmetic,
    det G by the Leibniz expansion in Dual arithmetic, and the eps part of
    det G against det A tr(XB)."""
    g, x, n = ctx.metric.a, ctx.metric_inv.a, ctx.dim
    assert all(isinstance(s, Dual) for s in x.flat)

    def mag(s):
        return max(abs(float(c)) for part in (s.re, s.im)
                   for c in _coeffs(part))
    scale = n * max(map(mag, g.flat)) * max(map(mag, x.flat))
    for i, k in itertools.product(range(n), repeat=2):
        p = g[i, 0] * x[0, k]
        for j in range(1, n):
            p = p + g[i, j] * x[j, k]
        _assert_close(p.re, int(i == k), scale)
        _assert_close(p.im, 0, scale)
    det, got = _leibniz(g), ctx.det_metric
    scale = mag(det)
    _assert_close(got.re, det.re, scale)
    _assert_close(got.im, det.im, scale)
    tr = sum(x[a, b].re * g[b, a].im
             for a, b in itertools.product(range(n), repeat=2))
    _assert_close(got.im, det.re * tr, scale)


def _lorentzian_entries(dim=4):
    """diag(-1, 1, ..., 1) plus small rational polynomials."""
    rng = np.random.default_rng(5)
    entries = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            coeffs = {}
            for v in range(dim):
                e = [0] * dim
                e[v] = 1
                coeffs[tuple(e)] = Fraction(int(rng.integers(-9, 10)), 100)
            e = [0] * dim
            e[i] += 1
            e[j] += 1
            coeffs[tuple(e)] = Fraction(int(rng.integers(-9, 10)), 100)
            coeffs[(0,) * dim] = Fraction(-1 if i == j == 0 else int(i == j))
            entries[i][j] = entries[j][i] = Poly(dim, coeffs)
    return entries


class TestTruncatedProducts:
    """Products summed with a term of lower ``valid`` (Riemann's Gamma
    Gamma, the corrections of grad, Bach's W P) stop at that term's largest
    ``valid``: every result equals the untruncated computation, with the
    same ``valid`` arrays."""

    @staticmethod
    def _assert_same(got, ref, scale=None):
        """Same ``valid``s, coefficients within 1e-13 of the largest in
        ``scale`` (default: ref)."""
        for (c, v, _), (rc, rv, _), (sc, _, _) in zip(
                got._parts(), ref._parts(), (scale or ref)._parts()):
            assert np.array_equal(v, rv)
            assert np.abs(c - rc).max() <= 1e-13 * np.abs(sc).max()

    @pytest.mark.parametrize("dual", [False, True])
    def test_stack_matches_untruncated(self, dual, monkeypatch):
        def stack_fields():
            ctx = random_chart(4, seed=7, jet_order=5)
            if dual:
                ups = ConformalFactor.from_poly(random_conformal_factor(4, 3))
                ctx = _dual_context(ctx, ups.field(ctx))
            st = ctx.stack
            b = st.bach
            return [st.rm_mixed, st.cotton, b, st.div(b, 1)]
        got = stack_fields()
        monkeypatch.setattr(JetField, "truncated", lambda self, k: self)
        ref = stack_fields()
        bach = ref[2].data          # div B is zero up to rounding: B's scale
        for g, r, scale in zip(got, ref, [None, None, None, bach]):
            assert isinstance(g.data, JetField)
            self._assert_same(g.data, r.data, scale)

    def test_fields_hold_only_their_live_rows(self):
        """Each field of the stack stores the coefficient rows up to its
        largest ``valid``: 126 for the inverse metric at order 5, 35 for
        Riemann and Weyl, 5 for Bach."""
        ctx = random_chart(4, seed=7, jet_order=5)
        st, alg = ctx.stack, ctx.jet_algebra
        for t in (ctx.metric_inv, st.gamma, st.rm_mixed, st.weyl, st.cotton,
                  st.bach, st.div(st.bach, 1)):
            assert len(t.data.c) == alg.upto[int(t.data.v.max())]

    def test_nabla_keeps_every_valid(self, monkeypatch):
        """On a tensor whose components' ``valid``s differ, so do D t's,
        and no component's ``valid`` in grad t changes."""
        ctx = random_chart(4, seed=8, jet_order=5)
        alg = ctx.jet_algebra
        rng = np.random.default_rng(8)
        v = rng.integers(1, alg.order + 1, size=(4, 4))
        c = rng.standard_normal((alg.N, 4, 4))
        c[alg.deg[:, None, None] > v] = 0.0
        t = Tensor(4, "dd", JetField(alg, c, v))
        got = ctx.stack.nabla(t).data
        monkeypatch.setattr(JetField, "truncated", lambda self, k: self)
        ref = ctx.stack.nabla(t).data
        assert len(np.unique(ref.v)) > 1
        self._assert_same(got, ref)


class TestNewtonInverse:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_float_jets(self, order):
        ctx = random_chart(4, seed=10 + order, jet_order=order)
        assert isinstance(ctx.metric.field, JetField)
        _assert_matches_gauss_jordan(ctx)

    def test_dual_context(self, chart4):
        ups = ConformalFactor.from_poly(random_conformal_factor(4, 3))
        dual = _dual_context(chart4, ups.field(chart4))
        assert dual.metric.field.ic is not None
        _assert_dual_inverse(dual)

    def test_dual_pivots_on_the_real_part(self):
        """g + eps B with g = I and B_01 = B_10 = 10: the entry (1, 0) is
        the larger in magnitude but no unit, and must not be the pivot."""
        flat = flat_chart(4, jet_order=2, exact=False)
        b = np.zeros((4, 4))
        b[0, 1] = b[1, 0] = 10.0
        eps = Tensor.from_function(4, "dd", lambda i, j: Jet.const(
            flat.jet_algebra, b[i, j], False)).pack()
        dual = clone_context(flat, Tensor.dual(flat.metric, eps),
                             ring=dual_ring(flat.ring))
        _assert_dual_inverse(dual)
        inv = dual.metric_inv.at_point().a
        assert inv[0, 1].im == inv[1, 0].im == -10.0

    def test_exact_jets(self, cp2_exact, s4_exact):
        for ctx in (cp2_exact, s4_exact):
            _assert_matches_gauss_jordan(ctx)

    @pytest.mark.parametrize("exact", [True, False])
    def test_lorentzian_chart(self, exact):
        ctx = ChartContext.from_polys(_lorentzian_entries(),
                                      (Fraction(0),) * 4, jet_order=3,
                                      exact=exact)
        assert _jet_parts(ctx.det_metric)[0].c[0] < 0
        _assert_matches_gauss_jordan(ctx)

    def test_prod8(self):
        _assert_matches_gauss_jordan(product_8d())

    @pytest.mark.parametrize("order, caps", [
        (1, [(1, 1)] * 2), (3, [(1, 1)] * 2 + [(3, 2)] * 2),
        (5, [(1, 1)] * 2 + [(3, 2)] * 2 + [(5, 4)] * 2)])
    def test_precision_doubling_schedule(self, order, caps, monkeypatch):
        """Each step's two contractions stop at degree 2^(k+1) - 1, and
        keep only the degrees above the previous step's cap: the first
        step's iterate is not lifted at full order, and no degree the
        iterate already has is recomputed."""
        seen = []
        real = geometry._float_jet_einsum

        def spy(spec, a, b, lo=0, *bands):
            out = real(spec, a, b, lo, *bands)
            first = alg.upto[lo - 1] if lo else 0
            assert not out.c[:first].any()
            seen.append((int(out.v.max()), lo))
            return out
        monkeypatch.setattr(geometry, "_float_jet_einsum", spy)
        ctx = random_chart(4, seed=1, jet_order=order)
        alg = ctx.jet_algebra
        ctx.metric_inv
        assert seen == caps

    @pytest.mark.parametrize("exact", [True, False])
    def test_singular_at_base_point(self, exact):
        entries = [[Poly(4, {(2, 0, 0, 0): Fraction(1)}) if i == j == 3
                    else Fraction(int(i == j)) for j in range(4)]
                   for i in range(4)]
        ctx = ChartContext.from_polys(entries, (Fraction(0),) * 4,
                                      jet_order=3, exact=exact)
        for attr in ("metric_inv", "det_metric"):
            with pytest.raises(DegenerateMetricError, match="singular"):
                getattr(ctx, attr)

    def test_frames_keep_the_constant_solve(self, berger4):
        inv, det = _invert_with_det(berger4.metric.a, berger4.ring)
        assert berger4.metric_inv.a.tolist() == inv.tolist()
        assert berger4.det_metric == det


def _context(name, request):
    if name.startswith("lorentzian"):
        return ChartContext.from_polys(_lorentzian_entries(),
                                       (Fraction(0),) * 4, jet_order=3,
                                       exact=name.endswith("exact"))
    return request.getfixturevalue(name)


class TestDualInverse:
    """A metric of Duals A + eps B inverts its real part only: X - eps XBX
    and det A (1 + eps tr(XB)) with X = A^-1, against the oracle
    ``_assert_dual_inverse``."""

    @pytest.mark.parametrize("name", ["chart4", "cp2_exact", "berger4",
                                      "lorentzian-float", "lorentzian-exact"])
    def test_linearize_contexts(self, name, request):
        """g + eps 2 Upsilon g, as ``linearize`` builds it (a constant
        Upsilon on the frame)."""
        ctx = _context(name, request)
        ups = ConformalFactor.const(Fraction(1, 3)) \
            if ctx.jet_algebra is None \
            else ConformalFactor.from_poly(random_conformal_factor(4, 5))
        _assert_dual_inverse(_dual_context(ctx, ups.field(ctx)))

    @pytest.mark.parametrize("name", ["chart4", "berger4", "lorentzian-float",
                                      "lorentzian-exact"])
    def test_eps_part_no_multiple_of_the_metric(self, name, request):
        """B a constant symmetric matrix, which commutes with no X here, so
        XBX and BXX differ; the real part is inverted from scratch."""
        ctx = _context(name, request)
        alg, exact = ctx.jet_algebra, ctx.ring.exact
        rng = np.random.default_rng(3)
        b = rng.integers(-9, 10, (4, 4))

        def entry(i, j):
            x = Fraction(int(b[i, j] + b[j, i]), 7)
            return x if alg is None else Jet.const(alg, x, exact)
        eps = Tensor.from_function(4, "dd", entry).pack()
        dual = clone_context(ctx, Tensor.dual(ctx.metric, eps),
                             ring=dual_ring(ctx.ring))
        _assert_dual_inverse(dual)
        x = ctx.metric_inv.at_point().a
        xbx = np.einsum("ab,bc,cd->ad", x, eps.at_point().a, x)
        bxx = np.einsum("ab,bc,cd->ad", eps.at_point().a, x, x)
        assert np.abs((xbx - bxx).astype(float)).max() > 1e-3

    def test_linearize_inverts_nothing(self, chart4, monkeypatch):
        """The dual context of ``linearize`` takes X and det A from the
        context it linearizes: no Gauss-Jordan, no Newton lift."""
        chart4.metric_inv, chart4.det_metric

        def refuse(*args):
            raise AssertionError("the dual context solved a metric")
        for name in ("_invert_with_det", "_fraction_free_inverse",
                     "_newton_inverse"):
            monkeypatch.setattr(geometry, name, refuse)
        ups = ConformalFactor.from_poly(random_conformal_factor(4, 5))
        dual = _dual_context(chart4, ups.field(chart4))
        re, _ = dual.metric_inv.dual_parts()
        assert np.array_equal(re.data.c, chart4.metric_inv.data.c)
        assert dual.det_metric.re is chart4.det_metric
        linearize(chart4, "cotton", ups)


def _frame(entries):
    """A frame with these metric entries and no brackets."""
    return FrameContext(len(entries), {},
                        [[Fraction(x) for x in row] for row in entries])


def _brackets(pairs, scale):
    """Structure constants c^e_ab = scale = -c^e_ba for each (e, a, b)."""
    sc = {}
    for e, a, b in pairs:
        sc[e, a, b], sc[e, b, a] = Fraction(scale), Fraction(-scale)
    return sc


SU2 = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]


class TestFrameValidation:
    """``geometry._validate_frame`` on the integer numerators: each of its
    errors on int64 numerators, on int64 numerators whose Jacobi products
    pass 2**63, and on numerators past 2**63, with no field operation."""

    @pytest.fixture(autouse=True)
    def _no_field_operations(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("packed frame validated by field operations")
        monkeypatch.setattr(geometry, "einsum", refuse)
        monkeypatch.setattr(RationalField, "_elementwise", refuse)
        monkeypatch.setattr(RationalField, "reduced", refuse)

    @pytest.mark.parametrize("scale", [1, 2 ** 40, 2 ** 70],
                             ids=["int64", "wide-products", "wide"])
    def test_each_error(self, scale):
        eye = [[Fraction(scale * int(i == j)) for j in range(3)]
               for i in range(3)]
        ctx = FrameContext(3, _brackets(SU2, scale), eye)
        assert isinstance(ctx.structure, RationalField)
        assert (ctx.structure.num.dtype == object) == (scale >= 2 ** 63)
        one_sided = _brackets(SU2, scale)
        one_sided[0, 2, 1] = Fraction(0)
        with pytest.raises(ValueError, match="not antisymmetric"):
            FrameContext(3, one_sided, eye)
        # [e0, e1] = e2, [e1, e2] = e1: antisymmetric, not a Lie algebra
        with pytest.raises(ValueError, match="Jacobi identity fails"):
            FrameContext(3, _brackets([(2, 0, 1), (1, 1, 2)], scale), eye)
        skew = [row[:] for row in eye]
        skew[0][1] = Fraction(scale)
        with pytest.raises(ValueError, match="frame metric not symmetric"):
            FrameContext(3, _brackets(SU2, scale), skew)


class TestFractionFreeInverse:
    @pytest.mark.parametrize("entries, det_sign", [
        ([[4, 0, 0, 0], [0, Fraction(1, 9), 0, 0],
          [0, 0, Fraction(7, 2), 0], [0, 0, 0, 1]], 1),
        # g_00 = 0: the first pivot is a row swap
        ([[0, Fraction(1, 2), 0], [Fraction(1, 2), Fraction(1, 3), 1],
          [0, 1, 2]], -1),
        ([[-2, Fraction(1, 3), 0, 0], [Fraction(1, 3), 1, 0, 0],
          [0, 0, Fraction(5, 7), 1], [0, 0, 1, 3]], -1),
    ], ids=["diagonal", "pivot-swap", "lorentzian"])
    def test_matches_gauss_jordan(self, entries, det_sign):
        """The packed inverse and the determinant equal Gauss-Jordan's on
        the unpacked Fractions; the inverse is canonical."""
        ctx = _frame(entries)
        g = ctx.metric.field
        ref_inv, ref_det = _invert_with_det(g.unpack(), RATIONAL)
        inv, det = geometry._fraction_free_inverse(g)
        assert isinstance(inv, RationalField) and inv.num.dtype == np.int64
        assert math.gcd(inv.den, *inv.num.ravel().tolist()) == 1
        assert inv.bound >= _top(inv.num)
        assert inv.unpack().tolist() == ref_inv.tolist()
        assert type(det) is Fraction and det == ref_det
        assert (det > 0) - (det < 0) == det_sign
        assert ctx.metric_inv.field.num.tolist() == inv.num.tolist()
        assert ctx.det_metric == ref_det

    def test_singular_frame(self):
        """A singular frame metric raises the error, with the message,
        that Gauss-Jordan raises."""
        ctx = _frame([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
        with pytest.raises(DegenerateMetricError) as ours:
            geometry._fraction_free_inverse(ctx.metric.field)
        with pytest.raises(DegenerateMetricError) as ref:
            _invert_with_det(ctx.metric.a, RATIONAL)
        assert str(ours.value) == str(ref.value)
        for attr in ("metric_inv", "det_metric"):
            with pytest.raises(DegenerateMetricError, match=str(ref.value)):
                getattr(ctx, attr)


def _assert_matches_exact(got, want, tol=1e-12):
    """Float components, a ``JetField`` over no jet variables, within tol of
    float() of the exact ones, relative to the largest of those."""
    assert isinstance(got.field, JetField) and got.field.alg.nvars == 0
    w = np.array([float(x) for x in want.a.ravel()]).reshape(want.a.shape)
    assert np.abs(got.field.c[0] - w).max() <= tol * np.abs(w).max()


class TestFloatFrames:
    """A float frame is the exact frame's rationals stored as floats in
    ``JetField``s over no jet variables, and runs on the float-jet kernel."""

    @pytest.mark.parametrize("build", [
        lambda: berger_frame(Fraction(9, 4), exact=False),
        lambda: berger_product(Fraction(9, 4), exact=False),
        lambda: product_8d(jet_order=2)],
        ids=["frame", "berger_product", "product_8d"])
    def test_metric_and_structure_packed(self, build):
        ctx = build()
        assert isinstance(ctx.metric.field, JetField)
        assert isinstance(ctx.structure, JetField)
        assert ctx.structure.alg is ctx.metric.field.alg is ctx.jet_algebra

    def test_invariants_run_packed(self):
        st = berger_product(Fraction(9, 4), exact=False).stack
        phi = invariants.InvariantPolynomial.pair_swap()
        with mock.patch.object(JetField, "unpack",
                               side_effect=AssertionError("unpacked")):
            xi = invariants.xi_k(st, 2).components
            rho = invariants.rho_phi(st, phi)
            pf2 = invariants.pfaffian_of(st, 2, "riemann")
        assert isinstance(xi.field, JetField)
        assert isinstance(rho.components.field, JetField)
        assert isinstance(pf2, Jet) and pf2.alg.nvars == 0

    def test_floats_read_as_their_fractions(self):
        """A frame of floats is, bit for bit, the frame of the Fractions
        those floats are, and stores each float as it came."""
        sc = _brackets(SU2, 0.1)          # neither 0.1 nor 1/3 is dyadic
        g = [[1 / 3, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.7]]
        a = FrameContext(3, {k: float(v) for k, v in sc.items()}, g,
                         ring=FLOAT)
        b = FrameContext(3, sc, [[Fraction(x) for x in row] for row in g],
                         ring=FLOAT)
        for x, y in ((a.metric.field, b.metric.field),
                     (a.structure, b.structure),
                     (a.metric_inv.field, b.metric_inv.field)):
            assert np.array_equal(x.c, y.c) and np.array_equal(x.v, y.v)
        assert a.metric.field.c[0].tolist() == g
        assert a.structure.c[0, 2, 0, 1] == 0.1

    @pytest.mark.parametrize("t", [Fraction(4), Fraction(9, 4),
                                   Fraction(1, 4)], ids=["t4", "t9_4", "t1_4"])
    def test_density_matches_exact(self, t):
        phi = invariants.InvariantPolynomial.pair_swap()
        fl, ex = (berger_product(t, exact) for exact in (False, True))
        rho_f, rho_e = (invariants.rho_phi(c.stack, phi) for c in (fl, ex))
        _assert_matches_exact(rho_f.components, rho_e.components)
        got, want = (invariants.functional_density(c, r, killing_field_T(c))
                     for c, r in ((fl, rho_f), (ex, rho_e)))
        assert want and abs(got - float(want)) <= 1e-12 * abs(float(want))

    def test_product_matches_exact_at_n8(self):
        fl, ex = (product([f for t in (Fraction(9, 4), Fraction(1, 4))
                           for f in berger_product(t, exact).factors])
                  for exact in (False, True))
        _assert_matches_exact(fl.stack.weyl, ex.stack.weyl)
        phi = invariants.InvariantPolynomial.pair_swap()
        got, want = (invariants.phi_w_c_form(c.stack, phi).comps
                     for c in (fl, ex))
        assert want and set(got) == set(want)
        top = max(abs(float(x)) for x in want.values())
        for key, x in want.items():
            assert abs(got[key].val() - float(x)) <= 1e-12 * top
