"""Packed storage for ``Tensor`` components and the kernels that run on it.

``JetField`` holds float jets of one ``JetAlgebra`` (or Duals over them) as
one coefficient array; ``curvlab.rationals`` holds the other packed kind,
Fractions as integer numerators over one common denominator, on the shared
``_Field`` dispatch.  Each field's operations return fields, and ``unpack``
gives the object array the object path would hold.  The ``curvlab.tensors``
docstring describes the storage and the dispatch of ``einsum`` steps
between these kernels and numpy's object einsum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import JetOrderError
from .jets import Dual, Jet

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _object_array(x):
    """x itself if it is an array or a packed field, else a 0-d object array
    holding it."""
    if isinstance(x, (np.ndarray, _Field)):
        return x
    a = np.empty((), dtype=object)
    a[()] = x           # item assignment: numpy never tries to unpack a Jet
    return a


# -- packed fields ---------------------------------------------------------


class _Field:
    """Shared arithmetic dispatch of the packed fields: each subclass gives
    ``pack``, ``unpack``, ``_elementwise`` and ``__mul__``."""

    __slots__ = ()
    __array_ufunc__ = None      # ndarray (op) field defers to the field

    @classmethod
    def of(cls, x):
        """x if it is a field of this class, else the field packed from the
        object array x; None when x does not pack."""
        if isinstance(x, cls):
            return x
        return cls.pack(x) if isinstance(x, np.ndarray) else None

    def __add__(self, other):
        return self._elementwise(other, np.add, False)

    def __radd__(self, other):
        return self._elementwise(other, np.add, True)

    def __sub__(self, other):
        return self._elementwise(other, np.subtract, False)

    def __rsub__(self, other):
        return self._elementwise(other, np.subtract, True)

    def __rmul__(self, s):
        return self * s


class JetField(_Field):
    """Float jets of one ``JetAlgebra``, or ``Dual``s over them, packed.

    ``c`` holds the coefficients with the coefficient axis leading, shape
    (R, *shape), and ``v`` the ``valid`` order of each component, an int
    array of ``shape``; coefficients above a component's ``valid`` are zero,
    as in a ``Jet``.  Monomials are sorted by degree, so only the first R
    coefficient rows are stored, at least those up to the largest ``valid``
    (``alg.upto[v.max()]``) and at most N; the rows after them are zero,
    and operations compute only the rows their result keeps.  A field of
    Duals keeps its im parts in ``ic``/``iv`` (None for plain jets), with
    rows of their own.  Each part also carries its ``valid`` as a Python int
    when every component shares it, None when they differ; the operation
    that builds a field sets it, so the kernels skip the spreads, minima and
    zeroing a uniform ``valid`` makes needless.  Operations build new fields
    and never write into an operand's arrays, so fields may share them.
    Each operation gives the coefficients and ``valid`` orders the same
    operation on the ``Jet`` or ``Dual`` objects gives, up to the order of
    float summation.
    """

    __slots__ = ("alg", "c", "v", "ic", "iv", "_u", "_iu")

    def __init__(self, alg, c, v, ic=None, iv=None):
        self.alg, self.c, self.v, self.ic, self.iv = alg, c, v, ic, iv
        self._u = _uniform(v)
        self._iu = None if iv is None else _uniform(iv)

    @classmethod
    def _of(cls, alg, parts) -> "JetField":
        """The field of (coefficients, valid, uniform valid) parts: the re
        part, then a Dual's im part."""
        f = object.__new__(cls)
        (f.c, f.v, f._u), *im = parts
        f.ic, f.iv, f._iu = im[0] if im else (None, None, None)
        f.alg = alg
        return f

    @property
    def shape(self) -> tuple:
        return self.v.shape

    def kind(self) -> str:
        return "jet-float" if self.ic is None else "dual:jet-float"

    def _parts(self):
        """(coefficients, valid, uniform valid or None) of the re part, then
        of a Dual's im part."""
        yield self.c, self.v, self._u
        if self.ic is not None:
            yield self.ic, self.iv, self._iu

    def _with(self, parts) -> "JetField":
        return JetField._of(self.alg, parts)

    # -- packing -------------------------------------------------------------

    @classmethod
    def pack(cls, a: np.ndarray):
        """The field of an object array of float jets of one algebra, or of
        Duals over them; None when ``a`` holds anything else."""
        first = a.flat[0]
        if type(first) is Dual:
            flat = a.ravel().tolist()
            if not all(type(x) is Dual for x in flat):
                return None
            groups = ([x.re for x in flat], [x.im for x in flat])
        elif type(first) is Jet:
            groups = (a.ravel().tolist(),)
        else:
            return None
        alg = getattr(groups[0][0], "alg", None)
        parts = []
        for jets in groups:
            if not all(type(x) is Jet and x.alg is alg and not x.exact
                       for x in jets):
                return None
            c = np.stack([x.c for x in jets], axis=1).reshape(
                (alg.N,) + a.shape)
            parts.append((c, np.array([x.valid for x in jets]).reshape(
                a.shape)))
        return cls(alg, *parts[0], *(parts[1] if len(parts) > 1 else ()))

    def unpack(self) -> np.ndarray:
        """An object array of new ``Jet``s (``Dual``s for a Dual field)."""
        parts = [_jets(self.alg, c, v) for c, v, _ in self._parts()]
        out = np.empty(self.v.size, dtype=object)
        out[:] = parts[0] if len(parts) == 1 else \
            [Dual(x, y) for x, y in zip(*parts)]
        return out.reshape(self.shape)

    def at_point(self) -> np.ndarray:
        """Base-point values, as ``field_value`` gives them, in an object
        array."""
        vals = [list(c[0].ravel()) for c, _, _ in self._parts()]
        out = np.empty(self.v.size, dtype=object)
        out[:] = vals[0] if len(vals) == 1 else \
            [Dual(x, y) for x, y in zip(*vals)]
        return out.reshape(self.shape)

    def __getitem__(self, idx) -> "JetField | Jet | Dual":
        """numpy indexing on the component axes; an index that picks one
        component gives that component as a new ``Jet`` (or ``Dual``).  Only
        the coefficient rows up to the largest picked ``valid`` are
        gathered; the rows above are zero."""
        idx = idx if isinstance(idx, tuple) else (idx,)
        flat = _flat_index(self.shape)[idx]
        if np.ndim(flat) == 0:
            jets = [Jet(self.alg, _all_rows(self.alg, c[(slice(None),) + idx]),
                        int(v[idx]), False) for c, v, _ in self._parts()]
            return jets[0] if len(jets) == 1 else Dual(*jets)
        parts = []
        for c, v, u in self._parts():
            v = v[idx]
            if u is None:
                u = _uniform(v)
            live = self.alg.upto[v.max(initial=0) if u is None else u]
            parts.append((np.take(c[:live].reshape(live, -1), flat, axis=1),
                          v, u))
        return self._with(parts)

    def truncated(self, k: int) -> "JetField":
        """The field with every ``valid`` lowered to at most k: the
        coefficient rows above degree k are dropped, with no copy."""
        n, parts = self.alg.upto[k], []
        for c, v, u in self._parts():
            if (v.max() if u is None else u) > k:
                c, v = c[:n], np.minimum(v, k)
                u = k if u is not None else _uniform(v)
            parts.append((c, v, u))
        return self._with(parts)

    # -- elementwise arithmetic ----------------------------------------------

    def transpose(self, *axes) -> "JetField":
        if len(axes) == 1 and not isinstance(axes[0], int):
            axes = axes[0]
        caxes = (0,) + tuple(x + 1 for x in axes)
        return self._with((np.transpose(c, caxes), np.transpose(v, axes), u)
                          for c, v, u in self._parts())

    def __neg__(self) -> "JetField":
        return self._with((-c, v, u) for c, v, u in self._parts())

    def _elementwise(self, other, op, flip: bool):
        """op(self, other), or op(other, self) when flipped: per part, the
        coefficients combined up to the largest ``valid`` of the result,
        ``valid`` the min and zeros above it.  An operand that does not pack
        alike takes the object path."""
        o = JetField.of(other)
        if o is None or o.alg is not self.alg or o.shape != self.shape \
                or (o.ic is None) != (self.ic is None):
            return _object_op(self, other, op, flip)
        x, y = (o, self) if flip else (self, o)
        parts = []
        for (cx, vx, ux), (cy, vy, uy) in zip(x._parts(), y._parts()):
            same = ux == uy if ux is not None and uy is not None \
                else (vx == vy).all()
            v, u = (vx, ux) if same else _minimum((vx, ux), (vy, uy))
            n = self.alg.upto[int(v.max()) if u is None else u]
            c = op(cx[:n], cy[:n])
            parts.append((c if same else _zero_above(self.alg, c, v, u), v,
                          u))
        return self._with(parts)

    def __mul__(self, s):
        """The field times a scalar: a plain number scales the coefficients
        (a Dual's im part capped at its re part's ``valid``, as
        ``Dual.__mul__`` caps it); a Jet or Dual runs the kernel as a rank-0
        operand."""
        if isinstance(s, (int, Fraction, float)):
            x = float(s)
            if self.ic is None:
                return self._with([(self.c * x, self.v, self._u)])
            iv, iu = _minimum((self.v, self._u), (self.iv, self._iu))
            return self._with([
                (self.c * x, self.v, self._u),
                (_zero_above(self.alg, self.ic * x, iv, iu), iv, iu)])
        if isinstance(s, (Jet, Dual)):
            letters = _LETTERS[:len(self.shape)]
            out = _float_jet_einsum(f"{letters},->{letters}", self,
                                    _object_array(s))
            if out is not None:
                return out
        return self.unpack() * s

    def derivatives(self, variables) -> "JetField":
        """D_a of every component in a new leading slot: the partial in
        jet variable ``variables[a]``, or zero where that is None (a
        constant direction, as ``s * 0`` gives)."""
        alg, variables = self.alg, tuple(variables)
        n, size = len(variables), self.v.size
        if any(x is not None for x in variables) and any(
                bool((v < 1).any()) if u is None else u < 1
                for _, v, u in self._parts()):
            raise JetOrderError(
                "jet order exhausted; rebuild the context with a higher order")
        parts = []
        for k, (c, v, u) in enumerate(self._parts()):
            # a constant direction keeps the valid, a Dual's im part capped
            # as in s * 0
            const = (v, u) if k == 0 else _minimum((self.v, self._u),
                                                   (v, u))
            dv = np.empty((n,) + self.shape, dtype=v.dtype)
            for a, var in enumerate(variables):
                dv[a] = const[0] if var is None else v - 1
            tops = {const[1] if var is None else None if u is None else u - 1
                    for var in variables}
            du = tops.pop() if len(tops) == 1 and None not in tops \
                else _uniform(dv)
            rows = alg.upto[int(dv.max()) if du is None else du]
            live = alg.upto[int(v.max()) if u is None else u]
            src, dst, fac = _derivative_plan(alg, variables, live, rows)
            dc = np.zeros((rows * n, size))
            dc[dst] = c[src].reshape(len(src), size) * fac
            parts.append((dc.reshape((rows, n) + self.shape), dv, du))
        return self._with(parts)


def _uniform(v: np.ndarray) -> int | None:
    """The ``valid`` every component of v shares, or None when they differ
    (or v is empty)."""
    if not v.size:
        return None
    v0 = int(v.flat[0])
    return v0 if (v == v0).all() else None


def _minimum(x: tuple, y: tuple) -> tuple:
    """The (valid, uniform valid) of the componentwise min of two such
    pairs of one shape; one of them when both are uniform."""
    (vx, ux), (vy, uy) = x, y
    if ux is not None and uy is not None:
        return x if ux <= uy else y
    v = np.minimum(vx, vy)
    return v, _uniform(v)


@lru_cache(maxsize=None)
def _valid_array(shape: tuple, u: int) -> np.ndarray:
    """A read-only ``valid`` array of ``shape``, u everywhere; fields share
    it."""
    v = np.full(shape, u)
    v.flags.writeable = False
    return v


@lru_cache(maxsize=None)
def _flat_index(shape: tuple) -> np.ndarray:
    """The flat index of every component of ``shape``, laid out in it."""
    flat = np.arange(math.prod(shape)).reshape(shape)
    flat.flags.writeable = False
    return flat


@lru_cache(maxsize=None)
def _derivative_plan(alg, variables: tuple, live: int, rows: int) -> tuple:
    """(src, dst, fac) of ``JetField.derivatives``: for every jet variable
    in ``variables`` in turn, the coefficient rows below ``live`` its
    partial reads, the flat rows m len(variables) + a of the (rows,
    len(variables)) derivative layout they land in, and their factors, as a
    column; a None direction reads nothing."""
    n, src, dst, fac = len(variables), [], [], []
    for a, var in enumerate(variables):
        if var is not None:
            s, d, f, _ = alg._diff_tables[var]
            m = int(np.searchsorted(s, live))     # s is ascending
            src += s[:m].tolist()
            dst += (d[:m] * n + a).tolist()
            fac += f[:m].tolist()
    plan = (np.array(src, dtype=int), np.array(dst, dtype=int),
            np.array(fac, dtype=float).reshape(-1, 1))
    for x in plan:
        x.flags.writeable = False
    return plan


def _zero_above(alg, c: np.ndarray, v: np.ndarray, u) -> np.ndarray:
    """c, with the coefficients above each component's ``valid`` set to zero
    in place.  Monomials are sorted by degree, so a uniform ``valid`` u
    zeroes a tail of rows."""
    if u is not None:
        c[alg.upto[u]:] = 0.0
    else:
        c[alg.deg[:len(c)].reshape((-1,) + (1,) * v.ndim) > v] = 0.0
    return c


def _all_rows(alg, c: np.ndarray) -> np.ndarray:
    """A new array of c's coefficient rows and zero rows after them, N in
    all, as a ``Jet`` holds them."""
    out = np.zeros((alg.N,) + c.shape[1:])
    out[:len(c)] = c
    return out


def _jets(alg, c: np.ndarray, v: np.ndarray) -> list:
    rows = _all_rows(alg, c.reshape(len(c), -1)).T.copy()
    return [Jet(alg, row, k, False)
            for row, k in zip(rows, v.ravel().tolist())]


def _field_einsum1(spec: str, f: JetField) -> JetField:
    """A one-operand step on a field: transposes, diagonals and traces of
    the coefficients; a component's ``valid`` is the min over the components
    summed into it, with zeros above it, as a chain of ``Jet.__add__``
    gives."""
    ins, out = spec.split("->")
    coef = next(x for x in _LETTERS if x not in spec)
    letters = out + "".join(x for x in dict.fromkeys(ins) if x not in out)
    summed = tuple(range(len(out), len(letters)))
    parts = []
    for c, v, u in f._parts():
        c = np.einsum(f"{coef}{ins}->{coef}{out}", c)
        if u is not None:
            v = _valid_array(c.shape[1:], u)
        else:
            v = _spread(v, ins, letters)
            if summed:
                v = v.min(axis=summed)
            u = _uniform(v)
        if summed:
            c = _zero_above(f.alg, c, v, u)
        parts.append((c, v, u))
    return f._with(parts)


def _constant_einsum(spec: str, a, b):
    """A two-operand step of a float-jet field and a constant, an int
    ndarray (signs, say), or None for other operands.

    The field's coefficients are contracted with the constant.  An output's
    ``valid`` is the min over the field's components summed into it, with
    zeros above it, as a chain of ``Jet.__add__`` calls gives, a Dual's im
    part first capped at its re part's ``valid`` as ``Dual.__mul__`` caps it
    for an int.
    """
    ins, out = spec.split("->")
    (sf, sk), (f, k) = ins.split(","), (a, b)
    if isinstance(f, np.ndarray):
        (sf, sk), (f, k) = (sk, sf), (k, f)
    if not isinstance(f, JetField) or not isinstance(k, np.ndarray) \
            or k.dtype.kind not in "iu":
        return None
    coef = next(x for x in _LETTERS if x not in spec)
    letters = out + "".join(x for x in dict.fromkeys(sf) if x not in out)
    parts = []
    for part, (c, v, u) in enumerate(f._parts()):
        if part:
            v, u = _minimum((f.v, f._u), (v, u))
        c = np.einsum(f"{coef}{sf},{sk}->{coef}{out}", c, k)
        if u is None:
            v = _spread(v, sf, letters).min(
                axis=tuple(range(len(out), len(letters))))
            v = np.broadcast_to(v, c.shape[1:]).copy()
            u = _uniform(v)
        else:
            v = _valid_array(c.shape[1:], u)
        parts.append((_zero_above(f.alg, c, v, u), v, u))
    return f._with(parts)


# -- dense float-jet kernel ------------------------------------------------------

_BLOCK_FLOATS = 1 << 15     # shifted operand plus output of one kernel block


def _float_jet_einsum(spec: str, a, b, lo: int = 0, band_a=None,
                      band_b=None):
    """A two-operand ``einsum`` step on float jets, or None for other scalars.

    Each operand is a ``JetField`` or an object array that packs into one
    of the same ``JetAlgebra``.  A Dual product is three kernel runs, re.re
    and re.im + im.re; a Jet operand contributes no im run.  Each output's
    ``valid`` is the min over the components that feed it, as the chain of
    ``Jet.__mul__``/``__add__`` calls gives; a Dual's im part is also capped
    at its re part's ``valid``, as ``Dual.__mul__`` does.  ``lo`` and the
    bands go to every run as ``_jet_product`` takes them.
    """
    fa = JetField.of(a)
    if fa is None:
        return None
    fb = JetField.of(b)
    if fb is None or fb.alg is not fa.alg:
        return None
    alg, (ra, *ima), (rb, *imb) = fa.alg, fa._parts(), fb._parts()
    kept = (lo, band_a, band_b)
    re = _jet_product(alg, spec, ra, rb, *kept)
    runs = [(ra, y) for y in imb] + [(x, rb) for x in ima]
    if not runs:
        return JetField._of(alg, [re])
    im = [_jet_product(alg, spec, x, y, *kept) for x, y in runs]
    im_v, im_u = re[1:]
    for _, v, u in im:
        im_v, im_u = _minimum((im_v, im_u), (v, u))
    n = alg.upto[int(im_v.max()) if im_u is None else im_u]
    im_c = sum(c[:n] for c, _, _ in im)   # no more rows than any run's
    return JetField._of(alg, [re, (_zero_above(alg, im_c, im_v, im_u), im_v,
                                   im_u)])


def _jet_product(alg, spec: str, a, b, lo: int = 0, band_a=None,
                 band_b=None):
    """The contraction ``spec`` of two packed float-jet operands, from
    output degree ``lo`` up.

    a and b are (coefficients, valid, uniform valid) parts of
    ``JetField``s, and band_a and band_b the degrees (d0, d1) in which each
    can be nonzero (None: all of them); an operand's coefficients outside
    its band are taken as zero.  Returns the output's part, coefficient
    axis leading, the rows up to the largest output ``valid``, zero above
    each output's ``valid`` and below degree ``lo``; the ``valid`` is the
    min over the operands', whatever the bands.

    Truncated series multiply as a lower triangular Toeplitz matrix
    (Griewank & Walther, Evaluating Derivatives, 2008, ch. 13): output
    monomial m sums F[x] S[m - x] over the monomials x <= m, so the operand
    S is expanded through the shift table up to the largest output
    ``valid`` and each block of output monomials is one ``np.matmul`` of
    the other operand F against it, the summed letters and x together
    forming the inner axis.  The blocks start at the first monomial of
    degree ``lo``, and within a block x runs only over the degrees that
    can meet both bands: deg x in F's band and deg m - deg x in S's, a
    truncated product when only low output degrees are kept and a middle
    product when only high ones are (Hanrot, Quercia & Zimmermann, AAECC 14,
    2004).  With full bands and ``lo`` 0 this is the plain product.  When F
    has fewer free components than there are summed ones (a full
    contraction, say), expanding S would gather more than the product
    computes: the summed letters are then contracted first, in one GEMM
    giving F[x] S[y] for every pair of monomials in the bands, and output
    monomial m sums the pairs with x y = m.  Everything but the gathers,
    GEMMs and writes comes from the cached ``_step_plan``.
    """
    (ca, va, ua), (cb, vb, ub) = a, b
    if ua is not None and ub is not None:
        u = cap = min(ua, ub)
    else:
        v = _min_valid(spec, va, vb)
        u, cap = _uniform(v), int(v.max())
    p = _step_plan(alg, spec, va.shape, vb.shape, cap, lo, band_a, band_b)
    if u is not None:
        v = p.valid
    n = p.n
    if p.pairs is None and p.shift is None:     # no kept degree can be nonzero
        return np.zeros((n,) + p.out_shape), v, u
    ca, cb = ca[:n], cb[:n]
    if p.pre_a:
        ca = np.einsum(p.pre_a, ca)
    if p.pre_b:
        cb = np.einsum(p.pre_b, cb)
    if p.swap:
        ca, cb = cb, ca
    fixed = ca.transpose(p.perm_f).reshape(p.fixed_shape)
    band_s = cb[p.ys].transpose(p.perm_s)
    if p.pairs is not None:
        # contract first: P[x, y] = sum over the summed letters of
        # F[x] S[y] in one GEMM, then output monomial m sums P[x, m - x]
        q = p.pairs
        c = np.zeros((n,) + p.out_shape)
        pairs = np.matmul(
            fixed[..., q.xs].transpose(0, 1, 3, 2).reshape(q.f_shape),
            band_s.reshape(q.s_shape)).reshape(q.pairs_shape)
        if q.pad is not None:       # zero pairs outside the bands
            full = np.zeros(q.all_pairs_shape)
            full[q.pad] = pairs
            pairs = full
        c.transpose(p.perm_o)[q.write] = np.add.reduceat(
            pairs.reshape(q.flat_shape).take(q.flat, axis=2),
            q.starts, axis=2)[:, :, q.kept].reshape(q.write_shape)
    else:
        shifted = np.zeros(p.shift.shape)
        shifted[p.shift.band] = band_s
        shifted = shifted.reshape(p.shift.flat_shape)
        c = np.zeros((n,) + p.out_shape)
        view = c.transpose(p.perm_o)
        for xs, f_shape, gather, g_shape, write, write_shape in \
                p.shift.blocks:
            f = fixed[..., xs].reshape(f_shape)
            g = shifted.take(gather, axis=2).reshape(g_shape)
            view[write] = np.matmul(f, g).reshape(write_shape)
    if u is None:
        _zero_above(alg, c, v, None)
    return c, v, u


def _rows(alg, d0: int, d1: int) -> tuple:
    """[r0, r1): the monomials of degree d0 to d1 (0 <= d0 <= order + 1),
    empty when d1 < d0; monomials are sorted by degree."""
    r0 = alg.upto[d0 - 1] if d0 > 0 else 0
    return r0, max(r0, alg.upto[d1]) if d1 >= 0 else r0


class _PairStep(NamedTuple):
    """The contract-first step of a ``_StepPlan``."""
    xs: slice               # the fixed operand's rows in its band
    f_shape: tuple          # GEMM operands: (batch, free_f x, summed)
    s_shape: tuple          # and (batch, summed, y free_s)
    pairs_shape: tuple      # (batch, free_f, x, y, free_s)
    pad: tuple | None       # where the pairs go among all n x n, or None
    all_pairs_shape: tuple  # (batch, free_f, n, n, free_s)
    flat_shape: tuple       # (batch, free_f, n n, free_s)
    flat: np.ndarray        # the pairs grouped by product monomial,
    starts: np.ndarray      # and each group's offset (``_pair_sums``)
    kept: slice             # the output rows kept, from degree lo
    write: tuple            # their index in the output view
    write_shape: tuple


class _ShiftStep(NamedTuple):
    """The shift step of a ``_StepPlan``."""
    shape: tuple            # the expanded operand: the batch and summed
    #                         extents, n + 1 rows (the last one zero), the
    #                         free_s extents
    band: tuple             # the rows of the band in it
    flat_shape: tuple       # (batch, summed, n + 1, free_s)
    blocks: tuple           # the ``_Block``s


class _Block(NamedTuple):
    """One block (m0, m1) of output monomials of the shift step."""
    xs: slice               # the fixed operand's rows x
    f_shape: tuple          # GEMM operands: (batch, free_f, summed x)
    gather: np.ndarray      # s[x, m0:m1], contiguous
    g_shape: tuple          # and (batch, summed x, (m1 - m0) free_s)
    write: tuple            # the rows m0:m1 in the output view
    write_shape: tuple


class _StepPlan(NamedTuple):
    n: int                  # output coefficient rows, alg.upto[cap]
    out_shape: tuple
    valid: np.ndarray       # the output valid, cap everywhere (read-only)
    pre_a: str | None       # one-operand step on a's coefficients, or None
    pre_b: str | None
    swap: bool              # a is the shifted operand
    perm_f: tuple           # fixed coefficients to (batch, free, summed, x)
    perm_s: tuple           # shifted ones to (batch, summed, x, free)
    perm_o: tuple           # output coefficients to (batch, free_f, m, free_s)
    fixed_shape: tuple      # (batch, free_f, summed, n)
    ys: slice               # the shifted operand's rows in its band
    pairs: _PairStep | None     # the contract-first step, or None
    shift: _ShiftStep | None    # the shift step, or None


@lru_cache(maxsize=None)
def _step_plan(alg, spec: str, shape_a: tuple, shape_b: tuple, cap: int,
               lo: int, band_a, band_b) -> _StepPlan:
    """How ``_jet_product`` runs ``spec`` on component shapes a and b with
    the output valid through ``cap``, kept from degree ``lo`` and the
    operands in bands a and b.

    A letter repeated in one operand takes the diagonal, and one found in
    a single operand and not in the output is summed, by a one-operand step
    first.  The rest are batch letters (both operands and the output), free
    letters (one operand and the output) and summed letters (both operands
    only).  The operand with fewer free components is shifted.  The plan
    holds the bands clipped to the cap, the rows each operand reads, and
    either the contract-first step (its GEMM shapes, padding and pair sums)
    or the shift step: the output monomials from ``lo`` up cut into blocks
    (m0, m1) with, per block, the fixed operand's rows x, the contiguous
    shift-table gather ``s[x, m0:m1]`` and the shapes of its GEMM.

    Monomials are sorted by degree, so x <= m gives x < m1 and a block's
    shifted operand holds at most m1 * (m1 - m0) * batch * summed * free_s
    floats, its output (m1 - m0) * batch * free_f * free_s; together at
    most ``_BLOCK_FLOATS``, or one monomial.
    """
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    extent = dict(zip(sa + sb, shape_a + shape_b))
    coef = next(x for x in _LETTERS if x not in spec)

    def kept(sub, other):
        return "".join(x for x in dict.fromkeys(sub) if x in out or x in other)

    ka, kb = kept(sa, sb), kept(sb, sa)
    pre_a = None if ka == sa else f"{coef}{sa}->{coef}{ka}"
    pre_b = None if kb == sb else f"{coef}{sb}->{coef}{kb}"
    batch = [x for x in out if x in ka and x in kb]
    summed = [x for x in ka if x in kb and x not in out]
    free_a = [x for x in out if x not in kb]
    free_b = [x for x in out if x not in ka]

    def size(letters):
        return math.prod(extent[x] for x in letters)

    swap = size(free_a) < size(free_b)
    (kf, free_f), (ks, free_s) = ((kb, free_b), (ka, free_a)) if swap \
        else ((ka, free_a), (kb, free_b))
    if swap:
        band_a, band_b = band_b, band_a

    def axes(sub, letters):
        return [1 + sub.index(x) for x in letters]

    nb, nf, nk, ns = (size(x) for x in (batch, free_f, summed, free_s))
    n = alg.upto[cap]
    fixed_out_shape = tuple(extent[x] for x in batch + free_f)
    free_s_shape = tuple(extent[x] for x in free_s)
    out_shape = tuple(extent[x] for x in out)
    (f0, f1), (s0, s1) = (
        (0, cap) if band is None else (band[0], min(band[1], cap))
        for band in (band_a, band_b))
    y0, y1 = _rows(alg, s0, s1)
    start = _rows(alg, lo, cap)[0]
    lead = (slice(None),) * len(fixed_out_shape)
    pairs = shift = None
    if f0 > f1 or s0 > s1 or lo > min(cap, f1 + s1):
        pass                # no kept degree can be nonzero
    elif nf < nk:
        x0, x1 = _rows(alg, f0, f1)
        pad = None
        if (x1 - x0, y1 - y0) != (n, n):
            pad = (slice(None), slice(None), slice(x0, x1), slice(y0, y1))
        pairs = _PairStep(
            slice(x0, x1), (nb, nf * (x1 - x0), nk), (nb, nk, (y1 - y0) * ns),
            (nb, nf, x1 - x0, y1 - y0, ns), pad, (nb, nf, n, n, ns),
            (nb, nf, n * n, ns), *_pair_sums(alg, cap), slice(start, n),
            lead + (slice(start, n),),
            fixed_out_shape + (n - start,) + free_s_shape)
    else:
        s, deg, steps = _shift_table(alg, cap), alg.deg, []
        per_entry, per_monomial, m0 = nb * nk * ns, nb * nf * ns, start
        while m0 < n:
            m1 = m0 + 1
            while m1 < n and (m1 + 1 - m0) * ((m1 + 1) * per_entry
                                              + per_monomial) <= _BLOCK_FLOATS:
                m1 += 1
            x0, x1 = _rows(alg, max(f0, deg[m0] - s1),
                           min(f1, deg[m1 - 1] - s0))
            x1 = min(x1, m1)        # x <= m < m1
            if x0 < x1:
                gather = np.ascontiguousarray(s[x0:x1, m0:m1])
                gather.flags.writeable = False
                steps.append(_Block(
                    slice(x0, x1), (nb, nf, nk * (x1 - x0)), gather,
                    (nb, nk * (x1 - x0), (m1 - m0) * ns),
                    lead + (slice(m0, m1),),
                    fixed_out_shape + (m1 - m0,) + free_s_shape))
            m0 = m1
        head = tuple(extent[x] for x in batch + summed)
        shift = _ShiftStep(
            head + (n + 1,) + free_s_shape,
            (slice(None),) * len(head) + (slice(y0, y1),),
            (nb, nk, n + 1, ns), tuple(steps))
    return _StepPlan(
        n, out_shape, _valid_array(out_shape, cap), pre_a, pre_b, swap,
        tuple(axes(kf, batch + free_f + summed) + [0]),
        tuple(axes(ks, batch + summed) + [0] + axes(ks, free_s)),
        tuple(axes(out, batch + free_f) + [0] + axes(out, free_s)),
        (nb, nf, nk, n), slice(y0, y1), pairs, shift)


@lru_cache(maxsize=None)
def _shift_table(alg, cap: int) -> np.ndarray:
    """s[x, m]: the monomial m - x, or ``alg.upto[cap]`` (a zero row) where
    m - x is not a monomial; x and m run over the monomials up to degree
    cap."""
    ia, ib, io = alg.mul_table(cap)
    n = alg.upto[cap]
    s = np.full((n, n), n)
    s[ia, io] = ib
    s.flags.writeable = False
    return s


@lru_cache(maxsize=None)
def _pair_sums(alg, cap: int) -> tuple:
    """(flat, starts): the pairs (x, y) of monomials up to degree cap whose
    product x y has degree <= cap, as flat indices x n + y (n =
    ``alg.upto[cap]``) grouped by product monomial m in order, and the
    offset of each group, for ``np.add.reduceat``.  Every m has a group,
    as m = m 1."""
    ia, ib, io = alg.mul_table(cap)
    n = alg.upto[cap]
    order = np.argsort(io, kind="stable")
    flat = ia[order] * n + ib[order]
    starts = np.searchsorted(io[order], np.arange(n))
    flat.flags.writeable = starts.flags.writeable = False
    return flat, starts


def _min_valid(spec: str, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """Per output component, the min of the operand valids that feed it."""
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    letters = out + "".join(x for x in dict.fromkeys(sa + sb) if x not in out)
    m = np.minimum(_spread(va, sa, letters), _spread(vb, sb, letters))
    if len(letters) > len(out):
        m = m.min(axis=tuple(range(len(out), len(letters))))
    return np.asarray(m)


def _spread(v: np.ndarray, sub: str, letters: str) -> np.ndarray:
    """v with its axes moved to their places in ``letters``, size 1 elsewhere;
    a letter repeated in ``sub`` takes the diagonal."""
    uniq = "".join(dict.fromkeys(sub))
    if len(uniq) < len(sub):
        v = np.einsum(f"{sub}->{uniq}", v)
    ordered = sorted(uniq, key=letters.index)
    v = v.transpose([uniq.index(x) for x in ordered])
    shape = [v.shape[ordered.index(x)] if x in uniq else 1 for x in letters]
    return v.reshape(shape)


def _object_op(x: _Field, other, op, flip: bool):
    """op(x, other), or op(other, x) when flipped, on the unpacked objects."""
    y = other.unpack() if isinstance(other, _Field) else other
    x = x.unpack()
    return op(y, x) if flip else op(x, y)
