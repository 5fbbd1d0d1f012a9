"""Packed storage for ``Tensor`` components and the kernels that run on it.

``JetField`` holds float jets of one ``JetAlgebra`` (or Duals over them) as
one coefficient array; ``RationalField`` holds Fractions as integer
numerators over one common denominator.  Each field's operations return
fields, and ``unpack`` gives the object array the object path would hold.
The ``curvlab.tensors`` docstring describes the storage and the dispatch of
``einsum`` steps between these kernels and numpy's object einsum.
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


def _pack(a: np.ndarray):
    """The packed field of an object array, or None when it packs as
    neither kind."""
    return JetField.pack(a) or RationalField.pack(a)


class JetField(_Field):
    """Float jets of one ``JetAlgebra``, or ``Dual``s over them, packed.

    ``c`` holds the coefficients with the coefficient axis leading, shape
    (N, *shape), and ``v`` the ``valid`` order of each component, an int
    array of ``shape``; coefficients above a component's ``valid`` are zero,
    as in a ``Jet``.  A field of Duals keeps its im parts in ``ic``/``iv``
    (None for plain jets).  Operations build new fields and never write into
    an operand's arrays, so fields may share them.  Each operation gives the
    coefficients and ``valid`` orders the same operation on the ``Jet`` or
    ``Dual`` objects gives, up to the order of float summation.
    """

    __slots__ = ("alg", "c", "v", "ic", "iv")

    def __init__(self, alg, c, v, ic=None, iv=None):
        self.alg, self.c, self.v, self.ic, self.iv = alg, c, v, ic, iv

    @property
    def shape(self) -> tuple:
        return self.v.shape

    def kind(self) -> str:
        return "jet-float" if self.ic is None else "dual:jet-float"

    def _parts(self):
        yield self.c, self.v
        if self.ic is not None:
            yield self.ic, self.iv

    def _with(self, parts) -> "JetField":
        (c, v), *im = parts
        return JetField(self.alg, c, v, *(im[0] if im else ()))

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
        parts = [_jets(self.alg, c, v) for c, v in self._parts()]
        out = np.empty(self.v.size, dtype=object)
        out[:] = parts[0] if len(parts) == 1 else \
            [Dual(x, y) for x, y in zip(*parts)]
        return out.reshape(self.shape)

    def at_point(self) -> np.ndarray:
        """Base-point values, as ``field_value`` gives them, in an object
        array."""
        vals = [list(c[0].ravel()) for c, _ in self._parts()]
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
        if np.ndim(self.v[idx]) == 0:
            jets = [Jet(self.alg, c[(slice(None),) + idx].copy(), int(v[idx]),
                        False) for c, v in self._parts()]
            return jets[0] if len(jets) == 1 else Dual(*jets)
        flat = np.arange(self.v.size).reshape(self.shape)[idx]
        parts = []
        for c, v in self._parts():
            v = v[idx]
            live = self.alg.upto[v.max(initial=0)]   # 0 for an empty pick
            out = np.empty((self.alg.N,) + v.shape)
            out[live:] = 0.0
            out[:live] = np.take(c[:live].reshape(live, -1), flat, axis=1)
            parts.append((out, v))
        return self._with(parts)

    # -- elementwise arithmetic ----------------------------------------------

    def transpose(self, *axes) -> "JetField":
        if len(axes) == 1 and not isinstance(axes[0], int):
            axes = axes[0]
        caxes = (0,) + tuple(x + 1 for x in axes)
        return self._with((np.transpose(c, caxes), np.transpose(v, axes))
                          for c, v in self._parts())

    def __neg__(self) -> "JetField":
        return self._with((-c, v) for c, v in self._parts())

    def _elementwise(self, other, op, flip: bool):
        """op(self, other), or op(other, self) when flipped: per part, the
        coefficients combined, ``valid`` the min and zeros above it.  An
        operand that does not pack alike takes the object path."""
        o = JetField.of(other)
        if o is None or o.alg is not self.alg or o.shape != self.shape \
                or (o.ic is None) != (self.ic is None):
            return _object_op(self, other, op, flip)
        x, y = (o, self) if flip else (self, o)
        parts = []
        for (cx, vx), (cy, vy) in zip(x._parts(), y._parts()):
            c = op(cx, cy)
            if (vx == vy).all():
                parts.append((c, vx))
            else:
                v = np.minimum(vx, vy)
                parts.append((_zero_above(self.alg, c, v), v))
        return self._with(parts)

    def __mul__(self, s):
        """The field times a scalar: a plain number scales the coefficients
        (a Dual's im part capped at its re part's ``valid``, as
        ``Dual.__mul__`` caps it); a Jet or Dual runs the kernel as a rank-0
        operand."""
        if isinstance(s, (int, Fraction, float)):
            x = float(s)
            if self.ic is None:
                return JetField(self.alg, self.c * x, self.v)
            iv = np.minimum(self.v, self.iv)
            return JetField(self.alg, self.c * x, self.v,
                            _zero_above(self.alg, self.ic * x, iv), iv)
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
        alg, n = self.alg, len(variables)
        if any(x is not None for x in variables) and \
                any(bool((v < 1).any()) for _, v in self._parts()):
            raise JetOrderError(
                "jet order exhausted; rebuild the context with a higher order")
        parts = []
        for k, (c, v) in enumerate(self._parts()):
            dc = np.zeros((alg.N, n) + self.shape)
            dv = np.empty((n,) + self.shape, dtype=v.dtype)
            for a, var in enumerate(variables):
                if var is None:     # a Dual's im part capped as in s * 0
                    dv[a] = v if k == 0 else np.minimum(self.v, v)
                else:
                    src, dst, fac, _ = alg._diff_tables[var]
                    dc[dst, a] = c[src] * fac.reshape(
                        (-1,) + (1,) * len(self.shape))
                    dv[a] = v - 1
            parts.append((dc, dv))
        return self._with(parts)


def _zero_above(alg, c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """c, with the coefficients above each component's ``valid`` set to zero
    in place.  Monomials are sorted by degree, so a common ``valid`` zeroes
    a tail of rows."""
    lo = v.min()
    if lo == v.max():
        c[alg.upto[lo]:] = 0.0
    else:
        c[alg.deg.reshape((-1,) + (1,) * v.ndim) > v] = 0.0
    return c


def _jets(alg, c: np.ndarray, v: np.ndarray) -> list:
    rows = c.reshape(alg.N, -1).T.copy()
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
    for c, v in f._parts():
        v = _spread(v, ins, letters)
        c = np.einsum(f"{coef}{ins}->{coef}{out}", c)
        if summed:
            v = v.min(axis=summed)
            c = _zero_above(f.alg, c, v)
        parts.append((c, v))
    return f._with(parts)


# -- dense float-jet kernel ------------------------------------------------------

_BLOCK_FLOATS = 1 << 15     # shifted operand plus output of one kernel block


def _float_jet_einsum(spec: str, a, b):
    """A two-operand ``einsum`` step on float jets, or None for other scalars.

    Each operand is a ``JetField`` or an object array that packs into one
    of the same ``JetAlgebra``.  A Dual product is three kernel runs, re.re
    and re.im + im.re; a Jet operand contributes no im run.  Each output's
    ``valid`` is the min over the components that feed it, as the chain of
    ``Jet.__mul__``/``__add__`` calls gives; a Dual's im part is also capped
    at its re part's ``valid``, as ``Dual.__mul__`` does.
    """
    fa = JetField.of(a)
    if fa is None:
        return None
    fb = JetField.of(b)
    if fb is None or fb.alg is not fa.alg:
        return None
    alg, (ra, *ima), (rb, *imb) = fa.alg, fa._parts(), fb._parts()
    re_c, re_v = _jet_product(alg, spec, ra, rb)
    runs = [(ra, y) for y in imb] + [(x, rb) for x in ima]
    if not runs:
        return JetField(alg, re_c, re_v)
    im_c, im_v = 0.0, re_v
    for x, y in runs:
        c, v = _jet_product(alg, spec, x, y)
        im_c = im_c + c
        im_v = np.minimum(im_v, v)
    return JetField(alg, re_c, re_v, _zero_above(alg, im_c, im_v), im_v)


def _jet_product(alg, spec: str, a, b):
    """The contraction ``spec`` of two packed float-jet operands.

    a and b are (coefficients, valid) parts of ``JetField``s.  Returns the
    output's (coefficients, valid), coefficient axis leading, zero above
    each output's ``valid``.  Truncated series multiply as a lower
    triangular Toeplitz matrix (Griewank & Walther, Evaluating Derivatives,
    2008, ch. 13): output monomial m sums F[x] S[m - x] over the monomials
    x <= m, so the operand S is expanded through the shift table up to the
    largest output ``valid`` and each block of output monomials is one
    ``np.matmul`` of the other operand F against it, the summed letters and
    x together forming the inner axis.
    """
    (ca, va), (cb, vb) = a, b
    p = _product_plan(spec, va.shape, vb.shape)
    lo = va.flat[0]
    if (va == lo).all() and (vb == vb.flat[0]).all():
        v = np.full(p.out_shape, min(lo, vb.flat[0]), dtype=va.dtype)
        uniform = True
    else:
        v = _min_valid(spec, va, vb)
        uniform = False
    cap = int(v.max())
    n = alg.upto[cap]
    ca, cb = ca[:n], cb[:n]
    if p.pre_a:
        ca = np.einsum(p.pre_a, ca)
    if p.pre_b:
        cb = np.einsum(p.pre_b, cb)
    if p.swap:
        ca, cb = cb, ca
    nb, nf, nk, ns = p.sizes
    fixed = ca.transpose(p.perm_f).reshape(nb, nf, nk, n)
    shifted = np.zeros((nb, nk, n + 1, ns))     # row n: the zero row
    shifted[:, :, :n] = cb.transpose(p.perm_s).reshape(nb, nk, n, ns)
    c = np.zeros((alg.N,) + p.out_shape)
    view = c.transpose(p.perm_o)
    lead = (slice(None),) * len(p.fixed_out_shape)
    s = _shift_table(alg, cap)
    for m0, m1 in _shift_blocks(alg, cap, nb * nk * ns, nb * nf * ns):
        f = fixed[..., :m1].reshape(nb, nf, nk * m1)
        g = np.take(shifted, s[:m1, m0:m1], axis=2).reshape(
            nb, nk * m1, (m1 - m0) * ns)
        view[lead + (slice(m0, m1),)] = np.matmul(f, g).reshape(
            p.fixed_out_shape + (m1 - m0,) + p.free_s_shape)
    if not uniform:
        _zero_above(alg, c, v)
    return c, v


class _ProductPlan(NamedTuple):
    pre_a: str | None       # one-operand step on a's coefficients, or None
    pre_b: str | None
    swap: bool              # a is the shifted operand
    perm_f: tuple           # fixed coefficients to (batch, free, summed, x)
    perm_s: tuple           # shifted ones to (batch, summed, x, free)
    perm_o: tuple           # output coefficients to (batch, free_f, m, free_s)
    sizes: tuple            # (batch, free_f, summed, free_s) sizes
    fixed_out_shape: tuple  # the extents of the batch and free_f letters
    free_s_shape: tuple     # the extents of the free_s letters
    out_shape: tuple


@lru_cache(maxsize=None)
def _product_plan(spec: str, shape_a: tuple, shape_b: tuple) -> _ProductPlan:
    """How ``_jet_product`` runs ``spec`` on component shapes a and b.

    A letter repeated in one operand takes the diagonal, and one found in
    a single operand and not in the output is summed, by a one-operand step
    first.  The rest are batch letters (both operands and the output), free
    letters (one operand and the output) and summed letters (both operands
    only).  The operand with fewer free components is shifted.
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

    def axes(sub, letters):
        return [1 + sub.index(x) for x in letters]

    return _ProductPlan(
        pre_a, pre_b, swap,
        tuple(axes(kf, batch + free_f + summed) + [0]),
        tuple(axes(ks, batch + summed) + [0] + axes(ks, free_s)),
        tuple(axes(out, batch + free_f) + [0] + axes(out, free_s)),
        (size(batch), size(free_f), size(summed), size(free_s)),
        tuple(extent[x] for x in batch + free_f),
        tuple(extent[x] for x in free_s),
        tuple(extent[x] for x in out))


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
def _shift_blocks(alg, cap: int, per_entry: int, per_monomial: int) -> tuple:
    """The output monomials up to degree cap cut into blocks (m0, m1).

    Monomials are sorted by degree, so x <= m gives x < m1 and a block's
    shifted operand holds m1 * (m1 - m0) * ``per_entry`` floats, its output
    (m1 - m0) * ``per_monomial``; together at most ``_BLOCK_FLOATS``, or one
    monomial.
    """
    n, blocks, m0 = alg.upto[cap], [], 0
    while m0 < n:
        m1 = m0 + 1
        while m1 < n and (m1 + 1 - m0) * ((m1 + 1) * per_entry
                                          + per_monomial) <= _BLOCK_FLOATS:
            m1 += 1
        blocks.append((m0, m1))
        m0 = m1
    return tuple(blocks)


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


# -- packed exact rationals -------------------------------------------------

_INT64_BOUND = 1 << 63


class RationalField(_Field):
    """Fractions packed as integer numerators over one common denominator.

    ``num`` holds the numerators and ``den`` is a positive Python int.  The
    pair is canonical, gcd(den, every numerator) = 1, so each component
    unpacks to the very Fraction the object path gives.  ``num`` is int64
    when every numerator fits, else an object array of Python ints.  An
    operation runs on int64 only when a bound on its partial sums, computed
    in Python ints from each operand's largest |numerator| (``top``), is
    below 2**63, and on Python ints otherwise, so it is exact either way:
    fraction-free arithmetic over a common denominator (Bareiss, Math.
    Comp. 22 (1968)).  Operations never write into an operand's arrays.
    """

    __slots__ = ("num", "den", "_top")

    def __init__(self, num: np.ndarray, den: int, top: int | None = None):
        self.num, self.den, self._top = num, den, top

    @classmethod
    def reduced(cls, num: np.ndarray, den: int) -> "RationalField":
        """The canonical field of the integer array num over den > 0."""
        if den != 1:
            common = int(np.gcd.reduce(num.ravel()))
            g = math.gcd(den, common)
            if g > 1:
                den //= g
                if common:      # all-zero numerators only reset den to 1
                    num = num // g
        top = None
        if num.dtype == object:
            top = max(map(abs, num.ravel().tolist()))
            if top < _INT64_BOUND:
                num = num.astype(np.int64)
        return cls(num, den, top)

    @property
    def shape(self) -> tuple:
        return self.num.shape

    @property
    def top(self) -> int:
        """The largest |numerator|, a Python int."""
        if self._top is None:
            self._top = int(np.abs(self.num).max())
        return self._top

    def kind(self) -> str:
        return "rational"

    # -- packing -------------------------------------------------------------

    @classmethod
    def pack(cls, a: np.ndarray):
        """The field of an object array of Fractions alone: numerators over
        the lcm of the denominators, which is canonical.  None when ``a``
        holds anything else, ints included."""
        if type(a.flat[0]) is not Fraction:
            return None
        flat = a.ravel().tolist()
        if not all(type(x) is Fraction for x in flat):
            return None
        den = math.lcm(*(x.denominator for x in flat))
        nums = [x.numerator * (den // x.denominator) for x in flat]
        top = max(map(abs, nums))
        num = np.empty(len(nums), np.int64 if top < _INT64_BOUND else object)
        num[:] = nums
        return cls(num.reshape(a.shape), den, top)

    def unpack(self) -> np.ndarray:
        """An object array of Fractions, one per distinct numerator."""
        flat = self.num.ravel().tolist()
        fracs = {n: Fraction(n, self.den) for n in set(flat)}
        out = np.empty(len(flat), dtype=object)
        out[:] = [fracs[n] for n in flat]
        return out.reshape(self.shape)

    def at_point(self) -> "RationalField":
        return self

    def __getitem__(self, idx) -> "RationalField | Fraction":
        """numpy indexing on the component axes; an index that picks one
        component gives it as a Fraction."""
        num = self.num[idx]
        if isinstance(num, np.ndarray):
            return RationalField.reduced(num, self.den)
        return Fraction(int(num), self.den)

    # -- arithmetic ----------------------------------------------------------

    def transpose(self, *axes) -> "RationalField":
        return RationalField(self.num.transpose(*axes), self.den, self._top)

    def __neg__(self) -> "RationalField":
        return RationalField(-self.num, self.den, self._top)

    def _elementwise(self, other, op, flip: bool):
        """op(self, other), or op(other, self) when flipped, with both
        numerator arrays rescaled to the lcm of the denominators.  An operand
        that does not pack takes the object path."""
        o = RationalField.of(other)
        if o is None or o.shape != self.shape:
            return _object_op(self, other, op, flip)
        x, y = (o, self) if flip else (self, o)
        den = math.lcm(x.den, y.den)
        fx, fy = den // x.den, den // y.den
        nx, ny = _widened(max(x.top, 1) * fx + max(y.top, 1) * fy,
                          x.num, y.num)
        return RationalField.reduced(op(nx * fx, ny * fy), den)

    def __mul__(self, s):
        """The field times an int or a Fraction; any other scalar takes the
        object path."""
        if type(s) is int or type(s) is Fraction:
            p, q = s.as_integer_ratio()
            num, = _widened(max(self.top, 1) * abs(p), self.num)
            return RationalField.reduced(num * p, self.den * q)
        return self.unpack() * s

    def derivatives(self, variables) -> "RationalField":
        """D_a of every component in a new leading slot: zero, as the
        derivative of a constant is."""
        return RationalField(np.zeros((len(variables),) + self.shape,
                                      dtype=np.int64), 1, 0)


@lru_cache(maxsize=None)
def _summed_terms(spec: str, shapes: tuple) -> int:
    """The number of terms in each output of ``spec``: the product of the
    extents of the summed letters."""
    ins, out = spec.split("->")
    extents = dict(zip(ins.replace(",", ""), sum(shapes, ())))
    return math.prod(n for x, n in extents.items() if x not in out)


def _widened(bound: int, *nums) -> tuple:
    """The numerator arrays as they are when ``bound`` proves int64
    arithmetic on them exact, else as object arrays of Python ints."""
    if bound >= _INT64_BOUND:
        return tuple(n.astype(object) for n in nums)
    return nums


def _object_op(x: _Field, other, op, flip: bool):
    """op(x, other), or op(other, x) when flipped, on the unpacked objects."""
    y = other.unpack() if isinstance(other, _Field) else other
    x = x.unpack()
    return op(y, x) if flip else op(x, y)


def _rational_einsum(spec: str, *ops):
    """A one- or two-operand ``einsum`` step on Fractions as a
    ``RationalField``, or None unless every operand is one or an object
    array of Fractions alone.

    The numerators are contracted and the denominators multiply.  Every
    partial sum is bounded by the product of the operands' largest
    |numerator| times the number of terms, the product of the extents of the
    summed letters, so the run is on int64 when that bound is below 2**63
    and on Python ints otherwise.
    """
    fields = [RationalField.of(x) for x in ops]
    if None in fields:
        return None
    bound = _summed_terms(spec, tuple(f.shape for f in fields))
    for f in fields:
        bound *= max(f.top, 1)
    nums = _widened(bound, *(f.num for f in fields))
    res = np.asarray(np.einsum(spec, *nums), dtype=nums[0].dtype)
    return RationalField.reduced(res, math.prod(f.den for f in fields))
