"""Dense tensor arithmetic with abstract-index semantics.

Components are over one scalar kind (Fraction, QuadExt, float, Jet, or
Dual).  Slot order is storage order; valence is a tuple of 'u'/'d' flags.

Storage.  A ``Tensor`` holds its components either as a numpy object array
or, for float jets of one ``JetAlgebra`` and Duals over them, packed in a
``JetField``: one float coefficient array with the coefficient axis leading,
(N, *shape), an int array of the per-component ``valid`` orders, zero
coefficients above them, and a second coefficient/``valid`` pair for the im
parts of Duals.  Chart metrics and their inverses are packed once, and
every packed operation returns a packed result: ``+``, ``-``, negation,
``scale``, ``permuted``, derivatives (a gather through the jet algebra's
diff tables), ``contract`` and two-operand ``einsum`` steps, with the
``valid`` orders a chain of ``Jet``/``Dual`` operations would give.  None of
them reads ``Tensor.a``: that object array, for every reader that wants
``Jet``/``Dual`` objects, is unpacked on first read and kept, read-only, so
a write can never leave the packed data stale (``Tensor.copy`` gives a
writable one).  ``Tensor.data`` is whichever storage the tensor has;
exact scalars, plain floats and mixed arrays always stay object arrays.

Every contraction goes through ``einsum(spec, *operands)``, which returns
a ``JetField`` when a packed operand went through a packed step and an
object ndarray otherwise.  Three or more operands run pairwise, one einsum
per step of numpy's greedy plan, with array intermediates: numpy >= 2 runs
each pairwise step through ``bmm_einsum``, which needs ``.shape``, and an
object einsum returns a bare scalar for a step that contracts to rank 0.
Each step dispatches on its operands' scalars alone:

- Two operands of float ``Jet``s from one ``JetAlgebra``, or of ``Dual``s
  over them, run a dense kernel on packed fields (an object-array operand
  is packed for the call, and the result unpacked unless an operand came
  packed).  Each output's ``valid`` is the min over the components that
  feed it (what the chain of ``Jet.__mul__``/``__add__`` calls gives), and
  the jet multiplication table up to the largest output
  ``valid`` is taken sorted by product monomial.  Each block of that table
  is one float ``np.einsum`` with a leading pair axis, summed per monomial
  by ``np.add.reduceat``.  A block ends at a monomial boundary and holds at
  most ``_BLOCK_FLOATS`` floats of operand gathers plus output.  The
  coefficients above each output's ``valid`` are zeroed.  A Dual product is
  the runs re.re and re.im + im.re.
- One packed operand sums (or transposes) its coefficients, each output's
  ``valid`` the min over the components summed into it.
- Two operands of ``Fraction``s alone run an int64 kernel: each operand is
  packed as int64 numerators over the lcm of its denominators, one int64
  ``np.einsum`` makes the output numerators over the product of the two
  denominators, and each output is reduced once.  It runs only when
  max|Na| * max|Nb| times the product of the extents of the summed letters
  is below 2**63, which bounds every partial sum; past that the step takes
  the object path.  Fractions are canonical, so results are the same.
- Any other step (exact jets, QuadExt, plain floats, arrays that mix kinds
  or mix int with Fraction, one operand, Fractions past the int64 bound) is
  ``np.einsum(..., optimize=True)`` on the objects, so exact results are
  unchanged bit for bit.

Generalized Kronecker deltas are evaluated as signed permutation sums and are
never materialized inside a larger contraction: ``gkd_contract`` wires delta
slots straight into factor tensors, one einsum per permutation, with an
orbit reduction over declared factor symmetries to cut the factorial count.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DimensionError, JetOrderError, ScalarKindError, SlotError
from .jets import Dual, Jet, field_value, scalar_float
from .scalars import QuadExt

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def kind_of(x) -> str:
    if isinstance(x, Jet):
        return "jet-exact" if x.exact else "jet-float"
    if isinstance(x, Dual):
        return "dual:" + kind_of(x.re)
    if isinstance(x, bool):
        raise ScalarKindError("bool is not a scalar")
    if isinstance(x, (int, Fraction)):
        return "rational"
    if isinstance(x, QuadExt):
        return "quadext"
    if isinstance(x, float):
        return "float"
    raise ScalarKindError(f"unsupported scalar type {type(x).__name__}")


def _check_same_kind(a: "Tensor", b: "Tensor"):
    ka, kb = a.kind(), b.kind()
    if ka == kb:
        return
    if {ka, kb} == {"rational", "quadext"}:
        return              # the rationals sit inside the extension
    raise ScalarKindError(f"mixed scalar kinds {ka} and {kb}; "
                          "promote explicitly first")


class Tensor:
    """Dense tensor at a point (or jet-valued field) with fixed slot valence.

    Components live in an object ndarray or, for float jets and Duals over
    them, in a packed ``JetField``; ``data`` is whichever the tensor holds.
    """

    __slots__ = ("dim", "valence", "_a", "field")

    def __init__(self, dim: int, valence, a):
        valence = tuple(valence)
        if any(v not in ("u", "d") for v in valence):
            raise SlotError(f"bad valence {valence}")
        if a.shape != (dim,) * len(valence):
            raise SlotError(f"component shape {a.shape} does not match "
                            f"dim {dim}, rank {len(valence)}")
        self.dim, self.valence = dim, valence
        if isinstance(a, JetField):
            self._a, self.field = None, a
        else:
            self._a, self.field = a, None

    @property
    def a(self) -> np.ndarray:
        """The components as an object ndarray.  A packed tensor unpacks
        them on first read into a read-only array, kept for later reads."""
        if self._a is None:
            a = self.field.unpack()
            a.flags.writeable = False
            self._a = a
        return self._a

    @property
    def data(self):
        """The packed ``JetField`` when there is one, else the object array."""
        return self._a if self.field is None else self.field

    def pack(self) -> "Tensor":
        """This tensor with packed storage when its components are float jets
        of one algebra (or Duals over them); otherwise the tensor itself."""
        if self.field is not None:
            return self
        f = JetField.pack(self._a)
        return self if f is None else Tensor(self.dim, self.valence, f)

    # -- construction --------------------------------------------------------

    @classmethod
    def filled(cls, dim, valence, value) -> "Tensor":
        a = np.empty((dim,) * len(valence), dtype=object)
        a[...] = value
        return cls(dim, valence, a)

    @classmethod
    def from_function(cls, dim, valence, fn) -> "Tensor":
        a = np.empty((dim,) * len(valence), dtype=object)
        for idx in np.ndindex(a.shape):
            a[idx] = fn(*idx)
        return cls(dim, valence, a)

    @classmethod
    def scalar(cls, dim, value) -> "Tensor":
        a = np.empty((), dtype=object)
        a[()] = value
        return cls(dim, (), a)

    @classmethod
    def dual(cls, re: "Tensor", im: "Tensor") -> "Tensor":
        """The tensor of Duals re + eps im, component by component."""
        fr, fi = re.field, im.field
        if fr is not None and fi is not None and fr.ic is None \
                and fi.ic is None and fr.alg is fi.alg:
            return cls(re.dim, re.valence,
                       JetField(fr.alg, fr.c, fr.v, fi.c, fi.v))
        out = np.empty(re.a.shape, dtype=object)
        for idx in np.ndindex(out.shape):
            out[idx] = Dual(re.a[idx], im.a[idx])
        return cls(re.dim, re.valence, out)

    def dual_parts(self) -> tuple["Tensor", "Tensor"]:
        """(re, im) of a tensor of Duals."""
        f = self.field
        if f is not None:
            return (Tensor(self.dim, self.valence, JetField(f.alg, f.c, f.v)),
                    Tensor(self.dim, self.valence,
                           JetField(f.alg, f.ic, f.iv)))
        return self.map(lambda d: d.re), self.map(lambda d: d.im)

    # -- basics ---------------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.valence)

    def kind(self) -> str:
        if self.field is not None:
            return self.field.kind()
        return kind_of(self._a.flat[0] if self.rank else self._a[()])

    def item(self):
        if self.rank:
            raise SlotError("item() on a tensor of positive rank")
        return self.a[()]

    def copy(self) -> "Tensor":
        """A tensor with a writable copy of the components."""
        return Tensor(self.dim, self.valence, self.a.copy())

    def map(self, fn) -> "Tensor":
        a = self.a
        out = np.empty(a.shape, dtype=object)
        for idx in np.ndindex(a.shape):
            out[idx] = fn(a[idx])
        return Tensor(self.dim, self.valence, out)

    def __add__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.valence != other.valence or self.dim != other.dim:
            raise SlotError("tensor shape/valence mismatch in addition")
        _check_same_kind(self, other)
        return Tensor(self.dim, self.valence,
                      _object_array(self.data + other.data))

    def __sub__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.valence != other.valence or self.dim != other.dim:
            raise SlotError("tensor shape/valence mismatch in subtraction")
        _check_same_kind(self, other)
        return Tensor(self.dim, self.valence,
                      _object_array(self.data - other.data))

    def __neg__(self) -> "Tensor":
        return Tensor(self.dim, self.valence, _object_array(-self.data))

    def scale(self, s) -> "Tensor":
        if isinstance(s, Tensor):
            raise SlotError("use tp/contract for tensor-tensor products")
        return Tensor(self.dim, self.valence, _object_array(self.data * s))

    __rmul__ = scale
    __mul__ = scale

    def tp(self, other: "Tensor") -> "Tensor":
        """Tensor product, slots of self first."""
        _check_same_kind(self, other)
        sub_a = _LETTERS[:self.rank]
        sub_b = _LETTERS[self.rank:self.rank + other.rank]
        a = einsum(f"{sub_a},{sub_b}->{sub_a}{sub_b}", self.data, other.data)
        return Tensor(self.dim, self.valence + other.valence, a)

    def permuted(self, perm) -> "Tensor":
        """Reorder slots: new slot i holds old slot perm[i]."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.rank)):
            raise SlotError(f"bad slot permutation {perm}")
        return Tensor(self.dim, tuple(self.valence[p] for p in perm),
                      self.data.transpose(perm))

    def swap(self, i, j) -> "Tensor":
        perm = list(range(self.rank))
        perm[i], perm[j] = perm[j], perm[i]
        return self.permuted(perm)

    def at_point(self) -> "Tensor":
        """Collapse jet-valued components to their base-point values."""
        if self.field is not None:
            return Tensor(self.dim, self.valence, self.field.at_point())
        return self.map(field_value)

    def __repr__(self):
        return f"Tensor(dim={self.dim}, valence={''.join(self.valence)})"


def zeros(dim, valence, ring) -> Tensor:
    return Tensor.filled(dim, valence, ring.zero())


def _object_array(x):
    """x itself if it is an array or a ``JetField``, else a 0-d object array
    holding it."""
    if isinstance(x, (np.ndarray, JetField)):
        return x
    a = np.empty((), dtype=object)
    a[()] = x           # item assignment: numpy never tries to unpack a Jet
    return a


def einsum(spec: str, *operands):
    """Contract object arrays and packed ``JetField``s by ``spec``.

    The result is a ``JetField`` when an operand is one and the step ran
    packed, else an object ndarray (never a bare scalar).  Three or more
    operands run pairwise along numpy's greedy plan, with every intermediate
    kept as an array.  A two-operand step with an explicit ``->`` output
    runs the dense kernel ``_float_jet_einsum`` on float jets (or ``Dual``
    numbers over them) and the int64 kernel ``_rational_einsum`` on
    Fractions; a one-operand step on a ``JetField`` sums its coefficients
    (``_field_einsum1``); any other step is ``np.einsum(..., optimize=True)``
    on the objects themselves.
    """
    if len(operands) < 3:
        return _einsum_step(spec, *operands)
    ops = list(operands)
    for positions, step in _pairwise_plan(spec, tuple(a.shape for a in ops)):
        args = [ops.pop(i) for i in positions]
        ops.append(_einsum_step(step, *args[::-1]))
    return ops[0]


def _einsum_step(spec: str, *ops):
    packed = any(isinstance(x, JetField) for x in ops)
    if "->" in spec and "." not in spec:
        if len(ops) == 2:
            out = _float_jet_einsum(spec, *ops)
            if out is not None:
                return out if packed else out.unpack()
            if not packed:
                out = _rational_einsum(spec, *ops)
                if out is not None:
                    return out
        elif packed:
            return _field_einsum1(spec, ops[0])
    if packed:
        ops = [x.unpack() if isinstance(x, JetField) else x for x in ops]
    return _object_array(np.einsum(spec, *ops, optimize=True))


@lru_cache(maxsize=None)
def _pairwise_plan(spec: str, shapes) -> tuple:
    """numpy's greedy contraction order for an explicit ``spec`` as steps.

    Each step is (positions, step_spec): pop the operands at the positions,
    which are descending, and append the step's result, as ``np.einsum``
    does.  step_spec lists the popped operands in ascending position order
    and sorts an intermediate's indices by letter, as numpy does when every
    index has the same extent (every slot spans dim), so each two-operand
    ``np.einsum(step_spec, ...)`` makes the very matmul call, with the same
    summation order, as numpy's own multi-operand run.
    """
    inputs, output = spec.split("->")
    terms = inputs.split(",")
    dummies = [np.broadcast_to(np.int8(0), s) for s in shapes]
    path = np.einsum_path(spec, *dummies, optimize=True)[0][1:]
    steps = []
    for n, positions in enumerate(path):
        positions = tuple(sorted(positions, reverse=True))
        taken = [terms.pop(i) for i in positions]
        if n == len(path) - 1:
            result = output
        else:
            kept = set("".join(taken)) & set(output + "".join(terms))
            result = "".join(sorted(kept))
        terms.append(result)
        steps.append((positions, ",".join(taken[::-1]) + "->" + result))
    return tuple(steps)


# -- packed float jets ----------------------------------------------------------


class JetField:
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
    __array_ufunc__ = None      # ndarray (op) JetField defers to JetField

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
        component gives that component as a new ``Jet`` (or ``Dual``)."""
        idx = idx if isinstance(idx, tuple) else (idx,)
        parts = [(c[(slice(None),) + idx], v[idx]) for c, v in self._parts()]
        if np.ndim(parts[0][1]):
            return self._with(parts)
        jets = [Jet(self.alg, c.copy(), int(v), False) for c, v in parts]
        return jets[0] if len(jets) == 1 else Dual(*jets)

    # -- elementwise arithmetic ----------------------------------------------

    def transpose(self, *axes) -> "JetField":
        if len(axes) == 1 and not isinstance(axes[0], int):
            axes = axes[0]
        caxes = (0,) + tuple(x + 1 for x in axes)
        return self._with((np.transpose(c, caxes), np.transpose(v, axes))
                          for c, v in self._parts())

    def __neg__(self) -> "JetField":
        return self._with((-c, v) for c, v in self._parts())

    def __add__(self, other):
        return self._elementwise(other, np.add, False)

    def __radd__(self, other):
        return self._elementwise(other, np.add, True)

    def __sub__(self, other):
        return self._elementwise(other, np.subtract, False)

    def __rsub__(self, other):
        return self._elementwise(other, np.subtract, True)

    def _elementwise(self, other, op, flip: bool):
        """op(self, other), or op(other, self) when flipped: per part, the
        coefficients combined, ``valid`` the min and zeros above it.  An
        operand that does not pack alike takes the object path."""
        o = other if isinstance(other, JetField) else \
            JetField.pack(other) if isinstance(other, np.ndarray) else None
        if o is None or o.alg is not self.alg or o.shape != self.shape \
                or (o.ic is None) != (self.ic is None):
            x = self.unpack()
            y = other.unpack() if isinstance(other, JetField) else other
            return op(y, x) if flip else op(x, y)
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

    __rmul__ = __mul__

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

_BLOCK_FLOATS = 1 << 15     # operand gathers plus output of one kernel block


def _float_jet_einsum(spec: str, a, b):
    """A two-operand ``einsum`` step on float jets, or None for other scalars.

    Each operand is a ``JetField`` or an object array that packs into one
    of the same ``JetAlgebra``.  A Dual product is three kernel runs, re.re
    and re.im + im.re; a Jet operand contributes no im run.  Each output's
    ``valid`` is the min over the components that feed it, as the chain of
    ``Jet.__mul__``/``__add__`` calls gives; a Dual's im part is also capped
    at its re part's ``valid``, as ``Dual.__mul__`` does.
    """
    fa = a if isinstance(a, JetField) else JetField.pack(a)
    if fa is None:
        return None
    fb = b if isinstance(b, JetField) else JetField.pack(b)
    if fb is None or fb.alg is not fa.alg:
        return None
    alg, (ra, *ima), (rb, *imb) = fa.alg, fa._parts(), fb._parts()
    pair = next(x for x in _LETTERS if x not in spec)
    re_c, re_v = _jet_product(alg, spec, pair, ra, rb)
    runs = [(ra, y) for y in imb] + [(x, rb) for x in ima]
    if not runs:
        return JetField(alg, re_c, re_v)
    im_c, im_v = 0.0, re_v
    for x, y in runs:
        c, v = _jet_product(alg, spec, pair, x, y)
        im_c = im_c + c
        im_v = np.minimum(im_v, v)
    return JetField(alg, re_c, re_v, _zero_above(alg, im_c, im_v), im_v)


def _jet_product(alg, spec: str, pair: str, a, b):
    """The contraction ``spec`` of two packed float-jet operands.

    a and b are (coefficients, valid) parts of ``JetField``s.  Returns the
    output's (coefficients, valid), coefficient axis leading, zero above
    each output's ``valid``.  The pair table holds every monomial pair up to
    the largest output ``valid``, sorted by product monomial; each block of
    it is one float einsum with the pair axis ``pair`` leading, summed per
    product monomial by ``np.add.reduceat``.
    """
    (ca, va), (cb, vb) = a, b
    v = _min_valid(spec, va, vb)
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    pspec = f"{pair}{sa},{pair}{sb}->{pair}{out}"
    size = v.size
    ia, ib, blocks = _pair_blocks(alg, int(v.max()),
                                  va.size + vb.size + size)
    c = np.zeros((alg.N, size))
    for p0, p1, starts, m0, m1 in blocks:
        t = np.einsum(pspec, ca[ia[p0:p1]], cb[ib[p0:p1]])
        c[m0:m1] = np.add.reduceat(t, starts, axis=0).reshape(m1 - m0, size)
    return _zero_above(alg, c.reshape((alg.N,) + v.shape), v), v


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


@lru_cache(maxsize=None)
def _pair_blocks(alg, cap: int, per_pair: int):
    """``alg.mul_table(cap)`` sorted by product monomial, cut into blocks.

    Returns (ia, ib, blocks); each block (p0, p1, starts, m0, m1) takes the
    pairs p0:p1, which make the product monomials m0:m1, with ``starts`` the
    block-relative first pair of each.  Blocks end at monomial boundaries
    and hold at most ``_BLOCK_FLOATS // per_pair`` pairs, or one monomial.
    """
    ia, ib, io = alg.mul_table(cap)
    order = np.argsort(io, kind="stable")
    ia, ib, io = ia[order], ib[order], io[order]
    first = np.flatnonzero(np.r_[True, io[1:] != io[:-1]])
    bounds = np.r_[first, len(io)]          # monomial m takes bounds[m:m+2]
    most = max(1, _BLOCK_FLOATS // per_pair)
    blocks, m0 = [], 0
    while m0 < len(first):
        m1 = m0 + 1
        while m1 < len(first) and bounds[m1 + 1] - bounds[m0] <= most:
            m1 += 1
        p0, p1 = bounds[m0], bounds[m1]
        blocks.append((p0, p1, first[m0:m1] - p0, m0, m1))
        m0 = m1
    return ia, ib, tuple(blocks)


# -- int64 kernel for Fraction operands -----------------------------------------

_INT64_BOUND = 1 << 63


def _rational_einsum(spec: str, a: np.ndarray, b: np.ndarray):
    """A two-operand ``einsum`` step on Fractions, or None.

    None unless every element of both operands is a ``Fraction``, or when
    the int64 sum might overflow.  Each operand is packed as int64
    numerators over the lcm of its denominators, fraction-free (Bareiss,
    Math. Comp. 22 (1968)); one int64 ``np.einsum`` makes the numerators of
    the output over the product of the two denominators, and each distinct
    numerator is reduced once, into one Fraction shared by the outputs that
    hold it.  Every partial sum is bounded by max|Na| * max|Nb| times
    the number of terms, the product of the extents of the summed letters,
    so the run is exact when that bound is below 2**63.
    """
    pa = _pack_rational(a)
    if pa is None:
        return None
    pb = _pack_rational(b)
    if pb is None:
        return None
    (na, da, ma), (nb, db, mb) = pa, pb
    ins, out = spec.split("->")
    bound = max(ma, 1) * max(mb, 1)
    for x, n in dict(zip(ins.replace(",", ""), a.shape + b.shape)).items():
        if x not in out:
            bound *= n
    if bound >= _INT64_BOUND:
        return None
    nums = np.asarray(np.einsum(spec, na, nb))
    flat = nums.ravel().tolist()
    den = da * db
    fracs = {n: Fraction(n, den) for n in set(flat)}
    res = np.empty(len(flat), dtype=object)
    res[:] = list(map(fracs.__getitem__, flat))
    return res.reshape(nums.shape)


def _pack_rational(a: np.ndarray):
    """(numerators, denominator, max |numerator|) of an array of Fractions:
    int64 numerators over the lcm of the denominators, or None when ``a``
    holds anything but Fractions or a numerator leaves int64."""
    if type(a.flat[0]) is not Fraction:
        return None
    flat = a.ravel().tolist()
    if set(map(type, flat)) != {Fraction}:
        return None
    nums, dens = zip(*map(Fraction.as_integer_ratio, flat))
    den = math.lcm(*dens)
    nums = [n * (den // d) for n, d in zip(nums, dens)]
    top = max(map(abs, nums))
    if top >= _INT64_BOUND:
        return None
    return np.array(nums, dtype=np.int64).reshape(a.shape), den, top


# -- permutations -------------------------------------------------------------


def perm_sign(perm) -> int:
    """Parity of a permutation given as a tuple of images on 0..p-1."""
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def signed_permutations(p: int):
    """All permutations of range(p) with their signs, in lexicographic order."""
    return tuple((s, perm_sign(s)) for s in itertools.permutations(range(p)))


class Permutation:
    """Permutation of {0..p-1} with its sign; supports cycle-notation input."""

    __slots__ = ("images", "sign")

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images}")
        self.images = images
        self.sign = perm_sign(images)

    @classmethod
    def from_cycles(cls, p: int, cycles) -> "Permutation":
        """Build from 1-based disjoint cycles, e.g. [[1,2],[3,4]]."""
        images = list(range(p))
        for cyc in cycles:
            cyc0 = [c - 1 for c in cyc]
            if any(not 0 <= c < p for c in cyc0):
                raise ValueError(f"cycle entry out of range in {cyc}")
            for i, c in enumerate(cyc0):
                images[c] = cyc0[(i + 1) % len(cyc0)]
        return cls(images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self*other)(i) = self(other(i))."""
        return Permutation(tuple(self.images[other.images[i]]
                                 for i in range(len(self.images))))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.images}"


# -- contraction and (anti)symmetrization -------------------------------------


def contract(t: Tensor, slot_pairs) -> Tensor:
    """Contract the listed (up, down) slot pairs of a single tensor."""
    pairs = [tuple(p) for p in slot_pairs]
    used = [s for p in pairs for s in p]
    if len(set(used)) != len(used):
        raise SlotError("repeated slot in contraction list")
    for i, j in pairs:
        for s in (i, j):
            if not 0 <= s < t.rank:
                raise SlotError(f"slot {s} out of range for rank {t.rank}")
        if {t.valence[i], t.valence[j]} != {"u", "d"}:
            raise SlotError(f"slots {i},{j} do not have opposite variance")
    letters = list(_LETTERS[:t.rank])
    for i, j in pairs:
        letters[j] = letters[i]
    out = [letters[s] for s in range(t.rank) if s not in set(used)]
    a = einsum(f"{''.join(letters)}->{''.join(out)}", t.data)
    valence = tuple(t.valence[s] for s in range(t.rank) if s not in set(used))
    return Tensor(t.dim, valence, a)


def contract_with(a: Tensor, b: Tensor, pairs) -> Tensor:
    """Contract slots of `a` (first element of each pair) against slots of `b`.

    Never materializes the tensor product; einsum contracts directly.
    """
    pairs = [tuple(p) for p in pairs]
    for i, j in pairs:
        if {a.valence[i], b.valence[j]} != {"u", "d"}:
            raise SlotError(f"slots {i},{j} do not have opposite variance")
    la = list(_LETTERS[:a.rank])
    lb = list(_LETTERS[a.rank:a.rank + b.rank])
    for i, j in pairs:
        lb[j] = la[i]
    ia = {i for i, _ in pairs}
    jb = {j for _, j in pairs}
    out = [la[s] for s in range(a.rank) if s not in ia] + \
        [lb[s] for s in range(b.rank) if s not in jb]
    arr = einsum(f"{''.join(la)},{''.join(lb)}->{''.join(out)}", a.data,
                 b.data)
    valence = tuple(a.valence[s] for s in range(a.rank) if s not in ia) + \
        tuple(b.valence[s] for s in range(b.rank) if s not in jb)
    return Tensor(a.dim, valence, arr)


def _permutation_average(t: Tensor, slots, signed: bool) -> Tensor:
    slots = list(slots)
    if len(set(slots)) != len(slots):
        raise SlotError("repeated slot in (anti)symmetrization list")
    if len({t.valence[s] for s in slots}) > 1:
        raise SlotError("(anti)symmetrization over mixed-variance slots")
    acc = None
    for perm, sign in signed_permutations(len(slots)):
        axes = list(range(t.rank))
        for pos, s in enumerate(slots):
            axes[s] = slots[perm[pos]]
        arr = t.data.transpose(axes)
        if signed and sign < 0:
            arr = -arr
        acc = arr if acc is None else acc + arr
    return Tensor(t.dim, t.valence, acc * Fraction(1, math.factorial(len(slots))))


def antisymmetrize(t: Tensor, slots) -> Tensor:
    """Projection onto the antisymmetric part over the listed slots."""
    return _permutation_average(t, slots, signed=True)


def symmetrize(t: Tensor, slots) -> Tensor:
    """Projection onto the symmetric part over the listed slots."""
    return _permutation_average(t, slots, signed=False)


def generalized_delta(p: int, dim: int, ring) -> Tensor:
    """Materialized generalized Kronecker delta, lower slots then upper slots."""
    if p < 1:
        raise SlotError("generalized delta needs p >= 1")
    valence = ("d",) * p + ("u",) * p
    t = zeros(dim, valence, ring)
    if p > dim:
        return t
    one = ring.one()
    for subset in itertools.combinations(range(dim), p):
        for lower in itertools.permutations(subset):
            pos = {v: i for i, v in enumerate(lower)}
            for upper, sign in signed_permutations(p):
                target = tuple(lower[u] for u in upper)
                rel = tuple(pos[v] for v in target)
                t.a[lower + target] = perm_sign(rel) * one
    return t


def _identity_matrix(dim, ring) -> np.ndarray:
    a = np.empty((dim, dim), dtype=object)
    a[...] = ring.zero()
    for i in range(dim):
        a[i, i] = ring.one()
    return a


def gkd_contract(dim, lower, upper, factors, ring, *, coeff=Fraction(1),
                 sym=()) -> Tensor:
    """Contract delta^(p) against a product of tensors without materializing it.

    lower/upper: length-p wiring lists for the delta's subscript/superscript
    groups.  Each entry is None (index stays free on the result) or a pair
    (factor_index, slot) naming the factor slot it contracts with; lower
    entries must hit 'u' slots, upper entries 'd' slots.  Result slots are the
    free lower indices (valence 'd') followed by free upper ones ('u'), in
    wiring order.

    sym: optional generators (perm_lower, perm_upper) of simultaneous index
    relabelings that leave the factor product invariant (including sign); the
    permutation sum is then evaluated once per orbit.
    """
    p = len(lower)
    if len(upper) != p:
        raise SlotError("lower/upper wiring length mismatch")
    for a, tgt in enumerate(lower):
        if tgt is not None and factors[tgt[0]].valence[tgt[1]] != "u":
            raise SlotError(f"lower delta index {a} must bind an up slot")
    for b, tgt in enumerate(upper):
        if tgt is not None and factors[tgt[0]].valence[tgt[1]] != "d":
            raise SlotError(f"upper delta index {b} must bind a down slot")
    out_valence = tuple("d" for t in lower if t is None) + \
        tuple("u" for t in upper if t is None)
    if p > dim:
        return zeros(dim, out_valence, ring)

    orbits = _orbit_representatives(p, tuple(tuple(s) for s in sym))
    idm = _identity_matrix(dim, ring)
    if any(f.field is not None for f in factors):
        idm = JetField.pack(idm) or idm
    acc = None
    for sigma, sign, size in orbits:
        arrays = [f.data for f in factors]
        subs = [["?"] * f.rank for f in factors]
        extra_arrays, extra_subs, out_sub = [], [], []
        letters = iter(_LETTERS)
        free_low, free_up = {}, {}
        chain_letter = {}
        for a in range(p):
            chain_letter[a] = next(letters)
        for a in range(p):
            lo = lower[a]
            if lo is not None:
                subs[lo[0]][lo[1]] = chain_letter[a]
            else:
                free_low[a] = chain_letter[a]
        for a in range(p):
            b = sigma[a]
            up = upper[b]
            if up is not None:
                subs[up[0]][up[1]] = chain_letter[a]
            else:
                free_up[b] = chain_letter[a]
        # a free lower index tied to a free upper index leaves an explicit
        # Kronecker factor in the result
        for b, let in free_up.items():
            if let in free_low.values():
                fresh = next(letters)
                extra_arrays.append(idm)
                extra_subs.append(let + fresh)
                free_up[b] = fresh
        out_sub = [free_low[a] for a in sorted(free_low)] + \
            [free_up[b] for b in sorted(free_up)]
        spec = ",".join("".join(s) for s in subs + extra_subs) + \
            "->" + "".join(out_sub)
        term = einsum(spec, *(arrays + extra_arrays))
        if sign * size != 1:
            term = term * (sign * size)
        acc = term if acc is None else acc + term
    if acc is None:
        return zeros(dim, out_valence, ring)
    return Tensor(dim, out_valence, _object_array(acc * coeff))


@lru_cache(maxsize=None)
def _orbit_representatives(p: int, sym):
    """Group S_p permutations into orbits under the symmetry generators."""
    perms = signed_permutations(p)
    if not sym:
        return tuple((s, sign, 1) for s, sign in perms)
    gens = []
    for pi_l, pi_u in sym:
        inv_l = [0] * p
        for i, j in enumerate(pi_l):
            inv_l[j] = i
        gens.append((tuple(inv_l), tuple(pi_u)))
    sign_of = dict(perms)
    seen = set()
    reps = []
    for s, sign in perms:
        if s in seen:
            continue
        orbit = {s}
        frontier = [s]
        while frontier:
            cur = frontier.pop()
            for inv_l, pi_u in gens:
                nxt = tuple(pi_u[cur[inv_l[i]]] for i in range(p))
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        seen |= orbit
        reps.append((s, sign, len(orbit)))
    return tuple(reps)


# -- metric-dependent operations ----------------------------------------------


def raise_slot(ctx, t: Tensor, slot: int) -> Tensor:
    return _move_slot(t, slot, ctx.metric_inv, "u")


def lower_slot(ctx, t: Tensor, slot: int) -> Tensor:
    return _move_slot(t, slot, ctx.metric, "d")


def _move_slot(t: Tensor, slot: int, g: Tensor, to: str) -> Tensor:
    """Contract ``slot`` with the metric (or its inverse) g; the slot keeps
    its position and takes the variance ``to``."""
    if t.valence[slot] == to:
        where = "up" if to == "u" else "down"
        raise SlotError(f"slot {slot} is already {where}")
    letters = _LETTERS[:t.rank]
    fresh = _LETTERS[t.rank]
    spec = f"{letters},{letters[slot]}{fresh}->" + \
        letters[:slot] + fresh + letters[slot + 1:]
    valence = t.valence[:slot] + (to,) + t.valence[slot + 1:]
    return Tensor(t.dim, valence, einsum(spec, t.data, g.data))


def raise_lower(ctx, t: Tensor, slot: int, direction: str) -> Tensor:
    if direction == "raise":
        return raise_slot(ctx, t, slot)
    if direction == "lower":
        return lower_slot(ctx, t, slot)
    raise SlotError(f"direction must be 'raise' or 'lower', got {direction!r}")


def epsilon_form(ctx) -> Tensor:
    """Dense volume form eps_{i_1..i_n} = sign(perm) eps_{0..n-1}."""
    n = ctx.dim
    if n > 7:
        raise DimensionError("dense volume form is limited to dim <= 7")
    s = ctx.volume[0]
    t = zeros(n, ("d",) * n, ctx.ring)
    for perm, sign in signed_permutations(n):
        t.a[perm] = s if sign > 0 else -s
    return t


def is_antisymmetric(t: Tensor, tol: float = 1e-10) -> bool:
    """Check antisymmetry via adjacent-slot swaps (they generate S_rank)."""
    m = max(max_abs(t), 1.0)
    for s in range(t.rank - 1):
        sw = np.swapaxes(t.a, s, s + 1)
        for idx in np.ndindex(t.a.shape):
            if abs(scalar_float(t.a[idx] + sw[idx])) > tol * m:
                return False
    return True


def hodge_star(ctx, alpha: Tensor) -> Tensor:
    """Hodge star of a fully antisymmetric all-down k-form:
    (star alpha)_J = eps_{IJ} alpha^I over increasing I and J, so only the
    complement I of J contributes."""
    n, k = ctx.dim, alpha.rank
    if any(v != "d" for v in alpha.valence):
        raise SlotError("hodge star expects an all-down form")
    if k > n:
        raise SlotError("form degree exceeds dimension")
    if k >= 2 and not is_antisymmetric(alpha):
        raise SlotError("hodge star input is not antisymmetric")
    up = alpha
    for s in range(k):
        up = raise_slot(ctx, up, s)
    vol, comps = ctx.volume[0], {}
    for idx in itertools.combinations(range(n), k):
        rest = tuple(j for j in range(n) if j not in idx)
        x = vol * up.a[idx]
        comps[rest] = x if perm_sign(idx + rest) > 0 else -x
    return AltForm(n, n - k, comps).to_tensor(ctx.ring)


# -- trace / residual helpers ---------------------------------------------------


def max_abs(t: Tensor) -> float:
    """Largest |component| at the base point."""
    if t.rank == 0:
        return abs(scalar_float(t.item()))
    return max(abs(scalar_float(x)) for x in t.a.flat)


def residual(a: Tensor, b: Tensor, scale: float = 1.0) -> float:
    """Relative deviation of two tensors at the base point."""
    diff = max_abs(a - b)
    denom = max(scale, max_abs(a), max_abs(b), 1e-12)
    return diff / denom


def tensors_equal(a: Tensor, b: Tensor) -> bool:
    """Exact componentwise equality (use in exact modes only)."""
    if a.valence != b.valence or a.dim != b.dim:
        return False
    if a.rank == 0:
        return a.item() == b.item()
    return bool(np.all(a.a == b.a))


def is_zero_tensor(t: Tensor) -> bool:
    def zero(x):
        if isinstance(x, Jet):
            return x.is_zero()
        return not x
    if t.rank == 0:
        return zero(t.item())
    return all(zero(x) for x in t.a.flat)


# -- compressed alternating forms ----------------------------------------------


class AltForm:
    """Antisymmetric all-down form stored on strictly increasing index tuples."""

    __slots__ = ("dim", "degree", "comps")

    def __init__(self, dim: int, degree: int, comps: dict):
        self.dim, self.degree, self.comps = dim, degree, comps

    @classmethod
    def zero(cls, dim, degree) -> "AltForm":
        return cls(dim, degree, {})

    @classmethod
    def from_tensor(cls, t: Tensor) -> "AltForm":
        comps = {}
        for idx in itertools.combinations(range(t.dim), t.rank):
            x = t.a[idx]
            if not (x.is_zero() if isinstance(x, Jet) else not x):
                comps[idx] = x
        return cls(t.dim, t.rank, comps)

    def to_tensor(self, ring) -> Tensor:
        t = zeros(self.dim, ("d",) * self.degree, ring)
        for idx, x in self.comps.items():
            for perm, sign in signed_permutations(self.degree):
                t.a[tuple(idx[q] for q in perm)] = x if sign > 0 else -x
        return t

    def get(self, idx, zero):
        """Component at an arbitrary index tuple (with sign)."""
        order = tuple(sorted(idx))
        if len(set(idx)) != len(idx) or order not in self.comps:
            return zero
        rel = tuple(order.index(i) for i in idx)
        return self.comps[order] if perm_sign(rel) > 0 else -self.comps[order]

    def add(self, other: "AltForm") -> "AltForm":
        comps = dict(self.comps)
        for idx, x in other.comps.items():
            comps[idx] = comps[idx] + x if idx in comps else x
        return AltForm(self.dim, self.degree, comps)

    def scale(self, s) -> "AltForm":
        return AltForm(self.dim, self.degree,
                       {i: s * x for i, x in self.comps.items()})

    def alt_mul(self, other: "AltForm") -> "AltForm":
        """Plain antisymmetrization Alt(self (x) other); associative."""
        p, q = self.degree, other.degree
        w = Fraction(math.factorial(p) * math.factorial(q),
                     math.factorial(p + q))
        comps = {}
        for idx in itertools.combinations(range(self.dim), p + q):
            acc = None
            for spos in itertools.combinations(range(p + q), p):
                sset = tuple(idx[i] for i in spos)
                tset = tuple(idx[i] for i in range(p + q) if i not in spos)
                if sset not in self.comps or tset not in other.comps:
                    continue
                rel = sset + tset
                sign = perm_sign(tuple(sorted(range(len(rel)),
                                              key=lambda i: rel[i])))
                term = self.comps[sset] * other.comps[tset]
                if sign < 0:
                    term = -term
                acc = term if acc is None else acc + term
            if acc is not None:
                comps[idx] = w * acc
        return AltForm(self.dim, p + q, comps)

    def wedge(self, other: "AltForm") -> "AltForm":
        """Classical wedge: (p+q)!/(p!q!) times alt_mul."""
        w = Fraction(math.factorial(self.degree + other.degree),
                     math.factorial(self.degree) * math.factorial(other.degree))
        return self.alt_mul(other).scale(w)

    def max_abs(self) -> float:
        if not self.comps:
            return 0.0
        return max(abs(scalar_float(x)) for x in self.comps.values())
