"""Dense tensor arithmetic with abstract-index semantics.

Components are over one scalar kind (Fraction, float, Jet, or Dual).
Slot order is storage order; valence is a tuple of 'u'/'d' flags.

Storage.  A ``Tensor`` holds its components as a numpy object array or
packed in a field (``curvlab.fields`` and ``curvlab.rationals``):

- float jets of one ``JetAlgebra`` and Duals over them in a ``JetField``:
  one float coefficient array with the coefficient axis leading,
  (R, *shape), holding the rows up to the largest ``valid`` (the rest are
  zero), an int array of the per-component ``valid`` orders, zero
  coefficients above them, and a second coefficient/``valid`` pair for the
  im parts of Duals;
- Fractions alone (no ints among them) in a ``RationalField``: integer
  numerators over one positive Python-int denominator, kept canonical
  (gcd of the denominator and every numerator is 1), so each component
  unpacks to the very Fraction the object path gives.  The numerators are
  int64 when every one fits and Python ints in an object array otherwise.

Chart, frame and product metrics, their inverses and frame structure
constants are packed once; the exact ``generalized_delta``,
``epsilon_form``, ``AltForm.to_tensor`` and ``hodge_star`` are packed from
their nonzero entries (``rationals.entries_array``, an object array for
other scalars), and ``tensors_equal`` and ``max_abs`` read a
``RationalField``'s numerators.  Every packed operation returns a packed
result: ``+``, ``-``, negation, ``scale``, ``permuted``, indexing,
derivatives (a gather through the jet algebra's diff tables; zeros for
rationals), ``contract`` and two-operand ``einsum`` steps, with the
``valid`` orders a chain of ``Jet``/``Dual`` operations would give.  None of
them reads ``Tensor.a``: that object array, for every reader that wants
scalar objects, is unpacked on first read and kept, read-only, so a write
can never leave the packed data stale (``Tensor.copy``, ``zeros``,
``Tensor.filled`` and ``Tensor.from_function`` give writable ones).
``Tensor.data`` is whichever storage the tensor has; exact jets, plain
floats and mixed arrays always stay object arrays.

Every contraction goes through ``einsum(spec, *operands)``, which returns
a field when a packed operand went through a packed step and an object
ndarray otherwise.  Three or more operands run pairwise, one einsum per
step of numpy's greedy plan, with array intermediates: numpy >= 2 runs
each pairwise step through ``bmm_einsum``, which needs ``.shape``, and an
object einsum returns a bare scalar for a step that contracts to rank 0.
Each step dispatches on its operands' scalars alone:

- Two operands of float ``Jet``s from one ``JetAlgebra``, or of ``Dual``s
  over them, run a dense kernel on packed fields (an object-array operand
  is packed for the call, and the result unpacked unless an operand came
  packed).  Each output's ``valid`` is the min over the components that
  feed it (what the chain of ``Jet.__mul__``/``__add__`` calls gives).
  Diagonals and letters of one operand that the output drops are summed
  first; the operand with fewer free components is then expanded through
  the jet algebra's shift table (s[x, m] = m - x up to the largest output
  ``valid``, a zero row where m - x is no monomial), and each block of
  output monomials is one ``np.matmul`` against the other operand, with x
  and the summed letters as the inner axis.  A block's expanded operand
  plus its output hold at most ``_BLOCK_FLOATS`` floats.  The coefficients
  above each output's ``valid`` are zeroed.  A Dual product is the runs
  re.re and re.im + im.re.
- One packed float-jet operand sums (or transposes) its coefficients, each
  output's ``valid`` the min over the components summed into it.
- One or two ``RationalField`` operands, or two object arrays of Fractions
  alone (packed for the call, the result unpacked), contract their
  numerators over the product of the denominators (``_rational_einsum``,
  the one kernel a step with a ``RationalField`` operand reaches; an int
  ndarray beside one is a constant, numerators over 1): one ``np.matmul`` on
  int64 from a plan cached per (spec, shapes), ``np.einsum`` for other
  steps.  It runs on int64 when the product of the operands' bounds on
  |numerator| times the product of the extents of the summed letters is
  below 2**63, which bounds every partial sum, and on Python ints
  otherwise; sums, differences and scalings prove their bound the same way
  (``RationalField`` says how the bounds propagate).  Either way the result
  is exact and reduced once.
- A packed float-jet operand and an int ndarray, a constant such as a
  sign vector, contract the coefficients with the constant
  (``_constant_einsum``), each output's ``valid`` the min over the
  components summed into it.
- Any other step (exact jets, plain floats, arrays that mix kinds or mix
  int with Fraction, one object operand) is
  ``np.einsum(..., optimize=True)`` on the objects, so exact results are
  unchanged bit for bit.

Generalized Kronecker deltas are never materialized inside a larger
contraction.  ``gkd_contract`` reads each factor as a double form, its
components at increasing tuples of down and of up indices, multiplies the
factors by the exterior product on both sides (``_wedge``, the one blocked
product the Phi-chain and ``AltForm.alt_mul`` also run) and reads the
contraction off the product's entries; ``generalized_delta`` materializes
the delta as an oracle.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DimensionError, ScalarKindError, SlotError
from .fields import (_LETTERS, JetField, _constant_einsum, _Field,
                     _field_einsum1, _float_jet_einsum, _object_array,
                     _uniform)
from .jets import Dual, Jet, field_value, scalar_float
from .rationals import (RationalField, _numerators, _rational_einsum, _top,
                        entries_array)

# every valence up to rank 8; a longer one is checked slot by slot
_VALENCES = frozenset(v for r in range(9)
                      for v in itertools.product("ud", repeat=r))


def kind_of(x) -> str:
    if isinstance(x, Jet):
        return "jet-exact" if x.exact else "jet-float"
    if isinstance(x, Dual):
        return "dual:" + kind_of(x.re)
    if isinstance(x, bool):
        raise ScalarKindError("bool is not a scalar")
    if isinstance(x, (int, Fraction)):
        return "rational"
    if isinstance(x, float):
        return "float"
    raise ScalarKindError(f"unsupported scalar type {type(x).__name__}")


def _check_same_kind(a: "Tensor", b: "Tensor"):
    ka, kb = a.kind(), b.kind()
    if ka != kb:
        raise ScalarKindError(f"mixed scalar kinds {ka} and {kb}")


class Tensor:
    """Dense tensor at a point (or jet-valued field) with fixed slot valence.

    Components live in an object ndarray or, for float jets and Duals over
    them, in a packed ``JetField``, and for Fractions in a packed
    ``RationalField``; ``data`` is whichever the tensor holds.
    """

    __slots__ = ("dim", "valence", "_a", "field")

    def __init__(self, dim: int, valence, a):
        valence = tuple(valence)
        if valence not in _VALENCES \
                and any(v not in ("u", "d") for v in valence):
            raise SlotError(f"bad valence {valence}")
        if a.shape != (dim,) * len(valence):
            raise SlotError(f"component shape {a.shape} does not match "
                            f"dim {dim}, rank {len(valence)}")
        self.dim, self.valence = dim, valence
        if isinstance(a, _Field):
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
        """The packed field when there is one, else the object array."""
        return self._a if self.field is None else self.field

    def pack(self) -> "Tensor":
        """This tensor with packed storage when its components are float jets
        of one algebra (or Duals over them) or Fractions alone; otherwise the
        tensor itself."""
        if self.field is not None:
            return self
        f = JetField.pack(self._a) or RationalField.pack(self._a)
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
        if isinstance(fr, JetField) and isinstance(fi, JetField) \
                and fr.ic is None and fi.ic is None and fr.alg is fi.alg:
            return cls(re.dim, re.valence,
                       fr._with([*fr._parts(), *fi._parts()]))
        out = np.empty(re.a.shape, dtype=object)
        for idx in np.ndindex(out.shape):
            out[idx] = Dual(re.a[idx], im.a[idx])
        return cls(re.dim, re.valence, out)

    def dual_parts(self) -> tuple["Tensor", "Tensor"]:
        """(re, im) of a tensor of Duals."""
        f = self.field
        if isinstance(f, JetField):
            return tuple(Tensor(self.dim, self.valence, f._with([part]))
                         for part in f._parts())
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
        return self.data[()]

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


def einsum(spec: str, *operands):
    """Contract object arrays and packed fields by ``spec``.

    The result is a field when an operand is one and the step ran packed,
    else an object ndarray (never a bare scalar).  Three or more operands
    run pairwise along numpy's greedy plan, with every intermediate kept as
    an array.  Each step with an explicit ``->`` output goes to one kernel,
    chosen by its operands' kinds:

    - a ``RationalField`` among them: ``_rational_einsum``, the other
      operand a field, an object array of Fractions or an int ndarray (a
      constant), and no other kernel is tried;
    - two operands, neither a ``RationalField``: ``_constant_einsum`` for a
      float-jet field and an int ndarray, else the dense kernel
      ``_float_jet_einsum`` for float jets (or ``Dual`` numbers over them),
      else ``_rational_einsum`` for two object arrays of Fractions (packed
      for the call, the result unpacked);
    - one ``JetField``: ``_field_einsum1`` sums its coefficients.

    Any other step, or one whose kernel declines its operands, is
    ``np.einsum(..., optimize=True)`` on the objects themselves.
    """
    if len(operands) < 3:
        return _einsum_step(spec, *operands)
    ops = list(operands)
    for positions, step in _pairwise_plan(spec, tuple(a.shape for a in ops)):
        args = [ops.pop(i) for i in positions]
        ops.append(_einsum_step(step, *args[::-1]))
    return ops[0]


def _einsum_step(spec: str, *ops):
    if "->" in spec and "." not in spec:
        if RationalField in map(type, ops):
            out = _rational_einsum(spec, *ops)
            if out is not None:
                return out
        elif len(ops) == 2:
            out = _constant_einsum(spec, *ops)
            if out is None:
                out = _float_jet_einsum(spec, *ops)
            if out is None:
                out = _rational_einsum(spec, *ops)
            if out is not None:
                return out if any(isinstance(x, _Field) for x in ops) \
                    else out.unpack()
        elif isinstance(ops[0], JetField):
            return _field_einsum1(spec, ops[0])
    ops = [x.unpack() if isinstance(x, _Field) else x for x in ops]
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
    """Permutation of {0..p-1} with its sign."""

    __slots__ = ("images", "sign")

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images}")
        self.images = images
        self.sign = perm_sign(images)

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


def antisymmetrize(t: Tensor, slots) -> Tensor:
    """Projection onto the antisymmetric part over the listed slots: the
    signed average of t over the k! orderings of ``slots``.  A tensor of
    Fractions is packed once and its k! transposes summed as numerator
    arrays."""
    slots = list(slots)
    if len(set(slots)) != len(slots):
        raise SlotError("repeated slot in antisymmetrization list")
    if len({t.valence[s] for s in slots}) > 1:
        raise SlotError("antisymmetrization over mixed-variance slots")
    k = math.factorial(len(slots))
    terms = []
    for perm, sign in signed_permutations(len(slots)):
        axes = list(range(t.rank))
        for pos, s in enumerate(slots):
            axes[s] = slots[perm[pos]]
        terms.append((axes, sign < 0))
    f = RationalField.of(t.data)
    if f is not None:
        bound, (num,) = _numerators(lambda b: b * k, f)
        acc = np.zeros_like(num)
        for axes, negative in terms:
            if negative:
                acc -= num.transpose(axes)
            else:
                acc += num.transpose(axes)
        return Tensor(t.dim, t.valence,
                      RationalField.reduced(acc, f.den * k, bound))
    acc = None
    for axes, negative in terms:
        arr = t.data.transpose(axes)
        if negative:
            arr = -arr
        acc = arr if acc is None else acc + arr
    return Tensor(t.dim, t.valence, acc * Fraction(1, k))


def generalized_delta(p: int, dim: int, ring) -> Tensor:
    """Materialized generalized Kronecker delta, lower slots then upper
    slots: sign(s) at (I, I o s) for each p-tuple I of distinct indices and
    each permutation s, the C(dim, p) p! p! nonzero entries (none when
    p > dim)."""
    if p < 1:
        raise SlotError("generalized delta needs p >= 1")
    one = ring.one()
    entries = {lower + tuple(lower[u] for u in upper): sign * one
               for subset in itertools.combinations(range(dim), p)
               for lower in itertools.permutations(subset)
               for upper, sign in signed_permutations(p)}
    return Tensor(dim, ("d",) * p + ("u",) * p,
                  entries_array((dim,) * (2 * p), entries, ring.zero()))


# -- double forms and the generalized Kronecker delta ----------------------------


@lru_cache(maxsize=None)
def _keys(dim: int, p: int) -> np.ndarray:
    """The increasing p-tuples of range(dim), one row each, in
    ``itertools.combinations`` order."""
    return np.array(list(itertools.combinations(range(dim), p)),
                    dtype=np.intp).reshape(math.comb(dim, p), p)


@lru_cache(maxsize=None)
def _key_rows(dim: int, p: int) -> dict:
    """Each increasing p-tuple of range(dim) to its row in ``_keys``."""
    return {key: i for i, key in
            enumerate(itertools.combinations(range(dim), p))}


def _double_form(t: Tensor):
    """A tensor of valence (d,)*a + (u,)*b as a double form of type (a, b):
    its data at the increasing a-tuples of down slots (rows) and b-tuples
    of up slots (columns)."""
    a = t.valence.count("d")
    down, up = _keys(t.dim, a), _keys(t.dim, t.rank - a)
    return t.pack().data[tuple(down.T[:, :, None]) + tuple(up.T[:, None, :])]


@lru_cache(maxsize=None)
def _split_index(dim: int, p: int, q: int) -> tuple:
    """(s, t, sign), the exterior product of a p-form and a q-form on
    increasing keys: split m of the (p + q)-key K (row K of ``_keys``)
    takes the p indices at the positions of split m as the p-key s[K, m]
    and the rest as the q-key t[K, m] (rows of ``_keys``), with sign[m],
    the sign of the permutation that sorts the two into K."""
    splits = [(x, tuple(i for i in range(p + q) if i not in x))
              for x in itertools.combinations(range(p + q), p)]
    rows = np.array([[[_key_rows(dim, len(part))[tuple(k[i] for i in part)]
                       for part in x] for x in splits]
                     for k in itertools.combinations(range(dim), p + q)],
                    dtype=np.intp)
    return rows[..., 0], rows[..., 1], np.array([perm_sign(x + y)
                                                 for x, y in splits])


_WEDGE_FLOATS = 1 << 22    # floats both operands of one product block gather


@lru_cache(maxsize=None)
def _splits(dim: int, tx: tuple, ty: tuple, readout=None) -> tuple:
    """(shape, even, xs, ys, sign): the splits (``_split_index``) of the
    exterior product of forms of degrees tx and ty, a degree >= 1 per key
    axis, at each output key: every key, each axis on its own array axis,
    or with ``readout`` = (p, free) the entries delta^(p) reads.  xs and ys
    hold per key axis the key rows of x and of y, broadcasting to ``shape``
    plus a split axis, the ``even`` even splits first; ``sign`` is +1 on
    them and -1 after.  A split on two axes signs as the product of both."""
    tables = [_split_index(dim, p, q) for p, q in zip(tx, ty)]
    m = np.indices([len(g) for _, _, g in tables]).reshape(len(tables), -1)
    sign = math.prod(g[i] for (_, _, g), i in zip(tables, m))
    order = np.argsort(-sign, kind="stable")
    keys = np.ix_(*(np.arange(len(s)) for s, _, _ in tables)) \
        if readout is None else _readout(dim, *readout)[:2]
    xs, ys = (tuple(table[side][k][..., i[order]]
                    for table, k, i in zip(tables, keys, m))
              for side in (0, 1))
    return (np.broadcast_shapes(*(k.shape for k in keys)),
            int((sign > 0).sum()), xs, ys, sign[order])


def _wedge(dim: int, spec: str, x, tx: tuple, y, ty: tuple, readout=None):
    """The exterior product of x and y at the output keys of ``_splits``,
    their entries multiplied by the einsum ``spec``.

    x and y, object arrays or fields, hold entry axes (``spec``'s letters),
    then a key axis (``_keys`` rows) per degree in tx and ty, one for a
    form, a down and an up one for a double form; so does the result.  An
    entry sums sign x[S] y[T] over the splits (S, T) of its keys, with no
    normalizing factor, the signs entering after the products: two rational
    fields, or keys in one row, keep the split axis (terms, then a signed
    sum: two steps); the rest sum the even and the odd splits inside one
    product each (a float-jet kernel sums in its GEMM) and subtract.  The
    keys run in blocks along their first axis, each gathering at most
    ``_WEDGE_FLOATS`` floats or one key row; blocks leave the terms of an
    entry and their grouping as they are (numpy may still run a one-row
    block's float matmul through another BLAS routine)."""
    shape, even, xs, ys, sign = _splits(dim, tx, ty, readout)
    ins, eo = spec.split("->")
    ex, ey = ins.split(",")
    at = "KLM"[:len(shape)]
    step = f"{ex}{at}Z,{ey}{at}Z->{eo}{at}"
    keep = shape[0] == 1 or type(x) is type(y) is RationalField

    def block(bx, by):      # the key axes are x's and y's last axes
        if keep:
            return einsum(f"{eo}{at}Z,Z->{eo}{at}", einsum(
                step + "Z", x[(...,) + bx], y[(...,) + by]), sign)
        plus, minus = (einsum(step, x[(...,) + tuple(t[..., s] for t in bx)],
                              y[(...,) + tuple(t[..., s] for t in by)])
                       for s in (slice(None, even), slice(even, None)))
        return plus - minus

    if shape[0] == 1:
        return block(xs, ys)
    width = sum(math.prod(a.shape[:len(e)]) * (sum(
        len(c) for c, _, _ in a._parts()) if isinstance(a, JetField) else 1)
        for a, e in ((x, ex), (y, ey)))
    n = max(1, _WEDGE_FLOATS // (math.prod(shape[1:]) * len(sign) * width))
    blocks = [block(*(tuple(t if len(t) == 1 else t[a:a + n] for t in ts)
                      for ts in (xs, ys))) for a in range(0, shape[0], n)]
    return blocks[0] if len(blocks) == 1 else _joined(blocks, len(eo))


def _joined(blocks: list, axis: int):
    """Blocks of one product joined along ``axis``: float-jet fields with
    their rows padded by zeros to the most a block holds, anything else as
    object arrays, repacked for rational fields."""
    if all(isinstance(b, JetField) for b in blocks):
        parts = []
        for group in zip(*(b._parts() for b in blocks)):
            rows = max(len(c) for c, _, _ in group)
            v = np.concatenate([v for _, v, _ in group], axis)
            parts.append((np.concatenate([np.pad(c, [(0, rows - len(c))] + [
                (0, 0)] * v.ndim) for c, _, _ in group], axis + 1), v,
                _uniform(v)))
        return blocks[0]._with(parts)
    a = np.concatenate([b.unpack() if isinstance(b, _Field) else b
                        for b in blocks], axis)
    return RationalField.pack(a) if all(type(b) is RationalField
                                        for b in blocks) else a


def _alt_product(dim: int, x, p: int, y, q: int):
    """Alt(x (x) y) of forms of degrees p and q on their increasing keys."""
    return _wedge(dim, ",->", x, (p,), y, (q,)) * Fraction(
        math.factorial(p) * math.factorial(q), math.factorial(p + q))


@lru_cache(maxsize=None)
def _readout(dim: int, p: int, free: tuple) -> tuple:
    """(rows, cols, signs): the product entries (down and up key rows)
    that each output of delta^(p), () or (i,) or (i, j), reads, and their
    signs, arrays of shape (T,) + (dim,)*len(free).

    For each increasing p-key U and positions r, s in it, a free lower
    index i = U[r] drops U[r] from the up key and a free upper index
    j = U[s] drops U[s] from the down key, with sign (-1)^(r+s).  An
    output that reads fewer than T entries repeats its first with sign 0,
    which reads no component it did not read already."""
    reads = {}
    for u in itertools.combinations(range(dim), p):
        for r in range(p) if "d" in free else (None,):
            for s in range(p) if "u" in free else (None,):
                down = u if s is None else u[:s] + u[s + 1:]
                up = u if r is None else u[:r] + u[r + 1:]
                out = tuple(u[x] for x in (r, s) if x is not None)
                reads.setdefault(out, []).append(
                    (_key_rows(dim, len(down))[down],
                     _key_rows(dim, len(up))[up],
                     (-1) ** ((r or 0) + (s or 0))))
    most = max(len(x) for x in reads.values())
    table = np.zeros((most,) + (dim,) * len(free) + (3,), dtype=np.intp)
    for out, x in reads.items():
        table[(slice(None),) + out] = x + [x[0][:2] + (0,)] * (most - len(x))
    return table[..., 0], table[..., 1], table[..., 2]


def gkd_contract(factors, ring, *, free=(), coeff=Fraction(1)) -> Tensor:
    """coeff times delta^(p) contracted with the product of ``factors``,
    as a product of double forms (Kulkarni, Math. Ann. 199 (1972); Labbi,
    Trans. AMS 357 (2005)).

    Each factor has valence (d,)*a + (u,)*b, a and b >= 1, and must be
    antisymmetric in its down slots and in its up slots: it is read at its
    increasing indices only, a double form of type (a, b).  The delta's
    upper indices contract the factors' down slots in factor order and its
    lower indices their up slots.  ``free`` is the result's valence: () for
    the full contraction, ("d",) to leave the delta's first lower index
    free, ("d", "u") to leave its first lower and first upper index free.

    Antisymmetrizing the product on both sides is all the delta does, so
    the result is prod(a! b!) over the factors times a signed sum of
    entries of x_1 ^ ... ^ x_k, the exterior product on both sides
    (``_wedge``): the diagonal (U, U) of each increasing p-key U, or
    (U, U - i) and (U - j, U - i) (``_readout``).  The factors are
    multiplied as two halves, each computed in full at every key pair
    (equal halves once), and the halves at those entries only.
    """
    types = [(f.valence.count("d"), f.valence.count("u")) for f in factors]
    for f, (a, b) in zip(factors, types):
        if f.valence != ("d",) * a + ("u",) * b or not a or not b:
            raise SlotError(f"delta factor valence {f.valence} is not "
                            "down slots then up slots, both present")
    if free not in ((), ("d",), ("d", "u")):
        raise SlotError(f"bad free delta indices {free}")
    p = sum(b for _, b in types) + ("d" in free)
    if sum(a for a, _ in types) + ("u" in free) != p or not factors:
        raise SlotError("delta factors do not match the delta's degree")
    dim = factors[0].dim
    if p > dim:
        return zeros(dim, free, ring)
    rows, cols, signs = _readout(dim, p, free)
    forms = {}
    for f, t in zip(factors, types):
        if (id(f),) not in forms:
            forms[id(f),] = _double_form(f), t

    def product(ids, readout=None):
        if ids in forms:
            x, t = forms[ids]
            return (x if readout is None else x[rows, cols]), t
        h = len(ids) // 2
        (x, tx), (y, ty) = product(ids[:h]), product(ids[h:])
        z = _wedge(dim, ",->", x, tx, y, ty, readout), (tx[0] + ty[0],
                                                       tx[1] + ty[1])
        if readout is None:
            forms[ids] = z
        return z

    o = _LETTERS[:len(free)]
    out = einsum(f"T{o},T{o}->{o}", signs,
                 product(tuple(id(f) for f in factors), (p, free))[0])
    scale = coeff * math.prod(math.factorial(a) * math.factorial(b)
                              for a, b in types)
    return Tensor(dim, free, _object_array(out * scale))


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


def epsilon_form(ctx) -> Tensor:
    """Dense volume form eps_{i_1..i_n} = sign(perm) eps_{0..n-1}."""
    n = ctx.dim
    if n > 7:
        raise DimensionError("dense volume form is limited to dim <= 7")
    return AltForm(n, n, {tuple(range(n)): ctx.volume[0]}).to_tensor(ctx.ring)


def is_antisymmetric(t: Tensor, tol: float = 1e-10) -> bool:
    """Check antisymmetry via adjacent-slot swaps (they generate S_rank):
    exactly in exact rings, and on the base-point values to ``tol`` times
    the largest of them (at least 1) in float rings."""
    swaps = [(s, s + 1) for s in range(t.rank - 1)]
    if not swaps:
        return True
    f, r = t.field, RationalField.of(t.data)
    if r is not None:
        return all(np.array_equal(r.num, -r.num.swapaxes(*w)) for w in swaps)
    if "float" not in t.kind():
        return not any(any((t.a + t.a.swapaxes(*w)).flat) for w in swaps)
    if isinstance(f, JetField):     # base-point values, one row per part
        base = np.stack([c[0] for c, _, _ in f._parts()])
    else:
        vals = [field_value(x) for x in t.a.flat]
        base = np.array([(x.re, x.im) if isinstance(x, Dual) else (x,)
                         for x in vals], dtype=float).T.reshape(
                             (-1,) + t.a.shape)
    m = max(float(np.abs(base).max()), 1.0)
    return not any((np.abs(base + base.swapaxes(i + 1, j + 1)) > tol * m).any()
                   for i, j in swaps)


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
        x = vol * up.data[idx]
        comps[rest] = x if perm_sign(idx + rest) > 0 else -x
    return AltForm(n, n - k, comps).to_tensor(ctx.ring)


# -- trace / residual helpers ---------------------------------------------------


def max_abs(t: Tensor) -> float:
    """Largest |component| at the base point; of a ``RationalField``, the
    largest |numerator| over the denominator."""
    if isinstance(t.field, RationalField):
        return _top(t.field.num) / t.field.den
    if t.rank == 0:
        return abs(scalar_float(t.item()))
    return max(abs(scalar_float(x)) for x in t.a.flat)


def residual(a: Tensor, b: Tensor, scale: float = 1.0) -> float:
    """Relative deviation of two tensors at the base point."""
    diff = max_abs(a - b)
    denom = max(scale, max_abs(a), max_abs(b), 1e-12)
    return diff / denom


def tensors_equal(a: Tensor, b: Tensor) -> bool:
    """Exact componentwise equality (use in exact modes only); canonical
    ``RationalField``s on (den, num), one and an array on num = array * den."""
    if a.valence != b.valence or a.dim != b.dim:
        return False
    if isinstance(b.field, RationalField):
        a, b = b, a
    f = a.field
    if isinstance(f, RationalField):
        if isinstance(b.field, RationalField):
            return f.den == b.field.den and np.array_equal(f.num, b.field.num)
        return np.array_equal(f.num, b.a * f.den)
    if a.rank == 0:
        return a.item() == b.item()
    return bool(np.all(a.a == b.a))


def is_zero_tensor(t: Tensor) -> bool:
    if isinstance(t.field, RationalField):
        return not t.field.num.any()
    return not any(t.a.flat)


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
    def from_rows(cls, dim, degree, data) -> "AltForm":
        """The form whose components at the increasing keys (``_keys``
        rows) are ``data``, an object array or a field, read one key at a
        time; zeros are left out."""
        keys = itertools.combinations(range(dim), degree)
        return cls(dim, degree, {key: x for key, x in zip(
            keys, (data[i] for i in range(math.comb(dim, degree)))) if x})

    def rows(self) -> np.ndarray:
        """The components at the increasing keys, in ``_keys`` order, as an
        object array: 0 where the form holds none."""
        return np.fromiter(
            (self.comps.get(key, 0) for key in
             itertools.combinations(range(self.dim), self.degree)),
            dtype=object, count=math.comb(self.dim, self.degree))

    def to_tensor(self, ring) -> Tensor:
        """The dense form, packed for Fractions: each key's component at
        its signed permutations, ``ring``'s zero elsewhere."""
        return Tensor(self.dim, ("d",) * self.degree, entries_array(
            (self.dim,) * self.degree,
            {tuple(idx[q] for q in perm): x if sign > 0 else -x
             for idx, x in self.comps.items()
             for perm, sign in signed_permutations(self.degree)},
            ring.zero()))

    def get(self, idx, zero):
        """Component at an arbitrary index tuple (with sign)."""
        order = tuple(sorted(idx))
        if len(set(idx)) != len(idx) or order not in self.comps:
            return zero
        rel = tuple(order.index(i) for i in idx)
        return self.comps[order] if perm_sign(rel) > 0 else -self.comps[order]

    def scale(self, s) -> "AltForm":
        return AltForm(self.dim, self.degree,
                       {i: s * x for i, x in self.comps.items()})

    def alt_mul(self, other: "AltForm") -> "AltForm":
        """Plain antisymmetrization Alt(self (x) other); associative."""
        p, q = self.degree, other.degree
        if p + q > self.dim:
            return AltForm.zero(self.dim, p + q)
        return AltForm.from_rows(self.dim, p + q, _alt_product(
            self.dim, self.rows(), p, other.rows(), q))
