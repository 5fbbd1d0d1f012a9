"""Dense tensor arithmetic with abstract-index semantics.

Components are over one scalar kind (Fraction, float, Jet, or Dual).
Slot order is storage order; valence is a tuple of 'u'/'d' flags.

Storage.  A ``Tensor`` holds its components as a numpy object array or
packed in a field (``curvlab.fields``):

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

Chart metrics, exact frame and product metrics, their inverses and exact
structure constants are packed once, and every packed operation returns a
packed result: ``+``, ``-``, negation, ``scale``, ``permuted``, indexing,
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
  numerators in one ``np.einsum`` over the product of the denominators.
  It runs on int64 when the product of the operands' largest |numerator|
  times the product of the extents of the summed letters, computed in
  Python ints, is below 2**63, which bounds every partial sum, and on
  Python ints otherwise; sums, differences and scalings prove their bound
  the same way.  Either way the result is exact and reduced once.
- Any other step (exact jets, plain floats, arrays that mix kinds or mix
  int with Fraction, one object operand) is
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

from .errors import DimensionError, ScalarKindError, SlotError
from .fields import (_LETTERS, JetField, RationalField, _Field, _field_einsum1,
                     _float_jet_einsum, _object_array, _pack, _rational_einsum,
                     _widened)
from .jets import Dual, Jet, field_value, scalar_float


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
        if any(v not in ("u", "d") for v in valence):
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
        f = _pack(self._a)
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
                       JetField(fr.alg, fr.c, fr.v, fi.c, fi.v))
        out = np.empty(re.a.shape, dtype=object)
        for idx in np.ndindex(out.shape):
            out[idx] = Dual(re.a[idx], im.a[idx])
        return cls(re.dim, re.valence, out)

    def dual_parts(self) -> tuple["Tensor", "Tensor"]:
        """(re, im) of a tensor of Duals."""
        f = self.field
        if isinstance(f, JetField):
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
    an array.  A two-operand step with an explicit ``->`` output runs the
    dense kernel ``_float_jet_einsum`` on float jets (or ``Dual`` numbers
    over them) and the numerator contraction ``_rational_einsum`` on
    Fractions; a one-operand step on a field sums its coefficients
    (``_field_einsum1``) or numerators; any other step is
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
    packed = any(isinstance(x, _Field) for x in ops)
    if "->" in spec and "." not in spec:
        if len(ops) == 2:
            out = _float_jet_einsum(spec, *ops)
            if out is None:
                out = _rational_einsum(spec, *ops)
            if out is not None:
                return out if packed else out.unpack()
        elif packed:
            if isinstance(ops[0], JetField):
                return _field_einsum1(spec, ops[0])
            return _rational_einsum(spec, ops[0])
    if packed:
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
    """The (signed) average of t over the k! orderings of ``slots``.  A
    tensor of Fractions is packed once and its k! transposes summed as
    numerator arrays."""
    slots = list(slots)
    if len(set(slots)) != len(slots):
        raise SlotError("repeated slot in (anti)symmetrization list")
    if len({t.valence[s] for s in slots}) > 1:
        raise SlotError("(anti)symmetrization over mixed-variance slots")
    k = math.factorial(len(slots))
    terms = []
    for perm, sign in signed_permutations(len(slots)):
        axes = list(range(t.rank))
        for pos, s in enumerate(slots):
            axes[s] = slots[perm[pos]]
        terms.append((axes, signed and sign < 0))
    f = RationalField.of(t.data)
    if f is not None:
        num, = _widened(max(f.top, 1) * k, f.num)
        acc = np.zeros_like(num)
        for axes, negative in terms:
            if negative:
                acc -= num.transpose(axes)
            else:
                acc += num.transpose(axes)
        return Tensor(t.dim, t.valence, RationalField.reduced(acc, f.den * k))
    acc = None
    for axes, negative in terms:
        arr = t.data.transpose(axes)
        if negative:
            arr = -arr
        acc = arr if acc is None else acc + arr
    return Tensor(t.dim, t.valence, acc * Fraction(1, k))


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
        idm = _pack(idm) or idm
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
        base = np.stack([c[0] for c, _ in f._parts()])
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
    if isinstance(t.field, RationalField):
        return not t.field.num.any()
    return not any(t.a.flat)


# -- compressed alternating forms ----------------------------------------------


@lru_cache(maxsize=None)
def _alt_mul_plan(dim: int, p: int, q: int) -> tuple:
    """(key, splits) for every increasing key of p + q indices: each split
    (s, t, sign) takes the p indices s and the q indices t of the key, both
    increasing, with the sign of the permutation that sorts s + t."""
    splits = []
    for spos in itertools.combinations(range(p + q), p):
        tpos = tuple(i for i in range(p + q) if i not in spos)
        order = spos + tpos
        splits.append((spos, tpos, perm_sign(tuple(sorted(
            range(p + q), key=lambda i: order[i])))))
    return tuple((idx, tuple((tuple(idx[i] for i in s),
                              tuple(idx[i] for i in t), sign)
                             for s, t, sign in splits))
                 for idx in itertools.combinations(range(dim), p + q))


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
        for idx, splits in _alt_mul_plan(self.dim, p, q):
            acc = None
            for sset, tset, sign in splits:
                if sset not in self.comps or tset not in other.comps:
                    continue
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
