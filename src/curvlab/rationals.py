"""Packed exact rationals and the contraction kernel that runs on them.

``RationalField`` holds Fractions as integer numerators over one common
denominator; ``_rational_einsum`` contracts such fields (and int constants
beside them) on their numerators.  The ``curvlab.tensors`` docstring
describes how ``einsum`` steps reach this kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fields import _Field, _object_op

_INT64_BOUND = 1 << 63


class RationalField(_Field):
    """Fractions packed as integer numerators over one common denominator.

    ``num`` holds the numerators and ``den`` is a positive Python int.  The
    pair is canonical, gcd(den, every numerator) = 1, so each component
    unpacks to the very Fraction the object path gives.  ``num`` is int64
    when every numerator fits, else an object array of Python ints.
    ``bound`` (a Python int, at least 1) bounds every |numerator|; each
    operation propagates it instead of rescanning: terms times the product
    of the bounds for a contraction, bx fx + by fy for a sum rescaled by fx
    and fy, the bound times |p| for a scaling by p/q, the same bound for
    gathers, transposes and negation, divided by g when a common factor g
    is reduced away.  An operation runs on int64 when its bound is below
    2**63; when the propagated bounds cannot prove that, the operands' exact
    maxima decide.  Either way it is exact: fraction-free arithmetic over
    a common denominator (Bareiss, Math. Comp. 22 (1968)), as is the metric
    inverse ``geometry._fraction_free_inverse``.  Operations never write
    into an operand's arrays.
    """

    __slots__ = ("num", "den", "bound")

    def __init__(self, num: np.ndarray, den: int, bound: int):
        self.num, self.den, self.bound = num, den, bound

    @classmethod
    def reduced(cls, num: np.ndarray, den: int, bound: int) -> "RationalField":
        """The canonical field of the integer array num over den > 0, every
        |numerator| at most bound.  A rank-0 num may come as the scalar
        numpy arithmetic on a 0-d array gives."""
        num = np.asarray(num)
        if den != 1:
            common = int(np.gcd.reduce(num, axis=None))
            g = math.gcd(den, common)
            if g > 1:
                den //= g
                if common:      # all-zero numerators only reset den to 1
                    num = np.asarray(num // g)
                    bound //= g
        if num.dtype == object:
            if bound >= _INT64_BOUND:
                bound = _top(num)
            if bound < _INT64_BOUND:
                num = num.astype(np.int64)
        return cls(num, den, max(bound, 1))

    @property
    def shape(self) -> tuple:
        return self.num.shape

    def _tight(self) -> int:
        """``bound`` lowered to the largest |numerator|, at least 1."""
        self.bound = max(_top(self.num), 1)
        return self.bound

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
        return cls._of_fractions(a.shape, flat)

    @classmethod
    def _of_fractions(cls, shape: tuple, fracs: list, at=None):
        """The field of ``fracs`` over the lcm of their denominators: laid
        out in ``shape`` in order, or, with ``at``, the first len(at) of
        them placed at its indices and zeros elsewhere."""
        den = math.lcm(*(x.denominator for x in fracs))
        nums = [x.numerator * (den // x.denominator) for x in fracs]
        top = max(map(abs, nums), default=0)
        dtype = np.int64 if top < _INT64_BOUND else object
        if at is None:
            num = np.empty(len(nums), dtype)
            num[:] = nums
            num = num.reshape(shape)
        else:
            num = np.zeros(shape, dtype)
            for idx, x in zip(at, nums):
                num[idx] = x
        return cls(num, den, max(top, 1))

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
        component gives it as a Fraction.  A gather over the denominator 1
        of int64 numerators is canonical as it stands."""
        num = self.num[idx]
        if type(num) is not np.ndarray:
            return Fraction(int(num), self.den)
        if self.den == 1 and num.dtype == np.int64:
            return RationalField(num, 1, self.bound)
        return RationalField.reduced(num, self.den, self.bound)

    # -- arithmetic ----------------------------------------------------------

    def transpose(self, *axes) -> "RationalField":
        return RationalField(self.num.transpose(*axes), self.den, self.bound)

    def __neg__(self) -> "RationalField":
        return RationalField(-self.num, self.den, self.bound)

    def _elementwise(self, other, op, flip: bool):
        """op(self, other), or op(other, self) when flipped, on the numerators
        over a shared denominator, else rescaled to the lcm of the two.  An
        operand that does not pack takes the object path."""
        o = RationalField.of(other)
        if o is None or o.shape != self.shape:
            return _object_op(self, other, op, flip)
        x, y = (o, self) if flip else (self, o)
        den = x.den if x.den == y.den else math.lcm(x.den, y.den)
        fx, fy = den // x.den, den // y.den
        bound, (nx, ny) = _numerators(lambda bx, by: bx * fx + by * fy, x, y)
        nx, ny = nx * fx if fx > 1 else nx, ny * fy if fy > 1 else ny
        return RationalField.reduced(op(nx, ny), den, bound)

    def __mul__(self, s):
        """The field times an int or a Fraction; any other scalar takes the
        object path.  Times zero it is the zero field, int64 zeros over 1."""
        if type(s) is int or type(s) is Fraction:
            if not s:
                return RationalField(np.zeros(self.shape, np.int64), 1, 1)
            p, q = s.as_integer_ratio()
            bound, (num,) = _numerators(lambda b: b * abs(p), self)
            return RationalField.reduced(num * p, self.den * q, bound)
        return self.unpack() * s

    def derivatives(self, variables) -> "RationalField":
        """D_a of every component in a new leading slot: zero, as the
        derivative of a constant is."""
        return RationalField(np.zeros((len(variables),) + self.shape,
                                      dtype=np.int64), 1, 1)


def entries_array(shape: tuple, entries: dict, zero=None):
    """The array of ``shape`` holding ``entries`` ({index: value}, numpy
    indices) and ``zero`` at every other place, as the ``RationalField``
    ``pack`` gives for it, built without the object array, when every value
    (and ``zero``, where some place is left to it) is a Fraction; else as
    an object array."""
    values = list(entries.values())
    if len(values) < math.prod(shape):
        values.append(zero)
    if all(type(x) is Fraction for x in values):
        return RationalField._of_fractions(shape, values, entries)
    a = np.full(shape, zero, dtype=object)
    for idx, x in entries.items():
        a[idx] = x
    return a


def _top(num: np.ndarray) -> int:
    """The largest |entry| of an integer array, a Python int."""
    if num.dtype == object:
        return max(map(abs, num.ravel().tolist()), default=0)
    return int(np.abs(num).max(initial=0))


def _numerators(bound_of, *fields) -> tuple:
    """(bound, numerator arrays): ``bound_of`` of the fields' bounds, or of
    their exact tops when that is not below 2**63; the arrays are Python
    ints when neither proves int64 exact."""
    bound = bound_of(*[f.bound for f in fields])
    if bound >= _INT64_BOUND:
        bound = bound_of(*[f._tight() for f in fields])
        if bound >= _INT64_BOUND:
            return bound, [f.num.astype(object) for f in fields]
    return bound, [f.num for f in fields]


class _IntPlan(NamedTuple):
    terms: int              # the terms summed into each output
    axes: tuple | None      # the axes of a one-operand pure transpose
    gemm: tuple | None      # see _int_contract


@lru_cache(maxsize=None)
def _int_plan(spec: str, shapes: tuple) -> _IntPlan:
    """The plan of a one- or two-operand ``spec`` on ``shapes``; a letter
    repeated in one operand or summed in only one rules out ``gemm``.  A
    transpose that keeps every axis in place is None in ``gemm``."""
    ins, out = spec.split("->")
    subs, extents = ins.split(","), {}
    plain = all(len(set(sub)) == len(sub) for sub in subs) \
        and set(out) <= set(ins)
    for sub, shape in zip(subs, shapes):
        for x, n in zip(sub, shape):
            plain &= extents.setdefault(x, n) == n
    terms = math.prod(n for x, n in extents.items() if x not in out)
    if len(subs) == 1:
        axes = tuple(ins.index(x) for x in out) \
            if plain and len(out) == len(ins) else None
        return _IntPlan(terms, axes, None)
    a, b = subs
    if not plain or any((x in a) != (x in b) for x in ins if x not in out):
        return _IntPlan(terms, None, None)
    batch = [x for x in out if x in a and x in b]
    left = [x for x in out if x not in b]
    right = [x for x in out if x not in a]
    summed = [x for x in a if x not in out]
    size = lambda xs: math.prod(extents[x] for x in xs)
    order = batch + left + right

    def moved(axes):
        return None if axes == tuple(range(len(axes))) else axes

    gemm = (moved(tuple(a.index(x) for x in batch + left + summed)),
            (size(batch), size(left), size(summed)),
            moved(tuple(b.index(x) for x in batch + summed + right)),
            (size(batch), size(summed), size(right)),
            tuple(extents[x] for x in order),
            moved(tuple(order.index(x) for x in out)))
    return _IntPlan(terms, None, gemm)


def _int_contract(spec: str, plan: _IntPlan, nums: list) -> np.ndarray:
    """``spec`` on numerator arrays: on int64 with a ``gemm`` (axes_a,
    shape_a, axes_b, shape_b, shape, axes), one ``np.matmul`` of the
    operands transposed and reshaped to (batch, free, summed) and (batch,
    summed, free), or their product when nothing is summed, reshaped and
    transposed to the output; else ``np.einsum``."""
    if plan.gemm is None or nums[0].dtype != np.int64 \
            or nums[1].dtype != np.int64:
        return np.asarray(np.einsum(spec, *nums),
                          dtype=np.result_type(*nums))
    axes_a, shape_a, axes_b, shape_b, shape, axes = plan.gemm
    x, y = nums
    if axes_a is not None:
        x = x.transpose(axes_a)
    if axes_b is not None:
        y = y.transpose(axes_b)
    x, y = x.reshape(shape_a), y.reshape(shape_b)
    prod = (x * y if shape_a[2] == 1 else np.matmul(x, y)).reshape(shape)
    return prod if axes is None else prod.transpose(axes)


def _rational_einsum(spec: str, *ops):
    """A one- or two-operand ``einsum`` step on Fractions as a
    ``RationalField``, or None unless every operand is one, an object array
    of Fractions alone or an int ndarray, a constant such as a sign vector,
    and at least one is not such a constant.

    The numerators are contracted and the denominators multiply; a
    constant is numerators over 1.  The number of terms times the
    operands' bounds bounds every partial sum, so the run is on int64 when
    that is below 2**63 and on Python ints otherwise.  A one-operand step
    that only permutes is a transpose.
    """
    fields, constants = [], 0
    for x in ops:
        if type(x) is not RationalField:
            if not isinstance(x, np.ndarray):
                return None
            if x.dtype.kind in "iu":
                constants += 1
                top = max(_top(x), 1)
                x = RationalField(x.astype(
                    np.int64 if top < _INT64_BOUND else object), 1, top)
            else:
                x = RationalField.pack(x)
                if x is None:
                    return None
        fields.append(x)
    if constants == len(ops):
        return None
    plan = _int_plan(spec, tuple([f.num.shape for f in fields]))
    if plan.axes is not None:
        return fields[0].transpose(plan.axes)
    terms = plan.terms
    bound, nums = _numerators(lambda *b: terms * math.prod(b), *fields)
    return RationalField.reduced(_int_contract(spec, plan, nums),
                                 math.prod([f.den for f in fields]), bound)
