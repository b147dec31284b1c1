"""Linear-order constructions: cuts and cut extension, the universal
order on finite binary strings, insertion witnesses, back-and-forth
partial isomorphisms, and a gap classifier for described cuts of Q.

The universal order is the sign-expansion order of the dyadics, 1 as +
and 0 as -.  Strings compare by `_key`, a str whose native order is that
order, and a string s is the sign code int("1" + s, 2), whose simplicity
is that of `surreal`'s code routine `_simplest`.

Finite orders have no gaps (every cut has a left maximum or a right
minimum), so the gap extension of a FinOrder is the identity; gaps only
appear for the described, infinite cuts handled by `classify_cut`.
"""

import bisect
import itertools
import math

from . import hfset, surreal
from .errors import BudgetError, PreconditionError, Record, WitnessError
from .numtower import Frac


class FinOrder:
    """A finite strict linear order; the carrier tuple is ascending."""

    __slots__ = ("carrier",)

    def __init__(self, carrier=()):
        carrier = tuple(carrier)
        if len(set(carrier)) != len(carrier):
            raise PreconditionError("carrier labels must be distinct")
        self.carrier = carrier

    def __len__(self):
        return len(self.carrier)

    def index(self, label):
        return self.carrier.index(label)

    def __repr__(self):
        return f"FinOrder({self.carrier!r})"


def cuts(order):
    """All |carrier|+1 cuts (left, right), in left-set-inclusion order."""
    c = order.carrier
    return [(frozenset(c[:i]), frozenset(c[i:])) for i in range(len(c) + 1)]


class _Cut(tuple):
    """A cut pair (left, right) that hashes once: cuts of cuts nest, and a
    plain tuple would rehash the whole nest on every lookup."""

    def __new__(cls, left, right):
        self = super().__new__(cls, (left, right))
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash


def cut_extend(order):
    """Interleave the order with its cuts: n elements become 2n + 1.

    New elements are labeled by their cut pair (left tuple, right tuple),
    which keeps them distinct from the old labels and from cuts of
    earlier iterations.
    """
    c = order.carrier
    out = []
    for i in range(len(c)):
        out.append(_Cut(c[:i], c[i:]))
        out.append(c[i])
    out.append(_Cut(c, ()))
    return FinOrder(out)


def simplest_dyadic_labels(iterations):
    """Iterate cut_extend from the empty order, labeling by simplicity.

    Every new element is a cut (left, right) of already-labeled elements
    and receives the simplest dyadic strictly between their labels.
    Returns (order, labels); reading the carrier through `labels` gives
    the stage listing of the surreal construction.
    """
    if iterations < 0:
        raise PreconditionError("simplest_dyadic_labels needs a nonnegative count")
    # 2^n - 1 labels, whose cuts hold (2^n - 1)(2^n - 2)/3 references in all
    huge = iterations >= (hfset.MAX_ELEMENTS + 1).bit_length()  # 2^n - 1 > MAX_ELEMENTS
    if huge or (2 ** iterations - 1) * (2 ** iterations - 2) // 3 > hfset.MAX_ELEMENTS:
        raise BudgetError(f"simplest_dyadic_labels would make labels of more than {hfset.MAX_ELEMENTS} references")
    order = FinOrder()
    labels = {}
    for _ in range(iterations):
        order = cut_extend(order)
        for el in order.carrier:
            if el not in labels:
                # the carrier ascends, so a cut lies between its two neighbours
                left, right = el
                labels[el] = surreal.simplest([labels[left[-1]]] if left else [],
                                              [labels[right[0]]] if right else [])
    return order, labels


def _binary(s):
    """s, once it is checked to be a str of 0s and 1s."""
    if not isinstance(s, str) or s.strip("01"):
        raise PreconditionError(f"binary strings use 0 and 1, got {s!r}")
    return s


def _key(s):
    """A str in the universal order: 1 marks the end, 0 sorts below it, 2 above."""
    return s.replace("1", "2") + "1"


def u_cmp(f, g):
    """Three-way comparison in the universal order on binary strings.

    f < g when f extends g with a 0 at position |g|, or g extends f with
    a 1 at position |f|, or the first disagreement has f at 0 and g at 1.
    """
    a, b = _key(_binary(f)), _key(_binary(g))
    return (a > b) - (a < b)


def insert_between(a, b):
    """The shortest string strictly between the sets a and b: the signs
    of the simplest number between the largest of a and the smallest of b.

    Minimality makes the witness unique, so no tie-breaking is needed.
    """
    lo = max(map(_binary, a), key=_key, default=None)
    hi = min(map(_binary, b), key=_key, default=None)
    if lo is not None and hi is not None and _key(hi) <= _key(lo):
        raise PreconditionError(f"need a < b elementwise, got {lo!r} >= {hi!r}")
    # a string s is the sign code int("1" + s, 2); 0 is no bound
    codes = [0 if s is None else int("1" + s, 2) for s in (lo, hi)]
    return bin(surreal._simplest(*codes))[3:]


def binary_strings():
    """All binary strings in (length, lexicographic) order."""
    return (bin(c)[3:] for c in itertools.count(1))


class _Frozen(Record):
    """A Record built from its fields in order, none of which can be assigned after."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes fields {self.__slots__}, got {len(values)} values")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is frozen")


class OrderSide(_Frozen):
    """One side of a back-and-forth construction: OrderSide(name, enum, key, between).

    `enum` yields the carrier in the matching order; `key` maps an element
    to a value whose native < is the side's order; `between(lo, hi)` gives
    an element strictly between the finite sets lo and hi (either may be empty).
    """

    __slots__ = ("name", "enum", "key", "between")


def binstring_side(name="U"):
    return OrderSide(name, binary_strings, _key, insert_between)


def dyadic_side(name="No", lo=None, hi=None):
    """Dyadics in (birthday, value) order, optionally clipped to (lo, hi)."""

    def enum():
        for d in surreal.enumerate_dyadics():
            if (lo is None or lo < d) and (hi is None or d < hi):
                yield d

    def key(d):
        return _key(bin(surreal._code(d))[3:])

    below = [] if lo is None else [lo]
    above = [] if hi is None else [hi]

    def between(left, right):
        return surreal.simplest([*left, *below], [*right, *above])

    return OrderSide(name, enum, key, between)


def back_and_forth(side_a, side_b, rounds):
    """Cantor's zigzag between two dense endless orders.

    Even rounds pull the next enumerated element of side A, odd rounds of
    side B, so after n rounds the map covers the first ceil(n/2) elements
    of A's enumeration and floor(n/2) of B's, and is strictly
    order-preserving in both directions.  Matched keys stay sorted, partners
    at one index, so a target's partner lies between its neighbours' partners.
    """
    sides = (side_a, side_b)
    gens = (side_a.enum(), side_b.enum())
    keys = ([], [])
    elems = ({}, {})
    for r in range(rounds):
        s, t = r % 2, 1 - r % 2
        target = next(gens[s])
        k = sides[s].key(target)
        own, other = keys[s], keys[t]
        i = bisect.bisect_left(own, k)
        if i < len(own) and own[i] == k:
            continue
        lo = [elems[t][other[i - 1]]] if i else []
        hi = [elems[t][other[i]]] if i < len(other) else []
        dst = sides[t]
        try:
            partner = dst.between(lo, hi)
        except Exception as exc:  # surface which side stalled and on what
            raise WitnessError(dst.name, lo, hi, str(exc)) from exc
        pk = dst.key(partner)
        if i and not other[i - 1] < pk or i < len(other) and not pk < other[i]:
            raise WitnessError(dst.name, lo, hi, f"witness {partner!r} not strictly between")
        own.insert(i, k)
        other.insert(i, pk)
        elems[s][k] = target
        elems[t][pk] = partner
    return {elems[0][a]: elems[1][b] for a, b in zip(*keys)}


class AtRationalLeftClosed(_Frozen):
    """The cut ({x <= q}, {x > q}) of Q."""

    __slots__ = ("q",)


class AtRationalRightClosed(_Frozen):
    """The cut ({x < q}, {x >= q}) of Q."""

    __slots__ = ("q",)


class SqrtThreshold(_Frozen):
    """The cut ({q <= 0 or q*q < n}, rest) of Q, for a positive integer n."""

    __slots__ = ("n",)

    def __init__(self, n):
        if n < 1:
            raise PreconditionError("SqrtThreshold needs n >= 1")
        super().__init__(n)


class GapCut(_Frozen):
    __slots__ = ()


class LeftHasMax(_Frozen):
    __slots__ = ("q",)


class RightHasMin(_Frozen):
    __slots__ = ("q",)


def classify_cut(spec):
    """Decide whether a described cut of Q is a gap or has an endpoint.

    SqrtThreshold(n) is a gap exactly when n is not a perfect square: a
    rational root of q*q = n would have to be an integer.
    """
    if isinstance(spec, AtRationalLeftClosed):
        return LeftHasMax(spec.q)
    if isinstance(spec, AtRationalRightClosed):
        return RightHasMin(spec.q)
    if isinstance(spec, SqrtThreshold):
        r = math.isqrt(spec.n)
        if r * r == spec.n:
            return RightHasMin(Frac(r))
        return GapCut()
    raise PreconditionError(f"unknown cut description {spec!r}")
