"""Finite-birthday surreal numbers, i.e. the dyadic rationals.

A Dyadic is a `numtower.Frac` whose denominator is 2**k, kept as
num / 2**k in lowest terms (num odd whenever k > 0).  Equality, hashing,
order and text are Frac's, so a Dyadic equals the Frac of the same
value.  Exact rational arithmetic serves as the independent oracle:
Frac's +, - and *, where Dyadic specialises + and * to shifts so that
sums, differences and products of Dyadics stay Dyadic.  `conway_add`,
`conway_neg`, and `conway_mul` evaluate the recursive option formulas
instead and must agree with it.

The recursions run over canonical (single-element) option sets rather
than full cut sides.  That uniformity is standard Conway theory; it is
not proved here but the agreement with exact arithmetic is enforced by
the test suite.

Inside the Conway core each value is a sign code: one int holding a
leading 1 and then the sign expansion, + as 1 and - as 0, so 0 is 0b1,
1/2 (+-) is 0b110 and -3/4 (-+-) is 0b1010.  Options, order and
simplicity are then a few bit operations (Gonshor, An Introduction to
the Theory of Surreal Numbers, ch. 3): an option drops the last + or -
and every sign after it, order is int order once a 1 is appended and
the shorter code padded with 0s, and the simplest value between two
codes is their longest common prefix, or a shift of the longer code
when one is a prefix of the other.  A Dyadic computes its code from
(num, k) on first use and keeps it; a result is built straight from its
code.  `simplest` and `options` run on codes as well; only `birthday`
works in closed form on (num, k), so `birthday(Dyadic(2**100))` builds
no code.

An option of a code is a prefix of it, so every subproblem of a Conway
sum or product of a and b is a pair of prefixes of a and b.  `_walk`
lists the pairs a memo table lacks, shortest first and with no
recursion, so a table holds every shortening of its keys and a scan from
the longest prefixes down stops at the first key it holds.  A zero factor
makes a product 0 at once, with no entry.  `_mul_core` sums each option
value as (xo*y - xo*yo) + x*yo, the order of its two Conway adds that
leaves the fewest entries in the add table.

A sign word is a plain str over "+-": `to_signs` reads it off the code
and `from_signs` builds the code from it.  `born_by` and
`enumerate_dyadics` are closed forms over codes: the codes born by day
n, padded as `_lt` pads them, are one run of consecutive ints, and the
codes in int order come by birthday and then by value.  Every int-size
bound is checked before the int is built: `_code` refuses a code of
more than MAX_INT_BITS signs from the birthday alone, `from_signs` from
the word's length, and a Dyadic a denominator 2**k with k above
MAX_INT_BITS.
"""

import itertools

from . import hfset
from .errors import MAX_INT_BITS, BudgetError, PreconditionError
from .numtower import Frac, _named, _parse_ratio


class Dyadic(Frac):
    """num / 2**k; den == 1 << k.  +, - and * of two Dyadics give a Dyadic,
    with any other operand they give a Frac."""

    __slots__ = ("k", "_code")

    def __init__(self, num, k=0):
        if k < 0:
            raise PreconditionError("log-denominator must be nonnegative")
        if not num & 1 and k:  # strip min(k, trailing zeros) in one shift; 0 is 0/1
            shift = min(k, (num & -num).bit_length() - 1) if num else k
            num >>= shift
            k -= shift
        if k > MAX_INT_BITS:
            raise BudgetError(f"a denominator 2^k with k above {MAX_INT_BITS}")
        self.den = 1 << k
        self.num = int(num)  # a bool prints as its value
        self.k = k
        self._code = None

    def __add__(self, other):
        if not isinstance(other, Dyadic):
            return Frac.__add__(self, other)
        k = max(self.k, other.k)
        return Dyadic((self.num << (k - self.k)) + (other.num << (k - other.k)), k)

    def __mul__(self, other):
        if not isinstance(other, Dyadic):
            return Frac.__mul__(self, other)
        return Dyadic(self.num * other.num, self.k + other.k)

    def __neg__(self):
        return Dyadic(-self.num, self.k)


def parse_dyadic(text):
    """Parse 'm', 'm/2^k literals' such as '3/4' or '-5/8'."""
    num, den = _parse_ratio(text)
    if den & (den - 1):
        raise PreconditionError(f"denominator {den} is not a power of two")
    return Dyadic(num, den.bit_length() - 1)


def birthday(x):
    """The cut-extension stage at which x first appears."""
    if x.k == 0:
        return abs(x.num)
    return (abs(x.num) >> x.k) + 1 + x.k


def simplest(a, b):
    """The unique earliest-born dyadic strictly between the sets a and b."""
    lo = max(a, default=None)
    hi = min(b, default=None)
    if lo is not None and hi is not None and not lo < hi:
        raise PreconditionError(f"option sets must satisfy max(a) < min(b), got {_named(lo)} >= {_named(hi)}")
    return _from_code(_simplest(0 if lo is None else _code(lo), 0 if hi is None else _code(hi)))


def options(x):
    """Canonical minimal options; simplest(*options(x)) == x."""
    return tuple(frozenset([_from_code(o)] if o else ()) for o in _options(_code(x)))


_NEG_CACHE = {}
_ADD_CACHE = {}
_MUL_CACHE = {}


def clear_caches():
    _NEG_CACHE.clear()
    _ADD_CACHE.clear()
    _MUL_CACHE.clear()


def cache_sizes():
    return len(_ADD_CACHE), len(_MUL_CACHE), len(_NEG_CACHE)


def _code(x):
    """The sign code of a Dyadic, from (num, k) in closed form on first use."""
    c = x._code
    if c is None:
        # the birthday is the code's length: refuse it first
        if birthday(x) > MAX_INT_BITS:
            raise BudgetError(f"a sign expansion of more than {MAX_INT_BITS} signs")
        # an integer m is m pluses; a + f with 0 < f < 1 is a + 1 pluses, a
        # minus, then f's binary digits after the first as signs, less the last
        m, k = abs(x.num), x.k
        c = (((1 << ((m >> k) + 2)) - 1) << k) | ((m >> 1) & ((1 << (k - 1)) - 1)) if k else (2 << m) - 1
        if x.num < 0:
            c ^= (1 << (c.bit_length() - 1)) - 1
        x._code = c
    return c


_new = object.__new__


def _from_code(c):
    """The Dyadic with sign code c, built without normalising."""
    n = c.bit_length() - 1
    h = 1 << n
    neg = not c & (h >> 1)
    p = c ^ (h - 1) if neg else c  # the code of |x|
    # |x|'s last minus lies z signs from the end: z is k, and the signs
    # after that minus are num's low bits
    z = (~p & (h - 1)).bit_length()
    num = ((n - z - 1) << z) | (((p << 1) | 1) & ((1 << z) - 1)) if z else n
    x = _new(Dyadic)
    x.num = -num if neg else num
    x.den = 1 << z
    x.k = z
    x._code = c
    return x


def _lt(a, b):
    """Value order on two sign codes: append a 1, pad the shorter with 0s."""
    a = (a << 1) | 1
    b = (b << 1) | 1
    n = a.bit_length() - b.bit_length()
    return a < b << n if n >= 0 else a << -n < b


def _simplest(lo, hi):
    """The earliest-born code strictly between codes lo < hi; 0 is unbounded."""
    if not lo:
        if not hi:
            return 1
        lo = 1 << (hi.bit_length() + 1)  # two minuses longer than hi: below it
    elif not hi:
        hi = (4 << lo.bit_length()) - 1  # two pluses longer than lo: above it
    n = lo.bit_length() - hi.bit_length()
    if n > 0:
        t = lo >> n
        if t == hi:  # lo is hi, a minus, then r: stop before the first minus of r
            u = ~lo & ((1 << (n - 1)) - 1)
            return lo >> u.bit_length() if u else (lo << 1) | 1
        return t >> (t ^ hi).bit_length()  # the longest common prefix
    t = hi >> -n
    if t == lo:  # hi is lo, a plus, then r: stop before the first plus of r
        r = hi & ((1 << (-n - 1)) - 1)
        return hi >> r.bit_length() if r else hi << 1
    return t >> (t ^ lo).bit_length()


def _options(c):
    """The left and right option codes of code c, 0 where there is none: c
    less its last + or - and every sign after it.  Each option is a prefix
    of c, and one of the two is c >> 1."""
    return c >> (c & -c).bit_length(), c >> ((c + 1) & ~c).bit_length()


def _neg_core(c):
    cache = _NEG_CACHE
    out = cache.get(c)
    if out is not None:
        return out
    # the one-code form of _walk: the table holds c >> 1 with each key
    # c > 1, so it lacks the longest prefixes of c; fill them shortest first
    missing = []
    while c and c not in cache:
        missing.append(c)
        c >>= 1
    for c in reversed(missing):
        left, right = _options(c)
        cache[c] = _simplest(right and cache[right], left and cache[left])
    return cache[missing[0]]


def _walk(cache, a, b):
    """Yield the (min, max) keys of the prefix pairs of codes a and b that
    cache lacks, each after every key made of shorter prefixes.  A table so
    filled holds the shortenings (x >> 1, y) and (x, y >> 1) of each key
    that have no 0 code: in the row of a prefix x it lacks the y longer
    than the first one it holds, and no more of them than for the longer x."""
    ys = [b]  # b's prefixes, longest first, grown on demand and shared by all rows
    rows = []
    n = b.bit_length()  # the number of prefixes of b
    while a:
        row = []
        for j in range(n):
            if j == len(ys):
                ys.append(ys[-1] >> 1)
            y = ys[j]
            key = (a, y) if a <= y else (y, a)
            if key in cache:
                break
            row.append(key)
        if not row:
            break
        rows.append(row)
        n = len(row)
        a >>= 1
    for row in reversed(rows):
        yield from reversed(row)


def _add_core(a, b):
    cache = _ADD_CACHE
    root = (a, b) if a <= b else (b, a)
    out = cache.get(root)
    if out is not None:
        return out
    for key in _walk(cache, a, b):
        x, y = key
        xl, xr = _options(x)
        yl, yr = _options(y)
        # the left options x^L + y and x + y^L, the right options x^R + y
        # and x + y^R; x^L < x <= y, so (x^L, y) is a key as it stands
        lx = xl and cache[xl, y]
        rx = xr and cache[xr, y]
        ly = yl and cache[(x, yl) if x <= yl else (yl, x)]
        ry = yr and cache[(x, yr) if x <= yr else (yr, x)]
        if lx and ly and _lt(lx, ly):
            lx = ly
        if rx and ry and _lt(ry, rx):
            rx = ry
        cache[key] = _simplest(lx or ly, rx or ry)
    return cache[root]


def _mul_core(a, b):
    cache = _MUL_CACHE
    root = (a, b) if a <= b else (b, a)
    out = cache.get(root)
    if out is not None:
        return out
    if a == 1 or b == 1:  # a zero factor has no options: the product is 0
        return 1
    for key in _walk(cache, a, b):
        x, y = key
        xl, xr = _options(x)
        yl, yr = _options(y)
        # x^L y^L and x^R y^R give left options, x^L y^R and x^R y^L right
        # ones, each as (xo*y - xo*yo) + x*yo from the three products below.
        # The key is (min, max), so x is the shorter code: xo*y - xo*yo is the cheap pair.
        parts = [
            [(p, q) if p <= q else (q, p) for p, q in ((xo, y), (xo, yo), (x, yo))] if xo and yo else ()
            for xo, yo in ((xl, yl), (xr, yr), (xl, yr), (xr, yl))
        ]
        v = [_add_core(_add_core(cache[t[0]], _neg_core(cache[t[1]])), cache[t[2]]) if t else 0 for t in parts]
        lo = v[1] if v[0] and v[1] and _lt(v[0], v[1]) else v[0] or v[1]
        hi = v[3] if v[2] and v[3] and _lt(v[3], v[2]) else v[2] or v[3]
        cache[key] = _simplest(lo, hi)
    return cache[root]


def conway_neg(x):
    """-x by the recursion -x = (-right options) |v (-left options)."""
    return _from_code(_neg_core(x._code or _code(x)))


def conway_add(x, y):
    """x + y by the recursion over shifted options of either summand."""
    return _from_code(_add_core(x._code or _code(x), y._code or _code(y)))


def conway_mul(x, y):
    """x * y by the four-part option formula; the option products and the
    sums and negations combining them all run through the recursions."""
    return _from_code(_mul_core(x._code or _code(x), y._code or _code(y)))


def to_signs(x):
    """x's sign word over "+-", from its code, whose length `_code` bounds."""
    return bin(_code(x))[3:].replace("1", "+").replace("0", "-")


def from_signs(s):
    """The Dyadic with sign word s, over "+-" or "01" (+ as 1)."""
    if not isinstance(s, str):
        raise PreconditionError(f"sign expansion must be a str over +/- or 0/1, got {type(s).__name__}")
    if len(s) > MAX_INT_BITS:
        raise BudgetError(f"a sign expansion of more than {MAX_INT_BITS} signs")
    bits = s.replace("+", "1").replace("-", "0")
    if bits.strip("01"):
        raise PreconditionError(f"sign expansion must be over +/- or 0/1, got {s!r}")
    return _from_code(int("1" + bits, 2))


def born_by(n):
    """All dyadics of birthday <= n, ascending; there are 2**(n+1) - 1."""
    if n < 0:
        return []
    if n + 1 >= (hfset.MAX_ELEMENTS + 1).bit_length():  # 2**(n+1) - 1 > MAX_ELEMENTS
        raise BudgetError(f"born_by would list more than {hfset.MAX_ELEMENTS} dyadics")
    # padded to n + 2 bits as _lt pads them, the codes of up to n + 1 bits
    # are the ints strictly between 2**(n+1) and 2**(n+2), in value order;
    # p's code is p less its trailing 0s and the 1 above them
    top = 1 << (n + 1)
    return [_from_code(p >> (p & -p).bit_length()) for p in range(top + 1, top << 1)]


def enumerate_dyadics():
    """All dyadics in (birthday, value) order: 0, -1, 1, -2, -1/2, ...

    Codes in int order come by length, which is the birthday, and within
    one length int order is value order."""
    return map(_from_code, itertools.count(1))
