"""Machine-level integers and reduced fractions, plus their encodings as
hereditarily finite sets.

Arithmetic runs on reduced coprime pairs; the set encodings are a
serialization layer validated by round-trips, not the substrate the
arithmetic computes on.  A nonnegative integer encodes as its von
Neumann natural, a negative one as the ordered pair <0, n>, and a
non-integer fraction m/n as the ordered pair <encode(m), n> with m, n
coprime and n >= 2.
"""

import math
import numbers
import sys

from . import hfset
from .errors import BudgetError, PreconditionError, ZeroDivisorError


class Frac:
    """A rational in lowest terms; the sign lives on the numerator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if den == 0:
            raise ZeroDivisorError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(abs(num), den)
        if g > 1:
            num //= g
            den //= g
        self.num = num
        self.den = den

    def is_integer(self):
        return self.den == 1

    def __hash__(self):
        # Python's numeric hash, so a Frac hashes like the int or Fraction
        # it equals: |num| / den modulo the hash prime, signed like num
        if self.den == 1:
            return hash(self.num)
        try:
            h = hash(hash(abs(self.num)) * pow(self.den, -1, sys.hash_info.modulus))
        except ValueError:  # den is a multiple of the prime: no inverse
            h = sys.hash_info.inf
        h = h if self.num >= 0 else -h
        return -2 if h == -1 else h

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def _cmp(self, other):
        lhs = self.num * other.den
        rhs = other.num * self.den
        return (lhs > rhs) - (lhs < rhs)

    def __lt__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else self._cmp(other) < 0

    def __le__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else self._cmp(other) <= 0

    def __gt__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else self._cmp(other) > 0

    def __ge__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else self._cmp(other) >= 0

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Frac(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return Frac(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Frac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __str__(self):
        try:
            return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"
        except ValueError as exc:  # Python's limit on the digits of an int in decimal
            raise BudgetError("result has too many decimal digits to print") from exc

    def __repr__(self):
        return f"{type(self).__name__}({_named(self)})"


def _named(x):
    """x for a message: as str() prints it, or past Python's digit limit in
    hex, which has none, with a power-of-two denominator as 2^k."""
    try:
        return str(x)
    except BudgetError:
        k = x.den.bit_length() - 1
        return f"{x.num:#x}/" + (f"2^{k}" if x.den == 1 << k else f"{x.den:#x}")


def _coerce(x):
    if isinstance(x, Frac):
        return x
    if isinstance(x, int):
        return Frac(x)
    if isinstance(x, numbers.Rational):
        return Frac(x.numerator, x.denominator)
    return None


def _parse_ratio(text):
    """The unreduced numerator and positive denominator of an 'm' or 'm/n' literal."""
    num_s, slash, den_s = text.strip().partition("/")
    try:
        num = int(num_s)
        den = int(den_s) if slash else 1
    except ValueError as exc:
        raise PreconditionError(f"malformed fraction literal {text!r}") from exc
    if den <= 0:
        raise PreconditionError(f"denominator must be positive, got {den}")
    return num, den


def parse_frac(text):
    return Frac(*_parse_ratio(text))


def z_encode(n):
    """Nonnegative n as a von Neumann natural, negative n as <0, -n>."""
    if n >= 0:
        return hfset.vn_nat(n)
    return hfset.kpair(hfset.empty(), hfset.vn_nat(-n))


def z_decode(x):
    n = hfset.nat_of(x)
    if n is not None:
        return n
    uv = hfset.kpair_split(x)
    if uv is None:
        return None
    zero, mag = uv
    if len(zero) != 0:
        return None
    m = hfset.nat_of(mag)
    if m is None or m == 0:
        return None
    return -m


def q_encode(a):
    """Integers via z_encode; m/n with n >= 2 as the pair <z_encode(m), n>."""
    if a.den == 1:
        return z_encode(a.num)
    return hfset.kpair(z_encode(a.num), hfset.vn_nat(a.den))


def q_decode(x):
    """Invert q_encode; None on malformed sets (e.g. non-coprime pairs)."""
    n = z_decode(x)
    if n is not None:
        return Frac(n)
    uv = hfset.kpair_split(x)
    if uv is None:
        return None
    m = z_decode(uv[0])
    den = hfset.nat_of(uv[1])
    if m is None or den is None or den < 2:
        return None
    if math.gcd(abs(m), den) != 1:
        return None
    return Frac(m, den)
