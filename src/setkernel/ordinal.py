"""Exact ordinal arithmetic below epsilon_0 in Cantor normal form.

A value is a sum w^b1*k1 + ... + w^bn*kn with strictly decreasing ordinal
exponents and positive integer coefficients, stored as a term tuple.  The
transfinite recursions defining +, *, and exponentiation are implemented
by their closed absorption forms; the algebraic laws they must satisfy
are enforced by the test suite rather than assumed.

There is no right subtraction: a + c = b + c does not force a = b (for
example 1 + w = 2 + w), so only the left-sided `lsub` is provided.
"""

import enum
from functools import cmp_to_key

from .errors import BudgetError, PreconditionError

MAX_EXPONENT_DEPTH = 64


class Kind(enum.Enum):
    ZERO = "zero"
    SUCCESSOR = "successor"
    LIMIT = "limit"


class Cofinality(enum.Enum):
    ZERO = "zero"
    ONE = "one"
    OMEGA = "omega"


class CnfOrdinal:
    __slots__ = ("_terms", "_depth", "_hash")

    def __init__(self, terms=()):
        terms = tuple(terms)
        depth = 1
        prev = None
        for exp, coeff in terms:
            if not isinstance(exp, CnfOrdinal):
                raise TypeError("exponents must be CnfOrdinal")
            if not isinstance(coeff, int) or coeff < 1:
                raise PreconditionError(f"coefficients must be positive integers, got {coeff!r}")
            if prev is not None and _cmp_ord(exp, prev) >= 0:
                raise PreconditionError("exponents must be strictly decreasing")
            prev = exp
            depth = max(depth, exp._depth + 1)
        if depth > MAX_EXPONENT_DEPTH:
            raise BudgetError(f"exponent nesting deeper than {MAX_EXPONENT_DEPTH}")
        self._terms = terms
        self._depth = depth
        self._hash = hash(terms)

    @property
    def terms(self):
        return self._terms

    @classmethod
    def from_int(cls, n):
        if n < 0:
            raise PreconditionError("ordinals are nonnegative")
        return cls() if n == 0 else cls(((ZERO, n),))

    def is_zero(self):
        return not self._terms

    def is_finite(self):
        return not self._terms or (len(self._terms) == 1 and self._terms[0][0].is_zero())

    def as_int(self):
        """The natural-number value, or None when the ordinal is infinite."""
        if not self._terms:
            return 0
        if self.is_finite():
            return self._terms[0][1]
        return None

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __lt__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _cmp_ord(self, other) < 0

    def __le__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _cmp_ord(self, other) <= 0

    def __gt__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _cmp_ord(self, other) > 0

    def __ge__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _cmp_ord(self, other) >= 0

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return add(self, other)

    def __radd__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return add(other, self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return mul(self, other)

    def __rmul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return mul(other, self)

    def __pow__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return opow(self, other)

    def __divmod__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return ord_divmod(self, other)

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for exp, coeff in self._terms:
            if exp.is_zero():
                parts.append(str(coeff))
                continue
            if exp == ONE:
                base = "w"
            elif exp.is_finite() or exp == OMEGA:
                base = f"w^{exp}"
            else:
                base = f"w^({exp})"
            parts.append(base if coeff == 1 else f"{base}*{coeff}")
        return "+".join(parts)

    def __repr__(self):
        return f"CnfOrdinal({self})"


def _coerce(x):
    if isinstance(x, CnfOrdinal):
        return x
    if isinstance(x, int):
        return CnfOrdinal.from_int(x)
    return None


def _cmp_ord(a, b):
    if a is b:
        return 0
    for (ea, ka), (eb, kb) in zip(a._terms, b._terms):
        c = _cmp_ord(ea, eb)
        if c:
            return c
        if ka != kb:
            return -1 if ka < kb else 1
    la, lb = len(a._terms), len(b._terms)
    if la == lb:
        return 0
    return -1 if la < lb else 1


ZERO = CnfOrdinal()
ONE = CnfOrdinal.from_int(1)
OMEGA = CnfOrdinal(((ONE, 1),))


def omega_pow(exp, coeff=1):
    """The single-term ordinal w^exp * coeff."""
    exp = _coerce(exp)
    if coeff == 0:
        return ZERO
    return CnfOrdinal(((exp, coeff),))


def cmp(a, b):
    """Three-way comparison: -1, 0, or 1."""
    return _cmp_ord(a, b)


def kind(a):
    if not a._terms:
        return Kind.ZERO
    return Kind.SUCCESSOR if a._terms[-1][0].is_zero() else Kind.LIMIT


def succ(a):
    return add(a, ONE)


def add(a, b):
    """Ordinal sum: a-terms below the leading b-exponent are absorbed."""
    if not b._terms:
        return a
    if not a._terms:
        return b
    eb = b._terms[0][0]
    keep = 0
    for exp, _ in a._terms:
        if _cmp_ord(exp, eb) > 0:
            keep += 1
        else:
            break
    merged = a._terms[:keep]
    if keep < len(a._terms) and a._terms[keep][0] == eb:
        head = (eb, a._terms[keep][1] + b._terms[0][1])
        return CnfOrdinal(merged + (head,) + b._terms[1:])
    return CnfOrdinal(merged + b._terms)


def lsub(a, b):
    """The unique g with a + g = b; requires a <= b."""
    ta, tb = a._terms, b._terms
    i = 0
    while i < len(ta) and i < len(tb):
        (ea, ka), (eb, kb) = ta[i], tb[i]
        c = _cmp_ord(ea, eb)
        if c > 0 or (c == 0 and ka > kb):
            raise PreconditionError(f"lsub needs a <= b, got {a} > {b}")
        if c < 0:
            return CnfOrdinal(tb[i:])
        if ka < kb:
            return CnfOrdinal(((eb, kb - ka),) + tb[i + 1:])
        i += 1
    if i < len(ta):
        raise PreconditionError(f"lsub needs a <= b, got {a} > {b}")
    return CnfOrdinal(tb[i:])


def mul(a, b):
    """Ordinal product, distributed over the right factor's terms."""
    if not a._terms or not b._terms:
        return ZERO
    ea = a._terms[0][0]
    ka = a._terms[0][1]
    acc = ZERO
    for f, m in b._terms:
        if f.is_zero():
            # a * m: the leading coefficient scales, lower terms survive once
            part = CnfOrdinal(((ea, ka * m),) + a._terms[1:])
        else:
            part = omega_pow(add(ea, f), m)
        acc = add(acc, part)
    return acc


def ord_divmod(b, a):
    """Division with remainder: b = a*q + r with r < a; the pair is unique."""
    if not a._terms:
        raise ZeroDivisionError("ordinal division by zero")
    ea, ka = a._terms[0]
    q_terms = []
    r = b
    while r._terms:
        f, m = r._terms[0]
        c = _cmp_ord(f, ea)
        if c < 0:
            break
        if c > 0:
            g = lsub(ea, f)  # ea + g = f, so a * (w^g * m) equals w^f * m
            q_terms.append((g, m))
            r = CnfOrdinal(r._terms[1:])
            continue
        # leading exponents agree: finite quotient digit
        digit = m // ka
        if digit and ka * digit == m and _cmp_ord(CnfOrdinal(a._terms[1:]), CnfOrdinal(r._terms[1:])) > 0:
            digit -= 1
        if digit == 0:
            break
        q_terms.append((ZERO, digit))
        r = lsub(mul(a, CnfOrdinal.from_int(digit)), r)
        break
    q = CnfOrdinal(q_terms)
    return q, r


def opow(a, b):
    """Ordinal exponentiation a^b (0^0 = 1, 0^b = 0 for b > 0)."""
    if not b._terms:
        return ONE
    if not a._terms:
        return ZERO
    if a == ONE:
        return ONE
    n = b._terms[-1][1] if b._terms[-1][0].is_zero() else 0
    limit_terms = b._terms[:-1] if n else b._terms
    ea = a._terms[0][0]
    if ea.is_zero():
        # finite base: w absorbs one exponent level on each limit term
        k = a._terms[0][1]
        acc = ONE
        for f, m in limit_terms:
            fin = f.as_int()
            shifted = CnfOrdinal.from_int(fin - 1) if fin is not None else f
            acc = mul(acc, omega_pow(omega_pow(shifted, m)))
        return mul(acc, CnfOrdinal.from_int(k ** n))
    acc = ONE
    if limit_terms:
        lam = CnfOrdinal(limit_terms)
        acc = omega_pow(mul(ea, lam))
    return mul(acc, _opow_nat(a, n))


def _opow_nat(a, n):
    acc = ONE
    base = a
    while n:
        if n & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        n >>= 1
    return acc


def hessenberg(a, b):
    """Natural (commutative) sum: coefficients add exponent-wise."""
    coeffs = {}
    for exp, k in a._terms:
        coeffs[exp] = coeffs.get(exp, 0) + k
    for exp, k in b._terms:
        coeffs[exp] = coeffs.get(exp, 0) + k
    exps = sorted(coeffs, key=cmp_to_key(_cmp_ord), reverse=True)
    return CnfOrdinal(tuple((e, coeffs[e]) for e in exps))


def is_indecomposable(a):
    """True when a is a single term w^b (coefficient 1)."""
    return len(a._terms) == 1 and a._terms[0][1] == 1


def cofinality_class(a):
    k = kind(a)
    if k is Kind.ZERO:
        return Cofinality.ZERO
    if k is Kind.SUCCESSOR:
        return Cofinality.ONE
    return Cofinality.OMEGA
