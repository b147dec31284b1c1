"""Exact ordinal arithmetic below epsilon_0 in Cantor normal form.

A value is a sum w^b1*k1 + ... + w^bn*kn with strictly decreasing ordinal
exponents and positive integer coefficients, stored as a term tuple.  The
transfinite recursions defining +, * and exponentiation are not run: each
result is built once, as one term list, from its closed form, and the
algebraic laws the recursions imply are enforced by the test suite rather
than assumed.  A finite ordinal hashes like its int.

The public `CnfOrdinal(terms)` validates its terms; the module's results
come from the private `_make`, which trusts terms canonical by construction.
Both refuse more than MAX_TERMS terms or exponents nested past
MAX_EXPONENT_DEPTH, and `nat_pow` refuses an integer power of more than
about MAX_INT_BITS bits before computing it; each raises BudgetError.

There is no right subtraction: a + c = b + c does not force a = b (for
example 1 + w = 2 + w), so only the left-sided `lsub` is provided.
"""

from .errors import MAX_INT_BITS, BudgetError, PreconditionError, ZeroDivisorError

MAX_EXPONENT_DEPTH = 64
MAX_TERMS = 1 << 14


def _operator(fn):
    """A binary dunder, and the one operand rule of every CnfOrdinal operator (numtower's
    _operator is Frac's): an int is coerced, any other non-ordinal is NotImplemented."""

    def method(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else fn(self, other)

    return method


class CnfOrdinal:
    __slots__ = ("_terms", "_depth", "_hash")

    def __new__(cls, terms=()):
        """Validate terms (exponents, positive coefficients, strictly decreasing order)."""
        terms = tuple(terms)
        prev = None
        for exp, coeff in terms:
            if not isinstance(exp, CnfOrdinal):
                raise TypeError("exponents must be CnfOrdinal")
            if not isinstance(coeff, int) or coeff < 1:
                raise PreconditionError(f"coefficients must be positive integers, got {coeff!r}")
            if prev is not None and _cmp(exp._terms, prev._terms) >= 0:
                raise PreconditionError("exponents must be strictly decreasing")
            prev = exp
        return _make(terms)

    @classmethod
    def from_int(cls, n):
        if not isinstance(n, int) or n < 0:
            raise PreconditionError(f"ordinals are natural numbers, got {n!r}")
        return _make(((ZERO, int(n)),)) if n else ZERO  # int: a bool prints as its value

    def is_zero(self):
        return not self._terms

    def is_finite(self):
        return self._depth <= 2

    def as_int(self):
        """The natural-number value, or None when the ordinal is infinite."""
        if self._depth > 2:
            return None
        return self._terms[0][1] if self._terms else 0

    def __hash__(self):
        return self._hash

    __eq__ = _operator(lambda a, b: a._terms == b._terms)
    __lt__ = _operator(lambda a, b: _cmp(a._terms, b._terms) < 0)
    __le__ = _operator(lambda a, b: _cmp(a._terms, b._terms) <= 0)
    __gt__ = _operator(lambda a, b: _cmp(a._terms, b._terms) > 0)
    __ge__ = _operator(lambda a, b: _cmp(a._terms, b._terms) >= 0)
    __add__ = _operator(lambda a, b: add(a, b))
    __radd__ = _operator(lambda a, b: add(b, a))
    __mul__ = _operator(lambda a, b: mul(a, b))
    __rmul__ = _operator(lambda a, b: mul(b, a))
    __pow__ = _operator(lambda a, b: opow(a, b))
    __divmod__ = _operator(lambda a, b: ord_divmod(a, b))

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


def _make(terms):
    """The ordinal of a term tuple canonical by construction: no term checks, only the budgets."""
    if len(terms) > MAX_TERMS:
        raise BudgetError(f"more than {MAX_TERMS} Cantor normal form terms")
    # depth is monotone in value, so the leading exponent is the deepest
    depth = terms[0][0]._depth + 1 if terms else 1
    if depth > MAX_EXPONENT_DEPTH:
        raise BudgetError(f"exponent nesting deeper than {MAX_EXPONENT_DEPTH}")
    self = object.__new__(CnfOrdinal)
    self._terms = terms
    self._depth = depth
    # only a finite ordinal has depth 2 or less; it hashes like its int
    self._hash = hash(terms) if depth > 2 else hash(terms[0][1]) if terms else 0
    return self


def _cmp(ta, tb):
    """Three-way comparison of two canonical term tuples."""
    if ta is tb:
        return 0
    for (ea, ka), (eb, kb) in zip(ta, tb):
        if ea is not eb:
            c = _cmp(ea._terms, eb._terms)
            if c:
                return c
        if ka != kb:
            return -1 if ka < kb else 1
    la, lb = len(ta), len(tb)
    if la == lb:
        return 0
    return -1 if la < lb else 1


ZERO = _make(())
ONE = CnfOrdinal.from_int(1)
OMEGA = _make(((ONE, 1),))


def omega_pow(exp, coeff=1):
    """The single-term ordinal w^exp * coeff."""
    exp = _coerce(exp)
    if coeff == 0:
        return ZERO
    return CnfOrdinal(((exp, coeff),))


def cmp(a, b):
    """Three-way comparison: -1, 0, or 1."""
    return _cmp(a._terms, b._terms)


def succ(a):
    return add(a, ONE)


def add(a, b):
    """Ordinal sum: a-terms below the leading b-exponent are absorbed."""
    if not b._terms:
        return a
    ta, tb = a._terms, b._terms
    eb, kb = tb[0]
    for keep, (exp, k) in enumerate(ta):
        c = _cmp(exp._terms, eb._terms)
        if c < 0:
            return _make(ta[:keep] + tb)
        if c == 0:
            return _make(ta[:keep] + ((eb, k + kb),) + tb[1:])
    return _make(ta + tb)


def lsub(a, b):
    """The unique g with a + g = b; requires a <= b."""
    ta, tb = a._terms, b._terms
    for i, ((ea, ka), (eb, kb)) in enumerate(zip(ta, tb)):
        c = _cmp(ea._terms, eb._terms)
        if c > 0 or (c == 0 and ka > kb):
            raise PreconditionError(f"lsub needs a <= b, got {a} > {b}")
        if c < 0:
            return _make(tb[i:])
        if ka < kb:
            return _make(((eb, kb - ka),) + tb[i + 1:])
    if len(ta) > len(tb):
        raise PreconditionError(f"lsub needs a <= b, got {a} > {b}")
    return _make(tb[len(ta):])


def mul(a, b):
    """Ordinal product in closed form, with w^e*k the leading term of a.

    A term w^f*m of b with f > 0 gives w^(e+f)*m; a finite last term m
    gives w^e*(k*m) and then a's tail.  e+f falls with f and stays above
    every exponent of a's tail, so nothing absorbs.
    """
    if not a._terms or not b._terms:
        return ZERO
    (e, k), tail = a._terms[0], a._terms[1:]
    terms = []
    for f, m in b._terms:
        if f._terms:
            terms.append((add(e, f), m))
        else:
            terms.append((e, k * m))
            terms.extend(tail)
    return _make(tuple(terms))


def ord_divmod(b, a):
    """Division with remainder: b = a*q + r with r < a; the pair is unique."""
    if not a._terms:
        raise ZeroDivisorError("ordinal division by zero")
    (ea, ka), tb = a._terms[0], b._terms
    q_terms = []
    i = 0
    # a term w^f*m of b above a's leading exponent is a*(w^g*m) with ea + g = f
    while i < len(tb) and (c := _cmp(tb[i][0]._terms, ea._terms)) > 0:
        f, m = tb[i]
        q_terms.append((lsub(ea, f), m))
        i += 1
    r = _make(tb[i:]) if i else b
    if i < len(tb) and c == 0:
        # leading exponents agree: finite quotient digit
        m = tb[i][1]
        digit = m // ka
        if digit and ka * digit == m and _cmp(a._terms[1:], tb[i + 1:]) > 0:
            digit -= 1
        if digit:
            q_terms.append((ZERO, digit))
            r = lsub(mul(a, _make(((ZERO, digit),))), r)
    return _make(tuple(q_terms)), r


def nat_pow(k, n):
    """k ** n for naturals; BudgetError past about MAX_INT_BITS bits (never for 0^n or 1^n)."""
    if not (isinstance(k, int) and isinstance(n, int)) or k < 0 or n < 0:
        raise PreconditionError(f"nat_pow needs naturals, got {k!r}^{n!r}")
    if n * (k.bit_length() - 1) > MAX_INT_BITS:
        raise BudgetError(f"an integer power of more than {MAX_INT_BITS} bits")
    return k ** n


def opow(a, b):
    """Ordinal exponentiation a^b (0^0 = 1, 0^b = 0 for b > 0)."""
    if not b._terms:
        return ONE
    if not a._terms:
        return ZERO
    ea, ka = a._terms[0]
    if is_indecomposable(a):
        # (w^ea)^b = w^(ea*b), and 1^b = 1
        return ONE if ea.is_zero() else _make(((mul(ea, b), 1),))
    n = b._terms[-1][1] if b._terms[-1][0].is_zero() else 0
    limit_terms = b._terms[:-1] if n else b._terms
    if ea.is_zero():
        # finite base k >= 2: k^(w^f*m) = w^(w^g*m) with 1 + g = f, so
        # k^b = w^x * k^n where x has the terms (g, m), already in order
        x = _make(tuple((lsub(ONE, f), m) for f, m in limit_terms))
        return _make(((x, nat_pow(ka, n)),))
    # a^(lambda + n) = w^(ea*lambda) * a^n for the limit part lambda of b
    lead = _make(((mul(ea, _make(limit_terms)), 1),)) if limit_terms else ONE
    # a^n has t + (n - 1)(t - 1) terms when a's t terms end in a finite one, else t
    t = len(a._terms)
    if a._terms[-1][0].is_zero() and t + (n - 1) * (t - 1) > MAX_TERMS:
        raise BudgetError(f"more than {MAX_TERMS} Cantor normal form terms")
    return mul(lead, _opow_nat(a, n))


def _opow_nat(a, n):
    """a^n by repeated squaring, without the unused last square."""
    acc = ONE
    while n:
        if n & 1:
            acc = mul(acc, a)
        n >>= 1
        if n:
            a = mul(a, a)
    return acc


def hessenberg(a, b):
    """Natural (commutative) sum: merge the descending terms, adding coefficients of equal exponents."""
    ta, tb = a._terms, b._terms
    terms = []
    i = j = 0
    while i < len(ta) and j < len(tb):
        (ea, ka), (eb, kb) = ta[i], tb[j]
        c = _cmp(ea._terms, eb._terms)
        terms.append(ta[i] if c > 0 else tb[j] if c < 0 else (ea, ka + kb))
        i += c >= 0
        j += c <= 0
    return _make(tuple(terms) + ta[i:] + tb[j:])


def is_indecomposable(a):
    """True when a is a single term w^b (coefficient 1)."""
    return len(a._terms) == 1 and a._terms[0][1] == 1


def cofinality_class(a):
    """The cofinality of a: 0 for zero, 1 for a successor, w for a limit."""
    if not a._terms:
        return ZERO
    return ONE if a._terms[-1][0].is_zero() else OMEGA
