"""Finite-birthday surreal numbers, i.e. the dyadic rationals.

A Dyadic is num / 2**k in lowest terms (num odd whenever k > 0).  The
exact field operations on Dyadic (+, -, *) serve as the independent
oracle; `conway_add`, `conway_neg`, and `conway_mul` evaluate the
recursive option formulas instead and must agree with them.

The recursions run over canonical (single-element) option sets rather
than full cut sides.  That uniformity is standard Conway theory; it is
not proved here but the agreement with exact arithmetic is enforced by
the test suite.
"""

from .errors import PreconditionError


class Dyadic:
    __slots__ = ("num", "k")

    def __init__(self, num, k=0):
        if k < 0:
            raise PreconditionError("log-denominator must be nonnegative")
        while k > 0 and num % 2 == 0:
            num //= 2
            k -= 1
        self.num = num
        self.k = k

    @classmethod
    def from_int(cls, n):
        return cls(n, 0)

    def is_integer(self):
        return self.k == 0

    def __hash__(self):
        return hash((self.num, self.k))

    def __eq__(self, other):
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.num == other.num and self.k == other.k

    def _cmp(self, other):
        k = max(self.k, other.k)
        a = self.num << (k - self.k)
        b = other.num << (k - other.k)
        return (a > b) - (a < b)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # exact rational arithmetic: the oracle route
    def __add__(self, other):
        k = max(self.k, other.k)
        return Dyadic((self.num << (k - self.k)) + (other.num << (k - other.k)), k)

    def __sub__(self, other):
        k = max(self.k, other.k)
        return Dyadic((self.num << (k - self.k)) - (other.num << (k - other.k)), k)

    def __mul__(self, other):
        return Dyadic(self.num * other.num, self.k + other.k)

    def __neg__(self):
        return Dyadic(-self.num, self.k)

    def __str__(self):
        if self.k == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.k}"

    def __repr__(self):
        return f"Dyadic({self})"


ZERO = Dyadic(0)
ONE = Dyadic(1)


def parse_dyadic(text):
    """Parse 'm', 'm/2^k literals' such as '3/4' or '-5/8'."""
    num_s, slash, den_s = text.strip().partition("/")
    try:
        num = int(num_s)
        den = int(den_s) if slash else 1
    except ValueError as exc:
        raise PreconditionError(f"malformed dyadic literal {text!r}") from exc
    if den <= 0 or den & (den - 1):
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
        raise PreconditionError(f"option sets must satisfy max(a) < min(b), got {lo} >= {hi}")
    return Dyadic(*_simplest2(_pack(lo), _pack(hi)))


def options(x):
    """Canonical minimal options; simplest(*options(x)) == x."""
    return tuple(frozenset(() if o is None else (Dyadic(*o),)) for o in _options2((x.num, x.k)))


def _pack(x):
    return None if x is None else (x.num, x.k)


_NEG_CACHE = {}
_ADD_CACHE = {}
_MUL_CACHE = {}


def clear_caches():
    _NEG_CACHE.clear()
    _ADD_CACHE.clear()
    _MUL_CACHE.clear()
    _OPT_CACHE.clear()


def cache_sizes():
    return len(_ADD_CACHE), len(_MUL_CACHE), len(_NEG_CACHE)


# The recursions below run on plain (num, k) pairs with flat tuple-keyed
# caches: the option grids of large intermediate values (products reach
# birthdays in the hundreds) make object overhead the dominant cost.


def _norm2(num, k):
    while k and not num & 1:
        num >>= 1
        k -= 1
    if num == 0:
        k = 0
    return num, k


_OPT_CACHE = {}


def _options2(v):
    """Canonical option values of a packed (num, k) pair, each a pair or None."""
    hit = _OPT_CACHE.get(v)
    if hit is not None:
        return hit
    num, k = v
    if k == 0:
        if num == 0:
            out = (None, None)
        elif num > 0:
            out = ((num - 1, 0), None)
        else:
            out = (None, (num + 1, 0))
    else:
        out = (_norm2(num - 1, k), _norm2(num + 1, k))
    _OPT_CACHE[v] = out
    return out


def _cmp2(a, b):
    k = a[1] if a[1] > b[1] else b[1]
    x = a[0] << (k - a[1])
    y = b[0] << (k - b[1])
    return (x > y) - (x < y)


def _simplest2(lo, hi):
    """Packed-pair simplicity: earliest-born value strictly inside (lo, hi)."""
    if lo is None:
        if hi is None:
            return (0, 0)
        hn, hk = hi
        if hn > 0:
            return (0, 0)
        return (-((-hn) >> hk) - 1, 0)
    if hi is None:
        ln, lk = lo
        if ln < 0:
            return (0, 0)
        return ((ln >> lk) + 1, 0)
    ln, lk = lo
    hn, hk = hi
    if ln < 0 < hn:
        return (0, 0)
    if ln >= 0:
        n = (ln >> lk) + 1
        if _cmp2((n, 0), hi) < 0:
            return (n, 0)
    else:
        n = -((-hn) >> hk) - 1
        if _cmp2(lo, (n, 0)) < 0:
            return (n, 0)
    # bisect the enclosing unit interval at a fixed scale: the answer has
    # k <= max(lk, hk) + 1, so every midpoint stays an integer at scale s
    fn = ln >> lk
    s = (lk if lk > hk else hk) + 1
    lsc = ln << (s - lk)
    hsc = hn << (s - hk)
    a = fn << s
    b = a + (1 << s)
    while True:
        m = (a + b) >> 1
        if m <= lsc:
            a = m
        elif m >= hsc:
            b = m
        else:
            return _norm2(m, s)


def _neg_core(v):
    cache = _NEG_CACHE
    hit = cache.get(v)
    if hit is not None:
        return hit
    stack = [v]
    while stack:
        key = stack[-1]
        if key in cache:
            stack.pop()
            continue
        left, right = _options2(key)
        missing = [o for o in (left, right) if o is not None and o not in cache]
        if missing:
            stack.extend(missing)
            continue
        lo = cache[right] if right is not None else None
        hi = cache[left] if left is not None else None
        cache[key] = _simplest2(lo, hi)
        stack.pop()
    return cache[v]


def _add_core(a, b):
    cache = _ADD_CACHE
    root = (a, b) if a <= b else (b, a)
    out = cache.get(root)
    if out is not None:
        return out
    opts = _options2
    get = cache.get
    stack = [root]
    while stack:
        key = stack[-1]
        if key in cache:
            stack.pop()
            continue
        x, y = key
        xl, xr = opts(x)
        yl, yr = opts(y)
        cands = []
        if xl is not None:
            cands.append((xl, y) if xl <= y else (y, xl))
        if yl is not None:
            cands.append((x, yl) if x <= yl else (yl, x))
        n_lo = len(cands)
        if xr is not None:
            cands.append((xr, y) if xr <= y else (y, xr))
        if yr is not None:
            cands.append((x, yr) if x <= yr else (yr, x))
        vals = [get(c) for c in cands]
        if None in vals:
            stack.extend(c for c, v in zip(cands, vals) if v is None)
            continue
        lo = None
        for v in vals[:n_lo]:
            if lo is None or _cmp2(v, lo) > 0:
                lo = v
        hi = None
        for v in vals[n_lo:]:
            if hi is None or _cmp2(v, hi) < 0:
                hi = v
        cache[key] = _simplest2(lo, hi)
        stack.pop()
    return cache[root]


def _mul_core(x, y):
    cache = _MUL_CACHE
    key = (x, y) if x <= y else (y, x)
    hit = cache.get(key)
    if hit is not None:
        return hit
    xl, xr = _options2(x)
    yl, yr = _options2(y)

    def part(xo, yo):
        # xo*y + x*yo - xo*yo, every piece via the recursive operations
        p = _add_core(_mul_core(xo, y), _mul_core(x, yo))
        return _add_core(p, _neg_core(_mul_core(xo, yo)))

    lo = None
    for xo, yo in ((xl, yl), (xr, yr)):
        if xo is not None and yo is not None:
            v = part(xo, yo)
            if lo is None or _cmp2(v, lo) > 0:
                lo = v
    hi = None
    for xo, yo in ((xl, yr), (xr, yl)):
        if xo is not None and yo is not None:
            v = part(xo, yo)
            if hi is None or _cmp2(v, hi) < 0:
                hi = v
    out = _simplest2(lo, hi)
    cache[key] = out
    return out


def conway_neg(x):
    """-x by the recursion -x = (-right options) |v (-left options)."""
    n, k = _neg_core((x.num, x.k))
    return Dyadic(n, k)


def conway_add(x, y):
    """x + y by the recursion over shifted options of either summand."""
    n, k = _add_core((x.num, x.k), (y.num, y.k))
    return Dyadic(n, k)


def conway_mul(x, y):
    """x * y by the four-part option formula; the option products and the
    sums and negations combining them all run through the recursions."""
    n, k = _mul_core((x.num, x.k), (y.num, y.k))
    return Dyadic(n, k)


class SignExpansion:
    """A finite +/- word locating a number in the cut-extension tree.

    Stored as a bit string over '01' with '+' as '1' and '-' as '0'; the
    length equals the birthday of the number it denotes.
    """

    __slots__ = ("bits",)

    def __init__(self, bits=""):
        if isinstance(bits, SignExpansion):
            bits = bits.bits
        bits = bits.replace("+", "1").replace("-", "0")
        if any(c not in "01" for c in bits):
            raise PreconditionError(f"sign expansion must be over +/- or 0/1, got {bits!r}")
        self.bits = bits

    def __hash__(self):
        return hash(self.bits)

    def __eq__(self, other):
        if not isinstance(other, SignExpansion):
            return NotImplemented
        return self.bits == other.bits

    def __len__(self):
        return len(self.bits)

    def __str__(self):
        return "".join("+" if c == "1" else "-" for c in self.bits)

    def __repr__(self):
        return f"SignExpansion({str(self)!r})"


def to_signs(x):
    """Walk the birth tree toward x, recording the turns."""
    bits = []
    lo = []
    hi = []
    z = ZERO
    while z != x:
        if x > z:
            bits.append("1")
            lo = [z]
        else:
            bits.append("0")
            hi = [z]
        z = simplest(lo, hi)
    return SignExpansion("".join(bits))


def from_signs(s):
    s = SignExpansion(s)
    lo = []
    hi = []
    z = ZERO
    for c in s.bits:
        if c == "1":
            lo = [z]
        else:
            hi = [z]
        z = simplest(lo, hi)
    return z


def born_by(n):
    """All dyadics of birthday <= n, ascending; there are 2**(n+1) - 1."""
    out = [ZERO]
    for _ in range(n):
        new = [simplest([], [out[0]])]
        for left, right in zip(out, out[1:]):
            new.append(simplest([left], [right]))
        new.append(simplest([out[-1]], []))
        woven = []
        for fresh, old in zip(new, out):
            woven.append(fresh)
            woven.append(old)
        woven.append(new[-1])
        out = woven
    return out


def enumerate_dyadics():
    """All dyadics in (birthday, value) order: 0, -1, 1, -2, -1/2, ..."""
    day = 0
    prev = set()
    while True:
        cur = born_by(day)
        for v in cur:
            if v not in prev:
                yield v
        prev = set(cur)
        day += 1
