"""Independent models used as oracles by the benchmark.

Nothing here imports setkernel.  Hereditarily finite sets are nested
Python frozensets (equality and membership come from hashing, not from
the kernel's ordered tuples); ordinals below w^w are tuples of
(exponent, coefficient) pairs with integer exponents; dyadic and
rational values are `fractions.Fraction`; binary strings are placed in
the universal order through an explicit embedding into (0, 1).
"""

import itertools
import math
from fractions import Fraction
from functools import cmp_to_key, lru_cache

_INTERN = {}


def hc(items):
    """The one frozenset for these elements (hash-consed).

    Python compares equal frozensets element by element, recursively, so
    two separately built equal sets cost as much as the kernel's own
    comparison.  Interning every model set makes equal sets identical
    objects, and equality one level deep."""
    s = frozenset(items)
    return _INTERN.setdefault(s, s)


EMPTY = hc(())


# ---------------------------------------------------------------- HF sets

@lru_cache(maxsize=None)
def vn(n):
    """The von Neumann natural n as a frozenset."""
    return hc(vn(i) for i in range(n))


@lru_cache(maxsize=None)
def from_code(n):
    """The set with Ackermann code n: its elements are the set bits."""
    return hc(from_code(k) for k in range(n.bit_length()) if n >> k & 1)


def kpair(x, y):
    return hc((hc((x,)), hc((x, y))))


def kpair_split(z):
    """(x, y) when z is a Kuratowski pair, else None."""
    if len(z) == 1:
        (inner,) = z
        if len(inner) == 1:
            (x,) = inner
            return (x, x)
        return None
    if len(z) != 2:
        return None
    a, b = z
    for s, p in ((a, b), (b, a)):
        if len(s) == 1 and len(p) == 2:
            (x,) = s
            if x in p:
                (y,) = p - s
                return (x, y)
    return None


def triple(x, y, z):
    return kpair(kpair(x, y), z)


def triple_split(t):
    outer = kpair_split(t)
    if outer is None:
        return None
    inner = kpair_split(outer[0])
    if inner is None:
        return None
    return (inner[0], inner[1], outer[1])


_CMP_MEMO = {}


def hf_cmp(a, b):
    """Ackermann-code order: the larger set owns the largest element of
    the symmetric difference (code(x) = sum of 2**code(e))."""
    if a == b:
        return 0
    key = (a, b)
    hit = _CMP_MEMO.get(key)
    if hit is None:
        top = max(a ^ b, key=_HF_KEY)
        hit = 1 if top in a else -1
        _CMP_MEMO[key] = hit
    return hit


_HF_KEY = cmp_to_key(hf_cmp)


@lru_cache(maxsize=None)
def hf_text(m):
    """Canonical brace text: elements in ascending code order."""
    return "{" + ",".join(hf_text(e) for e in sorted(m, key=_HF_KEY)) + "}"


def hf_parse(text):
    """Brace text to a frozenset, with an explicit stack."""
    stack = []
    result = None
    for c in text:
        if c == "{":
            stack.append([])
        elif c == "}":
            done = hc(stack.pop())
            if stack:
                stack[-1].append(done)
            else:
                result = done
        elif c not in ", ":
            raise ValueError(f"unexpected {c!r} in set text")
    if stack or result is None:
        raise ValueError("unbalanced set text")
    return result


def hf_literal(m, rng):
    """A literal for m with shuffled elements and repeated ones."""
    items = list(m)
    rng.shuffle(items)
    if items and rng.random() < 0.5:
        items.insert(rng.randrange(len(items) + 1), rng.choice(items))
    return "{" + ",".join(hf_literal(e, rng) for e in items) + "}"


def random_hf(rng, rank, width):
    """A random HF set of rank at most `rank`."""
    if rank == 0 or rng.random() < 0.2:
        return EMPTY
    return hc(random_hf(rng, rank - 1, width) for _ in range(rng.randint(1, width)))


def to_model(x):
    """Convert a kernel set (anything with `.elements`) to a frozenset."""
    memo = {}

    def conv(s):
        hit = memo.get(id(s))
        if hit is None:
            hit = hc(conv(e) for e in s.elements)
            memo[id(s)] = hit
        return hit

    return conv(x)


def saturate(m):
    """Transitive closure by saturating a Python set under membership."""
    seen = set(m)
    todo = list(m)
    while todo:
        for e in todo.pop():
            if e not in seen:
                seen.add(e)
                todo.append(e)
    return hc(seen)


@lru_cache(maxsize=None)
def rank(m):
    return max((rank(e) + 1 for e in m), default=0)


def power(m):
    items = list(m)
    return hc(hc(c) for r in range(len(items) + 1) for c in itertools.combinations(items, r))


def _goedel(i, x, y):
    if i == 0:
        return x
    if i == 1:
        return hc(x - y)
    if i == 2:
        return hc((x, y))
    if i == 3:
        return hc(kpair(u, v) for u in x for v in y if u in v)
    if i == 4:
        return hc(kpair(p[1], p[0]) for p in map(kpair_split, x) if p)
    if i == 5:
        return hc(p[0] for p in map(kpair_split, x) if p)
    if i == 6:
        return hc(kpair(u, v) for u in x for v in y)
    if i == 7:
        return hc(e for s in x for e in s)
    return hc(triple(t[2], t[0], t[1]) for t in map(triple_split, x) if t)


def goedel_ext(m):
    """One step of the Goedel hull: every basic operation on every pair."""
    return hc(_goedel(i, u, v) for u in m for v in m for i in range(9))


def collapse(nodes, edges):
    """Mostowski collapse of a DAG given as (pred, node) edges."""
    preds = {v: [] for v in nodes}
    for a, b in edges:
        if a != b:
            preds[b].append(a)
    image = {}

    def img(v):
        hit = image.get(v)
        if hit is None:
            hit = hc(img(p) for p in preds[v])
            image[v] = hit
        return hit

    for v in nodes:
        img(v)
    return image


def nat_of(m):
    n = len(m)
    return n if m == vn(n) else None


def z_encode(n):
    return vn(n) if n >= 0 else kpair(EMPTY, vn(-n))


def q_encode(q):
    if q.denominator == 1:
        return z_encode(q.numerator)
    return kpair(z_encode(q.numerator), vn(q.denominator))


def z_decode(m):
    n = nat_of(m)
    if n is not None:
        return n
    p = kpair_split(m)
    if p is None or p[0] != EMPTY:
        return None
    k = nat_of(p[1])
    return -k if k else None


def q_decode(m):
    n = z_decode(m)
    if n is not None:
        return Fraction(n)
    p = kpair_split(m)
    if p is None:
        return None
    num, den = z_decode(p[0]), nat_of(p[1])
    if num is None or den is None or den < 2 or math.gcd(num, den) != 1:
        return None
    return Fraction(num, den)


# ------------------------------------------------- ordinals below w^w

def ord_norm(terms):
    """Merge and sort (exp, coeff) pairs into Cantor normal form."""
    out = {}
    for e, c in terms:
        if c:
            out[e] = out.get(e, 0) + c
    return tuple(sorted(out.items(), reverse=True))


def ord_add(a, b):
    if not b:
        return a
    lead = b[0][0]
    keep = tuple(t for t in a if t[0] > lead)
    same = [c for e, c in a if e == lead]
    if same:
        return keep + ((lead, same[0] + b[0][1]),) + b[1:]
    return keep + b


def ord_mul(a, b):
    """Right-distributive product: a*w^f = w^(lead(a)+f) for f > 0 and
    a*m scales only the leading coefficient for finite m."""
    if not a or not b:
        return ()
    ea, ka = a[0]
    acc = ()
    for f, m in b:
        part = ((ea, ka * m),) + a[1:] if f == 0 else ((ea + f, m),)
        acc = ord_add(acc, part)
    return acc


def ord_pow(a, n):
    acc = ((0, 1),)
    for _ in range(n):
        acc = ord_mul(acc, a)
    return acc


def ord_hess(a, b):
    return ord_norm(a + b)


def ord_cmp(a, b):
    for (ea, ka), (eb, kb) in zip(a, b):
        if (ea, ka) != (eb, kb):
            return -1 if (ea, ka) < (eb, kb) else 1
    return (len(a) > len(b)) - (len(a) < len(b))


def ord_text(a):
    """Canonical CNF text as the CLI prints it."""
    if not a:
        return "0"
    parts = []
    for e, c in a:
        if e == 0:
            parts.append(str(c))
            continue
        base = "w" if e == 1 else f"w^{e}"
        parts.append(base if c == 1 else f"{base}*{c}")
    return "+".join(parts)


def ord_parse(text):
    """Inverse of ord_text for ordinals below w^w."""
    if text == "0":
        return ()
    terms = []
    for part in text.split("+"):
        head, _, coeff = part.partition("*")
        if head == "w":
            terms.append((1, int(coeff or 1)))
        elif head.startswith("w^"):
            terms.append((int(head[2:]), int(coeff or 1)))
        elif not coeff:
            terms.append((0, int(head)))
        else:
            raise ValueError(f"not CNF text: {text!r}")
    if ord_norm(terms) != tuple(terms):
        raise ValueError(f"not in normal form: {text!r}")
    return tuple(terms)


# ------------------------------------------------- dyadics, cuts, strings

def simplest(lo, hi):
    """Earliest-born dyadic strictly inside (lo, hi); None means unbounded.

    The simplest number is the integer of least magnitude in the interval
    when there is one, else the dyadic of least denominator there.
    """
    lo_int = -math.inf if lo is None else math.floor(lo) + 1
    hi_int = math.inf if hi is None else math.ceil(hi) - 1
    if lo_int <= hi_int:
        if lo_int <= 0 <= hi_int:
            return Fraction(0)
        return Fraction(lo_int if lo_int > 0 else hi_int)
    den = 2
    while True:
        m = math.floor(lo * den) + 1
        if Fraction(m, den) < hi:
            return Fraction(m, den)
        den *= 2


def signs(x):
    """Sign expansion of the dyadic x by walking the simplicity tree."""
    out = []
    lo = hi = None
    z = Fraction(0)
    while z != x:
        if x > z:
            out.append("+")
            lo = z
        else:
            out.append("-")
            hi = z
        z = simplest(lo, hi)
    return "".join(out)


@lru_cache(maxsize=None)
def born_by(d):
    """All dyadics of birthday <= d, ascending (2**(d+1) - 1 of them).
    The list is shared between callers; do not change it."""
    vals = [Fraction(0)]
    for _ in range(d):
        mids = [(a + b) / 2 for a, b in zip(vals, vals[1:])]
        merged = [vals[0] - 1]
        for v, m in zip(vals, mids + [None]):
            merged.append(v)
            if m is not None:
                merged.append(m)
        merged.append(vals[-1] + 1)
        vals = merged
    return vals


def ustring_value(s):
    """Embed a binary string into (0, 1) so that the universal order is <.

    '' sits at 1/2; appending '1' (or '0') at depth d moves right (or
    left) by 2**-(d+2): an in-order walk of the infinite binary tree.
    """
    v = Fraction(1, 2)
    for d, c in enumerate(s):
        step = Fraction(1, 2 ** (d + 2))
        v += step if c == "1" else -step
    return v


def shortest_between(a, b, max_len=16):
    """Brute force: the first string by (length, lexicographic) order
    strictly between every string of a and every string of b."""
    lo = [ustring_value(s) for s in a]
    hi = [ustring_value(s) for s in b]
    for n in range(max_len + 1):
        for i in range(1 << n):
            s = format(i, f"0{n}b") if n else ""
            v = ustring_value(s)
            if all(x < v for x in lo) and all(v < y for y in hi):
                return s
    raise ValueError("no string within the search bound")


def binary_strings():
    for n in itertools.count():
        for i in range(1 << n):
            yield format(i, f"0{n}b") if n else ""


def dyadics_by_birthday():
    """All dyadics in (birthday, value) order."""
    seen = set()
    for d in itertools.count():
        for v in born_by(d):
            if v not in seen:
                seen.add(v)
                yield v


def back_and_forth(rounds):
    """Cantor's zigzag between binary strings and dyadics, with the
    brute-force string witness and the model simplicity operator."""
    matched = []
    strings = binary_strings()
    dyadics = dyadics_by_birthday()
    for r in range(rounds):
        if r % 2 == 0:
            s = next(strings)
            if any(s == a for a, _ in matched):
                continue
            v = ustring_value(s)
            lo = [d for a, d in matched if ustring_value(a) < v]
            hi = [d for a, d in matched if ustring_value(a) > v]
            matched.append((s, simplest(max(lo, default=None), min(hi, default=None))))
        else:
            q = next(dyadics)
            if any(q == d for _, d in matched):
                continue
            lo = [a for a, d in matched if d < q]
            hi = [a for a, d in matched if d > q]
            matched.append((shortest_between(lo, hi), q))
    return dict(matched)
