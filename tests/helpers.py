"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths they
check: set closures go through Python sets, subset enumeration through
itertools, Ackermann codes through their defining sum, simplicity
through a birthday-ordered pool scan, sign codes through a Fraction walk
of the birth tree, the universal order on binary strings character by
character, ordinal identities through reconstruction, brace literals
through a recursive-descent reader and the Goedel operations through
their definitions, both on frozensets.
"""

import itertools

from setkernel import hfset, ordinal, surreal
from setkernel.hfset import HFSet
from setkernel.ordinal import CnfOrdinal
from setkernel.surreal import Dyadic


def rand_hfset(rng, max_rank, max_width=3):
    """A random HF set of rank at most max_rank."""
    if max_rank == 0 or rng.random() < 0.25:
        return hfset.empty()
    width = rng.randint(0, max_width)
    return HFSet(rand_hfset(rng, max_rank - 1, max_width) for _ in range(width))


def all_sets_of_rank_at_most(n):
    """Every HF set of rank <= n, i.e. the elements of V_{n+1}."""
    layer = [hfset.empty()]
    for _ in range(n):
        elems = list(layer)
        layer = []
        for r in range(len(elems) + 1):
            for combo in itertools.combinations(elems, r):
                layer.append(HFSet(combo))
    return layer


def saturate(x):
    """Transitive-closure oracle: saturate a Python set under membership."""
    seen = set(x.elements)
    stack = list(x.elements)
    while stack:
        s = stack.pop()
        for e in s.elements:
            if e not in seen:
                seen.add(e)
                stack.append(e)
    return HFSet(seen)


def code_oracle(x, memo=None):
    """Ackermann code by its definition, code(x) = sum(2 ** code(e)): a plain
    recursion over the elements, sharing nothing with ackermann_encode or
    the module's node walk.  `memo` may carry codes across calls."""
    memo = {} if memo is None else memo
    if x not in memo:
        memo[x] = sum(2 ** code_oracle(e, memo) for e in x.elements)
    return memo[x]


def power_oracle(x):
    """Power set by direct subset enumeration."""
    elems = x.elements
    subs = []
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            subs.append(HFSet(combo))
    return HFSet(subs)


def rand_ordinal(rng, depth, max_terms=3, max_coeff=5):
    """A random CNF ordinal with exponent nesting at most `depth`."""
    if depth == 0:
        return CnfOrdinal.from_int(rng.randint(0, max_coeff))
    n_terms = rng.randint(0, max_terms)
    exps = []
    seen = set()
    for _ in range(n_terms):
        e = rand_ordinal(rng, depth - 1, max_terms, max_coeff)
        if e not in seen:
            seen.add(e)
            exps.append(e)
    exps.sort(key=lambda e: _ord_key(e), reverse=True)
    return CnfOrdinal(tuple((e, rng.randint(1, max_coeff)) for e in exps))


def _ord_key(a):
    # any total-order key consistent with the ordinal order works for
    # sorting exponent candidates; reuse the comparison itself
    import functools

    return functools.cmp_to_key(ordinal.cmp)(a)


def frac_value(d):
    """Exact value of a Dyadic as a Python Fraction (external oracle)."""
    from fractions import Fraction

    return Fraction(d.num, 1 << d.k)


def birthday_oracle_pool(max_day):
    """Map Fraction -> first appearance day, built by midpoint insertion.

    Day 1 creates 0; each later day adds min-1, max+1, and the midpoints
    of neighbours.  Independent of the surreal module.
    """
    from fractions import Fraction

    days = {}
    cur = []
    for day in range(max_day + 1):
        if not cur:
            new = [Fraction(0)]
        else:
            new = [cur[0] - 1]
            new += [(a + b) / 2 for a, b in zip(cur, cur[1:])]
            new.append(cur[-1] + 1)
        for v in new:
            days[v] = day
        cur = sorted(days)
    return days


def simplest_oracle(a, b, days):
    """Earliest-born pool members strictly between the Fraction sets a, b."""
    between = [
        z
        for z in days
        if all(x < z for x in a) and all(z < y for y in b)
    ]
    if not between:
        return []
    best = min(days[z] for z in between)
    return sorted(z for z in between if days[z] == best)



def sign_walk(code):
    """The value of a sign code as a Fraction, and the codes of its left
    and right options (0 for none).

    A sign code is a leading 1 and then the signs, + as 1 and - as 0.  The
    walk goes down the birth tree from 0 in plain Fraction arithmetic: the
    options are the nearest ancestors below and above, and each step lands
    halfway to them, or one step on where there is none.  Independent of
    the surreal module.
    """
    from fractions import Fraction

    v, lo, hi, lo_code, hi_code = Fraction(0), None, None, 0, 0
    for i in range(code.bit_length() - 2, -1, -1):
        if code >> i & 1:
            lo, lo_code = v, code >> (i + 1)
        else:
            hi, hi_code = v, code >> (i + 1)
        v = lo + 1 if hi is None else hi - 1 if lo is None else (lo + hi) / 2
    return v, lo_code, hi_code


def birth_tree(max_day):
    """sign_walk of every code born by max_day."""
    return {code: sign_walk(code) for code in range(1, 2 << max_day)}


def simplest_walk(lo, hi):
    """The sign code of the first birth-tree node strictly between the
    Fractions lo < hi (None for no bound), walking down from 0."""
    from fractions import Fraction

    code, v, below, above = 1, Fraction(0), None, None
    while True:
        if lo is not None and v <= lo:
            code, below = (code << 1) | 1, v
        elif hi is not None and v >= hi:
            code, above = code << 1, v
        else:
            return code
        v = below + 1 if above is None else above - 1 if below is None else (below + above) / 2


def u_cmp_oracle(f, g):
    """Three-way comparison in the universal order on binary strings, from
    its definition: f < g when f extends g with a 0 at position |g|, or g
    extends f with a 1 at position |f|, or the first disagreement has f at
    0 and g at 1.  Independent of the sign codes linorder compares."""
    for cf, cg in zip(f, g):
        if cf != cg:
            return -1 if cf == "0" else 1
    if len(f) > len(g):
        return -1 if f[len(g)] == "0" else 1
    if len(g) > len(f):
        return 1 if g[len(f)] == "0" else -1
    return 0


class _LiteralError(Exception):
    pass


def parse_set_oracle(text):
    """Reference reader for the brace syntax, sharing no code with hfset.

    Recursive descent over the text with its whitespace removed, indexing
    characters by position and building frozensets.  Returns the frozenset,
    or (message, column, expected) for the first error, with columns
    counted in the whitespace-free text.
    """
    s = "".join(text.split())

    def fail(message, i, expected=()):
        raise _LiteralError(message, i, expected)

    def read(i):
        # a set starts at s[i]: its value and the index just after it
        if i >= len(s) or s[i] != "{":
            fail("expected '{'", i, ("{",))
        i += 1
        if i < len(s) and s[i] == "}":
            return frozenset(), i + 1
        elems = []
        while True:
            e, i = read(i)
            elems.append(e)
            if i < len(s) and s[i] == "}":
                return frozenset(elems), i + 1
            if i < len(s) and s[i] == ",":
                i += 1
            else:
                fail("expected ',' or '}'", i, (",", "}"))

    try:
        value, i = read(0)
        if i != len(s):
            fail("trailing input after set literal", i)
    except _LiteralError as e:
        return e.args
    return value


def to_frozen(x):
    """A kernel set (anything with `.elements`) as nested frozensets."""
    return frozenset(to_frozen(e) for e in x.elements)


def from_frozen(f):
    """Nested frozensets as an HFSet."""
    return HFSet(from_frozen(e) for e in f)


def fs_kpair(a, b):
    """The Kuratowski pair {{a},{a,b}} on frozensets."""
    return frozenset([frozenset([a]), frozenset([a, b])])


def fs_triple(a, b, c):
    return fs_kpair(fs_kpair(a, b), c)


def _fs_split(z):
    # (a, b) with z == fs_kpair(a, b), or None: a is the element of a
    # singleton in z, and b the other member of the union, if any
    for s in z:
        if len(s) == 1:
            (a,) = s
            rest = frozenset().union(*z) - {a}
            b = next(iter(rest)) if len(rest) == 1 else a
            if fs_kpair(a, b) == z:
                return a, b
    return None


def _fs_pairs(x):
    return [p for p in map(_fs_split, x) if p is not None]


def _fs_triples(x):
    out = []
    for ab, c in _fs_pairs(x):
        inner = _fs_split(ab)
        if inner is not None:
            out.append((inner[0], inner[1], c))
    return out


# the nine basic operations on frozensets, straight from their definitions
GOEDEL_FS_OPS = (
    lambda x, y: x,
    lambda x, y: x - y,
    lambda x, y: frozenset([x, y]),
    lambda x, y: frozenset(fs_kpair(u, v) for u in x for v in y if u in v),
    lambda x, y: frozenset(fs_kpair(v, u) for u, v in _fs_pairs(x)),
    lambda x, y: frozenset(u for u, _ in _fs_pairs(x)),
    lambda x, y: frozenset(fs_kpair(u, v) for u in x for v in y),
    lambda x, y: frozenset().union(*x),
    lambda x, y: frozenset(fs_triple(w, u, v) for u, v, w in _fs_triples(x)),
)


def goedel_ext_oracle(x):
    """{op(u, v) : u, v in x, op one of the nine} on frozensets."""
    return frozenset(op(u, v) for u in x for v in x for op in GOEDEL_FS_OPS)
