"""Hereditarily finite sets in canonical form.

Every HFSet is hash-consed: the constructor returns the one live node for
its set of elements, so there is exactly one node per set.  Equality and
hashing are by identity, and by extensionality two sets are equal exactly
when they are the same node.  A node keeps its elements as a tuple in
ascending Ackermann-code order and stores its membership rank, which is
the rank of its largest element plus one.

Codes are never materialized (they grow as iterated powers of two).  The
order is `HFSet.__lt__`, which `sorted` and `bisect` use.  It compares
ranks first: the sets of rank < r are the elements of V_r, whose codes are
0 ... |V_r| - 1, so a lower rank means a lower code.  Sets of equal rank
compare like their element lists read largest-first.

Every node is built by `_node` from a strictly ascending element tuple.
`HFSet(...)`, `|`, `union` and `tc` sort their input first; `parse_set`
sorts each distinct set once per call, through a memo local to the call
keyed by element set, so the order and repeats of elements as written
do not count.  The builders that know their order skip the sort:
`ackermann_decode` (a code's set bits, read upwards, are its elements'
codes in ascending order), `power` (a subset's code grows with its
mask), `vn_nat` (n is larger than each of its elements), `kpair` ({x} is
a proper subset of {x,y}), `singleton`, `pair` (one comparison),
`v_stage`, `&` and `-` (they filter an ascending tuple), and `_g3` and
`_g6`, the products of Goedel operations 3 and 6 (a Kuratowski pair's
place follows from its elements' places, see `_pairs`).  `goedel_ext`
runs its five unary operations once per element and builds each pair of
its products once per step.

The intern table maps element tuples to weak references and never keeps a
node alive; a node removes its own entry when it dies.  Only `_V4`, the
16 sets of rank < 4 (the empty set among them) that decoding bottoms out
in, is kept alive.  The table is not locked, so build sets from one
thread at a time.
"""

import bisect
import weakref
from itertools import chain, product

from .errors import MAX_INT_BITS, BudgetError, ParseError, PreconditionError

MAX_ELEMENTS = 10 ** 6


# element tuple -> weak reference to the node for that set
_INTERN = {}


class HFSet:
    """A canonical hereditarily finite set (an element of V_omega)."""

    __slots__ = ("_elems", "_rank", "__weakref__")

    def __new__(cls, elements=()):
        elems = dict.fromkeys(elements)
        _check(elems)
        return _node(tuple(sorted(elems)))

    def __del__(self, _intern=_INTERN):
        # On the last decref CPython runs this before it clears weak
        # references, and the cycle collector runs it after, so the entry
        # then reads self or None.  A live other node was built after this
        # one's reference was cleared and keeps its entry.
        try:
            elems = self._elems
        except AttributeError:  # interrupted between object.__new__ and the assignment in _node
            return
        ref = _intern.get(elems)
        if ref is not None and ref() in (self, None):
            del _intern[elems]

    def __reduce__(self):
        # without this, pickle and copy would fill in the interned empty set
        return (HFSet, (self._elems,))

    @property
    def elements(self):
        return self._elems

    def __len__(self):
        return len(self._elems)

    def __iter__(self):
        return iter(self._elems)

    def __contains__(self, x):
        if not isinstance(x, HFSet):
            return False
        elems = self._elems
        i = bisect.bisect_left(elems, x)
        return i < len(elems) and elems[i] is x

    def __lt__(self, other):
        # Ackermann-code order: code(x) = sum(2**code(e) for e in x), so two
        # codes compare like their exponent sets read from the largest down.
        # The first pair of elements that are different nodes decides, so the
        # comparison moves down to that pair instead of recursing.
        if not isinstance(other, HFSet):
            return NotImplemented
        a, b = self, other
        while a is not b:
            if a._rank != b._rank:
                return a._rank < b._rank
            for x, y in zip(reversed(a._elems), reversed(b._elems)):
                if x is not y:
                    a, b = x, y
                    break
            else:
                return len(a._elems) < len(b._elems)
        return False

    def __le__(self, other):
        return not other < self if isinstance(other, HFSet) else NotImplemented

    def __gt__(self, other):
        return other < self if isinstance(other, HFSet) else NotImplemented

    def __ge__(self, other):
        return not self < other if isinstance(other, HFSet) else NotImplemented

    # set algebra on the element level
    def __or__(self, other):
        return HFSet(self._elems + other._elems) if isinstance(other, HFSet) else NotImplemented

    # & and - filter an ascending tuple, which stays ascending
    def __and__(self, other):
        if not isinstance(other, HFSet):
            return NotImplemented
        return _node(tuple([e for e in self._elems if e in other]))

    def __sub__(self, other):
        if not isinstance(other, HFSet):
            return NotImplemented
        return _node(tuple([e for e in self._elems if e not in other]))

    def issubset(self, other):
        return all(e in other for e in self._elems)

    def is_transitive(self):
        return all(e.issubset(self) for e in self._elems)

    def __str__(self):
        text = {}
        for s in _bottom_up(self):
            text[s] = "{" + ",".join([text[e] for e in s._elems]) + "}"
        return text[self]

    def __repr__(self):
        return f"HFSet({self})"


def _check(elems):
    for e in elems:
        if not isinstance(e, HFSet):
            raise TypeError(f"HFSet elements must be HFSet, got {type(e).__name__}")


def _node(elems):
    """The one node for `elems`, a strictly ascending tuple of HFSets."""
    ref = _INTERN.get(elems)
    node = None if ref is None else ref()
    if node is None:
        node = object.__new__(HFSet)
        node._elems = elems
        node._rank = elems[-1]._rank + 1 if elems else 0
        _INTERN[elems] = weakref.ref(node)
    return node


# V_4, the 16 sets of rank < 4, indexed by code: the bits of a code read
# upwards name its elements' codes in ascending order.  Every decode ends
# in this table, which keeps its 16 nodes alive.
_V4 = ()
for _code in range(16):
    _V4 += (_node(tuple(_V4[k] for k in range(4) if _code >> k & 1)),)
_EMPTY = _V4[0]


def _bottom_up(x):
    """x and every node below it, once each, every set after its elements."""
    seen = {x}
    nodes = [x]
    for s in nodes:
        for e in s._elems:
            if e not in seen:
                seen.add(e)
                nodes.append(e)
    nodes.sort(key=lambda s: s._rank)
    return nodes


def empty():
    return _EMPTY


def singleton(x):
    _check((x,))
    return _node((x,))


def pair(x, y):
    """Unordered pair {x, y}; collapses to a singleton when x = y."""
    if x is y:
        return singleton(x)
    _check((x, y))
    return _node((x, y) if x < y else (y, x))


def kpair(x, y):
    """Kuratowski ordered pair {{x},{x,y}}."""
    _check((x, y))
    # {x} is a proper subset of {x,y}, so its code is the smaller one
    sx = _node((x,))
    return _node((sx,) if x is y else (sx, _node((x, y) if x < y else (y, x))))


def kpair_split(z):
    """Invert kpair. Returns (x, y) or None when z is not an ordered pair."""
    elems = z._elems
    if len(elems) == 1:
        inner = elems[0]._elems
        return (inner[0], inner[0]) if len(inner) == 1 else None
    if len(elems) != 2:
        return None
    s, p = elems  # {x} comes before {x,y}
    if len(s) == 1 and len(p) == 2 and s._elems[0] in p:
        x = s._elems[0]
        return (x, p._elems[0] if p._elems[1] is x else p._elems[1])
    return None


def triple(x, y, z):
    """Ordered triple <<x,y>,z>."""
    return kpair(kpair(x, y), z)


def triple_split(t):
    outer = kpair_split(t)
    inner = outer and kpair_split(outer[0])
    return inner and (inner[0], inner[1], outer[1])


def union(x):
    """Big union of the elements of x."""
    return HFSet(e for s in x for e in s._elems)


def power(x):
    """Power set of x, guarded by the element budget MAX_ELEMENTS."""
    n = len(x)
    if 1 << n > MAX_ELEMENTS:
        raise BudgetError(f"power set would have 2^{n} elements (budget {MAX_ELEMENTS})")
    # subsets[mask] holds the elements at the set bits of mask, ascending;
    # with ascending elements a subset's code grows with its mask
    subsets = [()]
    for e in x._elems:
        subsets += [s + (e,) for s in subsets]
    return _node(tuple(map(_node, subsets)))


def tc(x):
    """Transitive closure: every node below x (the fixpoint of y -> y | union(y))."""
    return _node(tuple(sorted(_bottom_up(x)[:-1])))


def vn_nat(n):
    """The von Neumann natural n = {0, 1, ..., n-1}."""
    if n < 0:
        raise PreconditionError("vn_nat needs a nonnegative integer")
    if n * (n - 1) // 2 > MAX_ELEMENTS:  # node i holds i elements
        raise BudgetError(f"vn_nat would hold more than {MAX_ELEMENTS} elements in all")
    v = _EMPTY
    for _ in range(n):
        # v is larger than each of its elements, so it goes last
        v = _node(v._elems + (v,))
    return v


def nat_of(x):
    """Invert vn_nat; None when x is not a von Neumann natural."""
    elems = x._elems
    for i, e in enumerate(elems):
        # n = {0,...,n-1} in canonical order, so the i-th element must be
        # exactly the set of its predecessors.
        if e._elems != elems[:i]:
            return None
    return len(elems)


def rank_in(x):
    """Membership rank: rank(x) = sup{rank(y)+1 : y in x}."""
    return x._rank


def v_stage(n):
    """The von Neumann stage V_n, materialized only for n <= 4."""
    if n < 0:
        raise PreconditionError("v_stage needs a nonnegative integer")
    size = v_size(n)
    if size > len(_V4):
        raise BudgetError(f"v_stage({n}) is past V_4, the last stage materialized")
    # V_n is the set of the first |V_n| codes
    return _node(_V4[:size])


def v_size(n):
    """|V_n| by iterated exponentiation: 0, 1, 2, 4, 16, 65536, 2^65536."""
    if n < 0:
        raise PreconditionError("v_size needs a nonnegative integer")
    s = 0
    for _ in range(n):
        if s > MAX_INT_BITS:
            raise BudgetError(f"v_size({n}) is 2^k with k above {MAX_INT_BITS}")
        s = 1 << s
    return s


# the nine basic operations; indices match the conventional numbering
def _g0(x, y):
    return x


def _g1(x, y):
    return x - y


def _g3(x, y):
    # membership relation restricted to x cross y
    return _pairs(_inside(x, y), _index(x | y), {})


def _g4(x, y):
    return HFSet(kpair(uv[1], uv[0]) for uv in map(kpair_split, x) if uv is not None)


def _g5(x, y):
    return HFSet(uv[0] for uv in map(kpair_split, x) if uv is not None)


def _g6(x, y):
    return _pairs(product(x._elems, y._elems), _index(x | y), {})


def _g7(x, y):
    return union(x)


def _g8(x, y):
    # cycles every triple <u,v,w> in x to <w,u,v>; non-triples drop out
    return HFSet(triple(t[2], t[0], t[1]) for t in map(triple_split, x) if t is not None)


_GOEDEL_OPS = (_g0, _g1, pair, _g3, _g4, _g5, _g6, _g7, _g8)


def _index(x):
    """Each element of x by its position, which ascends with the element."""
    return {e: i for i, e in enumerate(x._elems)}


def _inside(x, y):
    """The (a, b) in x cross y with a in b."""
    xs = set(x._elems)
    return [(a, b) for b in y._elems for a in b._elems if a in xs]


def _pairs(ab, index, table):
    """The set of the pairs <a, b> for the distinct (a, b) in ab, with no
    comparison sort.  `index` numbers, in ascending order, the elements of a
    set holding every a and b, and `table` maps a rank to its pair once built.
    With a, b numbered i, j, {{a},{a,b}} compares by {a,b}, so by max(i, j) and
    min(i, j), then by {a}, and {{a}} is the least pair with max i: so the
    pairs ascend with rank max^2, plus 2*min + 1 + (i > j) when i != j."""
    ranks = []
    for a, b in ab:
        i, j = index[a], index[b]
        r = j * j + 2 * i + 1 if i < j else i * i + 2 * j + 2 if j < i else i * i
        if r not in table:
            table[r] = kpair(a, b)
        ranks.append(r)
    ranks.sort()
    return _node(tuple(map(table.__getitem__, ranks)))


def goedel_op(i, x, y):
    """Apply basic operation i (0..8) to the pair (x, y)."""
    if not isinstance(i, int) or not 0 <= i <= 8:
        raise PreconditionError(f"operation index {i!r} not an int in 0..8")
    # a product of MAX_ELEMENTS pairs is already refused: 1000 x 1000 takes seconds
    if i in (3, 6) and len(x) * len(y) >= MAX_ELEMENTS:
        raise BudgetError(f"operation {i} would pair {len(x)} by {len(y)} elements (budget {MAX_ELEMENTS})")
    return _GOEDEL_OPS[i](x, y)


def goedel_ext(x):
    """One extension step: all op results over ordered element pairs of x,
    guarded by the element budget MAX_ELEMENTS."""
    n, m = len(x), sum(map(len, x))
    # the op results it makes, and the pairs its products of u and v hold
    if max(n * (4 * n + 5), m * m) > MAX_ELEMENTS:
        raise BudgetError(f"hull step on {n} elements exceeds budget {MAX_ELEMENTS}")
    # operations 0, 4, 5, 7 and 8 read only their first argument
    unary = (op(u, u) for u in x for op in (_g0, _g4, _g5, _g7, _g8))
    binary = (op(u, v) for u in x for v in x for op in (_g1, pair))
    index, table = _index(union(x)), {}  # one table of pairs serves every product
    products = (_pairs(ab, index, table) for u in x for v in x
                for ab in (_inside(u, v), product(u._elems, v._elems)))
    return HFSet(chain(unary, binary, products))


def goedel_hull(x, n):
    """n-fold iterate of the extension step."""
    cur = x
    for _ in range(n):
        nxt = goedel_ext(cur)
        if nxt is cur:  # a fixed point: every later step returns it too
            break
        cur = nxt
    return cur


def goedel_tree_eval(labels, xs):
    """Evaluate the operation composition coded by a labeled full binary tree.

    `labels` holds the vertices' operations (0..8) breadth-first: the root,
    then each level left to right, so level d is labels[2**d - 1 : 2**(d+1) - 1].
    `xs` holds the 2**h leaves left to right, and the tree has 2**h - 1 labels.
    """
    labels, xs = tuple(labels), tuple(xs)
    if not xs or len(xs) & (len(xs) - 1):
        raise PreconditionError(f"the number of leaves must be a power of two, got {len(xs)}")
    if len(labels) != len(xs) - 1:
        raise PreconditionError(f"{len(xs)} leaves need {len(xs) - 1} labels, got {len(labels)}")
    # fold from the leaves up: above 2**k values lies the level with labels
    # [2**(k-1) - 1 : 2**k - 1], and its vertex i joins values 2i and 2i+1
    while len(xs) > 1:
        level = labels[len(xs) // 2 - 1 : len(xs) - 1]
        xs = tuple(goedel_op(lab, xs[2 * i], xs[2 * i + 1]) for i, lab in enumerate(level))
    return xs[0]


def cantor_diagonal(f, x):
    """The diagonal set {z in x : z not in f(z)}; never lies in range(f).

    `f` must map exactly the elements of x to subsets of x.
    """
    if set(f) != set(x.elements):
        raise PreconditionError("domain of f must be the elements of x")
    for z, fz in f.items():
        if not fz.issubset(x):
            raise PreconditionError(f"f({z}) = {fz} is not a subset of {x}")
    return HFSet(z for z in x if z not in f[z])


def ackermann_encode(x):
    """The code sum(2**code(e) for e in x); a bijection onto the naturals.

    Every set of rank <= 5 has a code below |V_6| = 2^65536; a code of more
    than MAX_INT_BITS bits is refused before its shift is attempted."""
    code = {}
    for s in _bottom_up(x):
        n = 0
        for e in s._elems:
            c = code[e]
            if c >= MAX_INT_BITS:
                raise BudgetError(f"the Ackermann code of a rank-{s._rank} set has more than {MAX_INT_BITS} bits")
            n += 1 << c
        code[s] = n
    return code[x]


def ackermann_decode(n):
    if n < 0:
        raise PreconditionError("codes are nonnegative")
    memo = {}

    def rec(m):
        s = memo.get(m)
        if s is None:
            elems = []
            rest = m
            while rest:
                # set bits read upwards give the element codes ascending
                low = rest & -rest
                k = low.bit_length() - 1
                elems.append(_V4[k] if k < 16 else rec(k))
                rest ^= low
            s = memo[m] = _node(tuple(elems))
        return s

    return _V4[n] if n < 16 else rec(n)


def _column(text, tokens, i):
    """Where in `text` the i-th of parse_set's `tokens` is, or past the last
    non-blank character (the CLI strips its lines).  Each '0' among the
    tokens stands for the two characters '{}'."""
    pos = i + tokens.count("0", 0, i)
    places = [j for j, c in enumerate(text) if not c.isspace()]
    return places[pos] if pos < len(places) else len(text.rstrip())


def parse_set(text):
    """Parse the brace syntax, e.g. '{{},{{}}}'.  Whitespace is ignored, and
    an error's column counts in `text` as given."""
    s = "".join(text.split())
    end = len(s) - len(s.lstrip("{},"))  # the first character that is no brace or comma
    tokens = s[:end].replace("{}", "0") + "$"  # '$' is the end of what can be read
    outer = []  # the element lists of the enclosing open braces
    elems = []  # the nodes read so far in the innermost open brace
    built = {}  # a brace's element set -> its node
    after = False  # just after a set
    for i, c in enumerate(tokens):
        if after:
            if not outer:
                if c == "$" and end == len(s):
                    return elems[0]
                raise ParseError("trailing input after set literal", column=_column(text, tokens, i))
            if c == ",":
                after = False
            elif c == "}":
                key = frozenset(elems)
                x = built.get(key)
                if x is None:
                    x = built[key] = _node(tuple(sorted(key)))
                elems = outer.pop()
                elems.append(x)
            else:
                raise ParseError("expected ',' or '}'", column=_column(text, tokens, i), expected=(",", "}"))
        elif c == "0":
            elems.append(_EMPTY)
            after = True
        elif c == "{":
            outer.append(elems)
            elems = []
        else:
            raise ParseError("expected '{'", column=_column(text, tokens, i), expected=("{",))
