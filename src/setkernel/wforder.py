"""Algorithms on finite relations: well-foundedness, rank, recursion,
the Mostowski-Shepherdson collapse, and the Cantor-Bernstein bijection,
which on finite maps is the forward injection itself.

A FinDigraph edge (x, y) reads "x is a strict predecessor of y"; the
predecessor set of x always excludes x itself, so a lone self-loop is
vacuous and such a graph still counts as well-founded.
"""

import json
from collections.abc import Hashable

from . import hfset
from .errors import NotWellFoundedError, NotWellOrderError, PreconditionError


class FinDigraph:
    """A finite directed graph over opaque hashable node ids."""

    __slots__ = ("nodes", "edges", "_preds")

    def __init__(self, nodes, edges=()):
        nodes = frozenset(nodes)
        edges = frozenset((x, y) for x, y in edges)
        for x, y in edges:
            if x not in nodes or y not in nodes:
                raise PreconditionError(f"edge ({x!r}, {y!r}) leaves the node set")
        self.nodes = nodes
        self.edges = edges
        preds = {v: set() for v in nodes}
        for x, y in edges:
            if x != y:
                preds[y].add(x)
        self._preds = {v: frozenset(s) for v, s in preds.items()}

    def preds(self, x):
        """Strict predecessors of x (never contains x)."""
        return self._preds[x]

    def __repr__(self):
        return f"FinDigraph({len(self.nodes)} nodes, {len(self.edges)} edges)"


def digraph_from_edge_text(text):
    """Parse 'a b' edge lines; a single token on a line is an isolated node."""
    nodes = set()
    edges = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            nodes.add(parts[0])
        elif len(parts) == 2:
            nodes.update(parts)
            edges.add((parts[0], parts[1]))
        else:
            raise PreconditionError(f"bad edge line: {raw!r}")
    return FinDigraph(nodes, edges)


def digraph_from_json(obj):
    """Adjacency mapping {node: [successor, ...]}, or its JSON text."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except (ValueError, RecursionError) as exc:  # malformed, or nested too deep
            raise PreconditionError(f"not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise PreconditionError(f"an adjacency mapping is a dict, got {type(obj).__name__}")
    edges = set()
    for x, succs in obj.items():
        if not isinstance(succs, list):
            raise PreconditionError(f"the successors of {x!r} are not a list")
        for y in succs:
            if not isinstance(y, Hashable):
                raise PreconditionError(f"a successor of {x!r} is a {type(y).__name__}, not a node")
            edges.add((x, y))
    # FinDigraph refuses a successor that is not a key: its edge leaves the node set
    return FinDigraph(obj, edges)


def _peel_order(g):
    """Kahn-style peeling of the predecessor structure.

    Returns a topological order of the strict-predecessor relation, or
    None when some nonempty residue has no minimal element (a cycle).
    """
    pending = {v: len(g.preds(v)) for v in g.nodes}
    dependents = {v: [] for v in g.nodes}
    for v in g.nodes:
        for p in g.preds(v):
            dependents[p].append(v)
    ready = [v for v, n in pending.items() if n == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for w in dependents[v]:
            pending[w] -= 1
            if pending[w] == 0:
                ready.append(w)
    if len(order) != len(g.nodes):
        return None
    return order


def is_well_founded(g):
    return _peel_order(g) is not None


def _require_order(g):
    order = _peel_order(g)
    if order is None:
        raise NotWellFoundedError("the strict-predecessor relation has a cycle")
    return order


def rank_map(g):
    """The least strictly increasing labeling: rank(x) = sup(rank(pred)+1)."""
    return recursion_fold(g, lambda v, ranks: max(ranks, default=-1) + 1)


def order_type(g):
    """The order type |nodes| of a strict finite linear order.

    Raises NotWellOrderError naming the first violated axiom with a
    concrete witness tuple.  Node i in `repr` order is bit i of the
    successor sets, and each witness is the first in that order, so it
    does not depend on the hash seed.
    """
    nodes = sorted(g.nodes, key=repr)
    for x in nodes:
        if (x, x) in g.edges:
            raise NotWellOrderError("irreflexivity", (x,))
    index = {v: i for i, v in enumerate(nodes)}
    succ = [0] * len(nodes)
    pred = [0] * len(nodes)
    for x, y in g.edges:
        succ[index[x]] |= 1 << index[y]
        pred[index[y]] |= 1 << index[x]
    for i, s in enumerate(succ):
        rest = s
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            # x < y < z without x < z; z = x is a 2-cycle, left to antisymmetry
            bad = succ[j] & ~s & ~(1 << i)
            if bad:
                k = (bad & -bad).bit_length() - 1
                raise NotWellOrderError("transitivity", (nodes[i], nodes[j], nodes[k]))
    full = (1 << len(nodes)) - 1
    for i in range(len(nodes)):
        later = full >> (i + 1) << (i + 1)
        neither = later & ~succ[i] & ~pred[i]
        both = later & succ[i] & pred[i]
        first = (neither | both) & -(neither | both)
        if first:
            axiom = "totality" if first & neither else "antisymmetry"
            raise NotWellOrderError(axiom, (nodes[i], nodes[first.bit_length() - 1]))
    return len(nodes)


def recursion_fold(g, step):
    """The unique map with value(x) = step(x, image of values on preds).

    The second argument of `step` is the image set (a frozenset), exactly
    as in the defining equation, so step results must be hashable.  The
    result does not depend on which topological order the fold uses.
    """
    values = {}
    for v in _require_order(g):
        values[v] = step(v, frozenset(values[p] for p in g.preds(v)))
    return values


def mostowski(g):
    """Collapse a well-founded digraph to sets: f(x) = {f(y) : y pred x}.

    Returns (image map, is_iso); is_iso is True exactly when g is
    extensional, and then f is a digraph isomorphism onto its range with
    the membership relation.
    """
    image = recursion_fold(g, lambda v, elems: hfset.HFSet(elems))
    is_iso = len(set(image.values())) == len(g.nodes)
    return image, is_iso


def cbs_bijection(f, g):
    """The Cantor-Bernstein bijection X -> Y built from injections
    f: X -> Y and g: Y -> X, given as finite maps.

    On finite maps it is f itself.  f injects X into Y and g injects Y into
    X, so |X| <= |Y| <= |X|; an injection between finite sets of one size
    is onto, so f is a bijection.  In the layering X_0 = X, X_1 = g[Y],
    X_{n+2} = g[f[X_n]] every layer is then X: every x lies in the core,
    where the construction applies f.
    """
    f = dict(f)
    g = dict(g)
    if len(set(f.values())) != len(f):
        raise PreconditionError("f is not injective")
    if len(set(g.values())) != len(g):
        raise PreconditionError("g is not injective")
    if not set(f.values()) <= set(g):
        raise PreconditionError("f must map into the domain of g")
    if not set(g.values()) <= set(f):
        raise PreconditionError("g must map into the domain of f")
    return f
