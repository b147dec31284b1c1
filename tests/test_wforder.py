import itertools
import random
import time

import pytest

from setkernel import hfset
from setkernel.errors import NotWellFoundedError, NotWellOrderError, PreconditionError
from setkernel.hfset import HFSet
from setkernel.wforder import (
    FinDigraph,
    cbs_bijection,
    digraph_from_edge_text,
    digraph_from_json,
    is_well_founded,
    mostowski,
    order_type,
    rank_map,
    recursion_fold,
)

from helpers import rand_hfset


def chain(*names):
    return FinDigraph(names, list(zip(names, names[1:])))


def test_well_foundedness_examples():
    assert is_well_founded(FinDigraph((), ()))
    assert not is_well_founded(FinDigraph("abc", [("a", "b"), ("b", "c"), ("c", "a")]))
    assert is_well_founded(FinDigraph("a", [("a", "a")]))  # loops are vacuous
    assert is_well_founded(chain("a", "b", "c"))
    assert not is_well_founded(FinDigraph("ab", [("a", "b"), ("b", "a")]))


def test_rank_examples():
    assert rank_map(chain("a", "b", "c")) == {"a": 0, "b": 1, "c": 2}
    assert rank_map(FinDigraph("xyz", ())) == {"x": 0, "y": 0, "z": 0}
    diamond = FinDigraph("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    assert rank_map(diamond) == {"a": 0, "b": 1, "c": 1, "d": 2}
    with pytest.raises(NotWellFoundedError):
        rank_map(FinDigraph("ab", [("a", "b"), ("b", "a")]))


def brute_force_min_increasing(g):
    """Pointwise minimum over every increasing labeling bounded by |nodes|."""
    nodes = sorted(g.nodes, key=repr)
    n = len(nodes)
    best = {v: n for v in nodes}
    hits = 0
    for combo in itertools.product(range(n), repeat=n):
        label = dict(zip(nodes, combo))
        ok = all(label[x] < label[y] for x, y in g.edges if x != y)
        if ok:
            hits += 1
            for v in nodes:
                best[v] = min(best[v], label[v])
    assert hits > 0
    return best


def pruned_min_increasing(g):
    """Same search with partial-assignment pruning, for larger carriers."""
    nodes = sorted(g.nodes, key=repr)
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    inc = [[] for _ in range(n)]
    out = [[] for _ in range(n)]
    for x, y in g.edges:
        if x != y:
            out[idx[x]].append(idx[y])
            inc[idx[y]].append(idx[x])
    best = [n] * n
    assign = [0] * n

    def rec(i):
        if i == n:
            for v in range(n):
                best[v] = min(best[v], assign[v])
            return
        for val in range(n):
            if all(assign[u] < val for u in inc[i] if u < i) and all(
                val < assign[w] for w in out[i] if w < i
            ):
                assign[i] = val
                rec(i + 1)

    rec(0)
    return {v: best[idx[v]] for v in nodes}


def test_rank_is_pointwise_minimal_bruteforce():
    rng = random.Random(83)
    for _ in range(20):
        n = rng.randint(1, 6)
        names = [f"n{i}" for i in range(n)]
        edges = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        g = FinDigraph(names, edges)
        brute = brute_force_min_increasing(g)
        assert pruned_min_increasing(g) == brute
        assert rank_map(g) == brute
    # larger carriers need denser edges to keep the enumeration pruned
    for _ in range(8):
        n = rng.randint(7, 8)
        names = [f"n{i}" for i in range(n)]
        edges = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.7
        ]
        g = FinDigraph(names, edges)
        assert rank_map(g) == pruned_min_increasing(g)


def test_rank_is_increasing():
    rng = random.Random(89)
    for _ in range(40):
        n = rng.randint(1, 8)
        names = list(range(n))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        g = FinDigraph(names, edges)
        ranks = rank_map(g)
        for x, y in g.edges:
            if x != y:
                assert ranks[x] < ranks[y]


def test_order_type():
    assert order_type(FinDigraph((), ())) == 0
    lin = FinDigraph("pqr", [("p", "q"), ("q", "r"), ("p", "r")])
    assert order_type(lin) == 3
    assert rank_map(lin) == {"p": 0, "q": 1, "r": 2}
    with pytest.raises(NotWellOrderError) as exc:
        order_type(FinDigraph("pqr", [("p", "q"), ("q", "r")]))
    assert exc.value.axiom == "transitivity"
    assert exc.value.witness == ("p", "q", "r")
    # several transitivity failures; the witness is the first in repr
    # order under every hash seed
    with pytest.raises(NotWellOrderError) as exc:
        order_type(FinDigraph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "c"), ("b", "d")]))
    assert exc.value.axiom == "transitivity"
    assert exc.value.witness == ("a", "b", "d")
    with pytest.raises(NotWellOrderError) as exc:
        order_type(FinDigraph("pq", ()))
    assert exc.value.axiom == "totality"
    with pytest.raises(NotWellOrderError) as exc:
        order_type(FinDigraph("pq", [("p", "q"), ("q", "p")]))
    assert (exc.value.axiom, exc.value.witness) == ("antisymmetry", ("p", "q"))
    with pytest.raises(NotWellOrderError) as exc:
        order_type(FinDigraph("p", [("p", "p")]))
    assert exc.value.axiom == "irreflexivity"


def test_order_type_of_a_long_linear_order():
    n = 300
    g = FinDigraph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])
    start = time.perf_counter()
    assert order_type(g) == n
    assert time.perf_counter() - start < 1.0


def test_recursion_fold_examples():
    g = chain("a", "b", "c")
    sizes = recursion_fold(g, lambda x, s: len(s))
    assert sizes == {"a": 0, "b": 1, "c": 1}
    ranks = recursion_fold(g, lambda x, s: max(s) + 1 if s else 0)
    assert ranks == rank_map(g)
    const = recursion_fold(g, lambda x, s: 42)
    assert const == {"a": 42, "b": 42, "c": 42}
    with pytest.raises(NotWellFoundedError):
        recursion_fold(FinDigraph("ab", [("a", "b"), ("b", "a")]), lambda x, s: 0)


def test_recursion_fold_traversal_independent():
    rng = random.Random(97)
    for _ in range(20):
        n = rng.randint(2, 7)
        names = [f"v{i}" for i in range(n)]
        edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        g1 = FinDigraph(names, edges)
        g2 = FinDigraph(reversed(names), edges)  # different peel order
        step = lambda x, s: (len(s), max(s, default=(0, 0)))
        assert recursion_fold(g1, step) == recursion_fold(g2, step)


def membership_digraph(x):
    """The membership digraph on the elements of a transitive set."""
    nodes = list(x.elements)
    edges = [(u, v) for u in nodes for v in nodes if u in v]
    return FinDigraph(nodes, edges)


def test_mostowski_on_transitive_sets_is_identity():
    rng = random.Random(101)
    for _ in range(30):
        x = hfset.tc(rand_hfset(rng, 4))
        image, is_iso = mostowski(membership_digraph(x))
        assert is_iso
        for node, val in image.items():
            assert val == node


def test_mostowski_linear_order_gives_naturals():
    lin = FinDigraph("pqr", [("p", "q"), ("q", "r"), ("p", "r")])
    image, is_iso = mostowski(lin)
    assert is_iso
    assert image == {"p": hfset.vn_nat(0), "q": hfset.vn_nat(1), "r": hfset.vn_nat(2)}


def test_mostowski_non_extensional():
    g = FinDigraph("abz", [("a", "z"), ("b", "z")])
    image, is_iso = mostowski(g)
    assert not is_iso
    assert image["a"] == hfset.empty()
    assert image["b"] == hfset.empty()
    assert image["z"] == hfset.singleton(hfset.empty())


def test_mostowski_image_transitive_and_fixpoint():
    rng = random.Random(103)
    for _ in range(20):
        n = rng.randint(1, 8)
        names = list(range(n))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        g = FinDigraph(names, edges)
        image, _ = mostowski(g)
        # defining equation, re-checked directly in a different order
        for v in sorted(g.nodes, key=repr, reverse=True):
            assert image[v] == HFSet(image[p] for p in g.preds(v))
        # the range is a transitive family: elements of images are images
        range_set = HFSet(image.values())
        for val in image.values():
            assert val.issubset(range_set)
        # idempotence: collapsing the image digraph reproduces the images
        nodes = list(set(image.values()))
        g2 = FinDigraph(nodes, [(u, v) for u in nodes for v in nodes if u in v])
        image2, iso2 = mostowski(g2)
        assert iso2
        assert all(image2[v] == v for v in nodes)


def test_cbs_identity_and_example():
    ident = {i: i for i in range(5)}
    assert cbs_bijection(ident, ident) == ident
    f = {0: "a", 1: "b", 2: "c"}
    g = {"a": 1, "b": 2, "c": 0}
    h = cbs_bijection(f, g)
    # every x survives all layers here, so H = f on the core
    assert h == f


def test_cbs_layer_formula_explicit():
    # X = {0,1,2,3}, Y = {a,b}: g[Y] misses 2 and 3
    f = {0: "a", 1: "b", 2: "a", 3: "b"}
    with pytest.raises(PreconditionError):
        cbs_bijection(f, {"a": 0, "b": 1})  # f not injective
    f = {0: "a", 1: "b"}
    g = {"a": 1, "b": 0}
    h = cbs_bijection(f, g)
    assert sorted(h) == [0, 1]
    assert sorted(h.values()) == ["a", "b"]


def test_cbs_random_bijections():
    rng = random.Random(107)
    for _ in range(60):
        nx = rng.randint(1, 12)
        ny = nx  # total injections both ways force equal size
        xs = [f"x{i}" for i in range(nx)]
        ys = [f"y{i}" for i in range(ny)]
        f = dict(zip(xs, rng.sample(ys, nx)))
        g = dict(zip(ys, rng.sample(xs, ny)))
        h = cbs_bijection(f, g)
        assert sorted(h) == sorted(xs)
        assert sorted(h.values()) == sorted(ys)
        for x, y in h.items():
            assert (x in f and f[x] == y) or (y in g and g[y] == x)


def test_digraph_parsing():
    g = digraph_from_edge_text("a b\nb c\n\nd\n# comment\n")
    assert g.nodes == {"a", "b", "c", "d"}
    assert g.edges == {("a", "b"), ("b", "c")}
    g2 = digraph_from_json({"a": ["b"], "b": []})
    assert g2.edges == {("a", "b")}
    with pytest.raises(PreconditionError):
        FinDigraph("a", [("a", "b")])


@pytest.mark.parametrize(
    "text",
    ["{", "[1]", '{"a": 3}', '{"a": "b"}', '{"a": [["b"]]}', "[" * 100000, '{"1": [2], "2": []}'],
    ids=[
        "malformed",
        "not-a-mapping",
        "successors-not-a-list",
        "successors-a-string",
        "unhashable-successor",
        "deep",
        "successor-not-a-key",
    ],
)
def test_digraph_from_json_refuses_bad_payloads(text):
    with pytest.raises(PreconditionError):
        digraph_from_json(text)
