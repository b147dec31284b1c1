import copy
import gc
import itertools
import operator
import pickle
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from setkernel import hfset, numtower, wforder
from setkernel.errors import MAX_INT_BITS, BudgetError, ParseError, PreconditionError
from setkernel.hfset import (
    HFSet,
    ackermann_decode,
    ackermann_encode,
    cantor_diagonal,
    empty,
    goedel_ext,
    goedel_hull,
    goedel_op,
    goedel_tree_eval,
    kpair,
    kpair_split,
    nat_of,
    pair,
    parse_set,
    power,
    rank_in,
    singleton,
    tc,
    triple,
    union,
    v_size,
    v_stage,
    vn_nat,
)

from helpers import (
    GOEDEL_FS_OPS,
    all_sets_of_rank_at_most,
    code_oracle,
    from_frozen,
    fs_kpair,
    fs_triple,
    goedel_ext_oracle,
    parse_set_oracle,
    power_oracle,
    rand_hfset,
    saturate,
    to_frozen,
)

E = empty()
ONE = singleton(E)  # von Neumann 1
TWO = vn_nat(2)


def test_pair_examples():
    assert pair(E, E) == singleton(E)
    assert pair(E, ONE) == TWO
    x, y = ONE, singleton(ONE)
    assert pair(x, y) == pair(y, x)


def test_kpair_structure():
    assert kpair(E, ONE) == HFSet([singleton(E), pair(E, ONE)])
    x = singleton(ONE)
    assert kpair(x, x) == singleton(singleton(x))


def test_kpair_decode_roundtrip_rank3():
    universe = all_sets_of_rank_at_most(3)
    assert len(universe) == 16
    for x in universe:
        for y in universe:
            assert kpair_split(kpair(x, y)) == (x, y)


def test_kpair_characteristic_property():
    # <x,y> = <u,v> iff x=u and y=v, checked over a small universe
    universe = all_sets_of_rank_at_most(2)
    pairs = [(x, y, kpair(x, y)) for x in universe for y in universe]
    for x, y, p in pairs:
        for u, v, q in pairs:
            assert (p == q) == (x == u and y == v)


def test_union_power_diff_inter():
    assert union(singleton(TWO)) == TWO
    assert power(TWO) == HFSet([E, singleton(E), singleton(ONE), TWO])
    assert power(TWO) == power_oracle(TWO)
    x = rand_hfset(random.Random(7), 4)
    assert x - x == E
    assert x & x == x
    assert union(pair(x, x)) == union(singleton(x))


def test_power_matches_oracle_random():
    rng = random.Random(2024)
    for _ in range(30):
        x = rand_hfset(rng, 3, max_width=4)
        assert power(x) == power_oracle(x)


def test_power_budget(monkeypatch):
    big = HFSet(vn_nat(i) for i in range(25))
    with pytest.raises(BudgetError):
        power(big)
    small = HFSet(vn_nat(i) for i in range(3))
    monkeypatch.setattr(hfset, "MAX_ELEMENTS", 7)
    with pytest.raises(BudgetError):
        power(small)
    monkeypatch.setattr(hfset, "MAX_ELEMENTS", 8)
    assert len(power(small)) == 8
    # vn_nat(n) holds 0 + 1 + ... + (n - 1) = n(n - 1)/2 elements in all
    assert len(vn_nat(4)) == 4
    with pytest.raises(BudgetError):
        vn_nat(5)
    monkeypatch.undo()
    assert len(vn_nat(1414)) == 1414
    for f, n in ((vn_nat, 1415), (vn_nat, 10 ** 7), (vn_nat, 10 ** 40), (numtower.z_encode, 10 ** 40)):
        start = time.perf_counter()
        with pytest.raises(BudgetError):
            f(n)
        assert time.perf_counter() - start < 0.1


def test_tc_examples():
    assert tc(singleton(ONE)) == HFSet([ONE, E])
    for n in range(7):
        assert tc(vn_nat(n)) == vn_nat(n)  # naturals are transitive
    x, y = TWO, singleton(TWO)
    t = tc(kpair(x, y))
    lower = HFSet([singleton(x), pair(x, y)]) | tc(x | y)
    assert lower.issubset(t)


def test_tc_oracle_and_laws():
    rng = random.Random(11)
    for _ in range(60):
        x = rand_hfset(rng, 4)
        y = rand_hfset(rng, 4)
        t = tc(x)
        assert t == saturate(x)
        assert tc(t) == t
        assert t.is_transitive()
        assert tc(x | y) == tc(x) | tc(y)


def test_tc_stabilizes_within_rank_steps():
    rng = random.Random(13)
    for _ in range(40):
        x = rand_hfset(rng, 5)
        steps = 0
        cur = x
        while True:
            nxt = cur | union(cur)
            if nxt == cur:
                break
            cur = nxt
            steps += 1
        assert steps <= rank_in(x)
        assert cur == tc(x)


def test_vn_nat_and_nat_of():
    assert vn_nat(0) == E
    assert vn_nat(3) == HFSet([E, ONE, TWO])
    assert nat_of(singleton(ONE)) is None  # {{0}} is not transitive
    for n in range(12):
        assert nat_of(vn_nat(n)) == n


def test_rank_examples():
    assert rank_in(E) == 0
    for n in range(7):
        assert rank_in(vn_nat(n)) == n
    assert rank_in(singleton(ONE)) == 2


def test_v_stage_and_size():
    assert [v_size(n) for n in range(6)] == [0, 1, 2, 4, 16, 65536]
    assert v_stage(2) == TWO
    assert v_stage(4) == power(v_stage(3))
    for x in v_stage(4):
        assert rank_in(x) < 4
    assert v_size(6) == 1 << 65536
    with pytest.raises(BudgetError):
        v_stage(5)
    with pytest.raises(BudgetError):
        v_size(7)
    with pytest.raises(BudgetError):
        v_size(10 ** 9)
    with pytest.raises(BudgetError):
        v_stage(10 ** 9)


def test_goedel_op_examples():
    assert goedel_op(2, E, ONE) == TWO
    assert goedel_op(3, TWO, TWO) == singleton(kpair(E, ONE))
    a, b, c = E, ONE, TWO
    assert goedel_op(8, singleton(triple(a, b, c)), E) == singleton(triple(c, a, b))
    assert goedel_op(0, ONE, TWO) == ONE
    assert goedel_op(7, singleton(TWO), E) == TWO


@pytest.mark.parametrize("label", ["a", None, 1.5])
def test_goedel_op_refuses_a_label_that_is_not_an_int(label):
    with pytest.raises(PreconditionError):
        goedel_op(label, E, E)
    with pytest.raises(PreconditionError):
        goedel_tree_eval((label,), (E, E))


def test_goedel_range_via_dom_of_inverse():
    # rng[x] = dom[x^-1], the standard derived operation
    rng = random.Random(3)
    universe = all_sets_of_rank_at_most(2)
    for _ in range(20):
        rel = HFSet(
            kpair(rng.choice(universe), rng.choice(universe)) for _ in range(rng.randint(0, 5))
        )
        expected = HFSet(kpair_split(e)[1] for e in rel)
        assert goedel_op(5, goedel_op(4, rel, E), E) == expected


def test_goedel_ext_small():
    assert goedel_ext(E) == E
    # single element pair (0,0): ops give 0 and {0}, nothing else
    assert goedel_ext(singleton(E)) == HFSet([E, singleton(E)])
    assert goedel_hull(singleton(TWO), 0) == singleton(TWO)


def test_goedel_ext_agrees_with_frozenset_oracle():
    rng = random.Random(6)
    atoms = [to_frozen(s) for s in all_sets_of_rank_at_most(2)]
    # operations 4, 5 and 8 are empty except on sets of pairs or triples
    hits = dict.fromkeys((4, 5, 8), 0)
    for _ in range(25):
        members = [rng.choice(atoms) for _ in range(rng.randint(0, 2))]
        for _ in range(rng.randint(1, 4)):
            # a relation: some ordered pairs and triples of atoms, perhaps an atom
            rel = [fs_kpair(rng.choice(atoms), rng.choice(atoms)) for _ in range(rng.randint(0, 3))]
            rel += [fs_triple(*rng.sample(atoms, 3)) for _ in range(rng.randint(0, 2))]
            rel += rng.sample(atoms, rng.randint(0, 1))
            members.append(frozenset(rel))
        x = frozenset(members)
        for i in hits:
            hits[i] += any(GOEDEL_FS_OPS[i](u, u) for u in x)
        assert to_frozen(goedel_ext(from_frozen(x))) == goedel_ext_oracle(x)
    assert min(hits.values()) >= 10


def test_goedel_hull_monotone():
    x = HFSet([E, ONE])
    h1 = goedel_hull(x, 1)
    h2 = goedel_hull(x, 2)
    assert x.issubset(h1)
    assert h1.issubset(h2)
    assert goedel_ext(h1) == h2


def test_goedel_hull_stops_at_a_fixed_point():
    for n in (10 ** 6, 10 ** 40):
        start = time.perf_counter()
        assert goedel_hull(E, n) is E
        assert time.perf_counter() - start < 0.1


def test_goedel_hull_budget(monkeypatch):
    x = v_stage(3)
    monkeypatch.setattr(hfset, "MAX_ELEMENTS", 500)
    with pytest.raises(BudgetError):
        goedel_hull(x, 4)


def test_goedel_hull_budget_counts_the_results_of_a_step(monkeypatch):
    # a step on n elements makes 4*n^2 + 5*n op results: 1700 for n = 20
    x = vn_nat(20)
    # so the step's result never outgrows the budget its count passed
    assert len(goedel_ext(x)) <= 20 * (4 * 20 + 5)
    # its products hold (sum of |u| for u in x)^2 pairs: 190^2 = 36100, the larger count
    monkeypatch.setattr(hfset, "MAX_ELEMENTS", 36100)
    assert goedel_hull(x, 1) is goedel_ext(x)
    monkeypatch.setattr(hfset, "MAX_ELEMENTS", 36099)
    with pytest.raises(BudgetError, match="hull step on 20 elements exceeds budget 36099"):
        goedel_hull(x, 1)


def test_goedel_products_are_the_sorted_sets_of_pairs():
    # operations 3 and 6 order their pairs by rank, with no comparison sort
    rng = random.Random(19)
    cases = []
    for _ in range(300):
        x, y, z = (rand_hfset(rng, rng.randint(1, 5), max_width=5) for _ in range(3))
        cases += [(x, x), (x - y, y - x), (x | z, y | z)]  # a = b, disjoint, overlapping
    assert max(rank_in(u) for u, _ in cases) == 5
    assert all(not u & v for u, v in cases[1::3])
    assert sum(bool(u and v) for u, v in cases[1::3]) >= 50
    assert sum(bool(u & v) and u is not v for u, v in cases[2::3]) >= 100
    for x, y in cases:
        assert goedel_op(6, x, y) is HFSet(kpair(a, b) for a in x for b in y)
        assert goedel_op(3, x, y) is HFSet(kpair(a, b) for a in x for b in y if a in b)


def test_goedel_ext_builds_each_product_pair_once(monkeypatch):
    # no element of x holds a pair or triple, so operations 4 and 8 make no pair
    x = HFSet([vn_nat(5), vn_nat(3), pair(TWO, vn_nat(4)), singleton(vn_nat(4))])
    calls = []
    real = hfset.kpair
    monkeypatch.setattr(hfset, "kpair", lambda a, b: calls.append((a, b)) or real(a, b))
    result = goedel_ext(x)
    elems = union(x).elements
    # one call per pair over the union; the products visit (5 + 3 + 2 + 1)^2 = 121
    assert len(calls) == len(set(calls)) == len(elems) ** 2 == 25
    assert set(calls) == {(a, b) for a in elems for b in elems}
    calls.clear()
    assert len(goedel_op(6, vn_nat(5), TWO)) == len(calls) == 10
    monkeypatch.undo()
    assert to_frozen(result) == goedel_ext_oracle(to_frozen(x))


def test_goedel_product_budgets_refuse_at_once():
    # 1000 x 1000 pairs for one product, 79,800^2 for the products of a step
    big, n400 = vn_nat(1000), vn_nat(400)
    for run in (lambda: goedel_op(6, big, big), lambda: goedel_op(3, big, big),
                lambda: goedel_tree_eval((6,), (big, big)), lambda: goedel_ext(n400),
                lambda: goedel_hull(n400, 1)):
        start = time.perf_counter()
        with pytest.raises(BudgetError):
            run()
        assert time.perf_counter() - start < 0.1


def test_goedel_tree_eval_clauses():
    a, b = ONE, TWO
    assert goedel_tree_eval((), (a,)) == a
    assert goedel_tree_eval((2,), (a, b)) == pair(a, b)
    # breadth-first: the root, then its left and right children
    assert goedel_tree_eval((2, 0, 7), (a, b, singleton(b), E)) == pair(a, union(singleton(b)))
    with pytest.raises(PreconditionError):
        goedel_tree_eval((2,), (a,))
    with pytest.raises(PreconditionError):
        goedel_tree_eval((2,), (a, b, E, E))


def test_tree_coding_matches_extension_at_height_1():
    # union over all 9 root labels of images of x^2 equals one ext step
    for x in (singleton(E), HFSet([E, ONE]), HFSet([ONE, TWO])):
        results = []
        for lab in range(9):
            for u in x:
                for v in x:
                    results.append(goedel_tree_eval((lab,), (u, v)))
        assert HFSet(results) == goedel_ext(x)


def test_cantor_diagonal():
    assert cantor_diagonal({}, E) == E
    f = {E: singleton(E), ONE: singleton(ONE)}
    assert cantor_diagonal(f, TWO) == E
    rng = random.Random(5)
    for size in (5, 6):
        x = vn_nat(size)
        for _ in range(25):
            f = {z: HFSet(e for e in x if rng.random() < 0.5) for z in x}
            a = cantor_diagonal(f, x)
            assert a.issubset(x)
            assert all(a != fz for fz in f.values())
    with pytest.raises(PreconditionError):
        cantor_diagonal({E: singleton(TWO)}, singleton(E))


def test_ackermann_encode_examples():
    assert ackermann_encode(E) == 0
    assert ackermann_encode(ONE) == 1
    assert ackermann_encode(singleton(ONE)) == 2
    assert ackermann_encode(TWO) == 3


def test_ackermann_encode_caps_code_bits():
    # the largest shift that still fits: V_4 has code 2^16 - 1
    top = singleton(v_stage(4))
    assert ackermann_encode(top) == 1 << (MAX_INT_BITS - 1)
    assert ackermann_decode(ackermann_encode(top)) is top
    for x in (vn_nat(6), singleton(top), _singleton_chain(5000)):
        with pytest.raises(BudgetError):
            ackermann_encode(x)


def test_ackermann_bijection_exhaustive():
    # encode(decode(n)) == n for every code below |V_5| = 2^16
    for n in range(1 << 16):
        assert ackermann_encode(ackermann_decode(n)) == n


def test_ackermann_roundtrip_structured():
    rng = random.Random(17)
    for _ in range(50):
        x = rand_hfset(rng, 4, max_width=4)
        assert ackermann_decode(ackermann_encode(x)) == x


def test_canonical_order_is_code_order():
    rng = random.Random(23)
    for _ in range(80):
        x = rand_hfset(rng, 4)
        y = rand_hfset(rng, 4)
        assert (x < y) == (ackermann_encode(x) < ackermann_encode(y))
        assert (x == y) == (ackermann_encode(x) == ackermann_encode(y))
    universe = all_sets_of_rank_at_most(3)
    for x, y in itertools.product(universe, repeat=2):
        cx, cy = ackermann_encode(x), ackermann_encode(y)
        assert (x < y) == (cx < cy)
        assert (x == y) == (cx == cy)
        assert (x <= y, x > y, x >= y) == (cx <= cy, cx > cy, cx >= cy)
        assert (x in y) == bool(cy >> cx & 1)
    shuffled = list(universe)
    rng.shuffle(shuffled)
    assert [ackermann_encode(x) for x in sorted(shuffled)] == list(range(16))
    # equal ranks are where the order must look past the rank
    same_rank = 0
    while same_rank < 80:
        x = rand_hfset(rng, 4)
        y = rand_hfset(rng, 4)
        if rank_in(x) != rank_in(y):
            continue
        same_rank += 1
        assert (x < y) == (ackermann_encode(x) < ackermann_encode(y))
        assert (x == y) == (ackermann_encode(x) == ackermann_encode(y))


def test_element_order_ascending():
    rng = random.Random(29)
    for _ in range(40):
        x = rand_hfset(rng, 4, max_width=5)
        codes = [ackermann_encode(e) for e in x]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)


def test_sort_free_builders_keep_the_canonical_order():
    # every builder that skips the sort, on inputs that reach each case
    rng = random.Random(37)
    codes = list(range(1 << 16)) + [rng.randrange(1 << 20) for _ in range(400)]
    naturals = [vn_nat(n) for n in range(41)]
    some = [ackermann_decode(rng.randrange(1 << 16)) for _ in range(40)] + naturals[:6]
    built = [ackermann_decode(c) for c in codes] + naturals
    built += [power(ackermann_decode(c)) for c in (0, 1, 3, 7, 11, 0b1011001, 0b11010110100100110001)]
    built += [v_stage(n) for n in range(5)]
    for x, y, z in zip(some, rng.sample(some, len(some)), rng.sample(some, len(some))):
        built += [kpair(x, y), kpair(x, x), triple(x, y, z), triple(x, x, x), (x | y) & x, (x | y) - y, x - x]
        built += [singleton(x), pair(x, y), pair(x, x)]
    for n in range(-12, 13):
        built += [numtower.z_encode(n)] + [numtower.q_encode(numtower.Frac(n, d)) for d in range(1, 7)]
    # the sets of rank <= 4, built by sorting; rank(x) <= 5 exactly when
    # every element of x is one of them, which bounds every code below
    v5 = set(all_sets_of_rank_at_most(4))
    memo = {}
    for ref in list(hfset._INTERN.values()):
        x = ref()
        if x is not None and all(e in v5 for e in x):
            elem_codes = [code_oracle(e, memo) for e in x]
            assert all(a < b for a, b in zip(elem_codes, elem_codes[1:]))
    for x in built:
        elems = list(x)
        rng.shuffle(elems)
        assert HFSet(elems) is x
    for c in codes:
        assert code_oracle(ackermann_decode(c), memo) == c


def test_builders_refuse_non_sets():
    for build in (lambda: HFSet([E, 3]), lambda: singleton(3), lambda: pair(E, 3), lambda: pair(3, 3),
                  lambda: kpair(3, E), lambda: triple(E, E, "x")):
        with pytest.raises(TypeError):
            build()


def test_operators_refuse_non_sets():
    s = vn_nat(3)
    for other in (5, "x", None, [E], (E,), frozenset([E])):
        assert other not in s and other not in E
        for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.or_, operator.and_, operator.sub):
            with pytest.raises(TypeError):
                op(s, other)
            with pytest.raises(TypeError):
                op(other, s)
    assert E in s and s not in s and not E < E and E <= E and s > E and s >= s


def test_parse_and_print():
    assert str(E) == "{}"
    assert str(TWO) == "{{},{{}}}"
    assert parse_set(" { { } , { { } } } ") == TWO
    rng = random.Random(31)
    for _ in range(50):
        x = rand_hfset(rng, 4, max_width=4)
        assert parse_set(str(x)) == x
    with pytest.raises(ParseError):
        parse_set("{,}")
    with pytest.raises(ParseError):
        parse_set("{}{}")


def test_parse_error_columns_count_in_the_text_as_given():
    # an error at the end lies just past the last non-blank character
    for text, column in (("{ {} , }", 7), ("{ { } ", 5), ("  {{}", 5), (" {} {} ", 4), ("\t{,}", 2), ("  ", 0)):
        with pytest.raises(ParseError) as exc:
            parse_set(text)
        assert exc.value.column == column, text


def _shuffled_literal(x, rng):
    """A literal for x with shuffled elements, repeats and spaces."""
    items = list(x)
    rng.shuffle(items)
    if items:
        items.insert(rng.randrange(len(items) + 1), rng.choice(items))
    return "{" + " , ".join(_shuffled_literal(e, rng) for e in items) + " }"


def _assert_parses_like_oracle(text):
    want = parse_set_oracle(text)
    try:
        got = to_frozen(parse_set(text))
    except ParseError as e:
        got = (str(e), e.column, e.expected)
        if not isinstance(want, frozenset):
            message, column, expected = want
            want = (str(ParseError(message, column=column, expected=expected)), column, expected)
    assert got == want, text


def test_parse_agrees_with_reference_reader():
    for n in range(8):
        for chars in itertools.product("{},x", repeat=n):
            _assert_parses_like_oracle("".join(chars))
    rng = random.Random(8)
    for _ in range(3000):
        noise = "".join(rng.choice("{}, x\t") for _ in range(rng.randint(0, 30)))
        literal = list(_shuffled_literal(rand_hfset(rng, 4, max_width=3), rng))
        for _ in range(rng.randint(0, 2)):
            literal.insert(rng.randint(0, len(literal)), rng.choice("{}, x"))
        _assert_parses_like_oracle(noise)
        _assert_parses_like_oracle("".join(literal))


def test_parse_agrees_with_reference_reader_on_blanks_and_digits():
    # parse_set reads '{}' as one token internally; a '0' in the text is
    # still a character that no literal holds
    for n in range(8):
        for chars in itertools.product("{} ,0", repeat=n):
            _assert_parses_like_oracle("".join(chars))


def test_parse_builds_each_distinct_set_once(monkeypatch):
    calls = []

    def counting_node(elems):
        calls.append(elems)
        return node(elems)

    rng = random.Random(20)
    v5 = vn_nat(5)
    text = "{" + ",".join(_shuffled_literal(v5, rng) for _ in range(20)) + "}"
    node = hfset._node
    monkeypatch.setattr(hfset, "_node", counting_node)
    x = parse_set(text)
    # 1, 2, 3, 4, 5 and {5}: one call each, whatever order their elements come in
    assert len(calls) == 6
    assert len(set(calls)) == 6
    assert x is singleton(v5)


def test_parse_reads_deep_chains_with_blanks():
    depth = 5000
    x = _singleton_chain(depth)
    assert parse_set("{ " * depth + "{ }" + " }" * depth) is x
    with pytest.raises(ParseError) as exc:
        parse_set("{ " * depth + "{ }" + " }" * (depth - 1))
    assert exc.value.column == 4 * depth + 1  # just past the last '}'


def test_parse_of_shuffled_literals_keeps_no_node_alive():
    rng = random.Random(9)
    v9 = vn_nat(9)
    assert parse_set(_shuffled_literal(v9, rng)) is v9
    text = _shuffled_literal(HFSet([vn_nat(10), singleton(vn_nat(11))]), rng)
    gc.collect()
    before = len(hfset._INTERN)
    x = parse_set(text)
    assert len(hfset._INTERN) > before
    assert nat_of(x.elements[0]) == 10
    del x
    gc.collect()
    assert len(hfset._INTERN) == before


def _singleton_chain(depth):
    x = E
    for _ in range(depth):
        x = singleton(x)
    return x


def test_equal_sets_are_one_node():
    for n in range(12):
        nodes = [f"c{i}" for i in range(n + 2)]
        chain = wforder.FinDigraph(nodes, [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]])
        image, _ = wforder.mostowski(chain)
        v = vn_nat(n)
        assert vn_nat(n) is v
        assert image[f"c{n}"] is v
        assert numtower.z_encode(n) is v
        assert parse_set(str(v)) is v
    assert parse_set("{{{}},{}}") is pair(E, ONE)


def test_deep_chains_at_default_recursion_limit():
    depth = 5000
    assert depth > sys.getrecursionlimit()
    x = _singleton_chain(depth)
    y = _singleton_chain(depth)
    assert (x == y) is True
    assert (x < y) is False
    assert x <= y and x >= y and not x > y
    assert x in singleton(x)
    assert rank_in(x) == depth
    assert _singleton_chain(depth - 1) < x
    # equal ranks: the walk goes down depth - 2 levels to {{0}} < {0,{0}}
    low, high = singleton(ONE), TWO
    for _ in range(depth - 2):
        low, high = singleton(low), singleton(high)
    assert rank_in(low) == rank_in(high) == depth
    assert low < high and high > low and not high <= low
    text = str(x)
    assert text == "{" * (depth + 1) + "}" * (depth + 1)
    assert parse_set(text) is x
    below = [E]
    while len(below) < depth:
        below.append(singleton(below[-1]))
    assert tc(x) is HFSet(below)


def test_intern_table_keeps_no_node_alive():
    gc.collect()
    before = len(hfset._INTERN)
    xs = [HFSet([vn_nat(i), singleton(vn_nat(i + 3)), pair(ONE, vn_nat(i + 5))]) for i in range(20)]
    assert len(hfset._INTERN) > before
    del xs
    assert len(hfset._INTERN) == before

    # a set that only a reference cycle holds goes when the collector runs
    cycle = [_singleton_chain(60), HFSet([vn_nat(6), pair(ONE, vn_nat(9))])]
    cycle.append(cycle)
    del cycle
    gc.collect()
    assert len(hfset._INTERN) == before


def test_dying_node_keeps_a_newer_entry():
    x = HFSet([vn_nat(4), singleton(vn_nat(7))])
    stale = object.__new__(HFSet)
    stale._elems = x._elems
    stale._rank = x._rank
    stale.__del__()
    del stale
    assert hfset._INTERN[x._elems]() is x
    assert HFSet(x._elems) is x


def test_deleting_a_bare_node_is_silent(monkeypatch):
    # an interrupt between object.__new__ and the assignment in _node leaves
    # a node with no _elems; its __del__ must not report an error
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    node = object.__new__(HFSet)
    del node
    assert unraisable == []


def test_pickle_and_copy_return_the_same_node():
    for x in (E, TWO, kpair(TWO, singleton(ONE)), _singleton_chain(50)):
        assert pickle.loads(pickle.dumps(x)) is x
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
    assert len(E) == 0


def test_interpreter_exit_is_silent():
    src = str(Path(hfset.__file__).resolve().parents[1])
    # os is wiped after hfset at shutdown, so its set dies after the hfset
    # globals are gone but while stderr still reports errors
    code = (
        "import os\n"
        "from setkernel import hfset\n"
        "os.keep = [hfset, hfset.vn_nat(30)]\n"
        "keep = [hfset.vn_nat(31), hfset.parse_set('{{},{{{}}}}')]\n"
        "cycle = [hfset.vn_nat(12)]\n"
        "cycle.append(cycle)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0
    assert out.stdout == out.stderr == ""
