import itertools
import operator
import random
import sys
import time
from fractions import Fraction

import pytest

from setkernel.cli import Session
from setkernel.errors import BudgetError, KernelError, PreconditionError
from setkernel.numtower import Frac, parse_frac
from setkernel.surreal import (
    Dyadic,
    SignExpansion,
    _code,
    _from_code,
    _lt,
    _options,
    _simplest,
    birthday,
    born_by,
    cache_sizes,
    clear_caches,
    conway_add,
    conway_mul,
    conway_neg,
    enumerate_dyadics,
    from_signs,
    options,
    parse_dyadic,
    simplest,
    to_signs,
)

from helpers import birth_tree, birthday_oracle_pool, frac_value, sign_walk, simplest_oracle, simplest_walk

D = Dyadic
HALF = D(1, 1)


def test_dyadic_normalization_and_order():
    assert D(2, 1) == D(1)
    assert D(4, 2) == D(1)
    assert D(6, 3) == D(3, 2)
    vals = [D(-1), D(-1, 2), D(0), D(1, 3), D(1, 1), D(1)]
    assert sorted(vals) == vals
    assert frac_value(D(5, 3)) == Fraction(5, 8)


def test_birthday_examples():
    assert birthday(D(0)) == 0
    assert birthday(HALF) == 2
    assert birthday(D(3, 2)) == 3
    assert birthday(D(5, 3)) == 4
    assert birthday(D(-5, 3)) == 4
    assert birthday(D(7)) == 7


def test_birthday_matches_stage_oracle():
    days = birthday_oracle_pool(9)
    for d in born_by(9):
        assert birthday(d) == days[frac_value(d)]


def test_simplest_examples():
    assert simplest([], []) == D(0)
    assert simplest([D(0)], [D(1)]) == HALF
    assert simplest([D(0)], []) == D(1)
    assert simplest([D(-1), D(0)], [D(1)]) == HALF
    assert simplest([], [D(0)]) == D(-1)
    assert simplest([D(3, 1)], []) == D(2)
    with pytest.raises(PreconditionError):
        simplest([D(1)], [D(0)])
    with pytest.raises(PreconditionError):
        simplest([D(1)], [D(1)])


def test_simplest_against_pool_oracle():
    rng = random.Random(71)
    days = birthday_oracle_pool(9)
    pool = born_by(9)
    for _ in range(300):
        a = sorted(rng.sample(pool, rng.randint(0, 3)))
        b = sorted(rng.sample(pool, rng.randint(0, 3)))
        if a and b and not max(a) < min(b):
            continue
        z = simplest(a, b)
        if birthday(z) <= 9:
            best = simplest_oracle([frac_value(x) for x in a], [frac_value(y) for y in b], days)
            assert best == [frac_value(z)]  # unique at the minimal birthday


def test_options_examples():
    assert options(D(0)) == (frozenset(), frozenset())
    assert options(D(1)) == (frozenset([D(0)]), frozenset())
    assert options(D(-1)) == (frozenset(), frozenset([D(0)]))
    assert options(HALF) == (frozenset([D(0)]), frozenset([D(1)]))
    assert options(D(-3, 1)) == (frozenset([D(-2)]), frozenset([D(-1)]))
    assert options(D(-3, 2)) == (frozenset([D(-1)]), frozenset([D(-1, 1)]))
    for d in born_by(8):
        assert simplest(*options(d)) == d


def test_conway_add_examples():
    clear_caches()
    assert conway_add(D(1), D(1)) == D(2)
    assert conway_add(D(0), D(1)) == D(1)
    assert conway_add(D(0), D(0)) == D(0)
    assert conway_add(D(1, 2), D(1, 2)) == HALF


def test_conway_neg():
    assert conway_neg(D(0)) == D(0)
    assert conway_neg(D(1)) == D(-1)
    for d in born_by(6):
        assert conway_neg(d) == -d
        assert conway_add(d, conway_neg(d)) == D(0)


def test_conway_mul_examples():
    assert conway_mul(D(2), D(2)) == D(4)
    assert conway_mul(HALF, HALF) == D(1, 2)
    x = D(-3, 2)
    assert conway_mul(x, D(1)) == x
    assert conway_mul(x, D(0)) == D(0)


def test_conway_matches_exact_arithmetic():
    pool = born_by(5)  # 63 values
    for x in pool:
        for y in pool:
            assert conway_add(x, y) == x + y
    rng = random.Random(73)
    big = born_by(9)
    for _ in range(150):
        x, y = rng.choice(big), rng.choice(big)
        assert conway_add(x, y) == x + y
        assert conway_mul(x, y) == x * y


def test_group_laws_random():
    rng = random.Random(79)
    pool = born_by(7)
    for _ in range(80):
        x, y, z = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert conway_add(x, y) == conway_add(y, x)
        assert conway_add(conway_add(x, y), z) == conway_add(x, conway_add(y, z))
        if x < y:
            assert conway_add(x, z) < conway_add(y, z)


@pytest.mark.parametrize("bad", ["+x", "2", 5, None])
def test_sign_expansion_refuses_bad_input(bad):
    with pytest.raises(PreconditionError):
        SignExpansion(bad)
    with pytest.raises(PreconditionError):
        from_signs(bad)


def test_sign_expansion_roundtrip_and_length():
    assert to_signs(D(0)) == SignExpansion("")
    assert to_signs(HALF) == SignExpansion("+-")
    assert str(to_signs(HALF)) == "+-"
    assert to_signs(D(2)) == SignExpansion("++")
    assert to_signs(D(-3, 2)) == SignExpansion("-+-")
    for d in born_by(8):
        s = to_signs(d)
        assert len(s) == birthday(d)
        assert from_signs(s) == d
    assert from_signs("+-") == HALF
    assert from_signs(SignExpansion("10")) == HALF
    # the signs read off each code, against the value the birth-tree walk gives it
    for code, (v, _, _) in birth_tree(10).items():
        signs = bin(code)[3:].replace("1", "+").replace("0", "-")
        assert str(to_signs(D(v.numerator, v.denominator.bit_length() - 1))) == signs


def test_sign_expansion_length_is_capped():
    assert len(to_signs(D(1 << 16))) == 1 << 16
    for day in (2 ** 16 + 1, 2 ** 60, 10 ** 5000):
        huge = D(day)
        start = time.perf_counter()
        with pytest.raises(BudgetError):
            to_signs(huge)
        assert time.perf_counter() - start < 0.1
    assert Session().outcome(":signs 2^60")[0] == 1


def test_stage_cardinalities():
    for n in range(9):
        assert len(born_by(n)) == (1 << (n + 1)) - 1
    for n in range(11):
        assert [frac_value(d) for d in born_by(n)] == sorted(v for v, _, _ in birth_tree(n).values())
    no4 = born_by(3)
    assert len(no4) == 15
    assert len(born_by(4)) == 31


def test_enumeration_order():
    gen = enumerate_dyadics()
    first = [next(gen) for _ in range(7)]
    assert first == [D(0), D(-1), D(1), D(-2), D(-1, 1), D(1, 1), D(2)]
    bdays = [birthday(d) for d in first]
    assert bdays == sorted(bdays)
    days = birthday_oracle_pool(8)
    want = sorted(born_by(8), key=lambda d: (days[frac_value(d)], frac_value(d)))
    assert list(itertools.islice(enumerate_dyadics(), 511)) == want


def test_parse_dyadic():
    assert parse_dyadic("3/4") == D(3, 2)
    assert parse_dyadic("-5/8") == D(-5, 3)
    assert parse_dyadic("7") == D(7)
    with pytest.raises(PreconditionError):
        parse_dyadic("1/3")


def test_parse_dyadic_rejects_malformed_literal():
    with pytest.raises(PreconditionError):
        parse_dyadic("7/4/3")


def test_dyadic_is_a_frac():
    assert isinstance(HALF, Frac)
    assert HALF == Frac(1, 2) and Frac(1, 2) == HALF
    assert hash(HALF) == hash(Frac(1, 2))
    assert D(3, 2) != Frac(3, 8) and D(2) == 2 and HALF != 1
    assert len({Frac(2), D(2), 2}) == 1
    assert len({Frac(1, 2), D(1, 1)}) == 1
    assert (HALF.num, HALF.den, HALF.k) == (1, 2, 1)
    assert str(D(-5, 3)) == "-5/8" and repr(D(-5, 3)) == "Dyadic(-5/8)" and D(4).is_integer()


def test_sort_mixes_fracs_and_dyadics():
    vals = [Frac(-3, 2), D(-1), Frac(-1, 3), D(0), D(1, 2), Frac(1, 3), HALF, Frac(2, 3), D(1)]
    assert sorted(vals[::-1]) == vals
    assert sorted(vals[1::2] + vals[::2]) == vals
    assert max(vals) is vals[-1] and min(Frac(-2), D(-1), 1) == -2


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_arithmetic_result_types(op):
    def exact(v):
        return Fraction(v) if isinstance(v, int) else Fraction(v.num, v.den)

    x, y, f = D(3, 2), D(-5, 1), Frac(1, 3)
    assert type(op(x, y)) is Dyadic and exact(op(x, y)) == op(exact(x), exact(y))
    assert birthday(op(x, y)) == {operator.add: 4, operator.sub: 6, operator.mul: 5}[op]
    for a, b in ((x, f), (f, x), (x, 3), (3, x), (f, f)):
        r = op(a, b)
        assert type(r) is Frac and exact(r) == op(exact(a), exact(b))
    assert type(-x) is Dyadic and -x == D(-3, 2)


@pytest.mark.parametrize("text", ["7/4/3", "x", "1/0", "1/-2"])
@pytest.mark.parametrize("parse", [parse_frac, parse_dyadic])
def test_rational_readers_reject_malformed_literals(parse, text):
    with pytest.raises(PreconditionError):
        parse(text)


def test_parse_dyadic_reads_only_power_of_two_denominators():
    assert parse_frac("3/6") == Frac(1, 2)
    with pytest.raises(PreconditionError):
        parse_dyadic("3/6")
    assert parse_dyadic("6/8") == D(3, 2) and type(parse_dyadic("6/8")) is Dyadic


def test_code_options_order_and_simplest_against_birth_tree_walk():
    tree = birth_tree(8)
    for c, (_, left, right) in tree.items():
        assert _options(c) == (left, right)
    rank = {c: i for i, c in enumerate(sorted(tree, key=lambda c: tree[c][0]))}
    for a in tree:
        for b in tree:
            assert _lt(a, b) == (rank[a] < rank[b])
    for c, (v, left, right) in tree.items():
        assert _simplest(left, right) == c
        assert _simplest(c, 0) == simplest_walk(v, None)
        assert _simplest(0, c) == simplest_walk(None, v)
    bounds = [0] + [c for c in tree if c < 1 << 7]  # no bound, then every code born by day 6
    for a in bounds:
        for b in bounds:
            if not (a and b) or rank[a] < rank[b]:
                assert _simplest(a, b) == simplest_walk(tree[a][0] if a else None, tree[b][0] if b else None)


def test_code_simplest_matches_public_simplest():
    pool = born_by(7)
    codes = [_code(D(d.num, d.k)) for d in pool]
    for a, ca in zip(pool, codes):
        assert _from_code(_simplest(0, ca)) == simplest([], [a])
        assert _from_code(_simplest(ca, 0)) == simplest([a], [])
        for b, cb in zip(pool, codes):
            if a < b:
                assert _from_code(_simplest(ca, cb)) == simplest([a], [b])


def test_dyadic_code_round_trip():
    for c, (v, _, _) in birth_tree(12).items():
        d = D(v.numerator, v.denominator.bit_length() - 1)
        assert d._code is None and _code(d) == c and d._code == c
        e = _from_code(c)
        assert type(e) is Dyadic and (e.num, e.den, e.k, e._code) == (d.num, d.den, d.k, c)
    edges = [D(0), D(-1), D(7), D(-7), D(-99), D(1, 1), D(-1, 1), D(3, 1), D(-3, 1), D(-5, 3), D(1, 100),
             D(-(1 << 80) - 1, 80), D((3 << 60) + 1, 61), D(-((1 << 70) - 1), 70)]
    for d in edges:
        c = _code(D(d.num, d.k))
        assert sign_walk(c)[0] == frac_value(d) and c.bit_length() - 1 == birthday(d)
        e = _from_code(c)
        assert (e.num, e.den, e.k) == (d.num, d.den, d.k)


def test_conway_mul_runs_without_recursion():
    assert sys.getrecursionlimit() <= 1000 and conway_mul(D(1200), D(1)) == D(1200)
    assert conway_mul(D(1), D(-1200)) == D(-1200)


def test_huge_birthday_ends_in_budget_error():
    # refused from the birthday before a code is built, so each call is quick
    for day in (2 ** 16 + 1, 10 ** 9, 2 ** 40, 10 ** 30, 10 ** 5000):
        huge = D(day)
        for call in (lambda: conway_add(huge, D(1)), lambda: conway_neg(huge), lambda: conway_mul(D(1), -huge)):
            start = time.perf_counter()
            with pytest.raises(BudgetError) as info:
                call()
            assert time.perf_counter() - start < 0.1
            assert isinstance(info.value, KernelError)


def test_dyadic_normalises_in_one_shift():
    # each of these looped once per halving, one bit at a time
    start = time.perf_counter()
    zero = D(0, 10 ** 30)
    assert (zero.num, zero.k, zero.den) == (0, 0, 1)
    one = D(1 << 20000, 20000)
    assert (one.num, one.k, one.den) == (1, 0, 1)
    assert time.perf_counter() - start < 0.02
    for num, k, reduced in [(12, 3, (3, 1)), (-12, 5, (-3, 3)), (12, 0, (12, 0)), (-7, 4, (-7, 4)), (-(5 << 40), 50, (-5, 10))]:
        d = D(num, k)
        assert (d.num, d.k, d.den) == (reduced[0], reduced[1], 1 << reduced[1])
        assert d == Fraction(num, 1 << k)


def test_huge_denominator_ends_in_budget_error():
    for k in (2 ** 16 + 1, 10 ** 9, 2 ** 40, 10 ** 30, 10 ** 5000):
        start = time.perf_counter()
        with pytest.raises(BudgetError):
            D(1, k)
        assert time.perf_counter() - start < 0.1


def test_mul_grid_fills_the_same_memo_tables():
    # the recursion tree, not its representation: a shortcut past the
    # recursion would leave fewer entries
    clear_caches()
    pool = born_by(5)
    for x in pool:
        for y in pool:
            assert conway_mul(x, y) == x * y
    assert cache_sizes() == (11928, 2016, 167)
    clear_caches()
