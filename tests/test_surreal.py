import random
from fractions import Fraction

import pytest

from setkernel.errors import PreconditionError
from setkernel.surreal import (
    Dyadic,
    SignExpansion,
    birthday,
    born_by,
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

from helpers import birthday_oracle_pool, frac_value, simplest_oracle

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


def test_stage_cardinalities():
    for n in range(9):
        assert len(born_by(n)) == (1 << (n + 1)) - 1
    no4 = born_by(3)
    assert len(no4) == 15
    assert len(born_by(4)) == 31


def test_enumeration_order():
    gen = enumerate_dyadics()
    first = [next(gen) for _ in range(7)]
    assert first == [D(0), D(-1), D(1), D(-2), D(-1, 1), D(1, 1), D(2)]
    bdays = [birthday(d) for d in first]
    assert bdays == sorted(bdays)


def test_parse_dyadic():
    assert parse_dyadic("3/4") == D(3, 2)
    assert parse_dyadic("-5/8") == D(-5, 3)
    assert parse_dyadic("7") == D(7)
    with pytest.raises(PreconditionError):
        parse_dyadic("1/3")


def test_parse_dyadic_rejects_malformed_literal():
    with pytest.raises(PreconditionError):
        parse_dyadic("7/4/3")
