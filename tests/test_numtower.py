import random
from fractions import Fraction

import pytest

from setkernel import hfset, surreal
from setkernel.errors import PreconditionError
from setkernel.numtower import (
    Frac,
    from_dyadic,
    parse_frac,
    q_add,
    q_cmp,
    q_decode,
    q_encode,
    q_make,
    q_mul,
    q_neg,
    z_decode,
    z_encode,
)


def as_fraction(a):
    return Fraction(a.num, a.den)


def test_z_encode_examples():
    zero = hfset.empty()
    assert z_encode(-1) == hfset.kpair(zero, hfset.vn_nat(1))
    assert str(z_encode(-1)) == "{{{}},{{},{{}}}}"  # the pair <0,1>
    assert z_encode(3) == hfset.vn_nat(3)
    for k in range(-20, 21):
        assert z_decode(z_encode(k)) == k


def test_z_decode_rejects_malformed():
    assert z_decode(hfset.singleton(hfset.singleton(hfset.empty()))) is None
    # <0, 0> is not a negative integer
    assert z_decode(hfset.kpair(hfset.empty(), hfset.empty())) is None
    # <1, 2> has a nonzero first component
    assert z_decode(hfset.kpair(hfset.vn_nat(1), hfset.vn_nat(2))) is None


def test_negatives_disjoint_from_naturals():
    naturals = {z_encode(k) for k in range(0, 51)}
    negatives = {z_encode(-k) for k in range(1, 51)}
    assert not naturals & negatives


def test_q_make():
    assert q_make(2, 4) == Frac(1, 2)
    assert q_make(4, 2) == Frac(2)
    assert q_make(4, 2).is_integer()
    assert q_make(0, 7) == Frac(0)
    assert q_make(-6, 4) == Frac(-3, 2)
    with pytest.raises(ZeroDivisionError):
        q_make(1, 0)
    with pytest.raises(PreconditionError):
        q_make(1, -2)


def test_q_arithmetic_examples():
    assert q_add(Frac(1, 2), Frac(1, 3)) == Frac(5, 6)
    assert q_mul(Frac(7, 3), Frac(1)) == Frac(7, 3)
    assert q_cmp(Frac(-1, 2), Frac(1, 3)) < 0
    assert q_neg(Frac(2, 5)) == Frac(-2, 5)


def test_field_and_order_laws_random():
    rng = random.Random(127)

    def rand_frac():
        return Frac(rng.randint(-40, 40), rng.randint(1, 24))

    for _ in range(1000):
        x, y, z = rand_frac(), rand_frac(), rand_frac()
        assert q_add(x, q_add(y, z)) == q_add(q_add(x, y), z)
        assert q_add(x, y) == q_add(y, x)
        assert q_add(x, Frac(0)) == x
        assert q_add(x, q_neg(x)) == Frac(0)
        assert q_mul(x, q_mul(y, z)) == q_mul(q_mul(x, y), z)
        assert q_mul(x, y) == q_mul(y, x)
        assert q_mul(x, Frac(1)) == x
        if x != Frac(0):
            inv = Frac(x.den, x.num) if x.num > 0 else Frac(-x.den, -x.num)
            assert q_mul(x, inv) == Frac(1)
        assert q_mul(x, q_add(y, z)) == q_add(q_mul(x, y), q_mul(x, z))
        if q_cmp(x, y) < 0:
            assert q_cmp(q_add(x, z), q_add(y, z)) < 0
        if q_cmp(Frac(0), x) < 0 and q_cmp(Frac(0), y) < 0:
            assert q_cmp(Frac(0), q_mul(x, y)) < 0


def test_arithmetic_matches_fractions_module():
    rng = random.Random(131)
    for _ in range(300):
        x = Frac(rng.randint(-99, 99), rng.randint(1, 99))
        y = Frac(rng.randint(-99, 99), rng.randint(1, 99))
        assert as_fraction(x + y) == as_fraction(x) + as_fraction(y)
        assert as_fraction(x * y) == as_fraction(x) * as_fraction(y)
        assert (x < y) == (as_fraction(x) < as_fraction(y))


def test_q_encode_examples():
    assert q_encode(Frac(1, 2)) == hfset.kpair(hfset.vn_nat(1), hfset.vn_nat(2))
    assert q_encode(Frac(3)) == hfset.vn_nat(3)
    assert q_encode(Frac(-2, 3)) == hfset.kpair(z_encode(-2), hfset.vn_nat(3))


def test_q_decode_roundtrip_and_malformed():
    rng = random.Random(137)
    for _ in range(200):
        a = Frac(rng.randint(-30, 30), rng.randint(1, 18))
        assert q_decode(q_encode(a)) == a
    malformed = hfset.kpair(hfset.vn_nat(2), hfset.vn_nat(4))  # not coprime
    assert q_decode(malformed) is None
    assert q_decode(hfset.kpair(hfset.vn_nat(1), hfset.vn_nat(1))) is None  # den 1 must be integer-coded
    assert q_decode(hfset.singleton(hfset.singleton(hfset.empty()))) is None


def test_encoding_injective_small():
    seen = {}
    rng = random.Random(139)
    for _ in range(400):
        a = Frac(rng.randint(-12, 12), rng.randint(1, 10))
        enc = q_encode(a)
        if enc in seen:
            assert seen[enc] == a
        seen[enc] = a


def test_dyadic_coherence():
    rng = random.Random(149)
    pool = surreal.born_by(9)
    for _ in range(500):
        x, y = rng.choice(pool), rng.choice(pool)
        assert from_dyadic(x + y) == q_add(from_dyadic(x), from_dyadic(y))
        assert from_dyadic(x * y) == q_mul(from_dyadic(x), from_dyadic(y))
        assert q_cmp(from_dyadic(x), from_dyadic(y)) == ((y < x) - (x < y))


def test_parse_frac():
    assert parse_frac("5/6") == Frac(5, 6)
    assert parse_frac("-7") == Frac(-7)
    assert parse_frac(" 2/4 ") == Frac(1, 2)
    with pytest.raises(PreconditionError):
        parse_frac("1/-2")


def test_parse_frac_rejects_malformed_literal():
    with pytest.raises(PreconditionError):
        parse_frac("1/2/3")
