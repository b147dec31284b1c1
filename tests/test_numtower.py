import operator
import random
import sys
from fractions import Fraction

import pytest

from setkernel import hfset, ordinal, surreal
from setkernel.cli import Session
from setkernel.errors import BudgetError, KernelError, PreconditionError, ZeroDivisorError
from setkernel.numtower import Frac, parse_frac, q_decode, q_encode, z_decode, z_encode


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
    assert Frac(2, 4) == Frac(1, 2)
    assert Frac(4, 2) == Frac(2)
    assert Frac(4, 2).is_integer()
    assert Frac(0, 7) == Frac(0)
    assert Frac(-6, 4) == Frac(-3, 2)
    with pytest.raises(ZeroDivisionError):
        Frac(1, 0)
    # the sign of a negative denominator moves to the numerator
    assert (Frac(1, -2).num, Frac(1, -2).den) == (-1, 2)


def test_zero_divisor_is_a_typed_error():
    for num in (1, 0, -3):
        with pytest.raises(ZeroDivisorError, match="zero denominator") as info:
            Frac(num, 0)
        assert isinstance(info.value, KernelError) and isinstance(info.value, ZeroDivisionError)
    with pytest.raises(ZeroDivisorError):
        ordinal.ord_divmod(ordinal.OMEGA, ordinal.ZERO)
    # the CLI reports both as evaluation errors, as before
    assert Session().outcome(":divmod w 0") == (1, "ordinal division by zero")


def test_q_arithmetic_examples():
    assert Frac(1, 2) + Frac(1, 3) == Frac(5, 6)
    assert Frac(7, 3) * Frac(1) == Frac(7, 3)
    assert Frac(-1, 2) < Frac(1, 3)
    assert -Frac(2, 5) == Frac(-2, 5)


def test_field_and_order_laws_random():
    rng = random.Random(127)

    def rand_frac():
        return Frac(rng.randint(-40, 40), rng.randint(1, 24))

    for _ in range(1000):
        x, y, z = rand_frac(), rand_frac(), rand_frac()
        assert x + (y + z) == (x + y) + z
        assert x + y == y + x
        assert x + Frac(0) == x
        assert x + (-x) == Frac(0)
        assert x * (y * z) == (x * y) * z
        assert x * y == y * x
        assert x * Frac(1) == x
        if x != Frac(0):
            inv = Frac(x.den, x.num) if x.num > 0 else Frac(-x.den, -x.num)
            assert x * inv == Frac(1)
        assert x * (y + z) == x * y + x * z
        if x < y:
            assert x + z < y + z
        if Frac(0) < x and Frac(0) < y:
            assert Frac(0) < x * y


def test_arithmetic_matches_fractions_module():
    rng = random.Random(131)
    for _ in range(300):
        x = Frac(rng.randint(-99, 99), rng.randint(1, 99))
        y = Frac(rng.randint(-99, 99), rng.randint(1, 99))
        assert as_fraction(x + y) == as_fraction(x) + as_fraction(y)
        assert as_fraction(x * y) == as_fraction(x) * as_fraction(y)
        assert (x < y) == (as_fraction(x) < as_fraction(y))


def test_frac_compares_and_hashes_like_fraction():
    # a grid of signed m/n, integral values and denominators that are
    # multiples of the hash prime (no inverse modulo it) included
    prime = sys.hash_info.modulus
    nums = list(range(-12, 13)) + [prime, -prime, 3 * prime + 1, -(10 ** 30)]
    dens = list(range(1, 13)) + [prime, 2 * prime, prime + 1, 10 ** 20]
    values = [Fraction(m, n) for m in nums for n in dens]
    for q in values:
        a = Frac(q.numerator * 3, q.denominator * 3)
        assert hash(a) == hash(q)
        assert a == q and q == a and not a != q
        if q.denominator == 1:
            assert hash(a) == hash(q.numerator)
    rng = random.Random(151)
    for _ in range(400):
        q, r = rng.choice(values), rng.choice(values)
        a = Frac(q.numerator, q.denominator)
        assert ((a < r), (a <= r), (a > r), (a >= r), (a == r)) == ((q < r), (q <= r), (q > r), (q >= r), (q == r))
        assert ((r < a), (r <= a), (r > a), (r >= a), (r == a)) == ((r < q), (r <= q), (r > q), (r >= q), (r == q))
    assert len({Frac(1, 2), Fraction(1, 2), surreal.Dyadic(1, 1), Frac(2), 2, Fraction(4, 2)}) == 2


def test_operand_rule_table():
    # an int or Rational operand is read as the rational it is; any other
    # operand is unequal, unordered and no summand or factor
    kernel = [Frac(3, 4), Frac(-2), surreal.Dyadic(3, 2), surreal.Dyadic(-5)]
    exact = kernel + [2, -3, True, Fraction(5, 6)]
    foreign = [1.5, "x", ordinal.CnfOrdinal.from_int(2)]
    compares = [operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge]
    arithmetic = [operator.add, operator.sub, operator.mul]

    def value(x):
        return as_fraction(x) if isinstance(x, Frac) else Fraction(x)

    for a in kernel:
        for b in exact:
            for x, y in ((a, b), (b, a)):
                for op in compares:
                    assert op(x, y) == op(value(x), value(y))
                for op in arithmetic:
                    r = op(x, y)
                    assert value(r) == op(value(x), value(y))
                    both = isinstance(x, surreal.Dyadic) and isinstance(y, surreal.Dyadic)
                    assert type(r) is (surreal.Dyadic if both else Frac)
        for b in foreign:
            for x, y in ((a, b), (b, a)):
                assert (x == y) is False and (x != y) is True
                for op in compares[2:] + arithmetic:
                    with pytest.raises(TypeError):
                        op(x, y)
    assert ordinal.CnfOrdinal.from_int(2) == 2 and 2 == ordinal.CnfOrdinal.from_int(2)
    # a bool is read as the int it is, and prints as one
    for x, shown in ((Frac(True), "1"), (Frac(True, 2), "1/2"), (Frac(3, True), "3"), (Frac(1, 2) + True, "3/2"),
                     (True * Frac(1, 2), "1/2"), (Frac(False, 3), "0"), (surreal.Dyadic(True), "1"),
                     (surreal.Dyadic(True, 1), "1/2"), (surreal.Dyadic(False, 3), "0")):
        assert str(x) == shown and type(x.num) is int and type(x.den) is int
    assert ordinal.CnfOrdinal.from_int(2) != Frac(2) and Frac(2) != ordinal.CnfOrdinal.from_int(2)


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
        fx, fy = Frac(x.num, x.den), Frac(y.num, y.den)
        assert Frac((x + y).num, (x + y).den) == fx + fy
        assert Frac((x * y).num, (x * y).den) == fx * fy
        assert (fx > fy) - (fx < fy) == ((y < x) - (x < y))


def test_parse_frac():
    assert parse_frac("5/6") == Frac(5, 6)
    assert parse_frac("-7") == Frac(-7)
    assert parse_frac(" 2/4 ") == Frac(1, 2)
    with pytest.raises(PreconditionError):
        parse_frac("1/-2")


def test_parse_frac_rejects_malformed_literal():
    with pytest.raises(PreconditionError):
        parse_frac("1/2/3")


def test_huge_fractions_repr_in_hex_and_refuse_decimal_text():
    # past Python's 4,300-digit limit: repr falls back to hex, str is a budget error
    x = Frac(1, 3 ** 10000)
    assert repr(x) == f"Frac(0x1/{3 ** 10000:#x})"
    assert repr(Frac(-(10 ** 5000))) == f"Frac({-(10 ** 5000):#x}/2^0)"
    assert repr(surreal.Dyadic(1, 65535)) == "Dyadic(0x1/2^65535)"
    for y in (x, surreal.Dyadic(1, 65535)):
        with pytest.raises(BudgetError, match="^result has too many decimal digits to print$"):
            str(y)
    # the CLI prints the message it printed when it caught the ValueError itself
    s = Session()
    s.outcome(f"let a = 1/{'9' * 3000}")
    assert s.outcome("a * a") == (1, "result has too many decimal digits to print")
    assert s.outcome("{a * a, 1}") == (1, "result has too many decimal digits to print")
