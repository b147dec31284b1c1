import functools
import random

import pytest

from setkernel import ordinal
from setkernel.errors import MAX_INT_BITS, BudgetError, PreconditionError
from setkernel.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    CnfOrdinal,
    add,
    cmp,
    cofinality_class,
    hessenberg,
    is_indecomposable,
    lsub,
    mul,
    omega_pow,
    opow,
    ord_divmod,
    succ,
)

from helpers import rand_ordinal

W = OMEGA


def fin(n):
    return CnfOrdinal.from_int(n)


def test_cmp_examples():
    assert cmp(W, W) == 0
    assert cmp(add(W, ONE), mul(W, fin(2))) < 0
    assert cmp(opow(W, W), mul(omega_pow(5), fin(9))) > 0
    assert ZERO < ONE < W < succ(W)


def test_kind_and_succ():
    # zero, a limit and a successor, told apart by their cofinality
    assert cofinality_class(ZERO) == ZERO
    assert cofinality_class(W) == OMEGA
    assert cofinality_class(add(W, fin(3))) == ONE
    assert succ(mul(W, fin(2))) == add(mul(W, fin(2)), ONE)


def test_add_examples():
    assert add(ONE, W) == W
    assert add(W, ONE) != W
    assert add(ZERO, W) == W
    a = add(mul(omega_pow(2), fin(3)), mul(W, fin(5)))
    assert add(a, mul(W, fin(2))) == add(mul(omega_pow(2), fin(3)), mul(W, fin(7)))


def test_lsub():
    a = add(mul(W, fin(2)), fin(4))
    assert lsub(a, a) == ZERO
    assert lsub(W, add(W, fin(5))) == fin(5)
    assert lsub(fin(3), W) == W
    with pytest.raises(PreconditionError):
        lsub(add(W, ONE), W)


def test_lsub_reconstructs():
    rng = random.Random(41)
    for _ in range(300):
        a = rand_ordinal(rng, 2)
        b = rand_ordinal(rng, 2)
        if cmp(a, b) > 0:
            a, b = b, a
        assert add(a, lsub(a, b)) == b


def test_mul_examples():
    assert mul(W, fin(2)) == add(W, W)
    assert mul(fin(2), W) == W
    assert mul(add(W, fin(2)), W) == omega_pow(2)
    a = rand_ordinal(random.Random(1), 2)
    assert mul(a, ONE) == a
    assert mul(a, ZERO) == ZERO
    assert mul(ZERO, a) == ZERO


def test_mul_textbook_simplifications():
    # (w + w^2) * (w^3 + w^4) = w^5 + w^6
    lhs = mul(add(W, omega_pow(2)), add(omega_pow(3), omega_pow(4)))
    assert lhs == add(omega_pow(5), omega_pow(6))
    # w + w^2 + w^3 = w^3
    assert add(add(W, omega_pow(2)), omega_pow(3)) == omega_pow(3)


def test_divmod_examples():
    b = add(omega_pow(2), add(mul(W, fin(3)), fin(2)))
    q, r = ord_divmod(b, W)
    assert q == add(W, fin(3))
    assert r == fin(2)
    assert add(mul(W, q), r) == b
    a = rand_ordinal(random.Random(2), 2)
    if not a.is_zero():
        assert ord_divmod(a, a) == (ONE, ZERO)
    assert ord_divmod(a, ONE) == (a, ZERO)
    with pytest.raises(ZeroDivisionError):
        ord_divmod(a, ZERO)


def test_divmod_soundness_random():
    rng = random.Random(43)
    for _ in range(400):
        b = rand_ordinal(rng, 2)
        a = rand_ordinal(rng, 2)
        if a.is_zero():
            continue
        q, r = ord_divmod(b, a)
        assert add(mul(a, q), r) == b
        assert cmp(r, a) < 0


def test_opow_examples():
    assert opow(fin(2), W) == W
    assert opow(W, fin(2)) == omega_pow(2)
    a = add(W, ONE)
    assert opow(a, fin(2)) == mul(a, a)
    assert opow(ZERO, ZERO) == ONE
    assert opow(ZERO, W) == ZERO
    assert opow(a, ZERO) == ONE
    assert opow(fin(3), fin(4)) == fin(81)
    assert opow(fin(2), omega_pow(2)) == omega_pow(W)


def test_exp_laws_random():
    rng = random.Random(47)
    for _ in range(150):
        a = rand_ordinal(rng, 1, max_terms=2, max_coeff=3)
        b = rand_ordinal(rng, 1, max_terms=2, max_coeff=3)
        c = rand_ordinal(rng, 1, max_terms=2, max_coeff=3)
        if a.is_zero():
            continue
        assert opow(a, add(b, c)) == mul(opow(a, b), opow(a, c))
        assert opow(a, mul(b, c)) == opow(opow(a, b), c)


def test_associativity_distributivity_random():
    rng = random.Random(53)
    for _ in range(300):
        a = rand_ordinal(rng, 2)
        b = rand_ordinal(rng, 2)
        c = rand_ordinal(rng, 2)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_strict_right_monotonicity():
    rng = random.Random(59)
    for _ in range(300):
        a = rand_ordinal(rng, 2)
        b = rand_ordinal(rng, 2)
        c = rand_ordinal(rng, 2)
        if cmp(b, c) == 0:
            continue
        if cmp(b, c) > 0:
            b, c = c, b
        assert cmp(add(a, b), add(a, c)) < 0
        if not a.is_zero():
            assert cmp(mul(a, b), mul(a, c)) < 0


def test_hessenberg_example_and_laws():
    a = add(mul(omega_pow(2), fin(3)), add(mul(W, fin(5)), ONE))
    b = add(mul(omega_pow(3), fin(4)), add(mul(omega_pow(2), fin(2)), fin(3)))
    expected = add(
        mul(omega_pow(3), fin(4)),
        add(mul(omega_pow(2), fin(5)), add(mul(W, fin(5)), fin(4))),
    )
    assert hessenberg(a, b) == expected
    assert hessenberg(a, ZERO) == a
    rng = random.Random(61)
    for _ in range(200):
        x = rand_ordinal(rng, 2)
        y = rand_ordinal(rng, 2)
        z = rand_ordinal(rng, 2)
        assert hessenberg(x, y) == hessenberg(y, x)
        assert hessenberg(hessenberg(x, y), z) == hessenberg(x, hessenberg(y, z))
        assert cmp(hessenberg(x, y), add(x, y)) >= 0


def test_indecomposable_and_cofinality():
    assert is_indecomposable(opow(W, W))
    assert not is_indecomposable(mul(W, fin(2)))
    assert add(W, W) == mul(W, fin(2))  # the witnessing decomposition
    assert not is_indecomposable(ZERO)
    assert cofinality_class(add(W, ONE)) == ONE
    assert cofinality_class(ZERO) == ZERO
    assert cofinality_class(omega_pow(W)) == OMEGA


def test_finite_fragment_agrees_with_integers():
    rng = random.Random(67)
    for _ in range(200):
        n = rng.randint(0, 1000)
        k = rng.randint(0, 1000)
        assert add(fin(n), fin(k)) == fin(n + k)
        assert mul(fin(n), fin(k)) == fin(n * k)
        assert add(fin(n), fin(k)) == add(fin(k), fin(n))
        assert mul(fin(n), fin(k)) == mul(fin(k), fin(n))
    assert opow(fin(7), fin(5)) == fin(7 ** 5)


def test_right_cancellation_fails():
    # 1 + w = 2 + w although 1 != 2: no right subtraction can exist
    assert add(ONE, W) == add(fin(2), W)


def test_operator_dunders():
    assert W + 1 == succ(W)
    assert 1 + W == W
    assert W * 2 == add(W, W)
    assert 2 * W == W
    assert W ** 2 == omega_pow(2)
    assert divmod(W ** 2 + W * 3 + 2, W) == (W + 3, fin(2))
    assert sorted([W, ONE, ZERO, W + 1]) == [ZERO, ONE, W, W + 1]


def test_depth_cap():
    a = W
    with pytest.raises(BudgetError):
        for _ in range(70):
            a = omega_pow(a)


def test_invalid_terms_rejected():
    with pytest.raises(PreconditionError):
        CnfOrdinal(((ZERO, 0),))
    with pytest.raises(PreconditionError):
        CnfOrdinal(((ZERO, 1), (ONE, 1)))  # increasing exponents
    for n in (-1, 1.5, 2.0):
        with pytest.raises(PreconditionError):
            CnfOrdinal.from_int(n)
    # a bool is read as the int it is, and prints as one
    for one in (CnfOrdinal.from_int(True), ZERO + True, True + ZERO):
        assert str(one) == "1" and one == ONE
    assert CnfOrdinal.from_int(False) is ZERO


def test_print_forms():
    assert str(ZERO) == "0"
    assert str(fin(7)) == "7"
    assert str(W) == "w"
    assert str(mul(W, fin(2))) == "w*2"
    assert str(add(omega_pow(2), ONE)) == "w^2+1"
    assert str(omega_pow(W)) == "w^w"
    assert str(omega_pow(add(W, ONE))) == "w^(w+1)"
    assert str(omega_pow(omega_pow(W), 3)) == "w^(w^w)*3"


def test_finite_ordinals_hash_like_ints():
    assert len({fin(3), 3}) == 1
    assert hash(ZERO) == hash(0)
    assert {fin(n) for n in range(5)} == set(range(5))
    # equal infinite ordinals built different ways hash equal
    for x, y in [
        (mul(W, fin(2)), add(W, W)),
        (mul(add(W, fin(2)), W), omega_pow(2)),
        (opow(fin(2), omega_pow(2)), omega_pow(W)),
        (add(fin(3), W), W),
        (succ(W), W + 1),
    ]:
        assert x == y and hash(x) == hash(y)
        assert len({x, y}) == 1


def _rand_terms(rng, max_terms, depth=2, max_coeff=5):
    """A term list in descending exponent order, with its ordinal."""
    exps = {rand_ordinal(rng, depth - 1, 3, max_coeff) for _ in range(rng.randint(1, max_terms))}
    terms = [(e, rng.randint(1, max_coeff)) for e in sorted(exps, reverse=True)]
    return terms, CnfOrdinal(terms)


def test_mul_distributes_over_many_terms():
    # the closed form agrees with the defining recursion: a*b is the sum
    # of a times each term of b
    rng = random.Random(53)
    for _ in range(300):
        _, a = _rand_terms(rng, 5)
        terms, b = _rand_terms(rng, 6)
        expected = ZERO
        for f, m in terms:
            part = mul(a, omega_pow(f, m))
            if f == ZERO:
                assert part == functools.reduce(add, [a] * m)
            expected = add(expected, part)
        assert mul(a, b) == expected


def test_opow_by_naturals_is_repeated_product():
    rng = random.Random(59)
    for _ in range(100):
        _, a = _rand_terms(rng, 4, max_coeff=3)
        product = ONE
        for n in range(7):
            assert opow(a, fin(n)) == product
            product = mul(product, a)


def test_finite_base_powers_of_sums():
    rng = random.Random(61)
    for _ in range(200):
        _, b = _rand_terms(rng, 5)
        _, c = _rand_terms(rng, 5)
        for k in range(2, 6):
            assert opow(fin(k), add(b, c)) == mul(opow(fin(k), b), opow(fin(k), c))


def test_long_powers_in_closed_form():
    n = 2000
    expected = "+".join([f"w^{i}" for i in range(n, 1, -1)] + ["w", "1"])
    assert str(opow(W + 1, fin(n))) == expected


def test_term_cap():
    # (w+1)^n has n+1 terms: the largest power under the cap is built,
    # the next is refused without building its square first
    cap = ordinal.MAX_TERMS
    assert str(opow(W + 1, fin(cap - 1))).count("+") == cap - 1
    with pytest.raises(BudgetError):
        opow(W + 1, fin(cap))
    with pytest.raises(BudgetError):
        opow(W + 1, fin(100000000))
    with pytest.raises(BudgetError):
        CnfOrdinal([(fin(i), 1) for i in range(cap, -1, -1)])


def test_nat_pow_caps_bits():
    bits = MAX_INT_BITS
    assert ordinal.nat_pow(2, bits) == 1 << bits
    assert ordinal.nat_pow(3, 4) == 81
    for k, n in [(2, bits + 1), (9, 9 ** 9), (3, 100000000)]:
        with pytest.raises(BudgetError):
            ordinal.nat_pow(k, n)
    # 0^n and 1^n are never refused
    assert ordinal.nat_pow(0, 10 ** 30) == 0
    assert ordinal.nat_pow(1, 10 ** 30) == 1
    assert ordinal.nat_pow(0, 0) == 1
    with pytest.raises(BudgetError):
        opow(fin(3), add(W, fin(100000000)))


@pytest.mark.parametrize("k, n", [(0, -1), (2, -1), (-2, 3), (2, 0.5), (2, 2.0), (2.0, 2)])
def test_nat_pow_refuses_negatives(k, n):
    with pytest.raises(PreconditionError):
        ordinal.nat_pow(k, n)


def _depth_oracle(x):
    """Exponent nesting from the definition: 1 + the deepest exponent."""
    return 1 + max((_depth_oracle(e) for e, _ in x._terms), default=0)


def _assert_canonical(x):
    """The validating constructor accepts x's terms as they are, and agrees on depth and hash."""
    again = CnfOrdinal(x._terms)
    assert again._terms == x._terms and again._depth == x._depth and again._hash == x._hash
    assert x._depth == _depth_oracle(x)
    for e, _ in x._terms:
        _assert_canonical(e)


def test_internal_results_are_canonical():
    # module results skip the term checks; rebuilding each one through
    # CnfOrdinal(terms) checks types, positive coefficients and order
    rng = random.Random(67)
    for _ in range(2000):
        a, b = rand_ordinal(rng, 3), rand_ordinal(rng, 3)
        n = CnfOrdinal.from_int(rng.randint(0, 9))
        lo, hi = sorted((a, b))
        results = [add(a, b), mul(a, b), lsub(lo, hi), hessenberg(a, b), n, opow(a, n), opow(n, a)]
        results.append(opow(a, rand_ordinal(rng, 2, max_terms=2, max_coeff=3)))
        results.append(opow(omega_pow(rand_ordinal(rng, 2)), b))
        if not b.is_zero():
            results.extend(ord_divmod(a, b))
        for r in results:
            _assert_canonical(r)


def test_omega_power_closed_form():
    rng = random.Random(71)
    for _ in range(150):
        a = omega_pow(rand_ordinal(rng, 2))
        product = ONE
        for n in range(7):
            assert opow(a, fin(n)) == product
            product = mul(product, a)
        b, c = rand_ordinal(rng, 2), rand_ordinal(rng, 2)
        assert opow(a, add(b, c)) == mul(opow(a, b), opow(a, c))
        assert opow(opow(a, b), c) == opow(a, mul(b, c))
    assert opow(omega_pow(2), W) == omega_pow(W)  # (w^2)^w = w^w
    assert opow(omega_pow(2), W + 3) == omega_pow(W + 6)
    tower = W
    with pytest.raises(BudgetError, match="exponent nesting"):
        for _ in range(70):
            tower = opow(W, tower)
