import itertools
import random
import time
from fractions import Fraction

import pytest
from helpers import sign_walk, u_cmp_oracle

from setkernel import surreal
from setkernel.cli import Session
from setkernel.errors import BudgetError, PreconditionError, WitnessError
from setkernel.linorder import (
    AtRationalLeftClosed,
    AtRationalRightClosed,
    FinOrder,
    GapCut,
    LeftHasMax,
    OrderSide,
    RightHasMin,
    SqrtThreshold,
    back_and_forth,
    binary_strings,
    binstring_side,
    classify_cut,
    cut_extend,
    cuts,
    dyadic_side,
    insert_between,
    simplest_dyadic_labels,
    u_cmp,
)
from setkernel.numtower import Frac
from setkernel.surreal import Dyadic


def test_cuts_examples():
    assert cuts(FinOrder()) == [(frozenset(), frozenset())]
    assert cuts(FinOrder("p")) == [
        (frozenset(), frozenset("p")),
        (frozenset("p"), frozenset()),
    ]
    for n in range(6):
        order = FinOrder(range(n))
        assert len(cuts(order)) == n + 1
        lefts = [c[0] for c in cuts(order)]
        assert all(a <= b for a, b in zip(lefts, lefts[1:]))


def test_finite_orders_are_gapless():
    # every cut of a finite order has a left max or a right min
    for n in range(5):
        for left, right in cuts(FinOrder(range(n))):
            assert left or right or n == 0
            if left or right:
                assert max(left, default=None) is not None or min(right, default=None) is not None


def test_cut_extend_sizes_and_suborder():
    order = FinOrder()
    sizes = []
    for _ in range(5):
        order = cut_extend(order)
        sizes.append(len(order))
    assert sizes == [1, 3, 7, 15, 31]
    base = FinOrder("abc")
    ext = cut_extend(base)
    positions = [ext.index(x) for x in base.carrier]
    assert positions == sorted(positions)
    assert len(ext) == 7


def test_stage_labeling_matches_listing():
    order, labels = simplest_dyadic_labels(5)
    listing = [labels[e] for e in order.carrier]
    assert listing == surreal.born_by(4)
    assert listing[0] == Dyadic(-4)
    assert listing[-1] == Dyadic(4)
    # 2^n - 1 labels, refused up front past the element budget of 10^6
    for n in (20, 40, 10 ** 40):
        start = time.perf_counter()
        with pytest.raises(BudgetError):
            simplest_dyadic_labels(n)
        assert time.perf_counter() - start < 0.1
    # a negative count is refused, not read as an empty order
    with pytest.raises(PreconditionError):
        simplest_dyadic_labels(-1)


def test_stage_labeling_ends_quickly_at_every_size():
    # the cut labels of n iterations hold (2^n - 1)(2^n - 2)/3 references,
    # more than the element budget of 10^6 from n = 11 on
    for n in range(6, 14):
        start = time.perf_counter()
        if n <= 10:
            order, labels = simplest_dyadic_labels(n)
            assert [labels[e] for e in order.carrier] == surreal.born_by(n - 1)
            assert time.perf_counter() - start < 1
        else:
            with pytest.raises(BudgetError):
                simplest_dyadic_labels(n)
            assert time.perf_counter() - start < 0.1


def test_u_cmp_examples():
    assert u_cmp("0", "") < 0
    assert u_cmp("", "1") < 0
    assert u_cmp("01", "0") > 0
    assert u_cmp("0", "01") < 0
    assert u_cmp("10", "1") < 0
    assert u_cmp("11", "11") == 0
    assert u_cmp("00", "01") < 0


def test_non_binary_strings_are_refused():
    # int("1" + s, 2) alone would read "_0" as "0" and "0 " as "0"
    for s in ("_0", "0_1", "0 ", "2"):
        calls = (
            lambda: u_cmp(s, "0"),
            lambda: u_cmp("01", s),
            lambda: insert_between([s], []),
            lambda: insert_between(["1", s], ["11"]),
            lambda: insert_between([], [s]),
        )
        for call in calls:
            with pytest.raises(PreconditionError, match="binary strings use 0 and 1"):
                call()


def test_u_cmp_total_order_fuzz():
    rng = random.Random(109)
    def rand_str():
        return "".join(rng.choice("01") for _ in range(rng.randint(0, 12)))
    for _ in range(400):
        f, g, h = rand_str(), rand_str(), rand_str()
        assert u_cmp(f, g) == -u_cmp(g, f)
        assert (u_cmp(f, g) == 0) == (f == g)
        if u_cmp(f, g) < 0 and u_cmp(g, h) < 0:
            assert u_cmp(f, h) < 0


def test_u_cmp_agrees_with_string_oracle():
    strings = list(itertools.takewhile(lambda s: len(s) <= 7, binary_strings()))
    assert len(strings) == 255
    for f in strings:
        for g in strings:
            assert u_cmp(f, g) == u_cmp_oracle(f, g)


def test_u_cmp_matches_sign_expansion_order():
    # the sign-expansion map is an order isomorphism onto the string order
    pool = surreal.born_by(8)
    signs = [surreal.to_signs(d).replace("+", "1").replace("-", "0") for d in pool]
    for i, si in enumerate(signs):
        for sj in signs[i + 1:]:
            assert u_cmp(si, sj) < 0


def test_insert_between_examples():
    assert insert_between([], []) == ""
    assert insert_between([""], []) == "1"
    assert insert_between([], [""]) == "0"
    assert insert_between(["0"], [""]) == "01"
    with pytest.raises(PreconditionError):
        insert_between([""], ["0"])


def bfs_minimal_witnesses(a, b, max_len):
    found = []
    for z in itertools.takewhile(lambda s: len(s) <= max_len, binary_strings()):
        if found and len(z) > len(found[0]):
            break
        if all(u_cmp_oracle(f, z) < 0 for f in a) and all(u_cmp_oracle(z, g) < 0 for g in b):
            found.append(z)
    return found


def test_insert_between_minimal_and_unique():
    rng = random.Random(113)
    def rand_str():
        return "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
    done = 0
    while done < 200:
        a = [rand_str() for _ in range(rng.randint(0, 3))]
        b = [rand_str() for _ in range(rng.randint(0, 3))]
        if any(u_cmp_oracle(f, g) >= 0 for f in a for g in b):
            continue
        done += 1
        z = insert_between(a, b)
        assert all(u_cmp_oracle(f, z) < 0 for f in a)
        assert all(u_cmp_oracle(z, g) < 0 for g in b)
        assert bfs_minimal_witnesses(a, b, len(z)) == [z]


def test_back_and_forth_identity_case():
    lo, hi = Dyadic(0), Dyadic(1)
    a = dyadic_side("A", lo, hi)
    b = dyadic_side("B", lo, hi)
    m = back_and_forth(a, b, 12)
    assert all(k == v for k, v in m.items())


def test_back_and_forth_strings_to_dyadics():
    m = back_and_forth(binstring_side(), dyadic_side(), 40)
    assert len(m) == 20
    items = list(m.items())
    for (s1, d1), (s2, d2) in itertools.combinations(items, 2):
        assert u_cmp_oracle(s1, s2) == ((d2 < d1) - (d1 < d2))
    # reversing the roles inverts the map on the common prefix
    inv = back_and_forth(dyadic_side(), binstring_side(), 40)
    common = set(m.items()) & {(s, d) for d, s in inv.items()}
    assert common


def test_back_and_forth_witness_failure_is_reported():
    broken = OrderSide(
        "broken",
        lambda: iter([0, 1, 2]),
        lambda x: x,
        lambda lo, hi: 0,  # constant, eventually not between
    )
    with pytest.raises(WitnessError) as exc:
        back_and_forth(binstring_side(), broken, 8)
    assert exc.value.side == "broken"


def test_back_and_forth_at_20000_rounds():
    # each string meets the dyadic whose sign expansion it is
    m = back_and_forth(binstring_side(), dyadic_side(), 20000)
    assert len(m) == 10000
    for s, d in m.items():
        assert sign_walk(int("1" + s, 2))[0] == Fraction(d.num, d.den)
    start = time.perf_counter()
    Session().run_line(":bnf 20000")
    assert time.perf_counter() - start < 2.0


def test_classify_cut_examples():
    assert classify_cut(SqrtThreshold(2)) == GapCut()
    assert classify_cut(SqrtThreshold(4)) == RightHasMin(Frac(2))
    half = Frac(1, 2)
    assert classify_cut(AtRationalLeftClosed(half)) == LeftHasMax(half)
    assert classify_cut(AtRationalRightClosed(half)) == RightHasMin(half)
    assert LeftHasMax(half) != RightHasMin(half) and AtRationalLeftClosed(half) != LeftHasMax(half)
    assert hash(LeftHasMax(Frac(2, 4))) == hash(LeftHasMax(half))
    with pytest.raises(PreconditionError):
        SqrtThreshold(0)
    for value, field in ((LeftHasMax(half), "q"), (SqrtThreshold(2), "n"), (binstring_side(), "key")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert LeftHasMax(half).q == half and SqrtThreshold(2).n == 2


def test_classify_cut_against_isqrt_oracle():
    import math

    for n in range(1, 2000):
        result = classify_cut(SqrtThreshold(n))
        r = math.isqrt(n)
        if r * r == n:
            assert result == RightHasMin(Frac(r))
        else:
            assert result == GapCut()


def test_sqrt_cut_is_a_genuine_gap():
    # for non-squares, no rational q satisfies q*q = n (rational root test),
    # spot-check that the cut sides approach each other arbitrarily closely
    for n in (2, 3, 5, 7):
        left = [Fraction(p, q) for q in range(1, 70) for p in range(3 * q + 1) if Fraction(p, q) ** 2 < n]
        right = [Fraction(p, q) for q in range(1, 70) for p in range(1, 3 * q + 1) if Fraction(p, q) ** 2 > n]
        assert max(left) < min(right)
        assert min(right) - max(left) < Fraction(1, 50)
