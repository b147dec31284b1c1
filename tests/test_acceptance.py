"""Acceptance suite: one test per criterion, each timed against its budget.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line
per criterion.
"""

import gc
import io
import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from setkernel import cli, hfset, linorder, numtower, ordinal, surreal, wforder
from setkernel.hfset import HFSet
from setkernel.ordinal import CnfOrdinal, OMEGA, ONE, ZERO
from setkernel.surreal import Dyadic

from helpers import birthday_oracle_pool, frac_value, rand_hfset, rand_ordinal, saturate, u_cmp_oracle


@contextmanager
def criterion(num, name, budget):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] {name}: FAIL after {time.perf_counter() - t0:.2f}s")
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed < budget else "FAIL (over budget)"
    print(f"[criterion {num:2d}] {name}: {verdict} in {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s"


def fin(n):
    return CnfOrdinal.from_int(n)


def test_criterion_1_paper_worked_examples():
    with criterion(1, "paper worked examples", 1.0):
        w = OMEGA
        assert ordinal.add(ONE, w) == w
        assert ordinal.add(w, ONE) != w
        assert ordinal.mul(w, fin(2)) == ordinal.add(w, w)
        assert ordinal.mul(fin(2), w) == w
        assert ordinal.mul(w, fin(2)) != ordinal.mul(fin(2), w)
        a = ordinal.add(ordinal.mul(ordinal.omega_pow(2), fin(3)), ordinal.add(ordinal.mul(w, fin(5)), ONE))
        b = ordinal.add(ordinal.mul(ordinal.omega_pow(3), fin(4)), ordinal.add(ordinal.mul(ordinal.omega_pow(2), fin(2)), fin(3)))
        expected = ordinal.add(
            ordinal.mul(ordinal.omega_pow(3), fin(4)),
            ordinal.add(ordinal.mul(ordinal.omega_pow(2), fin(5)), ordinal.add(ordinal.mul(w, fin(5)), fin(4))),
        )
        assert ordinal.hessenberg(a, b) == expected
        assert surreal.conway_add(Dyadic(0), Dyadic(0)) == Dyadic(0)
        assert surreal.conway_add(Dyadic(0), Dyadic(1)) == Dyadic(1)
        assert surreal.conway_add(Dyadic(1), Dyadic(1)) == Dyadic(2)
        assert surreal.conway_mul(Dyadic(2), Dyadic(2)) == Dyadic(4)
        assert surreal.options(Dyadic(-1)) == (frozenset(), frozenset([Dyadic(0)]))


def test_criterion_2_cnf_algebra_suite():
    with criterion(2, "CNF algebra suite", 30.0):
        rng = random.Random(20240)
        for _ in range(10_000):
            a = rand_ordinal(rng, 2, max_terms=2, max_coeff=4)
            b = rand_ordinal(rng, 2, max_terms=2, max_coeff=4)
            c = rand_ordinal(rng, 2, max_terms=2, max_coeff=4)
            assert ordinal.add(ordinal.add(a, b), c) == ordinal.add(a, ordinal.add(b, c))
            assert ordinal.mul(ordinal.mul(a, b), c) == ordinal.mul(a, ordinal.mul(b, c))
            assert ordinal.mul(a, ordinal.add(b, c)) == ordinal.add(ordinal.mul(a, b), ordinal.mul(a, c))
            cmp_bc = ordinal.cmp(b, c)
            if cmp_bc != 0:
                lo, hi = (b, c) if cmp_bc < 0 else (c, b)
                assert ordinal.cmp(ordinal.add(a, lo), ordinal.add(a, hi)) < 0
                if not a.is_zero():
                    assert ordinal.cmp(ordinal.mul(a, lo), ordinal.mul(a, hi)) < 0
            if not a.is_zero():
                assert ordinal.opow(a, ordinal.add(b, c)) == ordinal.mul(ordinal.opow(a, b), ordinal.opow(a, c))
                assert ordinal.opow(a, ordinal.mul(b, c)) == ordinal.opow(ordinal.opow(a, b), c)

        # exhaustive divmod on the grid below w*10: values w*q + r, q,r < 10
        grid = [ordinal.add(ordinal.mul(OMEGA, fin(q)), fin(r)) for q in range(10) for r in range(10)]
        for a in grid:
            if a.is_zero():
                continue
            solutions = {}
            for gamma in grid:
                p = ordinal.mul(a, gamma)
                for delta in grid:
                    if ordinal.cmp(delta, a) < 0:
                        solutions.setdefault(ordinal.add(p, delta), []).append((gamma, delta))
            for b in grid:
                q, r = ordinal.ord_divmod(b, a)
                assert ordinal.add(ordinal.mul(a, q), r) == b
                assert ordinal.cmp(r, a) < 0
                assert solutions[b] == [(q, r)]  # existence and uniqueness


def test_criterion_3_surreal_rational_agreement():
    with criterion(3, "surreal vs rational arithmetic", 60.0):
        surreal.clear_caches()
        gc.disable()
        try:
            pool = surreal.born_by(7)
            assert len(pool) == 255
            for x in pool:
                for y in pool:
                    assert surreal.conway_add(x, y) == x + y
            for x in pool:
                for y in pool:
                    assert surreal.conway_mul(x, y) == x * y
            rng = random.Random(30303)
            big = surreal.born_by(12)
            for _ in range(500):
                x, y = rng.choice(big), rng.choice(big)
                assert surreal.conway_add(x, y) == x + y
                assert surreal.conway_mul(x, y) == x * y
        finally:
            gc.enable()
            surreal.clear_caches()


def test_criterion_4_simplicity_theorem():
    with criterion(4, "simplicity theorem", 60.0):
        days = birthday_oracle_pool(12)
        # scale everything by 2^12: pool values become plain integers
        scaled = [(int(v * 4096), d) for v, d in days.items()]
        rng = random.Random(40404)
        pool = surreal.born_by(12)
        done = 0
        while done < 500:
            a = rng.sample(pool, rng.randint(0, 3))
            b = rng.sample(pool, rng.randint(0, 3))
            if a and b and not max(a) < min(b):
                continue
            done += 1
            z = surreal.simplest(a, b)
            lo = max((x.num << (12 - x.k)) for x in a) if a else None
            hi = min((y.num << (12 - y.k)) for y in b) if b else None
            best_day = None
            witnesses = []
            for v, d in scaled:
                if lo is not None and not lo < v:
                    continue
                if hi is not None and not v < hi:
                    continue
                if best_day is None or d < best_day:
                    best_day = d
                    witnesses = [v]
                elif d == best_day:
                    witnesses.append(v)
            assert best_day is not None
            assert surreal.birthday(z) == best_day
            assert witnesses == [z.num << (12 - z.k)]  # unique at that birthday


def test_criterion_5_surreal_stage_reconstruction():
    with criterion(5, "surreal stage reconstruction", 1.0):
        order = linorder.FinOrder()
        sizes = []
        for _ in range(5):
            order = linorder.cut_extend(order)
            sizes.append(len(order))
        assert sizes == [1, 3, 7, 15, 31]
        order5, labels = linorder.simplest_dyadic_labels(5)
        listing = [labels[e] for e in order5.carrier]
        paper_listing = [
            "-4", "-3", "-5/2", "-2", "-7/4", "-3/2", "-5/4", "-1",
            "-7/8", "-3/4", "-5/8", "-1/2", "-3/8", "-1/4", "-1/8", "0",
            "1/8", "1/4", "3/8", "1/2", "5/8", "3/4", "7/8", "1",
            "5/4", "3/2", "7/4", "2", "5/2", "3", "4",
        ]
        assert [str(d) for d in listing] == paper_listing


def test_criterion_6_tc_and_goedel_machinery():
    with criterion(6, "transitive closure and tree coding", 120.0):
        rng = random.Random(60606)
        for _ in range(200):
            x = rand_hfset(rng, 6)
            assert hfset.tc(x) == saturate(x)

        # coding lemma at heights 1 and 2 for every x with |x| <= 2, rank <= 2
        v2 = [hfset.empty(), hfset.singleton(hfset.empty())]
        xs = [HFSet(c) for r in range(3) for c in itertools.combinations(v2, r)]
        for x in xs:
            assert len(x) <= 2 and hfset.rank_in(x) <= 2
            elems = list(x.elements)
            for n in (1, 2):
                width = 1 << n
                results = []
                # one label per vertex, breadth-first: 9 labellings at height 1, 729 at 2
                for labs in itertools.product(range(9), repeat=width - 1):
                    for tup in itertools.product(elems, repeat=width):
                        results.append(hfset.goedel_tree_eval(labs, tup))
                lhs = hfset.goedel_hull(x, n)
                assert HFSet(results) == lhs


def _wf_edge_subsets(n):
    # each unordered pair {i, j} has no edge, i -> j or j -> i: 3^(n(n-1)/2)
    # candidates, of which the closure below keeps the acyclic ones
    pairs = [((), ((i, j),), ((j, i),)) for i in range(n) for j in range(i + 1, n)]
    for choice in itertools.product(*pairs):
        edges = [e for c in choice for e in c]
        cl = [0] * n
        for i, j in edges:
            cl[i] |= 1 << j
        for k in range(n):
            for v in range(n):
                if cl[v] >> k & 1:
                    cl[v] |= cl[k]
        if any(cl[v] >> v & 1 for v in range(n)):
            continue
        yield edges


def _brute_min_increasing(n, edges):
    """The least labeling into range(n) that increases along every edge.

    The pointwise minimum of two increasing labelings is increasing, so a
    least one exists, and it comes first in lexicographic order: the
    backtracking search, trying values in ascending order, stops at the
    first complete labeling it finds."""
    inc = [[] for _ in range(n)]
    out = [[] for _ in range(n)]
    for u, v in edges:
        out[u].append(v)
        inc[v].append(u)
    assign = [0] * n

    def rec(i):
        if i == n:
            return True
        for val in range(n):
            ok = all(assign[u] < val for u in inc[i] if u < i)
            if ok:
                ok = all(val < assign[w] for w in out[i] if w < i)
            if ok:
                assign[i] = val
                if rec(i + 1):
                    return True
        return False

    rec(0)
    return assign


def test_criterion_7_rank_and_collapse():
    with criterion(7, "rank and Mostowski collapse", 120.0):
        total = 0
        for n in range(6):
            for edges in _wf_edge_subsets(n):
                g = wforder.FinDigraph(range(n), edges)
                assert wforder.is_well_founded(g)
                rm = wforder.rank_map(g)
                assert [rm[v] for v in range(n)] == _brute_min_increasing(n, edges)
                total += 1
        assert total == 1 + 1 + 3 + 25 + 543 + 29281  # labeled DAG counts

        rng = random.Random(70707)
        for _ in range(100):
            x = hfset.tc(rand_hfset(rng, 5))
            nodes = list(x.elements)
            g = wforder.FinDigraph(nodes, [(u, v) for u in nodes for v in nodes if u in v])
            image, is_iso = wforder.mostowski(g)
            assert is_iso
            assert all(image[v] == v for v in nodes)

        for _ in range(60):
            n = rng.randint(1, 10)
            preds = []
            seen = set()
            for i in range(n):
                while True:
                    p = frozenset(j for j in range(i) if rng.random() < 0.5)
                    if p not in seen:
                        seen.add(p)
                        preds.append(p)
                        break
            edges = [(j, i) for i in range(n) for j in preds[i]]
            g = wforder.FinDigraph(range(n), edges)
            image, is_iso = wforder.mostowski(g)
            assert is_iso  # predecessor sets are distinct by construction
            assert len(set(image.values())) == n
            for u in range(n):
                for v in range(n):
                    if u != v:
                        assert ((u, v) in g.edges) == (image[u] in image[v])


def test_criterion_8_cantor_bernstein():
    with criterion(8, "Cantor-Bernstein bijections", 5.0):
        rng = random.Random(80808)
        for _ in range(200):
            n = rng.randint(1, 64)
            xs = [f"x{i}" for i in range(n)]
            ys = [f"y{i}" for i in range(n)]
            f = dict(zip(xs, rng.sample(ys, n)))
            g = dict(zip(ys, rng.sample(xs, n)))
            h = wforder.cbs_bijection(f, g)
            assert sorted(h) == sorted(xs)
            assert sorted(h.values()) == sorted(ys)
            # independent layer computation: X_{n+2} = g[f[X_n]], X_1 = g[Y]
            layers = [set(xs), {g[y] for y in ys}]
            while layers[-2] != {g[f[x]] for x in layers[-2]}:
                layers.append({g[f[x]] for x in layers[-2]})
            g_inv = {v: k for k, v in g.items()}
            for x in xs:
                depth = 0
                while depth < len(layers) and x in layers[depth]:
                    depth += 1
                if depth >= len(layers) or depth % 2 == 1:
                    assert h[x] == f[x]
                else:
                    assert h[x] == g_inv[x]


def test_criterion_9_universality_and_back_and_forth():
    with criterion(9, "universal order and back-and-forth", 10.0):
        rng = random.Random(90909)

        def rand_str():
            return "".join(rng.choice("01") for _ in range(rng.randint(0, 10)))

        done = 0
        while done < 1000:
            a = [rand_str() for _ in range(rng.randint(0, 3))]
            b = [rand_str() for _ in range(rng.randint(0, 3))]
            if any(u_cmp_oracle(f, g) >= 0 for f in a for g in b):
                continue
            done += 1
            z = linorder.insert_between(a, b)
            assert all(u_cmp_oracle(f, z) < 0 for f in a)
            assert all(u_cmp_oracle(z, g) < 0 for g in b)
            for shorter in itertools.takewhile(lambda s: len(s) < len(z), linorder.binary_strings()):
                assert not (
                    all(u_cmp_oracle(f, shorter) < 0 for f in a)
                    and all(u_cmp_oracle(shorter, g) < 0 for g in b)
                )

        m = linorder.back_and_forth(linorder.binstring_side(), linorder.dyadic_side(), 64)
        strings = list(itertools.islice(linorder.binary_strings(), 32))
        dyads = list(itertools.islice(surreal.enumerate_dyadics(), 32))
        assert all(s in m for s in strings)
        values = set(m.values())
        assert all(d in values for d in dyads)
        items = list(m.items())
        for (s1, d1), (s2, d2) in itertools.combinations(items, 2):
            assert u_cmp_oracle(s1, s2) == ((d2 < d1) - (d1 < d2))


def test_criterion_10_gap_classifier():
    with criterion(10, "gap classifier", 1.0):
        import math

        for n in range(1, 10_001):
            result = linorder.classify_cut(linorder.SqrtThreshold(n))
            r = math.isqrt(n)
            if r * r == n:
                assert result == linorder.RightHasMin(numtower.Frac(r))
            else:
                assert result == linorder.GapCut()


def test_criterion_11_roundtrip_and_batch_determinism(tmp_path):
    with criterion(11, "round-trip fuzz and batch determinism", 10.0):
        rng = random.Random(111111)
        ev = cli.Session()
        for _ in range(4000):
            a = rand_ordinal(rng, 3, max_terms=3, max_coeff=9)
            assert ev.eval_text(str(a)) == a
        for _ in range(2000):
            x = rand_hfset(rng, 4, max_width=4)
            assert hfset.parse_set(str(x)) == x
        for _ in range(2000):
            f = numtower.Frac(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            back = numtower.parse_frac(str(f))
            assert back == f
        for _ in range(1000):
            d = Dyadic(rng.randint(-2000, 2000), rng.randint(0, 10))
            assert surreal.parse_dyadic(str(d)) == d
        for _ in range(1000):
            s = "".join(rng.choice("+-") for _ in range(rng.randint(0, 12)))
            assert surreal.to_signs(surreal.from_signs(s)) == s
            assert surreal.to_signs(surreal.from_signs(s.replace("+", "1").replace("-", "0"))) == s

        lines = []
        g = random.Random(7)
        for _ in range(40):
            lines.append(str(rand_ordinal(g, 2, max_terms=2, max_coeff=5)))
        lines += [":divmod w^2+w*3+2 w", ":simp {0} {1}", ":signs -3/4", ":cutclass sqrt 10", "{{},{{}}}"]
        src = tmp_path / "batch.txt"
        src.write_text("\n".join(lines) + "\n")
        first, second = io.StringIO(), io.StringIO()
        assert cli.run_batch(src, fmt="text", out=first) == 0
        assert cli.run_batch(src, fmt="text", out=second) == 0
        assert first.getvalue() == second.getvalue()
        j1, j2 = io.StringIO(), io.StringIO()
        assert cli.run_batch(src, fmt="json", out=j1) == 0
        assert cli.run_batch(src, fmt="json", out=j2) == 0
        assert j1.getvalue() == j2.getvalue()
        for line in j1.getvalue().splitlines():
            json.loads(line)
