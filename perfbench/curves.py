"""Growth curves: one timed call per size, for the asymptotic costs that
ROADMAP item 1 names.  They run in a fresh process of their own during
the traced run and report as per-layer metrics."""

import random
import time
from fractions import Fraction

import model

from setkernel import hfset, surreal, wforder

# base name -> (size letter, sizes, unit)
CURVES = {
    "curve.hfset.vn_nat": ("n", (50, 100, 200), "ms"),
    "curve.hfset.eq_indep": ("n", (14, 16, 18), "ms"),
    "curve.wforder.mostowski_chains": ("n", (14, 18, 20), "ms"),
    "curve.surreal.mul_grid_cold": ("d", (5, 6, 7), "s"),
    "curve.wforder.rank_map_dag": ("n", (500, 1000, 2000), "ms"),
}

DAG_EDGE_PROB = 0.05


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _vn_nat(n, rng):
    out, dt = _timed(hfset.vn_nat, n)
    return dt, model.to_model(out) == model.vn(n)


def _eq_indep(n, rng):
    a, b = hfset.vn_nat(n), hfset.vn_nat(n)
    out, dt = _timed(lambda: a == b)
    return dt, out is True


def _mostowski_chains(n, rng):
    nodes = [f"{p}{i}" for p in "ab" for i in range(n)]
    edges = [(f"{p}{i}", f"{p}{j}") for p in "ab" for i in range(n) for j in range(i + 1, n)]
    g = wforder.FinDigraph(nodes, edges)
    (image, is_iso), dt = _timed(wforder.mostowski, g)
    ok = not is_iso and all(model.to_model(image[f"{p}{n - 1}"]) == model.vn(n - 1) for p in "ab")
    return dt, ok


def _mul_grid_cold(d, rng):
    vals = model.born_by(d)
    xs = [surreal.Dyadic(v.numerator, v.denominator.bit_length() - 1) for v in vals]
    surreal.clear_caches()

    def grid():
        return [surreal.conway_mul(x, y) for x in xs for y in xs]

    out, dt = _timed(grid)
    want = [x * y for x in vals for y in vals]
    ok = all(Fraction(r.num, 1 << r.k) == w for r, w in zip(out, want))
    surreal.clear_caches()
    return dt, ok


def _rank_map_dag(n, rng):
    edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < DAG_EDGE_PROB]
    g = wforder.FinDigraph(range(n), edges)
    ranks, dt = _timed(wforder.rank_map, g)
    # longest path from a source, by a pass in index order (edges go up)
    want = [0] * n
    for i, j in sorted(edges, key=lambda e: e[1]):
        want[j] = max(want[j], want[i] + 1)
    return dt, ranks == dict(enumerate(want))


_POINTS = {
    "curve.hfset.vn_nat": _vn_nat,
    "curve.hfset.eq_indep": _eq_indep,
    "curve.wforder.mostowski_chains": _mostowski_chains,
    "curve.surreal.mul_grid_cold": _mul_grid_cold,
    "curve.wforder.rank_map_dag": _rank_map_dag,
}


def run(seed):
    """{metric name: {value, unit}} and whether every result was right."""
    rng = random.Random(f"curves/{seed}")
    points, correct = {}, True
    for base, (letter, sizes, unit) in CURVES.items():
        for size in sizes:
            dt, ok = _POINTS[base](size, rng)
            points[f"{base}.{letter}{size}_{unit}"] = {"value": dt * 1000 if unit == "ms" else dt, "unit": unit}
            correct = correct and ok
    return points, correct
