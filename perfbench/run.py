"""The setkernel benchmark: one workload, timed or traced, from one seed.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it starts fresh
worker processes one after another, one round of the workload each,
until S seconds have passed (at least MIN_ROUNDS rounds), and prints
the end-to-end metrics, their times scaled to a reference host speed
(calib.py).  With --trace 1 it runs round 0 plain and with
layer spans recorded, alternating, TRACE_PAIRS times each, then the
growth curves, and prints the per-layer metrics.  Human-readable rows
go first; the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits non-zero without that line when a worker fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
from tracing import LAYERS, RENDER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_mixed", "surreal_conway", "sets_build", "sets_compare")
MIN_ROUNDS = 3
TRACE_PAIRS = 3  # plain and traced runs of round 0, alternating
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


class WorkerError(Exception):
    pass


def run_worker(workload, seed, rnd, mode, deadline):
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--round", str(rnd), "--mode", mode]
    # a fixed hash seed per (seed, round) keeps set and dict orders, and so
    # the work done, the same for the timed and the traced run of a round
    env = dict(os.environ, PYTHONHASHSEED=str((seed * 1009 + rnd) % 4294967296))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker for round {rnd} passed the deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker for round {rnd} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(sorted_values, p):
    """Nearest-rank percentile; requires ten samples beyond it."""
    n = len(sorted_values)
    idx = max(0, math.ceil(p / 100 * n) - 1)
    if n - idx - 1 < 10:
        raise WorkerError(f"p{p} needs ten samples beyond it, have {n} samples")
    return sorted_values[idx]


def end_to_end(rounds):
    """Aggregate timed rounds: throughput and percentiles over all ops
    (so host speed phases within a run average out in proportion rather
    than flipping a median between them); memory and set-up as medians
    over rounds.  Times are scaled to the reference host speed
    (calib.py); the bases give the unscaled figures."""
    scaled = [calib.scale(r["latencies_s"], r["cals"]) for r in rounds]
    lat = sorted(x for s in scaled for x in s)
    raw = sorted(x for r in rounds for x in r["latencies_s"])
    timed = sum(map(sum, scaled))
    raw_timed = sum(r["timed_s"] for r in rounds)
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    setup = [r["setup_s"] * calib.REF_S * 2 / sum(r["setup_cals"]) for r in rounds]
    raw_setup = statistics.median(r["setup_s"] for r in rounds)
    values = {
        "throughput_ops_s": attempted / timed,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p99_ms": percentile(lat, 99) * 1e3,
        "fail_ratio": failed / attempted,
        "peak_rss_mb": statistics.median(r["maxrss_kib"] for r in rounds) / 1024,
        "setup_s": statistics.median(setup),
    }
    speed = "scaled to the reference speed; unscaled"
    bases = {
        "throughput_ops_s": f"{attempted} ops over {timed:.3f} s of op wall time, {len(rounds)} rounds, "
                            f"{speed} {attempted / raw_timed:.6g} ops/s",
        "latency_p50_ms": f"{len(lat)} ops, {speed} {statistics.median(raw) * 1e3:.6g} ms",
        "latency_p99_ms": f"{len(lat)} ops, {len(lat) - math.ceil(0.99 * len(lat))} beyond, "
                          f"{speed} {percentile(raw, 99) * 1e3:.6g} ms",
        "fail_ratio": f"{failed} of {attempted} ops",
        "peak_rss_mb": f"median ru_maxrss of {len(rounds)} worker processes",
        "setup_s": f"median of {len(rounds)} worker processes, {speed} {raw_setup:.6g} s",
    }
    return values, bases, attempted, failed


def per_layer(plain, traced, curves):
    """Per-layer metrics, with their units and bases: the layer figures
    come from the last traced run of round 0, whose spans file is kept;
    the overhead compares the median op wall of traced and plain runs."""
    walls = [statistics.median(r["timed_s"] for r in runs) for runs in (traced, plain)]
    traced = traced[-1]
    tr = traced["trace"]["layers"]
    rows = {}
    for layer in LAYERS + (RENDER,):
        t = tr[layer]
        rows[f"{layer}.calls"] = (t["calls"], "count", "spans entering the layer")
        rows[f"{layer}.self_ms"] = (t["self_s"] * 1e3, "ms", "span time minus child spans")
        if layer != RENDER:
            rows[f"{layer}.errors"] = (t["errors"], "count", "spans left by an exception")
    entries, calls = traced["surreal_cache_entries"], tr["surreal"]["calls"]
    rows["surreal.cache_entries"] = (entries, "count", "sum of surreal.cache_sizes() after the round")
    rows["surreal.entries_per_call"] = (entries / calls if calls else 0.0, "entries/call",
                                        f"{entries} entries over {calls} surreal calls")
    rows["trace.overhead_ratio"] = (walls[0] / walls[1], "ratio",
                                    f"median traced {walls[0]:.4f} s over median untraced {walls[1]:.4f} s, "
                                    f"{TRACE_PAIRS} runs of {traced['ops']} ops each")
    for name, point in curves["curves"].items():
        rows[name] = (point["value"], point["unit"], "one timed call")
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description="setkernel benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    try:
        if args.trace:
            plain, traced = [], []
            for _ in range(TRACE_PAIRS):
                plain.append(run_worker(args.workload, args.seed, 0, "timed", deadline))
                traced.append(run_worker(args.workload, args.seed, 0, "traced", deadline))
            curves = run_worker(args.workload, args.seed, 0, "curves", deadline)
            rows = per_layer(plain, traced, curves)
            correct = all(r["correct"] for r in plain + traced) and curves["correct"]
            traced = traced[-1]
            attempted, failed = traced["ops"], traced["failed"]
            known = traced["known_defect_ops"]
            t = traced["trace"]
            layer_self = sum(v["self_s"] for v in t["layers"].values())
            print(f"# trace: {t['spans']} spans in {t['spans_file']}; layer self times {layer_self:.4f} s "
                  f"+ benchmark {t['own_s']:.4f} s = {layer_self + t['own_s']:.4f} s, "
                  f"op wall {traced['timed_s']:.4f} s")
        else:
            rounds = []
            while len(rounds) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
                rounds.append(run_worker(args.workload, args.seed, len(rounds), "timed", deadline))
            values, bases, attempted, failed = end_to_end(rounds)
            rows = {k: (values[k], END_TO_END[k], bases[k]) for k in END_TO_END}
            correct = all(r["correct"] for r in rounds)
            known = sum(r["known_defect_ops"] for r in rounds)
            fails = {}
            for r in rounds:
                for k, v in r["failures"].items():
                    fails[k] = fails.get(k, 0) + v
            for k in sorted(fails):
                print(f"# failed {fails[k]:>5}  {k}")
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {attempted} ops, {failed} failed, "
          f"{known} known-defect ops (NOTES.md), correct {correct}")
    for name, (value, unit, base) in rows.items():
        print(f"{name:<42} {value:>14.6g} {unit:<13} ({base})")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in rows.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
