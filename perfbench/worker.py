"""One round of one workload in a fresh process; prints one JSON object.

    python3 perfbench/worker.py --workload W --seed S --round R --mode timed|traced|curves

`timed` installs nothing and times each op; `traced` runs the same
inputs with layer spans recorded (see tracing.py) and writes the spans
to .perfbench/ at the end; `curves` times the growth-curve points.
Set-up time runs from the top of this file to the first op: importing
setkernel, generating the inputs and resetting the caches.  A timed
round also records host-speed calibrations (see calib.py): one before
set-up, then one about every calib.GAP_S of op time and one at the end.
"""

import time

import calib

calib.calibrate()  # warm the kernel
CAL0 = calib.calibrate()
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"


def _import_kernel():
    if not (SRC / "setkernel" / "__init__.py").is_file():
        sys.exit(f"perfbench: no setkernel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from setkernel import surreal

    return surreal


def run_plain(rnd, judge):
    """The timed loop: per-op latency, judged outside the timed region,
    with host-speed calibrations between blocks of ops, as (op index,
    kernel seconds) from op 0 to the end."""
    clock = time.perf_counter
    expects = rnd.expects
    lat, failures = [], []
    cals = [(0, calib.calibrate())]
    since = 0.0
    for i, (fn, arg) in enumerate(rnd.ops):
        if since >= calib.GAP_S:
            cals.append((i, calib.calibrate()))
            since = 0.0
        t0 = clock()
        try:
            out = fn(arg)
        except Exception as exc:  # every escape is recorded and judged
            out = exc
        t1 = clock()
        lat.append(t1 - t0)
        since += t1 - t0
        reason = judge(out, expects[i])
        if reason:
            failures.append((i, reason))
    cals.append((len(lat), calib.calibrate()))
    return lat, failures, cals


def run_traced(rnd, judge, tracer):
    """The same loop with spans recorded between resume and pause."""
    clock = time.perf_counter
    expects = rnd.expects
    lat, failures, windows = [], [], []
    for i, (fn, arg) in enumerate(rnd.ops):
        tracer.resume(i)
        t0 = clock()
        try:
            out = fn(arg)
        except Exception as exc:  # every escape is recorded and judged
            out = exc
        t1 = clock()
        tracer.pause()
        lat.append(t1 - t0)
        windows.append((t0, t1))
        reason = judge(out, expects[i])
        if reason:
            failures.append((i, reason))
    return lat, failures, windows


def summarize_failures(rnd, failures):
    by_kind = {}
    for i, reason in failures:
        key = f"{rnd.kinds[i]}: {reason}"
        by_kind[key] = by_kind.get(key, 0) + 1
    return by_kind


def trace_report(tracer, lat, windows, spans_path):
    import tracing

    spans = tracer.spans
    totals = tracing.layer_totals(spans)
    covered = tracing.top_level_time(spans)
    own = [wall - covered.get(i, 0.0) for i, wall in enumerate(lat)]
    outside = sum(
        1 for s in spans
        if s[tracing.START] < windows[s[tracing.OP]][0] or s[tracing.END] > windows[s[tracing.OP]][1]
    )
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"layers": list(tracing.REPORTED), "windows": windows, "spans": spans}, fh)
    return {
        "layers": {k: {"calls": v[0], "self_s": v[1], "errors": v[2]} for k, v in totals.items()},
        "own_s": sum(own),
        "spans": len(spans),
        "spans_outside_op": outside,
        "spans_file": os.path.relpath(spans_path, ROOT),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--mode", choices=("timed", "traced", "curves"), default="timed")
    args = ap.parse_args(argv)

    surreal = _import_kernel()
    OUT_DIR.mkdir(exist_ok=True)
    if args.mode == "curves":
        import curves

        values, correct = curves.run(args.seed)
        print(json.dumps({"curves": values, "correct": correct}))
        return 0

    import workloads

    if args.workload not in workloads.BY_NAME:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    # a fixed name, so that a seed gives the same input lines byte for byte
    tmp = OUT_DIR / f"files-{args.workload}-{args.seed}-{args.round}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        surreal.clear_caches()
        rnd = workloads.build(args.workload, args.seed, args.round, os.path.relpath(tmp, ROOT))
        tracer = None
        if args.mode == "traced":
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        setup_s = time.perf_counter() - T0
        cals = windows = None
        if tracer is None:
            lat, failures, cals = run_plain(rnd, workloads.judge)
        else:
            lat, failures, windows = run_traced(rnd, workloads.judge, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    defect_failures = sum(1 for i, _ in failures if rnd.defects[i])
    result = {
        "ops": len(lat),
        "failed": len(failures),
        "known_defect_ops": sum(rnd.defects),
        "failures": summarize_failures(rnd, failures),
        "correct": defect_failures == len(failures),
        "latencies_s": lat,
        "timed_s": sum(lat),
        "setup_s": setup_s,
        "setup_cals": [CAL0, cals[0][1]] if cals else None,
        "cals": cals,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "surreal_cache_entries": sum(surreal.cache_sizes()),
    }
    if tracer is not None:
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}-{args.round}.json"
        result["trace"] = trace_report(tracer, lat, windows, spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
