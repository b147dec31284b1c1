"""Host-speed calibration for the end-to-end times.

A small shared VM changes speed by itself: the same fixed pure-Python
loop runs up to 2x slower for phases of seconds to over a minute, and
CPU time moves with wall time, so neither can be averaged away inside a
run.  The timed loop therefore times a fixed pure-Python kernel
between blocks of ops (about every GAP_S of op time, and before and
after set-up) and scales each op's wall time by REF_S over the kernel
time measured around it.  The end-to-end times read as they would on a
host where the kernel takes REF_S; the unscaled figures are printed
beside them.  The kernel touches no setkernel code, so a change to the
program moves the scaled times as it moves the raw ones.
"""

import gc
import time

REF_S = 125e-6  # kernel time on the 2-core VM where the bounds were set
GAP_S = 0.02  # op time between two calibrations
REPEATS = 3  # a calibration is the fastest of this many kernel runs


def _kernel():
    acc = 0
    d = {}
    for i in range(300):
        key = (i % 37, i & 7)
        d[key] = d.get(key, 0) + i
        acc += len(str(i * 12345))
    items = sorted(d.items(), key=lambda kv: (kv[1], kv[0]))
    return acc + len(items)


def calibrate():
    """Seconds the kernel takes now, with the collector held off so a
    full collection of the program's heap is not counted."""
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(REPEATS):
            t0 = clock()
            _kernel()
            t = clock() - t0
            if best is None or t < best:
                best = t
    finally:
        if enabled:
            gc.enable()
    return best


def scale(latencies, cals):
    """Scaled op times: `cals` is a list of (op index, kernel seconds),
    starting at op 0 and ending at len(latencies); the ops between two
    calibrations are scaled by REF_S over the mean of the two."""
    out = []
    for (a, ca), (b, cb) in zip(cals, cals[1:]):
        f = REF_S * 2 / (ca + cb)
        out.extend(x * f for x in latencies[a:b])
    return out
