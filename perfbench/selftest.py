"""Short-run checks of the benchmark itself.

    python3 -m unittest perfbench/selftest.py      (from the repository root)

They confirm that every metric BENCHMARK.json names is printed with its
unit, that a wrong answer injected into the program raises fail_ratio,
that the host-speed scaling covers every op of a timed round, that a
seed fixes the inputs, and that in a traced round the layer self
times plus the benchmark's own time add up to the op wall time.  The
file name keeps pytest from collecting it with the Tier-1 suite.
"""

import hashlib
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calib  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from setkernel import cli, surreal  # noqa: E402
from setkernel.errors import EvalError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT, capture_output=True,
                         text=True, timeout=170)
    if out.returncode != 0:
        raise AssertionError(out.stderr)
    return json.loads(out.stdout.splitlines()[-1])


def plain_inputs(rnd):
    """Digest of a round's plain-data inputs (a Session stands for nothing)."""
    args = [arg[1] if isinstance(arg, tuple) and isinstance(arg[0], cli.Session) else arg for _, arg in rnd.ops]
    return hashlib.sha256(repr((rnd.kinds, args)).encode()).hexdigest()


class MetricsTest(unittest.TestCase):
    def test_every_end_to_end_metric_with_its_unit(self):
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                r = bench("--workload", w["name"], "--seed", "7", "--seconds", "1", "--trace", "0")
                self.assertTrue(r["correct"])
                self.assertGreaterEqual(r["attempted"], 1000)
                self.assertEqual({k: v["unit"] for k, v in r["metrics"].items()}, want)
                self.assertGreater(r["metrics"]["fail_ratio"]["value"], 0)

    def test_every_per_layer_metric_with_its_unit(self):
        r = bench("--workload", "cli_mixed", "--seed", "7", "--seconds", "1", "--trace", "1")
        self.assertTrue(r["correct"])
        self.assertEqual({k: v["unit"] for k, v in r["metrics"].items()},
                         {m["name"]: m["unit"] for m in SPEC["per_layer"]})
        for layer in tracing.LAYERS:
            self.assertGreater(r["metrics"][f"{layer}.calls"]["value"], 0, layer)


class OracleTest(unittest.TestCase):
    def test_judge(self):
        value = workloads.Value(lambda out, want: out == want, 3)
        typed = workloads.Typed()
        self.assertIsNone(workloads.judge(3, value))
        self.assertEqual(workloads.judge(4, value), "wrong value")
        self.assertIn("untyped", workloads.judge(RecursionError(), value))
        self.assertIn("where a value was due", workloads.judge(EvalError("x"), value))
        self.assertIsNone(workloads.judge(EvalError("x"), typed))
        self.assertIsNone(workloads.judge(ZeroDivisionError(), typed))
        self.assertIn("untyped", workloads.judge(ValueError(), typed))
        self.assertEqual(workloads.judge(3, typed), "value where a typed error was due")
        either = workloads.ValueOrTyped(lambda out: out == 1)
        self.assertIsNone(workloads.judge(EvalError("x"), either))
        self.assertIsNone(workloads.judge(1, either))
        self.assertIn("untyped", workloads.judge(OverflowError(), either))

    def test_injected_wrong_answer_raises_fail_ratio(self):
        def measure():
            surreal.clear_caches()
            rnd = workloads.build("surreal_conway", 5, 0, "unused")
            lat, failures, cals = worker.run_plain(rnd, workloads.judge)
            result = {"ops": len(lat), "failed": len(failures), "latencies_s": lat, "timed_s": sum(lat),
                      "cals": cals, "maxrss_kib": 1, "setup_s": 0.0, "setup_cals": [calib.REF_S] * 2}
            return run.end_to_end([result])[0]["fail_ratio"], failures, rnd

        base, _, _ = measure()
        real = surreal.conway_mul
        one = surreal.Dyadic(1)

        def wrong(x, y):
            out = real(x, y)
            return out + one if x == one and y == one else out

        surreal.conway_mul = wrong
        try:
            injected, failures, rnd = measure()
        finally:
            surreal.conway_mul = real
        self.assertGreater(injected, base)
        self.assertIn(("mul", "wrong value"), {(rnd.kinds[i], why) for i, why in failures})


class CalibrationTest(unittest.TestCase):
    def test_scale(self):
        ref = calib.REF_S
        lat = [1.0, 2.0, 3.0, 4.0]
        self.assertEqual(calib.scale(lat, [(0, ref), (4, ref)]), lat)
        # twice as slow around ops 0-1; ops 2-3 take the mean of the
        # calibrations around them, 1.5 times as slow
        got = calib.scale(lat, [(0, 2 * ref), (2, 2 * ref), (4, ref)])
        for g, want in zip(got, [0.5, 1.0, 3 / 1.5, 4 / 1.5]):
            self.assertAlmostEqual(g, want)

    def test_timed_round_calibrates_from_first_op_to_last(self):
        surreal.clear_caches()
        rnd = workloads.build("sets_compare", 5, 0, "unused")
        lat, _, cals = worker.run_plain(rnd, workloads.judge)
        self.assertEqual(cals[0][0], 0)
        self.assertEqual(cals[-1][0], len(lat))
        self.assertGreater(len(cals), 2)
        self.assertEqual(len(calib.scale(lat, cals)), len(lat))
        self.assertTrue(all(c > 0 for _, c in cals))


class InputsTest(unittest.TestCase):
    def test_seed_fixes_inputs(self):
        for w in workloads.BY_NAME:
            with self.subTest(workload=w):
                tmp = ROOT / ".perfbench" / f"selftest-{w}"
                tmp.mkdir(parents=True, exist_ok=True)
                a = plain_inputs(workloads.build(w, 11, 2, str(tmp)))
                b = plain_inputs(workloads.build(w, 11, 2, str(tmp)))
                c = plain_inputs(workloads.build(w, 12, 2, str(tmp)))
                for f in tmp.iterdir():
                    f.unlink()
                tmp.rmdir()
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)


class TraceTest(unittest.TestCase):
    def test_self_times_and_benchmark_time_add_up_to_op_wall(self):
        out = subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", "cli_mixed", "--seed", "3",
                              "--round", "0", "--mode", "traced"], cwd=ROOT, capture_output=True, text=True,
                             timeout=170)
        self.assertEqual(out.returncode, 0, out.stderr)
        r = json.loads(out.stdout.splitlines()[-1])
        data = json.loads((ROOT / r["trace"]["spans_file"]).read_text())
        spans, windows = data["spans"], data["windows"]
        self.assertEqual(r["trace"]["spans_outside_op"], 0)
        own = tracing.self_times(spans)
        per_op = [0.0] * len(windows)
        top = [[] for _ in windows]
        for s, t in zip(spans, own):
            per_op[s[tracing.OP]] += t
            if s[tracing.PARENT] is None:
                top[s[tracing.OP]].append((s[tracing.START], s[tracing.END]))
        for i, (t0, t1) in enumerate(windows):
            bench_time = (t1 - t0) - sum(e - b for b, e in top[i])
            self.assertGreaterEqual(bench_time, 0.0)
            self.assertAlmostEqual(per_op[i] + bench_time, t1 - t0, delta=1e-9)
        layer_self = sum(v["self_s"] for v in r["trace"]["layers"].values())
        self.assertAlmostEqual(layer_self + r["trace"]["own_s"], r["timed_s"], delta=1e-6)
        self.assertLess(r["trace"]["own_s"], 0.1 * r["timed_s"])


if __name__ == "__main__":
    unittest.main()
