"""Fast self-test of the benchmark itself, at tiny sizes (about a minute).

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that a zero-hit noise level counts as a failed operation instead of
raising, and the self-time arithmetic of the span recorder.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer, block_seconds, self_times  # noqa: E402
from workloads import (  # noqa: E402
    FP_REF, Op, OpResult, check_sweep, end_to_end, pooled_problems,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    if out.returncode != 0:
        raise AssertionError(f"run.py failed: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in (w["name"] for w in SPEC["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    result = run_bench(workload, trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = result["metrics"]
                    self.assertEqual(set(got), set(expected))
                    for name, unit in expected.items():
                        self.assertEqual(got[name]["unit"], unit, name)
                        self.assertIsInstance(got[name]["value"], float, name)


class ZeroHitLevel(unittest.TestCase):
    def test_zero_hit_level_is_a_failed_operation(self):
        import child
        import wellescape.cli

        cfg = dict(mode="sweep", potential="cosine", sampling="invert", T=1.0,
                   h=1e-2, tau=1e-2, epsilons=(0.25,), sweep_n=(4096,),
                   seed=1, workers=1)
        with tempfile.TemporaryDirectory() as tmp:
            res = child.run_op(wellescape.cli, Op("sweep", cfg, check_sweep),
                               Path(tmp) / "op")
        self.assertEqual(res.code, 0)
        self.assertIsNone(res.error)
        self.assertEqual(res.rows[0]["hits"], "0")
        self.assertTrue(any("zero hits" in p for p in res.problems), res.problems)

    def test_pooled_estimators_without_hits_fail(self):
        row = dict(N="4096", mean="0", per_sample_variance="0")
        rows = [dict(row, estimator="plain", potential="cosine_well", tau="")]
        rows += [dict(row, estimator="importance", potential=f"{s}(cosine_well)", tau=t)
                 for s in ("flatten", "invert") for t in ("0.1", "0.01", "0.001")]
        checks = pooled_problems("table5", rows * 2)
        self.assertEqual(len(checks), 5)
        self.assertTrue(all(checks), checks)


class PooledCheck(unittest.TestCase):
    def sweep_rows(self, eps, probability, units=4, n=65536, lam=50.0):
        return [{"epsilon": str(eps), "n": str(n), "hits": "100",
                 "probability": repr(probability), "lambda": repr(lam)}] * units

    def test_bias_that_each_row_passes_fails_when_pooled(self):
        ref = FP_REF["values"]["1"]["refined"]
        rows = self.sweep_rows(1, 1.12 * ref, units=16, n=32768)
        one = OpResult("sweep", 0, None, "", rows[:1], 0.0)
        self.assertEqual(check_sweep(one, {"epsilons": (1.0,)}), [])
        problems = pooled_problems("sweep", rows)[0]
        self.assertEqual(len(problems), 1)
        self.assertIn("SE from FP", problems[0])

    def test_unbiased_rows_pass(self):
        rows = [r for eps in (1.0, 0.75, 0.5)
                for r in self.sweep_rows(eps, FP_REF["values"][format(eps, "g")]["refined"])]
        self.assertEqual(pooled_problems("sweep", rows), [[], [], []])


class HostScale(unittest.TestCase):
    def test_unit_times_are_scaled_by_host_speed(self):
        # The same work measured on a host running at half speed (scale 0.5)
        # and at full speed gives the same scaled metrics.
        def unit(scale):
            return {"wall": 4.0 / scale, "host_scale": scale, "rows": [],
                    "fp": [{"epsilon": 0.5, "value": None, "cell_steps": 10.0,
                            "seconds": 2.0 / scale}]}
        got = end_to_end("fp_oracle", [unit(0.5), unit(1.0), unit(0.5)])
        self.assertAlmostEqual(got["wall_s"], 4.0)
        self.assertAlmostEqual(got["steps_per_s"], 5.0)
        self.assertAlmostEqual(got["t1pct_s"], 2.0)


class SelfTime(unittest.TestCase):
    def test_duration_minus_children(self):
        #         0: [0, 10]
        #   1: [1, 3]    2: [4, 6.5]    3: [7, 8]
        #                      4: [7.2, 7.5] under 3
        start = [0.0, 1.0, 4.0, 7.0, 7.2]
        end = [10.0, 3.0, 6.5, 8.0, 7.5]
        parent = [-1, 0, 0, 0, 3]
        got = self_times(start, end, parent)
        want = [10 - (2 + 2.5 + 1), 2.0, 2.5, 1 - 0.3, 0.3]
        for g, w in zip(got, want):
            self.assertAlmostEqual(g, w, places=12)

    def test_recorded_nesting(self):
        tracer = Tracer()

        def inner():
            return 1

        traced_inner = tracer.wrap("inner", inner)
        outer = tracer.wrap("outer", lambda: traced_inner() + traced_inner())
        self.assertEqual(outer(), 2)
        cols = tracer.columns()
        self.assertEqual(cols["name"], ["outer", "inner", "inner"])
        self.assertEqual(cols["parent"], [-1, 0, 0])
        own = self_times(cols["start"], cols["end"], cols["parent"])
        dur = [e - s for s, e in zip(cols["start"], cols["end"])]
        self.assertTrue(math.isclose(own[0], dur[0] - dur[1] - dur[2], abs_tol=1e-12))

    def test_block_runs_to_its_last_summary(self):
        names = ["sde.block_normals", "sde.evolve_block", "estimators.from_values",
                 "estimators.from_values", "sde.block_normals",
                 "estimators.from_values", "estimators.merge"]
        start = [1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0]
        end = [2.0, 3.0, 3.5, 4.5, 6.5, 7.25, 9.0]
        self.assertEqual(block_seconds(names, start, end), [3.5, 1.25])


if __name__ == "__main__":
    unittest.main()
