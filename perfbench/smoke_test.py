"""Smoke test of the benchmark pipeline on tiny instances; takes seconds.

    python3 perfbench/smoke_test.py
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = {
    "queens-tiny": {
        "instance": "queens:8",
        "search": "first",
        "restore": "trail",
        "queue": "fifo",
        "expect": {"nodes": 50, "backtracks": 24, "solutions": 1},
    },
    "golomb-tiny": {
        "instance": "golomb:5",
        "search": "minimize",
        "bnb": "tighten",
        "restore": "copy-recompute:8",
        "queue": "priority",
        "expect": {"nodes": 54, "backtracks": 26, "solutions": 2, "objective": 11},
    },
    "golfers-tiny": {
        "instance": "golfers:2,3,3+ext",
        "search": "first",
        "restore": "copy",
        "queue": "fifo",
        "expect": {"nodes": 36, "backtracks": 9, "solutions": 1},
    },
}

SECONDS = 0.3


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.fd = run.load_fdlab()
        with open(run.ROOT / "BENCHMARK.json") as f:
            cls.bench = json.load(f)

    def workload(self, name, **expect):
        spec = dict(TINY[name])
        spec["expect"] = {**spec["expect"], **expect}
        return run.Workload(self.fd, name, spec)

    def test_every_declared_metric_is_emitted(self):
        for name in TINY:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result, log = run.measure(self.fd, self.workload(name), 1, SECONDS, trace)
                    self.assertTrue(result["correct"], log)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in self.bench[key]}
                    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(emitted, declared)
                    for k, v in result["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), k)
                    json.dumps(result)

    def test_traced_run_checks_hold(self):
        for name in TINY:
            with self.subTest(workload=name):
                result, log = run.measure(self.fd, self.workload(name), 2, SECONDS, True)
                m = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertTrue(result["correct"], log)
                self.assertAlmostEqual(m["trace.self_time_ratio"], 1.0, delta=run.SELF_TIME_TOLERANCE)
                self.assertGreater(m["trace.overhead_ratio"], 1.0)
                expect = TINY[name]["expect"]
                self.assertEqual(m["search.nodes"], expect["nodes"])
                self.assertEqual(m["search.backtracks"], expect["backtracks"])
                self.assertGreater(m["propagate.fixpoint_calls"], 0)
                self.assertGreater(m["domain.narrow_calls"], 0)

    def test_trajectory_does_not_depend_on_seed(self):
        wl = self.workload("golomb-tiny")
        for seed in (3, 4, 5):
            with self.subTest(seed=seed):
                result, log = run.measure(self.fd, wl, seed, SECONDS, False)
                self.assertTrue(result["correct"], log)

    def test_yardstick_scales_stretches_and_drops_slices(self):
        ref = run.CAL_REF_S
        ys = run.Yardstick()
        # (start, end, slice seconds): one slice before, one inside, one after.
        ys.samples = [(0.0, 0.5, ref), (2.0, 2.5, 2 * ref), (5.0, 5.5, 2 * ref)]
        # [1, 2] at the mean of ref and 2 ref, [2.5, 4] at 2 ref.
        self.assertAlmostEqual(ys.reference_seconds(1.0, 4.0), 1.0 / 1.5 + 1.5 / 2)
        ys.samples = [(0.0, 0.1, ref), (1.0, 1.1, ref)]
        self.assertAlmostEqual(ys.reference_seconds(0.2, 0.7), 0.5)

    def test_yardstick_ticks_inside_a_long_region(self):
        ys = run.Yardstick()
        ys.sample()
        start = run.clock()
        with ys.ticking():
            while run.clock() < start + 2.5 * run.TICK_S:
                pass
        end = run.clock()
        ys.sample()
        self.assertGreaterEqual(len(ys.samples), 4)
        self.assertGreater(ys.reference_seconds(start, end), 0)

    def test_wrong_trajectory_counts_as_failed(self):
        for name in TINY:
            nodes = TINY[name]["expect"]["nodes"] + 1
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    wl = self.workload(name, nodes=nodes)
                    result, _ = run.measure(self.fd, wl, 1, SECONDS, trace)
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"], 0)
                    self.assertGreater(result["failed"] / result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
