"""Fast self-test of the benchmark's own arithmetic and of BENCHMARK.json.

    python3 bench/selftest.py

Covers self time from nested spans, the percentile sample-count rule,
metric-name validity, and that BENCHMARK.json declares exactly the metrics
and workloads the code reports.  Runs in well under a second and never runs
a workload.
"""

from __future__ import annotations

import json
import sys
import types
import unittest
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402
from spans import (Tracer, descendants, median, percentile, self_by_module,  # noqa: E402
                   self_times, valid_name, valid_unit)


class FakeClock:
    """Advances one tick per reading, so every span length is known."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_spans(self):
        # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]
        spans = [("x.a", 0.0, 10.0, -1, -1), ("y.b", 1.0, 4.0, 0, -1),
                 ("z.d", 2.0, 3.0, 1, -1), ("y.c", 5.0, 9.0, 0, -1)]
        self.assertEqual(self_times(spans), [3.0, 2.0, 1.0, 4.0])
        self.assertEqual(self_by_module(spans), {"x": 3.0, "y": 6.0, "z": 1.0})
        self.assertEqual(descendants(spans, 1), {1, 2})
        self.assertEqual(self_by_module(spans, select=descendants(spans, 1).__contains__),
                         {"y": 2.0, "z": 1.0})

    def test_tracer_nesting_sums_to_wall(self):
        mod = types.SimpleNamespace()
        mod.leaf = lambda: None
        mod.outer = lambda: (mod.leaf(), mod.leaf())

        class Thing:
            def work(self):
                return mod.outer()

        tracer = Tracer(clock=FakeClock())
        tracer.wrap(mod, "leaf", "m.leaf")
        tracer.wrap(mod, "outer", "m.outer")
        tracer.wrap(Thing, "work", "k.work", record=lambda a, kw, r: len(a))
        original_leaf, original_work = mod.leaf, Thing.__dict__["work"]
        tracer.install()
        with tracer.span("bench.root") as root:
            Thing().work()
        tracer.uninstall()
        self.assertIs(mod.leaf, original_leaf)
        self.assertIs(Thing.__dict__["work"], original_work)
        spans = tracer.spans
        self.assertEqual([s[0] for s in spans],
                         ["bench.root", "k.work", "m.outer", "m.leaf", "m.leaf"])
        self.assertEqual([s[3] for s in spans], [-1, 0, 1, 2, 2])
        by_module = self_by_module(spans)
        wall = spans[root][2] - spans[root][1]
        self.assertAlmostEqual(sum(by_module.values()), wall)
        self.assertEqual(by_module["m"], 3.0 + 2 * 1.0)   # outer self + two leaves
        self.assertEqual(tracer.values["k.work"], [1])
        self.assertEqual(tracer.durations()["m.leaf"], [1.0, 1.0])

    def test_exception_closes_span(self):
        mod = types.SimpleNamespace(fail=lambda: 1 / 0)
        tracer = Tracer(clock=FakeClock())
        tracer.wrap(mod, "fail", "m.fail")
        tracer.install()
        with self.assertRaises(ZeroDivisionError):
            mod.fail()
        tracer.uninstall()
        (name, start, end, parent, _), = tracer.spans
        self.assertGreater(end, start)
        self.assertEqual(tracer._stack, [])


class PercentileTest(unittest.TestCase):
    def test_matches_numpy_linear(self):
        xs = np.random.default_rng(0).exponential(size=2000)
        for q in (1, 10, 50, 90, 99):
            self.assertAlmostEqual(percentile(xs, q), float(np.percentile(xs, q)))
        self.assertEqual(median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(median([1.0, 2.0]), 1.5)

    def test_tail_needs_ten_samples_beyond(self):
        percentile(range(1000), 99)
        percentile(range(200), 95)
        percentile(range(100), 10)
        percentile(range(3), 50)
        with self.assertRaises(ValueError):
            percentile(range(999), 99)
        with self.assertRaises(ValueError):
            percentile(range(199), 95)
        with self.assertRaises(ValueError):
            percentile(range(99), 10)
        with self.assertRaises(ValueError):
            percentile([], 50)
        self.assertEqual(median([4.0]), 4.0)


class NamesTest(unittest.TestCase):
    def test_name_rule(self):
        for good in ("setup_s", "control_step_ms.p99", "mpc.solve_box_qp.ms_p50",
                     "9lives", "a" * 64, "track-known"):
            self.assertTrue(valid_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "a" * 65, "ms%"):
            self.assertFalse(valid_name(bad), bad)
        for good in ("ms", "1/s", "%", "count", "MB"):
            self.assertTrue(valid_unit(good), good)
        self.assertFalse(valid_unit("a" * 17))

    def test_declared_metrics_are_valid(self):
        names = list(workloads.END_TO_END) + list(workloads.PER_LAYER)
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(valid_name(name), name)
        for unit, better, *_ in [*workloads.END_TO_END.values(), *workloads.PER_LAYER.values()]:
            self.assertTrue(valid_unit(unit), unit)
            self.assertIn(better, ("lower", "higher"))


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.doc = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_agrees_with_code(self):
        doc = self.doc
        self.assertEqual(set(doc), {"command", "paths", "run_seconds", "workloads",
                                    "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in doc["workloads"]], list(WORKLOAD_NAMES))
        self.assertEqual(list(workloads.WORKLOADS), list(WORKLOAD_NAMES))
        for w in doc["workloads"]:
            self.assertEqual(w["why"], workloads.WORKLOADS[w["name"]].why)
            self.assertLessEqual(len(w["why"]), 200)
        self.assertEqual({m["name"]: (m["unit"], m["better"], m["bound"])
                          for m in doc["end_to_end"]}, workloads.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]},
                         workloads.PER_LAYER)

    def test_format_limits(self):
        doc = self.doc
        bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertIsInstance(doc["run_seconds"], int)
        self.assertTrue(1 <= doc["run_seconds"] <= 60)
        self.assertTrue(2 <= len(doc["workloads"]) <= 8)
        self.assertTrue(len(doc["per_layer"]) <= 128)
        for path in doc["paths"]:
            self.assertTrue((ROOT / path).is_dir())
        self.assertLess(len((ROOT / "BENCHMARK.json").read_bytes()), 64 * 1024)


if __name__ == "__main__":
    unittest.main()
