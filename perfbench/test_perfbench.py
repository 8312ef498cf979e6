#!/usr/bin/env python3
"""Self-tests of the benchmark (no build needed):

  python3 perfbench/test_perfbench.py

Covers the percentile helpers, the per-seed determinism of the learn_serve
schedule, the result-line schema, the context refusal of the compare step,
and that BENCHMARK.json matches the metric tables in benchlib.py.
"""

import json
import os
import re
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib as bl  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates(self):
        values = list(range(1, 101))
        self.assertEqual(bl.percentile(values, 0), 1)
        self.assertEqual(bl.percentile(values, 100), 100)
        self.assertAlmostEqual(bl.median(values), 50.5)
        self.assertAlmostEqual(bl.percentile([3, 1, 2], 50), 2)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            bl.percentile([], 50)

    def test_tail_keeps_ten_samples_beyond(self):
        for n, pct in ((10000, 99.9), (1000, 99.0), (999, 95.0),
                       (200, 95.0), (100, 90.0), (40, 75.0), (20, 50.0)):
            got_pct, value, count = bl.tail(list(range(n)))
            self.assertEqual(got_pct, pct, n)
            self.assertEqual(count, n)
            self.assertGreaterEqual(sum(1 for x in range(n) if x > value), 10)
            self.assertAlmostEqual(value, bl.percentile(list(range(n)), pct))

    def test_tail_falls_back_to_median(self):
        self.assertEqual(bl.tail([5.0] * 10), (50.0, 5.0, 10))

    def test_supports(self):
        self.assertTrue(bl.supports(range(100), 90))
        self.assertFalse(bl.supports(range(99), 90))


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        self.assertEqual(bl.make_schedule(3, 3), bl.make_schedule(3, 3))

    def test_other_seed_other_schedule(self):
        self.assertNotEqual(bl.make_schedule(3, 3), bl.make_schedule(4, 3))

    def test_shape(self):
        seconds = 3
        lines = bl.make_schedule(5, seconds)
        self.assertEqual(lines[0], "pool %d" % bl.POOL_SIZE)
        ingest = [float(l.split()[1]) for l in lines if l.startswith("I ")]
        serve = [l.split() for l in lines if l.startswith("S ")]
        self.assertEqual(len(ingest) % bl.CYCLE_SAMPLES, 0)
        self.assertEqual(ingest[:bl.CYCLE_SAMPLES], [0.0] * bl.CYCLE_SAMPLES)
        self.assertEqual(ingest, sorted(ingest))
        steps = bl.serve_steps(seconds)
        for k, (start, stop, rate) in enumerate(steps):
            times = [float(s[1]) for s in serve if int(s[4]) == k]
            self.assertEqual(times, sorted(times))
            self.assertTrue(all(start <= t < stop for t in times))
            expected = rate * (stop - start)
            self.assertLess(abs(len(times) - expected), 0.1 * expected)
        for fields in serve:
            self.assertIn(fields[2], ("E", "K"))
            self.assertTrue(0 <= int(fields[3]) < bl.POOL_SIZE)


class SchemaTest(unittest.TestCase):
    def result(self, trace):
        table = bl.PER_LAYER if trace else bl.END_TO_END
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {name: {"value": 1.5, "unit": spec[0]}
                            for name, spec in table.items()}}

    def test_valid_results_pass(self):
        self.assertEqual(bl.check_result_line(self.result(False), False), [])
        self.assertEqual(bl.check_result_line(self.result(True), True), [])

    def test_problems_are_reported(self):
        bad = self.result(False)
        bad["metrics"]["bad name!"] = {"value": 1.0, "unit": "s"}
        bad["metrics"]["setup_s"]["value"] = float("nan")
        bad["attempted"] = 0
        problems = " ".join(bl.check_result_line(bad, False))
        self.assertIn("bad metric name", problems)
        self.assertIn("not a finite number", problems)
        self.assertIn("attempted < 1", problems)
        self.assertIn("metric names differ", problems)

    def test_metric_names_use_the_allowed_letters(self):
        for name in list(bl.END_TO_END) + list(bl.PER_LAYER):
            self.assertRegex(name, bl.NAME_RE)


class ContextTest(unittest.TestCase):
    def test_mismatch_lists_fields(self):
        a = {"nproc": 4, "simd": "avx2", "kernels_threads": 1,
             "ndebug": True, "build_type": "Release", "compiler": "GNU-12",
             "workload": "learn_serve"}
        self.assertEqual(bl.context_mismatch(a, dict(a)), [])
        self.assertEqual(bl.context_mismatch(a, dict(a, simd="scalar",
                                                     nproc=1)),
                         ["nproc", "simd"])


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE),
                               "BENCHMARK.json")) as handle:
            self.spec = json.load(handle)

    def test_tables_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(bl.WORKLOADS))
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"], m["bound"])
             for m in self.spec["end_to_end"]}, bl.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"])
                          for m in self.spec["per_layer"]}, bl.PER_LAYER)

    def test_limits(self):
        unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        for metric in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(metric["unit"], unit_re)
        for workload in self.spec["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200)
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)


if __name__ == "__main__":
    unittest.main()
