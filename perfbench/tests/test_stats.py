"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402
import workloads  # noqa: E402


def span(sid, parent, ts, dur, name="s"):
    return {"name": name, "ts": ts, "dur": dur,
            "args": {"span": sid, "parent": parent, "op": 1}}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 0.5), 50)
        self.assertEqual(stats.percentile(xs, 0.99), 99)
        self.assertEqual(stats.percentile(xs, 1.0), 100)
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2)

    def test_rejects_empty_and_bad_levels(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0.0)

    def test_tail_needs_ten_beyond(self):
        # 100 samples: p95 has 5 beyond it, p90 exactly 10.
        self.assertEqual(stats.tail(list(range(1, 101))), (0.90, 90, 10))
        # 1000 samples: p99.9 has 1 beyond, p99 has 10.
        self.assertEqual(stats.tail(list(range(1, 1001))), (0.99, 990, 10))
        # 15 samples: even the median has only 7 beyond.
        self.assertIsNone(stats.tail(list(range(15))))

    def test_tail_counts_strictly_beyond(self):
        # Ties at the percentile are not beyond it.
        xs = [1.0] * 85 + [2.0] * 15
        q, value, count = stats.tail(xs)
        self.assertEqual((q, value, count), (0.75, 1.0, 15))


class FailedAsInfinityTest(unittest.TestCase):
    def test_failed_operations_become_infinite(self):
        lat = stats.latencies([10.0, 20.0, 30.0], [True, False, True])
        self.assertEqual(lat[:1] + lat[2:], [10.0, 30.0])
        self.assertTrue(math.isinf(lat[1]))

    def test_failures_push_percentiles_up(self):
        ok = [True] * 98 + [False] * 2
        lat = stats.latencies(list(range(100)), ok)
        self.assertEqual(stats.median(lat), 49)
        self.assertTrue(math.isinf(stats.percentile(lat, 0.99)))
        # The failures count as beyond every finite percentile.
        self.assertEqual(stats.beyond(lat, 97), 2)
        self.assertTrue(math.isinf(
            stats.median(stats.latencies([1.0, 2.0], [False, False]))))


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 20), span(3, 1, 20, 30)]
        selves = stats.self_times(spans)
        # Children cover [10, 50]: their overlap is not subtracted twice.
        self.assertAlmostEqual(selves[1], 60e-6)
        self.assertAlmostEqual(selves[2], 20e-6)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 0, 100, 50), span(2, 1, 80, 40), span(3, 1, 140, 30)]
        self.assertAlmostEqual(stats.self_times(spans)[1], 20e-6)

    def test_only_direct_children_count(self):
        spans = [span(1, 0, 0, 100, "solve"), span(2, 1, 50, 50, "factor"),
                 span(3, 2, 50, 30, "gemm")]
        self.assertAlmostEqual(stats.self_times(spans)[1], 50e-6)
        self.assertAlmostEqual(stats.self_times(spans)[2], 20e-6)
        self.assertEqual(stats.self_times_by_name(spans, "factor"),
                         [stats.self_times(spans)[2]])

    def test_covered_merges_intervals(self):
        self.assertEqual(stats.covered([(0, 2), (1, 3), (5, 6)], 0, 10), 4)
        self.assertEqual(stats.covered([(4, 3)], 0, 10), 0)


def mxp_doc(converged, checks_ok=True):
    solves = [{"wall_s": 0.4, "factor_s": 0.3, "ir_s": 0.03,
               "ir_iterations": 2, "converged": c, "scaled_residual": 0.01,
               "solution": "x", "error": ""} for c in converged]
    return {"workload": "mxp_solve", "solves": solves, "window_s": 2.0,
            "setup_s": [0.5, 0.4, 0.6], "flops_per_solve": 1e9,
            "peak_rss_mb": 40.0,
            "checks": [{"name": "c", "ok": checks_ok, "detail": ""}]}


class FailRateTest(unittest.TestCase):
    def test_checks_count_as_failures(self):
        self.assertAlmostEqual(stats.fail_rate(100, 2, 1), 0.03)
        self.assertEqual(stats.fail_rate(5, 0, 0), 0.0)
        with self.assertRaises(ValueError):
            stats.fail_rate(0, 0, 0)

    def test_workload_failures(self):
        self.assertEqual(
            workloads.failures([mxp_doc([True, False, True], False)]),
            (3, 1, 1))
        requests = [{"status": "completed", "converged": True},
                    {"status": "rejected-queue-full", "converged": False},
                    {"status": "completed", "converged": False}]
        serve = {"workload": "serve_zipf", "requests": requests,
                 "checks": []}
        self.assertEqual(workloads.failures([serve]), (3, 2, 0))
        sim = {"workload": "fleetsim_frontier", "checks": [],
               "counters": {"submitted": 10, "completed": 7}}
        self.assertEqual(workloads.failures([sim, sim]), (20, 6, 0))

    def test_a_failed_solve_is_an_infinite_latency(self):
        m = workloads.end_to_end([mxp_doc([False, False, True])])
        self.assertTrue(math.isinf(m["p50_ms"]))
        self.assertAlmostEqual(m["ops_per_s"], 0.5)

    def test_processes_are_pooled(self):
        m = workloads.end_to_end([mxp_doc([True] * 4), mxp_doc([True] * 2)])
        self.assertAlmostEqual(m["ops_per_s"], 6 / 4.0)
        self.assertAlmostEqual(m["p50_ms"], 400.0)
        self.assertAlmostEqual(m["setup_s"], 0.5)


if __name__ == "__main__":
    unittest.main()
