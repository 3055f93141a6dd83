"""Tests of the benchmark's arithmetic. Run: python3 perfbench/test_benchlib.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile([7], 99), 7)
        self.assertEqual(benchlib.percentile([3, 1, 2], 50), 2)

    def test_beyond_counts_samples_above_the_rank(self):
        self.assertEqual(benchlib.beyond(1000, 99), 10)
        self.assertEqual(benchlib.beyond(999, 99), 9)
        self.assertEqual(benchlib.beyond(10000, 99.9), 10)
        self.assertEqual(benchlib.beyond(100, 90), 10)
        self.assertEqual(benchlib.beyond(24, 99), 0)

    def test_percentile_chosen_from_sample_count(self):
        self.assertEqual(benchlib.supported_percentile(10000), 99.9)
        self.assertEqual(benchlib.supported_percentile(1000), 99.0)
        self.assertEqual(benchlib.supported_percentile(999), 95.0)
        self.assertEqual(benchlib.supported_percentile(989), 95.0)
        self.assertEqual(benchlib.supported_percentile(200), 95.0)
        self.assertEqual(benchlib.supported_percentile(100), 90.0)
        self.assertEqual(benchlib.supported_percentile(40), 75.0)
        self.assertEqual(benchlib.supported_percentile(20), 50.0)
        self.assertIsNone(benchlib.supported_percentile(19))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)


class FailedRatio(unittest.TestCase):
    def test_accounting(self):
        self.assertEqual(benchlib.failed_ratio(10, 0), 0.0)
        self.assertEqual(benchlib.failed_ratio(8, 2), 0.25)
        self.assertEqual(benchlib.failed_ratio(3, 3), 1.0)

    def test_nothing_attempted_or_overcounted(self):
        with self.assertRaises(ValueError):
            benchlib.failed_ratio(0, 0)
        with self.assertRaises(ValueError):
            benchlib.failed_ratio(2, 3)


class PoolBusy(unittest.TestCase):
    def test_full_and_partial_pool(self):
        self.assertAlmostEqual(
            benchlib.pool_busy_ratio([([2.0, 2.0, 2.0, 2.0], 4, 2.0)]),
            1.0)
        self.assertAlmostEqual(
            benchlib.pool_busy_ratio([([4.0, 1.0, 1.0], 4, 4.0)]), 0.375)

    def test_pools_are_summed(self):
        # 6 cell seconds over 4x1 + 2x2 thread seconds.
        pools = [([1.0, 1.0, 1.0], 4, 1.0), ([3.0], 2, 2.0)]
        self.assertAlmostEqual(benchlib.pool_busy_ratio(pools), 0.75)

    def test_needs_capacity(self):
        with self.assertRaises(ValueError):
            benchlib.pool_busy_ratio([([1.0], 0, 1.0)])

    def test_longest_cell_over_summed_wall(self):
        pools = [([1.0, 2.5], 4, 3.0), ([1.5], 2, 2.0)]
        got = benchlib.driver_metrics(pools)
        self.assertAlmostEqual(got["driver.longest_cell_share"], 0.5)
        self.assertAlmostEqual(got["driver.pool_busy_ratio"], 5.0 / 16)


class BaselineHitRatio(unittest.TestCase):
    def test_shared_baselines(self):
        self.assertEqual(benchlib.baseline_hit_ratio(24, 6), 0.75)
        self.assertEqual(benchlib.baseline_hit_ratio(1, 1), 0.0)
        self.assertEqual(benchlib.baseline_hit_ratio(0, 0), 0.0)


class LayerMetrics(unittest.TestCase):
    def test_a_failed_run_still_yields_the_metrics(self):
        m = benchlib.layer_metrics({"spans": [], "schemes": {}}, ["gaze"])
        self.assertEqual(m["sim.self_ns_per_instr"], 0.0)
        self.assertEqual(m["prefetchers.gaze.share"], 0.0)
        self.assertNotIn("prefetchers.pmp.share", m)
        self.assertNotIn("campaign.expand_ms", m)

    def test_campaign_and_serve_only_on_serve(self):
        m = benchlib.layer_metrics(
            {"mode": "serve", "spans": [], "schemes": {}}, [])
        self.assertEqual(m["campaign.expand_ms"], 0.0)
        self.assertEqual(m["serve.rejected"], 0)


class HostScale(unittest.TestCase):
    def test_fastest_kernel_time_sets_the_scale(self):
        # A host twice as slow as the reference halves its times.
        self.assertEqual(benchlib.host_scale(0.03, [0.07, 0.06, 0.09]),
                         0.5)
        self.assertEqual(benchlib.host_scale(0.03, [0.03]), 1.0)

    def test_needs_kernel_times(self):
        with self.assertRaises(ValueError):
            benchlib.host_scale(0.03, [])
        with self.assertRaises(ValueError):
            benchlib.host_scale(0.03, [0.0])


class BestOf(unittest.TestCase):
    def test_smallest_per_key(self):
        reps = [{"a": 3.0, "b": 1.0}, {"a": 2.0, "b": 4.0}, {"a": 5.0}]
        self.assertEqual(benchlib.best_of(reps), {"a": 2.0, "b": 1.0})

    def test_key_missing_from_a_rep(self):
        self.assertEqual(benchlib.best_of([{}, {"c": 7.0}]), {"c": 7.0})
        self.assertEqual(benchlib.best_of([]), {})


def span(i, parent, t0, t1, **extra):
    s = {"log": 0, "id": i, "parent": parent, "t0": t0, "t1": t1}
    s.update(extra)
    return s


class SelfTime(unittest.TestCase):
    def test_children_subtracted(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30),
                 span(2, 0, 50, 90), span(3, 2, 60, 70)]
        got = benchlib.self_times(spans)
        self.assertEqual(got[(0, 0)], 40)
        self.assertEqual(got[(0, 1)], 20)
        self.assertEqual(got[(0, 2)], 30)
        self.assertEqual(got[(0, 3)], 10)

    def test_overlapping_children_counted_once(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 50),
                 span(2, 0, 40, 60)]
        self.assertEqual(benchlib.self_times(spans)[(0, 0)], 50)

    def test_summed_hook_time_is_child_time(self):
        spans = [span(0, -1, 0, 1000, hook_ns=300, fetch_ns=200)]
        self.assertEqual(benchlib.self_times(spans)[(0, 0)], 500)

    def test_logs_are_separate(self):
        a = span(0, -1, 0, 100)
        b = dict(span(1, 0, 0, 100), log=1)
        got = benchlib.self_times([a, b])
        self.assertEqual(got[(0, 0)], 100)


class Digest(unittest.TestCase):
    cell = {"cycles_total": 5, "pf_issued": 1, "pf_filled": 1,
            "pf_useful": 1, "pf_late": 0, "seconds": 0.5,
            "schemes": [{"name": "gaze@l1", "issued": 1, "filled": 1,
                         "useful": 1, "late": 0, "useless": 0}]}

    def test_host_time_does_not_change_the_digest(self):
        other = dict(self.cell, seconds=9.0)
        self.assertEqual(benchlib.digest({"a": self.cell}),
                         benchlib.digest({"a": other}))

    def test_a_simulated_count_does(self):
        other = dict(self.cell, cycles_total=6)
        self.assertNotEqual(benchlib.digest({"a": self.cell}),
                            benchlib.digest({"a": other}))


class DeclaredUnits(unittest.TestCase):
    def test_printed_units_match_benchmark_json(self):
        import json
        import run
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "..", "BENCHMARK.json")
        with open(path) as f:
            declared = json.load(f)["per_layer"]
        for m in declared:
            self.assertEqual(run.layer_unit(m["name"]), m["unit"],
                             m["name"])


if __name__ == "__main__":
    unittest.main()
