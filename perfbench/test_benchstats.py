"""Unit tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import unittest

import benchstats

HERE = os.path.dirname(os.path.abspath(__file__))


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchstats.percentile(values, 50), 50)
        self.assertEqual(benchstats.percentile(values, 99), 99)
        self.assertEqual(benchstats.percentile(values, 100), 100)
        self.assertEqual(benchstats.percentile([7.5], 99), 7.5)
        self.assertEqual(benchstats.percentile([3, 1, 2], 50), 2)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.percentile([], 50)

    def test_samples_beyond(self):
        self.assertEqual(benchstats.samples_beyond(1000, 99), 10)
        self.assertEqual(benchstats.samples_beyond(999, 99), 9)
        self.assertEqual(benchstats.samples_beyond(1100, 99), 11)
        self.assertEqual(benchstats.samples_beyond(10000, 99.9), 10)

    def test_highest_supported_percentile_needs_ten_beyond(self):
        hsp = benchstats.highest_supported_percentile
        self.assertEqual(hsp(10000), 99.9)
        self.assertEqual(hsp(9999), 99.0)
        self.assertEqual(hsp(1000), 99.0)
        self.assertEqual(hsp(999), 95.0)
        self.assertEqual(hsp(200), 95.0)
        self.assertEqual(hsp(100), 90.0)
        self.assertEqual(hsp(20), 50.0)
        self.assertIsNone(hsp(19))


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(benchstats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        q1, q2, q3 = benchstats.quartiles(values)
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_spread_is_iqr_over_median(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertAlmostEqual(benchstats.spread(values), 5.5 / 5.5)
        self.assertEqual(benchstats.spread([4.0] * 10), 0.0)
        self.assertEqual(benchstats.spread([0.0] * 10), 0.0)


def span(sid, start, end, parent=None, name="x", request=0):
    return {"id": sid, "start": start, "end": end, "parent": parent,
            "name": name, "request": request}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(benchstats.self_times([span(1, 10, 25)]), {1: 15})

    def test_children_are_subtracted(self):
        spans = [span(1, 0, 100), span(2, 10, 30, 1), span(3, 40, 45, 1)]
        self.assertEqual(benchstats.self_times(spans), {1: 75, 2: 20, 3: 5})

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, 100), span(2, 10, 50, 1), span(3, 30, 60, 1)]
        self.assertEqual(benchstats.self_times(spans)[1], 50)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 10, 20), span(2, 0, 15, 1), span(3, 18, 40, 1)]
        self.assertEqual(benchstats.self_times(spans)[1], 3)

    def test_only_direct_children_count(self):
        spans = [span(1, 0, 100), span(2, 10, 60, 1), span(3, 20, 30, 2)]
        self.assertEqual(benchstats.self_times(spans),
                         {1: 50, 2: 40, 3: 10})


def window(reads, wall_s, cpu_s, counters_after, appends=()):
    """A window with reads spread evenly over wall_s seconds."""
    zero = {k: 0 for k in counters_after}
    seconds = int(wall_s)
    return {"reads": reads, "wall_s": wall_s, "cpu_s": cpu_s,
            "done_s": [wall_s * (i + 0.5) / reads for i in range(reads)],
            "cpu_marks_s": [cpu_s * (k + 1) / seconds for k in range(seconds)],
            "minflt": 2 * reads, "peak_rss_kib": 2048, "attempted": reads,
            "failed": 0, "errors": [],
            "latency_ms": [float(i) for i in range(1, reads + 1)],
            "append_ms": list(appends),
            "counters_before": zero, "counters_after": counters_after,
            "graph_after": {"num_nodes": 7, "cached_bytes": 1 << 20},
            "cold_after": {"used_bytes": 1 << 19, "raw_bytes": 1 << 20,
                           "pending_spills": 0}}


COUNTERS = {"queries": 2, "reuses": 1, "materializations": 1,
            "spec_aborts": 1, "evictions": 3, "cold_hits": 1,
            "cold_slice_loads": 0, "cold_spills": 2, "cold_load_errors": 0,
            "delta_hits": 1, "agg_merges": 1, "invalidations": 0}


class PerSecondTest(unittest.TestCase):
    def test_bins_reads_and_cpu_by_second(self):
        w = {"done_s": [0.1, 0.5, 1.2, 2.9, 3.5],
             "cpu_marks_s": [1.0, 1.5, 3.5]}
        self.assertEqual(benchstats.per_second(w), ([2, 1, 1], [1.0, 0.5, 2.0]))

    def test_medians_resist_one_slow_second(self):
        w = window(100, 10.0, 20.0, COUNTERS)
        w["done_s"] = [t for t in w["done_s"] if not 4.0 <= t < 5.0]
        m = benchstats.end_to_end({"window": w, "setup_s": [1.0]})
        self.assertEqual(m["qps"], 10.0)
        self.assertEqual(m["cpu_ms_per_query"], 200.0)


class ReductionTest(unittest.TestCase):
    def raw(self):
        return {"setup_s": [0.3, 0.1, 0.2],
                "warmup": {"wall_s": 2.0, "cpu_s": 1.0},
                "window": window(100, 10.0, 20.0, COUNTERS, appends=[4.0]),
                "traced_window": window(2, 1.0, 1.0, COUNTERS),
                "oracle": {"mismatches": 0},
                "traced_oracle": {"mismatches": 1}}

    def test_end_to_end(self):
        m = benchstats.end_to_end(self.raw())
        self.assertEqual(m["qps"], 10.0)
        self.assertEqual(m["latency_p50_ms"], 50.0)
        self.assertEqual(m["latency_p99_ms"], 99.0)
        self.assertEqual(m["cpu_ms_per_query"], 200.0)
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertEqual(m["setup_s"], 0.2)

    def test_failures_count_oracle_mismatches(self):
        self.assertEqual(benchstats.failures(self.raw()), (102, 1))

    def test_per_layer_from_spans(self):
        attrs = {"exec_ms": 0.5, "match_ms": 0.1, "stall_ms": 0.0,
                 "stalls": 1, "reuses": 1, "materialized": 0,
                 "reuse_mode": "exact", "rows_out": 4, "blocks_scanned": 3,
                 "blocks_pruned": 1, "op_self_ms": {"Scan": 0.25}}
        spans = [
            span(1, 0, 3_000_000, None, "statement", request=0),
            span(2, 0, 10_000, 1, "sql.Parse", request=0),
            span(3, 10_000, 1_010_000, 1, "recycler.Execute", request=0),
            span(4, 0, 1_000, None, "statement", request=1),
            span(5, 0, 1_000, 4, "api.ValidatePlan", request=1),
        ]
        spans[2]["attrs"] = attrs
        m = benchstats.per_layer(self.raw(), iter(spans))
        self.assertEqual(set(m), {n for n, _, _ in benchstats.PER_LAYER})
        self.assertAlmostEqual(m["sql.parse_us"], 10.0)
        self.assertAlmostEqual(m["api.validate_us"], 1.0)
        self.assertEqual(m["sql.lower_us"], 0.0)
        self.assertAlmostEqual(m["recycler.overhead_ms"], 0.5)
        self.assertEqual(m["recycler.reuse_rate"], 1.0)
        self.assertEqual(m["recycler.mode.exact_frac"], 1.0)
        self.assertEqual(m["recycler.spec_abort_ratio"], 0.5)
        self.assertEqual(m["exec.op.Scan.self_ms"], 0.25)
        self.assertEqual(m["storage.blocks_pruned_frac"], 0.25)
        self.assertEqual(m["cold_tier.hits_per_query"], 0.5)
        self.assertEqual(m["cold_tier.stored_per_raw_byte"], 0.5)
        self.assertEqual(m["delta.agg_merge_frac"], 1.0)
        self.assertEqual(m["append_p50_ms"], 4.0)
        self.assertEqual(m["proc.cpu_util"], 2.0)
        self.assertEqual(m["proc.warmup_cpu_util"], 0.5)
        self.assertAlmostEqual(m["bench.tracing_overhead_frac"], 0.8)


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json lists exactly the metrics the reduction emits."""

    def test_metric_lists_agree(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json next to perfbench/")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]],
            benchstats.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            list(benchstats.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
