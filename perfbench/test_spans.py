"""Tests of the benchmark's span arithmetic, percentile estimate and metric
table.

    python3 -m unittest perfbench/test_spans.py
"""
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
from spans import Span  # noqa: E402


def span(name, start, end, parent, layer="x", work=0, error=False, func=None):
    return Span(name, func or name, layer, start, end, parent, 1, work, error)


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        # op [0, 10] > a [1, 6] > b [2, 3], c [4, 5.5]; op > d [7, 9] > e [7.5, 8]
        tree = [
            span("op", 0.0, 10.0, -1, "bench"),
            span("a", 1.0, 6.0, 0),
            span("b", 2.0, 3.0, 1),
            span("c", 4.0, 5.5, 1),
            span("d", 7.0, 9.0, 0),
            span("e", 7.5, 8.0, 4),
        ]
        got = spans.self_times(tree)
        want = [10.0 - 5.0 - 2.0, 5.0 - 1.0 - 1.5, 1.0, 1.5, 2.0 - 0.5, 0.5]
        for g, w in zip(got, want):
            self.assertAlmostEqual(g, w)
        self.assertAlmostEqual(sum(got), 10.0)  # self times partition the root

    def test_overlapping_and_overhanging_children(self):
        # children overlap each other and one runs past the parent's end
        tree = [
            span("p", 0.0, 4.0, -1),
            span("c1", 1.0, 3.0, 0),
            span("c2", 2.0, 5.0, 0),
        ]
        self.assertAlmostEqual(spans.self_times(tree)[0], 1.0)

    def test_outermost_skips_nested_members(self):
        tree = [
            span("op", 0.0, 10.0, -1),
            span("m", 1.0, 5.0, 0, func="f"),
            span("n", 2.0, 3.0, 1, func="g"),
            span("m2", 2.5, 2.8, 2, func="f"),
            span("m3", 6.0, 7.0, 0, func="f"),
        ]
        self.assertEqual(spans.outermost(tree, {"f"}), [1, 4])


class LayerMetricsTest(unittest.TestCase):
    def test_layer_self_times_sum_to_wall(self):
        tree = [
            span("op.x", 0.0, 10.0, -1, "bench", func="op.x"),
            span("suites.run", 0.5, 9.5, 0, "suites", func="suites.run"),
            span("whitenoise.WhiteNoiseEnsemble.generate", 1.0, 4.0, 1, "whitenoise",
                 work=8 * 1000 * 4, func="whitenoise.WhiteNoiseEnsemble.generate"),
            span("streams.normal_matrix", 1.0, 3.0, 2, "streams", work=4000,
                 func="streams.normal_matrix"),
            span("whitenoise.pairings", 5.0, 6.0, 1, "whitenoise", work=8 * 1000 * 4,
                 func="whitenoise.pairings"),
            span("translation.pairings", 6.0, 7.0, 1, "whitenoise", work=8 * 1000 * 2,
                 func="whitenoise.pairings"),
            span("frames.gram", 7.0, 8.0, 1, "frames", error=True, func="frames.gram"),
        ]
        m = spans.layer_metrics(tree)
        self.assertAlmostEqual(m["bench.self_s"], 1.0)
        self.assertAlmostEqual(m["suites.self_s"], 9.0 - 3.0 - 1.0 - 1.0 - 1.0)
        self.assertAlmostEqual(m["whitenoise.generate.self_s"], 1.0)
        self.assertAlmostEqual(m["whitenoise.self_s"], 3.0)
        self.assertAlmostEqual(m["whitenoise.estimators.self_s"], 2.0)
        self.assertAlmostEqual(m["streams.normal_matrix.s"], 2.0)
        self.assertAlmostEqual(m["streams.ns_per_normal"], 2.0 / 4000 * 1e9)
        self.assertEqual(m["whitenoise.pairings.calls"], 1)
        self.assertEqual(m["translation.pairings.calls"], 1)
        self.assertEqual(m["whitenoise.ensemble_passes"], 2 + spans.GENERATE_READS)
        self.assertEqual(m["whitenoise.bytes_read_computed"],
                         8000 * 4 + 8000 * 2 + spans.GENERATE_READS * 32000)
        self.assertEqual(m["frames.gram.failed"], 1)
        layers = sum(m[f"{name}.self_s"] for name in spans.LAYERS + ("bench",))
        self.assertAlmostEqual(m["trace.self_sum_s"], 10.0)
        self.assertAlmostEqual(layers, m["trace.wall_s"])


class PercentileTest(unittest.TestCase):
    def test_harrell_davis(self):
        import run

        self.assertEqual(run.percentile([4.0], 90), 4.0)
        self.assertAlmostEqual(run.percentile([3.0, 1.0, 2.0], 50), 2.0)
        values = [5.0, 1.0, 9.0, 3.0, 7.0]
        p50, p90 = run.percentile(values, 50), run.percentile(values, 90)
        self.assertAlmostEqual(p50, 5.0)
        self.assertTrue(7.0 < p90 < 9.0)


class BenchmarkJsonTest(unittest.TestCase):
    def test_per_layer_matches_table(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            doc = json.load(fh)
        table = [{"name": n, "unit": u, "better": b} for n, u, b, *_ in spans.LAYER_METRICS]
        self.assertEqual(doc["per_layer"], table)


if __name__ == "__main__":
    unittest.main()
