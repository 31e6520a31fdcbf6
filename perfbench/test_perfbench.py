"""Tests of the benchmark itself (statistics, request generation, layer
table, BENCHMARK.json shape).  Run from the repository root:

    python3 perfbench/test_perfbench.py
"""

import collections
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import loadgen  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402

with open(os.path.join(HERE, "config.json")) as f:
    CONFIG = json.load(f)
CONFIG_LAYERS = CONFIG.pop("layer_map")
SERVE = CONFIG["serve_open_loop"]
COUNT = int(SERVE["rate_per_s"] * 30)  # lines of a 30 s run


def requests(seed, count=COUNT, seconds=30.0):
    return loadgen.make_requests(seed, count, seconds, SERVE["mix"], SERVE["repeat_after_s"])


class Statistics(unittest.TestCase):
    def test_tail_needs_ten_beyond(self):
        self.assertIsNone(stats.tail(list(range(10))))
        self.assertEqual(stats.tail([5.0] + [9.0] * 10), (5.0, 100.0 / 11, 11))
        value, pct, n = stats.tail([float(i) for i in range(1, 101)])
        self.assertEqual((value, pct, n), (90.0, 90.0, 100))
        # ten samples lie beyond the reported one, whatever the order
        xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3, 2.3, 8.4, 6.2]
        value = stats.tail(xs)[0]
        self.assertEqual(sum(1 for x in xs if x > value), 10)

    def test_quartiles(self):
        self.assertEqual(stats.quartiles([float(i) for i in range(1, 11)]), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(stats.spread([float(i) for i in range(1, 11)]), 5.5 / 5.5)

    def test_pair_win_share_ignores_ties(self):
        parent = [10.0, 10.0, 10.0, 10.0]
        self.assertEqual(stats.pair_win_share(parent, [9.0, 11.0, 10.0, 8.0], "lower"), 0.5)
        self.assertEqual(stats.pair_win_share(parent, [9.0, 11.0, 10.0, 8.0], "higher"), 0.25)
        with self.assertRaises(ValueError):
            stats.pair_win_share(parent, [1.0], "lower")

    def test_verdicts(self):
        parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
        faster = [x - 10.0 for x in parent]
        self.assertEqual(stats.verdict(parent, faster, "lower", 0.1), "improved")
        slower = [x * 1.2 for x in parent]
        self.assertEqual(stats.verdict(parent, slower, "lower", 0.1), "worse")
        same = list(reversed(parent))
        self.assertEqual(stats.verdict(parent, same, "lower", 0.1), "unchanged")
        noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 90.0, 110.0, 55.0, 145.0, 100.0]
        self.assertEqual(stats.verdict(noisy, list(reversed(noisy)), "lower", 0.1), "unresolved")


class Requests(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        a, b = requests(7), requests(7)
        self.assertEqual([r["line"] for r in a], [r["line"] for r in b])
        self.assertEqual([r["due"] for r in a], [r["due"] for r in b])
        self.assertNotEqual([r["line"] for r in a], [r["line"] for r in requests(8)])
        burst = loadgen.make_burst(7, SERVE["burst_rounds"], COUNT)
        self.assertEqual(burst, loadgen.make_burst(7, SERVE["burst_rounds"], COUNT))
        self.assertNotEqual(burst, loadgen.make_burst(8, SERVE["burst_rounds"], COUNT))
        # every round covers each heavy (model, coordinate) pair once
        for batch in burst:
            pairs = sorted((json.loads(l)["model"], json.loads(l)["coord"]) for l, _ in batch)
            self.assertEqual(pairs, sorted(loadgen.HEAVY_PAIRS))

    def test_mix_within_tolerance_across_seeds(self):
        # every seed sends the configured share of each kind, up to the
        # rounding of share x count
        tolerance = 0.5 / COUNT + 1e-9
        for seed in range(1, 21):
            rs = requests(seed)
            counts = collections.Counter(r["kind"] for r in rs)
            for kind, share in SERVE["mix"].items():
                self.assertLessEqual(abs(counts[kind] / len(rs) - share), tolerance, (seed, kind))

    def test_repeats_resend_an_earlier_request(self):
        rs = requests(3)
        seen = {}
        for r in rs:
            if r["kind"] == "repeat":
                self.assertIn(r["key"], seen)
                self.assertLessEqual(seen[r["key"]], r["due"] - SERVE["repeat_after_s"])
            elif r["key"] is not None:
                seen.setdefault(r["key"], r["due"])
        self.assertTrue(all(r["expect"] != "ok" for r in rs if r["kind"] in ("malformed", "deadline")))


class Layers(unittest.TestCase):
    def test_self_time_subtracts_declared_children(self):
        spans = {
            "bench.bounds.imprecise": {"calls": 2, "total_s": 10.0},
            "analysis.transient_bounds": {"calls": 2, "total_s": 9.0},
            "pontryagin.bound_series": {"calls": 2, "total_s": 8.0},
            "pontryagin.solve": {"calls": 40, "total_s": 7.5},
        }
        rows = {r["span"]: r for r in run.layer_rows(spans, "bench.bounds.imprecise")}
        self.assertIsNone(rows["bench.bounds.imprecise"]["parent"])
        self.assertEqual(rows["analysis.transient_bounds"]["parent"], "bench.bounds.imprecise")
        self.assertEqual(rows["pontryagin.solve"]["parent"], "pontryagin.bound_series")
        self.assertAlmostEqual(rows["bench.bounds.imprecise"]["self_s"], 1.0)
        self.assertAlmostEqual(rows["analysis.transient_bounds"]["self_s"], 1.0)
        self.assertAlmostEqual(rows["pontryagin.bound_series"]["self_s"], 0.5)
        self.assertAlmostEqual(rows["pontryagin.solve"]["self_s"], 7.5)


class BenchmarkFile(unittest.TestCase):
    def test_shape(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            b = json.load(f)
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertEqual({w["name"] for w in b["workloads"]}, set(CONFIG))
        self.assertIn("setup_s", {m["name"] for m in b["end_to_end"]})
        for m in b["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in b["end_to_end"]))
        serve = [w for w in b["workloads"] if w["name"] == "serve_open_loop"][0]["why"]
        self.assertIn("%g/s" % SERVE["rate_per_s"], serve)
        self.assertIn("%g ms" % SERVE["latency_limit_ms"], serve)
        mapped = {m for entry in CONFIG_LAYERS for m in entry["metrics"]}
        self.assertEqual({m["name"] for m in b["per_layer"]}, mapped)


if __name__ == "__main__":
    unittest.main()
