"""Self-tests of the benchmark's own logic (no build needed):

    python3 perfbench/run.py --self-test
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BASELINE = (1_088_813, 5_955_553)


def take(workload, seed, count, baseline=BASELINE):
    stream = workloads.units(workload, seed, baseline)
    return [next(stream) for _ in range(count)]


def solve_reply(selected, total=500_000, time_ms=2_000_000, wall_ms=3,
                lookups=10):
    evaluation = {"selected": selected, "cost": {"total_micros": total},
                  "processing_time_ms": time_ms, "makespan_ms": time_ms}
    return json.dumps({"ok": True, "code": "OK", "response": {
        "kind": "solve",
        "meta": {"solver": "greedy", "wall_ms": wall_ms,
                 "cache_lookups": lookups, "cache_hits": lookups // 2,
                 "cache_evictions": 0, "gap_fraction": 0},
        "solve": {"selection": {"evaluation": evaluation, "feasible": True,
                                "time_ms": time_ms},
                  "baseline": {"selected": [],
                               "cost": {"total_micros": 1_000_000},
                               "processing_time_ms": 4_000_000,
                               "makespan_ms": 4_000_000}}}})


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_byte_identical_lines(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(take(workload, 5, 60), take(workload, 5, 60))

    def test_other_seed_gives_other_lines(self):
        for workload in workloads.WORKLOADS:
            self.assertNotEqual(take(workload, 5, 60), take(workload, 6, 60))

    def test_lines_are_canonical_envelopes(self):
        for workload in workloads.WORKLOADS:
            for unit in take(workload, 3, 20):
                for text in unit:
                    envelope = json.loads(text)
                    self.assertIn(envelope["op"], ("create_session",
                                                   "request", "drop_session"))
                    self.assertEqual(text, workloads.line(envelope))

    def test_every_block_pairs_solvers_and_scenarios_alike(self):
        units = take("whatif-warm", 9, 90)
        pairs = [(json.loads(u[0])["request"]["solver"],
                  json.loads(u[0])["request"]["objective"]["scenario"])
                 for u in units]
        shares = {"greedy": 2, "knapsack-dp": 2, "local-search": 4,
                  "branch-and-bound": 2}
        for block in range(3):
            chunk = pairs[block * 30:(block + 1) * 30]
            for solver, share in shares.items():
                for scenario in ("mv1", "mv2", "mv3"):
                    self.assertEqual(chunk.count((solver, scenario)), share)

    def test_limits_scale_with_the_sessions_baseline(self):
        small = take("whatif-warm", 4, 30, BASELINE)
        large = take("whatif-warm", 4, 30, (BASELINE[0] * 2, BASELINE[1] * 2))
        for a, b in zip(small, large):
            oa = json.loads(a[0])["request"]["objective"]
            ob = json.loads(b[0])["request"]["objective"]
            for key in ("budget_limit_micros", "time_limit_ms"):
                if key in oa:
                    self.assertLessEqual(abs(ob[key] - 2 * oa[key]), 2)

    def test_tenant_cycle_creates_solves_and_drops_one_session(self):
        names = set()
        for unit in take("cold-tenants", 2, 40):
            ops = [json.loads(text) for text in unit]
            self.assertEqual([o["op"] for o in ops],
                             ["create_session", "request", "drop_session"])
            name = ops[0]["name"]
            self.assertNotIn(name, names)
            names.add(name)
            self.assertEqual(ops[1]["request"]["session"], name)
            queries = ops[1]["request"]["workload"]["queries"]
            self.assertTrue(6 <= len(queries) <= 20)
            for q in queries:
                self.assertTrue(0 < q["target"] < workloads.NUM_CUBOIDS)

    def test_planning_mix_deals_each_kind_twice_per_block(self):
        kinds = [json.loads(u[0])["request"]["kind"]
                 for u in take("planning-mix", 8, 30)]
        for block in range(3):
            chunk = kinds[block * 10:(block + 1) * 10]
            for kind in ("frontier", "solve-joint", "timeline",
                         "compare-policies", "compare-providers"):
                self.assertEqual(chunk.count(kind), 2)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(measure.percentile(values, 0.5), 50)
        self.assertEqual(measure.percentile(values, 0.9), 90)
        self.assertEqual(measure.percentile([7], 0.9), 7)
        self.assertEqual(measure.median([3, 1, 2]), 2)

    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(measure.samples_beyond(100, 0.9), 10)
        self.assertEqual(measure.samples_beyond(99, 0.9), 9)
        self.assertEqual(measure.tail_percentile(list(range(100)), 0.9), 89)
        with self.assertRaises(ValueError):
            measure.tail_percentile(list(range(99)), 0.9)


class ClosedLoopSummaryTest(unittest.TestCase):
    @staticmethod
    def loop(latencies_s, start=0.0):
        spans, now = [], start
        for latency in latencies_s:
            spans.append((now, now + latency))
            now += latency
        return spans

    def test_rate_and_percentiles_over_every_unit(self):
        latencies = [0.001] * 80 + [0.004] * 10 + [0.010] * 20
        throughput, p50, p90 = measure.closed_loop_summary(
            [self.loop(latencies)])
        self.assertAlmostEqual(throughput, 110 / 0.32)
        self.assertAlmostEqual(p50, 1.0)
        self.assertAlmostEqual(p90, 10.0)

    def test_time_between_segments_is_not_counted(self):
        first = self.loop([0.001] * 60)
        second = self.loop([0.003] * 60, start=100.0)
        throughput, p50, p90 = measure.closed_loop_summary([first, [],
                                                            second])
        self.assertAlmostEqual(throughput, 120 / 0.24)
        self.assertAlmostEqual(p50, 1.0)
        self.assertAlmostEqual(p90, 3.0)

    def test_p90_keeps_ten_samples_beyond_it(self):
        measure.closed_loop_summary([self.loop([0.001] * 100)])
        with self.assertRaises(ValueError):
            measure.closed_loop_summary([self.loop([0.001] * 50),
                                         self.loop([0.001] * 49)])
        with self.assertRaises(ValueError):
            measure.closed_loop_summary([[]])


class AccountingTest(unittest.TestCase):
    def test_all_ok(self):
        self.assertEqual(run.account([solve_reply([1]), solve_reply([2])]),
                         (2, 0))

    def test_failures_count_against_attempts(self):
        bad = json.dumps({"ok": False, "code": "INVALID_ARGUMENT"})
        with self.assertRaises(run.CheckFailed) as caught:
            run.account([solve_reply([1]), bad, bad])
        self.assertEqual(caught.exception.args[1:], (3, 2))

    def test_unproven_branch_and_bound_fails(self):
        request = workloads.request("solve", "s", solver="branch-and-bound")
        reply = json.loads(solve_reply([1]))
        reply["response"]["meta"]["gap_fraction"] = 0.01
        with self.assertRaises(run.CheckFailed):
            run.check_bnb_proven([request], [json.dumps(reply)])
        run.check_bnb_proven([request], [solve_reply([1])])

    def test_advice_averages_feasible_selections(self):
        cost, time_ = run.advice([solve_reply([1], total=500_000,
                                              time_ms=1_000_000),
                                  solve_reply([2], total=250_000,
                                              time_ms=3_000_000)])
        self.assertAlmostEqual(cost, (0.5 + 0.75) / 2)
        self.assertAlmostEqual(time_, (0.75 + 0.25) / 2)


class DigestTest(unittest.TestCase):
    def test_ignores_wall_time_and_cache_counters(self):
        a = [solve_reply([1, 4], wall_ms=3, lookups=10)]
        b = [solve_reply([1, 4], wall_ms=90, lookups=99)]
        self.assertEqual(measure.digest(a), measure.digest(b))
        self.assertIsNone(measure.first_difference(a, b))

    def test_catches_a_different_selection(self):
        a = [solve_reply([1]), solve_reply([1, 4])]
        b = [solve_reply([1]), solve_reply([1, 5])]
        self.assertNotEqual(measure.digest(a), measure.digest(b))
        self.assertEqual(measure.first_difference(a, b), 1)
        self.assertEqual(measure.first_difference(a, a[:1]), 1)

    def test_does_not_depend_on_key_order(self):
        reply = json.loads(solve_reply([2]))
        reordered = json.dumps(dict(reversed(list(reply.items()))))
        self.assertEqual(measure.digest([solve_reply([2])]),
                         measure.digest([reordered]))


class SpanTest(unittest.TestCase):
    @staticmethod
    def span(request, ident, parent, name, start, end):
        return {"r": request, "id": ident, "p": parent, "n": name,
                "s": start, "e": end}

    def test_self_times_add_up_to_the_request_total(self):
        spans = [self.span(0, 1, 0, "serving.request", 0, 100),
                 self.span(0, 2, 1, "serving.codec.parse", 5, 15),
                 self.span(0, 3, 1, "optimizer.solve.greedy", 20, 90),
                 self.span(0, 4, 3, "optimizer.evaluator.create", 30, 50)]
        requests = measure.self_times(spans)
        entry = requests[0]
        self.assertEqual(entry["total"], 100)
        self.assertEqual(entry["self"], {
            "serving.request": 20, "serving.codec.parse": 10,
            "optimizer.solve.greedy": 50, "optimizer.evaluator.create": 20})
        self.assertEqual(sum(entry["self"].values()), entry["total"])

    def test_repeated_names_accumulate(self):
        spans = [self.span(4, 1, 0, "serving.request", 0, 50),
                 self.span(4, 2, 1, "serving.codec.encode", 10, 20),
                 self.span(4, 3, 1, "serving.codec.encode", 30, 45)]
        self.assertEqual(measure.self_times(spans)[4]["self"]
                         ["serving.codec.encode"], 25)

    def test_rejects_overlapping_children(self):
        spans = [self.span(0, 1, 0, "serving.request", 0, 100),
                 self.span(0, 2, 1, "a", 10, 50),
                 self.span(0, 3, 1, "b", 40, 60)]
        with self.assertRaises(ValueError):
            measure.self_times(spans)

    def test_layer_metrics_cover_every_span_and_count(self):
        spans = [self.span(7, 1, 0, "serving.request", 0, 2_000_000),
                 self.span(7, 2, 1, "optimizer.solve.branch-and-bound",
                           0, 1_500_000)]
        counts = [{"r": 7, "c": "optimizer.cache.lookups", "v": 10},
                  {"r": 7, "c": "optimizer.cache.hits", "v": 4},
                  {"r": 7, "c": "optimizer.bnb.gap_fraction", "v": 0},
                  {"r": 7, "c": "optimizer.cache.evictions", "v": 6},
                  {"r": 8, "c": "optimizer.cache.evictions", "v": 2}]
        metrics, n = run.layer_metrics(spans, counts, timed_from=5)
        self.assertEqual(n, 1)
        self.assertAlmostEqual(metrics["optimizer.solve_ms.branch-and-bound"],
                               1.5)
        self.assertAlmostEqual(metrics["trace.residual_ms"], 0.5)
        self.assertAlmostEqual(metrics["optimizer.cache.hit_ratio"], 0.4)
        # Evictions per traced solve, so the figure does not grow with
        # the number of requests that fit in the run.
        self.assertAlmostEqual(metrics["optimizer.cache.evictions"], 4.0)
        counts[2]["v"] = 0.2
        with self.assertRaises(run.CheckFailed):
            run.layer_metrics(spans, counts, timed_from=5)

    def test_metric_names_match_the_benchmark_manifest(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            manifest = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in manifest["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in manifest["per_layer"]},
                         run.PER_LAYER_UNITS)
        # cold-tenants is runnable by hand but not gated (README.md).
        self.assertLessEqual({w["name"] for w in manifest["workloads"]},
                             set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
