"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class SelfTimeTest(unittest.TestCase):
    def test_self_times_of_a_span_tree_sum_to_the_root(self):
        # root [0, 100] holds a [10, 40] and b [50, 90]; a holds c [20, 25].
        ticks = iter([0, 10, 20, 25, 40, 50, 90, 100])
        tracer = Tracer(clock=lambda: next(ticks))
        c = tracer.wrap("c", lambda: None)
        a = tracer.wrap("a", lambda: c())
        b = tracer.wrap("b", lambda: None)
        tracer.wrap("experiments.execute", lambda: (a(), b()))()

        self_ns = {name: stat[2] for name, stat in tracer.stats.items()}
        self.assertEqual(self_ns, {"c": 5, "a": 25, "b": 40, "experiments.execute": 30})
        self.assertEqual(sum(self_ns.values()), tracer.stats["experiments.execute"][1])
        self.assertEqual(tracer.spans, [["experiments.execute", 0, 100, -1]])

    def test_kept_spans_record_their_nearest_kept_parent(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: next(ticks))
        step = tracer.wrap("world.step", lambda: None)
        hot = tracer.wrap("agent.invent", lambda: step())
        tracer.wrap("world.run_world", lambda: hot())()
        self.assertEqual([(s[0], s[3]) for s in tracer.spans],
                         [("world.run_world", -1), ("world.step", 0)])


class MetricNamesTest(unittest.TestCase):
    def test_declared_names_and_units_are_well_formed(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        declared = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
        declared += [w["name"] for w in bench["workloads"]]
        for name in declared:
            self.assertTrue(NAME.fullmatch(name), name)
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertTrue(UNIT.fullmatch(m["unit"]), m["unit"])
        self.assertEqual(len(declared), len(set(declared)))
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))

    def test_trace_metrics_are_the_declared_per_layer_metrics(self):
        produced = set(layer_metrics({}, {})) | {"experiments.pool.busy_frac"}
        self.assertEqual(produced, {m["name"] for m in run.declared_metrics(True)})


class TailPercentileTest(unittest.TestCase):
    def test_tail_leaves_at_least_ten_samples_beyond(self):
        for n, pct in ((12, 16), (21, 52), (36, 72), (45, 77), (1000, 99)):
            self.assertEqual(run.tail_percentile(n), pct)
            values = list(range(n))
            beyond = n - 1 - run.nearest_rank(values, pct)
            self.assertGreaterEqual(beyond, run.TAIL_BEYOND)
            self.assertLess(n - 1 - run.nearest_rank(values, pct + 1), run.TAIL_BEYOND)


class SmokeTest(unittest.TestCase):
    """Each workload on a 4x4 lattice for 5 iterations, through the same
    processes and checks as a full run."""

    def check(self, name, trace):
        result = run.bench(name, seed=1, seconds=0, trace=trace, side=4, iterations=5)
        self.assertTrue(result["correct"], result["info"]["problems"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in run.declared_metrics(trace)})

    def test_workloads_untraced(self):
        for name in run.WORKLOADS:
            with self.subTest(name):
                self.check(name, trace=False)

    def test_workloads_traced(self):
        for name in run.WORKLOADS:
            with self.subTest(name):
                self.check(name, trace=True)


if __name__ == "__main__":
    unittest.main()
