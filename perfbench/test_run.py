#!/usr/bin/env python3
"""Self-tests of the benchmark runner: its arithmetic, the protocol it
speaks with the benchmark binary, and its result line.

    python3 perfbench/test_run.py
"""

import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


class Arithmetic(unittest.TestCase):
    def test_spread_is_the_interquartile_range_over_the_median(self):
        values = [float(v) for v in range(1, 11)]
        # statistics.quantiles' default (exclusive) method: 2.75 and 8.25.
        self.assertAlmostEqual(run.spread(values), (8.25 - 2.75) / 5.5)
        self.assertEqual(run.spread([3.0] * 10), 0.0)

    def test_spread_ignores_order(self):
        values = [2.9, 2.7, 3.1, 2.8, 3.0]
        self.assertEqual(run.spread(values), run.spread(sorted(values)))

    def test_peak_rss_converts_kib_to_mib(self):
        self.assertEqual(run.kib_to_mib(1024), 1.0)
        self.assertAlmostEqual(run.kib_to_mib(774120), 755.9765625)


class ChildProtocol(unittest.TestCase):
    def test_a_complete_run_has_both_lines(self):
        planned, result = run.parse_child_output('ready 30\n{"wall_s": 2.5, "failed": 0}\n')
        self.assertEqual(planned, 30)
        self.assertEqual(result, {"wall_s": 2.5, "failed": 0})

    def test_a_run_that_died_has_no_result(self):
        self.assertEqual(run.parse_child_output("ready 3\n"), (3, None))
        self.assertEqual(run.parse_child_output("ready 3\nthread panicked\n"), (3, None))
        self.assertEqual(run.parse_child_output(""), (None, None))

    def test_the_child_environment_drops_every_program_knob(self):
        env = {"HPCBD_EXECUTION": "parallel:2", "HPCBD_TELEMETRY": "1000",
               "HPCBD_SELFPROF": "1", "PATH": "/bin", "HOME": "/h"}
        self.assertEqual(run.child_env(env), {"PATH": "/bin", "HOME": "/h"})


FAKE_CHILD = """\
#!{python}
import json, os, sys
workload, seed, flags = sys.argv[1], int(sys.argv[3]), sys.argv[4:]
print("ready 2", flush=True)
if "--setup-only" in flags:
    sys.exit(0)
if workload == "crashes":
    sys.exit(101)
count = os.path.join(os.path.dirname(sys.argv[0]), "count")
n = int(open(count).read()) if os.path.exists(count) else 0
open(count, "w").write(str(n + 1))
digest = "bad" if workload == "drifts" and n == 1 else "d"
result = {{"digest": digest, "attempted": 2, "failed": 0, "wall_s": 1.0 + n,
          "peak_rss_kib": 2048}}
if "--trace" in flags:
    result.update({layers})
print(json.dumps(result))
"""


class Measure(unittest.TestCase):
    def fake(self, tmp):
        path = Path(tmp) / "child"
        layers = {name: 1.0 for name, _ in run.PER_LAYER}
        path.write_text(FAKE_CHILD.format(python=sys.executable, layers=layers))
        path.chmod(0o755)
        return path

    def test_medians_over_runs(self):
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            metrics, attempted, failed = run.measure(self.fake(tmp), "ok", 1, 0.3, False)
        runs = attempted // 2
        self.assertGreaterEqual(runs, 1)
        self.assertEqual(failed, 0)
        wall = statistics.median(1.0 + n for n in range(runs))
        self.assertEqual(metrics["wall_s"], (wall, "s"))
        self.assertEqual(metrics["peak_rss_mib"], (2.0, "MiB"))
        self.assertGreater(metrics["setup_s"][0], 0.0)

    def test_a_crash_fails_every_planned_simulation(self):
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            metrics, attempted, failed = run.measure(self.fake(tmp), "crashes", 1, 0.0, False)
        self.assertEqual((metrics, attempted, failed), ({}, 2, 2))

    def test_a_traced_run_must_match_the_untraced_output(self):
        # Traced, the untraced reference run is the first child and the
        # traced run the second, whose output the fake changes.
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            metrics, attempted, failed = run.measure(self.fake(tmp), "drifts", 1, 0.0, True)
        self.assertEqual((attempted, failed), (4, 4))
        self.assertEqual(sorted(metrics), sorted(name for name, _ in run.PER_LAYER))

    def test_traced_runs_report_every_layer_metric(self):
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            metrics, attempted, failed = run.measure(self.fake(tmp), "ok", 1, 0.0, True)
        self.assertEqual((attempted, failed), (4, 0))
        self.assertEqual(metrics, {name: (1.0, unit) for name, unit in run.PER_LAYER})


class ResultLine(unittest.TestCase):
    def test_result_line_has_exactly_the_four_keys(self):
        line = json.loads(run.result_json({"wall_s": (2.5, "s")}, 30, 0))
        self.assertEqual(sorted(line), ["attempted", "correct", "failed", "metrics"])
        self.assertIs(line["correct"], True)
        self.assertEqual(line["metrics"], {"wall_s": {"value": 2.5, "unit": "s"}})

    def test_a_failure_or_no_metrics_is_incorrect(self):
        self.assertIs(json.loads(run.result_json({"wall_s": (2.5, "s")}, 30, 1))["correct"], False)
        self.assertIs(json.loads(run.result_json({}, 1, 0))["correct"], False)


class Manifest(unittest.TestCase):
    def test_benchmark_json_lists_what_the_runner_reports(self):
        path = HERE.parent / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        spec = json.loads(path.read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        for key, reported in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual([(m["name"], m["unit"]) for m in spec[key]], reported)


if __name__ == "__main__":
    unittest.main()
