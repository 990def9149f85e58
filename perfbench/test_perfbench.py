#!/usr/bin/env python3
"""Tests of the benchmark itself, on its --quick inputs.

Run from the root of a checkout (the first run builds the benchmark):

    python3 -m unittest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC = ["rel_cpi_geomean", "text_bytes", "pass_ratio"]


def bench(workload, *extra, seed=7, trace=0):
    """Runs one quick benchmark; returns (exit code, result or None)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
         "--trace", str(trace), "--quick", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def values(result, names):
    return {name: result["metrics"][name]["value"] for name in names}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as file:
            cls.spec = json.load(file)

    def test_reports_every_end_to_end_metric(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            code, result = bench(workload)
            self.assertEqual(code, 0, workload)
            self.assertTrue(result["correct"])
            self.assertGreater(result["attempted"], 0)
            self.assertEqual(result["failed"], 0)
            names = [m["name"] for m in self.spec["end_to_end"]]
            self.assertEqual(sorted(result["metrics"]), sorted(names))
            for metric in self.spec["end_to_end"]:
                reported = result["metrics"][metric["name"]]
                self.assertEqual(reported["unit"], metric["unit"])
                self.assertGreater(reported["value"], 0, metric["name"])
            self.assertEqual(result["metrics"]["pass_ratio"]["value"], 1.0)

    def test_deterministic_metrics_repeat(self):
        _, first = bench("profile-free")
        _, second = bench("profile-free")
        self.assertEqual(values(first, DETERMINISTIC),
                         values(second, DETERMINISTIC))

    def test_deterministic_metrics_ignore_worker_count(self):
        _, one = bench("paper-matrix", "--workers", "1")
        _, two = bench("paper-matrix", "--workers", "2")
        self.assertEqual(values(one, DETERMINISTIC),
                         values(two, DETERMINISTIC))

    def test_seed_redraws_the_programs(self):
        _, first = bench("compile-large", seed=1)
        _, second = bench("compile-large", seed=2)
        self.assertNotEqual(first["metrics"]["text_bytes"],
                            second["metrics"]["text_bytes"])

    def test_corrupted_object_fails_the_gate(self):
        fixture = os.path.join(ROOT, "tests", "corpus", "disasm",
                               "bad-target.o")
        code, result = bench("compile-large", "--corrupt-object", fixture)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["pass_ratio"]["value"], 1.0)

    def test_traced_run_reports_layers_and_writes_chrome_trace(self):
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "trace.json")
            code, result = bench("compile-large", "--trace-out", path,
                                 trace=1)
            self.assertEqual(code, 0)
            names = [m["name"] for m in self.spec["per_layer"]]
            self.assertEqual(sorted(result["metrics"]), sorted(names))
            metrics = values(result, names)
            self.assertGreater(metrics["disasm.checkobj_s"], 0)
            self.assertEqual(metrics["core.try15_s"], 0)
            self.assertEqual(metrics["estimate.calls"], 0)
            with open(path) as file:
                trace = json.load(file)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        self.assertIn("cfg.parse", {e["name"] for e in spans})
        self.assertTrue(all(e["dur"] >= 0 for e in spans))

    def test_profile_free_estimates_once_per_estimated_layout(self):
        code, result = bench("profile-free", trace=1)
        self.assertEqual(code, 0)
        # Two programs, two estimated layouts (Greedy, ExtTSP) each.
        self.assertEqual(result["metrics"]["estimate.calls"]["value"], 4)

    def test_fails_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as scratch:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "paper-matrix", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=scratch, capture_output=True, text=True,
                env=env, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
