#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Run from the root of a checkout:

    python3 perfbench/tests/test_perfbench.py

Each test drives perfbench/run.py exactly as a benchmark run does (the
first one builds), with --tiny rates so the whole file takes about a
minute.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ["cold-sweep", "warm-hits", "miss-churn"]


def run(workload, trace, *extra, seconds=2, env=None):
    """Exit status and parsed result line of one tiny benchmark run."""
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", str(seconds), "--trace", str(trace), "--tiny",
               *extra]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result


def schema(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[key]]


def trace_bound():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return next(m["bound"] for m in json.load(f)["end_to_end"] if m["name"] == "set_ms_p50")


class SmokeTest(unittest.TestCase):
    """Every workload prints every metric BENCHMARK.json names, with its unit."""

    def check(self, trace, key):
        expected = schema(key)
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, trace)
                self.assertEqual(code, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = [(name, m["unit"]) for name, m in result["metrics"].items()]
                self.assertEqual(got, expected)
                if trace:
                    self.check_shape(workload, result["metrics"])

    def check_shape(self, workload, metrics):
        value = {name: m["value"] for name, m in metrics.items()}
        # The layers' self times account for the untraced time.
        self.assertLessEqual(abs(value["trace.overhead_share"]), trace_bound())
        if workload == "cold-sweep":
            self.assertEqual(value["cache.entries"], 0)
            self.assertLess(value["sweep.max_family_share"], 0.5)
        elif workload == "warm-hits":
            self.assertEqual(value["cache.hit_ratio"], 1.0)
            self.assertEqual(value["self_ms.sweep"], 0.0)
        else:
            self.assertGreater(value["cache.hit_ratio"], 0.0)
            self.assertLess(value["cache.hit_ratio"], 1.0)
            self.assertEqual(value["supervisor.dispatch_share"], 1.0)

    def test_untraced_prints_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_traced_prints_per_layer_metrics(self):
        self.check(1, "per_layer")


class CheckerTest(unittest.TestCase):
    def test_one_corrupted_reply_byte_is_a_failure(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, clean = run(workload, 1)
                self.assertEqual(code, 0)
                self.assertEqual(clean["metrics"]["failed_share"]["value"], 0.0)
                code, corrupted = run(workload, 1, "--corrupt", "3")
                self.assertNotEqual(code, 0)
                self.assertFalse(corrupted["correct"])
                self.assertEqual(corrupted["failed"], 1)
                self.assertGreater(corrupted["metrics"]["failed_share"]["value"], 0.0)


class FailpointTest(unittest.TestCase):
    def test_injected_dispatch_errors_are_counted(self):
        # Every request passes the serve.dispatch site once; the seeded
        # 1in4 coin fails about a quarter of them.
        env = dict(os.environ, RV_FAILPOINTS="serve.dispatch=error,1in4,seed=11")
        code, result = run("warm-hits", 0, seconds=10, env=env)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 150)
        share = result["failed"] / result["attempted"]
        self.assertAlmostEqual(share, 0.25, delta=0.1)


if __name__ == "__main__":
    unittest.main()
