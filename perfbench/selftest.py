"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Each test runs ``run.py`` in a subprocess with tiny time budgets, so the
whole file takes about five minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class DeclaredMetrics(unittest.TestCase):
    def test_tiny_runs_print_exactly_the_declared_metrics_and_units(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = run("--workload", workload, "--seed", "3", "--seconds", "0.4",
                               "--trace", str(trace))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    out = result(proc)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()}, declared)
                    self.assertTrue(out["correct"], proc.stdout[-2000:])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)


class InjectedFault(unittest.TestCase):
    def test_a_wrong_package_result_shows_in_error_rate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run("--workload", workload, "--seed", "3", "--seconds", "0.3",
                           "--inject-fault")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                out = result(proc)
                self.assertFalse(out["correct"])
                self.assertGreater(out["failed"], 0)
                rate = next(line for line in proc.stdout.splitlines()
                            if line.startswith("error_rate:"))
                self.assertGreater(float(rate.split()[1]), 0)


class Inputs(unittest.TestCase):
    def probe(self, workload: str, seed: int) -> str:
        proc = run("--workload", workload, "--seed", str(seed), "--setup-probe")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc.stdout.splitlines()[0]  # the next line is a timing

    def test_equal_seeds_give_identical_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.probe(workload, 11)
                self.assertTrue(first.startswith("ready "))
                self.assertEqual(first, self.probe(workload, 11))
                self.assertNotEqual(first, self.probe(workload, 12))


if __name__ == "__main__":
    unittest.main()
