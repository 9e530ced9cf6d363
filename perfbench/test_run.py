#!/usr/bin/env python3
"""The benchmark's own tests: every workload runs at a tiny size and
prints exactly the metrics BENCHMARK.json names, with their units, and a
tampered output fails the output check.

    python3 perfbench/test_run.py        # from the repository root
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def bench(workload, trace, *extra):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["diagnostics"], json.loads(lines[-1])


class BenchmarkContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_metric_lists_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]], run.PER_LAYER)

    def test_every_workload_prints_every_metric(self):
        for workload in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    diag, result = bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], diag["problems"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in self.spec[section]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], float, name)
                        if trace == 0:
                            self.assertGreater(m["value"], 0.0, name)
                    self.assertEqual(diag["host"]["nproc"] > 0, True)

    def test_tampered_output_fails_the_check(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                diag, result = bench(workload, 0, "--tamper")
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertTrue(diag["problems"])

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(200), 95.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(9), 100.0)
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 100.0), 3.0)


if __name__ == "__main__":
    unittest.main()
