#!/usr/bin/env python3
"""The benchmark's own tests: a tiny-size smoke run of every workload and
negative tests for its output checks.

    python3 perfbench/test_perfbench.py

Builds the driver through run.py (as the benchmark does) and runs each
workload with every simulated horizon scaled down, so the whole file
takes well under a minute once the driver is built.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--scale", "0.05", "--seconds", "0.2"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
with open(os.path.join(HERE, "layer_map.json")) as f:
    LAYER_MAP = json.load(f)


def run(workload, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "7", *TINY, *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def error_rate(lines, workload):
    for line in lines:
        parts = line.split()
        if parts[:2] == [workload, "error_rate"]:
            return float(parts[2])
    raise AssertionError("no error_rate line for " + workload)


class Smoke(unittest.TestCase):
    def check_metrics(self, result, expected):
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, m in result["metrics"].items():
            self.assertTrue(math.isfinite(m["value"]), name)
            self.assertEqual(m["unit"], expected[name], name)

    def test_every_metric_printed_with_unit(self):
        e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                code, lines, result = run(w["name"], "--trace", "0")
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"], "\n".join(lines))
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 2)
                self.check_metrics(result, e2e)
                self.assertEqual(error_rate(lines, w["name"]), 0.0)

                code, lines, result = run(w["name"], "--trace", "1")
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"], "\n".join(lines))
                self.check_metrics(result, layer)
                shares = [v["value"] for k, v in result["metrics"].items()
                          if k.endswith("_share")]
                # Layer self times plus the event core cover the drive.
                self.assertAlmostEqual(sum(shares), 1.0, places=9)

    def test_layer_map_covers_per_layer_metrics(self):
        names = {m["name"] for m in BENCH["per_layer"]}
        self.assertEqual(names, set(LAYER_MAP["metrics"]))
        workloads = {w["name"] for w in BENCH["workloads"]}
        for name, entry in LAYER_MAP["metrics"].items():
            self.assertIn(entry["module"], LAYER_MAP["modules"], name)
            self.assertTrue(set(entry["workloads"]) <= workloads, name)


class BrokenChecks(unittest.TestCase):
    def test_broken_conservation_raises_error_rate(self):
        code, lines, result = run("sriov_rx", "--inject", "conservation")
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"] - 1)
        self.assertGreater(error_rate(lines, "sriov_rx"), 0)

    def test_broken_determinism_raises_error_rate(self):
        code, lines, result = run("pv_tcp", "--inject", "determinism")
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(error_rate(lines, "pv_tcp"), 0)
        self.assertTrue(any("determinism audit" in l for l in lines))


if __name__ == "__main__":
    unittest.main()
