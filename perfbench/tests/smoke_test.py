#!/usr/bin/env python3
"""Smoke test for the end-to-end benchmark, at tiny scale.

    python3 perfbench/tests/smoke_test.py        (from the repository root)

Runs every workload named in BENCHMARK.json once untraced and once traced
with --scale tiny, and checks that the result line follows the contract:
exactly the keys correct/attempted/failed/metrics, every end-to-end (or
per-layer) metric present with its declared unit and a finite value, no
failed operation, error_rate 0, and re-checks inside daemon_recheck's
window. It also checks that the benchmark refuses to run, without
printing a result, in a directory that holds only BENCHMARK.json and the
benchmark's own files.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace, cwd=ROOT, env=None):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def check_result(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0, proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        specs = SPEC["per_layer" if trace else "end_to_end"]
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in specs})
        for m in specs:
            got = metrics[m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0.0, m["name"])
        return metrics

    def test_workloads(self):
        for w in SPEC["workloads"]:
            name = w["name"]
            with self.subTest(workload=name, trace=0):
                self.check_result(name, 0)
            with self.subTest(workload=name, trace=1):
                m = self.check_result(name, 1)
                self.assertEqual(m["error_rate"]["value"], 0.0)
                if name == "daemon_recheck":
                    self.assertGreaterEqual(m["daemon.checks"]["value"], 1.0)

    def test_refuses_without_sources(self):
        base = os.path.join(ROOT, ".bench_build", "smoke-bare")
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), base)
            for p in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(base, p),
                                ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            proc = run(SPEC["workloads"][0]["name"], 0, cwd=base, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(proc.stdout.strip().endswith("}"), proc.stdout)
        finally:
            shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
