#!/usr/bin/env python3
"""Checks of the benchmark driver itself, on scaled-down suites.

Run from the root of the repository:

    python3 perfbench/test_perfbench.py

- Every count and modeled metric repeats exactly across two runs with the
  same seed.
- On oracle-memtrace they are also identical with 0 and 2 pool workers,
  the contract that EngineStats match bit for bit across worker counts.
- Every metric named in BENCHMARK.json is printed, with its unit.
- A traced run writes a trace whose spans nest and cover each execution.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORK = os.path.join(run.OUT_DIR, "test-%d" % os.getpid())
# Small enough for seconds per run; large enough that spec-ref-opt still
# promotes traces and checks certificates, so every guard holds.
SCALE = {"spec-ref-opt": "0.2", "gui-startup-xip": "1",
         "oracle-memtrace": "0.2"}
PASSES = "3"
# Metrics measured in host time or host memory; everything else is a
# count or a modeled quantity and must repeat exactly.
HOST_UNITS = {"s", "ms", "1/s", "Minsts/s", "ns/kcycle", "%"}
HOST_NAMES = {"peak_rss_mb", "trace.child_coverage_min"}
# Counts that differ by design between 0 and 2 workers: without a pool no
# payload job is queued.
POOL_ONLY = {"support.payload_jobs_queued"}

BINARY = None


def drive(workload, trace, *extra):
    """Runs the driver for PASSES passes; returns its parsed result."""
    cmd = [BINARY, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--passes", PASSES, "--setup-reps", "1",
           "--scale", SCALE[workload], "--work-dir",
           os.path.join(WORK, "db")] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise AssertionError("%s exited with %d:\n%s" %
                             (" ".join(cmd), proc.returncode, proc.stdout))
    return json.loads(proc.stdout.splitlines()[-1])


def exact(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in HOST_UNITS and name not in HOST_NAMES}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        global BINARY
        BINARY = run.build()
        os.makedirs(WORK, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_counts_and_modeled_metrics_repeat_for_a_seed(self):
        for workload in SCALE:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    first = drive(workload, trace)
                    second = drive(workload, trace)
                    self.assertTrue(first["correct"])
                    self.assertEqual(first["failed"], 0)
                    self.assertEqual(first["attempted"], second["attempted"])
                    self.assertEqual(exact(first), exact(second))

    def test_oracle_is_identical_for_0_and_2_workers(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                sync = exact(drive("oracle-memtrace", trace, "--workers", "0"))
                pooled = exact(drive("oracle-memtrace", trace,
                                     "--workers", "2"))
                for name in POOL_ONLY & set(sync):
                    self.assertEqual(sync.pop(name), 0)
                    self.assertGreater(pooled.pop(name), 0)
                self.assertEqual(sync, pooled)

    def test_every_benchmark_metric_is_printed_with_its_unit(self):
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in bench[key]}
            for workload in SCALE:
                with self.subTest(workload=workload, trace=trace):
                    metrics = drive(workload, trace)["metrics"]
                    self.assertEqual(
                        {n: m["unit"] for n, m in metrics.items()}, expected)

    def test_trace_file_nests_and_covers_executions(self):
        path = os.path.join(WORK, "trace.json")
        drive("gui-startup-xip", 1, "--trace-out", path)
        spans, executions, coverage = run.check_trace(path)
        self.assertGreater(executions, 0)
        self.assertGreater(spans, executions)
        self.assertGreaterEqual(coverage, run.MIN_COVERAGE)


if __name__ == "__main__":
    unittest.main()
