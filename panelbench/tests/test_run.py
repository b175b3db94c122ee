#!/usr/bin/env python3
"""Tests of panelbench/run.py, run from the root of a qfab checkout:

    python3 panelbench/tests/test_run.py

They build the benchmark (and its C++ tests) the way panelbench/run.py
does, then check that the C++ tests pass, that the 2-CPU workload is held
to two CPUs, that a corrupted panel makes run.py exit non-zero, and
that run.py refuses to run without the qfab sources.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build", "panelbench")
RUNS = os.path.join(BUILD, "runs")
RUN_PY = os.path.join(BENCH, "run.py")


def run_bench(workload, seed, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def read_record(workload, seed, trace=0):
    path = os.path.join(RUNS, "record-%s-seed%d-trace%d.json"
                        % (workload, seed, trace))
    with open(path) as f:
        return json.load(f)


class RunPy(unittest.TestCase):
    def test_cpp_tests_pass(self):
        # run.py configures the build tree; build the test binary in it.
        self.assertEqual(run_bench("qfa8-1q", 11).returncode, 0)
        subprocess.run(["cmake", "--build", BUILD, "--target",
                        "panelbench_tests", "-j", "4"], check=True,
                       stdout=subprocess.DEVNULL)
        result = subprocess.run([os.path.join(BUILD, "panelbench_tests")],
                                capture_output=True, text=True)
        self.assertEqual(result.returncode, 0, result.stdout[-4000:])

    def test_two_cpu_workload_is_held_to_two_cpus(self):
        result = run_bench("qfa8-2to2-2cpu", 12)
        self.assertEqual(result.returncode, 0, result.stderr[-4000:])
        record = read_record("qfa8-2to2-2cpu", 12)
        self.assertEqual(len(record["allowed_cpus"]), 2)
        self.assertEqual(record["qfab_threads"], 2)
        # CPU time over wall time cannot exceed the CPUs the process may
        # use (slack for clock granularity).
        self.assertGreater(record["threads_seen"], 1.2)
        self.assertLessEqual(record["threads_seen"], 2.05)
        # The 1-CPU workloads run inline: one thread, not pinned.
        self.assertEqual(run_bench("qfa8-1q", 12).returncode, 0)
        record = read_record("qfa8-1q", 12)
        self.assertEqual(record["qfab_threads"], 1)
        self.assertEqual(record["live_threads"], 1)

    def test_exits_nonzero_when_a_panel_fails(self):
        result = run_bench("qfa8-1q", 13, "--inject", "flip-outcome")
        self.assertNotEqual(result.returncode, 0)
        line = json.loads(result.stdout.strip().splitlines()[-1])
        self.assertFalse(line["correct"])
        self.assertGreaterEqual(line["failed"], 1)

    def test_refuses_to_run_without_the_sources(self):
        lone = os.path.join(BUILD, "lone-checkout")
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(BENCH, os.path.join(lone, "panelbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        result = subprocess.run(
            [sys.executable, "panelbench/run.py", "--workload", "qfa8-1q",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=lone, capture_output=True, text=True, timeout=170)
        shutil.rmtree(lone, ignore_errors=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertEqual(result.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
