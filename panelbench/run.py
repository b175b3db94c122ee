#!/usr/bin/env python3
"""Figure-panel benchmark: builds the qfab libraries and the panelbench
binary from this checkout's sources, then runs one workload in its own
process and prints its result line.

    python3 panelbench/run.py --workload qfa8-1q --seed 1 --seconds 20 --trace 0

Run from the root of a qfab checkout. The build lives in
.bench_build/panelbench; run records, span dumps and working CSVs land in
.bench_build/panelbench/runs. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the exit status is non-zero
when the build fails, the run fails or overruns, or any panel fails the
output gate (failed_frac > 0). See panelbench/README.md.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "panelbench")
RUNS = os.path.join(BUILD, "runs")
WORKLOADS = ("qfa8-1q", "qfm4-2q-auto", "qfa8-2to2-2cpu")
# A run must end within 180 s; the two processes share this deadline.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message, code=2):
    print("panelbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "exp", "sweep.h")):
        fail("no qfab sources next to panelbench/ (expected src/exp/sweep.h "
             "under " + ROOT + ")")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    if subprocess.call(["cmake", "--build", BUILD, "--target", "panelbench",
                        "-j", BUILD_JOBS],
                       stdout=sys.stderr) != 0:
        fail("build failed")


def number(text):
    try:
        return int(text)
    except ValueError:
        value = float(text)
        return value if math.isfinite(value) else None


def parse_report(text):
    """The binary's stdout report (see cpp/main.cpp) as (result, record)."""
    metrics, record, problems, counts = {}, {}, [], None
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "metric":
            name, value, unit = rest.split(" ")
            metrics[name] = {"value": number(value), "unit": unit}
        elif kind == "value":
            key, value = rest.split(" ")
            record[key] = number(value)
        elif kind == "list":
            key, *values = rest.split(" ")
            record[key] = [number(v) for v in values]
        elif kind == "json":
            key, _, value = rest.partition(" ")
            record[key] = json.loads(value)
        elif kind == "problem":
            problems.append(rest)
        elif kind == "result":
            counts = [int(v) for v in rest.split(" ")]
    if counts is None:
        return None, record
    attempted, failed = counts
    record["problems"] = problems
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("flip-outcome",),
                        help="corrupt one panel before the gate (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    os.makedirs(RUNS, exist_ok=True)
    binary = os.path.join(BUILD, "panelbench")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # The scalar double reference of the panel, in a process of its own
    # that may use every CPU; the measured process gates against its CSV.
    reference = os.path.join(RUNS, "reference-%s-seed%d.csv"
                             % (args.workload, args.seed))
    try:
        ref = subprocess.run([binary, "--reference-out", reference] + common,
                             stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the reference run exceeded %d s" % RUN_TIMEOUT_S, 3)
    if ref.returncode != 0:
        print("panelbench: the reference run failed; every panel will fail "
              "the gate", file=sys.stderr)
    cmd = [binary] + common + [
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--reference-csv", reference,
        "--out-dir", RUNS,
        "--golden-dir", os.path.join(HERE, "golden")]
    if args.inject:
        cmd += ["--inject", args.inject]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    result, record = parse_report(out)
    if proc.returncode not in (0, 1) or result is None:
        fail("panelbench exited with %d" % proc.returncode, 2)
    record = dict(workload=args.workload, seed=args.seed, trace=args.trace,
                  **record)
    text = json.dumps(record)
    print("panelbench record: " + text, file=sys.stderr)
    with open(os.path.join(RUNS, "record-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        f.write(text + "\n")
    # Exit status 1: a panel failed the gate, and "correct" is false.
    print(json.dumps(result), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
