#!/usr/bin/env python3
"""Builds and runs the RT-Seed end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and builds
perfbench/ (the rtseed libraries from src/ plus rtseed_perfbench) into
.bench_build/; later calls only rebuild what changed.  Scratch files
(journals, span logs) go to .bench_run/.  The binary's last stdout line is
the result object; this script exits with the binary's code, or 1 when the
build fails or the result does not name exactly the metrics listed in
BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
SCRATCH = os.path.join(ROOT, ".bench_run")
BINARY = os.path.join(BUILD, "rtseed_perfbench")
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 2)])
        for step in steps:
            # Build chatter goes to stderr: stdout carries only the result.
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                return False
    return os.path.exists(BINARY)


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    os.makedirs(SCRATCH, exist_ok=True)
    # Journal directories left by an interrupted run.
    for entry in os.listdir(SCRATCH):
        if entry.startswith("journal-"):
            shutil.rmtree(os.path.join(SCRATCH, entry), ignore_errors=True)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", SCRATCH]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print("perfbench: no output", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: last line is not JSON", file=sys.stderr)
        return 1
    expected = expected_metrics(args.trace)
    if expected is not None and list(result["metrics"]) != expected:
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print(lines[-1])
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
