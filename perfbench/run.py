#!/usr/bin/env python3
"""Builds the repo benchmark (once per checkout) and runs one workload.

    python3 perfbench/run.py --workload men2-paper --seed 1 --seconds 45 --trace 0

The build lands in .bench_build/ at the root of the checkout. The last line
of standard output is the workload's result record (one JSON object); build
and progress output goes to standard error. Exits non-zero, printing no
record, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench",
           "perfbench_oracle_test"]
    return subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "perfbench")] + sys.argv[1:]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if done.returncode != 0:
        return done.returncode
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
