#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_bench.py

1. BENCHMARK.json stays within its format limits.
2. The oracle test (perfbench_oracle_test, on the paper's worked example)
   passes.
3. Declaration check: a short untraced and a short traced run of every
   workload print exactly the declared end-to-end / per-layer metrics with
   the declared units, a well-formed record, correct answers and no failed
   operation. A metric printed but not declared, or declared but never
   printed, fails the test.

Exits 0 when everything holds.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SECONDS = 2

failures = []


def check(ok, message):
    if not ok:
        failures.append(message)
        print("FAIL: " + message)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    check(1 <= len(spec["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    check(1 <= len(spec["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    check(isinstance(spec["run_seconds"], int) and
          1 <= spec["run_seconds"] <= 60, "run_seconds")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)), "names are unique")
    for n in names:
        check(bool(NAME.match(n)), "bad name %r" % n)
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200 and
              "\n" not in w["why"], "workload %s" % w["name"])
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and
              0 < m["bound"] <= 0.25, "end-to-end metric %s" % m["name"])
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, "metric %s" % m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(bool(UNIT.match(m["unit"])) and
              m["better"] in ("lower", "higher"), "unit of %s" % m["name"])
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and
              m["better"] == "lower" for m in spec["end_to_end"]),
          "setup_s is declared")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(SECONDS), "--trace",
           str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          cwd=ROOT, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        check(False, "%s trace %d exited %d" % (workload, trace,
                                               done.returncode))
        sys.stderr.write(done.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def check_declared(workload, trace, record, declared):
    where = "%s trace %d" % (workload, trace)
    check(set(record) == {"correct", "attempted", "failed", "metrics"},
          where + ": record keys")
    check(record["correct"] is True, where + ": answers incorrect")
    check(isinstance(record["attempted"], int) and record["attempted"] >= 1,
          where + ": attempted")
    check(record["failed"] == 0, where + ": failed operations")
    printed = record["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    for name in sorted(set(printed) - set(want)):
        check(False, where + ": prints undeclared metric " + name)
    for name in sorted(set(want) - set(printed)):
        check(False, where + ": never prints declared metric " + name)
    for name in sorted(set(want) & set(printed)):
        check(printed[name]["unit"] == want[name],
              where + ": unit of " + name)
        check(isinstance(printed[name]["value"], (int, float)),
              where + ": value of " + name)
        if trace == 0:
            check(printed[name]["value"] != 0, where + ": %s reads 0" % name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            record = run(w["name"], trace)
            if record is not None:
                check_declared(w["name"], trace, record, declared)
    oracle = subprocess.run([os.path.join(ROOT, ".bench_build",
                                          "perfbench_oracle_test")])
    check(oracle.returncode == 0, "oracle test")
    print("perfbench test: %s" % ("OK" if not failures else
                                  "%d failures" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
