#!/usr/bin/env python3
"""Steadiness command: runs every workload k times, in alternating order,
each time with another seed, and prints each metric's median, quartiles and
spread (quartile distance over the median) next to its bound.

    python3 perfbench/steady.py --k 10 [--seconds 10] [--trace 0|1]
        [--workloads men2-paper,fleet-open] [--seed0 1] [--out runs.jsonl]

Rounds alternate the workload order (forward, then backward), and round i
uses seed seed0 + i. With --trace 1 it also reports the traced runs'
trace.overhead_pct. --out keeps every record as one JSON line (the input
of compare.py). Exits non-zero if any run fails or reports incorrect
answers, or if the failed share differs between runs of one workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          cwd=ROOT, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    return json.loads(lines[-1])


def summarize(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    names = (args.workloads.split(",") if args.workloads else
             [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    records = {name: [] for name in names}
    out = open(args.out, "a") if args.out else None
    bad = False
    for i in range(args.k):
        order = names if i % 2 == 0 else list(reversed(names))
        for name in order:
            seed = args.seed0 + i
            rec = run_once(name, seed, seconds, args.trace)
            records[name].append(rec)
            if not rec["correct"]:
                bad = True
                print("INCORRECT: %s seed %d" % (name, seed))
            if out:
                out.write(json.dumps({"workload": name, "seed": seed,
                                      "trace": args.trace, "record": rec})
                          + "\n")
                out.flush()
            print("# %s seed %d done" % (name, seed), file=sys.stderr)

    for name in names:
        recs = records[name]
        shares = {r["failed"] / r["attempted"] for r in recs}
        print("\n== %s: %d runs, failed share %s" %
              (name, len(recs), sorted(shares)))
        if len(shares) > 1:
            bad = True
        print("%-34s %12s %12s %12s %8s %6s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in recs
                      if m["name"] in r["metrics"]]
            if not values:
                print("%-34s missing" % m["name"])
                bad = True
                continue
            q1, med, q3 = summarize(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                flag = " OK" if spread < bound / 3 else (
                    " wide" if spread <= bound else " OVER")
            print("%-34s %12.4f %12.4f %12.4f %7.1f%% %6s%s" %
                  (m["name"], q1, med, q3, 100 * spread,
                   "" if bound is None else "%.2f" % bound, flag))
    if out:
        out.close()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
