#!/usr/bin/env python3
"""Comparison command: given the result records of a parent commit and of a
change (JSON lines as steady.py --out writes them, untraced runs), gives one
verdict per workload and end-to-end metric.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Runs are paired by workload and seed. Make the two files from interleaved
runs of the two checkouts (for each seed, one run of each, alternating
which goes first): a shared virtual machine's speed drifts over minutes,
and two sets of the same code run one after the other can read
"improved". Verdicts:
  improved    the change wins at least 9/10 of the pairs and its median
              beats the parent's by more than the parent's quartile spread;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's own spread is wider than the bound, and not
              every run of the change reads better than every parent run;
  no worse    otherwise.
Also flags a workload whose failed share differs between the two sides.
Exits 1 if any metric is worse.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if row.get("trace", 0) != 0:
                continue
            runs.setdefault(row["workload"], {})[row["seed"]] = row["record"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    """parent/change: lists of values paired by index."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, pmed, q3 = quartiles(parent)
    cmed = statistics.median(change)
    gain = sign * (cmed - pmed)
    if wins >= 0.9 * len(parent) and gain > (q3 - q1):
        return "improved", wins
    if pmed and -gain > bound * abs(pmed):
        return "worse", wins
    spread = (q3 - q1) / abs(pmed) if pmed else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins
    return "no worse", wins


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    any_worse = False
    for w in spec["workloads"]:
        name = w["name"]
        seeds = sorted(set(parent.get(name, {})) & set(change.get(name, {})))
        if not seeds:
            print("== %s: no paired runs" % name)
            continue
        p_runs = [parent[name][s] for s in seeds]
        c_runs = [change[name][s] for s in seeds]
        p_share = {r["failed"] / r["attempted"] for r in p_runs}
        c_share = {r["failed"] / r["attempted"] for r in c_runs}
        note = "" if p_share == c_share else "  FAILED SHARE DIFFERS %s vs %s" % (
            sorted(p_share), sorted(c_share))
        print("== %s: %d pairs%s" % (name, len(seeds), note))
        for m in spec["end_to_end"]:
            key = m["name"]
            pv = [r["metrics"][key]["value"] for r in p_runs]
            cv = [r["metrics"][key]["value"] for r in c_runs]
            v, wins = verdict(pv, cv, m["better"], m["bound"])
            any_worse = any_worse or v == "worse"
            print("  %-20s %-10s parent %.4g  change %.4g  wins %d/%d" %
                  (key, v, statistics.median(pv), statistics.median(cv), wins,
                   len(seeds)))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
