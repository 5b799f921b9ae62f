#!/usr/bin/env python3
"""Compares two sets of benchmark runs.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are files or directories holding the output of runs of
perfbench/run.py (the record lines it prints; perfbench/collect.py writes one
file per run). For every workload and end-to-end metric in BENCHMARK.json the
tool prints each side's median and quartiles, and a verdict:

  agree       the medians differ by no more than the metric's bound
  better      CHANGE's median is better than BASE's by more than the bound
  worse       CHANGE's median is worse than BASE's by more than the bound
  unresolved  a side's spread (interquartile range over median) is wider
              than the bound, so the runs cannot tell

It also compares the share of failed operations. Exit code 0 when nothing
is worse or unresolved and the failure shares are equal, else 1.

Traced runs (--trace 1) count with the end-to-end values they measured under
tracing, so comparing a set of untraced runs with a set of traced runs of the
same code gives the tracing overhead.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_records(path):
    files = [path]
    if os.path.isdir(path):
        files = [os.path.join(path, f) for f in sorted(os.listdir(path))]
    records = []
    for name in files:
        if not os.path.isfile(name):
            continue
        with open(name) as f:
            for line in f:
                line = line.strip()
                if line.startswith('{"perfbench_record"'):
                    rec = json.loads(line)["perfbench_record"]
                    if rec["trace"] == 1:
                        # Its end-to-end values, measured under tracing.
                        rec["result"]["metrics"] = rec["end_to_end_traced"]
                    records.append(rec)
    return records


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sides = [load_records(p) for p in sys.argv[1:]]
    ok = True
    print("%-14s %-12s %28s %28s  %s" % ("workload", "metric", "base q1/median/q3",
                                        "change q1/median/q3", "verdict"))
    for w in (w["name"] for w in spec["workloads"]):
        runs = [[r for r in side if r["workload"] == w] for side in sides]
        if not runs[0] or not runs[1]:
            print("%-14s (no runs on %s side)" % (w, "base" if not runs[0] else "change"))
            ok = False
            continue
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            stats = [summary([r["result"]["metrics"][name]["value"] for r in side])
                     for side in runs]
            spreads = [(q3 - q1) / med for q1, med, q3 in stats]
            base, change = stats[0][1], stats[1][1]
            worse_by = (change - base) / base if lower else (base - change) / base
            if max(spreads) > bound:
                verdict = "unresolved (spread %.1f%% / %.1f%% > bound %.0f%%)" % (
                    100 * spreads[0], 100 * spreads[1], 100 * bound)
            elif worse_by > bound:
                verdict = "worse by %.1f%%" % (100 * worse_by)
            elif -worse_by > bound:
                verdict = "better by %.1f%%" % (-100 * worse_by)
            else:
                verdict = "agree (%+.1f%%, bound %.0f%%)" % (-100 * worse_by, 100 * bound)
            ok = ok and verdict.startswith(("agree", "better"))
            print("%-14s %-12s %28s %28s  %s" % (
                w, name, "%.4g/%.4g/%.4g" % stats[0], "%.4g/%.4g/%.4g" % stats[1], verdict))
        shares = []
        for side in runs:
            attempted = sum(r["result"]["attempted"] for r in side)
            failed = sum(r["result"]["failed"] for r in side)
            shares.append(failed / attempted)
        same = shares[0] == shares[1]
        ok = ok and same
        print("%-14s %-12s %28.6g %28.6g  %s" % (w, "failed_share", shares[0], shares[1],
                                                "agree" if same else "differ"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
