#!/usr/bin/env python3
"""Runs a set of benchmark runs and saves each run's output.

    python3 perfbench/collect.py OUT_DIR [--seeds 1-10] [--trace 0|1]
                                 [--workloads a,b] [--seconds S]

Runs perfbench/run.py once per workload and seed, in that order, and writes
each run's standard output to OUT_DIR/<workload>-<seed>-t<trace>.txt. Then
prints, per workload and metric, the median and the spread (interquartile
range over median) of the set, next to the metric's bound. Two such
directories are what perfbench/compare.py compares.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    status = 0
    for w in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", w, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            path = os.path.join(args.out_dir, "%s-%d-t%d.txt" % (w, seed, args.trace))
            with open(path, "w") as f:
                f.write(proc.stdout)
            if proc.returncode != 0:
                print("%s seed %d: exit %d" % (w, seed, proc.returncode))
                status = 1
                continue
            result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            print("%-14s %-32s median %-12.5g spread %6.1f%%%s" % (
                w, m["name"], med, 100 * spread,
                "  (bound %.0f%%)" % (100 * bound) if bound else ""))
    return status


if __name__ == "__main__":
    sys.exit(main())
