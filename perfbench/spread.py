#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it: run one workload once per seed, then for each metric print
the median of the values and the distance between their first and third
quartiles (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload fleet-diurnal --runs 10 [--first-seed 100]

A spread at or below a third of its bound is marked "steady".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(median, IQR / median) of a list of at least two numbers."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for i in range(args.runs):
        seed = args.first_seed + i
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if done.returncode != 0:
            print("seed %d: run.py exited with %d" % (seed, done.returncode))
            return 1
        result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
        line = ["seed %d: correct=%s" % (seed, result["correct"])]
        for name in bounds:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            line.append("%s=%.6g" % (name, v))
        print(" ".join(line), flush=True)
    print("%-20s %14s %9s %7s" % ("metric", "median", "spread", "bound"))
    for name, bound in bounds.items():
        med, share = spread(values[name])
        print("%-20s %14.6g %8.2f%% %6.1f%% %s" % (
            name, med, 100 * share, 100 * bound,
            "steady" if share <= bound / 3 else
            "within bound" if share <= bound else "TOO WIDE"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
