#!/usr/bin/env python3
"""Whole-run benchmark entry point (see README.md in this directory).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the program and the benchmark binary `wholerun` from source into
.bench_build/perfbench at the repository root (incremental after the
first build), runs one workload, and passes wholerun's output through.
The last line of standard output is wholerun's JSON result. Exits
non-zero, printing no result, when the build fails (for example when the
program's sources are absent) or when the result does not carry exactly
the metrics BENCHMARK.json declares for the requested mode.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build(targets):
    """Configures (once) and builds `targets`; build chatter goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for a mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    """Problems with wholerun's result line against BENCHMARK.json."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "undeclared %s, wrong unit %s" % (missing, extra, wrong))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark helpers' tests")
    args = parser.parse_args()

    if args.self_test:
        if not build(["wholerun_selftest"]):
            return 1
        return subprocess.run([os.path.join(BUILD, "wholerun_selftest")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build(["wholerun"]):
        return 1
    cmd = [os.path.join(BUILD, "wholerun"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace,
           "--golden", os.path.join(HERE, "golden.txt")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: wholerun exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout)
        print("perfbench: wholerun exited with %d" % done.returncode,
              file=sys.stderr)
        return 1
    problems = check_result(lines[-1], args.trace == "1")
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        for p in problems:
            print("perfbench: " + p, file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
