#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Usage, from the repository root:

    python3 reqbench/steadiness.py --workload <name> [--seeds 1,2,3,4,5]

Runs reqbench/run.py once per seed with BENCHMARK.json's run_seconds and
prints, for every end-to-end metric, the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median
next to the metric's bound. A spread under a third of the bound is the
target; setup_s is reported but has no spread target.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in args.seeds.split(","):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", seed, "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print("seed %s: run not correct (%d failed)" % (seed, result["failed"]))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %s: %s" % (seed, " ".join(
            "%s=%.4g" % (n, result["metrics"][n]["value"]) for n in values)),
            flush=True)
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        verdict = "ok" if spread < bounds[name] / 3 else "WIDE"
        if name == "setup_s":
            verdict = "-"
        print("%-16s median=%-12.6g q1=%-12.6g q3=%-12.6g spread=%.4f "
              "bound=%.2f %s" % (name, median, q1, q3, spread, bounds[name],
                                 verdict))


if __name__ == "__main__":
    main()
