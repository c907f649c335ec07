#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and whether two sets of runs
of the same code agree.

Run from the repository root:

    python3 perfbench/spread.py [--runs N] [--sets K] [--first-seed S]
                                [--seconds T] [workload ...]

For each workload (default: all of BENCHMARK.json), runs K sets
(default 2) of N untraced runs (default 10), one set after the other.
Every set uses the same seeds, S..S+N-1. For every end-to-end
metric it prints, per set, the median and the spread: the distance
between the first and third quartiles (`statistics.quantiles(values,
n=4)`) as a share of the median. Then it prints how far each later set's
median moved from the first set's, signed so that positive is worse.

A spread above the metric's bound (except for `setup_s`, whose spread is
not bounded) or a later median worse than the first by more than the
bound fails the check; a spread above a third of the bound is flagged.
The exit status is 0 only if nothing failed and no run failed an
operation.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_set(command, workload, seeds, seconds, metrics):
    """Runs one set; returns ({metric: [values]}, whether every run was clean)."""
    values = {name: [] for name in metrics}
    clean = True
    for seed in seeds:
        done = subprocess.run(
            command + ["--workload", workload, "--seed", str(seed), "--seconds", seconds,
                       "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
        result = json.loads(lines[-1])
        if result["failed"]:
            clean = False
            print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
    return values, clean


def main():
    args = sys.argv[1:]
    runs, sets, first_seed, seconds = 10, 2, 1, None
    workloads = []
    while args:
        arg = args.pop(0)
        if arg == "--runs":
            runs = int(args.pop(0))
        elif arg == "--sets":
            sets = int(args.pop(0))
        elif arg == "--first-seed":
            first_seed = int(args.pop(0))
        elif arg == "--seconds":
            seconds = args.pop(0)
        else:
            workloads.append(arg)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = seconds or str(spec["run_seconds"])
    workloads = workloads or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = list(range(first_seed, first_seed + runs))
    ok = True
    for w in workloads:
        results = []
        for k in range(sets):
            values, clean = run_set(spec["command"], w, seeds, seconds, metrics)
            ok &= clean
            results.append(values)
        print(f"== {w} ({sets} sets of {runs} runs, seeds {seeds[0]}..{seeds[-1]}, {seconds} s)")
        for name, m in metrics.items():
            bound = m["bound"]
            medians = []
            for k, values in enumerate(results):
                q1, med, q3 = statistics.quantiles(values[name], n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag = "  FAIL: above the bound"
                    ok = False
                elif name != "setup_s" and spread > bound / 3:
                    flag = "  (above a third of the bound)"
                print(f"   {name:14s} set {k + 1} median {med:12.6g}  spread {spread:7.2%}  "
                      f"bound {bound:.0%}{flag}")
                print("      " + " ".join(f"{x:.6g}" for x in values[name]))
            for k, med in enumerate(medians[1:], start=2):
                worse = (med - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                flag = ""
                if worse > bound:
                    flag = "  FAIL: worse than set 1 by more than the bound"
                    ok = False
                print(f"   {name:14s} set {k} vs set 1: {worse:+7.2%} (positive is worse){flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
