#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seconds <s>] [--seed <n>]
    python3 perfbench/run.py --self-test

The first form builds the benchmark (`perfbench/`) and the repository's
`shard-worker` binary in release mode, then runs one workload; the last
line of its standard output is the JSON result. `--workload all` runs
every workload of BENCHMARK.json untraced and traced and prints each
metric by name and unit. `--self-test` checks the benchmark itself on
tiny inputs. Build output goes to `$CARGO_TARGET_DIR` (default
`.bench_build`); stores, sockets and span files go under its
`perfbench/` directory.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
EXACT_COUNTS = {
    "proc-path": ["procshard.init_bytes", "procshard.halo_bytes"],
    "proc-tree": ["procshard.init_bytes", "procshard.halo_bytes"],
    "local-tree": ["shard.halo_bytes"],
    "classify-mix": ["service.computed"],
}


def build():
    """Builds the benchmark and, next to it, the worker binary it
    spawns; returns the benchmark's path."""
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "lcl-procshard", "--bin", "shard-worker"],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(TARGET, "release", "perfbench")


def bench(exe, args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    cmd = [exe, "--work-dir", os.path.join(TARGET, "perfbench")] + args
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout.splitlines()


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_all(exe, argv):
    seconds = argv[argv.index("--seconds") + 1] if "--seconds" in argv else "10"
    seed = argv[argv.index("--seed") + 1] if "--seed" in argv else "1"
    s = spec()
    status = 0
    for w in s["workloads"]:
        for trace in ("0", "1"):
            code, lines = bench(exe, ["--workload", w["name"], "--seed", seed,
                                      "--seconds", seconds, "--trace", trace])
            if code != 0 or not lines:
                print(f"{w['name']} trace={trace}: exit {code}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"== {w['name']} trace={trace}: attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  f"failed_ratio={result['failed'] / max(result['attempted'], 1):g}")
            for line in lines[:-1]:
                print("   " + line)
            for name, m in result["metrics"].items():
                print(f"   {name:28s} {m['value']:>16.6g} {m['unit']}")
            status |= int(result["failed"] != 0)
    return status


def self_test(exe):
    """Checks the benchmark on tiny inputs; returns the number of problems."""
    s = spec()
    problems = []
    catalogs = {"0": s["end_to_end"], "1": s["per_layer"]}
    for catalog in catalogs.values():
        for m in catalog:
            if not NAME.match(m["name"]) or not m.get("unit"):
                problems.append(f"bad metric entry {m}")
    for w in s["workloads"]:
        before = len(problems)
        counts = []
        for trace, catalog in sorted(catalogs.items()) + [("1", catalogs["1"])]:
            code, lines = bench(exe, ["--workload", w["name"], "--seed", "7",
                                      "--seconds", "0.5", "--trace", trace, "--tiny"])
            if code != 0 or not lines:
                problems.append(f"{w['name']} trace={trace}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w['name']}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in catalog}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{w['name']} trace={trace}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{w['name']} trace={trace}: failed_ratio is not 0: {result}")
            if trace == "1":
                counts.append({k: result["metrics"][k]["value"] for k in EXACT_COUNTS[w["name"]]})
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append(f"{w['name']}: exact counts differ between runs: {counts}")
        print(f"self-test {w['name']}: {len(problems) - before} problems")
    for p in problems:
        print("self-test: " + p)
    return len(problems)


def main():
    argv = sys.argv[1:]
    exe = build()
    if argv == ["--self-test"]:
        sys.exit(1 if self_test(exe) else 0)
    if "--workload" in argv and argv[argv.index("--workload") + 1] == "all":
        sys.exit(run_all(exe, argv))
    code, lines = bench(exe, argv)
    for line in lines:
        print(line)
    sys.exit(code)


if __name__ == "__main__":
    main()
