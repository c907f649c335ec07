#!/usr/bin/env bash
# The full pre-merge gate: build, tests, formatting, lints.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test --release =="
cargo test -q --release

echo "== examples (each runs to completion; their asserts are checks) =="
# `cargo test` only compiles examples/, so this is the one step that
# runs their assertions.
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  echo "-- $name"
  cargo run -q --release --example "$name" > /dev/null
done

echo "== cargo fmt --check =="
cargo fmt --check
# perfbench is a workspace of its own, which the root check never sees.
cargo fmt --check --manifest-path perfbench/Cargo.toml

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== cargo doc (no deps, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== chaos soak (trichotomy: valid / typed error / typed degradation) =="
# The full randomized soak (>=300 plans across LOCAL/VOLUME/LCA/
# PROD-LOCAL, budgeted-tower bit-identity at 1/2/8 threads) is
# `#[ignore]`d in normal test runs; this gate runs it in release, where
# it finishes in a few seconds (budget: <60s).
cargo test -q --release --test chaos -- --include-ignored

echo "== recovery soak (repair closes the loop; supervised resume is deterministic) =="
# 100 crash/corrupt plans across all four faulted models must end
# Certified or typed RepairFailed (never silently invalid), and the
# supervised tower build must fingerprint-match an uninterrupted build
# at 1/2/8 threads. Release-only for the same reason as the chaos soak.
cargo test -q --release --test recovery -- --include-ignored

echo "== long-instance soak (anchor-and-fill windows that see only part of the graph) =="
# Every synthesized cycle and path algorithm of the catalogue and of 200
# seeded random degree-2 problems must verify at n > 2 * radius(n) + 1,
# where no window wraps around the cycle or sees both path ends.
# Release-only: about 3 s there against about 18 s in debug.
cargo test -q --release -p lcl-classify --test long_instances -- --include-ignored

echo "== shard chaos soak (whole-shard loss: retry -> resume -> repair -> degrade) =="
# 50 seeds x (crash 2 of 8 shards at superstep 0) on the synthesized E1
# pipeline at the tight round budget, across 1/2/8 runner threads, plus
# the 10^7-node sharded LOCAL scale run. Every chaos run must end
# Certified with the damage confined to the crashed shards and the
# healthy frontier. Release-only: the scale run needs the optimizer.
cargo test -q --release --test shard_chaos -- --include-ignored

echo "== proc kill soak (SIGKILL -> respawn -> replay rehydration -> Certified) =="
# 20 seeds x (SIGKILL 2 of 8 worker processes at superstep 0) on the
# synthesized E1 pipeline over the process-per-shard substrate. Every
# run must produce output bit-identical to the clean unsharded run and
# certify with zero patched nodes — kills are output-transparent.
# Release-only: 160 process spawns want the optimizer.
cargo test -q --release -p lcl-procshard --test proc_chaos -- --include-ignored

echo "== perfbench self-test (the benchmark builds and replays against this API) =="
# perfbench is a workspace of its own, so no step above compiles it.
# The self-test builds it and the worker, runs every workload on tiny
# inputs, and checks the replayed per-layer calls; any problem fails.
python3 perfbench/run.py --self-test

echo "== perfbench unit tests (metric and span code) =="
# The self-test above runs the workloads; these are perfbench's own
# unit tests of its metric and span code, which nothing else runs.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "== #[cfg(test)] gate (every test attribute opens a test module) =="
# The unwrap and panic gates below treat the first `#[cfg(test)]` in a
# file as the start of its tests, so one on anything but a module (a
# stray `use`, say) would hide the library code after it from both.
# Every `#[cfg(test)]` in crates/*/src must be directly followed by a
# `mod` item.
STRAY=$(find crates/*/src -name '*.rs' | sort | xargs awk '
  FNR == 1 && pending { print at; pending = 0 }
  pending {
    if ($0 !~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z_][A-Za-z_0-9]*/) print at
    pending = 0
  }
  /#\[cfg\(test\)\]/ { pending = 1; at = FILENAME ":" FNR }
  END { if (pending) print at }')
if [ -n "$STRAY" ]; then
  echo "#[cfg(test)] not directly followed by a mod item at:"
  echo "$STRAY"
  exit 1
fi

echo "== unwrap() gate (library code must use typed errors or expect) =="
# Count `.unwrap()` in crate library sources outside `#[cfg(test)]`
# modules. The baseline is 0: new library code must propagate typed
# errors (`?`) or document infallibility with `.expect("why")`.
UNWRAPS=$(find crates/*/src -name '*.rs' | sort | xargs awk '
  FNR==1 { intest = 0 }
  /#\[cfg\(test\)\]/ { intest = 1 }
  !intest { c += gsub(/\.unwrap\(\)/, "") }
  END { print c + 0 }')
if [ "$UNWRAPS" -gt 0 ]; then
  echo "found $UNWRAPS non-test .unwrap() call(s) in crates/*/src (baseline 0)"
  exit 1
fi

echo "== panic!() gate (library code must degrade or return typed errors) =="
# Mirror of the unwrap gate for `panic!`: library sources outside
# `#[cfg(test)]` modules must return typed errors for reachable
# failures and use `expect("why: ...")`/`assert!` with a documented
# invariant for unreachable ones. Baseline 0.
PANICS=$(find crates/*/src -name '*.rs' | sort | xargs awk '
  FNR==1 { intest = 0 }
  /#\[cfg\(test\)\]/ { intest = 1 }
  !intest { c += gsub(/panic!/, "") }
  END { print c + 0 }')
if [ "$PANICS" -gt 0 ]; then
  echo "found $PANICS non-test panic!() call(s) in crates/*/src (baseline 0)"
  exit 1
fi

echo "== bench-diff (report shape + self-diff gate) =="
# Every committed baseline must have the shared {bench, counters, walls,
# fits} shape and self-diff clean — the fixed point of the
# perf-regression gate. `bench-diff BASELINE` validates the shape before
# it self-diffs. A fresh report is gated the same way:
#   cargo bench -q -p lcl-bench --bench obs   # writes BENCH_obs.json
#   git diff --exit-code BENCH_obs.json || \
#     cargo run -p lcl-bench --bin bench-diff -- <committed> BENCH_obs.json
# Counters and fitted classes compare bit-exactly; walls are only noted.
# The self-diff still runs the two floors: r2 >= 0.8 for every fit, and
# par_speedup >= 1.5 whenever the report under test was measured with
# >= 8 threads (on smaller hosts, like a 1-core CI runner, the floor is
# noted, not gated, because no parallel speedup is physically possible
# there). Every BENCH_*.json at the root is gated, so a new baseline
# needs no edit here.
for baseline in BENCH_*.json; do
  cargo run -q --release -p lcl-bench --bin bench-diff -- "$baseline"
done

echo "== wall-clock gate (cost model and curve fits are count-derived) =="
# The asymptotic-regression gate only works because its inputs are
# deterministic event counts: a fitted class must never depend on how
# fast the host ran. The cost fold and the sweep/fit layer therefore
# must not read the clock. Baseline 0.
INSTANTS=$(awk '/Instant/ { c++ } END { print c + 0 }' \
  crates/obs/src/cost.rs crates/bench/src/curves.rs)
if [ "$INSTANTS" -gt 0 ]; then
  echo "found $INSTANTS Instant reference(s) in cost/curve sources (baseline 0)"
  exit 1
fi

echo "all checks passed"
