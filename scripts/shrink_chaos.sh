#!/usr/bin/env bash
# Bisect a failing chaos seed to a minimal reproducing fault plan.
#
# Usage: scripts/shrink_chaos.sh <local|volume|lca|prod|shard|proc> <seed>
#
# Rebuilds the chaos instance for (model, seed) from the chaos table in
# lcl-bench, the one the chaos soak draws from, checks whether its random
# fault plan reproduces (degrades the run, fails it, or diverges from the
# fault-free labeling), and greedily drops faults, and the adversarial
# ID permutation, until nothing more can go. The minimal plan is printed
# in the FaultPlan text format, ready to paste into a regression test
# via FaultPlan::parse. The shard model seeds whole-shard losses next to
# the node faults and the proc model seeds SIGKILLs to worker
# processes, so crash-shard and kill-shard directives bisect too. The
# proc model spawns target/release/shard-worker, which is built here
# first. A failing fault-free run (say, no worker binary) is reported
# and exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build -q --release -p lcl-procshard --bin shard-worker
exec cargo run -q --release -p lcl-bench --bin shrink-chaos -- "$@"
