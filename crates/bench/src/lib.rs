//! The benchmark harness: every figure of the paper, regenerated.
//!
//! The paper's evaluation is Figure 1 — four landscape panels — plus the
//! quantitative theorem statements. Each experiment here prints the
//! series/rows that reproduce one artifact (see `DESIGN.md`'s experiment
//! index E1–E10 and `EXPERIMENTS.md` for paper-vs-measured):
//!
//! * [`fig1::trees`] — E1, top-left panel: measured rounds per class on
//!   trees/paths.
//! * [`fig1::grids`] — E2, top-right panel: oriented grids.
//! * [`fig1::general`] — E3, bottom-left panel: the dense region via the
//!   shortcut construction.
//! * [`fig1::volume`] — E4, bottom-right panel: probe complexities.
//! * [`gaps::speedup_trees`] — E5, Theorem 3.11 as a synthesizer.
//! * [`gaps::failure_probabilities`] — E6, Theorem 3.4's bound vs
//!   measured.
//! * [`gaps::volume_gap`] — E7, Theorem 4.1/4.3.
//! * [`gaps::grid_gap`] — E8, Theorem 5.1.
//! * [`gaps::landscape_paths`] — E9, the decidable path/cycle slice.
//! * [`gaps::label_growth`] — E10, the label-growth ablation.
//! * [`re_engine::re_engine`] — the round-elimination engine counters
//!   (interning, parallel fan-out, memo cache, fixpoint detection),
//!   written to `BENCH_re_engine.json`.
//! * [`obs_report::obs_report`] — per-stage execution traces for every
//!   Figure 1 panel, collected through the instrumented `simulate*`
//!   entrypoints and written to `BENCH_obs.json` (also available alone
//!   via `cargo bench -p lcl-bench --bench obs`).
//! * [`recover_report::recover_report`] — recovery counters (repairs,
//!   retries, checkpoints) for the certified-repair and tower-supervisor
//!   paths, written to `BENCH_recover.json` (`--bench recover`).
//! * [`service_report::service_report`] — the classification service
//!   under a seeded 1 000-request mix with ~30 % structural duplicates:
//!   dedup/coalescing counters, cache-hit latency, and a checkpoint
//!   resume check, written to `BENCH_service.json` (`--bench service`).
//!   The `classify-server` / `classify-client` binaries expose the same
//!   service over a Unix socket for interactive use.
//! * [`curves::curves_report`] — E11, theory-vs-practice curves: decade
//!   sweeps of event-derived cost counts per Figure 1 panel,
//!   least-squares-fitted against candidate asymptotic shapes and
//!   written to `BENCH_curves.json` (`--bench curves`). The committed
//!   file is gated on the *fitted class* bit-exactly — wall noise
//!   cannot fail it.
//! * [`procshard_report::procshard_report`] — the process-per-shard
//!   substrate: a clean cross-process scale run plus a seeded
//!   SIGKILL-respawn-rehydrate scenario, written to
//!   `BENCH_procshard.json` (`--bench procshard`; needs
//!   `target/release/shard-worker`, so `cargo build --release` first).
//! * [`chaos`] — the chaos table: every fault-injection instance,
//!   built from `(model, seed)`, drawn by the chaos soak, the
//!   `--bench chaos` stage and the `shrink-chaos` binary
//!   (`scripts/shrink_chaos.sh`), whose work is [`chaos::shrink`] over
//!   the greedy plan shrinker [`shrink::shrink_plan`].
//!
//! `cargo bench -p lcl-bench` runs every bench, and each committed
//! baseline has exactly one producer: `--bench figures` prints the
//! paper's tables and writes `BENCH_re_engine.json`, and every other
//! `BENCH_*.json` comes from the bench of its name. The microbenchmarks
//! of the hot paths live in `--bench micro`.
//!
//! Every report is written through [`report`] in one shape,
//! `{bench, counters, walls, fits}`, and the committed baselines are
//! *gated*: the `bench-diff` binary ([`diff`], reading through
//! [`lcl_obs::json`]) compares a fresh report against the committed one
//! — counters and fitted classes bit-exact, walls recorded as notes
//! only — and exits nonzero on any regression. `scripts/check.sh` runs
//! it.

pub mod chaos;
pub mod curves;
pub mod diff;
pub mod fig1;
pub mod gaps;
pub mod grid_algos;
pub mod obs_report;
pub mod procshard_report;
pub mod re_engine;
pub mod recover_report;
pub mod report;
pub mod service_report;
pub mod shard_report;
pub mod shrink;
pub mod table;
pub mod timing;
pub mod volume_algos;
