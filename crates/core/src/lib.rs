//! The paper's contribution, executable: round elimination for LCLs with
//! inputs on irregular graphs, and the `o(log* n) → O(1)` speed-up
//! pipelines for trees (Theorem 3.11), the VOLUME/LCA models
//! (Theorems 4.1/4.3), and oriented grids (Theorem 5.1).
//!
//! # Module map
//!
//! * [`bits`] — small fixed-universe bitsets used throughout, plus the
//!   word-level set-op kernels shared with the arena layout.
//! * [`arena`] — flat arena-backed bitset families (one contiguous
//!   `Vec<u64>` of fixed-width rows per tower level) behind the hot
//!   path.
//! * [`interner`] — deduplicating id store for label sets; derived-level
//!   labels are addressed by dense `u32` ids, so set equality and
//!   universe membership are integer operations.
//! * [`par`] — a dependency-free scoped-thread fan-out (`std::thread`
//!   only; the build environment is offline) used by the tower engine and
//!   the derived-algorithm runs.
//! * [`tower`] — the round-elimination problem sequence
//!   `Π, R(Π), R̄(R(Π)), ...` (Definitions 3.1/3.2) with label universes
//!   interned as sets-of-parent-labels and constraints evaluated lazily,
//!   plus per-level engine counters and extensional fixpoint detection.
//! * [`zero_round`] — deciding deterministic 0-round solvability and
//!   extracting the paper's `A_det` (proof of Theorem 3.10).
//! * [`lift`] — Lemma 3.9: turning a 0-round algorithm for
//!   `f^k(Π) = (R̄∘R)^k(Π)` into a `k`-round LOCAL algorithm for `Π`.
//! * [`speedup_trees`] — the full Theorem 3.10/3.11 pipeline: iterate
//!   round elimination, detect 0-round solvability, synthesize a
//!   constant-round algorithm, plus the Lemma 3.3 forest↔tree transfer.
//! * [`bounds`] — the quantitative side of Theorem 3.4: the blow-up factor
//!   `S`, the failure-probability recurrence `p ↦ S·p^{1/(3Δ+3)}`, and the
//!   `n₀` feasibility conditions (3.2)–(3.4).
//! * [`derived`] — the executable constructions of Section 3.2: deriving
//!   the faster-but-sloppier algorithms `A_½` (for `R(Π)`) and `A'` (for
//!   `R̄(R(Π))`) from a randomized algorithm `A` for `Π`.
//! * [`ramsey`] — the Ramsey-theoretic quantities used by Theorem 4.1 and
//!   Proposition 5.4.
//! * [`speedup_volume`] — Theorems 2.11 and 4.1 for the VOLUME model:
//!   order-invariant algorithms fooled at a fixed `n₀` run in `O(1)`
//!   probes on every `n`.
//! * [`speedup_grids`] — Propositions 5.3–5.5: the PROD-LOCAL pipeline on
//!   oriented grids, ending in an identifier-free constant-round
//!   algorithm.

pub mod arena;
pub mod bits;
pub mod bounds;
pub mod derived;
pub mod interner;
pub mod lemma33;
pub mod lift;
pub mod par;
pub mod ramsey;
pub mod snapshot;
pub mod speedup_grids;
pub mod speedup_local;
pub mod speedup_trees;
pub mod speedup_volume;
pub mod tower;
pub mod zero_round;

pub use arena::{BitArena, BitRow};
pub use bounds::{
    blowup_factor, failure_after_steps, find_n0_log2, n0_conditions_hold, step_bound,
};
pub use interner::LabelInterner;
pub use lemma33::{run_lemma33, Lemma33Case, Lemma33Run};
pub use lift::LiftedAlgorithm;
pub use snapshot::{
    LayerSnapshot, SnapshotError, SpanSnapshot, TableSnapshot, TowerSnapshot, SNAPSHOT_VERSION,
};
pub use speedup_local::{run_fooled_local, FooledOrderInvariant};
pub use speedup_trees::{tree_speedup, tree_speedup_logged, SpeedupOptions, SpeedupOutcome};
pub use tower::{LayerKind, LevelStats, ReError, ReOptions, ReTower, TowerLevel};
pub use zero_round::{decide_zero_round, ZeroRoundAlgorithm, ZeroRoundResult};
