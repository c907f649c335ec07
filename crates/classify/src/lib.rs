//! Decidable classification of LCL complexities on oriented paths and
//! cycles — the positive side of the paper's Section 1.4.
//!
//! For paths and cycles it is known ([41, 17, 21, 22] in the paper's
//! bibliography) that the only LOCAL complexities are `O(1)`, `Θ(log* n)`
//! and `Θ(n)`, and that the class of a given (input-free) LCL is decidable
//! in polynomial time. This crate implements the automata-theoretic
//! decision procedure:
//!
//! * [`Automaton`] — the transition structure over output labels: `y → y'`
//!   iff some label `x'` closes both the edge configuration `{y, x'}` and
//!   the node configuration `{x', y'}`;
//! * [`classify_oriented_cycle`] / [`classify_oriented_path`] — the
//!   classification: a *self-loop* yields `O(1)` (a constant tiling), a
//!   *flexible* state (one whose closed-walk lengths have gcd 1) yields
//!   `Θ(log* n)`, anything else is global (`Θ(n)`) or solvable for only
//!   finitely many sizes;
//! * [`solvable_cycle_lengths_up_to`] — the per-`n` solvability table.
//!
//! Combined with the main theorem of the paper (no complexities strictly
//! between `ω(1)` and `o(log* n)` on trees), these procedures settle the
//! full landscape for the path/cycle slice exactly.

pub mod automaton;
pub mod classify;
pub mod synthesize;
pub mod synthesize_path;

pub use automaton::Automaton;
pub use classify::{
    classify_oriented_cycle, classify_oriented_path, solvable_cycle_lengths_up_to,
    solvable_path_lengths_up_to, Classification, ClassifyError, PathClass,
};
pub use synthesize::{synthesize_cycle, CycleAlgorithm};
pub use synthesize_path::{synthesize_path, PathAlgorithm};
