//! The LOCAL model of distributed computing (Definition 2.1 of the paper),
//! as an executable simulator.
//!
//! A `T`-round LOCAL algorithm is *defined* as a function from radius-`T`
//! views to outputs; this crate evaluates exactly that definition:
//!
//! * [`View`] — everything a node knows after `T` rounds: the ball
//!   `B_G(v, T)` (with the paper's precise visibility rules), the number of
//!   nodes `n`, unique identifiers (deterministic algorithms) or random bit
//!   strings (randomized algorithms), and the input labels in the view.
//! * [`LocalAlgorithm`] — the view-to-output function; run it with
//!   [`simulate_with`] (identifiers) or [`simulate_randomized_with`]
//!   (private random bits), each under
//!   [`RunOptions`](lcl_faults::RunOptions) and returning the outcome
//!   with its execution trace.
//! * [`SyncAlgorithm`] — the equivalent message-passing formulation, for
//!   naturally iterative algorithms (Cole–Vishkin, rake-and-compress);
//!   run it with [`simulate_sync_with`], which counts the rounds actually
//!   used, through one round loop with or without a fault plan. A run
//!   that exhausts its round cap degrades to one typed `"no-halt"` fault
//!   per unfinished node instead of panicking; [`run_congest`] meters
//!   its message sizes under the same options.
//! * [`OrderInvariantAlgorithm`] — Definition 2.7: algorithms that only see
//!   the relative order of identifiers; includes an empirical
//!   order-invariance checker used by the speed-up theorems.
//! * [`estimate_local_failure`] — Monte-Carlo estimation of the *local
//!   failure probability* (Definition 2.4) of a randomized algorithm.
//! * Fault plans — a deterministic plan in the
//!   [`RunOptions`](lcl_faults::RunOptions) of [`simulate_with`] or
//!   [`simulate_sync_with`] (crash-stops, corrupted views, adversarial
//!   ID permutations, injected panics) degrades the run to typed
//!   per-node fault records instead of aborting. The plan changes only
//!   the ids, the per-node injection and what a failing node costs;
//!   the loop is the plain run's. DESIGN.md, "Fault model & budgets",
//!   states the fault semantics.
//!
//! # Examples
//!
//! A 0-round algorithm that outputs a constant label:
//!
//! ```
//! use lcl::OutLabel;
//! use lcl_faults::RunOptions;
//! use lcl_local::{simulate_with, FnAlgorithm, IdAssignment};
//! use lcl_graph::gen;
//!
//! let g = gen::path(5);
//! let alg = FnAlgorithm::new("const", |_n| 0, |view| {
//!     vec![OutLabel(0); view.ball.center().ports.len()]
//! });
//! let input = lcl::uniform_input(&g);
//! let ids = IdAssignment::sequential(g.node_count());
//! let report = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new());
//! assert!(report.outcome.faults.is_empty(), "no plan, no faults");
//! assert_eq!(report.outcome.outcome.radius, 0);
//! ```

pub mod algorithm;
pub mod congest;
pub mod ids;
pub mod measure;
pub mod order_invariant;
pub mod run;
pub mod sync;
pub mod view;

pub use algorithm::{FnAlgorithm, LocalAlgorithm};
pub use congest::{run_congest, CongestRun, MessageBits};
pub use ids::{ids_under, IdAssignment};
pub use measure::minimal_solving_radius;
pub use order_invariant::{
    is_empirically_order_invariant, run_order_invariant, OrderInvariantAlgorithm, RankView,
};
pub use run::{
    estimate_local_failure, estimate_local_failure_parallel, simulate_randomized_with,
    simulate_with, FailureEstimate, LocalRun,
};
pub use sync::{simulate_sync_with, NodeInit, SyncAlgorithm, SyncRun};
pub use view::View;
