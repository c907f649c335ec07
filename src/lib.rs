//! Facade crate for the LCL landscape suite — a Rust reproduction of
//! *The Landscape of Distributed Complexities on Trees and Beyond*
//! (Grunau, Rozhoň, Brandt; PODC 2022).
//!
//! Re-exports every member crate under one roof so that examples,
//! integration tests, and downstream users can write `use lcl_landscape::…`.
//!
//! # Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`graph`] | `lcl-graph` | port-numbered graphs, balls, generators |
//! | [`lcl`] | `lcl` | LCL problems, constraints, verifiers |
//! | [`local`] | `lcl-local` | LOCAL model simulator |
//! | [`volume`] | `lcl-volume` | VOLUME/LCA model simulator |
//! | [`grid`] | `lcl-grid` | oriented grids, PROD-LOCAL model |
//! | [`core`] | `lcl-core` | round elimination + speedup pipelines |
//! | [`problems`] | `lcl-problems` | concrete problems and algorithms |
//! | [`classify`] | `lcl-classify` | path/cycle complexity classifier |
//! | [`obs`] | `lcl-obs` | tracing/metrics: spans, counters, reports |
//! | [`faults`] | `lcl-faults` | fault plans, budgets, panic isolation |
//! | [`recover`] | `lcl-recover` | certified repair, checkpoint/resume, retry supervisor |
//! | [`shard`] | `lcl-shard` | sharded LOCAL substrate, per-shard fault domains, shard crash recovery |
//! | [`procshard`] | `lcl-procshard` | process-per-shard substrate: shard supervisor, SIGKILL survival, replay rehydration |
//!
//! Each model has one entrypoint, taking a
//! [`RunOptions`](faults::RunOptions) (event log, fault plan, budget,
//! shard count) and returning an [`obs::RunReport`] (outcome plus
//! execution trace):
//!
//! | Model | Entrypoint |
//! |---|---|
//! | LOCAL, view-based (Definition 2.1) | [`local::simulate_with`], [`local::simulate_randomized_with`] |
//! | LOCAL, message passing | [`local::simulate_sync_with`] |
//! | VOLUME (Definition 2.9) | [`volume::simulate_with`] |
//! | LCA | [`volume::simulate_lca_with`] |
//! | PROD-LOCAL (Section 5) | [`grid::simulate_with`] |
//!
//! On top of the re-exports the facade adds [`LandscapeError`]: one
//! error type with `From` impls for every subsystem's typed error, so
//! examples and tools can use `?`.
//!
//! # Quickstart
//!
//! ```
//! use lcl_landscape::faults::RunOptions;
//! use lcl_landscape::graph::gen;
//! use lcl_landscape::lcl::LclProblem;
//! use lcl_landscape::local::{simulate_with, IdAssignment};
//!
//! let g = gen::cycle(12);
//! let coloring = LclProblem::parse(
//!     "name: 3-coloring\nmax-degree: 2\nnodes:\nA*\nB*\nC*\nedges:\nA B\nA C\nB C\n",
//! )?;
//! assert_eq!(coloring.output_alphabet().len(), 3);
//!
//! // Every run returns an `obs::RunReport` carrying the outcome and a
//! // trace; without a fault plan the outcome has no fault records.
//! let ids = IdAssignment::sequential(12);
//! let input = lcl_landscape::lcl::uniform_input(&g);
//! let report = simulate_with(
//!     &lcl_landscape::problems::trivial::ConstantZero,
//!     &g,
//!     &input,
//!     &ids,
//!     None,
//!     RunOptions::new(),
//! );
//! assert!(report.outcome.faults.is_empty());
//! assert_eq!(report.outcome.outcome.radius, 0);
//! assert!(report.trace.fingerprint().starts_with("local/"));
//! # Ok::<(), lcl_landscape::LandscapeError>(())
//! ```

pub mod error;

pub use lcl_classify as classify;
pub use lcl_core as core;
pub use lcl_faults as faults;
pub use lcl_graph as graph;
pub use lcl_grid as grid;
pub use lcl_local as local;
pub use lcl_obs as obs;
pub use lcl_problems as problems;
pub use lcl_procshard as procshard;
pub use lcl_recover as recover;
pub use lcl_shard as shard;
pub use lcl_volume as volume;

pub use lcl;

pub use error::LandscapeError;

/// The Rust snippets of `README.md`, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
