//! The VOLUME model (Rosenbaum–Suomela) and the LCA model, as executable
//! simulators — Definitions 2.8–2.10 of the paper.
//!
//! In the VOLUME model a node answers a query about its own half-edges by
//! *adaptively probing* the graph: each probe reveals one node's local
//! information (identifier, degree, input labels — a `Tuples_S` entry in
//! the paper's notation), and the complexity measure is the **number of
//! probes**, not the radius. This is the model in which the paper proves
//! the clean `ω(1) – o(log* n)` gap of Theorem 4.1/4.3.
//!
//! * [`VolumeAlgorithm`] + [`ProbeSession`] — the adaptive probe
//!   interface; the session enforces the probe budget `T(n)` and records
//!   the transcript `t^{(i)}`.
//! * [`simulate_with`] — answers the query of every node under
//!   [`RunOptions`](lcl_faults::RunOptions) and reports the worst-case
//!   probe count with the execution trace.
//! * [`order_invariant`] — Definition 2.10 order invariance plus the
//!   empirical checker used by the Theorem 4.1 pipeline.
//! * [`lca`] — the LCA variant: identifiers are exactly `{1, ..., n}` and
//!   far probes are available (Theorem 2.12 shows they do not help below
//!   `o(√log n)`; the adapter here makes that concrete); run it with
//!   [`simulate_lca_with`].
//!
//! # Examples
//!
//! A 1-probe algorithm that reports whether the queried node's identifier
//! is larger than its first neighbor's:
//!
//! ```
//! use lcl::OutLabel;
//! use lcl_faults::RunOptions;
//! use lcl_local::IdAssignment;
//! use lcl_volume::{simulate_with, FnVolumeAlgorithm};
//! use lcl_graph::gen;
//!
//! let g = gen::cycle(5);
//! let alg = FnVolumeAlgorithm::new("bigger", |_n| 1, |session| {
//!     let me = session.queried().id;
//!     let neighbor = session.probe(0, 0)?.id;
//!     Ok(vec![OutLabel(u32::from(me > neighbor)); session.queried().degree as usize])
//! });
//! let input = lcl::uniform_input(&g);
//! let ids = IdAssignment::sequential(5);
//! let report = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new())?;
//! assert_eq!(report.outcome.outcome.max_probes, 1);
//! # Ok::<(), lcl_volume::ProbeError>(())
//! ```
//!
//! An out-of-contract probe — over budget, undiscovered target,
//! nonexistent port — surfaces as a typed [`ProbeError`] instead of a
//! panic, so a buggy algorithm yields a reportable failure.

pub mod algorithm;
pub mod lca;
pub mod order_invariant;
pub mod run;

pub use algorithm::{FnVolumeAlgorithm, NodeInfo, ProbeError, ProbeSession, VolumeAlgorithm};
pub use lca::{simulate_lca_with, LcaAlgorithm, LcaSession};
pub use order_invariant::{is_empirically_order_invariant_volume, RankedInfo, RankedSession};
pub use run::{minimal_probe_budget, simulate_with, VolumeRun};
