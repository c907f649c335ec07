//! Oriented `d`-dimensional grids and the PROD-LOCAL model (Section 5 of
//! the paper).
//!
//! An *oriented grid* is a toroidal grid whose edges are consistently
//! oriented and labeled with the dimension they belong to. On such grids
//! the paper proves the third gap theorem (Theorem 5.1): no LCL has local
//! complexity between `ω(1)` and `o(log* n)`.
//!
//! The proof pipeline works in the **PROD-LOCAL** model (Definition 5.2),
//! where every node holds `d` identifiers — one per dimension, equal
//! exactly for nodes sharing that coordinate. This crate provides:
//!
//! * [`OrientedGrid`] — the graph substrate with the canonical port
//!   convention (port `2k` = `+k` direction, port `2k+1` = `-k`).
//! * [`ProdIds`] — per-dimension identifier assignments.
//! * [`ProdLocalAlgorithm`] + [`simulate_with`] — the PROD-LOCAL
//!   executor over box-shaped views, under
//!   [`RunOptions`](lcl_faults::RunOptions).
//! * [`OrderInvariantProdAlgorithm`] — the order-invariant variant used by
//!   Propositions 5.4/5.5.
//!
//! # Examples
//!
//! ```
//! use lcl::OutLabel;
//! use lcl_faults::RunOptions;
//! use lcl_grid::{simulate_with, FnProdAlgorithm, OrientedGrid, ProdIds};
//!
//! let grid = OrientedGrid::new(&[4, 5]);
//! assert_eq!(grid.node_count(), 20);
//! assert_eq!(grid.dimension_count(), 2);
//! let v = grid.node_at(&[2, 3]);
//! assert_eq!(grid.coords(v), vec![2, 3]);
//!
//! // A radius-1 PROD-LOCAL algorithm labeling all 2d ports 0.
//! let alg = FnProdAlgorithm::new("zero", |_n| 1, |_view| vec![OutLabel(0); 4]);
//! let input = lcl::uniform_input(grid.graph());
//! let ids = ProdIds::sequential(&grid);
//! let report = simulate_with(&alg, &grid, &input, &ids, None, RunOptions::new());
//! assert_eq!(report.outcome.outcome.radius, 1);
//! assert!(report.trace.fingerprint().starts_with("prod-local/"));
//! ```

pub mod grid;
pub mod ids;
pub mod run;
pub mod view;

pub use grid::OrientedGrid;
pub use ids::ProdIds;
pub use run::{
    is_empirically_order_invariant_prod, run_order_invariant_prod, simulate_with, FnProdAlgorithm,
    OrderInvariantProdAlgorithm, ProdLocalAlgorithm, ProdRun,
};
pub use view::{GridView, RankGridView};
