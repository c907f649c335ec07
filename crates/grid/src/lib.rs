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
//! * [`ProdLocalAlgorithm`] + [`run_prod_local`] — the PROD-LOCAL
//!   executor over box-shaped views.
//! * [`OrderInvariantProdAlgorithm`] — the order-invariant variant used by
//!   Propositions 5.4/5.5.
//!
//! # Examples
//!
//! ```
//! use lcl_grid::OrientedGrid;
//!
//! let grid = OrientedGrid::new(&[4, 5]);
//! assert_eq!(grid.node_count(), 20);
//! assert_eq!(grid.dimension_count(), 2);
//! let v = grid.node_at(&[2, 3]);
//! assert_eq!(grid.coords(v), vec![2, 3]);
//! ```

pub mod grid;
pub mod ids;
pub mod run;
pub mod view;

pub use grid::OrientedGrid;
pub use ids::ProdIds;
pub use run::{
    is_empirically_order_invariant_prod, run_order_invariant_prod, run_prod_local, simulate_with,
    FnProdAlgorithm, OrderInvariantProdAlgorithm, ProdLocalAlgorithm, ProdRun,
};
pub use view::{GridView, RankGridView};
