//! Oriented grids and the PROD-LOCAL model (Section 5): per-dimension
//! identifiers, order invariance, and the Theorem 5.1 pipeline producing
//! an identifier-free constant-round algorithm.
//!
//! ```sh
//! cargo run --example grid_landscape
//! ```

use lcl_landscape::core::speedup_grids::OrientationCanonical;
use lcl_landscape::faults::RunOptions;
use lcl_landscape::grid::{
    simulate_with, OrderInvariantProdAlgorithm, OrientedGrid, ProdIds, RankGridView,
};
use lcl_landscape::lcl::OutLabel;

/// Mark the locally-upstream end of each visible dimension-0 window.
#[derive(Clone, Debug)]
struct UpstreamEnd;

impl OrderInvariantProdAlgorithm for UpstreamEnd {
    fn radius(&self, _n: usize) -> u32 {
        1
    }

    fn label(&self, view: &RankGridView) -> Vec<OutLabel> {
        let is_min = (-1..=1).all(|o| view.rank(0, 0) <= view.rank(0, o));
        vec![OutLabel(u32::from(is_min)); 2 * view.d]
    }
}

fn main() {
    // A 2-dimensional oriented torus; ports encode the orientation
    // (port 2k = +k direction), which is exactly the structure the
    // paper's oriented-grid model assumes.
    let grid = OrientedGrid::new(&[8, 8]);
    println!(
        "oriented torus {:?}: {} nodes, degree {}",
        grid.dims(),
        grid.node_count(),
        grid.graph().max_degree()
    );

    // PROD-LOCAL identifiers: one per (dimension, coordinate slice).
    let ids = ProdIds::random_polynomial(&grid, 3, 5);
    let input = lcl_landscape::lcl::uniform_input(grid.graph());

    // Proposition 5.5: the orientation gives a canonical identifier order
    // for free, so an order-invariant algorithm runs with *no*
    // identifiers at all, fooled at a constant n₀.
    let canonical = OrientationCanonical::new(UpstreamEnd, 16);
    let run = simulate_with(&canonical, &grid, &input, &ids, None, RunOptions::new())
        .outcome
        .outcome;
    println!(
        "orientation-canonical run: radius {}, identifier-free",
        run.radius
    );

    // Every node computes the same canonical rank pattern, so the output
    // is a uniform tiling — the hallmark of a constant-round algorithm
    // on an oriented grid.
    let first = run.output.get(lcl_landscape::graph::HalfEdgeId(0));
    let uniform = run.output.as_slice().iter().all(|&l| l == first);
    println!("output is a uniform tiling: {uniform}");
    assert!(uniform);

    // Contrast: give the same algorithm real identifiers (no
    // canonicalization) and the output depends on them.
    let raw = simulate_with(
        &AsProd(UpstreamEnd),
        &grid,
        &input,
        &ids,
        None,
        RunOptions::new(),
    )
    .outcome
    .outcome;
    let raw_uniform = {
        let first = raw.output.get(lcl_landscape::graph::HalfEdgeId(0));
        raw.output.as_slice().iter().all(|&l| l == first)
    };
    println!("with real identifiers the tiling is uniform: {raw_uniform}");
}

/// Adapter running an order-invariant algorithm on real identifiers.
#[derive(Clone, Debug)]
struct AsProd(UpstreamEnd);

impl lcl_landscape::grid::ProdLocalAlgorithm for AsProd {
    fn radius(&self, n: usize) -> u32 {
        self.0.radius(n)
    }

    fn label(&self, view: &lcl_landscape::grid::GridView) -> Vec<OutLabel> {
        self.0.label(&view.to_ranks())
    }
}
