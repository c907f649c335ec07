//! Propositions 5.3–5.5 and Theorem 5.1: the speedup pipeline on oriented
//! grids, executable.
//!
//! * **Proposition 5.3** — a LOCAL algorithm follows from a PROD-LOCAL
//!   one by packing the `d` per-dimension identifiers into one (provided
//!   by `ProdIds::pack` in `lcl-grid`).
//! * **Proposition 5.4** — the Ramsey step turns an `o(log* n)`-round
//!   PROD-LOCAL algorithm into an order-invariant one (empirically
//!   certified here via order-preserving resampling).
//! * **Proposition 5.5** — an order-invariant PROD-LOCAL algorithm is
//!   "fooled" at a fixed `n₀` *and* fed the canonical identifier order
//!   that the grid's orientation provides for free: identifiers ordered
//!   by `(dimension, position along the dimension)`. The result,
//!   [`OrientationCanonical`], is an identifier-free constant-radius
//!   LOCAL algorithm — Theorem 5.1's conclusion.

use lcl::OutLabel;
use lcl_grid::{GridView, OrderInvariantProdAlgorithm, ProdLocalAlgorithm, RankGridView};

/// The canonical rank view Proposition 5.5 derives from the orientation:
/// within the window, slice identifiers are ordered by dimension first and
/// by position along the (oriented) dimension second — no actual
/// identifiers involved.
pub fn orientation_canonical_ranks(d: usize, radius: u32, n: usize) -> RankGridView {
    let side = 2 * radius as usize + 1;
    let ranks = (0..d)
        .map(|k| (0..side).map(|t| (k * side + t) as u32).collect())
        .collect();
    RankGridView {
        d,
        radius,
        n,
        ranks,
        inputs: Vec::new(), // filled by the caller per view
    }
}

/// The Proposition 5.5 pipeline object: an order-invariant PROD-LOCAL
/// algorithm, fooled at `n₀` and driven by the orientation-canonical
/// ranks. Implements the plain [`ProdLocalAlgorithm`] interface but
/// ignores the supplied identifiers entirely — it is an identifier-free
/// LOCAL algorithm on the oriented grid.
#[derive(Clone, Debug)]
pub struct OrientationCanonical<A> {
    inner: A,
    n0: usize,
}

impl<A> OrientationCanonical<A> {
    /// Wraps `inner` with fooling constant `n0`.
    pub fn new(inner: A, n0: usize) -> Self {
        Self { inner, n0 }
    }

    /// The fooling constant.
    pub fn n0(&self) -> usize {
        self.n0
    }
}

impl<A: OrderInvariantProdAlgorithm> ProdLocalAlgorithm for OrientationCanonical<A> {
    fn radius(&self, n: usize) -> u32 {
        self.inner.radius(n.min(self.n0))
    }

    fn label(&self, view: &GridView) -> Vec<OutLabel> {
        let fooled_n = view.n.min(self.n0);
        let mut ranks = orientation_canonical_ranks(view.d, view.radius, fooled_n);
        ranks.inputs = view.inputs.clone();
        self.inner.label(&ranks)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_faults::RunOptions;
    use lcl_grid::{simulate_with, OrientedGrid, ProdIds};

    /// Output, on every port, whether the center's dim-0 slice has the
    /// smallest visible rank in dimension 0 — under the canonical order
    /// this is "am I the upstream end of my visible window", a fixed
    /// pattern.
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

    #[test]
    fn canonical_ranks_are_ordered_by_dimension_then_position() {
        let r = orientation_canonical_ranks(2, 1, 100);
        assert_eq!(r.rank(0, -1), 0);
        assert_eq!(r.rank(0, 0), 1);
        assert_eq!(r.rank(0, 1), 2);
        assert_eq!(r.rank(1, -1), 3);
        assert_eq!(r.rank(1, 1), 5);
    }

    #[test]
    fn orientation_canonical_ignores_identifiers() {
        let grid = OrientedGrid::new(&[5, 4]);
        let input = lcl::uniform_input(grid.graph());
        let alg = OrientationCanonical::new(UpstreamEnd, 16);
        let ids_a = ProdIds::random_polynomial(&grid, 3, 1);
        let ids_b = ProdIds::random_polynomial(&grid, 3, 2);
        let run_a = simulate_with(&alg, &grid, &input, &ids_a, None, RunOptions::new())
            .outcome
            .outcome;
        let run_b = simulate_with(&alg, &grid, &input, &ids_b, None, RunOptions::new())
            .outcome
            .outcome;
        assert_eq!(run_a.output, run_b.output);
    }

    #[test]
    fn fooling_caps_the_radius() {
        #[derive(Clone, Debug)]
        struct GrowingRadius;
        impl OrderInvariantProdAlgorithm for GrowingRadius {
            fn radius(&self, n: usize) -> u32 {
                (n as f64).log2() as u32
            }
            fn label(&self, view: &RankGridView) -> Vec<OutLabel> {
                vec![OutLabel(0); 2 * view.d]
            }
        }
        let alg = OrientationCanonical::new(GrowingRadius, 16);
        // Radius is log2(min(n, 16)) = 4 for every n ≥ 16.
        assert_eq!(alg.radius(16), 4);
        assert_eq!(alg.radius(1 << 20), 4);
    }

    #[test]
    fn canonical_output_is_translation_invariant() {
        // With canonical ranks, the rank pattern is the same at every
        // node, so outputs must be uniform across the grid.
        let grid = OrientedGrid::new(&[4, 4]);
        let input = lcl::uniform_input(grid.graph());
        let alg = OrientationCanonical::new(UpstreamEnd, 8);
        let ids = ProdIds::sequential(&grid);
        let run = simulate_with(&alg, &grid, &input, &ids, None, RunOptions::new())
            .outcome
            .outcome;
        let first = run.output.get(lcl_graph::HalfEdgeId(0));
        assert!(run.output.as_slice().iter().all(|&l| l == first));
    }
}
