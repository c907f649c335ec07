//! Order-invariant LOCAL algorithms (Definition 2.7 of the paper).
//!
//! An order-invariant algorithm's output may depend on identifiers only
//! through their *relative order*. These algorithms are the pivot of every
//! speed-up argument in the paper: the Ramsey-theoretic step turns an
//! `o(log* n)` algorithm into an order-invariant one, and Theorem 2.11
//! turns an order-invariant `o(log n)`-round algorithm into an `O(1)`-round
//! one.

use lcl::{HalfEdgeLabeling, InLabel, OutLabel};
use lcl_faults::RunOptions;
use lcl_graph::{Ball, Graph};

use crate::algorithm::LocalAlgorithm;
use crate::ids::IdAssignment;
use crate::run::{simulate_with, LocalRun};
use crate::view::View;

/// The view an order-invariant algorithm sees: identifiers are replaced by
/// their ranks within the view.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RankView<'a> {
    /// The topology of the view.
    pub ball: &'a Ball,
    /// Announced number of nodes.
    pub n: usize,
    /// Rank of each ball node's identifier among the ids in the view
    /// (0 = smallest).
    pub ranks: Vec<u32>,
    /// Input labels per visible half-edge, flat (node-major, port-minor).
    pub inputs: Vec<InLabel>,
}

impl RankView<'_> {
    /// The flat half-edge index of port `port` of ball node `node`.
    pub fn half_edge_index(&self, node: usize, port: u8) -> usize {
        let mut idx = 0usize;
        for b in &self.ball.nodes[..node] {
            idx += b.ports.len();
        }
        idx + port as usize
    }

    /// The center's degree.
    pub fn center_degree(&self) -> usize {
        self.ball.center().ports.len()
    }
}

/// An order-invariant LOCAL algorithm (Definition 2.7): a function of the
/// rank view only.
pub trait OrderInvariantAlgorithm {
    /// The radius `T(n)`.
    fn radius(&self, n: usize) -> u32;

    /// Computes the outputs for the center's ports.
    fn label(&self, view: &RankView<'_>) -> Vec<OutLabel>;

    /// A short name for diagnostics.
    fn name(&self) -> &str {
        "anonymous"
    }
}

/// Runs an order-invariant algorithm under a concrete identifier
/// assignment (whose values, by definition, only matter through their
/// order).
pub fn run_order_invariant(
    alg: &(impl OrderInvariantAlgorithm + ?Sized),
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &IdAssignment,
    n_announced: Option<usize>,
) -> LocalRun {
    struct Adapter<'a, A: ?Sized>(&'a A);
    impl<A: OrderInvariantAlgorithm + ?Sized> LocalAlgorithm for Adapter<'_, A> {
        fn radius(&self, n: usize) -> u32 {
            self.0.radius(n)
        }
        fn label(&self, view: &View<'_>) -> Vec<OutLabel> {
            let ranks = local_ranks(&view.ids);
            self.0.label(&RankView {
                ball: view.ball,
                n: view.n,
                ranks,
                inputs: view.inputs.clone(),
            })
        }
        fn name(&self) -> &str {
            self.0.name()
        }
    }
    simulate_with(
        &Adapter(alg),
        graph,
        input,
        ids,
        n_announced,
        RunOptions::new(),
    )
    .outcome
    .outcome
}

/// Ranks of values within a slice (0 = smallest).
pub(crate) fn local_ranks(ids: &[u64]) -> Vec<u32> {
    let mut order: Vec<usize> = (0..ids.len()).collect();
    order.sort_by_key(|&i| ids[i]);
    let mut ranks = vec![0u32; ids.len()];
    for (rank, &i) in order.iter().enumerate() {
        ranks[i] = rank as u32;
    }
    ranks
}

/// Empirically checks whether `alg` behaves order-invariantly on `graph`:
/// the outputs must agree across `samples` order-preserving resamplings of
/// the identifier assignment.
///
/// A `true` answer is evidence, not proof (the Ramsey argument of the
/// paper is about *all* assignments); a `false` answer is a definite
/// counterexample.
pub fn is_empirically_order_invariant(
    alg: &(impl LocalAlgorithm + ?Sized),
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    base_ids: &IdAssignment,
    samples: usize,
    seed: u64,
) -> bool {
    let baseline = simulate_with(alg, graph, input, base_ids, None, RunOptions::new())
        .outcome
        .outcome;
    for s in 0..samples {
        let fresh = base_ids.resample_order_preserving(3, seed.wrapping_add(s as u64));
        let run = simulate_with(alg, graph, input, &fresh, None, RunOptions::new())
            .outcome
            .outcome;
        if run.output != baseline.output {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::FnAlgorithm;
    use lcl_graph::gen;

    struct LocalMin;
    impl OrderInvariantAlgorithm for LocalMin {
        fn radius(&self, _n: usize) -> u32 {
            1
        }
        fn label(&self, view: &RankView<'_>) -> Vec<OutLabel> {
            // 1 iff the center has the smallest id in its view.
            vec![OutLabel(u32::from(view.ranks[0] == 0)); view.center_degree()]
        }
        fn name(&self) -> &str {
            "local-min"
        }
    }

    #[test]
    fn order_invariant_algorithm_ignores_id_values() {
        let g = gen::path(5);
        let input = lcl::uniform_input(&g);
        let a = IdAssignment::from_vec(vec![10, 20, 5, 40, 30]);
        let b = IdAssignment::from_vec(vec![100, 250, 7, 999, 500]);
        let run_a = run_order_invariant(&LocalMin, &g, &input, &a, None);
        let run_b = run_order_invariant(&LocalMin, &g, &input, &b, None);
        assert_eq!(run_a.output, run_b.output);
    }

    #[test]
    fn checker_accepts_order_invariant_algorithm() {
        let g = gen::cycle(6);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::random_polynomial(6, 3, 5);
        // Wrap LocalMin as a plain LocalAlgorithm using actual ids.
        let alg = FnAlgorithm::new(
            "local-min-ids",
            |_| 1,
            |view| {
                let me = view.ids[0];
                let min = view.ids.iter().copied().min().unwrap();
                vec![OutLabel(u32::from(me == min)); view.center_degree()]
            },
        );
        assert!(is_empirically_order_invariant(
            &alg, &g, &input, &ids, 8, 99
        ));
    }

    #[test]
    fn checker_rejects_value_dependent_algorithm() {
        let g = gen::cycle(6);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::random_polynomial(6, 3, 5);
        // Output the parity of the raw identifier: order-preserving
        // resampling changes it.
        let alg = FnAlgorithm::new(
            "id-parity",
            |_| 0,
            |view| vec![OutLabel((view.ids[0] % 2) as u32); view.center_degree()],
        );
        assert!(!is_empirically_order_invariant(
            &alg, &g, &input, &ids, 16, 99
        ));
    }

    #[test]
    fn local_ranks_are_a_permutation() {
        let ranks = local_ranks(&[50, 10, 30]);
        assert_eq!(ranks, vec![2, 0, 1]);
    }
}
