//! Measuring the locality a (family of) algorithm(s) needs.
//!
//! The landscape benches plot, for each problem, the radius/rounds a
//! concrete algorithm needs as a function of `n`. For gather-style
//! algorithms ("collect radius `T`, then decide"), the natural measure is
//! the *minimal `T` that yields a correct solution*, computed here by
//! exponential-then-binary search.

use lcl::{HalfEdgeLabeling, InLabel, Problem};
use lcl_faults::RunOptions;
use lcl_graph::Graph;

use crate::algorithm::LocalAlgorithm;
use crate::ids::IdAssignment;
use crate::run::simulate_with;

/// Finds the minimal radius `T <= max_radius` for which the algorithm
/// family solves `problem` on `graph`, or `None` if even `max_radius`
/// fails.
///
/// `make` builds the family member with a fixed radius. Solvability is
/// assumed monotone in the radius (more information cannot hurt a
/// gather-style algorithm); the search exploits this with an exponential
/// probe followed by binary search.
pub fn minimal_solving_radius<A, F>(
    problem: &(impl Problem + ?Sized),
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &IdAssignment,
    max_radius: u32,
    make: F,
) -> Option<u32>
where
    A: LocalAlgorithm,
    F: Fn(u32) -> A,
{
    let solves = |t: u32| {
        let alg = make(t);
        let run = simulate_with(&alg, graph, input, ids, None, RunOptions::new())
            .outcome
            .outcome;
        lcl::verify(problem, graph, input, &run.output).is_empty()
    };
    if solves(0) {
        return Some(0);
    }
    // Exponential probe for an upper bound.
    let mut hi = 1u32;
    while hi < max_radius && !solves(hi) {
        hi = (hi * 2).min(max_radius);
    }
    if !solves(hi) {
        return None;
    }
    // Binary search in (hi/2, hi].
    let mut lo = hi / 2; // known failing (or 0, known failing)
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if solves(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::FnAlgorithm;
    use crate::view::View;
    use lcl::{LclProblem, OutLabel};
    use lcl_graph::gen;

    /// "Certify a leaf": every node must output Yes, and the algorithm
    /// outputs Yes only when a degree-1 node is inside its view — so the
    /// minimal radius equals the maximum distance to the nearest leaf.
    fn see_a_leaf(
        radius: u32,
    ) -> FnAlgorithm<impl Fn(usize) -> u32, impl Fn(&View<'_>) -> Vec<OutLabel>> {
        FnAlgorithm::new(
            "see-a-leaf",
            move |_| radius,
            |view| {
                let sees_leaf = view.ball.nodes.iter().any(|b| b.ports.len() == 1);
                vec![OutLabel(u32::from(sees_leaf)); view.center_degree()]
            },
        )
    }

    fn all_yes_problem() -> LclProblem {
        LclProblem::builder("all-yes", 2)
            .outputs(["No", "Yes"])
            .node_pattern(&["Yes*"])
            .edge(&["Yes", "Yes"])
            .build()
            .unwrap()
    }

    #[test]
    fn leaf_certification_needs_half_path_radius() {
        for n in [4usize, 8, 16, 17] {
            let g = gen::path(n);
            let input = lcl::uniform_input(&g);
            let ids = IdAssignment::sequential(n);
            let t =
                minimal_solving_radius(&all_yes_problem(), &g, &input, &ids, n as u32, see_a_leaf)
                    .unwrap();
            // The middle node is at distance floor((n-1)/2) from the
            // nearest endpoint; that is the required radius.
            assert_eq!(t, (n as u32 - 1) / 2, "n = {n}");
        }
    }

    #[test]
    fn unsolvable_within_budget_returns_none() {
        let g = gen::path(32);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(32);
        assert_eq!(
            minimal_solving_radius(&all_yes_problem(), &g, &input, &ids, 3, see_a_leaf),
            None
        );
    }

    #[test]
    fn zero_round_solutions_are_found() {
        let p = LclProblem::builder("any", 2)
            .outputs(["A"])
            .node_pattern(&["A*"])
            .edge(&["A", "A"])
            .build()
            .unwrap();
        let g = gen::path(8);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(8);
        let t = minimal_solving_radius(&p, &g, &input, &ids, 8, |r| {
            FnAlgorithm::new(
                "const",
                move |_| r,
                |view| vec![OutLabel(0); view.center_degree()],
            )
        });
        assert_eq!(t, Some(0));
    }
}
