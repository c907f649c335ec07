//! Global problems: 2-coloring of paths/trees, solved by gathering —
//! complexity `Θ(n)` on paths and `Θ(diameter)` in general (class 5 of
//! the tree landscape; the `Θ(n^{1/k})` family of Chang–Pettie sits on
//! the same "must see far" mechanism).
//!
//! The algorithm is the information-theoretically honest one: a node
//! outputs the parity of its distance to a canonical anchor (the
//! minimum-identifier node of its component), which it can determine only
//! once its view covers the whole component. Used with
//! [`minimal_solving_radius`](lcl_local::minimal_solving_radius), it
//! *measures* the `Θ(n)` lower-bound behavior.

use lcl::OutLabel;
use lcl_graph::PortView;
use lcl_local::{LocalAlgorithm, View};

/// Gather-based 2-coloring: correct exactly when the radius covers each
/// node's component.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TwoColorByAnchor {
    /// The gathering radius to use.
    pub radius: u32,
}

impl LocalAlgorithm for TwoColorByAnchor {
    fn radius(&self, _n: usize) -> u32 {
        self.radius
    }

    fn label(&self, view: &View<'_>) -> Vec<OutLabel> {
        let degree = view.center_degree();
        // The component is fully visible iff no port of any visible node
        // leads outside the view.
        let complete = view.ball.nodes.iter().all(|node| {
            node.ports
                .iter()
                .all(|p| matches!(p, PortView::Inside { .. }))
        });
        if !complete {
            return vec![OutLabel(0); degree]; // insufficient radius
        }
        // Anchor: the minimum-id node; color = parity of distance to it.
        let anchor = (0..view.ball.node_count())
            .min_by_key(|&i| view.ids[i])
            .expect("views are nonempty");
        let (subgraph, _) = view.ball.visible_subgraph();
        let dist = subgraph.bfs_distances(lcl_graph::NodeId(anchor as u32), u32::MAX);
        let mine = dist[0];
        assert_ne!(mine, u32::MAX, "complete views are connected");
        vec![OutLabel(mine % 2); degree]
    }

    fn name(&self) -> &str {
        "2color-by-anchor"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::two_coloring;
    use lcl_faults::RunOptions;
    use lcl_graph::gen;
    use lcl_local::{minimal_solving_radius, simulate_with, IdAssignment};

    #[test]
    fn full_radius_two_colors_paths_and_trees() {
        for g in [gen::path(9), gen::random_tree(20, 3, 4), gen::star(3)] {
            let problem = two_coloring(g.max_degree());
            let input = lcl::uniform_input(&g);
            let ids = IdAssignment::random_polynomial(g.node_count(), 3, 8);
            let alg = TwoColorByAnchor {
                radius: g.node_count() as u32,
            };
            let run = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new())
                .outcome
                .outcome;
            let violations = lcl::verify(&problem, &g, &input, &run.output);
            assert!(violations.is_empty(), "{violations:?}");
        }
    }

    #[test]
    fn required_radius_grows_linearly_on_paths() {
        let mut radii = Vec::new();
        for n in [8usize, 16, 32] {
            let g = gen::path(n);
            let problem = two_coloring(2);
            let input = lcl::uniform_input(&g);
            let ids = IdAssignment::sequential(n);
            let t = minimal_solving_radius(&problem, &g, &input, &ids, n as u32, |r| {
                TwoColorByAnchor { radius: r }
            })
            .expect("solvable at full radius");
            radii.push(t);
        }
        // Doubling n roughly doubles the required radius (Θ(n)).
        assert!(radii[1] >= radii[0] * 2 - 2, "{radii:?}");
        assert!(radii[2] >= radii[1] * 2 - 2, "{radii:?}");
        // The endpoint nodes force radius ≈ n - 1.
        assert!(radii[2] >= 24, "{radii:?}");
    }

    #[test]
    fn incomplete_views_fail() {
        let g = gen::path(10);
        let problem = two_coloring(2);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(10);
        let alg = TwoColorByAnchor { radius: 2 };
        let run = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new())
            .outcome
            .outcome;
        assert!(!lcl::verify(&problem, &g, &input, &run.output).is_empty());
    }
}
