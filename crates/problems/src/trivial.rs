//! The `O(1)` end of the landscape: problems solvable without looking far
//! at all, plus the paper's own example "find the maximum degree in your
//! 2-hop neighborhood".

use lcl::{LclProblem, OutLabel};
use lcl_local::{LocalAlgorithm, View};

/// The free problem: every labeling over `k` labels is correct. 0-round
/// solvable by construction; the degenerate baseline of class A.
pub fn free_problem(k: usize, delta: u8) -> LclProblem {
    assert!((1..=26).contains(&k));
    let names: Vec<String> = (0..k)
        .map(|i| char::from(b'A' + i as u8).to_string())
        .collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let starred: Vec<String> = names.iter().map(|n| format!("{n}*")).collect();
    let starred_refs: Vec<&str> = starred.iter().map(String::as_str).collect();
    let mut builder = LclProblem::builder(&format!("free-{k}"), delta)
        .outputs(refs.clone())
        .node_pattern(&starred_refs);
    for i in 0..k {
        for j in i..k {
            builder = builder.edge(&[refs[i], refs[j]]);
        }
    }
    builder.build().expect("free problem is well-formed")
}

/// "Is my degree the maximum within 2 hops?" — the paper's introduction
/// example of a constant-time problem. Output 1 iff yes; any labeling that
/// reports the correct Boolean is accepted, so this is naturally checked
/// against [`max_degree_2hop_reference`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MaxDegree2Hop;

impl LocalAlgorithm for MaxDegree2Hop {
    fn radius(&self, _n: usize) -> u32 {
        2
    }

    fn label(&self, view: &View<'_>) -> Vec<OutLabel> {
        let mine = view.center_degree();
        let max = view
            .ball
            .nodes
            .iter()
            .map(|b| b.ports.len())
            .max()
            .unwrap_or(0);
        vec![OutLabel(u32::from(mine == max)); mine]
    }

    fn name(&self) -> &str {
        "max-degree-2hop"
    }
}

/// Reference answer for [`MaxDegree2Hop`], computed centrally.
pub fn max_degree_2hop_reference(graph: &lcl_graph::Graph) -> Vec<bool> {
    graph
        .nodes()
        .map(|v| {
            let dist = graph.bfs_distances(v, 2);
            let max = graph
                .nodes()
                .filter(|u| dist[u.index()] != u32::MAX)
                .map(|u| graph.degree(u))
                .max()
                .unwrap_or(0);
            graph.degree(v) == max
        })
        .collect()
}

/// A 0-round constant-label algorithm (solves [`free_problem`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConstantZero;

impl LocalAlgorithm for ConstantZero {
    fn radius(&self, _n: usize) -> u32 {
        0
    }

    fn label(&self, view: &View<'_>) -> Vec<OutLabel> {
        vec![OutLabel(0); view.center_degree()]
    }

    fn name(&self) -> &str {
        "constant-zero"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_faults::RunOptions;
    use lcl_graph::gen;
    use lcl_local::{simulate_with, IdAssignment};

    #[test]
    fn free_problem_accepts_anything() {
        let p = free_problem(2, 3);
        let g = gen::random_tree(12, 3, 1);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(12);
        let run = simulate_with(&ConstantZero, &g, &input, &ids, None, RunOptions::new())
            .outcome
            .outcome;
        assert!(lcl::verify(&p, &g, &input, &run.output).is_empty());
    }

    #[test]
    fn max_degree_2hop_matches_reference() {
        let g = gen::caterpillar(5, 2);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(g.node_count());
        let run = simulate_with(&MaxDegree2Hop, &g, &input, &ids, None, RunOptions::new())
            .outcome
            .outcome;
        let reference = max_degree_2hop_reference(&g);
        for v in g.nodes() {
            if g.degree(v) == 0 {
                continue;
            }
            let h = g.half_edge(v, 0);
            assert_eq!(
                run.output.get(h),
                OutLabel(u32::from(reference[v.index()])),
                "{v:?}"
            );
        }
    }

    #[test]
    fn max_degree_2hop_is_constant_radius() {
        assert_eq!(MaxDegree2Hop.radius(10), 2);
        assert_eq!(MaxDegree2Hop.radius(1 << 30), 2);
    }
}
