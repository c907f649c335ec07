//! `(2Δ - 1)`-edge-coloring in `O(log* n)` rounds, by running the
//! `(Δ+1)`-vertex-coloring algorithm on the line graph.
//!
//! `L(G)` has maximum degree `2(Δ-1)`, so [`DeltaPlusOne`] on `L(G)`
//! yields `2Δ - 1` colors with adjacent edges (sharing an endpoint)
//! colored differently. Each simulated `L(G)` round costs `O(1)` real
//! rounds (edges are simulated by their endpoints), so the asymptotic
//! complexity is unchanged; the executor here performs the simulation
//! offline, which is the standard bookkeeping-only reduction.

use lcl::{HalfEdgeLabeling, LclProblem, OutLabel};
use lcl_graph::line::line_graph;
use lcl_graph::Graph;
use lcl_local::{simulate_sync_with, IdAssignment};

use crate::coloring::DeltaPlusOne;

/// Proper `k`-edge-coloring as a half-edge LCL: both half-edges of an edge
/// carry the edge's color, and a node's incident edges have pairwise
/// distinct colors.
///
/// # Panics
///
/// Panics if `k == 0` or `k > 26`.
pub fn edge_coloring_problem(k: usize, delta: u8) -> LclProblem {
    assert!((1..=26).contains(&k));
    let names: Vec<String> = (0..k)
        .map(|i| char::from(b'A' + i as u8).to_string())
        .collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut builder =
        LclProblem::builder(&format!("{k}-edge-coloring"), delta).outputs(refs.clone());
    // Node configurations: all subsets of distinct colors, sizes 1..=Δ.
    let mut subset = vec![0usize; 0];
    loop {
        // Enumerate strictly increasing index sequences (distinct colors).
        if !subset.is_empty() && subset.len() <= usize::from(delta) {
            let atoms: Vec<&str> = subset.iter().map(|&i| refs[i]).collect();
            builder = builder.node(&atoms);
        }
        // Next subset in colex order.
        if subset.len() < usize::from(delta).min(k) {
            let next = subset.last().map_or(0, |&l| l + 1);
            if next < k {
                subset.push(next);
                continue;
            }
        }
        loop {
            match subset.pop() {
                None => break,
                Some(last) if last + 1 < k => {
                    subset.push(last + 1);
                    break;
                }
                Some(_) => continue,
            }
        }
        if subset.is_empty() {
            break;
        }
    }
    for r in &refs {
        builder = builder.edge(&[r, r]);
    }
    builder.build().expect("edge coloring is well-formed")
}

/// Computes a `(2Δ-1)`-edge-coloring by simulating [`DeltaPlusOne`] on
/// the line graph; returns the half-edge labeling (both halves of an edge
/// share its color) and the number of simulated rounds.
pub fn color_edges(graph: &Graph, ids: &IdAssignment) -> (HalfEdgeLabeling<OutLabel>, u32) {
    let (l, _) = line_graph(graph);
    // L(G) identifiers: the edge ids (unique by construction).
    let l_ids: Vec<u64> = (0..l.node_count() as u64)
        .map(|e| {
            // Derive a deterministic id from the endpoints' ids so the
            // simulation honors the distributed information flow.
            let [a, b] = graph.endpoints(lcl_graph::EdgeId(e as u32));
            ids.id(a).min(ids.id(b)) * graph.node_count() as u64
                + ids.id(a).max(ids.id(b)) % graph.node_count() as u64
        })
        .collect();
    // Ensure uniqueness: fall back to edge index ordering on collision.
    let l_ids = disambiguate(l_ids);
    let delta_l = l.max_degree().max(1);
    let alg = DeltaPlusOne { delta: delta_l };
    let input = lcl::uniform_input(&l);
    let run = simulate_sync_with(
        &alg,
        &l,
        &input,
        &l_ids,
        None,
        10_000_000,
        Default::default(), // no plan, budget or log
    )
    .outcome;
    assert!(run.faults.is_empty(), "why: coloring L(G) halts");
    let run = run.outcome;
    let labeling = HalfEdgeLabeling::from_fn(graph, |h| {
        let e = graph.edge_of(h);
        let l_node = lcl_graph::NodeId(e.0);
        if l.degree(l_node) > 0 {
            run.output.get(l.half_edge(l_node, 0))
        } else {
            // An isolated edge: any color works.
            OutLabel(0)
        }
    });
    (labeling, run.rounds)
}

fn disambiguate(ids: Vec<u64>) -> Vec<u64> {
    let mut order: Vec<usize> = (0..ids.len()).collect();
    order.sort_by_key(|&i| (ids[i], i));
    let mut out = vec![0u64; ids.len()];
    for (rank, &i) in order.iter().enumerate() {
        out[i] = rank as u64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl::Problem as _;
    use lcl_graph::gen;

    #[test]
    fn edge_coloring_problem_constraints() {
        let p = edge_coloring_problem(3, 3);
        let (a, b, c) = (OutLabel(0), OutLabel(1), OutLabel(2));
        assert!(p.node_allows(&[a, b, c]));
        assert!(p.node_allows(&[a, c]));
        assert!(!p.node_allows(&[a, a]));
        assert!(p.edge_allows(a, a));
        assert!(!p.edge_allows(a, b));
    }

    #[test]
    fn colors_tree_edges() {
        for seed in 0..3 {
            let g = gen::random_tree(40, 3, seed);
            let k = 2 * usize::from(g.max_degree()) - 1;
            let problem = edge_coloring_problem(k.max(1), g.max_degree());
            let ids = IdAssignment::random_polynomial(g.node_count(), 3, seed);
            let (labeling, _rounds) = color_edges(&g, &ids);
            let input = lcl::uniform_input(&g);
            let violations = lcl::verify(&problem, &g, &input, &labeling);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }

    #[test]
    fn colors_cycles_and_stars() {
        for g in [gen::cycle(12), gen::star(3), gen::caterpillar(5, 1)] {
            let k = (2 * usize::from(g.max_degree())).saturating_sub(1).max(1);
            let problem = edge_coloring_problem(k, g.max_degree());
            let ids = IdAssignment::sequential(g.node_count());
            let (labeling, _) = color_edges(&g, &ids);
            let input = lcl::uniform_input(&g);
            assert!(lcl::verify(&problem, &g, &input, &labeling).is_empty());
        }
    }

    #[test]
    fn rounds_are_log_star_scale() {
        let g = gen::random_tree(200, 3, 9);
        let ids = IdAssignment::random_polynomial(200, 3, 9);
        let (_, rounds) = color_edges(&g, &ids);
        // Δ_L = 4 ⇒ 6^4 sweeps dominate; still n-independent.
        assert!(rounds <= 1400, "rounds = {rounds}");
    }
}
