//! Regression: synthesized algorithms must handle forests containing
//! isolated (degree-0) nodes — they have no half-edges to label, and the
//! A_det table lookup used to panic on the empty input tuple.

#[test]
fn synthesized_algorithms_tolerate_isolated_nodes() {
    use lcl_landscape::core::{tree_speedup, SpeedupOptions};
    use lcl_landscape::faults::RunOptions;
    use lcl_landscape::local::simulate_sync_with;
    use lcl_landscape::problems::anti_matching;
    let p = anti_matching(3);
    let outcome = tree_speedup(&p, SpeedupOptions::default());
    let alg = outcome.algorithm();
    // Forest with an isolated node (node 2).
    let mut b = lcl_landscape::graph::GraphBuilder::new(3);
    b.add_edge(0, 1).unwrap();
    let g = b.build().unwrap();
    let input = lcl_landscape::lcl::uniform_input(&g);
    let run = simulate_sync_with(&alg, &g, &input, &[1, 2, 3], None, 5, RunOptions::new()).outcome;
    assert!(run.faults.is_empty(), "synthesized algorithms halt");
    let run = run.outcome;
    assert!(lcl_landscape::lcl::verify(&p, &g, &input, &run.output).is_empty());
}
