//! The algorithm × graph-family × verifier matrix: every landmark
//! algorithm of the suite, run and verified across the graph classes of
//! the paper.

use lcl_landscape::faults::RunOptions;
use lcl_landscape::graph::{gen, Graph};
use lcl_landscape::lcl::{uniform_input, verify};
use lcl_landscape::local::{simulate_sync_with, simulate_with, IdAssignment};
use lcl_landscape::problems::cv::{orientation_inputs, ColeVishkin, Orientation};
use lcl_landscape::problems::{
    k_coloring, maximal_matching_problem, mis_problem, rake_compress_rounds, two_coloring,
    DeltaPlusOne, MatchingByColor, MisByColor, TwoColorByAnchor,
};

fn tree_family(seed: u64) -> Vec<(String, Graph)> {
    vec![
        ("path-25".into(), gen::path(25)),
        ("cycle-18".into(), gen::cycle(18)),
        ("star-3".into(), gen::star(3)),
        ("caterpillar".into(), gen::caterpillar(7, 1)),
        ("spider".into(), gen::spider(3, 5)),
        ("random-tree".into(), gen::random_tree(50, 3, seed)),
        ("random-forest".into(), gen::random_forest(45, 3, 3, seed)),
        ("complete-tree".into(), gen::complete_tree(2, 4)),
    ]
}

#[test]
fn delta_plus_one_coloring_matrix() {
    for seed in 0..2 {
        for (name, g) in tree_family(seed) {
            let delta = g.max_degree().max(2);
            let problem = k_coloring(usize::from(delta) + 1, delta);
            let input = uniform_input(&g);
            let ids = IdAssignment::random_polynomial(g.node_count(), 3, seed + 11);
            let run = simulate_sync_with(
                &DeltaPlusOne { delta },
                &g,
                &input,
                &ids.iter().collect::<Vec<_>>(),
                None,
                100_000,
                RunOptions::new(),
            )
            .outcome;
            assert!(run.faults.is_empty(), "(Δ+1)-coloring halts");
            let run = run.outcome;
            let violations = verify(&problem, &g, &input, &run.output);
            assert!(violations.is_empty(), "{name}: {violations:?}");
        }
    }
}

#[test]
fn mis_matrix() {
    for seed in 0..2 {
        for (name, g) in tree_family(seed) {
            let delta = g.max_degree().max(2);
            let problem = mis_problem(delta);
            let input = uniform_input(&g);
            let ids = IdAssignment::random_polynomial(g.node_count(), 3, seed + 23);
            let run = simulate_sync_with(
                &MisByColor { delta },
                &g,
                &input,
                &ids.iter().collect::<Vec<_>>(),
                None,
                100_000,
                RunOptions::new(),
            )
            .outcome;
            assert!(run.faults.is_empty(), "MIS by color halts");
            let run = run.outcome;
            let violations = verify(&problem, &g, &input, &run.output);
            assert!(violations.is_empty(), "{name}: {violations:?}");
        }
    }
}

#[test]
fn matching_matrix() {
    for seed in 0..2 {
        for (name, g) in tree_family(seed) {
            let delta = g.max_degree().max(2);
            let problem = maximal_matching_problem(delta);
            let input = uniform_input(&g);
            let ids = IdAssignment::random_polynomial(g.node_count(), 3, seed + 37);
            let run = simulate_sync_with(
                &MatchingByColor { delta },
                &g,
                &input,
                &ids.iter().collect::<Vec<_>>(),
                None,
                100_000,
                RunOptions::new(),
            )
            .outcome;
            assert!(run.faults.is_empty(), "matching by color halts");
            let run = run.outcome;
            let violations = verify(&problem, &g, &input, &run.output);
            assert!(violations.is_empty(), "{name}: {violations:?}");
        }
    }
}

#[test]
fn cole_vishkin_round_counts_are_log_star() {
    // The measured rounds across three orders of magnitude stay within a
    // small additive band — the log* signature.
    let mut counts = Vec::new();
    for n in [64usize, 1024, 1 << 14] {
        let g = gen::cycle(n);
        let input = orientation_inputs(&g, Orientation::Cycle);
        let ids = IdAssignment::random_polynomial(n, 3, n as u64);
        let run = simulate_sync_with(
            &ColeVishkin,
            &g,
            &input,
            &ids.iter().collect::<Vec<_>>(),
            None,
            100,
            RunOptions::new(),
        )
        .outcome;
        assert!(run.faults.is_empty(), "Cole–Vishkin halts");
        let run = run.outcome;
        counts.push(run.rounds);
    }
    assert!(counts[2] >= counts[0]);
    assert!(counts[2] - counts[0] <= 3, "{counts:?}");
}

#[test]
fn rake_compress_is_logarithmic_two_coloring_is_linear() {
    // The two growth regimes that separate classes C/D from E in the
    // measured landscape.
    let rc_small = rake_compress_rounds(&gen::path(64), 5);
    let rc_large = rake_compress_rounds(&gen::path(4096), 5);
    assert!(rc_large > rc_small);
    assert!(
        rc_large < 16 * rc_small,
        "rake-compress should grow slowly: {rc_small} -> {rc_large}"
    );

    let problem = two_coloring(2);
    let mut radii = Vec::new();
    for n in [16usize, 64] {
        let g = gen::path(n);
        let input = uniform_input(&g);
        let ids = IdAssignment::sequential(n);
        let r = lcl_landscape::local::minimal_solving_radius(
            &problem,
            &g,
            &input,
            &ids,
            n as u32,
            |r| TwoColorByAnchor { radius: r },
        )
        .unwrap();
        radii.push(r);
    }
    assert!(radii[1] >= 3 * radii[0], "{radii:?}");
}

#[test]
fn gather_two_coloring_on_bipartite_torus() {
    let g = gen::torus(&[4, 4]);
    let problem = two_coloring(4);
    let input = uniform_input(&g);
    let ids = IdAssignment::random_polynomial(16, 3, 3);
    let alg = TwoColorByAnchor { radius: 8 };
    let run = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new())
        .outcome
        .outcome;
    assert!(verify(&problem, &g, &input, &run.output).is_empty());
}
