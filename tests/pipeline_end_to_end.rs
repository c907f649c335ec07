//! End-to-end tests of the Theorem 3.10/3.11 pipeline: round elimination,
//! 0-round decision, Lemma 3.9 lifting, and verification on the graph
//! classes the paper quantifies over.

use lcl_landscape::core::speedup_trees::brute_force_solvable;
use lcl_landscape::core::zero_round::{decide_zero_round, ZeroRoundOptions};
use lcl_landscape::core::{tree_speedup, ReOptions, ReTower, SpeedupOptions, SpeedupOutcome};
use lcl_landscape::faults::RunOptions;
use lcl_landscape::graph::gen;
use lcl_landscape::lcl::{uniform_input, verify, InLabel, LclProblem};
use lcl_landscape::local::simulate_sync_with;
use lcl_landscape::problems::{anti_matching, k_coloring, sinkless_orientation};

fn run_and_verify(problem: &LclProblem, outcome: &SpeedupOutcome, seeds: u64) {
    let alg = outcome.algorithm();
    for seed in 0..seeds {
        for graph in [
            gen::path(17),
            gen::random_tree(40, 3, seed),
            gen::random_forest(36, 4, 3, seed),
            gen::star(3),
            gen::caterpillar(6, 1),
        ] {
            let input = uniform_input(&graph);
            let ids: Vec<u64> = (0..graph.node_count() as u64)
                .map(|i| i * 31 + seed * 7 + 1)
                .collect();
            let run =
                simulate_sync_with(&alg, &graph, &input, &ids, None, 10, RunOptions::new()).outcome;
            assert!(run.faults.is_empty(), "synthesized algorithms halt");
            let run = run.outcome;
            let violations = verify(problem, &graph, &input, &run.output);
            assert!(
                violations.is_empty(),
                "{}: {violations:?}",
                problem.problem_name()
            );
        }
    }
}

#[test]
fn anti_matching_pipeline_end_to_end() {
    let problem = anti_matching(3);
    let outcome = tree_speedup(&problem, SpeedupOptions::default());
    assert!(outcome.is_constant());
    run_and_verify(&problem, &outcome, 3);
}

#[test]
fn input_labeled_problem_pipeline() {
    // Edge-compatibility depends on inputs: "match your input parity".
    let problem = LclProblem::builder("echo-input", 3)
        .inputs(["a", "b"])
        .outputs(["A", "B"])
        .node_pattern(&["A*", "B*"])
        .edge(&["A", "A"])
        .edge(&["A", "B"])
        .edge(&["B", "B"])
        .allow("a", &["A"])
        .allow("b", &["B"])
        .build()
        .unwrap();
    let outcome = tree_speedup(&problem, SpeedupOptions::default());
    let SpeedupOutcome::ConstantRound { steps, .. } = &outcome else {
        panic!("echo-input is 0-round solvable");
    };
    assert_eq!(*steps, 0);
    // Verify on a graph with mixed inputs.
    let alg = outcome.algorithm();
    let graph = gen::random_tree(30, 3, 5);
    let input = lcl_landscape::lcl::HalfEdgeLabeling::from_fn(&graph, |h| InLabel(h.0 % 2));
    let ids: Vec<u64> = (0..30).collect();
    let run = simulate_sync_with(&alg, &graph, &input, &ids, None, 5, RunOptions::new()).outcome;
    assert!(run.faults.is_empty(), "synthesized algorithms halt");
    let run = run.outcome;
    assert!(verify(&problem, &graph, &input, &run.output).is_empty());
}

#[test]
fn log_star_problems_never_synthesize() {
    for problem in [k_coloring(3, 3), sinkless_orientation(3)] {
        let outcome = tree_speedup(
            &problem,
            SpeedupOptions {
                max_steps: 1,
                ..SpeedupOptions::default()
            },
        );
        assert!(
            !outcome.is_constant(),
            "{} must not synthesize",
            problem.problem_name()
        );
    }
}

#[test]
fn zero_round_decision_agrees_with_brute_force_on_toy_problems() {
    // If a 0-round table exists, solutions exist on every small forest;
    // if brute force finds no solution on some forest, the decision must
    // not be Solvable.
    let problems = [
        ("free", "max-degree: 2\nnodes:\nX*\nedges:\nX X\n"),
        ("anti", "max-degree: 2\nnodes:\nX* Y*\nedges:\nX Y\n"),
        ("2col", "max-degree: 2\nnodes:\nA*\nB*\nedges:\nA B\n"),
    ];
    for (name, text) in problems {
        let p = LclProblem::parse(text).unwrap();
        let decision = decide_zero_round(&p, ZeroRoundOptions::default());
        let small = gen::path(3);
        let input = uniform_input(&small);
        let solvable_here = brute_force_solvable(&p, &small, &input);
        if decision.is_solvable() {
            assert!(solvable_here, "{name}: 0-round table implies solutions");
        }
        if !solvable_here {
            assert!(!decision.is_solvable(), "{name}");
        }
    }
}

#[test]
fn tower_respects_the_paper_sequence_structure() {
    // Levels alternate R, R̄ and the alphabets are powersets of useful
    // labels: |Σ_{k+1}| ≤ 2^{|Σ_k|} - 1.
    let mut tower = ReTower::new(k_coloring(3, 3));
    tower.push_f(ReOptions::default()).unwrap();
    assert_eq!(tower.level_count(), 3);
    let s0 = tower.alphabet_size(0);
    let s1 = tower.alphabet_size(1);
    let s2 = tower.alphabet_size(2);
    assert!(s1 < (1 << s0), "s1 = {s1}");
    assert!(s2 < (1 << s1), "s2 = {s2}");
    assert!(
        matches!(tower.layer_kind(1), lcl_landscape::core::LayerKind::R),
        "level 1 is R"
    );
    assert!(
        matches!(tower.layer_kind(2), lcl_landscape::core::LayerKind::RBar),
        "level 2 is R̄"
    );
}

#[test]
fn sinkless_orientation_alphabet_stays_bounded() {
    // The famous fixed point: iterating f must not blow up the universe.
    let mut tower = ReTower::new(sinkless_orientation(3));
    tower.push_f(ReOptions::default()).unwrap();
    let first = tower.alphabet_size(2);
    assert!(first <= 7, "f(sinkless) alphabet = {first}");
}
