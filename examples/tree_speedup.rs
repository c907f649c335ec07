//! The paper's main theorem as a tool: feed an LCL problem to the
//! round-elimination pipeline and get back either a synthesized
//! constant-round algorithm (Theorem 3.11) or evidence that the problem
//! sits at `Θ(log* n)` or above.
//!
//! ```sh
//! cargo run --example tree_speedup
//! ```

use lcl_landscape::core::{tree_speedup, ReOptions, ReTower, SpeedupOptions, SpeedupOutcome};
use lcl_landscape::faults::RunOptions;
use lcl_landscape::graph::gen;
use lcl_landscape::local::simulate_sync_with;
use lcl_landscape::problems::{anti_matching, k_coloring};
use lcl_landscape::LandscapeError;

fn main() -> Result<(), LandscapeError> {
    // The anti-matching problem: every edge must carry {X, Y}. Not
    // 0-round solvable, but f(Π) = R̄(R(Π)) is — so the pipeline
    // synthesizes a 1-round algorithm.
    let problem = anti_matching(3);
    println!("pipeline input: {problem}");
    let outcome = tree_speedup(&problem, SpeedupOptions::default());
    match &outcome {
        SpeedupOutcome::ConstantRound { steps, .. } => {
            println!("=> constant-round algorithm synthesized, {steps} round(s)");
        }
        SpeedupOutcome::Exhausted { .. } => unreachable!("anti-matching is 1-round solvable"),
    }

    // Run the synthesized algorithm on a random forest and verify.
    let alg = outcome.algorithm();
    let forest = gen::random_forest(60, 5, 3, 7);
    let input = lcl_landscape::lcl::uniform_input(&forest);
    let ids: Vec<u64> = (0..forest.node_count() as u64).map(|i| 1000 - i).collect();
    let run = simulate_sync_with(&alg, &forest, &input, &ids, None, 10, RunOptions::new()).outcome;
    assert!(run.faults.is_empty(), "synthesized algorithms halt");
    let run = run.outcome;
    let violations = lcl_landscape::lcl::verify(&problem, &forest, &input, &run.output);
    println!(
        "synthesized algorithm: {} rounds on a 60-node forest, {} violations",
        run.rounds,
        violations.len()
    );
    assert!(violations.is_empty());

    // Contrast: 3-coloring has complexity Θ(log* n) — the paper's gap
    // theorem says it can never synthesize; watch the pipeline exhaust
    // while the label universes stay honest.
    let coloring = k_coloring(3, 3);
    println!("\npipeline input: {coloring}");
    match tree_speedup(&coloring, SpeedupOptions::default()) {
        SpeedupOutcome::ConstantRound { steps, .. } => {
            unreachable!("3-coloring solved in {steps} rounds — impossible")
        }
        SpeedupOutcome::Exhausted {
            steps_tried,
            alphabet_sizes,
            ..
        } => {
            println!(
                "=> not constant within {steps_tried} f-steps; \
                 alphabet sizes along Π, R(Π), R̄(R(Π)), ...: {alphabet_sizes:?}"
            );
        }
    }

    // The round-elimination sequence itself is a public API: inspect
    // R(Π) of 3-coloring (labels are sets of base labels).
    let mut tower = ReTower::new(k_coloring(3, 3));
    tower.push_r(ReOptions::default())?;
    println!(
        "\nR(3-coloring) has {} useful labels (subsets of {{A,B,C}})",
        tower.alphabet_size(1)
    );
    Ok(())
}
