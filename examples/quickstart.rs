//! Quickstart: define an LCL problem, run distributed algorithms for it
//! through each model's `simulate_*_with` entrypoint, and inspect the
//! execution trace every simulator returns.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use lcl_landscape::faults::RunOptions;
use lcl_landscape::graph::gen;
use lcl_landscape::lcl::{verify, violations_summary, LclProblem};
use lcl_landscape::local::{simulate_sync_with, simulate_with, IdAssignment};
use lcl_landscape::obs::Counter;
use lcl_landscape::problems::cv::{orientation_inputs, ColeVishkin, Orientation};
use lcl_landscape::LandscapeError;

fn main() -> Result<(), LandscapeError> {
    // 1. An LCL problem in the paper's node-edge-checkable form
    //    (Definition 2.3): 3-coloring, written in the text format.
    let problem = LclProblem::parse(
        "name: 3-coloring
         max-degree: 2
         inputs: l r
         nodes:
         A*
         B*
         C*
         edges:
         A B
         A C
         B C",
    )?;
    println!("problem: {problem}");

    // 2. A graph from the class the paper studies, with the orientation
    //    the algorithm needs provided as input labels.
    let n = 100;
    let graph = gen::cycle(n);
    let input = orientation_inputs(&graph, Orientation::Cycle);

    // 3. Identifiers from a polynomial range (Definition 2.1) and a run
    //    of Cole–Vishkin — the classic Θ(log* n) algorithm. Every
    //    simulator returns a `RunReport`: the outcome plus a trace whose
    //    counters are deterministic (wall time is the only exception).
    let ids = IdAssignment::random_polynomial(n, 3, 42);
    let report = simulate_sync_with(
        &ColeVishkin,
        &graph,
        &input,
        &ids.iter().collect::<Vec<_>>(),
        None,
        100,
        RunOptions::new(),
    );
    let run = &report.outcome.outcome;
    println!("Cole–Vishkin used {} rounds on n = {n}", run.rounds);
    println!(
        "trace: {} messages across {} nodes",
        report.trace.root().get(Counter::Messages).unwrap_or(0),
        report.trace.root().get(Counter::Nodes).unwrap_or(0),
    );

    // 4. Verification: every node and edge constraint is checked.
    let violations = verify(&problem, &graph, &input, &run.output);
    println!("verification: {}", violations_summary(&violations));
    assert!(violations.is_empty());

    // 5. Every model has one entrypoint taking `RunOptions`:
    //    `local::simulate_with`, `volume::simulate_with`,
    //    `volume::simulate_lca_with` and `grid::simulate_with`. Here: a
    //    radius-2 view-based LOCAL algorithm on the same cycle.
    let uniform = lcl_landscape::lcl::uniform_input(&graph);
    let local = simulate_with(
        &lcl_landscape::problems::trivial::MaxDegree2Hop,
        &graph,
        &uniform,
        &ids,
        None,
        RunOptions::new(),
    );
    println!(
        "{} queried {} views of {} total nodes",
        local.trace.root().name(),
        local.trace.root().get(Counter::Queries).unwrap_or(0),
        local.trace.root().get(Counter::ViewNodes).unwrap_or(0),
    );
    Ok(())
}
