//! The decidable slice of the landscape (Section 1.4): classify LCL
//! problems on oriented paths and cycles into `O(1)`, `Θ(log* n)` or
//! `Θ(n)` — the classes the paper's Figure 1 shows for that graph family.
//!
//! ```sh
//! cargo run --example classify_paths
//! ```

use lcl_landscape::classify::{
    classify_oriented_cycle, classify_oriented_path, solvable_cycle_lengths_up_to,
};
use lcl_landscape::problems::{
    free_problem, k_coloring, mis_problem, sinkless_orientation, two_coloring,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let battery = vec![
        free_problem(2, 2),
        k_coloring(3, 2),
        two_coloring(2),
        mis_problem(2),
        sinkless_orientation(2),
    ];

    println!("{:<24} {:<12} {:<12}", "problem", "cycles", "paths");
    println!("{}", "-".repeat(48));
    for p in &battery {
        let cycles = classify_oriented_cycle(p)?;
        let paths = classify_oriented_path(p)?;
        println!(
            "{:<24} {:<12} {:<12}",
            p.problem_name(),
            cycles.class.to_string(),
            paths.class.to_string()
        );
    }

    // Θ(n) problems constrain which cycle lengths are solvable at all —
    // 2-coloring needs even cycles:
    println!("\n2-coloring solvability by cycle length:");
    for (n, solvable) in solvable_cycle_lengths_up_to(&two_coloring(2), 10)? {
        println!(
            "  n = {n:2}: {}",
            if solvable { "solvable" } else { "unsolvable" }
        );
        assert_eq!(solvable, n % 2 == 0);
    }

    // The certificates are executable: synthesize an algorithm from the
    // classification and run it.
    use lcl_landscape::classify::synthesize_cycle;
    use lcl_landscape::faults::RunOptions;
    use lcl_landscape::graph::gen;
    use lcl_landscape::local::{simulate_with, IdAssignment};

    println!("\nsynthesized algorithms, verified on a 100-cycle:");
    for p in &battery {
        let Some(alg) = synthesize_cycle(p)?.outcome else {
            println!("  {:<24} (global: no uniform algorithm)", p.problem_name());
            continue;
        };
        let g = gen::cycle(100);
        let input = lcl_landscape::lcl::uniform_input(&g);
        let ids = IdAssignment::random_polynomial(100, 3, 5);
        let run = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new())
            .outcome
            .outcome;
        let ok = lcl_landscape::lcl::verify(p, &g, &input, &run.output).is_empty();
        println!(
            "  {:<24} {} [{}]",
            p.problem_name(),
            alg.describe(),
            if ok { "valid" } else { "INVALID" }
        );
        assert!(ok);
    }
    Ok(())
}
