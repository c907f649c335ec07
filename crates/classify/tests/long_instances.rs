//! Soundness of the synthesized anchor-and-fill algorithms on instances
//! longer than `2 · radius(n) + 1`: no node's window wraps around the
//! cycle or sees both ends of the path, so the windows cut off by the
//! radius, the path interior and (with `K₀ > 2`) the sparsification of a
//! partial window all run.
//!
//! The full random-corpus run is `#[ignore]`d in normal test runs;
//! `scripts/check.sh` runs it in release with `--include-ignored`.

use lcl::gen::{random_problem, RandomProblemSpec};
use lcl::LclProblem;
use lcl_classify::{synthesize_cycle, synthesize_path};
use lcl_faults::RunOptions;
use lcl_graph::{gen, Graph};
use lcl_local::{simulate_with, IdAssignment, LocalAlgorithm};

/// The smallest fixpoint `n ≥ 16` of `n = 2·radius(n) + 2`.
fn long_n(alg: &impl LocalAlgorithm) -> usize {
    let mut n = 16;
    loop {
        let need = 2 * alg.radius(n) as usize + 2;
        if n >= need {
            return n;
        }
        n = need;
    }
}

/// Runs `alg` on `graph(n)` with seeded polynomial identifiers; the
/// violations of `p`.
fn violations(
    p: &LclProblem,
    alg: &impl LocalAlgorithm,
    graph: fn(usize) -> Graph,
    n: usize,
    seed: u64,
) -> usize {
    assert!(n > 2 * alg.radius(n) as usize + 1, "n = {n} is not long");
    let g = graph(n);
    let input = lcl::uniform_input(&g);
    let ids = IdAssignment::random_polynomial(n, 3, seed);
    let run = simulate_with(alg, &g, &input, &ids, None, RunOptions::new())
        .outcome
        .outcome;
    lcl::verify(p, &g, &input, &run.output).len()
}

/// Checks `p`'s cycle algorithm (and path algorithm, if `on_paths`) at
/// the first long size plus `extra`.
fn check_long(p: &LclProblem, on_paths: bool, extra: usize) {
    let cycle = synthesize_cycle(p).unwrap().outcome.expect("synthesizes");
    let n = long_n(&cycle) + extra;
    assert_eq!(violations(p, &cycle, gen::cycle, n, 11), 0, "C{n}");
    if on_paths {
        let path = synthesize_path(p).unwrap().outcome.expect("synthesizes");
        let n = long_n(&path) + extra;
        assert_eq!(violations(p, &path, gen::path, n, 12), 0, "P{n}");
    }
}

/// Phase labels that advance along the cycle and reset every 3 to 5
/// steps: `K₀ = 3`, so the cycle algorithm sparsifies once. Every node
/// configuration has two labels, so paths (whose endpoints have one)
/// admit no solution.
fn spaced_marking() -> LclProblem {
    LclProblem::parse(
        "max-degree: 2\noutputs: A0 A1 A2 A3 A4 B0 B1 B2 B3 B4\n\
         nodes:\nA0 B1\nA1 B2\nA2 B3\nA2 B0\nA3 B4\nA3 B0\nA4 B0\n\
         edges:\nA0 B0\nA1 B1\nA2 B2\nA3 B3\nA4 B4\n",
    )
    .expect("well-formed")
}

#[test]
fn three_coloring_is_sound_on_long_cycles_and_paths() {
    check_long(&lcl_problems::k_coloring(3, 2), true, 3);
}

#[test]
fn maximal_matching_is_sound_on_long_cycles_and_paths() {
    // K₀ = 4: one sparsification level on windows cut off on both sides.
    check_long(&lcl_problems::maximal_matching_problem(2), true, 0);
}

#[test]
fn spaced_marking_is_sound_on_long_cycles() {
    let p = spaced_marking();
    assert!(synthesize_path(&p).unwrap().outcome.is_none());
    check_long(&p, false, 1);
}

/// Every synthesized algorithm of the catalogue and of 200 seeded random
/// degree-2 problems verifies at its first long size. Release-only soak.
#[test]
#[ignore]
fn random_problems_are_sound_on_long_instances() {
    let mut problems = vec![
        lcl_problems::k_coloring(3, 2),
        lcl_problems::k_coloring(4, 2),
        lcl_problems::two_coloring(2),
        lcl_problems::oriented_three_coloring(),
        lcl_problems::sinkless_orientation(2),
        lcl_problems::anti_matching(2),
        lcl_problems::mis_problem(2),
        lcl_problems::maximal_matching_problem(2),
        spaced_marking(),
    ];
    problems.extend((0..200).map(|seed| {
        random_problem(
            RandomProblemSpec {
                max_degree: 2,
                inputs: 1,
                outputs: 3,
                density_percent: 55,
            },
            seed,
        )
    }));
    let (mut cycles, mut paths) = (0, 0);
    for (i, p) in problems.iter().enumerate() {
        let seed = i as u64;
        if let Ok(Some(alg)) = synthesize_cycle(p).map(|report| report.outcome) {
            let n = long_n(&alg);
            let bad = violations(p, &alg, gen::cycle, n, seed);
            assert_eq!(bad, 0, "{} on C{n}: {}", alg.describe(), p.to_text());
            cycles += 1;
        }
        if let Ok(Some(alg)) = synthesize_path(p).map(|report| report.outcome) {
            let n = long_n(&alg);
            let bad = violations(p, &alg, gen::path, n, seed);
            assert_eq!(bad, 0, "{} on P{n}: {}", alg.describe(), p.to_text());
            paths += 1;
        }
    }
    // The corpus is not vacuous: most problems synthesize.
    assert!(
        cycles >= 100 && paths >= 70,
        "{cycles} cycles, {paths} paths"
    );
}
