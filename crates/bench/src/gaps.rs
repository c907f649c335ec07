//! The theorem experiments E5–E10: the paper's gap results, executed.

use lcl::LclProblem;
use lcl_classify::{classify_oriented_cycle, classify_oriented_path};
use lcl_core::derived::{Derivation, DerivedOptions, LocalInfo, NeighborInfo, OneRoundAlgorithm};
use lcl_core::speedup_grids::OrientationCanonical;
use lcl_core::speedup_volume::{run_fooled_volume, ProbeDecision, TranscriptAlgorithm};
use lcl_core::{
    blowup_factor, step_bound, tree_speedup, ReOptions, ReTower, SpeedupOptions, SpeedupOutcome,
};
use lcl_faults::RunOptions;
use lcl_graph::gen;
use lcl_grid::{OrientedGrid, ProdIds, RankGridView};
use lcl_local::{run_sync, IdAssignment};
use lcl_problems::{
    anti_matching, free_problem, k_coloring, maximal_matching_problem, mis_problem,
    sinkless_orientation, two_coloring,
};
use lcl_volume::NodeInfo;

use crate::cells;
use crate::table::Table;

/// E5 — Theorem 3.11 as a synthesizer: run the round-elimination pipeline
/// on a battery of problems; `o(log* n)` ones synthesize to constant
/// rounds (verified on random forests), `Θ(log* n)`-and-up ones exhaust.
pub fn speedup_trees() -> Table {
    let mut table = Table::new(
        "E5 / Theorem 3.11 — the speedup pipeline",
        &["problem", "outcome", "rounds", "verified on forests"],
    );
    let battery: Vec<LclProblem> = vec![
        free_problem(2, 3),
        anti_matching(3),
        forced_inputs_problem(),
        k_coloring(3, 3),
        sinkless_orientation(3),
    ];
    for problem in &battery {
        let outcome = tree_speedup(problem, SpeedupOptions::default());
        match &outcome {
            SpeedupOutcome::ConstantRound { steps, .. } => {
                let alg = outcome.algorithm();
                let mut ok = true;
                for seed in 0..3u64 {
                    let g = gen::random_forest(40, 4, 3, seed);
                    let input = lcl::uniform_input(&g);
                    let ids: Vec<u64> = (0..g.node_count() as u64).map(|i| i * 13 + seed).collect();
                    let run = run_sync(&alg, &g, &input, &ids, None, 10);
                    ok &= lcl::verify(problem, &g, &input, &run.output).is_empty();
                }
                table.row(cells!(
                    problem.problem_name(),
                    "O(1) — synthesized",
                    steps,
                    if ok { "yes" } else { "NO" }
                ));
            }
            SpeedupOutcome::Exhausted {
                steps_tried,
                alphabet_sizes,
                ..
            } => {
                table.row(cells!(
                    problem.problem_name(),
                    format!("not constant within {steps_tried} f-steps"),
                    format!("alphabets {alphabet_sizes:?}"),
                    "n/a"
                ));
            }
        }
    }
    table
}

/// A problem with *inputs* that is 0-round solvable — exercising the
/// paper's extension of round elimination to LCLs with inputs.
fn forced_inputs_problem() -> LclProblem {
    LclProblem::builder("forced-inputs", 3)
        .inputs(["x", "y"])
        .outputs(["X", "Y"])
        .node_pattern(&["X*", "Y*"])
        .edge(&["X", "X"])
        .edge(&["X", "Y"])
        .edge(&["Y", "Y"])
        .allow("x", &["X"])
        .allow("y", &["Y"])
        .build()
        .expect("well-formed")
}

/// The randomized one-round anti-matching orienter used by E6: endpoint
/// with the larger `k`-bit coin outputs X; ties fail with probability
/// `2^{-k}` per edge.
struct CoinOrient {
    k: u32,
}

impl OneRoundAlgorithm for CoinOrient {
    fn label(
        &self,
        me: &LocalInfo,
        my_bits: u64,
        neighbors: &[(NeighborInfo, u64)],
    ) -> Vec<lcl::OutLabel> {
        let mask = (1u64 << self.k) - 1;
        (0..me.degree as usize)
            .map(|p| lcl::OutLabel(u32::from(my_bits & mask < neighbors[p].1 & mask)))
            .collect()
    }
}

/// E6 — Theorem 3.4: the measured local failure probabilities of `A`,
/// `A_½` and `A'` versus the theoretical recurrence `S·p^{1/(3Δ+3)}`.
pub fn failure_probabilities() -> Table {
    let mut table = Table::new(
        "E6 / Theorem 3.4 — local failure probability through one RE step",
        &[
            "coin bits",
            "p (theory)",
            "A fails",
            "A_1/2 fails",
            "A' fails",
            "A' predicted (L²/edge)",
            "bound S·p^(1/(3Δ+3))",
        ],
    );
    let problem = anti_matching(2);
    let mut tower = ReTower::new(problem.clone());
    tower
        .push_f(ReOptions {
            restrict: false,
            ..ReOptions::default()
        })
        .expect("anti-matching tower fits");

    for k in [2u32, 4, 6, 8] {
        let p_theory = 0.5f64.powi(k as i32); // tie probability per edge
        let alg = CoinOrient { k };
        let opts = DerivedOptions {
            k_threshold: p_theory.cbrt().min(0.4),
            l_threshold: 0.15,
            samples: 96,
            threads: 0,
        };
        let derivation = Derivation::new(&alg, 2, 1, 2, opts);
        let g = gen::path(12);
        let input = lcl::uniform_input(&g);

        let trials = 60;
        let mut fail_base = 0usize;
        let mut fail_half = 0usize;
        let mut fail_prime = 0usize;
        for seed in 0..trials {
            let base = derivation.run_base(&g, &input, seed);
            if !lcl::verify(&problem, &g, &input, &base).is_empty() {
                fail_base += 1;
            }
            let half = derivation
                .run_a_half(&tower, &g, &input, seed)
                .expect("unrestricted tower holds every derivable label");
            if !lcl::verify(&tower.level(1), &g, &input, &half).is_empty() {
                fail_half += 1;
            }
            let prime = derivation
                .run_a_prime(&tower, &g, &input, seed)
                .expect("unrestricted tower holds every derivable label");
            if !lcl::verify(&tower.level(2), &g, &input, &prime).is_empty() {
                fail_prime += 1;
            }
        }
        let s = blowup_factor(1, 3, 2, 1);
        let bound = step_bound(p_theory, s, 2);
        // A' discards the neighbor's randomness: an edge fails when both
        // endpoints' coins sit in the L-confident band, so a run fails
        // with probability ≈ 1 - (1 - L²)^m on top of A's own failures —
        // the q^{1/(Δ+1)}-type degradation Lemma 3.8 bounds.
        let l = opts.l_threshold;
        let edges = g.edge_count() as f64;
        let predicted_prime = 1.0 - (1.0 - l * l).powf(edges) * (1.0 - p_theory).powf(edges);
        table.row(cells!(
            k,
            format!("{p_theory:.4}"),
            format!("{}/{trials}", fail_base),
            format!("{}/{trials}", fail_half),
            format!("{}/{trials}", fail_prime),
            format!("{:.0}/{trials}", predicted_prime * trials as f64),
            format!("{bound:.3}")
        ));
    }
    table
}

/// The order-invariant local-min transcript algorithm used by E7.
#[derive(Clone)]
struct LocalMinProbe;

impl TranscriptAlgorithm for LocalMinProbe {
    fn probe_budget(&self, _n: usize) -> usize {
        2
    }

    fn decide(&self, _n: usize, t: &[NodeInfo]) -> ProbeDecision {
        match t.len() {
            1 => ProbeDecision::Probe { j: 0, port: 0 },
            2 => ProbeDecision::Probe { j: 0, port: 1 },
            _ => ProbeDecision::Output(vec![
                lcl::OutLabel(u32::from(
                    t[0].id < t[1].id && t[0].id < t[2].id
                ));
                t[0].degree as usize
            ]),
        }
    }
}

/// E7 — Theorems 4.1/4.3: the VOLUME pipeline. Canonicalize + fool at
/// `n₀`; probes stay constant while outputs remain correct on every `n`.
pub fn volume_gap() -> Table {
    let mut table = Table::new(
        "E7 / Theorem 4.1 — VOLUME: canonicalized + fooled at n₀ = 16",
        &["n", "probes (fooled)", "matches unfooled output"],
    );
    for n in [16usize, 64, 256, 1024] {
        let g = gen::cycle(n);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::random_polynomial(n, 3, n as u64);
        let fooled = run_fooled_volume(&LocalMinProbe, 16, &g, &input, &ids).expect("in budget");
        let plain = lcl_volume::simulate_with(
            &lcl_core::speedup_volume::TranscriptAsVolume(LocalMinProbe),
            &g,
            &input,
            &ids,
            None,
            RunOptions::new(),
        )
        .expect("in budget")
        .outcome
        .outcome;
        table.row(cells!(
            n,
            fooled.max_probes,
            if fooled.output == plain.output {
                "yes"
            } else {
                "NO"
            }
        ));
    }
    table
}

/// The order-invariant PROD-LOCAL pattern used by E8.
#[derive(Clone, Debug)]
struct UpstreamEnd;

impl lcl_grid::OrderInvariantProdAlgorithm for UpstreamEnd {
    fn radius(&self, _n: usize) -> u32 {
        1
    }
    fn label(&self, view: &RankGridView) -> Vec<lcl::OutLabel> {
        let is_min = (-1..=1).all(|o| view.rank(0, 0) <= view.rank(0, o));
        vec![lcl::OutLabel(u32::from(is_min)); 2 * view.d]
    }
}

/// E8 — Theorem 5.1: the grid pipeline. The orientation-canonical,
/// fooled algorithm is identifier-free and constant-radius on every grid
/// size.
pub fn grid_gap() -> Table {
    let mut table = Table::new(
        "E8 / Theorem 5.1 — oriented grids: orientation-canonical at n₀ = 16",
        &["side", "n", "radius", "identifier-free"],
    );
    let alg = OrientationCanonical::new(UpstreamEnd, 16);
    for side in [4usize, 8, 16, 32] {
        let grid = OrientedGrid::new(&[side, side]);
        let input = lcl::uniform_input(grid.graph());
        let a = ProdIds::random_polynomial(&grid, 3, 1);
        let b = ProdIds::random_polynomial(&grid, 3, 2);
        let run_a = lcl_grid::simulate_with(&alg, &grid, &input, &a, None, RunOptions::new())
            .outcome
            .outcome;
        let run_b = lcl_grid::simulate_with(&alg, &grid, &input, &b, None, RunOptions::new())
            .outcome
            .outcome;
        table.row(cells!(
            side,
            grid.node_count(),
            run_a.radius,
            if run_a.output == run_b.output {
                "yes"
            } else {
                "NO"
            }
        ));
    }
    table
}

/// E9 — the decidable slice (Section 1.4): classification of the catalog
/// problems on oriented paths/cycles, and for the classes that admit one,
/// the *synthesized* algorithm run and verified on a 64-cycle.
pub fn landscape_paths() -> Table {
    use lcl_classify::synthesize_cycle;
    use lcl_local::IdAssignment;

    let mut table = Table::new(
        "E9 / Section 1.4 — decidable classification on oriented paths/cycles",
        &[
            "problem",
            "cycles",
            "paths",
            "all large n",
            "synthesized algorithm (verified on C64)",
        ],
    );
    let battery: Vec<LclProblem> = vec![
        free_problem(2, 2),
        k_coloring(3, 2),
        two_coloring(2),
        mis_problem(2),
        maximal_matching_problem(2),
        sinkless_orientation(2),
    ];
    for p in &battery {
        let cycle = classify_oriented_cycle(p);
        let path = classify_oriented_path(p);
        let synthesized = match synthesize_cycle(p) {
            Ok(Some(alg)) => {
                let g = gen::cycle(64);
                let input = lcl::uniform_input(&g);
                let ids = IdAssignment::random_polynomial(64, 3, 13);
                let run = lcl_local::simulate_with(&alg, &g, &input, &ids, None, RunOptions::new())
                    .outcome
                    .outcome;
                let valid = lcl::verify(p, &g, &input, &run.output).is_empty();
                format!(
                    "{} — {}",
                    alg.describe(),
                    if valid { "valid" } else { "INVALID" }
                )
            }
            Ok(None) => "none (global)".to_string(),
            Err(e) => e.to_string(),
        };
        table.row(cells!(
            p.problem_name(),
            cycle
                .as_ref()
                .map(|c| c.class.to_string())
                .unwrap_or_else(|e| e.to_string()),
            path.as_ref()
                .map(|c| c.class.to_string())
                .unwrap_or_else(|e| e.to_string()),
            cycle
                .map(|c| if c.solvable_all_large { "yes" } else { "no" })
                .unwrap_or("?"),
            synthesized
        ));
    }
    table
}

/// E10 — the label-growth ablation: alphabet sizes along the
/// round-elimination sequence, with and without the usefulness
/// restriction (the paper's remark on doubly-exponential growth).
pub fn label_growth() -> Table {
    let mut table = Table::new(
        "E10 / ablation — label growth along Π, R(Π), R̄(R(Π))",
        &["problem", "mode", "|Σ| per level", "note"],
    );
    let battery: Vec<LclProblem> =
        vec![anti_matching(3), k_coloring(3, 3), sinkless_orientation(3)];
    for p in &battery {
        for restrict in [true, false] {
            let mut tower = ReTower::new(p.clone());
            let opts = ReOptions {
                restrict,
                ..ReOptions::default()
            };
            let note = match tower.push_f(opts) {
                Ok(()) => String::new(),
                Err(e) => format!("stopped: {e}"),
            };
            let sizes: Vec<usize> = (0..tower.level_count())
                .map(|l| tower.alphabet_size(l))
                .collect();
            table.row(cells!(
                p.problem_name(),
                if restrict { "restricted" } else { "full" },
                format!("{sizes:?}"),
                note
            ));
        }
    }
    table
}

/// E11 — the high-girth remark of Section 1.1: for any LCL, the
/// complexity on trees equals the complexity on graphs of sufficiently
/// large girth. The algorithm synthesized for trees runs unchanged on
/// random cubic graphs, and is correct whenever the girth exceeds twice
/// its horizon.
pub fn high_girth_transfer() -> Table {
    let mut table = Table::new(
        "E11 / §1.1 — tree-synthesized algorithm on high-girth cubic graphs",
        &["n", "girth", "rounds", "valid"],
    );
    let problem = anti_matching(3);
    let outcome = tree_speedup(&problem, SpeedupOptions::default());
    let alg = outcome.algorithm();
    // The synthesized algorithm has horizon 1 round + verification radius
    // 1: girth ≥ 5 makes every relevant neighborhood tree-like.
    for n in [24usize, 48, 96, 192] {
        let Some((g, girth)) = (0..100).find_map(|seed| {
            let g = gen::random_regular(n, 3, seed + n as u64).ok()?;
            let girth = g.girth()?;
            (girth >= 5).then_some((g, girth))
        }) else {
            table.row(cells!(n, "-", "-", "no high-girth sample found"));
            continue;
        };
        let input = lcl::uniform_input(&g);
        let ids: Vec<u64> = (0..n as u64).map(|i| i * 17 + 3).collect();
        let run = run_sync(&alg, &g, &input, &ids, None, 10);
        let valid = lcl::verify(&problem, &g, &input, &run.output).is_empty();
        table.row(cells!(
            n,
            girth,
            run.rounds,
            if valid { "yes" } else { "NO" }
        ));
    }
    table
}

/// E13 — Lemma 3.3 in action: the forest construction's two cases
/// (canonical small-component solve vs delegation to the tree algorithm
/// with announced `n²`) across forests of varying component sizes.
pub fn lemma33_cases() -> Table {
    use lcl_core::lemma33::{run_lemma33, Lemma33Case};
    use lcl_graph::PortView;
    use lcl_local::{FnAlgorithm, IdAssignment};

    let mut table = Table::new(
        "E13 / Lemma 3.3 — forest construction: case split and validity",
        &[
            "forest",
            "components",
            "small-case nodes",
            "delegated nodes",
            "valid",
        ],
    );
    let problem = anti_matching(3);
    // The "tree algorithm": 1-round orientation by identifier.
    let orienter = FnAlgorithm::new(
        "orient",
        |_| 1,
        |view| {
            let me = view.ids[0];
            view.ball
                .center()
                .ports
                .iter()
                .map(|p| match *p {
                    PortView::Inside { node, .. } => {
                        lcl::OutLabel(u32::from(me < view.ids[node as usize]))
                    }
                    PortView::Outside => lcl::OutLabel(0),
                })
                .collect()
        },
    );
    for (name, g) in [
        ("tiny components", gen::random_forest(36, 12, 3, 1)),
        ("mixed", gen::random_forest(48, 6, 3, 2)),
        ("one big tree", gen::random_tree(48, 3, 3)),
    ] {
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::random_polynomial(g.node_count(), 3, 5);
        let run = run_lemma33(&problem, &orienter, &g, &input, &ids, 1 << 22);
        let small = run
            .cases
            .iter()
            .filter(|&&c| c == Lemma33Case::SmallComponent)
            .count();
        let delegated = run.cases.len() - small;
        let (_, components) = g.components();
        let valid = lcl::verify(&problem, &g, &input, &run.output).is_empty();
        table.row(cells!(
            name,
            components,
            small,
            delegated,
            if valid { "yes" } else { "NO" }
        ));
    }
    table
}

/// E12 — Conjecture 1.6 exploration: on *unoriented* grids (toroidal and
/// open) the paper conjectures the same `ω(1)`–`o(log* n)` gap. The
/// orientation-free algorithms of the suite populate the three conjectured
/// regimes; no intermediate behavior appears (evidence, not proof).
pub fn unoriented_grids() -> Table {
    use lcl_local::{minimal_solving_radius, run_sync, IdAssignment};
    use lcl_problems::{DeltaPlusOne, TwoColorByAnchor};

    let mut table = Table::new(
        "E12 / Conjecture 1.6 — unoriented grids: rounds by class",
        &[
            "grid",
            "n",
            "log*n",
            "O(1) max-deg-2hop",
            "Θ(log* n) 5-coloring",
            "Θ(√n) 2-col radius",
        ],
    );
    for (name, g) in [
        ("torus 6²", gen::torus(&[6, 6])),
        ("torus 12²", gen::torus(&[12, 12])),
        ("open 7²", gen::grid_open(&[7, 7])),
        ("open 13²", gen::grid_open(&[13, 13])),
    ] {
        let n = g.node_count();
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::random_polynomial(n, 3, n as u64);
        // O(1): radius-2 algorithm, by definition.
        let o1 = 2u32;
        // Θ(log* n): (Δ+1)-coloring needs no orientation.
        let run = run_sync(
            &DeltaPlusOne { delta: 4 },
            &g,
            &input,
            &ids.iter().collect::<Vec<_>>(),
            None,
            1_000_000,
        );
        let problem = k_coloring(5, 4);
        assert!(lcl::verify(&problem, &g, &input, &run.output).is_empty());
        // Θ(√n): 2-coloring by gathering (both families are bipartite:
        // even tori and all open grids).
        let radius = if n <= 170 {
            let p2 = two_coloring(4);
            minimal_solving_radius(&p2, &g, &input, &ids, 2 * n as u32, |r| TwoColorByAnchor {
                radius: r,
            })
            .map(|r| r.to_string())
            .unwrap_or_else(|| "-".into())
        } else {
            "(skipped)".into()
        };
        table.row(cells!(
            name,
            n,
            lcl_graph::math::log_star(n as u64),
            o1,
            run.rounds,
            radius
        ));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_lemma33_cases_are_valid() {
        let rendered = lemma33_cases().render();
        assert!(!rendered.contains("NO"), "{rendered}");
        assert!(rendered.contains("delegated"));
    }

    #[test]
    fn e12_unoriented_grids_produce_valid_rows() {
        let rendered = unoriented_grids().render();
        assert!(rendered.contains("torus"));
        assert!(rendered.contains("open"));
    }

    #[test]
    fn e11_high_girth_transfer_holds() {
        let rendered = high_girth_transfer().render();
        assert!(!rendered.contains("NO"), "{rendered}");
        assert!(rendered.contains("yes"));
    }

    #[test]
    fn e5_battery_behaves() {
        let t = speedup_trees();
        let rendered = t.render();
        assert!(rendered.contains("anti-matching"));
        assert!(rendered.contains("synthesized"));
        assert!(rendered.contains("3-coloring"));
        assert!(!rendered.contains("NO"), "{rendered}");
    }

    #[test]
    fn e9_classifications_match_theory() {
        let rendered = landscape_paths().render();
        assert!(rendered.contains("Θ(log* n)"));
        assert!(rendered.contains("Θ(n)"));
        assert!(rendered.contains("O(1)"));
    }

    #[test]
    fn e7_volume_pipeline_is_correct() {
        let rendered = volume_gap().render();
        assert!(!rendered.contains("NO"), "{rendered}");
    }

    #[test]
    fn e8_grid_pipeline_is_correct() {
        let rendered = grid_gap().render();
        assert!(!rendered.contains("NO"), "{rendered}");
    }

    #[test]
    fn e10_restriction_shrinks_universes() {
        let rendered = label_growth().render();
        assert!(rendered.contains("restricted"));
        assert!(rendered.contains("full"));
    }
}
