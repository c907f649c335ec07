//! Fault injection: corrupt valid solutions and check that the verifier
//! localizes the damage — the verifier is the ground truth every other
//! component leans on, so it gets adversarial treatment of its own.

use lcl_rng::SmallRng;

use lcl_landscape::graph::gen;
use lcl_landscape::lcl::{uniform_input, verify, HalfEdgeLabeling, OutLabel, Violation};
use lcl_landscape::local::{run_sync, IdAssignment};
use lcl_landscape::problems::{
    k_coloring, maximal_matching_problem, mis_problem, DeltaPlusOne, MatchingByColor, MisByColor,
};

fn corrupt_one(
    labeling: &HalfEdgeLabeling<OutLabel>,
    half_edge: u32,
    universe: u32,
) -> HalfEdgeLabeling<OutLabel> {
    let mut out = labeling.clone();
    let h = lcl_landscape::graph::HalfEdgeId(half_edge);
    let old = out.get(h);
    out.set(h, OutLabel((old.0 + 1) % universe));
    out
}

/// In a proper coloring every node is monochromatic, so flipping any one
/// half-edge must produce a violation *at that node or its edge*.
#[test]
fn coloring_corruptions_are_always_caught_and_localized() {
    let g = gen::random_tree(40, 3, 1);
    let problem = k_coloring(4, 3);
    let input = uniform_input(&g);
    let ids = IdAssignment::random_polynomial(40, 3, 2);
    let run = run_sync(
        &DeltaPlusOne { delta: 3 },
        &g,
        &input,
        &ids.iter().collect::<Vec<_>>(),
        None,
        100_000,
    );
    assert!(verify(&problem, &g, &input, &run.output).is_empty());

    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..40 {
        // A leaf's single half-edge may legally switch to any color that
        // differs from its neighbor's; interior nodes have no such slack
        // (monochromatism breaks).
        let h = loop {
            let candidate = rng.gen_range(0..g.half_edge_count() as u32);
            if g.degree(g.node_of(lcl_landscape::graph::HalfEdgeId(candidate))) >= 2 {
                break candidate;
            }
        };
        let corrupted = corrupt_one(&run.output, h, 4);
        let violations = verify(&problem, &g, &input, &corrupted);
        assert!(!violations.is_empty(), "corruption at h{h} went unnoticed");
        // Localization: every reported object touches the corrupted
        // half-edge's node or edge.
        let node = g.node_of(lcl_landscape::graph::HalfEdgeId(h));
        let edge = g.edge_of(lcl_landscape::graph::HalfEdgeId(h));
        for v in &violations {
            match *v {
                Violation::NodeConfig { node: n } | Violation::NodeInputMap { node: n, .. } => {
                    assert_eq!(n, node, "violation drifted to another node")
                }
                Violation::EdgeConfig { edge: e } | Violation::EdgeInputMap { edge: e, .. } => {
                    assert_eq!(e, edge, "violation drifted to another edge")
                }
            }
        }
    }
}

/// Every single-label corruption of an MIS solution breaks a constraint:
/// the I/P/N encoding has no slack.
#[test]
fn mis_corruptions_are_always_caught() {
    let g = gen::random_tree(36, 3, 4);
    let problem = mis_problem(3);
    let input = uniform_input(&g);
    let ids = IdAssignment::random_polynomial(36, 3, 5);
    let run = run_sync(
        &MisByColor { delta: 3 },
        &g,
        &input,
        &ids.iter().collect::<Vec<_>>(),
        None,
        100_000,
    );
    assert!(verify(&problem, &g, &input, &run.output).is_empty());
    for h in 0..g.half_edge_count() as u32 {
        for bump in 1..3u32 {
            let mut corrupted = run.output.clone();
            let hid = lcl_landscape::graph::HalfEdgeId(h);
            let old = corrupted.get(hid);
            corrupted.set(hid, OutLabel((old.0 + bump) % 3));
            let violations = verify(&problem, &g, &input, &corrupted);
            assert!(
                !violations.is_empty(),
                "MIS corruption at h{h} (+{bump}) went unnoticed"
            );
        }
    }
}

/// The matching encoding likewise: every single-half-edge change breaks
/// the M/S/F discipline somewhere.
#[test]
fn matching_corruptions_are_always_caught() {
    let g = gen::random_tree(30, 3, 8);
    let problem = maximal_matching_problem(3);
    let input = uniform_input(&g);
    let ids = IdAssignment::random_polynomial(30, 3, 9);
    let run = run_sync(
        &MatchingByColor { delta: 3 },
        &g,
        &input,
        &ids.iter().collect::<Vec<_>>(),
        None,
        100_000,
    );
    assert!(verify(&problem, &g, &input, &run.output).is_empty());
    let mut missed = Vec::new();
    for h in 0..g.half_edge_count() as u32 {
        for bump in 1..3u32 {
            let mut corrupted = run.output.clone();
            let hid = lcl_landscape::graph::HalfEdgeId(h);
            let old = corrupted.get(hid);
            corrupted.set(hid, OutLabel((old.0 + bump) % 3));
            if verify(&problem, &g, &input, &corrupted).is_empty() {
                missed.push((h, bump));
            }
        }
    }
    assert!(missed.is_empty(), "silent corruptions: {missed:?}");
}

/// Crash-stop on the E1 pipeline: run the Theorem 3.11 synthesized
/// anti-matching algorithm under crash-stop plans. The run must degrade
/// gracefully, and the verifier's violations (if any) must be localized
/// to the crashed node's radius-1 neighborhood — a dead node can only
/// damage constraints it participates in.
#[test]
fn crash_stop_on_synthesized_algorithm_verifies_or_localizes() {
    use lcl_landscape::core::{tree_speedup, SpeedupOptions};
    use lcl_landscape::faults::{Fault, FaultPlan, RunOptions};
    use lcl_landscape::local::simulate_sync_with;

    let problem = lcl_landscape::problems::anti_matching(3);
    let outcome = tree_speedup(&problem, SpeedupOptions::default());
    let alg = outcome
        .try_algorithm()
        .expect("anti-matching is o(log* n): Theorem 3.11 synthesis succeeds");

    let g = gen::random_tree(24, 3, 6);
    let input = uniform_input(&g);
    let ids: Vec<u64> = (0..24u64).map(|i| i * 5 + 2).collect();
    for crashed in [0usize, 5, 11, 23] {
        let plan = FaultPlan::new(1).with(Fault::Crash {
            node: crashed,
            round: 0,
        });
        let report = simulate_sync_with(
            &alg,
            &g,
            &input,
            &ids,
            None,
            10,
            RunOptions::new().faults(&plan),
        );
        let degraded = &report.outcome;
        // The crash cascades no further than its direct neighbors (the
        // 1-round algorithm needs one message from each neighbor): every
        // fault record is the crash itself or a neighbor's stall.
        assert_eq!(degraded.faults[0].node, crashed as u64);
        assert_eq!(degraded.faults[0].payload, "crash-stop");
        let crashed_node = lcl_landscape::graph::NodeId(crashed as u32);
        let neighbors: Vec<_> = g.neighbors_of(crashed_node).collect();
        for f in &degraded.faults[1..] {
            assert!(
                neighbors.contains(&lcl_landscape::graph::NodeId(f.node as u32)),
                "fault at node {} drifted beyond the crash at {crashed}",
                f.node
            );
        }
        // Localization: every violation touches the radius-1 ball around
        // the crash (the crashed node, a neighbor, or an edge incident to
        // one of them).
        let ball: Vec<_> = std::iter::once(crashed_node)
            .chain(neighbors.iter().copied())
            .collect();
        let incident: Vec<_> = ball
            .iter()
            .flat_map(|&v| g.half_edges_of(v).map(|h| g.edge_of(h)))
            .collect();
        for v in verify(&problem, &g, &input, &degraded.outcome.output) {
            match v {
                Violation::NodeConfig { node } | Violation::NodeInputMap { node, .. } => {
                    assert!(
                        ball.contains(&node),
                        "violation at {node:?} drifted beyond the crash at {crashed}"
                    );
                }
                Violation::EdgeConfig { edge } | Violation::EdgeInputMap { edge, .. } => {
                    assert!(
                        incident.contains(&edge),
                        "violation at {edge:?} drifted beyond the crash at {crashed}"
                    );
                }
            }
        }
    }
}

/// Adversarial ID permutations must not change the synthesized round
/// count of a classified tier: the O(1) representative stays O(1) —
/// same executed rounds, still a valid solution — under every permuted
/// identifier assignment a fault plan can produce.
#[test]
fn id_permutations_preserve_synthesized_round_counts() {
    use lcl_landscape::core::{tree_speedup, SpeedupOptions};
    use lcl_landscape::faults::{FaultPlan, RunOptions};
    use lcl_landscape::local::simulate_sync_with;

    let problem = lcl_landscape::problems::anti_matching(3);
    let outcome = tree_speedup(&problem, SpeedupOptions::default());
    let alg = outcome
        .try_algorithm()
        .expect("anti-matching is o(log* n): Theorem 3.11 synthesis succeeds");

    let g = gen::random_tree(30, 3, 12);
    let input = uniform_input(&g);
    let ids: Vec<u64> = (0..30u64).map(|i| 1000 - i * 7).collect();
    let clean_plan = FaultPlan::new(0);
    let baseline = simulate_sync_with(
        &alg,
        &g,
        &input,
        &ids,
        None,
        10,
        RunOptions::new().faults(&clean_plan),
    );
    assert!(!baseline.outcome.is_degraded());
    let baseline_rounds = baseline.outcome.outcome.rounds;
    for seed in 0..12u64 {
        let plan = FaultPlan::new(seed).with_permuted_ids();
        let report = simulate_sync_with(
            &alg,
            &g,
            &input,
            &ids,
            None,
            10,
            RunOptions::new().faults(&plan),
        );
        let degraded = &report.outcome;
        assert!(!degraded.is_degraded(), "a permutation is not a fault");
        assert_eq!(
            degraded.outcome.rounds, baseline_rounds,
            "seed {seed}: round count is a property of the tier, not the ids"
        );
        assert!(
            verify(&problem, &g, &input, &degraded.outcome.output).is_empty(),
            "seed {seed}: the synthesized algorithm is correct under any ids"
        );
    }
}

/// The derived problems of the round-elimination tower inherit the
/// verifier: corrupting the lifted algorithm's *intermediate* top-level
/// labeling must be caught by the level-2 predicates.
#[test]
fn tower_level_verifier_catches_corruption() {
    use lcl_landscape::core::{ReOptions, ReTower};

    let p = lcl_landscape::problems::anti_matching(3);
    let mut tower = ReTower::new(p);
    tower.push_f(ReOptions::default()).unwrap();
    let level2 = tower.level(2);
    let g = gen::path(6);
    let input = uniform_input(&g);
    // A valid level-2 labeling: every half-edge gets the label whose
    // member set realizes "both orientations possible" if present,
    // otherwise fall back to brute-force search.
    let universe = tower.alphabet_size(2) as u32;
    let valid = (0..universe).find_map(|l| {
        let labeling = HalfEdgeLabeling::uniform(&g, OutLabel(l));
        verify(&level2, &g, &input, &labeling)
            .is_empty()
            .then_some(labeling)
    });
    let Some(valid) = valid else {
        panic!("some uniform level-2 labeling must be valid (B* exists)");
    };
    // Any corruption to a different label is caught or still valid; check
    // the verifier runs and reports deterministically.
    for l in 0..universe {
        let mut corrupted = valid.clone();
        corrupted.set(lcl_landscape::graph::HalfEdgeId(3), OutLabel(l));
        let first = verify(&level2, &g, &input, &corrupted);
        let second = verify(&level2, &g, &input, &corrupted);
        assert_eq!(first, second, "verifier must be deterministic");
    }
}

/// A 1-probe VOLUME algorithm echoing its first neighbor's identifier.
fn first_neighbor() -> impl lcl_landscape::volume::VolumeAlgorithm {
    use lcl_landscape::volume::{FnVolumeAlgorithm, ProbeSession};
    FnVolumeAlgorithm::new(
        "first-neighbor",
        |_| 1,
        |s: &mut ProbeSession<'_>| {
            let degree = s.queried().degree as usize;
            let neighbor = s.probe(0, 0)?;
            Ok(vec![OutLabel((neighbor.id % 7) as u32); degree])
        },
    )
}

/// LOCAL, VOLUME, LCA and PROD-LOCAL each run with or without a fault
/// plan through one executor: an empty plan changes nothing, and under
/// a crash plan the view models still charge one materialized view per
/// uncrashed node (the probe models log probes, not views).
#[test]
fn empty_plans_change_nothing_and_crash_plans_still_charge_views() {
    use lcl_landscape::faults::{Degraded, Fault, FaultPlan, RunOptions};
    use lcl_landscape::grid::{FnProdAlgorithm, OrientedGrid, ProdIds};
    use lcl_landscape::local::FnAlgorithm;
    use lcl_landscape::obs::{CostKind, EventLog};
    use lcl_landscape::volume::lca::VolumeAsLca;

    type Run<'a> = Box<dyn Fn(RunOptions<'_>) -> Degraded<HalfEdgeLabeling<OutLabel>> + 'a>;
    let g = gen::cycle(8);
    let input = uniform_input(&g);
    // Exactly 1..=n, so the same assignment serves the LCA promise.
    let ids = IdAssignment::from_vec((1..=8).collect());
    let grid = OrientedGrid::new(&[4, 4]);
    let grid_input = uniform_input(grid.graph());
    let grid_ids = ProdIds::sequential(&grid);
    let local_alg = FnAlgorithm::new(
        "max-id",
        |_| 1,
        |view| {
            let max = view.ids.iter().copied().max().unwrap_or(0);
            vec![OutLabel((max % 7) as u32); view.center_degree()]
        },
    );
    let volume_alg = first_neighbor();
    let lca_alg = VolumeAsLca(first_neighbor());
    let prod_alg = FnProdAlgorithm::new(
        "echo-left",
        |_| 1,
        |view| vec![OutLabel((view.id(0, -1) % 7) as u32); 2 * view.d],
    );
    // (model, node count, whether it materializes views, run)
    let models: Vec<(&str, u64, bool, Run<'_>)> = vec![
        (
            "LOCAL",
            8,
            true,
            Box::new(|opts| {
                let report =
                    lcl_landscape::local::simulate_with(&local_alg, &g, &input, &ids, None, opts);
                let Degraded { outcome, faults } = report.outcome;
                Degraded {
                    outcome: outcome.output,
                    faults,
                }
            }),
        ),
        (
            "VOLUME",
            8,
            false,
            Box::new(|opts| {
                let report =
                    lcl_landscape::volume::simulate_with(&volume_alg, &g, &input, &ids, None, opts)
                        .expect("in budget");
                let Degraded { outcome, faults } = report.outcome;
                Degraded {
                    outcome: outcome.output,
                    faults,
                }
            }),
        ),
        (
            "LCA",
            8,
            false,
            Box::new(|opts| {
                let report =
                    lcl_landscape::volume::simulate_lca_with(&lca_alg, &g, &input, &ids, opts)
                        .expect("in budget");
                let Degraded { outcome, faults } = report.outcome;
                Degraded {
                    outcome: outcome.output,
                    faults,
                }
            }),
        ),
        (
            "PROD-LOCAL",
            16,
            true,
            Box::new(|opts| {
                let report = lcl_landscape::grid::simulate_with(
                    &prod_alg,
                    &grid,
                    &grid_input,
                    &grid_ids,
                    None,
                    opts,
                );
                let Degraded { outcome, faults } = report.outcome;
                Degraded {
                    outcome: outcome.output,
                    faults,
                }
            }),
        ),
    ];
    let empty = FaultPlan::new(5);
    let crash = FaultPlan::new(0)
        .with(Fault::Crash { node: 2, round: 0 })
        .with(Fault::Crash { node: 5, round: 0 });
    for (model, n, views, run) in &models {
        let plain = run(RunOptions::new());
        let under_empty = run(RunOptions::new().faults(&empty));
        assert!(
            !under_empty.is_degraded(),
            "{model}: {:?}",
            under_empty.faults
        );
        assert_eq!(under_empty, plain, "{model}");

        let log = EventLog::new(0);
        let crashed = run(RunOptions::new().faults(&crash).events(&log));
        assert_eq!(crashed.faults.len(), 2, "{model}: {:?}", crashed.faults);
        let charged = if *views { n - 2 } else { 0 };
        assert_eq!(
            log.cost_model().get(CostKind::ViewMaterialized),
            charged,
            "{model}"
        );
    }
}
