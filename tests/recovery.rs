//! Recovery integration: the self-healing loop end to end.
//!
//! Three properties, each with an always-on smoke test and an
//! `#[ignore]`d soak driven by `scripts/check.sh` in release mode:
//!
//! 1. **Repair closes the loop** — under crash + corrupt-view chaos
//!    plans, every previously-degraded (or silently corrupted) run ends
//!    as a `Certified` labeling that passes `lcl::verify`, or as a typed
//!    `RepairFailed`; never a silently-invalid answer.
//! 2. **Interrupt/resume determinism** — a supervised tower build that
//!    breaches its budget mid-way, checkpoints through JSON, resumes,
//!    and finishes under an escalated budget is bit-identical
//!    (structural fingerprint) to an uninterrupted build, at 1, 2, and
//!    8 engine threads.
//! 3. **Repair soundness** — across catalog problem/algorithm pairs,
//!    models, and seeds, a `Certified` value is always verifier-clean.

use lcl_rng::SmallRng;

use lcl_bench::recover_report::{endpoints_problem, threshold_alg};
use lcl_landscape::core::{ReOptions, ReTower};
use lcl_landscape::faults::{Budget, Fault, FaultPlan, RunOptions};
use lcl_landscape::graph::gen;
use lcl_landscape::grid::{
    simulate_with as simulate_prod_with, FnProdAlgorithm, GridView, OrientedGrid, ProdIds,
};
use lcl_landscape::lcl::{uniform_input, verify, LclProblem, OutLabel};
use lcl_landscape::local::{simulate_sync_with, IdAssignment};
use lcl_landscape::obs::EventLog;
use lcl_landscape::problems::{k_coloring, sinkless_orientation, DeltaPlusOne};
use lcl_landscape::recover::{
    repair_lca_degraded, repair_prod_degraded, repair_sync_degraded, repair_volume_degraded,
    supervise_tower, RepairOptions, RetryPolicy,
};
use lcl_landscape::volume::lca::VolumeAsLca;
use lcl_landscape::volume::{simulate_lca_with, simulate_with as simulate_volume_with};

/// How one recovery attempt ended. `Invalid` must never appear.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Outcome {
    /// The labeling verifies — either untouched or after mending.
    Certified,
    /// Typed give-up: `RepairFailed` with the surviving violations.
    Failed,
    /// A `Certified` value that does not verify — the bug under test.
    Invalid,
}

/// A random plan restricted to crash and corrupt-view faults (the two
/// the repair loop is specified against), optionally permuting ids.
fn crash_corrupt_plan(seed: u64, n: usize) -> FaultPlan {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc0a5_7a10_cafe_0007);
    let mut plan = FaultPlan::new(seed);
    let count = 1 + (rng.next_u64() % 3);
    for _ in 0..count {
        let node = (rng.next_u64() % n as u64) as usize;
        if rng.next_u64().is_multiple_of(2) {
            plan = plan.with(Fault::Crash {
                node,
                round: (rng.next_u64() % 4) as u32,
            });
        } else {
            plan = plan.with(Fault::CorruptView {
                node,
                salt: rng.next_u64() % 1_000,
            });
        }
    }
    if rng.next_u64().is_multiple_of(2) {
        plan = plan.with_permuted_ids();
    }
    plan
}

/// One LOCAL (sync) recovery run: Δ+1 coloring on a path.
fn sync_recovery(seed: u64) -> Outcome {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x51);
    let n = 6 + (rng.next_u64() % 20) as usize;
    let g = gen::path(n);
    let input = uniform_input(&g);
    let ids: Vec<u64> = IdAssignment::random_polynomial(n, 3, seed ^ 1)
        .iter()
        .collect();
    let plan = crash_corrupt_plan(seed, n);
    let alg = DeltaPlusOne { delta: 2 };
    let p = k_coloring(3, 2);
    let report = simulate_sync_with(
        &alg,
        &g,
        &input,
        &ids,
        None,
        1000,
        RunOptions::new().faults(&plan),
    );
    let mended = repair_sync_degraded(
        &alg,
        &p,
        &g,
        &input,
        &ids,
        None,
        1000,
        &plan,
        &report.outcome,
        RepairOptions::default(),
    );
    classify(&mended.result, |out| verify(&p, &g, &input, out).is_empty())
}

/// One VOLUME recovery run on a path with ids `1..=n`.
fn volume_recovery(seed: u64) -> Outcome {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x52);
    let n = 4 + (rng.next_u64() % 20) as usize;
    let g = gen::path(n);
    let input = uniform_input(&g);
    let ids = IdAssignment::from_vec((1..=n as u64).collect());
    let plan = crash_corrupt_plan(seed, n);
    let alg = threshold_alg(n as u64);
    let p = endpoints_problem();
    let report = simulate_volume_with(
        &alg,
        &g,
        &input,
        &ids,
        None,
        RunOptions::new().faults(&plan),
    )
    .expect("faulted runs degrade instead of erroring");
    let mended = repair_volume_degraded(
        &alg,
        &p,
        &g,
        &input,
        &ids,
        None,
        &plan,
        &report.outcome,
        RepairOptions::default(),
    );
    classify(&mended.result, |out| verify(&p, &g, &input, out).is_empty())
}

/// One LCA recovery run: identifiers are exactly `1..=n` (the LCA
/// promise), which every plan's ID permutation preserves.
fn lca_recovery(seed: u64) -> Outcome {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x53);
    let n = 4 + (rng.next_u64() % 20) as usize;
    let g = gen::path(n);
    let input = uniform_input(&g);
    let ids = IdAssignment::from_vec((1..=n as u64).collect());
    let plan = crash_corrupt_plan(seed, n);
    let alg = VolumeAsLca(threshold_alg(n as u64));
    let p = endpoints_problem();
    let report = simulate_lca_with(&alg, &g, &input, &ids, RunOptions::new().faults(&plan))
        .expect("faulted runs degrade instead of erroring");
    let mended = repair_lca_degraded(
        &alg,
        &p,
        &g,
        &input,
        &ids,
        &plan,
        &report.outcome,
        RepairOptions::default(),
    );
    classify(&mended.result, |out| verify(&p, &g, &input, out).is_empty())
}

/// One PROD-LOCAL recovery run on an oriented grid.
fn prod_recovery(seed: u64) -> Outcome {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x54);
    let a = 3 + (rng.next_u64() % 4) as usize;
    let b = 3 + (rng.next_u64() % 4) as usize;
    let grid = OrientedGrid::new(&[a, b]);
    let input = uniform_input(grid.graph());
    let ids = ProdIds::sequential(&grid);
    let plan = crash_corrupt_plan(seed, grid.node_count());
    let p = LclProblem::builder("grid-free", 4)
        .outputs(["A", "X"])
        .node_pattern(&["A*"])
        .edge(&["A", "A"])
        .build()
        .unwrap();
    let alg = FnProdAlgorithm::new(
        "grid-threshold",
        |_| 1,
        |view: &GridView| {
            let label = if view.id(0, -1) > 64 {
                OutLabel(1)
            } else {
                OutLabel(0)
            };
            vec![label; 2 * view.d]
        },
    );
    let report = simulate_prod_with(
        &alg,
        &grid,
        &input,
        &ids,
        None,
        RunOptions::new().faults(&plan),
    );
    let mended = repair_prod_degraded(
        &alg,
        &p,
        &grid,
        &input,
        &ids,
        None,
        &plan,
        &report.outcome,
        RepairOptions::default(),
    );
    classify(&mended.result, |out| {
        verify(&p, grid.graph(), &input, out).is_empty()
    })
}

fn classify(
    result: &Result<
        lcl_landscape::recover::Certified<lcl_landscape::lcl::HalfEdgeLabeling<OutLabel>>,
        lcl_landscape::recover::RepairFailed,
    >,
    verifies: impl Fn(&lcl_landscape::lcl::HalfEdgeLabeling<OutLabel>) -> bool,
) -> Outcome {
    match result {
        Ok(certified) if verifies(certified.get()) => Outcome::Certified,
        Ok(_) => Outcome::Invalid,
        Err(failed) => {
            assert!(
                !failed.violations.is_empty(),
                "a typed failure must carry its violations"
            );
            Outcome::Failed
        }
    }
}

/// Runs all four models over `seeds` and asserts the loop is closed:
/// no `Invalid` ever, and damage does get certified somewhere.
fn soak_repair(seeds: u64) {
    #[allow(clippy::type_complexity)] // a fixed table of (name, runner)
    let runs: [(&str, fn(u64) -> Outcome); 4] = [
        ("sync", sync_recovery),
        ("volume", volume_recovery),
        ("lca", lca_recovery),
        ("prod", prod_recovery),
    ];
    let mut certified = 0u64;
    for (model, run) in runs {
        for seed in 0..seeds {
            let outcome = run(seed);
            assert!(
                outcome != Outcome::Invalid,
                "{model} seed {seed}: certified labeling failed verification"
            );
            if outcome == Outcome::Certified {
                certified += 1;
            }
        }
    }
    assert!(
        certified > 0,
        "the soak must certify at least one damaged run"
    );
}

#[test]
fn repair_closes_the_loop_smoke() {
    soak_repair(8);
}

/// The acceptance soak: 100 crash/corrupt seeds across all four models.
#[test]
#[ignore = "soak: run in release via scripts/check.sh"]
fn repair_closes_the_loop_soak() {
    soak_repair(100);
}

/// Repair soundness across problem/algorithm pairs, models, and seeds:
/// every `Certified` is verifier-clean (asserted inside `classify`), and
/// typed failures always carry violations.
#[test]
#[ignore = "soak: run in release via scripts/check.sh"]
fn repair_soundness_soak() {
    for seed in 0..50 {
        let _ = sync_recovery(seed ^ 0xa5a5);
        let _ = volume_recovery(seed ^ 0xa5a5);
        let _ = lca_recovery(seed ^ 0xa5a5);
        let _ = prod_recovery(seed ^ 0xa5a5);
    }
}

/// A supervised, budget-interrupted tower build is bit-identical to an
/// uninterrupted one at 1, 2, and 8 engine threads.
fn assert_supervised_tower_determinism(threads: &[usize]) {
    for &t in threads {
        let opts = ReOptions {
            parallel: t > 1,
            threads: t,
            ..ReOptions::default()
        };
        let mut plain = ReTower::new(sinkless_orientation(3));
        plain.push_f(opts).unwrap();
        plain.push_f(opts).unwrap();

        let log = EventLog::new(64);
        let recovery = supervise_tower(
            sinkless_orientation(3),
            2,
            opts,
            Budget::unlimited().with_max_rounds(2),
            RetryPolicy::default(),
            Some(&log),
        );
        assert!(
            recovery.gave_up.is_none(),
            "threads {t}: {:?}",
            recovery.gave_up
        );
        assert_eq!(
            recovery.tower.fingerprint(),
            plain.fingerprint(),
            "supervised resume must be bit-identical at {t} threads"
        );
        assert!(
            log.events().iter().any(|e| e.kind() == "retry"),
            "the tight budget must force at least one retry"
        );
    }
}

#[test]
fn supervised_tower_is_deterministic_smoke() {
    assert_supervised_tower_determinism(&[1, 2]);
}

#[test]
#[ignore = "soak: run in release via scripts/check.sh"]
fn supervised_tower_is_deterministic_soak() {
    assert_supervised_tower_determinism(&[1, 2, 8]);
}
