//! Recovery counters for the self-healing runtime, written to
//! `BENCH_recover.json` at the repository root.
//!
//! Where `BENCH_obs.json` traces the *happy path* of every Figure 1
//! panel, this report exercises the recovery path: each R1 stage runs a
//! faulted model entrypoint under a fixed [`FaultPlan`], hands the
//! degraded outcome to the matching `repair_*_degraded` wrapper, and
//! records the resulting `recover/…` trace (violations found, mending
//! rounds, nodes patched). The R2 stage drives a round-elimination tower
//! through [`supervise_tower`] under a deliberately tight budget, so the
//! trace carries the checkpoint/retry counters of a real interrupted
//! build. Every counter is deterministic; the `walls` section holds the
//! only nondeterministic quantities in the file, exactly as in the other
//! committed baselines the `bench-diff` gate checks.

use lcl::{uniform_input, LclProblem, OutLabel};
use lcl_core::ReOptions;
use lcl_faults::{Budget, Fault, FaultPlan, RunOptions};
use lcl_graph::gen;
use lcl_grid::{FnProdAlgorithm, OrientedGrid, ProdIds};
use lcl_local::IdAssignment;
use lcl_obs::{Counter, Registry, Trace};
use lcl_problems::catalog::sinkless_orientation;
use lcl_problems::{k_coloring, DeltaPlusOne};
use lcl_recover::{
    repair_lca_degraded, repair_prod_degraded, repair_sync_degraded, repair_volume_degraded,
    supervise_tower, RepairOptions, RetryPolicy,
};
use lcl_volume::lca::VolumeAsLca;
use lcl_volume::{FnVolumeAlgorithm, ProbeError, ProbeSession};

use crate::cells;
use crate::report::Report;
use crate::table::Table;

/// Path LCL solved by [`threshold_alg`]: endpoints label E, internal
/// nodes I; X is never valid, so corruption-induced X labels surface as
/// verifier violations. Shared with the recovery tests.
pub fn endpoints_problem() -> LclProblem {
    LclProblem::builder("endpoints", 2)
        .outputs(["E", "I", "X"])
        .node_pattern(&["E"])
        .node_pattern(&["I*"])
        .edge(&["E", "I"])
        .edge(&["I", "I"])
        .build()
        .expect("why: the endpoints description is a fixed, valid LCL")
}

/// Solves [`endpoints_problem`] on a path with ids `1..=n` from the
/// queried node alone — unless a corrupted view hands it an id beyond
/// `n`, which it trusts and betrays as the invalid label X (silent
/// corruption becomes visible damage).
#[allow(clippy::type_complexity)] // `impl Trait` closure types cannot be aliased
pub fn threshold_alg(
    n: u64,
) -> FnVolumeAlgorithm<
    impl Fn(usize) -> usize,
    impl Fn(&mut ProbeSession<'_>) -> Result<Vec<OutLabel>, ProbeError>,
> {
    FnVolumeAlgorithm::new(
        "threshold",
        |_| 1,
        move |s| {
            let d = s.queried().degree as usize;
            if s.queried().id > n {
                Ok(vec![OutLabel(2); d])
            } else if d == 1 {
                Ok(vec![OutLabel(0)])
            } else {
                Ok(vec![OutLabel(1); d])
            }
        },
    )
}

/// R1/sync — two adjacent crash-stops break a Δ+1 coloring on a path;
/// localized mending restores a certified 3-coloring.
fn collect_sync(reg: &Registry) {
    let g = gen::path(16);
    let input = uniform_input(&g);
    let ids: Vec<u64> = (1..=16).collect();
    let plan = FaultPlan::new(11)
        .with(Fault::Crash { node: 7, round: 0 })
        .with(Fault::Crash { node: 8, round: 0 });
    let alg = DeltaPlusOne { delta: 2 };
    let p = k_coloring(3, 2);
    let report = lcl_local::simulate_sync_with(
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
    reg.record("R1/sync/delta-plus-one", mended.trace);
}

/// R1/volume — a corrupted view makes the threshold algorithm emit the
/// poison label; repair patches the ball around the corrupted node.
fn collect_volume(reg: &Registry) {
    let n = 24usize;
    let g = gen::path(n);
    let input = uniform_input(&g);
    let ids = IdAssignment::from_vec((1..=n as u64).collect());
    let plan = FaultPlan::new(5).with(Fault::CorruptView { node: 11, salt: 9 });
    let p = endpoints_problem();
    let alg = threshold_alg(n as u64);
    let report = lcl_volume::simulate_with(
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
    reg.record("R1/volume/threshold", mended.trace);
}

/// R1/lca — the same corruption through the LCA embedding, this time
/// under an adversarial ID permutation the reference must reapply.
fn collect_lca(reg: &Registry) {
    let n = 24usize;
    let g = gen::path(n);
    let input = uniform_input(&g);
    let ids = IdAssignment::from_vec((1..=n as u64).collect());
    let plan = FaultPlan::new(21)
        .with(Fault::CorruptView { node: 5, salt: 7 })
        .with_permuted_ids();
    let p = endpoints_problem();
    let alg = VolumeAsLca(threshold_alg(n as u64));
    let report =
        lcl_volume::simulate_lca_with(&alg, &g, &input, &ids, RunOptions::new().faults(&plan))
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
    reg.record("R1/lca/threshold", mended.trace);
}

/// R1/prod — window-id corruption on an oriented grid; the free problem
/// rejects only the poison label, so the violation set is the corrupted
/// cell's neighborhood.
fn collect_prod(reg: &Registry) {
    let grid = OrientedGrid::new(&[6, 6]);
    let input = uniform_input(grid.graph());
    let ids = ProdIds::sequential(&grid);
    let p = LclProblem::builder("grid-free", 4)
        .outputs(["A", "X"])
        .node_pattern(&["A*"])
        .edge(&["A", "A"])
        .build()
        .expect("why: the grid-free description is a fixed, valid LCL");
    let alg = FnProdAlgorithm::new(
        "grid-threshold",
        |_| 1,
        |view: &lcl_grid::GridView| {
            let label = if view.id(0, -1) > 64 {
                OutLabel(1)
            } else {
                OutLabel(0)
            };
            vec![label; 2 * view.d]
        },
    );
    let plan = FaultPlan::new(3).with(Fault::CorruptView { node: 14, salt: 2 });
    let report = lcl_grid::simulate_with(
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
    reg.record("R1/prod/grid-threshold", mended.trace);
}

/// R2 — a supervised tower build under a round cap that breaches on the
/// second `f`-step, forcing a checkpoint/resume/escalate cycle before
/// the build completes.
fn collect_supervisor(reg: &Registry) {
    let recovery = supervise_tower(
        sinkless_orientation(3),
        2,
        ReOptions::default(),
        Budget::unlimited().with_max_rounds(2),
        RetryPolicy::default(),
        None,
    );
    reg.record("R2/tower/sinkless-supervised", recovery.trace);
}

/// Collects one registry covering the repair path of all four faulted
/// models plus the tower supervisor. Deterministic up to wall-clock.
pub fn collect_registry() -> Registry {
    let reg = Registry::new();
    collect_sync(&reg);
    collect_volume(&reg);
    collect_lca(&reg);
    collect_prod(&reg);
    collect_supervisor(&reg);
    reg
}

fn counter(trace: &Trace, c: Counter) -> u64 {
    trace.root().get(c).unwrap_or(0)
}

/// Runs every recovery stage and writes `BENCH_recover.json` at the
/// repository root. Returns the per-stage summary, or the write error.
pub fn recover_report() -> std::io::Result<Table> {
    let mut table = Table::new(
        "RECOVER — certified repair and supervised-resume counters",
        &[
            "stage",
            "violations",
            "repairs",
            "patched",
            "retries",
            "checkpoints",
            "wall",
        ],
    );
    let reg = collect_registry();
    for (label, trace) in reg.snapshot() {
        table.row(cells!(
            label,
            counter(&trace, Counter::Violations),
            counter(&trace, Counter::Repairs),
            counter(&trace, Counter::RepairedNodes),
            counter(&trace, Counter::Retries),
            counter(&trace, Counter::Checkpoints),
            format!("{:.2} ms", trace.root().wall().as_secs_f64() * 1e3)
        ));
    }

    Report::from_registry("recover", &reg).write()?;
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_model_and_the_supervisor() {
        let reg = collect_registry();
        let snapshot = reg.snapshot();
        let labels: Vec<&str> = snapshot.iter().map(|(label, _)| label.as_str()).collect();
        for stage in [
            "R1/sync/delta-plus-one",
            "R1/volume/threshold",
            "R1/lca/threshold",
            "R1/prod/grid-threshold",
            "R2/tower/sinkless-supervised",
        ] {
            assert!(labels.contains(&stage), "{stage} missing from {labels:?}");
        }
        // Every R1 stage found damage and mended it.
        for (label, trace) in &snapshot {
            if label.starts_with("R1/") {
                assert!(counter(trace, Counter::Violations) >= 1, "{label}");
                assert!(counter(trace, Counter::Repairs) >= 1, "{label}");
                assert!(counter(trace, Counter::RepairedNodes) >= 1, "{label}");
            }
        }
        // The tight budget forced at least one retry and two checkpoints.
        let (_, tower) = snapshot
            .iter()
            .find(|(label, _)| label.starts_with("R2/"))
            .expect("supervisor trace recorded");
        assert!(counter(tower, Counter::Retries) >= 1);
        assert!(counter(tower, Counter::Checkpoints) >= 2);
        let json = Report::from_registry("recover", &reg).to_json();
        assert!(json.contains("\"repairs\""));
        assert!(json.contains("\"checkpoints\""));
    }
}
