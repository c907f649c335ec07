//! Closing the loop on `Degraded` runs: certify-or-repair wrappers for
//! every faulted model.
//!
//! Each wrapper takes the degraded outcome of a faulted entrypoint
//! (any `simulate_*_with` call whose [`lcl_faults::RunOptions`] carried
//! a fault plan), re-verifies it, and — when the
//! faults actually broke the labeling — re-executes the *same* algorithm
//! fault-free under the *same* identifier permutation to obtain a
//! mending reference, then runs bounded local repair
//! ([`crate::repair`]). The result is always typed: [`Certified`] or
//! [`RepairFailed`], never a silently-invalid answer.
//!
//! The reference execution itself runs panic-isolated; if the algorithm
//! cannot complete even without injected faults (a genuine bug, or a
//! probe budget too small), repair reports the original violations with
//! zero rounds tried rather than guessing.

use lcl::{verify, HalfEdgeLabeling, InLabel, OutLabel, Problem};
use lcl_faults::{isolate, Degraded, FaultPlan, RunOptions};
use lcl_graph::Graph;
use lcl_grid::{OrientedGrid, ProdIds};
use lcl_local::sync::{SyncAlgorithm, SyncRun};
use lcl_local::{ids_under, IdAssignment, LocalAlgorithm, LocalRun};
use lcl_obs::{Counter, Span, Trace};
use lcl_volume::{LcaAlgorithm, VolumeAlgorithm, VolumeRun};

use crate::certify::{certify, repair, Certified, RepairFailed, RepairOptions};

/// A certify-or-repair pass over one degraded run: the typed outcome
/// plus the recovery trace (`Counter::Violations`, `Counter::Faults`,
/// `Counter::Repairs`, `Counter::RepairedNodes`).
#[derive(Clone, Debug)]
pub struct ModelRepair {
    /// [`Certified`] when the labeling verifies (possibly after
    /// mending), [`RepairFailed`] otherwise.
    pub result: Result<Certified<HalfEdgeLabeling<OutLabel>>, RepairFailed>,
    /// The recovery span.
    pub trace: Trace,
}

/// The shared certify-or-repair pass of every wrapper below: opens the
/// `recover/{model}/{alg}` span, runs the fault-free `reference`
/// panic-isolated, tries certification, and mends against the
/// reference when it completed.
#[allow(clippy::too_many_arguments)] // the wrappers' shared tail
fn certify_or_repair<P: Problem + ?Sized>(
    span: String,
    faults: usize,
    p: &P,
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    output: &HalfEdgeLabeling<OutLabel>,
    reference: impl FnOnce() -> Option<HalfEdgeLabeling<OutLabel>>,
    opts: RepairOptions,
) -> ModelRepair {
    let mut span = Span::start(span);
    span.set(Counter::Faults, faults as u64);
    let reference = isolate(reference).ok().flatten();
    let initial = verify(p, graph, input, output);
    span.set(Counter::Violations, initial.len() as u64);
    span.set(Counter::Repairs, 0);
    span.set(Counter::RepairedNodes, 0);
    let result = if initial.is_empty() {
        certify(p, graph, input, output.clone())
    } else if let Some(reference) = reference {
        repair(p, graph, input, output.clone(), &reference, opts).map(|(certified, report)| {
            span.set(Counter::Repairs, u64::from(report.rounds));
            span.set(Counter::RepairedNodes, report.patched_nodes);
            certified
        })
    } else {
        Err(RepairFailed {
            violations: initial,
            rounds_tried: 0,
        })
    };
    ModelRepair {
        result,
        trace: Trace::new(span.finish()),
    }
}

/// Certifies (and repairs if needed) the degraded outcome of
/// [`lcl_local::simulate_sync_with`] under a fault plan. The mending
/// reference is a fault-free run under the same ID permutation; one that
/// does not halt within `max_rounds` (or panics) counts as no reference,
/// so a non-halting algorithm degrades to [`RepairFailed`] instead of
/// aborting.
#[allow(clippy::too_many_arguments)] // mirrors the faulted entrypoint it wraps
pub fn repair_sync_degraded<A: SyncAlgorithm, P: Problem + ?Sized>(
    alg: &A,
    p: &P,
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &[u64],
    n_announced: Option<usize>,
    max_rounds: u32,
    plan: &FaultPlan,
    degraded: &Degraded<SyncRun>,
    opts: RepairOptions,
) -> ModelRepair {
    let ids = ids_under(ids, Some(plan));
    certify_or_repair(
        format!("recover/sync/{}", alg.name()),
        degraded.faults.len(),
        p,
        graph,
        input,
        &degraded.outcome.output,
        || {
            let run = lcl_local::simulate_sync_with(
                alg,
                graph,
                input,
                &ids,
                n_announced,
                max_rounds,
                RunOptions::new(),
            )
            .outcome;
            run.faults.is_empty().then_some(run.outcome.output)
        },
        opts,
    )
}

/// Certifies (and repairs if needed) the degraded outcome of
/// [`lcl_local::simulate_with`] under a fault plan (the view-based
/// LOCAL executor).
#[allow(clippy::too_many_arguments)] // mirrors the faulted entrypoint it wraps
pub fn repair_local_degraded<P: Problem + ?Sized>(
    alg: &(impl LocalAlgorithm + ?Sized),
    p: &P,
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &IdAssignment,
    n_announced: Option<usize>,
    plan: &FaultPlan,
    degraded: &Degraded<LocalRun>,
    opts: RepairOptions,
) -> ModelRepair {
    let ids = ids.under(Some(plan));
    let reference = || {
        let run = lcl_local::simulate_with(alg, graph, input, &ids, n_announced, RunOptions::new());
        Some(run.outcome.outcome.output)
    };
    certify_or_repair(
        format!("recover/local/{}", alg.name()),
        degraded.faults.len(),
        p,
        graph,
        input,
        &degraded.outcome.output,
        reference,
        opts,
    )
}

/// Certifies (and repairs if needed) the degraded outcome of
/// [`lcl_volume::simulate_with`] under a fault plan. A reference run that errors on a
/// probe (or panics) yields [`RepairFailed`] with zero rounds tried.
#[allow(clippy::too_many_arguments)] // mirrors the faulted entrypoint it wraps
pub fn repair_volume_degraded<P: Problem + ?Sized>(
    alg: &(impl VolumeAlgorithm + ?Sized),
    p: &P,
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &IdAssignment,
    n_announced: Option<usize>,
    plan: &FaultPlan,
    degraded: &Degraded<VolumeRun>,
    opts: RepairOptions,
) -> ModelRepair {
    let ids = ids.under(Some(plan));
    let reference = || {
        let run =
            lcl_volume::simulate_with(alg, graph, input, &ids, n_announced, RunOptions::new());
        run.ok().map(|run| run.outcome.outcome.output)
    };
    certify_or_repair(
        format!("recover/volume/{}", alg.name()),
        degraded.faults.len(),
        p,
        graph,
        input,
        &degraded.outcome.output,
        reference,
        opts,
    )
}

/// Certifies (and repairs if needed) the degraded outcome of
/// [`lcl_volume::simulate_lca_with`] under a fault plan.
#[allow(clippy::too_many_arguments)] // mirrors the faulted entrypoint it wraps
pub fn repair_lca_degraded<P: Problem + ?Sized>(
    alg: &(impl LcaAlgorithm + ?Sized),
    p: &P,
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &IdAssignment,
    plan: &FaultPlan,
    degraded: &Degraded<VolumeRun>,
    opts: RepairOptions,
) -> ModelRepair {
    let ids = ids.under(Some(plan));
    let reference = || {
        let run = lcl_volume::simulate_lca_with(alg, graph, input, &ids, RunOptions::new());
        run.ok().map(|run| run.outcome.outcome.output)
    };
    certify_or_repair(
        format!("recover/lca/{}", alg.name()),
        degraded.faults.len(),
        p,
        graph,
        input,
        &degraded.outcome.output,
        reference,
        opts,
    )
}

/// Certifies (and repairs if needed) the degraded outcome of
/// [`lcl_grid::simulate_with`] under a fault plan. The reference applies the same
/// per-dimension slice-identifier permutations the faulted run used.
#[allow(clippy::too_many_arguments)] // mirrors the faulted entrypoint it wraps
pub fn repair_prod_degraded<P: Problem + ?Sized>(
    alg: &(impl lcl_grid::ProdLocalAlgorithm + ?Sized),
    p: &P,
    grid: &OrientedGrid,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &ProdIds,
    n_announced: Option<usize>,
    plan: &FaultPlan,
    degraded: &Degraded<lcl_grid::ProdRun>,
    opts: RepairOptions,
) -> ModelRepair {
    let ids = ids.under(Some(plan));
    let reference = || {
        let run = lcl_grid::simulate_with(alg, grid, input, &ids, n_announced, RunOptions::new());
        Some(run.outcome.outcome.output)
    };
    certify_or_repair(
        format!("recover/prod/{}", alg.name()),
        degraded.faults.len(),
        p,
        grid.graph(),
        input,
        &degraded.outcome.output,
        reference,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl::{uniform_input, LclProblem};
    use lcl_faults::Fault;
    use lcl_graph::gen;
    use lcl_grid::FnProdAlgorithm;
    use lcl_problems::{k_coloring, DeltaPlusOne};
    use lcl_volume::lca::VolumeAsLca;
    use lcl_volume::{FnVolumeAlgorithm, ProbeError, ProbeSession};

    /// Path LCL: endpoints label E, internal nodes I; X is never valid.
    fn endpoints_problem() -> LclProblem {
        LclProblem::builder("endpoints", 2)
            .outputs(["E", "I", "X"])
            .node_pattern(&["E"])
            .node_pattern(&["I*"])
            .edge(&["E", "I"])
            .edge(&["I", "I"])
            .build()
            .unwrap()
    }

    /// Solves [`endpoints_problem`] on a path with ids `1..=n` — unless a
    /// corrupted view hands it an out-of-range id, which betrays itself
    /// as the invalid label X.
    #[allow(clippy::type_complexity)] // `impl Trait` closure types cannot be aliased
    fn threshold_alg(
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

    #[test]
    fn sync_crash_damage_repairs_to_a_certified_coloring() {
        let g = gen::path(8);
        let input = uniform_input(&g);
        let ids: Vec<u64> = (1..=8).collect();
        // Two adjacent crashes both emit the placeholder color 0, so the
        // shared edge is guaranteed monochromatic.
        let plan = FaultPlan::new(11)
            .with(Fault::Crash { node: 3, round: 0 })
            .with(Fault::Crash { node: 4, round: 0 });
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
        let degraded = &report.outcome;
        assert!(degraded.is_degraded(), "crashes must be recorded");
        let mended = repair_sync_degraded(
            &alg,
            &p,
            &g,
            &input,
            &ids,
            None,
            1000,
            &plan,
            degraded,
            RepairOptions::default(),
        );
        let certified = mended.result.unwrap();
        assert!(verify(&p, &g, &input, certified.get()).is_empty());
        assert!(mended.trace.total(Counter::Faults) >= 2);
        assert!(mended.trace.total(Counter::Violations) >= 1);
        assert!(mended.trace.total(Counter::Repairs) >= 1);
        assert!(mended.trace.total(Counter::RepairedNodes) >= 1);
    }

    #[test]
    fn volume_view_corruption_repairs_to_a_certified_labeling() {
        let n = 9usize;
        let g = gen::path(n);
        let input = uniform_input(&g);
        let ids = IdAssignment::from_vec((1..=n as u64).collect());
        let plan = FaultPlan::new(5).with(Fault::CorruptView { node: 4, salt: 9 });
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
        let degraded = &report.outcome;
        // Silent corruption: the labeling is wrong, not marked degraded.
        assert!(!verify(&p, &g, &input, &degraded.outcome.output).is_empty());
        let mended = repair_volume_degraded(
            &alg,
            &p,
            &g,
            &input,
            &ids,
            None,
            &plan,
            degraded,
            RepairOptions::default(),
        );
        let certified = mended.result.unwrap();
        assert!(verify(&p, &g, &input, certified.get()).is_empty());
        assert!(mended.trace.total(Counter::Violations) >= 1);
        assert!(mended.trace.total(Counter::Repairs) >= 1);
    }

    #[test]
    fn lca_corruption_repairs_under_a_permuted_id_plan() {
        let n = 10usize;
        let g = gen::path(n);
        let input = uniform_input(&g);
        let ids = IdAssignment::from_vec((1..=n as u64).collect());
        let plan = FaultPlan::new(21)
            .with(Fault::CorruptView { node: 2, salt: 7 })
            .with_permuted_ids();
        let p = endpoints_problem();
        let alg = VolumeAsLca(threshold_alg(n as u64));
        let report =
            lcl_volume::simulate_lca_with(&alg, &g, &input, &ids, RunOptions::new().faults(&plan))
                .expect("faulted runs degrade instead of erroring");
        let degraded = &report.outcome;
        assert!(!verify(&p, &g, &input, &degraded.outcome.output).is_empty());
        let mended = repair_lca_degraded(
            &alg,
            &p,
            &g,
            &input,
            &ids,
            &plan,
            degraded,
            RepairOptions::default(),
        );
        let certified = mended.result.unwrap();
        assert!(verify(&p, &g, &input, certified.get()).is_empty());
    }

    #[test]
    fn prod_corruption_repairs_and_clean_runs_certify_without_mending() {
        let grid = OrientedGrid::new(&[4, 4]);
        let input = uniform_input(grid.graph());
        let ids = ProdIds::sequential(&grid);
        let p = LclProblem::builder("grid-free", 4)
            .outputs(["A", "X"])
            .node_pattern(&["A*"])
            .edge(&["A", "A"])
            .build()
            .unwrap();
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
        let plan = FaultPlan::new(3).with(Fault::CorruptView { node: 5, salt: 2 });
        let report = lcl_grid::simulate_with(
            &alg,
            &grid,
            &input,
            &ids,
            None,
            RunOptions::new().faults(&plan),
        );
        let degraded = &report.outcome;
        assert!(!verify(&p, grid.graph(), &input, &degraded.outcome.output).is_empty());
        let mended = repair_prod_degraded(
            &alg,
            &p,
            &grid,
            &input,
            &ids,
            None,
            &plan,
            degraded,
            RepairOptions::default(),
        );
        assert!(verify(&p, grid.graph(), &input, mended.result.unwrap().get()).is_empty());

        // A fault-free plan certifies on the spot: zero mending rounds.
        let clean_plan = FaultPlan::new(3);
        let clean = lcl_grid::simulate_with(
            &alg,
            &grid,
            &input,
            &ids,
            None,
            RunOptions::new().faults(&clean_plan),
        );
        let mended = repair_prod_degraded(
            &alg,
            &p,
            &grid,
            &input,
            &ids,
            None,
            &clean_plan,
            &clean.outcome,
            RepairOptions::default(),
        );
        assert!(mended.result.is_ok());
        assert_eq!(mended.trace.total(Counter::Repairs), 0);
        assert_eq!(mended.trace.total(Counter::Violations), 0);
    }

    /// Never halts and labels every port 0.
    struct Stubborn;

    impl SyncAlgorithm for Stubborn {
        type State = usize;
        type Msg = ();
        fn init(&self, init: &lcl_local::NodeInit) -> usize {
            init.degree as usize
        }
        fn send(&self, degree: &usize, _round: u32) -> Vec<()> {
            vec![(); *degree]
        }
        fn receive(&self, _degree: &mut usize, _inbox: &[()], _round: u32) {}
        fn is_done(&self, _degree: &usize) -> bool {
            false
        }
        fn output(&self, degree: &usize) -> Vec<OutLabel> {
            vec![OutLabel(0); *degree]
        }
        fn name(&self) -> &str {
            "stubborn"
        }
    }

    #[test]
    fn a_non_halting_sync_reference_yields_a_typed_repair_failure() {
        let g = gen::path(6);
        let input = uniform_input(&g);
        let ids: Vec<u64> = (1..=6).collect();
        let plan = FaultPlan::new(3).with(Fault::Crash { node: 2, round: 0 });
        let p = k_coloring(3, 2);
        let report = lcl_local::simulate_sync_with(
            &Stubborn,
            &g,
            &input,
            &ids,
            None,
            8,
            RunOptions::new().faults(&plan),
        );
        let degraded = &report.outcome;
        assert!(degraded.is_degraded());
        assert!(!verify(&p, &g, &input, &degraded.outcome.output).is_empty());
        let mended = repair_sync_degraded(
            &Stubborn,
            &p,
            &g,
            &input,
            &ids,
            None,
            8,
            &plan,
            degraded,
            RepairOptions::default(),
        );
        let failed = mended.result.unwrap_err();
        assert_eq!(
            failed.rounds_tried, 0,
            "a degraded reference is no reference"
        );
        assert!(!failed.violations.is_empty());
    }

    #[test]
    fn a_failing_reference_yields_a_typed_repair_failure() {
        let n = 6usize;
        let g = gen::path(n);
        let input = uniform_input(&g);
        let ids = IdAssignment::from_vec((1..=n as u64).collect());
        // Zero probe budget but the answer probes: even the fault-free
        // reference run fails, so nothing can mend the bad output.
        let alg = FnVolumeAlgorithm::new(
            "over-budget",
            |_| 0,
            |s: &mut ProbeSession<'_>| {
                let d = s.queried().degree as usize;
                let first = s.probe(0, 0)?;
                Ok(vec![OutLabel((first.id % 2) as u32); d])
            },
        );
        let p = endpoints_problem();
        let plan = FaultPlan::new(1);
        let report = lcl_volume::simulate_with(
            &alg,
            &g,
            &input,
            &ids,
            None,
            RunOptions::new().faults(&plan),
        )
        .expect("faulted runs degrade instead of erroring");
        let degraded = &report.outcome;
        assert!(!verify(&p, &g, &input, &degraded.outcome.output).is_empty());
        let mended = repair_volume_degraded(
            &alg,
            &p,
            &g,
            &input,
            &ids,
            None,
            &plan,
            degraded,
            RepairOptions::default(),
        );
        let failed = mended.result.unwrap_err();
        assert_eq!(failed.rounds_tried, 0, "no reference, no mending rounds");
        assert!(!failed.violations.is_empty());
    }
}
