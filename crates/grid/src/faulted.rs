//! Fault-injected PROD-LOCAL execution with graceful degradation.
//!
//! The fault-plan path of [`simulate_with`](crate::run::simulate_with):
//! a [`FaultPlan`] is applied deterministically, every cell's labeling
//! invocation runs panic-isolated, and every fault becomes a typed
//! [`NodeFault`] record plus an [`lcl_obs::Event::Fault`] in the event
//! log — the run never aborts.
//!
//! Fault semantics on oriented grids (view-based, so "rounds" are 0):
//!
//! * **Crash-stop** — the cell cannot collect its radius-`T` box and
//!   emits placeholder labels.
//! * **View corruption** — the per-dimension slice identifiers visible
//!   in the cell's window are XOR-perturbed (the cell's own coordinates
//!   excepted); the cell still answers, possibly incorrectly.
//! * **ID permutation** — each dimension's slice-identifier table is
//!   reshuffled ([`ProdIds::permuted`]), exploring Definition 5.2's
//!   quantifier over assignments.
//! * **Panics / wrong arity** — isolated and recorded; the cell emits
//!   placeholder labels.

use lcl::{HalfEdgeLabeling, InLabel, OutLabel};
use lcl_faults::{inject_panic, isolate, plan::perturb, Degraded, FaultPlan, NodeFault};
use lcl_obs::{Counter, Event, EventLog, RunReport, Span, Trace};

use crate::grid::OrientedGrid;
use crate::ids::ProdIds;
use crate::run::{build_view, ProdLocalAlgorithm, ProdRun};

fn record_fault(
    faults: &mut Vec<NodeFault>,
    log: Option<&EventLog>,
    node: u64,
    tag: &'static str,
    payload: String,
) {
    if let Some(log) = log {
        log.record(Event::Fault {
            node,
            round: 0,
            fault: tag,
        });
    }
    faults.push(NodeFault {
        node,
        round: 0,
        payload,
    });
}

pub(crate) fn simulate_prod_faulted_impl(
    alg: &(impl ProdLocalAlgorithm + ?Sized),
    grid: &OrientedGrid,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &ProdIds,
    n_announced: Option<usize>,
    plan: &FaultPlan,
    log: Option<&EventLog>,
) -> RunReport<Degraded<ProdRun>> {
    let permuted;
    let ids = if plan.permutes_ids() {
        let perms: Vec<Vec<usize>> = grid
            .dims()
            .iter()
            .map(|&s| {
                plan.permutation(s)
                    .expect("why: permutes_ids() returned true, so permutation() is Some")
            })
            .collect();
        permuted = ids.permuted(&perms);
        &permuted
    } else {
        ids
    };
    let n = n_announced.unwrap_or_else(|| grid.node_count());
    let radius = alg.radius(n);
    let mut span = Span::start(format!("prod-local/faulted/{}", alg.name()));
    let d = grid.dimension_count();
    let window = (2 * radius as u64 + 1).pow(d as u32);
    let mut view_nodes = 0u64;
    let mut faults = Vec::new();
    let output = HalfEdgeLabeling::from_node_fn(grid.graph(), |v| {
        let node = v.index() as u64;
        if plan.crash_round(v.index()).is_some() {
            record_fault(&mut faults, log, node, "crash-stop", "crash-stop".into());
            return vec![OutLabel(0); 2 * d];
        }
        let mut view = build_view(grid, input, ids, v, radius, n);
        view_nodes += window;
        span.observe(Counter::ViewNodes, window);
        if let Some(salt) = plan.corrupt_salt(v.index()) {
            if let Some(log) = log {
                log.record(Event::Fault {
                    node,
                    round: 0,
                    fault: "corrupt-view",
                });
            }
            // The cell still knows its own slice identifiers (offset 0 in
            // every dimension, index `radius`); the rest of the window is
            // the adversary's to rewrite.
            let t = radius as usize;
            let mut word = 0u64;
            for row in view.ids.iter_mut() {
                for (i, id) in row.iter_mut().enumerate() {
                    if i != t {
                        *id ^= perturb(salt, word);
                    }
                    word += 1;
                }
            }
        }
        let labels = if plan.panics(v.index()) {
            isolate(|| inject_panic(node))
        } else {
            isolate(|| alg.label(&view))
        };
        match labels {
            Ok(labels) if labels.len() == 2 * d => labels,
            Ok(labels) => {
                let payload = format!("returned {} labels for {} ports", labels.len(), 2 * d);
                record_fault(&mut faults, log, node, "wrong-arity", payload);
                vec![OutLabel(0); 2 * d]
            }
            Err(payload) => {
                record_fault(&mut faults, log, node, "panic", payload);
                vec![OutLabel(0); 2 * d]
            }
        }
    });
    span.set(Counter::Nodes, grid.node_count() as u64);
    span.set(Counter::Edges, grid.graph().edge_count() as u64);
    span.set(Counter::Queries, grid.node_count() as u64);
    span.set(Counter::Radius, u64::from(radius));
    span.set(Counter::Rounds, u64::from(radius));
    span.set(Counter::ViewNodes, view_nodes);
    span.set(Counter::Faults, faults.len() as u64);
    let degraded = Degraded {
        outcome: ProdRun { output, radius },
        faults,
    };
    RunReport::new(degraded, Trace::new(span.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::FnProdAlgorithm;
    use lcl_faults::Fault;

    fn echo_alg(
    ) -> FnProdAlgorithm<impl Fn(usize) -> u32, impl Fn(&crate::view::GridView) -> Vec<OutLabel>>
    {
        FnProdAlgorithm::new(
            "echo-x",
            |_| 1,
            |view| vec![OutLabel((view.id(0, 0) % 1000) as u32); 2 * view.d],
        )
    }

    #[test]
    fn empty_plan_matches_the_unfaulted_run() {
        let grid = OrientedGrid::new(&[4, 5]);
        let ids = ProdIds::sequential(&grid);
        let input = lcl::uniform_input(grid.graph());
        let plan = FaultPlan::new(3);
        let report =
            simulate_prod_faulted_impl(&echo_alg(), &grid, &input, &ids, None, &plan, None);
        assert!(!report.outcome.is_degraded());
        let plain = crate::run::simulate_impl(&echo_alg(), &grid, &input, &ids, None, None);
        assert_eq!(report.outcome.outcome, plain.outcome);
    }

    #[test]
    fn crash_and_panic_degrade_cells_without_aborting() {
        let grid = OrientedGrid::new(&[3, 3]);
        let ids = ProdIds::sequential(&grid);
        let input = lcl::uniform_input(grid.graph());
        let plan = FaultPlan::new(0)
            .with(Fault::Crash { node: 1, round: 0 })
            .with(Fault::PanicNode { node: 4 });
        let log = EventLog::new(64);
        let report =
            simulate_prod_faulted_impl(&echo_alg(), &grid, &input, &ids, None, &plan, Some(&log));
        let degraded = &report.outcome;
        assert_eq!(degraded.faults.len(), 2);
        assert_eq!(degraded.faults[0].payload, "crash-stop");
        assert!(degraded.faults[1]
            .payload
            .contains("injected panic at node 4"));
        assert_eq!(report.trace.total(Counter::Faults), 2);
        let fault_events = log
            .events()
            .iter()
            .filter(|e| matches!(e, Event::Fault { .. }))
            .count();
        assert_eq!(fault_events, 2);
    }

    #[test]
    fn corrupt_window_spares_the_cells_own_slices() {
        let grid = OrientedGrid::new(&[4, 4]);
        let ids = ProdIds::sequential(&grid);
        let input = lcl::uniform_input(grid.graph());
        // Echo own dim-0 id: corruption must not change it (offset 0 is
        // the cell's own slice), even though neighbors are perturbed.
        let plan = FaultPlan::new(0).with(Fault::CorruptView { node: 5, salt: 9 });
        let honest = simulate_prod_faulted_impl(
            &echo_alg(),
            &grid,
            &input,
            &ids,
            None,
            &FaultPlan::new(0),
            None,
        );
        let corrupted =
            simulate_prod_faulted_impl(&echo_alg(), &grid, &input, &ids, None, &plan, None);
        assert!(!corrupted.outcome.is_degraded(), "silent corruption");
        assert_eq!(corrupted.outcome.outcome, honest.outcome.outcome);
        // An algorithm reading a *neighbor* slice does see the corruption.
        let neighbor_alg = FnProdAlgorithm::new(
            "echo-left",
            |_| 1,
            |view| vec![OutLabel((view.id(0, -1) % 1000) as u32); 2 * view.d],
        );
        let honest = simulate_prod_faulted_impl(
            &neighbor_alg,
            &grid,
            &input,
            &ids,
            None,
            &FaultPlan::new(0),
            None,
        );
        let corrupted =
            simulate_prod_faulted_impl(&neighbor_alg, &grid, &input, &ids, None, &plan, None);
        assert_ne!(corrupted.outcome.outcome, honest.outcome.outcome);
    }

    #[test]
    fn id_permutation_reshuffles_slices_deterministically() {
        let grid = OrientedGrid::new(&[4, 5]);
        let ids = ProdIds::sequential(&grid);
        let input = lcl::uniform_input(grid.graph());
        let plan = FaultPlan::new(17).with_permuted_ids();
        let a = simulate_prod_faulted_impl(&echo_alg(), &grid, &input, &ids, None, &plan, None);
        let b = simulate_prod_faulted_impl(&echo_alg(), &grid, &input, &ids, None, &plan, None);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.trace.fingerprint(), b.trace.fingerprint());
        // Per column, outputs are a permutation of the sequential ids.
        let mut seen: Vec<u32> = (0..4)
            .map(|x| {
                let v = grid.node_at(&[x, 0]);
                a.outcome.outcome.output.get(grid.graph().half_edge(v, 0)).0
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }
}
