//! Fault-injected VOLUME/LCA execution with graceful degradation.
//!
//! The fault-plan paths of [`simulate_with`](crate::simulate_with) and
//! [`simulate_lca_with`](crate::simulate_lca_with): a [`FaultPlan`] is applied
//! deterministically, each query's `answer` invocation runs
//! panic-isolated, and every fault becomes a typed [`NodeFault`] record
//! plus an [`lcl_obs::Event::Fault`] in the event log.
//!
//! Fault semantics in the query model (nodes are queried independently,
//! so "rounds" degenerate to the probe sequence):
//!
//! * **Crash-stop** — the queried node is unreachable; its query goes
//!   unanswered and placeholder labels are emitted.
//! * **View corruption** — the queried node's own `t_v` identifier is
//!   perturbed before the algorithm sees it; the query still answers.
//! * **Probe lie** — the `nth` probe of that query returns (and
//!   records into the transcript) a perturbed identifier.
//! * **Panics** — isolated; the query degrades to placeholder labels.
//! * **Probe errors under a plan** — a [`ProbeError`](crate::ProbeError) hit while a fault
//!   plan is active degrades that single query instead of failing the
//!   whole run, so chaos soaks observe the trichotomy (valid output /
//!   typed error / typed degradation) rather than an abort. The plain
//!   entrypoints keep the typed-error leg.

use lcl::{HalfEdgeLabeling, InLabel, OutLabel};
use lcl_faults::{inject_panic, isolate, Degraded, FaultPlan, NodeFault};
use lcl_graph::Graph;
use lcl_obs::{Counter, Event, EventLog, RunReport, Span, Trace};

use lcl_local::IdAssignment;

use crate::algorithm::{ProbeSession, VolumeAlgorithm};
use crate::lca::{LcaAlgorithm, LcaSession};
use crate::run::VolumeRun;

fn record_fault(
    faults: &mut Vec<NodeFault>,
    log: Option<&EventLog>,
    node: u64,
    round: u64,
    tag: &'static str,
    payload: String,
) {
    if let Some(log) = log {
        log.record(Event::Fault {
            node,
            round,
            fault: tag,
        });
    }
    faults.push(NodeFault {
        node,
        round,
        payload,
    });
}

/// Shared per-query fault scaffolding for the VOLUME and LCA executors:
/// applies crash/panic/lie faults around `answer`, converts panics and
/// probe errors into [`NodeFault`]s, and enforces the arity contract.
#[allow(clippy::too_many_arguments)]
fn answer_faulted<'a, F>(
    graph: &'a Graph,
    input: &'a HalfEdgeLabeling<InLabel>,
    ids: &'a IdAssignment,
    v: lcl_graph::NodeId,
    budget: usize,
    n: usize,
    plan: &FaultPlan,
    log: Option<&'a EventLog>,
    faults: &mut Vec<NodeFault>,
    answer: F,
) -> (Vec<OutLabel>, usize)
where
    F: FnOnce(&mut ProbeSession<'a>) -> Result<Vec<OutLabel>, crate::ProbeError>,
{
    let degree = graph.degree(v) as usize;
    let node = v.index() as u64;
    if let Some(round) = plan.crash_round(v.index()) {
        record_fault(
            faults,
            log,
            node,
            u64::from(round),
            "crash-stop",
            "crash-stop".into(),
        );
        return (vec![OutLabel(0); degree], 0);
    }
    let mut session = ProbeSession::new(graph, input, ids, v, budget, n, log);
    if let Some(salt) = plan.corrupt_salt(v.index()) {
        if let Some(log) = log {
            log.record(Event::Fault {
                node,
                round: 0,
                fault: "corrupt-view",
            });
        }
        session.corrupt_queried(salt);
    }
    if let Some(nth) = plan.probe_lie(v.index()) {
        session.set_probe_lie(nth, plan.seed() ^ node);
    }
    let result = if plan.panics(v.index()) {
        isolate(|| inject_panic(node))
    } else {
        isolate(|| answer(&mut session))
    };
    let probes = session.probes_used();
    match result {
        Ok(Ok(labels)) if labels.len() == degree => (labels, probes),
        Ok(Ok(labels)) => {
            let payload = format!(
                "returned {} labels for a degree-{degree} query",
                labels.len()
            );
            record_fault(faults, log, node, 0, "wrong-arity", payload);
            (vec![OutLabel(0); degree], probes)
        }
        Ok(Err(probe_error)) => {
            record_fault(faults, log, node, 0, "probe-error", probe_error.to_string());
            (vec![OutLabel(0); degree], probes)
        }
        Err(payload) => {
            record_fault(faults, log, node, 0, "panic", payload);
            (vec![OutLabel(0); degree], probes)
        }
    }
}

pub(crate) fn simulate_faulted_impl(
    alg: &(impl VolumeAlgorithm + ?Sized),
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &IdAssignment,
    n_announced: Option<usize>,
    plan: &FaultPlan,
    log: Option<&EventLog>,
) -> RunReport<Degraded<VolumeRun>> {
    assert_eq!(ids.len(), graph.node_count(), "ids cover the graph");
    let permuted;
    let ids = match plan.permutation(graph.node_count()) {
        Some(perm) => {
            permuted = ids.permuted(&perm);
            &permuted
        }
        None => ids,
    };
    let n = n_announced.unwrap_or_else(|| graph.node_count());
    let budget = alg.probe_budget(n);
    let mut span = Span::start(format!("volume/faulted/{}", alg.name()));
    let mut faults = Vec::new();
    let mut max_probes = 0usize;
    let mut total_probes = 0usize;
    let output = HalfEdgeLabeling::from_node_fn(graph, |v| {
        assert!(
            graph.degree(v) > 0,
            "the VOLUME model excludes isolated nodes"
        );
        let (labels, probes) = answer_faulted(
            graph,
            input,
            ids,
            v,
            budget,
            n,
            plan,
            log,
            &mut faults,
            |session| alg.answer(session),
        );
        max_probes = max_probes.max(probes);
        total_probes += probes;
        span.observe(Counter::Probes, probes as u64);
        labels
    });
    span.set(Counter::Nodes, graph.node_count() as u64);
    span.set(Counter::Edges, graph.edge_count() as u64);
    span.set(Counter::Queries, graph.node_count() as u64);
    span.set(Counter::Probes, total_probes as u64);
    span.set(Counter::MaxProbes, max_probes as u64);
    span.set(Counter::Faults, faults.len() as u64);
    let degraded = Degraded {
        outcome: VolumeRun {
            output,
            max_probes,
            total_probes,
        },
        faults,
    };
    RunReport::new(degraded, Trace::new(span.finish()))
}

pub(crate) fn simulate_lca_faulted_impl(
    alg: &(impl LcaAlgorithm + ?Sized),
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &IdAssignment,
    plan: &FaultPlan,
    log: Option<&EventLog>,
) -> RunReport<Degraded<VolumeRun>> {
    let n = graph.node_count();
    assert_eq!(ids.len(), n, "ids cover the graph");
    let mut sorted: Vec<u64> = ids.iter().collect();
    sorted.sort_unstable();
    assert!(
        sorted == (1..=n as u64).collect::<Vec<_>>(),
        "LCA identifiers must be exactly 1..=n"
    );
    let permuted;
    let ids = match plan.permutation(n) {
        Some(perm) => {
            permuted = ids.permuted(&perm);
            &permuted
        }
        None => ids,
    };
    let budget = alg.probe_budget(n);
    let mut span = Span::start(format!("lca/faulted/{}", alg.name()));
    let mut faults = Vec::new();
    let mut max_probes = 0usize;
    let mut total_probes = 0usize;
    let mut far_probes = 0usize;
    let output = HalfEdgeLabeling::from_node_fn(graph, |v| {
        assert!(
            graph.degree(v) > 0,
            "the VOLUME model excludes isolated nodes"
        );
        let mut far_used = 0usize;
        let (labels, probes) = answer_faulted(
            graph,
            input,
            ids,
            v,
            budget,
            n,
            plan,
            log,
            &mut faults,
            |session| {
                let mut lca = LcaSession::new(session, graph, input, ids);
                let out = alg.answer(&mut lca);
                far_used = lca.far_probes_used();
                out
            },
        );
        let used = probes + far_used;
        far_probes += far_used;
        max_probes = max_probes.max(used);
        total_probes += used;
        span.observe(Counter::Probes, used as u64);
        labels
    });
    span.set(Counter::Nodes, graph.node_count() as u64);
    span.set(Counter::Edges, graph.edge_count() as u64);
    span.set(Counter::Queries, graph.node_count() as u64);
    span.set(Counter::Probes, total_probes as u64);
    span.set(Counter::MaxProbes, max_probes as u64);
    span.set(Counter::FarProbes, far_probes as u64);
    span.set(Counter::Faults, faults.len() as u64);
    let degraded = Degraded {
        outcome: VolumeRun {
            output,
            max_probes,
            total_probes,
        },
        faults,
    };
    RunReport::new(degraded, Trace::new(span.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::FnVolumeAlgorithm;
    use crate::lca::VolumeAsLca;
    use lcl_faults::Fault;
    use lcl_graph::gen;

    #[allow(clippy::type_complexity)] // `impl Trait` closure types cannot be aliased
    fn neighbor_id_alg() -> FnVolumeAlgorithm<
        impl Fn(usize) -> usize,
        impl Fn(&mut ProbeSession<'_>) -> Result<Vec<OutLabel>, crate::ProbeError>,
    > {
        FnVolumeAlgorithm::new(
            "first-neighbor",
            |_| 1,
            |s| {
                let d = s.queried().degree as usize;
                let n0 = s.probe(0, 0)?;
                Ok(vec![OutLabel((n0.id % 1000) as u32); d])
            },
        )
    }

    #[test]
    fn empty_plan_matches_the_unfaulted_run() {
        let g = gen::cycle(6);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(6);
        let plan = FaultPlan::new(5);
        let report = simulate_faulted_impl(&neighbor_id_alg(), &g, &input, &ids, None, &plan, None);
        assert!(!report.outcome.is_degraded());
        let plain =
            crate::run::run_volume(&neighbor_id_alg(), &g, &input, &ids, None).expect("in budget");
        assert_eq!(report.outcome.outcome, plain);
    }

    #[test]
    fn crash_panic_and_probe_errors_degrade_per_query() {
        let g = gen::cycle(6);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(6);
        let plan = FaultPlan::new(0)
            .with(Fault::Crash { node: 1, round: 0 })
            .with(Fault::PanicNode { node: 3 });
        let log = EventLog::new(64);
        let report = simulate_faulted_impl(
            &neighbor_id_alg(),
            &g,
            &input,
            &ids,
            None,
            &plan,
            Some(&log),
        );
        let degraded = &report.outcome;
        assert_eq!(degraded.faults.len(), 2);
        assert_eq!(degraded.faults[0].payload, "crash-stop");
        assert!(degraded.faults[1]
            .payload
            .contains("injected panic at node 3"));
        assert_eq!(report.trace.total(Counter::Faults), 2);
        // Crashed and panicked queries spent no probes; the four healthy
        // queries probed once each.
        assert_eq!(report.outcome.outcome.total_probes, 4);
    }

    #[test]
    fn probe_errors_under_a_plan_degrade_instead_of_failing() {
        let g = gen::path(4);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(4);
        let alg = FnVolumeAlgorithm::new(
            "over-budget",
            |_| 1,
            |s: &mut ProbeSession<'_>| loop {
                let _ = s.probe(0, 0)?;
            },
        );
        let plan = FaultPlan::new(1);
        let report = simulate_faulted_impl(&alg, &g, &input, &ids, None, &plan, None);
        let degraded = &report.outcome;
        assert_eq!(degraded.faults.len(), 4, "every query over-probes");
        assert!(degraded.faults[0]
            .payload
            .contains("probe budget 1 exhausted"));
    }

    #[test]
    fn probe_lie_perturbs_the_answer_deterministically() {
        let g = gen::cycle(6);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(6);
        let plan = FaultPlan::new(11).with(Fault::ProbeLie { query: 2, nth: 0 });
        let honest = simulate_faulted_impl(
            &neighbor_id_alg(),
            &g,
            &input,
            &ids,
            None,
            &FaultPlan::new(11),
            None,
        );
        let lied = simulate_faulted_impl(&neighbor_id_alg(), &g, &input, &ids, None, &plan, None);
        // The lie is silent corruption: no fault record, but query 2's
        // answer changed while every other query is untouched.
        assert!(!lied.outcome.is_degraded());
        let h2 = g.half_edge(lcl_graph::NodeId(2), 0);
        assert_ne!(
            lied.outcome.outcome.output.get(h2),
            honest.outcome.outcome.output.get(h2)
        );
        let h0 = g.half_edge(lcl_graph::NodeId(0), 0);
        assert_eq!(
            lied.outcome.outcome.output.get(h0),
            honest.outcome.outcome.output.get(h0)
        );
        let again = simulate_faulted_impl(&neighbor_id_alg(), &g, &input, &ids, None, &plan, None);
        assert_eq!(lied.outcome, again.outcome);
    }

    #[test]
    fn corrupt_view_perturbs_the_queried_id() {
        let g = gen::cycle(5);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(5);
        let alg = FnVolumeAlgorithm::new(
            "own-id",
            |_| 0,
            |s: &mut ProbeSession<'_>| {
                Ok(vec![
                    OutLabel((s.queried().id % 1000) as u32);
                    s.queried().degree as usize
                ])
            },
        );
        let plan = FaultPlan::new(0).with(Fault::CorruptView { node: 2, salt: 7 });
        let report = simulate_faulted_impl(&alg, &g, &input, &ids, None, &plan, None);
        assert!(!report.outcome.is_degraded(), "silent corruption");
        let h2 = g.half_edge(lcl_graph::NodeId(2), 0);
        assert_ne!(report.outcome.outcome.output.get(h2), OutLabel(2));
        let h1 = g.half_edge(lcl_graph::NodeId(1), 0);
        assert_eq!(report.outcome.outcome.output.get(h1), OutLabel(1));
    }

    #[test]
    fn lca_faulted_counts_far_probes_and_degrades() {
        let g = gen::path(5);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::from_vec((1..=5).collect());
        struct FarDegree;
        impl LcaAlgorithm for FarDegree {
            fn probe_budget(&self, _n: usize) -> usize {
                0
            }
            fn answer(
                &self,
                s: &mut LcaSession<'_, '_>,
            ) -> Result<Vec<OutLabel>, crate::ProbeError> {
                let info = s.far_probe(1).expect("id 1 exists");
                let d = s.near().queried().degree as usize;
                Ok(vec![OutLabel(u32::from(info.degree)); d])
            }
        }
        let plan = FaultPlan::new(0).with(Fault::PanicNode { node: 4 });
        let report = simulate_lca_faulted_impl(&FarDegree, &g, &input, &ids, &plan, None);
        let degraded = &report.outcome;
        assert_eq!(degraded.faults.len(), 1);
        assert!(degraded.faults[0]
            .payload
            .contains("injected panic at node 4"));
        // Four healthy queries each spent one far probe.
        assert_eq!(report.trace.total(Counter::FarProbes), 4);
    }

    #[test]
    fn lca_id_permutation_stays_a_valid_lca_instance() {
        let g = gen::cycle(6);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::from_vec((1..=6).collect());
        let alg = VolumeAsLca(neighbor_id_alg());
        let plan = FaultPlan::new(21).with_permuted_ids();
        let a = simulate_lca_faulted_impl(&alg, &g, &input, &ids, &plan, None);
        let b = simulate_lca_faulted_impl(&alg, &g, &input, &ids, &plan, None);
        assert!(!a.outcome.is_degraded());
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.trace.fingerprint(), b.trace.fingerprint());
    }
}
