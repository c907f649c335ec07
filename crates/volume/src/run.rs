//! Executing VOLUME algorithms over whole graphs, and the one query
//! loop VOLUME and LCA runs share.
//!
//! A fault plan (`RunOptions::faults`) decides per-query injection and
//! what a failing query costs; nodes are queried independently, so
//! "rounds" degenerate to the probe sequence:
//!
//! * **Crash-stop** — the queried node is unreachable; its query goes
//!   unanswered and placeholder labels are emitted.
//! * **View corruption** — the queried node's own `t_v` identifier is
//!   perturbed before the algorithm sees it; the query still answers.
//! * **Probe lie** — the `nth` probe of that query returns (and records
//!   into the transcript) a perturbed identifier.
//! * **Panics, wrong arity, probe errors** — isolated; the query records
//!   a typed fault and degrades to placeholder labels, so chaos soaks
//!   observe the trichotomy (valid output / typed error / typed
//!   degradation) rather than an abort.
//!
//! Without a plan the first [`ProbeError`] ends the run as its `Err`, a
//! wrong arity panics and a genuine panic propagates.

use lcl::{HalfEdgeLabeling, InLabel, OutLabel};
use lcl_faults::{inject_panic, isolate, record_fault, Degraded, RunOptions};
use lcl_graph::Graph;
use lcl_obs::{Counter, Event, RunReport, Span, Trace};

use lcl_local::IdAssignment;

use crate::algorithm::{ProbeError, ProbeSession, VolumeAlgorithm};

/// The result of answering every node's query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VolumeRun {
    /// The produced half-edge labeling.
    pub output: HalfEdgeLabeling<OutLabel>,
    /// The maximum number of probes any single query used — the VOLUME
    /// complexity actually exercised.
    pub max_probes: usize,
    /// The total number of probes across all queries.
    pub total_probes: usize,
}

/// Runs a VOLUME algorithm under [`RunOptions`]: optional event capture,
/// optional fault plan. A fault plan may permute `ids` and inject
/// per-query faults (see [the module docs](crate::run)); every probe
/// error, panic or mislabeling then costs only its query, and the `Err`
/// leg is never taken. Without one an out-of-contract probe surfaces as
/// the typed [`ProbeError`] and a clean run returns
/// [`Degraded::clean`]. The probe budget is the algorithm's own
/// `probe_budget(n)`; a `RunOptions` budget has no probe dimension and
/// is ignored here.
///
/// # Errors
///
/// Without a fault plan only: the first [`ProbeError`] an over-eager
/// query runs into — budget exhaustion, undiscovered targets,
/// nonexistent ports.
///
/// # Panics
///
/// Panics if the graph contains an isolated node (excluded by
/// Definition 2.9), and without a fault plan if the algorithm panics or
/// mislabels the queried node's arity — instance and algorithm contract
/// violations, not runtime conditions an algorithm can trigger
/// adaptively.
pub fn simulate_with(
    alg: &(impl VolumeAlgorithm + ?Sized),
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &IdAssignment,
    n_announced: Option<usize>,
    opts: RunOptions<'_>,
) -> Result<RunReport<Degraded<VolumeRun>>, ProbeError> {
    assert_eq!(ids.len(), graph.node_count(), "ids cover the graph");
    let ids = ids.under(opts.fault_plan());
    let n = n_announced.unwrap_or_else(|| graph.node_count());
    let budget = alg.probe_budget(n);
    let (run, span, _) = answer_queries(
        "volume",
        alg.name(),
        graph,
        input,
        &ids,
        budget,
        n,
        opts,
        |session| (alg.answer(session), 0),
    )?;
    Ok(RunReport::new(run, Trace::new(span.finish())))
}

/// The one query loop of the VOLUME and LCA models, with the fault
/// semantics of the module docs. `answer` answers one query on its
/// probe session and reports the far probes it spent on top of the
/// session's near probes (always 0 for VOLUME). Returns the run, its
/// span (`{model}/…`, or `{model}/faulted/…` with a `faults` counter
/// under a plan) still open for model-specific counters, and the far
/// probes spent.
#[allow(clippy::too_many_arguments)]
pub(crate) fn answer_queries<'a>(
    model: &str,
    alg_name: &str,
    graph: &'a Graph,
    input: &'a HalfEdgeLabeling<InLabel>,
    ids: &'a IdAssignment,
    budget: usize,
    n: usize,
    opts: RunOptions<'a>,
    mut answer: impl FnMut(&mut ProbeSession<'a>) -> (Result<Vec<OutLabel>, ProbeError>, usize),
) -> Result<(Degraded<VolumeRun>, Span, usize), ProbeError> {
    let (plan, log) = (opts.fault_plan(), opts.event_log());
    let mut span = Span::start(match plan {
        Some(_) => format!("{model}/faulted/{alg_name}"),
        None => format!("{model}/{alg_name}"),
    });
    let mut faults = Vec::new();
    let (mut max_probes, mut total_probes, mut far_probes) = (0usize, 0usize, 0usize);
    // `from_node_fn` closures are infallible; stash the first plan-free
    // error and emit correctly-shaped placeholder labels for the
    // remaining nodes.
    let mut failure: Option<ProbeError> = None;
    let output = HalfEdgeLabeling::from_node_fn(graph, |v| {
        let degree = graph.degree(v) as usize;
        assert!(degree > 0, "the VOLUME model excludes isolated nodes");
        if failure.is_some() {
            return vec![OutLabel(0); degree];
        }
        let node = v.index() as u64;
        if let Some(round) = plan.and_then(|p| p.crash_round(v.index())) {
            let round = u64::from(round);
            record_fault(
                &mut faults,
                log,
                node,
                round,
                "crash-stop",
                "crash-stop".into(),
            );
            return vec![OutLabel(0); degree];
        }
        let mut session = ProbeSession::new(graph, input, ids, v, budget, n, log);
        if let Some(plan) = plan {
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
        }
        let answered = match plan {
            None => Ok(answer(&mut session)),
            Some(plan) if plan.panics(v.index()) => isolate(|| inject_panic(node)),
            Some(_) => isolate(|| answer(&mut session)),
        };
        let far = answered.as_ref().map_or(0, |(_, far)| *far);
        let labels = match answered {
            Ok((Ok(labels), _)) if plan.is_none() => {
                assert_eq!(
                    labels.len(),
                    degree,
                    "algorithm {alg_name} must label each half-edge of the queried node"
                );
                Ok(labels)
            }
            Ok((Ok(labels), _)) if labels.len() == degree => Ok(labels),
            Ok((Ok(labels), _)) => Err((
                "wrong-arity",
                format!(
                    "returned {} labels for a degree-{degree} query",
                    labels.len()
                ),
            )),
            Ok((Err(e), _)) if plan.is_none() => {
                failure = Some(e);
                return vec![OutLabel(0); degree];
            }
            Ok((Err(e), _)) => Err(("probe-error", e.to_string())),
            Err(payload) => Err(("panic", payload)),
        };
        let used = session.probes_used() + far;
        far_probes += far;
        max_probes = max_probes.max(used);
        total_probes += used;
        span.observe(Counter::Probes, used as u64);
        labels.unwrap_or_else(|(tag, payload)| {
            record_fault(&mut faults, log, node, 0, tag, payload);
            vec![OutLabel(0); degree]
        })
    });
    if let Some(e) = failure {
        return Err(e);
    }
    span.set(Counter::Nodes, graph.node_count() as u64);
    span.set(Counter::Edges, graph.edge_count() as u64);
    span.set(Counter::Queries, graph.node_count() as u64);
    span.set(Counter::Probes, total_probes as u64);
    span.set(Counter::MaxProbes, max_probes as u64);
    if plan.is_some() {
        span.set(Counter::Faults, faults.len() as u64);
    }
    let run = VolumeRun {
        output,
        max_probes,
        total_probes,
    };
    Ok((
        Degraded {
            outcome: run,
            faults,
        },
        span,
        far_probes,
    ))
}

/// Finds the minimal probe budget `T ≤ max_budget` under which the
/// algorithm family solves `problem` on `graph`, or `None`. The VOLUME
/// analogue of [`lcl_local::minimal_solving_radius`]; assumes solvability
/// is monotone in the budget (gather-style probing). A budget whose run
/// fails with a [`ProbeError`] counts as not solving.
pub fn minimal_probe_budget<A, F>(
    problem: &(impl lcl::Problem + ?Sized),
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &IdAssignment,
    max_budget: usize,
    make: F,
) -> Option<usize>
where
    A: VolumeAlgorithm,
    F: Fn(usize) -> A,
{
    let solves = |budget: usize| {
        let alg = make(budget);
        simulate_with(&alg, graph, input, ids, None, RunOptions::new())
            .map(|r| lcl::verify(problem, graph, input, &r.outcome.outcome.output).is_empty())
            .unwrap_or(false)
    };
    if solves(0) {
        return Some(0);
    }
    let mut hi = 1usize;
    while hi < max_budget && !solves(hi) {
        hi = (hi * 2).min(max_budget);
    }
    if !solves(hi) {
        return None;
    }
    let mut lo = hi / 2;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if solves(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::FnVolumeAlgorithm;
    use crate::lca::{simulate_lca_with, LcaAlgorithm, LcaSession, VolumeAsLca};
    use lcl_faults::{Fault, FaultPlan};
    use lcl_graph::gen;
    use lcl_obs::{Event, EventLog};

    #[test]
    fn zero_probe_algorithm() {
        let g = gen::cycle(6);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(6);
        let alg = FnVolumeAlgorithm::new(
            "const",
            |_| 0,
            |s| Ok(vec![OutLabel(7); s.queried().degree as usize]),
        );
        let run = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new())
            .expect("zero probes")
            .outcome
            .outcome;
        assert_eq!(run.max_probes, 0);
        assert_eq!(run.total_probes, 0);
        assert!(run.output.as_slice().iter().all(|&l| l == OutLabel(7)));
    }

    #[test]
    fn probe_counts_are_aggregated() {
        let g = gen::path(4);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(4);
        // Probe each of the queried node's ports once.
        let alg = FnVolumeAlgorithm::new(
            "scan",
            |_| 2,
            |s| {
                let d = s.queried().degree;
                for p in 0..d {
                    let _ = s.probe(0, p)?;
                }
                Ok(vec![OutLabel(0); d as usize])
            },
        );
        let run = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new())
            .expect("in budget")
            .outcome
            .outcome;
        assert_eq!(run.max_probes, 2); // interior nodes probe twice
        assert_eq!(run.total_probes, 2 + 2 + 1 + 1);
    }

    #[test]
    fn probe_errors_surface_instead_of_panicking() {
        let g = gen::path(4);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(4);
        let alg = FnVolumeAlgorithm::new(
            "over-budget",
            |_| 1,
            |s| loop {
                let _ = s.probe(0, 0)?;
            },
        );
        assert_eq!(
            simulate_with(&alg, &g, &input, &ids, None, RunOptions::new()).err(),
            Some(ProbeError::BudgetExhausted { budget: 1 })
        );
    }

    #[test]
    fn minimal_budget_finds_walk_length() {
        // "Certify an endpoint": every node must output Yes; the
        // algorithm walks left with its budget and answers Yes iff it
        // reached a degree-1 node. The minimal budget is the distance of
        // the rightmost node to the left endpoint = n - 1.
        let problem = lcl::LclProblem::builder("all-yes", 2)
            .outputs(["No", "Yes"])
            .node_pattern(&["Yes*"])
            .edge(&["Yes", "Yes"])
            .build()
            .unwrap();
        for n in [4usize, 9, 16] {
            let g = gen::path(n);
            let input = lcl::uniform_input(&g);
            let ids = IdAssignment::sequential(n);
            let t = minimal_probe_budget(&problem, &g, &input, &ids, 2 * n, |budget| {
                FnVolumeAlgorithm::new(
                    "walk-left",
                    move |_| budget,
                    move |s| {
                        let degree = s.queried().degree as usize;
                        let mut current = s.queried().clone();
                        let mut j = 0usize;
                        let mut found = current.degree == 1 && degree == 1;
                        while s.probes_left() > 0 && current.degree == 2 {
                            current = s.probe(j, 0)?;
                            j = s.discovered_count() - 1;
                            if current.degree == 1 {
                                found = true;
                                break;
                            }
                        }
                        if degree == 1 {
                            found = true; // an endpoint certifies itself
                        }
                        Ok(vec![lcl::OutLabel(u32::from(found)); degree])
                    },
                )
            });
            assert_eq!(t, Some(n - 2), "n = {n}");
        }
    }

    #[test]
    fn simulate_reports_probe_counters() {
        let g = gen::path(4);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(4);
        let alg = FnVolumeAlgorithm::new(
            "scan",
            |_| 2,
            |s| {
                let d = s.queried().degree;
                for p in 0..d {
                    let _ = s.probe(0, p)?;
                }
                Ok(vec![OutLabel(0); d as usize])
            },
        );
        let report =
            simulate_with(&alg, &g, &input, &ids, None, RunOptions::new()).expect("in budget");
        assert!(!report.outcome.is_degraded());
        assert_eq!(report.trace.total(Counter::Probes), 6);
        assert_eq!(report.trace.total(Counter::MaxProbes), 2);
        assert_eq!(report.trace.total(Counter::Queries), 4);
        assert_eq!(
            report.trace.total(Counter::Probes),
            report.outcome.outcome.total_probes as u64
        );
        // Per-query distribution: two endpoint queries (1 probe each),
        // two interior queries (2 probes each).
        let hist = report
            .trace
            .root()
            .histogram(Counter::Probes)
            .expect("probe histogram");
        assert_eq!(hist.count(), 4);
        assert_eq!(hist.sum(), 6);
    }

    #[test]
    fn simulate_logged_records_probe_events() {
        let g = gen::path(3);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(3);
        let alg = FnVolumeAlgorithm::new(
            "one-probe",
            |_| 1,
            |s| {
                let _ = s.probe(0, 0)?;
                Ok(vec![OutLabel(0); s.queried().degree as usize])
            },
        );
        let log = EventLog::new(64);
        let report = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new().events(&log))
            .expect("in budget");
        assert_eq!(log.len(), report.outcome.outcome.total_probes);
        assert!(log
            .events()
            .iter()
            .all(|e| matches!(e, Event::Probe { port: 0, .. })));
    }

    #[test]
    fn cost_model_matches_probe_counters() {
        use lcl_obs::CostKind;
        let g = gen::path(4);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(4);
        let alg = FnVolumeAlgorithm::new(
            "scan",
            |_| 2,
            |s| {
                let d = s.queried().degree;
                for p in 0..d {
                    let _ = s.probe(0, p)?;
                }
                Ok(vec![OutLabel(0); d as usize])
            },
        );
        // Zero capacity: a pure cost tally, no stored events.
        let log = EventLog::new(0);
        let report = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new().events(&log))
            .expect("in budget");
        let cost = log.cost_model();
        assert_eq!(
            cost.get(CostKind::Probe),
            report.trace.total(Counter::Probes)
        );
        assert_eq!(cost.get(CostKind::Probe), 6);
        // Probes are charged to their querying node: two endpoints at
        // 1, two interior nodes at 2, averaging 1.5.
        assert_eq!(cost.node_count(), 4);
        assert_eq!(cost.node_averaged(), Some(1.5));
    }

    #[test]
    #[should_panic(expected = "genuine algorithm bug")]
    fn without_a_plan_a_panic_propagates() {
        let g = gen::path(3);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(3);
        let alg = FnVolumeAlgorithm::new(
            "buggy",
            |_| 0,
            |_: &mut ProbeSession<'_>| -> Result<Vec<OutLabel>, ProbeError> {
                panic!("genuine algorithm bug")
            },
        );
        let _ = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new());
    }

    #[test]
    #[should_panic(expected = "isolated")]
    fn isolated_nodes_are_rejected() {
        let g = lcl_graph::GraphBuilder::new(1).build().unwrap();
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(1);
        let alg = FnVolumeAlgorithm::new(
            "const",
            |_| 0,
            |s| Ok(vec![OutLabel(0); s.queried().degree as usize]),
        );
        let _ = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new());
    }

    /// A VOLUME run under `plan`, which never takes the `Err` leg.
    fn faulted(
        alg: &(impl VolumeAlgorithm + ?Sized),
        g: &Graph,
        input: &HalfEdgeLabeling<InLabel>,
        ids: &IdAssignment,
        plan: &FaultPlan,
    ) -> RunReport<Degraded<VolumeRun>> {
        simulate_with(alg, g, input, ids, None, RunOptions::new().faults(plan)).expect("degrades")
    }

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
    fn crash_panic_and_probe_errors_degrade_per_query() {
        let g = gen::cycle(6);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(6);
        let plan = FaultPlan::new(0)
            .with(Fault::Crash { node: 1, round: 0 })
            .with(Fault::PanicNode { node: 3 });
        let log = EventLog::new(64);
        let opts = RunOptions::new().faults(&plan).events(&log);
        let report =
            simulate_with(&neighbor_id_alg(), &g, &input, &ids, None, opts).expect("degrades");
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
        let report = faulted(&alg, &g, &input, &ids, &plan);
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
        let quiet = FaultPlan::new(11);
        let honest = faulted(&neighbor_id_alg(), &g, &input, &ids, &quiet);
        let lied = faulted(&neighbor_id_alg(), &g, &input, &ids, &plan);
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
        let again = faulted(&neighbor_id_alg(), &g, &input, &ids, &plan);
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
        let report = faulted(&alg, &g, &input, &ids, &plan);
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
        let report = simulate_lca_with(
            &FarDegree,
            &g,
            &input,
            &ids,
            RunOptions::new().faults(&plan),
        )
        .expect("degrades");
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
        let a = simulate_lca_with(&alg, &g, &input, &ids, RunOptions::new().faults(&plan))
            .expect("degrades");
        let b = simulate_lca_with(&alg, &g, &input, &ids, RunOptions::new().faults(&plan))
            .expect("degrades");
        assert!(!a.outcome.is_degraded());
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.trace.fingerprint(), b.trace.fingerprint());
    }
}
