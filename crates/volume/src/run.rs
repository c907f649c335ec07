//! Executing VOLUME algorithms over whole graphs.

use lcl::{HalfEdgeLabeling, InLabel, OutLabel};
use lcl_faults::{Degraded, RunOptions};
use lcl_graph::Graph;
use lcl_obs::{Counter, EventLog, RunReport, Span, Trace};

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
/// optional fault plan. With a fault plan the run is the degrading
/// executor of [`crate::faulted`] — probe errors cost only their query —
/// and the `Err` leg is never taken; without one an out-of-contract
/// probe surfaces as the typed [`ProbeError`] and a clean run returns
/// [`Degraded::clean`]. The probe budget is the algorithm's own
/// `probe_budget(n)`; a `RunOptions` budget has no probe dimension and
/// is ignored here.
///
/// # Errors
///
/// On the plan-free path only: the first [`ProbeError`] an over-eager
/// query runs into — budget exhaustion, undiscovered targets,
/// nonexistent ports.
///
/// # Panics
///
/// Panics if the graph contains an isolated node (excluded by
/// Definition 2.9) or the algorithm mislabels the queried node's arity —
/// both are instance/algorithm contract violations, not runtime
/// conditions an algorithm can trigger adaptively.
pub fn simulate_with(
    alg: &(impl VolumeAlgorithm + ?Sized),
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &IdAssignment,
    n_announced: Option<usize>,
    opts: RunOptions<'_>,
) -> Result<RunReport<Degraded<VolumeRun>>, ProbeError> {
    match opts.fault_plan() {
        Some(plan) => Ok(crate::faulted::simulate_faulted_impl(
            alg,
            graph,
            input,
            ids,
            n_announced,
            plan,
            opts.event_log(),
        )),
        None => Ok(
            simulate_impl(alg, graph, input, ids, n_announced, opts.event_log())?
                .map(Degraded::clean),
        ),
    }
}

pub(crate) fn simulate_impl(
    alg: &(impl VolumeAlgorithm + ?Sized),
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &IdAssignment,
    n_announced: Option<usize>,
    log: Option<&EventLog>,
) -> Result<RunReport<VolumeRun>, ProbeError> {
    let n = n_announced.unwrap_or_else(|| graph.node_count());
    let budget = alg.probe_budget(n);
    let mut span = Span::start(format!("volume/{}", alg.name()));
    let mut max_probes = 0usize;
    let mut total_probes = 0usize;
    // `from_node_fn` closures are infallible; stash the first error and
    // emit correctly-shaped placeholder labels for the remaining nodes.
    let mut failure: Option<ProbeError> = None;
    let output = HalfEdgeLabeling::from_node_fn(graph, |v| {
        assert!(
            graph.degree(v) > 0,
            "the VOLUME model excludes isolated nodes"
        );
        if failure.is_some() {
            return vec![OutLabel(0); graph.degree(v) as usize];
        }
        let mut session = ProbeSession::new(graph, input, ids, v, budget, n, log);
        match alg.answer(&mut session) {
            Ok(labels) => {
                assert_eq!(
                    labels.len(),
                    graph.degree(v) as usize,
                    "algorithm {} must label each half-edge of the queried node",
                    alg.name()
                );
                max_probes = max_probes.max(session.probes_used());
                total_probes += session.probes_used();
                span.observe(Counter::Probes, session.probes_used() as u64);
                labels
            }
            Err(e) => {
                failure = Some(e);
                vec![OutLabel(0); graph.degree(v) as usize]
            }
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    span.set(Counter::Nodes, graph.node_count() as u64);
    span.set(Counter::Edges, graph.edge_count() as u64);
    span.set(Counter::Queries, graph.node_count() as u64);
    span.set(Counter::Probes, total_probes as u64);
    span.set(Counter::MaxProbes, max_probes as u64);
    let run = VolumeRun {
        output,
        max_probes,
        total_probes,
    };
    Ok(RunReport::new(run, Trace::new(span.finish())))
}

/// Runs a VOLUME algorithm over every node, discarding the trace.
///
/// Note: superseded by [`simulate_with`], which additionally reports
/// the execution trace; this thin wrapper remains for source
/// compatibility.
///
/// # Errors
///
/// As [`simulate_with`].
pub fn run_volume(
    alg: &(impl VolumeAlgorithm + ?Sized),
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &IdAssignment,
    n_announced: Option<usize>,
) -> Result<VolumeRun, ProbeError> {
    Ok(simulate_impl(alg, graph, input, ids, n_announced, None)?.outcome)
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
        run_volume(&alg, graph, input, ids, None)
            .map(|run| lcl::verify(problem, graph, input, &run.output).is_empty())
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
    use lcl_graph::gen;
    use lcl_obs::Event;

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
        let run = run_volume(&alg, &g, &input, &ids, None).expect("zero probes");
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
        let run = run_volume(&alg, &g, &input, &ids, None).expect("in budget");
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
            run_volume(&alg, &g, &input, &ids, None),
            Err(ProbeError::BudgetExhausted { budget: 1 })
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
        let _ = run_volume(&alg, &g, &input, &ids, None);
    }
}
