//! Executing LOCAL algorithms and estimating local failure probabilities.

use lcl_rng::SmallRng;

use lcl::{HalfEdgeLabeling, InLabel, OutLabel, Problem, Violation};
use lcl_faults::{
    inject_panic, isolate, plan::perturb, record_fault, Degraded, InvalidConfig, RunOptions,
};
use lcl_graph::{Ball, Graph};
use lcl_obs::{Counter, Event, RunReport, Span, Trace};

use crate::algorithm::LocalAlgorithm;
use crate::ids::IdAssignment;
use crate::view::View;

/// The result of a LOCAL run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LocalRun {
    /// The produced half-edge labeling.
    pub output: HalfEdgeLabeling<OutLabel>,
    /// The radius the algorithm requested for this `n`.
    pub radius: u32,
}

/// The one LOCAL view executor: every node evaluates the view-function
/// on its radius-`T(n)` ball. `see` turns a ball into what its center
/// sees: the id its `ViewMaterialized` event carries, then the ball's
/// identifiers and random bits.
///
/// `opts`' fault plan only decides per-node injection (crash-stop at a
/// round `≤ T`, view corruption, injected panic) and what a failing
/// node costs: under a plan the call is panic-isolated and a failure
/// becomes a [`NodeFault`](lcl_faults::NodeFault) plus placeholder
/// labels; without one a wrong arity panics and a genuine panic
/// propagates. The span is `local/faulted/…` (with a `faults` counter)
/// under a plan and `local/{mode}/…` without.
fn run_views(
    alg: &(impl LocalAlgorithm + ?Sized),
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    n_announced: Option<usize>,
    mode: &str,
    opts: RunOptions<'_>,
    mut see: impl FnMut(&Ball) -> (u64, Vec<u64>, Vec<u64>),
) -> RunReport<Degraded<LocalRun>> {
    let (plan, log) = (opts.fault_plan(), opts.event_log());
    let n = n_announced.unwrap_or_else(|| graph.node_count());
    let radius = alg.radius(n);
    let mut span = Span::start(match plan {
        Some(_) => format!("local/faulted/{}", alg.name()),
        None => format!("local/{mode}/{}", alg.name()),
    });
    let mut faults = Vec::new();
    let mut view_nodes = 0u64;
    let output = HalfEdgeLabeling::from_node_fn(graph, |v| {
        let degree = graph.degree(v) as usize;
        let node = v.index() as u64;
        let crashed = plan.and_then(|p| p.crash_round(v.index()));
        if crashed.is_some_and(|r| r <= radius) {
            record_fault(&mut faults, log, node, 0, "crash-stop", "crash-stop".into());
            return vec![OutLabel(0); degree];
        }
        let ball = graph.ball(v, radius);
        view_nodes += ball.nodes.len() as u64;
        span.observe(Counter::ViewNodes, ball.nodes.len() as u64);
        let (center, mut ids, bits) = see(&ball);
        if let Some(log) = log {
            log.record(Event::ViewMaterialized {
                node: center,
                radius: u64::from(radius),
                size: ball.nodes.len() as u64,
            });
        }
        if let Some(salt) = plan.and_then(|p| p.corrupt_salt(v.index())) {
            if let Some(log) = log {
                log.record(Event::Fault {
                    node,
                    round: 0,
                    fault: "corrupt-view",
                });
            }
            // The center still knows its own id; the rest of the view is
            // the adversary's to rewrite.
            for (i, id) in ids.iter_mut().enumerate().skip(1) {
                *id ^= perturb(salt, i as u64);
            }
        }
        let inputs = ball
            .nodes
            .iter()
            .flat_map(|b| b.half_edges.iter().map(|&h| input.get(h)))
            .collect();
        let view = View {
            ball: &ball,
            n,
            ids,
            bits,
            inputs,
        };
        let Some(plan) = plan else {
            let labels = alg.label(&view);
            assert_eq!(
                labels.len(),
                degree,
                "algorithm {} must label each port of the center",
                alg.name()
            );
            return labels;
        };
        let labels = if plan.panics(v.index()) {
            isolate(|| inject_panic(node))
        } else {
            isolate(|| alg.label(&view))
        };
        match labels {
            Ok(labels) if labels.len() == degree => labels,
            Ok(labels) => {
                let payload = format!(
                    "returned {} labels for a degree-{degree} center",
                    labels.len()
                );
                record_fault(&mut faults, log, node, 0, "wrong-arity", payload);
                vec![OutLabel(0); degree]
            }
            Err(payload) => {
                record_fault(&mut faults, log, node, 0, "panic", payload);
                vec![OutLabel(0); degree]
            }
        }
    });
    // The instance shape, the requested radius (which bounds the round
    // complexity exercised), and the total view nodes materialized —
    // the measurable form of the paper's `O(Δ^T)` view-size bound.
    span.set(Counter::Nodes, graph.node_count() as u64);
    span.set(Counter::Edges, graph.edge_count() as u64);
    span.set(Counter::Queries, graph.node_count() as u64);
    span.set(Counter::Radius, u64::from(radius));
    span.set(Counter::Rounds, u64::from(radius));
    span.set(Counter::ViewNodes, view_nodes);
    if plan.is_some() {
        span.set(Counter::Faults, faults.len() as u64);
    }
    let degraded = Degraded {
        outcome: LocalRun { output, radius },
        faults,
    };
    RunReport::new(degraded, Trace::new(span.finish()))
}

/// Runs a deterministic LOCAL algorithm under [`RunOptions`] and reports
/// the execution trace: every node evaluates the view-function on its
/// radius-`T(n)` ball, seeing the identifiers in `ids`.
///
/// With a fault plan the run degrades (see [`crate::faulted`] for the
/// fault semantics): the plan may permute `ids`, and a crashed,
/// panicking or mislabeling node costs one typed fault record and
/// placeholder labels. Without one the outcome is [`Degraded::clean`].
/// A budget's dimensions do not apply to view-based LOCAL runs (the
/// radius is the algorithm's, not a resource) and are ignored here.
///
/// `n_announced` overrides the number of nodes reported to the algorithm
/// (the paper's footnote 7: "nothing prevents us from executing an
/// algorithm using an input parameter that does not represent the correct
/// number of nodes"); `None` announces the true `n`.
///
/// # Panics
///
/// Without a fault plan, if the algorithm panics or labels the wrong
/// number of ports.
pub fn simulate_with(
    alg: &(impl LocalAlgorithm + ?Sized),
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &IdAssignment,
    n_announced: Option<usize>,
    opts: RunOptions<'_>,
) -> RunReport<Degraded<LocalRun>> {
    assert_eq!(ids.len(), graph.node_count(), "ids cover the graph");
    let ids = ids.under(opts.fault_plan());
    run_views(
        alg,
        graph,
        input,
        n_announced,
        "deterministic",
        opts,
        |ball| {
            let ids: Vec<u64> = ball.nodes.iter().map(|b| ids.id(b.original)).collect();
            (ids[0], ids, Vec::new())
        },
    )
}

/// Runs a randomized LOCAL algorithm under [`RunOptions`] and reports
/// the execution trace: every node carries a private random bit string,
/// derived deterministically from `seed` so that runs are reproducible.
///
/// Only the event axis applies: randomized runs see no identifiers, so
/// fault plans (which key on identifier-visible structure) have no
/// defined semantics here and `opts` must not carry one.
pub fn simulate_randomized_with(
    alg: &(impl LocalAlgorithm + ?Sized),
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    seed: u64,
    n_announced: Option<usize>,
    opts: RunOptions<'_>,
) -> RunReport<LocalRun> {
    assert!(
        opts.fault_plan().is_none(),
        "why: randomized LOCAL defines no fault semantics; run the deterministic \
         simulate_with under a plan instead"
    );
    // Pre-draw one 64-bit string per node.
    let mut rng = SmallRng::seed_from_u64(seed);
    let bits: Vec<u64> = (0..graph.node_count()).map(|_| rng.gen()).collect();
    run_views(alg, graph, input, n_announced, "randomized", opts, |ball| {
        let center = ball.nodes[0].original.index() as u64;
        let bits = ball
            .nodes
            .iter()
            .map(|b| bits[b.original.index()])
            .collect();
        (center, Vec::new(), bits)
    })
    .map(|run| run.outcome)
}

/// A Monte-Carlo estimate of an algorithm's local failure probability
/// (Definition 2.4): the maximum, over nodes and edges, of the empirical
/// probability that the algorithm fails at that object.
#[derive(Clone, PartialEq, Debug)]
pub struct FailureEstimate {
    /// Highest per-node failure frequency.
    pub max_node: f64,
    /// Highest per-edge failure frequency.
    pub max_edge: f64,
    /// Fraction of trials in which the global output was incorrect
    /// anywhere (the plain failure probability).
    pub global: f64,
    /// Number of trials run.
    pub trials: usize,
}

impl FailureEstimate {
    /// The local failure probability estimate: `max(max_node, max_edge)`.
    pub fn local(&self) -> f64 {
        self.max_node.max(self.max_edge)
    }
}

/// Per-node and per-edge failure counts over a set of trials.
struct Tally {
    nodes: Vec<usize>,
    edges: Vec<usize>,
    global: usize,
}

impl Tally {
    fn new(graph: &Graph) -> Self {
        Tally {
            nodes: vec![0; graph.node_count()],
            edges: vec![0; graph.edge_count()],
            global: 0,
        }
    }

    /// Runs one trial with randomness `seed`, verifies its output, and
    /// counts each failed node and edge once.
    fn trial(
        &mut self,
        problem: &(impl Problem + ?Sized),
        alg: &(impl LocalAlgorithm + ?Sized),
        graph: &Graph,
        input: &HalfEdgeLabeling<InLabel>,
        seed: u64,
    ) {
        let run =
            simulate_randomized_with(alg, graph, input, seed, None, RunOptions::new()).outcome;
        let violations = lcl::verify(problem, graph, input, &run.output);
        if !violations.is_empty() {
            self.global += 1;
        }
        let mut failed_nodes = std::collections::BTreeSet::new();
        let mut failed_edges = std::collections::BTreeSet::new();
        for v in violations {
            match v {
                Violation::EdgeConfig { edge } | Violation::EdgeInputMap { edge, .. } => {
                    failed_edges.insert(edge);
                }
                Violation::NodeConfig { node } | Violation::NodeInputMap { node, .. } => {
                    failed_nodes.insert(node);
                }
            }
        }
        for node in failed_nodes {
            self.nodes[node.index()] += 1;
        }
        for edge in failed_edges {
            self.edges[edge.index()] += 1;
        }
    }

    /// Adds another tally's counts to this one.
    fn absorb(&mut self, other: Tally) {
        for (acc, x) in self.nodes.iter_mut().zip(other.nodes) {
            *acc += x;
        }
        for (acc, x) in self.edges.iter_mut().zip(other.edges) {
            *acc += x;
        }
        self.global += other.global;
    }

    fn estimate(&self, trials: usize) -> FailureEstimate {
        let to_freq = |worst: Option<&usize>| worst.map_or(0.0, |&w| w as f64 / trials as f64);
        FailureEstimate {
            max_node: to_freq(self.nodes.iter().max()),
            max_edge: to_freq(self.edges.iter().max()),
            global: self.global as f64 / trials as f64,
            trials,
        }
    }
}

/// Estimates the local failure probability of a randomized algorithm by
/// running it `trials` times with fresh randomness.
///
/// # Errors
///
/// Returns [`InvalidConfig`] if `trials` is zero.
pub fn estimate_local_failure(
    problem: &(impl Problem + ?Sized),
    alg: &(impl LocalAlgorithm + ?Sized),
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    trials: usize,
    seed: u64,
) -> Result<FailureEstimate, InvalidConfig> {
    if trials == 0 {
        return Err(InvalidConfig {
            param: "trials",
            requirement: "> 0",
            got: 0,
        });
    }
    let mut tally = Tally::new(graph);
    for t in 0..trials {
        tally.trial(problem, alg, graph, input, seed.wrapping_add(t as u64));
    }
    Ok(tally.estimate(trials))
}

/// Like [`estimate_local_failure`], but spreads the trials over `threads`
/// OS threads with `std::thread::scope` (the estimation is embarrassingly
/// parallel: each trial has its own seed). Results are identical to the
/// sequential estimator for the same `(trials, seed)`.
///
/// # Errors
///
/// Returns [`InvalidConfig`] if `trials` or `threads` is zero.
pub fn estimate_local_failure_parallel(
    problem: &(impl Problem + Sync + ?Sized),
    alg: &(impl LocalAlgorithm + Sync + ?Sized),
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    trials: usize,
    seed: u64,
    threads: usize,
) -> Result<FailureEstimate, InvalidConfig> {
    if trials == 0 {
        return Err(InvalidConfig {
            param: "trials",
            requirement: "> 0",
            got: 0,
        });
    }
    if threads == 0 {
        return Err(InvalidConfig {
            param: "threads",
            requirement: "> 0",
            got: 0,
        });
    }
    let threads = threads.min(trials);
    // Per-thread tallies, merged after the scope.
    let results: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                // Chunk t handles trials t, t + threads, t + 2·threads, ...
                scope.spawn(move || {
                    let mut tally = Tally::new(graph);
                    for trial in (t..trials).step_by(threads) {
                        tally.trial(problem, alg, graph, input, seed.wrapping_add(trial as u64));
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("join only fails if a worker panicked, and workers run the same code as the panic-free sequential estimator")
            })
            .collect()
    });
    let mut tally = Tally::new(graph);
    for part in results {
        tally.absorb(part);
    }
    Ok(tally.estimate(trials))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::FnAlgorithm;
    use lcl::LclProblem;
    use lcl_graph::gen;

    fn any_label_problem() -> LclProblem {
        LclProblem::builder("any", 3)
            .outputs(["X", "Y"])
            .node_pattern(&["X*", "Y*"])
            .edge(&["X", "X"])
            .edge(&["X", "Y"])
            .edge(&["Y", "Y"])
            .build()
            .unwrap()
    }

    #[test]
    fn deterministic_run_sees_ids() {
        let g = gen::path(4);
        // Output X iff the center has the locally largest id (radius 1).
        let alg = FnAlgorithm::new(
            "local-max",
            |_| 1,
            |view| {
                let me = view.center_id();
                let max = view.ids.iter().copied().max().unwrap();
                vec![OutLabel(u32::from(me == max)); view.center_degree()]
            },
        );
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::from_vec(vec![5, 9, 2, 7]);
        let run = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new())
            .outcome
            .outcome;
        // Node 1 (id 9) is a local max; node 0 (id 5 < 9) is not.
        let h0 = g.half_edge(lcl_graph::NodeId(1), 0);
        assert_eq!(run.output.get(h0), OutLabel(1));
        let h1 = g.half_edge(lcl_graph::NodeId(0), 0);
        assert_eq!(run.output.get(h1), OutLabel(0));
    }

    #[test]
    fn randomized_run_is_reproducible() {
        let g = gen::cycle(6);
        let alg = FnAlgorithm::new(
            "coin",
            |_| 0,
            |view| vec![OutLabel((view.bits[0] % 2) as u32); view.center_degree()],
        );
        let input = lcl::uniform_input(&g);
        let a = simulate_randomized_with(&alg, &g, &input, 3, None, RunOptions::new()).outcome;
        let b = simulate_randomized_with(&alg, &g, &input, 3, None, RunOptions::new()).outcome;
        assert_eq!(a, b);
        let c = simulate_randomized_with(&alg, &g, &input, 4, None, RunOptions::new()).outcome;
        assert!(a != c || a == c, "different seeds may differ");
    }

    #[test]
    fn announced_n_overrides_true_n() {
        let g = gen::path(4);
        let alg = FnAlgorithm::new(
            "echo-n",
            |_| 0,
            |view| vec![OutLabel(view.n as u32); view.center_degree()],
        );
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(4);
        let run = simulate_with(&alg, &g, &input, &ids, Some(16), RunOptions::new())
            .outcome
            .outcome;
        let h = g.half_edge(lcl_graph::NodeId(0), 0);
        assert_eq!(run.output.get(h), OutLabel(16));
    }

    #[test]
    fn failure_estimate_of_always_correct_algorithm_is_zero() {
        let g = gen::path(5);
        let p = any_label_problem();
        let alg = FnAlgorithm::new(
            "const",
            |_| 0,
            |view| vec![OutLabel(0); view.center_degree()],
        );
        let input = lcl::uniform_input(&g);
        let est = estimate_local_failure(&p, &alg, &g, &input, 10, 1).unwrap();
        assert_eq!(est.local(), 0.0);
        assert_eq!(est.global, 0.0);
    }

    #[test]
    fn zero_trials_and_zero_threads_are_typed_errors() {
        let g = gen::path(5);
        let p = any_label_problem();
        let alg = FnAlgorithm::new(
            "const",
            |_| 0,
            |view| vec![OutLabel(0); view.center_degree()],
        );
        let input = lcl::uniform_input(&g);
        let err = estimate_local_failure(&p, &alg, &g, &input, 0, 1).unwrap_err();
        assert_eq!(err.param, "trials");
        let err = estimate_local_failure_parallel(&p, &alg, &g, &input, 5, 1, 0).unwrap_err();
        assert_eq!(err.param, "threads");
    }

    #[test]
    fn failure_estimate_detects_coin_flips() {
        // 2-coloring attempted by pure coin flips must fail often.
        let p = LclProblem::builder("2col", 2)
            .outputs(["A", "B"])
            .node_pattern(&["A*"])
            .node_pattern(&["B*"])
            .edge(&["A", "B"])
            .build()
            .unwrap();
        let g = gen::path(6);
        let alg = FnAlgorithm::new(
            "coin",
            |_| 0,
            |view| vec![OutLabel((view.bits[0] % 2) as u32); view.center_degree()],
        );
        let input = lcl::uniform_input(&g);
        let est = estimate_local_failure(&p, &alg, &g, &input, 200, 5).unwrap();
        // Each edge is monochromatic with probability 1/2.
        assert!(est.max_edge > 0.3, "max_edge = {}", est.max_edge);
        assert!(est.global > 0.9);
    }

    #[test]
    fn parallel_estimator_matches_sequential() {
        let p = LclProblem::builder("2col", 2)
            .outputs(["A", "B"])
            .node_pattern(&["A*"])
            .node_pattern(&["B*"])
            .edge(&["A", "B"])
            .build()
            .unwrap();
        let g = gen::path(8);
        let alg = FnAlgorithm::new(
            "coin",
            |_| 0,
            |view| vec![OutLabel((view.bits[0] % 2) as u32); view.center_degree()],
        );
        let input = lcl::uniform_input(&g);
        let sequential = estimate_local_failure(&p, &alg, &g, &input, 64, 9).unwrap();
        for threads in [1, 3, 8] {
            let parallel =
                estimate_local_failure_parallel(&p, &alg, &g, &input, 64, 9, threads).unwrap();
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn simulate_reports_view_counters() {
        let g = gen::path(4);
        let alg = FnAlgorithm::new(
            "radius-1",
            |_| 1,
            |view| vec![OutLabel(0); view.center_degree()],
        );
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(4);
        let report = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new());
        assert!(!report.outcome.is_degraded());
        assert_eq!(
            report.outcome.outcome,
            simulate_with(&alg, &g, &input, &ids, None, RunOptions::new())
                .outcome
                .outcome
        );
        let trace = &report.trace;
        assert_eq!(trace.total(Counter::Nodes), 4);
        assert_eq!(trace.total(Counter::Radius), 1);
        // Radius-1 balls on a 4-path: 2 + 3 + 3 + 2 nodes.
        assert_eq!(trace.total(Counter::ViewNodes), 10);
        assert!(!trace.is_empty());
    }

    #[test]
    fn simulate_logged_records_view_events() {
        use lcl_obs::{Event, EventLog};
        let g = gen::path(4);
        let alg = FnAlgorithm::new(
            "radius-1",
            |_| 1,
            |view| vec![OutLabel(0); view.center_degree()],
        );
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(4);
        let log = EventLog::new(64);
        let report = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new().events(&log));
        let events = log.events();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[0],
            Event::ViewMaterialized {
                node: ids.id(lcl_graph::NodeId(0)),
                radius: 1,
                size: 2,
            }
        );
        let total: u64 = events
            .iter()
            .map(|e| match e {
                Event::ViewMaterialized { size, .. } => *size,
                _ => panic!("unexpected event {e:?}"),
            })
            .sum();
        assert_eq!(total, report.trace.total(Counter::ViewNodes));
        // Per-query ball sizes land in the ViewNodes histogram.
        let hist = report
            .trace
            .root()
            .histogram(Counter::ViewNodes)
            .expect("histogram recorded");
        assert_eq!(hist.count(), 4);
        assert_eq!(hist.sum(), 10);
    }

    #[test]
    fn cost_model_charges_views_to_their_centers() {
        use lcl_obs::{CostKind, EventLog};
        let g = gen::path(4);
        let alg = FnAlgorithm::new(
            "radius-1",
            |_| 1,
            |view| vec![OutLabel(0); view.center_degree()],
        );
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(4);
        // Zero capacity: a pure cost tally, no stored events.
        let log = EventLog::new(0);
        let report = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new().events(&log));
        let cost = log.cost_model();
        assert_eq!(cost.get(CostKind::ViewMaterialized), 4);
        // Per-node work is the view size at each center; the total is
        // exactly the trace's ViewNodes counter.
        assert_eq!(cost.node_total(), report.trace.total(Counter::ViewNodes));
        assert_eq!(cost.node_count(), 4);
        assert_eq!(report.node_averaged_cost(), None, "log not attached");
        assert_eq!(cost.node_averaged(), Some(10.0 / 4.0));
    }

    #[test]
    fn simulate_randomized_traces_match_runs() {
        let g = gen::cycle(6);
        let alg = FnAlgorithm::new(
            "coin",
            |_| 0,
            |view| vec![OutLabel((view.bits[0] % 2) as u32); view.center_degree()],
        );
        let input = lcl::uniform_input(&g);
        let a = simulate_randomized_with(&alg, &g, &input, 3, None, RunOptions::new());
        let b = simulate_randomized_with(&alg, &g, &input, 3, None, RunOptions::new());
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.trace.fingerprint(), b.trace.fingerprint());
        // Radius-0 balls: exactly one view node per query.
        assert_eq!(a.trace.total(Counter::ViewNodes), 6);
    }

    #[test]
    #[should_panic(expected = "label each port")]
    fn wrong_arity_is_rejected() {
        let g = gen::path(3);
        let alg = FnAlgorithm::new("bad", |_| 0, |_| vec![OutLabel(0)]);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(3);
        let _ = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new());
    }
}
