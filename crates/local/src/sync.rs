//! Synchronous message-passing formulation of the LOCAL model.
//!
//! Iterative algorithms (Cole–Vishkin, rake-and-compress, color reduction)
//! are most naturally written as per-round state machines; this executor
//! runs them and *counts the rounds actually used*, which is what the
//! landscape benches plot against `n`.
//!
//! The formulation is equivalent to the view-based one: `T` rounds of
//! message passing reveal at most the radius-`T` view.

use lcl::{HalfEdgeLabeling, InLabel, OutLabel};
use lcl_faults::{record_fault, Degraded, FaultPlan, NodeFault};
use lcl_graph::{Graph, NodeId};
use lcl_obs::{Counter, Event, EventLog, RunReport, Span, Trace};

/// The information a node starts with (before any communication).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NodeInit {
    /// The node's structural index (not visible to the algorithm logic
    /// beyond equality; exposed for deterministic tie-breaking in tests).
    pub node: NodeId,
    /// The announced number of nodes.
    pub n: usize,
    /// The node's unique identifier (or a random bit string in randomized
    /// uses; the executor does not distinguish).
    pub id: u64,
    /// Degree.
    pub degree: u8,
    /// Input labels on the node's half-edges, in port order.
    pub inputs: Vec<InLabel>,
}

/// A synchronous LOCAL algorithm as a per-node state machine.
///
/// Each round, every node produces one message per port ([`send`]) and
/// consumes the messages arriving on its ports ([`receive`]). The run ends
/// when every node reports done.
///
/// [`send`]: SyncAlgorithm::send
/// [`receive`]: SyncAlgorithm::receive
pub trait SyncAlgorithm {
    /// Per-node state.
    type State: Clone;
    /// Per-edge message.
    type Msg: Clone;

    /// Initializes a node's state.
    fn init(&self, init: &NodeInit) -> Self::State;

    /// Produces the message to send through each port, in port order.
    fn send(&self, state: &Self::State, round: u32) -> Vec<Self::Msg>;

    /// Consumes the messages received on each port, in port order.
    fn receive(&self, state: &mut Self::State, inbox: &[Self::Msg], round: u32);

    /// Whether this node has finished (all nodes finishing ends the run).
    fn is_done(&self, state: &Self::State) -> bool;

    /// The output labels for the node's half-edges, in port order.
    fn output(&self, state: &Self::State) -> Vec<OutLabel>;

    /// A short name for diagnostics.
    fn name(&self) -> &str {
        "anonymous"
    }
}

/// The result of a synchronous run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SyncRun {
    /// The produced half-edge labeling.
    pub output: HalfEdgeLabeling<OutLabel>,
    /// Number of communication rounds used.
    pub rounds: u32,
}

/// Runs a [`SyncAlgorithm`] under [`RunOptions`](lcl_faults::RunOptions).
///
/// `ids[v]` provides each node's identifier (use random values for
/// randomized algorithms). Dispatch over the option axes:
///
/// * a **fault plan** routes through the degrading executor of
///   [`crate::faulted`] (crash-stops, panic isolation, no-halt
///   degradation);
/// * a **budget** with `max_rounds` lowers the round cap to
///   `min(max_rounds, budget.max_rounds)` and likewise routes through
///   the degrading executor, so a budget breach is a typed `no-halt`
///   degradation;
/// * **events** stream round boundaries (and faults, where they apply)
///   into the log on every path.
///
/// Without faults or a round budget, the run is the plain instrumented
/// executor. A halting run is [`Degraded::clean`]; one that exhausts
/// `max_rounds` records one `"no-halt"` fault per unfinished node, the
/// same outcome and fault list as the run under
/// `Budget::unlimited().with_max_rounds(max_rounds)`. A caller that
/// reads `rounds` of a run that must halt checks `faults.is_empty()`.
///
/// # Panics
///
/// Only on the plain path (no fault plan, no round budget), if the
/// algorithm itself panics or sends or labels the wrong number of
/// ports; a fault plan isolates those per node.
pub fn simulate_sync_with<A: SyncAlgorithm>(
    alg: &A,
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &[u64],
    n_announced: Option<usize>,
    max_rounds: u32,
    opts: lcl_faults::RunOptions<'_>,
) -> RunReport<Degraded<SyncRun>> {
    let budget = opts.run_budget();
    let effective = budget.round_cap(max_rounds);
    let unfaulted = FaultPlan::new(0);
    let plan = opts.fault_plan().or(budget.max_rounds.map(|_| &unfaulted));
    match plan {
        Some(plan) => crate::faulted::simulate_sync_faulted_impl(
            alg,
            graph,
            input,
            ids,
            n_announced,
            effective,
            plan,
            opts.event_log(),
        ),
        None => run_sync_core(
            alg,
            graph,
            input,
            ids,
            n_announced,
            effective,
            opts.event_log(),
        ),
    }
}

/// The plain synchronous loop, traced under `local/sync/<alg>`.
/// Exhausting `max_rounds` gives every unfinished node one `"no-halt"`
/// fault (mirrored into `log`), and the run still produces its output.
fn run_sync_core<A: SyncAlgorithm>(
    alg: &A,
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &[u64],
    n_announced: Option<usize>,
    max_rounds: u32,
    log: Option<&EventLog>,
) -> RunReport<Degraded<SyncRun>> {
    assert_eq!(ids.len(), graph.node_count(), "ids cover the graph");
    let mut span = Span::start(format!("local/sync/{}", alg.name()));
    let n = n_announced.unwrap_or_else(|| graph.node_count());

    let mut states: Vec<A::State> = graph
        .nodes()
        .map(|v| {
            alg.init(&NodeInit {
                node: v,
                n,
                id: ids[v.index()],
                degree: graph.degree(v),
                inputs: graph.half_edges_of(v).map(|h| input.get(h)).collect(),
            })
        })
        .collect();

    let mut faults = Vec::new();
    let mut rounds = 0u32;
    let mut messages = 0u64;
    loop {
        if states.iter().all(|s| alg.is_done(s)) {
            break;
        }
        if rounds >= max_rounds {
            faults = no_halt_faults(alg, &states, rounds, max_rounds, log);
            break;
        }
        if let Some(log) = log {
            log.record(Event::RoundStart {
                round: u64::from(rounds),
            });
        }
        // Send phase: collect all outboxes first (synchronous semantics).
        let outboxes: Vec<Vec<A::Msg>> = graph
            .nodes()
            .map(|v| {
                let out = alg.send(&states[v.index()], rounds);
                assert_eq!(
                    out.len(),
                    graph.degree(v) as usize,
                    "algorithm {} must send one message per port",
                    alg.name()
                );
                out
            })
            .collect();
        // Deliver phase: the message arriving on port p of v is the one
        // sent by the neighbor through the twin port.
        for v in graph.nodes() {
            let inbox: Vec<A::Msg> = graph
                .half_edges_of(v)
                .map(|h| {
                    let twin = graph.twin(h);
                    let u = graph.node_of(twin);
                    outboxes[u.index()][graph.port_of(twin) as usize].clone()
                })
                .collect();
            alg.receive(&mut states[v.index()], &inbox, rounds);
        }
        let sent: u64 = outboxes.iter().map(|o| o.len() as u64).sum();
        messages += sent;
        if let Some(log) = log {
            log.record(Event::RoundEnd {
                round: u64::from(rounds),
                messages: sent,
            });
        }
        rounds += 1;
    }

    let output = HalfEdgeLabeling::from_node_fn(graph, |v| {
        let out = alg.output(&states[v.index()]);
        assert_eq!(
            out.len(),
            graph.degree(v) as usize,
            "algorithm {} must label each port",
            alg.name()
        );
        out
    });
    span.set(Counter::Nodes, graph.node_count() as u64);
    span.set(Counter::Edges, graph.edge_count() as u64);
    span.set(Counter::Rounds, u64::from(rounds));
    span.set(Counter::Messages, messages);
    if !faults.is_empty() {
        span.set(Counter::Faults, faults.len() as u64);
    }
    let degraded = Degraded {
        outcome: SyncRun { output, rounds },
        faults,
    };
    RunReport::new(degraded, Trace::new(span.finish()))
}

/// One `"no-halt"` fault per unfinished node, in node order, each
/// mirrored into `log`.
#[cold]
fn no_halt_faults<A: SyncAlgorithm>(
    alg: &A,
    states: &[A::State],
    rounds: u32,
    max_rounds: u32,
    log: Option<&EventLog>,
) -> Vec<NodeFault> {
    let round = u64::from(rounds);
    let mut faults = Vec::new();
    for (i, _) in states.iter().enumerate().filter(|(_, s)| !alg.is_done(s)) {
        record_fault(
            &mut faults,
            log,
            i as u64,
            round,
            "no-halt",
            format!("did not halt within {max_rounds} rounds"),
        );
    }
    faults
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_faults::RunOptions;
    use lcl_graph::gen;

    /// A plain run that must halt within 100 rounds.
    fn halting(alg: &FloodMax, g: &Graph, ids: &[u64]) -> SyncRun {
        let input = lcl::uniform_input(g);
        let report = simulate_sync_with(alg, g, &input, ids, None, 100, RunOptions::new());
        assert!(
            report.outcome.faults.is_empty(),
            "FloodMax halts after k rounds"
        );
        report.outcome.outcome
    }

    /// Every node learns the maximum id within distance `k` by flooding
    /// for `k` rounds, then outputs 1 iff it holds the maximum.
    struct FloodMax {
        k: u32,
    }

    #[derive(Clone)]
    struct FloodState {
        best: u64,
        mine: u64,
        degree: usize,
        round: u32,
        k: u32,
    }

    impl SyncAlgorithm for FloodMax {
        type State = FloodState;
        type Msg = u64;

        fn init(&self, init: &NodeInit) -> FloodState {
            FloodState {
                best: init.id,
                mine: init.id,
                degree: init.degree as usize,
                round: 0,
                k: self.k,
            }
        }

        fn send(&self, state: &FloodState, _round: u32) -> Vec<u64> {
            vec![state.best; state.degree]
        }

        fn receive(&self, state: &mut FloodState, inbox: &[u64], _round: u32) {
            for &m in inbox {
                state.best = state.best.max(m);
            }
            state.round += 1;
        }

        fn is_done(&self, state: &FloodState) -> bool {
            state.round >= state.k
        }

        fn output(&self, state: &FloodState) -> Vec<OutLabel> {
            vec![OutLabel(u32::from(state.best == state.mine)); state.degree]
        }

        fn name(&self) -> &str {
            "flood-max"
        }
    }

    #[test]
    fn flood_max_uses_exactly_k_rounds() {
        let g = gen::path(8);
        let ids: Vec<u64> = (0..8).collect();
        let run = halting(&FloodMax { k: 3 }, &g, &ids);
        assert_eq!(run.rounds, 3);
    }

    #[test]
    fn flood_max_finds_global_max_with_enough_rounds() {
        let g = gen::path(6);
        let ids = vec![3, 9, 1, 4, 0, 2];
        let run = halting(&FloodMax { k: 6 }, &g, &ids);
        // Only node 1 (id 9) outputs 1.
        for v in g.nodes() {
            let h = g.half_edge(v, 0);
            let expect = u32::from(v.0 == 1);
            assert_eq!(run.output.get(h), OutLabel(expect));
        }
    }

    #[test]
    fn zero_round_algorithm_uses_zero_rounds() {
        let g = gen::cycle(5);
        let ids: Vec<u64> = (0..5).collect();
        let run = halting(&FloodMax { k: 0 }, &g, &ids);
        assert_eq!(run.rounds, 0);
    }

    #[test]
    fn simulate_sync_counts_rounds_and_messages() {
        let g = gen::path(8);
        let input = lcl::uniform_input(&g);
        let ids: Vec<u64> = (0..8).collect();
        let report = simulate_sync_with(
            &FloodMax { k: 3 },
            &g,
            &input,
            &ids,
            None,
            100,
            RunOptions::new(),
        );
        assert_eq!(report.outcome.outcome.rounds, 3);
        assert_eq!(report.trace.total(Counter::Rounds), 3);
        // 8-path: 14 port messages per round, 3 rounds.
        assert_eq!(report.trace.total(Counter::Messages), 42);
        assert_eq!(report.trace.total(Counter::Nodes), 8);
    }

    #[test]
    fn simulate_sync_logged_brackets_every_round() {
        let g = gen::path(8);
        let input = lcl::uniform_input(&g);
        let ids: Vec<u64> = (0..8).collect();
        let log = EventLog::new(64);
        let report = simulate_sync_with(
            &FloodMax { k: 3 },
            &g,
            &input,
            &ids,
            None,
            100,
            RunOptions::new().events(&log),
        );
        assert_eq!(report.outcome.outcome.rounds, 3);
        let events = log.events();
        assert_eq!(events.len(), 6); // start + end per round
        assert_eq!(events[0], Event::RoundStart { round: 0 });
        assert_eq!(
            events[5],
            Event::RoundEnd {
                round: 2,
                messages: 14
            }
        );
        // The logged run's trace is identical to the unlogged one.
        let plain = simulate_sync_with(
            &FloodMax { k: 3 },
            &g,
            &input,
            &ids,
            None,
            100,
            RunOptions::new(),
        );
        assert_eq!(report.trace.fingerprint(), plain.trace.fingerprint());
    }

    #[test]
    fn cost_model_matches_trace_counters() {
        use lcl_obs::CostKind;

        let g = gen::path(8);
        let input = lcl::uniform_input(&g);
        let ids: Vec<u64> = (0..8).collect();
        // A tiny sampled ring: the cost model must still be exact.
        let log = EventLog::with_sampling(2, 3);
        let report = simulate_sync_with(
            &FloodMax { k: 3 },
            &g,
            &input,
            &ids,
            None,
            100,
            RunOptions::new().events(&log),
        );
        let cost = log.cost_model();
        assert_eq!(
            cost.get(CostKind::Round),
            report.trace.total(Counter::Rounds)
        );
        assert_eq!(
            cost.get(CostKind::Message),
            report.trace.total(Counter::Messages)
        );
        assert_eq!(cost.get(CostKind::Round), 3);
        assert_eq!(cost.get(CostKind::Message), 42);
    }

    /// The plain path (no plan, no budget) degrades a non-halting run
    /// exactly as the round-budgeted path does, and leaves halting
    /// runs' traces as they were.
    #[test]
    fn plain_no_halt_is_the_typed_budget_degradation() {
        use lcl_faults::Budget;
        use std::collections::BTreeSet;

        let g = gen::path(3);
        let input = lcl::uniform_input(&g);
        let ids: Vec<u64> = (0..3).collect();
        let runaway = FloodMax { k: 1000 };
        let (plain_log, budget_log) = (EventLog::new(64), EventLog::new(64));
        let plain = simulate_sync_with(
            &runaway,
            &g,
            &input,
            &ids,
            None,
            5,
            RunOptions::new().events(&plain_log),
        );
        let budgeted = simulate_sync_with(
            &runaway,
            &g,
            &input,
            &ids,
            None,
            5,
            RunOptions::new()
                .events(&budget_log)
                .budget(Budget::unlimited().with_max_rounds(5)),
        );
        assert_eq!(plain.outcome, budgeted.outcome);
        assert_eq!(plain_log.events(), budget_log.events());
        assert_eq!(plain.outcome.faults.len(), 3);
        assert!(plain
            .outcome
            .faults
            .iter()
            .all(|f| f.payload == "did not halt within 5 rounds" && f.round == 5));
        assert_eq!(plain.trace.total(Counter::Faults), 3);

        let halting = simulate_sync_with(
            &FloodMax { k: 2 },
            &g,
            &input,
            &ids,
            None,
            5,
            RunOptions::new(),
        );
        assert!(!halting.outcome.is_degraded());
        let root = halting.trace.root();
        assert_eq!(root.name(), "local/sync/flood-max");
        let counters: BTreeSet<Counter> = root.counters().map(|(c, _)| c).collect();
        let expected = [
            Counter::Rounds,
            Counter::Messages,
            Counter::Nodes,
            Counter::Edges,
        ];
        assert_eq!(counters, BTreeSet::from(expected));
    }
}
