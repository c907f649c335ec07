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
use lcl_faults::{inject_panic, isolate, record_fault, Degraded, FaultPlan, NodeFault, RunOptions};
use lcl_graph::{Graph, NodeId};
use lcl_obs::{Counter, Event, EventLog, RunReport, Span, Trace};

use crate::ids::ids_under;

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

/// Runs a [`SyncAlgorithm`] under [`RunOptions`].
///
/// `ids[v]` provides each node's identifier (use random values for
/// randomized algorithms). A run with or without a fault plan goes
/// through the same round loop; the option axes decide only this much:
///
/// * a **fault plan** decides the ids the run sees (its adversarial
///   permutation, when it asks for one), per-node injection
///   (crash-stops, injected panics) and what a failing node costs:
///   every node invocation is panic-isolated, a panic or a wrong port
///   count becomes a typed [`NodeFault`] (`"panic"`, `"wrong-arity"`)
///   and the node dies, beaconing its last outbox from then on;
/// * a **budget** with `max_rounds` lowers the round cap to
///   `min(max_rounds, budget.max_rounds)` and runs under the empty
///   plan, so a budget breach is a typed `no-halt` degradation;
/// * **events** stream round boundaries and faults into the log.
///
/// DESIGN.md, "Fault model & budgets", states the fault semantics: a
/// node that never sent stays mute, and its neighbors skip the rounds
/// whose inbox it leaves incomplete; an output a node cannot give is
/// placeholder labels; a run under a plan is a pure function of
/// `(algorithm, instance, ids, plan)`. The span is
/// `local/sync-faulted/<alg>` under a plan and `local/sync/<alg>`
/// without one.
///
/// A halting run is [`Degraded::clean`]; one that exhausts
/// `max_rounds` records one `"no-halt"` fault per unfinished node, the
/// same outcome and fault list as the run under
/// `Budget::unlimited().with_max_rounds(max_rounds)`. A caller that
/// reads `rounds` of a run that must halt checks `faults.is_empty()`.
///
/// # Panics
///
/// Without a fault plan or round budget, if the algorithm itself
/// panics (the panic propagates) or sends or labels the wrong number
/// of ports.
pub fn simulate_sync_with<A: SyncAlgorithm>(
    alg: &A,
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &[u64],
    n_announced: Option<usize>,
    max_rounds: u32,
    opts: RunOptions<'_>,
) -> RunReport<Degraded<SyncRun>> {
    assert_eq!(ids.len(), graph.node_count(), "ids cover the graph");
    let budget = opts.run_budget();
    let max_rounds = budget.round_cap(max_rounds);
    let unfaulted = FaultPlan::new(0);
    let plan = opts.fault_plan().or(budget.max_rounds.map(|_| &unfaulted));
    let ids = ids_under(ids, plan);
    let n = n_announced.unwrap_or_else(|| graph.node_count());
    let mut span = Span::start(match plan {
        Some(_) => format!("local/sync-faulted/{}", alg.name()),
        None => format!("local/sync/{}", alg.name()),
    });
    let log = opts.event_log();
    let mut faults = Faults {
        list: Vec::new(),
        log,
    };
    let injected = |i: usize| plan.is_some_and(|p| p.panics(i));

    let init = |v: NodeId| NodeInit {
        node: v,
        n,
        id: ids[v.index()],
        degree: graph.degree(v),
        inputs: graph.half_edges_of(v).map(|h| input.get(h)).collect(),
    };
    // Only a plan lets a node die (a failed init, crash-stop, caught
    // panic or wrong arity), so only a run under one keeps the per-node
    // flags `stateless` and `died` and the beacons: a plain run leaves
    // them empty, and its `marked` checks read no memory. A dead node
    // re-emits its last outbox and never receives.
    let mut stateless = Vec::new();
    let mut states: Vec<A::State> = match plan {
        None => graph.nodes().map(|v| alg.init(&init(v))).collect(),
        Some(_) => {
            let tried: Vec<Option<A::State>> = graph
                .nodes()
                .map(|v| {
                    let state = isolate(|| alg.init(&init(v)));
                    state
                        .map_err(|e| faults.file(v.index(), 0, "panic", e))
                        .ok()
                })
                .collect();
            stateless = tried.iter().map(Option::is_none).collect();
            // A node whose init panicked is dead from round 0 and
            // outputs placeholder labels, so the algorithm never sees
            // its slot, which holds another node's state. Bare slots,
            // not one `Option` per node, keep a plain run's state vector
            // as small as its states.
            let filler = tried.iter().flatten().next().cloned();
            let filled = tried.into_iter().map(|s| s.or_else(|| filler.clone()));
            filled.collect::<Option<_>>().unwrap_or_default()
        }
    };
    let mut died = stateless.clone();
    let mut last_outbox: Vec<Option<Vec<A::Msg>>> = vec![None; died.len()];
    let mut rounds = 0u32;
    let mut messages = 0u64;
    loop {
        let finished =
            |i: usize| marked(&died, i) || call(plan, || alg.is_done(&states[i])).unwrap_or(true);
        if (0..graph.node_count()).all(finished) {
            break;
        }
        if rounds >= max_rounds {
            for i in (0..graph.node_count()).filter(|&i| !finished(i)) {
                let payload = format!("did not halt within {max_rounds} rounds");
                faults.file(i, rounds, "no-halt", payload);
            }
            break;
        }
        if let Some(log) = log {
            log.record(Event::RoundStart {
                round: u64::from(rounds),
            });
        }
        // Scheduled crash-stops bite before the send phase of their round.
        if let Some(plan) = plan {
            for (i, death) in died.iter_mut().enumerate() {
                if !*death && plan.crash_round(i) == Some(rounds) {
                    faults.file(i, rounds, "crash-stop", "crash-stop".into());
                    *death = true;
                }
            }
        }
        // Send phase: collect all outboxes first (synchronous semantics).
        // Injected panics hit a node's first send.
        let outboxes: Vec<Option<Vec<A::Msg>>> = graph
            .nodes()
            .map(|v| {
                let i = v.index();
                if marked(&died, i) {
                    return last_outbox[i].clone();
                }
                let state = &states[i];
                let sent = if injected(i) && rounds == 0 {
                    isolate(|| inject_panic(i as u64))
                } else {
                    call(plan, || alg.send(state, rounds))
                };
                let degree = graph.degree(v) as usize;
                let (tag, payload) = match sent {
                    Ok(out) if out.len() == degree => return Some(out),
                    Ok(out) => {
                        plain_arity(plan, alg, out.len(), degree, "send one message per port");
                        let payload =
                            format!("sent {} messages from a degree-{degree} node", out.len());
                        ("wrong-arity", payload)
                    }
                    Err(payload) => ("panic", payload),
                };
                faults.file(i, rounds, tag, payload);
                died[i] = true;
                last_outbox[i].clone()
            })
            .collect();
        // Deliver phase: the message arriving on port p of v is the one
        // sent by the neighbor through the twin port. A live node whose
        // inbox a mute dead neighbor leaves incomplete skips the round.
        'nodes: for v in graph.nodes() {
            let i = v.index();
            if marked(&died, i) {
                continue;
            }
            let mut inbox = Vec::with_capacity(graph.degree(v) as usize);
            for h in graph.half_edges_of(v) {
                let twin = graph.twin(h);
                let Some(out) = &outboxes[graph.node_of(twin).index()] else {
                    continue 'nodes;
                };
                inbox.push(out[graph.port_of(twin) as usize].clone());
            }
            let state = &mut states[i];
            if let Err(payload) = call(plan, || alg.receive(state, &inbox, rounds)) {
                faults.file(i, rounds, "panic", payload);
                died[i] = true;
            }
        }
        let sent: u64 = outboxes.iter().flatten().map(|o| o.len() as u64).sum();
        messages += sent;
        for (slot, out) in last_outbox.iter_mut().zip(outboxes) {
            if out.is_some() {
                *slot = out;
            }
        }
        if let Some(log) = log {
            log.record(Event::RoundEnd {
                round: u64::from(rounds),
                messages: sent,
            });
        }
        rounds += 1;
    }

    let output = HalfEdgeLabeling::from_node_fn(graph, |v| {
        let i = v.index();
        let degree = graph.degree(v) as usize;
        if marked(&stateless, i) {
            return vec![OutLabel(0); degree];
        }
        let state = &states[i];
        let live = !marked(&died, i);
        // A plan that panics a node which never got to send (0-round
        // algorithms) still bites at the output step.
        let labels = if injected(i) && live && rounds == 0 {
            isolate(|| inject_panic(i as u64))
        } else {
            call(plan, || alg.output(state))
        };
        let fault = match labels {
            Ok(out) if out.len() == degree => return out,
            Ok(out) => {
                plain_arity(plan, alg, out.len(), degree, "label each port");
                let payload = format!("labeled {} ports of a degree-{degree} node", out.len());
                Some(("wrong-arity", payload))
            }
            // A dead node's death is already on file.
            Err(payload) => live.then_some(("panic", payload)),
        };
        if let Some((tag, payload)) = fault {
            faults.file(i, rounds, tag, payload);
        }
        vec![OutLabel(0); degree]
    });
    span.set(Counter::Nodes, graph.node_count() as u64);
    span.set(Counter::Edges, graph.edge_count() as u64);
    span.set(Counter::Rounds, u64::from(rounds));
    span.set(Counter::Messages, messages);
    if plan.is_some() || !faults.list.is_empty() {
        span.set(Counter::Faults, faults.list.len() as u64);
    }
    let degraded = Degraded {
        outcome: SyncRun { output, rounds },
        faults: faults.list,
    };
    RunReport::new(degraded, Trace::new(span.finish()))
}

/// The run's fault list; each record is mirrored into the event log.
struct Faults<'a> {
    list: Vec<NodeFault>,
    log: Option<&'a EventLog>,
}

impl Faults<'_> {
    fn file(&mut self, node: usize, round: u32, tag: &'static str, payload: String) {
        let (node, round) = (node as u64, u64::from(round));
        record_fault(&mut self.list, self.log, node, round, tag, payload);
    }
}

/// Whether node `i` is marked in a per-node flag vector that a plain
/// run leaves empty.
fn marked(flags: &[bool], i: usize) -> bool {
    flags.get(i) == Some(&true)
}

/// One node invocation: panic-isolated under a plan, so a panic is the
/// node's fault; without one a panic propagates.
#[inline]
fn call<T>(plan: Option<&FaultPlan>, f: impl FnOnce() -> T) -> Result<T, String> {
    match plan {
        Some(_) => isolate(f),
        None => Ok(f()),
    }
}

/// Without a plan a wrong port count breaks the plain contract: the
/// run panics, saying what the algorithm `must` do.
fn plain_arity<A: SyncAlgorithm>(
    plan: Option<&FaultPlan>,
    alg: &A,
    got: usize,
    degree: usize,
    must: &str,
) {
    if plan.is_none() {
        assert_eq!(got, degree, "algorithm {} must {must}", alg.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_faults::Fault;
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

    /// A run of `alg` on `g` under `plan`.
    fn under_plan<A: SyncAlgorithm>(
        alg: &A,
        g: &Graph,
        ids: &[u64],
        max_rounds: u32,
        plan: &FaultPlan,
    ) -> RunReport<Degraded<SyncRun>> {
        let input = lcl::uniform_input(g);
        let opts = RunOptions::new().faults(plan);
        simulate_sync_with(alg, g, &input, ids, None, max_rounds, opts)
    }

    #[test]
    fn faulted_sync_with_empty_plan_matches_plain_sync() {
        let g = gen::path(6);
        let ids: Vec<u64> = vec![3, 9, 1, 4, 0, 2];
        let report = under_plan(&FloodMax { k: 3 }, &g, &ids, 100, &FaultPlan::new(0));
        assert!(!report.outcome.is_degraded());
        assert_eq!(
            report.outcome.outcome,
            halting(&FloodMax { k: 3 }, &g, &ids)
        );
        assert_eq!(report.trace.root().name(), "local/sync-faulted/flood-max");
        assert_eq!(report.trace.total(Counter::Faults), 0);
    }

    #[test]
    fn crashed_sync_node_freezes_but_run_completes() {
        let g = gen::path(6);
        let ids: Vec<u64> = vec![3, 9, 1, 4, 0, 2];
        let plan = FaultPlan::new(0).with(Fault::Crash { node: 5, round: 1 });
        let report = under_plan(&FloodMax { k: 5 }, &g, &ids, 100, &plan);
        let degraded = &report.outcome;
        assert!(degraded.is_degraded());
        assert_eq!(degraded.faults[0].payload, "crash-stop");
        assert_eq!(degraded.faults[0].node, 5);
        // The run still halts: live nodes complete their k rounds.
        assert!(report.outcome.outcome.rounds <= 6);
    }

    #[test]
    fn panicking_sync_node_is_isolated_and_becomes_a_beacon() {
        let g = gen::path(4);
        let ids: Vec<u64> = vec![0, 1, 2, 3];
        let plan = FaultPlan::new(0).with(Fault::PanicNode { node: 2 });
        let report = under_plan(&FloodMax { k: 2 }, &g, &ids, 100, &plan);
        let degraded = &report.outcome;
        assert!(degraded.is_degraded());
        assert!(degraded.faults[0]
            .payload
            .contains("injected panic at node 2"));
        // Node 2 died before ever sending, so its neighbors skip receives
        // on that side but the run still terminates (node 2 counts done).
        assert!(report.outcome.outcome.rounds <= 100);
    }

    #[test]
    fn non_halting_sync_degrades_instead_of_panicking() {
        let g = gen::path(3);
        let ids: Vec<u64> = vec![0, 1, 2];
        let report = under_plan(&FloodMax { k: 1000 }, &g, &ids, 5, &FaultPlan::new(0));
        let degraded = &report.outcome;
        assert_eq!(degraded.outcome.rounds, 5);
        assert_eq!(degraded.faults.len(), 3, "every node reported unfinished");
        assert!(degraded.faults[0]
            .payload
            .contains("did not halt within 5 rounds"));
    }

    #[test]
    fn faulted_runs_are_bit_identical_for_the_same_plan() {
        let g = gen::cycle(8);
        let ids: Vec<u64> = (0..8).collect();
        for seed in 0..20 {
            let plan = FaultPlan::random(seed, 8, 4);
            let a = under_plan(&FloodMax { k: 3 }, &g, &ids, 50, &plan);
            let b = under_plan(&FloodMax { k: 3 }, &g, &ids, 50, &plan);
            assert_eq!(a.outcome, b.outcome, "seed {seed}");
            assert_eq!(a.trace.fingerprint(), b.trace.fingerprint(), "seed {seed}");
        }
    }

    /// Where a [`Misfire`] node misbehaves.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Step {
        Init,
        Send,
        Output,
    }

    /// [`FloodMax`] for two rounds, except at the nodes holding an id in
    /// `bad`: their init panics, they send one message short in round
    /// 1, or they label one port short, as `at` says.
    struct Misfire {
        bad: &'static [u64],
        at: Step,
    }

    impl Misfire {
        fn bites(&self, at: Step, id: u64) -> bool {
            self.at == at && self.bad.contains(&id)
        }
    }

    impl SyncAlgorithm for Misfire {
        type State = FloodState;
        type Msg = u64;

        fn init(&self, init: &NodeInit) -> FloodState {
            assert!(
                !self.bites(Step::Init, init.id),
                "init panics at id {}",
                init.id
            );
            FloodMax { k: 2 }.init(init)
        }

        fn send(&self, state: &FloodState, round: u32) -> Vec<u64> {
            let mut out = FloodMax { k: 2 }.send(state, round);
            if self.bites(Step::Send, state.mine) && round == 1 {
                out.pop();
            }
            out
        }

        fn receive(&self, state: &mut FloodState, inbox: &[u64], round: u32) {
            FloodMax { k: 2 }.receive(state, inbox, round);
        }

        fn is_done(&self, state: &FloodState) -> bool {
            FloodMax { k: 2 }.is_done(state)
        }

        fn output(&self, state: &FloodState) -> Vec<OutLabel> {
            let mut out = FloodMax { k: 2 }.output(state);
            if self.bites(Step::Output, state.mine) {
                out.pop();
            }
            out
        }
    }

    /// Node 1 of a 4-path holds the maximum id 9, so it outputs 1 on
    /// both ports unless it misfires.
    const MISFIRE_IDS: [u64; 4] = [0, 9, 1, 2];

    /// A plan-free run on a 4-path whose node 1 misfires `at`.
    fn plain_misfire(at: Step) -> RunReport<Degraded<SyncRun>> {
        let g = gen::path(4);
        let input = lcl::uniform_input(&g);
        let alg = Misfire { bad: &[9], at };
        simulate_sync_with(&alg, &g, &input, &MISFIRE_IDS, None, 10, RunOptions::new())
    }

    #[test]
    #[should_panic(expected = "must send one message per port")]
    fn plain_wrong_arity_send_panics() {
        let _ = plain_misfire(Step::Send);
    }

    #[test]
    #[should_panic(expected = "must label each port")]
    fn plain_wrong_arity_labeling_panics() {
        let _ = plain_misfire(Step::Output);
    }

    /// Under a plan a wrong port count is the misfiring node's typed
    /// `wrong-arity` fault: a short send kills it (it beacons its last
    /// outbox and keeps its frozen state's labels), a short labeling
    /// costs placeholder labels.
    #[test]
    fn wrong_arity_under_a_plan_is_a_typed_fault() {
        let g = gen::path(4);
        let cases = [
            (Step::Send, 1, "sent 1 messages from a degree-2 node", 1),
            (Step::Output, 2, "labeled 1 ports of a degree-2 node", 0),
        ];
        for (at, round, payload, label) in cases {
            let alg = Misfire { bad: &[9], at };
            let log = EventLog::new(64);
            let input = lcl::uniform_input(&g);
            let plan = FaultPlan::new(0);
            let opts = RunOptions::new().faults(&plan).events(&log);
            let report = simulate_sync_with(&alg, &g, &input, &MISFIRE_IDS, None, 10, opts);
            let run = &report.outcome;
            let expected = NodeFault {
                node: 1,
                round,
                payload: payload.into(),
            };
            assert_eq!(run.faults, vec![expected], "{at:?}");
            assert_eq!(run.outcome.rounds, 2, "{at:?}");
            for h in g.half_edges_of(NodeId(1)) {
                assert_eq!(run.outcome.output.get(h), OutLabel(label));
            }
            let fault = Event::Fault {
                node: 1,
                round,
                fault: "wrong-arity",
            };
            assert!(log.events().contains(&fault), "{at:?}");
            assert_eq!(report.trace.total(Counter::Faults), 1);
        }
    }

    /// Under a plan a node whose init panics has no state: it is dead
    /// and mute from round 0 and outputs placeholder labels. When every
    /// init panics the run ends before its first round.
    #[test]
    fn a_panicked_init_leaves_a_stateless_mute_node() {
        const IDS: [u64; 3] = [5, 7, 6];
        let g = gen::path(3);
        let labels = |run: &SyncRun| -> Vec<OutLabel> {
            g.nodes()
                .map(|v| run.output.get(g.half_edge(v, 0)))
                .collect()
        };
        let misfire = |bad| Misfire {
            bad,
            at: Step::Init,
        };

        // Node 1 never sends, so its neighbors never complete a round.
        let one = under_plan(&misfire(&[7]), &g, &IDS, 4, &FaultPlan::new(0)).outcome;
        let filed: Vec<(u64, u64, &str)> = one
            .faults
            .iter()
            .map(|f| (f.node, f.round, f.payload.as_str()))
            .collect();
        let no_halt = "did not halt within 4 rounds";
        let expected = [
            (1, 0, "init panics at id 7"),
            (0, 4, no_halt),
            (2, 4, no_halt),
        ];
        assert_eq!(filed, expected);
        // Node 1 holds the largest id but outputs the placeholder 0;
        // its neighbors, cut off from it, each hold their own maximum.
        assert_eq!(
            labels(&one.outcome),
            [OutLabel(1), OutLabel(0), OutLabel(1)]
        );

        let all = under_plan(&misfire(&IDS), &g, &IDS, 4, &FaultPlan::new(0)).outcome;
        assert_eq!(all.outcome.rounds, 0);
        let filed: Vec<(u64, u64)> = all.faults.iter().map(|f| (f.node, f.round)).collect();
        assert_eq!(filed, [(0, 0), (1, 0), (2, 0)]);
        assert_eq!(labels(&all.outcome), [OutLabel(0); 3]);
    }
}
