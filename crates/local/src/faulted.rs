//! Fault-injected LOCAL execution with graceful degradation.
//!
//! [`simulate_with`](crate::simulate_with) applies a [`FaultPlan`] inside
//! its one view loop; [`simulate_sync_with`](crate::simulate_sync_with)
//! routes a plan to the degrading message-passing executor of this
//! module, which the sharded executors are checked against. Under a
//! plan a node's algorithm invocations run panic-isolated
//! ([`lcl_faults::isolate`]), and every fault becomes a typed
//! [`NodeFault`] record plus an [`Event::Fault`] in the event log. The
//! result is a [`Degraded`] run — never a process abort.
//!
//! Fault semantics (see DESIGN.md, "Fault model & budgets"):
//!
//! * **Crash-stop at round `r`** — the node's state freezes; it still
//!   re-emits its last outbox as a beacon (message types have no
//!   default, so fail-silence is modeled on the *receiver* side), never
//!   receives, and counts as done. In view-based runs a crash at round
//!   `r ≤ T` means the node cannot finish collecting its radius-`T`
//!   view and emits placeholder labels.
//! * **View corruption** — identifiers/bits in the node's ball are
//!   XOR-perturbed with a mask derived from the plan; the node still
//!   answers, possibly incorrectly, and the verifier localizes the
//!   damage.
//! * **Injected/genuine panics** — caught, recorded, and the node
//!   treated as crashed from that round on.
//! * **Non-halting** — a faulted sync run that exhausts `max_rounds`
//!   degrades (one fault record per unfinished node) instead of
//!   panicking.
//!
//! Determinism: outcomes are a pure function of
//! `(algorithm, instance, ids, plan)` — repeated runs are bit-identical.

use lcl::{HalfEdgeLabeling, InLabel, OutLabel};
use lcl_faults::{inject_panic, isolate, record_fault, Degraded, FaultPlan, NodeFault};
use lcl_graph::Graph;
use lcl_obs::{Counter, Event, EventLog, RunReport, Span, Trace};

use crate::ids::ids_under;
use crate::sync::{NodeInit, SyncAlgorithm, SyncRun};

#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_sync_faulted_impl<A: SyncAlgorithm>(
    alg: &A,
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &[u64],
    n_announced: Option<usize>,
    max_rounds: u32,
    plan: &FaultPlan,
    log: Option<&EventLog>,
) -> RunReport<Degraded<SyncRun>> {
    assert_eq!(ids.len(), graph.node_count(), "ids cover the graph");
    let ids = ids_under(ids, Some(plan));
    let n = n_announced.unwrap_or_else(|| graph.node_count());
    let mut span = Span::start(format!("local/sync-faulted/{}", alg.name()));
    let mut faults: Vec<NodeFault> = Vec::new();
    let mut messages = 0u64;

    let mut states: Vec<Option<A::State>> = Vec::with_capacity(graph.node_count());
    for v in graph.nodes() {
        let init = NodeInit {
            node: v,
            n,
            id: ids[v.index()],
            degree: graph.degree(v),
            inputs: graph.half_edges_of(v).map(|h| input.get(h)).collect(),
        };
        match isolate(|| alg.init(&init)) {
            Ok(state) => states.push(Some(state)),
            Err(payload) => {
                record_fault(&mut faults, log, v.index() as u64, 0, "panic", payload);
                states.push(None);
            }
        }
    }

    // The round at which each node died (crash fault, caught panic, or a
    // failed init); dead nodes beacon their last outbox and never receive.
    let mut died: Vec<Option<u32>> = states
        .iter()
        .map(|s| if s.is_none() { Some(0) } else { None })
        .collect();
    let mut last_outbox: Vec<Option<Vec<A::Msg>>> = vec![None; graph.node_count()];
    let mut rounds = 0u32;
    loop {
        let all_done = graph.nodes().all(|v| {
            died[v.index()].is_some()
                || states[v.index()]
                    .as_ref()
                    .is_some_and(|s| isolate(|| alg.is_done(s)).unwrap_or(true))
        });
        if all_done {
            break;
        }
        if rounds >= max_rounds {
            for v in graph.nodes() {
                let i = v.index();
                let live = died[i].is_none();
                let not_done = states[i]
                    .as_ref()
                    .is_some_and(|s| !isolate(|| alg.is_done(s)).unwrap_or(true));
                if live && not_done {
                    record_fault(
                        &mut faults,
                        log,
                        i as u64,
                        u64::from(rounds),
                        "no-halt",
                        format!("did not halt within {max_rounds} rounds"),
                    );
                }
            }
            break;
        }
        if let Some(log) = log {
            log.record(Event::RoundStart {
                round: u64::from(rounds),
            });
        }
        // Scheduled crash-stops bite before the send phase of their round.
        for v in graph.nodes() {
            let i = v.index();
            if died[i].is_none() && plan.crash_round(i) == Some(rounds) {
                record_fault(
                    &mut faults,
                    log,
                    i as u64,
                    u64::from(rounds),
                    "crash-stop",
                    "crash-stop".into(),
                );
                died[i] = Some(rounds);
            }
        }
        // Send phase. Dead nodes beacon their last outbox (or stay mute if
        // they never sent); injected panics hit a node's first send.
        let outboxes: Vec<Option<Vec<A::Msg>>> = graph
            .nodes()
            .map(|v| {
                let i = v.index();
                if died[i].is_some() {
                    return last_outbox[i].clone();
                }
                let state = states[i]
                    .as_ref()
                    .expect("why: died[i] is None, and every live node holds a state");
                let sent = if plan.panics(i) && rounds == 0 {
                    isolate(|| inject_panic(i as u64))
                } else {
                    isolate(|| alg.send(state, rounds))
                };
                match sent {
                    Ok(out) if out.len() == graph.degree(v) as usize => Some(out),
                    Ok(out) => {
                        let payload = format!(
                            "sent {} messages from a degree-{} node",
                            out.len(),
                            graph.degree(v)
                        );
                        record_fault(
                            &mut faults,
                            log,
                            i as u64,
                            u64::from(rounds),
                            "wrong-arity",
                            payload,
                        );
                        died[i] = Some(rounds);
                        last_outbox[i].clone()
                    }
                    Err(payload) => {
                        record_fault(
                            &mut faults,
                            log,
                            i as u64,
                            u64::from(rounds),
                            "panic",
                            payload,
                        );
                        died[i] = Some(rounds);
                        last_outbox[i].clone()
                    }
                }
            })
            .collect();
        messages += outboxes
            .iter()
            .map(|o| o.as_ref().map_or(0, |m| m.len() as u64))
            .sum::<u64>();
        // Deliver phase: live nodes with a complete inbox receive; a
        // missing message (mute dead neighbor) skips the round instead.
        for v in graph.nodes() {
            let i = v.index();
            if died[i].is_some() {
                continue;
            }
            let inbox: Option<Vec<A::Msg>> = graph
                .half_edges_of(v)
                .map(|h| {
                    let twin = graph.twin(h);
                    let u = graph.node_of(twin);
                    outboxes[u.index()]
                        .as_ref()
                        .map(|o| o[graph.port_of(twin) as usize].clone())
                })
                .collect();
            if let Some(inbox) = inbox {
                let state = states[i]
                    .as_mut()
                    .expect("why: died[i] is None, and every live node holds a state");
                if let Err(payload) = isolate(|| alg.receive(state, &inbox, rounds)) {
                    record_fault(
                        &mut faults,
                        log,
                        i as u64,
                        u64::from(rounds),
                        "panic",
                        payload,
                    );
                    died[i] = Some(rounds);
                }
            }
        }
        for (slot, sent) in last_outbox.iter_mut().zip(&outboxes) {
            if sent.is_some() {
                *slot = sent.clone();
            }
        }
        if let Some(log) = log {
            log.record(Event::RoundEnd {
                round: u64::from(rounds),
                messages: outboxes
                    .iter()
                    .map(|o| o.as_ref().map_or(0, |m| m.len() as u64))
                    .sum(),
            });
        }
        rounds += 1;
    }

    let output = HalfEdgeLabeling::from_node_fn(graph, |v| {
        let i = v.index();
        let degree = graph.degree(v) as usize;
        let Some(state) = states[i].as_ref() else {
            return vec![OutLabel(0); degree];
        };
        // A plan that panics a node which never got to send (0-round
        // algorithms) still bites at the output step.
        let labels = if plan.panics(i) && died[i].is_none() && rounds == 0 {
            isolate(|| inject_panic(i as u64))
        } else {
            isolate(|| alg.output(state))
        };
        match labels {
            Ok(out) if out.len() == degree => out,
            Ok(out) => {
                let payload = format!("labeled {} ports of a degree-{degree} node", out.len());
                record_fault(
                    &mut faults,
                    log,
                    i as u64,
                    u64::from(rounds),
                    "wrong-arity",
                    payload,
                );
                vec![OutLabel(0); degree]
            }
            Err(payload) => {
                if died[i].is_none() {
                    record_fault(
                        &mut faults,
                        log,
                        i as u64,
                        u64::from(rounds),
                        "panic",
                        payload,
                    );
                }
                vec![OutLabel(0); degree]
            }
        }
    });

    span.set(Counter::Nodes, graph.node_count() as u64);
    span.set(Counter::Edges, graph.edge_count() as u64);
    span.set(Counter::Rounds, u64::from(rounds));
    span.set(Counter::Messages, messages);
    span.set(Counter::Faults, faults.len() as u64);
    let degraded = Degraded {
        outcome: SyncRun { output, rounds },
        faults,
    };
    RunReport::new(degraded, Trace::new(span.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::FnAlgorithm;
    use crate::ids::IdAssignment;
    use crate::run::simulate_with;
    use crate::view::View;
    use lcl_faults::{Fault, RunOptions};
    use lcl_graph::gen;

    fn echo_id_alg() -> FnAlgorithm<impl Fn(usize) -> u32, impl Fn(&View) -> Vec<OutLabel>> {
        FnAlgorithm::new(
            "echo-id",
            |_| 1,
            |view| vec![OutLabel(view.center_id() as u32); view.center_degree()],
        )
    }

    #[test]
    fn a_crash_after_round_t_never_bites_a_view() {
        let g = gen::path(5);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(5);
        // `echo_id_alg` has T = 1: a crash at round 2 comes after node 2
        // has collected its view, one at round 1 does not.
        let late = FaultPlan::new(0).with(Fault::Crash { node: 2, round: 2 });
        let report = simulate_with(
            &echo_id_alg(),
            &g,
            &input,
            &ids,
            None,
            RunOptions::new().faults(&late),
        );
        assert!(!report.outcome.is_degraded());
        let plain = simulate_with(&echo_id_alg(), &g, &input, &ids, None, RunOptions::new())
            .outcome
            .outcome;
        assert_eq!(report.outcome.outcome, plain);
        let on_time = FaultPlan::new(0).with(Fault::Crash { node: 2, round: 1 });
        let report = simulate_with(
            &echo_id_alg(),
            &g,
            &input,
            &ids,
            None,
            RunOptions::new().faults(&on_time),
        );
        assert_eq!(report.outcome.faults.len(), 1);
    }

    #[test]
    fn crash_and_panic_degrade_without_aborting() {
        let g = gen::path(5);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(5);
        let plan = FaultPlan::new(0)
            .with(Fault::Crash { node: 1, round: 0 })
            .with(Fault::PanicNode { node: 3 });
        let log = EventLog::new(64);
        let opts = RunOptions::new().faults(&plan).events(&log);
        let report = simulate_with(&echo_id_alg(), &g, &input, &ids, None, opts);
        let degraded = &report.outcome;
        assert!(degraded.is_degraded());
        assert_eq!(degraded.faults.len(), 2);
        assert_eq!(degraded.faults[0].payload, "crash-stop");
        assert!(degraded.faults[1]
            .payload
            .contains("injected panic at node 3"));
        assert_eq!(report.trace.total(Counter::Faults), 2);
        let fault_events = log
            .events()
            .iter()
            .filter(|e| matches!(e, Event::Fault { .. }))
            .count();
        assert_eq!(fault_events, 2);
        // Healthy nodes still answered from their own views.
        let h = g.half_edge(lcl_graph::NodeId(0), 0);
        assert_eq!(degraded.outcome.output.get(h), OutLabel(0));
    }

    #[test]
    fn corrupt_view_changes_output_but_not_center() {
        let g = gen::path(4);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::from_vec(vec![10, 20, 30, 40]);
        // Output the max id in view: corruption of neighbors can change it.
        let alg = FnAlgorithm::new(
            "max-id",
            |_| 1,
            |view| {
                let max = view.ids.iter().copied().max().unwrap_or(0);
                vec![OutLabel((max % 1000) as u32); view.center_degree()]
            },
        );
        let plan = FaultPlan::new(0).with(Fault::CorruptView { node: 1, salt: 7 });
        let a = simulate_with(
            &alg,
            &g,
            &input,
            &ids,
            None,
            RunOptions::new().faults(&plan),
        );
        let b = simulate_with(
            &alg,
            &g,
            &input,
            &ids,
            None,
            RunOptions::new().faults(&plan),
        );
        assert_eq!(a.outcome, b.outcome, "corruption is deterministic");
        // No fault record: the node answered, possibly wrongly.
        assert!(!a.outcome.is_degraded());
    }

    #[test]
    fn id_permutation_is_applied_and_deterministic() {
        let g = gen::path(4);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::from_vec(vec![10, 20, 30, 40]);
        let plan = FaultPlan::new(9).with_permuted_ids();
        let run = simulate_with(
            &echo_id_alg(),
            &g,
            &input,
            &ids,
            None,
            RunOptions::new().faults(&plan),
        );
        let seen: Vec<u32> = g
            .nodes()
            .map(|v| run.outcome.outcome.output.get(g.half_edge(v, 0)).0)
            .collect();
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![10, 20, 30, 40], "same id multiset");
        let again = simulate_with(
            &echo_id_alg(),
            &g,
            &input,
            &ids,
            None,
            RunOptions::new().faults(&plan),
        );
        assert_eq!(run.outcome, again.outcome);
    }

    // A flood-style sync algorithm for the message-passing executor.
    struct Flood {
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

    impl SyncAlgorithm for Flood {
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
    fn faulted_sync_with_empty_plan_matches_plain_sync() {
        let g = gen::path(6);
        let input = lcl::uniform_input(&g);
        let ids: Vec<u64> = vec![3, 9, 1, 4, 0, 2];
        let plan = FaultPlan::new(0);
        let report =
            simulate_sync_faulted_impl(&Flood { k: 3 }, &g, &input, &ids, None, 100, &plan, None);
        assert!(!report.outcome.is_degraded());
        let plain = crate::sync::run_sync(&Flood { k: 3 }, &g, &input, &ids, None, 100);
        assert_eq!(report.outcome.outcome, plain);
    }

    #[test]
    fn crashed_sync_node_freezes_but_run_completes() {
        let g = gen::path(6);
        let input = lcl::uniform_input(&g);
        let ids: Vec<u64> = vec![3, 9, 1, 4, 0, 2];
        let plan = FaultPlan::new(0).with(Fault::Crash { node: 5, round: 1 });
        let report =
            simulate_sync_faulted_impl(&Flood { k: 5 }, &g, &input, &ids, None, 100, &plan, None);
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
        let input = lcl::uniform_input(&g);
        let ids: Vec<u64> = vec![0, 1, 2, 3];
        let plan = FaultPlan::new(0).with(Fault::PanicNode { node: 2 });
        let report =
            simulate_sync_faulted_impl(&Flood { k: 2 }, &g, &input, &ids, None, 100, &plan, None);
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
        let input = lcl::uniform_input(&g);
        let ids: Vec<u64> = vec![0, 1, 2];
        let plan = FaultPlan::new(0);
        let report =
            simulate_sync_faulted_impl(&Flood { k: 1000 }, &g, &input, &ids, None, 5, &plan, None);
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
        let input = lcl::uniform_input(&g);
        let ids: Vec<u64> = (0..8).collect();
        for seed in 0..20 {
            let plan = FaultPlan::random(seed, 8, 4);
            let a = simulate_sync_faulted_impl(
                &Flood { k: 3 },
                &g,
                &input,
                &ids,
                None,
                50,
                &plan,
                None,
            );
            let b = simulate_sync_faulted_impl(
                &Flood { k: 3 },
                &g,
                &input,
                &ids,
                None,
                50,
                &plan,
                None,
            );
            assert_eq!(a.outcome, b.outcome, "seed {seed}");
            assert_eq!(a.trace.fingerprint(), b.trace.fingerprint(), "seed {seed}");
        }
    }
}
