//! The in-process sharded synchronous executor.
//!
//! LOCAL rounds run as bulk-synchronous supersteps over a [`ShardMap`]
//! partition. Every shard is a [`ShardStepper`]; the coordinator steps
//! them on a small thread pool, one phase per barrier (a
//! `std::thread::scope` join). Between the compute and deliver
//! barriers it moves each shard's outgoing halo batches into the
//! receivers' inboxes, so a superstep's halos are all in place before
//! any shard starts delivering. The process-per-shard substrate
//! (`lcl_procshard`) drives the same stepper and differs only in
//! carrying those batches over sockets.
//!
//! # Bit-identity with the single-image executor
//!
//! The per-node semantics are an exact mirror of `lcl_local`'s
//! degrading executor (see [`crate::step`]), and all per-shard fault
//! records are buffered per phase and merged in shard order — which,
//! because shards own contiguous ascending ranges, reconstructs exactly
//! the global node order the unsharded executor would have produced. A
//! sharded run of a plan without whole-shard losses is therefore
//! *equal* — outcome, fault list, round/message counts, and event-log
//! cost model — to the unsharded run, for every shard count and every
//! runner thread count.
//!
//! # Whole-shard loss
//!
//! [`Fault::ShardCrash`] kills a shard at the start of a superstep: the
//! work of that superstep is lost, including the halo batches it would
//! have sent. Crash-planned shards checkpoint at the start of every
//! superstep ([`ShardSnapshot`] round-trip plus an in-memory image), so
//! the rebuild restores the superstep-start state, replays the lost
//! compute, and re-exchanges halos with shards that crashed alongside
//! it. Healthy shards never receive the dead shard's batch, so their
//! frontier nodes record a `"halo-loss"` fault and skip the round,
//! exactly like a node whose neighbor died mute. Everything else in a
//! healthy shard, and everything in the rebuilt shard, proceeds
//! bit-identically to a crash-free run; containment of the damage to
//! healthy-shard frontiers is what `crate::recovery` exploits.
//!
//! Unplanned trouble has no snapshot to rebuild from: a budget breach
//! at a superstep boundary, or a panic escaping the executor machinery
//! itself, loses the shard for good ([`ShardStepper::lose`]). Its live
//! nodes get one fault each, its halo batches for that superstep are
//! dropped, and its neighbors see it as mute from then on.
//!
//! [`Fault::ShardCrash`]: lcl_faults::Fault::ShardCrash
//! [`ShardSnapshot`]: crate::ShardSnapshot

use lcl::{HalfEdgeLabeling, InLabel, OutLabel};
use lcl_faults::{isolate, Degraded, FaultPlan, NodeFault, RunOptions};
use lcl_graph::{Graph, ShardMap};
use lcl_local::{IdAssignment, SyncAlgorithm, SyncRun};
use lcl_obs::{Counter, Event, RunReport, Span, Trace};

use crate::step::{HaloBatches, PhaseFaults, ShardStepper};

/// One in-process shard: its stepper plus the halo batches its last
/// compute produced, which the coordinator moves to their receivers.
struct Seat<A: SyncAlgorithm> {
    step: ShardStepper<A>,
    sent: HaloBatches<A::Msg>,
}

/// Steps one shard through one phase with whole-shard panic isolation:
/// an escaped panic (impossible from algorithm code, which is isolated
/// per node — this guards the executor machinery itself) drops the
/// shard's outgoing batches and loses the shard instead of poisoning
/// the run.
fn step_one<A, F>(seat: &mut Seat<A>, round: u32, f: &F)
where
    A: SyncAlgorithm,
    F: Fn(&mut Seat<A>),
{
    if seat.step.is_lost() {
        return;
    }
    if let Err(payload) = isolate(|| f(seat)) {
        seat.sent.clear();
        seat.step.lose(round, "shard-loss", &payload);
    }
}

/// Runs `f` over every shard on up to `threads` runner threads, with
/// shards partitioned into contiguous blocks. The call is a barrier:
/// every shard has finished the phase when it returns.
fn for_each_shard<A, F>(seats: &mut [Seat<A>], threads: usize, round: u32, f: F)
where
    A: SyncAlgorithm + Sync,
    A::State: Send,
    A::Msg: Send,
    F: Fn(&mut Seat<A>) + Sync,
{
    let m = seats.len();
    let t = threads.clamp(1, m.max(1));
    if t <= 1 {
        for seat in seats.iter_mut() {
            step_one(seat, round, &f);
        }
        return;
    }
    let chunk = m.div_ceil(t);
    let f = &f;
    std::thread::scope(|scope| {
        for slice in seats.chunks_mut(chunk) {
            scope.spawn(move || {
                for seat in slice {
                    step_one(seat, round, f);
                }
            });
        }
    });
}

/// Moves every shard's outgoing batches into their receivers' inboxes.
/// A lost receiver discards what was addressed to it; a batch the
/// receiver's routes reject (an executor invariant broken) loses that
/// receiver rather than the run.
fn exchange_halos<A: SyncAlgorithm>(seats: &mut [Seat<A>], round: u32) {
    let mut inboxes: Vec<HaloBatches<A::Msg>> = seats.iter().map(|_| Vec::new()).collect();
    for (src, seat) in seats.iter_mut().enumerate() {
        for (dst, payload) in seat.sent.drain(..) {
            inboxes[dst].push((src, payload));
        }
    }
    for (seat, batches) in seats.iter_mut().zip(inboxes) {
        if seat.step.is_lost() {
            continue;
        }
        if let Err(e) = seat.step.accept_halos(batches) {
            seat.step.lose(round, "shard-loss", &e);
        }
    }
}

/// Appends one phase buffer of every shard to `faults`, in shard order.
fn merge(
    faults: &mut Vec<NodeFault>,
    seats: &mut [Seat<impl SyncAlgorithm>],
    buffer: fn(&mut PhaseFaults) -> &mut Vec<NodeFault>,
) {
    for seat in seats {
        faults.append(buffer(&mut seat.step.faults));
    }
}

/// Runs a [`SyncAlgorithm`] under [`RunOptions`] on a sharded
/// substrate with `threads` runner threads.
///
/// When `opts` requests no sharding ([`RunOptions::shard_count`] is
/// `None`) the call delegates to `lcl_local::simulate_sync_with`
/// unchanged. Otherwise the graph is partitioned by a [`ShardMap`]
/// into the requested number of shards (clamped to the node count) and
/// executed as boundary-exchange supersteps; see the module docs for
/// the fault model. The outcome for plans without whole-shard losses
/// is equal to the unsharded executor's for every shard and thread
/// count; the trace additionally carries the shard counters
/// (`shards`, `supersteps`, `halo-messages`, `halo-bytes`,
/// `shard-crashes`, `shard-rebuilds`, `checkpoints`, `retries`).
#[allow(clippy::too_many_arguments)]
pub fn simulate_sharded_with<A>(
    alg: &A,
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &[u64],
    n_announced: Option<usize>,
    max_rounds: u32,
    threads: usize,
    opts: RunOptions<'_>,
) -> RunReport<Degraded<SyncRun>>
where
    A: SyncAlgorithm + Sync,
    A::State: Send,
    A::Msg: Send,
{
    let Some(requested_shards) = opts.shard_count() else {
        return lcl_local::simulate_sync_with(
            alg,
            graph,
            input,
            ids,
            n_announced,
            max_rounds,
            opts,
        );
    };
    assert_eq!(ids.len(), graph.node_count(), "ids cover the graph");
    let empty_plan;
    let plan: &FaultPlan = match opts.fault_plan() {
        Some(plan) => plan,
        None => {
            empty_plan = FaultPlan::new(0);
            &empty_plan
        }
    };
    let log = opts.event_log();
    let budget = opts.run_budget();
    let effective = budget.max_rounds.map_or(max_rounds, |cap| {
        max_rounds.min(u32::try_from(cap).unwrap_or(u32::MAX))
    });
    let owned;
    let ids: &[u64] = match plan.permutation(graph.node_count()) {
        Some(perm) => {
            owned = IdAssignment::from_vec(ids.to_vec())
                .permuted(&perm)
                .iter()
                .collect::<Vec<u64>>();
            &owned
        }
        None => ids,
    };
    let n = n_announced.unwrap_or_else(|| graph.node_count());
    let map = ShardMap::new(graph.node_count(), requested_shards);
    let m = map.num_shards();
    let mut span = Span::start(format!("shard/sync/{}", alg.name()));

    let mut seats: Vec<Seat<A>> = (0..m)
        .map(|s| Seat {
            step: ShardStepper::new(s, &map, graph, plan, &budget),
            sent: Vec::new(),
        })
        .collect();

    let mut faults: Vec<NodeFault> = Vec::new();
    let mut messages = 0u64;
    let mut rounds = 0u32;

    for_each_shard(&mut seats, threads, 0, |seat| {
        let range = map.range(seat.step.id());
        seat.step.init_nodes(alg, graph, input, &ids[range], n);
    });
    merge(&mut faults, &mut seats, |f| &mut f.init);
    merge(&mut faults, &mut seats, |f| &mut f.recv);

    loop {
        for_each_shard(&mut seats, threads, rounds, |seat| {
            seat.step.begin_round(alg, rounds);
        });
        if seats.iter().all(|seat| seat.step.all_done()) {
            break;
        }
        if rounds >= effective {
            for_each_shard(&mut seats, threads, rounds, |seat| {
                seat.step.no_halt(alg, effective, rounds);
            });
            break;
        }
        if let Some(log) = log {
            log.record(Event::RoundStart {
                round: u64::from(rounds),
            });
        }
        let crashed: Vec<bool> = seats
            .iter()
            .map(|seat| !seat.step.is_lost() && seat.step.domain().crashes_at(rounds))
            .collect();
        let crashed = crashed.as_slice();
        for_each_shard(&mut seats, threads, rounds, |seat| {
            seat.sent = seat.step.compute(alg, graph, rounds, crashed);
        });
        let round_messages: u64 = seats
            .iter()
            .filter(|seat| !seat.step.is_lost())
            .map(|seat| seat.step.counters.round_messages)
            .sum();
        messages += round_messages;
        merge(&mut faults, &mut seats, |f| &mut f.crash);
        merge(&mut faults, &mut seats, |f| &mut f.send);
        exchange_halos(&mut seats, rounds);
        for_each_shard(&mut seats, threads, rounds, |seat| {
            seat.step.deliver(alg, graph, rounds, crashed);
        });
        merge(&mut faults, &mut seats, |f| &mut f.recv);
        if let Some(log) = log {
            log.record(Event::RoundEnd {
                round: u64::from(rounds),
                messages: round_messages,
            });
        }
        rounds += 1;
    }
    // Residual buffers: no-halt faults, and losses recorded by a phase
    // that broke out of the loop.
    merge(&mut faults, &mut seats, |f| &mut f.crash);
    merge(&mut faults, &mut seats, |f| &mut f.send);
    merge(&mut faults, &mut seats, |f| &mut f.recv);

    for_each_shard(&mut seats, threads, rounds, |seat| {
        seat.step.output_nodes(alg, graph, rounds);
    });
    merge(&mut faults, &mut seats, |f| &mut f.out);
    merge(&mut faults, &mut seats, |f| &mut f.recv);

    let mut outputs: Vec<Vec<Vec<OutLabel>>> = seats
        .iter_mut()
        .map(|seat| seat.step.take_outputs())
        .collect();
    let output = HalfEdgeLabeling::from_node_fn(graph, |v| {
        let s = map.shard_of(v);
        let local = v.index() - map.range(s).start;
        let degree = graph.degree(v) as usize;
        match outputs[s].get_mut(local).map(std::mem::take) {
            Some(labels) if labels.len() == degree => labels,
            // A shard lost before or during the output phase never
            // filled its labels; placeholder like any other dead node.
            _ => vec![OutLabel(0); degree],
        }
    });

    if let Some(log) = log {
        for seat in &seats {
            for event in seat.step.domain().events().events() {
                log.record(event);
            }
        }
    }

    let total = |f: fn(&ShardStepper<A>) -> u64| seats.iter().map(|seat| f(&seat.step)).sum();
    let lost_shards: u64 = total(|s| u64::from(s.is_lost()));
    let rebuilds: u64 = total(|s| s.counters.rebuilds);
    span.set(Counter::Nodes, graph.node_count() as u64);
    span.set(Counter::Edges, graph.edge_count() as u64);
    span.set(Counter::Rounds, u64::from(rounds));
    span.set(Counter::Messages, messages);
    span.set(Counter::Faults, faults.len() as u64);
    span.set(Counter::Shards, m as u64);
    span.set(Counter::Supersteps, total(|s| s.counters.supersteps));
    span.set(Counter::HaloMessages, total(|s| s.counters.halo_messages));
    span.set(Counter::HaloBytes, total(|s| s.counters.halo_bytes));
    span.set(
        Counter::ShardCrashes,
        total(|s| s.counters.crashes) + lost_shards,
    );
    span.set(Counter::ShardRebuilds, rebuilds);
    span.set(Counter::Checkpoints, total(|s| s.counters.checkpoints));
    span.set(Counter::Retries, rebuilds);
    let degraded = Degraded {
        outcome: SyncRun { output, rounds },
        faults,
    };
    RunReport::new(degraded, Trace::new(span.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_faults::{Budget, Fault};
    use lcl_graph::{gen, NodeId};
    use lcl_local::NodeInit;
    use lcl_obs::EventLog;
    use std::time::Duration;

    /// Flood-max with a halt guard: a node floods the maximum id it has
    /// seen for `k` rounds and ignores every message after its own
    /// round counter reaches `k` — so late supersteps (a lagging
    /// frontier node extending the run) cannot corrupt finished nodes.
    pub(crate) struct GuardedFlood {
        pub k: u32,
    }

    #[derive(Clone)]
    pub(crate) struct FloodState {
        best: u64,
        mine: u64,
        degree: usize,
        round: u32,
        k: u32,
    }

    impl SyncAlgorithm for GuardedFlood {
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
            if state.round >= state.k {
                return;
            }
            for &msg in inbox {
                state.best = state.best.max(msg);
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
            "guarded-flood"
        }
    }

    fn ids(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * 31 % 97 + 1).collect()
    }

    #[test]
    fn clean_sharded_runs_match_the_unsharded_executor() {
        let g = gen::random_tree(40, 3, 11);
        let ids = ids(40);
        let input = lcl::uniform_input(&g);
        let alg = GuardedFlood { k: 3 };
        let baseline =
            lcl_local::simulate_sync_with(&alg, &g, &input, &ids, None, 10, RunOptions::new());
        for shards in [1usize, 4, 16] {
            for threads in [1usize, 2, 8] {
                let run = simulate_sharded_with(
                    &alg,
                    &g,
                    &input,
                    &ids,
                    None,
                    10,
                    threads,
                    RunOptions::new().sharded(shards),
                );
                assert_eq!(
                    run.outcome, baseline.outcome,
                    "shards={shards} threads={threads}"
                );
                assert_eq!(run.trace.total(Counter::Shards), shards.min(40) as u64);
                assert_eq!(run.trace.total(Counter::ShardCrashes), 0);
            }
        }
    }

    #[test]
    fn node_fault_plans_degrade_identically_to_the_unsharded_executor() {
        let g = gen::path(20);
        let ids = ids(20);
        let input = lcl::uniform_input(&g);
        let alg = GuardedFlood { k: 2 };
        let plan = FaultPlan::new(5)
            .with(Fault::Crash { node: 3, round: 1 })
            .with(Fault::PanicNode { node: 11 })
            .with(Fault::Crash { node: 17, round: 0 });
        let baseline = lcl_local::simulate_sync_with(
            &alg,
            &g,
            &input,
            &ids,
            None,
            10,
            RunOptions::new().faults(&plan),
        );
        assert!(baseline.outcome.is_degraded());
        for shards in [1usize, 3, 7] {
            let run = simulate_sharded_with(
                &alg,
                &g,
                &input,
                &ids,
                None,
                10,
                2,
                RunOptions::new().faults(&plan).sharded(shards),
            );
            assert_eq!(run.outcome, baseline.outcome, "shards={shards}");
        }
    }

    #[test]
    fn whole_shard_loss_is_rebuilt_and_contained_to_the_frontier() {
        let g = gen::path(12);
        let ids = ids(12);
        let input = lcl::uniform_input(&g);
        let alg = GuardedFlood { k: 1 };
        let clean = simulate_sharded_with(
            &alg,
            &g,
            &input,
            &ids,
            None,
            10,
            1,
            RunOptions::new().sharded(3),
        );
        assert!(clean.outcome.faults.is_empty());
        // Shard 1 owns 4..8; it dies at superstep 0 and is rebuilt.
        let plan = FaultPlan::new(0).with(Fault::ShardCrash {
            shard: 1,
            superstep: 0,
        });
        let log = EventLog::new(256);
        let run = simulate_sharded_with(
            &alg,
            &g,
            &input,
            &ids,
            None,
            10,
            2,
            RunOptions::new().faults(&plan).sharded(3).events(&log),
        );
        assert_eq!(run.trace.total(Counter::ShardCrashes), 1);
        assert_eq!(run.trace.total(Counter::ShardRebuilds), 1);
        assert!(run.trace.total(Counter::Checkpoints) >= 1);
        let faults = &run.outcome.faults;
        assert!(
            faults
                .iter()
                .any(|f| f.payload.contains("shard 1 lost whole")),
            "{faults:?}"
        );
        // Halo loss hits exactly the healthy frontier nodes 3 and 8.
        let halo_nodes: Vec<u64> = faults
            .iter()
            .filter(|f| f.payload.contains("halo from crashed shard 1"))
            .map(|f| f.node)
            .collect();
        assert_eq!(halo_nodes, vec![3, 8]);
        // The rebuilt shard's own labels match the clean run exactly;
        // damage is confined to the healthy frontier.
        let clean_out = &clean.outcome.outcome.output;
        let crashed_out = &run.outcome.outcome.output;
        for i in 0..12u32 {
            let v = NodeId(i);
            let same = g
                .half_edges_of(v)
                .all(|h| clean_out.get(h) == crashed_out.get(h));
            if (4..8).contains(&i) {
                assert!(same, "rebuilt shard node {i} must match the clean run");
            } else if i != 3 && i != 8 {
                assert!(same, "healthy interior node {i} must match the clean run");
            }
        }
        // The per-shard streams carry checkpoint + retry + shard-step
        // events, folded into the caller's log.
        let kinds: Vec<&'static str> = log.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"checkpoint"));
        assert!(kinds.contains(&"retry"));
        assert!(kinds.contains(&"shard-step"));
    }

    #[test]
    fn single_shard_crash_rebuild_is_lossless() {
        let g = gen::path(9);
        let ids = ids(9);
        let input = lcl::uniform_input(&g);
        let alg = GuardedFlood { k: 2 };
        let clean = simulate_sharded_with(
            &alg,
            &g,
            &input,
            &ids,
            None,
            10,
            1,
            RunOptions::new().sharded(1),
        );
        let plan = FaultPlan::new(0).with(Fault::ShardCrash {
            shard: 0,
            superstep: 1,
        });
        let run = simulate_sharded_with(
            &alg,
            &g,
            &input,
            &ids,
            None,
            10,
            1,
            RunOptions::new().faults(&plan).sharded(1),
        );
        // With no other shard to lose halos toward, the rebuild makes
        // the crash output-transparent; only the fault record remains.
        assert_eq!(run.outcome.outcome, clean.outcome.outcome);
        assert_eq!(run.outcome.faults.len(), 1);
        assert_eq!(
            run.outcome.faults[0].payload,
            "shard 0 lost whole at superstep 1"
        );
        assert_eq!(run.trace.total(Counter::ShardRebuilds), 1);
    }

    /// A deadline that has passed before the first superstep loses every
    /// shard at its first boundary check: each node gets one `"budget"`
    /// fault, every label is a placeholder, and each lost shard counts
    /// as a shard crash.
    #[test]
    fn expired_deadline_loses_every_shard_with_typed_faults() {
        let g = gen::path(20);
        let ids = ids(20);
        let input = lcl::uniform_input(&g);
        let log = EventLog::new(256);
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        for threads in [1usize, 3] {
            let run = simulate_sharded_with(
                &GuardedFlood { k: 3 },
                &g,
                &input,
                &ids,
                None,
                10,
                threads,
                RunOptions::new().sharded(4).budget(budget).events(&log),
            );
            let faults = &run.outcome.faults;
            assert_eq!(
                faults.iter().map(|f| f.node).collect::<Vec<_>>(),
                (0..20).collect::<Vec<u64>>()
            );
            for f in faults {
                let shard = f.node / 5;
                assert_eq!(f.round, 0);
                assert!(
                    f.payload
                        .starts_with(&format!("budget exceeded at shard/{shard}")),
                    "{f:?}"
                );
            }
            assert_eq!(run.outcome.outcome.rounds, 0);
            assert!(g
                .half_edges()
                .all(|h| run.outcome.outcome.output.get(h) == OutLabel(0)));
            assert_eq!(run.trace.total(Counter::ShardCrashes), 4);
            assert_eq!(run.trace.total(Counter::Supersteps), 0);
        }
        let budget_faults = log
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::Fault {
                        fault: "budget",
                        ..
                    }
                )
            })
            .count();
        assert_eq!(budget_faults, 40, "20 nodes, two runs");
    }

    #[test]
    fn unsharded_options_delegate_to_the_local_executor() {
        let g = gen::path(6);
        let ids = ids(6);
        let input = lcl::uniform_input(&g);
        let alg = GuardedFlood { k: 1 };
        let run = simulate_sharded_with(&alg, &g, &input, &ids, None, 10, 4, RunOptions::new());
        let direct =
            lcl_local::simulate_sync_with(&alg, &g, &input, &ids, None, 10, RunOptions::new());
        assert_eq!(run.outcome, direct.outcome);
        assert_eq!(run.trace.fingerprint(), direct.trace.fingerprint());
    }
}
