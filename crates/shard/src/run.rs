//! The in-process sharded synchronous executor.
//!
//! This module is the in-process transport of the superstep loop in
//! [`crate::coordinator`]: every shard is a [`ShardStepper`] in this
//! address space, stepped on a small thread pool, one phase per barrier
//! (a `std::thread::scope` join). Before the deliver barrier it moves
//! each shard's outgoing halo batches into the receivers' inboxes as
//! typed values, so a superstep's halos are all in place before any
//! shard starts delivering. The process-per-shard transport
//! (`lcl_procshard`) differs only in carrying those batches over
//! sockets.
//!
//! # Whole-shard loss
//!
//! [`Fault::ShardCrash`] loses a shard at the start of a superstep; the
//! shard rebuilds from its superstep-start checkpoint and replays the
//! lost compute ([`ShardStepper::compute`]), while its healthy
//! neighbors never receive its batch and record a `"halo-loss"` fault —
//! damage confined to their frontier, which is what `crate::recovery`
//! exploits. Unplanned trouble — a budget breach at a superstep
//! boundary, or a panic escaping the executor machinery itself — has no
//! snapshot to rebuild from and loses the shard for good
//! ([`ShardStepper::lose`]); its neighbors see it as mute from then on.
//!
//! [`Fault::ShardCrash`]: lcl_faults::Fault::ShardCrash

use std::convert::Infallible;

use lcl::{HalfEdgeLabeling, InLabel};
use lcl_faults::{isolate, Degraded, RunOptions};
use lcl_graph::Graph;
use lcl_local::{SyncAlgorithm, SyncRun};
use lcl_obs::RunReport;

use crate::coordinator::{coordinate, Setup, ShardReply, ShardTransport};
use crate::step::{HaloBatches, ShardStepper};

/// One in-process shard: its stepper plus the halo batches its last
/// compute produced, which [`Pool::exchange_halos`] moves to their
/// receivers.
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

/// The seat pool: every shard's seat, stepped on up to `threads` runner
/// threads.
struct Pool<A: SyncAlgorithm> {
    seats: Vec<Seat<A>>,
    threads: usize,
}

impl<A> Pool<A>
where
    A: SyncAlgorithm + Sync,
    A::State: Send,
    A::Msg: Send,
{
    /// Runs `f` over every shard, with shards partitioned into
    /// contiguous blocks across the runner threads. The call is a
    /// barrier: every shard has finished the phase when it returns, and
    /// it answers with each shard's drained fault buffers, counters,
    /// flags and labels.
    fn for_each_shard(&mut self, round: u32, f: impl Fn(&mut Seat<A>) + Sync) -> Vec<ShardReply> {
        let m = self.seats.len();
        let t = self.threads.clamp(1, m.max(1));
        if t <= 1 {
            for seat in self.seats.iter_mut() {
                step_one(seat, round, &f);
            }
        } else {
            let f = &f;
            std::thread::scope(|scope| {
                for slice in self.seats.chunks_mut(m.div_ceil(t)) {
                    scope.spawn(move || {
                        for seat in slice {
                            step_one(seat, round, f);
                        }
                    });
                }
            });
        }
        self.seats
            .iter_mut()
            .map(|seat| ShardReply {
                faults: std::mem::take(&mut seat.step.faults),
                counters: seat.step.counters,
                all_done: seat.step.all_done(),
                lost: seat.step.is_lost(),
                labels: seat.step.take_outputs(),
                ..ShardReply::default()
            })
            .collect()
    }

    /// Moves every shard's outgoing batches into their receivers'
    /// inboxes. A lost receiver discards what was addressed to it; a
    /// batch the receiver's routes reject (an executor invariant broken)
    /// loses that receiver rather than the run.
    fn exchange_halos(&mut self, round: u32) {
        let mut inboxes: Vec<HaloBatches<A::Msg>> = self.seats.iter().map(|_| Vec::new()).collect();
        for (src, seat) in self.seats.iter_mut().enumerate() {
            for (dst, payload) in seat.sent.drain(..) {
                inboxes[dst].push((src, payload));
            }
        }
        for (seat, batches) in self.seats.iter_mut().zip(inboxes) {
            if seat.step.is_lost() {
                continue;
            }
            if let Err(e) = seat.step.accept_halos(batches) {
                seat.step.lose(round, "shard-loss", &e);
            }
        }
    }
}

/// The in-process transport: every shard's stepper lives in this
/// address space, in the seat pool.
struct InProcess<'r, A: SyncAlgorithm> {
    alg: &'r A,
    graph: &'r Graph,
    input: &'r HalfEdgeLabeling<InLabel>,
    pool: Pool<A>,
}

impl<A> ShardTransport for InProcess<'_, A>
where
    A: SyncAlgorithm + Sync,
    A::State: Send,
    A::Msg: Send,
{
    type Error = Infallible;

    fn init(&mut self, setup: &Setup<'_>) -> Result<(String, Vec<ShardReply>), Infallible> {
        self.pool.seats = (0..setup.map.num_shards())
            .map(|s| Seat {
                step: ShardStepper::new(s, setup.map, self.graph, setup.plan, &setup.budget),
                sent: Vec::new(),
            })
            .collect();
        let replies = self.pool.for_each_shard(0, |seat| {
            let ids = setup.ids[seat.step.id()];
            seat.step
                .init_nodes(self.alg, self.graph, self.input, ids, setup.n);
        });
        Ok((self.alg.name().to_string(), replies))
    }

    fn begin(&mut self, round: u32) -> Result<Vec<ShardReply>, Infallible> {
        Ok(self
            .pool
            .for_each_shard(round, |seat| seat.step.begin_round(self.alg, round)))
    }

    fn finish(&mut self, round: u32, effective: u32) -> Result<Vec<ShardReply>, Infallible> {
        Ok(self
            .pool
            .for_each_shard(round, |seat| seat.step.no_halt(self.alg, effective, round)))
    }

    fn compute(&mut self, round: u32, crashed: &[bool]) -> Result<Vec<ShardReply>, Infallible> {
        Ok(self.pool.for_each_shard(round, |seat| {
            seat.sent = seat.step.compute(self.alg, self.graph, round, crashed);
        }))
    }

    fn deliver(&mut self, round: u32, crashed: &[bool]) -> Result<Vec<ShardReply>, Infallible> {
        self.pool.exchange_halos(round);
        Ok(self.pool.for_each_shard(round, |seat| {
            seat.step.deliver(self.alg, self.graph, round, crashed);
        }))
    }

    fn output(&mut self, rounds: u32) -> Result<Vec<ShardReply>, Infallible> {
        let mut replies = self.pool.for_each_shard(rounds, |seat| {
            seat.step.output_nodes(self.alg, self.graph, rounds);
        });
        for (reply, seat) in replies.iter_mut().zip(&self.pool.seats) {
            reply.events = seat.step.domain().events().events();
        }
        Ok(replies)
    }

    fn bad_reply(&self, shard: usize, what: String) -> Infallible {
        unreachable!("an in-process stepper labels every owned half-edge (shard {shard}: {what})")
    }
}

/// Runs a [`SyncAlgorithm`] under [`RunOptions`] on a sharded
/// substrate with `threads` runner threads.
///
/// When `opts` requests no sharding ([`RunOptions::shard_count`] is
/// `None`) the call delegates to `lcl_local::simulate_sync_with`
/// unchanged. Otherwise the graph is partitioned into the requested
/// number of shards and run by [`coordinate`] over this module's
/// in-process transport; see the module docs for the fault model and
/// [`coordinate`] for the shard counters the trace carries.
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
    let Some(shards) = opts.shard_count() else {
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
    let transport = &mut InProcess {
        alg,
        graph,
        input,
        pool: Pool {
            seats: Vec::new(),
            threads,
        },
    };
    let Ok(report) = coordinate(transport, graph, ids, n_announced, max_rounds, shards, opts);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl::OutLabel;
    use lcl_faults::{Budget, Fault, FaultPlan};
    use lcl_graph::{gen, NodeId};
    use lcl_local::NodeInit;
    use lcl_obs::{Counter, Event, EventLog};
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
