//! The superstep coordinator: the one round loop of every sharded
//! executor.
//!
//! A sharded LOCAL run is Definition 2.1's synchronous round loop over a
//! [`ShardMap`] partition, one round per superstep. [`coordinate`] is
//! that loop, written once, over a [`ShardTransport`] that runs one
//! phase (init; begin, compute, deliver; no-halt; output) on every shard
//! and answers with one [`ShardReply`] per shard, in shard order.
//! Transports differ only in where shards live and how halo batches
//! travel: [`crate::run`] steps [`ShardStepper`]s on a thread pool and
//! moves typed batches; `lcl_procshard` drives one `shard-worker`
//! process per shard and routes the batches as wire text.
//!
//! The coordinator alone decides the empty-plan fallback, the round cap,
//! the id permutation and its slicing into shard ranges, the crash
//! flags, the round events, the fault merge order, the labeling and the
//! span counters. Reply fault buffers are held per shard and merged in
//! shard order at fixed points — init, recv after init; crash, send
//! after each compute; recv after each deliver; the residual crash,
//! send, recv after the loop; out, recv, crash after output. Shards own
//! contiguous ascending ranges, so this rebuilds the global node order
//! of the unsharded executor.
//!
//! [`ShardStepper`]: crate::ShardStepper

use lcl::{HalfEdgeLabeling, OutLabel};
use lcl_faults::{Budget, Degraded, FaultPlan, NodeFault, RunOptions};
use lcl_graph::{Graph, NodeId, ShardMap};
use lcl_local::{ids_under, SyncRun};
use lcl_obs::{Counter, Event, RunReport, Span, Trace};

use crate::step::{PhaseFaults, StepCounters};

/// What every shard is built from, handed to [`ShardTransport::init`].
pub struct Setup<'a> {
    /// The partition.
    pub map: &'a ShardMap,
    /// The run's fault plan; empty when the run has none.
    pub plan: &'a FaultPlan,
    /// The run's budget.
    pub budget: Budget,
    /// The announced `n` every node is initialized with.
    pub n: usize,
    /// Each shard's ids, indexed by local node: the plan's permutation
    /// applied to the whole assignment, then sliced by the map's ranges.
    pub ids: Vec<&'a [u64]>,
}

/// One shard's answer to one phase. Fields the phase does not produce
/// stay at their defaults.
#[derive(Debug, Default)]
pub struct ShardReply {
    /// The fault records the phase buffered.
    pub faults: PhaseFaults,
    /// The shard's running counters after the phase.
    pub counters: StepCounters,
    /// Whether every owned node is finished or dead (begin).
    pub all_done: bool,
    /// Whether the shard is permanently lost.
    pub lost: bool,
    /// Times the transport has restarted the shard's process.
    pub respawns: u64,
    /// The owned half-edges' labels, in half-edge order (output).
    pub labels: Vec<OutLabel>,
    /// The shard's private event stream (output).
    pub events: Vec<Event>,
}

/// How a sharded run reaches its shards: each method runs one superstep
/// phase on every shard and returns one reply per shard, in shard order.
pub trait ShardTransport {
    /// Why a phase could not complete.
    type Error;

    /// Builds and initializes every shard; returns the algorithm's name too.
    fn init(&mut self, setup: &Setup<'_>) -> Result<(String, Vec<ShardReply>), Self::Error>;

    /// Superstep prologue at `round`: budget checkpoint and all-done scan.
    fn begin(&mut self, round: u32) -> Result<Vec<ShardReply>, Self::Error>;

    /// Records no-halt faults once the round cap `effective` runs out.
    fn finish(&mut self, round: u32, effective: u32) -> Result<Vec<ShardReply>, Self::Error>;

    /// Compute phase; `crashed` flags the shards lost whole this superstep.
    fn compute(&mut self, round: u32, crashed: &[bool]) -> Result<Vec<ShardReply>, Self::Error>;

    /// Carries the last compute's halo batches to their receivers, then delivers.
    fn deliver(&mut self, round: u32, crashed: &[bool]) -> Result<Vec<ShardReply>, Self::Error>;

    /// Output phase after `rounds` rounds: labels and event streams.
    fn output(&mut self, rounds: u32) -> Result<Vec<ShardReply>, Self::Error>;

    /// The error for a reply that breaks the protocol; `what` says how.
    fn bad_reply(&self, shard: usize, what: String) -> Self::Error;
}

/// One of a reply's [`PhaseFaults`] buffers.
type Buffer = fn(&mut PhaseFaults) -> &mut Vec<NodeFault>;

const INIT: Buffer = |f| &mut f.init;
const CRASH: Buffer = |f| &mut f.crash;
const SEND: Buffer = |f| &mut f.send;
const RECV: Buffer = |f| &mut f.recv;
const OUT: Buffer = |f| &mut f.out;

/// Moves every reply's fault buffers onto its shard's held buffers.
fn hold(held: &mut [PhaseFaults], replies: &mut [ShardReply]) {
    for (h, reply) in held.iter_mut().zip(replies) {
        for buffer in [INIT, CRASH, SEND, RECV, OUT] {
            buffer(h).append(buffer(&mut reply.faults));
        }
    }
}

/// Appends the named held buffers to `faults`: buffer by buffer, each
/// in shard order.
fn merge(faults: &mut Vec<NodeFault>, held: &mut [PhaseFaults], buffers: &[Buffer]) {
    for buffer in buffers {
        for h in held.iter_mut() {
            faults.append(buffer(h));
        }
    }
}

/// Runs a sharded LOCAL run of `graph` to completion over `transport`,
/// partitioned into `shards` shards (clamped to the node count).
///
/// For plans without whole-shard losses the outcome equals the
/// unsharded executor's. The `shard/sync/<alg>` span carries the run
/// counters plus `shards`, `supersteps`, `halo-messages`, `halo-bytes`,
/// `shard-crashes` (planned crashes plus lost shards),
/// `shard-rebuilds`, `checkpoints` and `retries` (rebuilds plus process
/// respawns).
///
/// # Errors
///
/// The first error a transport phase returns.
///
/// # Panics
///
/// Panics unless `ids` holds one id per node.
#[allow(clippy::too_many_arguments)]
pub fn coordinate<T: ShardTransport>(
    transport: &mut T,
    graph: &Graph,
    ids: &[u64],
    n_announced: Option<usize>,
    max_rounds: u32,
    shards: usize,
    opts: RunOptions<'_>,
) -> Result<RunReport<Degraded<SyncRun>>, T::Error> {
    assert_eq!(ids.len(), graph.node_count(), "ids cover the graph");
    let empty_plan = FaultPlan::new(0);
    let plan = opts.fault_plan().unwrap_or(&empty_plan);
    let log = opts.event_log();
    let effective = opts.run_budget().round_cap(max_rounds);
    let map = ShardMap::new(graph.node_count(), shards);
    let m = map.num_shards();
    let ids = ids_under(ids, Some(plan));
    let setup = Setup {
        map: &map,
        plan,
        budget: opts.run_budget(),
        n: n_announced.unwrap_or_else(|| graph.node_count()),
        ids: (0..m).map(|s| &ids[map.range(s)]).collect(),
    };
    let crash_at: Vec<Vec<u32>> = (0..m).map(|s| plan.shard_crashes(s)).collect();

    let (name, mut replies) = transport.init(&setup)?;
    let mut span = Span::start(format!("shard/sync/{name}"));
    let mut held: Vec<PhaseFaults> = (0..m).map(|_| PhaseFaults::default()).collect();
    let mut faults: Vec<NodeFault> = Vec::new();
    hold(&mut held, &mut replies);
    merge(&mut faults, &mut held, &[INIT, RECV]);

    let mut messages = 0u64;
    let mut rounds = 0u32;
    loop {
        let mut begun = transport.begin(rounds)?;
        hold(&mut held, &mut begun);
        if begun.iter().all(|r| r.all_done) {
            break;
        }
        if rounds >= effective {
            hold(&mut held, &mut transport.finish(rounds, effective)?);
            break;
        }
        if let Some(log) = log {
            log.record(Event::RoundStart {
                round: u64::from(rounds),
            });
        }
        let crashed: Vec<bool> = begun
            .iter()
            .zip(&crash_at)
            .map(|(r, at)| !r.lost && at.binary_search(&rounds).is_ok())
            .collect();
        let mut computed = transport.compute(rounds, &crashed)?;
        let round_messages: u64 = computed
            .iter()
            .filter(|r| !r.lost)
            .map(|r| r.counters.round_messages)
            .sum();
        messages += round_messages;
        hold(&mut held, &mut computed);
        merge(&mut faults, &mut held, &[CRASH, SEND]);
        hold(&mut held, &mut transport.deliver(rounds, &crashed)?);
        merge(&mut faults, &mut held, &[RECV]);
        if let Some(log) = log {
            log.record(Event::RoundEnd {
                round: u64::from(rounds),
                messages: round_messages,
            });
        }
        rounds += 1;
    }
    // Residual buffers: no-halt faults, and losses and deaths recorded
    // after the last merge point.
    merge(&mut faults, &mut held, &[CRASH, SEND, RECV]);

    let mut outputs = transport.output(rounds)?;
    hold(&mut held, &mut outputs);
    merge(&mut faults, &mut held, &[OUT, RECV, CRASH]);
    // Shards own contiguous node ranges in index order and a node's
    // half-edges are contiguous, so the shards' labels concatenate into
    // the labeling in half-edge order.
    let mut labels: Vec<OutLabel> = Vec::with_capacity(graph.half_edge_count());
    for (s, reply) in outputs.iter_mut().enumerate() {
        let owned: usize = map
            .range(s)
            .map(|i| usize::from(graph.degree(NodeId(i as u32))))
            .sum();
        if reply.lost {
            // A lost shard never filled its labels; placeholder like
            // any other dead node.
            labels.resize(labels.len() + owned, OutLabel(0));
        } else if reply.labels.len() == owned {
            labels.append(&mut reply.labels);
        } else {
            let what = format!("labeled {} of {owned} owned half-edges", reply.labels.len());
            return Err(transport.bad_reply(s, what));
        }
    }
    if let Some(log) = log {
        for event in outputs.iter_mut().flat_map(|r| r.events.drain(..)) {
            log.record(event);
        }
    }

    let total = |f: fn(&ShardReply) -> u64| outputs.iter().map(f).sum::<u64>();
    span.set(Counter::Nodes, graph.node_count() as u64);
    span.set(Counter::Edges, graph.edge_count() as u64);
    span.set(Counter::Rounds, u64::from(rounds));
    span.set(Counter::Messages, messages);
    span.set(Counter::Faults, faults.len() as u64);
    span.set(Counter::Shards, m as u64);
    span.set(Counter::Supersteps, total(|r| r.counters.supersteps));
    span.set(Counter::HaloMessages, total(|r| r.counters.halo_messages));
    span.set(Counter::HaloBytes, total(|r| r.counters.halo_bytes));
    let lost = total(|r| u64::from(r.lost));
    span.set(Counter::ShardCrashes, total(|r| r.counters.crashes) + lost);
    span.set(Counter::ShardRebuilds, total(|r| r.counters.rebuilds));
    span.set(Counter::Checkpoints, total(|r| r.counters.checkpoints));
    let respawns = total(|r| r.respawns);
    span.set(Counter::Retries, total(|r| r.counters.rebuilds) + respawns);
    let degraded = Degraded {
        outcome: SyncRun {
            output: labels.into_iter().collect::<HalfEdgeLabeling<OutLabel>>(),
            rounds,
        },
        faults,
    };
    Ok(RunReport::new(degraded, Trace::new(span.finish())))
}
