//! One shard's superstep state machine, shared by every shard executor.
//!
//! A [`ShardStepper`] owns everything one shard of a sharded LOCAL run
//! holds between barriers: node states, death rounds, outboxes, the
//! superstep-start snapshot, per-phase fault buffers, counters, and the
//! shard's halo routes. It defines each superstep phase exactly once —
//! init, begin, compute, deliver, no-halt, output — for the round loop
//! of [`crate::coordinator`] to drive, and leaves only the transport of
//! halo batches to the executor that holds it: the in-process
//! transport ([`crate::run`]) moves each [`compute`](ShardStepper::compute)
//! result between seats, and a `shard-worker` process ships the same
//! batches through its supervisor.
//!
//! Everything that arrives from outside a caller's own address space —
//! superstep numbers, crashed-shard flags, peers' halo batches — enters
//! through the checked intake ([`ShardStepper::check_superstep`],
//! [`ShardStepper::accept_halos`]), so a malformed command is a typed
//! error rather than an out-of-bounds panic.
//!
//! # Halo routes
//!
//! A halo batch from one shard to another lists the crossing messages
//! in the receiver's scan order, so the receiver knows each entry's
//! place without a key on the wire. Both sides are computed once, at
//! construction, from the shard's owned half-edges: per destination the
//! `(node, port)` sources to copy out of the outboxes, and per owned
//! half-edge one dense slot holding its message's batch position (or a
//! sentinel when the twin is owned too). Delivery reads the slot by
//! half-edge index and moves the entry out of its batch, so each routed
//! message is cloned once, at the sender, and looked up by no hash.
//!
//! # Semantics
//!
//! The per-node rules mirror `lcl_local::simulate_sync_with` under a
//! fault plan, a loop that shares no code with this stepper and so
//! stays its independent oracle:
//! crash-stops bite before sends, dead nodes beacon their last outbox,
//! a node with an incomplete inbox skips its receive, and every node
//! invocation is panic-isolated. Faults are buffered per phase (see
//! [`PhaseFaults`]) so the caller can merge them in shard order, which
//! reconstructs the unsharded executor's global node order.

use std::collections::BTreeMap;

use lcl::{HalfEdgeLabeling, InLabel, OutLabel};
use lcl_faults::{inject_panic, isolate, record_fault, Budget, FaultPlan, NodeFault};
use lcl_graph::{Graph, NodeId, ShardMap};
use lcl_local::{NodeInit, SyncAlgorithm};
use lcl_obs::{Event, EventLog};

use crate::domain::ShardDomain;
use crate::snapshot::{ShardSnapshot, SHARD_SNAPSHOT_VERSION};

/// Halo batches keyed by peer shard: each entry is `(peer, payload)`,
/// where the payload lists the crossing messages in the receiver's
/// `(node, port)` scan order and a `None` slot is a mute (dead,
/// never-sent) source. `peer` is the destination in a
/// [`ShardStepper::compute`] result and the source on intake.
pub type HaloBatches<M> = Vec<(usize, Vec<Option<M>>)>;

/// Destination shard → `(source node, source port)` of each outbound
/// halo entry, in the receiver's scan order.
type OutRoutes = BTreeMap<usize, Vec<(u32, u8)>>;

/// The inbound slot of an owned half-edge whose twin is owned as well:
/// its message comes from the shard's own outboxes, not a halo batch.
const OWNED_TWIN: u32 = u32::MAX;

/// Where each owned half-edge's incoming message sits.
struct InRoutes {
    /// Index of the shard's first half-edge.
    first: usize,
    /// Per owned half-edge, at `h.index() - first`: the message's
    /// position in the batch of the twin's shard, or [`OWNED_TWIN`].
    slots: Vec<u32>,
    /// Entries each source shard routes here per superstep, by shard.
    counts: Vec<usize>,
}

/// Computes shard `me`'s halo routes from its owned half-edges alone.
///
/// A halo batch from shard `a` to shard `b` lists the messages crossing
/// from `a` to `b` in `b`'s scan order: by receiving node, then
/// receiving port. The inbound side is this shard's own scan order, so
/// batch positions count up as the owned half-edges are walked; the
/// outbound side is the same walk sorted by (neighbor, twin port).
fn routes(graph: &Graph, map: &ShardMap, me: usize) -> (OutRoutes, InRoutes) {
    let range = map.range(me);
    let mut inbound = InRoutes {
        first: 0,
        slots: Vec::new(),
        counts: vec![0; map.num_shards()],
    };
    // (owned node, port, neighbor, twin port) of every cut half-edge.
    let mut cut: Vec<(u32, u8, u32, u8)> = Vec::new();
    for i in range.clone() {
        let v = NodeId(i as u32);
        for (p, h) in graph.half_edges_of(v).enumerate() {
            if inbound.slots.is_empty() {
                inbound.first = h.index();
            }
            let twin = graph.twin(h);
            let u = graph.node_of(twin);
            if range.contains(&u.index()) {
                inbound.slots.push(OWNED_TWIN);
                continue;
            }
            let count = &mut inbound.counts[map.shard_of(u)];
            inbound.slots.push(*count as u32);
            *count += 1;
            cut.push((v.0, p as u8, u.0, graph.port_of(twin)));
        }
    }
    cut.sort_unstable_by_key(|&(_, _, u, q)| (u, q));
    let mut out_routes = OutRoutes::new();
    for (v, p, u, _) in cut {
        out_routes
            .entry(map.shard_of(NodeId(u)))
            .or_default()
            .push((v, p));
    }
    (out_routes, inbound)
}

/// A superstep number from outside the caller's address space, which
/// must fit the executor's `u32` rounds.
pub fn round_number(value: u64, what: &str) -> Result<u32, String> {
    u32::try_from(value).map_err(|_| format!("{what} {value} exceeds u32::MAX"))
}

/// A stepper's fault buffers, one per phase. The caller drains each
/// buffer of every shard, in shard order, at the phase's merge point;
/// `recv` also collects no-halt faults and whole-shard condemnations.
#[derive(Debug, Default)]
pub struct PhaseFaults {
    /// Node init panics.
    pub init: Vec<NodeFault>,
    /// Crash-stops and whole-shard crash records.
    pub crash: Vec<NodeFault>,
    /// Send-phase panics and wrong-arity sends.
    pub send: Vec<NodeFault>,
    /// Receive-phase faults, halo losses, no-halt, condemnations.
    pub recv: Vec<NodeFault>,
    /// Output-phase panics and wrong-arity labelings.
    pub out: Vec<NodeFault>,
}

/// A stepper's running counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepCounters {
    /// Messages the shard's nodes emitted in the current superstep.
    pub round_messages: u64,
    /// Delivered supersteps.
    pub supersteps: u64,
    /// Non-mute halo entries sent, over all delivered supersteps.
    pub halo_messages: u64,
    /// Halo payload bytes (entries × message size) sent.
    pub halo_bytes: u64,
    /// Whole-shard crashes taken.
    pub crashes: u64,
    /// Rebuilds from the superstep-start snapshot.
    pub rebuilds: u64,
    /// Superstep-start checkpoints taken.
    pub checkpoints: u64,
}

/// The in-memory image a whole-shard rebuild restores: states, death
/// rounds, and beacon outboxes as of the start of a superstep.
type SnapshotImage<A> = (
    Vec<Option<<A as SyncAlgorithm>::State>>,
    Vec<Option<u32>>,
    Vec<Option<Vec<<A as SyncAlgorithm>::Msg>>>,
);

/// Appends a fault record to a phase buffer and mirrors it into the
/// shard's private event stream (the executor folds those streams into
/// the run's event log at the end of the run).
fn buffer_fault(
    buf: &mut Vec<NodeFault>,
    events: &EventLog,
    node: u64,
    round: u32,
    tag: &'static str,
    payload: String,
) {
    record_fault(buf, Some(events), node, u64::from(round), tag, payload);
}

/// One shard's execution state, stepped one phase at a time by its
/// caller. See the module docs.
pub struct ShardStepper<A: SyncAlgorithm> {
    domain: ShardDomain,
    stage: String,
    map: ShardMap,
    start: usize,
    len: usize,
    states: Vec<Option<A::State>>,
    died: Vec<Option<u32>>,
    last_outbox: Vec<Option<Vec<A::Msg>>>,
    outboxes: Vec<Option<Vec<A::Msg>>>,
    outputs: Vec<OutLabel>,
    snapshot: Option<SnapshotImage<A>>,
    out_routes: OutRoutes,
    in_routes: InRoutes,
    /// Batches accepted for the coming delivery, indexed by sender;
    /// empty when none are accepted.
    inbox: Vec<Option<Vec<Option<A::Msg>>>>,
    round_halo_messages: u64,
    round_halo_bytes: u64,
    all_done: bool,
    lost: bool,
    /// Per-phase fault buffers, drained by the caller.
    pub faults: PhaseFaults,
    /// Running counters, read by the caller.
    pub counters: StepCounters,
}

impl<A: SyncAlgorithm> ShardStepper<A> {
    /// Builds shard `me`'s stepper: carves its fault domain out of the
    /// run-wide plan and budget (see [`ShardDomain::carve`]) and
    /// computes its halo routes from its owned half-edges alone.
    pub fn new(
        me: usize,
        map: &ShardMap,
        graph: &Graph,
        plan: &FaultPlan,
        budget: &Budget,
    ) -> Self {
        let (out_routes, in_routes) = routes(graph, map, me);
        let range = map.range(me);
        Self {
            domain: ShardDomain::carve(me, map, plan, budget),
            stage: format!("shard/{me}"),
            map: map.clone(),
            start: range.start,
            len: range.len(),
            states: Vec::new(),
            died: Vec::new(),
            last_outbox: Vec::new(),
            outboxes: Vec::new(),
            outputs: Vec::new(),
            snapshot: None,
            out_routes,
            in_routes,
            inbox: Vec::new(),
            round_halo_messages: 0,
            round_halo_bytes: 0,
            all_done: false,
            lost: false,
            faults: PhaseFaults::default(),
            counters: StepCounters::default(),
        }
    }

    /// The shard id within the run's partition.
    pub fn id(&self) -> usize {
        self.domain.id()
    }

    /// The shard's fault domain.
    pub fn domain(&self) -> &ShardDomain {
        &self.domain
    }

    /// Whether every owned node was finished (or dead) at the last
    /// [`begin_round`](Self::begin_round); a lost shard is done.
    pub fn all_done(&self) -> bool {
        self.all_done
    }

    /// Whether the shard is permanently gone (see [`lose`](Self::lose)).
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    /// Takes the owned half-edges' output labels, in half-edge order, as
    /// of the last [`output_nodes`](Self::output_nodes).
    pub fn take_outputs(&mut self) -> Vec<OutLabel> {
        std::mem::take(&mut self.outputs)
    }

    /// Marks the shard permanently lost and every live node dead at
    /// `round` with one fault each — the degrade leg for unplanned
    /// whole-shard trouble (an escaped executor panic or a budget
    /// breach) with no snapshot to rebuild from.
    pub fn lose(&mut self, round: u32, tag: &'static str, payload: &str) {
        self.lost = true;
        for local in 0..self.len {
            if self.died[local].is_none() {
                self.died[local] = Some(round);
                buffer_fault(
                    &mut self.faults.recv,
                    self.domain.events(),
                    (self.start + local) as u64,
                    round,
                    tag,
                    payload.to_string(),
                );
            }
        }
        self.all_done = true;
    }

    /// Initializes the shard's nodes (panic-isolated per node); `ids`
    /// holds the owned nodes' ids, indexed by local node.
    pub fn init_nodes(
        &mut self,
        alg: &A,
        graph: &Graph,
        input: &HalfEdgeLabeling<InLabel>,
        ids: &[u64],
        n: usize,
    ) {
        assert_eq!(ids.len(), self.len, "one id per owned node");
        self.states = Vec::with_capacity(self.len);
        self.died = Vec::with_capacity(self.len);
        for (local, &id) in ids.iter().enumerate() {
            let i = self.start + local;
            let v = NodeId(i as u32);
            let init = NodeInit {
                node: v,
                n,
                id,
                degree: graph.degree(v),
                inputs: graph.half_edges_of(v).map(|h| input.get(h)).collect(),
            };
            match isolate(|| alg.init(&init)) {
                Ok(state) => {
                    self.states.push(Some(state));
                    self.died.push(None);
                }
                Err(payload) => {
                    buffer_fault(
                        &mut self.faults.init,
                        self.domain.events(),
                        i as u64,
                        0,
                        "panic",
                        payload,
                    );
                    self.states.push(None);
                    self.died.push(Some(0));
                }
            }
        }
        self.last_outbox = vec![None; self.len];
    }

    /// Superstep prologue: checkpoint the shard's cancel token (a breach
    /// loses the shard with one `"budget"` fault per live node), then
    /// record whether every owned node is finished, mirroring the
    /// unsharded all-done scan, panic-isolated `is_done` included.
    pub fn begin_round(&mut self, alg: &A, round: u32) {
        if let Err(breach) = self
            .domain
            .token()
            .checkpoint(&self.stage, u64::from(round))
        {
            self.lose(round, "budget", &breach.to_string());
            return;
        }
        self.all_done = (0..self.len).all(|local| {
            self.died[local].is_some()
                || self.states[local]
                    .as_ref()
                    .is_some_and(|s| isolate(|| alg.is_done(s)).unwrap_or(true))
        });
    }

    /// Records one `"no-halt"` fault per live unfinished node, in node
    /// order, when the round cap is exhausted.
    pub fn no_halt(&mut self, alg: &A, effective: u32, round: u32) {
        for local in 0..self.len {
            let live = self.died[local].is_none();
            let not_done = self.states[local]
                .as_ref()
                .is_some_and(|s| !isolate(|| alg.is_done(s)).unwrap_or(true));
            if live && not_done {
                buffer_fault(
                    &mut self.faults.recv,
                    self.domain.events(),
                    (self.start + local) as u64,
                    round,
                    "no-halt",
                    format!("did not halt within {effective} rounds"),
                );
            }
        }
    }

    /// The shard's snapshot envelope at `superstep`: the integrity
    /// anchor a checkpoint round-trips and a process worker ships with
    /// every delivered superstep, so a replayed worker can be checked
    /// against the one it replaces.
    pub fn snapshot_meta(&self, superstep: u32) -> ShardSnapshot {
        ShardSnapshot {
            version: SHARD_SNAPSHOT_VERSION,
            shard: self.id() as u64,
            range_start: self.start as u64,
            range_end: (self.start + self.len) as u64,
            superstep: u64::from(superstep),
            live_nodes: self.died.iter().filter(|d| d.is_none()).count() as u64,
            halo_messages: self.counters.halo_messages,
            halo_bytes: self.counters.halo_bytes,
        }
    }

    /// Takes the superstep-start checkpoint: serializes and re-parses
    /// the [`ShardSnapshot`] envelope (that round trip is what the
    /// `Checkpoint` event attests) and clones the in-memory image the
    /// rebuild would restore.
    fn checkpoint(&mut self, round: u32) {
        let meta = self.snapshot_meta(round);
        let round_tripped = ShardSnapshot::parse(&meta.to_json())
            .expect("why: a just-serialized shard snapshot always parses back");
        assert_eq!(round_tripped, meta, "snapshot round trip is lossless");
        self.snapshot = Some((
            self.states.clone(),
            self.died.clone(),
            self.last_outbox.clone(),
        ));
        self.counters.checkpoints += 1;
        self.domain.events().record(Event::Checkpoint {
            stage: self.stage.clone(),
            completed: u64::from(round),
        });
    }

    /// Applies the shard plan's crash-stops scheduled for `round`, in
    /// node order (mirroring the unsharded pre-send scan).
    fn apply_crash_stops(&mut self, round: u32) {
        for local in 0..self.len {
            let i = self.start + local;
            if self.died[local].is_none() && self.domain.plan().crash_round(i) == Some(round) {
                buffer_fault(
                    &mut self.faults.crash,
                    self.domain.events(),
                    i as u64,
                    round,
                    "crash-stop",
                    "crash-stop".into(),
                );
                self.died[local] = Some(round);
            }
        }
    }

    /// Computes the shard's outboxes for `round` with the full
    /// per-node fault treatment of the unsharded send phase: beacons
    /// from dead nodes, injected first-send panics, wrong-arity and
    /// panic degradation.
    fn compute_outboxes(&mut self, alg: &A, graph: &Graph, round: u32) {
        let mut outboxes: Vec<Option<Vec<A::Msg>>> = Vec::with_capacity(self.len);
        for local in 0..self.len {
            let i = self.start + local;
            let v = NodeId(i as u32);
            if self.died[local].is_some() {
                outboxes.push(self.last_outbox[local].clone());
                continue;
            }
            let state = self.states[local]
                .as_ref()
                .expect("why: died is None, and every live node holds a state");
            let sent = if self.domain.plan().panics(i) && round == 0 {
                isolate(|| inject_panic(i as u64))
            } else {
                isolate(|| alg.send(state, round))
            };
            let (tag, payload) = match sent {
                Ok(out) if out.len() == graph.degree(v) as usize => {
                    outboxes.push(Some(out));
                    continue;
                }
                Ok(out) => (
                    "wrong-arity",
                    format!(
                        "sent {} messages from a degree-{} node",
                        out.len(),
                        graph.degree(v)
                    ),
                ),
                Err(payload) => ("panic", payload),
            };
            buffer_fault(
                &mut self.faults.send,
                self.domain.events(),
                i as u64,
                round,
                tag,
                payload,
            );
            self.died[local] = Some(round);
            outboxes.push(self.last_outbox[local].clone());
        }
        self.counters.round_messages = outboxes
            .iter()
            .map(|o| o.as_ref().map_or(0, |m| m.len() as u64))
            .sum();
        self.outboxes = outboxes;
    }

    /// Assembles this superstep's outgoing halo batches. `only_to`
    /// restricts the fan-out to the flagged destinations.
    fn halos(&mut self, only_to: Option<&[bool]>) -> HaloBatches<A::Msg> {
        let mut batches = Vec::with_capacity(self.out_routes.len());
        for (&dst, route) in &self.out_routes {
            if only_to.is_some_and(|flags| !flags[dst]) {
                continue;
            }
            let payload: Vec<Option<A::Msg>> = route
                .iter()
                .map(|&(u, q)| {
                    self.outboxes[u as usize - self.start]
                        .as_ref()
                        .map(|o| o[q as usize].clone())
                })
                .collect();
            let sent = payload.iter().filter(|m| m.is_some()).count() as u64;
            self.round_halo_messages += sent;
            self.round_halo_bytes += sent * std::mem::size_of::<A::Msg>() as u64;
            batches.push((dst, payload));
        }
        batches
    }

    /// One superstep's compute phase, returning the outgoing halo
    /// batches for the caller to carry to their receivers.
    ///
    /// Crash-planned shards checkpoint first. A healthy shard then
    /// applies its crash-stops, computes its sends, and fans halos out
    /// to every neighbor shard. A shard flagged in `crashed` is lost
    /// whole at the start of the superstep: it records the crash,
    /// restores the checkpoint, replays the lost compute, and sends the
    /// replayed halos only to fellow-crashed shards — healthy neighbors
    /// never receive its batch and take the loss at delivery.
    pub fn compute(
        &mut self,
        alg: &A,
        graph: &Graph,
        round: u32,
        crashed: &[bool],
    ) -> HaloBatches<A::Msg> {
        self.counters.round_messages = 0;
        self.round_halo_messages = 0;
        self.round_halo_bytes = 0;
        if self.domain.has_planned_crashes() {
            self.checkpoint(round);
        }
        let crashed_now = crashed[self.id()];
        if crashed_now {
            self.counters.crashes += 1;
            let payload = format!("shard {} lost whole at superstep {round}", self.id());
            buffer_fault(
                &mut self.faults.crash,
                self.domain.events(),
                self.start as u64,
                round,
                "shard-crash",
                payload,
            );
            let (states, died, last_outbox) = self
                .snapshot
                .clone()
                .expect("why: crash-planned shards checkpoint at the start of every superstep");
            self.states = states;
            self.died = died;
            self.last_outbox = last_outbox;
            self.counters.rebuilds += 1;
            let crashes = self.counters.crashes;
            self.domain.events().record(Event::Retry {
                stage: self.stage.clone(),
                attempt: crashes,
                backoff_ms: 10 << (crashes.min(4) - 1),
            });
        }
        self.apply_crash_stops(round);
        self.compute_outboxes(alg, graph, round);
        self.halos(crashed_now.then_some(crashed))
    }

    /// Checks one superstep command's arguments from outside the
    /// caller's address space: a round that fits `u32`, exactly one
    /// crashed flag per shard, and this shard's own flag agreeing with
    /// its plan (a rebuild needs the checkpoint only a planned crash
    /// takes). Returns the round.
    pub fn check_superstep(&self, round: u64, crashed: &[bool]) -> Result<u32, String> {
        let round = round_number(round, "round")?;
        if crashed.len() != self.map.num_shards() {
            return Err(format!(
                "{} crashed flags for a {}-shard partition",
                crashed.len(),
                self.map.num_shards()
            ));
        }
        if crashed[self.id()] != self.domain.crashes_at(round) {
            return Err(format!(
                "crashed flags disagree with shard {}'s plan at superstep {round}",
                self.id()
            ));
        }
        Ok(round)
    }

    /// Moves peers' halo batches into the inbox for the coming
    /// [`deliver`](Self::deliver), replacing whatever was there. A
    /// [`compute`](Self::compute) must have run since the last delivery,
    /// and each batch must come from a shard that routes to this one, at
    /// most once, and carry exactly the routed number of entries;
    /// anything else is rejected and leaves the inbox empty.
    pub fn accept_halos(&mut self, batches: HaloBatches<A::Msg>) -> Result<(), String> {
        self.inbox.clear();
        if self.outboxes.len() != self.len {
            return Err(format!(
                "halos for shard {} with no computed superstep to deliver",
                self.id()
            ));
        }
        let mut inbox: Vec<Option<Vec<Option<A::Msg>>>> = std::iter::repeat_with(|| None)
            .take(self.map.num_shards())
            .collect();
        for (from, payload) in batches {
            let Some(&routed) = self.in_routes.counts.get(from).filter(|&&c| c > 0) else {
                return Err(format!(
                    "halo batch from shard {from}, which routes nothing to shard {}",
                    self.id()
                ));
            };
            if payload.len() != routed {
                return Err(format!(
                    "halo batch from shard {from} has {} entries, {routed} routed",
                    payload.len()
                ));
            }
            if inbox[from].replace(payload).is_some() {
                return Err(format!("two halo batches from shard {from}"));
            }
        }
        self.inbox = inbox;
        Ok(())
    }

    /// Delivery: assemble each live node's inbox (local ports from the
    /// shard's own outboxes, boundary ports moved out of the accepted
    /// batches at the positions routed at setup) and receive. A port
    /// whose source shard crashed this superstep records a
    /// `"halo-loss"` fault and skips the round; a `None` entry (mute
    /// dead source) or a batch missing from a permanently lost shard
    /// skips silently, exactly like the unsharded missing-message rule.
    /// The round's outboxes then move into the beacon slots.
    pub fn deliver(&mut self, alg: &A, graph: &Graph, round: u32, crashed: &[bool]) {
        let mut inbox = std::mem::take(&mut self.inbox);
        for local in 0..self.len {
            if self.died[local].is_some() {
                continue;
            }
            let i = self.start + local;
            let v = NodeId(i as u32);
            let mut halo_lost: Option<usize> = None;
            let received: Option<Vec<A::Msg>> = graph
                .half_edges_of(v)
                .map(|h| {
                    let pos = self.in_routes.slots[h.index() - self.in_routes.first];
                    if pos == OWNED_TWIN {
                        let twin = graph.twin(h);
                        self.outboxes[graph.node_of(twin).index() - self.start]
                            .as_ref()
                            .map(|o| o[graph.port_of(twin) as usize].clone())
                    } else {
                        let d = self.map.shard_of(graph.neighbor(h));
                        match inbox.get_mut(d).and_then(Option::as_mut) {
                            Some(batch) => batch[pos as usize].take(),
                            None => {
                                if crashed[d] {
                                    halo_lost.get_or_insert(d);
                                }
                                None
                            }
                        }
                    }
                })
                .collect();
            if let Some(d) = halo_lost {
                buffer_fault(
                    &mut self.faults.recv,
                    self.domain.events(),
                    i as u64,
                    round,
                    "halo-loss",
                    format!("halo from crashed shard {d} lost at superstep {round}"),
                );
                continue;
            }
            if let Some(received) = received {
                let state = self.states[local]
                    .as_mut()
                    .expect("why: died is None, and every live node holds a state");
                if let Err(payload) = isolate(|| alg.receive(state, &received, round)) {
                    buffer_fault(
                        &mut self.faults.recv,
                        self.domain.events(),
                        i as u64,
                        round,
                        "panic",
                        payload,
                    );
                    self.died[local] = Some(round);
                }
            }
        }
        for (slot, sent) in self.last_outbox.iter_mut().zip(self.outboxes.drain(..)) {
            if sent.is_some() {
                *slot = sent;
            }
        }
        self.counters.halo_messages += self.round_halo_messages;
        self.counters.halo_bytes += self.round_halo_bytes;
        self.counters.supersteps += 1;
        self.domain.events().record(Event::ShardStep {
            shard: self.id() as u64,
            superstep: u64::from(round),
            halo_messages: self.round_halo_messages,
            halo_bytes: self.round_halo_bytes,
        });
    }

    /// Computes the shard's output labels with the unsharded output
    /// phase's fault treatment (late injected panics, wrong arity,
    /// placeholder labels for stateless nodes).
    pub fn output_nodes(&mut self, alg: &A, graph: &Graph, rounds: u32) {
        self.outputs = Vec::new();
        for local in 0..self.len {
            let i = self.start + local;
            let v = NodeId(i as u32);
            let degree = graph.degree(v) as usize;
            let Some(state) = self.states[local].as_ref() else {
                self.outputs
                    .resize(self.outputs.len() + degree, OutLabel(0));
                continue;
            };
            let live = self.died[local].is_none();
            let labels = if self.domain.plan().panics(i) && live && rounds == 0 {
                isolate(|| inject_panic(i as u64))
            } else {
                isolate(|| alg.output(state))
            };
            let fault = match labels {
                Ok(out) if out.len() == degree => {
                    self.outputs.extend(out);
                    continue;
                }
                Ok(out) => Some((
                    "wrong-arity",
                    format!("labeled {} ports of a degree-{degree} node", out.len()),
                )),
                Err(payload) => live.then_some(("panic", payload)),
            };
            if let Some((tag, payload)) = fault {
                buffer_fault(
                    &mut self.faults.out,
                    self.domain.events(),
                    i as u64,
                    rounds,
                    tag,
                    payload,
                );
            }
            self.outputs
                .resize(self.outputs.len() + degree, OutLabel(0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_graph::gen;
    use std::collections::HashMap;

    /// The oracle's inbound routes: `(source node, source port)` →
    /// (source shard, batch position) of each inbound halo entry.
    type HaloPos = HashMap<(u32, u8), (usize, u32)>;

    /// The route build before it kept to the owned half-edges: a scan
    /// over every shard's nodes, in shard order.
    fn all_shards_routes(graph: &Graph, map: &ShardMap, me: usize) -> (OutRoutes, HaloPos) {
        let mut out_routes = OutRoutes::new();
        let mut halo_pos = HaloPos::new();
        let mut in_counts: HashMap<usize, u32> = HashMap::new();
        for s in 0..map.num_shards() {
            for i in map.range(s) {
                let v = NodeId(i as u32);
                for h in graph.half_edges_of(v) {
                    let twin = graph.twin(h);
                    let u = graph.node_of(twin);
                    let d = map.shard_of(u);
                    if d == s {
                        continue;
                    }
                    let q = graph.port_of(twin);
                    if d == me {
                        out_routes.entry(s).or_default().push((u.0, q));
                    }
                    if s == me {
                        let idx = in_counts.entry(d).or_insert(0);
                        halo_pos.insert((u.0, q), (d, *idx));
                        *idx += 1;
                    }
                }
            }
        }
        (out_routes, halo_pos)
    }

    #[test]
    fn owned_route_build_equals_the_all_shards_scan() {
        let graphs = [
            ("path 33", gen::path(33)),
            ("random tree 64", gen::random_tree(64, 3, 5)),
            ("caterpillar 6x1", gen::caterpillar(6, 1)),
            ("star 3", gen::star(3)),
            ("complete tree 2^6", gen::complete_tree(2, 6)),
        ];
        for (name, g) in graphs {
            for shards in [1, 4, 16] {
                let map = ShardMap::new(g.node_count(), shards);
                for me in 0..map.num_shards() {
                    let at = format!("{name}: shards={shards}, shard {me}");
                    let (out_routes, inbound) = routes(&g, &map, me);
                    let (oracle_out, oracle_pos) = all_shards_routes(&g, &map, me);
                    assert_eq!(out_routes, oracle_out, "{at}");
                    let range = map.range(me);
                    let mut counted = vec![0; map.num_shards()];
                    let mut slots = 0;
                    for i in range.clone() {
                        for h in g.half_edges_of(NodeId(i as u32)) {
                            let slot = inbound.slots[h.index() - inbound.first];
                            slots += 1;
                            let twin = g.twin(h);
                            let u = g.node_of(twin);
                            if range.contains(&u.index()) {
                                assert_eq!(slot, OWNED_TWIN, "{at}: owned twin of {h:?}");
                                continue;
                            }
                            let d = map.shard_of(u);
                            let want = oracle_pos[&(u.0, g.port_of(twin))];
                            assert_eq!((d, slot), want, "{at}: cut half-edge {h:?}");
                            counted[d] += 1;
                        }
                    }
                    assert_eq!(inbound.slots.len(), slots, "{at}: one slot per half-edge");
                    assert_eq!(counted.iter().sum::<usize>(), oracle_pos.len(), "{at}");
                    assert_eq!(inbound.counts, counted, "{at}");
                }
            }
        }
    }
}
