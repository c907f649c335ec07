//! The shard worker: one OS process owning one shard of a run.
//!
//! A worker is a faithful transplant of the in-process shard runner
//! (`lcl_shard`'s superstep executor) into its own address space. It
//! reconstructs its shard of the computation from an [`InitCmd`] —
//! graph, input, and fault plan are rebuilt locally from the
//! deterministic spec, and only the owned nodes' ids are shipped — and
//! then steps through the same five phases
//! the mpsc substrate uses (`begin`, `compute`, `deliver`, `finish`,
//! `output`), driven by supervisor commands over a Unix socket instead
//! of a thread barrier. Faults are buffered per phase and shipped in
//! each reply exactly once, so the supervisor's shard-order merge
//! reconstructs the same global fault order as the in-process
//! executor — which is what makes a clean one-shard proc run
//! bit-identical to `sharded(1)` and the unsharded executor.
//!
//! The worker has no deadline logic and no notion of its own death:
//! `Fault::ShardKill` is filtered out of the carved domain plan, so a
//! kill arrives only as a real `SIGKILL` from the supervisor. Replay
//! rehydration works because everything here is deterministic — a
//! respawned worker fed the same command history lands in the same
//! state, byte for byte.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, Write};

use lcl::{HalfEdgeLabeling, InLabel, OutLabel};
use lcl_core::{tree_speedup, SpeedupOptions};
use lcl_faults::{inject_panic, isolate, Budget, FaultPlan, NodeFault};
use lcl_graph::{Graph, NodeId, ShardMap};
use lcl_local::{NodeInit, SyncAlgorithm};
use lcl_obs::{Event, EventLog};
use lcl_problems::anti_matching;
use lcl_service::protocol::Scalar;
use lcl_shard::{ShardDomain, ShardSnapshot, SHARD_SNAPSHOT_VERSION};

use crate::spec::{AlgSpec, GuardedFlood};
use crate::wire::{
    self, decode_batches, decode_flags, encode_batches, encode_events, encode_faults,
    encode_labels, open_line, push_bool_field, push_num_field, push_text_field, read_fields,
    want_num, want_str, write_line, InitCmd, WireMsg,
};

/// Records a fault into a phase buffer and mirrors it into the worker's
/// private event stream (shipped to the supervisor at output time).
fn buffer_fault(
    buf: &mut Vec<NodeFault>,
    events: &EventLog,
    node: u64,
    round: u32,
    tag: &'static str,
    payload: String,
) {
    events.record(Event::Fault {
        node,
        round: u64::from(round),
        fault: tag,
    });
    buf.push(NodeFault {
        node,
        round: u64::from(round),
        payload,
    });
}

/// The in-memory image a whole-shard rebuild restores.
type SnapshotImage<A> = (
    Vec<Option<<A as SyncAlgorithm>::State>>,
    Vec<Option<u32>>,
    Vec<Option<Vec<<A as SyncAlgorithm>::Msg>>>,
);

/// Destination shard → `(source node, source port)` of each outbound
/// halo entry, in the receiver's scan order.
type OutRoutes = BTreeMap<usize, Vec<(u32, u8)>>;
/// `(source node, source port)` → (source shard, batch position) of
/// each inbound halo entry.
type HaloPos = HashMap<(u32, u8), (usize, u32)>;

/// Computes shard `me`'s halo routes from its owned half-edges alone.
///
/// A halo batch from shard `a` to shard `b` lists the messages crossing
/// from `a` to `b` in `b`'s scan order: by receiving node, then
/// receiving port. The inbound side is this shard's own scan order, so
/// batch positions count up as the owned half-edges are walked; the
/// outbound side is the same walk sorted by (neighbor, twin port).
fn routes(graph: &Graph, map: &ShardMap, me: usize) -> (OutRoutes, HaloPos) {
    let range = map.range(me);
    // (owned node, port, neighbor, twin port) of every cut half-edge.
    let mut cut: Vec<(u32, u8, u32, u8)> = Vec::new();
    for i in range.clone() {
        let v = NodeId(i as u32);
        for (p, h) in graph.half_edges_of(v).enumerate() {
            let twin = graph.twin(h);
            let u = graph.node_of(twin);
            if !range.contains(&u.index()) {
                cut.push((v.0, p as u8, u.0, graph.port_of(twin)));
            }
        }
    }
    let mut halo_pos = HaloPos::with_capacity(cut.len());
    let mut in_counts: HashMap<usize, u32> = HashMap::new();
    for &(_, _, u, q) in &cut {
        let d = map.shard_of(NodeId(u));
        let idx = in_counts.entry(d).or_insert(0);
        halo_pos.insert((u, q), (d, *idx));
        *idx += 1;
    }
    cut.sort_unstable_by_key(|&(_, _, u, q)| (u, q));
    let mut out_routes = OutRoutes::new();
    for (v, p, u, _) in cut {
        out_routes
            .entry(map.shard_of(NodeId(u)))
            .or_default()
            .push((v, p));
    }
    (out_routes, halo_pos)
}

/// One shard's execution state inside a worker process: the in-process
/// runner's fields minus the mpsc plumbing (halos arrive as decoded
/// wire batches) and minus the `lost` leg (an escaped panic here kills
/// the whole process, which the supervisor observes as worker death).
struct ProcRunner<A: SyncAlgorithm> {
    domain: ShardDomain,
    stage: String,
    start: usize,
    len: usize,
    states: Vec<Option<A::State>>,
    died: Vec<Option<u32>>,
    last_outbox: Vec<Option<Vec<A::Msg>>>,
    outboxes: Vec<Option<Vec<A::Msg>>>,
    outputs: Vec<Vec<OutLabel>>,
    snapshot: Option<SnapshotImage<A>>,
    /// Destination shard → `(source node, source port)` entries in the
    /// receiver's scan order, recomputed locally from the shared spec.
    out_routes: OutRoutes,
    /// `(source node, source port)` → (source shard, batch position).
    halo_pos: HaloPos,
    /// Batches decoded from the current `deliver` command's payload.
    inbox: BTreeMap<usize, Vec<Option<A::Msg>>>,
    f_init: Vec<NodeFault>,
    f_crash: Vec<NodeFault>,
    f_send: Vec<NodeFault>,
    f_recv: Vec<NodeFault>,
    f_out: Vec<NodeFault>,
    all_done: bool,
    round_messages: u64,
    round_halo_messages: u64,
    round_halo_bytes: u64,
    supersteps: u64,
    halo_messages: u64,
    halo_bytes: u64,
    crashes: u64,
    rebuilds: u64,
    checkpoints: u64,
}

impl<A: SyncAlgorithm> ProcRunner<A> {
    fn id(&self) -> usize {
        self.domain.id()
    }

    /// Builds the worker's runner: carves the shard's fault domain out
    /// of the shipped plan (kills filtered — see [`ShardDomain::carve`])
    /// and computes halo routes from the owned half-edges (see
    /// [`routes`]).
    fn new(me: usize, map: &ShardMap, graph: &Graph, plan: &FaultPlan) -> Self {
        let (out_routes, halo_pos) = routes(graph, map, me);
        let range = map.range(me);
        Self {
            // The worker's budget axis is the supervisor's concern
            // (deadlines and `max_rounds` are enforced from outside),
            // so the carved domain is unlimited here.
            domain: ShardDomain::carve(me, map, plan, &Budget::unlimited()),
            stage: format!("shard/{me}"),
            start: range.start,
            len: range.len(),
            states: Vec::new(),
            died: Vec::new(),
            last_outbox: Vec::new(),
            outboxes: Vec::new(),
            outputs: Vec::new(),
            snapshot: None,
            out_routes,
            halo_pos,
            inbox: BTreeMap::new(),
            f_init: Vec::new(),
            f_crash: Vec::new(),
            f_send: Vec::new(),
            f_recv: Vec::new(),
            f_out: Vec::new(),
            all_done: false,
            round_messages: 0,
            round_halo_messages: 0,
            round_halo_bytes: 0,
            supersteps: 0,
            halo_messages: 0,
            halo_bytes: 0,
            crashes: 0,
            rebuilds: 0,
            checkpoints: 0,
        }
    }

    /// Initializes the shard's nodes (panic-isolated per node); `ids`
    /// holds the owned nodes' ids, indexed by local node.
    fn init_nodes(
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
                        &mut self.f_init,
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

    /// Superstep prologue: reports whether every owned node is finished
    /// (mirroring the in-process all-done scan; the cancel-token
    /// checkpoint is absent because the worker's budget is unlimited).
    fn begin_round(&mut self, alg: &A) {
        self.all_done = (0..self.len).all(|local| {
            self.died[local].is_some()
                || self.states[local]
                    .as_ref()
                    .is_some_and(|s| isolate(|| alg.is_done(s)).unwrap_or(true))
        });
    }

    /// Records one `"no-halt"` fault per live unfinished node.
    fn no_halt(&mut self, alg: &A, effective: u32, round: u32) {
        for local in 0..self.len {
            let live = self.died[local].is_none();
            let not_done = self.states[local]
                .as_ref()
                .is_some_and(|s| !isolate(|| alg.is_done(s)).unwrap_or(true));
            if live && not_done {
                buffer_fault(
                    &mut self.f_recv,
                    self.domain.events(),
                    (self.start + local) as u64,
                    round,
                    "no-halt",
                    format!("did not halt within {effective} rounds"),
                );
            }
        }
    }

    /// The current integrity anchor: the snapshot envelope the worker
    /// ships with every `stepped` reply. The supervisor retains the
    /// last one and compares it against the replayed worker's — a
    /// mismatch means the replay diverged and rehydration must fail
    /// loudly rather than continue from corrupt state.
    fn snapshot_meta(&self, superstep: u32) -> ShardSnapshot {
        ShardSnapshot {
            version: SHARD_SNAPSHOT_VERSION,
            shard: self.id() as u64,
            range_start: self.start as u64,
            range_end: (self.start + self.len) as u64,
            superstep: u64::from(superstep),
            live_nodes: self.died.iter().filter(|d| d.is_none()).count() as u64,
            halo_messages: self.halo_messages,
            halo_bytes: self.halo_bytes,
        }
    }

    /// Takes the superstep-start checkpoint (round-tripped envelope
    /// plus the in-memory image a whole-shard rebuild restores).
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
        self.checkpoints += 1;
        self.domain.events().record(Event::Checkpoint {
            stage: self.stage.clone(),
            completed: u64::from(round),
        });
    }

    /// Applies the shard plan's crash-stops scheduled for `round`.
    fn apply_crash_stops(&mut self, round: u32) {
        for local in 0..self.len {
            let i = self.start + local;
            if self.died[local].is_none() && self.domain.plan().crash_round(i) == Some(round) {
                buffer_fault(
                    &mut self.f_crash,
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
    /// per-node fault treatment of the in-process send phase.
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
            match sent {
                Ok(out) if out.len() == graph.degree(v) as usize => outboxes.push(Some(out)),
                Ok(out) => {
                    buffer_fault(
                        &mut self.f_send,
                        self.domain.events(),
                        i as u64,
                        round,
                        "wrong-arity",
                        format!(
                            "sent {} messages from a degree-{} node",
                            out.len(),
                            graph.degree(v)
                        ),
                    );
                    self.died[local] = Some(round);
                    outboxes.push(self.last_outbox[local].clone());
                }
                Err(payload) => {
                    buffer_fault(
                        &mut self.f_send,
                        self.domain.events(),
                        i as u64,
                        round,
                        "panic",
                        payload,
                    );
                    self.died[local] = Some(round);
                    outboxes.push(self.last_outbox[local].clone());
                }
            }
        }
        self.round_messages = outboxes
            .iter()
            .map(|o| o.as_ref().map_or(0, |m| m.len() as u64))
            .sum();
        self.outboxes = outboxes;
    }

    /// Assembles this superstep's outgoing halo batches. `only_crashed`
    /// restricts the fan-out to fellow-crashed destinations — the
    /// rebuild path's re-exchange, since healthy shards retained their
    /// inbound copies (supervisor-side, queued for the next deliver).
    fn collect_halos(
        &mut self,
        only_crashed: Option<&[bool]>,
    ) -> Vec<(usize, Vec<Option<A::Msg>>)> {
        let mut batches = Vec::new();
        for (dst, route) in &self.out_routes {
            if let Some(crashed) = only_crashed {
                if !crashed[*dst] {
                    continue;
                }
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
            batches.push((*dst, payload));
        }
        batches
    }

    /// One `compute` command: the healthy superstep (checkpoint if
    /// crash-planned, crash-stops, sends, full halo fan-out) — or, if
    /// this shard is crash-scheduled now, the loss-and-rebuild arc the
    /// in-process executor runs as two barriers, folded into one reply:
    /// the superstep's work is discarded, the snapshot restored, and
    /// the replayed halos go only to fellow-crashed shards.
    fn compute(
        &mut self,
        alg: &A,
        graph: &Graph,
        round: u32,
        crashed_now: &[bool],
    ) -> Vec<(usize, Vec<Option<A::Msg>>)> {
        self.round_messages = 0;
        self.round_halo_messages = 0;
        self.round_halo_bytes = 0;
        if self.domain.has_planned_crashes() {
            self.checkpoint(round);
        }
        if crashed_now[self.id()] {
            self.outboxes = Vec::new();
            self.crashes += 1;
            let payload = format!("shard {} lost whole at superstep {round}", self.id());
            buffer_fault(
                &mut self.f_crash,
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
            self.rebuilds += 1;
            self.domain.events().record(Event::Retry {
                stage: self.stage.clone(),
                attempt: self.crashes,
                backoff_ms: 10 << (self.crashes.min(4) - 1),
            });
            self.apply_crash_stops(round);
            self.compute_outboxes(alg, graph, round);
            return self.collect_halos(Some(crashed_now));
        }
        self.apply_crash_stops(round);
        self.compute_outboxes(alg, graph, round);
        self.collect_halos(None)
    }

    /// Delivery: assemble each live node's inbox (local ports from the
    /// shard's own outboxes, boundary ports from the decoded batches)
    /// and receive, with the in-process halo-loss and missing-message
    /// rules intact.
    fn deliver(&mut self, alg: &A, graph: &Graph, round: u32, crashed_now: &[bool]) {
        for local in 0..self.len {
            if self.died[local].is_some() {
                continue;
            }
            let i = self.start + local;
            let v = NodeId(i as u32);
            let mut halo_lost: Option<usize> = None;
            let inbox: Option<Vec<A::Msg>> = graph
                .half_edges_of(v)
                .map(|h| {
                    let twin = graph.twin(h);
                    let u = graph.node_of(twin);
                    let q = graph.port_of(twin);
                    if (self.start..self.start + self.len).contains(&u.index()) {
                        self.outboxes[u.index() - self.start]
                            .as_ref()
                            .map(|o| o[q as usize].clone())
                    } else {
                        let &(d, idx) = self
                            .halo_pos
                            .get(&(u.0, q))
                            .expect("why: every cross half-edge was routed at setup");
                        match self.inbox.get(&d) {
                            Some(batch) => batch[idx as usize].clone(),
                            None => {
                                if crashed_now[d] {
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
                    &mut self.f_recv,
                    self.domain.events(),
                    i as u64,
                    round,
                    "halo-loss",
                    format!("halo from crashed shard {d} lost at superstep {round}"),
                );
                continue;
            }
            if let Some(inbox) = inbox {
                let state = self.states[local]
                    .as_mut()
                    .expect("why: died is None, and every live node holds a state");
                if let Err(payload) = isolate(|| alg.receive(state, &inbox, round)) {
                    buffer_fault(
                        &mut self.f_recv,
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
        for (slot, sent) in self.last_outbox.iter_mut().zip(&self.outboxes) {
            if sent.is_some() {
                *slot = sent.clone();
            }
        }
        self.halo_messages += self.round_halo_messages;
        self.halo_bytes += self.round_halo_bytes;
        self.supersteps += 1;
        self.domain.events().record(Event::ShardStep {
            shard: self.id() as u64,
            superstep: u64::from(round),
            halo_messages: self.round_halo_messages,
            halo_bytes: self.round_halo_bytes,
        });
    }

    /// Computes the shard's output labels with the in-process output
    /// phase's fault treatment.
    fn output_nodes(&mut self, alg: &A, graph: &Graph, rounds: u32) {
        self.outputs = vec![Vec::new(); self.len];
        for local in 0..self.len {
            let i = self.start + local;
            let v = NodeId(i as u32);
            let degree = graph.degree(v) as usize;
            let Some(state) = self.states[local].as_ref() else {
                self.outputs[local] = vec![OutLabel(0); degree];
                continue;
            };
            let labels =
                if self.domain.plan().panics(i) && self.died[local].is_none() && rounds == 0 {
                    isolate(|| inject_panic(i as u64))
                } else {
                    isolate(|| alg.output(state))
                };
            self.outputs[local] = match labels {
                Ok(out) if out.len() == degree => out,
                Ok(out) => {
                    buffer_fault(
                        &mut self.f_out,
                        self.domain.events(),
                        i as u64,
                        rounds,
                        "wrong-arity",
                        format!("labeled {} ports of a degree-{degree} node", out.len()),
                    );
                    vec![OutLabel(0); degree]
                }
                Err(payload) => {
                    if self.died[local].is_none() {
                        buffer_fault(
                            &mut self.f_out,
                            self.domain.events(),
                            i as u64,
                            rounds,
                            "panic",
                            payload,
                        );
                    }
                    vec![OutLabel(0); degree]
                }
            };
        }
    }
}

/// Drains a fault buffer into its wire form.
fn take_faults(buf: &mut Vec<NodeFault>) -> String {
    encode_faults(&std::mem::take(buf))
}

/// Serves one shard over an established connection, starting from the
/// already-parsed `init` command. Returns when the supervisor sends
/// `output` (clean shutdown) or closes the socket (the worker is being
/// discarded); `Err` carries a protocol violation the binary reports
/// on stderr before dying nonzero.
pub fn serve_shard(
    cmd: &InitCmd,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
) -> Result<(), String> {
    match cmd.alg {
        AlgSpec::GuardedFlood { k } => run_shard(&GuardedFlood { k }, cmd, reader, writer),
        AlgSpec::AntiMatchingE1 { delta } => {
            let outcome = tree_speedup(&anti_matching(delta), SpeedupOptions::default());
            run_shard(&outcome.algorithm(), cmd, reader, writer)
        }
    }
}

/// The generic serve loop for a concrete algorithm.
fn run_shard<A>(
    alg: &A,
    cmd: &InitCmd,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
) -> Result<(), String>
where
    A: SyncAlgorithm,
    A::Msg: WireMsg,
{
    let graph = cmd.graph.build();
    let map = ShardMap::new(graph.node_count(), cmd.shards);
    if cmd.shard >= map.num_shards() {
        return Err(format!(
            "init addresses shard {} of a {}-shard partition",
            cmd.shard,
            map.num_shards()
        ));
    }
    let owned = map.range(cmd.shard).len();
    if cmd.ids.len() != owned {
        return Err(format!(
            "init shipped {} ids for shard {}'s {owned} owned nodes",
            cmd.ids.len(),
            cmd.shard
        ));
    }
    let input = cmd.input.build(&graph);
    let plan = FaultPlan::parse(&cmd.plan_text).map_err(|e| format!("init plan: {e}"))?;
    let mut r: ProcRunner<A> = ProcRunner::new(cmd.shard, &map, &graph, &plan);
    r.init_nodes(alg, &graph, &input, &cmd.ids, cmd.n);

    let mut ready = open_line("ready");
    push_text_field(&mut ready, "alg_name", alg.name());
    push_text_field(&mut ready, "f_init", &take_faults(&mut r.f_init));
    push_text_field(&mut ready, "f_recv", &take_faults(&mut r.f_recv));
    ready.push('}');
    write_line(writer, &ready).map_err(|e| e.to_string())?;

    loop {
        let fields: Vec<(String, Scalar)> = match read_fields(reader) {
            Ok(fields) => fields,
            // EOF: the supervisor dropped us (run over, or we are a
            // stale pre-kill connection). Exit cleanly either way.
            Err(e) if e == "peer closed the connection" => return Ok(()),
            Err(e) => return Err(e),
        };
        let op = want_str(&fields, "op")?;
        match op.as_str() {
            "begin" => {
                r.begin_round(alg);
                let mut reply = open_line("begun");
                push_bool_field(&mut reply, "all_done", r.all_done);
                reply.push('}');
                write_line(writer, &reply).map_err(|e| e.to_string())?;
            }
            "compute" => {
                let round = want_num(&fields, "round")? as u32;
                if cmd.hang_at == Some(round) {
                    // Test hook: this worker is scheduled to wedge here.
                    // A respawned replica replays into the same sleep,
                    // which is what drives the respawn-storm test.
                    loop {
                        std::thread::sleep(std::time::Duration::from_secs(3600));
                    }
                }
                let crashed = decode_flags(&want_str(&fields, "crashed")?)?;
                let halos = r.compute(alg, &graph, round, &crashed);
                let mut reply = open_line("computed");
                push_num_field(&mut reply, "round_messages", r.round_messages);
                push_text_field(&mut reply, "halos", &encode_batches(&halos));
                push_text_field(&mut reply, "f_crash", &take_faults(&mut r.f_crash));
                push_text_field(&mut reply, "f_send", &take_faults(&mut r.f_send));
                push_num_field(&mut reply, "crashes", r.crashes);
                push_num_field(&mut reply, "rebuilds", r.rebuilds);
                push_num_field(&mut reply, "checkpoints", r.checkpoints);
                reply.push('}');
                write_line(writer, &reply).map_err(|e| e.to_string())?;
            }
            "deliver" => {
                let round = want_num(&fields, "round")? as u32;
                let crashed = decode_flags(&want_str(&fields, "crashed")?)?;
                let batches = decode_batches::<A::Msg>(&want_str(&fields, "halos")?)?;
                r.inbox = wire::batches_to_inbox(batches);
                r.deliver(alg, &graph, round, &crashed);
                let mut reply = open_line("stepped");
                push_text_field(&mut reply, "f_recv", &take_faults(&mut r.f_recv));
                push_text_field(&mut reply, "snapshot", &r.snapshot_meta(round).to_json());
                push_num_field(&mut reply, "supersteps", r.supersteps);
                push_num_field(&mut reply, "halo_messages", r.halo_messages);
                push_num_field(&mut reply, "halo_bytes", r.halo_bytes);
                reply.push('}');
                write_line(writer, &reply).map_err(|e| e.to_string())?;
            }
            "finish" => {
                let round = want_num(&fields, "round")? as u32;
                let effective = want_num(&fields, "effective")? as u32;
                r.no_halt(alg, effective, round);
                let mut reply = open_line("finished");
                push_text_field(&mut reply, "f_recv", &take_faults(&mut r.f_recv));
                reply.push('}');
                write_line(writer, &reply).map_err(|e| e.to_string())?;
            }
            "output" => {
                let rounds = want_num(&fields, "rounds")? as u32;
                r.output_nodes(alg, &graph, rounds);
                let mut reply = open_line("outputs");
                push_text_field(&mut reply, "labels", &encode_labels(&r.outputs));
                push_text_field(&mut reply, "f_out", &take_faults(&mut r.f_out));
                push_text_field(&mut reply, "f_recv", &take_faults(&mut r.f_recv));
                push_text_field(
                    &mut reply,
                    "events",
                    &encode_events(&r.domain.events().events()),
                );
                reply.push('}');
                write_line(writer, &reply).map_err(|e| e.to_string())?;
                return Ok(());
            }
            other => return Err(format!("unknown command op {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_service::protocol::parse_flat_object;
    use std::io::BufReader;

    fn pipe_run(commands: &[String], cmd: &InitCmd) -> Vec<Vec<(String, Scalar)>> {
        let script = commands.join("\n") + "\n";
        let mut reader = BufReader::new(script.as_bytes());
        let mut out: Vec<u8> = Vec::new();
        serve_shard(cmd, &mut reader, &mut out).expect("why: a scripted clean run serves cleanly");
        String::from_utf8(out)
            .expect("why: replies are JSON text")
            .lines()
            .map(|l| parse_flat_object(l).expect("why: every reply is a flat object"))
            .collect()
    }

    /// A single-shard worker stepped over an in-memory pipe produces
    /// the same labels as the in-process executor.
    #[test]
    fn scripted_single_shard_run_matches_the_local_executor() {
        let graph = crate::spec::GraphSpec::Path { n: 5 };
        let ids = vec![3u64, 9, 1, 7, 5];
        let cmd = InitCmd {
            graph: graph.clone(),
            alg: AlgSpec::GuardedFlood { k: 4 },
            input: crate::spec::InputSpec::Uniform,
            ids: ids.clone(),
            n: 5,
            shards: 1,
            shard: 0,
            plan_text: FaultPlan::new(0).to_text(),
            hang_at: None,
        };
        let mut commands = Vec::new();
        for round in 0..4u32 {
            commands.push(format!("{{\"op\":\"begin\",\"round\":{round}}}"));
            commands.push(format!(
                "{{\"op\":\"compute\",\"round\":{round},\"crashed\":\"0\"}}"
            ));
            commands.push(format!(
                "{{\"op\":\"deliver\",\"round\":{round},\"crashed\":\"0\",\"halos\":\"\"}}"
            ));
        }
        commands.push("{\"op\":\"begin\",\"round\":4}".to_string());
        commands.push("{\"op\":\"output\",\"rounds\":4}".to_string());
        let replies = pipe_run(&commands, &cmd);
        assert_eq!(want_str(&replies[0], "op").unwrap(), "ready");
        assert_eq!(want_str(&replies[0], "alg_name").unwrap(), "guarded-flood");
        // Reply 13 is the final `begun` with all_done=true.
        assert!(crate::wire::want_bool(&replies[13], "all_done").unwrap());
        let outputs = replies.last().expect("why: the script ends with output");
        assert_eq!(want_str(outputs, "op").unwrap(), "outputs");
        let labels = crate::wire::decode_labels(&want_str(outputs, "labels").unwrap()).unwrap();
        let g = graph.build();
        let input = lcl::uniform_input(&g);
        let run = lcl_local::simulate_sync_with(
            &GuardedFlood { k: 4 },
            &g,
            &input,
            &ids,
            None,
            10,
            lcl_faults::RunOptions::new(),
        );
        // One flat list over the owned half-edges, in CSR order.
        let expect: Vec<OutLabel> = g
            .half_edges()
            .map(|h| run.outcome.outcome.output.get(h))
            .collect();
        assert_eq!(labels, expect);
    }

    /// A worker handed the whole id assignment instead of its owned
    /// range refuses to serve, with an error instead of a panic.
    #[test]
    fn worker_rejects_an_id_list_of_the_wrong_length() {
        let cmd = InitCmd {
            graph: crate::spec::GraphSpec::Path { n: 5 },
            alg: AlgSpec::GuardedFlood { k: 2 },
            input: crate::spec::InputSpec::Uniform,
            ids: vec![3, 9, 1, 7, 5],
            n: 5,
            shards: 2,
            shard: 1,
            plan_text: FaultPlan::new(0).to_text(),
            hang_at: None,
        };
        let mut out: Vec<u8> = Vec::new();
        let err = serve_shard(&cmd, &mut BufReader::new(&b""[..]), &mut out).unwrap_err();
        assert_eq!(err, "init shipped 5 ids for shard 1's 2 owned nodes");
        assert!(out.is_empty(), "no ready reply before the check");

        let stray = InitCmd {
            ids: vec![7, 5],
            shard: 2,
            ..cmd
        };
        let err = serve_shard(&stray, &mut BufReader::new(&b""[..]), &mut out).unwrap_err();
        assert_eq!(err, "init addresses shard 2 of a 2-shard partition");
    }

    /// The route build the worker used before it kept to its owned
    /// half-edges: a scan over every shard's nodes, in shard order.
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
        use crate::spec::GraphSpec;
        let specs = [
            GraphSpec::Path { n: 33 },
            GraphSpec::RandomTree {
                n: 64,
                max_degree: 3,
                seed: 5,
            },
            GraphSpec::Caterpillar { spine: 6, legs: 1 },
            GraphSpec::Star { leaves: 3 },
        ];
        for spec in specs {
            let g = spec.build();
            for shards in [1, 4, 16] {
                let map = ShardMap::new(g.node_count(), shards);
                for me in 0..map.num_shards() {
                    assert_eq!(
                        routes(&g, &map, me),
                        all_shards_routes(&g, &map, me),
                        "{spec:?}: shards={shards}, shard {me}"
                    );
                }
            }
        }
    }
}
