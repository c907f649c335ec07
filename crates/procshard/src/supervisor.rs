//! The shard supervisor: owns a fleet of worker processes and drives
//! the superstep barrier over Unix sockets.
//!
//! The supervisor is the only process that sees the whole run. It
//! spawns one `shard-worker` child per shard, ships each an
//! [`InitCmd`], and then walks the same phase sequence as the
//! in-process coordinator — begin, compute, deliver, finish, output —
//! broadcasting each command to every worker and collecting replies in
//! shard order, which reconstructs the exact global fault and event
//! order of the in-process executor. Halo batches travel through the
//! supervisor as opaque strings: it never decodes a message payload,
//! so it is not generic over the algorithm.
//!
//! # Death, heartbeats, and respawn
//!
//! Every worker socket carries read/write deadlines
//! ([`lcl_service::arm_deadlines`]); the deadline doubles as the
//! heartbeat, because a worker that misses its superstep reply —
//! wedged, killed, or gone mute — surfaces as a timed-out read, and a
//! worker that died surfaces as EOF or a broken pipe. Either way the
//! seat is revived: the supervisor reaps the child, records a
//! deterministic-backoff retry (the recorded-never-slept
//! [`RetryPolicy`] discipline), respawns the worker, and **rehydrates
//! it by replay** — the full command history is resent, replies are
//! discarded, and the replayed worker's last [`ShardSnapshot`] must be
//! byte-identical to the one the dead worker shipped before dying
//! ([`ProcError::RehydrateDiverged`] otherwise). Replay works because
//! every worker input is deterministic; it is what makes a SIGKILL
//! output-transparent. The respawn budget is capped
//! ([`ProcOptions::max_respawns`]); exhausting it escalates as the
//! typed [`ProcError::ShardDead`].
//!
//! [`Fault::ShardKill`](lcl_faults::Fault::ShardKill) in the run's
//! plan delivers a *real* `SIGKILL` to the child mid-superstep — the
//! worker never learns of its scheduled death (the carved domain plan
//! filters kills out), so the kill exercises the exact machinery an
//! unplanned crash would.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lcl::{HalfEdgeLabeling, OutLabel};
use lcl_faults::{record_fault, Degraded, FaultPlan, NodeFault, RunOptions};
use lcl_graph::{NodeId, ShardMap};
use lcl_local::{IdAssignment, SyncRun};
use lcl_obs::{Counter, Event, RunReport, Span, Trace};
use lcl_recover::RetryPolicy;
use lcl_service::arm_deadlines;
use lcl_service::protocol::{parse_flat_object, Scalar};
use lcl_shard::ShardSnapshot;

use crate::spec::ProcJob;
use crate::wire::{
    decode_events, decode_faults, decode_labels, encode_flags, open_line, push_num_field,
    push_text_field, want_bool, want_num, want_str, write_line, InitCmd,
};

/// Supervisor knobs that live outside [`RunOptions`]: where the worker
/// binary is, how many respawns a shard gets, and the test-only hang
/// injection.
#[derive(Clone, Debug, Default)]
pub struct ProcOptions {
    /// Explicit worker binary. When `None`, the supervisor tries the
    /// `LCL_SHARD_WORKER` environment variable, then a `shard-worker`
    /// sibling of the current executable (and of its parent directory,
    /// for test binaries living under `deps/`).
    pub worker_bin: Option<PathBuf>,
    /// Respawns each shard may consume before the run escalates with
    /// [`ProcError::ShardDead`]. `None` means the default of 3.
    pub max_respawns: Option<u32>,
    /// Test hook: `(shard, superstep)` at which that shard's worker
    /// wedges forever, driving deadline detection without a kill.
    pub hang_at: Option<(usize, u32)>,
}

impl ProcOptions {
    /// The effective respawn cap.
    pub fn respawn_cap(&self) -> u32 {
        self.max_respawns.unwrap_or(3)
    }
}

/// Why a proc-sharded run could not produce a report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProcError {
    /// No worker binary was found at any of the tried locations.
    WorkerBinMissing {
        /// Paths probed, in order.
        tried: Vec<String>,
    },
    /// Spawning or connecting a worker failed outright.
    Spawn {
        /// The shard whose worker could not be brought up.
        shard: usize,
        /// The OS error.
        error: String,
    },
    /// A worker sent bytes that are not a valid reply — a version
    /// mismatch, not a death, so it is not retried.
    Protocol {
        /// The offending shard.
        shard: usize,
        /// What was wrong.
        what: String,
    },
    /// A shard exhausted its respawn budget.
    ShardDead {
        /// The shard that will not come back.
        shard: usize,
        /// The superstep it died at.
        superstep: u32,
        /// Respawns consumed before giving up.
        respawns: u32,
    },
    /// A replayed worker's snapshot disagrees with the one the dead
    /// worker shipped — rehydration would continue from corrupt state.
    RehydrateDiverged {
        /// The shard whose replay diverged.
        shard: usize,
        /// The superstep at which the divergence surfaced.
        superstep: u32,
    },
    /// The job's id list does not cover its graph: [`ProcJob::ids`]
    /// must hold one id per node.
    IdCount {
        /// Ids the job carries.
        ids: usize,
        /// Nodes of the job's graph.
        nodes: usize,
    },
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcError::WorkerBinMissing { tried } => {
                write!(f, "no shard-worker binary found (tried {})", tried.join(", "))
            }
            ProcError::Spawn { shard, error } => {
                write!(f, "shard {shard}: worker failed to start: {error}")
            }
            ProcError::Protocol { shard, what } => {
                write!(f, "shard {shard}: protocol violation: {what}")
            }
            ProcError::ShardDead {
                shard,
                superstep,
                respawns,
            } => write!(
                f,
                "shard {shard} died at superstep {superstep} and stayed dead after {respawns} respawns"
            ),
            ProcError::RehydrateDiverged { shard, superstep } => write!(
                f,
                "shard {shard}: replay rehydration diverged at superstep {superstep}"
            ),
            ProcError::IdCount { ids, nodes } => {
                write!(f, "the job carries {ids} ids for a {nodes}-node graph")
            }
        }
    }
}

impl std::error::Error for ProcError {}

/// Monotonic disambiguator for socket paths within one process.
static SOCKET_SERIAL: AtomicU64 = AtomicU64::new(0);

/// Locates the worker binary; see [`ProcOptions::worker_bin`].
fn resolve_worker_bin(proc: &ProcOptions) -> Result<PathBuf, ProcError> {
    let mut tried = Vec::new();
    let mut candidates: Vec<PathBuf> = Vec::new();
    if let Some(explicit) = &proc.worker_bin {
        candidates.push(explicit.clone());
    } else {
        if let Some(env) = std::env::var_os("LCL_SHARD_WORKER") {
            candidates.push(PathBuf::from(env));
        }
        if let Ok(exe) = std::env::current_exe() {
            if let Some(dir) = exe.parent() {
                candidates.push(dir.join("shard-worker"));
                if let Some(parent) = dir.parent() {
                    candidates.push(parent.join("shard-worker"));
                }
            }
        }
    }
    for candidate in candidates {
        if candidate.is_file() {
            return Ok(candidate);
        }
        tried.push(candidate.display().to_string());
    }
    Err(ProcError::WorkerBinMissing { tried })
}

/// A live connection to one worker child.
struct Conn {
    child: Child,
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    /// SIGKILLs and reaps the child; errors are ignored because the
    /// child may already be gone, which is the desired end state.
    fn kill_and_reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One shard's seat in the fleet: its connection (if alive), the full
/// command history for replay rehydration, and the latest totals its
/// replies reported.
struct Seat {
    range_start: usize,
    conn: Option<Conn>,
    history: Vec<String>,
    /// The snapshot JSON from the last `stepped` reply — the replay
    /// integrity anchor.
    last_snapshot: Option<String>,
    respawns: u32,
    /// Kill/death faults queued for the next `f_crash` merge point.
    pending_faults: Vec<NodeFault>,
    all_done: bool,
    crashes: u64,
    rebuilds: u64,
    checkpoints: u64,
    supersteps: u64,
    halo_messages: u64,
    halo_bytes: u64,
}

/// How a reply read ended when it did not produce fields.
enum ReadFail {
    /// EOF, broken pipe, or an expired deadline: the worker is dead
    /// (or as good as dead) and the seat must be revived.
    Dead,
    /// The bytes parsed as garbage: escalate, do not respawn.
    Garbage(String),
}

/// The worker fleet plus everything needed to respawn its members.
struct Fleet<'l> {
    worker_bin: PathBuf,
    socket_path: PathBuf,
    listener: UnixListener,
    io_timeout_ms: u64,
    accept_timeout_ms: u64,
    policy: RetryPolicy,
    respawn_cap: u32,
    log: Option<&'l lcl_obs::EventLog>,
    seats: Vec<Seat>,
}

impl Drop for Fleet<'_> {
    fn drop(&mut self) {
        for seat in &mut self.seats {
            if let Some(conn) = seat.conn.as_mut() {
                conn.kill_and_reap();
            }
        }
        let _ = std::fs::remove_file(&self.socket_path);
    }
}

impl<'l> Fleet<'l> {
    fn new(map: &ShardMap, opts: &RunOptions<'l>, proc: &ProcOptions) -> Result<Self, ProcError> {
        let worker_bin = resolve_worker_bin(proc)?;
        let serial = SOCKET_SERIAL.fetch_add(1, Ordering::Relaxed);
        let socket_path = std::env::temp_dir().join(format!(
            "lcl-procshard-{}-{serial}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&socket_path);
        let listener = UnixListener::bind(&socket_path).map_err(|e| ProcError::Spawn {
            shard: 0,
            error: format!("bind {}: {e}", socket_path.display()),
        })?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ProcError::Spawn {
                shard: 0,
                error: e.to_string(),
            })?;
        let io_timeout_ms = opts.io_timeout_ms().unwrap_or(10_000);
        let seats = (0..map.num_shards())
            .map(|s| Seat {
                range_start: map.range(s).start,
                conn: None,
                history: Vec::new(),
                last_snapshot: None,
                respawns: 0,
                pending_faults: Vec::new(),
                all_done: false,
                crashes: 0,
                rebuilds: 0,
                checkpoints: 0,
                supersteps: 0,
                halo_messages: 0,
                halo_bytes: 0,
            })
            .collect();
        Ok(Self {
            worker_bin,
            socket_path,
            listener,
            io_timeout_ms,
            accept_timeout_ms: io_timeout_ms.max(5_000),
            policy: RetryPolicy::default(),
            respawn_cap: proc.respawn_cap(),
            log: opts.event_log(),
            seats,
        })
    }

    /// Spawns one worker child and completes its handshake: accept the
    /// connection (bounded poll on the nonblocking listener), arm the
    /// socket deadlines, and verify the `hello`.
    fn spawn_worker(&self, shard: usize) -> Result<Conn, ProcError> {
        let spawn_err = |error: String| ProcError::Spawn { shard, error };
        let mut child = Command::new(&self.worker_bin)
            .arg("--socket")
            .arg(&self.socket_path)
            .arg("--shard")
            .arg(shard.to_string())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| spawn_err(e.to_string()))?;
        let started = Instant::now();
        let stream = loop {
            match self.listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(spawn_err(format!("worker exited at startup: {status}")));
                    }
                    if started.elapsed() > Duration::from_millis(self.accept_timeout_ms) {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(spawn_err(format!(
                            "worker did not connect within {}ms",
                            self.accept_timeout_ms
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(spawn_err(e.to_string()));
                }
            }
        };
        arm_deadlines(&stream, self.io_timeout_ms).map_err(|e| spawn_err(e.to_string()))?;
        let writer = stream.try_clone().map_err(|e| spawn_err(e.to_string()))?;
        let mut conn = Conn {
            child,
            reader: BufReader::new(stream),
            writer,
        };
        match read_reply(&mut conn) {
            Ok(fields) => {
                let claimed = want_num(&fields, "shard")
                    .map_err(|e| ProcError::Protocol { shard, what: e })?;
                if claimed != shard as u64 {
                    conn.kill_and_reap();
                    return Err(ProcError::Protocol {
                        shard,
                        what: format!("worker introduced itself as shard {claimed}"),
                    });
                }
                Ok(conn)
            }
            Err(ReadFail::Dead) => {
                conn.kill_and_reap();
                Err(spawn_err("worker died before its hello".to_string()))
            }
            Err(ReadFail::Garbage(what)) => {
                conn.kill_and_reap();
                Err(ProcError::Protocol { shard, what })
            }
        }
    }

    /// Records `line` in the seat's replay history and ships it if the
    /// worker is alive. A write failure downgrades the seat to dead;
    /// the next [`Fleet::collect`] revives it and resends the line.
    fn send(&mut self, shard: usize, line: String) {
        let seat = &mut self.seats[shard];
        let failed = match seat.conn.as_mut() {
            Some(conn) => write_line(&mut conn.writer, &line).is_err(),
            None => false,
        };
        seat.history.push(line);
        if failed {
            if let Some(mut conn) = seat.conn.take() {
                conn.kill_and_reap();
            }
        }
    }

    /// Delivers a planned `SIGKILL`: the child dies mid-superstep and
    /// the seat is left dead for [`Fleet::collect`] to revive.
    fn kill_now(&mut self, shard: usize) {
        if let Some(mut conn) = self.seats[shard].conn.take() {
            conn.kill_and_reap();
        }
    }

    /// Reads the pending reply from `shard`, reviving the worker (and
    /// replaying its history) as many times as the respawn budget
    /// allows. `superstep` attributes any death to the current round.
    fn collect(
        &mut self,
        shard: usize,
        superstep: u32,
    ) -> Result<Vec<(String, Scalar)>, ProcError> {
        loop {
            if let Some(conn) = self.seats[shard].conn.as_mut() {
                match read_reply(conn) {
                    Ok(fields) => return Ok(fields),
                    Err(ReadFail::Garbage(what)) => {
                        return Err(ProcError::Protocol { shard, what })
                    }
                    Err(ReadFail::Dead) => {
                        if let Some(mut conn) = self.seats[shard].conn.take() {
                            conn.kill_and_reap();
                        }
                    }
                }
            }
            self.revive(shard, superstep)?;
        }
    }

    /// One respawn attempt: budget check, retry bookkeeping, fresh
    /// worker, replay of everything but the last command, snapshot
    /// integrity check, and a resend of the last command (whose reply
    /// the caller's read loop picks up). A death *during* replay
    /// leaves the seat dead so the caller loops back in here, burning
    /// another respawn.
    fn revive(&mut self, shard: usize, superstep: u32) -> Result<(), ProcError> {
        let cap = self.respawn_cap;
        let seat = &mut self.seats[shard];
        if seat.respawns >= cap {
            return Err(ProcError::ShardDead {
                shard,
                superstep,
                respawns: seat.respawns,
            });
        }
        seat.respawns += 1;
        let attempt = seat.respawns;
        record_fault(
            &mut seat.pending_faults,
            self.log,
            seat.range_start as u64,
            u64::from(superstep),
            "shard-kill",
            format!(
                "shard {shard} worker killed at superstep {superstep}; respawn {attempt} of {cap}"
            ),
        );
        if let Some(log) = self.log {
            log.record(Event::Retry {
                stage: format!("shard/{shard}"),
                attempt: u64::from(attempt),
                // Deterministic, recorded, never slept: respawning
                // immediately is safe (the dead process held no locks),
                // so the schedule is evidence, not delay.
                backoff_ms: self.policy.backoff_ms(attempt),
            });
        }
        let mut conn = self.spawn_worker(shard)?;
        let seat = &mut self.seats[shard];
        let (prefix, last) = match seat.history.split_last() {
            Some((last, prefix)) => (prefix, last),
            None => {
                seat.conn = Some(conn);
                return Ok(());
            }
        };
        let mut replayed_snapshot: Option<String> = None;
        for line in prefix {
            if write_line(&mut conn.writer, line).is_err() {
                conn.kill_and_reap();
                return Ok(());
            }
            match read_reply(&mut conn) {
                Ok(fields) => {
                    if let Ok(op) = want_str(&fields, "op") {
                        if op == "stepped" {
                            if let Ok(snap) = want_str(&fields, "snapshot") {
                                replayed_snapshot = Some(snap);
                            }
                        }
                    }
                }
                Err(ReadFail::Garbage(what)) => {
                    conn.kill_and_reap();
                    return Err(ProcError::Protocol { shard, what });
                }
                Err(ReadFail::Dead) => {
                    conn.kill_and_reap();
                    return Ok(());
                }
            }
        }
        if replayed_snapshot != seat.last_snapshot {
            conn.kill_and_reap();
            return Err(ProcError::RehydrateDiverged { shard, superstep });
        }
        if write_line(&mut conn.writer, last).is_err() {
            conn.kill_and_reap();
            return Ok(());
        }
        seat.conn = Some(conn);
        Ok(())
    }
}

/// Reads and parses one reply line from a worker connection.
fn read_reply(conn: &mut Conn) -> Result<Vec<(String, Scalar)>, ReadFail> {
    let mut line = String::new();
    match conn.reader.read_line(&mut line) {
        Ok(0) => Err(ReadFail::Dead),
        Ok(_) => {
            while line.ends_with('\n') || line.ends_with('\r') {
                line.pop();
            }
            parse_flat_object(&line).map_err(|e| ReadFail::Garbage(e.to_string()))
        }
        Err(_) => Err(ReadFail::Dead),
    }
}

/// Shorthand for reply-shape failures.
fn proto(shard: usize) -> impl Fn(String) -> ProcError {
    move |what| ProcError::Protocol { shard, what }
}

/// Runs `job` on the process-per-shard substrate.
///
/// The shard count comes from [`RunOptions::shard_count`] (default 1);
/// unlike the in-process executor there is no unsharded delegation —
/// one shard means one worker process. Socket deadlines come from
/// [`RunOptions::io_timeout`] (default 10 000 ms) and double as the
/// per-superstep heartbeat. For plans without kills or whole-shard
/// losses the returned outcome, fault list, and round/message counts
/// are equal to `simulate_sharded_with` and the unsharded executor;
/// kills are output-transparent (respawn + replay) and surface only as
/// `"shard-kill"` faults, retry events, and the `retries` counter.
pub fn run_proc_sharded(
    job: &ProcJob,
    opts: RunOptions<'_>,
    proc: &ProcOptions,
) -> Result<RunReport<Degraded<SyncRun>>, ProcError> {
    let graph = job.graph.build();
    if job.ids.len() != graph.node_count() {
        return Err(ProcError::IdCount {
            ids: job.ids.len(),
            nodes: graph.node_count(),
        });
    }
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
    let effective = budget.max_rounds.map_or(job.max_rounds, |cap| {
        job.max_rounds.min(u32::try_from(cap).unwrap_or(u32::MAX))
    });
    let requested = opts.shard_count().unwrap_or(1);
    let map = ShardMap::new(graph.node_count(), requested);
    let m = map.num_shards();
    let crash_at: Vec<Vec<u32>> = (0..m).map(|s| plan.shard_crashes(s)).collect();
    let kill_at: Vec<Vec<u32>> = (0..m).map(|s| plan.shard_kills(s)).collect();

    let mut fleet = Fleet::new(&map, &opts, proc)?;
    for (s, cmd) in init_commands(job, plan, &map, proc).iter().enumerate() {
        let conn = fleet.spawn_worker(s)?;
        fleet.seats[s].conn = Some(conn);
        fleet.send(s, cmd.encode());
    }

    let mut faults: Vec<NodeFault> = Vec::new();
    let mut alg_name = String::from("shard-worker");
    let mut init_faults: Vec<(Vec<NodeFault>, Vec<NodeFault>)> = Vec::with_capacity(m);
    for s in 0..m {
        let reply = fleet.collect(s, 0)?;
        expect_op(&reply, "ready", s)?;
        alg_name = want_str(&reply, "alg_name").map_err(proto(s))?;
        let f_init =
            decode_faults(&want_str(&reply, "f_init").map_err(proto(s))?).map_err(proto(s))?;
        let f_recv =
            decode_faults(&want_str(&reply, "f_recv").map_err(proto(s))?).map_err(proto(s))?;
        init_faults.push((f_init, f_recv));
    }
    for (f_init, _) in &mut init_faults {
        faults.append(f_init);
    }
    for (_, f_recv) in &mut init_faults {
        faults.append(f_recv);
    }

    let mut span = Span::start(format!("shard/sync/{alg_name}"));
    let mut messages = 0u64;
    let mut rounds = 0u32;

    loop {
        for s in 0..m {
            let mut line = open_line("begin");
            push_num_field(&mut line, "round", u64::from(rounds));
            line.push('}');
            fleet.send(s, line);
        }
        let mut all_done = true;
        for s in 0..m {
            let reply = fleet.collect(s, rounds)?;
            expect_op(&reply, "begun", s)?;
            let done = want_bool(&reply, "all_done").map_err(proto(s))?;
            fleet.seats[s].all_done = done;
            all_done &= done;
        }
        if all_done {
            break;
        }
        if rounds >= effective {
            for s in 0..m {
                let mut line = open_line("finish");
                push_num_field(&mut line, "round", u64::from(rounds));
                push_num_field(&mut line, "effective", u64::from(effective));
                line.push('}');
                fleet.send(s, line);
            }
            let mut finish_faults: Vec<Vec<NodeFault>> = Vec::with_capacity(m);
            for s in 0..m {
                let reply = fleet.collect(s, rounds)?;
                expect_op(&reply, "finished", s)?;
                finish_faults.push(
                    decode_faults(&want_str(&reply, "f_recv").map_err(proto(s))?)
                        .map_err(proto(s))?,
                );
            }
            for f in &mut finish_faults {
                faults.append(f);
            }
            break;
        }
        if let Some(log) = log {
            log.record(Event::RoundStart {
                round: u64::from(rounds),
            });
        }
        let crashed: Vec<bool> = (0..m)
            .map(|s| crash_at[s].binary_search(&rounds).is_ok())
            .collect();
        let crashed_text = encode_flags(&crashed);
        for s in 0..m {
            let mut line = open_line("compute");
            push_num_field(&mut line, "round", u64::from(rounds));
            push_text_field(&mut line, "crashed", &crashed_text);
            line.push('}');
            fleet.send(s, line);
        }
        // Planned kills land after the command fan-out: the worker is
        // mid-superstep (or about to be) when the SIGKILL arrives.
        for (s, kills) in kill_at.iter().enumerate() {
            if kills.binary_search(&rounds).is_ok() {
                fleet.kill_now(s);
            }
        }
        let mut round_messages = 0u64;
        // Receiver shard → (sender shard → encoded entries).
        let mut routed: Vec<BTreeMap<usize, String>> = vec![BTreeMap::new(); m];
        let mut crash_send_faults: Vec<(Vec<NodeFault>, Vec<NodeFault>)> = Vec::with_capacity(m);
        for s in 0..m {
            let reply = fleet.collect(s, rounds)?;
            expect_op(&reply, "computed", s)?;
            round_messages += want_num(&reply, "round_messages").map_err(proto(s))?;
            let halos = want_str(&reply, "halos").map_err(proto(s))?;
            if !halos.is_empty() {
                for chunk in halos.split('|') {
                    let (dst, entries) = chunk.split_once('>').ok_or_else(|| {
                        proto(s)(format!("halo batch {chunk:?} lacks a peer prefix"))
                    })?;
                    let dst: usize = dst
                        .parse()
                        .map_err(|_| proto(s)(format!("halo peer {dst:?}")))?;
                    if dst >= m {
                        return Err(proto(s)(format!("halo peer {dst} out of range")));
                    }
                    routed[dst].insert(s, entries.to_string());
                }
            }
            let f_crash =
                decode_faults(&want_str(&reply, "f_crash").map_err(proto(s))?).map_err(proto(s))?;
            let f_send =
                decode_faults(&want_str(&reply, "f_send").map_err(proto(s))?).map_err(proto(s))?;
            crash_send_faults.push((f_crash, f_send));
            let seat = &mut fleet.seats[s];
            seat.crashes = want_num(&reply, "crashes").map_err(proto(s))?;
            seat.rebuilds = want_num(&reply, "rebuilds").map_err(proto(s))?;
            seat.checkpoints = want_num(&reply, "checkpoints").map_err(proto(s))?;
        }
        messages += round_messages;
        for (s, (f_crash, _)) in crash_send_faults.iter_mut().enumerate() {
            faults.append(&mut fleet.seats[s].pending_faults);
            faults.append(f_crash);
        }
        for (_, f_send) in &mut crash_send_faults {
            faults.append(f_send);
        }
        for (s, batches) in routed.iter().enumerate() {
            let halos = batches
                .iter()
                .map(|(src, entries)| format!("{src}>{entries}"))
                .collect::<Vec<_>>()
                .join("|");
            let mut line = open_line("deliver");
            push_num_field(&mut line, "round", u64::from(rounds));
            push_text_field(&mut line, "crashed", &crashed_text);
            push_text_field(&mut line, "halos", &halos);
            line.push('}');
            fleet.send(s, line);
        }
        let mut recv_faults: Vec<Vec<NodeFault>> = Vec::with_capacity(m);
        for s in 0..m {
            let reply = fleet.collect(s, rounds)?;
            expect_op(&reply, "stepped", s)?;
            recv_faults.push(
                decode_faults(&want_str(&reply, "f_recv").map_err(proto(s))?).map_err(proto(s))?,
            );
            let snapshot = want_str(&reply, "snapshot").map_err(proto(s))?;
            ShardSnapshot::parse(&snapshot)
                .map_err(|e| proto(s)(format!("stepped snapshot: {e}")))?;
            let seat = &mut fleet.seats[s];
            seat.last_snapshot = Some(snapshot);
            seat.supersteps = want_num(&reply, "supersteps").map_err(proto(s))?;
            seat.halo_messages = want_num(&reply, "halo_messages").map_err(proto(s))?;
            seat.halo_bytes = want_num(&reply, "halo_bytes").map_err(proto(s))?;
        }
        for f in &mut recv_faults {
            faults.append(f);
        }
        if let Some(log) = log {
            log.record(Event::RoundEnd {
                round: u64::from(rounds),
                messages: round_messages,
            });
        }
        rounds += 1;
    }
    // Residual: deaths observed after the last compute merge point.
    for s in 0..m {
        faults.append(&mut fleet.seats[s].pending_faults);
    }

    for s in 0..m {
        let mut line = open_line("output");
        push_num_field(&mut line, "rounds", u64::from(rounds));
        line.push('}');
        fleet.send(s, line);
    }
    let mut outputs: Vec<Vec<OutLabel>> = Vec::with_capacity(m);
    let mut out_faults: Vec<(Vec<NodeFault>, Vec<NodeFault>)> = Vec::with_capacity(m);
    let mut streams: Vec<Vec<Event>> = Vec::with_capacity(m);
    for s in 0..m {
        let reply = fleet.collect(s, rounds)?;
        expect_op(&reply, "outputs", s)?;
        let labels =
            decode_labels(&want_str(&reply, "labels").map_err(proto(s))?).map_err(proto(s))?;
        let owned: usize = map
            .range(s)
            .map(|i| usize::from(graph.degree(NodeId(i as u32))))
            .sum();
        if labels.len() != owned {
            return Err(proto(s)(format!(
                "worker labeled {} of {owned} owned half-edges",
                labels.len()
            )));
        }
        outputs.push(labels);
        let f_out =
            decode_faults(&want_str(&reply, "f_out").map_err(proto(s))?).map_err(proto(s))?;
        let f_recv =
            decode_faults(&want_str(&reply, "f_recv").map_err(proto(s))?).map_err(proto(s))?;
        out_faults.push((f_out, f_recv));
        streams
            .push(decode_events(&want_str(&reply, "events").map_err(proto(s))?).map_err(proto(s))?);
    }
    for (f_out, _) in &mut out_faults {
        faults.append(f_out);
    }
    for (_, f_recv) in &mut out_faults {
        faults.append(f_recv);
    }

    // Shards own contiguous node ranges in index order and a node's
    // half-edges are contiguous (CSR), so the shards' runs concatenate
    // into the labeling in half-edge order.
    let output: HalfEdgeLabeling<OutLabel> = outputs.into_iter().flatten().collect();

    if let Some(log) = log {
        for stream in &streams {
            for event in stream {
                log.record(event.clone());
            }
        }
    }

    span.set(Counter::Nodes, graph.node_count() as u64);
    span.set(Counter::Edges, graph.edge_count() as u64);
    span.set(Counter::Rounds, u64::from(rounds));
    span.set(Counter::Messages, messages);
    span.set(Counter::Faults, faults.len() as u64);
    span.set(Counter::Shards, m as u64);
    let seats = &fleet.seats;
    span.set(
        Counter::Supersteps,
        seats.iter().map(|s| s.supersteps).sum(),
    );
    span.set(
        Counter::HaloMessages,
        seats.iter().map(|s| s.halo_messages).sum(),
    );
    span.set(Counter::HaloBytes, seats.iter().map(|s| s.halo_bytes).sum());
    span.set(Counter::ShardCrashes, seats.iter().map(|s| s.crashes).sum());
    span.set(
        Counter::ShardRebuilds,
        seats.iter().map(|s| s.rebuilds).sum(),
    );
    span.set(
        Counter::Checkpoints,
        seats.iter().map(|s| s.checkpoints).sum(),
    );
    span.set(
        Counter::Retries,
        seats
            .iter()
            .map(|s| s.rebuilds + u64::from(s.respawns))
            .sum(),
    );
    let degraded = Degraded {
        outcome: SyncRun { output, rounds },
        faults,
    };
    Ok(RunReport::new(degraded, Trace::new(span.finish())))
}

/// Every shard's `init` command. The plan's id permutation is applied
/// to the whole assignment, as the in-process executor applies it, and
/// only then is each shard handed the ids of its owned range.
fn init_commands(
    job: &ProcJob,
    plan: &FaultPlan,
    map: &ShardMap,
    proc: &ProcOptions,
) -> Vec<InitCmd> {
    let nodes = map.node_count();
    let ids: Cow<'_, [u64]> = match plan.permutation(nodes) {
        Some(perm) => IdAssignment::from_vec(job.ids.clone())
            .permuted(&perm)
            .iter()
            .collect(),
        None => Cow::Borrowed(&job.ids),
    };
    let plan_text = plan.to_text();
    (0..map.num_shards())
        .map(|s| InitCmd {
            graph: job.graph.clone(),
            alg: job.alg.clone(),
            input: job.input.clone(),
            ids: ids[map.range(s)].to_vec(),
            n: job.n_announced.unwrap_or(nodes),
            shards: map.num_shards(),
            shard: s,
            plan_text: plan_text.clone(),
            hang_at: proc
                .hang_at
                .and_then(|(hung, at)| (hung == s).then_some(at)),
        })
        .collect()
}

/// Asserts a reply's `op`.
fn expect_op(fields: &[(String, Scalar)], want: &str, shard: usize) -> Result<(), ProcError> {
    let got = want_str(fields, "op").map_err(proto(shard))?;
    if got != want {
        return Err(ProcError::Protocol {
            shard,
            what: format!("expected a {want:?} reply, got {got:?}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AlgSpec, GraphSpec, InputSpec};

    /// Each shard's `init` line carries exactly its owned range's ids,
    /// and the slices concatenate to the permuted assignment.
    #[test]
    fn init_lines_carry_only_the_owned_ids() {
        let job = ProcJob {
            graph: GraphSpec::Path { n: 10 },
            alg: AlgSpec::GuardedFlood { k: 2 },
            input: InputSpec::Uniform,
            ids: (0..10).map(|i| i * 7 + 1).collect(),
            n_announced: Some(64),
            max_rounds: 4,
        };
        let plan = FaultPlan::new(5).with_permuted_ids();
        let perm = plan.permutation(10).expect("why: the plan permutes ids");
        let permuted: Vec<u64> = IdAssignment::from_vec(job.ids.clone())
            .permuted(&perm)
            .iter()
            .collect();
        assert_ne!(permuted, job.ids, "the permutation moves some id");
        for shards in [1, 3, 4, 10] {
            let map = ShardMap::new(10, shards);
            let cmds = init_commands(&job, &plan, &map, &ProcOptions::default());
            assert_eq!(cmds.len(), map.num_shards());
            let mut shipped = Vec::new();
            for (s, cmd) in cmds.iter().enumerate() {
                let fields = parse_flat_object(&cmd.encode()).expect("an init line parses");
                let parsed = InitCmd::parse(&fields).expect("an init line decodes");
                assert_eq!(
                    parsed.ids.len(),
                    map.range(s).len(),
                    "shards={shards} s={s}"
                );
                assert_eq!(parsed.n, 64);
                shipped.extend(parsed.ids);
            }
            assert_eq!(shipped, permuted, "shards={shards}");
        }
    }
}
