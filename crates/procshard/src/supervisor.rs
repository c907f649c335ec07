//! The shard supervisor: the process transport of the superstep
//! coordinator, over a fleet of worker processes and Unix sockets.
//!
//! The supervisor is the only process that sees the whole run. Its
//! fleet spawns one `shard-worker` child per shard and ships each an
//! [`InitCmd`]; it then answers every phase of the coordinator's round
//! loop ([`lcl_shard::coordinate`]) by broadcasting the phase command
//! and collecting each worker's reply in shard order. Halo batches
//! travel through it as opaque strings: it never decodes a message
//! payload, so it is not generic over the algorithm.
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

use std::collections::BTreeMap;
use std::io::BufReader;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lcl_faults::{record_fault, Degraded, NodeFault, RunOptions};
use lcl_local::SyncRun;
use lcl_obs::{Event, RunReport};
use lcl_recover::RetryPolicy;
use lcl_service::arm_deadlines;
use lcl_service::protocol::{parse_flat_object, Scalar};
use lcl_shard::{coordinate, Setup, ShardReply, ShardSnapshot, ShardTransport, StepCounters};

use crate::spec::ProcJob;
use crate::wire::{
    decode_events, decode_faults, decode_labels, encode_flags, open_line, push_num_field,
    push_text_field, read_line, split_batches, want_bool, want_num, want_str, write_line, InitCmd,
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
/// command history for replay rehydration, and the latest counters its
/// replies reported.
#[derive(Default)]
struct Seat {
    range_start: usize,
    conn: Option<Conn>,
    history: Vec<String>,
    /// The snapshot JSON from the last `stepped` reply — the replay
    /// integrity anchor.
    last_snapshot: Option<String>,
    respawns: u32,
    /// Kill/death faults for the front of the next reply's crash buffer.
    pending_faults: Vec<NodeFault>,
    counters: StepCounters,
}

/// One parsed reply line.
type Fields = [(String, Scalar)];

/// How a reply read ended when it did not produce fields.
enum ReadFail {
    /// EOF, broken pipe, or an expired deadline: the worker is dead
    /// (or as good as dead) and the seat must be revived.
    Dead,
    /// The bytes parsed as garbage: escalate, do not respawn.
    Garbage(String),
}

/// The process transport: the worker fleet, everything needed to
/// respawn its members, and the halo batches in flight between the
/// compute and deliver barriers.
struct Fleet<'l> {
    job: &'l ProcJob,
    proc: &'l ProcOptions,
    worker_bin: PathBuf,
    socket_path: PathBuf,
    listener: UnixListener,
    io_timeout_ms: u64,
    accept_timeout_ms: u64,
    policy: RetryPolicy,
    respawn_cap: u32,
    log: Option<&'l lcl_obs::EventLog>,
    seats: Vec<Seat>,
    /// Supersteps at which each shard's worker is SIGKILLed.
    kill_at: Vec<Vec<u32>>,
    /// Receiver shard → (sender shard → encoded entries), from the last
    /// compute. Payloads stay opaque: the supervisor never decodes a
    /// message, so it is not generic over the algorithm.
    routed: Vec<BTreeMap<usize, String>>,
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
    /// Binds the fleet's socket; the seats come with the partition, at
    /// init.
    fn new(
        job: &'l ProcJob,
        opts: &RunOptions<'l>,
        proc: &'l ProcOptions,
    ) -> Result<Self, ProcError> {
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
        Ok(Self {
            job,
            proc,
            worker_bin,
            socket_path,
            listener,
            io_timeout_ms,
            accept_timeout_ms: io_timeout_ms.max(5_000),
            policy: RetryPolicy::default(),
            respawn_cap: proc.respawn_cap(),
            log: opts.event_log(),
            seats: Vec::new(),
            kill_at: Vec::new(),
            routed: Vec::new(),
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
            self.kill_now(shard);
        }
    }

    /// Kills and reaps the seat's worker — a planned `SIGKILL`, or one
    /// found dead — leaving the seat for [`Fleet::collect`] to revive.
    fn kill_now(&mut self, shard: usize) {
        if let Some(mut conn) = self.seats[shard].conn.take() {
            conn.kill_and_reap();
        }
    }

    /// Sends every shard its line of one phase command.
    fn broadcast(&mut self, line: impl Fn(usize) -> String) {
        for s in 0..self.seats.len() {
            self.send(s, line(s));
        }
    }

    /// Collects every shard's `op` reply to one phase command, in shard
    /// order. `read` fills the phase's reply fields and seat counters
    /// from the reply line; the seat's queued death faults lead the
    /// reply's crash buffer, and its counters and respawns go along.
    fn gather(
        &mut self,
        superstep: u32,
        op: &str,
        mut read: impl FnMut(usize, &Fields, &mut ShardReply, &mut Seat) -> Result<(), String>,
    ) -> Result<Vec<ShardReply>, ProcError> {
        let mut replies = Vec::with_capacity(self.seats.len());
        for s in 0..self.seats.len() {
            let fields = self.collect(s, superstep)?;
            let got = want_str(&fields, "op").map_err(proto(s))?;
            if got != op {
                return Err(proto(s)(format!("expected a {op:?} reply, got {got:?}")));
            }
            let seat = &mut self.seats[s];
            let mut reply = ShardReply::default();
            read(s, &fields, &mut reply, seat).map_err(proto(s))?;
            seat.pending_faults.append(&mut reply.faults.crash);
            reply.faults.crash = std::mem::take(&mut seat.pending_faults);
            reply.counters = seat.counters;
            reply.respawns = u64::from(seat.respawns);
            replies.push(reply);
        }
        Ok(replies)
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
                    Err(ReadFail::Dead) => self.kill_now(shard),
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
    match read_line(&mut conn.reader) {
        Ok(Some(line)) => parse_flat_object(&line).map_err(|e| ReadFail::Garbage(e.to_string())),
        Ok(None) | Err(_) => Err(ReadFail::Dead),
    }
}

/// Shorthand for reply-shape failures.
fn proto(shard: usize) -> impl Fn(String) -> ProcError {
    move |what| ProcError::Protocol { shard, what }
}

/// A phase command line: the numeric fields, then the text fields.
fn command(op: &str, nums: &[(&str, u64)], texts: &[(&str, &str)]) -> String {
    let mut line = open_line(op);
    for &(name, value) in nums {
        push_num_field(&mut line, name, value);
    }
    for &(name, value) in texts {
        push_text_field(&mut line, name, value);
    }
    line.push('}');
    line
}

/// Decodes the fault list in reply field `name`.
fn faults_in(fields: &Fields, name: &'static str) -> Result<Vec<NodeFault>, String> {
    decode_faults(&want_str(fields, name)?)
}

/// Shard `s`'s `init` command: the job's specs and the shard's own ids.
fn init_command(job: &ProcJob, setup: &Setup<'_>, s: usize, proc: &ProcOptions) -> InitCmd {
    InitCmd {
        graph: job.graph.clone(),
        alg: job.alg.clone(),
        input: job.input.clone(),
        ids: setup.ids[s].to_vec(),
        n: setup.n,
        shards: setup.map.num_shards(),
        shard: s,
        plan_text: setup.plan.to_text(),
        hang_at: proc
            .hang_at
            .and_then(|(hung, at)| (hung == s).then_some(at)),
    }
}

impl ShardTransport for Fleet<'_> {
    type Error = ProcError;

    fn init(&mut self, setup: &Setup<'_>) -> Result<(String, Vec<ShardReply>), ProcError> {
        let m = setup.map.num_shards();
        self.kill_at = (0..m).map(|s| setup.plan.shard_kills(s)).collect();
        for s in 0..m {
            self.seats.push(Seat {
                range_start: setup.map.range(s).start,
                conn: Some(self.spawn_worker(s)?),
                ..Seat::default()
            });
            self.send(s, init_command(self.job, setup, s, self.proc).encode());
        }
        let mut name = String::from("shard-worker");
        let replies = self.gather(0, "ready", |_, fields, reply, _| {
            name = want_str(fields, "alg_name")?;
            reply.faults.init = faults_in(fields, "f_init")?;
            reply.faults.recv = faults_in(fields, "f_recv")?;
            Ok(())
        })?;
        Ok((name, replies))
    }

    fn begin(&mut self, round: u32) -> Result<Vec<ShardReply>, ProcError> {
        self.broadcast(|_| command("begin", &[("round", round.into())], &[]));
        self.gather(round, "begun", |_, fields, reply, _| {
            reply.all_done = want_bool(fields, "all_done")?;
            Ok(())
        })
    }

    fn finish(&mut self, round: u32, effective: u32) -> Result<Vec<ShardReply>, ProcError> {
        let nums = [("round", round.into()), ("effective", effective.into())];
        self.broadcast(|_| command("finish", &nums, &[]));
        self.gather(round, "finished", |_, fields, reply, _| {
            reply.faults.recv = faults_in(fields, "f_recv")?;
            Ok(())
        })
    }

    fn compute(&mut self, round: u32, crashed: &[bool]) -> Result<Vec<ShardReply>, ProcError> {
        let flags = encode_flags(crashed);
        let texts = [("crashed", flags.as_str())];
        self.broadcast(|_| command("compute", &[("round", round.into())], &texts));
        // Planned kills land after the command fan-out: the worker is
        // mid-superstep (or about to be) when the SIGKILL arrives.
        for s in 0..self.seats.len() {
            if self.kill_at[s].binary_search(&round).is_ok() {
                self.kill_now(s);
            }
        }
        let m = crashed.len();
        let mut routed = vec![BTreeMap::new(); m];
        let replies = self.gather(round, "computed", |s, fields, reply, seat| {
            for (dst, entries) in split_batches(&want_str(fields, "halos")?)? {
                if dst >= m {
                    return Err(format!("halo peer {dst} out of range"));
                }
                routed[dst].insert(s, entries.to_string());
            }
            reply.faults.crash = faults_in(fields, "f_crash")?;
            reply.faults.send = faults_in(fields, "f_send")?;
            let c = &mut seat.counters;
            c.round_messages = want_num(fields, "round_messages")?;
            c.crashes = want_num(fields, "crashes")?;
            c.rebuilds = want_num(fields, "rebuilds")?;
            c.checkpoints = want_num(fields, "checkpoints")?;
            Ok(())
        })?;
        self.routed = routed;
        Ok(replies)
    }

    fn deliver(&mut self, round: u32, crashed: &[bool]) -> Result<Vec<ShardReply>, ProcError> {
        let flags = encode_flags(crashed);
        let routed = std::mem::take(&mut self.routed);
        self.broadcast(|s| {
            let halos: Vec<String> = routed[s]
                .iter()
                .map(|(src, entries)| format!("{src}>{entries}"))
                .collect();
            let texts = [("crashed", flags.as_str()), ("halos", &halos.join("|"))];
            command("deliver", &[("round", round.into())], &texts)
        });
        self.gather(round, "stepped", |_, fields, reply, seat| {
            reply.faults.recv = faults_in(fields, "f_recv")?;
            let snapshot = want_str(fields, "snapshot")?;
            ShardSnapshot::parse(&snapshot).map_err(|e| format!("stepped snapshot: {e}"))?;
            seat.last_snapshot = Some(snapshot);
            let c = &mut seat.counters;
            c.supersteps = want_num(fields, "supersteps")?;
            c.halo_messages = want_num(fields, "halo_messages")?;
            c.halo_bytes = want_num(fields, "halo_bytes")?;
            Ok(())
        })
    }

    fn output(&mut self, rounds: u32) -> Result<Vec<ShardReply>, ProcError> {
        self.broadcast(|_| command("output", &[("rounds", rounds.into())], &[]));
        self.gather(rounds, "outputs", |_, fields, reply, _| {
            reply.labels = decode_labels(&want_str(fields, "labels")?)?;
            reply.faults.out = faults_in(fields, "f_out")?;
            reply.faults.recv = faults_in(fields, "f_recv")?;
            reply.events = decode_events(&want_str(fields, "events")?)?;
            Ok(())
        })
    }

    fn bad_reply(&self, shard: usize, what: String) -> ProcError {
        proto(shard)(format!("worker {what}"))
    }
}

/// Runs `job` on the process-per-shard substrate: the superstep loop of
/// [`lcl_shard::coordinate`], the one the in-process executor runs,
/// over this module's fleet. See the crate docs for what the run equals.
///
/// The shard count comes from [`RunOptions::shard_count`] (default 1);
/// unlike the in-process executor there is no unsharded delegation —
/// one shard means one worker process. Socket deadlines come from
/// [`RunOptions::io_timeout`] (default 10 000 ms) and double as the
/// per-superstep heartbeat.
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
    coordinate(
        &mut Fleet::new(job, &opts, proc)?,
        &graph,
        &job.ids,
        job.n_announced,
        job.max_rounds,
        opts.shard_count().unwrap_or(1),
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AlgSpec, GraphSpec, InputSpec};
    use lcl_faults::{Budget, FaultPlan};
    use lcl_graph::ShardMap;
    use lcl_local::{ids_under, IdAssignment};

    /// Every shard's `init` command for `job` under `plan`, with the ids
    /// permuted and sliced as the coordinator hands them to `init`.
    fn init_commands(
        job: &ProcJob,
        plan: &FaultPlan,
        map: &ShardMap,
        proc: &ProcOptions,
    ) -> Vec<InitCmd> {
        let ids = ids_under(&job.ids, Some(plan));
        let setup = Setup {
            map,
            plan,
            budget: Budget::unlimited(),
            n: job.n_announced.unwrap_or(map.node_count()),
            ids: (0..map.num_shards()).map(|s| &ids[map.range(s)]).collect(),
        };
        (0..map.num_shards())
            .map(|s| init_command(job, &setup, s, proc))
            .collect()
    }

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
