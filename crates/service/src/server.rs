//! The batch classification server: a bounded job queue, a worker pool,
//! and compute-once semantics over the content-addressed
//! [`TowerStore`].
//!
//! A [`ClassifyRequest`] travels one of three paths:
//!
//! 1. **Cache hit** — the problem's canonical fingerprint is already
//!    published in the store *at least as deep as the requested
//!    `steps`*; its in-memory [`TowerSummary`], not the snapshot, answers
//!    on the submitting thread with `cached: true`: no read, parse or queue.
//! 2. **Coalesced** — a structurally identical job is already in flight;
//!    the new subscriber is attached to it and receives the same
//!    progress stream and terminal result. A subscriber asking for more
//!    `steps` than the job was enqueued with raises the job's shared
//!    depth target, so one tower is computed — to the deepest requested
//!    level — no matter how many spellings arrive concurrently.
//! 3. **Miss** — the key is absent, or published shallower than the
//!    request needs. The job enters the bounded queue; a worker drives
//!    the build through [`supervise_tower_from`] (escalating budgets,
//!    panic-isolated steps, deterministic retry backoff), persisting a
//!    [checkpoint](TowerStore::checkpoint) before every `f`-step. The
//!    build resumes from the deepest decodable snapshot for the key —
//!    the crash checkpoint of a killed server, or the published tower a
//!    deepening request extends — instead of starting over; the
//!    finished tower is fingerprint-identical either way.
//!
//! Towers are always built from the problem's
//! [`canonical_text_form`], so every spelling of a structural class
//! yields the same tower bytes — the property that makes cached answers
//! valid for all of them.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use lcl::{canonical_key, canonical_text_form, LclProblem, ParseError};
use lcl_core::{ReOptions, ReTower};
use lcl_faults::Budget;
use lcl_obs::export::prometheus_text;
use lcl_obs::{Counter, Event, EventLog, Registry, Span, Trace};
use lcl_recover::{supervise_tower_from, RetryPolicy};

use crate::protocol::{ClassifyRequest, ClassifyResult, Response, StatsReply};
use crate::store::{TowerStore, TowerSummary};

/// Tuning knobs of a [`ClassifyServer`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs; submissions beyond it are
    /// rejected with [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Engine knobs for every round-elimination step.
    pub re_opts: ReOptions,
    /// Initial per-`f`-step budget; the supervisor escalates it between
    /// retry attempts.
    pub budget: Budget,
    /// Retry policy for supervised steps.
    pub policy: RetryPolicy,
    /// Capacity of the per-job observability event log.
    pub event_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            re_opts: ReOptions::default(),
            budget: Budget::unlimited(),
            policy: RetryPolicy::default(),
            event_capacity: 256,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SubmitError {
    /// The problem text did not parse.
    Problem(ParseError),
    /// The job queue is at capacity; resubmit later.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The server is shutting down.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Problem(e) => write!(f, "problem text did not parse: {e}"),
            SubmitError::QueueFull { capacity } => {
                write!(f, "job queue is full ({capacity} jobs)")
            }
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A deterministic point-in-time view of the server's counters. All
/// counts are since construction; `requests` is the sum of the hit,
/// coalesced, queued, and rejected paths.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServiceStats {
    /// Submissions accepted or queue-rejected (exactly the sum of the
    /// four path counters; parse failures never reach any path and are
    /// not counted).
    pub requests: u64,
    /// Requests answered from the store without any computation.
    pub cache_hits: u64,
    /// Requests attached to an already in-flight identical job.
    pub coalesced: u64,
    /// Jobs a worker actually computed (one per structural class and
    /// requested depth increase).
    pub computed: u64,
    /// Jobs that resumed from an on-disk snapshot (a crash checkpoint
    /// or a published tower being deepened).
    pub resumed: u64,
    /// Submissions rejected because the queue was full.
    pub rejected: u64,
    /// Jobs whose supervisor gave up (partial towers, not published).
    pub gave_up: u64,
}

#[derive(Debug)]
struct Job {
    key: String,
    base: LclProblem,
    /// The deepest `steps` any subscriber has asked this build for;
    /// shared with the inflight entry so coalescing can raise it.
    target: Arc<AtomicU64>,
}

type Subscribers = Vec<(u64, mpsc::Sender<Response>)>;

/// The subscribers of an in-flight build plus its shared depth target.
struct Inflight {
    subs: Subscribers,
    target: Arc<AtomicU64>,
}

/// A live telemetry subscription made with [`ClassifyServer::watch`]:
/// every checkpoint/retry/level-complete event of *any* job streams to
/// it as a [`Response::Progress`] carrying the watcher's own id.
struct Watcher {
    id: u64,
    tx: mpsc::Sender<Response>,
    /// Events still owed before the stream closes; `None` is unlimited.
    /// The subscription ack does not count against this.
    remaining: Option<u64>,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    computed: AtomicU64,
    resumed: AtomicU64,
    rejected: AtomicU64,
    gave_up: AtomicU64,
}

struct Inner {
    store: Arc<TowerStore>,
    config: ServiceConfig,
    queue: Mutex<VecDeque<Job>>,
    not_empty: Condvar,
    inflight: Mutex<HashMap<String, Inflight>>,
    shutdown: AtomicBool,
    counters: Counters,
    /// Per-job spans (steps, retries, checkpoints) backing the `stats`
    /// reply's Prometheus text.
    registry: Registry,
    watchers: Mutex<Vec<Watcher>>,
}

/// The classification server. Construct with [`ClassifyServer::start`],
/// submit jobs with [`ClassifyServer::submit`], and stop it with
/// [`ClassifyServer::shutdown`] (also run on drop).
pub struct ClassifyServer {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl ClassifyServer {
    /// Spawns the worker pool over `store` and returns the running
    /// server.
    pub fn start(store: Arc<TowerStore>, config: ServiceConfig) -> Self {
        let inner = Arc::new(Inner {
            store,
            config,
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            registry: Registry::new(),
            watchers: Mutex::new(Vec::new()),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("classify-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("why: spawning a named thread only fails when out of resources")
            })
            .collect();
        Self { inner, workers }
    }

    /// The store this server publishes into.
    pub fn store(&self) -> &Arc<TowerStore> {
        &self.inner.store
    }

    /// Submits a classification request and returns the stream of
    /// responses for it: zero or more [`Response::Progress`] lines
    /// followed by exactly one terminal [`Response::Result`] or
    /// [`Response::Error`]. The channel disconnects after the terminal
    /// response (or if the server shuts down mid-job).
    ///
    /// # Errors
    ///
    /// [`SubmitError`] when the problem text does not parse, the queue
    /// is full, or the server is shutting down.
    pub fn submit(&self, req: &ClassifyRequest) -> Result<mpsc::Receiver<Response>, SubmitError> {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        // `requests` counts only the four documented outcomes (hit,
        // coalesced, queued, rejected); parse failures never reach any
        // of them.
        let problem = LclProblem::parse(&req.problem).map_err(SubmitError::Problem)?;
        let key = canonical_key(&problem);
        let (tx, rx) = mpsc::channel();
        // The inflight lock is held across the store lookup so a worker
        // finishing the same key cannot publish-and-unregister between
        // our miss and our registration (its publish happens before the
        // unregister, so we either coalesce or hit).
        let mut inflight = lock(&inner.inflight);
        if let Some(entry) = inflight.get_mut(&key) {
            // Raise the shared depth target if this subscriber wants a
            // deeper tower; the worker re-checks it before finishing.
            entry.target.fetch_max(req.steps, Ordering::SeqCst);
            entry.subs.push((req.id, tx));
            inner.counters.requests.fetch_add(1, Ordering::Relaxed);
            inner.counters.coalesced.fetch_add(1, Ordering::Relaxed);
            return Ok(rx);
        }
        // Absent or too shallow: build, resuming from the published
        // snapshot so a deepening job pays only for the missing levels.
        let hit = inner.store.summary(&key);
        if let Some(summary) = hit.filter(|s| s.derived_f >= req.steps) {
            drop(inflight);
            inner.counters.requests.fetch_add(1, Ordering::Relaxed);
            inner.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            let _ = tx.send(Response::Result(ClassifyResult {
                id: req.id,
                fingerprint: key,
                tower_fingerprint: summary.tower_fingerprint,
                levels: summary.levels,
                fixpoint: summary.fixpoint,
                cached: true,
                resumed_from_level: 0,
                gave_up: None,
            }));
            return Ok(rx);
        }
        let mut queue = lock(&inner.queue);
        if queue.len() >= inner.config.queue_capacity {
            inner.counters.requests.fetch_add(1, Ordering::Relaxed);
            inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull {
                capacity: inner.config.queue_capacity,
            });
        }
        let target = Arc::new(AtomicU64::new(req.steps));
        queue.push_back(Job {
            key: key.clone(),
            base: canonical_text_form(&problem),
            target: Arc::clone(&target),
        });
        inflight.insert(
            key,
            Inflight {
                subs: vec![(req.id, tx)],
                target,
            },
        );
        inner.counters.requests.fetch_add(1, Ordering::Relaxed);
        drop(queue);
        drop(inflight);
        inner.not_empty.notify_one();
        Ok(rx)
    }

    /// A point-in-time snapshot of the server's counters.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.inner.counters;
        ServiceStats {
            requests: c.requests.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            coalesced: c.coalesced.load(Ordering::Relaxed),
            computed: c.computed.load(Ordering::Relaxed),
            resumed: c.resumed.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            gave_up: c.gave_up.load(Ordering::Relaxed),
        }
    }

    /// Subscribes to the server's live telemetry stream. The receiver
    /// first sees a `kind: "watch"` acknowledgement, then one
    /// [`Response::Progress`] per checkpoint, retry, or completed
    /// round-elimination level of *any* job, each carrying `id`. A
    /// non-zero `limit` closes the stream after that many events (the
    /// acknowledgement is free); `limit == 0` streams until shutdown.
    pub fn watch(&self, id: u64, limit: u64) -> mpsc::Receiver<Response> {
        let (tx, rx) = mpsc::channel();
        let _ = tx.send(Response::Progress {
            id,
            kind: "watch",
            stage: "subscribed".to_string(),
            detail: limit,
        });
        lock(&self.inner.watchers).push(Watcher {
            id,
            tx,
            remaining: (limit > 0).then_some(limit),
        });
        rx
    }

    /// The wire-ready `stats` reply: the counter snapshot plus the live
    /// watcher count and the Prometheus rendering of every recorded
    /// per-job span.
    pub fn stats_reply(&self, id: u64) -> StatsReply {
        let stats = self.stats();
        StatsReply {
            id,
            requests: stats.requests,
            cache_hits: stats.cache_hits,
            coalesced: stats.coalesced,
            computed: stats.computed,
            resumed: stats.resumed,
            rejected: stats.rejected,
            gave_up: stats.gave_up,
            watchers: lock(&self.inner.watchers).len() as u64,
            prometheus: prometheus_text(&self.inner.registry),
        }
    }

    /// Stops accepting jobs, wakes every worker, and joins the pool.
    /// Queued-but-unstarted jobs are abandoned; their subscribers see
    /// the response channel disconnect.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.not_empty.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        lock(&self.inner.inflight).clear();
        // Dropping the senders disconnects every watch stream.
        lock(&self.inner.watchers).clear();
    }
}

impl Drop for ClassifyServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    mutex
        .lock()
        .expect("why: server internals never panic while holding their locks")
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut queue = lock(&inner.queue);
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = inner
                    .not_empty
                    .wait(queue)
                    .expect("why: server internals never panic while holding their locks");
            }
        };
        run_job(inner, &job);
    }
}

/// Sends `make(subscriber_id)` to every current subscriber of `key`.
fn broadcast(inner: &Inner, key: &str, make: impl Fn(u64) -> Response) {
    let inflight = lock(&inner.inflight);
    if let Some(entry) = inflight.get(key) {
        for (id, tx) in &entry.subs {
            let _ = tx.send(make(*id));
        }
    }
}

/// Fans one telemetry event out to every live watcher, dropping
/// disconnected streams and streams that just spent their last owed
/// event (their sender drop is what closes the receiver).
fn notify_watchers(inner: &Inner, kind: &'static str, stage: &str, detail: u64) {
    lock(&inner.watchers).retain_mut(|w| {
        if w.tx
            .send(Response::Progress {
                id: w.id,
                kind,
                stage: stage.to_string(),
                detail,
            })
            .is_err()
        {
            return false;
        }
        match &mut w.remaining {
            Some(n) => {
                *n -= 1;
                *n > 0
            }
            None => true,
        }
    });
}

/// Removes `key`'s subscribers and sends each its terminal response.
fn finish(inner: &Inner, key: &str, make: impl Fn(u64) -> Response) {
    let subs = lock(&inner.inflight)
        .remove(key)
        .map(|entry| entry.subs)
        .unwrap_or_default();
    for (id, tx) in subs {
        let _ = tx.send(make(id));
    }
}

/// The deepest decodable resume point for `key`: the crash checkpoint
/// of a killed build, or the already-published tower a deepening
/// request extends. `None` means a fresh build (an undecodable
/// snapshot is worth a recompute, not a failure).
fn deepest_resume_point(inner: &Inner, key: &str) -> Option<ReTower> {
    let candidates = [
        inner.store.load_checkpoint(key).ok().flatten(),
        inner.store.get(key).ok().flatten(),
    ];
    let mut best: Option<ReTower> = None;
    for snap in candidates.into_iter().flatten() {
        if let Ok(tower) = ReTower::resume_from(&snap) {
            if best
                .as_ref()
                .is_none_or(|b| tower.level_count() > b.level_count())
            {
                best = Some(tower);
            }
        }
    }
    best
}

fn run_job(inner: &Inner, job: &Job) {
    inner.counters.computed.fetch_add(1, Ordering::Relaxed);
    let mut resumed_from = 0u64;
    let mut tower = match deepest_resume_point(inner, &job.key) {
        Some(tower) => {
            resumed_from = (tower.level_count() - 1) as u64;
            if resumed_from > 0 {
                inner.counters.resumed.fetch_add(1, Ordering::Relaxed);
            }
            tower
        }
        None => ReTower::new(job.base.clone()),
    };
    let mut gave_up: Option<String> = None;
    let mut span = Span::start(format!("classify/{}", job.key));
    loop {
        loop {
            let derived_f = (tower.level_count() - 1) / 2;
            if derived_f >= job.target.load(Ordering::SeqCst) as usize {
                break;
            }
            // Persist before attempting the next f-step: this is the
            // state a restarted server resumes from.
            if let Err(e) = inner.store.checkpoint(&job.key, &tower.snapshot()) {
                finish(inner, &job.key, |id| Response::Error {
                    id,
                    error: format!("checkpoint failed: {e}"),
                });
                return;
            }
            let stage = format!("re-tower/level-{}", tower.level_count());
            broadcast(inner, &job.key, |id| Response::Progress {
                id,
                kind: "checkpoint",
                stage: stage.clone(),
                detail: (tower.level_count() - 1) as u64,
            });
            notify_watchers(
                inner,
                "checkpoint",
                &stage,
                (tower.level_count() - 1) as u64,
            );
            span.add(Counter::Checkpoints, 1);
            // A fresh log per step: the supervisor's ring buffer evicts
            // old events, so replaying with a cursor into a shared log
            // would re-send or drop retries once it wraps. The tower
            // writes its own level-complete events into the same log.
            let log = Arc::new(EventLog::new(inner.config.event_capacity));
            tower.set_event_log(Arc::clone(&log));
            let recovery = supervise_tower_from(
                tower,
                derived_f + 1,
                inner.config.re_opts,
                inner.config.budget,
                inner.config.policy,
                Some(&log),
            );
            tower = recovery.tower;
            tower.clear_event_log();
            for event in log.events() {
                match event {
                    Event::Retry { stage, attempt, .. } => {
                        broadcast(inner, &job.key, |id| Response::Progress {
                            id,
                            kind: "retry",
                            stage: stage.clone(),
                            detail: attempt,
                        });
                        notify_watchers(inner, "retry", &stage, attempt);
                        span.add(Counter::Retries, 1);
                    }
                    Event::LevelComplete { level, labels, .. } => {
                        notify_watchers(
                            inner,
                            "level-complete",
                            &format!("re-tower/level-{level}"),
                            labels,
                        );
                    }
                    _ => {}
                }
            }
            if let Some(err) = recovery.gave_up {
                gave_up = Some(err.to_string());
                break;
            }
        }
        let snap = tower.snapshot();
        let summary = if gave_up.is_none() {
            // Publish, then drop the checkpoint: the order matters — a
            // crash between the two leaves both, and resume is merely
            // redundant.
            match inner.store.put(&job.key, &snap) {
                Ok(summary) => {
                    let _ = inner.store.clear_checkpoint(&job.key);
                    summary
                }
                Err(e) => {
                    finish(inner, &job.key, |id| Response::Error {
                        id,
                        error: format!("publish failed: {e}"),
                    });
                    return;
                }
            }
        } else {
            // Keep the checkpoint: a resubmission with a bigger budget
            // picks up where this attempt stopped.
            inner.counters.gave_up.fetch_add(1, Ordering::Relaxed);
            TowerSummary::of(&snap)
        };
        // Decide the terminal under the inflight lock: a deeper request
        // coalescing at this instant either raised the target before we
        // read it here (we keep building), or arrives after the entry
        // is removed and hits the just-published summary instead.
        let mut inflight = lock(&inner.inflight);
        if gave_up.is_none() && summary.derived_f < job.target.load(Ordering::SeqCst) {
            drop(inflight);
            continue;
        }
        let subs = inflight
            .remove(&job.key)
            .map(|entry| entry.subs)
            .unwrap_or_default();
        drop(inflight);
        span.set(Counter::Steps, summary.derived_f);
        inner
            .registry
            .record("classify-job", Trace::new(span.finish()));
        let template = ClassifyResult {
            id: 0,
            fingerprint: job.key.clone(),
            tower_fingerprint: summary.tower_fingerprint,
            levels: summary.levels,
            fixpoint: summary.fixpoint,
            cached: false,
            resumed_from_level: resumed_from,
            gave_up,
        };
        for (id, tx) in subs {
            let _ = tx.send(Response::Result(ClassifyResult {
                id,
                ..template.clone()
            }));
        }
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_problems::catalog::{sinkless_orientation, two_coloring};
    use std::path::PathBuf;

    fn tmp_store(tag: &str) -> (Arc<TowerStore>, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("lcl-service-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (Arc::new(TowerStore::open(&dir).unwrap()), dir)
    }

    fn request(id: u64, problem: &LclProblem, steps: u64) -> ClassifyRequest {
        ClassifyRequest {
            id,
            problem: problem.to_text(),
            steps,
        }
    }

    fn terminal(rx: &mpsc::Receiver<Response>) -> Response {
        let mut last = None;
        for resp in rx.iter() {
            let is_terminal = !matches!(resp, Response::Progress { .. });
            last = Some(resp);
            if is_terminal {
                break;
            }
        }
        last.expect("a terminal response must arrive")
    }

    #[test]
    fn a_miss_computes_and_a_permuted_resubmission_hits() {
        let (store, dir) = tmp_store("hit");
        let server = ClassifyServer::start(store, ServiceConfig::default());
        let p = sinkless_orientation(3);
        let rx = server.submit(&request(1, &p, 2)).unwrap();
        let first = match terminal(&rx) {
            Response::Result(r) => r,
            other => panic!("expected a result, got {other:?}"),
        };
        assert!(!first.cached);
        assert_eq!(first.levels, 5);
        assert!(first.gave_up.is_none());

        // The same structural problem under permuted labels is a hit.
        let twin = lcl::relabeled(&p, &[1, 0]);
        assert_ne!(twin.to_text(), p.to_text());
        let rx = server.submit(&request(2, &twin, 2)).unwrap();
        let second = match terminal(&rx) {
            Response::Result(r) => r,
            other => panic!("expected a result, got {other:?}"),
        };
        assert!(second.cached);
        assert_eq!(second.id, 2);
        assert_eq!(second.fingerprint, first.fingerprint);
        assert_eq!(second.tower_fingerprint, first.tower_fingerprint);
        let stats = server.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.computed, 1);
        assert_eq!(stats.cache_hits, 1);
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_identical_submissions_compute_once() {
        let (store, dir) = tmp_store("coalesce");
        // One worker: submissions made while the queue is stalled by an
        // earlier job all land before their job starts, so every
        // duplicate must coalesce.
        let server = ClassifyServer::start(
            store,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let p = sinkless_orientation(3);
        let orders: [&[u32]; 3] = [&[0, 1], &[1, 0], &[0, 1]];
        let receivers: Vec<_> = orders
            .iter()
            .enumerate()
            .map(|(i, order)| {
                let spelling = lcl::relabeled(&p, order);
                server.submit(&request(i as u64, &spelling, 2)).unwrap()
            })
            .collect();
        let mut fingerprints = Vec::new();
        for (i, rx) in receivers.iter().enumerate() {
            match terminal(rx) {
                Response::Result(r) => {
                    assert_eq!(r.id, i as u64);
                    fingerprints.push(r.tower_fingerprint);
                }
                other => panic!("expected a result, got {other:?}"),
            }
        }
        assert!(fingerprints.windows(2).all(|w| w[0] == w[1]));
        let stats = server.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(
            stats.computed, 1,
            "three spellings of one class must compute once"
        );
        assert_eq!(stats.cache_hits + stats.coalesced, 2);
        assert_eq!(server.store().len(), 1);
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_deeper_request_rebuilds_a_shallower_published_tower() {
        let (store, dir) = tmp_store("deepen");
        let server = ClassifyServer::start(store, ServiceConfig::default());
        let p = sinkless_orientation(3);
        let key = canonical_key(&p);
        let rx = server.submit(&request(1, &p, 1)).unwrap();
        let shallow = match terminal(&rx) {
            Response::Result(r) => r,
            other => panic!("expected a result, got {other:?}"),
        };
        assert!(!shallow.cached);
        assert_eq!(shallow.levels, 3);
        assert_eq!(server.store().summary(&key).unwrap().derived_f, 1);

        // A deeper request must not be capped by the 1-step entry: it
        // deepens the published tower instead of echoing it.
        let rx = server.submit(&request(2, &p, 2)).unwrap();
        let deep = match terminal(&rx) {
            Response::Result(r) => r,
            other => panic!("expected a result, got {other:?}"),
        };
        assert!(!deep.cached);
        assert_eq!(deep.levels, 5);
        assert_eq!(
            deep.resumed_from_level, 2,
            "deepening resumes from the published snapshot"
        );
        // The publish replaced the summary: no stale depth-1 summary is
        // left to serve a shallower tower.
        let summary = server.store().summary(&key).unwrap();
        assert_eq!(summary.derived_f, 2);
        assert_eq!(summary.tower_fingerprint, deep.tower_fingerprint);

        // A shallow request is now served the deeper tower from cache.
        let rx = server.submit(&request(3, &p, 1)).unwrap();
        let hit = match terminal(&rx) {
            Response::Result(r) => r,
            other => panic!("expected a result, got {other:?}"),
        };
        assert!(hit.cached);
        assert_eq!(hit.levels, 5);
        let stats = server.stats();
        assert_eq!(stats.computed, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.resumed, 1);
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_tampered_entry_keeps_hitting_but_fails_resume_and_reopen() {
        let (store, dir) = tmp_store("tamper");
        let server = ClassifyServer::start(Arc::clone(&store), ServiceConfig::default());
        let p = sinkless_orientation(3);
        let key = canonical_key(&p);
        let built = match terminal(&server.submit(&request(1, &p, 1)).unwrap()) {
            Response::Result(r) => r,
            other => panic!("expected a result, got {other:?}"),
        };
        // Another writer overwrites the published entry behind the store.
        std::fs::write(dir.join(format!("{key}.tower.json")), "garbage").unwrap();

        // Hits answer from the summary admitted at publish time.
        let hit = match terminal(&server.submit(&request(2, &p, 1)).unwrap()) {
            Response::Result(r) => r,
            other => panic!("expected a result, got {other:?}"),
        };
        assert!(hit.cached);
        assert_eq!(hit.tower_fingerprint, built.tower_fingerprint);
        assert_eq!(hit.levels, built.levels);
        // The resume path reads the file and sees the corruption.
        assert!(matches!(
            store.get(&key),
            Err(crate::store::StoreError::Corrupt { .. })
        ));
        server.shutdown();
        drop(store);
        // The next open quarantines the entry: left on disk, not served.
        let reopened = TowerStore::open(&dir).unwrap();
        assert_eq!(reopened.summary(&key), None);
        assert!(dir.join(format!("{key}.tower.json")).exists());
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn coalesced_deeper_requests_raise_the_build_target() {
        let (store, dir) = tmp_store("deep-coalesce");
        let server = ClassifyServer::start(
            store,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        // Stall the single worker with an unrelated job so both
        // submissions below land before their job starts.
        let blocker = two_coloring(3);
        let p = sinkless_orientation(3);
        let rx_blocker = server.submit(&request(0, &blocker, 1)).unwrap();
        let rx_shallow = server.submit(&request(1, &p, 1)).unwrap();
        let rx_deep = server.submit(&request(2, &p, 2)).unwrap();
        let _ = terminal(&rx_blocker);
        // The coalesced steps=2 subscriber raised the job's target, so
        // one build runs to depth 2 and both subscribers see it.
        for (rx, id) in [(&rx_shallow, 1u64), (&rx_deep, 2u64)] {
            match terminal(rx) {
                Response::Result(r) => {
                    assert_eq!(r.id, id);
                    assert!(!r.cached);
                    assert_eq!(r.levels, 5, "the raised target governs the build");
                }
                other => panic!("expected a result, got {other:?}"),
            }
        }
        let stats = server.stats();
        assert_eq!(stats.computed, 2, "the blocker plus one coalesced build");
        assert_eq!(stats.coalesced, 1);
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn killed_mid_job_resumes_from_the_checkpoint_to_an_identical_tower() {
        let (store, dir) = tmp_store("resume");
        let p = sinkless_orientation(3);
        let key = canonical_key(&p);

        // Reference: an uninterrupted two-step build.
        let reference = {
            let server = ClassifyServer::start(Arc::clone(&store), ServiceConfig::default());
            let rx = server.submit(&request(1, &p, 2)).unwrap();
            let r = match terminal(&rx) {
                Response::Result(r) => r,
                other => panic!("expected a result, got {other:?}"),
            };
            server.shutdown();
            r.tower_fingerprint
        };

        // "Kill the server mid-job": plant the one-f-step checkpoint a
        // dying worker would have left behind, with no published entry.
        let canonical = canonical_text_form(&p);
        let mut partial = ReTower::new(canonical);
        partial.push_f(ReOptions::default()).unwrap();
        let dir2 = dir.with_file_name(format!("lcl-service-server-resume2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir2);
        let store2 = Arc::new(TowerStore::open(&dir2).unwrap());
        store2.checkpoint(&key, &partial.snapshot()).unwrap();

        // A restarted server must resume from level 2, not recompute.
        let server = ClassifyServer::start(Arc::clone(&store2), ServiceConfig::default());
        let rx = server.submit(&request(9, &p, 2)).unwrap();
        let resumed = match terminal(&rx) {
            Response::Result(r) => r,
            other => panic!("expected a result, got {other:?}"),
        };
        assert_eq!(resumed.resumed_from_level, 2);
        assert_eq!(resumed.tower_fingerprint, reference);
        assert_eq!(server.stats().resumed, 1);
        // The checkpoint is gone once the tower is published.
        assert_eq!(store2.load_checkpoint(&key).unwrap(), None);
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn unparseable_problems_and_full_queues_are_typed_errors() {
        let (store, dir) = tmp_store("errors");
        let server = ClassifyServer::start(
            store,
            ServiceConfig {
                workers: 1,
                queue_capacity: 1,
                ..ServiceConfig::default()
            },
        );
        let bad = ClassifyRequest {
            id: 1,
            problem: "this is not an LCL".to_string(),
            steps: 1,
        };
        assert!(matches!(server.submit(&bad), Err(SubmitError::Problem(_))));
        assert_eq!(
            server.stats().requests,
            0,
            "a parse failure reaches none of the four request paths"
        );
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_gave_up_job_reports_partial_and_keeps_its_checkpoint() {
        let (store, dir) = tmp_store("partial");
        let server = ClassifyServer::start(
            Arc::clone(&store),
            ServiceConfig {
                // A one-round cap that never escalates cannot finish any
                // f-step.
                budget: Budget::unlimited().with_max_rounds(1),
                policy: RetryPolicy {
                    max_attempts: 2,
                    escalation: 1,
                    ..RetryPolicy::default()
                },
                ..ServiceConfig::default()
            },
        );
        let p = sinkless_orientation(3);
        let key = canonical_key(&p);
        let rx = server.submit(&request(1, &p, 1)).unwrap();
        let result = match terminal(&rx) {
            Response::Result(r) => r,
            other => panic!("expected a result, got {other:?}"),
        };
        assert!(result.gave_up.is_some());
        // Partial towers are never published, but the checkpoint stays
        // for a future resubmission.
        assert_eq!(store.summary(&key), None);
        assert!(store.load_checkpoint(&key).unwrap().is_some());
        assert_eq!(server.stats().gave_up, 1);
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watchers_stream_job_telemetry_until_their_limit() {
        let (store, dir) = tmp_store("watch");
        let server = ClassifyServer::start(store, ServiceConfig::default());
        let unlimited = server.watch(7, 0);
        let capped = server.watch(8, 1);
        let p = sinkless_orientation(3);
        let rx = server.submit(&request(1, &p, 1)).unwrap();
        let _ = terminal(&rx);

        // Every telemetry event is fanned out before the worker sends
        // the terminal result, so by now the streams are complete.
        let events: Vec<Response> = unlimited.try_iter().collect();
        match &events[0] {
            Response::Progress {
                id: 7,
                kind: "watch",
                stage,
                detail: 0,
            } if stage == "subscribed" => {}
            other => panic!("expected the subscription ack first, got {other:?}"),
        }
        let kinds: Vec<&str> = events
            .iter()
            .map(|e| match e {
                Response::Progress { kind, .. } => *kind,
                other => panic!("watch streams only progress lines, got {other:?}"),
            })
            .collect();
        assert!(kinds.contains(&"checkpoint"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"level-complete"), "kinds: {kinds:?}");

        // The capped stream owes exactly one event after its ack; its
        // sender is then dropped, so iterating terminates.
        let capped_events: Vec<Response> = capped.iter().collect();
        assert_eq!(
            capped_events.len(),
            2,
            "ack plus exactly one event: {capped_events:?}"
        );
        assert!(matches!(capped_events[1], Response::Progress { id: 8, .. }));
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_stats_reply_carries_counters_watchers_and_prometheus_text() {
        let (store, dir) = tmp_store("stats-reply");
        let server = ClassifyServer::start(store, ServiceConfig::default());
        let p = two_coloring(3);
        let rx = server.submit(&request(1, &p, 1)).unwrap();
        let _ = terminal(&rx);
        let _watch = server.watch(2, 0);
        let reply = server.stats_reply(9);
        assert_eq!(reply.id, 9);
        assert_eq!(reply.requests, 1);
        assert_eq!(reply.computed, 1);
        assert_eq!(reply.watchers, 1);
        assert!(
            reply.prometheus.contains("classify-job"),
            "the job span must be rendered: {}",
            reply.prometheus
        );
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
