//! The classification-service workload, `classify-mix`.
//!
//! Set-up generates a seeded pool of random Δ=2 problems, builds a
//! reference tower for each, and publishes part of the pool into a
//! template store. A job serves one fixed request mix against a fresh
//! store linked from that template: a `ClassifyServer` behind
//! `serve_unix`, with 2 workers on the sequential RE engine, driven by
//! 2 closed-loop client connections (each sends its next line only
//! after the previous one's terminal response). The mix holds
//!
//! - respellings of published classes (store hits),
//! - novel classes at steps 1–2 (misses, which build and publish), and
//! - respellings of novel classes sent right after their original on
//!   the other connection (coalesced while in flight, or hits after).
//!
//! A job runs from the first line sent to the last response read. The
//! replay of a traced job repeats the service's layer calls on the same
//! inputs: request parsing, store reads of the hits, and, on a scratch
//! store, each miss's checkpoints, f-steps, and publish.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use lcl::{canonical_key, canonical_text_form, relabeled, LclProblem, OutLabel};
use lcl_core::{ReOptions, ReTower, TowerSnapshot};
use lcl_rng::SmallRng;
use lcl_service::{
    encode_request, encode_response, parse_request, parse_response, serve_unix, ClassifyRequest,
    ClassifyResult, ClassifyServer, Response, ServiceConfig, ServiceStats, TowerStore,
};

use crate::metrics::Samples;
use crate::trace::Tracer;
use crate::{shuffle, Config, Load, Pass};

/// Client connections, and service worker threads (each running the
/// sequential RE engine).
const CONNECTIONS: usize = 2;
/// The deepest tower any request asks for; published towers have it.
const MAX_STEPS: u64 = 2;
/// Per-level label cap for pool problems, so every build stays small
/// and no request gives up.
const LABEL_CAP: usize = 16;
/// How long a client waits for one response before counting it failed.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Pool and mix sizes. Every publish and checkpoint waits for an fsync,
/// whose latency on the measuring host changed by 2–5x between
/// minutes-long phases while CPU-bound work did not; so fsyncs are kept
/// a small share of set-up and job time. Set-up publishes 16 classes,
/// and a job's 8 novel classes and their 8 respellings are 16 of 1024
/// requests, which also keeps `req_p90_ms` among the hits. Miss latency
/// is the per-layer `service.miss_p50_ms`.
struct Sizes {
    published: usize,
    hits: usize,
    novel: usize,
}

impl Sizes {
    fn of(cfg: &Config) -> Self {
        if cfg.tiny {
            Sizes {
                published: 6,
                hits: 6,
                novel: 4,
            }
        } else {
            Sizes {
                published: 16,
                hits: 1008,
                novel: 8,
            }
        }
    }
}

/// One structural class of the pool.
struct Class {
    problem: LclProblem,
    key: String,
    /// Depth requests for this class ask for.
    steps: u64,
    /// Reference `tower_fingerprint` every answer must carry.
    fingerprint: String,
}

/// One request line of the mix.
struct Line {
    class: usize,
    text: String,
}

/// The prepared workload.
struct Case {
    root: PathBuf,
    template: PathBuf,
    /// Published classes first, then novel ones.
    classes: Vec<Class>,
    published: usize,
    /// Request lines per connection, in send order.
    lines: Vec<Vec<Line>>,
}

/// One seeded random Δ=2 problem over `s` output labels: nonempty
/// degree-1 and degree-2 configuration sets, a nonempty edge set, and
/// one input admitting every output.
fn random_problem(i: usize, s: usize, rng: &mut SmallRng) -> LclProblem {
    let mut pick = |universe: Vec<Vec<OutLabel>>| -> BTreeSet<Vec<OutLabel>> {
        let mut chosen: BTreeSet<Vec<OutLabel>> = universe
            .iter()
            .filter(|_| rng.next_u64().is_multiple_of(2))
            .cloned()
            .collect();
        if chosen.is_empty() {
            chosen.insert(universe[(rng.next_u64() % universe.len() as u64) as usize].clone());
        }
        chosen
    };
    let singletons: Vec<Vec<OutLabel>> = (0..s).map(|a| vec![OutLabel(a as u32)]).collect();
    let pairs: Vec<Vec<OutLabel>> = (0..s)
        .flat_map(|a| (a..s).map(move |b| vec![OutLabel(a as u32), OutLabel(b as u32)]))
        .collect();
    let d1 = pick(singletons);
    let d2 = pick(pairs.clone());
    let edges = pick(pairs).into_iter().map(|p| (p[0], p[1])).collect();
    lcl::problem::from_parts(
        format!("mix-{i}"),
        2,
        lcl::Alphabet::numbered("I", 1),
        lcl::Alphabet::numbered("L", s),
        vec![BTreeSet::new(), d1, d2],
        edges,
        vec![(0..s).map(|a| OutLabel(a as u32)).collect()],
    )
}

/// A seeded respelling of `p`: the same class under permuted labels.
fn respelled(p: &LclProblem, rng: &mut SmallRng) -> LclProblem {
    let mut order: Vec<u32> = (0..p.output_alphabet().len() as u32).collect();
    shuffle(&mut order, rng);
    relabeled(p, &order)
}

/// The engine options the service runs with: one engine thread per
/// service worker, so the load stays at 2 threads (the default fans each
/// f-step out over all cores). Results are the same either way.
fn engine() -> ReOptions {
    ReOptions {
        parallel: false,
        ..ReOptions::default()
    }
}

/// Builds the tower the service would build for `p` at `steps`, or
/// `None` when a step fails or a level exceeds [`LABEL_CAP`]. The cap is
/// also handed to the engine, so an oversized candidate fails fast; a
/// build that stays under it never meets the cap and equals the
/// service's uncapped build (each answer's fingerprint is checked
/// against it).
fn build_tower(p: &LclProblem, steps: u64) -> Option<ReTower> {
    let opts = ReOptions {
        max_labels: LABEL_CAP,
        ..engine()
    };
    let mut tower = ReTower::new(canonical_text_form(p));
    for _ in 0..steps {
        tower.push_f(opts).ok()?;
    }
    tower
        .stats()
        .iter()
        .all(|level| level.labels <= LABEL_CAP)
        .then_some(tower)
}

/// Generates the pool: `published` classes at [`MAX_STEPS`] (published
/// into `template`), then `novel` classes alternating steps 1 and 2.
fn pool(sizes: &Sizes, template: &Path, rng: &mut SmallRng) -> Result<Vec<Class>, String> {
    let store = TowerStore::open(template).map_err(|e| format!("template store: {e}"))?;
    let mut classes: Vec<Class> = Vec::new();
    let mut seen = BTreeSet::new();
    let wanted = sizes.published + sizes.novel;
    let mut tries = 0usize;
    while classes.len() < wanted {
        tries += 1;
        if tries > 100 * wanted {
            return Err(format!("found only {} buildable classes", classes.len()));
        }
        let s = 2 + (rng.next_u64() % 2) as usize;
        let Ok(problem) = LclProblem::parse(&random_problem(tries, s, rng).to_text()) else {
            continue;
        };
        let key = canonical_key(&problem);
        if !seen.insert(key.clone()) {
            continue;
        }
        let steps = if classes.len() < sizes.published {
            MAX_STEPS
        } else {
            1 + (classes.len() - sizes.published) as u64 % MAX_STEPS
        };
        let Some(tower) = build_tower(&problem, steps) else {
            continue;
        };
        if classes.len() < sizes.published {
            store
                .put(&key, &tower.snapshot())
                .map_err(|e| format!("publish: {e}"))?;
        }
        classes.push(Class {
            problem,
            key,
            steps,
            fingerprint: tower.fingerprint(),
        });
    }
    Ok(classes)
}

/// The request mix: `hits` respellings of published classes, and each
/// novel class followed by one respelling. Units are shuffled, then
/// dealt to the connections in turn, so a respelling goes out on the
/// other connection right after its original.
fn mix(sizes: &Sizes, classes: &[Class], rng: &mut SmallRng) -> Vec<Vec<Line>> {
    let mut units: Vec<Vec<(usize, LclProblem)>> = Vec::new();
    for _ in 0..sizes.hits {
        let c = (rng.next_u64() % sizes.published as u64) as usize;
        units.push(vec![(c, respelled(&classes[c].problem, rng))]);
    }
    for (c, class) in classes.iter().enumerate().skip(sizes.published) {
        let twin = respelled(&class.problem, rng);
        units.push(vec![(c, class.problem.clone()), (c, twin)]);
    }
    shuffle(&mut units, rng);
    let mut lines: Vec<Vec<Line>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
    for (i, (class, problem)) in units.into_iter().flatten().enumerate() {
        let text = encode_request(&ClassifyRequest {
            id: i as u64,
            problem: problem.to_text(),
            steps: classes[class].steps,
        });
        lines[i % CONNECTIONS].push(Line { class, text });
    }
    lines
}

/// A running server on a fresh store linked from the template.
struct Served {
    server: Arc<ClassifyServer>,
    store: Arc<TowerStore>,
    socket: PathBuf,
    waker: UnixListener,
    acceptor: std::thread::JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
}

/// Links every file of `from` into a new directory `to`. The store
/// never writes a published file in place (it writes a temp file and
/// renames it over), so a linked copy is as fresh as a real one and
/// costs no data writes.
fn link_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::hard_link(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Links the template store into `dir`, opens it, and serves it on a
/// Unix socket next to it.
fn start(case: &Case, dir: PathBuf, queue: usize) -> Result<Served, String> {
    let _ = std::fs::remove_dir_all(&dir);
    link_dir(&case.template, &dir).map_err(|e| format!("link store: {e}"))?;
    let store = Arc::new(TowerStore::open(&dir).map_err(|e| format!("open store: {e}"))?);
    let server = Arc::new(ClassifyServer::start(
        Arc::clone(&store),
        ServiceConfig {
            workers: CONNECTIONS,
            queue_capacity: queue,
            re_opts: engine(),
            ..ServiceConfig::default()
        },
    ));
    let socket = dir.with_extension("sock");
    let _ = std::fs::remove_file(&socket);
    let listener = UnixListener::bind(&socket).map_err(|e| format!("bind: {e}"))?;
    let waker = listener.try_clone().map_err(|e| format!("listener: {e}"))?;
    let acceptor = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || serve_unix(listener, server))
    };
    Ok(Served {
        server,
        store,
        socket,
        waker,
        acceptor,
        dir,
    })
}

impl Served {
    /// Stops accepting, waits for every connection thread to let go of
    /// the server, and shuts it down. Returns the server's final
    /// counters. The store stays on disk until the run ends: freeing
    /// blocks while jobs run slows every later fsync on a disk mounted
    /// with online discard (measured: an emulated store churn with
    /// deletes doubled its fsync latency within 150 s; without deletes
    /// it held steady).
    fn stop(self) -> ServiceStats {
        // The listener's non-blocking flag is shared with the acceptor's
        // copy: after one wake-up connection, its next accept fails and
        // `serve_unix` returns.
        let _ = self.waker.set_nonblocking(true);
        drop(UnixStream::connect(&self.socket));
        let _ = self.acceptor.join();
        let deadline = Instant::now() + READ_TIMEOUT;
        while Arc::strong_count(&self.server) > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = self.server.stats();
        drop(self.server);
        drop(self.store);
        let _ = std::fs::remove_file(&self.socket);
        stats
    }
}

fn setup(cfg: &Config) -> Result<Case, String> {
    let sizes = Sizes::of(cfg);
    let root = cfg
        .work_dir
        .join(format!("classify-{}", std::process::id()));
    let template = root.join("template");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("work dir: {e}"))?;
    let classes = pool(&sizes, &template, &mut cfg.rng(4))?;
    let lines = mix(&sizes, &classes, &mut cfg.rng(3));
    let case = Case {
        root,
        template,
        classes,
        published: sizes.published,
        lines,
    };
    // Server start is part of set-up: every job pays it once, untimed.
    start(&case, case.root.join("setup"), 1)?.stop();
    Ok(case)
}

/// What one request got back.
struct Answer {
    class: usize,
    /// Send time, relative to the job's start.
    sent: f64,
    latency: f64,
    result: Result<ClassifyResult, String>,
}

/// Reads response lines until the terminal one, which must be a result.
fn read_terminal(reader: &mut impl BufRead) -> Result<ClassifyResult, String> {
    let mut buf = String::new();
    loop {
        buf.clear();
        match reader.read_line(&mut buf) {
            Ok(0) => return Err("connection closed before a terminal response".to_string()),
            Err(e) => return Err(format!("read: {e}")),
            Ok(_) => {}
        }
        match parse_response(buf.trim_end()) {
            Ok(Response::Progress { .. }) => {}
            Ok(Response::Result(r)) => return Ok(r),
            Ok(other) => return Err(format!("terminal line is not a result: {other:?}")),
            Err(e) => return Err(format!("unparseable response: {e}")),
        }
    }
}

/// One closed-loop client: sends each line after the previous line's
/// terminal response.
fn client(
    socket: &Path,
    lines: &[Line],
    gate: &Barrier,
    t0: &std::sync::OnceLock<Instant>,
) -> Vec<Answer> {
    let failed_all = |why: String| -> Vec<Answer> {
        lines
            .iter()
            .map(|l| Answer {
                class: l.class,
                sent: 0.0,
                latency: 0.0,
                result: Err(why.clone()),
            })
            .collect()
    };
    let stream = UnixStream::connect(socket).and_then(|s| {
        s.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(s)
    });
    gate.wait();
    let mut writer = match stream {
        Ok(stream) => stream,
        Err(e) => return failed_all(format!("connect: {e}")),
    };
    let mut reader = match writer.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(e) => return failed_all(format!("socket: {e}")),
    };
    let start = *t0.get_or_init(Instant::now);
    let mut answers = Vec::with_capacity(lines.len());
    for line in lines {
        let sent = Instant::now();
        let result = match writeln!(writer, "{}", line.text) {
            Ok(()) => read_terminal(&mut reader),
            Err(e) => Err(format!("send: {e}")),
        };
        let failed = result.is_err();
        answers.push(Answer {
            class: line.class,
            sent: sent.duration_since(start).as_secs_f64(),
            latency: sent.elapsed().as_secs_f64(),
            result,
        });
        if failed {
            break;
        }
    }
    // A connection that broke leaves its remaining lines unanswered.
    for line in &lines[answers.len()..] {
        answers.push(Answer {
            class: line.class,
            sent: 0.0,
            latency: 0.0,
            result: Err("not sent: the connection broke".to_string()),
        });
    }
    answers
}

/// Runs one job on `served`; returns the answers and the job's wall
/// time.
fn serve_mix(case: &Case, served: &Served) -> (Vec<Answer>, f64) {
    let gate = Barrier::new(CONNECTIONS);
    let t0 = std::sync::OnceLock::new();
    let answers: Vec<Answer> = std::thread::scope(|scope| {
        let handles: Vec<_> = case
            .lines
            .iter()
            .map(|lines| scope.spawn(|| client(&served.socket, lines, &gate, &t0)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("why: client threads do not panic"))
            .collect()
    });
    let wall = t0.get().map_or(0.0, |t| t.elapsed().as_secs_f64());
    (answers, wall)
}

/// Splits the answered latencies into store-or-coalesced hits and
/// tower-building misses. The build of a novel class is attributed to
/// its first-sent uncached request; the server decides that race under
/// its in-flight lock, so rare near-ties may be swapped.
fn split_latencies(answers: &[Answer]) -> (Vec<f64>, Vec<f64>) {
    let mut first_sent: std::collections::BTreeMap<usize, (f64, usize)> = Default::default();
    for (i, a) in answers.iter().enumerate() {
        if let Ok(r) = &a.result {
            if !r.cached {
                let entry = first_sent.entry(a.class).or_insert((a.sent, i));
                if a.sent < entry.0 {
                    *entry = (a.sent, i);
                }
            }
        }
    }
    let builders: BTreeSet<usize> = first_sent.values().map(|&(_, i)| i).collect();
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    for (i, a) in answers.iter().enumerate() {
        if a.result.is_ok() {
            if builders.contains(&i) {
                misses.push(a.latency);
            } else {
                hits.push(a.latency);
            }
        }
    }
    (hits, misses)
}

/// What the replay of a traced job needs once its server has stopped.
struct Finished {
    /// The job's store, still open.
    store: Arc<TowerStore>,
    dir: PathBuf,
    answers: Vec<Answer>,
    span: crate::trace::SpanId,
}

/// Replays the service's layer calls for one finished job.
fn replay(tracer: &Tracer, case: &Case, job: &Finished, samples: &mut Samples) {
    let Finished {
        store,
        dir,
        answers,
        span,
    } = job;
    let span = *span;
    let root = tracer.open("replay", span);
    let (_, parse_s) = tracer.time("service.parse", root, |_| {
        for line in case.lines.iter().flatten() {
            let parsed = parse_request(&line.text)
                .ok()
                .and_then(|req| LclProblem::parse(&req.problem).ok());
            std::hint::black_box(parsed.map(|p| canonical_key(&p)));
        }
    });
    let (_, get_s) = tracer.time("service.store_get", root, |_| {
        for a in answers {
            if let Ok(r) = &a.result {
                if r.cached {
                    std::hint::black_box(store.get(&r.fingerprint).is_ok());
                }
            }
        }
    });
    let (_, encode_s) = tracer.time("service.encode", root, |_| {
        for a in answers {
            if let Ok(r) = &a.result {
                std::hint::black_box(encode_response(&Response::Result(r.clone())));
            }
        }
    });

    let scratch_dir = dir.with_extension("replay");
    let (mut fstep_s, mut checkpoint_s, mut put_s) = (0.0, 0.0, 0.0);
    let (mut labels, mut snapshot_bytes) = (0usize, 0usize);
    if let Ok(scratch) = TowerStore::open(&scratch_dir) {
        for class in &case.classes[case.published..] {
            let mut tower = ReTower::new(canonical_text_form(&class.problem));
            for _ in 0..class.steps {
                checkpoint_s += tracer
                    .time("service.checkpoint", root, |_| {
                        scratch.checkpoint(&class.key, &tower.snapshot()).is_ok()
                    })
                    .1;
                fstep_s += tracer
                    .time("core.fstep", root, |_| tower.push_f(engine()).is_ok())
                    .1;
            }
            labels += tower
                .stats()
                .iter()
                .map(|level| level.labels)
                .sum::<usize>();
            let snap: TowerSnapshot = tower.snapshot();
            snapshot_bytes += snap.to_json().len();
            put_s += tracer
                .time("service.store_put", root, |_| {
                    scratch.put(&class.key, &snap).is_ok()
                })
                .1;
            let _ = scratch.clear_checkpoint(&class.key);
        }
    }
    tracer.close(root);

    samples.layer("service.parse_s", parse_s);
    samples.layer("service.store_get_s", get_s);
    samples.layer("service.encode_s", encode_s);
    samples.layer("service.checkpoint_s", checkpoint_s);
    samples.layer("service.store_put_s", put_s);
    samples.layer("core.fstep_s", fstep_s);
    samples.layer("core.labels", labels as f64);
    samples.layer("service.snapshot_bytes", snapshot_bytes as f64);
}

/// Runs `classify-mix`.
pub fn run(cfg: &Config, tracer: &Tracer) -> Result<(Samples, Load), String> {
    let mut samples = Samples::default();
    let case = cfg.setup(&mut samples, || setup(cfg))?;
    let requests: usize = case.lines.iter().map(Vec::len).sum();
    let novel = (case.classes.len() - case.published) as u64;
    let duplicates = requests as u64 - novel;
    let quiet = Tracer::new(false);
    let mut pending: Option<Finished> = None;
    cfg.measure(0, |k, pass| {
        if pass == Pass::Replay {
            if let Some(job) = pending.take() {
                replay(tracer, &case, &job, &mut samples);
            }
            return;
        }
        let traced = pass == Pass::Traced;
        let tr = if traced { tracer } else { &quiet };
        let served = match start(&case, case.root.join(format!("job-{k}")), requests) {
            Ok(served) => served,
            Err(e) => return samples.outcome(Some(format!("job {k}: server start: {e}"))),
        };
        let span = tr.open(format!("job/{k}"), None);
        let (answers, job_s) = serve_mix(&case, &served);
        tr.close(span);

        for a in &answers {
            samples.requests.push(a.latency);
            let failure = match &a.result {
                Err(e) => Some(e.clone()),
                Ok(r) if r.gave_up.is_some() => Some(format!("class {} gave up", a.class)),
                Ok(r) if r.tower_fingerprint != case.classes[a.class].fingerprint => Some(format!(
                    "class {} answered with tower {} instead of {}",
                    a.class, r.tower_fingerprint, case.classes[a.class].fingerprint
                )),
                Ok(_) => None,
            };
            samples.outcome(failure);
        }
        let (hits, misses) = split_latencies(&answers);
        for latency in hits {
            samples.layer("service.hit_p50_ms", latency * 1e3);
        }
        for latency in misses {
            samples.layer("service.miss_p50_ms", latency * 1e3);
        }
        let store = Arc::clone(&served.store);
        let dir = served.dir.clone();
        let stats = served.stop();
        let served_without_build = stats.cache_hits + stats.coalesced;
        if stats.computed != novel
            || served_without_build != duplicates
            || stats.rejected + stats.gave_up > 0
        {
            samples.outcome(Some(format!(
                "job {k}: computed {} of {novel} novel classes, served {served_without_build} of \
                 {duplicates} duplicates without a build, {} rejected, {} gave up",
                stats.computed, stats.rejected, stats.gave_up
            )));
        }
        pass.record(&mut samples, job_s);
        if traced {
            samples.layer("service.cache_hits", stats.cache_hits as f64);
            samples.layer("service.coalesced", stats.coalesced as f64);
            samples.layer("service.computed", stats.computed as f64);
            samples.layer("service.rejected", stats.rejected as f64);
            samples.layer("service.gave_up", stats.gave_up as f64);
            samples.layer(
                "service.dedup_ratio",
                served_without_build as f64 / stats.requests.max(1) as f64,
            );
            pending = Some(Finished {
                store,
                dir,
                answers,
                span,
            });
        }
    });
    let _ = std::fs::remove_dir_all(&case.root);
    Ok((
        samples,
        Load {
            workers: CONNECTIONS,
            threads: CONNECTIONS,
            connections: CONNECTIONS,
        },
    ))
}
