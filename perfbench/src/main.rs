//! End-to-end benchmark of the LCL landscape pipeline.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--tiny] [--work-dir <dir>]
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! - `proc-path` — `run_proc_sharded`, guarded flooding on a 10⁶-node
//!   path, 2 worker processes; output equals an in-process reference.
//! - `proc-tree` — `run_proc_sharded`, the synthesized anti-matching
//!   algorithm on a seeded random tree, 2 worker processes; output
//!   certifies and equals the unsharded reference.
//! - `local-tree` — in-process `simulate_sharded_with` of the same
//!   algorithm on a complete binary tree, 2 shards on 2 runner threads.
//! - `classify-mix` — a `ClassifyServer` behind `serve_unix` with 2
//!   closed-loop client connections: store hits, novel builds, and
//!   coalesced duplicates.
//!
//! The seed determines every input (ids, tree, problem pool, mix order);
//! the program under test receives only the generated inputs. Each run
//! sets up several times (the median is `setup_s`), then runs jobs until
//! `--seconds` have passed. With `--trace 0` the last stdout line carries
//! the end-to-end metrics; with `--trace 1` half the jobs are traced,
//! each traced job's layer calls are replayed on the same inputs, wrapped
//! in spans, and the last line carries the per-layer metrics. A traced
//! job differs from an untraced one only by its own span, so
//! `obs.trace_overhead` covers that bookkeeping; the layer spans are
//! recorded in the replay, outside any timed job. Spans are written to
//! `<work-dir>/trace-<workload>-<seed>.jsonl` when a traced run ends.
//!
//! Exit status 0 means the run completed and printed its result line
//! (which may still report failed operations); 1 means set-up failed and
//! nothing was measured; 2 is a usage error.

mod classify;
mod local;
mod metrics;
mod proc;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use lcl_rng::SmallRng;

use metrics::{result_line, Samples, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median. Single
/// repetitions of the proc-tree set-up varied by ±25 % within one run.
const SETUP_REPS: usize = 5;

/// What one run was asked to do.
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measuring time, in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Smoke-test sizes: tiny inputs, one set-up.
    pub tiny: bool,
    /// Directory for stores, sockets, and the span file.
    pub work_dir: PathBuf,
}

/// What one call of a workload's job closure does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pass {
    /// A job before the measuring window: output checked, time discarded.
    Warmup,
    /// A job timed with tracing off.
    Timed,
    /// A job timed with spans on; the workload keeps what its replay
    /// needs.
    Traced,
    /// No job: replay the layer calls of the last traced job on the same
    /// inputs, in spans.
    Replay,
}

impl Pass {
    /// Records a job's wall time where this pass keeps it.
    pub fn record(self, samples: &mut Samples, job_s: f64) {
        match self {
            Pass::Warmup | Pass::Replay => {}
            Pass::Timed => samples.jobs.push(job_s),
            Pass::Traced => samples.traced_jobs.push(job_s),
        }
    }
}

/// The parallelism a workload actually used, reported next to
/// `available_parallelism` so an oversubscribed run is visible.
#[derive(Clone, Copy, Debug, Default)]
pub struct Load {
    /// Worker processes (proc workloads) or service worker threads.
    pub workers: usize,
    /// Runner threads of the in-process executor.
    pub threads: usize,
    /// Client connections.
    pub connections: usize,
}

impl Config {
    /// A generator for one named input stream of this run's seed, so
    /// that adding a stream never shifts another.
    pub fn rng(&self, stream: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
    }

    /// Runs `setup` [`SETUP_REPS`] times (once when tiny), recording each
    /// wall time, and keeps the last result. The previous result is
    /// dropped before the next repetition starts.
    pub fn setup<T>(
        &self,
        samples: &mut Samples,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let reps = if self.tiny { 1 } else { SETUP_REPS };
        let mut kept = None;
        for _ in 0..reps {
            drop(kept.take());
            let t0 = Instant::now();
            kept = Some(setup()?);
            samples.setup.push(t0.elapsed().as_secs_f64());
        }
        Ok(kept.expect("why: at least one set-up repetition runs"))
    }

    /// Runs `job(index, pass)`: `warmup` warm-up jobs (checked but not
    /// timed), then timed jobs until the measuring time is spent. A
    /// traced run goes in cycles of one untraced and one traced job, in
    /// alternating order, followed by the replay of the traced one; so
    /// each kind of job follows a replay and a job equally often, and
    /// `obs.trace_overhead` compares like with like.
    pub fn measure(&self, warmup: usize, mut job: impl FnMut(usize, Pass)) {
        for k in 0..warmup {
            job(k, Pass::Warmup);
        }
        let start = Instant::now();
        let mut k = warmup;
        let mut cycle = 0;
        while cycle == 0 || start.elapsed().as_secs_f64() < self.seconds {
            if !self.trace {
                job(k, Pass::Timed);
                k += 1;
            } else {
                let order = if cycle % 2 == 0 {
                    [Pass::Timed, Pass::Traced]
                } else {
                    [Pass::Traced, Pass::Timed]
                };
                for pass in order {
                    job(k, pass);
                    k += 1;
                }
                job(k, Pass::Replay);
            }
            cycle += 1;
        }
    }
}

/// A seeded permutation of `offset..offset + n`: distinct ids whose
/// multiset (and so every byte count that depends on it) is the same for
/// every seed.
pub fn seeded_ids(n: usize, offset: u64, rng: &mut SmallRng) -> Vec<u64> {
    let mut ids: Vec<u64> = (offset..offset + n as u64).collect();
    shuffle(&mut ids, rng);
    ids
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <proc-path|proc-tree|local-tree|classify-mix> --seed <n> \
         --seconds <s> --trace <0|1> [--tiny] [--work-dir <dir>]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        work_dir: PathBuf::from("target/perfbench"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => cfg.workload = value("--workload")?,
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cfg.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                cfg.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--tiny" => cfg.tiny = true,
            "--work-dir" => cfg.work_dir = PathBuf::from(value("--work-dir")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(why) => return usage(&why),
    };
    // Worker sockets go under the work dir (the supervisor binds in the
    // temp dir); a relative path keeps them within the socket-path limit.
    let tmp = cfg.work_dir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }
    std::env::set_var("TMPDIR", &tmp);

    let tracer = Tracer::new(cfg.trace);
    let ran = match cfg.workload.as_str() {
        "proc-path" => proc::run(&cfg, &tracer, proc::Kind::Path),
        "proc-tree" => proc::run(&cfg, &tracer, proc::Kind::Tree),
        "local-tree" => local::run(&cfg, &tracer),
        "classify-mix" => classify::run(&cfg, &tracer),
        other => return usage(&format!("unknown workload {other:?}")),
    };
    let (samples, load) = match ran {
        Ok(ran) => ran,
        Err(why) => {
            eprintln!("perfbench: {} set-up failed: {why}", cfg.workload);
            return ExitCode::from(1);
        }
    };

    for why in &samples.failures {
        eprintln!("perfbench: failure: {why}");
    }
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "report workload={} seed={} trace={} jobs={} traced_jobs={} requests={} workers={} \
         threads={} connections={} available_parallelism={available} failed_ratio={} \
         job_q1_s={:.6} job_q3_s={:.6} peak_rss_mb={:.1}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace),
        samples.jobs.len(),
        samples.traced_jobs.len(),
        samples.requests.len(),
        load.workers,
        load.threads,
        load.connections,
        samples.failed as f64 / samples.attempted.max(1) as f64,
        metrics::quantile(&samples.jobs, 0.25),
        metrics::quantile(&samples.jobs, 0.75),
        metrics::peak_rss_mb(),
    );
    if cfg.trace {
        let path = cfg
            .work_dir
            .join(format!("trace-{}-{}.jsonl", cfg.workload, cfg.seed));
        if let Err(e) = std::fs::write(&path, tracer.to_jsonl()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let (catalog, values) = if cfg.trace {
        (PER_LAYER, samples.per_layer())
    } else {
        (END_TO_END, samples.end_to_end())
    };
    println!(
        "{}",
        result_line(catalog, &values, samples.attempted, samples.failed)
    );
    ExitCode::SUCCESS
}
