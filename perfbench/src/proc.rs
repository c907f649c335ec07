//! The cross-process workloads, `proc-path` and `proc-tree`.
//!
//! A job is one `run_proc_sharded` call, from the job spec to the output
//! collected, on 2 `shard-worker` processes. A traced job is followed by
//! a replay of each layer call the job made, on the same inputs:
//!
//! - the supervisor's `GraphSpec::build` and one `InitCmd::encode` per
//!   shard, in sequence, as the supervisor runs them;
//! - a worker's `parse_flat_object` + `InitCmd::parse`,
//!   `GraphSpec::build`, and (for the synthesized algorithm)
//!   `tree_speedup`; workers run these side by side, so each counts
//!   once, at its slowest shard;
//! - each worker's `encode_labels` of its owned output (slowest shard),
//!   and the supervisor's `decode_labels` of all of them.
//!
//! What the replay cannot attribute — process spawn, socket I/O, the
//! superstep barrier, and the workers' compute — is
//! `procshard.unattributed_s`.

use std::hint::black_box;
use std::time::Instant;

use lcl::{HalfEdgeLabeling, InLabel, LclProblem, OutLabel};
use lcl_core::{tree_speedup, SpeedupOptions};
use lcl_faults::{Degraded, FaultPlan, RunOptions};
use lcl_graph::{Graph, NodeId, ShardMap};
use lcl_local::{simulate_sync_with, SyncRun};
use lcl_obs::{Counter, RunReport};
use lcl_problems::anti_matching;
use lcl_procshard::wire::{decode_labels, encode_labels, InitCmd};
use lcl_procshard::{
    run_proc_sharded, AlgSpec, GraphSpec, GuardedFlood, InputSpec, ProcError, ProcJob, ProcOptions,
};
use lcl_recover::certify;
use lcl_service::parse_flat_object;

use crate::metrics::Samples;
use crate::trace::{SpanId, Tracer};
use crate::{seeded_ids, Config, Load, Pass};

/// Worker processes per job.
const SHARDS: usize = 2;
/// The socket deadline every job runs with, in milliseconds; a worker's
/// init is checked against a quarter of it.
const SOCKET_DEADLINE_MS: u64 = 10_000;

/// Which cross-process workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Guarded flooding on a path.
    Path,
    /// The synthesized anti-matching algorithm on a random tree.
    Tree,
}

/// One prepared workload: the job, and what its output is checked
/// against.
struct Case {
    job: ProcJob,
    graph: Graph,
    input: HalfEdgeLabeling<InLabel>,
    reference: SyncRun,
    /// The problem every output must certify against (tree only).
    problem: Option<LclProblem>,
}

fn setup(cfg: &Config, kind: Kind) -> Result<Case, String> {
    let (graph_spec, alg, max_rounds) = match kind {
        Kind::Path => (
            GraphSpec::Path {
                n: if cfg.tiny { 2_000 } else { 1_000_000 },
            },
            AlgSpec::GuardedFlood { k: 2 },
            8,
        ),
        Kind::Tree => (
            GraphSpec::RandomTree {
                n: if cfg.tiny { 400 } else { 20_000 },
                max_degree: 3,
                seed: cfg.rng(2).next_u64(),
            },
            AlgSpec::AntiMatchingE1 { delta: 3 },
            10,
        ),
    };
    let graph = graph_spec.build();
    let ids = seeded_ids(graph.node_count(), 1, &mut cfg.rng(1));
    let input = InputSpec::Uniform.build(&graph);
    let reference = match alg {
        AlgSpec::GuardedFlood { k } => simulate_sync_with(
            &GuardedFlood { k },
            &graph,
            &input,
            &ids,
            None,
            max_rounds,
            RunOptions::new(),
        ),
        AlgSpec::AntiMatchingE1 { delta } => {
            let outcome = tree_speedup(&anti_matching(delta), SpeedupOptions::default());
            let alg = outcome
                .try_algorithm()
                .ok_or("anti-matching did not synthesize a constant-round algorithm")?;
            simulate_sync_with(
                &alg,
                &graph,
                &input,
                &ids,
                None,
                max_rounds,
                RunOptions::new(),
            )
        }
    };
    if !reference.outcome.faults.is_empty() {
        return Err("the in-process reference run recorded faults".to_string());
    }
    let problem = (kind == Kind::Tree).then(|| anti_matching(3));
    if let Some(p) = &problem {
        certify(p, &graph, &input, reference.outcome.outcome.output.clone())
            .map_err(|e| format!("the reference output does not certify: {e:?}"))?;
    }
    Ok(Case {
        job: ProcJob {
            graph: graph_spec,
            alg,
            input: InputSpec::Uniform,
            ids,
            n_announced: None,
            max_rounds,
        },
        graph,
        input,
        reference: reference.outcome.outcome,
        problem,
    })
}

type ProcRun = Result<RunReport<Degraded<SyncRun>>, ProcError>;

/// Why a job's result is wrong, if it is.
fn check(case: &Case, run: &ProcRun) -> Option<String> {
    let report = match run {
        Ok(report) => report,
        Err(e) => return Some(format!("run_proc_sharded failed: {e}")),
    };
    if !report.outcome.faults.is_empty() {
        return Some(format!(
            "{} faults on a clean run",
            report.outcome.faults.len()
        ));
    }
    let respawns = report.trace.total(Counter::Retries);
    if respawns > 0 {
        return Some(format!("{respawns} worker respawns on a clean run"));
    }
    if report.outcome.outcome != case.reference {
        return Some("output differs from the in-process reference".to_string());
    }
    None
}

/// Replays one worker-side call per shard, one after another, each in
/// its own span; returns the results and the slowest shard's time.
/// Workers run side by side in their own processes, so the slowest one
/// is what the job waits for. (Replaying them on threads of this one
/// process would not match: allocation-heavy calls then contend for the
/// shared address space, which separate processes never do.)
fn per_worker<T>(
    tracer: &Tracer,
    name: &str,
    parent: SpanId,
    f: impl Fn(usize) -> T,
) -> (Vec<T>, f64) {
    let mut slowest: f64 = 0.0;
    let results = (0..SHARDS)
        .map(|s| {
            let (value, secs) = tracer.time(format!("{name}/{s}"), parent, |_| f(s));
            slowest = slowest.max(secs);
            value
        })
        .collect();
    (results, slowest)
}

/// Replays the layer calls of one finished job and records per-layer
/// samples. Returns a failure if a worker's init would not fit the
/// socket deadline with margin.
fn replay(
    tracer: &Tracer,
    case: &Case,
    report: &RunReport<Degraded<SyncRun>>,
    job_s: f64,
    job_span: SpanId,
    samples: &mut Samples,
) -> Option<String> {
    let root = tracer.open("replay", job_span);
    let n = case.graph.node_count();
    let map = ShardMap::new(n, SHARDS);
    let plan_text = FaultPlan::new(0).to_text();

    let (_, supervisor_build) = tracer.time("graph.build/supervisor", root, |_| {
        black_box(case.job.graph.build());
    });
    let mut lines = Vec::with_capacity(SHARDS);
    let mut encode_s = 0.0;
    for shard in 0..map.num_shards() {
        let cmd = InitCmd {
            graph: case.job.graph.clone(),
            alg: case.job.alg.clone(),
            input: case.job.input.clone(),
            ids: case.job.ids.clone(),
            n,
            shards: map.num_shards(),
            shard,
            plan_text: plan_text.clone(),
            hang_at: None,
        };
        let (line, secs) = tracer.time("procshard.init_encode", root, |_| cmd.encode());
        encode_s += secs;
        lines.push(line);
    }
    let init_bytes: usize = lines.iter().map(String::len).sum();

    let (decoded, decode_s) = per_worker(tracer, "procshard.init_decode", root, |s| {
        parse_flat_object(&lines[s])
            .map_err(|e| e.to_string())
            .and_then(|fields| InitCmd::parse(&fields))
            .is_ok()
    });
    drop(lines);
    // Every worker builds the same whole graph and synthesizes the same
    // algorithm, so one replay stands for all of them.
    let (_, worker_build) = tracer.time("graph.build/worker", root, |_| {
        black_box(case.job.graph.build());
    });
    let synth_s = match case.job.alg {
        AlgSpec::AntiMatchingE1 { delta } => {
            tracer
                .time("core.synth/worker", root, |_| {
                    black_box(tree_speedup(
                        &anti_matching(delta),
                        SpeedupOptions::default(),
                    ));
                })
                .1
        }
        AlgSpec::GuardedFlood { .. } => 0.0,
    };

    let output = &report.outcome.outcome.output;
    let (encoded, encode_out_s) = per_worker(tracer, "procshard.output_encode", root, |s| {
        let owned: Vec<Vec<OutLabel>> = map
            .range(s)
            .map(|i| {
                case.graph
                    .half_edges_of(NodeId(i as u32))
                    .map(|h| output.get(h))
                    .collect()
            })
            .collect();
        encode_labels(&owned)
    });
    let output_bytes: usize = encoded.iter().map(String::len).sum();
    let (_, decode_out_s) = tracer.time("procshard.output_decode", root, |_| {
        for text in &encoded {
            black_box(decode_labels(text).is_ok());
        }
    });
    tracer.close(root);

    let build_s = supervisor_build + worker_build;
    let output_s = encode_out_s + decode_out_s;
    let trace = &report.trace;
    samples.layer("graph.build_s", build_s);
    samples.layer("procshard.init_bytes", init_bytes as f64);
    samples.layer("procshard.init_encode_s", encode_s);
    samples.layer("procshard.init_decode_s", decode_s);
    samples.layer("procshard.output_bytes", output_bytes as f64);
    samples.layer("procshard.output_s", output_s);
    samples.layer(
        "procshard.halo_bytes",
        trace.total(Counter::HaloBytes) as f64,
    );
    samples.layer(
        "procshard.halo_messages",
        trace.total(Counter::HaloMessages) as f64,
    );
    samples.layer(
        "procshard.supersteps",
        trace.total(Counter::Supersteps) as f64,
    );
    samples.layer("procshard.messages", trace.total(Counter::Messages) as f64);
    samples.layer("procshard.respawns", trace.total(Counter::Retries) as f64);
    samples.layer("core.synth_s", synth_s);
    samples.layer(
        "procshard.unattributed_s",
        job_s - (build_s + encode_s + decode_s + synth_s + output_s),
    );

    if decoded.iter().any(|ok| !ok) {
        return Some("a replayed init line did not decode".to_string());
    }
    let worker_init = worker_build + decode_s;
    let deadline_s = SOCKET_DEADLINE_MS as f64 / 1e3;
    (worker_init > deadline_s / 4.0).then(|| {
        format!(
            "per-worker init took {worker_init:.3} s, over a quarter of the {deadline_s} s socket deadline"
        )
    })
}

/// Runs `proc-path` or `proc-tree`.
pub fn run(cfg: &Config, tracer: &Tracer, kind: Kind) -> Result<(Samples, Load), String> {
    let mut samples = Samples::default();
    let case = cfg.setup(&mut samples, || setup(cfg, kind))?;
    // The `shard-worker` binary is found next to this one.
    let opts = ProcOptions::default();
    let run_opts = RunOptions::new()
        .sharded(SHARDS)
        .io_timeout(SOCKET_DEADLINE_MS);
    let quiet = Tracer::new(false);
    // The last traced job's report, wall time, span and failure so far:
    // its outcome is recorded after the replay, which may fail it.
    let mut pending: Option<(_, f64, SpanId, Option<String>)> = None;
    cfg.measure(1, |k, pass| {
        if pass == Pass::Replay {
            if let Some((report, job_s, span, failure)) = pending.take() {
                let late = replay(tracer, &case, &report, job_s, span, &mut samples);
                samples.outcome(failure.or(late));
            }
            return;
        }
        let traced = pass == Pass::Traced;
        let tr = if traced { tracer } else { &quiet };
        let span = tr.open(format!("job/{k}"), None);
        let t0 = Instant::now();
        let run = run_proc_sharded(&case.job, run_opts, &opts);
        let job_s = t0.elapsed().as_secs_f64();
        tr.close(span);
        pass.record(&mut samples, job_s);
        if pass != Pass::Warmup {
            samples.requests.push(job_s);
        }
        let mut failure = check(&case, &run);
        if let (Some(problem), Ok(report)) = (&case.problem, &run) {
            let output = report.outcome.outcome.output.clone();
            let (verdict, secs) = tr.time("recover.certify", span, |_| {
                certify(problem, &case.graph, &case.input, output)
            });
            let violations = verdict.as_ref().err().map_or(0, |e| e.violations.len());
            if traced {
                samples.layer("recover.certify_s", secs);
                samples.layer("lcl.violations", violations as f64);
            }
            if violations > 0 && failure.is_none() {
                failure = Some(format!("output violates {violations} constraints"));
            }
        }
        match (traced, run) {
            (true, Ok(report)) => pending = Some((report, job_s, span, failure)),
            _ => samples.outcome(failure),
        }
    });
    Ok((
        samples,
        Load {
            workers: SHARDS,
            threads: 1,
            connections: SHARDS,
        },
    ))
}
