//! The in-process workload, `local-tree`.
//!
//! A job is one `simulate_sharded_with` call of the synthesized
//! anti-matching algorithm on a complete binary tree, 2 shards on 2
//! runner threads; the graph, ids, algorithm, and the unsharded
//! reference output are built during set-up. BFS numbering puts half of
//! all edges across the contiguous-range cut, so halo traffic is large.
//! The replay of a traced job runs the unsharded executor
//! (`simulate_sync_with`) on the same inputs.

use std::time::Instant;

use lcl::{HalfEdgeLabeling, InLabel, LclProblem};
use lcl_core::{tree_speedup, SpeedupOptions, SpeedupOutcome};
use lcl_faults::RunOptions;
use lcl_graph::{gen, Graph};
use lcl_local::{simulate_sync_with, SyncRun};
use lcl_obs::Counter;
use lcl_problems::anti_matching;
use lcl_recover::certify;
use lcl_shard::simulate_sharded_with;

use crate::metrics::Samples;
use crate::trace::Tracer;
use crate::{seeded_ids, Config, Load, Pass};

/// Shards, and runner threads executing them.
const SHARDS: usize = 2;
/// Round cap handed to both executors.
const MAX_ROUNDS: u32 = 10;

struct Case {
    graph: Graph,
    input: HalfEdgeLabeling<InLabel>,
    ids: Vec<u64>,
    problem: LclProblem,
    synthesized: SpeedupOutcome,
    reference: SyncRun,
}

fn setup(cfg: &Config) -> Result<Case, String> {
    let graph = gen::complete_tree(2, if cfg.tiny { 6 } else { 19 });
    let input = lcl::uniform_input(&graph);
    let ids = seeded_ids(graph.node_count(), 1, &mut cfg.rng(1));
    let problem = anti_matching(3);
    let synthesized = tree_speedup(&problem, SpeedupOptions::default());
    let alg = synthesized
        .try_algorithm()
        .ok_or("anti-matching did not synthesize a constant-round algorithm")?;
    let reference = simulate_sync_with(
        &alg,
        &graph,
        &input,
        &ids,
        None,
        MAX_ROUNDS,
        RunOptions::new(),
    );
    if !reference.outcome.faults.is_empty() {
        return Err("the unsharded reference run recorded faults".to_string());
    }
    let reference = reference.outcome.outcome;
    certify(&problem, &graph, &input, reference.output.clone())
        .map_err(|e| format!("the reference output does not certify: {e:?}"))?;
    Ok(Case {
        graph,
        input,
        ids,
        problem,
        synthesized,
        reference,
    })
}

/// Runs `local-tree`.
pub fn run(cfg: &Config, tracer: &Tracer) -> Result<(Samples, Load), String> {
    let mut samples = Samples::default();
    let case = cfg.setup(&mut samples, || setup(cfg))?;
    let alg = case
        .synthesized
        .try_algorithm()
        .ok_or("the synthesized outcome lost its algorithm")?;
    let quiet = Tracer::new(false);
    // The last traced job's span, for its replay.
    let mut pending = None;
    cfg.measure(1, |k, pass| {
        if pass == Pass::Replay {
            let Some(span) = pending.take() else { return };
            let (unsharded, sync_s) = tracer.time("local.sync", span, |_| {
                simulate_sync_with(
                    &alg,
                    &case.graph,
                    &case.input,
                    &case.ids,
                    None,
                    MAX_ROUNDS,
                    RunOptions::new(),
                )
            });
            samples.layer("local.sync_s", sync_s);
            samples.layer(
                "local.messages",
                unsharded.trace.total(Counter::Messages) as f64,
            );
            samples.layer("local.rounds", f64::from(unsharded.outcome.outcome.rounds));
            return;
        }
        let traced = pass == Pass::Traced;
        let tr = if traced { tracer } else { &quiet };
        let span = tr.open(format!("job/{k}"), None);
        let t0 = Instant::now();
        let run = simulate_sharded_with(
            &alg,
            &case.graph,
            &case.input,
            &case.ids,
            None,
            MAX_ROUNDS,
            SHARDS,
            RunOptions::new().sharded(SHARDS),
        );
        let job_s = t0.elapsed().as_secs_f64();
        tr.close(span);
        pass.record(&mut samples, job_s);
        if pass != Pass::Warmup {
            samples.requests.push(job_s);
        }

        let mut failure = if !run.outcome.faults.is_empty() {
            Some(format!(
                "{} faults on a clean run",
                run.outcome.faults.len()
            ))
        } else if run.outcome.outcome != case.reference {
            Some("output differs from the unsharded reference".to_string())
        } else {
            None
        };
        let output = run.outcome.outcome.output.clone();
        let (verdict, certify_s) = tr.time("recover.certify", span, |_| {
            certify(&case.problem, &case.graph, &case.input, output)
        });
        let violations = verdict.as_ref().err().map_or(0, |e| e.violations.len());
        if violations > 0 && failure.is_none() {
            failure = Some(format!("output violates {violations} constraints"));
        }
        samples.outcome(failure);
        if !traced {
            return;
        }
        samples.layer("shard.run_s", job_s);
        samples.layer(
            "shard.halo_bytes",
            run.trace.total(Counter::HaloBytes) as f64,
        );
        samples.layer(
            "shard.supersteps",
            run.trace.total(Counter::Supersteps) as f64,
        );
        samples.layer("recover.certify_s", certify_s);
        samples.layer("lcl.violations", violations as f64);
        pending = Some(span);
    });
    Ok((
        samples,
        Load {
            workers: 0,
            threads: SHARDS,
            connections: 0,
        },
    ))
}
