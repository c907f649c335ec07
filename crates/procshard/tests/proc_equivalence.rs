//! Substrate equivalence across the process boundary: a clean
//! proc-sharded run — real child processes, line-JSON over Unix
//! sockets — must be bit-identical to the in-process sharded executor
//! and to the unsharded executor on the golden catalog, for every
//! shard count. Moving a shard into its own address space changes
//! *where* a run executes, never *what* it computes.

use lcl_core::{tree_speedup, SpeedupOptions};
use lcl_faults::{Fault, FaultPlan, RunOptions};
use lcl_graph::Graph;
use lcl_local::{simulate_sync_with, SyncAlgorithm};
use lcl_obs::{Counter, EventLog};
use lcl_problems::anti_matching;
use lcl_procshard::{
    run_proc_sharded, AlgSpec, GraphSpec, GuardedFlood, InputSpec, ProcJob, ProcOptions,
};
use lcl_shard::simulate_sharded_with;

const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

fn ids_for(g: &Graph, seed: u64) -> Vec<u64> {
    (0..g.node_count() as u64)
        .map(|i| i * 31 + seed * 7 + 1)
        .collect()
}

fn golden_specs() -> Vec<(&'static str, GraphSpec)> {
    vec![
        ("path", GraphSpec::Path { n: 33 }),
        (
            "tree",
            GraphSpec::RandomTree {
                n: 64,
                max_degree: 3,
                seed: 5,
            },
        ),
        ("caterpillar", GraphSpec::Caterpillar { spine: 6, legs: 1 }),
        ("star", GraphSpec::Star { leaves: 3 }),
    ]
}

fn proc_options() -> ProcOptions {
    ProcOptions {
        worker_bin: Some(env!("CARGO_BIN_EXE_shard-worker").into()),
        ..ProcOptions::default()
    }
}

/// Runs one (algorithm spec, local algorithm) pair over the golden
/// catalog at every shard count and asserts the three-way identity:
/// unsharded == in-process sharded == proc-sharded.
fn assert_equivalence<A>(alg_spec: AlgSpec, alg: &A)
where
    A: SyncAlgorithm + Sync,
    A::State: Send,
    A::Msg: Send,
{
    let proc = proc_options();
    for (name, spec) in golden_specs() {
        let g = spec.build();
        let input = lcl::uniform_input(&g);
        let ids = ids_for(&g, 3);
        let baseline = simulate_sync_with(alg, &g, &input, &ids, None, 10, RunOptions::new());
        assert!(baseline.outcome.faults.is_empty(), "{name}: clean baseline");
        let job = ProcJob {
            graph: spec,
            alg: alg_spec.clone(),
            input: InputSpec::Uniform,
            ids: ids.clone(),
            n_announced: None,
            max_rounds: 10,
        };
        for shards in SHARD_COUNTS {
            let inproc = simulate_sharded_with(
                alg,
                &g,
                &input,
                &ids,
                None,
                10,
                2,
                RunOptions::new().sharded(shards),
            );
            assert_eq!(inproc.outcome, baseline.outcome, "{name}: shards={shards}");
            let run = run_proc_sharded(&job, RunOptions::new().sharded(shards), &proc)
                .unwrap_or_else(|e| panic!("{name}: shards={shards}: {e}"));
            assert_eq!(
                run.outcome, baseline.outcome,
                "{name}: proc shards={shards}"
            );
            for counter in [Counter::Rounds, Counter::Messages] {
                assert_eq!(
                    run.trace.total(counter),
                    baseline.trace.total(counter),
                    "{name}: proc shards={shards}: {counter:?}"
                );
            }
            for counter in [
                Counter::Supersteps,
                Counter::HaloMessages,
                Counter::HaloBytes,
            ] {
                assert_eq!(
                    run.trace.total(counter),
                    inproc.trace.total(counter),
                    "{name}: proc shards={shards}: {counter:?}"
                );
            }
            assert_eq!(run.trace.total(Counter::ShardCrashes), 0);
            assert_eq!(run.trace.total(Counter::Retries), 0, "{name}: no respawns");
        }
    }
}

/// The guarded flood (`Msg = u64`) across the process boundary.
#[test]
fn guarded_flood_matches_both_in_process_substrates() {
    assert_equivalence(AlgSpec::GuardedFlood { k: 3 }, &GuardedFlood { k: 3 });
}

/// The synthesized constant-round E1 pipeline (`Msg = (u64, u32)`):
/// the worker process reruns `tree_speedup` from the problem name and
/// must land on the identical lifted algorithm.
#[test]
fn lifted_e1_matches_both_in_process_substrates() {
    let outcome = tree_speedup(&anti_matching(3), SpeedupOptions::default());
    assert_equivalence(AlgSpec::AntiMatchingE1 { delta: 3 }, &outcome.algorithm());
}

/// With an id permutation and an announced `n`, at 3 shards (ranges of
/// uneven length), a proc run still equals the unsharded executor. The
/// supervisor must permute the whole assignment before it slices out
/// each worker's owned ids; slicing first would hand nodes the wrong
/// ids.
#[test]
fn permuted_ids_match_the_local_executor_at_uneven_shards() {
    let proc = proc_options();
    let plan = FaultPlan::new(17).with_permuted_ids();
    let opts = RunOptions::new().faults(&plan);
    let speedup = tree_speedup(&anti_matching(3), SpeedupOptions::default());
    let lifted = speedup.algorithm();
    let mut moved = 0;
    for (name, spec) in golden_specs() {
        let g = spec.build();
        let input = lcl::uniform_input(&g);
        let ids = ids_for(&g, 3);
        let n_announced = Some(4 * g.node_count());
        let flood = simulate_sync_with(
            &GuardedFlood { k: 3 },
            &g,
            &input,
            &ids,
            n_announced,
            10,
            opts,
        );
        let unpermuted = simulate_sync_with(
            &GuardedFlood { k: 3 },
            &g,
            &input,
            &ids,
            n_announced,
            10,
            RunOptions::new(),
        );
        moved += usize::from(unpermuted.outcome != flood.outcome);
        let e1 = simulate_sync_with(&lifted, &g, &input, &ids, n_announced, 10, opts);
        for (alg, baseline) in [
            (AlgSpec::GuardedFlood { k: 3 }, flood),
            (AlgSpec::AntiMatchingE1 { delta: 3 }, e1),
        ] {
            assert!(baseline.outcome.faults.is_empty(), "{name}: clean baseline");
            let job = ProcJob {
                graph: spec.clone(),
                alg,
                input: InputSpec::Uniform,
                ids: ids.clone(),
                n_announced,
                max_rounds: 10,
            };
            let run = run_proc_sharded(&job, opts.sharded(3), &proc)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(run.outcome, baseline.outcome, "{name}: {:?}", job.alg);
            for counter in [Counter::Rounds, Counter::Messages] {
                assert_eq!(
                    run.trace.total(counter),
                    baseline.trace.total(counter),
                    "{name}: {counter:?}"
                );
            }
        }
    }
    assert!(moved > 0, "the permutation changes some flood output");
}

/// Under a plan with a crash-stop, a node panic, a whole-shard crash and
/// permuted ids, a proc run equals the in-process run in everything it
/// reports: degraded outcome and fault list, every counter, trace
/// fingerprint and event log. `k: 3` at 2 rounds is the no-halt leg.
#[test]
fn faulted_runs_match_the_in_process_executor() {
    let proc = proc_options();
    let plan = FaultPlan::new(7)
        .with(Fault::Crash { node: 3, round: 1 })
        .with(Fault::PanicNode { node: 11 })
        .with(Fault::ShardCrash {
            shard: 1,
            superstep: 0,
        })
        .with_permuted_ids();
    let specs = [
        GraphSpec::Path { n: 33 },
        GraphSpec::RandomTree {
            n: 64,
            max_degree: 3,
            seed: 5,
        },
    ];
    for spec in specs {
        let g = spec.build();
        let input = lcl::uniform_input(&g);
        let ids = ids_for(&g, 3);
        for shards in [3, 4] {
            for (k, max_rounds) in [(2, 10), (3, 2)] {
                let case = format!("{spec:?} shards={shards} k={k} max_rounds={max_rounds}");
                let job = ProcJob {
                    graph: spec.clone(),
                    alg: AlgSpec::GuardedFlood { k },
                    input: InputSpec::Uniform,
                    ids: ids.clone(),
                    n_announced: Some(100),
                    max_rounds,
                };
                let proc_log = EventLog::new(4096);
                let opts = RunOptions::new().faults(&plan).sharded(shards);
                let run = run_proc_sharded(&job, opts.events(&proc_log), &proc)
                    .unwrap_or_else(|e| panic!("{case}: {e}"));
                let inproc_log = EventLog::new(4096);
                let inproc = simulate_sharded_with(
                    &GuardedFlood { k },
                    &g,
                    &input,
                    &ids,
                    Some(100),
                    max_rounds,
                    2,
                    opts.events(&inproc_log),
                );
                assert!(inproc.outcome.is_degraded(), "{case}: the plan bites");
                assert_eq!(run.outcome, inproc.outcome, "{case}");
                for &counter in Counter::ALL {
                    assert_eq!(
                        run.trace.total(counter),
                        inproc.trace.total(counter),
                        "{case}: {counter:?}"
                    );
                }
                assert_eq!(
                    run.trace.fingerprint(),
                    inproc.trace.fingerprint(),
                    "{case}"
                );
                assert_eq!(proc_log.events(), inproc_log.events(), "{case}");
            }
        }
    }
}

/// A job whose id list does not cover its graph is a typed error, not
/// a panic, and is caught before any worker is spawned.
#[test]
fn too_few_ids_is_a_typed_error() {
    let job = ProcJob {
        graph: GraphSpec::Path { n: 4 },
        alg: AlgSpec::GuardedFlood { k: 1 },
        input: InputSpec::Uniform,
        ids: vec![1, 2, 3],
        n_announced: None,
        max_rounds: 4,
    };
    let proc = ProcOptions {
        worker_bin: Some("/nonexistent/shard-worker".into()),
        ..ProcOptions::default()
    };
    assert_eq!(
        run_proc_sharded(&job, RunOptions::new().sharded(2), &proc).unwrap_err(),
        lcl_procshard::ProcError::IdCount { ids: 3, nodes: 4 }
    );
}

/// A missing worker binary is a typed error, not a hang.
#[test]
fn missing_worker_binary_is_a_typed_error() {
    let job = ProcJob {
        graph: GraphSpec::Path { n: 4 },
        alg: AlgSpec::GuardedFlood { k: 1 },
        input: InputSpec::Uniform,
        ids: vec![1, 2, 3, 4],
        n_announced: None,
        max_rounds: 4,
    };
    let proc = ProcOptions {
        worker_bin: Some("/nonexistent/shard-worker".into()),
        ..ProcOptions::default()
    };
    match run_proc_sharded(&job, RunOptions::new(), &proc) {
        Err(lcl_procshard::ProcError::WorkerBinMissing { tried }) => {
            assert_eq!(tried, vec!["/nonexistent/shard-worker".to_string()]);
        }
        other => panic!("expected WorkerBinMissing, got {other:?}"),
    }
}
