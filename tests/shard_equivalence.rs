//! Substrate equivalence: the sharded executor must be bit-identical to
//! the single-image executor on the golden catalog — same outcome, same
//! fault list, same event-derived cost model — for every shard count and
//! every runner thread count, as long as the plan contains no
//! whole-shard losses. Sharding changes *where* a run executes, never
//! *what* it computes.

use lcl_landscape::core::{tree_speedup, SpeedupOptions};
use lcl_landscape::faults::{Fault, FaultPlan, RunOptions};
use lcl_landscape::graph::{gen, Graph};
use lcl_landscape::lcl::uniform_input;
use lcl_landscape::local::simulate_sync_with;
use lcl_landscape::obs::{Counter, EventLog};
use lcl_landscape::problems::anti_matching;
use lcl_landscape::problems::cv::{orientation_inputs, ColeVishkin, Orientation};
use lcl_landscape::shard::simulate_sharded_with;

const SHARD_COUNTS: [usize; 3] = [1, 4, 16];
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn ids_for(g: &Graph, seed: u64) -> Vec<u64> {
    (0..g.node_count() as u64)
        .map(|i| i * 31 + seed * 7 + 1)
        .collect()
}

fn golden_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("path", gen::path(33)),
        ("tree", gen::random_tree(64, 3, 5)),
        ("caterpillar", gen::caterpillar(6, 1)),
        ("star", gen::star(3)),
        ("complete", gen::complete_tree(2, 7)),
    ]
}

/// The synthesized E1 pipeline algorithm, run on the golden catalog at
/// every (shards × threads) combination: outcome and fault list must
/// equal the unsharded executor's exactly.
#[test]
fn lifted_e1_matches_unsharded_across_shards_and_threads() {
    let problem = anti_matching(3);
    let outcome = tree_speedup(&problem, SpeedupOptions::default());
    let alg = outcome.algorithm();
    for (name, g) in golden_graphs() {
        let input = uniform_input(&g);
        let ids = ids_for(&g, 3);
        let baseline = simulate_sync_with(&alg, &g, &input, &ids, None, 10, RunOptions::new());
        assert!(baseline.outcome.faults.is_empty(), "{name}: clean baseline");
        for shards in SHARD_COUNTS {
            for threads in THREAD_COUNTS {
                let run = simulate_sharded_with(
                    &alg,
                    &g,
                    &input,
                    &ids,
                    None,
                    10,
                    threads,
                    RunOptions::new().sharded(shards),
                );
                assert_eq!(
                    run.outcome, baseline.outcome,
                    "{name}: shards={shards} threads={threads}"
                );
                assert_eq!(run.trace.total(Counter::ShardCrashes), 0);
                assert_eq!(
                    run.trace.total(Counter::Rounds),
                    baseline.trace.total(Counter::Rounds),
                    "{name}: shards={shards}"
                );
                assert_eq!(
                    run.trace.total(Counter::Messages),
                    baseline.trace.total(Counter::Messages),
                    "{name}: shards={shards}"
                );
            }
        }
    }
}

/// `opts` carrying `plan` when there is one.
fn under_plan<'a>(opts: RunOptions<'a>, plan: Option<&'a FaultPlan>) -> RunOptions<'a> {
    match plan {
        Some(plan) => opts.faults(plan),
        None => opts,
    }
}

/// Node-level fault plans (crash-stops, injected panics, an id
/// permutation) degrade identically on both substrates: same outcome,
/// same fault list in the same order, same event-derived cost model.
/// The plan-free run is the first input: clean on both substrates.
#[test]
fn node_fault_plans_degrade_bit_identically() {
    let g = gen::path(48);
    let input = orientation_inputs(&g, Orientation::Path);
    let ids = ids_for(&g, 11);
    let faulty = FaultPlan::new(23)
        .with(Fault::Crash { node: 5, round: 1 })
        .with(Fault::Crash { node: 31, round: 0 })
        .with(Fault::PanicNode { node: 17 })
        .with_permuted_ids();
    for plan in [None, Some(&faulty)] {
        let base_log = EventLog::new(4096);
        let baseline = simulate_sync_with(
            &ColeVishkin,
            &g,
            &input,
            &ids,
            None,
            24,
            under_plan(RunOptions::new().events(&base_log), plan),
        );
        assert_eq!(
            baseline.outcome.is_degraded(),
            plan.is_some(),
            "a plan must bite; no plan must stay clean"
        );
        for shards in SHARD_COUNTS {
            for threads in THREAD_COUNTS {
                let log = EventLog::new(4096);
                let run = simulate_sharded_with(
                    &ColeVishkin,
                    &g,
                    &input,
                    &ids,
                    None,
                    24,
                    threads,
                    under_plan(RunOptions::new().sharded(shards).events(&log), plan),
                );
                assert_eq!(
                    run.outcome, baseline.outcome,
                    "shards={shards} threads={threads}"
                );
                assert_eq!(
                    log.cost_model(),
                    base_log.cost_model(),
                    "shards={shards} threads={threads}: cost models must agree"
                );
            }
        }
    }
}

/// For a fixed shard count the *entire* stored event sequence — round
/// markers, faults, and the per-shard streams folded in shard order —
/// is identical at 1, 2, and 8 runner threads, and so is the trace
/// fingerprint. Runner threads are an execution detail, not an
/// observable.
#[test]
fn event_streams_and_fingerprints_ignore_runner_threads() {
    let problem = anti_matching(3);
    let outcome = tree_speedup(&problem, SpeedupOptions::default());
    let alg = outcome.algorithm();
    let g = gen::random_tree(96, 3, 9);
    let input = uniform_input(&g);
    let ids = ids_for(&g, 9);
    for shards in SHARD_COUNTS {
        let reference_log = EventLog::new(8192);
        let reference = simulate_sharded_with(
            &alg,
            &g,
            &input,
            &ids,
            None,
            10,
            THREAD_COUNTS[0],
            RunOptions::new().sharded(shards).events(&reference_log),
        );
        for &threads in &THREAD_COUNTS[1..] {
            let log = EventLog::new(8192);
            let run = simulate_sharded_with(
                &alg,
                &g,
                &input,
                &ids,
                None,
                10,
                threads,
                RunOptions::new().sharded(shards).events(&log),
            );
            assert_eq!(
                log.events(),
                reference_log.events(),
                "shards={shards} threads={threads}: stored event sequence"
            );
            assert_eq!(
                run.trace.fingerprint(),
                reference.trace.fingerprint(),
                "shards={shards} threads={threads}: trace fingerprint"
            );
            for counter in [
                Counter::Supersteps,
                Counter::HaloMessages,
                Counter::HaloBytes,
                Counter::Checkpoints,
                Counter::ShardCrashes,
            ] {
                assert_eq!(
                    run.trace.total(counter),
                    reference.trace.total(counter),
                    "shards={shards} threads={threads}: {counter:?}"
                );
            }
        }
    }
}

/// The shard accounting itself: a clean `m`-shard run performs exactly
/// `m × rounds` supersteps, and halo traffic appears iff the partition
/// actually cuts edges.
#[test]
fn shard_counters_reflect_the_partition() {
    let problem = anti_matching(3);
    let outcome = tree_speedup(&problem, SpeedupOptions::default());
    let alg = outcome.algorithm();
    let g = gen::path(40);
    let input = uniform_input(&g);
    let ids = ids_for(&g, 1);
    for shards in SHARD_COUNTS {
        let run = simulate_sharded_with(
            &alg,
            &g,
            &input,
            &ids,
            None,
            10,
            2,
            RunOptions::new().sharded(shards),
        );
        let rounds = run.trace.total(Counter::Rounds);
        assert_eq!(run.trace.total(Counter::Shards), shards as u64);
        assert_eq!(
            run.trace.total(Counter::Supersteps),
            shards as u64 * rounds,
            "shards={shards}"
        );
        if shards == 1 {
            assert_eq!(run.trace.total(Counter::HaloMessages), 0);
            assert_eq!(run.trace.total(Counter::HaloBytes), 0);
        } else {
            assert!(
                run.trace.total(Counter::HaloMessages) > 0,
                "shards={shards}"
            );
            assert!(run.trace.total(Counter::HaloBytes) > 0, "shards={shards}");
        }
    }
}

/// `sharded(1)` is the unsharded semantics on the sharded machinery:
/// identical outcome and fault list for clean and faulted runs alike.
#[test]
fn single_shard_runs_equal_the_unsharded_executor() {
    let g = gen::path(30);
    let input = orientation_inputs(&g, Orientation::Path);
    let ids = ids_for(&g, 2);
    for plan in [
        FaultPlan::new(0),
        FaultPlan::new(4)
            .with(Fault::Crash { node: 7, round: 2 })
            .with(Fault::PanicNode { node: 21 }),
    ] {
        let baseline = simulate_sync_with(
            &ColeVishkin,
            &g,
            &input,
            &ids,
            None,
            24,
            RunOptions::new().faults(&plan),
        );
        let run = simulate_sharded_with(
            &ColeVishkin,
            &g,
            &input,
            &ids,
            None,
            24,
            1,
            RunOptions::new().faults(&plan).sharded(1),
        );
        assert_eq!(run.outcome, baseline.outcome);
    }
}
