//! Substrate equivalence: the sharded executor must be bit-identical to
//! the single-image executor on the golden catalog — same outcome, same
//! fault list, same event-derived cost model — for every shard count and
//! every runner thread count, as long as the plan contains no
//! whole-shard losses. Sharding changes *where* a run executes, never
//! *what* it computes.

use lcl_landscape::core::{tree_speedup, SpeedupOptions};
use lcl_landscape::faults::{Fault, FaultPlan, RunOptions};
use lcl_landscape::graph::{gen, Graph};
use lcl_landscape::lcl::{uniform_input, HalfEdgeLabeling, InLabel, OutLabel};
use lcl_landscape::local::{simulate_sync_with, NodeInit, SyncAlgorithm};
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
/// The plan-free run is the first input: clean on both substrates. The
/// genuinely misbehaving [`Misbehaving`] is the second, under a plan
/// only (without one its panic propagates).
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
    degrade_bit_identically(&ColeVishkin, &g, &input, &ids, &[None, Some(&faulty)]);

    let misbehaving = Misbehaving {
        init_panics: ids[30],
        panics: ids[8],
        short_send: ids[20],
        long_label: ids[40],
    };
    let quiet = FaultPlan::new(0);
    let plans = [Some(&quiet), Some(&faulty)];
    degrade_bit_identically(&misbehaving, &g, &input, &ids, &plans);
    // Under the quiet plan each misbehaviour bites its own node, and the
    // mute ports of the stateless node and of the short sender leave
    // their neighbors unfinished.
    let run = simulate_sync_with(
        &misbehaving,
        &g,
        &input,
        &ids,
        None,
        24,
        RunOptions::new().faults(&quiet),
    );
    let faults = &run.outcome.faults;
    let filed: Vec<(u64, u64)> = faults.iter().map(|f| (f.node, f.round)).collect();
    let expected = [
        (30, 0),
        (20, 0),
        (8, 1),
        (19, 24),
        (21, 24),
        (29, 24),
        (31, 24),
        (40, 24),
    ];
    assert_eq!(filed, expected);
    assert_eq!(faults[0].payload, "misbehaving init at node 30");
    assert!(faults[1].payload.starts_with("sent 1 messages"));
    assert_eq!(faults[2].payload, "misbehaving receive at node 8");
    assert!(faults[3].payload.starts_with("did not halt"));
    assert!(faults[7].payload.starts_with("labeled 3 ports"));
}

/// Runs `alg` under each of `plans` on both substrates and checks
/// that they degrade bit-identically.
fn degrade_bit_identically<A>(
    alg: &A,
    g: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &[u64],
    plans: &[Option<&FaultPlan>],
) where
    A: SyncAlgorithm + Sync,
    A::State: Send,
    A::Msg: Send,
{
    for &plan in plans {
        let base_log = EventLog::new(4096);
        let baseline = simulate_sync_with(
            alg,
            g,
            input,
            ids,
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
                    alg,
                    g,
                    input,
                    ids,
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

/// A flood-max run of four rounds whose nodes genuinely misbehave by
/// id: the node holding `init_panics` panics in its init (so it has no
/// state), the one holding `panics` panics in its round-1 receive, the
/// one holding `short_send` sends one message short (so it dies mute
/// before its first send lands), and the one holding `long_label`
/// labels one port too many.
struct Misbehaving {
    init_panics: u64,
    panics: u64,
    short_send: u64,
    long_label: u64,
}

#[derive(Clone)]
struct FloodState {
    node: usize,
    id: u64,
    best: u64,
    degree: usize,
    round: u32,
}

impl SyncAlgorithm for Misbehaving {
    type State = FloodState;
    type Msg = u64;

    fn init(&self, init: &NodeInit) -> FloodState {
        if init.id == self.init_panics {
            panic!("misbehaving init at node {}", init.node.index());
        }
        FloodState {
            node: init.node.index(),
            id: init.id,
            best: init.id,
            degree: init.degree as usize,
            round: 0,
        }
    }

    fn send(&self, state: &FloodState, _round: u32) -> Vec<u64> {
        let short = usize::from(state.id == self.short_send);
        vec![state.best; state.degree - short]
    }

    fn receive(&self, state: &mut FloodState, inbox: &[u64], round: u32) {
        if state.id == self.panics && round == 1 {
            panic!("misbehaving receive at node {}", state.node);
        }
        state.best = inbox.iter().fold(state.best, |best, &m| best.max(m));
        state.round += 1;
    }

    fn is_done(&self, state: &FloodState) -> bool {
        state.round >= 4
    }

    fn output(&self, state: &FloodState) -> Vec<OutLabel> {
        let long = usize::from(state.id == self.long_label);
        vec![OutLabel(u32::from(state.best == state.id)); state.degree + long]
    }

    fn name(&self) -> &str {
        "misbehaving"
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
