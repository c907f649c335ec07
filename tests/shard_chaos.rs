//! Shard chaos: whole-shard crashes mid-superstep must walk the
//! recovery lattice end to end — *retry* (the crashed shard replays its
//! lost superstep from the snapshot), *resume* (healthy shards never
//! roll back), *repair* (cone-local mending of the frontier), *degrade*
//! (everything else untouched) — and finish `Certified`, with the
//! damage provably confined to the crashed shards and the healthy
//! shards' frontier. A healthy shard's interior must come out of the
//! whole ordeal bit-identical to a crash-free run.

use std::collections::BTreeSet;

use lcl_landscape::core::{tree_speedup, SpeedupOptions, SpeedupOutcome};
use lcl_landscape::faults::{Fault, FaultPlan, RunOptions};
use lcl_landscape::graph::{gen, Graph, NodeId, ShardMap};
use lcl_landscape::lcl::{uniform_input, HalfEdgeLabeling, LclProblem, OutLabel};
use lcl_landscape::local::{simulate_sync_with, NodeInit, SyncAlgorithm};
use lcl_landscape::obs::Counter;
use lcl_landscape::problems::anti_matching;
use lcl_landscape::recover::RepairOptions;
use lcl_landscape::shard::{repair_sharded, simulate_sharded_with};

/// Nodes a whole-shard loss is allowed to damage: every node of a
/// crashed shard (rebuilt, so normally unchanged anyway) and every
/// healthy node with a neighbor inside a crashed shard (the frontier
/// that lost a halo).
fn blast_radius(g: &Graph, map: &ShardMap, crashed: &BTreeSet<usize>) -> BTreeSet<NodeId> {
    let mut allowed = BTreeSet::new();
    for v in g.nodes() {
        let s = map.shard_of(v);
        if crashed.contains(&s) {
            allowed.insert(v);
            continue;
        }
        if g.neighbors_of(v)
            .any(|u| crashed.contains(&map.shard_of(u)))
        {
            allowed.insert(v);
        }
    }
    allowed
}

fn nodes_differing(
    g: &Graph,
    a: &HalfEdgeLabeling<OutLabel>,
    b: &HalfEdgeLabeling<OutLabel>,
) -> Vec<NodeId> {
    g.nodes()
        .filter(|&v| g.half_edges_of(v).any(|h| a.get(h) != b.get(h)))
        .collect()
}

struct ChaosStats {
    degraded: usize,
    repaired_nodes: u64,
}

/// One chaos case: crash `crashes` of `shards` shards at superstep 0 of
/// the synthesized E1 run, then retry → resume → repair → degrade, and
/// assert the run ends `Certified` with the damage inside the blast
/// radius.
///
/// `budget` is the round cap handed to the sharded run. At the tight
/// budget (`budget == steps`, the exact round count the synthesis
/// promises) a frontier node that loses a halo cannot catch up: it
/// records a `"no-halt"` fault, its output degrades to placeholder
/// labels, and repair must mend it. At a lenient budget the lifted
/// decoder absorbs the skipped round (see
/// [`lenient_budget_absorbs_halo_loss`]).
#[allow(clippy::too_many_arguments)]
fn chaos_case(
    problem: &LclProblem,
    alg: &(impl SyncAlgorithm<State: Send, Msg: Send> + Sync),
    steps: u32,
    budget: u32,
    seed: u64,
    n: usize,
    shards: usize,
    crashes: usize,
    stats: &mut ChaosStats,
) {
    let g = gen::random_tree(n, 3, seed);
    let input = uniform_input(&g);
    let ids: Vec<u64> = (0..g.node_count() as u64)
        .map(|i| i * 31 + seed * 7 + 1)
        .collect();
    let clean = simulate_sync_with(alg, &g, &input, &ids, None, 10, RunOptions::new()).outcome;
    assert!(clean.faults.is_empty(), "synthesized algorithms halt");
    let clean = clean.outcome;
    let plan = FaultPlan::random_shard_chaos(seed, shards, crashes, 0);
    let crashed: BTreeSet<usize> = plan
        .faults()
        .iter()
        .filter_map(|f| match f {
            Fault::ShardCrash { shard, .. } => Some(*shard),
            _ => None,
        })
        .collect();
    assert_eq!(
        crashed.len(),
        crashes,
        "seed {seed}: distinct crashed shards"
    );
    let threads = [1usize, 2, 8][seed as usize % 3];
    let run = simulate_sharded_with(
        alg,
        &g,
        &input,
        &ids,
        None,
        budget,
        threads,
        RunOptions::new().faults(&plan).sharded(shards),
    );
    assert_eq!(
        run.trace.total(Counter::ShardCrashes),
        crashes as u64,
        "seed {seed}"
    );
    assert_eq!(
        run.trace.total(Counter::ShardRebuilds),
        crashes as u64,
        "seed {seed}: every crashed shard must be rebuilt"
    );
    assert!(
        run.trace.total(Counter::Checkpoints) >= crashes as u64,
        "seed {seed}: crash-planned shards checkpoint"
    );
    let degraded_out = run.outcome.outcome.output.clone();
    if run.outcome.is_degraded() {
        stats.degraded += 1;
    }

    let map = ShardMap::new(g.node_count(), shards);
    let allowed = blast_radius(&g, &map, &crashed);
    // Pre-repair containment: the degraded output differs from the
    // crash-free run only inside the blast radius.
    for v in nodes_differing(&g, &degraded_out, &clean.output) {
        assert!(
            allowed.contains(&v),
            "seed {seed}: crash damage leaked to node {} in healthy shard {} interior",
            v.index(),
            map.shard_of(v)
        );
    }

    let (certified, report, patched) = repair_sharded(
        problem,
        alg,
        &g,
        &input,
        &ids,
        None,
        steps,
        degraded_out.clone(),
        RepairOptions { max_rounds: 3 },
    )
    .unwrap_or_else(|e| panic!("seed {seed}: chaos run must end Certified, got {e}"));
    stats.repaired_nodes += report.patched_nodes;

    // Post-repair containment: repair only ever *changed* nodes inside
    // the blast radius (patch writes outside it are no-ops by
    // construction), and outside the radius the certified output is
    // bit-identical to the crash-free run.
    for v in nodes_differing(&g, certified.get(), &degraded_out) {
        assert!(
            allowed.contains(&v),
            "seed {seed}: repair changed node {} outside the blast radius",
            v.index()
        );
    }
    for v in nodes_differing(&g, certified.get(), &clean.output) {
        assert!(
            allowed.contains(&v),
            "seed {seed}: certified output differs from the crash-free run at node {} \
             outside the blast radius",
            v.index()
        );
    }
    assert!(
        patched.windows(2).all(|w| w[0] < w[1]),
        "seed {seed}: patched witness is ascending"
    );
}

/// Soaks `seeds` chaos cases at the *tight* round budget: the run gets
/// exactly the `steps` rounds the Theorem 3.10/3.11 synthesis promises,
/// so every halo loss turns into real output damage that repair has to
/// mend.
fn run_soak(seeds: u64, n_base: usize, stats: &mut ChaosStats) {
    let problem = anti_matching(3);
    let outcome = tree_speedup(&problem, SpeedupOptions::default());
    let SpeedupOutcome::ConstantRound { steps, .. } = &outcome else {
        panic!("anti-matching synthesizes a constant-round algorithm");
    };
    let steps = *steps as u32;
    let alg = outcome.algorithm();
    let shards: usize = 8;
    let crashes = shards.div_ceil(4);
    for seed in 0..seeds {
        let n = n_base + (seed as usize % 7) * 13;
        chaos_case(
            &problem, &alg, steps, steps, seed, n, shards, crashes, stats,
        );
    }
}

/// Always-on smoke: a handful of shard-crash plans through the full
/// retry → resume → repair → degrade lattice.
#[test]
fn shard_chaos_smoke() {
    let mut stats = ChaosStats {
        degraded: 0,
        repaired_nodes: 0,
    };
    run_soak(6, 90, &mut stats);
    assert!(
        stats.degraded > 0,
        "no smoke run degraded — the chaos plans are vacuous"
    );
}

/// The full soak (gated in `scripts/check.sh` via `--include-ignored`):
/// 50 seeds, each crashing ⌈m/4⌉ of m = 8 shards at superstep 0 of the
/// synthesized E1 pipeline run, across 1/2/8 runner threads. Every run
/// must end `Certified`, repair must actually fire on a healthy
/// majority of seeds, and no healthy shard's interior may change.
#[test]
#[ignore = "50-seed soak; release gate via scripts/check.sh"]
fn shard_chaos_soak() {
    let mut stats = ChaosStats {
        degraded: 0,
        repaired_nodes: 0,
    };
    run_soak(50, 160, &mut stats);
    assert!(
        stats.degraded >= 25,
        "only {} of 50 chaos runs degraded — crashes are not biting",
        stats.degraded
    );
    assert!(
        stats.repaired_nodes > 0,
        "no run needed repair — the soak never exercised the mending leg"
    );
}

/// With a *lenient* round budget the lifted Lemma 3.9 decoder absorbs a
/// lost halo on its own: the frontier node skips the superstep, stays at
/// its current tower level, and decodes one round late — and because the
/// decode is a deterministic lexicographic choice it lands on exactly
/// the labels the crash-free run produced. The run degrades (faults are
/// recorded, one extra round is spent) but the output is bit-identical
/// to clean and repair certifies without patching a single node. The
/// tight-budget soak above exists precisely because of this: only when
/// the budget denies the catch-up round does halo loss become output
/// damage.
#[test]
fn lenient_budget_absorbs_halo_loss() {
    let problem = anti_matching(3);
    let outcome = tree_speedup(&problem, SpeedupOptions::default());
    let SpeedupOutcome::ConstantRound { steps, .. } = &outcome else {
        panic!("anti-matching synthesizes a constant-round algorithm");
    };
    let steps = *steps as u32;
    let alg = outcome.algorithm();
    let seed = 0u64;
    let n = 160;
    let g = gen::random_tree(n, 3, seed);
    let input = uniform_input(&g);
    let ids: Vec<u64> = (0..n as u64).map(|i| i * 31 + seed * 7 + 1).collect();
    let clean = simulate_sync_with(&alg, &g, &input, &ids, None, 10, RunOptions::new()).outcome;
    assert!(clean.faults.is_empty(), "synthesized algorithms halt");
    let clean = clean.outcome;
    assert_eq!(clean.rounds, steps, "the synthesis promise holds cleanly");
    let plan = FaultPlan::random_shard_chaos(seed, 8, 2, 0);
    let run = simulate_sharded_with(
        &alg,
        &g,
        &input,
        &ids,
        None,
        10,
        2,
        RunOptions::new().faults(&plan).sharded(8),
    );
    assert!(run.outcome.is_degraded(), "halo losses are recorded");
    assert_eq!(
        run.outcome.outcome.rounds,
        steps + 1,
        "the frontier spends one catch-up round"
    );
    assert!(
        nodes_differing(&g, &run.outcome.outcome.output, &clean.output).is_empty(),
        "the late decode reproduces the clean labels exactly"
    );
    let (_certified, report, patched) = repair_sharded(
        &problem,
        &alg,
        &g,
        &input,
        &ids,
        None,
        steps,
        run.outcome.outcome.output.clone(),
        RepairOptions { max_rounds: 3 },
    )
    .expect("a clean-equivalent output certifies");
    assert_eq!(report.patched_nodes, 0, "nothing to mend");
    assert!(patched.is_empty());
}

/// A round-guarded flooding algorithm safe under shard loss: a node
/// ignores every message after its own round counter reaches `k`, so a
/// lagging frontier node extending the run cannot corrupt finished
/// nodes (unlike an unguarded flood, whose monotone max would keep
/// absorbing stale beacons).
struct GuardedFlood {
    k: u32,
}

#[derive(Clone)]
struct FloodState {
    best: u64,
    mine: u64,
    degree: usize,
    round: u32,
    k: u32,
}

impl SyncAlgorithm for GuardedFlood {
    type State = FloodState;
    type Msg = u64;

    fn init(&self, init: &NodeInit) -> FloodState {
        FloodState {
            best: init.id,
            mine: init.id,
            degree: init.degree as usize,
            round: 0,
            k: self.k,
        }
    }

    fn send(&self, state: &FloodState, _round: u32) -> Vec<u64> {
        vec![state.best; state.degree]
    }

    fn receive(&self, state: &mut FloodState, inbox: &[u64], _round: u32) {
        if state.round >= state.k {
            return;
        }
        for &msg in inbox {
            state.best = state.best.max(msg);
        }
        state.round += 1;
    }

    fn is_done(&self, state: &FloodState) -> bool {
        state.round >= state.k
    }

    fn output(&self, state: &FloodState) -> Vec<OutLabel> {
        vec![OutLabel(u32::from(state.best == state.mine)); state.degree]
    }

    fn name(&self) -> &str {
        "guarded-flood"
    }
}

/// The scale demonstration (gated in `scripts/check.sh` via
/// `--include-ignored`): a 10⁷-node LOCAL run over 8 shards completes
/// under the default budget, and the output satisfies the flood
/// property at every single node — label 1 exactly where the node's
/// identifier is the maximum within distance 2 on the path.
#[test]
#[ignore = "10^7-node run; release gate via scripts/check.sh"]
fn ten_million_node_sharded_local_run() {
    const N: usize = 10_000_000;
    let g = gen::path(N);
    let input = uniform_input(&g);
    let ids: Vec<u64> = (0..N as u64).map(|i| i ^ 0x5a5a_5a5a).collect();
    let alg = GuardedFlood { k: 2 };
    let run = simulate_sharded_with(
        &alg,
        &g,
        &input,
        &ids,
        None,
        8,
        8,
        RunOptions::new().sharded(8),
    );
    assert!(run.outcome.faults.is_empty(), "clean run at scale");
    assert_eq!(run.outcome.outcome.rounds, 2);
    assert_eq!(run.trace.total(Counter::Shards), 8);
    assert_eq!(run.trace.total(Counter::Supersteps), 16);
    assert!(run.trace.total(Counter::HaloMessages) > 0);
    let out = &run.outcome.outcome.output;
    for i in 0..N {
        let lo = i.saturating_sub(2);
        let hi = (i + 2).min(N - 1);
        let is_max = (lo..=hi).all(|j| ids[j] <= ids[i]);
        let h = g
            .half_edges_of(NodeId(i as u32))
            .next()
            .expect("path nodes have degree >= 1");
        assert_eq!(
            out.get(h).0 == 1,
            is_max,
            "node {i}: flood property violated"
        );
    }
}
