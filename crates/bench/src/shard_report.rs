//! Sharded-substrate benchmark: one large clean LOCAL run plus one
//! seeded shard-chaos-and-repair scenario, writing `BENCH_shard.json`
//! at the repository root.
//!
//! Two phases, both seed-determined:
//!
//! * **Scale** — a round-guarded flooding algorithm over a 10⁶-node
//!   path partitioned into 8 shards: every message, halo, and superstep
//!   count is a pure function of the instance, so the keys are diffed
//!   bit-exact.
//! * **Chaos + repair** — the synthesized E1 pipeline algorithm under a
//!   whole-shard-loss plan at the *tight* round budget (exactly the
//!   `steps` rounds the synthesis promises). The crashed shards rebuild
//!   from their snapshots; the healthy frontier loses its halos,
//!   degrades to placeholder labels, and is mended by the cone-gated
//!   frontier repair — ending `Certified` with only frontier nodes
//!   patched.
//!
//! Only `total_wall_ms` varies with the host; it goes under the report's
//! `walls`, every other value is a deterministic counter.

use std::collections::BTreeSet;
use std::time::Instant;

use lcl::uniform_input;
use lcl_core::{tree_speedup, SpeedupOptions, SpeedupOutcome};
use lcl_faults::{FaultPlan, RunOptions};
use lcl_graph::gen;
use lcl_obs::Counter;
use lcl_problems::anti_matching;
use lcl_procshard::GuardedFlood;
use lcl_recover::RepairOptions;
use lcl_shard::{repair_sharded, simulate_sharded_with};

use crate::report::{Json, Report};
use crate::table::Table;

/// Nodes in the clean scale run.
const SCALE_NODES: usize = 1_000_000;
/// Shards in both phases.
const SHARDS: usize = 8;
/// Runner threads for both phases.
const THREADS: usize = 2;
/// Nodes in the chaos instance.
const CHAOS_NODES: usize = 4_096;
/// Seed of the chaos plan and instance.
const CHAOS_SEED: u64 = 0x5a4d_c0de;
/// Whole-shard losses in the chaos plan (⌈SHARDS/4⌉).
const CRASHES: usize = SHARDS.div_ceil(4);

/// Everything `BENCH_shard.json` records.
pub struct ShardNumbers {
    /// Nodes in the scale run.
    pub nodes: u64,
    /// Edges in the scale run.
    pub edges: u64,
    /// Supersteps of the scale run (shards × rounds).
    pub supersteps: u64,
    /// Algorithm messages of the scale run.
    pub messages: u64,
    /// Cross-shard halo messages of the scale run.
    pub halo_messages: u64,
    /// Cross-shard halo bytes of the scale run.
    pub halo_bytes: u64,
    /// Whole-shard losses taken by the chaos run.
    pub shards_crashed: u64,
    /// Snapshot rebuilds performed by the chaos run.
    pub shards_rebuilt: u64,
    /// Superstep-start checkpoints taken by crash-planned shards.
    pub checkpoints: u64,
    /// Healthy frontier nodes that lost a halo in the chaos run.
    pub frontier_nodes: u64,
    /// Nodes rewritten by the cone-gated repair's patch (the witness;
    /// includes in-ball rewrites that did not change a label).
    pub repaired_nodes: u64,
    /// 1 iff the chaos run ended `Certified`.
    pub certified: u64,
    /// Host-dependent total wall time of both phases.
    pub total_wall_ms: f64,
}

/// Phase 1: the clean 10⁶-node run.
fn run_scale(numbers: &mut ShardNumbers) {
    let g = gen::path(SCALE_NODES);
    let input = uniform_input(&g);
    let ids: Vec<u64> = (0..SCALE_NODES as u64).map(|i| i ^ 0x5a5a_5a5a).collect();
    let run = simulate_sharded_with(
        &GuardedFlood { k: 2 },
        &g,
        &input,
        &ids,
        None,
        8,
        THREADS,
        RunOptions::new().sharded(SHARDS),
    );
    assert!(run.outcome.faults.is_empty(), "the scale run is clean");
    assert_eq!(run.outcome.outcome.rounds, 2);
    numbers.nodes = run.trace.total(Counter::Nodes);
    numbers.edges = run.trace.total(Counter::Edges);
    numbers.supersteps = run.trace.total(Counter::Supersteps);
    numbers.messages = run.trace.total(Counter::Messages);
    numbers.halo_messages = run.trace.total(Counter::HaloMessages);
    numbers.halo_bytes = run.trace.total(Counter::HaloBytes);
}

/// Phase 2: the seeded chaos-and-repair scenario at the tight budget.
fn run_chaos(numbers: &mut ShardNumbers) {
    let problem = anti_matching(3);
    let outcome = tree_speedup(&problem, SpeedupOptions::default());
    let steps = match &outcome {
        SpeedupOutcome::ConstantRound { steps, .. } => *steps as u32,
        other => {
            unreachable!("anti-matching synthesizes a constant-round algorithm, got {other:?}")
        }
    };
    let alg = outcome.algorithm();
    let g = gen::random_tree(CHAOS_NODES, 3, CHAOS_SEED);
    let input = uniform_input(&g);
    let ids: Vec<u64> = (0..CHAOS_NODES as u64)
        .map(|i| i * 31 + CHAOS_SEED * 7 + 1)
        .collect();
    let plan = FaultPlan::random_shard_chaos(CHAOS_SEED, SHARDS, CRASHES, 0);
    let run = simulate_sharded_with(
        &alg,
        &g,
        &input,
        &ids,
        None,
        steps,
        THREADS,
        RunOptions::new().faults(&plan).sharded(SHARDS),
    );
    numbers.shards_crashed = run.trace.total(Counter::ShardCrashes);
    numbers.shards_rebuilt = run.trace.total(Counter::ShardRebuilds);
    numbers.checkpoints = run.trace.total(Counter::Checkpoints);
    let frontier: BTreeSet<u64> = run
        .outcome
        .faults
        .iter()
        .filter(|f| f.payload.contains("halo from crashed shard"))
        .map(|f| f.node)
        .collect();
    numbers.frontier_nodes = frontier.len() as u64;
    let (certified, report, _patched) = repair_sharded(
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
    .expect("why: shard-loss damage is frontier-confined, so the cone repair mends it");
    let changed = g.nodes().filter(|&v| {
        g.half_edges_of(v)
            .any(|h| certified.get().get(h) != run.outcome.outcome.output.get(h))
    });
    for v in changed {
        assert!(
            frontier.contains(&u64::from(v.0)),
            "repair only ever changes frontier nodes, changed {}",
            v.index()
        );
    }
    numbers.repaired_nodes = report.patched_nodes;
    numbers.certified = 1;
}

/// The report: seed-determined counters, and the total wall.
pub fn report(n: &ShardNumbers) -> Report {
    Report {
        counters: Json::obj([
            ("shards", Json::num(SHARDS)),
            ("runner_threads", Json::num(THREADS)),
            ("nodes", Json::num(n.nodes)),
            ("edges", Json::num(n.edges)),
            ("supersteps", Json::num(n.supersteps)),
            ("messages", Json::num(n.messages)),
            ("halo_messages", Json::num(n.halo_messages)),
            ("halo_bytes", Json::num(n.halo_bytes)),
            ("shards_crashed", Json::num(n.shards_crashed)),
            ("shards_rebuilt", Json::num(n.shards_rebuilt)),
            ("checkpoints", Json::num(n.checkpoints)),
            ("frontier_nodes", Json::num(n.frontier_nodes)),
            ("repaired_nodes", Json::num(n.repaired_nodes)),
            ("certified", Json::num(n.certified)),
        ]),
        walls: Json::obj([("total_wall_ms", Json::fixed(n.total_wall_ms, 1))]),
        ..Report::new("shard")
    }
}

/// Runs both phases and writes `BENCH_shard.json` at the repository
/// root. Returns the summary table, or the write error.
pub fn shard_report() -> std::io::Result<Table> {
    let mut numbers = ShardNumbers {
        nodes: 0,
        edges: 0,
        supersteps: 0,
        messages: 0,
        halo_messages: 0,
        halo_bytes: 0,
        shards_crashed: 0,
        shards_rebuilt: 0,
        checkpoints: 0,
        frontier_nodes: 0,
        repaired_nodes: 0,
        certified: 0,
        total_wall_ms: 0.0,
    };
    let t0 = Instant::now();
    run_scale(&mut numbers);
    run_chaos(&mut numbers);
    numbers.total_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut table = Table::new(
        "SHARD — sharded LOCAL substrate: scale run + chaos-and-repair",
        &["metric", "value"],
    );
    table.row(crate::cells!(
        "shards × runner threads",
        format!("{SHARDS} × {THREADS}")
    ));
    table.row(crate::cells!("scale nodes", numbers.nodes));
    table.row(crate::cells!("scale supersteps", numbers.supersteps));
    table.row(crate::cells!("scale messages", numbers.messages));
    table.row(crate::cells!(
        "halo traffic (msgs / bytes)",
        format!("{} / {}", numbers.halo_messages, numbers.halo_bytes)
    ));
    table.row(crate::cells!(
        "chaos losses (crashed / rebuilt)",
        format!("{} / {}", numbers.shards_crashed, numbers.shards_rebuilt)
    ));
    table.row(crate::cells!("checkpoints", numbers.checkpoints));
    table.row(crate::cells!(
        "frontier damaged / patch witness",
        format!("{} / {}", numbers.frontier_nodes, numbers.repaired_nodes)
    ));
    table.row(crate::cells!("certified", numbers.certified == 1));
    table.row(crate::cells!(
        "total wall",
        format!("{:.1} ms", numbers.total_wall_ms)
    ));

    report(&numbers).write()?;
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{check_schema, diff};
    use lcl_obs::json::parse;

    #[test]
    fn emitted_json_passes_the_shard_schema() {
        let numbers = ShardNumbers {
            nodes: 100,
            edges: 99,
            supersteps: 16,
            messages: 396,
            halo_messages: 28,
            halo_bytes: 224,
            shards_crashed: 2,
            shards_rebuilt: 2,
            checkpoints: 2,
            frontier_nodes: 5,
            repaired_nodes: 3,
            certified: 1,
            total_wall_ms: 12.5,
        };
        let text = report(&numbers).to_json();
        let doc = parse(&text).expect("emitted JSON parses");
        assert!(check_schema(&doc).is_empty());
        assert!(diff(&doc, &doc).is_clean());
    }

    /// The chaos phase on a reduced instance: deterministic counters,
    /// a certified ending, and frontier-only repair — the same
    /// invariants the full benchmark asserts, sized for the test suite.
    #[test]
    fn reduced_chaos_phase_certifies() {
        let problem = anti_matching(3);
        let outcome = tree_speedup(&problem, SpeedupOptions::default());
        let SpeedupOutcome::ConstantRound { steps, .. } = &outcome else {
            panic!("anti-matching synthesizes a constant-round algorithm");
        };
        let steps = *steps as u32;
        let alg = outcome.algorithm();
        let n = 256;
        let g = gen::random_tree(n, 3, CHAOS_SEED);
        let input = uniform_input(&g);
        let ids: Vec<u64> = (0..n as u64).map(|i| i * 31 + CHAOS_SEED * 7 + 1).collect();
        let plan = FaultPlan::random_shard_chaos(CHAOS_SEED, SHARDS, CRASHES, 0);
        let run = simulate_sharded_with(
            &alg,
            &g,
            &input,
            &ids,
            None,
            steps,
            THREADS,
            RunOptions::new().faults(&plan).sharded(SHARDS),
        );
        assert_eq!(run.trace.total(Counter::ShardCrashes), CRASHES as u64);
        let (_certified, report, _patched) = repair_sharded(
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
        .expect("the reduced chaos scenario ends Certified");
        assert!(report.patched_nodes > 0, "the tight budget forces mending");
    }
}
