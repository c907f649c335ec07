//! Process-per-shard benchmark: one clean cross-process scale run plus
//! one seeded SIGKILL-chaos scenario, writing `BENCH_procshard.json`
//! at the repository root.
//!
//! Two phases, both seed-determined:
//!
//! * **Clean** — a round-guarded flooding algorithm over a 10⁵-node
//!   path split across 8 `shard-worker` processes: every message,
//!   halo, and superstep count is a pure function of the instance, so
//!   the keys are diffed bit-exact.
//! * **Kill chaos** — the synthesized E1 pipeline algorithm while the
//!   fault plan SIGKILLs 2 of the 8 worker processes mid-superstep.
//!   The supervisor respawns each victim, rehydrates it by command
//!   replay, and the run's output must be **bit-identical** to the
//!   clean unsharded run; `repair_sharded` then certifies it without
//!   patching a node.
//!
//! The worker binary is resolved next to the bench executable's
//! parent directory (`target/release/shard-worker`), so run
//! `cargo build --release` first — `scripts/check.sh` does.
//!
//! Only the `*_wall_ms` keys vary with the host; every other key is a
//! deterministic counter.

use std::fmt::Write as _;
use std::time::Instant;

use lcl::uniform_input;
use lcl_core::{tree_speedup, SpeedupOptions, SpeedupOutcome};
use lcl_faults::{FaultPlan, RunOptions};
use lcl_local::simulate_sync_with;
use lcl_obs::Counter;
use lcl_problems::anti_matching;
use lcl_procshard::{run_proc_sharded, AlgSpec, GraphSpec, InputSpec, ProcJob, ProcOptions};
use lcl_recover::RepairOptions;
use lcl_shard::repair_sharded;

use crate::table::Table;

/// Nodes in the clean scale run.
const SCALE_NODES: usize = 100_000;
/// Worker processes in both phases.
const SHARDS: usize = 8;
/// Nodes in the kill-chaos instance.
const CHAOS_NODES: usize = 4_096;
/// Seed of the kill plan and instance.
const CHAOS_SEED: u64 = 0x5169_c111;
/// SIGKILLs delivered by the chaos plan (⌈SHARDS/4⌉).
const KILLS: usize = SHARDS.div_ceil(4);

/// Everything `BENCH_procshard.json` records.
pub struct ProcShardNumbers {
    /// Nodes in the clean scale run.
    pub nodes: u64,
    /// Edges in the clean scale run.
    pub edges: u64,
    /// Supersteps of the clean scale run (shards × rounds).
    pub supersteps: u64,
    /// Algorithm messages of the clean scale run.
    pub messages: u64,
    /// Cross-process halo messages of the clean scale run.
    pub halo_messages: u64,
    /// Cross-process halo bytes of the clean scale run.
    pub halo_bytes: u64,
    /// SIGKILLs the chaos plan delivered.
    pub kills_injected: u64,
    /// Worker respawns the supervisor performed.
    pub respawns: u64,
    /// Distinct workers brought back by replay rehydration.
    pub rehydrated_shards: u64,
    /// Faults on the chaos run's record (one per kill).
    pub faults: u64,
    /// 1 iff the chaos run's output was bit-identical to the clean
    /// unsharded run and `repair_sharded` certified it with zero
    /// patched nodes.
    pub certified: u64,
    /// Host-dependent wall time of the clean phase.
    pub clean_wall_ms: f64,
    /// Host-dependent wall time of the kill-chaos phase.
    pub chaos_wall_ms: f64,
    /// Host-dependent total wall time of both phases.
    pub total_wall_ms: f64,
}

/// Phase 1: the clean 10⁵-node cross-process run.
fn run_clean(numbers: &mut ProcShardNumbers) {
    let job = ProcJob {
        graph: GraphSpec::Path { n: SCALE_NODES },
        alg: AlgSpec::GuardedFlood { k: 2 },
        input: InputSpec::Uniform,
        ids: (0..SCALE_NODES as u64).map(|i| i ^ 0x5a5a_5a5a).collect(),
        n_announced: None,
        max_rounds: 8,
    };
    let run = run_proc_sharded(
        &job,
        RunOptions::new().sharded(SHARDS),
        &ProcOptions::default(),
    )
    .expect("why: the clean scale run needs target/release/shard-worker — run cargo build --release first");
    assert!(run.outcome.faults.is_empty(), "the scale run is clean");
    assert_eq!(run.outcome.outcome.rounds, 2);
    numbers.nodes = run.trace.total(Counter::Nodes);
    numbers.edges = run.trace.total(Counter::Edges);
    numbers.supersteps = run.trace.total(Counter::Supersteps);
    numbers.messages = run.trace.total(Counter::Messages);
    numbers.halo_messages = run.trace.total(Counter::HaloMessages);
    numbers.halo_bytes = run.trace.total(Counter::HaloBytes);
}

/// Phase 2: the seeded SIGKILL-chaos scenario.
fn run_kill_chaos(numbers: &mut ProcShardNumbers) {
    let problem = anti_matching(3);
    let outcome = tree_speedup(&problem, SpeedupOptions::default());
    let steps = match &outcome {
        SpeedupOutcome::ConstantRound { steps, .. } => *steps as u32,
        other => {
            unreachable!("anti-matching synthesizes a constant-round algorithm, got {other:?}")
        }
    };
    let alg = outcome.algorithm();
    let spec = GraphSpec::RandomTree {
        n: CHAOS_NODES,
        max_degree: 3,
        seed: CHAOS_SEED,
    };
    let g = spec.build();
    let input = uniform_input(&g);
    let ids: Vec<u64> = (0..CHAOS_NODES as u64)
        .map(|i| i * 31 + CHAOS_SEED * 7 + 1)
        .collect();
    let clean = simulate_sync_with(&alg, &g, &input, &ids, None, 10, RunOptions::new());
    let plan = FaultPlan::random_kill_chaos(CHAOS_SEED, SHARDS, KILLS, 0);
    let job = ProcJob {
        graph: spec,
        alg: AlgSpec::AntiMatchingE1 { delta: 3 },
        input: InputSpec::Uniform,
        ids: ids.clone(),
        n_announced: None,
        max_rounds: 10,
    };
    let run = run_proc_sharded(
        &job,
        RunOptions::new().sharded(SHARDS).faults(&plan),
        &ProcOptions::default(),
    )
    .expect("why: SIGKILLed workers are respawned and replayed, never fatal");
    numbers.kills_injected = KILLS as u64;
    numbers.respawns = run.trace.total(Counter::Retries);
    numbers.rehydrated_shards = (0..SHARDS)
        .filter(|&s| !plan.shard_kills(s).is_empty())
        .count() as u64;
    numbers.faults = run.outcome.faults.len() as u64;
    assert_eq!(
        run.outcome.outcome, clean.outcome.outcome,
        "kills are output-transparent"
    );
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
    .expect("why: a replay-rehydrated output is clean-equivalent, so it certifies");
    assert_eq!(report.patched_nodes, 0, "rehydration left nothing to mend");
    numbers.certified = 1;
}

/// Renders the flat JSON document. Counters are seed-determined and
/// diffed bit-exact; only the `*_wall_ms` keys are compared under
/// tolerance.
pub fn emit_json(n: &ProcShardNumbers) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"procshard\",");
    let _ = writeln!(out, "  \"shards\": {SHARDS},");
    let _ = writeln!(out, "  \"nodes\": {},", n.nodes);
    let _ = writeln!(out, "  \"edges\": {},", n.edges);
    let _ = writeln!(out, "  \"supersteps\": {},", n.supersteps);
    let _ = writeln!(out, "  \"messages\": {},", n.messages);
    let _ = writeln!(out, "  \"halo_messages\": {},", n.halo_messages);
    let _ = writeln!(out, "  \"halo_bytes\": {},", n.halo_bytes);
    let _ = writeln!(out, "  \"kills_injected\": {},", n.kills_injected);
    let _ = writeln!(out, "  \"respawns\": {},", n.respawns);
    let _ = writeln!(out, "  \"rehydrated_shards\": {},", n.rehydrated_shards);
    let _ = writeln!(out, "  \"faults\": {},", n.faults);
    let _ = writeln!(out, "  \"certified\": {},", n.certified);
    let _ = writeln!(out, "  \"clean_wall_ms\": {:.1},", n.clean_wall_ms);
    let _ = writeln!(out, "  \"chaos_wall_ms\": {:.1},", n.chaos_wall_ms);
    let _ = writeln!(out, "  \"total_wall_ms\": {:.1}", n.total_wall_ms);
    out.push_str("}\n");
    out
}

/// Runs both phases, prints the summary table, and writes
/// `BENCH_procshard.json` at the repository root. Returns the table.
pub fn procshard_report() -> Table {
    let mut numbers = ProcShardNumbers {
        nodes: 0,
        edges: 0,
        supersteps: 0,
        messages: 0,
        halo_messages: 0,
        halo_bytes: 0,
        kills_injected: 0,
        respawns: 0,
        rehydrated_shards: 0,
        faults: 0,
        certified: 0,
        clean_wall_ms: 0.0,
        chaos_wall_ms: 0.0,
        total_wall_ms: 0.0,
    };
    let t0 = Instant::now();
    run_clean(&mut numbers);
    numbers.clean_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    run_kill_chaos(&mut numbers);
    numbers.chaos_wall_ms = t1.elapsed().as_secs_f64() * 1e3;
    numbers.total_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut table = Table::new(
        "PROCSHARD — process-per-shard substrate: clean scale run + SIGKILL chaos",
        &["metric", "value"],
    );
    table.row(crate::cells!("worker processes", SHARDS));
    table.row(crate::cells!("scale nodes", numbers.nodes));
    table.row(crate::cells!("scale supersteps", numbers.supersteps));
    table.row(crate::cells!("scale messages", numbers.messages));
    table.row(crate::cells!(
        "halo traffic (msgs / bytes)",
        format!("{} / {}", numbers.halo_messages, numbers.halo_bytes)
    ));
    table.row(crate::cells!(
        "kills / respawns / rehydrated",
        format!(
            "{} / {} / {}",
            numbers.kills_injected, numbers.respawns, numbers.rehydrated_shards
        )
    ));
    table.row(crate::cells!("faults on record", numbers.faults));
    table.row(crate::cells!("certified", numbers.certified == 1));
    table.row(crate::cells!(
        "clean / chaos wall",
        format!(
            "{:.1} ms / {:.1} ms",
            numbers.clean_wall_ms, numbers.chaos_wall_ms
        )
    ));
    table.row(crate::cells!(
        "total wall",
        format!("{:.1} ms", numbers.total_wall_ms)
    ));

    let json = emit_json(&numbers);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_procshard.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{check_schema, detect_schema, diff, DiffOptions, Schema};
    use lcl_obs::json::parse;

    #[test]
    fn emitted_json_passes_the_procshard_schema() {
        let numbers = ProcShardNumbers {
            nodes: 100,
            edges: 99,
            supersteps: 16,
            messages: 396,
            halo_messages: 28,
            halo_bytes: 224,
            kills_injected: 2,
            respawns: 2,
            rehydrated_shards: 2,
            faults: 2,
            certified: 1,
            clean_wall_ms: 120.5,
            chaos_wall_ms: 80.2,
            total_wall_ms: 200.7,
        };
        let text = emit_json(&numbers);
        let doc = parse(&text).expect("emitted JSON parses");
        assert_eq!(detect_schema(&doc), Schema::ProcShard);
        assert!(check_schema(&doc, Schema::ProcShard).is_empty());
        assert!(diff(&doc, &doc, DiffOptions::default()).is_clean());
    }
}
