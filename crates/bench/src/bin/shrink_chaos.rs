//! `shrink-chaos <local|volume|lca|prod|shard|proc> <seed>` — bisect a
//! failing chaos seed to a minimal reproducing [`FaultPlan`].
//!
//! Argument parsing over [`lcl_bench::chaos::shrink`]: the instance and
//! its random plan come from the chaos table the chaos soak draws from,
//! so `local`, `volume`, `lca` and `prod` rebuild the soak's run for the
//! seed. Both plans print in the `FaultPlan::to_text` wire format, ready
//! to paste into a regression test; `scripts/shrink_chaos.sh` wraps it.
//! The `shard` plan adds whole-shard losses and the `proc` plan real
//! `SIGKILL`s (kills are output-transparent, so they reproduce through
//! the fault record); `proc` needs a `shard-worker` binary next to this
//! one. A failing fault-free run prints its error and exits non-zero.
//!
//! [`FaultPlan`]: lcl_faults::FaultPlan

use std::env;
use std::process::ExitCode;

use lcl_bench::chaos::{shrink, Model};
use lcl_procshard::ProcOptions;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().collect();
    let [_, model, seed] = args.as_slice() else {
        eprintln!("usage: shrink-chaos <local|volume|lca|prod|shard|proc> <seed>");
        return ExitCode::FAILURE;
    };
    let Ok(seed) = seed.parse::<u64>() else {
        eprintln!("seed must be a non-negative integer, got {seed:?}");
        return ExitCode::FAILURE;
    };
    let Some(model) = Model::parse(model) else {
        eprintln!("unknown model {model:?}; expected local, volume, lca, prod, shard, or proc");
        return ExitCode::FAILURE;
    };
    let shrunk = match shrink(model, seed, &ProcOptions::default()) {
        Ok(shrunk) => shrunk,
        Err(e) => {
            eprintln!("shrink-chaos: the fault-free run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let plan = model.plan(seed);
    println!(
        "model {}, seed {seed}, {} nodes",
        model.name(),
        model.size(seed)
    );
    println!("-- original plan ({} faults) --", plan.faults().len());
    print!("{}", plan.to_text());
    let Some(shrunk) = shrunk else {
        println!("-- plan does not reproduce (run is clean); nothing to shrink --");
        return ExitCode::SUCCESS;
    };
    println!(
        "-- shrunk plan ({} faults, permute-ids {}) --",
        shrunk.faults().len(),
        shrunk.permutes_ids()
    );
    print!("{}", shrunk.to_text());
    ExitCode::SUCCESS
}
