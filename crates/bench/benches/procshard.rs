//! `cargo bench -p lcl-bench --bench procshard` — the process-per-shard
//! substrate: a 10⁵-node clean cross-process run plus a seeded
//! SIGKILL-respawn-rehydrate chaos scenario, writing
//! `BENCH_procshard.json`. Needs `target/release/shard-worker`: run
//! `cargo build --release` first.

fn main() -> std::io::Result<()> {
    lcl_bench::procshard_report::procshard_report()?.print();
    Ok(())
}
