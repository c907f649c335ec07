//! `cargo bench -p lcl-bench --bench shard` — the sharded LOCAL
//! substrate: a 10⁶-node clean scale run plus a seeded whole-shard-loss
//! chaos-and-repair scenario, writing `BENCH_shard.json`.

fn main() -> std::io::Result<()> {
    lcl_bench::shard_report::shard_report()?.print();
    Ok(())
}
