//! `cargo bench -p lcl-bench --bench chaos` — the chaos-soak stage:
//! faulted-entrypoint throughput over the chaos soak's own instances and
//! random fault plans. Writes no baseline JSON; the committed
//! `BENCH_*.json` files are untouched.

fn main() {
    let t0 = std::time::Instant::now();
    println!("LCL landscape — chaos soak over the faulted entrypoints");
    lcl_bench::chaos::chaos_stage(300).print();
    println!(
        "\nchaos soak finished in {:.1?} (zero panics)",
        t0.elapsed()
    );
}
