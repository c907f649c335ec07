//! `cargo bench -p lcl-bench --bench recover` — regenerates only the
//! recovery counters (`BENCH_recover.json`): certified repair across the
//! four faulted models plus the supervised tower build.

fn main() -> std::io::Result<()> {
    let t0 = std::time::Instant::now();
    println!("LCL landscape — certified repair and supervised-resume counters");
    lcl_bench::recover_report::recover_report()?.print();
    println!("\nrecovery stages collected in {:.1?}", t0.elapsed());
    Ok(())
}
