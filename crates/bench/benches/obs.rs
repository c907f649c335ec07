//! `cargo bench -p lcl-bench --bench obs` — regenerates only the
//! per-stage execution traces (`BENCH_obs.json`) without rerunning the
//! full figure suite.

fn main() -> std::io::Result<()> {
    let t0 = std::time::Instant::now();
    println!("LCL landscape — per-stage execution traces for Figure 1");
    lcl_bench::obs_report::obs_report()?.print();
    println!("\ntraces collected in {:.1?}", t0.elapsed());
    Ok(())
}
