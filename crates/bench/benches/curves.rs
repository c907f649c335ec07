//! `cargo bench -p lcl-bench --bench curves` — sweeps every Figure 1
//! panel algorithm over decades of `n`, fits the event-derived cost
//! counts against the candidate asymptotic shapes, and writes the fits
//! to `BENCH_curves.json` for the `bench-diff` gate.

fn main() -> std::io::Result<()> {
    lcl_bench::curves::curves_report()?.print();
    Ok(())
}
