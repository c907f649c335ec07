//! `cargo bench -p lcl-bench --bench service` — the classification
//! service under the seeded 1k-request mix, writing `BENCH_service.json`.

fn main() -> std::io::Result<()> {
    lcl_bench::service_report::service_report()?.print();
    Ok(())
}
