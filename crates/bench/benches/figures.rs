//! `cargo bench -p lcl-bench --bench figures` — regenerates every figure
//! of the paper (Figure 1's four panels) and the theorem experiments
//! E5–E10, printing one aligned table per artifact. See `EXPERIMENTS.md`
//! for the paper-vs-measured discussion.

fn main() -> std::io::Result<()> {
    let t0 = std::time::Instant::now();
    println!("LCL landscape — reproducing Figure 1 and the gap theorems");
    println!("(paper: The Landscape of Distributed Complexities on Trees and Beyond, PODC 2022)");

    lcl_bench::fig1::trees().print();
    lcl_bench::fig1::grids().print();
    lcl_bench::fig1::general().print();
    lcl_bench::fig1::volume().print();

    lcl_bench::gaps::speedup_trees().print();
    lcl_bench::gaps::failure_probabilities().print();
    lcl_bench::gaps::volume_gap().print();
    lcl_bench::gaps::grid_gap().print();
    lcl_bench::gaps::landscape_paths().print();
    lcl_bench::gaps::label_growth().print();
    lcl_bench::gaps::high_girth_transfer().print();
    lcl_bench::gaps::unoriented_grids().print();
    lcl_bench::gaps::lemma33_cases().print();

    lcl_bench::re_engine::re_engine()?.print();
    lcl_bench::obs_report::obs_report()?.print();
    lcl_bench::curves::curves_report()?.print();

    println!("\nall experiments completed in {:.1?}", t0.elapsed());
    Ok(())
}
