//! `cargo bench -p lcl-bench --bench micro` — microbenchmarks of the
//! suite's hot paths: ball extraction, verification, LOCAL/VOLUME
//! execution, a round-elimination step, and the 0-round decision.
//!
//! Uses the self-contained harness in [`lcl_bench::timing`] (the build
//! environment is offline, so Criterion is not available).

use lcl_bench::timing::bench_function;
use lcl_core::zero_round::ZeroRoundOptions;
use lcl_core::{decide_zero_round, ReOptions, ReTower};
use lcl_faults::RunOptions;
use lcl_graph::{gen, NodeId};
use lcl_local::{run_sync, IdAssignment};
use lcl_problems::cv::{orientation_inputs, ColeVishkin, Orientation};
use lcl_problems::{anti_matching, k_coloring};

fn bench_ball_extraction() {
    let g = gen::random_tree(4096, 3, 1);
    bench_function("ball_radius_4_tree_4096", || {
        g.ball(NodeId(2048), 4).node_count()
    });
}

fn bench_verifier() {
    let g = gen::cycle(4096);
    let p = k_coloring(3, 2);
    let input = lcl::uniform_input(&g);
    let output: lcl::HalfEdgeLabeling<lcl::OutLabel> = g
        .half_edges()
        .map(|h| lcl::OutLabel(g.node_of(h).0 % 3))
        .collect();
    bench_function("verify_3coloring_cycle_4096", || {
        lcl::verify(&p, &g, &input, &output).len()
    });
}

fn bench_cole_vishkin() {
    let g = gen::cycle(1024);
    let input = orientation_inputs(&g, Orientation::Cycle);
    let ids = IdAssignment::random_polynomial(1024, 3, 7);
    let id_vec: Vec<u64> = ids.iter().collect();
    bench_function("cole_vishkin_cycle_1024", || {
        run_sync(&ColeVishkin, &g, &input, &id_vec, None, 100).rounds
    });
}

fn bench_re_step() {
    let p = k_coloring(3, 3);
    bench_function("re_step_f_3coloring", || {
        let mut tower = ReTower::new(p.clone());
        tower.push_f(ReOptions::default()).expect("fits");
        tower.alphabet_size(2)
    });
}

fn bench_zero_round() {
    let p = anti_matching(3);
    let mut tower = ReTower::new(p);
    tower.push_f(ReOptions::default()).expect("fits");
    bench_function("zero_round_decision_f_anti_matching", || {
        decide_zero_round(&tower.level(2), ZeroRoundOptions::default()).is_solvable()
    });
}

fn bench_synthesize_cycle() {
    let p = k_coloring(3, 2);
    bench_function("synthesize_cycle_3coloring", || {
        lcl_classify::synthesize_cycle(&p).unwrap().is_some()
    });
    let alg = lcl_classify::synthesize_cycle(&p).unwrap().unwrap();
    let g = gen::cycle(512);
    let input = lcl::uniform_input(&g);
    let ids = IdAssignment::random_polynomial(512, 3, 5);
    bench_function("run_synthesized_3coloring_cycle_512", || {
        lcl_local::simulate_with(&alg, &g, &input, &ids, None, RunOptions::new())
            .outcome
            .outcome
            .radius
    });
}

fn bench_volume_probes() {
    let g = gen::cycle(2048);
    let input = lcl::uniform_input(&g);
    let ids = IdAssignment::random_polynomial(2048, 3, 3);
    bench_function("volume_cv_probes_cycle_2048", || {
        lcl_volume::simulate_with(
            &lcl_bench::volume_algos::CvProbeColoring,
            &g,
            &input,
            &ids,
            None,
            RunOptions::new(),
        )
        .expect("in budget")
        .outcome
        .outcome
        .max_probes
    });
}

fn main() {
    bench_ball_extraction();
    bench_verifier();
    bench_cole_vishkin();
    bench_re_step();
    bench_zero_round();
    bench_synthesize_cycle();
    bench_volume_probes();
}
