//! The VOLUME model in action: adaptive probing, probe accounting, and
//! the Theorem 4.1 pipeline (canonicalize + fool at `n₀`).
//!
//! ```sh
//! cargo run --example volume_probes
//! ```

use lcl_landscape::core::speedup_volume::{
    run_fooled_volume, ProbeDecision, TranscriptAlgorithm, TranscriptAsVolume,
};
use lcl_landscape::faults::RunOptions;
use lcl_landscape::graph::gen;
use lcl_landscape::local::IdAssignment;
use lcl_landscape::volume::{simulate_with, NodeInfo};

/// An order-invariant 2-probe algorithm: am I a local minimum on the
/// cycle?
#[derive(Clone)]
struct LocalMin;

impl TranscriptAlgorithm for LocalMin {
    fn probe_budget(&self, _n: usize) -> usize {
        2
    }

    fn decide(&self, _n: usize, t: &[NodeInfo]) -> ProbeDecision {
        match t.len() {
            1 => ProbeDecision::Probe { j: 0, port: 0 },
            2 => ProbeDecision::Probe { j: 0, port: 1 },
            _ => ProbeDecision::Output(vec![
                lcl_landscape::lcl::OutLabel(u32::from(
                    t[0].id < t[1].id && t[0].id < t[2].id,
                ));
                t[0].degree as usize
            ]),
        }
    }

    fn name(&self) -> &str {
        "local-min"
    }
}

fn main() {
    let n = 256;
    let graph = gen::cycle(n);
    let input = lcl_landscape::lcl::uniform_input(&graph);
    let ids = IdAssignment::random_polynomial(n, 3, 1);

    // Plain run: the executor counts every probe. An out-of-contract
    // probe would surface as a typed `ProbeError` here.
    let plain = simulate_with(
        &TranscriptAsVolume(LocalMin),
        &graph,
        &input,
        &ids,
        None,
        RunOptions::new(),
    )
    .expect("local-min stays within its 2-probe budget")
    .outcome
    .outcome;
    println!(
        "plain run on n = {n}: max {} probes, {} total",
        plain.max_probes, plain.total_probes
    );

    // The Theorem 4.1 pipeline: canonicalize the identifiers in every
    // transcript (order-invariance) and announce min(n, n₀). For an
    // order-invariant algorithm the outputs are unchanged, and the probe
    // complexity is pinned to T(n₀) forever.
    let fooled = run_fooled_volume(&LocalMin, 16, &graph, &input, &ids)
        .expect("fooling caps the budget at T(16) = 2, which local-min respects");
    println!(
        "fooled at n₀ = 16: max {} probes, outputs identical: {}",
        fooled.max_probes,
        fooled.output == plain.output
    );
    assert_eq!(fooled.output, plain.output);

    // Local minima on a cycle: the count is between 1 and n/2.
    let minima = graph
        .nodes()
        .filter(|&v| {
            let h = graph.half_edge(v, 0);
            plain.output.get(h) == lcl_landscape::lcl::OutLabel(1)
        })
        .count();
    println!("{minima} local minima among {n} nodes");
    assert!(minima >= 1 && minima <= n / 2);
}
