//! Cross-model consistency: the same problems solved in LOCAL, VOLUME and
//! PROD-LOCAL, the order-invariance machinery, and the fooling pipelines
//! of Theorems 2.11, 4.1 and 5.1.

use lcl_landscape::core::speedup_grids::OrientationCanonical;
use lcl_landscape::core::speedup_volume::{
    canonical_transcript, run_fooled_volume, Canonicalized, ProbeDecision, TranscriptAlgorithm,
    TranscriptAsVolume,
};
use lcl_landscape::faults::RunOptions;
use lcl_landscape::graph::gen;
use lcl_landscape::grid::{OrderInvariantProdAlgorithm, OrientedGrid, ProdIds, RankGridView};
use lcl_landscape::lcl::{uniform_input, verify, OutLabel};
use lcl_landscape::local::{
    is_empirically_order_invariant, simulate_sync_with, FnAlgorithm, IdAssignment,
};
use lcl_landscape::problems::k_coloring;
use lcl_landscape::volume::NodeInfo;

/// The 3-coloring of an oriented cycle computed through VOLUME probes
/// must satisfy the same LCL as the LOCAL-model Cole–Vishkin.
#[test]
fn volume_and_local_solve_the_same_coloring() {
    use lcl_landscape::problems::cv::{orientation_inputs, ColeVishkin, Orientation};
    use lcl_landscape::problems::oriented_three_coloring;

    let n = 128;
    let g = gen::cycle(n);
    let problem = k_coloring(3, 2);
    let ids = IdAssignment::random_polynomial(n, 3, 17);

    // LOCAL (verified against the input-labeled form of the problem,
    // since the orientation arrives as input labels).
    let cv_input = orientation_inputs(&g, Orientation::Cycle);
    let oriented = oriented_three_coloring();
    let local_run = simulate_sync_with(
        &ColeVishkin,
        &g,
        &cv_input,
        &ids.iter().collect::<Vec<_>>(),
        None,
        100,
        RunOptions::new(),
    )
    .outcome;
    assert!(local_run.faults.is_empty(), "Cole–Vishkin halts");
    let local_run = local_run.outcome;
    assert!(verify(&oriented, &g, &cv_input, &local_run.output).is_empty());

    // VOLUME (same problem, no orientation inputs needed: ports carry it).
    let vinput = uniform_input(&g);
    let volume_run = lcl_landscape::volume::simulate_with(
        &lcl_bench::volume_algos::CvProbeColoring,
        &g,
        &vinput,
        &ids,
        None,
        RunOptions::new(),
    )
    .expect("in budget")
    .outcome
    .outcome;
    assert!(verify(&problem, &g, &vinput, &volume_run.output).is_empty());
    // The VOLUME complexity is probes, the LOCAL one rounds; both are
    // log*-small.
    assert!(volume_run.max_probes <= 20);
    assert!(local_run.rounds <= 12);
}

#[derive(Clone)]
struct LocalMinProbe;

impl TranscriptAlgorithm for LocalMinProbe {
    fn probe_budget(&self, _n: usize) -> usize {
        2
    }
    fn decide(&self, _n: usize, t: &[NodeInfo]) -> ProbeDecision {
        match t.len() {
            1 => ProbeDecision::Probe { j: 0, port: 0 },
            2 => ProbeDecision::Probe { j: 0, port: 1 },
            _ => ProbeDecision::Output(vec![
                OutLabel(u32::from(
                    t[0].id < t[1].id && t[0].id < t[2].id
                ));
                t[0].degree as usize
            ]),
        }
    }
}

#[test]
fn theorem_41_pipeline_preserves_outputs_and_caps_probes() {
    for n in [32usize, 512] {
        let g = gen::cycle(n);
        let input = uniform_input(&g);
        let ids = IdAssignment::random_polynomial(n, 3, n as u64 + 5);
        let plain = lcl_landscape::volume::simulate_with(
            &TranscriptAsVolume(LocalMinProbe),
            &g,
            &input,
            &ids,
            None,
            RunOptions::new(),
        )
        .expect("in budget")
        .outcome
        .outcome;
        let canon = lcl_landscape::volume::simulate_with(
            &TranscriptAsVolume(Canonicalized(LocalMinProbe)),
            &g,
            &input,
            &ids,
            None,
            RunOptions::new(),
        )
        .expect("in budget")
        .outcome
        .outcome;
        assert_eq!(plain.output, canon.output, "canonicalization is lossless");
        let fooled = run_fooled_volume(&LocalMinProbe, 8, &g, &input, &ids).expect("in budget");
        assert_eq!(plain.output, fooled.output, "fooling is lossless");
        assert_eq!(fooled.max_probes, 2);
    }
}

#[test]
fn canonical_transcripts_preserve_order_and_equality() {
    let t = vec![
        NodeInfo {
            id: 900,
            degree: 2,
            inputs: vec![],
        },
        NodeInfo {
            id: 20,
            degree: 1,
            inputs: vec![],
        },
        NodeInfo {
            id: 900,
            degree: 2,
            inputs: vec![],
        },
        NodeInfo {
            id: 500,
            degree: 3,
            inputs: vec![],
        },
    ];
    let c = canonical_transcript(&t);
    assert_eq!(c[0].id, c[2].id);
    assert!(c[1].id < c[3].id && c[3].id < c[0].id);
    assert_eq!(c[1].id, 0);
}

#[test]
fn order_invariance_checker_separates_algorithms() {
    let g = gen::cycle(10);
    let input = uniform_input(&g);
    let ids = IdAssignment::random_polynomial(10, 3, 2);
    let invariant = FnAlgorithm::new(
        "max",
        |_| 1,
        |view| {
            let me = view.ids[0];
            let max = view.ids.iter().copied().max().unwrap();
            vec![OutLabel(u32::from(me == max)); view.center_degree()]
        },
    );
    assert!(is_empirically_order_invariant(
        &invariant, &g, &input, &ids, 10, 3
    ));
    let dependent = FnAlgorithm::new(
        "mod3",
        |_| 0,
        |view| vec![OutLabel((view.ids[0] % 3) as u32); view.center_degree()],
    );
    assert!(!is_empirically_order_invariant(
        &dependent, &g, &input, &ids, 20, 3
    ));
}

#[derive(Clone, Debug)]
struct UpstreamEnd;

impl OrderInvariantProdAlgorithm for UpstreamEnd {
    fn radius(&self, _n: usize) -> u32 {
        1
    }
    fn label(&self, view: &RankGridView) -> Vec<OutLabel> {
        let is_min = (-1..=1).all(|o| view.rank(0, 0) <= view.rank(0, o));
        vec![OutLabel(u32::from(is_min)); 2 * view.d]
    }
}

#[test]
fn theorem_51_pipeline_is_identifier_free_across_sizes() {
    let alg = OrientationCanonical::new(UpstreamEnd, 9);
    let mut radii = Vec::new();
    for side in [3usize, 9, 15] {
        let grid = OrientedGrid::new(&[side, side]);
        let input = uniform_input(grid.graph());
        let a = lcl_landscape::grid::simulate_with(
            &alg,
            &grid,
            &input,
            &ProdIds::sequential(&grid),
            None,
            RunOptions::new(),
        )
        .outcome
        .outcome;
        let b = lcl_landscape::grid::simulate_with(
            &alg,
            &grid,
            &input,
            &ProdIds::random_polynomial(&grid, 3, 99),
            None,
            RunOptions::new(),
        )
        .outcome
        .outcome;
        assert_eq!(a.output, b.output, "side {side}");
        radii.push(a.radius);
    }
    // Constant radius regardless of grid size.
    assert!(radii.iter().all(|&r| r == radii[0]), "{radii:?}");
}

/// The paper (§1.1) discusses that on trees LOCAL = CONGEST; the suite's
/// algorithms can certify their bandwidth: Cole–Vishkin only ever sends
/// current colors, i.e. `O(log n)` bits.
#[test]
fn cole_vishkin_is_congest_compatible() {
    use lcl_landscape::local::run_congest;
    use lcl_landscape::problems::cv::{orientation_inputs, ColeVishkin, Orientation};

    let n = 256;
    let g = gen::cycle(n);
    let input = orientation_inputs(&g, Orientation::Cycle);
    let ids = IdAssignment::random_polynomial(n, 3, 11);
    let run = run_congest(
        &ColeVishkin,
        &g,
        &input,
        &ids.iter().collect::<Vec<_>>(),
        None,
        100,
        RunOptions::new(),
    )
    .outcome;
    // Messages are colors; initially identifiers < n³ = 2^24.
    assert!(run.is_congest(n, 3), "max = {} bits", run.max_message_bits);
    assert!(run.max_message_bits <= 24);
}

#[test]
fn three_dimensional_grids_work_too() {
    let grid = OrientedGrid::new(&[3, 4, 5]);
    assert_eq!(grid.dimension_count(), 3);
    let (rounds, valid) = lcl_bench::grid_algos::run_row_coloring(&grid, 3);
    assert!(valid);
    assert!(rounds <= 10);
}
