//! Property-based tests: the gap theorems quantify over *all* LCL
//! problems, so the machinery is exercised on randomly generated ones.
//!
//! The build environment is offline, so instead of an external
//! property-testing framework these tests draw their cases from the
//! suite's own deterministic [`SmallRng`]: each test runs a fixed number
//! of cases from a fixed stream, making failures exactly reproducible
//! (the failing parameters are part of the panic message). Cases that
//! shrank out of historical failures are replayed explicitly first —
//! they used to live in `proptests.proptest-regressions`.

use lcl_rng::SmallRng;

use lcl_landscape::core::speedup_trees::brute_force_solvable;
use lcl_landscape::core::zero_round::{decide_zero_round, ZeroRoundOptions, ZeroRoundResult};
use lcl_landscape::faults::RunOptions;
use lcl_landscape::graph::{gen, NodeId};
use lcl_landscape::lcl::gen::{random_problem, RandomProblemSpec};
use lcl_landscape::lcl::{uniform_input, verify, LclProblem, OutLabel, Problem};
use lcl_landscape::local::{simulate_with, FnAlgorithm, IdAssignment};

/// A deterministic case stream per test (salted by name so tests don't
/// share cases).
fn cases(name: &str, count: usize) -> impl Iterator<Item = SmallRng> {
    let salt = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    });
    (0..count as u64).map(move |i| SmallRng::seed_from_u64(salt ^ i.wrapping_mul(0x9e37_79b9)))
}

/// Random trees are trees with bounded degree, and the CSR structure
/// is self-consistent (twin involution, port round-trips).
#[test]
fn random_trees_are_wellformed() {
    for mut rng in cases("random_trees_are_wellformed", 48) {
        let n = rng.gen_range(2usize..80);
        let delta = rng.gen_range(2u8..5);
        let seed = rng.gen_range(0u64..1000);
        let g = gen::random_tree(n, delta, seed);
        assert!(g.is_tree(), "n={n} delta={delta} seed={seed}");
        assert!(g.max_degree() <= delta, "n={n} delta={delta} seed={seed}");
        for h in g.half_edges() {
            assert_eq!(g.twin(g.twin(h)), h);
            let v = g.node_of(h);
            assert_eq!(g.half_edge(v, g.port_of(h)), h);
        }
    }
}

/// Ball extraction respects the visibility radius and contains the
/// center's full neighborhood structure.
#[test]
fn balls_respect_radius() {
    for mut rng in cases("balls_respect_radius", 48) {
        let n = rng.gen_range(3usize..60);
        let radius = rng.gen_range(0u32..5);
        let seed = rng.gen_range(0u64..500);
        let g = gen::random_tree(n, 3, seed);
        let center = NodeId((seed % n as u64) as u32);
        let ball = g.ball(center, radius);
        let dist = g.bfs_distances(center, radius);
        let expected = dist.iter().filter(|&&d| d != u32::MAX).count();
        assert_eq!(ball.node_count(), expected, "n={n} r={radius} seed={seed}");
        for node in &ball.nodes {
            assert!(node.dist <= radius);
            assert_eq!(u32::from(g.degree(node.original)), node.ports.len() as u32);
        }
    }
}

/// Problem text round-trips: parse(to_text(p)) preserves structure.
#[test]
fn problem_text_roundtrip() {
    // Replayed regression case, then fresh ones.
    let replay = std::iter::once(113u64);
    let fresh = cases("problem_text_roundtrip", 48).map(|mut rng| rng.gen_range(0u64..500));
    for seed in replay.chain(fresh) {
        let p = random_problem(RandomProblemSpec::default(), seed);
        let q = LclProblem::parse(&p.with_opaque_names().to_text()).unwrap();
        assert_eq!(p.node_config_count(), q.node_config_count(), "seed={seed}");
        assert_eq!(p.edge_config_count(), q.edge_config_count(), "seed={seed}");
        assert_eq!(
            p.output_alphabet().len(),
            q.output_alphabet().len(),
            "seed={seed}"
        );
    }
}

/// If the 0-round decision extracts a table, running that table as a
/// LOCAL algorithm produces correct solutions on random forests.
#[test]
fn zero_round_tables_are_sound() {
    for mut rng in cases("zero_round_tables_are_sound", 48) {
        let seed = rng.gen_range(0u64..300);
        let gseed = rng.gen_range(0u64..100);
        let p = random_problem(
            RandomProblemSpec {
                max_degree: 3,
                inputs: 2,
                outputs: 3,
                density_percent: 70,
            },
            seed,
        );
        if let ZeroRoundResult::Solvable(adet) = decide_zero_round(&p, ZeroRoundOptions::default())
        {
            let g = gen::random_forest(24, 3, 3, gseed);
            // Random inputs per half-edge.
            let input = lcl_landscape::lcl::HalfEdgeLabeling::from_fn(&g, |h| {
                lcl_landscape::lcl::InLabel((h.0.wrapping_mul(2654435761) >> 16) % 2)
            });
            let adet_ref = &adet;
            let alg = FnAlgorithm::new(
                "adet",
                |_| 0,
                move |view| {
                    let d = view.center_degree();
                    adet_ref.outputs_for(&view.inputs[..d])
                },
            );
            let ids = IdAssignment::sequential(24);
            let run = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new())
                .outcome
                .outcome;
            let violations = verify(&p, &g, &input, &run.output);
            assert!(
                violations.is_empty(),
                "seed={seed} gseed={gseed}: {violations:?}"
            );
        }
    }
}

/// If brute force finds no solution on a small forest, the 0-round
/// decision must not claim solvability.
#[test]
fn zero_round_unsolvable_is_consistent() {
    for mut rng in cases("zero_round_unsolvable_is_consistent", 48) {
        let seed = rng.gen_range(0u64..200);
        let p = random_problem(
            RandomProblemSpec {
                max_degree: 2,
                inputs: 1,
                outputs: 2,
                density_percent: 35,
            },
            seed,
        );
        let g = gen::path(3);
        let input = uniform_input(&g);
        if !brute_force_solvable(&p, &g, &input) {
            let decision = decide_zero_round(&p, ZeroRoundOptions::default());
            assert!(!decision.is_solvable(), "seed={seed}");
        }
    }
}

/// The verifier treats node configurations as multisets: permuting a
/// node's outputs does not change validity.
#[test]
fn node_constraints_are_order_insensitive() {
    for mut rng in cases("node_constraints_are_order_insensitive", 48) {
        let seed = rng.gen_range(0u64..300);
        let p = random_problem(RandomProblemSpec::default(), seed);
        let outs = p.output_alphabet().len() as u32;
        let config = [
            OutLabel(seed as u32 % outs),
            OutLabel((seed as u32 / 7) % outs),
            OutLabel((seed as u32 / 49) % outs),
        ];
        let mut rotated = config;
        rotated.rotate_left(1);
        assert_eq!(
            p.node_allows(&config),
            p.node_allows(&rotated),
            "seed={seed}"
        );
    }
}

fn check_synthesized_cycle_algorithm_is_sound(seed: u64, n: usize) {
    use lcl_landscape::classify::synthesize_cycle;
    let p = random_problem(
        RandomProblemSpec {
            max_degree: 2,
            inputs: 1,
            outputs: 3,
            density_percent: 55,
        },
        seed,
    );
    if let Ok(Some(alg)) = synthesize_cycle(&p) {
        let n = n.max(3);
        // Flexibility guarantees solvability for all *large* n; skip
        // the (finitely many) unsolvable small sizes.
        let table = lcl_landscape::classify::solvable_cycle_lengths_up_to(&p, n)
            .expect("input-independent");
        if !table.last().is_some_and(|&(_, s)| s) {
            return;
        }
        let g = gen::cycle(n);
        let input = uniform_input(&g);
        let ids = IdAssignment::random_polynomial(g.node_count(), 3, seed);
        let run = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new())
            .outcome
            .outcome;
        let violations = verify(&p, &g, &input, &run.output);
        assert!(
            violations.is_empty(),
            "problem {} on C{}: {:?}",
            p.to_text(),
            n,
            violations
        );
    }
}

/// Classify-then-synthesize soundness on random degree-2 LCLs: when
/// the synthesizer emits an algorithm, the algorithm's output
/// verifies on concrete cycles. (The classifier's *claims* are thus
/// cross-checked by execution — a decidability result made
/// falsifiable.)
#[test]
fn synthesized_cycle_algorithms_are_sound() {
    // Replayed regression case (historically shrank to seed=52, n=8).
    check_synthesized_cycle_algorithm_is_sound(52, 8);
    for mut rng in cases("synthesized_cycle_algorithms_are_sound", 48) {
        let seed = rng.gen_range(0u64..400);
        let n = rng.gen_range(8usize..48);
        check_synthesized_cycle_algorithm_is_sound(seed, n);
    }
}

fn check_synthesized_path_algorithm_is_sound(seed: u64, n: usize) {
    use lcl_landscape::classify::synthesize_path;
    let p = random_problem(
        RandomProblemSpec {
            max_degree: 2,
            inputs: 1,
            outputs: 3,
            density_percent: 60,
        },
        seed,
    );
    if let Ok(Some(alg)) = synthesize_path(&p) {
        let table =
            lcl_landscape::classify::solvable_path_lengths_up_to(&p, n).expect("input-independent");
        if !table.last().is_some_and(|&(_, s)| s) {
            return;
        }
        let g = gen::path(n);
        let input = uniform_input(&g);
        let ids = IdAssignment::random_polynomial(n, 3, seed + 1);
        let run = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new())
            .outcome
            .outcome;
        let violations = verify(&p, &g, &input, &run.output);
        assert!(
            violations.is_empty(),
            "problem {} on P{}: {:?}",
            p.to_text(),
            n,
            violations
        );
    }
}

/// The same soundness property for the path synthesizer, which
/// additionally exercises endpoint (prefix/suffix) handling.
#[test]
fn synthesized_path_algorithms_are_sound() {
    // Replayed regression case (historically shrank to seed=143, n=2).
    check_synthesized_path_algorithm_is_sound(143, 2);
    for mut rng in cases("synthesized_path_algorithms_are_sound", 48) {
        let seed = rng.gen_range(0u64..300);
        let n = rng.gen_range(2usize..40);
        check_synthesized_path_algorithm_is_sound(seed, n);
    }
}

/// Torus coordinates round-trip and the port convention encodes the
/// orientation for every dimension.
#[test]
fn torus_ports_encode_orientation() {
    for mut rng in cases("torus_ports_encode_orientation", 12) {
        let dims = [
            rng.gen_range(3usize..6),
            rng.gen_range(3usize..6),
            rng.gen_range(3usize..5),
        ];
        let g = gen::torus(&dims);
        for v in g.nodes() {
            let coords = gen::torus_coords(&dims, v.index());
            for (k, &dim) in dims.iter().enumerate() {
                let h = g.half_edge(v, (2 * k) as u8);
                let mut plus = coords.clone();
                plus[k] = (plus[k] + 1) % dim;
                assert_eq!(g.neighbor(h).index(), gen::torus_id(&dims, &plus));
            }
        }
    }
}
