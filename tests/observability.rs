//! The obs determinism contract, end to end.
//!
//! Every trace in the suite must be a pure function of the instance and
//! the algorithm — wall-clock time is the *only* nondeterministic
//! quantity, and [`Trace::fingerprint`] excludes it. This test drives
//! that contract through every layer:
//!
//! * round-elimination towers traced under different threading configs
//!   must produce bit-identical fingerprints (including the memo
//!   counters, which are defined scheduling-independently);
//! * all four model entrypoints (`simulate_*_with`) must return
//!   non-empty, reproducible traces, and a run without a fault plan
//!   must be clean;
//! * the bench registry behind `BENCH_obs.json` must be reproducible;
//! * for classified cycle problems, the LOCAL rounds reported in the
//!   trace must respect the classified tier (`O(1)` stays constant,
//!   `Θ(log* n)` stays within a generous `c·log* n + c`).

use lcl::{LclProblem, OutLabel};
use lcl_landscape::classify::{classify_oriented_cycle, synthesize_cycle_traced, PathClass};
use std::sync::Arc;

use lcl_landscape::core::{tree_speedup_logged, ReOptions, ReTower, SpeedupOptions};
use lcl_landscape::faults::RunOptions;
use lcl_landscape::graph::gen;
use lcl_landscape::graph::math::log_star;
use lcl_landscape::local::IdAssignment;
use lcl_landscape::obs::{Counter, Event, EventLog, Trace};
use lcl_landscape::problems::catalog::{
    anti_matching, k_coloring, oriented_three_coloring, sinkless_orientation, two_coloring,
};
use lcl_landscape::volume::lca::VolumeAsLca;

fn tower_trace(problem: &LclProblem, steps: usize, parallel: bool, threads: usize) -> Trace {
    let opts = ReOptions {
        parallel,
        threads,
        ..ReOptions::default()
    };
    let mut tower = ReTower::new(problem.clone());
    for _ in 0..steps {
        tower.push_f(opts).expect("battery fits default caps");
    }
    tower.trace()
}

/// Towers built sequentially, parallel on one worker, and parallel on
/// four workers must report identical traces — every counter, including
/// memo traffic, span for span.
#[test]
fn tower_fingerprints_identical_across_threading() {
    for (problem, steps) in [
        (anti_matching(3), 2),
        (k_coloring(3, 3), 1),
        (sinkless_orientation(3), 2),
    ] {
        let seq = tower_trace(&problem, steps, false, 1);
        let par1 = tower_trace(&problem, steps, true, 1);
        let par4 = tower_trace(&problem, steps, true, 4);
        assert_eq!(
            seq.fingerprint(),
            par1.fingerprint(),
            "{}: sequential vs parallel(1)",
            problem.problem_name()
        );
        assert_eq!(
            seq.fingerprint(),
            par4.fingerprint(),
            "{}: sequential vs parallel(4)",
            problem.problem_name()
        );
        assert!(seq.find("level-1/r").is_some());
    }
}

/// Event logging must not perturb the determinism contract: the full
/// tree-speedup pipeline with an attached [`EventLog`] reports
/// bit-identical fingerprints on 1, 2, and 8 worker threads, and every
/// run's log carries the same level completions.
#[test]
fn logged_speedup_fingerprints_identical_across_thread_counts() {
    let problem = anti_matching(3);
    let mut fingerprints = Vec::new();
    let mut completions = Vec::new();
    for threads in [1, 2, 8] {
        let opts = SpeedupOptions {
            re: ReOptions {
                parallel: true,
                threads,
                ..ReOptions::default()
            },
            ..SpeedupOptions::default()
        };
        let log = Arc::new(EventLog::new(4096));
        let report = tree_speedup_logged(&problem, opts, Some(Arc::clone(&log)));
        let attached = report
            .events()
            .expect("logged run must attach its event log");
        assert!(
            !attached.is_empty(),
            "logged run must record events ({threads} threads)"
        );
        fingerprints.push(report.trace.fingerprint());
        let mut levels: Vec<u64> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::LevelComplete { level, .. } => Some(*level),
                _ => None,
            })
            .collect();
        levels.sort_unstable();
        completions.push(levels);
    }
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "1 vs 2 worker threads with event logging"
    );
    assert_eq!(
        fingerprints[0], fingerprints[2],
        "1 vs 8 worker threads with event logging"
    );
    assert_eq!(completions[0], completions[1]);
    assert_eq!(completions[0], completions[2]);
    assert!(!completions[0].is_empty(), "tower completed no levels");
}

/// The cost model is the layer the curve harness fits, so its counts
/// must be a pure function of the instance: the same logged pipeline on
/// 1, 2, and 8 worker threads folds to bit-identical [`CostModel`]s,
/// exact even though the ring buffer itself may sample or evict.
#[test]
fn cost_models_bit_identical_across_thread_counts() {
    let problem = anti_matching(3);
    let mut models = Vec::new();
    for threads in [1usize, 2, 8] {
        let opts = SpeedupOptions {
            re: ReOptions {
                parallel: true,
                threads,
                ..ReOptions::default()
            },
            ..SpeedupOptions::default()
        };
        let log = Arc::new(EventLog::new(4096));
        let report = tree_speedup_logged(&problem, opts, Some(Arc::clone(&log)));
        let model = report
            .cost_model()
            .expect("logged run must fold a cost model");
        assert_eq!(model, log.cost_model(), "report and log must agree");
        assert!(model.total() > 0, "a speedup run performs counted work");
        models.push(model);
    }
    assert_eq!(models[0], models[1], "1 vs 2 worker threads");
    assert_eq!(models[0], models[2], "1 vs 8 worker threads");
}

/// Each of the four models, driven twice through its `simulate_*_with`
/// entrypoint on the same instance, must return non-empty identical
/// traces; without a fault plan every run is clean (no fault records).
#[test]
fn all_four_simulations_trace_deterministically() {
    let g = gen::cycle(64);
    let input = lcl::uniform_input(&g);
    let ids = IdAssignment::random_polynomial(64, 3, 11);

    let local = || {
        lcl_landscape::local::simulate_with(
            &lcl_landscape::problems::trivial::MaxDegree2Hop,
            &g,
            &input,
            &ids,
            None,
            RunOptions::new(),
        )
    };
    let (a, b) = (local(), local());
    assert!(
        a.outcome.faults.is_empty(),
        "a plan-free LOCAL run is clean"
    );
    assert!(!a.trace.is_empty());
    assert_eq!(a.trace.fingerprint(), b.trace.fingerprint());
    assert_eq!(a.trace.root().get(Counter::Nodes), Some(64));

    let volume = || {
        lcl_landscape::volume::simulate_with(
            &lcl_bench::volume_algos::ConstProbe,
            &g,
            &input,
            &ids,
            None,
            RunOptions::new(),
        )
    };
    let a = volume().expect("in budget");
    let b = volume().expect("in budget");
    assert!(
        a.outcome.faults.is_empty(),
        "a plan-free VOLUME run is clean"
    );
    assert!(!a.trace.is_empty());
    assert_eq!(a.trace.fingerprint(), b.trace.fingerprint());
    assert_eq!(
        a.trace.root().get(Counter::MaxProbes),
        Some(a.outcome.outcome.max_probes as u64)
    );

    let lca_ids = IdAssignment::from_vec((1..=64).collect());
    let lca = || {
        lcl_landscape::volume::simulate_lca_with(
            &VolumeAsLca(lcl_bench::volume_algos::ConstProbe),
            &g,
            &input,
            &lca_ids,
            RunOptions::new(),
        )
    };
    let a = lca().expect("in budget");
    let b = lca().expect("in budget");
    assert!(a.outcome.faults.is_empty(), "a plan-free LCA run is clean");
    assert!(!a.trace.is_empty());
    assert_eq!(a.trace.fingerprint(), b.trace.fingerprint());
    assert!(a.trace.fingerprint().starts_with("lca/"));

    let grid = lcl_landscape::grid::OrientedGrid::new(&[6, 6]);
    let ginput = lcl::uniform_input(grid.graph());
    let gids = lcl_landscape::grid::ProdIds::sequential(&grid);
    let pattern = lcl_landscape::grid::FnProdAlgorithm::new(
        "constant-pattern",
        |_n| 1,
        |_view| vec![OutLabel(0); 4],
    );
    let prod = || {
        lcl_landscape::grid::simulate_with(&pattern, &grid, &ginput, &gids, None, RunOptions::new())
    };
    let (a, b) = (prod(), prod());
    assert!(
        a.outcome.faults.is_empty(),
        "a plan-free PROD-LOCAL run is clean"
    );
    assert!(!a.trace.is_empty());
    assert_eq!(a.trace.fingerprint(), b.trace.fingerprint());
    assert_eq!(a.trace.root().get(Counter::ViewNodes), Some(36 * 9));
}

/// The registry behind `BENCH_obs.json` must be reproducible: labels in
/// the same order, every fingerprint identical.
#[test]
fn bench_obs_registry_is_reproducible() {
    let first = lcl_bench::obs_report::collect_registry().snapshot();
    let second = lcl_bench::obs_report::collect_registry().snapshot();
    assert_eq!(first.len(), second.len());
    for ((la, ta), (lb, tb)) in first.iter().zip(&second) {
        assert_eq!(la, lb);
        assert_eq!(ta.fingerprint(), tb.fingerprint(), "trace {la} diverged");
    }
}

/// Classified cycle problems, synthesized and simulated through the
/// instrumented LOCAL entrypoint, must report rounds within their tier.
#[test]
fn classified_tiers_bound_reported_rounds() {
    let collapse =
        LclProblem::parse("name: xx-collapse\nmax-degree: 2\nnodes:\nX*\nY*\nedges:\nX X\n")
            .expect("valid problem source");
    let candidates = [collapse, oriented_three_coloring(), two_coloring(2)];
    let mut tiers_seen = (false, false);

    for problem in &candidates {
        let class = classify_oriented_cycle(problem)
            .expect("input-independent")
            .class;
        if !matches!(class, PathClass::Constant | PathClass::LogStar) {
            continue;
        }
        let report = synthesize_cycle_traced(problem).expect("classifiable");
        let alg = report
            .outcome
            .as_ref()
            .expect("constant/log* tiers synthesize");

        let mut rounds_by_n = Vec::new();
        for n in [16usize, 64, 256] {
            let g = gen::cycle(n);
            let input = lcl::uniform_input(&g);
            let ids = IdAssignment::random_polynomial(n, 3, n as u64);
            let run =
                lcl_landscape::local::simulate_with(alg, &g, &input, &ids, None, RunOptions::new());
            let rounds = run
                .trace
                .root()
                .get(Counter::Rounds)
                .expect("LOCAL traces report rounds");
            match class {
                PathClass::Constant => {
                    assert!(
                        rounds <= 8,
                        "{}: O(1) tier ran {rounds} rounds",
                        problem.problem_name()
                    );
                    tiers_seen.0 = true;
                }
                PathClass::LogStar => {
                    // `c·log*(n) + c` with a generous, synthesis-wide `c`
                    // (the synthesized constant depends on the problem's
                    // gap bound, not on `n`).
                    let bound = u64::from(64 * (log_star(n as u64) + 1));
                    assert!(
                        rounds <= bound,
                        "{}: log* tier ran {rounds} rounds on n = {n} (bound {bound})",
                        problem.problem_name()
                    );
                    tiers_seen.1 = true;
                }
                _ => unreachable!(),
            }
            rounds_by_n.push(rounds);
        }
        // The tier shape: a 16× increase in n must not buy more than a
        // log*-sized increase in rounds.
        let (first, last) = (rounds_by_n[0], rounds_by_n[2]);
        assert!(
            last <= first + 64,
            "{}: rounds jumped {first} -> {last} between n = 16 and n = 256",
            problem.problem_name()
        );
    }
    assert!(tiers_seen.0, "no Constant-tier problem exercised");
    assert!(tiers_seen.1, "no LogStar-tier problem exercised");
}
