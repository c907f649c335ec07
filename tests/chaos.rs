//! Chaos soak: randomized fault plans across every model's faulted
//! entrypoint, asserting the robustness trichotomy — each run ends in a
//! valid output, a typed error/violation, or a typed degradation, and
//! never a panic — and that outcomes are a bit-identical function of
//! `(seed, plan)`, including across engine thread counts.
//!
//! Every instance and its plan come from the chaos table
//! (`lcl_bench::chaos`), so `shrink-chaos <model> <seed>` rebuilds the
//! exact run a failing seed made here.
//!
//! The small smoke test always runs; the big soak is `#[ignore]`d and
//! driven by `scripts/check.sh` via `--include-ignored` in release mode.

use lcl_rng::SmallRng;

use lcl_bench::chaos::Model;
use lcl_landscape::core::{ReError, ReOptions, ReTower};
use lcl_landscape::faults::Budget;
use lcl_landscape::lcl::{uniform_input, verify};
use lcl_landscape::problems::{anti_matching, k_coloring};
use lcl_landscape::procshard::ProcOptions;

/// How a single chaos run ended; the absence of a fourth (panic) leg is
/// the property under test.
#[derive(PartialEq, Eq, Debug)]
enum Leg {
    /// The output satisfies the problem's constraints.
    Valid,
    /// The run completed but the verifier reports typed `Violation`s
    /// (silent corruption / adversarial ids doing their job).
    Violations,
    /// The executor degraded with typed `NodeFault` records.
    Degraded,
}

/// One chaos run of `model`'s instance for `seed` under the seed's
/// random plan, both drawn from the chaos table. Returns the outcome
/// leg and a full fingerprint.
fn chaos_run(model: Model, seed: u64) -> (Leg, String) {
    let run = model
        .run(seed, &model.plan(seed), &ProcOptions::default())
        .expect("faulted runs degrade instead of erroring");
    let leg = if run.is_degraded() {
        Leg::Degraded
    } else if model == Model::Local
        && !verify(
            &k_coloring(4, 3),
            &run.graph,
            &uniform_input(&run.graph),
            &run.output,
        )
        .is_empty()
    {
        Leg::Violations
    } else {
        // Only the LOCAL instance solves an LCL (Δ+1 colouring); the
        // echo algorithms of the other models solve none, so completion
        // without faults is their "valid" leg.
        Leg::Valid
    };
    (leg, run.fingerprint())
}

/// One budgeted round-elimination run at a given thread count: random
/// problem and random caps, pushed until the budget bites. The outcome
/// string must be identical at every thread count.
fn tower_run(seed: u64, threads: usize) -> String {
    let problem = if seed.is_multiple_of(2) {
        anti_matching(3)
    } else {
        k_coloring(3, 3)
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x70e7);
    let label_cap = rng.gen_range(3u64..40);
    let budget = Budget::unlimited()
        .with_max_labels(label_cap)
        .with_max_rounds(4);
    let token = budget.token();
    let opts = ReOptions {
        parallel: threads > 1,
        threads,
        ..ReOptions::default()
    };
    let mut tower = ReTower::new(problem);
    let mut steps = Vec::new();
    for _ in 0..2 {
        match tower.push_f_budgeted(opts, &budget, &token) {
            Ok(()) => steps.push(format!(
                "ok:{}",
                tower.alphabet_size(tower.level_count() - 1)
            )),
            Err(e) => {
                steps.push(format!("err:{e}"));
                break;
            }
        }
    }
    format!(
        "cap={label_cap};{};levels={}",
        steps.join("|"),
        tower.level_count()
    )
}

fn soak(plans_per_model: usize, thread_variants: &[usize]) {
    let mut legs = [0usize; 3];
    for seed in 0..plans_per_model as u64 {
        for model in Model::SOAK {
            let (leg, fp) = chaos_run(model, seed);
            let (leg2, fp2) = chaos_run(model, seed);
            assert_eq!(leg, leg2, "seed {seed}: outcome leg must be deterministic");
            assert_eq!(
                fp, fp2,
                "seed {seed}: outcome must be bit-identical on repeat"
            );
            legs[match leg {
                Leg::Valid => 0,
                Leg::Violations => 1,
                Leg::Degraded => 2,
            }] += 1;
        }
        let reference = tower_run(seed, thread_variants[0]);
        for &threads in &thread_variants[1..] {
            assert_eq!(
                reference,
                tower_run(seed, threads),
                "seed {seed}: budgeted tower outcome must not depend on {threads} threads"
            );
        }
    }
    // The soak must actually exercise both the clean and the degraded
    // legs — otherwise the trichotomy assertion is vacuous.
    assert!(legs[0] > 0, "no run came back clean: {legs:?}");
    assert!(legs[2] > 0, "no run degraded: {legs:?}");
}

/// Always-on smoke: a handful of plans per model, single-threaded tower.
#[test]
fn chaos_smoke() {
    soak(8, &[1]);
}

/// The full soak: ≥300 random plans across LOCAL/VOLUME/LCA/PROD-LOCAL
/// (4 models × 100 seeds), with every budgeted tower outcome checked for
/// bit-identity at 1, 2, and 8 worker threads.
#[test]
#[ignore = "big soak; scripts/check.sh runs it in release via --include-ignored"]
fn chaos_soak() {
    soak(100, &[1, 2, 8]);
}

/// Acceptance: a tight label budget on round elimination returns a typed
/// `BudgetExceeded` whose partial result — the already-completed levels —
/// stays in the tower.
#[test]
fn tight_label_budget_keeps_a_usable_partial_tower() {
    let mut tower = ReTower::new(k_coloring(3, 3));
    let budget = Budget::unlimited().with_max_labels(7);
    let token = budget.token();
    tower
        .push_r_budgeted(ReOptions::default(), &budget, &token)
        .expect("R of 3-coloring interns exactly 7 labels");
    let err = tower
        .push_rbar_budgeted(ReOptions::default(), &budget, &token)
        .expect_err("R̄ blows past 7 labels");
    let ReError::Budget(breach) = err else {
        panic!("expected a budget breach, got {err}");
    };
    assert_eq!(
        breach.partial, 1,
        "one completed level is the partial result"
    );
    assert_eq!(tower.level_count(), 2, "base + surviving R level");
    assert!(tower.alphabet_size(1) > 0, "the partial tower is non-empty");
}
