//! E11 — theory-vs-practice curves: decade sweeps of deterministic cost
//! counts per Figure 1 panel, least-squares-fitted against candidate
//! asymptotic shapes and written to `BENCH_curves.json`.
//!
//! Where `fig1` prints the raw series for a human to eyeball against the
//! paper's landscape, this module closes the loop mechanically: for each
//! panel algorithm it sweeps `n` over decades, derives a *count* series
//! from the [`lcl_obs::CostModel`] of an event-logged run (rounds for
//! LOCAL, max probes for VOLUME — never wall clock), fits the series
//! against every candidate shape in [`CANDIDATES`] by ordinary least
//! squares, and records the winner with its R². The emitted report holds
//! every panel under `fits` and nothing under `walls`, so the
//! `bench-diff` gate ([`crate::diff`]) is immune to machine noise here:
//! it fails only when a *fitted asymptotic class* flips or an R² falls
//! under the floor — i.e. when the measured landscape itself moved.
//!
//! Counts are bit-identical across thread counts and hosts (see
//! `DESIGN.md` § Deterministic cost model), so `ns`, `counts`, and the
//! fitted class diff bit-exactly.

use lcl_core::{tree_speedup, SpeedupOptions};
use lcl_faults::RunOptions;
use lcl_graph::gen;
use lcl_graph::math::log_star;
use lcl_local::IdAssignment;
use lcl_obs::{CostKind, EventLog};
use lcl_problems::cv::{orientation_inputs, ColeVishkin, Orientation};
use lcl_problems::{anti_matching, rake_compress_rounds};

use crate::cells;
use crate::report::{Json, Report};
use crate::table::Table;
use crate::volume_algos::{ConstProbe, TwoColorProbes};

fn g_const(_n: f64) -> f64 {
    1.0
}
fn g_log_star(n: f64) -> f64 {
    f64::from(log_star(n as u64))
}
fn g_log_log(n: f64) -> f64 {
    let l = n.ln();
    if l > 1.0 {
        l.ln()
    } else {
        0.0
    }
}
fn g_log(n: f64) -> f64 {
    n.ln()
}
fn g_linear(n: f64) -> f64 {
    n
}

/// A named candidate shape: the class label and its growth function.
pub type Candidate = (&'static str, fn(f64) -> f64);

/// The candidate asymptotic shapes, in tie-break order: a series that
/// two shapes explain equally well (e.g. a constant series, which every
/// affine model fits exactly) is classified as the *earliest* candidate,
/// so ties resolve toward the slower-growing class deterministically.
pub const CANDIDATES: [Candidate; 5] = [
    ("1", g_const),
    ("log* n", g_log_star),
    ("log log n", g_log_log),
    ("log n", g_log),
    ("n", g_linear),
];

/// The winning shape for one measured series.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Fit {
    /// The best-fitting candidate class, one of the [`CANDIDATES`] names.
    pub class: &'static str,
    /// Coefficient of determination of the winning fit (1.0 is exact; a
    /// constant series scores 1.0 by convention since the model is the
    /// mean).
    pub r2: f64,
}

/// Fits `ys` against `a·g(n) + b` for every candidate `g` and returns
/// the shape with the highest R².
///
/// SS_tot ≈ 0 (a constant series) scores R² = 1.0 for every candidate,
/// and a degenerate regressor (SS_xx ≈ 0, e.g. `log* n` when every `n`
/// falls in one plateau) degrades to the mean model; in both cases the
/// strictly-greater comparison keeps the earliest candidate, making the
/// classification deterministic.
///
/// # Panics
///
/// Panics when the series is shorter than 2 points or the lengths
/// disagree — a sweep bug, not a data condition.
pub fn fit_series(ns: &[u64], ys: &[f64]) -> Fit {
    assert!(
        ns.len() == ys.len() && ns.len() >= 2,
        "fit needs >= 2 aligned points"
    );
    let m = ys.len() as f64;
    let y_mean = ys.iter().sum::<f64>() / m;
    let ss_tot: f64 = ys.iter().map(|y| (y - y_mean) * (y - y_mean)).sum();
    let mut best = Fit {
        class: CANDIDATES[0].0,
        r2: f64::NEG_INFINITY,
    };
    for (class, g) in CANDIDATES {
        let xs: Vec<f64> = ns.iter().map(|&n| g(n as f64)).collect();
        let x_mean = xs.iter().sum::<f64>() / m;
        let ss_xx: f64 = xs.iter().map(|x| (x - x_mean) * (x - x_mean)).sum();
        let ss_xy: f64 = xs
            .iter()
            .zip(ys)
            .map(|(x, y)| (x - x_mean) * (y - y_mean))
            .sum();
        let (a, b) = if ss_xx > 1e-12 {
            let a = ss_xy / ss_xx;
            (a, y_mean - a * x_mean)
        } else {
            (0.0, y_mean)
        };
        let ss_res: f64 = xs
            .iter()
            .zip(ys)
            .map(|(x, y)| {
                let e = y - (a * x + b);
                e * e
            })
            .sum();
        let r2 = if ss_tot <= 1e-12 {
            1.0
        } else {
            1.0 - ss_res / ss_tot
        };
        if r2 > best.r2 {
            best = Fit { class, r2 };
        }
    }
    best
}

/// One fitted series of `BENCH_curves.json`.
#[derive(Clone, PartialEq, Debug)]
pub struct Panel {
    /// Stable panel label (`"trees/..."` / `"volume/..."`).
    pub name: &'static str,
    /// The swept (announced) instance sizes.
    pub ns: Vec<u64>,
    /// The deterministic count at each `n` (rounds or max probes).
    pub counts: Vec<u64>,
    /// Node-averaged cost (total charged work / distinct charged nodes)
    /// at each `n`, where the panel's cost model charges per-node work.
    pub node_averaged: Option<Vec<f64>>,
    /// The winning shape for `counts`.
    pub fit: Fit,
}

impl Panel {
    fn fitted(
        name: &'static str,
        ns: Vec<u64>,
        counts: Vec<u64>,
        node_averaged: Option<Vec<f64>>,
    ) -> Self {
        let ys: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let fit = fit_series(&ns, &ys);
        Self {
            name,
            ns,
            counts,
            node_averaged,
            fit,
        }
    }
}

/// Announced-`n` decades: graphs are capped at 2^13 real nodes, but the
/// announced `n` (which drives every schedule, per Definition 2.1)
/// sweeps to 2^60 so `log*`-shaped series actually bend.
const DECADE_EXPS: [u32; 8] = [4, 6, 8, 10, 13, 20, 40, 60];

/// The synthesized O(1) algorithm's rounds (Theorem 3.11 pipeline):
/// counts come from the run's cost model (`CostKind::Round`), and the
/// series must be flat — the fitted class is the gap theorem in data.
fn synth_o1_panel() -> Panel {
    let anti = anti_matching(3);
    let outcome = tree_speedup(&anti, SpeedupOptions::default());
    let alg = outcome
        .try_algorithm()
        .expect("why: anti-matching is o(log* n), so Theorem 3.11 synthesis must succeed");
    let mut ns = Vec::new();
    let mut counts = Vec::new();
    for exp in DECADE_EXPS {
        let n = 1u64 << exp;
        let actual = (n as usize).min(4096);
        let tree = gen::random_tree(actual, 3, u64::from(exp));
        let input = lcl::uniform_input(&tree);
        let ids: Vec<u64> = (0..tree.node_count() as u64).map(|i| i * 3 + 1).collect();
        let log = EventLog::new(0); // cost-only tally: exact counts, no buffer
        let _ = lcl_local::simulate_sync_with(
            &alg,
            &tree,
            &input,
            &ids,
            Some(n as usize),
            10,
            RunOptions::new().events(&log),
        );
        ns.push(n);
        counts.push(log.cost_model().get(CostKind::Round));
    }
    Panel::fitted("trees/synth-o1-rounds", ns, counts, None)
}

/// Cole–Vishkin 3-coloring rounds on an oriented path, swept by
/// announced `n` (identifiers spread evenly over `[1, n]`, inside the
/// `n³` ID space the schedule assumes). The measured series is *flat*:
/// `cv_iteration_count(3 log n) + 3` takes a single step across the
/// whole representable range (between announced `n = 2^41` and `2^42`),
/// so over these 36 decades `log* n` is indistinguishable from a
/// constant and the fit classifies the panel as `"1"` — the landscape
/// gap between `ω(1)` and `Θ(log* n)` made visible as data. The sweep
/// deliberately stays inside the plateau so the classification is a
/// stable fixed point for the gate; the planted-series tests (and the
/// decades where `log n` panels *do* bend) cover the `log* n` candidate
/// itself.
fn cole_vishkin_panel() -> Panel {
    let mut ns = Vec::new();
    let mut counts = Vec::new();
    for exp in [4u32, 6, 8, 10, 13, 20, 40] {
        let n = 1u64 << exp;
        let actual = (n as usize).min(1 << 12);
        let path = gen::path(actual);
        let cv_input = orientation_inputs(&path, Orientation::Path);
        let count = path.node_count() as u64;
        let stride = n / count;
        let cv_ids: Vec<u64> = (0..count).map(|i| 1 + i * stride).collect();
        let log = EventLog::new(0);
        let _ = lcl_local::simulate_sync_with(
            &ColeVishkin,
            &path,
            &cv_input,
            &cv_ids,
            Some(n as usize),
            100,
            RunOptions::new().events(&log),
        );
        ns.push(n);
        counts.push(log.cost_model().get(CostKind::Round));
    }
    Panel::fitted("trees/cole-vishkin-rounds", ns, counts, None)
}

/// Rake-and-compress peeling rounds. Unlike the announced-`n` panels,
/// the rounds are driven by the real tree structure, so the sweep uses
/// actual sizes only (announced `n` past the cap would flatten the
/// curve artificially). Paths — the degenerate trees — give the
/// cleanest `Θ(log n)` series: compression halves the interior every
/// round, where per-`n` random trees add depth noise that blurs the
/// fit between neighboring classes.
fn rake_compress_panel() -> Panel {
    let mut ns = Vec::new();
    let mut counts = Vec::new();
    for exp in [4u32, 6, 8, 10, 13] {
        let n = 1usize << exp;
        let tree = gen::path(n);
        ns.push(n as u64);
        counts.push(u64::from(rake_compress_rounds(&tree, u64::from(exp))));
    }
    Panel::fitted("trees/rake-compress-rounds", ns, counts, None)
}

/// VOLUME sweep sizes: every node is queried, so the sweep stays small
/// (the linear panel's total work is quadratic in `n`).
const VOLUME_NS: [usize; 4] = [16, 64, 256, 1024];

/// Max probes per query for the constant-probe VOLUME algorithm, with
/// the node-averaged probe series alongside.
fn volume_const_panel() -> Panel {
    let mut ns = Vec::new();
    let mut counts = Vec::new();
    let mut averaged = Vec::new();
    for (i, &n) in VOLUME_NS.iter().enumerate() {
        let cycle = gen::cycle(n);
        let cinput = lcl::uniform_input(&cycle);
        let cids = IdAssignment::random_polynomial(n, 3, i as u64 + 4);
        let log = EventLog::new(0);
        let report = lcl_volume::simulate_with(
            &ConstProbe,
            &cycle,
            &cinput,
            &cids,
            None,
            RunOptions::new().events(&log),
        )
        .expect("why: const-probe stays within its own probe budget");
        ns.push(n as u64);
        counts.push(report.outcome.outcome.max_probes as u64);
        averaged.push(log.cost_model().node_averaged().unwrap_or(0.0));
    }
    Panel::fitted("volume/const-probe", ns, counts, Some(averaged))
}

/// Max probes per query for the Θ(n) two-coloring walk, node-averaged
/// series alongside (both linear: every query walks to an endpoint).
fn volume_linear_panel() -> Panel {
    let mut ns = Vec::new();
    let mut counts = Vec::new();
    let mut averaged = Vec::new();
    for (i, &n) in VOLUME_NS.iter().enumerate() {
        let path = gen::path(n);
        let pinput = lcl::uniform_input(&path);
        let pids = IdAssignment::random_polynomial(n, 3, i as u64 + 5);
        let log = EventLog::new(0);
        let report = lcl_volume::simulate_with(
            &TwoColorProbes,
            &path,
            &pinput,
            &pids,
            None,
            RunOptions::new().events(&log),
        )
        .expect("why: the walk probes at most n-1 times, within budget");
        ns.push(n as u64);
        counts.push(report.outcome.outcome.max_probes as u64);
        averaged.push(log.cost_model().node_averaged().unwrap_or(0.0));
    }
    Panel::fitted("volume/two-color-walk", ns, counts, Some(averaged))
}

/// Runs every sweep. Deterministic: seeds are fixed and counts are
/// event-derived, so two invocations produce identical panels.
pub fn collect_panels() -> Vec<Panel> {
    vec![
        synth_o1_panel(),
        cole_vishkin_panel(),
        rake_compress_panel(),
        volume_const_panel(),
        volume_linear_panel(),
    ]
}

/// The panels as the `fits` section of `BENCH_curves.json`. Floats are
/// printed with fixed precision so the file is byte-stable; the report
/// has no walls.
pub fn report(panels: &[Panel]) -> Report {
    let ints = |values: &[u64]| Json::Arr(values.iter().map(Json::num).collect());
    let fits = panels.iter().map(|p| {
        let mut fit = vec![
            ("fitted_class", Json::str(p.fit.class)),
            ("r2", Json::fixed(p.fit.r2, 6)),
            ("ns", ints(&p.ns)),
            ("counts", ints(&p.counts)),
        ];
        if let Some(avg) = &p.node_averaged {
            let avg = avg.iter().map(|&v| Json::fixed(v, 6)).collect();
            fit.push(("node_averaged", Json::Arr(avg)));
        }
        (p.name, Json::obj(fit))
    });
    Report {
        fits: Json::obj(fits),
        ..Report::new("curves")
    }
}

/// Runs every sweep and writes `BENCH_curves.json` at the repository
/// root. Returns the table of fitted classes, or the write error.
pub fn curves_report() -> std::io::Result<Table> {
    let mut table = Table::new(
        "E11 — theory-vs-practice curves: fitted asymptotic class per panel",
        &["panel", "points", "fitted class", "r2", "counts"],
    );
    let panels = collect_panels();
    for p in &panels {
        let counts = p
            .counts
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(" ");
        table.row(cells!(
            p.name,
            p.ns.len(),
            p.fit.class,
            format!("{:.4}", p.fit.r2),
            counts
        ));
    }
    report(&panels).write()?;
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLANT_NS: [u64; 8] = [
        1 << 4,
        1 << 6,
        1 << 8,
        1 << 10,
        1 << 13,
        1 << 20,
        1 << 40,
        1 << 60,
    ];

    fn plant(class: &str, a: f64, b: f64) -> Vec<f64> {
        let g = CANDIDATES
            .iter()
            .find(|(name, _)| *name == class)
            .expect("known class")
            .1;
        PLANT_NS.iter().map(|&n| a * g(n as f64) + b).collect()
    }

    #[test]
    fn planted_series_recover_their_classes() {
        for class in ["log* n", "log log n", "log n", "n"] {
            let ys = plant(class, 2.5, 3.0);
            let fit = fit_series(&PLANT_NS, &ys);
            assert_eq!(fit.class, class, "planted {class} misclassified");
            assert!(fit.r2 > 0.999, "planted {class}: r2 {}", fit.r2);
        }
    }

    #[test]
    fn constant_series_ties_break_to_the_first_candidate() {
        // Every affine model fits a constant series exactly (R² = 1 by
        // the SS_tot convention); the tie must resolve to "1".
        let ys = vec![7.0; PLANT_NS.len()];
        let fit = fit_series(&PLANT_NS, &ys);
        assert_eq!(fit.class, "1");
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_and_log_star_do_not_cross_classify() {
        // The acceptance scenario for the curves gate: a log n series
        // must never be mistaken for log* n (or vice versa) — the gate
        // relies on the classes being separable over the decades.
        let log_ys = plant("log n", 1.0, 2.0);
        assert_eq!(fit_series(&PLANT_NS, &log_ys).class, "log n");
        let star_ys = plant("log* n", 4.0, 1.0);
        assert_eq!(fit_series(&PLANT_NS, &star_ys).class, "log* n");
    }

    #[test]
    fn volume_panels_fit_their_planted_classes() {
        let constant = volume_const_panel();
        assert_eq!(constant.fit.class, "1", "{constant:?}");
        let avg = constant.node_averaged.as_ref().expect("averaged series");
        assert_eq!(avg.len(), constant.ns.len());
        assert!(avg.iter().all(|v| *v > 0.0));

        let linear = volume_linear_panel();
        assert_eq!(linear.fit.class, "n", "{linear:?}");
        assert!(linear.fit.r2 > 0.99);
    }

    #[test]
    fn panels_render_wall_free_json() {
        let panels = vec![Panel::fitted(
            "volume/const-probe",
            vec![16, 64],
            vec![2, 2],
            Some(vec![1.5, 1.5]),
        )];
        let json = report(&panels).to_json();
        assert!(json.contains("\"bench\": \"curves\""));
        assert!(json.contains("\"fitted_class\": \"1\""));
        assert!(json.contains("\"node_averaged\": [1.500000, 1.500000]"));
        // Everything sits under `fits`; `walls` stays empty, so machine
        // noise cannot reach the curves gate.
        assert!(json.contains("\"walls\": {}"));
        let parsed = lcl_obs::json::parse(&json).expect("well-formed");
        let fit = parsed.get("fits").and_then(|f| f.get("volume/const-probe"));
        assert!(fit.is_some(), "{json}");
    }
}
