//! Per-stage execution traces for every Figure 1 panel (E1–E4), written
//! to `BENCH_obs.json` at the repository root.
//!
//! Where the `fig1` tables report the *headline* numbers (rounds, probes,
//! radii), this module re-runs one representative stage per panel through
//! the instrumented `simulate*` entrypoints and collects the full
//! [`lcl_obs`] traces — per-level round-elimination spans, view/probe
//! counters, message counts — into a [`Registry`]. The report holds each
//! span tree without its wall times under `counters` (spans nest as in
//! the live run) and the mirror tree of `wall_us` values under `walls`,
//! the only nondeterministic quantities in the file.

use lcl::OutLabel;
use lcl_core::{tree_speedup_logged, SpeedupOptions};
use lcl_faults::RunOptions;
use lcl_graph::gen;
use lcl_grid::{FnProdAlgorithm, OrientedGrid};
use lcl_local::IdAssignment;
use lcl_obs::{Counter, Registry, Trace};
use lcl_problems::cv::{orientation_inputs, ColeVishkin, Orientation};
use lcl_problems::{anti_matching, shortcut_path, ShortcutColoring};
use lcl_volume::lca::VolumeAsLca;

use crate::cells;
use crate::report::Report;
use crate::table::Table;
use crate::volume_algos::{ConstProbe, CvProbeColoring, TwoColorProbes};

/// E1 — trees: the Theorem 3.11 synthesis pipeline (per-level tower
/// spans) and runs of the synthesized O(1) algorithm and Cole–Vishkin.
fn collect_trees(reg: &Registry) {
    let anti = anti_matching(3);
    let report = tree_speedup_logged(&anti, SpeedupOptions::default(), None);
    let alg = report
        .outcome
        .try_algorithm()
        .expect("why: anti-matching is o(log* n), so Theorem 3.11 synthesis must succeed");

    let tree = gen::random_tree(512, 3, 5);
    let input = lcl::uniform_input(&tree);
    let ids: Vec<u64> = (0..tree.node_count() as u64).map(|i| i * 3 + 1).collect();
    let synth =
        lcl_local::simulate_sync_with(&alg, &tree, &input, &ids, None, 10, RunOptions::new());
    reg.record("E1/trees/synthesized-o1", synth.trace);
    reg.record("E1/trees/speedup-pipeline", report.trace);

    let path = gen::path(512);
    let cv_input = orientation_inputs(&path, Orientation::Path);
    let cv_ids = IdAssignment::random_polynomial(path.node_count(), 3, 9);
    let cv = lcl_local::simulate_sync_with(
        &ColeVishkin,
        &path,
        &cv_input,
        &cv_ids.iter().collect::<Vec<_>>(),
        None,
        100,
        RunOptions::new(),
    );
    reg.record("E1/trees/cole-vishkin", cv.trace);
}

/// E2 — oriented grids: the O(1) constant pattern through the PROD-LOCAL
/// simulator and the `Θ(log* n)` row coloring through the sync simulator.
fn collect_grids(reg: &Registry) {
    let grid = OrientedGrid::new(&[8, 8]);
    let d = grid.dimension_count();
    let input = lcl::uniform_input(grid.graph());
    let prod_ids = lcl_grid::ProdIds::sequential(&grid);
    let pattern = FnProdAlgorithm::new(
        "constant-pattern",
        |_n| 1,
        move |_view| vec![OutLabel(0); 2 * d],
    );
    let o1 = lcl_grid::simulate_with(&pattern, &grid, &input, &prod_ids, None, RunOptions::new());
    reg.record("E2/grids/prod-local-pattern", o1.trace);

    let row_input = crate::grid_algos::dim_inputs(&grid);
    let ids = IdAssignment::random_polynomial(grid.node_count(), 3, 9);
    let rows = lcl_local::simulate_sync_with(
        &crate::grid_algos::RowColoring,
        grid.graph(),
        &row_input,
        &ids.iter().collect::<Vec<_>>(),
        None,
        10_000,
        RunOptions::new(),
    );
    reg.record("E2/grids/row-coloring", rows.trace);
}

/// E3 — shortcut graphs: the dense-region coloring through the LOCAL
/// simulator (view counters show the compressed radius at work).
fn collect_general(reg: &Registry) {
    let (g, input) = shortcut_path(6);
    let ids = IdAssignment::random_polynomial(g.node_count(), 3, 6);
    let run = lcl_local::simulate_with(
        &ShortcutColoring { radius: None },
        &g,
        &input,
        &ids,
        None,
        RunOptions::new(),
    );
    reg.record("E3/general/shortcut-coloring", run.trace);
}

/// E4 — the VOLUME model: probe traces for the three inhabited regimes,
/// plus the LCA embedding of the constant-probe algorithm.
fn collect_volume(reg: &Registry) {
    let n = 256;
    let cycle = gen::cycle(n);
    let cinput = lcl::uniform_input(&cycle);
    let cids = IdAssignment::random_polynomial(n, 3, 4);

    let o1 =
        lcl_volume::simulate_with(&ConstProbe, &cycle, &cinput, &cids, None, RunOptions::new())
            .expect("in budget");
    reg.record("E4/volume/const-probe", o1.trace);
    let cv = lcl_volume::simulate_with(
        &CvProbeColoring,
        &cycle,
        &cinput,
        &cids,
        None,
        RunOptions::new(),
    )
    .expect("in budget");
    reg.record("E4/volume/cv-coloring", cv.trace);

    let path = gen::path(n);
    let pinput = lcl::uniform_input(&path);
    let pids = IdAssignment::random_polynomial(n, 3, 5);
    let walk = lcl_volume::simulate_with(
        &TwoColorProbes,
        &path,
        &pinput,
        &pids,
        None,
        RunOptions::new(),
    )
    .expect("in budget");
    reg.record("E4/volume/two-color-walk", walk.trace);

    let lca_ids = IdAssignment::from_vec((1..=n as u64).collect());
    let lca = lcl_volume::simulate_lca_with(
        &VolumeAsLca(ConstProbe),
        &path,
        &pinput,
        &lca_ids,
        RunOptions::new(),
    )
    .expect("in budget");
    reg.record("E4/lca/const-probe", lca.trace);
}

/// Collects one registry covering all four panels. Deterministic up to
/// wall-clock: the set of labels, the span tree shapes, and every counter
/// are fixed (asserted by `tests/observability.rs`).
pub fn collect_registry() -> Registry {
    let reg = Registry::new();
    collect_trees(&reg);
    collect_grids(&reg);
    collect_general(&reg);
    collect_volume(&reg);
    reg
}

fn headline(trace: &Trace) -> String {
    // The most informative counter a panel stage has, in priority order.
    for c in [
        Counter::Rounds,
        Counter::MaxProbes,
        Counter::Radius,
        Counter::Steps,
    ] {
        if let Some(v) = trace.root().get(c) {
            return format!("{}={v}", c.as_str());
        }
    }
    "-".to_string()
}

/// Runs every panel stage instrumented and writes `BENCH_obs.json` at the
/// repository root. Returns the per-stage summary, or the write error.
pub fn obs_report() -> std::io::Result<Table> {
    let mut table = Table::new(
        "OBS — per-stage execution traces for Figure 1 (E1–E4)",
        &["stage", "root span", "spans", "headline counter", "wall"],
    );
    let reg = collect_registry();
    for (label, trace) in reg.snapshot() {
        table.row(cells!(
            label,
            trace.root().name(),
            trace.span_count(),
            headline(&trace),
            format!("{:.2} ms", trace.root().wall().as_secs_f64() * 1e3)
        ));
    }

    Report::from_registry("obs", &reg).write()?;
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_four_panels() {
        let reg = collect_registry();
        let labels: Vec<String> = reg.snapshot().into_iter().map(|(label, _)| label).collect();
        for panel in ["E1/", "E2/", "E3/", "E4/"] {
            assert!(
                labels.iter().any(|l| l.starts_with(panel)),
                "panel {panel} missing from {labels:?}"
            );
        }
        let json = Report::from_registry("obs", &reg).to_json();
        assert!(json.contains("\"rounds\""));
        assert!(json.contains("\"max-probes\""));
    }

    #[test]
    fn speedup_pipeline_trace_has_level_spans() {
        let reg = Registry::new();
        collect_trees(&reg);
        let snapshot = reg.snapshot();
        let (_, pipeline) = snapshot
            .iter()
            .find(|(label, _)| label.ends_with("speedup-pipeline"))
            .expect("pipeline trace recorded");
        assert!(pipeline.find("level-1/r").is_some());
    }
}
