//! Grid-specific harness algorithms for the Figure 1 top-right panel.
//!
//! * [`RowColoring`] — 3-colors every dimension-0 row cycle via
//!   Cole–Vishkin: the `Θ(log* n)` representative on oriented grids.
//! * [`row_coloring_problem`] + [`dim_inputs`] — its node-edge-checkable
//!   form (dimension-0 half-edges are marked by input labels so the
//!   verifier knows which edges carry colors).
//!
//! The `Θ(ᵈ√n)` representative is plain 2-coloring, solved by the generic
//! gather algorithm [`lcl_problems::TwoColorByAnchor`] (even-sided tori
//! are bipartite), and the `O(1)` representative is the identifier-free
//! [`lcl_core::speedup_grids::OrientationCanonical`] pattern.

use lcl::{HalfEdgeLabeling, InLabel, LclProblem, OutLabel};
use lcl_grid::OrientedGrid;
use lcl_local::{NodeInit, SyncAlgorithm};
use lcl_problems::cv::{cv_iteration_count, cv_step};

/// Input label marking dimension-0 half-edges.
pub const IN_DIM0: InLabel = InLabel(0);
/// Input label marking all other half-edges.
pub const IN_OTHER: InLabel = InLabel(1);

/// Marks dimension-0 half-edges (ports 0 and 1 under the torus port
/// convention).
pub fn dim_inputs(grid: &OrientedGrid) -> HalfEdgeLabeling<InLabel> {
    HalfEdgeLabeling::from_fn(grid.graph(), |h| {
        if grid.graph().port_of(h) < 2 {
            IN_DIM0
        } else {
            IN_OTHER
        }
    })
}

/// "3-color the dimension-0 rows": colors on dim-0 half-edges (equal at a
/// node, differing across dim-0 edges), `⊥` elsewhere.
pub fn row_coloring_problem(d: usize) -> LclProblem {
    let delta = (2 * d) as u8;
    let mut builder = LclProblem::builder("row-3-coloring", delta)
        .inputs(["dim0", "other"])
        .outputs(["A", "B", "C", "Bot"]);
    for c in ["A", "B", "C"] {
        builder = builder.node_pattern(&[c, c, "Bot*"]);
    }
    builder
        .edge(&["A", "B"])
        .edge(&["A", "C"])
        .edge(&["B", "C"])
        .edge(&["Bot", "Bot"])
        .allow("dim0", &["A", "B", "C"])
        .allow("other", &["Bot"])
        .build()
        .expect("row coloring is well-formed")
}

/// Cole–Vishkin along every dimension-0 row cycle in parallel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RowColoring;

/// Per-node state of [`RowColoring`].
#[derive(Clone, Debug)]
pub struct RowState {
    color: u64,
    degree: u8,
    round: u32,
    total_rounds: u32,
}

impl SyncAlgorithm for RowColoring {
    type State = RowState;
    type Msg = u64;

    fn init(&self, init: &NodeInit) -> RowState {
        let id_bits = 3 * (usize::BITS - init.n.leading_zeros()).max(1);
        RowState {
            color: init.id,
            degree: init.degree,
            round: 0,
            total_rounds: cv_iteration_count(id_bits) + 3,
        }
    }

    fn send(&self, state: &RowState, _round: u32) -> Vec<u64> {
        vec![state.color; state.degree as usize]
    }

    fn receive(&self, state: &mut RowState, inbox: &[u64], _round: u32) {
        let cv_rounds = state.total_rounds - 3;
        if state.round < cv_rounds {
            // Port 0 is the +dim0 successor.
            state.color = cv_step(state.color, inbox[0]);
        } else {
            let target = 5 - u64::from(state.round - cv_rounds);
            if state.color == target {
                // Ports 0 and 1 are the row neighbors.
                state.color = (0..3)
                    .find(|c| inbox[0] != *c && inbox[1] != *c)
                    .expect("two neighbors block at most two of three colors");
            }
        }
        state.round += 1;
    }

    fn is_done(&self, state: &RowState) -> bool {
        state.round >= state.total_rounds
    }

    fn output(&self, state: &RowState) -> Vec<OutLabel> {
        const BOT: u32 = 3;
        (0..state.degree)
            .map(|p| {
                if p < 2 {
                    OutLabel(state.color as u32)
                } else {
                    OutLabel(BOT)
                }
            })
            .collect()
    }

    fn name(&self) -> &str {
        "row-coloring"
    }
}

/// Proper `(2d+1)`-coloring of the whole oriented torus in
/// `O(log* n) + O_d(1)` rounds: run Cole–Vishkin along every dimension's
/// row cycles in parallel (the orientation provides the successor for
/// free), combine the per-dimension colors into a proper `6^d`-coloring,
/// and sweep down to `2d + 1`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TorusColoring {
    /// Number of grid dimensions.
    pub d: usize,
}

/// Per-node state of [`TorusColoring`].
#[derive(Clone, Debug)]
pub struct TorusColoringState {
    colors: Vec<u64>,
    combined: u64,
    degree: u8,
    d: usize,
    round: u32,
    cv_rounds: u32,
    total_rounds: u32,
}

impl TorusColoring {
    /// Total rounds on `n`-node grids.
    pub fn total_rounds(&self, n: usize) -> u32 {
        let id_bits = 3 * (usize::BITS - n.leading_zeros()).max(1);
        let combined = 6u32.pow(self.d as u32);
        cv_iteration_count(id_bits) + (combined - 2 * self.d as u32 - 1)
    }
}

impl SyncAlgorithm for TorusColoring {
    type State = TorusColoringState;
    type Msg = Vec<u64>;

    fn init(&self, init: &NodeInit) -> TorusColoringState {
        let id_bits = 3 * (usize::BITS - init.n.leading_zeros()).max(1);
        TorusColoringState {
            colors: vec![init.id; self.d],
            combined: 0,
            degree: init.degree,
            d: self.d,
            round: 0,
            cv_rounds: cv_iteration_count(id_bits),
            total_rounds: self.total_rounds(init.n),
        }
    }

    fn send(&self, state: &TorusColoringState, _round: u32) -> Vec<Vec<u64>> {
        let payload = if state.round < state.cv_rounds {
            state.colors.clone()
        } else {
            vec![state.combined]
        };
        vec![payload; state.degree as usize]
    }

    fn receive(&self, state: &mut TorusColoringState, inbox: &[Vec<u64>], _round: u32) {
        if state.round < state.cv_rounds {
            // Parallel CV: the successor in dimension k is port 2k.
            for k in 0..state.d {
                state.colors[k] = cv_step(state.colors[k], inbox[2 * k][k]);
            }
            if state.round + 1 == state.cv_rounds {
                state.combined = state.colors.iter().rev().fold(0u64, |acc, &c| acc * 6 + c);
            }
        } else {
            let sweep = state.round - state.cv_rounds;
            let target = u64::from(6u32.pow(state.d as u32) - 1 - sweep);
            if state.combined == target {
                let used: Vec<u64> = inbox.iter().map(|m| m[0]).collect();
                state.combined = (0..=2 * state.d as u64)
                    .find(|c| !used.contains(c))
                    .expect("degree 2d leaves a free color in 0..=2d");
            }
        }
        state.round += 1;
    }

    fn is_done(&self, state: &TorusColoringState) -> bool {
        state.round >= state.total_rounds
    }

    fn output(&self, state: &TorusColoringState) -> Vec<OutLabel> {
        assert!(state.combined <= 2 * state.d as u64);
        vec![OutLabel(state.combined as u32); state.degree as usize]
    }

    fn name(&self) -> &str {
        "torus-coloring"
    }
}

/// Runs [`TorusColoring`] and returns (rounds, valid against
/// `k_coloring(2d+1, 2d)`).
pub fn run_torus_coloring(grid: &OrientedGrid, seed: u64) -> (u32, bool) {
    let d = grid.dimension_count();
    let problem = lcl_problems::k_coloring(2 * d + 1, (2 * d) as u8);
    let input = lcl::uniform_input(grid.graph());
    let ids = lcl_local::IdAssignment::random_polynomial(grid.node_count(), 3, seed);
    let run = lcl_local::simulate_sync_with(
        &TorusColoring { d },
        grid.graph(),
        &input,
        &ids.iter().collect::<Vec<_>>(),
        None,
        1_000_000,
        lcl_faults::RunOptions::new(),
    )
    .outcome;
    assert!(run.faults.is_empty(), "why: torus coloring halts");
    let valid = lcl::verify(&problem, grid.graph(), &input, &run.outcome.output).is_empty();
    (run.outcome.rounds, valid)
}

/// Runs [`RowColoring`] on a grid and returns (rounds, valid).
pub fn run_row_coloring(grid: &OrientedGrid, seed: u64) -> (u32, bool) {
    let problem = row_coloring_problem(grid.dimension_count());
    let input = dim_inputs(grid);
    let ids = lcl_local::IdAssignment::random_polynomial(grid.node_count(), 3, seed);
    let run = lcl_local::simulate_sync_with(
        &RowColoring,
        grid.graph(),
        &input,
        &ids.iter().collect::<Vec<_>>(),
        None,
        10_000,
        lcl_faults::RunOptions::new(),
    )
    .outcome;
    assert!(run.faults.is_empty(), "why: row coloring halts");
    let valid = lcl::verify(&problem, grid.graph(), &input, &run.outcome.output).is_empty();
    (run.outcome.rounds, valid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_coloring_is_valid_and_log_star_fast() {
        for dims in [vec![9usize, 3], vec![5, 4, 3]] {
            let grid = OrientedGrid::new(&dims);
            let (rounds, valid) = run_row_coloring(&grid, 7);
            assert!(valid, "dims {dims:?}");
            assert!(rounds <= 10, "rounds = {rounds}");
        }
    }

    #[test]
    fn torus_coloring_is_proper() {
        for dims in [vec![5usize, 4], vec![3, 3], vec![4, 3, 3]] {
            let grid = OrientedGrid::new(&dims);
            let (rounds, valid) = run_torus_coloring(&grid, 11);
            assert!(valid, "dims {dims:?}");
            let alg = TorusColoring { d: dims.len() };
            assert_eq!(rounds, alg.total_rounds(grid.node_count()));
        }
    }

    #[test]
    fn torus_coloring_rounds_are_log_star_flat() {
        let alg = TorusColoring { d: 2 };
        let small = alg.total_rounds(16);
        let large = alg.total_rounds(1 << 30);
        assert!(large - small <= 3);
    }

    #[test]
    fn row_coloring_catches_bad_labelings() {
        let grid = OrientedGrid::new(&[4, 3]);
        let problem = row_coloring_problem(2);
        let input = dim_inputs(&grid);
        // All-A is monochromatic along rows: invalid.
        let bad = HalfEdgeLabeling::uniform(grid.graph(), OutLabel(0));
        assert!(!lcl::verify(&problem, grid.graph(), &input, &bad).is_empty());
    }
}
