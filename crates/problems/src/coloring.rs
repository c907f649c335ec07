//! `(Δ+1)`-coloring of arbitrary bounded-degree graphs in
//! `O(log* n) + O_Δ(1)` rounds, via pseudo-forest decomposition — the
//! classic Goldberg–Plotkin–Shannon/Linial-style construction:
//!
//! 1. one round to learn neighbor identifiers; orient every edge toward
//!    the larger identifier (acyclic), and let a node's `k`-th out-edge be
//!    its parent in *forest* `k`;
//! 2. run Cole–Vishkin in all `Δ` forests in parallel down to 6 colors
//!    each (`log* n + O(1)` rounds);
//! 3. combine the forest colors into one of `6^Δ` colors (proper in `G`),
//!    and eliminate colors `Δ+1 .. 6^Δ` one sweep each (each sweep
//!    recolors an independent color class greedily; `O_Δ(1)` rounds).

use lcl::OutLabel;
use lcl_local::{NodeInit, SyncAlgorithm};

use crate::cv::{cv_iteration_count, cv_step};

/// The `(Δ+1)`-coloring algorithm; outputs match
/// [`k_coloring(Δ+1, Δ)`](crate::catalog::k_coloring).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DeltaPlusOne {
    /// The degree bound `Δ` the color count is based on.
    pub delta: u8,
}

impl DeltaPlusOne {
    /// Total number of communication rounds on `n`-node graphs.
    pub fn total_rounds(&self, n: usize) -> u32 {
        let id_bits = 3 * (usize::BITS - n.leading_zeros()).max(1);
        let combined = 6u32.pow(u32::from(self.delta));
        1 + cv_iteration_count(id_bits) + (combined - u32::from(self.delta) - 1)
    }
}

/// Per-node state of [`DeltaPlusOne`].
#[derive(Clone, Debug)]
pub struct ColoringState {
    id: u64,
    degree: u8,
    delta: u8,
    /// Ports toward higher-id neighbors, in port order (`k`-th entry =
    /// parent port in forest `k`).
    out_ports: Vec<u8>,
    /// Current color per forest.
    forest_colors: Vec<u64>,
    /// Combined color once the sweeps start.
    combined: u64,
    round: u32,
    cv_rounds: u32,
    total_rounds: u32,
}

impl ColoringState {
    /// The final color (valid once the algorithm is done).
    pub fn color(&self) -> u64 {
        self.combined
    }
}

impl SyncAlgorithm for DeltaPlusOne {
    type State = ColoringState;
    /// Round 0: `[id]`; CV rounds: forest colors; sweeps: `[combined]`.
    type Msg = Vec<u64>;

    fn init(&self, init: &NodeInit) -> ColoringState {
        let id_bits = 3 * (usize::BITS - init.n.leading_zeros()).max(1);
        let cv_rounds = cv_iteration_count(id_bits);
        ColoringState {
            id: init.id,
            degree: init.degree,
            delta: self.delta,
            out_ports: Vec::new(),
            forest_colors: vec![init.id; usize::from(self.delta)],
            combined: 0,
            round: 0,
            cv_rounds,
            total_rounds: self.total_rounds(init.n),
        }
    }

    fn send(&self, state: &ColoringState, _round: u32) -> Vec<Vec<u64>> {
        let payload = if state.round == 0 {
            vec![state.id]
        } else if state.round <= state.cv_rounds {
            state.forest_colors.clone()
        } else {
            vec![state.combined]
        };
        vec![payload; state.degree as usize]
    }

    fn receive(&self, state: &mut ColoringState, inbox: &[Vec<u64>], _round: u32) {
        if state.round == 0 {
            // Learn neighbor ids; orient toward larger id.
            state.out_ports = inbox
                .iter()
                .enumerate()
                .filter(|(_, msg)| msg[0] > state.id)
                .map(|(p, _)| p as u8)
                .collect();
        } else if state.round <= state.cv_rounds {
            // Parallel Cole–Vishkin, one instance per forest.
            #[allow(clippy::needless_range_loop)] // index drives several arrays
            for k in 0..usize::from(state.delta) {
                let mine = state.forest_colors[k];
                let parent = match state.out_ports.get(k) {
                    Some(&p) => inbox[p as usize][k],
                    None => mine ^ 1, // root of forest k
                };
                state.forest_colors[k] = cv_step(mine, parent);
            }
            if state.round == state.cv_rounds {
                // Combine: a proper coloring of G with 6^Δ colors.
                state.combined = state
                    .forest_colors
                    .iter()
                    .rev()
                    .fold(0u64, |acc, &c| acc * 6 + c);
            }
        } else {
            // Sweep eliminating the current target color.
            let sweep = state.round - state.cv_rounds - 1;
            let target = u64::from(6u32.pow(u32::from(state.delta)) - 1 - sweep);
            if state.combined == target {
                let used: Vec<u64> = inbox.iter().map(|m| m[0]).collect();
                state.combined = (0..=u64::from(state.delta))
                    .find(|c| !used.contains(c))
                    .expect("degree ≤ Δ leaves a free color in 0..=Δ");
            }
        }
        state.round += 1;
    }

    fn is_done(&self, state: &ColoringState) -> bool {
        state.round >= state.total_rounds
    }

    fn output(&self, state: &ColoringState) -> Vec<OutLabel> {
        assert!(state.combined <= u64::from(state.delta));
        vec![OutLabel(state.combined as u32); state.degree as usize]
    }

    fn name(&self) -> &str {
        "delta-plus-one"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::k_coloring;
    use lcl_faults::RunOptions;
    use lcl_graph::gen;
    use lcl_local::{simulate_sync_with, IdAssignment};

    fn check(graph: &lcl_graph::Graph, delta: u8, seed: u64) {
        let problem = k_coloring(usize::from(delta) + 1, delta);
        let input = lcl::uniform_input(graph);
        let ids = IdAssignment::random_polynomial(graph.node_count(), 3, seed);
        let alg = DeltaPlusOne { delta };
        let run = simulate_sync_with(
            &alg,
            graph,
            &input,
            &ids.iter().collect::<Vec<_>>(),
            None,
            100_000,
            RunOptions::new(),
        )
        .outcome;
        assert!(run.faults.is_empty(), "the color sweep halts");
        let run = run.outcome;
        let violations = lcl::verify(&problem, graph, &input, &run.output);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(run.rounds, alg.total_rounds(graph.node_count()));
    }

    #[test]
    fn colors_paths_with_three_colors() {
        check(&gen::path(40), 2, 1);
    }

    #[test]
    fn colors_cycles() {
        check(&gen::cycle(33), 2, 2);
    }

    #[test]
    fn colors_random_trees() {
        check(&gen::random_tree(60, 3, 5), 3, 3);
    }

    #[test]
    fn colors_caterpillars_and_stars() {
        check(&gen::caterpillar(8, 1), 3, 4);
        check(&gen::star(3), 3, 5);
    }

    #[test]
    fn round_count_is_log_star_plus_constant() {
        let alg = DeltaPlusOne { delta: 3 };
        let small = alg.total_rounds(16);
        let large = alg.total_rounds(1 << 30);
        // The n-dependence is only through the log* term.
        assert!(large - small <= 3, "small={small} large={large}");
    }
}
