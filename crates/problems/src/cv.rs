//! Cole–Vishkin 3-coloring of consistently oriented paths and cycles —
//! the canonical `Θ(log* n)` algorithm (class B of the landscape).
//!
//! The orientation is provided as *input labels* on half-edges (`l` on
//! predecessor-side, `r` on successor-side half-edges), matching the
//! input-labeled LCL [`oriented_three_coloring`]; the algorithm is the
//! classic one: treat the successor as the parent, iterate the
//! bit-comparison color reduction until six colors remain, then eliminate
//! colors 5, 4, 3 in three sweeps.
//!
//! [`oriented_three_coloring`]: crate::catalog::oriented_three_coloring

use lcl::{HalfEdgeLabeling, InLabel, OutLabel};
use lcl_graph::Graph;
use lcl_local::{NodeInit, SyncAlgorithm};

/// Which oriented topology the inputs encode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Orientation {
    /// A consistently oriented path (one root without successor).
    Path,
    /// A consistently oriented cycle.
    Cycle,
}

/// Input label on predecessor-side half-edges.
pub const INPUT_L: InLabel = InLabel(0);
/// Input label on successor-side half-edges.
pub const INPUT_R: InLabel = InLabel(1);

/// Builds the orientation input labeling for a graph generated by
/// [`lcl_graph::gen::path`] or [`lcl_graph::gen::cycle`] (successor =
/// next node index).
pub fn orientation_inputs(graph: &Graph, orientation: Orientation) -> HalfEdgeLabeling<InLabel> {
    let n = graph.node_count() as u32;
    HalfEdgeLabeling::from_fn(graph, |h| {
        let v = graph.node_of(h).0;
        let w = graph.neighbor(h).0;
        let successor = match orientation {
            Orientation::Path => w == v + 1,
            Orientation::Cycle => w == (v + 1) % n,
        };
        if successor {
            INPUT_R
        } else {
            INPUT_L
        }
    })
}

/// One Cole–Vishkin step: the new color from own and parent color — the
/// index of the lowest differing bit, shifted, plus own bit there.
pub fn cv_step(mine: u64, parent: u64) -> u64 {
    let diff = mine ^ parent;
    debug_assert!(diff != 0, "proper colorings never tie");
    let i = diff.trailing_zeros() as u64;
    2 * i + ((mine >> i) & 1)
}

/// Number of Cole–Vishkin iterations needed to reach at most 6 colors
/// (values `0..=5`) starting from colors of `initial_bits` bits — the
/// `log* + O(1)` schedule every node derives from `n` alone.
pub fn cv_iteration_count(initial_bits: u32) -> u32 {
    let mut bits = initial_bits.max(3);
    let mut iterations = 0;
    while bits > 3 {
        // Colors fit in 2 * bits values, i.e. ceil(log2(2 * bits)) bits.
        bits = u32::BITS - (2 * bits - 1).leading_zeros();
        iterations += 1;
    }
    // One more iteration maps 3-bit colors (≤ 7) into 0..=5.
    iterations + 1
}

/// The Cole–Vishkin 3-coloring algorithm for oriented paths/cycles.
///
/// Run with [`lcl_local::simulate_sync_with`]; the inputs must be the orientation
/// labeling (see [`orientation_inputs`]) and identifiers come from a
/// polynomial range. The measured round count is
/// `cv_iteration_count(3 log n) + 3 = log* n + O(1)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ColeVishkin;

/// Per-node state of [`ColeVishkin`].
#[derive(Clone, Debug)]
pub struct CvState {
    color: u64,
    degree: u8,
    /// Port of the successor edge, if any.
    parent_port: Option<u8>,
    /// Last received colors per port.
    neighbor_colors: Vec<u64>,
    round: u32,
    total_rounds: u32,
}

impl SyncAlgorithm for ColeVishkin {
    type State = CvState;
    type Msg = u64;

    fn init(&self, init: &NodeInit) -> CvState {
        let parent_port = init
            .inputs
            .iter()
            .position(|&l| l == INPUT_R)
            .map(|p| p as u8);
        // Identifiers come from a range of at most n^3 ≤ 2^(3 ceil(log n)).
        let id_bits = 3 * (usize::BITS - init.n.leading_zeros()).max(1);
        let total_rounds = cv_iteration_count(id_bits) + 3;
        CvState {
            color: init.id,
            degree: init.degree,
            parent_port,
            neighbor_colors: vec![0; init.degree as usize],
            round: 0,
            total_rounds,
        }
    }

    fn send(&self, state: &CvState, _round: u32) -> Vec<u64> {
        vec![state.color; state.degree as usize]
    }

    fn receive(&self, state: &mut CvState, inbox: &[u64], _round: u32) {
        state.neighbor_colors = inbox.to_vec();
        let cv_rounds = state.total_rounds - 3;
        if state.round < cv_rounds {
            // Cole–Vishkin phase.
            let parent_color = match state.parent_port {
                Some(p) => inbox[p as usize],
                // The root pretends its parent differs in bit 0.
                None => state.color ^ 1,
            };
            state.color = cv_step(state.color, parent_color);
        } else {
            // Reduction sweeps: eliminate colors 5, 4, 3.
            let target = 5 - (state.round - cv_rounds) as u64;
            if state.color == target {
                state.color = (0..3)
                    .find(|c| !inbox.contains(c))
                    .expect("degree ≤ 2 leaves a free color in {0,1,2}");
            }
        }
        state.round += 1;
    }

    fn is_done(&self, state: &CvState) -> bool {
        state.round >= state.total_rounds
    }

    fn output(&self, state: &CvState) -> Vec<OutLabel> {
        assert!(state.color < 3, "reduction must end in 3 colors");
        vec![OutLabel(state.color as u32); state.degree as usize]
    }

    fn name(&self) -> &str {
        "cole-vishkin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::oriented_three_coloring;
    use lcl_faults::RunOptions;
    use lcl_graph::gen;
    use lcl_local::{simulate_sync_with, IdAssignment};

    #[test]
    fn cv_step_preserves_properness() {
        // For any distinct pair, consecutive applications stay distinct.
        for a in 0..32u64 {
            for b in 0..32u64 {
                if a == b {
                    continue;
                }
                for c in 0..32u64 {
                    if b == c {
                        continue;
                    }
                    // Chain a -> b -> c: new colors of a (vs b) and b (vs c).
                    let na = cv_step(a, b);
                    let nb = cv_step(b, c);
                    assert_ne!(na, nb, "a={a} b={b} c={c}");
                }
            }
        }
    }

    #[test]
    fn iteration_count_is_log_star_like() {
        assert_eq!(cv_iteration_count(3), 1);
        assert!(cv_iteration_count(30) <= 5);
        assert!(cv_iteration_count(3_000) <= 6);
        assert!(cv_iteration_count(3_000) >= cv_iteration_count(30));
    }

    #[test]
    fn colors_cycles_properly() {
        let problem = oriented_three_coloring();
        for n in [3usize, 5, 16, 100] {
            let g = gen::cycle(n);
            let input = orientation_inputs(&g, Orientation::Cycle);
            let ids = IdAssignment::random_polynomial(n, 3, n as u64);
            let run = simulate_sync_with(
                &ColeVishkin,
                &g,
                &input,
                &ids.iter().collect::<Vec<_>>(),
                None,
                100,
                RunOptions::new(),
            )
            .outcome;
            assert!(run.faults.is_empty(), "Cole–Vishkin halts");
            let run = run.outcome;
            let violations = lcl::verify(&problem, &g, &input, &run.output);
            assert!(violations.is_empty(), "n={n}: {violations:?}");
        }
    }

    #[test]
    fn colors_paths_properly() {
        let problem = oriented_three_coloring();
        for n in [2usize, 7, 33, 200] {
            let g = gen::path(n);
            let input = orientation_inputs(&g, Orientation::Path);
            let ids = IdAssignment::random_polynomial(n, 3, 7 * n as u64);
            let run = simulate_sync_with(
                &ColeVishkin,
                &g,
                &input,
                &ids.iter().collect::<Vec<_>>(),
                None,
                100,
                RunOptions::new(),
            )
            .outcome;
            assert!(run.faults.is_empty(), "Cole–Vishkin halts");
            let run = run.outcome;
            let violations = lcl::verify(&problem, &g, &input, &run.output);
            assert!(violations.is_empty(), "n={n}: {violations:?}");
        }
    }

    #[test]
    fn rounds_grow_like_log_star() {
        // Rounds are cv_iteration_count(3 log n) + 3: tiny and nearly
        // flat. Check monotonicity and smallness.
        let mut prev = 0;
        for n in [4usize, 64, 4096, 1 << 16] {
            let g = gen::cycle(n.max(3));
            let input = orientation_inputs(&g, Orientation::Cycle);
            let ids = IdAssignment::random_polynomial(g.node_count(), 3, 1);
            let run = simulate_sync_with(
                &ColeVishkin,
                &g,
                &input,
                &ids.iter().collect::<Vec<_>>(),
                None,
                100,
                RunOptions::new(),
            )
            .outcome;
            assert!(run.faults.is_empty(), "Cole–Vishkin halts");
            let run = run.outcome;
            assert!(run.rounds >= prev);
            assert!(run.rounds <= 10, "n={n}: rounds={}", run.rounds);
            prev = run.rounds;
        }
    }
}
