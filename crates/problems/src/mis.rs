//! Maximal independent set from a `(Δ+1)`-coloring — the standard
//! color-class sweep, `O(log* n) + O_Δ(1)` rounds total.
//!
//! After coloring, color classes are processed in order: an undecided node
//! of the current color joins the set unless a neighbor already did; in
//! the final round every non-member picks a pointer to a member neighbor
//! (the [`mis_problem`](crate::catalog::mis_problem) encoding).

use lcl::OutLabel;
use lcl_local::{NodeInit, SyncAlgorithm};

use crate::coloring::{ColoringState, DeltaPlusOne};

/// MIS via coloring; outputs match
/// [`mis_problem(Δ)`](crate::catalog::mis_problem) (`I`/`P`/`N`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MisByColor {
    /// The degree bound `Δ`.
    pub delta: u8,
}

/// Membership status during the sweeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Undecided,
    In,
    Out,
}

/// Per-node state of [`MisByColor`].
#[derive(Clone, Debug)]
pub struct MisState {
    coloring: ColoringState,
    coloring_rounds: u32,
    status: Status,
    /// Last known membership per port (true = neighbor is in the set).
    neighbor_in: Vec<bool>,
    round: u32,
    total_rounds: u32,
    degree: u8,
}

impl MisByColor {
    fn inner(&self) -> DeltaPlusOne {
        DeltaPlusOne { delta: self.delta }
    }

    /// Total rounds: the coloring plus one sweep per color plus one
    /// pointer round.
    pub fn total_rounds(&self, n: usize) -> u32 {
        self.inner().total_rounds(n) + u32::from(self.delta) + 2
    }
}

impl SyncAlgorithm for MisByColor {
    type State = MisState;
    /// Coloring phase: forwarded messages; sweep phase: `[status, color]`
    /// with status 1 = member.
    type Msg = Vec<u64>;

    fn init(&self, init: &NodeInit) -> MisState {
        let coloring_rounds = self.inner().total_rounds(init.n);
        MisState {
            coloring: self.inner().init(init),
            coloring_rounds,
            status: Status::Undecided,
            neighbor_in: vec![false; init.degree as usize],
            round: 0,
            total_rounds: self.total_rounds(init.n),
            degree: init.degree,
        }
    }

    fn send(&self, state: &MisState, round: u32) -> Vec<Vec<u64>> {
        if state.round < state.coloring_rounds {
            self.inner().send(&state.coloring, round)
        } else {
            let status = u64::from(state.status == Status::In);
            vec![vec![status, state.coloring.color()]; state.degree as usize]
        }
    }

    fn receive(&self, state: &mut MisState, inbox: &[Vec<u64>], round: u32) {
        if state.round < state.coloring_rounds {
            self.inner().receive(&mut state.coloring, inbox, round);
            state.round += 1;
            return;
        }
        // Sweep rounds: one color class per round.
        let sweep = state.round - state.coloring_rounds;
        for (p, msg) in inbox.iter().enumerate() {
            state.neighbor_in[p] = msg[0] == 1;
        }
        if u64::from(sweep) == state.coloring.color() && state.status == Status::Undecided {
            state.status = if state.neighbor_in.iter().any(|&b| b) {
                Status::Out
            } else {
                Status::In
            };
        }
        // Nodes whose color class passed and who saw a member resolve Out.
        if state.status == Status::Undecided && state.neighbor_in.iter().any(|&b| b) {
            state.status = Status::Out;
        }
        state.round += 1;
    }

    fn is_done(&self, state: &MisState) -> bool {
        state.round >= state.total_rounds
    }

    fn output(&self, state: &MisState) -> Vec<OutLabel> {
        const I: u32 = 0;
        const P: u32 = 1;
        const N: u32 = 2;
        match state.status {
            Status::In => vec![OutLabel(I); state.degree as usize],
            Status::Out => {
                let pointer = state
                    .neighbor_in
                    .iter()
                    .position(|&b| b)
                    .expect("an out-node has a member neighbor");
                (0..state.degree as usize)
                    .map(|p| OutLabel(if p == pointer { P } else { N }))
                    .collect()
            }
            Status::Undecided => {
                unreachable!("all nodes decide within Δ+1 sweeps")
            }
        }
    }

    fn name(&self) -> &str {
        "mis-by-color"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::mis_problem;
    use lcl_faults::RunOptions;
    use lcl_graph::gen;
    use lcl_local::{simulate_sync_with, IdAssignment};

    fn check(graph: &lcl_graph::Graph, delta: u8, seed: u64) {
        let problem = mis_problem(delta);
        let input = lcl::uniform_input(graph);
        let ids = IdAssignment::random_polynomial(graph.node_count(), 3, seed);
        let alg = MisByColor { delta };
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
    }

    #[test]
    fn mis_on_paths_and_cycles() {
        check(&gen::path(31), 2, 1);
        check(&gen::cycle(24), 2, 2);
    }

    #[test]
    fn mis_on_trees() {
        check(&gen::random_tree(48, 3, 7), 3, 3);
        check(&gen::star(3), 3, 4);
        check(&gen::caterpillar(6, 1), 3, 5);
    }

    #[test]
    fn mis_on_forests() {
        check(&gen::random_forest(40, 4, 3, 9), 3, 6);
    }
}
