//! Maximal matching from a `(Δ+1)`-coloring in `O(log* n) + O_Δ(1)`
//! rounds.
//!
//! After coloring, `(Δ+1)·Δ` propose/accept phases run, one per
//! (color, port) pair: in phase `(c, p)` every unmatched node of color `c`
//! proposes through port `p`; every unmatched node that is not proposing
//! accepts its lowest-port proposal. Maximality: if adjacent `u, v` both
//! ended unmatched, then in phase `(color(u), port_u(v))` node `u`
//! proposed to `v` and `v` (a different color, hence not proposing)
//! accepted *someone* — contradiction.

use lcl::OutLabel;
use lcl_local::{NodeInit, SyncAlgorithm};

use crate::coloring::{ColoringState, DeltaPlusOne};

/// Maximal matching via coloring; outputs match
/// [`maximal_matching_problem(Δ)`](crate::catalog::maximal_matching_problem)
/// (`M`/`S`/`F`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MatchingByColor {
    /// The degree bound `Δ`.
    pub delta: u8,
}

/// Per-node state of [`MatchingByColor`].
#[derive(Clone, Debug)]
pub struct MatchingState {
    coloring: ColoringState,
    coloring_rounds: u32,
    /// Port of the matched partner, if any.
    partner: Option<u8>,
    /// Port this node proposed through in the current phase, if any.
    proposed: Option<u8>,
    /// Ports with pending proposals received in the current phase.
    proposals: Vec<u8>,
    round: u32,
    total_rounds: u32,
    degree: u8,
}

impl MatchingByColor {
    fn inner(&self) -> DeltaPlusOne {
        DeltaPlusOne { delta: self.delta }
    }

    /// Total rounds: coloring plus two rounds per (color, port) phase.
    pub fn total_rounds(&self, n: usize) -> u32 {
        self.inner().total_rounds(n) + 2 * (u32::from(self.delta) + 1) * u32::from(self.delta)
    }
}

impl SyncAlgorithm for MatchingByColor {
    type State = MatchingState;
    /// Per-port flag: propose (round A) or accept (round B).
    type Msg = Vec<u64>;

    fn init(&self, init: &NodeInit) -> MatchingState {
        MatchingState {
            coloring: self.inner().init(init),
            coloring_rounds: self.inner().total_rounds(init.n),
            partner: None,
            proposed: None,
            proposals: Vec::new(),
            round: 0,
            total_rounds: self.total_rounds(init.n),
            degree: init.degree,
        }
    }

    fn send(&self, state: &MatchingState, round: u32) -> Vec<Vec<u64>> {
        if state.round < state.coloring_rounds {
            return self.inner().send(&state.coloring, round);
        }
        let step = state.round - state.coloring_rounds;
        let (phase, is_accept_round) = (step / 2, step % 2 == 1);
        if !is_accept_round {
            // Round A: propose through port p if of color c and unmatched.
            let color_turn = u64::from(phase) / u64::from(self.delta.max(1));
            let port_turn = (phase % u32::from(self.delta.max(1))) as u8;
            (0..state.degree)
                .map(|p| {
                    let propose = state.partner.is_none()
                        && state.coloring.color() == color_turn
                        && p == port_turn;
                    vec![u64::from(propose)]
                })
                .collect()
        } else {
            // Round B: accept the lowest-port proposal if unmatched and
            // not proposing this phase.
            let accept_port = if state.partner.is_none() && state.proposed.is_none() {
                state.proposals.iter().copied().min()
            } else {
                None
            };
            (0..state.degree)
                .map(|p| vec![u64::from(accept_port == Some(p))])
                .collect()
        }
    }

    fn receive(&self, state: &mut MatchingState, inbox: &[Vec<u64>], round: u32) {
        if state.round < state.coloring_rounds {
            self.inner().receive(&mut state.coloring, inbox, round);
            state.round += 1;
            return;
        }
        let step = state.round - state.coloring_rounds;
        let (phase, is_accept_round) = (step / 2, step % 2 == 1);
        if !is_accept_round {
            // Record proposals received; remember whether we proposed.
            state.proposals = inbox
                .iter()
                .enumerate()
                .filter(|(_, m)| m[0] == 1)
                .map(|(p, _)| p as u8)
                .collect();
            let color_turn = u64::from(phase) / u64::from(self.delta.max(1));
            let port_turn = (phase % u32::from(self.delta.max(1))) as u8;
            state.proposed = (state.partner.is_none()
                && state.coloring.color() == color_turn
                && port_turn < state.degree)
                .then_some(port_turn);
        } else {
            // An accept on the port we proposed through matches us; an
            // accept we sent matches us with the accepted proposer.
            if let Some(p) = state.proposed {
                if inbox[p as usize][0] == 1 {
                    state.partner = Some(p);
                }
            }
            if state.partner.is_none() && state.proposed.is_none() {
                if let Some(&p) = state.proposals.iter().min_by_key(|&&p| p) {
                    // We accepted this proposer in our send phase.
                    state.partner = Some(p);
                }
            }
            state.proposed = None;
            state.proposals.clear();
        }
        state.round += 1;
    }

    fn is_done(&self, state: &MatchingState) -> bool {
        state.round >= state.total_rounds
    }

    fn output(&self, state: &MatchingState) -> Vec<OutLabel> {
        const M: u32 = 0;
        const S: u32 = 1;
        const F: u32 = 2;
        match state.partner {
            Some(q) => (0..state.degree)
                .map(|p| OutLabel(if p == q { M } else { S }))
                .collect(),
            None => vec![OutLabel(F); state.degree as usize],
        }
    }

    fn name(&self) -> &str {
        "matching-by-color"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::maximal_matching_problem;
    use lcl_faults::RunOptions;
    use lcl_graph::gen;
    use lcl_local::{simulate_sync_with, IdAssignment};

    fn check(graph: &lcl_graph::Graph, delta: u8, seed: u64) {
        let problem = maximal_matching_problem(delta);
        let input = lcl::uniform_input(graph);
        let ids = IdAssignment::random_polynomial(graph.node_count(), 3, seed);
        let alg = MatchingByColor { delta };
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
    fn matches_paths_and_cycles() {
        check(&gen::path(2), 2, 1);
        check(&gen::path(29), 2, 2);
        check(&gen::cycle(20), 2, 3);
    }

    #[test]
    fn matches_trees_and_forests() {
        check(&gen::random_tree(44, 3, 4), 3, 4);
        check(&gen::star(3), 3, 5);
        check(&gen::random_forest(36, 3, 3, 6), 3, 7);
    }
}
