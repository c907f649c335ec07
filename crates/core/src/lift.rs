//! Lemma 3.9, executable: a 0-round algorithm for `f^k(Π)` lifts to a
//! `k`-round LOCAL algorithm for `Π`.
//!
//! Each lift step undoes one application of `f = R̄ ∘ R` and costs one
//! communication round:
//!
//! 1. **Edge step** (`R̄(R(Π)) → R(Π)`, needs the neighbor's label): for
//!    every edge `e = {v, w}`, both endpoints deterministically pick the
//!    lexicographically smallest pair
//!    `(L_{(v,e)}, L_{(w,e)}) ∈ A_{(v,e)} × A_{(w,e)}` that is an allowed
//!    `R(Π)` edge configuration — it exists because `{A_v, A_w}` is an
//!    allowed `R̄(R(Π))` edge configuration (an `∃` constraint).
//!    Identifier order orients the pair so both endpoints agree.
//! 2. **Node step** (`R(Π) → Π`, local): each node picks, from the sets
//!    `L_{(v,e)}` on its ports, a selection that is an allowed `Π` node
//!    configuration — it exists because `{L_{(v,e')}}` is an allowed
//!    `R(Π)` node configuration (an `∃` constraint).
//!
//! The implementation is a [`SyncAlgorithm`], so the executor's round
//! counter certifies that exactly `k` rounds are used.

use lcl::{InLabel, OutLabel, Problem};
use lcl_local::{NodeInit, SyncAlgorithm};

use crate::tower::ReTower;
use crate::zero_round::ZeroRoundAlgorithm;

/// The lifted constant-round algorithm produced by the Theorem 3.10/3.11
/// pipeline: `A_det` for `f^k(Π)` plus `k` rounds of Lemma 3.9 decoding.
#[derive(Debug)]
pub struct LiftedAlgorithm<'t> {
    tower: &'t ReTower,
    adet: ZeroRoundAlgorithm,
    steps: usize,
}

/// Per-node state of the lifted algorithm.
#[derive(Clone, Debug)]
pub struct LiftState {
    id: u64,
    inputs: Vec<InLabel>,
    /// Current labels per port, at tower level `level`.
    labels: Vec<u32>,
    /// The tower level the labels currently live at (`2 * remaining`).
    level: usize,
}

impl<'t> LiftedAlgorithm<'t> {
    /// Assembles the lifted algorithm.
    ///
    /// # Panics
    ///
    /// Panics if the tower does not have (at least) `2 * steps` derived
    /// levels.
    pub fn new(tower: &'t ReTower, adet: ZeroRoundAlgorithm, steps: usize) -> Self {
        assert!(
            tower.level_count() > 2 * steps,
            "tower must contain f^steps(Π)"
        );
        Self { tower, adet, steps }
    }

    /// The number of communication rounds the algorithm uses.
    pub fn rounds(&self) -> u32 {
        self.steps as u32
    }

    /// The `A_det` table driving level `2·steps`.
    pub fn adet(&self) -> &ZeroRoundAlgorithm {
        &self.adet
    }

    /// Edge step: given both endpoint labels at an `R̄` level, returns this
    /// endpoint's decoded `R`-level label.
    fn edge_decode(&self, level: usize, mine: u32, theirs: u32, i_am_first: bool) -> u32 {
        let my_members = self.tower.label_members(level, OutLabel(mine));
        let their_members = self.tower.label_members(level, OutLabel(theirs));
        let r_level = self.tower.level(level - 1);
        // Both endpoints compute the lexicographically smallest pair
        // (first, second) with the *first* endpoint determined by id order.
        let (first_set, second_set) = if i_am_first {
            (my_members, their_members)
        } else {
            (their_members, my_members)
        };
        let (x, y) = first_set
            .iter()
            .find_map(|&x| {
                second_set
                    .iter()
                    .find(|&&y| r_level.edge_allows(OutLabel(x), OutLabel(y)))
                    .map(|&y| (x, y))
            })
            .expect(
                "why: {A_v, A_w} is an allowed R̄(R(Π)) edge configuration, so Lemma 3.9 \
                 guarantees an allowed R-pair exists in A_v × A_w",
            );
        if i_am_first {
            x
        } else {
            y
        }
    }

    /// Node step: given the node's `R`-level labels per port, selects
    /// `Π`-level labels per port forming an allowed node configuration.
    fn node_decode(&self, level: usize, r_labels: &[u32], inputs: &[InLabel]) -> Vec<u32> {
        let below = self.tower.level(level - 2);
        let sets: Vec<&[u32]> = r_labels
            .iter()
            .map(|&l| self.tower.label_members(level - 1, OutLabel(l)))
            .collect();
        let mut chosen: Vec<u32> = Vec::with_capacity(sets.len());
        let found = select(&below, &sets, inputs, &mut chosen);
        assert!(
            found,
            "why: the port sets form an allowed R(Π) node configuration at level {level}, so \
             Lemma 3.9 guarantees a Π-completion"
        );
        chosen
    }
}

/// Lexicographically smallest selection (one label per set) that is an
/// allowed node configuration and satisfies `g` per position.
fn select(
    below: &(impl Problem + ?Sized),
    sets: &[&[u32]],
    inputs: &[InLabel],
    chosen: &mut Vec<u32>,
) -> bool {
    if chosen.len() == sets.len() {
        let labels: Vec<OutLabel> = chosen.iter().map(|&l| OutLabel(l)).collect();
        return below.node_allows(&labels);
    }
    let pos = chosen.len();
    for &candidate in sets[pos] {
        if !below.input_allows(inputs[pos], OutLabel(candidate)) {
            continue;
        }
        chosen.push(candidate);
        if select(below, sets, inputs, chosen) {
            return true;
        }
        chosen.pop();
    }
    false
}

impl SyncAlgorithm for LiftedAlgorithm<'_> {
    type State = LiftState;
    /// `(identifier, current top-level label on this edge)`.
    type Msg = (u64, u32);

    fn init(&self, init: &NodeInit) -> LiftState {
        let labels = self
            .adet
            .outputs_for(&init.inputs)
            .into_iter()
            .map(|l| l.0)
            .collect();
        LiftState {
            id: init.id,
            inputs: init.inputs.clone(),
            labels,
            level: 2 * self.steps,
        }
    }

    fn send(&self, state: &LiftState, _round: u32) -> Vec<(u64, u32)> {
        state.labels.iter().map(|&l| (state.id, l)).collect()
    }

    fn receive(&self, state: &mut LiftState, inbox: &[(u64, u32)], _round: u32) {
        if state.level == 0 {
            return;
        }
        let level = state.level;
        // Edge step per port.
        let r_labels: Vec<u32> = state
            .labels
            .iter()
            .zip(inbox)
            .map(|(&mine, &(their_id, theirs))| {
                // Orientation must be symmetric and deterministic: order
                // endpoints by identifier (unique), so both sides agree.
                let first = state.id < their_id;
                self.edge_decode(level, mine, theirs, first)
            })
            .collect();
        // Node step.
        state.labels = self.node_decode(level, &r_labels, &state.inputs);
        state.level -= 2;
    }

    fn is_done(&self, state: &LiftState) -> bool {
        state.level == 0
    }

    fn output(&self, state: &LiftState) -> Vec<OutLabel> {
        assert_eq!(state.level, 0, "output requested before decoding finished");
        state.labels.iter().map(|&l| OutLabel(l)).collect()
    }

    fn name(&self) -> &str {
        "lemma-3.9-lift"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tower::ReOptions;
    use crate::zero_round::{decide_zero_round, ZeroRoundOptions, ZeroRoundResult};
    use lcl::LclProblem;
    use lcl_faults::RunOptions;
    use lcl_graph::gen;
    use lcl_local::simulate_sync_with;

    /// Edge constraint {X, Y} only (every edge bi-chromatic); node
    /// constraints free. Not 0-round solvable, but 1-round solvable — the
    /// canonical k = 1 pipeline example.
    fn anti_matching() -> LclProblem {
        LclProblem::parse("name: anti\nmax-degree: 3\nnodes:\nX* Y*\nedges:\nX Y\n").unwrap()
    }

    #[test]
    fn one_step_lift_solves_anti_matching() {
        let problem = anti_matching();
        let mut tower = ReTower::new(problem.clone());
        tower.push_f(ReOptions::default()).unwrap();
        let top = tower.level(2);
        let result = decide_zero_round(&top, ZeroRoundOptions::default());
        let ZeroRoundResult::Solvable(adet) = result else {
            panic!("f(anti-matching) must be 0-round solvable, got {result:?}");
        };
        let lifted = LiftedAlgorithm::new(&tower, adet, 1);
        assert_eq!(lifted.rounds(), 1);

        for (name, g) in [
            ("path", gen::path(7)),
            ("tree", gen::random_tree(24, 3, 3)),
            ("star", gen::star(3)),
        ] {
            let input = lcl::uniform_input(&g);
            let ids: Vec<u64> = (0..g.node_count() as u64).map(|i| i * 7 + 3).collect();
            let run =
                simulate_sync_with(&lifted, &g, &input, &ids, None, 10, RunOptions::new()).outcome;
            assert!(run.faults.is_empty(), "synthesized algorithms halt");
            let run = run.outcome;
            assert_eq!(run.rounds, 1, "{name}");
            let violations = lcl::verify(&problem, &g, &input, &run.output);
            assert!(violations.is_empty(), "{name}: {violations:?}");
        }
    }

    #[test]
    fn zero_step_lift_is_adet() {
        let p = LclProblem::parse("max-degree: 3\nnodes:\nX*\nedges:\nX X\n").unwrap();
        let tower = ReTower::new(p.clone());
        let ZeroRoundResult::Solvable(adet) =
            decide_zero_round(&tower.level(0), ZeroRoundOptions::default())
        else {
            panic!("trivial problem is 0-round solvable");
        };
        let lifted = LiftedAlgorithm::new(&tower, adet, 0);
        let g = gen::random_tree(10, 3, 1);
        let input = lcl::uniform_input(&g);
        let ids: Vec<u64> = (0..10).collect();
        let run = simulate_sync_with(&lifted, &g, &input, &ids, None, 5, RunOptions::new()).outcome;
        assert!(run.faults.is_empty(), "synthesized algorithms halt");
        let run = run.outcome;
        assert_eq!(run.rounds, 0);
        assert!(lcl::verify(&p, &g, &input, &run.output).is_empty());
    }
}
