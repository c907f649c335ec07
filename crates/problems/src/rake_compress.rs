//! Rake-and-compress (Miller–Reif) layering of trees — the `Θ(log n)`
//! engine behind the classes `Θ(log n)` / `Θ(n^{1/k})` of the tree
//! landscape (Chang–Pettie's hierarchy is built on exactly this
//! decomposition).
//!
//! Every round, *rake* removes nodes with at most one active neighbor and
//! *compress* removes degree-2 nodes that win a random coin against their
//! degree-2 neighbors. On any tree the number of rounds is `O(log n)`
//! with high probability; the measured round count is the `Θ(log n)`
//! series of the Figure 1 benches.

use lcl::OutLabel;
use lcl_local::{NodeInit, SyncAlgorithm};

/// The rake-and-compress peeling algorithm. Outputs each node's layer
/// number modulo 3 (the layer itself is returned by the round count and
/// [`rake_compress_rounds`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RakeCompress {
    /// Seed mixed into the per-round coins.
    pub seed: u64,
}

/// Per-node state of [`RakeCompress`].
#[derive(Clone, Debug)]
pub struct RcState {
    id: u64,
    seed: u64,
    degree: u8,
    active: bool,
    neighbor_active: Vec<bool>,
    layer: u32,
    round: u32,
}

fn coin(id: u64, seed: u64, round: u32) -> bool {
    // A splitmix-style hash: deterministic, uniform enough for the
    // constant-probability compress step.
    let mut x = id
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(seed)
        .wrapping_add(u64::from(round) << 32);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x & 1 == 1
}

impl SyncAlgorithm for RakeCompress {
    type State = RcState;
    /// `(still active, active-degree, coin)`.
    type Msg = (bool, u8, bool);

    fn init(&self, init: &NodeInit) -> RcState {
        RcState {
            id: init.id,
            seed: self.seed,
            degree: init.degree,
            active: true,
            neighbor_active: vec![true; init.degree as usize],
            layer: 0,
            round: 0,
        }
    }

    fn send(&self, state: &RcState, _round: u32) -> Vec<(bool, u8, bool)> {
        let active_degree = state.neighbor_active.iter().filter(|&&a| a).count() as u8;
        let msg = (
            state.active,
            active_degree,
            coin(state.id, state.seed, state.round),
        );
        vec![msg; state.degree as usize]
    }

    fn receive(&self, state: &mut RcState, inbox: &[(bool, u8, bool)], _round: u32) {
        if state.active {
            let active_ports: Vec<usize> = inbox
                .iter()
                .enumerate()
                .filter(|(_, m)| m.0)
                .map(|(p, _)| p)
                .collect();
            let my_coin = coin(state.id, state.seed, state.round);
            let removed = match active_ports.len() {
                // Rake: leaves (and isolated remnants) drop out.
                0 | 1 => true,
                // Compress: win the coin against degree-2 chain neighbors.
                2 => {
                    my_coin
                        && active_ports.iter().all(|&p| {
                            let (_, neighbor_deg, neighbor_coin) = inbox[p];
                            neighbor_deg != 2 || !neighbor_coin
                        })
                }
                _ => false,
            };
            if removed {
                state.active = false;
                state.layer = state.round + 1;
            }
        }
        for (p, m) in inbox.iter().enumerate() {
            state.neighbor_active[p] = m.0;
        }
        state.round += 1;
    }

    fn is_done(&self, state: &RcState) -> bool {
        // One extra round after removal so neighbors observe it.
        !state.active && state.neighbor_active.iter().all(|&a| !a)
    }

    fn output(&self, state: &RcState) -> Vec<OutLabel> {
        vec![OutLabel(state.layer % 3); state.degree as usize]
    }

    fn name(&self) -> &str {
        "rake-compress"
    }
}

/// Runs rake-and-compress on a tree/forest and returns the number of
/// peeling rounds — `O(log n)` with high probability.
pub fn rake_compress_rounds(graph: &lcl_graph::Graph, seed: u64) -> u32 {
    let input = lcl::uniform_input(graph);
    let ids: Vec<u64> = (0..graph.node_count() as u64).collect();
    let run = lcl_local::simulate_sync_with(
        &RakeCompress { seed },
        graph,
        &input,
        &ids,
        None,
        100_000,
        Default::default(), // no plan, budget or log
    )
    .outcome;
    assert!(run.faults.is_empty(), "why: every forest peels");
    run.outcome.rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_graph::gen;

    #[test]
    fn paths_peel_in_logarithmic_rounds() {
        for (n, bound) in [(16usize, 30u32), (256, 60), (4096, 90)] {
            let g = gen::path(n);
            let rounds = rake_compress_rounds(&g, 1);
            assert!(rounds > 0);
            assert!(rounds <= bound, "n={n}: rounds={rounds}");
        }
    }

    #[test]
    fn rounds_grow_with_n() {
        let small = rake_compress_rounds(&gen::path(8), 3);
        let large = rake_compress_rounds(&gen::path(8192), 3);
        assert!(large > small, "small={small} large={large}");
    }

    #[test]
    fn complete_trees_rake_quickly() {
        // A complete binary tree has no long chains: pure raking peels a
        // level per round, so rounds ≈ depth.
        let g = gen::complete_tree(2, 6); // 127 nodes, depth 6
        let rounds = rake_compress_rounds(&g, 2);
        assert!(rounds >= 4, "rounds={rounds}");
        assert!(rounds <= 10, "rounds={rounds}");
    }

    #[test]
    fn stars_and_singletons_terminate() {
        assert!(rake_compress_rounds(&gen::star(3), 1) <= 4);
        let single = lcl_graph::GraphBuilder::new(1).build().unwrap();
        assert!(rake_compress_rounds(&single, 1) <= 2);
    }

    #[test]
    fn coins_are_deterministic_and_mixed() {
        assert_eq!(coin(5, 7, 3), coin(5, 7, 3));
        // Not all equal over a sample.
        let values: std::collections::HashSet<bool> = (0..32).map(|i| coin(i, 0, 0)).collect();
        assert_eq!(values.len(), 2);
    }
}
