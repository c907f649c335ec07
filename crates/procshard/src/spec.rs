//! Serializable job specifications for cross-process shard workers.
//!
//! A shard worker is a separate OS process: it cannot borrow the
//! supervisor's [`Graph`] or algorithm value, so a
//! proc-sharded run is described by a [`ProcJob`] — a closed, seedable
//! spec from which both sides reconstruct identical state. Graphs are
//! named generator calls ([`GraphSpec`]), algorithms are named catalog
//! entries ([`AlgSpec`]), and inputs are named constructions
//! ([`InputSpec`]); all three are deterministic, which is what makes
//! kill recovery replay-based (see [`crate::supervisor`]) and the
//! one-shard proc run bit-identical to the in-process executor.

use lcl::{HalfEdgeLabeling, InLabel, OutLabel};
use lcl_graph::{gen, Graph};
use lcl_local::{NodeInit, SyncAlgorithm};

/// A graph as a deterministic generator call, reconstructible in any
/// process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphSpec {
    /// [`gen::path`]: a path on `n` nodes.
    Path {
        /// Node count.
        n: usize,
    },
    /// [`gen::random_tree`]: a seeded random tree.
    RandomTree {
        /// Node count.
        n: usize,
        /// Maximum degree.
        max_degree: u8,
        /// Generator seed.
        seed: u64,
    },
    /// [`gen::caterpillar`]: a spine with `legs` pendant nodes each.
    Caterpillar {
        /// Spine length.
        spine: usize,
        /// Legs per spine node.
        legs: usize,
    },
    /// [`gen::star`]: one hub with `leaves` pendant nodes.
    Star {
        /// Leaf count.
        leaves: usize,
    },
}

impl GraphSpec {
    /// Builds the graph this spec names. Both the supervisor and every
    /// worker call this with the same spec, so all processes hold the
    /// same port-numbered graph.
    pub fn build(&self) -> Graph {
        match *self {
            GraphSpec::Path { n } => gen::path(n),
            GraphSpec::RandomTree {
                n,
                max_degree,
                seed,
            } => gen::random_tree(n, max_degree, seed),
            GraphSpec::Caterpillar { spine, legs } => gen::caterpillar(spine, legs),
            GraphSpec::Star { leaves } => gen::star(leaves),
        }
    }
}

/// An algorithm as a catalog name plus parameter, reconstructible in
/// any process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AlgSpec {
    /// [`GuardedFlood`] with halt bound `k` (`Msg = u64`).
    GuardedFlood {
        /// Rounds each node floods before halting.
        k: u32,
    },
    /// The synthesized constant-round E1 pipeline: the worker runs
    /// `lcl_core::tree_speedup` on `lcl_problems::anti_matching(delta)`
    /// and executes the resulting lifted algorithm (`Msg = (u64, u32)`).
    AntiMatchingE1 {
        /// Degree bound of the anti-matching instance.
        delta: u8,
    },
}

/// An input labeling as a named construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InputSpec {
    /// [`lcl::uniform_input`]: every half-edge carries input label 0.
    Uniform,
}

impl InputSpec {
    /// Builds the input labeling for `graph`.
    pub fn build(&self, graph: &Graph) -> HalfEdgeLabeling<InLabel> {
        match self {
            InputSpec::Uniform => lcl::uniform_input(graph),
        }
    }
}

/// One cross-process sharded run: everything a worker needs to
/// reconstruct its shard of the computation, plus the round cap the
/// supervisor drives toward.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcJob {
    /// The graph, as a generator call.
    pub graph: GraphSpec,
    /// The algorithm, as a catalog name.
    pub alg: AlgSpec,
    /// The input labeling, as a named construction.
    pub input: InputSpec,
    /// Per-node identifiers, one per node of the graph (a different
    /// count is [`ProcError::IdCount`](crate::ProcError::IdCount)).
    /// These are pre-permutation: the coordinator applies the fault
    /// plan's ID permutation to the whole assignment, for both
    /// transports alike, and each worker is shipped only the ids of the
    /// nodes it owns.
    pub ids: Vec<u64>,
    /// The announced `n` handed to [`NodeInit`], or `None` for the
    /// true node count.
    pub n_announced: Option<usize>,
    /// Round cap (further capped by the run budget's `max_rounds`).
    pub max_rounds: u32,
}

/// Flood-max with a halt guard: a node floods the maximum id it has
/// seen for `k` rounds and ignores every message after its own round
/// counter reaches `k`. The same algorithm the in-process shard tests
/// use; exported here so equivalence tests can run the identical code
/// on both substrates.
pub struct GuardedFlood {
    /// Rounds each node floods before halting.
    pub k: u32,
}

/// Node state of [`GuardedFlood`].
#[derive(Clone)]
pub struct FloodState {
    best: u64,
    mine: u64,
    degree: usize,
    round: u32,
    k: u32,
}

impl SyncAlgorithm for GuardedFlood {
    type State = FloodState;
    type Msg = u64;

    fn init(&self, init: &NodeInit) -> FloodState {
        FloodState {
            best: init.id,
            mine: init.id,
            degree: init.degree as usize,
            round: 0,
            k: self.k,
        }
    }

    fn send(&self, state: &FloodState, _round: u32) -> Vec<u64> {
        vec![state.best; state.degree]
    }

    fn receive(&self, state: &mut FloodState, inbox: &[u64], _round: u32) {
        if state.round >= state.k {
            return;
        }
        for &msg in inbox {
            state.best = state.best.max(msg);
        }
        state.round += 1;
    }

    fn is_done(&self, state: &FloodState) -> bool {
        state.round >= state.k
    }

    fn output(&self, state: &FloodState) -> Vec<OutLabel> {
        vec![OutLabel(u32::from(state.best == state.mine)); state.degree]
    }

    fn name(&self) -> &str {
        "guarded-flood"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_specs_build_deterministically() {
        let spec = GraphSpec::RandomTree {
            n: 32,
            max_degree: 3,
            seed: 9,
        };
        let a = spec.build();
        let b = spec.build();
        assert_eq!(a.node_count(), 32);
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(GraphSpec::Path { n: 5 }.build().edge_count(), 4);
        assert_eq!(GraphSpec::Star { leaves: 3 }.build().node_count(), 4);
        assert_eq!(
            GraphSpec::Caterpillar { spine: 4, legs: 1 }
                .build()
                .node_count(),
            8
        );
    }

    #[test]
    fn guarded_flood_elects_the_max_id() {
        let g = gen::path(5);
        let input = lcl::uniform_input(&g);
        let ids = [3u64, 9, 1, 7, 5];
        let run = lcl_local::simulate_sync_with(
            &GuardedFlood { k: 4 },
            &g,
            &input,
            &ids,
            None,
            10,
            lcl_faults::RunOptions::new(),
        );
        assert!(run.outcome.faults.is_empty());
        // Only node 1 (id 9) labels itself the winner.
        let out = &run.outcome.outcome.output;
        let winners: Vec<u32> = (0..5u32)
            .map(|i| {
                g.half_edges_of(lcl_graph::NodeId(i))
                    .map(|h| out.get(h).0)
                    .max()
                    .unwrap()
            })
            .collect();
        assert_eq!(winners, vec![0, 1, 0, 0, 0]);
    }
}
