//! Order invariance in the VOLUME model (Definition 2.10).
//!
//! Two probe transcripts are *almost identical* when they agree on
//! everything except identifier values, with the same relative order. An
//! order-invariant VOLUME algorithm answers identically on almost-identical
//! transcripts. The Theorem 4.1 pipeline (in `lcl-core`) canonicalizes a
//! suspected-order-invariant algorithm through [`RankedSession`], which
//! replaces raw identifiers by their ranks among the ids discovered so far.

use lcl::{HalfEdgeLabeling, InLabel};
use lcl_faults::RunOptions;
use lcl_graph::Graph;

use lcl_local::IdAssignment;

use crate::algorithm::{NodeInfo, ProbeError, ProbeSession, VolumeAlgorithm};
use crate::run::simulate_with;

/// A [`NodeInfo`] with the identifier replaced by its *rank* among the ids
/// discovered so far in the session.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RankedInfo {
    /// Rank of this node's id among all currently discovered ids
    /// (0 = smallest). Ranks of earlier nodes can shift as probes reveal
    /// new ids; use [`RankedSession::ranks`] for the current picture.
    pub rank: u32,
    /// The node's degree.
    pub degree: u8,
    /// Input labels in port order.
    pub inputs: Vec<InLabel>,
}

/// A probe session that only exposes identifier *order*, for implementing
/// order-invariant VOLUME algorithms (Definition 2.10).
#[derive(Debug)]
pub struct RankedSession<'a, 'b> {
    inner: &'b mut ProbeSession<'a>,
}

impl<'a, 'b> RankedSession<'a, 'b> {
    /// Wraps a raw session.
    pub fn new(inner: &'b mut ProbeSession<'a>) -> Self {
        Self { inner }
    }

    /// The announced number of nodes.
    pub fn n(&self) -> usize {
        self.inner.n()
    }

    /// Remaining probe budget.
    pub fn probes_left(&self) -> usize {
        self.inner.probes_left()
    }

    /// Number of discovered nodes.
    pub fn discovered_count(&self) -> usize {
        self.inner.discovered_count()
    }

    fn rank_of(&self, j: usize) -> u32 {
        let my_id = self.inner.info(j).id;
        (0..self.inner.discovered_count())
            .filter(|&k| self.inner.info(k).id < my_id)
            .count() as u32
    }

    /// The queried node's ranked information.
    pub fn queried(&self) -> RankedInfo {
        self.ranked(0)
    }

    /// Ranked information of the `j`-th discovered node.
    pub fn ranked(&self, j: usize) -> RankedInfo {
        let info = self.inner.info(j);
        RankedInfo {
            rank: self.rank_of(j),
            degree: info.degree,
            inputs: info.inputs.clone(),
        }
    }

    /// Current ranks of all discovered nodes, in discovery order.
    pub fn ranks(&self) -> Vec<u32> {
        (0..self.inner.discovered_count())
            .map(|j| self.rank_of(j))
            .collect()
    }

    /// Performs a probe and returns the new node's ranked information.
    ///
    /// # Errors
    ///
    /// Propagates the [`ProbeError`]s of [`ProbeSession::probe`].
    pub fn probe(&mut self, j: usize, port: u8) -> Result<RankedInfo, ProbeError> {
        let _ = self.inner.probe(j, port)?;
        Ok(self.ranked(self.inner.discovered_count() - 1))
    }
}

/// Empirically checks Definition 2.10: reruns the algorithm under
/// `samples` order-preserving resamplings of the identifiers and compares
/// outputs. `false` is a definite counterexample; `true` is evidence.
///
/// # Errors
///
/// Propagates the first [`ProbeError`] of any run.
pub fn is_empirically_order_invariant_volume(
    alg: &(impl VolumeAlgorithm + ?Sized),
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    base_ids: &IdAssignment,
    samples: usize,
    seed: u64,
) -> Result<bool, ProbeError> {
    let baseline = simulate_with(alg, graph, input, base_ids, None, RunOptions::new())?
        .outcome
        .outcome;
    for s in 0..samples {
        let fresh = base_ids.resample_order_preserving(3, seed.wrapping_add(s as u64));
        let run = simulate_with(alg, graph, input, &fresh, None, RunOptions::new())?
            .outcome
            .outcome;
        if run.output != baseline.output {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Exposes the raw info of a node (used by adapters that mix ranked and
/// raw access for testing).
pub fn raw_info(session: &ProbeSession<'_>, j: usize) -> NodeInfo {
    session.info(j).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::FnVolumeAlgorithm;
    use lcl::OutLabel;
    use lcl_graph::{gen, NodeId};

    #[test]
    fn ranked_session_tracks_order() {
        let g = gen::path(4);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::from_vec(vec![40, 10, 30, 20]);
        let mut raw = ProbeSession::new(&g, &input, &ids, NodeId(1), 3, 4, None);
        let mut s = RankedSession::new(&mut raw);
        // Only the queried node (id 10) discovered: rank 0.
        assert_eq!(s.queried().rank, 0);
        // Discover node 0 (id 40): it ranks above.
        let left = s.probe(0, 0).expect("in budget");
        assert_eq!(left.rank, 1);
        // Discover node 2 (id 30): ranks shift.
        let right = s.probe(0, 1).expect("in budget");
        assert_eq!(right.rank, 1);
        assert_eq!(s.ranks(), vec![0, 2, 1]);
    }

    #[test]
    fn rank_based_algorithm_passes_the_checker() {
        let g = gen::cycle(7);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::random_polynomial(7, 3, 1);
        let alg = FnVolumeAlgorithm::new(
            "rank",
            |_| 1,
            |raw| {
                let d = raw.queried().degree as usize;
                let mut s = RankedSession::new(raw);
                let neighbor = s.probe(0, 0)?;
                Ok(vec![OutLabel(u32::from(neighbor.rank == 0)); d])
            },
        );
        assert!(
            is_empirically_order_invariant_volume(&alg, &g, &input, &ids, 8, 3).expect("in budget")
        );
    }

    #[test]
    fn value_based_algorithm_fails_the_checker() {
        let g = gen::cycle(7);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::random_polynomial(7, 3, 1);
        let alg = FnVolumeAlgorithm::new(
            "parity",
            |_| 0,
            |s| {
                Ok(vec![
                    OutLabel((s.queried().id % 2) as u32);
                    s.queried().degree as usize
                ])
            },
        );
        assert!(
            !is_empirically_order_invariant_volume(&alg, &g, &input, &ids, 16, 3)
                .expect("zero probes")
        );
    }
}
