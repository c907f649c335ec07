//! The LCA (local computation algorithms) model.
//!
//! An LCA differs from a VOLUME algorithm in two ways (Section 2.2 of the
//! paper): identifiers are exactly `{1, ..., n}`, and *far probes* —
//! looking up an arbitrary identifier — are allowed. Theorem 2.12 (Göös,
//! Hirvonen, Levi, Medina, Suomela) shows far probes do not help below
//! `o(√log n)` probes, which is why the paper's VOLUME gap transfers to
//! LCAs; [`simulate_lca_with`] makes the model concrete so the suite can demonstrate
//! the transfer.

use lcl::{HalfEdgeLabeling, InLabel, OutLabel};
use lcl_faults::{Degraded, RunOptions};
use lcl_graph::{Graph, NodeId};
use lcl_obs::{Counter, RunReport, Trace};

use lcl_local::IdAssignment;

use crate::algorithm::{NodeInfo, ProbeError, ProbeSession, VolumeAlgorithm};
use crate::run::{answer_queries, VolumeRun};

/// A probe session extended with far probes (identifier lookup).
#[derive(Debug)]
pub struct LcaSession<'a, 'b> {
    inner: &'b mut ProbeSession<'a>,
    graph: &'a Graph,
    input: &'a HalfEdgeLabeling<InLabel>,
    /// The node holding each identifier, at slot `id - 1`.
    by_id: &'a [NodeId],
    /// Far probes performed (counted separately, per Theorem 2.12's
    /// distinction).
    far_probes: usize,
}

impl<'a, 'b> LcaSession<'a, 'b> {
    pub(crate) fn new(
        inner: &'b mut ProbeSession<'a>,
        graph: &'a Graph,
        input: &'a HalfEdgeLabeling<InLabel>,
        by_id: &'a [NodeId],
    ) -> Self {
        Self {
            inner,
            graph,
            input,
            by_id,
            far_probes: 0,
        }
    }

    /// The underlying near-probe session.
    pub fn near(&mut self) -> &mut ProbeSession<'a> {
        self.inner
    }

    /// Number of far probes performed.
    pub fn far_probes_used(&self) -> usize {
        self.far_probes
    }

    /// A far probe: looks up the node with identifier `id` (LCA ids are
    /// `1..=n`), returning its local information, or `None` if no node has
    /// that identifier.
    pub fn far_probe(&mut self, id: u64) -> Option<NodeInfo> {
        self.far_probes += 1;
        let slot = usize::try_from(id.checked_sub(1)?).ok()?;
        let v = *self.by_id.get(slot)?;
        Some(NodeInfo {
            id,
            degree: self.graph.degree(v),
            inputs: self
                .graph
                .half_edges_of(v)
                .map(|h| self.input.get(h))
                .collect(),
        })
    }
}

/// An LCA: like a VOLUME algorithm, with far probes available.
pub trait LcaAlgorithm {
    /// The probe budget `T(n)` (near probes).
    fn probe_budget(&self, n: usize) -> usize;

    /// Answers the query for the queried node's half-edges.
    ///
    /// # Errors
    ///
    /// Propagates any [`ProbeError`] from the near-probe session.
    fn answer(&self, session: &mut LcaSession<'_, '_>) -> Result<Vec<OutLabel>, ProbeError>;

    /// A short name for diagnostics.
    fn name(&self) -> &str {
        "anonymous"
    }
}

/// Runs an LCA under [`RunOptions`]: optional event capture, optional
/// fault plan. It shares the VOLUME query loop of [`crate::run`]: a fault
/// plan may permute `ids` (keeping them `1..=n`) and degrades per query,
/// the `Err` leg never taken; without one a [`ProbeError`] surfaces typed and a clean
/// run returns [`Degraded::clean`]. The announced node count is fixed
/// by the LCA promise; a `RunOptions` budget has no probe dimension and
/// is ignored here.
///
/// # Errors
///
/// Without a fault plan only: the first [`ProbeError`] any query runs
/// into.
///
/// # Panics
///
/// Panics unless `ids` is a permutation of `0..n` shifted by one
/// (`1..=n`), which is the LCA model's identifier promise; on isolated
/// nodes; and without a fault plan if the algorithm panics or
/// mislabels the queried node's arity.
pub fn simulate_lca_with(
    alg: &(impl LcaAlgorithm + ?Sized),
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &IdAssignment,
    opts: RunOptions<'_>,
) -> Result<RunReport<Degraded<VolumeRun>>, ProbeError> {
    let n = graph.node_count();
    let ids = ids.under(opts.fault_plan());
    // The far-probe index: the node holding each identifier, at slot
    // `id - 1`.
    let mut by_id: Vec<Option<NodeId>> = vec![None; n];
    let exact = ids.len() == n
        && graph.nodes().all(|v| {
            let slot = ids
                .id(v)
                .checked_sub(1)
                .and_then(|s| usize::try_from(s).ok());
            let cell = slot.and_then(|s| by_id.get_mut(s));
            cell.is_some_and(|cell| cell.replace(v).is_none())
        });
    assert!(exact, "LCA identifiers must be exactly 1..=n");
    let by_id: Vec<NodeId> = by_id.into_iter().flatten().collect();
    let (run, mut span, far_probes) = answer_queries(
        "lca",
        alg.name(),
        graph,
        input,
        &ids,
        alg.probe_budget(n),
        n,
        opts,
        |session| {
            let mut lca = LcaSession::new(session, graph, input, &by_id);
            let answer = alg.answer(&mut lca);
            (answer, lca.far_probes_used())
        },
    )?;
    span.set(Counter::FarProbes, far_probes as u64);
    Ok(RunReport::new(run, Trace::new(span.finish())))
}

/// Adapts a VOLUME algorithm into an LCA that never uses far probes — the
/// direction of Theorem 2.12 that is immediate.
#[derive(Debug)]
pub struct VolumeAsLca<A>(pub A);

impl<A: VolumeAlgorithm> LcaAlgorithm for VolumeAsLca<A> {
    fn probe_budget(&self, n: usize) -> usize {
        self.0.probe_budget(n)
    }

    fn answer(&self, session: &mut LcaSession<'_, '_>) -> Result<Vec<OutLabel>, ProbeError> {
        self.0.answer(session.near())
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::FnVolumeAlgorithm;
    use lcl_graph::gen;

    /// A plan seed whose permutation deals id 1 to an inner node of a
    /// 5-node path.
    const PERMUTE_SEED: u64 = 2;

    fn lca_ids(n: usize) -> IdAssignment {
        IdAssignment::from_vec((1..=n as u64).collect())
    }

    #[test]
    fn far_probe_finds_nodes_by_id() {
        let g = gen::path(5);
        let input = lcl::uniform_input(&g);
        let ids = lca_ids(5);
        struct FarDegree;
        impl LcaAlgorithm for FarDegree {
            fn probe_budget(&self, _n: usize) -> usize {
                0
            }
            fn answer(&self, s: &mut LcaSession<'_, '_>) -> Result<Vec<OutLabel>, ProbeError> {
                // Ids 0 and n + 1 are held by no node.
                assert!(s.far_probe(0).is_none());
                assert!(s.far_probe(6).is_none());
                // Look up node with id 1 and output its degree.
                let info = s.far_probe(1).expect("id 1 exists");
                let d = s.near().queried().degree as usize;
                Ok(vec![OutLabel(u32::from(info.degree)); d])
            }
        }
        let run = simulate_lca_with(&FarDegree, &g, &input, &ids, RunOptions::new())
            .expect("far probes only")
            .outcome
            .outcome;
        // Node with id 1 is node 0, an endpoint of degree 1.
        assert!(run.output.as_slice().iter().all(|&l| l == OutLabel(1)));
        assert_eq!(run.max_probes, 3); // every far probe is counted

        // Under a permuting plan, id 1 moves to an inner node of degree 2.
        let plan = lcl_faults::FaultPlan::new(PERMUTE_SEED).with_permuted_ids();
        let moved = ids.under(Some(&plan));
        let holder = g.nodes().find(|&v| moved.id(v) == 1).expect("id 1 exists");
        assert_eq!(g.degree(holder), 2);
        let report = simulate_lca_with(
            &FarDegree,
            &g,
            &input,
            &ids,
            RunOptions::new().faults(&plan),
        )
        .expect("far probes only");
        let run = &report.outcome.outcome;
        assert!(run.output.as_slice().iter().all(|&l| l == OutLabel(2)));
        assert_eq!(report.trace.total(Counter::FarProbes), 15);
    }

    #[test]
    fn missing_id_returns_none() {
        let g = gen::path(3);
        let input = lcl::uniform_input(&g);
        let ids = lca_ids(3);
        struct Missing;
        impl LcaAlgorithm for Missing {
            fn probe_budget(&self, _n: usize) -> usize {
                0
            }
            fn answer(&self, s: &mut LcaSession<'_, '_>) -> Result<Vec<OutLabel>, ProbeError> {
                let d = s.near().queried().degree as usize;
                Ok(vec![OutLabel(u32::from(s.far_probe(99).is_none())); d])
            }
        }
        let run = simulate_lca_with(&Missing, &g, &input, &ids, RunOptions::new())
            .expect("far probes only")
            .outcome
            .outcome;
        assert!(run.output.as_slice().iter().all(|&l| l == OutLabel(1)));
    }

    #[test]
    fn simulate_lca_counts_far_probes_separately() {
        let g = gen::path(5);
        let input = lcl::uniform_input(&g);
        let ids = lca_ids(5);
        struct FarDegree;
        impl LcaAlgorithm for FarDegree {
            fn probe_budget(&self, _n: usize) -> usize {
                0
            }
            fn answer(&self, s: &mut LcaSession<'_, '_>) -> Result<Vec<OutLabel>, ProbeError> {
                let info = s.far_probe(1).expect("id 1 exists");
                let d = s.near().queried().degree as usize;
                Ok(vec![OutLabel(u32::from(info.degree)); d])
            }
        }
        let report = simulate_lca_with(&FarDegree, &g, &input, &ids, RunOptions::new())
            .expect("far probes only");
        assert_eq!(report.trace.total(Counter::FarProbes), 5);
        assert_eq!(report.trace.total(Counter::Probes), 5);
        assert_eq!(report.trace.total(Counter::MaxProbes), 1);
    }

    #[test]
    fn cost_model_counts_near_probes() {
        use lcl_obs::{CostKind, EventLog};
        let g = gen::path(4);
        let input = lcl::uniform_input(&g);
        let ids = lca_ids(4);
        // One near probe per query, via the VOLUME embedding.
        let alg = VolumeAsLca(FnVolumeAlgorithm::new(
            "one-probe",
            |_| 1,
            |s| {
                let _ = s.probe(0, 0)?;
                Ok(vec![OutLabel(0); s.queried().degree as usize])
            },
        ));
        let log = EventLog::new(0);
        let report = simulate_lca_with(&alg, &g, &input, &ids, RunOptions::new().events(&log))
            .expect("in budget");
        let cost = log.cost_model();
        assert_eq!(
            cost.get(CostKind::Probe),
            report.trace.total(Counter::Probes)
        );
        assert_eq!(cost.get(CostKind::Probe), 4);
        assert_eq!(cost.node_averaged(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "1..=n")]
    fn non_lca_ids_are_rejected() {
        let g = gen::path(3);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::from_vec(vec![0, 5, 9]);
        let alg = VolumeAsLca(FnVolumeAlgorithm::new(
            "const",
            |_| 0,
            |s| Ok(vec![OutLabel(0); s.queried().degree as usize]),
        ));
        let _ = simulate_lca_with(&alg, &g, &input, &ids, RunOptions::new());
    }

    #[test]
    fn probe_errors_surface_through_lca_runs() {
        let g = gen::path(3);
        let input = lcl::uniform_input(&g);
        let ids = lca_ids(3);
        let alg = VolumeAsLca(FnVolumeAlgorithm::new(
            "undiscovered",
            |_| 4,
            |s| {
                let _ = s.probe(7, 0)?;
                Ok(vec![OutLabel(0); s.queried().degree as usize])
            },
        ));
        assert_eq!(
            simulate_lca_with(&alg, &g, &input, &ids, RunOptions::new()).err(),
            Some(ProbeError::TargetNotDiscovered {
                j: 7,
                discovered: 1
            })
        );
    }

    #[test]
    fn volume_as_lca_matches_volume_run() {
        let g = gen::cycle(6);
        let input = lcl::uniform_input(&g);
        let ids = lca_ids(6);
        let alg = FnVolumeAlgorithm::new(
            "first-neighbor",
            |_| 1,
            |s| {
                let d = s.queried().degree as usize;
                let n0 = s.probe(0, 0)?;
                Ok(vec![OutLabel((n0.id % 2) as u32); d])
            },
        );
        let volume_run = crate::run::simulate_with(&alg, &g, &input, &ids, None, RunOptions::new())
            .expect("in budget")
            .outcome
            .outcome;
        let lca_run = simulate_lca_with(&VolumeAsLca(alg), &g, &input, &ids, RunOptions::new())
            .expect("in budget")
            .outcome
            .outcome;
        assert_eq!(volume_run.output, lca_run.output);
        assert_eq!(volume_run.max_probes, lca_run.max_probes);
    }
}
