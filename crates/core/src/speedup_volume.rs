//! Theorems 2.11 and 4.1/4.3 for the VOLUME model, executable.
//!
//! The paper's pipeline: an `o(log* n)`-probe algorithm is (by the
//! Ramsey argument) order-invariant on a large identifier set; replacing
//! identifiers by their *ranks in the transcript* canonicalizes it
//! ([`Canonicalized`]); and an order-invariant algorithm can be "fooled"
//! with a fixed `n₀` (Theorem 2.11) to run in `O(1)` probes on graphs of
//! every size ([`fool`] / [`run_fooled_volume`]).
//!
//! To express canonicalization faithfully we also provide the paper's
//! *functional* form of a VOLUME algorithm (Definition 2.9): a family of
//! probe functions `f_{n,i}` from transcripts to decisions
//! ([`TranscriptAlgorithm`]), which adapts to the imperative
//! [`VolumeAlgorithm`] interface via [`TranscriptAsVolume`].

use lcl::{HalfEdgeLabeling, InLabel, OutLabel};
use lcl_faults::RunOptions;
use lcl_graph::Graph;
use lcl_local::IdAssignment;
use lcl_volume::{simulate_with, NodeInfo, ProbeError, ProbeSession, VolumeAlgorithm, VolumeRun};

/// One step of a transcript-functional VOLUME algorithm: either the next
/// adaptive probe `(j, port)` or the final answer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProbeDecision {
    /// Probe port `port` of the `j`-th discovered node.
    Probe {
        /// Index into the transcript (0 = queried node).
        j: usize,
        /// Port to probe.
        port: u8,
    },
    /// Output the labels for the queried node's half-edges.
    Output(Vec<OutLabel>),
}

/// A VOLUME algorithm in the paper's functional form (Definition 2.9):
/// `decide(n, t^{(i)})` plays the role of `f_{n,i+1}`.
pub trait TranscriptAlgorithm {
    /// The probe budget `T(n)`.
    fn probe_budget(&self, n: usize) -> usize;

    /// The next decision given the transcript so far.
    fn decide(&self, n: usize, transcript: &[NodeInfo]) -> ProbeDecision;

    /// A short name for diagnostics.
    fn name(&self) -> &str {
        "anonymous"
    }
}

/// Adapter: runs a [`TranscriptAlgorithm`] as an imperative
/// [`VolumeAlgorithm`].
#[derive(Clone, Debug)]
pub struct TranscriptAsVolume<A>(pub A);

impl<A: TranscriptAlgorithm> VolumeAlgorithm for TranscriptAsVolume<A> {
    fn probe_budget(&self, n: usize) -> usize {
        self.0.probe_budget(n)
    }

    fn answer(&self, session: &mut ProbeSession<'_>) -> Result<Vec<OutLabel>, ProbeError> {
        let mut transcript = vec![session.queried().clone()];
        loop {
            match self.0.decide(session.n(), &transcript) {
                ProbeDecision::Probe { j, port } => {
                    let info = session.probe(j, port)?;
                    transcript.push(info);
                }
                ProbeDecision::Output(labels) => return Ok(labels),
            }
        }
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// The canonicalization `A'` of the Theorem 4.1 proof: before every
/// decision, identifiers in the transcript are replaced by canonical
/// representatives preserving their relative order (dense ranks). If the
/// wrapped algorithm is order-invariant (Definition 2.10), `A'` computes
/// the same outputs; and `A'` is order-invariant *by construction*.
#[derive(Clone, Debug)]
pub struct Canonicalized<A>(pub A);

/// Dense order-preserving re-identification: equal ids stay equal, order
/// is preserved, values become `0..k`.
pub fn canonical_transcript(transcript: &[NodeInfo]) -> Vec<NodeInfo> {
    let mut ids: Vec<u64> = transcript.iter().map(|t| t.id).collect();
    ids.sort_unstable();
    ids.dedup();
    transcript
        .iter()
        .map(|t| NodeInfo {
            id: ids.binary_search(&t.id).expect("id present") as u64,
            degree: t.degree,
            inputs: t.inputs.clone(),
        })
        .collect()
}

impl<A: TranscriptAlgorithm> TranscriptAlgorithm for Canonicalized<A> {
    fn probe_budget(&self, n: usize) -> usize {
        self.0.probe_budget(n)
    }

    fn decide(&self, n: usize, transcript: &[NodeInfo]) -> ProbeDecision {
        self.0.decide(n, &canonical_transcript(transcript))
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// The Theorem 2.11 construction: the fooled algorithm
/// `f^{A'}_{n,i} := f^{A}_{min(n,n₀),i}` — every query behaves as if the
/// graph had `min(n, n₀)` nodes, so the probe complexity is the constant
/// `T(n₀)` for all `n ≥ n₀`.
#[derive(Clone, Debug)]
pub struct Fooled<A> {
    inner: A,
    n0: usize,
}

/// Wraps an algorithm with the Theorem 2.11 fooling at `n₀`.
pub fn fool<A>(inner: A, n0: usize) -> Fooled<A> {
    Fooled { inner, n0 }
}

impl<A: TranscriptAlgorithm> TranscriptAlgorithm for Fooled<A> {
    fn probe_budget(&self, n: usize) -> usize {
        self.inner.probe_budget(n.min(self.n0))
    }

    fn decide(&self, n: usize, transcript: &[NodeInfo]) -> ProbeDecision {
        self.inner.decide(n.min(self.n0), transcript)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Runs the full Theorem 4.1 pipeline object
/// `fool(Canonicalized(A), n₀)` over a graph.
///
/// # Errors
///
/// Propagates the first [`ProbeError`] of any query — a fooled algorithm
/// that probes past its capped budget surfaces here instead of panicking.
pub fn run_fooled_volume<A>(
    alg: &A,
    n0: usize,
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &IdAssignment,
) -> Result<VolumeRun, ProbeError>
where
    A: TranscriptAlgorithm + Clone,
{
    let pipeline = TranscriptAsVolume(fool(Canonicalized(alg.clone()), n0));
    simulate_with(&pipeline, graph, input, ids, None, RunOptions::new()).map(|r| r.outcome.outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_graph::gen;

    /// Probe both cycle neighbors; output 1 iff the queried node's id is a
    /// local minimum. Order-invariant and 2 probes.
    #[derive(Clone)]
    struct LocalMin;

    impl TranscriptAlgorithm for LocalMin {
        fn probe_budget(&self, _n: usize) -> usize {
            2
        }

        fn decide(&self, _n: usize, t: &[NodeInfo]) -> ProbeDecision {
            match t.len() {
                1 => ProbeDecision::Probe { j: 0, port: 0 },
                2 => ProbeDecision::Probe { j: 0, port: 1 },
                _ => {
                    let me = t[0].id;
                    let is_min = me < t[1].id && me < t[2].id;
                    ProbeDecision::Output(vec![OutLabel(u32::from(is_min)); t[0].degree as usize])
                }
            }
        }
    }

    #[test]
    fn transcript_adapter_matches_semantics() {
        let g = gen::cycle(8);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::from_vec(vec![5, 3, 9, 1, 7, 2, 8, 6]);
        let run = simulate_with(
            &TranscriptAsVolume(LocalMin),
            &g,
            &input,
            &ids,
            None,
            RunOptions::new(),
        )
        .expect("in budget")
        .outcome
        .outcome;
        assert_eq!(run.max_probes, 2);
        // Node 3 (id 1) is a local min; node 0 (id 5) is not.
        let h = g.half_edge(lcl_graph::NodeId(3), 0);
        assert_eq!(run.output.get(h), OutLabel(1));
        let h = g.half_edge(lcl_graph::NodeId(0), 0);
        assert_eq!(run.output.get(h), OutLabel(0));
    }

    #[test]
    fn canonicalization_preserves_order_invariant_outputs() {
        let g = gen::cycle(8);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::random_polynomial(8, 3, 4);
        let raw = simulate_with(
            &TranscriptAsVolume(LocalMin),
            &g,
            &input,
            &ids,
            None,
            RunOptions::new(),
        )
        .expect("in budget")
        .outcome
        .outcome;
        let canon = simulate_with(
            &TranscriptAsVolume(Canonicalized(LocalMin)),
            &g,
            &input,
            &ids,
            None,
            RunOptions::new(),
        )
        .expect("in budget")
        .outcome
        .outcome;
        assert_eq!(raw.output, canon.output);
    }

    #[test]
    fn canonical_transcript_is_dense_and_order_preserving() {
        let t = vec![
            NodeInfo {
                id: 50,
                degree: 2,
                inputs: vec![],
            },
            NodeInfo {
                id: 10,
                degree: 2,
                inputs: vec![],
            },
            NodeInfo {
                id: 50,
                degree: 2,
                inputs: vec![],
            },
        ];
        let c = canonical_transcript(&t);
        assert_eq!(c[0].id, 1);
        assert_eq!(c[1].id, 0);
        assert_eq!(c[2].id, 1);
    }

    #[test]
    fn fooled_algorithm_has_constant_probes() {
        // A budget that grows with n...
        #[derive(Clone)]
        struct Growing;
        impl TranscriptAlgorithm for Growing {
            fn probe_budget(&self, n: usize) -> usize {
                n / 2
            }
            fn decide(&self, n: usize, t: &[NodeInfo]) -> ProbeDecision {
                // Walk along port 0 for budget steps.
                if t.len() <= self.probe_budget(n) {
                    ProbeDecision::Probe {
                        j: t.len() - 1,
                        port: 0,
                    }
                } else {
                    ProbeDecision::Output(vec![OutLabel(0); t[0].degree as usize])
                }
            }
        }
        let g = gen::cycle(64);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::sequential(64);
        // ...is capped at T(n₀) by fooling.
        let run = run_fooled_volume(&Growing, 8, &g, &input, &ids).expect("in budget");
        assert_eq!(run.max_probes, 4);
        let raw = simulate_with(
            &TranscriptAsVolume(Growing),
            &g,
            &input,
            &ids,
            None,
            RunOptions::new(),
        )
        .expect("in budget")
        .outcome
        .outcome;
        assert_eq!(raw.max_probes, 32);
    }

    #[test]
    fn fooled_local_min_is_still_correct() {
        // LocalMin's semantics do not depend on n, so fooling preserves
        // outputs exactly — the situation of Theorem 2.11's conclusion.
        let g = gen::cycle(16);
        let input = lcl::uniform_input(&g);
        let ids = IdAssignment::random_polynomial(16, 3, 9);
        let plain = simulate_with(
            &TranscriptAsVolume(LocalMin),
            &g,
            &input,
            &ids,
            None,
            RunOptions::new(),
        )
        .expect("in budget")
        .outcome
        .outcome;
        let fooled = run_fooled_volume(&LocalMin, 4, &g, &input, &ids).expect("in budget");
        assert_eq!(plain.output, fooled.output);
        assert_eq!(fooled.max_probes, 2);
    }
}
