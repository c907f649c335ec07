//! The Theorem 3.10/3.11 pipeline: any LCL with complexity `o(log* n)` on
//! trees/forests can be solved in `O(1)` rounds — and here the constant
//! round algorithm is *synthesized*.
//!
//! The executable pipeline mirrors the proof:
//!
//! 1. iterate `f = R̄ ∘ R` ([`ReTower`]) starting from `Π`,
//! 2. after each step, decide deterministic 0-round solvability of
//!    `f^k(Π)` and extract `A_det` ([`decide_zero_round`]),
//! 3. lift `A_det` back through the sequence with Lemma 3.9
//!    ([`LiftedAlgorithm`]), obtaining a `k`-round algorithm for `Π`.
//!
//! The proof guarantees success for some `k = T(n₀) = O(1)` whenever `Π`
//! has complexity `o(log* n)`; the synthesizer tries `k = 0, 1, ...` up to
//! a budget. Problems of complexity `Θ(log* n)` or higher (3-coloring,
//! sinkless orientation) never reach a 0-round-solvable level — their
//! label universes are reported instead.
//!
//! This module also contains the Lemma 3.3 transfer: an algorithm that
//! works on trees, run component-wise on forests.

use std::sync::Arc;

use lcl::{LclProblem, Problem};
use lcl_obs::{Counter, EventLog, RunReport, Span, Trace};

use crate::lift::LiftedAlgorithm;
use crate::tower::{ReError, ReOptions, ReTower};
use crate::zero_round::{decide_zero_round, ZeroRoundAlgorithm, ZeroRoundOptions, ZeroRoundResult};

/// Budgets for [`tree_speedup`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpeedupOptions {
    /// Maximum number of `f`-steps to try.
    pub max_steps: usize,
    /// Caps for each round-elimination step.
    pub re: ReOptions,
    /// Caps for each 0-round decision.
    pub zero_round: ZeroRoundOptions,
}

impl Default for SpeedupOptions {
    fn default() -> Self {
        Self {
            max_steps: 2,
            re: ReOptions::default(),
            zero_round: ZeroRoundOptions::default(),
        }
    }
}

/// The outcome of the pipeline.
#[derive(Debug)]
pub enum SpeedupOutcome {
    /// A constant-round algorithm was synthesized: `f^steps(Π)` is 0-round
    /// solvable, so `Π` is solvable in `steps` rounds.
    ConstantRound {
        /// The tower holding the problem sequence (the lifted algorithm
        /// borrows from it).
        tower: Box<ReTower>,
        /// Number of `f`-steps (= rounds of the synthesized algorithm).
        steps: usize,
        /// The extracted 0-round table for `f^steps(Π)`.
        adet: ZeroRoundAlgorithm,
    },
    /// No level within the budget was 0-round solvable.
    Exhausted {
        /// Steps fully explored (0-round decision ran at each).
        steps_tried: usize,
        /// Alphabet sizes per tower level, for diagnostics.
        alphabet_sizes: Vec<usize>,
        /// Whether the exploration stopped early due to a cap.
        capped: Option<ReError>,
        /// When the tower detected a cycle — level `2·steps` extensionally
        /// equal to this earlier level of the same parity — the sequence
        /// can never become 0-round solvable and the search stopped early
        /// (the fixpoint certificate of e.g. sinkless orientation).
        fixpoint: Option<usize>,
    },
}

impl SpeedupOutcome {
    /// Whether a constant-round algorithm was found.
    pub fn is_constant(&self) -> bool {
        matches!(self, SpeedupOutcome::ConstantRound { .. })
    }

    /// Builds the synthesized algorithm (borrows the tower), or `None`
    /// if the pipeline exhausted its budget without synthesizing one.
    pub fn try_algorithm(&self) -> Option<LiftedAlgorithm<'_>> {
        match self {
            SpeedupOutcome::ConstantRound { tower, steps, adet } => {
                Some(LiftedAlgorithm::new(tower, adet.clone(), *steps))
            }
            SpeedupOutcome::Exhausted { .. } => None,
        }
    }

    /// Builds the synthesized algorithm (borrows the tower).
    ///
    /// # Panics
    ///
    /// Panics if the outcome is not [`SpeedupOutcome::ConstantRound`];
    /// callers that have not already checked [`is_constant`](Self::is_constant)
    /// should prefer [`try_algorithm`](Self::try_algorithm).
    pub fn algorithm(&self) -> LiftedAlgorithm<'_> {
        self.try_algorithm()
            .expect("why: caller checked is_constant(), so the outcome holds a synthesized table")
    }
}

/// Runs the Theorem 3.10/3.11 synthesis pipeline on `problem` and
/// reports the execution trace: one child span per round-elimination
/// level (labels interned/alive, configurations, memo traffic, fixpoint
/// certificates — the tower's own spans), under a root recording the
/// `f`-steps explored and, on success, the synthesized round count.
///
/// With a `log`, the tower's event stream — memo lookups, level
/// completions ([`lcl_obs::Event`]) — is recorded into it and carried on
/// the returned report ([`RunReport::events`]).
pub fn tree_speedup_logged(
    problem: &LclProblem,
    opts: SpeedupOptions,
    log: Option<Arc<EventLog>>,
) -> RunReport<SpeedupOutcome> {
    let mut span = Span::start(format!("tree-speedup/{}", problem.name()));
    let mut tower = ReTower::new(problem.clone());
    if let Some(log) = &log {
        tower.set_event_log(Arc::clone(log));
    }
    let mut capped = None;
    let mut steps_tried = 0;
    let mut fixpoint = None;
    let mut solved = None;
    for step in 0..=opts.max_steps {
        if step > 0 {
            match tower.push_f(opts.re) {
                Ok(()) => {}
                Err(e) => {
                    capped = Some(e);
                    break;
                }
            }
        }
        let level = tower.level(2 * step);
        match decide_zero_round(&level, opts.zero_round) {
            ZeroRoundResult::Solvable(adet) => {
                solved = Some((step, adet));
                break;
            }
            ZeroRoundResult::Unsolvable => {
                steps_tried = step + 1;
            }
            ZeroRoundResult::Unknown => {
                steps_tried = step + 1;
                // Caps prevented a definite answer; keep going — deeper
                // levels sometimes restrict to smaller universes.
            }
        }
        // Cycle detection: if f^step(Π) is extensionally equal to an
        // earlier level of the same parity, every future level repeats an
        // already-rejected one — stop instead of burning the budget.
        if step > 0 {
            if let Some(earlier) = tower.fixpoint_of(2 * step) {
                if (2 * step - earlier) % 2 == 0 {
                    fixpoint = Some(earlier);
                    break;
                }
            }
        }
    }
    for level_span in tower.spans() {
        span.record(level_span.clone());
    }
    let outcome = if let Some((steps, adet)) = solved {
        span.set(Counter::Steps, steps as u64);
        span.set(Counter::Rounds, steps as u64);
        SpeedupOutcome::ConstantRound {
            tower: Box::new(tower),
            steps,
            adet,
        }
    } else {
        span.set(Counter::Steps, steps_tried as u64);
        if let Some(earlier) = fixpoint {
            span.set(Counter::FixpointOf, earlier as u64);
        }
        let alphabet_sizes = (0..tower.level_count())
            .map(|l| tower.alphabet_size(l))
            .collect();
        SpeedupOutcome::Exhausted {
            steps_tried,
            alphabet_sizes,
            capped,
            fixpoint,
        }
    };
    let trace = Trace::new(span.finish());
    match log {
        Some(log) => RunReport::with_events(outcome, trace, log),
        None => RunReport::new(outcome, trace),
    }
}

/// Runs the Theorem 3.10/3.11 synthesis pipeline on `problem`: the
/// outcome of [`tree_speedup_logged`] without a log, its trace dropped.
/// It stays because the end-to-end benchmark in `perfbench/` links it.
pub fn tree_speedup(problem: &LclProblem, opts: SpeedupOptions) -> SpeedupOutcome {
    tree_speedup_logged(problem, opts, None).outcome
}

/// The Lemma 3.3 transfer, executable: runs a tree algorithm on a forest
/// by handling each component with the paper's two cases (small components
/// are solved by full collection; large components run the tree algorithm
/// with the announced node count `n²`).
///
/// This demonstrates the *construction*; the synthesized
/// [`LiftedAlgorithm`] does not need it (it is correct on forests
/// directly), so the function takes any [`lcl_local::SyncAlgorithm`]-style
/// runner via a closure that solves one component.
pub fn solve_forest_componentwise<F>(
    graph: &lcl_graph::Graph,
    mut solve_component: F,
) -> Vec<Vec<lcl_graph::NodeId>>
where
    F: FnMut(&[lcl_graph::NodeId]),
{
    let (comp, count) = graph.components();
    let mut groups: Vec<Vec<lcl_graph::NodeId>> = vec![Vec::new(); count];
    for v in graph.nodes() {
        groups[comp[v.index()] as usize].push(v);
    }
    for group in &groups {
        solve_component(group);
    }
    groups
}

/// Convenience: does the problem admit *some* correct solution at all on
/// the given graph (brute force over labelings)? Exponential; test-sized
/// graphs only. Used to distinguish "pipeline exhausted" from "problem
/// unsolvable".
pub fn brute_force_solvable(
    problem: &(impl Problem + ?Sized),
    graph: &lcl_graph::Graph,
    input: &lcl::HalfEdgeLabeling<lcl::InLabel>,
) -> bool {
    let universe = problem.output_count().expect("finite universe");
    let half_edges = graph.half_edge_count();
    assert!(
        (universe as f64).powi(half_edges as i32) <= 1e9,
        "brute force only for tiny instances"
    );
    let mut assignment = vec![0u32; half_edges];
    loop {
        let labeling: lcl::HalfEdgeLabeling<lcl::OutLabel> =
            assignment.iter().map(|&l| lcl::OutLabel(l)).collect();
        if lcl::verify(problem, graph, input, &labeling).is_empty() {
            return true;
        }
        // Increment the mixed-radix counter.
        let mut pos = 0;
        loop {
            if pos == half_edges {
                return false;
            }
            assignment[pos] += 1;
            if (assignment[pos] as usize) < universe {
                break;
            }
            assignment[pos] = 0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_faults::RunOptions;
    use lcl_graph::gen;
    use lcl_local::simulate_sync_with;

    #[test]
    fn trivial_problem_synthesizes_at_zero_steps() {
        let p = LclProblem::parse("max-degree: 3\nnodes:\nX*\nedges:\nX X\n").unwrap();
        let outcome = tree_speedup(&p, SpeedupOptions::default());
        match &outcome {
            SpeedupOutcome::ConstantRound { steps, .. } => assert_eq!(*steps, 0),
            other => panic!("expected constant round, got {other:?}"),
        }
    }

    #[test]
    fn anti_matching_synthesizes_at_one_step() {
        let p = LclProblem::parse("max-degree: 3\nnodes:\nX* Y*\nedges:\nX Y\n").unwrap();
        let outcome = tree_speedup(&p, SpeedupOptions::default());
        match &outcome {
            SpeedupOutcome::ConstantRound { steps, .. } => assert_eq!(*steps, 1),
            other => panic!("expected constant round, got {other:?}"),
        }
        // The synthesized algorithm solves the problem on forests.
        let alg = outcome.algorithm();
        let g = gen::random_forest(30, 3, 3, 11);
        let input = lcl::uniform_input(&g);
        let ids: Vec<u64> = (0..30u64).map(|i| 997 - i * 13).collect();
        let run = simulate_sync_with(&alg, &g, &input, &ids, None, 5, RunOptions::new()).outcome;
        assert!(run.faults.is_empty(), "synthesized algorithms halt");
        let run = run.outcome;
        assert_eq!(run.rounds, 1);
        assert!(lcl::verify(&p, &g, &input, &run.output).is_empty());
    }

    #[test]
    fn traced_pipeline_records_level_spans() {
        let p = LclProblem::parse("max-degree: 3\nnodes:\nX* Y*\nedges:\nX Y\n").unwrap();
        let report = tree_speedup_logged(&p, SpeedupOptions::default(), None);
        assert!(report.outcome.is_constant());
        let trace = &report.trace;
        assert_eq!(trace.total(Counter::Rounds), 1);
        // One f-step = two derived levels, each with its own span.
        let r = trace.find("level-1/r").expect("R level span");
        assert!(r.get(Counter::LabelsInterned).unwrap_or(0) > 0);
        assert!(trace.find("level-2/rbar").is_some());
        assert!(!trace.is_empty());
    }

    #[test]
    fn three_coloring_exhausts_the_budget() {
        // 3-coloring has complexity Θ(log* n): no f^k(Π) is 0-round
        // solvable; the pipeline must report exhaustion, never a
        // constant-round algorithm.
        let p = LclProblem::parse("max-degree: 3\nnodes:\nA*\nB*\nC*\nedges:\nA B\nA C\nB C\n")
            .unwrap();
        let outcome = tree_speedup(
            &p,
            SpeedupOptions {
                max_steps: 1,
                ..SpeedupOptions::default()
            },
        );
        match outcome {
            SpeedupOutcome::Exhausted { steps_tried, .. } => {
                assert!(steps_tried >= 1)
            }
            SpeedupOutcome::ConstantRound { steps, .. } => {
                panic!("3-coloring cannot be solved in {steps} rounds")
            }
        }
    }

    #[test]
    fn componentwise_grouping_partitions_nodes() {
        let g = gen::random_forest(20, 4, 3, 2);
        let mut seen = 0;
        let groups = solve_forest_componentwise(&g, |group| {
            seen += group.len();
        });
        assert_eq!(seen, 20);
        assert_eq!(groups.len(), 4);
    }

    #[test]
    fn brute_force_agrees_on_toy_cases() {
        let two_col = LclProblem::parse("max-degree: 2\nnodes:\nA*\nB*\nedges:\nA B\n").unwrap();
        let path = gen::path(3);
        let input = lcl::uniform_input(&path);
        assert!(brute_force_solvable(&two_col, &path, &input));
        let triangle = {
            let mut b = lcl_graph::GraphBuilder::new(3);
            b.add_edge(0, 1).unwrap();
            b.add_edge(1, 2).unwrap();
            b.add_edge(2, 0).unwrap();
            b.build().unwrap()
        };
        let input = lcl::uniform_input(&triangle);
        assert!(!brute_force_solvable(&two_col, &triangle, &input));
    }
}
