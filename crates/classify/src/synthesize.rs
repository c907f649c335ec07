//! From certificates to algorithms: the constructive content of the
//! decidability results on oriented cycles.
//!
//! The classifier's certificates are *executable*:
//!
//! * a **self-loop state** yields a 0-round constant tiling
//!   ([`ConstantCycle`]);
//! * a **flexible state** `s` (closed walks of every sufficiently large
//!   length) yields a `Θ(log* n)` algorithm ([`LogStarCycle`]): the
//!   anchor-and-fill core shared with the path synthesizer, on a window
//!   that either wraps around the whole cycle or is cut off by the radius
//!   on both sides.
//!
//! Port convention: as produced by [`lcl_graph::gen::cycle`] — port 0 is
//! the predecessor, port 1 the successor.

use lcl::{LclProblem, OutLabel};
use lcl_local::{LocalAlgorithm, View};
use lcl_obs::{Counter, RunReport, Span, Trace};

use crate::anchor::{witness_table, Place, Plan, WalkTable, Window};
use crate::automaton::Automaton;
use crate::classify::ClassifyError;

/// The synthesized algorithm for an oriented cycle.
#[derive(Clone, Debug)]
pub enum CycleAlgorithm {
    /// A constant tiling: 0 rounds.
    Constant(ConstantCycle),
    /// The anchor-and-fill algorithm: `Θ(log* n)` rounds.
    LogStar(LogStarCycle),
}

impl CycleAlgorithm {
    /// A short description of the synthesized strategy.
    pub fn describe(&self) -> String {
        match self {
            CycleAlgorithm::Constant(c) => {
                format!("constant tiling (x = out{}, y = out{})", c.x, c.y)
            }
            CycleAlgorithm::LogStar(l) => format!(
                "anchor-and-fill via flexible state out{} (K₀ = {}, {} sparsification level(s))",
                l.plan.s, l.plan.k0, l.plan.levels
            ),
        }
    }
}

impl LocalAlgorithm for CycleAlgorithm {
    fn radius(&self, n: usize) -> u32 {
        match self {
            CycleAlgorithm::Constant(c) => c.radius(n),
            CycleAlgorithm::LogStar(l) => l.radius(n),
        }
    }

    fn label(&self, view: &View<'_>) -> Vec<OutLabel> {
        match self {
            CycleAlgorithm::Constant(c) => c.label(view),
            CycleAlgorithm::LogStar(l) => l.label(view),
        }
    }

    fn name(&self) -> &str {
        match self {
            CycleAlgorithm::Constant(_) => "synthesized-constant",
            CycleAlgorithm::LogStar(_) => "synthesized-logstar",
        }
    }
}

/// The constant tiling from a self-loop: every node outputs `x` on its
/// predecessor port and `y` on its successor port.
#[derive(Clone, Copy, Debug)]
pub struct ConstantCycle {
    /// Label on the predecessor-side half-edge.
    pub x: u32,
    /// Label on the successor-side half-edge.
    pub y: u32,
}

impl LocalAlgorithm for ConstantCycle {
    fn radius(&self, _n: usize) -> u32 {
        0
    }

    fn label(&self, _view: &View<'_>) -> Vec<OutLabel> {
        // Port 0 = predecessor, port 1 = successor.
        vec![OutLabel(self.x), OutLabel(self.y)]
    }

    fn name(&self) -> &str {
        "synthesized-constant"
    }
}

/// The `Θ(log* n)` anchor-and-fill algorithm.
#[derive(Clone, Debug)]
pub struct LogStarCycle {
    plan: Plan,
}

/// Synthesizes an algorithm for an (input-independent) LCL on oriented
/// cycles, if its class admits one (`O(1)` or `Θ(log* n)`); the outcome
/// is `None` for global/finitely-solvable problems. The report carries
/// the synthesis trace: automaton states, sparsification levels of a
/// log* plan, and wall time.
///
/// # Errors
///
/// As [`classify_oriented_cycle`](crate::classify_oriented_cycle).
pub fn synthesize_cycle(
    p: &LclProblem,
) -> Result<RunReport<Option<CycleAlgorithm>>, ClassifyError> {
    use lcl::Problem as _;
    let mut span = Span::start(format!("classify/synthesize-cycle/{}", p.name()));
    let outcome = synthesize_cycle_impl(p, &mut span)?;
    if let Some(alg) = &outcome {
        let steps = match alg {
            CycleAlgorithm::Constant(_) => 0,
            CycleAlgorithm::LogStar(l) => u64::from(l.plan.levels),
        };
        span.set(Counter::Steps, steps);
    }
    Ok(RunReport::new(outcome, Trace::new(span.finish())))
}

fn synthesize_cycle_impl(
    p: &LclProblem,
    span: &mut Span,
) -> Result<Option<CycleAlgorithm>, ClassifyError> {
    let automaton = Automaton::from_problem(p).map_err(ClassifyError)?;
    let k = automaton.state_count();
    span.set(Counter::States, k as u64);

    // Self-loop ⇒ constant tiling.
    let witness = witness_table(p, &automaton);
    let constant = (0..k)
        .filter(|&s| automaton.has_self_loop(s))
        .find_map(|s| {
            Some(ConstantCycle {
                x: witness[s][s]?,
                y: s as u32,
            })
        });
    if let Some(c) = constant {
        return Ok(Some(CycleAlgorithm::Constant(c)));
    }

    // Flexible state ⇒ log* anchor-and-fill.
    let gcds = automaton.cycle_gcds();
    let Some(s) = (0..k).find(|&s| gcds[s] == 1) else {
        return Ok(None);
    };
    // A canonical penultimate state t* (an in-neighbor of s on a cycle
    // through s): all walks end t* → s, so anchors see a fixed incoming
    // transition.
    let Some(t_star) = (0..k).find(|&t| automaton.successors(t).contains(&s) && gcds[t] == 1)
    else {
        return Ok(None);
    };
    // Closed walks up to length 4k² + 64; the final anchor gaps must fit
    // below that.
    let from_s = WalkTable::new(&automaton, &[s], 4 * k * k + 64);
    let plan = Plan::new(&from_s, s, t_star, witness, 0, 0);
    Ok(plan.map(|plan| CycleAlgorithm::LogStar(LogStarCycle { plan })))
}

impl LocalAlgorithm for LogStarCycle {
    fn radius(&self, n: usize) -> u32 {
        self.plan.radius(n)
    }

    fn label(&self, view: &View<'_>) -> Vec<OutLabel> {
        let window = Window::of(view, self.plan.radius(view.n) as usize);
        // A cut-off window is wide enough for every sparsification level,
        // so its segments are at least K₀ long; a whole cycle falls back
        // to one segment itself when they are not.
        match self.plan.place(&window, view.n) {
            Place::Segment { len, off } => self.plan.fill(len, off, 2),
            _ => self.plan.fallback(2),
        }
    }

    fn name(&self) -> &str {
        "synthesized-logstar"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_faults::RunOptions;
    use lcl_graph::gen;
    use lcl_local::{simulate_with, IdAssignment};

    fn three_coloring() -> LclProblem {
        LclProblem::parse("max-degree: 2\nnodes:\nA*\nB*\nC*\nedges:\nA B\nA C\nB C\n").unwrap()
    }

    fn free() -> LclProblem {
        LclProblem::parse("max-degree: 2\nnodes:\nX* Y*\nedges:\nX X\nX Y\nY Y\n").unwrap()
    }

    /// "Distance-counter marking": a node's left/right half-edges carry
    /// phase labels `Ai`/`Bj` such that phases advance along the cycle
    /// and reset every 3 to 5 steps. The left-role (`A`) and right-role
    /// (`B`) alphabets are disjoint, making the automaton a genuinely
    /// directed chain: closed walks have lengths `{3,4,5}⁺` and `K₀ = 3`.
    fn spaced_marking() -> LclProblem {
        LclProblem::parse(
            "max-degree: 2\noutputs: A0 A1 A2 A3 A4 B0 B1 B2 B3 B4\n\
             nodes:\nA0 B1\nA1 B2\nA2 B3\nA2 B0\nA3 B4\nA3 B0\nA4 B0\n\
             edges:\nA0 B0\nA1 B1\nA2 B2\nA3 B3\nA4 B4\n",
        )
        .unwrap()
    }

    fn check_on_cycles(p: &LclProblem, alg: &CycleAlgorithm, sizes: &[usize]) {
        for &n in sizes {
            let g = gen::cycle(n);
            let input = lcl::uniform_input(&g);
            let ids = IdAssignment::random_polynomial(n, 3, n as u64 + 1);
            let run = simulate_with(alg, &g, &input, &ids, None, RunOptions::new())
                .outcome
                .outcome;
            let violations = lcl::verify(p, &g, &input, &run.output);
            assert!(violations.is_empty(), "n = {n}: {violations:?}");
        }
    }

    #[test]
    fn free_problem_synthesizes_constant() {
        let p = free();
        let alg = synthesize_cycle(&p)
            .unwrap()
            .outcome
            .expect("synthesizable");
        assert!(matches!(alg, CycleAlgorithm::Constant(_)));
        check_on_cycles(&p, &alg, &[3, 7, 64]);
    }

    #[test]
    fn three_coloring_synthesizes_logstar() {
        let p = three_coloring();
        let alg = synthesize_cycle(&p)
            .unwrap()
            .outcome
            .expect("synthesizable");
        assert!(matches!(alg, CycleAlgorithm::LogStar(_)));
        check_on_cycles(&p, &alg, &[16, 45, 99, 256]);
    }

    #[test]
    fn spaced_marking_synthesizes_with_sparsification() {
        let p = spaced_marking();
        let alg = synthesize_cycle(&p)
            .unwrap()
            .outcome
            .expect("synthesizable");
        let CycleAlgorithm::LogStar(ref l) = alg else {
            panic!("expected log*: {}", alg.describe());
        };
        assert!(l.plan.k0 >= 3, "K₀ = {}", l.plan.k0);
        assert!(l.plan.levels >= 1);
        check_on_cycles(&p, &alg, &[24, 50, 121]);
    }

    #[test]
    fn traced_synthesis_records_states_and_levels() {
        let p = three_coloring();
        let report = synthesize_cycle(&p).unwrap();
        assert!(report.outcome.is_some());
        assert_eq!(report.trace.total(Counter::States), 3);
        assert!(report
            .trace
            .root()
            .name()
            .starts_with("classify/synthesize-cycle/"));
    }

    #[test]
    fn global_problems_do_not_synthesize() {
        let two_col = LclProblem::parse("max-degree: 2\nnodes:\nA*\nB*\nedges:\nA B\n").unwrap();
        assert!(synthesize_cycle(&two_col).unwrap().outcome.is_none());
    }

    #[test]
    fn synthesized_radius_is_log_star_scale() {
        let p = three_coloring();
        let alg = synthesize_cycle(&p)
            .unwrap()
            .outcome
            .expect("synthesizable");
        let small = alg.radius(1 << 8);
        let large = alg.radius(1 << 60);
        assert!(large >= small);
        assert!(large <= 4 * small, "small={small} large={large}");
    }
}
