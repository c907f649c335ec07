//! Algorithm synthesis on oriented **paths**: the anchor-and-fill core
//! that also serves cycles ([`synthesize`](crate::synthesize)), with
//! endpoint handling on top.
//!
//! Near the two path endpoints the anchor-and-fill strategy switches to
//! precomputed *prefix* walks (a start state to the flexible state `s`)
//! and *suffix* walks (`s` to an accepting state); the interior is filled
//! with closed walks exactly as on cycles. Anchors are suppressed within a
//! fixed margin `B` of the endpoints so the boundary segments are always
//! long enough for the prefix/suffix tables.
//!
//! Port convention: as produced by [`lcl_graph::gen::path`] — interior
//! nodes have port 0 toward the predecessor and port 1 toward the
//! successor; endpoints have their single port 0.

use lcl::{LclProblem, OutLabel};
use lcl_local::{LocalAlgorithm, View};
use lcl_obs::{Counter, RunReport, Span, Trace};

use crate::anchor::{threshold, witness_table, Place, Plan, Side, WalkTable, Walks, Window};
use crate::automaton::Automaton;
use crate::classify::ClassifyError;

/// The synthesized path algorithm (always the anchor-and-fill shape; for
/// `O(1)`-class problems it is correct but not radius-optimal — the
/// classifier reports the class separately).
#[derive(Clone, Debug)]
pub struct PathAlgorithm {
    plan: Plan,
    /// Prefix walks: a start state to `s` (ending `t* → s`), by length.
    prefix: Walks,
    /// Suffix walks: `s` to an accepting state, by length.
    suffix: Walks,
    /// Exact walks start → accept by length, for whole-path fills.
    exact: Walks,
    /// Final output of the last node: `accept_witness[y]` = the label on
    /// the path's last half-edge after state `y`.
    accept_witness: Vec<Option<u32>>,
}

impl PathAlgorithm {
    /// A short description of the synthesized strategy.
    pub fn describe(&self) -> String {
        format!(
            "path anchor-and-fill via state out{} (K₀ = {}, boundary margin {})",
            self.plan.s, self.plan.k0, self.plan.boundary
        )
    }
}

/// Synthesizes an algorithm for an (input-independent) LCL on oriented
/// paths; the outcome is `None` when the class does not admit one. The
/// report carries the synthesis trace: automaton states, sparsification
/// levels of the plan, and wall time.
///
/// # Errors
///
/// As [`classify_oriented_path`](crate::classify_oriented_path).
pub fn synthesize_path(p: &LclProblem) -> Result<RunReport<Option<PathAlgorithm>>, ClassifyError> {
    use lcl::Problem as _;
    let mut span = Span::start(format!("classify/synthesize-path/{}", p.name()));
    let outcome = synthesize_path_impl(p, &mut span)?;
    if let Some(alg) = &outcome {
        span.set(Counter::Steps, u64::from(alg.plan.levels));
    }
    Ok(RunReport::new(outcome, Trace::new(span.finish())))
}

fn synthesize_path_impl(
    p: &LclProblem,
    span: &mut Span,
) -> Result<Option<PathAlgorithm>, ClassifyError> {
    let automaton = Automaton::from_problem(p).map_err(ClassifyError)?;
    let k = automaton.state_count();
    span.set(Counter::States, k as u64);
    let reach = automaton.reachable_from(|s| automaton.is_start(s));
    let co = automaton.co_reachable_to(|s| automaton.is_accept(s));
    let gcds = automaton.cycle_gcds();
    let Some(s) = (0..k).find(|&t| reach[t] && co[t] && gcds[t] == 1) else {
        return Ok(None);
    };
    let Some(t_star) =
        (0..k).find(|&t| automaton.successors(t).contains(&s) && gcds[t] == 1 && reach[t] && co[t])
    else {
        return Ok(None);
    };

    // Walks up to length 4k² + 96; the boundary segments plus the final
    // anchor gaps, with 8 to spare, must fit below that.
    let limit = 4 * k * k + 96;
    let from_s = WalkTable::new(&automaton, &[s], limit);
    let starts: Vec<usize> = (0..k).filter(|&t| automaton.is_start(t)).collect();
    let from_starts = WalkTable::new(&automaton, &starts, limit);
    let accept = |t: usize| automaton.is_accept(t);
    let prefix = from_starts.walks_via(t_star, s);
    let suffix = from_s.walks_to(accept);
    let exact = from_starts.walks_to(accept);
    let (Some(k1), Some(k2)) = (threshold(&prefix), threshold(&suffix)) else {
        return Ok(None);
    };
    let boundary = k1.max(k2) + 2;
    let Some(plan) = Plan::new(
        &from_s,
        s,
        t_star,
        witness_table(p, &automaton),
        boundary,
        8,
    ) else {
        return Ok(None);
    };
    Ok(Some(PathAlgorithm {
        plan,
        prefix,
        suffix,
        exact,
        accept_witness: accept_witness_table(p, &automaton),
    }))
}

fn accept_witness_table(p: &LclProblem, automaton: &Automaton) -> Vec<Option<u32>> {
    use lcl::Problem as _;
    let k = automaton.state_count();
    (0..k)
        .map(|y| {
            (0..k as u32).find(|&x| {
                automaton.is_output_allowed(x as usize)
                    && p.edge_allows(OutLabel(y as u32), OutLabel(x))
                    && p.node_allows(&[OutLabel(x)])
            })
        })
        .collect()
}

impl LocalAlgorithm for PathAlgorithm {
    fn radius(&self, n: usize) -> u32 {
        self.plan.radius(n)
    }

    fn label(&self, view: &View<'_>) -> Vec<OutLabel> {
        let degree = view.ball.center().ports.len();
        if degree == 0 {
            return Vec::new();
        }
        let w = Window::of(view, self.plan.radius(view.n) as usize);
        let n = w.ids.len();
        let (left_end, right_end) = (w.left == Side::End, w.right == Side::End);
        match self.plan.place(&w, view.n) {
            Place::Segment { len, off } => self.plan.fill(len, off, degree),
            // Prefix segment [0, b].
            Place::Head(b) if left_end => self.prefix_emit(b, w.me, degree),
            // Suffix segment [a, n-1].
            Place::Tail(a) if right_end => {
                self.suffix_emit(n - 1 - a, w.me - a, w.me == n - 1, degree)
            }
            // Whole path, no anchors: the exact start-to-accept walk.
            Place::Bare if left_end && right_end => self.exact_fill(n, w.me, degree),
            _ => self.plan.fallback(degree),
        }
    }

    fn name(&self) -> &str {
        "synthesized-path"
    }
}

impl PathAlgorithm {
    /// Whole path of `n` nodes, no anchors: emit from the exact
    /// start-to-accept walk of length `n - 2` (a canonical, shared choice).
    fn exact_fill(&self, n: usize, me: usize, degree: usize) -> Vec<OutLabel> {
        if n == 1 {
            return Vec::new();
        }
        let Some(Some(states)) = self.exact.get(n - 2) else {
            // No solution exists for this n (or it exceeds the table).
            return self.plan.fallback(degree);
        };
        if me == 0 {
            return vec![OutLabel(states[0])];
        }
        if me == n - 1 {
            return self.accept_emit(states[n - 2]);
        }
        self.plan.emit(states, me)
    }

    fn prefix_emit(&self, first_anchor: usize, me: usize, degree: usize) -> Vec<OutLabel> {
        let Some(Some(pre)) = self.prefix.get(first_anchor) else {
            return self.plan.fallback(degree);
        };
        if me == 0 {
            // The path's first node has only its successor half-edge.
            return vec![OutLabel(pre[0])];
        }
        self.plan.emit(pre, me)
    }

    fn suffix_emit(&self, seg: usize, off: usize, is_last: bool, degree: usize) -> Vec<OutLabel> {
        let Some(Some(suf)) = self.suffix.get(seg.saturating_sub(1)) else {
            return self.plan.fallback(degree);
        };
        // Segment [a, n-1]: states y_a .. y_{n-2} = suf[0..=seg-1]; node n-1
        // outputs only the accept witness.
        if is_last {
            return self.accept_emit(suf[seg - 1]);
        }
        self.plan.emit(suf, off)
    }

    /// The last node's single label after state `y_prev`.
    fn accept_emit(&self, y_prev: u32) -> Vec<OutLabel> {
        let x = self.accept_witness[y_prev as usize].expect("accept witness");
        vec![OutLabel(x)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_faults::RunOptions;
    use lcl_graph::gen;
    use lcl_local::{simulate_with, IdAssignment};

    fn check_on_paths(p: &LclProblem, alg: &PathAlgorithm, sizes: &[usize]) {
        for &n in sizes {
            let g = gen::path(n);
            let input = lcl::uniform_input(&g);
            let ids = IdAssignment::random_polynomial(n, 3, n as u64 + 3);
            let run = simulate_with(alg, &g, &input, &ids, None, RunOptions::new())
                .outcome
                .outcome;
            let violations = lcl::verify(p, &g, &input, &run.output);
            assert!(violations.is_empty(), "n = {n}: {violations:?}");
        }
    }

    #[test]
    fn three_coloring_synthesizes_on_paths() {
        let p = lcl_problems::k_coloring(3, 2);
        let alg = synthesize_path(&p).unwrap().outcome.expect("synthesizable");
        check_on_paths(&p, &alg, &[2, 3, 5, 9, 40, 200]);
    }

    #[test]
    fn mis_synthesizes_on_paths() {
        let p = lcl_problems::mis_problem(2);
        let alg = synthesize_path(&p).unwrap().outcome.expect("synthesizable");
        check_on_paths(&p, &alg, &[2, 3, 7, 31, 120]);
    }

    #[test]
    fn matching_synthesizes_on_paths() {
        let p = lcl_problems::maximal_matching_problem(2);
        let alg = synthesize_path(&p).unwrap().outcome.expect("synthesizable");
        check_on_paths(&p, &alg, &[2, 3, 8, 45, 150]);
    }

    #[test]
    fn strict_sinkless_does_not_synthesize_on_paths() {
        // Unsolvable on paths of ≥ 2 nodes: no flexible start/accept
        // structure survives.
        let p = lcl_problems::sinkless_orientation(2);
        assert!(synthesize_path(&p).unwrap().outcome.is_none());
    }

    #[test]
    fn two_coloring_does_not_synthesize() {
        let p = lcl_problems::two_coloring(2);
        assert!(synthesize_path(&p).unwrap().outcome.is_none());
    }

    #[test]
    fn radius_is_log_star_scale() {
        let p = lcl_problems::k_coloring(3, 2);
        let alg = synthesize_path(&p).unwrap().outcome.expect("synthesizable");
        assert!(alg.radius(1 << 60) <= 4 * alg.radius(1 << 8));
    }
}
