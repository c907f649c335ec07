//! Algorithm synthesis on oriented **paths**: like
//! [`synthesize`](crate::synthesize) for cycles, plus endpoint handling.
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
use lcl_graph::PortView;
use lcl_local::{LocalAlgorithm, View};
use lcl_obs::{Counter, RunReport, Span, Trace};

use crate::automaton::Automaton;
use crate::classify::ClassifyError;
use crate::synthesize::{cv_iterations, cv_step};

/// The synthesized path algorithm (always the anchor-and-fill shape; for
/// `O(1)`-class problems it is correct but not radius-optimal — the
/// classifier reports the class separately).
#[derive(Clone, Debug)]
pub struct PathAlgorithm {
    plan: PathPlan,
}

#[derive(Clone, Debug)]
struct PathPlan {
    s: usize,
    t_star: usize,
    /// Closed walks `s → … → t* → s` by length.
    walks: Vec<Option<Vec<u32>>>,
    /// Prefix walks: a start state to `s` (ending `t* → s`), by length.
    prefix: Vec<Option<Vec<u32>>>,
    /// Suffix walks: `s` to an accepting state, by length.
    suffix: Vec<Option<Vec<u32>>>,
    /// Exact walks start → accept by length, for whole-path fills.
    exact: Vec<Option<Vec<u32>>>,
    /// All lengths `≥ k0` have closed walks (prefix/suffix thresholds are
    /// folded into `boundary`).
    k0: usize,
    /// Anchor suppression margin near endpoints.
    boundary: usize,
    levels: u32,
    gap_bound: usize,
    witness: Vec<Vec<Option<u32>>>,
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

    fn window_need(&self, n: usize) -> usize {
        let id_bits = 3 * (usize::BITS - n.leading_zeros()).max(1);
        let k_iters = cv_iterations(id_bits) as usize;
        let g = self.plan.gap_bound + self.plan.boundary;
        (k_iters + 8) + (self.plan.levels as usize + 1) * (k_iters + 8) * (g + 4) + 2 * g
    }
}

/// Synthesizes an algorithm for an (input-independent) LCL on oriented
/// paths, or `Ok(None)` when the class does not admit one.
///
/// # Errors
///
/// As [`classify_oriented_path`](crate::classify_oriented_path).
pub fn synthesize_path(p: &LclProblem) -> Result<Option<PathAlgorithm>, ClassifyError> {
    synthesize_path_traced(p).map(|report| report.outcome)
}

/// Like [`synthesize_path`], additionally reporting the synthesis trace:
/// automaton states, sparsification levels of the plan, and wall time.
///
/// # Errors
///
/// As [`synthesize_path`].
pub fn synthesize_path_traced(
    p: &LclProblem,
) -> Result<RunReport<Option<PathAlgorithm>>, ClassifyError> {
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

    let limit = 4 * k * k + 96;
    let from_s = forward_table(&automaton, &[s], limit);
    let from_starts = forward_table(
        &automaton,
        &(0..k)
            .filter(|&t| automaton.is_start(t))
            .collect::<Vec<_>>(),
        limit,
    );

    // Closed walks (end t* → s).
    let walks: Vec<Option<Vec<u32>>> = (0..=limit)
        .map(|l| extract_walk(&from_s, l, t_star, s))
        .collect();
    // Prefix walks (start → ... → t* → s).
    let prefix: Vec<Option<Vec<u32>>> = (0..=limit)
        .map(|l| extract_walk(&from_starts, l, t_star, s))
        .collect();
    // Suffix walks (s → accept); the final state is the canonical
    // accepting state reachable at each length.
    let suffix: Vec<Option<Vec<u32>>> = (0..=limit)
        .map(|l| {
            let target = (0..k).find(|&t| automaton.is_accept(t) && from_s[l][t] != usize::MAX)?;
            backtrack(&from_s, l, target)
        })
        .collect();
    // Exact walks start → accept, for whole-path (small n) fills.
    let exact: Vec<Option<Vec<u32>>> = (0..=limit)
        .map(|l| {
            let target =
                (0..k).find(|&t| automaton.is_accept(t) && from_starts[l][t] != usize::MAX)?;
            backtrack(&from_starts, l, target)
        })
        .collect();

    let (Some(k0), Some(k1), Some(k2)) = (
        threshold(&walks, limit),
        threshold(&prefix, limit),
        threshold(&suffix, limit),
    ) else {
        return Ok(None);
    };
    let boundary = k1.max(k2) + 2;

    let mut levels = 0u32;
    while (2usize << levels) < k0 {
        levels += 1;
    }
    let gap_bound = 4 * 4usize.pow(levels);
    if boundary + gap_bound + 8 >= limit {
        return Ok(None);
    }

    let witness = super::synthesize::witness_table(p, &automaton);
    if witness[t_star][s].is_none() {
        return Ok(None);
    }
    let accept_witness = accept_witness_table(p, &automaton);

    Ok(Some(PathAlgorithm {
        plan: PathPlan {
            s,
            t_star,
            walks,
            prefix,
            suffix,
            exact,
            k0,
            boundary,
            levels,
            gap_bound,
            witness,
            accept_witness,
        },
    }))
}

/// Smallest `t` with all lengths `t..=limit` present, requiring some
/// slack below the limit; `None` if the tail is not all-present.
fn threshold(table: &[Option<Vec<u32>>], limit: usize) -> Option<usize> {
    let mut t = None;
    for l in (2..limit).rev() {
        if table[l].is_none() {
            t = Some(l + 1);
            break;
        }
    }
    let t = t.unwrap_or(2);
    (t + 16 < limit).then_some(t)
}

/// `table[l][t]` = canonical predecessor of `t` on a length-`l` walk from
/// the given sources, or `usize::MAX`.
fn forward_table(automaton: &Automaton, sources: &[usize], limit: usize) -> Vec<Vec<usize>> {
    let k = automaton.state_count();
    let mut table = vec![vec![usize::MAX; k]; limit + 1];
    for &src in sources {
        table[0][src] = src;
    }
    for l in 0..limit {
        for t in 0..k {
            if table[l][t] == usize::MAX {
                continue;
            }
            for &u in automaton.successors(t) {
                if table[l + 1][u] == usize::MAX {
                    table[l + 1][u] = t;
                }
            }
        }
    }
    table
}

/// Extracts the canonical length-`l` walk ending `t* → s`.
fn extract_walk(table: &[Vec<usize>], l: usize, t_star: usize, s: usize) -> Option<Vec<u32>> {
    if l < 2 || table[l - 1][t_star] == usize::MAX {
        return None;
    }
    let mut states = backtrack(table, l - 1, t_star)?;
    states.push(s as u32);
    Some(states)
}

/// Backtracks the canonical walk of length `l` ending at `target`.
fn backtrack(table: &[Vec<usize>], l: usize, target: usize) -> Option<Vec<u32>> {
    if table[l][target] == usize::MAX {
        return None;
    }
    let mut states = vec![0u32; l + 1];
    let mut current = target;
    for back in (0..=l).rev() {
        states[back] = current as u32;
        if back > 0 {
            current = table[back][current];
        }
    }
    Some(states)
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

/// The reconstructed window around a node.
struct Window {
    /// Identifiers left-to-right.
    ids: Vec<u64>,
    /// My index in `ids`.
    me: usize,
    /// Whether `ids[0]` is the path's first node.
    left_end: bool,
    /// Whether the last entry is the path's last node.
    right_end: bool,
}

fn reconstruct(view: &View<'_>, r: usize) -> Window {
    // Identify my predecessor/successor ports: interior nodes have
    // (pred, succ) = (0, 1); the left endpoint has only port 0 = succ,
    // the right endpoint only port 0 = pred. Walk with arrival tracking.
    let my_degree = view.ball.center().ports.len();
    let mut ids = vec![view.ids[0]];
    let mut me = 0usize;
    let mut left_end = my_degree <= 1 && is_left_endpoint(view);
    let mut right_end = my_degree <= 1 && !is_left_endpoint(view) && my_degree == 1;
    if my_degree == 0 {
        return Window {
            ids,
            me,
            left_end: true,
            right_end: true,
        };
    }

    // Walk in each available direction.
    for (port, forward) in walk_ports(view) {
        let mut current = 0usize;
        let mut via = port;
        let mut collected: Vec<u64> = Vec::new();
        let mut hit_end = false;
        for _ in 0..r {
            let node = &view.ball.nodes[current];
            let Some(PortView::Inside {
                node: next,
                rev_port,
            }) = node.ports.get(via as usize).copied()
            else {
                break;
            };
            let next = next as usize;
            collected.push(view.ids[next]);
            let next_degree = view.ball.nodes[next].ports.len();
            if next_degree == 1 {
                hit_end = true;
                break;
            }
            // Continue straight: leave through the other port.
            via = 1 - rev_port;
            current = next;
        }
        if forward {
            ids.extend(collected);
            right_end = hit_end;
        } else {
            for id in collected {
                ids.insert(0, id);
                me += 1;
            }
            left_end = hit_end;
        }
    }
    Window {
        ids,
        me,
        left_end,
        right_end,
    }
}

/// The ports to walk from the center: `(port, is_forward)`.
fn walk_ports(view: &View<'_>) -> Vec<(u8, bool)> {
    let degree = view.ball.center().ports.len();
    if degree >= 2 {
        vec![(1, true), (0, false)]
    } else if degree == 1 {
        if is_left_endpoint(view) {
            vec![(0, true)]
        } else {
            vec![(0, false)]
        }
    } else {
        Vec::new()
    }
}

/// A degree-1 node is the left endpoint iff its single edge arrives at
/// the neighbor's port 0 (the neighbor's predecessor side). On a 2-node
/// path both endpoints look structurally identical, so the smaller
/// identifier breaks the tie.
fn is_left_endpoint(view: &View<'_>) -> bool {
    match view.ball.center().ports.first() {
        Some(PortView::Inside { node, rev_port }) => {
            let neighbor = &view.ball.nodes[*node as usize];
            if neighbor.ports.len() == 1 {
                view.ids[0] < view.ids[*node as usize]
            } else {
                *rev_port == 0
            }
        }
        _ => true,
    }
}

impl LocalAlgorithm for PathAlgorithm {
    fn radius(&self, n: usize) -> u32 {
        self.window_need(n) as u32
    }

    fn label(&self, view: &View<'_>) -> Vec<OutLabel> {
        let plan = &self.plan;
        let degree = view.ball.center().ports.len();
        if degree == 0 {
            return Vec::new();
        }
        let r = self.window_need(view.n);
        let w = reconstruct(view, r);
        let n = w.ids.len();
        let id_bits = 3 * (usize::BITS - view.n.leading_zeros()).max(1);
        let k_iters = cv_iterations(id_bits) as usize;

        // Colors: linear CV; the right endpoint (if visible) is the root.
        let mut colors = w.ids.clone();
        for _ in 0..k_iters {
            let mut next = colors.clone();
            for v in 0..n {
                let parent = if v + 1 < n {
                    colors[v + 1]
                } else if w.right_end {
                    colors[v] ^ 1
                } else {
                    continue;
                };
                next[v] = cv_step(colors[v], parent);
            }
            colors = next;
        }
        for target in [5u64, 4, 3] {
            let mut next = colors.clone();
            for v in 0..n {
                if colors[v] != target {
                    continue;
                }
                let mut used = Vec::new();
                if v > 0 {
                    used.push(colors[v - 1]);
                }
                if v + 1 < n {
                    used.push(colors[v + 1]);
                }
                if let Some(c) = (0..3).find(|c| !used.contains(c)) {
                    next[v] = c;
                }
            }
            colors = next;
        }

        // Trusted color margin on sides not anchored by a real endpoint.
        let margin0 = k_iters + 4;
        let lo = if w.left_end { 1 } else { margin0 };
        let hi = if w.right_end {
            n.saturating_sub(1)
        } else {
            n.saturating_sub(margin0)
        };

        // Anchors: strict color minima, suppressed within `boundary` of a
        // visible endpoint.
        let mut anchors: Vec<usize> = (lo.max(1)..hi.min(n.saturating_sub(1)))
            .filter(|&v| {
                colors[v] < colors[v - 1]
                    && colors[v] < colors[v + 1]
                    && (!w.left_end || v >= plan.boundary)
                    && (!w.right_end || v + plan.boundary < n)
            })
            .collect();
        for _ in 0..plan.levels {
            if anchors.len() < 4 {
                break;
            }
            anchors = sparsify(&anchors, &w.ids, w.left_end, w.right_end);
        }

        // Whole-path case with no anchors: exact fill via prefix table of
        // exact length.
        if w.left_end && w.right_end && anchors.is_empty() {
            return exact_fill(plan, n, w.me, degree);
        }

        let a_before = anchors.iter().rposition(|&a| a <= w.me).map(|i| anchors[i]);
        let a_after = anchors.iter().find(|&&a| a > w.me).copied();

        match (a_before, a_after) {
            (Some(a), Some(b)) => segment_emit(plan, b - a, w.me - a, degree),
            (None, Some(b)) if w.left_end => {
                // Prefix segment [0, b].
                prefix_emit(plan, b, w.me, degree)
            }
            (Some(a), None) if w.right_end => {
                // Suffix segment [a, n-1].
                suffix_emit(plan, n - 1 - a, w.me - a, w.me == n - 1, degree)
            }
            _ => fallback(plan, degree),
        }
    }

    fn name(&self) -> &str {
        "synthesized-path"
    }
}

fn sparsify(anchors: &[usize], ids: &[u64], left_end: bool, right_end: bool) -> Vec<usize> {
    let m = anchors.len();
    let mut colors: Vec<u64> = anchors.iter().map(|&a| ids[a]).collect();
    let iters = cv_iterations(64) as usize;
    for _ in 0..iters {
        let mut next = colors.clone();
        for i in 0..m {
            let parent = if i + 1 < m {
                colors[i + 1]
            } else {
                colors[i] ^ 1 // rightmost visible anchor acts as root
            };
            next[i] = cv_step(colors[i], parent);
        }
        colors = next;
    }
    for target in [5u64, 4, 3] {
        let mut next = colors.clone();
        for i in 0..m {
            if colors[i] != target {
                continue;
            }
            let mut used = Vec::new();
            if i > 0 {
                used.push(colors[i - 1]);
            }
            if i + 1 < m {
                used.push(colors[i + 1]);
            }
            if let Some(c) = (0..3).find(|c| !used.contains(c)) {
                next[i] = c;
            }
        }
        colors = next;
    }
    let margin = iters + 4;
    let lo = if left_end { 1 } else { margin };
    let hi = if right_end {
        m.saturating_sub(1)
    } else {
        m.saturating_sub(margin)
    };
    let kept: Vec<usize> = (lo.max(1)..hi)
        .filter(|&i| colors[i] < colors[i - 1] && colors[i] < colors[i + 1])
        .map(|i| anchors[i])
        .collect();
    if kept.len() >= 2 {
        kept
    } else {
        anchors.to_vec()
    }
}

/// Whole path of `n` nodes, no anchors: emit from the exact
/// start-to-accept walk of length `n - 2` (a canonical, shared choice).
fn exact_fill(plan: &PathPlan, n: usize, me: usize, degree: usize) -> Vec<OutLabel> {
    if n == 1 {
        return Vec::new();
    }
    let Some(Some(states)) = plan.exact.get(n - 2) else {
        // No solution exists for this n (or it exceeds the table).
        return fallback(plan, degree);
    };
    let y_at = |i: usize| -> u32 { states[i] };
    emit_position(plan, n, me, degree, &y_at)
}

fn segment_emit(plan: &PathPlan, seg: usize, off: usize, degree: usize) -> Vec<OutLabel> {
    let Some(Some(walk)) = plan.walks.get(seg) else {
        return fallback(plan, degree);
    };
    let y = walk[off];
    let y_prev = if off == 0 {
        plan.t_star as u32
    } else {
        walk[off - 1]
    };
    let x = plan.witness[y_prev as usize][y as usize].expect("walk witness");
    vec![OutLabel(x), OutLabel(y)]
}

fn prefix_emit(plan: &PathPlan, first_anchor: usize, me: usize, degree: usize) -> Vec<OutLabel> {
    let Some(Some(pre)) = plan.prefix.get(first_anchor) else {
        return fallback(plan, degree);
    };
    let y = pre[me];
    if me == 0 {
        // The path's first node has only its successor half-edge.
        return vec![OutLabel(y)];
    }
    let x = plan.witness[pre[me - 1] as usize][y as usize].expect("prefix witness");
    vec![OutLabel(x), OutLabel(y)]
}

fn suffix_emit(
    plan: &PathPlan,
    seg: usize,
    off: usize,
    is_last: bool,
    degree: usize,
) -> Vec<OutLabel> {
    let Some(Some(suf)) = plan.suffix.get(seg.saturating_sub(1)) else {
        return fallback(plan, degree);
    };
    // Segment [a, n-1]: states y_a .. y_{n-2} = suf[0..=seg-1]; node n-1
    // outputs only the accept witness.
    if is_last {
        let y_prev = suf[seg - 1];
        let x = plan.accept_witness[y_prev as usize].expect("accept witness");
        return vec![OutLabel(x)];
    }
    let y = suf[off];
    let y_prev = if off == 0 {
        plan.t_star as u32
    } else {
        suf[off - 1]
    };
    let x = plan.witness[y_prev as usize][y as usize].expect("suffix witness");
    vec![OutLabel(x), OutLabel(y)]
}

fn emit_position(
    plan: &PathPlan,
    n: usize,
    me: usize,
    degree: usize,
    y_at: &dyn Fn(usize) -> u32,
) -> Vec<OutLabel> {
    if me == 0 {
        return vec![OutLabel(y_at(0))];
    }
    if me == n - 1 {
        let x = plan.accept_witness[y_at(n - 2) as usize].expect("accept witness");
        return vec![OutLabel(x)];
    }
    let y = y_at(me);
    let x = plan.witness[y_at(me - 1) as usize][y as usize].expect("witness");
    let _ = degree;
    vec![OutLabel(x), OutLabel(y)]
}

fn fallback(plan: &PathPlan, degree: usize) -> Vec<OutLabel> {
    let s = plan.s as u32;
    let x = plan.witness[plan.t_star][plan.s].unwrap_or(s);
    if degree == 1 {
        vec![OutLabel(s)]
    } else {
        vec![OutLabel(x), OutLabel(s)]
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
        let alg = synthesize_path(&p).unwrap().expect("synthesizable");
        check_on_paths(&p, &alg, &[2, 3, 5, 9, 40, 200]);
    }

    #[test]
    fn mis_synthesizes_on_paths() {
        let p = lcl_problems::mis_problem(2);
        let alg = synthesize_path(&p).unwrap().expect("synthesizable");
        check_on_paths(&p, &alg, &[2, 3, 7, 31, 120]);
    }

    #[test]
    fn matching_synthesizes_on_paths() {
        let p = lcl_problems::maximal_matching_problem(2);
        let alg = synthesize_path(&p).unwrap().expect("synthesizable");
        check_on_paths(&p, &alg, &[2, 3, 8, 45, 150]);
    }

    #[test]
    fn strict_sinkless_does_not_synthesize_on_paths() {
        // Unsolvable on paths of ≥ 2 nodes: no flexible start/accept
        // structure survives.
        let p = lcl_problems::sinkless_orientation(2);
        assert!(synthesize_path(&p).unwrap().is_none());
    }

    #[test]
    fn two_coloring_does_not_synthesize() {
        let p = lcl_problems::two_coloring(2);
        assert!(synthesize_path(&p).unwrap().is_none());
    }

    #[test]
    fn radius_is_log_star_scale() {
        let p = lcl_problems::k_coloring(3, 2);
        let alg = synthesize_path(&p).unwrap().expect("synthesizable");
        assert!(alg.radius(1 << 60) <= 4 * alg.radius(1 << 8));
    }
}
