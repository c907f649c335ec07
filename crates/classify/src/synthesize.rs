//! From certificates to algorithms: the constructive content of the
//! decidability results on oriented cycles.
//!
//! The classifier's certificates are *executable*:
//!
//! * a **self-loop state** yields a 0-round constant tiling
//!   ([`ConstantCycle`]);
//! * a **flexible state** `s` (closed walks of every sufficiently large
//!   length) yields a `Θ(log* n)` algorithm ([`LogStarCycle`]): compute a
//!   Cole–Vishkin 3-coloring offline from a gathered window, take the
//!   color minima as anchors, sparsify them (Cole–Vishkin again on the
//!   anchor "virtual cycle") until consecutive anchors are at least `K₀`
//!   apart, and fill each inter-anchor segment with a precomputed closed
//!   walk `s → s` of exactly the segment's length.
//!
//! Everything is a deterministic function of a bounded window of
//! identifiers, so all nodes agree wherever their windows overlap — the
//! same offline-window technique as `lcl_problems::shortcut`.
//!
//! Port convention: as produced by [`lcl_graph::gen::cycle`] — port 0 is
//! the predecessor, port 1 the successor.

use lcl::{LclProblem, OutLabel};
use lcl_graph::PortView;
use lcl_local::{LocalAlgorithm, View};
use lcl_obs::{Counter, RunReport, Span, Trace};

use crate::automaton::Automaton;
use crate::classify::ClassifyError;

/// One Cole–Vishkin step (duplicated from `lcl-problems` to keep the
/// dependency graph acyclic; three lines of arithmetic).
pub(crate) fn cv_step(mine: u64, parent: u64) -> u64 {
    let diff = mine ^ parent;
    let i = diff.trailing_zeros() as u64;
    2 * i + ((mine >> i) & 1)
}

pub(crate) fn cv_iterations(initial_bits: u32) -> u32 {
    let mut bits = initial_bits.max(3);
    let mut iterations = 0;
    while bits > 3 {
        bits = u32::BITS - (2 * bits - 1).leading_zeros();
        iterations += 1;
    }
    iterations + 1
}

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

/// The precomputed data of the log* synthesis.
#[derive(Clone, Debug)]
pub struct LogStarPlan {
    /// The flexible state.
    s: usize,
    /// All segment lengths `≥ k0` admit closed walks `s → s`.
    k0: usize,
    /// Sparsification levels (doubling the anchor spacing each).
    levels: u32,
    /// Upper bound on the gap between consecutive final anchors.
    gap_bound: usize,
    /// `walks[l]` = the canonical state sequence of a length-`l` closed
    /// walk `s → s` (length `l + 1`, first = last = `s`), for `l` up to
    /// the largest length the fill can meet. Every walk ends with the
    /// same final transition `t* → s`, so the anchor's own left label is
    /// the same regardless of which segment precedes it.
    t_star: usize,
    walks: Vec<Option<Vec<u32>>>,
    /// `witness[y][y']` = the canonical `x'` with `{y, x'} ∈ ℰ` and
    /// `{x', y'} ∈ 𝒩²`.
    witness: Vec<Vec<Option<u32>>>,
}

/// The `Θ(log* n)` anchor-and-fill algorithm.
#[derive(Clone, Debug)]
pub struct LogStarCycle {
    plan: LogStarPlan,
}

/// Synthesizes an algorithm for an (input-independent) LCL on oriented
/// cycles, if its class admits one (`O(1)` or `Θ(log* n)`); returns
/// `Ok(None)` for global/finitely-solvable problems.
///
/// # Errors
///
/// As [`classify_oriented_cycle`](crate::classify_oriented_cycle).
pub fn synthesize_cycle(p: &LclProblem) -> Result<Option<CycleAlgorithm>, ClassifyError> {
    synthesize_cycle_traced(p).map(|report| report.outcome)
}

/// Like [`synthesize_cycle`], additionally reporting the synthesis trace:
/// automaton states, sparsification levels of a log* plan, and wall time.
///
/// # Errors
///
/// As [`synthesize_cycle`].
pub fn synthesize_cycle_traced(
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
    for s in 0..k {
        if automaton.has_self_loop(s) {
            let witness = witness_table(p, &automaton);
            if let Some(x) = witness[s][s] {
                return Ok(Some(CycleAlgorithm::Constant(ConstantCycle {
                    x,
                    y: s as u32,
                })));
            }
        }
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
    // Closed-walk lengths achievable from s (ending t* → s), with
    // canonical predecessors.
    let limit = 4 * k * k + 64;
    let walks = closed_walks(&automaton, s, t_star, limit);
    // K₀: the smallest K with all lengths K..=limit achievable.
    let mut k0 = None;
    for start in (2..limit).rev() {
        if walks[start].is_none() {
            k0 = Some(start + 1);
            break;
        }
    }
    let k0 = k0.unwrap_or(2);
    if k0 + 8 >= limit {
        return Ok(None); // flexibility horizon beyond our table: bail out
    }

    // Levels: level-0 anchors (color minima) are ≥ 2 apart; each level
    // doubles the spacing. Need 2 · 2^levels ≥ k0.
    let mut levels = 0u32;
    while (2usize << levels) < k0 {
        levels += 1;
    }
    // Gap bound: level-0 gaps ≤ 4; each level multiplies by ≤ 4 (the
    // virtual-cycle minima are at most 4 anchors apart).
    let gap_bound = 4usize
        .checked_shl(2 * levels)
        .unwrap_or(usize::MAX)
        .min(4 * 4usize.pow(levels));
    if gap_bound >= limit {
        return Ok(None);
    }

    let witness = witness_table(p, &automaton);
    if witness[t_star][s].is_none() {
        return Ok(None);
    }
    Ok(Some(CycleAlgorithm::LogStar(LogStarCycle {
        plan: LogStarPlan {
            s,
            k0,
            levels,
            gap_bound,
            t_star,
            walks,
            witness,
        },
    })))
}

pub(crate) fn witness_table(p: &LclProblem, automaton: &Automaton) -> Vec<Vec<Option<u32>>> {
    use lcl::Problem as _;
    let k = automaton.state_count();
    (0..k)
        .map(|y| {
            (0..k)
                .map(|yp| {
                    (0..k as u32).find(|&x| {
                        automaton.is_output_allowed(x as usize)
                            && p.edge_allows(OutLabel(y as u32), OutLabel(x))
                            && p.node_allows(&[OutLabel(x), OutLabel(yp as u32)])
                    })
                })
                .collect()
        })
        .collect()
}

/// `walks[l]` = canonical closed walk `s → ... → t* → s` of length `l`
/// (state sequence of `l + 1` entries), or `None` if unachievable.
fn closed_walks(
    automaton: &Automaton,
    s: usize,
    t_star: usize,
    limit: usize,
) -> Vec<Option<Vec<u32>>> {
    let k = automaton.state_count();
    // reach[l][t] = predecessor state on the canonical length-l walk
    // s -> t, or usize::MAX.
    let mut reach: Vec<Vec<usize>> = vec![vec![usize::MAX; k]; limit + 1];
    reach[0][s] = s; // marker
    for l in 0..limit {
        for t in 0..k {
            if reach[l][t] == usize::MAX {
                continue;
            }
            for &u in automaton.successors(t) {
                if reach[l + 1][u] == usize::MAX {
                    reach[l + 1][u] = t;
                }
            }
        }
    }
    (0..=limit)
        .map(|l| {
            // A length-l closed walk ending t* -> s needs s -> t* in
            // l - 1 steps.
            if l < 2 || reach[l - 1][t_star] == usize::MAX {
                return None;
            }
            let mut states = vec![s as u32; l + 1];
            states[l] = s as u32;
            let mut current = t_star;
            for back in (1..=l - 1).rev() {
                states[back] = current as u32;
                current = reach[back][current];
            }
            states[0] = s as u32;
            (current == s).then_some(states)
        })
        .collect()
}

impl LogStarCycle {
    fn window_need(&self, n: usize) -> usize {
        let id_bits = 3 * (usize::BITS - n.leading_zeros()).max(1);
        let k_iters = cv_iterations(id_bits) as usize;
        let g = self.plan.gap_bound;
        // CV window + per-level horizons + final fill reach. Generous.
        (k_iters + 8) + (self.plan.levels as usize + 1) * (k_iters + 8) * (g + 4) + 2 * g
    }
}

impl LocalAlgorithm for LogStarCycle {
    fn radius(&self, n: usize) -> u32 {
        self.window_need(n) as u32
    }

    fn label(&self, view: &View<'_>) -> Vec<OutLabel> {
        let plan = &self.plan;
        // 1. Reconstruct the window by walking successor/predecessor
        //    ports inside the ball. Detect full-cycle wrap.
        let r = self.window_need(view.n);
        let mut right: Vec<usize> = Vec::new(); // ball-local indices
        let mut current = 0usize;
        let mut wrapped = false;
        for _ in 0..2 * r {
            match view.ball.nodes[current]
                .ports
                .get(1)
                .or_else(|| view.ball.nodes[current].ports.first())
            {
                Some(PortView::Inside { node, .. }) => {
                    // Successor port: index 1 on cycles (degree 2).
                    let succ = match view.ball.nodes[current].ports[1] {
                        PortView::Inside { node: m, .. } => m as usize,
                        PortView::Outside => break,
                    };
                    let _ = node;
                    if succ == 0 {
                        wrapped = true;
                        break;
                    }
                    right.push(succ);
                    current = succ;
                }
                _ => break,
            }
        }
        let ids_at = |local: usize| view.ids[local];

        if wrapped {
            // Whole cycle visible: length n = right.len() + 1.
            let seq: Vec<u64> = std::iter::once(ids_at(0))
                .chain(right.iter().map(|&i| ids_at(i)))
                .collect();
            return cyclic_fill(plan, &seq, 0, view.n);
        }

        // Linear window: also walk left.
        let mut left: Vec<usize> = Vec::new();
        current = 0;
        for _ in 0..r {
            match view.ball.nodes[current].ports.first() {
                Some(PortView::Inside { node, .. }) => {
                    left.push(*node as usize);
                    current = *node as usize;
                }
                _ => break,
            }
        }
        let mut seq: Vec<u64> = left.iter().rev().map(|&i| ids_at(i)).collect();
        let offset = seq.len();
        seq.push(ids_at(0));
        seq.extend(right.iter().map(|&i| ids_at(i)));
        linear_fill(plan, &seq, offset, view.n)
    }

    fn name(&self) -> &str {
        "synthesized-logstar"
    }
}

/// Offline pipeline on a fully visible cycle.
fn cyclic_fill(plan: &LogStarPlan, ids: &[u64], me: usize, n_announced: usize) -> Vec<OutLabel> {
    let n = ids.len();
    let id_bits = 3 * (usize::BITS - n_announced.leading_zeros()).max(1);
    let k_iters = cv_iterations(id_bits);
    // Cyclic CV to 3 colors.
    let mut colors = ids.to_vec();
    for _ in 0..k_iters {
        colors = (0..n)
            .map(|v| cv_step(colors[v], colors[(v + 1) % n]))
            .collect();
    }
    for target in [5u64, 4, 3] {
        colors = (0..n)
            .map(|v| {
                if colors[v] == target {
                    let l = colors[(v + n - 1) % n];
                    let r = colors[(v + 1) % n];
                    (0..3).find(|c| l != *c && r != *c).expect("free color")
                } else {
                    colors[v]
                }
            })
            .collect();
    }
    // Anchors level 0: strict color minima (cyclic).
    let mut anchors: Vec<usize> = (0..n)
        .filter(|&v| colors[v] < colors[(v + n - 1) % n] && colors[v] < colors[(v + 1) % n])
        .collect();
    // Sparsify.
    for _ in 0..plan.levels {
        if anchors.len() < 3 {
            break;
        }
        anchors = sparsify_cyclic(&anchors, ids, n);
    }
    if anchors.len() < 2 || anchors.windows(2).any(|w| w[1] - w[0] < plan.k0) || {
        let wrap = n - anchors[anchors.len() - 1] + anchors[0];
        anchors.len() >= 2 && wrap < plan.k0
    } {
        // Fall back to a single anchor at the global id minimum: the
        // whole cycle is one segment of length n.
        let a = (0..n).min_by_key(|&v| ids[v]).expect("nonempty");
        anchors = vec![a];
    }
    fill_from_anchors_cyclic(plan, &anchors, n, me)
}

/// One sparsification level on a fully visible cycle: Cole–Vishkin over
/// the anchor virtual cycle, keep color minima.
fn sparsify_cyclic(anchors: &[usize], ids: &[u64], _n: usize) -> Vec<usize> {
    let m = anchors.len();
    let mut colors: Vec<u64> = anchors.iter().map(|&a| ids[a]).collect();
    for _ in 0..cv_iterations(64) {
        colors = (0..m)
            .map(|i| cv_step(colors[i], colors[(i + 1) % m]))
            .collect();
    }
    for target in [5u64, 4, 3] {
        colors = (0..m)
            .map(|i| {
                if colors[i] == target {
                    let l = colors[(i + m - 1) % m];
                    let r = colors[(i + 1) % m];
                    (0..3).find(|c| l != *c && r != *c).expect("free color")
                } else {
                    colors[i]
                }
            })
            .collect();
    }
    let kept: Vec<usize> = (0..m)
        .filter(|&i| colors[i] < colors[(i + m - 1) % m] && colors[i] < colors[(i + 1) % m])
        .map(|i| anchors[i])
        .collect();
    if kept.len() >= 2 {
        kept
    } else {
        anchors.to_vec()
    }
}

fn fill_from_anchors_cyclic(
    plan: &LogStarPlan,
    anchors: &[usize],
    n: usize,
    me: usize,
) -> Vec<OutLabel> {
    // Segment containing `me`: [a, b) with a the last anchor ≤ me
    // (cyclically).
    let a_idx = anchors
        .iter()
        .rposition(|&a| a <= me)
        .unwrap_or(anchors.len() - 1);
    let a = anchors[a_idx];
    let b = anchors[(a_idx + 1) % anchors.len()];
    let seg_len = if anchors.len() == 1 {
        n
    } else {
        (b + n - a) % n
    };
    let offset = (me + n - a) % n;
    emit(plan, seg_len, offset)
}

/// Offline pipeline on a linear window; `offset` is my index in `ids`.
fn linear_fill(plan: &LogStarPlan, ids: &[u64], me: usize, n_announced: usize) -> Vec<OutLabel> {
    let n = ids.len();
    let id_bits = 3 * (usize::BITS - n_announced.leading_zeros()).max(1);
    let k_iters = cv_iterations(id_bits) as usize;
    // Linear CV: position v valid after j iterations if v + j < n.
    let mut colors = ids.to_vec();
    for _ in 0..k_iters {
        let mut next = colors.clone();
        for v in 0..n.saturating_sub(1) {
            next[v] = cv_step(colors[v], colors[v + 1]);
        }
        colors = next;
    }
    for target in [5u64, 4, 3] {
        let mut next = colors.clone();
        for v in 1..n.saturating_sub(1) {
            if colors[v] == target {
                next[v] = (0..3)
                    .find(|c| colors[v - 1] != *c && colors[v + 1] != *c)
                    .expect("free color");
            }
        }
        colors = next;
    }
    // Valid color margin: positions [margin0, n - margin0).
    let margin0 = k_iters + 4;
    // Anchors level 0 on the valid interior.
    let lo = margin0.max(1);
    let hi = n.saturating_sub(margin0.max(1));
    let mut anchors: Vec<usize> = (lo..hi)
        .filter(|&v| colors[v] < colors[v - 1] && colors[v] < colors[v + 1])
        .collect();
    for _ in 0..plan.levels {
        if anchors.len() < 4 {
            break;
        }
        anchors = sparsify_linear(&anchors, ids, k_iters);
    }
    // Find bracketing anchors around me.
    let a_idx = anchors.iter().rposition(|&a| a <= me);
    let b_idx = anchors.iter().position(|&a| a > me);
    match (a_idx, b_idx) {
        (Some(ai), Some(bi)) => {
            let a = anchors[ai];
            let b = anchors[bi];
            let seg = b - a;
            if seg >= plan.k0 && plan.walks.get(seg).is_some_and(Option::is_some) {
                emit(plan, seg, me - a)
            } else {
                // Segment length without a walk (sparsification edge
                // cases): emit the self-fallback.
                emit_fallback(plan)
            }
        }
        _ => emit_fallback(plan),
    }
}

/// One sparsification level on a linear anchor sequence: CV with margins.
fn sparsify_linear(anchors: &[usize], ids: &[u64], k_iters: usize) -> Vec<usize> {
    let m = anchors.len();
    let mut colors: Vec<u64> = anchors.iter().map(|&a| ids[a]).collect();
    for _ in 0..cv_iterations(64) {
        let mut next = colors.clone();
        for i in 0..m.saturating_sub(1) {
            next[i] = cv_step(colors[i], colors[i + 1]);
        }
        colors = next;
    }
    for target in [5u64, 4, 3] {
        let mut next = colors.clone();
        for i in 1..m.saturating_sub(1) {
            if colors[i] == target {
                next[i] = (0..3)
                    .find(|c| colors[i - 1] != *c && colors[i + 1] != *c)
                    .expect("free color");
            }
        }
        colors = next;
    }
    let margin = cv_iterations(64) as usize + 4 + k_iters / (k_iters.max(1));
    let lo = margin.max(1);
    let hi = m.saturating_sub(margin.max(1));
    let kept: Vec<usize> = (lo..hi)
        .filter(|&i| colors[i] < colors[i - 1] && colors[i] < colors[i + 1])
        .map(|i| anchors[i])
        .collect();
    if kept.len() >= 2 {
        kept
    } else {
        anchors.to_vec()
    }
}

/// Output labels (x on port 0, y on port 1) for offset `off` in a
/// segment of length `seg` starting at an anchor.
fn emit(plan: &LogStarPlan, seg: usize, off: usize) -> Vec<OutLabel> {
    let Some(Some(walk)) = plan.walks.get(seg) else {
        return emit_fallback(plan);
    };
    let y = walk[off];
    let y_prev = if off == 0 {
        // Every walk ends with the canonical transition t* → s, so the
        // previous node's state is t* regardless of the segment behind.
        plan.t_star as u32
    } else {
        walk[off - 1]
    };
    let x = plan.witness[y_prev as usize][y as usize].expect("walk transitions have witnesses");
    vec![OutLabel(x), OutLabel(y)]
}

fn emit_fallback(plan: &LogStarPlan) -> Vec<OutLabel> {
    let s = plan.s as u32;
    let x = plan.witness[plan.t_star][plan.s].unwrap_or(s);
    vec![OutLabel(x), OutLabel(s)]
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
        let alg = synthesize_cycle(&p).unwrap().expect("synthesizable");
        assert!(matches!(alg, CycleAlgorithm::Constant(_)));
        check_on_cycles(&p, &alg, &[3, 7, 64]);
    }

    #[test]
    fn three_coloring_synthesizes_logstar() {
        let p = three_coloring();
        let alg = synthesize_cycle(&p).unwrap().expect("synthesizable");
        assert!(matches!(alg, CycleAlgorithm::LogStar(_)));
        check_on_cycles(&p, &alg, &[16, 45, 99, 256]);
    }

    #[test]
    fn spaced_marking_synthesizes_with_sparsification() {
        let p = spaced_marking();
        let alg = synthesize_cycle(&p).unwrap().expect("synthesizable");
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
        let report = synthesize_cycle_traced(&p).unwrap();
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
        assert!(synthesize_cycle(&two_col).unwrap().is_none());
    }

    #[test]
    fn synthesized_radius_is_log_star_scale() {
        let p = three_coloring();
        let alg = synthesize_cycle(&p).unwrap().expect("synthesizable");
        let small = alg.radius(1 << 8);
        let large = alg.radius(1 << 60);
        assert!(large >= small);
        assert!(large <= 4 * small, "small={small} large={large}");
    }
}
