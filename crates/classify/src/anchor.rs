//! The anchor-and-fill core shared by the cycle and path synthesizers.
//!
//! A flexible state `s` (closed walks `s → s` of every sufficiently large
//! length) yields a `Θ(log* n)` algorithm: compute a Cole–Vishkin
//! 3-coloring offline from a gathered window, take the strict color
//! minima as anchors, sparsify them (Cole–Vishkin again on the anchor
//! sequence) until consecutive anchors are at least `K₀` apart, and fill
//! each inter-anchor segment with a precomputed closed walk `s → s` of
//! exactly the segment's length.
//!
//! Everything is a deterministic function of a bounded window of
//! identifiers, so all nodes agree wherever their windows overlap — the
//! same offline-window technique as `lcl_problems::shortcut`.
//!
//! The two front-ends differ only at the window's sides: a cycle window
//! either wraps around the whole cycle or is cut off by the radius on
//! both sides, while a path window may also end at a real endpoint, where
//! the path front-end fills from its prefix/suffix tables instead.
//!
//! Port convention: as produced by [`lcl_graph::gen::cycle`] and
//! [`lcl_graph::gen::path`] — port 0 toward the predecessor, port 1
//! toward the successor; a path's endpoints have their single port 0.

use lcl::{LclProblem, OutLabel};
use lcl_graph::PortView;
use lcl_local::View;
use lcl_problems::cv::{cv_iteration_count, cv_step};

use crate::automaton::Automaton;

/// Walks by length: `walks[l]` is the canonical state sequence of a
/// length-`l` walk (`l + 1` states), or `None` if there is none.
pub(crate) type Walks = Vec<Option<Vec<u32>>>;

/// Canonical walks of every length up to a limit from a set of sources.
pub(crate) struct WalkTable {
    /// `pred[l][t]` = the predecessor of `t` on the canonical length-`l`
    /// walk to `t`, or `usize::MAX` if no length-`l` walk reaches `t`.
    pred: Vec<Vec<usize>>,
}

impl WalkTable {
    pub(crate) fn new(automaton: &Automaton, sources: &[usize], limit: usize) -> Self {
        let k = automaton.state_count();
        let mut pred = vec![vec![usize::MAX; k]; limit + 1];
        for &src in sources {
            pred[0][src] = src;
        }
        for l in 0..limit {
            for t in 0..k {
                if pred[l][t] == usize::MAX {
                    continue;
                }
                for &u in automaton.successors(t) {
                    if pred[l + 1][u] == usize::MAX {
                        pred[l + 1][u] = t;
                    }
                }
            }
        }
        WalkTable { pred }
    }

    /// The longest walk length the table covers.
    pub(crate) fn limit(&self) -> usize {
        self.pred.len() - 1
    }

    /// The canonical length-`l` walk ending at `target`.
    fn walk_to(&self, l: usize, target: usize) -> Option<Vec<u32>> {
        if self.pred[l][target] == usize::MAX {
            return None;
        }
        let mut states = vec![0u32; l + 1];
        let mut current = target;
        for back in (0..=l).rev() {
            states[back] = current as u32;
            if back > 0 {
                current = self.pred[back][current];
            }
        }
        Some(states)
    }

    /// For every length, the canonical walk ending with the transition
    /// `t* → s`.
    pub(crate) fn walks_via(&self, t_star: usize, s: usize) -> Walks {
        (0..=self.limit())
            .map(|l| {
                if l < 2 {
                    return None;
                }
                let mut states = self.walk_to(l - 1, t_star)?;
                states.push(s as u32);
                Some(states)
            })
            .collect()
    }

    /// For every length, the canonical walk ending at the first state
    /// (by index) satisfying `accept`.
    pub(crate) fn walks_to(&self, accept: impl Fn(usize) -> bool) -> Walks {
        self.pred
            .iter()
            .enumerate()
            .map(|(l, row)| {
                let target = (0..row.len()).find(|&t| accept(t) && row[t] != usize::MAX)?;
                self.walk_to(l, target)
            })
            .collect()
    }
}

/// Smallest `t ≥ 2` with walks of every length `t..limit` in `walks`,
/// requiring some slack below the limit; `None` if the tail is not all
/// present.
pub(crate) fn threshold(walks: &Walks) -> Option<usize> {
    let limit = walks.len() - 1;
    let t = (2..limit)
        .rev()
        .find(|&l| walks[l].is_none())
        .map_or(2, |l| l + 1);
    (t + 16 < limit).then_some(t)
}

/// `witness[y][y']` = the canonical `x'` with `{y, x'} ∈ ℰ` and
/// `{x', y'} ∈ 𝒩²`.
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

/// The precomputed data of an anchor-and-fill algorithm.
#[derive(Clone, Debug)]
pub(crate) struct Plan {
    /// The flexible state.
    pub(crate) s: usize,
    /// The canonical penultimate state: an in-neighbor of `s` on a cycle
    /// through `s`. Every walk ends `t* → s`, so an anchor's own left
    /// label is the same regardless of which segment precedes it.
    pub(crate) t_star: usize,
    /// All segment lengths `≥ k0` admit closed walks `s → s`.
    pub(crate) k0: usize,
    /// Sparsification levels (doubling the anchor spacing each).
    pub(crate) levels: u32,
    /// Upper bound on the gap between consecutive final anchors.
    gap_bound: usize,
    /// Anchor suppression margin near a visible endpoint (0 on cycles,
    /// which have none).
    pub(crate) boundary: usize,
    /// Closed walks `s → … → t* → s` by length.
    walks: Walks,
    /// `witness[y][y']` labels the half-edge between states `y` and `y'`.
    pub(crate) witness: Vec<Vec<Option<u32>>>,
}

impl Plan {
    /// The plan for flexible state `s` with penultimate state `t_star`,
    /// given the canonical walks `from_s` out of `s` and the
    /// [`witness_table`]. `None` when the closed walks' threshold or the
    /// fill reach (the final gap bound plus `boundary` plus `slack`) do
    /// not fit below the table's limit, or when `t* → s` has no witness.
    pub(crate) fn new(
        from_s: &WalkTable,
        s: usize,
        t_star: usize,
        witness: Vec<Vec<Option<u32>>>,
        boundary: usize,
        slack: usize,
    ) -> Option<Plan> {
        let walks = from_s.walks_via(t_star, s);
        let k0 = threshold(&walks)?;
        // Level-0 anchors (color minima) are ≥ 2 apart and each level
        // doubles the spacing: need 2 · 2^levels ≥ k0.
        let mut levels = 0u32;
        while (2usize << levels) < k0 {
            levels += 1;
        }
        // Level-0 gaps are ≤ 4 and each level multiplies them by ≤ 4 (the
        // virtual-sequence minima are at most 4 anchors apart).
        let gap_bound = 4 * 4usize.pow(levels);
        if boundary + gap_bound + slack >= from_s.limit() {
            return None;
        }
        witness[t_star][s]?;
        Some(Plan {
            s,
            t_star,
            k0,
            levels,
            gap_bound,
            boundary,
            walks,
            witness,
        })
    }

    /// The window radius a node gathers: the Cole–Vishkin window plus the
    /// per-level horizons plus the final fill reach. Generous.
    pub(crate) fn radius(&self, n: usize) -> u32 {
        let k_iters = id_rounds(n) as usize;
        let g = self.gap_bound + self.boundary;
        ((k_iters + 8) + (self.levels as usize + 1) * (k_iters + 8) * (g + 4) + 2 * g) as u32
    }

    /// Where the window's node sits among the final anchors of the
    /// window: color, anchor, sparsify, then locate.
    pub(crate) fn place(&self, w: &Window, n_announced: usize) -> Place {
        let n = w.ids.len();
        let cyclic = w.left == Side::Cyclic;
        let k_iters = id_rounds(n_announced);
        let mut anchors: Vec<usize> = minima(&w.ids, k_iters, w.left, w.right)
            .into_iter()
            .filter(|&v| {
                (w.left != Side::End || v >= self.boundary)
                    && (w.right != Side::End || v + self.boundary < n)
            })
            .collect();
        // Sparsify: per level, Cole–Vishkin over the anchors' identifiers,
        // keeping the color minima, while at least 3 anchors remain on a
        // whole cycle (4 on a line).
        let floor = if cyclic { 3 } else { 4 };
        for _ in 0..self.levels {
            if anchors.len() < floor {
                break;
            }
            let ids: Vec<u64> = anchors.iter().map(|&a| w.ids[a]).collect();
            let kept: Vec<usize> = minima(&ids, cv_iteration_count(64), w.left, w.right)
                .into_iter()
                .map(|i| anchors[i])
                .collect();
            if kept.len() < 2 {
                break;
            }
            anchors = kept;
        }
        if cyclic {
            return self.place_cyclic(anchors, &w.ids, w.me);
        }
        let before = anchors.iter().rev().find(|&&a| a <= w.me).copied();
        let after = anchors.iter().find(|&&a| a > w.me).copied();
        match (before, after) {
            (Some(a), Some(b)) => Place::Segment {
                len: b - a,
                off: w.me - a,
            },
            (None, Some(b)) => Place::Head(b),
            (Some(a), None) => Place::Tail(a),
            (None, None) => Place::Bare,
        }
    }

    /// The segment of a whole visible cycle holding `me`. Anchors closer
    /// than `K₀` (sparsification cut short on a small cycle) fall back to
    /// a single anchor at the identifier minimum: the whole cycle is one
    /// segment of length `n`.
    fn place_cyclic(&self, mut anchors: Vec<usize>, ids: &[u64], me: usize) -> Place {
        let n = ids.len();
        if anchors.len() < 2
            || anchors.windows(2).any(|w| w[1] - w[0] < self.k0)
            || n - anchors[anchors.len() - 1] + anchors[0] < self.k0
        {
            anchors = vec![(0..n).min_by_key(|&v| ids[v]).expect("nonempty window")];
        }
        let i = anchors
            .iter()
            .rposition(|&a| a <= me)
            .unwrap_or(anchors.len() - 1);
        let a = anchors[i];
        let len = if anchors.len() == 1 {
            n
        } else {
            (anchors[(i + 1) % anchors.len()] + n - a) % n
        };
        Place::Segment {
            len,
            off: (me + n - a) % n,
        }
    }

    /// The labels of offset `off` in a segment of length `len` between two
    /// anchors, filled with the closed walk of that length; the fallback
    /// if there is none.
    pub(crate) fn fill(&self, len: usize, off: usize, degree: usize) -> Vec<OutLabel> {
        match self.walks.get(len) {
            Some(Some(walk)) => self.emit(walk, off),
            _ => self.fallback(degree),
        }
    }

    /// The labels `[x, y]` of position `off` along `walk`: its state `y`
    /// on the successor side and, on the predecessor side, the witness
    /// between the previous state and `y`. The state before offset 0 is
    /// `t*`, which ends every closed and prefix walk.
    pub(crate) fn emit(&self, walk: &[u32], off: usize) -> Vec<OutLabel> {
        let y = walk[off];
        let y_prev = if off == 0 {
            self.t_star as u32
        } else {
            walk[off - 1]
        };
        let x = self.witness[y_prev as usize][y as usize].expect("walk transitions have witnesses");
        vec![OutLabel(x), OutLabel(y)]
    }

    /// The output of a node with no usable segment: the flexible state's
    /// own labels.
    pub(crate) fn fallback(&self, degree: usize) -> Vec<OutLabel> {
        let s = self.s as u32;
        if degree == 1 {
            return vec![OutLabel(s)];
        }
        let x = self.witness[self.t_star][self.s].unwrap_or(s);
        vec![OutLabel(x), OutLabel(s)]
    }
}

/// Where a node sits among the final anchors of its window.
pub(crate) enum Place {
    /// Offset `off` into a segment of length `len` that starts at an
    /// anchor (on a whole visible cycle with one anchor, the whole cycle).
    Segment { len: usize, off: usize },
    /// Before the first anchor, at this window position.
    Head(usize),
    /// After the last anchor, at this window position.
    Tail(usize),
    /// The window holds no anchor.
    Bare,
}

/// Cole–Vishkin rounds from `3 log n`-bit identifiers down to 6 colors.
fn id_rounds(n: usize) -> u32 {
    cv_iteration_count(3 * (usize::BITS - n.leading_zeros()).max(1))
}

/// How a window ends on one side.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Side {
    /// The window is a whole cycle: this side continues at the other end.
    Cyclic,
    /// A real endpoint of the path.
    End,
    /// Cut off by the radius: colors near this side are untrusted.
    Cut,
}

/// The identifiers a node reconstructs from its view, left to right.
pub(crate) struct Window {
    pub(crate) ids: Vec<u64>,
    /// The node's own index in `ids`.
    pub(crate) me: usize,
    pub(crate) left: Side,
    pub(crate) right: Side,
}

impl Window {
    /// Walks straight out of the view's center in both directions, at
    /// most `2 · radius` steps each way (a whole cycle of up to
    /// `2 · radius` nodes is visible and needs that many). A walk that
    /// returns to the center makes the window cyclic, listed from the
    /// center.
    pub(crate) fn of(view: &View<'_>, radius: usize) -> Window {
        // (successor port, predecessor port) of the center: a path's left
        // endpoint has only a successor, its right endpoint only a
        // predecessor.
        let (forward, backward) = match view.ball.center().ports.len() {
            0 => (None, None),
            1 if is_left_endpoint(view) => (Some(0), None),
            1 => (None, Some(0)),
            _ => (Some(1), Some(0)),
        };
        let reach = 2 * radius;
        let mut ids = vec![view.ids[0]];
        let mut right = Side::End;
        if let Some(port) = forward {
            let (seen, side) = walk(view, port, reach);
            ids.extend(seen);
            if side == Side::Cyclic {
                return Window {
                    ids,
                    me: 0,
                    left: Side::Cyclic,
                    right: Side::Cyclic,
                };
            }
            right = side;
        }
        let mut left = Side::End;
        let mut me = 0;
        if let Some(port) = backward {
            let (seen, side) = walk(view, port, reach);
            me = seen.len();
            ids.splice(0..0, seen.into_iter().rev());
            left = side;
        }
        Window {
            ids,
            me,
            left,
            right,
        }
    }
}

/// Walks straight from the view's center out of `port` for at most
/// `reach` steps: the identifiers met, nearest first, and how the walk
/// ended.
fn walk(view: &View<'_>, port: u8, reach: usize) -> (Vec<u64>, Side) {
    let mut seen = Vec::new();
    let mut current = 0usize;
    let mut via = port;
    for _ in 0..reach {
        let Some(PortView::Inside { node, rev_port }) =
            view.ball.nodes[current].ports.get(via as usize).copied()
        else {
            break;
        };
        let next = node as usize;
        if next == 0 {
            return (seen, Side::Cyclic);
        }
        seen.push(view.ids[next]);
        if view.ball.nodes[next].ports.len() == 1 {
            return (seen, Side::End);
        }
        // Continue straight: leave through the other port.
        via = 1 - rev_port;
        current = next;
    }
    (seen, Side::Cut)
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

/// The positions of `ids` that are strict minima of its Cole–Vishkin
/// 3-coloring after `rounds` rounds, among those whose colors the
/// sequence determines: all of a cyclic sequence; otherwise all but the
/// first and last, and on a side cut off by the radius all but a margin
/// of `rounds + 4` (the reach of the rounds and the 6 → 3 reduction).
fn minima(ids: &[u64], rounds: u32, left: Side, right: Side) -> Vec<usize> {
    let n = ids.len();
    let cyclic = left == Side::Cyclic;
    let colors = three_color(ids, rounds, cyclic);
    if cyclic {
        return (0..n)
            .filter(|&v| colors[v] < colors[(v + n - 1) % n] && colors[v] < colors[(v + 1) % n])
            .collect();
    }
    let margin = rounds as usize + 4;
    let lo = if left == Side::End { 1 } else { margin };
    let hi = if right == Side::End {
        n.saturating_sub(1)
    } else {
        n.saturating_sub(margin)
    };
    (lo.max(1)..hi.min(n.saturating_sub(1)))
        .filter(|&v| colors[v] < colors[v - 1] && colors[v] < colors[v + 1])
        .collect()
}

/// Cole–Vishkin for `rounds` rounds, each position against its right
/// neighbor (the last against the first on a cyclic sequence, else
/// against its own color with the lowest bit flipped), then the 6 → 3
/// reduction. Distinct identifiers stay properly colored throughout.
fn three_color(ids: &[u64], rounds: u32, cyclic: bool) -> Vec<u64> {
    let n = ids.len();
    let mut colors = ids.to_vec();
    for _ in 0..rounds {
        colors = (0..n)
            .map(|v| {
                let parent = if v + 1 < n {
                    colors[v + 1]
                } else if cyclic {
                    colors[0]
                } else {
                    colors[v] ^ 1
                };
                cv_step(colors[v], parent)
            })
            .collect();
    }
    for target in [5u64, 4, 3] {
        colors = (0..n)
            .map(|v| {
                if colors[v] != target {
                    return colors[v];
                }
                let left = (v > 0 || cyclic).then(|| colors[(v + n - 1) % n]);
                let right = (v + 1 < n || cyclic).then(|| colors[(v + 1) % n]);
                (0..3)
                    .find(|&c| Some(c) != left && Some(c) != right)
                    .expect("two neighbors leave a free color")
            })
            .collect();
    }
    colors
}
