//! The shortcut construction behind the *dense region* of the general-graph
//! landscape (`Θ(log log* n)`–`Θ(log* n)`, \[BHKLOS18\], discussed in the
//! paper's introduction): a path plus a balanced binary shortcut tree, so
//! that the radius-`t` ball around a path node contains a path window of
//! length `~2^{t/4}`.
//!
//! The problem — 3-color the *path* (tree half-edges get `⊥`) — then has
//! LOCAL complexity `Θ(log log* n)`-ish in the shortcut graph: a node
//! gathers the `O(log* n)`-long Cole–Vishkin window through the tree in
//! `O(log log* n)` hops and evaluates the coloring *offline*. On trees the
//! paper's Theorem 1.1 forbids exactly this kind of intermediate
//! complexity — the shortcuts (cycles!) are essential, which is what the
//! `fig1_general` bench demonstrates.

use lcl::{HalfEdgeLabeling, InLabel, LclProblem, OutLabel};
use lcl_graph::{Graph, GraphBuilder, PortView};
use lcl_local::{LocalAlgorithm, View};

use crate::cv::{cv_iteration_count, cv_step};

/// Input label on path half-edges toward the smaller position.
pub const IN_PL: InLabel = InLabel(0);
/// Input label on path half-edges toward the larger position.
pub const IN_PR: InLabel = InLabel(1);
/// Input label on shortcut-tree half-edges.
pub const IN_T: InLabel = InLabel(2);

const OUT_A: u32 = 0;
const OUT_BOT: u32 = 3;

/// Builds the shortcut graph over a path of `2^levels` nodes: path nodes
/// `0..2^levels` plus a balanced binary tree whose leaves are the path
/// nodes. Returns the graph and the input labeling marking path-left,
/// path-right, and tree half-edges.
///
/// Maximum degree is 3; the number of nodes is `2^{levels+1} - 1`.
///
/// # Panics
///
/// Panics if `levels == 0`.
pub fn shortcut_path(levels: u32) -> (Graph, HalfEdgeLabeling<InLabel>) {
    assert!(levels >= 1, "need at least two path nodes");
    let m = 1usize << levels;
    let mut b = GraphBuilder::new(m);
    for i in 1..m {
        b.add_edge(i - 1, i).expect("path edges are valid");
    }
    // Tree levels: level 1 has m/2 nodes over pairs, etc.
    let mut below: Vec<usize> = (0..m).collect();
    while below.len() > 1 {
        let mut level = Vec::with_capacity(below.len() / 2);
        for pair in below.chunks(2) {
            let parent = b.add_node().index();
            for &child in pair {
                b.add_edge(child, parent).expect("tree edges are valid");
            }
            level.push(parent);
        }
        below = level;
    }
    let graph = b.build().expect("shortcut graph is simple");
    let input = HalfEdgeLabeling::from_fn(&graph, |h| {
        let v = graph.node_of(h).index();
        let w = graph.neighbor(h).index();
        if v < m && w < m {
            if w < v {
                IN_PL
            } else {
                IN_PR
            }
        } else {
            IN_T
        }
    });
    (graph, input)
}

/// The LCL "3-color the marked path": path half-edges carry a color, all
/// equal per node, differing across path edges; tree half-edges carry `⊥`.
pub fn shortcut_coloring_problem() -> LclProblem {
    let mut builder = LclProblem::builder("shortcut-3-coloring", 3)
        .inputs(["pl", "pr", "t"])
        .outputs(["A", "B", "C", "Bot"])
        .node_pattern(&["Bot*"]);
    for c in ["A", "B", "C"] {
        builder = builder
            .node_pattern(&[c, c, "Bot*"])
            .node_pattern(&[c, "Bot*"]);
    }
    builder
        .edge(&["A", "B"])
        .edge(&["A", "C"])
        .edge(&["B", "C"])
        .edge(&["Bot", "Bot"])
        .allow("pl", &["A", "B", "C"])
        .allow("pr", &["A", "B", "C"])
        .allow("t", &["Bot"])
        .build()
        .expect("shortcut coloring is well-formed")
}

/// The Cole–Vishkin window length a node must see to its right:
/// iterations to 6 colors plus the reduction margin.
pub fn window_size(n: usize) -> u32 {
    let id_bits = 3 * (usize::BITS - n.leading_zeros()).max(1);
    cv_iteration_count(id_bits) + 4
}

/// A radius sufficient to cover the window through the shortcut tree
/// (`4 ⌈log₂ w⌉ + O(1)`, the block-hopping bound).
pub fn default_radius(n: usize) -> u32 {
    let w = u64::from(window_size(n)) + 4;
    4 * lcl_graph::math::log2_ceil(w) + 6
}

/// The window-gathering 3-coloring algorithm on shortcut graphs: walk the
/// marked path inside the ball, simulate Cole–Vishkin plus the three
/// reduction sweeps offline, output the center's color.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShortcutColoring {
    /// Override for the gathering radius (`None`: [`default_radius`]).
    pub radius: Option<u32>,
}

impl ShortcutColoring {
    fn walk(view: &View<'_>, start: usize, direction: InLabel, limit: usize) -> (Vec<usize>, bool) {
        // Returns ball-node indices strictly beyond `start` in the given
        // direction, and whether the walk ended at a true path endpoint
        // (as opposed to falling off the visible ball).
        let mut nodes = Vec::new();
        let mut current = start;
        for _ in 0..limit {
            let ball_node = &view.ball.nodes[current];
            let mut advanced = false;
            let mut endpoint = true;
            for (p, port) in ball_node.ports.iter().enumerate() {
                if view.inputs[view.half_edge_index(current, p as u8)] != direction {
                    continue;
                }
                endpoint = false;
                if let PortView::Inside { node, .. } = *port {
                    current = node as usize;
                    nodes.push(current);
                    advanced = true;
                }
                break;
            }
            if !advanced {
                return (nodes, endpoint);
            }
        }
        (nodes, false)
    }
}

impl LocalAlgorithm for ShortcutColoring {
    fn radius(&self, n: usize) -> u32 {
        self.radius.unwrap_or_else(|| default_radius(n))
    }

    fn label(&self, view: &View<'_>) -> Vec<OutLabel> {
        let degree = view.center_degree();
        let is_path_node = (0..degree).any(|p| {
            let input = view.inputs[view.half_edge_index(0, p as u8)];
            input == IN_PL || input == IN_PR
        });
        if !is_path_node {
            return vec![OutLabel(OUT_BOT); degree];
        }

        let k = cv_iteration_count(3 * (usize::BITS - view.n.leading_zeros()).max(1));
        let right_needed = (k + 7) as usize; // positions 1 ..= 3 + k + 4
        let (right, right_end) = Self::walk(view, 0, IN_PR, right_needed);
        let (left, left_end) = Self::walk(view, 0, IN_PL, 3);
        if (!right_end && right.len() < right_needed) || (!left_end && left.len() < 3) {
            // The window fell off the visible ball: radius too small.
            return (0..degree)
                .map(|p| {
                    let input = view.inputs[view.half_edge_index(0, p as u8)];
                    OutLabel(if input == IN_T { OUT_BOT } else { OUT_A })
                })
                .collect();
        }

        // Absolute positions: left.len() extra nodes to the left.
        let offset = left.len() as i64;
        let mut ids: Vec<u64> = Vec::with_capacity(left.len() + 1 + right.len());
        for &i in left.iter().rev() {
            ids.push(view.ids[i]);
        }
        ids.push(view.ids[0]);
        for &i in &right {
            ids.push(view.ids[i]);
        }
        let len = ids.len();
        let is_global_right_end = right_end; // last collected node ends the path

        // Cole–Vishkin: k iterations over the collected segment. After
        // iteration j, colors are valid for positions whose needed suffix
        // was collected; the margins guarantee validity on [-3, 3] around
        // the center.
        let mut colors = ids;
        for _ in 0..k {
            let mut next = colors.clone();
            for pos in 0..len {
                let parent = if pos + 1 < len {
                    colors[pos + 1]
                } else if is_global_right_end {
                    colors[pos] ^ 1 // the path's last node is the root
                } else {
                    continue; // beyond the trust horizon; never read
                };
                next[pos] = cv_step(colors[pos], parent);
            }
            colors = next;
        }

        // Reduction sweeps for colors 5, 4, 3, shrinking the trusted
        // range by one position per sweep.
        for (sweep, target) in [5u64, 4, 3].into_iter().enumerate() {
            let margin = sweep + 1;
            let mut next = colors.clone();
            for pos in 0..len {
                if colors[pos] != target {
                    continue;
                }
                // Trust only positions with `margin` valid data around
                // (or true path ends).
                let _ = margin;
                let mut used = Vec::new();
                if pos > 0 {
                    used.push(colors[pos - 1]);
                }
                if pos + 1 < len {
                    used.push(colors[pos + 1]);
                }
                next[pos] = (0..3)
                    .find(|c| !used.contains(c))
                    .expect("a free color in {0,1,2} exists on a path");
            }
            colors = next;
        }

        let my_color = colors[offset as usize];
        debug_assert!(my_color < 3);
        (0..degree)
            .map(|p| {
                let input = view.inputs[view.half_edge_index(0, p as u8)];
                OutLabel(if input == IN_T {
                    OUT_BOT
                } else {
                    my_color as u32
                })
            })
            .collect()
    }

    fn name(&self) -> &str {
        "shortcut-coloring"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_faults::RunOptions;
    use lcl_local::{minimal_solving_radius, simulate_with, IdAssignment};

    #[test]
    fn construction_shape() {
        let (g, input) = shortcut_path(4);
        assert_eq!(g.node_count(), 31); // 16 path + 15 tree nodes
        assert_eq!(g.max_degree(), 3);
        assert!(!g.is_forest(), "shortcuts create cycles");
        // Path nodes have pl/pr half-edges, tree nodes only t.
        let path_marks = g.half_edges().filter(|&h| input.get(h) != IN_T).count();
        assert_eq!(path_marks, 2 * 15); // 15 path edges
    }

    #[test]
    fn shortcut_distances_are_logarithmic() {
        let (g, _) = shortcut_path(8); // path of 256
                                       // Path-distance 128 pairs are within ~4 log2(128) + O(1) hops.
        let d = g.bfs_distances(lcl_graph::NodeId(0), u32::MAX);
        assert!(d[128] <= 33, "d = {}", d[128]);
        assert!(d[128] >= 2, "shortcuts are not direct edges");
    }

    #[test]
    fn colors_the_path_properly() {
        let problem = shortcut_coloring_problem();
        for levels in [2u32, 4, 6] {
            let (g, input) = shortcut_path(levels);
            let ids = IdAssignment::random_polynomial(g.node_count(), 3, 9);
            let alg = ShortcutColoring { radius: None };
            let run = simulate_with(&alg, &g, &input, &ids, None, RunOptions::new())
                .outcome
                .outcome;
            let violations = lcl::verify(&problem, &g, &input, &run.output);
            assert!(violations.is_empty(), "levels={levels}: {violations:?}");
        }
    }

    #[test]
    fn required_radius_is_much_smaller_than_window() {
        let (g, input) = shortcut_path(7); // path of 128
        let problem = shortcut_coloring_problem();
        let ids = IdAssignment::random_polynomial(g.node_count(), 3, 4);
        let t = minimal_solving_radius(&problem, &g, &input, &ids, 64, |r| ShortcutColoring {
            radius: Some(r),
        })
        .expect("solvable within the default radius");
        let w = window_size(g.node_count());
        assert!(
            t <= default_radius(g.node_count()),
            "t = {t} exceeds the default radius"
        );
        // The required radius scales with log of the window (the shortcut
        // compression), not with the window itself. At toy sizes the
        // constants still dominate, so assert the logarithmic bound; the
        // fig1_general bench shows the asymptotic separation.
        let log_bound = 4 * lcl_graph::math::log2_ceil(u64::from(w) + 8) + 6;
        assert!(t <= log_bound, "t = {t}, log bound = {log_bound}");
        assert!(t >= 2, "the window is not radius-1 visible");
    }
}
