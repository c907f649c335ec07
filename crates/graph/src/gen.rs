//! Generators for the graph classes of the paper: paths, cycles, trees `𝒯`,
//! forests `ℱ`, and `d`-dimensional oriented toroidal grids.
//!
//! All generators produce deterministic port numberings; the randomized
//! ones take an explicit seed so every experiment in the suite is
//! reproducible.

use lcl_rng::SmallRng;

use crate::builder::{BuildError, GraphBuilder};
use crate::graph::{EdgeId, Graph, HalfEdgeId, NodeId};

impl Graph {
    /// Builds a graph from explicit, ordered adjacency lists: `adj[v][p]`
    /// is the neighbor behind port `p` of `v`. This gives the caller full
    /// control over the port numbering (the [`GraphBuilder`] assigns ports
    /// by insertion order instead).
    ///
    /// Parallel edges are matched occurrence-by-occurrence, so a torus of
    /// side 2 (where `+k` and `-k` wrap to the same neighbor) is
    /// representable.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::SelfLoop`] on `adj[v]` containing `v`, and
    /// [`BuildError::ParallelEdge`] if the lists are not symmetric (every
    /// occurrence of `u` in `adj[v]` must have a matching occurrence of `v`
    /// in `adj[u]`).
    pub fn from_adjacency(adj: &[Vec<usize>]) -> Result<Graph, BuildError> {
        let n = adj.len();
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + adj[v].len() as u32;
            if adj[v].len() > usize::from(u8::MAX) {
                return Err(BuildError::DegreeExceeded {
                    node: v as u32,
                    degree: adj[v].len() as u32,
                    max: u32::from(u8::MAX),
                });
            }
        }
        let m2 = offsets[n] as usize;
        let mut neighbors = vec![NodeId(0); m2];
        let mut edge_ids = vec![EdgeId(u32::MAX); m2];
        let mut rev_ports = vec![0u8; m2];
        let mut edge_halves: Vec<[HalfEdgeId; 2]> = Vec::with_capacity(m2 / 2);

        for (v, list) in adj.iter().enumerate() {
            for (p, &u) in list.iter().enumerate() {
                if u == v {
                    return Err(BuildError::SelfLoop { node: v as u32 });
                }
                if u >= n {
                    return Err(BuildError::NodeOutOfRange {
                        node: u as u32,
                        node_count: n as u32,
                    });
                }
                let h = offsets[v] as usize + p;
                neighbors[h] = NodeId(u as u32);
                if u < v {
                    continue; // matched from the smaller endpoint below
                }
            }
        }

        // Match occurrences: for v < u, the k-th occurrence of u in adj[v]
        // pairs with the k-th occurrence of v in adj[u].
        for (v, list) in adj.iter().enumerate() {
            for (p, &u) in list.iter().enumerate() {
                if u < v {
                    continue;
                }
                let k = list[..p].iter().filter(|&&w| w == u).count();
                let q = match adj[u].iter().enumerate().filter(|&(_, &w)| w == v).nth(k) {
                    Some((q, _)) => q,
                    None => {
                        return Err(BuildError::ParallelEdge {
                            a: v as u32,
                            b: u as u32,
                        })
                    }
                };
                let hv = offsets[v] as usize + p;
                let hu = offsets[u] as usize + q;
                let e = EdgeId(edge_halves.len() as u32);
                edge_ids[hv] = e;
                edge_ids[hu] = e;
                rev_ports[hv] = q as u8;
                rev_ports[hu] = p as u8;
                let (lo, hi) = if hv < hu { (hv, hu) } else { (hu, hv) };
                edge_halves.push([HalfEdgeId(lo as u32), HalfEdgeId(hi as u32)]);
            }
        }
        if edge_ids.contains(&EdgeId(u32::MAX)) {
            // Some occurrence of a smaller neighbor had no partner.
            return Err(BuildError::ParallelEdge { a: 0, b: 0 });
        }

        let max_degree = adj.iter().map(|l| l.len()).max().unwrap_or(0) as u8;
        Ok(Graph::from_parts(
            offsets,
            neighbors,
            edge_ids,
            rev_ports,
            edge_halves,
            max_degree,
        ))
    }
}

/// A path on `n` nodes (`n ≥ 1`); node `i` is adjacent to `i + 1`.
///
/// Interior nodes have port 0 toward the smaller neighbor and port 1 toward
/// the larger one; edge `i` joins `i` and `i + 1`.
pub fn path(n: usize) -> Graph {
    assert!(n >= 1, "path needs at least one node");
    let mut b = GraphBuilder::new(n).assume_simple();
    for v in 1..n {
        b.add_edge(v - 1, v).expect("path edges are valid");
    }
    b.build().expect("path is a valid graph")
}

/// A cycle on `n ≥ 3` nodes; port 0 points to the predecessor
/// (`v - 1 mod n`) and port 1 to the successor.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 nodes");
    let mut adj = vec![Vec::new(); n];
    #[allow(clippy::needless_range_loop)] // index drives several arrays
    for v in 0..n {
        adj[v].push((v + n - 1) % n);
        adj[v].push((v + 1) % n);
    }
    Graph::from_adjacency(&adj).expect("cycle adjacency is valid")
}

/// A star with `leaves` leaves; node 0 is the center.
pub fn star(leaves: usize) -> Graph {
    let mut b = GraphBuilder::new(leaves + 1);
    for leaf in 1..=leaves {
        b.add_edge(0, leaf).expect("star edges are valid");
    }
    b.build().expect("star is a valid graph")
}

/// The complete rooted tree where every internal node has `arity` children
/// and leaves are at depth `depth`. `depth == 0` yields a single node.
///
/// # Panics
///
/// Panics if `arity == 0` and `depth > 0`.
pub fn complete_tree(arity: usize, depth: usize) -> Graph {
    if depth == 0 {
        return GraphBuilder::new(1).build().expect("single node");
    }
    assert!(arity >= 1, "complete tree needs positive arity");
    let mut b = GraphBuilder::new(1);
    let mut frontier = vec![0usize];
    for _ in 0..depth {
        let mut next = Vec::with_capacity(frontier.len() * arity);
        for &parent in &frontier {
            for _ in 0..arity {
                let child = b.add_node().index();
                b.add_edge(parent, child).expect("tree edges are valid");
                next.push(child);
            }
        }
        frontier = next;
    }
    b.build().expect("complete tree is a valid graph")
}

/// A caterpillar: a spine path of `spine` nodes, each with `legs` pendant
/// leaves.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine >= 1);
    let mut b = GraphBuilder::new(spine);
    for v in 1..spine {
        b.add_edge(v - 1, v).expect("spine edges are valid");
    }
    for v in 0..spine {
        for _ in 0..legs {
            let leaf = b.add_node().index();
            b.add_edge(v, leaf).expect("leg edges are valid");
        }
    }
    b.build().expect("caterpillar is a valid graph")
}

/// A spider: `legs` paths of length `leg_len` glued at a center node.
pub fn spider(legs: usize, leg_len: usize) -> Graph {
    let mut b = GraphBuilder::new(1);
    for _ in 0..legs {
        let mut prev = 0usize;
        for _ in 0..leg_len {
            let v = b.add_node().index();
            b.add_edge(prev, v).expect("leg edges are valid");
            prev = v;
        }
    }
    b.build().expect("spider is a valid graph")
}

/// A uniformly random-ish tree on `n` nodes with maximum degree
/// `max_degree`: node `i` attaches to a random earlier node with remaining
/// capacity. Deterministic given `seed`; this is
/// [`random_forest`]`(n, 1, max_degree, seed)`, so it costs `O(n log n)`.
///
/// # Panics
///
/// Panics unless [`tree_fits`]`(n, max_degree)`.
pub fn random_tree(n: usize, max_degree: u8, seed: u64) -> Graph {
    assert!(
        tree_fits(n, max_degree),
        "no tree on {n} nodes has max degree {max_degree}"
    );
    random_forest(n, 1, max_degree, seed)
}

/// Whether some tree on `n` nodes has maximum degree at most
/// `max_degree`, i.e. whether [`random_tree`]`(n, max_degree, _)` can
/// grow one: `n >= 1`, and `max_degree >= 1` for `n == 2`,
/// `max_degree >= 2` for `n > 2`.
pub fn tree_fits(n: usize, max_degree: u8) -> bool {
    match n {
        0 => false,
        1 => true,
        2 => max_degree >= 1,
        _ => max_degree >= 2,
    }
}

/// A random forest on `n` nodes with (at least) `components` trees.
/// Deterministic given `seed`.
///
/// Nodes `0..components` are roots of separate trees; each later node `v`
/// attaches to a uniformly random earlier node `u` with `u ≡ v (mod
/// components)` and remaining capacity, picked as the `k`-th such node in
/// index order for `k = rng.gen_range(0..count)`. A Fenwick tree over the
/// nodes with spare degree finds that node in `O(log n)`, so the forest
/// costs `O(n log n)`; the draws, and hence the port-numbered graph for a
/// given seed, are those of the earlier generator that rescanned every
/// earlier node.
///
/// # Panics
///
/// Panics unless `1 <= components <= n`, or if some node finds no earlier
/// node of its stripe with remaining capacity (`max_degree` too small).
pub fn random_forest(n: usize, components: usize, max_degree: u8, seed: u64) -> Graph {
    assert!(components >= 1 && components <= n);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n)
        .with_max_degree(max_degree)
        .assume_simple();
    let cap = u32::from(max_degree);
    let mut degree = vec![0u32; n];
    let mut pool = CandidatePool::new(n, components);
    if cap > 0 {
        for root in 0..components {
            pool.insert(root);
        }
    }
    for v in components..n {
        let stripe = v % components;
        let live = pool.live[stripe];
        assert!(live > 0, "degree bound too small to grow the forest");
        let u = pool.kth(stripe, rng.gen_range(0..live));
        b.add_edge(u, v).expect("forest edges are valid");
        degree[u] += 1;
        if degree[u] == cap {
            pool.remove(u);
        }
        // `v` has only its parent edge so far; later nodes attach to it.
        degree[v] = 1;
        if cap > 1 {
            pool.insert(v);
        }
    }
    b.build().expect("random forest respects the degree bound")
}

/// The nodes of a [`random_forest`] that still have spare degree, grouped
/// by stripe `v % stripes`, with the `k`-th one of a stripe (in index
/// order) found in `O(log n)`.
///
/// Nodes sit at stripe-major slots (stripe `s` holds `s, s + stripes, ...`
/// in order), over which a Fenwick tree counts the live ones.
struct CandidatePool {
    /// 1-based Fenwick tree over the slots' 0/1 live flags.
    fenwick: Vec<u32>,
    /// First slot of each stripe.
    start: Vec<usize>,
    /// Live nodes per stripe.
    live: Vec<usize>,
}

impl CandidatePool {
    fn new(n: usize, stripes: usize) -> Self {
        let mut start = Vec::with_capacity(stripes);
        let mut next = 0;
        for s in 0..stripes {
            start.push(next);
            next += (n - s).div_ceil(stripes);
        }
        Self {
            fenwick: vec![0; n + 1],
            start,
            live: vec![0; stripes],
        }
    }

    fn slot(&self, v: usize) -> usize {
        let stripes = self.live.len();
        self.start[v % stripes] + v / stripes
    }

    fn insert(&mut self, v: usize) {
        let stripes = self.live.len();
        self.live[v % stripes] += 1;
        self.add(self.slot(v), 1);
    }

    fn remove(&mut self, v: usize) {
        let stripes = self.live.len();
        self.live[v % stripes] -= 1;
        self.add(self.slot(v), 1u32.wrapping_neg()); // -1
    }

    fn add(&mut self, slot: usize, delta: u32) {
        let mut i = slot + 1;
        while i < self.fenwick.len() {
            self.fenwick[i] = self.fenwick[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Live nodes in slots `0..slot`.
    fn prefix(&self, slot: usize) -> usize {
        let mut sum = 0;
        let mut i = slot;
        while i > 0 {
            sum += self.fenwick[i] as usize;
            i &= i - 1;
        }
        sum
    }

    /// The `k`-th (0-based) live node of `stripe`, in index order.
    fn kth(&self, stripe: usize, k: usize) -> usize {
        debug_assert!(k < self.live[stripe]);
        // Descend to the slot with exactly `rest` live slots before it;
        // that slot is live, and it lies in `stripe` because `k` is below
        // the stripe's live count.
        let mut rest = self.prefix(self.start[stripe]) + k;
        let len = self.fenwick.len() - 1;
        let mut slot = 0;
        let mut step = 1usize << len.ilog2();
        while step > 0 {
            let next = slot + step;
            if next <= len && (self.fenwick[next] as usize) <= rest {
                slot = next;
                rest -= self.fenwick[next] as usize;
            }
            step >>= 1;
        }
        (slot - self.start[stripe]) * self.live.len() + stripe
    }
}

/// Why [`random_regular`] could not produce a graph.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegularGenError {
    /// `n * d` is odd, so no `d`-regular graph on `n` nodes exists.
    OddStubCount {
        /// Requested node count.
        n: usize,
        /// Requested degree.
        d: u8,
    },
    /// `d >= n`, so no simple `d`-regular graph on `n` nodes exists.
    DegreeTooLarge {
        /// Requested node count.
        n: usize,
        /// Requested degree.
        d: u8,
    },
    /// Every attempted pairing contained a self-loop or parallel edge.
    /// Essentially impossible for `d <= 4`, `n >= 8`; dense corner cases
    /// (say `d = n - 1` with tiny `n`) can exhaust the budget.
    NoSimplePairing {
        /// Requested node count.
        n: usize,
        /// Requested degree.
        d: u8,
        /// Pairings tried before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for RegularGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            RegularGenError::OddStubCount { n, d } => {
                write!(f, "no {d}-regular graph on {n} nodes: n*d must be even")
            }
            RegularGenError::DegreeTooLarge { n, d } => {
                write!(
                    f,
                    "no simple {d}-regular graph on {n} nodes: d must be below n"
                )
            }
            RegularGenError::NoSimplePairing { n, d, attempts } => write!(
                f,
                "no simple {d}-regular pairing found for n = {n} within {attempts} attempts"
            ),
        }
    }
}

impl std::error::Error for RegularGenError {}

/// Pairings tried by [`random_regular`] before reporting
/// [`RegularGenError::NoSimplePairing`].
pub const REGULAR_PAIRING_ATTEMPTS: u32 = 500;

/// A random `d`-regular simple graph on `n` nodes (configuration model
/// with rejection), deterministic given `seed`.
///
/// Used for the paper's high-girth remark (Section 1.1): for any LCL, the
/// complexity on trees equals the complexity on graphs of sufficiently
/// large girth, and random regular graphs have few short cycles.
///
/// # Errors
///
/// Returns a [`RegularGenError`] if `n * d` is odd, `d >= n`, or no
/// simple pairing is found within [`REGULAR_PAIRING_ATTEMPTS`] retries
/// (essentially impossible for `d <= 4`, `n >= 8`).
pub fn random_regular(n: usize, d: u8, seed: u64) -> Result<Graph, RegularGenError> {
    if !(n * usize::from(d)).is_multiple_of(2) {
        return Err(RegularGenError::OddStubCount { n, d });
    }
    if usize::from(d) >= n {
        return Err(RegularGenError::DegreeTooLarge { n, d });
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    'attempt: for _ in 0..REGULAR_PAIRING_ATTEMPTS {
        // Pairing model: d stubs per node, matched uniformly.
        let mut stubs: Vec<usize> = (0..n)
            .flat_map(|v| std::iter::repeat_n(v, usize::from(d)))
            .collect();
        // Fisher-Yates shuffle.
        for i in (1..stubs.len()).rev() {
            let j = rng.gen_range(0..=i);
            stubs.swap(i, j);
        }
        let mut seen = std::collections::HashSet::new();
        let mut builder = GraphBuilder::new(n).with_max_degree(d);
        for pair in stubs.chunks(2) {
            let (a, b) = (pair[0], pair[1]);
            if a == b || !seen.insert((a.min(b), a.max(b))) {
                continue 'attempt; // self-loop or parallel edge: reject
            }
            builder.add_edge(a, b).expect("stub endpoints valid");
        }
        return Ok(builder.build().expect("simple pairing builds"));
    }
    Err(RegularGenError::NoSimplePairing {
        n,
        d,
        attempts: REGULAR_PAIRING_ATTEMPTS,
    })
}

/// A `d`-dimensional toroidal grid with side lengths `dims` (`d = dims.len()`).
///
/// Port convention: port `2k` points in the `+k` direction, port `2k + 1`
/// in the `-k` direction. This is the canonical orientation used by the
/// oriented-grid model of Section 5: the edge labeled with dimension `k`
/// leaves through port `2k` and arrives through port `2k + 1`.
///
/// Node ids are mixed-radix: coordinate `(c_0, ..., c_{d-1})` has id
/// `c_0 + dims[0] * (c_1 + dims[1] * (...))`.
///
/// # Panics
///
/// Panics if any side length is `< 3` (sides of 1 or 2 would create
/// self-loops or parallel edges) or `dims` is empty.
pub fn torus(dims: &[usize]) -> Graph {
    assert!(!dims.is_empty(), "torus needs at least one dimension");
    assert!(
        dims.iter().all(|&s| s >= 3),
        "torus side lengths must be at least 3"
    );
    let n: usize = dims.iter().product();
    let d = dims.len();
    let mut adj = vec![Vec::with_capacity(2 * d); n];
    #[allow(clippy::needless_range_loop)] // index drives several arrays
    for v in 0..n {
        let coords = torus_coords(dims, v);
        for k in 0..d {
            let mut plus = coords.clone();
            plus[k] = (plus[k] + 1) % dims[k];
            let mut minus = coords.clone();
            minus[k] = (minus[k] + dims[k] - 1) % dims[k];
            adj[v].push(torus_id(dims, &plus));
            adj[v].push(torus_id(dims, &minus));
        }
    }
    Graph::from_adjacency(&adj).expect("torus adjacency is valid")
}

/// A non-wrapping (open) `d`-dimensional grid with side lengths `dims`:
/// the oriented-grid model without the toroidal wrap (the paper proves
/// Theorem 5.1 for toroidal grids and conjectures the same for open
/// ones). Ports: the edges incident to a node are ordered `+0, -0, +1,
/// -1, ...` with missing directions skipped, so port numbers vary at the
/// boundary.
///
/// # Panics
///
/// Panics if `dims` is empty or any side is `< 2`.
pub fn grid_open(dims: &[usize]) -> Graph {
    assert!(!dims.is_empty(), "grid needs at least one dimension");
    assert!(
        dims.iter().all(|&s| s >= 2),
        "grid sides must be at least 2"
    );
    let n: usize = dims.iter().product();
    let d = dims.len();
    let mut adj = vec![Vec::new(); n];
    #[allow(clippy::needless_range_loop)] // index drives several arrays
    for v in 0..n {
        let coords = torus_coords(dims, v);
        for k in 0..d {
            if coords[k] + 1 < dims[k] {
                let mut plus = coords.clone();
                plus[k] += 1;
                adj[v].push(torus_id(dims, &plus));
            }
            if coords[k] > 0 {
                let mut minus = coords.clone();
                minus[k] -= 1;
                adj[v].push(torus_id(dims, &minus));
            }
        }
    }
    Graph::from_adjacency(&adj).expect("open grid adjacency is valid")
}

/// The coordinates of node `v` in a torus built by [`torus`].
pub fn torus_coords(dims: &[usize], v: usize) -> Vec<usize> {
    let mut rest = v;
    dims.iter()
        .map(|&s| {
            let c = rest % s;
            rest /= s;
            c
        })
        .collect()
}

/// The node id of coordinates `coords` in a torus built by [`torus`].
pub fn torus_id(dims: &[usize], coords: &[usize]) -> usize {
    let mut id = 0usize;
    for k in (0..dims.len()).rev() {
        id = id * dims[k] + coords[k];
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_and_spider_shapes() {
        let s = star(5);
        assert_eq!(s.degree(NodeId(0)), 5);
        assert!(s.is_tree());
        let sp = spider(3, 4);
        assert_eq!(sp.node_count(), 13);
        assert_eq!(sp.degree(NodeId(0)), 3);
        assert!(sp.is_tree());
    }

    #[test]
    fn complete_tree_counts() {
        let t = complete_tree(2, 3);
        assert_eq!(t.node_count(), 15);
        assert!(t.is_tree());
        assert_eq!(t.max_degree(), 3);
        let single = complete_tree(5, 0);
        assert_eq!(single.node_count(), 1);
    }

    #[test]
    fn caterpillar_counts() {
        let c = caterpillar(4, 2);
        assert_eq!(c.node_count(), 12);
        assert!(c.is_tree());
        assert_eq!(c.max_degree(), 4);
    }

    #[test]
    fn random_tree_is_tree_and_bounded() {
        // 200 000 nodes is out of reach of the quadratic scan the
        // generator replaced, so this also guards its cost.
        for (n, max_degree) in [(64, 4), (200_000, 3)] {
            for seed in 0..5 {
                let t = random_tree(n, max_degree, seed);
                assert_eq!(t.node_count(), n);
                assert!(t.is_tree());
                assert!(t.max_degree() <= max_degree);
            }
        }
    }

    #[test]
    fn random_tree_is_deterministic() {
        assert_eq!(random_tree(50, 3, 7), random_tree(50, 3, 7));
    }

    #[test]
    fn random_forest_components() {
        let f = random_forest(60, 5, 4, 3);
        assert!(f.is_forest());
        let (_, k) = f.components();
        assert_eq!(k, 5);
    }

    /// The quadratic generator [`random_forest`] replaced: for each node
    /// it rescans every earlier node of its stripe for spare degree, so it
    /// is the oracle for the pool's draws.
    fn reference_forest(n: usize, components: usize, max_degree: u8, seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n).with_max_degree(max_degree);
        let mut degree = vec![0u32; n];
        let mut candidates = Vec::new();
        for v in components..n {
            candidates.clear();
            let mut u = v % components;
            while u < v {
                if degree[u] < u32::from(max_degree) {
                    candidates.push(u);
                }
                u += components;
            }
            assert!(!candidates.is_empty(), "degree bound too small");
            let u = candidates[rng.gen_range(0..candidates.len())];
            b.add_edge(u, v).unwrap();
            degree[u] += 1;
            degree[v] += 1;
        }
        b.build().unwrap()
    }

    #[test]
    fn tree_fits_matches_what_the_reference_can_grow() {
        assert!(!tree_fits(0, 5));
        for n in 1..=6 {
            for max_degree in 0..=3 {
                let grown = std::panic::catch_unwind(|| reference_forest(n, 1, max_degree, 7));
                assert_eq!(
                    tree_fits(n, max_degree),
                    grown.is_ok(),
                    "n={n} max_degree={max_degree}"
                );
            }
        }
    }

    #[test]
    fn random_tree_matches_the_quadratic_reference() {
        for n in [1, 2, 3, 50, 1000, 5000] {
            for max_degree in (0..=5).filter(|&d| tree_fits(n, d)) {
                for seed in 0..20 {
                    assert_eq!(
                        random_tree(n, max_degree, seed),
                        reference_forest(n, 1, max_degree, seed),
                        "n={n} max_degree={max_degree} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_forest_matches_the_quadratic_reference() {
        for n in [1usize, 2, 3, 50, 1000] {
            for components in [1, 3, 12, n] {
                if components > n {
                    continue;
                }
                for max_degree in (0..=5).filter(|&d| tree_fits(n.div_ceil(components), d)) {
                    for seed in 0..20 {
                        assert_eq!(
                            random_forest(n, components, max_degree, seed),
                            reference_forest(n, components, max_degree, seed),
                            "n={n} components={components} max_degree={max_degree} seed={seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn path_matches_explicit_adjacency() {
        for n in [1usize, 2, 3, 1000] {
            let adj: Vec<Vec<usize>> = (0..n)
                .map(|v| {
                    let mut l = Vec::new();
                    if v > 0 {
                        l.push(v - 1);
                    }
                    if v + 1 < n {
                        l.push(v + 1);
                    }
                    l
                })
                .collect();
            assert_eq!(path(n), Graph::from_adjacency(&adj).unwrap(), "n={n}");
        }
    }

    #[test]
    fn torus_structure() {
        let g = torus(&[4, 3]);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 24);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn torus_port_convention() {
        let dims = [5, 4];
        let g = torus(&dims);
        for v in g.nodes() {
            let coords = torus_coords(&dims, v.index());
            for k in 0..dims.len() {
                // +k neighbor through port 2k.
                let mut plus = coords.clone();
                plus[k] = (plus[k] + 1) % dims[k];
                let h = g.half_edge(v, (2 * k) as u8);
                assert_eq!(g.neighbor(h).index(), torus_id(&dims, &plus));
                // The twin arrives at port 2k + 1.
                assert_eq!(g.port_of(g.twin(h)), (2 * k + 1) as u8);
            }
        }
    }

    #[test]
    fn open_grid_structure() {
        let g = grid_open(&[4, 3]);
        assert_eq!(g.node_count(), 12);
        // Edges: 3 * 3 (rows) + 4 * 2 (columns) = 17.
        assert_eq!(g.edge_count(), 17);
        // Corner degree 2, interior degree 4.
        let corner = NodeId(0);
        assert_eq!(g.degree(corner), 2);
        let interior = NodeId(torus_id(&[4, 3], &[1, 1]) as u32);
        assert_eq!(g.degree(interior), 4);
        assert_eq!(g.girth(), Some(4));
    }

    #[test]
    fn torus_coords_roundtrip() {
        let dims = [3, 5, 4];
        for v in 0..60 {
            assert_eq!(torus_id(&dims, &torus_coords(&dims, v)), v);
        }
    }

    #[test]
    fn random_regular_is_regular_and_simple() {
        for seed in 0..4 {
            let g = random_regular(24, 3, seed).unwrap();
            assert_eq!(g.node_count(), 24);
            for v in g.nodes() {
                assert_eq!(g.degree(v), 3, "seed {seed}");
            }
            // Simplicity is enforced by the builder; spot-check twins.
            for h in g.half_edges() {
                assert_eq!(g.twin(g.twin(h)), h);
            }
        }
    }

    #[test]
    fn random_regular_often_has_decent_girth() {
        // Random cubic graphs rarely have triangles; find a seed with
        // girth at least 5 quickly (the high-girth experiments do the
        // same search).
        let found = (0..50).any(|seed| {
            random_regular(32, 3, seed)
                .unwrap()
                .girth()
                .is_some_and(|g| g >= 5)
        });
        assert!(found);
    }

    #[test]
    fn random_regular_rejects_odd_products() {
        assert_eq!(
            random_regular(9, 3, 0),
            Err(RegularGenError::OddStubCount { n: 9, d: 3 })
        );
    }

    #[test]
    fn random_regular_rejects_excessive_degree() {
        assert_eq!(
            random_regular(3, 4, 0),
            Err(RegularGenError::DegreeTooLarge { n: 3, d: 4 })
        );
    }

    #[test]
    fn random_regular_reports_exhausted_pairings() {
        // d = n - 1 demands the pairing produce exactly K_n; at n = 8 a
        // uniform pairing is simple with probability ≈ e^{-12}, so the
        // 500-attempt budget is (deterministically, given the seed)
        // exhausted rather than aborting the process.
        assert_eq!(
            random_regular(8, 7, 0),
            Err(RegularGenError::NoSimplePairing {
                n: 8,
                d: 7,
                attempts: REGULAR_PAIRING_ATTEMPTS,
            })
        );
        // The modestly dense case still succeeds well within budget.
        assert!(random_regular(4, 3, 1).is_ok());
    }

    #[test]
    fn from_adjacency_rejects_asymmetry() {
        let adj = vec![vec![1], vec![]];
        assert!(Graph::from_adjacency(&adj).is_err());
    }

    #[test]
    fn from_adjacency_rejects_self_loop() {
        let adj = vec![vec![0]];
        assert!(matches!(
            Graph::from_adjacency(&adj),
            Err(BuildError::SelfLoop { node: 0 })
        ));
    }

    #[test]
    fn from_adjacency_handles_parallel_edges() {
        // Two nodes joined by a double edge (as in a side-2 torus ring).
        let adj = vec![vec![1, 1], vec![0, 0]];
        let g = Graph::from_adjacency(&adj).unwrap();
        assert_eq!(g.edge_count(), 2);
        for h in g.half_edges() {
            assert_eq!(g.twin(g.twin(h)), h);
            assert_eq!(g.edge_of(g.twin(h)), g.edge_of(h));
        }
    }
}
