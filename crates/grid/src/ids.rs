//! Per-dimension identifier assignments of the PROD-LOCAL model
//! (Definition 5.2): node `u` holds identifiers `id_1(u), ..., id_d(u)`,
//! and `id_i(u) = id_i(v)` iff `u` and `v` share the `i`-th coordinate.

use std::borrow::Cow;

use lcl_faults::FaultPlan;
use lcl_rng::SmallRng;

use lcl_graph::NodeId;

use crate::grid::OrientedGrid;

/// An assignment of one identifier per (dimension, coordinate value).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProdIds {
    /// `per_dim[k][c]` = the identifier shared by all nodes whose `k`-th
    /// coordinate is `c`.
    per_dim: Vec<Vec<u64>>,
}

impl ProdIds {
    /// Sequential identifiers: dimension `k`, coordinate `c` gets a
    /// distinct value `k * stride + c`.
    pub fn sequential(grid: &OrientedGrid) -> Self {
        let stride = grid.dims().iter().copied().max().unwrap_or(0) as u64 + 1;
        let per_dim = grid
            .dims()
            .iter()
            .enumerate()
            .map(|(k, &s)| (0..s as u64).map(|c| k as u64 * stride + c).collect())
            .collect();
        Self { per_dim }
    }

    /// Random identifiers from `[0, n^exponent)`, unique across all
    /// dimensions; deterministic given `seed`.
    pub fn random_polynomial(grid: &OrientedGrid, exponent: u32, seed: u64) -> Self {
        let n = grid.node_count() as u64;
        let range = n
            .checked_pow(exponent)
            .expect("why: documented precondition — n^exponent must fit in u64")
            .max(grid.dims().iter().map(|&s| s as u64).sum::<u64>());
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut used = std::collections::HashSet::new();
        let per_dim = grid
            .dims()
            .iter()
            .map(|&s| {
                (0..s)
                    .map(|_| loop {
                        let candidate = rng.gen_range(0..range);
                        if used.insert(candidate) {
                            break candidate;
                        }
                    })
                    .collect()
            })
            .collect();
        Self { per_dim }
    }

    /// An explicit assignment.
    ///
    /// # Panics
    ///
    /// Panics if identifiers repeat across the whole assignment.
    pub fn from_tables(per_dim: Vec<Vec<u64>>) -> Self {
        let mut all: Vec<u64> = per_dim.iter().flatten().copied().collect();
        let len = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), len, "identifiers must be globally unique");
        Self { per_dim }
    }

    /// The identifier of coordinate `c` in dimension `k`.
    pub fn id(&self, k: usize, c: usize) -> u64 {
        self.per_dim[k][c]
    }

    /// The `d` identifiers of node `v` on `grid`.
    pub fn ids_of(&self, grid: &OrientedGrid, v: NodeId) -> Vec<u64> {
        grid.coords(v)
            .iter()
            .enumerate()
            .map(|(k, &c)| self.id(k, c))
            .collect()
    }

    /// The same per-dimension identifier tables dealt to different
    /// coordinates: in dimension `k`, coordinate `c` receives the
    /// identifier previously held by coordinate `perms[k][c]`. This is
    /// how fault plans realize adversarial ID permutations in the
    /// PROD-LOCAL model (each dimension's slice identifiers are
    /// reshuffled; the id multiset is unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `perms` does not hold one permutation of `0..dims[k]`
    /// per dimension.
    pub fn permuted(&self, perms: &[Vec<usize>]) -> Self {
        assert_eq!(
            perms.len(),
            self.per_dim.len(),
            "one permutation per dimension"
        );
        let per_dim: Vec<Vec<u64>> = self
            .per_dim
            .iter()
            .zip(perms)
            .map(|(row, perm)| {
                assert_eq!(perm.len(), row.len(), "permutation covers the dimension");
                perm.iter().map(|&c| row[c]).collect()
            })
            .collect();
        // `from_tables` re-checks global uniqueness, rejecting non-bijections.
        Self::from_tables(per_dim)
    }

    /// The assignment a run under `plan` sees: each dimension's table
    /// [`permuted`](Self::permuted) by the plan's adversarial permutation
    /// of its length when the plan asks for one, else `self` unchanged.
    pub fn under(&self, plan: Option<&FaultPlan>) -> Cow<'_, Self> {
        let perms: Option<Vec<Vec<usize>>> = plan.and_then(|p| {
            self.per_dim
                .iter()
                .map(|row| p.permutation(row.len()))
                .collect()
        });
        match perms {
            Some(perms) => Cow::Owned(self.permuted(&perms)),
            None => Cow::Borrowed(self),
        }
    }

    /// A fresh assignment with the same global relative order of all
    /// identifiers but different values (for order-invariance checks).
    pub fn resample_order_preserving(&self, seed: u64) -> Self {
        let mut all: Vec<u64> = self.per_dim.iter().flatten().copied().collect();
        let count = all.len();
        all.sort_unstable();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut fresh = std::collections::BTreeSet::new();
        while fresh.len() < count {
            fresh.insert(rng.gen::<u64>() / 2);
        }
        let fresh: Vec<u64> = fresh.into_iter().collect();
        let rank_of = |id: u64| {
            all.binary_search(&id)
                .expect("why: rank_of is only called with ids drawn from `all`")
        };
        let per_dim = self
            .per_dim
            .iter()
            .map(|row| row.iter().map(|&id| fresh[rank_of(id)]).collect())
            .collect();
        Self { per_dim }
    }

    /// Packs the `d` identifiers of each node into one globally unique
    /// identifier (the Proposition 5.3 encoding
    /// `I = Σ_i I_i · range^(i-1)`), yielding a plain LOCAL-model
    /// assignment.
    pub fn pack(&self, grid: &OrientedGrid) -> lcl_local::IdAssignment {
        let range = self.per_dim.iter().flatten().copied().max().unwrap_or(0) + 1;
        let ids = grid
            .graph()
            .nodes()
            .map(|v| {
                let mut packed: u64 = 0;
                for (k, &c) in grid.coords(v).iter().enumerate().rev() {
                    packed = packed
                        .checked_mul(range)
                        .and_then(|p| p.checked_add(self.id(k, c)))
                        .expect(
                            "why: documented precondition — the packed encoding must fit in u64",
                        );
                }
                packed
            })
            .collect();
        lcl_local::IdAssignment::from_vec(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_plan_permutes_each_dimension_only_when_it_asks_to() {
        let grid = OrientedGrid::new(&[3, 5]);
        let ids = ProdIds::sequential(&grid);
        assert!(matches!(ids.under(None), Cow::Borrowed(_)));
        assert!(matches!(
            ids.under(Some(&FaultPlan::new(4))),
            Cow::Borrowed(_)
        ));
        let shuffle = FaultPlan::new(4).with_permuted_ids();
        let perms: Vec<Vec<usize>> = grid
            .dims()
            .iter()
            .map(|&s| shuffle.permutation(s).expect("asked for"))
            .collect();
        assert_eq!(*ids.under(Some(&shuffle)), ids.permuted(&perms));
    }

    #[test]
    fn sequential_ids_are_per_coordinate() {
        let grid = OrientedGrid::new(&[3, 4]);
        let ids = ProdIds::sequential(&grid);
        let u = grid.node_at(&[1, 2]);
        let v = grid.node_at(&[1, 3]);
        // Same first coordinate => same first id; different second ids.
        assert_eq!(ids.ids_of(&grid, u)[0], ids.ids_of(&grid, v)[0]);
        assert_ne!(ids.ids_of(&grid, u)[1], ids.ids_of(&grid, v)[1]);
    }

    #[test]
    fn random_ids_are_unique_and_deterministic() {
        let grid = OrientedGrid::new(&[4, 4]);
        let a = ProdIds::random_polynomial(&grid, 3, 9);
        let b = ProdIds::random_polynomial(&grid, 3, 9);
        assert_eq!(a, b);
        let all: std::collections::HashSet<u64> = (0..2)
            .flat_map(|k| (0..4).map(move |c| (k, c)))
            .map(|(k, c)| a.id(k, c))
            .collect();
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn resample_preserves_global_order() {
        let grid = OrientedGrid::new(&[3, 3]);
        let a = ProdIds::random_polynomial(&grid, 3, 1);
        let b = a.resample_order_preserving(2);
        // Compare pairwise order of all (dim, coord) entries.
        for k1 in 0..2 {
            for c1 in 0..3 {
                for k2 in 0..2 {
                    for c2 in 0..3 {
                        assert_eq!(a.id(k1, c1) < a.id(k2, c2), b.id(k1, c1) < b.id(k2, c2));
                    }
                }
            }
        }
    }

    #[test]
    fn packed_ids_are_unique() {
        let grid = OrientedGrid::new(&[3, 5]);
        let ids = ProdIds::sequential(&grid);
        let packed = ids.pack(&grid);
        assert_eq!(packed.len(), 15);
    }

    #[test]
    #[should_panic(expected = "globally unique")]
    fn from_tables_rejects_duplicates() {
        let _ = ProdIds::from_tables(vec![vec![1, 2], vec![2, 3]]);
    }
}
