//! Identifier assignments from a polynomial range (Definition 2.1 equips
//! deterministic algorithms with globally unique identifiers).

use std::borrow::Cow;

use lcl_faults::FaultPlan;
use lcl_rng::SmallRng;

use lcl_graph::NodeId;

/// An assignment of globally unique identifiers to the nodes of a graph.
///
/// # Examples
///
/// ```
/// use lcl_local::IdAssignment;
///
/// let ids = IdAssignment::random_polynomial(10, 3, 42);
/// assert_eq!(ids.len(), 10);
/// // Identifiers are unique and bounded by n^3.
/// assert!(ids.iter().all(|id| id < 1000));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IdAssignment {
    ids: Vec<u64>,
}

impl IdAssignment {
    /// Identifiers `0, 1, ..., n - 1` in node order.
    pub fn sequential(n: usize) -> Self {
        Self {
            ids: (0..n as u64).collect(),
        }
    }

    /// Unique identifiers drawn uniformly from `[0, n^exponent)`;
    /// deterministic given `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n^exponent` overflows `u64` or is smaller than `n`.
    pub fn random_polynomial(n: usize, exponent: u32, seed: u64) -> Self {
        let range = (n as u64)
            .checked_pow(exponent)
            .expect("why: documented precondition — n^exponent must fit in u64");
        assert!(range >= n as u64, "id range must accommodate n unique ids");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut set = std::collections::HashSet::with_capacity(n);
        let mut ids = Vec::with_capacity(n);
        while ids.len() < n {
            let candidate = rng.gen_range(0..range);
            if set.insert(candidate) {
                ids.push(candidate);
            }
        }
        Self { ids }
    }

    /// An explicit assignment.
    ///
    /// # Panics
    ///
    /// Panics if the identifiers are not unique.
    pub fn from_vec(ids: Vec<u64>) -> Self {
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "identifiers must be unique");
        Self { ids }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the assignment is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The identifier of node `v`.
    #[inline]
    pub fn id(&self, v: NodeId) -> u64 {
        self.ids[v.index()]
    }

    /// Iterator over identifiers in node order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.ids.iter().copied()
    }

    /// The rank (0-based position in sorted order) of each node's
    /// identifier — what an order-invariant algorithm is allowed to see.
    pub fn ranks(&self) -> Vec<u32> {
        let mut order: Vec<usize> = (0..self.ids.len()).collect();
        order.sort_by_key(|&i| self.ids[i]);
        let mut ranks = vec![0u32; self.ids.len()];
        for (rank, &i) in order.iter().enumerate() {
            ranks[i] = rank as u32;
        }
        ranks
    }

    /// The same identifier multiset dealt to different nodes: node `v`
    /// receives the identifier previously held by node `perm[v]`. This
    /// is how fault plans realize adversarial ID permutations
    /// (Definition 2.1 quantifies over *all* assignments; a permutation
    /// explores that quantifier without changing the id range).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..len`.
    pub fn permuted(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.ids.len(), "permutation covers the nodes");
        let ids: Vec<u64> = perm.iter().map(|&i| self.ids[i]).collect();
        // `from_vec` re-checks uniqueness, which fails on a non-bijection.
        Self::from_vec(ids)
    }

    /// The assignment a run under `plan` sees: [`permuted`](Self::permuted)
    /// by the plan's adversarial permutation when it asks for one, else
    /// `self` unchanged.
    pub fn under(&self, plan: Option<&FaultPlan>) -> Cow<'_, Self> {
        match ids_under(&self.ids, plan) {
            Cow::Owned(ids) => Cow::Owned(Self { ids }),
            Cow::Borrowed(_) => Cow::Borrowed(self),
        }
    }

    /// A fresh assignment with the same relative order but different
    /// values: each identifier is replaced by a random value preserving
    /// ranks. Used by the empirical order-invariance checker.
    pub fn resample_order_preserving(&self, exponent: u32, seed: u64) -> Self {
        let n = self.ids.len();
        if n == 0 {
            return Self { ids: Vec::new() };
        }
        let range = (n as u64)
            .checked_pow(exponent)
            .expect("why: documented precondition — n^exponent must fit in u64");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut fresh: Vec<u64> = Vec::with_capacity(n);
        let mut set = std::collections::HashSet::with_capacity(n);
        while fresh.len() < n {
            let candidate = rng.gen_range(0..range);
            if set.insert(candidate) {
                fresh.push(candidate);
            }
        }
        fresh.sort_unstable();
        let ranks = self.ranks();
        let ids = ranks.iter().map(|&r| fresh[r as usize]).collect();
        Self { ids }
    }
}

/// [`IdAssignment::under`] for a plain id slice, as the sync executors
/// take their ids: the plan's permutation applied to the whole slice
/// when the plan asks for one, else the slice borrowed unchanged.
///
/// # Panics
///
/// Panics if the plan permutes and the identifiers are not unique.
pub fn ids_under<'a>(ids: &'a [u64], plan: Option<&FaultPlan>) -> Cow<'a, [u64]> {
    match plan.and_then(|p| p.permutation(ids.len())) {
        Some(perm) => {
            Cow::Owned(IdAssignment::from_vec(perm.iter().map(|&i| ids[i]).collect()).ids)
        }
        None => Cow::Borrowed(ids),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_plan_permutes_only_when_it_asks_to() {
        let ids = IdAssignment::from_vec(vec![10, 20, 30, 40, 50]);
        assert!(matches!(ids.under(None), Cow::Borrowed(_)));
        let quiet = FaultPlan::new(3);
        assert!(matches!(ids.under(Some(&quiet)), Cow::Borrowed(_)));
        let shuffle = FaultPlan::new(3).with_permuted_ids();
        let perm = shuffle.permutation(5).expect("asked for");
        assert_eq!(*ids.under(Some(&shuffle)), ids.permuted(&perm));

        let slice: Vec<u64> = ids.iter().collect();
        assert!(matches!(ids_under(&slice, None), Cow::Borrowed(_)));
        assert!(matches!(ids_under(&slice, Some(&quiet)), Cow::Borrowed(_)));
        let moved: Vec<u64> = ids.permuted(&perm).iter().collect();
        assert_eq!(*ids_under(&slice, Some(&shuffle)), moved[..]);
    }

    #[test]
    fn sequential_ids() {
        let ids = IdAssignment::sequential(4);
        assert_eq!(ids.id(NodeId(2)), 2);
        assert_eq!(ids.ranks(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn random_ids_are_unique_and_bounded() {
        let ids = IdAssignment::random_polynomial(100, 3, 7);
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), 100);
        assert!(ids.iter().all(|id| id < 1_000_000));
    }

    #[test]
    fn random_ids_are_deterministic() {
        assert_eq!(
            IdAssignment::random_polynomial(50, 3, 9),
            IdAssignment::random_polynomial(50, 3, 9)
        );
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn from_vec_rejects_duplicates() {
        let _ = IdAssignment::from_vec(vec![1, 1, 2]);
    }

    #[test]
    fn permuted_deals_the_same_ids_to_different_nodes() {
        let ids = IdAssignment::from_vec(vec![30, 10, 20]);
        let adversarial = ids.permuted(&[2, 0, 1]);
        assert_eq!(adversarial, IdAssignment::from_vec(vec![20, 30, 10]));
        let mut multiset: Vec<u64> = adversarial.iter().collect();
        multiset.sort_unstable();
        assert_eq!(multiset, vec![10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn permuted_rejects_non_bijections() {
        let _ = IdAssignment::from_vec(vec![30, 10, 20]).permuted(&[0, 0, 1]);
    }

    #[test]
    fn ranks_reflect_order() {
        let ids = IdAssignment::from_vec(vec![30, 10, 20]);
        assert_eq!(ids.ranks(), vec![2, 0, 1]);
    }

    #[test]
    fn resample_preserves_order() {
        let ids = IdAssignment::from_vec(vec![30, 10, 20]);
        let fresh = ids.resample_order_preserving(3, 11);
        assert_eq!(fresh.ranks(), ids.ranks());
        assert_eq!(fresh.len(), 3);
    }
}
