//! Distribution counters with deterministic power-of-two buckets.
//!
//! Totals hide shape: "400 probes over 100 queries" could be a uniform
//! 4-per-query or one pathological 301-probe query. A [`Histogram`]
//! keeps the distribution — observed values land in buckets with fixed
//! boundaries `0, 1, 2, 4, 8, ...` (bucket `i ≥ 1` covers
//! `[2^(i-1), 2^i - 1]`), so the rendering is a pure function of the
//! multiset of observations. Order of observation never matters, which
//! keeps [`Trace::fingerprint`](crate::Trace::fingerprint)
//! scheduling-independent when histograms are attached to spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A bucketed distribution of `u64` observations.
///
/// Buckets are powers of two: bucket 0 holds exactly the value 0 and
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i - 1]`. Boundaries are
/// fixed at the type level — merging or re-observing in any order yields
/// the identical histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket index → count. Sparse: only non-empty buckets are stored.
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`.
    fn bucket_index(value: u64) -> u32 {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros()
        }
    }

    /// Inclusive upper bound of a bucket (`0, 1, 3, 7, 15, ...`).
    pub fn bucket_upper_bound(index: u32) -> u64 {
        if index == 0 {
            0
        } else if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        *self.buckets.entry(Self::bucket_index(value)).or_insert(0) += 1;
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .map(|(&i, &c)| (Self::bucket_upper_bound(i), c))
    }

    /// Quantile estimate: the inclusive upper bound of the bucket
    /// containing the `ceil(q·count)`-th smallest observation (1-based),
    /// or `None` when the histogram is empty. Since only bucket
    /// membership survives observation, the estimate rounds *up* to the
    /// bucket boundary — p50 of `[1, 2, 3]` reports 3, the top of the
    /// `[2, 3]` bucket. `q` is clamped to `[0, 1]`; `q = 0` reports the
    /// smallest bucket's bound.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut cumulative = 0u64;
        for (le, c) in self.buckets() {
            cumulative += c;
            if cumulative >= rank {
                return Some(le);
            }
        }
        // Unreachable in practice: the buckets always sum to `count`.
        None
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (&i, &c) in &other.buckets {
            *self.buckets.entry(i).or_insert(0) += c;
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Canonical one-line rendering used inside trace fingerprints:
    /// `[le0:c0 le1:c1 ...]|count|sum`.
    pub fn fingerprint(&self) -> String {
        let mut out = String::from("[");
        for (i, (le, c)) in self.buckets().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{le}:{c}");
        }
        let _ = write!(out, "]|{}|{}", self.count, self.sum);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        let pairs = [
            (0u64, 0u64),
            (1, 1),
            (2, 3),
            (3, 3),
            (4, 7),
            (7, 7),
            (8, 15),
            (1023, 1023),
            (1024, 2047),
        ];
        for (value, le) in pairs {
            let mut h = Histogram::new();
            h.observe(value);
            assert_eq!(h.buckets().next(), Some((le, 1)), "value {value}");
        }
    }

    #[test]
    fn order_of_observation_is_irrelevant() {
        let values = [0u64, 5, 17, 17, 2, 900, 1, 0];
        let mut forward = Histogram::new();
        let mut backward = Histogram::new();
        for &v in &values {
            forward.observe(v);
        }
        for &v in values.iter().rev() {
            backward.observe(v);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.fingerprint(), backward.fingerprint());
        assert_eq!(forward.count(), 8);
        assert_eq!(forward.sum(), values.iter().sum::<u64>());
    }

    #[test]
    fn merge_equals_joint_observation() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut joint = Histogram::new();
        for v in [1u64, 2, 3] {
            a.observe(v);
            joint.observe(v);
        }
        for v in [10u64, 20] {
            b.observe(v);
            joint.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, joint);
    }

    #[test]
    fn quantiles_round_up_to_bucket_boundaries() {
        assert_eq!(Histogram::new().quantile(0.5), None);

        // Values 1..=8 land in buckets le=1 (1), le=3 (2,3),
        // le=7 (4..=7), le=15 (8).
        let mut h = Histogram::new();
        for v in 1u64..=8 {
            h.observe(v);
        }
        // p50: rank ceil(0.5*8)=4 -> 4th value is 4 -> bucket le=7.
        assert_eq!(h.quantile(0.5), Some(7));
        // p90: rank ceil(0.9*8)=8 -> the 8 -> bucket le=15.
        assert_eq!(h.quantile(0.9), Some(15));
        assert_eq!(h.quantile(0.99), Some(15));
        // q=0 clamps to rank 1 -> smallest bucket.
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(1.0), Some(15));
        // Out-of-range q is clamped, not an error.
        assert_eq!(h.quantile(-3.0), Some(1));
        assert_eq!(h.quantile(42.0), Some(15));
    }

    #[test]
    fn quantile_rank_rounding_at_bucket_edges() {
        // Three observations: exactly at rank boundaries. Values 1, 2,
        // 3: p50 rank ceil(1.5)=2 -> 2 -> bucket le=3 (rounds up past
        // the true median's value to its bucket bound).
        let mut h = Histogram::new();
        for v in [1u64, 2, 3] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.5), Some(3));
        // A single observation answers every quantile with its bucket.
        let mut one = Histogram::new();
        one.observe(0);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(one.quantile(q), Some(0), "q={q}");
        }
    }

    #[test]
    fn renderings_are_stable() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 2, 5] {
            h.observe(v);
        }
        assert_eq!(h.fingerprint(), "[0:1 1:1 3:2 7:1]|5|10");
    }
}
