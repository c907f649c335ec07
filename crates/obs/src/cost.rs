//! Deterministic cost accounting derived from the event stream.
//!
//! Wall clocks measure machines; the paper's landscape is stated in
//! *operations* — rounds of communication, probes answered, views
//! materialized. A [`CostModel`] folds the typed [`Event`] stream into
//! per-kind operation counts ([`CostKind`]) plus a per-node work tally,
//! and nothing else: no `std::time` import is allowed in this module
//! (enforced textually by `scripts/check.sh`), so a cost is a pure
//! function of what the simulation *did*.
//!
//! Because addition is commutative, the fold is order-independent: two
//! runs that emit the same multiset of events — e.g. the parallel RE
//! engine at 1, 2, and 8 threads — produce bit-identical cost models
//! even though their event interleavings differ. That makes
//! [`CostModel::fingerprint`] a determinism oracle where the raw event
//! sequence is not (see the event-log module docs), and makes counts
//! the right quantity to regress against theory curves
//! (`lcl_bench::curves`) instead of noisy milliseconds.
//!
//! Every [`EventLog`](crate::EventLog) accumulates a `CostModel`
//! *before* its sampling and capacity filters, so the totals are exact
//! even when the ring stores almost nothing — a zero-capacity log is a
//! cheap cost-only tally:
//!
//! ```
//! use lcl_obs::{CostKind, Event, EventLog};
//!
//! let log = EventLog::new(0); // stores nothing, counts everything
//! log.record(Event::Probe { query: 3, j: 0, port: 1 });
//! log.record(Event::Probe { query: 4, j: 1, port: 0 });
//! let cost = log.cost_model();
//! assert_eq!(cost.get(CostKind::Probe), 2);
//! assert_eq!(cost.node_averaged(), Some(1.0));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::Event;

/// The typed operation classes a run is charged for.
///
/// Each kind is fed by one event variant: `Probe` by [`Event::Probe`],
/// `ViewMaterialized` by [`Event::ViewMaterialized`], `MemoLookup` by
/// [`Event::MemoLookup`], `Round` by [`Event::RoundStart`], and
/// `Message` by the `messages` total of [`Event::RoundEnd`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CostKind {
    /// Probes answered through a VOLUME/LCA probe session.
    Probe,
    /// Radius-`T` views (balls or grid windows) materialized.
    ViewMaterialized,
    /// Round-elimination memo-cache consultations.
    MemoLookup,
    /// Synchronous communication rounds executed.
    Round,
    /// Messages delivered across all rounds.
    Message,
}

impl CostKind {
    /// Every kind, in declaration order (the rendering order).
    pub const ALL: [CostKind; 5] = [
        CostKind::Probe,
        CostKind::ViewMaterialized,
        CostKind::MemoLookup,
        CostKind::Round,
        CostKind::Message,
    ];

    /// Stable kebab-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            CostKind::Probe => "probe",
            CostKind::ViewMaterialized => "view-materialized",
            CostKind::MemoLookup => "memo-lookup",
            CostKind::Round => "round",
            CostKind::Message => "message",
        }
    }
}

/// Order-independent operation counts for one run, folded from
/// [`Event`]s.
///
/// Alongside the per-kind totals the model keeps a per-node work tally
/// (probes charged to their querying node, views charged their size at
/// the view's center), which is what node-averaged complexity — the
/// distinct axis of arXiv:2405.01366 — is computed from.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostModel {
    counts: [u64; CostKind::ALL.len()],
    per_node: BTreeMap<u64, u64>,
}

impl CostModel {
    /// An empty model (all counts zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds every event of `events` into a fresh model.
    pub fn from_events(events: &[Event]) -> Self {
        let mut model = Self::new();
        for event in events {
            model.record(event);
        }
        model
    }

    /// Charges one event to the model. Events that carry no cost
    /// semantics (faults, retries, checkpoints, level completions,
    /// round ends beyond their message total) are ignored.
    pub fn record(&mut self, event: &Event) {
        match event {
            Event::Probe { query, .. } => {
                self.add(CostKind::Probe, 1);
                *self.per_node.entry(*query).or_insert(0) += 1;
            }
            Event::ViewMaterialized { node, size, .. } => {
                self.add(CostKind::ViewMaterialized, 1);
                *self.per_node.entry(*node).or_insert(0) += size;
            }
            Event::MemoLookup { .. } => self.add(CostKind::MemoLookup, 1),
            Event::RoundStart { .. } => self.add(CostKind::Round, 1),
            Event::RoundEnd { messages, .. } => self.add(CostKind::Message, *messages),
            Event::LevelComplete { .. }
            | Event::Fault { .. }
            | Event::Retry { .. }
            | Event::Checkpoint { .. }
            | Event::ShardStep { .. } => {}
        }
    }

    fn add(&mut self, kind: CostKind, amount: u64) {
        let slot = &mut self.counts[kind as usize];
        *slot = slot.saturating_add(amount);
    }

    /// Total for one operation class.
    pub fn get(&self, kind: CostKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Sum over all operation classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().fold(0u64, |a, &v| a.saturating_add(v))
    }

    /// Whether nothing has been charged yet.
    pub fn is_empty(&self) -> bool {
        self.total() == 0 && self.per_node.is_empty()
    }

    /// Distinct nodes that were charged per-node work.
    pub fn node_count(&self) -> usize {
        self.per_node.len()
    }

    /// Total per-node work (probes issued plus view nodes touched).
    pub fn node_total(&self) -> u64 {
        self.per_node
            .values()
            .fold(0u64, |a, &v| a.saturating_add(v))
    }

    /// Mean per-node work across the charged nodes, or `None` when no
    /// event carried a node id. This is the run's node-averaged cost.
    pub fn node_averaged(&self) -> Option<f64> {
        if self.per_node.is_empty() {
            return None;
        }
        Some(self.node_total() as f64 / self.per_node.len() as f64)
    }

    /// Adds every count of `other` into `self` (per-node tallies merge
    /// by node id).
    pub fn merge(&mut self, other: &CostModel) {
        for kind in CostKind::ALL {
            self.add(kind, other.get(kind));
        }
        for (&node, &work) in &other.per_node {
            *self.per_node.entry(node).or_insert(0) += work;
        }
    }

    /// A deterministic one-line rendering of every count:
    /// `[probe:0 view-materialized:0 ...]|nodes:0|node-work:0`.
    /// Bit-identical across runs emitting the same event multiset.
    pub fn fingerprint(&self) -> String {
        let mut out = String::from("[");
        for (i, kind) in CostKind::ALL.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{}:{}", kind.as_str(), self.get(*kind));
        }
        let _ = write!(
            out,
            "]|nodes:{}|node-work:{}",
            self.node_count(),
            self.node_total()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RoundStart { round: 0 },
            Event::RoundEnd {
                round: 0,
                messages: 6,
            },
            Event::RoundStart { round: 1 },
            Event::RoundEnd {
                round: 1,
                messages: 4,
            },
            Event::Probe {
                query: 7,
                j: 0,
                port: 0,
            },
            Event::Probe {
                query: 7,
                j: 1,
                port: 1,
            },
            Event::Probe {
                query: 9,
                j: 0,
                port: 0,
            },
            Event::ViewMaterialized {
                node: 3,
                radius: 2,
                size: 5,
            },
            Event::MemoLookup { hit: true },
            Event::MemoLookup { hit: false },
            // Cost-free events.
            Event::LevelComplete {
                level: 1,
                labels: 2,
                configs: 3,
            },
            Event::Retry {
                stage: "s".to_string(),
                attempt: 1,
                backoff_ms: 1,
            },
            Event::ShardStep {
                shard: 0,
                superstep: 0,
                halo_messages: 9,
                halo_bytes: 72,
            },
        ]
    }

    #[test]
    fn counts_map_events_to_kinds() {
        let cost = CostModel::from_events(&sample_events());
        assert_eq!(cost.get(CostKind::Round), 2);
        assert_eq!(cost.get(CostKind::Message), 10);
        assert_eq!(cost.get(CostKind::Probe), 3);
        assert_eq!(cost.get(CostKind::ViewMaterialized), 1);
        assert_eq!(cost.get(CostKind::MemoLookup), 2);
        assert_eq!(cost.total(), 18);
    }

    #[test]
    fn node_averaging_covers_probes_and_view_sizes() {
        let cost = CostModel::from_events(&sample_events());
        // Node 7: two probes; node 9: one probe; node 3: a 5-node view.
        assert_eq!(cost.node_count(), 3);
        assert_eq!(cost.node_total(), 8);
        assert_eq!(cost.node_averaged(), Some(8.0 / 3.0));
        assert_eq!(CostModel::new().node_averaged(), None);
    }

    #[test]
    fn fold_is_order_independent() {
        let events = sample_events();
        let forward = CostModel::from_events(&events);
        let mut reversed = events.clone();
        reversed.reverse();
        let backward = CostModel::from_events(&reversed);
        assert_eq!(forward, backward);
        assert_eq!(forward.fingerprint(), backward.fingerprint());
    }

    #[test]
    fn merge_adds_counts_and_tallies() {
        let mut a = CostModel::from_events(&sample_events());
        let b = CostModel::from_events(&sample_events());
        a.merge(&b);
        assert_eq!(a.get(CostKind::Probe), 6);
        assert_eq!(a.node_total(), 16);
        assert_eq!(a.node_count(), 3, "merging the same nodes adds work");
    }

    #[test]
    fn json_and_fingerprint_cover_every_kind() {
        let cost = CostModel::from_events(&sample_events());
        for kind in CostKind::ALL {
            assert!(cost.fingerprint().contains(kind.as_str()));
        }
    }
}
