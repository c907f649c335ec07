//! Event-sourced execution logs.
//!
//! A [`Trace`](crate::Trace) aggregates; an [`EventLog`] remembers the
//! *sequence*. Simulators emit typed [`Event`]s — round boundaries,
//! individual probes, view materializations, memo traffic, finished
//! round-elimination levels — into a bounded, thread-safe ring buffer.
//!
//! Logging is strictly opt-in: every instrumented entrypoint takes an
//! `Option<&EventLog>` (or an `Arc<EventLog>` setter) and the default is
//! `None`, so the uninstrumented hot path pays a single branch. A
//! sampling knob (`with_sampling`) thins high-frequency streams such as
//! memo lookups without losing the totals: `seen()` always counts every
//! emission, sampled or not.
//!
//! Events never participate in [`Trace::fingerprint`](crate::Trace::fingerprint):
//! under parallel execution their interleaving is scheduling-dependent,
//! so they are a debugging/visualization stream, not a determinism
//! oracle. The order-*independent* summary of the stream — the
//! [`CostModel`] each log accumulates before its
//! sampling and capacity filters — is deterministic, and is exposed via
//! [`EventLog::cost_model`].

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::cost::CostModel;
use crate::json;

/// One thing that happened during a simulation, at event granularity.
///
/// Variants mirror the instrumented layers: the LOCAL sync executor
/// (rounds), the VOLUME/LCA probe session (probes), the LOCAL and
/// PROD-LOCAL view builders (view materializations), and the RE tower
/// (memo lookups, completed levels).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A synchronous round is about to run its send phase.
    RoundStart {
        /// Zero-based round index.
        round: u64,
    },
    /// A synchronous round finished delivering.
    RoundEnd {
        /// Zero-based round index.
        round: u64,
        /// Messages delivered during this round.
        messages: u64,
    },
    /// A probe issued through a VOLUME/LCA `ProbeSession`.
    Probe {
        /// Global id of the node answering the query.
        query: u64,
        /// Index of the probed node in the session's discovery order.
        j: u64,
        /// Port probed at that node.
        port: u8,
    },
    /// A radius-`T` view (ball or grid window) was materialized.
    ViewMaterialized {
        /// Global id (or index) of the view's center node.
        node: u64,
        /// View radius.
        radius: u64,
        /// Number of nodes in the view.
        size: u64,
    },
    /// The round-elimination node cache was consulted.
    MemoLookup {
        /// Whether the lookup hit.
        hit: bool,
    },
    /// A round-elimination level finished.
    LevelComplete {
        /// One-based level index in the tower.
        level: u64,
        /// Alphabet size after restriction/compaction.
        labels: u64,
        /// Allowed configurations at this level.
        configs: u64,
    },
    /// A fault was injected into (or caught during) a faulted run.
    Fault {
        /// Structural node index (or query index) that faulted.
        node: u64,
        /// Round at which the fault hit (0 for view-based executions).
        round: u64,
        /// Stable fault tag: `"crash-stop"`, `"panic"`, `"corrupt-view"`,
        /// `"probe-lie"`, ...
        fault: &'static str,
    },
    /// A retry supervisor is about to re-drive a failed stage.
    Retry {
        /// The supervised stage (e.g. `"re-tower/level-3"`).
        stage: String,
        /// One-based attempt number that just failed.
        attempt: u64,
        /// Deterministic backoff recorded for this retry, in
        /// milliseconds (advisory — recorded, not slept, by default).
        backoff_ms: u64,
    },
    /// A recovery checkpoint (e.g. a serialized tower snapshot) was
    /// taken and round-tripped.
    Checkpoint {
        /// The stage the checkpoint covers.
        stage: String,
        /// Completed work units captured by the checkpoint (tower
        /// levels built, rounds run, ...).
        completed: u64,
    },
    /// One shard finished one boundary-exchange superstep of a
    /// partitioned run. Tagged with the shard id so per-shard streams
    /// can be folded into one log while staying attributable; carries
    /// no cost semantics (the coordinator's round events already count
    /// the work), so merged [`CostModel`]s are bit-identical across
    /// shard and runner-thread counts.
    ShardStep {
        /// Shard id within the run's partition.
        shard: u64,
        /// Zero-based superstep index.
        superstep: u64,
        /// Messages this shard sent across shard boundaries this
        /// superstep.
        halo_messages: u64,
        /// Bytes of halo payload (message count × message size —
        /// count-derived, not measured).
        halo_bytes: u64,
    },
}

impl Event {
    /// Stable kebab-case tag for this event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RoundStart { .. } => "round-start",
            Event::RoundEnd { .. } => "round-end",
            Event::Probe { .. } => "probe",
            Event::ViewMaterialized { .. } => "view-materialized",
            Event::MemoLookup { .. } => "memo-lookup",
            Event::LevelComplete { .. } => "level-complete",
            Event::Fault { .. } => "fault",
            Event::Retry { .. } => "retry",
            Event::Checkpoint { .. } => "checkpoint",
            Event::ShardStep { .. } => "shard-step",
        }
    }

    /// One-object JSON rendering (`{"kind": ..., fields...}`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"kind\": \"{}\"", self.kind());
        match self {
            Event::RoundStart { round } => {
                let _ = write!(out, ", \"round\": {round}");
            }
            Event::RoundEnd { round, messages } => {
                let _ = write!(out, ", \"round\": {round}, \"messages\": {messages}");
            }
            Event::Probe { query, j, port } => {
                let _ = write!(out, ", \"query\": {query}, \"j\": {j}, \"port\": {port}");
            }
            Event::ViewMaterialized { node, radius, size } => {
                let _ = write!(
                    out,
                    ", \"node\": {node}, \"radius\": {radius}, \"size\": {size}"
                );
            }
            Event::MemoLookup { hit } => {
                let _ = write!(out, ", \"hit\": {hit}");
            }
            Event::LevelComplete {
                level,
                labels,
                configs,
            } => {
                let _ = write!(
                    out,
                    ", \"level\": {level}, \"labels\": {labels}, \"configs\": {configs}"
                );
            }
            Event::Fault { node, round, fault } => {
                let _ = write!(
                    out,
                    ", \"node\": {node}, \"round\": {round}, \"fault\": \"{fault}\""
                );
            }
            Event::Retry {
                stage,
                attempt,
                backoff_ms,
            } => {
                let _ = write!(
                    out,
                    ", \"stage\": {}, \"attempt\": {attempt}, \"backoff_ms\": {backoff_ms}",
                    json::quote(stage)
                );
            }
            Event::Checkpoint { stage, completed } => {
                let _ = write!(
                    out,
                    ", \"stage\": {}, \"completed\": {completed}",
                    json::quote(stage)
                );
            }
            Event::ShardStep {
                shard,
                superstep,
                halo_messages,
                halo_bytes,
            } => {
                let _ = write!(
                    out,
                    ", \"shard\": {shard}, \"superstep\": {superstep}, \
                     \"halo_messages\": {halo_messages}, \"halo_bytes\": {halo_bytes}"
                );
            }
        }
        out.push('}');
        out
    }
}

#[derive(Debug, Default)]
struct Ring {
    buf: VecDeque<Event>,
    /// Every emission, whether sampled in or not.
    seen: u64,
    /// Emissions discarded by the sampling grid before storage.
    dropped_sampling: u64,
    /// Stored events evicted by a full ring, plus emissions discarded
    /// by a zero-capacity ring.
    dropped_capacity: u64,
    /// Exact operation counts, accumulated before any filtering.
    cost: CostModel,
}

/// A bounded, thread-safe log of [`Event`]s.
///
/// The log is a ring buffer: once `capacity` events are stored, each new
/// stored event evicts the oldest ([`EventLog::dropped_capacity`] counts
/// evictions). With a sampling period `p` (see
/// [`EventLog::with_sampling`]), only every `p`-th emission is stored
/// ([`EventLog::dropped_sampling`] counts the rest); `seen()` and the
/// [`CostModel`] still count all of them. [`EventLog::dropped`] is the
/// sum of both drop classes.
///
/// All methods take `&self`; the log is safe to share across the scoped
/// worker threads used by the parallel RE engine. A poisoned lock is
/// recovered, not propagated — an event log must never turn one
/// panicking worker into a cascade.
#[derive(Debug)]
pub struct EventLog {
    inner: Mutex<Ring>,
    capacity: usize,
    sample: u64,
}

impl EventLog {
    /// A log that stores every emitted event, up to `capacity`.
    pub fn new(capacity: usize) -> Self {
        Self::with_sampling(capacity, 1)
    }

    /// A log that stores every `sample`-th emission (the first, the
    /// `sample+1`-th, ...). A `sample` of 0 is treated as 1.
    pub fn with_sampling(capacity: usize, sample: u64) -> Self {
        Self {
            inner: Mutex::new(Ring::default()),
            capacity,
            sample: sample.max(1),
        }
    }

    fn ring(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Emits one event. Counted always (in `seen()` and in the cost
    /// model); stored if it falls on the sampling grid and (ring
    /// permitting) until evicted.
    pub fn record(&self, event: Event) {
        let mut ring = self.ring();
        let index = ring.seen;
        ring.seen += 1;
        // Cost accounting sees every emission: sampling and capacity
        // thin what is *stored*, never what is *counted*.
        ring.cost.record(&event);
        if !index.is_multiple_of(self.sample) {
            ring.dropped_sampling += 1;
            return;
        }
        if self.capacity == 0 {
            ring.dropped_capacity += 1;
            return;
        }
        if ring.buf.len() == self.capacity {
            ring.buf.pop_front();
            ring.dropped_capacity += 1;
        }
        ring.buf.push_back(event);
    }

    /// Number of events currently stored.
    pub fn len(&self) -> usize {
        self.ring().buf.len()
    }

    /// Whether no events are currently stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity this log was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sampling period (1 = store everything).
    pub fn sampling(&self) -> u64 {
        self.sample
    }

    /// Total emissions, stored or not.
    pub fn seen(&self) -> u64 {
        self.ring().seen
    }

    /// Every emission not retrievable from [`EventLog::events`]: the
    /// sum of [`EventLog::dropped_sampling`] and
    /// [`EventLog::dropped_capacity`].
    pub fn dropped(&self) -> u64 {
        let ring = self.ring();
        ring.dropped_sampling + ring.dropped_capacity
    }

    /// Emissions discarded by the sampling grid (never stored at all).
    pub fn dropped_sampling(&self) -> u64 {
        self.ring().dropped_sampling
    }

    /// Stored events later evicted by a full ring, plus emissions
    /// discarded by a zero-capacity ring.
    pub fn dropped_capacity(&self) -> u64 {
        self.ring().dropped_capacity
    }

    /// The exact operation counts accumulated from every emission —
    /// unaffected by sampling or eviction, and order-independent, so
    /// bit-identical across thread counts. See [`crate::cost`].
    pub fn cost_model(&self) -> CostModel {
        self.ring().cost.clone()
    }

    /// A snapshot of the stored events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring().buf.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_up_to_capacity() {
        let log = EventLog::new(3);
        for round in 0..5 {
            log.record(Event::RoundStart { round });
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.seen(), 5);
        assert_eq!(log.dropped(), 2);
        assert_eq!(
            log.events(),
            vec![
                Event::RoundStart { round: 2 },
                Event::RoundStart { round: 3 },
                Event::RoundStart { round: 4 },
            ]
        );
    }

    #[test]
    fn sampling_thins_but_counts_everything() {
        let log = EventLog::with_sampling(100, 3);
        for round in 0..10 {
            log.record(Event::RoundStart { round });
        }
        assert_eq!(log.seen(), 10);
        assert_eq!(
            log.events(),
            vec![
                Event::RoundStart { round: 0 },
                Event::RoundStart { round: 3 },
                Event::RoundStart { round: 6 },
                Event::RoundStart { round: 9 },
            ]
        );
        // Sampled-out emissions are drops, attributed to sampling.
        assert_eq!(log.dropped_sampling(), 6);
        assert_eq!(log.dropped_capacity(), 0);
        assert_eq!(log.dropped(), 6);
    }

    #[test]
    fn drop_classes_are_attributed_separately() {
        // Capacity 2 with sampling 2: of 8 emissions, 4 are sampled
        // out, 4 are stored, 2 of those evicted.
        let log = EventLog::with_sampling(2, 2);
        for round in 0..8 {
            log.record(Event::RoundStart { round });
        }
        assert_eq!(log.seen(), 8);
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped_sampling(), 4);
        assert_eq!(log.dropped_capacity(), 2);
        assert_eq!(log.dropped(), 6);
    }

    #[test]
    fn cost_model_counts_past_sampling_and_capacity() {
        use crate::cost::CostKind;
        // A zero-capacity, heavily sampled log still counts exactly.
        let log = EventLog::with_sampling(0, 7);
        for round in 0..5 {
            log.record(Event::RoundStart { round });
            log.record(Event::RoundEnd { round, messages: 3 });
        }
        log.record(Event::Probe {
            query: 1,
            j: 0,
            port: 0,
        });
        assert_eq!(log.len(), 0);
        let cost = log.cost_model();
        assert_eq!(cost.get(CostKind::Round), 5);
        assert_eq!(cost.get(CostKind::Message), 15);
        assert_eq!(cost.get(CostKind::Probe), 1);
    }

    #[test]
    fn shared_across_threads() {
        let log = EventLog::new(1024);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        log.record(Event::MemoLookup { hit: true });
                    }
                });
            }
        });
        assert_eq!(log.len(), 400);
        assert_eq!(log.seen(), 400);
    }

    #[test]
    fn survives_a_poisoned_lock() {
        let log = EventLog::new(8);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = log.inner.lock().expect("first lock");
            panic!("poison the event log deliberately");
        }));
        assert!(result.is_err());
        log.record(Event::MemoLookup { hit: false });
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn json_covers_every_variant() {
        let events = [
            Event::RoundStart { round: 0 },
            Event::RoundEnd {
                round: 0,
                messages: 12,
            },
            Event::Probe {
                query: 7,
                j: 2,
                port: 1,
            },
            Event::ViewMaterialized {
                node: 3,
                radius: 2,
                size: 5,
            },
            Event::MemoLookup { hit: true },
            Event::LevelComplete {
                level: 1,
                labels: 4,
                configs: 9,
            },
            Event::Fault {
                node: 2,
                round: 1,
                fault: "crash-stop",
            },
            Event::Retry {
                stage: "re-tower/\"level\"-3".to_string(),
                attempt: 1,
                backoff_ms: 20,
            },
            Event::Checkpoint {
                stage: "re-tower/level-3".to_string(),
                completed: 2,
            },
            Event::ShardStep {
                shard: 3,
                superstep: 2,
                halo_messages: 5,
                halo_bytes: 40,
            },
        ];
        for event in &events {
            let json = event.to_json();
            let doc = crate::json::parse(&json).expect("every rendering is valid JSON");
            assert_eq!(
                doc.get("kind").and_then(crate::json::Value::as_str),
                Some(event.kind()),
                "{json}"
            );
        }
    }
}
