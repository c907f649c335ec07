//! Tracing and metrics for every model simulator — the repository's
//! observability substrate.
//!
//! The paper's gap theorems are claims about *executions*: how many
//! rounds a LOCAL view expands (Theorems 3.10/3.11), how many probes a
//! VOLUME query spends (Theorems 4.1/4.3), how fast the derived label
//! universes grow under round elimination. This crate gives every
//! simulator and pipeline one shared vocabulary for recording exactly
//! those measures:
//!
//! * [`Counter`] — the typed counter taxonomy (rounds, probes, messages,
//!   view radii, memo traffic, labels interned, ...). A closed enum, so
//!   counter names cannot drift between crates.
//! * [`Span`] / [`SpanRecord`] — hierarchical spans with wall-clock
//!   timing. A [`Span`] is open and mutable; [`Span::finish`] seals it
//!   into an immutable [`SpanRecord`] that can be nested under a parent.
//! * [`Trace`] — a finished span tree. Renders to a wall-clock-free
//!   canonical form ([`Trace::fingerprint`]) used to assert that
//!   parallel and sequential executions record identical counters;
//!   [`export`] renders it for external tools.
//! * [`Registry`] — a thread-safe collection of labeled traces; the
//!   bench harness drains one into `BENCH_obs.json`.
//! * [`RunReport`] — the uniform return type of every instrumented
//!   simulator entrypoint: the model-specific outcome plus the trace of
//!   the execution that produced it, and optionally the event log that
//!   recorded it at event granularity.
//! * [`Event`] / [`EventLog`] — opt-in event sourcing: a bounded,
//!   thread-safe ring buffer of typed events (round boundaries, probes,
//!   view materializations, memo traffic, finished RE levels) with a
//!   sampling knob. The default is *off* and costs one branch.
//! * [`Histogram`] — per-span distributions (probe counts per query,
//!   view sizes per node) with deterministic power-of-two buckets and
//!   quantile estimates.
//! * [`CostModel`] / [`CostKind`] — deterministic operation counts
//!   folded from the event stream: the wall-clock-free cost metric the
//!   curve-fit harness regresses against theory (`lcl_bench::curves`).
//! * [`export`] — Chrome trace-event JSON, flamegraph folded stacks,
//!   and Prometheus-style text exposition.
//!
//! # Determinism contract
//!
//! Wall-clock time is the *only* nondeterministic quantity a trace may
//! contain. Counter values must be pure functions of the simulated
//! execution — never of thread scheduling — so that
//! [`Trace::fingerprint`] is bit-identical across thread counts. The
//! `tests/observability.rs` suite enforces this for every instrumented
//! subsystem.
//!
//! # Example
//!
//! ```
//! use lcl_obs::{Counter, Span, Trace};
//!
//! let mut root = Span::start("local/cole-vishkin");
//! root.set(Counter::Nodes, 128);
//! let mut step = Span::start("color-reduction");
//! step.set(Counter::Rounds, 3);
//! root.record(step.finish());
//! let trace = Trace::new(root.finish());
//! assert_eq!(trace.total(Counter::Rounds), 3);
//! assert!(trace.fingerprint().contains("color-reduction rounds=3"));
//! ```

pub mod cost;
pub mod counter;
pub mod event;
pub mod export;
pub mod histogram;
pub mod json;
pub mod registry;
pub mod trace;

pub use cost::{CostKind, CostModel};
pub use counter::Counter;
pub use event::{Event, EventLog};
pub use histogram::Histogram;
pub use registry::Registry;
pub use trace::{Span, SpanRecord, Trace};

use std::sync::Arc;

/// The uniform result of an instrumented simulator run: the
/// model-specific outcome plus the execution trace.
///
/// Every model entrypoint (`local::simulate_with`,
/// `volume::simulate_with`, `volume::simulate_lca_with`,
/// `grid::simulate_with`) returns one of these. When the run was
/// event-logged, the log rides along and [`RunReport::events`] exposes
/// it.
#[derive(Clone, Debug)]
pub struct RunReport<T> {
    /// The model-specific run result (labeling, rounds, probes, ...).
    pub outcome: T,
    /// The trace of the execution that produced the outcome.
    pub trace: Trace,
    events: Option<Arc<EventLog>>,
}

impl<T> RunReport<T> {
    /// Pairs an outcome with its trace.
    pub fn new(outcome: T, trace: Trace) -> Self {
        Self {
            outcome,
            trace,
            events: None,
        }
    }

    /// Pairs an outcome with its trace and the event log that recorded
    /// the run.
    pub fn with_events(outcome: T, trace: Trace, events: Arc<EventLog>) -> Self {
        Self {
            outcome,
            trace,
            events: Some(events),
        }
    }

    /// The event log attached to this run, if logging was enabled.
    pub fn events(&self) -> Option<&EventLog> {
        self.events.as_deref()
    }

    /// The deterministic cost model of the run, folded from the
    /// attached event log — `None` when the run was not event-logged.
    /// Counts are exact even when the log sampled or evicted events.
    pub fn cost_model(&self) -> Option<CostModel> {
        self.events.as_deref().map(EventLog::cost_model)
    }

    /// Mean per-node work (probes issued plus view nodes touched) of
    /// the run — the node-averaged complexity axis. `None` when the run
    /// was not event-logged or no event carried a node id.
    pub fn node_averaged_cost(&self) -> Option<f64> {
        self.cost_model().and_then(|cost| cost.node_averaged())
    }

    /// Maps the outcome, keeping the trace and event log.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> RunReport<U> {
        RunReport {
            outcome: f(self.outcome),
            trace: self.trace,
            events: self.events,
        }
    }

    /// Splits the report into its parts (dropping any event log).
    pub fn into_parts(self) -> (T, Trace) {
        (self.outcome, self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_report_maps_outcome_and_keeps_trace() {
        let mut span = Span::start("root");
        span.set(Counter::Probes, 5);
        let report = RunReport::new(2usize, Trace::new(span.finish()));
        assert!(report.events().is_none());
        let mapped = report.map(|n| n * 10);
        assert_eq!(mapped.outcome, 20);
        assert_eq!(mapped.trace.total(Counter::Probes), 5);
    }

    #[test]
    fn run_report_carries_an_event_log() {
        let log = Arc::new(EventLog::new(4));
        log.record(Event::MemoLookup { hit: true });
        let report =
            RunReport::with_events((), Trace::new(Span::start("r").finish()), Arc::clone(&log));
        assert_eq!(report.events().map(EventLog::len), Some(1));
        let mapped = report.map(|()| 1u8);
        assert_eq!(mapped.events().map(EventLog::len), Some(1));
    }

    #[test]
    fn run_report_surfaces_cost_and_node_averages() {
        let plain = RunReport::new((), Trace::new(Span::start("r").finish()));
        assert!(plain.cost_model().is_none());
        assert!(plain.node_averaged_cost().is_none());

        let log = Arc::new(EventLog::new(4));
        log.record(Event::Probe {
            query: 1,
            j: 0,
            port: 0,
        });
        log.record(Event::Probe {
            query: 1,
            j: 1,
            port: 1,
        });
        log.record(Event::Probe {
            query: 2,
            j: 0,
            port: 0,
        });
        let report =
            RunReport::with_events((), Trace::new(Span::start("r").finish()), Arc::clone(&log));
        let cost = report.cost_model().expect("log attached");
        assert_eq!(cost.get(CostKind::Probe), 3);
        assert_eq!(report.node_averaged_cost(), Some(1.5));
    }
}
