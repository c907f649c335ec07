//! One knob bundle for every simulator entrypoint.
//!
//! Every axis of a simulator run (event capture, fault injection,
//! resource budgets) is one field of [`RunOptions`], which borrows its
//! log and plan and is consumed by a single `simulate_with` entrypoint
//! per model:
//!
//! ```
//! use lcl_faults::{Budget, FaultPlan, RunOptions};
//! use lcl_obs::EventLog;
//!
//! let log = EventLog::new(1024);
//! let plan = FaultPlan::parse("plan seed=7\ncrash node=0 round=1\n")?;
//! let opts = RunOptions::new()
//!     .events(&log)
//!     .faults(&plan)
//!     .budget(Budget::unlimited().with_max_rounds(8));
//! assert!(opts.event_log().is_some());
//! assert!(opts.fault_plan().is_some());
//! assert_eq!(opts.run_budget().max_rounds, Some(8));
//! # Ok::<(), lcl_faults::PlanParseError>(())
//! ```
//!
//! Every axis defaults to *off*: `RunOptions::new()` (or
//! [`RunOptions::default()`]) reproduces the plain, unlogged, fault-free
//! run bit-for-bit. The struct is `Copy` and borrows its log and plan,
//! so handing the same options to many runs is free and leaves
//! ownership with the caller.

use lcl_obs::EventLog;

use crate::budget::Budget;
use crate::plan::FaultPlan;

/// Options for one simulator run: optional event capture, optional
/// fault injection, optional resource budget.
///
/// Consumed by the `simulate_with` entrypoint of each model crate
/// (`local`, `volume`, `grid`) and by the classification service when
/// submitting tower jobs. The default is a plain run: no events, no
/// faults, unlimited budget.
#[derive(Clone, Copy, Default)]
pub struct RunOptions<'a> {
    events: Option<&'a EventLog>,
    faults: Option<&'a FaultPlan>,
    budget: Option<Budget>,
    shards: Option<usize>,
    io_timeout_ms: Option<u64>,
}

impl<'a> RunOptions<'a> {
    /// A plain run: no event capture, no faults, unlimited budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Streams [`lcl_obs::Event`]s into `log` during the run.
    pub fn events(mut self, log: &'a EventLog) -> Self {
        self.events = Some(log);
        self
    }

    /// Injects the faults scheduled by `plan`; the run returns a
    /// `Degraded` outcome whose fault list records every hit.
    pub fn faults(mut self, plan: &'a FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Caps the run's resources. Models interpret the budget's
    /// dimensions where they apply (e.g. `max_rounds` bounds a sync
    /// execution; tower jobs honor label/memory caps).
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Partitions the run into `num_shards` contiguous-range shards,
    /// each its own fault domain, executed as boundary-exchange
    /// supersteps. Routed by the sharded entrypoints (`lcl_shard`);
    /// single-image executors ignore the axis and stay bit-identical
    /// to an unset value. A count of zero is clamped to one shard.
    pub fn sharded(mut self, num_shards: usize) -> Self {
        self.shards = Some(num_shards.max(1));
        self
    }

    /// The requested shard count, if the run asked to be partitioned.
    pub fn shard_count(&self) -> Option<usize> {
        self.shards
    }

    /// Bounds every socket read and write the run performs to
    /// `timeout_ms` milliseconds. Honored wherever the run crosses a
    /// process boundary — the cross-process shard wire and the
    /// classification-service client — so a hung peer surfaces as a
    /// typed timeout instead of a stuck run. A timeout of zero is
    /// clamped to one millisecond (zero would mean "no timeout" to the
    /// OS). Purely in-process executors ignore the axis.
    pub fn io_timeout(mut self, timeout_ms: u64) -> Self {
        self.io_timeout_ms = Some(timeout_ms.max(1));
        self
    }

    /// The socket deadline in milliseconds, if one was set.
    pub fn io_timeout_ms(&self) -> Option<u64> {
        self.io_timeout_ms
    }

    /// The event log to stream into, if any.
    pub fn event_log(&self) -> Option<&'a EventLog> {
        self.events
    }

    /// The fault plan to inject, if any.
    pub fn fault_plan(&self) -> Option<&'a FaultPlan> {
        self.faults
    }

    /// The effective budget: the one set, or [`Budget::unlimited`].
    pub fn run_budget(&self) -> Budget {
        self.budget.unwrap_or_else(Budget::unlimited)
    }

    /// Whether a budget was explicitly set.
    pub fn has_budget(&self) -> bool {
        self.budget.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_a_plain_run() {
        let opts = RunOptions::new();
        assert!(opts.event_log().is_none());
        assert!(opts.fault_plan().is_none());
        assert!(opts.shard_count().is_none());
        assert!(!opts.has_budget());
        assert_eq!(opts.run_budget().max_rounds, None);
        assert_eq!(opts.run_budget().max_labels, None);
    }

    #[test]
    fn axes_compose_independently() {
        let log = EventLog::new(16);
        let opts = RunOptions::new().events(&log);
        assert!(opts.event_log().is_some());
        assert!(opts.fault_plan().is_none());

        let plan = FaultPlan::parse("plan seed=1\n").expect("why: literal plan is well-formed");
        let opts = opts
            .faults(&plan)
            .budget(Budget::unlimited().with_max_rounds(3));
        assert!(opts.event_log().is_some());
        assert!(opts.fault_plan().is_some());
        assert_eq!(opts.run_budget().max_rounds, Some(3));
    }

    #[test]
    fn sharding_is_an_independent_axis() {
        let opts = RunOptions::new().sharded(4);
        assert_eq!(opts.shard_count(), Some(4));
        assert!(opts.fault_plan().is_none() && !opts.has_budget());
        assert_eq!(
            RunOptions::new().sharded(0).shard_count(),
            Some(1),
            "zero shards clamps to one"
        );
    }

    #[test]
    fn io_timeout_is_an_independent_axis() {
        let opts = RunOptions::new();
        assert_eq!(opts.io_timeout_ms(), None, "default is no deadline");
        let opts = opts.io_timeout(250);
        assert_eq!(opts.io_timeout_ms(), Some(250));
        assert!(opts.fault_plan().is_none() && !opts.has_budget());
        assert_eq!(
            RunOptions::new().io_timeout(0).io_timeout_ms(),
            Some(1),
            "zero would disable the OS deadline; clamp to 1 ms"
        );
    }

    #[test]
    fn options_are_copy() {
        let log = EventLog::new(16);
        let opts = RunOptions::new().events(&log);
        let copied = opts;
        assert!(opts.event_log().is_some());
        assert!(copied.event_log().is_some());
    }
}
