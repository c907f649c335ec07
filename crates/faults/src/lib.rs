//! Deterministic fault injection, resource budgets, and panic isolation.
//!
//! The paper's models are *adversarial*: LOCAL is defined over worst-case
//! identifier assignments (Definition 2.1), VOLUME over adaptively chosen
//! probe answers, and every classification theorem only holds if the
//! checker survives the instances an adversary would pick. This crate
//! makes that boundary executable on purpose:
//!
//! * [`FaultPlan`] / [`Fault`] — a seeded, serializable schedule of
//!   faults (crash-stop at a round, half-edge view corruption,
//!   adversarial ID permutations, probe-answer lies, injected node
//!   panics), passed through [`RunOptions`] to the one executor of each
//!   model in the `local`, `volume`, `grid`, `shard` and `procshard`
//!   crates.
//! * [`Budget`] / [`CancelToken`] / [`BudgetExceeded`] — resource caps
//!   (derived-label count, round/level count, wall deadline, memory
//!   estimate) with cooperative cancellation checked inside the
//!   `core::par` fan-out and `ReTower` level construction. Breaching a
//!   budget is a typed error carrying the partial progress, never a
//!   runaway computation.
//! * [`isolate`] / [`NodeFault`] / [`Degraded`] — `catch_unwind`
//!   wrappers that turn a panicking node algorithm into a typed,
//!   per-node fault record, which every executor files through
//!   [`record_fault`]. A faulted simulator run always ends in one
//!   of three ways: a valid output, a typed error, or a typed
//!   degradation ([`Degraded`] with a non-empty fault list) — never a
//!   process abort.
//! * [`RunOptions`] — the one knob bundle consumed by each model's
//!   `simulate_with` entrypoint: optional event capture, optional fault
//!   plan, optional budget.
//!
//! Everything is deterministic given `(seed, plan)`: the same plan on
//! the same instance yields bit-identical outcomes at any worker-thread
//! count (wall-clock deadlines are the one deliberately nondeterministic
//! budget and are excluded from reproducibility claims).

pub mod budget;
pub mod panic_guard;
pub mod plan;
pub mod run_options;

pub use budget::{Breach, Budget, BudgetExceeded, CancelToken, InvalidConfig};
pub use panic_guard::{inject_panic, isolate, record_fault, Degraded, NodeFault};
pub use plan::{Fault, FaultPlan, PlanIssue, PlanParseError};
pub use run_options::RunOptions;
