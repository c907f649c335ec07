//! Self-healing runtime for the LCL landscape simulators.
//!
//! Three layers turn faulted executions from "best effort" into typed
//! guarantees, following the policy lattice *retry → resume → repair →
//! degrade*:
//!
//! 1. **Certify & repair** ([`certify()`], [`repair()`], [`models`]): an
//!    output labeling either passes `lcl::verify` exactly — sealed as a
//!    [`Certified`] value whose constructor is the proof — or is mended
//!    by bounded local patching against a fault-free reference run. The
//!    [`models`] wrappers close the loop for the degraded outcomes of
//!    all four faulted executors (LOCAL sync, LOCAL, VOLUME, LCA, and
//!    the oriented-grid product model).
//! 2. **Checkpoint / resume** (`lcl_core::TowerSnapshot`): a
//!    round-elimination tower interrupted by a budget breach or a panic
//!    serializes to JSON and resumes bit-identically — the supervisor
//!    uses this to never repeat completed levels.
//! 3. **Retry supervisor** ([`supervise_tower_from`], with
//!    [`supervise_tower`] starting from a fresh base): drives a tower
//!    build through deterministic, recorded backoff and escalating
//!    [`lcl_faults::Budget`]s under a [`RetryPolicy`], emitting
//!    `Event::Retry` / `Event::Checkpoint` and the `retries` /
//!    `checkpoints` counters (the repair layer adds `repairs` /
//!    `repaired-nodes`). The procshard supervisor reuses
//!    [`RetryPolicy`]'s backoff schedule for worker respawns.
//!
//! The repair algorithm leans on the paper's node-edge-checkable normal
//! form (Definition 2.4): because validity is checkable per node and per
//! edge, damage is *localizable*, and patching an expanding radius ball
//! around the violations with reference labels converges within the
//! graph's diameter.

pub mod certify;
pub mod models;
pub mod supervisor;

pub use certify::{
    certify, repair, repair_tracked, Certified, RepairFailed, RepairOptions, RepairReport,
    TrackedRepair,
};
pub use models::{
    repair_lca_degraded, repair_local_degraded, repair_prod_degraded, repair_sync_degraded,
    repair_volume_degraded, ModelRepair,
};
pub use supervisor::{
    supervise_tower, supervise_tower_from, RetryPolicy, StageError, TowerRecovery,
};
