//! Process-per-shard execution of LOCAL supersteps, with a supervisor
//! that survives real OS kills.
//!
//! This crate promotes the in-process sharded executor
//! ([`lcl_shard`]) to a substrate where every shard is its own OS
//! process: a `shard-worker` child speaking newline-delimited flat
//! JSON over a Unix socket. The division of labor:
//!
//! - [`spec`] — closed, deterministic job descriptions ([`ProcJob`]):
//!   graphs as generator calls, algorithms as catalog names, inputs as
//!   named constructions. Determinism is the foundation of replay
//!   rehydration.
//! - [`wire`] — the line protocol both sides speak, built on
//!   [`lcl_service::protocol`]. Halo payloads are opaque to the
//!   supervisor; faults, events, and labels have exact codecs.
//! - [`worker`] — the child side: wire decode and encode around the
//!   same [`lcl_shard::ShardStepper`] the in-process executor steps,
//!   driven by supervisor commands instead of thread barriers.
//! - [`supervisor`] — the parent side: the process transport of
//!   [`lcl_shard::coordinate`]. It spawns the fleet, arms socket
//!   deadlines as per-superstep heartbeats, SIGKILLs shards the fault
//!   plan says to kill, and brings dead workers back by capped respawn
//!   plus command-history replay.
//!
//! The headline invariant: a proc-sharded run without kills is
//! bit-identical — outcome, fault list, counters, event log — to the
//! in-process run at the same shard count, and so, for plans without
//! whole-shard losses, to the unsharded executor; a run whose only
//! faults are `ShardKill`s produces output
//! bit-identical to the clean run (kills are output-transparent;
//! they surface only as `"shard-kill"` faults, retry events, and the
//! `retries` counter).

pub mod spec;
pub mod supervisor;
pub mod wire;
pub mod worker;

pub use spec::{AlgSpec, GraphSpec, GuardedFlood, InputSpec, ProcJob};
pub use supervisor::{run_proc_sharded, ProcError, ProcOptions};
