//! Round elimination as a service.
//!
//! The other crates in this workspace answer "what does this LCL's
//! round-elimination tower look like?" one process at a time. This crate
//! turns that into a long-running, std-only batch service:
//!
//! * [`TowerStore`] — a content-addressed, crash-safe store of
//!   [`TowerSnapshot`](lcl_core::TowerSnapshot)s keyed by the canonical
//!   problem fingerprint ([`lcl::canonical_key`]). Structurally
//!   identical problems — the same constraints under any label renaming
//!   — share one entry, so each structural class is computed once, ever.
//! * [`ClassifyServer`] — a bounded job queue and worker pool. Cache
//!   hits are answered instantly; concurrent identical submissions
//!   coalesce onto one in-flight build; misses run under the retry
//!   supervisor with escalating budgets, checkpointing to disk before
//!   every `f`-step so a killed server resumes instead of recomputing.
//! * [`protocol`] / [`wire`] — a line-delimited JSON protocol spoken
//!   over stdio or a Unix socket (`classify-server` / `classify-client`
//!   in `lcl-bench` are thin wrappers over these). Besides classify
//!   requests it carries two telemetry ops: `stats` (counter snapshot
//!   plus a Prometheus rendering of every per-job span) and `watch` (a
//!   live stream of checkpoint/retry/level-complete events).
//! * [`client`] — connection robustness for remote callers: capped
//!   deterministic retry backoff for transient refusals and a typed
//!   error when the socket path does not exist.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use lcl_service::{ClassifyRequest, ClassifyServer, Response, ServiceConfig, TowerStore};
//!
//! let dir = std::env::temp_dir().join(format!("lcl-service-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let store = Arc::new(TowerStore::open(&dir)?);
//! let server = ClassifyServer::start(store, ServiceConfig::default());
//! let request = ClassifyRequest {
//!     id: 1,
//!     problem: "name: 2col\nmax-degree: 2\nnodes:\nA*\nB*\nedges:\nA B\n".into(),
//!     steps: 1,
//! };
//! let responses = server.submit(&request).expect("parsable problem, empty queue");
//! let terminal = responses.iter().last().expect("a terminal response");
//! assert!(matches!(terminal, Response::Result(r) if r.id == 1));
//! server.shutdown();
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), lcl_service::StoreError>(())
//! ```

pub mod client;
pub mod protocol;
pub mod server;
pub mod store;
pub mod wire;

#[cfg(unix)]
pub use client::{arm_deadlines, connect_with_deadline, connect_with_retry};
pub use client::{deadline_error, is_deadline, ConnectError, RetryPolicy};
pub use protocol::{
    encode_request, encode_response, encode_stats_request, encode_watch_request, parse_any_request,
    parse_flat_object, parse_request, parse_response, push_str_field, ClassifyRequest,
    ClassifyResult, ProtocolError, Request, Response, Scalar, StatsReply,
};
pub use server::{ClassifyServer, ServiceConfig, ServiceStats, SubmitError};
pub use store::{StoreError, TowerStore, TowerSummary};
pub use wire::serve_connection;
#[cfg(unix)]
pub use wire::serve_unix;
