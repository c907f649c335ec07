//! Panic-isolated execution of node algorithms.
//!
//! A production simulator cannot let one faulty `LocalAlgorithm`
//! implementation take down the process. [`isolate`] runs a node's
//! algorithm invocation under `catch_unwind` and converts a panic into
//! its payload string; an executor under a fault plan files that as a
//! [`NodeFault`] record ([`record_fault`]) and substitutes placeholder
//! output, so the run
//! completes as a typed degradation ([`Degraded`]) instead of aborting.
//!
//! While an isolated closure runs, the default panic hook's backtrace
//! spam is suppressed through a thread-local flag — a chaos soak
//! injecting hundreds of panics stays readable. Panics outside
//! [`isolate`] still reach the previously installed hook unchanged.

use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use lcl_obs::{Event, EventLog};

thread_local! {
    static ISOLATING: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

fn install_quiet_hook() {
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !ISOLATING.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// The payload of an injected [`inject_panic`] fault, distinguishable
/// from a genuine algorithm panic by downcast.
struct InjectedPanic {
    node: u64,
}

/// Panics with a typed marker payload; used by the faulted executors to
/// realize a [`Fault::PanicNode`](crate::Fault::PanicNode) inside the
/// isolated algorithm invocation.
pub fn inject_panic(node: u64) -> ! {
    panic::panic_any(InjectedPanic { node })
}

/// Runs `f` with panics caught and converted to their payload string.
///
/// The closure is wrapped in `AssertUnwindSafe`: faulted executors only
/// pass closures whose captured state is either owned or discarded on
/// the error path, so a broken invariant cannot leak into later use.
pub fn isolate<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_hook();
    let was = ISOLATING.with(|flag| flag.replace(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    ISOLATING.with(|flag| flag.set(was));
    result.map_err(|payload| {
        if let Some(injected) = payload.downcast_ref::<InjectedPanic>() {
            format!("injected panic at node {}", injected.node)
        } else if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "opaque panic payload".to_string()
        }
    })
}

/// One node's failure during a faulted run: which node, at which round,
/// and the panic payload (or a fault-kind tag for non-panic faults such
/// as crash-stops).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NodeFault {
    /// Structural node index (or query index in VOLUME/LCA).
    pub node: u64,
    /// Round at which the fault hit (0 for view-based executions).
    pub round: u64,
    /// Panic payload or fault-kind tag (`"crash-stop"`, …).
    pub payload: String,
}

impl fmt::Display for NodeFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {} faulted at round {}: {}",
            self.node, self.round, self.payload
        )
    }
}

impl std::error::Error for NodeFault {}

/// Records one node's fault: mirrors it into `log` (when one is
/// attached) as an [`Event::Fault`] tagged `tag`, and appends the
/// [`NodeFault`] to `faults`. Every executor records its faults here,
/// so a run's fault list and its event stream cannot disagree.
pub fn record_fault(
    faults: &mut Vec<NodeFault>,
    log: Option<&EventLog>,
    node: u64,
    round: u64,
    tag: &'static str,
    payload: String,
) {
    if let Some(log) = log {
        log.record(Event::Fault {
            node,
            round,
            fault: tag,
        });
    }
    faults.push(NodeFault {
        node,
        round,
        payload,
    });
}

/// A faulted run's result: the (possibly partial) outcome plus every
/// [`NodeFault`] recorded along the way. An empty fault list means the
/// plan didn't bite and the outcome is a normal, fully valid result.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Degraded<T> {
    /// The run's outcome; faulted nodes carry placeholder labels.
    pub outcome: T,
    /// Per-node fault records, in node order.
    pub faults: Vec<NodeFault>,
}

impl<T> Degraded<T> {
    /// Wraps an outcome that suffered no faults.
    pub fn clean(outcome: T) -> Self {
        Self {
            outcome,
            faults: Vec::new(),
        }
    }

    /// Whether any fault was recorded.
    pub fn is_degraded(&self) -> bool {
        !self.faults.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_fault_mirrors_into_the_log_when_one_is_attached() {
        let mut faults = Vec::new();
        record_fault(&mut faults, None, 3, 1, "panic", "boom".into());
        let log = EventLog::new(8);
        record_fault(
            &mut faults,
            Some(&log),
            4,
            2,
            "crash-stop",
            "crash-stop".into(),
        );
        assert_eq!(
            faults,
            vec![
                NodeFault {
                    node: 3,
                    round: 1,
                    payload: "boom".into(),
                },
                NodeFault {
                    node: 4,
                    round: 2,
                    payload: "crash-stop".into(),
                },
            ]
        );
        assert_eq!(
            log.events(),
            vec![Event::Fault {
                node: 4,
                round: 2,
                fault: "crash-stop",
            }]
        );
    }

    #[test]
    fn isolate_passes_values_through() {
        assert_eq!(isolate(|| 41 + 1), Ok(42));
    }

    #[test]
    fn isolate_catches_str_and_string_payloads() {
        assert_eq!(isolate(|| -> u32 { panic!("boom") }), Err("boom".into()));
        let dynamic = isolate(|| -> u32 { panic!("node {} broke", 3) });
        assert_eq!(dynamic, Err("node 3 broke".into()));
    }

    #[test]
    fn injected_panics_carry_their_node() {
        let err = isolate(|| -> () { inject_panic(7) }).unwrap_err();
        assert_eq!(err, "injected panic at node 7");
    }

    #[test]
    fn opaque_payloads_get_a_tag() {
        let err = isolate(|| -> () { panic::panic_any(best_effort()) }).unwrap_err();
        assert_eq!(err, "opaque panic payload");
    }

    fn best_effort() -> Box<u128> {
        Box::new(5)
    }

    #[test]
    fn isolation_nests_and_restores_the_flag() {
        let outer = isolate(|| {
            let inner = isolate(|| -> u32 { panic!("inner") });
            assert_eq!(inner, Err("inner".into()));
            ISOLATING.with(Cell::get)
        });
        assert_eq!(outer, Ok(true));
        assert!(!ISOLATING.with(Cell::get));
    }

    #[test]
    fn degraded_distinguishes_clean_from_faulted() {
        let clean: Degraded<u32> = Degraded::clean(1);
        assert!(!clean.is_degraded());
        let hurt = Degraded {
            outcome: 1u32,
            faults: vec![NodeFault {
                node: 0,
                round: 2,
                payload: "crash-stop".into(),
            }],
        };
        assert!(hurt.is_degraded());
        assert!(hurt.faults[0].to_string().contains("crash-stop"));
    }
}
