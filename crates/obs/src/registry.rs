//! A thread-safe collection of labeled traces.
//!
//! The bench harness records one trace per pipeline stage into a
//! [`Registry`] and writes the whole collection to `BENCH_obs.json`;
//! any long-lived process can do the same.

use std::sync::Mutex;

use crate::trace::Trace;

/// A labeled, append-only collection of [`Trace`]s.
///
/// Interior mutability via a [`Mutex`], so one registry can be shared
/// by reference across worker threads. Traces are kept in recording
/// order; labels need not be unique (repeated runs of the same stage
/// simply append).
#[derive(Debug, Default)]
pub struct Registry {
    traces: Mutex<Vec<(String, Trace)>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the trace list, recovering from poison: appends always
    /// leave the vector consistent, so a worker that panicked mid-bench
    /// must not take every later recording down with it.
    fn traces(&self) -> std::sync::MutexGuard<'_, Vec<(String, Trace)>> {
        self.traces.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends a labeled trace.
    pub fn record(&self, label: impl Into<String>, trace: Trace) {
        self.traces().push((label.into(), trace));
    }

    /// Number of recorded traces.
    pub fn len(&self) -> usize {
        self.traces().len()
    }

    /// Whether no trace has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clones out the recorded `(label, trace)` pairs in recording order.
    pub fn snapshot(&self) -> Vec<(String, Trace)> {
        self.traces().clone()
    }

    /// Clones out the recorded traces keyed for a JSON object: each
    /// label as recorded, with repeated labels disambiguated by a `#2`,
    /// `#3`, ... suffix. Label-based keys make two reports diff cleanly
    /// even when stages are recorded in a different order.
    pub fn keyed_snapshot(&self) -> Vec<(String, Trace)> {
        let mut used = std::collections::HashMap::new();
        self.snapshot()
            .into_iter()
            .map(|(label, trace)| {
                let n = used.entry(label.clone()).or_insert(0u32);
                *n += 1;
                let key = if *n == 1 {
                    label
                } else {
                    format!("{label}#{n}")
                };
                (key, trace)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::Counter;
    use crate::trace::Span;

    fn tiny(name: &str, rounds: u64) -> Trace {
        let mut s = Span::start(name);
        s.set(Counter::Rounds, rounds);
        Trace::new(s.finish())
    }

    #[test]
    fn records_in_order_and_serializes() {
        let reg = Registry::new();
        assert!(reg.is_empty());
        reg.record("e1/trees", tiny("tower", 3));
        reg.record("e4/volume", tiny("probes", 9));
        assert_eq!(reg.len(), 2);
        let snap = reg.snapshot();
        assert_eq!(snap[0].0, "e1/trees");
        assert_eq!(snap[1].0, "e4/volume");
        let text = crate::export::prometheus_text(&reg);
        assert!(text.contains("stage=\"e1/trees\""), "{text}");
        assert!(
            text.contains("stage=\"e4/volume\",span=\"probes\"} 9"),
            "{text}"
        );
    }

    #[test]
    fn repeated_labels_get_distinct_keys() {
        let reg = Registry::new();
        reg.record("e1/stage", tiny("first", 1));
        reg.record("e1/stage", tiny("second", 2));
        reg.record("e2/stage", tiny("third", 3));
        let keys: Vec<String> = reg.keyed_snapshot().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["e1/stage", "e1/stage#2", "e2/stage"]);
    }

    #[test]
    fn shared_across_threads() {
        let reg = std::sync::Arc::new(Registry::new());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let reg = std::sync::Arc::clone(&reg);
                std::thread::spawn(move || reg.record(format!("t{i}"), tiny("work", i)))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.len(), 4);
    }

    #[test]
    fn records_after_a_poisoned_lock() {
        let reg = Registry::new();
        reg.record("before", tiny("a", 1));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = reg.traces.lock().expect("first lock");
            panic!("poison the registry deliberately");
        }));
        assert!(result.is_err());
        // The append path recovers the guard instead of cascading.
        reg.record("after", tiny("b", 2));
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[1].0, "after");
    }
}
