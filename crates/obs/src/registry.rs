//! A thread-safe collection of labeled traces.
//!
//! The bench harness records one trace per pipeline stage into a
//! [`Registry`] and serializes the whole collection to
//! `BENCH_obs.json`; any long-lived process can do the same.

use std::sync::Mutex;

use crate::json;
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

    /// Serializes every recorded trace as a JSON object keyed by its
    /// `panel/stage` label, with the recording order kept as an
    /// `"order"` field. Label-based keys make two registries diff
    /// cleanly even when stages are recorded in a different order;
    /// repeated labels are disambiguated with a `#2`, `#3`, ... suffix.
    pub fn to_json(&self) -> String {
        let traces = self.snapshot();
        let mut used = std::collections::HashMap::new();
        let mut out = String::from("{\n");
        for (i, (label, trace)) in traces.iter().enumerate() {
            let n = used.entry(label.clone()).or_insert(0u32);
            *n += 1;
            let key = if *n == 1 {
                label.clone()
            } else {
                format!("{label}#{n}")
            };
            json::push_string(&mut out, &key);
            out.push_str(": {\n");
            out.push_str(&format!("\"order\": {i},\n"));
            out.push_str("\"trace\":\n");
            out.push_str(&trace.to_json());
            out.truncate(out.trim_end_matches('\n').len());
            out.push_str("\n}");
            if i + 1 < traces.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("}\n");
        out
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
        let json = reg.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"e1/trees\""));
        assert!(json.contains("\"e4/volume\""));
        assert!(json.contains("\"order\": 0"));
        assert!(json.contains("\"order\": 1"));
        assert!(json.contains("\"rounds\": 9"));
    }

    #[test]
    fn repeated_labels_get_distinct_keys() {
        let reg = Registry::new();
        reg.record("e1/stage", tiny("first", 1));
        reg.record("e1/stage", tiny("second", 2));
        let json = reg.to_json();
        assert!(json.contains("\"e1/stage\""));
        assert!(json.contains("\"e1/stage#2\""));
    }

    #[test]
    fn control_characters_in_labels_round_trip_through_the_codec() {
        let label = "line\nbreak\ttab\u{1}soh \"q\" back\\slash";
        let reg = Registry::new();
        reg.record(label, tiny("stage\r\u{1f}", 4));
        let text = reg.to_json();
        let doc = json::parse(&text).expect("registry dump is valid JSON");
        let (key, entry) = &doc.as_obj().expect("an object")[0];
        assert_eq!(key, label);
        let name = entry.get("trace").and_then(|t| t.get("name"));
        assert_eq!(name.and_then(json::Value::as_str), Some("stage\r\u{1f}"));
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
