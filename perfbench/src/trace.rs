//! An in-memory span recorder for the benchmark's own calls into each
//! layer.
//!
//! A span is a name, a start, an end, and the span that caused it.
//! Spans are kept in memory and written as JSON lines when the run
//! ends. A disabled recorder still times the call (the benchmark needs
//! the duration either way) but records nothing.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a recorded span; `None` parents are roots.
pub type SpanId = Option<usize>;

struct Span {
    name: String,
    start: Duration,
    end: Duration,
    parent: SpanId,
}

/// Records spans relative to one epoch; shareable across threads.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Self {
            epoch: Instant::now(),
            on,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("why: no code panics while holding the span list")
    }

    /// Opens a span under `parent` and returns its id (`None` when the
    /// recorder is off).
    pub fn open(&self, name: impl Into<String>, parent: SpanId) -> SpanId {
        if !self.on {
            return None;
        }
        let start = self.epoch.elapsed();
        let mut spans = self.spans();
        spans.push(Span {
            name: name.into(),
            start,
            end: start,
            parent,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        if let Some(i) = id {
            let end = self.epoch.elapsed();
            self.spans()[i].end = end;
        }
    }

    /// Runs `f` inside a span named `name` under `parent`, handing `f`
    /// the new span's id for its children. Returns `f`'s value and its
    /// wall time in seconds.
    pub fn time<T>(
        &self,
        name: impl Into<String>,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let t0 = Instant::now();
        let value = f(id);
        let secs = t0.elapsed().as_secs_f64();
        self.close(id);
        (value, secs)
    }

    /// Number of recorded spans.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.spans().len()
    }

    /// The recorded spans as JSON lines: `id`, `name`, `parent`,
    /// `start_s`, `end_s` (seconds since the recorder was made).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans().iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_s\": {:?}, \"end_s\": {:?}}}",
                span.name,
                span.start.as_secs_f64(),
                span.end.as_secs_f64()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize_with_parents() {
        let tracer = Tracer::new(true);
        let ((), outer) = tracer.time("job", None, |job| {
            tracer.time("graph.build", job, |_| ());
        });
        assert!(outer >= 0.0);
        assert_eq!(tracer.len(), 2);
        let text = tracer.to_jsonl();
        assert!(text.contains("\"name\": \"job\", \"parent\": null"));
        assert!(text.contains("\"name\": \"graph.build\", \"parent\": 0"));
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let tracer = Tracer::new(false);
        let (value, secs) = tracer.time("job", None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        assert_eq!(tracer.len(), 0);
    }
}
