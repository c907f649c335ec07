//! Hierarchical spans with wall-clock timing and typed counters.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::counter::Counter;
use crate::histogram::Histogram;

/// An *open* span: mutable, timing since [`Span::start`].
///
/// Finish it with [`Span::finish`] to seal the wall clock and obtain an
/// immutable [`SpanRecord`] that can be attached to a parent span or
/// wrapped into a [`Trace`].
#[derive(Debug)]
pub struct Span {
    name: String,
    started: Instant,
    counters: BTreeMap<Counter, u64>,
    hists: BTreeMap<Counter, Histogram>,
    children: Vec<SpanRecord>,
}

impl Span {
    /// Opens a span and starts its clock.
    pub fn start(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            started: Instant::now(),
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            children: Vec::new(),
        }
    }

    /// Adds to a counter (saturating).
    pub fn add(&mut self, counter: Counter, amount: u64) {
        let slot = self.counters.entry(counter).or_insert(0);
        *slot = slot.saturating_add(amount);
    }

    /// Sets a counter to an absolute value.
    pub fn set(&mut self, counter: Counter, value: u64) {
        self.counters.insert(counter, value);
    }

    /// Records one observation into this span's distribution for a
    /// counter (probe counts per query, view sizes per node, ...).
    /// Bucket boundaries are fixed, so the resulting histogram — and the
    /// fingerprint it feeds — is independent of observation order.
    pub fn observe(&mut self, counter: Counter, value: u64) {
        self.hists.entry(counter).or_default().observe(value);
    }

    /// Attaches a finished child span.
    pub fn record(&mut self, child: SpanRecord) {
        self.children.push(child);
    }

    /// Runs `f` inside a child span, attaching it when `f` returns.
    pub fn scope<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Span) -> T) -> T {
        let mut child = Span::start(name);
        let result = f(&mut child);
        self.record(child.finish());
        result
    }

    /// Seals the span: the wall clock stops here.
    pub fn finish(self) -> SpanRecord {
        SpanRecord {
            name: self.name,
            wall: self.started.elapsed(),
            counters: self.counters,
            hists: self.hists,
            children: self.children,
        }
    }
}

/// A finished span: name, wall time, counters, children.
///
/// Equality and hashing are deliberately not derived — wall-clock time
/// makes two otherwise-identical records differ. Compare executions with
/// [`Trace::fingerprint`], which excludes the clock.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    name: String,
    wall: Duration,
    counters: BTreeMap<Counter, u64>,
    hists: BTreeMap<Counter, Histogram>,
    children: Vec<SpanRecord>,
}

impl SpanRecord {
    /// Builds an aggregate record whose wall time is the sum of its
    /// children's — for assembling a trace from spans recorded at
    /// different times (e.g. a tower built level by level).
    pub fn aggregate(
        name: impl Into<String>,
        counters: impl IntoIterator<Item = (Counter, u64)>,
        children: Vec<SpanRecord>,
    ) -> Self {
        let wall = children.iter().map(|c| c.wall).sum();
        Self {
            name: name.into(),
            wall,
            counters: counters.into_iter().collect(),
            hists: BTreeMap::new(),
            children,
        }
    }

    /// Builds a record with an explicit, fixed wall time — for synthetic
    /// traces whose rendering must be reproducible (golden-fixture
    /// tests, documentation examples).
    pub fn with_wall(
        name: impl Into<String>,
        wall: Duration,
        counters: impl IntoIterator<Item = (Counter, u64)>,
        children: Vec<SpanRecord>,
    ) -> Self {
        Self {
            name: name.into(),
            wall,
            counters: counters.into_iter().collect(),
            hists: BTreeMap::new(),
            children,
        }
    }

    /// Attaches a histogram to this record (builder-style; synthetic
    /// traces only — live spans fill histograms via [`Span::observe`]).
    #[must_use]
    pub fn with_histogram(mut self, counter: Counter, hist: Histogram) -> Self {
        self.hists.insert(counter, hist);
        self
    }

    /// The span's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Wall-clock time between [`Span::start`] and [`Span::finish`].
    pub fn wall(&self) -> Duration {
        self.wall
    }

    /// This span's own value for a counter (not including children).
    pub fn get(&self, counter: Counter) -> Option<u64> {
        self.counters.get(&counter).copied()
    }

    /// This span's counters, in canonical order.
    pub fn counters(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        self.counters.iter().map(|(&c, &v)| (c, v))
    }

    /// This span's distribution for a counter, if one was observed.
    pub fn histogram(&self, counter: Counter) -> Option<&Histogram> {
        self.hists.get(&counter)
    }

    /// This span's histograms, in canonical counter order.
    pub fn histograms(&self) -> impl Iterator<Item = (Counter, &Histogram)> + '_ {
        self.hists.iter().map(|(&c, h)| (c, h))
    }

    /// Child spans in recording order.
    pub fn children(&self) -> &[SpanRecord] {
        &self.children
    }

    /// A counter summed over this span and all descendants.
    pub fn total(&self, counter: Counter) -> u64 {
        let own = self.get(counter).unwrap_or(0);
        self.children
            .iter()
            .fold(own, |acc, c| acc.saturating_add(c.total(counter)))
    }

    /// Depth-first search for the first descendant (or self) with the
    /// given name.
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Number of spans in this subtree (including self).
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanRecord::span_count)
            .sum::<usize>()
    }

    fn write_fingerprint(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push(' ');
        }
        out.push_str(&self.name);
        for (c, v) in &self.counters {
            let _ = write!(out, " {}={v}", c.as_str());
        }
        for (c, h) in &self.hists {
            let _ = write!(out, " {}~{}", c.as_str(), h.fingerprint());
        }
        out.push('\n');
        for child in &self.children {
            child.write_fingerprint(out, depth + 1);
        }
    }
}

/// A finished span tree — what a simulator hands back inside a
/// [`RunReport`](crate::RunReport).
#[derive(Clone, Debug)]
pub struct Trace {
    root: SpanRecord,
}

impl Trace {
    /// Wraps a finished root span.
    pub fn new(root: SpanRecord) -> Self {
        Self { root }
    }

    /// Times `f` under a fresh root span and returns its result with the
    /// captured trace.
    pub fn capture<T>(name: impl Into<String>, f: impl FnOnce(&mut Span) -> T) -> (T, Trace) {
        let mut span = Span::start(name);
        let result = f(&mut span);
        (result, Trace::new(span.finish()))
    }

    /// The root span.
    pub fn root(&self) -> &SpanRecord {
        &self.root
    }

    /// A counter summed over the whole tree.
    pub fn total(&self, counter: Counter) -> u64 {
        self.root.total(counter)
    }

    /// Depth-first search for a span by name.
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        self.root.find(name)
    }

    /// Number of spans in the trace.
    pub fn span_count(&self) -> usize {
        self.root.span_count()
    }

    /// Whether the trace carries no information beyond its root name:
    /// no counters anywhere and no child spans.
    pub fn is_empty(&self) -> bool {
        self.span_count() == 1 && self.root.counters().next().is_none()
    }

    /// A canonical, wall-clock-free rendering: one line per span
    /// (`name counter=value ...`), children indented. Two executions
    /// that did the same work produce identical fingerprints — this is
    /// the determinism oracle of `tests/observability.rs`.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        self.root.write_fingerprint(&mut out, 0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut root = Span::start("root");
        root.set(Counter::Nodes, 10);
        root.scope("child-a", |s| {
            s.set(Counter::Probes, 3);
            s.add(Counter::Probes, 2);
        });
        root.scope("child-b", |s| {
            s.set(Counter::Probes, 1);
            s.scope("grandchild", |g| g.set(Counter::Rounds, 7));
        });
        Trace::new(root.finish())
    }

    #[test]
    fn totals_sum_over_the_tree() {
        let t = sample();
        assert_eq!(t.total(Counter::Probes), 6);
        assert_eq!(t.total(Counter::Rounds), 7);
        assert_eq!(t.total(Counter::Nodes), 10);
        assert_eq!(t.span_count(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn find_locates_nested_spans() {
        let t = sample();
        assert_eq!(t.find("grandchild").unwrap().get(Counter::Rounds), Some(7));
        assert!(t.find("missing").is_none());
    }

    #[test]
    fn fingerprint_excludes_wall_clock() {
        let a = sample();
        std::thread::sleep(Duration::from_millis(2));
        let b = sample();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.fingerprint().contains("child-a probes=5"));
    }

    #[test]
    fn aggregate_sums_child_walls() {
        let a = Span::start("a").finish();
        let b = Span::start("b").finish();
        let wall = a.wall() + b.wall();
        let agg = SpanRecord::aggregate("parent", [(Counter::Steps, 2)], vec![a, b]);
        assert_eq!(agg.wall(), wall);
        assert_eq!(agg.get(Counter::Steps), Some(2));
        assert_eq!(agg.children().len(), 2);
    }

    #[test]
    fn empty_trace_is_empty() {
        let t = Trace::new(Span::start("nothing").finish());
        assert!(t.is_empty());
    }

    #[test]
    fn histograms_flow_into_fingerprint_and_json() {
        let build = || {
            let mut span = Span::start("queries");
            for v in [1u64, 2, 2, 5] {
                span.observe(Counter::Probes, v);
            }
            Trace::new(span.finish())
        };
        let t = build();
        let hist = t.root().histogram(Counter::Probes).expect("observed");
        assert_eq!(hist.count(), 4);
        assert_eq!(hist.sum(), 10);
        assert!(t.fingerprint().contains("probes~[1:1 3:2 7:1]|4|10"));
        assert_eq!(t.fingerprint(), build().fingerprint());
    }

    #[test]
    fn with_wall_fixes_the_clock() {
        let child = SpanRecord::with_wall(
            "child",
            Duration::from_micros(40),
            [(Counter::Probes, 3)],
            vec![],
        );
        let root = SpanRecord::with_wall(
            "root",
            Duration::from_micros(100),
            [(Counter::Nodes, 2)],
            vec![child],
        );
        assert_eq!(root.wall(), Duration::from_micros(100));
        assert_eq!(root.children()[0].wall(), Duration::from_micros(40));
    }
}
