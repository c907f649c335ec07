//! Render traces and event logs for external tooling.
//!
//! Three formats, all hand-rolled (the workspace is dependency-free):
//!
//! * [`chrome_trace`] — Chrome trace-event JSON, loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev): spans
//!   become complete (`"ph": "X"`) slices, event-log entries become
//!   instant (`"ph": "i"`) markers spread across the root slice.
//! * [`folded_stacks`] — flamegraph folded-stacks text
//!   (`root;child;leaf value`), one line per span, weighted by
//!   *self* time so a flamegraph renders inclusive time correctly.
//! * [`prometheus_text`] — Prometheus-style text exposition of every
//!   counter and histogram in a [`Registry`], labeled by stage and
//!   span path.
//!
//! # Determinism
//!
//! Wall clocks are the only nondeterministic quantity in a trace, so
//! each exporter takes an [`ExportMode`]: [`ExportMode::Wall`] uses
//! measured micro­seconds, [`ExportMode::Deterministic`] derives every
//! duration from the counters instead (a span's self-weight is
//! `1 + Σ counter values`, its duration the self-weight plus its
//! children's). Deterministic output is a pure function of the trace
//! fingerprint — that is what the golden fixtures under `fixtures/`
//! pin down. Prometheus exposition contains no times at all and needs
//! no mode.

use std::fmt::Write as _;

use crate::counter::Counter;
use crate::event::EventLog;
use crate::json;
use crate::registry::Registry;
use crate::trace::{SpanRecord, Trace};

/// How exported durations are derived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExportMode {
    /// Measured wall-clock microseconds. Faithful, not reproducible.
    Wall,
    /// Counter-derived synthetic durations: reproducible across runs,
    /// machines, and thread counts. A span's self-weight is
    /// `1 + Σ own counter values`; its duration adds its children's.
    Deterministic,
}

/// A span's own weight (excluding children) in export ticks.
fn self_weight(span: &SpanRecord, mode: ExportMode) -> u64 {
    match mode {
        ExportMode::Wall => {
            let own = span.wall().as_micros() as u64;
            let children: u64 = span
                .children()
                .iter()
                .map(|c| c.wall().as_micros() as u64)
                .sum();
            own.saturating_sub(children)
        }
        ExportMode::Deterministic => {
            1 + span.counters().map(|(_, v)| v).sum::<u64>()
                + span.histograms().map(|(_, h)| h.count()).sum::<u64>()
        }
    }
}

/// A span's full duration (including children) in export ticks.
fn duration(span: &SpanRecord, mode: ExportMode) -> u64 {
    match mode {
        ExportMode::Wall => span.wall().as_micros() as u64,
        ExportMode::Deterministic => {
            self_weight(span, mode)
                + span
                    .children()
                    .iter()
                    .map(|c| duration(c, mode))
                    .sum::<u64>()
        }
    }
}

fn emit_slice(out: &mut Vec<String>, span: &SpanRecord, start: u64, budget: u64, mode: ExportMode) {
    let mut args = String::new();
    for (i, (c, v)) in span.counters().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(args, "{sep}\"{}\": {v}", c.as_str());
    }
    out.push(format!(
        "{{\"name\": {}, \"ph\": \"X\", \"ts\": {start}, \"dur\": {budget}, \
         \"pid\": 0, \"tid\": 0, \"args\": {{{args}}}}}",
        json::quote(span.name()),
    ));
    // Children are laid out sequentially from the parent's start, each
    // clamped to the time remaining in the parent — so every slice nests
    // inside its parent's interval by construction.
    let mut cursor = start;
    let end = start + budget;
    for child in span.children() {
        let want = duration(child, mode);
        let avail = end.saturating_sub(cursor);
        let slot = want.min(avail);
        emit_slice(out, child, cursor, slot, mode);
        cursor += slot;
    }
}

/// Renders a trace (and optionally its event log) as Chrome trace-event
/// JSON: `{"traceEvents": [...]}`. Load the output in `chrome://tracing`
/// or drop it onto <https://ui.perfetto.dev>.
pub fn chrome_trace(trace: &Trace, events: Option<&EventLog>, mode: ExportMode) -> String {
    let root = trace.root();
    let total = duration(root, mode).max(1);
    let mut slices = Vec::new();
    emit_slice(&mut slices, root, 0, total, mode);
    if let Some(log) = events {
        let stored = log.events();
        let n = stored.len() as u64;
        for (i, event) in stored.iter().enumerate() {
            // Spread instants across the root slice in log order.
            let ts = if n <= 1 {
                0
            } else {
                (i as u64).saturating_mul(total.saturating_sub(1)) / (n - 1)
            };
            slices.push(format!(
                "{{\"name\": \"{}\", \"ph\": \"i\", \"ts\": {ts}, \"s\": \"g\", \
                 \"pid\": 0, \"tid\": 0, \"args\": {}}}",
                event.kind(),
                event.to_json(),
            ));
        }
    }
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, slice) in slices.iter().enumerate() {
        out.push_str(slice);
        if i + 1 < slices.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("], \"displayTimeUnit\": \"ms\"}\n");
    out
}

fn emit_folded(out: &mut String, span: &SpanRecord, stack: &mut String, mode: ExportMode) {
    let before = stack.len();
    if !stack.is_empty() {
        stack.push(';');
    }
    // ';' separates stack frames in the folded format.
    stack.push_str(&span.name().replace(';', ":"));
    let _ = writeln!(out, "{stack} {}", self_weight(span, mode));
    for child in span.children() {
        emit_folded(out, child, stack, mode);
    }
    stack.truncate(before);
}

/// Renders a trace as flamegraph folded stacks: one line per span,
/// `root;child;leaf self-weight`. Feed the output to any
/// `flamegraph.pl`-compatible renderer (or Perfetto's flamegraph view).
pub fn folded_stacks(trace: &Trace, mode: ExportMode) -> String {
    let mut out = String::new();
    let mut stack = String::new();
    emit_folded(&mut out, trace.root(), &mut stack, mode);
    out
}

fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn metric_name(counter: Counter) -> String {
    format!("lcl_{}", counter.as_str().replace('-', "_"))
}

type Series = Vec<(String, String, u64)>;

fn collect_series(
    span: &SpanRecord,
    stage: &str,
    path: &mut String,
    counters: &mut std::collections::BTreeMap<Counter, Series>,
    hists: &mut std::collections::BTreeMap<Counter, Vec<(String, String, crate::Histogram)>>,
) {
    let before = path.len();
    if !path.is_empty() {
        path.push('>');
    }
    path.push_str(span.name());
    for (c, v) in span.counters() {
        counters
            .entry(c)
            .or_default()
            .push((stage.to_string(), path.clone(), v));
    }
    for (c, h) in span.histograms() {
        hists
            .entry(c)
            .or_default()
            .push((stage.to_string(), path.clone(), h.clone()));
    }
    for child in span.children() {
        collect_series(child, stage, path, counters, hists);
    }
    path.truncate(before);
}

/// Renders every counter and histogram in a [`Registry`] as
/// Prometheus-style text exposition. Each series is labeled with its
/// registry `stage` and the `>`-joined `span` path; histograms follow
/// the cumulative `_bucket`/`_sum`/`_count` convention.
pub fn prometheus_text(registry: &Registry) -> String {
    prometheus_text_with_events(registry, &[])
}

/// Like [`prometheus_text`], additionally exposing the health of the
/// given labeled [`EventLog`]s: total emissions (`lcl_event_log_seen`),
/// events not retrievable (`lcl_event_log_dropped`, split into
/// `lcl_event_log_dropped_sampling` and
/// `lcl_event_log_dropped_capacity` by cause), and events currently
/// stored (`lcl_event_log_stored`). A chaos soak that overflows its
/// ring is visible here rather than silently truncated — scrape
/// `lcl_event_log_dropped_capacity` and alert on growth (sampling
/// drops are configured, not pathological).
pub fn prometheus_text_with_events(registry: &Registry, logs: &[(&str, &EventLog)]) -> String {
    let mut out = prometheus_registry_text(registry);
    if logs.is_empty() {
        return out;
    }
    type Series = fn(&EventLog) -> u64;
    let series: [(&str, &str, Series); 5] = [
        (
            "lcl_event_log_seen",
            "Events emitted into the log, stored or not.",
            |log| log.seen(),
        ),
        (
            "lcl_event_log_dropped",
            "Events not retrievable from the log (dropped_sampling plus dropped_capacity).",
            |log| log.dropped(),
        ),
        (
            "lcl_event_log_dropped_sampling",
            "Emissions discarded by the sampling grid before storage.",
            |log| log.dropped_sampling(),
        ),
        (
            "lcl_event_log_dropped_capacity",
            "Stored events evicted by a full ring (or discarded by a zero-capacity ring).",
            |log| log.dropped_capacity(),
        ),
        (
            "lcl_event_log_stored",
            "Events currently held in the ring.",
            |log| log.len() as u64,
        ),
    ];
    for (name, help, value) in series {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        for (label, log) in logs {
            let _ = writeln!(
                out,
                "{name}{{log=\"{}\"}} {}",
                prom_escape(label),
                value(log)
            );
        }
    }
    out
}

fn prometheus_registry_text(registry: &Registry) -> String {
    let snapshot = registry.snapshot();
    let mut counters: std::collections::BTreeMap<Counter, Series> = Default::default();
    let mut hists: std::collections::BTreeMap<Counter, Vec<(String, String, crate::Histogram)>> =
        Default::default();
    for (stage, trace) in &snapshot {
        let mut path = String::new();
        collect_series(trace.root(), stage, &mut path, &mut counters, &mut hists);
    }
    let mut out = String::new();
    for &counter in Counter::ALL {
        if let Some(series) = counters.get(&counter) {
            let name = metric_name(counter);
            let _ = writeln!(
                out,
                "# HELP {name} Per-span value of the `{}` counter.",
                counter.as_str()
            );
            let _ = writeln!(out, "# TYPE {name} counter");
            for (stage, span, value) in series {
                let _ = writeln!(
                    out,
                    "{name}{{stage=\"{}\",span=\"{}\"}} {value}",
                    prom_escape(stage),
                    prom_escape(span),
                );
            }
        }
        if let Some(series) = hists.get(&counter) {
            let name = format!("{}_dist", metric_name(counter));
            let _ = writeln!(
                out,
                "# HELP {name} Distribution of per-observation `{}` values.",
                counter.as_str()
            );
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (stage, span, hist) in series {
                let labels = format!(
                    "stage=\"{}\",span=\"{}\"",
                    prom_escape(stage),
                    prom_escape(span)
                );
                let mut cumulative = 0u64;
                for (le, count) in hist.buckets() {
                    cumulative += count;
                    let _ = writeln!(out, "{name}_bucket{{{labels},le=\"{le}\"}} {cumulative}");
                }
                let _ = writeln!(
                    out,
                    "{name}_bucket{{{labels},le=\"+Inf\"}} {}",
                    hist.count()
                );
                let _ = writeln!(out, "{name}_sum{{{labels}}} {}", hist.sum());
                let _ = writeln!(out, "{name}_count{{{labels}}} {}", hist.count());
            }
            // Quantile estimates as a companion summary: values are the
            // power-of-two bucket upper bounds (see
            // `Histogram::quantile`), so they round up to a boundary.
            let qname = format!("{}_q", metric_name(counter));
            let _ = writeln!(
                out,
                "# HELP {qname} Quantile estimates of per-observation `{}` values \
                 (power-of-two bucket upper bounds).",
                counter.as_str()
            );
            let _ = writeln!(out, "# TYPE {qname} summary");
            for (stage, span, hist) in series {
                let labels = format!(
                    "stage=\"{}\",span=\"{}\"",
                    prom_escape(stage),
                    prom_escape(span)
                );
                for (q, tag) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                    if let Some(v) = hist.quantile(q) {
                        let _ = writeln!(out, "{qname}{{{labels},quantile=\"{tag}\"}} {v}");
                    }
                }
                let _ = writeln!(out, "{qname}_sum{{{labels}}} {}", hist.sum());
                let _ = writeln!(out, "{qname}_count{{{labels}}} {}", hist.count());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::trace::Span;
    use std::time::Duration;

    fn two_level() -> Trace {
        let child_a = SpanRecord::with_wall(
            "phase-a",
            Duration::from_micros(30),
            [(Counter::Probes, 4)],
            vec![],
        );
        let child_b = SpanRecord::with_wall(
            "phase-b",
            Duration::from_micros(50),
            [(Counter::Rounds, 2)],
            vec![],
        );
        let root = SpanRecord::with_wall(
            "run",
            Duration::from_micros(100),
            [(Counter::Nodes, 8)],
            vec![child_a, child_b],
        );
        Trace::new(root)
    }

    #[test]
    fn chrome_trace_is_valid_shaped_json() {
        let log = EventLog::new(8);
        log.record(Event::RoundStart { round: 0 });
        log.record(Event::RoundEnd {
            round: 0,
            messages: 3,
        });
        let json = chrome_trace(&two_level(), Some(&log), ExportMode::Wall);
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 3);
        assert_eq!(json.matches("\"ph\": \"i\"").count(), 2);
        assert!(json.contains("\"name\": \"phase-b\""));
    }

    #[test]
    fn deterministic_mode_ignores_the_clock() {
        let slow = || {
            let mut s = Span::start("root");
            s.set(Counter::Probes, 3);
            std::thread::sleep(Duration::from_millis(1));
            Trace::new(s.finish())
        };
        let a = chrome_trace(&slow(), None, ExportMode::Deterministic);
        let b = chrome_trace(&slow(), None, ExportMode::Deterministic);
        assert_eq!(a, b);
        assert_eq!(
            folded_stacks(&slow(), ExportMode::Deterministic),
            folded_stacks(&slow(), ExportMode::Deterministic)
        );
    }

    #[test]
    fn folded_stacks_weight_is_self_time() {
        let text = folded_stacks(&two_level(), ExportMode::Wall);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec!["run 20", "run;phase-a 30", "run;phase-b 50"]);
    }

    #[test]
    fn prometheus_exposition_lists_counters_and_histograms() {
        let reg = Registry::new();
        reg.record("e9/test", two_level());
        let mut span = Span::start("queries");
        for v in [1u64, 2, 2] {
            span.observe(Counter::Probes, v);
        }
        reg.record("e9/hist", Trace::new(span.finish()));
        let text = prometheus_text(&reg);
        assert!(text.contains("# TYPE lcl_probes counter"));
        assert!(text.contains("lcl_probes{stage=\"e9/test\",span=\"run>phase-a\"} 4"));
        assert!(text.contains("# TYPE lcl_probes_dist histogram"));
        assert!(
            text.contains("lcl_probes_dist_bucket{stage=\"e9/hist\",span=\"queries\",le=\"1\"} 1")
        );
        assert!(
            text.contains("lcl_probes_dist_bucket{stage=\"e9/hist\",span=\"queries\",le=\"3\"} 3")
        );
        assert!(text.contains("lcl_probes_dist_count{stage=\"e9/hist\",span=\"queries\"} 3"));
        assert!(text.contains("lcl_probes_dist_sum{stage=\"e9/hist\",span=\"queries\"} 5"));
        // Quantile summary lines: observations 1, 2, 2 -> p50 is the
        // second value (2), reported as its bucket bound 3.
        assert!(text.contains("# TYPE lcl_probes_q summary"));
        assert!(
            text.contains("lcl_probes_q{stage=\"e9/hist\",span=\"queries\",quantile=\"0.5\"} 3")
        );
        assert!(
            text.contains("lcl_probes_q{stage=\"e9/hist\",span=\"queries\",quantile=\"0.99\"} 3")
        );
        assert!(text.contains("lcl_probes_q_count{stage=\"e9/hist\",span=\"queries\"} 3"));
    }

    #[test]
    fn prometheus_exposes_event_log_drops() {
        let reg = Registry::new();
        reg.record("chaos/e1", two_level());
        let log = EventLog::new(2);
        for round in 0..5 {
            log.record(Event::RoundStart { round });
        }
        let text = prometheus_text_with_events(&reg, &[("chaos", &log)]);
        assert!(text.contains("# TYPE lcl_event_log_dropped gauge"));
        assert!(text.contains("lcl_event_log_seen{log=\"chaos\"} 5"));
        assert!(text.contains("lcl_event_log_dropped{log=\"chaos\"} 3"));
        assert!(text.contains("lcl_event_log_dropped_sampling{log=\"chaos\"} 0"));
        assert!(text.contains("lcl_event_log_dropped_capacity{log=\"chaos\"} 3"));
        assert!(text.contains("lcl_event_log_stored{log=\"chaos\"} 2"));

        // A sampled log attributes its drops to the sampling grid.
        let sampled = EventLog::with_sampling(16, 2);
        for round in 0..6 {
            sampled.record(Event::RoundStart { round });
        }
        let text = prometheus_text_with_events(&reg, &[("sampled", &sampled)]);
        assert!(text.contains("lcl_event_log_dropped_sampling{log=\"sampled\"} 3"));
        assert!(text.contains("lcl_event_log_dropped_capacity{log=\"sampled\"} 0"));
        // The registry half is unchanged from the plain exposition.
        assert!(text.starts_with(&prometheus_text(&reg)));
        // No logs -> bit-identical to the plain exposition (fixtures).
        assert_eq!(
            prometheus_text_with_events(&reg, &[]),
            prometheus_text(&reg)
        );
    }
}
