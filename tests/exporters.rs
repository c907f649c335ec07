//! Golden-file tests for the obs exporters.
//!
//! [`ExportMode::Deterministic`] output is a pure function of the trace
//! (durations are derived from counters, never from the clock), so it
//! can be pinned byte-for-byte against files committed under
//! `fixtures/obs/`. Two subjects are pinned:
//!
//! * a hand-built two-level trace plus a tiny event log — exercises
//!   every branch of the three exporters on a shape small enough to
//!   review by eye;
//! * the E1 tree-speedup pipeline (`anti-matching`, sequential tower) —
//!   a real run through `tree_speedup_logged`, events and all.
//!
//! Regenerate after an intentional format change with:
//!
//! ```sh
//! UPDATE_FIXTURES=1 cargo test --test exporters
//! ```
//!
//! The last test is a property, not a golden file: every Chrome slice
//! must nest inside an earlier slice's interval (Perfetto renders
//! overlapping same-thread slices as garbage), checked by parsing the
//! export with the workspace's JSON codec (`lcl_obs::json`).

use std::sync::Arc;
use std::time::Duration;

use lcl_landscape::core::{tree_speedup_logged, ReOptions, SpeedupOptions};
use lcl_landscape::obs::export::{chrome_trace, folded_stacks, prometheus_text, ExportMode};
use lcl_landscape::obs::json::{parse, Value};
use lcl_landscape::obs::{Counter, Event, EventLog, Registry, Span, SpanRecord, Trace};
use lcl_landscape::problems::catalog::anti_matching;

fn fixture_path(name: &str) -> String {
    format!("{}/fixtures/obs/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Compares `actual` against the committed fixture, or rewrites the
/// fixture when `UPDATE_FIXTURES` is set.
fn assert_matches_fixture(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        std::fs::create_dir_all(format!("{}/fixtures/obs", env!("CARGO_MANIFEST_DIR")))
            .expect("create fixtures/obs");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {path} ({e}); run UPDATE_FIXTURES=1"));
    assert_eq!(
        actual, expected,
        "{name} drifted from its committed fixture; if the format change \
         is intentional, regenerate with UPDATE_FIXTURES=1"
    );
}

/// The hand-built subject: a root with two phases and a short event log.
fn two_level() -> (Trace, EventLog) {
    let probing = SpanRecord::with_wall(
        "probing",
        Duration::from_micros(30),
        [(Counter::Probes, 4), (Counter::Queries, 2)],
        vec![],
    );
    let coloring = SpanRecord::with_wall(
        "coloring",
        Duration::from_micros(50),
        [(Counter::Rounds, 2), (Counter::Messages, 12)],
        vec![],
    );
    let root = SpanRecord::with_wall(
        "fixture/run",
        Duration::from_micros(100),
        [(Counter::Nodes, 8), (Counter::Edges, 8)],
        vec![probing, coloring],
    );
    let log = EventLog::new(16);
    log.record(Event::RoundStart { round: 0 });
    log.record(Event::Probe {
        query: 0,
        j: 0,
        port: 1,
    });
    log.record(Event::MemoLookup { hit: false });
    log.record(Event::RoundEnd {
        round: 0,
        messages: 12,
    });
    (Trace::new(root), log)
}

/// The real subject: E1's tree-speedup pipeline, run sequentially so
/// the event log's order is reproducible.
fn e1_speedup() -> (Trace, Arc<EventLog>) {
    let opts = SpeedupOptions {
        re: ReOptions {
            parallel: false,
            threads: 1,
            ..ReOptions::default()
        },
        ..SpeedupOptions::default()
    };
    let log = Arc::new(EventLog::new(4096));
    let report = tree_speedup_logged(&anti_matching(3), opts, Some(Arc::clone(&log)));
    assert_eq!(log.dropped(), 0, "fixture log must not drop events");
    (report.trace, log)
}

#[test]
fn two_level_chrome_trace_matches_golden() {
    let (trace, log) = two_level();
    let json = chrome_trace(&trace, Some(&log), ExportMode::Deterministic);
    assert_matches_fixture("two_level.chrome.json", &json);
}

#[test]
fn two_level_folded_stacks_match_golden() {
    let (trace, _) = two_level();
    assert_matches_fixture(
        "two_level.folded",
        &folded_stacks(&trace, ExportMode::Deterministic),
    );
}

#[test]
fn two_level_prometheus_text_matches_golden() {
    let (trace, _) = two_level();
    let registry = Registry::new();
    registry.record("fixture/two-level", trace);
    // A second stage with a histogram, so the exposition covers the
    // `_bucket`/`_sum`/`_count` convention too.
    let mut span = Span::start("walks");
    for v in [1u64, 2, 2, 5] {
        span.observe(Counter::Probes, v);
    }
    registry.record("fixture/histogram", Trace::new(span.finish()));
    assert_matches_fixture("two_level.prom", &prometheus_text(&registry));
}

#[test]
fn e1_tree_speedup_chrome_trace_matches_golden() {
    let (trace, log) = e1_speedup();
    let json = chrome_trace(&trace, Some(&log), ExportMode::Deterministic);
    assert_matches_fixture("e1_tree_speedup.chrome.json", &json);
}

#[test]
fn e1_tree_speedup_folded_stacks_match_golden() {
    let (trace, _) = e1_speedup();
    assert_matches_fixture(
        "e1_tree_speedup.folded",
        &folded_stacks(&trace, ExportMode::Deterministic),
    );
}

/// Every `"ph": "X"` slice must nest inside some earlier slice, and
/// every `"ph": "i"` instant must land inside the root slice — the
/// layout invariant Perfetto needs to render a single-thread track.
#[test]
fn chrome_slices_nest_within_their_parents() {
    let (trace, log) = e1_speedup();
    for mode in [ExportMode::Deterministic, ExportMode::Wall] {
        let text = chrome_trace(&trace, Some(&log), mode);
        let doc = parse(&text).expect("export parses as JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents array");
        let field = |e: &Value, key: &str| -> u64 {
            e.get(key)
                .and_then(Value::as_num)
                .and_then(|raw| raw.parse().ok())
                .unwrap_or_else(|| panic!("numeric '{key}' in {e:?}"))
        };
        let slices: Vec<(u64, u64)> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .map(|e| (field(e, "ts"), field(e, "ts") + field(e, "dur")))
            .collect();
        assert!(slices.len() >= 3, "expected a multi-span trace");
        let (root_start, root_end) = slices[0];
        for (i, &(start, end)) in slices.iter().enumerate().skip(1) {
            assert!(
                slices[..i].iter().any(|&(ps, pe)| ps <= start && end <= pe),
                "slice {i} [{start}, {end}] nests in no earlier slice ({mode:?})"
            );
        }
        for e in events {
            if e.get("ph").and_then(Value::as_str) == Some("i") {
                let ts = field(e, "ts");
                assert!(
                    (root_start..=root_end).contains(&ts),
                    "instant at {ts} outside the root slice ({mode:?})"
                );
            }
        }
    }
}
