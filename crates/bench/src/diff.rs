//! Baseline diffing for the perf-regression gate.
//!
//! Every `BENCH_*.json` has the shape [`crate::report`] writes:
//! `{"bench", "counters", "walls", "fits"}`. [`check_schema`] validates
//! that shape, and [`diff`] walks two parsed documents (see
//! [`lcl_obs::json`]) section by section. The section a value sits in,
//! not its key name, decides how a divergence is filed:
//!
//! * **`counters` are exact.** Any JSON. Numbers compare by raw source
//!   text, so a counter that moves by 1 is a regression; strings and
//!   `null` compare by value; objects must have the same keys (a missing
//!   *or* extra key is a structural regression) and arrays the same
//!   length.
//! * **`walls` never gate.** Numbers only; every divergence is a note.
//!   Wall-time drift is judged by the end-to-end benchmark, which runs
//!   seeded pairs and measures its own spread. One rule reads walls:
//!   every object in the candidate carrying both `par_speedup` and
//!   `seq_wall_ms` must reach [`SPEEDUP_FLOOR`], but only when the
//!   candidate's `walls.threads_available` is at least
//!   [`SPEEDUP_MIN_THREADS`] (a 1-core host cannot speed anything up)
//!   and `seq_wall_ms` is at least [`SPEEDUP_NOISE_FLOOR_MS`] (below it
//!   the ratio is scheduler noise).
//! * **`fits` are exact except `r2`.** A panel whose `fitted_class`
//!   flips is a regression naming that panel. `r2` drift is a note, but
//!   every fit in the candidate must keep `r2` at or above [`R2_FLOOR`].

use std::fmt;

use lcl_obs::json::{self, Value};

/// Minimum acceptable `par_speedup` wherever it is measured next to a
/// `seq_wall_ms` (see module docs).
pub const SPEEDUP_FLOOR: f64 = 1.5;

/// The speedup floor only gates when the candidate host reports at least
/// this many threads.
pub const SPEEDUP_MIN_THREADS: u64 = 8;

/// The speedup floor only gates problems whose sequential wall is at
/// least this many milliseconds.
pub const SPEEDUP_NOISE_FLOOR_MS: f64 = 5.0;

/// Minimum acceptable `r2` of every fit: a fit this poor means the
/// measured series no longer has the committed shape.
pub const R2_FLOOR: f64 = 0.8;

/// The sections every report holds after its `bench` name.
const SECTIONS: [&str; 3] = ["counters", "walls", "fits"];

/// One divergence between baseline and candidate, or one schema
/// violation.
#[derive(Clone, PartialEq, Debug)]
pub struct Finding {
    /// Path into the document, e.g.
    /// `counters."E1/trees/cole-vishkin".trace.counters.rounds`.
    pub path: String,
    /// Human-readable description of the divergence.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

/// The outcome of a baseline diff.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct DiffReport {
    /// Gating divergences — any entry here means the gate fails.
    pub regressions: Vec<Finding>,
    /// Non-gating observations: wall drift, `r2` drift, floors that
    /// could not gate on this host.
    pub notes: Vec<Finding>,
}

impl DiffReport {
    /// `true` when nothing gating diverged.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Files a finding: a regression, or a note when `reason` says why
    /// the value does not gate.
    fn flag(&mut self, reason: Option<&str>, path: &str, message: String) {
        let path = path.to_string();
        match reason {
            None => self.regressions.push(Finding { path, message }),
            Some(reason) => self.notes.push(Finding {
                path,
                message: format!("{message} ({reason})"),
            }),
        }
    }
}

/// Why a value in `section` under `key` does not gate, or `None` when
/// it compares exactly.
fn note_reason(section: &str, key: &str) -> Option<&'static str> {
    match section {
        "walls" => Some("wall-clock; recorded, never gated"),
        "fits" if key == "r2" => Some("fit statistic; gated by floor, not drift"),
        _ => None,
    }
}

/// Diffs `new` against `base` under the gate's rules (see module docs).
pub fn diff(base: &Value, new: &Value) -> DiffReport {
    let mut report = DiffReport::default();
    for section in ["bench"].into_iter().chain(SECTIONS) {
        match (base.get(section), new.get(section)) {
            (Some(b), Some(n)) => walk(b, n, section, section, "", &mut report),
            (None, None) => {}
            (b, _) => {
                let side = if b.is_none() {
                    "baseline"
                } else {
                    "new report"
                };
                report.flag(None, section, format!("missing from the {side}"));
            }
        }
    }
    gate_speedups(new, &mut report);
    gate_r2(new, &mut report);
    report
}

/// Appends `key` to `path`, quoting keys that are not plain identifiers
/// (stage labels like `E1/trees/cole-vishkin`).
fn join(path: &str, key: &str) -> String {
    let plain = !key.is_empty()
        && key
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
    if plain {
        format!("{path}.{key}")
    } else {
        format!("{path}.{}", json::quote(key))
    }
}

fn walk(base: &Value, new: &Value, section: &str, path: &str, key: &str, report: &mut DiffReport) {
    let reason = note_reason(section, key);
    if std::mem::discriminant(base) != std::mem::discriminant(new) {
        let message = format!(
            "type changed from {} to {}",
            base.type_name(),
            new.type_name()
        );
        report.flag(reason, path, message);
        return;
    }
    match (base, new) {
        (Value::Obj(base_entries), Value::Obj(new_entries)) => {
            for (k, base_v) in base_entries {
                let child = join(path, k);
                match new.get(k) {
                    Some(new_v) => walk(base_v, new_v, section, &child, k, report),
                    None => report.flag(
                        note_reason(section, k),
                        &child,
                        "missing from the new report".into(),
                    ),
                }
            }
            for (k, _) in new_entries {
                if base.get(k).is_none() {
                    report.flag(
                        note_reason(section, k),
                        &join(path, k),
                        "not present in the baseline (new key)".into(),
                    );
                }
            }
        }
        (Value::Arr(base_items), Value::Arr(new_items)) => {
            if base_items.len() != new_items.len() {
                let message = format!(
                    "array length changed from {} to {}",
                    base_items.len(),
                    new_items.len()
                );
                report.flag(reason, path, message);
                return;
            }
            for (i, (b, n)) in base_items.iter().zip(new_items).enumerate() {
                walk(b, n, section, &format!("{path}[{i}]"), key, report);
            }
        }
        (Value::Num(b), Value::Num(n)) if b != n => {
            let message = match reason {
                None => format!("counter changed from {b} to {n}"),
                Some(_) => format!("{b} -> {n}"),
            };
            report.flag(reason, path, message);
        }
        _ => {
            if base != new {
                report.flag(
                    reason,
                    path,
                    format!("value changed from {base:?} to {new:?}"),
                );
            }
        }
    }
}

/// Enforces [`R2_FLOOR`] over every fit of the candidate.
fn gate_r2(new: &Value, report: &mut DiffReport) {
    let Some(fits) = new.get("fits").and_then(Value::as_obj) else {
        return;
    };
    for (name, fit) in fits {
        let Some(r2) = fit.get("r2").and_then(Value::as_f64) else {
            continue;
        };
        if r2 < R2_FLOOR {
            let class = fit.get("fitted_class").and_then(Value::as_str);
            report.flag(
                None,
                &join(&join("fits", name), "r2"),
                format!(
                    "fit quality {r2} for class \"{}\" is below the {R2_FLOOR} floor",
                    class.unwrap_or("?")
                ),
            );
        }
    }
}

/// Enforces [`SPEEDUP_FLOOR`] over the candidate's walls (see module
/// docs for when the floor actually gates).
fn gate_speedups(new: &Value, report: &mut DiffReport) {
    let Some(walls) = new.get("walls") else {
        return;
    };
    let mut found = Vec::new();
    collect_speedup_objects(walls, "walls", &mut found);
    if found.is_empty() {
        return;
    }
    let threads = walls
        .get("threads_available")
        .and_then(Value::as_f64)
        .unwrap_or(0.0) as u64;
    if threads < SPEEDUP_MIN_THREADS {
        report.notes.push(Finding {
            path: "walls.threads_available".into(),
            message: format!(
                "par_speedup floor not gated: host reports {threads} thread(s), \
                 gate needs {SPEEDUP_MIN_THREADS}"
            ),
        });
        return;
    }
    for (path, speedup, seq_wall_ms) in found {
        if seq_wall_ms < SPEEDUP_NOISE_FLOOR_MS {
            report.notes.push(Finding {
                path,
                message: format!(
                    "par_speedup {speedup} not gated: seq wall {seq_wall_ms} ms is \
                     below the {SPEEDUP_NOISE_FLOOR_MS} ms noise floor"
                ),
            });
        } else if speedup < SPEEDUP_FLOOR {
            report.flag(
                None,
                &join(&path, "par_speedup"),
                format!(
                    "parallel speedup {speedup} is below the {SPEEDUP_FLOOR} floor \
                     (seq {seq_wall_ms} ms, {threads} threads available)"
                ),
            );
        }
    }
}

/// Every object under `doc` measuring a parallel speedup, as
/// `(path, par_speedup, seq_wall_ms)` triples in document order.
fn collect_speedup_objects(doc: &Value, path: &str, found: &mut Vec<(String, f64, f64)>) {
    match doc {
        Value::Obj(entries) => {
            if let (Some(speedup), Some(seq)) = (
                doc.get("par_speedup").and_then(Value::as_f64),
                doc.get("seq_wall_ms").and_then(Value::as_f64),
            ) {
                found.push((path.to_string(), speedup, seq));
            }
            for (k, v) in entries {
                collect_speedup_objects(v, &join(path, k), found);
            }
        }
        Value::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                collect_speedup_objects(v, &format!("{path}[{i}]"), found);
            }
        }
        _ => {}
    }
}

/// Validates the shared report shape; returns every violation:
/// a string `bench`, the three sections as objects, numbers only under
/// `walls`, and under `fits` one object per panel with a string
/// `fitted_class`, a number `r2`, and `ns`/`counts` (plus an optional
/// `node_averaged`) arrays of one common length of at least 2.
pub fn check_schema(doc: &Value) -> Vec<Finding> {
    let mut errors = Vec::new();
    let mut fail = |path: &str, message: String| {
        errors.push(Finding {
            path: path.to_string(),
            message,
        })
    };
    let Some(entries) = doc.as_obj() else {
        fail("(document root)", "a report must be an object".into());
        return errors;
    };
    for (k, _) in entries {
        if k != "bench" && !SECTIONS.contains(&&**k) {
            fail(
                &json::quote(k),
                "unknown top-level key (a report holds bench, counters, walls, fits)".into(),
            );
        }
    }
    if !matches!(doc.get("bench"), Some(Value::Str(_))) {
        fail(
            "bench",
            "a report needs its benchmark name as a string".into(),
        );
    }
    for section in SECTIONS {
        match doc.get(section) {
            Some(walls @ Value::Obj(_)) if section == "walls" => {
                check_walls(walls, section, &mut fail);
            }
            Some(Value::Obj(items)) if section == "fits" => {
                for (name, fit) in items {
                    check_fit(fit, &join(section, name), &mut fail);
                }
            }
            Some(Value::Obj(_)) => {}
            Some(other) => fail(
                section,
                format!("section must be an object, found {}", other.type_name()),
            ),
            None => fail(section, "required section is missing".into()),
        }
    }
    errors
}

fn check_walls(value: &Value, path: &str, fail: &mut impl FnMut(&str, String)) {
    match value {
        Value::Num(_) => {}
        Value::Obj(entries) => {
            for (k, v) in entries {
                check_walls(v, &join(path, k), fail);
            }
        }
        Value::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                check_walls(v, &format!("{path}[{i}]"), fail);
            }
        }
        other => fail(
            path,
            format!("walls hold numbers only, found {}", other.type_name()),
        ),
    }
}

fn check_fit(fit: &Value, path: &str, fail: &mut impl FnMut(&str, String)) {
    if fit.as_obj().is_none() {
        fail(path, "a fit must be an object".into());
        return;
    }
    if !matches!(fit.get("fitted_class"), Some(Value::Str(_))) {
        fail(
            &join(path, "fitted_class"),
            "a fit needs a string fitted class".into(),
        );
    }
    if !matches!(fit.get("r2"), Some(Value::Num(_))) {
        fail(&join(path, "r2"), "a fit needs a number r2".into());
    }
    let mut points = None;
    for key in ["ns", "counts", "node_averaged"] {
        let key_path = join(path, key);
        match (fit.get(key), points) {
            (None, _) if key == "node_averaged" => {}
            (None, _) => fail(&key_path, "required array is missing".into()),
            (Some(Value::Arr(items)), None) if items.len() < 2 => fail(
                &key_path,
                format!("a fit needs at least 2 points, found {}", items.len()),
            ),
            (Some(Value::Arr(items)), None) => points = Some(items.len()),
            (Some(Value::Arr(items)), Some(n)) if items.len() != n => fail(
                &key_path,
                format!("expected {n} points, found {}", items.len()),
            ),
            (Some(Value::Arr(_)), Some(_)) => {}
            (Some(other), _) => fail(
                &key_path,
                format!("must be an array, found {}", other.type_name()),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_obs::json::parse;

    /// Gives a test document built with `format!` the `'static` lifetime
    /// the fixtures' values borrow.
    fn leak(text: String) -> &'static str {
        Box::leak(text.into_boxed_str())
    }

    /// A report in the shared shape with the given section bodies.
    fn report(counters: &str, walls: &str, fits: &str) -> Value<'static> {
        parse(leak(format!(
            r#"{{"bench": "t", "counters": {counters}, "walls": {walls}, "fits": {fits}}}"#
        )))
        .expect("valid report")
    }

    /// The value at `path` (object keys, or array indices as text).
    fn at<'d>(doc: &'d mut Value<'static>, path: &[&str]) -> &'d mut Value<'static> {
        path.iter().fold(doc, |value, key| match value {
            Value::Obj(entries) => &mut entries.iter_mut().find(|(k, _)| k == key).expect(key).1,
            Value::Arr(items) => &mut items[key.parse::<usize>().expect("an index")],
            _ => panic!("{key}: not a container"),
        })
    }

    const STAGE: &str = "E1/trees/cole-vishkin";

    fn obs_doc() -> Value<'static> {
        report(
            r#"{"E1/trees/cole-vishkin": {"order": 0, "trace": {
                  "name": "local/sync",
                  "counters": {"rounds": 4, "messages": 1600, "nodes": 200},
                  "hists": {"view-nodes": {"count": 4, "sum": 10, "buckets": {"2": 4}}},
                  "children": [{"name": "round", "counters": {"messages": 400}, "children": []}]
               }}}"#,
            r#"{"E1/trees/cole-vishkin": {"trace": {"wall_us": 412, "children": [{"wall_us": 90}]}}}"#,
            "{}",
        )
    }

    #[test]
    fn identical_documents_are_clean() {
        let doc = obs_doc();
        let report = diff(&doc, &doc);
        assert!(report.is_clean(), "unexpected: {:?}", report.regressions);
        assert!(report.notes.is_empty());
    }

    #[test]
    fn fabricated_counter_bump_regresses_and_names_stage_and_counter() {
        let base = obs_doc();
        let mut new = base.clone();
        *at(
            &mut new,
            &["counters", STAGE, "trace", "counters", "rounds"],
        ) = Value::Num("5");
        let report = diff(&base, &new);
        assert_eq!(report.regressions.len(), 1);
        let text = report.regressions[0].to_string();
        assert!(
            text.contains("E1/trees/cole-vishkin"),
            "stage missing: {text}"
        );
        assert!(text.contains("rounds"), "counter missing: {text}");
        assert!(text.contains("4 to 5"), "values missing: {text}");
    }

    #[test]
    fn wall_time_drift_inside_tolerance_is_ignored() {
        let base = obs_doc();
        let mut new = base.clone();
        // 412 µs -> 500 µs is +21 %.
        *at(&mut new, &["walls", STAGE, "trace", "wall_us"]) = Value::Num("500");
        let report = diff(&base, &new);
        assert!(report.is_clean(), "unexpected: {:?}", report.regressions);
    }

    #[test]
    fn wall_time_blowup_only_notes() {
        let base = obs_doc();
        let mut new = base.clone();
        // 412 µs -> 2000 µs: far outside any noise band, still a note.
        *at(&mut new, &["walls", STAGE, "trace", "wall_us"]) = Value::Num("2000");
        let report = diff(&base, &new);
        assert!(report.is_clean(), "unexpected: {:?}", report.regressions);
        assert_eq!(report.notes.len(), 1);
        assert!(report.notes[0].path.contains("wall_us"));
        assert!(report.notes[0].message.contains("412 -> 2000"));
    }

    #[test]
    fn re_engine_timing_drift_has_zero_regressions() {
        // Per-lookup timings and per-level walls of a regenerated
        // re-engine report move on every run; only the counters beside
        // them are exact.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_re_engine.json");
        let text = std::fs::read_to_string(path).expect("baseline exists");
        let base = parse(leak(text)).expect("baseline parses");
        let mut new = base.clone();
        for (key, value) in [
            ("interned_ns", "41.2366"),
            ("linear_scan_ns", "317.9704"),
            ("speedup", "7.7109"),
        ] {
            *at(&mut new, &["walls", "label_lookup", key]) = Value::Num(value);
        }
        *at(
            &mut new,
            &["walls", "problems", "0", "levels", "1", "wall_ms"],
        ) = Value::Num("9.1");
        let report = diff(&base, &new);
        assert!(report.is_clean(), "{:?}", report.regressions);
        let drifted = report.notes.iter().filter(|n| n.message.contains(" -> "));
        assert_eq!(drifted.count(), 4, "{:?}", report.notes);
    }

    #[test]
    fn missing_and_extra_keys_are_structural_regressions() {
        let base = report(r#"{"s": {"a": 1, "b": 2}}"#, "{}", "{}");
        let new = report(r#"{"s": {"a": 1, "c": 3}}"#, "{}", "{}");
        let report = diff(&base, &new);
        let text: Vec<String> = report.regressions.iter().map(Finding::to_string).collect();
        assert_eq!(report.regressions.len(), 2, "{text:?}");
        assert!(text[0].contains("missing"), "{text:?}");
        assert!(text[1].contains("new key"), "{text:?}");
    }

    #[test]
    fn type_change_regresses() {
        let base = report(r#"{"fixpoint_of": null}"#, "{}", "{}");
        let new = report(r#"{"fixpoint_of": 1}"#, "{}", "{}");
        let report = diff(&base, &new);
        assert_eq!(report.regressions.len(), 1, "{report:?}");
        assert!(report.regressions[0].message.contains("null to number"));
    }

    #[test]
    fn informational_keys_only_note() {
        let base = report(
            "{}",
            r#"{"par_speedup": 3.1, "threads_available": 16}"#,
            "{}",
        );
        let new = report(
            "{}",
            r#"{"par_speedup": 1.2, "threads_available": 4}"#,
            "{}",
        );
        let report = diff(&base, &new);
        assert!(report.is_clean());
        assert_eq!(report.notes.len(), 2);
    }

    fn speedup_doc(threads: u64, speedup: f64, seq_wall_ms: f64) -> Value<'static> {
        report(
            r#"{"problems": [{"name": "e1"}]}"#,
            leak(format!(
                r#"{{"threads_available": {threads},
                     "problems": [{{"seq_wall_ms": {seq_wall_ms},
                                    "par_wall_ms": 1.0, "par_speedup": {speedup}}}]}}"#
            )),
            "{}",
        )
    }

    #[test]
    fn speedup_below_floor_regresses_on_a_big_host() {
        let base = speedup_doc(8, 2.1, 100.0);
        let new = speedup_doc(8, 1.1, 100.0);
        let report = diff(&base, &new);
        assert_eq!(report.regressions.len(), 1, "{report:?}");
        let text = report.regressions[0].to_string();
        assert!(text.contains("par_speedup"), "{text}");
        assert!(text.contains("below the 1.5 floor"), "{text}");
        // Meeting the floor is clean even when the ratio drifted.
        let ok = speedup_doc(8, 1.8, 100.0);
        assert!(diff(&base, &ok).is_clean());
    }

    #[test]
    fn speedup_floor_is_inert_on_small_hosts_and_small_problems() {
        // A 1-thread host cannot speed anything up: note, don't gate.
        let base = speedup_doc(1, 0.9, 100.0);
        let report = diff(&base, &base);
        assert!(report.is_clean(), "{report:?}");
        assert!(report.notes.iter().any(|n| n.message.contains("not gated")));
        // On a big host, a sub-floor ratio on a tiny problem is noise.
        let tiny = speedup_doc(8, 0.7, 0.4);
        let report = diff(&tiny, &tiny);
        assert!(report.is_clean(), "{report:?}");
        assert!(report
            .notes
            .iter()
            .any(|n| n.message.contains("noise floor")));
    }

    #[test]
    fn raw_text_comparison_is_bit_exact() {
        // 1.50 vs 1.5 are numerically equal but textually different:
        // counters must be bit-identical.
        let base = report(r#"{"s": {"probes": 1.50}}"#, "{}", "{}");
        let new = report(r#"{"s": {"probes": 1.5}}"#, "{}", "{}");
        let report = diff(&base, &new);
        assert_eq!(report.regressions.len(), 1);
    }

    #[test]
    fn array_length_change_regresses() {
        let base = report(r#"{"levels": [1, 2, 3]}"#, "{}", "{}");
        let new = report(r#"{"levels": [1, 2]}"#, "{}", "{}");
        let report = diff(&base, &new);
        assert_eq!(report.regressions.len(), 1);
        assert!(report.regressions[0].message.contains("3 to 2"));
    }

    fn curves_doc(class: &str, r2: f64) -> Value<'static> {
        report(
            "{}",
            "{}",
            leak(format!(
                r#"{{"trees/cole-vishkin-rounds": {{
                       "fitted_class": "{class}", "r2": {r2},
                       "ns": [16, 1024, 1048576], "counts": [3, 4, 4]
                     }},
                     "volume/const-probe": {{
                       "fitted_class": "1", "r2": 1.0,
                       "ns": [16, 64], "counts": [2, 2],
                       "node_averaged": [1.5, 1.5]
                     }}}}"#
            )),
        )
    }

    #[test]
    fn schema_table_flags_each_violation_once() {
        assert!(check_schema(&obs_doc()).is_empty());
        assert!(check_schema(&curves_doc("log* n", 0.97)).is_empty());
        let fit = |body: &str| leak(format!(r#"{{"p": {body}}}"#));
        let cases = [
            (
                "a missing section",
                parse(r#"{"bench": "t", "counters": {}, "walls": {}}"#).expect("parses"),
                "fits",
            ),
            (
                "a non-number under walls",
                report("{}", r#"{"a": {"b": [1.0, "fast"]}}"#, "{}"),
                "walls.a.b[1]",
            ),
            (
                "a fit without fitted_class",
                report(
                    "{}",
                    "{}",
                    fit(r#"{"r2": 1.0, "ns": [1, 2], "counts": [5, 5]}"#),
                ),
                "fits.p.fitted_class",
            ),
            (
                "ragged ns/counts",
                report(
                    "{}",
                    "{}",
                    fit(r#"{"fitted_class": "n", "r2": 0.99, "ns": [1, 2, 3], "counts": [5, 6]}"#),
                ),
                "fits.p.counts",
            ),
        ];
        for (case, doc, path) in cases {
            let errors = check_schema(&doc);
            assert_eq!(errors.len(), 1, "{case}: {errors:?}");
            assert_eq!(errors[0].path, path, "{case}: {errors:?}");
        }
    }

    #[test]
    fn fitted_class_flip_regresses_and_names_the_panel() {
        // The acceptance scenario: a candidate whose Cole–Vishkin panel
        // now fits log n against a log* n baseline must fail, naming
        // the panel — even though its R² is excellent.
        let base = curves_doc("log* n", 0.97);
        let new = curves_doc("log n", 0.99);
        let report = diff(&base, &new);
        assert_eq!(report.regressions.len(), 1, "{report:?}");
        let text = report.regressions[0].to_string();
        assert!(text.contains("trees/cole-vishkin-rounds"), "{text}");
        assert!(text.contains("log* n"), "{text}");
        assert!(text.contains("log n"), "{text}");
        // The r2 drift rides along as a note, never a regression.
        assert!(report
            .notes
            .iter()
            .any(|n| n.message.contains("gated by floor")));
    }

    #[test]
    fn r2_below_the_floor_regresses_even_unchanged() {
        let bad = curves_doc("log* n", 0.42);
        let report = diff(&bad, &bad);
        assert_eq!(report.regressions.len(), 1, "{report:?}");
        let text = report.regressions[0].to_string();
        assert!(text.contains("below the 0.8 floor"), "{text}");
        assert!(text.contains("trees/cole-vishkin-rounds"), "{text}");

        // At or above the floor, pure r2 drift stays clean.
        let base = curves_doc("log* n", 0.97);
        let drifted = curves_doc("log* n", 0.95);
        let report = diff(&base, &drifted);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.notes.len(), 1);
    }

    #[test]
    fn committed_baselines_pass_their_schemas() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut checked = 0;
        for entry in std::fs::read_dir(root).expect("repository root") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("baseline reads");
            let doc = parse(&text).expect("baseline parses");
            let errors = check_schema(&doc);
            assert!(errors.is_empty(), "{name}: {errors:?}");
            // Self-diff must be clean: the gate's fixed point.
            let report = diff(&doc, &doc);
            assert!(report.is_clean(), "{name}: {:?}", report.regressions);
            checked += 1;
        }
        assert!(checked >= 7, "only {checked} baselines found");
    }
}
