//! Baseline diffing for the perf-regression gate.
//!
//! [`diff`] walks two parsed baseline documents (see [`lcl_obs::json`])
//! and classifies every divergence:
//!
//! * **Counters and structure are exact.** Numbers compare by raw source
//!   text, so a counter that moves by 1 is a regression; objects must
//!   have the same keys (a missing *or* extra key is a structural
//!   regression) and arrays the same length.
//! * **Wall times get a tolerance.** Keys in [`WALL_KEYS`] are timing
//!   measurements — inherently noisy — and only regress when they leave
//!   the relative tolerance band *and* an absolute noise floor.
//! * **Derived machine facts are informational.** Keys in
//!   [`INFO_KEYS`] (`threads_available`) vary with the host; changes are
//!   reported as notes, never as regressions.
//! * **Parallel speedup is gated by a floor, not by drift.**
//!   `par_speedup` is derived from two wall times, so its drift is never
//!   compared against the baseline; instead every object carrying both
//!   `par_speedup` and `seq_wall_ms` must meet
//!   [`DiffOptions::speedup_floor`] — but only when the candidate host
//!   actually has [`DiffOptions::speedup_min_threads`] threads, and only
//!   for problems big enough (`seq_wall_ms` at or above
//!   [`DiffOptions::speedup_noise_floor_ms`]) for the ratio to be signal
//!   rather than scheduler noise.
//!
//! * **Fit quality is gated by a floor, not by drift.** `r2` is a
//!   derived regression statistic; its drift is only noted, but every
//!   object carrying both `fitted_class` and `r2` (the curves panels)
//!   must keep R² at or above [`DiffOptions::r2_floor`]. The
//!   `fitted_class` string itself diffs bit-exactly through the normal
//!   walk, so a panel whose asymptotic class flips is a regression
//!   naming that panel — while a `BENCH_curves.json` document carries
//!   no wall keys at all, so wall-time variation alone can never fail
//!   the curves gate.
//!
//! [`check_schema`] validates a document against the committed baseline
//! schemas (`BENCH_obs.json` registry dumps and `BENCH_re_engine.json`
//! reports), auto-detected by shape.

use std::fmt;

use lcl_obs::json::Value;

/// Keys holding wall-clock measurements (or rates derived from them):
/// compared within tolerance.
pub const WALL_KEYS: [&str; 11] = [
    "wall_us",
    "wall_ms",
    "seq_wall_ms",
    "par_wall_ms",
    "wall_ms_t2",
    "hit_wall_us",
    "miss_wall_ms",
    "total_wall_ms",
    "clean_wall_ms",
    "chaos_wall_ms",
    "throughput_rps",
];

/// Keys derived from the host machine: reported, never gating.
pub const INFO_KEYS: [&str; 1] = ["threads_available"];

/// The derived ratio gated by [`DiffOptions::speedup_floor`] instead of
/// baseline drift.
pub const SPEEDUP_KEY: &str = "par_speedup";

/// The derived regression statistic gated by [`DiffOptions::r2_floor`]
/// instead of baseline drift.
pub const R2_KEY: &str = "r2";

/// Absolute noise floor for microsecond timings (`wall_us`).
const FLOOR_US: f64 = 200.0;
/// Absolute noise floor for millisecond timings (`*_ms`).
const FLOOR_MS: f64 = 0.5;

/// Options for [`diff`].
#[derive(Clone, Copy, Debug)]
pub struct DiffOptions {
    /// Relative tolerance for wall-time keys (0.30 = ±30 %).
    pub wall_tolerance: f64,
    /// Minimum acceptable `par_speedup` wherever it is measured next to a
    /// `seq_wall_ms` (see module docs).
    pub speedup_floor: f64,
    /// The speedup floor only gates when the candidate host reports at
    /// least this many threads — a 1-core runner cannot speed anything
    /// up, and its honest sub-1.0 ratios must not fail the gate.
    pub speedup_min_threads: u64,
    /// The speedup floor only gates problems whose sequential wall is at
    /// least this many milliseconds; below it the ratio is noise.
    pub speedup_noise_floor_ms: f64,
    /// Minimum acceptable `r2` wherever a fitted asymptotic class is
    /// reported (the curves panels): a fit this poor means the measured
    /// series no longer has the committed shape.
    pub r2_floor: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self {
            wall_tolerance: 0.30,
            speedup_floor: 1.5,
            speedup_min_threads: 8,
            speedup_noise_floor_ms: 5.0,
            r2_floor: 0.8,
        }
    }
}

/// One divergence between baseline and candidate.
#[derive(Clone, PartialEq, Debug)]
pub struct Finding {
    /// Path into the document, e.g.
    /// `"000/E1/trees/cole-vishkin" . trace.counters.rounds`.
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
    /// Non-gating observations (wall drift inside tolerance is *not*
    /// noted; informational keys and such are).
    pub notes: Vec<Finding>,
}

impl DiffReport {
    /// `true` when nothing gating diverged.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Diffs `new` against `base` under the gate's rules (see module docs).
pub fn diff(base: &Value, new: &Value, opts: DiffOptions) -> DiffReport {
    let mut report = DiffReport::default();
    walk(base, new, "", "", opts, &mut report);
    gate_speedups(new, opts, &mut report);
    gate_r2(new, "", opts, &mut report);
    report
}

/// Enforces the `r2` floor over the candidate document: every object
/// carrying both `fitted_class` and [`R2_KEY`] (a curves panel) must
/// keep its fit quality at or above [`DiffOptions::r2_floor`].
fn gate_r2(new: &Value, path: &str, opts: DiffOptions, report: &mut DiffReport) {
    match new {
        Value::Obj(entries) => {
            if let (Some(Value::Str(class)), Some(r2)) = (
                new.get("fitted_class"),
                new.get(R2_KEY).and_then(Value::as_f64),
            ) {
                if r2 < opts.r2_floor {
                    report.regressions.push(Finding {
                        path: display_path(&join(path, R2_KEY)),
                        message: format!(
                            "fit quality {r2} for class \"{class}\" is below the {} floor",
                            opts.r2_floor
                        ),
                    });
                }
            }
            for (k, v) in entries {
                gate_r2(v, &join(path, k), opts, report);
            }
        }
        Value::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                gate_r2(v, &format!("{path}[{i}]"), opts, report);
            }
        }
        _ => {}
    }
}

/// Enforces the `par_speedup` floor over the candidate document: every
/// object holding both [`SPEEDUP_KEY`] and `seq_wall_ms` is checked
/// (see module docs for when the floor actually gates).
fn gate_speedups(new: &Value, opts: DiffOptions, report: &mut DiffReport) {
    let threads = new
        .get("threads_available")
        .and_then(Value::as_f64)
        .unwrap_or(0.0) as u64;
    if threads < opts.speedup_min_threads {
        if !find_speedup_objects(new, "").is_empty() {
            report.notes.push(Finding {
                path: "(document root)".into(),
                message: format!(
                    "par_speedup floor not gated: host reports {threads} thread(s), \
                     gate needs {}",
                    opts.speedup_min_threads
                ),
            });
        }
        return;
    }
    for (path, speedup, seq_wall_ms) in find_speedup_objects(new, "") {
        if seq_wall_ms < opts.speedup_noise_floor_ms {
            report.notes.push(Finding {
                path: display_path(&path),
                message: format!(
                    "par_speedup {speedup} not gated: seq wall {seq_wall_ms} ms is \
                     below the {} ms noise floor",
                    opts.speedup_noise_floor_ms
                ),
            });
        } else if speedup < opts.speedup_floor {
            report.regressions.push(Finding {
                path: display_path(&join(&path, SPEEDUP_KEY)),
                message: format!(
                    "parallel speedup {speedup} is below the {} floor \
                     (seq {seq_wall_ms} ms, {threads} threads available)",
                    opts.speedup_floor
                ),
            });
        }
    }
}

/// Every object in `doc` measuring a parallel speedup, as
/// `(path, par_speedup, seq_wall_ms)` triples in document order.
fn find_speedup_objects(doc: &Value, path: &str) -> Vec<(String, f64, f64)> {
    let mut found = Vec::new();
    collect_speedup_objects(doc, path, &mut found);
    found
}

fn collect_speedup_objects(doc: &Value, path: &str, found: &mut Vec<(String, f64, f64)>) {
    match doc {
        Value::Obj(entries) => {
            if let (Some(speedup), Some(seq)) = (
                doc.get(SPEEDUP_KEY).and_then(Value::as_f64),
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

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        // Top-level keys are stage names; quote them so the stage is
        // unmistakable in gate output.
        format!("\"{key}\"")
    } else {
        format!("{path}.{key}")
    }
}

fn walk(
    base: &Value,
    new: &Value,
    path: &str,
    key: &str,
    opts: DiffOptions,
    report: &mut DiffReport,
) {
    if std::mem::discriminant(base) != std::mem::discriminant(new) {
        report.regressions.push(Finding {
            path: display_path(path),
            message: format!(
                "type changed from {} to {}",
                base.type_name(),
                new.type_name()
            ),
        });
        return;
    }
    match (base, new) {
        (Value::Obj(base_entries), Value::Obj(new_entries)) => {
            for (k, base_v) in base_entries {
                match new.get(k) {
                    Some(new_v) => walk(base_v, new_v, &join(path, k), k, opts, report),
                    None => report.regressions.push(Finding {
                        path: display_path(&join(path, k)),
                        message: "missing from the new report".into(),
                    }),
                }
            }
            for (k, _) in new_entries {
                if base.get(k).is_none() {
                    report.regressions.push(Finding {
                        path: display_path(&join(path, k)),
                        message: "not present in the baseline (new key)".into(),
                    });
                }
            }
        }
        (Value::Arr(base_items), Value::Arr(new_items)) => {
            if base_items.len() != new_items.len() {
                report.regressions.push(Finding {
                    path: display_path(path),
                    message: format!(
                        "array length changed from {} to {}",
                        base_items.len(),
                        new_items.len()
                    ),
                });
                return;
            }
            for (i, (b, n)) in base_items.iter().zip(new_items).enumerate() {
                walk(b, n, &format!("{path}[{i}]"), key, opts, report);
            }
        }
        (Value::Num(base_raw), Value::Num(new_raw)) => {
            compare_numbers(base_raw, new_raw, path, key, opts, report);
        }
        _ => {
            if base != new {
                report.regressions.push(Finding {
                    path: display_path(path),
                    message: format!("value changed from {base:?} to {new:?}"),
                });
            }
        }
    }
}

fn display_path(path: &str) -> String {
    if path.is_empty() {
        "(document root)".into()
    } else {
        path.to_string()
    }
}

fn compare_numbers(
    base_raw: &str,
    new_raw: &str,
    path: &str,
    key: &str,
    opts: DiffOptions,
    report: &mut DiffReport,
) {
    if base_raw == new_raw {
        return;
    }
    if key == SPEEDUP_KEY {
        report.notes.push(Finding {
            path: display_path(path),
            message: format!("{base_raw} -> {new_raw} (derived ratio; gated by floor, not drift)"),
        });
        return;
    }
    if key == R2_KEY {
        report.notes.push(Finding {
            path: display_path(path),
            message: format!("{base_raw} -> {new_raw} (fit statistic; gated by floor, not drift)"),
        });
        return;
    }
    if INFO_KEYS.contains(&key) {
        report.notes.push(Finding {
            path: display_path(path),
            message: format!("{base_raw} -> {new_raw} (informational, host-dependent)"),
        });
        return;
    }
    if WALL_KEYS.contains(&key) {
        let (base_v, new_v) = match (base_raw.parse::<f64>(), new_raw.parse::<f64>()) {
            (Ok(b), Ok(n)) => (b, n),
            _ => {
                report.regressions.push(Finding {
                    path: display_path(path),
                    message: format!("unparseable wall time ({base_raw} -> {new_raw})"),
                });
                return;
            }
        };
        let floor = if key == "wall_us" { FLOOR_US } else { FLOOR_MS };
        let drift = (new_v - base_v).abs();
        if drift > floor && drift > base_v.abs() * opts.wall_tolerance {
            report.regressions.push(Finding {
                path: display_path(path),
                message: format!(
                    "wall time drifted {base_raw} -> {new_raw} \
                     (>{:.0} % beyond the {floor} noise floor)",
                    opts.wall_tolerance * 100.0
                ),
            });
        }
        return;
    }
    report.regressions.push(Finding {
        path: display_path(path),
        message: format!("counter changed from {base_raw} to {new_raw}"),
    });
}

/// The committed baseline schemas.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Schema {
    /// `BENCH_obs.json`: a [`lcl_obs::Registry`] dump — panel label →
    /// `{order, trace}`.
    Obs,
    /// `BENCH_re_engine.json`: the round-elimination engine report.
    ReEngine,
    /// `BENCH_service.json`: the classification-service report.
    Service,
    /// `BENCH_curves.json`: fitted asymptotic classes per panel.
    Curves,
    /// `BENCH_shard.json`: the sharded-substrate report.
    Shard,
    /// `BENCH_procshard.json`: the process-per-shard substrate report.
    ProcShard,
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Obs => write!(f, "obs registry"),
            Self::ReEngine => write!(f, "re-engine report"),
            Self::Service => write!(f, "service report"),
            Self::Curves => write!(f, "curves report"),
            Self::Shard => write!(f, "shard report"),
            Self::ProcShard => write!(f, "procshard report"),
        }
    }
}

/// Guesses which baseline schema a document uses: `"bench": "service"`
/// marks the service report, `"bench": "curves"` the curves report,
/// `"bench": "shard"` the shard report, `"bench": "procshard"` the
/// process-per-shard report, any other `"bench"` the re-engine report,
/// and its absence the obs registry.
pub fn detect_schema(doc: &Value) -> Schema {
    match doc.get("bench") {
        Some(Value::Str(kind)) if *kind == "service" => Schema::Service,
        Some(Value::Str(kind)) if *kind == "curves" => Schema::Curves,
        Some(Value::Str(kind)) if *kind == "shard" => Schema::Shard,
        Some(Value::Str(kind)) if *kind == "procshard" => Schema::ProcShard,
        Some(_) => Schema::ReEngine,
        None => Schema::Obs,
    }
}

/// Validates `doc` against `schema`; returns every violation.
pub fn check_schema(doc: &Value, schema: Schema) -> Vec<Finding> {
    let mut errors = Vec::new();
    match schema {
        Schema::Obs => check_obs(doc, &mut errors),
        Schema::ReEngine => check_re_engine(doc, &mut errors),
        Schema::Service => check_service(doc, &mut errors),
        Schema::Curves => check_curves(doc, &mut errors),
        Schema::Shard => check_shard(doc, &mut errors),
        Schema::ProcShard => check_procshard(doc, &mut errors),
    }
    errors
}

fn fail(errors: &mut Vec<Finding>, path: &str, message: impl Into<String>) {
    errors.push(Finding {
        path: display_path(path),
        message: message.into(),
    });
}

fn require_num(obj: &Value, key: &str, path: &str, errors: &mut Vec<Finding>) {
    match obj.get(key) {
        Some(Value::Num(_)) => {}
        Some(other) => fail(
            errors,
            &join(path, key),
            format!("expected a number, found {}", other.type_name()),
        ),
        None => fail(errors, &join(path, key), "required key is missing"),
    }
}

fn check_obs(doc: &Value, errors: &mut Vec<Finding>) {
    let Some(entries) = doc.as_obj() else {
        fail(errors, "", "top level must be an object of panels");
        return;
    };
    if entries.is_empty() {
        fail(errors, "", "registry has no panels");
    }
    for (label, panel) in entries {
        let path = join("", label);
        require_num(panel, "order", &path, errors);
        match panel.get("trace") {
            Some(trace) => check_span(trace, &format!("{path}.trace"), errors),
            None => fail(errors, &join(&path, "trace"), "required key is missing"),
        }
    }
}

fn check_span(span: &Value, path: &str, errors: &mut Vec<Finding>) {
    if span.as_obj().is_none() {
        fail(errors, path, "span must be an object");
        return;
    }
    match span.get("name") {
        Some(Value::Str(_)) => {}
        _ => fail(errors, &join(path, "name"), "span needs a string name"),
    }
    require_num(span, "wall_us", path, errors);
    match span.get("counters") {
        Some(Value::Obj(counters)) => {
            for (counter, value) in counters {
                if !matches!(value, Value::Num(_)) {
                    fail(
                        errors,
                        &join(&join(path, "counters"), counter),
                        format!("counter must be a number, found {}", value.type_name()),
                    );
                }
            }
        }
        _ => fail(
            errors,
            &join(path, "counters"),
            "span needs a counters object",
        ),
    }
    if let Some(hists) = span.get("hists") {
        match hists.as_obj() {
            Some(entries) => {
                for (name, hist) in entries {
                    let hist_path = join(&join(path, "hists"), name);
                    if hist.as_obj().is_none() {
                        fail(errors, &hist_path, "histogram must be an object");
                        continue;
                    }
                    require_num(hist, "count", &hist_path, errors);
                    require_num(hist, "sum", &hist_path, errors);
                }
            }
            None => fail(errors, &join(path, "hists"), "hists must be an object"),
        }
    }
    if let Some(children) = span.get("children") {
        match children.as_arr() {
            Some(items) => {
                for (i, child) in items.iter().enumerate() {
                    check_span(child, &format!("{}[{i}]", join(path, "children")), errors);
                }
            }
            None => fail(errors, &join(path, "children"), "children must be an array"),
        }
    }
}

fn check_re_engine(doc: &Value, errors: &mut Vec<Finding>) {
    if doc.as_obj().is_none() {
        fail(errors, "", "top level must be an object");
        return;
    }
    match doc.get("bench") {
        Some(Value::Str(_)) => {}
        _ => fail(errors, "\"bench\"", "required string key is missing"),
    }
    require_num(doc, "threads_available", "", errors);
    let Some(problems) = doc.get("problems").and_then(Value::as_arr) else {
        fail(errors, "\"problems\"", "required array key is missing");
        return;
    };
    for (i, problem) in problems.iter().enumerate() {
        let path = format!("\"problems\"[{i}]");
        if problem.as_obj().is_none() {
            fail(errors, &path, "problem entry must be an object");
            continue;
        }
        match problem.get("name") {
            Some(Value::Str(_)) => {}
            _ => fail(errors, &join(&path, "name"), "problem needs a string name"),
        }
        for key in [
            "f_steps",
            "seq_wall_ms",
            "par_wall_ms",
            "par_speedup",
            "node_cache_hits",
            "node_cache_misses",
        ] {
            require_num(problem, key, &path, errors);
        }
        let Some(levels) = problem.get("levels").and_then(Value::as_arr) else {
            fail(
                errors,
                &join(&path, "levels"),
                "required array key is missing",
            );
            continue;
        };
        for (j, level) in levels.iter().enumerate() {
            let level_path = format!("{}[{j}]", join(&path, "levels"));
            if level.as_obj().is_none() {
                fail(errors, &level_path, "level entry must be an object");
                continue;
            }
            for key in [
                "level",
                "labels_full",
                "labels",
                "configurations",
                "cache_hits",
                "cache_misses",
                "wall_ms",
            ] {
                require_num(level, key, &level_path, errors);
            }
            match level.get("fixpoint_of") {
                Some(Value::Num(_) | Value::Null) => {}
                Some(other) => fail(
                    errors,
                    &join(&level_path, "fixpoint_of"),
                    format!("must be a number or null, found {}", other.type_name()),
                ),
                None => fail(
                    errors,
                    &join(&level_path, "fixpoint_of"),
                    "required key is missing",
                ),
            }
        }
    }
    // The 1/2/8-thread sweep feeding the speedup gate.
    match doc.get("thread_sweep") {
        Some(sweep) => {
            let path = "\"thread_sweep\"";
            if sweep.as_obj().is_none() {
                fail(errors, path, "thread sweep must be an object");
                return;
            }
            match sweep.get("name") {
                Some(Value::Str(_)) => {}
                _ => fail(errors, &join(path, "name"), "sweep needs a string name"),
            }
            for key in [
                "f_steps",
                "seq_wall_ms",
                "wall_ms_t2",
                "par_wall_ms",
                "par_speedup",
            ] {
                require_num(sweep, key, path, errors);
            }
        }
        None => fail(errors, "\"thread_sweep\"", "required key is missing"),
    }
}

fn check_service(doc: &Value, errors: &mut Vec<Finding>) {
    if doc.as_obj().is_none() {
        fail(errors, "", "top level must be an object");
        return;
    }
    match doc.get("bench") {
        Some(Value::Str(kind)) if *kind == "service" => {}
        Some(_) => fail(errors, "\"bench\"", "must be the string \"service\""),
        None => fail(errors, "\"bench\"", "required string key is missing"),
    }
    // Counters first (seed-determined, diffed bit-exact), then the
    // host-dependent wall keys (diffed under tolerance).
    for key in [
        "threads_available",
        "workers",
        "requests",
        "unique_problems",
        "computed",
        "served_from_cache",
        "dedup_permille",
        "store_entries",
        "duplicates_in_mix",
        "resumed_jobs",
        "resume_fingerprint_match",
        "hit_wall_us",
        "miss_wall_ms",
        "total_wall_ms",
        "throughput_rps",
    ] {
        require_num(doc, key, "", errors);
    }
}

fn check_shard(doc: &Value, errors: &mut Vec<Finding>) {
    if doc.as_obj().is_none() {
        fail(errors, "", "top level must be an object");
        return;
    }
    match doc.get("bench") {
        Some(Value::Str(kind)) if *kind == "shard" => {}
        Some(_) => fail(errors, "\"bench\"", "must be the string \"shard\""),
        None => fail(errors, "\"bench\"", "required string key is missing"),
    }
    // Deterministic counters first (diffed bit-exact), then the one
    // host-dependent wall key (diffed under tolerance).
    for key in [
        "shards",
        "runner_threads",
        "nodes",
        "edges",
        "supersteps",
        "messages",
        "halo_messages",
        "halo_bytes",
        "shards_crashed",
        "shards_rebuilt",
        "checkpoints",
        "frontier_nodes",
        "repaired_nodes",
        "certified",
        "total_wall_ms",
    ] {
        require_num(doc, key, "", errors);
    }
}

fn check_procshard(doc: &Value, errors: &mut Vec<Finding>) {
    if doc.as_obj().is_none() {
        fail(errors, "", "top level must be an object");
        return;
    }
    match doc.get("bench") {
        Some(Value::Str(kind)) if *kind == "procshard" => {}
        Some(_) => fail(errors, "\"bench\"", "must be the string \"procshard\""),
        None => fail(errors, "\"bench\"", "required string key is missing"),
    }
    // Deterministic counters first (diffed bit-exact), then the
    // host-dependent wall keys (diffed under tolerance).
    for key in [
        "shards",
        "nodes",
        "edges",
        "supersteps",
        "messages",
        "halo_messages",
        "halo_bytes",
        "kills_injected",
        "respawns",
        "rehydrated_shards",
        "faults",
        "certified",
        "clean_wall_ms",
        "chaos_wall_ms",
        "total_wall_ms",
    ] {
        require_num(doc, key, "", errors);
    }
}

fn check_curves(doc: &Value, errors: &mut Vec<Finding>) {
    if doc.as_obj().is_none() {
        fail(errors, "", "top level must be an object");
        return;
    }
    match doc.get("bench") {
        Some(Value::Str(kind)) if *kind == "curves" => {}
        Some(_) => fail(errors, "\"bench\"", "must be the string \"curves\""),
        None => fail(errors, "\"bench\"", "required string key is missing"),
    }
    let Some(panels) = doc.get("panels").and_then(Value::as_obj) else {
        fail(errors, "\"panels\"", "required object key is missing");
        return;
    };
    if panels.is_empty() {
        fail(errors, "\"panels\"", "curves report has no panels");
    }
    for (name, panel) in panels {
        let path = join("\"panels\"", name);
        if panel.as_obj().is_none() {
            fail(errors, &path, "panel must be an object");
            continue;
        }
        match panel.get("fitted_class") {
            Some(Value::Str(_)) => {}
            _ => fail(
                errors,
                &join(&path, "fitted_class"),
                "panel needs a string fitted class",
            ),
        }
        require_num(panel, R2_KEY, &path, errors);
        let mut point_count = None;
        for key in ["ns", "counts"] {
            match panel.get(key).and_then(Value::as_arr) {
                Some(items) if items.len() >= 2 => match point_count {
                    None => point_count = Some(items.len()),
                    Some(expected) if expected != items.len() => fail(
                        errors,
                        &join(&path, key),
                        format!("expected {expected} points, found {}", items.len()),
                    ),
                    Some(_) => {}
                },
                Some(items) => fail(
                    errors,
                    &join(&path, key),
                    format!("a fit needs at least 2 points, found {}", items.len()),
                ),
                None => fail(errors, &join(&path, key), "required array key is missing"),
            }
        }
        if let Some(avg) = panel.get("node_averaged") {
            match avg.as_arr() {
                Some(items) => {
                    if let Some(expected) = point_count {
                        if items.len() != expected {
                            fail(
                                errors,
                                &join(&path, "node_averaged"),
                                format!("expected {expected} points, found {}", items.len()),
                            );
                        }
                    }
                }
                None => fail(
                    errors,
                    &join(&path, "node_averaged"),
                    "node_averaged must be an array",
                ),
            }
        }
        // The whole point of the curves gate: no wall keys may sneak in.
        if let Some(entries) = panel.as_obj() {
            for (k, _) in entries {
                if WALL_KEYS.contains(&&**k) {
                    fail(
                        errors,
                        &join(&path, k),
                        "wall-clock keys are not allowed in the curves schema",
                    );
                }
            }
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

    fn obs_doc() -> Value<'static> {
        parse(
            r#"{
              "E1/trees/cole-vishkin": {
                "order": 0,
                "trace": {
                  "name": "local/sync",
                  "wall_us": 412,
                  "counters": {"rounds": 4, "messages": 1600, "nodes": 200},
                  "hists": {"view-nodes": {"count": 4, "sum": 10, "buckets": {"2": 4}}},
                  "children": [
                    {"name": "round", "wall_us": 90, "counters": {"messages": 400}}
                  ]
                }
              }
            }"#,
        )
        .expect("valid obs doc")
    }

    fn bump_counter(doc: &mut Value<'static>, counter: &str) {
        // Fabricate a +1 on a counter inside the first panel's trace.
        let Value::Obj(panels) = doc else { panic!() };
        let Value::Obj(panel) = &mut panels[0].1 else {
            panic!()
        };
        let trace = &mut panel
            .iter_mut()
            .find(|(k, _)| k == "trace")
            .expect("trace")
            .1;
        let Value::Obj(span) = trace else { panic!() };
        let counters = &mut span
            .iter_mut()
            .find(|(k, _)| k == "counters")
            .expect("counters")
            .1;
        let Value::Obj(counters) = counters else {
            panic!()
        };
        let value = &mut counters
            .iter_mut()
            .find(|(k, _)| k == counter)
            .expect("counter")
            .1;
        let Value::Num(raw) = value else { panic!() };
        let bumped = raw.parse::<u64>().expect("integer counter") + 1;
        *raw = leak(bumped.to_string());
    }

    #[test]
    fn identical_documents_are_clean() {
        let doc = obs_doc();
        let report = diff(&doc, &doc, DiffOptions::default());
        assert!(report.is_clean(), "unexpected: {:?}", report.regressions);
        assert!(report.notes.is_empty());
    }

    #[test]
    fn fabricated_counter_bump_regresses_and_names_stage_and_counter() {
        let base = obs_doc();
        let mut new = base.clone();
        bump_counter(&mut new, "rounds");
        let report = diff(&base, &new, DiffOptions::default());
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
        // 412 µs -> 500 µs is +21 %, inside ±30 % (and the floor).
        let Value::Obj(panels) = &mut new else {
            panic!()
        };
        let Value::Obj(panel) = &mut panels[0].1 else {
            panic!()
        };
        let Value::Obj(span) = &mut panel[1].1 else {
            panic!()
        };
        span[1].1 = Value::Num("500");
        let report = diff(&base, &new, DiffOptions::default());
        assert!(report.is_clean(), "unexpected: {:?}", report.regressions);
    }

    #[test]
    fn wall_time_blowup_regresses() {
        let base = obs_doc();
        let mut new = base.clone();
        let Value::Obj(panels) = &mut new else {
            panic!()
        };
        let Value::Obj(panel) = &mut panels[0].1 else {
            panic!()
        };
        let Value::Obj(span) = &mut panel[1].1 else {
            panic!()
        };
        // 412 µs -> 2000 µs: way past both tolerance and floor.
        span[1].1 = Value::Num("2000");
        let report = diff(&base, &new, DiffOptions::default());
        assert_eq!(report.regressions.len(), 1);
        assert!(report.regressions[0].path.contains("wall_us"));
    }

    #[test]
    fn missing_and_extra_keys_are_structural_regressions() {
        let base = parse(r#"{"s": {"a": 1, "b": 2}}"#).expect("valid");
        let new = parse(r#"{"s": {"a": 1, "c": 3}}"#).expect("valid");
        let report = diff(&base, &new, DiffOptions::default());
        let text: Vec<String> = report.regressions.iter().map(Finding::to_string).collect();
        assert_eq!(report.regressions.len(), 2, "{text:?}");
        assert!(text[0].contains("missing"), "{text:?}");
        assert!(text[1].contains("new key"), "{text:?}");
    }

    #[test]
    fn informational_keys_only_note() {
        let base = parse(r#"{"par_speedup": 3.1, "threads_available": 16}"#).expect("valid");
        let new = parse(r#"{"par_speedup": 1.2, "threads_available": 4}"#).expect("valid");
        let report = diff(&base, &new, DiffOptions::default());
        assert!(report.is_clean());
        assert_eq!(report.notes.len(), 2);
    }

    fn speedup_doc(threads: u64, speedup: f64, seq_wall_ms: f64) -> Value<'static> {
        parse(leak(format!(
            r#"{{"threads_available": {threads},
                 "problems": [{{"name": "e1", "seq_wall_ms": {seq_wall_ms},
                                "par_wall_ms": 1.0, "par_speedup": {speedup}}}]}}"#
        )))
        .expect("valid")
    }

    #[test]
    fn speedup_below_floor_regresses_on_a_big_host() {
        let base = speedup_doc(8, 2.1, 100.0);
        let new = speedup_doc(8, 1.1, 100.0);
        let report = diff(&base, &new, DiffOptions::default());
        assert_eq!(report.regressions.len(), 1, "{report:?}");
        let text = report.regressions[0].to_string();
        assert!(text.contains("par_speedup"), "{text}");
        assert!(text.contains("below the 1.5 floor"), "{text}");
        // Meeting the floor is clean even when the ratio drifted.
        let ok = speedup_doc(8, 1.8, 100.0);
        assert!(diff(&base, &ok, DiffOptions::default()).is_clean());
    }

    #[test]
    fn speedup_floor_is_inert_on_small_hosts_and_small_problems() {
        // A 1-thread host cannot speed anything up: note, don't gate.
        let base = speedup_doc(1, 0.9, 100.0);
        let report = diff(&base, &base, DiffOptions::default());
        assert!(report.is_clean(), "{report:?}");
        assert!(report.notes.iter().any(|n| n.message.contains("not gated")));
        // On a big host, a sub-floor ratio on a tiny problem is noise.
        let tiny = speedup_doc(8, 0.7, 0.4);
        let report = diff(&tiny, &tiny, DiffOptions::default());
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
        let base = parse(r#"{"s": {"probes": 1.50}}"#).expect("valid");
        let new = parse(r#"{"s": {"probes": 1.5}}"#).expect("valid");
        let report = diff(&base, &new, DiffOptions::default());
        assert_eq!(report.regressions.len(), 1);
    }

    #[test]
    fn array_length_change_regresses() {
        let base = parse(r#"{"levels": [1, 2, 3]}"#).expect("valid");
        let new = parse(r#"{"levels": [1, 2]}"#).expect("valid");
        let report = diff(&base, &new, DiffOptions::default());
        assert_eq!(report.regressions.len(), 1);
        assert!(report.regressions[0].message.contains("3 to 2"));
    }

    #[test]
    fn schema_detection_and_validation() {
        let obs = obs_doc();
        assert_eq!(detect_schema(&obs), Schema::Obs);
        assert!(check_schema(&obs, Schema::Obs).is_empty());

        let re = parse(
            r#"{
              "bench": "re_engine",
              "threads_available": 8,
              "problems": [{
                "name": "3-coloring",
                "f_steps": 2, "seq_wall_ms": 1.2, "par_wall_ms": 0.8,
                "par_speedup": 1.5, "node_cache_hits": 10, "node_cache_misses": 4,
                "levels": [{
                  "level": 1, "labels_full": 6, "labels": 6, "configurations": 20,
                  "cache_hits": 5, "cache_misses": 2, "fixpoint_of": null, "wall_ms": 0.6
                }]
              }],
              "thread_sweep": {
                "name": "3-coloring", "f_steps": 2, "seq_wall_ms": 12.0,
                "wall_ms_t2": 7.0, "par_wall_ms": 5.0, "par_speedup": 2.4
              }
            }"#,
        )
        .expect("valid re doc");
        assert_eq!(detect_schema(&re), Schema::ReEngine);
        assert!(check_schema(&re, Schema::ReEngine).is_empty());

        // Break the re doc: drop a required level counter.
        let mut broken = re.clone();
        let Value::Obj(top) = &mut broken else {
            panic!()
        };
        let Value::Arr(problems) = &mut top[2].1 else {
            panic!()
        };
        let Value::Obj(problem) = &mut problems[0] else {
            panic!()
        };
        let Value::Arr(levels) = &mut problem.last_mut().expect("levels").1 else {
            panic!()
        };
        let Value::Obj(level) = &mut levels[0] else {
            panic!()
        };
        level.retain(|(k, _)| k != "configurations");
        let errors = check_schema(&broken, Schema::ReEngine);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].path.contains("configurations"));
    }

    #[test]
    fn service_schema_detection_and_validation() {
        let service = parse(
            r#"{
              "bench": "service",
              "threads_available": 8, "workers": 4, "requests": 1000,
              "unique_problems": 700, "computed": 700,
              "served_from_cache": 300, "dedup_permille": 300,
              "store_entries": 700, "duplicates_in_mix": 300,
              "resumed_jobs": 1, "resume_fingerprint_match": 1,
              "hit_wall_us": 310.0, "miss_wall_ms": 1.2,
              "total_wall_ms": 900.0, "throughput_rps": 1100.0
            }"#,
        )
        .expect("valid service doc");
        assert_eq!(detect_schema(&service), Schema::Service);
        assert!(check_schema(&service, Schema::Service).is_empty());

        // Dropping a dedup counter is a schema violation, not a silently
        // ungated key.
        let mut broken = service.clone();
        let Value::Obj(top) = &mut broken else {
            panic!()
        };
        top.retain(|(k, _)| k != "served_from_cache");
        let errors = check_schema(&broken, Schema::Service);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].path.contains("served_from_cache"));

        // A different "bench" string stays on the re-engine schema.
        let re_marker = parse(r#"{"bench": "re_engine"}"#).expect("parses");
        assert_eq!(detect_schema(&re_marker), Schema::ReEngine);
    }

    #[test]
    fn shard_schema_detection_and_validation() {
        let shard = parse(
            r#"{
              "bench": "shard",
              "shards": 8, "runner_threads": 2,
              "nodes": 1000000, "edges": 999999,
              "supersteps": 16, "messages": 3999996,
              "halo_messages": 28, "halo_bytes": 224,
              "shards_crashed": 2, "shards_rebuilt": 2, "checkpoints": 2,
              "frontier_nodes": 41, "repaired_nodes": 17, "certified": 1,
              "total_wall_ms": 2200.0
            }"#,
        )
        .expect("valid shard doc");
        assert_eq!(detect_schema(&shard), Schema::Shard);
        assert!(check_schema(&shard, Schema::Shard).is_empty());

        // Dropping a recovery counter is a schema violation.
        let mut broken = shard.clone();
        let Value::Obj(top) = &mut broken else {
            panic!()
        };
        top.retain(|(k, _)| k != "shards_rebuilt");
        let errors = check_schema(&broken, Schema::Shard);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].path.contains("shards_rebuilt"));
    }

    fn curves_doc(class: &str, r2: f64) -> Value<'static> {
        parse(leak(format!(
            r#"{{"bench": "curves",
                 "panels": {{
                   "trees/cole-vishkin-rounds": {{
                     "fitted_class": "{class}", "r2": {r2},
                     "ns": [16, 1024, 1048576], "counts": [3, 4, 4]
                   }},
                   "volume/const-probe": {{
                     "fitted_class": "1", "r2": 1.0,
                     "ns": [16, 64], "counts": [2, 2],
                     "node_averaged": [1.5, 1.5]
                   }}
                 }}}}"#
        )))
        .expect("valid curves doc")
    }

    #[test]
    fn curves_schema_detection_and_validation() {
        let doc = curves_doc("log* n", 0.97);
        assert_eq!(detect_schema(&doc), Schema::Curves);
        assert!(check_schema(&doc, Schema::Curves).is_empty());

        // A wall key inside a panel is a schema violation: the curves
        // gate must stay wall-free by construction.
        let polluted = parse(
            r#"{"bench": "curves", "panels": {"p": {
                 "fitted_class": "1", "r2": 1.0,
                 "ns": [1, 2], "counts": [5, 5], "wall_ms": 3.0}}}"#,
        )
        .expect("parses");
        let errors = check_schema(&polluted, Schema::Curves);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].message.contains("wall-clock"), "{errors:?}");

        // Misaligned series lengths are caught.
        let ragged = parse(
            r#"{"bench": "curves", "panels": {"p": {
                 "fitted_class": "n", "r2": 0.99,
                 "ns": [1, 2, 3], "counts": [5, 6]}}}"#,
        )
        .expect("parses");
        let errors = check_schema(&ragged, Schema::Curves);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].path.contains("counts"), "{errors:?}");
    }

    #[test]
    fn fitted_class_flip_regresses_and_names_the_panel() {
        // The acceptance scenario: a candidate whose Cole–Vishkin panel
        // now fits log n against a log* n baseline must fail, naming
        // the panel — even though its R² is excellent.
        let base = curves_doc("log* n", 0.97);
        let new = curves_doc("log n", 0.99);
        let report = diff(&base, &new, DiffOptions::default());
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
        let report = diff(&bad, &bad, DiffOptions::default());
        assert_eq!(report.regressions.len(), 1, "{report:?}");
        let text = report.regressions[0].to_string();
        assert!(text.contains("below the 0.8 floor"), "{text}");
        assert!(text.contains("trees/cole-vishkin-rounds"), "{text}");

        // At or above the floor, pure r2 drift stays clean.
        let base = curves_doc("log* n", 0.97);
        let drifted = curves_doc("log* n", 0.95);
        let report = diff(&base, &drifted, DiffOptions::default());
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.notes.len(), 1);
    }

    #[test]
    fn committed_baselines_pass_their_schemas() {
        for (path, schema) in [
            ("../../BENCH_obs.json", Schema::Obs),
            ("../../BENCH_recover.json", Schema::Obs),
            ("../../BENCH_re_engine.json", Schema::ReEngine),
            ("../../BENCH_service.json", Schema::Service),
            ("../../BENCH_curves.json", Schema::Curves),
            ("../../BENCH_shard.json", Schema::Shard),
            ("../../BENCH_procshard.json", Schema::ProcShard),
        ] {
            let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&full).expect("baseline exists");
            let doc = parse(&text).expect("baseline parses");
            assert_eq!(detect_schema(&doc), schema, "{path}");
            let errors = check_schema(&doc, schema);
            assert!(errors.is_empty(), "{path}: {errors:?}");
            // Self-diff must be clean: the gate's fixed point.
            assert!(diff(&doc, &doc, DiffOptions::default()).is_clean());
        }
    }
}
