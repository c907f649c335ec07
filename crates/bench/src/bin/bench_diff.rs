//! `bench-diff` — the perf-regression gate over committed baselines.
//!
//! ```sh
//! # Diff a fresh report against the committed baseline:
//! cargo run -p lcl-bench --bin bench-diff -- BENCH_obs.json /tmp/new_obs.json
//!
//! # Validate a baseline and self-diff it (the `scripts/check.sh` gate):
//! cargo run -p lcl-bench --bin bench-diff -- BENCH_obs.json
//! ```
//!
//! Both files must have the shared `{bench, counters, walls, fits}`
//! report shape (`lcl_bench::report`), and the section a value sits in
//! decides how it is compared (`lcl_bench::diff`): counters bit-exactly,
//! walls as notes only, fits exactly except `r2`. A self-diff still runs
//! the two floors: `par_speedup` ≥ 1.5 on hosts with at least 8 threads,
//! and `r2` ≥ 0.8 for every fit. Exit codes: 0 = clean, 1 = regression or
//! schema violation, 2 = usage/parse error.

use std::process::ExitCode;

use lcl_bench::diff::{check_schema, diff};
use lcl_obs::json::{parse, Value};

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench-diff BASELINE [CANDIDATE]\n\
         \n\
         Validates both BENCH_*.json reports and compares CANDIDATE against\n\
         BASELINE. With no CANDIDATE, validates and self-diffs BASELINE.\n\
         Exit codes: 0 clean, 1 regression/violation, 2 usage or parse error."
    );
    ExitCode::from(2)
}

/// Reads `path` into `text`, parses it and checks the report shape; the
/// document borrows `text`.
fn load<'t>(path: &str, text: &'t mut String) -> Result<Value<'t>, ExitCode> {
    *text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("bench-diff: cannot read {path}: {e}");
        ExitCode::from(2)
    })?;
    let doc = parse(text).map_err(|e| {
        eprintln!("bench-diff: {path}: {e}");
        ExitCode::from(2)
    })?;
    let errors = check_schema(&doc);
    if !errors.is_empty() {
        eprintln!("bench-diff: {path} is not a valid bench report:");
        for e in &errors {
            eprintln!("  {e}");
        }
        return Err(ExitCode::from(1));
    }
    Ok(doc)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.len() > 2 || args.iter().any(|a| a.starts_with('-')) {
        return usage();
    }
    let baseline_path = &args[0];
    let candidate_path = args.get(1).unwrap_or(baseline_path);
    let (mut baseline_text, mut candidate_text) = (String::new(), String::new());
    let docs = load(baseline_path, &mut baseline_text)
        .and_then(|b| Ok((b, load(candidate_path, &mut candidate_text)?)));
    let (baseline, candidate) = match docs {
        Ok(docs) => docs,
        Err(code) => return code,
    };
    let report = diff(&baseline, &candidate);
    for note in &report.notes {
        println!("note: {note}");
    }
    if report.is_clean() {
        println!("{candidate_path}: no regressions against {baseline_path}");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench-diff: {} regression(s) in {candidate_path} against {baseline_path}:",
            report.regressions.len()
        );
        for r in &report.regressions {
            eprintln!("  {r}");
        }
        ExitCode::from(1)
    }
}
