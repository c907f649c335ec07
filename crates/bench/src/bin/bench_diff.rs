//! `bench-diff` — the perf-regression gate over committed baselines.
//!
//! ```sh
//! # Diff a fresh report against the committed baseline:
//! cargo run -p lcl-bench --bin bench-diff -- BENCH_obs.json /tmp/new_obs.json
//!
//! # Self-diff (sanity: a baseline never regresses against itself):
//! cargo run -p lcl-bench --bin bench-diff -- BENCH_obs.json
//!
//! # Schema check only:
//! cargo run -p lcl-bench --bin bench-diff -- --check-schema BENCH_obs.json
//! ```
//!
//! Counters compare bit-exact (raw JSON text); `wall_us`/`*_ms` keys get
//! a relative tolerance (default ±30 %, `--wall-tol 0.5` to widen);
//! `threads_available` is informational. `par_speedup` is gated by a
//! floor (default 1.5, `--speedup-floor 2.0` to tighten) whenever the
//! candidate report was measured with at least 8 threads and the problem
//! is big enough to rise above scheduler noise. Curves panels
//! (`BENCH_curves.json`) gate on the fitted asymptotic class bit-exactly
//! plus an `r2` floor (default 0.8, `--r2-floor 0.9` to tighten) — they
//! carry no wall keys, so wall noise cannot fail them. Exit codes: 0 = clean,
//! 1 = regression or schema violation, 2 = usage/parse error.

use std::process::ExitCode;

use lcl_bench::diff::{check_schema, detect_schema, diff, DiffOptions};
use lcl_obs::json::{parse, Value};

struct Args {
    baseline: String,
    candidate: Option<String>,
    wall_tolerance: f64,
    speedup_floor: f64,
    r2_floor: f64,
    schema_only: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench-diff [--wall-tol FRACTION] [--speedup-floor RATIO] \
         [--r2-floor R2] [--check-schema] BASELINE [CANDIDATE]\n\
         \n\
         Compares CANDIDATE against BASELINE (both BENCH_*.json reports).\n\
         With no CANDIDATE, self-diffs BASELINE (always clean) — useful\n\
         together with --check-schema to validate a committed baseline.\n\
         Exit codes: 0 clean, 1 regression/violation, 2 usage or parse error."
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut baseline = None;
    let mut candidate = None;
    let mut wall_tolerance = DiffOptions::default().wall_tolerance;
    let mut speedup_floor = DiffOptions::default().speedup_floor;
    let mut r2_floor = DiffOptions::default().r2_floor;
    let mut schema_only = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--wall-tol" => {
                let Some(value) = argv.next() else {
                    eprintln!("bench-diff: --wall-tol needs a value");
                    return Err(usage());
                };
                match value.parse::<f64>() {
                    Ok(v) if v >= 0.0 => wall_tolerance = v,
                    _ => {
                        eprintln!("bench-diff: invalid --wall-tol '{value}'");
                        return Err(usage());
                    }
                }
            }
            "--speedup-floor" => {
                let Some(value) = argv.next() else {
                    eprintln!("bench-diff: --speedup-floor needs a value");
                    return Err(usage());
                };
                match value.parse::<f64>() {
                    Ok(v) if v >= 0.0 => speedup_floor = v,
                    _ => {
                        eprintln!("bench-diff: invalid --speedup-floor '{value}'");
                        return Err(usage());
                    }
                }
            }
            "--r2-floor" => {
                let Some(value) = argv.next() else {
                    eprintln!("bench-diff: --r2-floor needs a value");
                    return Err(usage());
                };
                match value.parse::<f64>() {
                    Ok(v) if (0.0..=1.0).contains(&v) => r2_floor = v,
                    _ => {
                        eprintln!("bench-diff: invalid --r2-floor '{value}'");
                        return Err(usage());
                    }
                }
            }
            "--check-schema" => schema_only = true,
            "--help" | "-h" => return Err(usage()),
            _ if arg.starts_with('-') => {
                eprintln!("bench-diff: unknown flag '{arg}'");
                return Err(usage());
            }
            _ if baseline.is_none() => baseline = Some(arg),
            _ if candidate.is_none() => candidate = Some(arg),
            _ => {
                eprintln!("bench-diff: too many positional arguments");
                return Err(usage());
            }
        }
    }
    let Some(baseline) = baseline else {
        return Err(usage());
    };
    Ok(Args {
        baseline,
        candidate,
        wall_tolerance,
        speedup_floor,
        r2_floor,
        schema_only,
    })
}

/// Reads `path` into `text` and parses it; the document borrows `text`.
fn load<'t>(path: &str, text: &'t mut String) -> Result<Value<'t>, ExitCode> {
    *text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("bench-diff: cannot read {path}: {e}");
            return Err(ExitCode::from(2));
        }
    };
    match parse(text) {
        Ok(doc) => Ok(doc),
        Err(e) => {
            eprintln!("bench-diff: {path}: {e}");
            Err(ExitCode::from(2))
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(code) => return code,
    };
    let mut baseline_text = String::new();
    let baseline = match load(&args.baseline, &mut baseline_text) {
        Ok(doc) => doc,
        Err(code) => return code,
    };

    let schema = detect_schema(&baseline);
    let schema_errors = check_schema(&baseline, schema);
    if !schema_errors.is_empty() {
        eprintln!(
            "bench-diff: {} violates the {schema} schema:",
            args.baseline
        );
        for e in &schema_errors {
            eprintln!("  {e}");
        }
        return ExitCode::from(1);
    }
    println!("{}: valid {schema} baseline", args.baseline);
    if args.schema_only && args.candidate.is_none() {
        return ExitCode::SUCCESS;
    }

    let candidate_path = args.candidate.as_deref().unwrap_or(&args.baseline);
    let mut candidate_text = String::new();
    let candidate = match load(candidate_path, &mut candidate_text) {
        Ok(doc) => doc,
        Err(code) => return code,
    };
    let report = diff(
        &baseline,
        &candidate,
        DiffOptions {
            wall_tolerance: args.wall_tolerance,
            speedup_floor: args.speedup_floor,
            r2_floor: args.r2_floor,
            ..DiffOptions::default()
        },
    );
    for note in &report.notes {
        println!("note: {note}");
    }
    if report.is_clean() {
        println!(
            "{candidate_path}: no regressions against {} (wall tolerance ±{:.0} %)",
            args.baseline,
            args.wall_tolerance * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench-diff: {} regression(s) in {candidate_path} against {}:",
            report.regressions.len(),
            args.baseline
        );
        for r in &report.regressions {
            eprintln!("  {r}");
        }
        ExitCode::from(1)
    }
}
