//! The round-elimination engine benchmark: builds towers for a battery of
//! catalog problems with the parallel fan-out on and off, reports the
//! per-level engine counters ([`lcl_core::LevelStats`]), microbenchmarks
//! interned label lookup against the linear scan it replaced, and writes
//! everything to `BENCH_re_engine.json` at the repository root.
//!
//! The JSON is hand-rolled (the build environment is offline, so no
//! serde); the schema is flat enough to diff between runs.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use lcl::{LclProblem, OutLabel};
use lcl_core::{ReOptions, ReTower};
use lcl_problems::catalog::{anti_matching, k_coloring, sinkless_orientation};

use crate::cells;
use crate::table::Table;

/// One problem's tower build, measured.
struct ProblemReport {
    name: String,
    steps: usize,
    seq_wall: Duration,
    par_wall: Duration,
    /// `(level, stats)` pairs for every derived level, from the parallel
    /// build (the sequential build produces identical levels — asserted).
    levels: Vec<(usize, lcl_core::LevelStats)>,
    cache_hits: u64,
    cache_misses: u64,
}

/// The interner-lookup microbenchmark: resolving every level's member
/// sets back to label ids, interned (`lookup_label`) vs the linear scan
/// over `label_members` that the engine used before.
struct LookupReport {
    labels: usize,
    queries: u64,
    interned_ns: f64,
    scan_ns: f64,
}

/// The forced-thread-count sweep on the E1-pipeline problem: the data
/// behind the gated `par_speedup` (sequential reference vs 2 and 8
/// workers, same problem, same step count).
struct SweepReport {
    name: &'static str,
    steps: usize,
    seq_wall: Duration,
    wall_t2: Duration,
    wall_t8: Duration,
}

fn build_tower(problem: &LclProblem, steps: usize, parallel: bool) -> (ReTower, Duration) {
    build_tower_opts(
        problem,
        steps,
        ReOptions {
            parallel,
            ..ReOptions::default()
        },
    )
}

fn build_tower_opts(problem: &LclProblem, steps: usize, opts: ReOptions) -> (ReTower, Duration) {
    let start = Instant::now();
    let mut tower = ReTower::new(problem.clone());
    for _ in 0..steps {
        tower
            .push_f(opts)
            .expect("battery problems build under default caps");
    }
    (tower, start.elapsed())
}

fn measure_sweep(name: &'static str, problem: &LclProblem, steps: usize) -> SweepReport {
    let (seq_tower, seq_wall) = build_tower(problem, steps, false);
    let mut walls = [Duration::ZERO; 2];
    for (i, threads) in [2usize, 8].into_iter().enumerate() {
        let opts = ReOptions {
            parallel: true,
            threads,
            ..ReOptions::default()
        };
        let (tower, wall) = build_tower_opts(problem, steps, opts);
        assert_eq!(
            tower.fingerprint(),
            seq_tower.fingerprint(),
            "tower diverged from the sequential reference at {threads} threads"
        );
        walls[i] = wall;
    }
    SweepReport {
        name,
        steps,
        seq_wall,
        wall_t2: walls[0],
        wall_t8: walls[1],
    }
}

fn measure_problem(name: &str, problem: &LclProblem, steps: usize) -> ProblemReport {
    let (seq_tower, seq_wall) = build_tower(problem, steps, false);
    let (par_tower, par_wall) = build_tower(problem, steps, true);
    // The parallel fan-out must be a pure reshuffling of the work:
    // bit-identical snapshots, not just equal alphabet sizes.
    assert_eq!(
        seq_tower.fingerprint(),
        par_tower.fingerprint(),
        "parallel and sequential towers diverged on {name}"
    );
    let levels = par_tower
        .stats()
        .iter()
        .enumerate()
        .map(|(k, s)| (k + 1, s.clone()))
        .collect();
    let (cache_hits, cache_misses) = par_tower.node_cache_counters();
    ProblemReport {
        name: name.to_string(),
        steps,
        seq_wall,
        par_wall,
        levels,
        cache_hits,
        cache_misses,
    }
}

/// Times resolving every derived label's member set back to its id,
/// repeated until the clock resolves, via the interner and via the linear
/// scan the pre-interner engine performed.
fn measure_lookup(tower: &ReTower) -> LookupReport {
    let mut queries: Vec<(usize, Vec<u32>)> = Vec::new();
    for level in 1..tower.level_count() {
        for l in 0..tower.alphabet_size(level) {
            queries.push((
                level,
                tower.label_members(level, OutLabel(l as u32)).to_vec(),
            ));
        }
    }
    let rounds = 2_000u64;
    let interned = {
        let start = Instant::now();
        for _ in 0..rounds {
            for (level, members) in &queries {
                std::hint::black_box(tower.lookup_label(*level, members));
            }
        }
        start.elapsed()
    };
    let scan = {
        let start = Instant::now();
        for _ in 0..rounds {
            for (level, members) in &queries {
                let found = (0..tower.alphabet_size(*level)).position(|l| {
                    tower.label_members(*level, OutLabel(l as u32)) == members.as_slice()
                });
                std::hint::black_box(found);
            }
        }
        start.elapsed()
    };
    let total = rounds * queries.len() as u64;
    LookupReport {
        labels: queries.len(),
        queries: total,
        interned_ns: interned.as_nanos() as f64 / total as f64,
        scan_ns: scan.as_nanos() as f64 / total as f64,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "null".to_string()
    }
}

fn emit_json(
    reports: &[ProblemReport],
    sweep: &SweepReport,
    lookup: &LookupReport,
    threads: usize,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"re_engine\",");
    let _ = writeln!(out, "  \"threads_available\": {threads},");
    out.push_str("  \"problems\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(out, "      \"f_steps\": {},", r.steps);
        let _ = writeln!(out, "      \"seq_wall_ms\": {},", json_f64(ms(r.seq_wall)));
        let _ = writeln!(out, "      \"par_wall_ms\": {},", json_f64(ms(r.par_wall)));
        let _ = writeln!(
            out,
            "      \"par_speedup\": {},",
            json_f64(ms(r.seq_wall) / ms(r.par_wall))
        );
        let _ = writeln!(out, "      \"node_cache_hits\": {},", r.cache_hits);
        let _ = writeln!(out, "      \"node_cache_misses\": {},", r.cache_misses);
        out.push_str("      \"levels\": [\n");
        for (j, (level, s)) in r.levels.iter().enumerate() {
            let fixpoint = s.fixpoint_of.map_or("null".to_string(), |f| f.to_string());
            let _ = write!(
                out,
                "        {{\"level\": {level}, \"labels_full\": {}, \"labels\": {}, \
                 \"configurations\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
                 \"fixpoint_of\": {fixpoint}, \"wall_ms\": {}}}",
                s.labels_full,
                s.labels,
                s.configurations,
                s.cache_hits,
                s.cache_misses,
                json_f64(ms(s.wall))
            );
            out.push_str(if j + 1 < r.levels.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ]\n");
        out.push_str(if i + 1 < reports.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"thread_sweep\": {\n");
    let _ = writeln!(out, "    \"name\": \"{}\",", sweep.name);
    let _ = writeln!(out, "    \"f_steps\": {},", sweep.steps);
    let _ = writeln!(
        out,
        "    \"seq_wall_ms\": {},",
        json_f64(ms(sweep.seq_wall))
    );
    let _ = writeln!(out, "    \"wall_ms_t2\": {},", json_f64(ms(sweep.wall_t2)));
    let _ = writeln!(out, "    \"par_wall_ms\": {},", json_f64(ms(sweep.wall_t8)));
    let _ = writeln!(
        out,
        "    \"par_speedup\": {}",
        json_f64(ms(sweep.seq_wall) / ms(sweep.wall_t8))
    );
    out.push_str("  },\n");
    out.push_str("  \"label_lookup\": {\n");
    let _ = writeln!(out, "    \"labels\": {},", lookup.labels);
    let _ = writeln!(out, "    \"queries\": {},", lookup.queries);
    let _ = writeln!(
        out,
        "    \"interned_ns\": {},",
        json_f64(lookup.interned_ns)
    );
    let _ = writeln!(out, "    \"linear_scan_ns\": {},", json_f64(lookup.scan_ns));
    let _ = writeln!(
        out,
        "    \"speedup\": {}",
        json_f64(lookup.scan_ns / lookup.interned_ns)
    );
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

/// The battery: problems whose towers build under default caps, chosen to
/// cover both behaviors — universes that stay put (sinkless orientation),
/// grow (coloring, anti-matching), and collapse to a fixpoint (the
/// X-X-only problem, whose levels cycle and exercise the memo).
fn battery() -> Vec<(&'static str, LclProblem, usize)> {
    let collapse = LclProblem::parse("max-degree: 2\nnodes:\nX*\nY*\nedges:\nX X\n")
        .expect("valid problem source");
    vec![
        ("anti-matching-d3", anti_matching(3), 2),
        ("3-coloring-d3", k_coloring(3, 3), 1),
        ("sinkless-orientation-d3", sinkless_orientation(3), 1),
        ("xx-collapse-d2", collapse, 3),
    ]
}

/// Runs the engine benchmark, prints the per-level table, and writes
/// `BENCH_re_engine.json` at the repository root. Returns the table.
pub fn re_engine() -> Table {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut table = Table::new(
        "RE engine — interned, parallel tower construction",
        &[
            "problem",
            "level",
            "labels (full)",
            "configs",
            "memo hits/misses",
            "fixpoint",
            "wall",
        ],
    );
    let mut reports = Vec::new();
    for (name, problem, steps) in battery() {
        let report = measure_problem(name, &problem, steps);
        for (level, s) in &report.levels {
            table.row(cells!(
                name,
                level,
                format!("{} ({})", s.labels, s.labels_full),
                s.configurations,
                format!("{}/{}", s.cache_hits, s.cache_misses),
                s.fixpoint_of
                    .map_or("-".to_string(), |f| format!("= level {f}")),
                format!("{:.2} ms", ms(s.wall))
            ));
        }
        table.row(cells!(
            name,
            "total",
            "",
            "",
            format!("{}/{}", report.cache_hits, report.cache_misses),
            "",
            format!(
                "seq {:.2} / par {:.2} ms",
                ms(report.seq_wall),
                ms(report.par_wall)
            )
        ));
        reports.push(report);
    }

    // The gated 1/2/8-thread sweep on the E1-pipeline problem (the
    // anti-matching tower behind Theorem 3.11).
    let (sweep_name, sweep_problem, sweep_steps) = battery().swap_remove(0);
    let sweep = measure_sweep(sweep_name, &sweep_problem, sweep_steps);
    table.row(cells!(
        "thread sweep",
        sweep.name,
        "",
        "",
        "",
        format!("{:.2}x @ 8 threads", ms(sweep.seq_wall) / ms(sweep.wall_t8)),
        format!(
            "seq {:.2} / t2 {:.2} / t8 {:.2} ms",
            ms(sweep.seq_wall),
            ms(sweep.wall_t2),
            ms(sweep.wall_t8)
        )
    ));

    // Lookup microbenchmark on the largest tower of the battery.
    let (tower, _) = build_tower(&sweep_problem, sweep_steps, true);
    let lookup = measure_lookup(&tower);
    table.row(cells!(
        "label lookup",
        "-",
        lookup.labels,
        lookup.queries,
        "",
        format!("{:.0}x", lookup.scan_ns / lookup.interned_ns),
        format!(
            "interned {:.0} ns / scan {:.0} ns",
            lookup.interned_ns, lookup.scan_ns
        )
    ));

    let json = emit_json(&reports, &sweep, &lookup, threads);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_re_engine.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_builds_and_reports() {
        let (name, problem, steps) = &battery()[3];
        assert_eq!(*name, "xx-collapse-d2");
        let report = measure_problem(name, problem, *steps);
        assert_eq!(report.levels.len(), 2 * steps);
        // The collapsing problem must certify its cycle with memo traffic
        // on the fixpoint level.
        let (level, s) = report
            .levels
            .iter()
            .find(|(_, s)| s.fixpoint_of.is_some())
            .expect("the collapse battery entry reaches a fixpoint");
        assert!(*level >= 2);
        assert!(s.cache_hits > 0, "fixpoint level must hit the memo: {s:?}");
    }

    #[test]
    fn lookup_microbenchmark_counts_queries() {
        let (tower, _) = build_tower(&anti_matching(3), 1, true);
        let lookup = measure_lookup(&tower);
        assert!(lookup.labels > 0);
        assert_eq!(lookup.queries, 2_000 * lookup.labels as u64);
        assert!(lookup.interned_ns > 0.0 && lookup.scan_ns > 0.0);
    }

    #[test]
    fn json_is_structurally_balanced() {
        let report = measure_problem("anti-matching-d3", &anti_matching(3), 1);
        let sweep = measure_sweep("anti-matching-d3", &anti_matching(3), 1);
        let lookup = LookupReport {
            labels: 3,
            queries: 6000,
            interned_ns: 50.0,
            scan_ns: 400.0,
        };
        let json = emit_json(&[report], &sweep, &lookup, 4);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
        assert!(json.contains("\"bench\": \"re_engine\""));
        assert!(json.contains("\"thread_sweep\""));
        assert!(json.contains("\"label_lookup\""));
        assert!(!json.contains("NaN") && !json.contains("inf"));
        // The emitted report passes its own schema and self-diffs clean —
        // the same fixed point the committed baseline must satisfy.
        let doc = lcl_obs::json::parse(&json).expect("own report parses");
        assert_eq!(
            crate::diff::detect_schema(&doc),
            crate::diff::Schema::ReEngine
        );
        let errors = crate::diff::check_schema(&doc, crate::diff::Schema::ReEngine);
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn sweep_towers_stay_bit_identical() {
        let sweep = measure_sweep("sinkless-orientation-d3", &sinkless_orientation(3), 1);
        // measure_sweep asserts fingerprint equality internally; getting
        // here means 1, 2, and 8 threads built the same tower.
        assert!(sweep.seq_wall > Duration::ZERO);
        assert!(sweep.wall_t2 > Duration::ZERO && sweep.wall_t8 > Duration::ZERO);
    }
}
