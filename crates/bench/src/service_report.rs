//! Classification-service benchmark: a seeded 1 000-request mix against
//! a [`ClassifyServer`], writing `BENCH_service.json` at the repository
//! root.
//!
//! The mix contains ~30 % *structural duplicates* — requests whose
//! problem text is a label-permuted respelling of another request — so
//! the dedup machinery (canonical fingerprints, the content-addressed
//! store, in-flight coalescing) is what the numbers measure:
//!
//! * `computed` must equal `unique_problems`: each structural class is
//!   built exactly once no matter how its duplicates are spelled or
//!   interleaved.
//! * `served_from_cache` (store hits plus in-flight coalescing) must be
//!   exactly the duplicate count; `dedup_permille` is its share of the
//!   mix in ‰.
//! * A separate warm pass times pure cache hits (`hit_wall_us`), and a
//!   planted checkpoint verifies kill-mid-job recovery: the resumed
//!   build must fingerprint-match an uninterrupted one.
//!
//! Every counter above is seed-determined; the host-dependent timings
//! and `throughput_rps` go under the report's `walls`.

use std::sync::Arc;
use std::time::Instant;

use lcl::{canonical_key, canonical_text_form, relabeled, LclProblem, OutLabel};
use lcl_core::{ReOptions, ReTower};
use lcl_problems::catalog::sinkless_orientation;
use lcl_rng::SmallRng;
use lcl_service::{
    ClassifyRequest, ClassifyResult, ClassifyServer, Response, ServiceConfig, ServiceStats,
    TowerStore,
};

use crate::report::{Json, Report};
use crate::table::Table;

/// Requests in the seeded mix.
const REQUESTS: usize = 1_000;
/// Structurally distinct problems in the mix; the remaining requests are
/// label-permuted duplicates (300/1000 = 30 %).
const UNIQUE: usize = 700;
/// Warm cache-hit requests timed separately.
const WARM_HITS: usize = 200;
/// Seed of the whole mix.
const SEED: u64 = 0x5e71_1ce0;

fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

fn random_permutation(n: usize, rng: &mut SmallRng) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    shuffle(&mut order, rng);
    order
}

/// One seeded random ∆=2 problem over `s` output labels: nonempty
/// degree-1/degree-2 configuration sets, nonempty edge set, one input
/// admitting everything.
fn random_problem(i: usize, s: usize, rng: &mut SmallRng) -> LclProblem {
    use std::collections::BTreeSet;
    let mut pick = |universe: Vec<Vec<OutLabel>>| -> BTreeSet<Vec<OutLabel>> {
        let mut chosen: BTreeSet<Vec<OutLabel>> = universe
            .iter()
            .filter(|_| rng.next_u64().is_multiple_of(2))
            .cloned()
            .collect();
        if chosen.is_empty() {
            let fallback = (rng.next_u64() % universe.len() as u64) as usize;
            chosen.insert(universe[fallback].clone());
        }
        chosen
    };
    let singletons: Vec<Vec<OutLabel>> = (0..s).map(|a| vec![OutLabel(a as u32)]).collect();
    let mut pairs = Vec::new();
    for a in 0..s {
        for b in a..s {
            pairs.push(vec![OutLabel(a as u32), OutLabel(b as u32)]);
        }
    }
    let d1 = pick(singletons);
    let d2 = pick(pairs.clone());
    let edges: BTreeSet<(OutLabel, OutLabel)> =
        pick(pairs).into_iter().map(|p| (p[0], p[1])).collect();
    let g = vec![(0..s).map(|a| OutLabel(a as u32)).collect()];
    lcl::problem::from_parts(
        format!("rnd-{i}"),
        2,
        lcl::Alphabet::numbered("I", 1),
        lcl::Alphabet::numbered("L", s),
        vec![BTreeSet::new(), d1, d2],
        edges,
        g,
    )
}

/// Generates [`UNIQUE`] structurally distinct problems whose one-f-step
/// towers build cleanly (a trial build filters the rest, so the service
/// mix contains no give-ups and every counter is seed-determined).
fn problem_pool(rng: &mut SmallRng) -> Vec<LclProblem> {
    let mut pool = Vec::with_capacity(UNIQUE);
    let mut seen = std::collections::BTreeSet::new();
    let mut i = 0usize;
    while pool.len() < UNIQUE {
        i += 1;
        let s = 2 + (rng.next_u64() % 2) as usize;
        let p = random_problem(i, s, rng);
        let key = canonical_key(&p);
        if !seen.insert(key) {
            continue;
        }
        // Trial: the text form must round-trip and one f-step must
        // complete without giving up.
        let Ok(parsed) = LclProblem::parse(&p.to_text()) else {
            continue;
        };
        let mut trial = ReTower::new(canonical_text_form(&parsed));
        if trial.push_f(ReOptions::default()).is_err() {
            continue;
        }
        pool.push(p);
    }
    pool
}

/// Drains a response stream to its terminal line, which must be a
/// result (the benchmark mix never produces in-band errors).
fn terminal_result(rx: &std::sync::mpsc::Receiver<Response>) -> ClassifyResult {
    let mut last = None;
    for resp in rx.iter() {
        let done = !matches!(resp, Response::Progress { .. });
        last = Some(resp);
        if done {
            break;
        }
    }
    match last {
        Some(Response::Result(r)) => r,
        // The mix is pre-validated, so anything else is a benchmark
        // invariant violation, not a runtime condition to degrade through.
        other => unreachable!("expected a result line, got {other:?}"),
    }
}

struct MixOutcome {
    stats: ServiceStats,
    store_entries: usize,
    wall_ms: f64,
}

/// Phase 1: the full seeded mix, submitted back-to-back, drained to
/// completion.
fn run_mix(server: &ClassifyServer, pool: &[LclProblem], rng: &mut SmallRng) -> MixOutcome {
    let mut requests: Vec<LclProblem> = pool.to_vec();
    for _ in 0..REQUESTS - UNIQUE {
        let j = (rng.next_u64() % UNIQUE as u64) as usize;
        let n = pool[j].output_alphabet().len();
        requests.push(relabeled(&pool[j], &random_permutation(n, rng)));
    }
    shuffle(&mut requests, rng);
    let t0 = Instant::now();
    let receivers: Vec<_> = requests
        .iter()
        .enumerate()
        .map(|(id, p)| {
            let req = ClassifyRequest {
                id: id as u64,
                problem: p.to_text(),
                steps: 1,
            };
            server
                .submit(&req)
                .expect("why: the mix is pre-validated and the queue is sized for it")
        })
        .collect();
    for rx in &receivers {
        let r = terminal_result(rx);
        assert!(r.gave_up.is_none(), "pre-validated problems never give up");
    }
    MixOutcome {
        stats: server.stats(),
        store_entries: server.store().len(),
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

/// Phase 2: warm respellings against the now-full store; every request
/// must be a pure cache hit.
fn run_warm_hits(server: &ClassifyServer, pool: &[LclProblem], rng: &mut SmallRng) -> f64 {
    let t0 = Instant::now();
    for i in 0..WARM_HITS {
        let j = (rng.next_u64() % UNIQUE as u64) as usize;
        let n = pool[j].output_alphabet().len();
        let twin = relabeled(&pool[j], &random_permutation(n, rng));
        let req = ClassifyRequest {
            id: (REQUESTS + i) as u64,
            problem: twin.to_text(),
            steps: 1,
        };
        let rx = server
            .submit(&req)
            .expect("why: warm requests hit the cache and never queue");
        let r = terminal_result(&rx);
        assert!(r.cached, "warm request {i} missed the cache");
    }
    t0.elapsed().as_secs_f64() * 1e6 / WARM_HITS as f64
}

struct ResumeOutcome {
    resumed_from_level: u64,
    fingerprint_match: bool,
}

/// Phase 3: kill-mid-job emulation. A checkpoint is planted as a dying
/// worker would have left it; the server must resume from it and land on
/// the fingerprint an uninterrupted build produces.
fn run_resume_check(server: &ClassifyServer) -> ResumeOutcome {
    let p = sinkless_orientation(3);
    let key = canonical_key(&p);
    let canonical = canonical_text_form(&p);
    let mut reference = ReTower::new(canonical.clone());
    reference
        .push_f(ReOptions::default())
        .expect("why: sinkless orientation f-steps are the recovery soak's fixture");
    let mut partial = ReTower::new(canonical);
    partial
        .push_f(ReOptions::default())
        .expect("why: same fixture as the reference build");
    reference
        .push_f(ReOptions::default())
        .expect("why: same fixture as the reference build");
    server
        .store()
        .checkpoint(&key, &partial.snapshot())
        .expect("why: the store dir was created by this benchmark");
    let req = ClassifyRequest {
        id: 9_999,
        problem: p.to_text(),
        steps: 2,
    };
    let rx = server
        .submit(&req)
        .expect("why: a fresh key on an idle server neither hits nor overflows");
    let r = terminal_result(&rx);
    ResumeOutcome {
        resumed_from_level: r.resumed_from_level,
        fingerprint_match: r.tower_fingerprint == reference.fingerprint(),
    }
}

fn report(
    mix: &MixOutcome,
    hit_wall_us: f64,
    resume: &ResumeOutcome,
    workers: usize,
    threads: usize,
) -> Report {
    let duplicates = (REQUESTS - UNIQUE) as u64;
    let served = mix.stats.cache_hits + mix.stats.coalesced;
    Report {
        counters: Json::obj([
            ("workers", Json::num(workers)),
            ("requests", Json::num(REQUESTS)),
            ("unique_problems", Json::num(UNIQUE)),
            ("computed", Json::num(mix.stats.computed)),
            ("served_from_cache", Json::num(served)),
            ("dedup_permille", Json::num(served * 1000 / REQUESTS as u64)),
            ("store_entries", Json::num(mix.store_entries)),
            ("duplicates_in_mix", Json::num(duplicates)),
            (
                "resumed_jobs",
                Json::num(u64::from(resume.resumed_from_level > 0)),
            ),
            (
                "resume_fingerprint_match",
                Json::num(u64::from(resume.fingerprint_match)),
            ),
        ]),
        walls: Json::obj([
            ("threads_available", Json::num(threads)),
            ("hit_wall_us", Json::fixed(hit_wall_us, 1)),
            (
                "miss_wall_ms",
                Json::fixed(mix.wall_ms / mix.stats.computed.max(1) as f64, 3),
            ),
            ("total_wall_ms", Json::fixed(mix.wall_ms, 1)),
            (
                "throughput_rps",
                Json::fixed(REQUESTS as f64 * 1e3 / mix.wall_ms, 1),
            ),
        ]),
        ..Report::new("service")
    }
}

/// Runs the three service phases and writes `BENCH_service.json` at the
/// repository root. Returns the summary table, or the write error.
pub fn service_report() -> std::io::Result<Table> {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let pool = problem_pool(&mut rng);
    let dir = std::env::temp_dir().join(format!("lcl-service-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(TowerStore::open(&dir).expect("why: a fresh temp dir is writable"));
    let workers = 4;
    let server = ClassifyServer::start(
        store,
        ServiceConfig {
            workers,
            queue_capacity: REQUESTS,
            ..ServiceConfig::default()
        },
    );

    let mix = run_mix(&server, &pool, &mut rng);
    assert_eq!(
        mix.stats.computed, UNIQUE as u64,
        "every structural class computes exactly once"
    );
    assert_eq!(
        mix.stats.cache_hits + mix.stats.coalesced,
        (REQUESTS - UNIQUE) as u64,
        "every duplicate is served without recomputation"
    );
    assert_eq!(mix.store_entries, UNIQUE);
    let hit_wall_us = run_warm_hits(&server, &pool, &mut rng);
    let resume = run_resume_check(&server);
    assert_eq!(
        resume.resumed_from_level, 2,
        "the planted checkpoint is used"
    );
    assert!(
        resume.fingerprint_match,
        "resumed tower must match the uninterrupted build"
    );
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut table = Table::new(
        "SERVICE — content-addressed classification over a 1k-request mix",
        &["metric", "value"],
    );
    table.row(crate::cells!("requests", REQUESTS));
    table.row(crate::cells!("unique structural classes", UNIQUE));
    table.row(crate::cells!(
        "computed (one per class)",
        mix.stats.computed
    ));
    table.row(crate::cells!(
        "served from cache / coalesced",
        format!("{} / {}", mix.stats.cache_hits, mix.stats.coalesced)
    ));
    table.row(crate::cells!(
        "dedup ratio",
        format!(
            "{}‰",
            (mix.stats.cache_hits + mix.stats.coalesced) * 1000 / REQUESTS as u64
        )
    ));
    table.row(crate::cells!(
        "warm hit latency",
        format!("{hit_wall_us:.1} µs")
    ));
    table.row(crate::cells!("mix wall", format!("{:.1} ms", mix.wall_ms)));
    table.row(crate::cells!(
        "resume (from level / match)",
        format!(
            "{} / {}",
            resume.resumed_from_level, resume.fingerprint_match
        )
    ));

    let written = report(&mix, hit_wall_us, &resume, workers, threads).write();
    let _ = std::fs::remove_dir_all(&dir);
    written.map(|()| table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pool_is_structurally_distinct_and_buildable() {
        let mut rng = SmallRng::seed_from_u64(SEED);
        // A reduced pool keeps the test fast while exercising the same
        // generator and filters.
        let mut keys = std::collections::BTreeSet::new();
        let mut found = 0usize;
        let mut i = 0usize;
        while found < 40 {
            i += 1;
            let s = 2 + (rng.next_u64() % 2) as usize;
            let p = random_problem(i, s, &mut rng);
            let key = canonical_key(&p);
            if !keys.insert(key) {
                continue;
            }
            assert!(LclProblem::parse(&p.to_text()).is_ok());
            found += 1;
        }
        assert_eq!(keys.len(), 40);
    }

    #[test]
    fn duplicate_respellings_share_the_original_fingerprint() {
        let mut rng = SmallRng::seed_from_u64(SEED);
        let p = random_problem(1, 3, &mut rng);
        let twin = relabeled(&p, &random_permutation(p.output_alphabet().len(), &mut rng));
        assert_eq!(canonical_key(&p), canonical_key(&twin));
    }
}
