//! The metric catalog, the per-run sample store, and the result line.
//!
//! Every metric a run can emit is named here once, with its unit. The
//! catalog mirrors `BENCHMARK.json`: `--trace 0` emits exactly
//! [`END_TO_END`], `--trace 1` exactly [`PER_LAYER`]. A per-layer metric
//! whose layer a workload never calls reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named metric and its unit.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Dotted metric name; the prefix of a per-layer name is the crate
    /// (layer) it measures.
    pub name: &'static str,
    /// Unit as printed in the result line.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Metrics a user of the system sees, measured with tracing off. A
/// "request" is one client-visible call: a whole LOCAL job on the three
/// LOCAL workloads, one `classify` line on classify-mix.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("job_p50_s", "s"),
    m("req_p50_ms", "ms"),
    m("req_p90_ms", "ms"),
    m("req_per_s", "1/s"),
];

/// Per-layer metrics of the traced run. Times are seconds per job
/// (median over traced jobs); counts are per job.
pub const PER_LAYER: &[Metric] = &[
    m("graph.build_s", "s"),
    m("procshard.init_bytes", "B"),
    m("procshard.init_encode_s", "s"),
    m("procshard.init_decode_s", "s"),
    m("procshard.output_bytes", "B"),
    m("procshard.output_s", "s"),
    m("procshard.halo_bytes", "B"),
    m("procshard.halo_messages", "count"),
    m("procshard.supersteps", "count"),
    m("procshard.messages", "count"),
    m("procshard.respawns", "count"),
    m("procshard.unattributed_s", "s"),
    m("core.synth_s", "s"),
    m("core.fstep_s", "s"),
    m("core.labels", "count"),
    m("shard.run_s", "s"),
    m("shard.halo_bytes", "B"),
    m("shard.supersteps", "count"),
    m("local.sync_s", "s"),
    m("local.messages", "count"),
    m("local.rounds", "count"),
    m("recover.certify_s", "s"),
    m("lcl.violations", "count"),
    m("service.parse_s", "s"),
    m("service.store_get_s", "s"),
    m("service.store_put_s", "s"),
    m("service.checkpoint_s", "s"),
    m("service.encode_s", "s"),
    m("service.snapshot_bytes", "B"),
    m("service.cache_hits", "count"),
    m("service.coalesced", "count"),
    m("service.computed", "count"),
    m("service.rejected", "count"),
    m("service.gave_up", "count"),
    m("service.dedup_ratio", "ratio"),
    m("service.hit_p50_ms", "ms"),
    m("service.miss_p50_ms", "ms"),
    m("obs.trace_overhead", "ratio"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let starts_well = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    starts_well
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by linear interpolation between
/// closest ranks; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `xs`; 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The process's high-water resident set size in MB (`VmHWM`), or 0
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one run measured, before it is reduced to metrics.
#[derive(Default)]
pub struct Samples {
    /// Wall time of each setup repetition.
    pub setup: Vec<f64>,
    /// Wall time of each job run with tracing off.
    pub jobs: Vec<f64>,
    /// Wall time of each job run with tracing on (traced runs only).
    pub traced_jobs: Vec<f64>,
    /// Client-seen latency of each request, in seconds.
    pub requests: Vec<f64>,
    /// Per-layer samples: one value per traced job (per request for the
    /// service latency quantiles); a metric is their median.
    pub layers: BTreeMap<&'static str, Vec<f64>>,
    /// Operations attempted (jobs or requests).
    pub attempted: u64,
    /// Operations that failed: an error, a give-up, a wrong output, or a
    /// respawn on a clean workload.
    pub failed: u64,
    /// Human-readable reasons for the first few failures.
    pub failures: Vec<String>,
}

impl Samples {
    /// Records one per-job sample of a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        self.layers.entry(name).or_default().push(value);
    }

    /// Counts one attempted operation and whether it failed.
    pub fn outcome(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// Requests completed per second of job wall time.
    pub fn req_per_s(&self) -> f64 {
        let busy: f64 = self.jobs.iter().chain(&self.traced_jobs).sum();
        if busy > 0.0 {
            self.requests.len() as f64 / busy
        } else {
            0.0
        }
    }

    /// The end-to-end metric values.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        out.insert("setup_s", median(&self.setup));
        out.insert("job_p50_s", median(&self.jobs));
        out.insert("req_p50_ms", median(&self.requests) * 1e3);
        out.insert("req_p90_ms", quantile(&self.requests, 0.9) * 1e3);
        out.insert("req_per_s", self.req_per_s());
        out
    }

    /// The per-layer metric values; layers this workload never touched
    /// read 0.
    pub fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> =
            PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
        for (name, xs) in &self.layers {
            out.insert(name, median(xs));
        }
        if !self.jobs.is_empty() && !self.traced_jobs.is_empty() {
            out.insert(
                "obs.trace_overhead",
                median(&self.traced_jobs) / median(&self.jobs) - 1.0,
            );
        }
        out
    }
}

/// Renders the result line: one JSON object with exactly `correct`,
/// `attempted`, `failed`, and `metrics`, where `metrics` holds every
/// metric of `catalog` with its unit.
pub fn result_line(
    catalog: &[Metric],
    values: &BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
) -> String {
    let mut metrics = String::new();
    for (i, metric) in catalog.iter().enumerate() {
        let value = values.get(metric.name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0 && attempted > 0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_has_a_legal_unique_name_and_a_unit() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert!(seen.insert(metric.name), "{} named twice", metric.name);
            assert!(!metric.unit.is_empty() && metric.unit.len() <= 16);
            assert!(metric
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn names_outside_the_alphabet_are_rejected() {
        assert!(valid_name("graph.build_s"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_result_line_carries_every_catalog_metric() {
        let mut samples = Samples::default();
        samples.setup.push(0.5);
        samples.jobs.extend([1.0, 2.0, 3.0]);
        samples.requests.extend([1.0, 2.0, 3.0]);
        samples.outcome(None);
        let line = result_line(END_TO_END, &samples.end_to_end(), 1, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        for metric in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", metric.name)));
        }
        let line = result_line(PER_LAYER, &samples.per_layer(), 1, 1);
        assert!(line.starts_with("{\"correct\": false"));
        assert_eq!(line.matches("\"unit\"").count(), PER_LAYER.len());
    }
}
