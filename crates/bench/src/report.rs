//! The one `BENCH_*.json` shape and its writer.
//!
//! Every committed baseline is one object with four sections:
//!
//! ```text
//! {"bench": "<name>", "counters": {…}, "walls": {…}, "fits": {…}}
//! ```
//!
//! The section a value sits in decides how [`crate::diff`] compares it,
//! so a new benchmark needs no diff code: `counters` hold anything
//! seed-determined (compared exactly), `walls` hold host-dependent
//! timings and rates (numbers only, recorded but never gating), and
//! `fits` hold fitted asymptotic classes keyed by panel. A report that
//! measures both kinds of value for one thing lays them out as mirror
//! trees: the counter at `counters.P` and the timing at `walls.P`.

use std::fmt::Display;
use std::io;
use std::path::Path;

use lcl_obs::json;
use lcl_obs::{Registry, SpanRecord};

/// A JSON value under construction. Numbers are kept as the text the
/// report chose, so a report fixes its own precision.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// A number or `null`, written as this exact text.
    Raw(String),
    /// A string, quoted through [`json::push_string`].
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, written in this entry order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An integer (or any other value whose `Display` is JSON).
    pub fn num(x: impl Display) -> Self {
        Self::Raw(x.to_string())
    }

    /// `x` with `decimals` fixed decimals, or `null` when `x` is not
    /// finite.
    pub fn fixed(x: f64, decimals: usize) -> Self {
        if x.is_finite() {
            Self::Raw(format!("{x:.decimals$}"))
        } else {
            Self::Raw("null".into())
        }
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Self {
        Self::Str(s.into())
    }

    /// An object from `(key, value)` pairs in order.
    pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Self {
        Self::Obj(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Writes the value at nesting `depth`. A container below the
    /// sections whose children are all scalars goes on one line; every
    /// other container puts one child per line.
    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, entries): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Self::Raw(text) => return out.push_str(text),
            Self::Str(s) => return json::push_string(out, s),
            Self::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Self::Obj(entries) => (
                '{',
                '}',
                entries.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let inline = entries.is_empty()
            || (depth >= 2
                && entries
                    .iter()
                    .all(|(_, v)| matches!(v, Self::Raw(_) | Self::Str(_))));
        out.push(open);
        for (i, (key, value)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if inline {
                if i > 0 {
                    out.push(' ');
                }
            } else {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            }
            if let Some(key) = key {
                json::push_string(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        if !inline {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }
}

/// One benchmark report in the shared four-section shape.
#[derive(Clone, PartialEq, Debug)]
pub struct Report {
    /// The benchmark's name; the report is written to
    /// `BENCH_<bench>.json` at the repository root.
    pub bench: &'static str,
    /// Seed-determined values of any JSON type, compared exactly.
    pub counters: Json,
    /// Host-dependent measurements, numbers only; never gating.
    pub walls: Json,
    /// Fitted asymptotic classes keyed by panel (`fitted_class`, `r2`,
    /// `ns`, `counts`, optionally `node_averaged`).
    pub fits: Json,
}

impl Report {
    /// A report with three empty sections.
    pub fn new(bench: &'static str) -> Self {
        Self {
            bench,
            counters: Json::Obj(Vec::new()),
            walls: Json::Obj(Vec::new()),
            fits: Json::Obj(Vec::new()),
        }
    }

    /// The report as a JSON document.
    pub fn to_json(&self) -> String {
        let doc = Json::obj([
            ("bench", Json::str(self.bench)),
            ("counters", self.counters.clone()),
            ("walls", self.walls.clone()),
            ("fits", self.fits.clone()),
        ]);
        let mut out = String::new();
        doc.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Writes the report to `BENCH_<bench>.json` at the repository root.
    pub fn write(&self) -> io::Result<()> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        self.write_to(root.join(format!("BENCH_{}.json", self.bench)))
    }

    /// Writes the report to `path`; the error of a failed write is
    /// returned, so a benchmark that cannot save its baseline fails.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json())?;
        println!("wrote {}", path.display());
        Ok(())
    }

    /// The report of a [`Registry`]: both sections keyed by stage label
    /// (repeated labels suffixed, see [`Registry::keyed_snapshot`]), with
    /// the recording `order` and the span tree without wall times under
    /// `counters`, and the mirror tree of `wall_us` values under `walls`.
    pub fn from_registry(bench: &'static str, reg: &Registry) -> Self {
        let mut counters = Vec::new();
        let mut walls = Vec::new();
        for (order, (key, trace)) in reg.keyed_snapshot().into_iter().enumerate() {
            counters.push((
                key.clone(),
                Json::obj([
                    ("order", Json::num(order)),
                    ("trace", span_counters(trace.root())),
                ]),
            ));
            walls.push((key, Json::obj([("trace", span_walls(trace.root()))])));
        }
        Self {
            counters: Json::Obj(counters),
            walls: Json::Obj(walls),
            ..Self::new(bench)
        }
    }
}

fn span_counters(span: &SpanRecord) -> Json {
    let mut entries = vec![
        ("name", Json::str(span.name())),
        (
            "counters",
            Json::obj(span.counters().map(|(c, v)| (c.as_str(), Json::num(v)))),
        ),
    ];
    if span.histograms().next().is_some() {
        let hists = span.histograms().map(|(c, h)| {
            let buckets = h.buckets().map(|(le, n)| (le.to_string(), Json::num(n)));
            let hist = Json::obj([
                ("count", Json::num(h.count())),
                ("sum", Json::num(h.sum())),
                ("buckets", Json::obj(buckets)),
            ]);
            (c.as_str(), hist)
        });
        entries.push(("hists", Json::obj(hists)));
    }
    let children = span.children().iter().map(span_counters).collect();
    entries.push(("children", Json::Arr(children)));
    Json::obj(entries)
}

fn span_walls(span: &SpanRecord) -> Json {
    let mut entries = vec![("wall_us", Json::num(span.wall().as_micros()))];
    if !span.children().is_empty() {
        let children = span.children().iter().map(span_walls).collect();
        entries.push(("children", Json::Arr(children)));
    }
    Json::obj(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_obs::{Counter, Span, Trace};

    fn tiny(name: &str, rounds: u64) -> Trace {
        let mut s = Span::start(name);
        s.set(Counter::Rounds, rounds);
        Trace::new(s.finish())
    }

    #[test]
    fn control_characters_in_labels_round_trip_through_the_codec() {
        let label = "line\nbreak\ttab\u{1}soh \"q\" back\\slash";
        let reg = Registry::new();
        reg.record(label, tiny("stage\r\u{1f}", 4));
        let text = Report::from_registry("obs", &reg).to_json();
        let doc = json::parse(&text).expect("the report is valid JSON");
        let section = doc.get("counters").and_then(json::Value::as_obj);
        let (key, entry) = &section.expect("a counters object")[0];
        assert_eq!(key, label);
        let name = entry.get("trace").and_then(|t| t.get("name"));
        assert_eq!(name.and_then(json::Value::as_str), Some("stage\r\u{1f}"));
        assert!(crate::diff::check_schema(&doc).is_empty());
    }

    #[test]
    fn registry_counters_and_walls_mirror_one_span_tree() {
        let mut root = Span::start("root");
        root.set(Counter::Nodes, 10);
        root.scope("child", |s| s.observe(Counter::ViewNodes, 3));
        let reg = Registry::new();
        reg.record("e1/stage", Trace::new(root.finish()));
        let text = Report::from_registry("obs", &reg).to_json();
        let doc = json::parse(&text).expect("the report parses");
        let section = |name: &str| doc.get(name).and_then(|s| s.get("e1/stage"));
        let (counters, walls) = (section("counters"), section("walls"));
        let trace = counters.and_then(|e| e.get("trace"));
        let trace = trace.expect("the stage's trace");
        assert_eq!(
            counters.and_then(|e| e.get("order")),
            Some(&json::Value::Num("0"))
        );
        assert!(trace.get("wall_us").is_none());
        let child = &trace
            .get("children")
            .and_then(json::Value::as_arr)
            .expect("children")[0];
        let hist = child.get("hists").and_then(|h| h.get("view-nodes"));
        assert_eq!(
            hist.and_then(|h| h.get("sum")),
            Some(&json::Value::Num("3"))
        );

        let mirror = walls.and_then(|e| e.get("trace")).expect("mirror");
        assert!(mirror
            .get("wall_us")
            .and_then(json::Value::as_u64)
            .is_some());
        let kids = mirror
            .get("children")
            .and_then(json::Value::as_arr)
            .expect("children");
        assert_eq!(kids.len(), 1);
        assert!(
            kids[0].get("children").is_none(),
            "leaf spans carry no children"
        );
    }

    #[test]
    fn a_failed_write_is_an_error() {
        let dir = std::env::temp_dir().join(format!("lcl-report-write-{}", std::process::id()));
        std::fs::write(&dir, "a regular file").expect("temp dir is writable");
        // A path below a regular file cannot be created.
        let result = Report::new("obs").write_to(dir.join("BENCH_obs.json"));
        std::fs::remove_file(&dir).expect("remove the temp file");
        assert!(result.is_err(), "{result:?}");
    }

    #[test]
    fn sections_nest_below_the_document_root() {
        let mut report = Report::new("demo");
        report.counters = Json::obj([
            ("rows", Json::num(3)),
            (
                "levels",
                Json::Arr(vec![Json::obj([("level", Json::num(1))])]),
            ),
        ]);
        report.walls = Json::obj([("wall_ms", Json::fixed(1.0 / 3.0, 4))]);
        report.fits = Json::obj([(
            "p",
            Json::obj([("ns", Json::Arr(vec![Json::num(1), Json::num(2)]))]),
        )]);
        assert_eq!(
            report.to_json(),
            "{\n  \"bench\": \"demo\",\n  \"counters\": {\n    \"rows\": 3,\n    \
             \"levels\": [\n      {\"level\": 1}\n    ]\n  },\n  \"walls\": {\n    \
             \"wall_ms\": 0.3333\n  },\n  \"fits\": {\n    \"p\": {\n      \
             \"ns\": [1, 2]\n    }\n  }\n}\n"
        );
        assert_eq!(Json::fixed(f64::NAN, 2), Json::Raw("null".into()));
    }
}
