//! Durable tower checkpoints.
//!
//! Long round-elimination runs are the workloads that most need to be
//! restartable (cf. the hours-long round-eliminator computations behind
//! the regular-tree classifications, arXiv:2202.08544): a
//! [`TowerSnapshot`] captures everything a [`ReTower`](crate::ReTower)
//! has computed — the base problem, every derived level's interned
//! label universe and configuration bitsets, the extensional tables
//! used for fixpoint detection, and the per-level spans — as JSON read
//! and escaped by the workspace's one codec ([`lcl_obs::json`]), so a
//! budget breach or panic mid-tower can resume bit-identically via
//! `ReTower::resume_from`.
//!
//! The snapshot deliberately excludes the node-constraint memo cache:
//! it is a pure performance artifact, rebuilt on demand, and the only
//! observable difference after a resume is future memo hit/miss
//! counters — never a structural result. [`TowerSnapshot::fingerprint`]
//! therefore hashes only the structural fields, which is the identity
//! the interrupt-resume determinism tests assert on.

use std::fmt;

use lcl::ParseError;
use lcl_obs::json::{self, Value};

use crate::tower::LayerKind;

/// A serializable checkpoint of a tower's derived state.
///
/// Produced by `ReTower::snapshot`, consumed by `ReTower::resume_from`.
/// All fields are plain data so a snapshot can cross a panic boundary,
/// a process restart, or a file on disk.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TowerSnapshot {
    /// The base problem in its canonical text form
    /// (`LclProblem::to_text`).
    pub problem: String,
    /// One entry per derived level, in push order.
    pub layers: Vec<LayerSnapshot>,
    /// Extensional tables per level *including the base* (index 0), so
    /// `tables.len() == layers.len() + 1`. `None` slots are levels whose
    /// table was never computed (too large, or the lazily-computed base
    /// slot before any fixpoint check ran) and stay `None` on resume.
    pub tables: Vec<Option<TableSnapshot>>,
    /// The per-level engine spans (`spans.len() == layers.len()`),
    /// preserved so stats and traces survive a resume.
    pub spans: Vec<SpanSnapshot>,
}

/// One derived level: its operator, interned label universe, and
/// constraint bitsets (serialized as sorted member-index lists).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LayerSnapshot {
    /// Which operator produced the level.
    pub kind: LayerKind,
    /// Label `i`'s sorted parent-label member set; the position in this
    /// vector *is* the interner id, which is what makes resume
    /// bit-identical.
    pub members: Vec<Vec<u32>>,
    /// Edge compatibility row per label, as sorted label-index lists.
    pub edge_rows: Vec<Vec<usize>>,
    /// Allowed labels per input label, as sorted label-index lists.
    pub g_rows: Vec<Vec<usize>>,
}

/// A level's extensional table (the fixpoint-detection witness).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TableSnapshot {
    /// Universe size the table was computed over.
    pub labels: usize,
    /// Edge compatibility rows as sorted label-index lists.
    pub edge_rows: Vec<Vec<usize>>,
    /// `g` rows as sorted label-index lists.
    pub g_rows: Vec<Vec<usize>>,
    /// Node relation over all multisets of sizes `1..=Δ` in canonical
    /// enumeration order.
    pub node_relation: Vec<bool>,
}

/// One per-level span: name, wall clock, and named counters.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpanSnapshot {
    /// Span name (`level-{k}/{r|rbar}`).
    pub name: String,
    /// Wall-clock microseconds of the recorded step.
    pub wall_us: u64,
    /// Counter values keyed by their stable kebab-case names.
    pub counters: Vec<(String, u64)>,
}

/// The snapshot format version this build writes and accepts. Bump it
/// whenever [`TowerSnapshot::to_json`] changes shape; readers reject
/// every other version with [`SnapshotError::Version`] instead of
/// misinterpreting the document.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Why a snapshot could not be decoded or resumed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SnapshotError {
    /// The JSON text itself was malformed.
    Json {
        /// Byte offset the parser stopped at.
        pos: usize,
        /// What it expected there.
        what: &'static str,
    },
    /// The embedded problem text failed to parse.
    Problem(ParseError),
    /// The JSON was well-formed but structurally inconsistent (bad
    /// lengths, out-of-range indices, duplicate label sets, ...).
    Invalid(&'static str),
    /// A span counter name no current [`lcl_obs::Counter`] matches.
    UnknownCounter(String),
    /// The document declares a format version this build does not
    /// understand (or omits the version field entirely, reported as
    /// `found: 0`).
    Version {
        /// The version the document declared (0 when absent).
        found: u64,
        /// The only version this build reads ([`SNAPSHOT_VERSION`]).
        supported: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Json { pos, what } => {
                write!(f, "snapshot JSON at byte {pos}: expected {what}")
            }
            SnapshotError::Problem(e) => write!(f, "snapshot problem text: {e}"),
            SnapshotError::Invalid(what) => write!(f, "inconsistent snapshot: {what}"),
            SnapshotError::UnknownCounter(name) => {
                write!(f, "snapshot names unknown counter `{name}`")
            }
            SnapshotError::Version { found, supported } => {
                write!(
                    f,
                    "snapshot format version {found} (this build reads only {supported})"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Problem(e) => Some(e),
            _ => None,
        }
    }
}

impl TowerSnapshot {
    /// Serializes the snapshot as a single JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"version\":1,\"problem\":");
        json::push_string(&mut out, &self.problem);
        out.push_str(",\"layers\":[");
        for (i, layer) in self.layers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"kind\":");
            out.push_str(match layer.kind {
                LayerKind::R => "\"r\"",
                LayerKind::RBar => "\"rbar\"",
            });
            out.push_str(",\"members\":");
            push_nested_u32(&mut out, &layer.members);
            out.push_str(",\"edge_rows\":");
            push_nested_usize(&mut out, &layer.edge_rows);
            out.push_str(",\"g_rows\":");
            push_nested_usize(&mut out, &layer.g_rows);
            out.push('}');
        }
        out.push_str("],\"tables\":[");
        for (i, table) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match table {
                None => out.push_str("null"),
                Some(t) => {
                    out.push_str("{\"labels\":");
                    out.push_str(&t.labels.to_string());
                    out.push_str(",\"edge_rows\":");
                    push_nested_usize(&mut out, &t.edge_rows);
                    out.push_str(",\"g_rows\":");
                    push_nested_usize(&mut out, &t.g_rows);
                    out.push_str(",\"node_relation\":[");
                    for (j, &b) in t.node_relation.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(if b { "true" } else { "false" });
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("],\"spans\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::push_string(&mut out, &span.name);
            out.push_str(",\"wall_us\":");
            out.push_str(&span.wall_us.to_string());
            out.push_str(",\"counters\":{");
            for (j, (name, value)) in span.counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::push_string(&mut out, name);
                out.push(':');
                out.push_str(&value.to_string());
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Parses a document produced by [`TowerSnapshot::to_json`].
    pub fn parse(text: &str) -> Result<Self, SnapshotError> {
        let root = json::parse(text).map_err(|e| SnapshotError::Json {
            pos: e.pos,
            what: e.what,
        })?;
        want(root.as_obj(), "snapshot object")?;
        let version = match root.get("version") {
            Some(v) => want(v.as_u64(), "format version")?,
            None => 0,
        };
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Version {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let mut layers = Vec::new();
        for layer in array(&root, "layers")? {
            let kind = match want(layer.get("kind").and_then(Value::as_str), "layer kind")? {
                "r" => LayerKind::R,
                "rbar" => LayerKind::RBar,
                _ => return Err(SnapshotError::Invalid("unknown layer kind")),
            };
            layers.push(LayerSnapshot {
                kind,
                members: nested(
                    layer,
                    "members",
                    |n| u32::try_from(n).ok(),
                    "member exceeds u32",
                )?,
                edge_rows: nested(layer, "edge_rows", usize_from, "count exceeds usize")?,
                g_rows: nested(layer, "g_rows", usize_from, "count exceeds usize")?,
            });
        }
        let mut tables = Vec::new();
        for table in array(&root, "tables")? {
            if *table == Value::Null {
                tables.push(None);
                continue;
            }
            let mut node_relation = Vec::new();
            for b in array(table, "node_relation")? {
                node_relation.push(want(b.as_bool(), "node relation entry")?);
            }
            let labels = want(table.get("labels").and_then(Value::as_u64), "label count")?;
            tables.push(Some(TableSnapshot {
                labels: usize_from(labels).ok_or(SnapshotError::Invalid("count exceeds usize"))?,
                edge_rows: nested(table, "edge_rows", usize_from, "count exceeds usize")?,
                g_rows: nested(table, "g_rows", usize_from, "count exceeds usize")?,
                node_relation,
            }));
        }
        let mut spans = Vec::new();
        for span in array(&root, "spans")? {
            let counters = want(span.get("counters").and_then(Value::as_obj), "counter map")?;
            spans.push(SpanSnapshot {
                name: want(span.get("name").and_then(Value::as_str), "span name")?.to_string(),
                wall_us: want(span.get("wall_us").and_then(Value::as_u64), "span wall")?,
                counters: counters
                    .iter()
                    .map(|(name, value)| {
                        Ok((name.to_string(), want(value.as_u64(), "counter value")?))
                    })
                    .collect::<Result<_, SnapshotError>>()?,
            });
        }
        Ok(Self {
            problem: want(
                root.get("problem").and_then(Value::as_str),
                "problem string",
            )?
            .to_string(),
            layers,
            tables,
            spans,
        })
    }

    /// An FNV-1a hash of the snapshot's *structural* content: the
    /// problem text, every layer's kind/universe/bitsets, and the
    /// extensional tables. Spans are excluded on purpose — resuming
    /// clears the memo cache, which changes future hit/miss counters
    /// but never the derived problems — so an interrupted-and-resumed
    /// tower fingerprints identically to an uninterrupted one.
    pub fn fingerprint(&self) -> String {
        let mut structural = self.clone();
        structural.spans.clear();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in structural.to_json().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{hash:016x}")
    }
}

fn usize_from(wide: u64) -> Option<usize> {
    usize::try_from(wide).ok()
}

/// A decoded field, or the [`SnapshotError::Json`] naming what was
/// missing or mistyped (the codec has no positions for decoded values).
fn want<T>(value: Option<T>, what: &'static str) -> Result<T, SnapshotError> {
    value.ok_or(SnapshotError::Json { pos: 0, what })
}

/// The array field `key` of the object `obj`.
fn array<'v, 'a>(obj: &'v Value<'a>, key: &'static str) -> Result<&'v [Value<'a>], SnapshotError> {
    want(obj.get(key).and_then(Value::as_arr), key)
}

/// The array-of-integer-arrays field `key`, each integer narrowed by
/// `narrow` (`overflow` names a failed narrowing).
fn nested<T>(
    obj: &Value<'_>,
    key: &'static str,
    narrow: impl Fn(u64) -> Option<T>,
    overflow: &'static str,
) -> Result<Vec<Vec<T>>, SnapshotError> {
    let rows_in = array(obj, key)?;
    let mut rows = Vec::with_capacity(rows_in.len());
    for row in rows_in {
        let row = want(row.as_arr(), "inner array")?;
        let mut out = Vec::with_capacity(row.len());
        for v in row {
            let wide = want(v.as_u64(), "array number")?;
            out.push(narrow(wide).ok_or(SnapshotError::Invalid(overflow))?);
        }
        rows.push(out);
    }
    Ok(rows)
}

fn push_nested_u32(out: &mut String, rows: &[Vec<u32>]) {
    out.push('[');
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&v.to_string());
        }
        out.push(']');
    }
    out.push(']');
}

fn push_nested_usize(out: &mut String, rows: &[Vec<usize>]) {
    out.push('[');
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&v.to_string());
        }
        out.push(']');
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TowerSnapshot {
        TowerSnapshot {
            problem: "max-degree: 3\nnodes:\nA*\nedges:\nA A\n".to_string(),
            layers: vec![LayerSnapshot {
                kind: LayerKind::R,
                members: vec![vec![0], vec![0, 1]],
                edge_rows: vec![vec![0, 1], vec![0]],
                g_rows: vec![vec![0, 1]],
            }],
            tables: vec![
                None,
                Some(TableSnapshot {
                    labels: 2,
                    edge_rows: vec![vec![0, 1], vec![0]],
                    g_rows: vec![vec![0, 1]],
                    node_relation: vec![true, false, true],
                }),
            ],
            spans: vec![SpanSnapshot {
                name: "level-1/r".to_string(),
                wall_us: 1234,
                counters: vec![
                    ("labels-interned".to_string(), 2),
                    ("labels-alive".to_string(), 2),
                ],
            }],
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let snap = sample();
        let text = snap.to_json();
        let back = TowerSnapshot::parse(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), text, "serialization is canonical");
    }

    #[test]
    fn strings_with_escapes_round_trip() {
        let mut snap = sample();
        snap.problem = "tabs\tand\nnewlines \"quoted\" back\\slash \u{1} π".to_string();
        let back = TowerSnapshot::parse(&snap.to_json()).unwrap();
        assert_eq!(back.problem, snap.problem);
    }

    #[test]
    fn fingerprint_ignores_spans_but_not_structure() {
        let snap = sample();
        let mut respanned = snap.clone();
        respanned.spans[0].counters[0].1 = 999;
        respanned.spans[0].wall_us = 1;
        assert_eq!(snap.fingerprint(), respanned.fingerprint());
        let mut restructured = snap.clone();
        restructured.layers[0].members[1] = vec![1];
        assert_ne!(snap.fingerprint(), restructured.fingerprint());
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        assert!(matches!(
            TowerSnapshot::parse("not json"),
            Err(SnapshotError::Json { .. })
        ));
        assert!(matches!(
            TowerSnapshot::parse("{\"version\":1}"),
            Err(SnapshotError::Json { .. })
        ));
        let truncated = &sample().to_json()[..40];
        assert!(TowerSnapshot::parse(truncated).is_err());
        assert!(TowerSnapshot::parse(
            "{\"problem\":\"x\",\"layers\":[],\"tables\":[],\"spans\":[],\"extra\":1.5}"
        )
        .is_err());
    }

    #[test]
    fn unsupported_format_versions_are_rejected_with_a_typed_error() {
        let future = sample()
            .to_json()
            .replacen("\"version\":1", "\"version\":2", 1);
        assert_eq!(
            TowerSnapshot::parse(&future),
            Err(SnapshotError::Version {
                found: 2,
                supported: SNAPSHOT_VERSION,
            })
        );
        // A document with no version field at all predates the format and
        // is rejected the same way, reported as version 0.
        let unversioned = sample().to_json().replacen("\"version\":1,", "", 1);
        assert_eq!(
            TowerSnapshot::parse(&unversioned),
            Err(SnapshotError::Version {
                found: 0,
                supported: SNAPSHOT_VERSION,
            })
        );
    }

    #[test]
    fn numbers_overflowing_u64_are_rejected() {
        let doc = "{\"version\":1,\"problem\":\"x\",\"layers\":[],\"tables\":[{\"labels\":99999999999999999999,\"edge_rows\":[],\"g_rows\":[],\"node_relation\":[]}],\"spans\":[]}";
        assert!(matches!(
            TowerSnapshot::parse(doc),
            Err(SnapshotError::Json { .. })
        ));
    }
}
