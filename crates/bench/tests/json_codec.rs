//! Conformance and robustness of the workspace's one JSON codec
//! (`lcl_obs::json`) and of every public decoder built on it.
//!
//! * **Conformance table.** One table of string and number fragments
//!   with their verdict under RFC 8259, run through the codec itself
//!   and embedded into each decoder's documents: `TowerSnapshot::parse`,
//!   `ShardSnapshot::parse` and the service's line protocol. A fragment
//!   the grammar rejects must fail every decoder at the same byte and
//!   for the same reason; one it accepts must decode to the same value
//!   everywhere.
//! * **Seeded mutations.** A real tower snapshot, a shard snapshot, a
//!   classify request line, a shard-worker `init` line and every
//!   committed `BENCH_*.json` each take a thousand seeded byte
//!   mutations. No decoder may panic, and every mutant that still
//!   decodes must round-trip through its writer.

use lcl_core::{ReOptions, ReTower, SnapshotError, TowerSnapshot};
use lcl_faults::FaultPlan;
use lcl_obs::json::{self, Value};
use lcl_problems::catalog::sinkless_orientation;
use lcl_procshard::wire::InitCmd;
use lcl_procshard::{AlgSpec, GraphSpec, InputSpec};
use lcl_rng::SmallRng;
use lcl_service::protocol::{encode_request, parse_flat_object, parse_request};
use lcl_service::{ClassifyRequest, ProtocolError};
use lcl_shard::{ShardSnapshot, ShardSnapshotError, SHARD_SNAPSHOT_VERSION};

/// A fragment's verdict under the grammar.
#[derive(Clone, Copy, Debug)]
enum Verdict {
    /// A string literal decoding to this text.
    Str(&'static str),
    /// A number that is a `u64`.
    U64(u64),
    /// A valid number that is not a `u64` (sign, fraction, exponent,
    /// overflow): decoders reject it after the codec accepted it.
    NotU64,
    /// Not JSON: the codec stops at this byte of the fragment.
    Syntax(usize),
}

use Verdict::{NotU64, Str, Syntax, U64};

/// The rows marked "changed" were decided differently by at least one
/// of the four hand-written parsers the codec replaced.
const TABLE: &[(&str, Verdict)] = &[
    (r#""plain π""#, Str("plain π")),
    (r#""q\"b\\s\/""#, Str("q\"b\\s/")),
    (r#""\n\r\t""#, Str("\n\r\t")),
    // changed: the protocol rejected \b and \f.
    (r#""\b\f""#, Str("\u{8}\u{c}")),
    (r#""éé""#, Str("éé")),
    (r#""\u001e\u001f""#, Str("\u{1e}\u{1f}")),
    (r#""😀""#, Str("\u{1f600}")),
    // changed: the bench reader accepted a signed \u escape.
    (r#""\u+04a""#, Syntax(3)),
    (r#""\u12""#, Syntax(5)),
    (r#""\x""#, Syntax(2)),
    // changed: the bench reader turned lone surrogates into U+FFFD.
    (r#""\ud83d""#, Syntax(7)),
    (r#""\ud83d x""#, Syntax(7)),
    (r#""\ud83d\u0041""#, Syntax(9)),
    (r#""\ude00""#, Syntax(3)),
    // changed: the protocol and the bench reader accepted raw control
    // characters inside strings.
    ("\"a\u{1}b\"", Syntax(2)),
    ("\"a\tb\"", Syntax(2)),
    ("\"a\nb\"", Syntax(2)),
    ("0", U64(0)),
    ("42", U64(42)),
    ("18446744073709551615", U64(u64::MAX)),
    ("18446744073709551616", NotU64),
    ("-1", NotU64),
    ("-0", NotU64),
    ("1.5", NotU64),
    ("1e2", NotU64),
    ("1E+2", NotU64),
    // changed: the bench reader accepted these four.
    ("-.5", Syntax(1)),
    ("1.", Syntax(2)),
    ("01", Syntax(1)),
    ("1e", Syntax(2)),
    ("+1", Syntax(0)),
    (".5", Syntax(0)),
    ("-", Syntax(1)),
    ("tru", Syntax(0)),
];

fn real_tower() -> TowerSnapshot {
    let mut tower = ReTower::new(sinkless_orientation(3));
    tower
        .push_f(ReOptions::default())
        .expect("sinkless orientation builds one f-step");
    tower.snapshot()
}

fn sample_shard() -> ShardSnapshot {
    ShardSnapshot {
        version: SHARD_SNAPSHOT_VERSION,
        shard: 3,
        range_start: 12,
        range_end: 20,
        superstep: 5,
        live_nodes: 7,
        halo_messages: 44,
        halo_bytes: 352,
    }
}

fn sample_request() -> ClassifyRequest {
    ClassifyRequest {
        id: 7,
        problem: sinkless_orientation(3).to_text(),
        steps: 2,
    }
}

fn sample_init() -> InitCmd {
    InitCmd {
        graph: GraphSpec::Path { n: 40 },
        alg: AlgSpec::GuardedFlood { k: 3 },
        input: InputSpec::Uniform,
        ids: (0..10).map(|i| 7 * i + 1).collect(),
        n: 40,
        shards: 4,
        shard: 1,
        plan_text: FaultPlan::random(3, 40, 8).to_text(),
        hang_at: Some(2),
    }
}

/// `doc` with the scalar value after the first `key` replaced by
/// `fragment`, and the fragment's byte offset.
fn splice(doc: &str, key: &str, fragment: &str) -> (String, usize) {
    let start = doc.find(key).expect("key present") + key.len();
    let value = &doc.as_bytes()[start..];
    let len = if value[0] == b'"' {
        let mut i = 1;
        while value[i] != b'"' {
            i += if value[i] == b'\\' { 2 } else { 1 };
        }
        i + 1
    } else {
        value
            .iter()
            .position(|b| matches!(b, b',' | b'}'))
            .expect("a number is followed by a separator")
    };
    let spliced = format!("{}{fragment}{}", &doc[..start], &doc[start + len..]);
    (spliced, start)
}

#[test]
fn one_conformance_table_through_the_codec_and_every_decoder() {
    let request_line = encode_request(&sample_request());
    let tower_doc = real_tower().to_json();
    let shard_doc = sample_shard().to_json();
    for &(fragment, verdict) in TABLE {
        let parsed = json::parse(fragment);
        match verdict {
            Str(s) => assert_eq!(parsed.as_ref().ok().and_then(Value::as_str), Some(s)),
            U64(v) => assert_eq!(parsed.as_ref().ok().and_then(Value::as_u64), Some(v)),
            NotU64 => assert_eq!(parsed.as_ref().map(Value::as_u64), Ok(None)),
            Syntax(pos) => assert_eq!(parsed.as_ref().map_err(|e| e.pos), Err(pos)),
        }

        // Strings go where each decoder keeps text verbatim (a shard
        // snapshot has only integer fields, so there the string is a
        // key); numbers go where each decoder wants a u64.
        let is_str = fragment.starts_with('"');
        let key = |string_key, number_key| if is_str { string_key } else { number_key };
        let (line, line_at) = splice(&request_line, key("\"problem\":", "\"id\":"), fragment);
        let (tower, tower_at) = splice(&tower_doc, key("\"problem\":", "\"wall_us\":"), fragment);
        let (shard, shard_at) = if is_str {
            (format!("{{{fragment}: 1}}"), 1)
        } else {
            splice(&shard_doc, "\"halo_bytes\": ", fragment)
        };
        let request = parse_request(&line);
        let snapshot = TowerSnapshot::parse(&tower);
        let shard_snapshot = ShardSnapshot::parse(&shard);
        match verdict {
            Str(s) => {
                assert_eq!(request.map(|r| r.problem), Ok(s.to_string()));
                assert_eq!(snapshot.map(|t| t.problem), Ok(s.to_string()));
                assert_eq!(
                    shard_snapshot,
                    Err(ShardSnapshotError::Invalid("unknown snapshot field"))
                );
            }
            U64(v) => {
                assert_eq!(request.map(|r| r.id), Ok(v));
                assert_eq!(snapshot.map(|t| t.spans[0].wall_us), Ok(v));
                assert_eq!(shard_snapshot.map(|s| s.halo_bytes), Ok(v));
            }
            NotU64 => {
                let what = "a number fitting u64";
                assert_eq!(
                    request,
                    Err(ProtocolError::Malformed { pos: line_at, what }),
                    "{fragment}"
                );
                assert!(matches!(snapshot, Err(SnapshotError::Json { pos: 0, .. })));
                assert!(matches!(
                    shard_snapshot,
                    Err(ShardSnapshotError::Json { pos: 0, .. })
                ));
            }
            Syntax(pos) => {
                // Every decoder reports the codec's error on its own
                // document, and that error is at the fragment's byte.
                let codec = |doc: &str, at: usize| {
                    let e = json::parse(doc).expect_err("the fragment breaks the document");
                    assert_eq!(e.pos, at + pos, "{fragment} in {doc}");
                    e
                };
                let e = codec(&line, line_at);
                let (pos, what) = (e.pos, e.what);
                assert_eq!(request, Err(ProtocolError::Malformed { pos, what }));
                let e = codec(&tower, tower_at);
                let (pos, what) = (e.pos, e.what);
                assert_eq!(snapshot, Err(SnapshotError::Json { pos, what }));
                let e = codec(&shard, shard_at);
                let (pos, what) = (e.pos, e.what);
                assert_eq!(shard_snapshot, Err(ShardSnapshotError::Json { pos, what }));
            }
        }
    }
}

/// Applies one to four seeded edits: overwrite a byte, insert a
/// JSON-significant byte, delete a byte, or duplicate the tail.
fn mutate(text: &str, rng: &mut SmallRng) -> String {
    const ALPHABET: &[u8; 24] = b"\"\\{}[],:0123456789-.eE+u";
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + rng.next_u64() % 4 {
        let at = |rng: &mut SmallRng, len: usize| (rng.next_u64() % len as u64) as usize;
        match rng.next_u64() % 4 {
            0 if !bytes.is_empty() => {
                let i = at(rng, bytes.len());
                bytes[i] = (rng.next_u64() % 256) as u8;
            }
            1 => {
                let i = at(rng, bytes.len() + 1);
                bytes.insert(i, ALPHABET[at(rng, ALPHABET.len())]);
            }
            2 if !bytes.is_empty() => {
                let i = at(rng, bytes.len());
                bytes.remove(i);
            }
            _ if !bytes.is_empty() => {
                let i = at(rng, bytes.len());
                let tail = bytes[i..].to_vec();
                bytes.extend_from_slice(&tail);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs 1000 mutants of `seed_doc` through `decode_round_trips`, which
/// returns whether the mutant decoded (and asserts its round trip).
/// Some mutants must decode and some must not.
fn survive_mutations(name: &str, seed_doc: &str, mut decode_round_trips: impl FnMut(&str) -> bool) {
    let mut rng = SmallRng::seed_from_u64(0x5eed_c0de_c0de_0001 ^ seed_doc.len() as u64);
    let mut accepted = 0u32;
    for _ in 0..1000 {
        if decode_round_trips(&mutate(seed_doc, &mut rng)) {
            accepted += 1;
        }
    }
    assert!(
        accepted > 0,
        "{name}: some light mutations should still decode"
    );
    assert!(
        accepted < 1000,
        "{name}: heavy mutations should be rejected"
    );
}

/// The codec's value writer: the inverse of [`json::parse`] up to
/// whitespace.
fn write_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(raw) => out.push_str(raw),
        Value::Str(s) => json::push_string(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Obj(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_string(out, key);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

#[test]
fn tower_snapshots_survive_a_thousand_seeded_mutations() {
    survive_mutations("tower", &real_tower().to_json(), |text| {
        let Ok(snap) = TowerSnapshot::parse(text) else {
            return false;
        };
        assert_eq!(TowerSnapshot::parse(&snap.to_json()), Ok(snap));
        true
    });
}

#[test]
fn shard_snapshots_survive_a_thousand_seeded_mutations() {
    survive_mutations("shard", &sample_shard().to_json(), |text| {
        let Ok(snap) = ShardSnapshot::parse(text) else {
            return false;
        };
        assert_eq!(ShardSnapshot::parse(&snap.to_json()), Ok(snap));
        true
    });
}

#[test]
fn classify_requests_survive_a_thousand_seeded_mutations() {
    survive_mutations("request", &encode_request(&sample_request()), |text| {
        let Ok(req) = parse_request(text) else {
            return false;
        };
        assert_eq!(parse_request(&encode_request(&req)), Ok(req));
        true
    });
}

#[test]
fn init_lines_survive_a_thousand_seeded_mutations() {
    let decode = |line: &str| {
        parse_flat_object(line)
            .map_err(|e| e.to_string())
            .and_then(|fields| InitCmd::parse(&fields))
    };
    survive_mutations("init", &sample_init().encode(), |text| {
        let Ok(cmd) = decode(text) else {
            return false;
        };
        assert_eq!(decode(&cmd.encode()), Ok(cmd));
        true
    });
}

#[test]
fn bench_baselines_survive_a_thousand_seeded_mutations_each() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut baselines: Vec<_> = std::fs::read_dir(root)
        .expect("repository root")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    baselines.sort();
    assert!(baselines.len() >= 7, "{baselines:?}");
    for path in baselines {
        let text = std::fs::read_to_string(&path).expect("baseline reads");
        survive_mutations(&path.display().to_string(), &text, |text| {
            let Ok(doc) = json::parse(text) else {
                return false;
            };
            let mut written = String::new();
            write_value(&doc, &mut written);
            assert_eq!(json::parse(&written), Ok(doc));
            true
        });
    }
}
