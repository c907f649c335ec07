//! The supervisor ↔ worker wire: one flat-JSON object per line.
//!
//! The shard wire reuses the classification service's protocol layer
//! ([`lcl_service::protocol`]) for framing: every command and reply is
//! a single newline-terminated flat JSON object. Structured payloads —
//! halo batches, fault lists, event streams — ride inside string
//! fields using two reserved control characters (`\u{1e}` between
//! entries, `\u{1f}` between fields of an entry), which the JSON codec's
//! escaper ([`lcl_obs::json::push_string`]) writes as `\u001e`/`\u001f`.
//!
//! Everything on this wire is plain data: halo payloads are encoded by
//! the only processes that know the message type (the workers), and
//! the supervisor routes them as opaque strings. That is what keeps
//! the supervisor non-generic over algorithms.
//!
//! Both bulk payloads are O(n/shards) per worker, as in the LOCAL model,
//! where a node starts out knowing only its own identifier: the `init`
//! command carries only the ids of the shard's owned node range, and
//! the `outputs` reply carries one flat list of labels over the shard's
//! owned half-edges. Owned half-edges are contiguous in the graph's CSR
//! layout, so the supervisor concatenates the shards' lists, in shard
//! order, into the whole labeling.

use std::io::{BufRead, Write};

use lcl_faults::NodeFault;
use lcl_graph::gen;
use lcl_obs::{json, Event};
use lcl_service::protocol::{parse_flat_object, Scalar};
use lcl_service::push_str_field;
use lcl_shard::HaloBatches;

use crate::spec::{AlgSpec, GraphSpec, InputSpec};

/// Entry separator inside packed string fields (fault lists, events).
pub const ENTRY_SEP: char = '\u{1e}';
/// Field separator inside one packed entry.
pub const FIELD_SEP: char = '\u{1f}';

/// Writes one protocol line (appends the newline) and flushes.
pub fn write_line(w: &mut impl Write, line: &str) -> std::io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Reads one protocol line; `Ok(None)` is a clean EOF (peer closed).
pub fn read_line(r: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    let n = r.read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// Reads and parses one line into flat fields; EOF and malformed lines
/// surface as `Err` strings the caller attributes to the peer.
pub fn read_fields(r: &mut impl BufRead) -> Result<Vec<(String, Scalar)>, String> {
    match read_line(r) {
        Ok(Some(line)) => parse_flat_object(&line).map_err(|e| e.to_string()),
        Ok(None) => Err("peer closed the connection".to_string()),
        Err(e) => Err(e.to_string()),
    }
}

/// Appends the decimal form of `value` without allocating.
fn push_decimal(out: &mut String, value: u64) {
    use std::fmt::Write;
    write!(out, "{value}").expect("why: writing into a String cannot fail");
}

/// Appends `values` in decimal, separated by `,`.
fn push_decimal_list(out: &mut String, values: impl IntoIterator<Item = u64>) {
    for (i, value) in values.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_decimal(out, value);
    }
}

/// Parses a `,`-separated decimal list; the empty string is the empty
/// list.
fn parse_decimal_list<T: std::str::FromStr>(text: &str, what: &str) -> Result<Vec<T>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|x| {
            x.parse()
                .map_err(|_| format!("{what} {x:?} does not parse"))
        })
        .collect()
}

/// Appends `,"name":value` for an unsigned number.
pub fn push_num_field(out: &mut String, name: &str, value: u64) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":");
    push_decimal(out, value);
}

/// Appends `,"name":"value"` with escaping.
pub fn push_text_field(out: &mut String, name: &str, value: &str) {
    out.push(',');
    push_str_field(out, name, value);
}

/// Appends `,"name":true|false`.
pub fn push_bool_field(out: &mut String, name: &str, value: bool) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":");
    out.push_str(if value { "true" } else { "false" });
}

/// Starts a command/reply line: `{"op":"<op>"`.
pub fn open_line(op: &str) -> String {
    let mut out = String::from("{\"op\":");
    json::push_string(&mut out, op);
    out
}

/// Looks up a required string field.
pub fn want_str(fields: &[(String, Scalar)], name: &'static str) -> Result<String, String> {
    lcl_service::protocol::get_str(fields, name).map_err(|e| e.to_string())
}

/// Looks up a required number field.
pub fn want_num(fields: &[(String, Scalar)], name: &'static str) -> Result<u64, String> {
    lcl_service::protocol::get_num(fields, name).map_err(|e| e.to_string())
}

/// Looks up a required bool field.
pub fn want_bool(fields: &[(String, Scalar)], name: &'static str) -> Result<bool, String> {
    match fields.iter().find(|(n, _)| n == name) {
        Some((_, Scalar::Bool(b))) => Ok(*b),
        Some(_) => Err(format!("field {name} must be a bool")),
        None => Err(format!("field {name} is required")),
    }
}

/// Looks up an optional number field.
pub fn maybe_num(fields: &[(String, Scalar)], name: &str) -> Option<u64> {
    fields.iter().find_map(|(n, v)| match v {
        Scalar::Num(x) if n == name => Some(*x),
        _ => None,
    })
}

/// A message type that can cross the shard wire. Encodings must not
/// contain `,`, `|`, `>`, `_`, or the reserved control characters.
pub trait WireMsg: Clone {
    /// Appends this message's encoding.
    fn encode(&self, out: &mut String);
    /// Parses one encoded message.
    fn decode(text: &str) -> Option<Self>;
}

impl WireMsg for u64 {
    fn encode(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }

    fn decode(text: &str) -> Option<Self> {
        text.parse().ok()
    }
}

impl WireMsg for (u64, u32) {
    fn encode(&self, out: &mut String) {
        out.push_str(&self.0.to_string());
        out.push(':');
        out.push_str(&self.1.to_string());
    }

    fn decode(text: &str) -> Option<Self> {
        let (a, b) = text.split_once(':')?;
        Some((a.parse().ok()?, b.parse().ok()?))
    }
}

/// Encodes halo batches as `peer>e1,e2,..|peer>..`; `_` is a mute
/// (`None`) entry. `peer` is the destination shard in a `computed`
/// reply and the source shard in a `deliver` command.
pub fn encode_batches<M: WireMsg>(batches: &[(usize, Vec<Option<M>>)]) -> String {
    let mut out = String::new();
    for (i, (peer, payload)) in batches.iter().enumerate() {
        if i > 0 {
            out.push('|');
        }
        out.push_str(&peer.to_string());
        out.push('>');
        for (j, entry) in payload.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match entry {
                Some(m) => m.encode(&mut out),
                None => out.push('_'),
            }
        }
    }
    out
}

/// Splits encoded halo batches into `(peer, entries)` without decoding
/// the entries: the framing of [`encode_batches`], which is all the
/// supervisor needs to route them.
pub fn split_batches(text: &str) -> Result<Vec<(usize, &str)>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split('|')
        .map(|chunk| {
            let (peer, payload) = chunk
                .split_once('>')
                .ok_or_else(|| format!("halo batch {chunk:?} lacks a peer prefix"))?;
            let peer: usize = peer
                .parse()
                .map_err(|_| format!("halo peer {peer:?} is not a shard id"))?;
            Ok((peer, payload))
        })
        .collect()
}

/// Decodes halo batches; the inverse of [`encode_batches`].
pub fn decode_batches<M: WireMsg>(text: &str) -> Result<HaloBatches<M>, String> {
    let mut batches = Vec::new();
    for (peer, payload) in split_batches(text)? {
        let entries = if payload.is_empty() {
            Vec::new()
        } else {
            payload
                .split(',')
                .map(|e| {
                    if e == "_" {
                        Ok(None)
                    } else {
                        M::decode(e)
                            .map(Some)
                            .ok_or_else(|| format!("halo entry {e:?} does not decode"))
                    }
                })
                .collect::<Result<Vec<_>, String>>()?
        };
        batches.push((peer, entries));
    }
    Ok(batches)
}

/// Encodes a drained fault buffer. The payload is the entry's last
/// field, so it may contain anything except the two reserved control
/// characters (which no executor-produced payload contains).
pub fn encode_faults(faults: &[NodeFault]) -> String {
    let mut out = String::new();
    for (i, f) in faults.iter().enumerate() {
        if i > 0 {
            out.push(ENTRY_SEP);
        }
        out.push_str(&f.node.to_string());
        out.push(FIELD_SEP);
        out.push_str(&f.round.to_string());
        out.push(FIELD_SEP);
        out.push_str(&f.payload);
    }
    out
}

/// Decodes a fault buffer; the inverse of [`encode_faults`].
pub fn decode_faults(text: &str) -> Result<Vec<NodeFault>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(ENTRY_SEP)
        .map(|entry| {
            let mut parts = entry.splitn(3, FIELD_SEP);
            let node = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| format!("fault entry {entry:?}: bad node"))?;
            let round = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| format!("fault entry {entry:?}: bad round"))?;
            let payload = parts
                .next()
                .ok_or_else(|| format!("fault entry {entry:?}: missing payload"))?
                .to_string();
            Ok(NodeFault {
                node,
                round,
                payload,
            })
        })
        .collect()
}

/// Encodes crashed-shard flags as a `0`/`1` string indexed by shard.
pub fn encode_flags(flags: &[bool]) -> String {
    flags.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Decodes crashed-shard flags.
pub fn decode_flags(text: &str) -> Result<Vec<bool>, String> {
    text.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(format!("flag char {other:?} is not 0/1")),
        })
        .collect()
}

/// Maps a wire fault tag back to the executor's `&'static str` tag.
/// The set is closed: both sides are this workspace's executors.
pub fn static_tag(tag: &str) -> Option<&'static str> {
    Some(match tag {
        "panic" => "panic",
        "crash-stop" => "crash-stop",
        "wrong-arity" => "wrong-arity",
        "no-halt" => "no-halt",
        "halo-loss" => "halo-loss",
        "shard-crash" => "shard-crash",
        "shard-kill" => "shard-kill",
        "shard-loss" => "shard-loss",
        "budget" => "budget",
        _ => return None,
    })
}

/// Encodes a worker's private event stream (fault, retry, checkpoint,
/// and shard-step events; the only kinds a shard stream contains).
pub fn encode_events(events: &[Event]) -> String {
    let mut out = String::new();
    let mut first = true;
    for event in events {
        let mut entry = String::new();
        match event {
            Event::Fault { node, round, fault } => {
                entry.push('f');
                for part in [node.to_string(), round.to_string(), (*fault).to_string()] {
                    entry.push(FIELD_SEP);
                    entry.push_str(&part);
                }
            }
            Event::Retry {
                stage,
                attempt,
                backoff_ms,
            } => {
                entry.push('r');
                for part in [attempt.to_string(), backoff_ms.to_string(), stage.clone()] {
                    entry.push(FIELD_SEP);
                    entry.push_str(&part);
                }
            }
            Event::Checkpoint { stage, completed } => {
                entry.push('c');
                for part in [completed.to_string(), stage.clone()] {
                    entry.push(FIELD_SEP);
                    entry.push_str(&part);
                }
            }
            Event::ShardStep {
                shard,
                superstep,
                halo_messages,
                halo_bytes,
            } => {
                entry.push('s');
                for part in [shard, superstep, halo_messages, halo_bytes] {
                    entry.push(FIELD_SEP);
                    entry.push_str(&part.to_string());
                }
            }
            // A shard stream never records coordinator-level events.
            _ => continue,
        }
        if !first {
            out.push(ENTRY_SEP);
        }
        first = false;
        out.push_str(&entry);
    }
    out
}

/// Decodes a worker event stream; the inverse of [`encode_events`].
pub fn decode_events(text: &str) -> Result<Vec<Event>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(ENTRY_SEP)
        .map(|entry| {
            let bad = || format!("event entry {entry:?} does not decode");
            let (kind, rest) = entry.split_once(FIELD_SEP).ok_or_else(bad)?;
            match kind {
                "f" => {
                    let mut p = rest.splitn(3, FIELD_SEP);
                    let node = p.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
                    let round = p.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
                    let tag = p.next().ok_or_else(bad)?;
                    Ok(Event::Fault {
                        node,
                        round,
                        fault: static_tag(tag).ok_or_else(|| format!("unknown tag {tag:?}"))?,
                    })
                }
                "r" => {
                    let mut p = rest.splitn(3, FIELD_SEP);
                    let attempt = p.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
                    let backoff_ms = p.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
                    let stage = p.next().ok_or_else(bad)?.to_string();
                    Ok(Event::Retry {
                        stage,
                        attempt,
                        backoff_ms,
                    })
                }
                "c" => {
                    let mut p = rest.splitn(2, FIELD_SEP);
                    let completed = p.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
                    let stage = p.next().ok_or_else(bad)?.to_string();
                    Ok(Event::Checkpoint { stage, completed })
                }
                "s" => {
                    let mut p = rest.splitn(4, FIELD_SEP);
                    let mut next = || p.next().and_then(|x| x.parse().ok()).ok_or_else(bad);
                    Ok(Event::ShardStep {
                        shard: next()?,
                        superstep: next()?,
                        halo_messages: next()?,
                        halo_bytes: next()?,
                    })
                }
                _ => Err(bad()),
            }
        })
        .collect()
}

/// Encodes a shard's output labels as one flat `,`-separated list: the
/// nodes' port labels in node order, so a degree-0 node contributes
/// nothing.
pub fn encode_labels(outputs: &[Vec<lcl::OutLabel>]) -> String {
    let mut out = String::new();
    push_decimal_list(&mut out, outputs.iter().flatten().map(|l| u64::from(l.0)));
    out
}

/// Decodes a flat label list; the inverse of [`encode_labels`] up to
/// the per-node grouping, which the receiver recovers from the graph.
pub fn decode_labels(text: &str) -> Result<Vec<lcl::OutLabel>, String> {
    Ok(parse_decimal_list(text, "label")?
        .into_iter()
        .map(lcl::OutLabel)
        .collect())
}

/// The decoded `init` command: everything a worker needs to
/// reconstruct its shard of the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InitCmd {
    /// The graph, as a generator call.
    pub graph: GraphSpec,
    /// The algorithm, as a catalog name.
    pub alg: AlgSpec,
    /// The input labeling construction.
    pub input: InputSpec,
    /// The ids of this shard's owned node range, indexed by local node
    /// (the plan's permutation is applied to the whole assignment
    /// before it is sliced). A worker rejects a list of any other
    /// length; `parse` does not check it.
    pub ids: Vec<u64>,
    /// The announced `n`.
    pub n: usize,
    /// Total shard count of the partition.
    pub shards: usize,
    /// This worker's shard id.
    pub shard: usize,
    /// The run-wide fault plan, in `FaultPlan::to_text` form.
    pub plan_text: String,
    /// Test hook: sleep forever at the compute phase of this superstep
    /// (drives deadline-detection and respawn-storm tests).
    pub hang_at: Option<u32>,
}

impl InitCmd {
    /// Renders the `init` command line.
    pub fn encode(&self) -> String {
        let mut out = open_line("init");
        let (g, g1, g2, g3) = match self.graph {
            GraphSpec::Path { n } => ("path", n as u64, 0, 0),
            GraphSpec::RandomTree {
                n,
                max_degree,
                seed,
            } => ("tree", n as u64, u64::from(max_degree), seed),
            GraphSpec::Caterpillar { spine, legs } => ("caterpillar", spine as u64, legs as u64, 0),
            GraphSpec::Star { leaves } => ("star", leaves as u64, 0, 0),
        };
        push_text_field(&mut out, "graph", g);
        push_num_field(&mut out, "g1", g1);
        push_num_field(&mut out, "g2", g2);
        push_num_field(&mut out, "g3", g3);
        let (a, k) = match self.alg {
            AlgSpec::GuardedFlood { k } => ("flood", u64::from(k)),
            AlgSpec::AntiMatchingE1 { delta } => ("am-e1", u64::from(delta)),
        };
        push_text_field(&mut out, "alg", a);
        push_num_field(&mut out, "alg_k", k);
        let InputSpec::Uniform = self.input;
        push_text_field(&mut out, "input", "uniform");
        // Decimal digits and commas need no escaping.
        out.push_str(",\"ids\":\"");
        push_decimal_list(&mut out, self.ids.iter().copied());
        out.push('"');
        push_num_field(&mut out, "n", self.n as u64);
        push_num_field(&mut out, "shards", self.shards as u64);
        push_num_field(&mut out, "shard", self.shard as u64);
        push_text_field(&mut out, "plan", &self.plan_text);
        if let Some(h) = self.hang_at {
            push_num_field(&mut out, "hang_at", u64::from(h));
        }
        out.push('}');
        out
    }

    /// Parses an `init` command's fields; the inverse of
    /// [`InitCmd::encode`].
    pub fn parse(fields: &[(String, Scalar)]) -> Result<Self, String> {
        let g1 = want_num(fields, "g1")?;
        let g2 = want_num(fields, "g2")?;
        let g3 = want_num(fields, "g3")?;
        let graph = match want_str(fields, "graph")?.as_str() {
            "path" => GraphSpec::Path { n: g1 as usize },
            "tree" => {
                let n = g1 as usize;
                let max_degree =
                    u8::try_from(g2).map_err(|_| "tree degree overflows u8".to_string())?;
                // Reject what `gen::random_tree` would assert on.
                if !gen::tree_fits(n, max_degree) {
                    return Err(format!("no tree on {n} nodes has max degree {max_degree}"));
                }
                GraphSpec::RandomTree {
                    n,
                    max_degree,
                    seed: g3,
                }
            }
            "caterpillar" => GraphSpec::Caterpillar {
                spine: g1 as usize,
                legs: g2 as usize,
            },
            "star" => GraphSpec::Star {
                leaves: g1 as usize,
            },
            other => return Err(format!("unknown graph spec {other:?}")),
        };
        let k = want_num(fields, "alg_k")?;
        let alg = match want_str(fields, "alg")?.as_str() {
            "flood" => AlgSpec::GuardedFlood { k: k as u32 },
            "am-e1" => AlgSpec::AntiMatchingE1 {
                delta: u8::try_from(k).map_err(|_| "delta overflows u8".to_string())?,
            },
            other => return Err(format!("unknown alg spec {other:?}")),
        };
        let input = match want_str(fields, "input")?.as_str() {
            "uniform" => InputSpec::Uniform,
            other => return Err(format!("unknown input spec {other:?}")),
        };
        let ids = parse_decimal_list(&want_str(fields, "ids")?, "id")?;
        Ok(Self {
            graph,
            alg,
            input,
            ids,
            n: want_num(fields, "n")? as usize,
            shards: want_num(fields, "shards")? as usize,
            shard: want_num(fields, "shard")? as usize,
            plan_text: want_str(fields, "plan")?,
            hang_at: maybe_num(fields, "hang_at").map(|h| h as u32),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lcl_rng::SmallRng;

    #[test]
    fn batches_round_trip_for_both_message_types() {
        let flood: Vec<(usize, Vec<Option<u64>>)> =
            vec![(0, vec![Some(7), None, Some(9)]), (2, vec![None])];
        let text = encode_batches(&flood);
        assert_eq!(text, "0>7,_,9|2>_");
        assert_eq!(decode_batches::<u64>(&text).unwrap(), flood);

        let lifted: HaloBatches<(u64, u32)> = vec![(1, vec![Some((42, 3)), None])];
        let text = encode_batches(&lifted);
        assert_eq!(text, "1>42:3,_");
        assert_eq!(decode_batches::<(u64, u32)>(&text).unwrap(), lifted);

        assert_eq!(decode_batches::<u64>("").unwrap(), vec![]);
        assert!(decode_batches::<u64>("nope").is_err());
        assert!(decode_batches::<u64>("0>x").is_err());
    }

    #[test]
    fn faults_round_trip_including_awkward_payloads() {
        let faults = vec![
            NodeFault {
                node: 3,
                round: 1,
                payload: "crash-stop".into(),
            },
            NodeFault {
                node: 9,
                round: 0,
                payload: "panicked: \"quoted\", with, commas\nand newlines".into(),
            },
        ];
        let text = encode_faults(&faults);
        assert_eq!(decode_faults(&text).unwrap(), faults);
        assert_eq!(decode_faults("").unwrap(), vec![]);
        assert!(decode_faults("justonefield").is_err());
    }

    #[test]
    fn events_round_trip_with_static_tags() {
        let events = vec![
            Event::Fault {
                node: 4,
                round: 2,
                fault: "halo-loss",
            },
            Event::Retry {
                stage: "shard/1".into(),
                attempt: 2,
                backoff_ms: 20,
            },
            Event::Checkpoint {
                stage: "shard/0".into(),
                completed: 3,
            },
            Event::ShardStep {
                shard: 1,
                superstep: 3,
                halo_messages: 5,
                halo_bytes: 40,
            },
        ];
        let text = encode_events(&events);
        assert_eq!(decode_events(&text).unwrap(), events);
        // Coordinator events are skipped on encode, not shipped.
        let skipped = encode_events(&[Event::RoundStart { round: 1 }]);
        assert_eq!(skipped, "");
        assert!(decode_events("f\u{1f}1\u{1f}2\u{1f}mystery-tag").is_err());
    }

    #[test]
    fn labels_round_trip_including_degree_zero_nodes() {
        let labels = vec![
            vec![lcl::OutLabel(1), lcl::OutLabel(0)],
            vec![],
            vec![lcl::OutLabel(7)],
        ];
        let text = encode_labels(&labels);
        // One flat list: the degree-0 node contributes no entry.
        assert_eq!(text, "1,0,7");
        let flat: Vec<lcl::OutLabel> = labels.concat();
        assert_eq!(decode_labels(&text).unwrap(), flat);
        assert_eq!(encode_labels(&[vec![], vec![]]), "");
        assert_eq!(decode_labels("").unwrap(), vec![]);
        assert!(decode_labels("1,,7").is_err());
        assert!(decode_labels("1;7").is_err());
        assert!(decode_labels("4294967296").is_err());
    }

    /// Applies 1-4 seeded byte-level mutations (overwrite, insert from
    /// `alphabet`, delete, duplicate the tail) to `text`.
    pub(crate) fn mutate(text: &str, rng: &mut SmallRng, alphabet: &[u8]) -> String {
        let mut bytes = text.as_bytes().to_vec();
        for _ in 0..1 + (rng.next_u64() % 4) {
            match rng.next_u64() % 4 {
                0 if !bytes.is_empty() => {
                    let i = (rng.next_u64() as usize) % bytes.len();
                    bytes[i] = (rng.next_u64() % 256) as u8;
                }
                1 => {
                    let i = (rng.next_u64() as usize) % (bytes.len() + 1);
                    let c = alphabet[(rng.next_u64() as usize) % alphabet.len()];
                    bytes.insert(i, c);
                }
                2 if !bytes.is_empty() => {
                    let i = (rng.next_u64() as usize) % bytes.len();
                    bytes.remove(i);
                }
                _ if !bytes.is_empty() => {
                    let i = (rng.next_u64() as usize) % bytes.len();
                    let tail: Vec<u8> = bytes[i..].to_vec();
                    bytes.extend_from_slice(&tail);
                }
                _ => {}
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// 1k seeded byte-level mutations of valid `init` lines and label
    /// lists. Neither decoder may panic, and whatever still decodes must
    /// survive an encode/decode round trip.
    #[test]
    fn init_and_label_decoders_survive_a_thousand_seeded_mutations() {
        let mut init_accepted = 0u32;
        let mut labels_accepted = 0u32;
        for seed in 0..1000u64 {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_f00d_cafe_0016);
            let graph = match seed % 4 {
                0 => GraphSpec::Path { n: 40 },
                1 => GraphSpec::RandomTree {
                    n: 64,
                    max_degree: 3,
                    seed,
                },
                2 => GraphSpec::Caterpillar { spine: 6, legs: 2 },
                _ => GraphSpec::Star { leaves: 5 },
            };
            let cmd = InitCmd {
                graph,
                alg: if seed % 2 == 0 {
                    AlgSpec::GuardedFlood { k: 3 }
                } else {
                    AlgSpec::AntiMatchingE1 { delta: 3 }
                },
                input: InputSpec::Uniform,
                ids: (0..rng.next_u64() % 12).map(|_| rng.next_u64()).collect(),
                n: 40,
                shards: 4,
                shard: (seed % 4) as usize,
                plan_text: lcl_faults::FaultPlan::random(seed, 40, 8).to_text(),
                hang_at: (seed % 3 == 0).then_some(2),
            };
            let line = mutate(&cmd.encode(), &mut rng, b"0123456789,:\"{}\\u-x");
            if let Ok(fields) = parse_flat_object(&line) {
                if let Ok(parsed) = InitCmd::parse(&fields) {
                    init_accepted += 1;
                    let again = parse_flat_object(&parsed.encode()).expect("re-encoded line");
                    assert_eq!(InitCmd::parse(&again).as_ref(), Ok(&parsed));
                }
            }

            let labels: Vec<Vec<lcl::OutLabel>> = (0..rng.next_u64() % 8)
                .map(|_| {
                    (0..rng.next_u64() % 4)
                        .map(|_| lcl::OutLabel((rng.next_u64() % 1000) as u32))
                        .collect()
                })
                .collect();
            let text = mutate(&encode_labels(&labels), &mut rng, b"0123456789,;-+ ");
            if let Ok(decoded) = decode_labels(&text) {
                labels_accepted += 1;
                let again = encode_labels(std::slice::from_ref(&decoded));
                assert_eq!(decode_labels(&again).as_ref(), Ok(&decoded));
            }
        }
        for accepted in [init_accepted, labels_accepted] {
            assert!(accepted > 0, "some light mutations should still decode");
            assert!(accepted < 1000, "heavy mutations should be rejected");
        }
    }

    #[test]
    fn init_command_round_trips_through_the_protocol_layer() {
        let cmd = InitCmd {
            graph: GraphSpec::RandomTree {
                n: 64,
                max_degree: 3,
                seed: 5,
            },
            alg: AlgSpec::AntiMatchingE1 { delta: 3 },
            input: InputSpec::Uniform,
            ids: vec![10, 20, 30],
            n: 64,
            shards: 4,
            shard: 2,
            plan_text: "plan seed=7\ncrash node=0 round=1\n".into(),
            hang_at: Some(1),
        };
        let line = cmd.encode();
        let fields = parse_flat_object(&line).unwrap();
        assert_eq!(want_str(&fields, "op").unwrap(), "init");
        assert_eq!(InitCmd::parse(&fields).unwrap(), cmd);

        let no_hang = InitCmd {
            hang_at: None,
            plan_text: String::new(),
            ..cmd
        };
        let fields = parse_flat_object(&no_hang.encode()).unwrap();
        assert_eq!(InitCmd::parse(&fields).unwrap(), no_hang);
    }

    #[test]
    fn init_rejects_trees_the_generator_cannot_grow() {
        let parse_tree = |n: usize, max_degree: u8| {
            let cmd = InitCmd {
                graph: GraphSpec::RandomTree {
                    n,
                    max_degree,
                    seed: 1,
                },
                alg: AlgSpec::GuardedFlood { k: 1 },
                input: InputSpec::Uniform,
                ids: vec![],
                n,
                shards: 1,
                shard: 0,
                plan_text: String::new(),
                hang_at: None,
            };
            InitCmd::parse(&parse_flat_object(&cmd.encode()).unwrap())
        };
        for (n, max_degree) in [(0, 3), (3, 1), (3, 0), (100, 1), (2, 0)] {
            let err = parse_tree(n, max_degree).unwrap_err();
            assert!(err.contains("no tree on"), "n={n} d={max_degree}: {err}");
        }
        for (n, max_degree) in [(1, 0), (2, 1), (3, 2), (100, 3)] {
            assert!(parse_tree(n, max_degree).is_ok(), "n={n} d={max_degree}");
        }
    }

    #[test]
    fn flags_round_trip() {
        let flags = vec![false, true, true, false];
        let text = encode_flags(&flags);
        assert_eq!(text, "0110");
        assert_eq!(decode_flags(&text).unwrap(), flags);
        assert!(decode_flags("01x").is_err());
    }
}
