//! The line-delimited JSON wire protocol of the classification service.
//!
//! Each request and each response is one JSON object per line — trivial
//! to speak from a shell (`nc -U`), trivial to log, and parseable with
//! the same zero-dependency discipline as the rest of the workspace.
//!
//! A client sends [`ClassifyRequest`] lines:
//!
//! ```json
//! {"id":1,"problem":"name: 3col\n...","steps":2}
//! ```
//!
//! and receives, per request, zero or more `progress` events (checkpoint
//! and retry notifications streamed while the tower builds) followed by
//! exactly one terminal line — a `result` or an `error`:
//!
//! ```json
//! {"id":1,"event":"progress","kind":"checkpoint","stage":"re-tower/level-2","detail":1}
//! {"id":1,"event":"result","status":"ok","fingerprint":"…","tower_fingerprint":"…",
//!  "levels":5,"fixpoint":1,"cached":false,"resumed_from_level":0}
//! ```
//!
//! Besides classification jobs, two telemetry operations share the same
//! line discipline, selected by an `"op"` field (absent for classify):
//!
//! ```json
//! {"id":2,"op":"stats"}
//! {"id":3,"op":"watch","limit":10}
//! ```
//!
//! `stats` answers with one [`StatsReply`] line — the live
//! [`ServiceStats`](crate::ServiceStats) counters plus the Prometheus
//! exposition text of the server's registry. `watch` subscribes the
//! connection to the server's obs events (checkpoint / retry /
//! level-complete) as they happen across *all* in-flight jobs, streamed
//! as `progress` lines until `limit` events were sent (0 = until the
//! server shuts down).
//!
//! Every line is read by the workspace's JSON codec ([`lcl_obs::json`]),
//! so the wire accepts exactly RFC 8259 objects — any escape a standard
//! encoder emits, `\b`/`\f` and surrogate pairs included — and strings
//! are written by that codec's one escaper. On top of the codec this
//! module adds only the flat-object discipline: one object per line
//! whose field values are scalars (strings, `u64`, booleans, `null`).

use std::fmt;

use lcl_obs::json::{self, Value};

/// A classification job: an LCL problem in its
/// [text form](lcl::LclProblem::to_text) and how many `f = R̄ ∘ R`
/// rounds to build. The `id` is echoed on every response line so
/// clients can multiplex.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClassifyRequest {
    /// Client-chosen correlation id, echoed verbatim.
    pub id: u64,
    /// The problem, in the text format [`lcl::LclProblem::parse`] reads.
    pub problem: String,
    /// Number of `f`-rounds the tower must reach.
    pub steps: u64,
}

/// Any request a connection may send: a classification job or one of
/// the telemetry operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// A classification job (no `"op"` field on the wire).
    Classify(ClassifyRequest),
    /// `{"op":"stats"}` — answer with one [`StatsReply`] line.
    Stats {
        /// Client-chosen correlation id, echoed verbatim.
        id: u64,
    },
    /// `{"op":"watch"}` — stream live obs events as `progress` lines.
    Watch {
        /// Client-chosen correlation id, echoed verbatim.
        id: u64,
        /// Maximum events to stream before the server closes the
        /// subscription; 0 means unlimited (until shutdown).
        limit: u64,
    },
}

/// The terminal payload of a successful classification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClassifyResult {
    /// Echoed request id.
    pub id: u64,
    /// The canonical problem fingerprint (the store key).
    pub fingerprint: String,
    /// Structural fingerprint of the served tower.
    pub tower_fingerprint: String,
    /// Levels in the tower (base plus derived).
    pub levels: u64,
    /// Earliest level the top level's extensional table repeats, when
    /// fixpoint detection certified a cycle.
    pub fixpoint: Option<u64>,
    /// `true` when the tower was served from the store without any
    /// recomputation.
    pub cached: bool,
    /// Derived level count the build resumed from (0 for a fresh
    /// build or a cache hit).
    pub resumed_from_level: u64,
    /// `Some(reason)` when the supervisor gave up and the tower is
    /// partial; such towers are reported but never published.
    pub gave_up: Option<String>,
}

/// The payload of a `stats` telemetry reply: the live service counters
/// (field-for-field [`ServiceStats`](crate::ServiceStats)) plus the
/// Prometheus exposition text of the server's registry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StatsReply {
    /// Echoed request id.
    pub id: u64,
    /// Requests accepted since the server started.
    pub requests: u64,
    /// Jobs served straight from the store.
    pub cache_hits: u64,
    /// Requests coalesced onto an already-running build.
    pub coalesced: u64,
    /// Towers actually built.
    pub computed: u64,
    /// Builds resumed from a checkpoint.
    pub resumed: u64,
    /// Requests rejected (queue full or shutting down).
    pub rejected: u64,
    /// Builds the supervisor gave up on.
    pub gave_up: u64,
    /// Watch subscriptions currently registered.
    pub watchers: u64,
    /// Prometheus text-exposition rendering of the server's registry.
    pub prometheus: String,
}

/// One line sent back to a client.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    /// A streamed observability event from the in-flight build.
    Progress {
        /// Echoed request id.
        id: u64,
        /// `"checkpoint"`, `"retry"`, `"level-complete"`, or `"watch"`
        /// (the subscription acknowledgement).
        kind: &'static str,
        /// The supervised stage, e.g. `"re-tower/level-3"`.
        stage: String,
        /// Completed-level count for checkpoints, attempt number for
        /// retries, level count for level-completes, the event limit
        /// for watch acks.
        detail: u64,
    },
    /// The terminal success line.
    Result(ClassifyResult),
    /// The `stats` telemetry reply.
    Stats(StatsReply),
    /// The terminal failure line.
    Error {
        /// Echoed request id (0 when the line did not parse far enough
        /// to recover one).
        id: u64,
        /// What went wrong, as prose.
        error: String,
    },
}

/// Why a wire line could not be decoded.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProtocolError {
    /// The line is not the flat JSON object the protocol requires.
    Malformed {
        /// Byte offset of the failure.
        pos: usize,
        /// What the scanner expected.
        what: &'static str,
    },
    /// A required field is absent or has the wrong type.
    Field {
        /// The field name.
        name: &'static str,
        /// What was wrong with it.
        what: &'static str,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Malformed { pos, what } => {
                write!(f, "malformed protocol line at byte {pos}: expected {what}")
            }
            ProtocolError::Field { name, what } => {
                write!(f, "protocol field `{name}`: {what}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A scalar field value of a protocol line.
///
/// Part of the reusable flat-object layer ([`parse_flat_object`] /
/// [`push_str_field`]): other line-JSON wires in the workspace — the
/// cross-process shard protocol among them — speak the same scalar
/// vocabulary instead of growing their own JSON subset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Scalar {
    /// A JSON string (escapes already decoded).
    Str(String),
    /// An unsigned integer; the protocol has no fractions or signs.
    Num(u64),
    /// A JSON boolean.
    Bool(bool),
    /// JSON `null`.
    Null,
}

/// Appends `"name":"value"` to `out` (no separators), escaping the
/// value with [`json::push_string`].
pub fn push_str_field(out: &mut String, name: &str, value: &str) {
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
    json::push_string(out, value);
}

/// Renders a request as one protocol line (no trailing newline).
pub fn encode_request(req: &ClassifyRequest) -> String {
    let mut out = String::new();
    out.push('{');
    out.push_str(&format!("\"id\":{},", req.id));
    push_str_field(&mut out, "problem", &req.problem);
    out.push_str(&format!(",\"steps\":{}", req.steps));
    out.push('}');
    out
}

/// Renders a `stats` telemetry request as one protocol line.
pub fn encode_stats_request(id: u64) -> String {
    format!("{{\"id\":{id},\"op\":\"stats\"}}")
}

/// Renders a `watch` subscription request as one protocol line.
/// `limit` = 0 subscribes until the server shuts down.
pub fn encode_watch_request(id: u64, limit: u64) -> String {
    format!("{{\"id\":{id},\"op\":\"watch\",\"limit\":{limit}}}")
}

/// Renders a response as one protocol line (no trailing newline).
pub fn encode_response(resp: &Response) -> String {
    let mut out = String::new();
    out.push('{');
    match resp {
        Response::Progress {
            id,
            kind,
            stage,
            detail,
        } => {
            out.push_str(&format!("\"id\":{id},\"event\":\"progress\","));
            out.push_str(&format!("\"kind\":\"{kind}\","));
            push_str_field(&mut out, "stage", stage);
            out.push_str(&format!(",\"detail\":{detail}"));
        }
        Response::Result(r) => {
            out.push_str(&format!("\"id\":{},\"event\":\"result\",", r.id));
            out.push_str(&format!(
                "\"status\":\"{}\",",
                if r.gave_up.is_some() { "partial" } else { "ok" }
            ));
            push_str_field(&mut out, "fingerprint", &r.fingerprint);
            out.push(',');
            push_str_field(&mut out, "tower_fingerprint", &r.tower_fingerprint);
            out.push_str(&format!(",\"levels\":{},", r.levels));
            match r.fixpoint {
                Some(level) => out.push_str(&format!("\"fixpoint\":{level},")),
                None => out.push_str("\"fixpoint\":null,"),
            }
            out.push_str(&format!(
                "\"cached\":{},\"resumed_from_level\":{}",
                r.cached, r.resumed_from_level
            ));
            if let Some(reason) = &r.gave_up {
                out.push(',');
                push_str_field(&mut out, "gave_up", reason);
            }
        }
        Response::Stats(s) => {
            out.push_str(&format!("\"id\":{},\"event\":\"stats\",", s.id));
            out.push_str(&format!(
                "\"requests\":{},\"cache_hits\":{},\"coalesced\":{},\
                 \"computed\":{},\"resumed\":{},\"rejected\":{},\
                 \"gave_up\":{},\"watchers\":{},",
                s.requests,
                s.cache_hits,
                s.coalesced,
                s.computed,
                s.resumed,
                s.rejected,
                s.gave_up,
                s.watchers
            ));
            push_str_field(&mut out, "prometheus", &s.prometheus);
        }
        Response::Error { id, error } => {
            out.push_str(&format!("\"id\":{id},\"event\":\"error\","));
            push_str_field(&mut out, "error", error);
        }
    }
    out.push('}');
    out
}

/// Decodes one flat JSON object line into its `(name, value)` fields,
/// in wire order. This is the whole decoder of the line discipline:
/// strictly one object per line (trailing garbage is rejected), field
/// values limited to [`Scalar`]s. Reused by every line-JSON wire in the
/// workspace.
///
/// # Errors
///
/// [`ProtocolError::Malformed`] when the line is not JSON (at the
/// codec's byte position), not an object (position 0), or holds a value
/// that is not a scalar (position 0) or a number that is not a `u64` (at
/// the number).
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, Scalar)>, ProtocolError> {
    let malformed = |pos, what| ProtocolError::Malformed { pos, what };
    let Value::Obj(entries) = json::parse(line).map_err(|e| malformed(e.pos, e.what))? else {
        return Err(malformed(0, "an object"));
    };
    entries
        .into_iter()
        .map(|(name, value)| {
            let scalar = match value {
                Value::Str(s) => Scalar::Str(s.into_owned()),
                num @ Value::Num(raw) => Scalar::Num(num.as_u64().ok_or_else(|| {
                    // `raw` borrows from `line`: its address gives the offset.
                    malformed(
                        raw.as_ptr() as usize - line.as_ptr() as usize,
                        "a number fitting u64",
                    )
                })?),
                Value::Bool(b) => Scalar::Bool(b),
                Value::Null => Scalar::Null,
                Value::Arr(_) | Value::Obj(_) => {
                    return Err(malformed(0, "a string, number, boolean, or null"))
                }
            };
            Ok((name.into_owned(), scalar))
        })
        .collect()
}

/// The required string field `name` from a parsed flat object.
///
/// # Errors
///
/// [`ProtocolError::Field`] when the field is absent or not a string.
pub fn get_str(fields: &[(String, Scalar)], name: &'static str) -> Result<String, ProtocolError> {
    match fields.iter().find(|(n, _)| n == name) {
        Some((_, Scalar::Str(s))) => Ok(s.clone()),
        Some(_) => Err(ProtocolError::Field {
            name,
            what: "must be a string",
        }),
        None => Err(ProtocolError::Field {
            name,
            what: "is required",
        }),
    }
}

/// The required unsigned-number field `name` from a parsed flat object.
///
/// # Errors
///
/// [`ProtocolError::Field`] when the field is absent or not a number.
pub fn get_num(fields: &[(String, Scalar)], name: &'static str) -> Result<u64, ProtocolError> {
    match fields.iter().find(|(n, _)| n == name) {
        Some((_, Scalar::Num(n))) => Ok(*n),
        Some(_) => Err(ProtocolError::Field {
            name,
            what: "must be an unsigned number",
        }),
        None => Err(ProtocolError::Field {
            name,
            what: "is required",
        }),
    }
}

/// Decodes one request line.
///
/// # Errors
///
/// [`ProtocolError`] when the line is not a flat JSON object or a
/// required field (`id`, `problem`, `steps`) is missing or mistyped.
pub fn parse_request(line: &str) -> Result<ClassifyRequest, ProtocolError> {
    let fields = parse_flat_object(line)?;
    Ok(ClassifyRequest {
        id: get_num(&fields, "id")?,
        problem: get_str(&fields, "problem")?,
        steps: get_num(&fields, "steps")?,
    })
}

/// Decodes one request line of any operation: an `"op"` field selects
/// the telemetry requests, its absence means a classification job.
///
/// # Errors
///
/// [`ProtocolError`] when the line is not a flat JSON object, names an
/// unknown `op`, or is missing a field its operation requires.
pub fn parse_any_request(line: &str) -> Result<Request, ProtocolError> {
    let fields = parse_flat_object(line)?;
    match fields.iter().find(|(n, _)| n == "op") {
        None => Ok(Request::Classify(ClassifyRequest {
            id: get_num(&fields, "id")?,
            problem: get_str(&fields, "problem")?,
            steps: get_num(&fields, "steps")?,
        })),
        Some((_, Scalar::Str(op))) => match op.as_str() {
            "stats" => Ok(Request::Stats {
                id: get_num(&fields, "id")?,
            }),
            "watch" => Ok(Request::Watch {
                id: get_num(&fields, "id")?,
                // Absent limit means unlimited, same as an explicit 0.
                limit: get_num(&fields, "limit").unwrap_or(0),
            }),
            _ => Err(ProtocolError::Field {
                name: "op",
                what: "must be stats or watch (or absent for classify)",
            }),
        },
        Some(_) => Err(ProtocolError::Field {
            name: "op",
            what: "must be a string",
        }),
    }
}

/// Decodes one response line (the client side of the protocol).
///
/// # Errors
///
/// [`ProtocolError`] when the line is not a flat JSON object, names an
/// unknown `event`, or is missing a field its event requires.
pub fn parse_response(line: &str) -> Result<Response, ProtocolError> {
    let fields = parse_flat_object(line)?;
    let id = get_num(&fields, "id")?;
    match get_str(&fields, "event")?.as_str() {
        "progress" => Ok(Response::Progress {
            id,
            kind: match get_str(&fields, "kind")?.as_str() {
                "retry" => "retry",
                "level-complete" => "level-complete",
                "watch" => "watch",
                _ => "checkpoint",
            },
            stage: get_str(&fields, "stage")?,
            detail: get_num(&fields, "detail")?,
        }),
        "result" => Ok(Response::Result(ClassifyResult {
            id,
            fingerprint: get_str(&fields, "fingerprint")?,
            tower_fingerprint: get_str(&fields, "tower_fingerprint")?,
            levels: get_num(&fields, "levels")?,
            fixpoint: match fields.iter().find(|(n, _)| n == "fixpoint") {
                Some((_, Scalar::Num(n))) => Some(*n),
                _ => None,
            },
            cached: matches!(
                fields.iter().find(|(n, _)| n == "cached"),
                Some((_, Scalar::Bool(true)))
            ),
            resumed_from_level: get_num(&fields, "resumed_from_level")?,
            gave_up: get_str(&fields, "gave_up").ok(),
        })),
        "stats" => Ok(Response::Stats(StatsReply {
            id,
            requests: get_num(&fields, "requests")?,
            cache_hits: get_num(&fields, "cache_hits")?,
            coalesced: get_num(&fields, "coalesced")?,
            computed: get_num(&fields, "computed")?,
            resumed: get_num(&fields, "resumed")?,
            rejected: get_num(&fields, "rejected")?,
            gave_up: get_num(&fields, "gave_up")?,
            watchers: get_num(&fields, "watchers")?,
            prometheus: get_str(&fields, "prometheus")?,
        })),
        "error" => Ok(Response::Error {
            id,
            error: get_str(&fields, "error")?,
        }),
        _ => Err(ProtocolError::Field {
            name: "event",
            what: "must be progress, result, stats, or error",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_wire_form() {
        let req = ClassifyRequest {
            id: 42,
            problem: "name: 3col\nmax-degree: 2\nnodes:\nA*\nedges:\nA A\n".to_string(),
            steps: 3,
        };
        let line = encode_request(&req);
        assert!(!line.contains('\n'), "one request per line: {line}");
        assert_eq!(parse_request(&line).unwrap(), req);
    }

    #[test]
    fn responses_round_trip_through_the_wire_form() {
        let variants = [
            Response::Progress {
                id: 7,
                kind: "checkpoint",
                stage: "re-tower/level-3".to_string(),
                detail: 2,
            },
            Response::Result(ClassifyResult {
                id: 7,
                fingerprint: "00ff00ff00ff00ff".to_string(),
                tower_fingerprint: "a1a2a3a4a5a6a7a8".to_string(),
                levels: 5,
                fixpoint: Some(1),
                cached: true,
                resumed_from_level: 0,
                gave_up: None,
            }),
            Response::Result(ClassifyResult {
                id: 8,
                fingerprint: "00ff00ff00ff00ff".to_string(),
                tower_fingerprint: "a1a2a3a4a5a6a7a8".to_string(),
                levels: 3,
                fixpoint: None,
                cached: false,
                resumed_from_level: 2,
                gave_up: Some("stage failed: budget".to_string()),
            }),
            Response::Error {
                id: 9,
                error: "problem text did not parse".to_string(),
            },
        ];
        for resp in variants {
            let line = encode_response(&resp);
            assert!(!line.contains('\n'), "one response per line: {line}");
            assert_eq!(parse_response(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn telemetry_requests_round_trip_and_dispatch_by_op() {
        let stats = encode_stats_request(5);
        assert_eq!(parse_any_request(&stats).unwrap(), Request::Stats { id: 5 });
        let watch = encode_watch_request(6, 10);
        assert_eq!(
            parse_any_request(&watch).unwrap(),
            Request::Watch { id: 6, limit: 10 }
        );
        // A limit-less watch subscribes until shutdown.
        assert_eq!(
            parse_any_request("{\"id\":6,\"op\":\"watch\"}").unwrap(),
            Request::Watch { id: 6, limit: 0 }
        );
        // No op field: the line is a classification job.
        let classify = ClassifyRequest {
            id: 1,
            problem: "p".to_string(),
            steps: 2,
        };
        assert_eq!(
            parse_any_request(&encode_request(&classify)).unwrap(),
            Request::Classify(classify)
        );
        // Unknown and mistyped ops are typed field errors.
        assert!(matches!(
            parse_any_request("{\"id\":1,\"op\":\"surprise\"}"),
            Err(ProtocolError::Field { name: "op", .. })
        ));
        assert!(matches!(
            parse_any_request("{\"id\":1,\"op\":7}"),
            Err(ProtocolError::Field { name: "op", .. })
        ));
    }

    #[test]
    fn stats_replies_round_trip_with_prometheus_text() {
        let reply = Response::Stats(StatsReply {
            id: 3,
            requests: 12,
            cache_hits: 4,
            coalesced: 2,
            computed: 6,
            resumed: 1,
            rejected: 0,
            gave_up: 0,
            watchers: 1,
            prometheus: "# TYPE lcl_requests counter\nlcl_requests 12\n".to_string(),
        });
        let line = encode_response(&reply);
        assert!(!line.contains('\n'), "one response per line: {line}");
        assert_eq!(parse_response(&line).unwrap(), reply);
    }

    #[test]
    fn new_progress_kinds_survive_the_wire() {
        for kind in ["level-complete", "watch"] {
            let resp = Response::Progress {
                id: 2,
                kind: match kind {
                    "watch" => "watch",
                    _ => "level-complete",
                },
                stage: "re-tower/level-4".to_string(),
                detail: 4,
            };
            let line = encode_response(&resp);
            assert_eq!(parse_response(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn status_reflects_partial_towers() {
        let ok = Response::Result(ClassifyResult {
            id: 1,
            fingerprint: String::new(),
            tower_fingerprint: String::new(),
            levels: 1,
            fixpoint: None,
            cached: false,
            resumed_from_level: 0,
            gave_up: None,
        });
        assert!(encode_response(&ok).contains("\"status\":\"ok\""));
        let partial = Response::Result(ClassifyResult {
            gave_up: Some("budget".to_string()),
            ..match ok {
                Response::Result(r) => r,
                _ => unreachable!(),
            }
        });
        assert!(encode_response(&partial).contains("\"status\":\"partial\""));
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        assert!(matches!(
            parse_request("not json"),
            Err(ProtocolError::Malformed { .. })
        ));
        assert!(matches!(
            parse_request("{\"id\":1}"),
            Err(ProtocolError::Field {
                name: "problem",
                ..
            })
        ));
        assert!(matches!(
            parse_request("{\"id\":\"one\",\"problem\":\"p\",\"steps\":1}"),
            Err(ProtocolError::Field { name: "id", .. })
        ));
        assert!(matches!(
            parse_request("{\"id\":1,\"problem\":\"p\",\"steps\":1,}"),
            Err(ProtocolError::Malformed { .. })
        ));
        assert!(matches!(
            parse_response("{\"id\":1,\"event\":\"surprise\"}"),
            Err(ProtocolError::Field { name: "event", .. })
        ));
    }

    #[test]
    fn trailing_garbage_after_the_object_is_rejected() {
        for line in [
            "{\"id\":1,\"problem\":\"p\",\"steps\":1}garbage",
            "{\"id\":1,\"problem\":\"p\",\"steps\":1}{\"id\":2}",
            "{} extra",
        ] {
            assert!(
                matches!(parse_request(line), Err(ProtocolError::Malformed { .. })),
                "{line}"
            );
        }
        // Trailing whitespace is not garbage.
        assert!(parse_request("{\"id\":1,\"problem\":\"p\",\"steps\":1}  ").is_ok());
    }

    #[test]
    fn surrogate_pair_escapes_decode_and_lone_halves_are_rejected() {
        // Python: json.dumps("😀") == '"\\ud83d\\ude00"'.
        let req =
            parse_request("{\"id\":1,\"problem\":\"\\ud83d\\ude00 ok\",\"steps\":1}").unwrap();
        assert_eq!(req.problem, "\u{1f600} ok");
        for line in [
            // A lone high surrogate, an unpaired high surrogate, and a
            // lone low surrogate.
            "{\"id\":1,\"problem\":\"\\ud83d\",\"steps\":1}",
            "{\"id\":1,\"problem\":\"\\ud83d x\",\"steps\":1}",
            "{\"id\":1,\"problem\":\"\\ude00\",\"steps\":1}",
        ] {
            assert!(
                matches!(parse_request(line), Err(ProtocolError::Malformed { .. })),
                "{line}"
            );
        }
    }

    #[test]
    fn escapes_cover_control_characters_and_unicode() {
        let req = ClassifyRequest {
            id: 1,
            problem: "tabs\there\nquotes \"q\" backslash \\ bell \u{7} π".to_string(),
            steps: 1,
        };
        let line = encode_request(&req);
        assert_eq!(parse_request(&line).unwrap(), req);
        assert!(line.contains("\\u0007"));
    }
}
