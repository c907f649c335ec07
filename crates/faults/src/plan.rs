//! Seeded, serializable fault schedules.
//!
//! A [`FaultPlan`] is the unit of chaos: a list of [`Fault`]s plus a
//! seed, applied deterministically by each model's executor when passed
//! through [`RunOptions::faults`](crate::RunOptions::faults). Plans serialize to a line-oriented text format
//! ([`FaultPlan::to_text`] / [`FaultPlan::parse`]) so an interesting
//! plan found by the chaos soak can be committed verbatim into a
//! regression test or an EXPERIMENTS.md recipe.

use std::fmt;

use lcl_rng::SmallRng;

/// One injected fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Node `node` crash-stops at round `round`: from that round on its
    /// state is frozen — it still emits its last messages (fail-silent
    /// nodes would deadlock executors whose message types have no
    /// default), never receives, and reports done.
    Crash {
        /// Structural node index.
        node: usize,
        /// Zero-based round at which the node stops participating.
        round: u32,
    },
    /// Node `node` sees a corrupted radius-`T` view: the identifiers and
    /// random bits in its ball (or its probe answers / grid window) are
    /// perturbed by a deterministic mask derived from `salt`.
    CorruptView {
        /// Structural node index (or query index in VOLUME/LCA).
        node: usize,
        /// Seed of the perturbation mask; see [`perturb`].
        salt: u64,
    },
    /// Node `node`'s algorithm invocation panics (via [`inject_panic`]).
    /// The executor isolates it and records a [`NodeFault`] instead of
    /// aborting the process.
    ///
    /// [`inject_panic`]: crate::inject_panic
    /// [`NodeFault`]: crate::NodeFault
    PanicNode {
        /// Structural node index (or query index).
        node: usize,
    },
    /// The `nth` probe issued while answering query `query` returns a
    /// corrupted `NodeInfo`-style answer (the VOLUME adversary lying).
    ProbeLie {
        /// Query index whose probe sequence is corrupted.
        query: usize,
        /// Zero-based index of the corrupted probe within that query.
        nth: u64,
    },
    /// Whole-shard loss: shard `shard` of a partitioned run dies at the
    /// start of superstep `superstep`, computes nothing that superstep,
    /// and its outgoing boundary halos are lost. The sharded executor
    /// rebuilds it from its last `ShardSnapshot` plus the halos its
    /// neighbors retained; executors without shards ignore the entry.
    ShardCrash {
        /// Shard index (out-of-range entries are inert).
        shard: usize,
        /// Zero-based superstep at which the whole shard is lost.
        superstep: u32,
    },
    /// Process-level shard kill: in a cross-process run the supervisor
    /// delivers a real `SIGKILL` to shard `shard`'s worker process
    /// mid-superstep `superstep`. Unlike [`Fault::ShardCrash`] (which the
    /// shard handles internally via its snapshot), a kill is invisible to
    /// the victim — the supervisor detects the death, respawns the
    /// worker, and replays it back to the current superstep, so the run's
    /// output is unchanged. In-process executors ignore the entry.
    ShardKill {
        /// Shard index (out-of-range entries are inert).
        shard: usize,
        /// Zero-based superstep during which the worker is killed.
        superstep: u32,
    },
}

/// A deterministic, serializable schedule of faults for one run.
///
/// The plan's `seed` drives every derived choice (the adversarial ID
/// permutation, corruption masks), so a `(seed, plan)` pair fully
/// determines a faulted execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    seed: u64,
    permute_ids: bool,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (no faults, identifiers untouched) with a seed for
    /// derived choices.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            permute_ids: false,
            faults: Vec::new(),
        }
    }

    /// Adds one fault (builder style).
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Requests an adversarial permutation of the identifier assignment,
    /// derived from the plan seed (builder style).
    pub fn with_permuted_ids(mut self) -> Self {
        self.permute_ids = true;
        self
    }

    /// A random plan over `nodes` nodes and rounds `0..max_round`:
    /// between zero and three faults of uniformly chosen kinds, plus an
    /// ID permutation half the time. Identical arguments yield the
    /// identical plan.
    pub fn random(seed: u64, nodes: usize, max_round: u32) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = Self::new(seed);
        plan.permute_ids = rng.gen_bool(0.5);
        if nodes == 0 {
            return plan;
        }
        let count = rng.gen_range(0usize..=3);
        for _ in 0..count {
            let node = rng.gen_range(0usize..nodes);
            let fault = match rng.gen_range(0u32..4) {
                0 => Fault::Crash {
                    node,
                    round: rng.gen_range(0u32..=max_round),
                },
                1 => Fault::CorruptView {
                    node,
                    salt: rng.gen(),
                },
                2 => Fault::PanicNode { node },
                _ => Fault::ProbeLie {
                    query: node,
                    nth: rng.gen_range(0u64..=4),
                },
            };
            plan.faults.push(fault);
        }
        plan
    }

    /// A random whole-shard chaos plan: exactly `crashes` distinct
    /// shards out of `num_shards` crash, each at a uniformly chosen
    /// superstep in `0..=max_superstep`. No node-level faults and no ID
    /// permutation, so the only damage a sharded run can take is the
    /// boundary damage the frontier-repair path is designed to mend.
    /// Identical arguments yield the identical plan.
    pub fn random_shard_chaos(
        seed: u64,
        num_shards: usize,
        crashes: usize,
        max_superstep: u32,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ SHARD_CHAOS_SALT);
        let mut plan = Self::new(seed);
        if num_shards == 0 {
            return plan;
        }
        let mut shards: Vec<usize> = (0..num_shards).collect();
        for i in (1..num_shards).rev() {
            shards.swap(i, rng.gen_range(0usize..=i));
        }
        shards.truncate(crashes.min(num_shards));
        shards.sort_unstable();
        for shard in shards {
            plan.faults.push(Fault::ShardCrash {
                shard,
                superstep: rng.gen_range(0u32..=max_superstep),
            });
        }
        plan
    }

    /// A random process-kill chaos plan: exactly `kills` distinct shards
    /// out of `num_shards` have their worker process `SIGKILL`ed, each
    /// during a uniformly chosen superstep in `0..=max_superstep`. No
    /// node-level faults and no ID permutation — a kill plan must leave
    /// the run's output untouched (the supervisor respawns and replays),
    /// so this plan shape is the soak's proof of output transparency.
    /// Identical arguments yield the identical plan.
    pub fn random_kill_chaos(
        seed: u64,
        num_shards: usize,
        kills: usize,
        max_superstep: u32,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ KILL_CHAOS_SALT);
        let mut plan = Self::new(seed);
        if num_shards == 0 {
            return plan;
        }
        let mut shards: Vec<usize> = (0..num_shards).collect();
        for i in (1..num_shards).rev() {
            shards.swap(i, rng.gen_range(0usize..=i));
        }
        shards.truncate(kills.min(num_shards));
        shards.sort_unstable();
        for shard in shards {
            plan.faults.push(Fault::ShardKill {
                shard,
                superstep: rng.gen_range(0u32..=max_superstep),
            });
        }
        plan
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether this plan permutes the identifier assignment.
    pub fn permutes_ids(&self) -> bool {
        self.permute_ids
    }

    /// The scheduled faults, in application order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the plan changes anything at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && !self.permute_ids
    }

    /// The earliest round at which `node` crash-stops, if scheduled.
    pub fn crash_round(&self, node: usize) -> Option<u32> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::Crash { node: v, round } if *v == node => Some(*round),
                _ => None,
            })
            .min()
    }

    /// The corruption salt for `node`'s view, if scheduled.
    pub fn corrupt_salt(&self, node: usize) -> Option<u64> {
        self.faults.iter().find_map(|f| match f {
            Fault::CorruptView { node: v, salt } if *v == node => Some(*salt),
            _ => None,
        })
    }

    /// Whether `node`'s algorithm invocation is scheduled to panic.
    pub fn panics(&self, node: usize) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::PanicNode { node: v } if *v == node))
    }

    /// The index of the probe to corrupt while answering `query`, if any.
    pub fn probe_lie(&self, query: usize) -> Option<u64> {
        self.faults.iter().find_map(|f| match f {
            Fault::ProbeLie { query: q, nth } if *q == query => Some(*nth),
            _ => None,
        })
    }

    /// The earliest superstep at which whole shard `shard` is lost, if
    /// scheduled.
    pub fn shard_crash(&self, shard: usize) -> Option<u32> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::ShardCrash {
                    shard: s,
                    superstep,
                } if *s == shard => Some(*superstep),
                _ => None,
            })
            .min()
    }

    /// Every superstep at which shard `shard` is scheduled to crash, in
    /// ascending order (a shard may be lost more than once per run).
    pub fn shard_crashes(&self, shard: usize) -> Vec<u32> {
        let mut supersteps: Vec<u32> = self
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::ShardCrash {
                    shard: s,
                    superstep,
                } if *s == shard => Some(*superstep),
                _ => None,
            })
            .collect();
        supersteps.sort_unstable();
        supersteps.dedup();
        supersteps
    }

    /// Every superstep during which shard `shard`'s worker process is
    /// scheduled to be killed, in ascending order (a worker may be
    /// killed more than once per run).
    pub fn shard_kills(&self, shard: usize) -> Vec<u32> {
        let mut supersteps: Vec<u32> = self
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::ShardKill {
                    shard: s,
                    superstep,
                } if *s == shard => Some(*superstep),
                _ => None,
            })
            .collect();
        supersteps.sort_unstable();
        supersteps.dedup();
        supersteps
    }

    /// The adversarial identifier permutation over `0..n`, if the plan
    /// requests one: a Fisher–Yates shuffle driven by the plan seed.
    /// `permutation[v]` is the *rank* whose identifier node `v` receives.
    pub fn permutation(&self, n: usize) -> Option<Vec<usize>> {
        if !self.permute_ids {
            return None;
        }
        let mut rng = SmallRng::seed_from_u64(self.seed ^ PERMUTE_SALT);
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0usize..=i));
        }
        Some(perm)
    }

    /// Line-oriented text rendering; [`FaultPlan::parse`] round-trips it.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("plan seed={} permute-ids={}\n", self.seed, self.permute_ids);
        for fault in &self.faults {
            match fault {
                Fault::Crash { node, round } => {
                    let _ = writeln!(out, "crash node={node} round={round}");
                }
                Fault::CorruptView { node, salt } => {
                    let _ = writeln!(out, "corrupt node={node} salt={salt}");
                }
                Fault::PanicNode { node } => {
                    let _ = writeln!(out, "panic node={node}");
                }
                Fault::ProbeLie { query, nth } => {
                    let _ = writeln!(out, "probe-lie query={query} nth={nth}");
                }
                Fault::ShardCrash { shard, superstep } => {
                    let _ = writeln!(out, "crash-shard shard={shard} superstep={superstep}");
                }
                Fault::ShardKill { shard, superstep } => {
                    let _ = writeln!(out, "kill-shard shard={shard} superstep={superstep}");
                }
            }
        }
        out
    }

    /// Parses the [`FaultPlan::to_text`] format strictly. Blank lines
    /// and `#` comments are ignored; everything else must be a known
    /// directive whose tokens are each a recognized `key=value` pair
    /// given exactly once — unknown directives, unknown or duplicated
    /// fields, stray tokens, malformed or overflowing numbers, and
    /// repeated `plan` headers are all typed [`PlanParseError`]s, never
    /// panics or silently dropped input.
    pub fn parse(text: &str) -> Result<Self, PlanParseError> {
        let mut plan: Option<FaultPlan> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let at = |issue: PlanIssue| PlanParseError {
                line: lineno + 1,
                issue,
            };
            let mut words = line.split_whitespace();
            let head = words.next().unwrap_or_default();
            let keys: &[&str] = match head {
                "plan" => &["seed", "permute-ids"],
                "crash" => &["node", "round"],
                "corrupt" => &["node", "salt"],
                "panic" => &["node"],
                "probe-lie" => &["query", "nth"],
                "crash-shard" | "kill-shard" => &["shard", "superstep"],
                other => return Err(at(PlanIssue::UnknownDirective(other.to_string()))),
            };
            let fields = Fields::collect(words, keys).map_err(&at)?;
            match head {
                "plan" => {
                    if plan.is_some() {
                        return Err(at(PlanIssue::DuplicateHeader));
                    }
                    let mut p = Self::new(fields.u64("seed").map_err(&at)?);
                    p.permute_ids = fields.bool_or("permute-ids", false).map_err(&at)?;
                    plan = Some(p);
                }
                _ => {
                    let plan = plan
                        .as_mut()
                        .ok_or_else(|| at(PlanIssue::FaultBeforeHeader))?;
                    let fault = match head {
                        "crash" => Fault::Crash {
                            node: fields.index("node").map_err(&at)?,
                            round: fields.u32("round").map_err(&at)?,
                        },
                        "corrupt" => Fault::CorruptView {
                            node: fields.index("node").map_err(&at)?,
                            salt: fields.u64("salt").map_err(&at)?,
                        },
                        "panic" => Fault::PanicNode {
                            node: fields.index("node").map_err(&at)?,
                        },
                        "probe-lie" => Fault::ProbeLie {
                            query: fields.index("query").map_err(&at)?,
                            nth: fields.u64("nth").map_err(&at)?,
                        },
                        "crash-shard" => Fault::ShardCrash {
                            shard: fields.index("shard").map_err(&at)?,
                            superstep: fields.u32("superstep").map_err(&at)?,
                        },
                        _ => Fault::ShardKill {
                            shard: fields.index("shard").map_err(&at)?,
                            superstep: fields.u32("superstep").map_err(&at)?,
                        },
                    };
                    plan.faults.push(fault);
                }
            }
        }
        plan.ok_or(PlanParseError {
            line: 0,
            issue: PlanIssue::MissingHeader,
        })
    }
}

/// The validated `key=value` pairs of one plan line.
struct Fields {
    pairs: Vec<(&'static str, String)>,
}

impl Fields {
    /// Collects every remaining token as a recognized `key=value` pair,
    /// rejecting stray tokens, unknown keys, and duplicates.
    fn collect<'a>(
        words: impl Iterator<Item = &'a str>,
        keys: &[&'static str],
    ) -> Result<Self, PlanIssue> {
        let mut pairs: Vec<(&'static str, String)> = Vec::new();
        for word in words {
            let Some((key, value)) = word.split_once('=') else {
                return Err(PlanIssue::StrayToken(word.to_string()));
            };
            let Some(&known) = keys.iter().find(|&&k| k == key) else {
                return Err(PlanIssue::UnknownField(key.to_string()));
            };
            if pairs.iter().any(|(k, _)| *k == known) {
                return Err(PlanIssue::DuplicateField(known));
            }
            pairs.push((known, value.to_string()));
        }
        Ok(Self { pairs })
    }

    fn get(&self, key: &'static str) -> Result<&str, PlanIssue> {
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
            .ok_or(PlanIssue::MissingField(key))
    }

    /// A required `u64` field; overflow is a malformed number, not a
    /// silent wrap.
    fn u64(&self, key: &'static str) -> Result<u64, PlanIssue> {
        let value = self.get(key)?;
        value.parse().map_err(|_| PlanIssue::MalformedNumber {
            field: key,
            value: value.to_string(),
        })
    }

    /// A required `u32` field; values beyond `u32::MAX` are rejected
    /// instead of truncated.
    fn u32(&self, key: &'static str) -> Result<u32, PlanIssue> {
        let wide = self.u64(key)?;
        u32::try_from(wide).map_err(|_| PlanIssue::ValueOutOfRange {
            field: key,
            value: wide,
        })
    }

    /// A required node/query index; values beyond `usize::MAX` are
    /// rejected instead of truncated.
    fn index(&self, key: &'static str) -> Result<usize, PlanIssue> {
        let wide = self.u64(key)?;
        usize::try_from(wide).map_err(|_| PlanIssue::ValueOutOfRange {
            field: key,
            value: wide,
        })
    }

    /// An optional boolean field; only the literals `true` and `false`
    /// are accepted.
    fn bool_or(&self, key: &'static str, default: bool) -> Result<bool, PlanIssue> {
        match self.get(key) {
            Err(PlanIssue::MissingField(_)) => Ok(default),
            Err(other) => Err(other),
            Ok("true") => Ok(true),
            Ok("false") => Ok(false),
            Ok(value) => Err(PlanIssue::MalformedBoolean {
                field: key,
                value: value.to_string(),
            }),
        }
    }
}

const PERMUTE_SALT: u64 = 0x9d5c_f0aa_11f4_27b3;
const SHARD_CHAOS_SALT: u64 = 0x51a8_dc4a_0b7e_9f25;
const KILL_CHAOS_SALT: u64 = 0x7e31_905b_44ac_8dd6;

/// Deterministic nonzero perturbation mask for corrupted views: word `i`
/// of a view corrupted with `salt` is XORed with `perturb(salt, i)`.
pub fn perturb(salt: u64, i: u64) -> u64 {
    let mut rng = SmallRng::seed_from_u64(salt ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d));
    rng.next_u64() | 1
}

/// A [`FaultPlan::parse`] failure: the 1-based line and what was wrong.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlanParseError {
    /// 1-based line number (0 when the whole text is unusable).
    pub line: usize,
    /// What was wrong with the line.
    pub issue: PlanIssue,
}

/// The specific defect [`FaultPlan::parse`] found in a plan line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PlanIssue {
    /// The text contained no `plan seed=...` header line.
    MissingHeader,
    /// A second `plan` header appeared after the first.
    DuplicateHeader,
    /// A fault directive appeared before the `plan` header.
    FaultBeforeHeader,
    /// The line's first token is not a known directive.
    UnknownDirective(String),
    /// A token was not a `key=value` pair.
    StrayToken(String),
    /// A `key=value` pair whose key the directive does not accept.
    UnknownField(String),
    /// A field the directive requires was absent.
    MissingField(&'static str),
    /// The same field was given more than once on one line.
    DuplicateField(&'static str),
    /// A numeric field that failed to parse as `u64` (including
    /// overflow).
    MalformedNumber {
        /// The field whose value was rejected.
        field: &'static str,
        /// The rejected text.
        value: String,
    },
    /// A numeric field that parsed but exceeds its narrower target type
    /// (`u32` rounds, `usize` indices).
    ValueOutOfRange {
        /// The field whose value was rejected.
        field: &'static str,
        /// The out-of-range value.
        value: u64,
    },
    /// A boolean field with a value other than `true` or `false`.
    MalformedBoolean {
        /// The field whose value was rejected.
        field: &'static str,
        /// The rejected text.
        value: String,
    },
}

impl fmt::Display for PlanIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanIssue::MissingHeader => write!(f, "no plan header"),
            PlanIssue::DuplicateHeader => write!(f, "duplicate plan header"),
            PlanIssue::FaultBeforeHeader => write!(f, "fault before the plan header"),
            PlanIssue::UnknownDirective(head) => write!(f, "unknown directive `{head}`"),
            PlanIssue::StrayToken(token) => write!(f, "stray token `{token}`"),
            PlanIssue::UnknownField(key) => write!(f, "unknown field `{key}`"),
            PlanIssue::MissingField(key) => write!(f, "missing field `{key}`"),
            PlanIssue::DuplicateField(key) => write!(f, "duplicate field `{key}`"),
            PlanIssue::MalformedNumber { field, value } => {
                write!(f, "malformed number `{value}` for field `{field}`")
            }
            PlanIssue::ValueOutOfRange { field, value } => {
                write!(f, "value {value} out of range for field `{field}`")
            }
            PlanIssue::MalformedBoolean { field, value } => {
                write!(f, "malformed boolean `{value}` for field `{field}`")
            }
        }
    }
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan line {}: {}", self.line, self.issue)
    }
}

impl std::error::Error for PlanParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trips() {
        let plan = FaultPlan::new(42)
            .with_permuted_ids()
            .with(Fault::Crash { node: 3, round: 2 })
            .with(Fault::CorruptView { node: 1, salt: 99 })
            .with(Fault::PanicNode { node: 0 })
            .with(Fault::ProbeLie { query: 5, nth: 3 })
            .with(Fault::ShardCrash {
                shard: 2,
                superstep: 1,
            })
            .with(Fault::ShardKill {
                shard: 3,
                superstep: 0,
            });
        let text = plan.to_text();
        assert!(text.contains("crash-shard shard=2 superstep=1"));
        assert!(text.contains("kill-shard shard=3 superstep=0"));
        assert_eq!(FaultPlan::parse(&text).unwrap(), plan);
    }

    #[test]
    fn parse_ignores_comments_and_rejects_garbage() {
        let plan =
            FaultPlan::parse("# chaos\nplan seed=7 permute-ids=false\n\ncrash node=0 round=1\n")
                .unwrap();
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan.crash_round(0), Some(1));
        assert!(FaultPlan::parse("crash node=0 round=1").is_err());
        assert!(FaultPlan::parse("plan seed=1\nwobble node=0").is_err());
        assert!(FaultPlan::parse("plan seed=1\ncrash node=x round=1").is_err());
    }

    #[test]
    fn parse_reports_typed_issues_for_hostile_input() {
        let issue = |text: &str| FaultPlan::parse(text).expect_err("should reject").issue;
        assert_eq!(issue(""), PlanIssue::MissingHeader);
        assert_eq!(
            issue("plan seed=1\nplan seed=2"),
            PlanIssue::DuplicateHeader
        );
        assert_eq!(issue("crash node=0 round=1"), PlanIssue::FaultBeforeHeader);
        assert_eq!(
            issue("plan seed=1\nwobble node=0"),
            PlanIssue::UnknownDirective("wobble".to_string())
        );
        assert_eq!(
            issue("plan seed=1\ncrash node=0 round=1 junk"),
            PlanIssue::StrayToken("junk".to_string())
        );
        assert_eq!(
            issue("plan seed=1\ncrash node=0 salt=1"),
            PlanIssue::UnknownField("salt".to_string())
        );
        assert_eq!(
            issue("plan seed=1\ncrash node=0"),
            PlanIssue::MissingField("round")
        );
        assert_eq!(
            issue("plan seed=1\ncrash node=0 node=1 round=1"),
            PlanIssue::DuplicateField("node")
        );
        assert_eq!(
            issue("plan seed=1\ncrash node=0 round=99999999999999999999"),
            PlanIssue::MalformedNumber {
                field: "round",
                value: "99999999999999999999".to_string(),
            }
        );
        assert_eq!(
            issue("plan seed=1\ncrash node=0 round=4294967296"),
            PlanIssue::ValueOutOfRange {
                field: "round",
                value: 4_294_967_296,
            }
        );
        assert_eq!(
            issue("plan seed=1 permute-ids=maybe"),
            PlanIssue::MalformedBoolean {
                field: "permute-ids",
                value: "maybe".to_string(),
            }
        );
        let err = FaultPlan::parse("plan seed=1\ncrash node=0 round=1 junk").expect_err("line");
        assert_eq!(err.line, 2);
        assert!(format!("{err}").contains("line 2"));
    }

    #[test]
    fn parse_tolerates_stray_whitespace_but_not_stray_tokens() {
        let plan =
            FaultPlan::parse("  plan   seed=9  permute-ids=true \n\t corrupt  node=1 salt=4\n")
                .expect("whitespace-padded plans are fine");
        assert_eq!(plan.seed(), 9);
        assert!(plan.permutes_ids());
        assert_eq!(plan.corrupt_salt(1), Some(4));
        assert!(FaultPlan::parse("plan seed=9 seed=9").is_err());
        assert!(FaultPlan::parse("plan seed=9 extra").is_err());
    }

    /// Satellite 1's fuzz gate: 1k seeded byte-level mutations of valid
    /// plan texts. Parsing must never panic, and anything that still
    /// parses must survive a `to_text`/`parse` round trip.
    #[test]
    fn parse_survives_a_thousand_seeded_mutations() {
        let mut accepted = 0u32;
        for seed in 0..1000u64 {
            let base = FaultPlan::random(seed, 16, 8).to_text();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_f00d_cafe_0001);
            let mut bytes = base.into_bytes();
            for _ in 0..1 + (rng.next_u64() % 4) {
                match rng.next_u64() % 4 {
                    0 if !bytes.is_empty() => {
                        let i = (rng.next_u64() as usize) % bytes.len();
                        bytes[i] = (rng.next_u64() % 256) as u8;
                    }
                    1 => {
                        let i = (rng.next_u64() as usize) % (bytes.len() + 1);
                        bytes.insert(i, b"=x9 \n\tplancrash#"[(rng.next_u64() % 16) as usize]);
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
            let mutated = String::from_utf8_lossy(&bytes).into_owned();
            if let Ok(plan) = FaultPlan::parse(&mutated) {
                accepted += 1;
                let reparsed = FaultPlan::parse(&plan.to_text()).expect("round trip");
                assert_eq!(reparsed, plan, "mutated-but-valid plan must round-trip");
            }
        }
        assert!(accepted > 0, "some light mutations should still parse");
        assert!(accepted < 1000, "heavy mutations should be rejected");
    }

    #[test]
    fn random_plans_are_reproducible_and_in_range() {
        for seed in 0..50 {
            let a = FaultPlan::random(seed, 8, 4);
            let b = FaultPlan::random(seed, 8, 4);
            assert_eq!(a, b);
            for fault in a.faults() {
                match *fault {
                    Fault::Crash { node, round } => {
                        assert!(node < 8 && round <= 4);
                    }
                    Fault::CorruptView { node, .. } | Fault::PanicNode { node } => {
                        assert!(node < 8);
                    }
                    Fault::ProbeLie { query, nth } => {
                        assert!(query < 8 && nth <= 4);
                    }
                    Fault::ShardCrash { .. } | Fault::ShardKill { .. } => {
                        unreachable!("node-level random plans never schedule shard loss")
                    }
                }
            }
        }
    }

    #[test]
    fn accessors_pick_out_scheduled_faults() {
        let plan = FaultPlan::new(1)
            .with(Fault::Crash { node: 2, round: 5 })
            .with(Fault::Crash { node: 2, round: 3 })
            .with(Fault::PanicNode { node: 4 })
            .with(Fault::ProbeLie { query: 1, nth: 2 });
        assert_eq!(plan.crash_round(2), Some(3), "earliest crash wins");
        assert_eq!(plan.crash_round(0), None);
        assert!(plan.panics(4) && !plan.panics(2));
        assert_eq!(plan.probe_lie(1), Some(2));
        assert_eq!(plan.corrupt_salt(9), None);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new(0).is_empty());
    }

    #[test]
    fn shard_crash_accessors_and_chaos_plans() {
        let plan = FaultPlan::new(3)
            .with(Fault::ShardCrash {
                shard: 1,
                superstep: 4,
            })
            .with(Fault::ShardCrash {
                shard: 1,
                superstep: 2,
            })
            .with(Fault::Crash { node: 9, round: 0 });
        assert_eq!(plan.shard_crash(1), Some(2), "earliest loss wins");
        assert_eq!(plan.shard_crash(0), None);
        assert_eq!(plan.shard_crashes(1), vec![2, 4]);
        assert!(plan.shard_crashes(7).is_empty());

        for seed in 0..50u64 {
            let a = FaultPlan::random_shard_chaos(seed, 8, 2, 3);
            assert_eq!(a, FaultPlan::random_shard_chaos(seed, 8, 2, 3));
            assert_eq!(a.faults().len(), 2);
            assert!(!a.permutes_ids(), "shard chaos keeps ids untouched");
            let mut shards = Vec::new();
            for fault in a.faults() {
                let Fault::ShardCrash { shard, superstep } = *fault else {
                    unreachable!("shard chaos plans are shard-loss only");
                };
                assert!(shard < 8 && superstep <= 3);
                shards.push(shard);
            }
            let mut deduped = shards.clone();
            deduped.dedup();
            assert_eq!(shards, deduped, "crashed shards are distinct and sorted");
        }
        assert!(FaultPlan::random_shard_chaos(1, 0, 3, 2).is_empty());
        assert_eq!(FaultPlan::random_shard_chaos(1, 4, 9, 2).faults().len(), 4);
    }

    #[test]
    fn shard_kill_accessors_and_chaos_plans() {
        let plan = FaultPlan::new(5)
            .with(Fault::ShardKill {
                shard: 2,
                superstep: 3,
            })
            .with(Fault::ShardKill {
                shard: 2,
                superstep: 1,
            })
            .with(Fault::ShardCrash {
                shard: 2,
                superstep: 0,
            });
        assert_eq!(plan.shard_kills(2), vec![1, 3]);
        assert!(plan.shard_kills(0).is_empty());
        assert_eq!(
            plan.shard_crashes(2),
            vec![0],
            "kills and crashes are separate schedules"
        );

        let mut salts_diverge = false;
        for seed in 0..50u64 {
            let a = FaultPlan::random_kill_chaos(seed, 8, 2, 3);
            assert_eq!(a, FaultPlan::random_kill_chaos(seed, 8, 2, 3));
            assert_eq!(a.faults().len(), 2);
            assert!(!a.permutes_ids(), "kill chaos keeps ids untouched");
            let mut shards = Vec::new();
            for fault in a.faults() {
                let Fault::ShardKill { shard, superstep } = *fault else {
                    unreachable!("kill chaos plans are process-kill only");
                };
                assert!(shard < 8 && superstep <= 3);
                shards.push(shard);
            }
            let mut deduped = shards.clone();
            deduped.dedup();
            assert_eq!(shards, deduped, "killed shards are distinct and sorted");
            let mirrored: Vec<Fault> = FaultPlan::random_shard_chaos(seed, 8, 2, 3)
                .faults()
                .iter()
                .map(|f| match *f {
                    Fault::ShardCrash { shard, superstep } => Fault::ShardKill { shard, superstep },
                    other => other,
                })
                .collect();
            salts_diverge |= a.faults() != mirrored.as_slice();
        }
        assert!(
            salts_diverge,
            "kill chaos draws from its own salt, not the crash schedule"
        );
        assert!(FaultPlan::random_kill_chaos(1, 0, 3, 2).is_empty());
        assert_eq!(FaultPlan::random_kill_chaos(1, 4, 9, 2).faults().len(), 4);
    }

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let plan = FaultPlan::new(13).with_permuted_ids();
        let perm = plan.permutation(16).unwrap();
        let mut seen = [false; 16];
        for &p in &perm {
            assert!(!seen[p]);
            seen[p] = true;
        }
        assert_eq!(perm, plan.permutation(16).unwrap());
        assert!(FaultPlan::new(13).permutation(16).is_none());
    }

    #[test]
    fn perturbation_masks_are_nonzero_and_stable() {
        for i in 0..64 {
            let m = perturb(77, i);
            assert_ne!(m, 0);
            assert_eq!(m, perturb(77, i));
        }
        assert_ne!(perturb(77, 0), perturb(78, 0));
    }
}
