//! Retry supervisor for round-elimination tower builds: deterministic
//! backoff, escalating budgets, and checkpointed re-execution.
//!
//! The policy lattice is *retry → resume → repair → degrade*: a tower
//! step that breaches its [`Budget`] is retried under an escalated
//! budget ([`RetryPolicy`]); a tower that was interrupted mid-build
//! resumes from its serialized [`TowerSnapshot`] instead of restarting
//! from the base problem; and only when the attempt budget is exhausted
//! does the caller get a typed [`StageError`] (or, for model runs, a
//! [`crate::RepairFailed`]). Backoff delays are *recorded* — emitted as
//! [`Event::Retry`] with a deterministic, seed-derived duration — but
//! never slept, so supervised runs stay reproducible and fast.

use std::fmt;

use lcl::LclProblem;
use lcl_core::{ReError, ReOptions, ReTower, TowerSnapshot};
use lcl_faults::{isolate, Budget};
use lcl_obs::{Counter, Event, EventLog, Span, Trace};
use lcl_rng::SmallRng;

/// How [`supervise_tower`] retries a failed step: attempt cap, budget
/// escalation factor, and the seed behind the deterministic backoff
/// jitter. The procshard supervisor reuses its backoff schedule for
/// worker respawns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// Attempts per stage before giving up (at least 1 is always made).
    pub max_attempts: u32,
    /// Seed for the backoff jitter; two supervisors with the same seed
    /// report identical backoff schedules.
    pub seed: u64,
    /// Base backoff in milliseconds; attempt `a` is scheduled at
    /// roughly `base * 2^(a-1)` plus seeded jitter below `base`.
    pub base_backoff_ms: u64,
    /// Saturating multiplier applied to every finite budget cap between
    /// attempts ([`Budget::escalate`]).
    pub escalation: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            seed: 0x5eed_ba5e,
            base_backoff_ms: 10,
            escalation: 2,
        }
    }
}

impl RetryPolicy {
    /// The backoff recorded after failed attempt `attempt` (1-based):
    /// exponential in the attempt number with seed-derived jitter.
    /// Purely a function of `(seed, attempt)` — never actually slept.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let exponent = attempt.saturating_sub(1).min(16);
        let scaled = self.base_backoff_ms.saturating_mul(1u64 << exponent);
        let mut rng = SmallRng::seed_from_u64(
            self.seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        scaled.saturating_add(rng.next_u64() % self.base_backoff_ms.max(1))
    }
}

/// Why a supervised stage ultimately gave up.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StageError<E> {
    /// Every attempt returned this stage error.
    Failed(E),
    /// The final attempt panicked; the payload string is preserved.
    Panic(String),
}

impl<E: fmt::Display> fmt::Display for StageError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageError::Failed(e) => write!(f, "stage failed: {e}"),
            StageError::Panic(payload) => write!(f, "stage panicked: {payload}"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for StageError<E> {}

/// A supervised tower build: the (possibly partial) tower, whether and
/// why the supervisor gave up, and the recovery accounting.
#[derive(Debug)]
pub struct TowerRecovery {
    /// The tower — complete when `gave_up` is `None`, otherwise holding
    /// every level that finished before the supervisor gave up.
    pub tower: ReTower,
    /// `Some` when the attempt budget ran out (or the step failed in a
    /// way no budget can fix, e.g. an empty restricted universe).
    pub gave_up: Option<StageError<ReError>>,
    /// Total step attempts across the whole build.
    pub attempts: u64,
    /// Snapshots taken (one before every attempt).
    pub checkpoints: u64,
    /// The `recover/supervise-tower` span with `Counter::Retries` and
    /// `Counter::Checkpoints`.
    pub trace: Trace,
}

/// Reconstructs a tower from a snapshot we serialized ourselves.
fn restore(wire: &str) -> ReTower {
    let snap = TowerSnapshot::parse(wire)
        .expect("why: the wire form was produced by TowerSnapshot::to_json just above");
    ReTower::resume_from(&snap)
        .expect("why: a snapshot taken from a live tower is internally consistent")
}

/// Builds `steps` rounds of `f = R̄ ∘ R` on `base` under supervision:
/// every step attempt is preceded by a serialized checkpoint
/// ([`Event::Checkpoint`]), runs panic-isolated under the current
/// [`Budget`], and on failure is retried with an escalated budget after
/// resuming from serialized state — exactly what a restarted process
/// would do. A breach mid-`f` (the `R` level landed, `R̄` did not)
/// resumes with the completing `R̄` half-step, so no work is repeated.
///
/// Gives up — returning the partial tower and the final error — after
/// [`RetryPolicy::max_attempts`] failures on a single step, or
/// immediately on errors no budget can fix.
pub fn supervise_tower(
    base: LclProblem,
    steps: usize,
    opts: ReOptions,
    initial: Budget,
    policy: RetryPolicy,
    log: Option<&EventLog>,
) -> TowerRecovery {
    supervise_tower_from(ReTower::new(base), steps, opts, initial, policy, log)
}

/// [`supervise_tower`] starting from an existing (possibly partial)
/// tower instead of a fresh base — the entry point for resuming a build
/// whose checkpoint outlived its process (e.g. the classification
/// service reloading a [`TowerSnapshot`] from disk after a crash).
/// `steps` counts *total* `f`-rounds, so a tower already holding some
/// levels only builds the remainder; an odd derived count (a lone `R`
/// from an interrupted `f`) is completed with `R̄` first.
pub fn supervise_tower_from(
    tower: ReTower,
    steps: usize,
    opts: ReOptions,
    initial: Budget,
    policy: RetryPolicy,
    log: Option<&EventLog>,
) -> TowerRecovery {
    let mut span = Span::start("recover/supervise-tower");
    let mut tower = tower;
    let mut budget = initial;
    let mut attempts = 0u64;
    let mut checkpoints = 0u64;
    let mut gave_up = None;
    let mut attempt_in_step = 0u32;
    while (tower.level_count() - 1) / 2 < steps {
        let stage = format!("re-tower/level-{}", tower.level_count());
        // Checkpoint before the attempt so a panic can roll back.
        let wire = tower.snapshot().to_json();
        checkpoints += 1;
        span.add(Counter::Checkpoints, 1);
        if let Some(log) = log {
            log.record(Event::Checkpoint {
                stage: stage.clone(),
                completed: (tower.level_count() - 1) as u64,
            });
        }
        attempt_in_step += 1;
        attempts += 1;
        let step_budget = budget;
        let token = step_budget.token();
        let outcome = {
            let mut t = tower;
            isolate(move || {
                // An odd derived count means the top is a lone `R` from
                // an interrupted `f`; complete it with `R̄` instead of
                // stacking a fresh `R` on top.
                let derived = t.level_count() - 1;
                let step = if derived % 2 == 1 {
                    t.push_rbar_budgeted(opts, &step_budget, &token)
                } else {
                    t.push_f_budgeted(opts, &step_budget, &token)
                };
                (t, step)
            })
        };
        let err = match outcome {
            Ok((t, Ok(()))) => {
                tower = t;
                attempt_in_step = 0;
                continue;
            }
            Ok((t, Err(err))) => {
                // Completed levels survive a breach; resume from their
                // serialized form as a restarted process would.
                let partial = t.snapshot().to_json();
                tower = restore(&partial);
                if !matches!(err, ReError::Budget(_)) {
                    // No budget fixes an empty universe or a too-large
                    // subset space — give up without burning attempts.
                    gave_up = Some(StageError::Failed(err));
                    break;
                }
                StageError::Failed(err)
            }
            Err(payload) => {
                tower = restore(&wire);
                StageError::Panic(payload)
            }
        };
        if attempt_in_step >= policy.max_attempts.max(1) {
            gave_up = Some(err);
            break;
        }
        span.add(Counter::Retries, 1);
        if let Some(log) = log {
            log.record(Event::Retry {
                stage,
                attempt: u64::from(attempt_in_step),
                backoff_ms: policy.backoff_ms(attempt_in_step),
            });
        }
        budget = budget.escalate(policy.escalation);
    }
    TowerRecovery {
        tower,
        gave_up,
        attempts,
        checkpoints,
        trace: Trace::new(span.finish()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_problems::catalog::sinkless_orientation;

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff_ms(1), policy.backoff_ms(1));
        assert_eq!(policy.backoff_ms(3), policy.backoff_ms(3));
        assert!(policy.backoff_ms(5) > policy.backoff_ms(1));
        let other = RetryPolicy {
            seed: 7,
            ..RetryPolicy::default()
        };
        // Different seeds jitter differently somewhere in the schedule.
        assert!((1..=6).any(|a| other.backoff_ms(a) != policy.backoff_ms(a)));
    }

    #[test]
    fn supervised_tower_matches_a_plain_build_after_budget_breaches() {
        let opts = ReOptions::default();
        let mut plain = ReTower::new(sinkless_orientation(3));
        plain.push_f(opts).unwrap();
        plain.push_f(opts).unwrap();

        // max_rounds 2 lets the first f-step through, breaches on the
        // second, and succeeds after one escalation (2 -> 4).
        for tight_rounds in [2u64, 3] {
            let log = EventLog::new(64);
            let recovery = supervise_tower(
                sinkless_orientation(3),
                2,
                opts,
                Budget::unlimited().with_max_rounds(tight_rounds),
                RetryPolicy::default(),
                Some(&log),
            );
            assert!(
                recovery.gave_up.is_none(),
                "cap {tight_rounds}: {:?}",
                recovery.gave_up
            );
            assert_eq!(recovery.tower.level_count(), plain.level_count());
            assert_eq!(
                recovery.tower.fingerprint(),
                plain.fingerprint(),
                "supervised build must be bit-identical (cap {tight_rounds})"
            );
            assert!(recovery.attempts >= 3, "a breach forces a retry");
            assert!(recovery.checkpoints >= recovery.attempts);
            assert!(recovery.trace.total(Counter::Retries) >= 1);
            assert!(recovery.trace.total(Counter::Checkpoints) >= 2);
            let kinds: Vec<_> = log.events().iter().map(|e| e.kind()).collect();
            assert!(kinds.contains(&"retry"));
            assert!(kinds.contains(&"checkpoint"));
        }
    }

    #[test]
    fn resuming_a_snapshotted_partial_tower_matches_an_uninterrupted_build() {
        let opts = ReOptions::default();
        let mut plain = ReTower::new(sinkless_orientation(3));
        plain.push_f(opts).unwrap();
        plain.push_f(opts).unwrap();

        // Build one f-round, serialize, "restart the process", finish.
        let first = supervise_tower(
            sinkless_orientation(3),
            1,
            opts,
            Budget::unlimited(),
            RetryPolicy::default(),
            None,
        );
        assert!(first.gave_up.is_none());
        let wire = first.tower.snapshot().to_json();
        let restored = ReTower::resume_from(&TowerSnapshot::parse(&wire).unwrap()).unwrap();
        let finished = supervise_tower_from(
            restored,
            2,
            opts,
            Budget::unlimited(),
            RetryPolicy::default(),
            None,
        );
        assert!(finished.gave_up.is_none());
        assert_eq!(finished.tower.level_count(), plain.level_count());
        assert_eq!(finished.tower.fingerprint(), plain.fingerprint());
        // Only the one remaining f-step was (re)built.
        assert_eq!(finished.attempts, 1);
    }

    #[test]
    fn supervised_tower_keeps_the_partial_tower_when_it_gives_up() {
        // A one-round cap with no escalation can never finish the second
        // level, so the supervisor gives up holding the lone R level.
        let recovery = supervise_tower(
            sinkless_orientation(3),
            1,
            ReOptions::default(),
            Budget::unlimited().with_max_rounds(1),
            RetryPolicy {
                max_attempts: 2,
                escalation: 1,
                ..RetryPolicy::default()
            },
            None,
        );
        match recovery.gave_up {
            Some(StageError::Failed(ReError::Budget(_))) => {}
            other => panic!("expected a budget stage error, got {other:?}"),
        }
        assert_eq!(recovery.tower.level_count(), 2, "base plus the R level");
        assert_eq!(recovery.attempts, 2);
    }
}
