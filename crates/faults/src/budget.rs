//! Resource budgets with cooperative cancellation.
//!
//! A [`Budget`] caps what one computation may consume: derived labels
//! (the quantity that explodes under round elimination — `R(Π)` label
//! sets grow exponentially), rounds/levels, an estimated memory
//! footprint, and wall-clock time. Budgeted entrypoints check the budget
//! at natural checkpoints and return a typed [`BudgetExceeded`] carrying
//! the partial progress instead of running away.
//!
//! A [`CancelToken`] is the cross-thread half: cloned into the
//! `core::par` scoped-thread fan-out, checked between work chunks, and
//! flippable from outside ([`CancelToken::cancel`]) or by an armed
//! deadline. Cancellation is *cooperative* — a checkpoint observes the
//! flag and unwinds with an error; nothing is killed mid-write.
//!
//! Determinism: every budget except the wall deadline is a pure function
//! of the computation, so label/round/memory breaches are bit-identical
//! across thread counts. Deadlines are deliberately wall-clock and
//! excluded from reproducibility claims.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resource caps for one budgeted computation. `None` means unlimited.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Budget {
    /// Cap on rounds (LOCAL) or tower levels (round elimination).
    pub max_rounds: Option<u64>,
    /// Cap on distinct derived labels interned at any single level.
    pub max_labels: Option<u64>,
    /// Cap on the estimated working-set size, in bytes.
    pub max_memory: Option<u64>,
    /// Wall-clock deadline, measured from [`Budget::token`].
    pub deadline: Option<Duration>,
}

impl Budget {
    /// A budget with every cap disabled.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps rounds / tower levels (builder style).
    pub fn with_max_rounds(mut self, rounds: u64) -> Self {
        self.max_rounds = Some(rounds);
        self
    }

    /// Caps distinct derived labels per level (builder style).
    pub fn with_max_labels(mut self, labels: u64) -> Self {
        self.max_labels = Some(labels);
        self
    }

    /// Caps the estimated memory footprint in bytes (builder style).
    pub fn with_max_memory(mut self, bytes: u64) -> Self {
        self.max_memory = Some(bytes);
        self
    }

    /// Arms a wall-clock deadline (builder style).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// This budget with every finite cap multiplied by `factor`
    /// (saturating) — the escalation step of a retry supervisor: each
    /// retry runs under a strictly roomier budget, so a computation that
    /// breached only because the caps were tight eventually fits.
    /// Unlimited caps stay unlimited; a `factor` of 0 or 1 returns the
    /// budget unchanged.
    pub fn escalate(&self, factor: u64) -> Self {
        let factor = factor.max(1);
        let scale = |cap: Option<u64>| cap.map(|c| c.saturating_mul(factor));
        Self {
            max_rounds: scale(self.max_rounds),
            max_labels: scale(self.max_labels),
            max_memory: scale(self.max_memory),
            deadline: self
                .deadline
                .map(|d| d.saturating_mul(factor.min(u64::from(u32::MAX)) as u32)),
        }
    }

    /// The round cap of a LOCAL run under this budget: the smaller of
    /// `max_rounds` and the budget's cap, saturated at `u32::MAX`.
    pub fn round_cap(&self, max_rounds: u32) -> u32 {
        self.max_rounds.map_or(max_rounds, |cap| {
            max_rounds.min(u32::try_from(cap).unwrap_or(u32::MAX))
        })
    }

    /// A fresh [`CancelToken`] for this budget, with the deadline (if
    /// any) armed from now.
    pub fn token(&self) -> CancelToken {
        match self.deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        }
    }

    /// Checks the per-level label cap.
    pub fn check_labels(
        &self,
        stage: &str,
        labels: u64,
        partial: u64,
    ) -> Result<(), BudgetExceeded> {
        check(self.max_labels, labels, Breach::Labels, stage, partial)
    }

    /// Checks the round / level cap.
    pub fn check_rounds(
        &self,
        stage: &str,
        rounds: u64,
        partial: u64,
    ) -> Result<(), BudgetExceeded> {
        check(self.max_rounds, rounds, Breach::Rounds, stage, partial)
    }

    /// Checks the memory-estimate cap.
    pub fn check_memory(
        &self,
        stage: &str,
        bytes: u64,
        partial: u64,
    ) -> Result<(), BudgetExceeded> {
        check(self.max_memory, bytes, Breach::Memory, stage, partial)
    }
}

fn check(
    cap: Option<u64>,
    observed: u64,
    kind: fn(u64, u64) -> Breach,
    stage: &str,
    partial: u64,
) -> Result<(), BudgetExceeded> {
    match cap {
        Some(limit) if observed > limit => Err(BudgetExceeded {
            stage: stage.to_string(),
            breach: kind(limit, observed),
            partial,
        }),
        _ => Ok(()),
    }
}

/// Which cap was breached, with the limit and the observed value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Breach {
    /// Round / level cap.
    Rounds(u64, u64),
    /// Derived-label cap.
    Labels(u64, u64),
    /// Memory-estimate cap (bytes).
    Memory(u64, u64),
    /// The wall deadline passed, or the token was cancelled externally.
    Cancelled,
}

impl fmt::Display for Breach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Breach::Rounds(limit, got) => write!(f, "rounds {got} > cap {limit}"),
            Breach::Labels(limit, got) => write!(f, "labels {got} > cap {limit}"),
            Breach::Memory(limit, got) => write!(f, "memory estimate {got} B > cap {limit} B"),
            Breach::Cancelled => write!(f, "cancelled (deadline or external)"),
        }
    }
}

/// A budget breach: where it happened, which cap, and how much progress
/// had completed (the partial result stays with the caller — a budgeted
/// `ReTower` push leaves every already-built level in the tower).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BudgetExceeded {
    /// The stage that hit the cap (e.g. `"re-tower/level-3"`).
    pub stage: String,
    /// Which cap, with limit and observed value.
    pub breach: Breach,
    /// Completed work units at the breach (levels built, rounds run, …).
    pub partial: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "budget exceeded at {}: {} ({} units completed)",
            self.stage, self.breach, self.partial
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// A rejected entrypoint configuration (zero trials, zero threads, …):
/// the typed replacement for `assert!`-style precondition panics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InvalidConfig {
    /// The offending parameter.
    pub param: &'static str,
    /// What the parameter must satisfy.
    pub requirement: &'static str,
    /// The rejected value.
    pub got: u64,
}

impl fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid configuration: {} must be {}, got {}",
            self.param, self.requirement, self.got
        )
    }
}

impl std::error::Error for InvalidConfig {}

#[derive(Debug)]
struct TokenInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cooperative cancellation flag shared across worker threads.
///
/// Cloning is cheap (an `Arc`); workers call [`CancelToken::is_cancelled`]
/// between chunks, budgeted loops call [`CancelToken::checkpoint`] at
/// natural boundaries. The token trips either when [`CancelToken::cancel`]
/// is called from any thread or when its armed deadline passes.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// A token that only trips on an explicit [`CancelToken::cancel`].
    pub fn new() -> Self {
        Self {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that additionally trips once `deadline` has elapsed.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + deadline),
            }),
        }
    }

    /// Trips the token; every subsequent checkpoint fails.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token has tripped (explicitly or by deadline).
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.inner.deadline {
            Some(at) if Instant::now() >= at => {
                // Latch, so later checks are branch-cheap and consistent.
                self.inner.cancelled.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Fails with a typed [`BudgetExceeded`] if the token has tripped.
    pub fn checkpoint(&self, stage: &str, partial: u64) -> Result<(), BudgetExceeded> {
        if self.is_cancelled() {
            Err(BudgetExceeded {
                stage: stage.to_string(),
                breach: Breach::Cancelled,
                partial,
            })
        } else {
            Ok(())
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_breaches() {
        let b = Budget::unlimited();
        assert!(b.check_labels("s", u64::MAX, 0).is_ok());
        assert!(b.check_rounds("s", u64::MAX, 0).is_ok());
        assert!(b.check_memory("s", u64::MAX, 0).is_ok());
    }

    #[test]
    fn round_cap_takes_the_smaller_cap_and_saturates() {
        assert_eq!(Budget::unlimited().round_cap(7), 7);
        assert_eq!(Budget::unlimited().with_max_rounds(3).round_cap(7), 3);
        assert_eq!(Budget::unlimited().with_max_rounds(30).round_cap(7), 7);
        let above = Budget::unlimited().with_max_rounds(u64::from(u32::MAX) + 1);
        assert_eq!(above.round_cap(7), 7);
        assert_eq!(above.round_cap(u32::MAX), u32::MAX, "saturates at u32::MAX");
    }

    #[test]
    fn escalation_scales_finite_caps_and_keeps_unlimited() {
        let b = Budget::unlimited()
            .with_max_labels(10)
            .with_max_rounds(4)
            .with_deadline(Duration::from_millis(100));
        let up = b.escalate(3);
        assert_eq!(up.max_labels, Some(30));
        assert_eq!(up.max_rounds, Some(12));
        assert_eq!(up.max_memory, None, "unlimited stays unlimited");
        assert_eq!(up.deadline, Some(Duration::from_millis(300)));
        assert_eq!(b.escalate(0), b, "factor 0 is a no-op");
        assert_eq!(b.escalate(1), b, "factor 1 is a no-op");
        let huge = Budget::unlimited().with_max_labels(u64::MAX / 2);
        assert_eq!(
            huge.escalate(4).max_labels,
            Some(u64::MAX),
            "saturates instead of overflowing"
        );
    }

    #[test]
    fn caps_breach_with_stage_and_partial() {
        let b = Budget::unlimited().with_max_labels(10);
        assert!(b.check_labels("re-tower/level-2", 10, 1).is_ok());
        let err = b.check_labels("re-tower/level-2", 11, 1).unwrap_err();
        assert_eq!(err.stage, "re-tower/level-2");
        assert_eq!(err.breach, Breach::Labels(10, 11));
        assert_eq!(err.partial, 1);
        assert!(err.to_string().contains("labels 11 > cap 10"));
    }

    #[test]
    fn explicit_cancel_trips_checkpoints_everywhere() {
        let token = CancelToken::new();
        assert!(token.checkpoint("stage", 0).is_ok());
        let clone = token.clone();
        std::thread::scope(|s| {
            s.spawn(move || clone.cancel());
        });
        assert!(token.is_cancelled());
        let err = token.checkpoint("stage", 7).unwrap_err();
        assert_eq!(err.breach, Breach::Cancelled);
        assert_eq!(err.partial, 7);
    }

    #[test]
    fn deadline_trips_and_latches() {
        let token = CancelToken::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(token.is_cancelled());
        assert!(token.is_cancelled(), "stays tripped");
    }

    #[test]
    fn budget_token_arms_the_deadline() {
        let with = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        assert!(!with.token().is_cancelled());
        let without = Budget::unlimited();
        assert!(!without.token().is_cancelled());
    }

    #[test]
    fn invalid_config_reports_all_three_parts() {
        let err = InvalidConfig {
            param: "trials",
            requirement: "> 0",
            got: 0,
        };
        let text = err.to_string();
        assert!(text.contains("trials") && text.contains("> 0") && text.contains('0'));
    }
}
