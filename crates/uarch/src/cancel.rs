//! Cooperative cancellation for long-running simulations.
//!
//! A [`CancelToken`] is a cheap, cloneable handle that a job runner hands
//! to a [`crate::Core`] before calling [`crate::Core::run`]. The core
//! polls it at cycle-batch granularity ([`CANCEL_POLL_CYCLES`]) — often
//! enough that a deadline or an explicit cancel stops a runaway
//! simulation within milliseconds, rarely enough that the poll (one
//! relaxed atomic load, plus one clock read when a deadline is armed)
//! costs nothing measurable (the repository benchmark reports the whole
//! guarded job path's share as `experiments.jobs.guard_cost_frac`).
//!
//! Tokens form a chain: a child created with [`CancelToken::child`]
//! observes its parent's cancellation in addition to its own flag and
//! deadline. Job runners use this to combine a *global run budget* (the
//! parent, covering the whole batch) with *per-job soft deadlines* (one
//! child per job): cancelling the parent stops every job, while a child's
//! deadline stops only its own simulation. After an interrupted run,
//! [`CancelToken::deadline_exceeded`] distinguishes "this job blew its
//! own deadline" from "the whole run was cancelled" so failures classify
//! correctly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many simulated cycles the core advances between cancellation
/// polls. Small enough that even a slow (reference-scheduler, memory-
/// bound) simulation polls many times per second of wall clock; large
/// enough that the poll never shows up in profiles.
pub const CANCEL_POLL_CYCLES: u64 = 4096;

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    /// Soft deadline: the token reads as cancelled once `Instant::now()`
    /// passes it. Checked only at poll granularity — "soft" by design.
    deadline: Option<Instant>,
    /// Parent in the cancellation chain (a batch-wide budget token).
    parent: Option<CancelToken>,
}

/// A cloneable cooperative-cancellation handle (see module docs).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A fresh token that only cancels when [`CancelToken::cancel`] is
    /// called.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that additionally reads as cancelled once `deadline`
    /// passes.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                deadline: Some(deadline),
                ..Inner::default()
            }),
        }
    }

    /// A token cancelled `budget` from now (convenience over
    /// [`CancelToken::with_deadline`]).
    #[must_use]
    pub fn with_budget(budget: Duration) -> Self {
        Self::with_deadline(Instant::now() + budget)
    }

    /// A child token: cancelled when `self` is, when its own flag is set,
    /// or (if `deadline` is given) when the deadline passes. Cancelling
    /// the child never affects the parent.
    #[must_use]
    pub fn child(&self, deadline: Option<Instant>) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                deadline,
                parent: Some(self.clone()),
                ..Inner::default()
            }),
        }
    }

    /// Requests cancellation: every holder of this token (and of its
    /// children) observes it at their next poll.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether this token's *own* deadline has passed (ignores the flag
    /// and the parent chain) — the classifier for "job overran its soft
    /// deadline" as opposed to "the whole run was cancelled".
    #[must_use]
    pub fn deadline_exceeded(&self) -> bool {
        self.inner.deadline.is_some_and(|d| Instant::now() > d)
    }

    /// Whether cancellation has been requested, here or anywhere up the
    /// parent chain, or any deadline on the chain has passed.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) || self.deadline_exceeded() {
            return true;
        }
        self.inner
            .parent
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live_until_cancelled() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        assert!(!t.deadline_exceeded(), "no deadline was armed");
    }

    #[test]
    fn past_deadline_reads_as_cancelled() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        assert!(t.deadline_exceeded());
        let far = CancelToken::with_budget(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
    }

    #[test]
    fn child_observes_parent_but_not_vice_versa() {
        let parent = CancelToken::new();
        let child = parent.child(None);
        assert!(!child.is_cancelled());
        parent.cancel();
        assert!(child.is_cancelled());
        assert!(
            !child.deadline_exceeded(),
            "parent cancellation is not a deadline overrun"
        );

        let parent = CancelToken::new();
        let child = parent.child(None);
        child.cancel();
        assert!(!parent.is_cancelled(), "cancellation never flows upward");
    }

    #[test]
    fn child_deadline_is_its_own() {
        let parent = CancelToken::new();
        let child = parent.child(Some(Instant::now() - Duration::from_millis(1)));
        assert!(child.is_cancelled());
        assert!(child.deadline_exceeded());
        assert!(!parent.is_cancelled());
    }

    #[test]
    fn clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel();
        assert!(a.is_cancelled());
    }
}
