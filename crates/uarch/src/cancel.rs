//! Cooperative cancellation for long-running simulations.
//!
//! A [`CancelToken`] is a small, cloneable value that a job runner hands
//! to a [`crate::Core`] before calling [`crate::Core::run`]. It carries
//! deadlines only: a token reads as cancelled once one of them has passed.
//! The core polls it at cycle-batch granularity ([`CANCEL_POLL_CYCLES`])
//! — often enough that a deadline stops a runaway simulation within
//! milliseconds, rarely enough that the poll (one clock read, and none
//! when no deadline is set) costs nothing measurable (the repository
//! benchmark reports the whole guarded job path's share as
//! `experiments.jobs.guard_cost_frac`).
//!
//! A child created with [`CancelToken::child`] keeps its own deadline and
//! inherits the earliest deadline of the token it came from. Job runners
//! use this to combine a *global run budget* (the parent's deadline, fixed
//! when the batch starts) with *per-job soft deadlines* (one child per
//! job): the budget stops every job, while a child's deadline stops only
//! its own simulation. After an interrupted run,
//! [`CancelToken::deadline_exceeded`] distinguishes "this job blew its
//! own deadline" from "the whole run was cancelled" so failures classify
//! correctly.

use std::time::Instant;

/// How many simulated cycles the core advances between cancellation
/// polls. Small enough that even a slow (reference-scheduler, memory-
/// bound) simulation polls many times per second of wall clock; large
/// enough that the poll never shows up in profiles.
pub const CANCEL_POLL_CYCLES: u64 = 4096;

/// A cloneable cooperative-cancellation handle (see module docs).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    /// Soft deadline of this token itself: the one
    /// [`CancelToken::deadline_exceeded`] reports on. Checked only at poll
    /// granularity — "soft" by design.
    deadline: Option<Instant>,
    /// The earliest deadline inherited from the token this one was made
    /// from (a batch-wide run budget).
    inherited: Option<Instant>,
}

/// The earlier of two optional deadlines.
fn earliest(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

impl CancelToken {
    /// A token with no deadline: it never reads as cancelled.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A child token: cancelled once `self` would be, or once its own
    /// `deadline` (if given) passes. Only the child's own deadline counts
    /// as exceeded.
    #[must_use]
    pub fn child(&self, deadline: Option<Instant>) -> Self {
        CancelToken {
            deadline,
            inherited: earliest(self.deadline, self.inherited),
        }
    }

    /// Whether this token's *own* deadline has passed (ignores inherited
    /// deadlines) — the classifier for "job overran its soft deadline" as
    /// opposed to "the whole run was cancelled".
    #[must_use]
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() > d)
    }

    /// Whether any deadline of this token, its own or inherited, has
    /// passed. Reads no clock when neither is set.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        earliest(self.deadline, self.inherited).is_some_and(|d| Instant::now() > d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn past() -> Instant {
        Instant::now() - Duration::from_millis(1)
    }

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(3600)
    }

    #[test]
    fn fresh_token_is_live_until_cancelled() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(!t.deadline_exceeded(), "no deadline was armed");
        let child = t.child(None);
        assert!(!child.is_cancelled(), "no deadline anywhere on the chain");
        assert!(!child.deadline_exceeded());
    }

    #[test]
    fn past_deadline_reads_as_cancelled() {
        let t = CancelToken::new().child(Some(past()));
        assert!(t.is_cancelled());
        assert!(t.deadline_exceeded());
        let far = CancelToken::new().child(Some(far()));
        assert!(!far.is_cancelled());
        assert!(!far.deadline_exceeded());
    }

    #[test]
    fn child_observes_parent_but_not_vice_versa() {
        let parent = CancelToken::new().child(Some(past()));
        let child = parent.child(None);
        assert!(child.is_cancelled());
        assert!(
            !child.deadline_exceeded(),
            "an inherited deadline is not a deadline overrun"
        );
        let grandchild = child.child(Some(far()));
        assert!(
            grandchild.is_cancelled(),
            "the earliest deadline is inherited"
        );
        assert!(!grandchild.deadline_exceeded());

        let parent = CancelToken::new().child(Some(far()));
        let child = parent.child(Some(past()));
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled(), "cancellation never flows upward");
    }

    #[test]
    fn child_deadline_is_its_own() {
        let parent = CancelToken::new();
        let child = parent.child(Some(past()));
        assert!(child.is_cancelled());
        assert!(child.deadline_exceeded());
        assert!(!parent.is_cancelled());
    }

    #[test]
    fn clones_share_state() {
        // A clone carries the same deadlines, own and inherited.
        for (a, cancelled, exceeded) in [
            (CancelToken::new().child(Some(past())), true, true),
            (
                CancelToken::new().child(Some(past())).child(Some(far())),
                true,
                false,
            ),
            (
                CancelToken::new().child(Some(far())).child(None),
                false,
                false,
            ),
        ] {
            let b = a.clone();
            assert_eq!(b.is_cancelled(), cancelled);
            assert_eq!(b.deadline_exceeded(), exceeded);
        }
    }
}
