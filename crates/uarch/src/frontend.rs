//! The trace-driven front end.
//!
//! Correct-path micro-ops stream from the trace cursor. A mispredicted
//! branch either injects its wrong-path block (attack kernels, modelling
//! transient execution explicitly) or stalls fetch until the branch
//! resolves; either way the core pays the redirect penalty after
//! resolution. Store-to-load forwarding errors rewind the cursor to the
//! offending load and replay the stream — which is why traces are fully
//! materialized and indexable. The trace is read-only and held behind an
//! [`Arc`], so every core simulating the same workload shares one copy.

use sb_isa::{MicroOp, Trace};
use std::sync::Arc;

/// What the front end delivers for one dispatch slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fetched {
    /// A correct-path op at this trace index.
    Correct(usize),
    /// A wrong-path op (index into the active wrong-path block).
    WrongPath(usize),
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Mode {
    /// Streaming correct-path ops.
    Normal,
    /// Delivering the wrong-path block attached to the branch at
    /// `branch_idx`; `next` indexes into the block.
    WrongPath { branch_idx: usize, next: usize },
    /// Fetch stopped until the in-flight mispredicted branch resolves.
    Stalled,
    /// Redirect in progress; fetch resumes at `cycle`.
    RedirectUntil(u64),
}

/// Trace-driven fetch with misprediction stall, wrong-path injection, and
/// flush/rewind support.
#[derive(Clone, Debug)]
pub(crate) struct Frontend {
    trace: Arc<Trace>,
    cursor: usize,
    mode: Mode,
    redirect_penalty: u32,
}

impl Frontend {
    /// A front end positioned at the start of `trace`: an owned [`Trace`]
    /// or an `Arc<Trace>` shared with other front ends.
    #[must_use]
    pub(crate) fn new(trace: impl Into<Arc<Trace>>, redirect_penalty: u32) -> Self {
        Frontend {
            trace: trace.into(),
            cursor: 0,
            mode: Mode::Normal,
            redirect_penalty,
        }
    }

    /// Whether every correct-path op has been delivered and fetch is not
    /// rewound or replaying.
    #[must_use]
    pub(crate) fn exhausted(&self) -> bool {
        self.cursor >= self.trace.len() && matches!(self.mode, Mode::Normal)
    }

    /// Looks at the next op fetch would deliver at `cycle` without consuming
    /// it, so dispatch can check resource availability first. Expired
    /// redirects are retired as a side effect (idempotent).
    pub(crate) fn peek(&mut self, cycle: u64) -> Option<(Fetched, MicroOp)> {
        match &self.mode {
            Mode::Stalled => None,
            Mode::RedirectUntil(at) => {
                if cycle < *at {
                    None
                } else {
                    self.mode = Mode::Normal;
                    self.peek(cycle)
                }
            }
            Mode::WrongPath { branch_idx, next } => {
                let block = self
                    .trace
                    .wrong_path(*branch_idx)
                    .expect("wrong-path mode requires a block");
                block
                    .ops
                    .get(*next)
                    .map(|&op| (Fetched::WrongPath(*next), op))
            }
            Mode::Normal => self
                .trace
                .get(self.cursor)
                .map(|&op| (Fetched::Correct(self.cursor), op)),
        }
    }

    /// Consumes the op last returned by [`Frontend::peek`]. Entering a
    /// mispredicted branch switches fetch into wrong-path or stalled mode.
    ///
    /// `mispredict_override` applies to the op being consumed: `Some(m)`
    /// replaces the trace's static bit with the modelled predictor's
    /// fetch-time decision `m`, `None` keeps the static bit (the
    /// predictor-off path — bit-identical to the pre-predictor frontend).
    ///
    /// A dynamically mispredicted branch still injects the trace's
    /// wrong-path block if one is attached; when the predictor mispredicts
    /// a branch that carries no block (the static bit said
    /// well-predicted), fetch stalls — the trace has no transient ops to
    /// offer, so only the timing cost is modelled.
    ///
    /// # Panics
    ///
    /// Panics if there is nothing to consume in the current mode.
    pub(crate) fn consume_with(&mut self, mispredict_override: Option<bool>) {
        match &mut self.mode {
            Mode::WrongPath { next, .. } => {
                *next += 1;
            }
            Mode::Normal => {
                let idx = self.cursor;
                let static_bit = self
                    .trace
                    .get(idx)
                    .expect("consume past end of trace")
                    .is_mispredicted();
                let mispredicted = mispredict_override.unwrap_or(static_bit);
                self.cursor += 1;
                if mispredicted {
                    self.mode = if self.trace.wrong_path(idx).is_some() {
                        Mode::WrongPath {
                            branch_idx: idx,
                            next: 0,
                        }
                    } else {
                        Mode::Stalled
                    };
                }
            }
            _ => panic!("consume while fetch cannot deliver"),
        }
    }

    /// Called when the in-flight mispredicted branch resolves at `cycle`:
    /// ends the stall / wrong-path mode and starts the redirect. The cursor
    /// already points at the first post-branch correct-path op.
    ///
    /// # Panics
    ///
    /// Panics if fetch is not stalled on (or injecting the wrong path of)
    /// a pending mispredict. This is a hard invariant, not a debug assert:
    /// a spurious resolution in release would silently start a redirect
    /// and skew timing without any test noticing.
    pub(crate) fn branch_resolved(&mut self, cycle: u64) {
        assert!(
            matches!(self.mode, Mode::Stalled | Mode::WrongPath { .. }),
            "resolution without a pending mispredict"
        );
        self.mode = Mode::RedirectUntil(cycle + u64::from(self.redirect_penalty));
    }

    /// Flush: rewind the cursor to `trace_idx` (the op to re-fetch first)
    /// and redirect. Used by forwarding-error recovery.
    pub(crate) fn flush_to(&mut self, trace_idx: usize, cycle: u64) {
        self.cursor = trace_idx;
        self.mode = Mode::RedirectUntil(cycle + u64::from(self.redirect_penalty));
    }

    /// Whether fetch is currently stalled on an unresolved mispredict (used
    /// by deadlock diagnostics).
    #[must_use]
    pub(crate) fn is_stalled(&self) -> bool {
        matches!(self.mode, Mode::Stalled | Mode::WrongPath { .. })
    }

    /// The cycle an in-progress redirect ends, if one is in progress (the
    /// event-driven scheduler uses this to bound idle-cycle skips).
    #[must_use]
    pub(crate) fn redirect_resume_cycle(&self) -> Option<u64> {
        match self.mode {
            Mode::RedirectUntil(at) => Some(at),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_isa::{ArchReg, TraceBuilder};

    impl Frontend {
        /// [`Frontend::consume_with`] keeping the trace's static bit.
        fn consume(&mut self) {
            self.consume_with(None);
        }

        /// Delivers and consumes the next op for dispatch at `cycle`, if
        /// fetch can supply one.
        fn next_op(&mut self, cycle: u64) -> Option<(Fetched, MicroOp)> {
            let out = self.peek(cycle)?;
            self.consume();
            Some(out)
        }
    }

    fn x(n: u8) -> ArchReg {
        ArchReg::int(n)
    }

    #[test]
    fn streams_in_order_until_exhausted() {
        let mut b = TraceBuilder::new("t");
        b.alu(x(1), None, None);
        b.alu(x(2), None, None);
        let mut fe = Frontend::new(b.build(), 5);
        assert!(matches!(fe.next_op(0), Some((Fetched::Correct(0), _))));
        assert!(matches!(fe.next_op(0), Some((Fetched::Correct(1), _))));
        assert!(fe.next_op(0).is_none());
        assert!(fe.exhausted());
    }

    #[test]
    fn mispredict_without_block_stalls_then_redirects() {
        let mut b = TraceBuilder::new("t");
        b.branch(Some(x(1)), None, true, true);
        b.alu(x(2), None, None);
        let mut fe = Frontend::new(b.build(), 5);
        assert!(matches!(fe.next_op(0), Some((Fetched::Correct(0), _))));
        assert!(fe.next_op(1).is_none(), "stalled behind the mispredict");
        assert!(fe.is_stalled());
        fe.branch_resolved(10);
        assert!(fe.next_op(12).is_none(), "redirect penalty");
        assert!(matches!(fe.next_op(15), Some((Fetched::Correct(1), _))));
    }

    #[test]
    fn mispredict_with_block_injects_wrong_path() {
        let mut b = TraceBuilder::new("t");
        let br = b.branch(Some(x(1)), None, true, true);
        b.wrong_path(br, vec![MicroOp::nop(), MicroOp::nop()]);
        b.alu(x(2), None, None);
        let mut fe = Frontend::new(b.build(), 3);
        fe.next_op(0).unwrap();
        assert!(matches!(fe.next_op(1), Some((Fetched::WrongPath(0), _))));
        assert!(matches!(fe.next_op(1), Some((Fetched::WrongPath(1), _))));
        assert!(fe.next_op(2).is_none(), "transient window exhausted");
        fe.branch_resolved(8);
        assert!(matches!(fe.next_op(11), Some((Fetched::Correct(1), _))));
    }

    #[test]
    fn flush_rewinds_cursor() {
        let mut b = TraceBuilder::new("t");
        b.alu(x(1), None, None);
        b.load(x(2), x(1), 0x40, 8);
        b.alu(x(3), Some(x(2)), None);
        let mut fe = Frontend::new(b.build(), 2);
        fe.next_op(0);
        fe.next_op(0);
        fe.next_op(0);
        fe.flush_to(1, 10);
        assert!(fe.next_op(11).is_none());
        assert!(matches!(fe.next_op(12), Some((Fetched::Correct(1), _))));
        assert!(matches!(fe.next_op(12), Some((Fetched::Correct(2), _))));
    }

    #[test]
    fn exhausted_is_false_while_stalled() {
        let mut b = TraceBuilder::new("t");
        b.branch(Some(x(1)), None, true, true);
        let mut fe = Frontend::new(b.build(), 1);
        fe.next_op(0);
        assert!(!fe.exhausted(), "a mispredict is still in flight");
    }

    // --- Mode state-machine invariants, tested directly ----------------

    /// Regression test for the `branch_resolved` invariant: a spurious
    /// resolution (no pending mispredict) must panic even in release —
    /// under the old `debug_assert!` this silently started a redirect.
    #[test]
    #[should_panic(expected = "resolution without a pending mispredict")]
    fn spurious_resolution_in_normal_mode_panics() {
        let mut b = TraceBuilder::new("t");
        b.alu(x(1), None, None);
        let mut fe = Frontend::new(b.build(), 5);
        fe.branch_resolved(10);
    }

    #[test]
    #[should_panic(expected = "resolution without a pending mispredict")]
    fn spurious_resolution_during_redirect_panics() {
        let mut b = TraceBuilder::new("t");
        b.branch(Some(x(1)), None, true, true);
        let mut fe = Frontend::new(b.build(), 5);
        fe.next_op(0);
        fe.branch_resolved(3); // legal: Stalled -> RedirectUntil
        fe.branch_resolved(4); // spurious: already redirecting
    }

    #[test]
    #[should_panic(expected = "consume while fetch cannot deliver")]
    fn consume_while_stalled_panics() {
        let mut b = TraceBuilder::new("t");
        b.branch(Some(x(1)), None, true, true);
        let mut fe = Frontend::new(b.build(), 5);
        fe.next_op(0); // Normal -> Stalled
        fe.consume();
    }

    #[test]
    fn wrong_path_exhaustion_keeps_fetch_stalled_until_resolution() {
        let mut b = TraceBuilder::new("t");
        let br = b.branch(Some(x(1)), None, true, true);
        b.wrong_path(br, vec![MicroOp::nop()]);
        b.alu(x(2), None, None);
        let mut fe = Frontend::new(b.build(), 2);
        fe.next_op(0).unwrap(); // the branch
        fe.next_op(0).unwrap(); // the single wrong-path op
                                // Block exhausted: peek yields nothing, but the mode is still
                                // wrong-path (is_stalled) and the trace is not exhausted.
        assert!(fe.peek(5).is_none());
        assert!(fe.is_stalled());
        assert!(!fe.exhausted());
        fe.branch_resolved(5);
        assert_eq!(fe.redirect_resume_cycle(), Some(7));
        assert!(matches!(fe.next_op(7), Some((Fetched::Correct(1), _))));
    }

    #[test]
    fn redirect_expires_exactly_at_resume_cycle() {
        let mut b = TraceBuilder::new("t");
        b.branch(Some(x(1)), None, true, true);
        b.alu(x(2), None, None);
        let mut fe = Frontend::new(b.build(), 3);
        fe.next_op(0);
        fe.branch_resolved(10);
        assert_eq!(fe.redirect_resume_cycle(), Some(13));
        assert!(fe.peek(12).is_none(), "cycle 12 still redirecting");
        assert!(fe.peek(13).is_some(), "cycle 13 delivers");
        // Retiring the redirect is a peek side effect: the resume cycle
        // is gone afterwards.
        assert_eq!(fe.redirect_resume_cycle(), None);
    }

    #[test]
    fn flush_during_stall_overrides_the_pending_mispredict() {
        let mut b = TraceBuilder::new("t");
        b.alu(x(1), None, None);
        b.branch(Some(x(1)), None, true, true);
        b.alu(x(2), None, None);
        let mut fe = Frontend::new(b.build(), 2);
        fe.next_op(0);
        fe.next_op(0); // branch -> Stalled
        assert!(fe.is_stalled());
        fe.flush_to(0, 10); // forwarding-error recovery wins
        assert!(!fe.is_stalled());
        assert!(matches!(fe.next_op(12), Some((Fetched::Correct(0), _))));
    }

    #[test]
    fn flush_during_wrong_path_abandons_the_block() {
        let mut b = TraceBuilder::new("t");
        let br = b.branch(Some(x(1)), None, true, true);
        b.wrong_path(br, vec![MicroOp::nop(), MicroOp::nop()]);
        b.alu(x(2), None, None);
        let mut fe = Frontend::new(b.build(), 2);
        fe.next_op(0).unwrap();
        assert!(matches!(fe.next_op(0), Some((Fetched::WrongPath(0), _))));
        fe.flush_to(1, 10);
        assert!(matches!(fe.next_op(12), Some((Fetched::Correct(1), _))));
    }

    #[test]
    fn flush_during_redirect_restarts_the_penalty() {
        let mut b = TraceBuilder::new("t");
        b.branch(Some(x(1)), None, true, true);
        b.alu(x(2), None, None);
        let mut fe = Frontend::new(b.build(), 4);
        fe.next_op(0);
        fe.branch_resolved(10); // RedirectUntil(14)
        fe.flush_to(0, 12); // RedirectUntil(16)
        assert_eq!(fe.redirect_resume_cycle(), Some(16));
        assert!(fe.peek(15).is_none());
        assert!(matches!(fe.next_op(16), Some((Fetched::Correct(0), _))));
    }

    // --- consume_with: the modelled predictor's override ----------------

    #[test]
    fn override_can_turn_a_well_predicted_branch_into_a_stall() {
        let mut b = TraceBuilder::new("t");
        b.branch(Some(x(1)), None, true, false); // statically well-predicted
        b.alu(x(2), None, None);
        let mut fe = Frontend::new(b.build(), 3);
        let (f, _) = fe.peek(0).unwrap();
        assert_eq!(f, Fetched::Correct(0));
        fe.consume_with(Some(true)); // predictor got it wrong
        assert!(fe.is_stalled());
        fe.branch_resolved(5);
        assert!(matches!(fe.next_op(8), Some((Fetched::Correct(1), _))));
    }

    #[test]
    fn override_can_ride_through_a_statically_mispredicted_branch() {
        let mut b = TraceBuilder::new("t");
        let br = b.branch(Some(x(1)), None, true, true);
        b.wrong_path(br, vec![MicroOp::nop()]);
        b.alu(x(2), None, None);
        let mut fe = Frontend::new(b.build(), 3);
        fe.peek(0).unwrap();
        fe.consume_with(Some(false)); // predictor got it right
        assert!(!fe.is_stalled(), "no stall when the prediction is correct");
        assert!(matches!(fe.next_op(0), Some((Fetched::Correct(1), _))));
    }

    #[test]
    fn override_mispredict_still_injects_an_attached_block() {
        let mut b = TraceBuilder::new("t");
        let br = b.branch(Some(x(1)), None, true, true);
        b.wrong_path(br, vec![MicroOp::nop()]);
        b.alu(x(2), None, None);
        let mut fe = Frontend::new(b.build(), 3);
        fe.peek(0).unwrap();
        fe.consume_with(Some(true));
        assert!(matches!(fe.next_op(0), Some((Fetched::WrongPath(0), _))));
    }

    #[test]
    fn no_override_is_byte_identical_to_consume() {
        let mut b = TraceBuilder::new("t");
        b.branch(Some(x(1)), None, true, true);
        b.alu(x(2), None, None);
        let mut fe = Frontend::new(b.build(), 3);
        fe.peek(0).unwrap();
        fe.consume_with(None);
        assert!(fe.is_stalled(), "static bit still governs");
    }
}
