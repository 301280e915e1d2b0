//! Memory-dependence prediction (store-set style, simplified).
//!
//! §6 of the paper: loads may speculatively bypass older stores with
//! unknown addresses; a detected forwarding error flushes the load and
//! everything younger. BOOM bounds the cost of repeated violations with a
//! memory-dependence predictor; this module models the minimal version the
//! simulator needs — a load that has *already* caused a forwarding
//! violation is not allowed to bypass unknown store addresses again, it
//! waits instead.
//!
//! Without this, a load whose aliasing store has a very slow address
//! operand can livelock: speculate → flush → replay → speculate against
//! the *same* still-unresolved store. With it, the second attempt waits.

use sb_isa::MixHasher;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;

/// Learns which loads must not bypass unresolved store addresses.
///
/// Loads are identified by their trace index (the dynamic-trace analogue
/// of a PC). The table is bounded; at capacity it resets, and offenders
/// re-train on their next violation.
#[derive(Clone, Debug)]
pub(crate) struct MemDepPredictor {
    violators: HashSet<usize, BuildHasherDefault<MixHasher>>,
    capacity: usize,
}

impl MemDepPredictor {
    /// A predictor holding at most `capacity` known violators.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "predictor needs capacity");
        MemDepPredictor {
            violators: HashSet::default(),
            capacity,
        }
    }

    /// Whether the load at `trace_idx` may speculatively bypass an older
    /// store with an unknown address.
    #[must_use]
    pub(crate) fn may_bypass(&self, trace_idx: usize) -> bool {
        // Fast path: most runs never record a violation, and this check
        // sits on the load-issue hot path.
        self.violators.is_empty() || !self.violators.contains(&trace_idx)
    }

    /// Records a forwarding violation by the load at `trace_idx`.
    pub(crate) fn train_violation(&mut self, trace_idx: usize) {
        if self.violators.len() >= self.capacity && !self.violators.contains(&trace_idx) {
            self.violators.clear();
        }
        self.violators.insert(trace_idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_predictor_allows_bypass() {
        let p = MemDepPredictor::new(8);
        assert!(p.may_bypass(42));
    }

    #[test]
    fn violation_blocks_future_bypass() {
        let mut p = MemDepPredictor::new(8);
        p.train_violation(42);
        assert!(!p.may_bypass(42));
        assert!(p.may_bypass(43), "other loads unaffected");
    }

    #[test]
    fn capacity_reset_retrains() {
        let mut p = MemDepPredictor::new(2);
        p.train_violation(1);
        p.train_violation(2);
        p.train_violation(3); // resets, then inserts 3
        assert!(p.may_bypass(1));
        assert!(p.may_bypass(2));
        assert!(!p.may_bypass(3));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = MemDepPredictor::new(0);
    }
}
