//! Modelled frontend branch predictor: a gshare direction predictor plus a
//! direct-mapped, tagged branch target buffer (BTB), with a global history
//! register (GHR).
//!
//! When enabled (see [`PredictorConfig`](crate::PredictorConfig)), the core
//! *produces* the mispredict decision at fetch time from this state instead
//! of reading the pre-resolved bit from the trace — the trace's static
//! outcome becomes the ground truth the predictor is trained against. This
//! is what lets predictor-state channels (Spectre v2 / BTB injection, PHT
//! poisoning, predictor state surviving squashes) be expressed at all: the
//! prediction tables are microarchitectural state that training updates and
//! squashes do *not* roll back, exactly like cache fills.
//!
//! Every state change ([`Predictor::train`], [`Predictor::shift_ghr`])
//! reports itself as `(CacheChangeKind, table index)` pairs that the core
//! forwards to the leakage observer via
//! `MemoryHierarchy::note_predictor_update`, attributed and squash-resolved
//! exactly like cache state.

use sb_mem::CacheChangeKind;

/// What the predictor said about one fetched branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Prediction {
    /// Predicted direction (PHT counter ≥ 2).
    pub(crate) taken: bool,
    /// Predicted target, if the BTB holds an entry whose tag matches the
    /// branch pc. `None` on a BTB miss — a taken branch with no target
    /// prediction is necessarily a mispredict (the frontend cannot have
    /// followed it).
    pub(crate) target: Option<u64>,
}

/// Fixed-capacity buffer of predictor-state change events produced by one
/// training step — returned by value so the core can hold `&mut self.mem`
/// while draining it.
#[derive(Clone, Copy, Debug)]
pub struct PredEvents {
    buf: [(CacheChangeKind, u64); 4],
    len: usize,
}

impl Default for PredEvents {
    fn default() -> Self {
        PredEvents {
            // Placeholder kind; `len` guards what `iter` exposes.
            buf: [(CacheChangeKind::PhtTrain, 0); 4],
            len: 0,
        }
    }
}

impl PredEvents {
    fn push(&mut self, kind: CacheChangeKind, addr: u64) {
        self.buf[self.len] = (kind, addr);
        self.len += 1;
    }

    /// The recorded `(kind, table index)` events, in occurrence order.
    pub fn iter(&self) -> impl Iterator<Item = (CacheChangeKind, u64)> + '_ {
        self.buf[..self.len].iter().copied()
    }
}

/// The gshare + BTB + GHR machine. Constructed by the core from
/// [`PredictorConfig`](crate::PredictorConfig) when the predictor is
/// enabled; all tables start cold (PHT weakly not-taken, BTB empty, GHR
/// zero) so runs are deterministic.
#[derive(Clone, Debug)]
pub struct Predictor {
    /// 2-bit saturating counters, initialized weakly not-taken (1).
    pht: Vec<u8>,
    /// Direct-mapped tagged entries: `(full branch pc, target)`.
    btb: Vec<Option<(u64, u64)>>,
    /// Global history register: youngest outcome in bit 0.
    ghr: u64,
    ghr_bits: u32,
}

impl Predictor {
    /// Builds cold tables. Both entry counts must be powers of two (the
    /// index is a mask) — enforced by `CoreConfig::validate`, asserted here.
    #[must_use]
    pub fn new(pht_entries: usize, btb_entries: usize, ghr_bits: u32) -> Self {
        assert!(
            pht_entries.is_power_of_two() && btb_entries.is_power_of_two(),
            "predictor table sizes must be powers of two"
        );
        assert!(ghr_bits <= 32, "GHR wider than 32 bits is unsupported");
        Predictor {
            pht: vec![1; pht_entries],
            btb: vec![None; btb_entries],
            ghr: 0,
            ghr_bits,
        }
    }

    /// The gshare PHT index for a branch at `pc` under the *current* GHR.
    /// The core computes this at dispatch (fetch time in this model) and
    /// stashes it, so training at resolution uses the fetch-time history
    /// even after younger branches shifted the GHR.
    #[must_use]
    pub fn pht_index(&self, pc: u64) -> u32 {
        let hist = if self.ghr_bits == 0 {
            0
        } else {
            self.ghr & ((1u64 << self.ghr_bits) - 1)
        };
        ((pc ^ hist) & (self.pht.len() as u64 - 1)) as u32
    }

    /// The direct-mapped BTB index for a branch at `pc`.
    #[must_use]
    pub(crate) fn btb_index(&self, pc: u64) -> u32 {
        (pc & (self.btb.len() as u64 - 1)) as u32
    }

    /// Predicts direction and target for a branch at `pc` without changing
    /// any state.
    #[must_use]
    pub(crate) fn predict(&self, pc: u64) -> Prediction {
        let taken = self.pht[self.pht_index(pc) as usize] >= 2;
        let target = match self.btb[self.btb_index(pc) as usize] {
            Some((tag, tgt)) if tag == pc => Some(tgt),
            _ => None,
        };
        Prediction { taken, target }
    }

    /// Whether the prediction at `pc` mispredicts a branch whose actual
    /// outcome is `(taken, target)`: wrong direction, or taken with a BTB
    /// miss or stale/aliased target.
    #[must_use]
    pub fn mispredicts(&self, pc: u64, taken: bool, target: u64) -> bool {
        let p = self.predict(pc);
        p.taken != taken || (taken && p.target != Some(target))
    }

    /// Shifts the actual outcome of a fetched correct-path branch into the
    /// GHR; returns the event to attribute (the address is the pre-shift
    /// history value — *which* history was displaced is the observable).
    pub fn shift_ghr(&mut self, taken: bool) -> Option<(CacheChangeKind, u64)> {
        if self.ghr_bits == 0 {
            return None;
        }
        let prev = self.ghr & ((1u64 << self.ghr_bits) - 1);
        self.ghr = ((self.ghr << 1) | u64::from(taken)) & ((1u64 << self.ghr_bits) - 1);
        Some((CacheChangeKind::GhrShift, prev))
    }

    /// Trains the PHT counter at `pht_index` (the stashed fetch-time index)
    /// and, for taken branches, installs `(pc, target)` in the BTB.
    /// Returns the observable state changes: a `PhtTrain` only when the
    /// counter actually moved (a saturated counter is silent, mirroring
    /// how cache hits record nothing), a `BtbEvict` + `BtbFill` when a
    /// live entry with a different tag is displaced, a bare `BtbFill` when
    /// an empty or same-tag entry is (re)written, and nothing when the
    /// entry already matches exactly.
    pub fn train(&mut self, pht_index: u32, pc: u64, taken: bool, target: u64) -> PredEvents {
        let mut ev = PredEvents::default();
        let ctr = &mut self.pht[pht_index as usize];
        let next = if taken {
            (*ctr + 1).min(3)
        } else {
            ctr.saturating_sub(1)
        };
        if next != *ctr {
            *ctr = next;
            ev.push(CacheChangeKind::PhtTrain, u64::from(pht_index));
        }
        if taken {
            let idx = self.btb_index(pc);
            let slot = &mut self.btb[idx as usize];
            match *slot {
                Some((tag, tgt)) if tag == pc && tgt == target => {}
                Some((tag, _)) => {
                    if tag != pc {
                        ev.push(CacheChangeKind::BtbEvict, u64::from(idx));
                    }
                    *slot = Some((pc, target));
                    ev.push(CacheChangeKind::BtbFill, u64::from(idx));
                }
                None => {
                    *slot = Some((pc, target));
                    ev.push(CacheChangeKind::BtbFill, u64::from(idx));
                }
            }
        }
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Predictor {
        /// The current PHT counter value at `idx`.
        fn pht_counter(&self, idx: u32) -> u8 {
            self.pht[idx as usize]
        }

        /// The BTB entry at `idx` as `(tag pc, target)`, if live.
        fn btb_entry(&self, idx: u32) -> Option<(u64, u64)> {
            self.btb[idx as usize]
        }
    }

    #[test]
    fn cold_predictor_says_not_taken_no_target() {
        let p = Predictor::new(16, 8, 0);
        let pred = p.predict(0x40);
        assert!(!pred.taken);
        assert_eq!(pred.target, None);
        // Not-taken with no target matches a not-taken branch.
        assert!(!p.mispredicts(0x40, false, 0));
        // ...but mispredicts a taken one.
        assert!(p.mispredicts(0x40, true, 0x80));
    }

    #[test]
    fn counters_saturate_and_cross_the_taken_threshold() {
        let mut p = Predictor::new(16, 8, 0);
        let idx = p.pht_index(0x40);
        assert_eq!(p.pht_counter(idx), 1);
        let ev = p.train(idx, 0x40, true, 0x80);
        assert_eq!(p.pht_counter(idx), 2);
        assert!(p.predict(0x40).taken);
        // counter moved + BTB filled
        let kinds: Vec<_> = ev.iter().map(|(k, _)| k).collect();
        assert_eq!(
            kinds,
            vec![CacheChangeKind::PhtTrain, CacheChangeKind::BtbFill]
        );
        p.train(idx, 0x40, true, 0x80);
        assert_eq!(p.pht_counter(idx), 3);
        // Saturated + identical BTB entry: training is silent.
        let ev = p.train(idx, 0x40, true, 0x80);
        assert_eq!(ev.iter().count(), 0);
        assert_eq!(p.pht_counter(idx), 3);
    }

    #[test]
    fn not_taken_training_decays_to_zero_and_saturates() {
        let mut p = Predictor::new(16, 8, 0);
        let idx = p.pht_index(0x40);
        let ev = p.train(idx, 0x40, false, 0);
        assert_eq!(
            ev.iter().next(),
            Some((CacheChangeKind::PhtTrain, u64::from(idx)))
        );
        assert_eq!(p.pht_counter(idx), 0);
        let ev = p.train(idx, 0x40, false, 0);
        assert_eq!(ev.iter().count(), 0);
    }

    #[test]
    fn btb_aliasing_evicts_then_fills() {
        let mut p = Predictor::new(16, 8, 0);
        let v = 0x40u64;
        let a = v + 8; // same BTB index (8 entries), different tag
        assert_eq!(p.btb_index(v), p.btb_index(a));
        p.train(p.pht_index(v), v, true, 0x100);
        assert_eq!(p.btb_entry(p.btb_index(v)), Some((v, 0x100)));
        let ev = p.train(p.pht_index(a), a, true, 0x200);
        let kinds: Vec<_> = ev.iter().map(|(k, _)| k).collect();
        assert!(kinds.contains(&CacheChangeKind::BtbEvict));
        assert!(kinds.contains(&CacheChangeKind::BtbFill));
        assert_eq!(p.btb_entry(p.btb_index(v)), Some((a, 0x200)));
        // The victim's prediction now tag-misses: taken direction with no
        // target is a mispredict — the v2 injection primitive.
        assert!(p.mispredicts(v, true, 0x100));
    }

    #[test]
    fn retargeting_same_tag_fills_without_evicting() {
        let mut p = Predictor::new(16, 8, 0);
        p.train(p.pht_index(0x40), 0x40, true, 0x100);
        let ev = p.train(p.pht_index(0x40), 0x40, true, 0x180);
        let kinds: Vec<_> = ev.iter().map(|(k, _)| k).collect();
        assert_eq!(
            kinds
                .iter()
                .filter(|k| **k == CacheChangeKind::BtbEvict)
                .count(),
            0
        );
        assert!(kinds.contains(&CacheChangeKind::BtbFill));
        assert_eq!(p.btb_entry(p.btb_index(0x40)), Some((0x40, 0x180)));
    }

    #[test]
    fn ghr_folds_into_the_pht_index() {
        let mut p = Predictor::new(16, 8, 4);
        let i0 = p.pht_index(0x43);
        let ev = p.shift_ghr(true);
        assert_eq!(ev, Some((CacheChangeKind::GhrShift, 0)));
        let i1 = p.pht_index(0x43);
        assert_ne!(i0, i1, "history must perturb the gshare index");
        // With ghr_bits=0 the shift is a no-op and reports nothing.
        let mut q = Predictor::new(16, 8, 0);
        let j0 = q.pht_index(0x43);
        assert_eq!(q.shift_ghr(true), None);
        assert_eq!(q.pht_index(0x43), j0);
    }

    #[test]
    fn ghr_shift_reports_preshift_history() {
        let mut p = Predictor::new(16, 8, 4);
        p.shift_ghr(true);
        p.shift_ghr(false);
        let ev = p.shift_ghr(true).unwrap();
        assert_eq!(ev, (CacheChangeKind::GhrShift, 0b10));
    }

    #[test]
    fn correct_prediction_after_training_is_not_a_mispredict() {
        let mut p = Predictor::new(64, 16, 0);
        for _ in 0..2 {
            let i = p.pht_index(0x40);
            p.train(i, 0x40, true, 0x80);
        }
        assert!(!p.mispredicts(0x40, true, 0x80));
        // Wrong target with the right direction still mispredicts.
        assert!(p.mispredicts(0x40, true, 0xC0));
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn non_power_of_two_tables_rejected() {
        let _ = Predictor::new(12, 8, 0);
    }
}
