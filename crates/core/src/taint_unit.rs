//! STT-Issue: the taint unit that delays YRoT computation to the issue
//! stage (§4.3) — the paper's novel microarchitecture.
//!
//! Because dependent instructions cannot issue in the same cycle, each op's
//! YRoT computation sees only committed taint state: there is no same-cycle
//! dependency chain, so the comparator tree depth is logarithmic in operand
//! count instead of linear in rename width (the scaling win of §4.4).
//!
//! Taints are indexed by *physical* register, so no checkpoints are needed:
//! a physical register freed by a squash must be re-allocated — and its
//! taint entry overwritten — before it can ever be read again (§4.3's
//! liveness argument). We additionally clear entries on allocation so that
//! the invariant is explicit rather than implicit.

use sb_isa::{PhysReg, Seq};

/// The issue-stage taint unit: YRoT state for every physical register.
///
/// # Example
///
/// ```
/// use sb_core::IssueTaintUnit;
/// use sb_isa::{PhysReg, Seq};
///
/// let mut u = IssueTaintUnit::new(8);
/// let (p1, p2) = (PhysReg::new(1), PhysReg::new(2));
/// u.taint(p1, Seq::new(10)); // speculative load wrote p1
/// let yrot = u.compute_yrot([Some(p1), Some(p2)], |_| true);
/// assert_eq!(yrot, Some(Seq::new(10)));
/// ```
#[derive(Clone, Debug)]
pub struct IssueTaintUnit {
    taints: Vec<Option<Seq>>,
}

impl IssueTaintUnit {
    /// A taint unit covering `num_phys_regs` physical registers, all clean.
    ///
    /// # Panics
    ///
    /// Panics if `num_phys_regs` is zero.
    #[must_use]
    pub fn new(num_phys_regs: usize) -> Self {
        assert!(num_phys_regs > 0, "need at least one physical register");
        IssueTaintUnit {
            taints: vec![None; num_phys_regs],
        }
    }

    /// Computes the YRoT of an instruction about to issue: the youngest
    /// live taint root among its source physical registers.
    ///
    /// `live` is the §3.1 untaint rule (root still speculative); dead roots
    /// read as clean.
    pub fn compute_yrot(
        &mut self,
        srcs: [Option<PhysReg>; 2],
        live: impl Fn(Seq) -> bool,
    ) -> Option<Seq> {
        let mut yrot: Option<Seq> = None;
        for src in srcs.into_iter().flatten() {
            if let Some(root) = self.taints[src.index()].filter(|&r| live(r)) {
                yrot = Some(yrot.map_or(root, |y: Seq| y.max(root)));
            }
        }
        yrot
    }

    /// Marks `dst` tainted with root `root` (step 3 of §4.3: on issue, the
    /// destination entry is written with the computed YRoT, or with the
    /// load's own sequence number for a speculative load).
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range.
    pub fn taint(&mut self, dst: PhysReg, root: Seq) {
        self.taints[dst.index()] = Some(root);
    }

    /// Clears `dst`'s taint (clean producer issuing, or physical register
    /// re-allocation).
    pub fn clean(&mut self, dst: PhysReg) {
        self.taints[dst.index()] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl IssueTaintUnit {
        /// Current taint of `p` (unfiltered; callers apply liveness).
        fn taint_of(&self, p: PhysReg) -> Option<Seq> {
            self.taints[p.index()]
        }

        /// Number of tainted entries (live or stale).
        fn tainted_count(&self) -> usize {
            self.taints.iter().filter(|t| t.is_some()).count()
        }

        /// Clears all taints (pipeline drain).
        fn clear(&mut self) {
            self.taints.fill(None);
        }
    }

    fn p(n: u16) -> PhysReg {
        PhysReg::new(n)
    }

    fn s(n: u64) -> Seq {
        Seq::new(n)
    }

    #[test]
    fn clean_sources_yield_no_yrot() {
        let mut u = IssueTaintUnit::new(4);
        assert_eq!(u.compute_yrot([Some(p(0)), Some(p(1))], |_| true), None);
        assert_eq!(u.compute_yrot([None, None], |_| true), None);
    }

    #[test]
    fn youngest_root_is_selected() {
        let mut u = IssueTaintUnit::new(4);
        u.taint(p(0), s(5));
        u.taint(p(1), s(9));
        assert_eq!(
            u.compute_yrot([Some(p(0)), Some(p(1))], |_| true),
            Some(s(9))
        );
    }

    #[test]
    fn dead_roots_read_clean() {
        let mut u = IssueTaintUnit::new(4);
        u.taint(p(0), s(5));
        assert_eq!(
            u.compute_yrot([Some(p(0)), None], |root| root > s(5)),
            None,
            "root 5 no longer speculative"
        );
    }

    #[test]
    fn reallocation_overwrites_stale_taint() {
        let mut u = IssueTaintUnit::new(4);
        u.taint(p(2), s(7));
        // Squash frees p2; re-allocation cleans the entry before any read.
        u.clean(p(2));
        assert_eq!(u.taint_of(p(2)), None);
        assert_eq!(u.compute_yrot([Some(p(2)), None], |_| true), None);
    }

    #[test]
    fn tainted_count_tracks_state() {
        let mut u = IssueTaintUnit::new(8);
        assert_eq!(u.tainted_count(), 0);
        u.taint(p(1), s(1));
        u.taint(p(2), s(2));
        assert_eq!(u.tainted_count(), 2);
        u.clear();
        assert_eq!(u.tainted_count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_capacity_rejected() {
        let _ = IssueTaintUnit::new(0);
    }
}
