//! STT-Rename: taint computation in the rename stage (§4.1, §4.2).
//!
//! The paper's key finding is that rename-time taint tracking is
//! *fundamentally different* from register renaming: a renamed destination
//! comes from an independent source (the free list), but a destination's
//! YRoT depends on the YRoTs of the instructions it reads — including
//! instructions renamed *in the same cycle*. The YRoT of each op in a rename
//! group must therefore be computed serially, oldest first, and the whole
//! chain must finish within the cycle so the RAT taint state is up to date
//! for the next group (Figure 3). [`RenameTaintTracker::rename_group`]
//! implements that chain and reports each op's serial depth, which the
//! timing model (`sb-timing`) turns into the critical-path cost that caps
//! STT-Rename's frequency on wide cores (§8.3).
//!
//! Because branches may resolve out of order once they are transmitters
//! (§4.2), the RAT taint state must be checkpointed alongside the RAT
//! itself (the source of STT-Rename's flip-flop overhead in Table 4). The
//! simulator restores that state exactly by squash walk-back instead: each
//! outcome records the destination's previous taint
//! ([`RenameTaintOutcome::prev_dst_taint`]), and
//! [`RenameTaintTracker::set_taint`] puts it back youngest-first. Restored
//! entries may be stale — their root load may have become
//! non-speculative — which readers handle by filtering through the
//! liveness predicate, as [`RenameTaintTracker::rename_group`] does.

use sb_isa::{ArchReg, Seq, NUM_ARCH_REGS};

/// One op of a same-cycle rename group, as seen by the taint chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RenameGroupOp {
    /// Sequence number assigned at rename.
    pub seq: Seq,
    /// Source architectural registers (stores: `[addr, data]`).
    pub srcs: [Option<ArchReg>; 2],
    /// Destination architectural register, if any.
    pub dst: Option<ArchReg>,
    /// Whether the op is a load (loads root new taints).
    pub is_load: bool,
    /// Whether the op is under a speculation shadow at rename time.
    pub speculative: bool,
}

/// Per-op result of the rename-group taint chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RenameTaintOutcome {
    /// The op's combined YRoT over all source operands (what gates a
    /// transmitter, and what a unified store micro-op uses — the §9.2
    /// partial-issue pathology).
    pub yrot: Option<Seq>,
    /// YRoT over the first (address) operand only, for the split-store
    /// ablation (a store's data operand transmits nothing, so the
    /// ablation needs no data-side taint).
    pub addr_yrot: Option<Seq>,
    /// Serial position of this op's YRoT computation within the same-cycle
    /// dependency chain (1 = no in-group dependency). The maximum over a
    /// group is the chain length that must fit in one cycle.
    pub chain_depth: u32,
    /// Taint the destination register held *before* this op overwrote it
    /// (recorded so a squash walk-back can restore RAT taint state exactly,
    /// the simulator-side equivalent of restoring a YRoT checkpoint).
    pub prev_dst_taint: Option<Seq>,
}

/// The RAT taint extension: per-architectural-register YRoT state plus the
/// same-cycle chain computation.
///
/// # Example
///
/// ```
/// use sb_core::{RenameGroupOp, RenameTaintTracker};
/// use sb_isa::{ArchReg, Seq};
///
/// let mut t = RenameTaintTracker::new();
/// // ld x1, [x2]  (speculative)  ;  add x3, x1, x4   -- same cycle
/// let group = [
///     RenameGroupOp { seq: Seq::new(1), srcs: [Some(ArchReg::int(2)), None],
///                     dst: Some(ArchReg::int(1)), is_load: true, speculative: true },
///     RenameGroupOp { seq: Seq::new(2), srcs: [Some(ArchReg::int(1)), Some(ArchReg::int(4))],
///                     dst: Some(ArchReg::int(3)), is_load: false, speculative: true },
/// ];
/// let mut out = Vec::new();
/// t.rename_group(&group, |_| true, &mut out);
/// assert_eq!(out[1].yrot, Some(Seq::new(1)), "add inherits the load's taint same-cycle");
/// assert_eq!(out[1].chain_depth, 2, "and pays a serial chain step for it");
/// ```
#[derive(Clone, Debug)]
pub struct RenameTaintTracker {
    taints: Vec<Option<Seq>>,
    /// Longest same-cycle chain observed (timing-model input).
    max_chain_depth: u32,
}

impl Default for RenameTaintTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl RenameTaintTracker {
    /// An all-untainted tracker.
    #[must_use]
    pub fn new() -> Self {
        RenameTaintTracker {
            taints: vec![None; NUM_ARCH_REGS],
            max_chain_depth: 0,
        }
    }

    /// Current taint of architectural register `r`, filtered through the
    /// liveness predicate by callers as needed.
    #[must_use]
    pub fn taint_of(&self, r: ArchReg) -> Option<Seq> {
        self.taints[r.index()]
    }

    /// Computes YRoTs for a same-cycle rename group, updating the RAT taint
    /// state, and replaces the contents of `out` with each op's outcome
    /// (including its serial chain depth), in group order. The caller owns
    /// `out` so a core can reuse one buffer every cycle.
    ///
    /// `live` reports whether a taint root is still speculative; dead taints
    /// read as untainted (the continuous untaint rule of §3.1).
    ///
    /// Ops must be given oldest-first; the serial walk *is* the dependency
    /// chain of Figure 3.
    pub fn rename_group(
        &mut self,
        ops: &[RenameGroupOp],
        live: impl Fn(Seq) -> bool,
        out: &mut Vec<RenameTaintOutcome>,
    ) {
        // Depth of the taint value currently held by each arch reg *within
        // this group* (0 = produced before this cycle).
        let mut depth = [0u32; NUM_ARCH_REGS];
        out.clear();
        for op in ops {
            let mut src_yrot = [None, None];
            let mut src_depth = [0u32, 0u32];
            for (i, src) in op.srcs.iter().enumerate() {
                if let Some(r) = src {
                    let t = self.taints[r.index()].filter(|&root| live(root));
                    src_yrot[i] = t;
                    if t.is_some() {
                        src_depth[i] = depth[r.index()];
                    }
                }
            }
            let yrot = match (src_yrot[0], src_yrot[1]) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
            let chain_depth = 1 + src_depth[0].max(src_depth[1]);
            self.max_chain_depth = self.max_chain_depth.max(chain_depth);

            let mut prev_dst_taint = None;
            if let Some(d) = op.dst {
                let dest_taint = if op.is_load {
                    op.speculative.then_some(op.seq)
                } else {
                    yrot
                };
                prev_dst_taint = std::mem::replace(&mut self.taints[d.index()], dest_taint);
                depth[d.index()] = if dest_taint.is_some() { chain_depth } else { 0 };
            }
            out.push(RenameTaintOutcome {
                yrot,
                addr_yrot: src_yrot[0],
                chain_depth,
                prev_dst_taint,
            });
        }
    }

    /// Directly sets `r`'s taint — used by squash walk-back, which unwinds
    /// ROB entries youngest-first restoring each op's `prev_dst_taint`.
    pub fn set_taint(&mut self, r: ArchReg, taint: Option<Seq>) {
        self.taints[r.index()] = taint;
    }

    /// Longest same-cycle YRoT chain observed so far.
    #[must_use]
    pub fn max_chain_depth(&self) -> u32 {
        self.max_chain_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot of the RAT taint extension, taken when a branch is
    /// renamed: the checkpoint §4.2 describes, modelled here to pin the
    /// staleness scrub a restore must apply.
    struct RenameTaintCheckpoint {
        taints: Vec<Option<Seq>>,
    }

    impl RenameTaintCheckpoint {
        fn tainted_count(&self) -> usize {
            self.taints.iter().filter(|t| t.is_some()).count()
        }
    }

    impl RenameTaintTracker {
        /// Snapshots the taint state (taken together with the RAT checkpoint
        /// when a branch is renamed, §4.2).
        fn checkpoint(&self) -> RenameTaintCheckpoint {
            RenameTaintCheckpoint {
                taints: self.taints.clone(),
            }
        }

        /// Restores a checkpoint after a misprediction, invalidating entries
        /// whose root load is no longer speculative — the staleness scrub §4.2
        /// requires.
        fn restore(&mut self, cp: &RenameTaintCheckpoint, live: impl Fn(Seq) -> bool) {
            for (slot, saved) in self.taints.iter_mut().zip(&cp.taints) {
                *slot = saved.filter(|&root| live(root));
            }
        }

        /// Clears every taint (used when the pipeline fully drains).
        fn clear(&mut self) {
            self.taints.fill(None);
        }

        /// Number of currently tainted architectural registers.
        fn tainted_count(&self) -> usize {
            self.taints.iter().filter(|t| t.is_some()).count()
        }
    }

    fn op(
        seq: u64,
        srcs: [Option<ArchReg>; 2],
        dst: Option<ArchReg>,
        is_load: bool,
    ) -> RenameGroupOp {
        RenameGroupOp {
            seq: Seq::new(seq),
            srcs,
            dst,
            is_load,
            speculative: true,
        }
    }

    fn x(n: u8) -> ArchReg {
        ArchReg::int(n)
    }

    #[test]
    fn speculative_load_roots_taint() {
        let mut t = RenameTaintTracker::new();
        let mut out = Vec::new();
        t.rename_group(
            &[op(1, [Some(x(2)), None], Some(x(1)), true)],
            |_| true,
            &mut out,
        );
        assert_eq!(out[0].yrot, None, "address operand untainted");
        assert_eq!(t.taint_of(x(1)), Some(Seq::new(1)));
    }

    #[test]
    fn nonspeculative_load_does_not_taint() {
        let mut t = RenameTaintTracker::new();
        let mut out = Vec::new();
        let mut o = op(1, [Some(x(2)), None], Some(x(1)), true);
        o.speculative = false;
        t.rename_group(&[o], |_| true, &mut out);
        assert_eq!(t.taint_of(x(1)), None);
    }

    #[test]
    fn same_cycle_chain_propagates_and_deepens() {
        let mut t = RenameTaintTracker::new();
        let mut out = Vec::new();
        // ld x1,[x2]; add x3,x1; add x4,x3  — a full-width serial chain.
        let group = [
            op(1, [Some(x(2)), None], Some(x(1)), true),
            op(2, [Some(x(1)), None], Some(x(3)), false),
            op(3, [Some(x(3)), None], Some(x(4)), false),
        ];
        t.rename_group(&group, |_| true, &mut out);
        assert_eq!(out[1].yrot, Some(Seq::new(1)));
        assert_eq!(out[2].yrot, Some(Seq::new(1)));
        assert_eq!(out[0].chain_depth, 1);
        assert_eq!(out[1].chain_depth, 2);
        assert_eq!(out[2].chain_depth, 3);
        assert_eq!(t.max_chain_depth(), 3);
    }

    #[test]
    fn independent_ops_have_unit_depth() {
        let mut t = RenameTaintTracker::new();
        let mut out = Vec::new();
        let group = [
            op(1, [Some(x(2)), None], Some(x(1)), true),
            op(2, [Some(x(5)), None], Some(x(6)), false),
        ];
        t.rename_group(&group, |_| true, &mut out);
        assert_eq!(out[1].chain_depth, 1);
    }

    #[test]
    fn youngest_root_wins() {
        let mut t = RenameTaintTracker::new();
        let mut out = Vec::new();
        t.rename_group(
            &[
                op(1, [Some(x(9)), None], Some(x(1)), true),
                op(2, [Some(x(9)), None], Some(x(2)), true),
            ],
            |_| true,
            &mut out,
        );
        t.rename_group(
            &[op(3, [Some(x(1)), Some(x(2))], Some(x(3)), false)],
            |_| true,
            &mut out,
        );
        assert_eq!(
            out[0].yrot,
            Some(Seq::new(2)),
            "YRoT is the *youngest* root"
        );
    }

    #[test]
    fn dead_roots_read_untainted() {
        let mut t = RenameTaintTracker::new();
        let mut out = Vec::new();
        t.rename_group(
            &[op(1, [Some(x(2)), None], Some(x(1)), true)],
            |_| true,
            &mut out,
        );
        // Root #1 no longer speculative: consumer sees no taint.
        t.rename_group(
            &[op(2, [Some(x(1)), None], Some(x(3)), false)],
            |root| root > Seq::new(1),
            &mut out,
        );
        assert_eq!(out[0].yrot, None);
        assert_eq!(t.taint_of(x(3)), None);
    }

    #[test]
    fn overwrite_clears_taint() {
        let mut t = RenameTaintTracker::new();
        let mut out = Vec::new();
        t.rename_group(
            &[op(1, [Some(x(2)), None], Some(x(1)), true)],
            |_| true,
            &mut out,
        );
        t.rename_group(
            &[op(2, [Some(x(9)), None], Some(x(1)), false)],
            |_| true,
            &mut out,
        );
        assert_eq!(t.taint_of(x(1)), None, "untainted producer overwrites");
    }

    #[test]
    fn split_store_outcomes_separate_operands() {
        let mut t = RenameTaintTracker::new();
        let mut out = Vec::new();
        t.rename_group(
            &[op(1, [Some(x(2)), None], Some(x(1)), true)],
            |_| true,
            &mut out,
        );
        // store addr=x5 (clean), data=x1 (tainted)
        t.rename_group(
            &[op(2, [Some(x(5)), Some(x(1))], None, false)],
            |_| true,
            &mut out,
        );
        assert_eq!(out[0].addr_yrot, None, "address operand is clean");
        assert_eq!(out[0].yrot, Some(Seq::new(1)), "unified taint blocks both");
    }

    #[test]
    fn checkpoint_restore_scrubs_dead_taints() {
        let mut t = RenameTaintTracker::new();
        let mut out = Vec::new();
        t.rename_group(
            &[
                op(1, [Some(x(9)), None], Some(x(1)), true),
                op(2, [Some(x(9)), None], Some(x(2)), true),
            ],
            |_| true,
            &mut out,
        );
        let cp = t.checkpoint();
        assert_eq!(cp.tainted_count(), 2);
        t.rename_group(
            &[op(3, [Some(x(9)), None], Some(x(1)), true)],
            |_| true,
            &mut out,
        );
        // Restore with root #1 now dead, root #2 still live.
        t.restore(&cp, |root| root > Seq::new(1));
        assert_eq!(t.taint_of(x(1)), None, "stale entry scrubbed on restore");
        assert_eq!(t.taint_of(x(2)), Some(Seq::new(2)));
    }

    #[test]
    fn clear_untaints_everything() {
        let mut t = RenameTaintTracker::new();
        let mut out = Vec::new();
        t.rename_group(
            &[op(1, [Some(x(2)), None], Some(x(1)), true)],
            |_| true,
            &mut out,
        );
        t.clear();
        assert_eq!(t.tainted_count(), 0);
    }

    #[test]
    fn each_group_replaces_the_previous_outcomes() {
        let mut t = RenameTaintTracker::new();
        let mut out = Vec::new();
        t.rename_group(
            &[
                op(1, [Some(x(9)), None], Some(x(1)), true),
                op(2, [Some(x(1)), None], Some(x(2)), false),
            ],
            |_| true,
            &mut out,
        );
        assert_eq!(out.len(), 2);
        t.rename_group(
            &[op(3, [Some(x(2)), None], Some(x(3)), false)],
            |_| true,
            &mut out,
        );
        assert_eq!(out.len(), 1, "a reused buffer holds only the latest group");
        assert_eq!(out[0].yrot, Some(Seq::new(1)));
    }
}
