//! The in-flight instruction record, split into a hot, cache-line-sized
//! scheduling record ([`HotInst`]) and a cold sidecar ([`ColdInst`]).
//!
//! The split exists for the simulator's own performance: wakeup/select,
//! the LSU searches and commit's head check together read ROB entries
//! millions of times per simulated second, but only ever touch a small
//! core of fields — sequence number, phase, renamed registers, the packed
//! status flags, the memory address and the gating taint root. Keeping
//! exactly that core in a ≤64-byte record (pinned by a compile-time
//! assertion and `hot_record_stays_within_a_cache_line`) doubles the
//! number of ROB entries per cache line compared to the former single
//! ~200-byte `Inst` struct; everything the hot loops do not need — the
//! decoded micro-op, squash-walk rename state, wrong-path bookkeeping,
//! diagnostics — lives in the cold sidecar slab of the
//! [`crate::rob::RobArena`], touched only at dispatch, squash and rare
//! slow paths.
//!
//! Packing conventions:
//! * physical registers are `u16` with [`NO_PREG`] meaning "none",
//! * taint roots and forwarding sources are raw sequence values with `0`
//!   meaning "none" (sequence numbers are assigned from 1, and [`Seq::ZERO`]
//!   is older than any renamed instruction, so 0 is never a live root),
//! * the eleven per-stage booleans are bits of one `u16` flags word.

use sb_isa::{MemAccess, MicroOp, OpClass, PhysReg, Seq};

/// Scheduling phase of an in-flight micro-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Phase {
    /// In the issue queue, waiting for operands (and scheme gates).
    Waiting,
    /// Issued to a functional unit; completion scheduled.
    Executing,
    /// Result produced (broadcast may still be pending under NDA).
    Completed,
}

/// Sentinel for "no physical register" in the packed hot record.
const NO_PREG: u16 = u16::MAX;

/// Sentinel for "no sequence number" (no taint root / no forwarding
/// source) in the packed hot record. Valid sequence numbers start at 1.
const NO_SEQ: u64 = 0;

macro_rules! flag_accessors {
    ($($(#[$doc:meta])* $get:ident / $set:ident => $bit:ident;)*) => {
        $(
            $(#[$doc])*
            #[must_use]
            pub(crate) fn $get(&self) -> bool {
                self.flags & Self::$bit != 0
            }

            #[doc = concat!("Sets [`HotInst::", stringify!($get), "`].")]
            pub(crate) fn $set(&mut self, v: bool) {
                if v {
                    self.flags |= Self::$bit;
                } else {
                    self.flags &= !Self::$bit;
                }
            }
        )*
    };
}

/// The hot scheduling record: everything the per-cycle wakeup/select,
/// LSU-search and commit loops read, packed into at most 64 bytes.
///
/// One `HotInst` lives per ROB arena slot; the matching [`ColdInst`] shares
/// the slot index. Construction happens once at dispatch via
/// [`HotInst::new`]; afterwards the record is mutated in place — the arena
/// never moves it.
#[derive(Clone, Copy, Debug)]
#[repr(C)]
pub struct HotInst {
    /// Global sequence number (rename order).
    pub seq: Seq,
    /// Cycle the op entered the ROB (earliest issue is
    /// `dispatch_cycle + dispatch_latency`).
    pub(crate) dispatch_cycle: u64,
    /// Youngest root of taint gating this op, packed (`NO_SEQ` = none).
    yrot: u64,
    /// Load: forwarding store sequence, packed (`NO_SEQ` = none).
    fwd_src: u64,
    /// Memory address (loads/stores; meaningful iff `HAS_MEM`).
    mem_addr: u64,
    /// Memory-queue mark, recorded at dispatch. For a load: the SQ tail
    /// position — stores at earlier positions are exactly the stores older
    /// than this load. For a store: the LQ tail position — loads at this
    /// position onward are exactly the loads younger than this store. The
    /// LSU search and the forwarding-error check slice the queue rings
    /// directly from this mark instead of binary-searching.
    pub(crate) queue_mark: u64,
    /// Renamed source physical registers (`NO_PREG` = none).
    src_pregs: [u16; 2],
    /// Destination physical register (`NO_PREG` = none).
    dst_preg: u16,
    /// Packed per-stage status bits (see the `flag_accessors!` block).
    flags: u16,
    /// Functional class (copied out of the micro-op).
    pub(crate) class: OpClass,
    /// Current phase.
    pub(crate) phase: Phase,
    /// Memory access size in bytes (meaningful iff `HAS_MEM`).
    mem_bytes: u8,
}

/// The hot record must fit one cache line: the wakeup/select loops depend
/// on it (see the module docs). `arena_props.rs` pins this again as a
/// runtime test with a friendlier failure message.
const _: () = assert!(std::mem::size_of::<HotInst>() <= 64);

impl HotInst {
    const WRONG_PATH: u16 = 1 << 0;
    const BR_TAG: u16 = 1 << 1;
    const ADDR_LAUNCHED: u16 = 1 << 2;
    const ADDR_DONE: u16 = 1 << 3;
    const DATA_LAUNCHED: u16 = 1 << 4;
    const DATA_DONE: u16 = 1 << 5;
    const EXECUTED: u16 = 1 << 6;
    const TAINT_MASKED: u16 = 1 << 7;
    const HAS_MEM: u16 = 1 << 8;
    const MISPREDICTED: u16 = 1 << 9;

    /// A freshly dispatched instruction in the waiting phase. Renamed
    /// registers are filled in by the dispatch stage afterwards.
    #[must_use]
    pub fn new(seq: Seq, op: MicroOp, wrong_path: bool) -> Self {
        let mut flags = 0u16;
        if wrong_path {
            flags |= Self::WRONG_PATH;
        }
        if op.is_mispredicted() {
            flags |= Self::MISPREDICTED;
        }
        let (mem_addr, mem_bytes) = match op.mem() {
            Some(m) => {
                flags |= Self::HAS_MEM;
                (m.addr, m.bytes)
            }
            None => (0, 0),
        };
        HotInst {
            seq,
            dispatch_cycle: 0,
            yrot: NO_SEQ,
            fwd_src: NO_SEQ,
            mem_addr,
            queue_mark: 0,
            src_pregs: [NO_PREG; 2],
            dst_preg: NO_PREG,
            flags,
            class: op.class(),
            phase: Phase::Waiting,
            mem_bytes,
        }
    }

    // --- rename ---

    /// Renamed source physical register `i`, if any.
    #[must_use]
    pub(crate) fn src_preg(&self, i: usize) -> Option<PhysReg> {
        (self.src_pregs[i] != NO_PREG).then(|| PhysReg::new(self.src_pregs[i]))
    }

    /// Both renamed source physical registers.
    #[must_use]
    pub(crate) fn src_pregs(&self) -> [Option<PhysReg>; 2] {
        [self.src_preg(0), self.src_preg(1)]
    }

    /// Records the renamed source register `i`.
    pub(crate) fn set_src_preg(&mut self, i: usize, p: PhysReg) {
        debug_assert!(p.index() < NO_PREG as usize);
        self.src_pregs[i] = p.index() as u16;
    }

    /// Destination physical register, if any.
    #[must_use]
    pub(crate) fn dst_preg(&self) -> Option<PhysReg> {
        (self.dst_preg != NO_PREG).then(|| PhysReg::new(self.dst_preg))
    }

    /// Records the renamed destination register.
    pub(crate) fn set_dst_preg(&mut self, p: PhysReg) {
        debug_assert!(p.index() < NO_PREG as usize);
        self.dst_preg = p.index() as u16;
    }

    // --- scheme state ---

    /// Youngest root of taint gating this op (STT-Rename: from rename;
    /// STT-Issue: discovered at first issue attempt).
    #[must_use]
    pub(crate) fn yrot(&self) -> Option<Seq> {
        (self.yrot != NO_SEQ).then(|| Seq::new(self.yrot))
    }

    /// Records the gating taint root.
    pub(crate) fn set_yrot(&mut self, root: Seq) {
        debug_assert!(root.value() != NO_SEQ, "Seq 0 is the packed None");
        self.yrot = root.value();
    }

    // --- loads ---

    /// Load: the store this load forwarded from (else it read the cache).
    #[must_use]
    pub(crate) fn fwd_src(&self) -> Option<Seq> {
        (self.fwd_src != NO_SEQ).then(|| Seq::new(self.fwd_src))
    }

    /// Records the forwarding store.
    pub(crate) fn set_fwd_src(&mut self, store: Seq) {
        debug_assert!(store.value() != NO_SEQ, "Seq 0 is the packed None");
        self.fwd_src = store.value();
    }

    // --- memory ---

    /// The memory access carried by a load or store, if any.
    #[must_use]
    pub(crate) fn mem(&self) -> Option<MemAccess> {
        (self.flags & Self::HAS_MEM != 0).then_some(MemAccess {
            addr: self.mem_addr,
            bytes: self.mem_bytes,
        })
    }

    // --- class / phase shorthands ---

    /// Whether this op is a load.
    #[must_use]
    pub(crate) fn is_load(&self) -> bool {
        self.class == OpClass::Load
    }

    /// Whether this op is a store.
    #[must_use]
    pub(crate) fn is_store(&self) -> bool {
        self.class == OpClass::Store
    }

    /// Whether this op is a branch.
    #[must_use]
    pub(crate) fn is_branch(&self) -> bool {
        self.class == OpClass::Branch
    }

    /// Whether this op has fully produced its result.
    #[must_use]
    pub(crate) fn is_completed(&self) -> bool {
        self.phase == Phase::Completed
    }

    /// Whether this op was fetched down a mispredicted path.
    #[must_use]
    pub(crate) fn wrong_path(&self) -> bool {
        self.flags & Self::WRONG_PATH != 0
    }

    flag_accessors! {
        /// Branch tag consumed (branches only).
        br_tag / set_br_tag => BR_TAG;
        /// Store: address part selected for issue (in flight to the AGU).
        addr_launched / set_addr_launched => ADDR_LAUNCHED;
        /// Store: address part finished (address known in the SQ).
        addr_done / set_addr_done => ADDR_DONE;
        /// Store: data part selected for issue.
        data_launched / set_data_launched => DATA_LAUNCHED;
        /// Store: data part finished (data present in the SQ).
        data_done / set_data_done => DATA_DONE;
        /// Load: has performed its memory access.
        executed / set_executed => EXECUTED;
        /// Masked out of selection until an untaint (STT) or data (NDA)
        /// broadcast unmasks it.
        taint_masked / set_taint_masked => TAINT_MASKED;
        /// Branch: the front end predicted this branch incorrectly
        /// (copied from the micro-op's pre-resolved outcome).
        is_mispredicted / set_mispredicted => MISPREDICTED;
    }
}

/// Sentinel for "no trace index" / "no shadow token" in the cold sidecar.
const NO_U64: u64 = u64::MAX;

/// The cold sidecar: per-instruction state the per-cycle hot loops never
/// read. Stored slot-parallel to [`HotInst`] in the ROB arena; touched at
/// dispatch (construction, STT-Rename group taint), commit and squash
/// (rename walk-back), the memory-dependence predictor lookup, and
/// diagnostics. Packed with the same sentinel conventions as the hot
/// record — dispatch writes (and squash copies) one of these per op, so
/// its size is paid on the pipeline's widest path.
#[derive(Clone, Copy, Debug)]
pub struct ColdInst {
    /// The decoded micro-op.
    pub(crate) op: MicroOp,
    /// Trace index (`NO_U64` = injected wrong-path op).
    trace_idx: u64,
    /// STT-Rename: previous taint of the destination architectural
    /// register, packed (`NO_SEQ` = none).
    prev_taint: u64,
    /// Split-store address taint, packed (STT-Rename ablation, §9.2).
    addr_yrot: u64,
    /// Cast token of the speculation shadow this op casts, `NO_U64` = none.
    shadow_token: u64,
    /// Previous mapping of the destination architectural register
    /// (`NO_PREG` = none).
    prev_preg: u16,
    /// Modelled predictor: the fetch-time gshare PHT index of this branch
    /// (`u32::MAX` = none / predictor off). Stashed at dispatch so
    /// training at resolution uses the fetch-time history even after
    /// younger branches shifted the GHR.
    pht_index: u32,
}

impl ColdInst {
    /// Sidecar state for a freshly dispatched instruction.
    #[must_use]
    pub fn new(op: MicroOp, trace_idx: Option<usize>) -> Self {
        ColdInst {
            op,
            trace_idx: trace_idx.map_or(NO_U64, |t| t as u64),
            prev_taint: NO_SEQ,
            addr_yrot: NO_SEQ,
            shadow_token: NO_U64,
            prev_preg: NO_PREG,
            pht_index: u32::MAX,
        }
    }

    /// The stashed fetch-time PHT index, if the modelled predictor
    /// indexed this branch at dispatch.
    #[must_use]
    pub(crate) fn pht_index(&self) -> Option<u32> {
        (self.pht_index != u32::MAX).then_some(self.pht_index)
    }

    /// Stashes the fetch-time PHT index.
    pub(crate) fn set_pht_index(&mut self, idx: u32) {
        debug_assert!(idx != u32::MAX);
        self.pht_index = idx;
    }

    /// Index into the trace, `None` for injected wrong-path ops.
    #[must_use]
    pub(crate) fn trace_idx(&self) -> Option<usize> {
        (self.trace_idx != NO_U64).then_some(self.trace_idx as usize)
    }

    /// Previous mapping of the destination architectural register (freed
    /// at commit, restored on squash).
    #[must_use]
    pub(crate) fn prev_preg(&self) -> Option<PhysReg> {
        (self.prev_preg != NO_PREG).then(|| PhysReg::new(self.prev_preg))
    }

    /// Records the previous destination mapping.
    pub(crate) fn set_prev_preg(&mut self, p: PhysReg) {
        debug_assert!(p.index() < NO_PREG as usize);
        self.prev_preg = p.index() as u16;
    }

    /// STT-Rename: taint the destination architectural register held
    /// before this op (restored on squash walk-back).
    #[must_use]
    pub(crate) fn prev_taint(&self) -> Option<Seq> {
        (self.prev_taint != NO_SEQ).then(|| Seq::new(self.prev_taint))
    }

    /// Records the previous destination taint.
    pub(crate) fn set_prev_taint(&mut self, t: Option<Seq>) {
        self.prev_taint = t.map_or(NO_SEQ, |s| {
            debug_assert!(s.value() != NO_SEQ, "Seq 0 is the packed None");
            s.value()
        });
    }

    /// Split-store address taint (STT-Rename ablation, §9.2).
    #[must_use]
    pub(crate) fn addr_yrot(&self) -> Option<Seq> {
        (self.addr_yrot != NO_SEQ).then(|| Seq::new(self.addr_yrot))
    }

    /// Records the split-store address taint.
    pub(crate) fn set_addr_yrot(&mut self, addr: Option<Seq>) {
        self.addr_yrot = addr.map_or(NO_SEQ, Seq::value);
    }

    /// Cast token of the speculation shadow this op casts (branches,
    /// stores, and loads under the Futuristic threat model): resolves the
    /// shadow in O(1) instead of by sequence-number search.
    #[must_use]
    pub(crate) fn shadow_token(&self) -> Option<u64> {
        (self.shadow_token != NO_U64).then_some(self.shadow_token)
    }

    /// Records the shadow cast token.
    pub(crate) fn set_shadow_token(&mut self, token: u64) {
        debug_assert!(token != NO_U64);
        self.shadow_token = token;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_isa::{ArchReg, MicroOp};

    impl HotInst {
        /// Whether this (store) op has finished both parts. Non-stores use
        /// `phase` alone.
        fn store_fully_issued(&self) -> bool {
            let both = Self::ADDR_DONE | Self::DATA_DONE;
            self.flags & both == both
        }
    }

    #[test]
    fn new_inst_is_waiting_and_clean() {
        let op = MicroOp::alu(ArchReg::int(1), None, None);
        let h = HotInst::new(Seq::new(1), op, false);
        let c = ColdInst::new(op, Some(0));
        assert_eq!(h.phase, Phase::Waiting);
        assert!(!h.is_completed());
        assert!(h.yrot().is_none());
        assert!(!h.taint_masked());
        assert!(!h.store_fully_issued());
        assert!(h.mem().is_none());
        assert_eq!(h.src_pregs(), [None, None]);
        assert!(h.dst_preg().is_none());
        assert_eq!(c.trace_idx(), Some(0));
        assert!(c.prev_preg().is_none());
    }

    #[test]
    fn store_fully_issued_requires_both_parts() {
        let op = MicroOp::store(ArchReg::int(1), ArchReg::int(2), 0x10, 8);
        let mut h = HotInst::new(Seq::new(1), op, false);
        h.set_addr_done(true);
        assert!(!h.store_fully_issued());
        h.set_data_done(true);
        assert!(h.store_fully_issued());
    }

    #[test]
    fn mem_access_round_trips_through_the_packed_fields() {
        let op = MicroOp::load(ArchReg::int(1), ArchReg::int(2), 0xdead_beef, 4);
        let h = HotInst::new(Seq::new(3), op, false);
        assert_eq!(h.mem(), op.mem());
    }

    #[test]
    fn register_and_root_packing_round_trips() {
        let op = MicroOp::alu(ArchReg::int(1), Some(ArchReg::int(2)), None);
        let mut h = HotInst::new(Seq::new(9), op, false);
        h.set_src_preg(0, PhysReg::new(77));
        h.set_dst_preg(PhysReg::new(123));
        h.set_yrot(Seq::new(41));
        h.set_fwd_src(Seq::new(40));
        assert_eq!(h.src_pregs(), [Some(PhysReg::new(77)), None]);
        assert_eq!(h.dst_preg(), Some(PhysReg::new(123)));
        assert_eq!(h.yrot(), Some(Seq::new(41)));
        assert_eq!(h.fwd_src(), Some(Seq::new(40)));
    }

    #[test]
    fn mispredict_flag_copies_the_ctrl_outcome() {
        let br = MicroOp::branch(Some(ArchReg::int(1)), None, true, true);
        assert!(HotInst::new(Seq::new(1), br, false).is_mispredicted());
        let ok = MicroOp::branch(Some(ArchReg::int(1)), None, false, false);
        assert!(!HotInst::new(Seq::new(2), ok, false).is_mispredicted());
    }

    #[test]
    fn flags_are_independent() {
        let op = MicroOp::store(ArchReg::int(1), ArchReg::int(2), 0x10, 8);
        let mut h = HotInst::new(Seq::new(1), op, true);
        h.set_addr_launched(true);
        h.set_taint_masked(true);
        assert!(h.wrong_path() && h.addr_launched() && h.taint_masked());
        assert!(!h.data_launched() && !h.executed());
        h.set_taint_masked(false);
        assert!(!h.taint_masked());
        assert!(h.wrong_path() && h.addr_launched());
    }

    #[test]
    fn hot_record_stays_within_a_cache_line() {
        assert!(
            std::mem::size_of::<HotInst>() <= 64,
            "HotInst is {} bytes; the hot loops budget one cache line",
            std::mem::size_of::<HotInst>()
        );
    }

    #[test]
    fn micro_op_fits_32_bytes() {
        assert!(
            std::mem::size_of::<MicroOp>() <= 32,
            "MicroOp is {} bytes; a decoded trace and every ColdInst hold one \
             per instruction, budgeted at half a cache line",
            std::mem::size_of::<MicroOp>()
        );
    }
}
