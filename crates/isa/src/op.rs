//! Micro-op representation and the transmitter taxonomy.
//!
//! Speculative Taint Tracking (§3.1 of the paper) divides instructions into
//! *transmitters* — whose execution has an observable, data-dependent effect
//! (loads via their address, stores via their address, branches via their
//! resolution) — and non-transmitters, which may freely execute on tainted
//! data because their execution is invisible.

use crate::ids::ArchReg;
use std::fmt;

/// Functional class of a micro-op.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpClass {
    /// Single-cycle integer ALU operation (add, xor, shifts, ...).
    IntAlu,
    /// Pipelined integer multiply.
    IntMul,
    /// Long-latency integer divide.
    IntDiv,
    /// Pipelined floating-point add/compare.
    FpAlu,
    /// Pipelined floating-point multiply.
    FpMul,
    /// Long-latency floating-point divide / sqrt.
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store (address + data operands; may partially issue, §9.2).
    Store,
    /// Conditional branch (a transmitter: resolution is observable, §4.2).
    Branch,
    /// No-operation; also what a tainted transmitter turns into for a cycle
    /// when STT-Issue wastes an issue slot (§4.3 step 4).
    Nop,
}

impl OpClass {
    /// Whether this class occupies a long-latency (non-pipelined divide)
    /// unit — the ops that keep an operand unresolved across a whole
    /// speculation window, which both the memory-dependence predictor
    /// and the static analyzer's latency lattice care about.
    #[must_use]
    pub fn is_long_latency(self) -> bool {
        matches!(self, OpClass::IntDiv | OpClass::FpDiv)
    }

    /// Execution latency in cycles once issued to a functional unit,
    /// excluding memory-hierarchy time for loads.
    #[must_use]
    pub fn exec_latency(self) -> u32 {
        match self {
            OpClass::IntAlu | OpClass::Nop | OpClass::Branch => 1,
            OpClass::IntMul => 3,
            OpClass::IntDiv => 12,
            OpClass::FpAlu => 3,
            OpClass::FpMul => 4,
            OpClass::FpDiv => 14,
            // Address generation; the memory hierarchy adds the rest.
            OpClass::Load | OpClass::Store => 1,
        }
    }

    /// All classes, for exhaustive sweeps in tests and benches.
    #[must_use]
    pub fn all() -> [OpClass; 10] {
        [
            OpClass::IntAlu,
            OpClass::IntMul,
            OpClass::IntDiv,
            OpClass::FpAlu,
            OpClass::FpMul,
            OpClass::FpDiv,
            OpClass::Load,
            OpClass::Store,
            OpClass::Branch,
            OpClass::Nop,
        ]
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::IntAlu => "alu",
            OpClass::IntMul => "mul",
            OpClass::IntDiv => "div",
            OpClass::FpAlu => "fadd",
            OpClass::FpMul => "fmul",
            OpClass::FpDiv => "fdiv",
            OpClass::Load => "ld",
            OpClass::Store => "st",
            OpClass::Branch => "br",
            OpClass::Nop => "nop",
        };
        f.write_str(s)
    }
}

/// A memory access carried by a load or store micro-op.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemAccess {
    /// Byte address accessed.
    pub addr: u64,
    /// Access size in bytes.
    pub bytes: u8,
}

impl MemAccess {
    /// Whether two accesses overlap (the store-to-load aliasing check used by
    /// the LSU's forwarding-error detection, §6).
    #[must_use]
    pub fn overlaps(&self, other: &MemAccess) -> bool {
        let a0 = self.addr;
        let a1 = self.addr + u64::from(self.bytes);
        let b0 = other.addr;
        let b1 = other.addr + u64::from(other.bytes);
        a0 < b1 && b0 < a1
    }
}

/// Control-flow outcome carried by a branch micro-op.
///
/// Traces are resolved ahead of time: the generator draws the misprediction
/// from the workload profile's branch-predictability, so runs are
/// deterministic and replayable after squashes. When the modelled frontend
/// predictor is enabled, `mispredicted` is the *static* ground truth the
/// predictor trains against, and `pc`/`target` identify the branch to the
/// predictor's indexed tables; kernels that predate the predictor leave
/// both zero.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CtrlFlow {
    /// Actual direction of the branch.
    pub taken: bool,
    /// Whether the front-end predicted this branch incorrectly.
    pub mispredicted: bool,
    /// Static address of the branch instruction (0 = unknown/legacy).
    pub pc: u64,
    /// Taken-path target address (0 = unknown/legacy).
    pub target: u64,
}

/// Register code meaning "no register" in [`MicroOp`]'s packed operand
/// bytes; the same code the trace codec writes to disk.
pub(crate) const REG_NONE: u8 = 0xFF;
/// [`MicroOp`] flag bits; the same bits as the trace codec's flags byte.
pub(crate) const FLAG_MEM: u8 = 1 << 0;
pub(crate) const FLAG_CTRL: u8 = 1 << 1;
pub(crate) const FLAG_TAKEN: u8 = 1 << 2;
pub(crate) const FLAG_MISPREDICTED: u8 = 1 << 3;

/// A decoded micro-op: the unit the rename stage, issue queue, and LSU
/// operate on.
///
/// The op is packed into 32 bytes (a compile-time assertion pins the
/// size), since a decoded trace holds one per dynamic instruction: the
/// three 64-bit words come first, then the class, a flags byte saying
/// which of the memory access and the branch outcome are present, the
/// three register codes (`0xFF` = none) and the access size. Absent
/// fields stay zero, so the derived `Eq` and `Hash` are field-wise
/// equality of what the accessors return.
///
/// # Example
///
/// ```
/// use sb_isa::{ArchReg, MicroOp, OpClass};
///
/// let op = MicroOp::alu(ArchReg::int(1), Some(ArchReg::int(2)), None);
/// assert_eq!(op.class(), OpClass::IntAlu);
/// assert_eq!(op.sources().count(), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MicroOp {
    /// Memory address (0 without a memory access).
    addr: u64,
    /// Branch pc (0 without branch info).
    pc: u64,
    /// Branch taken-path target (0 without branch info).
    target: u64,
    class: OpClass,
    flags: u8,
    /// `dst`, `src1`, `src2` as register indices, [`REG_NONE`] for none.
    regs: [u8; 3],
    /// Access size in bytes (0 without a memory access).
    bytes: u8,
}

/// A trace holds one `MicroOp` per dynamic instruction; keep it at half a
/// cache line. `micro_op_fits_32_bytes` (sb-uarch `inst.rs`) pins this
/// again as a runtime test with a friendlier failure message.
const _: () = assert!(std::mem::size_of::<MicroOp>() <= 32);

fn pack_reg(reg: Option<ArchReg>) -> u8 {
    #[allow(clippy::cast_possible_truncation)] // index() < NUM_ARCH_REGS = 64
    reg.map_or(REG_NONE, |r| r.index() as u8)
}

fn unpack_reg(code: u8) -> Option<ArchReg> {
    (code != REG_NONE).then(|| ArchReg::from_index(code))
}

impl MicroOp {
    /// An op of any class with every field given explicitly — the general
    /// form the trace codec decodes into. Nothing ties `mem` or `ctrl` to
    /// the class: the on-disk format may carry both on one op.
    #[must_use]
    pub fn new(
        class: OpClass,
        dst: Option<ArchReg>,
        src1: Option<ArchReg>,
        src2: Option<ArchReg>,
        mem: Option<MemAccess>,
        ctrl: Option<CtrlFlow>,
    ) -> Self {
        let mut op = MicroOp {
            addr: 0,
            pc: 0,
            target: 0,
            class,
            flags: 0,
            regs: [pack_reg(dst), pack_reg(src1), pack_reg(src2)],
            bytes: 0,
        };
        if let Some(m) = mem {
            op.flags |= FLAG_MEM;
            op.addr = m.addr;
            op.bytes = m.bytes;
        }
        if let Some(c) = ctrl {
            op.flags |= FLAG_CTRL;
            if c.taken {
                op.flags |= FLAG_TAKEN;
            }
            if c.mispredicted {
                op.flags |= FLAG_MISPREDICTED;
            }
            op.pc = c.pc;
            op.target = c.target;
        }
        op
    }

    /// An integer ALU op `dst <- f(src1, src2)`.
    #[must_use]
    pub fn alu(dst: ArchReg, src1: Option<ArchReg>, src2: Option<ArchReg>) -> Self {
        Self::new(OpClass::IntAlu, Some(dst), src1, src2, None, None)
    }

    /// A compute op of an explicit class `dst <- f(src1, src2)`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is a memory or control class; use [`MicroOp::load`],
    /// [`MicroOp::store`] or [`MicroOp::branch`] for those.
    #[must_use]
    pub fn compute(
        class: OpClass,
        dst: ArchReg,
        src1: Option<ArchReg>,
        src2: Option<ArchReg>,
    ) -> Self {
        assert!(
            !matches!(class, OpClass::Load | OpClass::Store | OpClass::Branch),
            "compute() cannot build a {class} op"
        );
        Self::new(class, Some(dst), src1, src2, None, None)
    }

    /// A load `dst <- mem[addr]`, with `addr_src` the address-forming register.
    #[must_use]
    pub fn load(dst: ArchReg, addr_src: ArchReg, addr: u64, bytes: u8) -> Self {
        Self::new(
            OpClass::Load,
            Some(dst),
            Some(addr_src),
            None,
            Some(MemAccess { addr, bytes }),
            None,
        )
    }

    /// A store `mem[addr] <- data_src`, with `addr_src` the address-forming
    /// register (`src1`) and `data_src` the data operand (`src2`).
    #[must_use]
    pub fn store(addr_src: ArchReg, data_src: ArchReg, addr: u64, bytes: u8) -> Self {
        Self::new(
            OpClass::Store,
            None,
            Some(addr_src),
            Some(data_src),
            Some(MemAccess { addr, bytes }),
            None,
        )
    }

    /// A conditional branch on up to two operands with a pre-resolved outcome.
    #[must_use]
    pub fn branch(
        src1: Option<ArchReg>,
        src2: Option<ArchReg>,
        taken: bool,
        mispredicted: bool,
    ) -> Self {
        Self::branch_at(src1, src2, taken, mispredicted, 0, 0)
    }

    /// A conditional branch that additionally carries its static address and
    /// taken-path target, for workloads that exercise the modelled frontend
    /// predictor (BTB/PHT indexing needs a pc).
    #[must_use]
    pub fn branch_at(
        src1: Option<ArchReg>,
        src2: Option<ArchReg>,
        taken: bool,
        mispredicted: bool,
        pc: u64,
        target: u64,
    ) -> Self {
        let ctrl = CtrlFlow {
            taken,
            mispredicted,
            pc,
            target,
        };
        Self::new(OpClass::Branch, None, src1, src2, None, Some(ctrl))
    }

    /// A no-operation.
    #[must_use]
    pub fn nop() -> Self {
        Self::new(OpClass::Nop, None, None, None, None, None)
    }

    /// Functional class.
    #[must_use]
    pub fn class(&self) -> OpClass {
        self.class
    }

    /// Destination architectural register, if any. Stores and branches have
    /// none.
    #[must_use]
    pub fn dst(&self) -> Option<ArchReg> {
        unpack_reg(self.regs[0])
    }

    /// First source operand. For stores this is the *address* operand.
    #[must_use]
    pub fn src1(&self) -> Option<ArchReg> {
        unpack_reg(self.regs[1])
    }

    /// Second source operand. For stores this is the *data* operand.
    #[must_use]
    pub fn src2(&self) -> Option<ArchReg> {
        unpack_reg(self.regs[2])
    }

    /// The flags byte and the `dst`, `src1`, `src2` register codes, as a
    /// trace-codec record stores them.
    pub(crate) fn codes(&self) -> (u8, [u8; 3]) {
        (self.flags, self.regs)
    }

    /// Memory access; loads and stores carry one.
    #[must_use]
    pub fn mem(&self) -> Option<MemAccess> {
        (self.flags & FLAG_MEM != 0).then_some(MemAccess {
            addr: self.addr,
            bytes: self.bytes,
        })
    }

    /// Control-flow outcome; branches carry one.
    #[must_use]
    pub fn ctrl(&self) -> Option<CtrlFlow> {
        (self.flags & FLAG_CTRL != 0).then_some(CtrlFlow {
            taken: self.flags & FLAG_TAKEN != 0,
            mispredicted: self.flags & FLAG_MISPREDICTED != 0,
            pc: self.pc,
            target: self.target,
        })
    }

    /// Whether this op is a load.
    #[must_use]
    pub fn is_load(&self) -> bool {
        self.class == OpClass::Load
    }

    /// Whether this op is a store.
    #[must_use]
    pub fn is_store(&self) -> bool {
        self.class == OpClass::Store
    }

    /// Whether this op is a branch.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        self.class == OpClass::Branch
    }

    /// Whether this branch was mispredicted. `false` for non-branches.
    #[must_use]
    pub fn is_mispredicted(&self) -> bool {
        self.flags & FLAG_MISPREDICTED != 0
    }

    /// The address-forming source operand of a memory op (`src1` for
    /// both loads and stores), unless absent or the zero register.
    /// `None` for non-memory classes.
    #[must_use]
    pub fn addr_source(&self) -> Option<ArchReg> {
        matches!(self.class, OpClass::Load | OpClass::Store)
            .then(|| self.src1())
            .flatten()
            .filter(|r| !r.is_zero())
    }

    /// The data source operand of a store (`src2`), unless absent or the
    /// zero register. `None` for every other class.
    #[must_use]
    pub fn data_source(&self) -> Option<ArchReg> {
        (self.class == OpClass::Store)
            .then(|| self.src2())
            .flatten()
            .filter(|r| !r.is_zero())
    }

    /// Iterates over the present source operands, skipping the hard-wired
    /// zero register (which never carries data or taint).
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        [self.src1(), self.src2()]
            .into_iter()
            .flatten()
            .filter(|r| !r.is_zero())
    }

    /// Destination register unless it is the unrenamed zero register.
    #[must_use]
    pub fn dest(&self) -> Option<ArchReg> {
        self.dst().filter(|r| !r.is_zero())
    }
}

/// Prints the logical fields, as the derived impl of an unpacked struct
/// would.
impl fmt::Debug for MicroOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MicroOp")
            .field("class", &self.class)
            .field("dst", &self.dst())
            .field("src1", &self.src1())
            .field("src2", &self.src2())
            .field("mem", &self.mem())
            .field("ctrl", &self.ctrl())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl OpClass {
        /// Whether execution of this class has an observable, data-dependent
        /// effect on the system — STT's transmitter definition (§3.1).
        ///
        /// Loads transmit through their address, stores through their address,
        /// branches through their resolution direction.
        fn is_transmitter(self) -> bool {
            matches!(self, OpClass::Load | OpClass::Store | OpClass::Branch)
        }
    }

    #[test]
    fn transmitter_taxonomy_matches_stt() {
        assert!(OpClass::Load.is_transmitter());
        assert!(OpClass::Store.is_transmitter());
        assert!(OpClass::Branch.is_transmitter());
        assert!(!OpClass::IntAlu.is_transmitter());
        assert!(!OpClass::FpMul.is_transmitter());
        assert!(!OpClass::Nop.is_transmitter());
    }

    #[test]
    fn latencies_are_positive_and_ordered() {
        for c in OpClass::all() {
            assert!(c.exec_latency() >= 1, "{c} latency must be at least 1");
        }
        assert!(OpClass::IntDiv.exec_latency() > OpClass::IntMul.exec_latency());
        assert!(OpClass::IntMul.exec_latency() > OpClass::IntAlu.exec_latency());
        assert!(OpClass::FpDiv.exec_latency() > OpClass::FpMul.exec_latency());
    }

    #[test]
    fn mem_overlap_detects_aliasing() {
        let a = MemAccess {
            addr: 100,
            bytes: 8,
        };
        let b = MemAccess {
            addr: 104,
            bytes: 8,
        };
        let c = MemAccess {
            addr: 108,
            bytes: 4,
        };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn zero_register_sources_are_skipped() {
        let op = MicroOp::alu(
            ArchReg::int(1),
            Some(ArchReg::int(0)),
            Some(ArchReg::int(2)),
        );
        let srcs: Vec<_> = op.sources().collect();
        assert_eq!(srcs, vec![ArchReg::int(2)]);
    }

    #[test]
    fn zero_register_dest_is_discarded() {
        let op = MicroOp::alu(ArchReg::int(0), Some(ArchReg::int(2)), None);
        assert_eq!(op.dest(), None);
    }

    #[test]
    fn store_operand_convention() {
        let st = MicroOp::store(ArchReg::int(3), ArchReg::int(4), 0x80, 8);
        assert_eq!(
            st.src1(),
            Some(ArchReg::int(3)),
            "src1 is the address operand"
        );
        assert_eq!(st.src2(), Some(ArchReg::int(4)), "src2 is the data operand");
        assert!(st.dest().is_none());
    }

    #[test]
    fn branch_outcome_is_carried() {
        let br = MicroOp::branch(Some(ArchReg::int(1)), None, true, true);
        assert!(br.is_mispredicted());
        assert!(br.ctrl().unwrap().taken);
        assert!(!MicroOp::nop().is_mispredicted());
    }

    #[test]
    fn legacy_branch_constructor_leaves_pc_and_target_zero() {
        let br = MicroOp::branch(Some(ArchReg::int(1)), None, true, false);
        let c = br.ctrl().unwrap();
        assert_eq!((c.pc, c.target), (0, 0));
    }

    #[test]
    fn branch_at_carries_pc_and_target() {
        let br = MicroOp::branch_at(Some(ArchReg::int(1)), None, true, false, 0x1040, 0x2000);
        let c = br.ctrl().unwrap();
        assert_eq!(c.pc, 0x1040);
        assert_eq!(c.target, 0x2000);
        assert!(c.taken);
        assert!(!c.mispredicted);
    }

    #[test]
    #[should_panic(expected = "cannot build")]
    fn compute_rejects_memory_classes() {
        let _ = MicroOp::compute(OpClass::Load, ArchReg::int(1), None, None);
    }

    #[test]
    fn long_latency_classes_are_the_divides() {
        for c in OpClass::all() {
            assert_eq!(
                c.is_long_latency(),
                matches!(c, OpClass::IntDiv | OpClass::FpDiv),
                "{c}"
            );
        }
    }

    #[test]
    fn operand_role_helpers_follow_the_store_convention() {
        let ld = MicroOp::load(ArchReg::int(1), ArchReg::int(3), 0x40, 8);
        assert_eq!(ld.addr_source(), Some(ArchReg::int(3)));
        assert_eq!(ld.data_source(), None, "loads carry no data operand");

        let st = MicroOp::store(ArchReg::int(3), ArchReg::int(4), 0x80, 8);
        assert_eq!(st.addr_source(), Some(ArchReg::int(3)));
        assert_eq!(st.data_source(), Some(ArchReg::int(4)));

        let alu = MicroOp::alu(ArchReg::int(1), Some(ArchReg::int(2)), None);
        assert_eq!(alu.addr_source(), None, "non-memory ops form no address");

        let zero = MicroOp::store(ArchReg::int(0), ArchReg::int(0), 0x80, 8);
        assert_eq!(zero.addr_source(), None, "x0 never carries data or taint");
        assert_eq!(zero.data_source(), None);
    }
}
