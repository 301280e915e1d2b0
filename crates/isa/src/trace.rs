//! Dynamic instruction traces.
//!
//! The simulator is trace-driven: a [`Trace`] is the full dynamic micro-op
//! stream of a workload, generated deterministically up front so that
//! squashes (branch mispredictions in attack kernels, store-to-load
//! forwarding errors everywhere) can rewind and replay the stream exactly.
//!
//! Mispredicted branches may carry a [`WrongPathBlock`]: micro-ops the
//! front-end fetches down the wrong path until the branch resolves. SPEC-like
//! workloads leave this empty (the front-end simply stalls, the standard
//! trace-driven treatment); the Spectre-v1 attack kernels use it to model
//! transient execution explicitly.

use crate::op::MicroOp;
use std::collections::HashMap;
use std::fmt;

/// Micro-ops fetched down the wrong path after a mispredicted branch, until
/// the branch resolves and squashes them.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct WrongPathBlock {
    /// The transient micro-ops, in fetch order.
    pub ops: Vec<MicroOp>,
}

/// A complete dynamic micro-op trace for one workload.
///
/// # Example
///
/// ```
/// use sb_isa::{ArchReg, TraceBuilder};
///
/// let mut b = TraceBuilder::new("kernel");
/// b.alu(ArchReg::int(1), None, None);
/// b.branch(Some(ArchReg::int(1)), None, false, false);
/// let t = b.build();
/// assert_eq!(t.name(), "kernel");
/// assert_eq!(t.len(), 2);
/// assert!(t.wrong_path(1).is_none());
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    name: String,
    ops: Vec<MicroOp>,
    wrong_paths: HashMap<usize, WrongPathBlock>,
}

impl Trace {
    /// Builds a trace from raw parts. Prefer [`TraceBuilder`].
    #[must_use]
    pub fn from_parts(
        name: impl Into<String>,
        ops: Vec<MicroOp>,
        wrong_paths: HashMap<usize, WrongPathBlock>,
    ) -> Self {
        Trace {
            name: name.into(),
            ops,
            wrong_paths,
        }
    }

    /// Workload name (used in reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of dynamic micro-ops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace has no micro-ops.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The micro-op at trace index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    #[must_use]
    pub fn op(&self, idx: usize) -> &MicroOp {
        &self.ops[idx]
    }

    /// The micro-op at trace index `idx`, if in range.
    #[must_use]
    pub fn get(&self, idx: usize) -> Option<&MicroOp> {
        self.ops.get(idx)
    }

    /// The wrong-path block attached to the (mispredicted branch) micro-op at
    /// `idx`, if any.
    #[must_use]
    pub fn wrong_path(&self, idx: usize) -> Option<&WrongPathBlock> {
        self.wrong_paths.get(&idx)
    }

    /// Iterates over the correct-path micro-ops.
    pub fn iter(&self) -> std::slice::Iter<'_, MicroOp> {
        self.ops.iter()
    }

    /// Iterates over all wrong-path blocks as `(branch index, block)` pairs,
    /// in unspecified order (sort by index for a canonical serialization).
    pub fn wrong_paths(&self) -> impl Iterator<Item = (usize, &WrongPathBlock)> {
        self.wrong_paths.iter().map(|(&i, b)| (i, b))
    }

    /// Fraction of ops in the trace matching a predicate — handy for
    /// validating generated workload mixes.
    #[must_use]
    pub fn fraction(&self, pred: impl Fn(&MicroOp) -> bool) -> f64 {
        if self.ops.is_empty() {
            return 0.0;
        }
        self.ops.iter().filter(|o| pred(o)).count() as f64 / self.ops.len() as f64
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} uops)", self.name, self.ops.len())
    }
}

/// Incremental builder for hand-written traces (attack kernels, unit tests).
///
/// Each push returns the trace index of the op it appended, so wrong-path
/// blocks and later assertions can refer back to specific ops.
#[derive(Clone, Debug, Default)]
pub struct TraceBuilder {
    name: String,
    ops: Vec<MicroOp>,
    wrong_paths: HashMap<usize, WrongPathBlock>,
}

impl TraceBuilder {
    /// Starts an empty trace with the given workload name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        TraceBuilder {
            name: name.into(),
            ops: Vec::new(),
            wrong_paths: HashMap::new(),
        }
    }

    /// Appends an arbitrary micro-op; returns its trace index.
    pub fn push(&mut self, op: MicroOp) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// Appends `dst <- f(src1, src2)` integer ALU op.
    pub fn alu(
        &mut self,
        dst: crate::ArchReg,
        src1: Option<crate::ArchReg>,
        src2: Option<crate::ArchReg>,
    ) -> usize {
        self.push(MicroOp::alu(dst, src1, src2))
    }

    /// Appends a load; returns its trace index.
    pub fn load(
        &mut self,
        dst: crate::ArchReg,
        addr_src: crate::ArchReg,
        addr: u64,
        bytes: u8,
    ) -> usize {
        self.push(MicroOp::load(dst, addr_src, addr, bytes))
    }

    /// Appends a store; returns its trace index.
    pub fn store(
        &mut self,
        addr_src: crate::ArchReg,
        data_src: crate::ArchReg,
        addr: u64,
        bytes: u8,
    ) -> usize {
        self.push(MicroOp::store(addr_src, data_src, addr, bytes))
    }

    /// Appends a branch; returns its trace index.
    pub fn branch(
        &mut self,
        src1: Option<crate::ArchReg>,
        src2: Option<crate::ArchReg>,
        taken: bool,
        mispredicted: bool,
    ) -> usize {
        self.push(MicroOp::branch(src1, src2, taken, mispredicted))
    }

    /// Appends a branch carrying its static pc and taken-path target (for
    /// workloads driving the modelled frontend predictor); returns its
    /// trace index.
    #[allow(clippy::too_many_arguments)]
    pub fn branch_at(
        &mut self,
        src1: Option<crate::ArchReg>,
        src2: Option<crate::ArchReg>,
        taken: bool,
        mispredicted: bool,
        pc: u64,
        target: u64,
    ) -> usize {
        self.push(MicroOp::branch_at(
            src1,
            src2,
            taken,
            mispredicted,
            pc,
            target,
        ))
    }

    /// Attaches a wrong-path block to the op at `idx` (must be a mispredicted
    /// branch).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or the op at `idx` is not a
    /// mispredicted branch.
    pub fn wrong_path(&mut self, idx: usize, ops: Vec<MicroOp>) -> &mut Self {
        let op = self
            .ops
            .get(idx)
            .unwrap_or_else(|| panic!("trace index {idx} out of range"));
        assert!(
            op.is_mispredicted(),
            "wrong-path block must attach to a mispredicted branch"
        );
        self.wrong_paths.insert(idx, WrongPathBlock { ops });
        self
    }

    /// Number of ops pushed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no ops have been pushed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Finalizes the trace.
    #[must_use]
    pub fn build(self) -> Trace {
        Trace {
            name: self.name,
            ops: self.ops,
            wrong_paths: self.wrong_paths,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchReg, OpClass};

    #[test]
    fn builder_indices_are_sequential() {
        let mut b = TraceBuilder::new("t");
        assert!(b.is_empty());
        let i0 = b.alu(ArchReg::int(1), None, None);
        let i1 = b.load(ArchReg::int(2), ArchReg::int(1), 0x40, 8);
        let i2 = b.store(ArchReg::int(1), ArchReg::int(2), 0x48, 8);
        assert_eq!((i0, i1, i2), (0, 1, 2));
        assert_eq!(b.len(), 3);
        let t = b.build();
        assert_eq!(t.op(1).class(), OpClass::Load);
        assert_eq!(t.op(2).class(), OpClass::Store);
    }

    #[test]
    fn wrong_path_attaches_to_mispredicted_branch() {
        let mut b = TraceBuilder::new("t");
        let br = b.branch(Some(ArchReg::int(1)), None, true, true);
        b.wrong_path(br, vec![MicroOp::nop(), MicroOp::nop()]);
        let t = b.build();
        assert_eq!(t.wrong_path(br).unwrap().ops.len(), 2);
        assert!(t.wrong_path(99).is_none());
    }

    #[test]
    #[should_panic(expected = "mispredicted branch")]
    fn wrong_path_rejects_correctly_predicted_branch() {
        let mut b = TraceBuilder::new("t");
        let br = b.branch(Some(ArchReg::int(1)), None, true, false);
        b.wrong_path(br, vec![MicroOp::nop()]);
    }

    #[test]
    fn fraction_counts_classes() {
        let mut b = TraceBuilder::new("t");
        b.alu(ArchReg::int(1), None, None);
        b.alu(ArchReg::int(2), None, None);
        b.load(ArchReg::int(3), ArchReg::int(1), 0, 8);
        b.branch(None, None, false, false);
        let t = b.build();
        assert!((t.fraction(|o| o.is_load()) - 0.25).abs() < 1e-12);
        assert!((t.fraction(|o| o.class() == OpClass::IntAlu) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_fraction_is_zero() {
        let t = TraceBuilder::new("e").build();
        assert!(t.is_empty());
        assert_eq!(t.fraction(|_| true), 0.0);
    }

    #[test]
    fn display_includes_name_and_size() {
        let mut b = TraceBuilder::new("demo");
        b.alu(ArchReg::int(1), None, None);
        assert_eq!(format!("{}", b.build()), "demo (1 uops)");
    }
}
