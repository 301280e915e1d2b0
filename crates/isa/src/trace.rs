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
    /// `(branch index, block)` pairs, strictly ascending by index.
    wrong_paths: Vec<(usize, WrongPathBlock)>,
}

impl Trace {
    /// Builds a trace from raw parts. Prefer [`TraceBuilder`].
    ///
    /// # Panics
    ///
    /// Panics if the wrong-path blocks are not strictly ascending by branch
    /// index.
    #[must_use]
    pub fn from_parts(
        name: impl Into<String>,
        ops: Vec<MicroOp>,
        wrong_paths: Vec<(usize, WrongPathBlock)>,
    ) -> Self {
        assert!(
            wrong_paths.windows(2).all(|w| w[0].0 < w[1].0),
            "wrong-path blocks must be strictly ascending by branch index"
        );
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
        let at = self.wrong_paths.binary_search_by_key(&idx, |&(i, _)| i);
        at.ok().map(|at| &self.wrong_paths[at].1)
    }

    /// Iterates over the correct-path micro-ops.
    pub fn iter(&self) -> std::slice::Iter<'_, MicroOp> {
        self.ops.iter()
    }

    /// Iterates over all wrong-path blocks as `(branch index, block)` pairs,
    /// in ascending branch-index order.
    pub fn wrong_paths(&self) -> impl Iterator<Item = (usize, &WrongPathBlock)> {
        self.wrong_paths.iter().map(|(i, b)| (*i, b))
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

/// Incremental builder for hand-written traces (attack kernels, unit tests).
///
/// Each push returns the trace index of the op it appended, so wrong-path
/// blocks and later assertions can refer back to specific ops.
#[derive(Clone, Debug, Default)]
pub struct TraceBuilder {
    name: String,
    ops: Vec<MicroOp>,
    /// Kept sorted by branch index, as [`Trace`] stores them.
    wrong_paths: Vec<(usize, WrongPathBlock)>,
}

impl TraceBuilder {
    /// Starts an empty trace with the given workload name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        TraceBuilder {
            name: name.into(),
            ops: Vec::new(),
            wrong_paths: Vec::new(),
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
    /// branch), replacing any block already attached there.
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
        let block = WrongPathBlock { ops };
        match self.wrong_paths.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(at) => self.wrong_paths[at].1 = block,
            Err(at) => {
                // A trace has a handful of blocks at most: grow one slot at
                // a time so the list never carries slack.
                self.wrong_paths.reserve_exact(1);
                self.wrong_paths.insert(at, (idx, block));
            }
        }
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

    /// Finalizes the trace, dropping the ops' push-growth slack: a built
    /// trace holds its ops, like its block list, at exact capacity. Each
    /// block keeps the vector its caller attached.
    #[must_use]
    pub fn build(mut self) -> Trace {
        self.ops.shrink_to_fit();
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
    fn built_traces_hold_ops_at_exact_capacity() {
        let mut b = TraceBuilder::new("t");
        for i in 0..21 {
            b.alu(ArchReg::int(1 + i % 8), None, None);
        }
        for _ in 0..2 {
            let br = b.branch(Some(ArchReg::int(1)), None, true, true);
            b.wrong_path(br, vec![MicroOp::nop(); 5]);
        }
        let t = b.build();
        assert_eq!(t.len(), 23);
        assert_eq!(t.ops.capacity(), t.ops.len());
        assert_eq!(t.wrong_paths.capacity(), t.wrong_paths.len());
    }

    #[test]
    fn wrong_paths_iterate_in_ascending_index_order() {
        let mut b = TraceBuilder::new("t");
        let brs: Vec<usize> = (0..4)
            .map(|_| b.branch(Some(ArchReg::int(1)), None, true, true))
            .collect();
        for &br in &[brs[2], brs[0], brs[3], brs[1]] {
            b.wrong_path(br, vec![MicroOp::nop(); br + 1]);
        }
        let t = b.build();
        let order: Vec<usize> = t.wrong_paths().map(|(i, _)| i).collect();
        assert_eq!(order, brs);
        for (i, block) in t.wrong_paths() {
            assert_eq!(block.ops.len(), i + 1);
            assert_eq!(t.wrong_path(i), Some(block));
        }
    }

    #[test]
    fn reattaching_a_block_replaces_it() {
        let mut b = TraceBuilder::new("t");
        let br = b.branch(Some(ArchReg::int(1)), None, true, true);
        b.wrong_path(br, vec![MicroOp::nop(); 3]);
        b.wrong_path(br, vec![MicroOp::nop()]);
        let t = b.build();
        assert_eq!(t.wrong_paths().count(), 1);
        assert_eq!(t.wrong_path(br).unwrap().ops.len(), 1);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_parts_rejects_unordered_blocks() {
        let ops = vec![MicroOp::branch(None, None, true, true); 2];
        let blocks = vec![
            (1, WrongPathBlock::default()),
            (0, WrongPathBlock::default()),
        ];
        let _ = Trace::from_parts("t", ops, blocks);
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
}
