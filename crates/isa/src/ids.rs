//! Register and sequence-number newtypes.
//!
//! Newtypes keep architectural registers, physical registers and dynamic
//! sequence numbers statically distinct (C-NEWTYPE): confusing a [`PhysReg`]
//! with an [`ArchReg`] index is a compile error rather than a subtle
//! mis-rename.

use std::fmt;

/// Number of architectural registers modelled: 32 integer + 32 floating point.
pub const NUM_ARCH_REGS: usize = 64;

/// An architectural register name (pre-rename).
///
/// Registers `0..32` are the integer file (`x0..x31`, with `x0` hard-wired to
/// zero and never renamed), `32..64` the floating-point file (`f0..f31`).
///
/// # Example
///
/// ```
/// use sb_isa::ArchReg;
/// let x5 = ArchReg::int(5);
/// assert!(!x5.is_zero());
/// assert!(ArchReg::int(0).is_zero());
/// assert!(ArchReg::fp(3).is_fp());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArchReg(u8);

impl ArchReg {
    /// Integer register `x<n>`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[must_use]
    pub fn int(n: u8) -> Self {
        assert!(n < 32, "integer register index {n} out of range");
        ArchReg(n)
    }

    /// Floating-point register `f<n>`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[must_use]
    pub fn fp(n: u8) -> Self {
        assert!(n < 32, "fp register index {n} out of range");
        ArchReg(32 + n)
    }

    /// The register with raw index `index` (`< NUM_ARCH_REGS`), the
    /// inverse of [`ArchReg::index`].
    pub(crate) fn from_index(index: u8) -> Self {
        debug_assert!(usize::from(index) < NUM_ARCH_REGS);
        ArchReg(index)
    }

    /// Raw index into a `NUM_ARCH_REGS`-sized table.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the hard-wired zero register `x0` (never renamed,
    /// never tainted).
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Whether this register belongs to the floating-point file.
    #[must_use]
    pub fn is_fp(self) -> bool {
        self.0 >= 32
    }

    /// All architectural registers, in index order.
    pub fn all() -> impl Iterator<Item = ArchReg> {
        (0..NUM_ARCH_REGS as u8).map(ArchReg)
    }
}

impl fmt::Debug for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_fp() {
            write!(f, "f{}", self.0 - 32)
        } else {
            write!(f, "x{}", self.0)
        }
    }
}

/// A physical register tag (post-rename).
///
/// High-performance cores carry an order of magnitude more physical than
/// architectural registers (§4.3 of the paper), which is why STT-Issue's
/// taint table is larger — but checkpoint-free.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysReg(u16);

impl PhysReg {
    /// Wraps a raw physical-register index.
    #[must_use]
    pub fn new(n: u16) -> Self {
        PhysReg(n)
    }

    /// Raw index into a physical-register-file-sized table.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A global dynamic-instruction sequence number.
///
/// Sequence numbers are assigned at rename in program order and are never
/// reused within a run, which makes them a natural representation for the
/// *youngest root of taint* (YRoT): a taint with root `s` is live exactly
/// while `s` is younger than the youngest non-speculative load (§4.2/§4.3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Seq(u64);

impl Seq {
    /// The zero sequence number, older than any renamed instruction.
    pub const ZERO: Seq = Seq(0);

    /// Wraps a raw sequence number.
    #[must_use]
    pub fn new(n: u64) -> Self {
        Seq(n)
    }

    /// Raw value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Seq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_fp_registers_do_not_collide() {
        assert_ne!(ArchReg::int(3), ArchReg::fp(3));
        assert_eq!(ArchReg::int(3).index(), 3);
        assert_eq!(ArchReg::fp(3).index(), 35);
    }

    #[test]
    fn zero_register_is_only_x0() {
        assert!(ArchReg::int(0).is_zero());
        assert!(!ArchReg::fp(0).is_zero());
        assert!(!ArchReg::int(1).is_zero());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_register_index_is_validated() {
        let _ = ArchReg::int(32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fp_register_index_is_validated() {
        let _ = ArchReg::fp(32);
    }

    #[test]
    fn all_registers_covers_both_files() {
        let v: Vec<_> = ArchReg::all().collect();
        assert_eq!(v.len(), NUM_ARCH_REGS);
        assert_eq!(v[0], ArchReg::int(0));
        assert_eq!(v[63], ArchReg::fp(31));
    }

    #[test]
    fn seq_ordering_is_program_order() {
        let a = Seq::new(10);
        assert!(a < Seq::new(11));
        assert_eq!(a.value(), 10);
        assert!(Seq::ZERO < a);
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert_eq!(format!("{:?}", ArchReg::int(7)), "x7");
        assert_eq!(format!("{:?}", ArchReg::fp(7)), "f7");
        assert_eq!(format!("{}", PhysReg::new(53)), "p53");
        assert_eq!(format!("{:?}", Seq::new(9)), "#9");
    }
}
