//! Register renaming substrate: the register alias table (RAT) and free
//! list, with walk-back rollback state kept per instruction (the simulator
//! restores squashed state by unwinding the ROB tail; the *cost* of
//! checkpoints is charged by `sb-timing` from `max_br_tags`).

use sb_isa::{ArchReg, PhysReg, NUM_ARCH_REGS};
use std::collections::VecDeque;

/// The register alias table: architectural → physical mapping.
#[derive(Clone, Debug)]
pub(crate) struct Rat {
    map: [PhysReg; NUM_ARCH_REGS],
}

impl Rat {
    /// Identity-initialized RAT: architectural register `i` maps to physical
    /// register `i`.
    #[must_use]
    pub(crate) fn new() -> Self {
        let mut map = [PhysReg::new(0); NUM_ARCH_REGS];
        for (i, slot) in map.iter_mut().enumerate() {
            *slot = PhysReg::new(i as u16);
        }
        Rat { map }
    }

    /// Current mapping of `r`.
    #[must_use]
    pub(crate) fn lookup(&self, r: ArchReg) -> PhysReg {
        self.map[r.index()]
    }

    /// Remaps `r` to `p`, returning the previous mapping (stored in the ROB
    /// entry for commit-time freeing and squash-time rollback).
    pub(crate) fn remap(&mut self, r: ArchReg, p: PhysReg) -> PhysReg {
        std::mem::replace(&mut self.map[r.index()], p)
    }
}

impl Default for Rat {
    fn default() -> Self {
        Self::new()
    }
}

/// The physical-register free list.
///
/// Registers `0..NUM_ARCH_REGS` start allocated (they back the initial RAT);
/// the remainder are free.
#[derive(Clone, Debug)]
pub(crate) struct FreeList {
    free: VecDeque<PhysReg>,
}

impl FreeList {
    /// A free list for a file of `total` physical registers.
    ///
    /// # Panics
    ///
    /// Panics if `total` cannot back the architectural state.
    #[must_use]
    pub(crate) fn new(total: usize) -> Self {
        assert!(total > NUM_ARCH_REGS, "PRF must exceed architectural state");
        FreeList {
            free: (NUM_ARCH_REGS..total)
                .map(|i| PhysReg::new(i as u16))
                .collect(),
        }
    }

    /// Pops a free register, or `None` (rename must stall).
    pub(crate) fn allocate(&mut self) -> Option<PhysReg> {
        self.free.pop_front()
    }

    /// Returns a register to the pool (commit frees the *previous* mapping;
    /// squash frees the *new* mapping).
    pub(crate) fn release(&mut self, p: PhysReg) {
        debug_assert!(
            !self.free.contains(&p),
            "double free of physical register {p}"
        );
        self.free.push_back(p);
    }

    /// Free registers remaining.
    #[must_use]
    pub(crate) fn available(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rat_starts_identity() {
        let rat = Rat::new();
        assert_eq!(rat.lookup(ArchReg::int(5)).index(), 5);
        assert_eq!(rat.lookup(ArchReg::fp(0)).index(), 32);
    }

    #[test]
    fn remap_returns_previous() {
        let mut rat = Rat::new();
        let prev = rat.remap(ArchReg::int(1), PhysReg::new(70));
        assert_eq!(prev.index(), 1);
        assert_eq!(rat.lookup(ArchReg::int(1)).index(), 70);
    }

    #[test]
    fn free_list_excludes_initial_mappings() {
        let mut fl = FreeList::new(80);
        assert_eq!(fl.available(), 80 - NUM_ARCH_REGS);
        let p = fl.allocate().unwrap();
        assert!(p.index() >= NUM_ARCH_REGS);
    }

    #[test]
    fn allocate_release_roundtrip() {
        let mut fl = FreeList::new(66);
        let a = fl.allocate().unwrap();
        let b = fl.allocate().unwrap();
        assert_ne!(a, b);
        assert!(fl.allocate().is_none(), "only two spare registers");
        fl.release(a);
        assert_eq!(fl.allocate(), Some(a));
    }

    #[test]
    #[should_panic(expected = "exceed architectural")]
    fn tiny_prf_rejected() {
        let _ = FreeList::new(NUM_ARCH_REGS);
    }
}
