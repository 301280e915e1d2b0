//! The reorder buffer as a fixed-capacity slot arena.
//!
//! The former ROB was a `VecDeque<Inst>` of owned ~200-byte records:
//! dispatch moved a whole `Inst` into the deque, commit moved it back out,
//! and every positional access paid the deque's two-slice arithmetic. The
//! arena removes all of that:
//!
//! * Entries live in two slot-parallel slabs — the hot scheduling records
//!   ([`HotInst`]) and the cold sidecars ([`ColdInst`]) — sized to the next
//!   power of two above the configured ROB capacity. A slot is
//!   `arrival & mask`; because the live window of arrival indexes is at
//!   most `capacity` wide, live slots never alias.
//! * Dispatch constructs entries in place; commit and squash just move the
//!   window bounds. Nothing is ever copied after construction.
//! * The wakeup/select hot loop indexes only the hot slab, fitting twice
//!   as many entries per cache line as the unified struct did.
//!
//! Arrival indexes count ROB pushes, but squashes *recycle* them: popping
//! the tail and dispatching a replacement reuses the same arrival (and the
//! same slot) for a different instruction. Every slot therefore carries a
//! generation counter, bumped on each (re)allocation; a [`RobHandle`]
//! captures `(arrival, generation)` and [`RobArena::resolve`] returns the
//! live position only while both still match. Handles dangling from a
//! squash or a commit resolve to `None` instead of aliasing the slot's new
//! tenant — `arena_props.rs` drives random dispatch/commit/squash
//! interleavings against a shadow model to pin exactly that property.

use crate::inst::{ColdInst, HotInst};

/// A generation-checked reference to one arena slot.
///
/// `arrival` names the slot (modulo capacity) and its age; `gen` is the
/// slot's allocation count at handle creation. The handle is valid while
/// the same dispatch incarnation is live, and resolves to `None` once the
/// instruction commits, is squashed, or the slot hosts a newer tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RobHandle {
    /// Arrival index: the count of ROB pushes when this entry was
    /// allocated (recycled by squashes, hence the generation check).
    pub(crate) arrival: u64,
    /// Slot generation at allocation time.
    pub(crate) gen: u32,
}

/// The reorder buffer: a power-of-two ring of in-place instruction slots
/// with generation-checked handles.
#[derive(Clone, Debug)]
pub struct RobArena {
    hot: Box<[HotInst]>,
    cold: Box<[ColdInst]>,
    /// Per-slot allocation count (bumped on every push into the slot).
    gens: Box<[u32]>,
    /// Arrival index of the oldest live entry.
    head: u64,
    /// Arrival index one past the youngest live entry.
    tail: u64,
    /// Slot mask (`capacity - 1`).
    mask: u64,
    /// Maximum live entries (the *configured* ROB size; the slab may be
    /// larger after rounding up to a power of two).
    capacity: usize,
}

impl RobArena {
    /// An empty arena for a ROB of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB needs at least one entry");
        let slots = capacity.next_power_of_two();
        let filler_op = sb_isa::MicroOp::nop();
        let hot = vec![HotInst::new(sb_isa::Seq::ZERO, filler_op, false); slots];
        let cold = vec![ColdInst::new(filler_op, None); slots];
        RobArena {
            hot: hot.into_boxed_slice(),
            cold: cold.into_boxed_slice(),
            gens: vec![0; slots].into_boxed_slice(),
            head: 0,
            tail: 0,
            mask: (slots - 1) as u64,
            capacity,
        }
    }

    /// Live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// Whether no entry is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Arrival index of the oldest live entry (the position-0 base: the
    /// entry at position `i` has arrival `head_arrival() + i`).
    #[must_use]
    pub(crate) fn head_arrival(&self) -> u64 {
        self.head
    }

    #[inline]
    fn slot_of(&self, arrival: u64) -> usize {
        (arrival & self.mask) as usize
    }

    #[inline]
    fn slot_at(&self, idx: usize) -> usize {
        debug_assert!(idx < self.len(), "ROB position {idx} out of bounds");
        self.slot_of(self.head + idx as u64)
    }

    // The accessors below re-derive the slab mask from the slab's own
    // length (`len - 1 == self.mask` by construction) so the compiler can
    // prove `slot & (len - 1) < len` and elide the bounds check — these
    // sit under every per-cycle loop of the core.

    /// Hot record at live position `idx` (0 = oldest).
    #[inline]
    #[must_use]
    pub fn hot(&self, idx: usize) -> &HotInst {
        let slot = self.slot_at(idx) & (self.hot.len() - 1);
        &self.hot[slot]
    }

    /// Mutable hot record at live position `idx`.
    #[inline]
    pub(crate) fn hot_mut(&mut self, idx: usize) -> &mut HotInst {
        let slot = self.slot_at(idx) & (self.hot.len() - 1);
        &mut self.hot[slot]
    }

    /// Cold sidecar at live position `idx`.
    #[inline]
    #[must_use]
    pub(crate) fn cold(&self, idx: usize) -> &ColdInst {
        let slot = self.slot_at(idx) & (self.cold.len() - 1);
        &self.cold[slot]
    }

    /// Mutable cold sidecar at live position `idx`.
    #[inline]
    pub(crate) fn cold_mut(&mut self, idx: usize) -> &mut ColdInst {
        let slot = self.slot_at(idx) & (self.cold.len() - 1);
        &mut self.cold[slot]
    }

    /// Oldest live hot record, if any.
    #[inline]
    #[must_use]
    pub(crate) fn front(&self) -> Option<&HotInst> {
        (!self.is_empty()).then(|| self.hot(0))
    }

    /// Youngest live hot record, if any.
    #[inline]
    #[must_use]
    pub(crate) fn back(&self) -> Option<&HotInst> {
        (!self.is_empty()).then(|| self.hot(self.len() - 1))
    }

    /// Allocates the next slot in age order, writing `hot` and `cold` in
    /// place, and returns the generation-checked handle.
    ///
    /// # Panics
    ///
    /// Panics if the arena is at capacity (dispatch checks occupancy
    /// before renaming).
    pub fn push(&mut self, hot: HotInst, cold: ColdInst) -> RobHandle {
        let (handle, hot_slot, cold_slot) = self.alloc();
        *hot_slot = hot;
        *cold_slot = cold;
        handle
    }

    /// Allocates the next slot in age order and hands out the slot's hot
    /// and cold records for in-place construction (their previous
    /// tenant's state is still there — overwrite everything). The
    /// dispatch stage uses this to build entries directly in the slab.
    ///
    /// # Panics
    ///
    /// Panics if the arena is at capacity (dispatch checks occupancy
    /// before renaming).
    pub(crate) fn alloc(&mut self) -> (RobHandle, &mut HotInst, &mut ColdInst) {
        assert!(self.len() < self.capacity, "ROB arena overflow");
        let arrival = self.tail;
        let slot = self.slot_of(arrival);
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.tail += 1;
        let handle = RobHandle {
            arrival,
            gen: self.gens[slot],
        };
        (handle, &mut self.hot[slot], &mut self.cold[slot])
    }

    /// Retires the oldest entry: the slot's contents stay in place (read
    /// whatever is needed *before* calling this) but every handle to it
    /// dies with the window move.
    ///
    /// # Panics
    ///
    /// Panics if the arena is empty.
    pub fn pop_front(&mut self) {
        assert!(!self.is_empty(), "pop_front on empty ROB");
        self.head += 1;
    }

    /// Squashes the youngest entry; its arrival index (and slot) will be
    /// recycled by the next push, at a new generation.
    ///
    /// # Panics
    ///
    /// Panics if the arena is empty.
    pub fn pop_back(&mut self) {
        assert!(!self.is_empty(), "pop_back on empty ROB");
        self.tail -= 1;
    }

    /// The handle of the live entry at position `idx`.
    #[inline]
    #[must_use]
    pub fn handle(&self, idx: usize) -> RobHandle {
        let slot = self.slot_at(idx) & (self.gens.len() - 1);
        RobHandle {
            arrival: self.head + idx as u64,
            gen: self.gens[slot],
        }
    }

    /// Resolves a handle to the live position of the entry it was created
    /// for, or `None` if that incarnation has committed, been squashed, or
    /// had its slot reused. O(1).
    #[inline]
    #[must_use]
    pub fn resolve(&self, h: RobHandle) -> Option<usize> {
        if h.arrival < self.head || h.arrival >= self.tail {
            return None;
        }
        let slot = self.slot_of(h.arrival) & (self.gens.len() - 1);
        (self.gens[slot] == h.gen).then(|| (h.arrival - self.head) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_isa::{ArchReg, MicroOp, Seq};

    fn entry(seq: u64) -> (HotInst, ColdInst) {
        let op = MicroOp::alu(ArchReg::int(1), None, None);
        (
            HotInst::new(Seq::new(seq), op, false),
            ColdInst::new(op, None),
        )
    }

    #[test]
    fn push_pop_window_moves() {
        let mut a = RobArena::new(4);
        assert!(a.is_empty());
        let (h1, c1) = entry(1);
        let (h2, c2) = entry(2);
        a.push(h1, c1);
        a.push(h2, c2);
        assert_eq!(a.len(), 2);
        assert_eq!(a.front().unwrap().seq, Seq::new(1));
        assert_eq!(a.back().unwrap().seq, Seq::new(2));
        assert_eq!(a.hot(1).seq, Seq::new(2));
        a.pop_front();
        assert_eq!(a.len(), 1);
        assert_eq!(a.head_arrival(), 1);
        assert_eq!(a.front().unwrap().seq, Seq::new(2));
    }

    #[test]
    fn handles_die_on_commit_and_squash() {
        let mut a = RobArena::new(4);
        let (h1, c1) = entry(1);
        let (h2, c2) = entry(2);
        let first = a.push(h1, c1);
        let second = a.push(h2, c2);
        assert_eq!(a.resolve(first), Some(0));
        assert_eq!(a.resolve(second), Some(1));
        a.pop_front(); // commit seq 1
        assert_eq!(a.resolve(first), None);
        assert_eq!(a.resolve(second), Some(0));
        a.pop_back(); // squash seq 2
        assert_eq!(a.resolve(second), None);
    }

    #[test]
    fn recycled_arrival_gets_a_new_generation() {
        let mut a = RobArena::new(4);
        let (h1, c1) = entry(1);
        a.push(h1, c1);
        let (h2, c2) = entry(2);
        let stale = a.push(h2, c2);
        a.pop_back(); // squash seq 2
        let (h3, c3) = entry(3);
        let fresh = a.push(h3, c3); // recycles arrival 1
        assert_eq!(stale.arrival, fresh.arrival);
        assert_ne!(stale.gen, fresh.gen);
        assert_eq!(a.resolve(stale), None, "stale handle must not alias");
        assert_eq!(a.resolve(fresh), Some(1));
        assert_eq!(a.hot(1).seq, Seq::new(3));
    }

    #[test]
    fn ring_wraps_without_aliasing() {
        let mut a = RobArena::new(3); // slab rounds up to 4 slots
        for seq in 1..=20u64 {
            let (h, c) = entry(seq);
            let handle = a.push(h, c);
            assert_eq!(a.resolve(handle), Some(a.len() - 1));
            if a.len() == 3 {
                assert_eq!(a.front().unwrap().seq, Seq::new(seq - 2));
                a.pop_front();
            }
        }
        assert_eq!(a.len(), 2);
        assert_eq!(a.front().unwrap().seq, Seq::new(19));
        assert_eq!(a.back().unwrap().seq, Seq::new(20));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_is_rejected() {
        let mut a = RobArena::new(2);
        for seq in 1..=3 {
            let (h, c) = entry(seq);
            a.push(h, c);
        }
    }

    #[test]
    fn in_place_mutation_sticks() {
        let mut a = RobArena::new(4);
        let (h1, c1) = entry(1);
        a.push(h1, c1);
        a.hot_mut(0).set_executed(true);
        *a.cold_mut(0) = ColdInst::new(a.cold(0).op, Some(7));
        assert!(a.hot(0).executed());
        assert_eq!(a.cold(0).trace_idx(), Some(7));
    }
}
