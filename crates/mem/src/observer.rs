//! Side-channel observers: the verifier's omniscient views of what
//! transient execution left behind.
//!
//! * [`LeakageObserver`] — every cache-state change (demand fill,
//!   eviction, prefetch fill, MSHR allocation, predictor-table update) the
//!   hierarchy performs, attributed to the dynamic instruction that caused
//!   it. The core reports squashes, after which changes made by squashed
//!   (wrong-path / replayed) instructions are *transient*: cache state a
//!   correct execution would never have touched, i.e. a side-channel
//!   transmission. Decoded over a probe array
//!   ([`LeakageObserver::transient_slots`]), it recovers what a
//!   flush+reload attacker would, and also sees prefetch fills and
//!   evictions.
//! * [`ContentionObserver`] — MSHR occupancy and memory-port uses charged
//!   the same way: the resource-pressure channels that leave no cache
//!   state behind.
//!
//! The `verify-security` battery asserts the Baseline core transmits on
//! every attack scenario and the secure schemes on none.

use sb_isa::Seq;
use std::collections::BTreeSet;

/// The instruction a cache-state change is charged to, as reported by the
/// core at access time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attribution {
    /// Dynamic sequence number of the instruction performing the access.
    /// Sequence numbers are never reused, so a replayed instruction's
    /// re-execution is a distinct attribution from its squashed first try.
    pub seq: Seq,
    /// Whether the instruction was under an unresolved shadow (control,
    /// data, or — under the Futuristic model — memory/exception) when it
    /// accessed the hierarchy.
    pub speculative: bool,
    /// Whether the instruction was fetched down a known wrong path.
    pub wrong_path: bool,
}

/// The kind of microarchitectural-state change a `CacheChange` records.
/// Deliberately *excludes* LRU touches on hits: a warm re-access perturbs
/// replacement state only, which the paper's schemes do not claim to hide
/// (and which a flush+reload attacker cannot see either).
///
/// The predictor variants record frontend branch-predictor state changes
/// reported by the core via
/// [`MemoryHierarchy::note_predictor_update`](crate::MemoryHierarchy::note_predictor_update)
/// — attributed and squash-resolved exactly like cache state, but carrying
/// a *table index* in `line_addr` instead of a byte address, so they decode
/// through [`LeakageObserver::transient_predictor_slots`] rather than the
/// cache-channel geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CacheChangeKind {
    /// A demand miss installed this line in L1D.
    L1Fill,
    /// A demand miss installed this line in L2.
    L2Fill,
    /// A fill evicted this (victim) line from L1D.
    L1Eviction,
    /// A fill evicted this (victim) line from L2.
    L2Eviction,
    /// A prefetcher trained/triggered by the attributed access installed
    /// this line in L1D.
    L1PrefetchFill,
    /// A prefetcher trained/triggered by the attributed access installed
    /// this line in L2.
    L2PrefetchFill,
    /// A demand L1 miss allocated a miss-status holding register for this
    /// line (the outstanding-fill tracking slot; one per demand L1 miss).
    MshrAlloc,
    /// Branch training moved a PHT saturating counter; the address is the
    /// PHT index.
    PhtTrain,
    /// Branch training installed (or retargeted) a BTB entry; the address
    /// is the BTB index.
    BtbFill,
    /// A BTB fill displaced a live entry with a different tag; the address
    /// is the BTB index.
    BtbEvict,
    /// A fetched branch shifted the global history register; the address
    /// is the pre-shift history value.
    GhrShift,
}

impl CacheChangeKind {
    /// Whether this change concerns frontend predictor state (table-index
    /// address space) rather than cache state (byte address space).
    #[must_use]
    pub(crate) fn is_predictor(self) -> bool {
        matches!(
            self,
            CacheChangeKind::PhtTrain
                | CacheChangeKind::BtbFill
                | CacheChangeKind::BtbEvict
                | CacheChangeKind::GhrShift
        )
    }
}

/// One attributed cache-state change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheChange {
    /// What changed.
    pub kind: CacheChangeKind,
    /// The line-aligned address the change concerns (the installed line for
    /// fills/prefetches/MSHRs, the victim line for evictions).
    pub line_addr: u64,
    /// The instruction charged with the change.
    pub attr: Attribution,
    /// Set by [`LeakageObserver::note_squash`] once the attributed
    /// instruction is squashed: the change is transient.
    transient: bool,
}

impl CacheChange {
    /// Whether the attributed instruction was squashed — i.e. this change
    /// is microarchitectural state a correct execution never produces: a
    /// speculative side-channel transmission.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        self.transient
    }
}

/// Records every attributed cache-state change the hierarchy performs, and
/// resolves which of them turn out transient once the core reports its
/// squashes. Attach with
/// [`MemoryHierarchy::attach_leakage_observer`](crate::MemoryHierarchy::attach_leakage_observer);
/// detached (the default), the hierarchy's hot path pays only a `None`
/// check.
///
/// # Example
///
/// ```
/// use sb_isa::Seq;
/// use sb_mem::{Attribution, HierarchyConfig, MemoryHierarchy};
/// let mut m = MemoryHierarchy::new(HierarchyConfig::rtl_default());
/// m.attach_leakage_observer();
/// let attr = Attribution { seq: Seq::new(7), speculative: true, wrong_path: true };
/// m.access(0x4000_0000, Some(attr));
/// m.note_squash(Seq::new(7)); // the wrong-path load is squashed
/// let obs = m.leakage_observer().unwrap();
/// assert!(obs.transient_changes().any(|c| c.line_addr == 0x4000_0000));
/// ```
#[derive(Clone, Debug, Default)]
pub struct LeakageObserver {
    changes: Vec<CacheChange>,
}

impl LeakageObserver {
    /// An empty observer.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one attributed change (hierarchy-internal).
    pub(crate) fn record(&mut self, kind: CacheChangeKind, line_addr: u64, attr: Attribution) {
        self.changes.push(CacheChange {
            kind,
            line_addr,
            attr,
            transient: false,
        });
    }

    /// Records the fill and eviction one traced cache access produced,
    /// under the given per-level kinds (hierarchy-internal — the single
    /// place the `AccessTrace` → change-log mapping lives).
    pub(crate) fn record_trace(
        &mut self,
        trace: crate::cache::AccessTrace,
        fill: CacheChangeKind,
        eviction: CacheChangeKind,
        attr: Attribution,
    ) {
        if let Some(line) = trace.filled_line {
            self.record(fill, line, attr);
        }
        if let Some(victim) = trace.evicted_line {
            self.record(eviction, victim, attr);
        }
    }

    /// The core squashed every instruction with `seq >= first_removed`:
    /// their recorded changes become transient. Sequence numbers are
    /// allocated monotonically and never reused, so instructions recorded
    /// *after* this call (including replays of the squashed trace region)
    /// carry strictly larger sequence numbers and are unaffected.
    pub(crate) fn note_squash(&mut self, first_removed: Seq) {
        for c in &mut self.changes {
            if c.attr.seq >= first_removed {
                c.transient = true;
            }
        }
    }

    /// Every recorded change, in access order.
    #[must_use]
    pub fn changes(&self) -> &[CacheChange] {
        &self.changes
    }

    /// Changes attributed to squashed instructions.
    pub fn transient_changes(&self) -> impl Iterator<Item = &CacheChange> {
        self.changes.iter().filter(|c| c.is_transient())
    }

    /// Probe-array slots hit by transient *cache* changes: slot `i` covers
    /// `[base + i*stride, base + (i+1)*stride)`, for `i < entries`. This is
    /// what a flush+reload attacker probing that array would recover, plus
    /// prefetch fills and evictions, counting only changes from squashed
    /// instructions. Predictor-state changes live in a table
    /// index space, not the byte address space, so they are excluded here;
    /// decode those with [`Self::transient_predictor_slots`].
    #[must_use]
    pub fn transient_slots(&self, base: u64, stride: u64, entries: usize) -> BTreeSet<usize> {
        assert!(stride > 0, "probe slots need a positive stride");
        self.transient_changes()
            .filter(|c| !c.kind.is_predictor())
            .filter_map(|c| {
                let off = c.line_addr.checked_sub(base)?;
                let slot = (off / stride) as usize;
                (slot < entries).then_some(slot)
            })
            .collect()
    }

    /// Probe slots hit by transient *predictor-state* changes, under the
    /// same slot geometry as [`Self::transient_slots`] but interpreting
    /// addresses as predictor table indices. An attacker reads these out by
    /// timing its own branches (PHT counter direction, BTB hit/miss), the
    /// predictor-channel analogue of flush+reload.
    #[must_use]
    pub fn transient_predictor_slots(
        &self,
        base: u64,
        stride: u64,
        entries: usize,
    ) -> BTreeSet<usize> {
        assert!(stride > 0, "probe slots need a positive stride");
        self.transient_changes()
            .filter(|c| c.kind.is_predictor())
            .filter_map(|c| {
                let off = c.line_addr.checked_sub(base)?;
                let slot = (off / stride) as usize;
                (slot < entries).then_some(slot)
            })
            .collect()
    }

    /// Number of recorded changes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }
}

/// The kind of transient *resource pressure* a [`ContentionEvent`] records.
/// Unlike [`CacheChangeKind`], none of these are retained cache state: they
/// are occupancy — a co-resident attacker observes them as latency on its
/// own accesses during the transient window, not as hits afterwards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum ContentionKind {
    /// A demand L1 miss held a miss-status holding register for the fill's
    /// full latency; *which* MSHR (i.e. which line) is busy is observable
    /// through bank-conflict timing.
    MshrOccupancy,
    /// The attributed instruction consumed a memory issue port for a cycle
    /// (a load issue, a store address generation, or a store-to-load
    /// forward slot).
    MemPortUse,
}

/// One attributed resource-pressure event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ContentionEvent {
    /// What resource was pressured.
    pub(crate) kind: ContentionKind,
    /// Line address the pressure concerns: the missing line for MSHR
    /// occupancy, `None` for a bare port use (port pressure carries no
    /// address — the *count* is the signal).
    pub(crate) line_addr: Option<u64>,
    /// How many cycles the resource was held (the fill latency for an
    /// MSHR, 1 for a port slot).
    pub(crate) cycles: u32,
    /// The instruction charged with the pressure.
    pub(crate) attr: Attribution,
    /// Set by [`ContentionObserver::note_squash`] once the attributed
    /// instruction is squashed.
    transient: bool,
}

impl ContentionEvent {
    /// Whether the attributed instruction was squashed — the pressure was
    /// exerted by an execution that architecturally never happened: a
    /// contention side channel.
    #[must_use]
    pub(crate) fn is_transient(&self) -> bool {
        self.transient
    }
}

/// Records attributed MSHR-occupancy and memory-port-pressure events — the
/// non-cache-state counterpart of [`LeakageObserver`]. A transient
/// secret-dependent burst occupies MSHRs and issue ports even when it
/// changes no retained cache state (e.g. a burst of warm hits), so this
/// observer is what makes contention channels judgeable: the
/// `verify-security` battery's `mshr-contention` scenario decodes its
/// secret from the set of MSHRs squashed instructions occupied.
///
/// Attach with
/// [`MemoryHierarchy::attach_contention_observer`](crate::MemoryHierarchy::attach_contention_observer);
/// detached (the default), the hierarchy and the core's issue path pay
/// only a `None` check.
#[derive(Clone, Debug, Default)]
pub struct ContentionObserver {
    events: Vec<ContentionEvent>,
}

impl ContentionObserver {
    /// An empty observer.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one MSHR occupancy (hierarchy-internal: one per demand L1
    /// miss, held for the fill's latency).
    pub(crate) fn record_mshr(&mut self, line_addr: u64, cycles: u32, attr: Attribution) {
        self.events.push(ContentionEvent {
            kind: ContentionKind::MshrOccupancy,
            line_addr: Some(line_addr),
            cycles,
            attr,
            transient: false,
        });
    }

    /// Records one memory-port use (reported by the core's issue path via
    /// [`MemoryHierarchy::note_port_use`](crate::MemoryHierarchy::note_port_use)).
    pub(crate) fn record_port_use(&mut self, attr: Attribution) {
        self.events.push(ContentionEvent {
            kind: ContentionKind::MemPortUse,
            line_addr: None,
            cycles: 1,
            attr,
            transient: false,
        });
    }

    /// The core squashed every instruction with `seq >= first_removed`:
    /// their pressure events become transient (same contract as
    /// [`LeakageObserver::note_squash`]).
    pub(crate) fn note_squash(&mut self, first_removed: Seq) {
        for e in &mut self.events {
            if e.attr.seq >= first_removed {
                e.transient = true;
            }
        }
    }

    /// Events attributed to squashed instructions.
    pub(crate) fn transient_events(&self) -> impl Iterator<Item = &ContentionEvent> {
        self.events.iter().filter(|e| e.is_transient())
    }

    /// Probe-array slots whose lines had a transient MSHR occupancy —
    /// the contention-channel analogue of
    /// [`LeakageObserver::transient_slots`], with the same slot geometry.
    #[must_use]
    pub fn transient_mshr_slots(&self, base: u64, stride: u64, entries: usize) -> BTreeSet<usize> {
        assert!(stride > 0, "probe slots need a positive stride");
        self.transient_events()
            .filter(|e| e.kind == ContentionKind::MshrOccupancy)
            .filter_map(|e| {
                let off = e.line_addr?.checked_sub(base)?;
                let slot = (off / stride) as usize;
                (slot < entries).then_some(slot)
            })
            .collect()
    }

    /// Number of memory-port slots consumed by squashed instructions —
    /// pure port pressure, nonzero even for transient bursts that change
    /// no cache state at all.
    #[must_use]
    pub fn transient_port_uses(&self) -> usize {
        self.transient_events()
            .filter(|e| e.kind == ContentionKind::MemPortUse)
            .count()
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LeakageObserver {
        /// The set of line addresses touched by transient changes.
        pub(crate) fn transient_lines(&self) -> BTreeSet<u64> {
            self.transient_changes().map(|c| c.line_addr).collect()
        }
    }

    impl ContentionObserver {
        /// Total MSHR-occupancy cycles charged to squashed instructions.
        pub(crate) fn transient_mshr_cycles(&self) -> u64 {
            self.transient_events()
                .filter(|e| e.kind == ContentionKind::MshrOccupancy)
                .map(|e| u64::from(e.cycles))
                .sum()
        }
    }
    use crate::hierarchy::{HierarchyConfig, MemoryHierarchy};

    fn mem() -> MemoryHierarchy {
        let mut c = HierarchyConfig::rtl_default();
        c.l1_prefetch_degree = 0;
        c.l2_prefetch_degree = 0;
        MemoryHierarchy::new(c)
    }

    fn leak_attr(seq: u64) -> Attribution {
        Attribution {
            seq: Seq::new(seq),
            speculative: true,
            wrong_path: false,
        }
    }

    #[test]
    fn transient_slots_map_lines_to_probe_geometry() {
        let mut obs = LeakageObserver::new();
        obs.record(CacheChangeKind::L1Fill, 0x1000, leak_attr(4)); // slot 0
        obs.record(
            CacheChangeKind::L1PrefetchFill,
            0x1000 + 3 * 4096,
            leak_attr(4),
        ); // slot 3
        obs.record(CacheChangeKind::L1Fill, 0x1000 + 40 * 4096, leak_attr(4)); // out of range
        obs.record(CacheChangeKind::L1Fill, 0x200, leak_attr(4)); // below base
        obs.record(CacheChangeKind::L1Fill, 0x1000 + 4096, leak_attr(2)); // slot 1, survives
        obs.note_squash(Seq::new(3));
        let slots = obs.transient_slots(0x1000, 4096, 16);
        assert_eq!(slots.into_iter().collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(obs.transient_changes().count(), 4);
    }

    #[test]
    fn squash_marks_only_younger_sequences() {
        let mut obs = LeakageObserver::new();
        obs.record(CacheChangeKind::L2Fill, 0x40, leak_attr(1));
        obs.record(CacheChangeKind::L2Fill, 0x80, leak_attr(7));
        obs.note_squash(Seq::new(5));
        let transient: Vec<_> = obs.transient_changes().map(|c| c.line_addr).collect();
        assert_eq!(transient, vec![0x80]);
        assert!(obs.transient_lines().contains(&0x80));
        assert_eq!(obs.len(), 2);
    }

    #[test]
    fn predictor_and_cache_slots_decode_separately() {
        let mut obs = LeakageObserver::new();
        // Predictor table indices are small; a cache change at the same
        // numeric address must not bleed into the predictor decode (or
        // vice versa) — the kind filter keeps the spaces apart.
        obs.record(CacheChangeKind::PhtTrain, 7, leak_attr(4));
        obs.record(CacheChangeKind::L1Fill, 7, leak_attr(4));
        obs.record(CacheChangeKind::BtbFill, 3, leak_attr(4));
        obs.record(CacheChangeKind::GhrShift, 1, leak_attr(2)); // survives
        obs.note_squash(Seq::new(3));
        let pred = obs.transient_predictor_slots(0, 1, 16);
        assert_eq!(pred.into_iter().collect::<Vec<_>>(), vec![3, 7]);
        let cache = obs.transient_slots(0, 1, 16);
        assert_eq!(cache.into_iter().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn predictor_kind_partition_is_total() {
        use CacheChangeKind::*;
        for k in [PhtTrain, BtbFill, BtbEvict, GhrShift] {
            assert!(k.is_predictor());
        }
        for k in [
            L1Fill,
            L2Fill,
            L1Eviction,
            L2Eviction,
            L1PrefetchFill,
            L2PrefetchFill,
            MshrAlloc,
        ] {
            assert!(!k.is_predictor());
        }
    }

    #[test]
    fn hierarchy_forwards_predictor_updates_to_leakage_observer() {
        let mut m = mem();
        // Detached: a no-op, not a panic.
        m.note_predictor_update(CacheChangeKind::PhtTrain, 5, leak_attr(1));
        m.attach_leakage_observer();
        m.note_predictor_update(CacheChangeKind::BtbFill, 2, leak_attr(9));
        m.note_squash(Seq::new(9));
        let obs = m.leakage_observer().unwrap();
        assert_eq!(obs.len(), 1);
        assert_eq!(
            obs.transient_predictor_slots(0, 1, 8)
                .into_iter()
                .collect::<Vec<_>>(),
            vec![2]
        );
    }

    #[test]
    #[should_panic(expected = "predictor-state kinds only")]
    fn hierarchy_rejects_cache_kinds_on_the_predictor_path() {
        let mut m = mem();
        m.attach_leakage_observer();
        m.note_predictor_update(CacheChangeKind::L1Fill, 0x40, leak_attr(1));
    }

    #[test]
    fn contention_observer_decodes_transient_mshr_slots() {
        let mut obs = ContentionObserver::new();
        obs.record_mshr(0x1000, 98, leak_attr(4)); // slot 0
        obs.record_mshr(0x1000 + 3 * 4096, 98, leak_attr(4)); // slot 3
        obs.record_mshr(0x1000 + 4096, 14, leak_attr(2)); // slot 1, commits
        obs.record_port_use(leak_attr(4));
        obs.record_port_use(leak_attr(2));
        obs.note_squash(Seq::new(3));
        let slots = obs.transient_mshr_slots(0x1000, 4096, 16);
        assert_eq!(slots.into_iter().collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(obs.transient_port_uses(), 1);
        assert_eq!(obs.transient_mshr_cycles(), 196);
        assert_eq!(obs.len(), 5);
    }

    #[test]
    fn port_uses_carry_no_address_and_mshr_decode_ignores_them() {
        let mut obs = ContentionObserver::new();
        obs.record_port_use(leak_attr(1));
        obs.note_squash(Seq::new(1));
        assert_eq!(obs.transient_port_uses(), 1);
        assert!(obs.transient_mshr_slots(0, 4096, 16).is_empty());
        assert_eq!(obs.events[0].line_addr, None);
        assert_eq!(obs.events[0].cycles, 1);
    }
}
