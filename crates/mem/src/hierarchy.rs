//! The two-level cache hierarchy plus DRAM model that backs the core's LSU.

use crate::cache::{Cache, CacheConfig};
use crate::observer::{Attribution, CacheChangeKind, ContentionObserver, LeakageObserver};
use crate::prefetch::StridePrefetcher;
use sb_isa::Seq;

/// Which level served a demand access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServedBy {
    /// L1 data cache hit.
    L1,
    /// L2 hit.
    L2,
    /// Main memory.
    Dram,
}

/// Result of a demand access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Total latency in cycles until data is available.
    pub latency: u32,
    /// Level that served the access.
    pub served_by: ServedBy,
    /// Prefetches issued as a side effect (already installed).
    pub prefetches_issued: u32,
}

/// Configuration of the full hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache geometry/latency.
    pub l1d: CacheConfig,
    /// L2 geometry/latency.
    pub l2: CacheConfig,
    /// DRAM access latency in cycles (on top of L2 lookup).
    pub dram_latency: u32,
    /// Stride-prefetch degree at L1 (0 disables).
    pub l1_prefetch_degree: usize,
    /// Stride-prefetch degree at L2 (0 disables).
    pub l2_prefetch_degree: usize,
}

impl HierarchyConfig {
    /// The RTL-fidelity default: 4-cycle L1, 14-cycle L2, 80-cycle DRAM,
    /// stride prefetchers at both levels (Table 2).
    #[must_use]
    pub fn rtl_default() -> Self {
        HierarchyConfig {
            l1d: CacheConfig::l1d_default(),
            l2: CacheConfig::l2_default(),
            dram_latency: 80,
            l1_prefetch_degree: 2,
            l2_prefetch_degree: 4,
        }
    }

    /// The abstract (gem5-like) fidelity: identical except for the idealized
    /// single-cycle L1 the paper calls out in §9.5.
    #[must_use]
    pub fn abstract_default() -> Self {
        let mut c = Self::rtl_default();
        c.l1d.latency = 1;
        c
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::rtl_default()
    }
}

/// L1D + L2 + DRAM with stride prefetchers.
///
/// # Example
///
/// ```
/// use sb_mem::{MemoryHierarchy, HierarchyConfig, ServedBy};
/// let mut m = MemoryHierarchy::new(HierarchyConfig::rtl_default());
/// let cold = m.access(0x4000, None);
/// assert_eq!(cold.served_by, ServedBy::Dram);
/// let warm = m.access(0x4000, None);
/// assert_eq!(warm.served_by, ServedBy::L1);
/// assert!(warm.latency < cold.latency);
/// ```
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1d: Cache,
    l2: Cache,
    /// The L1 and L2 stride prefetchers' shared stream table. Both observe
    /// every demand access, so they train identically and differ only in
    /// how many of the targets they install: one table emits the larger
    /// degree's targets and each level takes its own prefix.
    prefetcher: Option<StridePrefetcher>,
    /// Recycled buffer for prefetch targets (the access path runs once per
    /// simulated memory operation).
    prefetch_scratch: Vec<u64>,
    demand_accesses: u64,
    /// Attached leakage observer (`None` keeps the access hot path free of
    /// recording work beyond one branch). Boxed: the observer's event log
    /// should not bloat the hierarchy for the overwhelmingly common
    /// unobserved runs.
    leakage: Option<Box<LeakageObserver>>,
    /// Attached contention observer (MSHR occupancy + memory-port
    /// pressure), same detached-is-free contract as `leakage`.
    contention: Option<Box<ContentionObserver>>,
}

impl MemoryHierarchy {
    /// Builds an empty hierarchy.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        let degree = config.l1_prefetch_degree.max(config.l2_prefetch_degree);
        MemoryHierarchy {
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            prefetcher: (degree > 0).then(|| StridePrefetcher::new(degree)),
            config,
            prefetch_scratch: Vec::new(),
            demand_accesses: 0,
            leakage: None,
            contention: None,
        }
    }

    /// Attaches a fresh [`LeakageObserver`]: from now on every cache-state
    /// change is recorded with its attribution. Replaces any previous
    /// observer.
    pub fn attach_leakage_observer(&mut self) {
        self.leakage = Some(Box::new(LeakageObserver::new()));
    }

    /// The attached leakage observer, if any.
    #[must_use]
    pub fn leakage_observer(&self) -> Option<&LeakageObserver> {
        self.leakage.as_deref()
    }

    /// Attaches a fresh [`ContentionObserver`]: from now on every MSHR
    /// occupancy and reported memory-port use is recorded with its
    /// attribution. Replaces any previous observer.
    pub fn attach_contention_observer(&mut self) {
        self.contention = Some(Box::new(ContentionObserver::new()));
    }

    /// The attached contention observer, if any.
    #[must_use]
    pub fn contention_observer(&self) -> Option<&ContentionObserver> {
        self.contention.as_deref()
    }

    /// The core's issue path consumed a memory port on behalf of `attr`
    /// (a load issue, a store address generation, or a forwarding slot).
    /// No-op unless a contention observer is attached — reporting never
    /// perturbs timing or statistics.
    pub fn note_port_use(&mut self, attr: Attribution) {
        if let Some(obs) = self.contention.as_deref_mut() {
            obs.record_port_use(attr);
        }
    }

    /// The core's frontend predictor changed state on behalf of `attr`
    /// (a PHT counter move, BTB fill/eviction, or GHR shift); `addr` is
    /// the table index the change concerns. No-op unless a leakage
    /// observer is attached — reporting never perturbs timing or
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not a predictor-state kind (cache-state changes
    /// must come from the hierarchy itself, with real line addresses).
    pub fn note_predictor_update(
        &mut self,
        kind: crate::CacheChangeKind,
        addr: u64,
        attr: Attribution,
    ) {
        assert!(
            kind.is_predictor(),
            "note_predictor_update takes predictor-state kinds only"
        );
        if let Some(obs) = self.leakage.as_deref_mut() {
            obs.record(kind, addr, attr);
        }
    }

    /// The core squashed every instruction with `seq >= first_removed`;
    /// forwarded to the attached observers (no-op when detached).
    pub fn note_squash(&mut self, first_removed: Seq) {
        if let Some(obs) = self.leakage.as_deref_mut() {
            obs.note_squash(first_removed);
        }
        if let Some(obs) = self.contention.as_deref_mut() {
            obs.note_squash(first_removed);
        }
    }

    /// Performs a demand access (a load, or a store's write-allocate) and
    /// returns the latency/level outcome. The prefetchers observe the
    /// access and install their targets.
    ///
    /// With an attribution and an attached [`LeakageObserver`], every
    /// cache-state change this access causes (demand fills, MSHR
    /// allocation, evictions, prefetch installs) is recorded against
    /// `attr`; an attached [`ContentionObserver`] records the demand miss's
    /// MSHR occupancy. Timing and cache state do not depend on `attr` —
    /// observation never perturbs the simulation.
    pub fn access(&mut self, addr: u64, attr: Option<Attribution>) -> AccessOutcome {
        self.demand_accesses += 1;
        let l1 = self.l1d.access_traced(addr);
        let (latency, served_by, l2) = if l1.hit {
            (self.config.l1d.latency, ServedBy::L1, None)
        } else {
            let l2t = self.l2.access_traced(addr);
            if l2t.hit {
                (
                    self.config.l1d.latency + self.config.l2.latency,
                    ServedBy::L2,
                    Some(l2t),
                )
            } else {
                (
                    self.config.l1d.latency + self.config.l2.latency + self.config.dram_latency,
                    ServedBy::Dram,
                    Some(l2t),
                )
            }
        };
        if let (Some(obs), Some(attr), Some(line)) =
            (self.contention.as_deref_mut(), attr, l1.filled_line)
        {
            // The MSHR tracking this demand L1 miss stays occupied for the
            // fill's full latency — observable resource pressure even
            // before (and independently of) the retained cache state.
            obs.record_mshr(line, latency, attr);
        }
        if let (Some(obs), Some(attr)) = (self.leakage.as_deref_mut(), attr) {
            if let Some(line) = l1.filled_line {
                // One MSHR tracks each outstanding demand L1 miss.
                obs.record(CacheChangeKind::MshrAlloc, line, attr);
            }
            obs.record_trace(
                l1,
                CacheChangeKind::L1Fill,
                CacheChangeKind::L1Eviction,
                attr,
            );
            if let Some(l2t) = l2 {
                obs.record_trace(
                    l2t,
                    CacheChangeKind::L2Fill,
                    CacheChangeKind::L2Eviction,
                    attr,
                );
            }
        }

        let mut prefetches_issued = 0;
        if let Some(pf) = &mut self.prefetcher {
            self.prefetch_scratch.clear();
            pf.observe_into(addr, &mut self.prefetch_scratch);
            // Targets run outward one stride at a time, and negative ones
            // are dropped only past the last valid one, so each level's
            // degree-limited prefix is exactly what a table of that
            // degree would have emitted.
            let targets = &self.prefetch_scratch;
            for &target in targets.iter().take(self.config.l1_prefetch_degree) {
                let t1 = self.l1d.access_traced(target);
                let t2 = self.l2.access_traced(target);
                prefetches_issued += 1;
                if let (Some(obs), Some(attr)) = (self.leakage.as_deref_mut(), attr) {
                    obs.record_trace(
                        t1,
                        CacheChangeKind::L1PrefetchFill,
                        CacheChangeKind::L1Eviction,
                        attr,
                    );
                    obs.record_trace(
                        t2,
                        CacheChangeKind::L2PrefetchFill,
                        CacheChangeKind::L2Eviction,
                        attr,
                    );
                }
            }
            for &target in targets.iter().take(self.config.l2_prefetch_degree) {
                let t2 = self.l2.access_traced(target);
                prefetches_issued += 1;
                if let (Some(obs), Some(attr)) = (self.leakage.as_deref_mut(), attr) {
                    obs.record_trace(
                        t2,
                        CacheChangeKind::L2PrefetchFill,
                        CacheChangeKind::L2Eviction,
                        attr,
                    );
                }
            }
        }

        AccessOutcome {
            latency,
            served_by,
            prefetches_issued,
        }
    }

    /// Attacker probe: whether `addr`'s line is resident in L1D (no state
    /// change).
    #[must_use]
    pub fn probe_l1d(&self, addr: u64) -> bool {
        self.l1d.probe(addr)
    }

    /// Total demand accesses observed.
    #[must_use]
    pub fn demand_accesses(&self) -> u64 {
        self.demand_accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_prefetch() -> MemoryHierarchy {
        let mut c = HierarchyConfig::rtl_default();
        c.l1_prefetch_degree = 0;
        c.l2_prefetch_degree = 0;
        MemoryHierarchy::new(c)
    }

    #[test]
    fn latency_ladder() {
        let mut m = no_prefetch();
        let dram = m.access(0x10000, None);
        assert_eq!(dram.served_by, ServedBy::Dram);
        assert_eq!(dram.latency, 4 + 14 + 80);
        let l1 = m.access(0x10000, None);
        assert_eq!(l1.served_by, ServedBy::L1);
        assert_eq!(l1.latency, 4);
    }

    #[test]
    fn l2_serves_after_l1_eviction() {
        let mut m = no_prefetch();
        m.access(0x0, None);
        // Thrash set 0 of the 64-set, 8-way L1 (stride = 64 sets * 64 B).
        for i in 1..=8u64 {
            m.access(i * 64 * 64, None);
        }
        let back = m.access(0x0, None);
        assert_eq!(back.served_by, ServedBy::L2, "L1 evicted, L2 retains");
    }

    #[test]
    fn streaming_gets_prefetched() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::rtl_default());
        let mut dram_hits_late = 0;
        let mut prefetches = 0;
        for i in 0..64u64 {
            let out = m.access(0x100000 + i * 64, None);
            if i >= 4 && out.served_by == ServedBy::Dram {
                dram_hits_late += 1;
            }
            prefetches += out.prefetches_issued;
        }
        assert_eq!(
            dram_hits_late, 0,
            "stride prefetcher must cover a pure streaming pattern"
        );
        // From the third access on, each installs 2 L1 + 4 L2 targets.
        assert_eq!(prefetches, 62 * 6);
    }

    #[test]
    fn abstract_fidelity_has_single_cycle_l1() {
        let c = HierarchyConfig::abstract_default();
        assert_eq!(c.l1d.latency, 1);
        assert_eq!(HierarchyConfig::rtl_default().l1d.latency, 4);
    }

    fn attr(seq: u64, speculative: bool, wrong_path: bool) -> Attribution {
        Attribution {
            seq: Seq::new(seq),
            speculative,
            wrong_path,
        }
    }

    #[test]
    fn attributed_miss_records_mshr_and_fills_then_resolves_transient() {
        let mut m = no_prefetch();
        m.attach_leakage_observer();
        m.access(0x4000_0040, Some(attr(5, true, true)));
        let obs = m.leakage_observer().expect("attached");
        let kinds: Vec<_> = obs.changes().iter().map(|c| c.kind).collect();
        assert_eq!(
            kinds,
            vec![
                CacheChangeKind::MshrAlloc,
                CacheChangeKind::L1Fill,
                CacheChangeKind::L2Fill
            ]
        );
        assert!(obs.transient_lines().is_empty(), "no squash reported yet");

        m.note_squash(Seq::new(5));
        // Eight unattributed lines 64 KiB apart share the line's L1 and L2
        // sets and evict it from both (8 ways each).
        for i in 1..=8u64 {
            m.access(0x4000_0040 + i * 0x1_0000, None);
        }
        // A replayed access after the squash gets a fresh (larger) seq and
        // must stay non-transient even though it touches the same line.
        let replay = m.access(0x4000_0040, Some(attr(9, false, false)));
        assert_eq!(replay.served_by, ServedBy::Dram);
        let obs = m.leakage_observer().unwrap();
        assert_eq!(
            obs.transient_lines().into_iter().collect::<Vec<_>>(),
            vec![0x4000_0040]
        );
        assert_eq!(obs.transient_changes().count(), 3);
        assert!(obs.changes().iter().any(|c| !c.is_transient()));
    }

    #[test]
    fn contention_observer_sees_mshr_occupancy_and_port_pressure() {
        let mut m = no_prefetch();
        m.attach_contention_observer();
        // Cold miss: MSHR held for the DRAM fill's full latency.
        let out = m.access(0x4000_0040, Some(attr(5, true, true)));
        m.note_port_use(attr(5, true, true));
        // Warm hit: a port use but no MSHR.
        m.access(0x4000_0040, Some(attr(6, true, true)));
        m.note_port_use(attr(6, true, true));
        m.note_squash(Seq::new(5));
        let obs = m.contention_observer().expect("attached");
        assert_eq!(obs.transient_port_uses(), 2);
        assert_eq!(obs.transient_mshr_cycles(), u64::from(out.latency));
        assert_eq!(
            obs.transient_mshr_slots(0x4000_0000, 64, 8)
                .into_iter()
                .collect::<Vec<_>>(),
            vec![1]
        );
        // One MSHR (the cold miss only) + two port uses.
        assert_eq!(obs.len(), 3);
    }

    #[test]
    fn detached_contention_observer_records_nothing() {
        let mut m = no_prefetch();
        m.note_port_use(attr(1, true, true));
        m.access(0x80, Some(attr(1, true, true)));
        assert!(m.contention_observer().is_none());
    }

    #[test]
    fn hits_record_no_cache_change() {
        let mut m = no_prefetch();
        m.access(0x80, None); // warm, unattributed
        m.attach_leakage_observer();
        m.access(0x80, Some(attr(1, true, true)));
        assert!(
            m.leakage_observer().unwrap().is_empty(),
            "a warm hit changes no recordable cache state"
        );
    }

    #[test]
    fn prefetch_fills_are_attributed_to_the_triggering_access() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::rtl_default());
        m.attach_leakage_observer();
        for (i, addr) in [0x10000u64, 0x10040, 0x10080].into_iter().enumerate() {
            m.access(addr, Some(attr(i as u64 + 1, true, true)));
        }
        let obs = m.leakage_observer().unwrap();
        let pf: Vec<_> = obs
            .changes()
            .iter()
            .filter(|c| {
                matches!(
                    c.kind,
                    CacheChangeKind::L1PrefetchFill | CacheChangeKind::L2PrefetchFill
                )
            })
            .collect();
        assert!(!pf.is_empty(), "stride stream must trigger prefetches");
        assert!(
            pf.iter().all(|c| c.attr.seq == Seq::new(3)),
            "prefetches charge to the access that triggered them"
        );
        m.note_squash(Seq::new(3));
        let lines = m.leakage_observer().unwrap().transient_lines();
        assert!(
            lines.contains(&0x100C0),
            "the prefetched-ahead line is a transient change: {lines:?}"
        );
    }

    #[test]
    fn unattributed_access_records_nothing_even_when_observed() {
        let mut m = no_prefetch();
        m.attach_leakage_observer();
        m.attach_contention_observer();
        let out = m.access(0x4000, None);
        assert_eq!(out.served_by, ServedBy::Dram, "a cold miss, unrecorded");
        assert!(m.leakage_observer().unwrap().is_empty());
        assert!(m.contention_observer().unwrap().is_empty());
    }

    #[test]
    fn probe_is_side_effect_free() {
        let mut m = no_prefetch();
        assert!(!m.probe_l1d(0x40));
        m.access(0x40, None);
        assert!(m.probe_l1d(0x40));
        assert_eq!(m.demand_accesses(), 1);
    }
}
