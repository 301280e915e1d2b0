//! The abstract interpreter: walks a kernel trace once, in program order,
//! and computes the transient cache/MSHR *events* every execution of the
//! kernel produces (`must`) and an over-approximation of the events any
//! execution could produce (`may`) — with zero simulation.
//!
//! The walk is a direct encoding of the paper's rules plus the memory
//! subsystem's deterministic side effects:
//!
//! * **Shadow windows.** A wrong-path block executes under a C-shadow; a
//!   load that bypasses an unresolved older store is *doomed* (D-shadow
//!   root) and dooms its dependents; under the Futuristic model any load
//!   issued while an older cold load is in flight carries an M-shadow.
//! * **Taint.** A shadowed load's destination is tainted; taint joins
//!   through compute ops and crosses store→load forwarding with the
//!   store's data operand.
//! * **Gating.** A secure scheme (either STT variant or NDA) blocks the
//!   speculative execution of any load whose address operand is tainted;
//!   the Baseline executes everything. The three secure schemes differ in
//!   *where* the gate sits (rename YRoT chain, issue-side taint unit,
//!   delayed broadcast) — not in *what* leaks, so the static verdict is
//!   scheme-independent beyond secure-vs-baseline. The walk therefore
//!   reads just two facts about a (scheme, threat model) cell: whether
//!   the scheme gates (`Scheme::is_secure`) and whether the model tracks
//!   M-shadows; cells that agree on both share one verdict.
//! * **The memory side.** Warmth (hit/miss), demand-miss MSHR
//!   allocations and per-set occupancy → LRU eviction victims are
//!   replayed abstractly over `sb_mem`'s geometry (read from
//!   [`HierarchyConfig::rtl_default`], never duplicated); the stride
//!   prefetcher is not modelled at all but driven: the walk feeds every
//!   access to `sb_mem`'s own [`StridePrefetcher`] and installs what it
//!   emits.
//!
//! See `docs/ARCHITECTURE.md` ("Static security analysis") for the
//! soundness argument and the known over-approximation sources.

use crate::lattice::{AbsVal, Latency};
use sb_core::{Scheme, ShadowKind, ThreatModel};
use sb_isa::{ArchReg, MemAccess, MicroOp, MixHasher, OpClass, NUM_ARCH_REGS};
use sb_mem::{HierarchyConfig, StridePrefetcher};
use sb_uarch::Predictor;
use sb_workloads::{AttackKernel, ChannelKind, ProbeChannel};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::BuildHasherDefault;

type Mix = BuildHasherDefault<MixHasher>;

/// A set of cache lines.
type LineSet = HashSet<u64, Mix>;

/// Per-cache-set resident lines in LRU order (front = victim), keyed by
/// set index.
type SetLists = HashMap<u64, Vec<u64>, Mix>;

/// The static verdict for one (kernel, scheme, threat-model) cell: two
/// leak sets over the kernel's probe channel, bracketing every dynamic
/// measurement (`must ⊆ dynamic ⊆ may`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaticLeaks {
    /// Slots every execution leaks: demand-cold transient accesses plus
    /// the guaranteed one-stride prefetch run-ahead of each confident
    /// transient stream, plus deterministic eviction victims.
    pub must: BTreeSet<usize>,
    /// Slots any execution could leak: `must` plus the full prefetch
    /// run-ahead (to the deeper L2 degree) from every confident access.
    pub may: BTreeSet<usize>,
}

/// Cache geometry the abstract memory model replays, taken from the same
/// [`HierarchyConfig`] the simulator runs with so the two can never
/// drift.
#[derive(Clone, Copy, Debug)]
struct Geometry {
    line_shift: u32,
    l1_sets: u64,
    l1_ways: usize,
    l2_sets: u64,
    l2_ways: usize,
    l1_degree: usize,
    l2_degree: usize,
}

impl Geometry {
    fn from_config(h: &HierarchyConfig) -> Self {
        assert_eq!(
            h.l1d.line_bytes, h.l2.line_bytes,
            "the abstract model assumes one line size across levels"
        );
        Geometry {
            line_shift: h.l1d.line_bytes.trailing_zeros(),
            l1_sets: h.l1d.sets as u64,
            l1_ways: h.l1d.ways,
            l2_sets: h.l2.sets as u64,
            l2_ways: h.l2.ways,
            l1_degree: h.l1_prefetch_degree,
            l2_degree: h.l2_prefetch_degree,
        }
    }

    fn line(self, addr: u64) -> u64 {
        addr >> self.line_shift
    }
}

/// A pending (not yet architecturally drained) store and the abstract
/// facts forwarding and bypass detection need about it.
#[derive(Clone, Copy, Debug)]
struct PendingStore {
    mem: MemAccess,
    addr_lat: Latency,
    data_tainted: bool,
    data_doomed: bool,
}

/// The full abstract machine state at one program point. The line sets
/// and set lists are only probed point-wise, never iterated, so they
/// hash.
#[derive(Debug)]
struct AbsState {
    regs: [AbsVal; NUM_ARCH_REGS],
    /// Lines resident in L1 (demand fills and prefetch installs).
    warm_l1: LineSet,
    /// Lines resident in L2.
    warm_l2: LineSet,
    /// Lines touched by *demand* accesses — the warmth notion the
    /// hand-written claim signatures are defined against (a prefetcher
    /// pre-warming a burst line converts its demand fill into a prefetch
    /// install; the slot still leaks either way).
    warm_demand: LineSet,
    /// Per-L1-set resident lines in LRU order.
    l1_sets: SetLists,
    /// Per-L2-set resident lines in LRU order.
    l2_sets: SetLists,
    /// The stride prefetcher's stream table: `sb_mem`'s own, one table
    /// for both levels at the larger degree (`None` when both are 0).
    prefetcher: Option<StridePrefetcher>,
    /// Recycled buffer for the prefetcher's targets.
    prefetch_scratch: Vec<u64>,
    /// Whether an older demand-cold load is (abstractly) still in
    /// flight — the M-shadow condition for younger loads.
    older_cold_load: bool,
    stores: Vec<PendingStore>,
    /// Every LRU eviction so far as `(level, set, victim)`, in order, so
    /// a squash can put back the victims its wrong-path block evicted.
    evictions: Vec<(Level, u64, u64)>,
}

/// What a squash restores: the registers, the store-queue length, the
/// M-shadow flag and the per-set LRU lists (by eviction-log length).
/// Wrong-path fills (`warm_*`) and prefetcher training are *not* rolled
/// back — the persisting fills are the side channel.
#[derive(Clone, Copy)]
struct Checkpoint {
    regs: [AbsVal; NUM_ARCH_REGS],
    stores: usize,
    older_cold_load: bool,
    evictions: usize,
}

impl AbsState {
    /// An empty state for a trace of `ops` micro-ops, with the
    /// containers pre-sized to that bound on its correct-path accesses.
    /// Each access can also install one line per prefetch degree.
    fn new(ops: usize, geom: Geometry) -> Self {
        let lines =
            |per_access| LineSet::with_capacity_and_hasher(ops * per_access, Mix::default());
        let sets = || SetLists::with_capacity_and_hasher(ops, Mix::default());
        AbsState {
            regs: [AbsVal::default(); NUM_ARCH_REGS],
            warm_l1: lines(1 + geom.l1_degree),
            warm_l2: lines(1 + geom.l2_degree),
            warm_demand: lines(1),
            l1_sets: sets(),
            l2_sets: sets(),
            prefetcher: {
                let degree = geom.l1_degree.max(geom.l2_degree);
                (degree > 0).then(|| StridePrefetcher::new(degree))
            },
            prefetch_scratch: Vec::new(),
            older_cold_load: false,
            stores: Vec::new(),
            evictions: Vec::new(),
        }
    }

    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            regs: self.regs,
            stores: self.stores.len(),
            older_cold_load: self.older_cold_load,
            evictions: self.evictions.len(),
        }
    }

    /// Rolls the squash-restored parts of the state back to `cp`.
    fn squash(&mut self, cp: Checkpoint) {
        self.regs = cp.regs;
        self.stores.truncate(cp.stores);
        self.older_cold_load = cp.older_cold_load;
        for (level, set, victim) in self.evictions.drain(cp.evictions..).rev() {
            let sets = match level {
                Level::L1 => &mut self.l1_sets,
                Level::L2 => &mut self.l2_sets,
            };
            sets.get_mut(&set)
                .expect("an eviction leaves its set list in place")
                .insert(0, victim);
        }
    }

    fn val(&self, r: Option<ArchReg>) -> AbsVal {
        r.filter(|r| !r.is_zero())
            .map_or_else(AbsVal::default, |r| self.regs[r.index()])
    }

    fn set(&mut self, r: ArchReg, v: AbsVal) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }
}

/// Transient event addresses, accumulated across the whole walk.
#[derive(Debug, Default)]
struct Events {
    cache_must: BTreeSet<u64>,
    cache_may: BTreeSet<u64>,
    /// Demand L1-miss MSHR allocations (deterministic: must = may).
    mshr: BTreeSet<u64>,
    /// Predictor-table indices touched by *transient* branch training
    /// (PHT counter moves, BTB fills/evictions). The replayed predictor
    /// is deterministic, so must = may.
    pred: BTreeSet<u64>,
}

/// Per-transient-episode bookkeeping: the one-stride run-ahead target of
/// each confident stream, resolved into `must` when the episode ends
/// (the *final* target per region is the guaranteed install).
#[derive(Debug, Default)]
struct Episode {
    runahead: BTreeMap<u64, u64>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Walk {
    /// Architectural program order (ops may still be doomed → transient).
    Correct,
    /// Inside a wrong-path block under a mispredicted branch (C-shadow).
    WrongPath,
}

struct Interp {
    geom: Geometry,
    /// Whether the scheme gates tainted transmitters (any secure scheme).
    gated: bool,
    /// Whether the threat model tracks M-shadows.
    tracks_m: bool,
}

impl Interp {
    /// Whether a speculative load with address value `addr` executes at
    /// all: the Baseline executes everything; every secure scheme gates a
    /// transmitter whose address operand is tainted.
    fn executes(&self, addr: AbsVal) -> bool {
        !(self.gated && addr.tainted)
    }

    /// Whether a load at this program point returns *speculative* data
    /// that the threat model tracks: wrong-path (C), doomed (D), or —
    /// under a model tracking M-shadows — issued while an older cold
    /// load is abstractly still in flight.
    fn speculative(&self, st: &AbsState, walk: Walk, addr: AbsVal) -> bool {
        walk == Walk::WrongPath || addr.doomed || (self.tracks_m && st.older_cold_load)
    }

    fn step(&self, st: &mut AbsState, op: &MicroOp, walk: Walk, ev: &mut Events, ep: &mut Episode) {
        match op.class() {
            OpClass::Load => self.step_load(st, op, walk, ev, ep),
            OpClass::Store => {
                let mem = op.mem().expect("store carries a MemAccess");
                let addr = st.val(op.addr_source());
                let data = st.val(op.data_source());
                st.stores.push(PendingStore {
                    mem,
                    addr_lat: addr.lat,
                    data_tainted: data.tainted,
                    data_doomed: data.doomed,
                });
            }
            OpClass::Branch | OpClass::Nop => {}
            _ => {
                if let Some(d) = op.dest() {
                    let mut v = op
                        .sources()
                        .fold(AbsVal::default(), |acc, r| acc.join(st.val(Some(r))));
                    v.lat = v.lat.join(Latency::of_compute(op.class()));
                    st.set(d, v);
                }
            }
        }
    }

    fn step_load(
        &self,
        st: &mut AbsState,
        op: &MicroOp,
        walk: Walk,
        ev: &mut Events,
        ep: &mut Episode,
    ) {
        let mem = op.mem().expect("load carries a MemAccess");
        let addr = st.val(op.addr_source());
        let dest = op.dest();

        // Store→load aliasing against the youngest older overlapping
        // pending store (the LSU's search order).
        if let Some(s) = st
            .stores
            .iter()
            .rev()
            .find(|s| s.mem.overlaps(&mem))
            .copied()
        {
            if s.addr_lat == Latency::Slow && addr.lat != Latency::Slow {
                // Speculative store bypass: the load's address is ready
                // long before the store's resolves, so it reads stale
                // memory, will be squashed and replayed — a D-shadow
                // root. Its first execution (and its dependents') is
                // transient.
                let lat = if self.executes(addr) {
                    self.transient_access(st, mem.addr, ev, ep)
                } else {
                    Latency::Slow
                };
                if let Some(d) = dest {
                    st.set(
                        d,
                        AbsVal {
                            lat,
                            tainted: true,
                            doomed: true,
                        },
                    );
                }
            } else {
                // Clean forward: the value crosses the store queue
                // without touching the cache. Taint crosses with the
                // store's data operand, and the load's own speculative
                // status (the M-shadow case) taints the result too.
                let spec = self.speculative(st, walk, addr);
                if let Some(d) = dest {
                    st.set(
                        d,
                        AbsVal {
                            lat: Latency::Fast,
                            tainted: s.data_tainted || spec || addr.tainted,
                            doomed: s.data_doomed || addr.doomed,
                        },
                    );
                }
            }
            return;
        }

        let transient = walk == Walk::WrongPath || addr.doomed;
        let spec = self.speculative(st, walk, addr);
        let v = if transient {
            if self.executes(addr) {
                let lat = self.transient_access(st, mem.addr, ev, ep);
                AbsVal {
                    lat,
                    tainted: spec || addr.tainted,
                    doomed: addr.doomed,
                }
            } else {
                // Gated: the value never arrives inside the window; the
                // destination stays tainted so dependents stay gated.
                AbsVal {
                    lat: Latency::Slow,
                    tainted: true,
                    doomed: addr.doomed,
                }
            }
        } else {
            let lat = self.committed_access(st, mem.addr);
            AbsVal {
                lat,
                tainted: spec || addr.tainted,
                doomed: false,
            }
        };
        if let Some(d) = dest {
            st.set(d, v);
        }
    }

    /// An architectural (committed, non-transient) demand access: warms
    /// the hierarchy, updates LRU order and trains the prefetchers —
    /// producing no transient events.
    fn committed_access(&self, st: &mut AbsState, addr: u64) -> Latency {
        let line = self.geom.line(addr);
        let hit = st.warm_l1.contains(&line);
        if !hit {
            // A demand miss keeps this load in flight for a long window:
            // the M-shadow condition for every younger load, and a Slow
            // result.
            st.older_cold_load = true;
            st.warm_l1.insert(line);
            st.warm_l2.insert(line);
        }
        st.warm_demand.insert(line);
        touch_lru(
            st.l1_sets
                .entry(line & (self.geom.l1_sets - 1))
                .or_default(),
            line,
        );
        touch_lru(
            st.l2_sets
                .entry(line & (self.geom.l2_sets - 1))
                .or_default(),
            line,
        );
        self.train_streams(st, addr, None, None);
        if hit {
            Latency::Fast
        } else {
            Latency::Slow
        }
    }

    /// A transient demand access: records the events the hand-written
    /// claims are defined over (demand-cold fill, MSHR allocation,
    /// deterministic eviction victims) and trains the prefetchers with
    /// emissions going to `may` (final run-ahead to `must` via the
    /// episode).
    fn transient_access(
        &self,
        st: &mut AbsState,
        addr: u64,
        ev: &mut Events,
        ep: &mut Episode,
    ) -> Latency {
        let line = self.geom.line(addr);
        if st.warm_demand.insert(line) {
            // First demand touch of this line in the kernel: whether the
            // hierarchy serves it as a demand fill or it was pre-warmed
            // by the prefetcher, the line's install is transient-
            // attributed — the claim signature counts it either way.
            ev.cache_must.insert(addr);
            ev.cache_may.insert(addr);
        }
        let hit = st.warm_l1.contains(&line);
        if !hit {
            // A real demand L1 miss allocates an MSHR for the full fill
            // latency — the contention channel.
            ev.mshr.insert(addr);
            st.warm_l1.insert(line);
            self.evict(st, Level::L1, line, ev, true);
        }
        if st.warm_l2.insert(line) {
            self.evict(st, Level::L2, line, ev, true);
        }
        self.train_streams(st, addr, Some(ev), Some(ep));
        if hit {
            Latency::Fast
        } else {
            Latency::Slow
        }
    }

    /// If `line`'s set at `level` is full of resident lines, the fill
    /// evicts the LRU front — a deterministic, observable victim.
    fn evict(&self, st: &mut AbsState, level: Level, line: u64, ev: &mut Events, must: bool) {
        let (sets, ways, set) = match level {
            Level::L1 => (
                &mut st.l1_sets,
                self.geom.l1_ways,
                line & (self.geom.l1_sets - 1),
            ),
            Level::L2 => (
                &mut st.l2_sets,
                self.geom.l2_ways,
                line & (self.geom.l2_sets - 1),
            ),
        };
        let Some(list) = sets.get_mut(&set) else {
            return;
        };
        if list.len() >= ways && !list.contains(&line) {
            let victim = list.remove(0);
            st.evictions.push((level, set, victim));
            let victim_addr = victim << self.geom.line_shift;
            ev.cache_may.insert(victim_addr);
            if must {
                ev.cache_must.insert(victim_addr);
            }
        }
    }

    /// Feeds `addr` to the stride prefetcher — `sb_mem`'s own
    /// [`StridePrefetcher`], so the table, its training and its capacity
    /// clear are the simulator's by construction. Target `i` installs into
    /// L1 (and L2) while `i < l1_degree` and into L2 alone up to the L2
    /// degree, as `MemoryHierarchy` does. On transient walks each target
    /// is also a `may` event, and the first (the one-stride target) is
    /// the episode's guaranteed run-ahead.
    fn train_streams(
        &self,
        st: &mut AbsState,
        addr: u64,
        ev: Option<&mut Events>,
        ep: Option<&mut Episode>,
    ) {
        let Some(pf) = st.prefetcher.as_mut() else {
            return;
        };
        let mut targets = std::mem::take(&mut st.prefetch_scratch);
        targets.clear();
        pf.observe_into(addr, &mut targets);
        let mut ev = ev;
        for (i, &target) in targets.iter().enumerate() {
            let line = self.geom.line(target);
            let into_l1 = i < self.geom.l1_degree;
            if into_l1 {
                st.warm_l1.insert(line);
            }
            st.warm_l2.insert(line);
            if let Some(ev) = ev.as_deref_mut() {
                ev.cache_may.insert(target);
                self.evict(st, Level::L2, line, ev, false);
                if into_l1 {
                    self.evict(st, Level::L1, line, ev, false);
                }
            }
        }
        if let (Some(ep), Some(&first)) = (ep, targets.first()) {
            ep.runahead.insert(addr >> 12, first);
        }
        st.prefetch_scratch = targets;
    }

    /// Resolves a transient episode's guaranteed prefetch run-ahead: the
    /// final one-stride target of each stream that got confident, unless
    /// a later demand access of the episode already claimed the line.
    fn flush_episode(&self, st: &AbsState, ep: &Episode, ev: &mut Events) {
        for &target in ep.runahead.values() {
            if !st.warm_demand.contains(&self.geom.line(target)) {
                ev.cache_must.insert(target);
                ev.cache_may.insert(target);
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Level {
    L1,
    L2,
}

/// Demand-touch LRU update: re-touching moves a line to the MRU back,
/// a first touch appends it.
fn touch_lru(list: &mut Vec<u64>, line: u64) {
    if let Some(pos) = list.iter().position(|&l| l == line) {
        list.remove(pos);
    }
    list.push(line);
}

/// Decodes raw event addresses through a probe channel, mirroring the
/// dynamic observers' slot arithmetic (shared via
/// [`ProbeChannel::slot_of_addr`]).
fn decode(events: &BTreeSet<u64>, c: ProbeChannel) -> BTreeSet<usize> {
    events.iter().filter_map(|&a| c.slot_of_addr(a)).collect()
}

/// Statically computes the `(must, may)` leak-slot bracket for one
/// battery kernel under one scheme and threat model — zero cycles
/// simulated.
///
/// # Example
///
/// ```
/// use sb_analysis::analyze_kernel;
/// use sb_core::{Scheme, ThreatModel};
/// use sb_workloads::spectre_v1_kernel;
///
/// let k = spectre_v1_kernel(3);
/// let base = analyze_kernel(&k, Scheme::Baseline, ThreatModel::Spectre);
/// assert!(base.must.contains(&3));
/// let stt = analyze_kernel(&k, Scheme::SttIssue, ThreatModel::Spectre);
/// assert!(stt.may.is_empty());
/// ```
#[must_use]
pub fn analyze_kernel(kernel: &AttackKernel, scheme: Scheme, model: ThreatModel) -> StaticLeaks {
    analyze(kernel, scheme.is_secure(), model.tracks(ShadowKind::Memory))
}

/// The walk behind [`analyze_kernel`], keyed by the only two facts about
/// a (scheme, threat model) cell the rules read: whether the scheme gates
/// tainted transmitters and whether the model tracks M-shadows.
pub(crate) fn analyze(kernel: &AttackKernel, gated: bool, tracks_m: bool) -> StaticLeaks {
    let interp = Interp {
        geom: Geometry::from_config(&HierarchyConfig::rtl_default()),
        gated,
        tracks_m,
    };
    let mut st = AbsState::new(kernel.trace.len(), interp.geom);
    let mut ev = Events::default();
    // When the kernel asks for a modelled frontend predictor, replay the
    // *same* `sb_uarch::Predictor` the core instantiates, in program
    // order. Correct-path branches then take their mispredict decision
    // from the replayed tables — the trace's static bit becomes training
    // ground truth, exactly as in the core — and transient branches that
    // execute leave training events the squash never rolls back.
    let mut pred = kernel
        .predictor
        .map(|p| Predictor::new(p.pht_entries, p.btb_entries, p.ghr_bits));
    // The main walk is one long episode: doomed (store-bypass) ops
    // execute transiently on the architectural path.
    let mut main_ep = Episode::default();
    for (idx, op) in kernel.trace.iter().enumerate() {
        interp.step(&mut st, op, Walk::Correct, &mut ev, &mut main_ep);
        let mut mispredicted = op.is_mispredicted();
        if let (Some(pred), Some(ctrl)) = (pred.as_mut(), op.ctrl()) {
            mispredicted = pred.mispredicts(ctrl.pc, ctrl.taken, ctrl.target);
            pred.shift_ghr(ctrl.taken);
            // Architectural training: predictor state moves, but the
            // events are not transient-attributed and never leak.
            let pht_idx = pred.pht_index(ctrl.pc);
            pred.train(pht_idx, ctrl.pc, ctrl.taken, ctrl.target);
        }
        if mispredicted {
            if let Some(block) = kernel.trace.wrong_path(idx) {
                let cp = st.checkpoint();
                let mut ep = Episode::default();
                for wop in &block.ops {
                    interp.step(&mut st, wop, Walk::WrongPath, &mut ev, &mut ep);
                    if let (Some(pred), Some(ctrl)) = (pred.as_mut(), wop.ctrl()) {
                        // A transient branch is a transmitter: under a
                        // secure scheme a tainted operand gates its
                        // execution, so it never resolves — and never
                        // trains — inside the window.
                        let operand = wop
                            .sources()
                            .fold(AbsVal::default(), |acc, r| acc.join(st.val(Some(r))));
                        if interp.executes(operand) {
                            let pht_idx = pred.pht_index(ctrl.pc);
                            let evs = pred.train(pht_idx, ctrl.pc, ctrl.taken, ctrl.target);
                            for (_, a) in evs.iter() {
                                ev.pred.insert(a);
                            }
                        }
                    }
                }
                interp.flush_episode(&st, &ep, &mut ev);
                // The block ran on the live state. Squash restores
                // registers, the store queue and the LRU lists, but
                // wrong-path fills persist in the cache (that IS the side
                // channel) and prefetcher training survives too.
                st.squash(cp);
            }
        }
    }
    interp.flush_episode(&st, &main_ep, &mut ev);

    let c = kernel.channel;
    let (must, may) = match kernel.channel_kind {
        ChannelKind::CacheState => (decode(&ev.cache_must, c), decode(&ev.cache_may, c)),
        // MSHR occupancy only counts demand misses (prefetches allocate
        // no MSHR in the model), deterministically: must = may.
        ChannelKind::MshrContention => (decode(&ev.mshr, c), decode(&ev.mshr, c)),
        // Predictor-state training is a deterministic replay of the
        // core's own tables: must = may.
        ChannelKind::PredictorState => (decode(&ev.pred, c), decode(&ev.pred, c)),
    };
    StaticLeaks { must, may }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_workloads::fuzz_attacks::fuzz_battery;
    use sb_workloads::{
        attack_battery, m_shadow_kernel, mshr_contention_kernel, prime_probe_kernel,
        spectre_v1_kernel, spectre_v1_prefetch_kernel, ssb_kernel,
    };

    const SECRET: usize = 11;

    fn leaks(k: &AttackKernel, scheme: Scheme, model: ThreatModel) -> StaticLeaks {
        analyze_kernel(k, scheme, model)
    }

    /// The battery at the CI secret plus 16 fuzzed variants of it.
    fn batteries() -> impl Iterator<Item = AttackKernel> {
        attack_battery(SECRET)
            .into_iter()
            .chain((0..16).flat_map(fuzz_battery))
    }

    #[test]
    fn baseline_must_equals_expected_on_every_battery_kernel() {
        for k in attack_battery(SECRET) {
            let l = leaks(&k, Scheme::Baseline, ThreatModel::Spectre);
            let must: Vec<usize> = l.must.iter().copied().collect();
            let may: Vec<usize> = l.may.iter().copied().collect();
            assert_eq!(
                must,
                k.expected_slots,
                "must ≠ expected for {}",
                k.trace.name()
            );
            assert_eq!(may, k.allowed_slots, "may ≠ allowed for {}", k.trace.name());
        }
    }

    #[test]
    fn secure_schemes_block_all_claimed_spectre_kernels() {
        for k in attack_battery(SECRET) {
            for scheme in Scheme::secure() {
                for model in ThreatModel::all() {
                    let l = leaks(&k, scheme, model);
                    if k.claimed_under(model) {
                        assert!(
                            l.may.is_empty(),
                            "{} under {scheme}/{model} must be blocked, got {:?}",
                            k.trace.name(),
                            l.may
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn must_is_always_contained_in_may() {
        for k in attack_battery(SECRET) {
            for scheme in Scheme::all() {
                for model in ThreatModel::all() {
                    let l = leaks(&k, scheme, model);
                    assert!(
                        l.must.is_subset(&l.may),
                        "must ⊄ may for {} {scheme} {model}",
                        k.trace.name()
                    );
                }
            }
        }
    }

    #[test]
    fn m_shadow_separates_the_threat_models() {
        let k = m_shadow_kernel(SECRET);
        for scheme in Scheme::secure() {
            let spectre = leaks(&k, scheme, ThreatModel::Spectre);
            assert_eq!(
                spectre.must.iter().copied().collect::<Vec<_>>(),
                vec![SECRET],
                "the Spectre model does not track M-shadows — {scheme} leaks"
            );
            let fut = leaks(&k, scheme, ThreatModel::Futuristic);
            assert!(
                fut.may.is_empty(),
                "Futuristic claims the M-shadow scenario, {scheme} must block"
            );
        }
    }

    #[test]
    fn prefetch_amplification_brackets_direct_and_run_ahead() {
        let k = spectre_v1_prefetch_kernel(SECRET);
        let l = leaks(&k, Scheme::Baseline, ThreatModel::Spectre);
        // Three direct lines plus the guaranteed one-stride run-ahead.
        let must: Vec<usize> = l.must.iter().copied().collect();
        assert_eq!(must, (SECRET..=SECRET + 3).collect::<Vec<_>>());
        // The worst case reaches the L2 degree past the last access.
        let may: Vec<usize> = l.may.iter().copied().collect();
        assert_eq!(may, (SECRET..=SECRET + 6).collect::<Vec<_>>());
    }

    #[test]
    fn prime_probe_leaks_the_eviction_victim_not_the_fill() {
        let k = prime_probe_kernel(SECRET);
        let l = leaks(&k, Scheme::Baseline, ThreatModel::Spectre);
        // The transient fill itself decodes out of the eviction-set
        // channel's range; only the way-0 victim of the target set is
        // visible.
        assert_eq!(l.must.iter().copied().collect::<Vec<_>>(), vec![SECRET]);
        assert_eq!(l.may.iter().copied().collect::<Vec<_>>(), vec![SECRET]);
    }

    #[test]
    fn mshr_channel_counts_demand_misses_only() {
        let k = mshr_contention_kernel(SECRET);
        let l = leaks(&k, Scheme::Baseline, ThreatModel::Spectre);
        assert_eq!(l.must, l.may, "MSHR channel is deterministic");
        assert_eq!(l.must.iter().copied().collect::<Vec<_>>(), vec![SECRET]);
    }

    #[test]
    fn ssb_bypass_dooms_the_dependent_transmit() {
        let k = ssb_kernel(SECRET);
        let base = leaks(&k, Scheme::Baseline, ThreatModel::Spectre);
        assert_eq!(base.must.iter().copied().collect::<Vec<_>>(), vec![SECRET]);
        for scheme in Scheme::secure() {
            let l = leaks(&k, scheme, ThreatModel::Spectre);
            assert!(l.may.is_empty(), "{scheme} must gate the doomed transmit");
        }
    }

    #[test]
    fn verdict_is_identical_across_secure_schemes() {
        // The three secure schemes differ in mechanism, not in what
        // leaks: the static verdict must not distinguish them.
        for k in batteries() {
            for model in ThreatModel::all() {
                let reference = leaks(&k, Scheme::SttRename, model);
                for scheme in [Scheme::SttIssue, Scheme::Nda] {
                    assert_eq!(
                        leaks(&k, scheme, model),
                        reference,
                        "{} verdict differs between secure schemes",
                        k.trace.name()
                    );
                }
            }
        }
    }

    #[test]
    fn baseline_verdict_is_identical_across_threat_models() {
        // The Baseline gates nothing, so taint (the only thing the
        // M-shadow rule adds) never changes what executes: both models
        // must agree. With the test above, this pins the audit's two-walk
        // reduction.
        for k in batteries() {
            assert_eq!(
                leaks(&k, Scheme::Baseline, ThreatModel::Spectre),
                leaks(&k, Scheme::Baseline, ThreatModel::Futuristic),
                "{} Baseline verdict depends on the threat model",
                k.trace.name()
            );
        }
    }

    #[test]
    fn squash_restores_registers_and_lru_but_keeps_fills() {
        // No battery kernel touches a set again after a wrong-path
        // eviction, so the verdict tests cannot see the LRU restore:
        // check the checkpoint directly.
        let interp = Interp {
            geom: Geometry::from_config(&HierarchyConfig::rtl_default()),
            gated: false,
            tracks_m: false,
        };
        let g = interp.geom;
        let mut st = AbsState::new(0, g);
        let mut ev = Events::default();
        // One committed line per 4 KiB region, all in L1 set 0, fills the
        // set without training a prefetcher stream.
        let addr = |way: usize| ((way as u64) * g.l1_sets) << g.line_shift;
        for way in 0..g.l1_ways {
            interp.committed_access(&mut st, addr(way));
        }
        let lru = st.l1_sets[&0].clone();
        let regs = st.regs;
        let cp = st.checkpoint();
        let ninth = addr(g.l1_ways);
        interp.transient_access(&mut st, ninth, &mut ev, &mut Episode::default());
        st.set(
            ArchReg::int(5),
            AbsVal {
                lat: Latency::Slow,
                tainted: true,
                doomed: false,
            },
        );
        assert_eq!(st.l1_sets[&0], lru[1..], "the fill evicts the LRU front");
        st.squash(cp);
        assert_eq!(st.l1_sets[&0], lru, "the victim is back at the front");
        assert_eq!(st.regs, regs);
        assert!(st.warm_l1.contains(&g.line(ninth)), "the fill persists");
        assert!(ev.cache_must.contains(&addr(0)), "the victim leaked");
    }

    #[test]
    fn v2_predictor_replay_pins_the_trained_index() {
        // The replayed predictor is deterministic: both PredictorState
        // kernels leak exactly PHT/BTB index `secret`, and the secure
        // schemes gate the tainted transient branch before it trains.
        for k in [
            sb_workloads::spectre_v2_pht_kernel(SECRET),
            sb_workloads::spectre_v2_squash_kernel(SECRET),
        ] {
            let base = leaks(&k, Scheme::Baseline, ThreatModel::Spectre);
            assert_eq!(
                base.must.iter().copied().collect::<Vec<_>>(),
                vec![SECRET],
                "{}",
                k.trace.name()
            );
            assert_eq!(base.must, base.may, "predictor replay is deterministic");
            for scheme in Scheme::secure() {
                let l = leaks(&k, scheme, ThreatModel::Spectre);
                assert!(
                    l.may.is_empty(),
                    "{} under {scheme}: a gated branch must not train",
                    k.trace.name()
                );
            }
        }
    }

    #[test]
    fn v2_btb_injection_window_comes_from_the_replayed_tables() {
        // The BTB-injection kernel's window branch is opened by the
        // *dynamic* tag mismatch the attacker's cross-training causes;
        // the replay reproduces it and the v1-style cache transmit leaks.
        let k = sb_workloads::spectre_v2_btb_kernel(SECRET);
        let base = leaks(&k, Scheme::Baseline, ThreatModel::Spectre);
        assert_eq!(base.must.iter().copied().collect::<Vec<_>>(), vec![SECRET]);
        for scheme in Scheme::secure() {
            assert!(leaks(&k, scheme, ThreatModel::Spectre).may.is_empty());
        }
    }

    #[test]
    fn spectre_v1_single_slot() {
        let k = spectre_v1_kernel(5);
        let l = leaks(&k, Scheme::Baseline, ThreatModel::Spectre);
        assert_eq!(l.must.iter().copied().collect::<Vec<_>>(), vec![5]);
        assert_eq!(l.may, l.must);
    }
}
