//! The cycle-level out-of-order core.
//!
//! One [`Core`] simulates one workload trace on one configuration under one
//! secure-speculation scheme. Stages are evaluated oldest-work-first each
//! cycle: commit, shadow resolution, writeback, issue (wakeup/select with
//! scheme gates), broadcast drain, and rename/dispatch. The scheme
//! mechanisms themselves live in `sb-core`; this module wires them into the
//! pipeline at the points §4 and §5 of the paper describe.
//!
//! # Scheduler architecture
//!
//! The simulator ships two wakeup/select implementations selected by
//! [`CoreConfig::scheduler`], producing cycle-for-cycle identical
//! [`SimStats`] (guarded by the `golden_stats` differential test):
//!
//! * [`SchedulerKind::Reference`] — the straightforward model: every cycle
//!   walks the whole ROB looking for issuable entries, every load re-scans
//!   all older stores, and every store-address completion re-scans all
//!   younger loads. Per-cycle cost is O(ROB) to O(ROB²) — simple, and kept
//!   as the oracle.
//! * [`SchedulerKind::EventWheel`] (default) — per-cycle work proportional
//!   to *events*: an age-ordered ready ring (a two-bit-per-slot bitmap in
//!   packed age order) fed by per-physical-register waiter lists (wakeup
//!   touches only instructions whose operand just became ready), a
//!   taint-masked parking lot keyed by youngest root of taint (drained as
//!   the untaint visibility point advances), per-store waiter lists for
//!   loads the LSU refused, dispatch-time LQ/SQ queue marks that slice
//!   the store-search and forwarding-error scans directly (no per-load
//!   binary search), per-preg dependent counts making the
//!   load-hit-speculation replay check O(1), a bucketed calendar queue
//!   replacing the `BTreeMap` event queue, and idle-cycle fast-forward
//!   (provably empty cycles jump straight to the next scheduled event,
//!   replicating their stall statistics). Operand-ready parts enter the
//!   ready ring directly at dispatch; the age-ordered scan stops at the
//!   first entry below the minimum issue age (dispatch cycles are
//!   monotone in arrival order), which removes the per-op retry-wake
//!   round trip entirely.
//!
//! # Instruction layout
//!
//! The ROB is a fixed-capacity arena ([`crate::rob::RobArena`]) of
//! in-place slots, split into a hot, cache-line-sized scheduling record
//! ([`HotInst`], ≤64 bytes — the only thing the per-cycle loops touch)
//! and a cold sidecar ([`ColdInst`]: the decoded micro-op, squash-walk
//! rename state, shadow tokens). Dispatch constructs entries directly in
//! the slab, commit and squash move window bounds instead of moving
//! instructions, and every cross-container reference is a
//! generation-checked [`RobHandle`] so recycled slots can never be read
//! through a stale reference. See `docs/ARCHITECTURE.md` for the
//! field-by-field split and the measured effect.
//!
//! When the split was made (single shared CPU, Mega × STT-Issue), the
//! event wheel simulated ≈2.2× more micro-ops per second than the
//! reference scheduler on compute-bound profiles (gcc/imagick-like) and
//! ≈4× on memory-bound profiles where the ROB stays full (mcf-like); the
//! wheel itself got ≈1.35× faster on gcc-like profiles. The repository
//! benchmark (`perfbench/`, see `BENCHMARK.json`) tracks the per-op cost
//! of every core size as `uarch.ns_per_op.{small,medium,large,mega}`.
//!
//! # Modelled behaviours
//!
//! Notable modelled behaviours, each traceable to a paper section:
//! * STT-Rename computes YRoTs for a whole dispatch group through the
//!   same-cycle chain (§4.1, Figure 3) and gates transmitters on untaint
//!   *broadcasts*, which lag the visibility point by a cycle (§9.1).
//! * STT-Issue computes YRoTs live at select; a tainted transmitter wastes
//!   its issue slot as a nop (§4.3 step 4) and is masked until broadcast.
//! * Stores are unified micro-ops that can partially issue; under
//!   STT-Rename the unified YRoT blocks address generation when only the
//!   data operand is tainted — the `exchange2` forwarding-error pathology
//!   (§9.2). The `split_store_taints` ablation lifts this.
//! * NDA decouples load data writeback from broadcast; speculative loads
//!   broadcast only when the visibility point passes them, at most
//!   memory-width broadcasts per cycle (§5.1), and NDA drops speculative
//!   load-hit scheduling.
//! * Every memory access carries an `sb_mem::Attribution` (sequence
//!   number, speculative-at-access, wrong-path) and squashes are reported
//!   to the hierarchy, so an attached `sb_mem::LeakageObserver` can
//!   charge each cache-state change to its instruction and resolve which
//!   changes were transient — the `verify-security` battery's ground
//!   truth. The issue paths additionally report every memory-port
//!   consumption (load issue, store address generation, forwarding slot)
//!   to an attached `sb_mem::ContentionObserver`, which the battery's
//!   MSHR/port-contention scenario decodes. Observation never perturbs
//!   timing or statistics.

use crate::config::{CoreConfig, SchedulerKind};
use crate::frontend::{Fetched, Frontend};
use crate::inst::{ColdInst, HotInst, Phase};
use crate::memdep::MemDepPredictor;
use crate::predictor::Predictor;
use crate::rename::{FreeList, Rat};
use crate::rob::{RobArena, RobHandle};
use crate::sched::{pack_pos, ArrivalRing, Calendar, Part, PartRef, SchedState, Wake, WastedRing};
use sb_core::{
    BroadcastQueue, IssueTaintUnit, RenameGroupOp, RenameTaintOutcome, RenameTaintTracker, Scheme,
    SchemeConfig, SpeculationTracker, ThreatModel,
};
use sb_isa::{OpClass, PhysReg, Seq, Trace};
use sb_mem::{Attribution, MemoryHierarchy, ServedBy};
use sb_stats::SimStats;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Store-to-load forwarding latency in cycles.
const FORWARD_LATENCY: u32 = 3;

/// Cycle value meaning "not scheduled".
const NEVER: u64 = u64::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    /// Result of a non-store op (or a load's data) becomes available.
    Complete,
    /// A store's address-generation part finishes: address visible in the
    /// SQ, forwarding-error checks run (§6).
    StoreAddr,
    /// A store's data part finishes.
    StoreData,
}

/// One scheduled pipeline event. The arrival index resolves the ROB slot in
/// O(1); the slot generation detects references left dangling by a squash
/// (see [`RobHandle`]).
#[derive(Clone, Copy, Debug)]
struct Scheduled {
    arrival: u64,
    gen: u32,
    event: Event,
}

/// The pipeline event queue: a sorted map for the reference scheduler
/// (matching the seed implementation's event ordering), a bucketed
/// calendar for the event wheel. Both consumers resolve each event's ROB
/// slot through the arena's O(1) generation-checked lookup — the arena
/// made the former per-event binary search free, so the reference path
/// keeps only the seed's queue *ordering* cost model.
#[derive(Debug)]
enum EventQueue {
    Map(BTreeMap<u64, Vec<Scheduled>>),
    Wheel(Calendar<Scheduled>),
}

impl EventQueue {
    fn push(&mut self, now: u64, at: u64, item: Scheduled) {
        match self {
            EventQueue::Map(map) => map.entry(at).or_default().push(item),
            EventQueue::Wheel(cal) => cal.push(now, at, item),
        }
    }

    /// Drains everything due at (or, defensively, before) `now` in schedule
    /// order.
    fn drain_due(&mut self, now: u64, out: &mut Vec<Scheduled>) {
        match self {
            EventQueue::Map(map) => {
                while let Some((&at, _)) = map.iter().next() {
                    if at > now {
                        break;
                    }
                    out.extend(map.remove(&at).unwrap_or_default());
                }
            }
            EventQueue::Wheel(cal) => cal.drain_into(now, out),
        }
    }
}

/// What the LSU decides for a load that wants to issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LoadPlan {
    /// Read from the cache hierarchy; no older store interferes.
    Cache,
    /// Read from the cache while an older store address is still unknown —
    /// memory-dependence speculation (D-shadow risk).
    SpeculatePastStore,
    /// Forward from the store with this sequence number.
    Forward(Seq),
    /// An older store (at this arrival index) blocks the load: its address
    /// is unknown, or its data has not arrived; retry when it progresses.
    Wait(u64),
}

/// Replay-wasted issue slots: a sorted map for the reference scheduler
/// (the seed's shape), a ring for the event wheel.
#[derive(Debug)]
enum WastedSlots {
    Map(BTreeMap<u64, usize>),
    Ring(WastedRing),
}

impl WastedSlots {
    fn add(&mut self, now: u64, at: u64, n: usize) {
        match self {
            WastedSlots::Map(map) => *map.entry(at).or_insert(0) += n,
            WastedSlots::Ring(ring) => ring.add(now, at, n),
        }
    }

    fn take(&mut self, now: u64) -> usize {
        match self {
            WastedSlots::Map(map) => map.remove(&now).unwrap_or(0),
            WastedSlots::Ring(ring) => ring.take(now),
        }
    }
}

/// Commit-stall attribution buckets (see `Core::classify_stall`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StallBucket {
    Frontend,
    Memory,
    Execution,
    Scheme,
    Dataflow,
}

/// What the dispatch stage would do this cycle, as assessed by the
/// idle-skip check without mutating anything (mirrors the structural
/// checks at the top of `Core::dispatch` for the first fetched op).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DispatchOutlook {
    /// At least one op would dispatch: the cycle is not idle.
    Progress,
    /// Fetch delivers nothing (stalled, redirecting, or exhausted); no
    /// stall counter increments.
    Idle,
    /// Structurally blocked: `dispatch_stalls` increments.
    Resource,
    /// Out of branch tags: `checkpoint_stalls` increments.
    BrTag,
}

/// Outcome of one issue attempt on one schedulable part.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Attempt {
    /// The part issued (consuming budget as appropriate).
    Issued,
    /// Operands not available (only reachable from the reference scan).
    NotReady,
    /// Ready, but no memory port is left this cycle; retry next cycle.
    NoMemPort,
    /// A scheme gate masked the part; eligible again once the untaint
    /// broadcast declares this root safe.
    Masked(Seq),
    /// The LSU refused the load; eligible again when the blocking store (at
    /// this arrival index) completes address generation or receives data.
    Blocked(u64),
}

/// The simulated core.
pub struct Core {
    config: CoreConfig,
    scheme_cfg: SchemeConfig,
    scheduler: SchedulerKind,

    cycle: u64,
    next_seq: u64,
    /// The reorder buffer: hot/cold instruction slabs with generation-
    /// checked handles. Arrival indexes count ROB pushes; because the ROB
    /// mutates only at its ends, live position `i` holds arrival
    /// `rob.head_arrival() + i`.
    rob: RobArena,

    rat: Rat,
    free_list: FreeList,
    /// Cycle each physical register's value becomes available.
    preg_ready_at: Vec<u64>,

    tracker: SpeculationTracker,
    rename_taint: RenameTaintTracker,
    taint_unit: IssueTaintUnit,
    untaint_q: BroadcastQueue<()>,
    nda_q: BroadcastQueue<PhysReg>,
    /// Youngest load seq whose untaint broadcast has reached the issue
    /// slots (lags the tracker by broadcast bandwidth/latency — the
    /// one-cycle disadvantage of STT-Rename, §9.1).
    visible_safe_seq: Seq,

    mem: MemoryHierarchy,
    frontend: Frontend,
    memdep: MemDepPredictor,
    /// Modelled frontend predictor (`None` = disabled: the trace's static
    /// mispredict bits drive fetch, bit-identical to the pre-predictor
    /// simulator).
    predictor: Option<Predictor>,

    events: EventQueue,
    event_scratch: Vec<Scheduled>,
    wasted_slots: WastedSlots,

    /// Event-wheel bookkeeping (unused in reference mode).
    sched: SchedState,
    unpark_scratch: Vec<PartRef>,
    group_scratch: Vec<usize>,
    rename_ops_scratch: Vec<RenameGroupOp>,
    rename_outcomes_scratch: Vec<RenameTaintOutcome>,
    nda_scratch: Vec<(Seq, PhysReg)>,
    /// Arrival indexes of in-flight loads, oldest first (the LQ), at
    /// monotone positions (each load records the SQ tail in its
    /// `queue_mark` at dispatch, and vice versa).
    lq: ArrivalRing,
    /// Arrival indexes of in-flight stores, oldest first (the SQ).
    sq: ArrivalRing,
    /// Per physical register: how many phase-`Waiting` instructions name it
    /// as a source (the O(1) replacement for the load-hit-speculation
    /// dependent scan).
    dep_count: Vec<u32>,

    iq_count: usize,
    br_tags_used: usize,

    stats: SimStats,
    done: bool,

    /// Cooperative cancellation: polled every
    /// [`crate::cancel::CANCEL_POLL_CYCLES`] cycles inside [`Core::run`].
    cancel: Option<crate::cancel::CancelToken>,
    /// Set when a run stopped because the token read as cancelled (as
    /// opposed to finishing or exhausting `max_cycles`).
    interrupted: bool,
}

impl Core {
    /// Builds a core for `trace` under `config` and `scheme_cfg`.
    ///
    /// The core only reads its trace, so `trace` may be an owned [`Trace`]
    /// or an `Arc<Trace>`: cores simulating the same workload (every
    /// `(config, scheme)` point of a grid) can share one decoded copy
    /// instead of cloning it per run.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails `CoreConfig::validate`.
    #[must_use]
    pub fn new(config: CoreConfig, scheme_cfg: SchemeConfig, trace: impl Into<Arc<Trace>>) -> Self {
        config.validate();
        let mut preg_ready_at = vec![NEVER; config.phys_regs];
        for slot in preg_ready_at.iter_mut().take(sb_isa::NUM_ARCH_REGS) {
            *slot = 0;
        }
        let scheduler = config.scheduler;
        Core {
            mem: MemoryHierarchy::new(config.hierarchy),
            frontend: Frontend::new(trace, config.redirect_penalty),
            memdep: MemDepPredictor::new(64),
            predictor: config.predictor.enabled.then(|| {
                Predictor::new(
                    config.predictor.pht_entries,
                    config.predictor.btb_entries,
                    config.predictor.ghr_bits,
                )
            }),
            free_list: FreeList::new(config.phys_regs),
            taint_unit: IssueTaintUnit::new(config.phys_regs),
            preg_ready_at,
            rat: Rat::new(),
            tracker: SpeculationTracker::new(),
            rename_taint: RenameTaintTracker::new(),
            untaint_q: BroadcastQueue::new(),
            nda_q: BroadcastQueue::new(),
            visible_safe_seq: Seq::ZERO,
            rob: RobArena::new(config.rob_entries),
            events: match scheduler {
                SchedulerKind::Reference => EventQueue::Map(BTreeMap::new()),
                SchedulerKind::EventWheel => EventQueue::Wheel(Calendar::new()),
            },
            event_scratch: Vec::new(),
            wasted_slots: match scheduler {
                SchedulerKind::Reference => WastedSlots::Map(BTreeMap::new()),
                SchedulerKind::EventWheel => WastedSlots::Ring(WastedRing::new()),
            },
            sched: SchedState::new(config.phys_regs, config.rob_entries),
            unpark_scratch: Vec::new(),
            group_scratch: Vec::new(),
            rename_ops_scratch: Vec::new(),
            rename_outcomes_scratch: Vec::new(),
            nda_scratch: Vec::new(),
            lq: ArrivalRing::new(config.lq_entries),
            sq: ArrivalRing::new(config.sq_entries),
            dep_count: vec![0; config.phys_regs],
            cycle: 0,
            next_seq: 1,
            iq_count: 0,
            br_tags_used: 0,
            stats: SimStats::new(),
            done: false,
            cancel: None,
            interrupted: false,
            scheduler,
            config,
            scheme_cfg,
        }
    }

    /// Convenience constructor: [`Core::new`] with the fidelity-derived
    /// [`CoreConfig::scheme_config`].
    #[must_use]
    pub fn with_scheme(config: CoreConfig, scheme: Scheme, trace: impl Into<Arc<Trace>>) -> Self {
        let scheme_cfg = config.scheme_config(scheme);
        Core::new(config, scheme_cfg, trace)
    }

    /// The full scheme configuration (including the threat model).
    #[must_use]
    pub fn scheme_config(&self) -> SchemeConfig {
        self.scheme_cfg
    }

    /// Number of speculation shadows currently in flight — diagnostic
    /// introspection for the threat-model tests (under the Futuristic
    /// model every in-flight load casts an M-shadow that only resolves
    /// once the load is bound to commit, so this count differs between
    /// models on identical traces).
    #[must_use]
    pub fn shadows_in_flight(&self) -> usize {
        self.tracker.len()
    }

    /// Collected statistics so far.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The memory hierarchy (the attack examples probe it).
    #[must_use]
    pub fn memory(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// Mutable memory access (attack preparation: flushing probe arrays).
    pub fn memory_mut(&mut self) -> &mut MemoryHierarchy {
        &mut self.mem
    }

    /// Longest same-cycle YRoT chain the rename stage has needed so far
    /// (STT-Rename timing-model input).
    #[must_use]
    pub fn max_rename_chain(&self) -> u32 {
        self.rename_taint.max_chain_depth()
    }

    /// Whether the trace has fully committed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Attaches a cooperative cancellation token: [`Core::run`] polls it
    /// every [`crate::cancel::CANCEL_POLL_CYCLES`] cycles and stops early
    /// (setting [`Core::interrupted`]) once it reads as cancelled. A job
    /// runner uses this to enforce soft per-job deadlines and batch-wide
    /// run budgets without preemption.
    pub fn set_cancel_token(&mut self, token: crate::cancel::CancelToken) {
        self.cancel = Some(token);
    }

    /// Whether the last [`Core::run`] stopped because the attached
    /// cancellation token fired (rather than finishing the trace or
    /// exhausting its cycle limit).
    #[must_use]
    pub fn interrupted(&self) -> bool {
        self.interrupted
    }

    /// Runs until the trace is fully committed, `max_cycles` elapse, or an
    /// attached [`crate::cancel::CancelToken`] reads as cancelled (polled
    /// at cycle-batch granularity; see [`Core::set_cancel_token`]).
    pub fn run(&mut self, max_cycles: u64) -> &SimStats {
        let Some(token) = self.cancel.clone() else {
            // No token attached: the loop stays branch-free on the poll
            // (the common path for tests and single-shot runs).
            while !self.done && self.cycle < max_cycles {
                self.step_within(max_cycles);
            }
            return &self.stats;
        };
        self.interrupted = false;
        let mut next_poll = self.cycle + crate::cancel::CANCEL_POLL_CYCLES;
        while !self.done && self.cycle < max_cycles {
            self.step_within(max_cycles);
            // `>=` rather than `==`: idle fast-forward can jump the cycle
            // counter past any particular value.
            if self.cycle >= next_poll {
                if token.is_cancelled() {
                    self.interrupted = true;
                    break;
                }
                next_poll = self.cycle + crate::cancel::CANCEL_POLL_CYCLES;
            }
        }
        &self.stats
    }

    /// Runs to completion, panicking if the core fails to finish within
    /// `max_cycles` (a deadlock diagnostic for tests).
    ///
    /// # Panics
    ///
    /// Panics if the trace does not commit within `max_cycles`.
    pub fn run_to_completion(&mut self, max_cycles: u64) -> &SimStats {
        self.run(max_cycles);
        assert!(
            self.done,
            "core did not finish within {max_cycles} cycles: cycle={}, rob={}, \
             fetch_stalled={}, shadows={}, head={:?}",
            self.cycle,
            self.rob.len(),
            self.frontend.is_stalled(),
            self.tracker.len(),
            self.rob.front().map(|i| (i.seq, i.class, i.phase)),
        );
        &self.stats
    }

    /// Simulates the current cycle. Under [`SchedulerKind::EventWheel`] an
    /// idle stretch that follows is then fast-forwarded to the next cycle
    /// with work, so one call may advance [`Core::cycle`] by more than one
    /// (the skipped cycles' statistics are recorded exactly as if they had
    /// been stepped). [`Core::run`] bounds the fast-forward by its cap.
    pub fn step(&mut self) {
        self.step_within(u64::MAX);
    }

    /// [`Core::step`] with the idle fast-forward stopping at cycle `cap`.
    fn step_within(&mut self, cap: u64) {
        if self.done {
            return;
        }
        self.commit();
        self.writeback();
        self.issue();
        self.drain_broadcasts();
        self.dispatch();
        self.cycle += 1;
        self.stats.cycles.incr();
        if self.frontend.exhausted() && self.rob.is_empty() {
            self.done = true;
            return;
        }
        if self.scheduler == SchedulerKind::EventWheel {
            self.try_skip_idle(cap);
        }
    }

    /// Event-wheel fast-forward: when the upcoming cycles provably do
    /// nothing — no commit (head incomplete), no issue (ready ring clear),
    /// no broadcast (queue front still speculative), no dispatch progress —
    /// jump straight to the next cycle with a scheduled event, wakeup, or
    /// fetch-redirect expiry, replicating the per-cycle statistics the
    /// skipped cycles would have recorded. All pipeline state is constant
    /// across the gap by construction: it only changes at events, and the
    /// skip stops at the first one — or at `cap`, so a capped
    /// [`Core::run`] ends on exactly the cycle the reference scheduler
    /// does.
    fn try_skip_idle(&mut self, cap: u64) {
        // Commit would retire something.
        if self.rob.front().is_some_and(HotInst::is_completed) {
            return;
        }
        // Select would find a candidate.
        if !self.sched.ready.is_clear() {
            return;
        }
        // A broadcast would drain (advancing the visibility point or
        // publishing NDA data).
        let drainable = match self.scheme_cfg.scheme {
            Scheme::SttRename | Scheme::SttIssue => self
                .untaint_q
                .peek_seq()
                .is_some_and(|s| !self.tracker.is_speculative(s)),
            Scheme::Nda => self
                .nda_q
                .peek_seq()
                .is_some_and(|s| !self.tracker.is_speculative(s)),
            Scheme::Baseline => false,
        };
        if drainable {
            return;
        }
        // Dispatch would consume an op.
        let outlook = self.dispatch_outlook();
        if outlook == DispatchOutlook::Progress {
            return;
        }

        // Nothing can happen before the next event/wakeup/redirect expiry.
        let mut stop = u64::MAX;
        if let EventQueue::Wheel(cal) = &self.events {
            if let Some(at) = cal.next_occupied(self.cycle - 1) {
                stop = stop.min(at);
            }
        }
        if let Some(at) = self.sched.wakes.next_occupied(self.cycle - 1) {
            stop = stop.min(at);
        }
        if let Some(at) = self.frontend.redirect_resume_cycle() {
            stop = stop.min(at);
        }
        if stop == u64::MAX {
            // No future work at all: a genuine deadlock. Let the normal
            // per-cycle path run so `run_to_completion` diagnostics fire.
            return;
        }
        // Bound the jump to one calendar lap so the wasted-slot sweep below
        // stays within a single pass over the ring, and to the run's cap.
        let stop = stop
            .min(self.cycle + crate::sched::HORIZON as u64 - 1)
            .min(cap);
        if stop <= self.cycle {
            return;
        }
        let skipped = stop - self.cycle;

        // Replicate what each skipped cycle would have recorded: a commit
        // stall (zero retires by construction) and, when fetch has an op
        // but no resources, a dispatch stall.
        let bucket = self.classify_stall();
        self.add_stall(bucket, skipped);
        match outlook {
            DispatchOutlook::Resource => self.stats.dispatch_stalls.add(skipped),
            DispatchOutlook::BrTag => self.stats.checkpoint_stalls.add(skipped),
            DispatchOutlook::Idle => {}
            DispatchOutlook::Progress => unreachable!("checked above"),
        }
        // Expire replay-wasted slots the skipped issue stages would have
        // consumed (their budget could not have been used anyway).
        for c in self.cycle..stop {
            let _ = self.wasted_slots.take(c);
        }
        self.stats.cycles.add(skipped);
        self.cycle = stop;
    }

    /// What dispatch would do at the current cycle, mirroring the
    /// structural checks of [`Core::dispatch`]'s first slot without
    /// consuming anything.
    fn dispatch_outlook(&mut self) -> DispatchOutlook {
        let Some((_, op)) = self.frontend.peek(self.cycle) else {
            return DispatchOutlook::Idle;
        };
        if self.rob.len() >= self.config.rob_entries || self.iq_count >= self.config.iq_entries {
            return DispatchOutlook::Resource;
        }
        match op.class() {
            OpClass::Load if self.lq.len() >= self.config.lq_entries => {
                return DispatchOutlook::Resource;
            }
            OpClass::Store if self.sq.len() >= self.config.sq_entries => {
                return DispatchOutlook::Resource;
            }
            OpClass::Branch if self.br_tags_used >= self.config.max_br_tags => {
                return DispatchOutlook::BrTag;
            }
            _ => {}
        }
        if op.dest().is_some() && self.free_list.available() == 0 {
            return DispatchOutlook::Resource;
        }
        DispatchOutlook::Progress
    }

    // ------------------------------------------------------------------
    // Arrival-index bookkeeping
    // ------------------------------------------------------------------

    /// Arrival index of the instruction at ROB position `idx`.
    fn arrival_of(&self, idx: usize) -> u64 {
        self.rob.head_arrival() + idx as u64
    }

    /// Resolves a part reference back to a ROB position through the
    /// arena's generation check (a squash may have recycled the arrival
    /// slot for a different instruction). O(1).
    fn resolve_ref(&self, arrival: u64, gen: u32) -> Option<usize> {
        self.rob.resolve(RobHandle { arrival, gen })
    }

    /// Marks `p` available at `at` without scheduling a wakeup: used on the
    /// issue path, where the producer's own `Complete` event (at the same
    /// cycle) doubles as the waiter-list wakeup.
    fn set_preg_ready(&mut self, p: PhysReg, at: u64) {
        self.preg_ready_at[p.index()] = at;
    }

    /// Marks `p` available at `at` and (event wheel) schedules an explicit
    /// wakeup for its waiter list — the NDA broadcast path, which has no
    /// pipeline event at the availability cycle.
    fn set_preg_ready_with_wake(&mut self, p: PhysReg, at: u64) {
        self.preg_ready_at[p.index()] = at;
        if self.scheduler == SchedulerKind::EventWheel {
            self.sched.wakes.push(self.cycle, at, Wake::Preg(p.index()));
        }
    }

    /// Adjusts the per-preg waiting-dependent counts when an instruction
    /// enters or leaves the `Waiting` phase.
    fn dep_adjust(&mut self, srcs: [Option<PhysReg>; 2], delta: i32) {
        let [a, b] = srcs;
        if let Some(p) = a {
            let c = &mut self.dep_count[p.index()];
            debug_assert!(c.checked_add_signed(delta).is_some(), "dep count underflow");
            *c = c.wrapping_add_signed(delta);
        }
        // An instruction counts once, even if both sources name one preg.
        if let Some(p) = b.filter(|p| Some(*p) != a) {
            let c = &mut self.dep_count[p.index()];
            debug_assert!(c.checked_add_signed(delta).is_some(), "dep count underflow");
            *c = c.wrapping_add_signed(delta);
        }
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn commit(&mut self) {
        let mut retired = 0usize;
        while retired < self.config.width {
            if self.rob.is_empty() {
                break;
            }
            // The slot's contents stay in place: copy the hot record (one
            // cache line) and the one cold field commit needs, then move
            // the window.
            let inst = *self.rob.hot(0);
            if !inst.is_completed() {
                break;
            }
            retired += 1;
            let (prev_preg, shadow_token) = {
                let cold = self.rob.cold(0);
                (cold.prev_preg(), cold.shadow_token())
            };
            let arrival = self.rob.head_arrival();
            self.rob.pop_front();
            debug_assert!(!inst.wrong_path(), "wrong-path op reached commit");
            debug_assert!(
                self.scheduler != SchedulerKind::EventWheel
                    || (!self
                        .sched
                        .ready
                        .contains(pack_pos(arrival, Part::StoreAddr))
                        && !self
                            .sched
                            .ready
                            .contains(pack_pos(arrival, Part::StoreData))),
                "committed slot left a stale ready bit"
            );
            if let Some(prev) = prev_preg {
                self.free_list.release(prev);
            }
            if inst.br_tag() {
                self.br_tags_used -= 1;
            }
            match inst.class {
                OpClass::Load => {
                    debug_assert_eq!(self.lq.front(), Some(arrival));
                    self.lq.pop_front();
                    self.stats.committed_loads.incr();
                    if self.scheme_cfg.threat_model == ThreatModel::Futuristic {
                        // The load is bound to commit: its M/E shadow ends.
                        if let Some(t) = shadow_token {
                            self.tracker.resolve_at(t);
                        }
                    }
                }
                OpClass::Store => {
                    debug_assert_eq!(self.sq.front(), Some(arrival));
                    self.sq.pop_front();
                    self.stats.committed_stores.incr();
                    let mem = inst.mem().expect("store has address");
                    // Stores write the hierarchy at commit: by definition
                    // non-speculative, but still attributed so the leakage
                    // observer's event log is complete.
                    let out = self.mem.access(
                        mem.addr,
                        Some(Attribution {
                            seq: inst.seq,
                            speculative: false,
                            wrong_path: false,
                        }),
                    );
                    self.record_cache_outcome(out.served_by);
                    self.stats.prefetches.add(u64::from(out.prefetches_issued));
                }
                OpClass::Branch => {
                    self.stats.committed_branches.incr();
                }
                _ => {}
            }
            self.stats.committed.incr();
        }
        if retired == 0 {
            self.attribute_stall();
        }
    }

    /// TraceDoctor-style attribution (§7): when nothing retires this cycle,
    /// classify what the ROB head is waiting for.
    fn attribute_stall(&mut self) {
        let bucket = self.classify_stall();
        self.add_stall(bucket, 1);
    }

    /// The stall bucket the current ROB head state attributes to. Pure
    /// read: the idle-skip path calls this once and multiplies, which is
    /// sound because every input (head phase and flags, `preg_ready_at`
    /// relative to the current cycle) is constant across skipped cycles —
    /// they only change at pipeline events, and skips stop at the next one.
    fn classify_stall(&self) -> StallBucket {
        let Some(head) = self.rob.front() else {
            return StallBucket::Frontend;
        };
        match head.phase {
            Phase::Executing => {
                if head.is_load() || head.is_store() {
                    StallBucket::Memory
                } else {
                    StallBucket::Execution
                }
            }
            Phase::Waiting => {
                if head.taint_masked() {
                    StallBucket::Scheme
                } else if self.scheme_cfg.scheme == Scheme::Nda
                    && head
                        .src_pregs()
                        .into_iter()
                        .flatten()
                        .any(|p| self.preg_ready_at[p.index()] == NEVER)
                {
                    // Waiting on a delayed (not-yet-broadcast) load value.
                    StallBucket::Scheme
                } else if self.srcs_ready(head) {
                    StallBucket::Execution
                } else {
                    StallBucket::Dataflow
                }
            }
            // Completed head with zero retires cannot happen (it would
            // have retired); attribute defensively to execution.
            Phase::Completed => StallBucket::Execution,
        }
    }

    fn add_stall(&mut self, bucket: StallBucket, n: u64) {
        let counter = match bucket {
            StallBucket::Frontend => &mut self.stats.stalls.frontend,
            StallBucket::Memory => &mut self.stats.stalls.memory,
            StallBucket::Execution => &mut self.stats.stalls.execution,
            StallBucket::Scheme => &mut self.stats.stalls.scheme,
            StallBucket::Dataflow => &mut self.stats.stalls.dataflow,
        };
        counter.add(n);
    }

    // ------------------------------------------------------------------
    // Writeback
    // ------------------------------------------------------------------

    fn writeback(&mut self) {
        let mut due = std::mem::take(&mut self.event_scratch);
        due.clear();
        self.events.drain_due(self.cycle, &mut due);
        let wheel = self.scheduler == SchedulerKind::EventWheel;
        for sch in due.drain(..) {
            // Both paths resolve the slot through the arena's O(1)
            // generation check.
            let Some(idx) = self.resolve_ref(sch.arrival, sch.gen) else {
                continue; // squashed
            };
            match sch.event {
                Event::Complete => {
                    let dst = self.rob.hot(idx).dst_preg();
                    self.complete_inst(idx);
                    // The result is available this cycle: wake the waiter
                    // list here instead of via a separate calendar entry.
                    // (NDA loads publish through the broadcast queue
                    // instead; their waiters keep waiting.)
                    if wheel {
                        if let Some(p) = dst {
                            if self.preg_ready_at[p.index()] <= self.cycle {
                                self.wake_preg_waiters(p.index());
                            }
                        }
                    }
                }
                Event::StoreAddr => {
                    self.store_addr_done(idx);
                    self.wake_store_waiters(sch.arrival);
                }
                Event::StoreData => {
                    let inst = self.rob.hot_mut(idx);
                    inst.set_data_done(true);
                    if inst.addr_done() {
                        inst.phase = Phase::Completed;
                    }
                    self.wake_store_waiters(sch.arrival);
                }
            }
        }
        self.event_scratch = due;
    }

    fn complete_inst(&mut self, idx: usize) {
        let cycle = self.cycle;
        let scheme = self.scheme_cfg.scheme;
        let (seq, is_load, is_branch, mispredicted, wrong_path, dst) = {
            let inst = self.rob.hot_mut(idx);
            inst.phase = Phase::Completed;
            (
                inst.seq,
                inst.is_load(),
                inst.is_branch(),
                inst.is_mispredicted(),
                inst.wrong_path(),
                inst.dst_preg(),
            )
        };

        if is_branch {
            // Modelled predictor: the executing branch trains the tables
            // with its actual outcome — *including* wrong-path branches
            // (squashed work still trains real predictors; PHT/BTB/GHR
            // state is never rolled back, which is exactly the v2 channel
            // family). Under a secure scheme a tainted transient branch is
            // gated from executing until it is squashed, so it never
            // reaches here and never trains: the channel closes. Events
            // from branches that are later squashed become transient via
            // the observer's note_squash, like cache fills.
            if let Some(pred) = self.predictor.as_mut() {
                let cold = self.rob.cold(idx);
                if let (Some(ctrl), Some(pht_idx)) = (cold.op.ctrl(), cold.pht_index()) {
                    let ev = pred.train(pht_idx, ctrl.pc, ctrl.taken, ctrl.target);
                    let attr = Attribution {
                        seq,
                        speculative: self.tracker.is_speculative(seq),
                        wrong_path,
                    };
                    for (kind, addr) in ev.iter() {
                        self.mem.note_predictor_update(kind, addr, attr);
                    }
                }
            }
            if let Some(t) = self.rob.cold(idx).shadow_token() {
                self.tracker.resolve_at(t);
            }
            if mispredicted && !wrong_path {
                self.stats.branch_mispredicts.incr();
                self.squash_tail(Seq::new(seq.value() + 1));
                self.frontend.branch_resolved(cycle);
            }
            return;
        }

        if is_load && scheme == Scheme::Nda {
            // §5.1: the data write and the broadcast are decoupled onto a
            // split bus; every load's readiness rides the broadcast
            // network (bounded by memory width), and speculative loads
            // additionally wait for the visibility point.
            let p = dst.expect("load has destination");
            if self.tracker.is_speculative(seq) {
                self.stats.delayed_transmitters.incr();
            }
            self.nda_q.push(seq, p);
        }
    }

    fn store_addr_done(&mut self, idx: usize) {
        let cycle = self.cycle;
        let (store_seq, store_mem) = {
            let inst = self.rob.hot_mut(idx);
            inst.set_addr_done(true);
            if inst.data_done() {
                inst.phase = Phase::Completed;
            }
            (inst.seq, inst.mem().expect("store has address"))
        };
        // The store's address is known: its D-shadow resolves (§2.1 — the
        // aliasing uncertainty that made younger instructions speculative
        // is gone once the forwarding check below has run).
        if let Some(t) = self.rob.cold(idx).shadow_token() {
            self.tracker.resolve_at(t);
        }
        // Forwarding-error check (§6): younger executed loads overlapping
        // this store that did not forward from it read stale data and must
        // flush, together with everything after them.
        let flush_target = match self.scheduler {
            SchedulerKind::Reference => self.forwarding_error_scan(store_seq, store_mem),
            SchedulerKind::EventWheel => self.forwarding_error_indexed(idx, store_seq, store_mem),
        };
        if let Some((lseq, tidx)) = flush_target {
            self.stats.forwarding_errors.incr();
            self.memdep.train_violation(tidx);
            self.squash_tail(lseq);
            self.frontend.flush_to(tidx, cycle);
        }
    }

    /// Reference path: walk the whole ROB for the forwarding-error check.
    fn forwarding_error_scan(
        &self,
        store_seq: Seq,
        store_mem: sb_isa::MemAccess,
    ) -> Option<(Seq, usize)> {
        for idx in 0..self.rob.len() {
            let inst = self.rob.hot(idx);
            if inst.seq <= store_seq || !inst.is_load() || !inst.executed() || inst.wrong_path() {
                continue;
            }
            let Some(lmem) = inst.mem() else { continue };
            if lmem.overlaps(&store_mem) && inst.fwd_src() != Some(store_seq) {
                if let Some(tidx) = self.rob.cold(idx).trace_idx() {
                    return Some((inst.seq, tidx)); // ROB is seq-ordered: first hit is oldest
                }
            }
        }
        None
    }

    /// Event-wheel path: the same check over the LQ index — only loads
    /// younger than the store are visited.
    fn forwarding_error_indexed(
        &self,
        store_idx: usize,
        store_seq: Seq,
        store_mem: sb_isa::MemAccess,
    ) -> Option<(Seq, usize)> {
        // The store's queue mark is the LQ tail position at its dispatch:
        // positions from the mark onward hold exactly the younger loads.
        let from = self.rob.hot(store_idx).queue_mark.max(self.lq.head());
        for pos in from..self.lq.tail() {
            let arrival = self.lq.get(pos);
            let idx = (arrival - self.rob.head_arrival()) as usize;
            let inst = self.rob.hot(idx);
            debug_assert!(inst.is_load() && inst.seq > store_seq);
            if !inst.executed() || inst.wrong_path() {
                continue;
            }
            let Some(lmem) = inst.mem() else { continue };
            if lmem.overlaps(&store_mem) && inst.fwd_src() != Some(store_seq) {
                if let Some(tidx) = self.rob.cold(idx).trace_idx() {
                    return Some((inst.seq, tidx));
                }
            }
        }
        None
    }

    /// Re-examines loads that were parked on the store at `arrival` (its
    /// address or data just made progress). No-op in reference mode, whose
    /// issue stage retries blocked loads every cycle anyway.
    fn wake_store_waiters(&mut self, arrival: u64) {
        if self.scheduler != SchedulerKind::EventWheel {
            return;
        }
        if let Some(waiters) = self.sched.store_waiters.remove(&arrival) {
            for r in waiters {
                self.readmit(r);
            }
        }
    }

    /// Puts a previously-attempted part back in the ready set if it is
    /// still live (parked parts already passed operand and age checks;
    /// neither can regress).
    fn readmit(&mut self, r: PartRef) {
        let (arrival, part, gen) = r;
        let Some(idx) = self.resolve_ref(arrival, gen) else {
            return; // squashed
        };
        if self.rob.hot(idx).phase != Phase::Waiting || self.part_launched(idx, part) {
            return;
        }
        self.sched.ready.insert(pack_pos(arrival, part));
    }

    fn part_launched(&self, idx: usize, part: Part) -> bool {
        match part {
            Part::Whole => false,
            Part::StoreAddr => self.rob.hot(idx).addr_launched(),
            Part::StoreData => self.rob.hot(idx).data_launched(),
        }
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------

    /// Whether a taint root has been declared safe at the issue slots
    /// (untaint broadcast observed).
    fn root_safe(&self, root: Option<Seq>) -> bool {
        root.is_none_or(|r| r <= self.visible_safe_seq)
    }

    fn src_ready(&self, inst: &HotInst, i: usize) -> bool {
        inst.src_preg(i)
            .is_none_or(|p| self.preg_ready_at[p.index()] <= self.cycle)
    }

    fn srcs_ready(&self, inst: &HotInst) -> bool {
        self.src_ready(inst, 0) && self.src_ready(inst, 1)
    }

    fn issue(&mut self) {
        match self.scheduler {
            SchedulerKind::Reference => self.issue_reference(),
            SchedulerKind::EventWheel => self.issue_wheel(),
        }
    }

    /// The straightforward scheduler: scan every ROB entry, oldest first.
    fn issue_reference(&mut self) {
        let mut budget = self
            .config
            .width
            .saturating_sub(self.wasted_slots.take(self.cycle));
        let mut mem_budget = self.config.mem_ports;

        let min_age = u64::from(self.config.dispatch_latency);
        let mut idx = 0;
        while idx < self.rob.len() && budget > 0 {
            if self.rob.hot(idx).phase != Phase::Waiting
                || self.cycle < self.rob.hot(idx).dispatch_cycle + min_age
            {
                idx += 1;
                continue;
            }
            let handle = self.rob.handle(idx);
            match self.rob.hot(idx).class {
                OpClass::Store => {
                    if !self.rob.hot(idx).addr_launched() {
                        let _ = self.attempt_store_addr(idx, handle, &mut budget, &mut mem_budget);
                    }
                    if !self.rob.hot(idx).data_launched() && budget > 0 {
                        let _ = self.attempt_store_data(idx, handle, &mut budget);
                    }
                    self.finish_store_issue(idx);
                }
                OpClass::Load => {
                    let _ = self.attempt_load(idx, handle, &mut budget, &mut mem_budget);
                }
                _ => {
                    let _ = self.attempt_simple(idx, handle, &mut budget);
                }
            }
            idx += 1;
        }
    }

    /// The event wheel: process due wakeups, then pop the age-ordered ready
    /// set until the issue budget runs out.
    fn issue_wheel(&mut self) {
        self.process_wakes();
        let mut budget = self
            .config
            .width
            .saturating_sub(self.wasted_slots.take(self.cycle));
        let mut mem_budget = self.config.mem_ports;

        // Scan the ready ring in packed-position (age) order. The ring is
        // maintained exactly, so a set bit always refers to the live
        // instruction at that arrival. Entries may still be below the
        // minimum issue age (dispatch inserts operand-ready parts
        // directly, skipping the old retry-wake round trip); because
        // dispatch cycles are monotone in arrival order, the first
        // too-young entry ends the scan — everything younger is too.
        let base = self.rob.head_arrival();
        let min_age = u64::from(self.config.dispatch_latency);
        let mut cursor = pack_pos(base, Part::StoreAddr);
        let end = pack_pos(base + self.rob.len() as u64, Part::StoreAddr);
        self.sched.ready.begin_scan(cursor);
        while budget > 0 && !self.sched.ready.is_clear() {
            let Some(pos) = self.sched.ready.next_ready(cursor, end) else {
                break;
            };
            cursor = pos + 1;
            let arrival = pos / 2;
            let idx = (arrival - base) as usize;
            let (dispatch_cycle, class) = {
                let h = self.rob.hot(idx);
                (h.dispatch_cycle, h.class)
            };
            if self.cycle < dispatch_cycle + min_age {
                break; // below minimum issue age, as is everything younger
            }
            let part = match (pos & 1, class == OpClass::Store) {
                (0, false) => Part::Whole,
                (0, true) => Part::StoreAddr,
                _ => Part::StoreData,
            };
            debug_assert!(
                self.rob.hot(idx).phase == Phase::Waiting && !self.part_launched(idx, part),
                "stale ready bit"
            );
            let handle = self.rob.handle(idx);
            let gen = handle.gen;
            let attempt = match part {
                Part::Whole => match class {
                    OpClass::Load => self.attempt_load(idx, handle, &mut budget, &mut mem_budget),
                    _ => self.attempt_simple(idx, handle, &mut budget),
                },
                Part::StoreAddr => {
                    let a = self.attempt_store_addr(idx, handle, &mut budget, &mut mem_budget);
                    self.finish_store_issue(idx);
                    a
                }
                Part::StoreData => {
                    let a = self.attempt_store_data(idx, handle, &mut budget);
                    self.finish_store_issue(idx);
                    a
                }
            };
            match attempt {
                Attempt::Issued => {
                    self.sched.ready.remove(pos);
                }
                Attempt::NoMemPort => {
                    // Stays ready; the cursor has already moved past it, so
                    // the rest of this cycle's scan continues behind it.
                }
                Attempt::Masked(root) => {
                    self.sched.ready.remove(pos);
                    self.sched.masked.insert((root.value(), arrival, part), gen);
                }
                Attempt::Blocked(store_arrival) => {
                    self.sched.ready.remove(pos);
                    self.sched
                        .store_waiters
                        .entry(store_arrival)
                        .or_default()
                        .push((arrival, part, gen));
                }
                Attempt::NotReady => {
                    // Bookkeeping bug guard: re-route through the waiter
                    // lists rather than spinning in the ready set.
                    debug_assert!(false, "ready-set entry with unready operands");
                    self.sched.ready.remove(pos);
                    self.route_part((arrival, part, gen));
                }
            }
        }
    }

    /// Drains this cycle's wakeups, moving now-eligible parts into the
    /// ready set (or onward to the next waiter list).
    fn process_wakes(&mut self) {
        if self.sched.wakes.is_empty_fast() {
            return;
        }
        let mut wakes = std::mem::take(&mut self.sched.wake_scratch);
        wakes.clear();
        self.sched.wakes.drain_into(self.cycle, &mut wakes);
        for wake in wakes.drain(..) {
            match wake {
                Wake::Preg(p) => self.wake_preg_waiters(p),
            }
        }
        self.sched.wake_scratch = wakes;
    }

    /// Re-examines everything parked on physical register `p`'s waiter
    /// list (its value just became available).
    fn wake_preg_waiters(&mut self, p: usize) {
        if self.sched.preg_waiters[p].is_empty() {
            return;
        }
        // Swap the list out through a recycled buffer so the per-preg
        // vectors aren't reallocated on every wakeup.
        let mut waiters = std::mem::take(&mut self.sched.waiter_scratch);
        std::mem::swap(&mut waiters, &mut self.sched.preg_waiters[p]);
        for r in waiters.drain(..) {
            self.route_part(r);
        }
        if self.sched.preg_waiters[p].is_empty() {
            // Nothing re-registered: hand the capacity back.
            std::mem::swap(&mut waiters, &mut self.sched.preg_waiters[p]);
        }
        self.sched.waiter_scratch = waiters;
    }

    /// Dispatch-time routing for a single-operand part (store halves): wait
    /// on the operand if it is not ready, otherwise enter the ready ring
    /// (the issue scan enforces the minimum issue age).
    fn route_dispatched(&mut self, r: PartRef, src: Option<PhysReg>) {
        match src.filter(|p| self.preg_ready_at[p.index()] > self.cycle) {
            Some(p) => self.sched.preg_waiters[p.index()].push(r),
            None => self.sched.ready.insert(pack_pos(r.0, r.1)),
        }
    }

    /// Routes one schedulable part to the container matching its state:
    /// the waiter list of its first unavailable source, or the ready set
    /// (which admits below-minimum-age parts; the issue scan stops at
    /// them). Silently drops dead references.
    fn route_part(&mut self, r: PartRef) {
        let (arrival, part, gen) = r;
        let Some(idx) = self.resolve_ref(arrival, gen) else {
            return; // squashed
        };
        let inst = self.rob.hot(idx);
        if inst.phase != Phase::Waiting || self.part_launched(idx, part) {
            return;
        }
        let srcs: [Option<PhysReg>; 2] = match part {
            Part::Whole => inst.src_pregs(),
            Part::StoreAddr => [inst.src_preg(0), None],
            Part::StoreData => [inst.src_preg(1), None],
        };
        for p in srcs.into_iter().flatten() {
            if self.preg_ready_at[p.index()] > self.cycle {
                // Wait on one operand at a time: registered nowhere else,
                // so the single-container invariant holds.
                self.sched.preg_waiters[p.index()].push(r);
                return;
            }
        }
        self.sched.ready.insert(pack_pos(arrival, part));
    }

    /// STT-Rename gate: roots were computed at rename; the entry may only
    /// issue once the untaint broadcast has declared them safe.
    fn stt_rename_gate(&mut self, idx: usize, roots: [Option<Seq>; 2]) -> bool {
        let ok = self.root_safe(roots[0]) && self.root_safe(roots[1]);
        if !ok && !self.rob.hot(idx).taint_masked() {
            self.rob.hot_mut(idx).set_taint_masked(true);
            self.stats.delayed_transmitters.incr();
        }
        ok
    }

    /// STT-Issue gate over an explicit operand subset (stores gate their
    /// address part on the address operand only — the §9.2 advantage).
    ///
    /// First attempt computes the YRoT live in the taint unit; discovering
    /// a live taint turns the selected slot into a nop (§4.3 step 4) and
    /// masks the entry until the untaint broadcast arrives.
    fn stt_issue_gate(
        &mut self,
        idx: usize,
        srcs: [Option<PhysReg>; 2],
        budget: &mut usize,
    ) -> bool {
        if self.rob.hot(idx).taint_masked() {
            let ok = self.root_safe(self.rob.hot(idx).yrot());
            if ok {
                self.rob.hot_mut(idx).set_taint_masked(false);
            }
            return ok;
        }
        let tracker = &self.tracker;
        let yrot = self
            .taint_unit
            .compute_yrot(srcs, |root| tracker.taint_live(root));
        match yrot {
            None => true,
            Some(root) => {
                let inst = self.rob.hot_mut(idx);
                inst.set_yrot(root);
                inst.set_taint_masked(true);
                *budget = budget.saturating_sub(1);
                self.stats.wasted_issue_slots.incr();
                self.stats.delayed_transmitters.incr();
                false
            }
        }
    }

    /// Largest gating root (the binding one: every root must pass the
    /// visibility point before the gate opens).
    fn park_root(roots: [Option<Seq>; 2]) -> Seq {
        roots
            .into_iter()
            .flatten()
            .max()
            .expect("a failed gate names at least one root")
    }

    fn attempt_simple(&mut self, idx: usize, handle: RobHandle, budget: &mut usize) -> Attempt {
        // One hot-record load covers every read below (the record is a
        // single cache line; the gates re-touch only its flags word).
        let inst = *self.rob.hot(idx);
        if !self.srcs_ready(&inst) {
            return Attempt::NotReady;
        }
        let scheme = self.scheme_cfg.scheme;
        if inst.is_branch() {
            match scheme {
                Scheme::Baseline | Scheme::Nda => {}
                Scheme::SttRename => {
                    let roots = [inst.yrot(), None];
                    if !self.stt_rename_gate(idx, roots) {
                        return Attempt::Masked(Self::park_root(roots));
                    }
                }
                Scheme::SttIssue => {
                    if !self.stt_issue_gate(idx, inst.src_pregs(), budget) {
                        return Attempt::Masked(self.rob.hot(idx).yrot().expect("gate set a root"));
                    }
                }
            }
        } else if scheme == Scheme::SttIssue {
            // Non-transmitter: executes freely but propagates taint (§3.1).
            let srcs = inst.src_pregs();
            let tracker = &self.tracker;
            let yrot = self
                .taint_unit
                .compute_yrot(srcs, |root| tracker.taint_live(root));
            if let Some(dst) = inst.dst_preg() {
                match yrot {
                    Some(root) => {
                        self.taint_unit.taint(dst, root);
                        self.stats.taints_applied.incr();
                    }
                    None => self.taint_unit.clean(dst),
                }
            }
        }

        let lat = inst.class.exec_latency();
        let done_at = self.cycle + u64::from(lat);
        self.rob.hot_mut(idx).phase = Phase::Executing;
        if let Some(dst) = inst.dst_preg() {
            self.set_preg_ready(dst, done_at);
        }
        self.schedule(done_at, handle, Event::Complete);
        self.iq_count -= 1;
        self.dep_adjust(inst.src_pregs(), -1);
        *budget -= 1;
        Attempt::Issued
    }

    fn attempt_load(
        &mut self,
        idx: usize,
        handle: RobHandle,
        budget: &mut usize,
        mem_budget: &mut usize,
    ) -> Attempt {
        if *mem_budget == 0 {
            return Attempt::NoMemPort;
        }
        // One hot-record load covers every read below (the gates re-touch
        // only its flags word; the planners walk other entries).
        let inst = *self.rob.hot(idx);
        if !self.srcs_ready(&inst) {
            return Attempt::NotReady;
        }
        let scheme = self.scheme_cfg.scheme;
        // Transmitter gate on the address operand.
        match scheme {
            Scheme::Baseline | Scheme::Nda => {}
            Scheme::SttRename => {
                let roots = [inst.yrot(), None];
                if !self.stt_rename_gate(idx, roots) {
                    return Attempt::Masked(Self::park_root(roots));
                }
            }
            Scheme::SttIssue => {
                let srcs = [inst.src_preg(0), None];
                if !self.stt_issue_gate(idx, srcs, budget) {
                    return Attempt::Masked(self.rob.hot(idx).yrot().expect("gate set a root"));
                }
            }
        }

        let plan = match self.scheduler {
            SchedulerKind::Reference => self.plan_load_scan(idx),
            SchedulerKind::EventWheel => self.plan_load_indexed(idx),
        };
        if let LoadPlan::Wait(store_arrival) = plan {
            return Attempt::Blocked(store_arrival);
        }
        let seq = inst.seq;
        let addr = inst.mem().expect("load has address").addr;
        let speculative = self.tracker.is_speculative(seq);
        // Whichever plan the load follows (cache read, bypass, forwarding
        // slot) it consumes a memory port this cycle: report the pressure
        // for an attached contention observer (no-op when detached —
        // observation never perturbs timing or statistics).
        self.mem.note_port_use(Attribution {
            seq,
            speculative,
            wrong_path: inst.wrong_path(),
        });
        let latency = match plan {
            LoadPlan::Forward(src) => {
                self.rob.hot_mut(idx).set_fwd_src(src);
                FORWARD_LATENCY
            }
            LoadPlan::Cache | LoadPlan::SpeculatePastStore => {
                if plan == LoadPlan::SpeculatePastStore {
                    self.stats.memdep_speculations.incr();
                }
                // Attribute the access for the leakage observer: a load
                // executing under an unresolved shadow (or down a known
                // wrong path) that later squashes has made a transient
                // cache-state change — the side channel the secure schemes
                // must close.
                let out = self.mem.access(
                    addr,
                    Some(Attribution {
                        seq,
                        speculative,
                        wrong_path: inst.wrong_path(),
                    }),
                );
                self.record_cache_outcome(out.served_by);
                self.stats.prefetches.add(u64::from(out.prefetches_issued));
                // Speculative load-hit scheduling: a miss replays the
                // dependents that were woken optimistically; NDA removes
                // this logic entirely (§5.1).
                if out.served_by != ServedBy::L1 && scheme.allows_load_hit_speculation() {
                    if let Some(dst) = inst.dst_preg() {
                        let has_dependent = match self.scheduler {
                            SchedulerKind::Reference => (0..self.rob.len()).any(|i| {
                                let h = self.rob.hot(i);
                                h.phase == Phase::Waiting && h.src_pregs().contains(&Some(dst))
                            }),
                            SchedulerKind::EventWheel => self.dep_count[dst.index()] > 0,
                        };
                        if has_dependent {
                            self.stats.replay_events.incr();
                            let at = self.cycle + u64::from(self.config.hierarchy.l1d.latency);
                            self.wasted_slots.add(self.cycle, at, 1);
                        }
                    }
                }
                out.latency
            }
            LoadPlan::Wait(_) => unreachable!("filtered above"),
        };

        let done_at = self.cycle + u64::from(latency);
        let (dst, srcs) = (inst.dst_preg(), inst.src_pregs());
        {
            let h = self.rob.hot_mut(idx);
            h.phase = Phase::Executing;
            h.set_executed(true);
        }
        if scheme == Scheme::Nda {
            // Availability decided at completion (delayed if speculative).
            if let Some(d) = dst {
                self.preg_ready_at[d.index()] = NEVER;
            }
        } else if let Some(d) = dst {
            self.set_preg_ready(d, done_at);
        }
        if scheme == Scheme::SttIssue {
            if let Some(d) = dst {
                if speculative {
                    self.taint_unit.taint(d, seq);
                    self.stats.taints_applied.incr();
                } else {
                    self.taint_unit.clean(d);
                }
            }
        }
        self.schedule(done_at, handle, Event::Complete);
        self.iq_count -= 1;
        self.dep_adjust(srcs, -1);
        *budget -= 1;
        *mem_budget -= 1;
        Attempt::Issued
    }

    /// Reference path: scan all older ROB entries (youngest first) for the
    /// store that decides the load's plan.
    fn plan_load_scan(&self, idx: usize) -> LoadPlan {
        let load = self.rob.hot(idx);
        let lmem = load.mem().expect("load has address");
        for sidx in (0..idx).rev() {
            let inst = self.rob.hot(sidx);
            if !inst.is_store() {
                continue;
            }
            match self.classify_store(idx, lmem, inst) {
                StoreRelation::NoConflict => {}
                StoreRelation::Decides(plan) => {
                    return match plan {
                        PlanVsStore::Wait => LoadPlan::Wait(self.arrival_of(sidx)),
                        PlanVsStore::Speculate => LoadPlan::SpeculatePastStore,
                        PlanVsStore::Forward => LoadPlan::Forward(inst.seq),
                    }
                }
            }
        }
        LoadPlan::Cache
    }

    /// Event-wheel path: the same search over the SQ index — only stores
    /// are visited, bounded by SQ occupancy instead of ROB occupancy.
    fn plan_load_indexed(&self, idx: usize) -> LoadPlan {
        let load = self.rob.hot(idx);
        let lmem = load.mem().expect("load has address");
        let load_seq = load.seq;
        // The load's queue mark is the SQ tail position at its dispatch:
        // positions below the mark hold exactly the older stores. A squash
        // may have retreated the SQ tail below the mark, so clamp (the
        // squashed stores were younger; committed ones are below `head`,
        // and an empty range falls out naturally when all have committed).
        let upto = load.queue_mark.min(self.sq.tail());
        for pos in (self.sq.head()..upto).rev() {
            let arrival = self.sq.get(pos);
            let inst = self.rob.hot((arrival - self.rob.head_arrival()) as usize);
            debug_assert!(inst.is_store() && inst.seq < load_seq);
            match self.classify_store(idx, lmem, inst) {
                StoreRelation::NoConflict => {}
                StoreRelation::Decides(plan) => {
                    return match plan {
                        PlanVsStore::Wait => LoadPlan::Wait(arrival),
                        PlanVsStore::Speculate => LoadPlan::SpeculatePastStore,
                        PlanVsStore::Forward => LoadPlan::Forward(inst.seq),
                    }
                }
            }
        }
        LoadPlan::Cache
    }

    /// How one older store constrains the load at `load_idx`.
    fn classify_store(
        &self,
        load_idx: usize,
        lmem: sb_isa::MemAccess,
        store: &HotInst,
    ) -> StoreRelation {
        if !store.addr_done() {
            // An address-generation already in flight lands before the
            // load's own SQ search would complete: wait rather than
            // speculate against a one-cycle race. Known violators (the
            // memory-dependence predictor, §6) also wait. The predictor
            // key is the load's trace index — a cold-sidecar read, paid
            // only on this unresolved-address slow path.
            let may_bypass = self
                .rob
                .cold(load_idx)
                .trace_idx()
                .is_none_or(|t| self.memdep.may_bypass(t));
            return StoreRelation::Decides(if store.addr_launched() || !may_bypass {
                PlanVsStore::Wait
            } else {
                PlanVsStore::Speculate
            });
        }
        let smem = store.mem().expect("store has address");
        if smem.overlaps(&lmem) {
            return StoreRelation::Decides(if store.data_done() {
                PlanVsStore::Forward
            } else {
                PlanVsStore::Wait
            });
        }
        StoreRelation::NoConflict
    }

    fn attempt_store_addr(
        &mut self,
        idx: usize,
        handle: RobHandle,
        budget: &mut usize,
        mem_budget: &mut usize,
    ) -> Attempt {
        // BOOM stores are a single micro-op that can partially issue
        // whenever either operand is ready (§9.2); the taint gate differs
        // per scheme and per part. Address generation consumes a memory
        // port.
        debug_assert!(!self.rob.hot(idx).addr_launched());
        if *mem_budget == 0 {
            return Attempt::NoMemPort;
        }
        if !self.src_ready(self.rob.hot(idx), 0) {
            return Attempt::NotReady;
        }
        let split = self.scheme_cfg.split_store_taints;
        match self.scheme_cfg.scheme {
            Scheme::Baseline | Scheme::Nda => {}
            Scheme::SttRename => {
                // Unified micro-op: the YRoT covers *both* operands, so
                // the address part is blocked by a tainted data operand
                // (the exchange2 pathology) unless split taints are on.
                let roots = if split {
                    [self.rob.cold(idx).addr_yrot(), None]
                } else {
                    [self.rob.hot(idx).yrot(), None]
                };
                if !self.stt_rename_gate(idx, roots) {
                    return Attempt::Masked(Self::park_root(roots));
                }
            }
            Scheme::SttIssue => {
                // Natural split: only the address operand is inspected.
                let srcs = [self.rob.hot(idx).src_preg(0), None];
                if !self.stt_issue_gate(idx, srcs, budget) {
                    return Attempt::Masked(self.rob.hot(idx).yrot().expect("gate set a root"));
                }
            }
        }
        // Address generation consumes a memory port: report the pressure
        // for an attached contention observer.
        let (seq, wrong_path) = {
            let h = self.rob.hot(idx);
            (h.seq, h.wrong_path())
        };
        self.mem.note_port_use(Attribution {
            seq,
            speculative: self.tracker.is_speculative(seq),
            wrong_path,
        });
        self.rob.hot_mut(idx).set_addr_launched(true);
        self.schedule(self.cycle + 1, handle, Event::StoreAddr);
        *budget -= 1;
        *mem_budget -= 1;
        Attempt::Issued
    }

    fn attempt_store_data(&mut self, idx: usize, handle: RobHandle, budget: &mut usize) -> Attempt {
        // Data part: integer-side issue slot, no memory port.
        debug_assert!(!self.rob.hot(idx).data_launched());
        if !self.src_ready(self.rob.hot(idx), 1) {
            return Attempt::NotReady;
        }
        let split = self.scheme_cfg.split_store_taints;
        match self.scheme_cfg.scheme {
            Scheme::Baseline | Scheme::Nda | Scheme::SttIssue => {}
            Scheme::SttRename => {
                if !split {
                    let roots = [self.rob.hot(idx).yrot(), None];
                    if !self.stt_rename_gate(idx, roots) {
                        return Attempt::Masked(Self::park_root(roots));
                    }
                }
            }
        }
        self.rob.hot_mut(idx).set_data_launched(true);
        self.schedule(self.cycle + 1, handle, Event::StoreData);
        *budget -= 1;
        Attempt::Issued
    }

    /// The store leaves the issue queue once both parts have launched.
    fn finish_store_issue(&mut self, idx: usize) {
        let inst = self.rob.hot(idx);
        if inst.addr_launched() && inst.data_launched() && inst.phase == Phase::Waiting {
            let srcs = inst.src_pregs();
            self.rob.hot_mut(idx).phase = Phase::Executing;
            self.iq_count -= 1;
            self.dep_adjust(srcs, -1);
        }
    }

    fn schedule(&mut self, at: u64, handle: RobHandle, event: Event) {
        let RobHandle { arrival, gen } = handle;
        self.events.push(
            self.cycle,
            at,
            Scheduled {
                arrival,
                gen,
                event,
            },
        );
    }

    fn record_cache_outcome(&mut self, served_by: ServedBy) {
        match served_by {
            ServedBy::L1 => self.stats.l1d_hits.incr(),
            ServedBy::L2 => {
                self.stats.l1d_misses.incr();
                self.stats.l2_hits.incr();
            }
            ServedBy::Dram => {
                self.stats.l1d_misses.incr();
                self.stats.l2_misses.incr();
            }
        }
    }

    // ------------------------------------------------------------------
    // Broadcast drain
    // ------------------------------------------------------------------

    fn drain_broadcasts(&mut self) {
        let bw = self.scheme_cfg.broadcast_bandwidth;
        match self.scheme_cfg.scheme {
            Scheme::SttRename | Scheme::SttIssue => {
                if self.untaint_q.is_empty() {
                    // Nothing to broadcast, and the visibility point cannot
                    // advance, so no masked part can unpark either (every
                    // masked root was above the visibility point when it
                    // was parked).
                    return;
                }
                // Untaint payloads carry no data (the sequence number is
                // the message): pop in place instead of draining into a
                // buffer.
                let mut sent = 0usize;
                let limit = bw.unwrap_or(usize::MAX);
                while sent < limit {
                    let tracker = &self.tracker;
                    let Some((last, ())) = self.untaint_q.pop_ready(|s| !tracker.is_speculative(s))
                    else {
                        break;
                    };
                    self.visible_safe_seq = self.visible_safe_seq.max(last);
                    sent += 1;
                }
                self.stats.scheme_broadcasts.add(sent as u64);
                if sent > 0 && self.scheduler == SchedulerKind::EventWheel {
                    // Unpark everything whose gating root the broadcast
                    // just declared safe; it competes for issue slots from
                    // the next cycle, like the reference re-scan would.
                    let mut unparked = std::mem::take(&mut self.unpark_scratch);
                    unparked.clear();
                    self.sched.unpark_safe(self.visible_safe_seq, &mut unparked);
                    for r in unparked.drain(..) {
                        self.readmit(r);
                    }
                    self.unpark_scratch = unparked;
                }
            }
            Scheme::Nda => {
                if self.nda_q.is_empty() {
                    return;
                }
                let mut sent = std::mem::take(&mut self.nda_scratch);
                sent.clear();
                let tracker = &self.tracker;
                self.nda_q
                    .drain_ready_into(|s| !tracker.is_speculative(s), bw, &mut sent);
                let when = self.cycle + 1;
                for &(_, preg) in &sent {
                    self.set_preg_ready_with_wake(preg, when);
                }
                self.stats.scheme_broadcasts.add(sent.len() as u64);
                self.nda_scratch = sent;
            }
            Scheme::Baseline => {}
        }
    }

    // ------------------------------------------------------------------
    // Dispatch / rename
    // ------------------------------------------------------------------

    fn dispatch(&mut self) {
        let scheme = self.scheme_cfg.scheme;
        if self.frontend.peek(self.cycle).is_none() {
            // Fetch delivers nothing (stalled, redirecting, or exhausted):
            // nothing below would run and no stall counter increments.
            return;
        }
        // ROB indices dispatched this cycle (recycled buffer).
        let mut group = std::mem::take(&mut self.group_scratch);
        group.clear();
        let mut blocked_by_brtag = false;
        let mut blocked_by_resource = false;

        for _ in 0..self.config.width {
            let Some((fetched, op)) = self.frontend.peek(self.cycle) else {
                break;
            };
            // Structural checks before consuming.
            if self.rob.len() >= self.config.rob_entries || self.iq_count >= self.config.iq_entries
            {
                blocked_by_resource = true;
                break;
            }
            match op.class() {
                OpClass::Load if self.lq.len() >= self.config.lq_entries => {
                    blocked_by_resource = true;
                    break;
                }
                OpClass::Store if self.sq.len() >= self.config.sq_entries => {
                    blocked_by_resource = true;
                    break;
                }
                OpClass::Branch if self.br_tags_used >= self.config.max_br_tags => {
                    blocked_by_brtag = true;
                    break;
                }
                _ => {}
            }
            if op.dest().is_some() && self.free_list.available() == 0 {
                blocked_by_resource = true;
                break;
            }

            // Modelled predictor: a correct-path branch is predicted at
            // fetch time, and the *dynamic* decision (wrong direction, or
            // taken with a BTB miss/stale target) overrides the trace's
            // static bit. Wrong-path branches are fetched, not predicted
            // — they only stash their fetch-time PHT index for training.
            // The GHR shifts with the actual outcome right here: a
            // mispredicted branch stalls fetch until it resolves, so no
            // younger correct-path branch can be fetched under stale
            // history, which makes shift-at-fetch exact without
            // checkpointing.
            let mut pht_index = None;
            let mut dyn_mispredict = None;
            let mut ghr_event = None;
            if let (Some(pred), Some(ctrl)) = (self.predictor.as_mut(), op.ctrl()) {
                pht_index = Some(pred.pht_index(ctrl.pc));
                if matches!(fetched, Fetched::Correct(_)) {
                    dyn_mispredict = Some(pred.mispredicts(ctrl.pc, ctrl.taken, ctrl.target));
                    ghr_event = pred.shift_ghr(ctrl.taken);
                }
            }
            self.frontend.consume_with(dyn_mispredict);
            let seq = Seq::new(self.next_seq);
            self.next_seq += 1;
            let (trace_idx, wrong_path) = match fetched {
                Fetched::Correct(i) => (Some(i), false),
                Fetched::WrongPath(_) => (None, true),
            };
            if let Some((kind, addr)) = ghr_event {
                self.mem.note_predictor_update(
                    kind,
                    addr,
                    Attribution {
                        seq,
                        speculative: self.tracker.is_speculative(seq),
                        wrong_path,
                    },
                );
            }
            // Construct the entry in place in the arena slot (everything
            // below writes through the slot references; only container
            // fields disjoint from the ROB are touched meanwhile).
            let idx = self.rob.len();
            let (handle, inst, cold) = self.rob.alloc();
            let arrival = handle.arrival;
            *inst = HotInst::new(seq, op, wrong_path);
            *cold = ColdInst::new(op, trace_idx);
            inst.dispatch_cycle = self.cycle;
            if let Some(m) = dyn_mispredict {
                inst.set_mispredicted(m);
            }
            if let Some(i) = pht_index {
                cold.set_pht_index(i);
            }

            // Rename.
            for (i, src) in [op.src1(), op.src2()].into_iter().enumerate() {
                if let Some(r) = src.filter(|r| !r.is_zero()) {
                    inst.set_src_preg(i, self.rat.lookup(r));
                }
            }
            if let Some(d) = op.dest() {
                let p = self.free_list.allocate().expect("availability checked");
                cold.set_prev_preg(self.rat.remap(d, p));
                inst.set_dst_preg(p);
                self.preg_ready_at[p.index()] = NEVER;
                self.taint_unit.clean(p);
            }

            // Shadows: cast after the op observes whether *older* shadows
            // exist (a shadow does not cover its caster). The LQ/SQ index
            // maintenance rides along (both modes; cheap and keeps the
            // modes structurally identical for the differential tests).
            match op.class() {
                OpClass::Branch => {
                    cold.set_shadow_token(self.tracker.cast(seq));
                    inst.set_br_tag(true);
                    self.br_tags_used += 1;
                }
                OpClass::Load => {
                    if self.scheme_cfg.threat_model == ThreatModel::Futuristic {
                        // §6: the Futuristic model also tracks memory-
                        // consistency and exception speculation. A load may
                        // fault or be squashed by a consistency violation
                        // until it is bound to commit, so it casts a shadow
                        // of its own, resolved at commit.
                        cold.set_shadow_token(self.tracker.cast(seq));
                    }
                    if scheme.is_stt() {
                        // Every load broadcasts once it becomes
                        // non-speculative (§4.4).
                        self.untaint_q.push(seq, ());
                    }
                    inst.queue_mark = self.sq.tail();
                    self.lq.push(arrival);
                }
                OpClass::Store => {
                    // A store with an unresolved address casts a D-shadow:
                    // younger loads may forward stale data past it (§2.1,
                    // §6). Resolved when address generation completes.
                    cold.set_shadow_token(self.tracker.cast(seq));
                    inst.queue_mark = self.lq.tail();
                    self.sq.push(arrival);
                }
                _ => {}
            }

            let srcs = inst.src_pregs();
            self.iq_count += 1;
            group.push(idx);
            self.dep_adjust(srcs, 1);

            // Event wheel: route every schedulable part to its first
            // waiting container. This is `route_part` specialized for the
            // dispatch moment — the instruction is known-live and its
            // sources are already in hand, so no revalidation is needed.
            if self.scheduler == SchedulerKind::EventWheel {
                let gen = handle.gen;
                if op.class() == OpClass::Store {
                    self.route_dispatched((arrival, Part::StoreAddr, gen), srcs[0]);
                    self.route_dispatched((arrival, Part::StoreData, gen), srcs[1]);
                } else {
                    let unready = srcs
                        .into_iter()
                        .flatten()
                        .find(|p| self.preg_ready_at[p.index()] > self.cycle);
                    match unready {
                        Some(p) => {
                            self.sched.preg_waiters[p.index()].push((arrival, Part::Whole, gen));
                        }
                        None => self.sched.ready.insert(pack_pos(arrival, Part::Whole)),
                    }
                }
            }
        }

        if group.is_empty() {
            if blocked_by_brtag {
                self.stats.checkpoint_stalls.incr();
            } else if blocked_by_resource {
                self.stats.dispatch_stalls.incr();
            }
            self.group_scratch = group;
            return;
        }

        // STT-Rename: the same-cycle YRoT chain over the dispatch group
        // (§4.1, Figure 3).
        if scheme == Scheme::SttRename {
            let mut ops = std::mem::take(&mut self.rename_ops_scratch);
            ops.clear();
            ops.extend(group.iter().map(|&i| {
                let seq = self.rob.hot(i).seq;
                let op = &self.rob.cold(i).op;
                RenameGroupOp {
                    seq,
                    srcs: [
                        op.src1().filter(|r| !r.is_zero()),
                        op.src2().filter(|r| !r.is_zero()),
                    ],
                    dst: op.dest(),
                    is_load: op.is_load(),
                    speculative: self.tracker.is_speculative(seq),
                }
            }));
            let mut outcomes = std::mem::take(&mut self.rename_outcomes_scratch);
            let tracker = &self.tracker;
            self.rename_taint
                .rename_group(&ops, |root| tracker.taint_live(root), &mut outcomes);
            for (&i, out) in group.iter().zip(&outcomes) {
                let inst = self.rob.hot_mut(i);
                if let Some(root) = out.yrot {
                    inst.set_yrot(root);
                }
                let cold = self.rob.cold_mut(i);
                cold.set_addr_yrot(out.addr_yrot);
                cold.set_prev_taint(out.prev_dst_taint);
                if out.yrot.is_some() {
                    self.stats.taints_applied.incr();
                }
            }
            self.rename_ops_scratch = ops;
            self.rename_outcomes_scratch = outcomes;
        }
        self.group_scratch = group;
    }

    // ------------------------------------------------------------------
    // Squash
    // ------------------------------------------------------------------

    /// Removes every instruction with `seq >= first_removed`, restoring
    /// rename and taint state by walking the ROB tail youngest-first.
    fn squash_tail(&mut self, first_removed: Seq) {
        let survivor = Seq::new(first_removed.value().saturating_sub(1));
        let squash_end = self.arrival_of(self.rob.len());
        while let Some(tail) = self.rob.back() {
            if tail.seq < first_removed {
                break;
            }
            // The slot's contents stay in place: copy both records out
            // (this is the rare path), then shrink the window.
            let idx = self.rob.len() - 1;
            let inst = *self.rob.hot(idx);
            let cold = *self.rob.cold(idx);
            let arrival = self.arrival_of(idx);
            self.rob.pop_back();
            self.stats.squashed.incr();
            if inst.phase == Phase::Waiting {
                self.iq_count -= 1;
                self.dep_adjust(inst.src_pregs(), -1);
            }
            match inst.class {
                OpClass::Load => {
                    debug_assert_eq!(self.lq.back(), Some(arrival));
                    self.lq.pop_back();
                }
                OpClass::Store => {
                    debug_assert_eq!(self.sq.back(), Some(arrival));
                    self.sq.pop_back();
                }
                OpClass::Branch if inst.br_tag() => {
                    self.br_tags_used -= 1;
                }
                _ => {}
            }
            if let (Some(d), Some(p)) = (cold.op.dest(), inst.dst_preg()) {
                let prev = cold.prev_preg().expect("dest implies previous mapping");
                self.rat.remap(d, prev);
                self.free_list.release(p);
                self.preg_ready_at[p.index()] = NEVER;
                self.taint_unit.clean(p);
                if self.scheme_cfg.scheme == Scheme::SttRename {
                    self.rename_taint.set_taint(d, cold.prev_taint());
                }
            }
        }
        if self.scheduler == SchedulerKind::EventWheel {
            // Everything at or past the first recycled arrival slot is
            // dead; waiter lists, the masked map and pending wakes are
            // cleaned lazily by generation validation instead.
            let first_arrival = self.arrival_of(self.rob.len());
            self.sched.squash_from(first_arrival, squash_end);
        }
        self.tracker.squash_younger(survivor);
        self.untaint_q.squash_younger(survivor);
        self.nda_q.squash_younger(survivor);
        // Cache-state changes made by the squashed instructions are now
        // known transient (no-op unless a leakage observer is attached).
        self.mem.note_squash(first_removed);
    }
}

/// How an older store constrains an issuing load (see
/// [`Core::classify_store`]).
enum StoreRelation {
    /// The store is resolved and does not overlap: keep searching.
    NoConflict,
    /// The store decides the plan: stop searching.
    Decides(PlanVsStore),
}

/// The plan a deciding store imposes.
enum PlanVsStore {
    Wait,
    Speculate,
    Forward,
}
