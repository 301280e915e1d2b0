//! Simulation counters.
//!
//! A plain-old-data bundle of the event counts the evaluation sections of the
//! paper report on: cycles, committed instructions, squashes by cause,
//! forwarding errors (§9.2), taint/broadcast activity (used by the power
//! proxy in `sb-timing`), and scheduler activity.

use std::ops::AddAssign;

/// A saturating event counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Counter(u64);

impl Counter {
    /// Adds one event.
    pub fn incr(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Adds `n` events.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current count.
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }
}

impl AddAssign<u64> for Counter {
    fn add_assign(&mut self, rhs: u64) {
        self.add(rhs);
    }
}

/// TraceDoctor-style attribution of commit-stall cycles (§7: "we extract
/// key performance indicators such as committed instructions, latencies,
/// stalls, and their causes"). Each cycle in which no instruction commits
/// is attributed to what the ROB head was waiting for.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// ROB empty: the front end supplied nothing (redirect, stall).
    pub frontend: Counter,
    /// Head is a load/store waiting on the memory hierarchy.
    pub memory: Counter,
    /// Head is blocked by a live taint (STT) or an undelivered delayed
    /// broadcast feeding it (NDA) — the scheme's own cost.
    pub scheme: Counter,
    /// Head waits for source operands (dataflow).
    pub dataflow: Counter,
    /// Head has issued and is executing (FU latency).
    pub execution: Counter,
}

impl StallBreakdown {
    /// Total attributed stall cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.frontend.get()
            + self.memory.get()
            + self.scheme.get()
            + self.dataflow.get()
            + self.execution.get()
    }
}

/// All counters collected during one simulation run.
///
/// The TraceDoctor-style key performance indicators of §7: committed
/// instructions, latencies, stalls and their causes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Elapsed core cycles.
    pub cycles: Counter,
    /// Committed (retired) micro-ops.
    pub committed: Counter,
    /// Committed loads.
    pub committed_loads: Counter,
    /// Committed stores.
    pub committed_stores: Counter,
    /// Committed branches.
    pub committed_branches: Counter,
    /// Branch mispredictions discovered at execute.
    pub branch_mispredicts: Counter,
    /// Pipeline flushes caused by store-to-load forwarding errors (§9.2).
    pub forwarding_errors: Counter,
    /// Loads that issued speculatively past an older store with an unknown
    /// address (memory-dependence speculation events).
    pub memdep_speculations: Counter,
    /// Micro-ops squashed (wrong path + forwarding-error replays).
    pub squashed: Counter,
    /// Issue slots wasted by STT-Issue nop-ing a tainted transmitter
    /// (§4.3 step 4).
    pub wasted_issue_slots: Counter,
    /// Transmitters whose issue was delayed by a live taint (STT) or by a
    /// delayed broadcast (NDA).
    pub delayed_transmitters: Counter,
    /// Untaint / delayed-data broadcasts sent (bounded per cycle by memory
    /// ports in RTL fidelity, §4.4/§5.1).
    pub scheme_broadcasts: Counter,
    /// Destination registers tainted at rename (STT-Rename) or issue
    /// (STT-Issue).
    pub taints_applied: Counter,
    /// Cycles rename stalled because no branch checkpoint (branch tag) was
    /// free.
    pub checkpoint_stalls: Counter,
    /// Cycles rename stalled for structural reasons (ROB/IQ/LSQ/physical
    /// registers).
    pub dispatch_stalls: Counter,
    /// Speculative load-hit wakeups that had to be replayed on an L1 miss.
    pub replay_events: Counter,
    /// L1 data-cache hits.
    pub l1d_hits: Counter,
    /// L1 data-cache misses.
    pub l1d_misses: Counter,
    /// L2 hits.
    pub l2_hits: Counter,
    /// L2 misses (DRAM accesses).
    pub l2_misses: Counter,
    /// Prefetches issued by the L1/L2 stride prefetchers.
    pub prefetches: Counter,
    /// Commit-stall attribution (TraceDoctor-style, §7).
    pub stalls: StallBreakdown,
}

impl SimStats {
    /// Fresh, zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        SimStats::default()
    }

    /// Instructions per cycle.
    ///
    /// Returns 0 when no cycles have elapsed.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles.get() == 0 {
            0.0
        } else {
            self.committed.get() as f64 / self.cycles.get() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SimStats {
        /// L1D miss ratio over all L1D accesses.
        fn l1d_miss_ratio(&self) -> f64 {
            let total = self.l1d_hits.get() + self.l1d_misses.get();
            if total == 0 {
                0.0
            } else {
                self.l1d_misses.get() as f64 / total as f64
            }
        }
    }

    #[test]
    fn counter_basics() {
        let mut c = Counter::default();
        c.incr();
        c += 4;
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter::default();
        c.add(u64::MAX);
        c.incr();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn ipc_handles_zero_cycles() {
        let s = SimStats::new();
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn ipc_is_committed_over_cycles() {
        let mut s = SimStats::new();
        s.committed.add(300);
        s.cycles.add(200);
        assert!((s.ipc() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn miss_ratio_bounds() {
        let mut s = SimStats::new();
        assert_eq!(s.l1d_miss_ratio(), 0.0);
        s.l1d_hits.add(90);
        s.l1d_misses.add(10);
        assert!((s.l1d_miss_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn stall_breakdown_totals() {
        let mut b = StallBreakdown::default();
        b.frontend.add(3);
        b.scheme.add(4);
        b.execution.add(1);
        assert_eq!(b.total(), 8);
    }
}
