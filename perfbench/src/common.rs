//! What the three workloads share: scratch directories, output checks,
//! the stats digest, exact simulated counts and the A/B cost timer.

use sb_core::SchemeConfig;
use sb_experiments::stats_store::encode_stats;
use sb_isa::Trace;
use sb_stats::SimStats;
use sb_uarch::{CancelToken, Core, CoreConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Cycle cap for every simulation the benchmark drives itself (the
/// engine's own safety valve).
pub const MAX_CYCLES: u64 = 400_000_000;

/// One repetition's private stores; created empty, removed afterwards.
pub struct Dirs {
    /// Trace store the set-up fills and the timed phase reads.
    pub traces: PathBuf,
    /// Stats store the timed phase writes.
    pub stats: PathBuf,
    /// Reports, CSVs, leaderboard and manifest.
    pub out: PathBuf,
}

/// Output checks of one repetition: every check is one attempt.
#[derive(Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first few failure messages, for stderr.
    pub messages: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }
}

/// FNV-1a over the stats-store encoding of every `SimStats`, in run order.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, name: &str, stats: &SimStats) {
        for b in encode_stats(name, stats) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Exact simulated counts summed over every simulation of a repetition.
#[derive(Clone, Copy, Default)]
pub struct Counts {
    pub sim_cycles: u64,
    pub committed: u64,
    pub squashed: u64,
    pub replay_events: u64,
    pub taints_applied: u64,
    pub scheme_broadcasts: u64,
    pub delayed_transmitters: u64,
    pub prefetches: u64,
    /// Leakage plus contention observer records (security runs only).
    pub observer_records: u64,
    /// Stats-store reads made by the read-back check, and how many hit.
    pub stats_loads: u64,
    pub stats_hits: u64,
}

impl Counts {
    pub fn add(&mut self, s: &SimStats) {
        self.sim_cycles += s.cycles.get();
        self.committed += s.committed.get();
        self.squashed += s.squashed.get();
        self.replay_events += s.replay_events.get();
        self.taints_applied += s.taints_applied.get();
        self.scheme_broadcasts += s.scheme_broadcasts.get();
        self.delayed_transmitters += s.delayed_transmitters.get();
        self.prefetches += s.prefetches.get();
    }
}

/// What one repetition did.
pub struct RepOutcome {
    /// Wall-clock seconds of the timed phase.
    pub wall_s: f64,
    pub counts: Counts,
    pub digest: u64,
    pub checks: Checks,
}

/// One simulation the A/B timers can rebuild at will.
pub type SimInput = (CoreConfig, SchemeConfig, Trace);

/// A benchmark workload: a set-up that fills the repetition's trace store,
/// and a timed phase that simulates from it and checks its own outputs.
pub trait Workload {
    /// Fills `dirs.traces` with every trace the timed phase simulates and
    /// builds whatever else it needs in memory. Returns the encoded trace
    /// bytes (counted only while tracing).
    fn setup(&mut self, dirs: &Dirs, tr: &crate::spans::Tracer) -> u64;

    /// Runs the timed phase, then the output checks. With `tr` on, drives
    /// the jobs through the engine's public calls with a span around each.
    fn run(&mut self, dirs: &Dirs, tr: &crate::spans::Tracer) -> RepOutcome;

    /// A few representative simulations of this workload, for the
    /// job-guard A/B timer.
    fn sample_inputs(&self) -> Vec<SimInput>;

    /// Workload-specific A/B costs (`<metric>`, fraction), measured after
    /// the traced repetitions.
    fn ab_costs(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (NaN when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Alternates `a` and `b` (one call each per round) for about `budget`,
/// and returns the median over rounds of `time(b) / time(a) - 1`: what `b`
/// costs on top of `a`, as a fraction. Never asserted on.
pub fn cost_frac(budget: Duration, mut a: impl FnMut(), mut b: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut ratios = Vec::new();
    while ratios.len() < 5 || (start.elapsed() < budget && ratios.len() < 400) {
        // Alternate which side runs first so drift favours neither.
        let (ta, tb) = if ratios.len() % 2 == 0 {
            let ta = timed(&mut a);
            (ta, timed(&mut b))
        } else {
            let tb = timed(&mut b);
            (timed(&mut a), tb)
        };
        ratios.push(tb / ta);
    }
    median(&ratios) - 1.0
}

fn timed(f: &mut impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// `experiments.jobs.guard_cost_frac`: the job layer's guard
/// (`catch_unwind` plus an armed, deadline-carrying cancel token polled by
/// `Core::run`) against a bare construct-and-run of the same inputs.
pub fn guard_cost_frac(inputs: &[SimInput], budget: Duration) -> f64 {
    let bare = || {
        for (config, scheme, trace) in inputs {
            let mut core = Core::new(config.clone(), *scheme, trace.clone());
            std::hint::black_box(core.run(MAX_CYCLES));
        }
    };
    let budget_token = CancelToken::new();
    let guarded = || {
        for (config, scheme, trace) in inputs {
            let deadline = Instant::now() + Duration::from_secs(3600);
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut core = Core::new(config.clone(), *scheme, trace.clone());
                core.set_cancel_token(budget_token.child(Some(deadline)));
                core.run(MAX_CYCLES).committed.get()
            }));
            std::hint::black_box(ran.ok());
        }
    };
    cost_frac(budget, bare, guarded)
}

/// FNV-1a of a string: the per-benchmark seed derivation the engine uses
/// (`RunSpec::seed ^ fnv1a(profile name)`).
pub fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// `small`, `medium`, `large` or `mega`: the preset a (possibly
/// sweep-derived, `mega+rob64+w2`) configuration name starts from.
pub fn preset_of(config_name: &str) -> &'static str {
    match config_name.split('+').next().unwrap_or_default() {
        "small" => "small",
        "medium" => "medium",
        "large" => "large",
        "mega" => "mega",
        _ => "other",
    }
}

/// Lower-case scheme key, as in sweep specs and metric names.
pub fn scheme_key(s: sb_core::Scheme) -> &'static str {
    match s {
        sb_core::Scheme::Baseline => "baseline",
        sb_core::Scheme::SttRename => "stt-rename",
        sb_core::Scheme::SttIssue => "stt-issue",
        sb_core::Scheme::Nda => "nda",
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
