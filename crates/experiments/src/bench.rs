//! The `bench` subcommand: measures simulator throughput (simulated
//! micro-ops per wall-clock second) per (config × scheme) point, compares
//! the event-wheel scheduler against the reference full-scan scheduler,
//! times the full grid under both, and emits `BENCH_core.json` so the
//! performance trajectory is tracked from PR 1 on.

use crate::{run_grid, RunSpec};
use sb_core::Scheme;
use sb_uarch::{CancelToken, Core, CoreConfig, SchedulerKind};
use sb_workloads::{generate, generate_with, spec2017_profiles, GeneratorKind, TraceStore};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Safety valve matching the experiment engine's.
const MAX_CYCLES: u64 = 400_000_000;

/// Knobs for the core throughput bench.
#[derive(Clone, Debug)]
pub struct BenchOptions {
    /// Micro-ops per single-point throughput measurement.
    pub ops: usize,
    /// Micro-ops per benchmark for the full-grid wall-clock comparison
    /// (smaller: the reference scheduler runs the grid too).
    pub grid_ops: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            ops: 20_000,
            grid_ops: 4_000,
            seed: 2025,
        }
    }
}

/// One measured throughput point.
#[derive(Clone, Debug)]
pub struct ThroughputPoint {
    /// Configuration name (e.g. `mega`).
    pub config: String,
    /// Scheme label (e.g. `STT-Issue`).
    pub scheme: String,
    /// Simulated micro-ops per wall-clock second, event-wheel scheduler.
    pub event_wheel_ops_per_sec: f64,
    /// Same measurement on the reference scheduler, where taken.
    pub reference_ops_per_sec: Option<f64>,
}

impl ThroughputPoint {
    /// Event-wheel speedup over the reference scheduler, where measured.
    #[must_use]
    pub fn speedup(&self) -> Option<f64> {
        self.reference_ops_per_sec
            .map(|r| self.event_wheel_ops_per_sec / r)
    }
}

/// Trace-generation timings: the batched generator against the reference
/// per-op walk, and the persistent store's cold (generate + serialize)
/// against warm (deserialize-only) paths, each totalled over the full
/// 22-profile suite.
#[derive(Clone, Debug, Default)]
pub struct TraceGenReport {
    /// Seconds to generate all 22 traces with the reference generator.
    pub reference_secs: f64,
    /// Seconds to generate all 22 traces with the batched generator.
    pub batched_secs: f64,
    /// Seconds for a cold store pass (generate, encode, write).
    pub cold_store_secs: f64,
    /// Seconds for a warm store pass (read, validate, decode).
    pub warm_store_secs: f64,
}

impl TraceGenReport {
    /// Batched-generator speedup over the reference per-op walk (0 when
    /// unmeasured, keeping the JSON serialization finite).
    #[must_use]
    pub fn batched_speedup(&self) -> f64 {
        if self.batched_secs > 0.0 {
            self.reference_secs / self.batched_secs
        } else {
            0.0
        }
    }

    /// Warm-cache speedup over regenerating with the reference generator
    /// (0 when unmeasured).
    #[must_use]
    pub fn warm_speedup(&self) -> f64 {
        if self.warm_store_secs > 0.0 {
            self.reference_secs / self.warm_store_secs
        } else {
            0.0
        }
    }
}

/// One profile's wheel-vs-reference measurement for the hot/cold
/// instruction-layout tracking (`inst_layout` in `BENCH_core.json`).
#[derive(Clone, Debug)]
pub struct LayoutPoint {
    /// Profile name (e.g. `502.gcc`).
    pub profile: String,
    /// Why the profile is in the basket: `compute-bound` profiles are
    /// where shared per-op costs dominate the simulator (the gap the
    /// hot/cold split closes), `memory-bound` ones keep the ROB full.
    pub class: &'static str,
    /// Simulated micro-ops per second, event-wheel scheduler.
    pub event_wheel_ops_per_sec: f64,
    /// Simulated micro-ops per second, reference scheduler.
    pub reference_ops_per_sec: f64,
}

impl LayoutPoint {
    /// Event-wheel speedup over the reference scheduler.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.event_wheel_ops_per_sec / self.reference_ops_per_sec
    }
}

/// The hot/cold `Inst` layout section: record sizes plus per-profile
/// wheel-vs-reference throughput on Mega × STT-Issue.
#[derive(Clone, Debug, Default)]
pub struct InstLayoutReport {
    /// `size_of::<sb_uarch::HotInst>()` — pinned ≤ 64 by tests.
    pub hot_inst_bytes: usize,
    /// `size_of::<sb_uarch::ColdInst>()`.
    pub cold_inst_bytes: usize,
    /// Per-profile measurements.
    pub points: Vec<LayoutPoint>,
}

/// One profile's bare-vs-guarded runner measurement (`runner` in
/// `BENCH_core.json`): the identical simulation with and without the
/// fault-tolerance machinery the job layer wraps around every grid point
/// (`catch_unwind` plus a live cancel token polled at cycle-batch
/// granularity, with an armed-but-distant deadline).
#[derive(Clone, Debug)]
pub struct RunnerPoint {
    /// Profile name (e.g. `502.gcc`).
    pub profile: String,
    /// Simulated micro-ops per second with a bare `Core::run`.
    pub bare_ops_per_sec: f64,
    /// Same, under `catch_unwind` with the cancel token attached.
    pub guarded_ops_per_sec: f64,
}

impl RunnerPoint {
    /// Overhead of the guarded path in percent (negative = noise in the
    /// guarded path's favor).
    #[must_use]
    pub fn overhead_percent(&self) -> f64 {
        (self.bare_ops_per_sec / self.guarded_ops_per_sec - 1.0) * 100.0
    }
}

/// The fault-tolerance overhead ceiling the bench reports against: the
/// panic isolation and cancellation plumbing should stay in the noise.
/// It is reported, not asserted — one short measurement window on a
/// shared 2-CPU machine crosses it by noise alone.
pub const RUNNER_OVERHEAD_LIMIT_PERCENT: f64 = 2.0;

/// The `runner` section: per-profile overhead of the fault-tolerant
/// execution path on the Mega × STT-Issue basket.
#[derive(Clone, Debug, Default)]
pub struct RunnerReport {
    /// Per-profile measurements.
    pub points: Vec<RunnerPoint>,
}

impl RunnerReport {
    /// Mean overhead across the basket, in percent (0 when unmeasured).
    #[must_use]
    pub fn mean_overhead_percent(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points
            .iter()
            .map(RunnerPoint::overhead_percent)
            .sum::<f64>()
            / self.points.len() as f64
    }

    /// Whether the overhead stays under [`RUNNER_OVERHEAD_LIMIT_PERCENT`].
    #[must_use]
    pub fn within_budget(&self) -> bool {
        self.mean_overhead_percent() < RUNNER_OVERHEAD_LIMIT_PERCENT
    }
}

/// The full bench outcome.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Per-point throughput, all 4 configs × 4 schemes.
    pub points: Vec<ThroughputPoint>,
    /// Full-grid wall-clock seconds, event wheel.
    pub grid_event_wheel_secs: f64,
    /// Full-grid wall-clock seconds, reference scheduler.
    pub grid_reference_secs: f64,
    /// Trace-generation cold/warm comparison.
    pub tracegen: TraceGenReport,
    /// Hot/cold instruction-layout comparison.
    pub inst_layout: InstLayoutReport,
    /// Fault-tolerant-runner overhead comparison.
    pub runner: RunnerReport,
    /// Options the bench ran with.
    pub options: BenchOptions,
}

impl BenchReport {
    /// Grid wall-clock speedup of the event wheel over the reference.
    #[must_use]
    pub fn grid_speedup(&self) -> f64 {
        self.grid_reference_secs / self.grid_event_wheel_secs
    }

    /// The headline point: Mega × STT-Issue single-core speedup.
    #[must_use]
    pub fn mega_stt_issue_speedup(&self) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.config == "mega" && p.scheme == Scheme::SttIssue.label())
            .and_then(ThroughputPoint::speedup)
    }

    /// Serializes the report as `BENCH_core.json` (hand-rolled: the
    /// workspace is offline and carries no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"ops_per_point\": {},", self.options.ops);
        let _ = writeln!(
            s,
            "  \"grid_ops_per_benchmark\": {},",
            self.options.grid_ops
        );
        let _ = writeln!(s, "  \"seed\": {},", self.options.seed);
        s.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let reference = p
                .reference_ops_per_sec
                .map_or("null".to_string(), |v| format!("{v:.1}"));
            let speedup = p
                .speedup()
                .map_or("null".to_string(), |v| format!("{v:.2}"));
            let _ = write!(
                s,
                "    {{\"config\": \"{}\", \"scheme\": \"{}\", \
                 \"event_wheel_ops_per_sec\": {:.1}, \
                 \"reference_ops_per_sec\": {}, \"speedup\": {}}}",
                p.config, p.scheme, p.event_wheel_ops_per_sec, reference, speedup
            );
            s.push_str(if i + 1 < self.points.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");
        let _ = writeln!(
            s,
            "  \"inst_layout\": {{\"hot_inst_bytes\": {}, \"cold_inst_bytes\": {}, \"points\": [",
            self.inst_layout.hot_inst_bytes, self.inst_layout.cold_inst_bytes
        );
        for (i, p) in self.inst_layout.points.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"profile\": \"{}\", \"class\": \"{}\", \
                 \"event_wheel_ops_per_sec\": {:.1}, \"reference_ops_per_sec\": {:.1}, \
                 \"speedup\": {:.2}}}",
                p.profile,
                p.class,
                p.event_wheel_ops_per_sec,
                p.reference_ops_per_sec,
                p.speedup()
            );
            s.push_str(if i + 1 < self.inst_layout.points.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]},\n");
        s.push_str("  \"runner\": {\"points\": [\n");
        for (i, p) in self.runner.points.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"profile\": \"{}\", \"bare_ops_per_sec\": {:.1}, \
                 \"guarded_ops_per_sec\": {:.1}, \"overhead_percent\": {:.3}}}",
                p.profile,
                p.bare_ops_per_sec,
                p.guarded_ops_per_sec,
                p.overhead_percent()
            );
            s.push_str(if i + 1 < self.runner.points.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let _ = writeln!(
            s,
            "  ], \"mean_overhead_percent\": {:.3}, \"limit_percent\": {:.1}, \
             \"within_budget\": {}}},",
            self.runner.mean_overhead_percent(),
            RUNNER_OVERHEAD_LIMIT_PERCENT,
            self.runner.within_budget()
        );
        let _ = writeln!(
            s,
            "  \"tracegen\": {{\"reference_secs\": {:.4}, \"batched_secs\": {:.4}, \
             \"cold_store_secs\": {:.4}, \"warm_store_secs\": {:.4}, \
             \"batched_speedup\": {:.2}, \"warm_speedup\": {:.2}}},",
            self.tracegen.reference_secs,
            self.tracegen.batched_secs,
            self.tracegen.cold_store_secs,
            self.tracegen.warm_store_secs,
            self.tracegen.batched_speedup(),
            self.tracegen.warm_speedup()
        );
        let _ = writeln!(
            s,
            "  \"grid\": {{\"event_wheel_secs\": {:.3}, \"reference_secs\": {:.3}, \
             \"speedup\": {:.2}}}",
            self.grid_event_wheel_secs,
            self.grid_reference_secs,
            self.grid_speedup()
        );
        s.push_str("}\n");
        s
    }

    /// Human-readable summary table.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "core throughput ({} uops/point, simulated ops/sec):",
            self.options.ops
        );
        for p in &self.points {
            let speedup = p
                .speedup()
                .map_or(String::new(), |v| format!("  ({v:.2}x vs reference)"));
            let _ = writeln!(
                s,
                "  {:<8} {:<12} {:>12.0}{}",
                p.config, p.scheme, p.event_wheel_ops_per_sec, speedup
            );
        }
        let _ = writeln!(
            s,
            "trace generation (22 profiles x {} uops): reference {:.3}s, batched {:.3}s \
             ({:.2}x), store cold {:.3}s, store warm {:.3}s ({:.2}x vs reference)",
            self.options.ops,
            self.tracegen.reference_secs,
            self.tracegen.batched_secs,
            self.tracegen.batched_speedup(),
            self.tracegen.cold_store_secs,
            self.tracegen.warm_store_secs,
            self.tracegen.warm_speedup()
        );
        let _ = writeln!(
            s,
            "inst layout (hot {} B / cold {} B, mega x STT-Issue ops/sec):",
            self.inst_layout.hot_inst_bytes, self.inst_layout.cold_inst_bytes
        );
        for p in &self.inst_layout.points {
            let _ = writeln!(
                s,
                "  {:<14} {:<13} wheel {:>10.0}  reference {:>10.0}  ({:.2}x)",
                p.profile,
                p.class,
                p.event_wheel_ops_per_sec,
                p.reference_ops_per_sec,
                p.speedup()
            );
        }
        let _ = writeln!(
            s,
            "fault-tolerant runner (mega x STT-Issue): mean overhead {:.2}% (limit {:.1}%, {})",
            self.runner.mean_overhead_percent(),
            RUNNER_OVERHEAD_LIMIT_PERCENT,
            if self.runner.within_budget() {
                "within budget"
            } else {
                "over budget"
            }
        );
        let _ = writeln!(
            s,
            "grid wall-clock ({} uops/bench): event-wheel {:.2}s, reference {:.2}s ({:.2}x)",
            self.options.grid_ops,
            self.grid_event_wheel_secs,
            self.grid_reference_secs,
            self.grid_speedup()
        );
        s
    }
}

/// The workload basket each point is measured over: one balanced profile
/// (gcc), one memory-bound pointer chaser that keeps the ROB full (mcf —
/// where a full-ROB scan hurts most), and one branchy profile (omnetpp).
const BASKET: [&str; 3] = ["502.gcc", "505.mcf", "520.omnetpp"];

/// Measures one point: simulated micro-ops per second across the basket
/// (total ops / total wall time). Each trace runs three times and the
/// fastest run counts (first touch pays allocation and cache warmup);
/// trace generation is excluded from the timed region.
fn measure_point(config: &CoreConfig, scheme: Scheme, opts: &BenchOptions) -> f64 {
    let profiles = spec2017_profiles();
    let mut total_secs = 0.0;
    for name in BASKET {
        let profile = profiles
            .iter()
            .find(|p| p.name == name)
            .expect("basket profile exists");
        let trace = generate(profile, opts.ops, opts.seed);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut core = Core::with_scheme(config.clone(), scheme, trace.clone());
            let start = Instant::now();
            core.run(MAX_CYCLES);
            let secs = start.elapsed().as_secs_f64();
            assert!(core.is_done(), "bench point did not finish");
            best = best.min(secs);
        }
        total_secs += best;
    }
    (opts.ops * BASKET.len()) as f64 / total_secs
}

fn with_scheduler(config: &CoreConfig, kind: SchedulerKind) -> CoreConfig {
    let mut c = config.clone();
    c.scheduler = kind;
    c
}

/// The `inst_layout` basket: the compute-bound profiles are where shared
/// per-op simulator costs (dispatch/rename, `Inst` movement, the cache
/// model) dominate and the event wheel's advantage used to collapse; the
/// memory-bound ones keep the ROB full, where the reference full-scan
/// hurts most. Guard: the split must lift the former without regressing
/// the latter.
const LAYOUT_BASKET: [(&str, &str); 4] = [
    ("502.gcc", "compute-bound"),
    ("538.imagick", "compute-bound"),
    ("505.mcf", "memory-bound"),
    // Streams through the prefetchers: the ROB never fills, so its
    // simulator cost profile is compute-like despite the memory traffic.
    ("503.bwaves", "streaming"),
];

/// Measures the hot/cold layout section: Mega × STT-Issue per profile,
/// both schedulers interleaved (best of `reps` each, which suppresses the
/// run-to-run drift of a shared CPU better than back-to-back blocks).
fn measure_inst_layout(opts: &BenchOptions) -> InstLayoutReport {
    let profiles = spec2017_profiles();
    let mut points = Vec::new();
    for (name, class) in LAYOUT_BASKET {
        let profile = profiles
            .iter()
            .find(|p| p.name == name)
            .expect("layout profile exists");
        let trace = generate(profile, opts.ops, opts.seed);
        let mut best = [f64::INFINITY; 2];
        for _ in 0..5 {
            for (i, kind) in [SchedulerKind::EventWheel, SchedulerKind::Reference]
                .into_iter()
                .enumerate()
            {
                let config = with_scheduler(&CoreConfig::mega(), kind);
                let mut core = Core::with_scheme(config, Scheme::SttIssue, trace.clone());
                let start = Instant::now();
                core.run(MAX_CYCLES);
                let secs = start.elapsed().as_secs_f64();
                assert!(core.is_done(), "layout point did not finish");
                best[i] = best[i].min(secs);
            }
        }
        points.push(LayoutPoint {
            profile: name.to_string(),
            class,
            event_wheel_ops_per_sec: opts.ops as f64 / best[0],
            reference_ops_per_sec: opts.ops as f64 / best[1],
        });
    }
    InstLayoutReport {
        hot_inst_bytes: std::mem::size_of::<sb_uarch::HotInst>(),
        cold_inst_bytes: std::mem::size_of::<sb_uarch::ColdInst>(),
        points,
    }
}

/// Measures the fault-tolerant runner's overhead: Mega × STT-Issue per
/// basket profile, bare `Core::run` against the guarded path the job layer
/// uses for every grid point (`catch_unwind` plus an attached cancel token
/// with a distant-but-armed deadline, so the per-batch deadline check is
/// actually exercised). Interleaved best-of-5, matching
/// `measure_inst_layout`'s discipline.
fn measure_runner(opts: &BenchOptions) -> RunnerReport {
    let profiles = spec2017_profiles();
    let mut points = Vec::new();
    for name in BASKET {
        let profile = profiles
            .iter()
            .find(|p| p.name == name)
            .expect("basket profile exists");
        let trace = generate(profile, opts.ops, opts.seed);
        let mut best = [f64::INFINITY; 2];
        for _ in 0..5 {
            // Bare: the pre-PR execution path.
            let mut core = Core::with_scheme(CoreConfig::mega(), Scheme::SttIssue, trace.clone());
            let start = Instant::now();
            core.run(MAX_CYCLES);
            best[0] = best[0].min(start.elapsed().as_secs_f64());
            assert!(core.is_done(), "bare runner point did not finish");

            // Guarded: what run_batch wraps around every job.
            let token = CancelToken::new().child(Some(Instant::now() + Duration::from_secs(3600)));
            let mut core = Core::with_scheme(CoreConfig::mega(), Scheme::SttIssue, trace.clone());
            core.set_cancel_token(token);
            let start = Instant::now();
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                core.run(MAX_CYCLES);
                core
            }));
            best[1] = best[1].min(start.elapsed().as_secs_f64());
            let core = run.expect("guarded runner point must not panic");
            assert!(
                core.is_done() && !core.interrupted(),
                "guarded runner point did not finish"
            );
        }
        points.push(RunnerPoint {
            profile: name.to_string(),
            bare_ops_per_sec: opts.ops as f64 / best[0],
            guarded_ops_per_sec: opts.ops as f64 / best[1],
        });
    }
    RunnerReport { points }
}

/// Times trace production over the full 22-profile suite at `ops` micro-ops
/// each: both generator kinds (best of three passes after an untimed warmup,
/// matching `measure_point`'s discipline), then a cold store pass (into a
/// scratch cache directory) and a warm pass over the files it wrote (best of
/// three; the cold pass is inherently single-shot per directory, so it takes
/// the best over three fresh directories).
fn measure_tracegen(ops: usize, seed: u64) -> TraceGenReport {
    let profiles = spec2017_profiles();
    let timed = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    let best3 = |f: &mut dyn FnMut()| {
        f(); // untimed warmup: first touch pays allocation and page faults
        (0..3).map(|_| timed(f)).fold(f64::INFINITY, f64::min)
    };

    let reference_secs = best3(&mut || {
        for p in &profiles {
            std::hint::black_box(generate_with(GeneratorKind::Reference, p, ops, seed));
        }
    });
    let batched_secs = best3(&mut || {
        for p in &profiles {
            std::hint::black_box(generate_with(GeneratorKind::Batched, p, ops, seed));
        }
    });

    let scratch = std::env::temp_dir().join(format!("sb-tracegen-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut cold_store_secs = f64::INFINITY;
    let mut warm_store_secs = f64::INFINITY;
    for round in 0..3 {
        let store = TraceStore::new(scratch.join(round.to_string()));
        cold_store_secs = cold_store_secs.min(timed(&mut || {
            for p in &profiles {
                std::hint::black_box(store.load_or_generate(p, ops, seed));
            }
        }));
        warm_store_secs = warm_store_secs.min(best3(&mut || {
            for p in &profiles {
                std::hint::black_box(store.load_or_generate(p, ops, seed));
            }
        }));
    }
    let _ = std::fs::remove_dir_all(&scratch);

    TraceGenReport {
        reference_secs,
        batched_secs,
        cold_store_secs,
        warm_store_secs,
    }
}

/// Runs the full core bench: per-point throughput (with reference-scheduler
/// comparison points) plus the grid wall-clock comparison.
#[must_use]
pub fn run_core_bench(opts: &BenchOptions) -> BenchReport {
    let configs = CoreConfig::boom_sweep();
    let mut points = Vec::new();
    for config in &configs {
        for scheme in Scheme::all() {
            let wheel = measure_point(
                &with_scheduler(config, SchedulerKind::EventWheel),
                scheme,
                opts,
            );
            // Reference comparison on the headline config (all schemes) and
            // on STT-Issue everywhere; measuring the slow scheduler on all
            // 16 points would dominate bench time for no extra signal.
            let reference = (config.name == "mega" || scheme == Scheme::SttIssue).then(|| {
                measure_point(
                    &with_scheduler(config, SchedulerKind::Reference),
                    scheme,
                    opts,
                )
            });
            points.push(ThroughputPoint {
                config: config.name.to_string(),
                scheme: scheme.label().to_string(),
                event_wheel_ops_per_sec: wheel,
                reference_ops_per_sec: reference,
            });
        }
    }

    let tracegen = measure_tracegen(opts.ops, opts.seed);
    let inst_layout = measure_inst_layout(opts);
    let runner = measure_runner(opts);

    let spec = RunSpec {
        ops: opts.grid_ops,
        seed: opts.seed,
    };
    // Pre-warm the persistent trace store for this spec so both timed
    // grids see identical (warm) trace-production state — otherwise the
    // first grid pays cold generate+encode+write and the comparison is
    // biased against it.
    for p in &spec2017_profiles() {
        let _ = crate::bench_trace(p, &spec);
    }
    let wheel_configs: Vec<CoreConfig> = configs
        .iter()
        .map(|c| with_scheduler(c, SchedulerKind::EventWheel))
        .collect();
    let reference_configs: Vec<CoreConfig> = configs
        .iter()
        .map(|c| with_scheduler(c, SchedulerKind::Reference))
        .collect();
    let start = Instant::now();
    let _ = run_grid(&wheel_configs, &spec);
    let grid_event_wheel_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let _ = run_grid(&reference_configs, &spec);
    let grid_reference_secs = start.elapsed().as_secs_f64();

    BenchReport {
        points,
        grid_event_wheel_secs,
        grid_reference_secs,
        tracegen,
        inst_layout,
        runner,
        options: opts.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_sane() {
        let report = BenchReport {
            points: vec![ThroughputPoint {
                config: "mega".into(),
                scheme: "STT-Issue".into(),
                event_wheel_ops_per_sec: 1_000_000.0,
                reference_ops_per_sec: Some(200_000.0),
            }],
            grid_event_wheel_secs: 1.0,
            grid_reference_secs: 6.0,
            tracegen: TraceGenReport {
                reference_secs: 0.8,
                batched_secs: 0.4,
                cold_store_secs: 0.5,
                warm_store_secs: 0.1,
            },
            inst_layout: InstLayoutReport {
                hot_inst_bytes: 64,
                cold_inst_bytes: 80,
                points: vec![LayoutPoint {
                    profile: "502.gcc".into(),
                    class: "compute-bound",
                    event_wheel_ops_per_sec: 4_800_000.0,
                    reference_ops_per_sec: 2_000_000.0,
                }],
            },
            runner: RunnerReport {
                points: vec![RunnerPoint {
                    profile: "502.gcc".into(),
                    bare_ops_per_sec: 1_010_000.0,
                    guarded_ops_per_sec: 1_000_000.0,
                }],
            },
            options: BenchOptions::default(),
        };
        let json = report.to_json();
        assert!(json.contains("\"config\": \"mega\""));
        assert!(json.contains("\"inst_layout\""));
        assert!(json.contains("\"hot_inst_bytes\": 64"));
        assert!(json.contains("\"class\": \"compute-bound\""));
        assert!(json.contains("\"speedup\": 2.40"));
        assert!(report.summary().contains("inst layout"));
        assert!(json.contains("\"speedup\": 5.00"));
        assert!(json.contains("\"tracegen\""));
        assert!(json.contains("\"batched_speedup\": 2.00"));
        assert!(json.contains("\"warm_speedup\": 8.00"));
        assert!((report.grid_speedup() - 6.0).abs() < 1e-9);
        assert_eq!(report.mega_stt_issue_speedup(), Some(5.0));
        assert!((report.tracegen.batched_speedup() - 2.0).abs() < 1e-9);
        assert!((report.tracegen.warm_speedup() - 8.0).abs() < 1e-9);
        assert!(report.summary().contains("grid wall-clock"));
        assert!(report.summary().contains("trace generation"));
        assert!(json.contains("\"runner\""));
        assert!(json.contains("\"overhead_percent\": 1.000"));
        assert!(json.contains("\"limit_percent\": 2.0"));
        assert!(json.contains("\"within_budget\": true"));
        assert!((report.runner.mean_overhead_percent() - 1.0).abs() < 1e-9);
        assert!(report.runner.within_budget());
        assert!(report.summary().contains("within budget"));
        assert!(report.summary().contains("fault-tolerant runner"));
    }

    #[test]
    fn missing_reference_serializes_as_null() {
        let report = BenchReport {
            points: vec![ThroughputPoint {
                config: "small".into(),
                scheme: "Baseline".into(),
                event_wheel_ops_per_sec: 5.0,
                reference_ops_per_sec: None,
            }],
            grid_event_wheel_secs: 1.0,
            grid_reference_secs: 1.0,
            tracegen: TraceGenReport::default(),
            inst_layout: InstLayoutReport::default(),
            runner: RunnerReport::default(),
            options: BenchOptions::default(),
        };
        assert!(report.to_json().contains("\"reference_ops_per_sec\": null"));
        assert!(report.points[0].speedup().is_none());
        // An unmeasured runner section reports zero overhead in budget.
        assert!(report.runner.within_budget());
        assert!(report
            .to_json()
            .contains("\"mean_overhead_percent\": 0.000"));
    }

    #[test]
    fn tracegen_measurement_produces_positive_timings() {
        let t = measure_tracegen(300, 3);
        assert!(t.reference_secs > 0.0);
        assert!(t.batched_secs > 0.0);
        assert!(t.cold_store_secs > 0.0);
        assert!(t.warm_store_secs > 0.0);
    }
}
