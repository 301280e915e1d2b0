//! The run grid: simulate every (config, scheme, benchmark) point, with
//! deterministic seeding, over the fault-tolerant job layer — and the one
//! memoized point runner the grid, the design-space sweep and the report
//! builders share.
//!
//! All grid points are flattened into one job list (configs × schemes ×
//! benchmarks) so the pool stays saturated end-to-end instead of
//! serializing on (config, scheme) suite boundaries. [`run_grid_with`],
//! [`crate::dse::run_sweep`] and the report builders (table 4, table 5's
//! gem5 rows, §9.2) only build their jobs, labels and stats-store keys;
//! `run_points` runs them. Each point runs as a [`crate::jobs`] job:
//! panics are isolated, per-job deadlines and the global run budget are
//! enforced cooperatively through the core's cancel token, and with a
//! [`crate::stats_store::StatsStore`] every completed point's `SimStats`
//! is persisted so `--resume` re-simulates only the missing points.
//!
//! Jobs run trace-major: every job on one trace before any job on the
//! next. Each decoded trace is shared by its jobs' cores as an
//! `Arc<Trace>` and dropped once its last job has it, so a batch holds
//! about one trace per worker however many profiles and replicates it
//! spans.

use crate::jobs::{self, JobCtx, JobError, JobFailure, JobPolicy};
use crate::stats_store::{combine_fp, tag_fp, StatsStore};
use sb_core::{Scheme, SchemeConfig};
use sb_isa::Trace;
use sb_stats::{BenchResult, SimStats, SuiteSummary};
use sb_uarch::{Core, CoreConfig};
use sb_workloads::{cached_generate, spec2017_profiles, WorkloadProfile};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Safety valve: no benchmark may run longer than this many cycles.
const MAX_CYCLES: u64 = 400_000_000;

/// Parameters of one grid run.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Dynamic micro-ops per benchmark trace.
    pub ops: usize,
    /// Base RNG seed (each benchmark derives its own).
    pub seed: u64,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            ops: 60_000,
            seed: 2025,
        }
    }
}

/// Typed failure of a grid lookup or report computation — what used to be
/// a `panic!` deep inside a report function and is now surfaced as a
/// per-report failure by the CLI.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExperimentError {
    /// A configuration name outside the BOOM sweep.
    UnknownConfig(String),
    /// The `(config, scheme)` point was not part of the grid.
    MissingGridPoint {
        /// Requested configuration name.
        config: String,
        /// Requested scheme.
        scheme: Scheme,
    },
    /// A figure's trend line could not be fitted: after a degraded run (or
    /// on a one-config sweep) fewer than two usable points remain, or every
    /// surviving configuration has the same baseline IPC.
    DegenerateTrend {
        /// Scheme whose trend was requested.
        scheme: Scheme,
        /// The underlying fit failure.
        reason: sb_stats::TrendError,
    },
    /// The point ran but some of its benchmarks failed, so suite-level
    /// summaries would silently average over a partial basket.
    IncompleteSuite {
        /// Configuration name.
        config: String,
        /// Scheme.
        scheme: Scheme,
        /// Benchmarks that produced results.
        have: usize,
        /// Benchmarks the suite requires.
        want: usize,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::UnknownConfig(name) => write!(f, "unknown config {name}"),
            ExperimentError::MissingGridPoint { config, scheme } => {
                write!(f, "no grid point ({config}, {scheme})")
            }
            ExperimentError::IncompleteSuite {
                config,
                scheme,
                have,
                want,
            } => write!(
                f,
                "suite ({config}, {scheme}) is incomplete: {have} of {want} \
                 benchmarks produced results"
            ),
            ExperimentError::DegenerateTrend { scheme, reason } => write!(
                f,
                "trend for {scheme} is degenerate: {reason} (need at least \
                 two configurations with distinct baseline IPC)"
            ),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// The deterministic trace every grid point simulates for `profile` under
/// `spec`: each benchmark's trace is generated once and shared by every
/// (config, scheme) point, the report builders' extra points included.
/// Backed by the persistent trace store: repeated CLI invocations load the
/// serialized trace instead of regenerating (disable or redirect via
/// [`sb_workloads::TRACE_CACHE_ENV`]). Caching cannot change results — the
/// store validates checksums and falls back to regeneration, and the
/// golden/regression suites assert cached and fresh traces simulate
/// identically.
#[must_use]
pub fn bench_trace(profile: &WorkloadProfile, spec: &RunSpec) -> sb_isa::Trace {
    cached_generate(profile, spec.ops, bench_seed(profile, spec))
}

/// The per-benchmark seed `bench_trace` generates with — also the seed
/// component of the point's stats-store key, so trace identity and result
/// identity are keyed consistently.
pub(crate) fn bench_seed(profile: &WorkloadProfile, spec: &RunSpec) -> u64 {
    spec.seed ^ sb_isa::fnv::hash_str(profile.name)
}

/// A benchmark's suite row: its committed micro-ops and cycles.
pub(crate) fn bench_row(name: &str, stats: &SimStats) -> BenchResult {
    BenchResult::new(name, stats.committed.get(), stats.cycles.get())
}

/// All suite results for a set of configurations and schemes. Suites may
/// be *partial* after a degraded run (some jobs failed); the accessors
/// return typed errors instead of panicking so report functions surface
/// exactly which point is missing or incomplete.
#[derive(Debug, Default)]
pub struct GridResults {
    /// `(config name, scheme)` → per-benchmark rows (survivors only).
    suites: HashMap<(String, Scheme), Vec<BenchResult>>,
    /// Configuration names actually in the grid, in run order — the list
    /// report builders iterate instead of hardwiring the BOOM names.
    configs: Vec<String>,
    /// Rows a complete suite must have (0 = accept any, for hand-built
    /// grids in tests).
    benchmarks: usize,
}

impl GridResults {
    /// The configuration names this grid was run over, in run order.
    ///
    /// Report builders derive their rows and trend points from this list,
    /// so a grid built from any config set (not just the four BOOM points)
    /// reports exactly the configurations it actually contains.
    #[must_use]
    pub fn configs(&self) -> &[String] {
        &self.configs
    }

    /// Looks up one suite.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::MissingGridPoint`] if the point was not part of
    /// the grid; [`ExperimentError::IncompleteSuite`] if some of its
    /// benchmark jobs failed.
    pub fn suite(&self, config: &str, scheme: Scheme) -> Result<&[BenchResult], ExperimentError> {
        let rows = self
            .suites
            .get(&(config.to_string(), scheme))
            .ok_or_else(|| ExperimentError::MissingGridPoint {
                config: config.to_string(),
                scheme,
            })?;
        if self.benchmarks > 0 && rows.len() != self.benchmarks {
            return Err(ExperimentError::IncompleteSuite {
                config: config.to_string(),
                scheme,
                have: rows.len(),
                want: self.benchmarks,
            });
        }
        Ok(rows)
    }

    /// Baseline-normalized summary for one (config, scheme).
    ///
    /// # Errors
    ///
    /// Propagates [`GridResults::suite`] errors for either the baseline or
    /// the scheme suite.
    pub fn summary(&self, config: &str, scheme: Scheme) -> Result<SuiteSummary, ExperimentError> {
        Ok(SuiteSummary::new(
            self.suite(config, Scheme::Baseline)?.to_vec(),
            self.suite(config, scheme)?.to_vec(),
        ))
    }

    /// Absolute baseline suite IPC for a configuration (Table 1's row).
    ///
    /// # Errors
    ///
    /// Propagates [`GridResults::suite`] errors.
    pub fn baseline_ipc(&self, config: &str) -> Result<f64, ExperimentError> {
        Ok(sb_stats::suite_ipc(self.suite(config, Scheme::Baseline)?))
    }
}

/// A progress observer for batch runs: called once per *settled* point
/// (simulated or served from the stats store) with the running count and
/// the batch total. Failed points emit no event — progress is monotone and
/// the run report carries the failures. The grid and sweep runners report
/// through this sink instead of printing, so the CLI stays silent during a
/// run.
#[derive(Clone)]
pub struct ProgressSink(Arc<dyn Fn(usize, usize) + Send + Sync>);

impl ProgressSink {
    /// Wraps a callback receiving `(settled, total)`.
    #[must_use]
    pub fn new(f: impl Fn(usize, usize) + Send + Sync + 'static) -> Self {
        ProgressSink(Arc::new(f))
    }

    /// Reports that `settled` of `total` points have produced results.
    pub fn report(&self, settled: usize, total: usize) {
        (self.0)(settled, total);
    }
}

impl std::fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressSink")
    }
}

/// Execution options for [`run_grid_with`] and [`crate::dse::run_sweep`].
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Job-layer policy: workers, deadlines, budget, faults.
    pub policy: JobPolicy,
    /// Read the stats store before simulating (the `--resume` path).
    /// Writes happen whenever the store is enabled, resume or not, so
    /// every completed run leaves a resumable cache behind.
    pub resume: bool,
    /// The result store; `None` disables persistence entirely.
    pub store: Option<StatsStore>,
    /// Called after every settled point; `None` runs silently.
    pub progress: Option<ProgressSink>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            policy: JobPolicy::default(),
            resume: false,
            store: StatsStore::from_env(),
            progress: None,
        }
    }
}

impl RunOptions {
    /// The report builders' options: the default job policy and no stats
    /// store, so their points always simulate and never touch the cache.
    pub(crate) fn storeless() -> Self {
        RunOptions {
            policy: JobPolicy::default(),
            resume: false,
            store: None,
            progress: None,
        }
    }
}

/// What a grid run did: how much was simulated versus served from the
/// stats store, and every per-job failure.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Points simulated this run.
    pub simulated: usize,
    /// Points served from the stats store (`--resume` hits).
    pub from_cache: usize,
    /// Total points in the grid.
    pub total: usize,
    /// Every failed job, in index order.
    pub failures: Vec<JobError>,
    /// Traces decoded (loaded or generated) this run: at most one per
    /// trace slot, none on a fully-cached resume.
    pub traces_decoded: usize,
    /// The most decoded traces resident at once during the run — about
    /// one per worker, since jobs run trace-major and each trace is
    /// dropped after its last job.
    pub peak_resident_traces: usize,
}

impl RunReport {
    /// True when every point produced a result.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// The per-job failure report (empty string when clean); same format
    /// as [`jobs::BatchReport::render_failures`].
    #[must_use]
    pub fn render_failures(&self) -> String {
        jobs::render_failures(&self.failures, self.total)
    }
}

/// One job of a memoized batch: a core and scheme configuration run on
/// one of the batch's shared traces, keyed in the stats store by that
/// trace's seed and `fp`.
pub(crate) struct PointJob<'a> {
    pub config: &'a CoreConfig,
    pub scheme: SchemeConfig,
    /// Index into the batch's trace slots.
    pub slot: usize,
    /// Stats-store fingerprint of everything but `(benchmark, ops, seed)`.
    pub fp: u64,
}

/// A trace shared by every job that names it: `profile` at `seed`.
pub(crate) struct TraceSlot<'a> {
    pub profile: &'a WorkloadProfile,
    pub seed: u64,
}

/// The decoded traces of one batch, one cell per trace slot. A cell
/// decodes its trace for the first job that needs it, lends it to each
/// job as a shared [`Arc`], and lets go of it once every job of the slot
/// has been served. The trace itself is freed when the last core using it
/// is dropped.
struct TraceCells<'s, 'a> {
    slots: &'s [TraceSlot<'a>],
    ops: usize,
    cells: Vec<Mutex<TraceCell>>,
    decoded: AtomicUsize,
    /// Decoded traces not yet freed, and the most there ever were. A job
    /// that panics mid-simulation skips its release, leaving the count
    /// high, never low.
    resident: AtomicUsize,
    peak: AtomicUsize,
}

struct TraceCell {
    /// Jobs of this slot not yet served.
    pending: usize,
    trace: Option<Arc<Trace>>,
}

impl<'s, 'a> TraceCells<'s, 'a> {
    fn new(slots: &'s [TraceSlot<'a>], batch: &[PointJob<'_>], ops: usize) -> Self {
        let mut pending = vec![0; slots.len()];
        for job in batch {
            pending[job.slot] += 1;
        }
        TraceCells {
            slots,
            ops,
            cells: pending
                .into_iter()
                .map(|pending| {
                    Mutex::new(TraceCell {
                        pending,
                        trace: None,
                    })
                })
                .collect(),
            decoded: AtomicUsize::new(0),
            resident: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Serves one job of `slot`, returning the slot's trace when the job
    /// needs it (`need`; a stats-store hit does not). The trace is decoded
    /// only if it is not already resident, which — since a cell lets go
    /// only after its last job — happens at most once per slot. A job
    /// hands the trace back through [`TraceCells::release`].
    fn serve(&self, slot: usize, need: bool) -> Option<Arc<Trace>> {
        // Every update below leaves the cell valid, so a poisoned lock
        // (a panicking decode) still hands back usable data.
        let mut cell = self.cells[slot]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        cell.pending -= 1;
        let trace = need.then(|| {
            Arc::clone(cell.trace.get_or_insert_with(|| {
                let TraceSlot { profile, seed } = self.slots[slot];
                let trace = Arc::new(cached_generate(profile, self.ops, seed));
                self.decoded.fetch_add(1, Ordering::Relaxed);
                let now = self.resident.fetch_add(1, Ordering::Relaxed) + 1;
                self.peak.fetch_max(now, Ordering::Relaxed);
                trace
            }))
        });
        if cell.pending == 0 {
            self.release(cell.trace.take());
        }
        trace
    }

    /// Drops one reference to a decoded trace, counting the trace out
    /// (before freeing it, so the count never runs ahead of memory) if it
    /// was the last.
    fn release(&self, trace: Option<Arc<Trace>>) {
        if let Some(last) = trace.and_then(Arc::into_inner) {
            self.resident.fetch_sub(1, Ordering::Relaxed);
            drop(last);
        }
    }
}

/// The memoized point runner behind every simulation `sb-experiments`
/// runs — the grid, the sweep and the report builders: runs every job over
/// the fault-tolerant job layer, serving it from the stats store on
/// `--resume`, otherwise simulating it and saving its `SimStats`. Returns
/// each job's statistics (in job order; `None` for failed jobs) and the
/// run report.
///
/// Jobs start trace-major (grouped by slot, in job order within a slot),
/// so the workers finish one trace's jobs before moving to the next.
/// Each slot's trace is decoded at most once, on first use, and shared by
/// its jobs' cores; the slot drops it after serving its last job. So at
/// most `workers + 1` traces are resident at once: one per running job
/// plus the slot next in line. (A slot whose last job fails before it
/// starts, to an injected panic or an exhausted budget, keeps its trace
/// until the batch ends.) Job indices, labels, result
/// order and fault-injection indices are unaffected by the order; which
/// queued jobs an expiring run budget cancels is not.
pub(crate) fn run_points(
    labels: &[String],
    batch: &[PointJob<'_>],
    slots: &[TraceSlot<'_>],
    ops: usize,
    opts: &RunOptions,
) -> (Vec<Option<SimStats>>, RunReport) {
    let mut order: Vec<usize> = (0..batch.len()).collect();
    order.sort_by_key(|&i| batch[i].slot);
    // On a fully-cached resume no job needs its trace: none is decoded.
    let traces = TraceCells::new(slots, batch, ops);
    let simulated = AtomicUsize::new(0);
    let from_cache = AtomicUsize::new(0);
    // Failed points never settle, so progress is monotone but may end
    // short of the job count on a degraded run.
    let settled = AtomicUsize::new(0);
    let settle = |counter: &AtomicUsize| {
        counter.fetch_add(1, Ordering::Relaxed);
        let k = settled.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(sink) = &opts.progress {
            sink.report(k, batch.len());
        }
    };
    let report = jobs::run_batch_in_order(labels, &order, &opts.policy, |ctx| {
        let job = &batch[ctx.index];
        let TraceSlot { profile, seed } = slots[job.slot];
        if opts.resume {
            if let Some(store) = &opts.store {
                if let Some(stats) = store.load(profile.name, ops, seed, job.fp) {
                    traces.serve(job.slot, false);
                    settle(&from_cache);
                    return Ok(stats);
                }
            }
        }
        let trace = traces.serve(job.slot, true);
        let core_trace = Arc::clone(trace.as_ref().expect("served on request"));
        let result = simulate(job.config, job.scheme, profile.name, core_trace, ctx);
        // The core is gone: if this was the trace's last user, it is freed.
        traces.release(trace);
        let stats = result?;
        settle(&simulated);
        if let Some(store) = &opts.store {
            // A failed save is a cache bypass, never a run failure.
            if let Ok(path) = store.save(profile.name, ops, seed, job.fp, &stats) {
                if let Some(plan) = &opts.policy.faults {
                    if plan.corrupts_stats_at(ctx.index) {
                        let _ = crate::faults::corrupt_file(&path);
                    }
                }
            }
        }
        Ok(stats)
    });
    let run_report = RunReport {
        simulated: simulated.into_inner(),
        from_cache: from_cache.into_inner(),
        total: batch.len(),
        failures: report.failures,
        traces_decoded: traces.decoded.into_inner(),
        peak_resident_traces: traces.peak.into_inner(),
    };
    (report.results, run_report)
}

/// The job body: runs one point under the job's cancel token, classifying
/// interruption (deadline vs budget) and non-termination as typed failures
/// instead of panicking.
fn simulate(
    config: &CoreConfig,
    scheme: SchemeConfig,
    name: &str,
    trace: Arc<Trace>,
    ctx: &JobCtx,
) -> Result<SimStats, JobFailure> {
    let mut core = Core::new(config.clone(), scheme, trace);
    core.set_cancel_token(ctx.cancel.clone());
    core.run(MAX_CYCLES);
    if core.interrupted() {
        return Err(ctx.interruption());
    }
    if !core.is_done() {
        return Err(JobFailure::permanent(format!(
            "{name} on {} ({}) did not finish within {MAX_CYCLES} cycles",
            config.name, scheme.scheme
        )));
    }
    Ok(core.stats().clone())
}

/// Runs the whole grid under explicit execution options: every scheme on
/// every given configuration, flattened into one job list run by the
/// memoized point runner it shares with the sweep. Returns the (possibly
/// partial) grid plus a run report of cache hits, simulations, and per-job
/// failures.
#[must_use]
pub fn run_grid_with(
    configs: &[CoreConfig],
    spec: &RunSpec,
    opts: &RunOptions,
) -> (GridResults, RunReport) {
    let points: Vec<(&CoreConfig, Scheme)> = configs
        .iter()
        .flat_map(|c| Scheme::all().into_iter().map(move |s| (c, s)))
        .collect();
    run_suites(&points, spec, opts)
}

/// Runs the full benchmark suite on each `(config, scheme)` point as one
/// batch of [`run_points`] jobs and collects the suites into a
/// [`GridResults`] (a failed job leaves its suite incomplete).
pub(crate) fn run_suites(
    points: &[(&CoreConfig, Scheme)],
    spec: &RunSpec,
    opts: &RunOptions,
) -> (GridResults, RunReport) {
    let profiles = spec2017_profiles();
    // Each benchmark's trace is identical across all (config, scheme)
    // points: one slot per benchmark.
    let slots: Vec<TraceSlot> = profiles
        .iter()
        .map(|profile| TraceSlot {
            profile,
            seed: bench_seed(profile, spec),
        })
        .collect();
    let mut labels = Vec::with_capacity(points.len() * profiles.len());
    let mut batch = Vec::with_capacity(labels.capacity());
    for &(config, scheme) in points {
        for (slot, profile) in profiles.iter().enumerate() {
            labels.push(format!("{}/{}/{}", config.name, scheme, profile.name));
            batch.push(PointJob {
                config,
                scheme: config.scheme_config(scheme),
                slot,
                fp: combine_fp([
                    config.fingerprint(),
                    tag_fp(&scheme.to_string()),
                    profile.fingerprint(),
                ]),
            });
        }
    }
    let (results, run_report) = run_points(&labels, &batch, &slots, spec.ops, opts);
    let mut grid = GridResults {
        benchmarks: profiles.len(),
        ..GridResults::default()
    };
    for (stats, &(config, scheme)) in results.chunks(profiles.len()).zip(points) {
        // Unique config names in run order (a repeated config is listed once).
        if !grid.configs.iter().any(|n| n == config.name) {
            grid.configs.push(config.name.to_string());
        }
        let rows: Vec<BenchResult> = stats
            .iter()
            .zip(&profiles)
            .filter_map(|(s, p)| Some(bench_row(p.name, s.as_ref()?)))
            .collect();
        grid.suites.insert((config.name.to_string(), scheme), rows);
    }
    (grid, run_report)
}

/// Simulates each `(config, scheme configuration, benchmark)` point on the
/// benchmark's grid trace in one storeless [`run_points`] batch — the
/// report builders' extra points, whose traces the trace store already
/// holds after a grid run. Points on the same benchmark share one trace
/// slot, so each trace is decoded once.
///
/// # Panics
///
/// Panics if any point fails: the reports built from these points have no
/// partial form.
pub(crate) fn run_report_points(
    points: &[(&CoreConfig, SchemeConfig, &WorkloadProfile)],
    spec: &RunSpec,
) -> Vec<SimStats> {
    let (labels, batch, slots) = report_batch(points, spec);
    let (stats, report) = run_points(&labels, &batch, &slots, spec.ops, &RunOptions::storeless());
    assert!(
        report.ok(),
        "report points failed:\n{}",
        report.render_failures()
    );
    stats.into_iter().flatten().collect()
}

/// [`run_report_points`]' labels, jobs and trace slots: one slot per
/// distinct `(profile, seed)`.
fn report_batch<'a>(
    points: &[(&'a CoreConfig, SchemeConfig, &'a WorkloadProfile)],
    spec: &RunSpec,
) -> (Vec<String>, Vec<PointJob<'a>>, Vec<TraceSlot<'a>>) {
    let mut labels = Vec::with_capacity(points.len());
    let mut slots: Vec<TraceSlot> = Vec::new();
    let mut batch = Vec::with_capacity(points.len());
    for &(config, scheme, profile) in points {
        labels.push(format!(
            "{}/{}/{}",
            config.name, scheme.scheme, profile.name
        ));
        let seed = bench_seed(profile, spec);
        let slot = match slots
            .iter()
            .position(|s| s.profile.name == profile.name && s.seed == seed)
        {
            Some(slot) => slot,
            None => {
                slots.push(TraceSlot { profile, seed });
                slots.len() - 1
            }
        };
        // Storeless: the key is never used.
        batch.push(PointJob {
            config,
            scheme,
            slot,
            fp: 0,
        });
    }
    (labels, batch, slots)
}

/// Runs the whole grid with default options (no resume, default policy,
/// stats store from the environment).
///
/// # Panics
///
/// Panics if any grid job fails — callers that need partial results and a
/// failure report use [`run_grid_with`].
#[must_use]
pub fn run_grid(configs: &[CoreConfig], spec: &RunSpec) -> GridResults {
    let (grid, report) = run_grid_with(configs, spec, &RunOptions::default());
    assert!(
        report.ok(),
        "grid run failed:\n{}",
        report.render_failures()
    );
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;

    fn tiny() -> RunSpec {
        RunSpec {
            ops: 3_000,
            seed: 7,
        }
    }

    /// Options pinned to a scratch store so tests neither read nor write
    /// the developer's real `target/stats-cache`.
    fn scratch_opts(tag: &str) -> (RunOptions, StatsStore) {
        let dir = std::env::temp_dir().join(format!("sb-engine-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StatsStore::new(&dir);
        (
            RunOptions {
                policy: JobPolicy::default(),
                resume: false,
                store: Some(store.clone()),
                progress: None,
            },
            store,
        )
    }

    fn cleanup(store: &StatsStore) {
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn run_bench_completes_and_reports() {
        let p = spec2017_profiles();
        let medium = CoreConfig::medium();
        let point = (&medium, medium.scheme_config(Scheme::Baseline), &p[0]);
        let stats = run_report_points(&[point], &tiny());
        assert_eq!(stats.len(), 1);
        let row = bench_row(p[0].name, &stats[0]);
        assert_eq!(row.instructions, 3_000);
        assert!(row.cycles > 0);
        assert_eq!(stats[0].committed.get(), 3_000);
    }

    #[test]
    fn report_points_share_one_slot_per_benchmark() {
        // Table 4's shape, three secure schemes on a three-benchmark mix,
        // with one benchmark named twice: 9 points on 2 traces.
        let p = spec2017_profiles();
        let mega = CoreConfig::mega();
        let mix = [&p[4], &p[0], &p[4]];
        let points: Vec<_> = Scheme::secure()
            .into_iter()
            .flat_map(|s| mix.map(|b| (&mega, mega.scheme_config(s), b)))
            .collect();
        let spec = tiny();
        let (labels, batch, slots) = report_batch(&points, &spec);
        assert_eq!(slots.len(), 2, "one slot per distinct benchmark");
        let slot_of = |job: &PointJob| slots[job.slot].profile.name;
        assert!(batch
            .iter()
            .zip(&points)
            .all(|(j, pt)| slot_of(j) == pt.2.name));
        let (stats, report) =
            run_points(&labels, &batch, &slots, spec.ops, &RunOptions::storeless());
        assert!(report.ok());
        assert_eq!(report.traces_decoded, 2);
        // Sharing a slot cannot change a point's statistics.
        let alone = run_report_points(&points[..1], &spec);
        assert_eq!(stats[0].as_ref(), Some(&alone[0]));
    }

    #[test]
    fn trace_major_batches_keep_about_one_trace_per_worker() {
        let workers = 2;
        let opts = RunOptions {
            policy: JobPolicy {
                workers,
                ..JobPolicy::default()
            },
            ..RunOptions::storeless()
        };
        let configs = [CoreConfig::small(), CoreConfig::medium()];
        let (grid, report) = run_grid_with(&configs, &tiny(), &opts);
        assert!(report.ok());
        assert_eq!(report.simulated, 2 * 4 * 22);
        assert_eq!(report.traces_decoded, 22, "each slot decoded exactly once");
        assert!(
            (1..=workers + 1).contains(&report.peak_resident_traces),
            "{} traces resident at once",
            report.peak_resident_traces
        );
        // Result order still follows the grid, not the execution order.
        let rows = grid.suite("medium", Scheme::Nda).unwrap();
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        let want: Vec<&str> = spec2017_profiles().iter().map(|p| p.name).collect();
        assert_eq!(names, want);
    }

    #[test]
    fn suite_covers_all_benchmarks() {
        let small = CoreConfig::small();
        let (grid, report) =
            run_suites(&[(&small, Scheme::Nda)], &tiny(), &RunOptions::storeless());
        assert_eq!((report.simulated, report.total), (22, 22));
        assert_eq!(grid.configs(), ["small".to_string()]);
        let rows = grid.suite("small", Scheme::Nda).unwrap();
        assert_eq!(rows.len(), 22);
        assert!(rows.iter().all(|r| r.instructions == 3_000 && r.cycles > 0));
    }

    #[test]
    fn per_benchmark_seeds_differ() {
        let p = spec2017_profiles();
        assert_ne!(bench_seed(&p[0], &tiny()), bench_seed(&p[1], &tiny()));
    }

    #[test]
    fn grid_lookup_roundtrip() {
        let (opts, store) = scratch_opts("roundtrip");
        let (grid, report) = run_grid_with(&[CoreConfig::small()], &tiny(), &opts);
        assert!(report.ok());
        assert_eq!(report.simulated, 4 * 22);
        assert_eq!(report.from_cache, 0);
        let s = grid.summary("small", Scheme::SttIssue).unwrap();
        assert_eq!(s.normalized_ipc().len(), 22);
        assert!(grid.baseline_ipc("small").unwrap() > 0.0);
        cleanup(&store);
    }

    #[test]
    fn missing_grid_point_is_a_typed_error() {
        // Regression: this used to panic ("no grid point") from deep
        // inside a report function.
        let err = GridResults::default()
            .suite("mega", Scheme::Baseline)
            .unwrap_err();
        assert_eq!(
            err,
            ExperimentError::MissingGridPoint {
                config: "mega".to_string(),
                scheme: Scheme::Baseline,
            }
        );
        assert!(err.to_string().contains("no grid point"));
    }

    #[test]
    fn warm_resume_serves_the_whole_grid_from_cache() {
        let (mut opts, store) = scratch_opts("warm");
        let (cold_grid, cold) = run_grid_with(&[CoreConfig::small()], &tiny(), &opts);
        assert_eq!((cold.simulated, cold.from_cache), (88, 0));
        opts.resume = true;
        let (warm_grid, warm) = run_grid_with(&[CoreConfig::small()], &tiny(), &opts);
        assert_eq!(
            (warm.simulated, warm.from_cache),
            (0, 88),
            "a fully-cached resume must perform zero simulations"
        );
        assert_eq!(warm.traces_decoded, 0, "and decode zero traces");
        for scheme in Scheme::all() {
            assert_eq!(
                cold_grid.suite("small", scheme).unwrap(),
                warm_grid.suite("small", scheme).unwrap(),
                "cached results must be identical to simulated ones"
            );
        }
        cleanup(&store);
    }

    #[test]
    fn resume_simulates_only_missing_points_and_heals_corruption() {
        let (mut opts, store) = scratch_opts("partial");
        // Corrupt one point's entry on the cold run (fault injection) and
        // delete another outright: resume must re-simulate exactly those.
        opts.policy.faults = Some(FaultPlan::parse("corrupt-stats@3").unwrap());
        let (_, cold) = run_grid_with(&[CoreConfig::small()], &tiny(), &opts);
        assert_eq!(cold.simulated, 88);
        let profiles = spec2017_profiles();
        let victim = &profiles[5];
        let spec = tiny();
        let fp = combine_fp([
            CoreConfig::small().fingerprint(),
            tag_fp(&Scheme::Baseline.to_string()),
            victim.fingerprint(),
        ]);
        let victim_path = store.path_for(victim.name, spec.ops, bench_seed(victim, &spec), fp);
        assert!(victim_path.exists());
        std::fs::remove_file(&victim_path).unwrap();
        opts.policy.faults = None;
        opts.resume = true;
        let (grid, warm) = run_grid_with(&[CoreConfig::small()], &spec, &opts);
        assert!(warm.ok());
        assert_eq!(
            (warm.simulated, warm.from_cache),
            (2, 86),
            "exactly the corrupted and the deleted entries re-simulate"
        );
        assert_eq!(warm.traces_decoded, 2, "only their two traces decode");
        assert!(victim_path.exists(), "the resume pass heals the store");
        assert_eq!(grid.suite("small", Scheme::Baseline).unwrap().len(), 22);
        cleanup(&store);
    }

    #[test]
    fn injected_panic_yields_a_partial_grid_and_a_named_failure() {
        let (mut opts, store) = scratch_opts("panic");
        // Index 23 sits mid-batch and mid-slot: execution order must not
        // retarget it.
        opts.policy.faults = Some(FaultPlan::parse("panic@0,panic@23").unwrap());
        let (grid, report) = run_grid_with(&[CoreConfig::small()], &tiny(), &opts);
        assert_eq!(report.failures.len(), 2);
        let named: Vec<(usize, &str)> = report
            .failures
            .iter()
            .map(|e| (e.index, e.label.as_str()))
            .collect();
        assert_eq!(
            named,
            [
                (0, "small/Baseline/500.perlbench"),
                (23, "small/STT-Rename/502.gcc")
            ]
        );
        assert!(report
            .failures
            .iter()
            .all(|e| matches!(e.cause, JobFailure::Panicked(_))));
        // The victim suites are incomplete; every other suite survived whole.
        for scheme in [Scheme::Baseline, Scheme::SttRename] {
            assert!(matches!(
                grid.suite("small", scheme),
                Err(ExperimentError::IncompleteSuite {
                    have: 21,
                    want: 22,
                    ..
                })
            ));
        }
        for scheme in [Scheme::SttIssue, Scheme::Nda] {
            assert_eq!(grid.suite("small", scheme).unwrap().len(), 22);
        }
        let rendered = report.render_failures();
        assert!(rendered.contains("panic@0"), "{rendered}");
        assert!(
            rendered.contains("#23 small/STT-Rename/502.gcc: panicked: injected fault: panic@23"),
            "{rendered}"
        );
        cleanup(&store);
    }

    /// Deadlines and the run budget reach a real simulation: on runs
    /// longer than one poll interval, a zero job deadline stops every job
    /// at its first poll, and a zero run budget cancels every job before
    /// it decodes its trace.
    #[test]
    fn zero_deadline_and_zero_budget_stop_every_job() {
        use std::time::Duration;
        let p = spec2017_profiles();
        let mcf = p.iter().find(|p| p.name == "505.mcf").expect("mcf profile");
        let mega = CoreConfig::mega();
        let points: Vec<_> = [Scheme::Baseline, Scheme::Nda]
            .into_iter()
            .map(|s| (&mega, mega.scheme_config(s), mcf))
            .collect();
        let spec = tiny();
        for stats in run_report_points(&points, &spec) {
            assert!(
                stats.cycles.get() > sb_uarch::CANCEL_POLL_CYCLES,
                "each run must outlast one poll interval ({} cycles)",
                stats.cycles.get()
            );
        }
        let (labels, batch, slots) = report_batch(&points, &spec);
        let run = |policy: JobPolicy| {
            let opts = RunOptions {
                policy,
                ..RunOptions::storeless()
            };
            run_points(&labels, &batch, &slots, spec.ops, &opts)
        };
        let causes = |report: &RunReport| -> Vec<JobFailure> {
            report.failures.iter().map(|e| e.cause.clone()).collect()
        };

        let (stats, report) = run(JobPolicy {
            job_deadline: Some(Duration::ZERO),
            ..JobPolicy::default()
        });
        assert!(stats.iter().all(Option::is_none));
        assert_eq!(report.simulated, 0);
        assert_eq!(
            causes(&report),
            [JobFailure::DeadlineExceeded, JobFailure::DeadlineExceeded]
        );

        let (stats, report) = run(JobPolicy {
            run_budget: Some(Duration::ZERO),
            ..JobPolicy::default()
        });
        assert!(stats.iter().all(Option::is_none));
        assert_eq!(report.traces_decoded, 0);
        assert_eq!(
            causes(&report),
            [JobFailure::Cancelled, JobFailure::Cancelled]
        );
    }

    #[test]
    fn disabled_store_still_runs_and_counts_nothing_cached() {
        let opts = RunOptions {
            resume: true, // resume with no store is a clean no-op
            ..RunOptions::storeless()
        };
        let (grid, report) = run_grid_with(&[CoreConfig::small()], &tiny(), &opts);
        assert!(report.ok());
        assert_eq!((report.simulated, report.from_cache), (88, 0));
        assert!(grid.baseline_ipc("small").unwrap() > 0.0);
    }

    #[test]
    fn grid_run_reports_one_progress_event_per_settled_point() {
        let events: Arc<std::sync::Mutex<Vec<(usize, usize)>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = {
            let events = Arc::clone(&events);
            ProgressSink::new(move |k, n| events.lock().unwrap().push((k, n)))
        };
        let opts = RunOptions {
            progress: Some(sink),
            ..RunOptions::storeless()
        };
        let (grid, report) = run_grid_with(&[CoreConfig::small()], &tiny(), &opts);
        assert!(report.ok());
        assert_eq!((report.simulated, report.total), (88, 88));
        assert_eq!(grid.configs(), ["small".to_string()]);
        // One event per settled point, every count 1..=88 exactly once.
        let mut seen: Vec<(usize, usize)> = events.lock().unwrap().clone();
        assert_eq!(seen.len(), 88);
        assert!(seen.iter().all(|&(_, n)| n == 88));
        seen.sort_unstable();
        assert!(seen.iter().enumerate().all(|(i, &(k, _))| k == i + 1));
    }
}
