//! Sweep execution: every `(config, scheme, threat) × replicate ×
//! benchmark` job flattened into one list and run by the grid's memoized
//! point runner (`engine::run_points`).
//!
//! The memo key covers *every* swept axis: the configuration fingerprint
//! (all result-determining knobs), the scheme and threat-model tags, and
//! the replicate-derived seed. A warm `--resume` re-run of an identical
//! sweep therefore performs zero simulations, and two sweeps that share
//! design points share their cache entries.

use super::spec::{SpecError, SweepPoint, SweepSpec};
use crate::engine::{bench_seed, run_points, PointJob, RunReport, RunSpec, TraceSlot};
use crate::stats_store::{combine_fp, tag_fp};
use crate::RunOptions;
use sb_core::{Scheme, ThreatModel};
use sb_stats::BenchResult;
use sb_uarch::CoreConfig;
use sb_workloads::spec2017_profiles;

/// Golden-ratio stride that spreads replicate seeds across the u64 space;
/// replicate 0 keeps the base seed, so a 1-replicate sweep is seeded
/// exactly like the corresponding single run.
const REPLICATE_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// The seed replicate `r` of a sweep derives its traces from.
#[must_use]
pub fn replicate_seed(base: u64, r: usize) -> u64 {
    base ^ (r as u64).wrapping_mul(REPLICATE_STRIDE)
}

/// The stats-store fingerprint of one design point (configuration knobs +
/// scheme + threat model). Also the row identity in manifests and the
/// bootstrap seed, so leaderboard CIs are deterministic per point.
#[must_use]
pub fn point_fingerprint(config: &CoreConfig, scheme: Scheme, threat: ThreatModel) -> u64 {
    combine_fp([
        config.fingerprint(),
        tag_fp(&scheme.to_string()),
        tag_fp(&threat.to_string()),
    ])
}

/// Results of one design point across all replicates. Replicates hold
/// *survivor* rows only — a replicate with fewer rows than the benchmark
/// count had failed jobs and is excluded from confidence intervals.
#[derive(Clone, Debug, PartialEq)]
pub struct PointResult {
    /// The expanded configuration (including derived name).
    pub config: CoreConfig,
    /// Active scheme.
    pub scheme: Scheme,
    /// Threat model.
    pub threat: ThreatModel,
    /// [`point_fingerprint`] of this point.
    pub fingerprint: u64,
    /// Per-replicate benchmark rows (survivors only).
    pub replicates: Vec<Vec<BenchResult>>,
}

impl PointResult {
    /// True when every replicate produced all `benchmarks` rows.
    #[must_use]
    pub fn complete(&self, benchmarks: usize) -> bool {
        self.replicates.iter().all(|r| r.len() == benchmarks)
    }
}

/// Everything a sweep run produced: per-point results plus the execution
/// report (simulated / cached / failed counts).
#[derive(Debug)]
pub struct SweepOutcome {
    /// One entry per design point, in spec expansion order.
    pub points: Vec<PointResult>,
    /// Execution report across all jobs.
    pub report: RunReport,
    /// Rows a complete replicate must have (suite size).
    pub benchmarks: usize,
}

/// Runs a sweep: expands the spec, flattens `points × replicates ×
/// benchmarks` into one job list, and executes it under `opts` exactly
/// like the paper grid — panic isolation, deadlines, budget, resume.
///
/// # Errors
///
/// [`SpecError`] when the spec expands to invalid configurations or too
/// many points. Per-job failures do *not* error: they are reported in the
/// outcome and the affected replicates simply hold fewer rows.
pub fn run_sweep(
    spec: &SweepSpec,
    run: &RunSpec,
    opts: &RunOptions,
) -> Result<SweepOutcome, SpecError> {
    let points: Vec<SweepPoint> = spec.points()?;
    let reps = spec.replicates();
    let profiles = spec2017_profiles();
    let n_b = profiles.len();
    // Traces depend on (replicate, benchmark) only — one slot per pair,
    // shared across all design points. Replicate seeds are derived,
    // everything else matches the base run.
    let slots: Vec<TraceSlot> = (0..reps)
        .flat_map(|r| {
            let rep = RunSpec {
                ops: run.ops,
                seed: replicate_seed(run.seed, r),
            };
            profiles.iter().map(move |profile| TraceSlot {
                profile,
                seed: bench_seed(profile, &rep),
            })
        })
        .collect();
    // Job k = (i * reps + r) * n_b + b.
    let mut labels = Vec::with_capacity(points.len() * reps * n_b);
    let mut batch = Vec::with_capacity(labels.capacity());
    for p in &points {
        let scheme = p.config.scheme_config(p.scheme).with_threat_model(p.threat);
        for r in 0..reps {
            for (b, profile) in profiles.iter().enumerate() {
                labels.push(format!(
                    "{}/{}/{}/r{r}/{}",
                    p.config.name,
                    p.scheme,
                    p.threat.label(),
                    profile.name
                ));
                batch.push(PointJob {
                    config: &p.config,
                    scheme,
                    slot: r * n_b + b,
                    fp: combine_fp([
                        p.config.fingerprint(),
                        tag_fp(&p.scheme.to_string()),
                        tag_fp(&p.threat.to_string()),
                        profile.fingerprint(),
                    ]),
                });
            }
        }
    }
    let (results, report) = run_points(&labels, &batch, &slots, run.ops, opts);
    let out = points
        .iter()
        .zip(results.chunks(reps * n_b))
        .map(|(p, rows)| PointResult {
            config: p.config.clone(),
            scheme: p.scheme,
            threat: p.threat,
            fingerprint: point_fingerprint(&p.config, p.scheme, p.threat),
            replicates: rows
                .chunks(n_b)
                .map(|rep| rep.iter().filter_map(Clone::clone).collect())
                .collect(),
        })
        .collect();
    Ok(SweepOutcome {
        points: out,
        report,
        benchmarks: n_b,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats_store::StatsStore;
    use crate::JobPolicy;

    fn scratch_opts(tag: &str) -> (RunOptions, StatsStore) {
        let dir = std::env::temp_dir().join(format!("sb-dse-test-{}-{tag}", std::process::id()));
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

    fn tiny() -> RunSpec {
        RunSpec {
            ops: 2_000,
            seed: 11,
        }
    }

    #[test]
    fn replicate_zero_keeps_the_base_seed() {
        assert_eq!(replicate_seed(2025, 0), 2025);
        assert_ne!(replicate_seed(2025, 1), 2025);
        assert_ne!(replicate_seed(2025, 1), replicate_seed(2025, 2));
    }

    #[test]
    fn point_fingerprint_separates_every_axis() {
        let c = CoreConfig::small();
        let mut c2 = CoreConfig::small();
        c2.rob_entries += 16;
        let base = point_fingerprint(&c, Scheme::Nda, ThreatModel::Spectre);
        assert_ne!(
            base,
            point_fingerprint(&c2, Scheme::Nda, ThreatModel::Spectre)
        );
        assert_ne!(
            base,
            point_fingerprint(&c, Scheme::SttIssue, ThreatModel::Spectre)
        );
        assert_ne!(
            base,
            point_fingerprint(&c, Scheme::Nda, ThreatModel::Futuristic)
        );
    }

    #[test]
    fn warm_resume_of_a_sweep_simulates_nothing() {
        let (mut opts, store) = scratch_opts("warm");
        let spec =
            SweepSpec::parse("base=small width=1,2 scheme=baseline,nda threat=both").unwrap();
        let (cold, warm) = {
            let cold = run_sweep(&spec, &tiny(), &opts).unwrap();
            opts.resume = true;
            let warm = run_sweep(&spec, &tiny(), &opts).unwrap();
            (cold, warm)
        };
        assert!(cold.report.ok());
        assert_eq!(cold.report.simulated, cold.report.total);
        assert_eq!(
            (warm.report.simulated, warm.report.from_cache),
            (0, warm.report.total),
            "a warm identical sweep must be served entirely from the store"
        );
        assert_eq!(cold.points, warm.points);
        cleanup(&store);
    }

    #[test]
    fn threat_model_is_part_of_the_memo_key() {
        let (mut opts, store) = scratch_opts("threat-key");
        let spectre = SweepSpec::parse("base=small scheme=nda threat=spectre").unwrap();
        let futuristic = SweepSpec::parse("base=small scheme=nda threat=futuristic").unwrap();
        let a = run_sweep(&spectre, &tiny(), &opts).unwrap();
        opts.resume = true;
        let b = run_sweep(&futuristic, &tiny(), &opts).unwrap();
        assert_eq!(
            b.report.from_cache, 0,
            "futuristic results must not be served from spectre cache entries"
        );
        assert_eq!(a.points.len(), 1);
        assert_eq!(b.points.len(), 1);
        assert_ne!(a.points[0].fingerprint, b.points[0].fingerprint);
        cleanup(&store);
    }

    #[test]
    fn replicates_produce_distinct_but_complete_suites() {
        let (opts, store) = scratch_opts("reps");
        let spec = SweepSpec::parse("base=small scheme=baseline replicates=2").unwrap();
        let out = run_sweep(&spec, &tiny(), &opts).unwrap();
        assert!(out.report.ok());
        let p = &out.points[0];
        assert!(p.complete(out.benchmarks));
        assert_eq!(p.replicates.len(), 2);
        assert_ne!(
            p.replicates[0], p.replicates[1],
            "replicates run distinct seeds and must differ"
        );
        cleanup(&store);
    }
}
