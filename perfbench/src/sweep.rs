//! `dse-sweep`: `run_sweep` over a mega-derived design space with cold
//! stores, then the leaderboard (bootstrap CIs) and the manifest. It uses
//! the core differently from the paper grid: off-preset shapes, the
//! Futuristic threat model (M-shadows on every load), short traces (a
//! larger share of per-job set-up) and the heaviest stats-store write load.

use crate::common::{fnv1a, Checks, Dirs, RepOutcome, SimInput, Workload};
use crate::grid::{entries, fill_traces, read_back, run_traced, SimJob, TraceSlot};
use crate::spans::Tracer;
use sb_core::SchemeConfig;
use sb_experiments::dse::{
    leaderboard, leaderboard_csv, leaderboard_table, manifest_json, replicate_seed, run_sweep,
    SweepOutcome, SweepSpec, BOOTSTRAP_RESAMPLES, CONFIDENCE,
};
use sb_experiments::stats_store::{combine_fp, tag_fp};
use sb_experiments::{JobPolicy, RunOptions, RunSpec, StatsStore};
use sb_uarch::Fidelity;
use sb_workloads::spec2017_profiles;
use std::time::Instant;

/// The swept design space: 2 ROB sizes × 2 widths × 4 schemes × 2 threat
/// models, 2 replicates each so the bootstrap has samples to resample.
pub const SPEC: &str = "base=mega rob=64,128 width=2,4 scheme=all threat=both replicates=2";

/// Micro-ops per trace.
pub const OPS: usize = 20_000;

pub struct DseSweep {
    spec: SweepSpec,
    run: RunSpec,
    slots: Vec<TraceSlot>,
    jobs: Vec<SimJob>,
}

impl DseSweep {
    pub fn new(seed: u64) -> Self {
        let spec = SweepSpec::parse(SPEC).expect("the benchmark's sweep spec parses");
        let points = spec.points().expect("the benchmark's sweep spec expands");
        let run = RunSpec { ops: OPS, seed };
        let profiles = spec2017_profiles();
        let reps = spec.replicates();
        // Trace slots are (replicate, profile); jobs run in `run_sweep`'s
        // order, point-major, then replicate, then profile.
        let mut slots = Vec::new();
        for r in 0..reps {
            for profile in &profiles {
                slots.push(TraceSlot {
                    seed: replicate_seed(seed, r) ^ fnv1a(profile.name),
                    profile: *profile,
                });
            }
        }
        let mut jobs = Vec::new();
        for p in &points {
            let scheme = match p.config.fidelity {
                Fidelity::Rtl => SchemeConfig::rtl(p.scheme, p.config.mem_ports),
                Fidelity::Abstract => SchemeConfig::abstract_sim(p.scheme),
            }
            .with_threat_model(p.threat);
            for r in 0..reps {
                for (b, profile) in profiles.iter().enumerate() {
                    jobs.push(SimJob {
                        label: format!(
                            "{}/{}/{}/r{r}/{}",
                            p.config.name,
                            p.scheme,
                            p.threat.label(),
                            profile.name
                        ),
                        config: p.config.clone(),
                        scheme,
                        slot: r * profiles.len() + b,
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
        DseSweep {
            spec,
            run,
            slots,
            jobs,
        }
    }

    fn sweep(&self, store: StatsStore, resume: bool) -> SweepOutcome {
        let opts = RunOptions {
            policy: JobPolicy::default(),
            resume,
            store: Some(store),
            progress: None,
        };
        run_sweep(&self.spec, &self.run, &opts).expect("the benchmark's sweep spec expands")
    }
}

impl Workload for DseSweep {
    fn setup(&mut self, dirs: &Dirs, tr: &Tracer) -> u64 {
        fill_traces(&self.slots, OPS, dirs, tr)
    }

    fn run(&mut self, dirs: &Dirs, tr: &Tracer) -> RepOutcome {
        let mut checks = Checks::default();
        let store = StatsStore::new(&dirs.stats);
        let traces_before = entries(&dirs.traces);
        let start = Instant::now();
        let outcome = if tr.on() {
            let failed = run_traced(&self.jobs, &self.slots, OPS, dirs, tr);
            checks.check(failed == 0, || format!("{failed} sweep jobs failed"));
            // The leaderboard needs a `SweepOutcome`: rebuild it from the
            // store the traced jobs just wrote, as `--resume` would.
            let outcome = tr.span("experiments.sweep_resume", || self.sweep(store, true));
            checks.check(outcome.report.simulated == 0, || {
                format!("resume pass simulated {} jobs", outcome.report.simulated)
            });
            // The leaderboard's bootstrap, timed on its own with the
            // leaderboard's own arguments.
            tr.span("stats.bootstrap", || {
                for p in &outcome.points {
                    let samples: Vec<f64> = p
                        .replicates
                        .iter()
                        .map(|r| sb_stats::suite_ipc(r))
                        .collect();
                    std::hint::black_box(sb_stats::bootstrap_ci(
                        &samples,
                        BOOTSTRAP_RESAMPLES,
                        CONFIDENCE,
                        p.fingerprint,
                    ));
                }
            });
            outcome
        } else {
            let outcome = self.sweep(store, false);
            let r = &outcome.report;
            checks.check(r.ok() && r.simulated == r.total, || {
                format!(
                    "sweep: {} simulated of {}\n{}",
                    r.simulated,
                    r.total,
                    r.render_failures()
                )
            });
            outcome
        };
        let (rows, csv, table, manifest) = tr.span("experiments.reports", || {
            let rows = leaderboard(&outcome);
            let csv = leaderboard_csv(&rows);
            let table = leaderboard_table(&rows, None);
            let manifest = manifest_json(&self.spec, &self.run, &outcome);
            (rows, csv, table, manifest)
        });
        let wall_s = start.elapsed().as_secs_f64();

        std::fs::create_dir_all(&dirs.out).expect("create the scratch output dir");
        for (file, text) in [
            ("leaderboard.csv", &csv),
            ("leaderboard.txt", &table),
            ("manifest.json", &manifest),
        ] {
            std::fs::write(dirs.out.join(file), text).expect("write a sweep artifact");
        }
        for row in &rows {
            // An incomplete row is the leaderboard's `!` flag.
            checks.check(row.complete, || {
                format!("leaderboard row {} is incomplete", row.config)
            });
        }
        checks.check(entries(&dirs.traces) == traces_before, || {
            "the timed phase generated traces the set-up did not store".into()
        });
        let (counts, digest) = read_back(&self.jobs, &self.slots, OPS, dirs, tr, &mut checks);
        RepOutcome {
            wall_s,
            counts,
            digest,
            checks,
        }
    }

    fn sample_inputs(&self) -> Vec<SimInput> {
        // The same trace on the first and last design point.
        [&self.jobs[0], &self.jobs[self.jobs.len() - 1]]
            .into_iter()
            .map(|j| {
                let s = &self.slots[j.slot];
                let trace = sb_workloads::generate(&s.profile, OPS, s.seed);
                (j.config.clone(), j.scheme, trace)
            })
            .collect()
    }
}
