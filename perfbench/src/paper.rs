//! `paper-all`: every paper experiment at default settings, as
//! `sb-experiments all` runs them — the 4-config × 4-scheme × 22-profile
//! grid at 60k micro-ops through `run_grid_with`, then every report
//! builder (table 4 and §9.2 simulate again). The stats store starts cold,
//! so every point simulates and writes. About 95 % of the time is
//! steady-state `Core::run` on long traces.

use crate::common::{Checks, Dirs, RepOutcome, SimInput, Workload};
use crate::grid::{entries, fill_traces, read_back, run_traced, SimJob, TraceSlot};
use crate::spans::Tracer;
use sb_core::{Scheme, SchemeConfig};
use sb_experiments::stats_store::{combine_fp, tag_fp};
use sb_experiments::{
    fig10_report, fig1_table3_report, fig6_report, fig7_report, fig8_report, fig9_report,
    run_grid_with, sec92_report, security_report, table1_report, table4_report, table5_report,
    ExperimentError, GridResults, JobPolicy, Report, RunOptions, RunSpec, StatsStore,
};
use sb_uarch::{CoreConfig, Fidelity};
use sb_workloads::spec2017_profiles;
use std::time::Instant;

pub struct PaperAll {
    spec: RunSpec,
    configs: [CoreConfig; 4],
    slots: Vec<TraceSlot>,
    jobs: Vec<SimJob>,
}

impl PaperAll {
    pub fn new(seed: u64) -> Self {
        let spec = RunSpec {
            seed,
            ..RunSpec::default()
        };
        let configs = CoreConfig::boom_sweep();
        let slots: Vec<TraceSlot> = spec2017_profiles()
            .into_iter()
            .map(|profile| TraceSlot {
                seed: seed ^ crate::common::fnv1a(profile.name),
                profile,
            })
            .collect();
        // Run order and store keys of `run_grid_with`: config-major, then
        // scheme, then profile.
        let mut jobs = Vec::new();
        for config in &configs {
            for scheme in Scheme::all() {
                for (b, slot) in slots.iter().enumerate() {
                    jobs.push(SimJob {
                        label: format!("{}/{scheme}/{}", config.name, slot.profile.name),
                        config: config.clone(),
                        scheme: match config.fidelity {
                            Fidelity::Rtl => SchemeConfig::rtl(scheme, config.mem_ports),
                            Fidelity::Abstract => SchemeConfig::abstract_sim(scheme),
                        },
                        slot: b,
                        fp: combine_fp([
                            config.fingerprint(),
                            tag_fp(&scheme.to_string()),
                            slot.profile.fingerprint(),
                        ]),
                    });
                }
            }
        }
        PaperAll {
            spec,
            configs,
            slots,
            jobs,
        }
    }

    fn options(store: StatsStore, resume: bool) -> RunOptions {
        RunOptions {
            policy: JobPolicy::default(),
            resume,
            store: Some(store),
            progress: None,
        }
    }

    /// Every report `sb-experiments all` renders, in its order.
    fn reports(&self, grid: &GridResults) -> Vec<(&'static str, Result<Report, ExperimentError>)> {
        let (configs, spec) = (&self.configs, &self.spec);
        vec![
            ("table1", table1_report(grid, configs)),
            ("fig6", fig6_report(grid)),
            ("fig7", fig7_report(grid)),
            ("fig8", fig8_report(grid)),
            ("fig9", fig9_report(configs)),
            ("fig10", fig10_report(grid, configs)),
            ("table3", fig1_table3_report(grid, configs)),
            ("table4", Ok(table4_report(spec))),
            ("table5", table5_report(grid, spec)),
            ("sec92", Ok(sec92_report(spec))),
            ("security", Ok(security_report())),
        ]
    }
}

impl Workload for PaperAll {
    fn setup(&mut self, dirs: &Dirs, tr: &Tracer) -> u64 {
        fill_traces(&self.slots, self.spec.ops, dirs, tr)
    }

    fn run(&mut self, dirs: &Dirs, tr: &Tracer) -> RepOutcome {
        let mut checks = Checks::default();
        let store = StatsStore::new(&dirs.stats);
        let traces_before = entries(&dirs.traces);
        let start = Instant::now();
        let grid = if tr.on() {
            let failed = run_traced(&self.jobs, &self.slots, self.spec.ops, dirs, tr);
            checks.check(failed == 0, || format!("{failed} grid jobs failed"));
            // The reports need `GridResults`: rebuild it from the store the
            // traced jobs just wrote, as `--resume` would.
            let (grid, run) = tr.span("experiments.grid_resume", || {
                run_grid_with(&self.configs, &self.spec, &Self::options(store, true))
            });
            checks.check(run.ok() && run.simulated == 0, || {
                format!("resume pass simulated {} points", run.simulated)
            });
            grid
        } else {
            let (grid, run) =
                run_grid_with(&self.configs, &self.spec, &Self::options(store, false));
            checks.check(run.ok() && run.simulated == run.total, || {
                format!(
                    "grid: {} simulated of {}\n{}",
                    run.simulated,
                    run.total,
                    run.render_failures()
                )
            });
            grid
        };
        let reports = tr.span("experiments.reports", || self.reports(&grid));
        let wall_s = start.elapsed().as_secs_f64();

        std::fs::create_dir_all(&dirs.out).expect("create the scratch output dir");
        for (name, report) in &reports {
            checks.check(report.is_ok(), || format!("report {name}: {report:?}"));
            if let Ok(r) = report {
                for (file, csv) in &r.csv {
                    std::fs::write(dirs.out.join(file), csv).expect("write a report CSV");
                }
            }
        }
        for config in &self.configs {
            for scheme in Scheme::all() {
                let suite = grid.suite(config.name, scheme);
                checks.check(suite.is_ok(), || {
                    format!("suite {}/{scheme}: {suite:?}", config.name)
                });
            }
        }
        checks.check(entries(&dirs.traces) == traces_before, || {
            "the timed phase generated traces the set-up did not store".into()
        });
        let (counts, digest) = read_back(
            &self.jobs,
            &self.slots,
            self.spec.ops,
            dirs,
            tr,
            &mut checks,
        );
        RepOutcome {
            wall_s,
            counts,
            digest,
            checks,
        }
    }

    fn sample_inputs(&self) -> Vec<SimInput> {
        // The last two grid points (mega, NDA).
        self.jobs
            .iter()
            .rev()
            .take(2)
            .map(|j| {
                let s = &self.slots[j.slot];
                let trace = sb_workloads::generate(&s.profile, self.spec.ops, s.seed);
                (j.config.clone(), j.scheme, trace)
            })
            .collect()
    }
}
