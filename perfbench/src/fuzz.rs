//! `security-fuzz`: the 11-family attack battery over many
//! `fuzz_battery(seed)` variants. Every kernel is judged under 4 schemes ×
//! 2 threat models × both schedulers with both leakage observers attached,
//! and every cell also gets its static bracket (`analyze_kernel` +
//! `check_soundness`) and `audit_kernel`, all on the job pool. Thousands of
//! ~160-cycle simulations shift the cost from `Core::run` to construction,
//! the observers and the analyzer.

use crate::common::{
    cost_frac, Checks, Counts, Digest, Dirs, RepOutcome, SimInput, Workload, MAX_CYCLES,
};
use crate::spans::{SimAttr, Tracer};
use sb_core::{Scheme, ThreatModel};
use sb_experiments::dse::replicate_seed;
use sb_experiments::{battery_scheme_config, jobs, JobCtx, JobFailure, JobPolicy};
use sb_isa::encode_trace;
use sb_stats::SimStats;
use sb_uarch::{Core, CoreConfig, PredictorConfig, SchedulerKind};
use sb_workloads::fuzz_attacks::fuzz_battery;
use sb_workloads::AttackKernel;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Fuzzed battery variants per repetition.
pub const VARIANTS: usize = 400;

pub struct SecurityFuzz {
    seed: u64,
    /// Every variant's kernels in battery order, rebuilt by every set-up.
    kernels: Vec<AttackKernel>,
}

/// One scheduler's run of a kernel.
struct Measurement {
    slots: BTreeSet<usize>,
    transient_changes: usize,
    transient_port_uses: usize,
    stats: SimStats,
    records: u64,
}

/// One judged `(kernel, threat model, scheme)` cell.
struct Cell {
    failures: Vec<String>,
    stats: [SimStats; 2],
    records: u64,
}

impl SecurityFuzz {
    pub fn new(seed: u64) -> Self {
        SecurityFuzz {
            seed,
            kernels: Vec::new(),
        }
    }
}

/// The core a battery cell runs: the mega configuration, the cell's
/// scheduler, and the kernel's modelled predictor when it attacks one.
fn kernel_config(kernel: &AttackKernel, scheduler: SchedulerKind) -> CoreConfig {
    let mut config = CoreConfig::mega();
    config.scheduler = scheduler;
    if let Some(p) = kernel.predictor {
        config.predictor = PredictorConfig::enabled(p.pht_entries, p.btb_entries, p.ghr_bits);
    }
    config
}

/// Runs one kernel with both observers attached and decodes its transient
/// leak set, as the security judge does.
fn measure(
    kernel: &AttackKernel,
    scheme: Scheme,
    threat: ThreatModel,
    scheduler: SchedulerKind,
    ctx: &JobCtx,
    tr: &Tracer,
) -> Result<Measurement, JobFailure> {
    let config = kernel_config(kernel, scheduler);
    let mut core = tr.span("uarch.core_new", || {
        Core::new(
            config,
            battery_scheme_config(scheme, threat),
            kernel.trace.clone(),
        )
    });
    core.set_cancel_token(ctx.cancel.clone());
    core.memory_mut().attach_leakage_observer();
    core.memory_mut().attach_contention_observer();
    tr.span_sim(
        "uarch.core_run",
        || core.run(1_000_000).committed.get(),
        |&ops| SimAttr {
            pair_key: format!("{kernel:p}/{}/{scheduler:?}", threat.label()),
            preset: "mega",
            scheme: crate::common::scheme_key(scheme),
            threat: threat.label(),
            ops,
        },
    );
    if core.interrupted() {
        return Err(ctx.interruption());
    }
    if !core.is_done() {
        return Err(JobFailure::permanent("kernel did not finish"));
    }
    let leakage = core.memory().leakage_observer().expect("attached");
    let contention = core.memory().contention_observer().expect("attached");
    Ok(Measurement {
        slots: kernel.decode_transient_slots(leakage, contention),
        transient_changes: leakage.transient_changes().count(),
        transient_port_uses: contention.transient_port_uses(),
        stats: core.stats().clone(),
        records: (leakage.len() + contention.len()) as u64,
    })
}

/// Judges one cell exactly as `verify-security` does: scheduler
/// independence, the claim (secure schemes leak nothing a claimed model
/// covers; otherwise the documented signature leaks inside the secret
/// address set), the static bracket for both schedulers, and the claims
/// audit.
fn judge(
    kernel: &AttackKernel,
    scheme: Scheme,
    threat: ThreatModel,
    ctx: &JobCtx,
    tr: &Tracer,
) -> Result<Cell, JobFailure> {
    let wheel = measure(kernel, scheme, threat, SchedulerKind::EventWheel, ctx, tr)?;
    let reference = measure(kernel, scheme, threat, SchedulerKind::Reference, ctx, tr)?;
    let mut failures = Vec::new();
    let same = wheel.slots == reference.slots
        && wheel.transient_changes == reference.transient_changes
        && wheel.transient_port_uses == reference.transient_port_uses;
    if !same {
        failures.push("leak measurement depends on the scheduler".to_string());
    }
    if scheme.is_secure() && kernel.claimed_under(threat) {
        if !wheel.slots.is_empty() {
            failures.push(format!("secure scheme leaked {:?}", wheel.slots));
        }
    } else {
        let allowed: BTreeSet<usize> = kernel.allowed_slots.iter().copied().collect();
        let expected: BTreeSet<usize> = kernel.expected_slots.iter().copied().collect();
        if !expected.is_subset(&wheel.slots) || !wheel.slots.is_subset(&allowed) {
            failures.push(format!(
                "leaked {:?}, want {expected:?} within {allowed:?}",
                wheel.slots
            ));
        }
    }
    let name = kernel.trace.name();
    let bounds = tr.span("analysis.analyze_kernel", || {
        sb_analysis::analyze_kernel(kernel, scheme, threat)
    });
    for (label, m) in [("wheel", &wheel), ("reference", &reference)] {
        for e in sb_analysis::check_soundness(name, scheme, threat, label, &bounds, &m.slots) {
            failures.push(e.to_string());
        }
    }
    if tr
        .span("analysis.audit_kernel", || {
            sb_analysis::audit_kernel(kernel)
        })
        .is_err()
    {
        failures.push("claims audit drifted".to_string());
    }
    Ok(Cell {
        failures,
        records: wheel.records + reference.records,
        stats: [wheel.stats, reference.stats],
    })
}

impl Workload for SecurityFuzz {
    fn setup(&mut self, _dirs: &Dirs, tr: &Tracer) -> u64 {
        // The security path builds its batteries in memory and never goes
        // through the trace store, so the set-up is the batteries alone.
        self.kernels = (0..VARIANTS)
            .flat_map(|v| {
                tr.span("workloads.fuzz_battery", || {
                    fuzz_battery(replicate_seed(self.seed, v))
                })
            })
            .collect();
        if tr.on() {
            tr.span("isa.encode", || {
                self.kernels
                    .iter()
                    .map(|k| encode_trace(&k.trace).len() as u64)
                    .sum()
            })
        } else {
            0
        }
    }

    fn run(&mut self, _dirs: &Dirs, tr: &Tracer) -> RepOutcome {
        let mut checks = Checks::default();
        let start = Instant::now();
        let kernels = &self.kernels;
        let cells: Vec<(usize, ThreatModel, Scheme)> = (0..kernels.len())
            .flat_map(|k| {
                ThreatModel::all()
                    .into_iter()
                    .flat_map(move |t| Scheme::all().into_iter().map(move |s| (k, t, s)))
            })
            .collect();
        let labels: Vec<String> = cells
            .iter()
            .map(|&(k, t, s)| format!("{k}/{}/{t}/{s}", kernels[k].trace.name()))
            .collect();
        let report = tr.span("experiments.run_batch", || {
            jobs::run_batch(&labels, &JobPolicy::default(), |ctx| {
                tr.job(ctx.index, || {
                    let (k, threat, scheme) = cells[ctx.index];
                    judge(&kernels[k], scheme, threat, ctx, tr)
                })
            })
        });
        let wall_s = start.elapsed().as_secs_f64();

        let mut counts = Counts::default();
        let mut digest = Digest::new();
        for (i, cell) in report.results.iter().enumerate() {
            let ok = cell.as_ref().is_some_and(|c| c.failures.is_empty());
            checks.check(ok, || match cell {
                Some(c) => format!("{}: {}", labels[i], c.failures.join("; ")),
                None => format!("{}: job failed", labels[i]),
            });
            if let Some(c) = cell {
                let name = kernels[cells[i].0].trace.name();
                for s in &c.stats {
                    digest.add(name, s);
                    counts.add(s);
                }
                counts.observer_records += c.records;
            }
        }
        RepOutcome {
            wall_s,
            counts,
            digest: digest.value(),
            checks,
        }
    }

    fn sample_inputs(&self) -> Vec<SimInput> {
        self.kernels
            .iter()
            .take(sb_workloads::fuzz_attacks::FAMILIES)
            .map(|k| {
                (
                    kernel_config(k, SchedulerKind::EventWheel),
                    battery_scheme_config(Scheme::Baseline, ThreatModel::Spectre),
                    k.trace.clone(),
                )
            })
            .collect()
    }

    fn ab_costs(&self) -> Vec<(&'static str, f64)> {
        let battery: Vec<&AttackKernel> = self
            .kernels
            .iter()
            .take(sb_workloads::fuzz_attacks::FAMILIES)
            .collect();
        let run = |kernel: &AttackKernel, predictor: bool, observers: bool| {
            let mut config = kernel_config(kernel, SchedulerKind::EventWheel);
            if !predictor {
                config.predictor = PredictorConfig::disabled();
            }
            let scheme = battery_scheme_config(Scheme::Baseline, ThreatModel::Spectre);
            let mut core = Core::new(config, scheme, kernel.trace.clone());
            if observers {
                core.memory_mut().attach_leakage_observer();
                core.memory_mut().attach_contention_observer();
            }
            std::hint::black_box(core.run(MAX_CYCLES));
        };
        // Each side runs its kernels enough times to take about a
        // millisecond, well above timer resolution.
        let rounds = 40;
        let v2: Vec<&AttackKernel> = battery
            .iter()
            .copied()
            .filter(|k| k.predictor.is_some())
            .collect();
        let budget = Duration::from_millis(600);
        let predictor = cost_frac(
            budget,
            || (0..rounds).for_each(|_| v2.iter().for_each(|k| run(k, false, true))),
            || (0..rounds).for_each(|_| v2.iter().for_each(|k| run(k, true, true))),
        );
        let observer = cost_frac(
            budget,
            || (0..rounds).for_each(|_| battery.iter().for_each(|k| run(k, true, false))),
            || (0..rounds).for_each(|_| battery.iter().for_each(|k| run(k, true, true))),
        );
        vec![
            ("uarch.predictor.cost_frac", predictor),
            ("mem.observer.cost_frac", observer),
        ]
    }
}
