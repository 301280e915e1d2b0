//! The `verify-security` subsystem: runs the transient-leak attack battery
//! under every scheme, both schedulers, and the requested threat models,
//! and checks the paper's central security claim end to end.
//!
//! For each `(threat model, scenario, scheme, scheduler)` point a core runs
//! the attack kernel with both observers attached: an
//! `sb_mem::LeakageObserver` charging every cache-state change (fills,
//! evictions, prefetch installs, MSHR allocations) to the instruction that
//! caused it, and an `sb_mem::ContentionObserver` charging MSHR occupancy
//! and memory-port pressure the same way. After the run, events attributed
//! to squashed instructions form the *transient leak set*, decoded through
//! the kernel's channel — cache state for most scenarios, MSHR occupancy
//! for the contention scenario. The verdict then asserts, per cell:
//!
//! * **Baseline leaks**: the leak set contains every slot of the kernel's
//!   documented signature ([`sb_workloads::AttackKernel::expected_slots`])
//!   and nothing outside its secret address set (`allowed_slots`);
//! * **secure schemes leak nothing the model claims**: under STT-Rename,
//!   STT-Issue and NDA the leak set is empty for every scenario the
//!   judged threat model claims ([`sb_workloads::AttackKernel::claimed_under`]).
//!   A scenario *outside* the model's claim (the M-shadow scenario under
//!   the Spectre model) must instead leak exactly like the Baseline —
//!   proving the channel exists and the stronger model's shadows are what
//!   close it, rather than passing vacuously;
//! * **scheduler independence**: the event-wheel and reference schedulers
//!   produce identical measurements (the security property must not depend
//!   on which scheduler simulated it).
//!
//! Any violated assertion turns into a failed `ScenarioVerdict` and a
//! nonzero exit from `sb-experiments verify-security` — the CI tripwire
//! that a taint-propagation regression cannot ship silently.
//!
//! The battery runs on the panic-isolated job pool ([`crate::jobs`]): a
//! cell that panics, overruns its deadline, or is cancelled by the run
//! budget becomes a [`JobError`] in `SecurityVerdict::job_failures`
//! instead of taking down the whole verification, and the matrix report
//! renders the surviving cells plus the failures.
//!
//! Every cell is additionally cross-checked against the *static* analyzer
//! ([`sb_analysis`]): the dynamic leak set of each scheduler must sit
//! inside the statically computed bracket, `must ⊆ dynamic ⊆ may`, and a
//! broken containment becomes a typed `sb_analysis::SoundnessError` in
//! the cell's failures. The kernel's claim constants are audited against
//! the analyzer too (`ScenarioVerdict::claims_verified`), and the CSV's
//! `claims_source` column records whether each row was judged against
//! statically verified claims or hand-written ones.

use crate::jobs::{self, JobCtx, JobError, JobFailure, JobPolicy};
use crate::render::format_table;
use crate::reports::Report;
use sb_core::{Scheme, SchemeConfig, ThreatModel};
use sb_uarch::{Core, CoreConfig, PredictorConfig, SchedulerKind};
use sb_workloads::{attack_battery, AttackKernel};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Secret value every battery kernel encodes (any value `< 16` works; the
/// verdict does not depend on it).
pub const BATTERY_SECRET: usize = 11;

/// Cycle budget per kernel run (the kernels finish in well under 10k).
const MAX_CYCLES: u64 = 1_000_000;

/// The scheme configuration every battery run uses. The threat model is a
/// *required* parameter by design: `SchemeConfig`'s constructors default
/// to `ThreatModel::Spectre`, and a battery config built without naming
/// the model would silently ignore the CLI's `--threat-model` axis — the
/// exact bug this builder exists to make impossible. (Regression-tested:
/// the M-shadow scenario measures differently under the two models, so a
/// dropped axis cannot go unnoticed.)
#[must_use]
pub fn battery_scheme_config(scheme: Scheme, threat_model: ThreatModel) -> SchemeConfig {
    SchemeConfig::rtl(scheme, CoreConfig::mega().mem_ports).with_threat_model(threat_model)
}

/// The leak measurement for one `(threat model, scenario, scheme,
/// scheduler)` run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct LeakMeasurement {
    /// Probe-channel slots changed by squashed instructions, decoded
    /// through the kernel's channel medium (cache state or MSHR
    /// occupancy).
    pub(crate) slots: BTreeSet<usize>,
    /// Total transient cache-state changes (any address).
    pub(crate) transient_changes: usize,
    /// Memory-port slots consumed by squashed instructions (pure
    /// contention pressure; nonzero whenever a transient memory op
    /// issued).
    pub(crate) transient_port_uses: usize,
}

/// The verdict for one `(threat model, scenario, scheme)` cell.
#[derive(Clone, Debug)]
pub(crate) struct ScenarioVerdict {
    /// Kernel name (`spectre-v1`, `ssb`, ...).
    pub(crate) scenario: String,
    /// Scheme under test.
    pub(crate) scheme: Scheme,
    /// Threat model the core ran (and was judged) under.
    pub(crate) threat_model: ThreatModel,
    /// Whether `threat_model`'s protection claim covers the scenario.
    pub(crate) claimed: bool,
    /// Measurement under the (default) event-wheel scheduler.
    pub(crate) wheel: LeakMeasurement,
    /// Measurement under the reference scheduler.
    pub(crate) reference: LeakMeasurement,
    /// Whether both schedulers agreed on the full measurement.
    pub(crate) scheduler_independent: bool,
    /// Whether the static claims audit reproduced this kernel's
    /// hand-written `expected_slots`/`allowed_slots`/`min_model` exactly —
    /// `true` means the row was judged against statically *verified*
    /// claims (`claims_source = static` in the CSV), `false` that the
    /// constants are trusted hand-written inputs.
    pub(crate) claims_verified: bool,
    /// Whether the cell satisfies the security property.
    pub(crate) pass: bool,
    /// Human-readable failure explanations (empty when `pass`).
    pub(crate) failures: Vec<String>,
}

/// The full threat-model × battery × scheme matrix plus the overall
/// verdict.
#[derive(Clone, Debug)]
pub struct SecurityVerdict {
    /// One verdict per surviving cell, threat-model-major then
    /// battery-major. Cells whose job failed are absent here and listed
    /// in [`SecurityVerdict::job_failures`] instead.
    pub(crate) cells: Vec<ScenarioVerdict>,
    /// Cells that never produced a verdict: panicked, deadline-exceeded,
    /// or cancelled jobs, labelled `model/scenario/scheme`.
    pub(crate) job_failures: Vec<JobError>,
    /// Whether every cell ran to a verdict and every verdict passed.
    pub ok: bool,
}

/// Runs one kernel under one scheme/threat-model/scheduler with both
/// observers attached and decodes the transient leak set through the
/// kernel's channel. The core run observes the job's cancel token, and an
/// interrupted run becomes a typed [`JobFailure`].
fn measure_leaks_in(
    kernel: &AttackKernel,
    scheme: Scheme,
    threat_model: ThreatModel,
    scheduler: SchedulerKind,
    ctx: &JobCtx,
) -> Result<LeakMeasurement, JobFailure> {
    let mut config = CoreConfig::mega();
    config.scheduler = scheduler;
    // A kernel that attacks the frontend predictor asks for it to be
    // modelled; everything else runs with the predictor off (bit-identical
    // to the pre-predictor core).
    if let Some(p) = kernel.predictor {
        config.predictor = PredictorConfig::enabled(p.pht_entries, p.btb_entries, p.ghr_bits);
    }
    let scheme_cfg = battery_scheme_config(scheme, threat_model);
    let mut core = Core::new(config, scheme_cfg, kernel.trace.clone());
    core.set_cancel_token(ctx.cancel.clone());
    core.memory_mut().attach_leakage_observer();
    core.memory_mut().attach_contention_observer();
    core.run(MAX_CYCLES);
    if core.interrupted() {
        return Err(ctx.interruption());
    }
    assert!(
        core.is_done(),
        "battery kernel {} did not finish within {MAX_CYCLES} cycles",
        kernel.trace.name()
    );
    let leakage = core
        .memory()
        .leakage_observer()
        .expect("observer attached before the run");
    let contention = core
        .memory()
        .contention_observer()
        .expect("observer attached before the run");
    Ok(LeakMeasurement {
        slots: kernel.decode_transient_slots(leakage, contention),
        transient_changes: leakage.transient_changes().count(),
        transient_port_uses: contention.transient_port_uses(),
    })
}

/// Judges one cell under a job's cancel token; both scheduler runs observe
/// the token. `claims_verified` is the kernel's claims-audit outcome,
/// which depends on the kernel alone, so callers audit once per kernel.
fn judge_in(
    kernel: &AttackKernel,
    scheme: Scheme,
    threat_model: ThreatModel,
    claims_verified: bool,
    ctx: &JobCtx,
) -> Result<ScenarioVerdict, JobFailure> {
    let wheel = measure_leaks_in(kernel, scheme, threat_model, SchedulerKind::EventWheel, ctx)?;
    let reference = measure_leaks_in(kernel, scheme, threat_model, SchedulerKind::Reference, ctx)?;
    // Full-measurement equality: a divergence in the total transient
    // change count or port pressure (even outside the probe channel) is a
    // scheduler regression too, not just slot-set differences.
    let scheduler_independent = wheel == reference;
    let claimed = kernel.claimed_under(threat_model);

    let mut failures = Vec::new();
    if !scheduler_independent {
        failures.push(format!(
            "leak measurement depends on the scheduler: event-wheel {:?}/{}/{}p \
             vs reference {:?}/{}/{}p",
            wheel.slots,
            wheel.transient_changes,
            wheel.transient_port_uses,
            reference.slots,
            reference.transient_changes,
            reference.transient_port_uses
        ));
    }
    if scheme.is_secure() && claimed {
        if !wheel.slots.is_empty() {
            failures.push(format!(
                "secure scheme leaked probe slots {:?} under its claimed \
                 {threat_model} model (secret {})",
                wheel.slots, kernel.secret
            ));
        }
    } else {
        // Baseline always; secure schemes when the scenario escapes the
        // model's claim: the channel must demonstrably transmit, inside
        // the documented secret address set.
        let who = if scheme.is_secure() {
            "out-of-claim scheme"
        } else {
            "baseline"
        };
        for &slot in &kernel.expected_slots {
            if !wheel.slots.contains(&slot) {
                failures.push(format!(
                    "{who} failed to leak expected slot {slot} (got {:?}) — \
                     the attack kernel no longer transmits",
                    wheel.slots
                ));
            }
        }
        let allowed: BTreeSet<usize> = kernel.allowed_slots.iter().copied().collect();
        for &slot in wheel.slots.difference(&allowed) {
            failures.push(format!(
                "{who} leaked slot {slot} outside the documented secret \
                 address set {allowed:?}"
            ));
        }
    }

    // Static/dynamic cross-check: both schedulers' measurements must fall
    // inside the abstract interpreter's bracket. This is independent of
    // the claim assertions above — it catches a simulator and a claim
    // drifting together.
    let bounds = sb_analysis::analyze_kernel(kernel, scheme, threat_model);
    let name = kernel.trace.name();
    for err in
        sb_analysis::check_soundness(name, scheme, threat_model, "wheel", &bounds, &wheel.slots)
            .into_iter()
            .chain(sb_analysis::check_soundness(
                name,
                scheme,
                threat_model,
                "reference",
                &bounds,
                &reference.slots,
            ))
    {
        failures.push(err.to_string());
    }

    Ok(ScenarioVerdict {
        scenario: kernel.trace.name().to_string(),
        scheme,
        threat_model,
        claimed,
        claims_verified,
        pass: failures.is_empty(),
        wheel,
        reference,
        scheduler_independent,
        failures,
    })
}

/// Runs the whole threat-model × battery × scheme × scheduler grid and
/// judges every cell, with the default job policy (no deadlines, no
/// budget, no fault injection).
#[must_use]
pub(crate) fn verify_security(threat_models: &[ThreatModel]) -> SecurityVerdict {
    verify_security_with(threat_models, &JobPolicy::default())
}

/// Runs the battery on the fault-tolerant job pool: each cell is one job
/// (labelled `model/scenario/scheme`), panic-isolated and subject to the
/// policy's deadlines, budget and fault plan. Failed cells are
/// dropped from `SecurityVerdict::cells` and reported in
/// `SecurityVerdict::job_failures`; `ok` requires both a clean run and
/// all-pass verdicts.
#[must_use]
pub fn verify_security_with(threat_models: &[ThreatModel], policy: &JobPolicy) -> SecurityVerdict {
    let battery = attack_battery(BATTERY_SECRET);
    let claims_verified: Vec<bool> = battery
        .iter()
        .map(|k| sb_analysis::audit_kernel(k).is_ok())
        .collect();
    let points: Vec<(ThreatModel, usize, Scheme)> = threat_models
        .iter()
        .flat_map(|&model| {
            (0..battery.len())
                .flat_map(move |k| Scheme::all().into_iter().map(move |s| (model, k, s)))
        })
        .collect();
    let labels: Vec<String> = points
        .iter()
        .map(|&(model, k, scheme)| format!("{model}/{}/{scheme}", battery[k].trace.name()))
        .collect();
    let report = jobs::run_batch(&labels, policy, |ctx| {
        let (model, k, scheme) = points[ctx.index];
        judge_in(&battery[k], scheme, model, claims_verified[k], ctx)
    });
    let cells: Vec<ScenarioVerdict> = report.results.into_iter().flatten().collect();
    let ok = report.failures.is_empty() && cells.iter().all(|c| c.pass);
    SecurityVerdict {
        cells,
        job_failures: report.failures,
        ok,
    }
}

/// Renders the verdict as one leak-count matrix per threat model (plus a
/// combined CSV).
#[must_use]
pub fn security_matrix_report(verdict: &SecurityVerdict) -> Report {
    let mut csv = String::from(
        "threat_model,scenario,scheme,claimed,leaked_slots_wheel,\
         leaked_slots_reference,transient_changes_wheel,\
         transient_port_uses_wheel,scheduler_independent,claims_source,pass\n",
    );
    let mut failures = Vec::new();
    let mut text = format!(
        "Security verification: transient leaks per threat model, scenario \
         and scheme (secret {BATTERY_SECRET}; leak = probe slots changed by \
         squashed instructions, decoded from cache state or MSHR occupancy \
         per scenario; Baseline must leak every scenario, secure schemes \
         none that the model claims, both schedulers must agree; * marks a \
         scenario outside the model's claim, where secure schemes are \
         expected to leak like Baseline)\n"
    );
    let models: Vec<ThreatModel> = {
        let mut seen = Vec::new();
        for c in &verdict.cells {
            if !seen.contains(&c.threat_model) {
                seen.push(c.threat_model);
            }
        }
        seen
    };
    for model in models {
        let model_cells: Vec<&ScenarioVerdict> = verdict
            .cells
            .iter()
            .filter(|c| c.threat_model == model)
            .collect();
        let scenarios: Vec<String> = {
            let mut seen = Vec::new();
            for c in &model_cells {
                if !seen.contains(&c.scenario) {
                    seen.push(c.scenario.clone());
                }
            }
            seen
        };
        let mut rows = vec![{
            let mut h = vec![format!("Scenario [{model}]")];
            h.extend(Scheme::all().iter().map(|s| s.label().to_string()));
            h
        }];
        for scenario in &scenarios {
            let mut row = vec![scenario.clone()];
            for scheme in Scheme::all() {
                // A degraded run (panicked/cancelled cell) leaves holes in
                // the matrix: render them instead of crashing the report.
                let Some(cell) = model_cells
                    .iter()
                    .find(|c| &c.scenario == scenario && c.scheme == scheme)
                else {
                    row.push("(no result)".into());
                    continue;
                };
                row.push(format!(
                    "{} leak{}{} {}",
                    cell.wheel.slots.len(),
                    if cell.wheel.slots.len() == 1 { "" } else { "s" },
                    if cell.claimed { "" } else { "*" },
                    if cell.pass { "ok" } else { "FAIL" }
                ));
                let fmt_slots = |m: &LeakMeasurement| {
                    m.slots
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join("|")
                };
                csv.push_str(&format!(
                    "{model},{scenario},{scheme},{},{},{},{},{},{},{},{}\n",
                    cell.claimed,
                    fmt_slots(&cell.wheel),
                    fmt_slots(&cell.reference),
                    cell.wheel.transient_changes,
                    cell.wheel.transient_port_uses,
                    cell.scheduler_independent,
                    if cell.claims_verified {
                        "static"
                    } else {
                        "hand-written"
                    },
                    cell.pass
                ));
                failures.extend(
                    cell.failures
                        .iter()
                        .map(|f| format!("  [{model}] {scenario} / {scheme}: {f}")),
                );
            }
            rows.push(row);
        }
        let _ = write!(text, "{}", format_table(&rows));
        text.push('\n');
    }
    failures.extend(
        verdict
            .job_failures
            .iter()
            .map(|e| format!("  job failed: {e}")),
    );
    if verdict.ok {
        text.push_str(
            "VERIFIED: baseline leaks on all scenarios, secure schemes on \
             none their threat model claims.\n",
        );
    } else {
        let _ = write!(text, "FAILED:\n{}\n", failures.join("\n"));
    }
    Report {
        text,
        csv: vec![("security_matrix.csv".into(), csv)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_uarch::CancelToken;
    use sb_workloads::ChannelKind;

    /// A job context whose token never fires.
    fn uncancelled() -> JobCtx {
        JobCtx {
            index: 0,
            cancel: CancelToken::new(),
        }
    }

    fn judge(kernel: &AttackKernel, scheme: Scheme, threat_model: ThreatModel) -> ScenarioVerdict {
        let claims_verified = sb_analysis::audit_kernel(kernel).is_ok();
        judge_in(
            kernel,
            scheme,
            threat_model,
            claims_verified,
            &uncancelled(),
        )
        .expect("a token that never fires cannot interrupt the judge")
    }

    fn measure(
        kernel: &AttackKernel,
        scheme: Scheme,
        threat_model: ThreatModel,
        scheduler: SchedulerKind,
    ) -> LeakMeasurement {
        measure_leaks_in(kernel, scheme, threat_model, scheduler, &uncancelled())
            .expect("a token that never fires cannot interrupt the run")
    }

    #[test]
    fn the_security_property_holds_under_both_models() {
        // The headline regression test: every scenario leaks under
        // Baseline, none that the model claims under the secure schemes,
        // identically on both schedulers. 2 models x 11 scenarios x 4
        // schemes x 2 schedulers.
        let verdict = verify_security(&ThreatModel::all());
        let failed: Vec<String> = verdict
            .cells
            .iter()
            .filter(|c| !c.pass)
            .flat_map(|c| {
                c.failures.iter().map(move |f| {
                    format!("[{}] {} / {}: {f}", c.threat_model, c.scenario, c.scheme)
                })
            })
            .collect();
        assert!(verdict.ok, "security verification failed:\n{failed:#?}");
        assert_eq!(verdict.cells.len(), 88, "full matrix");
    }

    #[test]
    fn baseline_leak_counts_are_positive_and_prefetch_amplified() {
        let verdict = verify_security(&[ThreatModel::Spectre]);
        for cell in &verdict.cells {
            if cell.scheme == Scheme::Baseline {
                assert!(
                    !cell.wheel.slots.is_empty(),
                    "{}: baseline must leak",
                    cell.scenario
                );
            }
        }
        let amp = verdict
            .cells
            .iter()
            .find(|c| c.scenario == "spectre-v1-prefetch" && c.scheme == Scheme::Baseline)
            .unwrap();
        assert!(
            amp.wheel.slots.len() > 3,
            "prefetcher must amplify beyond the 3 directly-touched lines: {:?}",
            amp.wheel.slots
        );
    }

    #[test]
    fn m_shadow_scenario_separates_the_threat_models() {
        // The regression test that the threat-model axis is real: the
        // M-shadow kernel's taint root is covered by no C/D shadow, so
        // under the Spectre model every secure scheme leaks it (an
        // out-of-claim cell that still PASSES, with the Baseline's exact
        // signature), while under the Futuristic model the same schemes
        // block it completely. A battery config that silently dropped the
        // threat model could not produce both halves.
        let kernel = sb_workloads::m_shadow_kernel(BATTERY_SECRET);
        for scheme in Scheme::secure() {
            let spectre = judge(&kernel, scheme, ThreatModel::Spectre);
            assert!(!spectre.claimed);
            assert!(spectre.pass, "{scheme}: {:?}", spectre.failures);
            assert_eq!(
                spectre.wheel.slots.iter().copied().collect::<Vec<_>>(),
                vec![BATTERY_SECRET],
                "{scheme} must leak the M-shadow scenario under Spectre"
            );
            let futuristic = judge(&kernel, scheme, ThreatModel::Futuristic);
            assert!(futuristic.claimed);
            assert!(futuristic.pass, "{scheme}: {:?}", futuristic.failures);
            assert!(
                futuristic.wheel.slots.is_empty(),
                "{scheme} must block the M-shadow scenario under Futuristic"
            );
        }
    }

    #[test]
    fn battery_config_requires_and_propagates_the_threat_model() {
        // The config-builder bugfix: the threat model cannot be omitted,
        // and what you pass is what the core runs.
        for model in ThreatModel::all() {
            let cfg = battery_scheme_config(Scheme::SttIssue, model);
            assert_eq!(cfg.threat_model, model);
            let core = Core::new(
                CoreConfig::mega(),
                cfg,
                sb_workloads::spectre_v1_kernel(1).trace,
            );
            assert_eq!(core.scheme_config().threat_model, model);
        }
    }

    #[test]
    fn contention_scenario_is_judged_through_the_contention_observer() {
        let kernel = sb_workloads::mshr_contention_kernel(BATTERY_SECRET);
        assert_eq!(kernel.channel_kind, ChannelKind::MshrContention);
        let base = measure(
            &kernel,
            Scheme::Baseline,
            ThreatModel::Spectre,
            SchedulerKind::EventWheel,
        );
        assert_eq!(
            base.slots.iter().copied().collect::<Vec<_>>(),
            vec![BATTERY_SECRET],
            "transient MSHR occupancy must decode the secret"
        );
        assert!(
            base.transient_port_uses > 0,
            "the squashed burst consumed memory ports"
        );
        for scheme in Scheme::secure() {
            let m = measure(
                &kernel,
                scheme,
                ThreatModel::Spectre,
                SchedulerKind::EventWheel,
            );
            assert!(m.slots.is_empty(), "{scheme} must close the MSHR channel");
        }
    }

    #[test]
    fn port_pressure_transmits_without_any_cache_state_change() {
        // A pure-contention microkernel: the transient burst hits WARM
        // lines, so the leakage observer records nothing transient at all
        // — yet the burst's port pressure still encodes the secret. This
        // is the "non-cache-state transmitter" the contention observer
        // exists for.
        use sb_isa::{ArchReg, MicroOp, OpClass, TraceBuilder};
        let x = ArchReg::int;
        let secret = 5usize;
        let mut b = TraceBuilder::new("port-pressure");
        // Victim working set: warm `secret + 1` lines (committed code).
        for k in 0..=secret {
            b.load(x(10), x(28), 0x2800_0000 + k as u64 * 4096, 8);
        }
        b.load(x(9), x(28), 0x3800_0000, 8);
        b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
        b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
        let br = b.branch(Some(x(9)), None, true, true);
        // Transient burst: `secret + 1` WARM loads — hits, no fills, no
        // MSHRs, no evictions. Addresses are secret-independent
        // constants; the COUNT is the signal.
        let burst: Vec<MicroOp> = (0..=secret)
            .map(|k| MicroOp::load(x(4), x(2), 0x2800_0000 + k as u64 * 4096, 8))
            .collect();
        b.wrong_path(br, burst);
        b.alu(x(5), None, None);
        let trace = b.build();

        let mut config = CoreConfig::mega();
        config.scheduler = SchedulerKind::EventWheel;
        let mut core = Core::new(
            config,
            battery_scheme_config(Scheme::Baseline, ThreatModel::Spectre),
            trace,
        );
        core.memory_mut().attach_leakage_observer();
        core.memory_mut().attach_contention_observer();
        core.run_to_completion(MAX_CYCLES);
        assert_eq!(
            core.memory()
                .leakage_observer()
                .unwrap()
                .transient_changes()
                .count(),
            0,
            "warm hits change no cache state"
        );
        assert_eq!(
            core.memory()
                .contention_observer()
                .unwrap()
                .transient_port_uses(),
            secret + 1,
            "port pressure alone carries the secret"
        );
    }

    #[test]
    fn the_verdict_machinery_can_fail() {
        // A transmitter whose address does NOT depend on transiently
        // loaded data is outside STT's protection claim — it issues
        // untainted, fills the probe line, and squashes. The judge must
        // report the leak instead of vacuously passing, proving the
        // framework detects scheme-bypassing transmissions.
        use sb_isa::{ArchReg, MicroOp, OpClass, TraceBuilder};
        use sb_workloads::{ProbeChannel, PROBE_BASE, PROBE_STRIDE};
        let x = ArchReg::int;
        let mut b = TraceBuilder::new("untainted-transmit");
        b.load(x(9), x(28), 0x3000_0000, 8);
        b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
        let br = b.branch(Some(x(9)), None, true, true);
        b.wrong_path(
            br,
            vec![MicroOp::load(x(4), x(28), PROBE_BASE + 5 * PROBE_STRIDE, 8)],
        );
        b.alu(x(5), None, None);
        let kernel = AttackKernel {
            trace: b.build(),
            secret: 5,
            channel: ProbeChannel::page_stride(),
            channel_kind: ChannelKind::CacheState,
            min_model: ThreatModel::Spectre,
            expected_slots: vec![5],
            allowed_slots: vec![5],
            predictor: None,
        };
        let cell = judge(&kernel, Scheme::SttIssue, ThreatModel::Spectre);
        assert!(!cell.pass, "an untainted transmitter must fail the judge");
        assert!(
            cell.failures
                .iter()
                .any(|f| f.contains("secure scheme leaked")),
            "{:?}",
            cell.failures
        );
        // And a baseline judged against an impossible signature fails too.
        let mut impossible = sb_workloads::spectre_v1_kernel(3);
        impossible.expected_slots = vec![15];
        let cell = judge(&impossible, Scheme::Baseline, ThreatModel::Spectre);
        assert!(!cell.pass);
        assert!(
            cell.failures
                .iter()
                .any(|f| f.contains("failed to leak expected slot 15")),
            "{:?}",
            cell.failures
        );
    }

    #[test]
    fn matrix_report_renders_all_scenarios_models_and_verdict() {
        let verdict = verify_security(&ThreatModel::all());
        let report = security_matrix_report(&verdict);
        for name in [
            "spectre-v1",
            "spectre-v1-prefetch",
            "ssb",
            "store-forward",
            "nested-speculation",
            "prime-probe",
            "mshr-contention",
            "m-shadow",
            "spectre-v2-pht",
            "spectre-v2-btb",
            "spectre-v2-squash",
        ] {
            assert!(
                report.text.contains(name),
                "missing {name}:\n{}",
                report.text
            );
        }
        assert!(report.text.contains("[spectre]"));
        assert!(report.text.contains("[futuristic]"));
        // The out-of-claim marker shows up exactly on the M-shadow row of
        // the Spectre table's secure columns.
        assert!(report.text.contains('*'));
        assert!(report.text.contains("VERIFIED"));
        assert_eq!(report.csv[0].0, "security_matrix.csv");
        assert_eq!(
            report.csv[0].1.lines().count(),
            89,
            "header + 88 matrix cells"
        );
        let mut lines = report.csv[0].1.lines();
        assert!(
            lines.next().unwrap().contains(",claims_source,pass"),
            "CSV names the claim provenance column"
        );
        assert!(
            lines.all(|l| l.contains(",static,")),
            "every battery kernel's claims audit statically"
        );
    }

    #[test]
    fn unverifiable_claims_downgrade_the_provenance_not_the_verdict() {
        // Widening `allowed_slots` past what the static analysis derives
        // leaves the dynamic assertions satisfied (the run still leaks
        // inside the widened set), but the claims audit no longer
        // reproduces the constants: the cell passes with
        // `claims_verified = false` — a `hand-written` row in the CSV.
        let mut k = sb_workloads::spectre_v1_kernel(3);
        k.allowed_slots = vec![3, 4];
        let cell = judge(&k, Scheme::Baseline, ThreatModel::Spectre);
        assert!(cell.pass, "{:?}", cell.failures);
        assert!(!cell.claims_verified);

        let pristine = judge(
            &sb_workloads::spectre_v1_kernel(3),
            Scheme::Baseline,
            ThreatModel::Spectre,
        );
        assert!(pristine.claims_verified);
    }

    #[test]
    fn a_panicking_cell_degrades_to_a_job_failure() {
        use crate::faults::FaultPlan;
        let policy = JobPolicy {
            faults: Some(FaultPlan::parse("panic@0").unwrap()),
            ..JobPolicy::default()
        };
        let verdict = verify_security_with(&[ThreatModel::Spectre], &policy);
        assert!(!verdict.ok, "a lost cell must fail the verdict");
        assert_eq!(verdict.cells.len(), 43, "43 of 44 cells survive");
        assert_eq!(verdict.job_failures.len(), 1);
        let err = &verdict.job_failures[0];
        assert_eq!(err.index, 0);
        assert!(
            err.label.starts_with("spectre/spectre-v1/"),
            "label carries model/scenario/scheme: {}",
            err.label
        );
        // Every surviving cell still passes on its own merits.
        assert!(verdict.cells.iter().all(|c| c.pass));
        let report = security_matrix_report(&verdict);
        assert!(report.text.contains("(no result)"), "{}", report.text);
        assert!(report.text.contains("FAILED"));
        assert!(report.text.contains("injected fault: panic@0"));
    }

    #[test]
    fn a_zero_budget_cancels_every_cell() {
        let policy = JobPolicy {
            run_budget: Some(std::time::Duration::ZERO),
            ..JobPolicy::default()
        };
        let verdict = verify_security_with(&[ThreatModel::Spectre], &policy);
        assert!(!verdict.ok);
        assert!(verdict.cells.is_empty(), "no cell may produce a verdict");
        assert_eq!(verdict.job_failures.len(), 44);
        assert!(verdict
            .job_failures
            .iter()
            .all(|e| matches!(e.cause, JobFailure::Cancelled)));
    }

    #[test]
    fn single_model_verdicts_are_half_the_matrix() {
        let spectre_only = verify_security(&[ThreatModel::Spectre]);
        assert!(spectre_only.ok);
        assert_eq!(spectre_only.cells.len(), 44);
        assert!(spectre_only
            .cells
            .iter()
            .all(|c| c.threat_model == ThreatModel::Spectre));
    }
}
