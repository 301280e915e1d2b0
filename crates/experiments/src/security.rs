//! The security judge: one verdict machinery with two views of the
//! transient-leak attack battery, and the `verify-security` subsystem that
//! is its dynamic view.
//!
//! Both views judge the same cells. One threat-model-major enumeration
//! walks a caller-supplied battery, `(threat model, scenario, scheme)`,
//! with one claims audit ([`sb_analysis::audit_battery`]) per battery.
//! Every cell is a `Cell` holding the view's evidence, and one claim
//! rule (`claim_failures`) judges it from a leak bracket `[lower, upper]`:
//!
//! * **Baseline leaks**: `lower` covers every slot of the kernel's
//!   documented signature ([`sb_workloads::AttackKernel::expected_slots`])
//!   and `upper` stays inside its secret address set (`allowed_slots`);
//! * **secure schemes leak nothing the model claims**: under STT-Rename,
//!   STT-Issue and NDA `upper` is empty for every scenario the judged
//!   threat model claims ([`sb_workloads::AttackKernel::claimed_under`]).
//!   A scenario *outside* the model's claim (the M-shadow scenario under
//!   the Spectre model) must instead leak exactly like the Baseline —
//!   proving the channel exists and the stronger model's shadows are what
//!   close it, rather than passing vacuously.
//!
//! The *dynamic* view ([`verify_security_with`]) simulates each cell twice.
//! A core runs the attack kernel with both observers attached: an
//! `sb_mem::LeakageObserver` charging every cache-state change (fills,
//! evictions, prefetch installs, MSHR allocations) to the instruction that
//! caused it, and an `sb_mem::ContentionObserver` charging MSHR occupancy
//! and memory-port pressure the same way. Events attributed to squashed
//! instructions form the *transient leak set*, decoded through the
//! kernel's channel — cache state for most scenarios, MSHR occupancy for
//! the contention scenario ([`measure_leaks_in`]). The claim rule judges
//! the event-wheel run's slots as both bounds; the view then adds
//! **scheduler independence** (the event-wheel and reference schedulers
//! measure identically) and the static/dynamic cross-check: each
//! scheduler's leak set must sit inside the abstract interpreter's
//! bracket, `must ⊆ dynamic ⊆ may`, and a broken containment becomes a
//! typed `sb_analysis::SoundnessError` in the cell's failures.
//!
//! The *static* view ([`crate::analyze_battery`]) judges the analyzer's
//! `must`/`may` bracket with zero simulation and fails on any claims-audit
//! drift; the dynamic view records the audit as each cell's provenance
//! only (the CSV's `claims_source` column: `static` when the kernel's
//! constants were reproduced, `hand-written` when they are trusted
//! inputs). One renderer prints either view as a matrix per threat model
//! plus a CSV.
//!
//! Any violated assertion fails the verdict and exits `sb-experiments
//! verify-security` nonzero — the CI tripwire that a taint-propagation
//! regression cannot ship silently. The dynamic battery runs on the
//! panic-isolated job pool ([`crate::jobs`]): a cell that panics, overruns
//! its deadline, or is cancelled by the run budget becomes a [`JobError`]
//! instead of taking down the whole verification, and the matrix renders
//! the surviving cells plus the failures.

use crate::jobs::{self, JobError, JobPolicy};
use crate::render::format_table;
use crate::reports::Report;
use sb_analysis::ClaimDrift;
use sb_core::{Scheme, SchemeConfig, ThreatModel};
use sb_uarch::{CancelToken, Core, CoreConfig, PredictorConfig, SchedulerKind};
use sb_workloads::AttackKernel;
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
pub struct LeakMeasurement {
    /// Probe-channel slots changed by squashed instructions, decoded
    /// through the kernel's channel medium (cache state or MSHR
    /// occupancy).
    pub slots: BTreeSet<usize>,
    /// Total transient cache-state changes (any address).
    pub transient_changes: usize,
    /// Memory-port slots consumed by squashed instructions (pure
    /// contention pressure; nonzero whenever a transient memory op
    /// issued).
    pub transient_port_uses: usize,
}

/// The dynamic view's evidence for one cell: the same point simulated
/// under both schedulers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Measurements {
    /// Measurement under the (default) event-wheel scheduler.
    pub(crate) wheel: LeakMeasurement,
    /// Measurement under the reference scheduler.
    pub(crate) reference: LeakMeasurement,
}

/// The verdict for one `(threat model, scenario, scheme)` cell, carrying
/// the view's evidence: [`Measurements`] or the static
/// [`sb_analysis::StaticLeaks`] bracket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Cell<E> {
    /// Kernel name (`spectre-v1`, `ssb`, ...).
    pub(crate) scenario: String,
    /// Scheme under test.
    pub(crate) scheme: Scheme,
    /// Threat model the cell was judged under.
    pub(crate) threat_model: ThreatModel,
    /// Whether `threat_model`'s protection claim covers the scenario.
    pub(crate) claimed: bool,
    /// Whether the claims audit reproduced this kernel's hand-written
    /// `expected_slots`/`allowed_slots`/`min_model` exactly — `true` means
    /// the row was judged against statically *verified* claims.
    pub(crate) claims_verified: bool,
    /// Human-readable failure explanations (empty when the cell passes).
    pub(crate) failures: Vec<String>,
    /// What the view measured.
    pub(crate) evidence: E,
}

impl<E> Cell<E> {
    /// Whether the cell satisfies the security property.
    pub(crate) fn pass(&self) -> bool {
        self.failures.is_empty()
    }

    /// The CSV's `claims_source` field.
    pub(crate) fn claims_source(&self) -> &'static str {
        if self.claims_verified {
            "static"
        } else {
            "hand-written"
        }
    }
}

/// One view's verdict over a battery: its cells plus what stopped cells
/// from being judged cleanly.
#[derive(Clone, Debug)]
pub struct Verdict<E> {
    /// One cell per judged point, threat-model-major then battery-major.
    /// Cells whose job failed are absent here and listed in
    /// `job_failures` instead.
    pub(crate) cells: Vec<Cell<E>>,
    /// Claim constants the audit could not reproduce (static view only).
    pub(crate) drifts: Vec<ClaimDrift>,
    /// Cells that never produced a verdict (dynamic view only): panicked,
    /// deadline-exceeded, or cancelled jobs, labelled
    /// `model/scenario/scheme`.
    pub(crate) job_failures: Vec<JobError>,
}

impl<E> Verdict<E> {
    /// Whether every cell was judged, every cell passed and the claims
    /// audit found no drift.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.job_failures.is_empty() && self.drifts.is_empty() && self.cells.iter().all(Cell::pass)
    }
}

/// One `(threat model, kernel, scheme)` point of a battery.
pub(crate) struct Point<'a> {
    pub(crate) threat_model: ThreatModel,
    pub(crate) kernel: &'a AttackKernel,
    pub(crate) scheme: Scheme,
    /// The kernel's claims-audit outcome.
    pub(crate) claims_verified: bool,
}

impl Point<'_> {
    /// The cell judged at this point from `failures` and the evidence.
    pub(crate) fn cell<E>(&self, failures: Vec<String>, evidence: E) -> Cell<E> {
        Cell {
            scenario: self.kernel.trace.name().to_string(),
            scheme: self.scheme,
            threat_model: self.threat_model,
            claimed: self.kernel.claimed_under(self.threat_model),
            claims_verified: self.claims_verified,
            failures,
            evidence,
        }
    }
}

/// Every point of `battery` under `threat_models` — threat-model-major,
/// then battery order, then scheme — plus the battery's claims audit.
pub(crate) fn points<'a>(
    battery: &'a [AttackKernel],
    threat_models: &[ThreatModel],
) -> (Vec<Point<'a>>, Vec<ClaimDrift>) {
    let drifts = sb_analysis::audit_battery(battery);
    let mut points = Vec::new();
    for &threat_model in threat_models {
        for kernel in battery {
            let claims_verified = !drifts.iter().any(|d| d.kernel == kernel.trace.name());
            points.extend(Scheme::all().into_iter().map(|scheme| Point {
                threat_model,
                kernel,
                scheme,
                claims_verified,
            }));
        }
    }
    (points, drifts)
}

/// The claim rule both views share. `lower` holds the slots that certainly
/// leaked and `upper` those that possibly did: the dynamic view passes its
/// measured slots as both, the static view its `must` and `may` sets.
pub(crate) fn claim_failures(
    kernel: &AttackKernel,
    scheme: Scheme,
    threat_model: ThreatModel,
    lower: &BTreeSet<usize>,
    upper: &BTreeSet<usize>,
) -> Vec<String> {
    let mut failures = Vec::new();
    if scheme.is_secure() && kernel.claimed_under(threat_model) {
        if !upper.is_empty() {
            failures.push(format!(
                "secure scheme leaked probe slots {upper:?} under its claimed \
                 {threat_model} model (secret {})",
                kernel.secret
            ));
        }
        return failures;
    }
    // Baseline always; secure schemes when the scenario escapes the
    // model's claim: the channel must demonstrably transmit, inside the
    // documented secret address set.
    let who = if scheme.is_secure() {
        "out-of-claim scheme"
    } else {
        "baseline"
    };
    for &slot in &kernel.expected_slots {
        if !lower.contains(&slot) {
            failures.push(format!(
                "{who} failed to leak expected slot {slot} (got {lower:?})"
            ));
        }
    }
    let allowed: BTreeSet<usize> = kernel.allowed_slots.iter().copied().collect();
    for &slot in upper.difference(&allowed) {
        failures.push(format!(
            "{who} leaked slot {slot} outside the documented secret address \
             set {allowed:?}"
        ));
    }
    failures
}

/// Runs one kernel under one scheme/threat-model/scheduler with both
/// observers attached and decodes the transient leak set through the
/// kernel's channel — the one measurement the judge and the fuzzers
/// share. Returns `None` when `cancel` interrupts the run.
///
/// # Panics
///
/// Panics if the kernel does not finish within the cycle budget.
#[must_use]
pub fn measure_leaks_in(
    kernel: &AttackKernel,
    scheme: Scheme,
    threat_model: ThreatModel,
    scheduler: SchedulerKind,
    cancel: &CancelToken,
) -> Option<LeakMeasurement> {
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
    core.set_cancel_token(cancel.clone());
    core.memory_mut().attach_leakage_observer();
    core.memory_mut().attach_contention_observer();
    core.run(MAX_CYCLES);
    if core.interrupted() {
        return None;
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
    Some(LeakMeasurement {
        slots: kernel.decode_transient_slots(leakage, contention),
        transient_changes: leakage.transient_changes().count(),
        transient_port_uses: contention.transient_port_uses(),
    })
}

/// Judges one point dynamically; both scheduler runs observe `cancel`,
/// and `None` means it interrupted them.
fn judge_in(point: &Point<'_>, cancel: &CancelToken) -> Option<Cell<Measurements>> {
    let Point {
        threat_model,
        kernel,
        scheme,
        ..
    } = *point;
    let measure = |scheduler| measure_leaks_in(kernel, scheme, threat_model, scheduler, cancel);
    let wheel = measure(SchedulerKind::EventWheel)?;
    let reference = measure(SchedulerKind::Reference)?;
    let mut failures = claim_failures(kernel, scheme, threat_model, &wheel.slots, &wheel.slots);
    // Full-measurement equality: a divergence in the total transient
    // change count or port pressure (even outside the probe channel) is a
    // scheduler regression too, not just slot-set differences.
    if wheel != reference {
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
    // Static/dynamic cross-check: both schedulers' measurements must fall
    // inside the abstract interpreter's bracket. This is independent of
    // the claim rule — it catches a simulator and a claim drifting
    // together.
    let bounds = sb_analysis::analyze_kernel(kernel, scheme, threat_model);
    let name = kernel.trace.name();
    for (label, m) in [("wheel", &wheel), ("reference", &reference)] {
        failures.extend(
            sb_analysis::check_soundness(name, scheme, threat_model, label, &bounds, &m.slots)
                .iter()
                .map(ToString::to_string),
        );
    }
    Some(point.cell(failures, Measurements { wheel, reference }))
}

/// Simulates `battery` under `threat_models` on the fault-tolerant job
/// pool: each cell is one job (labelled `model/scenario/scheme`),
/// panic-isolated and subject to the policy's deadlines, budget and fault
/// plan. Failed cells are dropped from the verdict's cells and reported
/// as its job failures; [`Verdict::ok`] requires both a clean run and
/// all-pass cells.
#[must_use]
pub fn verify_security_with(
    battery: &[AttackKernel],
    threat_models: &[ThreatModel],
    policy: &JobPolicy,
) -> Verdict<Measurements> {
    let (points, _) = points(battery, threat_models);
    let labels: Vec<String> = points
        .iter()
        .map(|p| format!("{}/{}/{}", p.threat_model, p.kernel.trace.name(), p.scheme))
        .collect();
    let report = jobs::run_batch(&labels, policy, |ctx| {
        judge_in(&points[ctx.index], &ctx.cancel).ok_or_else(|| ctx.interruption())
    });
    Verdict {
        cells: report.results.into_iter().flatten().collect(),
        drifts: Vec::new(),
        job_failures: report.failures,
    }
}

/// How one view prints through [`render_matrix`].
pub(crate) struct Layout<E> {
    /// The paragraph above the tables.
    pub(crate) heading: String,
    /// A matrix cell's evidence summary (`3 leaks`, `1must/1may`).
    pub(crate) label: fn(&E) -> String,
    /// CSV file name.
    pub(crate) csv_name: &'static str,
    /// CSV header line, newline included.
    pub(crate) csv_header: &'static str,
    /// A CSV row's fields after `threat_model,scenario,scheme`.
    pub(crate) csv_row: fn(&Cell<E>) -> String,
    /// The trailer of a verdict that holds.
    pub(crate) verified: &'static str,
}

/// Probe slots as a CSV field: `3|4|5`.
pub(crate) fn csv_slots(slots: &BTreeSet<usize>) -> String {
    slots
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("|")
}

/// Renders a verdict as one matrix per threat model plus a combined CSV,
/// then either `layout.verified` or every failure.
pub(crate) fn render_matrix<E>(verdict: &Verdict<E>, layout: &Layout<E>) -> Report {
    let mut csv = layout.csv_header.to_string();
    let mut failures = Vec::new();
    let mut text = layout.heading.clone();
    let mut models: Vec<ThreatModel> = Vec::new();
    for c in &verdict.cells {
        if !models.contains(&c.threat_model) {
            models.push(c.threat_model);
        }
    }
    for model in models {
        let model_cells: Vec<&Cell<E>> = verdict
            .cells
            .iter()
            .filter(|c| c.threat_model == model)
            .collect();
        let mut scenarios: Vec<&str> = Vec::new();
        for c in &model_cells {
            if !scenarios.contains(&c.scenario.as_str()) {
                scenarios.push(&c.scenario);
            }
        }
        let mut rows = vec![{
            let mut h = vec![format!("Scenario [{model}]")];
            h.extend(Scheme::all().iter().map(|s| s.label().to_string()));
            h
        }];
        for scenario in scenarios {
            let mut row = vec![scenario.to_string()];
            for scheme in Scheme::all() {
                // A degraded run (panicked/cancelled cell) leaves holes in
                // the matrix: render them instead of crashing the report.
                let Some(cell) = model_cells
                    .iter()
                    .find(|c| c.scenario == scenario && c.scheme == scheme)
                else {
                    row.push("(no result)".into());
                    continue;
                };
                row.push(format!(
                    "{}{} {}",
                    (layout.label)(&cell.evidence),
                    if cell.claimed { "" } else { "*" },
                    if cell.pass() { "ok" } else { "FAIL" }
                ));
                let _ = writeln!(
                    csv,
                    "{model},{scenario},{scheme},{}",
                    (layout.csv_row)(cell)
                );
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
    failures.extend(verdict.drifts.iter().map(|d| format!("  {d}")));
    failures.extend(
        verdict
            .job_failures
            .iter()
            .map(|e| format!("  job failed: {e}")),
    );
    if verdict.ok() {
        text.push_str(layout.verified);
    } else {
        let _ = write!(text, "FAILED:\n{}\n", failures.join("\n"));
    }
    Report {
        text,
        csv: vec![(layout.csv_name.into(), csv)],
    }
}

/// Renders the dynamic verdict as one leak-count matrix per threat model
/// plus `security_matrix.csv`.
#[must_use]
pub fn security_matrix_report(verdict: &Verdict<Measurements>) -> Report {
    render_matrix(
        verdict,
        &Layout {
            heading: format!(
                "Security verification: transient leaks per threat model, scenario \
                 and scheme (secret {BATTERY_SECRET}; leak = probe slots changed by \
                 squashed instructions, decoded from cache state or MSHR occupancy \
                 per scenario; Baseline must leak every scenario, secure schemes \
                 none that the model claims, both schedulers must agree; * marks a \
                 scenario outside the model's claim, where secure schemes are \
                 expected to leak like Baseline)\n"
            ),
            label: |m| {
                let n = m.wheel.slots.len();
                format!("{n} leak{}", if n == 1 { "" } else { "s" })
            },
            csv_name: "security_matrix.csv",
            csv_header: "threat_model,scenario,scheme,claimed,leaked_slots_wheel,\
                         leaked_slots_reference,transient_changes_wheel,\
                         transient_port_uses_wheel,scheduler_independent,claims_source,pass\n",
            csv_row: |c| {
                let Measurements { wheel, reference } = &c.evidence;
                format!(
                    "{},{},{},{},{},{},{},{}",
                    c.claimed,
                    csv_slots(&wheel.slots),
                    csv_slots(&reference.slots),
                    wheel.transient_changes,
                    wheel.transient_port_uses,
                    wheel == reference,
                    c.claims_source(),
                    c.pass()
                )
            },
            verified: "VERIFIED: baseline leaks on all scenarios, secure schemes on \
                       none their threat model claims.\n",
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::JobFailure;
    use sb_workloads::{attack_battery, ChannelKind};

    /// The standard battery judged dynamically with the default job policy
    /// (no deadlines, no budget, no fault injection).
    fn verify(threat_models: &[ThreatModel]) -> Verdict<Measurements> {
        verify_security_with(
            &attack_battery(BATTERY_SECRET),
            threat_models,
            &JobPolicy::default(),
        )
    }

    fn judge(
        kernel: &AttackKernel,
        scheme: Scheme,
        threat_model: ThreatModel,
    ) -> Cell<Measurements> {
        let point = Point {
            threat_model,
            kernel,
            scheme,
            claims_verified: sb_analysis::audit_kernel(kernel).is_ok(),
        };
        judge_in(&point, &CancelToken::new())
            .expect("a token that never fires cannot interrupt the judge")
    }

    fn measure(
        kernel: &AttackKernel,
        scheme: Scheme,
        threat_model: ThreatModel,
        scheduler: SchedulerKind,
    ) -> LeakMeasurement {
        measure_leaks_in(kernel, scheme, threat_model, scheduler, &CancelToken::new())
            .expect("a token that never fires cannot interrupt the run")
    }

    #[test]
    fn the_security_property_holds_under_both_models() {
        // The headline regression test: every scenario leaks under
        // Baseline, none that the model claims under the secure schemes,
        // identically on both schedulers. 2 models x 11 scenarios x 4
        // schemes x 2 schedulers.
        let verdict = verify(&ThreatModel::all());
        let failed: Vec<String> = verdict
            .cells
            .iter()
            .filter(|c| !c.pass())
            .flat_map(|c| {
                c.failures.iter().map(move |f| {
                    format!("[{}] {} / {}: {f}", c.threat_model, c.scenario, c.scheme)
                })
            })
            .collect();
        assert!(verdict.ok(), "security verification failed:\n{failed:#?}");
        assert_eq!(verdict.cells.len(), 88, "full matrix");
    }

    #[test]
    fn baseline_leak_counts_are_positive_and_prefetch_amplified() {
        let verdict = verify(&[ThreatModel::Spectre]);
        for cell in &verdict.cells {
            if cell.scheme == Scheme::Baseline {
                assert!(
                    !cell.evidence.wheel.slots.is_empty(),
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
            amp.evidence.wheel.slots.len() > 3,
            "prefetcher must amplify beyond the 3 directly-touched lines: {:?}",
            amp.evidence.wheel.slots
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
            assert!(spectre.pass(), "{scheme}: {:?}", spectre.failures);
            assert_eq!(
                spectre
                    .evidence
                    .wheel
                    .slots
                    .iter()
                    .copied()
                    .collect::<Vec<_>>(),
                vec![BATTERY_SECRET],
                "{scheme} must leak the M-shadow scenario under Spectre"
            );
            let futuristic = judge(&kernel, scheme, ThreatModel::Futuristic);
            assert!(futuristic.claimed);
            assert!(futuristic.pass(), "{scheme}: {:?}", futuristic.failures);
            assert!(
                futuristic.evidence.wheel.slots.is_empty(),
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
        assert!(!cell.pass(), "an untainted transmitter must fail the judge");
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
        assert!(!cell.pass());
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
        let verdict = verify(&ThreatModel::all());
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
        assert!(cell.pass(), "{:?}", cell.failures);
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
        let verdict = verify_security_with(
            &attack_battery(BATTERY_SECRET),
            &[ThreatModel::Spectre],
            &policy,
        );
        assert!(!verdict.ok(), "a lost cell must fail the verdict");
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
        assert!(verdict.cells.iter().all(Cell::pass));
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
        let verdict = verify_security_with(
            &attack_battery(BATTERY_SECRET),
            &[ThreatModel::Spectre],
            &policy,
        );
        assert!(!verdict.ok());
        assert!(verdict.cells.is_empty(), "no cell may produce a verdict");
        assert_eq!(verdict.job_failures.len(), 44);
        assert!(verdict
            .job_failures
            .iter()
            .all(|e| matches!(e.cause, JobFailure::Cancelled)));
    }

    #[test]
    fn single_model_verdicts_are_half_the_matrix() {
        let spectre_only = verify(&[ThreatModel::Spectre]);
        assert!(spectre_only.ok());
        assert_eq!(spectre_only.cells.len(), 44);
        assert!(spectre_only
            .cells
            .iter()
            .all(|c| c.threat_model == ThreatModel::Spectre));
    }

    #[test]
    fn both_views_judge_the_same_cells() {
        // One enumeration behind both views: the same (model, scenario,
        // scheme) cells in the same order, with the same claim provenance.
        fn keys<E>(v: &Verdict<E>) -> Vec<(ThreatModel, String, Scheme, bool, bool)> {
            v.cells
                .iter()
                .map(|c| {
                    let (model, scenario, scheme) = (c.threat_model, c.scenario.clone(), c.scheme);
                    (model, scenario, scheme, c.claimed, c.claims_verified)
                })
                .collect()
        }
        fn only<E: Clone>(v: &Verdict<E>, names: &[&str]) -> Vec<Cell<E>> {
            let mut cells = v.cells.clone();
            cells.retain(|c| names.contains(&c.scenario.as_str()));
            cells
        }
        let models = ThreatModel::all();
        let battery = attack_battery(BATTERY_SECRET);
        let dynamic = verify(&models);
        let fixed = crate::analyze_battery(&battery, &models);
        assert_eq!(
            dynamic.cells.len(),
            88,
            "2 models x 11 scenarios x 4 schemes"
        );
        assert_eq!(keys(&dynamic), keys(&fixed));

        // A sub-battery judges exactly its kernels' cells of the full run:
        // the narrowing behind the §7 table.
        let two = ["spectre-v1", "ssb"];
        let sub: Vec<AttackKernel> = battery
            .into_iter()
            .filter(|k| two.contains(&k.trace.name()))
            .collect();
        let sub_dynamic = verify_security_with(&sub, &models, &JobPolicy::default());
        assert_eq!(
            sub_dynamic.cells.len(),
            16,
            "2 models x 2 scenarios x 4 schemes"
        );
        assert_eq!(sub_dynamic.cells, only(&dynamic, &two));
        assert_eq!(
            crate::analyze_battery(&sub, &models).cells,
            only(&fixed, &two)
        );
    }
}
