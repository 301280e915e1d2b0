//! The `analyze-security` subsystem: the purely *static* counterpart of
//! [`crate::security`]. It renders the same threat-model × scenario ×
//! scheme matrix, but every cell comes from the abstract interpreter
//! ([`sb_analysis::analyze_kernel`]) — zero cycles are simulated.
//!
//! Each cell carries the static `must`/`may` leak-slot bracket and a
//! verdict mirroring the dynamic judge's rules:
//!
//! * a secure scheme on a scenario its threat model claims must have an
//!   **empty `may` set** (nothing can leak);
//! * the Baseline — and a secure scheme on a scenario outside the model's
//!   claim — must have a `must` set covering the kernel's documented
//!   signature (`expected_slots`) and a `may` set inside its documented
//!   secret address set (`allowed_slots`).
//!
//! On top of the matrix, the *claims audit*
//! ([`sb_analysis::audit_battery`]) recomputes every kernel's hand-written
//! claim constants from the rules alone; any drift fails the verdict with
//! a field-level diff. `analyze-security --self-check` extends the audit
//! across every encodable secret and a spread of fuzzed attack variants,
//! and `--perturb-claim` deliberately corrupts one kernel's constants to
//! prove the audit trips (the CI negative-path smoke).

use crate::render::format_table;
use crate::reports::Report;
use crate::security::BATTERY_SECRET;
use sb_analysis::{analyze_kernel, audit_battery, ClaimDrift, StaticLeaks};
use sb_core::{Scheme, ThreatModel};
use sb_workloads::{attack_battery, fuzz_attacks::fuzz_battery, AttackKernel};
use std::fmt::Write as _;

/// The static verdict for one `(threat model, scenario, scheme)` cell.
#[derive(Clone, Debug)]
pub(crate) struct StaticCell {
    /// Kernel name (`spectre-v1`, `ssb`, ...).
    pub(crate) scenario: String,
    /// Scheme under analysis.
    pub(crate) scheme: Scheme,
    /// Threat model the cell was analyzed under.
    pub(crate) threat_model: ThreatModel,
    /// Whether `threat_model`'s protection claim covers the scenario.
    pub(crate) claimed: bool,
    /// The static `must ⊆ dynamic ⊆ may` bracket.
    pub(crate) bounds: StaticLeaks,
    /// Whether the claims audit reproduced this kernel's constants.
    pub(crate) claims_verified: bool,
    /// Whether the cell satisfies the (static) security property.
    pub(crate) pass: bool,
    /// Human-readable failure explanations (empty when `pass`).
    pub(crate) failures: Vec<String>,
}

/// The full static matrix plus the battery-wide claims audit.
#[derive(Clone, Debug)]
pub struct StaticVerdict {
    /// One cell per point, threat-model-major then battery-major.
    pub(crate) cells: Vec<StaticCell>,
    /// Claim constants the audit could not reproduce (empty = verified).
    pub(crate) drifts: Vec<ClaimDrift>,
    /// Whether every cell passes and the audit found no drift.
    pub ok: bool,
}

/// Statically analyzes the standard battery (the same kernels and secret
/// `verify-security` simulates) under the requested threat models.
#[cfg(test)]
fn analyze_security(threat_models: &[ThreatModel]) -> StaticVerdict {
    analyze_battery(&attack_battery(BATTERY_SECRET), threat_models)
}

/// Statically analyzes an arbitrary battery: every `(model, kernel,
/// scheme)` point gets a `StaticCell`, and the whole battery one claims
/// audit.
#[must_use]
pub fn analyze_battery(battery: &[AttackKernel], threat_models: &[ThreatModel]) -> StaticVerdict {
    let drifts = audit_battery(battery);
    let mut cells = Vec::new();
    for &model in threat_models {
        for kernel in battery {
            let name = kernel.trace.name();
            let claims_verified = !drifts.iter().any(|d| d.kernel == name);
            for scheme in Scheme::all() {
                let bounds = analyze_kernel(kernel, scheme, model);
                let claimed = kernel.claimed_under(model);
                let mut failures = Vec::new();
                if !bounds.must.is_subset(&bounds.may) {
                    failures.push(format!(
                        "analyzer invariant broken: must {:?} ⊄ may {:?}",
                        bounds.must, bounds.may
                    ));
                }
                if scheme.is_secure() && claimed {
                    if !bounds.may.is_empty() {
                        failures.push(format!(
                            "secure scheme may leak slots {:?} under its claimed \
                             {model} model",
                            bounds.may
                        ));
                    }
                } else {
                    let who = if scheme.is_secure() {
                        "out-of-claim scheme"
                    } else {
                        "baseline"
                    };
                    for &slot in &kernel.expected_slots {
                        if !bounds.must.contains(&slot) {
                            failures.push(format!(
                                "{who}: expected slot {slot} is not statically \
                                 guaranteed to leak (must = {:?})",
                                bounds.must
                            ));
                        }
                    }
                    for &slot in &bounds.may {
                        if !kernel.allowed_slots.contains(&slot) {
                            failures.push(format!(
                                "{who}: may-leak slot {slot} escapes the documented \
                                 secret address set {:?}",
                                kernel.allowed_slots
                            ));
                        }
                    }
                }
                cells.push(StaticCell {
                    scenario: name.to_string(),
                    scheme,
                    threat_model: model,
                    claimed,
                    pass: failures.is_empty(),
                    bounds,
                    claims_verified,
                    failures,
                });
            }
        }
    }
    let ok = drifts.is_empty() && cells.iter().all(|c| c.pass);
    StaticVerdict { cells, drifts, ok }
}

/// Deliberately corrupts one kernel's `expected_slots` so the claims
/// audit must trip — the CI negative-path smoke behind
/// `analyze-security --perturb-claim`. Returns `false` when no kernel of
/// the battery carries the scenario name.
pub fn perturb_battery_claim(battery: &mut [AttackKernel], scenario: &str) -> bool {
    let Some(kernel) = battery.iter_mut().find(|k| k.trace.name() == scenario) else {
        return false;
    };
    // Shift the signature one slot: still plausible-looking, never equal
    // to what the analyzer derives (slot arithmetic is exact).
    for slot in &mut kernel.expected_slots {
        *slot = (*slot + 1) % kernel.channel.entries;
    }
    true
}

/// The result of the extended claims audit behind `--self-check`.
#[derive(Clone, Debug)]
pub struct ExtendedAudit {
    /// Batteries audited (one per secret plus one per fuzz seed).
    pub batteries_checked: usize,
    /// Every drift found across all of them.
    pub drifts: Vec<ClaimDrift>,
}

/// Audits the claim constants well beyond the CI secret: every encodable
/// secret of the standard battery (the channels hold 16 slots) plus a
/// spread of fuzzed attack variants from the property-test generator.
#[must_use]
pub fn extended_claims_audit() -> ExtendedAudit {
    let mut drifts = Vec::new();
    let mut batteries_checked = 0;
    for secret in 0..16 {
        drifts.extend(audit_battery(&attack_battery(secret)));
        batteries_checked += 1;
    }
    for seed in 0..8u64 {
        drifts.extend(audit_battery(&fuzz_battery(seed)));
        batteries_checked += 1;
    }
    ExtendedAudit {
        batteries_checked,
        drifts,
    }
}

/// Renders the static verdict as one must/may matrix per threat model
/// plus a combined CSV (`static_security_matrix.csv`), symmetric to
/// [`crate::security::security_matrix_report`].
#[must_use]
pub fn static_matrix_report(verdict: &StaticVerdict) -> Report {
    let mut csv = String::from(
        "threat_model,scenario,scheme,claimed,must_slots,may_slots,\
         static_pass,claims_source\n",
    );
    let mut failures = Vec::new();
    let mut text = format!(
        "Static security analysis: abstract-interpretation leak bounds per \
         threat model, scenario and scheme (secret {BATTERY_SECRET}; zero \
         cycles simulated; each cell is the must/may probe-slot bracket \
         every dynamic measurement must fall inside; secure schemes must \
         show an empty may set on every scenario the model claims; * marks \
         a scenario outside the model's claim, where the channel must \
         still provably transmit)\n"
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
    let fmt_slots = |slots: &std::collections::BTreeSet<usize>| {
        slots
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("|")
    };
    for model in models {
        let model_cells: Vec<&StaticCell> = verdict
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
                let cell = model_cells
                    .iter()
                    .find(|c| &c.scenario == scenario && c.scheme == scheme)
                    .expect("analysis cannot lose cells");
                row.push(format!(
                    "{}must/{}may{} {}",
                    cell.bounds.must.len(),
                    cell.bounds.may.len(),
                    if cell.claimed { "" } else { "*" },
                    if cell.pass { "ok" } else { "FAIL" }
                ));
                csv.push_str(&format!(
                    "{model},{scenario},{scheme},{},{},{},{},{}\n",
                    cell.claimed,
                    fmt_slots(&cell.bounds.must),
                    fmt_slots(&cell.bounds.may),
                    cell.pass,
                    if cell.claims_verified {
                        "static"
                    } else {
                        "hand-written"
                    }
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
    failures.extend(verdict.drifts.iter().map(|d| format!("  {d}")));
    if verdict.ok {
        text.push_str(
            "STATICALLY VERIFIED: every hand-written claim reproduced from \
             the rules; secure schemes provably leak nothing their threat \
             model claims, with zero simulation.\n",
        );
    } else {
        let _ = write!(text, "FAILED:\n{}\n", failures.join("\n"));
    }
    Report {
        text,
        csv: vec![("static_security_matrix.csv".into(), csv)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_full_static_matrix_verifies_with_zero_simulation() {
        let verdict = analyze_security(&ThreatModel::all());
        assert_eq!(
            verdict.cells.len(),
            88,
            "2 models x 11 scenarios x 4 schemes"
        );
        assert!(verdict.drifts.is_empty(), "{:?}", verdict.drifts);
        let failed: Vec<&StaticCell> = verdict.cells.iter().filter(|c| !c.pass).collect();
        assert!(verdict.ok, "static verification failed: {failed:?}");
        assert!(verdict.cells.iter().all(|c| c.claims_verified));
    }

    #[test]
    fn report_is_symmetric_to_the_dynamic_matrix() {
        let verdict = analyze_security(&ThreatModel::all());
        let report = static_matrix_report(&verdict);
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
            assert!(report.text.contains(name), "missing {name}");
        }
        assert!(report.text.contains("[spectre]"));
        assert!(report.text.contains("[futuristic]"));
        assert!(report.text.contains('*'), "out-of-claim marker");
        assert!(report.text.contains("STATICALLY VERIFIED"));
        assert_eq!(report.csv[0].0, "static_security_matrix.csv");
        let mut lines = report.csv[0].1.lines();
        assert!(lines.next().unwrap().ends_with("static_pass,claims_source"));
        assert_eq!(report.csv[0].1.lines().count(), 89, "header + 88 cells");
        assert!(report.csv[0]
            .1
            .lines()
            .skip(1)
            .all(|l| l.ends_with(",static")));
    }

    #[test]
    fn single_model_matrix_is_half_the_grid() {
        let verdict = analyze_security(&[ThreatModel::Spectre]);
        assert_eq!(verdict.cells.len(), 44);
        assert!(verdict.ok);
    }

    #[test]
    fn a_perturbed_claim_fails_the_verdict_with_a_diff() {
        let mut battery = attack_battery(BATTERY_SECRET);
        assert!(perturb_battery_claim(&mut battery, "spectre-v1"));
        let verdict = analyze_battery(&battery, &[ThreatModel::Spectre]);
        assert!(!verdict.ok);
        assert!(!verdict.drifts.is_empty());
        // The perturbed kernel's cells are flagged, everyone else's stay
        // verified.
        for cell in &verdict.cells {
            assert_eq!(cell.claims_verified, cell.scenario != "spectre-v1");
        }
        let report = static_matrix_report(&verdict);
        assert!(report.text.contains("FAILED"));
        assert!(report.text.contains("claims audit"), "{}", report.text);
        assert!(report.csv[0].1.contains(",hand-written"));
        // The shifted signature also breaks the baseline's must-coverage.
        assert!(verdict
            .cells
            .iter()
            .any(|c| c.scenario == "spectre-v1" && !c.pass));
    }

    #[test]
    fn perturbing_an_unknown_scenario_is_reported() {
        let mut battery = attack_battery(BATTERY_SECRET);
        assert!(!perturb_battery_claim(&mut battery, "meltdown"));
        assert!(analyze_battery(&battery, &[ThreatModel::Spectre]).ok);
    }

    #[test]
    fn the_extended_audit_sweeps_secrets_and_fuzz_seeds_clean() {
        let audit = extended_claims_audit();
        assert_eq!(audit.batteries_checked, 24, "16 secrets + 8 fuzz seeds");
        assert!(audit.drifts.is_empty(), "{:?}", audit.drifts);
    }
}
