//! The `analyze-security` subsystem: the *static* view of the security
//! judge in [`crate::security`]. It judges the same threat-model ×
//! scenario × scheme cells with the same claim rule and renders them
//! through the same matrix renderer, but every cell's evidence comes from
//! the abstract interpreter ([`sb_analysis::analyze_kernel`]) — zero
//! cycles are simulated.
//!
//! Each cell carries the static `must`/`may` leak-slot bracket, judged by
//! the shared claim rule with `must` as the certain and `may` as the
//! possible leak set: a secure scheme on a scenario its threat model
//! claims must have an **empty `may` set**, and the Baseline (or a secure
//! scheme outside the model's claim) a `must` set covering
//! `expected_slots` and a `may` set inside `allowed_slots`. The view adds
//! one check of its own, the analyzer invariant `must ⊆ may`.
//!
//! The battery's *claims audit* ([`sb_analysis::audit_battery`])
//! recomputes every kernel's hand-written claim constants from the rules
//! alone; unlike the dynamic view, this view fails the verdict on any
//! drift, with a field-level diff. `analyze-security --self-check`
//! extends the audit across every encodable secret and a spread of fuzzed
//! attack variants, and `--perturb-claim` deliberately corrupts one
//! kernel's constants to prove the audit trips (the CI negative-path
//! smoke).

use crate::reports::Report;
use crate::security::{
    claim_failures, csv_slots, points, render_matrix, Layout, Verdict, BATTERY_SECRET,
};
use sb_analysis::{analyze_kernel, audit_battery, ClaimDrift, StaticLeaks};
use sb_core::ThreatModel;
use sb_workloads::{attack_battery, fuzz_attacks::fuzz_battery, AttackKernel};

/// Statically analyzes the standard battery (the same kernels and secret
/// `verify-security` simulates) under the requested threat models.
#[cfg(test)]
fn analyze_security(threat_models: &[ThreatModel]) -> Verdict<StaticLeaks> {
    analyze_battery(&attack_battery(BATTERY_SECRET), threat_models)
}

/// Statically analyzes an arbitrary battery: every `(model, kernel,
/// scheme)` point gets a cell judged on its `must`/`may` bracket, and the
/// whole battery one claims audit whose drifts fail the verdict.
#[must_use]
pub fn analyze_battery(
    battery: &[AttackKernel],
    threat_models: &[ThreatModel],
) -> Verdict<StaticLeaks> {
    let (points, drifts) = points(battery, threat_models);
    let cells = points
        .iter()
        .map(|p| {
            let bounds = analyze_kernel(p.kernel, p.scheme, p.threat_model);
            let mut failures = claim_failures(
                p.kernel,
                p.scheme,
                p.threat_model,
                &bounds.must,
                &bounds.may,
            );
            if !bounds.must.is_subset(&bounds.may) {
                failures.push(format!(
                    "analyzer invariant broken: must {:?} ⊄ may {:?}",
                    bounds.must, bounds.may
                ));
            }
            p.cell(failures, bounds)
        })
        .collect();
    Verdict {
        cells,
        drifts,
        job_failures: Vec::new(),
    }
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
/// plus `static_security_matrix.csv`.
#[must_use]
pub fn static_matrix_report(verdict: &Verdict<StaticLeaks>) -> Report {
    render_matrix(
        verdict,
        &Layout {
            heading: format!(
                "Static security analysis: abstract-interpretation leak bounds per \
                 threat model, scenario and scheme (secret {BATTERY_SECRET}; zero \
                 cycles simulated; each cell is the must/may probe-slot bracket \
                 every dynamic measurement must fall inside; secure schemes must \
                 show an empty may set on every scenario the model claims; * marks \
                 a scenario outside the model's claim, where the channel must \
                 still provably transmit)\n"
            ),
            label: |b| format!("{}must/{}may", b.must.len(), b.may.len()),
            csv_name: "static_security_matrix.csv",
            csv_header: "threat_model,scenario,scheme,claimed,must_slots,may_slots,\
                         static_pass,claims_source\n",
            csv_row: |c| {
                format!(
                    "{},{},{},{},{}",
                    c.claimed,
                    csv_slots(&c.evidence.must),
                    csv_slots(&c.evidence.may),
                    c.pass(),
                    c.claims_source()
                )
            },
            verified: "STATICALLY VERIFIED: every hand-written claim reproduced from \
                       the rules; secure schemes provably leak nothing their threat \
                       model claims, with zero simulation.\n",
        },
    )
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
        let failed: Vec<_> = verdict.cells.iter().filter(|c| !c.pass()).collect();
        assert!(verdict.ok(), "static verification failed: {failed:?}");
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
        assert!(verdict.ok());
    }

    #[test]
    fn a_perturbed_claim_fails_the_verdict_with_a_diff() {
        let mut battery = attack_battery(BATTERY_SECRET);
        assert!(perturb_battery_claim(&mut battery, "spectre-v1"));
        let verdict = analyze_battery(&battery, &[ThreatModel::Spectre]);
        assert!(!verdict.ok());
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
            .any(|c| c.scenario == "spectre-v1" && !c.pass()));
    }

    #[test]
    fn perturbing_an_unknown_scenario_is_reported() {
        let mut battery = attack_battery(BATTERY_SECRET);
        assert!(!perturb_battery_claim(&mut battery, "meltdown"));
        assert!(analyze_battery(&battery, &[ThreatModel::Spectre]).ok());
    }

    #[test]
    fn the_extended_audit_sweeps_secrets_and_fuzz_seeds_clean() {
        let audit = extended_claims_audit();
        assert_eq!(audit.batteries_checked, 24, "16 secrets + 8 fuzz seeds");
        assert!(audit.drifts.is_empty(), "{:?}", audit.drifts);
    }
}
