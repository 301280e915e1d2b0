//! The claims audit: recomputes every kernel's hand-written claim
//! constants (`expected_slots`, `allowed_slots`, `min_model`) from the
//! static analysis and reports any drift as a typed diff.
//!
//! The battery's claim sets were authored by hand from the paper's rules;
//! the audit turns them from trusted inputs into verified artifacts. A
//! kernel edit that changes what actually leaks now fails loudly instead
//! of silently weakening (or vacuously strengthening) the dynamic judge.

use crate::interp::analyze;
use sb_core::{ShadowKind, ThreatModel};
use sb_workloads::AttackKernel;
use std::fmt;

/// A kernel's claim constants, recomputed from first principles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecomputedClaims {
    /// `must`-leak slots of the unprotected Baseline — what the dynamic
    /// judge requires every Baseline (and out-of-claim secure) run to
    /// cover.
    pub(crate) expected_slots: Vec<usize>,
    /// `may`-leak slots of the Baseline — the bound no run may exceed.
    pub(crate) allowed_slots: Vec<usize>,
    /// The weakest threat model whose secure schemes block the kernel:
    /// `Spectre` iff the static `may` set is empty for every secure
    /// scheme under the Spectre model, else `Futuristic`.
    pub(crate) min_model: ThreatModel,
}

/// Which claim constant drifted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ClaimField {
    /// `AttackKernel::expected_slots` vs. the static must set.
    ExpectedSlots,
    /// `AttackKernel::allowed_slots` vs. the static may set.
    AllowedSlots,
    /// `AttackKernel::min_model` vs. the weakest blocking model.
    MinModel,
}

impl fmt::Display for ClaimField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ClaimField::ExpectedSlots => "expected_slots",
            ClaimField::AllowedSlots => "allowed_slots",
            ClaimField::MinModel => "min_model",
        })
    }
}

/// One hand-written constant diverging from its recomputed value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClaimDrift {
    /// Kernel (scenario) name.
    pub kernel: String,
    /// Which constant drifted.
    pub(crate) field: ClaimField,
    /// The hand-written value, rendered.
    pub(crate) hand_written: String,
    /// The analyzer's value, rendered.
    pub(crate) recomputed: String,
}

impl fmt::Display for ClaimDrift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "claims audit: `{}` {}: hand-written {} != recomputed {}",
            self.kernel, self.field, self.hand_written, self.recomputed
        )
    }
}

impl std::error::Error for ClaimDrift {}

/// Recomputes a kernel's claim constants from the static analysis alone.
///
/// Two walks suffice: the verdict reads only whether a scheme gates
/// (every secure scheme does, identically) and whether the model tracks
/// M-shadows, so the Baseline walk and one secure walk under the Spectre
/// model cover all four schemes.
#[must_use]
pub(crate) fn recompute_claims(kernel: &AttackKernel) -> RecomputedClaims {
    let tracks_m = ThreatModel::Spectre.tracks(ShadowKind::Memory);
    let base = analyze(kernel, false, tracks_m);
    let spectre_blocks = analyze(kernel, true, tracks_m).may.is_empty();
    RecomputedClaims {
        expected_slots: base.must.into_iter().collect(),
        allowed_slots: base.may.into_iter().collect(),
        min_model: if spectre_blocks {
            ThreatModel::Spectre
        } else {
            ThreatModel::Futuristic
        },
    }
}

/// Audits one kernel: recomputes its claims and diffs them against the
/// hand-written constants.
///
/// # Errors
///
/// Returns every [`ClaimDrift`] found (one per drifted field), so a
/// multi-field drift reports completely in one pass.
pub fn audit_kernel(kernel: &AttackKernel) -> Result<RecomputedClaims, Vec<ClaimDrift>> {
    let recomputed = recompute_claims(kernel);
    let mut drifts = Vec::new();
    let name = kernel.trace.name();
    if kernel.expected_slots != recomputed.expected_slots {
        drifts.push(ClaimDrift {
            kernel: name.to_string(),
            field: ClaimField::ExpectedSlots,
            hand_written: format!("{:?}", kernel.expected_slots),
            recomputed: format!("{:?}", recomputed.expected_slots),
        });
    }
    if kernel.allowed_slots != recomputed.allowed_slots {
        drifts.push(ClaimDrift {
            kernel: name.to_string(),
            field: ClaimField::AllowedSlots,
            hand_written: format!("{:?}", kernel.allowed_slots),
            recomputed: format!("{:?}", recomputed.allowed_slots),
        });
    }
    if kernel.min_model != recomputed.min_model {
        drifts.push(ClaimDrift {
            kernel: name.to_string(),
            field: ClaimField::MinModel,
            hand_written: kernel.min_model.label().to_string(),
            recomputed: recomputed.min_model.label().to_string(),
        });
    }
    if drifts.is_empty() {
        Ok(recomputed)
    } else {
        Err(drifts)
    }
}

/// Audits a whole battery, returning every drift across every kernel
/// (empty = all claims verified).
#[must_use]
pub fn audit_battery(kernels: &[AttackKernel]) -> Vec<ClaimDrift> {
    kernels
        .iter()
        .flat_map(|k| audit_kernel(k).err().unwrap_or_default())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_workloads::{attack_battery, fuzz_attacks::fuzz_battery, spectre_v1_kernel};

    #[test]
    fn every_battery_claim_is_reproduced_exactly() {
        let drifts = audit_battery(&attack_battery(11));
        assert!(drifts.is_empty(), "hand-written claims drifted: {drifts:?}");
    }

    #[test]
    fn audit_holds_for_every_battery_secret() {
        // The claims are secret-parametric; the audit must hold across
        // the full encodable range, not just the CI secret.
        for secret in 0..16 {
            let drifts = audit_battery(&attack_battery(secret));
            assert!(drifts.is_empty(), "secret {secret} drifted: {drifts:?}");
        }
    }

    #[test]
    fn fuzzed_variants_audit_clean_too() {
        for seed in [0, 1, 7, 42, 99_999] {
            let drifts = audit_battery(&fuzz_battery(seed));
            assert!(drifts.is_empty(), "seed {seed} drifted: {drifts:?}");
        }
    }

    #[test]
    fn perturbed_expected_slot_is_caught_with_a_diff() {
        let mut k = spectre_v1_kernel(11);
        k.expected_slots = vec![12];
        let drifts = audit_kernel(&k).unwrap_err();
        assert_eq!(drifts.len(), 1, "only expected_slots drifts: {drifts:?}");
        assert_eq!(drifts[0].field, ClaimField::ExpectedSlots);
        let msg = drifts[0].to_string();
        assert!(msg.contains("spectre-v1"), "{msg}");
        assert!(msg.contains("[12]"), "{msg}");
        assert!(msg.contains("[11]"), "{msg}");
    }

    #[test]
    fn perturbed_min_model_is_caught() {
        let mut k = spectre_v1_kernel(11);
        k.min_model = sb_core::ThreatModel::Futuristic;
        let drifts = audit_kernel(&k).unwrap_err();
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].field, ClaimField::MinModel);
        assert!(drifts[0].to_string().contains("futuristic"));
    }

    #[test]
    fn widened_allowed_set_is_caught() {
        let mut k = spectre_v1_kernel(11);
        k.allowed_slots = vec![11, 12];
        let drifts = audit_kernel(&k).unwrap_err();
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].field, ClaimField::AllowedSlots);
    }
}
