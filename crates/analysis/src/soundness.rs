//! The static/dynamic cross-check: every dynamic leak measurement must
//! fall inside the static bracket, `must ⊆ dynamic ⊆ may`.
//!
//! A violation is a *typed* divergence naming the kernel, scheme, threat
//! model and scheduler — either the simulator failed to produce a leak
//! the rules guarantee (a lost channel: over-aggressive gating, a broken
//! observer) or it produced one the rules forbid (an unsound scheme
//! implementation, an attribution bug). Both directions have caught real
//! regressions in reproductions of this kind; the security judge wires
//! this check into every battery cell.

use crate::interp::StaticLeaks;
use sb_core::{Scheme, ThreatModel};
use std::collections::BTreeSet;
use std::fmt;

/// Which side of the `must ⊆ dynamic ⊆ may` bracket broke.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum SoundnessViolation {
    /// Slots the analysis proves every execution leaks, absent from the
    /// dynamic measurement.
    MustExceedsDynamic {
        /// `must \ dynamic`.
        missing: Vec<usize>,
    },
    /// Dynamically observed slots outside the static over-approximation.
    DynamicExceedsMay {
        /// `dynamic \ may`.
        extra: Vec<usize>,
    },
}

/// One static/dynamic divergence on one battery cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoundnessError {
    /// Kernel (scenario) name.
    pub(crate) kernel: String,
    /// Scheme the cell ran under.
    pub(crate) scheme: Scheme,
    /// Threat model the cell ran under.
    pub(crate) threat_model: ThreatModel,
    /// Scheduler label (`wheel` / `reference`).
    pub(crate) scheduler: &'static str,
    /// The broken containment.
    pub(crate) violation: SoundnessViolation,
}

impl fmt::Display for SoundnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "static/dynamic divergence on {}/{}/{} ({} scheduler): ",
            self.threat_model.label(),
            self.kernel,
            self.scheme,
            self.scheduler
        )?;
        match &self.violation {
            SoundnessViolation::MustExceedsDynamic { missing } => write!(
                f,
                "statically guaranteed slots {missing:?} missing from the dynamic leak set"
            ),
            SoundnessViolation::DynamicExceedsMay { extra } => write!(
                f,
                "dynamic leak slots {extra:?} outside the static may-leak bound"
            ),
        }
    }
}

impl std::error::Error for SoundnessError {}

/// Checks one dynamic measurement against its static bracket. Returns
/// every violated containment (at most one per direction), empty when
/// `must ⊆ dynamic ⊆ may` holds.
#[must_use]
pub fn check_soundness(
    kernel: &str,
    scheme: Scheme,
    threat_model: ThreatModel,
    scheduler: &'static str,
    bounds: &StaticLeaks,
    dynamic: &BTreeSet<usize>,
) -> Vec<SoundnessError> {
    let mut errors = Vec::new();
    let missing: Vec<usize> = bounds.must.difference(dynamic).copied().collect();
    if !missing.is_empty() {
        errors.push(SoundnessError {
            kernel: kernel.to_string(),
            scheme,
            threat_model,
            scheduler,
            violation: SoundnessViolation::MustExceedsDynamic { missing },
        });
    }
    let extra: Vec<usize> = dynamic.difference(&bounds.may).copied().collect();
    if !extra.is_empty() {
        errors.push(SoundnessError {
            kernel: kernel.to_string(),
            scheme,
            threat_model,
            scheduler,
            violation: SoundnessViolation::DynamicExceedsMay { extra },
        });
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds(must: &[usize], may: &[usize]) -> StaticLeaks {
        StaticLeaks {
            must: must.iter().copied().collect(),
            may: may.iter().copied().collect(),
        }
    }

    fn dynamic(slots: &[usize]) -> BTreeSet<usize> {
        slots.iter().copied().collect()
    }

    #[test]
    fn containment_passes_silently() {
        let b = bounds(&[3], &[3, 4, 5]);
        for d in [&[3][..], &[3, 4], &[3, 4, 5]] {
            assert!(check_soundness(
                "k",
                Scheme::Baseline,
                ThreatModel::Spectre,
                "wheel",
                &b,
                &dynamic(d)
            )
            .is_empty());
        }
    }

    #[test]
    fn missing_must_slot_is_a_typed_error_naming_the_cell() {
        let b = bounds(&[3, 4], &[3, 4]);
        let errs = check_soundness(
            "ssb",
            Scheme::SttIssue,
            ThreatModel::Futuristic,
            "reference",
            &b,
            &dynamic(&[3]),
        );
        assert_eq!(errs.len(), 1);
        assert_eq!(
            errs[0].violation,
            SoundnessViolation::MustExceedsDynamic { missing: vec![4] }
        );
        let msg = errs[0].to_string();
        assert!(msg.contains("ssb"), "{msg}");
        assert!(msg.contains("STT-Issue"), "{msg}");
        assert!(msg.contains("futuristic"), "{msg}");
        assert!(msg.contains("reference"), "{msg}");
    }

    #[test]
    fn extra_dynamic_slot_is_a_typed_error() {
        let b = bounds(&[], &[]);
        let errs = check_soundness(
            "spectre-v1",
            Scheme::Nda,
            ThreatModel::Spectre,
            "wheel",
            &b,
            &dynamic(&[9]),
        );
        assert_eq!(errs.len(), 1);
        assert_eq!(
            errs[0].violation,
            SoundnessViolation::DynamicExceedsMay { extra: vec![9] }
        );
        assert!(errs[0].to_string().contains("outside the static may-leak"));
    }

    #[test]
    fn both_directions_can_fail_at_once() {
        let b = bounds(&[1], &[1]);
        let errs = check_soundness(
            "k",
            Scheme::Baseline,
            ThreatModel::Spectre,
            "wheel",
            &b,
            &dynamic(&[2]),
        );
        assert_eq!(errs.len(), 2);
    }
}
