//! Scheme selection and configuration.

use crate::shadows::ThreatModel;
use std::fmt;

/// The secure speculation scheme protecting the core (§7's evaluated list).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Scheme {
    /// The unmodified, Spectre-vulnerable core.
    #[default]
    Baseline,
    /// Speculative Taint Tracking with rename-stage taint computation over
    /// architectural registers (§4.1), including YRoT checkpoints (§4.2).
    SttRename,
    /// Speculative Taint Tracking with issue-stage taint computation over
    /// physical registers (§4.3) — the paper's novel microarchitecture.
    SttIssue,
    /// Non-speculative Data Access, permissive variant, with the split
    /// data-write/broadcast bus (§5).
    Nda,
}

impl Scheme {
    /// All schemes in the paper's presentation order.
    #[must_use]
    pub fn all() -> [Scheme; 4] {
        [
            Scheme::Baseline,
            Scheme::SttRename,
            Scheme::SttIssue,
            Scheme::Nda,
        ]
    }

    /// The three secure schemes (everything but the unsafe baseline).
    #[must_use]
    pub fn secure() -> [Scheme; 3] {
        [Scheme::SttRename, Scheme::SttIssue, Scheme::Nda]
    }

    /// Whether the scheme performs taint tracking (either STT variant).
    #[must_use]
    pub fn is_stt(self) -> bool {
        matches!(self, Scheme::SttRename | Scheme::SttIssue)
    }

    /// Whether the scheme blocks any speculative leakage (i.e. is not the
    /// unsafe baseline).
    #[must_use]
    pub fn is_secure(self) -> bool {
        self != Scheme::Baseline
    }

    /// Whether the core may speculatively wake load dependents on a
    /// predicted L1 hit. NDA removes this logic — its loads cannot benefit
    /// from it, and dropping it improves NDA's timing (§5.1).
    #[must_use]
    pub fn allows_load_hit_speculation(self) -> bool {
        self != Scheme::Nda
    }

    /// Short label used in reports and figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Baseline => "Baseline",
            Scheme::SttRename => "STT-Rename",
            Scheme::SttIssue => "STT-Issue",
            Scheme::Nda => "NDA",
        }
    }

    /// The command-line and sweep-spec name, parsed back by
    /// [`Scheme::from_str`](std::str::FromStr::from_str).
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Scheme::Baseline => "baseline",
            Scheme::SttRename => "stt-rename",
            Scheme::SttIssue => "stt-issue",
            Scheme::Nda => "nda",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Scheme {
    type Err = String;

    /// Parses a [`Scheme::key`]. Unknown names are a hard error.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Scheme::all()
            .into_iter()
            .find(|scheme| scheme.key() == s)
            .ok_or_else(|| {
                format!("unknown scheme '{s}' (expected baseline, stt-rename, stt-issue or nda)")
            })
    }
}

/// Scheme-level knobs, including the ablations §5.1 and §9.2 discuss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchemeConfig {
    /// Which scheme is active.
    pub scheme: Scheme,
    /// §9.2's proposed optimization for STT-Rename: track two taints per
    /// store (address and data operands separately) so address generation
    /// can partially issue even while the data operand is tainted.
    /// STT-Issue effectively has this behaviour by construction.
    pub split_store_taints: bool,
    /// Untaint / delayed-data broadcasts per cycle. `None` models an
    /// idealized (abstract-simulator) unbounded network; RTL fidelity bounds
    /// it by the core's memory width (§4.4, §5.1).
    pub broadcast_bandwidth: Option<usize>,
    /// Which speculation sources are tracked (§6): the paper's evaluated
    /// C+D model, or the Futuristic extension adding M and E shadows.
    pub threat_model: ThreatModel,
}

impl SchemeConfig {
    /// RTL-fidelity configuration for `scheme` on a core with `mem_ports`
    /// memory ports.
    #[must_use]
    pub fn rtl(scheme: Scheme, mem_ports: usize) -> Self {
        SchemeConfig {
            scheme,
            split_store_taints: false,
            broadcast_bandwidth: Some(mem_ports),
            threat_model: ThreatModel::Spectre,
        }
    }

    /// Same configuration under a different threat model (§6's extension).
    #[must_use]
    pub fn with_threat_model(mut self, threat_model: ThreatModel) -> Self {
        self.threat_model = threat_model;
        self
    }

    /// Abstract-simulator (gem5-like) configuration: unbounded broadcast and
    /// split store taints (the idealizations §9.5 attributes to earlier
    /// evaluations).
    #[must_use]
    pub fn abstract_sim(scheme: Scheme) -> Self {
        SchemeConfig {
            scheme,
            split_store_taints: true,
            broadcast_bandwidth: None,
            threat_model: ThreatModel::Spectre,
        }
    }
}

impl Default for SchemeConfig {
    fn default() -> Self {
        SchemeConfig::rtl(Scheme::Baseline, 1)
    }
}

impl fmt::Display for SchemeConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.scheme)?;
        if self.split_store_taints {
            write!(f, "+split-store")?;
        }
        match self.broadcast_bandwidth {
            Some(b) => write!(f, " (bw {b})"),
            None => write!(f, " (bw inf)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_taxonomy() {
        assert!(Scheme::SttRename.is_stt());
        assert!(Scheme::SttIssue.is_stt());
        assert!(!Scheme::Nda.is_stt());
        assert!(!Scheme::Baseline.is_stt());
        assert!(!Scheme::Baseline.is_secure());
        assert!(Scheme::Nda.is_secure());
    }

    #[test]
    fn nda_disables_load_hit_speculation() {
        assert!(Scheme::Baseline.allows_load_hit_speculation());
        assert!(Scheme::SttRename.allows_load_hit_speculation());
        assert!(Scheme::SttIssue.allows_load_hit_speculation());
        assert!(!Scheme::Nda.allows_load_hit_speculation());
    }

    #[test]
    fn all_and_secure_are_consistent() {
        assert_eq!(Scheme::all().len(), 4);
        assert!(Scheme::secure().iter().all(|s| s.is_secure()));
    }

    #[test]
    fn keys_round_trip_and_unknown_names_are_rejected() {
        for scheme in Scheme::all() {
            assert_eq!(scheme.key().parse::<Scheme>(), Ok(scheme));
        }
        let keys: Vec<&str> = Scheme::all().iter().map(|s| s.key()).collect();
        assert_eq!(keys, ["baseline", "stt-rename", "stt-issue", "nda"]);
        let err = "STT-Rename".parse::<Scheme>().unwrap_err();
        assert!(
            err.contains("'STT-Rename'") && err.contains("stt-issue"),
            "{err}"
        );
    }

    #[test]
    fn rtl_config_bounds_broadcast_by_mem_ports() {
        let c = SchemeConfig::rtl(Scheme::Nda, 2);
        assert_eq!(c.broadcast_bandwidth, Some(2));
        assert!(!c.split_store_taints);
    }

    #[test]
    fn abstract_config_is_idealized() {
        let c = SchemeConfig::abstract_sim(Scheme::SttRename);
        assert_eq!(c.broadcast_bandwidth, None);
        assert!(c.split_store_taints);
    }

    #[test]
    fn threat_model_defaults_to_spectre_and_is_overridable() {
        let c = SchemeConfig::rtl(Scheme::SttIssue, 1);
        assert_eq!(c.threat_model, ThreatModel::Spectre);
        let f = c.with_threat_model(ThreatModel::Futuristic);
        assert_eq!(f.threat_model, ThreatModel::Futuristic);
        assert_eq!(f.scheme, Scheme::SttIssue, "other fields preserved");
    }

    #[test]
    fn labels_are_paper_names() {
        assert_eq!(Scheme::SttRename.to_string(), "STT-Rename");
        assert_eq!(Scheme::SttIssue.to_string(), "STT-Issue");
        assert_eq!(Scheme::Nda.to_string(), "NDA");
        assert!(SchemeConfig::abstract_sim(Scheme::Nda)
            .to_string()
            .contains("bw inf"));
    }
}
