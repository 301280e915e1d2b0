//! Critical-path model: baseline pipeline period plus per-scheme stage
//! additions (Figure 9's substitute).
//!
//! The baseline period is a polynomial in core width and ROB size fitted to
//! the paper's achieved BOOM frequencies (Small ≈ 160 MHz down to Mega ≈
//! 81 MHz on the U250). Pipeline stages are assumed balanced, so a scheme's
//! added stage delay extends the period once it exceeds the stage's
//! headroom:
//!
//! * **STT-Rename** adds the same-cycle YRoT chain to the rename stage:
//!   `w` serial comparator steps whose per-step fan-in and wire span grow
//!   with width — calibrated as `0.05·w + 0.065·w³` ns against Figure 9's
//!   measured cliff at the 4-wide Mega (§8.3: "only 80% frequency").
//! * **STT-Issue** adds a flat taint-unit lookup plus a comparator tree
//!   over physical-register tags to the issue stage: logarithmic in the
//!   PRF size — the paper's "higher flat cost, better scaling" (§4.4).
//! * **NDA** *removes* the speculative load-hit broadcast mux from the LSU
//!   stage, achieving the same or slightly better frequency (§8.3).

use sb_core::Scheme;
use sb_uarch::CoreConfig;

/// Calibrated constants (ns). See the module docs: shape is structural,
/// values are fitted to Figure 9.
const BASE_FIXED: f64 = 4.8;
const BASE_PER_WIDTH: f64 = 0.8;
const BASE_PER_ROB: f64 = 1.0 / 64.0;
const BASE_WIDTH_SQ: f64 = 0.15;

const RENAME_CHAIN_LINEAR: f64 = 0.05;
const RENAME_CHAIN_CUBIC: f64 = 0.065;
const RENAME_HEADROOM: f64 = 1.37;

const ISSUE_FLAT: f64 = 0.06;
const ISSUE_PER_LOG_PREG: f64 = 1.77;
const ISSUE_HEADROOM: f64 = 0.79;

const NDA_LSU_GAIN: f64 = 0.15;

/// Per-stage delay decomposition for one (config, scheme) design point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct TimingBreakdown {
    /// Balanced baseline stage period (ns).
    pub(crate) base_period: f64,
    /// Extra delay the scheme adds to its critical stage (ns; negative for
    /// NDA's removed logic).
    pub(crate) scheme_delta: f64,
}

impl TimingBreakdown {
    /// Achievable clock period (ns).
    #[must_use]
    pub(crate) fn period_ns(&self) -> f64 {
        self.base_period + self.scheme_delta
    }
}

/// The same-cycle YRoT chain delay for a `width`-wide rename group (§4.1):
/// `width` serial steps, each with fan-in and wiring that grow with width.
fn rename_chain_ns(width: usize) -> f64 {
    let w = width as f64;
    RENAME_CHAIN_LINEAR * w + RENAME_CHAIN_CUBIC * w * w * w
}

/// The issue-stage taint-unit delay (§4.3): flat lookup plus a comparator
/// tree logarithmic in the number of physical registers.
fn issue_taint_ns(phys_regs: usize) -> f64 {
    ISSUE_FLAT + (ISSUE_PER_LOG_PREG * ((phys_regs as f64).log2() - 6.0) - ISSUE_HEADROOM).max(0.0)
}

/// Timing breakdown for a design point.
#[must_use]
pub(crate) fn breakdown(config: &CoreConfig, scheme: Scheme) -> TimingBreakdown {
    let w = config.width as f64;
    let base_period = BASE_FIXED
        + BASE_PER_WIDTH * w
        + BASE_PER_ROB * config.rob_entries as f64
        + BASE_WIDTH_SQ * w * w;
    let scheme_delta = match scheme {
        Scheme::Baseline => 0.0,
        Scheme::SttRename => (rename_chain_ns(config.width) - RENAME_HEADROOM).max(0.0),
        Scheme::SttIssue => issue_taint_ns(config.phys_regs),
        Scheme::Nda => -NDA_LSU_GAIN,
    };
    TimingBreakdown {
        base_period,
        scheme_delta,
    }
}

/// Achievable clock period in nanoseconds.
#[must_use]
pub(crate) fn period_ns(config: &CoreConfig, scheme: Scheme) -> f64 {
    breakdown(config, scheme).period_ns()
}

/// Achievable frequency in MHz (Figure 9's axis).
#[must_use]
pub fn frequency_mhz(config: &CoreConfig, scheme: Scheme) -> f64 {
    1000.0 / period_ns(config, scheme)
}

/// Frequency relative to the unsafe baseline on the same configuration
/// (Figure 10's axis).
#[must_use]
pub fn relative_timing(config: &CoreConfig, scheme: Scheme) -> f64 {
    frequency_mhz(config, scheme) / frequency_mhz(config, Scheme::Baseline)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfgs() -> [CoreConfig; 4] {
        CoreConfig::boom_sweep()
    }

    #[test]
    fn baseline_frequencies_match_figure9_anchors() {
        let [s, m, l, g] = cfgs();
        let f = |c: &CoreConfig| frequency_mhz(c, Scheme::Baseline);
        assert!((f(&s) - 160.0).abs() < 8.0, "small {:.1}", f(&s));
        assert!((f(&m) - 125.0).abs() < 8.0, "medium {:.1}", f(&m));
        assert!((f(&l) - 98.0).abs() < 8.0, "large {:.1}", f(&l));
        assert!((f(&g) - 81.0).abs() < 6.0, "mega {:.1}", f(&g));
    }

    #[test]
    fn stt_rename_hits_80_percent_at_mega() {
        let g = CoreConfig::mega();
        let rel = relative_timing(&g, Scheme::SttRename);
        assert!(
            (rel - 0.80).abs() < 0.03,
            "§8.3: Mega STT-Rename ≈ 80%, got {rel:.3}"
        );
    }

    #[test]
    fn stt_rename_is_cheap_for_narrow_cores() {
        let [s, m, ..] = cfgs();
        assert!(relative_timing(&s, Scheme::SttRename) > 0.97);
        assert!(relative_timing(&m, Scheme::SttRename) > 0.97);
    }

    #[test]
    fn stt_issue_flat_cost_but_better_scaling() {
        let [s, _, _, g] = cfgs();
        // Worse than STT-Rename on the smallest core (flat cost)...
        assert!(relative_timing(&s, Scheme::SttIssue) <= relative_timing(&s, Scheme::SttRename),);
        // ...but clearly better on the widest (no chain).
        assert!(
            relative_timing(&g, Scheme::SttIssue) > relative_timing(&g, Scheme::SttRename) + 0.04,
        );
        let rel = relative_timing(&g, Scheme::SttIssue);
        assert!(
            (rel - 0.87).abs() < 0.03,
            "Mega STT-Issue ≈ 0.86-0.87, got {rel:.3}"
        );
    }

    #[test]
    fn nda_matches_or_beats_baseline_everywhere() {
        for c in cfgs() {
            let rel = relative_timing(&c, Scheme::Nda);
            assert!(
                rel >= 1.0,
                "{}: NDA {rel:.3} must not lose frequency",
                c.name
            );
            assert!(rel < 1.06, "{}: NDA gain should be modest", c.name);
        }
    }

    #[test]
    fn rename_timing_degrades_monotonically_with_width() {
        let rels: Vec<f64> = cfgs()
            .iter()
            .map(|c| relative_timing(c, Scheme::SttRename))
            .collect();
        for w in rels.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "wider must not improve: {rels:?}");
        }
    }

    #[test]
    fn chain_delay_is_superlinear() {
        let d2 = rename_chain_ns(2) - rename_chain_ns(1);
        let d4 = rename_chain_ns(4) - rename_chain_ns(3);
        assert!(d4 > d2, "each extra rename lane costs more than the last");
    }

    #[test]
    fn periods_are_positive_and_consistent() {
        for c in cfgs() {
            for s in Scheme::all() {
                let p = period_ns(&c, s);
                assert!(p > 1.0 && p < 30.0, "{} {s}: period {p}", c.name);
                assert!((frequency_mhz(&c, s) - 1000.0 / p).abs() < 1e-9);
            }
        }
    }
}
