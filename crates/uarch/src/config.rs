//! Core configurations: the paper's four BOOM design points (Table 1) plus
//! the gem5-like configurations of §8.6, and the fidelity knob of §9.5.

use sb_core::{Scheme, SchemeConfig};
use sb_mem::HierarchyConfig;
use std::fmt;

/// Modelling fidelity.
///
/// §9.5 attributes the gap between the paper's RTL results and earlier gem5
/// evaluations to idealizations in abstract simulators. We reproduce both
/// sides with one simulator and this knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// RTL-equivalent constraints: 4-cycle L1, broadcast bandwidth bounded
    /// by memory ports, unified store micro-ops (partial-issue blocking),
    /// bounded branch tags.
    #[default]
    Rtl,
    /// Abstract-simulator (gem5-like) idealizations: single-cycle L1,
    /// unbounded broadcast, split store taints, effectively unbounded branch
    /// tags.
    Abstract,
}

/// Which wakeup/select implementation the simulator runs.
///
/// Both produce cycle-for-cycle identical [`sb_stats::SimStats`]; the
/// reference path exists as the oracle for the event wheel's golden-stats
/// regression tests and as the baseline for its throughput benches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// Event-driven scheduler: ready queue + waiter lists + calendar
    /// queue; per-cycle work proportional to events, not ROB occupancy.
    #[default]
    EventWheel,
    /// The straightforward scheduler: full-ROB scan every cycle.
    Reference,
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SchedulerKind::EventWheel => "event-wheel",
            SchedulerKind::Reference => "reference",
        })
    }
}

/// Bumped whenever a simulator change alters `SimStats` for *any*
/// (configuration, trace) pair, so persisted result caches keyed through
/// [`CoreConfig::fingerprint`] invalidate instead of serving statistics an
/// older simulator produced. (The golden-stats differential suite catches
/// unintended behavior changes; intended ones must bump this.)
///
/// Revision history: 1 = initial; 2 = modelled frontend predictor (the
/// predictor-off path is bit-identical to revision 1, but the fingerprint
/// space grew new result-determining fields).
pub const SIM_RESULTS_REVISION: u64 = 2;

/// Modelled frontend branch predictor parameters (gshare + tagged BTB +
/// global history register — see `crate::predictor`).
///
/// Disabled by default: the trace's pre-resolved `mispredicted` bit drives
/// the frontend and all statistics stay bit-identical to a predictor-less
/// simulator. Enabled, the core predicts each correct-path branch at fetch
/// time from predictor state and *derives* the mispredict decision by
/// comparing against the trace's actual outcome; the static bit becomes
/// ground truth for training only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PredictorConfig {
    /// Whether the modelled predictor drives mispredict decisions.
    pub(crate) enabled: bool,
    /// Pattern history table entries (2-bit counters); power of two.
    pub(crate) pht_entries: usize,
    /// Branch target buffer entries (direct-mapped, tagged); power of two.
    pub(crate) btb_entries: usize,
    /// Global history bits folded into the gshare index (0 = pure
    /// per-pc bimodal indexing); at most 32.
    pub(crate) ghr_bits: u32,
}

impl PredictorConfig {
    /// The predictor switched off — trace bits drive the frontend.
    #[must_use]
    pub fn disabled() -> Self {
        PredictorConfig {
            enabled: false,
            pht_entries: 64,
            btb_entries: 16,
            ghr_bits: 0,
        }
    }

    /// A small enabled predictor with the given geometry.
    #[must_use]
    pub fn enabled(pht_entries: usize, btb_entries: usize, ghr_bits: u32) -> Self {
        PredictorConfig {
            enabled: true,
            pht_entries,
            btb_entries,
            ghr_bits,
        }
    }
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig::disabled()
    }
}

/// A core design point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Display name (e.g. `mega`).
    pub name: &'static str,
    /// Fetch/decode/rename/commit width (Table 1 "Core Width").
    pub width: usize,
    /// Loads + store-address issues per cycle (Table 1 "Memory Ports");
    /// also the secure schemes' broadcast bandwidth in RTL fidelity.
    pub mem_ports: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Issue-queue entries (in-flight, not-yet-issued micro-ops).
    pub iq_entries: usize,
    /// Load-queue entries.
    pub lq_entries: usize,
    /// Store-queue entries.
    pub sq_entries: usize,
    /// Physical registers (shared int+fp pool in this model).
    pub phys_regs: usize,
    /// Branch checkpoints (branch tags); rename stalls when exhausted.
    pub max_br_tags: usize,
    /// Front-end refill penalty after a redirect (mispredict or flush).
    pub(crate) redirect_penalty: u32,
    /// Cycles between dispatch and earliest issue (decode/rename/dispatch
    /// pipeline depth). This sets the minimum lifetime of a speculation
    /// shadow, which is what makes delayed-broadcast (NDA) and taint
    /// gating (STT) expensive on real pipelines.
    pub(crate) dispatch_latency: u32,
    /// Memory hierarchy parameters.
    pub hierarchy: HierarchyConfig,
    /// Modelling fidelity.
    pub fidelity: Fidelity,
    /// Wakeup/select implementation (performance of the *simulator*, not
    /// the simulated core; statistics are identical between kinds).
    pub scheduler: SchedulerKind,
    /// Modelled frontend branch predictor (disabled in every preset; the
    /// security battery's v2 kernels switch it on per-scenario).
    pub predictor: PredictorConfig,
}

impl CoreConfig {
    /// Table 1 "Small": 1-wide, 1 memory port, 32-entry ROB.
    #[must_use]
    pub fn small() -> Self {
        CoreConfig {
            name: "small",
            width: 1,
            mem_ports: 1,
            rob_entries: 32,
            iq_entries: 8,
            lq_entries: 8,
            sq_entries: 8,
            phys_regs: 80,
            max_br_tags: 6,
            redirect_penalty: 5,
            dispatch_latency: 3,
            hierarchy: HierarchyConfig::rtl_default(),
            fidelity: Fidelity::Rtl,
            scheduler: SchedulerKind::EventWheel,
            predictor: PredictorConfig::disabled(),
        }
    }

    /// Table 1 "Medium": 2-wide, 1 memory port, 64-entry ROB.
    #[must_use]
    pub fn medium() -> Self {
        CoreConfig {
            name: "medium",
            width: 2,
            mem_ports: 1,
            rob_entries: 64,
            iq_entries: 16,
            lq_entries: 16,
            sq_entries: 16,
            phys_regs: 112,
            max_br_tags: 8,
            redirect_penalty: 6,
            dispatch_latency: 3,
            hierarchy: HierarchyConfig::rtl_default(),
            fidelity: Fidelity::Rtl,
            scheduler: SchedulerKind::EventWheel,
            predictor: PredictorConfig::disabled(),
        }
    }

    /// Table 1 "Large": 3-wide, 1 memory port, 96-entry ROB.
    #[must_use]
    pub fn large() -> Self {
        CoreConfig {
            name: "large",
            width: 3,
            mem_ports: 1,
            rob_entries: 96,
            iq_entries: 24,
            lq_entries: 24,
            sq_entries: 24,
            phys_regs: 144,
            max_br_tags: 12,
            redirect_penalty: 7,
            dispatch_latency: 3,
            hierarchy: HierarchyConfig::rtl_default(),
            fidelity: Fidelity::Rtl,
            scheduler: SchedulerKind::EventWheel,
            predictor: PredictorConfig::disabled(),
        }
    }

    /// Table 1 "Mega": 4-wide, 2 memory ports, 128-entry ROB — the paper's
    /// default reporting configuration.
    #[must_use]
    pub fn mega() -> Self {
        CoreConfig {
            name: "mega",
            width: 4,
            mem_ports: 2,
            rob_entries: 128,
            iq_entries: 32,
            lq_entries: 32,
            sq_entries: 32,
            phys_regs: 176,
            max_br_tags: 16,
            redirect_penalty: 7,
            dispatch_latency: 3,
            hierarchy: HierarchyConfig::rtl_default(),
            fidelity: Fidelity::Rtl,
            scheduler: SchedulerKind::EventWheel,
            predictor: PredictorConfig::disabled(),
        }
    }

    /// The four Table 1 configurations, narrowest first.
    #[must_use]
    pub fn boom_sweep() -> [CoreConfig; 4] {
        [
            CoreConfig::small(),
            CoreConfig::medium(),
            CoreConfig::large(),
            CoreConfig::mega(),
        ]
    }

    /// The gem5-like configuration the original STT evaluation used (§8.6):
    /// a wide, idealized core whose baseline IPC lands near Mega's. Abstract
    /// fidelity also means a shallow (1-cycle dispatch) pipeline, the
    /// single-cycle L1 of §9.5, and unbounded broadcast.
    #[must_use]
    pub fn gem5_stt() -> Self {
        CoreConfig {
            name: "gem5-stt",
            width: 5,
            mem_ports: 2,
            rob_entries: 180,
            iq_entries: 40,
            lq_entries: 48,
            sq_entries: 40,
            phys_regs: 220,
            max_br_tags: 64,
            redirect_penalty: 5,
            dispatch_latency: 1,
            hierarchy: HierarchyConfig::abstract_default(),
            fidelity: Fidelity::Abstract,
            scheduler: SchedulerKind::EventWheel,
            predictor: PredictorConfig::disabled(),
        }
    }

    /// The gem5-like configuration the original NDA evaluation used (§8.6):
    /// baseline IPC between the Medium and Large BOOM points.
    #[must_use]
    pub fn gem5_nda() -> Self {
        CoreConfig {
            name: "gem5-nda",
            width: 3,
            mem_ports: 1,
            rob_entries: 96,
            iq_entries: 24,
            lq_entries: 24,
            sq_entries: 24,
            phys_regs: 144,
            max_br_tags: 48,
            redirect_penalty: 5,
            dispatch_latency: 1,
            hierarchy: HierarchyConfig::abstract_default(),
            fidelity: Fidelity::Abstract,
            scheduler: SchedulerKind::EventWheel,
            predictor: PredictorConfig::disabled(),
        }
    }

    /// The scheme configuration a core of this fidelity runs `scheme`
    /// with (Spectre threat model): broadcast bandwidth bounded by the
    /// memory ports at RTL fidelity, the abstract simulator's
    /// idealizations otherwise.
    #[must_use]
    pub fn scheme_config(&self, scheme: Scheme) -> SchemeConfig {
        match self.fidelity {
            Fidelity::Rtl => SchemeConfig::rtl(scheme, self.mem_ports),
            Fidelity::Abstract => SchemeConfig::abstract_sim(scheme),
        }
    }

    /// A stable fingerprint of everything in the configuration that
    /// determines simulation *results* — every pipeline resource, latency
    /// and the full memory-hierarchy geometry, plus [`SIM_RESULTS_REVISION`]
    /// — so a persisted result store (`sb-experiments`' stats cache) keyed
    /// by it can never serve statistics produced under different
    /// parameters or by an older simulator.
    ///
    /// [`CoreConfig::scheduler`] is deliberately *excluded*: both
    /// schedulers produce bit-identical `SimStats` (proven by the
    /// golden-stats differential suite), so memoized results are valid
    /// across them by construction.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        use sb_isa::fnv::{fold, hash_str};
        let mut h = fold(hash_str(self.name), SIM_RESULTS_REVISION);
        for v in [
            self.width as u64,
            self.mem_ports as u64,
            self.rob_entries as u64,
            self.iq_entries as u64,
            self.lq_entries as u64,
            self.sq_entries as u64,
            self.phys_regs as u64,
            self.max_br_tags as u64,
            u64::from(self.redirect_penalty),
            u64::from(self.dispatch_latency),
            match self.fidelity {
                Fidelity::Rtl => 1,
                Fidelity::Abstract => 2,
            },
            u64::from(self.predictor.enabled),
            self.predictor.pht_entries as u64,
            self.predictor.btb_entries as u64,
            u64::from(self.predictor.ghr_bits),
        ] {
            h = fold(h, v);
        }
        for cache in [&self.hierarchy.l1d, &self.hierarchy.l2] {
            h = fold(h, cache.sets as u64);
            h = fold(h, cache.ways as u64);
            h = fold(h, cache.line_bytes as u64);
            h = fold(h, u64::from(cache.latency));
        }
        h = fold(h, u64::from(self.hierarchy.dram_latency));
        h = fold(h, self.hierarchy.l1_prefetch_degree as u64);
        h = fold(h, self.hierarchy.l2_prefetch_degree as u64);
        h
    }

    /// The one validity rule for a configuration: every resource the
    /// pipeline sizes from it is usable, and the cache and predictor
    /// geometries can be indexed by mask.
    ///
    /// # Errors
    ///
    /// `ConfigError` naming the first violated constraint: a zero-sized
    /// resource, a ROB narrower than one rename group, too few physical
    /// registers to rename a full group past the architectural state, a
    /// cache with a non-power-of-two set count or line size or no ways, or
    /// an enabled predictor with non-power-of-two tables or a GHR wider
    /// than 32 bits.
    pub fn check(&self) -> Result<(), ConfigError> {
        macro_rules! ensure {
            ($holds:expr, $($why:tt)+) => {
                if !$holds {
                    return Err(ConfigError(format!($($why)+)));
                }
            };
        }
        ensure!(self.width > 0, "width must be positive");
        ensure!(self.mem_ports > 0, "need at least one memory port");
        ensure!(
            self.rob_entries >= self.width,
            "ROB must fit one full rename group (rob >= width)"
        );
        ensure!(
            self.iq_entries > 0 && self.lq_entries > 0 && self.sq_entries > 0,
            "issue/load/store queues must be non-empty"
        );
        ensure!(
            self.phys_regs >= sb_isa::NUM_ARCH_REGS + self.width,
            "physical registers must cover architectural state plus rename headroom"
        );
        ensure!(self.max_br_tags > 0, "need at least one branch tag");
        for (label, cache) in [("l1", &self.hierarchy.l1d), ("l2", &self.hierarchy.l2)] {
            let (sets, line) = (cache.sets, cache.line_bytes);
            ensure!(
                sets.is_power_of_two(),
                "{label} sets must be a power of two, got {sets}"
            );
            ensure!(
                line.is_power_of_two(),
                "{label} line size must be a power of two, got {line}"
            );
            ensure!(cache.ways > 0, "{label} needs at least one way");
        }
        if self.predictor.enabled {
            let p = &self.predictor;
            ensure!(
                p.pht_entries.is_power_of_two() && p.btb_entries.is_power_of_two(),
                "predictor table sizes must be powers of two"
            );
            ensure!(p.ghr_bits <= 32, "GHR wider than 32 bits is unsupported");
        }
        Ok(())
    }

    /// Asserts [`CoreConfig::check`].
    ///
    /// # Panics
    ///
    /// Panics with the check's message if the configuration is invalid.
    pub(crate) fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("invalid core configuration {}: {e}", self.name);
        }
    }
}

/// Why a [`CoreConfig`] cannot be simulated (see [`CoreConfig::check`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_key_characteristics() {
        let [s, m, l, g] = CoreConfig::boom_sweep();
        assert_eq!((s.width, s.mem_ports, s.rob_entries), (1, 1, 32));
        assert_eq!((m.width, m.mem_ports, m.rob_entries), (2, 1, 64));
        assert_eq!((l.width, l.mem_ports, l.rob_entries), (3, 1, 96));
        assert_eq!((g.width, g.mem_ports, g.rob_entries), (4, 2, 128));
    }

    #[test]
    fn all_presets_validate() {
        for c in CoreConfig::boom_sweep() {
            c.validate();
        }
        CoreConfig::gem5_stt().validate();
        CoreConfig::gem5_nda().validate();
    }

    #[test]
    fn gem5_configs_are_abstract_fidelity() {
        assert_eq!(CoreConfig::gem5_stt().fidelity, Fidelity::Abstract);
        assert_eq!(CoreConfig::gem5_nda().fidelity, Fidelity::Abstract);
        assert_eq!(CoreConfig::gem5_stt().hierarchy.l1d.latency, 1);
        assert_eq!(CoreConfig::mega().hierarchy.l1d.latency, 4);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        let mut c = CoreConfig::small();
        c.width = 0;
        c.validate();
    }

    #[test]
    fn fingerprint_covers_every_result_determining_field() {
        let base = CoreConfig::mega().fingerprint();
        let mutations: Vec<CoreConfig> = vec![
            {
                let mut c = CoreConfig::mega();
                c.width = 5;
                c
            },
            {
                let mut c = CoreConfig::mega();
                c.rob_entries = 256;
                c
            },
            {
                let mut c = CoreConfig::mega();
                c.redirect_penalty += 1;
                c
            },
            {
                let mut c = CoreConfig::mega();
                c.hierarchy.dram_latency += 1;
                c
            },
            {
                let mut c = CoreConfig::mega();
                c.hierarchy.l1d.latency += 1;
                c
            },
            {
                let mut c = CoreConfig::mega();
                c.hierarchy.l2_prefetch_degree += 1;
                c
            },
            {
                let mut c = CoreConfig::mega();
                c.fidelity = Fidelity::Abstract;
                c
            },
            {
                let mut c = CoreConfig::mega();
                c.predictor = PredictorConfig::enabled(64, 16, 0);
                c
            },
            {
                let mut c = CoreConfig::mega();
                c.predictor = PredictorConfig::enabled(64, 16, 8);
                c
            },
        ];
        for m in &mutations {
            assert_ne!(
                m.fingerprint(),
                base,
                "a result-determining change must move the fingerprint"
            );
        }
        // Distinct presets never collide with each other either.
        let fps: Vec<u64> = CoreConfig::boom_sweep()
            .iter()
            .map(CoreConfig::fingerprint)
            .collect();
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn fingerprint_ignores_the_scheduler_kind() {
        // Both schedulers produce bit-identical SimStats (golden-stats
        // suite), so memoized results are shared across them on purpose.
        let mut c = CoreConfig::mega();
        c.scheduler = SchedulerKind::Reference;
        assert_eq!(c.fingerprint(), CoreConfig::mega().fingerprint());
    }

    #[test]
    fn every_preset_ships_with_the_predictor_off() {
        for c in CoreConfig::boom_sweep() {
            assert!(!c.predictor.enabled);
        }
        assert!(!CoreConfig::gem5_stt().predictor.enabled);
        assert!(!CoreConfig::gem5_nda().predictor.enabled);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn enabled_predictor_rejects_non_power_of_two_tables() {
        let mut c = CoreConfig::mega();
        c.predictor = PredictorConfig::enabled(48, 16, 0);
        c.validate();
    }

    #[test]
    fn disabled_predictor_geometry_is_not_validated() {
        let mut c = CoreConfig::mega();
        c.predictor.pht_entries = 48; // harmless while disabled
        c.validate();
    }

    #[test]
    fn check_rejects_every_broken_field_and_core_new_panics_on_it() {
        let mega = CoreConfig::mega;
        let mut broken: Vec<(&str, CoreConfig)> = Vec::new();
        let mut add = |what: &'static str, edit: fn(&mut CoreConfig)| {
            let mut c = mega();
            edit(&mut c);
            broken.push((what, c));
        };
        add("width 0", |c| c.width = 0);
        add("mem ports 0", |c| c.mem_ports = 0);
        add("rob < width", |c| c.rob_entries = c.width - 1);
        add("iq 0", |c| c.iq_entries = 0);
        add("lq 0", |c| c.lq_entries = 0);
        add("sq 0", |c| c.sq_entries = 0);
        add("phys regs", |c| {
            c.phys_regs = sb_isa::NUM_ARCH_REGS + c.width - 1;
        });
        add("br tags 0", |c| c.max_br_tags = 0);
        add("l1 sets 0", |c| c.hierarchy.l1d.sets = 0);
        add("l1 sets 48", |c| c.hierarchy.l1d.sets = 48);
        add("l2 sets 0", |c| c.hierarchy.l2.sets = 0);
        add("l2 sets 48", |c| c.hierarchy.l2.sets = 48);
        add("l1 line 48", |c| c.hierarchy.l1d.line_bytes = 48);
        add("l1 ways 0", |c| c.hierarchy.l1d.ways = 0);
        add("l2 ways 0", |c| c.hierarchy.l2.ways = 0);
        add("pht 48", |c| {
            c.predictor = PredictorConfig::enabled(48, 16, 0);
        });
        add("btb 24", |c| {
            c.predictor = PredictorConfig::enabled(64, 24, 0);
        });
        add("ghr 33", |c| {
            c.predictor = PredictorConfig::enabled(64, 16, 33);
        });
        let trace = || sb_isa::TraceBuilder::new("empty").build();
        for (what, c) in broken {
            assert!(c.check().is_err(), "{what}: check accepted it");
            let sc = c.scheme_config(Scheme::Baseline);
            let built = std::panic::catch_unwind(move || crate::Core::new(c, sc, trace()));
            assert!(built.is_err(), "{what}: Core::new accepted it");
        }
        let presets = CoreConfig::boom_sweep()
            .into_iter()
            .chain([CoreConfig::gem5_stt(), CoreConfig::gem5_nda()]);
        for c in presets {
            assert_eq!(c.check(), Ok(()), "{}", c.name);
            let sc = c.scheme_config(Scheme::Baseline);
            let _core = crate::Core::new(c, sc, trace());
        }
    }
}
