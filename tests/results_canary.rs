//! The stale-cache canary: ties `SIM_RESULTS_REVISION` to what the
//! simulator actually computes.
//!
//! Persisted results (`target/stats-cache/`, every `--resume`, sweep and
//! warm run) are keyed through `CoreConfig::fingerprint`, which folds in
//! `SIM_RESULTS_REVISION`. If a change alters simulation results without
//! bumping the revision, those caches keep serving the old numbers. This
//! test simulates a fixed small basket and digests the stats-store
//! encoding of every run, so such a change fails here instead.

use sb_experiments::stats_store::encode_stats;
use shadowbinding::core::{Scheme, SchemeConfig, ThreatModel};
use shadowbinding::isa::fnv;
use shadowbinding::uarch::{Core, CoreConfig, PredictorConfig, SIM_RESULTS_REVISION};
use shadowbinding::workloads::{generate, spec2017_profiles};

/// `(SIM_RESULTS_REVISION, basket digest)` as last recorded.
const RECORDED: (u64, u64) = (2, 0x4ede_afc4_4b54_1efe);

/// The four BOOM presets × four schemes × both threat models, plus the
/// mega core with the modelled branch predictor switched on. All presets
/// are RTL-fidelity, so these are the scheme configurations the grid and
/// the sweep simulate.
fn basket() -> Vec<(CoreConfig, SchemeConfig)> {
    let mut points = Vec::new();
    for config in CoreConfig::boom_sweep() {
        for scheme in Scheme::all() {
            for model in ThreatModel::all() {
                let cfg = SchemeConfig::rtl(scheme, config.mem_ports).with_threat_model(model);
                points.push((config.clone(), cfg));
            }
        }
    }
    let mut predicted = CoreConfig::mega();
    predicted.predictor = PredictorConfig::enabled(1024, 256, 10);
    for scheme in Scheme::all() {
        let cfg = SchemeConfig::rtl(scheme, predicted.mem_ports);
        points.push((predicted.clone(), cfg));
    }
    points
}

#[test]
fn simulated_results_match_the_recorded_revision() {
    let profiles = spec2017_profiles();
    let points = basket();
    let mut digest = fnv::OFFSET;
    for name in ["505.mcf", "503.bwaves"] {
        let profile = profiles.iter().find(|p| p.name == name).expect(name);
        let trace = generate(profile, 2_000, 7);
        for (config, cfg) in &points {
            let mut core = Core::new(config.clone(), *cfg, trace.clone());
            core.run(10_000_000);
            assert!(core.is_done(), "{name} on {} did not finish", config.name);
            digest = fnv::fold_bytes(digest, &encode_stats(profile.name, core.stats()));
        }
    }
    assert_eq!(
        (SIM_RESULTS_REVISION, digest),
        RECORDED,
        "simulation results changed (digest {digest:#018x}). If the change is \
         intended, bump SIM_RESULTS_REVISION in crates/uarch/src/config.rs so \
         cached results are invalidated, then record the new \
         (revision, digest) pair in RECORDED here."
    );
}
