//! Pins every persisted FNV-1a value to a literal.
//!
//! These hashes name stats- and trace-cache files, derive each benchmark's
//! seed and checksum stored entries, so a change to any of them silently
//! orphans every existing cache entry (or, for seeds, changes results).
//! The literals were recorded before the workspace's FNV copies were
//! merged into `sb_isa::fnv`, and the cache file names before the trace
//! and stats stores were merged into one generic store; they must never
//! change.

use sb_experiments::stats_store::{combine_fp, encode_stats, tag_fp};
use sb_experiments::{bench_trace, RunSpec, StatsStore};
use sb_stats::SimStats;
use sb_uarch::CoreConfig;
use sb_workloads::{generate, spec2017_profiles, TraceStore};

#[test]
fn persisted_hashes_keep_their_recorded_values() {
    assert_eq!(tag_fp("STT-Issue"), 0xbd37_9777_dbe0_2c38);
    assert_eq!(combine_fp([1, 2, 3]), 0xda2b_fb22_5e0d_1f05);
    assert_eq!(CoreConfig::small().fingerprint(), 0xb862_7664_936a_441f);
    assert_eq!(CoreConfig::mega().fingerprint(), 0x460f_2bd5_e5ce_53da);

    let namd = spec2017_profiles()
        .into_iter()
        .find(|p| p.name == "508.namd")
        .expect("508.namd profile");
    assert_eq!(namd.fingerprint(), 0x0ee7_2965_714d_b66e);

    // Full cache file names: sanitized name (a name that needs
    // sanitizing gets its FNV-1a appended), ops, seed, fingerprint, then
    // the store's format version and extension.
    let file_name =
        |path: std::path::PathBuf| path.file_name().unwrap().to_string_lossy().into_owned();
    assert_eq!(
        file_name(TraceStore::new("d").path_for("spectre v1", 2000, 7, 0xabc)),
        "spectre_v1_580b56b4-2000-0000000000000007-0000000000000abc-v2.sbtrace"
    );
    assert_eq!(
        file_name(StatsStore::new("d").path_for("505.mcf", 3000, 7, combine_fp([1, 2, 3]))),
        "505.mcf-3000-0000000000000007-da2bfb225e0d1f05-v1.sbstats"
    );

    // The stats-store entry checksum is the last word of the encoding.
    let entry = encode_stats("505.mcf", &SimStats::new());
    let checksum = u64::from_le_bytes(entry[entry.len() - 8..].try_into().unwrap());
    assert_eq!(checksum, 0x9765_b7ff_509f_8ab9);

    // The grid derives each benchmark's seed as `seed ^ fnv1a(name)`.
    let trace = bench_trace(&namd, &RunSpec { ops: 500, seed: 7 });
    assert_eq!(trace, generate(&namd, 500, 7 ^ 0xe41e_fc61_e0c2_3306));

    // The trace codec's word-folded checksum sits at bytes 8..16.
    let bytes = sb_isa::encode_trace(&trace);
    let checksum = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    assert_eq!(checksum, 0x3236_819c_e3d4_e678);
}
