//! Golden differential suite for trace production: the batched generator
//! must emit *byte-identical* traces to the reference per-op RNG walk for
//! every profile, length and seed, and the serialization path (codec +
//! persistent store) must round-trip traces — including the attack kernels'
//! wrong-path blocks — without altering a single op. This is the same
//! oracle pattern that de-risked the event-wheel scheduler in PR 1: the
//! seed implementation stays alive as the reference, and equality is
//! asserted over the full structure, not summaries.

use sb_isa::{fnv, ArchReg, MicroOp, Trace, TraceBuilder};
use sb_workloads::{
    attack_battery, fuzz_attacks::fuzz_battery, generate, generate_with, spec2017_profiles,
    spectre_v1_kernel, ssb_kernel, GeneratorKind, TraceStore,
};

/// Batched == reference over the full SPEC2017 profile set, across several
/// lengths and seeds (including a length straddling the RNG block size and
/// the grid's default seed derivation range).
#[test]
fn batched_generator_matches_reference_across_suite() {
    let points: [(usize, u64); 3] = [(512, 1), (3_000, 0xC0FFEE), (9_001, 2025)];
    for profile in spec2017_profiles() {
        for (len, seed) in points {
            let batched = generate_with(GeneratorKind::Batched, &profile, len, seed);
            let reference = generate_with(GeneratorKind::Reference, &profile, len, seed);
            assert_eq!(
                batched, reference,
                "{} diverged at len={len} seed={seed}",
                profile.name
            );
        }
    }
}

/// The public `generate` entry point is the batched path and still matches
/// the reference oracle.
#[test]
fn default_entry_point_matches_reference() {
    for profile in spec2017_profiles().iter().take(4) {
        let default = generate(profile, 2_500, 7);
        let reference = generate_with(GeneratorKind::Reference, profile, 2_500, 7);
        assert_eq!(default, reference, "{}", profile.name);
    }
}

/// Every profile round-trips through the binary codec unchanged.
#[test]
fn generated_traces_round_trip_through_codec() {
    for profile in spec2017_profiles() {
        let t = generate(&profile, 1_500, 42);
        let decoded = sb_isa::decode_trace(&sb_isa::encode_trace(&t)).expect("decodes");
        assert_eq!(t, decoded, "{}", profile.name);
    }
}

/// The attack kernels carry wrong-path blocks (the transient micro-ops);
/// the codec and the store must preserve them exactly — a dropped or
/// reordered wrong-path op would silently defang the security experiments.
#[test]
fn attack_kernels_round_trip_with_wrong_paths() {
    let dir = std::env::temp_dir().join(format!("sb-golden-kernels-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::new(&dir);
    for secret in [0usize, 7, 15] {
        for kernel in [spectre_v1_kernel(secret), ssb_kernel(secret)] {
            let decoded =
                sb_isa::decode_trace(&sb_isa::encode_trace(&kernel.trace)).expect("decodes");
            assert_eq!(kernel.trace, decoded, "codec broke {}", kernel.trace.name());

            // Kernel content is fixed by the build, so the content
            // fingerprint slot is 0 by convention.
            let path = store.save(&kernel.trace, secret as u64, 0).expect("saves");
            assert!(path.exists());
            let loaded = store
                .load(kernel.trace.name(), kernel.trace.len(), secret as u64, 0)
                .expect("loads");
            assert_eq!(kernel.trace, loaded, "store broke {}", kernel.trace.name());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A trace whose wrong-path blocks were attached out of branch order
/// round-trips through the codec at both record layouts: the encoder
/// writes blocks in ascending index order (the order the decoder demands)
/// and the decoded trace equals the built one.
#[test]
fn out_of_order_blocks_round_trip_at_both_versions() {
    // Version 1 has no pc/target fields; any nonzero pc selects version 2.
    for (version, pc, target) in [(1u32, 0u64, 0u64), (2, 0x40_1000, 0x40_2000)] {
        let mut b = TraceBuilder::new("three-blocks");
        let mut brs = Vec::new();
        for _ in 0..3 {
            b.alu(ArchReg::int(1), None, None);
            let src = Some(ArchReg::int(1));
            brs.push(b.branch_at(src, None, true, true, pc, target));
        }
        for (n, &br) in [brs[2], brs[0], brs[1]].iter().enumerate() {
            let wp =
                vec![MicroOp::load(ArchReg::int(2), ArchReg::int(1), 0x40 * n as u64, 8); n + 1];
            b.wrong_path(br, wp);
        }
        let trace = b.build();
        let bytes = sb_isa::encode_trace(&trace);
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), version);
        let decoded = sb_isa::decode_trace(&bytes).expect("decodes");
        assert_eq!(decoded, trace, "v{version}");
        let order: Vec<usize> = decoded.wrong_paths().map(|(i, _)| i).collect();
        assert_eq!(order, brs, "v{version}");
    }
}

/// Store-loaded traces equal freshly generated ones for every profile —
/// the byte-identical-instruction-stream guarantee the paper's methodology
/// needs, across the serialize/deserialize boundary.
#[test]
fn store_round_trip_equals_fresh_generation_across_suite() {
    let dir = std::env::temp_dir().join(format!("sb-golden-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::new(&dir);
    for profile in spec2017_profiles() {
        let fresh = generate(&profile, 800, 99);
        let cold = store.load_or_generate(&profile, 800, 99);
        let warm = store.load_or_generate(&profile, 800, 99);
        assert_eq!(fresh, cold, "{} cold", profile.name);
        assert_eq!(fresh, warm, "{} warm", profile.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Folds each trace's `encode_trace` bytes into one FNV digest and notes
/// which record layouts (format versions) the family exercised.
fn encoded_digest<'a>(traces: impl IntoIterator<Item = &'a Trace>) -> (u64, Vec<u32>) {
    let mut h = fnv::OFFSET;
    let mut versions = Vec::new();
    for t in traces {
        let bytes = sb_isa::encode_trace(t);
        h = fnv::fold_bytes(h, &bytes);
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if !versions.contains(&version) {
            versions.push(version);
        }
    }
    versions.sort_unstable();
    (h, versions)
}

/// The serialized bytes of every trace family the simulator caches or
/// judges are pinned: the profile suite, the attack battery for two
/// secrets and the fuzzed battery. A change to the in-memory micro-op
/// layout must not move a single byte, so every trace-cache file keeps
/// its name and contents. Both record layouts are covered: the profile
/// traces encode as version 1, the predictor kernels as version 2.
#[test]
fn encoded_trace_bytes_are_pinned() {
    let profiles: Vec<Trace> = spec2017_profiles()
        .iter()
        .map(|p| generate(p, 2_000, 2025))
        .collect();
    let battery = |secret| {
        attack_battery(secret)
            .into_iter()
            .map(|k| k.trace)
            .collect::<Vec<_>>()
    };
    let fuzzed: Vec<Trace> = fuzz_battery(0).into_iter().map(|k| k.trace).collect();
    let got = [
        ("spec2017 @ 2000 ops, seed 2025", encoded_digest(&profiles)),
        ("attack_battery(3)", encoded_digest(&battery(3))),
        ("attack_battery(12)", encoded_digest(&battery(12))),
        ("fuzz_battery(0)", encoded_digest(&fuzzed)),
    ]
    .map(|(family, (digest, versions))| (family, format!("{digest:#018x}"), versions));
    let want = [
        (
            "spec2017 @ 2000 ops, seed 2025",
            "0x3228f836623a00f7",
            vec![1],
        ),
        ("attack_battery(3)", "0x34424aff8872ee50", vec![1, 2]),
        ("attack_battery(12)", "0x57b2cc0c9a5bf501", vec![1, 2]),
        ("fuzz_battery(0)", "0x01fe5d98e8a49f28", vec![1, 2]),
    ]
    .map(|(family, digest, versions)| (family, digest.to_string(), versions));
    assert_eq!(got, want, "encoded trace bytes moved");
}
