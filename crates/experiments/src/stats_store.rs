//! Persistent simulation results: the `SimStats` codec of the
//! workspace's one [`BlobStore`], so an interrupted grid run or sweep can
//! resume without re-simulating finished points.
//!
//! [`StatsStore`] keys, writes, reads back and heals entries exactly as
//! every [`BlobStore`] does ([`STATS_CACHE_ENV`] selects the directory).
//! An entry's key is `(benchmark name, ops, seed, fingerprint)` where the
//! fingerprint folds together everything else that determines the stats:
//! the core configuration ([`sb_uarch::CoreConfig::fingerprint`], which
//! itself covers [`sb_uarch::SIM_RESULTS_REVISION`] so simulator behavior
//! changes invalidate old entries), the scheme, any threat-model or other
//! axis tag, and the workload-profile fingerprint — use [`combine_fp`] and
//! [`tag_fp`] to build it.
//!
//! The codec is a fixed-order dump of every `SimStats` counter (magic
//! `SBST`, format version, benchmark name, field count, the counters as
//! little-endian `u64`s, FNV-1a checksum over everything preceding it).
//! Adding or reordering `SimStats` fields requires bumping
//! `STATS_FORMAT_VERSION`; the field-count word turns a missed bump into
//! a clean miss instead of misattributed counters.

use sb_isa::fnv;
use sb_stats::SimStats;
use sb_workloads::{BlobStore, Codec};

/// Environment variable controlling the stats cache, with the semantics of
/// every store ([`BlobStore::from_env`]): unset/empty keeps the default
/// directory, `0`/`off` disables the store, anything else is the cache
/// directory.
pub const STATS_CACHE_ENV: &str = "SB_STATS_CACHE";

/// Bump whenever the entry layout (or the meaning of a field) changes.
pub(crate) const STATS_FORMAT_VERSION: u32 = 1;

const MAGIC: &[u8; 4] = b"SBST";

/// Number of `u64` counter fields an entry carries (all of `SimStats`
/// including the five stall-breakdown counters).
const FIELD_COUNT: u32 = 26;

/// FNV-1a of a string — for folding axis tags (scheme, threat model) into
/// an entry fingerprint.
#[must_use]
pub fn tag_fp(tag: &str) -> u64 {
    fnv::hash_str(tag)
}

/// Folds several fingerprint words into one entry fingerprint: FNV-1a over
/// their little-endian bytes (order-sensitive, so `(config, scheme)` and
/// `(scheme, config)` differ).
#[must_use]
pub fn combine_fp(parts: impl IntoIterator<Item = u64>) -> u64 {
    parts.into_iter().fold(fnv::OFFSET, |h, part| {
        fnv::fold_bytes(h, &part.to_le_bytes())
    })
}

/// The fixed serialization order of every counter. One place to keep the
/// encoder, decoder and [`FIELD_COUNT`] agreeing with `SimStats`.
fn field_values(s: &SimStats) -> [u64; FIELD_COUNT as usize] {
    [
        s.cycles.get(),
        s.committed.get(),
        s.committed_loads.get(),
        s.committed_stores.get(),
        s.committed_branches.get(),
        s.branch_mispredicts.get(),
        s.forwarding_errors.get(),
        s.memdep_speculations.get(),
        s.squashed.get(),
        s.wasted_issue_slots.get(),
        s.delayed_transmitters.get(),
        s.scheme_broadcasts.get(),
        s.taints_applied.get(),
        s.checkpoint_stalls.get(),
        s.dispatch_stalls.get(),
        s.replay_events.get(),
        s.l1d_hits.get(),
        s.l1d_misses.get(),
        s.l2_hits.get(),
        s.l2_misses.get(),
        s.prefetches.get(),
        s.stalls.frontend.get(),
        s.stalls.memory.get(),
        s.stalls.scheme.get(),
        s.stalls.dataflow.get(),
        s.stalls.execution.get(),
    ]
}

fn stats_from_fields(v: &[u64; FIELD_COUNT as usize]) -> SimStats {
    let mut s = SimStats::new();
    let fields: [&mut sb_stats::Counter; FIELD_COUNT as usize] = [
        &mut s.cycles,
        &mut s.committed,
        &mut s.committed_loads,
        &mut s.committed_stores,
        &mut s.committed_branches,
        &mut s.branch_mispredicts,
        &mut s.forwarding_errors,
        &mut s.memdep_speculations,
        &mut s.squashed,
        &mut s.wasted_issue_slots,
        &mut s.delayed_transmitters,
        &mut s.scheme_broadcasts,
        &mut s.taints_applied,
        &mut s.checkpoint_stalls,
        &mut s.dispatch_stalls,
        &mut s.replay_events,
        &mut s.l1d_hits,
        &mut s.l1d_misses,
        &mut s.l2_hits,
        &mut s.l2_misses,
        &mut s.prefetches,
        &mut s.stalls.frontend,
        &mut s.stalls.memory,
        &mut s.stalls.scheme,
        &mut s.stalls.dataflow,
        &mut s.stalls.execution,
    ];
    for (field, &value) in fields.into_iter().zip(v.iter()) {
        field.add(value);
    }
    s
}

/// Serializes one entry: magic, version, name, field count, counters,
/// checksum.
#[must_use]
pub fn encode_stats(name: &str, stats: &SimStats) -> Vec<u8> {
    let name_bytes = name.as_bytes();
    let mut out = Vec::with_capacity(24 + name_bytes.len() + FIELD_COUNT as usize * 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&STATS_FORMAT_VERSION.to_le_bytes());
    #[allow(clippy::cast_possible_truncation)]
    out.extend_from_slice(&(name_bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(name_bytes);
    out.extend_from_slice(&FIELD_COUNT.to_le_bytes());
    for v in field_values(stats) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let checksum = fnv::hash_bytes(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// The `SimStats` codec: [`encode_stats`], and a decoder that validates
/// magic, version, benchmark name, field count, length and checksum.
#[derive(Clone, Debug)]
pub struct StatsCodec;

impl Codec for StatsCodec {
    type Value = SimStats;
    const ENV: &'static str = STATS_CACHE_ENV;
    const SUBDIR: &'static str = "stats-cache";
    const EXT: &'static str = "sbstats";
    const VERSION: u32 = STATS_FORMAT_VERSION;

    fn encode(name: &str, stats: &SimStats) -> Vec<u8> {
        encode_stats(name, stats)
    }

    fn decode(bytes: &[u8], expected_name: &str, _ops: usize) -> Option<SimStats> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let slice = bytes.get(*pos..*pos + n)?;
            *pos += n;
            Some(slice)
        };
        if take(&mut pos, 4)? != MAGIC {
            return None;
        }
        let version = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
        if version != STATS_FORMAT_VERSION {
            return None;
        }
        let name_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        if take(&mut pos, name_len)? != expected_name.as_bytes() {
            return None;
        }
        let fields = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
        if fields != FIELD_COUNT {
            return None;
        }
        let mut values = [0u64; FIELD_COUNT as usize];
        for v in &mut values {
            *v = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
        }
        let stored = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
        if pos != bytes.len() || stored != fnv::hash_bytes(&bytes[..bytes.len() - 8]) {
            return None;
        }
        Some(stats_from_fields(&values))
    }
}

/// A directory of serialized `SimStats` keyed by
/// `(benchmark name, ops, seed, fingerprint, format version)`.
pub type StatsStore = BlobStore<StatsCodec>;

#[cfg(test)]
mod tests {
    use super::*;
    use sb_workloads::{generate, spec2017_profiles, TraceCodec};
    use std::fmt::Debug;
    use std::path::Path;

    fn sample_stats() -> SimStats {
        let mut s = SimStats::new();
        s.cycles.add(123_456);
        s.committed.add(60_000);
        s.committed_loads.add(17_000);
        s.branch_mispredicts.add(321);
        s.l1d_misses.add(999);
        s.stalls.memory.add(4_321);
        s.stalls.execution.add(7);
        s
    }

    fn decode_stats(bytes: &[u8], name: &str) -> Option<SimStats> {
        StatsCodec::decode(bytes, name, 0)
    }

    #[test]
    fn encode_decode_roundtrip_preserves_every_counter() {
        let stats = sample_stats();
        let bytes = encode_stats("505.mcf", &stats);
        assert_eq!(decode_stats(&bytes, "505.mcf"), Some(stats));
    }

    #[test]
    fn decode_rejects_wrong_name_magic_version_and_truncation() {
        let bytes = encode_stats("505.mcf", &sample_stats());
        assert!(decode_stats(&bytes, "502.gcc").is_none(), "name mismatch");
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(decode_stats(&bad_magic, "505.mcf").is_none());
        let mut bad_version = bytes.clone();
        bad_version[4] ^= 0xFF;
        assert!(decode_stats(&bad_version, "505.mcf").is_none());
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_stats(&bytes[..cut], "505.mcf").is_none(),
                "cut {cut}"
            );
        }
        let mut padded = bytes;
        padded.push(0);
        assert!(decode_stats(&padded, "505.mcf").is_none(), "trailing bytes");
    }

    #[test]
    fn any_flipped_byte_fails_the_checksum() {
        let stats = sample_stats();
        let bytes = encode_stats("520.omnetpp", &stats);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                decode_stats(&corrupt, "520.omnetpp").is_none(),
                "flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn combine_fp_is_order_sensitive_and_tag_fp_distinguishes_axes() {
        assert_ne!(combine_fp([1, 2]), combine_fp([2, 1]));
        assert_ne!(combine_fp([1, 2]), combine_fp([1, 3]));
        assert_ne!(tag_fp("STT-Issue"), tag_fp("STT-Rename"));
        assert_ne!(tag_fp("spectre"), tag_fp("futuristic"));
    }

    // The store contract, run for both codecs (this crate is the one that
    // sees both): `check_*::<C>` takes one `(name, ops)` key and a value
    // valid under it.

    fn scratch<C: Codec>(tag: &str) -> BlobStore<C> {
        let dir = std::env::temp_dir().join(format!(
            "sb-blob-store-test-{}-{}-{tag}",
            std::process::id(),
            C::EXT
        ));
        let _ = std::fs::remove_dir_all(&dir);
        BlobStore::new(dir)
    }

    fn sample_trace() -> sb_isa::Trace {
        let p = spec2017_profiles()[3]; // 505.mcf
        generate(&p, 400, 77)
    }

    fn check_roundtrip_and_keying<C: Codec>(name: &str, ops: usize, value: &C::Value)
    where
        C::Value: PartialEq + Debug,
    {
        let store = scratch::<C>("roundtrip");
        assert!(store.load(name, ops, 7, 42).is_none());
        store.save(name, ops, 7, 42, value).unwrap();
        assert_eq!(store.load(name, ops, 7, 42).as_ref(), Some(value));
        // Every key component separates entries.
        assert!(store.load("502.gcc", ops, 7, 42).is_none());
        assert!(store.load(name, ops + 1, 7, 42).is_none());
        assert!(store.load(name, ops, 8, 42).is_none());
        assert!(store.load(name, ops, 7, 43).is_none());
        let path = store.path_for(name, ops, 7, 42);
        assert_ne!(path, store.path_for("502.gcc", ops, 7, 42));
        assert_ne!(path, store.path_for(name, ops + 1, 7, 42));
        assert_ne!(path, store.path_for(name, ops, 8, 42));
        assert_ne!(path, store.path_for(name, ops, 7, 43));
        assert!(path
            .to_string_lossy()
            .ends_with(&format!("-v{}.{}", C::VERSION, C::EXT)));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    fn check_corrupt_entry_is_dropped_and_healed<C: Codec>(name: &str, ops: usize, value: &C::Value)
    where
        C::Value: PartialEq + Debug,
    {
        let store = scratch::<C>("corrupt");
        let path = store.save(name, ops, 1, 2, value).unwrap();
        assert_eq!(path, store.path_for(name, ops, 1, 2));
        crate::faults::corrupt_file(&path).unwrap();
        assert!(store.load(name, ops, 1, 2).is_none());
        assert!(!path.exists(), "bad entry removed");
        store.save(name, ops, 1, 2, value).unwrap();
        assert_eq!(store.load(name, ops, 1, 2).as_ref(), Some(value));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    fn check_from_env<C: Codec>() {
        let saved = std::env::var(C::ENV).ok();
        let default = BlobStore::<C>::default_dir();
        let dir_of = || BlobStore::<C>::from_env().map(|s| s.dir().to_path_buf());

        // Unset: the default directory.
        std::env::remove_var(C::ENV);
        assert_eq!(dir_of(), Some(default.clone()), "{}", C::ENV);

        // The documented disable spellings, with incidental whitespace
        // (shell wrappers readily produce trailing newlines).
        for off in ["0", "off", "OFF", "Off", " 0", "0\n", " off ", " OFF\n"] {
            std::env::set_var(C::ENV, off);
            assert_eq!(dir_of(), None, "{}={off:?} must disable", C::ENV);
        }

        // A path redirects.
        std::env::set_var(C::ENV, "/tmp/sb-redirected-cache");
        assert_eq!(
            dir_of().as_deref(),
            Some(Path::new("/tmp/sb-redirected-cache"))
        );

        // Regression: set-but-empty (and whitespace-only) is the default
        // directory. Lumping empty in with the disable spellings silently
        // turns caching off; treating any set value as a redirect roots
        // the store at "" and scatters cache files cwd-relative. Both
        // wrong shapes are pinned here.
        for empty in ["", "  "] {
            std::env::set_var(C::ENV, empty);
            assert_eq!(
                dir_of(),
                Some(default.clone()),
                "{}={empty:?} must mean the default dir",
                C::ENV
            );
        }

        match saved {
            Some(v) => std::env::set_var(C::ENV, v),
            None => std::env::remove_var(C::ENV),
        }
    }

    #[test]
    fn store_roundtrip_and_keying() {
        check_roundtrip_and_keying::<StatsCodec>("505.mcf", 60_000, &sample_stats());
        let trace = sample_trace();
        check_roundtrip_and_keying::<TraceCodec>(trace.name(), trace.len(), &trace);
    }

    #[test]
    fn corrupt_entry_is_dropped_and_healed_by_the_next_save() {
        check_corrupt_entry_is_dropped_and_healed::<StatsCodec>("505.mcf", 100, &sample_stats());
        let trace = sample_trace();
        check_corrupt_entry_is_dropped_and_healed::<TraceCodec>(trace.name(), trace.len(), &trace);
    }

    #[test]
    fn from_env_shares_trace_store_semantics() {
        // The stats variable resolves exactly like the trace variable
        // (pinned by sb-workloads' own store test, in its own process):
        // env mutation here stays on SB_STATS_CACHE so it cannot race
        // trace generation in this crate's other tests.
        check_from_env::<StatsCodec>();
    }
}
