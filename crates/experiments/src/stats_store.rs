//! Persistent simulation-result store: memoizes `SimStats` on disk so an
//! interrupted grid run can resume without re-simulating finished points.
//!
//! The design deliberately mirrors `sb-workloads`' `TraceStore` — same
//! environment-variable semantics ([`STATS_CACHE_ENV`], resolved through
//! [`sb_workloads::cache_dir_from_env`]), same filename keying
//! ([`sb_workloads::cache_entry_stem`] plus a format-version suffix), same
//! write-to-temporary-then-atomic-rename discipline, and the same
//! self-healing read contract: *any* validation failure — missing file,
//! short file, bad magic, stale format version, wrong benchmark name,
//! checksum mismatch — is a cache miss that removes the bad entry, so a
//! corrupted cache can delay a run but never change its results.
//!
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
//! [`STATS_FORMAT_VERSION`]; the field-count word turns a missed bump into
//! a clean miss instead of misattributed counters.

use sb_isa::fnv;
use sb_stats::SimStats;
use sb_workloads::{cache_dir_from_env, cache_entry_stem};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Environment variable controlling the stats cache, with exactly the
/// `SB_TRACE_CACHE` semantics: unset/empty keeps the default directory,
/// `0`/`off` disables the store, anything else is the cache directory.
pub const STATS_CACHE_ENV: &str = "SB_STATS_CACHE";

/// Bump whenever the entry layout (or the meaning of a field) changes.
pub const STATS_FORMAT_VERSION: u32 = 1;

const MAGIC: &[u8; 4] = b"SBST";

/// Number of `u64` counter fields an entry carries (all of `SimStats`
/// including the five stall-breakdown counters).
const FIELD_COUNT: u32 = 26;

/// Distinguishes concurrent writers' temporary files within one process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

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

/// Decodes and validates one entry against the expected benchmark name.
/// `None` on any validation failure (the caller treats it as a miss).
#[must_use]
pub fn decode_stats(bytes: &[u8], expected_name: &str) -> Option<SimStats> {
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

/// A directory of serialized `SimStats` keyed by
/// `(benchmark name, ops, seed, fingerprint, format version)`.
#[derive(Clone, Debug)]
pub struct StatsStore {
    dir: PathBuf,
}

impl StatsStore {
    /// A store rooted at `dir` (created lazily on first write).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StatsStore { dir: dir.into() }
    }

    /// The store honoring [`STATS_CACHE_ENV`]: `None` when disabled
    /// (`0`/`off`), otherwise a store on the requested (or default)
    /// directory. Shares [`sb_workloads::cache_dir_from_env`] with the
    /// trace store so the two knobs can never drift semantically.
    #[must_use]
    pub fn from_env() -> Option<StatsStore> {
        cache_dir_from_env(STATS_CACHE_ENV, Self::default_dir).map(StatsStore::new)
    }

    /// The default cache directory: `$CARGO_TARGET_DIR/stats-cache` when
    /// set, else the workspace `target/stats-cache`.
    #[must_use]
    pub fn default_dir() -> PathBuf {
        if let Ok(target) = std::env::var("CARGO_TARGET_DIR") {
            return Path::new(&target).join("stats-cache");
        }
        // sb-experiments lives at <workspace>/crates/experiments; resolve
        // the workspace target dir relative to the compiled crate so every
        // binary shares one cache.
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/stats-cache")
            .components()
            .collect()
    }

    /// The directory this store reads and writes.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The cache file path for a key under the current format version.
    #[must_use]
    pub fn path_for(&self, name: &str, ops: usize, seed: u64, fp: u64) -> PathBuf {
        let stem = cache_entry_stem(name, ops, seed, fp);
        self.dir
            .join(format!("{stem}-v{STATS_FORMAT_VERSION}.sbstats"))
    }

    /// Loads the cached stats for a key, or `None` on miss or on *any*
    /// validation failure (which also removes the bad entry, best-effort,
    /// so the next write heals the cache).
    #[must_use]
    pub fn load(&self, name: &str, ops: usize, seed: u64, fp: u64) -> Option<SimStats> {
        let path = self.path_for(name, ops, seed, fp);
        let stats = decode_stats(&fs::read(&path).ok()?, name);
        if stats.is_none() {
            let _ = fs::remove_file(&path);
        }
        stats
    }

    /// Serializes `stats` under its key via write-to-temporary plus atomic
    /// rename, returning the entry path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (callers treat a failed save as a
    /// cache bypass, never as a run failure).
    pub fn save(
        &self,
        name: &str,
        ops: usize,
        seed: u64,
        fp: u64,
        stats: &SimStats,
    ) -> io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let path = self.path_for(name, ops, seed, fp);
        let tmp = self.dir.join(format!(
            ".{}.{}.{}.tmp",
            path.file_name().unwrap_or_default().to_string_lossy(),
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, encode_stats(name, stats))?;
        match fs::rename(&tmp, &path) {
            Ok(()) => Ok(path),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn temp_store(tag: &str) -> StatsStore {
        let dir =
            std::env::temp_dir().join(format!("sb-stats-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        StatsStore::new(dir)
    }

    fn cleanup(store: &StatsStore) {
        let _ = fs::remove_dir_all(store.dir());
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
    fn store_roundtrip_and_keying() {
        let store = temp_store("roundtrip");
        let stats = sample_stats();
        assert!(store.load("505.mcf", 60_000, 7, 42).is_none());
        store.save("505.mcf", 60_000, 7, 42, &stats).unwrap();
        assert_eq!(store.load("505.mcf", 60_000, 7, 42), Some(stats));
        // Every key component separates entries.
        assert!(store.load("502.gcc", 60_000, 7, 42).is_none());
        assert!(store.load("505.mcf", 60_001, 7, 42).is_none());
        assert!(store.load("505.mcf", 60_000, 8, 42).is_none());
        assert!(store.load("505.mcf", 60_000, 7, 43).is_none());
        cleanup(&store);
    }

    #[test]
    fn corrupt_entry_is_dropped_and_healed_by_the_next_save() {
        let store = temp_store("corrupt");
        let stats = sample_stats();
        store.save("505.mcf", 100, 1, 2, &stats).unwrap();
        let path = store.path_for("505.mcf", 100, 1, 2);
        crate::faults::corrupt_file(&path).unwrap();
        assert!(store.load("505.mcf", 100, 1, 2).is_none());
        assert!(!path.exists(), "bad entry removed");
        store.save("505.mcf", 100, 1, 2, &stats).unwrap();
        assert_eq!(store.load("505.mcf", 100, 1, 2), Some(stats));
        cleanup(&store);
    }

    #[test]
    fn combine_fp_is_order_sensitive_and_tag_fp_distinguishes_axes() {
        assert_ne!(combine_fp([1, 2]), combine_fp([2, 1]));
        assert_ne!(combine_fp([1, 2]), combine_fp([1, 3]));
        assert_ne!(tag_fp("STT-Issue"), tag_fp("STT-Rename"));
        assert_ne!(tag_fp("spectre"), tag_fp("futuristic"));
    }

    #[test]
    fn from_env_shares_trace_store_semantics() {
        // Sequential within one test: process-global env mutation must not
        // race across #[test] fns.
        let saved = std::env::var(STATS_CACHE_ENV).ok();
        std::env::remove_var(STATS_CACHE_ENV);
        assert_eq!(
            StatsStore::from_env().expect("unset means default").dir(),
            StatsStore::default_dir()
        );
        for off in ["0", "off", " OFF\n"] {
            std::env::set_var(STATS_CACHE_ENV, off);
            assert!(StatsStore::from_env().is_none(), "{off:?} must disable");
        }
        std::env::set_var(STATS_CACHE_ENV, "/tmp/sb-redirected-stats");
        assert_eq!(
            StatsStore::from_env().expect("path redirects").dir(),
            Path::new("/tmp/sb-redirected-stats")
        );
        for empty in ["", "  "] {
            std::env::set_var(STATS_CACHE_ENV, empty);
            assert_eq!(
                StatsStore::from_env()
                    .unwrap_or_else(|| panic!("{empty:?} must not disable"))
                    .dir(),
                StatsStore::default_dir()
            );
        }
        match saved {
            Some(v) => std::env::set_var(STATS_CACHE_ENV, v),
            None => std::env::remove_var(STATS_CACHE_ENV),
        }
    }
}
