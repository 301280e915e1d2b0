//! Persistent stores: one generic, checksummed, self-healing
//! [`BlobStore`] behind every on-disk cache in the workspace — generated
//! traces here ([`TraceStore`]) and simulated `SimStats` in
//! `sb-experiments`' stats store.
//!
//! A store is a directory holding one file per `(name, ops, seed,
//! fingerprint)` key, named by [`BlobStore::path_for`]. The fingerprint
//! covers whatever besides `(ops, seed)` determines the value (for
//! traces, [`WorkloadProfile::fingerprint`], which includes the generator
//! revision), and the file name carries the codec's format version, so
//! recalibrated inputs or format changes read as misses even against a
//! cache directory persisted across commits (as CI does). Writes go
//! through a unique temporary file followed by an atomic rename, so
//! concurrent producers (parallel test binaries, a grid run racing a
//! benchmark) can only ever observe a complete file. Any read-side failure
//! — missing file, bad magic, stale format version, checksum mismatch, or
//! a key collision on a different name — is a miss that removes the bad
//! entry, so a corrupted cache can delay a run but never change its
//! results.
//!
//! A [`Codec`] supplies only the value type, its environment variable,
//! directory, extension and format version, and the encode/decode pair.
//!
//! [`cached_generate`] is the drop-in entry point the experiment engine
//! uses: store-backed by default, disabled by setting the
//! [`TRACE_CACHE_ENV`] environment variable to `0` or `off` (or redirected
//! by setting it to a directory path).

use crate::generator::{generate_with, GeneratorKind};
use crate::profiles::WorkloadProfile;
use sb_isa::{decode_trace, encode_trace, Trace, TRACE_FORMAT_VERSION};
use std::fs;
use std::io;
use std::marker::PhantomData;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Environment variable controlling the default trace cache: unset keeps
/// the default directory, `0`/`off` disables caching, anything else is used
/// as the cache directory.
pub const TRACE_CACHE_ENV: &str = "SB_TRACE_CACHE";

/// Distinguishes concurrent writers' temporary files within one process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// What one kind of persisted entry needs from a [`BlobStore`]: where it
/// lives, how its files are named, and how its bytes are written and
/// validated.
pub trait Codec {
    /// The persisted value.
    type Value;
    /// Environment variable selecting the store ([`BlobStore::from_env`]).
    const ENV: &'static str;
    /// Directory name of the default store under the target directory.
    const SUBDIR: &'static str;
    /// File extension of an entry.
    const EXT: &'static str;
    /// Entry format version; part of every file name.
    const VERSION: u32;
    /// Serializes `value`, stored under `name`.
    fn encode(name: &str, value: &Self::Value) -> Vec<u8>;
    /// Decodes an entry and validates it against its key's `name` and
    /// `ops`. `None` on any failure, which the store treats as a miss.
    fn decode(bytes: &[u8], name: &str, ops: usize) -> Option<Self::Value>;
}

/// A directory of encoded values keyed by `(name, ops, seed, fingerprint)`
/// and the codec's format version.
#[derive(Clone, Debug)]
pub struct BlobStore<C> {
    dir: PathBuf,
    codec: PhantomData<C>,
}

impl<C: Codec> BlobStore<C> {
    /// A store rooted at `dir` (created lazily on first write).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        BlobStore {
            dir: dir.into(),
            codec: PhantomData,
        }
    }

    /// The store honoring the codec's environment variable: unset, empty
    /// or whitespace-only means [`BlobStore::default_dir`]; `0`/`off` (any
    /// case, whitespace-trimmed) disables the store (`None`); anything
    /// else redirects to that path.
    ///
    /// A set-but-empty variable (easy to produce from a shell wrapper or
    /// an unset CI secret) must be neither a redirect to the empty path
    /// (which would scatter cache files into the working directory) nor a
    /// silent disable.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        let dir = match std::env::var(C::ENV) {
            // Match on the trimmed value throughout: `" 0"` or `"0\n"`
            // (trailing newline from a shell wrapper) must disable the
            // store, not become a whitespace-named cache directory.
            Ok(v) => match v.trim() {
                t if t == "0" || t.eq_ignore_ascii_case("off") => return None,
                "" => Self::default_dir(),
                dir => PathBuf::from(dir),
            },
            Err(_) => Self::default_dir(),
        };
        Some(Self::new(dir))
    }

    /// The default directory: `$CARGO_TARGET_DIR/{SUBDIR}` when set, else
    /// the workspace `target/{SUBDIR}`.
    #[must_use]
    pub fn default_dir() -> PathBuf {
        if let Ok(target) = std::env::var("CARGO_TARGET_DIR") {
            return Path::new(&target).join(C::SUBDIR);
        }
        // sb-workloads lives at <workspace>/crates/workloads; resolve the
        // workspace target dir relative to the compiled crate so every
        // binary shares one cache.
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target")
            .join(C::SUBDIR)
            .components()
            .collect()
    }

    /// The directory this store reads and writes.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for a key: sanitized name, ops, seed, fingerprint,
    /// format version and extension. `fp` is a content fingerprint of
    /// whatever besides `(ops, seed)` determines the value; use `0` for
    /// values fixed by the build (e.g. attack-kernel traces).
    #[must_use]
    pub fn path_for(&self, name: &str, ops: usize, seed: u64, fp: u64) -> PathBuf {
        let stem = cache_entry_stem(name, ops, seed, fp);
        self.dir.join(format!("{stem}-v{}.{}", C::VERSION, C::EXT))
    }

    /// Loads the entry for a key, or `None` on miss or on *any* validation
    /// failure (which also removes the bad entry, best-effort, so the next
    /// write heals the cache).
    #[must_use]
    pub fn load(&self, name: &str, ops: usize, seed: u64, fp: u64) -> Option<C::Value> {
        let path = self.path_for(name, ops, seed, fp);
        let value = C::decode(&fs::read(&path).ok()?, name, ops);
        if value.is_none() {
            let _ = fs::remove_file(&path);
        }
        value
    }

    /// Serializes `value` under its key via write-to-temporary plus atomic
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
        value: &C::Value,
    ) -> io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let path = self.path_for(name, ops, seed, fp);
        let tmp = self.dir.join(format!(
            ".{}.{}.{}.tmp",
            path.file_name().unwrap_or_default().to_string_lossy(),
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, C::encode(name, value))?;
        match fs::rename(&tmp, &path) {
            Ok(()) => Ok(path),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

/// The filename stem of a key: sanitized name, ops, seed and fingerprint.
/// Distinct raw names that sanitize identically get a hash suffix so the
/// two keys don't perpetually evict each other.
fn cache_entry_stem(name: &str, ops: usize, seed: u64, fp: u64) -> String {
    let mut sanitized: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_') {
                c
            } else {
                '_'
            }
        })
        .collect();
    if sanitized != name {
        #[allow(clippy::cast_possible_truncation)]
        let name_hash = sb_isa::fnv::hash_str(name) as u32;
        sanitized.push_str(&format!("_{name_hash:08x}"));
    }
    format!("{sanitized}-{ops}-{seed:016x}-{fp:016x}")
}

/// The trace codec: `sb-isa`'s versioned, checksummed trace format. An
/// entry must hold the keyed workload at the keyed length.
#[derive(Clone, Debug)]
pub struct TraceCodec;

impl Codec for TraceCodec {
    type Value = Trace;
    const ENV: &'static str = TRACE_CACHE_ENV;
    const SUBDIR: &'static str = "trace-cache";
    const EXT: &'static str = "sbtrace";
    const VERSION: u32 = TRACE_FORMAT_VERSION;

    fn encode(_name: &str, trace: &Trace) -> Vec<u8> {
        encode_trace(trace)
    }

    fn decode(bytes: &[u8], name: &str, ops: usize) -> Option<Trace> {
        decode_trace(bytes)
            .ok()
            .filter(|t| t.name() == name && t.len() == ops)
    }
}

/// A [`BlobStore`] of traces, each keyed by its own name and length.
#[derive(Clone, Debug)]
pub struct TraceStore(BlobStore<TraceCodec>);

impl Deref for TraceStore {
    type Target = BlobStore<TraceCodec>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl TraceStore {
    /// A store rooted at `dir` (created lazily on first write).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TraceStore(BlobStore::new(dir))
    }

    /// Saves `trace` under `(its name, its length, seed, fp)`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors, as [`BlobStore::save`].
    pub fn save(&self, trace: &Trace, seed: u64, fp: u64) -> io::Result<PathBuf> {
        self.0.save(trace.name(), trace.len(), seed, fp, trace)
    }

    /// The store-backed generation entry point: cache hit, or generate with
    /// the default (batched) generator and populate the cache.
    #[must_use]
    pub fn load_or_generate(&self, profile: &WorkloadProfile, ops: usize, seed: u64) -> Trace {
        self.load_or_generate_with(GeneratorKind::Batched, profile, ops, seed)
    }

    /// [`TraceStore::load_or_generate`] with an explicit generator kind for
    /// the miss path (both kinds produce identical traces, so the cache key
    /// does not include the kind — it does include the profile fingerprint,
    /// so profile or generator changes invalidate stale entries).
    fn load_or_generate_with(
        &self,
        kind: GeneratorKind,
        profile: &WorkloadProfile,
        ops: usize,
        seed: u64,
    ) -> Trace {
        let fp = profile.fingerprint();
        if let Some(trace) = self.load(profile.name, ops, seed, fp) {
            return trace;
        }
        let trace = generate_with(kind, profile, ops, seed);
        let _ = self.save(&trace, seed, fp);
        trace
    }
}

/// [`crate::generate`] behind the process-default trace store: reads and
/// populates the cache unless [`TRACE_CACHE_ENV`] disables it.
#[must_use]
pub fn cached_generate(profile: &WorkloadProfile, ops: usize, seed: u64) -> Trace {
    match BlobStore::from_env() {
        Some(store) => TraceStore(store).load_or_generate(profile, ops, seed),
        None => crate::generate(profile, ops, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::profiles::spec2017_profiles;

    fn temp_store(tag: &str) -> TraceStore {
        let dir =
            std::env::temp_dir().join(format!("sb-trace-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        TraceStore::new(dir)
    }

    fn cleanup(store: &TraceStore) {
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn miss_generates_and_populates() {
        let store = temp_store("miss");
        let p = spec2017_profiles()[1]; // 502.gcc
        assert!(store.load(p.name, 500, 9, p.fingerprint()).is_none());
        let cold = store.load_or_generate(&p, 500, 9);
        assert_eq!(cold, generate(&p, 500, 9));
        let warm = store
            .load(p.name, 500, 9, p.fingerprint())
            .expect("populated");
        assert_eq!(cold, warm);
        cleanup(&store);
    }

    #[test]
    fn keys_are_disjoint_per_name_ops_seed_and_fingerprint() {
        let store = temp_store("keys");
        let p = spec2017_profiles();
        let fp = p[0].fingerprint();
        let a = store.path_for(p[0].name, 100, 1, fp);
        assert_ne!(a, store.path_for(p[1].name, 100, 1, p[1].fingerprint()));
        assert_ne!(a, store.path_for(p[0].name, 101, 1, fp));
        assert_ne!(a, store.path_for(p[0].name, 100, 2, fp));
        assert_ne!(a, store.path_for(p[0].name, 100, 1, fp ^ 1));
        assert!(a
            .to_string_lossy()
            .contains(&format!("-v{TRACE_FORMAT_VERSION}.sbtrace")));
        cleanup(&store);
    }

    #[test]
    fn profile_changes_change_the_fingerprint() {
        // A recalibrated profile must key to a different cache file, so a
        // persisted cache (CI restores target/trace-cache across commits)
        // can never serve traces generated from old parameters.
        let mut p = spec2017_profiles()[0];
        let before = p.fingerprint();
        p.load_frac += 0.01;
        assert_ne!(before, p.fingerprint());
        let mut q = spec2017_profiles()[0];
        q.footprint *= 2;
        assert_ne!(before, q.fingerprint());
    }

    #[test]
    fn sanitized_name_collisions_stay_disjoint() {
        let store = temp_store("sanitize");
        // Distinct raw names with identical sanitized forms must not share
        // a cache file.
        let a = store.path_for("spectre v1", 100, 1, 0);
        let b = store.path_for("spectre_v1", 100, 1, 0);
        let c = store.path_for("spectre:v1", 100, 1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        cleanup(&store);
    }

    #[test]
    fn corrupt_entry_is_dropped_and_healed() {
        let store = temp_store("corrupt");
        let p = spec2017_profiles()[3]; // 505.mcf
        let fp = p.fingerprint();
        let fresh = store.load_or_generate(&p, 400, 77);
        let path = store.path_for(p.name, 400, 77, fp);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        // The corrupt entry must read as a miss (and be removed)...
        assert!(store.load(p.name, 400, 77, fp).is_none());
        assert!(!path.exists());
        // ...and the regeneration path must heal it with identical data.
        let healed = store.load_or_generate(&p, 400, 77);
        assert_eq!(fresh, healed);
        assert!(store.load(p.name, 400, 77, fp).is_some());
        cleanup(&store);
    }

    #[test]
    fn key_collision_on_other_workload_is_a_miss() {
        let store = temp_store("collision");
        let profiles = spec2017_profiles();
        let (a, b) = (profiles[0], profiles[1]);
        let trace = generate(&a, 300, 5);
        // Write a's trace under b's key: name validation must reject it.
        let path = store.path_for(b.name, 300, 5, b.fingerprint());
        fs::create_dir_all(store.dir()).unwrap();
        fs::write(&path, sb_isa::encode_trace(&trace)).unwrap();
        assert!(store.load(b.name, 300, 5, b.fingerprint()).is_none());
        cleanup(&store);
    }

    #[test]
    fn from_env_disable_redirect_and_empty_semantics() {
        // One test covers every TRACE_CACHE_ENV shape, sequentially:
        // process-global env mutation must not race across #[test] fns.
        let saved = std::env::var(TRACE_CACHE_ENV).ok();
        let from_env = BlobStore::<TraceCodec>::from_env;
        let default_dir = BlobStore::<TraceCodec>::default_dir;

        // Unset: the default directory.
        std::env::remove_var(TRACE_CACHE_ENV);
        let unset = from_env().expect("unset means default dir");
        assert_eq!(unset.dir(), default_dir());

        // The documented disable spellings, with incidental whitespace
        // (shell wrappers readily produce trailing newlines).
        for off in ["0", "off", "OFF", "Off", " 0", "0\n", " off "] {
            std::env::set_var(TRACE_CACHE_ENV, off);
            assert!(from_env().is_none(), "{off:?} must disable the store");
        }

        // A path redirects.
        std::env::set_var(TRACE_CACHE_ENV, "/tmp/sb-redirected-cache");
        let redirected = from_env().expect("path redirects");
        assert_eq!(redirected.dir(), Path::new("/tmp/sb-redirected-cache"));

        // Regression: set-but-empty (and whitespace-only) is the default
        // directory. Lumping empty in with the disable spellings silently
        // turns caching off; treating any set value as a redirect roots
        // the store at "" and scatters cache files cwd-relative. Both
        // wrong shapes are pinned here.
        for empty in ["", "  "] {
            std::env::set_var(TRACE_CACHE_ENV, empty);
            let store =
                from_env().unwrap_or_else(|| panic!("{empty:?} must not disable the store"));
            assert_eq!(
                store.dir(),
                default_dir(),
                "{empty:?} must mean the default dir, not a {empty:?}-rooted store"
            );
            assert_ne!(store.dir(), Path::new(""));
        }

        match saved {
            Some(v) => std::env::set_var(TRACE_CACHE_ENV, v),
            None => std::env::remove_var(TRACE_CACHE_ENV),
        }
    }

    #[test]
    fn reference_and_batched_miss_paths_cache_identically() {
        let store = temp_store("kinds");
        let p = spec2017_profiles()[7]; // 511.povray
        let via_ref = store.load_or_generate_with(GeneratorKind::Reference, &p, 600, 2);
        // Second call hits the cache written by the reference path.
        let via_batched = store.load_or_generate_with(GeneratorKind::Batched, &p, 600, 2);
        assert_eq!(via_ref, via_batched);
        cleanup(&store);
    }
}
