//! Deterministic fault injection for exercising the fault-tolerant job
//! layer end-to-end.
//!
//! A [`FaultPlan`] names which job indexes misbehave and how. It is armed
//! explicitly, by the `--inject-faults` CLI flag, and is `None` everywhere
//! else, so release paths carry no injection logic beyond one `Option`
//! check per job attempt.
//!
//! Spec grammar (comma-separated, whitespace-tolerant):
//!
//! ```text
//! panic@3,overrun@5,corrupt-stats@2
//! ```
//!
//! * `panic@i` — job `i` panics instead of running, exercising the pool's
//!   `catch_unwind` isolation.
//! * `overrun@i` — job `i` stalls past its soft deadline before starting,
//!   exercising cooperative cancellation and deadline classification.
//! * `corrupt-stats@i` — the stats-store entry written by job `i` is
//!   corrupted after the write, exercising the store's checksum rejection
//!   and self-healing on `--resume`.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// Which job indexes misbehave, and how.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    panics: BTreeSet<usize>,
    overruns: BTreeSet<usize>,
    corrupt_stats: BTreeSet<usize>,
}

impl FaultPlan {
    /// Parses a fault spec like `panic@3,overrun@5,corrupt-stats@2`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed entries, unknown
    /// fault kinds, or a spec that names no faults at all.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (kind, idx) = part
                .split_once('@')
                .ok_or_else(|| format!("fault `{part}` is not of the form kind@index"))?;
            let index: usize = idx
                .trim()
                .parse()
                .map_err(|_| format!("fault `{part}`: `{}` is not a job index", idx.trim()))?;
            match kind.trim() {
                "panic" => plan.panics.insert(index),
                "overrun" => plan.overruns.insert(index),
                "corrupt-stats" => plan.corrupt_stats.insert(index),
                other => {
                    return Err(format!(
                        "unknown fault kind `{other}` (expected panic, overrun, or corrupt-stats)"
                    ))
                }
            };
        }
        if plan.is_inert() {
            return Err("fault spec names no faults".to_string());
        }
        Ok(plan)
    }

    /// True when the plan names no faults.
    #[must_use]
    pub(crate) fn is_inert(&self) -> bool {
        self.panics.is_empty() && self.overruns.is_empty() && self.corrupt_stats.is_empty()
    }

    /// Should job `index` panic instead of running?
    #[must_use]
    pub fn panics_at(&self, index: usize) -> bool {
        self.panics.contains(&index)
    }

    /// Should job `index` stall past its soft deadline?
    #[must_use]
    pub(crate) fn overruns_at(&self, index: usize) -> bool {
        self.overruns.contains(&index)
    }

    /// Should the stats entry written by job `index` be corrupted?
    #[must_use]
    pub fn corrupts_stats_at(&self, index: usize) -> bool {
        self.corrupt_stats.contains(&index)
    }
}

/// The panic an armed `panic@i` fault raises (kept as a function so the
/// message format is shared between injection and its tests).
pub(crate) fn fire_panic(index: usize) -> ! {
    panic!("injected fault: panic@{index}")
}

/// Blocks until `deadline` (plus a grace millisecond) has passed — the
/// `overrun@i` fault. Without a deadline, stalls a token few milliseconds
/// so the fault is still observable in logs.
pub(crate) fn stall_past(deadline: Option<Instant>) {
    let until = deadline.unwrap_or_else(|| Instant::now() + Duration::from_millis(2))
        + Duration::from_millis(1);
    while Instant::now() < until {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Corrupts one byte of `path` in place (the `corrupt-stats@i` fault):
/// models a torn write or bit rot that the stats store's checksum must
/// reject on the next read.
///
/// # Errors
///
/// Propagates I/O errors from reading or rewriting the file.
pub(crate) fn corrupt_file(path: &Path) -> std::io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    match bytes.last_mut() {
        Some(b) => *b ^= 0xFF,
        None => bytes.push(0xA5),
    }
    std::fs::write(path, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_grammar() {
        let plan = FaultPlan::parse("panic@3, overrun@5 ,corrupt-stats@2").unwrap();
        assert!(plan.panics_at(3) && !plan.panics_at(5));
        assert!(plan.overruns_at(5) && !plan.overruns_at(3));
        assert!(plan.corrupts_stats_at(2) && !plan.corrupts_stats_at(0));
    }

    #[test]
    fn repeated_and_multiple_indexes_accumulate() {
        let plan = FaultPlan::parse("panic@1,panic@1,panic@9").unwrap();
        assert!(plan.panics_at(1) && plan.panics_at(9));
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in ["", "  ", "panic", "panic@", "panic@x", "fizzle@3", "@3"] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn corrupt_file_changes_the_bytes() {
        let dir = std::env::temp_dir().join(format!("sb-fault-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.bin");
        std::fs::write(&path, b"checksummed payload").unwrap();
        corrupt_file(&path).unwrap();
        assert_ne!(std::fs::read(&path).unwrap(), b"checksummed payload");
        std::fs::remove_dir_all(&dir).ok();
    }
}
