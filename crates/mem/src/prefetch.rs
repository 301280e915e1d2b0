//! A stride prefetcher (the gem5 configuration the paper lists in Table 2
//! uses stride prefetchers at both L1D and L2; both observe the same
//! demand stream, so the hierarchy keeps one table for the two). The
//! static analyzer (`sb-analysis`) drives this same table, so its
//! prefetch model is the simulator's by construction.
//!
//! Streams are tracked per 4 KiB region: when the same region shows two
//! consecutive accesses with an identical stride, the prefetcher emits
//! prefetch addresses `degree` strides ahead. This captures the behaviour
//! that makes streaming benchmarks like `503.bwaves` insensitive to the
//! secure schemes — their loads hit in cache regardless of delayed
//! broadcasts.

use sb_isa::MixHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

#[derive(Clone, Copy, Debug)]
struct RegionEntry {
    last_addr: u64,
    stride: i64,
    confidence: u8,
}

/// A per-region stride detector with configurable prefetch degree. It
/// tracks at most 64 regions; a new region arriving at a full table
/// clears it.
#[derive(Clone, Debug)]
pub struct StridePrefetcher {
    table: HashMap<u64, RegionEntry, BuildHasherDefault<MixHasher>>,
    degree: usize,
    max_entries: usize,
}

impl StridePrefetcher {
    /// Creates a prefetcher issuing `degree` prefetches per confident access.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is 0.
    #[must_use]
    pub fn new(degree: usize) -> Self {
        assert!(degree > 0, "prefetch degree must be positive");
        StridePrefetcher {
            table: HashMap::default(),
            degree,
            max_entries: 64,
        }
    }

    /// Observes a demand access and appends the addresses to prefetch to
    /// `out` (nothing until the stream is confident). The caller owns and
    /// recycles the buffer: this sits under every simulated memory access.
    pub fn observe_into(&mut self, addr: u64, out: &mut Vec<u64>) {
        let region = addr >> 12;
        // Single-lookup hit path: steady state is an existing stream, and
        // this sits under every simulated memory access.
        let Some(entry) = self.table.get_mut(&region) else {
            if self.table.len() >= self.max_entries {
                // Simple capacity bound: drop the whole table rather than
                // model replacement; streams re-train in two accesses.
                self.table.clear();
            }
            // A fresh stream observes no stride and emits nothing.
            self.table.insert(
                region,
                RegionEntry {
                    last_addr: addr,
                    stride: 0,
                    confidence: 0,
                },
            );
            return;
        };
        let stride = addr as i64 - entry.last_addr as i64;
        if stride != 0 {
            if stride == entry.stride {
                entry.confidence = entry.confidence.saturating_add(1);
            } else {
                entry.stride = stride;
                entry.confidence = 0;
            }
            if entry.confidence >= 1 {
                for k in 1..=self.degree {
                    let target = addr as i64 + stride * k as i64;
                    if target >= 0 {
                        out.push(target as u64);
                    }
                }
            }
        }
        entry.last_addr = addr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The targets one access emits, through a fresh buffer.
    fn observe(p: &mut StridePrefetcher, addr: u64) -> Vec<u64> {
        let mut out = Vec::new();
        p.observe_into(addr, &mut out);
        out
    }

    #[test]
    fn trains_on_constant_stride() {
        let mut p = StridePrefetcher::new(2);
        assert!(observe(&mut p, 0x1000).is_empty(), "first access");
        assert!(
            observe(&mut p, 0x1040).is_empty(),
            "stride learned, not confident"
        );
        let pf = observe(&mut p, 0x1080);
        assert_eq!(pf, vec![0x10C0, 0x1100]);
    }

    #[test]
    fn stride_change_retrains() {
        let mut p = StridePrefetcher::new(1);
        observe(&mut p, 0x1000);
        observe(&mut p, 0x1040);
        observe(&mut p, 0x1080);
        assert!(observe(&mut p, 0x1400).is_empty(), "stride changed");
        assert!(observe(&mut p, 0x1440).is_empty(), "re-training");
        assert_eq!(observe(&mut p, 0x1480), vec![0x14C0]);
    }

    #[test]
    fn random_accesses_do_not_prefetch() {
        let mut p = StridePrefetcher::new(2);
        observe(&mut p, 0x1000);
        assert!(observe(&mut p, 0x1038).is_empty());
        let _ = observe(&mut p, 0x1a10); // irregular follow-up in the same region
        let pf = observe(&mut p, 0x1990);
        assert!(
            pf.is_empty(),
            "no repeated stride -> no prefetch, got {pf:?}"
        );
    }

    #[test]
    fn distinct_regions_track_independently() {
        let mut p = StridePrefetcher::new(1);
        observe(&mut p, 0x1000);
        observe(&mut p, 0x9000);
        observe(&mut p, 0x1040);
        observe(&mut p, 0x9040);
        assert_eq!(observe(&mut p, 0x1080), vec![0x10C0]);
        assert_eq!(observe(&mut p, 0x9080), vec![0x90C0]);
    }

    #[test]
    fn reset_forgets_streams() {
        // The table resets when a new region arrives with all 64 entries
        // taken: a stream trained before then starts over.
        let mut p = StridePrefetcher::new(1);
        observe(&mut p, 0x1000);
        observe(&mut p, 0x1040);
        for region in 2..=64u64 {
            observe(&mut p, region << 12);
        }
        assert_eq!(observe(&mut p, 0x1080), vec![0x10C0], "64 regions fit");
        observe(&mut p, 65 << 12);
        assert!(
            observe(&mut p, 0x10C0).is_empty(),
            "the 65th region reset the table"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_degree_rejected() {
        let _ = StridePrefetcher::new(0);
    }
}
