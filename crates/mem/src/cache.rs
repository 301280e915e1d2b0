//! A set-associative cache with true-LRU replacement.

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: usize,
    /// Hit latency in cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// A 32 KiB, 8-way, 64 B-line L1 data cache with a 4-cycle hit latency
    /// (the realistic latency the paper insists on in §9.5).
    #[must_use]
    pub(crate) fn l1d_default() -> Self {
        CacheConfig {
            sets: 64,
            ways: 8,
            line_bytes: 64,
            latency: 4,
        }
    }

    /// A 512 KiB, 8-way L2 with a 14-cycle hit latency.
    #[must_use]
    pub(crate) fn l2_default() -> Self {
        CacheConfig {
            sets: 1024,
            ways: 8,
            line_bytes: 64,
            latency: 14,
        }
    }
}

/// What one [`Cache::access_traced`] call did to the cache state. Line
/// addresses are aligned to the cache's line size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct AccessTrace {
    /// Whether the access hit.
    pub(crate) hit: bool,
    /// The line installed by a miss (`None` on a hit).
    pub(crate) filled_line: Option<u64>,
    /// The victim line the fill evicted, if the set was full.
    pub(crate) evicted_line: Option<u64>,
}

/// A set-associative, true-LRU cache model (tags only; no data payload).
///
/// Storage is one flat array of `sets * ways` line tags plus a per-set
/// occupancy count. Each set's valid lines fill the front of its run of
/// `ways` slots in recency order, most recently used first, so the LRU
/// victim of a full set is always its last way. The hit probe touches one
/// contiguous run of tags, which matters because this sits under every
/// simulated memory access.
///
/// # Example
///
/// The cache is internal to [`MemoryHierarchy`](crate::MemoryHierarchy);
/// its replacement order shows through the hierarchy's L1D probe.
///
/// ```
/// use sb_mem::{HierarchyConfig, MemoryHierarchy, ServedBy};
/// let mut cfg = HierarchyConfig::rtl_default();
/// cfg.l1_prefetch_degree = 0;
/// cfg.l2_prefetch_degree = 0;
/// let mut m = MemoryHierarchy::new(cfg);
/// // Lines 4 KiB apart share one set of the 64-set, 8-way L1D.
/// for i in 0..8u64 {
///     m.access(i * 0x1000, None);
/// }
/// assert_eq!(m.access(0, None).served_by, ServedBy::L1); // now most recent
/// m.access(8 * 0x1000, None); // set full: evicts the LRU line, 0x1000
/// assert!(m.probe_l1d(0));
/// assert!(!m.probe_l1d(0x1000));
/// ```
#[derive(Clone, Debug)]
pub(crate) struct Cache {
    config: CacheConfig,
    /// Line tags, `ways` consecutive slots per set: valid lines first,
    /// most recently used first.
    tags: Vec<u64>,
    /// Valid lines per set.
    filled: Vec<u32>,
    /// `log2(line_bytes)`, precomputed: the index/tag split runs on every
    /// simulated memory access, and the compiler cannot know the runtime
    /// divisor is a power of two.
    line_shift: u32,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line_bytes` is not a power of two, or `ways` is 0.
    #[must_use]
    pub(crate) fn new(config: CacheConfig) -> Self {
        assert!(config.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.ways > 0, "associativity must be positive");
        Cache {
            config,
            tags: vec![0; config.sets * config.ways],
            filled: vec![0; config.sets],
            line_shift: config.line_bytes.trailing_zeros(),
        }
    }

    fn index_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let idx = (line as usize) & (self.config.sets - 1);
        (idx, line)
    }

    /// Accesses `addr`, filling its line on a miss (evicting the LRU line
    /// of a full set), and reports the cache-state changes the access
    /// caused: the feed for the leakage observer, which attributes every
    /// fill and eviction to the instruction that triggered it.
    pub(crate) fn access_traced(&mut self, addr: u64) -> AccessTrace {
        let (idx, tag) = self.index_and_tag(addr);
        let ways = self.config.ways;
        let len = self.filled[idx] as usize;
        let run = &mut self.tags[idx * ways..(idx + 1) * ways];
        if let Some(w) = run[..len].iter().position(|&t| t == tag) {
            if w > 0 {
                run.copy_within(0..w, 1);
                run[0] = tag;
            }
            return AccessTrace {
                hit: true,
                filled_line: None,
                evicted_line: None,
            };
        }
        let (kept, evicted_line) = if len == ways {
            (ways - 1, Some(run[ways - 1] << self.line_shift))
        } else {
            self.filled[idx] += 1;
            (len, None)
        };
        run.copy_within(0..kept, 1);
        run[0] = tag;
        AccessTrace {
            hit: false,
            filled_line: Some(tag << self.line_shift),
            evicted_line,
        }
    }

    /// Whether `addr`'s line is present, without touching LRU state or
    /// filling — the attacker's probe primitive.
    #[must_use]
    pub(crate) fn probe(&self, addr: u64) -> bool {
        let (idx, tag) = self.index_and_tag(addr);
        let start = idx * self.config.ways;
        self.tags[start..start + self.filled[idx] as usize].contains(&tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_bytes: 64,
            latency: 4,
        })
    }

    /// Whether an access hit.
    fn hit(c: &mut Cache, addr: u64) -> bool {
        c.access_traced(addr).hit
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!hit(&mut c, 0));
        assert!(hit(&mut c, 0));
        assert!(hit(&mut c, 63), "same line");
        assert!(!hit(&mut c, 64), "next line is a different set/line");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds lines with even line-number (2 sets).
        hit(&mut c, 0); // line 0 -> set 0
        hit(&mut c, 256); // line 4 -> set 0
        hit(&mut c, 0); // touch line 0, line 4 is now LRU
        hit(&mut c, 512); // line 8 -> set 0: evicts line 4
        assert!(c.probe(0));
        assert!(!c.probe(256));
        assert!(c.probe(512));
    }

    #[test]
    fn probe_does_not_fill_or_touch() {
        let mut c = tiny();
        assert!(!c.probe(0x40));
        assert!(!hit(&mut c, 0x40), "the probe filled nothing");
        assert!(c.probe(0x40));
        // Set 0: line 4, then line 0 (now MRU). Probing line 4 must not
        // refresh it, so line 8 still evicts it.
        hit(&mut c, 256);
        hit(&mut c, 0);
        assert!(c.probe(256));
        hit(&mut c, 512);
        assert!(!c.probe(256), "the probe touched no LRU state");
        assert!(c.probe(0));
    }

    #[test]
    fn traced_access_reports_fill_and_eviction() {
        let mut c = tiny(); // 2 sets x 2 ways
        let cold = c.access_traced(0);
        assert_eq!(
            cold,
            AccessTrace {
                hit: false,
                filled_line: Some(0),
                evicted_line: None,
            }
        );
        assert!(c.access_traced(0).hit, "warm re-access");
        hit(&mut c, 256); // line 4 -> set 0
        let evicting = c.access_traced(512); // set 0 full: evicts LRU line 0
        assert_eq!(evicting.filled_line, Some(512));
        assert_eq!(evicting.evicted_line, Some(0));
        assert!(!c.probe(0));
    }

    #[test]
    fn capacity_math() {
        let bytes = |c: CacheConfig| c.sets * c.ways * c.line_bytes;
        assert_eq!(bytes(CacheConfig::l1d_default()), 32 * 1024);
        assert_eq!(bytes(CacheConfig::l2_default()), 512 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = Cache::new(CacheConfig {
            sets: 3,
            ways: 1,
            line_bytes: 64,
            latency: 1,
        });
    }
}
