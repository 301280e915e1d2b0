//! Differential test: [`Cache`] against a timestamp true-LRU reference
//! model, compared on every access of seeded random streams.
//!
//! The reference keeps each set as an unordered list of `(line, last
//! use)` pairs and evicts the smallest timestamp: the textbook definition
//! of LRU, with no claim to speed. Any change to how `Cache` stores its
//! replacement state must keep every [`AccessTrace`] identical to it.

use crate::cache::{AccessTrace, Cache, CacheConfig};

/// Timestamp LRU over `sets` lists of `(line, last use)`.
struct TimestampLru {
    ways: usize,
    line_shift: u32,
    sets: Vec<Vec<(u64, u64)>>,
    tick: u64,
}

impl TimestampLru {
    fn new(config: CacheConfig) -> Self {
        TimestampLru {
            ways: config.ways,
            line_shift: config.line_bytes.trailing_zeros(),
            sets: vec![Vec::new(); config.sets],
            tick: 0,
        }
    }

    fn access(&mut self, addr: u64) -> AccessTrace {
        self.tick += 1;
        let line = addr >> self.line_shift;
        let idx = line as usize % self.sets.len();
        let set = &mut self.sets[idx];
        if let Some(entry) = set.iter_mut().find(|(l, _)| *l == line) {
            entry.1 = self.tick;
            return AccessTrace {
                hit: true,
                filled_line: None,
                evicted_line: None,
            };
        }
        let mut evicted_line = None;
        if set.len() == self.ways {
            let lru = (0..set.len()).min_by_key(|&i| set[i].1).unwrap();
            evicted_line = Some(set.remove(lru).0 << self.line_shift);
        }
        set.push((line, self.tick));
        AccessTrace {
            hit: false,
            filled_line: Some(line << self.line_shift),
            evicted_line,
        }
    }

    fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        self.sets[line as usize % self.sets.len()]
            .iter()
            .any(|&(l, _)| l == line)
    }
}

/// SplitMix64: a seeded stream with no dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn check_geometry(sets: usize, ways: usize) {
    let config = CacheConfig {
        sets,
        ways,
        line_bytes: 64,
        latency: 1,
    };
    // About twice as many distinct lines as the cache holds, so hits,
    // fills and evictions all occur; every 16th access is a far line.
    let universe = (2 * sets * ways) as u64 + 1;
    for seed in 0..8u64 {
        let mut cache = Cache::new(config);
        let mut model = TimestampLru::new(config);
        let mut state = seed;
        for step in 0..4000 {
            let r = splitmix(&mut state);
            let line = if r.is_multiple_of(16) {
                r >> 24
            } else {
                (r >> 8) % universe
            };
            let addr = line * 64 + (r >> 4) % 64;
            let want = model.access(addr);
            let got = cache.access_traced(addr);
            assert_eq!(
                got, want,
                "{sets}x{ways} seed {seed} step {step} addr {addr:#x}"
            );
            let probe = (splitmix(&mut state) >> 8) % universe * 64;
            assert_eq!(cache.probe(probe), model.probe(probe));
        }
    }
}

#[test]
fn direct_mapped_single_line_matches_timestamp_lru() {
    check_geometry(1, 1);
}

#[test]
fn two_by_two_matches_timestamp_lru() {
    check_geometry(2, 2);
}

#[test]
fn l1d_geometry_matches_timestamp_lru() {
    check_geometry(64, 8);
}
