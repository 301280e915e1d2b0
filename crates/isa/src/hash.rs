//! A multiply-xor hasher for small integer keys.
//!
//! Several simulator tables (the stride-prefetcher stream table, the
//! memory-dependence violator set) key hash maps by small integers on hot
//! paths where SipHash is needless overhead. The tables are only probed
//! point-wise — never iterated — so swapping the hasher is always
//! behavior-preserving there.

use std::hash::Hasher;

/// Multiply-xor [`Hasher`] for integer keys (FNV-style fold for the
/// generic byte path).
#[derive(Default)]
pub struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = crate::fnv::fold_bytes(self.0, bytes);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (n ^ (n >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::BuildHasherDefault;

    #[test]
    fn map_roundtrip_with_u64_and_usize_keys() {
        let mut m: HashMap<u64, u32, BuildHasherDefault<MixHasher>> = HashMap::default();
        for i in 0..1000u64 {
            m.insert(i * 4096, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(500 * 4096)), Some(&500));
        let mut s: std::collections::HashSet<usize, BuildHasherDefault<MixHasher>> =
            std::collections::HashSet::default();
        s.insert(42);
        assert!(s.contains(&42) && !s.contains(&43));
    }
}
