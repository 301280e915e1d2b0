//! The FNV-1a (64-bit) definition every workspace crate shares.
//!
//! Cache keys, per-benchmark seeds, configuration and profile fingerprints
//! and on-disk checksums all fold through these helpers, so every one of
//! them changes together or not at all. The values are persisted (cache
//! file names, stored checksums), so they must stay bit-identical.

/// FNV-1a 64-bit offset basis.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const PRIME: u64 = 0x100_0000_01b3;

/// One xor-then-multiply fold step.
#[inline]
#[must_use]
pub fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(PRIME)
}

/// Continues an FNV-1a chain from `h` over `bytes`, one byte per step.
#[inline]
#[must_use]
pub fn fold_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| fold(h, u64::from(b)))
}

/// FNV-1a of a byte slice.
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    fold_bytes(OFFSET, bytes)
}

/// FNV-1a of a string's UTF-8 bytes.
#[must_use]
pub fn hash_str(s: &str) -> u64 {
    hash_bytes(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_64_vectors() {
        assert_eq!(hash_str(""), OFFSET);
        assert_eq!(hash_str("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_str("foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fold_bytes(hash_str("foo"), b"bar"), hash_str("foobar"));
    }
}
