//! The FNV-1a hasher shared by every hot, small-key hash map in the
//! workspace.
//!
//! The A\* state index hashes keys that are a handful of `i64`
//! coordinates, millions of times per batch. The standard library's
//! SipHash is DoS-resistant but an order of magnitude slower on such
//! keys; since every key is program-generated geometry (never
//! attacker-controlled input), the plain FNV-1a mix is the right trade. The hasher is deterministic
//! (fixed offset basis, no per-process seed), which also keeps hash-map
//! *capacity growth* reproducible across runs — though no caller may
//! depend on iteration order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a over 8-byte words (with a byte-wise fallback for `write`).
///
/// The `write_u64`/`write_i64` fast paths fold whole words in one
/// multiply instead of eight, which is what the coordinate-tuple keys
/// hit. The state starts at the FNV offset basis so the write paths are
/// branch-free (no "uninitialized" sentinel to re-check per write).
#[derive(Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_i32(&mut self, v: i32) {
        self.write_u64(v as u32 as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for [`FnvHasher`] (zero-sized, `Default`).
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// A `HashMap` keyed with [`FnvHasher`] — the map type of every hot,
/// small-key index in the workspace.
pub type FnvHashMap<K, V> = HashMap<K, V, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn deterministic_across_instances() {
        let h = |v: u64| {
            let mut h = FnvHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }

    #[test]
    fn word_and_byte_paths_mix_all_input() {
        // Different multi-field keys must (overwhelmingly) hash apart.
        let hash_pair = |a: i64, b: i64| {
            let mut h = FnvHasher::default();
            a.hash(&mut h);
            b.hash(&mut h);
            h.finish()
        };
        assert_ne!(hash_pair(1, 2), hash_pair(2, 1));
        assert_ne!(hash_pair(0, 0), hash_pair(0, 1));
    }

    #[test]
    fn map_alias_works() {
        let mut m: FnvHashMap<(i64, i64), usize> = FnvHashMap::default();
        m.insert((3, 4), 7);
        assert_eq!(m.get(&(3, 4)), Some(&7));
        assert_eq!(m.get(&(4, 3)), None);
    }
}
