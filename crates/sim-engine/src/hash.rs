//! A fast hasher for maps keyed by dense integer ids.
//!
//! Job ids are sequential integers, so SipHash's DoS resistance buys
//! nothing on the simulator's hot-path maps while dominating their
//! lookup cost. [`SeqHasher`] is the classic multiply–xorshift integer
//! finalizer (the SplitMix64 constant), hand-rolled because the workspace
//! builds fully offline — no `fxhash`/`ahash` dependency is available.
//!
//! The hasher is keyless, so iteration order of an [`IntMap`] is a pure
//! function of its contents. Callers still must not let iteration order
//! reach simulation output: the maps are lookup tables, never walked.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply–xorshift hasher for integer keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct SeqHasher(u64);

impl Hasher for SeqHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for keys that are not `u64`-backed ids: FNV-1a.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        self.0 = h;
    }
}

/// The `BuildHasher` for [`SeqHasher`].
pub type SeqBuild = BuildHasherDefault<SeqHasher>;

/// A `HashMap` keyed by an integer id, hashed with [`SeqHasher`].
pub type IntMap<K, V> = HashMap<K, V, SeqBuild>;

/// A `HashSet` of integer ids, hashed with [`SeqHasher`].
pub type IntSet<K> = HashSet<K, SeqBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        SeqBuild::default().hash_one(v)
    }

    #[test]
    fn sequential_keys_spread_over_low_and_high_bits() {
        // hashbrown picks buckets from the low bits and tags from the top
        // seven: both must vary across consecutive ids.
        let low: IntSet<u64> = (0..64u64).map(|i| hash_of(i) & 63).collect();
        let high: IntSet<u64> = (0..64u64).map(|i| hash_of(i) >> 57).collect();
        assert!(low.len() > 32, "low bits cluster: {}", low.len());
        assert!(high.len() > 32, "top bits cluster: {}", high.len());
    }
}
