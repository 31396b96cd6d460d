//! Deterministic, non-cryptographic hashing for simulator-internal maps.
//!
//! `std::collections::HashMap`'s default `RandomState` costs two things the
//! simulator cannot afford: SipHash cycles on every lookup of a hot
//! per-request path, and per-process random seeding — pure waste in a
//! bit-deterministic simulator whose keys are internal integer ids, not
//! attacker-controlled input. [`DetHasher`] replaces it with an FxHash-style
//! multiply-xor-shift mixer (the SplitMix64 finalizer applied per word),
//! which is a few instructions per 8-byte key and produces the same table
//! iteration-independent behavior on every run.
//!
//! Use [`FxHashMap`] anywhere the keys are internal ids.
//! Do **not** use it for untrusted external input.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A deterministic word-at-a-time hasher (SplitMix64-finalizer rounds).
///
/// Quality is ample for integer-id keys: the finalizer is a full-avalanche
/// bijection on each 64-bit word, so sequential ids (the common case —
/// `RequestId`s count up from per-source bases) spread uniformly across
/// buckets.
#[derive(Debug, Default, Clone)]
pub struct DetHasher {
    state: u64,
}

impl DetHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let mut z = self.state ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.state = z ^ (z >> 31);
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Fold the length in so "ab" and "ab\0" hash differently.
            self.mix(u64::from_le_bytes(buf) ^ ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// `BuildHasher` for [`DetHasher`]; zero-sized, no per-map seed.
pub(crate) type DetBuildHasher = BuildHasherDefault<DetHasher>;

/// A `HashMap` with deterministic FxHash-style hashing.
pub type FxHashMap<K, V> = HashMap<K, V, DetBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        DetBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"flood"), hash_of(&"flood"));
    }

    #[test]
    fn sequential_ids_spread() {
        // Sequential ids (incl. ids based at 1 << 40) must not collide in
        // low bits — that's what the table indexes on.
        let base = 1u64 << 40;
        let mut low7 = std::collections::HashSet::new();
        for i in 0..128u64 {
            low7.insert(hash_of(&(base + i)) & 0x7f);
        }
        // A uniform hash leaves ~81 of 128 buckets occupied (birthday
        // collisions); a poor mixer (e.g. identity) would leave far
        // fewer — or exactly 128, betraying no avalanche at all.
        assert!(
            (64..=110).contains(&low7.len()),
            "low-bit spread not uniform-like: {}",
            low7.len()
        );
    }

    #[test]
    fn length_distinguishes_prefixes() {
        assert_ne!(hash_of(&b"ab".as_slice()), hash_of(&b"ab\0".as_slice()));
    }

    #[test]
    fn map_works_as_drop_in() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1 << 40, "a");
        m.insert((1 << 40) + 1, "b");
        assert_eq!(m.get(&(1 << 40)), Some(&"a"));
        assert_eq!(m.len(), 2);
        m.remove(&(1 << 40));
        assert_eq!(m.get(&(1 << 40)), None);
    }
}
