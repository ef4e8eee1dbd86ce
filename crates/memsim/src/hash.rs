//! One cheap, deterministic hasher for the simulator's integer-keyed maps.
//!
//! The standard library's SipHash resists hash flooding, which a simulator
//! fed its own addresses has no use for, and costs tens of nanoseconds per
//! key on the write path (the EPCM line store, the serve batcher's row map,
//! the payload generators' last-line maps). [`MixHasher`] folds each word
//! in with one XOR and one multiply by an odd constant and rotates the
//! product on `finish`, so the well-mixed high bits of the product land
//! where the table takes its bucket index from.
//!
//! The keys are simulated line and row coordinates, not adversarial
//! input, so giving up SipHash's resistance to crafted collisions costs
//! nothing here. Hashing is deterministic (no per-process seed), but a
//! map's iteration order still depends on its insertion history. Users
//! iterate none of these maps, so no output depends on that order; keep
//! it that way.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An odd multiplier with well-spread bits (from the Fx family of hashes).
const MULTIPLIER: u64 = 0xF135_7AEA_2E62_A9C5;

/// A multiply-rotate [`Hasher`] over 64-bit words (see the module docs).
///
/// # Examples
///
/// ```
/// use memsim::MixMap;
///
/// let mut slots: MixMap<u64, u32> = MixMap::default();
/// slots.insert(0x40, 7);
/// assert_eq!(slots.get(&0x40), Some(&7));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MixHasher {
    state: u64,
}

impl Hasher for MixHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = (self.state ^ n).wrapping_mul(MULTIPLIER);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }
}

/// Builds [`MixHasher`]s.
pub type BuildMixHasher = BuildHasherDefault<MixHasher>;

/// A `HashMap` hashed by [`MixHasher`].
pub type MixMap<K, V> = HashMap<K, V, BuildMixHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(value: T) -> u64 {
        BuildMixHasher::default().hash_one(value)
    }

    #[test]
    fn hashes_are_deterministic_and_spread() {
        assert_eq!(hash(42u64), hash(42u64));
        assert_eq!(hash((1u64, 2u64, 3u64)), hash((1u64, 2u64, 3u64)));
        assert_ne!(hash((1u64, 2u64, 3u64)), hash((3u64, 2u64, 1u64)));
        // Keys that differ only in high bits still differ in the low bits
        // a table indexes by.
        let low = |k: u64| hash(k) & 0xFFF;
        let distinct: std::collections::HashSet<u64> = (0..64u64).map(|i| low(i << 40)).collect();
        assert!(
            distinct.len() > 56,
            "{} of 64 low-bit patterns",
            distinct.len()
        );
    }

    #[test]
    fn byte_writes_fold_whole_words() {
        let mut a = MixHasher::default();
        a.write(&7u64.to_le_bytes());
        let mut b = MixHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }
}
