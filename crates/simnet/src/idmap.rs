//! Hash maps keyed by ids the simulation issues itself.
//!
//! Every flow and timer crosses several id-keyed maps (the engine's
//! flows by id, pending timers, flow-group lookup, the drivers'
//! flow → step tables, retry and fault timers). The keys are sequential integers — or short arrays
//! of them — minted by this program, never by an outside party, so the
//! collision resistance SipHash buys is wasted on them while its cost is
//! paid several times per event. [`IdMap`] is a `HashMap` with one
//! multiply-rotate round per 64-bit word instead (the FxHash function).
//!
//! Iteration order of an `IdMap` is as arbitrary as any `HashMap`'s:
//! anything that leaves the map in an observable order must be sorted
//! first. Keep `std`'s default hasher for keys that arrive from outside
//! the program.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashing with [`IdHasher`]; build one with
/// `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// FxHash: `state = (state.rotl(5) ^ word) * K` per 64-bit word.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: T) -> u64 {
        let mut h = IdHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn sequential_ids_spread_over_low_and_high_bits() {
        // hashbrown indexes buckets with the low bits and tags entries with
        // the top seven; sequential ids must not collapse either.
        let hashes: Vec<u64> = (0u64..1024).map(hash_of).collect();
        let mut low: Vec<u64> = hashes.iter().map(|h| h & 1023).collect();
        low.sort_unstable();
        low.dedup();
        assert_eq!(low.len(), 1024, "low bits collide on sequential ids");
        let mut top: Vec<u64> = hashes.iter().map(|h| h >> 57).collect();
        top.sort_unstable();
        top.dedup();
        assert!(top.len() > 64, "top bits barely vary: {}", top.len());
    }

    #[test]
    fn byte_slices_hash_every_word_and_the_tail() {
        let a = [1u32, 2, 3, 4, 5, 6, 7, 8];
        let mut b = a;
        b[7] = 9;
        assert_ne!(hash_of(a), hash_of(b));
        assert_ne!(hash_of([1u8, 2, 3]), hash_of([1u8, 2, 4]));
    }

    #[test]
    fn id_map_behaves_like_a_map() {
        let mut m: IdMap<u64, u32> = IdMap::default();
        for i in 0..10_000u64 {
            m.insert(i, i as u32);
        }
        for i in (0..10_000u64).step_by(2) {
            assert_eq!(m.remove(&i), Some(i as u32));
        }
        assert_eq!(m.len(), 5_000);
        assert_eq!(m.get(&1), Some(&1));
        assert_eq!(m.get(&2), None);
    }
}
