//! The one key hash: the partition function keyed exchanges route by, the
//! hasher of the keyed operators' and graph vertices' tables, and the
//! hasher of the progress tracker's pointstamp count tables.
//!
//! It is an Fx-style word hash (one rotate, xor and multiply per 64-bit
//! word, as in rustc's `FxHasher`) followed by murmur3's 64-bit finalizer.
//! The finalizer matters because `partition` keeps only the low bits of
//! the hash when the peer count is a power of two, and a bare Fx product
//! keeps its entropy in the high ones.
//!
//! Unlike `std`'s `DefaultHasher` the result is fixed: it has no key, it
//! reads multi-byte input little-endian, and it never changes with the
//! Rust release. That is a contract, because the same value decides which
//! worker owns a key both in live routing and in a checkpoint's shard cut
//! (a blob cut by another hash would restore keys onto the wrong worker).
//! Being unkeyed, it lets an adversary who chooses the keys make them
//! collide — the trade timely dataflow makes too. Being unkeyed also makes
//! a [`KeyMap`]'s iteration order a function of its operations alone, the
//! same on every run, where a `std` map's varies per process.
//!
//! It lives beside the codec because, like the codec, its output is a
//! stable format every crate must agree on.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Fx's multiplier.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// The streaming state of [`hash_of`]; also the hasher of [`KeyMap`].
#[derive(Clone, Copy, Debug, Default)]
pub struct KeyHasher {
    hash: u64,
}

impl KeyHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for KeyHasher {
    /// Eight bytes a word; a short tail is zero-padded and carries its
    /// length in its top byte, so `"a"` and `"a\0"` differ.
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some((word, rest)) = bytes.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*word));
            bytes = rest;
        }
        if !bytes.is_empty() {
            self.add(tail_word(bytes));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    /// As a `u64` on every target, so 32- and 64-bit peers agree.
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// `tail` (1 to 7 bytes) as a zero-padded little-endian word with its
/// length in the top byte. Every position is read with a select, not a
/// branch: keys' lengths vary, and a branch on the byte count would
/// mispredict on most of them.
#[inline]
fn tail_word(tail: &[u8]) -> u64 {
    let mut word = (tail.len() as u64) << 56;
    for i in 0..7 {
        word |= tail.get(i).map_or(0, |&byte| u64::from(byte)) << (8 * i);
    }
    word
}

/// A hash table keyed by [`hash_of`]'s hash.
pub type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// The partitioning function of keyed operators ("group by" routing,
/// §3.1): a fixed 64-bit hash, the same in every process and release.
#[inline]
pub fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = KeyHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The values are the contract: a change here re-routes every key and
    /// orphans every checkpoint shard, so it needs a new blob version.
    #[test]
    fn hash_of_is_pinned() {
        let pinned = [
            (hash_of(&0u64), 0),
            (hash_of(&1u64), 0x37e8_d294_6949_7cd2),
            (hash_of(&42u64), 0x2558_5839_4b61_ab76),
            (hash_of("hello"), 0xca9a_826f_c58f_4ef2),
            (hash_of(&"w17".to_string()), 0x4f4f_67b0_ccd4_e22d),
            (hash_of(&(3u64, 4u64)), 0x6d85_eb3c_e580_0db6),
            (hash_of(&("w17".to_string(), 9u64)), 0xc777_bcd0_c32e_72a4),
        ];
        for (i, (got, want)) in pinned.into_iter().enumerate() {
            assert_eq!(got, want, "case {i}: {got:#018x}");
        }
    }

    #[test]
    fn strings_hash_like_their_slices_and_tails_carry_their_length() {
        assert_eq!(hash_of("word"), hash_of(&"word".to_string()));
        assert_ne!(hash_of("a"), hash_of("a\0"));
        assert_ne!(hash_of("abcdefgh"), hash_of("abcdefgh\0"));
        assert_ne!(hash_of(&(1u64, 2u64)), hash_of(&(2u64, 1u64)));
    }

    /// Every peer's share of `hashes` is within ±10 % of uniform.
    fn assert_balanced(what: &str, hashes: &[u64]) {
        for peers in [2u64, 3, 4, 8] {
            let mut counts = vec![0usize; peers as usize];
            for &h in hashes {
                counts[(h % peers) as usize] += 1;
            }
            let fair = hashes.len() as f64 / peers as f64;
            for (peer, &n) in counts.iter().enumerate() {
                let skew = (n as f64 - fair).abs() / fair;
                assert!(
                    skew <= 0.10,
                    "{what}: peer {peer} of {peers} holds {n} keys, {:.1} % off {fair}",
                    skew * 100.0
                );
            }
        }
    }

    #[test]
    fn sequential_integers_and_words_split_evenly() {
        let integers: Vec<u64> = (0..100_000u64).map(|i| hash_of(&i)).collect();
        assert_balanced("sequential u64", &integers);
        // The vocabulary the word-count corpus draws Zipf samples from.
        let words: Vec<u64> = (0..100_000u64).map(|r| hash_of(&format!("w{r}"))).collect();
        assert_balanced("zipf vocabulary", &words);
    }
}
