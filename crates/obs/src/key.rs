//! The workspace's one hasher for tables keyed by the simulator's own ids
//! (node ids, QP numbers, rkeys, endpoint ids, window offsets) and by the
//! engine's `u64` row keys.
//!
//! It lives in the lowest crate so the recorder can use it too; every
//! crate above names it through its re-export, `rshuffle_simnet::KeyMap`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply per integer written, and a rotate that brings the product's
/// well-mixed high bits down to where the table picks a bucket. It is not
/// seeded, so a table's layout — and the order it iterates in — is the
/// same in every process; no key here comes from an adversary, so
/// SipHash's resistance to chosen keys buys nothing.
#[derive(Clone, Copy, Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = (self.0.rotate_left(5) ^ key).wrapping_mul(0xF135_7AEA_2E62_A9C5);
    }

    #[inline]
    fn write_u32(&mut self, key: u32) {
        self.write_u64(u64::from(key));
    }

    #[inline]
    fn write_usize(&mut self, key: usize) {
        self.write_u64(key as u64);
    }

    /// Eight bytes at a time: a slice of node ids costs a multiply per id.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut le = [0; 8];
            le.copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(le));
        }
        let mut tail = [0; 8];
        let rest = words.remainder();
        if !rest.is_empty() {
            tail[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A map hashed by [`KeyHasher`].
pub type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;
/// A set hashed by [`KeyHasher`].
pub type KeySet<K> = HashSet<K, BuildHasherDefault<KeyHasher>>;

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;

    fn hash(key: impl Hash) -> u64 {
        BuildHasherDefault::<KeyHasher>::default().hash_one(key)
    }

    #[test]
    fn integer_keys_cost_one_multiply_each() {
        // Every width of integer id is the `u64` of its value, and a tuple
        // is its fields in order.
        assert_eq!(hash(7u32), hash(7u64));
        assert_eq!(hash(7usize), hash(7u64));
        let mut pair = KeyHasher::default();
        pair.write_u64(3);
        pair.write_u64(9);
        assert_eq!(hash((3usize, 9u32)), pair.finish());
        // Unseeded: the same key hashes the same in every table.
        assert_eq!(hash(12_345u64), hash(12_345u64));
        assert_ne!(hash(1u64), hash(2u64));
    }

    #[test]
    fn byte_slices_are_read_a_word_at_a_time() {
        let mut words = KeyHasher::default();
        words.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2, 3]);
        let mut by_hand = KeyHasher::default();
        by_hand.write_u64(1);
        by_hand.write_u64(0x0302);
        assert_eq!(words.finish(), by_hand.finish());
    }
}
