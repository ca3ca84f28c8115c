//! A map bounded in entries and bytes, kept as two generations.
//!
//! Every table that grows with the distinct queries a process sees — the
//! query-text cache ([`crate::TextCache`]), the interner
//! ([`crate::PatternInterner`]) and the engine's plan memo — is a
//! [`BoundedMap`] with its own constant
//! bounds, so a stream of distinct queries costs a bounded amount of
//! memory however long it runs.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// Entries and bytes a bounded table holds, both generations together.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Held {
    /// Entries held.
    pub entries: usize,
    /// Bytes the entries hold, as their owner counts them.
    pub bytes: usize,
}

/// A map holding at most `ENTRIES` entries of at most `BYTES` bytes, both
/// generations together. The bounds are part of the type, so every table
/// names its own constants and nothing can set them. An entry costs its
/// map slot plus the heap bytes its owner says it holds
/// ([`BoundedMap::insert`]).
///
/// **Eviction.** Entries live in two generations, each allowed half of
/// both bounds. New entries go into the current one. When it is full the
/// older generation is dropped whole and the current one becomes the
/// older. A hit in the older generation ([`BoundedMap::get`]) moves its
/// entry back into the current one. So a working set that fits in one
/// generation is stored once and never dropped, an entry is dropped only
/// after two flips passed it by, and a flood of distinct keys costs one
/// flip per full generation, never more memory. An entry larger than half
/// the byte bound is never stored.
#[derive(Debug)]
pub struct BoundedMap<K, V, const ENTRIES: usize, const BYTES: usize> {
    /// The current generation, then the older one; each entry with the
    /// bytes it was stored with.
    maps: [HashMap<K, (V, usize)>; 2],
    /// Each generation's byte total.
    bytes: [usize; 2],
    flips: u64,
    evicted: u64,
}

impl<K, V, const ENTRIES: usize, const BYTES: usize> Default for BoundedMap<K, V, ENTRIES, BYTES> {
    fn default() -> Self {
        BoundedMap { maps: [HashMap::new(), HashMap::new()], bytes: [0; 2], flips: 0, evicted: 0 }
    }
}

impl<K: Hash + Eq, V, const ENTRIES: usize, const BYTES: usize> BoundedMap<K, V, ENTRIES, BYTES> {
    /// The value under `key` if the current generation holds it. Takes
    /// `&self`, so a caller behind a read lock serves these hits and takes
    /// the write lock only for [`BoundedMap::get`].
    pub fn get_current<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.maps[0].get(key).map(|(v, _)| v)
    }

    /// The value under `key` from either generation; an entry found in the
    /// older one is moved into the current one first.
    pub fn get<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        if let Some((key, (value, bytes))) = self.maps[1].remove_entry(key) {
            self.bytes[1] -= bytes;
            self.store(key, value, bytes);
        }
        self.get_current(key)
    }

    /// Stores `value`, holding `heap` bytes, under `key` in the current
    /// generation, replacing any entry `key` had; flips first if the
    /// current generation is full. Stores nothing if the entry costs more
    /// than half the byte bound.
    pub fn insert(&mut self, key: K, value: V, heap: usize) {
        let bytes = std::mem::size_of::<(K, (V, usize))>() + heap;
        for (map, total) in self.maps.iter_mut().zip(&mut self.bytes) {
            *total -= map.remove(&key).map_or(0, |(_, b)| b);
        }
        if bytes <= BYTES / 2 {
            self.store(key, value, bytes);
        }
    }

    /// Puts an entry no generation holds into the current one.
    fn store(&mut self, key: K, value: V, bytes: usize) {
        if self.maps[0].len() >= ENTRIES / 2 || self.bytes[0] + bytes > BYTES / 2 {
            self.evicted += self.maps[1].len() as u64;
            self.maps[1].clear();
            self.maps.swap(0, 1);
            self.bytes = [0, self.bytes[0]];
            self.flips += 1;
        }
        self.bytes[0] += bytes;
        self.maps[0].insert(key, (value, bytes));
    }

    /// Keeps only the entries `keep` accepts; returns how many it dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let before = self.held().entries;
        for (map, total) in self.maps.iter_mut().zip(&mut self.bytes) {
            map.retain(|k, (v, _)| keep(k, v));
            *total = map.values().map(|(_, b)| b).sum();
        }
        before - self.held().entries
    }

    /// Entries and bytes held, both generations together.
    pub fn held(&self) -> Held {
        Held {
            entries: self.maps[0].len() + self.maps[1].len(),
            bytes: self.bytes[0] + self.bytes[1],
        }
    }

    /// Times the current generation filled and became the older one.
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// Entries dropped along with an older generation.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    #[test]
    fn a_flood_flips_whole_generations_and_keeps_a_touched_entry() {
        let mut map = BoundedMap::<u32, &str, 8, { 1 << 20 }>::default();
        map.insert(u32::MAX, "hot", 1);
        for i in 0..100u32 {
            map.insert(i, "cold", 1);
            assert!(map.get(&u32::MAX).is_some(), "a touched entry survives every flip");
            assert!(map.held().entries <= 8);
        }
        assert!(map.flips() > 0);
        // Each flip drops the older generation it found, full from the
        // second flip on.
        assert_eq!(map.evicted() as usize + map.held().entries, 101);
        let slot = size_of::<(u32, (&str, usize))>();
        assert_eq!(map.held().bytes, map.held().entries * (slot + 1));
    }

    #[test]
    fn bytes_bound_flips_before_entries_and_an_oversized_entry_is_not_stored() {
        // An entry costs its slot plus 50: seven fit in a generation.
        let mut map = BoundedMap::<u32, (), 1000, 1000>::default();
        let slot = size_of::<(u32, ((), usize))>();
        for i in 0..20 {
            map.insert(i, (), 50);
            assert!(map.held().bytes <= 1000);
        }
        assert!(map.flips() > 0 && map.held().entries < 20);
        map.insert(99, (), 501 - slot);
        assert!(map.get(&99).is_none());
    }

    #[test]
    fn insert_replaces_and_retain_keeps_the_byte_total() {
        let mut map = BoundedMap::<&str, u32, 4, 1000>::default();
        let slot = size_of::<(&str, (u32, usize))>();
        map.insert("a", 1, 5);
        map.insert("b", 2, 7);
        map.insert("c", 3, 9);
        map.insert("a", 4, 11);
        assert_eq!(map.held(), Held { entries: 3, bytes: 3 * slot + 27 });
        assert_eq!(map.get(&"a"), Some(&4));
        assert_eq!(map.retain(|_, &v| v != 2), 1);
        assert_eq!(map.held(), Held { entries: 2, bytes: 2 * slot + 20 });
        assert_eq!(map.retain(|&k, _| k != "c"), 1);
        assert_eq!(map.held(), Held { entries: 1, bytes: slot + 11 });
    }
}
