//! A compact fixed-capacity bitset.
//!
//! The embedding matcher in `xpv-semantics` maintains, for every pattern node,
//! the set of tree nodes it can map to. Documents in the engine benchmarks
//! reach tens of thousands of nodes, so these sets are kept as `u64` words
//! rather than `HashSet`s (see the perf-book guidance on hashing and
//! allocation pressure).
//!
//! It is also the one representation of a **set of document nodes** (bit
//! `i` ↔ arena slot `i`); [`BitSet::intersect_with`] and
//! [`BitSet::difference_count`] read a set from a shorter arena zero-padded.

use crate::tree::NodeId;

/// A fixed-capacity set of `usize` values in `0..len`.
#[derive(Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set with capacity for values `0..len`.
    pub fn new(len: usize) -> BitSet {
        BitSet { words: vec![0; len.div_ceil(64)], len }
    }

    /// The set holding exactly `items`, each below `len`.
    pub fn from_indices(len: usize, items: impl IntoIterator<Item = usize>) -> BitSet {
        let mut set = BitSet::new(len);
        items.into_iter().for_each(|i| set.insert(i));
        set
    }

    /// Capacity (the exclusive upper bound on stored values).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// A copy with capacity `len`, at least the current one: the added
    /// values are non-members. A shorter `len` is a caller's bug, rejected
    /// in every profile (release would otherwise keep members past it).
    pub fn grown(&self, len: usize) -> BitSet {
        assert!(len >= self.len, "a set only grows: {} -> {len}", self.len);
        let mut words = Vec::with_capacity(len.div_ceil(64));
        words.extend_from_slice(&self.words);
        words.resize(len.div_ceil(64), 0);
        BitSet { words, len }
    }

    /// Inserts `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Returns `true` if no element is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of elements.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection with a set of the same or a **smaller**
    /// capacity, read as zero-padded. A larger one is a caller's bug: debug
    /// builds reject it, release builds clip it to `self`'s capacity.
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert!(other.len <= self.len, "only a shorter set is padded");
        let shared = self.words.len().min(other.words.len());
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
        self.words[shared..].fill(0);
    }

    /// `|self ∖ other|`, with `other` of any capacity read as zero-padded.
    pub fn difference_count(&self, other: &BitSet) -> usize {
        let theirs = other.words.iter().chain(std::iter::repeat(&0));
        self.words.iter().zip(theirs).map(|(a, b)| (a & !b).count_ones() as usize).sum()
    }

    /// Inserts `lo..hi` (`hi` at most the capacity; nothing when `lo >= hi`):
    /// whole words are filled, the two ends masked.
    pub fn insert_range(&mut self, lo: usize, hi: usize) {
        debug_assert!(hi <= self.len);
        if lo >= hi {
            return;
        }
        let (first, last) = (lo / 64, (hi - 1) / 64);
        let (head, tail) = (!0u64 << (lo % 64), !0u64 >> (63 - (hi - 1) % 64));
        if first == last {
            self.words[first] |= head & tail;
        } else {
            self.words[first] |= head;
            self.words[first + 1..last].fill(!0);
            self.words[last] |= tail;
        }
    }

    /// Makes `self` an exact copy of `other` without reallocating.
    /// Capacities must match — the buffer-reuse path of the flat matcher.
    pub fn copy_from(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        self.words.copy_from_slice(&other.words);
    }

    /// Whether the two sets share any element. Word-parallel with early
    /// exit — the any-common-bit test the matcher and the intersection
    /// planner need without materializing the intersection.
    pub fn intersects(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// The smallest element, or `None` if the set is empty.
    pub fn first_set(&self) -> Option<usize> {
        self.words
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(wi, w)| wi * 64 + w.trailing_zeros() as usize)
    }

    /// The raw `u64` word array (bit `i` of the set lives at word `i / 64`,
    /// bit position `i % 64`). Exposed for word-parallel consumers like the
    /// flat matcher in `xpv-semantics`.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The positions `i` with `keys[i] <= max`. Per word: 64 compares into
    /// a byte each (a loop the compiler vectorizes), then each 8 bytes
    /// packed into 8 bits by one multiplication.
    pub fn at_most(keys: &[u8], max: u8) -> BitSet {
        let word = |chunk: &[u8]| {
            let mut flags = [0u8; 64];
            flags.iter_mut().zip(chunk).for_each(|(f, &k)| *f = u8::from(k <= max));
            let pack = |e: &[u8]| u64::from_le_bytes(e.try_into().expect("8 bytes"));
            flags
                .chunks_exact(8)
                .rev()
                .fold(0, |w, e| w << 8 | pack(e).wrapping_mul(0x0102_0408_1020_4080) >> 56)
        };
        BitSet { words: keys.chunks(64).map(word).collect(), len: keys.len() }
    }

    /// One level of a down-step as one borrow chain (`flat` module docs,
    /// *The ordered prefix*). The bits of `level` cut the capacity into
    /// segments; those starting in `F = left ∩ level ∖ above` are filled:
    /// with `X = level ∖ F`, `X − F` borrows from each start up to the next
    /// bit of `X`, so `(X − F) ∖ level` is their non-`level` bits. `left`
    /// loses `F`. Given `next` (a `Child` step) only that level of the fill
    /// is ORed into `self`; else (`//`) all of it, and `left` loses it too.
    pub fn fill_segments(
        &mut self,
        left: &mut BitSet,
        level: &BitSet,
        above: Option<&BitSet>,
        next: Option<&BitSet>,
    ) {
        debug_assert!(self.len == left.len && self.len == level.len);
        debug_assert!(above.iter().chain(&next).all(|m| m.len == self.len));
        let (mut borrow, pad) = (false, self.words.len() * 64 - self.len);
        for (i, (out, &lv)) in self.words.iter_mut().zip(&level.words).enumerate() {
            let f = left.words[i] & lv & !above.map_or(0, |a| a.words[i]);
            let (diff, b1) = (lv & !f).overflowing_sub(f);
            let (diff, b2) = diff.overflowing_sub(u64::from(borrow));
            borrow = b1 | b2;
            let fill = diff & !lv;
            *out |= fill & next.map_or(!0, |n| n.words[i]);
            left.words[i] &= !(f | if next.is_none() { fill } else { 0 });
        }
        // A chain still open at the capacity ran into the last word's padding.
        if let Some(last) = self.words.last_mut() {
            *last &= !0 >> pad;
        }
    }

    /// Inserts every index of `items` that is below the capacity and in
    /// `mask`.
    pub fn insert_masked(&mut self, items: impl IntoIterator<Item = usize>, mask: &BitSet) {
        debug_assert_eq!(self.len, mask.len);
        let kept = items.into_iter().filter(|&i| i < mask.len && mask.contains(i));
        kept.for_each(|i| self.insert(i));
    }

    /// Iterates over set elements in increasing order.
    pub fn iter(&self) -> Bits<'_> {
        self.iter_from(0)
    }

    /// Iterates over the elements at or above `start`, in increasing order.
    pub fn iter_from(&self, start: usize) -> Bits<'_> {
        let next_word = (start / 64).min(self.words.len());
        let bits = self.words.get(next_word).map_or(0, |w| w & (!0u64 << (start % 64)));
        Bits { words: &self.words, next_word: next_word + 1, bits }
    }

    /// The set read as arena slots: its elements as [`NodeId`]s, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter().map(|i| NodeId(i as u32))
    }
}

/// The word cursor behind [`BitSet::iter`]: `bits` holds the not-yet-yielded
/// bits of word `next_word - 1`.
#[derive(Clone, Debug)]
pub struct Bits<'a> {
    words: &'a [u64],
    next_word: usize,
    bits: u64,
}

impl Iterator for Bits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.bits = *self.words.get(self.next_word)?;
            self.next_word += 1;
        }
        let tz = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some((self.next_word - 1) * 64 + tz)
    }

    /// Word by word, with no cursor state kept between elements: the loop
    /// `for_each` and `collect` compile to.
    #[inline]
    fn fold<B, F: FnMut(B, usize) -> B>(self, init: B, mut f: F) -> B {
        let (mut acc, mut bits, mut base) = (init, self.bits, (self.next_word - 1) * 64);
        let mut rest = self.words.get(self.next_word..).unwrap_or(&[]).iter();
        loop {
            while bits != 0 {
                acc = f(acc, base + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
            match rest.next() {
                Some(&w) => (bits, base) = (w, base + 64),
                None => return acc,
            }
        }
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn iter_in_order() {
        let mut s = BitSet::new(200);
        for i in [5usize, 63, 64, 65, 190] {
            s.insert(i);
        }
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![5, 63, 64, 65, 190]);
    }

    #[test]
    fn union_and_intersection() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(1);
        a.insert(50);
        b.insert(50);
        b.insert(99);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 50, 99]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![50]);
    }

    #[test]
    fn grown_keeps_members_and_pads_with_non_members() {
        let s = BitSet::from_indices(70, [0usize, 63, 64, 69]);
        for len in [70, 128, 129, 1_000] {
            let g = s.grown(len);
            assert_eq!((g.capacity(), g.words().len()), (len, len.div_ceil(64)));
            assert_eq!(g.iter().collect::<Vec<_>>(), vec![0, 63, 64, 69]);
        }
        let mut g = BitSet::new(0).grown(65);
        g.insert(64);
        assert_eq!(g.count(), 1);
        assert!(std::panic::catch_unwind(|| s.grown(69)).is_err(), "never shrinks");
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::new(10);
        s.insert(3);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn zero_capacity() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn intersects_early_exit_semantics() {
        let mut a = BitSet::new(300);
        let mut b = BitSet::new(300);
        assert!(!a.intersects(&b), "empty sets are disjoint");
        a.insert(0);
        a.insert(299);
        b.insert(150);
        assert!(!a.intersects(&b));
        b.insert(299);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a), "symmetric");
        // Agreement with the naive definition on a mixed pair.
        let naive = a.iter().any(|i| b.contains(i));
        assert_eq!(a.intersects(&b), naive);
    }

    #[test]
    fn first_set_finds_lowest_bit() {
        let mut s = BitSet::new(200);
        assert_eq!(s.first_set(), None);
        s.insert(190);
        assert_eq!(s.first_set(), Some(190));
        s.insert(64);
        assert_eq!(s.first_set(), Some(64));
        s.insert(0);
        assert_eq!(s.first_set(), Some(0));
        s.remove(0);
        s.remove(64);
        assert_eq!(s.first_set(), Some(190));
    }

    #[test]
    fn at_most_thresholds_a_key_column() {
        let keys: Vec<u8> = (0..130).map(|i| i % 7).chain([u8::MAX]).collect();
        let low = BitSet::at_most(&keys, 2);
        assert_eq!(low.capacity(), 131);
        assert_eq!(
            low.iter().collect::<Vec<_>>(),
            (0..130).filter(|i| i % 7 <= 2).collect::<Vec<_>>()
        );
        assert_eq!(BitSet::at_most(&keys, u8::MAX - 1).count(), 130);
        assert_eq!(BitSet::at_most(&keys, u8::MAX).count(), 131, "no bit past the capacity");
        assert_eq!(BitSet::at_most(&[], 0), BitSet::new(0));
    }

    #[test]
    fn fill_segments_borrows_from_each_start_to_the_next_level_bit() {
        let of = |len, items: &[usize]| BitSet::from_indices(len, items.iter().copied());
        // The fill, slot by slot: the non-level bits from each start up to
        // the next level bit (or the capacity).
        let naive = |starts: &[usize], level: &BitSet| {
            let mut fill = BitSet::new(level.capacity());
            for &f in starts {
                let end = level.iter_from(f + 1).next().unwrap_or(level.capacity());
                fill.insert_range(f + 1, end);
            }
            fill
        };
        for cap in [270usize, 320] {
            // Segments: [0,3) [3,4) [4,200) — three whole words of zeros, a
            // borrow carried through `0 − 0 − 1` — [200,205) [205,269) and
            // [269, cap): the last runs to the capacity, and past it into
            // the padding of the last word when there is one.
            let level = of(cap, &[0, 3, 4, 200, 205, 269]);
            let above = of(cap, &[0, 200]);
            let next = of(cap, &[0, 1, 3, 4, 5, 64, 199, 200, 201, 205, 206, 269, cap - 1]);
            // 100 and 201 are not level bits, 200 is in `above`: not starts.
            let left = of(cap, &[3, 4, 100, 200, 201, 269]);
            let whole = naive(&[3, 4, 269], &level);
            assert_eq!(whole.count(), 195 + (cap - 270));

            let (mut out, mut rest) = (of(cap, &[2]), left.clone());
            out.fill_segments(&mut rest, &level, Some(&above), None);
            let mut want = whole.clone();
            want.insert(2); // a union: earlier members stay
            assert_eq!(out, want);
            assert_eq!((out.count(), out.iter().last()), (196 + cap - 270, want.iter().last()));
            assert_eq!(rest, of(cap, &[200, 201]), "starts and what they cover are taken");

            let (mut out, mut rest) = (BitSet::new(cap), left.clone());
            out.fill_segments(&mut rest, &level, Some(&above), Some(&next));
            let kept: &[usize] = if cap == 270 { &[5, 64, 199] } else { &[5, 64, 199, cap - 1] };
            assert_eq!(out, of(cap, kept), "one level of each segment");
            assert_eq!(rest, of(cap, &[100, 200, 201]), "only the starts are taken");

            // No `above` (depth 0): every level bit of `left` starts; two
            // adjacent starts chain (`0 − 1 − 1`), and a chain that meets
            // no start leaves the words after it alone.
            let (mut out, mut rest) = (BitSet::new(cap), left.clone());
            out.fill_segments(&mut rest, &level, None, None);
            assert_eq!(out, naive(&[3, 4, 200, 269], &level));
            assert_eq!(rest, BitSet::new(cap));
            let (mut out, mut rest) = (BitSet::new(cap), of(cap, &[0]));
            out.fill_segments(&mut rest, &level, None, None);
            assert_eq!(out, of(cap, &[1, 2]));
        }
        BitSet::new(0).fill_segments(&mut BitSet::new(0), &BitSet::new(0), None, None);
    }

    #[test]
    fn insert_masked_skips_out_of_range_and_unmasked() {
        let mut mask = BitSet::new(200);
        for i in [1usize, 2, 64, 65, 199] {
            mask.insert(i);
        }
        let mut s = BitSet::new(200);
        s.insert(5);
        // Unsorted, repeated, out of range, and not in the mask.
        s.insert_masked([199usize, 1, 3, 64, 1, 200, 9999, 65, 2], &mask);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 2, 5, 64, 65, 199]);
        s.insert_masked(std::iter::empty(), &mask);
        assert_eq!(s.count(), 6);
        BitSet::new(0).insert_masked([0usize, 1], &BitSet::new(0));
    }

    #[test]
    fn insert_range_fills_across_word_boundaries() {
        let naive = |lo: usize, hi: usize| (lo..hi).collect::<Vec<_>>();
        let cap = 200;
        for (lo, hi) in [
            (0, 1),
            (0, 63),
            (0, 64),
            (0, 65),
            (63, 64),
            (63, 65),
            (64, 65),
            (64, 128),
            (65, 66),
            (1, 199),
            (130, cap),
            (0, cap),
            (cap - 1, cap),
        ] {
            let mut s = BitSet::new(cap);
            s.insert_range(lo, hi);
            assert_eq!(s.iter().collect::<Vec<_>>(), naive(lo, hi), "{lo}..{hi}");
        }
        // Empty and reversed ranges insert nothing, at either end too.
        let mut s = BitSet::new(cap);
        for (lo, hi) in [(0, 0), (64, 64), (cap, cap), (70, 3)] {
            s.insert_range(lo, hi);
        }
        assert!(s.is_empty());
        // A fill is a union: earlier members stay.
        s.insert(5);
        s.insert(199);
        s.insert_range(60, 70);
        assert_eq!(s.count(), 12);
        // A capacity that is a multiple of 64 has no partial last word.
        let mut full = BitSet::new(128);
        full.insert_range(0, 128);
        assert_eq!(full.count(), 128);
        BitSet::new(0).insert_range(0, 0);
    }

    #[test]
    fn padded_operations_read_a_shorter_set_as_zero_extended() {
        let of = |len, items: &[usize]| BitSet::from_indices(len, items.iter().copied());
        let mask = of(200, &[1, 63, 64, 130, 199]);
        // Shorter (a view computed before the arena grew), equal, and
        // longer (no slots of this arena: rejected in debug, clipped in release).
        let shorter = of(70, &[1, 64, 69]);
        let equal = of(200, &[1, 130, 150, 199]);
        let longer = of(300, &[63, 130, 199, 250, 299]);
        let seeded = |sets: &[&BitSet]| {
            let mut r = mask.clone();
            sets.iter().for_each(|s| r.intersect_with(s));
            assert_eq!(r.capacity(), 200);
            r.iter().collect::<Vec<_>>()
        };
        assert_eq!(seeded(&[]), vec![1, 63, 64, 130, 199]);
        assert_eq!(seeded(&[&shorter]), vec![1, 64], "slots past 70 are non-members");
        assert_eq!(seeded(&[&equal]), vec![1, 130, 199]);
        assert_eq!(seeded(&[&equal, &shorter]), vec![1]);
        assert_eq!(seeded(&[&of(0, &[])]), Vec::<usize>::new());
        if cfg!(debug_assertions) {
            assert!(std::panic::catch_unwind(|| seeded(&[&longer])).is_err());
        } else {
            assert_eq!(seeded(&[&longer]), vec![63, 130, 199], "clipped to the mask's width");
            assert_eq!(seeded(&[&equal, &longer]), vec![130, 199]);
        }

        // The same reading for differences, in both directions.
        assert_eq!(mask.difference_count(&shorter), 3, "63, 130, 199");
        assert_eq!(shorter.difference_count(&mask), 1, "69");
        assert_eq!(mask.difference_count(&longer), 2);
        assert_eq!(longer.difference_count(&mask), 2, "250 and 299 count for the longer set");
        assert_eq!(mask.difference_count(&mask), 0);
    }

    #[test]
    fn iter_from_starts_mid_word_and_past_the_end() {
        let s = BitSet::from_indices(200, [0usize, 5, 63, 64, 65, 190]);
        let from = |start| s.iter_from(start).collect::<Vec<_>>();
        assert_eq!(from(0), vec![0, 5, 63, 64, 65, 190]);
        assert_eq!(from(5), vec![5, 63, 64, 65, 190]);
        assert_eq!(from(6), vec![63, 64, 65, 190]);
        assert_eq!(from(64), vec![64, 65, 190]);
        assert_eq!(from(66), vec![190]);
        assert_eq!(from(191), Vec::<usize>::new());
        assert_eq!(from(200), Vec::<usize>::new());
        assert_eq!(from(100_000), Vec::<usize>::new());
        assert_eq!(BitSet::new(0).iter_from(0).count(), 0);
        assert_eq!(s.nodes().map(|n| n.index()).collect::<Vec<_>>(), from(0));
        // `fold` (what `for_each` runs) yields what `next` does, from any
        // start and after any number of `next` calls.
        for start in [0, 5, 6, 64, 66, 191, 200, 100_000] {
            for skip in 0..4 {
                let mut it = s.iter_from(start);
                it.by_ref().take(skip).for_each(drop);
                let folded = it.clone().fold(Vec::new(), |mut v, i| {
                    v.push(i);
                    v
                });
                assert_eq!(folded, it.collect::<Vec<_>>(), "from {start}, {skip} skipped");
            }
        }
    }

    #[test]
    fn words_exposes_backing_storage() {
        let mut s = BitSet::new(130);
        s.insert(0);
        s.insert(65);
        s.insert(129);
        let w = s.words();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0], 1);
        assert_eq!(w[1], 2);
        assert_eq!(w[2], 2);
    }
}
