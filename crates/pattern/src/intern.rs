//! Structural hashing and interning of patterns.
//!
//! The serving layers memoize across calls — the engine's plan memo by
//! query, the planning session's decisions by `(query, view)` — which
//! requires patterns to act as cheap hashable keys. The containment oracle
//! (`xpv_semantics::ContainmentOracle`) holds the one interner those keys
//! come from. Two ingredients provide them:
//!
//! * [`Pattern::fingerprint`] — a 64-bit structural hash, **stable under
//!   sibling reordering** (child hashes are sorted before mixing), that
//!   respects node tests, edge axes, and the output marker. Equal patterns
//!   (in the sense of [`Pattern::structurally_eq`]) always share a
//!   fingerprint; collisions are possible but only cost a string compare.
//! * [`PatternInterner`] — an arena that deduplicates patterns by
//!   fingerprint (with exact structural confirmation on bucket collisions)
//!   and hands out dense [`PatternKey`] ids. Interning the same pattern
//!   (or any sibling-reordered isomorph) twice returns the same key, so
//!   downstream memo tables key on `(PatternKey, PatternKey)` pairs instead
//!   of re-hashing whole trees.
//!
//! The interner is deliberately append-only: keys stay valid for the life of
//! the interner, which is what lets a long-lived `ShardedViewCache` reuse
//! plans across queries.

use std::collections::HashMap;

use crate::pattern::{Axis, NodeTest, PatId, Pattern};

/// A dense handle to an interned pattern (see [`PatternInterner`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PatternKey(u32);

impl PatternKey {
    /// The arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl Pattern {
    /// A 64-bit structural hash of the pattern, stable under sibling
    /// reordering: `p.structurally_eq(&q)` implies
    /// `p.fingerprint() == q.fingerprint()`.
    ///
    /// Computed bottom-up with sorted child digests, so it costs
    /// `O(n log n)` without materializing the canonical-key string.
    pub fn fingerprint(&self) -> u64 {
        self.subtree_fingerprints()[self.root().index()]
    }

    /// The fingerprint of every subtree, indexed by [`PatId`] (the output
    /// marker is included where the output node lies inside the subtree), in
    /// one bottom-up pass: children sit at higher arena indices than their
    /// parent, so a reverse sweep meets every child before its parent.
    pub fn subtree_fingerprints(&self) -> Vec<u64> {
        fn mix(mut h: u64, v: u64) -> u64 {
            // splitmix64-style avalanche of the running digest.
            h ^= v;
            h = h.wrapping_mul(0xFF51AFD7ED558CCD);
            h ^= h >> 33;
            h = h.wrapping_mul(0xC4CEB9FE1A85EC53);
            h ^ (h >> 33)
        }
        let mut fps = vec![0u64; self.len()];
        let mut child_digests: Vec<u64> = Vec::new();
        for i in (0..self.len()).rev() {
            let n = PatId(i as u32);
            let mut h: u64 = match self.test(n) {
                NodeTest::Wildcard => 0x9E3779B97F4A7C15,
                NodeTest::Label(l) => mix(0xA076_1D64_78BD_642F, l.id() as u64),
            };
            if n == self.output() {
                h = mix(h, 0x2545F4914F6CDD1D);
            }
            child_digests.clear();
            child_digests.extend(self.children(n).iter().map(|&c| {
                let axis_salt = match self.axis(c) {
                    Axis::Child => 0x94D0_49BB_1331_11EB,
                    Axis::Descendant => 0xBF58_476D_1CE4_E5B9,
                };
                mix(axis_salt, fps[c.index()])
            }));
            // Sorting makes the digest order-independent, matching the
            // unordered semantics of sibling branches.
            child_digests.sort_unstable();
            fps[i] = child_digests.iter().fold(h, |h, &d| mix(h, d));
        }
        fps
    }
}

/// An append-only arena deduplicating patterns by structural identity.
///
/// ```
/// use xpv_pattern::{parse_xpath, PatternInterner};
/// let mut interner = PatternInterner::new();
/// let k1 = interner.intern(&parse_xpath("a[b][c]/d").unwrap());
/// let k2 = interner.intern(&parse_xpath("a[c][b]/d").unwrap()); // reordered siblings
/// assert_eq!(k1, k2);
/// assert_eq!(interner.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct PatternInterner {
    /// fingerprint → keys sharing it. Distinct patterns intern without any
    /// string building; only same-fingerprint entries (dedup hits, plus the
    /// astronomically rare true collision) fall back to the exact
    /// canonical-key comparison inside [`Pattern::structurally_eq`].
    lookup: HashMap<u64, Vec<PatternKey>>,
    arena: Vec<Pattern>,
    hits: u64,
}

impl PatternInterner {
    /// An empty interner.
    pub fn new() -> PatternInterner {
        PatternInterner::default()
    }

    /// Interns `p`, returning the key of its structural equivalence class.
    /// The first pattern of a class is cloned into the arena as the
    /// representative.
    pub fn intern(&mut self, p: &Pattern) -> PatternKey {
        self.intern_prehashed(p.fingerprint(), p)
    }

    /// Read-only lookup of `p`'s key given its precomputed fingerprint.
    ///
    /// Returns `None` when `p` has not been interned yet. Unlike
    /// [`PatternInterner::intern`] this takes `&self`, so a concurrent
    /// wrapper (the containment oracle's `RwLock`-guarded interner) can
    /// serve the hot repeated-query path under a shared read lock and only
    /// upgrade to a write lock on genuinely new patterns.
    pub fn lookup_prehashed(&self, fingerprint: u64, p: &Pattern) -> Option<PatternKey> {
        let bucket = self.lookup.get(&fingerprint)?;
        bucket.iter().copied().find(|key| self.arena[key.index()].structurally_eq(p))
    }

    /// [`PatternInterner::intern`] with the fingerprint computed by the
    /// caller (so a lookup-then-intern sequence hashes the pattern once).
    pub fn intern_prehashed(&mut self, fingerprint: u64, p: &Pattern) -> PatternKey {
        let bucket = self.lookup.entry(fingerprint).or_default();
        for &key in bucket.iter() {
            if self.arena[key.index()].structurally_eq(p) {
                self.hits += 1;
                return key;
            }
        }
        let key = PatternKey(u32::try_from(self.arena.len()).expect("pattern interner exhausted"));
        bucket.push(key);
        self.arena.push(p.clone());
        key
    }

    /// The representative pattern of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` comes from a different interner.
    pub fn resolve(&self, key: PatternKey) -> &Pattern {
        &self.arena[key.index()]
    }

    /// Number of distinct structural classes interned.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// How many [`PatternInterner::intern`] calls were deduplicated.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_xpath;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    #[test]
    fn fingerprint_ignores_sibling_order() {
        let p1 = pat("a[b][c//d]/e");
        let p2 = pat("a[c//d][b]/e");
        assert!(p1.structurally_eq(&p2));
        assert_eq!(p1.fingerprint(), p2.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_axes_tests_and_output() {
        assert_ne!(pat("a/b").fingerprint(), pat("a//b").fingerprint());
        assert_ne!(pat("a/b").fingerprint(), pat("a/*").fingerprint());
        assert_ne!(pat("a/b").fingerprint(), pat("a[b]").fingerprint());
    }

    #[test]
    fn interner_dedups_isomorphs() {
        let mut i = PatternInterner::new();
        let k1 = i.intern(&pat("a[b][c]/d"));
        let k2 = i.intern(&pat("a[c][b]/d"));
        let k3 = i.intern(&pat("a[b]/d"));
        assert_eq!(k1, k2);
        assert_ne!(k1, k3);
        assert_eq!(i.len(), 2);
        assert_eq!(i.hits(), 1);
        assert!(i.resolve(k1).structurally_eq(&pat("a[b][c]/d")));
    }

    #[test]
    fn prehashed_lookup_agrees_with_intern() {
        let mut i = PatternInterner::new();
        let p = pat("a[b][c]/d");
        let fp = p.fingerprint();
        assert_eq!(i.lookup_prehashed(fp, &p), None);
        let k = i.intern_prehashed(fp, &p);
        assert_eq!(i.lookup_prehashed(fp, &p), Some(k));
        // A sibling-reordered isomorph shares fingerprint and key.
        let iso = pat("a[c][b]/d");
        assert_eq!(i.lookup_prehashed(iso.fingerprint(), &iso), Some(k));
    }

    #[test]
    fn keys_are_stable_across_growth() {
        let mut i = PatternInterner::new();
        let k1 = i.intern(&pat("a"));
        for s in ["a/b", "a//b", "a[x]/y", "q//r[s]"] {
            i.intern(&pat(s));
        }
        assert_eq!(i.intern(&pat("a")), k1);
        assert!(i.resolve(k1).structurally_eq(&pat("a")));
    }
}
