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
//!   fingerprint.
//! * [`PatternInterner`] — a bounded table from fingerprint to pattern
//!   (with exact structural confirmation) that hands out [`PatternKey`]s.
//!   Interning the same pattern (or any sibling-reordered isomorph) again
//!   returns the same key while the interner still holds it, so downstream
//!   memo tables key on `(PatternKey, PatternKey)` pairs instead of
//!   re-hashing whole trees.
//!
//! The interner forgets: it keeps two generations ([`BoundedMap`]), and a
//! pattern nobody interned for two flips is dropped. A forgotten pattern
//! is interned again under a **fresh** key — keys come from a counter and
//! are never reused — so a memo entry under the old key can never match
//! another pattern; it is never asked for again and ages out of its own
//! table. Forgetting costs a miss, never a wrong answer.

use crate::bounded_map::{BoundedMap, Held};
use crate::pattern::{Axis, NodeTest, PatId, Pattern};

/// The most patterns a [`PatternInterner`] holds, both generations
/// together.
pub const INTERNER_MAX_ENTRIES: usize = 4096;

/// The most bytes a [`PatternInterner`]'s entries hold, both generations
/// together: each pattern's nodes and child lists, and its map slot.
pub const INTERNER_MAX_BYTES: usize = 4 << 20;

/// A handle to an interned pattern (see [`PatternInterner`]). Keys are
/// handed out in increasing order and never reused.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PatternKey(u64);

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

/// A bounded table deduplicating patterns by structural identity.
///
/// ```
/// use xpv_pattern::{parse_xpath, PatternInterner};
/// let mut interner = PatternInterner::new();
/// let k1 = interner.intern(&parse_xpath("a[b][c]/d").unwrap());
/// let k2 = interner.intern(&parse_xpath("a[c][b]/d").unwrap()); // reordered siblings
/// assert_eq!(k1, k2);
/// assert_eq!(interner.held().entries, 1);
/// ```
///
/// **Bound.** At most [`INTERNER_MAX_ENTRIES`] patterns holding at most
/// [`INTERNER_MAX_BYTES`] bytes, in two generations (see the module docs
/// for what forgetting costs). One pattern is held per fingerprint: a
/// pattern whose fingerprint another one holds (a true 64-bit collision)
/// gets a fresh key on every call, which costs it its memo hits and
/// nothing else.
#[derive(Debug, Default)]
pub struct PatternInterner {
    /// fingerprint → the pattern interned under it and its key.
    map: BoundedMap<u64, (PatternKey, Pattern), INTERNER_MAX_ENTRIES, INTERNER_MAX_BYTES>,
    /// The next key to hand out.
    next: u64,
}

impl PatternInterner {
    /// An empty interner.
    pub fn new() -> PatternInterner {
        PatternInterner::default()
    }

    /// Interns `p`, returning the key of its structural equivalence class.
    /// The first pattern of a class is cloned in as the representative.
    pub fn intern(&mut self, p: &Pattern) -> PatternKey {
        let fingerprint = p.fingerprint();
        let key = PatternKey(self.next);
        match self.map.get(&fingerprint) {
            Some((held_key, held)) if held.structurally_eq(p) => return *held_key,
            Some(_) => {}
            None => self.map.insert(fingerprint, (key, p.clone()), p.heap_bytes()),
        }
        self.next += 1;
        key
    }

    /// `p`'s key if the current generation holds it. Unlike
    /// [`PatternInterner::intern`] this takes `&self`, so a concurrent
    /// wrapper (the containment oracle's `RwLock`-guarded interner) can
    /// serve the hot repeated-query path under a shared read lock and only
    /// take the write lock for the rest.
    pub fn lookup(&self, p: &Pattern) -> Option<PatternKey> {
        let (key, held) = self.map.get_current(&p.fingerprint())?;
        held.structurally_eq(p).then_some(*key)
    }

    /// Patterns and bytes held, as [`INTERNER_MAX_ENTRIES`] and
    /// [`INTERNER_MAX_BYTES`] count them.
    pub fn held(&self) -> Held {
        self.map.held()
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
        assert_eq!(i.held().entries, 2);
    }

    #[test]
    fn lookup_agrees_with_intern() {
        let mut i = PatternInterner::new();
        let p = pat("a[b][c]/d");
        assert_eq!(i.lookup(&p), None);
        let k = i.intern(&p);
        assert_eq!(i.lookup(&p), Some(k));
        // A sibling-reordered isomorph shares fingerprint and key.
        assert_eq!(i.lookup(&pat("a[c][b]/d")), Some(k));
    }

    #[test]
    fn keys_are_stable_across_growth() {
        let mut i = PatternInterner::new();
        let k1 = i.intern(&pat("a"));
        for s in ["a/b", "a//b", "a[x]/y", "q//r[s]"] {
            i.intern(&pat(s));
        }
        assert_eq!(i.intern(&pat("a")), k1);
    }

    /// The `i`-th of many distinct patterns, spelled in eleven labels.
    fn unique(i: usize) -> Pattern {
        pat(&format!(
            "u/{}",
            format!("{i:06}").chars().map(|d| format!("d{d}")).collect::<Vec<_>>().join("/")
        ))
    }

    #[test]
    fn a_flood_is_bounded_and_a_forgotten_pattern_comes_back_under_a_fresh_key() {
        let mut i = PatternInterner::new();
        let (hot, cold) = (pat("h[k]//p"), pat("c[k]//p"));
        let (hot_key, cold_key) = (i.intern(&hot), i.intern(&cold));
        let mut seen = std::collections::HashSet::from([hot_key, cold_key]);
        for n in 0..2 * INTERNER_MAX_ENTRIES {
            assert!(seen.insert(i.intern(&unique(n))), "keys are never reused");
            assert_eq!(i.intern(&hot), hot_key, "a pattern interned each flip keeps its key");
            let held = i.held();
            assert!(held.entries <= INTERNER_MAX_ENTRIES && held.bytes <= INTERNER_MAX_BYTES);
        }
        let again = i.intern(&cold);
        assert!(again > cold_key && seen.insert(again), "forgotten, then interned anew");
        assert_eq!(i.intern(&pat("c[k]//p")), again);
    }
}
