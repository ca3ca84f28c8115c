//! Pattern-to-pattern homomorphisms.
//!
//! A homomorphism `h : Q → P` maps the nodes of `Q` to nodes of `P` such that
//!
//! * `h(root(Q)) = root(P)` and `h(out(Q)) = out(P)`;
//! * labels are preserved (`Q`'s wildcards map anywhere; a `Σ`-labeled node
//!   of `Q` maps to a node of `P` with the *same* label — a wildcard node of
//!   `P` does not satisfy a labeled node of `Q`);
//! * child edges of `Q` map to child edges of `P`;
//! * descendant edges of `Q` map to proper-descendant pairs of `P` (any mix
//!   of edges along the path).
//!
//! The existence of a homomorphism always implies containment `P ⊑ Q`
//! (compose `h` with any embedding of `P`). It is also *necessary* in
//! `XP{//,[]}` and `XP{[],*}` (Miklau–Suciu, the paper's \[14\]) — which gives
//! the rewriting algorithm of Xu & Özsoyoglu \[17\] its engine — and, pair by
//! pair, whenever `P` has no descendant edge or `Q` has no wildcard (see
//! `contain::homomorphism_decides`). It is **not** necessary in `XP{//,*}`,
//! which is PTIME by a different algorithm: `a/*//e ⊑ a//*/e` holds with no
//! homomorphism. Outside the complete cases it serves as a sound fast path
//! ahead of the canonical-model test.

use xpv_model::BitSet;
use xpv_pattern::{Axis, NodeTest, PatId, Pattern};

/// Root handling for homomorphism search.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HomMode {
    /// `h(root(Q)) = root(P)` — witnesses ordinary containment.
    RootAnchored,
    /// `root(Q)` may map anywhere — witnesses weak containment.
    Free,
}

/// Does the target pattern `p` have node `b` as a proper descendant of `a`?
fn is_proper_desc(p: &Pattern, a: PatId, b: PatId) -> bool {
    let mut cur = p.parent(b);
    while let Some(x) = cur {
        if x == a {
            return true;
        }
        cur = p.parent(x);
    }
    false
}

fn test_compatible(q_test: NodeTest, p_test: NodeTest) -> bool {
    match q_test {
        NodeTest::Wildcard => true,
        NodeTest::Label(l) => p_test == NodeTest::Label(l),
    }
}

/// Decides the existence of a homomorphism `h : q → p` (with `h(out(q)) =
/// out(p)` and the root condition given by `mode`) by a bottom-up dynamic
/// program over `q`: row `n` is the set of nodes of `p` that the subtree of
/// `q` at `n` can map onto, one bit per node of `p`, every row in one flat
/// allocation. A row is seeded from the node test, pinned to `out(p)` at
/// `out(q)`, and ANDed with one constraint row per child edge of `q`.
/// `O(|q| · |p|)` bit operations.
pub fn homomorphism_exists(q: &Pattern, p: &Pattern, mode: HomMode) -> bool {
    let np = p.len();
    let w = np.div_ceil(64);
    let last_word = !0u64 >> ((64 - np % 64) % 64);
    // Rows `0..q.len()` belong to q's nodes; the last one is the scratch
    // constraint row of the edge being processed.
    let mut table = vec![0u64; (q.len() + 1) * w];

    // Children sit at higher arena indices than their parent (in `q` and in
    // `p`), so a reverse sweep meets every child row before its parent's.
    for qi in (0..q.len()).rev() {
        let qid = PatId(qi as u32);
        let (head, below) = table.split_at_mut((qi + 1) * w);
        let row = &mut head[qi * w..];
        let (below, ok) = below.split_at_mut(below.len() - w);

        match q.test(qid) {
            NodeTest::Wildcard => {
                row.fill(!0);
                row[w - 1] = last_word;
            }
            test => {
                for n in p.node_ids().filter(|&n| p.test(n) == test) {
                    row[n.index() / 64] |= 1 << (n.index() % 64);
                }
            }
        }
        if qid == q.output() {
            let out = p.output().index();
            let keep = row[out / 64] & (1 << (out % 64));
            row.fill(0);
            row[out / 64] = keep;
        }

        for &c in q.children(qid) {
            let sub = &below[(c.index() - qi - 1) * w..][..w];
            ok.fill(0);
            match q.axis(c) {
                // A child edge of q must land on a child edge of p: every
                // candidate image of `c` entered by a child edge admits its
                // parent.
                Axis::Child => {
                    for (wi, &word) in sub.iter().enumerate() {
                        let mut bits = word;
                        while bits != 0 {
                            let m = PatId((wi * 64 + bits.trailing_zeros() as usize) as u32);
                            bits &= bits - 1;
                            if let (Some(par), Axis::Child) = (p.parent(m), p.axis(m)) {
                                ok[par.index() / 64] |= 1 << (par.index() % 64);
                            }
                        }
                    }
                }
                // A descendant edge lands on any proper-descendant pair: a
                // node admits when some child is a candidate image or itself
                // admits (one reverse sweep, any edge kinds).
                Axis::Descendant => {
                    for mi in (1..np).rev() {
                        if (sub[mi / 64] | ok[mi / 64]) & (1 << (mi % 64)) != 0 {
                            let par = p.parent(PatId(mi as u32)).expect("non-root").index();
                            ok[par / 64] |= 1 << (par % 64);
                        }
                    }
                }
            }
            for (r, &o) in row.iter_mut().zip(ok.iter()) {
                *r &= o;
            }
        }
        // Every node of q needs an image: one empty row settles it.
        if row.iter().all(|&word| word == 0) {
            return false;
        }
    }

    match mode {
        HomMode::RootAnchored => table[0] & 1 != 0,
        HomMode::Free => true,
    }
}

/// Extracts one homomorphism `h : q → p` as a node map, if one exists.
pub fn find_homomorphism(q: &Pattern, p: &Pattern, mode: HomMode) -> Option<Vec<PatId>> {
    // Recompute the table (cheap) and extract greedily, mirroring the tree
    // matcher's witness construction.
    let np = p.len();
    let mut sub: Vec<BitSet> = vec![BitSet::new(np); q.len()];
    for qi in (0..q.len()).rev() {
        let qid = PatId(qi as u32);
        for n in p.node_ids() {
            if !test_compatible(q.test(qid), p.test(n)) {
                continue;
            }
            if qid == q.output() && n != p.output() {
                continue;
            }
            let all_ok = q.children(qid).iter().all(|&c| match q.axis(c) {
                Axis::Child => p
                    .children(n)
                    .iter()
                    .any(|&m| p.axis(m) == Axis::Child && sub[c.index()].contains(m.index())),
                Axis::Descendant => p
                    .node_ids()
                    .any(|m| sub[c.index()].contains(m.index()) && is_proper_desc(p, n, m)),
            });
            if all_ok {
                sub[qi].insert(n.index());
            }
        }
    }

    let anchor = match mode {
        HomMode::RootAnchored => {
            if sub[q.root().index()].contains(p.root().index()) {
                p.root()
            } else {
                return None;
            }
        }
        HomMode::Free => PatId(sub[q.root().index()].iter().next()? as u32),
    };

    let mut map = vec![PatId(0); q.len()];
    map[q.root().index()] = anchor;
    let mut stack = vec![q.root()];
    while let Some(cur) = stack.pop() {
        let at = map[cur.index()];
        for &c in q.children(cur) {
            let witness = match q.axis(c) {
                Axis::Child => p
                    .children(at)
                    .iter()
                    .copied()
                    .find(|&m| p.axis(m) == Axis::Child && sub[c.index()].contains(m.index())),
                Axis::Descendant => p
                    .node_ids()
                    .find(|&m| sub[c.index()].contains(m.index()) && is_proper_desc(p, at, m)),
            };
            map[c.index()] = witness.expect("sub table guarantees extension");
            stack.push(c);
        }
    }
    Some(map)
}

/// Validates a homomorphism map (test oracle).
pub fn check_homomorphism(q: &Pattern, p: &Pattern, h: &[PatId], mode: HomMode) -> bool {
    if h.len() != q.len() {
        return false;
    }
    if mode == HomMode::RootAnchored && h[q.root().index()] != p.root() {
        return false;
    }
    if h[q.output().index()] != p.output() {
        return false;
    }
    for n in q.node_ids() {
        let img = h[n.index()];
        if !test_compatible(q.test(n), p.test(img)) {
            return false;
        }
        if let Some(par) = q.parent(n) {
            let pimg = h[par.index()];
            match q.axis(n) {
                Axis::Child => {
                    if p.parent(img) != Some(pimg) || p.axis(img) != Axis::Child {
                        return false;
                    }
                }
                Axis::Descendant => {
                    if !is_proper_desc(p, pimg, img) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_pattern::parse_xpath;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    fn hom(qs: &str, ps: &str) -> bool {
        homomorphism_exists(&pat(qs), &pat(ps), HomMode::RootAnchored)
    }

    #[test]
    fn identity_homomorphism() {
        for s in ["a", "a//b[c]/d", "*[x]//y"] {
            assert!(hom(s, s), "{s}");
        }
    }

    #[test]
    fn descendant_absorbs_longer_paths() {
        // q = a//c, p = a/b/c: the descendant edge maps to the 2-edge path.
        assert!(hom("a//c", "a/b/c"));
        // And across descendant edges of p.
        assert!(hom("a//c", "a//b/c"));
        // But a child edge cannot stretch.
        assert!(!hom("a/c", "a/b/c"));
        // Nor ride a descendant edge of p.
        assert!(!hom("a/c", "a//c"));
    }

    #[test]
    fn wildcards_map_anywhere_but_labels_are_strict() {
        assert!(hom("a/*", "a/b"));
        // p has a wildcard where q needs a label: no.
        assert!(!hom("a/b", "a/*"));
    }

    #[test]
    fn branches_can_merge() {
        // Both branches of q map onto the single branch of p (outputs are the
        // roots on both sides).
        assert!(hom("a[b][b/c]", "a[b/c]"));
        assert!(!hom("a[b][d]", "a[b]"));
    }

    #[test]
    fn output_must_map_to_output() {
        // Same shape, different output: no homomorphism.
        let q = pat("a/b"); // output b
        let mut p = pat("a/b");
        p.set_output(p.root()); // output a, prints a[b]
        assert!(!homomorphism_exists(&q, &p, HomMode::RootAnchored));
        assert!(!homomorphism_exists(&p, &q, HomMode::RootAnchored));
    }

    #[test]
    fn free_mode_allows_root_shift() {
        // q = b/c (out c) into p = a/b/c (out c): root must shift to b.
        assert!(!homomorphism_exists(&pat("b/c"), &pat("a/b/c"), HomMode::RootAnchored));
        assert!(homomorphism_exists(&pat("b/c"), &pat("a/b/c"), HomMode::Free));
    }

    #[test]
    fn extracted_homomorphisms_validate() {
        let cases = [
            ("a//c", "a/b/c"),
            ("a[b][b/c]", "a[b/c]"),
            ("a/*//d", "a/b/c/d"),
            ("*//d", "a/b[x]/d"),
        ];
        for (qs, ps) in cases {
            let q = pat(qs);
            let p = pat(ps);
            let h = find_homomorphism(&q, &p, HomMode::RootAnchored)
                .unwrap_or_else(|| panic!("{qs} -> {ps}"));
            assert!(check_homomorphism(&q, &p, &h, HomMode::RootAnchored), "{qs} -> {ps}");
        }
    }

    /// A small seeded pattern with an arbitrary output node (xorshift; the
    /// workload generators live in a crate above this one).
    fn generated(seed: u64) -> Pattern {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |n: usize| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % n as u64) as usize
        };
        let test = |r: usize| match r {
            0 => NodeTest::Wildcard,
            r => NodeTest::label(["a", "b", "c"][r - 1]),
        };
        let mut p = Pattern::single(test(next(4)));
        for _ in 0..next(8) {
            let parent = PatId(next(p.len()) as u32);
            let axis = if next(3) == 0 { Axis::Descendant } else { Axis::Child };
            p.add_child(parent, axis, test(next(4)));
        }
        p.set_output(PatId(next(p.len()) as u32));
        p
    }

    /// The matcher against the reference search, plus the witness check.
    fn assert_agrees(q: &Pattern, p: &Pattern) -> bool {
        let mut any = false;
        for mode in [HomMode::RootAnchored, HomMode::Free] {
            let found = find_homomorphism(q, p, mode);
            assert_eq!(homomorphism_exists(q, p, mode), found.is_some(), "{q} -> {p} ({mode:?})");
            if let Some(h) = found {
                assert!(check_homomorphism(q, p, &h, mode), "{q} -> {p} ({mode:?})");
                any = true;
            }
        }
        any
    }

    #[test]
    fn matcher_agrees_with_the_reference_search_on_generated_pairs() {
        let mut positives = 0;
        for seed in 0..1500u64 {
            let p = generated(seed);
            // Independent draws rarely map; a weakened copy of the target
            // (a pruned leaf, a wildcarded test) usually does.
            let mut weakened = p.clone();
            weakened.set_test(PatId((seed % p.len() as u64) as u32), NodeTest::Wildcard);
            for q in [generated(seed ^ 0xABCD_EF01), weakened] {
                positives += usize::from(assert_agrees(&q, &p));
                assert_agrees(&p, &q);
            }
        }
        assert!(positives > 1000, "the sample must exercise positives ({positives})");
    }

    #[test]
    fn rows_of_more_than_one_word() {
        // A 70-node fan: a root with 69 labeled leaves, the output last.
        let mut fan = Pattern::single(NodeTest::label("a"));
        for i in 0..69 {
            let axis = if i % 2 == 0 { Axis::Child } else { Axis::Descendant };
            fan.add_child(fan.root(), axis, NodeTest::label(["b", "c", "d"][i % 3]));
        }
        fan.set_output(PatId(69));
        // A 130-deep chain a/*/b/*/…, output at the bottom.
        let mut chain = Pattern::single(NodeTest::label("a"));
        let mut cur = chain.root();
        for i in 0..129 {
            let test = if i % 2 == 0 { NodeTest::Wildcard } else { NodeTest::label("b") };
            cur =
                chain.add_child(cur, if i % 5 == 0 { Axis::Descendant } else { Axis::Child }, test);
        }
        chain.set_output(cur);

        assert!(assert_agrees(&fan, &fan) && assert_agrees(&chain, &chain));
        // Images beyond bit 63: out(p) is node 69 / 129, reached through a
        // child edge (fan) and a long descendant step (chain).
        assert_eq!(fan.test(PatId(69)), NodeTest::label("d"));
        assert!(assert_agrees(&pat("a[b][.//c]/d"), &fan));
        assert!(!assert_agrees(&pat("a[.//c][d]/b"), &fan), "out(q) = b cannot land on d");
        assert!(assert_agrees(&pat("a//b//*/b//*"), &chain));
        assert!(!assert_agrees(&pat("a//b//c//*"), &chain));
        for seed in 0..200u64 {
            let q = generated(seed);
            assert_agrees(&q, &fan);
            assert_agrees(&q, &chain);
        }
    }

    #[test]
    fn descendant_edge_needs_proper_descendant() {
        // q = a//a must map the second a strictly below the first.
        assert!(!hom("a//a", "a"));
        assert!(hom("a//a", "a/a"));
    }
}
