//! Pattern **signatures** — word-sized necessary conditions for rewriting.
//!
//! The rewrite planner in `xpv-core` pays a coNP containment decision per
//! candidate view; on a plan-memo miss the serving layer scans the whole
//! pool. A [`ViewSignature`] compresses the facets of a view pattern that
//! any *equivalent* rewriting must respect into a few words, so the pool
//! scan can reject most candidates with bit operations before the first
//! canonical-model run. The filter is a **necessary condition**: a
//! rejected `(query, view)` pair provably admits no equivalent rewriting,
//! so filtering never changes an answer, only skips doomed oracle calls
//! (`tests/planner_audit.rs` property-checks this against the un-filtered
//! oracle).
//!
//! # Why each condition is necessary
//!
//! Fix a query `P` of selection depth `d` and a view `V` of selection
//! depth `k`, and suppose some compensation `R` satisfies `R ∘ V ≡ P`.
//!
//! 1. **Depth** — `k ≤ d`. `R ∘ V`'s selection path goes through `V`'s
//!    output at depth ≥ `k`, and an equivalent pattern has the same
//!    selection depth `d ≥ k` (Proposition 3.1(1) of the paper; the
//!    planner already gates on this, the signature makes it free).
//! 2. **Label subset** — `labels(V) ⊆ labels(P)`. Equivalent patterns
//!    have equal label sets: take the canonical tree of `P` with every
//!    wildcard instantiated to one fresh label `z ∉ labels(P) ∪
//!    labels(R∘V)`; equivalence forces an embedding of `R ∘ V` into it,
//!    so `labels(R∘V) ⊆ labels(P) ∪ {z}`, and `z` fresh gives
//!    `labels(R∘V) ⊆ labels(P)` (the symmetric argument gives equality).
//!    Composition keeps every node of `V` (the junction glb preserves any
//!    concrete label), so `labels(V) ⊆ labels(R∘V) ⊆ labels(P)`. Hashing
//!    labels into a 64-bit mask preserves the subset direction, so
//!    `mask(V) & !mask(P) ≠ 0` soundly rejects.
//! 3. **Output class** — the test of `V`'s output node must *unify* with
//!    the test of `P`'s `k`-node: composition glbs the two, and an
//!    equivalent pattern carries `P`'s `k`-node test at that position
//!    (Proposition 3.1(3)); `(∗, label)` and two distinct labels clash.
//! 4. **`//`-spine** — if `V`'s selection path uses a descendant edge,
//!    `P`'s must too. A spine `//`-edge of `R ∘ V` can be *pumped* in its
//!    canonical model (insert a fresh-labeled node in the middle of the
//!    edge's path; every canonical-model edge hosts one pattern edge, so
//!    all other embeddings survive), which moves the selected node to a
//!    second depth — impossible for a `//`-free-spine `P`, which selects
//!    at exactly depth `d` in every tree. Branch (non-spine) `//`-edges
//!    force nothing and are ignored.
//!
//! Conditions 2 and 4 can reject pairs for which the planner would
//! return `Unknown` (outside its complete fragments) rather than
//! `NoRewriting` — equally safe, since `Unknown` also yields no route.
//!
//! The engine's filter runs one more test next to these four, which proves
//! less: the label refutation of `xpv_core::QueryContext::refutes` (a label
//! of the query in neither `P≥k` nor `V`). It proves that no *natural
//! candidate* verifies, not that no rewriting exists. For an engine that
//! routes verified candidates only, planning `without_fallback`, the two
//! lead to the same route, and both count as a rejection there.
//!
//! Signatures also **union** cheaply ([`ViewSignature::union`]), giving
//! the same necessary condition for the *exact intersection pattern* of
//! several equal-depth views (the `xpv-intersect` enumeration): the
//! intersection keeps every node of every participant, so its label set
//! is the union of theirs and its output test is the glb of theirs.

use crate::pattern::{Axis, NodeTest, Pattern};

/// The unification class of a node test: wildcard, or one interned label.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutClass {
    /// `*` — unifies with anything.
    Wildcard,
    /// A concrete label, by interned id ([`xpv_model::Label::id`]).
    Label(u32),
}

impl OutClass {
    /// Classifies a node test.
    pub fn of(test: NodeTest) -> OutClass {
        match test.as_label() {
            Some(l) => OutClass::Label(l.id()),
            None => OutClass::Wildcard,
        }
    }

    /// Whether a view-side test can glb against this query-side test in
    /// an equivalent composition: `(query ∗, view label)` clashes (the
    /// composed pattern would carry a label the query's k-node lacks),
    /// as do two distinct labels.
    pub fn unifies_with_view(self, view: OutClass) -> bool {
        match (self, view) {
            (OutClass::Wildcard, OutClass::Label(_)) => false,
            (OutClass::Label(a), OutClass::Label(b)) => a == b,
            _ => true,
        }
    }

    /// The glb of two classes, `None` on a label clash (used when
    /// unioning signatures for an intersection pattern).
    fn glb(self, other: OutClass) -> Option<OutClass> {
        match (self, other) {
            (OutClass::Wildcard, x) | (x, OutClass::Wildcard) => Some(x),
            (OutClass::Label(a), OutClass::Label(b)) if a == b => Some(OutClass::Label(a)),
            _ => None,
        }
    }
}

/// The rewriting-relevant facets of a **view** pattern, precomputed once
/// per registration and stored alongside the pool snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ViewSignature {
    /// One bit per concrete label (`Label::id() % 64`); a set bit the
    /// query mask lacks proves a label outside the query's set.
    pub label_mask: u64,
    /// Selection depth `k` (edges on the selection path).
    pub depth: u32,
    /// Whether the selection path uses a descendant edge.
    pub spine_desc: bool,
    /// Unification class of the output node's test.
    pub out: OutClass,
}

impl ViewSignature {
    /// Computes the signature of `p` (one pass over the pattern).
    pub fn of(p: &Pattern) -> ViewSignature {
        ViewSignature {
            label_mask: label_mask(p),
            depth: p.depth() as u32,
            spine_desc: p.selection_axes().contains(&Axis::Descendant),
            out: OutClass::of(p.test(p.output())),
        }
    }

    /// The signature of the exact intersection pattern of two equal-depth
    /// **mergeable** views (child edges everywhere below the root edge,
    /// the `xpv-intersect` precondition): label masks union, output tests
    /// glb. The spine flag **ands**: a mergeable view's only possible
    /// spine `//` is its root edge, and the intersection's root edge is
    /// descendant exactly when *every* participant's is (a single child
    /// root edge pins the selected node to depth `k`, and the
    /// intersection selects a subset of that view's nodes). `None` when
    /// the output tests clash (the structural merge would fail) or the
    /// depths differ (no exact intersection exists).
    pub fn union(&self, other: &ViewSignature) -> Option<ViewSignature> {
        if self.depth != other.depth {
            return None;
        }
        Some(ViewSignature {
            label_mask: self.label_mask | other.label_mask,
            depth: self.depth,
            spine_desc: self.spine_desc && other.spine_desc,
            out: self.out.glb(other.out)?,
        })
    }
}

/// The query side: the same facets plus the per-depth spine test classes,
/// computed **once per plan** and consulted per candidate.
#[derive(Clone, Debug)]
pub struct QuerySignature {
    /// One bit per concrete label of the query.
    pub label_mask: u64,
    /// Selection depth `d`.
    pub depth: u32,
    /// Whether the selection path uses a descendant edge.
    pub spine_desc: bool,
    /// `spine_tests[k]` is the class of the query's `k`-node test, for
    /// `k` in `0..=depth` — the position a depth-`k` view's output must
    /// unify with.
    pub spine_tests: Vec<OutClass>,
}

impl QuerySignature {
    /// Computes the signature of `p` (one pass over the pattern).
    pub fn of(p: &Pattern) -> QuerySignature {
        let path = p.selection_path();
        QuerySignature {
            label_mask: label_mask(p),
            depth: (path.len() - 1) as u32,
            spine_desc: path[1..].iter().any(|&n| p.axis(n) == Axis::Descendant),
            spine_tests: path.iter().map(|&n| OutClass::of(p.test(n))).collect(),
        }
    }

    /// The necessary-condition filter: `false` means **no equivalent
    /// rewriting of this query over this view can exist** (see the module
    /// docs for the four conditions and why each is necessary); `true`
    /// means the expensive planner must decide.
    pub fn admits(&self, v: &ViewSignature) -> bool {
        v.depth <= self.depth
            && v.label_mask & !self.label_mask == 0
            && (!v.spine_desc || self.spine_desc)
            && self.spine_tests[v.depth as usize].unifies_with_view(v.out)
    }
}

/// The 64-bit label-set hash: one bit per concrete label of `p`
/// (`Label::id() % 64`). Both signature sides use it, and so does the
/// planner's label refutation in `xpv-core`. A label of one pattern whose
/// bit another pattern's mask lacks is a label the other does not use.
pub fn label_mask(p: &Pattern) -> u64 {
    p.node_ids().fold(0, |mask, n| mask | label_bit(p.test(n)))
}

/// The bit of one node test in a [`label_mask`] (`0` for a wildcard).
pub fn label_bit(test: NodeTest) -> u64 {
    test.as_label().map_or(0, |l| 1u64 << (l.id() % 64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_xpath;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    fn admits(q: &str, v: &str) -> bool {
        QuerySignature::of(&pat(q)).admits(&ViewSignature::of(&pat(v)))
    }

    #[test]
    fn depth_condition_rejects_deeper_views() {
        assert!(!admits("a/b", "a/b/c"));
        assert!(admits("a/b/c", "a/b"));
        assert!(admits("a/b", "a/b"));
    }

    #[test]
    fn label_condition_rejects_foreign_labels() {
        // The view mentions `z`, which the query never does.
        assert!(!admits("a/b/c", "a/b[z]"));
        assert!(!admits("a/b/c", "a/z"));
        // Subset label sets pass (wildcards contribute no labels).
        assert!(admits("a/b[c]/d", "a/b"));
        assert!(admits("a/b[c]/d", "a/*"));
    }

    #[test]
    fn output_condition_mirrors_the_k_node_clash() {
        // Query 1-node is `*`, view output is the label `b`: clash.
        assert!(!admits("a/*/c", "a/b"));
        // Distinct labels clash.
        assert!(!admits("a/b/c", "a/c"));
        // View output `*` under a labeled k-node unifies.
        assert!(admits("a/b/c", "a/*"));
        // Equal labels unify.
        assert!(admits("a/b/c", "a/b"));
    }

    #[test]
    fn spine_condition_rejects_descendant_views_for_child_queries() {
        assert!(!admits("a/b/c", "a//b"));
        // The query's own spine `//` licenses view spine `//`.
        assert!(admits("a//b/c", "a//b"));
        // Branch-only `//` in the view forces nothing.
        assert!(admits("a/b[x//y]/c", "a/b[x//y]"));
    }

    #[test]
    fn union_models_the_intersection_pattern() {
        let a = ViewSignature::of(&pat("s/r/i[b]/n"));
        let b = ViewSignature::of(&pat("s/r/i[h]/n"));
        let u = a.union(&b).expect("same depth, same labeled output");
        assert_eq!(u.depth, a.depth);
        assert_eq!(u.label_mask, a.label_mask | b.label_mask);
        let m = ViewSignature::of(&pat("s/r/i[b][h]/n"));
        assert_eq!(u, m, "union equals the exact intersection pattern's signature");
        // Depth mismatch → no exact intersection.
        assert!(a.union(&ViewSignature::of(&pat("s/r/i"))).is_none());
        // Output-label clash → merge would fail.
        let c = ViewSignature::of(&pat("s/r/i[b]/m"));
        assert!(a.union(&c).is_none());
        // Wildcard output glbs to the labeled side.
        let w = ViewSignature::of(&pat("s/r/i[h]/*"));
        assert_eq!(a.union(&w).expect("glb fine").out, a.out);
    }

    #[test]
    fn signatures_are_stable_across_isomorphs() {
        let s1 = ViewSignature::of(&pat("a/b[c][d]/e"));
        let s2 = ViewSignature::of(&pat("a/b[d][c]/e"));
        assert_eq!(s1, s2);
    }
}
