//! Syntactic classification of patterns.
//!
//! This module hosts everything the paper decides by *looking* at a pattern
//! (as opposed to reasoning about its models):
//!
//! * fragment membership — which of the three constructs (`//`, `[]`, `*`)
//!   a pattern uses, identifying the sub-fragments `XP{//,[]}`, `XP{//,*}`,
//!   `XP{[],*}` for which containment is PTIME (Miklau–Suciu, cited as \[14\]);
//! * linearity (a pattern that forms a path — Definition 5.3's third case);
//! * the **sufficient stability conditions** of Proposition 4.1;
//! * the **generalized normal form GNF/\*** of Definition 5.3;
//! * selection-path probes used by the rewriting conditions (all-child
//!   prefixes, deepest descendant selection edge, corresponding edges).

use crate::pattern::{Axis, NodeTest, Pattern};
use xpv_model::Label;

/// Which of the three XP constructs a pattern uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FragmentFlags {
    /// Uses at least one wildcard node test.
    pub wildcard: bool,
    /// Uses at least one descendant edge.
    pub descendant: bool,
    /// Has a node with two or more children (a "branch", i.e. a predicate).
    pub branching: bool,
}

impl FragmentFlags {
    /// Computes the flags for `p`.
    ///
    /// A pattern "uses branches" when it cannot be written without the `[]`
    /// construct: some node has two or more children, or the output node has
    /// a child (a linear pattern whose output is an interior node, such as
    /// `a[b]`, still needs a predicate).
    pub fn of(p: &Pattern) -> FragmentFlags {
        FragmentFlags {
            wildcard: p.node_ids().any(|n| p.test(n).is_wildcard()),
            descendant: p
                .node_ids()
                .any(|n| p.parent(n).is_some() && p.axis(n) == Axis::Descendant),
            branching: !(is_linear(p) && p.is_leaf(p.output())),
        }
    }

    /// A compact human-readable fragment name, e.g. `XP{//,[],*}`.
    pub fn name(self) -> String {
        let mut parts = Vec::new();
        if self.descendant {
            parts.push("//");
        }
        if self.branching {
            parts.push("[]");
        }
        if self.wildcard {
            parts.push("*");
        }
        format!("XP{{{}}}", parts.join(","))
    }
}

/// Returns `true` if the pattern is linear (forms a path: every node has at
/// most one child) — the third disjunct of Definition 5.3.
pub fn is_linear(p: &Pattern) -> bool {
    p.node_ids().all(|n| p.children(n).len() <= 1)
}

/// A certificate that a pattern is *stable* (weak equivalence to it implies
/// equivalence), per the sufficient conditions of Proposition 4.1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StabilityWitness {
    /// The root's label is not `*`.
    RootLabeled,
    /// The pattern has depth 0.
    DepthZero,
    /// Depth ≥ 1 and the pattern contains a `Σ`-label that does not appear
    /// in `Q≥1` (it must therefore sit in a branch emanating from the root,
    /// or be the root's own label).
    FreshLabelOutsideQGeq1(Label),
}

/// Checks the Proposition 4.1 conditions. `Some(w)` proves stability; `None`
/// means *unknown* (the conditions are sufficient, not necessary).
pub fn stability_witness(p: &Pattern) -> Option<StabilityWitness> {
    if !p.test(p.root()).is_wildcard() {
        return Some(StabilityWitness::RootLabeled);
    }
    if p.depth() == 0 {
        return Some(StabilityWitness::DepthZero);
    }
    let q_geq1 = p.sub_pattern_geq(1);
    let inner = q_geq1.label_set();
    let fresh = p.label_set().into_iter().find(|l| inner.binary_search(l).is_err());
    fresh.map(StabilityWitness::FreshLabelOutsideQGeq1)
}

/// Per-depth explanation of GNF/* membership (Definition 5.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GnfCase {
    /// A child edge enters the i-node.
    ChildEntry,
    /// `Q≥i` is stable (by Proposition 4.1's sufficient conditions).
    StableSuffix(StabilityWitness),
    /// `Q≥i` is linear.
    LinearSuffix,
}

/// Checks membership in the generalized normal form GNF/* (Definition 5.3),
/// returning the per-depth certificates. Uses the *sufficient* stability
/// conditions of Proposition 4.1, so the check is sound (everything it
/// accepts is in GNF/*) but may miss patterns whose suffix stability has no
/// syntactic witness.
pub fn gnf_star_certificate(p: &Pattern) -> Option<Vec<GnfCase>> {
    let d = p.depth();
    let axes = p.selection_axes();
    let mut cases = Vec::with_capacity(d);
    for i in 1..=d {
        if axes[i - 1] == Axis::Child {
            cases.push(GnfCase::ChildEntry);
            continue;
        }
        let suffix = p.sub_pattern_geq(i);
        if let Some(w) = stability_witness(&suffix) {
            cases.push(GnfCase::StableSuffix(w));
            continue;
        }
        if is_linear(&suffix) {
            cases.push(GnfCase::LinearSuffix);
            continue;
        }
        return None;
    }
    Some(cases)
}

/// Returns `true` if `p` is (certifiably) in GNF/*.
pub fn is_gnf_star(p: &Pattern) -> bool {
    gnf_star_certificate(p).is_some()
}

/// The depth of the deepest descendant edge on the selection path, i.e. the
/// largest `i` such that a descendant edge enters the i-node. `None` when the
/// selection path has only child edges.
pub fn deepest_descendant_selection_edge(p: &Pattern) -> Option<usize> {
    p.selection_axes().iter().rposition(|&a| a == Axis::Descendant).map(|idx| idx + 1)
}

/// Returns `true` if the first `upto` selection edges are all child edges.
/// (`upto` is clamped to the pattern depth.)
pub fn selection_prefix_all_child(p: &Pattern, upto: usize) -> bool {
    p.selection_axes().iter().take(upto).all(|&a| a == Axis::Child)
}

/// Returns `true` if the i-node of `p` carries a non-wildcard label.
pub fn selection_node_labeled(p: &Pattern, i: usize) -> bool {
    !p.test(p.k_node(i)).is_wildcard()
}

/// The maximum number of nodes in a chain of **wildcard** nodes connected by
/// child edges. This quantity drives the canonical-model expansion bound used
/// by the containment test in `xpv-semantics` (see DESIGN.md §3): only
/// wildcard nodes can be mapped onto the `⊥`-labeled interior of an expansion
/// chain, and rigid (child-edge) crossings are bounded by this length.
pub fn star_chain_len(p: &Pattern) -> usize {
    fn rec(p: &Pattern, n: crate::pattern::PatId, best: &mut usize) -> usize {
        // Length of the longest star chain starting at n going downward via
        // child edges, counting n if it is a wildcard.
        let mut down_best = 0usize;
        for &c in p.children(n) {
            let via = rec(p, c, best);
            if p.axis(c) == Axis::Child {
                down_best = down_best.max(via);
            }
        }
        let here = if p.test(n).is_wildcard() { 1 + down_best } else { 0 };
        *best = (*best).max(here);
        here
    }
    let mut best = 0;
    rec(p, p.root(), &mut best);
    best
}

/// Decides whether `test` of a document label is even expressible: utility
/// used by generators to avoid emitting `⊥`.
pub fn test_uses_reserved(test: NodeTest) -> bool {
    matches!(test, NodeTest::Label(l) if l.is_bottom())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_xpath;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("test pattern parses")
    }

    #[test]
    fn fragment_flags_detect_constructs() {
        let f = FragmentFlags::of(&pat("a/b"));
        assert!(!f.wildcard && !f.descendant && !f.branching);

        let f = FragmentFlags::of(&pat("a//b[*]"));
        assert!(f.wildcard && f.descendant && f.branching);
        assert_eq!(f.name(), "XP{//,[],*}");

        let f = FragmentFlags::of(&pat("a//b[c]"));
        assert!(!f.wildcard && f.descendant && f.branching);
        assert_eq!(f.name(), "XP{//,[]}");
    }

    #[test]
    fn linearity() {
        assert!(is_linear(&pat("a//b/c")));
        assert!(!is_linear(&pat("a[b]/c")));
        assert!(is_linear(&pat("a")));
    }

    #[test]
    fn stability_root_labeled() {
        assert_eq!(stability_witness(&pat("a//*")), Some(StabilityWitness::RootLabeled));
    }

    #[test]
    fn stability_depth_zero() {
        assert_eq!(stability_witness(&pat("*")), Some(StabilityWitness::DepthZero));
        // Depth 0 with branches is still depth 0.
        assert_eq!(stability_witness(&pat("*[a][b]")), Some(StabilityWitness::DepthZero));
    }

    #[test]
    fn stability_fresh_branch_label() {
        // Root is *, depth 1; branch label `b` does not appear in Q>=1 = `c`.
        let w = stability_witness(&pat("*[b]/c")).expect("stable");
        assert_eq!(w, StabilityWitness::FreshLabelOutsideQGeq1(Label::new("b")));
    }

    #[test]
    fn stability_unknown_for_pure_star_spine() {
        // Root *, depth >= 1, every label of the pattern appears in Q>=1.
        assert_eq!(stability_witness(&pat("*//c")), None);
        assert_eq!(stability_witness(&pat("*[c]/c")), None);
        assert_eq!(stability_witness(&pat("*/*")), None);
    }

    #[test]
    fn gnf_star_cases() {
        // All child entries.
        assert!(is_gnf_star(&pat("a/b/c")));
        // Descendant entry with stable suffix (labeled node).
        assert!(is_gnf_star(&pat("a//b/c")));
        // Descendant entry with linear wildcard suffix.
        assert!(is_gnf_star(&pat("a//*/*")));
        // Descendant entry into a branching, unstable wildcard suffix.
        assert!(!is_gnf_star(&pat("a//*[*/c]/c")));
        // Certificate shape.
        let cert = gnf_star_certificate(&pat("a//b/c")).expect("in gnf");
        assert_eq!(cert.len(), 2);
        assert!(matches!(cert[0], GnfCase::StableSuffix(_)));
        assert_eq!(cert[1], GnfCase::ChildEntry);
    }

    #[test]
    fn deepest_descendant_edge_probe() {
        assert_eq!(deepest_descendant_selection_edge(&pat("a/b/c")), None);
        assert_eq!(deepest_descendant_selection_edge(&pat("a//b/c")), Some(1));
        assert_eq!(deepest_descendant_selection_edge(&pat("a//b//c/d")), Some(2));
        // Branch descendant edges do not count: selection path only.
        assert_eq!(deepest_descendant_selection_edge(&pat("a[.//x]/b")), None);
    }

    #[test]
    fn prefix_all_child() {
        assert!(selection_prefix_all_child(&pat("a/b//c"), 1));
        assert!(!selection_prefix_all_child(&pat("a/b//c"), 2));
        assert!(selection_prefix_all_child(&pat("a/b/c"), 2));
        assert!(selection_prefix_all_child(&pat("a"), 5));
    }

    #[test]
    fn star_chain_lengths() {
        assert_eq!(star_chain_len(&pat("a/b")), 0);
        assert_eq!(star_chain_len(&pat("*")), 1);
        assert_eq!(star_chain_len(&pat("*/*/*")), 3);
        // Descendant edges break rigid chains.
        assert_eq!(star_chain_len(&pat("*//*/*")), 2);
        // Chains may sit inside branches.
        assert_eq!(star_chain_len(&pat("a[*/*/*/*]/b")), 4);
        // Label interruptions break chains.
        assert_eq!(star_chain_len(&pat("*/a/*")), 1);
    }
}
