//! Redundancy elimination (the paper's Section 1/6 connection to \[10\]).
//!
//! A pattern is **non-redundant** if no branch (non-selection subtree) can be
//! deleted while preserving equivalence. The Proposition 3.4 argument assumes
//! rewritings are non-redundant w.l.o.g.; the paper's conclusion points out
//! that whether non-redundancy coincides with minimality is open for
//! `XP{//,[],*}` — here we only need the *reduction*, which is
//! straightforward (each deletion is checked with the equivalence
//! procedure), not minimality.
//!
//! Two passes are provided:
//!
//! * [`Pattern::dedup_sibling_branches`] (in `xpv-pattern`) — syntactic twin
//!   removal, always sound, no equivalence tests;
//! * [`remove_redundant_branches`] — semantic: greedily deletes branches
//!   whose removal preserves equivalence, until none does (a non-redundant
//!   pattern). Each step runs one (coNP) equivalence test.

use xpv_pattern::{PatId, Pattern};

use crate::contain::contained;

/// Returns an equivalent, non-redundant version of `p`: no further branch
/// can be removed without changing the pattern's meaning.
pub fn remove_redundant_branches(p: &Pattern) -> Pattern {
    let mut cur = p.dedup_sibling_branches();
    'outer: loop {
        let selection = cur.selection_path();
        // Candidate deletions: maximal non-selection subtrees (children of
        // selection-path nodes or of branch nodes). Deleting a whole subtree
        // subsumes deleting its parts, and the loop re-runs to a fixpoint.
        let nodes: Vec<PatId> = cur.node_ids().collect();
        for n in nodes {
            if selection.contains(&n) || cur.parent(n).is_none() {
                continue;
            }
            let smaller = cur.without_subtree(n);
            // Removal only weakens: cur ⊑ smaller always. Equivalence holds
            // iff smaller ⊑ cur.
            if contained(&smaller, &cur) {
                cur = smaller;
                continue 'outer;
            }
        }
        return cur;
    }
}

/// Is `p` non-redundant (no single branch deletion preserves equivalence)?
pub fn is_non_redundant(p: &Pattern) -> bool {
    let selection = p.selection_path();
    for n in p.node_ids() {
        if selection.contains(&n) || p.parent(n).is_none() {
            continue;
        }
        let smaller = p.without_subtree(n);
        if contained(&smaller, p) {
            return false;
        }
    }
    true
}

/// Convenience: deletable branch roots of `p` (each witnessed by an
/// equivalence-preserving removal). Useful for diagnostics and tests.
pub fn redundant_branches(p: &Pattern) -> Vec<PatId> {
    let selection = p.selection_path();
    p.node_ids()
        .filter(|&n| {
            if selection.contains(&n) || p.parent(n).is_none() {
                return false;
            }
            contained(&p.without_subtree(n), p)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contain::equivalent;
    use xpv_pattern::parse_xpath;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    #[test]
    fn subsumed_branch_is_removed() {
        // a[b][b/c]/d: the bare b branch is implied by b/c.
        let p = pat("a[b][b/c]/d");
        let r = remove_redundant_branches(&p);
        assert!(equivalent(&p, &r));
        assert_eq!(r.to_string(), "a[b/c]/d");
        assert!(is_non_redundant(&r));
        assert!(!is_non_redundant(&p));
    }

    #[test]
    fn descendant_branch_subsumption() {
        // a[.//b][x/b]/d: .//b is implied by x/b (b is a proper descendant
        // through x).
        let p = pat("a[.//b][x/b]/d");
        let r = remove_redundant_branches(&p);
        assert!(equivalent(&p, &r));
        assert_eq!(r.to_string(), "a[x/b]/d");
    }

    #[test]
    fn independent_branches_stay() {
        let p = pat("a[b][c]/d");
        let r = remove_redundant_branches(&p);
        assert_eq!(r.len(), p.len());
        assert!(is_non_redundant(&p));
    }

    #[test]
    fn twins_removed_syntactically_then_semantically_stable() {
        let p = pat("a[b/c][b/c][b]/d");
        let r = remove_redundant_branches(&p);
        assert!(equivalent(&p, &r));
        assert_eq!(r.to_string(), "a[b/c]/d");
    }

    #[test]
    fn wildcard_branch_subsumed_by_any_branch() {
        // a[*][b]/d: the * branch is implied by the b branch.
        let p = pat("a[*][b]/d");
        let r = remove_redundant_branches(&p);
        assert!(equivalent(&p, &r));
        assert_eq!(r.to_string(), "a[b]/d");
    }

    #[test]
    fn redundant_branches_lists_witnesses() {
        let p = pat("a[b][b/c][z]/d");
        let reds = redundant_branches(&p);
        assert_eq!(reds.len(), 1);
        // The redundant one is the bare b.
        let n = reds[0];
        assert_eq!(p.test(n), xpv_pattern::NodeTest::label("b"));
        assert!(p.is_leaf(n));
    }

    #[test]
    fn linear_patterns_are_trivially_non_redundant() {
        for s in ["a", "a/b//c", "*//*/*"] {
            assert!(is_non_redundant(&pat(s)));
            assert!(remove_redundant_branches(&pat(s)).structurally_eq(&pat(s)));
        }
    }

    #[test]
    fn reduction_is_idempotent() {
        let p = pat("a[b][b/c][*][.//c]/d");
        let r1 = remove_redundant_branches(&p);
        let r2 = remove_redundant_branches(&r1);
        assert!(r1.structurally_eq(&r2));
        assert!(equivalent(&p, &r1));
    }
}
