//! Adversarial pattern families.
//!
//! The complexity experiments need families where the cheap machinery fails
//! by construction:
//!
//! * [`hom_gap_instance`] — containment holds but **no homomorphism**
//!   witnesses it, forcing the canonical-model procedure. These exist only
//!   in the full fragment (Miklau–Suciu), and ours isolates the root cause:
//!   a descendant edge semantically guarantees an initial *child* step
//!   (`a//b` implies "the root has a child"), which a homomorphism cannot
//!   use because child edges of the container must map onto child edges of
//!   the containee. This is exactly the "limited form of disjunction" the
//!   paper's introduction attributes to the `//`/`[]`/`*` interplay.
//! * [`no_condition_instance`] — the certificate-free zone: instances where
//!   none of the paper's completeness conditions applies, exercising the
//!   planner's honest `Unknown` path (wildcard spines, branching unstable
//!   suffixes, a descendant edge deeper than the view's).
//!
//! The `gap_search` binary in this crate is the randomized search tool that
//! found (and the test suite re-verifies) the homomorphism gap.

use xpv_pattern::{parse_xpath, Pattern};

fn pat(s: &str) -> Pattern {
    parse_xpath(s).expect("adversarial patterns are well-formed")
}

/// A containment `P1 ⊑ P2` in `XP{//,[],*}` that holds with **no
/// homomorphism** from `P2` to `P1`, scalable by `n ≥ 1`:
///
/// ```text
/// P1(n) = a/*^(n-1)//b        (child chain of n-1 wildcards, then //b)
/// P2(n) = *[*^n-chain]//b     (branch: rigid child chain of n wildcards)
/// ```
///
/// *Containment*: in any model of `P1`, the path from the root to the `b`
/// witness has at least `n` edges, and every path in a tree is a child
/// chain, so the root has a rigid child chain of length `n` — `P2`'s branch
/// is satisfied, and its `//b` spine reuses `P1`'s witness.
///
/// *No homomorphism*: `P2`'s branch needs `n` consecutive child edges in
/// `P1`, but `P1` only has `n-1` before its descendant edge.
///
/// For `n = 1` this is the minimal gap `a//b ⊑ *[*]//b`.
pub fn hom_gap_instance(n: usize) -> (Pattern, Pattern) {
    assert!(n >= 1, "gap family is defined for n >= 1");
    let p1 = pat(&format!("a{}//b", "/*".repeat(n - 1)));
    let chain = format!("*{}", "/*".repeat(n - 1));
    let p2 = pat(&format!("*[{chain}]//b"));
    (p1, p2)
}

/// The certificate-free instance family (cf. the planner tests): none of the
/// paper's completeness conditions applies. `segments` scales the number of
/// decorated wildcard spine segments.
///
/// ```text
/// P(s) = a//(*[*/m]/)^s *[*/m]//*[m]      V(s) = a//(*/)^s *
/// ```
pub fn no_condition_instance(segments: usize) -> (Pattern, Pattern) {
    let s = segments.max(1);
    let seg = "*[*/m]/".repeat(s);
    let p = pat(&format!("a//{seg}*[*/m]//*[m]"));
    let v = pat(&format!("a//{}*", "*/".repeat(s)));
    (p, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_semantics::{contained, homomorphism_exists, HomMode};

    #[test]
    fn hom_gap_is_genuine() {
        for n in 1..=3 {
            let (p1, p2) = hom_gap_instance(n);
            assert!(contained(&p1, &p2), "containment must hold for n={n}: {p1} vs {p2}");
            assert!(
                !homomorphism_exists(&p2, &p1, HomMode::RootAnchored),
                "no homomorphism may exist for n={n}: {p1} vs {p2}"
            );
        }
    }

    #[test]
    fn hom_gap_minimal_instance_shape() {
        let (p1, p2) = hom_gap_instance(1);
        assert_eq!(p1.to_string(), "a//b");
        assert_eq!(p2.to_string(), "*[*]//b");
    }

    #[test]
    fn hom_gap_direction_is_strict() {
        // The reverse containment must NOT hold (P2 has a wildcard root).
        let (p1, p2) = hom_gap_instance(2);
        assert!(!contained(&p2, &p1));
    }

    #[test]
    fn no_condition_instances_parse_and_gate() {
        for segments in 1..=3 {
            let (p, v) = no_condition_instance(segments);
            assert!(v.depth() <= p.depth());
            // The k-node of P and out(V) are both wildcards: label gates stay
            // open, so only the conditions (absent) or brute force can decide.
            assert!(p.test(p.k_node(v.depth())).is_wildcard());
            assert!(v.test(v.output()).is_wildcard());
        }
    }
}
