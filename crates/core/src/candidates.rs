//! Natural rewriting candidates (Section 4).
//!
//! Given a query `P` of depth `d` and a view `V` of depth `k ≤ d`, the two
//! **natural candidates** for a rewriting are
//!
//! * `P≥k` — the k-sub-pattern of `P`, and
//! * `P≥k_r//` — the same with the edges emanating from its root relaxed to
//!   descendant edges.
//!
//! Both are constructible in linear time. A candidate `R'` is a rewriting iff
//! `R' ◦ V ≡ P`, which [`test_candidate_with_oracle`] decides with the (coNP)
//! equivalence procedure of `xpv-semantics` — the only non-polynomial step
//! of the whole algorithm, exactly as the paper advertises.

use xpv_pattern::{compose, Pattern};
use xpv_semantics::ContainmentOracle;

/// A natural candidate, tagged with whether it is the relaxed one.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The candidate pattern.
    pub pattern: Pattern,
    /// `true` for `P≥k_r//`, `false` for `P≥k`.
    pub relaxed: bool,
}

/// The natural candidates w.r.t. `p` and `v` (Section 4). Returns one or two
/// candidates: the relaxed variant is omitted when it coincides with `P≥k`
/// (no child edges emanate from the root of `P≥k`).
///
/// # Panics
///
/// Panics if `v.depth() > p.depth()` (no candidates exist; Proposition 3.1
/// rules out rewritings altogether).
pub fn natural_candidates(p: &Pattern, v: &Pattern) -> Vec<Candidate> {
    let k = v.depth();
    assert!(k <= p.depth(), "natural candidates undefined for views deeper than the query");
    let base = p.sub_pattern_geq(k);
    let relaxed = base.relax_root_edges();
    let mut out = vec![Candidate { pattern: base.clone(), relaxed: false }];
    if !relaxed.structurally_eq(&base) {
        out.push(Candidate { pattern: relaxed, relaxed: true });
    }
    out
}

/// Statistics from candidate testing (surfaced by the benchmark harness).
#[derive(Clone, Copy, Debug, Default)]
pub struct CandidateTestStats {
    /// Number of equivalence tests performed (each is two containments).
    pub equivalence_tests: u32,
    /// Total canonical models enumerated across all tests.
    pub models_checked: u64,
    /// Containments settled by the homomorphism fast path.
    pub hom_hits: u32,
}

/// Tests whether `r` is a rewriting of `p` using `v`, i.e. `r ◦ v ≡ p`.
/// Label clashes (`r ◦ v = Υ`) are never rewritings since `p` is satisfiable.
///
/// Both containments are decided through the shared `oracle`: repeated
/// candidate tests on overlapping instances reuse each other's verdicts (and
/// homomorphism witnesses) instead of recomputing them.
pub fn test_candidate_with_oracle(
    p: &Pattern,
    v: &Pattern,
    r: &Pattern,
    oracle: &ContainmentOracle,
    stats: &mut CandidateTestStats,
) -> bool {
    let Some(rv) = compose(r, v) else {
        return false;
    };
    stats.equivalence_tests += 1;
    let before = oracle.stats();
    let fwd = oracle.contained(&rv, p);
    let holds = fwd && oracle.contained(p, &rv);
    let delta = oracle.stats().since(&before);
    stats.models_checked += delta.models_checked;
    stats.hom_hits += u32::try_from(delta.hom_fast_path_hits).unwrap_or(u32::MAX);
    holds
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_pattern::parse_xpath;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    #[test]
    fn two_candidates_when_root_has_child_edges() {
        let p = pat("a[b]//*/e[d]");
        let v = pat("a[b]/*");
        let cands = natural_candidates(&p, &v);
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].pattern.to_string(), "*/e[d]");
        assert!(!cands[0].relaxed);
        assert_eq!(cands[1].pattern.to_string(), "*//e[d]");
        assert!(cands[1].relaxed);
    }

    #[test]
    fn one_candidate_when_all_root_edges_are_descendant() {
        let p = pat("a//b//c");
        let v = pat("a//b");
        let cands = natural_candidates(&p, &v);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].pattern.to_string(), "b//c");
    }

    #[test]
    fn single_node_candidate() {
        let p = pat("a/b/c");
        let v = pat("a/b/*");
        let cands = natural_candidates(&p, &v);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].pattern.to_string(), "c");
    }

    #[test]
    fn candidate_testing_fig2() {
        // Reconstructed Figure 2: P>=1 fails, P>=1_r// succeeds.
        let p = pat("a[b]//*/e[d]");
        let v = pat("a[b]/*");
        let cands = natural_candidates(&p, &v);
        let oracle = ContainmentOracle::new();
        let mut stats = CandidateTestStats::default();
        assert!(!test_candidate_with_oracle(&p, &v, &cands[0].pattern, &oracle, &mut stats));
        assert!(test_candidate_with_oracle(&p, &v, &cands[1].pattern, &oracle, &mut stats));
        assert!(stats.equivalence_tests >= 2);
    }

    #[test]
    fn clash_candidate_is_rejected() {
        let p = pat("a/b/c");
        let v = pat("a/b/x");
        // Candidate c composed with V clashes (glb(c, x) = ⋄).
        let cands = natural_candidates(&p, &v);
        let mut stats = CandidateTestStats::default();
        let oracle = ContainmentOracle::new();
        assert!(!test_candidate_with_oracle(&p, &v, &cands[0].pattern, &oracle, &mut stats));
        assert_eq!(stats.equivalence_tests, 0);
    }

    #[test]
    #[should_panic(expected = "deeper")]
    fn deeper_view_panics() {
        let p = pat("a/b");
        let v = pat("a/b/c");
        let _ = natural_candidates(&p, &v);
    }
}
