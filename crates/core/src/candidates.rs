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
//! `R' ◦ V ≡ P`, which [`QueryContext::test_candidate`] decides with the (coNP)
//! equivalence procedure of `xpv-semantics` — the only non-polynomial step
//! of the whole algorithm, exactly as the paper advertises.

use std::cell::OnceCell;

use xpv_pattern::{compose, Axis, Pattern, PatternKey};
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
    candidates_at_depth(p, v.depth())
}

/// The natural candidates of `p` for views of depth `k`: they depend on the
/// view through its depth only.
fn candidates_at_depth(p: &Pattern, k: usize) -> Vec<Candidate> {
    assert!(k <= p.depth(), "natural candidates undefined for views deeper than the query");
    let base = p.sub_pattern_geq(k);
    // Relaxation rewrites exactly the child edges at the root.
    let relaxed = base
        .children(base.root())
        .iter()
        .any(|&c| base.axis(c) == Axis::Child)
        .then(|| Candidate { pattern: base.relax_root_edges(), relaxed: true });
    let mut out = vec![Candidate { pattern: base, relaxed: false }];
    out.extend(relaxed);
    out
}

/// Statistics from candidate testing (surfaced by the benchmark harness),
/// added up from the containment outcomes of this caller's own tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct CandidateTestStats {
    /// Number of equivalence tests performed (each is two containments).
    pub equivalence_tests: u32,
    /// Total canonical models enumerated across all tests.
    pub models_checked: u64,
    /// Containments settled by the homomorphism fast path.
    pub hom_hits: u32,
    /// Canonical-model loops (the coNP work) run across all tests.
    pub canonical_runs: u64,
}

impl CandidateTestStats {
    /// Is `rv ≡ p`? Both containments go through `oracle`, and their
    /// outcomes are counted here.
    pub(crate) fn test_equivalence(
        &mut self,
        oracle: &ContainmentOracle,
        rv: &Pattern,
        p: &Pattern,
    ) -> bool {
        self.equivalence_tests += 1;
        [(rv, p), (p, rv)].into_iter().all(|(p1, p2)| {
            let outcome = oracle.decide(p1, p2);
            self.models_checked += outcome.models_checked;
            self.hom_hits += u32::from(outcome.via_homomorphism && outcome.holds);
            self.canonical_runs += u64::from(!outcome.via_homomorphism);
            outcome.holds
        })
    }
}

/// What planning one query against many views computes once: the query's
/// key in the oracle's interner and its natural candidates per view depth
/// (built on first use of a depth). A plan miss prepares one context and
/// hands it to every decision of that miss.
#[derive(Debug)]
pub struct QueryContext<'a> {
    pub(crate) oracle: &'a ContainmentOracle,
    pub(crate) p: &'a Pattern,
    pub(crate) key: PatternKey,
    /// Indexed by view depth `k ≤ depth(p)`.
    candidates: Vec<OnceCell<Vec<Candidate>>>,
}

impl<'a> QueryContext<'a> {
    /// Prepares `p` for decisions through `oracle`.
    pub fn new(oracle: &'a ContainmentOracle, p: &'a Pattern) -> QueryContext<'a> {
        let key = oracle.intern(p);
        QueryContext { oracle, p, key, candidates: vec![OnceCell::new(); p.depth() + 1] }
    }

    /// The query.
    pub fn query(&self) -> &'a Pattern {
        self.p
    }

    /// The natural candidates for views of depth `k` (see
    /// [`natural_candidates`]; panics likewise when `k` exceeds the query's
    /// depth).
    pub fn candidates(&self, k: usize) -> &[Candidate] {
        self.candidates[k].get_or_init(|| candidates_at_depth(self.p, k))
    }

    /// Tests whether `r` is a rewriting of the query using `v`, i.e.
    /// `r ◦ v ≡ p`. Label clashes (`r ◦ v = Υ`) are never rewritings since
    /// `p` is satisfiable. `r ◦ v` is decided and dropped: nothing about it
    /// is interned or remembered.
    pub fn test_candidate(&self, v: &Pattern, r: &Pattern, stats: &mut CandidateTestStats) -> bool {
        compose(r, v).is_some_and(|rv| stats.test_equivalence(self.oracle, &rv, self.p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_pattern::{parse_xpath, NodeTest, PatId};

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
    fn relaxed_candidate_is_present_iff_the_root_has_a_child_edge() {
        // Seeded spines with branches (xorshift; the workload generators
        // live in a crate above this one), every view depth of each.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: usize| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % n as u64) as usize
        };
        let (mut with, mut without) = (0, 0);
        for _ in 0..300 {
            let test = |r: usize| match r {
                0 => NodeTest::Wildcard,
                r => NodeTest::label(["a", "b", "c"][r - 1]),
            };
            let mut p = Pattern::single(test(next(4)));
            let mut spine = vec![p.root()];
            for _ in 0..1 + next(3) {
                let axis = if next(2) == 0 { Axis::Descendant } else { Axis::Child };
                spine.push(p.add_child(spine[spine.len() - 1], axis, test(next(4))));
            }
            p.set_output(spine[spine.len() - 1]);
            for _ in 0..next(4) {
                let axis = if next(2) == 0 { Axis::Descendant } else { Axis::Child };
                p.add_child(PatId(next(p.len()) as u32), axis, test(next(4)));
            }
            let oracle = ContainmentOracle::new();
            let ctx = QueryContext::new(&oracle, &p);
            for k in 0..=p.depth() {
                let cands = ctx.candidates(k);
                let base = p.sub_pattern_geq(k);
                assert!(cands[0].pattern.structurally_eq(&base) && !cands[0].relaxed);
                // The old test: does relaxing change the pattern at all?
                let differs = !base.relax_root_edges().structurally_eq(&base);
                assert_eq!(cands.len(), 1 + usize::from(differs), "{p} at depth {k}");
                if differs {
                    assert!(cands[1].pattern.structurally_eq(&base.relax_root_edges()));
                    assert!(cands[1].relaxed);
                    with += 1;
                } else {
                    without += 1;
                }
            }
        }
        assert!(with > 100 && without > 100, "both outcomes sampled ({with} / {without})");
    }

    #[test]
    fn candidate_testing_fig2() {
        // Reconstructed Figure 2: P>=1 fails, P>=1_r// succeeds.
        let p = pat("a[b]//*/e[d]");
        let v = pat("a[b]/*");
        let cands = natural_candidates(&p, &v);
        let oracle = ContainmentOracle::new();
        let ctx = QueryContext::new(&oracle, &p);
        let mut stats = CandidateTestStats::default();
        assert!(!ctx.test_candidate(&v, &cands[0].pattern, &mut stats));
        assert!(ctx.test_candidate(&v, &cands[1].pattern, &mut stats));
        assert_eq!(stats.equivalence_tests, 2);
        // The counters are this caller's outcomes, and nothing else asked
        // the oracle.
        let s = oracle.stats();
        assert_eq!(stats.canonical_runs, s.canonical_runs);
        assert_eq!(stats.models_checked, s.models_checked);
        assert_eq!(u64::from(stats.hom_hits), s.hom_fast_path_hits);
    }

    #[test]
    fn clash_candidate_is_rejected() {
        let p = pat("a/b/c");
        let v = pat("a/b/x");
        // Candidate c composed with V clashes (glb(c, x) = ⋄).
        let cands = natural_candidates(&p, &v);
        let mut stats = CandidateTestStats::default();
        let oracle = ContainmentOracle::new();
        assert!(!QueryContext::new(&oracle, &p).test_candidate(&v, &cands[0].pattern, &mut stats));
        assert_eq!(stats.equivalence_tests, 0);
        assert_eq!(oracle.stats().queries, 0);
    }

    #[test]
    #[should_panic(expected = "deeper")]
    fn deeper_view_panics() {
        let p = pat("a/b");
        let v = pat("a/b/c");
        let _ = natural_candidates(&p, &v);
    }
}
