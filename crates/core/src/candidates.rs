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
//!
//! # Refuting both candidates by their labels
//!
//! Most candidate tests fail, and many of them fail for a reason the labels
//! already show. Equivalent patterns have equal label sets (the argument of
//! condition 2 in `xpv_pattern::signature`: each embeds into the other's
//! canonical tree with its wildcards turned into one fresh label). A
//! composition that does not clash keeps every concrete label of `R` and of
//! `V` (the junction glb keeps any label), so `R ◦ V ≡ P` needs
//! `labels(P) ⊆ labels(R) ∪ labels(V)`. Both candidates have the labels of
//! `P≥k` (relaxing edges changes no test). So if a label of `P` is neither in
//! `P≥k` nor in `V`, both candidates fail, and neither needs `compose` or
//! the oracle.
//!
//! The check runs on the hashed masks of
//! [`label_mask`](xpv_pattern::label_mask): a [`QueryContext`] keeps
//! `mask(P) & !mask(P≥k)` for every depth `k`, all of them from one pass
//! over `P` and without building any `P≥k`, and [`QueryContext::refutes`]
//! is the one test of it. Hashing only lets doomed tests through (two
//! labels on one bit), never refutes a test that would pass.
//!
//! A refutation proves that no *natural candidate* verifies, not that no
//! rewriting exists: that takes a completeness condition as well, which
//! only [`RewritePlanner::decide`](crate::RewritePlanner::decide) looks for.
//! A caller that routes only verified candidates, as the serving engine and
//! the intersection search do, loses nothing by skipping a refuted pair
//! outright: both run the refutation next to the signature filter, before
//! any candidate is built, and [`QueryContext::verify`] on what survives.

use std::cell::OnceCell;

use xpv_pattern::{compose, label_bit, Axis, PatId, Pattern};
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

/// What planning one query against many views computes once: per view
/// depth `k`, the labels a view must bring (`labels(P) \ labels(P≥k)`,
/// hashed, every depth from one pass when the context is made) and, built
/// on the first test at that depth, its natural candidates. A plan miss
/// prepares one context and hands it to every pair of that miss.
#[derive(Debug)]
pub struct QueryContext<'a> {
    pub(crate) oracle: &'a ContainmentOracle,
    pub(crate) p: &'a Pattern,
    /// `mask(P) & !mask(P≥k)`, indexed by view depth `k ≤ depth(p)`: a view
    /// whose mask misses any of these bits refutes both candidates.
    uncovered: Vec<u64>,
    /// The natural candidates, indexed like `uncovered`.
    candidates: Vec<OnceCell<Vec<Candidate>>>,
}

impl<'a> QueryContext<'a> {
    /// Prepares `p` for decisions through `oracle`.
    pub fn new(oracle: &'a ContainmentOracle, p: &'a Pattern) -> QueryContext<'a> {
        // Each node's subtree mask, in one reverse pass: node ids put
        // parents before children. `P≥k` is the subtree of the k-node.
        let mut below: Vec<u64> = p.node_ids().map(|n| label_bit(p.test(n))).collect();
        for i in (1..below.len()).rev() {
            let parent = p.parent(PatId(i as u32)).expect("only the root has no parent");
            below[parent.index()] |= below[i];
        }
        let uncovered: Vec<u64> =
            p.selection_path().iter().map(|&n| below[0] & !below[n.index()]).collect();
        let candidates = uncovered.iter().map(|_| OnceCell::new()).collect();
        QueryContext { oracle, p, uncovered, candidates }
    }

    /// The query.
    pub fn query(&self) -> &'a Pattern {
        self.p
    }

    /// Whether a view of depth `k` with label mask `v_mask` refutes both
    /// natural candidates: it lacks a label that `P` has and `P≥k` does not
    /// (module docs). Panics when `k` exceeds the query's depth.
    pub fn refutes(&self, k: usize, v_mask: u64) -> bool {
        self.uncovered[k] & !v_mask != 0
    }

    /// The natural candidates for views of depth `k` (see
    /// [`natural_candidates`]; panics likewise when `k` exceeds the query's
    /// depth), built on first use.
    pub fn candidates(&self, k: usize) -> &[Candidate] {
        self.candidates[k].get_or_init(|| candidates_at_depth(self.p, k))
    }

    /// The first natural candidate `R` for `v`, a view of depth `k`, that
    /// passes `R ◦ v ≡ p`: a verified rewriting, or `None` when both fail.
    /// Nothing else is decided: no gate, no refutation, no condition.
    pub fn verify(
        &self,
        v: &Pattern,
        k: usize,
        stats: &mut CandidateTestStats,
    ) -> Option<&Candidate> {
        debug_assert_eq!(k, v.depth(), "{v} is not a view of depth {k}");
        self.candidates(k).iter().find(|c| self.test_candidate(v, &c.pattern, stats))
    }

    /// Tests whether `r` is a rewriting of the query using `v`, i.e.
    /// `r ◦ v ≡ p`. Label clashes (`r ◦ v = Υ`) are never rewritings since
    /// `p` is satisfiable. `r ◦ v` is decided and dropped: nothing about it
    /// is remembered.
    pub fn test_candidate(&self, v: &Pattern, r: &Pattern, stats: &mut CandidateTestStats) -> bool {
        compose(r, v).is_some_and(|rv| stats.test_equivalence(self.oracle, &rv, self.p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_pattern::{parse_xpath, NodeTest};

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
