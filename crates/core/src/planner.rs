//! The rewrite planner: a practical decision procedure for the
//! rewriting-existence problem.
//!
//! [`RewritePlanner::decide`] implements the paper's program:
//!
//! 1. **Gates** (Proposition 3.1): `k > d` or a k-node/`out(V)` label clash
//!    rules out every rewriting outright.
//! 2. **Natural candidates** (Section 4): build `P≥k` and `P≥k_r//` in linear
//!    time. First refute: if `P` has a label that neither `P≥k` nor `V` has,
//!    no `R ◦ V` with the candidates' labels can equal `P`, and both fail
//!    untested ([`QueryContext::refutes`]). Otherwise test each with the
//!    coNP equivalence procedure ([`QueryContext::verify`]). A success is a
//!    *verified* rewriting regardless of any condition.
//! 3. **Completeness certificate** (Theorems 4.3–4.16, Section 5): if a
//!    condition applies — possibly through the Section 5 reductions, all of
//!    which preserve the candidate set — a candidate failure proves that *no*
//!    rewriting exists.
//! 4. **Fallback** (Proposition 3.4): otherwise run the budgeted brute force.
//!    `Exhausted` within budget is reported as [`RewriteAnswer::Unknown`]
//!    with `no_small_rewriting = true` (complete only up to the size budget);
//!    a brute-force `Found` on an instance where both candidates failed would
//!    answer the paper's open question 2 negatively and is surfaced loudly in
//!    the certificate.

use xpv_pattern::{label_mask, NodeTest, Pattern};
use xpv_semantics::ContainmentOracle;

use crate::brute::{
    brute_force_rewrite_with_oracle, BruteForceConfig, BruteForceOutcome, BruteForceStats,
};
use crate::candidates::{CandidateTestStats, QueryContext};
use crate::conditions::{find_condition, Condition};

/// How a rewriting was obtained.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Method {
    /// A natural candidate (`relaxed` distinguishes `P≥k_r//` from `P≥k`).
    NaturalCandidate {
        /// `true` for the root-relaxed candidate.
        relaxed: bool,
    },
    /// Found by the Proposition 3.4 brute-force search (and therefore a
    /// counterexample to the natural-candidate conjecture if the candidates
    /// failed — see [`Rewriting::beyond_candidates`]).
    BruteForce,
}

/// A verified rewriting `R` (i.e. `R ◦ V ≡ P` has been checked).
#[derive(Clone, Debug)]
pub struct Rewriting {
    pattern: Pattern,
    /// How the rewriting was found.
    pub method: Method,
    /// The completeness certificate that applied to the instance, if any
    /// (informational for candidate successes).
    pub condition: Option<Condition>,
    /// `true` iff this rewriting was found by brute force *after* both
    /// natural candidates failed — a negative answer to open question 2.
    pub beyond_candidates: bool,
}

impl Rewriting {
    /// The rewriting pattern `R` (apply it to `V(t)` to obtain `P(t)`).
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }
}

/// Why no rewriting exists.
#[derive(Clone, Debug)]
pub enum NoRewriteReason {
    /// `k > d` (Proposition 3.1(1)).
    ViewDeeperThanQuery,
    /// The k-node of `P` and `out(V)` cannot glb-merge into the k-node label
    /// (Proposition 3.1(3)).
    KNodeLabelClash {
        /// The k-node test of the query.
        query_k_test: NodeTest,
        /// The output-node test of the view.
        view_out_test: NodeTest,
    },
    /// A completeness condition applied and every natural candidate failed.
    CandidatesFailUnderCondition(Condition),
}

/// Diagnostics carried by an [`RewriteAnswer::Unknown`] verdict.
#[derive(Clone, Debug)]
pub struct UnknownInfo {
    /// `true` if the brute force exhausted the pruned space up to its size
    /// budget without finding a rewriting (so none with ≤ `max_nodes` nodes
    /// exists).
    pub no_small_rewriting: bool,
    /// Brute-force counters.
    pub brute_stats: Option<BruteForceStats>,
}

/// The planner's verdict.
#[derive(Clone, Debug)]
pub enum RewriteAnswer {
    /// A verified rewriting.
    Rewriting(Rewriting),
    /// Definitively no rewriting exists.
    NoRewriting(NoRewriteReason),
    /// The conditions do not apply and the (budgeted) fallback was
    /// inconclusive.
    Unknown(UnknownInfo),
}

impl RewriteAnswer {
    /// Convenience: the rewriting pattern if the answer is positive.
    pub fn rewriting(&self) -> Option<&Pattern> {
        match self {
            RewriteAnswer::Rewriting(r) => Some(r.pattern()),
            _ => None,
        }
    }

    /// `true` when the verdict is definitive (not `Unknown`).
    pub fn is_definitive(&self) -> bool {
        !matches!(self, RewriteAnswer::Unknown(_))
    }
}

/// Aggregate statistics of one `decide` call (for the benchmark harness),
/// added up from this call's own work: exact under concurrent callers.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlannerStats {
    /// Candidate-equivalence statistics.
    pub candidate_tests: CandidateTestStats,
    /// Whether a condition certificate was searched / found.
    pub condition_found: bool,
    /// Whether brute force ran.
    pub brute_forced: bool,
    /// Canonical-model loops (the coNP work) this call actually ran.
    pub canonical_runs: u64,
}

/// Reduction-chain fuel for the condition search (Section 5 reductions).
const CONDITION_FUEL: usize = 3;

/// The decision procedure. Its one setting is whether it falls back to the
/// budgeted brute force when no condition settles an instance.
#[derive(Clone, Debug)]
pub struct RewritePlanner {
    /// Brute-force fallback configuration; `None` disables the fallback.
    pub brute_force: Option<BruteForceConfig>,
}

impl Default for RewritePlanner {
    fn default() -> Self {
        RewritePlanner { brute_force: Some(BruteForceConfig::default()) }
    }
}

impl RewritePlanner {
    /// A planner without the brute-force fallback (pure paper algorithm:
    /// gates, candidates, conditions).
    pub fn without_fallback() -> Self {
        RewritePlanner { brute_force: None }
    }

    /// Opens a [`PlanningSession`]: this planner with a long-lived oracle,
    /// whose counters then cover every decision made through it.
    pub fn session(&self) -> PlanningSession {
        PlanningSession::new(self.clone())
    }

    /// Decides the rewriting-existence problem for query `p` and view `v`.
    ///
    /// One-shot convenience: runs a fresh session per call.
    pub fn decide(&self, p: &Pattern, v: &Pattern) -> RewriteAnswer {
        self.decide_with_stats(p, v).0
    }

    /// [`RewritePlanner::decide`] with counters (fresh session per call).
    pub fn decide_with_stats(&self, p: &Pattern, v: &Pattern) -> (RewriteAnswer, PlannerStats) {
        self.session().decide_with_stats(p, v)
    }

    /// The decision procedure for the prepared query `ctx` and view `v`,
    /// deciding every containment through the context's oracle.
    fn decide_in(&self, ctx: &QueryContext<'_>, v: &Pattern) -> (RewriteAnswer, PlannerStats) {
        let (p, oracle) = (ctx.p, ctx.oracle);
        let mut stats = PlannerStats::default();
        let d = p.depth();
        let k = v.depth();

        // Gate 1: Proposition 3.1(1).
        if k > d {
            return (RewriteAnswer::NoRewriting(NoRewriteReason::ViewDeeperThanQuery), stats);
        }

        // Gate 2: Proposition 3.1(3) + glb: the composed k-node test
        // glb(root(R), out(V)) must equal P's k-node test for any R.
        let p_k = p.test(p.k_node(k));
        let v_out = v.test(v.output());
        let clash = match (p_k, v_out) {
            (NodeTest::Wildcard, NodeTest::Label(_)) => true,
            (NodeTest::Label(a), NodeTest::Label(b)) => a != b,
            _ => false,
        };
        if clash {
            return (
                RewriteAnswer::NoRewriting(NoRewriteReason::KNodeLabelClash {
                    query_k_test: p_k,
                    view_out_test: v_out,
                }),
                stats,
            );
        }

        // The completeness certificate; cheap and purely syntactic, so it is
        // computed up front (it also annotates positive answers).
        let condition = find_condition(p, v, CONDITION_FUEL);
        stats.condition_found = condition.is_some();

        // Natural candidates (at most two equivalence tests), unless the
        // labels refute both.
        let verified = if ctx.refutes(k, label_mask(v)) {
            None
        } else {
            ctx.verify(v, k, &mut stats.candidate_tests)
        };
        if let Some(cand) = verified {
            return (
                RewriteAnswer::Rewriting(Rewriting {
                    pattern: cand.pattern.clone(),
                    method: Method::NaturalCandidate { relaxed: cand.relaxed },
                    condition,
                    beyond_candidates: false,
                }),
                stats,
            );
        }

        // Candidates failed. Under a completeness condition that is final.
        if let Some(cond) = condition {
            return (
                RewriteAnswer::NoRewriting(NoRewriteReason::CandidatesFailUnderCondition(cond)),
                stats,
            );
        }

        // Fallback: budgeted Proposition 3.4 search, counted in the
        // session oracle.
        if let Some(cfg) = &self.brute_force {
            stats.brute_forced = true;
            match brute_force_rewrite_with_oracle(p, v, cfg, oracle) {
                BruteForceOutcome::Found(r, bf_stats) => {
                    stats.candidate_tests.equivalence_tests +=
                        bf_stats.test_stats.equivalence_tests;
                    stats.canonical_runs += bf_stats.test_stats.canonical_runs;
                    return (
                        RewriteAnswer::Rewriting(Rewriting {
                            pattern: *r,
                            method: Method::BruteForce,
                            condition: None,
                            beyond_candidates: true,
                        }),
                        stats,
                    );
                }
                BruteForceOutcome::GateClosed(_) => {
                    // Stronger gate discovered during enumeration setup.
                    return (
                        RewriteAnswer::NoRewriting(NoRewriteReason::KNodeLabelClash {
                            query_k_test: p_k,
                            view_out_test: v_out,
                        }),
                        stats,
                    );
                }
                BruteForceOutcome::Exhausted(bf_stats) => {
                    stats.canonical_runs += bf_stats.test_stats.canonical_runs;
                    return (
                        RewriteAnswer::Unknown(UnknownInfo {
                            no_small_rewriting: true,
                            brute_stats: Some(bf_stats),
                        }),
                        stats,
                    );
                }
                BruteForceOutcome::BudgetExceeded(bf_stats) => {
                    stats.canonical_runs += bf_stats.test_stats.canonical_runs;
                    return (
                        RewriteAnswer::Unknown(UnknownInfo {
                            no_small_rewriting: false,
                            brute_stats: Some(bf_stats),
                        }),
                        stats,
                    );
                }
            }
        }

        (
            RewriteAnswer::Unknown(UnknownInfo { no_small_rewriting: false, brute_stats: None }),
            stats,
        )
    }
}

/// A long-lived planning context: a [`RewritePlanner`] and the
/// [`ContainmentOracle`] all its decisions flow through.
///
/// A session remembers no decision: each `decide` runs the procedure
/// afresh, and the oracle's counters add up what they all asked. Like the
/// oracle it wraps, a session is fully shareable: `decide` takes `&self`,
/// so worker threads answering concurrent traffic plan through one session
/// (the `ShardedViewCache` holds one for its lifetime). The serving engine
/// does not decide at all: it [`prepare`](PlanningSession::prepare)s each
/// missed query once, refutes pairs by their labels and
/// [`verify`](QueryContext::verify)s the natural candidates of the rest,
/// which routes exactly what `decide` of a
/// [`RewritePlanner::without_fallback`] would, since "no rewriting" and
/// "unknown" both leave the query to direct evaluation.
///
/// ```
/// use xpv_core::{RewriteAnswer, RewritePlanner};
/// use xpv_pattern::{parse_xpath, ViewSignature};
///
/// let session = RewritePlanner::default().session();
/// let p = parse_xpath("a[b]//*/e[d]").unwrap();
/// let v = parse_xpath("a[b]/*").unwrap();
/// let (answer, stats) = session.decide_with_stats(&p, &v);
/// assert!(matches!(answer, RewriteAnswer::Rewriting(_)) && stats.condition_found);
///
/// // The engine's question for the same pair: no gate, no condition.
/// let ctx = session.prepare(&p);
/// let sig = ViewSignature::of(&v);
/// let k = sig.depth as usize;
/// assert!(!ctx.refutes(k, sig.label_mask));
/// let verified = ctx.verify(&v, k, &mut Default::default()).expect("a candidate verifies");
/// assert_eq!(verified.pattern.to_string(), answer.rewriting().unwrap().to_string());
/// ```
#[derive(Debug)]
pub struct PlanningSession {
    planner: RewritePlanner,
    oracle: ContainmentOracle,
}

impl PlanningSession {
    /// A session wrapping `planner` with a fresh oracle.
    pub fn new(planner: RewritePlanner) -> PlanningSession {
        PlanningSession { planner, oracle: ContainmentOracle::new() }
    }

    /// The planner configuration in effect.
    pub fn planner(&self) -> &RewritePlanner {
        &self.planner
    }

    /// Access to the shared oracle (its containment tests and stats, all
    /// `&self` on the oracle itself).
    pub fn oracle(&self) -> &ContainmentOracle {
        &self.oracle
    }

    /// Decides the rewriting-existence problem for query `p` and view `v`.
    pub fn decide(&self, p: &Pattern, v: &Pattern) -> RewriteAnswer {
        self.decide_with_stats(p, v).0
    }

    /// [`PlanningSession::decide`] with this call's counters.
    pub fn decide_with_stats(&self, p: &Pattern, v: &Pattern) -> (RewriteAnswer, PlannerStats) {
        let (answer, mut stats) = self.planner.decide_in(&self.prepare(p), v);
        stats.canonical_runs += stats.candidate_tests.canonical_runs;
        (answer, stats)
    }

    /// Prepares `p` for tests against many views (one plan miss): what
    /// depends on the query alone is then computed once, not per view.
    pub fn prepare<'a>(&'a self, p: &'a Pattern) -> QueryContext<'a> {
        QueryContext::new(&self.oracle, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::natural_candidates;
    use xpv_pattern::{compose, parse_xpath};
    use xpv_semantics::equivalent;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    fn decide(ps: &str, vs: &str) -> RewriteAnswer {
        RewritePlanner::default().decide(&pat(ps), &pat(vs))
    }

    /// Every positive answer must verify: R ∘ V ≡ P.
    fn assert_valid_rewriting(ps: &str, vs: &str, answer: &RewriteAnswer) {
        let r = answer.rewriting().expect("rewriting expected");
        let rv = compose(r, &pat(vs)).expect("composition nonempty");
        assert!(equivalent(&rv, &pat(ps)), "R∘V ≢ P for R={r}");
    }

    #[test]
    fn depth_gate() {
        match decide("a/b", "a/b/c") {
            RewriteAnswer::NoRewriting(NoRewriteReason::ViewDeeperThanQuery) => {}
            other => panic!("expected depth gate, got {other:?}"),
        }
    }

    #[test]
    fn label_gates() {
        match decide("a/b/c", "a/b/x") {
            RewriteAnswer::NoRewriting(NoRewriteReason::KNodeLabelClash { .. }) => {}
            other => panic!("expected label clash, got {other:?}"),
        }
        // P's k-node is *, out(V) labeled: the paper's explicit remark after
        // Theorem 4.3.
        match decide("a/*/c", "a/b") {
            RewriteAnswer::NoRewriting(NoRewriteReason::KNodeLabelClash { .. }) => {}
            other => panic!("expected label clash, got {other:?}"),
        }
    }

    #[test]
    fn equal_depth_positive_and_negative() {
        let ans = decide("a/b[c]", "a/*");
        assert_valid_rewriting("a/b[c]", "a/*", &ans);
        // Same depth but V is less selective on a branch P needs... make V
        // not embed-compatible: V = a[z]/b demands a z-branch P never grants.
        match decide("a/b", "a[z]/b") {
            RewriteAnswer::NoRewriting(NoRewriteReason::CandidatesFailUnderCondition(
                Condition::EqualDepth,
            )) => {}
            other => panic!("expected equal-depth failure, got {other:?}"),
        }
    }

    #[test]
    fn fig2_relaxed_candidate_wins() {
        let ans = decide("a[b]//*/e[d]", "a[b]/*");
        match &ans {
            RewriteAnswer::Rewriting(rw) => {
                assert_eq!(rw.method, Method::NaturalCandidate { relaxed: true });
                assert_eq!(rw.pattern().to_string(), "*//e[d]");
            }
            other => panic!("expected relaxed candidate, got {other:?}"),
        }
        assert_valid_rewriting("a[b]//*/e[d]", "a[b]/*", &ans);
    }

    #[test]
    fn unrelaxed_candidate_wins_under_thm_4_3() {
        // P>=1 = b//c stable; V = a//* with out *.
        let ans = decide("a//b//c", "a//*");
        match &ans {
            RewriteAnswer::Rewriting(rw) => {
                assert_eq!(rw.method, Method::NaturalCandidate { relaxed: false });
                assert_eq!(rw.pattern().to_string(), "b//c");
                assert_eq!(rw.condition, Some(Condition::StableSubpattern));
            }
            other => panic!("expected P>=k, got {other:?}"),
        }
        assert_valid_rewriting("a//b//c", "a//*", &ans);
    }

    #[test]
    fn no_rewriting_under_thm_4_9() {
        // V's output is entered by a descendant edge; P has only child edges:
        // P>=1 fails and that is definitive (Theorem 4.9).
        match decide("a/b/c", "a//b") {
            RewriteAnswer::NoRewriting(NoRewriteReason::CandidatesFailUnderCondition(c)) => {
                assert_eq!(c, Condition::StableSubpattern);
                // (P>=1 = b/c is stable — Thm 4.3 fires before 4.9; both are
                // valid certificates.)
            }
            other => panic!("expected definitive no, got {other:?}"),
        }
    }

    #[test]
    fn view_with_branch_requirement_can_still_rewrite() {
        // V = a[x]/b materializes b-children of roots that also have an x
        // child; P = a[x]/b/c matches V's shape.
        let ans = decide("a[x]/b/c", "a[x]/b");
        assert_valid_rewriting("a[x]/b/c", "a[x]/b", &ans);
    }

    #[test]
    fn query_missing_view_branch_has_no_rewriting() {
        // V = a[x]/b requires an x-branch; P = a/b/c does not. R∘V would
        // impose x on every tree, so P ⊑ R∘V fails... actually R∘V ⊑ P holds
        // but not conversely. Certificate: P>=1 = b/c stable.
        match decide("a/b/c", "a[x]/b") {
            RewriteAnswer::NoRewriting(NoRewriteReason::CandidatesFailUnderCondition(_)) => {}
            other => panic!("expected definitive no, got {other:?}"),
        }
    }

    #[test]
    fn planner_without_fallback_reports_unknown() {
        // The adversarial no-condition instance: candidates fail, and without
        // brute force the planner must be honest.
        let planner = RewritePlanner::without_fallback();
        let p = pat("a//*[*/m]/*[*/m]//*[m]");
        let v = pat("a//*/*");
        match planner.decide(&p, &v) {
            RewriteAnswer::Unknown(info) => {
                assert!(!info.no_small_rewriting);
                assert!(info.brute_stats.is_none());
            }
            RewriteAnswer::Rewriting(rw) => {
                // If a candidate happens to work, that is also acceptable
                // behavior for this instance — but it must verify.
                let rv = compose(rw.pattern(), &v).expect("composes");
                assert!(equivalent(&rv, &p));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn brute_force_fallback_is_bounded_honest() {
        let p = pat("a//*[*/m]/*[*/m]//*[m]");
        let v = pat("a//*/*");
        match RewritePlanner::default().decide(&p, &v) {
            RewriteAnswer::Unknown(info) => {
                assert!(info.brute_stats.is_some());
            }
            RewriteAnswer::Rewriting(rw) => {
                let rv = compose(rw.pattern(), &v).expect("composes");
                assert!(equivalent(&rv, &p));
            }
            RewriteAnswer::NoRewriting(r) => panic!("no certificate should exist: {r:?}"),
        }
    }

    #[test]
    fn stats_reflect_work() {
        let (ans, stats) =
            RewritePlanner::default().decide_with_stats(&pat("a[b]//*/e[d]"), &pat("a[b]/*"));
        assert!(ans.is_definitive());
        assert!(stats.condition_found);
        assert!(stats.candidate_tests.equivalence_tests >= 1);
        assert!(!stats.brute_forced);
    }

    #[test]
    fn a_refuted_pair_asks_the_oracle_nothing_and_keeps_its_condition() {
        // `region` is in the query but neither in P≥2 = item/name nor in
        // the view: both candidates fail by their labels.
        let (p, v) = (pat("site/region/item/name"), pat("site/*/item"));
        let session = RewritePlanner::default().session();
        let (answer, stats) = session.decide_with_stats(&p, &v);
        assert_eq!(stats.candidate_tests.equivalence_tests, 0);
        assert_eq!(session.oracle().stats().queries, 0, "no containment was asked");
        let condition = find_condition(&p, &v, CONDITION_FUEL).expect("P≥2 is stable");
        assert_eq!(condition, Condition::StableSubpattern);
        match answer {
            RewriteAnswer::NoRewriting(NoRewriteReason::CandidatesFailUnderCondition(c)) => {
                assert_eq!(c, condition);
            }
            other => panic!("expected a definitive no, got {other:?}"),
        }
        // The tests it skipped would have failed.
        for cand in natural_candidates(&p, &v) {
            let rv = compose(&cand.pattern, &v).expect("no clash");
            assert!(!equivalent(&rv, &p), "{} ∘ {v} ≡ {p}", cand.pattern);
        }
    }

    #[test]
    fn one_shot_decide_matches_session_decide() {
        let planner = RewritePlanner::default();
        let session = planner.session();
        for (ps, vs) in [
            ("a[b]//*/e[d]", "a[b]/*"),
            ("a/b/c", "a//b"),
            ("a//b//c", "a//*"),
            ("a/b", "a/b/c"),
            ("a/*/c", "a/b"),
        ] {
            let (p, v) = (pat(ps), pat(vs));
            let one_shot = planner.decide(&p, &v);
            let shared = session.decide(&p, &v);
            assert_eq!(
                one_shot.rewriting().map(|r| r.to_string()),
                shared.rewriting().map(|r| r.to_string()),
                "session and one-shot disagree on {ps} / {vs}"
            );
            assert_eq!(one_shot.is_definitive(), shared.is_definitive());
        }
    }

    #[test]
    fn figure1_planner_end_to_end() {
        // The reconstructed Figure 1 instance: R = *//e[d] rewrites
        // P = a[b]//*/e[d] using V = a[b]/*.
        let ans = decide("a[b]//*/e[d]", "a[b]/*");
        let r = ans.rewriting().expect("rewriting");
        assert_eq!(r.to_string(), "*//e[d]");
    }
}
