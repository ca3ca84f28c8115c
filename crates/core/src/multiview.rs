//! Extensions beyond the paper's core results.
//!
//! The paper's conclusion lists open problems; two admit useful *sound*
//! (if incomplete) treatments, implemented here with their limitations
//! documented:
//!
//! * **Open problem 5 — rewriting using multiple views.** This module
//!   covers *view chains*: when `V2` was materialized over the result of
//!   `V1` (a cache hierarchy), the effective view is the composition
//!   `V2 ◦ V1` (Proposition 2.4), and the single-view planner applies
//!   verbatim. Rewritings over view *intersections* (Cautis, Deutsch,
//!   Ileana & Onose) are implemented once, in the `xpv-intersect` crate.
//!
//! * **Open problem 3 — maximally-contained rewritings.** We compute
//!   *contained* rewritings: `R` with `R ◦ V ⊑ P`, which yield sound partial
//!   answers when no equivalent rewriting exists. Maximality is not claimed;
//!   the candidates tried are the natural candidates and their
//!   branch-reduced variants.

use xpv_pattern::{compose, compose_chain, Pattern};
use xpv_semantics::{contained, remove_redundant_branches};

use crate::candidates::natural_candidates;
use crate::planner::{PlanningSession, RewriteAnswer, RewritePlanner};

/// The result of planning against a chain of stacked views.
#[derive(Clone, Debug)]
pub struct ChainAnswer {
    /// The effective view `Vn ◦ … ◦ V1` (`None` when the chain collapses to
    /// the empty pattern — a label clash between stacked views).
    pub effective_view: Option<Pattern>,
    /// The planner's verdict against the effective view.
    pub answer: Option<RewriteAnswer>,
}

/// Plans a rewriting of `p` over a *stack* of views: `views\[0\]` was
/// materialized from the document, `views\[1\]` from `views\[0\]`'s result, and
/// so on. By Proposition 2.4 the stack behaves exactly like the composed
/// view, so the single-view decision procedure applies.
///
/// Returns `None` for an empty chain (there is no effective view to plan
/// against); library callers with dynamic pools cannot be crashed by an
/// empty input.
pub fn rewrite_using_chain(
    planner: &RewritePlanner,
    p: &Pattern,
    views: &[&Pattern],
) -> Option<ChainAnswer> {
    rewrite_using_chain_in(&planner.session(), p, views)
}

/// [`rewrite_using_chain`] planning through a shared [`PlanningSession`].
/// Returns `None` for an empty chain.
pub fn rewrite_using_chain_in(
    session: &PlanningSession,
    p: &Pattern,
    views: &[&Pattern],
) -> Option<ChainAnswer> {
    let (top, rest) = views.split_last()?;
    let rest: Vec<&Pattern> = rest.iter().rev().copied().collect();
    let effective = compose_chain(top, &rest);
    Some(match effective {
        None => ChainAnswer { effective_view: None, answer: None },
        Some(v) => {
            let answer = session.decide(p, &v);
            ChainAnswer { effective_view: Some(v), answer: Some(answer) }
        }
    })
}

/// A **contained rewriting**: some `R` with `R ◦ V ⊑ P` and `R ◦ V`
/// satisfiable, so `R(V(t)) ⊆ P(t)` on every document — sound partial
/// answers from the view. Returns `None` when none of the tried candidates
/// works (which does *not* prove none exists; maximally-contained rewriting
/// is the paper's open problem 3).
pub fn contained_rewriting(p: &Pattern, v: &Pattern) -> Option<Pattern> {
    if v.depth() > p.depth() {
        return None;
    }
    let mut tried: Vec<Pattern> = Vec::new();
    for cand in natural_candidates(p, v) {
        // The branch-reduced variant can only be weaker, hence is tried
        // after the full candidate.
        tried.push(cand.pattern.clone());
        tried.push(remove_redundant_branches(&cand.pattern));
    }
    for r in tried {
        if let Some(rv) = compose(&r, v) {
            if contained(&rv, p) {
                return Some(r);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_pattern::parse_xpath;
    use xpv_semantics::{contained, equivalent};

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    #[test]
    fn chain_of_two_views() {
        // V1 = site//item (over the doc), V2 = item/description (over V1's
        // result). Effective view: site//item/description.
        let planner = RewritePlanner::default();
        let v1 = pat("site//item");
        let v2 = pat("item/description");
        let p = pat("site//item/description/parlist");
        let ans = rewrite_using_chain(&planner, &p, &[&v1, &v2]).expect("nonempty chain");
        let eff = ans.effective_view.expect("chain composes");
        assert_eq!(eff.to_string(), "site//item/description");
        let rw = match ans.answer.expect("planned") {
            RewriteAnswer::Rewriting(rw) => rw,
            other => panic!("expected rewriting, got {other:?}"),
        };
        let rv = compose(rw.pattern(), &eff).expect("composes");
        assert!(equivalent(&rv, &p));
    }

    #[test]
    fn chain_with_label_clash_collapses() {
        let planner = RewritePlanner::default();
        let v1 = pat("a/b");
        let v2 = pat("c/d"); // c cannot merge with b
        let p = pat("a/b/c/d");
        let ans = rewrite_using_chain(&planner, &p, &[&v1, &v2]).expect("nonempty chain");
        assert!(ans.effective_view.is_none());
        assert!(ans.answer.is_none());
    }

    #[test]
    fn empty_chain_is_none_not_a_panic() {
        let planner = RewritePlanner::default();
        assert!(rewrite_using_chain(&planner, &pat("a/b"), &[]).is_none());
    }

    #[test]
    fn contained_rewriting_when_equivalent_exists() {
        // When an equivalent rewriting exists, it is in particular contained.
        let p = pat("a/b/c");
        let v = pat("a/b");
        let r = contained_rewriting(&p, &v).expect("contained rewriting");
        let rv = compose(&r, &v).expect("composes");
        assert!(contained(&rv, &p));
    }

    #[test]
    fn contained_rewriting_for_partial_coverage() {
        // V = a[x]/b materializes only b's under x-bearing roots; P = a/b/c.
        // No equivalent rewriting exists (V imposes [x]); but R = b/c gives
        // sound partial answers: R∘V = a[x]/b/c ⊑ P.
        let p = pat("a/b/c");
        let v = pat("a[x]/b");
        assert!(RewritePlanner::default().decide(&p, &v).rewriting().is_none());
        let r = contained_rewriting(&p, &v).expect("partial rewriting");
        let rv = compose(&r, &v).expect("composes");
        assert!(contained(&rv, &p));
        assert!(!equivalent(&rv, &p));
    }

    #[test]
    fn contained_rewriting_rejects_hopeless_views() {
        // Output label clash: no candidate composes into a subset of P.
        let p = pat("a/b/c");
        let v = pat("a/b/x");
        assert!(contained_rewriting(&p, &v).is_none());
        // View deeper than the query.
        let v2 = pat("a/b/c/d");
        assert!(contained_rewriting(&p, &v2).is_none());
    }
}
