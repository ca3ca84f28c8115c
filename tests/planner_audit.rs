//! Cross-crate audit of the rewrite planner against the brute-force oracle
//! (the executable form of the paper's completeness theorems).
//!
//! For every audited instance:
//!
//! * a positive planner answer must verify (`R ◦ V ≡ P`) — checked inside
//!   the planner already, re-checked here independently;
//! * a negative planner answer must never be refuted by the oracle;
//! * a positive planner answer must be found by the oracle whenever the
//!   rewriting is within the oracle's exhaustive budget.

mod common;

use xpath_views::prelude::*;
use xpath_views::rewrite::{
    brute_force_rewrite, BruteForceOutcome, NoRewriteReason, RewriteAnswer, RewritePlanner,
};
use xpath_views::workload::{no_condition_instance, Fragment};

use common::instance_from_seed;

fn audit(p: &Pattern, v: &Pattern) {
    let planner = RewritePlanner::without_fallback();
    let bf = BruteForceConfig { max_nodes: 7, max_tested: 20_000 };
    match planner.decide(p, v) {
        RewriteAnswer::Rewriting(rw) => {
            let rv = compose(rw.pattern(), v).expect("verified rewriting composes");
            assert!(equivalent(&rv, p), "unsound rewriting for P={p}, V={v}");
            if v.depth() <= p.depth() {
                match brute_force_rewrite(p, v, &bf) {
                    BruteForceOutcome::Exhausted(_) => {
                        assert!(
                            rw.pattern().len() > bf.max_nodes,
                            "oracle exhausted its space but the planner found \
                             a small rewriting: P={p}, V={v}, R={}",
                            rw.pattern()
                        );
                    }
                    BruteForceOutcome::Found(..)
                    | BruteForceOutcome::BudgetExceeded(_)
                    | BruteForceOutcome::GateClosed(_) => {}
                }
            }
        }
        RewriteAnswer::NoRewriting(reason) => {
            if v.depth() <= p.depth() {
                if let BruteForceOutcome::Found(r, _) = brute_force_rewrite(p, v, &bf) {
                    panic!("planner denied ({reason:?}) but oracle found R={r} for P={p}, V={v}");
                }
            }
        }
        RewriteAnswer::Unknown(_) => {}
    }
}

#[test]
fn audit_random_instances_all_fragments() {
    for fragment in
        [Fragment::NoWildcard, Fragment::NoDescendant, Fragment::NoBranch, Fragment::Full]
    {
        for seed in 0..40u64 {
            let (p, v) = instance_from_seed(seed * 7 + 1, fragment);
            audit(&p, &v);
        }
    }
}

#[test]
fn sub_fragments_are_always_decided() {
    // The paper proves completeness conditions cover the three sub-fragments
    // (labeled roots / child-only prefixes / linearity ⇒ GNF). The planner
    // must therefore never answer Unknown there.
    let planner = RewritePlanner::without_fallback();
    for fragment in [Fragment::NoWildcard, Fragment::NoDescendant, Fragment::NoBranch] {
        for seed in 0..60u64 {
            let (p, v) = instance_from_seed(seed * 13 + 5, fragment);
            let ans = planner.decide(&p, &v);
            assert!(
                ans.is_definitive(),
                "sub-fragment instance left undecided: P={p}, V={v} ({fragment:?})"
            );
        }
    }
}

#[test]
fn certificate_free_instances_stay_honest() {
    let planner = RewritePlanner::without_fallback();
    for segments in 1..=2 {
        let (p, v) = no_condition_instance(segments);
        match planner.decide(&p, &v) {
            RewriteAnswer::Unknown(_) => {}
            RewriteAnswer::Rewriting(rw) => {
                // Acceptable only if genuinely verified.
                let rv = compose(rw.pattern(), &v).expect("composes");
                assert!(equivalent(&rv, &p));
            }
            RewriteAnswer::NoRewriting(r) => {
                panic!("no certificate exists; a definitive no is unsound: {r:?}")
            }
        }
    }
}

#[test]
fn depth_and_label_gates_fire() {
    let planner = RewritePlanner::without_fallback();
    let p = parse_xpath("a/b").unwrap();
    let v = parse_xpath("a/b/c").unwrap();
    assert!(matches!(
        planner.decide(&p, &v),
        RewriteAnswer::NoRewriting(NoRewriteReason::ViewDeeperThanQuery)
    ));

    let p = parse_xpath("a/*/q").unwrap();
    let v = parse_xpath("a/b").unwrap();
    assert!(matches!(
        planner.decide(&p, &v),
        RewriteAnswer::NoRewriting(NoRewriteReason::KNodeLabelClash { .. })
    ));
}

#[test]
fn planner_with_fallback_can_settle_small_instances() {
    // With the brute-force fallback enabled, tiny certificate-free instances
    // get a definitive-or-honest answer with explicit budget accounting.
    let planner = RewritePlanner::default();
    let (p, v) = no_condition_instance(1);
    match planner.decide(&p, &v) {
        RewriteAnswer::Unknown(info) => {
            assert!(info.brute_stats.is_some());
        }
        RewriteAnswer::Rewriting(rw) => {
            let rv = compose(rw.pattern(), &v).expect("composes");
            assert!(equivalent(&rv, &p));
        }
        RewriteAnswer::NoRewriting(r) => panic!("unexpected definitive no: {r:?}"),
    }
}
