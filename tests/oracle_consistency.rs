//! The containment oracle's contract: memoization never changes a verdict.
//!
//! A shared, long-lived [`ContainmentOracle`] (the thing `PlanningSession`
//! and `ShardedViewCache` hold) must answer exactly like a fresh oracle per call —
//! which in turn is what the free functions `contained` / `weakly_contained`
//! run. The property is exercised over hundreds of generated pattern pairs,
//! asked twice each so the second round is answered from the memo.

use xpath_views::prelude::*;
use xpath_views::rewrite::{RewriteAnswer, RewritePlanner};
use xpath_views::semantics::ContainmentOracle;
use xpath_views::workload::Fragment;

/// ≥200 random pattern pairs: correlated (query, derived view) instances
/// plus uncorrelated pairs, across fragments, all from `PatternGen`.
fn pattern_pairs() -> Vec<(Pattern, Pattern)> {
    let mut pairs = Vec::new();
    for (i, fragment) in
        [Fragment::Full, Fragment::NoWildcard, Fragment::NoDescendant, Fragment::NoBranch]
            .into_iter()
            .enumerate()
    {
        let cfg = PatternGenConfig {
            depth: (1, 3),
            max_branch_size: 2,
            fragment,
            ..PatternGenConfig::default()
        };
        let mut g = PatternGen::new(cfg, 0xFACADE + i as u64);
        for j in 0..60 {
            if j % 2 == 0 {
                pairs.push(g.instance());
            } else {
                let p = g.pattern();
                let q = g.pattern();
                pairs.push((p, q));
            }
        }
    }
    assert!(pairs.len() >= 200, "need at least 200 pairs, got {}", pairs.len());
    pairs
}

#[test]
fn memoized_verdicts_equal_fresh_oracle_verdicts() {
    let pairs = pattern_pairs();
    let shared = ContainmentOracle::new();

    // Round 1: populate the shared oracle; every verdict must match a fresh
    // oracle (== the free functions).
    let mut expected = Vec::with_capacity(pairs.len());
    for (p, q) in &pairs {
        let fresh_strong = contained(p, q);
        let fresh_weak = weakly_contained(p, q);
        assert_eq!(shared.contained(p, q), fresh_strong, "shared oracle diverged on {p} ⊑ {q}");
        assert_eq!(
            shared.weakly_contained(p, q),
            fresh_weak,
            "shared oracle diverged on {p} ⊑w {q}"
        );
        expected.push((fresh_strong, fresh_weak));
    }

    // Round 2: every answer now comes from the memo and must be unchanged.
    let hits_before = shared.stats().verdict_memo_hits;
    let runs_before = shared.stats().canonical_runs;
    for ((p, q), (strong, weak)) in pairs.iter().zip(&expected) {
        assert_eq!(shared.contained(p, q), *strong, "memoized verdict flipped: {p} ⊑ {q}");
        assert_eq!(
            shared.weakly_contained(p, q),
            *weak,
            "memoized weak verdict flipped: {p} ⊑w {q}"
        );
    }
    let s = shared.stats();
    assert_eq!(
        s.verdict_memo_hits - hits_before,
        2 * pairs.len() as u64,
        "round 2 must be answered entirely from the memo"
    );
    assert_eq!(s.canonical_runs, runs_before, "round 2 must run zero coNP loops");
}

#[test]
fn session_planner_agrees_with_one_shot_planner_on_generated_instances() {
    let cfg = PatternGenConfig { depth: (1, 3), max_branch_size: 2, ..PatternGenConfig::default() };
    let mut g = PatternGen::new(cfg, 0xBEEFCAFE);
    let planner = RewritePlanner::without_fallback();
    let session = planner.session();
    for _ in 0..60 {
        let (p, v) = g.instance();
        let one_shot = planner.decide(&p, &v);
        let shared = session.decide(&p, &v);
        match (&one_shot, &shared) {
            (RewriteAnswer::Rewriting(a), RewriteAnswer::Rewriting(b)) => {
                assert_eq!(
                    a.pattern().to_string(),
                    b.pattern().to_string(),
                    "rewritings diverged for P={p}, V={v}"
                );
            }
            (RewriteAnswer::NoRewriting(_), RewriteAnswer::NoRewriting(_))
            | (RewriteAnswer::Unknown(_), RewriteAnswer::Unknown(_)) => {}
            other => panic!("verdict kind diverged for P={p}, V={v}: {other:?}"),
        }
    }
}

#[test]
fn a_prepared_query_decides_like_a_fresh_planner_at_every_view_depth() {
    let planner = RewritePlanner::without_fallback();
    let session = planner.session();
    let verdict =
        |a: &RewriteAnswer| (std::mem::discriminant(a), a.rewriting().map(|r| r.canonical_key()));
    let (mut rewritings, mut depths_shared) = (0, 0);
    for (i, fragment) in
        [Fragment::Full, Fragment::NoWildcard, Fragment::NoDescendant, Fragment::NoBranch]
            .into_iter()
            .enumerate()
    {
        let cfg = PatternGenConfig {
            depth: (1, 3),
            max_branch_size: 2,
            fragment,
            ..PatternGenConfig::default()
        };
        let mut g = PatternGen::new(cfg, 0x5EED_C0DE + i as u64);
        for _ in 0..30 {
            let p = g.pattern();
            // One context for the whole "miss": the prefix view of every
            // depth (twice, so a depth's candidates are reused), two derived
            // views, an unrelated pattern and one deeper than the query.
            let mut views: Vec<Pattern> =
                (0..=p.depth()).chain(0..=p.depth()).map(|k| p.upper_pattern_leq(k)).collect();
            views.extend([g.derived_view(&p), g.derived_view(&p), g.pattern()]);
            let mut deeper = p.clone();
            let below = deeper.add_child(deeper.output(), Axis::Child, NodeTest::Wildcard);
            deeper.set_output(below);
            views.push(deeper);
            let ctx = session.prepare(&p);
            for v in &views {
                let prepared = session.decide_prepared(&ctx, v);
                let fresh = planner.decide(&p, v);
                assert_eq!(verdict(&prepared), verdict(&fresh), "P={p}, V={v}");
                rewritings += usize::from(fresh.rewriting().is_some());
            }
            depths_shared += p.depth();
        }
    }
    assert!(rewritings > 200 && depths_shared > 120, "{rewritings} / {depths_shared}");
}
