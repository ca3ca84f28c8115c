//! What sharing never changes: a long-lived [`ContainmentOracle`] (the thing
//! `PlanningSession` and `ShardedViewCache` hold) answers exactly like the
//! free functions `contained` / `equivalent`, and a session's decision memo
//! answers a repeated `(P, V)` exactly like its first decision and like a
//! one-shot planner. Exercised over hundreds of generated pattern pairs,
//! each asked twice.

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
fn a_shared_oracle_agrees_with_the_free_functions() {
    let pairs = pattern_pairs();
    let shared = ContainmentOracle::new();

    // Each round asks every pair both ways through the shared oracle; every
    // verdict must match the free function's.
    let round = || {
        for (p, q) in &pairs {
            assert_eq!(
                shared.contained(p, q),
                contained(p, q),
                "shared oracle diverged on {p} ⊑ {q}"
            );
            assert_eq!(
                shared.contained(q, p),
                contained(q, p),
                "shared oracle diverged on {q} ⊑ {p}"
            );
        }
    };
    round();
    let first = shared.stats();
    assert_eq!(first.queries, 2 * pairs.len() as u64);
    // Nothing is remembered: the second round does the first round's work
    // again, stage for stage.
    round();
    let s = shared.stats();
    assert_eq!(s.queries, 2 * first.queries);
    assert_eq!(s.canonical_runs, 2 * first.canonical_runs);
    assert_eq!(s.models_checked, 2 * first.models_checked);
    assert!(first.canonical_runs > 0, "some pair needs the coNP loop: {first}");
}

#[test]
fn session_planner_agrees_with_one_shot_planner_on_generated_instances() {
    let cfg = PatternGenConfig { depth: (1, 3), max_branch_size: 2, ..PatternGenConfig::default() };
    let mut g = PatternGen::new(cfg, 0xBEEFCAFE);
    let planner = RewritePlanner::without_fallback();
    let session = planner.session();
    let verdict =
        |a: &RewriteAnswer| (std::mem::discriminant(a), a.rewriting().map(|r| r.canonical_key()));
    for _ in 0..60 {
        let (p, v) = g.instance();
        let one_shot = planner.decide(&p, &v);
        let shared = session.decide(&p, &v);
        // Asked again, the pair comes from the session's decision memo:
        // the same answer, and no containment work.
        let (again, stats) = session.decide_with_stats(&p, &v);
        assert_eq!(verdict(&again), verdict(&shared), "memoized decision changed for P={p}, V={v}");
        assert_eq!((stats.memo_hits, stats.memo_misses), (1, 0), "P={p}, V={v}");
        assert_eq!(stats.canonical_runs, 0, "P={p}, V={v}");
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
fn per_call_planner_counters_are_exact_under_concurrent_callers() {
    // Four callers share one session, each deciding its own instances;
    // every call's counters must be what that decision costs alone, never
    // another caller's overlapping work.
    let planner = RewritePlanner::without_fallback();
    let session = planner.session();
    let cfg = PatternGenConfig { depth: (1, 3), max_branch_size: 2, ..PatternGenConfig::default() };
    let work: Vec<Vec<(Pattern, Pattern)>> = (0..4u64)
        .map(|t| {
            let mut g = PatternGen::new(cfg.clone(), 0xC0FFEE + t);
            (0..40).map(|_| g.instance()).collect()
        })
        .collect();
    let cost = |s: &xpath_views::rewrite::PlannerStats| {
        (s.canonical_runs, s.candidate_tests.models_checked, s.candidate_tests.equivalence_tests)
    };
    let barrier = std::sync::Barrier::new(work.len());
    std::thread::scope(|scope| {
        for instances in &work {
            let (session, planner, barrier) = (&session, &planner, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for (p, v) in instances {
                    let (_, shared) = session.decide_with_stats(p, v);
                    if shared.memo_hits == 1 {
                        // Another caller decided the same pair first.
                        assert_eq!(cost(&shared), (0, 0, 0), "P={p}, V={v}");
                    } else {
                        let (_, alone) = planner.decide_with_stats(p, v);
                        assert_eq!(cost(&shared), cost(&alone), "P={p}, V={v}");
                    }
                }
            });
        }
    });
    assert!(session.oracle().stats().canonical_runs > 0, "some instance runs the coNP loop");
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
