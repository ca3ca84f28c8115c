//! Property tests for intersection-aware multi-view rewriting.
//!
//! The contracts under test, per the `xpv-intersect` crate docs:
//!
//! * **exactness** — the merged intersection pattern answers exactly the
//!   node-set intersection of its participants, on every document;
//! * **soundness** — an intersection answer equals direct evaluation (only
//!   equivalent compensations are planned);
//! * **serving** — a query no single view can answer is served through
//!   `ShardedViewCache` byte-identically to direct evaluation, survives
//!   memoization (second ask = zero containment calls), and is invalidated
//!   when a participant view is replaced;
//! * **the anchor table changes no search** — a search over a pool's
//!   `AnchorTable` (anchors merged once per pool) finds what the straight
//!   per-query enumeration finds, with the same counters, however often
//!   the table is walked.

mod common;

use proptest::prelude::*;
use xpath_views::engine::{Route, ShardedViewCache};
use xpath_views::intersect::{
    plan_intersection_in, plan_intersection_sig, AnchorTable, IntersectStats, MAX_ARITY,
    MAX_CANDIDATES,
};
use xpath_views::model::BitSet;
use xpath_views::pattern::{intersect_patterns, label_mask, Axis, QuerySignature, ViewSignature};
use xpath_views::prelude::*;
use xpath_views::rewrite::PlanningSession;
use xpath_views::semantics::evaluate_anchored;
use xpath_views::workload::{site_doc, split_into_overlapping_views, Fragment};

use common::{pattern_from_seed, tree_from_seed};

/// `∩ Vi(t)` as the engine takes it: each view's answer set as a slot
/// bitset of the document's arena, intersected by word-AND.
fn joint_answer_set(views: &[&Pattern], t: &Tree) -> Vec<NodeId> {
    let set =
        |v: &Pattern| BitSet::from_indices(t.arena_len(), evaluate(v, t).iter().map(|n| n.index()));
    let (first, rest) = views.split_first().expect("at least one participant");
    let mut joint = set(first);
    rest.iter().for_each(|v| joint.intersect_with(&set(v)));
    joint.nodes().collect()
}

/// A seeded overlapping pool: a query split into 2–3 views that only cover
/// it jointly (`None` when the seeded query has no splittable shape).
fn overlapping_pool(seed: u64, parts: usize) -> Option<(Pattern, Vec<Pattern>)> {
    let p = pattern_from_seed(seed, Fragment::Full);
    let views = split_into_overlapping_views(&p, parts, seed ^ 0xA5A5)?;
    Some((p, views))
}

/// The subset search as every query ran it before anchor tables: group
/// the mergeable views no deeper than the query by depth (deepest first),
/// enumerate pairs then triples in lexicographic order under the budget,
/// skip a subset whose signature union the query rejects or whose labels
/// refute the query's natural candidates (restated from the definition:
/// a label of `P` in neither `P≥k` nor any participant), and merge,
/// redundancy-check and decide each remaining subset's anchor afresh. The
/// reference the table-backed search must equal.
fn reference_search(
    session: &PlanningSession,
    p: &Pattern,
    pool: &[&Pattern],
) -> (Option<IntersectAnswer>, IntersectStats) {
    fn for_each_subset(group: &[usize], arity: usize, visit: &mut impl FnMut(&[usize]) -> bool) {
        fn rec(
            group: &[usize],
            arity: usize,
            start: usize,
            current: &mut Vec<usize>,
            visit: &mut impl FnMut(&[usize]) -> bool,
        ) -> bool {
            if current.len() == arity {
                return visit(current);
            }
            for i in start..group.len() {
                current.push(group[i]);
                let keep_going = rec(group, arity, i + 1, current, visit);
                current.pop();
                if !keep_going {
                    return false;
                }
            }
            true
        }
        rec(group, arity, 0, &mut Vec::new(), visit);
    }

    let qsig = QuerySignature::of(p);
    let vsigs: Vec<ViewSignature> = pool.iter().map(|v| ViewSignature::of(v)).collect();
    let mergeable = |v: &Pattern| v.selection_axes().iter().skip(1).all(|&a| a == Axis::Child);
    let mut by_depth: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, v) in pool.iter().enumerate() {
        let k = v.depth();
        if k > p.depth() || !mergeable(v) {
            continue;
        }
        match by_depth.iter_mut().find(|(depth, _)| *depth == k) {
            Some((_, group)) => group.push(i),
            None => by_depth.push((k, vec![i])),
        }
    }
    by_depth.sort_by_key(|&(depth, _)| std::cmp::Reverse(depth));

    let mut stats = IntersectStats::default();
    let mut found = None;
    let mut budget = MAX_CANDIDATES;
    for arity in 2..=MAX_ARITY {
        for (_, group) in &by_depth {
            for_each_subset(group, arity, &mut |subset| {
                if budget == 0 {
                    return false;
                }
                budget -= 1;
                stats.candidates_tried += 1;
                let union =
                    subset[1..].iter().try_fold(vsigs[subset[0]], |acc, &i| acc.union(&vsigs[i]));
                let k = pool[subset[0]].depth();
                let uncovered = label_mask(p) & !label_mask(&p.sub_pattern_geq(k));
                if !union.is_some_and(|u| qsig.admits(&u) && uncovered & !u.label_mask == 0) {
                    stats.sig_skipped += 1;
                    return true;
                }
                let views: Vec<&Pattern> = subset.iter().map(|&i| pool[i]).collect();
                let Some(merged) = intersect_patterns(&views) else {
                    return true;
                };
                stats.merges_built += 1;
                let oracle = session.oracle();
                if views.iter().any(|v| oracle.contained(v, &merged)) {
                    stats.redundant_skipped += 1;
                    return true;
                }
                stats.plans_attempted += 1;
                if let Some(rw) = session.decide(p, &merged).rewriting() {
                    stats.participants = subset.len() as u64;
                    found = Some(IntersectAnswer {
                        views: subset.to_vec(),
                        compensation: rw.clone(),
                        intersection: merged,
                    });
                    return false;
                }
                true
            });
            if found.is_some() || budget == 0 {
                return (found, stats);
            }
        }
    }
    (found, stats)
}

/// Walks `pool`'s anchor table with every query twice (the second walk
/// reads filled anchors) against the reference search, each side with its
/// own session: the same participants, compensation and intersection
/// (printed), and the same counters. The reference decides each anchor
/// without the brute-force fallback, as the walk routes natural candidates
/// only. Returns the anchors the table filled.
fn table_matches_reference(pool: &[Pattern], queries: &[Pattern]) -> Result<usize, TestCaseError> {
    let refs: Vec<&Pattern> = pool.iter().collect();
    let (reference, walked) =
        (RewritePlanner::without_fallback().session(), RewritePlanner::default().session());
    let table = AnchorTable::new(&refs);
    let show = |a: &Option<IntersectAnswer>| {
        a.as_ref()
            .map(|a| (a.views.clone(), a.compensation.to_string(), a.intersection.to_string()))
    };
    for _ in 0..2 {
        for q in queries {
            let (want, want_stats) = reference_search(&reference, q, &refs);
            let (got, got_stats) =
                plan_intersection_sig(&walked, &walked.prepare(q), &QuerySignature::of(q), &table);
            prop_assert_eq!(show(&got), show(&want), "query {}", q);
            prop_assert_eq!(got_stats, want_stats, "query {}", q);
        }
    }
    Ok(table.held().entries)
}

/// The number of depth groups the search can walk in `pool`.
fn depth_groups(pool: &[Pattern]) -> usize {
    let mut depths: Vec<usize> = pool
        .iter()
        .filter(|v| v.selection_axes().iter().skip(1).all(|&a| a == Axis::Child))
        .map(Pattern::depth)
        .collect();
    depths.sort_unstable();
    depths.dedup();
    depths.len()
}

/// Queries at every depth of `p`: each of its upper patterns `P≤k`, `p`
/// itself, and a few unrelated ones.
fn queries_around(p: &Pattern, seed: u64) -> Vec<Pattern> {
    let mut queries: Vec<Pattern> = (0..p.depth()).map(|k| p.upper_pattern_leq(k)).collect();
    queries.push(p.clone());
    queries.extend((1..=3).map(|i| pattern_from_seed(seed.wrapping_add(i), Fragment::Full)));
    queries
}

/// A pool of eight equal-depth mergeable views whose every pair and triple
/// the queries admit: 28 + 56 = 84 admissible subsets, past the budget.
#[test]
fn the_anchor_table_matches_the_reference_past_the_budget() {
    let pool: Vec<Pattern> =
        (0..8).map(|i| parse_xpath(&format!("site/region/item[a{i}]/name")).unwrap()).collect();
    let all: String = (0..8).map(|i| format!("[a{i}]")).collect();
    let p = parse_xpath(&format!("site/region/item{all}/name")).unwrap();
    let mut queries = queries_around(&p, 7);
    queries.push(parse_xpath(&format!("site/region/item{all}/name/x")).unwrap());
    queries.push(parse_xpath("site/region/item[a3][a5]/name").unwrap());
    // Every subset misses some `ai` of the queries above, so their labels
    // refute every anchor but (a3, a5)'s. This one carries the `ai` below
    // the 3-node, in its candidates: it admits every subset and refutes
    // none, and walks the whole budget.
    queries.push(parse_xpath(&format!("site/region/item/name{all}")).unwrap());
    let filled = table_matches_reference(&pool, &queries).unwrap();
    assert_eq!(filled, MAX_CANDIDATES, "the budget's worth of pairs, no triple");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// On generated pools of up to eight views — a query split two or
    /// three ways, each part's upper pattern one level up (a second depth
    /// group, walked between the deeper group's pairs and its triples) and
    /// unrelated views — the table-backed search equals the reference for
    /// queries at every depth, and fills no more than the budget per depth
    /// group.
    #[test]
    fn the_anchor_table_matches_the_reference(seed in any::<u64>()) {
        let p = pattern_from_seed(seed, Fragment::Full);
        let parts = 2 + (seed % 2) as usize;
        let mut pool = split_into_overlapping_views(&p, parts, seed ^ 0xA5A5).unwrap_or_default();
        let uppers: Vec<Pattern> = pool
            .iter()
            .filter(|v| v.depth() > 0)
            .map(|v| v.upper_pattern_leq(v.depth() - 1))
            .collect();
        pool.extend(uppers);
        for i in pool.len()..8 {
            pool.push(pattern_from_seed(seed ^ (0x51 + i as u64), Fragment::Full));
        }
        let filled = table_matches_reference(&pool, &queries_around(&p, seed))?;
        prop_assert!(filled <= MAX_CANDIDATES * depth_groups(&pool));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The exact intersection pattern is exact: `M(t) = ∩ Vi(t)` for every
    /// document, and for split pools it recovers the original query.
    #[test]
    fn merge_is_exact_on_documents(seed in any::<u64>(), tseed in any::<u64>()) {
        let parts = 2 + (seed % 2) as usize; // pairs and triples
        if let Some((p, views)) = overlapping_pool(seed, parts) {
            let refs: Vec<&Pattern> = views.iter().collect();
            let m = intersect_patterns(&refs).expect("split views always merge");
            let t = tree_from_seed(tseed, 40);
            let joint = joint_answer_set(&refs, &t);
            prop_assert_eq!(&joint, &evaluate(&m, &t), "M(t) != ∩Vi(t) for M={}", m);
            prop_assert_eq!(&joint, &evaluate(&p, &t), "split pool must reconstruct {}", p);
        }
    }

    /// Intersection answers are sound: exactly equal to direct evaluation.
    #[test]
    fn intersection_answers_are_sound(seed in any::<u64>(), tseed in any::<u64>()) {
        if let Some((p, views)) = overlapping_pool(seed, 2) {
            let refs: Vec<&Pattern> = views.iter().collect();
            let session = RewritePlanner::default().session();
            if let (Some(ans), _) = plan_intersection_in(&session, &p, &refs) {
                let t = tree_from_seed(tseed, 40);
                let participants: Vec<&Pattern> = ans.views.iter().map(|&i| &views[i]).collect();
                let anchors = joint_answer_set(&participants, &t);
                let got = evaluate_anchored(&ans.compensation, &t, &anchors);
                prop_assert_eq!(got, evaluate(&p, &t), "answer must be byte-identical");
            }
        }
    }

    /// End-to-end through the cache: whatever route the cache
    /// picks (view, intersection, or direct), answers equal direct
    /// evaluation on the seeded document.
    #[test]
    fn cache_with_overlapping_pool_stays_exact(seed in any::<u64>()) {
        if let Some((p, views)) = overlapping_pool(seed, 2) {
            let t = tree_from_seed(seed ^ 0x7777, 48);
            let cache = ShardedViewCache::new(t);
            for (i, v) in views.iter().enumerate() {
                cache.add_view(&format!("v{i}"), v.clone());
            }
            let ans = cache.answer(&p);
            prop_assert_eq!(&ans.nodes, &cache.answer_direct(&p), "route {:?}", ans.route);
        }
    }
}

/// The headline acceptance scenario: a query answerable by **no single
/// view** in the pool is served from a 2-view intersection through
/// `ShardedViewCache` — byte-identical to direct evaluation, memoized
/// (second ask runs zero containment calls), and correctly invalidated
/// when either participant is replaced.
#[test]
fn acceptance_two_view_intersection_through_the_sharded_cache() {
    let doc = site_doc(8, 10, 7);
    let cache = ShardedViewCache::new(doc);
    cache.add_view("bid_names", parse_xpath("site/region/item[bids]/name").unwrap());
    cache.add_view("ship_names", parse_xpath("site/region/item[shipping]/name").unwrap());
    let q = parse_xpath("site/region/item[bids][shipping]/name").unwrap();

    // No single view in the pool rewrites the query.
    let session = RewritePlanner::default().session();
    for v in cache.views_snapshot().iter() {
        assert!(
            session.decide(&q, v.definition()).rewriting().is_none(),
            "view {} must not answer the query alone",
            v.name()
        );
    }

    // Served through the intersection, byte-identical to direct evaluation.
    let direct = cache.answer_direct(&q);
    assert!(!direct.is_empty(), "the scenario document answers the query");
    let first = cache.answer(&q);
    assert_eq!(first.nodes, direct);
    match &first.route {
        Route::Intersect { views, .. } => {
            assert_eq!(views, &["bid_names", "ship_names"]);
        }
        other => panic!("expected an intersection route, got {other:?}"),
    }

    // Second ask: plan-memo hit, zero containment calls.
    let runs_before = cache.session().oracle().stats().canonical_runs;
    let queries_before = cache.session().oracle().stats().queries;
    let second = cache.answer(&q);
    assert_eq!(second.nodes, direct);
    assert_eq!(second.route, first.route);
    let oracle_after = cache.session().oracle().stats();
    assert_eq!(
        oracle_after.queries, queries_before,
        "second ask must issue zero containment queries"
    );
    assert_eq!(oracle_after.canonical_runs, runs_before);
    assert_eq!(cache.stats().plan_memo_hits, 1);

    // Replacing either participant invalidates the route.
    let invalidations = cache.stats().plan_memo_invalidations;
    cache.replace_view("bid_names", parse_xpath("site/region/item[bids]/shipping").unwrap());
    assert!(cache.stats().plan_memo_invalidations > invalidations, "route must be dropped");
    let after = cache.answer(&q);
    assert_eq!(after.nodes, direct, "answers stay correct after the replacement");
    assert_eq!(after.route, Route::Direct, "the degraded pool no longer supports the route");

    // Restoring the participant restores the intersection route.
    cache.replace_view("bid_names", parse_xpath("site/region/item[bids]/name").unwrap());
    let restored = cache.answer(&q);
    assert_eq!(restored.nodes, direct);
    assert!(matches!(restored.route, Route::Intersect { .. }));
}
