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
//!   when a participant view is replaced.

mod common;

use proptest::prelude::*;
use xpath_views::engine::{Route, ShardedViewCache};
use xpath_views::intersect::plan_intersection_in;
use xpath_views::model::BitSet;
use xpath_views::pattern::intersect_patterns;
use xpath_views::prelude::*;
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

    /// End-to-end through the cache: whatever route the sharded cache
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
    let cache = ShardedViewCache::new(doc).with_shards(4);
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
