//! Properties of the two serve-hot-loop mechanisms: the plan-miss
//! signature filter (a rejected candidate provably admits no equivalent
//! rewriting) and the answer arena (`answer_batch_refs`, the engine's one
//! answer lane, against the owned-`Vec` `answer_batch` wrapper over it and
//! the reference evaluator, including multi-view intersection routes).

mod common;

use xpath_views::model::AnswerArena;
use xpath_views::pattern::{QuerySignature, ViewSignature};
use xpath_views::prelude::*;
use xpath_views::workload::{
    catalog_zipf_stream, site_catalog, site_doc, site_intersect_catalog, Fragment,
};

use common::instance_from_seed;

/// Filter soundness over generated pairs: whenever the signature check
/// rejects a (query, view) pair, the full unfiltered planner — oracle,
/// fallback and all — must agree that no equivalent rewriting exists.
/// (The converse is not claimed: the filter is a cheap necessary
/// condition, not a decision procedure.)
#[test]
fn signature_reject_implies_no_rewriting() {
    let planner = RewritePlanner::default();
    let fragments =
        [Fragment::Full, Fragment::NoWildcard, Fragment::NoDescendant, Fragment::NoBranch];
    let mut pairs = 0usize;
    let mut rejected = 0usize;
    for seed in 0..160u64 {
        for &frag in &fragments {
            // Correlated instances (view derived from the query) plus the
            // crossed pair from the next seed — the crossed ones are where
            // rejections actually fire.
            let (q, v) = instance_from_seed(seed, frag);
            let (_, v2) = instance_from_seed(seed ^ 0xA5A5, frag);
            for view in [&v, &v2] {
                pairs += 1;
                let qsig = QuerySignature::of(&q);
                if !qsig.admits(&ViewSignature::of(view)) {
                    rejected += 1;
                    assert!(
                        !matches!(planner.decide(&q, view), RewriteAnswer::Rewriting(_)),
                        "signature filter rejected a rewritable pair:\n  P = {q}\n  V = {view}"
                    );
                }
            }
        }
    }
    assert!(pairs >= 500, "want 500+ generated pairs, got {pairs}");
    assert!(rejected >= 50, "filter never fired ({rejected}/{pairs}) — the test is vacuous");
}

/// One answer lane: the arena lane, the owned copy-out wrapper over it and
/// the reference `Tree` evaluator agree node for node, routes are equal, and
/// the `stats()` counters move the same whichever API was called — cold and
/// with the plan memo warm — over the overlapping-view catalog, whose hot
/// queries only multi-view **intersection** routes can serve.
#[test]
fn arena_lane_owned_wrapper_and_reference_agree() {
    let catalog = site_intersect_catalog();
    let stream = catalog_zipf_stream(&catalog, 48, 0x51);
    let doc = site_doc(6, 6, 5);
    let build = || {
        let cache = ShardedViewCache::new(doc.clone());
        for (name, def) in &catalog.views {
            cache.add_view(name, def.clone());
        }
        cache
    };
    // Each cache sees the stream twice, once through either API, in
    // opposite orders: both passes (all misses, then all hits) are compared.
    let (refs_first, owned_first) = (build(), build());
    let mut arena = AnswerArena::new();
    for pass in 0..2 {
        let (via_refs, via_owned) =
            if pass == 0 { (&refs_first, &owned_first) } else { (&owned_first, &refs_first) };
        let refs = via_refs.answer_batch_refs(&stream, &mut arena);
        let owned = via_owned.answer_batch(&stream);
        assert!(
            owned.iter().any(|a| matches!(a.route, Route::Intersect { .. })),
            "stream must exercise intersection routes"
        );
        assert_eq!(owned.len(), refs.len());
        for ((o, r), q) in owned.iter().zip(&refs).zip(&stream) {
            assert_eq!(o.nodes.as_slice(), arena.get(r.nodes), "lanes diverge for {q}");
            assert_eq!(o.nodes, evaluate(q, &doc), "answer is not the reference's for {q}");
            assert_eq!(&o.route, r.route.as_ref(), "routes diverge for {q}");
        }
        let (a, b) = (via_refs.stats(), via_owned.stats());
        assert_eq!(a.queries, ((pass + 1) * stream.len()) as u64);
        for (name, x, y) in [
            ("queries", a.queries, b.queries),
            ("plan_memo_hits", a.plan_memo_hits, b.plan_memo_hits),
            ("plan_memo_misses", a.plan_memo_misses, b.plan_memo_misses),
            ("batch_dedup_hits", a.batch_dedup_hits, b.batch_dedup_hits),
            ("view_hits", a.view_hits, b.view_hits),
            ("intersect_hits", a.intersect_hits, b.intersect_hits),
            ("direct", a.direct, b.direct),
            ("sig_rejects", a.sig_rejects, b.sig_rejects),
        ] {
            assert_eq!(x, y, "counter {name} depends on which API was called (pass {pass})");
        }
        assert!(a.batch_dedup_hits > 0 && a.intersect_hits > 0);
    }
    assert!(refs_first.stats().sig_rejects > 0, "the filter never fired on this pool");
}

/// Fan-out sharing: a batch of one query repeated K times stores the answer
/// set **once** in the arena; every duplicate answer is a handle to the
/// same storage, and expanding all of them builds one node list.
#[test]
fn arena_fanout_shares_storage() {
    let catalog = site_catalog();
    let cache = ShardedViewCache::new(site_doc(6, 6, 5));
    for (name, def) in &catalog.views {
        cache.add_view(name, def.clone());
    }
    let q = catalog.queries[0].1.clone();
    let batch: Vec<Pattern> = std::iter::repeat_with(|| q.clone()).take(64).collect();
    let mut arena = AnswerArena::new();
    let refs = cache.answer_batch_refs(&batch, &mut arena);
    let first = refs[0].nodes;
    assert!(refs.iter().all(|r| r.nodes == first), "duplicates must share one set");
    assert_eq!(arena.node_count(), 0, "no node list before someone asks");
    refs.iter().for_each(|r| assert_eq!(arena.get(r.nodes).len(), first.len()));
    assert_eq!(arena.node_count(), first.len(), "arena must build exactly one node list");
    let direct = cache.answer_batch(&batch);
    assert_eq!(direct[0].nodes.as_slice(), arena.get(first));
}
