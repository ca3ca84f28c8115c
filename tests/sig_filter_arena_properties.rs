//! Properties of the two serve-hot-loop mechanisms: the plan-miss filter
//! (a candidate the signature rejects provably admits no equivalent
//! rewriting; one the labels refute provably has no natural candidate that
//! verifies, and the engine's verify-only plan routes like the library's
//! full decision) and the answer arena (`answer_batch_refs`, the engine's
//! one answer lane, against the owned-`Vec` `answer_batch` wrapper over it
//! and the reference evaluator, including multi-view intersection routes).

mod common;

use std::collections::HashMap;

use xpath_views::model::AnswerArena;
use xpath_views::pattern::{label_mask, QuerySignature, ViewSignature};
use xpath_views::prelude::*;
use xpath_views::rewrite::{natural_candidates, QueryContext};
use xpath_views::workload::{
    catalog_zipf_stream, site_catalog, site_doc, site_intersect_catalog,
    split_into_overlapping_views, Fragment,
};

use common::{instance_from_seed, tree_from_seed};

const FRAGMENTS: [Fragment; 4] =
    [Fragment::Full, Fragment::NoWildcard, Fragment::NoDescendant, Fragment::NoBranch];

/// Filter soundness over generated pairs: whenever the signature check
/// rejects a (query, view) pair, the full unfiltered planner — oracle,
/// fallback and all — must agree that no equivalent rewriting exists.
/// (The converse is not claimed: the filter is a cheap necessary
/// condition, not a decision procedure.)
#[test]
fn signature_reject_implies_no_rewriting() {
    let planner = RewritePlanner::default();
    let mut pairs = 0usize;
    let mut rejected = 0usize;
    for seed in 0..160u64 {
        for frag in FRAGMENTS {
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

/// Refutation soundness, checked against the definitions and not the
/// planner, over the same correlated and crossed pairs, drawn over 4 labels
/// and over 80 (which reach every bit of the masks): a context's one-pass
/// masks are `labels(P) \ labels(P≥k)` at every depth `k` (read back bit by
/// bit through `refutes`), and whenever the labels refute a pair, no
/// natural candidate `R` has `R ∘ V ≡ P`.
#[test]
fn label_refutation_never_refutes_a_verifying_candidate() {
    let oracle = ContainmentOracle::new();
    let (mut pairs, mut refuted) = (0usize, 0usize);
    for (label_count, seed) in [4, 80].into_iter().flat_map(|l| (0..160u64).map(move |s| (l, s))) {
        for fragment in FRAGMENTS {
            let cfg = PatternGenConfig {
                depth: (1, 3),
                max_branch_size: 2,
                fragment,
                label_count,
                ..PatternGenConfig::default()
            };
            let (q, v) = PatternGen::new(cfg.clone(), seed).instance();
            let (_, v2) = PatternGen::new(cfg, seed ^ 0xA5A5).instance();
            let ctx = QueryContext::new(&oracle, &q);
            for k in 0..=q.depth() {
                let uncovered = label_mask(&q) & !label_mask(&q.sub_pattern_geq(k));
                for bit in 0..64 {
                    let held = uncovered >> bit & 1 == 1;
                    assert_eq!(ctx.refutes(k, !(1u64 << bit)), held, "{q} at depth {k}, bit {bit}");
                }
                assert!(!ctx.refutes(k, uncovered), "{q} at depth {k}: the labels it needs");
            }
            for view in [&v, &v2].into_iter().filter(|view| view.depth() <= q.depth()) {
                pairs += 1;
                if !ctx.refutes(view.depth(), label_mask(view)) {
                    continue;
                }
                refuted += 1;
                for cand in natural_candidates(&q, view) {
                    let verifies =
                        compose(&cand.pattern, view).is_some_and(|rv| equivalent(&rv, &q));
                    assert!(!verifies, "refuted, yet {} ∘ {view} ≡ {q}", cand.pattern);
                }
            }
        }
    }
    assert!(pairs >= 1000, "want 1000+ generated pairs, got {pairs}");
    assert!(refuted >= 200, "the refutation never fired ({refuted}/{pairs}): the test is vacuous");
    assert_eq!(oracle.stats().queries, 0, "a context asks nothing until a candidate is tested");
}

/// The engine plans by refuting and verifying only; the library decides
/// in full (gates, conditions, candidates). On generated pools (derived
/// views, views split off a query that only serve it jointly, unrelated
/// patterns) and on the overlapping-view catalog, a view route's rewriting
/// is the library's rewriting for that view, and an intersection or direct
/// route means no pool view has one.
#[test]
fn the_engine_routes_like_the_library_decides() {
    let planner = RewritePlanner::without_fallback();
    let mut routes = [0usize; 3];
    let mut check = |pool: &[Pattern], queries: &[Pattern], doc: Tree| {
        let cache = ShardedViewCache::new(doc);
        let defs: HashMap<String, &Pattern> =
            pool.iter().enumerate().map(|(i, v)| (format!("v{i}"), v)).collect();
        for (name, def) in &defs {
            cache.add_view(name, (*def).clone());
        }
        for q in queries {
            let decided = |v: &Pattern| planner.decide(q, v).rewriting().map(|r| r.to_string());
            match cache.answer(q).route {
                Route::ViaView { view, rewriting } => {
                    routes[0] += 1;
                    assert_eq!(decided(defs[&view]), Some(rewriting), "{q} via {view}");
                }
                route => {
                    routes[1 + usize::from(route == Route::Direct)] += 1;
                    for (name, def) in &defs {
                        assert_eq!(decided(def), None, "{q} has {route:?}, yet {name} rewrites it");
                    }
                }
            }
        }
    };
    let catalog = site_intersect_catalog();
    let defs: Vec<Pattern> = catalog.views.iter().map(|(_, v)| v.clone()).collect();
    let queries: Vec<Pattern> = catalog.queries.iter().map(|(_, q)| q.clone()).collect();
    check(&defs, &queries, site_doc(4, 4, 3));
    for seed in 0..48u64 {
        let cfg = PatternGenConfig {
            depth: (1, 3),
            max_branch_size: 2,
            fragment: FRAGMENTS[seed as usize % 4],
            ..PatternGenConfig::default()
        };
        let mut g = PatternGen::new(cfg.clone(), 0x0A6E_E000 + seed);
        // The first query gets derived views, the others (branchy, so they
        // split) only the views split off them.
        let branchy = PatternGenConfig { branch_prob: 0.9, descendant_prob: 0.1, ..cfg };
        let mut h = PatternGen::new(branchy, 0x5B11_7000 + seed);
        let bases = [g.pattern(), h.pattern(), h.pattern()];
        let mut pool = vec![g.derived_view(&bases[0]), g.derived_view(&bases[0]), g.pattern()];
        for (i, base) in bases.iter().enumerate().skip(1) {
            pool.extend(split_into_overlapping_views(base, 1 + i, seed).unwrap_or_default());
        }
        let mut queries = bases.to_vec();
        queries.extend((0..3).map(|_| g.pattern()));
        check(&pool, &queries, tree_from_seed(seed, 30));
    }
    let [view, intersect, direct] = routes;
    assert!(view >= 30 && intersect >= 10 && direct >= 30, "routes {routes:?}");
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
