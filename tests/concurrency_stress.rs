//! Concurrency correctness of the sharded serving path.
//!
//! The contract of `ShardedViewCache` (and the `AsyncCacheServer` pool
//! above it) is that concurrency is *invisible* in the answers: the same
//! Zipf workload produces exactly the nodes and routing verdicts of a
//! one-shard cache driven from one thread, on any thread schedule. These
//! tests run the workload on 8 threads against that serial reference, plus
//! regression coverage for the selective plan-memo invalidation and the LRU
//! bound under concurrent load.

use std::sync::Arc;

use xpath_views::engine::{AsyncCacheServer, Route, ShardedViewCache};
use xpath_views::net::{Response, WireAnswer, WireClient, WireRoute};
use xpath_views::prelude::*;
use xpath_views::workload::{
    catalog_zipf_stream, site_catalog, site_doc, site_intersect_catalog, Catalog,
};

const THREADS: usize = 8;

/// A cache over the stress document with `catalog`'s views registered.
fn cache_with(catalog: &Catalog, shards: usize) -> ShardedViewCache {
    let cache = ShardedViewCache::new(site_doc(8, 10, 7)).with_shards(shards);
    for (name, def) in catalog.views.clone() {
        cache.add_view(name, def);
    }
    cache
}

fn sharded_cache() -> ShardedViewCache {
    cache_with(&site_catalog(), 8)
}

/// The reference verdicts: nodes plus route (the definitive-rewriting
/// decision) per stream position, from a one-shard cache over `catalog`
/// driven from this thread alone.
fn reference(catalog: &Catalog, stream: &[Pattern]) -> Vec<(Vec<NodeId>, Route)> {
    let serial = cache_with(catalog, 1);
    stream
        .iter()
        .map(|q| {
            let a = serial.answer(q);
            (a.nodes, a.route)
        })
        .collect()
}

#[test]
fn eight_threads_match_single_threaded_answers_and_verdicts() {
    let stream = catalog_zipf_stream(&site_catalog(), 400, 0x5EED);
    let want = reference(&site_catalog(), &stream);

    let cache = sharded_cache();
    // Each worker answers an interleaved slice concurrently; results are
    // collected per position.
    let results: Vec<(usize, Vec<NodeId>, Route)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = &cache;
                let stream = &stream;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for (i, q) in stream.iter().enumerate().skip(t).step_by(THREADS) {
                        let a = cache.answer(q);
                        out.push((i, a.nodes, a.route));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("worker panicked")).collect()
    });

    assert_eq!(results.len(), stream.len());
    for (i, nodes, route) in results {
        assert_eq!(nodes, want[i].0, "nodes diverged at position {i} ({})", stream[i]);
        assert_eq!(route, want[i].1, "verdict diverged at position {i} ({})", stream[i]);
    }
    let s = cache.stats();
    assert_eq!(s.queries, stream.len() as u64);
    assert_eq!(s.queries, s.plan_memo_hits + s.plan_memo_misses);
}

/// The engine route a wire route names.
fn wire_route(route: WireRoute) -> Route {
    match route {
        WireRoute::Direct => Route::Direct,
        WireRoute::ViaView { view, rewriting } => Route::ViaView { view, rewriting },
        WireRoute::Intersect { views, compensation } => Route::Intersect { views, compensation },
    }
}

#[test]
fn worker_pool_batches_match_single_threaded_answers() {
    let stream = catalog_zipf_stream(&site_catalog(), 320, 0xBEE);
    let want = reference(&site_catalog(), &stream);

    let server = AsyncCacheServer::start(Arc::new(sharded_cache()), THREADS);
    let addr = server.listen_tcp("127.0.0.1:0").expect("listen").to_string();
    // Three tenants, one connection each, every chunk of 20 pipelined on
    // its tenant's connection.
    let answered: Vec<(usize, Vec<WireAnswer>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|t| {
                let (addr, stream) = (&addr, &stream);
                scope.spawn(move || {
                    let mut client = WireClient::connect_tcp(addr).expect("connect");
                    let chunks: Vec<(usize, &[Pattern])> =
                        stream.chunks(20).enumerate().skip(t).step_by(3).collect();
                    let tenant = format!("tenant-{t}");
                    let ids: Vec<u64> = chunks
                        .iter()
                        .map(|(_, chunk)| client.send_queries(&tenant, chunk).expect("send"))
                        .collect();
                    let mut out = Vec::new();
                    for ((i, _), id) in chunks.iter().zip(ids) {
                        match client.recv_for(id).expect("recv") {
                            Response::Answers { answers, .. } => out.push((*i, answers)),
                            other => panic!("expected Answers, got {other:?}"),
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client panicked")).collect()
    });
    let mut answered_positions = 0usize;
    for (chunk, answers) in answered {
        for (j, a) in answers.into_iter().enumerate() {
            let pos = chunk * 20 + j;
            assert_eq!(a.nodes, want[pos].0, "nodes diverged at position {pos}");
            assert_eq!(wire_route(a.route), want[pos].1, "verdict diverged at position {pos}");
            answered_positions += 1;
        }
    }
    assert_eq!(answered_positions, stream.len());

    let total: u64 = server.tenants().iter().map(|(_, s)| s.queries).sum();
    assert_eq!(total, stream.len() as u64);
}

/// Regression: `add_view` only drops plan-memo entries whose plan depends
/// on the grown view pool. Memoized view routes survive and keep serving
/// with zero coNP work; `Direct` routes are re-planned and can adopt the new
/// view.
#[test]
fn add_view_invalidates_only_dependent_memo_entries() {
    let cache = ShardedViewCache::new(site_doc(4, 4, 7)).with_shards(4);
    cache.add_view("item_names", parse_xpath("site/region/item/name").unwrap());

    // Two memoized ViaView routes, two memoized Direct routes.
    let via = [
        parse_xpath("site/region/item/name").unwrap(),
        parse_xpath("site/region[item]/item/name").unwrap(),
    ];
    let direct = [
        parse_xpath("site/region/item").unwrap(),
        parse_xpath("site/region/item/description").unwrap(),
    ];
    for q in via.iter() {
        assert!(matches!(cache.answer(q).route, Route::ViaView { .. }), "{q} must hit the view");
    }
    for q in direct.iter() {
        assert_eq!(cache.answer(q).route, Route::Direct, "{q} must route direct");
    }
    assert_eq!(cache.plan_memo_len(), 4);

    let runs_before_add = cache.session().oracle().stats().canonical_runs;
    cache.add_view("items", parse_xpath("site/region/item").unwrap());

    // Exactly the two Direct entries were dropped.
    assert_eq!(cache.plan_memo_len(), 2, "view routes must survive add_view");
    assert_eq!(cache.stats().plan_memo_invalidations, 2);

    // Surviving routes serve from the memo: no replanning, zero coNP work.
    for q in via.iter() {
        assert!(matches!(cache.answer(q).route, Route::ViaView { .. }));
    }
    assert_eq!(
        cache.session().oracle().stats().canonical_runs,
        runs_before_add,
        "memoized view routes must not be re-planned"
    );

    // Dropped routes re-plan and pick up the fresh view.
    for q in direct.iter() {
        match cache.answer(q).route {
            Route::ViaView { ref view, .. } => assert_eq!(view, "items", "for {q}"),
            other => panic!("expected the fresh view to serve {q}, got {other:?}"),
        }
    }
}

/// The configured memo bound holds under concurrent load (the per-shard LRU
/// enforces it inside the insert lock), and evicted entries are re-planned
/// correctly on their next arrival.
#[test]
fn memo_cap_holds_under_concurrent_load() {
    let cap = 4usize;
    let cache = ShardedViewCache::new(site_doc(6, 6, 7)).with_shards(4).with_memo_cap(cap);
    for (name, def) in site_catalog().views {
        cache.add_view(name, def);
    }
    let stream = catalog_zipf_stream(&site_catalog(), 240, 0xCAFE);
    let want = reference_small(&cache, &stream);

    // Serial phase first: the arrival order is fixed. A full memo evicts
    // only from the *inserting* shard and declines a query whose shard is
    // still empty, and which shard a query hashes to follows label ids,
    // i.e. the order in which this process's test threads interned them:
    // the overflow shows either as an eviction or as a declined query that
    // re-plans on every arrival. Both leave more misses than distinct
    // queries, and never more entries than the cap.
    for (q, nodes) in stream.iter().zip(&want) {
        assert_eq!(&cache.answer(q).nodes, nodes, "capped cache wrong for {q}");
    }
    let distinct = {
        let oracle = cache.session().oracle();
        let keys: std::collections::HashSet<_> = stream.iter().map(|q| oracle.intern(q)).collect();
        keys.len()
    };
    assert!(distinct > cap, "the stream must overflow a cap of {cap}");
    assert!(
        cache.stats().plan_memo_misses > distinct as u64,
        "{distinct} distinct queries must overflow a cap of {cap}"
    );
    assert!(cache.plan_memo_len() <= cap);

    std::thread::scope(|scope| {
        for t in 0..4 {
            let cache = &cache;
            let stream = &stream;
            let want = &want;
            scope.spawn(move || {
                for (i, q) in stream.iter().enumerate().skip(t).step_by(4) {
                    assert_eq!(cache.answer(q).nodes, want[i], "capped cache wrong for {q}");
                }
            });
        }
    });
    assert!(
        cache.plan_memo_len() <= cap,
        "memo holds {} entries, cap is {cap}",
        cache.plan_memo_len()
    );
    let s = cache.stats();
    assert_eq!(s.queries, s.plan_memo_hits + s.plan_memo_misses);
}

/// Direct-evaluation reference against the same document as `cache`.
fn reference_small(cache: &ShardedViewCache, stream: &[Pattern]) -> Vec<Vec<NodeId>> {
    stream.iter().map(|q| cache.answer_direct(q)).collect()
}

/// Sharded-vs-serial byte-identity on a workload whose hot queries are
/// served by **multi-view intersection routes**: 8 threads over the
/// overlapping-view catalog must reproduce the one-thread cache's
/// nodes *and* routes (including `Route::Intersect` participant lists), and
/// replacing a participant under the sharded cache must invalidate every
/// route that depended on it.
#[test]
fn intersect_routes_are_schedule_invariant_and_invalidate_on_replacement() {
    let catalog = site_intersect_catalog();
    let stream = catalog_zipf_stream(&catalog, 400, 0x1D5EC7);

    // Serial reference: one shard, one thread, same document and pool.
    let want = reference(&catalog, &stream);
    assert!(
        want.iter().any(|(_, r)| matches!(r, Route::Intersect { .. })),
        "the overlapping catalog must exercise intersection routes"
    );

    let cache = cache_with(&catalog, 8);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = &cache;
            let stream = &stream;
            let want = &want;
            scope.spawn(move || {
                for (i, q) in stream.iter().enumerate().skip(t).step_by(THREADS) {
                    let a = cache.answer(q);
                    assert_eq!(a.nodes, want[i].0, "nodes diverged at {i} ({q})");
                    assert_eq!(a.route, want[i].1, "route diverged at {i} ({q})");
                }
            });
        }
    });
    let s = cache.stats();
    assert_eq!(s.queries, stream.len() as u64);
    assert!(s.intersect_hits > 0, "intersection routes must have served traffic");
    assert!(s.intersect_routes >= 1);

    // Multi-view invalidation: replacing one participant drops every route
    // that intersected through it; answers stay equal to direct evaluation.
    let direct = reference_small(&cache, &stream);
    cache.replace_view("ship_names", parse_xpath("site/region/item[shipping]/cost").unwrap());
    for (i, q) in stream.iter().enumerate() {
        assert_eq!(cache.answer(q).nodes, direct[i], "wrong answer after replacement for {q}");
    }
    // The replaced pool no longer supports bids∧shipping intersections on
    // `name` outputs: those queries must have re-planned away from the old
    // participants.
    let joint = parse_xpath("site/region/item[bids][shipping]/name").unwrap();
    match cache.answer(&joint).route {
        Route::Intersect { ref views, .. } => {
            assert!(
                !views.contains(&"ship_names".to_string()),
                "stale participant must not survive replacement"
            );
        }
        Route::Direct => {}
        Route::ViaView { .. } => panic!("no single view can serve the joint query"),
    }
}

/// `replace_view` is one transaction: while one thread replaces `items` in a
/// loop, every pool snapshot a reader takes still resolves the name (to one
/// of the two definitions, never to nothing), a second writer adding and
/// removing a view of another name never trips the duplicate-name panic on
/// either side, edit batches interleave with both, and at the end every
/// view is exactly its definition on the final document — no batch
/// maintained a pool the replacement had not seen.
#[test]
fn replace_view_is_atomic_for_readers_writers_and_edit_batches() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use xpath_views::workload::{edit_batches, edit_stream, EditMix};

    const ROUNDS: usize = 60;
    let cache = sharded_cache();
    let defs = [
        parse_xpath("site/region/item").expect("parses"),
        parse_xpath("site/region/item[name]").expect("parses"),
    ];
    let via_items = parse_xpath("site/region/item/name").expect("parses");
    // Inserts only: no batch can take an answer away, so "non-empty" below
    // holds for any stream the generator draws, not just for this seed's.
    let edits = edit_stream(&cache.document(), 40, EditMix::new(1, 0, 0), 0xA70);
    let replacing = AtomicBool::new(true);

    std::thread::scope(|scope| {
        let (cache, defs, replacing) = (&cache, &defs, &replacing);
        let replacer = scope.spawn(move || {
            for round in 0..ROUNDS {
                let def = defs[round % 2].clone();
                let n = cache.replace_view("items", def.clone());
                assert!(n > 0, "round {round}: {def} has answers");
            }
            replacing.store(false, Ordering::SeqCst);
        });
        let other_writer = scope.spawn(move || {
            let extra = parse_xpath("site//name").expect("parses");
            while replacing.load(Ordering::SeqCst) {
                cache.add_view("extra", extra.clone());
                assert!(cache.remove_view("extra"));
            }
        });
        let editor = scope.spawn(move || {
            for batch in edit_batches(&edits, 10) {
                cache.apply_edits(&batch).expect("the only editor: its stream stays valid");
            }
        });
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let via_items = &via_items;
                scope.spawn(move || {
                    let mut seen = 0usize;
                    while replacing.load(Ordering::SeqCst) {
                        let pool = cache.views_snapshot();
                        let items: Vec<_> = pool.iter().filter(|v| v.name() == "items").collect();
                        assert_eq!(items.len(), 1, "a snapshot without (or with two) `items`");
                        assert!(defs.iter().any(|d| d.structurally_eq(items[0].definition())));
                        // Routed or not, the answer is a whole one: the
                        // query's nodes on one document version.
                        assert!(!cache.answer(via_items).nodes.is_empty());
                        seen += 1;
                    }
                    seen
                })
            })
            .collect();
        replacer.join().expect("replacer panicked");
        other_writer.join().expect("second writer panicked");
        editor.join().expect("editor panicked");
        for reader in readers {
            reader.join().expect("reader panicked");
        }
    });

    let doc = cache.document();
    for view in cache.views_snapshot().iter() {
        assert_eq!(view.nodes(), evaluate(view.definition(), &doc), "view {}", view.name());
    }
    let ans = cache.answer(&via_items);
    assert_eq!(ans.nodes, cache.answer_direct(&via_items));
    assert!(matches!(ans.route, Route::ViaView { .. }), "got {:?}", ans.route);
}
