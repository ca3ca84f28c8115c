//! Concurrency correctness of the serving path.
//!
//! The contract of `ShardedViewCache` (and the `AsyncCacheServer` pool
//! above it) is that concurrency is *invisible* in the answers: the same
//! Zipf workload produces exactly the nodes and routing verdicts of a
//! cache driven from one thread, on any thread schedule. These tests run
//! the workload on 8 threads against that serial reference, plus
//! regression coverage for the selective plan-memo invalidation and the
//! plan memo's constant bound under concurrent load.

use std::sync::Arc;

use xpath_views::engine::{AsyncCacheServer, Route, ShardedViewCache, PLAN_MEMO_MAX_ENTRIES};
use xpath_views::net::{Response, WireAnswer, WireClient};
use xpath_views::prelude::*;
use xpath_views::workload::{
    catalog_zipf_stream, site_catalog, site_doc, site_intersect_catalog, Catalog,
};

const THREADS: usize = 8;

/// A cache over the stress document with `catalog`'s views registered.
fn cache_with(catalog: &Catalog) -> ShardedViewCache {
    let cache = ShardedViewCache::new(site_doc(8, 10, 7));
    for (name, def) in catalog.views.clone() {
        cache.add_view(name, def);
    }
    cache
}

fn shared_cache() -> ShardedViewCache {
    cache_with(&site_catalog())
}

/// The reference verdicts: nodes plus route (the definitive-rewriting
/// decision) per stream position, from a cache over `catalog` driven from
/// this thread alone.
fn reference(catalog: &Catalog, stream: &[Pattern]) -> Vec<(Vec<NodeId>, Route)> {
    let serial = cache_with(catalog);
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

    let cache = shared_cache();
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

#[test]
fn worker_pool_batches_match_single_threaded_answers() {
    let stream = catalog_zipf_stream(&site_catalog(), 320, 0xBEE);
    let want = reference(&site_catalog(), &stream);

    let server = AsyncCacheServer::start(Arc::new(shared_cache()), THREADS);
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
            assert_eq!(a.route, want[pos].1, "verdict diverged at position {pos}");
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
    let cache = ShardedViewCache::new(site_doc(4, 4, 7));
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
    assert_eq!(cache.plan_memo().entries, 4);

    let runs_before_add = cache.session().oracle().stats().canonical_runs;
    cache.add_view("items", parse_xpath("site/region/item").unwrap());

    // Exactly the two Direct entries were dropped.
    assert_eq!(cache.plan_memo().entries, 2, "view routes must survive add_view");
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

/// The `i`-th of a million distinct queries `u/dX/dX/dX/dX/dX/dX`: no
/// catalog view survives the signature filter for them.
fn distinct(i: usize) -> Pattern {
    let steps: Vec<String> = format!("{i:06}").chars().map(|d| format!("d{d}")).collect();
    parse_xpath(&format!("u/{}", steps.join("/"))).unwrap()
}

/// The constant plan-memo bound holds under concurrent load (entries are
/// stored and dropped under the memo's write lock), and evicted entries
/// are re-planned correctly on their next arrival.
#[test]
fn plan_memo_bound_holds_under_concurrent_load() {
    let cache = ShardedViewCache::new(site_doc(6, 6, 7));
    for (name, def) in site_catalog().views {
        cache.add_view(name, def);
    }
    // The hot stream, a flood of distinct queries past the bound, and the
    // hot stream again: the flood drops every hot route in between.
    let hot = catalog_zipf_stream(&site_catalog(), 240, 0xCAFE);
    let flood = (0..PLAN_MEMO_MAX_ENTRIES * 5 / 2).map(distinct);
    let stream: Vec<Pattern> =
        hot.iter().cloned().chain(flood).chain(hot.iter().cloned()).collect();
    let want = reference_small(&cache, &stream);

    // Serial phase first: the arrival order is fixed, so every hot query
    // is planned once before the flood and once after it.
    for (q, nodes) in stream.iter().zip(&want) {
        assert_eq!(&cache.answer(q).nodes, nodes, "bounded cache wrong for {q}");
        assert!(cache.plan_memo().entries <= PLAN_MEMO_MAX_ENTRIES);
    }
    let distinct_hot = {
        let oracle = cache.session().oracle();
        let keys: std::collections::HashSet<_> = hot.iter().map(|q| oracle.intern(q)).collect();
        keys.len()
    };
    let planned = (2 * distinct_hot + PLAN_MEMO_MAX_ENTRIES * 5 / 2) as u64;
    assert_eq!(cache.stats().plan_memo_misses, planned, "the flood must evict every hot route");
    assert!(cache.stats().plan_memo_evictions > 0);

    std::thread::scope(|scope| {
        for t in 0..4 {
            let cache = &cache;
            let stream = &stream;
            let want = &want;
            scope.spawn(move || {
                for (i, q) in stream.iter().enumerate().skip(t).step_by(4) {
                    assert_eq!(cache.answer(q).nodes, want[i], "bounded cache wrong for {q}");
                }
            });
        }
    });
    let held = cache.plan_memo();
    assert!(held.entries <= PLAN_MEMO_MAX_ENTRIES, "memo holds {held:?}");
    let s = cache.stats();
    assert_eq!(s.queries, s.plan_memo_hits + s.plan_memo_misses);
    assert!(s.plan_memo_misses > planned, "the concurrent pass re-plans evicted queries");
}

/// Direct-evaluation reference against the same document as `cache`.
fn reference_small(cache: &ShardedViewCache, stream: &[Pattern]) -> Vec<Vec<NodeId>> {
    stream.iter().map(|q| cache.answer_direct(q)).collect()
}

/// Concurrent-vs-serial byte-identity on a workload whose hot queries are
/// served by **multi-view intersection routes**: 8 threads over the
/// overlapping-view catalog must reproduce the one-thread cache's
/// nodes *and* routes (including `Route::Intersect` participant lists), and
/// replacing a participant under the shared cache must invalidate every
/// route that depended on it.
#[test]
fn intersect_routes_are_schedule_invariant_and_invalidate_on_replacement() {
    let catalog = site_intersect_catalog();
    let stream = catalog_zipf_stream(&catalog, 400, 0x1D5EC7);

    // Serial reference: one thread, same document and pool.
    let want = reference(&catalog, &stream);
    assert!(
        want.iter().any(|(_, r)| matches!(r, Route::Intersect { .. })),
        "the overlapping catalog must exercise intersection routes"
    );

    let cache = cache_with(&catalog);
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
    let cache = shared_cache();
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
