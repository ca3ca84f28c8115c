//! End-to-end tests of the serving front-end: idle connections
//! against a small worker pool, wire-protocol answer fidelity, edit
//! batches over the wire with version checks, credit-window enforcement,
//! and graceful drain under racing clients.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xpath_views::engine::{AsyncCacheServer, ShardedViewCache};
use xpath_views::net::{Response, WireClient};
use xpath_views::prelude::*;
use xpath_views::workload::{
    catalog_zipf_stream, edit_batches, edit_stream, run_socket_load, site_doc,
    site_intersect_catalog, EditMix,
};

fn serving_cache() -> Arc<ShardedViewCache> {
    let catalog = site_intersect_catalog();
    let cache = ShardedViewCache::new(site_doc(8, 8, 5));
    for (name, def) in catalog.views.iter() {
        cache.add_view(name, def.clone());
    }
    Arc::new(cache)
}

/// The acceptance scenario: ≥ 256 open **idle** connections against a
/// 4-worker server must not stop a Zipf query mix on 8 active connections
/// from completing, and every answer must be byte-identical to
/// [`ShardedViewCache::answer`] on the same cache. Each idle connection
/// holds one blocked reader thread and no worker slot, so the four slots
/// stay free for the active connections.
#[test]
fn idle_connections_do_not_pin_workers() {
    const IDLE: usize = 256;
    const ACTIVE: usize = 8;

    let cache = serving_cache();
    let server = AsyncCacheServer::start(Arc::clone(&cache), 4);
    let addr = server.listen_tcp("127.0.0.1:0").expect("listen").to_string();

    // Expected answers, computed through the serial `&self` serving path.
    let catalog = site_intersect_catalog();
    let expected: HashMap<String, Vec<NodeId>> =
        catalog.queries.iter().map(|(_, q)| (q.to_string(), cache.answer(q).nodes)).collect();

    // Park the idle herd (handshake completed, then silence).
    let idle: Vec<WireClient> =
        (0..IDLE).map(|_| WireClient::connect_tcp(&addr).expect("idle connect")).collect();
    // Connection threads are spawned by the acceptor; give it a beat to
    // accept the whole herd before asserting.
    for _ in 0..200 {
        if server.connections() >= IDLE {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        server.connections() >= IDLE,
        "herd not fully connected: {} of {IDLE}",
        server.connections()
    );

    // The active Zipf mix: 8 connections, pipelined batches, every answer
    // verified against the serial cache.
    let stream = catalog_zipf_stream(&catalog, 800, 0xA51C);
    let verified = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let per_conn = stream.len() / ACTIVE;
        for (i, chunk) in stream.chunks(per_conn).enumerate() {
            let addr = &addr;
            let expected = &expected;
            let verified = &verified;
            scope.spawn(move || {
                let mut client = WireClient::connect_tcp(addr).expect("active connect");
                let tenant = format!("active-{i}");
                for batch in chunk.chunks(5) {
                    let answers = client.answer_batch(&tenant, batch).expect("answers");
                    assert_eq!(answers.len(), batch.len());
                    for (q, a) in batch.iter().zip(&answers) {
                        let want = &expected[&q.to_string()];
                        assert_eq!(
                            &a.nodes, want,
                            "wire answer for {q} differs from ShardedViewCache::answer"
                        );
                        verified.fetch_add(1, Ordering::Relaxed);
                    }
                }
                client.goodbye().expect("clean close");
            });
        }
    });
    assert_eq!(verified.load(Ordering::Relaxed), stream.len());
    assert_eq!(server.workers(), 4, "the pool never grew");

    drop(idle);
    server.shutdown();
}

/// Edit batches over the wire must stay consistent with in-process
/// `apply_edits`: a reference cache receiving the identical batches
/// answers identically, and the acked `doc_version`s are exactly
/// `1, 2, 3, …` (version-checked replication).
#[test]
fn edit_batches_over_the_wire_stay_consistent() {
    let doc = site_doc(6, 6, 4);
    let catalog = site_intersect_catalog();
    let build = || {
        let cache = ShardedViewCache::new(doc.clone());
        for (name, def) in catalog.views.iter() {
            cache.add_view(name, def.clone());
        }
        Arc::new(cache)
    };
    let served = build();
    let reference = build();

    let server = AsyncCacheServer::start(Arc::clone(&served), 2);
    let path = std::env::temp_dir().join(format!("xpv-edit-wire-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    server.listen_unix(&path).expect("listen");
    let mut client = WireClient::connect_unix(&path).expect("connect");

    let probes: Vec<Pattern> = catalog.queries.iter().map(|(_, q)| q.clone()).take(6).collect();
    let edits = edit_stream(&doc, 60, EditMix::default(), 0xED17);
    for (i, batch) in edit_batches(&edits, 6).iter().enumerate() {
        let report =
            client.apply_edits("writer", batch).expect("transport ok").expect("batch applies");
        assert_eq!(report.doc_version, (i + 1) as u64, "acked versions must be sequential");
        assert_eq!(report.edits_applied as usize, batch.len());
        let ref_report = reference.apply_edits(batch).expect("reference applies");
        assert_eq!(ref_report.doc_version, report.doc_version);
        assert_eq!(ref_report.views_changed as u64, report.views_changed);

        for q in &probes {
            let wire = client.answer_batch("writer", std::slice::from_ref(q)).expect("answers");
            assert_eq!(
                wire[0].nodes,
                reference.answer(q).nodes,
                "post-edit wire answer diverged for {q} at version {}",
                report.doc_version
            );
        }
    }
    assert_eq!(served.doc_version(), 6);
    let stats = client.tenant_stats("writer").expect("io").expect("seen");
    assert_eq!(stats.updates_applied, 60);

    // An invalid edit (deleting the root) is rejected without breaking
    // the connection or bumping the version.
    let bad = [xpath_views::maintain::Edit::DeleteSubtree { node: served.document().root() }];
    let rejected = client.apply_edits("writer", &bad).expect("transport ok");
    assert!(rejected.is_err(), "deleting the root must be rejected");
    assert_eq!(served.doc_version(), 6, "failed batch must not bump the version");
    let probe = &probes[0];
    let wire = client.answer_batch("writer", std::slice::from_ref(probe)).expect("still serving");
    assert_eq!(wire[0].nodes, reference.answer(probe).nodes);

    client.goodbye().expect("clean close");
    server.shutdown();
}

/// The credit window is enforced mechanically: a server granting 2
/// credits serves a client pipelining 8-deep correctly (the load
/// generator clamps to the granted window; the server never reads more
/// than `window` unacknowledged frames).
#[test]
fn small_credit_window_still_serves_deep_pipelines() {
    let cache = serving_cache();
    let server = AsyncCacheServer::start(Arc::clone(&cache), 2);
    server.set_conn_window(2);
    let addr = server.listen_tcp("127.0.0.1:0").expect("listen").to_string();

    let probe = WireClient::connect_tcp(&addr).expect("connect");
    assert_eq!(probe.window(), 2, "handshake advertises the configured window");
    drop(probe);

    let catalog = site_intersect_catalog();
    let stream = catalog_zipf_stream(&catalog, 300, 0x77);
    let report = run_socket_load(
        || WireClient::connect_tcp(&addr),
        3,
        &stream,
        4,
        8, // deeper than the window: clamped to 2 by the client
        "windowed-",
    )
    .expect("load completes");
    assert_eq!(report.answered, stream.len());
    server.shutdown();
}

/// Graceful drain under racing wire clients: each client sends one batch
/// at a time until its connection ends. Every batch gets exact answers or
/// the connection ends (`ServerBye`, EOF or an error), no client hangs,
/// and a connect after the drain fails.
#[test]
fn graceful_drain_async_server_with_concurrent_submitters() {
    const CLIENTS: usize = 4;
    let cache = serving_cache();
    let server = AsyncCacheServer::start(Arc::clone(&cache), 2);
    let addr = server.listen_tcp("127.0.0.1:0").expect("listen").to_string();
    let catalog = site_intersect_catalog();
    let q = catalog.queries[1].1.clone();
    let want = cache.answer(&q).nodes;

    let served = Arc::new(AtomicUsize::new(0));
    // Every client is connected before the drain: the race is between
    // batches and the drain, not connects.
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let mut client = WireClient::connect_tcp(&addr).expect("connect");
            let (q, want, served) = (q.clone(), want.clone(), Arc::clone(&served));
            std::thread::spawn(move || {
                // A send error means the server closed the socket: an
                // explicit end.
                while let Ok(id) = client.send_queries("racer", std::slice::from_ref(&q)) {
                    match client.recv_for(id) {
                        Ok(Response::Answers { answers, .. }) => {
                            assert_eq!(answers[0].nodes, want, "drained batch must be exact");
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        // `ServerBye`, EOF or an error: the connection ended.
                        Err(_) => break,
                        Ok(other) => panic!("unexpected response {other:?}"),
                    }
                }
            })
        })
        .collect();
    // Drain only after the clients have demonstrably served traffic.
    while served.load(Ordering::Relaxed) < 20 {
        std::thread::yield_now();
    }
    server.shutdown();
    let deadline = Instant::now() + Duration::from_secs(30);
    for client in clients {
        while !client.is_finished() {
            assert!(Instant::now() < deadline, "a client hung through the drain");
            std::thread::sleep(Duration::from_millis(10));
        }
        client.join().expect("client thread");
    }
    assert!(WireClient::connect_tcp(&addr).is_err(), "a drained server accepts no connection");
}
