//! End-to-end properties of the observability layer: trace spans flowing
//! through the async serving stack, the `StatsV2` wire round trip, the
//! full-family text exposition against a live socket server, and the
//! no-double-count / no-orphan regression over the snapshot's names.

use std::sync::Arc;

use xpath_views::engine::{AsyncCacheServer, ShardedViewCache};
use xpath_views::net::{Msg, WireClient};
use xpath_views::obs::{
    drain_trace_events, set_trace_sampling, Phase, SampleValue, DEFAULT_TRACE_SAMPLING,
};
use xpath_views::prelude::*;
use xpath_views::workload::{catalog_zipf_stream, site_doc, site_intersect_catalog};

fn serving_cache() -> Arc<ShardedViewCache> {
    let catalog = site_intersect_catalog();
    let cache = ShardedViewCache::new(site_doc(8, 8, 5));
    for (name, def) in catalog.views.iter() {
        cache.add_view(name, def.clone());
    }
    Arc::new(cache)
}

/// Tracing state is process-global; serialize the tests that touch it.
fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every query served over the wire with always-on sampling
/// produces one `net.query` trace event whose phases appear in pipeline
/// order: admission before plan before eval before encode before flush.
#[test]
fn spans_record_pipeline_phases_in_order_under_the_executor() {
    let _guard = trace_lock();
    set_trace_sampling(1);
    let _ = drain_trace_events();

    let cache = serving_cache();
    let server = AsyncCacheServer::start(Arc::clone(&cache), 2);
    let addr = server.listen_tcp("127.0.0.1:0").expect("listen");
    let mut client = WireClient::connect_tcp(&addr.to_string()).expect("connect");
    let queries = vec![
        parse_xpath("site/region/item").expect("parses"),
        parse_xpath("site//name").expect("parses"),
    ];
    for _ in 0..4 {
        let answers = client.answer_batch("traced", &queries).expect("answers");
        assert_eq!(answers.len(), queries.len());
    }
    client.goodbye().expect("clean close");
    server.shutdown();
    set_trace_sampling(DEFAULT_TRACE_SAMPLING);

    let events = drain_trace_events();
    let net_queries: Vec<_> = events.iter().filter(|e| e.kind == "net.query").collect();
    assert!(net_queries.len() >= 4, "expected ≥4 net.query events, got {}", net_queries.len());
    let order = [Phase::Admission, Phase::Plan, Phase::Eval, Phase::Encode, Phase::Flush];
    for event in &net_queries {
        let phases: Vec<Phase> = event.phases.iter().map(|&(p, _)| p).collect();
        let expected: Vec<Phase> = order.iter().copied().filter(|p| phases.contains(p)).collect();
        assert_eq!(phases, expected, "phases out of pipeline order: {phases:?}");
        assert!(
            phases.contains(&Phase::Eval) && phases.contains(&Phase::Flush),
            "span missing eval/flush: {phases:?}"
        );
    }
}

/// A server snapshot survives the wire: a StatsV2 frame encodes and
/// decodes to the identical snapshot, which renders the identical text
/// exposition.
#[test]
fn stats_v2_round_trips_to_identical_text() {
    let cache = serving_cache();
    let stream = catalog_zipf_stream(&site_intersect_catalog(), 60, 0x0B5);
    let _ = cache.answer_batch(&stream);
    let server = AsyncCacheServer::start(Arc::clone(&cache), 2);
    let addr = server.listen_tcp("127.0.0.1:0").expect("listen").to_string();
    let mut client = WireClient::connect_tcp(&addr).expect("connect");
    client.answer_batch("acme", &stream[..8]).expect("answers");
    let snap = server.metrics_snapshot();
    let body = Msg::StatsV2Resp { id: 1, metrics: snap.clone() }.encode();
    let rebuilt = match Msg::decode(&body).expect("decodes") {
        Msg::StatsV2Resp { metrics, .. } => metrics,
        other => panic!("expected StatsV2Resp, got {other:?}"),
    };
    assert_eq!(rebuilt, snap);
    assert_eq!(rebuilt.to_text(), snap.to_text());
    assert!(!snap.to_text().is_empty());
}

/// `xpv stats` end to end: a live unix-socket server answers a StatsV2
/// request whose text exposition contains counters from all five metric
/// families — oracle, cache, tenant, maintain, and net.
#[test]
fn wire_exposition_contains_every_family() {
    let cache = serving_cache();
    let server = AsyncCacheServer::start(Arc::clone(&cache), 2);
    let path = std::env::temp_dir().join(format!("xpv-obs-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    server.listen_unix(&path).expect("listen");

    let mut client = WireClient::connect_unix(&path).expect("connect");
    let queries = vec![parse_xpath("site/region/item").expect("parses")];
    let _ = client.answer_batch("family-test", &queries).expect("answers");
    let doc = cache.document();
    let region = doc.children(doc.root())[0];
    let graft = TreeBuilder::root("item", |b| {
        b.leaf("name");
    });
    client
        .apply_edits("family-test", &[Edit::InsertSubtree { parent: region, subtree: graft }])
        .expect("io")
        .expect("edit accepted");

    let text = client.metrics().expect("metrics").to_text();
    for family in
        ["xpv_oracle_", "xpv_cache_", "xpv_tenant_", "xpv_maintain_", "xpv_net_", "xpv_server_"]
    {
        assert!(text.contains(family), "family {family} missing from exposition:\n{text}");
    }
    assert!(
        text.contains("xpv_tenant_queries{tenant=\"family-test\"} 1"),
        "tenant label missing:\n{text}"
    );
    assert!(text.contains("xpv_net_frames_in"), "net counters missing:\n{text}");
    assert!(text.contains("xpv_maintain_edits_applied 1"), "maintain family stale:\n{text}");
    client.goodbye().expect("clean close");
    server.shutdown();
}

use xpath_views::maintain::Edit;

/// The Display-drift regression: no metric name appears twice in the
/// snapshot (nothing double-counted), every `visit` name of the four
/// stats structs reaches the exposition under its family prefix (nothing
/// orphaned), the oracle mirrors in `CacheStats` are the one deliberate
/// exception (skipped, not renamed), and each of the six wire-traffic
/// counters appears exactly once.
#[test]
fn snapshot_names_are_unique_and_cover_every_visit_name() {
    let cache = serving_cache();
    let stream = catalog_zipf_stream(&site_intersect_catalog(), 40, 0x21F);
    let server = AsyncCacheServer::start(Arc::clone(&cache), 2);
    let addr = server.listen_tcp("127.0.0.1:0").expect("listen").to_string();
    let mut client = WireClient::connect_tcp(&addr).expect("connect");
    client.answer_batch("uniq", &stream).expect("answers");
    let snap = server.metrics_snapshot();

    // (name, labels) pairs are unique — one name, one source of truth.
    let mut seen = std::collections::HashSet::new();
    for s in &snap.samples {
        let key = format!("{}{:?}", s.name, s.labels);
        assert!(seen.insert(key.clone()), "metric emitted twice: {key}");
    }
    let names: std::collections::HashSet<&str> =
        snap.samples.iter().map(|s| s.name.as_str()).collect();

    // Every canonical visit name surfaces under its family prefix…
    cache.session().oracle().stats().visit(&mut |name, _| {
        assert!(names.contains(format!("xpv_oracle_{name}").as_str()), "orphaned oracle_{name}");
    });
    let stats = cache.stats();
    stats.visit(&mut |name, _| {
        if name.starts_with("oracle_") {
            // …except the CacheStats oracle mirrors, which are skipped so
            // the oracle numbers appear exactly once (under xpv_oracle_*).
            assert!(
                !names.contains(format!("xpv_cache_{name}").as_str()),
                "oracle mirror double-counted as xpv_cache_{name}"
            );
        } else {
            assert!(names.contains(format!("xpv_cache_{name}").as_str()), "orphaned cache {name}");
        }
    });
    stats.maintain.visit(&mut |name, _| {
        assert!(
            names.contains(format!("xpv_maintain_{name}").as_str()),
            "orphaned maintain {name}"
        );
    });
    let (_, tenant_stats) = server.tenants().pop().expect("one tenant");
    tenant_stats.visit(&mut |name, _| {
        assert!(names.contains(format!("xpv_tenant_{name}").as_str()), "orphaned tenant {name}");
    });
    // The snapshot is sorted, so these come in name order.
    let net: Vec<&str> = snap
        .samples
        .iter()
        .map(|s| s.name.as_str())
        .filter(|n| n.starts_with("xpv_net_"))
        .collect();
    assert_eq!(
        net,
        [
            "xpv_net_bytes_in",
            "xpv_net_bytes_out",
            "xpv_net_credit_stalls",
            "xpv_net_frames_in",
            "xpv_net_frames_out",
            "xpv_net_oversized_rejections",
        ],
        "each wire-traffic counter exactly once"
    );

    // Histogram families and counter families never collide.
    for s in &snap.samples {
        match s.value {
            SampleValue::Histogram(_) => {
                assert!(s.name.starts_with("xpv_phase_"), "histogram outside family: {}", s.name)
            }
            _ => assert!(!s.name.starts_with("xpv_phase_"), "scalar in phase family: {}", s.name),
        }
    }
}
