//! Acceptance test for the health watchdog + flight recorder: a
//! maintenance stall injected mid-`apply_edits` must raise
//! `xpv_alert_stall_total` within two watchdog ticks and flip trace
//! sampling to always-on; `DebugDumpReq` must then capture the firing
//! alert and phase-ordered trace spans.
//!
//! This file owns the process-global trace-sampling knob for its whole
//! run (tests here are serialized through `KNOB`), which is why it is a
//! separate integration-test binary from `obs_properties.rs`.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use xpath_views::engine::{AsyncCacheServer, ObsConfig, ShardedViewCache};
use xpath_views::maintain::Edit;
use xpath_views::net::WireClient;
use xpath_views::obs::{set_trace_sampling, trace_sampling, Phase, DEFAULT_TRACE_SAMPLING};
use xpath_views::prelude::*;

/// Serializes the tests in this binary around the global sampling knob.
fn knob() -> std::sync::MutexGuard<'static, ()> {
    static KNOB: OnceLock<Mutex<()>> = OnceLock::new();
    match KNOB.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn pat(s: &str) -> Pattern {
    parse_xpath(s).expect("pattern parses")
}

fn site_cache() -> Arc<ShardedViewCache> {
    let doc = TreeBuilder::root("site", |b| {
        for _ in 0..4 {
            b.child("region", |b| {
                b.child("item", |b| {
                    b.leaf("name");
                });
            });
        }
    });
    let cache = Arc::new(ShardedViewCache::new(doc));
    cache.add_view("items", pat("site/region/item"));
    cache
}

/// A fast-ticking watchdog server: 40 ms ticks, a 2-tick stall rule, and
/// a cooldown long enough that forced sampling survives the assertions.
fn watchdog_server(cache: Arc<ShardedViewCache>) -> AsyncCacheServer {
    AsyncCacheServer::start_with_obs(
        cache,
        2,
        ObsConfig {
            interval: Duration::from_millis(40),
            heartbeat_stall_ticks: 2,
            cooldown_ticks: 10_000,
        },
    )
}

fn counter(server: &AsyncCacheServer, name: &str) -> u64 {
    use xpath_views::obs::SampleValue;
    let snap = server.metrics_snapshot();
    snap.samples
        .iter()
        .find(|s| s.name == name)
        .and_then(|s| match s.value {
            SampleValue::Counter(v) => Some(v),
            SampleValue::Gauge(v) => Some(v),
            SampleValue::Histogram(_) => None,
        })
        .unwrap_or(0)
}

#[test]
fn injected_stall_fires_alert_forces_tracing_and_lands_in_the_dump() {
    let _knob = knob();
    set_trace_sampling(DEFAULT_TRACE_SAMPLING);

    let cache = site_cache();
    let server = watchdog_server(Arc::clone(&cache));
    let addr = server.listen_tcp("127.0.0.1:0").expect("listen");
    // One tick first, so the stall rule has its beat baseline.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.watchdog().ticks() == 0 {
        assert!(Instant::now() < deadline, "the watchdog never ticked");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Wedge maintenance: apply_edits now sleeps ~1.2 s inside the
    // heartbeat guard, far past two 40 ms watchdog ticks.
    cache.inject_maintain_pause_for_tests(Duration::from_millis(1200));
    let editor_cache = Arc::clone(&cache);
    let editor = std::thread::spawn(move || {
        let root = editor_cache.document().root();
        let graft = TreeBuilder::root("region", |b| {
            b.leaf("item");
        });
        let _ = editor_cache.apply_edits(&[Edit::InsertSubtree { parent: root, subtree: graft }]);
    });

    // The stall must be observed within two watchdog ticks of the wedge
    // becoming visible; poll with a generous deadline (the bound under
    // test is watchdog ticks, not wall clock).
    let deadline = Instant::now() + Duration::from_secs(5);
    while counter(&server, "xpv_hb_maintain_inflight") == 0 {
        assert!(Instant::now() < deadline, "the edit never entered maintenance");
        std::thread::sleep(Duration::from_millis(1));
    }
    let visible_at = server.watchdog().ticks();
    while counter(&server, "xpv_alert_stall_total") == 0 {
        assert!(
            Instant::now() < deadline,
            "stall alert did not fire within 5s of a 1.2s wedge at 40ms ticks"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(counter(&server, "xpv_alerts_total") >= 1);
    assert_eq!(counter(&server, "xpv_alert_firing"), 1, "firing gauge is up");
    assert_eq!(
        trace_sampling(),
        1,
        "a firing watchdog forces trace sampling always-on (tail-based sampling)"
    );
    assert_eq!(counter(&server, "xpv_alert_trace_forced"), 1);

    // Traffic during the forced window: every request is now traced.
    let mut client = WireClient::connect_tcp(&addr.to_string()).expect("connect");
    for _ in 0..3 {
        client.answer_batch("t", &[pat("site/region/item")]).expect("answers");
    }

    // The flight recorder captures the incident while it is live.
    let dump = client.debug_dump().expect("dump");
    let stall = dump
        .alerts
        .iter()
        .find(|a| a.name == "maintain_stall")
        .expect("stall alert present in dump");
    assert!(stall.firing, "dump captured the alert mid-incident: {stall:?}");
    assert_eq!(stall.kind, "heartbeat_stall");
    assert!(stall.fired_total >= 1);
    assert!(
        stall.since_tick <= visible_at + 2,
        "fired at tick {}, the wedge was visible by tick {visible_at}",
        stall.since_tick
    );
    assert!(!stall.detail.is_empty(), "alert carries evidence");
    assert_eq!(
        dump.config.iter().find(|(k, _)| k == "trace_forced").map(|(_, v)| v.as_str()),
        Some("true"),
        "config state records the forced window"
    );

    // Spans drained into the dump are phase-ordered: the wire query path
    // marks admission before plan/eval and flush last.
    let query_span = dump
        .traces
        .iter()
        .find(|t| t.kind == "net.query" && t.phases.len() >= 2)
        .expect("forced sampling captured a wire query span");
    let phase_pos = |phase: Phase| query_span.phases.iter().position(|&(p, _)| p == phase);
    let admission = phase_pos(Phase::Admission).expect("admission phase present");
    let flush = phase_pos(Phase::Flush).expect("flush phase present");
    assert_eq!(admission, 0, "admission opens the span: {query_span:?}");
    assert_eq!(flush, query_span.phases.len() - 1, "flush closes the span: {query_span:?}");
    if let Some(eval) = phase_pos(Phase::Eval) {
        assert!(admission < eval && eval < flush, "phases in order: {query_span:?}");
    }

    editor.join().expect("editor thread");
    cache.inject_maintain_pause_for_tests(Duration::ZERO);
    server.shutdown();
    set_trace_sampling(DEFAULT_TRACE_SAMPLING);
}

#[test]
fn healthy_server_fires_no_alert_under_load_and_idle() {
    let _knob = knob();
    set_trace_sampling(DEFAULT_TRACE_SAMPLING);

    let cache = site_cache();
    let server = watchdog_server(Arc::clone(&cache));
    let addr = server.listen_tcp("127.0.0.1:0").expect("listen");
    let mut client = WireClient::connect_tcp(&addr.to_string()).expect("connect");

    // Healthy traffic across a few ticks, including real maintenance.
    let root = cache.document().root();
    for round in 0..3 {
        client.answer_batch("t", &[pat("site/region/item")]).expect("answers");
        let graft = TreeBuilder::root(format!("r{round}").as_str(), |b| {
            b.leaf("leaf");
        });
        cache
            .apply_edits(&[Edit::InsertSubtree { parent: root, subtree: graft }])
            .expect("edits apply");
        std::thread::sleep(Duration::from_millis(60));
    }
    assert!(counter(&server, "xpv_hb_maintain_beats") >= 3, "every maintenance pass beats");

    // Then idle for several ticks: idle is not a stall.
    let ticks = server.watchdog().ticks();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.watchdog().ticks() < ticks + 4 {
        assert!(Instant::now() < deadline, "the watchdog stopped ticking");
        std::thread::sleep(Duration::from_millis(20));
    }

    assert_eq!(counter(&server, "xpv_alerts_total"), 0, "healthy run fires nothing");
    assert_eq!(trace_sampling(), DEFAULT_TRACE_SAMPLING, "knob untouched without alerts");
    server.shutdown();
}
