//! Backpressure against peers that do not read while they send: a peer
//! that stops reading its answers holds at most a window of them in the
//! server, and a client pipelining a window of frames larger than the
//! socket buffers in both directions is answered in full.
//!
//! Both run over Unix-domain sockets, whose buffers hold a few hundred
//! KiB, against answers of a few MiB a frame.

use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use xpath_views::engine::{AsyncCacheServer, ObsConfig, ShardedViewCache, DEFAULT_MAX_PENDING};
use xpath_views::net::{read_frame, write_frame, Msg, Response, WireClient, VERSION};
use xpath_views::obs::SampleValue;
use xpath_views::prelude::*;

/// Leaves under each `x`, named `a0`, `a1`, ….
const LEAVES: usize = 10;

/// `r` over `xs` children `x`, each with the leaves `a0..a9`.
fn wide_doc(xs: usize) -> Tree {
    TreeBuilder::root("r", |b| {
        for _ in 0..xs {
            b.child("x", |b| {
                for i in 0..LEAVES {
                    b.leaf(&format!("a{i}"));
                }
            });
        }
    })
}

/// `r/x[..]` over every set of one to three leaves: 175 distinct queries,
/// each answering every `x` (a span of ~16 KiB on 12 000 of them).
fn wide_queries() -> Vec<Pattern> {
    let mut texts = Vec::new();
    for i in 0..LEAVES {
        texts.push(format!("r/x[a{i}]"));
        for j in i + 1..LEAVES {
            texts.push(format!("r/x[a{i}][a{j}]"));
            for k in j + 1..LEAVES {
                texts.push(format!("r/x[a{i}][a{j}][a{k}]"));
            }
        }
    }
    texts.iter().map(|t| parse_xpath(t).expect("pattern parses")).collect()
}

fn socket_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("xpv-{name}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn gauge_or_counter(server: &AsyncCacheServer, name: &str) -> u64 {
    let snap = server.metrics_snapshot();
    match snap.get(name).map(|s| s.value) {
        Some(SampleValue::Counter(v)) | Some(SampleValue::Gauge(v)) => v,
        _ => panic!("metric {name} missing"),
    }
}

/// A peer that sends query frames and never reads its answers wedges its
/// connection's writer, which the `flush_stall` rule sees; the server
/// reads only the frames it can answer into the writer's queue (one
/// being written, `window` queued, one waiting for a place), and serves
/// other connections meanwhile.
#[test]
fn a_peer_that_stops_reading_holds_at_most_a_window_of_answers() {
    const WINDOW: u32 = 2;
    const SENT: u64 = WINDOW as u64 + 8;
    let cache = Arc::new(ShardedViewCache::new(wide_doc(12_000)));
    let server = AsyncCacheServer::start_with_obs(
        Arc::clone(&cache),
        2,
        DEFAULT_MAX_PENDING,
        ObsConfig {
            interval: Duration::from_millis(20),
            heartbeat_stall_ticks: 2,
            cooldown_ticks: 10_000,
        },
    );
    server.set_conn_window(WINDOW);
    let path = socket_path("stalled-peer");
    server.listen_unix(&path).expect("listen");

    let stalled = UnixStream::connect(&path).expect("connect");
    write_frame(&stalled, &Msg::Hello { version: VERSION }.encode()).expect("hello");
    let ack = read_frame(&stalled).expect("read").expect("a frame");
    assert!(matches!(Msg::decode(&ack), Ok(Msg::HelloAck { window: WINDOW, .. })));
    let queries = wide_queries();
    for id in 0..SENT {
        let frame = Msg::QueryBatch { id, tenant: "stalled".into(), queries: queries.clone() };
        write_frame(&stalled, &frame.encode()).expect("a small frame fits the socket buffer");
    }

    // (a) The writer is wedged in its first answer, and the watchdog says so.
    let deadline = Instant::now() + Duration::from_secs(120);
    while !server.watchdog().alerts().iter().any(|a| a.name == "flush_stall" && a.firing) {
        assert!(Instant::now() < deadline, "flush_stall never fired");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(gauge_or_counter(&server, "xpv_hb_flush_inflight"), 1);

    // (b) The reader reads as far as a full queue lets it, and then no
    // further: it is given the time to read past the bound if it would.
    let frames_read = || gauge_or_counter(&server, "xpv_net_frames_in") - 1; // less the Hello
    while frames_read() < WINDOW as u64 + 2 {
        assert!(Instant::now() < deadline, "the reader stopped short of a full queue");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(300));
    let read = frames_read();
    assert!(read <= WINDOW as u64 + 2, "read {read} of {SENT} frames with a window of {WINDOW}");

    // (c) Another connection is answered exactly in the meantime.
    let mut other = WireClient::connect_unix(&path).expect("connect");
    let probe = &queries[..3];
    let answers = other.answer_batch("other", probe).expect("answers");
    for (q, a) in probe.iter().zip(&answers) {
        assert_eq!(a.nodes, cache.answer_direct(q), "{q}");
    }
    other.goodbye().expect("clean close");

    drop(stalled);
    server.shutdown();
}

/// A client that pipelines a whole window of frames before reading any
/// answer, with request and answer frames each several MiB: the server
/// must keep reading while its writes to the client are blocked, or both
/// sides wait on each other's reads forever.
#[test]
fn a_window_of_frames_larger_than_the_socket_buffers_is_answered_in_full() {
    const WINDOW: u32 = 4;
    let cache = Arc::new(ShardedViewCache::new(wide_doc(12_000)));
    let server = AsyncCacheServer::start(Arc::clone(&cache), 2);
    server.set_conn_window(WINDOW);
    let path = socket_path("large-pipeline");
    server.listen_unix(&path).expect("listen");

    let queries = wide_queries();
    let expected: Vec<Vec<NodeId>> = queries.iter().map(|q| cache.answer_direct(q)).collect();
    // The tenant id pads each request frame to a few MiB.
    let tenant = "t".repeat(3 << 20);
    let (done, finished) = mpsc::channel();
    let client = {
        let (path, queries) = (path.clone(), queries.clone());
        std::thread::spawn(move || {
            let mut client = WireClient::connect_unix(&path).expect("connect");
            assert_eq!(client.window(), WINDOW);
            let ids: Vec<u64> = (0..WINDOW)
                .map(|_| client.send_queries(&tenant, &queries).expect("send"))
                .collect();
            let answers: Vec<_> = ids
                .into_iter()
                .map(|id| match client.recv_for(id).expect("recv") {
                    Response::Answers { answers, .. } => answers,
                    other => panic!("expected Answers, got {other:?}"),
                })
                .collect();
            client.goodbye().expect("clean close");
            let _ = done.send(());
            answers
        })
    };
    let waited = finished.recv_timeout(Duration::from_secs(300));
    assert_ne!(waited, Err(mpsc::RecvTimeoutError::Timeout), "the pipelined window deadlocked");
    let answers = client.join().expect("client thread");
    for frame in &answers {
        assert_eq!(frame.len(), queries.len());
        for ((q, a), want) in queries.iter().zip(frame).zip(&expected) {
            assert_eq!(&a.nodes, want, "{q}");
        }
    }
    // Several MiB a frame each way, far past the socket buffers.
    let frames = u64::from(WINDOW);
    assert!(gauge_or_counter(&server, "xpv_net_bytes_in") > frames * (3 << 20));
    assert!(gauge_or_counter(&server, "xpv_net_bytes_out") > frames * (2 << 20));
    server.shutdown();
}
