//! Backpressure against peers that do not read while they send: a peer
//! that stops reading its answers holds at most a window of them in the
//! server and cannot hold up a drain past its grace, and a client
//! pipelining a window of frames larger than the socket buffers in both
//! directions is answered in full.
//!
//! Both run over Unix-domain sockets, whose buffers hold a few hundred
//! KiB, against answers of a few MiB a frame.

use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use xpath_views::engine::{AsyncCacheServer, ObsConfig, ShardedViewCache, DRAIN_GRACE};
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

/// The credit window of the stalled-peer tests.
const WINDOW: u32 = 2;

/// A server over `cache` granting `WINDOW`, with a watchdog ticking every
/// 20 ms, listening on a fresh socket file named after `name`.
fn stalled_peer_server(cache: &Arc<ShardedViewCache>, name: &str) -> (AsyncCacheServer, PathBuf) {
    let server = AsyncCacheServer::start_with_obs(
        Arc::clone(cache),
        2,
        ObsConfig {
            interval: Duration::from_millis(20),
            heartbeat_stall_ticks: 2,
            cooldown_ticks: 10_000,
        },
    );
    server.set_conn_window(WINDOW);
    let path = socket_path(name);
    server.listen_unix(&path).expect("listen");
    (server, path)
}

/// Frames the server has read, less the stalled peer's `Hello`.
fn frames_read(server: &AsyncCacheServer) -> u64 {
    gauge_or_counter(server, "xpv_net_frames_in") - 1
}

/// Connects a peer, the server's first, that sends `sent` frames of
/// `queries` and never reads its answers; returns once the server has read
/// as many as the writer's queue lets it (one being written, `WINDOW`
/// queued, one waiting for a place).
fn stall_a_peer(
    server: &AsyncCacheServer,
    path: &Path,
    queries: &[Pattern],
    sent: u64,
    deadline: Instant,
) -> UnixStream {
    let stalled = UnixStream::connect(path).expect("connect");
    write_frame(&stalled, &Msg::Hello { version: VERSION }.encode()).expect("hello");
    let ack = read_frame(&stalled).expect("read").expect("a frame");
    assert!(matches!(Msg::decode(&ack), Ok(Msg::HelloAck { window: WINDOW, .. })));
    for id in 0..sent {
        let frame = Msg::QueryBatch { id, tenant: "stalled".into(), queries: queries.to_vec() };
        write_frame(&stalled, &frame.encode()).expect("a small frame fits the socket buffer");
    }
    while frames_read(server) < WINDOW as u64 + 2 {
        assert!(Instant::now() < deadline, "the reader stopped short of a full queue");
        std::thread::sleep(Duration::from_millis(10));
    }
    stalled
}

/// A peer that sends query frames and never reads its answers wedges its
/// connection's writer, which the `flush_stall` rule sees; the server
/// reads only the frames it can answer into the writer's queue, and
/// serves other connections meanwhile.
#[test]
fn a_peer_that_stops_reading_holds_at_most_a_window_of_answers() {
    const SENT: u64 = WINDOW as u64 + 8;
    let cache = Arc::new(ShardedViewCache::new(wide_doc(12_000)));
    let (server, path) = stalled_peer_server(&cache, "stalled-peer");
    let queries = wide_queries();
    let deadline = Instant::now() + Duration::from_secs(120);
    let stalled = stall_a_peer(&server, &path, &queries, SENT, deadline);

    // (a) The writer is wedged in its first answer, and the watchdog says so.
    while !server.watchdog().alerts().iter().any(|a| a.name == "flush_stall" && a.firing) {
        assert!(Instant::now() < deadline, "flush_stall never fired");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(gauge_or_counter(&server, "xpv_hb_flush_inflight"), 1);

    // (b) The reader read as far as a full queue lets it, and no further:
    // it is given the time to read past the bound if it would.
    std::thread::sleep(Duration::from_millis(300));
    let read = frames_read(&server);
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

/// A drain with a peer that never reads still open ends within
/// `DRAIN_GRACE` (its writer is blocked in a write and its reader on the
/// full queue, which no read-half shutdown wakes), and a client whose
/// frames were read before the drain began still gets every answer and
/// then `ServerBye`.
#[test]
fn a_drain_ends_within_its_grace_past_a_peer_that_never_reads() {
    let cache = Arc::new(ShardedViewCache::new(wide_doc(12_000)));
    let (server, path) = stalled_peer_server(&cache, "drain-grace");
    let server = Arc::new(server);
    let queries = wide_queries();
    let deadline = Instant::now() + Duration::from_secs(120);
    let stalled = stall_a_peer(&server, &path, &queries, WINDOW as u64 + 8, deadline);

    let mut polite = WireClient::connect_unix(&path).expect("connect");
    let probe = &queries[..3];
    let read_before = frames_read(&server);
    let ids: Vec<u64> =
        (0..WINDOW).map(|_| polite.send_queries("polite", probe).expect("send")).collect();
    while frames_read(&server) < read_before + u64::from(WINDOW) {
        assert!(Instant::now() < deadline, "the polite frames were never read");
        std::thread::sleep(Duration::from_millis(1));
    }
    let (drained, drain_done) = mpsc::channel();
    let draining = Arc::clone(&server);
    std::thread::spawn(move || {
        let started = Instant::now();
        draining.shutdown();
        let _ = drained.send(started.elapsed());
    });
    for id in ids {
        match polite.recv_for(id).expect("answered through the drain") {
            Response::Answers { answers, .. } => {
                for (q, a) in probe.iter().zip(&answers) {
                    assert_eq!(a.nodes, cache.answer_direct(q), "{q}");
                }
            }
            other => panic!("expected Answers, got {other:?}"),
        }
    }
    let bye = polite.recv().expect_err("the connection ends");
    assert_eq!(bye.kind(), io::ErrorKind::ConnectionAborted, "ServerBye, not a cut: {bye}");
    let took = drain_done.recv_timeout(Duration::from_secs(30)).expect("the drain ends");
    assert!(took >= DRAIN_GRACE, "the stalled peer was cut early: {took:?}");
    assert!(took < DRAIN_GRACE + Duration::from_secs(10), "the drain took {took:?}");
    assert_eq!(server.connections(), 0);
    drop(stalled);
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
