//! The serving front-end: connection threads over a fixed set of worker
//! slots.
//!
//! [`AsyncCacheServer`] serves the wire protocol over TCP or Unix-domain
//! sockets (see [`AsyncCacheServer::listen_tcp`] /
//! [`AsyncCacheServer::listen_unix`]) with plain blocking `std` threads:
//! one acceptor per listener, and per connection one **reader** and,
//! from its first response on, one **writer**. The reader reads a frame,
//! checks out one of `workers` worker slots, decodes and answers the
//! frame, returns the slot and hands the encoded response to the writer
//! through a queue of `window` places. So **idle connections hold a
//! blocked thread and no worker**: the slots bound simultaneous cache
//! work, whatever the number of connections. The wire protocol, framing,
//! and credit semantics are specified in the `xpv-net` crate docs.
//!
//! ## Backpressure
//!
//! The handshake grants each connection a window of `conn_window`
//! in-flight request frames. The reader answers one frame at a time and
//! blocks once the writer's queue holds `window` unsent responses (a
//! `credit_stalls` count), letting the kernel socket buffers (and
//! eventually the client's own send path) absorb the excess. A client can
//! neither make the server hold more than a window of its responses nor
//! starve other connections; it throttles itself. The writer is a thread
//! of its own so that a reader never stops reading because a write is
//! blocked: a client pipelining large frames within its window reads its
//! answers only after it has sent them all.
//!
//! ## Graceful drain
//!
//! Shutdown ([`AsyncCacheServer::shutdown`], also run on drop) follows
//! the drain sequence: stop admitting (new connections are closed
//! unserved), shut down the read half of every connection (a reader checks
//! the drain flag before each frame, so no new frame is admitted), let
//! each reader finish the frame it is answering, let each writer flush its
//! queue and send its peer a `ServerBye`, join every connection thread,
//! then wake and join the acceptors and stop the watchdog. A peer that
//! reads its answers observes all of them and then the `ServerBye`.
//!
//! The drain waits at most [`DRAIN_GRACE`] for the connections to end.
//! It then shuts down both halves of each connection still open, which
//! fails a write blocked on a peer that stopped reading: such a peer loses
//! the answers still queued or being written for it, and its `ServerBye`.
//!
//! Each worker slot keeps one answer arena and one [`TextCache`] across
//! frames: a reader decodes a `QueryBatch` through the cache of the slot
//! it checked out, so each distinct query text is parsed once per slot,
//! not once per frame.

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use xpv_model::AnswerArena;
use xpv_net::proto::{
    AnswersEncoder, Msg, WireDump, WireRouteRef, WireTenantStats, WireUpdateReport,
    MAX_ANSWER_NODES, VERSION,
};
use xpv_net::{read_frame, write_frame, Socket, WireCounters};
use xpv_obs::{
    drain_trace_events, trace_sampling, HealthRule, Heartbeat, MetricsSnapshot, Phase, Span,
    Watchdog, DEFAULT_COOLDOWN_TICKS, DEFAULT_WATCHDOG_INTERVAL,
};
use xpv_pattern::{Pattern, TextCache};

use crate::obs::{wire_alerts, wire_metrics, wire_traces};
use crate::shard::{CacheAnswerRef, Route, ShardedViewCache, UpdateReport};
use crate::tenants::{TenantRegistry, TenantStats};

/// Default per-connection credit window (max unacknowledged frames).
pub const DEFAULT_CONN_WINDOW: u32 = 32;

/// How long a drain waits for its connections to end before it cuts the
/// ones still open (see the module docs).
pub const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// A fixed set of items that threads take and put back, waiting while
/// none is free.
struct Pool<T> {
    free: Mutex<Vec<T>>,
    returned: Condvar,
}

impl<T> Pool<T> {
    fn new(items: Vec<T>) -> Pool<T> {
        Pool { free: Mutex::new(items), returned: Condvar::new() }
    }

    /// Takes the most recently returned item, waiting while none is free.
    fn take(&self) -> T {
        let mut free = self.free.lock().expect("pool poisoned");
        loop {
            if let Some(item) = free.pop() {
                return item;
            }
            free = self.returned.wait(free).expect("pool poisoned");
        }
    }

    /// Puts `item` back. Called from `Drop`, so it does not panic: no
    /// holder of the lock leaves the list half-updated.
    fn put(&self, item: T) {
        self.free.lock().unwrap_or_else(PoisonError::into_inner).push(item);
        self.returned.notify_one();
    }
}

/// One worker slot: the buffers a frame's cache work reuses.
#[derive(Default)]
struct Worker {
    /// Cleared by each frame, so the last frame's answer sets are the
    /// next one's buffers.
    arena: AnswerArena,
    /// Query texts and their patterns: a text is parsed once per slot,
    /// not once per frame.
    texts: TextCache,
}

/// A checked-out worker slot, put back on drop.
struct Slot<'a> {
    pool: &'a Pool<Worker>,
    worker: Worker,
}

impl<'a> Slot<'a> {
    fn checkout(pool: &'a Pool<Worker>) -> Slot<'a> {
        Slot { pool, worker: pool.take() }
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.pool.put(std::mem::take(&mut self.worker));
    }
}

/// The live connections and threads that a drain sweeps and joins.
#[derive(Default)]
struct Live {
    /// A handle on each live connection's socket, by connection number.
    conns: HashMap<u64, Socket>,
    next_conn: u64,
    /// Connection readers, finished ones pruned as new ones start.
    threads: Vec<JoinHandle<()>>,
}

/// State shared by the listeners and every connection.
struct ServerShared {
    cache: Arc<ShardedViewCache>,
    tenants: TenantRegistry,
    /// Per-connection credit window granted at handshake.
    conn_window: AtomicU32,
    /// `workers` slots: a frame holds one for its decode and its cache
    /// work.
    workers: Pool<Worker>,
    /// Set first during shutdown: nothing new is admitted after it.
    draining: AtomicBool,
    /// Registered under the same lock the drain sweeps under, so no
    /// connection or thread escapes the drain.
    live: Mutex<Live>,
    /// Signalled each time a connection leaves `live`: the drain waits on
    /// it for the connections to end.
    conn_ended: Condvar,
    /// Wire-level traffic counters, shared by every connection (exposed
    /// as the `xpv_net_*` metric family).
    net: WireCounters,
    /// Writer heartbeat (`xpv_hb_flush_*`): in flight across each socket
    /// write, so a wedged peer that stops reading shows up as a
    /// frozen-beats/inflight>0 stall to the watchdog.
    hb_flush: Heartbeat,
    /// Reader liveness beats (`xpv_hb_reader_*`), one per frame read.
    hb_reader: Heartbeat,
    /// The watchdog thread: stall rules over `maintain` and `flush`.
    watchdog: Watchdog,
}

/// Removes a connection's socket from the drain's registry when its
/// reader ends, by a panic too, and tells a waiting drain.
struct Registered<'a> {
    shared: &'a ServerShared,
    conn: u64,
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        // No holder of the lock leaves the registry half-updated.
        let mut live = self.shared.live.lock().unwrap_or_else(PoisonError::into_inner);
        live.conns.remove(&self.conn);
        self.shared.conn_ended.notify_all();
    }
}

/// Watchdog configuration for [`AsyncCacheServer::start_with_obs`]. The
/// server runs two heartbeat stall rules: `maintain` (wedged
/// `apply_edits`) and `flush` (wedged connection writer). The default
/// (what [`AsyncCacheServer::start`] uses) ticks every
/// [`DEFAULT_WATCHDOG_INTERVAL`].
#[derive(Debug)]
pub struct ObsConfig {
    /// Watchdog tick interval.
    pub interval: Duration,
    /// Consecutive frozen ticks before a heartbeat stall rule fires.
    pub heartbeat_stall_ticks: u32,
    /// Quiet ticks before forced trace sampling is restored.
    pub cooldown_ticks: u32,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            interval: DEFAULT_WATCHDOG_INTERVAL,
            heartbeat_stall_ticks: 5,
            cooldown_ticks: DEFAULT_COOLDOWN_TICKS,
        }
    }
}

/// The address that wakes a listener's acceptor, and the file a
/// Unix-domain listener unlinks when its acceptor ends.
#[derive(Clone)]
enum Wake {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

impl Wake {
    /// Connects once, so an acceptor blocked in `accept` returns.
    fn poke(&self) {
        let _ = match self {
            Wake::Tcp(addr) => TcpStream::connect(addr).map(drop),
            Wake::Unix(path) => UnixStream::connect(path).map(drop),
        };
    }

    fn unlink(&self) {
        if let Wake::Unix(path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A cache server serving any number of connections with a fixed set of
/// worker slots over one shared [`ShardedViewCache`].
///
/// ```
/// use std::sync::Arc;
/// use xpv_engine::{AsyncCacheServer, ShardedViewCache};
/// use xpv_model::TreeBuilder;
/// use xpv_net::WireClient;
/// use xpv_pattern::parse_xpath;
///
/// let doc = TreeBuilder::root("a", |b| {
///     b.leaf("b");
/// });
/// let cache = ShardedViewCache::new(doc);
/// cache.add_view("bs", parse_xpath("a/b").unwrap());
/// let server = AsyncCacheServer::start(Arc::new(cache), 2);
/// let addr = server.listen_tcp("127.0.0.1:0").unwrap();
/// let mut client = WireClient::connect_tcp(&addr.to_string()).unwrap();
/// let answers = client.answer_batch("tenant-1", &[parse_xpath("a/b").unwrap()]).unwrap();
/// assert_eq!(answers[0].nodes.len(), 1);
/// assert_eq!(server.tenant_stats("tenant-1").unwrap().queries, 1);
/// ```
pub struct AsyncCacheServer {
    shared: Arc<ServerShared>,
    workers: usize,
    /// Each listener's acceptor thread and the address that wakes it.
    acceptors: Mutex<Vec<(Wake, JoinHandle<()>)>>,
    /// Set by the first [`AsyncCacheServer::shutdown`], so a second call
    /// (and the one on drop) returns at once.
    shut_down: AtomicBool,
}

impl AsyncCacheServer {
    /// Starts a server with `workers` worker slots (minimum 1) over
    /// `cache`, with the default connection window.
    pub fn start(cache: Arc<ShardedViewCache>, workers: usize) -> AsyncCacheServer {
        Self::start_with_obs(cache, workers, ObsConfig::default())
    }

    /// [`AsyncCacheServer::start`] with an explicit watchdog
    /// configuration (see [`ObsConfig`]).
    pub fn start_with_obs(
        cache: Arc<ShardedViewCache>,
        workers: usize,
        obs: ObsConfig,
    ) -> AsyncCacheServer {
        let workers = workers.max(1);
        let registry = Arc::clone(cache.obs_registry());
        let rules = vec![
            HealthRule::heartbeat_stall("maintain", obs.heartbeat_stall_ticks),
            HealthRule::heartbeat_stall("flush", obs.heartbeat_stall_ticks),
        ];
        let shared = Arc::new(ServerShared {
            watchdog: Watchdog::start(&registry, rules, obs.interval, obs.cooldown_ticks),
            hb_flush: Heartbeat::new(&registry, "flush"),
            hb_reader: Heartbeat::new(&registry, "reader"),
            cache,
            tenants: TenantRegistry::new(),
            conn_window: AtomicU32::new(DEFAULT_CONN_WINDOW),
            workers: Pool::new((0..workers).map(|_| Worker::default()).collect()),
            draining: AtomicBool::new(false),
            live: Mutex::new(Live::default()),
            conn_ended: Condvar::new(),
            net: WireCounters::new(),
        });
        AsyncCacheServer {
            shared,
            workers,
            acceptors: Mutex::new(Vec::new()),
            shut_down: AtomicBool::new(false),
        }
    }

    /// Sets the credit window granted to connections accepted **after**
    /// this call (minimum 1).
    pub fn set_conn_window(&self, window: u32) {
        self.shared.conn_window.store(window.max(1), Ordering::Relaxed);
    }

    /// The credit window new connections are granted.
    pub fn conn_window(&self) -> u32 {
        self.shared.conn_window.load(Ordering::Relaxed)
    }

    /// The shared cache the server answers from.
    pub fn cache(&self) -> &Arc<ShardedViewCache> {
        &self.shared.cache
    }

    /// Number of worker slots.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Live socket connections right now.
    pub fn connections(&self) -> usize {
        self.shared.connections()
    }

    /// Starts accepting wire-protocol connections on a TCP address
    /// (e.g. `"127.0.0.1:0"`). Returns the bound address.
    pub fn listen_tcp(&self, addr: &str) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let mut wake = local;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                std::net::Ipv4Addr::LOCALHOST.into()
            } else {
                std::net::Ipv6Addr::LOCALHOST.into()
            });
        }
        self.start_acceptor(Wake::Tcp(wake), move || {
            let (stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            Ok(Socket::Tcp(stream))
        })?;
        Ok(local)
    }

    /// Starts accepting wire-protocol connections on a Unix-domain socket
    /// at `path` (created now, removed when the listener drains).
    pub fn listen_unix(&self, path: &Path) -> io::Result<PathBuf> {
        let listener = UnixListener::bind(path)?;
        self.start_acceptor(Wake::Unix(path.to_path_buf()), move || {
            listener.accept().map(|(stream, _)| Socket::Unix(stream))
        })?;
        Ok(path.to_path_buf())
    }

    /// Runs `accept` in a loop on an acceptor thread, serving each
    /// connection it returns, until the drain wakes it through `wake`.
    fn start_acceptor(
        &self,
        wake: Wake,
        accept: impl Fn() -> io::Result<Socket> + Send + 'static,
    ) -> io::Result<()> {
        let mut acceptors = self.acceptors.lock().expect("acceptor list poisoned");
        if self.shared.draining.load(Ordering::Acquire) {
            wake.unlink();
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "server is shutting down"));
        }
        let shared = Arc::clone(&self.shared);
        let unlink = wake.clone();
        let acceptor = thread::Builder::new().name("xpv-accept".to_string()).spawn(move || {
            loop {
                let accepted = accept();
                if shared.draining.load(Ordering::Acquire) {
                    break;
                }
                if let Ok(socket) = accepted {
                    serve(&shared, socket);
                }
            }
            unlink.unlink();
        });
        match acceptor {
            Ok(acceptor) => {
                acceptors.push((wake, acceptor));
                Ok(())
            }
            Err(e) => {
                wake.unlink();
                Err(e)
            }
        }
    }

    /// This tenant's lifetime counters (`None` before its first batch).
    pub fn tenant_stats(&self, tenant: &str) -> Option<TenantStats> {
        self.shared.tenants.get(tenant)
    }

    /// All tenants with their counters, sorted by tenant id.
    pub fn tenants(&self) -> Vec<(String, TenantStats)> {
        self.shared.tenants.all()
    }

    /// The whole server's metrics as one sorted snapshot: everything in
    /// [`ShardedViewCache::metrics_snapshot`] plus the per-tenant
    /// counters (`xpv_tenant_*{tenant="id"}`), the wire-traffic counters
    /// (`xpv_net_*`), and the server gauges (`xpv_server_connections`,
    /// `xpv_server_conn_window`). This is exactly the payload of a
    /// `StatsV2Resp` frame — `xpv stats` prints its text form.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        server_metrics_snapshot(&self.shared)
    }

    /// The watchdog (its alerts and trace forcing).
    pub fn watchdog(&self) -> &Watchdog {
        &self.shared.watchdog
    }

    /// Graceful drain (idempotent; also run on drop): close new
    /// connections unserved, stop every connection reading, wait until
    /// every admitted frame is answered and every connection has flushed
    /// its responses and sent its peer a `ServerBye` — at most
    /// [`DRAIN_GRACE`], after which the connections still open are cut —
    /// then stop the acceptors and, last, the watchdog, which watches the
    /// flushes until the drain is done.
    pub fn shutdown(&self) {
        if self.shut_down.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.draining.store(true, Ordering::Release);
        let threads = {
            let live = self.shared.live.lock().expect("live registry poisoned");
            for socket in live.conns.values() {
                let _ = socket.shutdown(Shutdown::Read);
            }
            let (mut live, _) = self
                .shared
                .conn_ended
                .wait_timeout_while(live, DRAIN_GRACE, |live| !live.conns.is_empty())
                .expect("live registry poisoned");
            // A writer blocked on a peer that stopped reading fails its
            // write, and its reader's queue drains.
            for socket in live.conns.values() {
                let _ = socket.shutdown(Shutdown::Both);
            }
            std::mem::take(&mut live.threads)
        };
        for thread in threads {
            let _ = thread.join();
        }
        let acceptors =
            std::mem::take(&mut *self.acceptors.lock().expect("acceptor list poisoned"));
        for (wake, acceptor) in acceptors {
            wake.poke();
            let _ = acceptor.join();
        }
        self.shared.watchdog.stop();
    }
}

impl Drop for AsyncCacheServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ServerShared {
    fn connections(&self) -> usize {
        self.live.lock().expect("live registry poisoned").conns.len()
    }
}

/// Builds the full-server snapshot (see
/// [`AsyncCacheServer::metrics_snapshot`]); also the `StatsV2Req`
/// handler's body.
fn server_metrics_snapshot(shared: &ServerShared) -> MetricsSnapshot {
    let mut snap = shared.cache.metrics_snapshot();
    for (tenant, stats) in shared.tenants.all() {
        stats.visit(&mut |name, v| {
            snap.push_counter_labeled(format!("xpv_tenant_{name}"), ("tenant", &tenant), v);
        });
    }
    shared.net.snapshot().visit(&mut |name, v| {
        snap.push_counter(format!("xpv_net_{name}"), v);
    });
    snap.push_gauge("xpv_server_connections", shared.connections() as u64);
    snap.push_gauge("xpv_server_conn_window", shared.conn_window.load(Ordering::Relaxed) as u64);
    snap.sort();
    snap
}

/// Builds the flight-recorder artifact: live metrics, watchdog alert
/// states, the drained trace rings, and the server's knob/config state. **Drains the trace rings** — events
/// captured here are gone from the next `xpv trace`-style drain.
fn build_dump(shared: &ServerShared) -> WireDump {
    let watchdog = &shared.watchdog;
    let config = vec![
        ("trace_sampling".to_string(), trace_sampling().to_string()),
        ("conn_window".to_string(), shared.conn_window.load(Ordering::Relaxed).to_string()),
        ("connections".to_string(), shared.connections().to_string()),
        ("draining".to_string(), shared.draining.load(Ordering::Acquire).to_string()),
        ("watchdog_interval_us".to_string(), watchdog.interval().as_micros().to_string()),
        ("trace_forced".to_string(), watchdog.trace_forced().to_string()),
    ];
    WireDump {
        metrics: wire_metrics(&server_metrics_snapshot(shared)),
        alerts: wire_alerts(&watchdog.alerts()),
        traces: wire_traces(&drain_trace_events()),
        config,
    }
}

/// One response frame for the writer: the encoded body plus the
/// request's lifecycle span (disabled for control frames). The writer
/// marks the span's `flush` phase after the socket write, then drops it —
/// which is what records the finished trace event.
struct Outgoing {
    body: Vec<u8>,
    span: Span,
}

impl Outgoing {
    /// A control frame (no request span to carry).
    fn control(msg: Msg) -> Outgoing {
        Outgoing { body: msg.encode(), span: Span::disabled() }
    }
}

/// Starts a reader thread for an accepted connection, with a handle on
/// its socket registered for the drain's sweep while it runs; the socket
/// is closed instead once the server is draining or the thread cannot
/// start.
fn serve(shared: &Arc<ServerShared>, socket: Socket) {
    let Ok(registered) = socket.try_clone() else {
        return;
    };
    let mut live = shared.live.lock().expect("live registry poisoned");
    if shared.draining.load(Ordering::Acquire) {
        return;
    }
    live.threads.retain(|t| !t.is_finished());
    let conn = live.next_conn;
    live.next_conn += 1;
    live.conns.insert(conn, registered);
    let thread_shared = Arc::clone(shared);
    let spawned = thread::Builder::new().name("xpv-conn".to_string()).spawn(move || {
        let _registered = Registered { shared: &thread_shared, conn };
        serve_connection(&thread_shared, socket);
    });
    match spawned {
        Ok(thread) => live.threads.push(thread),
        Err(_) => {
            live.conns.remove(&conn);
        }
    }
}

/// A connection's writer thread and the queue of at most `window`
/// responses in front of it, started with the connection's first
/// response.
struct Writer {
    queue: SyncSender<Outgoing>,
    thread: JoinHandle<()>,
}

impl Writer {
    fn start(shared: &Arc<ServerShared>, socket: &Socket, window: u32) -> io::Result<Writer> {
        let mut output = socket.try_clone()?;
        let (queue, responses) = mpsc::sync_channel(window as usize);
        let shared = Arc::clone(shared);
        let thread = thread::Builder::new().name("xpv-writer".to_string()).spawn(move || {
            let mut peer_gone = false;
            for outgoing in responses {
                // After a failed write the peer is gone: the rest of the
                // queue is dropped unwritten.
                peer_gone = peer_gone || !flush(&shared, &mut output, outgoing);
            }
        })?;
        Ok(Writer { queue, thread })
    }

    /// Hands a response to the writer, waiting (a credit stall) while its
    /// queue is full; false if the writer is gone.
    fn send(&self, shared: &ServerShared, response: Outgoing) -> bool {
        match self.queue.try_send(response) {
            Ok(()) => true,
            Err(TrySendError::Full(response)) => {
                shared.net.credit_stalls.fetch_add(1, Ordering::Relaxed);
                self.queue.send(response).is_ok()
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    }
}

/// The connection reader: the handshake, then one frame at a time until
/// EOF, `Goodbye`, a protocol error or the drain; then `ServerBye`, after
/// the writer (if the connection ever had a response) has flushed.
fn serve_connection(shared: &Arc<ServerShared>, socket: Socket) {
    let mut input = BufReader::new(socket);
    let Some(window) = handshake(shared, &mut input) else {
        return;
    };
    let mut writer = None;
    read_frames(shared, &mut input, window, &mut writer);
    let bye = Outgoing::control(Msg::ServerBye);
    match writer {
        Some(writer) => {
            writer.send(shared, bye);
            drop(writer.queue);
            let _ = writer.thread.join();
        }
        None => {
            flush(shared, input.get_mut(), bye);
        }
    }
}

/// Reads `Hello` and answers `HelloAck` with the connection's window, or
/// `Error` (and `None`) for a peer that does not speak this version.
fn handshake(shared: &ServerShared, input: &mut BufReader<Socket>) -> Option<u32> {
    let body = read_frame(&mut *input).ok().flatten()?;
    shared.net.frame_in(body.len());
    let refusal = match Msg::decode(&body) {
        Ok(Msg::Hello { version }) if version == VERSION => None,
        Ok(Msg::Hello { version }) => {
            Some(format!("unsupported protocol version {version} (server speaks {VERSION})"))
        }
        Ok(_) | Err(_) => Some("expected Hello".to_string()),
    };
    if let Some(message) = refusal {
        let _ = write_frame(input.get_mut(), &Msg::Error { message }.encode());
        return None;
    }
    let window = shared.conn_window.load(Ordering::Relaxed).max(1);
    let ack = Msg::HelloAck { version: VERSION, window }.encode();
    write_frame(input.get_mut(), &ack).ok()?;
    shared.net.frame_out(ack.len());
    Some(window)
}

/// The read loop: each frame checks out a worker slot for its decode and
/// its cache work, and hands its response to the writer after returning
/// the slot.
fn read_frames(
    shared: &Arc<ServerShared>,
    input: &mut BufReader<Socket>,
    window: u32,
    writer: &mut Option<Writer>,
) {
    while !shared.draining.load(Ordering::Acquire) {
        let Ok(Some(body)) = read_frame(&mut *input) else {
            return;
        };
        let read_at = Instant::now();
        shared.net.frame_in(body.len());
        shared.hb_reader.beat_now();
        let mut slot = Slot::checkout(&shared.workers);
        let admission = read_at.elapsed();
        let msg = Msg::decode_with(&body, |t| slot.worker.texts.parse(t));
        let (response, last) = match msg {
            Ok(Msg::QueryBatch { id, tenant, queries }) => {
                shared.cache.obs.admission_us.record_duration(admission);
                let mut span = Span::begin("net.query");
                if span.is_enabled() {
                    span.mark_us(Phase::Admission, admission.as_micros() as u64);
                }
                let (answers, enc) = evaluate_and_encode(
                    &shared.cache,
                    id,
                    &queries,
                    &mut span,
                    &mut slot.worker.arena,
                );
                shared.tenants.account_batch(&tenant, &answers);
                (answers_response(shared, id, enc, span), false)
            }
            Ok(Msg::EditBatch { id, tenant, edits }) => {
                let msg = match shared.cache.apply_edits(&edits) {
                    Ok(report) => {
                        let edits = report.edits_applied as u64;
                        let counters = shared.tenants.counters(&tenant);
                        counters.updates_applied.fetch_add(edits, Ordering::Relaxed);
                        Msg::EditAck { id, report: wire_report(&report) }
                    }
                    Err(e) => Msg::Rejected { id, reason: e.to_string() },
                };
                (response(shared, id, msg.encode(), Span::disabled()), false)
            }
            Ok(Msg::StatsReq { id, tenant }) => {
                let stats = shared.tenants.get(&tenant);
                let msg = Msg::StatsResp {
                    id,
                    found: stats.is_some(),
                    stats: wire_tenant_stats(stats.unwrap_or_default()),
                };
                (Outgoing::control(msg), false)
            }
            Ok(Msg::StatsV2Req { id }) => {
                let snap = server_metrics_snapshot(shared);
                let msg = Msg::StatsV2Resp { id, metrics: wire_metrics(&snap) };
                (response(shared, id, msg.encode(), Span::disabled()), false)
            }
            Ok(Msg::DebugDumpReq { id }) => {
                let msg = Msg::DebugDumpResp { id, dump: build_dump(shared) };
                (response(shared, id, msg.encode(), Span::disabled()), false)
            }
            Ok(Msg::Goodbye) => return,
            Ok(other) => (
                Outgoing::control(Msg::Error { message: format!("unexpected frame {other:?}") }),
                true,
            ),
            Err(e) => (Outgoing::control(Msg::Error { message: e.to_string() }), true),
        };
        drop(slot);
        let out = match &mut *writer {
            Some(out) => out,
            unstarted => match Writer::start(shared, input.get_ref(), window) {
                Ok(started) => unstarted.insert(started),
                Err(_) => return,
            },
        };
        if !out.send(shared, response) || last {
            return;
        }
    }
}

/// Writes one response inside the `flush` heartbeat and marks its span's
/// `flush` phase; false if the peer is gone.
fn flush(shared: &ServerShared, socket: &mut Socket, mut outgoing: Outgoing) -> bool {
    // Heartbeat in flight across the write: a peer that stops reading
    // wedges us here, and the watchdog's `flush_stall` rule sees frozen
    // beats with inflight > 0.
    let _hb = shared.hb_flush.begin();
    let started = Instant::now();
    if write_frame(socket, &outgoing.body).is_err() {
        return false;
    }
    let wrote = started.elapsed();
    shared.net.frame_out(outgoing.body.len());
    shared.cache.obs.flush_us.record_duration(wrote);
    if outgoing.span.is_enabled() {
        outgoing.span.mark_us(Phase::Flush, wrote.as_micros() as u64);
    }
    // Dropping the span here records the request's trace event with its
    // full timeline.
    true
}

/// The query handler's synchronous section: answers `queries` on `cache`
/// into `arena` (cleared first), then encodes batch `id`'s `Answers` frame
/// straight from the answer sets, each one as a span, a list or a repeat
/// of a fanned-out answer. Marks the plan, eval and encode phases onto
/// `span`. Returns the answers, for the tenant's counters, and the
/// encoder holding the frame.
pub fn evaluate_and_encode(
    cache: &ShardedViewCache,
    id: u64,
    queries: &[Pattern],
    span: &mut Span,
    arena: &mut AnswerArena,
) -> (Vec<CacheAnswerRef>, AnswersEncoder) {
    let answers = cache.answer_batch_refs_spanned(queries, span, arena);
    let encode_started = Instant::now();
    let mut enc = AnswersEncoder::new(id);
    for a in &answers {
        enc.answer_ref(wire_route_ref(&a.route), arena, a.nodes);
    }
    let encoded = encode_started.elapsed();
    cache.obs.encode_us.record_duration(encoded);
    if span.is_enabled() {
        span.mark_us(Phase::Encode, encoded.as_micros() as u64);
    }
    (answers, enc)
}

/// An `Answers` response (see [`response`]); one that would decode to
/// more than [`MAX_ANSWER_NODES`] ids is downgraded to a `Rejected` too.
fn answers_response(shared: &ServerShared, id: u64, enc: AnswersEncoder, span: Span) -> Outgoing {
    if enc.node_count() <= MAX_ANSWER_NODES {
        response(shared, id, enc.finish(), span)
    } else {
        let reason = format!(
            "answers of {} node ids exceed the {MAX_ANSWER_NODES}-id frame limit; narrow the batch",
            enc.node_count()
        );
        oversized(shared, id, reason, span)
    }
}

/// A response body with its request span, downgrading one whose encoding
/// exceeds the frame cap to a `Rejected` — the connection (and its
/// pipelined siblings) survive, and the client sees an explicit refusal
/// instead of the protocol error an oversized frame would trigger.
fn response(shared: &ServerShared, id: u64, body: Vec<u8>, span: Span) -> Outgoing {
    if body.len() <= xpv_net::MAX_FRAME {
        Outgoing { body, span }
    } else {
        let reason = format!(
            "response of {} bytes exceeds the {}-byte frame limit; narrow the batch",
            body.len(),
            xpv_net::MAX_FRAME
        );
        oversized(shared, id, reason, span)
    }
}

/// The `Rejected` that replaces a response the peer would refuse,
/// counted as an oversized rejection.
fn oversized(shared: &ServerShared, id: u64, reason: String, span: Span) -> Outgoing {
    shared.net.oversized_rejections.fetch_add(1, Ordering::Relaxed);
    Outgoing { body: Msg::Rejected { id, reason }.encode(), span }
}

/// The engine route's borrowed wire form (no string clones).
fn wire_route_ref(route: &Route) -> WireRouteRef<'_> {
    match route {
        Route::Direct => WireRouteRef::Direct,
        Route::ViaView { view, rewriting } => WireRouteRef::ViaView { view, rewriting },
        Route::Intersect { views, compensation } => WireRouteRef::Intersect { views, compensation },
    }
}

fn wire_report(r: &UpdateReport) -> WireUpdateReport {
    WireUpdateReport {
        edits_applied: r.edits_applied as u64,
        doc_version: r.doc_version,
        views_changed: r.views_changed as u64,
        routes_dropped: r.routes_dropped,
    }
}

fn wire_tenant_stats(s: TenantStats) -> WireTenantStats {
    WireTenantStats {
        batches: s.batches,
        queries: s.queries,
        view_hits: s.view_hits,
        intersect_hits: s.intersect_hits,
        direct: s.direct,
        updates_applied: s.updates_applied,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_maintain::Edit;
    use xpv_model::{Tree, TreeBuilder};
    use xpv_net::{Response, WireClient};
    use xpv_pattern::parse_xpath;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    fn doc() -> Tree {
        TreeBuilder::root("site", |b| {
            for _ in 0..3 {
                b.child("region", |b| {
                    b.child("item", |b| {
                        b.leaf("name");
                    });
                });
            }
        })
    }

    fn server(workers: usize) -> AsyncCacheServer {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        AsyncCacheServer::start(Arc::new(cache), workers)
    }

    /// A wire client on a fresh TCP listener of `server`.
    fn client(server: &AsyncCacheServer) -> WireClient {
        let addr = server.listen_tcp("127.0.0.1:0").expect("listen");
        WireClient::connect_tcp(&addr.to_string()).expect("connect")
    }

    #[test]
    fn concurrent_submissions_from_many_tenants() {
        let server = server(4);
        let addr = server.listen_tcp("127.0.0.1:0").expect("listen").to_string();
        let qs = vec![pat("site/region/item/name"), pat("site/region/item")];
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (addr, qs) = (&addr, &qs);
                scope.spawn(move || {
                    let mut client = WireClient::connect_tcp(addr).expect("connect");
                    let tenant = format!("tenant-{t}");
                    for _ in 0..5 {
                        let answers = client.answer_batch(&tenant, qs).expect("answers");
                        assert_eq!(answers.len(), qs.len());
                    }
                });
            }
        });
        let tenants = server.tenants();
        assert_eq!(tenants.len(), 4);
        for (name, stats) in tenants {
            assert_eq!(stats.batches, 5, "{name}");
            assert_eq!(stats.queries, 10, "{name}");
            assert_eq!(stats.view_hits + stats.direct, stats.queries, "{name}");
        }
        assert_eq!(server.cache().stats().queries, 40);
    }

    #[test]
    fn pipelined_frames_are_each_answered() {
        let server = server(2);
        let mut client = client(&server);
        let q = pat("site/region/item/name");
        let ids: Vec<u64> = (0..8)
            .map(|_| client.send_queries("pipeline", std::slice::from_ref(&q)).expect("send"))
            .collect();
        for id in ids {
            match client.recv_for(id).expect("recv") {
                Response::Answers { answers, .. } => {
                    assert_eq!(answers[0].nodes, server.cache().answer_direct(&q));
                }
                other => panic!("expected Answers, got {other:?}"),
            }
        }
        assert_eq!(server.tenant_stats("pipeline").unwrap().batches, 8);
    }

    #[test]
    fn tenant_stats_display() {
        let server = server(1);
        let mut client = client(&server);
        client.answer_batch("acme", &[pat("site/region/item/name")]).expect("answers");
        let stats = server.tenant_stats("acme").unwrap();
        let line = stats.to_string();
        assert!(line.contains("queries=1"), "got: {line}");
        assert!(line.contains("batches=1"), "got: {line}");
        // Display renders the same enumeration `visit` exposes.
        stats.visit(&mut |name, _| {
            assert!(line.contains(&format!("{name}=")), "{name} missing from: {line}");
        });
        assert!(!line.contains('\n'));
    }

    #[test]
    fn updates_flow_through_the_server_and_are_accounted() {
        let server = server(2);
        let mut client = client(&server);
        let q = pat("site/region/item/name");
        let before = client.answer_batch("writer", std::slice::from_ref(&q)).expect("answers");
        let doc = server.cache().document();
        let region = doc.children(doc.root())[0];
        let graft = TreeBuilder::root("item", |b| {
            b.leaf("name");
        });
        let report = client
            .apply_edits("writer", &[Edit::InsertSubtree { parent: region, subtree: graft }])
            .expect("transport")
            .expect("valid edit");
        assert_eq!(report.edits_applied, 1);
        assert_eq!(report.views_changed, 1, "the `items` view gained an answer");
        let after = client.answer_batch("writer", std::slice::from_ref(&q)).expect("answers");
        assert_eq!(after[0].nodes.len(), before[0].nodes.len() + 1);
        assert_eq!(after[0].nodes, server.cache().answer_direct(&q));
        let stats = server.tenant_stats("writer").expect("accounted");
        assert_eq!(stats.updates_applied, 1);
        assert_eq!(stats.batches, 2);
    }

    #[test]
    fn wire_round_trip_over_tcp() {
        let server = server(2);
        let addr = server.listen_tcp("127.0.0.1:0").expect("listen");
        let mut client = WireClient::connect_tcp(&addr.to_string()).expect("connect");
        assert_eq!(client.window(), DEFAULT_CONN_WINDOW);
        let qs = vec![pat("site/region/item/name"), pat("site/region/item")];
        let answers = client.answer_batch("wire-tenant", &qs).expect("answers");
        assert_eq!(answers.len(), 2);
        for (q, a) in qs.iter().zip(&answers) {
            assert_eq!(a.nodes, server.cache().answer_direct(q), "wire answers differ for {q}");
        }
        let stats = client.tenant_stats("wire-tenant").expect("io").expect("tenant seen");
        assert_eq!(stats.queries, 2);
        assert!(client.tenant_stats("never-seen").expect("io").is_none());
        let drained = client.goodbye().expect("clean close");
        assert!(drained.is_empty());
        assert_eq!(server.tenant_stats("wire-tenant").unwrap().queries, 2);
    }

    #[test]
    fn wire_round_trip_over_unix_socket() {
        let server = server(2);
        let path = std::env::temp_dir().join(format!("xpv-test-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        server.listen_unix(&path).expect("listen");
        let mut client = WireClient::connect_unix(&path).expect("connect");
        let q = pat("site//name");
        let answers = client.answer_batch("ux", std::slice::from_ref(&q)).expect("answers");
        assert_eq!(answers[0].nodes, server.cache().answer_direct(&q));
        drop(client);
        server.shutdown();
        assert!(!path.exists(), "drained listener removes its socket file");
    }

    #[test]
    fn version_mismatch_is_refused() {
        use std::io::{Read, Write};
        let server = server(1);
        let addr = server.listen_tcp("127.0.0.1:0").expect("listen");
        // Versions 2 (answers as node lists only), 3 (history frames) and
        // 4 (an admission-wait counter in `StatsResp`) are refused like any other:
        // versioning is strict equality.
        for version in [2, 3, 4, 999] {
            let mut raw = std::net::TcpStream::connect(addr).expect("connect");
            let body = Msg::Hello { version }.encode();
            raw.write_all(&(body.len() as u32).to_le_bytes()).expect("len");
            raw.write_all(&body).expect("body");
            let mut len = [0u8; 4];
            raw.read_exact(&mut len).expect("error frame length");
            let mut resp = vec![0u8; u32::from_le_bytes(len) as usize];
            raw.read_exact(&mut resp).expect("error frame body");
            match Msg::decode(&resp).expect("decodes") {
                Msg::Error { message } => {
                    assert!(message.contains(&format!("version {version}")), "got: {message}")
                }
                other => panic!("expected Error, got {other:?}"),
            }
            // The server closes after the error frame.
            assert_eq!(raw.read(&mut len).expect("eof"), 0);
        }
    }

    #[test]
    fn a_frame_past_the_node_bound_is_rejected_and_the_connection_lives() {
        let mut doc = Tree::new(xpv_model::Label::new("r"));
        for _ in 0..20_000 {
            doc.add_child(doc.root(), xpv_model::Label::new("x"));
        }
        let server = AsyncCacheServer::start(Arc::new(ShardedViewCache::new(doc)), 1);
        let addr = server.listen_tcp("127.0.0.1:0").expect("listen");
        let mut client = WireClient::connect_tcp(&addr.to_string()).expect("connect");
        // One evaluation fanned out 850 times: a few kilobytes of repeats
        // that would decode to 17 million ids.
        let q = pat("r/x");
        let fanned = vec![q.clone(); 850];
        let err = client.answer_batch("t", &fanned).expect_err("past MAX_ANSWER_NODES");
        assert!(err.to_string().contains("node ids exceed"), "got: {err}");
        let answers = client.answer_batch("t", &fanned[..800]).expect("below the bound");
        assert_eq!(answers.len(), 800);
        assert!(answers.iter().all(|a| a.nodes.len() == 20_000));
        assert_eq!(server.shared.net.snapshot().oversized_rejections, 1);
    }

    /// A long-interval watchdog: never ticks on its own during the test.
    fn obs_server() -> AsyncCacheServer {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        AsyncCacheServer::start_with_obs(
            Arc::new(cache),
            2,
            ObsConfig { interval: Duration::from_secs(3600), ..ObsConfig::default() },
        )
    }

    #[test]
    fn debug_dump_bundles_metrics_alerts_and_config() {
        let server = obs_server();
        let mut client = client(&server);
        client.answer_batch("t", &[pat("site/region/item/name")]).expect("answers");
        server.watchdog().tick();

        let dump = client.debug_dump().expect("dump frame");
        assert!(!dump.metrics.is_empty(), "live snapshot travels");
        let alert_names: Vec<&str> = dump.alerts.iter().map(|a| a.name.as_str()).collect();
        assert!(alert_names.contains(&"maintain_stall"), "got: {alert_names:?}");
        assert!(alert_names.contains(&"flush_stall"), "got: {alert_names:?}");
        assert!(dump.alerts.iter().all(|a| !a.firing), "healthy server fires nothing");
        let key = |k: &str| {
            dump.config
                .iter()
                .find(|(name, _)| name == k)
                .unwrap_or_else(|| panic!("config key {k} missing: {:?}", dump.config))
                .1
                .clone()
        };
        assert_eq!(key("trace_sampling"), xpv_obs::DEFAULT_TRACE_SAMPLING.to_string());
        assert_eq!(key("watchdog_interval_us"), "3600000000");
        assert_eq!(key("trace_forced"), "false");
    }

    /// Each worker slot's query-text cache as (misses, entries), read
    /// while every slot is free.
    fn worker_texts(server: &AsyncCacheServer) -> Vec<(u64, usize)> {
        let free = server.shared.workers.free.lock().expect("pool");
        assert_eq!(free.len(), server.workers(), "every slot is free");
        free.iter().map(|w| (w.texts.misses(), w.texts.len())).collect()
    }

    #[test]
    fn a_repeated_frame_parses_each_distinct_text_once_per_worker() {
        let server = server(2);
        let addr = server.listen_tcp("127.0.0.1:0").expect("listen");
        let mut client = WireClient::connect_tcp(&addr.to_string()).expect("connect");
        let distinct = [pat("site/region/item/name"), pat("site//name"), pat("site/region[item]")];
        let mut frame = distinct.to_vec();
        frame.push(distinct[0].clone());
        for _ in 0..20 {
            let answers = client.answer_batch("t", &frame).expect("answers");
            for (q, a) in frame.iter().zip(&answers) {
                assert_eq!(a.nodes, server.cache().answer_direct(q), "{q}");
            }
        }
        let per_worker = worker_texts(&server);
        assert_eq!(per_worker.len(), 2);
        // The worker that decoded the first frame parsed every text once;
        // no worker parsed any text twice.
        assert!(per_worker.iter().all(|&(misses, len)| misses as usize == len), "{per_worker:?}");
        assert!(per_worker.iter().all(|&(misses, _)| misses <= 3), "{per_worker:?}");
        assert!(per_worker.iter().any(|&(misses, _)| misses == 3), "{per_worker:?}");
    }

    #[test]
    fn a_malformed_text_after_a_cached_one_still_gets_the_error_frame_and_close() {
        use std::io::{Read, Write};
        use xpv_net::frame::Encoder;
        fn send(raw: &mut std::net::TcpStream, body: &[u8]) {
            raw.write_all(&(body.len() as u32).to_le_bytes()).expect("len");
            raw.write_all(body).expect("body");
        }
        fn recv(raw: &mut std::net::TcpStream) -> Msg {
            let mut len = [0u8; 4];
            raw.read_exact(&mut len).expect("frame length");
            let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
            raw.read_exact(&mut body).expect("frame body");
            Msg::decode(&body).expect("decodes")
        }
        let server = server(1);
        let addr = server.listen_tcp("127.0.0.1:0").expect("listen");
        let mut raw = std::net::TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        send(&mut raw, &Msg::Hello { version: VERSION }.encode());
        assert!(matches!(recv(&mut raw), Msg::HelloAck { .. }));
        let q = pat("site//name");
        let good = Msg::QueryBatch { id: 1, tenant: "t".into(), queries: vec![q.clone()] };
        for _ in 0..2 {
            send(&mut raw, &good.encode());
            match recv(&mut raw) {
                Msg::Answers { id: 1, answers } => {
                    assert_eq!(answers[0].nodes, server.cache().answer_direct(&q));
                }
                other => panic!("expected Answers, got {other:?}"),
            }
        }
        // The cached text, then one that does not parse: the same error
        // frame as an uncached decode, then the close.
        let mut e = Encoder::new();
        e.u8(0x10).u64(2).str("t").u32(2).str("site//name").str("site/region[[");
        let bad = e.finish();
        let expected = Msg::decode(&bad).expect_err("does not parse").to_string();
        send(&mut raw, &bad);
        match recv(&mut raw) {
            Msg::Error { message } => assert_eq!(message, expected),
            other => panic!("expected Error, got {other:?}"),
        }
        assert!(matches!(recv(&mut raw), Msg::ServerBye));
        assert_eq!(raw.read(&mut [0u8; 4]).expect("eof"), 0);
        // Parsed: the good text once, the bad one once; kept: the good one.
        assert_eq!(worker_texts(&server), vec![(2, 1)]);
    }
}
