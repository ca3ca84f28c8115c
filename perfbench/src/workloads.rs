//! The five workloads: what each runs, how a round is driven, and how the
//! answers are checked.
//!
//! A run is one workload in one process: set-up (repeated, timed), one
//! untimed warm-up round, then timed rounds of a **fixed operation count**
//! until the requested measuring time is used up. Every round of a
//! workload does the same operations, so program counters repeat exactly
//! from round to round and from run to run; the read metrics come from the
//! fastest eighth of the rounds (see `run::Series`).

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::adapter::{self, Arena, Client, Edit, Engine, NodeId, Pattern, Reported, Server, Tree};
use crate::gen::{self, DocSize, QuerySpec, Rng};
use crate::spans::SpanLog;

/// Distinct queries in a hot stream.
pub const HOT_QUERIES: usize = 48;
pub const EDITS_PER_BATCH: usize = 32;
/// `edit_mix`: read batches after each edit batch.
pub const READS_PER_STEP: usize = 4;
/// `edit_mix`: the answers of every this-many-th step are checked against
/// the reference at that document version.
pub const CHECK_EVERY_STEPS: usize = 10;
/// The box has two cores: never more than two callers, two server workers.
pub const SERVER_WORKERS: usize = 2;
/// Set-up is timed in two windows, before the rounds and after them. In
/// each it is repeated at least [`SETUP_REPEATS`] times, and up to
/// [`SETUP_REPEATS_MAX`] while [`SETUP_BUDGET`] lasts (a 60 ms set-up
/// timed three times repeats within a half, timed sixteen times within a
/// tenth).
pub const SETUP_REPEATS: usize = 3;
pub const SETUP_REPEATS_MAX: usize = 8;
pub const SETUP_BUDGET: Duration = Duration::from_millis(750);
pub const MIN_ROUNDS: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// Caller threads share one engine and call it directly.
    InProcess,
    /// Client connections to the asynchronous server on a Unix socket,
    /// one request in flight per connection.
    Wire,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stream {
    /// Zipf(1) over [`HOT_QUERIES`] distinct queries, plan memo warm.
    Hot,
    /// Every query of a round distinct, engine fresh each round: every
    /// query is a plan-memo miss.
    Cold,
}

/// One workload. The counts are frozen: they were calibrated once for a
/// round of about half a second at the commit that added the benchmark
/// (short, so that a run holds some thirty of them and the spells in
/// which the machine runs undisturbed are not missed), and a later change that moves them is a
/// change of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub doc: DocSize,
    pub transport: Transport,
    pub stream: Stream,
    /// Closed-loop callers: threads in process, connections on the wire.
    pub callers: usize,
    /// Queries per batch.
    pub batch: usize,
    /// Read batches per caller per round (`edit_mix`: the pool its steps
    /// cycle through).
    pub batches_per_caller: usize,
    /// `edit_mix` only: steps per round, each one edit batch followed by
    /// [`READS_PER_STEP`] read batches. 0 elsewhere.
    pub steps_per_round: usize,
    /// Whether the trace pass adds the paced (fixed-schedule) probe.
    pub paced_probe: bool,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "hot_large",
        why: "100k-node document, hot Zipf stream, 2 threads on one engine: evaluation does the work, planning none; only here can lock contention between callers show",
        doc: DocSize::Large,
        transport: Transport::InProcess,
        stream: Stream::Hot,
        callers: 2,
        batch: 64,
        batches_per_caller: 40,
        steps_per_round: 0,
        paced_probe: false,
    },
    Spec {
        name: "cold_plan",
        why: "1.7k-node document, every query distinct, fresh engine each round: planning (signatures, oracle, intersection search) does the work; view, intersect and direct routes all taken",
        doc: DocSize::Small,
        transport: Transport::InProcess,
        stream: Stream::Cold,
        callers: 1,
        batch: 16,
        batches_per_caller: 45,
        steps_per_round: 0,
        paced_probe: false,
    },
    Spec {
        name: "wire_small",
        why: "1.7k-node document, hot stream, 8-query frames over a Unix socket at depth 1: framing, reactor, admission, parsing and flushing do the work, evaluation and planning little",
        doc: DocSize::Small,
        transport: Transport::Wire,
        stream: Stream::Hot,
        callers: 2,
        batch: 8,
        batches_per_caller: 1000,
        steps_per_round: 0,
        paced_probe: true,
    },
    Spec {
        name: "wire_large",
        why: "100k-node document, hot stream, 16-query frames over the socket: few frames of thousands of nodes each, so encoding, flushing and bytes moved share the time with evaluation",
        doc: DocSize::Large,
        transport: Transport::Wire,
        stream: Stream::Hot,
        callers: 2,
        batch: 16,
        batches_per_caller: 62,
        steps_per_round: 0,
        paced_probe: false,
    },
    Spec {
        name: "edit_mix",
        why: "100k-node document, one thread alternating a 32-edit batch with 4 hot read batches: maintenance, snapshot copying and freezing do the work, and the reads pay for dropped routes",
        doc: DocSize::Large,
        transport: Transport::InProcess,
        stream: Stream::Hot,
        callers: 1,
        batch: 64,
        batches_per_caller: 48,
        steps_per_round: 5,
        paced_probe: false,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

// ---------------------------------------------------------------------
// Inputs and fixtures
// ---------------------------------------------------------------------

/// One read batch: the patterns sent, and for each the index of its query
/// in the distinct set (to look the expected answer up).
pub struct BatchIn {
    pub ids: Vec<u32>,
    pub patterns: Vec<Pattern>,
}

/// Everything a workload feeds the program, made from the seed alone.
pub struct Inputs {
    pub doc: Tree,
    pub pool: Vec<(String, Pattern)>,
    /// The distinct queries, as specified and as parsed.
    pub specs: Vec<QuerySpec>,
    pub queries: Vec<Pattern>,
    /// Per caller, the read batches of one round (every round replays
    /// them).
    pub callers: Vec<Vec<BatchIn>>,
    /// Edit batches in application order, replayable from `doc`.
    pub edits: Vec<Vec<Edit>>,
}

/// How many edit batches a run can consume: `edit_mix` at up to twelve
/// steps a second plus a warm-up round; no other workload edits.
fn edit_budget(spec: &Spec, seconds: u64) -> usize {
    if spec.steps_per_round > 0 {
        seconds as usize * 12 + spec.steps_per_round
    } else {
        0
    }
}

pub fn generate(spec: &Spec, seed: u64, seconds: u64) -> Inputs {
    let rng = Rng::new(seed);
    let doc = gen::document(spec.doc);
    let pool = gen::view_pool()
        .into_iter()
        .map(|(name, def)| (name, adapter::parse_query(&def)))
        .collect();
    let universe = gen::query_universe();
    let total = spec.callers * spec.batches_per_caller * spec.batch;
    let (specs, ids): (Vec<QuerySpec>, Vec<usize>) = match spec.stream {
        Stream::Hot => (
            gen::hot_set(&universe, HOT_QUERIES),
            gen::zipf_indices(HOT_QUERIES, total, &mut rng.fork(3)),
        ),
        Stream::Cold => {
            (gen::draw_distinct(&universe, total, &mut rng.fork(4)), (0..total).collect())
        }
    };
    let queries = gen::parse_all(&specs);
    let mut chunks = ids.chunks(spec.batch).map(|chunk| BatchIn {
        ids: chunk.iter().map(|&i| i as u32).collect(),
        patterns: chunk.iter().map(|&i| queries[i].clone()).collect(),
    });
    let callers = (0..spec.callers)
        .map(|_| chunks.by_ref().take(spec.batches_per_caller).collect())
        .collect();
    let edits = match edit_budget(spec, seconds) {
        0 => Vec::new(),
        batches => gen::edit_batches(&doc, batches, EDITS_PER_BATCH, &rng),
    };
    Inputs { doc, pool, specs, queries, callers, edits }
}

/// A running instance of the program, ready for the first round.
pub struct Fixture {
    pub inputs: Inputs,
    pub engine: Engine,
    pub server: Option<Server>,
    pub clients: Vec<Client>,
    /// Mean milliseconds per `add_view` during this set-up.
    pub add_view_ms: f64,
}

/// An engine over the inputs' document with the whole pool registered.
pub fn fresh_engine(inputs: &Inputs) -> Engine {
    let engine = Engine::new(inputs.doc.clone());
    for (name, def) in &inputs.pool {
        engine.add_view(name, def.clone());
    }
    engine
}

/// Everything before the first round: inputs from the seed, engine, views,
/// server and connections, and — for hot streams — one pass over the
/// distinct queries so the plan memo is warm.
pub fn set_up(spec: &Spec, seed: u64, seconds: u64, socket: &Path) -> Result<Fixture, String> {
    let inputs = generate(spec, seed, seconds);
    let t = Instant::now();
    let engine = fresh_engine(&inputs);
    let add_view_ms = t.elapsed().as_secs_f64() * 1e3 / inputs.pool.len() as f64;
    let (server, mut clients) = match spec.transport {
        Transport::InProcess => (None, Vec::new()),
        Transport::Wire => {
            let server = Server::start(&engine, SERVER_WORKERS, socket)
                .map_err(|e| format!("server start on {}: {e}", socket.display()))?;
            let clients = (0..spec.callers)
                .map(|_| server.connect().map_err(|e| format!("connect: {e}")))
                .collect::<Result<Vec<_>, _>>()?;
            (Some(server), clients)
        }
    };
    if spec.stream == Stream::Hot {
        match clients.first_mut() {
            None => {
                engine.answer_batch(&inputs.queries, &mut Arena::new());
            }
            Some(client) => {
                let id = client
                    .send_queries(TENANT, &inputs.queries)
                    .map_err(|e| format!("warm-up: {e}"))?;
                client.recv_answers(id).map_err(|e| format!("warm-up: {e}"))?;
            }
        }
    }
    Ok(Fixture { inputs, engine, server, clients, add_view_ms })
}

pub fn tear_down(fixture: Fixture) {
    for client in fixture.clients {
        client.goodbye();
    }
    if let Some(server) = fixture.server {
        server.shutdown();
    }
}

const TENANT: &str = "bench";

// ---------------------------------------------------------------------
// Rounds
// ---------------------------------------------------------------------

/// What one caller, or one whole round, observed.
#[derive(Default)]
pub struct Tally {
    /// Query answers requested / found wrong or missing. A failed batch
    /// counts every query in it.
    pub answers: u64,
    pub failed: u64,
    /// Caller-observed latency of each read batch, microseconds.
    pub batch_us: Vec<f64>,
    /// Edit batches attempted / failed, and the latency of each in
    /// milliseconds.
    pub edit_batches: u64,
    pub edit_failed: u64,
    pub edit_ms: Vec<f64>,
    /// Traced rounds only.
    pub trace: Option<TraceTally>,
}

pub struct TraceTally {
    pub spans: SpanLog,
    /// Program-reported planning and evaluation time of the answers.
    pub reported: Reported,
    /// Nodes in the arena after each batch, summed (shared runs once).
    pub arena_nodes: u64,
    /// Nodes over all answers, summed (shared runs per answer).
    pub answer_nodes: u64,
    /// `edit_mix`: latency of the first read batch after each edit batch.
    pub after_edit_us: Vec<f64>,
    pub routes_dropped: u64,
}

impl TraceTally {
    fn new(epoch: Instant) -> TraceTally {
        TraceTally {
            spans: SpanLog::new(epoch),
            reported: Reported::default(),
            arena_nodes: 0,
            answer_nodes: 0,
            after_edit_us: Vec::new(),
            routes_dropped: 0,
        }
    }

    /// Adds `other`, if any, to `into`, if any.
    pub fn merge(into: &mut Option<TraceTally>, other: Option<TraceTally>) {
        match (into, other) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (mine @ None, theirs) => *mine = theirs,
            (Some(_), None) => {}
        }
    }

    fn absorb(&mut self, other: TraceTally) {
        self.spans.merge(other.spans);
        self.reported.planning += other.reported.planning;
        self.reported.evaluation += other.reported.evaluation;
        self.reported.evaluated += other.reported.evaluated;
        self.arena_nodes += other.arena_nodes;
        self.answer_nodes += other.answer_nodes;
        self.after_edit_us.extend(other.after_edit_us);
        self.routes_dropped += other.routes_dropped;
    }
}

impl Tally {
    fn new(trace: Option<Instant>) -> Tally {
        Tally { trace: trace.map(TraceTally::new), ..Tally::default() }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.answers += other.answers;
        self.failed += other.failed;
        self.batch_us.extend(other.batch_us);
        self.edit_batches += other.edit_batches;
        self.edit_failed += other.edit_failed;
        self.edit_ms.extend(other.edit_ms);
        TraceTally::merge(&mut self.trace, other.trace);
    }
}

/// One timed round.
pub struct Round {
    /// Wall time of the round: barrier release to last caller done.
    pub wall: Duration,
    pub tally: Tally,
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// One in-process read batch: timed call, then the cheap per-answer check
/// (answer length against the reference's) outside the timed interval.
fn call_in_process(
    engine: &Engine,
    batch: &BatchIn,
    arena: &mut Arena,
    expected_len: Option<&[usize]>,
    request: u64,
    tally: &mut Tally,
) -> adapter::Batch {
    let span = tally.trace.as_mut().map(|t| t.spans.open("engine.answer_batch", None, request));
    let t = Instant::now();
    let out = engine.answer_batch(&batch.patterns, arena);
    let took = t.elapsed();
    if let (Some(trace), Some(span)) = (tally.trace.as_mut(), span) {
        trace.spans.close(span);
        let r = out.reported();
        trace.spans.report(
            span,
            &[
                ("core.plan", r.planning.as_nanos() as u64),
                ("semantics.evaluate", r.evaluation.as_nanos() as u64),
            ],
        );
        trace.reported.planning += r.planning;
        trace.reported.evaluation += r.evaluation;
        trace.reported.evaluated += r.evaluated;
        trace.arena_nodes += arena.node_count() as u64;
        trace.answer_nodes += (0..out.len()).map(|i| out.node_len(i) as u64).sum::<u64>();
    }
    tally.batch_us.push(micros(took));
    tally.answers += batch.ids.len() as u64;
    if out.len() != batch.ids.len() {
        tally.failed += batch.ids.len() as u64;
    } else if let Some(expected) = expected_len {
        let wrong = (0..out.len()).filter(|&i| out.node_len(i) != expected[batch.ids[i] as usize]);
        tally.failed += wrong.count() as u64;
    }
    out
}

/// One wire read batch: `send_queries` to answers decoded.
fn call_over_wire(
    client: &mut Client,
    batch: &BatchIn,
    expected_len: &[usize],
    request: u64,
    tally: &mut Tally,
) {
    let root = tally.trace.as_mut().map(|t| t.spans.open("net.round_trip", None, request));
    let child =
        |tally: &mut Tally, name| tally.trace.as_mut().map(|t| t.spans.open(name, root, request));
    let close = |tally: &mut Tally, id| {
        if let (Some(t), Some(id)) = (tally.trace.as_mut(), id) {
            t.spans.close(id);
        }
    };
    let t = Instant::now();
    let send = child(tally, "net.send_queries");
    let sent = client.send_queries(TENANT, &batch.patterns);
    close(tally, send);
    let recv = child(tally, "net.recv_answers");
    let answers = sent.and_then(|id| client.recv_answers(id));
    close(tally, recv);
    let took = t.elapsed();
    close(tally, root);
    tally.batch_us.push(micros(took));
    tally.answers += batch.ids.len() as u64;
    match answers {
        Ok(out) if out.len() == batch.ids.len() => {
            let wrong = (0..out.len())
                .filter(|&i| out.nodes(i).len() != expected_len[batch.ids[i] as usize]);
            tally.failed += wrong.count() as u64;
            if let Some(trace) = tally.trace.as_mut() {
                trace.answer_nodes +=
                    (0..out.len()).map(|i| out.nodes(i).len() as u64).sum::<u64>();
            }
        }
        Ok(_) | Err(_) => tally.failed += batch.ids.len() as u64,
    }
}

/// A read round: every caller replays its batches, closed loop, all
/// callers released together. `engine` is the engine in-process callers
/// use (`cold_plan` passes a fresh one each round); `transport` lets the
/// trace pass replay a wire workload's batches in process.
pub fn read_round(
    spec: &Spec,
    transport: Transport,
    fixture: &mut Fixture,
    engine: &Engine,
    expected_len: &[usize],
    trace: Option<Instant>,
) -> Round {
    let barrier = Barrier::new(spec.callers + 1);
    let inputs = &fixture.inputs;
    let wire = transport == Transport::Wire;
    let mut clients = fixture.clients.iter_mut().filter(|_| wire);
    let (wall, tallies) = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .callers
            .iter()
            .enumerate()
            .map(|(caller, batches)| {
                let barrier = &barrier;
                let mut client = clients.next();
                scope.spawn(move || {
                    let mut tally = Tally::new(trace);
                    let mut arena = Arena::new();
                    barrier.wait();
                    for (i, batch) in batches.iter().enumerate() {
                        let request = ((caller as u64) << 32) | i as u64;
                        match client.as_deref_mut() {
                            None => {
                                call_in_process(
                                    engine,
                                    batch,
                                    &mut arena,
                                    Some(expected_len),
                                    request,
                                    &mut tally,
                                );
                            }
                            Some(c) => call_over_wire(c, batch, expected_len, request, &mut tally),
                        }
                    }
                    tally
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let tallies: Vec<Tally> =
            handles.into_iter().map(|h| h.join().expect("caller thread panicked")).collect();
        (start.elapsed(), tallies)
    });
    let mut tally = Tally::default();
    for t in tallies {
        tally.absorb(t);
    }
    Round { wall, tally }
}

/// The benchmark's own copy of the document at the engine's version, and
/// the next edit batch to apply.
pub struct Mirror {
    pub doc: Tree,
    pub next_edit: usize,
}

/// Applies one edit batch, timed, and replays it on the mirror. Returns
/// `false` when the stream is exhausted.
fn apply_edit_batch(
    fixture: &mut Fixture,
    mirror: &mut Mirror,
    request: u64,
    tally: &mut Tally,
) -> bool {
    let Some(edits) = fixture.inputs.edits.get(mirror.next_edit) else {
        return false;
    };
    mirror.next_edit += 1;
    let span = tally.trace.as_mut().map(|t| t.spans.open("engine.apply_edits", None, request));
    let t = Instant::now();
    let outcome = fixture.engine.apply_edits(edits);
    let took = t.elapsed();
    if let (Some(trace), Some(span)) = (tally.trace.as_mut(), span) {
        trace.spans.close(span);
        if let Ok(o) = &outcome {
            let parts: Vec<(&'static str, u64)> = MAINTAIN_SPANS
                .iter()
                .zip(o.phases_us)
                .map(|(&name, us)| (name, us * 1000))
                .collect();
            trace.spans.report(span, &parts);
            trace.routes_dropped += o.routes_dropped;
        }
    }
    tally.edit_batches += 1;
    tally.edit_ms.push(micros(took) / 1e3);
    let mirrored = adapter::apply_reference_edits(&mut mirror.doc, edits);
    if outcome.is_err() || mirrored.is_err() {
        tally.edit_failed += 1;
    }
    true
}

const MAINTAIN_SPANS: [&str; 5] =
    ["maintain.apply", "maintain.freeze", "maintain.coalesce", "maintain.scan", "maintain.patch"];

/// Compares the answers of a batch, node for node, with the reference
/// evaluator on `doc`. Each distinct query of the batch is checked once.
fn check_batch_against(
    doc: &Tree,
    inputs: &Inputs,
    batch: &BatchIn,
    nodes_of: impl Fn(usize) -> Option<Vec<NodeId>>,
) -> (u64, u64) {
    let mut seen = vec![false; inputs.queries.len()];
    let (mut checked, mut wrong) = (0, 0);
    for (i, &q) in batch.ids.iter().enumerate() {
        if std::mem::replace(&mut seen[q as usize], true) {
            continue;
        }
        checked += 1;
        let want = adapter::reference_answer(&inputs.queries[q as usize], doc);
        if nodes_of(i).as_deref() != Some(&want[..]) {
            wrong += 1;
        }
    }
    (checked, wrong)
}

/// An `edit_mix` round: `steps` times one edit batch, then
/// [`READS_PER_STEP`] read batches. One thread, closed loop. Every
/// [`CHECK_EVERY_STEPS`]-th step (counted over the run) the last read
/// batch is checked against the reference at that document version,
/// outside the timed calls.
pub fn step_round(
    spec: &Spec,
    fixture: &mut Fixture,
    mirror: &mut Mirror,
    steps_done: &mut usize,
    trace: Option<Instant>,
) -> Round {
    let mut tally = Tally::new(trace);
    let mut arena = Arena::new();
    let start = Instant::now();
    let mut unchecked = Duration::ZERO;
    for _ in 0..spec.steps_per_round {
        let step = *steps_done;
        if !apply_edit_batch(fixture, mirror, step as u64, &mut tally) {
            break;
        }
        *steps_done += 1;
        let pool = &fixture.inputs.callers[0];
        for r in 0..READS_PER_STEP {
            let batch = &pool[(step * READS_PER_STEP + r) % pool.len()];
            let request = ((step as u64) << 8) | r as u64;
            let out =
                call_in_process(&fixture.engine, batch, &mut arena, None, request, &mut tally);
            if r == 0 {
                if let Some(trace) = tally.trace.as_mut() {
                    trace.after_edit_us.push(*tally.batch_us.last().expect("just pushed"));
                }
            }
            if r + 1 == READS_PER_STEP && steps_done.is_multiple_of(CHECK_EVERY_STEPS) {
                let t = Instant::now();
                let (_, wrong) = check_batch_against(&mirror.doc, &fixture.inputs, batch, |i| {
                    Some(out.nodes(i, &arena).to_vec())
                });
                tally.failed += wrong;
                unchecked += t.elapsed();
            }
        }
    }
    Round { wall: start.elapsed() - unchecked, tally }
}

/// Answers every distinct query once through the workload's transport and
/// compares the nodes with `reference`. Returns (answers checked, wrong).
pub fn verify_all(
    spec: &Spec,
    fixture: &mut Fixture,
    engine: &Engine,
    reference: &[Vec<NodeId>],
) -> (u64, u64) {
    let (mut checked, mut wrong) = (0u64, 0u64);
    let mut arena = Arena::new();
    let ids: Vec<usize> = (0..fixture.inputs.queries.len()).collect();
    for chunk in ids.chunks(spec.batch) {
        let patterns: Vec<Pattern> =
            chunk.iter().map(|&i| fixture.inputs.queries[i].clone()).collect();
        checked += chunk.len() as u64;
        match fixture.clients.first_mut() {
            None => {
                let out = engine.answer_batch(&patterns, &mut arena);
                for (k, &q) in chunk.iter().enumerate() {
                    wrong += u64::from(out.nodes(k, &arena) != &reference[q][..]);
                }
            }
            Some(client) => {
                let out =
                    client.send_queries(TENANT, &patterns).and_then(|id| client.recv_answers(id));
                match out {
                    Ok(out) if out.len() == chunk.len() => {
                        for (k, &q) in chunk.iter().enumerate() {
                            wrong += u64::from(out.nodes(k) != &reference[q][..]);
                        }
                    }
                    _ => wrong += chunk.len() as u64,
                }
            }
        }
    }
    (checked, wrong)
}

pub fn reference_answers(inputs: &Inputs, doc: &Tree) -> Vec<Vec<NodeId>> {
    inputs.queries.iter().map(|q| adapter::reference_answer(q, doc)).collect()
}

// ---------------------------------------------------------------------
// Probes that need a running server
// ---------------------------------------------------------------------

/// Round trips that do no engine work: the floor any request pays.
pub fn rtt_floor_us(fixture: &mut Fixture, samples: usize) -> Vec<f64> {
    let Some(client) = fixture.clients.first_mut() else {
        return Vec::new();
    };
    (0..samples)
        .filter_map(|_| {
            let t = Instant::now();
            client.ping(TENANT).ok().map(|()| micros(t.elapsed()))
        })
        .collect()
}

/// What the paced probe saw, microseconds.
#[derive(Default)]
pub struct Paced {
    /// Answer decoded minus the time the request was **due**.
    pub latency_us: Vec<f64>,
    /// Largest lag of an actual send behind its due time.
    pub late_max_us: f64,
    pub failed: u64,
}

/// Open-loop-style probe: every connection sends one batch each
/// `interval` on a fixed schedule for `duration`, one request in flight.
/// Latency counts from the due time, so a stall charges every request it
/// delays. Not gating: on a shared two-core box the generator itself
/// competes with the server.
pub fn paced_probe(fixture: &mut Fixture, interval: Duration, duration: Duration) -> Paced {
    let inputs = &fixture.inputs;
    let sends = (duration.as_nanos() / interval.as_nanos()) as usize;
    let results: Vec<Paced> = std::thread::scope(|scope| {
        let start = Instant::now() + Duration::from_millis(20);
        let handles: Vec<_> = fixture
            .clients
            .iter_mut()
            .zip(&inputs.callers)
            .enumerate()
            .map(|(c, (client, batches))| {
                scope.spawn(move || {
                    let mut out = Paced::default();
                    // Connections interleave: the second sends half an
                    // interval after the first.
                    let offset = interval / 2 * c as u32;
                    for k in 0..sends {
                        let due = start + offset + interval * k as u32;
                        let now = loop {
                            let now = Instant::now();
                            match due.checked_duration_since(now) {
                                None => break now,
                                Some(wait) if wait > Duration::from_micros(200) => {
                                    std::thread::sleep(wait - Duration::from_micros(150))
                                }
                                Some(_) => std::hint::spin_loop(),
                            }
                        };
                        out.late_max_us = out.late_max_us.max(micros(now - due));
                        let batch = &batches[k % batches.len()];
                        let answered = client
                            .send_queries(TENANT, &batch.patterns)
                            .and_then(|id| client.recv_answers(id));
                        match answered {
                            Ok(_) => out.latency_us.push(micros(due.elapsed())),
                            Err(_) => out.failed += 1,
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("paced thread panicked")).collect()
    });
    let mut all = Paced::default();
    for r in results {
        all.latency_us.extend(r.latency_us);
        all.late_max_us = all.late_max_us.max(r.late_max_us);
        all.failed += r.failed;
    }
    all
}

/// A path for the Unix socket, relative to the working directory when the
/// scratch directory lies below it: socket paths are limited to about a
/// hundred bytes and a checkout can sit deep.
pub fn socket_path(scratch: &Path, n: usize) -> Result<PathBuf, String> {
    let file = format!("s{}-{n}.sock", std::process::id());
    let dir = std::env::current_dir()
        .ok()
        .and_then(|cwd| scratch.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| scratch.to_path_buf());
    let path = dir.join(file);
    if path.as_os_str().len() > 100 {
        return Err(format!("socket path {} is too long for a Unix socket", path.display()));
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::Counter;

    /// A workload cut down to test size (debug builds are slow).
    fn small(name: &str, batches_per_caller: usize) -> Spec {
        Spec { batches_per_caller, doc: DocSize::Small, ..*find(name).expect("workload exists") }
    }

    /// Inside the package's ignored `target/`, like everything a run writes.
    fn scratch() -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-scratch");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn inputs_are_identical_per_seed_and_differ_across_seeds() {
        let spec = small("cold_plan", 8);
        let ids = |inputs: &Inputs| -> Vec<String> {
            inputs
                .callers
                .iter()
                .flatten()
                .flat_map(|b| &b.ids)
                .map(|&i| inputs.specs[i as usize].text.clone())
                .collect()
        };
        let (a, b, c) = (generate(&spec, 3, 1), generate(&spec, 3, 1), generate(&spec, 4, 1));
        assert_eq!(ids(&a), ids(&b));
        assert_ne!(ids(&a), ids(&c));
        assert_eq!(adapter::tree_fingerprint(&a.doc), adapter::tree_fingerprint(&c.doc));
        assert!(a.edits.is_empty(), "only edit_mix edits");
        let mix = small("edit_mix", 4);
        let (d, e, f) = (generate(&mix, 3, 1), generate(&mix, 3, 1), generate(&mix, 4, 1));
        assert_eq!(d.edits.len(), 12 + mix.steps_per_round);
        assert!(d.edits.iter().all(|b| b.len() == EDITS_PER_BATCH));
        assert_eq!(format!("{:?}", d.edits), format!("{:?}", e.edits));
        assert_ne!(format!("{:?}", d.edits), format!("{:?}", f.edits));
    }

    #[test]
    fn cold_plan_takes_every_route_and_never_hits_the_memo() {
        let spec = small("cold_plan", 25);
        let mut fixture = set_up(&spec, 11, 1, Path::new("unused")).expect("set-up");
        let reference = reference_answers(&fixture.inputs, &fixture.inputs.doc);
        let expected_len: Vec<usize> = reference.iter().map(Vec::len).collect();
        let engine = fixture.engine.clone();
        let round = read_round(&spec, spec.transport, &mut fixture, &engine, &expected_len, None);
        assert_eq!(round.tally.answers, (25 * spec.batch) as u64);
        assert_eq!(round.tally.failed, 0);
        let c = engine.counters();
        let queries = c.get(Counter::Queries);
        assert_eq!(queries, round.tally.answers);
        assert_eq!(c.get(Counter::MemoHits), 0, "every cold query is a plan-memo miss");
        assert_eq!(c.get(Counter::DedupHits), 0);
        for route in [Counter::ViewHits, Counter::IntersectHits, Counter::Direct] {
            let share = c.get(route) as f64 / queries as f64;
            assert!(share >= 0.10, "{route:?} takes {share:.2} of the routes");
        }
        // The routes the generator intended are the routes the program took.
        let quota = |i: usize| (queries as usize * gen::CLASS_QUOTA[i] / 100) as u64;
        assert_eq!(c.get(Counter::ViewHits), quota(0));
        assert_eq!(c.get(Counter::IntersectHits), quota(1));
        // And every answer equals the reference, node for node.
        assert_eq!(verify_all(&spec, &mut fixture, &engine, &reference), (queries, 0));
    }

    #[test]
    fn the_length_check_bites() {
        let spec = small("hot_large", 4);
        let mut fixture = set_up(&spec, 5, 1, Path::new("unused")).expect("set-up");
        let reference = reference_answers(&fixture.inputs, &fixture.inputs.doc);
        let mut expected_len: Vec<usize> = reference.iter().map(Vec::len).collect();
        let engine = fixture.engine.clone();
        let good = read_round(&spec, spec.transport, &mut fixture, &engine, &expected_len, None);
        assert_eq!((good.tally.answers, good.tally.failed), ((2 * 4 * spec.batch) as u64, 0));
        assert_eq!(good.tally.batch_us.len(), 8);
        expected_len[0] += 1; // rank 0 is in every Zipf batch
        let bad = read_round(&spec, spec.transport, &mut fixture, &engine, &expected_len, None);
        assert!(bad.tally.failed > 0);
        // Hot streams were warmed in set-up: the round planned nothing.
        assert_eq!(engine.counters().get(Counter::MemoMisses), HOT_QUERIES as u64);
    }

    #[test]
    fn edit_steps_stay_equal_to_the_reference_at_every_version() {
        let spec = Spec { steps_per_round: CHECK_EVERY_STEPS, ..small("edit_mix", 6) };
        let mut fixture = set_up(&spec, 9, 2, Path::new("unused")).expect("set-up");
        let mut mirror = Mirror { doc: fixture.inputs.doc.clone(), next_edit: 0 };
        let mut steps = 0;
        let epoch = Instant::now();
        let round = step_round(&spec, &mut fixture, &mut mirror, &mut steps, Some(epoch));
        assert_eq!(steps, 10);
        assert_eq!(round.tally.edit_batches, 10);
        assert_eq!(round.tally.edit_failed, 0);
        assert_eq!(round.tally.failed, 0, "the step-10 check found wrong answers");
        assert_eq!(round.tally.batch_us.len(), 10 * READS_PER_STEP);
        let trace = round.tally.trace.expect("traced");
        assert_eq!(trace.after_edit_us.len(), 10);
        let by_name = trace.spans.by_name();
        assert_eq!(by_name["engine.apply_edits"].count, 10);
        assert_eq!(by_name["maintain.scan"].count, 10);
        assert!(by_name["engine.apply_edits"].self_ns > 0);
        let engine = fixture.engine.clone();
        let edited = reference_answers(&fixture.inputs, &mirror.doc);
        assert_eq!(verify_all(&spec, &mut fixture, &engine, &edited).1, 0);
        assert_ne!(
            edited,
            reference_answers(&fixture.inputs, &fixture.inputs.doc),
            "the edits changed some answer"
        );
    }

    #[test]
    fn wire_rounds_and_probes_work_over_a_socket() {
        let spec = small("wire_small", 20);
        let socket = socket_path(&scratch(), 0).expect("socket path");
        let mut fixture = set_up(&spec, 2, 1, &socket).expect("set-up");
        let reference = reference_answers(&fixture.inputs, &fixture.inputs.doc);
        let expected_len: Vec<usize> = reference.iter().map(Vec::len).collect();
        let engine = fixture.engine.clone();
        let round = read_round(
            &spec,
            spec.transport,
            &mut fixture,
            &engine,
            &expected_len,
            Some(Instant::now()),
        );
        assert_eq!((round.tally.answers, round.tally.failed), ((2 * 20 * spec.batch) as u64, 0));
        let spans = round.tally.trace.expect("traced").spans.by_name();
        assert_eq!(spans["net.round_trip"].count, 40);
        assert_eq!(spans["net.recv_answers"].count, 40);
        assert_eq!(verify_all(&spec, &mut fixture, &engine, &reference), (HOT_QUERIES as u64, 0));
        assert_eq!(rtt_floor_us(&mut fixture, 10).len(), 10);
        let paced = paced_probe(&mut fixture, Duration::from_millis(2), Duration::from_millis(100));
        assert_eq!((paced.latency_us.len(), paced.failed), (100, 0));
        tear_down(fixture);
        assert!(!socket.exists(), "the drained listener removes its socket");
    }
}
