//! Every call the benchmark makes into the program, in one file.
//!
//! No other module names an `xpv_*` crate: they see the re-exported data
//! types below as opaque values and the wrappers as the program's surface.
//! A rename or a collapsed façade in the program is then a one-file,
//! benchmark-only change. The wrappers use the program **at its shipped
//! defaults**: nothing here touches an ablation switch, the
//! single-threaded cache wrapper or the synchronous server wrapper, so a
//! later change may delete those without editing the benchmark.

use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xpv_core::{PlanningSession, RewritePlanner};
use xpv_engine::{AsyncCacheServer, CacheAnswerRef, Route, ShardedViewCache};
use xpv_model::{AnswerArena, FlatTree};
use xpv_net::{AnswersEncoder, Msg, Response, WireAnswer, WireClient, WireRouteRef};
use xpv_obs::{Histogram, SampleValue, Span};
use xpv_pattern::{parse_xpath, QuerySignature, ViewSignature};
use xpv_semantics::{evaluate, evaluate_flat, ContainmentOracle};
use xpv_workload::{edit_stream_clustered, site_doc, EditLocality, EditMix};

pub use xpv_maintain::Edit;
pub use xpv_model::{NodeId, Tree};
pub use xpv_pattern::Pattern;

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// The auction-site document generator.
pub fn site_document(regions: usize, items_per_region: usize, seed: u64) -> Tree {
    site_doc(regions, items_per_region, seed)
}

/// Parses one of the benchmark's own query or view texts.
pub fn parse_query(text: &str) -> Pattern {
    parse_xpath(text).unwrap_or_else(|e| panic!("benchmark pattern {text:?}: {e}"))
}

pub fn tree_len(t: &Tree) -> usize {
    t.len()
}

/// A content hash of the document (FNV-1a over its canonical key).
#[cfg(test)]
pub fn tree_fingerprint(t: &Tree) -> u64 {
    t.canonical_key()
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// A replayable edit stream over `doc`: mix 50:25:25
/// insert:delete:relabel, 90 % of the edits under 4 hot subtrees.
pub fn clustered_edits(doc: &Tree, count: usize, seed: u64) -> Vec<Edit> {
    edit_stream_clustered(doc, count, EditMix::new(50, 25, 25), EditLocality::new(4, 90), seed)
}

// ---------------------------------------------------------------------
// The reference
// ---------------------------------------------------------------------

/// The correctness oracle: the reference evaluator on the plain tree.
pub fn reference_answer(q: &Pattern, t: &Tree) -> Vec<NodeId> {
    evaluate(q, t)
}

/// Replays an edit batch on the benchmark's own copy of the document, so
/// that the reference can be asked at every document version.
pub fn apply_reference_edits(t: &mut Tree, edits: &[Edit]) -> Result<(), String> {
    xpv_maintain::apply_edits(t, edits).map(|_| ()).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// The caller-owned buffer the engine writes answer nodes into.
#[derive(Debug, Default)]
pub struct Arena(AnswerArena);

impl Arena {
    pub fn new() -> Arena {
        Arena(AnswerArena::new())
    }

    pub fn node_count(&self) -> usize {
        self.0.node_count()
    }
}

/// The answers of one batch; node runs live in the [`Arena`] the call
/// filled.
pub struct Batch(Vec<CacheAnswerRef>);

impl Batch {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn nodes<'a>(&self, i: usize, arena: &'a Arena) -> &'a [NodeId] {
        arena.0.get(self.0[i].nodes)
    }

    pub fn node_len(&self, i: usize) -> usize {
        self.0[i].nodes.len()
    }

    /// Program-reported planning and evaluation time summed over the
    /// batch, and how many positions were actually evaluated (repeats
    /// inside a batch are fanned out with zero timings).
    pub fn reported(&self) -> Reported {
        let mut r = Reported::default();
        for a in &self.0 {
            r.planning += a.planning;
            r.evaluation += a.evaluation;
            r.evaluated += u64::from(!a.evaluation.is_zero() || !a.planning.is_zero());
        }
        r
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Reported {
    pub planning: Duration,
    pub evaluation: Duration,
    pub evaluated: u64,
}

/// What one edit batch did, as the program reports it.
#[derive(Clone, Copy, Debug, Default)]
pub struct EditOutcome {
    pub routes_dropped: u64,
    /// Microseconds per maintenance phase: apply, freeze, coalesce, scan,
    /// patch.
    pub phases_us: [u64; 5],
}

/// A lifetime counter of the engine, its planning session or its
/// maintainer. All are monotone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    Queries,
    ViewHits,
    IntersectHits,
    Direct,
    IntersectRoutes,
    IntersectCandidates,
    SigRejects,
    SigPasses,
    MemoHits,
    MemoMisses,
    DedupHits,
    OracleQueries,
    OracleMemoHits,
    CanonicalRuns,
    MaintainApplyUs,
    MaintainFreezeUs,
    MaintainCoalesceUs,
    MaintainScanUs,
    MaintainPatchUs,
    RegionsScanned,
    RegionsBeforeMerge,
    ScansSaved,
    ViewEditChecks,
    LabelSkips,
}

const COUNTERS: usize = Counter::LabelSkips as usize + 1;

/// A reading of every [`Counter`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters([u64; COUNTERS]);

impl Counters {
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize]
    }

    /// The work between two readings of one engine.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut out = *self;
        for (o, e) in out.0.iter_mut().zip(earlier.0) {
            *o -= e;
        }
        out
    }

    /// Sums readings of different engines (one per round).
    pub fn add(&mut self, other: &Counters) {
        for (s, o) in self.0.iter_mut().zip(other.0) {
            *s += o;
        }
    }
}

/// A phase histogram the engine or the server keeps. The first three are
/// per query or per batch inside the engine, the last three per request
/// on the wire path only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Plan,
    Eval,
    Batch,
    Admission,
    Encode,
    Flush,
}

/// `(count, sum in µs)` of every [`Phase`] histogram. Samples are whole
/// microseconds, truncated.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseSums([(u64, u64); 6]);

impl PhaseSums {
    pub fn get(&self, p: Phase) -> (u64, u64) {
        self.0[p as usize]
    }

    pub fn since(&self, earlier: &PhaseSums) -> PhaseSums {
        let mut out = *self;
        for (o, e) in out.0.iter_mut().zip(earlier.0) {
            *o = (o.0 - e.0, o.1 - e.1);
        }
        out
    }

    pub fn add(&mut self, other: &PhaseSums) {
        for (s, o) in self.0.iter_mut().zip(other.0) {
            *s = (s.0 + o.0, s.1 + o.1);
        }
    }
}

/// The concurrent view cache over one document.
#[derive(Clone)]
pub struct Engine(Arc<ShardedViewCache>);

impl Engine {
    pub fn new(doc: Tree) -> Engine {
        Engine(Arc::new(ShardedViewCache::new(doc)))
    }

    /// Materializes and registers a view; returns its answer count.
    pub fn add_view(&self, name: &str, def: Pattern) -> usize {
        self.0.add_view(name, def)
    }

    pub fn answer_batch(&self, queries: &[Pattern], arena: &mut Arena) -> Batch {
        Batch(self.0.answer_batch_refs(queries, &mut arena.0))
    }

    pub fn apply_edits(&self, edits: &[Edit]) -> Result<EditOutcome, String> {
        let r = self.0.apply_edits(edits).map_err(|e| e.to_string())?;
        let m = r.maintain;
        Ok(EditOutcome {
            routes_dropped: r.routes_dropped,
            phases_us: [m.apply_us, m.freeze_us, m.coalesce_us, m.scan_us, m.patch_us],
        })
    }

    pub fn counters(&self) -> Counters {
        let s = self.0.stats();
        let o = self.0.session().oracle().stats();
        let m = s.maintain;
        let mut c = Counters::default();
        for (counter, value) in [
            (Counter::Queries, s.queries),
            (Counter::ViewHits, s.view_hits),
            (Counter::IntersectHits, s.intersect_hits),
            (Counter::Direct, s.direct),
            (Counter::IntersectRoutes, s.intersect_routes),
            (Counter::IntersectCandidates, s.intersect_candidates_tried),
            (Counter::SigRejects, s.sig_rejects),
            (Counter::SigPasses, s.sig_passes),
            (Counter::MemoHits, s.plan_memo_hits),
            (Counter::MemoMisses, s.plan_memo_misses),
            (Counter::DedupHits, s.batch_dedup_hits),
            (Counter::OracleQueries, o.queries),
            (Counter::OracleMemoHits, o.verdict_memo_hits),
            (Counter::CanonicalRuns, o.canonical_runs),
            (Counter::MaintainApplyUs, m.apply_us),
            (Counter::MaintainFreezeUs, m.freeze_us),
            (Counter::MaintainCoalesceUs, m.coalesce_us),
            (Counter::MaintainScanUs, m.scan_us),
            (Counter::MaintainPatchUs, m.patch_us),
            (Counter::RegionsScanned, m.regions_scanned),
            (Counter::RegionsBeforeMerge, m.regions_before_merge),
            (Counter::ScansSaved, m.scans_saved),
            (Counter::ViewEditChecks, m.view_edit_checks),
            (Counter::LabelSkips, m.label_skips),
        ] {
            c.0[counter as usize] = value;
        }
        c
    }

    pub fn phase_sums(&self) -> PhaseSums {
        let snap = self.0.metrics_snapshot();
        let h = |name: &str| match snap.get(name).map(|s| s.value) {
            Some(SampleValue::Histogram(h)) => (h.count, h.sum),
            _ => (0, 0),
        };
        let mut sums = PhaseSums::default();
        for (phase, name) in [
            (Phase::Plan, "xpv_phase_plan_us"),
            (Phase::Eval, "xpv_phase_eval_us"),
            (Phase::Batch, "xpv_phase_batch_us"),
            (Phase::Admission, "xpv_phase_admission_us"),
            (Phase::Encode, "xpv_phase_encode_us"),
            (Phase::Flush, "xpv_phase_flush_us"),
        ] {
            sums.0[phase as usize] = h(name);
        }
        sums
    }
}

// ---------------------------------------------------------------------
// The server and its clients
// ---------------------------------------------------------------------

/// The asynchronous server on a Unix-domain socket, default
/// observability configuration (sampler and watchdog running).
pub struct Server {
    server: AsyncCacheServer,
    path: PathBuf,
}

impl Server {
    pub fn start(engine: &Engine, workers: usize, socket: &Path) -> io::Result<Server> {
        let _ = std::fs::remove_file(socket);
        let server = AsyncCacheServer::start(Arc::clone(&engine.0), workers);
        let path = server.listen_unix(socket)?;
        Ok(Server { server, path })
    }

    pub fn connect(&self) -> io::Result<Client> {
        WireClient::connect_unix(&self.path).map(Client)
    }

    /// Graceful drain; the listener unlinks its socket file.
    pub fn shutdown(self) {
        self.server.shutdown();
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The decoded answers of one batch.
pub struct WireBatch(Vec<WireAnswer>);

impl WireBatch {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn nodes(&self, i: usize) -> &[NodeId] {
        &self.0[i].nodes
    }
}

/// A blocking protocol client on one connection.
pub struct Client(WireClient);

impl Client {
    /// Sends a batch without waiting for its answers; returns the id.
    pub fn send_queries(&mut self, tenant: &str, queries: &[Pattern]) -> Result<u64, String> {
        self.0.send_queries(tenant, queries).map_err(|e| format!("transport: {e}"))
    }

    /// Waits for the answers to request `id`, decoded. A rejection, an
    /// unexpected frame and a transport error are all failures.
    pub fn recv_answers(&mut self, id: u64) -> Result<WireBatch, String> {
        match self.0.recv_for(id) {
            Ok(Response::Answers { answers, .. }) => Ok(WireBatch(answers)),
            Ok(Response::Rejected { reason, .. }) => Err(format!("rejected: {reason}")),
            Ok(other) => Err(format!("unexpected response to request {}", other.id())),
            Err(e) => Err(format!("transport: {e}")),
        }
    }

    /// The cheapest request the protocol has: a tenant-counter read the
    /// connection reader answers itself, with no engine work.
    pub fn ping(&mut self, tenant: &str) -> Result<(), String> {
        self.0.tenant_stats(tenant).map(|_| ()).map_err(|e| format!("transport: {e}"))
    }

    pub fn goodbye(self) {
        let _ = self.0.goodbye();
    }
}

// ---------------------------------------------------------------------
// Standalone probes of single layers (the `--trace` pass only)
// ---------------------------------------------------------------------

/// Times `f` over `reps` repetitions and returns nanoseconds per call.
fn per_call_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_nanos() as f64 / reps.max(1) as f64
}

/// `xpv-pattern`: microseconds to parse one query text.
pub fn probe_parse_us(texts: &[&str], reps: usize) -> f64 {
    per_call_ns(reps, || {
        for t in texts {
            black_box(parse_xpath(black_box(t)).expect("parses"));
        }
    }) / 1e3
        / texts.len().max(1) as f64
}

/// The (query, view) index pairs the signature filter lets through.
pub fn signature_passes(queries: &[Pattern], views: &[Pattern]) -> Vec<(usize, usize)> {
    let sigs: Vec<ViewSignature> = views.iter().map(ViewSignature::of).collect();
    let mut out = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let qs = QuerySignature::of(q);
        out.extend(sigs.iter().enumerate().filter(|(_, s)| qs.admits(s)).map(|(j, _)| (i, j)));
    }
    out
}

/// `xpv-pattern`: microseconds per (query, view) pair for computing the
/// query signature once and checking it against every view signature.
pub fn probe_signature_us(queries: &[Pattern], views: &[Pattern], reps: usize) -> f64 {
    let sigs: Vec<ViewSignature> = views.iter().map(ViewSignature::of).collect();
    per_call_ns(reps, || {
        for q in queries {
            let qs = QuerySignature::of(black_box(q));
            for s in &sigs {
                black_box(qs.admits(black_box(s)));
            }
        }
    }) / 1e3
        / (queries.len() * views.len()).max(1) as f64
}

/// `xpv-semantics`: microseconds per containment decision on the given
/// pairs, each repetition on a fresh oracle (no memo carried over).
pub fn probe_containment_us(
    queries: &[Pattern],
    views: &[Pattern],
    pairs: &[(usize, usize)],
    reps: usize,
) -> f64 {
    per_call_ns(reps, || {
        let oracle = ContainmentOracle::new();
        for &(q, v) in pairs {
            black_box(oracle.contained(&queries[q], &views[v]));
        }
    }) / 1e3
        / pairs.len().max(1) as f64
}

/// `xpv-core`: microseconds per rewriting decision on the given pairs,
/// each repetition on a fresh planning session.
pub fn probe_decide_us(
    queries: &[Pattern],
    views: &[Pattern],
    pairs: &[(usize, usize)],
    reps: usize,
) -> f64 {
    per_call_ns(reps, || {
        let session = PlanningSession::new(RewritePlanner::default());
        for &(q, v) in pairs {
            black_box(session.decide(&queries[q], &views[v]));
        }
    }) / 1e3
        / pairs.len().max(1) as f64
}

/// `xpv-model`: microseconds to freeze the document into its flat form,
/// and to clone it.
pub fn probe_freeze_and_clone_us(doc: &Tree, reps: usize) -> (f64, f64) {
    let freeze = per_call_ns(reps, || {
        black_box(FlatTree::freeze(black_box(doc)));
    });
    let clone = per_call_ns(reps, || {
        black_box(black_box(doc).clone());
    });
    (freeze / 1e3, clone / 1e3)
}

/// `xpv-semantics`: microseconds per query for the flat evaluator on a
/// frozen copy of the document, one query at a time.
pub fn probe_eval_flat_us(queries: &[Pattern], doc: &Tree, reps: usize) -> f64 {
    let flat = FlatTree::freeze(doc);
    per_call_ns(reps, || {
        for q in queries {
            black_box(evaluate_flat(black_box(q), &flat));
        }
    }) / 1e3
        / queries.len().max(1) as f64
}

/// `xpv-net`: microseconds to encode, and to decode, one query frame.
pub fn probe_query_frame_us(batches: &[Vec<Pattern>], reps: usize) -> (f64, f64) {
    let msgs: Vec<Msg> = batches
        .iter()
        .enumerate()
        .map(|(i, b)| Msg::QueryBatch { id: i as u64, tenant: "probe".into(), queries: b.clone() })
        .collect();
    let bodies: Vec<Vec<u8>> = msgs.iter().map(Msg::encode).collect();
    let encode = per_call_ns(reps, || {
        for m in &msgs {
            black_box(black_box(m).encode());
        }
    });
    let decode = per_call_ns(reps, || {
        for b in &bodies {
            black_box(Msg::decode(black_box(b)).expect("decodes"));
        }
    });
    let n = batches.len().max(1) as f64;
    (encode / 1e3 / n, decode / 1e3 / n)
}

/// `xpv-net`: microseconds to encode one answers frame from the engine's
/// own answers, microseconds to decode it, and its bytes per query.
pub fn probe_answer_frame(
    engine: &Engine,
    batches: &[Vec<Pattern>],
    reps: usize,
) -> (f64, f64, f64) {
    let mut encode_ns = 0.0;
    let mut decode_ns = 0.0;
    let mut bytes = 0usize;
    let mut queries = 0usize;
    let mut arena = Arena::new();
    for batch in batches {
        let answers = engine.answer_batch(batch, &mut arena);
        let encode_once = || {
            let mut enc = AnswersEncoder::new(1);
            for a in &answers.0 {
                let route = match &*a.route {
                    Route::Direct => WireRouteRef::Direct,
                    Route::ViaView { view, rewriting } => WireRouteRef::ViaView { view, rewriting },
                    Route::Intersect { views, compensation } => {
                        WireRouteRef::Intersect { views, compensation }
                    }
                };
                enc.answer(route, arena.0.get(a.nodes));
            }
            enc.finish()
        };
        let body = encode_once();
        bytes += body.len();
        queries += batch.len();
        encode_ns += per_call_ns(reps, || {
            black_box(encode_once());
        });
        decode_ns += per_call_ns(reps, || {
            black_box(Msg::decode(black_box(&body)).expect("decodes"));
        });
    }
    let n = batches.len().max(1) as f64;
    (encode_ns / 1e3 / n, decode_ns / 1e3 / n, bytes as f64 / queries.max(1) as f64)
}

/// `xpv-obs`: nanoseconds for a disabled span's begin + finish (sampling
/// switched off for the probe and restored), nanoseconds per histogram
/// record, microseconds per metrics snapshot of `engine`.
pub fn probe_obs(engine: &Engine, reps: usize) -> (f64, f64, f64) {
    let sampling = xpv_obs::trace_sampling();
    xpv_obs::set_trace_sampling(0);
    let span = per_call_ns(reps * 1000, || {
        black_box(Span::begin("probe")).finish();
    });
    xpv_obs::set_trace_sampling(sampling);
    let h = Histogram::new();
    let mut v = 1u64;
    let record = per_call_ns(reps * 1000, || {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        h.record(black_box(v >> 44));
    });
    let snapshot = per_call_ns(reps.max(8), || {
        black_box(engine.0.metrics_snapshot());
    });
    (span, record, snapshot / 1e3)
}
