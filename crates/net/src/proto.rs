//! The xpv wire protocol: message types and their binary codec.
//!
//! See the crate docs ([`crate`]) for the full protocol specification —
//! handshake, frame grammar, credit semantics, and the drain sequence.
//! This module is the mechanical part: [`Msg`] ⇄ frame-body bytes.
//!
//! Patterns travel as the fragment's XPath text (`parse_xpath ∘ to_xpath`
//! is the identity on patterns — property-tested in `xpv-pattern`), and
//! edit subtrees travel as the model's XML serialization, so the protocol
//! has no bespoke tree encoding to keep in sync with the model crate.
//!
//! There is one decoder, [`Msg::decode_with`], which turns each query text
//! into a pattern with the parser it is given; [`Msg::decode`] passes
//! [`parse_xpath`]. A server passes its worker's
//! [`xpv_pattern::TextCache`], so it parses each distinct text once per
//! worker, not once per frame; clients and tests call [`Msg::decode`].
//!
//! A message carries the types the engine and the observability layer
//! use, not copies of them: a served answer reports its [`Route`], a
//! `StatsResp` a [`TenantStats`], a `StatsV2Resp` an `xpv-obs`
//! [`MetricsSnapshot`], and a `DebugDumpResp` that snapshot with the
//! watchdog's [`Alert`]s and the drained [`TraceEvent`]s.

use std::collections::hash_map::{Entry, HashMap};

use xpv_maintain::Edit;
use xpv_model::{parse_xml, to_xml, AnswerArena, AnswerRef, Label, NodeId};
use xpv_obs::{Alert, HistogramSummary, MetricsSnapshot, Phase, Sample, SampleValue, TraceEvent};
use xpv_pattern::{parse_xpath, ParseError, Pattern};

use crate::frame::{DecodeError, Decoder, Encoder};

/// Handshake magic ("XPVW", little-endian).
pub const MAGIC: u32 = 0x5756_5058;

/// Protocol version this build speaks. Version 2 dropped the
/// `views_refreshed` field of `EditAck`; version 3 gave each answer of an
/// `Answers` frame a kind: list, span or repeat; version 4 retired the
/// history frames (`0x34`/`0x35`), dropped the dump's interval and series,
/// and dropped `views_refreshed_incrementally` from `StatsResp`; version 5
/// dropped the admission-wait counter from `StatsResp`.
pub const VERSION: u16 = 5;

/// Frame type tags (first body byte).
mod tag {
    pub const HELLO: u8 = 0x01;
    pub const HELLO_ACK: u8 = 0x02;
    pub const QUERY_BATCH: u8 = 0x10;
    pub const ANSWERS: u8 = 0x11;
    pub const EDIT_BATCH: u8 = 0x20;
    pub const EDIT_ACK: u8 = 0x21;
    pub const STATS_REQ: u8 = 0x30;
    pub const STATS_RESP: u8 = 0x31;
    pub const STATS2_REQ: u8 = 0x32;
    pub const STATS2_RESP: u8 = 0x33;
    pub const DUMP_REQ: u8 = 0x36;
    pub const DUMP_RESP: u8 = 0x37;
    pub const REJECTED: u8 = 0x40;
    pub const GOODBYE: u8 = 0x50;
    pub const SERVER_BYE: u8 = 0x51;
    pub const ERROR: u8 = 0x7F;
}

/// How a query was answered: the engine reports it with each answer, and
/// each answer of an [`Msg::Answers`] frame carries it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Route {
    /// Answered from the named view through the given rewriting.
    ViaView {
        /// Name of the view used.
        view: String,
        /// The rewriting `R` that was applied to the view result.
        rewriting: String,
    },
    /// Answered from the node-set **intersection** of several views through
    /// a compensation pattern (no single view sufficed).
    Intersect {
        /// Names of the participating views, in pool order.
        views: Vec<String>,
        /// The compensation applied to the intersection.
        compensation: String,
    },
    /// Answered by evaluating the query directly on the document.
    Direct,
}

impl Route {
    /// The borrowed view of this route, for encoding without cloning.
    pub fn as_ref(&self) -> WireRouteRef<'_> {
        match self {
            Route::Direct => WireRouteRef::Direct,
            Route::ViaView { view, rewriting } => WireRouteRef::ViaView { view, rewriting },
            Route::Intersect { views, compensation } => {
                WireRouteRef::Intersect { views, compensation }
            }
        }
    }
}

/// [`Route`] by reference: what [`AnswersEncoder`] consumes, so a server
/// can serialize provenance it already owns (the engine's route strings)
/// without cloning them.
#[derive(Clone, Copy, Debug)]
pub enum WireRouteRef<'a> {
    /// Direct evaluation on the document.
    Direct,
    /// An equivalent rewriting over one view.
    ViaView { view: &'a str, rewriting: &'a str },
    /// A compensation over a multi-view intersection.
    Intersect { views: &'a [String], compensation: &'a str },
}

/// One query's answer on the wire: output nodes (raw `NodeId` values in
/// the server's document) plus provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireAnswer {
    pub nodes: Vec<NodeId>,
    pub route: Route,
}

/// Streams an [`Msg::Answers`] frame body straight into its final byte
/// buffer: the answer count is reserved up front and patched on
/// [`AnswersEncoder::finish`], and each answer is written directly from
/// the engine's answer set (or any ascending slice) — no intermediate
/// [`WireAnswer`] vectors, no route-string clones.
///
/// Each answer goes out as the smaller of its id list and its word span
/// (the size rule in the crate docs), chosen from the set alone. An answer
/// written through [`AnswersEncoder::answer_ref`] whose [`AnswerRef`] was
/// already written in this frame — a query the engine fanned out — goes
/// out as a 5-byte back-reference to it. Without such repeats the bytes
/// are identical to `Msg::Answers { .. }.encode()` for the same content.
#[derive(Debug)]
pub struct AnswersEncoder {
    e: Encoder,
    count_pos: usize,
    count: u32,
    /// Ids the frame decodes to, repeats included.
    nodes: usize,
    /// Each ref written by [`AnswersEncoder::answer_ref`], with its
    /// position in the frame.
    written: HashMap<AnswerRef, u32>,
}

impl AnswersEncoder {
    /// Starts the Answers frame for batch `id`.
    pub fn new(id: u64) -> AnswersEncoder {
        let mut e = Encoder::new();
        e.u8(tag::ANSWERS).u64(id);
        let count_pos = e.position();
        e.u32(0); // answer count, patched in finish()
        AnswersEncoder { e, count_pos, count: 0, nodes: 0, written: HashMap::new() }
    }

    /// Appends one answer: provenance plus its output nodes, in ascending
    /// order. A slice that is not strictly ascending is sent as a list.
    pub fn answer(&mut self, route: WireRouteRef<'_>, nodes: &[NodeId]) -> &mut Self {
        encode_route_ref(&mut self.e, route);
        encode_nodes(&mut self.e, nodes);
        self.count += 1;
        self.nodes += nodes.len();
        self
    }

    /// Appends one answer straight from its set in `arena`: a span copies
    /// the set's words, a list streams its ids, and a ref already written
    /// in this frame becomes a repeat of that answer.
    pub fn answer_ref(
        &mut self,
        route: WireRouteRef<'_>,
        arena: &AnswerArena,
        r: AnswerRef,
    ) -> &mut Self {
        encode_route_ref(&mut self.e, route);
        match self.written.entry(r) {
            Entry::Occupied(first) => {
                self.e.u8(ANSWER_REPEAT).u32(*first.get());
            }
            Entry::Vacant(slot) => {
                slot.insert(self.count);
                let words = arena.set(r).words();
                let lo = words.iter().position(|&w| w != 0).unwrap_or(0);
                let end = words.iter().rposition(|&w| w != 0).map_or(lo, |hi| hi + 1);
                if span_is_smaller(r.len(), end - lo) {
                    encode_span_header(&mut self.e, r.len(), lo, end - lo);
                    self.e.u64s(&words[lo..end]);
                } else {
                    encode_list(&mut self.e, arena.nodes(r).map(|n| n.0));
                }
            }
        }
        self.count += 1;
        self.nodes += r.len();
        self
    }

    /// Bytes encoded so far (the frame-body size if finished now) —
    /// lets a server check `MAX_FRAME` before enqueuing.
    pub fn byte_len(&self) -> usize {
        self.e.position()
    }

    /// Node ids the frame decodes to, every repeat counted — lets a server
    /// check [`MAX_ANSWER_NODES`] before enqueuing.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Patches the answer count and returns the finished frame body.
    pub fn finish(mut self) -> Vec<u8> {
        self.e.patch_u32(self.count_pos, self.count);
        self.e.finish()
    }
}

/// Answer kinds: the byte after each answer's route in an
/// [`Msg::Answers`] frame.
const ANSWER_LIST: u8 = 0;
const ANSWER_SPAN: u8 = 1;
const ANSWER_REPEAT: u8 = 2;

/// One past the last 64-bit word of the `u32` id space: no span reaches
/// beyond it.
const SPAN_WORD_LIMIT: u64 = 1 << 26;

/// Most node ids one [`Msg::Answers`] frame may decode to, repeats
/// included (64 MiB of ids). Spans and repeats let a small frame stand
/// for many ids; a frame past this bound is a decode error, and a server
/// sends `Rejected` instead of building one. A frame of node lists alone
/// stays below it (`MAX_FRAME` / 4 ids).
pub const MAX_ANSWER_NODES: usize = 1 << 24;

/// The size rule: `count` ids whose first and last lie `words` words apart
/// (inclusive) are smaller as a span — `count, first_word, words` and the
/// words — than as a list — the ids.
fn span_is_smaller(count: usize, words: usize) -> bool {
    8 + 8 * words < 4 * count
}

fn encode_list(e: &mut Encoder, ids: impl ExactSizeIterator<Item = u32>) {
    e.u8(ANSWER_LIST).u32(ids.len() as u32).u32s(ids);
}

fn encode_span_header(e: &mut Encoder, count: usize, first_word: usize, words: usize) {
    e.u8(ANSWER_SPAN).u32(count as u32).u32(first_word as u32).u32(words as u32);
}

/// One answer's nodes, as a list or, when strictly ascending and smaller
/// so, as a span built bit by bit in place: bit `i` of a little-endian
/// word is bit `i % 8` of its byte `i / 8`.
fn encode_nodes(e: &mut Encoder, nodes: &[NodeId]) {
    if let (Some(first), Some(last)) = (nodes.first(), nodes.last()) {
        let lo = first.index() / 64;
        let words = (last.index() / 64).saturating_sub(lo) + 1;
        if span_is_smaller(nodes.len(), words) && nodes.windows(2).all(|w| w[0] < w[1]) {
            encode_span_header(e, nodes.len(), lo, words);
            let bytes = e.zeroed(8 * words);
            for n in nodes {
                let i = n.index() - 64 * lo;
                bytes[i / 8] |= 1 << (i % 8);
            }
            return;
        }
    }
    encode_list(e, nodes.iter().map(|n| n.0));
}

/// One answer's nodes (the bytes after its route). `earlier` are the
/// frame's answers so far, which a repeat may name; `budget` is what is
/// left of [`MAX_ANSWER_NODES`].
fn decode_nodes(
    d: &mut Decoder<'_>,
    earlier: &[WireAnswer],
    budget: &mut usize,
) -> Result<Vec<NodeId>, DecodeError> {
    let mut spend = |n: usize| {
        *budget = budget.checked_sub(n).ok_or_else(|| {
            DecodeError(format!("answers decode to more than {MAX_ANSWER_NODES} node ids"))
        })?;
        Ok::<_, DecodeError>(())
    };
    match d.u8()? {
        ANSWER_LIST => {
            let count = d.u32()? as usize;
            let bytes = d.bytes(count.saturating_mul(4))?;
            spend(count)?;
            let mut nodes = Vec::with_capacity(count.min(65536));
            let id = |b: &[u8]| NodeId(u32::from_le_bytes(b.try_into().expect("4 bytes")));
            nodes.extend(bytes.chunks_exact(4).map(id));
            Ok(nodes)
        }
        ANSWER_SPAN => {
            let count = d.u32()? as usize;
            let (first_word, words) = (d.u32()?, d.u32()?);
            if u64::from(first_word) + u64::from(words) > SPAN_WORD_LIMIT {
                return Err(DecodeError(format!(
                    "span of {words} words from word {first_word} leaves the u32 id space"
                )));
            }
            // Below the limit, `8 * words` and every id fit their types.
            let bytes = d.bytes(8 * words as usize)?;
            let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
            let members: usize = bytes.chunks_exact(8).map(|b| word(b).count_ones() as usize).sum();
            if members != count {
                return Err(DecodeError(format!("span holds {members} ids but claims {count}")));
            }
            spend(count)?;
            let mut nodes = Vec::with_capacity(count);
            for (i, b) in bytes.chunks_exact(8).enumerate() {
                let (mut bits, base) = (word(b), (first_word + i as u32) * 64);
                while bits != 0 {
                    nodes.push(NodeId(base + bits.trailing_zeros()));
                    bits &= bits - 1;
                }
            }
            Ok(nodes)
        }
        ANSWER_REPEAT => {
            let of = d.u32()? as usize;
            let Some(first) = earlier.get(of) else {
                return Err(DecodeError(format!(
                    "answer {} repeats answer {of}, which is not an earlier one",
                    earlier.len()
                )));
            };
            spend(first.nodes.len())?;
            Ok(first.nodes.clone())
        }
        other => Err(DecodeError(format!("unknown answer kind {other}"))),
    }
}

/// What an [`Msg::EditAck`] reports (the wire form of `UpdateReport`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireUpdateReport {
    pub edits_applied: u64,
    /// Document version **after** the batch — the client's consistency
    /// check: acks from one connection arrive with strictly increasing
    /// versions, and version `v` means exactly `v` update batches precede
    /// every answer computed at `v`.
    pub doc_version: u64,
    pub views_changed: u64,
    pub routes_dropped: u64,
}

/// One tenant's serving counters: what a server accounts per tenant and
/// what a `StatsResp` carries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Batches answered for this tenant.
    pub batches: u64,
    /// Individual queries answered (sum of batch lengths).
    pub queries: u64,
    /// Queries answered from a view through an equivalent rewriting.
    pub view_hits: u64,
    /// Queries answered from a multi-view intersection.
    pub intersect_hits: u64,
    /// Queries answered by direct evaluation.
    pub direct: u64,
    /// Document edits this tenant applied through the server.
    pub updates_applied: u64,
}

impl TenantStats {
    /// The canonical counter enumeration: one `(name, value)` pair per
    /// field, in declaration order. A server exposes these under
    /// `xpv_tenant_*{tenant="id"}`, and `Display` renders the same list —
    /// one naming authority, so the rendered line and the exposition can
    /// never drift (see the `xpv-obs` crate docs).
    pub fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
        f("batches", self.batches);
        f("queries", self.queries);
        f("view_hits", self.view_hits);
        f("intersect_hits", self.intersect_hits);
        f("direct", self.direct);
        f("updates_applied", self.updates_applied);
    }
}

impl std::fmt::Display for TenantStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        xpv_obs::write_kv_line(f, |emit| self.visit(emit))
    }
}

/// The flight-recorder artifact a [`Msg::DebugDumpResp`] carries: one
/// structured bundle of everything an operator needs after an incident —
/// the live metrics snapshot, the watchdog alerts, the drained trace
/// spans, and the knob/config state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireDump {
    /// The full metrics snapshot at dump time (as a `StatsV2Resp` would
    /// carry).
    pub metrics: MetricsSnapshot,
    /// Every watchdog rule's state.
    pub alerts: Vec<Alert>,
    /// Trace spans drained from the server's rings at dump time. Note
    /// that draining is destructive server-side: the spans move into
    /// this dump.
    pub traces: Vec<TraceEvent>,
    /// Free-form `(key, value)` config/knob pairs (sampling rate, rule
    /// roster, window sizes, …).
    pub config: Vec<(String, String)>,
}

/// One protocol message (a decoded frame body).
#[derive(Clone, Debug)]
pub enum Msg {
    /// Client → server, first frame: magic + the highest version the
    /// client speaks.
    Hello { version: u16 },
    /// Server → client: the agreed version plus this connection's credit
    /// window (max unacknowledged batches).
    HelloAck { version: u16, window: u32 },
    /// Client → server: answer `queries` for `tenant`. Costs one credit.
    QueryBatch { id: u64, tenant: String, queries: Vec<Pattern> },
    /// Server → client: the answers for batch `id`, input order. Returns
    /// the credit.
    Answers { id: u64, answers: Vec<WireAnswer> },
    /// Client → server: apply `edits` for `tenant`. Costs one credit.
    EditBatch { id: u64, tenant: String, edits: Vec<Edit> },
    /// Server → client: edit batch `id` applied. Returns the credit.
    EditAck { id: u64, report: WireUpdateReport },
    /// Client → server: request `tenant`'s counters. Costs one credit.
    StatsReq { id: u64, tenant: String },
    /// Server → client: the counters (`found == false` ⇒ zeroed stats for
    /// a tenant the server has not seen). Returns the credit.
    StatsResp { id: u64, found: bool, stats: TenantStats },
    /// Client → server: request the **whole server's** metrics snapshot —
    /// every family (oracle, cache, per-tenant, maintain, net, server),
    /// not one tenant's counters. Costs one credit.
    StatsV2Req { id: u64 },
    /// Server → client: the metrics snapshot, sorted by (name, labels).
    /// Returns the credit.
    StatsV2Resp { id: u64, metrics: MetricsSnapshot },
    /// Client → server: request a flight-recorder dump. **Drains the
    /// server's trace rings** into the response. Costs one credit.
    DebugDumpReq { id: u64 },
    /// Server → client: the flight-recorder artifact. Forward-tolerant
    /// like [`Msg::StatsV2Resp`]: samples of unknown kinds are skipped by
    /// old decoders, not errors. Returns the credit.
    DebugDumpResp { id: u64, dump: WireDump },
    /// Server → client: request `id` was not served (drain, bad edit, …).
    /// Returns the credit.
    Rejected { id: u64, reason: String },
    /// Client → server: clean half-close; the server answers everything
    /// in flight, replies [`Msg::ServerBye`], and closes.
    Goodbye,
    /// Server → client: no more responses will follow.
    ServerBye,
    /// Fatal protocol error; the connection closes after this frame.
    Error { message: String },
}

impl Msg {
    /// Encodes into a frame body (type byte first).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            Msg::Hello { version } => {
                e.u8(tag::HELLO).u32(MAGIC).u16(*version);
            }
            Msg::HelloAck { version, window } => {
                e.u8(tag::HELLO_ACK).u16(*version).u32(*window);
            }
            Msg::QueryBatch { id, tenant, queries } => {
                e.u8(tag::QUERY_BATCH).u64(*id).str(tenant).u32(queries.len() as u32);
                for q in queries {
                    e.str(&q.to_string());
                }
            }
            Msg::Answers { id, answers } => {
                e.u8(tag::ANSWERS).u64(*id).u32(answers.len() as u32);
                for a in answers {
                    encode_route(&mut e, &a.route);
                    encode_nodes(&mut e, &a.nodes);
                }
            }
            Msg::EditBatch { id, tenant, edits } => {
                e.u8(tag::EDIT_BATCH).u64(*id).str(tenant).u32(edits.len() as u32);
                for edit in edits {
                    encode_edit(&mut e, edit);
                }
            }
            Msg::EditAck { id, report } => {
                e.u8(tag::EDIT_ACK)
                    .u64(*id)
                    .u64(report.edits_applied)
                    .u64(report.doc_version)
                    .u64(report.views_changed)
                    .u64(report.routes_dropped);
            }
            Msg::StatsReq { id, tenant } => {
                e.u8(tag::STATS_REQ).u64(*id).str(tenant);
            }
            Msg::StatsResp { id, found, stats } => {
                e.u8(tag::STATS_RESP)
                    .u64(*id)
                    .u8(u8::from(*found))
                    .u64(stats.batches)
                    .u64(stats.queries)
                    .u64(stats.view_hits)
                    .u64(stats.intersect_hits)
                    .u64(stats.direct)
                    .u64(stats.updates_applied);
            }
            Msg::StatsV2Req { id } => {
                e.u8(tag::STATS2_REQ).u64(*id);
            }
            Msg::StatsV2Resp { id, metrics } => {
                e.u8(tag::STATS2_RESP).u64(*id);
                encode_metric_list(&mut e, metrics);
            }
            Msg::DebugDumpReq { id } => {
                e.u8(tag::DUMP_REQ).u64(*id);
            }
            Msg::DebugDumpResp { id, dump } => {
                e.u8(tag::DUMP_RESP).u64(*id);
                encode_metric_list(&mut e, &dump.metrics);
                e.u32(dump.alerts.len() as u32);
                for a in &dump.alerts {
                    e.str(&a.name)
                        .str(&a.kind)
                        .u8(u8::from(a.firing))
                        .u64(a.since_tick)
                        .u64(a.fired_total)
                        .str(&a.detail);
                }
                e.u32(dump.traces.len() as u32);
                for t in &dump.traces {
                    e.str(&t.kind).u64(t.total_us).u32(t.phases.len() as u32);
                    for (phase, us) in &t.phases {
                        e.str(phase.as_str()).u64(*us);
                    }
                }
                e.u32(dump.config.len() as u32);
                for (k, v) in &dump.config {
                    e.str(k).str(v);
                }
            }
            Msg::Rejected { id, reason } => {
                e.u8(tag::REJECTED).u64(*id).str(reason);
            }
            Msg::Goodbye => {
                e.u8(tag::GOODBYE);
            }
            Msg::ServerBye => {
                e.u8(tag::SERVER_BYE);
            }
            Msg::Error { message } => {
                e.u8(tag::ERROR).str(message);
            }
        }
        e.finish()
    }

    /// Decodes a frame body. Every byte must be consumed.
    pub fn decode(body: &[u8]) -> Result<Msg, DecodeError> {
        Msg::decode_with(body, parse_xpath)
    }

    /// [`Msg::decode`], with each query text of a `QueryBatch` turned into
    /// its pattern by `parse` instead of [`parse_xpath`]: a server passes
    /// its worker's [`xpv_pattern::TextCache`], so a text it has seen is
    /// not parsed again. `parse` must answer as [`parse_xpath`] does.
    pub fn decode_with(
        body: &[u8],
        mut parse: impl FnMut(&str) -> Result<Pattern, ParseError>,
    ) -> Result<Msg, DecodeError> {
        let mut d = Decoder::new(body);
        let msg = match d.u8()? {
            tag::HELLO => {
                let magic = d.u32()?;
                if magic != MAGIC {
                    return Err(DecodeError(format!(
                        "bad handshake magic {magic:#010x} (expected {MAGIC:#010x})"
                    )));
                }
                Msg::Hello { version: d.u16()? }
            }
            tag::HELLO_ACK => Msg::HelloAck { version: d.u16()?, window: d.u32()? },
            tag::QUERY_BATCH => {
                let id = d.u64()?;
                let tenant = d.str()?;
                let n = d.u32()? as usize;
                let mut queries = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let text = d.str_ref()?;
                    queries.push(
                        parse(text).map_err(|e| DecodeError(format!("query {text:?}: {e}")))?,
                    );
                }
                Msg::QueryBatch { id, tenant, queries }
            }
            tag::ANSWERS => {
                let id = d.u64()?;
                let n = d.u32()? as usize;
                let mut answers = Vec::with_capacity(n.min(4096));
                let mut budget = MAX_ANSWER_NODES;
                for _ in 0..n {
                    let route = decode_route(&mut d)?;
                    let nodes = decode_nodes(&mut d, &answers, &mut budget)?;
                    answers.push(WireAnswer { nodes, route });
                }
                Msg::Answers { id, answers }
            }
            tag::EDIT_BATCH => {
                let id = d.u64()?;
                let tenant = d.str()?;
                let n = d.u32()? as usize;
                let mut edits = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    edits.push(decode_edit(&mut d)?);
                }
                Msg::EditBatch { id, tenant, edits }
            }
            tag::EDIT_ACK => Msg::EditAck {
                id: d.u64()?,
                report: WireUpdateReport {
                    edits_applied: d.u64()?,
                    doc_version: d.u64()?,
                    views_changed: d.u64()?,
                    routes_dropped: d.u64()?,
                },
            },
            tag::STATS_REQ => Msg::StatsReq { id: d.u64()?, tenant: d.str()? },
            tag::STATS_RESP => Msg::StatsResp {
                id: d.u64()?,
                found: d.u8()? != 0,
                stats: TenantStats {
                    batches: d.u64()?,
                    queries: d.u64()?,
                    view_hits: d.u64()?,
                    intersect_hits: d.u64()?,
                    direct: d.u64()?,
                    updates_applied: d.u64()?,
                },
            },
            tag::STATS2_REQ => Msg::StatsV2Req { id: d.u64()? },
            tag::STATS2_RESP => {
                let id = d.u64()?;
                Msg::StatsV2Resp { id, metrics: decode_metric_list(&mut d)? }
            }
            tag::DUMP_REQ => Msg::DebugDumpReq { id: d.u64()? },
            tag::DUMP_RESP => {
                let id = d.u64()?;
                let metrics = decode_metric_list(&mut d)?;
                let alerts_n = d.u32()? as usize;
                let mut alerts = Vec::with_capacity(alerts_n.min(256));
                for _ in 0..alerts_n {
                    alerts.push(Alert {
                        name: d.str()?,
                        kind: d.str()?,
                        firing: d.u8()? != 0,
                        since_tick: d.u64()?,
                        fired_total: d.u64()?,
                        detail: d.str()?,
                    });
                }
                let traces_n = d.u32()? as usize;
                let mut traces = Vec::with_capacity(traces_n.min(4096));
                for _ in 0..traces_n {
                    let kind = d.str()?;
                    let total_us = d.u64()?;
                    let phases_n = d.u32()? as usize;
                    let mut phases = Vec::with_capacity(phases_n.min(64));
                    for _ in 0..phases_n {
                        let name = d.str_ref()?;
                        let Some(phase) = Phase::from_name(name) else {
                            return Err(DecodeError(format!("unknown trace phase {name:?}")));
                        };
                        phases.push((phase, d.u64()?));
                    }
                    traces.push(TraceEvent { kind, total_us, phases });
                }
                let config_n = d.u32()? as usize;
                let mut config = Vec::with_capacity(config_n.min(256));
                for _ in 0..config_n {
                    config.push((d.str()?, d.str()?));
                }
                Msg::DebugDumpResp { id, dump: WireDump { metrics, alerts, traces, config } }
            }
            tag::REJECTED => Msg::Rejected { id: d.u64()?, reason: d.str()? },
            tag::GOODBYE => Msg::Goodbye,
            tag::SERVER_BYE => Msg::ServerBye,
            tag::ERROR => Msg::Error { message: d.str()? },
            other => return Err(DecodeError(format!("unknown frame type {other:#04x}"))),
        };
        d.finish()?;
        Ok(msg)
    }
}

/// Sample kinds: the byte after each sample's name in a metric list.
const METRIC_COUNTER: u8 = 0;
const METRIC_GAUGE: u8 = 1;
const METRIC_HISTOGRAM: u8 = 2;

/// A metric list: each sample's name, kind, labels and values. Counters
/// and gauges carry one value; histograms carry their summary
/// `[count, sum, max, p50, p90, p99]` (raw buckets never travel).
fn encode_metric_list(e: &mut Encoder, metrics: &MetricsSnapshot) {
    e.u32(metrics.samples.len() as u32);
    for m in &metrics.samples {
        let (kind, values, len) = match m.value {
            SampleValue::Counter(v) => (METRIC_COUNTER, [v, 0, 0, 0, 0, 0], 1),
            SampleValue::Gauge(v) => (METRIC_GAUGE, [v, 0, 0, 0, 0, 0], 1),
            SampleValue::Histogram(h) => {
                (METRIC_HISTOGRAM, [h.count, h.sum, h.max, h.p50, h.p90, h.p99], 6)
            }
        };
        e.str(&m.name).u8(kind).u32(m.labels.len() as u32);
        for (k, v) in &m.labels {
            e.str(k).str(v);
        }
        e.u32(len as u32);
        for v in &values[..len] {
            e.u64(*v);
        }
    }
}

/// Decodes a metric list **forward-tolerantly**: a sample of an unknown
/// kind is fully consumed (its labels and values are length-prefixed,
/// so it is self-delimiting) and then *skipped*, and a sample with fewer
/// values than its kind carries reads the missing ones as 0 (more, and
/// the extra ones are skipped), so an old client keeps working against a
/// server that exposes kinds or summary positions it never learned.
fn decode_metric_list(d: &mut Decoder<'_>) -> Result<MetricsSnapshot, DecodeError> {
    let n = d.u32()? as usize;
    let mut metrics = MetricsSnapshot::new();
    metrics.samples.reserve(n.min(4096));
    for _ in 0..n {
        let name = d.str()?;
        let kind = d.u8()?;
        let labels_n = d.u32()? as usize;
        let mut labels = Vec::with_capacity(labels_n.min(64));
        for _ in 0..labels_n {
            labels.push((d.str()?, d.str()?));
        }
        let mut v = [0u64; 6];
        for i in 0..d.u32()? as usize {
            let value = d.u64()?;
            if let Some(slot) = v.get_mut(i) {
                *slot = value;
            }
        }
        let value = match kind {
            METRIC_COUNTER => SampleValue::Counter(v[0]),
            METRIC_GAUGE => SampleValue::Gauge(v[0]),
            METRIC_HISTOGRAM => SampleValue::Histogram(HistogramSummary {
                count: v[0],
                sum: v[1],
                max: v[2],
                p50: v[3],
                p90: v[4],
                p99: v[5],
            }),
            _ => continue,
        };
        metrics.samples.push(Sample { name, labels, value });
    }
    Ok(metrics)
}

const ROUTE_DIRECT: u8 = 0;
const ROUTE_VIA_VIEW: u8 = 1;
const ROUTE_INTERSECT: u8 = 2;

fn encode_route(e: &mut Encoder, route: &Route) {
    encode_route_ref(e, route.as_ref());
}

fn encode_route_ref(e: &mut Encoder, route: WireRouteRef<'_>) {
    match route {
        WireRouteRef::Direct => {
            e.u8(ROUTE_DIRECT);
        }
        WireRouteRef::ViaView { view, rewriting } => {
            e.u8(ROUTE_VIA_VIEW).str(view).str(rewriting);
        }
        WireRouteRef::Intersect { views, compensation } => {
            e.u8(ROUTE_INTERSECT).u32(views.len() as u32);
            for v in views {
                e.str(v);
            }
            e.str(compensation);
        }
    }
}

fn decode_route(d: &mut Decoder<'_>) -> Result<Route, DecodeError> {
    Ok(match d.u8()? {
        ROUTE_DIRECT => Route::Direct,
        ROUTE_VIA_VIEW => Route::ViaView { view: d.str()?, rewriting: d.str()? },
        ROUTE_INTERSECT => {
            let n = d.u32()? as usize;
            let mut views = Vec::with_capacity(n.min(256));
            for _ in 0..n {
                views.push(d.str()?);
            }
            Route::Intersect { views, compensation: d.str()? }
        }
        other => return Err(DecodeError(format!("unknown route tag {other}"))),
    })
}

const EDIT_INSERT: u8 = 0;
const EDIT_DELETE: u8 = 1;
const EDIT_RELABEL: u8 = 2;

fn encode_edit(e: &mut Encoder, edit: &Edit) {
    match edit {
        Edit::InsertSubtree { parent, subtree } => {
            e.u8(EDIT_INSERT).u32(parent.0).str(&to_xml(subtree));
        }
        Edit::DeleteSubtree { node } => {
            e.u8(EDIT_DELETE).u32(node.0);
        }
        Edit::Relabel { node, label } => {
            e.u8(EDIT_RELABEL).u32(node.0).str(label.name());
        }
    }
}

fn decode_edit(d: &mut Decoder<'_>) -> Result<Edit, DecodeError> {
    Ok(match d.u8()? {
        EDIT_INSERT => {
            let parent = NodeId(d.u32()?);
            let xml = d.str()?;
            let subtree = parse_xml(&xml).map_err(|e| DecodeError(format!("edit subtree: {e}")))?;
            Edit::InsertSubtree { parent, subtree }
        }
        EDIT_DELETE => Edit::DeleteSubtree { node: NodeId(d.u32()?) },
        EDIT_RELABEL => {
            let node = NodeId(d.u32()?);
            let name = d.str_ref()?;
            let Some(label) = Label::try_new(name) else {
                return Err(DecodeError(format!("invalid relabel target {name:?}")));
            };
            Edit::Relabel { node, label }
        }
        other => return Err(DecodeError(format!("unknown edit tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_model::{AnswerArena, BitSet, TreeBuilder};
    use xpv_pattern::TextCache;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    /// Decodes `msg`'s frame, and checks on the way that
    /// [`Msg::decode_with`] reads it byte for byte as [`Msg::decode`] does:
    /// with [`parse_xpath`], and twice through one [`TextCache`] (a miss,
    /// then a hit for each query text).
    fn round_trip(msg: &Msg) -> Msg {
        let body = msg.encode();
        let decoded = Msg::decode(&body).expect("round trip decodes");
        let mut texts = TextCache::new();
        let with = [
            Msg::decode_with(&body, parse_xpath),
            Msg::decode_with(&body, |t| texts.parse(t)),
            Msg::decode_with(&body, |t| texts.parse(t)),
        ];
        for again in with {
            assert_eq!(again.expect("decodes with a parser").encode(), decoded.encode());
        }
        decoded
    }

    #[test]
    fn handshake_round_trips() {
        match round_trip(&Msg::Hello { version: 1 }) {
            Msg::Hello { version } => assert_eq!(version, 1),
            other => panic!("wrong decode: {other:?}"),
        }
        match round_trip(&Msg::HelloAck { version: 1, window: 32 }) {
            Msg::HelloAck { version, window } => {
                assert_eq!((version, window), (1, 32));
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn query_batches_round_trip_structurally() {
        let queries = vec![pat("site/region/item[desc]/name"), pat("a//b[.//c]/d")];
        let msg = Msg::QueryBatch { id: 9, tenant: "acme".into(), queries: queries.clone() };
        match round_trip(&msg) {
            Msg::QueryBatch { id, tenant, queries: decoded } => {
                assert_eq!(id, 9);
                assert_eq!(tenant, "acme");
                assert_eq!(decoded.len(), queries.len());
                for (a, b) in decoded.iter().zip(&queries) {
                    assert!(a.structurally_eq(b), "{a} != {b}");
                }
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn answers_and_routes_round_trip() {
        let msg = Msg::Answers {
            id: 3,
            answers: vec![
                WireAnswer { nodes: vec![NodeId(1), NodeId(7)], route: Route::Direct },
                WireAnswer {
                    nodes: vec![],
                    route: Route::ViaView { view: "v".into(), rewriting: "a/b".into() },
                },
                WireAnswer {
                    nodes: vec![NodeId(42)],
                    route: Route::Intersect {
                        views: vec!["v1".into(), "v2".into()],
                        compensation: "c".into(),
                    },
                },
            ],
        };
        match round_trip(&msg) {
            Msg::Answers { id, answers } => {
                assert_eq!(id, 3);
                assert_eq!(answers.len(), 3);
                assert_eq!(answers[0].nodes, vec![NodeId(1), NodeId(7)]);
                assert!(matches!(answers[2].route, Route::Intersect { ref views, .. }
                    if views.len() == 2));
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn answers_encoder_is_byte_identical_to_msg_encode() {
        let answers = vec![
            WireAnswer { nodes: vec![NodeId(1), NodeId(7)], route: Route::Direct },
            WireAnswer {
                nodes: vec![],
                route: Route::ViaView { view: "v".into(), rewriting: "a/b".into() },
            },
            WireAnswer {
                nodes: vec![NodeId(42), NodeId(43), NodeId(99)],
                route: Route::Intersect {
                    views: vec!["v1".into(), "v2".into()],
                    compensation: "c/d".into(),
                },
            },
            // Dense enough to go out as a span.
            WireAnswer { nodes: (60..140).map(NodeId).collect(), route: Route::Direct },
        ];
        let mut enc = AnswersEncoder::new(3);
        for a in &answers {
            enc.answer(a.route.as_ref(), &a.nodes);
        }
        assert!(enc.byte_len() > 0);
        assert_eq!(enc.node_count(), 85);
        let body = enc.finish();
        // Fed from answer sets, the bytes agree, and no node list is built.
        let (arena, refs) = arena_of(200, answers.iter().map(|a| a.nodes.clone()));
        let mut enc = AnswersEncoder::new(3);
        for (a, &r) in answers.iter().zip(&refs) {
            enc.answer_ref(a.route.as_ref(), &arena, r);
        }
        assert_eq!(enc.finish(), body);
        assert_eq!(arena.node_count(), 0, "streaming expanded no node list");
        assert_eq!(body, Msg::Answers { id: 3, answers }.encode());
        // The empty batch also agrees (count patched to zero).
        assert_eq!(
            AnswersEncoder::new(9).finish(),
            Msg::Answers { id: 9, answers: vec![] }.encode()
        );
    }

    /// An arena holding one set of capacity `width` per node list, and
    /// their refs.
    fn arena_of(
        width: usize,
        lists: impl IntoIterator<Item = Vec<NodeId>>,
    ) -> (AnswerArena, Vec<AnswerRef>) {
        let mut arena = AnswerArena::new();
        let refs = lists
            .into_iter()
            .map(|l| arena.push_set(BitSet::from_indices(width, l.iter().map(|n| n.index()))))
            .collect();
        (arena, refs)
    }

    fn decoded_answers(body: &[u8]) -> Vec<WireAnswer> {
        match Msg::decode(body).expect("answers decode") {
            Msg::Answers { answers, .. } => answers,
            other => panic!("wrong decode: {other:?}"),
        }
    }

    /// A random set of `width` slots, each a member with probability
    /// `per_mille / 1000`, plus `width - 1` when `last`.
    fn random_nodes(seed: &mut u64, width: usize, per_mille: u64, last: bool) -> Vec<NodeId> {
        let mut next = || {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            *seed % 1000
        };
        (0..width as u32)
            .filter(|&i| next() < per_mille || (last && i as usize == width - 1))
            .map(NodeId)
            .collect()
    }

    #[test]
    fn answers_round_trip_at_the_size_rule_minimum() {
        let mut seed = 0x9E37_79B9_7F4A_7C15;
        let (mut spans, mut lists) = (0, 0);
        for width in [1usize, 63, 64, 65, 1_662, 5_000] {
            for per_mille in [0, 1, 20, 100, 250, 500, 900, 1000] {
                for last in [false, true] {
                    let nodes = random_nodes(&mut seed, width, per_mille, last);
                    let words = match (nodes.first(), nodes.last()) {
                        (Some(f), Some(l)) => l.index() / 64 - f.index() / 64 + 1,
                        _ => 0,
                    };
                    let list_bytes = 4 + 4 * nodes.len();
                    let span_bytes = 12 + 8 * words;
                    let want = 13 + 2 + list_bytes.min(span_bytes);
                    if span_bytes < list_bytes {
                        spans += 1;
                    } else {
                        lists += 1;
                    }

                    let mut by_slice = AnswersEncoder::new(1);
                    by_slice.answer(WireRouteRef::Direct, &nodes);
                    let by_slice = by_slice.finish();
                    let (arena, refs) = arena_of(width, [nodes.clone()]);
                    let mut by_set = AnswersEncoder::new(1);
                    by_set.answer_ref(WireRouteRef::Direct, &arena, refs[0]);
                    let by_set = by_set.finish();
                    let answers = vec![WireAnswer { nodes: nodes.clone(), route: Route::Direct }];
                    let by_msg = Msg::Answers { id: 1, answers: answers.clone() }.encode();

                    let case = format!("width {width}, {per_mille}‰, last {last}");
                    assert_eq!(by_slice.len(), want, "{case}");
                    assert_eq!(by_set, by_slice, "{case}");
                    assert_eq!(by_msg, by_slice, "{case}");
                    assert_eq!(decoded_answers(&by_slice), answers, "{case}");
                }
            }
        }
        assert!(spans >= 20 && lists >= 20, "{spans} spans, {lists} lists");
    }

    #[test]
    fn fanned_out_answers_go_out_as_five_byte_repeats() {
        let mut seed = 7;
        let sets: Vec<Vec<NodeId>> = [(0, false), (30, true), (600, false), (1000, false)]
            .iter()
            .map(|&(per_mille, last)| random_nodes(&mut seed, 1_662, per_mille, last))
            .collect();
        let (arena, refs) = arena_of(1_662, sets.clone());
        // Positions 3..7 repeat earlier answers; routes differ per position.
        let order = [1, 2, 0, 2, 1, 3, 2];
        let route = |i: usize| match i % 3 {
            0 => WireRouteRef::Direct,
            1 => WireRouteRef::ViaView { view: "v", rewriting: "a/b" },
            _ => WireRouteRef::ViaView { view: "w", rewriting: "c" },
        };
        let (mut with_repeats, mut without) = (AnswersEncoder::new(5), AnswersEncoder::new(5));
        for (i, &k) in order.iter().enumerate() {
            with_repeats.answer_ref(route(i), &arena, refs[k]);
            without.answer(route(i), &sets[k]);
        }
        assert_eq!(with_repeats.node_count(), without.node_count());
        let (with_repeats, without) = (with_repeats.finish(), without.finish());
        let decoded = decoded_answers(&with_repeats);
        assert_eq!(decoded, decoded_answers(&without));
        for (a, &k) in decoded.iter().zip(&order) {
            assert_eq!(a.nodes, sets[k]);
        }
        // Each of the three repeats costs its kind byte and `of`, instead of
        // its answer's full encoding (what the first occurrence paid).
        let alone = |k: usize| {
            let mut enc = AnswersEncoder::new(5);
            enc.answer(WireRouteRef::Direct, &sets[k]);
            enc.finish().len() - 14 // header and route
        };
        let saved: usize = [2, 1, 2].iter().map(|&k| alone(k) - 5).sum();
        assert_eq!(without.len() - with_repeats.len(), saved);
    }

    /// An Answers frame of one `Direct` answer whose nodes are `nodes`
    /// (already encoded, kind byte first).
    fn one_answer_frame(nodes: impl FnOnce(&mut Encoder)) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u8(tag::ANSWERS).u64(1).u32(1).u8(ROUTE_DIRECT);
        nodes(&mut e);
        e.finish()
    }

    #[test]
    fn malformed_answers_are_decode_errors() {
        // Each is refused, for its own reason (`says`).
        let refused = |body: Vec<u8>, what: &str, says: &str| {
            let err = Msg::decode(&body).expect_err(what);
            assert!(err.0.contains(says), "{what}: {}", err.0);
        };
        refused(
            one_answer_frame(|e| {
                e.u8(3).u32(0);
            }),
            "unknown kind",
            "unknown answer kind 3",
        );
        refused(
            one_answer_frame(|e| {
                e.u8(ANSWER_REPEAT).u32(0);
            }),
            "a repeat of itself",
            "not an earlier one",
        );
        // Answer 0 names answer 1, which comes later.
        let mut e = Encoder::new();
        e.u8(tag::ANSWERS).u64(1).u32(2);
        e.u8(ROUTE_DIRECT).u8(ANSWER_REPEAT).u32(1);
        e.u8(ROUTE_DIRECT).u8(ANSWER_LIST).u32(1).u32(5);
        refused(e.finish(), "a repeat of a later answer", "not an earlier one");
        // The last word of the id space is fine; one word further is not,
        // nor is a word count that wraps the sum in 32 bits.
        let span = |first: u32, words: u32, count: u32, payload: &[u64]| {
            one_answer_frame(|e| {
                e.u8(ANSWER_SPAN).u32(count).u32(first).u32(words).u64s(payload);
            })
        };
        let top = (1u32 << 26) - 1;
        match &decoded_answers(&span(top, 1, 1, &[1 << 63]))[0].nodes[..] {
            [n] => assert_eq!(n.0, u32::MAX),
            other => panic!("wrong nodes {other:?}"),
        }
        let past = "leaves the u32 id space";
        refused(span(top, 2, 2, &[1, 1]), "a span past the u32 id space", past);
        refused(span(top, u32::MAX, 1, &[1]), "a span whose end wraps", past);
        refused(span(0, 2, 3, &[0b11, 0b11]), "a popcount above the count", "claims 3");
        refused(span(0, 2, 5, &[0b11, 0b11]), "a popcount below the count", "claims 5");
        refused(span(0, 3, 4, &[0b11, 0b11]), "truncated words", "truncated");
        refused(
            one_answer_frame(|e| {
                e.u8(ANSWER_LIST).u32(3).u32(1).u32(2);
            }),
            "a truncated list",
            "truncated",
        );
        // Repeats may not make a small frame decode to unbounded ids.
        let full = MAX_ANSWER_NODES / 64;
        let mut e = Encoder::new();
        e.u8(tag::ANSWERS).u64(1).u32(66);
        e.u8(ROUTE_DIRECT).u8(ANSWER_LIST).u32(full as u32);
        e.u32s((0..full as u32).map(|i| i * 3));
        for _ in 0..65 {
            e.u8(ROUTE_DIRECT).u8(ANSWER_REPEAT).u32(0);
        }
        refused(e.finish(), "more ids than MAX_ANSWER_NODES", "more than");
    }

    #[test]
    fn edit_batches_round_trip() {
        let graft = TreeBuilder::root("item", |b| {
            b.leaf("name");
        });
        let msg = Msg::EditBatch {
            id: 5,
            tenant: "writer".into(),
            edits: vec![
                Edit::InsertSubtree { parent: NodeId(2), subtree: graft },
                Edit::DeleteSubtree { node: NodeId(9) },
                Edit::Relabel { node: NodeId(4), label: Label::new("renamed") },
            ],
        };
        match round_trip(&msg) {
            Msg::EditBatch { edits, .. } => {
                assert_eq!(edits.len(), 3);
                match &edits[0] {
                    Edit::InsertSubtree { parent, subtree } => {
                        assert_eq!(*parent, NodeId(2));
                        assert_eq!(subtree.len(), 2);
                    }
                    other => panic!("wrong edit: {other:?}"),
                }
                assert!(matches!(edits[1], Edit::DeleteSubtree { node } if node == NodeId(9)));
                assert!(
                    matches!(edits[2], Edit::Relabel { label, .. } if label.name() == "renamed")
                );
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    /// One sample of each kind, one of them labeled.
    fn fixed_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("xpv_cache_queries", 42);
        snap.push_gauge("xpv_server_connections", 3);
        snap.push_counter_labeled("xpv_tenant_queries", ("tenant", "acme"), 7);
        snap.push_histogram(
            "xpv_phase_eval_us",
            HistogramSummary { count: 100, sum: 12345, max: 900, p50: 80, p90: 300, p99: 800 },
        );
        snap
    }

    /// Two watchdog rules, one firing.
    fn fixed_alerts() -> Vec<Alert> {
        vec![
            Alert {
                name: "maintain_stall".into(),
                kind: "heartbeat_stall".into(),
                firing: true,
                since_tick: 4,
                fired_total: 2,
                detail: "1 in flight".into(),
            },
            Alert {
                name: "flush_stall".into(),
                kind: "heartbeat_stall".into(),
                firing: false,
                since_tick: 0,
                fired_total: 0,
                detail: String::new(),
            },
        ]
    }

    /// A served query's span and a maintenance span.
    fn fixed_traces() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                kind: "net.query".into(),
                total_us: 1234,
                phases: vec![(Phase::Admission, 10), (Phase::Eval, 900), (Phase::Flush, 5)],
            },
            TraceEvent {
                kind: "cache.update".into(),
                total_us: 500,
                phases: vec![(Phase::Apply, 200), (Phase::Patch, 300)],
            },
        ]
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The frames of [`fixed_snapshot`], [`fixed_alerts`] and
    /// [`fixed_traces`] as protocol version 5 sends them: a codec change
    /// that moves one byte must bump [`VERSION`].
    const STATS_V2_GOLDEN: &str = concat!(
        "334e0000000000000004000000110000007870765f63616368655f71756572696573000000000001",
        "0000002a00000000000000160000007870765f7365727665725f636f6e6e656374696f6e73010000",
        "0000010000000300000000000000120000007870765f74656e616e745f7175657269657300010000",
        "000600000074656e616e740400000061636d65010000000700000000000000110000007870765f70",
        "686173655f6576616c5f757302000000000600000064000000000000003930000000000000840300",
        "000000000050000000000000002c010000000000002003000000000000",
    );
    const DEBUG_DUMP_GOLDEN: &str = concat!(
        "370c0000000000000004000000110000007870765f63616368655f71756572696573000000000001",
        "0000002a00000000000000160000007870765f7365727665725f636f6e6e656374696f6e73010000",
        "0000010000000300000000000000120000007870765f74656e616e745f7175657269657300010000",
        "000600000074656e616e740400000061636d65010000000700000000000000110000007870765f70",
        "686173655f6576616c5f757302000000000600000064000000000000003930000000000000840300",
        "000000000050000000000000002c010000000000002003000000000000020000000e0000006d6169",
        "6e7461696e5f7374616c6c0f0000006865617274626561745f7374616c6c01040000000000000002",
        "000000000000000b0000003120696e20666c696768740b000000666c7573685f7374616c6c0f0000",
        "006865617274626561745f7374616c6c000000000000000000000000000000000000000000020000",
        "00090000006e65742e7175657279d204000000000000030000000900000061646d697373696f6e0a",
        "00000000000000040000006576616c840300000000000005000000666c7573680500000000000000",
        "0c00000063616368652e757064617465f40100000000000002000000050000006170706c79c80000",
        "00000000000500000070617463682c01000000000000010000000e00000074726163655f73616d70",
        "6c696e67020000003634",
    );

    #[test]
    fn stats_and_dump_frames_keep_their_bytes() {
        let stats = Msg::StatsV2Resp { id: 78, metrics: fixed_snapshot() };
        assert_eq!(hex(&stats.encode()), STATS_V2_GOLDEN);
        let dump = WireDump {
            metrics: fixed_snapshot(),
            alerts: fixed_alerts(),
            traces: fixed_traces(),
            config: vec![("trace_sampling".into(), "64".into())],
        };
        let dump = Msg::DebugDumpResp { id: 12, dump };
        assert_eq!(hex(&dump.encode()), DEBUG_DUMP_GOLDEN);
        for msg in [stats, dump] {
            assert_eq!(round_trip(&msg).encode(), msg.encode());
        }
    }

    #[test]
    fn stats_v2_round_trips() {
        match round_trip(&Msg::StatsV2Req { id: 77 }) {
            Msg::StatsV2Req { id } => assert_eq!(id, 77),
            other => panic!("wrong decode: {other:?}"),
        }
        let metrics = fixed_snapshot();
        match round_trip(&Msg::StatsV2Resp { id: 78, metrics: metrics.clone() }) {
            Msg::StatsV2Resp { id, metrics: decoded } => {
                assert_eq!(id, 78);
                assert_eq!(decoded, metrics);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn unknown_metric_kinds_are_skipped_not_errors() {
        // Forward tolerance: an old client receiving a StatsV2Resp with a
        // metric kind from a newer server must skip it and keep the
        // samples it understands — three metrics on the wire, the middle
        // one of future kind 9 with labels and values to step over.
        let mut e = Encoder::new();
        e.u8(tag::STATS2_RESP).u64(1).u32(3);
        e.str("xpv_cache_queries").u8(METRIC_COUNTER).u32(0).u32(1).u64(42);
        e.str("xpv_future_sketch").u8(9).u32(1).str("tenant").str("acme").u32(3);
        e.u64(7).u64(8).u64(9);
        e.str("xpv_server_connections").u8(METRIC_GAUGE).u32(0).u32(1).u64(3);
        match Msg::decode(&e.finish()).expect("unknown kind skipped, not an error") {
            Msg::StatsV2Resp { id, metrics } => {
                assert_eq!(id, 1);
                let names: Vec<&str> = metrics.samples.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(names, vec!["xpv_cache_queries", "xpv_server_connections"]);
                assert_eq!(metrics.samples[0].value, SampleValue::Counter(42));
                assert_eq!(metrics.samples[1].value, SampleValue::Gauge(3));
            }
            other => panic!("wrong decode: {other:?}"),
        }
        // A histogram with a short summary reads its missing positions as
        // 0, and one with a longer summary ignores the extra ones.
        let mut e = Encoder::new();
        e.u8(tag::STATS2_RESP).u64(2).u32(2);
        e.str("h").u8(METRIC_HISTOGRAM).u32(0).u32(2).u64(5).u64(50);
        e.str("g").u8(METRIC_GAUGE).u32(0).u32(2).u64(4).u64(99);
        match Msg::decode(&e.finish()).expect("short and long payloads decode") {
            Msg::StatsV2Resp { metrics, .. } => {
                let short = HistogramSummary { count: 5, sum: 50, ..HistogramSummary::default() };
                assert_eq!(metrics.samples[0].value, SampleValue::Histogram(short));
                assert_eq!(metrics.samples[1].value, SampleValue::Gauge(4));
            }
            other => panic!("wrong decode: {other:?}"),
        }
        // A kind-9 metric whose payload is *truncated* is still an error:
        // tolerance skips well-formed unknowns, it does not mask damage.
        let mut e = Encoder::new();
        e.u8(tag::STATS2_RESP).u64(1).u32(1).str("m").u8(9).u32(1).str("k");
        assert!(Msg::decode(&e.finish()).is_err(), "truncated unknown-kind metric");
    }

    #[test]
    fn retired_history_tags_are_unknown_frames() {
        for retired in [0x34u8, 0x35] {
            let mut e = Encoder::new();
            e.u8(retired).u64(5);
            let err = Msg::decode(&e.finish()).expect_err("history frames are gone");
            assert!(err.to_string().contains("unknown frame type"), "{err}");
        }
    }

    #[test]
    fn debug_dump_round_trips() {
        match round_trip(&Msg::DebugDumpReq { id: 11 }) {
            Msg::DebugDumpReq { id } => assert_eq!(id, 11),
            other => panic!("wrong decode: {other:?}"),
        }
        let dump = WireDump {
            metrics: fixed_snapshot(),
            alerts: fixed_alerts(),
            traces: fixed_traces(),
            config: vec![("trace_sampling".into(), "1".into())],
        };
        let msg = Msg::DebugDumpResp { id: 12, dump: dump.clone() };
        match round_trip(&msg) {
            Msg::DebugDumpResp { id, dump: decoded } => {
                assert_eq!(id, 12);
                assert_eq!(decoded, dump);
            }
            other => panic!("wrong decode: {other:?}"),
        }
        // A phase travels as its name; a name no phase has is refused.
        let mut e = Encoder::new();
        e.u8(tag::DUMP_RESP).u64(14).u32(0).u32(0).u32(1);
        e.str("net.query").u64(9).u32(1).str("teleport").u64(1).u32(0);
        let err = Msg::decode(&e.finish()).expect_err("unknown phase");
        assert!(err.0.contains("unknown trace phase \"teleport\""), "{}", err.0);
        // The empty dump (no rules, nothing drained) round-trips too.
        let empty = Msg::DebugDumpResp { id: 13, dump: WireDump::default() };
        match round_trip(&empty) {
            Msg::DebugDumpResp { id, dump } => {
                assert_eq!(id, 13);
                assert_eq!(dump, WireDump::default());
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(Msg::decode(&[]).is_err(), "empty body");
        assert!(Msg::decode(&[0xEE]).is_err(), "unknown tag");
        // Hello with the wrong magic.
        let mut e = Encoder::new();
        e.u8(0x01).u32(0xDEAD_BEEF).u16(1);
        assert!(Msg::decode(&e.finish()).is_err(), "bad magic");
        // Trailing garbage after a valid Goodbye.
        let mut body = Msg::Goodbye.encode();
        body.push(0);
        assert!(Msg::decode(&body).is_err(), "trailing bytes");
        // A query that does not parse.
        let mut e = Encoder::new();
        e.u8(0x10).u64(1).str("t").u32(1).str("a[[[");
        assert!(Msg::decode(&e.finish()).is_err(), "unparseable query");
    }

    #[test]
    fn decode_with_a_text_cache_refuses_what_decode_refuses_and_caches_none_of_it() {
        let nested = format!("a{}{}", "[b".repeat(100_000), "]".repeat(100_000));
        let chain = format!("a[{}]", vec!["b"; 100_000].join("/"));
        let mut texts = TextCache::new();
        for text in [nested.as_str(), chain.as_str(), "a[[[", "/a", "a/\u{22a5}"] {
            let mut e = Encoder::new();
            e.u8(tag::QUERY_BATCH).u64(7).str("t").u32(2).str("a/b").str(text);
            let body = e.finish();
            let plain = Msg::decode(&body).expect_err("refused");
            for _ in 0..2 {
                let cached = Msg::decode_with(&body, |t| texts.parse(t)).expect_err("refused");
                assert_eq!(cached, plain, "{text:.40}");
            }
        }
        // Only the good text before each bad one was kept.
        assert_eq!(texts.len(), 1);
        let mut empty = TextCache::new();
        for bomb in [nested, chain] {
            let mut e = Encoder::new();
            e.u8(tag::QUERY_BATCH).u64(7).str("t").u32(1).str(&bomb);
            let err = Msg::decode_with(&e.finish(), |t| empty.parse(t)).expect_err("refused");
            assert!(err.0.contains("levels below the main path"), "{:.200}", err.0);
        }
        assert!(empty.is_empty());
    }

    #[test]
    fn a_predicate_nesting_bomb_is_a_decode_error() {
        // One 300 KB query (`MAX_FRAME` is 16 MiB) nesting 100 000
        // predicates: the parser used to recurse once per level on whatever
        // thread decodes frames and abort the process, every tenant with
        // it. This test runs on the default 2 MiB test stack. The same
        // depth as the steps of one predicate's path parsed, and overflowed
        // in the evaluator instead.
        let nested = format!("a{}{}", "[b".repeat(100_000), "]".repeat(100_000));
        let chain = format!("a[{}]", vec!["b"; 100_000].join("/"));
        for bomb in [nested, chain] {
            let mut e = Encoder::new();
            e.u8(tag::QUERY_BATCH).u64(7).str("t").u32(1).str(&bomb);
            let err = Msg::decode(&e.finish()).expect_err("the bomb is refused");
            assert!(err.0.contains("levels below the main path"), "{:.200}", err.0);
        }
        // At the bound it is a query like any other; spines are not bounded.
        let deepest = format!("a{}{}", "[b".repeat(64), "]".repeat(64));
        let spine = format!("site{}", "/a".repeat(200_000));
        for text in [deepest, spine] {
            let msg = Msg::QueryBatch { id: 1, tenant: "t".into(), queries: vec![pat(&text)] };
            match round_trip(&msg) {
                Msg::QueryBatch { queries, .. } => assert!(queries[0].structurally_eq(&pat(&text))),
                other => panic!("wrong decode: {other:?}"),
            }
        }
    }
}
