//! # xpv-net — the xpv wire protocol over blocking `std` sockets
//!
//! * [`frame`] + [`proto`] — the framed wire protocol below, and the one
//!   blocking frame codec ([`read_frame`], [`write_frame`]) both ends use;
//! * [`socket`] — a connected TCP or Unix-domain socket ([`Socket`]);
//! * [`client`] — a blocking, credit-tracking protocol client for load
//!   generators, tests, and the `xpv client` CLI.
//!
//! The server itself (`xpv-engine`'s `AsyncCacheServer`) runs a reader
//! thread per connection, and a writer thread from the connection's first
//! response on, over these pieces, and counts its frames and bytes in the
//! cache's `xpv-obs` registry (the `xpv_net_*` family).
//!
//! Each fact a frame carries has one type, shared by the server, this
//! codec, the client and the CLI: a served answer's [`Route`] (the engine
//! re-exports it), a tenant's [`TenantStats`], and `xpv-obs`'s
//! `MetricsSnapshot`, `Alert` and `TraceEvent`.
//!
//! ## Wire protocol (version 5)
//!
//! A connection is a byte stream (TCP or Unix-domain) carrying
//! **length-prefixed frames** in each direction:
//!
//! ```text
//! frame := len:u32le  body:[u8; len]        1 ≤ len ≤ 16 MiB
//! body  := type:u8  payload:…               little-endian throughout
//! strings are u32le-length-prefixed UTF-8; patterns travel as XPath
//! text; edit subtrees travel as the model's XML serialization
//! ```
//!
//! A server parses each distinct query text once per worker slot: its
//! readers decode through [`Msg::decode_with`] and the slot's
//! [`xpv_pattern::TextCache`], a bounded text → pattern map that answers a
//! text it holds with a copy of the pattern, and anything else as
//! `parse_xpath` does.
//!
//! ### Handshake
//!
//! The client speaks first: `Hello { magic: u32 = "XPVW", version: u16 }`.
//! The server answers `HelloAck { version, window }` (or `Error` + close
//! on a magic/version it cannot serve). `window` is the connection's
//! **credit allowance** — the maximum number of unacknowledged request
//! frames. Versioning is strict equality for now; the `HelloAck.version`
//! field is where a future server would negotiate downward.
//!
//! ### Requests and responses
//!
//! | client → server | server → client | carries |
//! |---|---|---|
//! | `QueryBatch { id, tenant, queries }` | `Answers { id, answers }` | query batch / per-query nodes + route |
//! | `EditBatch { id, tenant, edits }` | `EditAck { id, report }` or `Rejected { id, reason }` | document updates / post-batch `doc_version` |
//! | `StatsReq { id, tenant }` | `StatsResp { id, found, stats }` | tenant counters |
//! | `StatsV2Req { id }` | `StatsV2Resp { id, metrics }` | whole-server metrics snapshot (every family, sorted; histograms as `[count, sum, max, p50, p90, p99]` summaries) |
//! | `DebugDumpReq { id }` | `DebugDumpResp { id, dump }` | flight recorder: metrics, watchdog alerts, drained trace spans, config |
//! | `Goodbye` | `ServerBye` | clean close |
//! | — | `Error { message }` | fatal protocol error, then close |
//!
//! Version 4 retired the history frames (`HistoryReq`/`HistoryResp`, tags
//! `0x34`/`0x35`: a server answers one with `Error` and closes, as for any
//! unknown frame), dropped the dump's tick interval and series, and
//! dropped `views_refreshed_incrementally` from `StatsResp`. Version 5
//! dropped the admission-wait counter from `StatsResp`: it counted waits
//! of an in-process transport the server no longer has.
//!
//! Request `id`s are chosen by the client (unique per connection);
//! responses to **different** ids may arrive out of order, which is what
//! makes pipelining useful. `EditAck.doc_version` is the server's document
//! version after the batch — a client replaying edits can assert the
//! versions it observes are exactly `1, 2, 3, …` (see the
//! `version-checked` test in `tests/async_serving.rs`).
//!
//! ### Answers
//!
//! An answer is a node set, and each answer of an `Answers` frame is sent
//! as whichever of its encodings is smallest, chosen from the set alone:
//!
//! ```text
//! Answers := id:u64  n:u32  answer × n
//! answer  := route  kind:u8  nodes
//! nodes   := count:u32  ids:[u32; count]                        kind 0, list
//!          | count:u32  first_word:u32  words:u32  [u64; words]   kind 1, span
//!          | of:u32                                               kind 2, repeat
//! ```
//!
//! * A **list** holds the ids, ascending as a server sends them.
//! * A **span** holds the set's 64-bit words from its first nonzero word
//!   to its last: bit `b` of word `w` is id `64 · (first_word + w) + b`.
//!   It is sent exactly when it is smaller, `8 + 8 · words < 4 · count`;
//!   a decoder refuses one whose popcount is not `count` or that reaches
//!   past the `u32` id space.
//! * A **repeat** names an earlier answer `of` of the same frame with the
//!   same set: the server sends one for each query it fanned out in the
//!   batch.
//!
//! A frame decodes to at most [`MAX_ANSWER_NODES`] ids, repeats included;
//! a server answers a batch past it with `Rejected`.
//!
//! ### Credit-based backpressure
//!
//! Every request frame (`QueryBatch`, `EditBatch`, `StatsReq`,
//! `StatsV2Req`, `DebugDumpReq`) **costs one credit**; every response
//! (`Answers`, `EditAck`, `StatsResp`, `StatsV2Resp`, `DebugDumpResp`,
//! `Rejected`) **returns it**. The handshake grants `window` credits. The
//! server bounds what a connection can make it hold: its reader answers
//! one frame at a time, and the queue in front of the connection's writer
//! holds at most `window` responses. A reader whose queue is full stops
//! reading until the writer frees a place, so a client that overdraws, or
//! stops reading its answers, is throttled by the kernel socket buffers
//! — "slow yourself down, not the server". A conforming client (e.g.
//! [`WireClient`]) tracks credits and blocks on the reply stream before
//! overdrawing.
//!
//! ### Drain
//!
//! On graceful shutdown the server stops reading new frames, finishes the
//! one frame each reader is answering, flushes the (at most `window`)
//! queued responses, sends `ServerBye`, and closes. A connection that has
//! not ended within the server's drain grace (`xpv-engine`'s
//! `DRAIN_GRACE`, 2 s) is cut: a peer that stopped reading loses its
//! queued responses and the `ServerBye`. The client-initiated mirror is `Goodbye`:
//! the server flushes that connection's queued responses and answers
//! `ServerBye`.

#![forbid(unsafe_code)]

pub mod client;
pub mod frame;
pub mod proto;
pub mod socket;

pub use client::{Response, WireClient};
pub use frame::{read_frame, write_frame, DecodeError, MAX_FRAME};
pub use proto::{
    AnswersEncoder, Msg, Route, TenantStats, WireAnswer, WireDump, WireRouteRef, WireUpdateReport,
    MAGIC, MAX_ANSWER_NODES, VERSION,
};
pub use socket::Socket;
