//! # xpv-engine — answering XPath queries using materialized views
//!
//! The application layer of the `xpath-views` workspace (Afrati et al.,
//! EDBT 2009 reproduction): materialize view patterns over XML documents
//! ([`MaterializedView`]) and answer queries from them whenever the
//! [`xpv_core::RewritePlanner`] certifies an equivalent rewriting. A view
//! stores `V(t)` as a bitset over the document's arena slots (node identity
//! kept; seeding, intersection and maintenance are word operations on it);
//! node lists and the by-value subtree-copy reading are computed on demand
//! (see [`view`]), and
//! Proposition 2.4 — `R ◦ V (t) = R(V(t))` — is the correctness contract
//! the tests enforce end to end on both.
//!
//! ## Architecture: one cache type, one server type
//!
//! The serving path is built for shared-state concurrency, in two layers:
//!
//! * [`ShardedViewCache`] (**[`shard`]**) — the engine. One document, a
//!   copy-on-write view pool, and a plan memo behind one lock; every
//!   serving method takes `&self`, so one thread or many use the same
//!   type. Planning flows through one shared
//!   [`xpv_core::PlanningSession`], `&self`-safe: a plan miss refutes
//!   pairs by their labels next to the signature filter and tests the
//!   natural candidates of the rest, nothing more. Queries
//!   no single view can answer are routed through **multi-view
//!   intersections** (`xpv-intersect`, [`Route::Intersect`]): a small view
//!   subset whose node-set intersection (a word-AND of their stores)
//!   supports a verified compensation serves them jointly. The plan memo
//!   and the oracle's interner are each bounded by constants, two
//!   generations apiece ([`PLAN_MEMO_MAX_ENTRIES`],
//!   [`xpv_pattern::INTERNER_MAX_ENTRIES`]), so a stream of distinct
//!   queries costs bounded memory; `add_view` invalidates only the
//!   entries whose plan depends on the grown pool, `remove_view` /
//!   `replace_view` only those whose participants the removal touches, and
//!   `apply_edits` none (a route is a fact about patterns, not data) —
//!   answers are identical on any thread schedule. The plan path has no
//!   settings: no view-choice policy, no pluggable planner, no search
//!   budget to tune.
//! * [`AsyncCacheServer`] (**[`aserve`]**) — the service front-end: any
//!   number of wire-protocol connections (TCP / Unix-domain, a reader and
//!   a writer thread each), sharing a fixed set of worker slots over one
//!   shared `ShardedViewCache`. The wire is its only way in. Idle
//!   connections hold a blocked thread and no worker; admission is
//!   credit-based per connection (see the `xpv-net` crate docs for the
//!   wire protocol and backpressure spec); per-tenant accounting
//!   ([`TenantStats`]) is built in. A graceful drain waits at most
//!   [`DRAIN_GRACE`] for the connections to end, then cuts the ones still
//!   open: a peer that has not read its answers by then loses them and
//!   its `ServerBye`.
//!
//! ## Observability
//!
//! Every layer reports through the `xpv-obs` registry (see that crate's
//! docs for the metric naming scheme and trace-sampling semantics):
//! [`ShardedViewCache::metrics_snapshot`] exposes the cache-side families
//! (`xpv_oracle_*`, `xpv_cache_*`, `xpv_maintain_*`, `xpv_phase_*_us`),
//! [`AsyncCacheServer::metrics_snapshot`] adds the serving families
//! (`xpv_tenant_*`, `xpv_net_*`, `xpv_server_*`). A `StatsV2Resp` frame
//! carries that snapshot as it is, and [`Route`] and [`TenantStats`] are
//! `xpv-net`'s types: the engine and the wire share one type per fact.
//! The server also runs the `xpv-obs` watchdog ([`ObsConfig`]): heartbeat
//! stall rules over the maintenance and flush paths, which force
//! always-on tracing while they fire, and a flight-recorder
//! `DebugDumpReq` bundling metrics + alerts + drained traces + config
//! (the full metric catalogue lives in `docs/METRICS.md`).

#![forbid(unsafe_code)]

pub mod aserve;
pub mod shard;
pub mod tenants;
pub mod view;

pub use aserve::{
    evaluate_and_encode, AsyncCacheServer, ObsConfig, DEFAULT_CONN_WINDOW, DRAIN_GRACE,
};
pub use shard::{
    CacheAnswer, CacheAnswerRef, CacheStats, Route, ShardedViewCache, UpdateReport, ViewId,
    PLAN_MEMO_MAX_BYTES, PLAN_MEMO_MAX_ENTRIES,
};
pub use tenants::TenantStats;
pub use view::{answer_value_set, MaterializedView};
// Re-exported so embedders can drive document updates without a direct
// `xpv-maintain` dependency.
pub use xpv_maintain::{Edit, EditError, MaintainStats};
