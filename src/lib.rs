//! # xpath-views
//!
//! A from-scratch Rust reproduction of **“On Rewriting XPath Queries Using
//! Views”** (Afrati, Chirkova, Gergatsoulis, Kimelfeld, Pavlaki, Sagiv —
//! EDBT 2009).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`model`] — labels, XML trees, XML parsing ([`xpv_model`]);
//! * [`pattern`] — tree patterns for `XP{//,[],*}`, parser/printer and the
//!   paper's structural operations ([`xpv_pattern`]);
//! * [`semantics`] — embeddings, evaluation, canonical models and the
//!   containment/equivalence decision procedures ([`xpv_semantics`]);
//! * [`rewrite`] — natural rewriting candidates, completeness conditions,
//!   the planner, and the brute-force decision procedure ([`xpv_core`]);
//! * [`intersect`] — multi-view **intersection** rewriting: subset
//!   selection over a view pool, exact intersection patterns, and the
//!   compensation planned against them ([`xpv_intersect`] — the sound part
//!   of the paper's open problem 5, after Cautis et al.; the engine
//!   evaluates it over the word-AND of its views' answer sets);
//! * [`maintain`] — the document **edit log** and incremental view
//!   maintenance under tree updates ([`xpv_maintain`]);
//! * [`net`] — the framed xpv **wire protocol** with credit-based
//!   backpressure, its blocking frame codec and client ([`xpv_net`]);
//! * [`obs`] — the dependency-free observability layer: lock-free
//!   counters and log-bucketed latency histograms, request-lifecycle
//!   trace spans with global sampling, and the metrics-snapshot text
//!   exposition ([`xpv_obs`] — `xpv stats` / `xpv dump` read it over the
//!   wire);
//! * [`engine`] — materialized views and answering queries using views
//!   ([`xpv_engine`]);
//! * [`workload`] — generators for patterns, documents, rewriting
//!   scenarios, and document edit streams ([`xpv_workload`]).
//!
//! ## The containment oracle and planning sessions
//!
//! Every decision in this workspace bottoms out in the coNP canonical-model
//! containment test (Section 2.2 of the paper). All layers route it through
//! a shared [`ContainmentOracle`](semantics::ContainmentOracle), which runs
//! the staged procedure, counts which stage settled each question and
//! remembers no verdict. Its interner gives patterns structural keys
//! ([`PatternInterner`](pattern::PatternInterner), stable under sibling
//! reordering, never reused), which key the plan memo above it.
//!
//! * Calls (`contained(p, q)`, `planner.decide(p, v)`) decide from scratch
//!   every time; a [`PlanningSession`](rewrite::PlanningSession)
//!   (`planner.session()`) keeps one oracle whose counters add up every
//!   decision made through it.
//! * [`ShardedViewCache`](engine::ShardedViewCache) holds a session for its
//!   lifetime plus a per-query **plan memo**: the second arrival of a query
//!   skips planning entirely — zero containment calls — and
//!   [`answer_batch`](engine::ShardedViewCache::answer_batch) answers a
//!   workload slice in one pass, planning in-batch duplicates once. A plan
//!   miss decides nothing: it dismisses pairs by their signatures and
//!   labels, and tests the natural candidates of the rest.
//!
//! ## Concurrent serving
//!
//! The whole decision path takes `&self`: the oracle keeps atomic counters
//! and a read-mostly interner, and
//! [`ShardedViewCache`](engine::ShardedViewCache) keeps one plan memo over
//! a copy-on-write view pool, with per-view dependency invalidation on
//! `add_view`. The interner and the plan memo are each bounded by
//! constants, in two generations
//! ([`BoundedMap`](pattern::BoundedMap)), so distinct queries cost bounded
//! memory however many arrive; a pattern the interner forgot is interned
//! again under a fresh key and planned again. It is the only cache type:
//! worker threads answer concurrently through one cache, with the answers
//! one thread would get. The one server type,
//! [`AsyncCacheServer`](engine::AsyncCacheServer), serves any number of
//! wire-protocol connections (TCP / Unix-domain, `xpv listen`) with plain
//! blocking threads, a reader and a writer per connection, over a fixed
//! set of worker slots, with per-connection credit windows and per-tenant
//! stats. The wire is its only way in.
//!
//! ## Document updates
//!
//! The cached document is not frozen:
//! [`apply_edits`](engine::ShardedViewCache::apply_edits) applies a
//! transactional batch of tree edits ([`maintain::Edit`]) and refreshes
//! every registered view **incrementally** from the edits' affected
//! regions. Memoized routes are facts about patterns, so an edit batch
//! invalidates none of them.
//!
//! ```
//! use xpath_views::prelude::*;
//!
//! let session = RewritePlanner::default().session();
//! let p = parse_xpath("a[b]//*/e[d]").unwrap();
//! let v = parse_xpath("a[b]/*").unwrap();
//! let (answer, stats) = session.decide_with_stats(&p, &v);
//! assert!(answer.rewriting().is_some() && stats.condition_found);
//! // The session's oracle counted each test's containments, at most two.
//! let tests = u64::from(stats.candidate_tests.equivalence_tests);
//! assert!(tests > 0 && session.oracle().stats().queries <= 2 * tests);
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use xpath_views::prelude::*;
//!
//! // The view that has been materialized, and the new query.
//! let v = parse_xpath("a[b]/*").unwrap();
//! let p = parse_xpath("a[b]//*/e[d]").unwrap();
//!
//! // Decide rewritability and fetch the rewriting.
//! let planner = RewritePlanner::default();
//! match planner.decide(&p, &v) {
//!     RewriteAnswer::Rewriting(rw) => {
//!         // Applying rw.pattern() to V(t) equals applying p to t, for all t.
//!         assert_eq!(rw.pattern().to_string(), "*//e[d]");
//!     }
//!     other => panic!("expected a rewriting, got {other:?}"),
//! }
//! ```

pub use xpv_core as rewrite;
pub use xpv_engine as engine;
pub use xpv_intersect as intersect;
pub use xpv_maintain as maintain;
pub use xpv_model as model;
pub use xpv_net as net;
pub use xpv_obs as obs;
pub use xpv_pattern as pattern;
pub use xpv_semantics as semantics;
pub use xpv_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use xpv_core::{
        BruteForceConfig, Condition, PlannerStats, PlanningSession, RewriteAnswer, RewritePlanner,
        Rewriting,
    };
    pub use xpv_engine::{
        AsyncCacheServer, CacheStats, MaterializedView, Route, ShardedViewCache, TenantStats,
    };
    pub use xpv_intersect::IntersectAnswer;
    pub use xpv_model::{parse_xml, to_xml, Label, NodeId, Tree, TreeBuilder};
    pub use xpv_pattern::{
        compose, parse_xpath, to_xpath, Axis, NodeTest, PatId, Pattern, PatternBuilder,
        PatternInterner, PatternKey,
    };
    pub use xpv_semantics::{
        contained, equivalent, evaluate, evaluate_weak, weakly_contained, weakly_equivalent,
        ContainmentOracle, OracleStats,
    };
    pub use xpv_workload::{PatternGen, PatternGenConfig, TreeGen, TreeGenConfig};
}
