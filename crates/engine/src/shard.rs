//! The concurrent core of the view cache.
//!
//! [`ShardedViewCache`] is the engine: one cache type, shared by any
//! number of threads (the [`AsyncCacheServer`](crate::AsyncCacheServer)
//! worker pool runs over one). Every serving method takes **`&self`**:
//!
//! * the **view pool** is a copy-on-write snapshot
//!   (`RwLock<Arc<Vec<Arc<MaterializedView>>>>`): answering threads clone
//!   the outer `Arc` and never block behind
//!   [`ShardedViewCache::add_view`]; writers build the next pool by cloning
//!   *pointers* and re-allocate only the views whose answer set changed, so
//!   a pool or document mutation costs what it touches, not pool ×
//!   document;
//! * the **plan memo** is one bounded table behind one `RwLock`, keyed by
//!   the query's [`Pattern::fingerprint`]; each entry holds the query it
//!   was planned for, and a hit counts only when
//!   [`Pattern::structurally_eq`] confirms it. A repeated query takes the
//!   shared read lock and clones its route out — no write lock on the hot
//!   path, and no other table to consult;
//! * all counters are atomics, read into a [`CacheStats`] snapshot on
//!   demand;
//! * planning flows through one shared [`PlanningSession`], whose oracle
//!   counts every containment any thread asks.
//!
//! ## Multi-view intersection routes
//!
//! When no single view rewrites a query, the planner falls through to the
//! **intersection planner** (`xpv-intersect`): a small subset of views whose
//! node-set intersection supports a verified compensation serves the query
//! jointly ([`Route::Intersect`]). The route evaluates the compensation
//! anchored on the `NodeId` intersection of the participants' virtual
//! results — byte-identical to direct evaluation, since only *equivalent*
//! compensations are routed.
//!
//! ## Document updates
//!
//! The cache is not a read-only snapshot: [`ShardedViewCache::apply_edits`]
//! applies a transactional batch of tree edits (`xpv_maintain::Edit`),
//! bumps the document version, and **incrementally refreshes** every
//! registered view from the edits' affected regions (ancestor spine +
//! touched subtree) instead of re-materializing the world — see the
//! `xpv-maintain` crate for the correctness argument.
//!
//! The write path owns the document. The editable [`Tree`] lives inside
//! the write gate, a `Mutex<Tree>` that only writers take: a batch is
//! applied to it **in place** (no copy), rolled back in place, exactly, if
//! an edit is invalid, and read there by `FlatTree::derive`. Readers never
//! see that `Tree`. What they see is the document's frozen
//! [`FlatTree`] and the view pool, published together in one copy-on-write
//! [`StateSnapshot`] behind a single lock, so answering threads always see
//! a *consistent* (document, views) pair, never an edited document with
//! stale views or vice versa. [`ShardedViewCache::document`] is a copy of
//! the `Tree` taken under the gate, for tests, examples and tools: no
//! serving path calls it. `docs/DESIGN.md` §2 gives the ownership rules
//! and the argument that the in-place rollback is exact.
//!
//! ## Memo lifecycle
//!
//! The memo is **bounded**: at most [`PLAN_MEMO_MAX_ENTRIES`] routes of at
//! most [`PLAN_MEMO_MAX_BYTES`] bytes, in two generations
//! ([`xpv_pattern::BoundedMap`]). A route served from the older generation
//! moves back into the current one; the older generation is dropped whole
//! when the current one fills ([`CacheStats::plan_memo_evictions`] counts
//! the routes it held). The memo is the only table that knows a query: a
//! query it evicted misses, is planned again and stored anew, and a query
//! that only shares another's fingerprint misses the confirm and is
//! planned on its own. Forgetting or colliding costs a plan, never a wrong
//! route.
//!
//! A memoized route is a fact about
//! *patterns* — `R ∘ V ≡ P` holds on every document — so only a change of
//! the pool's membership can invalidate it. Each entry's planned route
//! names the stable [`ViewId`]s it depends on, and:
//!
//! * [`ShardedViewCache::add_view`] drops `Direct` and `Intersect` routes:
//!   both rest on "no single view rewrites this query", which a new view
//!   can break. `ViaView` routes stay.
//! * [`ShardedViewCache::remove_view`] / [`ShardedViewCache::replace_view`]
//!   drop the routes that have the removed view among their participants.
//!   `Direct` routes stay (a smaller pool cannot create a rewriting).
//! * [`ShardedViewCache::apply_edits`] drops nothing: execution reads the
//!   participants' *current* node sets from the snapshot it runs on.
//!
//! The intersection search's anchors are facts about the pool's
//! definitions alone, so they live beside the pool, not in the memo: each
//! pool version has one [`AnchorTable`], built by its first plan miss,
//! whose subsets' merged anchors are filled by the misses that first reach
//! them — at most [`MAX_CANDIDATES`](xpv_intersect::MAX_CANDIDATES) per
//! depth group, each merged and checked for redundancy once.
//! `apply_edits` shares the table by `Arc`; `add_view`, `remove_view` and
//! `replace_view` publish an empty one, so no plan reads an anchor merged
//! from a definition that is gone, and the old table is freed with the
//! last snapshot holding it.

use std::collections::HashMap;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

use xpv_core::{CandidateTestStats, PlanningSession, RewritePlanner};
use xpv_intersect::{plan_intersection_sig, AnchorTable};
use xpv_maintain::{
    apply_region_results, coalesce_plan, prepare_batch, scan_regions_flat, Edit, EditError,
    FlatSpines, MaintainStats,
};
use xpv_model::{AnswerArena, AnswerRef, BitSet, FlatTree, NodeId, Tree};
use xpv_obs::{Heartbeat, Histogram, MetricsSnapshot, Phase, Registry, Span};
use xpv_pattern::{BoundedMap, Held, Pattern, QuerySignature, ViewSignature};
use xpv_semantics::{evaluate, evaluate_flat, BatchEval};

use crate::view::MaterializedView;

/// How a query was answered: `xpv-net`'s type, which an answers frame
/// carries as it is.
pub use xpv_net::Route;

/// The most routes the plan memo holds, both generations together.
pub const PLAN_MEMO_MAX_ENTRIES: usize = 2048;

/// The most bytes the plan memo's entries hold, both generations together:
/// each entry's map slot, its query, its planned route and the strings it
/// reports.
pub const PLAN_MEMO_MAX_BYTES: usize = 4 << 20;

/// A **stable** view identity: survives pool growth and shrinkage (unlike a
/// pool index), which is what lets plan-memo routes name their participants
/// and lets `remove_view`/`replace_view` take `&self`. Ids are never
/// reused within one cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ViewId(u64);

impl ViewId {
    /// The raw id value (diagnostic display only).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One **consistent** document + view-pool state. Readers clone the
/// `Arc`s under a brief read lock and then work lock-free; writers swap in
/// a new snapshot (copy-on-write), so an answering thread can never observe
/// a document from one version paired with views from another — the
/// torn-read hazard `apply_edits` would otherwise introduce. The document
/// is here only as its frozen [`FlatTree`]: the editable `Tree` belongs to
/// the write gate (module docs, §Document updates).
#[derive(Clone, Debug)]
struct StateSnapshot {
    /// The pool. Entries are shared between successive snapshots: a writer
    /// copies the pointer vector and swaps in a fresh `Arc` only for a view
    /// whose answer set changed.
    views: Arc<Vec<Arc<MaterializedView>>>,
    /// Stable id of each pool entry, parallel to `views`.
    ids: Arc<Vec<ViewId>>,
    /// Precomputed [`ViewSignature`] of each pool entry, parallel to
    /// `views` — the word-sized necessary-condition facts the plan-miss
    /// fast path checks before paying a containment decision. Signatures
    /// are derived from view *definitions* only, so document edits never
    /// touch them; `add_view`/`remove_view` rebuild the vector alongside
    /// the pool.
    sigs: Arc<Vec<ViewSignature>>,
    /// The pool's [`AnchorTable`]: the intersection search's subsets with
    /// their merged anchors, filled by the plan misses that first reach
    /// them. Built by the first plan miss
    /// over this pool, so a pool change costs no table. Definitions-only
    /// like `sigs`: edits share it by `Arc`, and every pool change
    /// publishes a new, empty slot, so an anchor is merged at most once per
    /// pool version and the old anchors go with the last snapshot holding
    /// them.
    anchors: Arc<OnceLock<AnchorTable>>,
    /// The document, in the frozen struct-of-arrays form every reader
    /// evaluates on (see [`xpv_model::FlatTree`]): frozen when the cache is
    /// built, then derived from its predecessor and the gate's edited
    /// `Tree` once per batch, *before* the snapshot is published, so the
    /// flat matcher always runs against the exact document of its snapshot
    /// — a snapshot complete before anyone sees it is what makes the flat
    /// path torn-read-free under concurrent `apply_edits`.
    flat: Arc<FlatTree>,
}

impl StateSnapshot {
    /// Resolves a stable id to its current pool index, trying the memoized
    /// `hint` first (O(1) while the pool is unchanged).
    fn resolve(&self, id: ViewId, hint: usize) -> Option<usize> {
        if self.ids.get(hint) == Some(&id) {
            return Some(hint);
        }
        self.ids.iter().position(|&x| x == id)
    }
}

/// What one [`ShardedViewCache::apply_edits`] batch did.
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// Edits applied by this batch.
    pub edits_applied: usize,
    /// The document version after the batch.
    pub doc_version: u64,
    /// Views whose answer **sets** changed: their stored state was
    /// re-allocated (routes through them stay memoized).
    pub views_changed: usize,
    /// Always 0 (edits invalidate no route); the wire frame and perfbench's adapter read it.
    pub routes_dropped: u64,
    /// Counters from the maintainer (regions scanned, label skips, …).
    pub maintain: MaintainStats,
}

/// A cache answer: the output nodes plus provenance.
#[derive(Clone, Debug)]
pub struct CacheAnswer {
    /// Output nodes in the cached document.
    pub nodes: Vec<NodeId>,
    /// How the answer was produced.
    pub route: Route,
    /// Time spent deciding rewritability (planning only; zero for answers
    /// fanned out by batch deduplication).
    pub planning: Duration,
    /// Time spent evaluating (view-based or direct; zero for fanned-out
    /// duplicates).
    pub evaluation: Duration,
}

/// A cache answer whose node set lives in a caller-supplied [`AnswerArena`]
/// — the zero-allocation sibling of [`CacheAnswer`] returned by
/// [`ShardedViewCache::answer_batch_refs`]. The route is shared behind an
/// `Arc`, so batch fan-out of a repeated query copies a handle and bumps
/// a refcount instead of cloning node sets and route strings.
#[derive(Clone, Debug)]
pub struct CacheAnswerRef {
    /// Handle to the output node set in the arena the batch call filled;
    /// its `len()` is the answer's size without building a node list.
    pub nodes: AnswerRef,
    /// How the answer was produced (shared across fan-out duplicates).
    pub route: Arc<Route>,
    /// Time spent deciding rewritability (zero for fanned-out duplicates).
    pub planning: Duration,
    /// Time spent evaluating (zero for fanned-out duplicates).
    pub evaluation: Duration,
}

impl CacheAnswerRef {
    /// The owned form of this answer: its nodes collected from its set in
    /// `arena` (the arena the batch call filled) and its route cloned.
    pub fn copy_out(&self, arena: &AnswerArena) -> CacheAnswer {
        CacheAnswer {
            nodes: arena.to_vec(self.nodes),
            route: Route::clone(&self.route),
            planning: self.planning,
            evaluation: self.evaluation,
        }
    }
}

/// Aggregate statistics over the cache's lifetime.
///
/// `queries == plan_memo_hits + plan_memo_misses` holds across
/// [`ShardedViewCache::answer`] and [`ShardedViewCache::answer_batch`];
/// duplicates deduplicated inside one batch count as `plan_memo_hits`
/// (their route was served without a planner call) and additionally as
/// `batch_dedup_hits`. Queries split as
/// `view_hits + intersect_hits + direct`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Queries answered.
    pub queries: u64,
    /// Queries answered from a view through an equivalent rewriting.
    pub view_hits: u64,
    /// Queries answered from a multi-view intersection through an
    /// equivalent compensation.
    pub intersect_hits: u64,
    /// Queries answered by direct evaluation.
    pub direct: u64,
    /// Plans that produced an intersection route (each memoized route
    /// counts once; `intersect_hits / intersect_routes` is the fan-out).
    pub intersect_routes: u64,
    /// View subsets the intersection planner examined across all plans.
    pub intersect_candidates_tried: u64,
    /// Total participants across planned intersection routes
    /// (`/ intersect_routes` = average arity).
    pub intersect_participants: u64,
    /// Candidate views the filter dismissed before any oracle call (plan
    /// misses only): those the signature rejects (no rewriting exists, see
    /// `xpv_pattern::signature`) and those whose labels refute every
    /// natural candidate (none verifies, see `xpv_core::candidates`).
    /// Together with [`CacheStats::sig_passes`] this measures the plan-miss
    /// fast path: `sig_rejects / (sig_rejects + sig_passes)` is the
    /// fraction of pool candidates dismissed with word ops.
    pub sig_rejects: u64,
    /// Candidate views that survived the filter and had their natural
    /// candidates tested.
    pub sig_passes: u64,
    /// Queries whose route came straight from the plan memo (no planner
    /// call, zero containment tests). Includes batch-deduplicated repeats.
    pub plan_memo_hits: u64,
    /// Queries that had to be planned.
    pub plan_memo_misses: u64,
    /// Repeats answered by fan-out inside a single `answer_batch` call
    /// (also counted in `plan_memo_hits`).
    pub batch_dedup_hits: u64,
    /// Plan-memo entries dropped along with an older generation (the
    /// memo's bound; see the module docs, §Memo lifecycle).
    pub plan_memo_evictions: u64,
    /// Plan-memo entries dropped by selective `add_view` / `remove_view`
    /// invalidation.
    pub plan_memo_invalidations: u64,
    /// Document edits applied through `apply_edits` over the cache's
    /// lifetime.
    pub updates_applied: u64,
    /// Snapshot reads that found the state `RwLock` held (by a writer's
    /// pointer swap) and had to block. The ROADMAP names this lock as a
    /// suspected bottleneck under write-heavy mixes; a rising stall count
    /// under load is the signal it has become real.
    pub snapshot_read_stalls: u64,
    /// Lifetime maintenance counters summed over every `apply_edits` batch
    /// (per-phase timings, coalescing and region sizes — see
    /// [`MaintainStats`]).
    pub maintain: MaintainStats,
}

impl CacheStats {
    /// The canonical counter enumeration for the cache's **own** scalar
    /// fields: one `(name, value)` pair per field, in declaration order.
    /// The observability registry exposes these under `xpv_cache_*`, and
    /// `Display` renders the same list — one naming authority, so the
    /// rendered line and the exposition can never drift (see the
    /// `xpv-obs` crate docs). The nested [`CacheStats::maintain`] block
    /// enumerates through its own [`MaintainStats::visit`].
    pub fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
        f("queries", self.queries);
        f("view_hits", self.view_hits);
        f("intersect_hits", self.intersect_hits);
        f("direct", self.direct);
        f("intersect_routes", self.intersect_routes);
        f("intersect_candidates_tried", self.intersect_candidates_tried);
        f("intersect_participants", self.intersect_participants);
        f("sig_rejects", self.sig_rejects);
        f("sig_passes", self.sig_passes);
        f("plan_memo_hits", self.plan_memo_hits);
        f("plan_memo_misses", self.plan_memo_misses);
        f("batch_dedup_hits", self.batch_dedup_hits);
        f("plan_memo_evictions", self.plan_memo_evictions);
        f("plan_memo_invalidations", self.plan_memo_invalidations);
        f("updates_applied", self.updates_applied);
        f("snapshot_read_stalls", self.snapshot_read_stalls);
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        xpv_obs::write_kv_line(f, |emit| self.visit(emit))?;
        write!(f, " maintain: {}", self.maintain)
    }
}

/// A memoized routing decision for one query. Routes reference views by
/// **stable id** (plus a pool-index hint for O(1) resolution), so they stay
/// meaningful while the pool grows, shrinks, or is refreshed in place; a
/// route whose id no longer resolves degrades soundly to direct evaluation.
#[derive(Debug)]
pub(crate) enum PlannedRoute {
    /// Serve from the view with stable id `id` through `rewriting`.
    ViaView { id: ViewId, hint: usize, rewriting: Pattern },
    /// Serve from the node-set intersection of the views with these stable
    /// ids (pool order) through `compensation`.
    Intersect { ids: Vec<ViewId>, hints: Vec<usize>, compensation: Pattern },
    /// No registered view (or view intersection) admits an equivalent
    /// rewriting.
    Direct,
}

/// A planned route with the query it was planned for and the [`Route`] it
/// reports, all built once per plan: a memo hit hands out the `Arc`, and
/// every answer served through it shares the display form instead of
/// formatting view names and the rewriting anew.
#[derive(Debug)]
struct Planned {
    /// The query: a memo entry found under a fingerprint serves only the
    /// queries [`Pattern::structurally_eq`] to it.
    query: Pattern,
    route: PlannedRoute,
    display: Arc<Route>,
}

impl Planned {
    /// `route`, planned for `query` against `snap` (whose pool its hints
    /// index).
    fn new(query: &Pattern, route: PlannedRoute, snap: &StateSnapshot) -> Planned {
        let display = match &route {
            PlannedRoute::ViaView { hint, rewriting, .. } => Route::ViaView {
                view: snap.views[*hint].name().to_string(),
                rewriting: rewriting.to_string(),
            },
            PlannedRoute::Intersect { hints, compensation, .. } => Route::Intersect {
                views: hints.iter().map(|&i| snap.views[i].name().to_string()).collect(),
                compensation: compensation.to_string(),
            },
            PlannedRoute::Direct => Route::Direct,
        };
        Planned { query: query.clone(), route, display: Arc::new(display) }
    }

    /// What a plan-memo entry holds beyond its map slot, counted against
    /// [`PLAN_MEMO_MAX_BYTES`]: the query, the planned and reported route,
    /// the route's pattern and text, and per participant its id, hint and
    /// name.
    fn heap(&self) -> usize {
        let (pattern, parts) = match &self.route {
            PlannedRoute::ViaView { rewriting, .. } => (rewriting.heap_bytes(), 1),
            PlannedRoute::Intersect { ids, compensation, .. } => {
                (compensation.heap_bytes(), ids.len())
            }
            PlannedRoute::Direct => (0, 0),
        };
        let text = match &*self.display {
            Route::ViaView { view, rewriting } => view.len() + rewriting.len(),
            Route::Intersect { views, compensation } => {
                views.iter().map(String::len).sum::<usize>() + compensation.len()
            }
            Route::Direct => 0,
        };
        size_of::<(Planned, Route)>()
            + self.query.heap_bytes()
            + pattern
            + text
            + parts * (2 * size_of::<u64>() + size_of::<String>())
    }
}

/// The plan memo and the win index, behind one lock.
#[derive(Debug, Default)]
struct PlanMemo {
    /// Routes by their query's [`Pattern::fingerprint`], one per
    /// fingerprint: a colliding query's plan replaces the entry.
    routes: BoundedMap<u64, Arc<Planned>, PLAN_MEMO_MAX_ENTRIES, PLAN_MEMO_MAX_BYTES>,
    /// Plan-time win counts per view (how often a memoized plan chose the
    /// view): the hit-rate-ordered index the miss path sorts filter
    /// survivors by, so the common winner pays the first containment
    /// decision. Keyed by stable id and dropped with its view, so it holds
    /// at most one entry per pooled view and pool churn never
    /// misattributes a win.
    wins: HashMap<ViewId, u64>,
}

/// The cache's atomic counters (read into [`CacheStats`]).
#[derive(Debug, Default)]
struct Counters {
    queries: AtomicU64,
    view_hits: AtomicU64,
    intersect_hits: AtomicU64,
    direct: AtomicU64,
    plan_memo_hits: AtomicU64,
    plan_memo_misses: AtomicU64,
    batch_dedup_hits: AtomicU64,
    plan_memo_invalidations: AtomicU64,
    intersect_routes: AtomicU64,
    intersect_candidates_tried: AtomicU64,
    intersect_participants: AtomicU64,
    sig_rejects: AtomicU64,
    sig_passes: AtomicU64,
}

#[inline]
fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The cache's observability handles: its private metric [`Registry`]
/// plus the pre-resolved latency histograms the hot paths record into
/// (resolved once at construction — answering never touches the registry
/// table). The serving front-end shares this registry for its own phase
/// histograms, so one snapshot covers the whole request path.
#[derive(Debug)]
pub(crate) struct CacheObs {
    pub registry: Arc<Registry>,
    /// Per-query routing time (plan-memo lookup or planner call), µs.
    pub plan_us: Arc<Histogram>,
    /// Planner time on plan-memo **misses** only, µs — the latency the
    /// signature fast path attacks (memo hits never record here, so the
    /// distribution is not diluted by cheap lookups).
    pub plan_miss_us: Arc<Histogram>,
    /// Per-query evaluation time, µs.
    pub eval_us: Arc<Histogram>,
    /// Whole `answer_batch` wall time, µs.
    pub batch_us: Arc<Histogram>,
    /// Admission wait (frame read → worker slot checked out) per served batch,
    /// µs — recorded by the serving front-end.
    pub admission_us: Arc<Histogram>,
    /// Response-frame encoding time per served batch, µs (wire only).
    pub encode_us: Arc<Histogram>,
    /// Response-frame socket write time, µs (wire only).
    pub flush_us: Arc<Histogram>,
    /// Per-`apply_edits`-batch maintenance phase times, µs (the
    /// distribution behind the lifetime sums in
    /// [`MaintainStats`]'s `*_us` counters).
    pub maintain_apply_us: Arc<Histogram>,
    pub maintain_freeze_us: Arc<Histogram>,
    pub maintain_coalesce_us: Arc<Histogram>,
    pub maintain_scan_us: Arc<Histogram>,
    pub maintain_patch_us: Arc<Histogram>,
    /// Liveness heartbeat around each `apply_edits` batch: in-flight
    /// while a batch holds the write gate, one beat per completed batch.
    /// The watchdog's `maintain` stall rule reads these gauges.
    pub hb_maintain: Heartbeat,
}

impl CacheObs {
    fn new() -> CacheObs {
        let registry = Arc::new(Registry::new());
        CacheObs {
            plan_us: registry.histogram("xpv_phase_plan_us"),
            plan_miss_us: registry.histogram("xpv_phase_plan_miss_us"),
            eval_us: registry.histogram("xpv_phase_eval_us"),
            batch_us: registry.histogram("xpv_phase_batch_us"),
            admission_us: registry.histogram("xpv_phase_admission_us"),
            encode_us: registry.histogram("xpv_phase_encode_us"),
            flush_us: registry.histogram("xpv_phase_flush_us"),
            maintain_apply_us: registry.histogram("xpv_phase_maintain_apply_us"),
            maintain_freeze_us: registry.histogram("xpv_phase_maintain_freeze_us"),
            maintain_coalesce_us: registry.histogram("xpv_phase_maintain_coalesce_us"),
            maintain_scan_us: registry.histogram("xpv_phase_maintain_scan_us"),
            maintain_patch_us: registry.histogram("xpv_phase_maintain_patch_us"),
            hb_maintain: Heartbeat::new(&registry, "maintain"),
            registry,
        }
    }
}

/// A set of materialized views over a single document with **concurrent**
/// rewriting-based query answering: the serving methods take `&self`, so
/// any number of worker threads can answer through one shared cache (see
/// the module docs for the memo and invalidation design). The plan memo is
/// no longer sharded; the name is kept because the benchmark and the
/// server name the type.
///
/// Results are deterministic: under any thread schedule the cache returns
/// exactly the nodes and routes one thread gets for the same document,
/// views, and queries.
#[derive(Debug)]
pub struct ShardedViewCache {
    /// The consistent document + view-pool state (see [`StateSnapshot`]).
    state: RwLock<StateSnapshot>,
    /// Serializes state **writers** (`add_view`, `remove_view`,
    /// `apply_edits`) and owns the editable document: the gate holder is
    /// the only mutator, so it can snapshot, do expensive work
    /// (materialization, incremental maintenance, the edits themselves,
    /// applied to this `Tree` in place) off the state lock, and take the
    /// state write lock only for the pointer swap — readers block for the
    /// swap, never for the work. Between batches the `Tree` is the
    /// document of the published snapshot.
    write_gate: std::sync::Mutex<Tree>,
    session: PlanningSession,
    memo: RwLock<PlanMemo>,
    counters: Counters,
    /// Bumped by every pool mutation (after the state swap, before the
    /// invalidation sweep); guards in-flight plans from memoizing a route
    /// computed against the previous pool after the sweep already ran.
    views_version: AtomicU64,
    /// Allocator for stable [`ViewId`]s (never reused).
    next_view_id: AtomicU64,
    /// Bumped by every successful [`ShardedViewCache::apply_edits`] batch.
    doc_version: AtomicU64,
    /// Lifetime maintenance counters (summed per batch under the write
    /// gate; surfaced through [`CacheStats::maintain`]).
    maintain_totals: std::sync::Mutex<MaintainStats>,
    /// Lifetime total of edits applied.
    updates_applied: AtomicU64,
    /// Snapshot reads that could not take the state lock immediately (a
    /// writer was swapping pointers) — see
    /// [`CacheStats::snapshot_read_stalls`].
    snapshot_read_stalls: AtomicU64,
    /// Test-only fault injection: microseconds each `apply_edits` batch
    /// sleeps while holding the write gate (0 = disabled). Lets the
    /// watchdog integration tests manufacture a wedged maintenance pass.
    maintain_pause_us: AtomicU64,
    /// Latency histograms + the metric registry (see [`CacheObs`]).
    pub(crate) obs: CacheObs,
}

impl ShardedViewCache {
    /// Creates an empty cache over `doc`.
    ///
    /// Plans with [`RewritePlanner::without_fallback`] — gates, natural
    /// candidates and the §4–5 conditions. A pair those leave `Unknown`
    /// routes `Direct`, which is always sound; the budgeted Proposition 3.4
    /// brute force is a research instrument that can hold a worker for
    /// seconds on one 25-byte query, so it stays off the serving path.
    pub fn new(doc: Tree) -> ShardedViewCache {
        let flat = Arc::new(FlatTree::freeze(&doc));
        ShardedViewCache {
            state: RwLock::new(StateSnapshot {
                views: Arc::new(Vec::new()),
                ids: Arc::new(Vec::new()),
                sigs: Arc::new(Vec::new()),
                anchors: Arc::default(),
                flat,
            }),
            write_gate: std::sync::Mutex::new(doc),
            session: PlanningSession::new(RewritePlanner::without_fallback()),
            memo: RwLock::default(),
            counters: Counters::default(),
            views_version: AtomicU64::new(0),
            next_view_id: AtomicU64::new(0),
            doc_version: AtomicU64::new(0),
            maintain_totals: std::sync::Mutex::new(MaintainStats::default()),
            updates_applied: AtomicU64::new(0),
            snapshot_read_stalls: AtomicU64::new(0),
            maintain_pause_us: AtomicU64::new(0),
            obs: CacheObs::new(),
        }
    }

    /// Routes and bytes the plan memo holds.
    pub fn plan_memo(&self) -> Held {
        self.memo.read().expect("plan memo poisoned").routes.held()
    }

    /// Takes the state read lock, counting a
    /// [`CacheStats::snapshot_read_stalls`] when the uncontended fast path
    /// fails (a writer holds the lock for its pointer swap).
    fn read_state(&self) -> std::sync::RwLockReadGuard<'_, StateSnapshot> {
        match self.state.try_read() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.snapshot_read_stalls.fetch_add(1, Ordering::Relaxed);
                self.state.read().expect("cache state poisoned")
            }
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("cache state poisoned"),
        }
    }

    /// A copy of the cached document, as of the last published batch. The
    /// write gate owns the `Tree`, so this waits for a batch in flight and
    /// copies the document (two buffer copies, whatever its size): it is
    /// for tests, examples and tools, not for the serving path, which
    /// evaluates on the published snapshot's `FlatTree`.
    pub fn document(&self) -> Tree {
        self.write_gate.lock().expect("write gate poisoned").clone()
    }

    /// The number of successful [`ShardedViewCache::apply_edits`] batches
    /// applied so far.
    pub fn doc_version(&self) -> u64 {
        self.doc_version.load(Ordering::Relaxed)
    }

    /// The shared planning session (its oracle's stats).
    pub fn session(&self) -> &PlanningSession {
        &self.session
    }

    /// One consistent document + views snapshot (cheap `Arc` clones, never
    /// blocks answering threads for long).
    fn snapshot(&self) -> StateSnapshot {
        self.read_state().clone()
    }

    /// A snapshot of the registered views (copy-on-write: cheap `Arc`
    /// clone, never blocks answering threads).
    pub fn views_snapshot(&self) -> Arc<Vec<Arc<MaterializedView>>> {
        Arc::clone(&self.read_state().views)
    }

    /// Publishes the pool of `snap` without entry `drop` and with `add` at
    /// the end under a fresh id: **one** state swap, then one selective memo
    /// sweep (module docs, §Memo lifecycle) that also drops the removed
    /// view's win count. The caller holds the write gate
    /// and took `snap` under it.
    fn publish_pool(
        &self,
        snap: &StateSnapshot,
        drop: Option<usize>,
        add: Option<MaterializedView>,
    ) {
        let kept = |i: &usize| Some(*i) != drop;
        let mut views: Vec<Arc<MaterializedView>> =
            (0..snap.views.len()).filter(kept).map(|i| Arc::clone(&snap.views[i])).collect();
        let mut ids: Vec<ViewId> = (0..snap.ids.len()).filter(kept).map(|i| snap.ids[i]).collect();
        let mut sigs: Vec<ViewSignature> =
            (0..snap.sigs.len()).filter(kept).map(|i| snap.sigs[i]).collect();
        let added = add.is_some();
        if let Some(view) = add {
            sigs.push(ViewSignature::of(view.definition()));
            ids.push(ViewId(self.next_view_id.fetch_add(1, Ordering::Relaxed)));
            views.push(Arc::new(view));
        }
        {
            let mut state = self.state.write().expect("cache state poisoned");
            state.views = Arc::new(views);
            state.ids = Arc::new(ids);
            state.sigs = Arc::new(sigs);
            state.anchors = Arc::default();
        }
        // Version bump strictly before the sweep: an in-flight plan either
        // sees the bump (and skips memoizing) or inserts before the sweep
        // (and is caught by it) — stale routes never outlive this call.
        self.views_version.fetch_add(1, Ordering::Release);
        let dropped = drop.map(|i| snap.ids[i]);
        let mut memo = self.memo.write().expect("plan memo poisoned");
        // A view route was verified against its view alone, so only that
        // view's removal breaks it. `Direct` asserts that no view rewrites
        // the query, and an intersection was planned after a failed scan of
        // the whole pool: a new view can break either, and removing a
        // participant breaks an intersection.
        let stale = memo.routes.retain(|_, planned| match &planned.route {
            PlannedRoute::ViaView { id, .. } => Some(*id) != dropped,
            PlannedRoute::Direct => !added,
            PlannedRoute::Intersect { ids, .. } => {
                !(added || dropped.is_some_and(|id| ids.contains(&id)))
            }
        });
        self.counters.plan_memo_invalidations.fetch_add(stale as u64, Ordering::Relaxed);
        if let Some(id) = dropped {
            memo.wins.remove(&id);
        }
    }

    /// Materializes `def` over the document and registers it under `name`.
    /// Returns the number of answers materialized. View routes survive the
    /// pool change; `Direct` and `Intersect` routes re-plan on their next
    /// arrival.
    ///
    /// # Panics
    ///
    /// Panics if a view with the same name is already registered.
    pub fn add_view(&self, name: &str, def: Pattern) -> usize {
        self.install_view(name, def, false)
    }

    /// [`ShardedViewCache::add_view`] or, with `replace`, the same over the
    /// entry already named `name`: the gate is held once and the definition
    /// evaluated on the held snapshot, off-lock — readers only wait for the
    /// swap.
    fn install_view(&self, name: &str, def: Pattern, replace: bool) -> usize {
        let _gate = self.write_gate.lock().expect("write gate poisoned");
        let snap = self.snapshot();
        let old = snap.views.iter().position(|v| v.name() == name);
        assert!(replace || old.is_none(), "duplicate view name {name:?}");
        assert!(!replace || old.is_some(), "replace_view: no view named {name:?}");
        let answers = evaluate_flat(&def, &snap.flat);
        let set = BitSet::from_indices(snap.flat.arena_len(), answers.iter().map(|n| n.index()));
        let view = MaterializedView::from_set(name, def, set);
        let n = view.len();
        self.publish_pool(&snap, old, Some(view));
        n
    }

    /// Deregisters the view named `name`, returning `false` when no such
    /// view exists. Takes **`&self`**, like [`ShardedViewCache::add_view`]:
    /// memoized routes reference views by stable [`ViewId`], so removal
    /// shifts no meaning — in-flight answers finish on their snapshot, and
    /// a route whose id stops resolving degrades to direct evaluation
    /// (sound, since routed answers equal direct answers by construction).
    ///
    /// `Direct` routes survive (shrinking the pool cannot create a
    /// rewriting), as does every route whose participants don't include the
    /// removed view; only routes that committed to the removed view are
    /// dropped and re-plan on their next arrival.
    pub fn remove_view(&self, name: &str) -> bool {
        let _gate = self.write_gate.lock().expect("write gate poisoned");
        let snap = self.snapshot();
        let idx = snap.views.iter().position(|v| v.name() == name);
        if idx.is_some() {
            self.publish_pool(&snap, idx, None);
        }
        idx.is_some()
    }

    /// Replaces the view named `name` with a fresh materialization of
    /// `def` — the cache-maintenance form of "the upstream view definition
    /// changed". One transaction: a single swap takes the old entry out and
    /// puts the replacement at the end of the pool under a **fresh** id, so
    /// every snapshot a reader takes resolves `name`, no edit batch or
    /// `add_view` slips between two halves, and one sweep invalidates every
    /// route depending on the old view. Returns the number of answers
    /// materialized.
    /// For document-driven refreshes that keep definitions intact, use
    /// [`ShardedViewCache::apply_edits`] instead — it patches answers
    /// incrementally and keeps every route.
    ///
    /// # Panics
    ///
    /// Panics if no view named `name` is registered.
    pub fn replace_view(&self, name: &str, def: Pattern) -> usize {
        self.install_view(name, def, true)
    }

    /// Applies a batch of document edits **transactionally** and keeps every
    /// registered view's answer set exact: each view is re-evaluated only
    /// against the batch's merged affected regions (ancestor spines plus
    /// touched subtrees — see `xpv_maintain`), and the next pool shares
    /// every view whose answer set did not change with the previous one
    /// (pointer-equal entries); only changed views are re-allocated.
    ///
    /// Readers are never blocked behind the refresh: the whole maintenance
    /// run — edit application, region re-evaluation, view patching — works
    /// **outside** the state lock (writers serialize on the write gate,
    /// which owns the `Tree` the edits are applied to in place), and the
    /// state lock is taken only to swap the new `(document, views)` pair in
    /// whole. Queries arriving mid-update keep
    /// answering from the previous copy-on-write snapshot, and no query
    /// ever observes a document from one version paired with views from
    /// another.
    ///
    /// The plan memo is left alone: rewritability is decided on patterns,
    /// not data, so every memoized route stays exact over the refreshed
    /// views and keeps serving with zero re-planning.
    ///
    /// On error (an edit targeting a dead node, or deleting the root) the
    /// document and every view are left exactly as they were: the edits
    /// applied before the invalid one are undone in place, in reverse, and
    /// the undo gives back the arena slots and child ranges they took, so
    /// even the next graft's ids are those it would have had.
    pub fn apply_edits(&self, edits: &[Edit]) -> Result<UpdateReport, EditError> {
        let mut span = Span::begin("cache.update");
        // Serialize writers on the gate; the gate holder is the only
        // mutator, so the snapshot below cannot go stale beneath us while
        // we maintain it off-lock, and the document is ours to edit.
        let mut doc = self.write_gate.lock().expect("write gate poisoned");
        // In flight from here; the guard beats when the batch completes
        // (any exit path, including errors). A batch wedged past the
        // watchdog's stall window fires the `maintain` stall rule.
        let _hb = self.obs.hb_maintain.begin();
        let pause_us = self.maintain_pause_us.load(Ordering::Relaxed);
        if pause_us > 0 {
            std::thread::sleep(Duration::from_micros(pause_us));
        }
        let snap = self.snapshot();

        // The batch is applied to the gate's document in place, after room
        // for its grafts is reserved; an invalid edit rolls it back there.
        let t = Instant::now();
        doc.reserve_for(edits.iter().filter_map(Edit::graft));
        let defs: Vec<&Pattern> = snap.views.iter().map(|v| v.definition()).collect();
        let old: Vec<&BitSet> = snap.views.iter().map(|v| v.set()).collect();
        let prep = prepare_batch(&mut doc, edits)?;
        let apply_us = t.elapsed().as_micros() as u64;

        // The post-batch snapshot, derived from the published one before
        // maintenance (booked as `freeze`): it drives the spine comparison
        // and the region scans and is the snapshot the swap publishes.
        let t = Instant::now();
        let new_flat = Arc::new(snap.flat.derive(&doc, &prep.touched_slots()));
        let freeze_us = t.elapsed().as_micros() as u64;

        // Diff spines as bits of the two snapshots and merge the regions.
        let t = Instant::now();
        let mut after = FlatSpines::new(&new_flat, &defs);
        let plan = coalesce_plan(&defs, &prep, &mut FlatSpines::new(&snap.flat, &defs), &mut after);
        let tasks = plan.region_tasks();
        let coalesce_us = t.elapsed().as_micros() as u64;

        // Scan the disjoint merged regions with the comparison's scanners.
        let t = Instant::now();
        let results = scan_regions_flat(&mut after, &tasks);
        let scan_us = t.elapsed().as_micros() as u64;

        // Patch the answer sets from the scans' slot lists; `None` marks a
        // view whose set did not change: it is never copied, and keeps its
        // set at the width of the arena it was computed on.
        let t_patch = Instant::now();
        let mut maintain =
            MaintainStats { apply_us, freeze_us, coalesce_us, scan_us, ..plan.stats };
        let n1 = new_flat.arena_len();
        let fresh = |v: usize| evaluate_flat(defs[v], &new_flat);
        let patched = apply_region_results(n1, &prep, &old, &plan, &results, fresh, &mut maintain);
        drop(after);
        drop((defs, old));

        // Publication, the tail of the `patch` phase: share every unchanged
        // view with the previous pool, re-allocate the changed ones.
        let views_changed = patched.iter().flatten().count();
        let new_views = if views_changed > 0 {
            let mut views: Vec<Arc<MaterializedView>> = (*snap.views).clone();
            for (view, set) in views.iter_mut().zip(patched) {
                if let Some(set) = set {
                    *view = Arc::new(view.with_set(set));
                }
            }
            Arc::new(views)
        } else {
            Arc::clone(&snap.views)
        };
        {
            // The only work under the state lock is the pointer swap:
            // readers block for the `Arc` stores, never for maintenance.
            let mut state = self.state.write().expect("cache state poisoned");
            state.views = new_views;
            state.flat = new_flat;
        }
        let doc_version = self.doc_version.fetch_add(1, Ordering::Relaxed) + 1;
        // Usually the last reference to the replaced snapshot's columns:
        // their release ends the publication.
        drop(snap);
        maintain.patch_us = t_patch.elapsed().as_micros() as u64;

        self.updates_applied.fetch_add(edits.len() as u64, Ordering::Relaxed);
        self.maintain_totals.lock().expect("maintain totals poisoned").add(&maintain);
        // Per-batch phase distributions (the histograms behind the
        // lifetime sums above), plus a sampled maintenance span carrying
        // the same externally-timed phases.
        self.obs.maintain_apply_us.record(maintain.apply_us);
        self.obs.maintain_freeze_us.record(maintain.freeze_us);
        self.obs.maintain_coalesce_us.record(maintain.coalesce_us);
        self.obs.maintain_scan_us.record(maintain.scan_us);
        self.obs.maintain_patch_us.record(maintain.patch_us);
        if span.is_enabled() {
            span.mark_us(Phase::Apply, maintain.apply_us);
            span.mark_us(Phase::Freeze, maintain.freeze_us);
            span.mark_us(Phase::Coalesce, maintain.coalesce_us);
            span.mark_us(Phase::Scan, maintain.scan_us);
            span.mark_us(Phase::Patch, maintain.patch_us);
        }
        span.finish();
        Ok(UpdateReport {
            edits_applied: edits.len(),
            doc_version,
            views_changed,
            routes_dropped: 0,
            maintain,
        })
    }

    /// Lifetime statistics. The containment oracle keeps its own:
    /// `session().oracle().stats()`.
    pub fn stats(&self) -> CacheStats {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let c = &self.counters;
        CacheStats {
            queries: load(&c.queries),
            view_hits: load(&c.view_hits),
            intersect_hits: load(&c.intersect_hits),
            direct: load(&c.direct),
            intersect_routes: load(&c.intersect_routes),
            intersect_candidates_tried: load(&c.intersect_candidates_tried),
            intersect_participants: load(&c.intersect_participants),
            sig_rejects: load(&c.sig_rejects),
            sig_passes: load(&c.sig_passes),
            plan_memo_hits: load(&c.plan_memo_hits),
            plan_memo_misses: load(&c.plan_memo_misses),
            batch_dedup_hits: load(&c.batch_dedup_hits),
            plan_memo_evictions: self.memo.read().expect("plan memo poisoned").routes.evicted(),
            plan_memo_invalidations: load(&c.plan_memo_invalidations),
            updates_applied: load(&self.updates_applied),
            snapshot_read_stalls: load(&self.snapshot_read_stalls),
            maintain: *self.maintain_totals.lock().expect("maintain totals poisoned"),
        }
    }

    /// The cache's metric [`Registry`] (latency histograms live here).
    /// Benchmarks hold histogram handles from it and diff snapshots
    /// around a run; the serving front-end records its own phase
    /// histograms into the same registry.
    pub fn obs_registry(&self) -> &Arc<Registry> {
        &self.obs.registry
    }

    /// Fault injection for watchdog tests: every subsequent
    /// [`ShardedViewCache::apply_edits`] batch sleeps for `pause` while
    /// holding the write gate (with the maintenance heartbeat in flight),
    /// simulating a wedged maintenance pass. Pass `Duration::ZERO` to
    /// disable. Not part of the public API contract.
    #[doc(hidden)]
    pub fn inject_maintain_pause_for_tests(&self, pause: Duration) {
        self.maintain_pause_us.store(pause.as_micros() as u64, Ordering::Relaxed);
    }

    /// Every cache-side metric as one sorted [`MetricsSnapshot`]:
    /// the registry's latency histograms plus the `xpv_oracle_*`,
    /// `xpv_cache_*`, and `xpv_maintain_*` counter families (each
    /// enumerated by its stats struct's canonical `visit`, so the
    /// snapshot, the wire frame, and the `Display` impls share one
    /// naming authority).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.obs.registry.snapshot();
        self.session.oracle().stats().visit(&mut |name, v| {
            snap.push_counter(format!("xpv_oracle_{name}"), v);
        });
        let stats = self.stats();
        stats.visit(&mut |name, v| {
            snap.push_counter(format!("xpv_cache_{name}"), v);
        });
        stats.maintain.visit(&mut |name, v| {
            snap.push_counter(format!("xpv_maintain_{name}"), v);
        });
        // `//` steps are range fills inside the ordered slots, climbs behind.
        let ordered = self.read_state().flat.ordered_len();
        snap.push_gauge("xpv_cache_flat_ordered_slots", ordered as u64);
        snap.sort();
        snap
    }

    /// Picks the route for `query`, whose fingerprint is `fingerprint`,
    /// consulting (and feeding) the plan memo.
    fn route_for(&self, query: &Pattern, fingerprint: u64) -> Arc<Planned> {
        // A hit in the current generation takes the read lock only; one in
        // the older generation takes the write lock once, to move it back.
        // Either counts only for the query the entry was planned for.
        let serves = |planned: &&Arc<Planned>| planned.query.structurally_eq(query);
        let memoized = (self.memo.read().expect("plan memo poisoned").routes)
            .get_current(&fingerprint)
            .filter(serves)
            .cloned();
        let memoized = memoized.or_else(|| {
            let mut memo = self.memo.write().expect("plan memo poisoned");
            memo.routes.get(&fingerprint).filter(serves).cloned()
        });
        if let Some(planned) = memoized {
            bump(&self.counters.plan_memo_hits);
            return planned;
        }
        bump(&self.counters.plan_memo_misses);
        // Load the version strictly *before* taking the snapshot we plan
        // against: any pool mutation (add/remove) completing after this
        // load bumps the version, so the memo insert below is skipped — a
        // route planned against a pre-mutation pool can never be
        // memoized after the invalidation sweep and survive it. (Planning
        // deliberately takes its own snapshot rather than reusing the
        // caller's, which may predate the version load.)
        let planned_at = self.views_version.load(Ordering::Acquire);
        let plan_snap = self.snapshot();
        let miss_start = Instant::now();
        let planned = Arc::new(Planned::new(query, self.plan(query, &plan_snap), &plan_snap));
        self.obs.plan_miss_us.record_duration(miss_start.elapsed());
        let mut memo = self.memo.write().expect("plan memo poisoned");
        if self.views_version.load(Ordering::Acquire) == planned_at
            && memo.routes.get(&fingerprint).filter(serves).is_none()
        {
            if let PlannedRoute::ViaView { id, .. } = planned.route {
                *memo.wins.entry(id).or_insert(0) += 1;
            }
            memo.routes.insert(fingerprint, Arc::clone(&planned), planned.heap());
        }
        planned
    }

    /// Plans `query` against the snapshot's view pool (no memo
    /// involvement): the single-view scan first, then — when no view
    /// suffices — the multi-view intersection planner.
    ///
    /// The scan is the **plan-miss fast path**. The query's
    /// [`QuerySignature`] and the labels each view depth must bring are
    /// computed once, and every pool candidate is first checked against its
    /// precomputed [`ViewSignature`] with a few word ops:
    ///
    /// * a pair the signature rejects provably admits no equivalent
    ///   rewriting;
    /// * a pair the labels refute
    ///   ([`QueryContext::refutes`](xpv_core::QueryContext::refutes))
    ///   provably has no natural candidate that verifies. That routes the
    ///   same: the engine plans `without_fallback` and routes verified
    ///   candidates only, so "no rewriting" and "unknown" both mean direct.
    ///
    /// Neither reaches the containment oracle, and both count in
    /// [`CacheStats::sig_rejects`]. The survivors' natural candidates are
    /// tested ([`QueryContext::verify`](xpv_core::QueryContext::verify)) in
    /// the win index's hit-rate order, so a plan usually pays one test, and
    /// the scan stops at the first verified rewriting. No gate or condition
    /// is computed: the signature already proved the gates.
    fn plan(&self, query: &Pattern, snap: &StateSnapshot) -> PlannedRoute {
        let views = &snap.views;
        if views.is_empty() {
            return PlannedRoute::Direct;
        }
        let anchors = snap.anchors.get_or_init(|| {
            let defs: Vec<&Pattern> = views.iter().map(|v| v.definition()).collect();
            AnchorTable::new(&defs)
        });
        // What depends on the query alone (its signature, the labels each
        // view depth must bring, the natural candidates per depth) is shared
        // by every pair below.
        let qsig = QuerySignature::of(query);
        let ctx = self.session.prepare(query);
        let live =
            |s: &ViewSignature| qsig.admits(s) && !ctx.refutes(s.depth as usize, s.label_mask);
        let mut order: Vec<usize> = (0..views.len()).filter(|&i| live(&snap.sigs[i])).collect();
        let rejected = (views.len() - order.len()) as u64;
        self.counters.sig_rejects.fetch_add(rejected, Ordering::Relaxed);
        self.counters.sig_passes.fetch_add(order.len() as u64, Ordering::Relaxed);
        // Winner-first try order (stable sort, pool order breaks ties): the
        // historically winning view is tested first, so a recurring miss
        // pattern costs one oracle call instead of a prefix scan.
        if order.len() > 1 {
            let memo = self.memo.read().expect("plan memo poisoned");
            if !memo.wins.is_empty() {
                order.sort_by_key(|&i| {
                    std::cmp::Reverse(memo.wins.get(&snap.ids[i]).copied().unwrap_or(0))
                });
            }
        }
        for &index in &order {
            let (v, k) = (views[index].definition(), snap.sigs[index].depth as usize);
            if let Some(cand) = ctx.verify(v, k, &mut CandidateTestStats::default()) {
                // The route is justified by this view alone (its rewriting
                // was verified pairwise), so it depends on that view's
                // presence — not on the scan order that found it.
                let (id, rewriting) = (snap.ids[index], cand.pattern.clone());
                return PlannedRoute::ViaView { id, hint: index, rewriting };
            }
        }
        // No single view rewrites the query: try a multi-view intersection.
        if views.len() >= 2 {
            let (answer, istats) = plan_intersection_sig(&self.session, &ctx, &qsig, anchors);
            let c = &self.counters;
            c.intersect_candidates_tried.fetch_add(istats.candidates_tried, Ordering::Relaxed);
            if let Some(answer) = answer {
                bump(&c.intersect_routes);
                c.intersect_participants.fetch_add(answer.views.len() as u64, Ordering::Relaxed);
                let ids = answer.views.iter().map(|&i| snap.ids[i]).collect();
                let compensation = answer.compensation;
                return PlannedRoute::Intersect { ids, hints: answer.views, compensation };
            }
        }
        PlannedRoute::Direct
    }

    /// Executes a planned route against the snapshot, writing the answer
    /// nodes into `arena` and returning their handle plus provenance. A
    /// route whose stable ids no longer resolve in the snapshot (its views
    /// were removed after the route was fetched) degrades to direct
    /// evaluation — always sound, since routed answers equal direct answers
    /// by construction.
    ///
    /// Evaluation runs through `batch`, the fused evaluator over the
    /// snapshot's frozen [`FlatTree`] that the whole batch shares (scratch
    /// buffers; branch witness sets are shared through the snapshot itself,
    /// by every caller): a view or intersection route seeds it with the
    /// participants' slot sets (word-ANDs, no anchor list), and the output
    /// set goes to the arena by move, its popcount in the handle.
    fn execute_refs(
        &self,
        query: &Pattern,
        planned: &Planned,
        snap: &StateSnapshot,
        batch: &mut BatchEval<'_>,
        arena: &mut AnswerArena,
    ) -> (AnswerRef, Arc<Route>) {
        match &planned.route {
            PlannedRoute::ViaView { id, hint, rewriting } => {
                if let Some(index) = snap.resolve(*id, *hint) {
                    bump(&self.counters.view_hits);
                    let anchors = [snap.views[index].set()];
                    let nodes = batch.evaluate_seeded_into(rewriting, anchors, arena);
                    return (nodes, Arc::clone(&planned.display));
                }
            }
            PlannedRoute::Intersect { ids, hints, compensation } => {
                let resolved = || ids.iter().zip(hints).map(|(&id, &hint)| snap.resolve(id, hint));
                if resolved().all(|index| index.is_some()) {
                    bump(&self.counters.intersect_hits);
                    let anchors = resolved().flatten().map(|index| snap.views[index].set());
                    let nodes = batch.evaluate_seeded_into(compensation, anchors, arena);
                    return (nodes, Arc::clone(&planned.display));
                }
            }
            PlannedRoute::Direct => {
                bump(&self.counters.direct);
                return (batch.evaluate_into(query, arena), Arc::clone(&planned.display));
            }
        }
        // A participant no longer resolves in this snapshot.
        bump(&self.counters.direct);
        (batch.evaluate_into(query, arena), Arc::new(Route::Direct))
    }

    /// Answers `query`, preferring an equivalent rewriting over any
    /// registered view and falling back to direct evaluation. When several
    /// views apply, the first verified one (in the win index's try order)
    /// wins.
    ///
    /// From its second occurrence on, a query's route is served from the
    /// plan memo under a shared read lock: no planner call and **zero**
    /// canonical-model containment calls
    /// ([`CacheStats::plan_memo_hits`] counts these).
    pub fn answer(&self, query: &Pattern) -> CacheAnswer {
        let mut arena = AnswerArena::new();
        let answers = self.answer_batch_refs_inner(std::slice::from_ref(query), &mut arena);
        answers[0].copy_out(&arena)
    }

    /// Routes and executes one query against a caller-held snapshot through
    /// the batch's fused evaluator (bound to that snapshot), nodes written
    /// into `arena`. One consistent document+views snapshot serves both
    /// planning and evaluation.
    fn answer_on_refs(
        &self,
        query: &Pattern,
        fingerprint: u64,
        snap: &StateSnapshot,
        batch: &mut BatchEval<'_>,
        arena: &mut AnswerArena,
    ) -> CacheAnswerRef {
        let plan_start = Instant::now();
        let planned = self.route_for(query, fingerprint);
        bump(&self.counters.queries);
        let planning = plan_start.elapsed();

        let eval_start = Instant::now();
        let (nodes, route) = self.execute_refs(query, &planned, snap, batch, arena);
        let evaluation = eval_start.elapsed();
        self.obs.plan_us.record_duration(planning);
        self.obs.eval_us.record_duration(evaluation);
        CacheAnswerRef { nodes, route, planning, evaluation }
    }

    /// Answers a whole workload slice in one pass; answers come back in
    /// input order.
    ///
    /// Queries repeated **within the batch** (including sibling-reordered
    /// isomorphs) are answered once and fanned out: the repeat positions
    /// receive a copy of the first occurrence's answer (with zeroed
    /// timings) without re-running even the plan-memo lookup. Fan-outs
    /// count as [`CacheStats::plan_memo_hits`] and
    /// [`CacheStats::batch_dedup_hits`].
    ///
    /// This is [`ShardedViewCache::answer_batch_refs`] with every answer
    /// set collected out of a private arena into an owned `Vec`.
    pub fn answer_batch(&self, queries: &[Pattern]) -> Vec<CacheAnswer> {
        let mut span = Span::begin("cache.batch");
        let mut arena = AnswerArena::new();
        let answers = self.answer_batch_refs_spanned(queries, &mut span, &mut arena);
        let answers = answers.iter().map(|a| a.copy_out(&arena)).collect();
        span.finish();
        answers
    }

    /// The engine's batch entry point, the **arena lane**: the answers'
    /// slot sets are stored in the caller's `arena` (cleared first), and
    /// each [`CacheAnswerRef`] holds an 8-byte handle plus an `Arc`'d
    /// route. No node list is built unless a caller asks the arena for one
    /// ([`AnswerArena::get`]). On the memoized hot path — route from the
    /// plan memo, fused flat evaluation — a warm arena hands its last
    /// batch's sets back as buffers, so an answer allocates nothing;
    /// batch-deduplicated repeats share the first occurrence's set outright
    /// (the handle is `Copy`). The owned API
    /// ([`ShardedViewCache::answer_batch`]) is a copy-out wrapper over this
    /// call, so nodes, routes, and counter effects are the same by
    /// construction.
    pub fn answer_batch_refs(
        &self,
        queries: &[Pattern],
        arena: &mut AnswerArena,
    ) -> Vec<CacheAnswerRef> {
        let mut span = Span::begin("cache.batch");
        let answers = self.answer_batch_refs_spanned(queries, &mut span, arena);
        span.finish();
        answers
    }

    /// [`ShardedViewCache::answer_batch_refs`] with a caller-owned trace
    /// [`Span`]: the batch's aggregate plan and eval phase times are
    /// marked onto `span` (when it is enabled), letting a serving
    /// front-end thread one request-lifecycle span through admission,
    /// routing, evaluation, encoding, and flush. The batch-level latency
    /// histograms record regardless of the span.
    pub fn answer_batch_refs_spanned(
        &self,
        queries: &[Pattern],
        span: &mut Span,
        arena: &mut AnswerArena,
    ) -> Vec<CacheAnswerRef> {
        let batch_start = Instant::now();
        let answers = self.answer_batch_refs_inner(queries, arena);
        self.obs.batch_us.record_duration(batch_start.elapsed());
        if span.is_enabled() {
            let plan: Duration = answers.iter().map(|a| a.planning).sum();
            let eval: Duration = answers.iter().map(|a| a.evaluation).sum();
            span.mark_us(Phase::Plan, plan.as_micros() as u64);
            span.mark_us(Phase::Eval, eval.as_micros() as u64);
        }
        answers
    }

    fn answer_batch_refs_inner(
        &self,
        queries: &[Pattern],
        arena: &mut AnswerArena,
    ) -> Vec<CacheAnswerRef> {
        self.answer_batch_keyed(queries, Pattern::fingerprint, arena)
    }

    /// The batch path with each query's key taken from `fingerprint`, which
    /// is [`Pattern::fingerprint`] everywhere but in the tests that force a
    /// collision: the plan memo and the batch dedup both confirm a key
    /// match with [`Pattern::structurally_eq`].
    fn answer_batch_keyed(
        &self,
        queries: &[Pattern],
        fingerprint: impl Fn(&Pattern) -> u64,
        arena: &mut AnswerArena,
    ) -> Vec<CacheAnswerRef> {
        arena.clear();
        // One consistent snapshot serves the whole batch, and one batch
        // evaluator shares scratch buffers across every deduped survivor.
        let snap = self.snapshot();
        let mut fused = BatchEval::new(&snap.flat);
        let mut answers: Vec<CacheAnswerRef> = Vec::with_capacity(queries.len());
        let mut first_seen: HashMap<u64, usize> = HashMap::new();
        for (i, query) in queries.iter().enumerate() {
            let key = fingerprint(query);
            // A repeat of the key's first query in the batch (a
            // sibling-reordered isomorph included) shares its answer; a
            // query that only shares its fingerprint is answered on its own.
            match first_seen.get(&key).filter(|&&j| queries[j].structurally_eq(query)) {
                Some(&j) => {
                    let original = &answers[j];
                    let fanned = CacheAnswerRef {
                        nodes: original.nodes,
                        route: Arc::clone(&original.route),
                        planning: Duration::ZERO,
                        evaluation: Duration::ZERO,
                    };
                    bump(&self.counters.queries);
                    bump(&self.counters.plan_memo_hits);
                    bump(&self.counters.batch_dedup_hits);
                    match *fanned.route {
                        Route::ViaView { .. } => bump(&self.counters.view_hits),
                        Route::Intersect { .. } => bump(&self.counters.intersect_hits),
                        Route::Direct => bump(&self.counters.direct),
                    }
                    answers.push(fanned);
                }
                None => {
                    first_seen.entry(key).or_insert(i);
                    answers.push(self.answer_on_refs(query, key, &snap, &mut fused, arena));
                }
            }
        }
        answers
    }

    /// Answers `query` by direct evaluation on the `Tree` only — the
    /// reference every routed answer must equal. Evaluates under the write
    /// gate, on the document of the last published batch.
    pub fn answer_direct(&self, query: &Pattern) -> Vec<NodeId> {
        evaluate(query, &self.write_gate.lock().expect("write gate poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_model::TreeBuilder;
    use xpv_pattern::parse_xpath;
    use xpv_semantics::evaluate_flat;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    /// Canonical-model loops (coNP containment work) the cache's oracle has
    /// run so far: flat across an answer ⇔ that answer planned nothing.
    fn canonical_runs(cache: &ShardedViewCache) -> u64 {
        cache.session().oracle().stats().canonical_runs
    }

    fn doc() -> Tree {
        TreeBuilder::root("site", |b| {
            for _ in 0..3 {
                b.child("region", |b| {
                    b.child("item", |b| {
                        b.leaf("name");
                        b.child("desc", |b| {
                            b.leaf("keyword");
                        });
                    });
                    b.child("item", |b| {
                        b.leaf("name");
                    });
                });
            }
        })
    }

    #[test]
    fn view_hit_produces_correct_answer() {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        let q = pat("site/region/item/name");
        let ans = cache.answer(&q);
        assert_eq!(ans.nodes, cache.answer_direct(&q));
        match ans.route {
            Route::ViaView { view, .. } => assert_eq!(view, "items"),
            other => panic!("expected view hit, got {other:?}"),
        }
        assert_eq!(cache.stats().view_hits, 1);
    }

    #[test]
    fn miss_falls_back_to_direct() {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("names", pat("site/region/item/name"));
        // Query output lies above the view output: no rewriting can exist.
        let q = pat("site/region/item[name]");
        let ans = cache.answer(&q);
        assert_eq!(ans.route, Route::Direct);
        assert_eq!(ans.nodes, cache.answer_direct(&q));
        assert_eq!(cache.stats().direct, 1);
    }

    #[test]
    fn a_pattern_at_the_branch_depth_bound_is_answered_like_any_other() {
        // The deepest predicate nest the parser admits (deeper is a parse
        // error, so nothing deeper arrives by text), over a document it
        // matches: printed, interned, planned against views it can and
        // cannot use, and answered — on the default 2 MiB test stack.
        use xpv_pattern::MAX_BRANCH_DEPTH;
        let mut t = Tree::new(xpv_model::Label::new("a"));
        let mut tip = t.root();
        for _ in 0..MAX_BRANCH_DEPTH {
            t.add_child(tip, xpv_model::Label::new("c"));
            tip = t.add_child(tip, xpv_model::Label::new("b"));
        }
        let nest = |n: usize| format!("a{}{}/c", "[b".repeat(n), "]".repeat(n));
        let cache = ShardedViewCache::new(t.clone());
        cache.add_view("deep", pat(&nest(MAX_BRANCH_DEPTH - 1)));
        cache.add_view("cs", pat("a//c"));
        for n in [MAX_BRANCH_DEPTH, MAX_BRANCH_DEPTH - 1] {
            let q = pat(&nest(n));
            assert!(pat(&q.to_string()).structurally_eq(&q));
            let ans = cache.answer(&q);
            assert_eq!(ans.nodes, xpv_semantics::evaluate(&q, &t), "nest {n}");
            assert_eq!(ans.nodes, vec![NodeId(1)]);
            assert_eq!(cache.answer(&q).nodes, ans.nodes, "memoized route");
        }
        assert!(parse_xpath(&nest(MAX_BRANCH_DEPTH + 1)).is_err());
    }

    #[test]
    fn first_usable_view_wins() {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("regions", pat("site/region"));
        cache.add_view("items", pat("site/region/item"));
        let q = pat("site/region/item[desc/keyword]/name");
        let ans = cache.answer(&q);
        match &ans.route {
            Route::ViaView { view, .. } => assert_eq!(view, "regions"),
            other => panic!("expected view hit, got {other:?}"),
        }
        assert_eq!(ans.nodes, cache.answer_direct(&q));
    }

    #[test]
    #[should_panic(expected = "duplicate view name")]
    fn duplicate_view_names_rejected() {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("v", pat("site/region"));
        cache.add_view("v", pat("site/region/item"));
    }

    #[test]
    fn deep_descendant_query_via_descendant_view() {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("all_items", pat("site//item"));
        let q = pat("site//item/desc/keyword");
        let ans = cache.answer(&q);
        match &ans.route {
            Route::ViaView { view, rewriting } => {
                assert_eq!(view, "all_items");
                assert_eq!(rewriting, "item/desc/keyword");
            }
            other => panic!("expected view hit, got {other:?}"),
        }
        assert_eq!(ans.nodes, cache.answer_direct(&q));
        assert_eq!(ans.nodes.len(), 3);
    }

    #[test]
    fn repeated_queries_hit_the_plan_memo_with_zero_conp_work() {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        let q = pat("site/region/item/name");

        let first = cache.answer(&q);
        let after_first = cache.stats();
        let oracle_after_first = cache.session().oracle().stats();
        assert_eq!(after_first.plan_memo_hits, 0);
        assert_eq!(after_first.plan_memo_misses, 1);

        let second = cache.answer(&q);
        let oracle_after_second = cache.session().oracle().stats();
        assert_eq!(cache.stats().plan_memo_hits, 1, "second occurrence must memo-hit");
        assert_eq!(
            oracle_after_second.canonical_runs, oracle_after_first.canonical_runs,
            "repeat answer must perform zero canonical-model containment calls"
        );
        assert_eq!(oracle_after_second.models_checked, oracle_after_first.models_checked);
        assert_eq!(first.nodes, second.nodes);
        assert_eq!(first.route, second.route);

        // A sibling-reordered isomorph of a seen query also memo-hits.
        let cache2 = ShardedViewCache::new(doc());
        cache2.add_view("items", pat("site/region/item"));
        let _ = cache2.answer(&pat("site/region[item]/item[name][desc]/name"));
        let runs = canonical_runs(&cache2);
        let _ = cache2.answer(&pat("site/region[item]/item[desc][name]/name"));
        assert_eq!(cache2.stats().plan_memo_hits, 1);
        assert_eq!(canonical_runs(&cache2), runs);
    }

    #[test]
    fn batch_answers_match_singles_and_amortize() {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        let qs = vec![
            pat("site/region/item/name"),
            pat("site//keyword"),
            pat("site/region/item/name"),
            pat("site/region/item/name"),
            pat("site//keyword"),
        ];
        let answers = cache.answer_batch(&qs);
        assert_eq!(answers.len(), qs.len());
        for (q, a) in qs.iter().zip(&answers) {
            assert_eq!(a.nodes, cache.answer_direct(q), "batch answer wrong for {q}");
        }
        let s = cache.stats();
        assert_eq!(s.queries, 5);
        assert_eq!(s.plan_memo_misses, 2, "two distinct queries planned once each");
        assert_eq!(s.plan_memo_hits, 3);
        assert_eq!(s.batch_dedup_hits, 3, "all three repeats fanned out without a lookup");
    }

    /// ROADMAP item 1a: with the Proposition 3.4 brute force on the serving
    /// path this pair (`workload::no_condition_instance(1)`) held a worker
    /// for 3 s and 21 557 oracle questions; gates, candidates and conditions
    /// ask 2. Asserted on oracle work, not wall time.
    #[test]
    fn a_pair_no_condition_settles_routes_direct_without_a_search() {
        let t = TreeBuilder::root("a", |b| {
            b.child("x", |b| {
                b.child("y", |b| {
                    b.leaf("m");
                });
            });
        });
        let cache = ShardedViewCache::new(t);
        cache.add_view("v", pat("a//*/*"));
        let q = pat("a//*[*/m]/*[*/m]//*[m]");
        let asked_before = cache.session().oracle().stats().queries;
        let ans = cache.answer(&q);
        let asked = cache.session().oracle().stats().queries - asked_before;
        assert_eq!(ans.route, Route::Direct);
        assert_eq!(ans.nodes, cache.answer_direct(&q));
        assert!(asked <= 100, "planning asked the oracle {asked} times");
    }

    #[test]
    fn concurrent_answers_match_serial_answers() {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        cache.add_view("names", pat("site/region/item/name"));
        let queries: Vec<Pattern> = [
            "site/region/item/name",
            "site//keyword",
            "site/region/item[desc]/name",
            "site/region/item",
        ]
        .iter()
        .map(|s| pat(s))
        .collect();
        let expected: Vec<Vec<NodeId>> = queries.iter().map(|q| cache.answer_direct(q)).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..5 {
                        for (q, want) in queries.iter().zip(&expected) {
                            assert_eq!(&cache.answer(q).nodes, want, "wrong answer for {q}");
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.queries, 4 * 5 * queries.len() as u64);
        assert_eq!(s.queries, s.plan_memo_hits + s.plan_memo_misses);
        assert!(s.plan_memo_hits > 0);
    }

    #[test]
    fn add_view_keeps_view_routes() {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("names", pat("site/region/item/name"));
        let via_view = pat("site/region/item/name");
        let direct = pat("site/region/item");
        assert!(matches!(cache.answer(&via_view).route, Route::ViaView { .. }));
        assert_eq!(cache.answer(&direct).route, Route::Direct);
        assert_eq!(cache.plan_memo().entries, 2);

        let runs_before = canonical_runs(&cache);
        cache.add_view("items", pat("site/region/item"));

        // Only the Direct entry was invalidated.
        assert_eq!(cache.plan_memo().entries, 1);
        assert_eq!(cache.stats().plan_memo_invalidations, 1);

        // The surviving ViaView route serves from the memo: zero coNP work.
        assert!(matches!(cache.answer(&via_view).route, Route::ViaView { .. }));
        assert_eq!(canonical_runs(&cache), runs_before);
        // The Direct query replans and picks up the new view.
        match cache.answer(&direct).route {
            Route::ViaView { view, .. } => assert_eq!(view, "items"),
            other => panic!("expected the fresh view to serve, got {other:?}"),
        }
    }

    #[test]
    fn a_replan_after_add_view_asks_the_oracle_about_the_new_pair_only() {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("any_items", pat("site/*/item"));
        let q = pat("site/region/item/name");
        let asked = || cache.session().oracle().stats().queries;
        assert_eq!(cache.answer(&q).route, Route::Direct);
        // `region` is in neither the view nor q's candidates: the filter
        // refutes the pair by its labels, without the oracle.
        assert_eq!((asked(), cache.stats().sig_rejects), (0, 1));

        // The add invalidates the Direct route; the re-plan refutes
        // (q, any_items) again and tests (q, items) for the first time.
        let new_view = pat("site/region/item");
        cache.add_view("items", new_view.clone());
        let ans = cache.answer(&q);
        assert!(matches!(ans.route, Route::ViaView { .. }), "{:?}", ans.route);
        assert_eq!(ans.nodes, cache.answer_direct(&q));
        // The re-plan asks the oracle what a fresh session asks for the new
        // pair alone.
        let fresh = cache.session().planner().session();
        fresh.decide(&q, &new_view);
        assert!(fresh.oracle().stats().queries > 0, "the new pair needs the oracle");
        assert_eq!(asked(), fresh.oracle().stats().queries);
        assert_eq!(cache.stats().sig_rejects, 2, "the old pair is refuted again");
    }

    /// The `i`-th of a million distinct queries `u/dX/dX/dX/dX/dX/dX`,
    /// spelled in eleven labels none of [`doc`]'s views use.
    fn distinct(i: usize) -> Pattern {
        let steps: Vec<String> = format!("{i:06}").chars().map(|d| format!("d{d}")).collect();
        pat(&format!("u/{}", steps.join("/")))
    }

    #[test]
    fn the_plan_memo_bound_holds_and_evicts_whole_generations() {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        let half = PLAN_MEMO_MAX_ENTRIES / 2;
        let n = 2 * PLAN_MEMO_MAX_ENTRIES + 1;
        for i in 0..n {
            let _ = cache.answer(&distinct(i));
            let held = cache.plan_memo();
            assert!(held.entries <= PLAN_MEMO_MAX_ENTRIES, "bound must hold after every insert");
            assert!(held.bytes <= PLAN_MEMO_MAX_BYTES, "{} bytes", held.bytes);
        }
        // The current generation flips every `half` inserts; each flip
        // after the first drops a full older generation.
        let flips = (n - 1) / half;
        let s = cache.stats();
        assert_eq!(s.plan_memo_evictions, ((flips - 1) * half) as u64);
        assert_eq!(s.plan_memo_misses, n as u64);
        assert_eq!(cache.plan_memo().entries, n - (flips - 1) * half);
        // The memo still answers correctly after evictions: an evicted
        // query is planned again, a held one is served.
        for (i, planned) in [(0, 1), (n - 1, 0)] {
            let q = distinct(i);
            let misses = cache.stats().plan_memo_misses;
            assert_eq!(cache.answer(&q).nodes, cache.answer_direct(&q));
            assert_eq!(cache.stats().plan_memo_misses, misses + planned, "query {i}");
        }
    }

    #[test]
    fn the_win_index_forgets_removed_views() {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        cache.add_view("keywords", pat("site//keyword"));
        let q = pat("site/region/item/name");
        for round in 0..100 {
            // The replacement takes a fresh id and drops the route through
            // the old one; the re-plan credits the new id with a win.
            cache.replace_view("items", pat("site/region/item"));
            assert!(matches!(cache.answer(&q).route, Route::ViaView { .. }));
            let wins = cache.memo.read().expect("plan memo poisoned").wins.len();
            let pool = cache.views_snapshot().len();
            assert!(wins <= pool, "round {round}: {wins} win entries for {pool} views");
        }
    }

    #[test]
    fn a_query_the_memo_evicted_is_a_miss_never_a_wrong_answer() {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        let q = pat("site/region/item/name");
        let first = cache.answer(&q);
        assert!(matches!(first.route, Route::ViaView { .. }));

        // A flood of distinct queries past the bound: two flips pass `q`'s
        // entry by, and it is dropped with its generation.
        for i in 0..PLAN_MEMO_MAX_ENTRIES {
            let _ = cache.answer(&distinct(i));
        }
        assert!(cache.stats().plan_memo_evictions > 0);

        // `q` is planned again, to the same route, and stored anew.
        let misses = cache.stats().plan_memo_misses;
        let again = cache.answer(&q);
        assert_eq!(cache.stats().plan_memo_misses, misses + 1);
        assert_eq!(again.nodes, cache.answer_direct(&q));
        assert_eq!(again.route, first.route);
        let hits = cache.stats().plan_memo_hits;
        assert_eq!(cache.answer(&q).route, first.route);
        assert_eq!(cache.stats().plan_memo_hits, hits + 1, "stored anew");

        // Nothing the flood left behind is served for another pattern:
        // every query the memo does not hold is planned and answered exactly.
        for text in ["site/region/item", "site//keyword", "site/region/item[desc]/name", "site"] {
            let p = pat(text);
            let misses = cache.stats().plan_memo_misses;
            let ans = cache.answer(&p);
            assert_eq!(cache.stats().plan_memo_misses, misses + 1, "{text}");
            assert_eq!(ans.nodes, cache.answer_direct(&p), "{text}");
        }
    }

    #[test]
    fn every_planning_table_stays_within_its_bounds() {
        let n = 6 * PLAN_MEMO_MAX_ENTRIES;
        // A document holding the paths of a few of the distinct queries, so
        // some answers are not empty.
        let hits: Vec<usize> = (0..40).map(|j| j * n / 40).collect();
        let mut t = Tree::new(xpv_model::Label::new("u"));
        for &i in &hits {
            let mut at = t.root();
            for d in format!("{i:06}").chars() {
                at = t.add_child(at, xpv_model::Label::new(&format!("d{d}")));
            }
        }
        let cache = ShardedViewCache::new(t);
        // The view rewrites every query with one cheap test (`P ∘ u = P`,
        // settled by homomorphisms), so a plan is constant work and each
        // query adds one route holding its query.
        cache.add_view("u", pat("u"));
        let mut routed = 0;
        for start in (0..n).step_by(64) {
            let batch: Vec<Pattern> = (start..(start + 64).min(n)).map(distinct).collect();
            for (q, ans) in batch.iter().zip(cache.answer_batch(&batch)) {
                assert_eq!(ans.nodes, cache.answer_direct(q), "{q}");
                routed += usize::from(!ans.nodes.is_empty());
            }
            let held = cache.plan_memo();
            assert!(held.entries <= PLAN_MEMO_MAX_ENTRIES, "plan memo: {held:?} after {start}");
            assert!(held.bytes <= PLAN_MEMO_MAX_BYTES, "plan memo: {held:?} after {start}");
        }
        assert_eq!(routed, hits.len(), "each query on the document's paths has its one answer");
        let s = cache.stats();
        assert_eq!(s.plan_memo_misses, n as u64);
        assert_eq!(s.view_hits, n as u64);
        assert!(s.plan_memo_evictions > 0);
        assert!(cache.plan_memo().entries < n);
    }

    /// Every query of a batch under one forced fingerprint: the memo and
    /// the batch dedup must confirm each key match, so a non-isomorph is
    /// planned and answered on its own and an isomorph still shares.
    #[test]
    fn a_forced_fingerprint_collision_costs_a_plan_never_a_wrong_route() {
        let collide = |_: &Pattern| 0x5EED;
        let queries: Vec<Pattern> = [
            "site/region/item/name",
            "site//keyword",
            "site/region/item[name][desc]",
            "site/region/item[desc][name]",
            "site/region[item]",
            "site/region/item/name",
        ]
        .iter()
        .map(|s| pat(s))
        .collect();
        let cache = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        cache.add_view("keywords", pat("site//keyword"));
        // The routes an engine keyed by real fingerprints plans.
        let reference = ShardedViewCache::new(doc());
        reference.add_view("items", pat("site/region/item"));
        reference.add_view("keywords", pat("site//keyword"));
        let check = |answers: &[CacheAnswerRef], arena: &AnswerArena| {
            for (q, ans) in queries.iter().zip(answers) {
                assert_eq!(arena.to_vec(ans.nodes), cache.answer_direct(q), "{q}");
                assert_eq!(*ans.route, reference.answer(q).route, "{q}");
            }
        };
        let mut arena = AnswerArena::new();
        let answers = cache.answer_batch_keyed(&queries, collide, &mut arena);
        check(&answers, &arena);
        // The dedup confirms against the key's first query of the batch
        // (0): the repeat (5) shares its answer, the rest is answered on
        // its own. The memo holds one entry under the key, the last planned
        // query's: 0, 1, 2 and 4 miss, and the reordered isomorph (3) hits
        // the entry 2 just stored.
        let counts = |s: CacheStats| (s.batch_dedup_hits, s.plan_memo_hits, s.plan_memo_misses);
        assert_eq!(counts(cache.stats()), (1, 2, 4));
        assert_eq!(cache.plan_memo().entries, 1);
        let answers = cache.answer_batch_keyed(&queries, collide, &mut arena);
        check(&answers, &arena);
        assert_eq!(counts(cache.stats()), (2, 4, 8), "each entry is replaced, none misused");
        // Under real fingerprints the four distinct queries are planned once
        // each, beside the forced key's entry, and both isomorphs share.
        let answers = cache.answer_batch_refs(&queries, &mut arena);
        check(&answers, &arena);
        assert_eq!(counts(cache.stats()), (4, 6, 12));
        assert_eq!(cache.plan_memo().entries, 5);
    }

    #[test]
    fn batch_dedup_fans_out_identical_queries() {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        let q = pat("site/region/item/name");
        let batch = vec![q.clone(), q.clone(), q.clone()];
        let answers = cache.answer_batch(&batch);
        assert_eq!(answers.len(), 3);
        for a in &answers {
            assert_eq!(a.nodes, answers[0].nodes);
            assert_eq!(a.route, answers[0].route);
        }
        let s = cache.stats();
        assert_eq!(s.queries, 3);
        assert_eq!(s.plan_memo_misses, 1, "planned exactly once");
        assert_eq!(s.batch_dedup_hits, 2);
        assert_eq!(s.plan_memo_hits, 2);
        assert_eq!(s.view_hits, 3, "every position counts toward its route");
    }

    #[test]
    fn stats_display_is_one_line() {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        let _ = cache.answer(&pat("site/region/item/name"));
        let line = cache.stats().to_string();
        assert!(line.contains("queries"), "got: {line}");
        assert!(line.contains("intersect"), "got: {line}");
        assert!(!line.contains('\n'));
    }

    /// A document where bids-only, shipping-only and bids+shipping items
    /// coexist, so the intersection is a strict subset of each view.
    fn overlap_doc() -> Tree {
        TreeBuilder::root("site", |b| {
            b.child("region", |b| {
                b.child("item", |b| {
                    b.leaf("name");
                    b.leaf("bids");
                });
                b.child("item", |b| {
                    b.leaf("name");
                    b.leaf("shipping");
                });
                b.child("item", |b| {
                    b.leaf("name");
                    b.leaf("bids");
                    b.leaf("shipping");
                });
            });
        })
    }

    fn overlap_cache() -> ShardedViewCache {
        let cache = ShardedViewCache::new(overlap_doc());
        cache.add_view("bid_names", pat("site/region/item[bids]/name"));
        cache.add_view("ship_names", pat("site/region/item[shipping]/name"));
        cache
    }

    #[test]
    fn jointly_sufficient_views_serve_via_intersection() {
        let cache = overlap_cache();
        let q = pat("site/region/item[bids][shipping]/name");
        let ans = cache.answer(&q);
        match &ans.route {
            Route::Intersect { views, compensation } => {
                assert_eq!(views, &["bid_names", "ship_names"]);
                assert_eq!(compensation, "name");
            }
            other => panic!("expected an intersection route, got {other:?}"),
        }
        assert_eq!(ans.nodes, cache.answer_direct(&q), "intersection answer must be exact");
        assert_eq!(ans.nodes.len(), 1);
        let s = cache.stats();
        assert_eq!(s.intersect_hits, 1);
        assert_eq!(s.intersect_routes, 1);
        assert_eq!(s.intersect_participants, 2);
        assert!(s.intersect_candidates_tried >= 1);
    }

    #[test]
    fn intersection_routes_are_memoized_with_zero_conp_work() {
        let cache = overlap_cache();
        let q = pat("site/region/item[bids][shipping]/name");
        let first = cache.answer(&q);
        let runs = canonical_runs(&cache);
        let second = cache.answer(&q);
        assert_eq!(second.nodes, first.nodes);
        assert_eq!(second.route, first.route);
        let s = cache.stats();
        assert_eq!(s.plan_memo_hits, 1, "second ask must come from the plan memo");
        assert_eq!(
            canonical_runs(&cache),
            runs,
            "second ask must run zero canonical-model containment calls"
        );
        assert_eq!(s.intersect_routes, 1, "the route was planned exactly once");
    }

    #[test]
    fn replacing_a_participant_invalidates_the_intersection_route() {
        let cache = overlap_cache();
        let q = pat("site/region/item[bids][shipping]/name");
        assert!(matches!(cache.answer(&q).route, Route::Intersect { .. }));
        let invalidations_before = cache.stats().plan_memo_invalidations;

        // Replace one participant with a view that no longer covers the
        // query: the memoized route must not survive.
        cache.replace_view("ship_names", pat("site/region/item[shipping]/bids"));
        assert!(
            cache.stats().plan_memo_invalidations > invalidations_before,
            "the intersection route must be dropped"
        );
        let ans = cache.answer(&q);
        assert_eq!(ans.nodes, cache.answer_direct(&q), "re-planned answer stays correct");
        assert_eq!(ans.route, Route::Direct, "the replaced view no longer supports the route");

        // Replacing it back restores the intersection route.
        cache.replace_view("ship_names", pat("site/region/item[shipping]/name"));
        assert!(matches!(cache.answer(&q).route, Route::Intersect { .. }));
    }

    /// The anchor table lives exactly as long as its pool version: plan
    /// misses fill it once, edits share it, and every pool change starts an
    /// empty one, so no route is ever planned against a stale anchor.
    #[test]
    fn the_anchor_table_is_filled_once_per_pool_version() {
        use xpv_maintain::Edit;

        let cache = overlap_cache();
        let oracle = cache.session().oracle();
        let q = pat("site/region/item[bids][shipping]/name");
        assert!(matches!(cache.answer(&q).route, Route::Intersect { .. }));
        let table = Arc::clone(&cache.snapshot().anchors);
        let filled = || table.get().expect("the first miss builds the table").held().entries;
        assert_eq!(filled(), 1, "the first miss fills the pair's anchor");

        // A second miss walking the same anchor: its anchor is the table's,
        // so nothing is merged and the oracle is asked no redundancy
        // question, only the candidate test against the anchor. Both views
        // alone are refuted by their labels (each lacks the other's branch).
        let asked = oracle.stats().queries;
        let route = cache.plan(&q, &cache.snapshot());
        assert!(matches!(route, PlannedRoute::Intersect { .. }));
        let fresh = cache.session().planner().session();
        let anchor = xpv_pattern::intersect_patterns(&[
            &pat("site/region/item[bids]/name"),
            &pat("site/region/item[shipping]/name"),
        ])
        .expect("the pair merges");
        assert!(fresh.decide(&q, &anchor).rewriting().is_some());
        assert_eq!(oracle.stats().queries - asked, fresh.oracle().stats().queries);
        // Another query reaching the same pair is tested, not merged.
        let other = pat("site/region/item[bids][shipping][name]/name");
        cache.answer(&other);
        assert_eq!(filled(), 1, "the filled anchor is reused");

        // Edits never change a definition: the table is carried by `Arc`.
        let doc = cache.document();
        let region = doc.children(doc.root())[0];
        let both = TreeBuilder::root("item", |b| {
            b.leaf("name");
            b.leaf("bids");
            b.leaf("shipping");
        });
        cache.apply_edits(&[Edit::InsertSubtree { parent: region, subtree: both }]).unwrap();
        assert_eq!(cache.answer(&q).nodes, cache.answer_direct(&q));
        assert!(Arc::ptr_eq(&table, &cache.snapshot().anchors), "edits carry the table");

        // Every pool change publishes a new, empty slot: it builds no
        // table, merges nothing and asks the oracle nothing.
        let pool_change = |what: &str, change: &dyn Fn()| {
            let before = Arc::clone(&cache.snapshot().anchors);
            let asked = oracle.stats().queries;
            change();
            let after = Arc::clone(&cache.snapshot().anchors);
            assert!(!Arc::ptr_eq(&before, &after), "{what} replaces the table");
            assert!(after.get().is_none(), "{what} builds no table");
            assert_eq!(oracle.stats().queries, asked, "{what} asks the oracle nothing");
        };
        pool_change("add_view", &|| {
            cache.add_view("names", pat("site/region/item/name[x]"));
        });
        assert!(matches!(cache.answer(&q).route, Route::Intersect { .. }));
        pool_change("remove_view", &|| {
            cache.remove_view("names");
        });
        assert!(matches!(cache.answer(&q).route, Route::Intersect { .. }));
        // The route survived the removal; a new query fills this version's
        // table with the pair's anchor.
        let third = pat("site/region/item[bids][shipping][bids]/name");
        assert!(matches!(cache.answer(&third).route, Route::Intersect { .. }));
        assert!(cache.snapshot().anchors.get().is_some_and(|t| t.held().entries == 1));

        // A participant gets a different definition. Through the old pair's
        // anchor the queries would still plan, over the new participant's
        // node set: every answer must come from the new definitions.
        cache.replace_view("bid_names", pat("site/region/item[bids]/shipping"));
        for query in [&q, &other, &third] {
            let ans = cache.answer(query);
            assert_eq!(ans.nodes, cache.answer_direct(query), "{query}: {:?}", ans.route);
            assert_eq!(ans.route, Route::Direct, "{query}");
        }
        pool_change("replace_view", &|| {
            cache.replace_view("bid_names", pat("site/region/item[bids]/name"));
        });
        let restored = cache.answer(&q);
        assert!(matches!(restored.route, Route::Intersect { .. }));
        assert_eq!(restored.nodes, cache.answer_direct(&q));
    }

    /// Over 24 equal-depth mergeable views (276 pairs, 2 024 triples) the
    /// table fills at most `MAX_CANDIDATES` anchors per depth group,
    /// whatever the queries, and `add_view` builds no table at all.
    #[test]
    fn the_anchor_table_fills_at_most_the_budget_per_depth_group() {
        use xpv_intersect::MAX_CANDIDATES;

        let cache = ShardedViewCache::new(doc());
        let oracle = cache.session().oracle();
        for i in 0..24 {
            let asked = oracle.stats().queries;
            cache.add_view(&format!("v{i}"), pat(&format!("site/region/item[a{i}]/name")));
            assert_eq!(oracle.stats().queries, asked, "add_view decides nothing");
            assert!(cache.snapshot().anchors.get().is_none(), "add_view builds no table");
        }
        let all: String = (0..24).map(|i| format!("[a{i}]")).collect();
        let mut queries: Vec<String> = vec![
            "site".into(),
            "site/region".into(),
            "site/region/item".into(),
            format!("site/region/item{all}/name"),
            format!("site/region/item{all}/name/keyword"),
            format!("site/region/item{all}//name"),
            format!("site/region/item/name{all}"),
        ];
        queries.extend((0..23).map(|i| format!("site/region/item[a{i}][a{}]/name", i + 1)));
        queries
            .extend((0..22).map(|i| format!("site/region/item[a{i}][a{}][a{}]/*", i + 1, i + 2)));
        let filled = || cache.snapshot().anchors.get().map_or(0, |t| t.held().entries);
        for text in &queries {
            let q = pat(text);
            let ans = cache.answer(&q);
            assert_eq!(ans.nodes, cache.answer_direct(&q), "{text}");
            let filled = filled();
            assert!(
                filled <= MAX_CANDIDATES,
                "{text}: {filled} anchors filled for one depth group"
            );
        }
        // The query naming every view's label below its 3-node, where its
        // candidates carry them, admits every subset and refutes none: it
        // reaches the budget's worth. (Each other query misses a label of
        // the query in every subset but its own and is refuted there.)
        assert_eq!(filled(), MAX_CANDIDATES);
    }

    #[test]
    fn remove_view_keeps_direct_and_untouched_routes() {
        let cache = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        cache.add_view("names", pat("site/region/item/name"));
        // Served by "items".
        let via_first = pat("site/region/item[desc]/name");
        // Output above every view's output: no rewriting can exist.
        let direct = pat("site/region[item]");
        assert!(matches!(cache.answer(&via_first).route, Route::ViaView { .. }));
        assert_eq!(cache.answer(&direct).route, Route::Direct);
        let runs = canonical_runs(&cache);

        // Removing the *later* view touches neither memoized route.
        assert!(cache.remove_view("names"));
        assert!(matches!(cache.answer(&via_first).route, Route::ViaView { .. }));
        assert_eq!(cache.answer(&direct).route, Route::Direct);
        assert_eq!(canonical_runs(&cache), runs, "both served from the memo");

        // Removing the committed view drops its route; Direct still
        // survives (a smaller pool cannot create a rewriting).
        assert!(cache.remove_view("items"));
        assert_eq!(cache.answer(&via_first).route, Route::Direct);
        assert_eq!(cache.answer(&direct).route, Route::Direct);
        assert!(!cache.remove_view("items"), "double removal reports false");
    }

    #[test]
    fn apply_edits_refreshes_views_and_keeps_every_route() {
        use xpv_maintain::Edit;
        use xpv_model::TreeBuilder as TB;

        let cache = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        cache.add_view("keywords", pat("site//keyword"));
        let via_items = pat("site/region/item/name");
        let via_keywords = pat("site//keyword");
        let direct = pat("site/region[item]");
        assert!(matches!(cache.answer(&via_items).route, Route::ViaView { .. }));
        assert!(matches!(cache.answer(&via_keywords).route, Route::ViaView { .. }));
        assert_eq!(cache.answer(&direct).route, Route::Direct);
        let runs = canonical_runs(&cache);

        // Graft one more item (with a name) into the first region: only the
        // `items` view's answers change.
        let snap = cache.document();
        let region = snap.children(snap.root())[0];
        let graft = TB::root("item", |b| {
            b.leaf("name");
        });
        let report = cache
            .apply_edits(&[Edit::InsertSubtree { parent: region, subtree: graft }])
            .expect("valid edit");
        assert_eq!(report.edits_applied, 1);
        assert_eq!(report.doc_version, 1);
        assert_eq!(report.views_changed, 1, "only `items` gained answers");
        assert_eq!(report.routes_dropped, 0);

        // Both queries still answer exactly, and every route — the one
        // through the changed view included — survived the update.
        let misses = cache.stats().plan_memo_misses;
        let ans = cache.answer(&via_items);
        assert_eq!(ans.nodes, cache.answer_direct(&via_items));
        assert!(matches!(ans.route, Route::ViaView { .. }));
        let ans = cache.answer(&via_keywords);
        assert_eq!(ans.nodes, cache.answer_direct(&via_keywords));
        assert_eq!(cache.answer(&direct).route, Route::Direct);
        assert_eq!(cache.stats().plan_memo_misses, misses, "no route re-planned");
        assert_eq!(canonical_runs(&cache), runs);

        let s = cache.stats();
        assert_eq!(s.updates_applied, 1);
    }

    #[test]
    fn clean_views_keep_sets_shorter_than_the_arena_and_their_routes_stay_exact() {
        use xpv_maintain::Edit;
        use xpv_model::TreeBuilder as TB;

        let cache = overlap_cache();
        let via_view = pat("site/region/item[bids]/name");
        let joint = pat("site/region/item[bids][shipping]/name");
        assert!(matches!(cache.answer(&via_view).route, Route::ViaView { .. }));
        assert!(matches!(cache.answer(&joint).route, Route::Intersect { .. }));
        let before = cache.snapshot();
        let widths: Vec<usize> = before.views.iter().map(|v| v.set().capacity()).collect();
        assert_eq!(widths, [before.flat.arena_len(); 2]);

        // 200 slots of labels no view mentions: every view is `Clean`, the
        // arena grows from one word to four, and no set is touched.
        let doc = cache.document();
        let region = doc.children(doc.root())[0];
        let comments = TB::root("comment", |b| {
            for _ in 0..199 {
                b.leaf("text");
            }
        });
        let report = cache
            .apply_edits(&[Edit::InsertSubtree { parent: region, subtree: comments }])
            .expect("valid edit");
        assert_eq!((report.views_changed, report.maintain.label_skips), (0, 2));
        let grown = cache.snapshot();
        assert_eq!(grown.flat.arena_len(), before.flat.arena_len() + 200);
        for (old, new) in before.views.iter().zip(grown.views.iter()) {
            assert!(Arc::ptr_eq(old, new), "a clean view is shared, not copied");
            assert!(new.set().capacity() < grown.flat.arena_len());
        }
        let check = |q: &Pattern, route: fn(&Route) -> bool| {
            let ans = cache.answer(q);
            assert!(route(&ans.route), "{q} took {:?}", ans.route);
            assert_eq!(ans.nodes, cache.answer_direct(q), "{q} over a shorter view set");
            assert!(!ans.nodes.is_empty());
        };
        check(&via_view, |r| matches!(r, Route::ViaView { .. }));
        check(&joint, |r| matches!(r, Route::Intersect { .. }));

        // A second batch puts answers of one view behind the other view's
        // width: `bid_names` is re-allocated at the new arena length,
        // `ship_names` stays at the first one, and their intersection still
        // reads the shorter set as zero-padded — also when it is patched.
        let bids_only = TB::root("item", |b| {
            b.leaf("name");
            b.leaf("bids");
        });
        let report = cache
            .apply_edits(&[Edit::InsertSubtree { parent: region, subtree: bids_only }])
            .expect("valid edit");
        assert_eq!(report.views_changed, 1);
        let mixed = cache.snapshot();
        assert_eq!(mixed.views[0].set().capacity(), mixed.flat.arena_len());
        assert_eq!(mixed.views[1].set().capacity(), before.flat.arena_len());
        assert_eq!(mixed.views[0].len(), before.views[0].len() + 1);
        check(&via_view, |r| matches!(r, Route::ViaView { .. }));
        check(&joint, |r| matches!(r, Route::Intersect { .. }));
        let both = TB::root("item", |b| {
            b.leaf("name");
            b.leaf("bids");
            b.leaf("shipping");
        });
        let report = cache
            .apply_edits(&[Edit::InsertSubtree { parent: region, subtree: both }])
            .expect("valid edit");
        assert_eq!((report.views_changed, report.maintain.answers_added), (2, 2));
        assert_eq!(cache.answer(&joint).nodes.len(), 2);
        check(&joint, |r| matches!(r, Route::Intersect { .. }));
        for view in cache.views_snapshot().iter() {
            let want = cache.answer_direct(view.definition());
            assert_eq!(view.nodes(), want, "view {}", view.name());
            assert_eq!(view.len(), want.len());
        }
        assert_eq!(cache.stats().plan_memo_misses, 2, "no route was re-planned");
    }

    #[test]
    fn a_held_snapshot_keeps_its_own_document_and_witness_memo() {
        use xpv_maintain::Edit;
        use xpv_model::TreeBuilder as TB;

        let cache = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        let q = pat("site/region[item/name]/item[name]");
        let before = cache.answer(&q).nodes;
        // A reader holds the pre-batch snapshot across the edit and a pool
        // change; `add_view` keeps the frozen document, and with it the memo.
        let held = cache.snapshot();
        let held_doc = cache.document();
        assert_eq!(evaluate_flat(&q, &held.flat), before);
        let (_, held_misses, _) = held.flat.witness_memo_counts();
        assert!(held_misses > 0, "the query's branches were computed on this snapshot");
        cache.add_view("names", pat("site/region/item/name"));
        assert!(Arc::ptr_eq(&held.flat, &cache.snapshot().flat));

        let region = held_doc.children(held_doc.root())[0];
        let graft = TB::root("item", |b| {
            b.leaf("name");
        });
        cache
            .apply_edits(&[Edit::InsertSubtree { parent: region, subtree: graft }])
            .expect("valid");
        let fresh = cache.snapshot();
        assert!(!Arc::ptr_eq(&held.flat, &fresh.flat), "a new document is a new snapshot");

        // The new snapshot answers from the new document, through sets it
        // computed itself (maintenance and this read), the held snapshot's
        // taken over and re-decided where the batch touched...
        let after = cache.answer(&q).nodes;
        assert_eq!(after, evaluate(&q, &cache.document()));
        assert_eq!(after.len(), before.len() + 1);
        let (_, misses, carried) = fresh.flat.witness_memo_counts();
        assert!(misses > 0 && carried > 0, "{misses} misses, {carried} carried");
        // ...and the held one still answers from the old document, from its
        // own memo: nothing is recomputed and nothing leaked in from the new.
        assert_eq!(evaluate_flat(&q, &held.flat), before);
        assert_eq!(evaluate_flat(&q, &held.flat), evaluate(&q, &held_doc));
        assert_eq!(held.flat.witness_memo_counts().1, held_misses);
    }

    #[test]
    fn apply_edits_matches_full_recompute() {
        use xpv_maintain::{apply_edits, Edit};

        let cache = ShardedViewCache::new(doc());
        let defs = [pat("site/region/item"), pat("site/region/item/name")];
        cache.add_view("items", defs[0].clone());
        cache.add_view("names", defs[1].clone());
        let snap = cache.document();
        let region = snap.children(snap.root())[1];
        let victim = snap.children(region)[0];
        let edits = vec![
            Edit::DeleteSubtree { node: victim },
            Edit::Relabel { node: region, label: xpv_model::Label::new("region") },
        ];
        // The differential oracle: the batch applied to a private copy of
        // the document, and every view evaluated from scratch on it.
        let mut mirror = snap;
        apply_edits(&mut mirror, &edits).expect("valid");
        let full: Vec<Vec<NodeId>> = defs.iter().map(|d| evaluate(d, &mirror)).collect();
        cache.apply_edits(&edits).expect("valid");
        assert_eq!(cache.document().canonical_key(), mirror.canonical_key());
        for (view, want) in cache.views_snapshot().iter().zip(&full) {
            assert_eq!(view.nodes(), want.as_slice(), "view {} diverged", view.name());
        }
        for q in ["site/region/item/name", "site//keyword", "site/region/item"] {
            let q = pat(q);
            assert_eq!(cache.answer(&q).nodes, evaluate(&q, &mirror), "wrong answer for {q}");
        }
    }

    #[test]
    fn invalid_edit_batches_leave_the_cache_untouched() {
        use xpv_maintain::Edit;
        use xpv_model::TreeBuilder as TB;

        let cache = ShardedViewCache::new(doc());
        let untouched = ShardedViewCache::new(doc());
        cache.add_view("items", pat("site/region/item"));
        let q = pat("site/region/item/name");
        let before = cache.answer(&q).nodes;
        let key = cache.document().canonical_key();
        let err = cache.apply_edits(&[Edit::DeleteSubtree { node: NodeId(u32::MAX) }]).unwrap_err();
        assert!(matches!(err, xpv_maintain::EditError::NotLive { .. }));
        assert_eq!(cache.document().canonical_key(), key);
        assert_eq!(cache.doc_version(), 0);
        assert_eq!(cache.answer(&q).nodes, before);
        assert_eq!(cache.stats().updates_applied, 0);

        // A batch that grafts under a full child list (the first region's,
        // two items: the graft relocates it), under its own graft, deletes
        // and relabels, then fails: the rollback is in place, so the arena,
        // the child ranges and the next graft's id must be as if the batch
        // never came.
        let doc = cache.document();
        let region = doc.children(doc.root())[0];
        assert_eq!(doc.children(region).len(), 2);
        let graft = NodeId(doc.arena_len() as u32);
        let item = TB::root("item", |b| {
            b.leaf("name");
        });
        let rejected = [
            Edit::InsertSubtree { parent: region, subtree: item.clone() },
            Edit::InsertSubtree { parent: graft, subtree: item.clone() },
            Edit::DeleteSubtree { node: doc.children(region)[0] },
            Edit::Relabel { node: region, label: xpv_model::Label::new("zone") },
            Edit::DeleteSubtree { node: doc.root() },
        ];
        let err = cache.apply_edits(&rejected).unwrap_err();
        assert_eq!(err, xpv_maintain::EditError::DeleteRoot { edit_index: 4 });
        let (now, never) = (cache.document(), untouched.document());
        assert_eq!(now.arena_len(), never.arena_len());
        assert_eq!(now.canonical_key(), never.canonical_key());
        assert_eq!(now.children(region), never.children(region), "sibling order kept");
        assert_eq!(cache.doc_version(), 0);
        assert_eq!(cache.answer(&q).nodes, before);
        // The next batch grafts where it would have on a fresh cache, and
        // both answer alike.
        let next = [Edit::InsertSubtree { parent: region, subtree: item }];
        let (a, b) = (cache.apply_edits(&next), untouched.apply_edits(&next));
        assert_eq!(a.expect("valid").doc_version, b.expect("valid").doc_version);
        let (now, never) = (cache.document(), untouched.document());
        assert_eq!(now.children(region).last(), never.children(region).last());
        assert_eq!(now.children(region).last(), Some(&graft));
        assert_eq!(now.canonical_key(), never.canonical_key());
        assert_eq!(cache.answer(&q).nodes, untouched.answer(&q).nodes);
        assert_eq!(cache.answer(&q).nodes, evaluate(&q, &now));
    }
}
