//! Per-tenant accounting.
//!
//! Every batch [`AsyncCacheServer`](crate::AsyncCacheServer) serves is
//! submitted on behalf of a **tenant** (any string id), and [`TenantRegistry`]
//! accumulates that tenant's lifetime counters: one `RwLock<HashMap>` whose
//! values are `Arc`s of plain atomic counters, so the steady-state
//! accounting path is a shared read lock, once per frame, plus relaxed
//! atomic adds.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::shard::{CacheAnswerRef, Route};

/// Per-tenant serving counters: `xpv-net`'s type, which a `StatsResp`
/// frame carries as it is.
pub use xpv_net::TenantStats;

/// The live, lock-free per-tenant counters behind [`TenantStats`].
#[derive(Debug, Default)]
pub(crate) struct TenantCounters {
    pub batches: AtomicU64,
    pub queries: AtomicU64,
    pub view_hits: AtomicU64,
    pub intersect_hits: AtomicU64,
    pub direct: AtomicU64,
    pub updates_applied: AtomicU64,
}

impl TenantCounters {
    pub fn snapshot(&self) -> TenantStats {
        TenantStats {
            batches: self.batches.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            view_hits: self.view_hits.load(Ordering::Relaxed),
            intersect_hits: self.intersect_hits.load(Ordering::Relaxed),
            direct: self.direct.load(Ordering::Relaxed),
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
        }
    }
}

/// The tenant-counter table.
#[derive(Debug, Default)]
pub(crate) struct TenantRegistry {
    tenants: RwLock<HashMap<String, Arc<TenantCounters>>>,
}

impl TenantRegistry {
    /// The live counters for `tenant`, creating them on first sight. The
    /// common path is a shared read lock + relaxed atomic adds (a write
    /// lock is taken only on a tenant's first appearance).
    pub fn counters(&self, tenant: &str) -> Arc<TenantCounters> {
        if let Some(counters) = self.tenants.read().expect("tenant stats poisoned").get(tenant) {
            return Arc::clone(counters);
        }
        let mut map = self.tenants.write().expect("tenant stats poisoned");
        Arc::clone(map.entry(tenant.to_string()).or_default())
    }

    /// Accounts one answered batch to `tenant`.
    pub fn account_batch(&self, tenant: &str, answers: &[CacheAnswerRef]) {
        let counters = self.counters(tenant);
        counters.batches.fetch_add(1, Ordering::Relaxed);
        counters.queries.fetch_add(answers.len() as u64, Ordering::Relaxed);
        for answer in answers {
            match *answer.route {
                Route::ViaView { .. } => counters.view_hits.fetch_add(1, Ordering::Relaxed),
                Route::Intersect { .. } => counters.intersect_hits.fetch_add(1, Ordering::Relaxed),
                Route::Direct => counters.direct.fetch_add(1, Ordering::Relaxed),
            };
        }
    }

    /// This tenant's lifetime counters (`None` before its first batch).
    pub fn get(&self, tenant: &str) -> Option<TenantStats> {
        self.tenants.read().expect("tenant stats poisoned").get(tenant).map(|c| c.snapshot())
    }

    /// All tenants with their counters, sorted by tenant id.
    pub fn all(&self) -> Vec<(String, TenantStats)> {
        let map = self.tenants.read().expect("tenant stats poisoned");
        let mut all: Vec<(String, TenantStats)> =
            map.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }
}
