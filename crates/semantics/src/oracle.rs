//! The memoizing, concurrency-safe containment oracle.
//!
//! Every layer of the rewriting pipeline — candidate tests, completeness
//! certificates, the brute-force search, the intersection search, the view
//! cache — bottoms out in the coNP canonical-model containment test of Section 2.2.
//! Those call sites overlap heavily: a single `RewritePlanner::decide` tests
//! both natural candidates against the *same* query, the brute force
//! re-derives composition prefixes thousands of times, and a cache serving
//! repeated traffic re-decides identical `(P, V)` pairs on every arrival.
//!
//! [`ContainmentOracle`] makes that sharing explicit. It interns patterns
//! into [`PatternKey`]s (structural identity, sibling order ignored) and
//! memoizes **full verdicts** keyed by `(p1, p2, weak)`: a hit skips the
//! staged procedure of [`crate::contain`] — homomorphism stages and coNP
//! loop alike — entirely. (Homomorphism tests are not memoized on their
//! own: a verdict miss is by construction a miss for its homomorphism
//! question too.)
//!
//! ## Concurrency
//!
//! The oracle is split into an **immutable decision core** (the staged
//! decision procedure, which is pure) and a **sharded memo store**: the
//! memo is partitioned into [`DEFAULT_ORACLE_SHARDS`] lock shards keyed
//! by a mix of the interned pattern keys, the interner sits behind a
//! `RwLock` with a read-locked fast path for already-seen patterns, and every
//! counter in [`OracleStats`] is an atomic. As a result `contained`,
//! `equivalent` and friends take **`&self`**: any number of worker threads
//! can decide through one shared oracle, memo hits proceed under shared read
//! locks, and only a genuinely new verdict briefly write-locks its shard.
//! Verdicts are deterministic, so racing threads that compute the same entry
//! insert the same value — the memo never changes an answer, it only skips
//! work.
//!
//! The free functions [`contained`](crate::contained) /
//! [`equivalent`](crate::equivalent) / the weak variants run the same staged
//! procedure uncached; long-lived components hold an oracle (usually inside
//! an `xpv_core::PlanningSession`) and route every decision through it.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use xpv_pattern::{Pattern, PatternInterner, PatternKey};

use crate::contain::decide;

/// Number of memo lock shards (a power of two: `shard_of` masks with it).
pub const DEFAULT_ORACLE_SHARDS: usize = 16;

/// Counters describing the oracle's lifetime work (all monotone).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Containment questions asked (strong + weak).
    pub queries: u64,
    /// Questions answered from the verdict memo.
    pub verdict_memo_hits: u64,
    /// Questions that had to be computed.
    pub verdict_memo_misses: u64,
    /// Questions settled by the homomorphism fast path.
    pub hom_fast_path_hits: u64,
    /// Negatives settled by the *absence* of a homomorphism where that is
    /// complete, without a canonical-model loop.
    pub hom_negatives: u64,
    /// Canonical-model loops actually run (the coNP work).
    pub canonical_runs: u64,
    /// Canonical models enumerated across all loops.
    pub models_checked: u64,
}

impl OracleStats {
    /// Component-wise difference (`self - earlier`); all counters are
    /// monotone, so this measures the work between two snapshots.
    ///
    /// Uses saturating subtraction: snapshots taken while *other* threads
    /// are mid-decision (or across a [`ContainmentOracle::reset_stats`]) can
    /// observe counters out of lock-step, and a delta must never panic in
    /// that case — it degrades to a floor of zero per counter.
    pub fn since(&self, earlier: &OracleStats) -> OracleStats {
        OracleStats {
            queries: self.queries.saturating_sub(earlier.queries),
            verdict_memo_hits: self.verdict_memo_hits.saturating_sub(earlier.verdict_memo_hits),
            verdict_memo_misses: self
                .verdict_memo_misses
                .saturating_sub(earlier.verdict_memo_misses),
            hom_fast_path_hits: self.hom_fast_path_hits.saturating_sub(earlier.hom_fast_path_hits),
            hom_negatives: self.hom_negatives.saturating_sub(earlier.hom_negatives),
            canonical_runs: self.canonical_runs.saturating_sub(earlier.canonical_runs),
            models_checked: self.models_checked.saturating_sub(earlier.models_checked),
        }
    }
}

impl OracleStats {
    /// The canonical counter enumeration: one `(name, value)` pair per
    /// field, in declaration order. The observability registry exposes
    /// these under `xpv_oracle_*`, and [`OracleStats`]'s `Display` renders
    /// the same list — one naming authority, so the rendered line and the
    /// exposition can never drift (see the `xpv-obs` crate docs).
    pub fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
        f("queries", self.queries);
        f("verdict_memo_hits", self.verdict_memo_hits);
        f("verdict_memo_misses", self.verdict_memo_misses);
        f("hom_fast_path_hits", self.hom_fast_path_hits);
        f("hom_negatives", self.hom_negatives);
        f("canonical_runs", self.canonical_runs);
        f("models_checked", self.models_checked);
    }
}

impl fmt::Display for OracleStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        xpv_obs::write_kv_line(f, |emit| self.visit(emit))
    }
}

/// The atomic backing store for [`OracleStats`] (one counter per field).
#[derive(Debug, Default)]
struct AtomicOracleStats {
    queries: AtomicU64,
    verdict_memo_hits: AtomicU64,
    verdict_memo_misses: AtomicU64,
    hom_fast_path_hits: AtomicU64,
    hom_negatives: AtomicU64,
    canonical_runs: AtomicU64,
    models_checked: AtomicU64,
}

impl AtomicOracleStats {
    fn snapshot(&self) -> OracleStats {
        OracleStats {
            queries: self.queries.load(Ordering::Relaxed),
            verdict_memo_hits: self.verdict_memo_hits.load(Ordering::Relaxed),
            verdict_memo_misses: self.verdict_memo_misses.load(Ordering::Relaxed),
            hom_fast_path_hits: self.hom_fast_path_hits.load(Ordering::Relaxed),
            hom_negatives: self.hom_negatives.load(Ordering::Relaxed),
            canonical_runs: self.canonical_runs.load(Ordering::Relaxed),
            models_checked: self.models_checked.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.queries.store(0, Ordering::Relaxed);
        self.verdict_memo_hits.store(0, Ordering::Relaxed);
        self.verdict_memo_misses.store(0, Ordering::Relaxed);
        self.hom_fast_path_hits.store(0, Ordering::Relaxed);
        self.hom_negatives.store(0, Ordering::Relaxed);
        self.canonical_runs.store(0, Ordering::Relaxed);
        self.models_checked.store(0, Ordering::Relaxed);
    }
}

#[inline]
fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// One lock shard of the verdict memo, keyed `(p1, p2, weak)`.
type MemoShard = RwLock<HashMap<(PatternKey, PatternKey, bool), bool>>;

/// Mixes a pair of interned keys into a shard index (splitmix64 avalanche,
/// same mixer as `Pattern::fingerprint`).
#[inline]
fn shard_of(k1: PatternKey, k2: PatternKey) -> usize {
    let mut h = ((k1.index() as u64) << 32) ^ (k2.index() as u64) ^ 0x9E37_79B9_7F4A_7C15;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    (h ^ (h >> 33)) as usize & (DEFAULT_ORACLE_SHARDS - 1)
}

/// A memoizing decision service for containment and equivalence, shareable
/// across threads (`&self` throughout — see the module docs for the
/// core/shard split).
///
/// ```
/// use xpv_pattern::parse_xpath;
/// use xpv_semantics::ContainmentOracle;
///
/// let p = parse_xpath("a/b/c").unwrap();
/// let q = parse_xpath("a//c").unwrap();
/// let oracle = ContainmentOracle::new();
/// assert!(oracle.contained(&p, &q));
/// assert!(oracle.contained(&p, &q)); // memo hit: no recomputation
/// assert_eq!(oracle.stats().verdict_memo_hits, 1);
/// ```
#[derive(Debug)]
pub struct ContainmentOracle {
    interner: RwLock<PatternInterner>,
    shards: Box<[MemoShard]>,
    stats: AtomicOracleStats,
}

impl Default for ContainmentOracle {
    fn default() -> ContainmentOracle {
        ContainmentOracle::new()
    }
}

impl ContainmentOracle {
    /// An empty oracle.
    pub fn new() -> ContainmentOracle {
        ContainmentOracle {
            interner: RwLock::new(PatternInterner::new()),
            shards: (0..DEFAULT_ORACLE_SHARDS).map(|_| MemoShard::default()).collect(),
            stats: AtomicOracleStats::default(),
        }
    }

    /// Lifetime counters (a relaxed snapshot; exact when no other thread is
    /// mid-decision).
    pub fn stats(&self) -> OracleStats {
        self.stats.snapshot()
    }

    /// Resets the counters (the memo tables are kept).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Number of distinct patterns interned so far.
    pub fn interned_patterns(&self) -> usize {
        self.interner.read().expect("oracle interner poisoned").len()
    }

    /// Interns `p`, returning its structural key.
    pub fn intern(&self, p: &Pattern) -> PatternKey {
        self.intern_fingerprinted(p).0
    }

    /// Interns `p`, returning its structural key together with the 64-bit
    /// structural fingerprint (callers that shard by query — the
    /// `ShardedViewCache` — reuse the hash instead of recomputing it).
    pub fn intern_fingerprinted(&self, p: &Pattern) -> (PatternKey, u64) {
        let fp = p.fingerprint();
        // Fast path: already interned (shared read lock).
        if let Some(key) =
            self.interner.read().expect("oracle interner poisoned").lookup_prehashed(fp, p)
        {
            return (key, fp);
        }
        let key = self.interner.write().expect("oracle interner poisoned").intern_prehashed(fp, p);
        (key, fp)
    }

    /// A clone of the representative pattern of an interned key. (Returns an
    /// owned pattern rather than a reference because the interner lives
    /// behind the concurrency lock.)
    ///
    /// # Panics
    ///
    /// Panics if `key` comes from a different oracle.
    pub fn resolve(&self, key: PatternKey) -> Pattern {
        self.interner.read().expect("oracle interner poisoned").resolve(key).clone()
    }

    /// Memoized `p1 ⊑ p2`.
    pub fn contained(&self, p1: &Pattern, p2: &Pattern) -> bool {
        self.decide(p1, p2, false)
    }

    /// Memoized weak containment `p1 ⊑w p2`.
    pub fn weakly_contained(&self, p1: &Pattern, p2: &Pattern) -> bool {
        self.decide(p1, p2, true)
    }

    /// Memoized equivalence (two-sided containment; each side is interned
    /// once and memoizes independently, so `equivalent(p, q)` after
    /// `contained(p, q)` only pays for the missing direction).
    pub fn equivalent(&self, p1: &Pattern, p2: &Pattern) -> bool {
        self.equivalent_interned(p1, self.intern(p1), p2, self.intern(p2))
    }

    /// [`ContainmentOracle::equivalent`] for patterns the caller has already
    /// interned **in this oracle** (`k1` must be `p1`'s key and `k2` `p2`'s):
    /// a caller asking many questions about one pattern interns it once.
    pub fn equivalent_interned(
        &self,
        p1: &Pattern,
        k1: PatternKey,
        p2: &Pattern,
        k2: PatternKey,
    ) -> bool {
        self.decide_keys(k1, k2, p1, p2, false) && self.decide_keys(k2, k1, p2, p1, false)
    }

    /// Memoized weak equivalence.
    pub fn weakly_equivalent(&self, p1: &Pattern, p2: &Pattern) -> bool {
        self.weakly_contained(p1, p2) && self.weakly_contained(p2, p1)
    }

    fn decide(&self, p1: &Pattern, p2: &Pattern, weak: bool) -> bool {
        let k1 = self.intern(p1);
        let k2 = self.intern(p2);
        self.decide_keys(k1, k2, p1, p2, weak)
    }

    fn decide_keys(
        &self,
        k1: PatternKey,
        k2: PatternKey,
        p1: &Pattern,
        p2: &Pattern,
        weak: bool,
    ) -> bool {
        bump(&self.stats.queries);
        let shard = &self.shards[shard_of(k1, k2)];
        if let Some(&verdict) = shard.read().expect("oracle memo poisoned").get(&(k1, k2, weak)) {
            bump(&self.stats.verdict_memo_hits);
            return verdict;
        }
        bump(&self.stats.verdict_memo_misses);

        let outcome = decide(p1, p2, weak);
        match (outcome.via_homomorphism, outcome.holds) {
            (true, true) => bump(&self.stats.hom_fast_path_hits),
            (true, false) => bump(&self.stats.hom_negatives),
            (false, _) => {
                bump(&self.stats.canonical_runs);
                self.stats.models_checked.fetch_add(outcome.models_checked, Ordering::Relaxed);
            }
        }

        shard.write().expect("oracle memo poisoned").insert((k1, k2, weak), outcome.holds);
        outcome.holds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{contained_by_models, expansion_bound};
    use xpv_pattern::parse_xpath;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    #[test]
    fn agrees_with_free_functions() {
        let pairs = [
            ("a/b/c", "a//c"),
            ("a//c", "a/b/c"),
            ("a[b][c]/d", "a[b]/d"),
            ("a/*//e", "a//*/e"),
            ("a[b]/*/e[d]", "a[b]//*/e[d]"),
        ];
        let oracle = ContainmentOracle::new();
        for (l, r) in pairs {
            let (p, q) = (pat(l), pat(r));
            assert_eq!(oracle.contained(&p, &q), crate::contain::contained(&p, &q), "{l} vs {r}");
            assert_eq!(
                oracle.weakly_contained(&p, &q),
                crate::contain::weakly_contained(&p, &q),
                "weak {l} vs {r}"
            );
        }
    }

    #[test]
    fn repeated_queries_hit_the_memo() {
        let oracle = ContainmentOracle::new();
        // Holds with no homomorphism, and neither side lets the absence of
        // one decide: the first query needs the loop.
        let p = pat("a/*//e");
        let q = pat("a//*/e");
        assert!(oracle.contained(&p, &q));
        let runs_before = oracle.stats().canonical_runs;
        assert!(runs_before >= 1, "first query must run the canonical loop");
        for _ in 0..5 {
            assert!(oracle.contained(&p, &q));
        }
        let s = oracle.stats();
        assert_eq!(s.canonical_runs, runs_before, "memo hits must skip the loop");
        assert_eq!(s.verdict_memo_hits, 5);
    }

    #[test]
    fn every_question_is_settled_by_exactly_one_stage() {
        let pairs = [
            ("a/b/c", "a//c"),    // homomorphism witness
            ("a//c", "a/b/c"),    // no homomorphism, right side has no `*`
            ("a/*/e", "a//b/e"),  // no homomorphism, left side has no `//`
            ("a/*//e", "a//*/e"), // loop, holds
            ("a//*/e", "a/*/e"),  // loop, fails
            ("a[b]/*/e[d]", "a[b]//*/e[d]"),
        ];
        let oracle = ContainmentOracle::new();
        for _ in 0..2 {
            for (l, r) in pairs {
                let (p, q) = (pat(l), pat(r));
                for weak in [false, true] {
                    // The pure canonical loop is the reference verdict.
                    let reference = contained_by_models(&p, &q, weak, expansion_bound(&q));
                    assert!(!reference.via_homomorphism);
                    let verdict = if weak {
                        oracle.weakly_contained(&p, &q)
                    } else {
                        oracle.contained(&p, &q)
                    };
                    assert_eq!(verdict, reference.holds, "{l} vs {r}, weak: {weak}");
                }
                oracle.equivalent(&p, &q);
            }
        }
        let s = oracle.stats();
        assert_eq!(
            s.queries,
            s.verdict_memo_hits + s.hom_fast_path_hits + s.hom_negatives + s.canonical_runs,
            "{s}"
        );
        assert_eq!(s.verdict_memo_misses, s.queries - s.verdict_memo_hits);
        assert!(s.hom_fast_path_hits > 0 && s.hom_negatives >= 2 && s.canonical_runs >= 2);
    }

    #[test]
    fn sibling_reordered_patterns_share_memo_entries() {
        let oracle = ContainmentOracle::new();
        assert!(oracle.contained(&pat("a[b][c]/d"), &pat("a[b]/d")));
        let misses = oracle.stats().verdict_memo_misses;
        // The reordered isomorph interns to the same key → memo hit.
        assert!(oracle.contained(&pat("a[c][b]/d"), &pat("a[b]/d")));
        assert_eq!(oracle.stats().verdict_memo_misses, misses);
        assert_eq!(oracle.stats().verdict_memo_hits, 1);
    }

    #[test]
    fn equivalence_reuses_directional_verdicts() {
        let oracle = ContainmentOracle::new();
        let p = pat("a[b][b/c]/d");
        let q = pat("a[b/c]/d");
        assert!(oracle.contained(&p, &q));
        assert!(oracle.equivalent(&p, &q));
        // The equivalent() call reused the p ⊑ q verdict.
        assert!(oracle.stats().verdict_memo_hits >= 1);
    }

    #[test]
    fn stats_since_is_a_delta() {
        let oracle = ContainmentOracle::new();
        let before = oracle.stats();
        assert!(oracle.contained(&pat("a/b"), &pat("a/*")));
        let delta = oracle.stats().since(&before);
        assert_eq!(delta.queries, 1);
        assert_eq!(delta.verdict_memo_misses, 1);
    }

    #[test]
    fn stats_since_saturates_instead_of_panicking() {
        let oracle = ContainmentOracle::new();
        assert!(oracle.contained(&pat("a/b"), &pat("a/*")));
        let later = oracle.stats();
        oracle.reset_stats();
        // `earlier` was taken before the reset: the delta floors at zero.
        let delta = oracle.stats().since(&later);
        assert_eq!(delta.queries, 0);
        assert_eq!(delta.canonical_runs, 0);
    }

    #[test]
    fn stats_display_mentions_every_headline_counter() {
        let oracle = ContainmentOracle::new();
        assert!(oracle.contained(&pat("a/b/c"), &pat("a//c")));
        let s = oracle.stats().to_string();
        assert!(s.contains("queries="), "got: {s}");
        assert!(s.contains("canonical_runs="), "got: {s}");
        // Display renders the same enumeration `visit` exposes: every
        // canonical counter name appears in the line.
        oracle.stats().visit(&mut |name, _| {
            assert!(s.contains(&format!("{name}=")), "{name} missing from: {s}");
        });
    }

    #[test]
    fn concurrent_threads_share_one_oracle() {
        let oracle = ContainmentOracle::new();
        let pairs = [
            ("a/b/c", "a//c"),
            ("a//c", "a/b/c"),
            ("a[b][c]/d", "a[b]/d"),
            ("a/*//e", "a//*/e"),
            ("a[b]/*/e[d]", "a[b]//*/e[d]"),
            ("a/b", "a/*"),
        ];
        let expected: Vec<bool> =
            pairs.iter().map(|(l, r)| crate::contain::contained(&pat(l), &pat(r))).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for ((l, r), want) in pairs.iter().zip(&expected) {
                        for _ in 0..10 {
                            assert_eq!(oracle.contained(&pat(l), &pat(r)), *want, "{l} vs {r}");
                        }
                    }
                });
            }
        });
        let s = oracle.stats();
        assert_eq!(s.queries, 4 * 10 * pairs.len() as u64);
        assert!(s.verdict_memo_hits >= s.queries - (pairs.len() as u64 * 4));
        assert_eq!(oracle.interned_patterns(), 10, "six pairs over ten distinct patterns");
    }
}
