//! The containment oracle: the staged procedure, counted.
//!
//! Every layer of the rewriting pipeline — candidate tests, the brute-force
//! search, the intersection search's redundancy check — bottoms out in the
//! coNP canonical-model containment test of Section 2.2.
//! [`ContainmentOracle`] runs that test (the staged procedure of
//! [`crate::contain`], uncached) and counts which stage settled each
//! question. It remembers no verdict: a repeated query is answered one
//! level up, from the engine's plan memo, whose keys come from the
//! oracle's interner ([`ContainmentOracle::intern`]).
//!
//! Everything takes **`&self`**: the counters are atomics, and the
//! interner (bounded, see [`xpv_pattern::PatternInterner`]) sits behind an
//! `RwLock` with a read-locked fast path for the patterns its current
//! generation holds, so any number of worker threads decide through one
//! shared oracle.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use xpv_pattern::{Held, Pattern, PatternInterner, PatternKey};

use crate::contain::{decide, ContainmentOutcome};

/// Counters describing the oracle's lifetime work (all monotone). Each
/// question is settled by exactly one stage, so
/// `queries = hom_fast_path_hits + hom_negatives + canonical_runs`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Containment questions asked.
    pub queries: u64,
    /// Always 0: the oracle memoizes no verdict. The field stays only
    /// because the benchmark adapter still reads it; it is not exported.
    pub verdict_memo_hits: u64,
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
    /// The canonical counter enumeration: one `(name, value)` pair per
    /// exported field, in declaration order. The observability registry
    /// exposes these under `xpv_oracle_*`, and [`OracleStats`]'s `Display`
    /// renders the same list — one naming authority, so the rendered line
    /// and the exposition can never drift (see the `xpv-obs` crate docs).
    pub fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
        f("queries", self.queries);
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

/// A counted, concurrency-safe containment test plus the pattern interner
/// that keys the planning layers' memos (`&self` throughout — see the
/// module docs).
///
/// ```
/// use xpv_pattern::parse_xpath;
/// use xpv_semantics::ContainmentOracle;
///
/// let p = parse_xpath("a/b/c").unwrap();
/// let q = parse_xpath("a//c").unwrap();
/// let oracle = ContainmentOracle::new();
/// assert!(oracle.contained(&p, &q));
/// assert!(oracle.contained(&p, &q)); // decided again: nothing is memoized
/// assert_eq!(oracle.stats().queries, 2);
/// assert_eq!(oracle.stats().hom_fast_path_hits, 2);
/// ```
#[derive(Debug, Default)]
pub struct ContainmentOracle {
    interner: RwLock<PatternInterner>,
    hom_fast_path_hits: AtomicU64,
    hom_negatives: AtomicU64,
    canonical_runs: AtomicU64,
    models_checked: AtomicU64,
}

impl ContainmentOracle {
    /// An empty oracle.
    pub fn new() -> ContainmentOracle {
        ContainmentOracle::default()
    }

    /// Lifetime counters (a relaxed snapshot; exact when no other thread is
    /// mid-decision).
    pub fn stats(&self) -> OracleStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let (hom_fast_path_hits, hom_negatives, canonical_runs) =
            (load(&self.hom_fast_path_hits), load(&self.hom_negatives), load(&self.canonical_runs));
        OracleStats {
            queries: hom_fast_path_hits + hom_negatives + canonical_runs,
            verdict_memo_hits: 0,
            hom_fast_path_hits,
            hom_negatives,
            canonical_runs,
            models_checked: load(&self.models_checked),
        }
    }

    /// Interns `p`, returning its structural key. A pattern the current
    /// generation holds is served under the shared read lock.
    pub fn intern(&self, p: &Pattern) -> PatternKey {
        let held = self.interner.read().expect("oracle interner poisoned").lookup(p);
        held.unwrap_or_else(|| self.interner.write().expect("oracle interner poisoned").intern(p))
    }

    /// Patterns and bytes the interner holds (see
    /// [`xpv_pattern::INTERNER_MAX_ENTRIES`] for its bounds).
    pub fn interned(&self) -> Held {
        self.interner.read().expect("oracle interner poisoned").held()
    }

    /// Decides `p1 ⊑ p2` and counts the stage that settled it. The outcome
    /// tells the caller the same, so per-call counters add up the outcomes
    /// they got instead of diffing the shared lifetime counters.
    pub fn decide(&self, p1: &Pattern, p2: &Pattern) -> ContainmentOutcome {
        let outcome = decide(p1, p2, false);
        let stage = match (outcome.via_homomorphism, outcome.holds) {
            (true, true) => &self.hom_fast_path_hits,
            (true, false) => &self.hom_negatives,
            (false, _) => {
                self.models_checked.fetch_add(outcome.models_checked, Ordering::Relaxed);
                &self.canonical_runs
            }
        };
        stage.fetch_add(1, Ordering::Relaxed);
        outcome
    }

    /// `p1 ⊑ p2` ([`ContainmentOracle::decide`]'s verdict).
    pub fn contained(&self, p1: &Pattern, p2: &Pattern) -> bool {
        self.decide(p1, p2).holds
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
        }
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
        let (mut asked, mut from_outcomes) = (0, OracleStats::default());
        for _ in 0..2 {
            for (l, r) in pairs {
                let (p, q) = (pat(l), pat(r));
                // The pure canonical loop is the reference verdict.
                let reference = contained_by_models(&p, &q, false, expansion_bound(&q));
                assert!(!reference.via_homomorphism);
                let outcome = oracle.decide(&p, &q);
                assert_eq!(outcome.holds, reference.holds, "{l} vs {r}");
                asked += 1;
                let stage = match (outcome.via_homomorphism, outcome.holds) {
                    (true, true) => &mut from_outcomes.hom_fast_path_hits,
                    (true, false) => &mut from_outcomes.hom_negatives,
                    (false, _) => &mut from_outcomes.canonical_runs,
                };
                *stage += 1;
                from_outcomes.models_checked += outcome.models_checked;
            }
        }
        let s = oracle.stats();
        assert_eq!(s.queries, asked, "{s}");
        assert_eq!(s.queries, s.hom_fast_path_hits + s.hom_negatives + s.canonical_runs, "{s}");
        from_outcomes.queries = asked;
        assert_eq!(s, from_outcomes, "the outcomes callers add up are the counters");
        assert_eq!(s.verdict_memo_hits, 0, "nothing is memoized");
        assert!(s.hom_fast_path_hits > 0 && s.hom_negatives >= 2 && s.canonical_runs >= 2);
    }

    #[test]
    fn stats_display_mentions_every_headline_counter() {
        let oracle = ContainmentOracle::new();
        assert!(oracle.contained(&pat("a/b/c"), &pat("a//c")));
        let s = oracle.stats().to_string();
        assert!(s.contains("queries="), "got: {s}");
        assert!(s.contains("canonical_runs="), "got: {s}");
        assert!(!s.contains("memo"), "the always-0 memo field is not rendered: {s}");
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
        assert_eq!(oracle.stats().queries, 4 * 10 * pairs.len() as u64);
    }
}
