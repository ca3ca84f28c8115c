//! Budgeted brute-force search for rewritings (Proposition 3.4).
//!
//! The paper's decidability argument enumerates a finite (but double-
//! exponential) set `R` of candidate rewritings and tests each with the coNP
//! equivalence procedure. This module implements that search with the
//! theory-derived prunings that make it usable as a ground-truth oracle on
//! small instances:
//!
//! * **depth pinning** — any rewriting `R` satisfies `depth(R) = d − k`
//!   (Proposition 3.1(1) applied to `(R◦V)≥k ≡w P≥k`);
//! * **selection-label pinning** — by Proposition 3.1(3), the `(j−k)`-node of
//!   `R` carries exactly the label of the `j`-node of `P` for `k < j ≤ d`,
//!   and the root test of `R` must glb-combine with `out(V)`'s test into the
//!   `k`-node test of `P`;
//! * **height / label-set bounds** — `height(R) ≤ height(P≥k)` and
//!   `labels(R) ⊆ labels(P≥k)` (from the Proposition 3.4 proof);
//! * **isomorphism dedup** — candidates are deduplicated by canonical key
//!   (sibling order and duplicate sibling subtrees never matter).
//!
//! The enumeration is breadth-first by size. It is **complete up to the size
//! budget**: `Exhausted` means "no rewriting with at most `max_nodes` nodes
//! exists", which the caller must interpret honestly (the planner reports
//! `Unknown` unless a completeness condition applies). Within the test suite
//! the budgets are chosen so the oracle covers every rewriting the generators
//! can produce.

use std::collections::HashSet;

use xpv_pattern::{compose, Axis, NodeTest, PatId, Pattern};
use xpv_semantics::ContainmentOracle;

use crate::candidates::CandidateTestStats;

/// Budget knobs for the brute-force search.
#[derive(Clone, Copy, Debug)]
pub struct BruteForceConfig {
    /// Maximum number of nodes in a candidate rewriting (spine included).
    pub max_nodes: usize,
    /// Maximum number of candidates to *test* (equivalence tests are coNP).
    pub max_tested: u64,
}

impl Default for BruteForceConfig {
    fn default() -> Self {
        BruteForceConfig { max_nodes: 8, max_tested: 20_000 }
    }
}

/// The verdict of a brute-force run.
#[derive(Clone, Debug)]
pub enum BruteForceOutcome {
    /// A rewriting was found (and verified by the equivalence test).
    Found(Box<Pattern>, BruteForceStats),
    /// The full (pruned) space up to `max_nodes` was enumerated; nothing
    /// rewrites. Definitive **only** for rewritings within the size budget.
    Exhausted(BruteForceStats),
    /// The `max_tested` budget ran out before the space did.
    BudgetExceeded(BruteForceStats),
    /// No candidate shape exists at all (depth or label gates fail) —
    /// definitive non-existence by Proposition 3.1.
    GateClosed(&'static str),
}

/// Counters describing a brute-force run.
#[derive(Clone, Copy, Debug, Default)]
pub struct BruteForceStats {
    /// Distinct candidate patterns generated (after dedup).
    pub generated: u64,
    /// Candidates actually tested for equivalence.
    pub tested: u64,
    /// Candidates rejected by the cheap necessary-condition prefilter
    /// (weakly equivalent patterns share height and label set — the
    /// Proposition 3.4 proof's observation) before any coNP test ran.
    pub prefiltered: u64,
    /// Cumulative candidate-test statistics.
    pub test_stats: CandidateTestStats,
}

/// Root tests allowed for a rewriting of `p` using `v` (see module docs).
fn allowed_root_tests(p: &Pattern, v: &Pattern) -> Result<Vec<NodeTest>, &'static str> {
    let k = v.depth();
    let p_k = p.test(p.k_node(k));
    let v_out = v.test(v.output());
    match (p_k, v_out) {
        (NodeTest::Wildcard, NodeTest::Wildcard) => Ok(vec![NodeTest::Wildcard]),
        (NodeTest::Wildcard, NodeTest::Label(_)) => {
            Err("k-node of P is a wildcard but out(V) is labeled (Prop 3.1(3))")
        }
        (NodeTest::Label(a), NodeTest::Wildcard) => Ok(vec![NodeTest::Label(a)]),
        (NodeTest::Label(a), NodeTest::Label(b)) => {
            if a == b {
                // glb(x, a) = a holds for x ∈ {a, *}.
                Ok(vec![NodeTest::Label(a), NodeTest::Wildcard])
            } else {
                Err("k-node of P and out(V) carry distinct labels")
            }
        }
    }
}

/// Enumerates candidate rewritings of `p` using `v` and tests them with a
/// fresh oracle (wrapper over [`brute_force_rewrite_with_oracle`]).
///
/// # Panics
///
/// Panics if `v.depth() > p.depth()` — callers gate on depth first.
pub fn brute_force_rewrite(p: &Pattern, v: &Pattern, cfg: &BruteForceConfig) -> BruteForceOutcome {
    let oracle = ContainmentOracle::new();
    brute_force_rewrite_with_oracle(p, v, cfg, &oracle)
}

/// [`brute_force_rewrite`] deciding every equivalence test through a shared
/// `oracle`. The enumeration repeatedly composes near-identical candidates
/// with the same view, so consecutive tests hit the oracle's verdict memo for
/// the direction that did not change — and a planner that falls back to brute
/// force reuses the candidate-phase verdicts outright.
pub fn brute_force_rewrite_with_oracle(
    p: &Pattern,
    v: &Pattern,
    cfg: &BruteForceConfig,
    oracle: &ContainmentOracle,
) -> BruteForceOutcome {
    let d = p.depth();
    let k = v.depth();
    assert!(k <= d, "depth gate must be checked before brute force");

    let root_tests = match allowed_root_tests(p, v) {
        Ok(ts) => ts,
        Err(why) => return BruteForceOutcome::GateClosed(why),
    };

    // Pinned spine labels for depths 1..=(d-k) of R (Prop 3.1(3)).
    let spine_tests: Vec<NodeTest> = (k + 1..=d).map(|j| p.test(p.k_node(j))).collect();
    let spine_len = spine_tests.len();

    let p_geq_k = p.sub_pattern_geq(k);
    let max_height = p_geq_k.height();
    if spine_len > max_height {
        return BruteForceOutcome::GateClosed("spine longer than the height bound allows");
    }
    let mut label_pool: Vec<NodeTest> =
        p_geq_k.label_set().into_iter().map(NodeTest::Label).collect();
    label_pool.push(NodeTest::Wildcard);

    let mut stats = BruteForceStats::default();
    let mut seen: HashSet<String> = HashSet::new();

    // Necessary conditions for R∘V ≡ P, derived from Proposition 3.1(2):
    // (R∘V)≥k ≡w P≥k, and weakly equivalent patterns share height and label
    // set. Both are cheap to check and prune most of the space before the
    // coNP equivalence test.
    let target_height = p_geq_k.height();
    let target_labels = p_geq_k.label_set();

    // Seed queue: bare spines over axis choices and root tests.
    let mut queue: Vec<Pattern> = Vec::new();
    for &root_test in &root_tests {
        let mut axes_choice = vec![Axis::Child; spine_len];
        loop {
            let mut r = Pattern::single(root_test);
            let mut cur = r.root();
            for (i, &t) in spine_tests.iter().enumerate() {
                cur = r.add_child(cur, axes_choice[i], t);
            }
            r.set_output(cur);
            if seen.insert(r.canonical_key()) {
                stats.generated += 1;
                queue.push(r);
            }
            // Advance the axis odometer.
            let mut i = 0;
            loop {
                if i == spine_len {
                    break;
                }
                if axes_choice[i] == Axis::Child {
                    axes_choice[i] = Axis::Descendant;
                    break;
                }
                axes_choice[i] = Axis::Child;
                i += 1;
            }
            if i == spine_len {
                break;
            }
        }
    }

    // Breadth-first growth: add one side node anywhere, in every axis/test
    // combination, respecting the height bound and size budget.
    let mut idx = 0;
    while idx < queue.len() {
        let r = queue[idx].clone();
        idx += 1;

        if stats.tested >= cfg.max_tested {
            return BruteForceOutcome::BudgetExceeded(stats);
        }
        if let Some(rv) = compose(&r, v) {
            let rv_geq_k = rv.sub_pattern_geq(k);
            if rv_geq_k.height() != target_height || rv_geq_k.label_set() != target_labels {
                stats.prefiltered += 1;
            } else {
                stats.tested += 1;
                stats.test_stats.equivalence_tests += 1;
                let before = oracle.stats();
                let holds = oracle.contained(&rv, p) && oracle.contained(p, &rv);
                let delta = oracle.stats().since(&before);
                stats.test_stats.models_checked += delta.models_checked;
                stats.test_stats.hom_hits +=
                    u32::try_from(delta.hom_fast_path_hits).unwrap_or(u32::MAX);
                if holds {
                    return BruteForceOutcome::Found(Box::new(r), stats);
                }
            }
        }

        if r.len() >= cfg.max_nodes {
            continue;
        }
        for parent in r.node_ids().collect::<Vec<PatId>>() {
            // Height bound: a new leaf under `parent` sits at depth(parent)+1.
            if node_tree_depth(&r, parent) + 1 > max_height {
                continue;
            }
            for &axis in &[Axis::Child, Axis::Descendant] {
                for &test in &label_pool {
                    let mut grown = r.clone();
                    grown.add_child(parent, axis, test);
                    if seen.insert(grown.canonical_key()) {
                        stats.generated += 1;
                        queue.push(grown);
                    }
                }
            }
        }
    }
    BruteForceOutcome::Exhausted(stats)
}

/// Depth of `n` in the pattern *tree* (number of edges from the root),
/// as opposed to the selection-path depth of `Pattern::node_depth`.
fn node_tree_depth(p: &Pattern, n: PatId) -> usize {
    let mut d = 0;
    let mut cur = n;
    while let Some(par) = p.parent(cur) {
        d += 1;
        cur = par;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_pattern::parse_xpath;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    fn run(ps: &str, vs: &str) -> BruteForceOutcome {
        brute_force_rewrite(&pat(ps), &pat(vs), &BruteForceConfig::default())
    }

    #[test]
    fn finds_trivial_suffix_rewriting() {
        // k = 1: the rewriting keeps the merged b node, so R = b/c.
        match run("a/b/c", "a/b") {
            BruteForceOutcome::Found(r, _) => assert_eq!(r.to_string(), "b/c"),
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn finds_relaxed_candidate_fig2() {
        // Reconstructed Figure 2: the only rewriting shape is *//e[d].
        match run("a[b]//*/e[d]", "a[b]/*") {
            BruteForceOutcome::Found(r, _) => {
                let rv = xpv_pattern::compose(&r, &pat("a[b]/*")).expect("composes");
                assert!(xpv_semantics::equivalent(&rv, &pat("a[b]//*/e[d]")));
            }
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn gate_closed_on_label_clash() {
        // out(V) labeled x, P's k-node labeled c.
        match run("a/b/c", "a/b/x") {
            BruteForceOutcome::GateClosed(_) => {}
            other => panic!("expected GateClosed, got {other:?}"),
        }
        // P's k-node wildcard, out(V) labeled.
        match run("a/*/c", "a/b") {
            BruteForceOutcome::GateClosed(_) => {}
            other => panic!("expected GateClosed, got {other:?}"),
        }
    }

    #[test]
    fn exhausts_when_no_rewriting_exists() {
        // P = a/b/c, V = a//b: any R must be c with spine... R∘V = a//b/c ≠ P
        // (the descendant edge of V survives composition). With branches the
        // small space is enumerable completely.
        match run("a/b/c", "a//b") {
            BruteForceOutcome::Exhausted(stats) => {
                assert!(stats.tested >= 1);
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn budget_exceeded_reported() {
        let cfg = BruteForceConfig { max_nodes: 8, max_tested: 3 };
        match brute_force_rewrite(&pat("a//*[x]/e"), &pat("a//*"), &cfg) {
            BruteForceOutcome::BudgetExceeded(stats) => assert_eq!(stats.tested, 3),
            // A tiny budget may still be enough if a rewriting shows up early.
            BruteForceOutcome::Found(..) => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn spine_labels_are_pinned() {
        // Rewritings of P = a/b/x/y using V = a/b (k = 1) must have spine
        // b/x/y; the found rewriting demonstrates the pinning (it IS b/x/y).
        match run("a/b/x/y", "a/b") {
            BruteForceOutcome::Found(r, stats) => {
                assert_eq!(r.to_string(), "b/x/y");
                // The bare spine is among the very first candidates: the
                // pinning means we never enumerate wrong-label spines.
                assert!(stats.tested <= 8, "tested={}", stats.tested);
            }
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn branch_rewriting_found() {
        // P = a/b/c[z], V = a/b (k = 1): R must be b/c[z].
        match run("a/b/c[z]", "a/b") {
            BruteForceOutcome::Found(r, _) => {
                assert_eq!(r.to_string(), "b/c[z]");
            }
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn wildcard_root_choice_explored() {
        // P = a/b/c, V = a/b/c ... k = d: R is a single node; root tests may
        // be c or * (glb(·, c) = c either way); both compose to P.
        match run("a/b/c", "a/b/c") {
            BruteForceOutcome::Found(r, _) => {
                assert_eq!(r.depth(), 0);
                assert_eq!(r.len(), 1);
            }
            other => panic!("expected Found, got {other:?}"),
        }
    }
}
