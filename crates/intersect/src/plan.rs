//! Subset selection: which views to intersect, and with what compensation.
//!
//! The planner enumerates small subsets of a view pool (pairs first, then
//! triples, …) whose members can merge into an exact intersection pattern,
//! and plans the query against each merged anchor through the shared
//! [`PlanningSession`] — so every containment verdict, including the
//! redundancy pre-check, is memoized across subsets, queries, and threads.

use std::fmt;

use xpv_core::{contained_rewriting_in, PlanningSession, RewriteAnswer};
use xpv_pattern::{intersect_patterns, Axis, Pattern, QuerySignature, ViewSignature};

/// A verified multi-view rewriting over a node-set intersection.
#[derive(Clone, Debug)]
pub struct IntersectAnswer {
    /// Indices of the participating views in the pool, ascending.
    pub views: Vec<usize>,
    /// The compensation pattern `R`: evaluate it anchored on
    /// `∩ views[i](t)` to obtain the answer.
    pub compensation: Pattern,
    /// The exact intersection pattern `M` the compensation was planned
    /// against (`M(t) = ∩ views[i](t)` on every document).
    pub intersection: Pattern,
    /// `true` when `R ◦ M ≡ P` (the answer equals direct evaluation);
    /// `false` for a *contained* compensation (`R ◦ M ⊑ P`: sound partial
    /// answers).
    pub equivalent: bool,
}

/// Budget knobs for the subset search.
#[derive(Clone, Copy, Debug)]
pub struct IntersectConfig {
    /// Largest subset size tried (≥ 2; pairs are always tried first).
    pub max_arity: usize,
    /// Upper bound on merge attempts per query (the search stops after
    /// examining this many subsets).
    pub max_candidates: usize,
}

impl Default for IntersectConfig {
    fn default() -> IntersectConfig {
        IntersectConfig { max_arity: 3, max_candidates: 64 }
    }
}

/// Counters describing one subset search (all per-call).
#[derive(Clone, Copy, Debug, Default)]
pub struct IntersectStats {
    /// Subsets for which a merge was attempted.
    pub candidates_tried: u64,
    /// Subsets dismissed by the signature-union necessary condition
    /// before any structural merge or containment work (zero when the
    /// caller passed no signatures).
    pub sig_skipped: u64,
    /// Subsets whose views actually merged into an intersection pattern.
    pub merges_built: u64,
    /// Merged anchors skipped because they collapse onto a single
    /// participant (`Vi ⊑ M`), which the single-view planner covers.
    pub redundant_skipped: u64,
    /// Anchors the full decision procedure ran against.
    pub plans_attempted: u64,
    /// Number of participants in the returned answer (0 when none).
    pub participants: u64,
}

impl fmt::Display for IntersectStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} subsets tried ({} sig-skipped, {} merged, {} redundant, {} planned), \
             {} participants chosen",
            self.candidates_tried,
            self.sig_skipped,
            self.merges_built,
            self.redundant_skipped,
            self.plans_attempted,
            self.participants
        )
    }
}

/// `true` when a view can take part in a tree-expressible intersection at
/// all: every selection edge below the root edge is a child edge (see
/// [`intersect_patterns`]).
fn mergeable_shape(v: &Pattern) -> bool {
    v.selection_axes().iter().skip(1).all(|&a| a == Axis::Child)
}

/// Enumerates the index subsets of `group` of size `arity` in lexicographic
/// order, invoking `visit` until it returns `false` (budget exhausted or
/// answer found).
fn for_each_subset(group: &[usize], arity: usize, visit: &mut impl FnMut(&[usize]) -> bool) {
    fn rec(
        group: &[usize],
        arity: usize,
        start: usize,
        current: &mut Vec<usize>,
        visit: &mut impl FnMut(&[usize]) -> bool,
    ) -> bool {
        if current.len() == arity {
            return visit(current);
        }
        for i in start..group.len() {
            current.push(group[i]);
            let keep_going = rec(group, arity, i + 1, current, visit);
            current.pop();
            if !keep_going {
                return false;
            }
        }
        true
    }
    let mut current = Vec::with_capacity(arity);
    rec(group, arity, 0, &mut current, visit);
}

/// The shared search skeleton: enumerate merge-compatible subsets, build
/// each anchor, prune redundant ones, and hand the anchor to `attempt`
/// (which returns a compensation or `None`).
fn search(
    session: &PlanningSession,
    p: &Pattern,
    pool: &[&Pattern],
    sigs: Option<(&QuerySignature, &[ViewSignature])>,
    cfg: &IntersectConfig,
    stats: &mut IntersectStats,
    attempt: &mut impl FnMut(&PlanningSession, &Pattern, &Pattern) -> Option<(Pattern, bool)>,
) -> Option<IntersectAnswer> {
    let d = p.depth();
    // Candidate views, grouped by selection depth: only equal-depth views
    // merge, and the merged anchor inherits that depth, which the planner's
    // depth gate requires to be ≤ the query's.
    let mut by_depth: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, v) in pool.iter().enumerate() {
        let k = v.depth();
        if k > d || !mergeable_shape(v) {
            continue;
        }
        match by_depth.iter_mut().find(|(depth, _)| *depth == k) {
            Some((_, group)) => group.push(i),
            None => by_depth.push((k, vec![i])),
        }
    }
    // Deeper anchors first: they leave the least compensation work and are
    // the most selective intersections.
    by_depth.sort_by_key(|&(depth, _)| std::cmp::Reverse(depth));

    let mut found: Option<IntersectAnswer> = None;
    let mut budget = cfg.max_candidates;
    for arity in 2..=cfg.max_arity.max(2) {
        for (_, group) in &by_depth {
            if group.len() < arity {
                continue;
            }
            for_each_subset(group, arity, &mut |subset| {
                if budget == 0 {
                    return false;
                }
                budget -= 1;
                stats.candidates_tried += 1;
                // Signature-union prune, *after* the budget decrement so
                // the filtered and unfiltered arms enumerate identical
                // subset sequences (byte-identical routes either way): the
                // union is the merged anchor's signature, and a rejected
                // union proves the subset cannot support an equivalent
                // compensation — or the merge itself would fail.
                if let Some((qsig, vsigs)) = sigs {
                    let unified = subset[1..]
                        .iter()
                        .try_fold(vsigs[subset[0]], |acc, &i| acc.union(&vsigs[i]));
                    if !unified.is_some_and(|u| qsig.admits(&u)) {
                        stats.sig_skipped += 1;
                        return true;
                    }
                }
                let views: Vec<&Pattern> = subset.iter().map(|&i| pool[i]).collect();
                let Some(merged) = intersect_patterns(&views) else {
                    return true;
                };
                stats.merges_built += 1;
                // Redundancy pruning (memoized): M ⊑ Vi holds by
                // construction, so Vi ⊑ M means the anchor is just Vi —
                // single-view territory.
                let oracle = session.oracle();
                if views.iter().any(|v| oracle.contained(v, &merged)) {
                    stats.redundant_skipped += 1;
                    return true;
                }
                stats.plans_attempted += 1;
                if let Some((compensation, equivalent)) = attempt(session, p, &merged) {
                    stats.participants = subset.len() as u64;
                    found = Some(IntersectAnswer {
                        views: subset.to_vec(),
                        compensation,
                        intersection: merged,
                        equivalent,
                    });
                    return false;
                }
                true
            });
            if found.is_some() || budget == 0 {
                break;
            }
        }
        if found.is_some() || budget == 0 {
            break;
        }
    }
    found
}

/// Selects a small subset of `pool` whose intersection supports an
/// **equivalent** rewriting of `p`, trying pairs before triples (up to
/// [`IntersectConfig::max_arity`]) under the
/// [`IntersectConfig::max_candidates`] budget. All containment work flows
/// through `session`'s oracle, so repeated searches are memoized.
///
/// Returns the first answer found (deepest anchors first, then pool order)
/// together with the per-call search counters. See the crate docs for the
/// soundness/completeness contract.
pub fn plan_intersection_in(
    session: &PlanningSession,
    p: &Pattern,
    pool: &[&Pattern],
    cfg: &IntersectConfig,
) -> (Option<IntersectAnswer>, IntersectStats) {
    plan_intersection_sig(session, p, pool, None, cfg)
}

/// [`plan_intersection_in`] with the serving layer's precomputed
/// signatures: each enumerated subset is first checked against the
/// **signature union** (the merged anchor's signature — label masks
/// union, output tests glb), and subsets whose union the query signature
/// rejects skip the structural merge, the redundancy containment check,
/// and the full decision procedure. The prune is a necessary condition,
/// so the returned answer is identical to the unfiltered search's (only
/// [`IntersectStats::sig_skipped`] and the work done differ). Pass
/// `sigs = None` when no precomputed signatures are at hand; `sigs` must
/// be parallel to `pool`.
pub fn plan_intersection_sig(
    session: &PlanningSession,
    p: &Pattern,
    pool: &[&Pattern],
    sigs: Option<(&QuerySignature, &[ViewSignature])>,
    cfg: &IntersectConfig,
) -> (Option<IntersectAnswer>, IntersectStats) {
    let mut stats = IntersectStats::default();
    let found =
        search(session, p, pool, sigs, cfg, &mut stats, &mut |session, p, merged| match session
            .decide(p, merged)
        {
            RewriteAnswer::Rewriting(rw) => Some((rw.pattern().clone(), true)),
            _ => None,
        });
    (found, stats)
}

/// [`plan_intersection_in`] with a fresh one-shot session.
pub fn plan_intersection(
    planner: &xpv_core::RewritePlanner,
    p: &Pattern,
    pool: &[&Pattern],
    cfg: &IntersectConfig,
) -> (Option<IntersectAnswer>, IntersectStats) {
    plan_intersection_in(&planner.session(), p, pool, cfg)
}

/// The *contained* variant for partial answers: selects a subset whose
/// intersection supports a compensation with `R ◦ M ⊑ P` (every returned
/// node is a genuine answer; some may be missing). Only subsets with **no**
/// equivalent compensation reach the contained test, so `equivalent` is
/// `true` on the returned answer exactly when the full answer is recovered.
///
/// Never signature-filtered: the signature conditions are necessary for
/// *equivalent* rewritings only — a contained compensation may use views
/// with labels or depth the query lacks.
pub fn plan_intersection_contained_in(
    session: &PlanningSession,
    p: &Pattern,
    pool: &[&Pattern],
    cfg: &IntersectConfig,
) -> (Option<IntersectAnswer>, IntersectStats) {
    let mut stats = IntersectStats::default();
    let found =
        search(session, p, pool, None, cfg, &mut stats, &mut |session, p, merged| match session
            .decide(p, merged)
        {
            RewriteAnswer::Rewriting(rw) => Some((rw.pattern().clone(), true)),
            _ => contained_rewriting_in(session.oracle(), p, merged).map(|r| (r, false)),
        });
    (found, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_core::RewritePlanner;
    use xpv_pattern::parse_xpath;
    use xpv_semantics::{contained, equivalent};

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    fn pool(defs: &[&str]) -> Vec<Pattern> {
        defs.iter().map(|s| pat(s)).collect()
    }

    #[test]
    fn pair_serves_query_no_single_view_can() {
        let session = RewritePlanner::default().session();
        let views = pool(&["site/region/item[bids]/name", "site/region/item[shipping]/name"]);
        let refs: Vec<&Pattern> = views.iter().collect();
        let p = pat("site/region/item[bids][shipping]/name");
        for v in &refs {
            assert!(session.decide(&p, v).rewriting().is_none(), "{v} must not suffice alone");
        }
        let (ans, stats) = plan_intersection_in(&session, &p, &refs, &IntersectConfig::default());
        let ans = ans.expect("pair answer");
        assert_eq!(ans.views, vec![0, 1]);
        assert!(ans.equivalent);
        let rm = xpv_pattern::compose(&ans.compensation, &ans.intersection).expect("composes");
        assert!(equivalent(&rm, &p));
        assert_eq!(stats.participants, 2);
        assert!(stats.plans_attempted >= 1);
    }

    #[test]
    fn triples_are_reached_when_pairs_fail() {
        let session = RewritePlanner::default().session();
        let views = pool(&[
            "site/region/item[bids]/name",
            "site/region/item[shipping]/name",
            "site/region/item[description]/name",
        ]);
        let refs: Vec<&Pattern> = views.iter().collect();
        let p = pat("site/region/item[bids][shipping][description]/name");
        let (ans, _) = plan_intersection_in(&session, &p, &refs, &IntersectConfig::default());
        let ans = ans.expect("triple answer");
        assert_eq!(ans.views, vec![0, 1, 2]);
        assert!(ans.equivalent);
    }

    #[test]
    fn redundant_subsets_are_pruned() {
        let session = RewritePlanner::default().session();
        // v1 ⊒ v0: their intersection is just v0 — nothing multi-view about
        // it, and the single-view planner already failed on v0.
        let views = pool(&["site/region/item[bids]/name", "site/region/item/name"]);
        let refs: Vec<&Pattern> = views.iter().collect();
        let p = pat("site/region/item[bids][shipping]/name");
        let (ans, stats) = plan_intersection_in(&session, &p, &refs, &IntersectConfig::default());
        assert!(ans.is_none());
        assert_eq!(stats.redundant_skipped, 1);
        assert_eq!(stats.plans_attempted, 0);
    }

    #[test]
    fn budget_stops_the_search() {
        let session = RewritePlanner::default().session();
        let views = pool(&[
            "site/region/item[a1]/name",
            "site/region/item[a2]/name",
            "site/region/item[a3]/name",
            "site/region/item[a4]/name",
        ]);
        let refs: Vec<&Pattern> = views.iter().collect();
        let p = pat("site/region/item[zz]/name");
        let cfg = IntersectConfig { max_arity: 3, max_candidates: 2 };
        let (ans, stats) = plan_intersection_in(&session, &p, &refs, &cfg);
        assert!(ans.is_none());
        assert_eq!(stats.candidates_tried, 2, "budget must cap the enumeration");
    }

    #[test]
    fn contained_variant_yields_sound_partial_compensations() {
        let session = RewritePlanner::default().session();
        // The intersection imposes [extra], which p does not require: no
        // equivalent compensation, but a contained one exists.
        let views =
            pool(&["site/region[extra]/item[bids]/name", "site/region[extra]/item[shipping]/name"]);
        let refs: Vec<&Pattern> = views.iter().collect();
        let p = pat("site/region/item[bids][shipping]/name");
        let (eq_ans, _) = plan_intersection_in(&session, &p, &refs, &IntersectConfig::default());
        assert!(eq_ans.is_none(), "the [extra] branch rules out equivalence");
        let (ans, _) =
            plan_intersection_contained_in(&session, &p, &refs, &IntersectConfig::default());
        let ans = ans.expect("contained answer");
        assert!(!ans.equivalent);
        let rm = xpv_pattern::compose(&ans.compensation, &ans.intersection).expect("composes");
        assert!(contained(&rm, &p));
        assert!(!equivalent(&rm, &p));
    }

    #[test]
    fn unmergeable_pools_are_rejected_quietly() {
        let session = RewritePlanner::default().session();
        let views = pool(&["a//b//c", "a/b/c", "x/y"]);
        let refs: Vec<&Pattern> = views.iter().collect();
        let (ans, stats) =
            plan_intersection_in(&session, &pat("a/b/c[z]"), &refs, &IntersectConfig::default());
        assert!(ans.is_none());
        // a//b//c has a descendant edge below the root edge; x/y has the
        // wrong depth group size (alone in its group) — nothing to try.
        assert_eq!(stats.merges_built, 0);
    }
}
