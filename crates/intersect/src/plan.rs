//! Subset selection: which views to intersect, and with what compensation.
//!
//! The planner enumerates small subsets of a view pool (pairs first, then
//! triples, …) whose members can merge into an exact intersection pattern,
//! and plans the query against each merged anchor through the shared
//! [`PlanningSession`] — so each `(query, anchor)` decision is made once
//! across searches and threads. The redundancy pre-check is two cheap
//! containments, decided afresh each time.

use std::fmt;

use xpv_core::{PlanningSession, QueryContext, RewriteAnswer};
use xpv_pattern::{intersect_patterns, Axis, Pattern, QuerySignature, ViewSignature};

/// A verified multi-view rewriting over a node-set intersection:
/// `R ◦ M ≡ P`, so the anchored evaluation equals direct evaluation.
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
}

/// Largest subset size tried (pairs are always tried first).
pub const MAX_ARITY: usize = 3;

/// Upper bound on merge attempts per query: the search stops after
/// examining this many subsets.
pub const MAX_CANDIDATES: usize = 64;

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

/// Selects a small subset of `pool` whose intersection supports an
/// **equivalent** rewriting of `p`, trying pairs before triples (up to
/// [`MAX_ARITY`]) under the [`MAX_CANDIDATES`] budget. Every decision
/// against a merged anchor goes through `session`'s decision memo.
///
/// Returns the first answer found (deepest anchors first, then pool order)
/// together with the per-call search counters. See the crate docs for the
/// soundness/completeness contract.
pub fn plan_intersection_in(
    session: &PlanningSession,
    p: &Pattern,
    pool: &[&Pattern],
) -> (Option<IntersectAnswer>, IntersectStats) {
    plan_intersection_sig(session, &session.prepare(p), pool, None)
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
/// be parallel to `pool`. The query arrives prepared (`ctx`, from
/// `session`), so a plan miss shares one context between its single-view
/// scan and this search.
pub fn plan_intersection_sig(
    session: &PlanningSession,
    ctx: &QueryContext<'_>,
    pool: &[&Pattern],
    sigs: Option<(&QuerySignature, &[ViewSignature])>,
) -> (Option<IntersectAnswer>, IntersectStats) {
    let mut stats = IntersectStats::default();
    let d = ctx.query().depth();
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
    let mut budget = MAX_CANDIDATES;
    for arity in 2..=MAX_ARITY {
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
                // Redundancy pruning: M ⊑ Vi holds by
                // construction, so Vi ⊑ M means the anchor is just Vi —
                // single-view territory.
                let oracle = session.oracle();
                if views.iter().any(|v| oracle.contained(v, &merged)) {
                    stats.redundant_skipped += 1;
                    return true;
                }
                stats.plans_attempted += 1;
                if let RewriteAnswer::Rewriting(rw) = session.decide_prepared(ctx, &merged) {
                    stats.participants = subset.len() as u64;
                    found = Some(IntersectAnswer {
                        views: subset.to_vec(),
                        compensation: rw.pattern().clone(),
                        intersection: merged,
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
    (found, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_core::RewritePlanner;
    use xpv_pattern::parse_xpath;
    use xpv_semantics::equivalent;

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
        let (ans, stats) = plan_intersection_in(&session, &p, &refs);
        let ans = ans.expect("pair answer");
        assert_eq!(ans.views, vec![0, 1]);
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
        let (ans, _) = plan_intersection_in(&session, &p, &refs);
        let ans = ans.expect("triple answer");
        assert_eq!(ans.views, vec![0, 1, 2]);
    }

    #[test]
    fn redundant_subsets_are_pruned() {
        let session = RewritePlanner::default().session();
        // v1 ⊒ v0: their intersection is just v0 — nothing multi-view about
        // it, and the single-view planner already failed on v0.
        let views = pool(&["site/region/item[bids]/name", "site/region/item/name"]);
        let refs: Vec<&Pattern> = views.iter().collect();
        let p = pat("site/region/item[bids][shipping]/name");
        let (ans, stats) = plan_intersection_in(&session, &p, &refs);
        assert!(ans.is_none());
        assert_eq!(stats.redundant_skipped, 1);
        assert_eq!(stats.plans_attempted, 0);
    }

    #[test]
    fn budget_stops_the_search() {
        let session = RewritePlanner::default().session();
        // Twelve equal-depth views: 66 pairs, more than the budget admits.
        let views: Vec<Pattern> =
            (1..=12).map(|i| pat(&format!("site/region/item[a{i}]/name"))).collect();
        let refs: Vec<&Pattern> = views.iter().collect();
        let p = pat("site/region/item[zz]/name");
        let (ans, stats) = plan_intersection_in(&session, &p, &refs);
        assert!(ans.is_none());
        assert_eq!(stats.candidates_tried, MAX_CANDIDATES as u64, "the budget caps the search");
    }

    #[test]
    fn unmergeable_pools_are_rejected_quietly() {
        let session = RewritePlanner::default().session();
        let views = pool(&["a//b//c", "a/b/c", "x/y"]);
        let refs: Vec<&Pattern> = views.iter().collect();
        let (ans, stats) = plan_intersection_in(&session, &pat("a/b/c[z]"), &refs);
        assert!(ans.is_none());
        // a//b//c has a descendant edge below the root edge; x/y has the
        // wrong depth group size (alone in its group) — nothing to try.
        assert_eq!(stats.merges_built, 0);
    }
}
