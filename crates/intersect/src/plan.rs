//! Subset selection: which views to intersect, and with what compensation.
//!
//! The planner walks small subsets of a view pool (pairs first, then
//! triples, …) whose members can merge into an exact intersection pattern,
//! and tests the query's natural candidates against each merged anchor
//! ([`QueryContext::verify`]).
//!
//! Everything about a subset but that test is a function of the pool
//! alone: its signature union, its merged anchor `M` and whether `Vi ⊑ M`
//! holds for a participant (the redundancy check, two or three
//! containments). An [`AnchorTable`] keeps them per pool version. It lists
//! the subsets in the order the search walks them and fills a subset's
//! anchor the first time a search reaches it with a signature union the
//! query admits and does not refute, so each anchor is merged and checked
//! at most once per table, whatever the number of queries. A search then
//! does only query-dependent work per subset: the signature test, the
//! label refutation and the candidate tests.
//!
//! The refutation reads the union's label mask, which is `M`'s: the merge
//! keeps every node of every participant. A refuted subset proves only
//! that no natural candidate verifies against `M`, which is all the search
//! routes on, so skipping it changes the work done, never the answer.

use std::fmt;
use std::mem::size_of;
use std::sync::OnceLock;

use xpv_core::{CandidateTestStats, PlanningSession, QueryContext};
use xpv_pattern::{intersect_patterns, Axis, Held, Pattern, QuerySignature, ViewSignature};

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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntersectStats {
    /// Subsets the search reached, within the budget.
    pub candidates_tried: u64,
    /// Subsets dismissed because the query signature rejects their
    /// signature union (the merged anchor's signature), or the query's
    /// labels refute every natural candidate against it, before any look
    /// at the anchor.
    pub sig_skipped: u64,
    /// Subsets whose views merged into an intersection pattern.
    pub merges_built: u64,
    /// Merged anchors skipped because they collapse onto a single
    /// participant (`Vi ⊑ M`), which the single-view planner covers.
    pub redundant_skipped: u64,
    /// Anchors the natural candidates were tested against.
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

/// A pool's subsets in search order, each with its anchor once a search
/// has needed it. Built from the view definitions alone, so a document
/// edit never changes it; a change of the pool needs a new one.
///
/// Blocks come arity-major (all pairs, then all triples), deepest depth
/// group first within an arity, each block's subsets in lexicographic
/// order over its group's views in pool order — the order a search walks.
/// A block keeps at most its first [`MAX_CANDIDATES`] subsets, because a
/// search reaches no more in one block. A search starting at a depth group
/// walks at most [`MAX_CANDIDATES`] subsets, so a table never fills more
/// than [`MAX_CANDIDATES`] × (number of depth groups) anchors. It holds
/// patterns and verdicts about them only, so any session may walk it.
#[derive(Debug)]
pub struct AnchorTable {
    /// The pool's definitions, in pool order.
    views: Vec<Pattern>,
    blocks: Vec<Block>,
}

/// The subsets of one depth group of one arity.
#[derive(Debug)]
struct Block {
    /// The group's selection depth.
    depth: usize,
    arity: usize,
    /// Each subset's pool indices, `arity` at a time, parallel to `slots`.
    members: Vec<usize>,
    slots: Vec<Slot>,
}

#[derive(Debug)]
struct Slot {
    /// The members' signature union: the merged anchor's signature, `None`
    /// when the output tests clash (then the merge fails too).
    union: Option<ViewSignature>,
    anchor: OnceLock<Anchor>,
}

/// What a subset's views make as an anchor.
#[derive(Debug)]
enum Anchor {
    /// The views do not merge into one tree pattern.
    Unmerged,
    /// `Vi ⊑ M` for some participant: the anchor is just `Vi`, which the
    /// single-view planner covers.
    Redundant,
    /// A merged anchor to test queries against.
    Merged(Pattern),
}

/// `true` when a view can take part in a tree-expressible intersection at
/// all: every selection edge below the root edge is a child edge (see
/// [`intersect_patterns`]).
fn mergeable_shape(v: &Pattern) -> bool {
    v.selection_axes().iter().skip(1).all(|&a| a == Axis::Child)
}

/// Enumerates the index subsets of `group` of size `arity` in lexicographic
/// order, invoking `visit` until it returns `false`.
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

impl AnchorTable {
    /// The table of `pool`, with nothing filled: no anchor merged and
    /// nothing decided.
    pub fn new(pool: &[&Pattern]) -> AnchorTable {
        // Candidate views, grouped by selection depth: only equal-depth
        // views merge, and the merged anchor inherits that depth, which the
        // planner's depth gate requires to be ≤ the query's. Deeper anchors
        // first: they leave the least compensation work and are the most
        // selective intersections.
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, v) in pool.iter().enumerate().filter(|(_, v)| mergeable_shape(v)) {
            let k = v.depth();
            match groups.iter_mut().find(|(depth, _)| *depth == k) {
                Some((_, group)) => group.push(i),
                None => groups.push((k, vec![i])),
            }
        }
        groups.sort_by_key(|&(depth, _)| std::cmp::Reverse(depth));
        let sigs: Vec<ViewSignature> = pool.iter().map(|v| ViewSignature::of(v)).collect();
        let mut blocks = Vec::new();
        for arity in 2..=MAX_ARITY {
            for (depth, group) in &groups {
                let mut block =
                    Block { depth: *depth, arity, members: Vec::new(), slots: Vec::new() };
                for_each_subset(group, arity, &mut |subset| {
                    let union =
                        subset[1..].iter().try_fold(sigs[subset[0]], |acc, &i| acc.union(&sigs[i]));
                    block.members.extend_from_slice(subset);
                    block.slots.push(Slot { union, anchor: OnceLock::new() });
                    block.slots.len() < MAX_CANDIDATES
                });
                if !block.slots.is_empty() {
                    blocks.push(block);
                }
            }
        }
        AnchorTable { views: pool.iter().map(|&v| v.clone()).collect(), blocks }
    }

    /// Anchors filled so far, and the bytes the whole table holds: its
    /// slots and member lists, its copies of the pool's definitions and
    /// the merged anchors' patterns.
    pub fn held(&self) -> Held {
        let slots = self.blocks.iter().flat_map(|b| &b.slots);
        let filled: Vec<&Anchor> = slots.filter_map(|s| s.anchor.get()).collect();
        let anchors: usize = filled
            .iter()
            .map(|a| match a {
                Anchor::Merged(pattern) => pattern.heap_bytes(),
                Anchor::Unmerged | Anchor::Redundant => 0,
            })
            .sum();
        let blocks: usize = self
            .blocks
            .iter()
            .map(|b| {
                size_of::<Block>()
                    + b.members.capacity() * size_of::<usize>()
                    + b.slots.capacity() * size_of::<Slot>()
            })
            .sum();
        let views: usize = self.views.iter().map(|v| size_of::<Pattern>() + v.heap_bytes()).sum();
        Held { entries: filled.len(), bytes: size_of::<AnchorTable>() + blocks + views + anchors }
    }

    /// The anchor of the subset `members` in `slot`, filled on first use:
    /// merged and checked for redundancy once per table.
    fn anchor<'t>(
        &'t self,
        session: &PlanningSession,
        members: &[usize],
        slot: &'t Slot,
    ) -> &'t Anchor {
        slot.anchor.get_or_init(|| {
            let views: Vec<&Pattern> = members.iter().map(|&i| &self.views[i]).collect();
            let Some(merged) = intersect_patterns(&views) else {
                return Anchor::Unmerged;
            };
            // Redundancy pruning: M ⊑ Vi holds by construction, so Vi ⊑ M
            // means the anchor is just Vi — single-view territory.
            let oracle = session.oracle();
            if views.iter().any(|v| oracle.contained(v, &merged)) {
                return Anchor::Redundant;
            }
            Anchor::Merged(merged)
        })
    }
}

/// Selects a small subset of `pool` whose intersection supports an
/// **equivalent** rewriting of `p`, trying pairs before triples (up to
/// [`MAX_ARITY`]) under the [`MAX_CANDIDATES`] budget. Every containment
/// goes through `session`'s oracle.
///
/// Returns the first answer found (deepest anchors first, then pool order)
/// together with the per-call search counters. See the crate docs for the
/// soundness/completeness contract. The search walks a throwaway
/// [`AnchorTable`] of `pool`, built for this call.
pub fn plan_intersection_in(
    session: &PlanningSession,
    p: &Pattern,
    pool: &[&Pattern],
) -> (Option<IntersectAnswer>, IntersectStats) {
    let table = AnchorTable::new(pool);
    plan_intersection_sig(session, &session.prepare(p), &QuerySignature::of(p), &table)
}

/// [`plan_intersection_in`] over a pool's [`AnchorTable`], always walked
/// with `session`: the serving layer keeps one table per pool version, so
/// the anchors a search reaches are merged once for all the queries that
/// reach them.
///
/// The search walks the table's subsets in order, skipping depth groups
/// deeper than the query, and counts each subset against the budget. A
/// subset whose signature union (label masks united, output tests glb-ed)
/// the query's signature `qsig` rejects, or against which the query's
/// labels refute both candidates ([`QueryContext::refutes`]), is skipped
/// before its anchor is looked at but still spends its unit of budget, so
/// the walk reaches the same subsets either way: both prunes change the
/// work done, never the answer. The query arrives prepared (`ctx`), so a
/// plan miss shares one context between its single-view scan and this
/// search.
pub fn plan_intersection_sig(
    session: &PlanningSession,
    ctx: &QueryContext<'_>,
    qsig: &QuerySignature,
    table: &AnchorTable,
) -> (Option<IntersectAnswer>, IntersectStats) {
    let mut stats = IntersectStats::default();
    let d = ctx.query().depth();
    let mut budget = MAX_CANDIDATES;
    for block in table.blocks.iter().filter(|b| b.depth <= d) {
        for (members, slot) in block.members.chunks(block.arity).zip(&block.slots) {
            if budget == 0 {
                return (None, stats);
            }
            budget -= 1;
            stats.candidates_tried += 1;
            if !slot
                .union
                .is_some_and(|u| qsig.admits(&u) && !ctx.refutes(block.depth, u.label_mask))
            {
                stats.sig_skipped += 1;
                continue;
            }
            let pattern = match table.anchor(session, members, slot) {
                Anchor::Unmerged => continue,
                Anchor::Redundant => {
                    stats.merges_built += 1;
                    stats.redundant_skipped += 1;
                    continue;
                }
                Anchor::Merged(pattern) => pattern,
            };
            stats.merges_built += 1;
            stats.plans_attempted += 1;
            let verified = ctx.verify(pattern, block.depth, &mut CandidateTestStats::default());
            if let Some(cand) = verified {
                stats.participants = members.len() as u64;
                let answer = IntersectAnswer {
                    views: members.to_vec(),
                    compensation: cand.pattern.clone(),
                    intersection: pattern.clone(),
                };
                return (Some(answer), stats);
            }
        }
    }
    (None, stats)
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
    fn a_table_fills_each_anchor_once() {
        let session = RewritePlanner::default().session();
        let views = pool(&[
            "site/region/item[bids]/name",
            "site/region/item[shipping]/name",
            "site/region/item[description]/name",
        ]);
        let refs: Vec<&Pattern> = views.iter().collect();
        let table = AnchorTable::new(&refs);
        assert_eq!(table.held().entries, 0, "building a table fills nothing");
        let p = pat("site/region/item[bids][shipping][description]/name");
        let search = || {
            plan_intersection_sig(&session, &session.prepare(&p), &QuerySignature::of(&p), &table)
        };
        let (first, stats) = search();
        // Each pair lacks one of the query's branches, which P≥3 = `name`
        // lacks too: the labels refute it and only the triple is merged.
        assert_eq!(table.held().entries, 1, "the triple alone");
        // Walked again, the anchor is the table's: nothing is merged or
        // checked, and the oracle is asked only the candidate test.
        let asked = session.oracle().stats().queries;
        let (again, again_stats) = search();
        let first = first.expect("the triple serves the query");
        let fresh = RewritePlanner::default().session();
        assert!(fresh.decide(&p, &first.intersection).rewriting().is_some());
        assert_eq!(session.oracle().stats().queries - asked, fresh.oracle().stats().queries);
        assert_eq!(again_stats, stats);
        assert_eq!(again.map(|a| a.views), Some(first.views));
        assert_eq!(table.held().entries, 1);
    }

    #[test]
    fn a_refuted_walk_spends_the_same_budget_and_fills_nothing() {
        let session = RewritePlanner::without_fallback().session();
        let views: Vec<Pattern> =
            (0..4).map(|i| pat(&format!("site/region/item[a{i}]/name"))).collect();
        let refs: Vec<&Pattern> = views.iter().collect();
        let table = AnchorTable::new(&refs);
        let walk = |q: &str| {
            let p = pat(q);
            plan_intersection_sig(&session, &session.prepare(&p), &QuerySignature::of(&p), &table)
        };
        // Every pair and triple is admitted, and none covers `zz`, which
        // P≥3 = `name[a0][a1][a2][a3]` lacks too: every slot is refuted.
        let (ans, refuted) = walk("site/region/item[zz]/name[a0][a1][a2][a3]");
        assert!(ans.is_none());
        assert_eq!((refuted.sig_skipped, refuted.merges_built), (10, 0));
        assert_eq!(table.held().entries, 0, "no anchor was merged");
        assert_eq!(session.oracle().stats().queries, 0, "the oracle was asked nothing");
        // Without `zz` no slot is refuted and every one is merged: the walk
        // reaches the same subsets.
        let (ans, walked) = walk("site/region/item/name[a0][a1][a2][a3]");
        assert!(ans.is_none(), "every anchor has an `item` branch the query lacks");
        assert_eq!(walked.candidates_tried, refuted.candidates_tried);
        assert_eq!((walked.sig_skipped, walked.plans_attempted), (0, 10));
        assert_eq!(table.held().entries, 10);
    }

    #[test]
    fn redundant_subsets_are_pruned() {
        let session = RewritePlanner::default().session();
        // v1 ⊒ v0: their intersection is just v0 — nothing multi-view about
        // it, and the single-view planner covers v0. (The query keeps its
        // `bids` below the 3-node, so its labels refute no anchor.)
        let views = pool(&["site/region/item[bids]/name", "site/region/item/name"]);
        let refs: Vec<&Pattern> = views.iter().collect();
        let p = pat("site/region/item/name[bids]");
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
