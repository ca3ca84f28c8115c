//! The maintainer's test-facing entry point: apply an edit batch and patch
//! every view's answer set so it equals a from-scratch re-materialization.
//!
//! [`maintain_views`] runs the batch over plain `Tree`s in one of two
//! modes, both of them oracles: [`MaintainMode::Coalesced`] applies the
//! whole batch first and refreshes each view from its merged region set
//! (see [`crate::coalesce`]) with `SubMatcher`s over the two `Tree`s — the
//! reference for the engine, which drives the same plan over its pre- and
//! post-batch `FlatTree` snapshots — and
//! [`MaintainMode::FullRecompute`] re-evaluates every view over the whole
//! document, the differential oracle for both.
//!
//! Either mode reports the same thing per view: the [`ViewDelta`] between
//! its pre- and post-batch answer **node sets**. Views store nothing else
//! (by-value copies are computed on demand from the current document), so
//! content changes inside a surviving answer need no tracking.

use xpv_model::{BitSet, NodeId, Tree};
use xpv_pattern::Pattern;
use xpv_semantics::evaluate;

use crate::coalesce::{apply_region_results, coalesce_plan, scan_regions_serial, TreeSpines};
use crate::edit::{apply_edits, Edit, EditError};

/// How [`maintain_views`] refreshes the answer sets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MaintainMode {
    /// Apply the whole batch first, then patch each view from its merged,
    /// deduplicated region set (see [`crate::coalesce`]) — the default,
    /// and the pipeline the engine runs.
    #[default]
    Coalesced,
    /// Re-evaluate every view over the whole document after the batch —
    /// the rebuild-the-world oracle.
    FullRecompute,
}

/// The net change to one view's answer set over a maintained batch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ViewDelta {
    /// Answer nodes dropped by the batch (ascending).
    pub removed: Vec<NodeId>,
    /// Answer nodes gained by the batch (ascending).
    pub added: Vec<NodeId>,
}

impl ViewDelta {
    /// The delta between two **ascending** answer sets: `removed = old ∖
    /// new`, `added = new ∖ old`. Identical sets (the common case for a
    /// view an edit batch did not reach) short-circuit on one slice
    /// comparison; otherwise a single two-pointer merge yields both sides,
    /// in time and space proportional to the two sets rather than to the
    /// document.
    pub fn between(old: &[NodeId], new: &[NodeId]) -> ViewDelta {
        let mut delta = ViewDelta::default();
        if old == new {
            return delta;
        }
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < new.len() {
            match old[i].cmp(&new[j]) {
                std::cmp::Ordering::Less => {
                    delta.removed.push(old[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    delta.added.push(new[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        delta.removed.extend_from_slice(&old[i..]);
        delta.added.extend_from_slice(&new[j..]);
        delta
    }

    /// `true` when the batch left the view's answer set untouched — such a
    /// view keeps its stored state and every plan-memo route depending on
    /// it.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// Counters describing one maintained batch (aggregated by the engine).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintainStats {
    /// Edits applied.
    pub edits_applied: u64,
    /// (view, edit) pairs examined.
    pub view_edit_checks: u64,
    /// Pairs dismissed by the label-disjointness fast path.
    pub label_skips: u64,
    /// Pairs whose spine scan proved the answer set unchanged (no region
    /// re-evaluation at all, beyond dropping tombstoned answers).
    pub spine_clean: u64,
    /// Region re-evaluations run.
    pub regions_scanned: u64,
    /// Nodes visited across all region re-evaluations.
    pub region_nodes: u64,
    /// Whole-document re-evaluations (`FullRecompute` mode, or a spine too
    /// deep for the reachability mask).
    pub full_recomputes: u64,
    /// Answer nodes added across all views.
    pub answers_added: u64,
    /// Answer nodes removed across all views.
    pub answers_removed: u64,
    /// Per-(view, edit) region roots before coalescing merged them.
    pub regions_before_merge: u64,
    /// Region scans the merge eliminated (`regions_before_merge` minus the
    /// scans actually run) — what one scan per (view, edit) pair would have
    /// paid extra.
    pub scans_saved: u64,
    /// Microseconds applying edits: the engine's private copy of the
    /// pre-batch document, `prepare_batch`, and — after the swap — the
    /// release of the document that copy replaced.
    /// Together the five `*_us` phases cover an engine `apply_edits` call
    /// from its snapshot to its report, with no stretch left untimed.
    pub apply_us: u64,
    /// Microseconds building the post-batch `FlatTree` (in the engine,
    /// deriving it from the published one).
    pub freeze_us: u64,
    /// Microseconds diffing spines and merging regions (`coalesce_plan`).
    pub coalesce_us: u64,
    /// Microseconds scanning regions.
    pub scan_us: u64,
    /// Microseconds from the end of the scans to the end of publication:
    /// patching answer sets, diffing them into deltas, and — in the engine
    /// — publication (re-allocating the changed views, the state swap, the
    /// plan-memo sweep).
    pub patch_us: u64,
}

impl MaintainStats {
    /// Field-wise sum, used by the engine's lifetime aggregation.
    pub fn add(&mut self, other: &MaintainStats) {
        self.edits_applied += other.edits_applied;
        self.view_edit_checks += other.view_edit_checks;
        self.label_skips += other.label_skips;
        self.spine_clean += other.spine_clean;
        self.regions_scanned += other.regions_scanned;
        self.region_nodes += other.region_nodes;
        self.full_recomputes += other.full_recomputes;
        self.answers_added += other.answers_added;
        self.answers_removed += other.answers_removed;
        self.regions_before_merge += other.regions_before_merge;
        self.scans_saved += other.scans_saved;
        self.apply_us += other.apply_us;
        self.freeze_us += other.freeze_us;
        self.coalesce_us += other.coalesce_us;
        self.scan_us += other.scan_us;
        self.patch_us += other.patch_us;
    }

    /// The canonical counter enumeration: one `(name, value)` pair per
    /// field, in declaration order. The observability registry exposes
    /// these under `xpv_maintain_*`, and `Display` renders the same list
    /// — one naming authority, so the rendered line and the exposition
    /// can never drift (see the `xpv-obs` crate docs).
    pub fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
        f("edits_applied", self.edits_applied);
        f("view_edit_checks", self.view_edit_checks);
        f("label_skips", self.label_skips);
        f("spine_clean", self.spine_clean);
        f("regions_scanned", self.regions_scanned);
        f("region_nodes", self.region_nodes);
        f("full_recomputes", self.full_recomputes);
        f("answers_added", self.answers_added);
        f("answers_removed", self.answers_removed);
        f("regions_before_merge", self.regions_before_merge);
        f("scans_saved", self.scans_saved);
        f("apply_us", self.apply_us);
        f("freeze_us", self.freeze_us);
        f("coalesce_us", self.coalesce_us);
        f("scan_us", self.scan_us);
        f("patch_us", self.patch_us);
    }
}

impl std::fmt::Display for MaintainStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        xpv_obs::write_kv_line(f, |emit| self.visit(emit))
    }
}

/// Applies `edits` to `doc` and brings every `answers[i]` back to
/// `evaluate(defs[i], doc)`, patching from the merged regions (or
/// re-evaluating fully, per `mode`). Returns one cumulative [`ViewDelta`]
/// per view plus the batch counters.
///
/// **Transactional**: on an invalid edit the document is restored to its
/// pre-batch state, no answer set has been touched, and the error names the
/// offending batch position.
///
/// `defs.len()` must equal `answers.len()`, each `answers[i]` must be the
/// ascending answer set of `defs[i]` on the incoming document (as
/// `xpv_semantics::evaluate` produces).
pub fn maintain_views(
    doc: &mut Tree,
    defs: &[&Pattern],
    answers: &mut [Vec<NodeId>],
    edits: &[Edit],
    mode: MaintainMode,
) -> Result<(Vec<ViewDelta>, MaintainStats), EditError> {
    assert_eq!(defs.len(), answers.len(), "one answer set per view definition");

    let saved: Vec<Vec<NodeId>> = answers.to_vec();
    let mut stats;
    if mode == MaintainMode::Coalesced {
        // Batch-coalesced path: apply everything, diff spines t0 → t1 once,
        // scan the merged regions (over the `Tree` here; the engine diffs
        // and scans over its snapshots) and patch. The patch
        // works on slot sets, as the engine's store does; node lists are
        // converted here, at this oracle's boundary.
        let t0 = doc.clone();
        let prep = crate::coalesce::prepare_batch(doc, edits)?;
        let t1: &Tree = doc;
        let mut s1 = TreeSpines::new(t1, defs);
        let plan = coalesce_plan(defs, &prep, &mut TreeSpines::new(&t0, defs), &mut s1);
        let results = scan_regions_serial(&mut s1, &plan.region_tasks());
        let live = BitSet::from_indices(t1.arena_len(), t1.node_ids().map(|n| n.index()));
        let old: Vec<BitSet> = saved
            .iter()
            .map(|a| BitSet::from_indices(t0.arena_len(), a.iter().map(|n| n.index())))
            .collect();
        let old: Vec<&BitSet> = old.iter().collect();
        stats = plan.stats;
        let fresh = |v: usize| evaluate(defs[v], t1);
        let patched = apply_region_results(&live, &old, &plan, &results, fresh, &mut stats);
        for (ans, next) in answers.iter_mut().zip(patched) {
            if let Some(next) = next {
                *ans = next.nodes().collect();
            }
        }
    } else {
        // Full recompute: apply, then evaluate every view from scratch.
        apply_edits(doc, edits)?;
        stats = MaintainStats { edits_applied: edits.len() as u64, ..MaintainStats::default() };
        for (def, ans) in defs.iter().zip(answers.iter_mut()) {
            stats.view_edit_checks += 1;
            stats.full_recomputes += 1;
            *ans = evaluate(def, doc);
        }
    }
    let deltas: Vec<ViewDelta> =
        saved.iter().zip(answers.iter()).map(|(old, new)| ViewDelta::between(old, new)).collect();
    let moved = deltas.iter().fold((0, 0), |(added, removed), d| {
        (added + d.added.len() as u64, removed + d.removed.len() as u64)
    });
    // The patch counted by popcount; the lists it is diffed into here agree.
    assert!(
        mode != MaintainMode::Coalesced || moved == (stats.answers_added, stats.answers_removed)
    );
    (stats.answers_added, stats.answers_removed) = moved;
    Ok((deltas, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_model::{Label, TreeBuilder};
    use xpv_pattern::parse_xpath;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    fn doc() -> Tree {
        TreeBuilder::root("site", |b| {
            b.child("region", |b| {
                b.child("item", |b| {
                    b.leaf("name");
                    b.leaf("bids");
                });
                b.child("item", |b| {
                    b.leaf("name");
                });
            });
        })
    }

    fn item_graft() -> Tree {
        TreeBuilder::root("item", |b| {
            b.leaf("name");
            b.leaf("bids");
        })
    }

    /// Runs a batch through the coalesced maintainer and asserts every
    /// view equals a fresh evaluation afterwards.
    fn check(doc0: &Tree, defs: &[&Pattern], edits: &[Edit]) -> (Tree, Vec<ViewDelta>) {
        let mut t = doc0.clone();
        let mut answers: Vec<Vec<NodeId>> = defs.iter().map(|d| evaluate(d, &t)).collect();
        let (deltas, _) =
            maintain_views(&mut t, defs, &mut answers, edits, MaintainMode::Coalesced)
                .expect("valid batch");
        for (def, ans) in defs.iter().zip(&answers) {
            assert_eq!(ans, &evaluate(def, &t), "view {def} diverged from full recompute");
        }
        (t, deltas)
    }

    #[test]
    fn insert_extends_answers() {
        let t = doc();
        let region = t.children(t.root())[0];
        let q1 = pat("site/region/item/name");
        let q2 = pat("site/region/item[bids]/name");
        let (t2, deltas) = check(
            &t,
            &[&q1, &q2],
            &[Edit::InsertSubtree { parent: region, subtree: item_graft() }],
        );
        assert_eq!(deltas[0].added.len(), 1);
        assert_eq!(deltas[1].added.len(), 1);
        assert!(deltas[0].removed.is_empty());
        assert_eq!(evaluate(&q1, &t2).len(), 3);
    }

    #[test]
    fn delete_shrinks_answers_and_flips_predicates() {
        let t = doc();
        let region = t.children(t.root())[0];
        let first_item = t.children(region)[0];
        let bids = t.children(first_item)[1];
        assert_eq!(t.label(bids).name(), "bids");
        let q = pat("site/region/item[bids]/name");
        // Deleting the bids leaf flips B at the *item* (an ancestor):
        // the name under it must drop out of the predicate view.
        let (_, deltas) = check(&t, &[&q], &[Edit::DeleteSubtree { node: bids }]);
        assert_eq!(deltas[0].removed.len(), 1);
        assert!(deltas[0].added.is_empty());
    }

    #[test]
    fn relabel_moves_membership_both_ways() {
        let t = doc();
        let region = t.children(t.root())[0];
        let second_item = t.children(region)[1];
        let q = pat("site/region/item/name");
        let (_, deltas) = check(
            &t,
            &[&q],
            &[
                Edit::Relabel { node: second_item, label: Label::new("lot") },
                Edit::Relabel { node: second_item, label: Label::new("item") },
            ],
        );
        // Net effect of the two relabels is zero.
        assert!(deltas[0].added.is_empty() && deltas[0].removed.is_empty());
    }

    #[test]
    fn label_disjoint_edits_skip_reevaluation() {
        let t = doc();
        let region = t.children(t.root())[0];
        let q = pat("site/region/item/name");
        let mut t2 = t.clone();
        let mut answers = vec![evaluate(&q, &t2)];
        let graft = TreeBuilder::root("comment", |b| {
            b.leaf("text");
        });
        let (deltas, stats) = maintain_views(
            &mut t2,
            &[&q],
            &mut answers,
            &[Edit::InsertSubtree { parent: region, subtree: graft }],
            MaintainMode::Coalesced,
        )
        .expect("valid");
        assert_eq!(stats.label_skips, 1);
        assert_eq!(stats.regions_scanned, 0);
        assert!(deltas[0].is_empty());
        assert_eq!(answers[0], evaluate(&q, &t2));
    }

    #[test]
    fn edits_inside_a_surviving_answer_leave_an_empty_delta() {
        let t = doc();
        let region = t.children(t.root())[0];
        let first_item = t.children(region)[0];
        // Adding a leaf *inside* an answer's subtree changes what a copy of
        // it would hold, but not the answer set — and the set is all a view
        // stores.
        let q = pat("site/region/item");
        let graft = TreeBuilder::root("shipping", |_| {});
        let (_, deltas) =
            check(&t, &[&q], &[Edit::InsertSubtree { parent: first_item, subtree: graft }]);
        assert!(deltas[0].is_empty());
    }

    #[test]
    fn invalid_batch_restores_doc_and_answers() {
        let t = doc();
        let region = t.children(t.root())[0];
        let q = pat("site/region/item/name");
        let mut t2 = t.clone();
        let before = evaluate(&q, &t2);
        let mut answers = vec![before.clone()];
        let err = maintain_views(
            &mut t2,
            &[&q],
            &mut answers,
            &[
                Edit::InsertSubtree { parent: region, subtree: item_graft() },
                Edit::DeleteSubtree { node: NodeId(9999) },
            ],
            MaintainMode::Coalesced,
        )
        .unwrap_err();
        assert!(matches!(err, EditError::NotLive { edit_index: 1, .. }));
        assert_eq!(t2.canonical_key(), t.canonical_key());
        assert_eq!(answers[0], before);
    }

    #[test]
    fn full_recompute_mode_agrees_with_coalesced() {
        let t = doc();
        let region = t.children(t.root())[0];
        let q1 = pat("site/region/item[bids]/name");
        let q2 = pat("site//name");
        let edits = vec![
            Edit::InsertSubtree { parent: region, subtree: item_graft() },
            Edit::DeleteSubtree { node: t.children(region)[1] },
        ];
        let mut ti = t.clone();
        let mut ai = vec![evaluate(&q1, &ti), evaluate(&q2, &ti)];
        maintain_views(&mut ti, &[&q1, &q2], &mut ai, &edits, MaintainMode::Coalesced)
            .expect("valid");
        let mut tf = t.clone();
        let mut af = vec![evaluate(&q1, &tf), evaluate(&q2, &tf)];
        maintain_views(&mut tf, &[&q1, &q2], &mut af, &edits, MaintainMode::FullRecompute)
            .expect("valid");
        assert_eq!(ai, af, "both modes converge to the same answers");
        assert_eq!(ti.canonical_key(), tf.canonical_key());
    }
}
