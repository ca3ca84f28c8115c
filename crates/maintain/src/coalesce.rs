//! Batch coalescing: turn k edits into few disjoint re-evaluation regions.
//!
//! ## The decomposition
//!
//! Write the view's selection path as `u_0 … u_k` (root to output) and, for
//! each spine node `u_i`, let `B_i(v)` hold when the document node `v`
//! satisfies `u_i`'s node test **and** every non-spine branch hanging off
//! `u_i` matches below `v` (child branches at children of `v`, descendant
//! branches at proper descendants). Then
//!
//! > `n ∈ P(t)`  ⇔  there are `v_0 = root(t), v_1, …, v_k = n` respecting
//! > the spine axes with `B_i(v_i)` for all `i`.
//!
//! Each `B_i(v)` depends only on `label(v)` and the subtree below `v`. This
//! is what bounds the re-evaluation region of an edit anchored at `e` (the
//! deepest surviving node whose subtree content changed):
//!
//! * for a node `v` that is neither an ancestor of `e` nor inside the
//!   edited subtree, `subtree(v)` is untouched, so every `B_i(v)` is
//!   unchanged;
//! * hence for an answer candidate `n` outside the edited subtree, the
//!   `B` values along its ancestor path can only have changed at **common
//!   ancestors of `n` and `e`** — nodes on the spine `root → e`;
//! * so if no spine node changed any `B_i`, memberships outside the edited
//!   subtree are unchanged, and the region to re-evaluate is exactly the
//!   edited subtree; otherwise it is the subtree of the **highest** spine
//!   node whose `B`-vector changed (which contains the edited subtree).
//!
//! The engine reads every `B_i(v)` as bits of its `FlatTree` snapshots
//! ([`FlatSpines`]) and runs the restricted evaluation with
//! `xpv_semantics::RegionScanner`. With the region chosen as above the
//! patched set is **equal to full recomputation**. The property suites check
//! each step against its definition on randomized documents, views and edit
//! streams: every `B`-vector bit against `u_i` evaluated at the slot
//! (`tests/eval_flat_properties.rs`), and every plan's regions, stored set
//! and counter against `xpv_semantics::evaluate` before and after the batch
//! (`tests/maintain_properties.rs`).
//!
//! ## The pipeline
//!
//! Maintaining a view edit by edit — record pre-edit `B`-vectors, apply,
//! diff, scan one region per (view, edit) pair — makes a bursty batch (many
//! edits under one hot subtree) pay k nearly identical region scans per
//! view. This module reorders the work:
//!
//! 1. [`prepare_batch`] applies the **whole batch first**, in place
//!    (transactionality is unchanged: undo receipts roll back on an invalid
//!    edit, exactly — arena length, child ranges and sibling order
//!    included), recording each edit's anchor spine, touched labels, and
//!    inserted root. The spines are recorded as indices into one per-batch
//!    table of distinct spine nodes ([`PreparedBatch::spine_nodes`]):
//!    clustered edits share the top of their spines, and the table holds
//!    each shared node once;
//! 2. [`coalesce_plan`] compares, per view, the spine `B`-vectors between
//!    the **pre-batch** document `t0` and the **post-batch** document `t1`
//!    in one pass, collects one region root per affected edit, and
//!    [merges](merge_regions) nested roots — a region contained in another
//!    collapses into it, and edits sharing a changed ancestor spine node
//!    collapse to the highest such node — so k edits under one hot subtree
//!    cost **one** region scan per view. The two snapshots are fixed for
//!    the batch, so whether a node's vector changed is one fact per (view,
//!    node): each view keeps it per table entry (not compared, clean,
//!    changed), and a node on many edits' spines is compared once;
//! 3. the caller scans each surviving `(view, region)` task and
//!    [`apply_region_results`] patches the answer bitsets from the scans'
//!    answers and slot lists. A scan costs what its region holds, so all of
//!    a batch's scans together come to less than spawning threads for them
//!    would: they run on the calling thread.
//!
//! Both sides of the comparison are [`FlatSpines`]: `B_i(v)` is one bit of
//! a posting and one bit of each memoized witness set of a `FlatTree`
//! snapshot, so a comparison is bit tests on the previous snapshot and on
//! the next, and the next one's scanners then run the scans
//! ([`scan_regions_flat`]) — the write path reads snapshots only.
//!
//! ## Why the cumulative `t0` → `t1` comparison is sound
//!
//! Fix a view with spine `u_0 … u_k` and per-position predicates `B_i(v)`
//! (node test plus branch witnesses below `v`; each `B_i(v)` reads only
//! `label(v)` and `subtree(v)` — see §The decomposition). Membership in
//! `P(t1)` factors through chains of live-`t1` nodes, so it is determined
//! by the `B` values of nodes **alive in `t1`**. Consider any such node `v`
//! whose `B`-vector differs between `t0` and `t1` (treating a node that did
//! not exist in `t0` as having the all-false vector — it hosted nothing):
//!
//! * Edits whose touched labels are disjoint from a wildcard-free view's
//!   labels change **no** `B` value of that view (inserted/removed/relabeled
//!   nodes can never be witness images, and no other node's label or
//!   ancestor relations move), so the `t0 → t1` difference at `v`
//!   telescopes over the view's *affected* edits only.
//! * If `v` existed in `t0`, some affected edit `j` changed `subtree(v)` or
//!   `label(v)` across its application, which makes `v` an ancestor-or-self
//!   of edit `j`'s anchor — i.e. `v` lies on `j`'s **recorded spine** and is
//!   compared directly (ancestor paths of surviving nodes never change, so
//!   the spine recorded mid-batch is the `t1` path too).
//! * If `v` is new in `t1`, it lies inside some inserted subtree. Either a
//!   compared ancestor's `B` changed (that region contains `v`), or the
//!   insert's surviving `inserted_root` is taken as a region root, or `v`
//!   sits on a later affected edit's spine where the all-false-`t0` rule
//!   flags it the moment its `t1` vector is non-zero. In every case the
//!   chosen region (the subtree of the highest flagged node) contains every
//!   answer whose chain runs through `v`, because hosting `u_i` at `v`
//!   places the output image inside `subtree(v)`.
//!
//! Nodes dead in `t1` need no comparison: they cannot host chain images,
//! and tombstoned answers are dropped by the liveness filter during
//! patching. Answers outside every merged region therefore kept their
//! entire chain's `B` values, and answers inside are recomputed exactly —
//! the patched set equals full re-materialization, which the property suite
//! (`tests/maintain_properties.rs`) checks against a from-scratch
//! evaluation on randomized batches, whole and one edit at a time. The
//! argument compares each `B_i` on its own, so a `B`-vector must be exact
//! per position on either side: a label absent from a document makes the
//! positions testing it false there, and no others.

use std::collections::{HashMap, HashSet};

use xpv_model::{BitSet, FlatTree, NodeId, Tree, NO_PARENT};
use xpv_pattern::Pattern;
use xpv_semantics::RegionScanner;

use crate::edit::{undo, validate_edit, AppliedEdit, Edit, EditError};
use crate::refresh::MaintainStats;

/// Spine positions are tracked in a `u64` reachability mask; deeper
/// patterns fall back to full recomputation (sound, never observed in
/// practice).
pub const MAX_TRACKED_DEPTH: usize = 63;

/// What [`coalesce_plan`] reads of a view pattern: its spine depth and the
/// inputs of the label fast path. Built once per view and batch.
#[derive(Clone, Debug)]
pub struct SpineInfo {
    /// Number of spine edges (`k`).
    depth: usize,
    /// Whether any node test is the wildcard (disables the label fast path).
    has_wildcard: bool,
    /// Sorted concrete labels used by the pattern.
    labels: Vec<xpv_model::Label>,
}

impl SpineInfo {
    /// Reads what the plan needs off `p`.
    pub fn new(p: &Pattern) -> SpineInfo {
        SpineInfo {
            depth: p.depth(),
            has_wildcard: p.node_ids().any(|n| p.test(n).is_wildcard()),
            labels: p.label_set(),
        }
    }

    /// Number of spine edges (`k`).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// `true` when the reachability mask can track every spine position.
    pub fn trackable(&self) -> bool {
        self.depth() <= MAX_TRACKED_DEPTH
    }

    /// The label-disjointness fast path: a pattern without wildcards whose
    /// label set is disjoint from every label an edit touched cannot change
    /// its answer set — touched nodes can never be embedding images, and
    /// the edit alters neither labels nor ancestor relations of any other
    /// node.
    pub fn unaffected_by_labels(&self, touched: &[xpv_model::Label]) -> bool {
        !self.has_wildcard && touched.iter().all(|l| self.labels.binary_search(l).is_err())
    }
}

/// What [`prepare_batch`] records about one applied edit: everything the
/// coalescer needs without re-reading mid-batch tree states.
#[derive(Clone, Debug)]
pub struct BatchAnchor {
    /// Root-first ancestor path to the edit's anchor (the deepest surviving
    /// node whose subtree content changed), recorded at application time,
    /// as indices into [`PreparedBatch::spine_nodes`]. Ancestor paths of
    /// surviving nodes are stable, so this is also the post-batch path;
    /// nodes deleted by later edits are skipped when read.
    pub spine: Vec<u32>,
    /// For inserts, the id of the grafted subtree's root.
    pub inserted_root: Option<NodeId>,
    /// Sorted, deduplicated labels the edit touched (the label-disjointness
    /// fast-path input).
    pub touched: Vec<xpv_model::Label>,
}

/// A whole batch applied up front: receipts (for the engine's delta
/// accounting) plus per-edit anchors (for the coalescer).
#[derive(Clone, Debug)]
pub struct PreparedBatch {
    /// Application receipts, in batch order.
    pub receipts: Vec<AppliedEdit>,
    /// One anchor record per edit, in batch order.
    pub anchors: Vec<BatchAnchor>,
    /// The batch's distinct spine nodes, each once, whichever edits' spines
    /// share it: the table [`BatchAnchor::spine`] indexes, and the one
    /// [`coalesce_plan`] keeps a comparison per view for.
    pub spine_nodes: Vec<NodeId>,
}

impl PreparedBatch {
    /// The slots whose row the batch changed, as [`FlatTree::derive`] takes
    /// them: every slot a delete removed, the parent of every inserted and
    /// every deleted subtree root, every relabeled slot (unsorted, with
    /// repeats; inserted slots are appended and need no naming).
    pub fn touched_slots(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        for receipt in &self.receipts {
            match receipt {
                AppliedEdit::Inserted { parent, .. } => out.push(*parent),
                AppliedEdit::Deleted { parent, removed, .. } => {
                    out.push(*parent);
                    out.extend_from_slice(removed);
                }
                AppliedEdit::Relabeled { node, .. } => out.push(*node),
            }
        }
        out
    }
}

/// Validates and applies the whole batch to `doc`, recording anchors.
/// **Transactional**: on an invalid edit every applied edit is undone (in
/// reverse) and the error names the offending batch position.
pub fn prepare_batch(doc: &mut Tree, edits: &[Edit]) -> Result<PreparedBatch, EditError> {
    let mut receipts: Vec<AppliedEdit> = Vec::with_capacity(edits.len());
    let mut anchors: Vec<BatchAnchor> = Vec::with_capacity(edits.len());
    let mut spine_nodes: Vec<NodeId> = Vec::new();
    let mut slot_of: HashMap<NodeId, u32> = HashMap::new();
    for (idx, edit) in edits.iter().enumerate() {
        if let Err(e) = validate_edit(doc, edit, idx) {
            for receipt in receipts.iter().rev() {
                undo(doc, receipt);
            }
            return Err(e);
        }
        let anchor = edit.anchor(doc).expect("validated edits have an anchor");
        let mut spine = Vec::new();
        for v in std::iter::successors(Some(anchor), |&v| doc.parent(v)) {
            let next = spine_nodes.len() as u32;
            spine.push(*slot_of.entry(v).or_insert_with(|| {
                spine_nodes.push(v);
                next
            }));
        }
        spine.reverse();
        let receipt = crate::edit::apply_edit(doc, edit).expect("validated edit applies");
        let inserted_root = match &receipt {
            AppliedEdit::Inserted { root, .. } => Some(*root),
            _ => None,
        };
        anchors.push(BatchAnchor { spine, inserted_root, touched: receipt.touched_labels() });
        receipts.push(receipt);
    }
    Ok(PreparedBatch { receipts, anchors, spine_nodes })
}

/// How one view is refreshed after coalescing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViewDisposition {
    /// Every edit was label-disjoint: the answer set is provably untouched
    /// (no liveness filter needed — a deleted answer's label would have
    /// intersected the view's).
    Clean,
    /// Some edits were relevant but no spine `B`-vector changed and no
    /// inserted subtree survived: only tombstoned answers can have dropped.
    SpineClean,
    /// The spine is too deep for the reachability mask: the caller supplies
    /// a fresh evaluation over the whole post-batch document.
    Full,
    /// Re-scan exactly these merged region roots (ascending, disjoint
    /// subtrees).
    Regions(Vec<NodeId>),
}

/// The coalesced refresh plan for one batch: per-view dispositions and the
/// partially filled batch counters.
#[derive(Clone, Debug)]
pub struct CoalescedPlan {
    /// One disposition per view, in `defs` order.
    pub dispositions: Vec<ViewDisposition>,
    /// Counters filled so far (`edits_applied`, `view_edit_checks`,
    /// `label_skips`, `spine_clean`, `regions_before_merge`); the scan /
    /// patch phases add the rest.
    pub stats: MaintainStats,
}

/// One independent scan: re-evaluate view `view` inside `subtree(root)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionTask {
    /// Index into the plan's `defs`/`dispositions`.
    pub view: usize,
    /// The merged region's root (a live post-batch node).
    pub root: NodeId,
}

impl CoalescedPlan {
    /// All region scans of the plan, ordered by `(view, root)` — the
    /// deterministic order results are combined in regardless of execution
    /// schedule.
    pub fn region_tasks(&self) -> Vec<RegionTask> {
        let mut out = Vec::new();
        for (view, d) in self.dispositions.iter().enumerate() {
            if let ViewDisposition::Regions(roots) = d {
                out.extend(roots.iter().map(|&root| RegionTask { view, root }));
            }
        }
        out
    }
}

/// One side of a batch as [`coalesce_plan`] reads it — the snapshot before
/// the batch or after it — with the spine `B`-vectors of every view over
/// it: a [`RegionScanner`] per view, laid out on first use and kept, so the
/// post-batch side's scanners — and the witness sets they put in the
/// snapshot's memo — also serve the scans ([`scan_regions_flat`]).
pub struct FlatSpines<'a> {
    ft: &'a FlatTree,
    defs: &'a [&'a Pattern],
    scanners: Vec<Option<RegionScanner<'a>>>,
}

impl<'a> FlatSpines<'a> {
    /// The views `defs` over `ft`; nothing is laid out yet.
    pub fn new(ft: &'a FlatTree, defs: &'a [&'a Pattern]) -> FlatSpines<'a> {
        FlatSpines { ft, defs, scanners: defs.iter().map(|_| None).collect() }
    }

    fn scanner(&mut self, view: usize) -> &RegionScanner<'a> {
        let (ft, def) = (self.ft, self.defs[view]);
        self.scanners[view].get_or_insert_with(|| RegionScanner::new(def, ft))
    }

    /// Whether `v` is a live slot of this snapshot.
    fn is_alive(&self, v: NodeId) -> bool {
        self.ft.is_alive(v.index())
    }

    /// The parent of the live slot `v` (`None` for the root).
    fn parent(&self, v: NodeId) -> Option<NodeId> {
        Some(self.ft.parent(v.index())).filter(|&p| p != NO_PARENT).map(NodeId)
    }

    /// View `view`'s `B`-vector at `v`: bit `i` is `B_i(v)`, and every bit
    /// is false when `v` is not a live slot of this snapshot.
    fn b_vector(&mut self, view: usize, v: NodeId) -> u64 {
        if !self.is_alive(v) {
            return 0;
        }
        self.scanner(view).b_vector(v)
    }
}

/// Computes the coalesced refresh plan by diffing spine `B`-vectors between
/// the pre-batch snapshot `t0` and the post-batch snapshot `t1` of `prep`
/// (see the module docs for the correctness argument). Each side keeps what
/// it computes per view for the whole batch, and each view keeps whether
/// its vector changed at each of the batch's [spine
/// nodes](PreparedBatch::spine_nodes), so the overlapping spines of a
/// bursty batch compare each node once per view.
pub fn coalesce_plan(
    defs: &[&Pattern],
    prep: &PreparedBatch,
    t0: &mut FlatSpines<'_>,
    t1: &mut FlatSpines<'_>,
) -> CoalescedPlan {
    let mut stats =
        MaintainStats { edits_applied: prep.receipts.len() as u64, ..MaintainStats::default() };

    let mut dispositions = Vec::with_capacity(defs.len());
    // Per spine node: not compared yet, or whether the view's vector moved.
    let mut changed: Vec<Option<bool>> = vec![None; prep.spine_nodes.len()];
    for (view, def) in defs.iter().enumerate() {
        let info = SpineInfo::new(def);
        stats.view_edit_checks += prep.anchors.len() as u64;
        let affected: Vec<&BatchAnchor> = prep
            .anchors
            .iter()
            .filter(|a| {
                if info.unaffected_by_labels(&a.touched) {
                    stats.label_skips += 1;
                    false
                } else {
                    true
                }
            })
            .collect();
        if affected.is_empty() {
            dispositions.push(ViewDisposition::Clean);
            continue;
        }
        if !info.trackable() {
            dispositions.push(ViewDisposition::Full);
            continue;
        }

        let mut roots: Vec<NodeId> = Vec::new();
        changed.fill(None);
        for a in affected {
            // Highest spine node whose B-vector changed wins; nodes new in
            // t1 compare against the all-false vector (they hosted nothing
            // in t0), nodes dead in t1 host nothing now and are skipped.
            let dirty = a.spine.iter().map(|&i| i as usize).find(|&i| {
                *changed[i].get_or_insert_with(|| {
                    let v = prep.spine_nodes[i];
                    t1.is_alive(v) && t0.b_vector(view, v) != t1.b_vector(view, v)
                })
            });
            let dirty = dirty.map(|i| prep.spine_nodes[i]);
            let region = dirty.or(a.inserted_root.filter(|&r| t1.is_alive(r)));
            if let Some(r) = region {
                roots.push(r);
            }
        }

        if roots.is_empty() {
            stats.spine_clean += 1;
            dispositions.push(ViewDisposition::SpineClean);
        } else {
            stats.regions_before_merge += roots.len() as u64;
            dispositions.push(ViewDisposition::Regions(merge_regions(|v| t1.parent(v), roots)));
        }
    }

    CoalescedPlan { dispositions, stats }
}

/// Merges region roots: drops every root with a proper ancestor in the set
/// (its subtree is contained in the ancestor's), climbing `parent`, and
/// returns the survivors ascending — deterministic and pairwise disjoint.
/// Roots that were chosen as "highest changed spine node" for several
/// edits collapse here too: they dedup to one entry.
pub fn merge_regions(
    parent: impl Fn(NodeId) -> Option<NodeId>,
    mut roots: Vec<NodeId>,
) -> Vec<NodeId> {
    roots.sort();
    roots.dedup();
    let set: HashSet<NodeId> = roots.iter().copied().collect();
    roots
        .into_iter()
        .filter(|&r| {
            let mut cur = parent(r);
            while let Some(p) = cur {
                if set.contains(&p) {
                    return false;
                }
                cur = parent(p);
            }
            true
        })
        .collect()
}

/// Patches every answer set from its disposition and the per-task region
/// results (`results[i]` is the (answers, region slots) pair of
/// `plan.region_tasks()[i]`, from [`scan_regions_flat`]): the old set minus
/// the slots `prep` removed, minus the scanned regions' slots, plus what
/// the scans found there, at the post-batch arena's width `arena_len`. A
/// [`ViewDisposition::Full`] view takes `fresh(v)`, the caller's ascending
/// evaluation of view `v` on the post-batch document. `old[v]` is view
/// `v`'s pre-batch answer set, of any capacity up to the post-batch arena
/// (slots past it are non-members); the result holds its next set, or
/// `None` when the set did **not change**.
///
/// The flips are counted before anything is built: the old answers among
/// the removed slots, and per region the slots whose membership the scan
/// changed (`found ⊆ slots`, and removed slots are in no region). They are
/// the added and removed counters, and only a view with a flip gets a new
/// set, `old[v]` grown and patched; a [`ViewDisposition::Clean`] view is
/// not read. So a batch that moves few answers costs bit tests on the
/// slots it touched, not words of arena width per view. Tasks are in
/// `(view, root)` order, so each `Regions` view takes the next
/// `roots.len()` results.
pub fn apply_region_results(
    arena_len: usize,
    prep: &PreparedBatch,
    old: &[&BitSet],
    plan: &CoalescedPlan,
    results: &[(Vec<NodeId>, Vec<NodeId>)],
    mut fresh: impl FnMut(usize) -> Vec<NodeId>,
    stats: &mut MaintainStats,
) -> Vec<Option<BitSet>> {
    let mut results = results;
    let removed = || {
        prep.receipts.iter().flat_map(|r| match r {
            AppliedEdit::Deleted { removed, .. } => removed.as_slice(),
            _ => &[],
        })
    };
    let patched = plan
        .dispositions
        .iter()
        .enumerate()
        .map(|(v, d)| {
            let set = old[v];
            let had = |n: &NodeId| n.index() < set.capacity() && set.contains(n.index());
            let scans = match d {
                ViewDisposition::Clean => return None,
                ViewDisposition::SpineClean => &[][..],
                ViewDisposition::Full => {
                    stats.full_recomputes += 1;
                    let next = BitSet::from_indices(arena_len, fresh(v).iter().map(|n| n.index()));
                    let (added, dropped) =
                        (next.difference_count(set), set.difference_count(&next));
                    stats.answers_added += added as u64;
                    stats.answers_removed += dropped as u64;
                    return (added + dropped > 0).then_some(next);
                }
                ViewDisposition::Regions(roots) => {
                    let (scans, rest) = results.split_at(roots.len());
                    results = rest;
                    stats.regions_scanned += roots.len() as u64;
                    scans
                }
            };
            // Regions of one view are disjoint and a scan finds answers
            // only among the slots it visited: per region, the old answers
            // among its slots that it did not find, and the found slots
            // that were no answer.
            let (mut added, mut dropped) = (0, removed().filter(|n| had(n)).count());
            for (found, slots) in scans {
                let kept = found.iter().filter(|n| had(n)).count();
                dropped += slots.iter().filter(|n| had(n)).count() - kept;
                added += found.len() - kept;
                stats.region_nodes += slots.len() as u64;
            }
            stats.answers_added += added as u64;
            stats.answers_removed += dropped as u64;
            if added + dropped == 0 {
                return None;
            }
            let mut next = set.grown(arena_len);
            removed().for_each(|n| next.remove(n.index()));
            for (found, slots) in scans {
                slots.iter().for_each(|n| next.remove(n.index()));
                found.iter().for_each(|n| next.insert(n.index()));
            }
            Some(next)
        })
        .collect();
    assert!(results.is_empty(), "one result per region task");
    stats.scans_saved += stats.regions_before_merge.saturating_sub(stats.regions_scanned);
    patched
}

/// Scans every task over the post-batch snapshot, in task order, with the
/// scanners `t1` laid out while the plan was made (one per view, reused
/// across its regions): the witness sets they read are the ones the reads
/// after the swap will use.
pub fn scan_regions_flat(
    t1: &mut FlatSpines<'_>,
    tasks: &[RegionTask],
) -> Vec<(Vec<NodeId>, Vec<NodeId>)> {
    tasks.iter().map(|task| t1.scanner(task.view).scan(task.root)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_model::TreeBuilder;
    use xpv_pattern::parse_xpath;
    use xpv_semantics::evaluate;

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
            b.child("region", |b| {
                b.child("item", |b| {
                    b.leaf("name");
                });
            });
        })
    }

    /// Maintains `q` through `prep` (already applied to `t1`) as the engine
    /// does: the plan over `freeze(t0)` and the snapshot derived from it,
    /// the scans of its regions, and the patch of `q`'s `t0` answers.
    /// Returns the plan, the finished counters and `q`'s answers after.
    fn maintain(
        t0: &Tree,
        t1: &Tree,
        q: &Pattern,
        prep: &PreparedBatch,
    ) -> (CoalescedPlan, MaintainStats, Vec<NodeId>) {
        let defs = [q];
        let f0 = FlatTree::freeze(t0);
        let f1 = f0.derive(t1, &prep.touched_slots());
        let mut after = FlatSpines::new(&f1, &defs);
        let plan = coalesce_plan(&defs, prep, &mut FlatSpines::new(&f0, &defs), &mut after);
        let results = scan_regions_flat(&mut after, &plan.region_tasks());
        let before =
            BitSet::from_indices(t0.arena_len(), evaluate(q, t0).iter().map(|n| n.index()));
        let mut stats = plan.stats;
        let fresh = |_| evaluate(q, t1);
        let n1 = f1.arena_len();
        let patched =
            apply_region_results(n1, prep, &[&before], &plan, &results, fresh, &mut stats);
        let next = patched[0].as_ref().unwrap_or(&before).nodes().collect();
        (plan, stats, next)
    }

    /// `apply_region_results` against its definition on hand-made plans
    /// over one batch — `old` grown to the new arena, cut to the live
    /// slots, the regions' slots cleared and what the scans found set —
    /// the set, whether it is `None` (unchanged) and every counter.
    #[test]
    fn patches_follow_their_definition_on_forced_shapes() {
        // site0(region1(item2(name3, bids4), item5(name6)), region7(item8(
        // name9))); item2 goes with its subtree, item10(name11) is grafted
        // under region7, past the arena the shorter sets were taken on.
        let t0 = doc();
        let mut t1 = t0.clone();
        let graft = TreeBuilder::root("item", |b| {
            b.leaf("name");
        });
        let edits = [
            Edit::DeleteSubtree { node: NodeId(2) },
            Edit::InsertSubtree { parent: NodeId(7), subtree: graft },
        ];
        let prep = prepare_batch(&mut t1, &edits).expect("valid batch");
        let f1 = FlatTree::freeze(&t1);
        let n1 = f1.arena_len();
        assert_eq!(n1, 12);
        let set = |cap: usize, ids: &[usize]| BitSet::from_indices(cap, ids.iter().copied());
        let ids = |v: &[u32]| v.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
        let region7 = (ids(&[9, 11]), ids(&[7, 8, 9, 10, 11]));
        let (old, dispositions, results) = (
            [
                set(12, &[3, 6]), // SpineClean, name3 died with item2
                set(10, &[6, 9]), // SpineClean, no dead answer, a shorter set
                set(10, &[9]),    // a region past the set's capacity: name11 joins
                set(10, &[9]),    // …and the same region, found as it was
                set(12, &[3]),    // Clean: never read, even with a dead answer
                set(10, &[4, 5]), // a region, and an answer dead outside it
                set(12, &[6]),    // Full
            ],
            vec![
                ViewDisposition::SpineClean,
                ViewDisposition::SpineClean,
                ViewDisposition::Regions(ids(&[7])),
                ViewDisposition::Regions(ids(&[7])),
                ViewDisposition::Clean,
                ViewDisposition::Regions(ids(&[1])),
                ViewDisposition::Full,
            ],
            vec![region7.clone(), (ids(&[9]), region7.1.clone()), (ids(&[5]), ids(&[1, 5, 6]))],
        );
        let plan = CoalescedPlan {
            dispositions,
            stats: MaintainStats { regions_before_merge: 4, ..MaintainStats::default() },
        };
        let olds: Vec<&BitSet> = old.iter().collect();
        let mut stats = plan.stats;
        let fresh = |_| ids(&[6, 9]);
        let got = apply_region_results(n1, &prep, &olds, &plan, &results, fresh, &mut stats);

        let mut want = MaintainStats { regions_before_merge: 4, ..MaintainStats::default() };
        let mut results = results.iter();
        for (v, d) in plan.dispositions.iter().enumerate() {
            let mut next = old[v].grown(n1);
            next.intersect_with(f1.live_mask());
            match d {
                ViewDisposition::Clean => {
                    assert!(got[v].is_none(), "view {v}: a clean view is not patched");
                    continue;
                }
                ViewDisposition::SpineClean => {}
                ViewDisposition::Full => {
                    next = set(n1, &[6, 9]);
                    want.full_recomputes += 1;
                }
                ViewDisposition::Regions(roots) => {
                    for (found, slots) in results.by_ref().take(roots.len()) {
                        slots.iter().for_each(|n| next.remove(n.index()));
                        found.iter().for_each(|n| next.insert(n.index()));
                        want.region_nodes += slots.len() as u64;
                    }
                    want.regions_scanned += roots.len() as u64;
                }
            }
            let grown = old[v].grown(n1);
            want.answers_added += next.difference_count(&grown) as u64;
            want.answers_removed += grown.difference_count(&next) as u64;
            let changed = (next != grown).then_some(next);
            assert_eq!(got[v], changed, "view {v}");
        }
        want.scans_saved = 1;
        assert_eq!(stats, want);
        let changed: Vec<bool> = got.iter().map(Option::is_some).collect();
        assert_eq!(changed, [true, false, true, false, false, true, true]);
    }

    #[test]
    fn nested_regions_merge_into_ancestors() {
        let t = doc();
        let r0 = t.children(t.root())[0];
        let item = t.children(r0)[0];
        let name = t.children(item)[0];
        let r1 = t.children(t.root())[1];
        let up = |n| t.parent(n);
        assert_eq!(merge_regions(up, vec![name, item, r1, item]), vec![item, r1], "nested + dup");
        assert_eq!(merge_regions(up, vec![t.root(), item]), vec![t.root()]);
        assert_eq!(merge_regions(up, vec![]), vec![]);
    }

    #[test]
    fn bursty_batch_coalesces_to_one_region_per_view() {
        let t = doc();
        let r0 = t.children(t.root())[0];
        let item = t.children(r0)[0];
        let graft = || {
            TreeBuilder::root("item", |b| {
                b.leaf("name");
                b.leaf("bids");
            })
        };
        // Three inserts under one hot subtree; the first flips the
        // `[comment]` predicate at the shared spine node r0, so every
        // edit's dirty scan lands on r0 and the roots dedup to one region.
        let edits = vec![
            Edit::InsertSubtree { parent: r0, subtree: TreeBuilder::root("comment", |_| {}) },
            Edit::InsertSubtree { parent: r0, subtree: graft() },
            Edit::InsertSubtree { parent: item, subtree: graft() },
        ];
        let t0 = t.clone();
        let mut t1 = t.clone();
        let q = pat("site/region[comment]/item/name");
        let prep = prepare_batch(&mut t1, &edits).expect("valid batch");
        let (plan, stats, after) = maintain(&t0, &t1, &q, &prep);
        assert_eq!(plan.stats.regions_before_merge, 3);
        let tasks = plan.region_tasks();
        assert_eq!(tasks.len(), 1, "three hot-subtree edits collapse to one scan");
        assert_eq!(tasks[0].root, r0, "the shared dirty spine node hosts the merged region");
        // And the coalesced scan reproduces a fresh evaluation.
        assert_eq!(after, evaluate(&q, &t1));
        assert_eq!(stats.scans_saved, 2);
    }

    #[test]
    fn label_disjoint_batches_are_clean() {
        let t = doc();
        let r0 = t.children(t.root())[0];
        let edits = vec![Edit::InsertSubtree {
            parent: r0,
            subtree: TreeBuilder::root("comment", |b| {
                b.leaf("text");
            }),
        }];
        let t0 = t.clone();
        let mut t1 = t.clone();
        let q = pat("site/region/item/name");
        let prep = prepare_batch(&mut t1, &edits).expect("valid");
        let (plan, _, after) = maintain(&t0, &t1, &q, &prep);
        assert_eq!(plan.dispositions[0], ViewDisposition::Clean);
        assert_eq!(plan.stats.label_skips, 1);
        assert!(plan.region_tasks().is_empty());
        assert_eq!(after, evaluate(&q, &t0));
    }

    #[test]
    fn label_fast_path_requires_no_wildcards() {
        let with_star = SpineInfo::new(&pat("site//*"));
        assert!(!with_star.unaffected_by_labels(&[xpv_model::Label::new("zzz")]));
        let plain = SpineInfo::new(&pat("site/region/item"));
        assert!(plain.unaffected_by_labels(&[xpv_model::Label::new("zzz")]));
        assert!(!plain.unaffected_by_labels(&[xpv_model::Label::new("item")]));
    }

    #[test]
    fn prepare_batch_rolls_back_on_invalid_edit() {
        let t = doc();
        let r0 = t.children(t.root())[0];
        let mut t1 = t.clone();
        let err = prepare_batch(
            &mut t1,
            &[
                Edit::InsertSubtree { parent: r0, subtree: TreeBuilder::root("x", |_| {}) },
                Edit::DeleteSubtree { node: NodeId(9999) },
            ],
        )
        .unwrap_err();
        assert!(matches!(err, EditError::NotLive { edit_index: 1, .. }));
        assert_eq!(t1.canonical_key(), t.canonical_key());
    }

    /// A node inserted by one (label-skipped) edit and made view-relevant by
    /// a later relabel: only the cumulative all-false-in-`t0` rule catches
    /// it — the regression the module-doc argument hinges on.
    #[test]
    fn relabel_inside_inserted_subtree_is_detected() {
        let t = doc();
        let r0 = t.children(t.root())[0];
        let q = pat("site//name");
        let t0 = t.clone();
        let mut t1 = t.clone();
        // Edit 0 inserts a view-irrelevant subtree; edit 1 relabels its leaf
        // (the graft's second slot) to a view label.
        let leaf = NodeId(t.arena_len() as u32 + 1);
        let prep_all = prepare_batch(
            &mut t1,
            &[
                Edit::InsertSubtree {
                    parent: r0,
                    subtree: TreeBuilder::root("comment", |b| {
                        b.leaf("text");
                    }),
                },
                Edit::Relabel { node: leaf, label: xpv_model::Label::new("name") },
            ],
        )
        .expect("valid");
        let (_, _, after) = maintain(&t0, &t1, &q, &prep_all);
        assert_eq!(after, evaluate(&q, &t1), "new name inside inserted subtree found");
        assert!(after.contains(&leaf));
    }
}
