//! Seeded document **edit streams** — the update workload.
//!
//! Production documents don't churn uniformly: a few hot regions absorb
//! most writes while the rest of the tree stays cold. These generators
//! produce that regime reproducibly — Zipf-skewed edit targets (the hottest
//! targets are the deepest, most recently grown parts of the tree) over a
//! configurable insert/delete/relabel [`EditMix`]. The maintenance property
//! suite, the concurrency stress test and `perfbench/` all draw their
//! streams from here, so every consumer sees the same workload.
//!
//! Streams are **replayable**: each generated [`Edit`] is validated against
//! (and applied to) a working copy as it is drawn, and edit application is
//! deterministic in the ids it assigns, so applying the returned stream to
//! a fresh copy of the same document always succeeds and produces the same
//! final tree.

use std::fmt;
use std::str::FromStr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xpv_maintain::{apply_edit, Edit};
use xpv_model::{Label, NodeId, Tree};

/// Relative weights of the three edit kinds in a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EditMix {
    /// Weight of `InsertSubtree` edits.
    pub insert: u32,
    /// Weight of `DeleteSubtree` edits.
    pub delete: u32,
    /// Weight of `Relabel` edits.
    pub relabel: u32,
}

impl EditMix {
    /// A mix with the given weights (at least one must be nonzero).
    pub fn new(insert: u32, delete: u32, relabel: u32) -> EditMix {
        assert!(insert + delete + relabel > 0, "edit mix must have a nonzero weight");
        EditMix { insert, delete, relabel }
    }

    fn total(&self) -> u32 {
        self.insert + self.delete + self.relabel
    }
}

impl Default for EditMix {
    /// Insert-heavy churn: half inserts, a quarter each deletes/relabels.
    fn default() -> EditMix {
        EditMix { insert: 50, delete: 25, relabel: 25 }
    }
}

impl fmt::Display for EditMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.insert, self.delete, self.relabel)
    }
}

impl FromStr for EditMix {
    type Err = String;

    /// Parses `insert:delete:relabel` weight triples, e.g. `50:25:25`.
    fn from_str(s: &str) -> Result<EditMix, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 3 {
            return Err(format!("edit mix {s:?}: expected insert:delete:relabel"));
        }
        let mut w = [0u32; 3];
        for (slot, part) in w.iter_mut().zip(&parts) {
            *slot = part.parse::<u32>().map_err(|e| format!("edit mix {s:?}: {e}"))?;
        }
        if w.iter().all(|&x| x == 0) {
            return Err(format!("edit mix {s:?}: all weights are zero"));
        }
        Ok(EditMix { insert: w[0], delete: w[1], relabel: w[2] })
    }
}

/// Burst locality of an edit stream: `hot_percent`% of a stream's edits
/// land inside one of `hot_subtrees` fixed **hot subtrees** (the largest
/// depth-2 subtrees of the document, pairwise disjoint by construction).
/// This is the regime batch coalescing exploits — many edits under few
/// roots collapse to few merged regions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EditLocality {
    /// Number of hot subtrees the bursty share of edits clusters under.
    pub hot_subtrees: u32,
    /// Percentage (0–100) of edits targeting a hot subtree; the rest draw
    /// from the whole document like [`edit_stream`].
    pub hot_percent: u32,
}

impl EditLocality {
    /// A locality with the given shape (`hot_subtrees >= 1`,
    /// `hot_percent <= 100`).
    pub fn new(hot_subtrees: u32, hot_percent: u32) -> EditLocality {
        assert!(hot_subtrees >= 1, "need at least one hot subtree");
        assert!(hot_percent <= 100, "hot percent is a percentage");
        EditLocality { hot_subtrees, hot_percent }
    }
}

impl Default for EditLocality {
    /// The bursty default: 90% of edits under 4 hot subtrees.
    fn default() -> EditLocality {
        EditLocality { hot_subtrees: 4, hot_percent: 90 }
    }
}

impl fmt::Display for EditLocality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.hot_subtrees, self.hot_percent)
    }
}

impl FromStr for EditLocality {
    type Err = String;

    /// Parses `hot_subtrees:hot_percent` pairs, e.g. `4:90`.
    fn from_str(s: &str) -> Result<EditLocality, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 2 {
            return Err(format!("edit locality {s:?}: expected hot_subtrees:hot_percent"));
        }
        let subtrees = parts[0].parse::<u32>().map_err(|e| format!("edit locality {s:?}: {e}"))?;
        let percent = parts[1].parse::<u32>().map_err(|e| format!("edit locality {s:?}: {e}"))?;
        if subtrees == 0 {
            return Err(format!("edit locality {s:?}: need at least one hot subtree"));
        }
        if percent > 100 {
            return Err(format!("edit locality {s:?}: percent exceeds 100"));
        }
        Ok(EditLocality { hot_subtrees: subtrees, hot_percent: percent })
    }
}

/// Growable harmonic prefix sums: `sums[i] = Σ_{j=1..=i} 1/j` — the
/// cumulative Zipf(s = 1) weights, shared across draws so each draw is a
/// binary search instead of an O(n) scan.
struct Harmonic {
    sums: Vec<f64>,
}

impl Harmonic {
    fn new() -> Harmonic {
        Harmonic { sums: vec![0.0] }
    }

    /// Zipf rank draw over `0..n` (rank 0 hottest).
    fn draw(&mut self, rng: &mut StdRng, n: usize) -> usize {
        debug_assert!(n > 0);
        while self.sums.len() <= n {
            let k = self.sums.len();
            self.sums.push(self.sums[k - 1] + 1.0 / k as f64);
        }
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * self.sums[n];
        // Smallest rank whose cumulative weight exceeds `u`.
        self.sums[1..=n].partition_point(|&h| h <= u).min(n - 1)
    }
}

/// Size of the subtree rooted at `n` (live nodes).
fn subtree_size(t: &Tree, n: NodeId) -> usize {
    t.descendants_inclusive(n).len()
}

/// Generates a replayable stream of `count` edits against `doc` (the
/// document is not modified; an internal working copy tracks validity).
/// Targets are Zipf-skewed toward the deepest / most recently grown nodes;
/// kinds follow `mix`. Deletes are bounded (small subtrees only) and
/// suppressed while the document is small, falling back to relabels, so
/// the tree never collapses. Deterministic in `(doc, count, mix, seed)`.
pub fn edit_stream(doc: &Tree, count: usize, mix: EditMix, seed: u64) -> Vec<Edit> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut working = doc.clone();
    let labels: Vec<Label> = doc.label_set();
    let mut out: Vec<Edit> = Vec::with_capacity(count);
    let mut harmonic = Harmonic::new();
    // Live non-root targets, arena order: later ids are the deepest, most
    // recently inserted nodes — the hot end of the Zipf ranks. Maintained
    // incrementally from the edit receipts (appends for inserts, a retain
    // for deletes), so a draw costs a binary search, not a tree walk.
    let mut candidates: Vec<NodeId> = working.node_ids().skip(1).collect();

    for _ in 0..count {
        if candidates.is_empty() {
            break;
        }
        let rank = harmonic.draw(&mut rng, candidates.len());
        let target = candidates[candidates.len() - 1 - rank];

        let roll = rng.gen_range(0..mix.total() as usize) as u32;
        let kind = if roll < mix.insert {
            0
        } else if roll < mix.insert + mix.delete {
            1
        } else {
            2
        };

        let edit = match kind {
            0 => {
                // Graft a small subtree (1–3 nodes) of workload labels
                // under the target's parent — churn next to hot content.
                let parent = working.parent(target).expect("non-root target");
                let mut graft = Tree::new(labels[rng.gen_range(0..labels.len())]);
                for _ in 0..rng.gen_range(0..=2usize) {
                    graft.add_child(graft.root(), labels[rng.gen_range(0..labels.len())]);
                }
                Edit::InsertSubtree { parent, subtree: graft }
            }
            1 if working.len() > 8 && subtree_size(&working, target) <= 16 => {
                Edit::DeleteSubtree { node: target }
            }
            _ => Edit::Relabel { node: target, label: labels[rng.gen_range(0..labels.len())] },
        };
        let before = working.arena_len();
        let receipt =
            apply_edit(&mut working, &edit).expect("generated edits are valid by construction");
        match receipt {
            xpv_maintain::AppliedEdit::Inserted { nodes, .. } => {
                // Inserted ids are the contiguous arena tail, already in
                // ascending order.
                debug_assert_eq!(working.arena_len(), before + nodes);
                candidates.extend((before..before + nodes).map(|i| NodeId(i as u32)));
            }
            xpv_maintain::AppliedEdit::Deleted { removed, .. } => {
                let dead: std::collections::HashSet<NodeId> = removed.into_iter().collect();
                candidates.retain(|n| !dead.contains(n));
            }
            xpv_maintain::AppliedEdit::Relabeled { .. } => {}
        }
        out.push(edit);
    }
    out
}

/// Like [`edit_stream`], but **clustered**: `locality.hot_percent`% of the
/// edits target one of `locality.hot_subtrees` fixed hot subtrees (the
/// largest depth-2 subtrees of `doc`, so they are pairwise disjoint), with
/// Zipf skew *within* each hot subtree; the remainder draw from the whole
/// document. Deletes never remove a hot root or one of its ancestors, so
/// the clusters persist for the stream's whole length. Deterministic in
/// `(doc, count, mix, locality, seed)` and replayable like `edit_stream`.
pub fn edit_stream_clustered(
    doc: &Tree,
    count: usize,
    mix: EditMix,
    locality: EditLocality,
    seed: u64,
) -> Vec<Edit> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut working = doc.clone();
    let labels: Vec<Label> = doc.label_set();
    let mut out: Vec<Edit> = Vec::with_capacity(count);
    let mut harmonic = Harmonic::new();

    // Hot roots: largest depth-2 subtrees (grandchildren of the root),
    // falling back to depth-1 children on shallow documents. Siblings and
    // cousins, hence pairwise disjoint.
    let depth1: Vec<NodeId> = working.children(working.root()).to_vec();
    let mut pool: Vec<NodeId> = depth1.iter().flat_map(|&c| working.children(c).to_vec()).collect();
    if pool.is_empty() {
        pool = depth1;
    }
    pool.sort_by_key(|&n| std::cmp::Reverse(subtree_size(&working, n)));
    pool.truncate(locality.hot_subtrees as usize);
    let hot_roots: Vec<NodeId> = pool;
    // Ancestors of hot roots (and the roots themselves) are never deleted:
    // removing one would dissolve its cluster mid-stream.
    let mut protected: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
    for &r in &hot_roots {
        let mut v = Some(r);
        while let Some(n) = v {
            protected.insert(n);
            v = working.parent(n);
        }
    }

    let mut candidates: Vec<NodeId> = working.node_ids().skip(1).collect();
    // Per-hot-subtree candidate lists, arena order (hot end last), kept in
    // sync from the edit receipts like the global list.
    let mut hot: Vec<Vec<NodeId>> = hot_roots
        .iter()
        .map(|&r| {
            let mut d = working.descendants_inclusive(r);
            d.sort();
            d
        })
        .collect();

    for _ in 0..count {
        if candidates.is_empty() {
            break;
        }
        let burst = !hot.is_empty() && rng.gen_range(0..100usize) < locality.hot_percent as usize;
        let target = if burst {
            let w = rng.gen_range(0..hot.len());
            let list = if hot[w].is_empty() { &candidates } else { &hot[w] };
            let rank = harmonic.draw(&mut rng, list.len());
            list[list.len() - 1 - rank]
        } else {
            let rank = harmonic.draw(&mut rng, candidates.len());
            candidates[candidates.len() - 1 - rank]
        };

        let roll = rng.gen_range(0..mix.total() as usize) as u32;
        let kind = if roll < mix.insert {
            0
        } else if roll < mix.insert + mix.delete {
            1
        } else {
            2
        };

        let edit = match kind {
            0 => {
                let parent = working.parent(target).expect("non-root target");
                let mut graft = Tree::new(labels[rng.gen_range(0..labels.len())]);
                for _ in 0..rng.gen_range(0..=2usize) {
                    graft.add_child(graft.root(), labels[rng.gen_range(0..labels.len())]);
                }
                Edit::InsertSubtree { parent, subtree: graft }
            }
            1 if working.len() > 8
                && !protected.contains(&target)
                && subtree_size(&working, target) <= 16 =>
            {
                Edit::DeleteSubtree { node: target }
            }
            _ => Edit::Relabel { node: target, label: labels[rng.gen_range(0..labels.len())] },
        };
        let before = working.arena_len();
        let receipt =
            apply_edit(&mut working, &edit).expect("generated edits are valid by construction");
        match receipt {
            xpv_maintain::AppliedEdit::Inserted { parent, nodes, .. } => {
                debug_assert_eq!(working.arena_len(), before + nodes);
                let fresh = (before..before + nodes).map(|i| NodeId(i as u32));
                candidates.extend(fresh.clone());
                // New nodes belong to the hot subtree containing the
                // insertion parent, if any (climb; hot roots are shallow).
                let mut v = Some(parent);
                while let Some(n) = v {
                    if let Some(w) = hot_roots.iter().position(|&r| r == n) {
                        hot[w].extend(fresh);
                        break;
                    }
                    v = working.parent(n);
                }
            }
            xpv_maintain::AppliedEdit::Deleted { removed, .. } => {
                let dead: std::collections::HashSet<NodeId> = removed.into_iter().collect();
                candidates.retain(|n| !dead.contains(n));
                for list in hot.iter_mut() {
                    list.retain(|n| !dead.contains(n));
                }
            }
            xpv_maintain::AppliedEdit::Relabeled { .. } => {}
        }
        out.push(edit);
    }
    out
}

/// Splits a stream into `batches` contiguous chunks (the last may be
/// short) — the shape `apply_edits` consumes.
pub fn edit_batches(stream: &[Edit], batches: usize) -> Vec<Vec<Edit>> {
    let size = stream.len().div_ceil(batches.max(1)).max(1);
    stream.chunks(size).map(|c| c.to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::site_doc;
    use xpv_maintain::apply_edits;

    #[test]
    fn streams_are_deterministic_and_replayable() {
        let doc = site_doc(4, 4, 7);
        let a = edit_stream(&doc, 60, EditMix::default(), 0xE1);
        let b = edit_stream(&doc, 60, EditMix::default(), 0xE1);
        assert_eq!(a.len(), 60);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed, same stream");
        // Replay from a fresh copy succeeds end to end.
        let mut replay = doc.clone();
        apply_edits(&mut replay, &a).expect("stream replays");
        let mut replay2 = doc.clone();
        apply_edits(&mut replay2, &b).expect("stream replays");
        assert_eq!(replay.canonical_key(), replay2.canonical_key());
    }

    #[test]
    fn mix_weights_are_respected() {
        let doc = site_doc(6, 6, 7);
        let stream = edit_stream(&doc, 300, EditMix::new(1, 0, 0), 9);
        assert!(stream.iter().all(|e| matches!(e, Edit::InsertSubtree { .. })));
        let stream = edit_stream(&doc, 300, EditMix::new(0, 0, 1), 9);
        assert!(stream.iter().all(|e| matches!(e, Edit::Relabel { .. })));
        // A delete-only mix still falls back to relabels for oversized
        // subtrees but must produce a healthy share of deletes.
        let stream = edit_stream(&doc, 300, EditMix::new(0, 1, 0), 9);
        let deletes = stream.iter().filter(|e| matches!(e, Edit::DeleteSubtree { .. })).count();
        assert!(deletes > 100, "only {deletes} deletes out of 300");
    }

    #[test]
    fn edit_targets_are_skewed() {
        let doc = site_doc(8, 8, 7);
        let stream = edit_stream(&doc, 200, EditMix::new(0, 0, 1), 11);
        let mut targets: Vec<u32> = stream
            .iter()
            .map(|e| match e {
                Edit::Relabel { node, .. } => node.0,
                _ => unreachable!("relabel-only mix"),
            })
            .collect();
        let total = targets.len();
        targets.sort();
        targets.dedup();
        assert!(targets.len() < total, "Zipf skew must revisit hot targets");
    }

    #[test]
    fn mix_parses_and_displays() {
        let mix: EditMix = "40:30:30".parse().expect("parses");
        assert_eq!(mix, EditMix::new(40, 30, 30));
        assert_eq!(mix.to_string(), "40:30:30");
        assert!("1:2".parse::<EditMix>().is_err());
        assert!("0:0:0".parse::<EditMix>().is_err());
        assert!("a:b:c".parse::<EditMix>().is_err());
    }

    #[test]
    fn clustered_streams_are_deterministic_and_replayable() {
        let doc = site_doc(6, 6, 7);
        let loc = EditLocality::new(3, 85);
        let a = edit_stream_clustered(&doc, 80, EditMix::default(), loc, 0xC1);
        let b = edit_stream_clustered(&doc, 80, EditMix::default(), loc, 0xC1);
        assert_eq!(a.len(), 80);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed, same stream");
        let mut replay = doc.clone();
        apply_edits(&mut replay, &a).expect("clustered stream replays");
    }

    #[test]
    fn clustered_streams_concentrate_under_hot_roots() {
        let doc = site_doc(8, 8, 7);
        // Relabel-only keeps every edit's target visible in the stream.
        let stream =
            edit_stream_clustered(&doc, 300, EditMix::new(0, 0, 1), EditLocality::new(2, 100), 3);
        let mut targets: Vec<NodeId> = stream
            .iter()
            .map(|e| match e {
                Edit::Relabel { node, .. } => *node,
                _ => unreachable!("relabel-only mix"),
            })
            .collect();
        targets.sort();
        targets.dedup();
        // Two hot subtrees of a (8, 8)-fanout document cover a small
        // fraction of its nodes; a 100% bursty stream must stay inside.
        let mut roots: Vec<NodeId> =
            doc.children(doc.root()).iter().flat_map(|&c| doc.children(c).to_vec()).collect();
        roots.sort_by_key(|&n| std::cmp::Reverse(doc.descendants_inclusive(n).len()));
        roots.truncate(2);
        let in_hot = |n: NodeId| {
            roots.iter().any(|&r| {
                let mut v = Some(n);
                while let Some(x) = v {
                    if x == r {
                        return true;
                    }
                    v = doc.parent(x);
                }
                false
            })
        };
        // Relabel-only streams never grow the tree, so every target is an
        // original node and ancestry can be checked against `doc`.
        assert!(targets.iter().all(|&n| in_hot(n)), "fully bursty stream escaped its hot subtrees");
        assert!(targets.len() < doc.len() / 4, "hot subtrees must be a small node fraction");
    }

    #[test]
    fn locality_parses_and_displays() {
        let loc: EditLocality = "4:90".parse().expect("parses");
        assert_eq!(loc, EditLocality::new(4, 90));
        assert_eq!(loc.to_string(), "4:90");
        assert_eq!(EditLocality::default(), EditLocality::new(4, 90));
        assert!("4".parse::<EditLocality>().is_err());
        assert!("0:50".parse::<EditLocality>().is_err());
        assert!("4:101".parse::<EditLocality>().is_err());
    }

    #[test]
    fn batches_cover_the_stream() {
        let doc = site_doc(3, 3, 7);
        let stream = edit_stream(&doc, 50, EditMix::default(), 5);
        let batches = edit_batches(&stream, 8);
        assert_eq!(batches.iter().map(Vec::len).sum::<usize>(), 50);
        assert!(batches.len() <= 8);
    }
}
