//! A frozen struct-of-arrays snapshot of a [`Tree`] for the hot matcher.
//!
//! The embedding matcher spends its time asking three questions about a
//! document: *which nodes carry label ℓ*, *who are `n`'s children*, and
//! *who is `n`'s parent*. The arena [`Tree`] answers them through a
//! pointer-chasing `Vec<TreeNode>` whose per-node `Vec<NodeId>` child lists
//! scatter across the heap. [`FlatTree`] re-packs one tree into contiguous
//! arrays so those questions are answered at memory-bandwidth speed:
//!
//! * **`labels`** — one `u32` label id per arena slot (`0` for tombstones;
//!   real label ids are `NonZeroU32`, so `0` is never a live label);
//! * **CSR children** — `child_offsets` (length `arena_len + 1`) indexing
//!   into one flat `children` array, exactly the compressed-sparse-row
//!   layout used for graph adjacency;
//! * **`parents`** — one `u32` per slot (`NO_PARENT` for the root and for
//!   tombstones);
//! * **`live`** — the live-node mask as a [`BitSet`], the seed set for
//!   wildcard pattern nodes;
//! * **per-label posting bitsets** — for every label in the document, the
//!   bitset of live slots carrying it, the seed set for labeled pattern
//!   nodes. Label ids are the interner's dense indices, so the postings sit
//!   in a `Vec` behind a label-id → position table: filing a slot during
//!   the freeze, and finding a label's posting afterwards, is an array
//!   index, not a hash probe.
//!
//! [`FlatTree::freeze`] is one pass over the arena in slot order, copying
//! each live node's child slice out of the [`Tree`]'s pool into the CSR
//! array; it runs once per edit batch, between applying the edits and
//! scanning the regions.
//!
//! ## Shared-freeze contract
//!
//! A `FlatTree` is **observationally immutable**: the arrays above are built
//! once by [`FlatTree::freeze`] and never updated. The one field written
//! after the freeze is the **witness memo** ([`FlatTree::witness`]), a
//! bounded cache of pure functions of this document: an entry, whenever it
//! is computed and by whichever thread, is the same set, so a reader can
//! never tell an empty memo from a full or a contended one except by the
//! time it takes. The memo is created with the snapshot and dropped with
//! it. A new document is a new `FlatTree`, so there is nothing to
//! invalidate, and pool changes (`add_view` / `remove_view`), which reuse
//! the `Arc<FlatTree>`, keep it warm.
//!
//! The engine's `ShardedViewCache` constructs **one** `FlatTree` per edit
//! batch, immediately after the batch's edits are applied to the cloned
//! document and *before* view maintenance runs: the same frozen snapshot
//! first drives the region re-evaluations (whose witness sets then sit in
//! the memo for the reads that follow) and is then published by the
//! copy-on-write snapshot swap, so every reader that observes the new
//! document also observes its matching flat form. Readers therefore never
//! see a torn (half-updated) index, and the `O(n)` rebuild is paid once per
//! batch and shared between maintenance and serving.
//!
//! ## Why posting lists are sound under tombstoning
//!
//! [`Tree::remove_subtree`] tombstones slots instead of compacting, so raw
//! `NodeId` indices stay stable and answers materialized before an edit
//! remain meaningful after it. The flat form keeps that indexing (slot `i`
//! here is `NodeId(i)` there) but masks tombstones out at freeze time: dead
//! slots get label id `0`, an empty CSR range, `NO_PARENT`, a cleared bit
//! in `live`, and no posting entry. This is sound because a tombstoned
//! subtree is *detached* from its live parent at removal — no live node
//! lists a dead child, and a live node's parent is always live — so a
//! matcher that seeds from postings (live bits only) and walks CSR edges
//! (live edges only) can never reach a dead slot, while the reference
//! matcher over the un-flattened `Tree` skips dead nodes explicitly. The
//! two agree bit-for-bit on live slots.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::bitset::BitSet;
use crate::label::Label;
use crate::tree::{NodeId, Tree};

/// Sentinel parent index for the root and for tombstoned slots.
pub const NO_PARENT: u32 = u32::MAX;

/// Sentinel of the label-id → posting index: the label has no live slot.
const NO_POSTING: u32 = u32::MAX;

/// The most witness sets one snapshot keeps ([`FlatTree::witness`]); a
/// full memo is emptied and refills with the current working set.
pub const WITNESS_MEMO_BOUND: usize = 512;

/// Identifies one witness set of a document: the structural fingerprint of
/// a pattern subtree, and whether the edge into it is a descendant edge.
pub type WitnessKey = (u64, bool);

/// The per-snapshot cache behind [`FlatTree::witness`].
#[derive(Debug)]
struct WitnessMemo {
    sets: RwLock<HashMap<WitnessKey, Arc<BitSet>>>,
    bound: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl WitnessMemo {
    fn new(bound: usize) -> WitnessMemo {
        WitnessMemo {
            sets: RwLock::new(HashMap::new()),
            bound,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

/// A frozen struct-of-arrays view of one [`Tree`] (see the module docs for
/// the layout and the freeze-on-swap contract).
#[derive(Debug)]
pub struct FlatTree {
    labels: Vec<u32>,
    parents: Vec<u32>,
    child_offsets: Vec<u32>,
    children: Vec<u32>,
    live: BitSet,
    /// `posting_of[label id]` is the label's position in `postings`, or
    /// [`NO_POSTING`] (also implied past the end) when no live slot has it.
    posting_of: Vec<u32>,
    postings: Vec<BitSet>,
    live_count: usize,
    memo: WitnessMemo,
}

impl FlatTree {
    /// Builds the flat form of `t`. `O(arena_len)` time and space; the
    /// result indexes slots exactly like `t` (slot `i` ↔ `NodeId(i)`).
    pub fn freeze(t: &Tree) -> FlatTree {
        FlatTree::freeze_with_memo_bound(t, WITNESS_MEMO_BOUND)
    }

    /// [`FlatTree::freeze`] with a chosen memo bound, for this crate's tests.
    fn freeze_with_memo_bound(t: &Tree, memo_bound: usize) -> FlatTree {
        let nt = t.arena_len();
        let mut labels = vec![0u32; nt];
        let mut parents = vec![NO_PARENT; nt];
        let mut child_offsets = Vec::with_capacity(nt + 1);
        let mut children = Vec::with_capacity(nt.saturating_sub(1));
        let mut live = BitSet::new(nt);
        let mut posting_of: Vec<u32> = Vec::new();
        let mut postings: Vec<BitSet> = Vec::new();
        let mut live_count = 0usize;

        for i in 0..nt {
            child_offsets.push(children.len() as u32);
            let n = NodeId(i as u32);
            if !t.is_alive(n) {
                continue;
            }
            live_count += 1;
            live.insert(i);
            let lid = t.label(n).id();
            labels[i] = lid;
            // Label ids are dense interner indices: a table lookup per
            // node, grown to the largest id the document uses.
            if posting_of.len() <= lid as usize {
                posting_of.resize(lid as usize + 1, NO_POSTING);
            }
            let at = &mut posting_of[lid as usize];
            if *at == NO_POSTING {
                *at = postings.len() as u32;
                postings.push(BitSet::new(nt));
            }
            postings[*at as usize].insert(i);
            if let Some(p) = t.parent(n) {
                parents[i] = p.0;
            }
            // Live nodes never list tombstoned children (removal detaches
            // the subtree), so the CSR edge set is exactly the live edges.
            children.extend(t.children(n).iter().map(|c| c.0));
        }
        child_offsets.push(children.len() as u32);

        let memo = WitnessMemo::new(memo_bound);
        FlatTree {
            labels,
            parents,
            child_offsets,
            children,
            live,
            posting_of,
            postings,
            live_count,
            memo,
        }
    }

    /// Exclusive upper bound on slot indices, tombstones included — the
    /// capacity every bitset over this tree must use (mirrors
    /// [`Tree::arena_len`]).
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.labels.len()
    }

    /// Number of live nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Trees always contain at least the root.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The root slot (always 0; the root is never tombstoned).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Whether slot `i` is a live node.
    #[inline]
    pub fn is_alive(&self, i: usize) -> bool {
        i < self.arena_len() && self.live.contains(i)
    }

    /// The label id of slot `i` (`0` for tombstones).
    #[inline]
    pub fn label_id(&self, i: usize) -> u32 {
        self.labels[i]
    }

    /// The parent slot of `i`, or [`NO_PARENT`] for the root and tombstones.
    #[inline]
    pub fn parent(&self, i: usize) -> u32 {
        self.parents[i]
    }

    /// The child slots of `i` (empty for tombstones).
    #[inline]
    pub fn children(&self, i: usize) -> &[u32] {
        let lo = self.child_offsets[i] as usize;
        let hi = self.child_offsets[i + 1] as usize;
        &self.children[lo..hi]
    }

    /// The live-node mask — the seed set for wildcard pattern nodes.
    #[inline]
    pub fn live_mask(&self) -> &BitSet {
        &self.live
    }

    /// The posting bitset of `label` — every live slot carrying it — or
    /// `None` when the label does not occur in the document (the common
    /// fast-path for selective queries: an absent label empties the whole
    /// candidate set without touching the tree).
    #[inline]
    pub fn posting(&self, label: Label) -> Option<&BitSet> {
        match self.posting_of.get(label.id() as usize) {
            Some(&at) if at != NO_POSTING => Some(&self.postings[at as usize]),
            _ => None,
        }
    }

    /// The subtree mask of slot `n`: a bitset (capacity `arena_len`) with
    /// every slot of `subtree(n)` set, `n` inclusive. For a live `n` this is
    /// exactly the live slots below it (CSR edges never reach tombstones).
    /// Arena-sized whatever the subtree: region scans list their slots
    /// instead, and this is left to the fallback for spines too deep to
    /// track and to tests, which compare those lists against it.
    pub fn subtree_mask(&self, n: usize) -> BitSet {
        let mut mask = BitSet::new(self.arena_len());
        self.for_each_descendant(n, |i| mask.insert(i));
        mask
    }

    /// Pre-order traversal of the subtree rooted at slot `n` (inclusive),
    /// over the CSR arrays. Iterative, so a deep document costs heap, not
    /// call stack.
    pub fn for_each_descendant(&self, n: usize, mut f: impl FnMut(usize)) {
        let mut stack = vec![n as u32];
        while let Some(cur) = stack.pop() {
            f(cur as usize);
            stack.extend(self.children(cur as usize).iter().rev());
        }
    }

    /// The witness set filed under `key`, computing it with `compute` on
    /// the first request. `compute` must be a pure function of this
    /// document and `key` (the flat matcher keys by pattern-subtree
    /// fingerprint and edge axis); under that contract the memo is
    /// invisible: two threads that miss together compute equal sets and
    /// one of them is kept. `compute` runs outside the lock and may itself
    /// call `witness` for the subtrees below.
    pub fn witness(&self, key: WitnessKey, compute: impl FnOnce() -> BitSet) -> Arc<BitSet> {
        if let Some(hit) = self.memo.sets.read().expect("witness memo poisoned").get(&key) {
            self.memo.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        self.memo.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(compute());
        let mut sets = self.memo.sets.write().expect("witness memo poisoned");
        if sets.len() >= self.memo.bound {
            sets.clear();
        }
        Arc::clone(sets.entry(key).or_insert(fresh))
    }

    /// `(hits, misses)` of [`FlatTree::witness`] over this snapshot's life.
    pub fn witness_memo_counts(&self) -> (u64, u64) {
        (self.memo.hits.load(Ordering::Relaxed), self.memo.misses.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    fn abc_tree() -> Tree {
        // a(b, c(d))
        TreeBuilder::root("a", |b| {
            b.leaf("b");
            b.child("c", |b| {
                b.leaf("d");
            });
        })
    }

    #[test]
    fn freeze_mirrors_live_structure() {
        let t = abc_tree();
        let ft = FlatTree::freeze(&t);
        assert_eq!(ft.arena_len(), 4);
        assert_eq!(ft.len(), 4);
        assert_eq!(ft.children(0), &[1, 2]);
        assert_eq!(ft.children(2), &[3]);
        assert_eq!(ft.parent(0), NO_PARENT);
        assert_eq!(ft.parent(3), 2);
        for i in 0..4 {
            assert!(ft.is_alive(i));
            assert_eq!(ft.label_id(i), t.label(NodeId(i as u32)).id());
        }
        assert_eq!(ft.live_mask().count(), 4);
    }

    #[test]
    fn postings_index_labels() {
        let t = abc_tree();
        let ft = FlatTree::freeze(&t);
        let cs = ft.posting(Label::new("c")).expect("c occurs");
        assert_eq!(cs.iter().collect::<Vec<_>>(), vec![2]);
        assert!(ft.posting(Label::new("zz-not-here")).is_none());
    }

    #[test]
    fn tombstones_are_masked_out() {
        let mut t = abc_tree();
        let c = t.children(t.root())[1];
        t.remove_subtree(c); // kills c (slot 2) and d (slot 3)
        let ft = FlatTree::freeze(&t);
        assert_eq!(ft.arena_len(), 4, "slots are kept");
        assert_eq!(ft.len(), 2);
        assert!(ft.is_alive(0) && ft.is_alive(1));
        assert!(!ft.is_alive(2) && !ft.is_alive(3));
        assert_eq!(ft.label_id(2), 0);
        assert_eq!(ft.children(0), &[1], "detached child is gone from CSR");
        assert!(ft.children(2).is_empty(), "dead slots have empty ranges");
        assert_eq!(ft.parent(3), NO_PARENT);
        assert!(ft.posting(Label::new("d")).is_none(), "no posting survives removal");
        assert!(!ft.live_mask().contains(2));
    }

    #[test]
    fn for_each_descendant_matches_tree_traversal() {
        let mut t = abc_tree();
        t.add_child(t.children(t.root())[0], Label::new("e"));
        let ft = FlatTree::freeze(&t);
        let mut flat_seen = Vec::new();
        ft.for_each_descendant(0, |i| flat_seen.push(i));
        let mut tree_seen: Vec<usize> =
            t.descendants_inclusive(t.root()).iter().map(|n| n.index()).collect();
        flat_seen.sort_unstable();
        tree_seen.sort_unstable();
        assert_eq!(flat_seen, tree_seen);
    }

    #[test]
    fn subtree_mask_marks_exactly_the_subtree() {
        let mut t = abc_tree();
        t.add_child(t.children(t.root())[1], Label::new("e"));
        let ft = FlatTree::freeze(&t);
        let mask = ft.subtree_mask(2); // c(d, e)
        assert_eq!(mask.iter().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(mask.capacity(), ft.arena_len());
        let whole = ft.subtree_mask(0);
        assert_eq!(whole.count(), ft.len());
    }

    #[test]
    fn witness_memo_computes_once_and_resets_when_full() {
        let ft = FlatTree::freeze_with_memo_bound(&abc_tree(), 3);
        let set_of = |i: usize| {
            let mut b = BitSet::new(ft.arena_len());
            b.insert(i);
            b
        };
        let first = ft.witness((1, false), || set_of(1));
        // A hit returns the stored set and never runs `compute`; the axis
        // flag is part of the key.
        let again = ft.witness((1, false), || unreachable!("memoized"));
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(*ft.witness((1, true), || set_of(2)), set_of(2));
        assert_eq!(ft.witness_memo_counts(), (1, 2));
        // `compute` may ask for other keys (the matcher recurses into the
        // subtrees below): the lock is not held across it.
        let nested =
            ft.witness((2, false), || (*ft.witness((1, false), || unreachable!())).clone());
        assert_eq!(*nested, set_of(1));
        // Three sets are held: the next new key empties the memo first, and
        // handles taken earlier stay valid.
        ft.witness((3, false), || set_of(3));
        let recomputed = ft.witness((1, false), || set_of(1));
        assert!(!Arc::ptr_eq(&first, &recomputed));
        assert_eq!(*first, *recomputed);
        assert!(Arc::ptr_eq(&recomputed, &ft.witness((1, false), || unreachable!())));
    }

    #[test]
    fn for_each_descendant_is_preorder() {
        let ft = FlatTree::freeze(&abc_tree());
        let mut seen = Vec::new();
        ft.for_each_descendant(0, |i| seen.push(i));
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn child_indices_exceed_parent_indices() {
        // Parents precede children in slot order: `Tree::add_child` only
        // appends, so this holds by construction — pin it down. (Pre-order
        // does not survive edits; the flat matcher relies on neither.)
        let t = abc_tree();
        let ft = FlatTree::freeze(&t);
        for i in 0..ft.arena_len() {
            for &c in ft.children(i) {
                assert!((c as usize) > i);
            }
        }
    }
}
