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
//! * **`ordered_len`, `last` and `depth`** — the arena prefix in document
//!   order, and the extent and the depth of each slot's subtree inside it
//!   (*The ordered prefix*, below);
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
//! array; it builds the engine's first snapshot. Every later one is
//! [derived](FlatTree::derive) from the snapshot before it.
//!
//! ## Deriving the next snapshot
//!
//! An edit batch changes few rows: a delete kills its subtree's slots and
//! takes a child from their parent, an insert appends slots and gives its
//! root's parent a child, a relabel moves one slot between postings.
//! [`FlatTree::derive`] copies every column of the previous snapshot grown
//! to the new arena (a `memcpy` each; the CSR arrays as runs between touched
//! rows, offsets shifted by one delta per run) and re-reads from the `Tree`
//! only the touched rows and the appended ones. It keeps the ordered prefix
//! and every `last[v]`: appended slots lie past the prefix, and a slot that
//! died inside a range is in no posting and not in the live mask — but it
//! takes depth `NO_LEVEL`, as a freeze leaves a tombstone, or it would
//! start a level segment and cut its live ancestor's short. A freeze of the
//! same document may find a longer prefix (a graft under the rightmost
//! path extends it); a derived one is never wrong, only as short as the
//! first snapshot's.
//!
//! The caches are inherited too, for one generation. Every level mask the
//! predecessor built is grown to the new arena: appended slots are set (past
//! the prefix, they are in every mask) and prefix slots that died are
//! cleared (their depth is `NO_LEVEL`), which is the mask the new depth
//! column gives. The witness memo starts with no entry of its own, but holds
//! the predecessor's entries and the **dirty closure** — every re-read row,
//! and every ancestor of a live one — listed children before parents. A slot
//! outside the closure has the same label, parent and subtree in both
//! documents. The first request for a key the predecessor held takes its set
//! out and hands it to the computation as a [`Prior`], which re-decides the
//! dirty slots only (`xpv-semantics`' flat module docs say why that is
//! exact); a key the predecessor did not hold is computed from scratch, as
//! every key of a freeze is.
//!
//! ## The ordered prefix
//!
//! [`Tree::add_child`] only appends, so a document built depth-first fills
//! its arena in pre-order and an edit batch appends its grafts behind that.
//! `ordered_len` is the longest prefix in which every live slot's parent
//! lies on the rightmost path of the slots before it: there the descendants
//! of a live slot `v` are exactly the live slots of `(v, last[v]]`, so
//! "below a frontier" is a union of slot ranges — word fills; tombstones in
//! a range are in no posting and not in the live mask. A slot at or past
//! `ordered_len` has its descendants past it too, reached by climbing
//! `parents`. The freeze reads the rightmost path off `parents` as it goes.
//!
//! The **level mask** `U_d` ([`FlatTree::level`]) holds the live prefix
//! slots of depth at most `d`, and every slot at or past the prefix. In
//! pre-order the first live slot after `subtree(v)` is no deeper than `v`,
//! so the bits of `U_d` cut the arena into segments and the one starting at
//! a depth-`d` slot `v` is `subtree(v)` inside the prefix — which makes
//! "below all depth-`d` slots of a frontier" one multi-word subtraction
//! ([`BitSet::fill_segments`]). A tombstone of the prefix is in no `U_d`: it
//! falls into the segment before it, as it falls into a `last` range, and
//! is in no candidate set; a slot past the prefix is a segment of its own,
//! so no chain runs into the tail. A mask is built from the `depth` column
//! when first asked for (or carried from the predecessor) and kept, under
//! the contract below, until the snapshot is dropped: a depth nobody asks
//! about costs nothing (freezing a 200 000-deep chain builds none), and
//! there are masks for depths below 255 only — deeper slots read as deeper
//! than any mask, which is true.
//!
//! ## Shared-freeze contract
//!
//! A `FlatTree` is **observationally immutable**: the arrays above are built
//! once, by [`FlatTree::freeze`] or [`FlatTree::derive`], and never
//! updated. The fields written after that are the **witness memo**
//! ([`FlatTree::witness`]) and the level masks, bounded caches of pure
//! functions of this document: an entry, whenever it is computed, by
//! whichever thread, and whether from scratch or from an inherited
//! [`Prior`], is the same set, so a reader can never tell an empty memo
//! from a full, a contended or an inherited one except by the time it
//! takes. Both are created with the snapshot and dropped with it; deriving
//! the next snapshot only reads them (it copies the memo's handles and the
//! built masks), so the predecessor keeps serving unchanged while its
//! successor is built, and two threads that miss on one inherited key both
//! compute an equal set — one from the prior, which is taken out once, the
//! other from scratch. A new document is a new `FlatTree`, so there is
//! nothing to invalidate, and pool changes (`add_view` / `remove_view`),
//! which reuse the `Arc<FlatTree>`, keep them warm.
//!
//! The engine's `ShardedViewCache` derives **one** `FlatTree` per edit
//! batch, immediately after the batch's edits are applied to the cloned
//! document and *before* view maintenance runs: the same snapshot first
//! drives the spine comparison and the region re-evaluations (whose witness
//! sets then sit in the memo for the reads that follow) and is then
//! published by the copy-on-write snapshot swap, so every reader that
//! observes the new document also observes its matching flat form. Readers
//! therefore never see a torn (half-updated) index: the previous snapshot
//! is only read, and the new one is complete before anyone can see it.
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
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

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

/// In the depth column: no level mask holds the slot — a tombstone of the
/// ordered prefix, or a slot deeper than the masks go. Also their number.
const NO_LEVEL: u8 = u8::MAX;

/// What a derived snapshot inherits for one witness key
/// ([`FlatTree::witness`]): the predecessor's set, at the predecessor's
/// arena width, and the slots whose bit may differ here.
#[derive(Debug)]
pub struct Prior<'a> {
    /// The set the predecessor computed under the same key.
    pub set: Arc<BitSet>,
    /// The dirty closure (module docs, *Deriving the next snapshot*):
    /// descending, so every slot comes before its parent.
    pub dirty: &'a [u32],
}

/// The per-snapshot cache behind [`FlatTree::witness`].
#[derive(Debug)]
struct WitnessMemo {
    sets: RwLock<HashMap<WitnessKey, Arc<BitSet>>>,
    /// The predecessor's sets, each taken out by its first request here.
    prior: Mutex<HashMap<WitnessKey, Arc<BitSet>>>,
    /// The dirty closure every prior set is re-decided on.
    dirty: Vec<u32>,
    bound: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    carried: AtomicU64,
}

impl WitnessMemo {
    fn new(bound: usize, prior: HashMap<WitnessKey, Arc<BitSet>>, dirty: Vec<u32>) -> WitnessMemo {
        WitnessMemo {
            sets: RwLock::new(HashMap::new()),
            prior: Mutex::new(prior),
            dirty,
            bound,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            carried: AtomicU64::new(0),
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
    ordered_len: usize,
    /// Read through [`FlatTree::last_in_prefix`].
    last: Vec<u32>,
    /// Per slot: its depth inside the ordered prefix, saturating at
    /// [`NO_LEVEL`] (a tombstone's there); `0` at or past the prefix.
    depth: Vec<u8>,
    live: BitSet,
    /// `posting_of[label id]` is the label's position in `postings`, or
    /// [`NO_POSTING`] (also implied past the end) when no live slot has it.
    posting_of: Vec<u32>,
    postings: Vec<BitSet>,
    live_count: usize,
    memo: WitnessMemo,
    /// `levels[d]` is `U_d`, once asked for ([`FlatTree::level`]).
    levels: Vec<OnceLock<BitSet>>,
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
        let mut parents = Vec::with_capacity(nt);
        let mut child_offsets = Vec::with_capacity(nt + 1);
        let mut children = Vec::with_capacity(nt.saturating_sub(1));
        let mut live = BitSet::new(nt);
        let mut posting_of: Vec<u32> = Vec::new();
        let mut postings: Vec<BitSet> = Vec::new();
        let mut live_count = 0usize;
        let (mut last, mut depth) = (vec![0u32; nt], vec![NO_LEVEL; nt]);
        // While the prefix grows (`ordered_len == nt`): `prev` is its latest
        // live slot, `top` the deepest slot of the rightmost path that can
        // take a child (`prev`, or its parent when `prev` is a leaf).
        let (mut ordered_len, mut prev, mut top) = (nt, NO_PARENT, NO_PARENT);

        for i in 0..nt {
            child_offsets.push(children.len() as u32);
            let n = NodeId(i as u32);
            let alive = t.is_alive(n);
            // Pushed, not pre-filled: the column is written once.
            parents.push(t.parent(n).filter(|_| alive).map_or(NO_PARENT, |p| p.0));
            if !alive {
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
            let kids = t.children(n);
            if ordered_len == nt {
                // Leave the path up to `i`'s parent (a slot left has `prev`
                // as its range's end); a parent not on it ends the prefix.
                let (parent, mut cur) = (parents[i], top);
                while cur > parent {
                    last[cur as usize] = prev;
                    cur = parents[cur as usize];
                }
                if cur == parent {
                    prev = i as u32;
                    top = if kids.is_empty() { parent } else { prev };
                    depth[i] = depth.get(parent as usize).map_or(0, |d| d.saturating_add(1));
                } else {
                    ordered_len = i;
                }
            }
            // Live nodes never list tombstoned children (removal detaches
            // the subtree), so the CSR edge set is exactly the live edges.
            children.extend(kids.iter().map(|c| c.0));
        }
        child_offsets.push(children.len() as u32);
        // Whatever is still on the rightmost path extends to the prefix's end.
        let mut cur = top;
        while cur != NO_PARENT {
            last[cur as usize] = prev;
            cur = parents[cur as usize];
        }
        depth[ordered_len..].fill(0);

        FlatTree {
            labels,
            parents,
            child_offsets,
            children,
            ordered_len,
            last,
            depth,
            live,
            posting_of,
            postings,
            live_count,
            memo: WitnessMemo::new(memo_bound, HashMap::new(), Vec::new()),
            levels: (0..NO_LEVEL).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The flat form of `t1`, a document edited from the one this snapshot
    /// holds, built from this snapshot: its columns are copied, grown to
    /// `t1`'s arena, and only the rows an edit changed are read from `t1`
    /// (module docs, *Deriving the next snapshot*). `touched` names the
    /// slots whose row the edits changed — every slot a delete removed, the
    /// parent of every inserted and every deleted subtree root, every
    /// relabeled slot — in any order, repeats and appended slots allowed;
    /// the slots appended since this snapshot are re-read whatever it says.
    ///
    /// Equal to [`FlatTree::freeze`]`(t1)` in labels, parents, children,
    /// the live mask and the postings; the ordered prefix is this
    /// snapshot's, which may be shorter than a freeze would find. The level
    /// masks this snapshot built are carried, and its witness sets are
    /// offered to the new memo as priors (module docs).
    pub fn derive(&self, t1: &Tree, touched: &[NodeId]) -> FlatTree {
        let (n0, n1) = (self.arena_len(), t1.arena_len());
        assert!(n1 >= n0, "an edited document's arena only grows");
        let mut rows: Vec<usize> = touched.iter().map(|n| n.index()).filter(|&i| i < n0).collect();
        rows.sort_unstable();
        rows.dedup();
        rows.extend(n0..n1);

        fn grown<T: Copy>(col: &[T], len: usize, fill: T) -> Vec<T> {
            let mut out = Vec::with_capacity(len);
            out.extend_from_slice(col);
            out.resize(len, fill);
            out
        }
        let (mut labels, mut parents) =
            (grown(&self.labels, n1, 0), grown(&self.parents, n1, NO_PARENT));
        let (last, mut depth) = (grown(&self.last, n1, 0), grown(&self.depth, n1, 0));
        let mut live = self.live.grown(n1);
        let mut posting_of = self.posting_of.clone();
        let mut postings: Vec<BitSet> = self.postings.iter().map(|p| p.grown(n1)).collect();
        let mut child_offsets = Vec::with_capacity(n1 + 1);
        let mut children = Vec::with_capacity(self.children.len() + (n1 - n0));
        // Labels that lost a slot: their posting may have emptied.
        let mut lost: Vec<u32> = Vec::new();

        let mut next = 0;
        for &i in &rows {
            self.copy_rows(next..i.min(n0), &mut child_offsets, &mut children);
            next = i + 1;
            child_offsets.push(children.len() as u32);
            if labels[i] != 0 {
                postings[posting_of[labels[i] as usize] as usize].remove(i);
                lost.push(labels[i]);
            }
            let n = NodeId(i as u32);
            if !t1.is_alive(n) {
                (labels[i], parents[i]) = (0, NO_PARENT);
                live.remove(i);
                if i < self.ordered_len {
                    // In no level mask, as a freeze leaves a tombstone.
                    depth[i] = NO_LEVEL;
                }
                continue;
            }
            let lid = t1.label(n).id();
            labels[i] = lid;
            parents[i] = t1.parent(n).map_or(NO_PARENT, |p| p.0);
            live.insert(i);
            if posting_of.len() <= lid as usize {
                posting_of.resize(lid as usize + 1, NO_POSTING);
            }
            if posting_of[lid as usize] == NO_POSTING {
                posting_of[lid as usize] = postings.len() as u32;
                postings.push(BitSet::new(n1));
            }
            postings[posting_of[lid as usize] as usize].insert(i);
            children.extend(t1.children(n).iter().map(|c| c.0));
        }
        self.copy_rows(next..n0, &mut child_offsets, &mut children);
        child_offsets.push(children.len() as u32);

        // A label without a live slot has no posting, as in a freeze.
        lost.sort_unstable();
        lost.dedup();
        for lid in lost {
            let at = posting_of[lid as usize];
            if !postings[at as usize].is_empty() {
                continue;
            }
            postings.swap_remove(at as usize);
            posting_of[lid as usize] = NO_POSTING;
            if let Some(moved) = posting_of.iter_mut().find(|p| **p == postings.len() as u32) {
                *moved = at;
            }
        }

        // The dirty closure: every re-read row, and every ancestor of a live
        // one. A climb stops at the first marked slot: a live one was
        // climbed from, so its ancestors are marked already.
        let mut marks = BitSet::new(n1);
        for &i in &rows {
            marks.insert(i);
            let mut cur = if live.contains(i) { parents[i] } else { NO_PARENT };
            while cur != NO_PARENT && !marks.contains(cur as usize) {
                marks.insert(cur as usize);
                cur = parents[cur as usize];
            }
        }
        let mut dirty: Vec<u32> = marks.iter().map(|i| i as u32).collect();
        dirty.reverse();
        let prior = self.memo.sets.read().expect("witness memo poisoned").clone();

        // A built mask grows to the new arena: appended slots lie past the
        // prefix (in every mask), prefix slots that died have no level.
        let levels = self
            .levels
            .iter()
            .map(|l| match l.get() {
                Some(mask) => {
                    let mut mask = mask.grown(n1);
                    mask.insert_range(n0, n1);
                    for &i in rows.iter().take_while(|&&i| i < self.ordered_len) {
                        if !live.contains(i) {
                            mask.remove(i);
                        }
                    }
                    OnceLock::from(mask)
                }
                None => OnceLock::new(),
            })
            .collect();

        FlatTree {
            labels,
            parents,
            child_offsets,
            children,
            ordered_len: self.ordered_len,
            last,
            depth,
            live,
            posting_of,
            postings,
            live_count: t1.len(),
            memo: WitnessMemo::new(self.memo.bound, prior, dirty),
            levels,
        }
    }

    /// Appends the CSR rows `rows` of this snapshot to `offsets` and
    /// `children`: one copy of their child run, their offsets shifted to
    /// where it lands.
    fn copy_rows(&self, rows: Range<usize>, offsets: &mut Vec<u32>, children: &mut Vec<u32>) {
        if rows.is_empty() {
            return;
        }
        let (lo, hi) = (self.child_offsets[rows.start], self.child_offsets[rows.end]);
        let delta = (children.len() as u32).wrapping_sub(lo);
        offsets.extend(self.child_offsets[rows].iter().map(|&o| o.wrapping_add(delta)));
        children.extend_from_slice(&self.children[lo as usize..hi as usize]);
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

    /// Length of the arena prefix in document order (at least 1: the root).
    #[inline]
    pub fn ordered_len(&self) -> usize {
        self.ordered_len
    }

    /// For a live slot `v < ordered_len()`: the last slot of `subtree(v)`
    /// inside the ordered prefix.
    #[inline]
    pub fn last_in_prefix(&self, v: usize) -> usize {
        debug_assert!(v < self.ordered_len && self.live.contains(v));
        (self.last[v] as usize).max(v) // never `top` (a leaf there): still 0
    }

    /// The depth of a live slot `v < ordered_len()` (the root's is 0), when
    /// level masks exist for it and for the depths next to it.
    #[inline]
    pub fn depth_in_prefix(&self, v: usize) -> Option<u32> {
        debug_assert!(v < self.ordered_len && self.live.contains(v));
        Some(u32::from(self.depth[v])).filter(|&d| d + 1 < u32::from(NO_LEVEL))
    }

    /// The level mask `U_d` (module docs, *The ordered prefix*), `d` at most
    /// one past a [`FlatTree::depth_in_prefix`]: the live prefix slots of
    /// depth at most `d` and every slot at or past the prefix.
    pub fn level(&self, d: u32) -> &BitSet {
        self.levels[d as usize].get_or_init(|| BitSet::at_most(&self.depth, d as u8))
    }

    /// How many level masks have been built so far.
    pub fn levels_built(&self) -> usize {
        self.levels.iter().filter(|l| l.get().is_some()).count()
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
    ///
    /// On a derived snapshot, the first request for a key the predecessor
    /// held takes the predecessor's set out and hands it to `compute` as a
    /// [`Prior`], to be re-decided on its dirty slots; every other request,
    /// on a frozen snapshot every one, passes `None`.
    pub fn witness(
        &self,
        key: WitnessKey,
        compute: impl FnOnce(Option<Prior<'_>>) -> BitSet,
    ) -> Arc<BitSet> {
        if let Some(hit) = self.memoized(key) {
            self.memo.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.memo.misses.fetch_add(1, Ordering::Relaxed);
        let taken = self.memo.prior.lock().expect("witness memo poisoned").remove(&key);
        let prior = taken.map(|set| Prior { set, dirty: &self.memo.dirty });
        if prior.is_some() {
            self.memo.carried.fetch_add(1, Ordering::Relaxed);
        }
        let fresh = Arc::new(compute(prior));
        let mut sets = self.memo.sets.write().expect("witness memo poisoned");
        if sets.len() >= self.memo.bound {
            sets.clear();
        }
        Arc::clone(sets.entry(key).or_insert(fresh))
    }

    /// The witness set the memo holds under `key`, if any; computes nothing.
    pub fn memoized(&self, key: WitnessKey) -> Option<Arc<BitSet>> {
        self.memo.sets.read().expect("witness memo poisoned").get(&key).cloned()
    }

    /// `(hits, misses, carried)` of [`FlatTree::witness`] over this
    /// snapshot's life: `carried` counts the misses handed a [`Prior`].
    pub fn witness_memo_counts(&self) -> (u64, u64, u64) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        (load(&self.memo.hits), load(&self.memo.misses), load(&self.memo.carried))
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
        let first = ft.witness((1, false), |_| set_of(1));
        // A hit returns the stored set and never runs `compute`; the axis
        // flag is part of the key.
        let again = ft.witness((1, false), |_| unreachable!("memoized"));
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(*ft.witness((1, true), |_| set_of(2)), set_of(2));
        assert_eq!(ft.witness_memo_counts(), (1, 2, 0));
        // `compute` may ask for other keys (the matcher recurses into the
        // subtrees below): the lock is not held across it.
        let nested =
            ft.witness((2, false), |_| (*ft.witness((1, false), |_| unreachable!())).clone());
        assert_eq!(*nested, set_of(1));
        // Three sets are held: the next new key empties the memo first, and
        // handles taken earlier stay valid.
        ft.witness((3, false), |_| set_of(3));
        assert!(ft.memoized((1, false)).is_none(), "emptied at the bound");
        let recomputed = ft.witness((1, false), |_| set_of(1));
        assert!(!Arc::ptr_eq(&first, &recomputed));
        assert_eq!(*first, *recomputed);
        assert!(Arc::ptr_eq(&recomputed, &ft.witness((1, false), |_| unreachable!())));
        assert!(Arc::ptr_eq(&recomputed, &ft.memoized((1, false)).expect("held")));
    }

    /// The slots of `ft` with a child in `table` (`//`: a descendant).
    fn parents_of(ft: &FlatTree, table: &BitSet, descendant: bool) -> BitSet {
        let mut ok = BitSet::new(ft.arena_len());
        for m in table.iter() {
            let mut cur = ft.parent(m);
            while cur != NO_PARENT && !ok.contains(cur as usize) {
                ok.insert(cur as usize);
                cur = if descendant { ft.parent(cur as usize) } else { NO_PARENT };
            }
        }
        ok
    }

    /// A prior re-decided on its dirty slots, as `xpv-semantics` does it.
    fn redecided(ft: &FlatTree, prior: Prior<'_>, table: &BitSet, descendant: bool) -> BitSet {
        let mut ok = prior.set.grown(ft.arena_len());
        for &v in prior.dirty {
            let v = v as usize;
            let hit = ft.is_alive(v)
                && ft.children(v).iter().any(|&x| {
                    table.contains(x as usize) || (descendant && ok.contains(x as usize))
                });
            if hit {
                ok.insert(v);
            } else {
                ok.remove(v);
            }
        }
        ok
    }

    #[test]
    fn a_derived_memo_carries_each_prior_set_once() {
        // r0(a1(b2, c3(d4, e5)), f6(g7), h8): `W` of "has a `d`/`g` child"
        // (key 1) and "has a `d`/`g` descendant" (key 2), on the freeze and
        // on a derived snapshot where `d4` goes and a `g` grows under `h8`.
        let mut t = depth_first_tree();
        let table = |ft: &FlatTree| {
            let mut b = ft.posting(Label::new("d")).cloned().unwrap_or(BitSet::new(ft.arena_len()));
            if let Some(g) = ft.posting(Label::new("g")) {
                b.union_with(g);
            }
            b
        };
        let f0 = FlatTree::freeze(&t);
        for (key, descendant) in [(1, false), (2, true)] {
            let computed = f0.witness((key, descendant), |prior| {
                assert!(prior.is_none(), "a freeze inherits nothing");
                parents_of(&f0, &table(&f0), descendant)
            });
            let want = if descendant { vec![0, 1, 3, 6] } else { vec![3, 6] };
            assert_eq!(computed.iter().collect::<Vec<_>>(), want);
        }
        // Key 3 is filed on the freeze only after the derive: not inherited.
        let mut b = Batch { t: &mut t, touched: Vec::new() };
        b.delete(NodeId(4));
        b.graft(NodeId(8), "g");
        let touched = std::mem::take(&mut b.touched);
        let f1 = f0.derive(&t, &touched);
        f0.witness((3, false), |_| BitSet::new(f0.arena_len()));
        // The dirty closure: the delete's parent and slot, the graft's
        // parent and slot, and their ancestors — children first.
        assert_eq!(f1.memo.dirty, [9, 8, 4, 3, 1, 0]);
        for (key, descendant) in [(1, false), (2, true)] {
            let got = f1.witness((key, descendant), |prior| {
                let prior = prior.expect("the predecessor held it");
                assert_eq!(prior.set.capacity(), f0.arena_len());
                redecided(&f1, prior, &table(&f1), descendant)
            });
            assert_eq!(*got, parents_of(&f1, &table(&f1), descendant), "key {key}");
        }
        assert_eq!(f1.witness_memo_counts(), (0, 2, 2));
        // Taken out once: after the memo drops it, the key is computed anew.
        f1.witness((3, false), |prior| {
            assert!(prior.is_none(), "filed after the derive");
            BitSet::new(f1.arena_len())
        });
        assert_eq!(f1.witness_memo_counts(), (0, 3, 2));

        // Two threads missing the same inherited key together: one takes
        // the prior, the other computes from scratch, one set is kept.
        let f2 = f1.derive(&t, &[]);
        assert!(f2.memo.dirty.is_empty(), "a batch that touched nothing");
        let both = std::sync::Barrier::new(2);
        let took: Vec<bool> = std::thread::scope(|s| {
            let run = || {
                let mut took = false;
                let set = f2.witness((2, true), |prior| {
                    both.wait();
                    took = prior.is_some();
                    match prior {
                        Some(prior) => redecided(&f2, prior, &table(&f2), true),
                        None => parents_of(&f2, &table(&f2), true),
                    }
                });
                assert_eq!(*set, parents_of(&f2, &table(&f2), true));
                took
            };
            let handles = [s.spawn(run), s.spawn(run)];
            handles.map(|h| h.join().expect("no panic")).to_vec()
        });
        assert_eq!(took.iter().filter(|&&t| t).count(), 1, "{took:?}");
        assert_eq!(f2.witness_memo_counts(), (0, 2, 1));
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
        // appends, so this holds by construction — pin it down. The freeze
        // leans on it twice: a climb towards a parent can stop at the first
        // smaller slot, and every descendant of a slot past the ordered
        // prefix is past it too. Pre-order itself does not survive edits:
        // the flat matcher uses it inside `ordered_len` (range fills) and
        // climbs `parents` behind it.
        let t = abc_tree();
        let ft = FlatTree::freeze(&t);
        for i in 0..ft.arena_len() {
            for &c in ft.children(i) {
                assert!((c as usize) > i);
            }
        }
    }

    /// The live slots of `lo..hi`.
    fn live_in(ft: &FlatTree, lo: usize, hi: usize) -> Vec<usize> {
        let mut range = BitSet::new(ft.arena_len());
        range.insert_range(lo, hi);
        range.intersect_with(ft.live_mask());
        range.iter().collect()
    }

    /// For the live prefix slot `v`, `subtree(v)` inside the prefix is
    /// exactly the live slots of `[v, last[v]]`, and of the segment that
    /// starts at `v` in the level mask of `v`'s depth.
    fn check_slot_ranges(ft: &FlatTree, v: usize) {
        let (ordered, last) = (ft.ordered_len(), ft.last_in_prefix(v));
        assert!((v..ordered).contains(&last), "last[{v}] = {last} of {ordered}");
        let below: Vec<usize> = ft.subtree_mask(v).iter().take_while(|&d| d < ordered).collect();
        assert_eq!(below, live_in(ft, v, last + 1), "subtree of {v}");
        let up = |&p: &usize| Some(ft.parent(p)).filter(|&q| q != NO_PARENT).map(|q| q as usize);
        let depth = std::iter::successors(Some(v), up).count() as u32 - 1;
        assert_eq!(ft.depth_in_prefix(v), Some(depth).filter(|&d| d < 254));
        let Some(depth) = ft.depth_in_prefix(v) else { return };
        let level = ft.level(depth);
        assert!(level.contains(v));
        assert!(depth.checked_sub(1).is_none_or(|d| !ft.level(d).contains(v)));
        let end = level.iter_from(v + 1).next().unwrap_or(ft.arena_len());
        assert!(end <= ordered, "a segment of the prefix ends at the first slot past it");
        assert_eq!(below, live_in(ft, v, end), "level-{depth} segment at {v}");
    }

    /// [`check_snapshot_ranges`] of a fresh freeze of `t`.
    fn check_prefix_ranges(t: &Tree) -> usize {
        check_snapshot_ranges(&FlatTree::freeze(t))
    }

    /// [`check_slot_ranges`] for every live slot of the ordered prefix, and
    /// every slot at or past it in every level mask. Returns the prefix
    /// length.
    fn check_snapshot_ranges(ft: &FlatTree) -> usize {
        let ordered = ft.ordered_len();
        assert!((1..=ft.arena_len()).contains(&ordered));
        for v in ft.live_mask().iter().take_while(|&v| v < ordered) {
            check_slot_ranges(ft, v);
        }
        assert!((ordered..ft.arena_len()).all(|i| ft.level(0).contains(i)));
        ordered
    }

    /// r(a(b, c(d, e)), f(g), h), built depth-first: slots in pre-order.
    fn depth_first_tree() -> Tree {
        TreeBuilder::root("r", |t| {
            t.child("a", |t| {
                t.leaf("b");
                t.child("c", |t| {
                    t.leaf("d");
                    t.leaf("e");
                });
            });
            t.child("f", |t| {
                t.leaf("g");
            });
            t.leaf("h");
        })
    }

    #[test]
    fn a_depth_first_arena_is_wholly_ordered() {
        let t = depth_first_tree();
        assert_eq!(check_prefix_ranges(&t), t.arena_len());
        let ft = FlatTree::freeze(&t);
        assert_eq!(ft.last_in_prefix(0), 8);
        assert_eq!(ft.last_in_prefix(1), 5, "a covers b, c, d, e");
        assert_eq!(ft.last_in_prefix(2), 2, "a leaf is its own range");
        assert_eq!(check_prefix_ranges(&Tree::new(Label::new("only"))), 1);
    }

    #[test]
    fn deletes_and_grafts_keep_the_prefix_and_its_ranges() {
        let mut t = depth_first_tree();
        let n0 = t.arena_len();
        // Tombstones inside ranges: c's subtree (slots 3..=5) goes.
        t.remove_subtree(NodeId(3));
        assert_eq!(check_prefix_ranges(&t), n0, "a removed subtree leaves pre-order intact");
        // A graft under a slot that is not on the rightmost path ends the
        // prefix where the arena ended; grafts under prefix slots, under an
        // earlier graft, and under a leaf of the prefix all sit behind it.
        let x = t.add_child(NodeId(1), Label::new("x"));
        let y = t.add_child(x, Label::new("y"));
        t.add_child(y, Label::new("z"));
        t.add_child(NodeId(2), Label::new("under-a-leaf"));
        t.add_child(NodeId(6), Label::new("w"));
        assert_eq!(check_prefix_ranges(&t), n0);
        let ft = FlatTree::freeze(&t);
        assert_eq!(ft.last_in_prefix(1), 2, "a's range holds its prefix descendants only");
        assert_eq!(ft.last_in_prefix(2), 2, "b has children, none of them in the prefix");
        // Deleting a graft and a prefix subtree together changes nothing.
        t.remove_subtree(y);
        t.remove_subtree(NodeId(6));
        assert_eq!(check_prefix_ranges(&t), n0);
        // A graft under the rightmost path extends the prefix instead.
        let mut grown = depth_first_tree();
        let i = grown.add_child(NodeId(8), Label::new("i"));
        grown.add_child(i, Label::new("j"));
        grown.add_child(grown.root(), Label::new("k"));
        assert_eq!(check_prefix_ranges(&grown), grown.arena_len());
    }

    #[test]
    fn a_breadth_first_arena_has_a_short_prefix() {
        // Level by level: the root's children are ordered (each hangs off
        // the rightmost path), the first grandchild is not.
        let mut t = Tree::new(Label::new("r"));
        let level1: Vec<NodeId> = (0..4).map(|_| t.add_child(t.root(), Label::new("m"))).collect();
        let level2: Vec<NodeId> =
            level1.iter().flat_map(|&m| [m, m]).map(|m| t.add_child(m, Label::new("x"))).collect();
        for x in level2 {
            t.add_child(x, Label::new("y"));
        }
        assert_eq!(check_prefix_ranges(&t), 5);
        // Filling the last child first keeps one more level ordered.
        let mut t = Tree::new(Label::new("r"));
        let a = t.add_child(t.root(), Label::new("a"));
        let b = t.add_child(t.root(), Label::new("b"));
        t.add_child(b, Label::new("x"));
        t.add_child(a, Label::new("x"));
        assert_eq!(check_prefix_ranges(&t), 4);
    }

    #[test]
    fn a_deep_chain_freezes_without_recursion() {
        // 200 000 deep on the default 2 MiB test stack: the climb is a loop
        // over `parents`, and a chain is left in one sweep at the end.
        const DEPTH: usize = 200_000;
        let mut t = Tree::new(Label::new("c"));
        let mut tip = t.root();
        for _ in 1..DEPTH {
            tip = t.add_child(tip, Label::new("c"));
        }
        let ft = FlatTree::freeze(&t);
        assert_eq!(ft.ordered_len(), DEPTH);
        assert!((0..DEPTH).all(|v| ft.last_in_prefix(v) == DEPTH - 1));
        // Every slot of a chain is on the rightmost path, so a second chain
        // hung off slot 100 is still in document order: one climb leaves
        // the 199 899 slots below it.
        let mut side = t.add_child(NodeId(100), Label::new("s"));
        for _ in 0..1_000 {
            side = t.add_child(side, Label::new("s"));
        }
        let ft = FlatTree::freeze(&t);
        assert_eq!(ft.ordered_len(), t.arena_len());
        assert_eq!(ft.last_in_prefix(100), t.arena_len() - 1);
        assert_eq!(ft.last_in_prefix(101), DEPTH - 1);
        assert_eq!(ft.last_in_prefix(DEPTH), t.arena_len() - 1);
        // A mask exists for a depth somebody asked about, and only depths
        // below 254 can be: 253 is the last whose slots start segments (a
        // step also reads the masks next to it), and a deeper slot is in no
        // mask, whatever its depth.
        assert_eq!(ft.levels_built(), 0);
        for v in [0, 1, 100, 101, 252, 253, 254, 255, 300, 70_000, DEPTH - 1, DEPTH, DEPTH + 152] {
            check_slot_ranges(&ft, v);
        }
        assert_eq!(ft.levels_built(), 8, "depths 0, 1, 99..=101 and 251..=253");
        assert_eq!(ft.depth_in_prefix(DEPTH), Some(101));
        assert_eq!(ft.depth_in_prefix(DEPTH + 152), Some(253));
        assert_eq!(ft.depth_in_prefix(DEPTH + 153), None);
        assert_eq!(ft.level(101).count(), 103, "slots 0..=101 and the side chain's first");
        assert_eq!(ft.level(254).count(), 255 + 154, "no deeper slot, however deep");
    }

    /// An edit batch on a `Tree` that records the rows it touches, as
    /// `xpv-maintain`'s receipts name them to the engine.
    struct Batch<'t> {
        t: &'t mut Tree,
        touched: Vec<NodeId>,
    }

    impl Batch<'_> {
        fn graft(&mut self, parent: NodeId, label: &str) -> NodeId {
            self.touched.push(parent);
            self.t.add_child(parent, Label::new(label))
        }

        fn delete(&mut self, n: NodeId) {
            self.touched.push(self.t.parent(n).expect("not the root"));
            let removed = self.t.remove_subtree(n);
            self.touched.extend(removed);
        }

        fn relabel(&mut self, n: NodeId, label: &str) {
            self.touched.push(n);
            self.t.set_label(n, Label::new(label));
        }
    }

    /// The postings by label id, ascending.
    fn postings_by_label(ft: &FlatTree) -> Vec<(usize, &BitSet)> {
        let held = ft.posting_of.iter().enumerate().filter(|(_, &at)| at != NO_POSTING);
        held.map(|(l, &at)| (l, &ft.postings[at as usize])).collect()
    }

    /// `prev.derive(t1, touched)` against `freeze(t1)`: every column a
    /// reader sees is equal — no emptied posting left behind — and the kept
    /// prefix's ranges and level segments hold on the derived snapshot
    /// (checked slot by slot when `every_slot`, else at the root only).
    fn check_derived(prev: &FlatTree, t1: &Tree, touched: &[NodeId], every_slot: bool) -> FlatTree {
        // Masks built on the predecessor, so some are carried.
        prev.level(0);
        prev.level(1);
        let (got, want) = (prev.derive(t1, touched), FlatTree::freeze(t1));
        assert_eq!((got.arena_len(), got.len()), (want.arena_len(), want.len()));
        assert_eq!(got.labels, want.labels, "labels");
        assert_eq!(got.parents, want.parents, "parents");
        assert_eq!(got.child_offsets, want.child_offsets, "child offsets");
        assert_eq!(got.children, want.children, "children");
        assert_eq!(got.live, want.live, "live mask");
        assert_eq!(postings_by_label(&got), postings_by_label(&want), "postings");
        assert_eq!(got.ordered_len(), prev.ordered_len(), "the prefix is kept");
        assert!(got.ordered_len() <= want.ordered_len());
        // The masks `prev` had built are carried, and read as built anew.
        assert_eq!(got.levels_built(), prev.levels_built());
        for (d, mask) in got.levels.iter().enumerate() {
            if let Some(mask) = mask.get() {
                assert_eq!(*mask, BitSet::at_most(&got.depth, d as u8), "carried U_{d}");
            }
        }
        if every_slot {
            check_snapshot_ranges(&got);
        } else {
            check_slot_ranges(&got, 0);
        }
        got
    }

    #[test]
    fn derive_equals_a_freeze_of_the_edited_document() {
        // r0(a1(b2, c3(d4, e5)), f6(g7), h8), then batches derived one from
        // the other.
        let mut t = depth_first_tree();
        let mut ft = FlatTree::freeze(&t);
        let n = NodeId;
        let batch = |t: &mut Tree, ft: &FlatTree, edit: &dyn Fn(&mut Batch<'_>)| {
            let mut b = Batch { t, touched: Vec::new() };
            edit(&mut b);
            let Batch { t, touched } = b;
            check_derived(ft, t, &touched, true)
        };
        // A subtree deleted from the middle of the prefix: its slots are in
        // no level mask, so `a`'s segment runs over them to `f`.
        ft = batch(&mut t, &ft, &|b| b.delete(n(3)));
        assert_eq!((ft.depth[3], ft.depth[4]), (NO_LEVEL, NO_LEVEL));
        assert_eq!(ft.level(1).iter_from(2).next(), Some(6));
        // Grafts under the rightmost path: a freeze would extend the prefix,
        // the derived snapshot keeps it and climbs to them.
        ft = batch(&mut t, &ft, &|b| {
            let i = b.graft(n(8), "i");
            b.graft(i, "j");
            b.graft(n(0), "k");
        });
        assert_eq!((ft.ordered_len(), FlatTree::freeze(&t).ordered_len()), (9, 12));
        // Labels new to the document, grafted and relabeled; the last `g`
        // relabeled away and the last `h` deleted: their postings go.
        ft = batch(&mut t, &ft, &|b| {
            b.graft(n(1), "brand-new");
            b.relabel(n(7), "also-new");
            b.delete(n(8));
        });
        assert!(ft.posting(Label::new("g")).is_none() && ft.posting(Label::new("h")).is_none());
        assert_eq!(ft.posting(Label::new("also-new")).map(BitSet::count), Some(1));
        // An insert and a delete of the same graft in one batch, a relabel
        // of the graft before it goes, and a label emptied and refilled.
        ft = batch(&mut t, &ft, &|b| {
            let x = b.graft(n(6), "x");
            b.graft(x, "y");
            b.relabel(x, "z");
            b.delete(x);
            b.relabel(n(2), "q");
            b.graft(n(0), "b");
        });
        let bs = ft.posting(Label::new("b")).map(|p| p.iter().collect::<Vec<_>>());
        assert_eq!(bs, Some(vec![15]));
        // A batch that touches nothing derives the same snapshot.
        batch(&mut t, &ft, &|_| {});
    }

    #[test]
    fn derive_follows_random_edit_streams() {
        // A tiny xorshift64*, as the tree tests use.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = |n: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
        };
        let labels = ["p", "q", "r", "s", "t"];
        for _ in 0..30 {
            let mut t = depth_first_tree();
            for _ in 0..below(40) {
                let live: Vec<NodeId> = t.node_ids().collect();
                t.add_child(live[below(live.len())], Label::new(labels[below(5)]));
            }
            let mut ft = FlatTree::freeze(&t);
            for _ in 0..6 {
                let mut b = Batch { t: &mut t, touched: Vec::new() };
                for _ in 0..1 + below(8) {
                    let live: Vec<NodeId> = b.t.node_ids().collect();
                    let pick = live[below(live.len())];
                    match below(4) {
                        0 if pick != NodeId(0) => b.delete(pick),
                        1 => b.relabel(pick, labels[below(5)]),
                        _ => {
                            let g = b.graft(pick, labels[below(5)]);
                            if below(2) == 0 {
                                b.graft(g, labels[below(5)]);
                            }
                        }
                    }
                }
                let touched = std::mem::take(&mut b.touched);
                ft = check_derived(&ft, &t, &touched, true);
            }
        }
    }

    #[test]
    fn derive_a_deep_chain_without_recursion() {
        // 200 000 deep on the default 2 MiB test stack: a delete halfway
        // down and grafts near the root, derived twice.
        const DEPTH: usize = 200_000;
        let mut t = Tree::new(Label::new("c"));
        let mut tip = t.root();
        for _ in 1..DEPTH {
            tip = t.add_child(tip, Label::new("c"));
        }
        let ft = FlatTree::freeze(&t);
        let mut b = Batch { t: &mut t, touched: Vec::new() };
        b.delete(NodeId(DEPTH as u32 / 2));
        let g = b.graft(NodeId(3), "g");
        b.graft(g, "c");
        let touched = std::mem::take(&mut b.touched);
        let ft = check_derived(&ft, &t, &touched, false);
        for v in [1, 3, DEPTH / 2 - 1] {
            check_slot_ranges(&ft, v);
        }
        assert_eq!(ft.last_in_prefix(3), DEPTH - 1, "the range runs over the tombstones");
        let mut b = Batch { t: &mut t, touched: Vec::new() };
        b.relabel(NodeId(5), "d");
        b.delete(g);
        let touched = std::mem::take(&mut b.touched);
        check_derived(&ft, &t, &touched, false);
    }
}
