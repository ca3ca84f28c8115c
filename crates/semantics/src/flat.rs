//! Word-parallel evaluation over [`FlatTree`] snapshots: one
//! spine-and-branch evaluator.
//!
//! ## The decomposition
//!
//! A pattern is its **selection spine** `u_0 .. u_k` (root to output node)
//! plus the **branches** hanging off each spine position. The two parts ask
//! different questions of a document, so they are answered differently.
//!
//! * **Branches, bottom-up, once per snapshot.** For a branch edge into
//!   pattern node `c` the *witness set* `W(c)` holds the slots with a child
//!   (`/`) or proper descendant (`//`) in `table(c)`, where `table(c) =
//!   posting(c) ∩ ⋂ W(c')` over `c`'s children (`posting` = the label's
//!   posting bitset, or the live mask for `*`). `W(c)` depends only on the
//!   document and on the pattern subtree at `c`, and a branch never contains
//!   the output marker, so it is filed in the snapshot's witness memo
//!   ([`FlatTree::witness`]) under `(fingerprint of the subtree at c, axis)`
//!   and shared by every query, view definition and rewriting that carries
//!   that branch, for as long as the document lives.
//! * **The spine, top-down, per evaluation.** `B_i = posting(u_i) ∩ ⋂ W(c)`
//!   over the branches at position `i` is pure word-ANDs. From the anchors,
//!   `R_0 = anchors ∩ B_0` and `R_i = step_i(R_{i-1}) ∩ B_i`, where `step_i`
//!   takes children or proper descendants according to the axis into `u_i`.
//!
//! **`R_k` is exactly the answer.** An embedding anchored at `a` maps the
//! spine onto a chain `a = n_0, n_1, .., n_k` that follows the spine's axes,
//! and maps every branch below `u_i` somewhere below `n_i`; the latter is
//! what `n_i ∈ B_i` says, so by induction `n_i ∈ R_i`. Conversely a slot of
//! `R_k` has, by construction, such a chain above it, and `B_i` at each link
//! certifies an embedding of every branch there; branches of different
//! positions are disjoint pattern subtrees, so the pieces glue into one
//! embedding. No set is ever built for "the subtree at a spine node": the
//! bottom-up pass along the spine that a table-per-node matcher runs is
//! implied by the top-down one.
//!
//! ## Carried witness sets
//!
//! A snapshot derived after an edit batch ([`FlatTree::derive`]) is handed,
//! for each key its predecessor held, the predecessor's `W(c)` and the
//! batch's dirty closure `D`: every row the batch re-read (deleted,
//! relabeled and appended slots, parents that gained or lost a child) and
//! every ancestor of a live one. The new `W(c)` is the old one grown to the
//! new arena with the slots of `D` re-decided, children before parents:
//! `v ∈ W(c)` iff `v` is live and some child `x` has `x ∈ table(c)`, or,
//! for a `//` edge, `x ∈ W(c)`.
//!
//! **This is exact.** A slot `v` outside `D` was not re-read, so its label,
//! parent and child list are the old ones; no live descendant of it was
//! re-read either (it would have put `v` in `D`), so by induction down the
//! child lists its whole subtree, labels included, is the old one. `W(c)`
//! at `v` and `table(c)` at `v` read only `v`'s subtree, so both bits are
//! the old ones. Inside `D`, a child `x` of `v` that is not in `D` keeps
//! its old verdict (`x ∈ table(c)`, `x ∈ W(c)`), and was a child of `v`
//! before the batch too: its row, parent included, is unchanged. So the
//! re-decision reads the children of `v` in `D` — decided earlier, as they
//! come first — and, only when `v` held before and none of them witnesses
//! it now, the old children for one that still does; a `v` that did not
//! hold before has no old child that witnesses it. `table(c)` needs the
//! new `W(c')` of `c`'s children, carried or computed the same way, at
//! those children only. A batch thus costs each carried key a copy of the
//! old set and work on `D`, not a posting-wide table and its climbs.
//!
//! ## The two down-steps
//!
//! A `Child` step and a `Descendant` step are one procedure
//! (`Spine::step`). Inside the snapshot's ordered prefix
//! ([`FlatTree::ordered_len`]) the level mask `U_d` ([`FlatTree::level`])
//! cuts the arena into segments, and the segment that starts at a depth-`d`
//! slot is its subtree. So for the frontier's slots of one depth `d` — the
//! depth of its lowest slot, read off the depth column — one borrow chain
//! over the words ([`BitSet::fill_segments`]) yields everything below them:
//! a `//` step keeps it all and drops from the frontier what it covers, so
//! only the frontier's tops cost a pass; a `/` step keeps level `d + 1` of
//! it. No slot is visited. What stays slot-by-slot is there for a property
//! of the input, and bounded by it:
//!
//! * **Candidates past the prefix** (grafts of edit batches, an arena never
//!   in document order) are in no segment: each takes a parent test (`/`)
//!   or climbs (`//`), caching a verdict per visited slot, as far as the
//!   prefix, where the fills settle it; with no prefix that is the step.
//! * **A frontier that still has prefix slots after `MAX_LEVEL_PASSES`
//!   depths** (a comb, a deep chain: thousands of depths, a pass and a mask
//!   each), or whose lowest is deeper than the masks go, hands them to the
//!   per-slot form of the step: one parent test per candidate (`/`), one
//!   range fill `(f, last[f]]` per slot left (`//`). A hostile shape pays
//!   that plus a constant number of passes and masks, never one a depth.
//!
//! Both forms write the raw fills to `out` and cut to `B_i` at the end: the
//! climbs read them at slots that are no candidates.
//!
//! The anchors are a set too — `R_0 = B_0 ∩ V_1 ∩ … ∩ V_n` for a route
//! through views ([`BatchEval::evaluate_seeded_into`]), or a node list cut
//! to `B_0` — and the answer set is handed to the [`AnswerArena`] as it
//! is, by move; its node list is built only if a caller asks for one.
//! [`evaluate_flat`], [`evaluate_anchored_flat`] and [`BatchEval`] are this
//! one function with different seeds and scratch buffers.
//!
//! ## Regions
//!
//! [`RegionScanner`] (view maintenance) wants the answers inside one
//! subtree, at a cost that depends on the subtree and not on the document.
//! `v ∈ B_i` reads `v`'s label and what lies below `v` and nothing else, so
//! it is the same fact whether one looks at the whole document or at a
//! region that contains `v` — and the snapshot already holds it, as one bit
//! of `posting(u_i)` and one bit of each memoized `W(c)`
//! (`Spine::holds`). That is also all the maintainer's spine comparison
//! asks ([`RegionScanner::b_vector`], once on the pre-batch snapshot and
//! once on the post-batch one), so it holds for each position on its own:
//! a spine label absent from the document empties that position's `B_i`
//! and no other. The scan is the reachability recurrence
//! itself, run slot by slot: position `i` is reached at `v` iff `v ∈ B_i`
//! and position `i-1` is reached at `v`'s parent (`/`) or at a proper
//! ancestor (`//`). The `O(depth)` slots above the region root are walked
//! once to carry in what is reached on or above it, then every region slot
//! is visited once over the CSR children: `O(|region| · spine)` bit tests,
//! no set of arena width built, copied or intersected. The witness sets it
//! reads are the ones serving reads, so what maintenance computes on a new
//! snapshot is what the next queries need; one scanner (one `Spine`) per
//! view and snapshot serves a batch's comparison and all its regions.
//!
//! The reference `Tree` matcher ([`crate::embed`]) stays untouched as the
//! oracle; `tests/eval_flat_properties.rs` and the tests below check the
//! two agree answer for answer, including on post-edit tombstoned trees.

use std::cell::RefCell;
use std::ops::Deref;
use std::sync::Arc;

use xpv_model::{AnswerArena, AnswerRef, BitSet, FlatTree, NodeId, Prior, NO_PARENT};
use xpv_pattern::{Axis, NodeTest, PatId, Pattern};

/// A recycling pool of arena-width [`BitSet`] buffers, all of one capacity
/// (the `arena_len` of the snapshot being evaluated).
#[derive(Debug)]
struct EvalScratch {
    free: Vec<BitSet>,
    capacity: usize,
}

/// Upper bound on pooled buffers; beyond this, returned buffers are dropped
/// (an evaluation holds a handful at a time, so the bound is generous).
const MAX_POOLED: usize = 16;

impl EvalScratch {
    fn new(capacity: usize) -> EvalScratch {
        EvalScratch { free: Vec::new(), capacity }
    }

    /// Takes an empty bitset from the pool (or allocates one).
    fn take(&mut self) -> BitSet {
        match self.free.pop() {
            Some(mut b) => {
                b.clear();
                b
            }
            None => BitSet::new(self.capacity),
        }
    }

    /// Returns a buffer to the pool.
    fn put(&mut self, b: BitSet) {
        if self.free.len() < MAX_POOLED && b.capacity() == self.capacity {
            self.free.push(b);
        }
    }
}

thread_local! {
    /// Per-thread buffer pool for the free-standing entry points. Keyed by a
    /// single capacity: an edit batch grows `arena_len`, at which point the
    /// stale buffers are dropped and the pool refills at the new width.
    static TL_SCRATCH: RefCell<EvalScratch> = RefCell::new(EvalScratch::new(0));
}

/// Runs `f` with this thread's pooled scratch, resized to `capacity`.
fn with_tl_scratch<R>(capacity: usize, f: impl FnOnce(&mut EvalScratch) -> R) -> R {
    TL_SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        if s.capacity != capacity {
            *s = EvalScratch::new(capacity);
        }
        f(&mut s)
    })
}

/// The candidate slots of pattern node `n`: the label's posting bitset, or
/// the live mask for a wildcard. `None` when the label does not occur.
fn seed<'t>(p: &Pattern, ft: &'t FlatTree, n: PatId) -> Option<&'t BitSet> {
    match p.test(n) {
        NodeTest::Wildcard => Some(ft.live_mask()),
        NodeTest::Label(l) => ft.posting(l),
    }
}

/// `W(c)`, from the snapshot's memo or computed into it: the slots with a
/// member of `table(c)` as a child (`Child`) or proper descendant
/// (`Descendant`). `fps` are `p`'s subtree fingerprints. Handed the
/// predecessor's set, it re-decides the dirty slots only (module docs,
/// §Carried witness sets).
fn witness(
    p: &Pattern,
    fps: &[u64],
    ft: &FlatTree,
    c: PatId,
    scratch: &mut EvalScratch,
) -> Arc<BitSet> {
    let descendant = p.axis(c) == Axis::Descendant;
    ft.witness((fps[c.index()], descendant), |prior| {
        let Some(posting) = seed(p, ft, c) else {
            return BitSet::new(ft.arena_len());
        };
        if let Some(Prior { set, dirty }) = prior {
            let kids: Vec<Arc<BitSet>> =
                p.children(c).iter().map(|&cc| witness(p, fps, ft, cc, scratch)).collect();
            let in_table = |x: usize| posting.contains(x) && kids.iter().all(|w| w.contains(x));
            let mut ok = set.grown(ft.arena_len());
            // Children before parents, so a dirty slot's dirty children are
            // decided first and mark it in `hit` when one witnesses it. A
            // clean child keeps its old verdict: without a dirty witness
            // the slot holds iff it held before and a child still does.
            let holds = |ok: &BitSet, x: usize| in_table(x) || (descendant && ok.contains(x));
            let mut hit = scratch.take();
            for &v in dirty {
                let v = v as usize;
                let was = v < set.capacity() && set.contains(v);
                let now = ft.is_alive(v)
                    && (hit.contains(v)
                        || (was && ft.children(v).iter().any(|&x| holds(&ok, x as usize))));
                if now {
                    ok.insert(v);
                } else {
                    ok.remove(v);
                }
                let parent = ft.parent(v);
                if parent != NO_PARENT && holds(&ok, v) {
                    hit.insert(parent as usize);
                }
            }
            scratch.put(hit);
            return ok;
        }
        let mut ok = BitSet::new(ft.arena_len());
        let mut table = scratch.take();
        table.copy_from(posting);
        for &cc in p.children(c) {
            table.intersect_with(&witness(p, fps, ft, cc, scratch));
        }
        for m in table.iter() {
            let mut cur = ft.parent(m);
            if descendant {
                // Each climb stops at the first slot an earlier one marked.
                while cur != NO_PARENT && !ok.contains(cur as usize) {
                    ok.insert(cur as usize);
                    cur = ft.parent(cur as usize);
                }
            } else if cur != NO_PARENT {
                ok.insert(cur as usize);
            }
        }
        scratch.put(table);
        ok
    })
}

/// The depths of a frontier one step peels as level passes before what is
/// left of it is walked slot by slot (module docs, §The two down-steps).
const MAX_LEVEL_PASSES: usize = 8;

/// A `B_i`: borrowed from the snapshot when position `i` has no branch,
/// otherwise a scratch buffer to hand back.
enum Candidates<'t> {
    Shared(&'t BitSet),
    Owned(BitSet),
}

impl Deref for Candidates<'_> {
    type Target = BitSet;
    fn deref(&self) -> &BitSet {
        match self {
            Candidates::Shared(b) => b,
            Candidates::Owned(b) => b,
        }
    }
}

impl Candidates<'_> {
    fn release(self, scratch: &mut EvalScratch) {
        if let Candidates::Owned(b) = self {
            scratch.put(b);
        }
    }
}

/// One pattern laid out for evaluation against one snapshot: per spine
/// position, the seed set and the witness sets of the branches there.
struct Spine<'t> {
    ft: &'t FlatTree,
    /// The axis entering each position (`axes[0]` is unused).
    axes: Vec<Axis>,
    /// `None` where the label does not occur in the document: `B_i` is
    /// empty there, and only there.
    seeds: Vec<Option<&'t BitSet>>,
    witnesses: Vec<Vec<Arc<BitSet>>>,
}

impl<'t> Spine<'t> {
    /// `p` laid out against `ft`, exact at every position: a spine label
    /// absent from the document empties its own `B_i`, not the others.
    fn new(p: &Pattern, ft: &'t FlatTree, scratch: &mut EvalScratch) -> Spine<'t> {
        let nodes = p.selection_path();
        let seeds = nodes.iter().map(|&u| seed(p, ft, u)).collect();
        Spine::with_seeds(p, ft, &nodes, seeds, scratch)
    }

    /// [`Spine::new`] for an evaluation: `None`, before any witness set is
    /// built, when a spine label does not occur (no answers anywhere).
    fn answering(p: &Pattern, ft: &'t FlatTree, scratch: &mut EvalScratch) -> Option<Spine<'t>> {
        let nodes = p.selection_path();
        let seeds: Vec<_> = nodes.iter().map(|&u| seed(p, ft, u)).collect();
        if seeds.iter().any(Option::is_none) {
            return None;
        }
        Some(Spine::with_seeds(p, ft, &nodes, seeds, scratch))
    }

    /// The layout of the spine `nodes` of `p`, their seeds given.
    fn with_seeds(
        p: &Pattern,
        ft: &'t FlatTree,
        nodes: &[PatId],
        seeds: Vec<Option<&'t BitSet>>,
        scratch: &mut EvalScratch,
    ) -> Spine<'t> {
        let fps = if p.len() > nodes.len() { p.subtree_fingerprints() } else { Vec::new() };
        let witnesses = nodes
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                let next = nodes.get(i + 1);
                let branches = p.children(u).iter().filter(|c| Some(*c) != next);
                branches.map(|&c| witness(p, &fps, ft, c, scratch)).collect()
            })
            .collect();
        let axes = nodes.iter().map(|&u| p.axis(u)).collect();
        Spine { ft, axes, seeds, witnesses }
    }

    /// The output position `k`.
    fn last(&self) -> usize {
        self.axes.len() - 1
    }

    /// `B_i`.
    fn candidates(&self, i: usize, scratch: &mut EvalScratch) -> Candidates<'t> {
        let Some(seed) = self.seeds[i] else {
            return Candidates::Owned(scratch.take());
        };
        if self.witnesses[i].is_empty() {
            return Candidates::Shared(seed);
        }
        let mut b = scratch.take();
        b.copy_from(seed);
        for w in &self.witnesses[i] {
            b.intersect_with(w);
        }
        Candidates::Owned(b)
    }

    /// `v ∈ B_i`, without building `B_i`.
    fn holds(&self, i: usize, v: usize) -> bool {
        self.seeds[i].is_some_and(|s| s.contains(v))
            && self.witnesses[i].iter().all(|w| w.contains(v))
    }

    /// The spine positions reached at slot `v` (bit `i` ↔ position `i ≥ 1`),
    /// given those reached at its parent and those reached at any proper
    /// ancestor: one step of the recurrence in the module docs (§Regions).
    fn reach(&self, v: usize, parent: u64, above: u64) -> u64 {
        (1..=self.last())
            .filter(|&i| {
                let from = if self.axes[i] == Axis::Child { parent } else { above };
                from & (1 << (i - 1)) != 0 && self.holds(i, v)
            })
            .fold(0, |r, i| r | 1 << i)
    }

    /// `R_i` from `R_{i-1} = frontier`: the members of `cand` (a `B_i`) one
    /// step of `axis` below the frontier, written to `out`, which must
    /// arrive empty (module docs, §The two down-steps).
    fn step(
        &self,
        axis: Axis,
        frontier: &BitSet,
        cand: &BitSet,
        out: &mut BitSet,
        scratch: &mut EvalScratch,
    ) {
        let (ft, ordered, child) = (self.ft, self.ft.ordered_len(), axis == Axis::Child);
        // The prefix frontier, a depth a pass, from its lowest slot's.
        let mut left = scratch.take();
        left.copy_from(frontier);
        let lowest = |left: &BitSet, from| left.iter_from(from).next().filter(|&s| s < ordered);
        let mut low = lowest(&left, 0);
        for _ in 0..MAX_LEVEL_PASSES {
            let Some(d) = low.and_then(|s| ft.depth_in_prefix(s)) else { break };
            let above = d.checked_sub(1).map(|a| ft.level(a));
            let next = child.then(|| ft.level(d + 1));
            out.fill_segments(&mut left, ft.level(d), above, next);
            low = lowest(&left, low.unwrap_or(0));
        }
        let spilled = low.is_some();
        if child {
            // A parent test per candidate past the prefix, or per candidate.
            for m in cand.iter_from(if spilled { 0 } else { ordered }) {
                let par = ft.parent(m);
                if par != NO_PARENT && frontier.contains(par as usize) {
                    out.insert(m);
                }
            }
        } else {
            // When the passes ran out: fill `(f, last[f]]` per slot `f` left
            // that no earlier range covers (ranges are laminar).
            let mut covered = 0;
            for f in left.iter().take_while(|&f| spilled && f < ordered) {
                if f >= covered {
                    covered = ft.last_in_prefix(f) + 1;
                    out.insert_range(f + 1, covered);
                }
            }
            // Candidates past the prefix climb, as far as the prefix,
            // where `out` (just the fills there) settles them. `under` /
            // `clear`: tail slots known (not) to be in or below the
            // frontier; a climb hands its verdict to the slots it passed.
            let (mut under, mut clear) = (scratch.take(), scratch.take());
            for m in cand.iter_from(ordered) {
                let start = ft.parent(m) as usize;
                let mut cur = start;
                let verdict = loop {
                    if frontier.contains(cur) || under.contains(cur) {
                        break true;
                    }
                    if cur < ordered {
                        break out.contains(cur);
                    }
                    if clear.contains(cur) {
                        break false;
                    }
                    cur = ft.parent(cur) as usize;
                };
                let (stop, marks) = (cur, if verdict { &mut under } else { &mut clear });
                cur = start;
                while cur != stop {
                    marks.insert(cur);
                    cur = ft.parent(cur) as usize;
                }
                if verdict {
                    out.insert(m);
                }
            }
            scratch.put(under);
            scratch.put(clear);
        }
        scratch.put(left);
        out.intersect_with(cand);
    }
}

/// The evaluator: the output slots of `p` over `ft` for embeddings whose
/// root image is an anchor; `seed(R_0, B_0)` puts the anchors inside `B_0`
/// into the empty `R_0`. The caller returns the set to `scratch`.
fn answer_set(
    p: &Pattern,
    ft: &FlatTree,
    seed: impl FnOnce(&mut BitSet, &BitSet),
    scratch: &mut EvalScratch,
) -> BitSet {
    let mut reach = scratch.take();
    let Some(spine) = Spine::answering(p, ft, scratch) else {
        return reach;
    };
    let b0 = spine.candidates(0, scratch);
    seed(&mut reach, &b0);
    b0.release(scratch);
    for i in 1..=spine.last() {
        if reach.is_empty() {
            break;
        }
        let cand = spine.candidates(i, scratch);
        let mut next = scratch.take();
        spine.step(spine.axes[i], &reach, &cand, &mut next, scratch);
        cand.release(scratch);
        scratch.put(std::mem::replace(&mut reach, next));
    }
    reach
}

/// The seed from a node list (dead or out-of-range anchors drop out).
fn from_nodes(anchors: &[NodeId]) -> impl FnOnce(&mut BitSet, &BitSet) + '_ {
    |reach, b0| reach.insert_masked(anchors.iter().map(|a| a.index()), b0)
}

/// Flat-tree `P(t)` — same output as [`crate::embed::evaluate`] on the
/// frozen tree, drawing buffers from the thread-local pool.
pub fn evaluate_flat(p: &Pattern, ft: &FlatTree) -> Vec<NodeId> {
    evaluate_anchored_flat(p, ft, &[ft.root()])
}

/// Flat-tree anchored evaluation `⋃_n p(t↓n)` — same output as
/// [`crate::embed::evaluate_anchored`] on the frozen tree. Tombstoned
/// anchors contribute nothing (they are in no posting and not in the live
/// mask).
pub fn evaluate_anchored_flat(p: &Pattern, ft: &FlatTree, anchors: &[NodeId]) -> Vec<NodeId> {
    with_tl_scratch(ft.arena_len(), |scratch| {
        let out = answer_set(p, ft, from_nodes(anchors), scratch);
        let nodes = out.nodes().collect();
        scratch.put(out);
        nodes
    })
}

/// Region-restricted evaluation of one pattern over one snapshot: built
/// once per (view, batch), asked for `B`-vectors while the batch's regions
/// are chosen and scanned once per region (see the module docs, §Regions).
/// Its oracles are the definitions: a `B`-vector bit is `u_i` (with its
/// branches, as the output) evaluated at the slot, and a scan's answers are
/// the reference evaluation's answers inside the region.
pub struct RegionScanner<'a> {
    p: &'a Pattern,
    ft: &'a FlatTree,
    spine: Spine<'a>,
}

impl<'a> RegionScanner<'a> {
    /// Lays `p` out against `ft`, computing into the snapshot's memo the
    /// witness sets it does not hold yet.
    pub fn new(p: &'a Pattern, ft: &'a FlatTree) -> RegionScanner<'a> {
        let spine = with_tl_scratch(ft.arena_len(), |scratch| Spine::new(p, ft, scratch));
        RegionScanner { p, ft, spine }
    }

    /// The `B`-vector at the live slot `v`: bit `i` is `B_i(v)` — `v`
    /// passes spine position `i`'s node test and every branch there embeds
    /// below it — for the first 64 positions. A bit test in a posting and
    /// in each memoized witness set, nothing walked.
    pub fn b_vector(&self, v: NodeId) -> u64 {
        let positions = (self.spine.last() + 1).min(64);
        (0..positions).filter(|&i| self.spine.holds(i, v.index())).fold(0, |b, i| b | 1 << i)
    }

    /// The answers of the pattern that lie **inside `subtree(region_root)`**
    /// (ascending), and the slots of that subtree (in visit order).
    ///
    /// `region_root` must be a live slot. Patterns whose spine exceeds the
    /// 63-position reach mask fall back to a full flat evaluation filtered
    /// to the region (sound; never observed in practice).
    pub fn scan(&self, region_root: NodeId) -> (Vec<NodeId>, Vec<NodeId>) {
        let (ft, rr) = (self.ft, region_root.index());
        debug_assert!(ft.is_alive(rr), "region roots are live");
        if self.p.depth() > 63 {
            let mask = ft.subtree_mask(rr);
            let all = evaluate_flat(self.p, ft);
            let found = all.into_iter().filter(|n| mask.contains(n.index())).collect();
            return (found, mask.nodes().collect());
        }
        let (spine, mut slots) = (&self.spine, Vec::new());

        // Path walk, document root down to the region root: the positions
        // reached `on` the current slot and `above` it. Only the document
        // root can host u_0 (strong embeddings).
        let (mut path, mut top) = (Vec::new(), rr);
        while ft.parent(top) != NO_PARENT {
            path.push(top);
            top = ft.parent(top) as usize;
        }
        let (mut on, mut above) = (u64::from(spine.holds(0, top)), 0u64);
        for &v in path.iter().rev() {
            above |= on;
            on = spine.reach(v, on, above);
        }

        // Every region slot once, carrying what its ancestors reached.
        let out = 1u64 << spine.last();
        let mut found = Vec::new();
        let mut stack = vec![(rr as u32, on, above)];
        while let Some((v, on, above)) = stack.pop() {
            slots.push(NodeId(v));
            if on & out != 0 {
                found.push(NodeId(v));
            }
            let below = above | on;
            for &c in ft.children(v as usize) {
                stack.push((c, spine.reach(c as usize, on, below), below));
            }
        }
        found.sort_unstable();
        (found, slots)
    }
}

/// An evaluator bound to one snapshot that owns its scratch buffers: the
/// shape a batch of queries wants (no thread-local lookup per query, and
/// answer sets handed straight to an [`AnswerArena`]). Everything shared
/// between queries — the witness sets — lives in the snapshot's memo, so
/// two `BatchEval`s over one snapshot, on any threads, share it too.
pub struct BatchEval<'t> {
    ft: &'t FlatTree,
    scratch: EvalScratch,
}

impl<'t> BatchEval<'t> {
    /// An evaluator over `ft`.
    pub fn new(ft: &'t FlatTree) -> BatchEval<'t> {
        BatchEval { ft, scratch: EvalScratch::new(ft.arena_len()) }
    }

    /// `P(t)` against the bound snapshot — identical output to
    /// [`evaluate_flat`] (and to the reference [`crate::embed::evaluate`]).
    pub fn evaluate(&mut self, p: &Pattern) -> Vec<NodeId> {
        self.evaluate_anchored(p, &[self.ft.root()])
    }

    /// Anchored evaluation against the bound snapshot — identical output to
    /// [`evaluate_anchored_flat`].
    pub fn evaluate_anchored(&mut self, p: &Pattern, anchors: &[NodeId]) -> Vec<NodeId> {
        let out = answer_set(p, self.ft, from_nodes(anchors), &mut self.scratch);
        let nodes = out.nodes().collect();
        self.scratch.put(out);
        nodes
    }

    /// [`BatchEval::evaluate`] storing the answer set in `arena` instead of
    /// allocating a `Vec` — its nodes, read back, are identical.
    pub fn evaluate_into(&mut self, p: &Pattern, arena: &mut AnswerArena) -> AnswerRef {
        self.evaluate_anchored_into(p, &[self.ft.root()], arena)
    }

    /// [`BatchEval::evaluate_anchored`] writing into `arena`.
    pub fn evaluate_anchored_into(
        &mut self,
        p: &Pattern,
        anchors: &[NodeId],
        arena: &mut AnswerArena,
    ) -> AnswerRef {
        let out = answer_set(p, self.ft, from_nodes(anchors), &mut self.scratch);
        self.push(out, arena)
    }

    /// Evaluation anchored on the **intersection** of `sets` (a view, or the
    /// participants of an intersection route), into `arena`: a word-AND per
    /// set, no anchor list. A set from a shorter arena reads as zero-padded.
    pub fn evaluate_seeded_into<'s>(
        &mut self,
        p: &Pattern,
        sets: impl IntoIterator<Item = &'s BitSet>,
        arena: &mut AnswerArena,
    ) -> AnswerRef {
        let seed = |reach: &mut BitSet, b0: &BitSet| {
            reach.copy_from(b0);
            sets.into_iter().for_each(|set| reach.intersect_with(set));
        };
        let out = answer_set(p, self.ft, seed, &mut self.scratch);
        self.push(out, arena)
    }

    /// Hands the output set to `arena` by move and takes back a spare of
    /// this snapshot's width for the scratch pool, so a warm batch allocates
    /// no answer sets.
    fn push(&mut self, out: BitSet, arena: &mut AnswerArena) -> AnswerRef {
        let r = arena.push_set(out);
        if let Some(spare) = arena.take_spare(self.ft.arena_len()) {
            self.scratch.put(spare);
        }
        r
    }
}

/// Evaluates a whole batch through one [`BatchEval`] and returns per-query
/// outputs in order.
pub fn evaluate_batch_flat(ft: &FlatTree, queries: &[&Pattern]) -> Vec<Vec<NodeId>> {
    let mut batch = BatchEval::new(ft);
    queries.iter().map(|p| batch.evaluate(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::{evaluate, evaluate_anchored};
    use xpv_model::{Tree, TreeBuilder};
    use xpv_pattern::parse_xpath;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    fn doc() -> Tree {
        TreeBuilder::root("a", |t| {
            t.child("b", |t| {
                t.child("c", |t| {
                    t.leaf("d");
                });
            });
            t.child("c", |t| {
                t.leaf("d");
            });
        })
    }

    const QUERIES: &[&str] = &[
        "a/c/d",
        "a//d",
        "a/*",
        "a//c[d]",
        "a/b/c[d]",
        "a//c[x]",
        "b//d",
        "a[b]//d",
        "a[b[c]][c/d]//d",
        "*/*/*",
        "*//*",
        "a",
        "*",
        "a//*",
    ];

    #[test]
    fn flat_evaluate_matches_reference() {
        let t = doc();
        let ft = FlatTree::freeze(&t);
        for q in QUERIES {
            let p = pat(q);
            assert_eq!(evaluate_flat(&p, &ft), evaluate(&p, &t), "{q}");
        }
    }

    #[test]
    fn flat_anchored_matches_reference() {
        let t = doc();
        let ft = FlatTree::freeze(&t);
        let cs = evaluate(&pat("a//c"), &t);
        assert_eq!(
            evaluate_anchored_flat(&pat("c/d"), &ft, &cs),
            evaluate_anchored(&pat("c/d"), &t, &cs)
        );
        assert!(evaluate_anchored_flat(&pat("c/d"), &ft, &[]).is_empty());
    }

    #[test]
    fn flat_handles_tombstones() {
        let mut t = doc();
        let b = t.children(t.root())[0];
        t.remove_subtree(b);
        let ft = FlatTree::freeze(&t);
        for q in QUERIES {
            let p = pat(q);
            assert_eq!(evaluate_flat(&p, &ft), evaluate(&p, &t), "{q} after edit");
        }
        // Tombstoned anchors contribute nothing, matching the reference.
        let r = evaluate_anchored_flat(&pat("b//d"), &ft, &[b]);
        assert_eq!(r, evaluate_anchored(&pat("b//d"), &t, &[b]));
        assert!(r.is_empty());
    }

    /// One scanner per pattern, every live node as region root: the slot
    /// list is `subtree_mask(root)` as a set, the answers are the global
    /// answers inside it — the definition of a region scan — and a fresh
    /// scanner per region scans alike.
    fn check_every_region(t: &Tree, ft: &FlatTree, q: &str) {
        let p = pat(q);
        let global = evaluate_flat(&p, ft);
        assert_eq!(global, evaluate(&p, t), "{q}");
        let scanner = RegionScanner::new(&p, ft);
        for n in t.node_ids() {
            let (found, mut slots) = scanner.scan(n);
            assert_eq!((found.clone(), slots.clone()), RegionScanner::new(&p, ft).scan(n));
            let mask = ft.subtree_mask(n.index());
            slots.sort();
            assert_eq!(slots, mask.nodes().collect::<Vec<_>>(), "{q} slots at {n:?}");
            let expect: Vec<NodeId> =
                global.iter().copied().filter(|m| mask.contains(m.index())).collect();
            assert_eq!(found, expect, "{q} at region {n:?}");
        }
    }

    #[test]
    fn region_answers_match_global_restriction() {
        let t = doc();
        let ft = FlatTree::freeze(&t);
        for q in QUERIES {
            check_every_region(&t, &ft, q);
        }
    }

    #[test]
    fn region_answers_handle_tombstones() {
        let mut t = doc();
        let b = t.children(t.root())[0];
        t.remove_subtree(b);
        t.add_child(t.root(), xpv_model::Label::new("c"));
        let ft = FlatTree::freeze(&t);
        for q in QUERIES {
            check_every_region(&t, &ft, q);
        }
    }

    #[test]
    fn region_scan_forced_shapes() {
        // a(b(c(d)), c(d)) as slots 0(1(2(3)), 4(5)); then grafts under the
        // inner c and under b land at the arena's end, so b's region mixes
        // original slots with appended ones, out of pre-order.
        let mut t = doc();
        let (a, b, c, d) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let d2 = t.add_child(c, xpv_model::Label::new("d"));
        let c2 = t.add_child(b, xpv_model::Label::new("c"));
        let d3 = t.add_child(c2, xpv_model::Label::new("d"));
        let ft = FlatTree::freeze(&t);
        let scan = |q: &str, root: NodeId| RegionScanner::new(&pat(q), &ft).scan(root);
        let sorted = |mut v: Vec<NodeId>| {
            v.sort();
            v
        };

        assert_eq!(sorted(scan("a//d", b).1), vec![b, c, d, d2, c2, d3], "mixed-order region");
        assert_eq!(scan("a//d", b).0, vec![d, d2, d3]);
        // The document root as region: the whole evaluation.
        let (found, slots) = scan("a/b/c[d]", a);
        assert_eq!(found, evaluate(&pat("a/b/c[d]"), &t));
        assert_eq!(slots.len(), t.len());
        // A `//` step entered above the region: `a` (and `b`) sit above c.
        assert_eq!(scan("a//d", c).0, vec![d, d2]);
        assert_eq!(scan("a/b//d", c2).0, vec![d3]);
        assert_eq!(scan("a//c//d", d3).0, vec![d3], "region of one leaf");
        // The region root is the image of a spine position via its parent,
        // as an inner position and as the output itself.
        assert_eq!(scan("a/b/c/d", c).0, vec![d, d2]);
        assert_eq!(scan("a/b/c", c2).0, vec![c2]);
        assert_eq!(scan("a/b/c[d]", c).0, vec![c]);
        // ...and is not when the chain above it breaks.
        assert_eq!(scan("a/c/d", c).0, vec![]);
        assert_eq!(scan("a/b[x]//d", c).0, vec![]);
        // A spine label absent from the document: no answers, same slots.
        assert_eq!(sorted(scan("a//zz", c).1), vec![c, d, d2]);
        for q in QUERIES {
            check_every_region(&t, &ft, q);
        }
    }

    #[test]
    fn region_scan_of_a_spine_too_deep_for_the_reach_mask() {
        // 70 spine positions: past the 63-bit reach mask, so `scan` takes
        // the fallback — a full evaluation cut to `subtree_mask(root)`.
        let mut t = Tree::new(xpv_model::Label::new("a"));
        let mut tip = t.root();
        for _ in 1..80 {
            t.add_child(tip, xpv_model::Label::new("b"));
            tip = t.add_child(tip, xpv_model::Label::new("a"));
        }
        let ft = FlatTree::freeze(&t);
        for tail in ["//b", "/b", "/a//b", "//a"] {
            let q = format!("{}{tail}", vec!["a"; 69].join("/"));
            assert!(pat(&q).depth() > 63);
            assert!(!evaluate_flat(&pat(&q), &ft).is_empty(), "{tail} selects something");
            check_every_region(&t, &ft, &q);
        }
    }

    /// `*//x` anchored at `anchors`, through both seed forms (a node list,
    /// and a slot set as a view route passes it), against the reference.
    fn check_descendant_step(t: &Tree, ft: &FlatTree, anchors: &[NodeId]) -> Vec<NodeId> {
        let q = pat("*//x");
        let want = evaluate_anchored(&q, t, anchors);
        assert_eq!(evaluate_anchored_flat(&q, ft, anchors), want, "anchors {anchors:?}");
        let set = BitSet::from_indices(ft.arena_len(), anchors.iter().map(|n| n.index()));
        let mut arena = AnswerArena::new();
        let run = BatchEval::new(ft).evaluate_seeded_into(&q, [&set], &mut arena);
        assert_eq!(arena.get(run), want.as_slice(), "seeded from a set, anchors {anchors:?}");
        want
    }

    #[test]
    fn descendant_step_over_prefix_ranges_and_tail_climbs() {
        // r0(a1(b2(x3), x4), c5(x6), d7) in pre-order; then grafts, all
        // behind the prefix: g8(x9, h10(x11)) under b, k12(x13) under the
        // root, x14 under g.
        let mut t = TreeBuilder::root("r", |t| {
            t.child("a", |t| {
                t.child("b", |t| {
                    t.leaf("x");
                });
                t.leaf("x");
            });
            t.child("c", |t| {
                t.leaf("x");
            });
            t.leaf("d");
        });
        let label = xpv_model::Label::new;
        let n = |i: u32| NodeId(i);
        let g = t.add_child(n(2), label("g"));
        t.add_child(g, label("x"));
        let h = t.add_child(g, label("h"));
        t.add_child(h, label("x"));
        let k = t.add_child(t.root(), label("k"));
        t.add_child(k, label("x"));
        t.add_child(g, label("x"));
        let ft = FlatTree::freeze(&t);
        assert_eq!((ft.ordered_len(), ft.arena_len()), (8, 15));
        let step = |anchors: &[NodeId]| check_descendant_step(&t, &ft, anchors);

        // An ancestor and its descendant in the frontier: the inner range
        // is skipped; the tail candidates below b climb onto b (frontier)
        // or onto a covered slot.
        assert_eq!(step(&[n(1), n(2)]), vec![n(3), n(4), n(9), n(11), n(14)]);
        assert_eq!(step(&[n(2)]), vec![n(3), n(9), n(11), n(14)], "climbs end on the frontier");
        assert_eq!(step(&[n(1)]), vec![n(3), n(4), n(9), n(11), n(14)], "…or on a covered slot");
        // A frontier slot behind the prefix, alone and beside a prefix one.
        assert_eq!(step(&[g]), vec![n(9), n(11), n(14)]);
        assert_eq!(step(&[h, n(5)]), vec![n(6), n(11)]);
        // Climbs that end on the root: in the frontier, and not.
        assert_eq!(step(&[n(0)]).len(), 7);
        assert_eq!(step(&[n(5)]), vec![n(6)], "x13's climb reaches an uncovered root");
        assert_eq!(step(&[k]), vec![n(13)]);
        assert_eq!(step(&[n(7), n(4)]), vec![], "leaves have empty ranges");
        for q in QUERIES.iter().chain(&["r//x", "r/a//x", "r//g//x", "r//*[x]//x", "*//*"]) {
            assert_eq!(evaluate_flat(&pat(q), &ft), evaluate(&pat(q), &t), "{q}");
        }

        // Tombstones inside ranges and in the tail: b goes, and with it x3
        // and everything grafted below it.
        t.remove_subtree(n(2));
        t.remove_subtree(n(6));
        let ft = FlatTree::freeze(&t);
        // The one graft left hangs off the root — the rightmost path — so
        // the prefix now spans the arena, dead grafts included.
        assert_eq!(ft.ordered_len(), 15);
        let step = |anchors: &[NodeId]| check_descendant_step(&t, &ft, anchors);
        assert_eq!(step(&[n(1)]), vec![n(4)], "a's range spans two tombstones");
        assert_eq!(step(&[n(0)]), vec![n(4), n(13)]);
        assert_eq!(step(&[n(2), g, n(5)]), vec![], "dead anchors, and a range emptied");
    }

    /// Both down-steps from `anchors`, into a label's posting and into the
    /// live mask, against the reference; then each step's raw output set:
    /// no bit beyond the answers, in particular none at or past the capacity.
    fn check_both_steps(t: &Tree, ft: &FlatTree, anchors: &[NodeId]) {
        for q in ["*/x", "*//x", "*/*", "*//*"] {
            let (q, what) = (pat(q), format!("{q} from {anchors:?}"));
            let want = evaluate_anchored(&q, t, anchors);
            assert_eq!(evaluate_anchored_flat(&q, ft, anchors), want, "{what}");
            let mut scratch = EvalScratch::new(ft.arena_len());
            let spine = Spine::new(&q, ft, &mut scratch);
            let frontier = BitSet::from_indices(
                ft.arena_len(),
                anchors.iter().map(|n| n.index()).filter(|&i| ft.is_alive(i)),
            );
            let (mut out, cand) = (scratch.take(), spine.seeds[1].expect("labels occur"));
            spine.step(spine.axes[1], &frontier, cand, &mut out, &mut scratch);
            assert_eq!(out.count(), want.len(), "{what}: stray bits");
            assert_eq!(out.iter().last(), want.last().map(|n| n.index()), "{what}");
        }
    }

    #[test]
    fn level_passes_at_the_edges_of_the_arena_the_prefix_and_the_segments() {
        // r0(a1(m2(x3..=x202), x203), b204(x205), c206(d207(x208), x209,
        // e210(x211)), z212(x213)): 214 slots in pre-order, so the last word
        // is partial and the last slot is a depth-2 leaf; `a`'s segment in
        // the depth-1 mask spans three words with no bit in them.
        fn x(t: &mut TreeBuilder<'_>) {
            t.leaf("x");
        }
        let t = TreeBuilder::root("r", |t| {
            t.child("a", |t| {
                t.child("m", |t| (0..200).for_each(|_| x(t)));
                x(t);
            });
            t.child("b", x);
            t.child("c", |t| {
                t.child("d", x).leaf("x").child("e", x);
            });
            t.child("z", x);
        });
        let n = |i: u32| NodeId(i);
        let frontiers: Vec<Vec<NodeId>> = vec![
            vec![n(0)],                         // the root alone: depth 0 has no mask above it
            vec![n(1)],                         // one segment, across the empty words
            vec![n(1), n(2)],                   // an ancestor and its descendant
            vec![n(2), n(209), n(0)],           // …three deep, the lowest slot the shallowest
            vec![n(212), n(213)],               // the last slot: in the frontier, and a candidate
            vec![n(213)],                       // …alone: its chain starts on the last bit
            vec![n(1), n(204), n(206), n(212)], // adjacent segments, one pass
            vec![n(204), n(207), n(210), n(212)],
            vec![n(203), n(205), n(211)], // leaves: empty segments
            t.node_ids().collect(),       // every depth, every slot
        ];
        let check = |t: &Tree, more: &[Vec<NodeId>]| {
            let ft = FlatTree::freeze(t);
            frontiers.iter().chain(more).for_each(|f| check_both_steps(t, &ft, f));
            ft
        };
        assert_eq!(check(&t, &[]).ordered_len(), 214);

        // Tombstones where a segment would have started: a dead depth-1
        // slot between two live ones (b), a dead first child (d), the dead
        // last subtree of the prefix (z) — each is swallowed by the segment
        // before it, and is in no candidate set.
        let mut dead = t.clone();
        for i in [204, 207, 212] {
            dead.remove_subtree(n(i));
        }
        let ft = check(&dead, &[]);
        assert_eq!((ft.ordered_len(), ft.len()), (214, 208));

        // Grafts behind the prefix: under the leaf x203 (off the rightmost
        // path, so the prefix ends at 214), under that graft, under the last
        // prefix slot, and under `a`.
        let mut grown = t.clone();
        let label = xpv_model::Label::new;
        let g = grown.add_child(n(203), label("g"));
        let x215 = grown.add_child(g, label("x"));
        grown.add_child(n(213), label("x"));
        grown.add_child(n(1), label("x"));
        grown.add_child(x215, label("x"));
        let more = [
            vec![n(203)],         // a prefix slot whose only children are grafts
            vec![n(213), n(203)], // …two of them, at one depth
            vec![g],              // a frontier slot past the prefix
            vec![g, n(1), x215],  // …beside a prefix one above it
            grown.node_ids().collect(),
        ];
        let ft = check(&grown, &more);
        assert_eq!((ft.ordered_len(), ft.arena_len()), (214, 219));
        grown.remove_subtree(n(2));
        grown.remove_subtree(x215);
        check(&grown, &more);
    }

    /// The level masks built while evaluating `q` on a fresh snapshot of
    /// `t`, after checking the answer against `want`.
    fn masks_built(t: &Tree, q: &str, want: &[NodeId]) -> u64 {
        let ft = FlatTree::freeze(t);
        assert_eq!(evaluate_flat(&pat(q), &ft), want, "{q}");
        ft.levels_built() as u64
    }

    #[test]
    fn a_frontier_of_many_depths_costs_a_bounded_number_of_passes() {
        // The comb: a spine r0(s(s(…))) 2 000 deep with an x(y) hanging off
        // every spine slot, in document order. `x`s sit at 2 000 depths and
        // none covers another; the `s`s sit at 2 000 depths and nest.
        const LEVELS: u32 = 2_000;
        let mut comb = Tree::new(xpv_model::Label::new("r"));
        let label = xpv_model::Label::new;
        let (mut tip, mut xs, mut ys, mut ss) = (comb.root(), vec![], vec![], vec![]);
        for _ in 0..LEVELS {
            let x = comb.add_child(tip, label("x"));
            xs.push(x);
            ys.push(comb.add_child(x, label("y")));
            tip = comb.add_child(tip, label("s"));
            ss.push(tip);
        }
        assert_eq!(FlatTree::freeze(&comb).ordered_len(), comb.arena_len());
        // Per step: the masks of the depths peeled, the one above the first
        // and (`Child`) the one below the last — never one per depth.
        let per_step = MAX_LEVEL_PASSES as u64 + 2;
        for (q, want) in [("r//x/y", &ys), ("r//x//y", &ys), ("r//s/x", &xs[1..].to_vec())] {
            assert_eq!(evaluate(&pat(q), &comb), *want, "{q}: reference");
            let built = masks_built(&comb, q, want);
            assert!((1..=1 + per_step).contains(&built), "{q} built {built} level masks");
        }
        // Nested frontiers under `//` are one pass: the top covers the rest.
        assert_eq!(masks_built(&comb, "r//s//x", &xs[1..]), 2);

        // The 200 000-deep chain: `c//c` reaches every depth but the root's.
        // (The reference recurses per document level: the answers are known.)
        const DEPTH: u32 = 200_000;
        let mut chain = Tree::new(label("c"));
        let mut tip = chain.root();
        for _ in 1..DEPTH {
            tip = chain.add_child(tip, label("c"));
        }
        let below = |d: u32| (d..DEPTH).map(NodeId).collect::<Vec<_>>();
        let built = masks_built(&chain, "c//c/c", &below(2));
        assert!(built <= 1 + per_step, "c//c/c built {built} level masks");
        assert_eq!(masks_built(&chain, "c//c//c", &below(2)), 2);
        assert_eq!(masks_built(&chain, "c/c/c", &[NodeId(2)]), 3, "depths 0, 1 and 2");
        // Masks stop at depth 254: a frontier slot deeper than that is walked
        // slot by slot, whatever else is in the frontier, and builds none.
        let ft = FlatTree::freeze(&chain);
        for (q, anchors, want) in [
            ("c/c", vec![300], vec![301]),
            ("c/c/c", vec![5, 254, 9_000], vec![7, 256, 9_002]),
            ("c//c/c", vec![199_996, 199_000], (199_002..DEPTH).collect()),
        ] {
            let anchors: Vec<NodeId> = anchors.into_iter().map(NodeId).collect();
            let want: Vec<NodeId> = want.into_iter().map(NodeId).collect();
            assert_eq!(
                evaluate_anchored_flat(&pat(q), &ft, &anchors),
                want,
                "{q} from {anchors:?}"
            );
        }
        assert_eq!(ft.levels_built(), 4, "depths 4 to 7: the anchor at 5 and slot 6 below it");
    }

    #[test]
    fn seeding_reads_a_set_from_a_shorter_arena_as_zero_padded() {
        // Two "views" computed before the arena grew; the rewriting runs on
        // the grown snapshot.
        let mut t = doc();
        let old_len = t.arena_len();
        let cs =
            BitSet::from_indices(old_len, evaluate(&pat("a//c"), &t).iter().map(|n| n.index()));
        let under_b =
            BitSet::from_indices(old_len, evaluate(&pat("a/b/*"), &t).iter().map(|n| n.index()));
        let grafted = t.add_child(NodeId(2), xpv_model::Label::new("d"));
        for _ in 0..100 {
            t.add_child(grafted, xpv_model::Label::new("e"));
        }
        let ft = FlatTree::freeze(&t);
        assert!(cs.capacity() < ft.arena_len() && ft.arena_len() > 64);
        let mut arena = AnswerArena::new();
        let mut eval = BatchEval::new(&ft);
        let both = eval.evaluate_seeded_into(&pat("c/d"), [&cs, &under_b], &mut arena);
        assert_eq!(arena.get(both), &[NodeId(3), grafted], "R over V1 ∩ V2 = {{c2}}");
        let one = eval.evaluate_seeded_into(&pat("c/d"), [&cs], &mut arena);
        assert_eq!(arena.get(one), evaluate(&pat("a//c/d"), &t).as_slice());
        let none = eval.evaluate_seeded_into(&pat("c/d"), [&cs, &BitSet::new(0)], &mut arena);
        assert!(none.is_empty());
    }

    #[test]
    fn batch_matches_per_query_and_repeated_branches_come_from_the_memo() {
        let t = doc();
        let ft = FlatTree::freeze(&t);
        let pats: Vec<Pattern> = QUERIES.iter().map(|q| pat(q)).collect();
        let refs: Vec<&Pattern> = pats.iter().collect();
        let mut batch = BatchEval::new(&ft);
        for p in &refs {
            assert_eq!(batch.evaluate(p), evaluate(p, &t));
        }
        // A second evaluator on the same snapshot, and the convenience
        // wrapper, compute no witness set again: every branch is a hit.
        let (_, misses, _) = ft.witness_memo_counts();
        assert!(misses > 0, "the query mix has branches");
        let outs = evaluate_batch_flat(&ft, &refs);
        for (p, out) in refs.iter().zip(&outs) {
            assert_eq!(*out, evaluate(p, &t));
        }
        assert_eq!(ft.witness_memo_counts().1, misses, "second pass recomputed a witness set");
        // The branch `[d]` under `c` is one entry whichever query carries it
        // (`a//c[d]` and `a/b/c[d]`), and whatever the spine above it is.
        let fresh = FlatTree::freeze(&t);
        evaluate_flat(&pat("a//c[d]"), &fresh);
        assert_eq!(fresh.witness_memo_counts(), (0, 1, 0));
        evaluate_flat(&pat("a/b/c[d]"), &fresh);
        assert_eq!(fresh.witness_memo_counts(), (1, 1, 0));
    }

    #[test]
    fn child_step_agrees_from_either_side() {
        // A wide fan (frontier of 1, many candidates) and a narrow target
        // under many parents (large frontier, 1 candidate): one level pass
        // either way, and per-slot work from neither side.
        let t = TreeBuilder::root("r", |t| {
            for i in 0..200 {
                t.child("m", |t| {
                    t.leaf("x");
                    if i == 77 {
                        t.leaf("y");
                    }
                });
            }
        });
        let ft = FlatTree::freeze(&t);
        for q in ["r/m", "r/m/y", "r/*/y", "r/m[y]/x", "r//x", "r/m//y", "*//*", "r/*/*", "r//m/x"]
        {
            let p = pat(q);
            assert_eq!(evaluate_flat(&p, &ft), evaluate(&p, &t), "{q}");
        }
        let ms = evaluate(&pat("r/m"), &t);
        for q in ["m/y", "m//y", "m/*", "*[y]/x"] {
            let p = pat(q);
            assert_eq!(evaluate_anchored_flat(&p, &ft, &ms), evaluate_anchored(&p, &t, &ms), "{q}");
        }
    }
}
