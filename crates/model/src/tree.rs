//! Rooted, labeled, **unordered** trees — the paper's XML documents.
//!
//! A [`Tree`] is an arena of nodes; [`NodeId`]s are indices into the arena.
//! The root is always node 0 and nodes are stored in creation order, which for
//! all constructors in this crate family is a pre-order (parents precede
//! children). Child order is *not* semantically meaningful: embeddings
//! (Definition 2.1) never inspect sibling order, so structural equality is
//! unordered-tree isomorphism, exposed via [`Tree::canonical_key`] and
//! [`Tree::structurally_eq`].
//!
//! ## Layout: one arena, one child pool
//!
//! A tree is two flat buffers. `nodes[i]` is the fixed-size record of
//! `NodeId(i)`: label, parent, liveness, and the position of its child
//! list — a `(start, len, cap)` range into the one `pool: Vec<NodeId>`
//! shared by all nodes. [`Tree::children`] is the slice
//! `pool[start .. start + len]`, in insertion order. A leaf owns no pool
//! slots. Appending to a full range **relocates** it: the list is copied to
//! the pool's end with twice the capacity (2, 4, 8, ..) and the old slots
//! are abandoned, never reused — so a list of `n` children has occupied
//! fewer than `4n` slots over its whole history, the pool stays below
//! `4 * arena_len`, and offsets are checked against `u32`. Removal closes
//! the gap inside the range (order of the survivors kept) and shrinks
//! `len`; restoring a subtree appends it to its parent's list again.
//!
//! Ids and child order are untouched by any of this: a `NodeId` indexes
//! `nodes`, which only ever grows at its end, and relocation moves a list's
//! *storage*, not its contents. What the layout buys is the cost of a copy:
//! [`Tree::clone`] is two `memcpy`s and dropping a tree is two frees,
//! whatever the node count, where one heap `Vec` per node made both a walk
//! over every node. An edit batch is applied in place, after
//! [`Tree::reserve_for`] made room for its grafts, so applying the batch
//! never reallocates either buffer.
//!
//! ## Edits and NodeId stability
//!
//! Documents are no longer immutable: [`Tree::remove_subtree`] detaches a
//! subtree and **tombstones** its slots instead of compacting the arena, so
//! every surviving [`NodeId`] keeps meaning the same node across unrelated
//! edits — the property the incremental view maintainer (`xpv-maintain`)
//! and the engine's materialized answer sets rely on. Consequently:
//!
//! * [`Tree::len`] counts **live** nodes (the semantic node count), while
//!   [`Tree::arena_len`] is the exclusive upper bound on raw `NodeId`
//!   indices — size bitsets and lookup tables by `arena_len`, count nodes
//!   with `len`;
//! * [`Tree::node_ids`] yields live nodes only; dead slots are unreachable
//!   from the root and excluded from every traversal that starts there;
//! * tombstoned slots are never reused, so an id observed once never
//!   silently re-binds to a different node;
//! * [`Tree::restore_subtree`] is the exact inverse of
//!   [`Tree::remove_subtree`] (the detached subtree keeps its internal
//!   structure and goes back to its old place in its parent's list), and
//!   [`Tree::undo_graft`] that of [`Tree::attach_tree`] (the arena and the
//!   pool shrink back, relocated child ranges return), which is what makes
//!   transactional edit application (apply-then-roll-back-on-error) exact
//!   and cheap, in place.

use std::fmt;

use crate::label::Label;

/// Index of a node inside a [`Tree`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The arena index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One arena slot. `Copy`, so cloning the arena is one `memcpy`.
#[derive(Clone, Copy, Debug)]
struct TreeNode {
    label: Label,
    parent: Option<NodeId>,
    /// The child list is `pool[start .. start + len]`; the slots up to
    /// `start + cap` are reserved for it.
    start: u32,
    len: u32,
    cap: u32,
    alive: bool,
}

impl TreeNode {
    fn leaf(label: Label, parent: Option<NodeId>) -> TreeNode {
        TreeNode { label, parent, start: 0, len: 0, cap: 0, alive: true }
    }

    #[inline]
    fn child_range(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The state [`Tree::undo_graft`] restores: the arena and pool lengths
/// before a graft and its parent's child range (see [`Tree::graft_mark`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraftMark {
    nodes: u32,
    pool: u32,
    parent: NodeId,
    range: (u32, u32, u32),
}

/// A rooted labeled tree (an XML document in the paper's data model).
#[derive(Clone)]
pub struct Tree {
    nodes: Vec<TreeNode>,
    /// Every node's child list, as a range each (see the module docs).
    pool: Vec<NodeId>,
    /// Number of live (non-tombstoned) nodes.
    live: usize,
}

impl Tree {
    /// Creates a tree consisting of a single root labeled `root_label`.
    pub fn new(root_label: Label) -> Tree {
        Tree { nodes: vec![TreeNode::leaf(root_label, None)], pool: Vec::new(), live: 1 }
    }

    /// The root node (always id 0). The root is never tombstoned.
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of **live** nodes (the semantic size of the document).
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Exclusive upper bound on raw [`NodeId`] indices, tombstones included.
    /// Bitsets and per-node tables over a possibly-edited tree must be sized
    /// by this, not by [`Tree::len`].
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether `n` is a live node (in bounds and not tombstoned).
    #[inline]
    pub fn is_alive(&self, n: NodeId) -> bool {
        self.nodes.get(n.index()).is_some_and(|node| node.alive)
    }

    /// Trees always contain at least the root; provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Reserves room for `grafts`, the `(parent, subtree)` pairs an edit
    /// batch attaches ([`Tree::attach_tree`]) in that order: grafting them,
    /// and deleting or relabeling anything in between, then reallocates
    /// neither buffer. The node arena gets a slot per grafted node. The
    /// child pool gets, for each parent already in the tree, the ranges its
    /// list relocates to as the grafts fill it (the doubling rule of
    /// [`Tree::add_child`]), and for the grafted nodes' own lists, parents
    /// of later grafts included, four slots per grafted node: a list of `n`
    /// children has held fewer than `4n` slots in all, and the grafts push
    /// at most one child per grafted node. Growth is amortized like
    /// [`Vec::reserve`], so a run of batches reallocates rarely.
    pub fn reserve_for<'g>(&mut self, grafts: impl IntoIterator<Item = (NodeId, &'g Tree)>) {
        let (mut nodes, mut parents) = (0, Vec::new());
        for (parent, subtree) in grafts {
            nodes += subtree.len();
            parents.push(parent);
        }
        let mut pool = 4 * nodes;
        parents.sort_unstable();
        for run in parents.chunk_by(|a, b| a == b) {
            let Some(node) = self.nodes.get(run[0].index()) else { continue };
            let (mut len, mut cap) = (node.len as usize, node.cap as usize);
            for _ in run {
                if len == cap {
                    cap = (cap * 2).max(2);
                    pool += cap;
                }
                len += 1;
            }
        }
        self.nodes.reserve(nodes);
        self.pool.reserve(pool);
    }

    /// What a graft under `parent` ([`Tree::attach_tree`]) is about to
    /// change outside the slots it appends: the arena and pool lengths and
    /// `parent`'s child range. [`Tree::undo_graft`] puts them back.
    pub fn graft_mark(&self, parent: NodeId) -> GraftMark {
        let node = &self.nodes[parent.index()];
        GraftMark {
            nodes: self.nodes.len() as u32,
            pool: self.pool.len() as u32,
            parent,
            range: (node.start, node.len, node.cap),
        }
    }

    /// Undoes the graft `mark` was taken for: the arena and the child pool
    /// shrink back to their lengths at the mark, so the next graft gets the
    /// same ids and slots again, and the parent's child range is restored,
    /// a relocation included (the slots a relocation abandons are never
    /// written again, so the old range still holds the old list). Exact
    /// when every later change was undone first, as a batch rollback does
    /// in reverse.
    ///
    /// # Panics
    ///
    /// Panics if the arena is shorter than at the mark.
    pub fn undo_graft(&mut self, mark: GraftMark) {
        let tail = &self.nodes[mark.nodes as usize..];
        self.live -= tail.iter().filter(|n| n.alive).count();
        self.nodes.truncate(mark.nodes as usize);
        self.pool.truncate(mark.pool as usize);
        let node = &mut self.nodes[mark.parent.index()];
        (node.start, node.len, node.cap) = mark.range;
    }

    /// Appends a new leaf labeled `label` under `parent`, returning its id.
    pub fn add_child(&mut self, parent: NodeId, label: Label) -> NodeId {
        assert!(self.is_alive(parent), "parent out of bounds or removed");
        let id = NodeId(u32::try_from(self.nodes.len()).expect("tree too large"));
        self.nodes.push(TreeNode::leaf(label, Some(parent)));
        self.push_child(parent, id);
        self.live += 1;
        id
    }

    /// Appends `child` to `parent`'s child list. A full range moves to the
    /// pool's end with doubled capacity (2, 4, 8, ..); the slots it leaves
    /// are never reused. A list of `n` children has therefore held fewer
    /// than `4n` slots in all, so the pool stays below `4 * arena_len`.
    fn push_child(&mut self, parent: NodeId, child: NodeId) {
        let node = &mut self.nodes[parent.index()];
        if node.len == node.cap {
            let cap = (node.cap as usize * 2).max(2);
            let start = self.pool.len();
            let end = u32::try_from(start + cap).expect("child pool exceeds u32 offsets");
            self.pool.extend_from_within(node.child_range());
            self.pool.resize(end as usize, child);
            node.start = start as u32;
            node.cap = cap as u32;
        }
        self.pool[(node.start + node.len) as usize] = child;
        node.len += 1;
    }

    /// Detaches the subtree rooted at `n` and tombstones its slots: the
    /// nodes disappear from every root-based traversal, but their arena
    /// slots are never reused, so all *other* ids stay stable. Returns the
    /// removed ids in pre-order (`n` first).
    ///
    /// The detached subtree keeps its internal structure (labels, children),
    /// which is what lets [`Tree::restore_subtree`] undo the removal
    /// exactly — the transactional seam used by `xpv-maintain`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is the root or not a live node.
    pub fn remove_subtree(&mut self, n: NodeId) -> Vec<NodeId> {
        assert!(self.is_alive(n), "cannot remove: node is out of bounds or already removed");
        let parent = self.parent(n).expect("cannot remove the root");
        let node = &mut self.nodes[parent.index()];
        let kids = &mut self.pool[node.child_range()];
        let pos = kids.iter().position(|&c| c == n).expect("child link consistent");
        kids.copy_within(pos + 1.., pos);
        node.len -= 1;
        let removed = self.descendants_inclusive(n);
        for &d in &removed {
            self.nodes[d.index()].alive = false;
        }
        self.live -= removed.len();
        removed
    }

    /// Restores a subtree previously detached by [`Tree::remove_subtree`]:
    /// re-attaches `n` to its (still live) parent at position `index` of
    /// its child list (the position the removal took it from) and revives
    /// every node of the detached subtree. The exact inverse of the removal
    /// as long as no node *inside* the subtree was edited in between.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a tombstoned node, its recorded parent is not
    /// live, or `index` is past the end of the parent's list.
    pub fn restore_subtree(&mut self, n: NodeId, index: usize) {
        assert!(
            n.index() < self.nodes.len() && !self.nodes[n.index()].alive,
            "restore_subtree: node is not a tombstone"
        );
        let parent = self.nodes[n.index()].parent.expect("removed subtrees have a parent");
        assert!(self.is_alive(parent), "restore_subtree: parent is not live");
        assert!(index <= self.children(parent).len(), "restore_subtree: index past the list");
        let revived = self.descendants_inclusive(n);
        for &d in &revived {
            self.nodes[d.index()].alive = true;
        }
        self.live += revived.len();
        self.push_child(parent, n);
        let range = self.nodes[parent.index()].child_range();
        self.pool[range][index..].rotate_right(1);
    }

    /// The label of `n`.
    #[inline]
    pub fn label(&self, n: NodeId) -> Label {
        self.nodes[n.index()].label
    }

    /// Relabels node `n` (used by canonical-model construction and the
    /// `Relabel` document edit).
    pub fn set_label(&mut self, n: NodeId, label: Label) {
        assert!(self.is_alive(n), "cannot relabel: node is out of bounds or removed");
        self.nodes[n.index()].label = label;
    }

    /// The parent of `n` (`None` for the root).
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n.index()].parent
    }

    /// The children of `n`, in insertion order (order carries no meaning).
    #[inline]
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.pool[self.nodes[n.index()].child_range()]
    }

    /// Returns `true` if `n` has no children.
    #[inline]
    pub fn is_leaf(&self, n: NodeId) -> bool {
        self.nodes[n.index()].len == 0
    }

    /// All **live** node ids in arena order (a pre-order for trees built
    /// top-down; ascending, but not contiguous once subtrees were removed).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId).filter(|&n| self.nodes[n.index()].alive)
    }

    /// Depth of `n`: number of edges from the root (root has depth 0).
    pub fn depth(&self, n: NodeId) -> usize {
        let mut d = 0;
        let mut cur = n;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the tree: the maximal number of edges on a root-to-leaf path.
    pub fn height(&self) -> usize {
        self.node_ids().filter(|&n| self.is_leaf(n)).map(|n| self.depth(n)).max().unwrap_or(0)
    }

    /// Returns `true` if `a` is a **proper** ancestor of `b`.
    pub fn is_proper_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        let mut cur = self.parent(b);
        while let Some(p) = cur {
            if p == a {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// Pre-order traversal of the subtree rooted at `n` (including `n`).
    pub fn descendants_inclusive(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![n];
        while let Some(cur) = stack.pop() {
            out.push(cur);
            // Reverse keeps pre-order stable; order is cosmetic anyway.
            for &c in self.children(cur).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Pre-order traversal of the subtree rooted at `n` (including `n`),
    /// invoking `f` on every node without materializing the visit list — the
    /// counterpart of [`Tree::descendants_inclusive`] for hot paths
    /// (selection propagation, embedding extraction). Iterative: an explicit
    /// stack holds at most the pending siblings along one root-to-leaf path,
    /// so document depth never turns into call-stack depth.
    pub fn for_each_descendant(&self, n: NodeId, mut f: impl FnMut(NodeId)) {
        let mut stack = vec![n];
        while let Some(cur) = stack.pop() {
            f(cur);
            stack.extend(self.children(cur).iter().rev());
        }
    }

    /// The subtree `t↓n` ("t sub n" in the paper: the subtree of `t` rooted at
    /// `n`) copied out as an independent tree. Returns the new tree and, for
    /// callers that need it, the mapping from old ids to new ids.
    pub fn subtree(&self, n: NodeId) -> (Tree, Vec<(NodeId, NodeId)>) {
        let mut t = Tree::new(self.label(n));
        let mut map = vec![(n, t.root())];
        let mut stack = vec![(n, t.root())];
        while let Some((old, new)) = stack.pop() {
            for &c in self.children(old) {
                let nc = t.add_child(new, self.label(c));
                map.push((c, nc));
                stack.push((c, nc));
            }
        }
        (t, map)
    }

    /// Grafts a copy of `other` under `parent`, returning the id of the copy
    /// of `other`'s root.
    pub fn attach_tree(&mut self, parent: NodeId, other: &Tree) -> NodeId {
        let new_root = self.add_child(parent, other.label(other.root()));
        let mut stack = vec![(other.root(), new_root)];
        while let Some((old, new)) = stack.pop() {
            for &c in other.children(old) {
                let nc = self.add_child(new, other.label(c));
                stack.push((c, nc));
            }
        }
        new_root
    }

    /// A canonical serialization of the subtree at `n` under unordered-tree
    /// isomorphism: two subtrees have equal keys iff they are isomorphic as
    /// unordered labeled trees.
    pub fn canonical_key_at(&self, n: NodeId) -> String {
        let mut s = String::new();
        self.canonical_key_into(n, &mut s);
        s
    }

    /// Appends the canonical key of the subtree at `n` to `out` — the
    /// buffer-reusing form of [`Tree::canonical_key_at`], so callers that
    /// serialize many subtrees (the engine's `answer_value_set`) pay one
    /// growing buffer instead of a fresh `String` per level.
    ///
    /// Iterative (depth costs heap, not call stack): every key is written
    /// straight into `out` in child order, and a node with several children
    /// sorts their finished keys in place when it closes, so a chain costs
    /// its length, not its length squared.
    pub fn canonical_key_into(&self, n: NodeId, out: &mut String) {
        // `starts` holds the offsets in `out` of the finished child keys of
        // every open node; a frame is (node, next child, its first entry).
        let mut starts: Vec<usize> = Vec::new();
        let mut sorted = String::new();
        out.push('(');
        out.push_str(self.label(n).name());
        let mut stack = vec![(n, 0usize, 0usize)];
        while let Some(&mut (cur, ref mut next, first)) = stack.last_mut() {
            if let Some(&c) = self.children(cur).get(*next) {
                *next += 1;
                starts.push(out.len());
                out.push('(');
                out.push_str(self.label(c).name());
                stack.push((c, 0, starts.len()));
                continue;
            }
            if starts.len() - first > 1 {
                let ends = starts[first + 1..].iter().copied().chain([out.len()]);
                let mut keys: Vec<&str> =
                    starts[first..].iter().zip(ends).map(|(&s, e)| &out[s..e]).collect();
                keys.sort_unstable();
                sorted.clear();
                sorted.extend(keys);
                out.truncate(starts[first]);
                out.push_str(&sorted);
            }
            starts.truncate(first);
            out.push(')');
            stack.pop();
        }
    }

    /// Canonical key of the whole tree (see [`Tree::canonical_key_at`]).
    pub fn canonical_key(&self) -> String {
        self.canonical_key_at(self.root())
    }

    /// Unordered-tree isomorphism test.
    pub fn structurally_eq(&self, other: &Tree) -> bool {
        self.len() == other.len() && self.canonical_key() == other.canonical_key()
    }

    /// The multiset of labels used in the tree, deduplicated and sorted.
    pub fn label_set(&self) -> Vec<Label> {
        let mut ls: Vec<Label> = self.node_ids().map(|n| self.label(n)).collect();
        ls.sort();
        ls.dedup();
        ls
    }
}

impl fmt::Debug for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tree({})", crate::xml::to_xml(self))
    }
}

/// Builds a tree from a nested closure DSL. Mostly a convenience for tests:
///
/// ```
/// use xpv_model::{Label, TreeBuilder};
/// let t = TreeBuilder::root("a", |b| {
///     b.leaf("b");
///     b.child("c", |b| {
///         b.leaf("d");
///     });
/// });
/// assert_eq!(t.len(), 4);
/// ```
pub struct TreeBuilder<'t> {
    tree: &'t mut Tree,
    cur: NodeId,
}

impl TreeBuilder<'_> {
    /// Builds a tree whose root is labeled `root_label`; `f` populates it.
    pub fn root(root_label: &str, f: impl FnOnce(&mut TreeBuilder<'_>)) -> Tree {
        let mut tree = Tree::new(Label::new(root_label));
        let root = tree.root();
        let mut b = TreeBuilder { tree: &mut tree, cur: root };
        f(&mut b);
        tree
    }

    /// Adds a leaf child.
    pub fn leaf(&mut self, label: &str) -> &mut Self {
        self.tree.add_child(self.cur, Label::new(label));
        self
    }

    /// Adds an internal child and recurses into it.
    pub fn child(&mut self, label: &str, f: impl FnOnce(&mut TreeBuilder<'_>)) -> &mut Self {
        let id = self.tree.add_child(self.cur, Label::new(label));
        let mut b = TreeBuilder { tree: self.tree, cur: id };
        f(&mut b);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn construction_and_navigation() {
        let t = abc_tree();
        assert_eq!(t.len(), 4);
        assert_eq!(t.label(t.root()).name(), "a");
        let kids = t.children(t.root());
        assert_eq!(kids.len(), 2);
        assert_eq!(t.parent(kids[0]), Some(t.root()));
        assert_eq!(t.parent(t.root()), None);
    }

    #[test]
    fn depth_and_height() {
        let t = abc_tree();
        assert_eq!(t.height(), 2);
        let c = t.children(t.root())[1];
        let d = t.children(c)[0];
        assert_eq!(t.depth(t.root()), 0);
        assert_eq!(t.depth(c), 1);
        assert_eq!(t.depth(d), 2);
    }

    #[test]
    fn proper_ancestor() {
        let t = abc_tree();
        let c = t.children(t.root())[1];
        let d = t.children(c)[0];
        assert!(t.is_proper_ancestor(t.root(), d));
        assert!(t.is_proper_ancestor(c, d));
        assert!(!t.is_proper_ancestor(d, c));
        assert!(!t.is_proper_ancestor(d, d));
    }

    #[test]
    fn subtree_extraction() {
        let t = abc_tree();
        let c = t.children(t.root())[1];
        let (sub, map) = t.subtree(c);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.label(sub.root()).name(), "c");
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn attach_tree_grafts_copy() {
        let mut t = abc_tree();
        let graft = TreeBuilder::root("x", |b| {
            b.leaf("y");
        });
        let at = t.attach_tree(t.root(), &graft);
        assert_eq!(t.label(at).name(), "x");
        assert_eq!(t.len(), 6);
        assert_eq!(t.children(at).len(), 1);
    }

    #[test]
    fn unordered_isomorphism() {
        let t1 = TreeBuilder::root("a", |b| {
            b.leaf("b");
            b.leaf("c");
        });
        let t2 = TreeBuilder::root("a", |b| {
            b.leaf("c");
            b.leaf("b");
        });
        assert!(t1.structurally_eq(&t2));
        let t3 = TreeBuilder::root("a", |b| {
            b.leaf("c");
            b.leaf("c");
        });
        assert!(!t1.structurally_eq(&t3));
    }

    #[test]
    fn isomorphism_is_not_fooled_by_depth_shift() {
        // a(b(c)) vs a(b, c): same label multiset, different shape.
        let t1 = TreeBuilder::root("a", |b| {
            b.child("b", |b| {
                b.leaf("c");
            });
        });
        let t2 = TreeBuilder::root("a", |b| {
            b.leaf("b");
            b.leaf("c");
        });
        assert!(!t1.structurally_eq(&t2));
    }

    #[test]
    fn descendants_inclusive_covers_subtree() {
        let t = abc_tree();
        let all = t.descendants_inclusive(t.root());
        assert_eq!(all.len(), 4);
        let c = t.children(t.root())[1];
        assert_eq!(t.descendants_inclusive(c).len(), 2);
    }

    #[test]
    fn for_each_descendant_visits_the_same_nodes() {
        let mut t = abc_tree();
        let c = t.children(t.root())[1];
        for anchor in [t.root(), c] {
            let mut seen = Vec::new();
            t.for_each_descendant(anchor, |n| seen.push(n));
            let mut expected = t.descendants_inclusive(anchor);
            seen.sort();
            expected.sort();
            assert_eq!(seen, expected);
        }
        // Tombstoned subtrees are invisible from live anchors.
        t.remove_subtree(c);
        let mut seen = Vec::new();
        t.for_each_descendant(t.root(), |n| seen.push(n));
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn label_set_is_sorted_dedup() {
        let t = TreeBuilder::root("a", |b| {
            b.leaf("b");
            b.leaf("b");
            b.leaf("a");
        });
        let ls = t.label_set();
        assert_eq!(ls.len(), 2);
    }

    #[test]
    fn relabel() {
        let mut t = abc_tree();
        t.set_label(t.root(), Label::bottom());
        assert!(t.label(t.root()).is_bottom());
    }

    #[test]
    fn remove_subtree_tombstones_without_shifting_ids() {
        let mut t = abc_tree(); // a(b, c(d))
        let b = t.children(t.root())[0];
        let c = t.children(t.root())[1];
        let d = t.children(c)[0];
        let removed = t.remove_subtree(c);
        assert_eq!(removed, vec![c, d]);
        assert_eq!(t.len(), 2, "live count shrinks");
        assert_eq!(t.arena_len(), 4, "arena keeps the slots");
        assert!(t.is_alive(b) && !t.is_alive(c) && !t.is_alive(d));
        // Unrelated ids are untouched and traversals skip the tombstones.
        assert_eq!(t.children(t.root()), &[b]);
        assert_eq!(t.node_ids().collect::<Vec<_>>(), vec![t.root(), b]);
        assert_eq!(t.canonical_key(), "(a(b))");
        // New nodes never reuse tombstoned slots.
        let e = t.add_child(b, Label::new("e"));
        assert_eq!(e.index(), 4);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn restore_subtree_is_the_exact_inverse() {
        let mut t = abc_tree();
        let key = t.canonical_key();
        let c = t.children(t.root())[1];
        t.remove_subtree(c);
        assert_ne!(t.canonical_key(), key);
        t.restore_subtree(c, 1);
        assert_eq!(t.canonical_key(), key);
        assert_eq!(t.children(t.root())[1], c);
        assert_eq!(t.len(), 4);
        assert!(t.is_alive(c));
    }

    /// The naive model the pooled [`Tree`] is checked against: one `Vec`
    /// of children per node, as `Tree` itself stored them before.
    #[derive(Clone)]
    struct Naive {
        children: Vec<Vec<NodeId>>,
        parent: Vec<Option<NodeId>>,
        label: Vec<Label>,
        alive: Vec<bool>,
    }

    impl Naive {
        fn new(root: Label) -> Naive {
            Naive {
                children: vec![vec![]],
                parent: vec![None],
                label: vec![root],
                alive: vec![true],
            }
        }

        fn add_child(&mut self, parent: NodeId, label: Label) -> NodeId {
            let id = NodeId(self.children.len() as u32);
            self.children.push(vec![]);
            self.parent.push(Some(parent));
            self.label.push(label);
            self.alive.push(true);
            self.children[parent.index()].push(id);
            id
        }

        fn subtree(&self, n: NodeId) -> Vec<NodeId> {
            let mut out = vec![n];
            let mut next = 0;
            while next < out.len() {
                out.extend(&self.children[out[next].index()]);
                next += 1;
            }
            out
        }

        fn set_alive(&mut self, n: NodeId, alive: bool) {
            for d in self.subtree(n) {
                self.alive[d.index()] = alive;
            }
            let siblings = &mut self.children[self.parent[n.index()].expect("not root").index()];
            if alive {
                siblings.push(n);
            } else {
                siblings.retain(|&c| c != n);
            }
        }

        /// Every observable of `t` equals the model's.
        fn assert_matches(&self, t: &Tree) {
            assert_eq!(t.arena_len(), self.children.len());
            assert_eq!(t.len(), self.alive.iter().filter(|&&a| a).count());
            for i in 0..self.children.len() {
                let n = NodeId(i as u32);
                assert_eq!(t.children(n), self.children[i].as_slice(), "children of {n:?}");
                assert_eq!(t.parent(n), self.parent[i], "parent of {n:?}");
                assert_eq!(t.is_alive(n), self.alive[i], "liveness of {n:?}");
                assert_eq!(t.label(n), self.label[i], "label of {n:?}");
                assert_eq!(t.is_leaf(n), self.children[i].is_empty());
            }
            assert!(t.pool.len() <= 4 * t.arena_len(), "pool {} slots", t.pool.len());
        }
    }

    /// A tiny deterministic generator (xorshift64*), so this crate's tests
    /// need no dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
        }
    }

    #[test]
    fn pooled_tree_matches_the_naive_model_under_random_edits() {
        let labels: Vec<Label> = ["p", "q", "r", "s"].iter().map(|l| Label::new(l)).collect();
        let graft = abc_tree();
        for seed in 1..=40u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut t = Tree::new(labels[0]);
            let mut m = Naive::new(labels[0]);
            let mut removed: Vec<NodeId> = Vec::new();
            for _ in 0..300 {
                let live: Vec<NodeId> = t.node_ids().collect();
                let pick = live[rng.below(live.len())];
                match rng.below(10) {
                    0..=3 => {
                        let l = labels[rng.below(labels.len())];
                        assert_eq!(t.add_child(pick, l), m.add_child(pick, l));
                    }
                    4 => {
                        // a(b, c(d)) grafted: ids are handed out parent by
                        // parent, children in reverse stack order.
                        let at = t.attach_tree(pick, &graft);
                        let ma = m.add_child(pick, graft.label(graft.root()));
                        assert_eq!(at, ma);
                        let mut stack = vec![(graft.root(), ma)];
                        while let Some((old, new)) = stack.pop() {
                            for &c in graft.children(old) {
                                stack.push((c, m.add_child(new, graft.label(c))));
                            }
                        }
                    }
                    5 | 6 if pick != t.root() => {
                        let mut got = t.remove_subtree(pick);
                        let mut expect = m.subtree(pick);
                        expect.sort();
                        got.sort();
                        assert_eq!(got, expect);
                        m.set_alive(pick, false);
                        removed.push(pick);
                    }
                    7 => {
                        // Only a subtree whose parent is live can come back.
                        let back = removed.iter().position(|&r| {
                            !m.alive[r.index()] && m.alive[m.parent[r.index()].unwrap().index()]
                        });
                        if let Some(at) = back {
                            let r = removed.swap_remove(at);
                            let kids = m.parent[r.index()].unwrap().index();
                            let index = rng.below(m.children[kids].len() + 1);
                            t.restore_subtree(r, index);
                            m.set_alive(r, true);
                            let back = m.children[kids].pop().unwrap();
                            m.children[kids].insert(index, back);
                        }
                    }
                    8 => {
                        let l = labels[rng.below(labels.len())];
                        t.set_label(pick, l);
                        m.label[pick.index()] = l;
                    }
                    _ => {
                        // Clone, diverge the clone, and check that neither
                        // side sees the other's edits; carry on with the
                        // clone half of the time.
                        let (mut t2, mut m2) = (t.clone(), m.clone());
                        for _ in 0..5 {
                            let l = labels[rng.below(labels.len())];
                            assert_eq!(t2.add_child(pick, l), m2.add_child(pick, l));
                        }
                        m.assert_matches(&t);
                        m2.assert_matches(&t2);
                        if rng.below(2) == 0 {
                            (t, m) = (t2, m2);
                        }
                    }
                }
                m.assert_matches(&t);
            }
        }
    }

    #[test]
    fn sibling_lists_grow_across_relocations_without_disturbing_each_other() {
        // Three siblings' child lists grow in lockstep, so each of their
        // ranges relocates (2, 4, 8, .. slots) between the others' and the
        // abandoned ranges interleave in the pool.
        let mut t = Tree::new(Label::new("r"));
        let mut m = Naive::new(Label::new("r"));
        let kid = Label::new("k");
        let hubs: Vec<NodeId> = (0..3).map(|_| t.add_child(t.root(), kid)).collect();
        for _ in 0..3 {
            m.add_child(NodeId(0), kid);
        }
        let mut starts = vec![Vec::new(); hubs.len()];
        for round in 0..70 {
            for (h, &hub) in hubs.iter().enumerate() {
                assert_eq!(t.add_child(hub, kid), m.add_child(hub, kid));
                let start = t.nodes[hub.index()].start;
                if starts[h].last() != Some(&start) {
                    starts[h].push(start);
                }
            }
            if round % 9 == 4 {
                // A removal in the middle keeps the survivors' order.
                let victim = t.children(hubs[1])[1];
                t.remove_subtree(victim);
                m.set_alive(victim, false);
            }
            m.assert_matches(&t);
        }
        for s in &starts {
            assert!(s.len() >= 6, "64+ children take at least six relocations, saw {s:?}");
        }
        assert_eq!(t.children(hubs[0]).len(), 70);
    }

    #[test]
    fn reserved_room_takes_its_grafts_without_reallocating() {
        // r with hubs of 1, 2, 4, 8 and 16 children: every list but the
        // first full, so the first graft under a full one relocates it.
        let (k, x) = (Label::new("k"), Label::new("x"));
        let mut t = Tree::new(Label::new("r"));
        let hubs: Vec<NodeId> = (0..5).map(|_| t.add_child(t.root(), k)).collect();
        for (i, &hub) in hubs.iter().enumerate() {
            for _ in 0..1 << i {
                t.add_child(hub, x);
            }
        }
        let mut rng = Rng(0x5EED);
        for round in 0..200 {
            // The first graft goes under the root; the others under a hub
            // (several under one), any live slot (leaves too), or the first
            // graft's root, a slot of this batch. Deletes of leaves no graft
            // goes under, and relabels, in between.
            let n0 = t.arena_len();
            let live: Vec<NodeId> = t.node_ids().collect();
            let grafts: Vec<(NodeId, Tree)> = (0..1 + rng.below(24))
                .map(|i| {
                    let parent = match rng.below(4) {
                        _ if i == 0 => t.root(),
                        0 => NodeId(n0 as u32),
                        1 => hubs[rng.below(hubs.len())],
                        _ => live[rng.below(live.len())],
                    };
                    let graft = if rng.below(2) == 0 { Tree::new(x) } else { abc_tree() };
                    (parent, graft)
                })
                .collect();
            t.reserve_for(grafts.iter().map(|(p, g)| (*p, g)));
            let (nodes, pool) = ((t.nodes.as_ptr(), t.nodes.capacity()), t.pool.as_ptr());
            for (parent, graft) in &grafts {
                t.attach_tree(*parent, graft);
                let victim = live[rng.below(live.len())];
                let spared = hubs.contains(&victim) || grafts.iter().any(|(p, _)| *p == victim);
                if t.is_alive(victim) && t.is_leaf(victim) && !spared {
                    t.remove_subtree(victim);
                } else if t.is_alive(victim) {
                    t.set_label(victim, k);
                }
            }
            assert_eq!((t.nodes.as_ptr(), t.nodes.capacity()), nodes, "round {round}: nodes");
            assert_eq!(t.pool.as_ptr(), pool, "round {round}: the child pool moved");
        }
    }

    /// One slot's label, parent, liveness and child list.
    type Row = (Label, Option<NodeId>, bool, Vec<NodeId>);

    /// Every slot's row, the pool's length and the live count: what an
    /// exact rollback must give back.
    fn layout(t: &Tree) -> (Vec<Row>, usize, usize) {
        let rows = (0..t.arena_len() as u32)
            .map(NodeId)
            .map(|n| (t.label(n), t.parent(n), t.is_alive(n), t.children(n).to_vec()))
            .collect();
        (rows, t.pool.len(), t.len())
    }

    #[test]
    fn undone_grafts_and_removals_leave_the_layout_as_it_was() {
        // Hubs of 1 and 2 children: a graft under the full one relocates
        // it, the other has room.
        let (k, x) = (Label::new("k"), Label::new("x"));
        let mut t = Tree::new(Label::new("r"));
        let full = t.add_child(t.root(), k);
        let roomy = t.add_child(t.root(), k);
        t.add_child(full, x);
        t.add_child(full, x);
        let middle = t.add_child(roomy, x);
        t.add_child(roomy, x);
        t.add_child(roomy, x);
        let before = layout(&t);
        // Graft under the full list, under the graft itself, delete a
        // middle child, graft under the list with room; undo in reverse.
        let m1 = t.graft_mark(full);
        let g = t.attach_tree(full, &abc_tree());
        let m2 = t.graft_mark(g);
        t.attach_tree(g, &abc_tree());
        let index = t.children(roomy).iter().position(|&c| c == middle).unwrap();
        t.remove_subtree(middle);
        let m3 = t.graft_mark(roomy);
        t.attach_tree(roomy, &Tree::new(x));
        t.undo_graft(m3);
        t.restore_subtree(middle, index);
        t.undo_graft(m2);
        t.undo_graft(m1);
        assert_eq!(layout(&t), before);
        assert_eq!(t.add_child(full, x), NodeId(before.0.len() as u32));
    }

    #[test]
    #[should_panic(expected = "cannot remove the root")]
    fn removing_the_root_is_rejected() {
        let mut t = abc_tree();
        t.remove_subtree(t.root());
    }

    #[test]
    #[should_panic(expected = "already removed")]
    fn double_removal_is_rejected() {
        let mut t = abc_tree();
        let c = t.children(t.root())[1];
        t.remove_subtree(c);
        t.remove_subtree(c);
    }

    #[test]
    #[should_panic(expected = "out of bounds or removed")]
    fn adding_under_a_tombstone_is_rejected() {
        let mut t = abc_tree();
        let c = t.children(t.root())[1];
        t.remove_subtree(c);
        t.add_child(c, Label::new("x"));
    }
}
