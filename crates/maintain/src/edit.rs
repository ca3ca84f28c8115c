//! The document edit log: tree edits applied transactionally.
//!
//! An [`Edit`] is one of the three primitive mutations of the paper's data
//! model — graft a subtree, prune a subtree, relabel a node. Edits are
//! applied to `xpv_model::Tree` through [`apply_edit`] / [`apply_edits`],
//! which validate before mutating and (for batches) roll back on failure,
//! so a cache holding the tree never observes a half-applied batch.
//!
//! [`NodeId`]s are **stable across unrelated edits**: removal tombstones
//! arena slots instead of compacting (see `xpv_model::tree`), and insertion
//! only appends, so an id held by a materialized answer set keeps meaning
//! the same node until that node itself is deleted. Every applied edit
//! returns an [`AppliedEdit`] receipt recording what actually happened —
//! the inserted ids, the removed ids, the label transition — which is
//! exactly what the incremental maintainer needs to bound its re-evaluation
//! region, and what the transactional rollback replays in reverse.

use std::fmt;

use xpv_model::{GraftMark, Label, NodeId, Tree};

/// One primitive document mutation.
#[derive(Clone, Debug)]
pub enum Edit {
    /// Graft a copy of `subtree` as a new child of `parent`. The inserted
    /// nodes receive fresh ids at the end of the arena.
    InsertSubtree {
        /// The live node the subtree is grafted under.
        parent: NodeId,
        /// The subtree to copy in (its root becomes a child of `parent`).
        subtree: Tree,
    },
    /// Prune the subtree rooted at `node` (which must not be the root).
    DeleteSubtree {
        /// The live, non-root node whose subtree is removed.
        node: NodeId,
    },
    /// Replace the label of `node`.
    Relabel {
        /// The live node to relabel.
        node: NodeId,
        /// Its new label.
        label: Label,
    },
}

impl Edit {
    /// The `(parent, subtree)` an insert grafts, as
    /// `Tree::reserve_for` takes it; `None` for the other edits.
    pub fn graft(&self) -> Option<(NodeId, &Tree)> {
        match self {
            Edit::InsertSubtree { parent, subtree } => Some((*parent, subtree)),
            _ => None,
        }
    }

    /// The **anchor** of the edit: the deepest node that survives the edit
    /// and whose subtree content changes — the bottom end of the ancestor
    /// spine the maintainer re-checks. `None` when the edit targets a node
    /// that is currently invalid (validation reports the precise error).
    pub fn anchor(&self, t: &Tree) -> Option<NodeId> {
        match *self {
            Edit::InsertSubtree { parent, .. } => t.is_alive(parent).then_some(parent),
            Edit::DeleteSubtree { node } => {
                if t.is_alive(node) {
                    t.parent(node)
                } else {
                    None
                }
            }
            Edit::Relabel { node, .. } => t.is_alive(node).then_some(node),
        }
    }
}

impl fmt::Display for Edit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Edit::InsertSubtree { parent, subtree } => {
                write!(f, "insert {} node(s) under {parent:?}", subtree.len())
            }
            Edit::DeleteSubtree { node } => write!(f, "delete subtree at {node:?}"),
            Edit::Relabel { node, label } => write!(f, "relabel {node:?} to {}", label.name()),
        }
    }
}

/// Why an edit could not be applied. Carries the index of the offending
/// edit within its batch (`0` for single-edit application).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditError {
    /// The targeted node is out of bounds or tombstoned.
    NotLive {
        /// Position of the edit in the submitted batch.
        edit_index: usize,
        /// The invalid target.
        node: NodeId,
    },
    /// A `DeleteSubtree` targeted the document root.
    DeleteRoot {
        /// Position of the edit in the submitted batch.
        edit_index: usize,
    },
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EditError::NotLive { edit_index, node } => {
                write!(f, "edit {edit_index}: target {node:?} is out of bounds or removed")
            }
            EditError::DeleteRoot { edit_index } => {
                write!(f, "edit {edit_index}: the document root cannot be deleted")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// The receipt of one applied edit: what the mutation actually did, in
/// terms the maintainer and the rollback both consume.
#[derive(Clone, Debug)]
pub enum AppliedEdit {
    /// A subtree was grafted: `root` is the id of the copy of the inserted
    /// subtree's root, and `labels` the (deduplicated) labels it brought in.
    Inserted {
        /// The graft point.
        parent: NodeId,
        /// Id of the inserted subtree's root in the document.
        root: NodeId,
        /// Number of inserted nodes.
        nodes: usize,
        /// Sorted, deduplicated labels of the inserted nodes.
        labels: Vec<Label>,
        /// What the graft displaced, for the rollback's
        /// [`Tree::undo_graft`].
        mark: GraftMark,
    },
    /// A subtree was pruned: `removed` lists the tombstoned ids (pre-order,
    /// the target first) and `labels` the labels they carried.
    Deleted {
        /// The node the subtree hung under.
        parent: NodeId,
        /// The pruned subtree's root.
        node: NodeId,
        /// Its position in `parent`'s child list, where the rollback puts
        /// it back.
        index: usize,
        /// All tombstoned ids, pre-order.
        removed: Vec<NodeId>,
        /// Sorted, deduplicated labels of the removed nodes.
        labels: Vec<Label>,
    },
    /// A node changed label.
    Relabeled {
        /// The relabeled node.
        node: NodeId,
        /// Its previous label.
        from: Label,
        /// Its new label.
        to: Label,
    },
}

impl AppliedEdit {
    /// Sorted, deduplicated labels the edit touched (inserted, removed, or
    /// both sides of a relabel) — the input of the maintainer's
    /// label-disjointness fast path.
    pub fn touched_labels(&self) -> Vec<Label> {
        match self {
            AppliedEdit::Inserted { labels, .. } | AppliedEdit::Deleted { labels, .. } => {
                labels.clone()
            }
            AppliedEdit::Relabeled { from, to, .. } => {
                let mut ls = vec![*from, *to];
                ls.sort();
                ls.dedup();
                ls
            }
        }
    }
}

/// Validates `edit` against the current tree without mutating anything.
pub fn validate_edit(t: &Tree, edit: &Edit, edit_index: usize) -> Result<(), EditError> {
    match *edit {
        Edit::InsertSubtree { parent, .. } => {
            if !t.is_alive(parent) {
                return Err(EditError::NotLive { edit_index, node: parent });
            }
        }
        Edit::DeleteSubtree { node } => {
            if !t.is_alive(node) {
                return Err(EditError::NotLive { edit_index, node });
            }
            if node == t.root() {
                return Err(EditError::DeleteRoot { edit_index });
            }
        }
        Edit::Relabel { node, .. } => {
            if !t.is_alive(node) {
                return Err(EditError::NotLive { edit_index, node });
            }
        }
    }
    Ok(())
}

/// Applies one edit, validating first: on `Err` the tree is untouched.
pub fn apply_edit(t: &mut Tree, edit: &Edit) -> Result<AppliedEdit, EditError> {
    validate_edit(t, edit, 0)?;
    Ok(apply_validated(t, edit))
}

/// Applies a pre-validated edit (the caller ran [`validate_edit`] against
/// the *current* tree state).
fn apply_validated(t: &mut Tree, edit: &Edit) -> AppliedEdit {
    match edit {
        Edit::InsertSubtree { parent, subtree } => {
            let mark = t.graft_mark(*parent);
            let root = t.attach_tree(*parent, subtree);
            AppliedEdit::Inserted {
                parent: *parent,
                root,
                nodes: subtree.len(),
                labels: subtree.label_set(),
                mark,
            }
        }
        Edit::DeleteSubtree { node } => {
            let parent = t.parent(*node).expect("validated: not the root");
            let index = t.children(parent).iter().position(|c| c == node);
            let index = index.expect("a live node is in its parent's list");
            let removed = t.remove_subtree(*node);
            // Tombstones keep their labels readable.
            let mut labels: Vec<Label> = removed.iter().map(|&n| t.label(n)).collect();
            labels.sort();
            labels.dedup();
            AppliedEdit::Deleted { parent, node: *node, index, removed, labels }
        }
        Edit::Relabel { node, label } => {
            let from = t.label(*node);
            t.set_label(*node, *label);
            AppliedEdit::Relabeled { node: *node, from, to: *label }
        }
    }
}

/// Undoes one applied edit (the batch rollback of
/// `coalesce::prepare_batch`, which undoes in reverse). Exact: an undone
/// insertion gives its slots back to the arena and its parent's child
/// range back, relocation included, and an undone deletion puts the
/// subtree back where it was in its parent's list.
pub(crate) fn undo(t: &mut Tree, applied: &AppliedEdit) {
    match applied {
        AppliedEdit::Inserted { mark, .. } => t.undo_graft(*mark),
        AppliedEdit::Deleted { node, index, .. } => t.restore_subtree(*node, *index),
        AppliedEdit::Relabeled { node, from, .. } => t.set_label(*node, *from),
    }
}

/// Applies a batch of edits **transactionally**: each edit is validated
/// against the tree state produced by its predecessors; on the first
/// failure every already-applied edit is undone (in reverse) and the error
/// names the offending batch position. On success the receipts come back in
/// batch order. The loop is [`crate::prepare_batch`]'s, whose anchors are
/// dropped here.
pub fn apply_edits(t: &mut Tree, edits: &[Edit]) -> Result<Vec<AppliedEdit>, EditError> {
    crate::coalesce::prepare_batch(t, edits).map(|p| p.receipts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_model::TreeBuilder;

    fn doc() -> Tree {
        TreeBuilder::root("a", |b| {
            b.leaf("b");
            b.child("c", |b| {
                b.leaf("d");
            });
        })
    }

    /// Every slot's label, parent, liveness and child list, in order.
    fn layout(t: &Tree) -> Vec<(Label, Option<NodeId>, bool, Vec<NodeId>)> {
        (0..t.arena_len() as u32)
            .map(NodeId)
            .map(|n| (t.label(n), t.parent(n), t.is_alive(n), t.children(n).to_vec()))
            .collect()
    }

    fn graft() -> Tree {
        TreeBuilder::root("x", |b| {
            b.leaf("y");
        })
    }

    #[test]
    fn insert_delete_relabel_receipts() {
        let mut t = doc();
        let b = t.children(t.root())[0];
        let c = t.children(t.root())[1];
        let batch = [
            Edit::InsertSubtree { parent: c, subtree: graft() },
            Edit::Relabel { node: c, label: Label::new("cc") },
            Edit::DeleteSubtree { node: b },
        ];
        let receipts = apply_edits(&mut t, &batch).expect("valid batch");
        assert_eq!(receipts.len(), 3);
        match &receipts[0] {
            AppliedEdit::Inserted { root, nodes, labels, .. } => {
                assert_eq!(*nodes, 2);
                assert!(t.is_alive(*root));
                assert_eq!(labels.len(), 2);
            }
            other => panic!("expected Inserted, got {other:?}"),
        }
        assert_eq!(t.label(c).name(), "cc");
        assert_eq!(t.canonical_key(), "(a(cc(d)(x(y))))");
    }

    #[test]
    fn batch_failure_rolls_back_everything() {
        let mut t = doc();
        let key = t.canonical_key();
        let arena = t.arena_len();
        let before = layout(&t);
        let b = t.children(t.root())[0];
        let c = t.children(t.root())[1];
        let d = t.children(c)[0];
        let batch = [
            Edit::InsertSubtree { parent: c, subtree: graft() },
            Edit::DeleteSubtree { node: b },
            Edit::DeleteSubtree { node: c },
            // c's subtree is gone: relabeling inside it must fail...
            Edit::Relabel { node: d, label: Label::new("z") },
        ];
        let err = apply_edits(&mut t, &batch).unwrap_err();
        assert!(matches!(err, EditError::NotLive { edit_index: 3, .. }));
        // ... and the whole batch is undone: every slot, every child list
        // in its order, and the arena's length.
        assert_eq!(t.canonical_key(), key);
        assert_eq!(t.len(), 4);
        assert_eq!(layout(&t), before);
        assert_eq!(t.arena_len(), arena);
    }

    #[test]
    fn deleting_the_root_is_an_error() {
        let mut t = doc();
        let batch = [Edit::DeleteSubtree { node: t.root() }];
        let err = apply_edits(&mut t, &batch).unwrap_err();
        assert_eq!(err, EditError::DeleteRoot { edit_index: 0 });
    }

    #[test]
    fn anchors() {
        let t = doc();
        let b = t.children(t.root())[0];
        let c = t.children(t.root())[1];
        assert_eq!(Edit::InsertSubtree { parent: c, subtree: graft() }.anchor(&t), Some(c));
        assert_eq!(Edit::DeleteSubtree { node: b }.anchor(&t), Some(t.root()));
        assert_eq!(Edit::Relabel { node: b, label: Label::new("z") }.anchor(&t), Some(b));
    }

    #[test]
    fn touched_labels_are_sorted_dedup() {
        let mut t = doc();
        let c = t.children(t.root())[1];
        let r =
            apply_edit(&mut t, &Edit::Relabel { node: c, label: Label::new("c") }).expect("valid");
        assert_eq!(r.touched_labels().len(), 1, "self-relabel touches one label");
    }
}
