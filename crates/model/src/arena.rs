//! The per-batch store of evaluated answers, kept as **slot sets** — the
//! return lane of the serving hot path.
//!
//! The flat evaluator's output is a [`BitSet`] of arena slots. An
//! [`AnswerArena`] takes that set by move ([`AnswerArena::push_set`]) and
//! hands back an [`AnswerRef`]: an `(index, len)` handle, `Copy`, eight
//! bytes, whose `len` is the set's popcount. Repeated queries in a batch
//! fan out by copying the *handle*, sharing one set. A caller that only
//! counts reads [`AnswerRef::len`] and touches no node.
//!
//! Node lists are built **only on demand**: [`AnswerArena::get`] expands a
//! set into its ascending node list on first call and keeps it, so later
//! calls borrow the same slice; [`AnswerArena::nodes`] streams the ids from
//! the set without keeping anything. Ascending slot order is `NodeId`
//! order, the order of the reference evaluator. The wire encoder reads
//! neither: it takes the set itself ([`AnswerArena::set`]) and sends each
//! answer as its words or its ids, whichever is smaller.
//!
//! [`AnswerArena::clear`] moves the stored sets onto a bounded spare list;
//! the evaluator takes them back ([`AnswerArena::take_spare`]) as buffers
//! for the next batch, so a warm serving loop allocates no answer sets.
//! Spares all have one width, the arena width of the snapshot that filled
//! them: after an edit grows the document, a spare of the old width is
//! dropped instead of returned.
//!
//! A ref is only meaningful against the arena that issued it (and only
//! until that arena is cleared); [`AnswerArena::get`] panics on a ref from
//! elsewhere that points past the end, and silently returns wrong nodes on
//! one that happens to fit — the same discipline as any index handed
//! across data structures.

use std::cell::{Cell, OnceCell};

use crate::bitset::{BitSet, Bits};
use crate::tree::NodeId;

/// Upper bound on the sets [`AnswerArena::clear`] keeps as spares; past it,
/// cleared sets are dropped.
pub const MAX_SPARE_SETS: usize = 64;

/// A handle to one answer in an [`AnswerArena`]: eight bytes, `Copy`, cheap
/// to fan out to duplicate queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AnswerRef {
    index: u32,
    len: u32,
}

impl AnswerRef {
    /// Number of nodes in the answer.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the answer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One stored answer: its set, and its node list once someone asked.
#[derive(Debug)]
struct Entry {
    set: BitSet,
    nodes: OnceCell<Vec<NodeId>>,
}

/// A per-batch store of answer sets (see the module docs).
#[derive(Debug, Default)]
pub struct AnswerArena {
    entries: Vec<Entry>,
    spares: Vec<BitSet>,
    /// Nodes expanded into node lists since the last clear.
    expanded: Cell<usize>,
}

impl AnswerArena {
    /// An empty arena.
    pub fn new() -> AnswerArena {
        AnswerArena::default()
    }

    /// Stores one answer set and returns its handle.
    pub fn push_set(&mut self, set: BitSet) -> AnswerRef {
        let r = AnswerRef { index: self.entries.len() as u32, len: set.count() as u32 };
        self.entries.push(Entry { set, nodes: OnceCell::new() });
        r
    }

    /// The slot set behind `r` (bit `i` ↔ `NodeId(i)`).
    pub fn set(&self, r: AnswerRef) -> &BitSet {
        &self.entries[r.index as usize].set
    }

    /// The nodes behind `r`, ascending, streamed from the set: nothing is
    /// kept, and the iterator knows its length.
    pub fn nodes(&self, r: AnswerRef) -> AnswerNodes<'_> {
        AnswerNodes { bits: self.set(r).iter(), left: r.len() }
    }

    /// The nodes behind `r` as an owned list, built in one pass over the set
    /// and not kept.
    pub fn to_vec(&self, r: AnswerRef) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(r.len());
        self.nodes(r).for_each(|n| v.push(n));
        v
    }

    /// The nodes behind `r` as a borrowed slice, expanded from the set on
    /// the first call for `r` and kept until [`AnswerArena::clear`].
    pub fn get(&self, r: AnswerRef) -> &[NodeId] {
        self.entries[r.index as usize].nodes.get_or_init(|| {
            self.expanded.set(self.expanded.get() + r.len());
            self.to_vec(r)
        })
    }

    /// Nodes expanded into slices by [`AnswerArena::get`] since the last
    /// clear — not nodes answered: an answer only counted
    /// ([`AnswerRef::len`]) or streamed ([`AnswerArena::nodes`]) adds
    /// nothing, and a fanned-out answer counts once.
    pub fn node_count(&self) -> usize {
        self.expanded.get()
    }

    /// Whether any answer has been pushed since the last clear.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Spare sets held for the next batch (at most [`MAX_SPARE_SETS`]).
    pub fn spare_count(&self) -> usize {
        self.spares.len()
    }

    /// Forgets every answer, invalidating all outstanding refs, and keeps
    /// their sets as spares (up to [`MAX_SPARE_SETS`]); spares of another
    /// width than the sets arriving are dropped first.
    pub fn clear(&mut self) {
        for Entry { set, .. } in self.entries.drain(..) {
            if self.spares.last().is_some_and(|s| s.capacity() != set.capacity()) {
                self.spares.clear();
            }
            if self.spares.len() < MAX_SPARE_SETS {
                self.spares.push(set);
            }
        }
        self.expanded.set(0);
    }

    /// A spare set of `capacity` (its contents are stale), if one is held.
    /// Spares of a stale width — the document grew since they were filled
    /// — are all dropped.
    pub fn take_spare(&mut self, capacity: usize) -> Option<BitSet> {
        match self.spares.pop() {
            Some(set) if set.capacity() == capacity => Some(set),
            Some(_) => {
                self.spares.clear();
                None
            }
            None => None,
        }
    }
}

/// The nodes of one answer, ascending, read from its set
/// ([`AnswerArena::nodes`]).
#[derive(Clone, Debug)]
pub struct AnswerNodes<'a> {
    bits: Bits<'a>,
    left: usize,
}

impl Iterator for AnswerNodes<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        let i = self.bits.next()?;
        self.left -= 1;
        Some(NodeId(i as u32))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }

    #[inline]
    fn fold<B, F: FnMut(B, NodeId) -> B>(self, init: B, mut f: F) -> B {
        self.bits.fold(init, |acc, i| f(acc, NodeId(i as u32)))
    }
}

impl ExactSizeIterator for AnswerNodes<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(len: usize, items: &[usize]) -> BitSet {
        BitSet::from_indices(len, items.iter().copied())
    }

    #[test]
    fn sets_round_trip_and_expand_on_demand() {
        let mut arena = AnswerArena::new();
        let a = arena.push_set(set(200, &[1, 2, 130]));
        let b = arena.push_set(set(200, &[]));
        let c = arena.push_set(set(200, &[7]));
        assert_eq!((a.len(), b.len(), c.len()), (3, 0, 1));
        assert!(b.is_empty());
        assert_eq!(arena.node_count(), 0, "nothing expanded yet");
        assert_eq!(arena.nodes(a).len(), 3);
        assert_eq!(arena.nodes(a).collect::<Vec<_>>(), [NodeId(1), NodeId(2), NodeId(130)]);
        assert_eq!(arena.node_count(), 0, "streaming keeps nothing");
        assert_eq!(arena.get(a), &[NodeId(1), NodeId(2), NodeId(130)]);
        assert_eq!(arena.get(b), &[] as &[NodeId]);
        assert_eq!(arena.node_count(), 3);
        // Handles are Copy: fanning out an answer copies 8 bytes, and a
        // second `get` borrows the slice the first one built.
        let a2 = a;
        assert!(std::ptr::eq(arena.get(a2), arena.get(a)));
        assert_eq!(arena.node_count(), 3);
        assert_eq!(arena.get(c), &[NodeId(7)]);
        assert_eq!(arena.node_count(), 4);
    }

    #[test]
    fn clear_keeps_sets_as_bounded_spares_of_one_width() {
        let mut arena = AnswerArena::new();
        let r = arena.push_set(set(100, &[5]));
        arena.get(r);
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!((arena.node_count(), arena.spare_count()), (0, 1));
        assert_eq!(arena.take_spare(100).map(|s| s.capacity()), Some(100));
        assert_eq!(arena.take_spare(100), None);

        for _ in 0..MAX_SPARE_SETS + 5 {
            arena.push_set(BitSet::new(100));
        }
        arena.clear();
        assert_eq!(arena.spare_count(), MAX_SPARE_SETS);
        // Sets of a new width push out the old ones ...
        arena.push_set(BitSet::new(300));
        arena.clear();
        assert_eq!(arena.spare_count(), 1);
        // ... and a stale spare is dropped, with any behind it.
        arena.push_set(BitSet::new(300));
        arena.clear();
        assert_eq!(arena.take_spare(400), None);
        assert_eq!(arena.spare_count(), 0);
    }
}
