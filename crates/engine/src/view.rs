//! Materialized views over XML documents.
//!
//! A materialized view (Section 2.4) is the precomputed result `V(t)` of
//! applying a view pattern to a document. This module stores it in **one**
//! form: the set of `V`'s output nodes in `t` as a [`BitSet`] over the
//! document's arena slots (12.6 KiB per 100k slots, whatever it holds),
//! keeping node identity. That is all the serving path ever reads:
//!
//! * by Proposition 2.4 a rewriting `R` evaluated *anchored* at those nodes
//!   is exactly `R(V(t))`, so answering through a view never needs the
//!   subtrees below its output nodes as separate data: the evaluator's
//!   seed is `B_0 ∩ V(t)`, one word-AND;
//! * multi-view intersection routes exist only *because* views keep node
//!   identity — views' answers are intersected as slot sets, more word-ANDs
//!   (Cautis et al., PAPERS.md); copies could not be intersected at all.
//!
//! The paper's by-value reading of `V(t)` — independent subtree copies, what
//! a cache shipping results across a wire would hold — is still available,
//! **on demand**: [`MaterializedView::trees`] and
//! [`MaterializedView::apply_materialized`] copy from the *current*
//! document when asked. Storing the copies would make every document edit
//! pay for every view (each batch re-cloned all of them) to maintain data no
//! query reads; computing them on request makes them correct by
//! construction after any maintenance, and the tests still pin the §2.4
//! agreement of the two readings by canonical key.

use xpv_model::{BitSet, NodeId, Tree};
use xpv_pattern::Pattern;
use xpv_semantics::{evaluate, evaluate_anchored};

/// The precomputed result of a view over one document: its output nodes.
#[derive(Clone, Debug)]
pub struct MaterializedView {
    name: String,
    def: Pattern,
    /// `V(t)` over arena slots. Its capacity is the arena length of the
    /// snapshot it was last computed on; slots past it are **non-members**,
    /// which is sound because a view an edit batch left as it was (proved
    /// `Clean`, or patched back to the same set) gained nothing among the
    /// appended slots. Consumers read a shorter set as zero-padded
    /// ([`BitSet::intersect_with`], [`BitSet::difference_count`]); the other
    /// `BitSet` operations would truncate silently in release builds.
    set: BitSet,
    /// `set.count()`, taken at construction.
    len: usize,
}

impl MaterializedView {
    /// Evaluates `def` over `doc` with the reference evaluator and stores
    /// the answer set.
    pub fn materialize(name: impl Into<String>, def: Pattern, doc: &Tree) -> MaterializedView {
        let answers = evaluate(&def, doc);
        let set = BitSet::from_indices(doc.arena_len(), answers.iter().map(|n| n.index()));
        MaterializedView::from_set(name, def, set)
    }

    /// Wraps `def`'s answer set on the document the view is served against.
    pub(crate) fn from_set(name: impl Into<String>, def: Pattern, set: BitSet) -> MaterializedView {
        MaterializedView { name: name.into(), def, len: set.count(), set }
    }

    /// The same view over a changed document: `set` is the maintainer's
    /// patched answer set. Name and definition carry over; the set is the
    /// whole stored state, so this is all maintenance does.
    pub fn with_set(&self, set: BitSet) -> MaterializedView {
        MaterializedView::from_set(self.name.clone(), self.def.clone(), set)
    }

    /// The view's name (cache key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The view definition `V`.
    pub fn definition(&self) -> &Pattern {
        &self.def
    }

    /// `V(t)` as a set of arena slots (see the field for its capacity).
    pub fn set(&self) -> &BitSet {
        &self.set
    }

    /// `V(t)` as output nodes of the source document, ascending (a copy).
    pub fn nodes(&self) -> Vec<NodeId> {
        self.set.nodes().collect()
    }

    /// Number of answers in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the view result is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `V(t)` by value: one independent subtree copy per answer, taken from
    /// `doc` now. `doc` must be the document the stored node set is current
    /// for.
    pub fn trees(&self, doc: &Tree) -> Vec<Tree> {
        self.set.nodes().map(|n| doc.subtree(n).0).collect()
    }

    /// Applies a rewriting to the view **virtually**: `R(V(t))` as output
    /// nodes of the source document (Proposition 2.4's right-hand side).
    pub fn apply_virtual(&self, r: &Pattern, doc: &Tree) -> Vec<NodeId> {
        evaluate_anchored(r, doc, &self.nodes())
    }

    /// Applies a rewriting to by-value copies of the answers: `R(V(t))` as
    /// a set of result trees, deduplicated by value. Each answer's subtree
    /// is copied out of `doc`, evaluated on its own, and dropped.
    pub fn apply_materialized(&self, r: &Pattern, doc: &Tree) -> Vec<Tree> {
        let mut out: Vec<Tree> = Vec::new();
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        for n in self.set.nodes() {
            let u = doc.subtree(n).0;
            for o in evaluate(r, &u) {
                let (sub, _) = u.subtree(o);
                if seen.insert(sub.canonical_key()) {
                    out.push(sub);
                }
            }
        }
        out
    }
}

/// Normalizes a node-set answer over `doc` to a deduplicated value set
/// (canonical keys), for comparing virtual and materialized answers.
pub fn answer_value_set(doc: &Tree, nodes: &[NodeId]) -> Vec<String> {
    let mut keys: Vec<String> = Vec::with_capacity(nodes.len());
    for &n in nodes {
        let mut key = String::new();
        doc.canonical_key_into(n, &mut key);
        keys.push(key);
    }
    keys.sort();
    keys.dedup();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_model::TreeBuilder;
    use xpv_pattern::parse_xpath;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    fn doc() -> Tree {
        TreeBuilder::root("lib", |b| {
            b.child("shelf", |b| {
                b.child("book", |b| {
                    b.leaf("title");
                    b.leaf("author");
                });
                b.child("book", |b| {
                    b.leaf("title");
                });
            });
            b.child("shelf", |b| {
                b.child("box", |b| {
                    b.child("book", |b| {
                        b.leaf("title");
                        b.leaf("author");
                    });
                });
            });
        })
    }

    #[test]
    fn materialization_counts() {
        let d = doc();
        let v = MaterializedView::materialize("books", pat("lib//book"), &d);
        assert_eq!(v.len(), 3);
        assert_eq!(v.trees(&d).len(), 3);
        assert!(!v.is_empty());
        assert_eq!(v.name(), "books");
    }

    #[test]
    fn virtual_application_matches_direct() {
        let d = doc();
        let v = MaterializedView::materialize("books", pat("lib//book"), &d);
        // R = book/title applied to the view = lib//book/title directly.
        let via_view = v.apply_virtual(&pat("book/title"), &d);
        let direct = evaluate(&pat("lib//book/title"), &d);
        assert_eq!(via_view, direct);
        assert_eq!(via_view.len(), 3);
    }

    #[test]
    fn materialized_application_matches_by_value() {
        let d = doc();
        let v = MaterializedView::materialize("books", pat("lib//book"), &d);
        let r = pat("book[author]/title");
        let via_nodes = v.apply_virtual(&r, &d);
        let via_trees = v.apply_materialized(&r, &d);
        let mut tree_keys: Vec<String> = via_trees.iter().map(Tree::canonical_key).collect();
        tree_keys.sort();
        assert_eq!(answer_value_set(&d, &via_nodes), tree_keys);
    }

    #[test]
    fn empty_view_yields_empty_answers() {
        let d = doc();
        let v = MaterializedView::materialize("none", pat("lib/book"), &d);
        assert!(v.is_empty());
        assert!(v.apply_virtual(&pat("book/title"), &d).is_empty());
        assert!(v.apply_materialized(&pat("book/title"), &d).is_empty());
    }

    #[test]
    fn copies_follow_the_document_after_a_node_set_refresh() {
        let mut d = doc();
        let v = MaterializedView::materialize("books", pat("lib//book"), &d);
        assert_eq!(v.len(), 3);
        let old_first = v.nodes()[0];

        // Simulate a maintainer outcome: a new book appended under the
        // first shelf, and the first book's content edited in place.
        let shelf = d.children(d.root())[0];
        let extra = TreeBuilder::root("book", |b| {
            b.leaf("title");
        });
        let new_book = d.attach_tree(shelf, &extra);
        d.add_child(old_first, xpv_model::Label::new("isbn"));
        let grown = v.nodes().into_iter().chain([new_book]).map(|n| n.index());
        let v = v.with_set(BitSet::from_indices(d.arena_len(), grown));
        assert_eq!((v.name(), v.len()), ("books", 4));
        // Copies are taken from the document as it is now: both the new
        // answer and the in-place content edit show, with nothing to patch.
        let fresh = MaterializedView::materialize("books", pat("lib//book"), &d);
        let keys = |mv: &MaterializedView| {
            let mut ks: Vec<String> = mv.trees(&d).iter().map(Tree::canonical_key).collect();
            ks.sort();
            ks
        };
        assert_eq!(keys(&v), keys(&fresh));
        assert_eq!(v.nodes(), fresh.nodes());
        assert!(keys(&v).iter().any(|k| k.contains("isbn")));
    }

    #[test]
    fn view_with_branch_condition() {
        let d = doc();
        // Books having an author.
        let v = MaterializedView::materialize("authored", pat("lib//book[author]"), &d);
        assert_eq!(v.len(), 2);
        let titles = v.apply_virtual(&pat("book/title"), &d);
        assert_eq!(titles.len(), 2);
    }
}
