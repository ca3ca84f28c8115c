//! The tree-pattern type for the fragment `XP{//,[],*}`.
//!
//! A [`Pattern`] (Section 2.1 of the paper) is a rooted labeled tree whose
//! labels come from `Σ ∪ {*}` ([`NodeTest`]), whose edges are either *child*
//! or *descendant* edges ([`Axis`]), and which carries a distinguished
//! **output node**. The path from the root to the output node is the
//! *selection path*; its length is the pattern's *depth*.
//!
//! The arena representation mirrors [`xpv_model::Tree`]: nodes are indices,
//! each non-root node stores the axis of its (unique) incoming edge.
//!
//! The **empty pattern `Υ`** (the result of a label clash during composition)
//! is deliberately *not* a value of this type: operations that can produce it
//! return `Option<Pattern>`, which keeps every in-hand `Pattern` nonempty and
//! satisfiable (every pattern has a canonical model).

use std::fmt;

use xpv_model::Label;

/// The label constraint of a pattern node: a concrete label or the wildcard.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeTest {
    /// `*` — matches any label.
    Wildcard,
    /// A concrete label from `Σ`.
    Label(Label),
}

impl NodeTest {
    /// Convenience constructor from a label name.
    pub fn label(name: &str) -> NodeTest {
        NodeTest::Label(Label::new(name))
    }

    /// Returns the concrete label, if any.
    pub fn as_label(self) -> Option<Label> {
        match self {
            NodeTest::Wildcard => None,
            NodeTest::Label(l) => Some(l),
        }
    }

    /// Returns `true` for the wildcard.
    pub fn is_wildcard(self) -> bool {
        matches!(self, NodeTest::Wildcard)
    }

    /// Whether a document node labeled `l` satisfies this test
    /// (label-preservation of Definition 2.1).
    #[inline]
    pub fn matches(self, l: Label) -> bool {
        match self {
            NodeTest::Wildcard => true,
            NodeTest::Label(me) => me == l,
        }
    }

    /// The greatest lower bound of two tests (Section 2.3). Returns `None`
    /// for the clash value `⋄` (two distinct concrete labels).
    pub fn glb(a: NodeTest, b: NodeTest) -> Option<NodeTest> {
        match (a, b) {
            (NodeTest::Wildcard, x) | (x, NodeTest::Wildcard) => Some(x),
            (NodeTest::Label(la), NodeTest::Label(lb)) if la == lb => Some(a),
            _ => None,
        }
    }
}

impl fmt::Debug for NodeTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for NodeTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeTest::Wildcard => f.write_str("*"),
            NodeTest::Label(l) => f.write_str(l.name()),
        }
    }
}

/// The axis of a pattern edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Axis {
    /// `/` — child edge (`E_/` in the paper).
    Child,
    /// `//` — descendant edge (`E_//`), matched by a *proper* descendant.
    Descendant,
}

impl Axis {
    /// The XPath separator for this axis.
    pub fn separator(self) -> &'static str {
        match self {
            Axis::Child => "/",
            Axis::Descendant => "//",
        }
    }
}

/// Index of a node inside a [`Pattern`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatId(pub u32);

impl PatId {
    /// The arena index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PatId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[derive(Clone, Debug, PartialEq)]
struct PatNode {
    test: NodeTest,
    parent: Option<PatId>,
    /// Axis of the incoming edge; meaningless (Child) for the root.
    axis: Axis,
    children: Vec<PatId>,
}

/// A nonempty tree pattern in `XP{//,[],*}` with a distinguished output node.
#[derive(Clone)]
pub struct Pattern {
    nodes: Vec<PatNode>,
    output: PatId,
}

impl Pattern {
    /// A single-node pattern; the node is both root and output.
    pub fn single(test: NodeTest) -> Pattern {
        Self::assert_test_allowed(test);
        Pattern {
            nodes: vec![PatNode { test, parent: None, axis: Axis::Child, children: Vec::new() }],
            output: PatId(0),
        }
    }

    fn assert_test_allowed(test: NodeTest) {
        if let NodeTest::Label(l) = test {
            assert!(!l.is_bottom(), "patterns must not use the reserved canonical-model label ⊥");
        }
    }

    /// The root node (always id 0).
    #[inline]
    pub fn root(&self) -> PatId {
        PatId(0)
    }

    /// The output node `out(P)`.
    #[inline]
    pub fn output(&self) -> PatId {
        self.output
    }

    /// Marks `n` as the output node.
    pub fn set_output(&mut self, n: PatId) {
        assert!(n.index() < self.nodes.len(), "output out of bounds");
        self.output = n;
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Bytes this pattern holds on the heap: its node arena and each
    /// node's child list.
    pub fn heap_bytes(&self) -> usize {
        let children: usize = self.nodes.iter().map(|n| n.children.capacity()).sum();
        self.nodes.capacity() * std::mem::size_of::<PatNode>()
            + children * std::mem::size_of::<PatId>()
    }

    /// Patterns are never empty (`Υ` is modeled as `Option<Pattern>::None`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Appends a node under `parent` with the given incoming `axis`.
    pub fn add_child(&mut self, parent: PatId, axis: Axis, test: NodeTest) -> PatId {
        Self::assert_test_allowed(test);
        assert!(parent.index() < self.nodes.len(), "parent out of bounds");
        let id = PatId(u32::try_from(self.nodes.len()).expect("pattern too large"));
        self.nodes.push(PatNode { test, parent: Some(parent), axis, children: Vec::new() });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// The node test of `n`.
    #[inline]
    pub fn test(&self, n: PatId) -> NodeTest {
        self.nodes[n.index()].test
    }

    /// Replaces the node test of `n` (used by composition's glb merge).
    pub fn set_test(&mut self, n: PatId, test: NodeTest) {
        Self::assert_test_allowed(test);
        self.nodes[n.index()].test = test;
    }

    /// Axis of the edge entering `n`. Meaningless for the root.
    #[inline]
    pub fn axis(&self, n: PatId) -> Axis {
        self.nodes[n.index()].axis
    }

    /// Re-axes the edge entering `n` (used by relaxation).
    pub fn set_axis(&mut self, n: PatId, axis: Axis) {
        assert!(self.parent(n).is_some(), "the root has no incoming edge");
        self.nodes[n.index()].axis = axis;
    }

    /// The parent of `n` (`None` for the root).
    #[inline]
    pub fn parent(&self, n: PatId) -> Option<PatId> {
        self.nodes[n.index()].parent
    }

    /// The children of `n` (order carries no meaning).
    #[inline]
    pub fn children(&self, n: PatId) -> &[PatId] {
        &self.nodes[n.index()].children
    }

    /// Returns `true` if `n` has no children.
    #[inline]
    pub fn is_leaf(&self, n: PatId) -> bool {
        self.nodes[n.index()].children.is_empty()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = PatId> + '_ {
        (0..self.nodes.len() as u32).map(PatId)
    }

    /// The selection path: nodes from the root to the output node, inclusive.
    /// Its `k`-th entry is the paper's *k-node*.
    pub fn selection_path(&self) -> Vec<PatId> {
        let mut path = vec![self.output];
        let mut cur = self.output;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// The depth `d` of the pattern: number of edges on the selection path.
    pub fn depth(&self) -> usize {
        self.selection_path().len() - 1
    }

    /// The *k-node*: the selection node at depth `k` (Section 3.1).
    ///
    /// # Panics
    ///
    /// Panics if `k > depth()`.
    pub fn k_node(&self, k: usize) -> PatId {
        let path = self.selection_path();
        assert!(k < path.len(), "k={k} exceeds pattern depth {}", path.len() - 1);
        path[k]
    }

    /// The axes of the selection edges: entry `i` is the axis of the edge
    /// entering the `(i+1)`-node, so the vector has `depth()` entries.
    pub fn selection_axes(&self) -> Vec<Axis> {
        let path = self.selection_path();
        path[1..].iter().map(|&n| self.axis(n)).collect()
    }

    /// The extended depth of an arbitrary node: the depth of its deepest
    /// ancestor (or itself) on the selection path (Section 3.1).
    pub fn node_depth(&self, n: PatId) -> usize {
        let path = self.selection_path();
        let mut cur = n;
        loop {
            if let Some(pos) = path.iter().position(|&s| s == cur) {
                return pos;
            }
            cur = self.parent(cur).expect("walk reaches the selection path at the root");
        }
    }

    /// The height: maximal number of edges on any root-to-leaf path.
    pub fn height(&self) -> usize {
        fn rec(p: &Pattern, n: PatId) -> usize {
            p.children(n).iter().map(|&c| 1 + rec(p, c)).max().unwrap_or(0)
        }
        rec(self, self.root())
    }

    /// The set of concrete labels (elements of `Σ`) used in the pattern,
    /// sorted and deduplicated. Wildcards are not labels and are excluded.
    pub fn label_set(&self) -> Vec<Label> {
        let mut ls: Vec<Label> = self.node_ids().filter_map(|n| self.test(n).as_label()).collect();
        ls.sort();
        ls.dedup();
        ls
    }

    /// Copies the subtree of `self` rooted at `n` into `dst` under
    /// `dst_parent` via `axis`. Returns the id in `dst` of the copy of `n`
    /// and records the full old→new id correspondence in `map` (pass a
    /// scratch vector when the mapping is not needed). The single
    /// subtree-copier behind every structural op in [`crate::ops`] and the
    /// external pattern builders (e.g. the workload's view splitter).
    pub fn copy_subtree_into(
        &self,
        n: PatId,
        dst: &mut Pattern,
        dst_parent: PatId,
        axis: Axis,
        map: &mut Vec<(PatId, PatId)>,
    ) -> PatId {
        let new_n = dst.add_child(dst_parent, axis, self.test(n));
        map.push((n, new_n));
        let children: Vec<PatId> = self.children(n).to_vec();
        for c in children {
            self.copy_subtree_into(c, dst, new_n, self.axis(c), map);
        }
        new_n
    }

    /// A canonical serialization under unordered-pattern isomorphism that
    /// respects node tests, edge axes, and the output marker: two patterns
    /// are isomorphic (in the sense used by Proposition 3.4's candidate set)
    /// iff their keys are equal.
    pub fn canonical_key(&self) -> String {
        self.canonical_key_at(self.root())
    }

    /// The canonical key of the subtree rooted at `n` (output marker
    /// included if the output node lies inside it).
    pub fn canonical_key_at(&self, n: PatId) -> String {
        fn rec(p: &Pattern, n: PatId, out: PatId) -> String {
            let mut child_keys: Vec<String> = p
                .children(n)
                .iter()
                .map(|&c| {
                    let sep = p.axis(c).separator();
                    format!("{}{}", sep, rec(p, c, out))
                })
                .collect();
            child_keys.sort();
            let mut s = String::from("(");
            match p.test(n) {
                NodeTest::Wildcard => s.push('*'),
                NodeTest::Label(l) => s.push_str(l.name()),
            }
            if n == out {
                s.push('!');
            }
            for k in child_keys {
                s.push_str(&k);
            }
            s.push(')');
            s
        }
        rec(self, n, self.output)
    }

    /// Unordered-pattern isomorphism (same shape, tests, axes, output).
    /// The engine's plan memo and batch dedup confirm a
    /// [`Pattern::fingerprint`] match with it, so a collision costs a plan,
    /// never a wrong route.
    pub fn structurally_eq(&self, other: &Pattern) -> bool {
        // Two parses of one query text lay their nodes out identically: a
        // repeated query's confirm settles here, without building the
        // canonical keys.
        let same_layout = || self.output == other.output && self.nodes == other.nodes;
        self.len() == other.len()
            && (same_layout() || self.canonical_key() == other.canonical_key())
    }
}

impl fmt::Debug for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pattern({})", crate::print::to_xpath(self))
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::print::to_xpath(self))
    }
}

/// A fluent builder for patterns, used pervasively in tests and examples.
///
/// ```
/// use xpv_pattern::{PatternBuilder, Axis};
/// // a[b]//c  (output c)
/// let p = PatternBuilder::root_label("a", |b| {
///     b.leaf(Axis::Child, "b");
///     b.output_child(Axis::Descendant, "c", |_| {});
/// });
/// assert_eq!(p.to_string(), "a[b]//c");
/// ```
pub struct PatternBuilder<'p> {
    pat: &'p mut Pattern,
    cur: PatId,
}

impl PatternBuilder<'_> {
    /// Builds a pattern rooted at a labeled node. If `f` never calls an
    /// `output_*` method, the root is the output node.
    pub fn root_label(label: &str, f: impl FnOnce(&mut PatternBuilder<'_>)) -> Pattern {
        Self::root(NodeTest::label(label), f)
    }

    /// Builds a pattern rooted at a wildcard node.
    pub fn root_star(f: impl FnOnce(&mut PatternBuilder<'_>)) -> Pattern {
        Self::root(NodeTest::Wildcard, f)
    }

    /// Builds a pattern rooted at `test`.
    pub fn root(test: NodeTest, f: impl FnOnce(&mut PatternBuilder<'_>)) -> Pattern {
        let mut pat = Pattern::single(test);
        let root = pat.root();
        let mut b = PatternBuilder { pat: &mut pat, cur: root };
        f(&mut b);
        pat
    }

    fn test_of(label: &str) -> NodeTest {
        if label == "*" {
            NodeTest::Wildcard
        } else {
            NodeTest::label(label)
        }
    }

    /// Adds a leaf child (`"*"` means wildcard).
    pub fn leaf(&mut self, axis: Axis, label: &str) -> &mut Self {
        self.pat.add_child(self.cur, axis, Self::test_of(label));
        self
    }

    /// Adds an internal child and recurses into it.
    pub fn child(
        &mut self,
        axis: Axis,
        label: &str,
        f: impl FnOnce(&mut PatternBuilder<'_>),
    ) -> &mut Self {
        let id = self.pat.add_child(self.cur, axis, Self::test_of(label));
        let mut b = PatternBuilder { pat: self.pat, cur: id };
        f(&mut b);
        self
    }

    /// Adds a child, recurses, and marks it as the output node.
    pub fn output_child(
        &mut self,
        axis: Axis,
        label: &str,
        f: impl FnOnce(&mut PatternBuilder<'_>),
    ) -> &mut Self {
        let id = self.pat.add_child(self.cur, axis, Self::test_of(label));
        self.pat.set_output(id);
        let mut b = PatternBuilder { pat: self.pat, cur: id };
        f(&mut b);
        self
    }

    /// Marks the current node as the output node.
    pub fn mark_output(&mut self) -> &mut Self {
        let cur = self.cur;
        self.pat.set_output(cur);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `a[b]//c/d` with output `d`, plus a side branch `e` under `c`.
    fn sample() -> Pattern {
        PatternBuilder::root_label("a", |b| {
            b.leaf(Axis::Child, "b");
            b.child(Axis::Descendant, "c", |b| {
                b.leaf(Axis::Child, "e");
                b.output_child(Axis::Child, "d", |_| {});
            });
        })
    }

    #[test]
    fn selection_path_and_depth() {
        let p = sample();
        assert_eq!(p.depth(), 2);
        let path = p.selection_path();
        assert_eq!(path.len(), 3);
        assert_eq!(p.test(path[0]), NodeTest::label("a"));
        assert_eq!(p.test(path[1]), NodeTest::label("c"));
        assert_eq!(p.test(path[2]), NodeTest::label("d"));
        assert_eq!(p.selection_axes(), vec![Axis::Descendant, Axis::Child]);
    }

    #[test]
    fn k_node_lookup() {
        let p = sample();
        assert_eq!(p.k_node(0), p.root());
        assert_eq!(p.k_node(2), p.output());
    }

    #[test]
    #[should_panic(expected = "exceeds pattern depth")]
    fn k_node_out_of_range() {
        let _ = sample().k_node(3);
    }

    #[test]
    fn node_depth_extends_selection_depth() {
        let p = sample();
        // Side branch `b` hangs off the root => depth 0.
        let b = p.children(p.root())[0];
        assert_eq!(p.node_depth(b), 0);
        // Side branch `e` hangs off the 1-node => depth 1.
        let c = p.children(p.root())[1];
        let e = p.children(c)[0];
        assert_eq!(p.node_depth(e), 1);
        assert_eq!(p.node_depth(p.output()), 2);
    }

    #[test]
    fn height_and_labels() {
        let p = sample();
        assert_eq!(p.height(), 2);
        let labels: Vec<&str> = p.label_set().iter().map(|l| l.name()).collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn glb_rules() {
        let a = NodeTest::label("a");
        let b = NodeTest::label("b");
        let star = NodeTest::Wildcard;
        assert_eq!(NodeTest::glb(a, a), Some(a));
        assert_eq!(NodeTest::glb(a, star), Some(a));
        assert_eq!(NodeTest::glb(star, a), Some(a));
        assert_eq!(NodeTest::glb(star, star), Some(star));
        assert_eq!(NodeTest::glb(a, b), None);
    }

    #[test]
    fn canonical_key_ignores_sibling_order() {
        let p1 = PatternBuilder::root_label("a", |b| {
            b.leaf(Axis::Child, "x");
            b.leaf(Axis::Descendant, "y");
        });
        let p2 = PatternBuilder::root_label("a", |b| {
            b.leaf(Axis::Descendant, "y");
            b.leaf(Axis::Child, "x");
        });
        assert!(p1.structurally_eq(&p2));
    }

    #[test]
    fn canonical_key_distinguishes_axes_and_output() {
        let p1 = PatternBuilder::root_label("a", |b| {
            b.leaf(Axis::Child, "x");
        });
        let p2 = PatternBuilder::root_label("a", |b| {
            b.leaf(Axis::Descendant, "x");
        });
        assert!(!p1.structurally_eq(&p2));

        let mut p3 = p1.clone();
        let x = p3.children(p3.root())[0];
        p3.set_output(x);
        assert!(!p1.structurally_eq(&p3));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn bottom_label_rejected_in_patterns() {
        let _ = Pattern::single(NodeTest::Label(xpv_model::Label::bottom()));
    }

    #[test]
    fn wildcard_matching() {
        let l = xpv_model::Label::new("z");
        assert!(NodeTest::Wildcard.matches(l));
        assert!(NodeTest::label("z").matches(l));
        assert!(!NodeTest::label("w").matches(l));
    }
}
