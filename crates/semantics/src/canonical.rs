//! Canonical models (Section 2.1) and the expansion bound.
//!
//! A canonical model of a pattern `P` is a tree obtained by (1) replacing
//! every `*` with the reserved label `⊥` and (2) replacing every descendant
//! edge by a path of one or more edges whose internal nodes are labeled `⊥`.
//! [`tau`] builds the *minimal* canonical model (every descendant edge becomes
//! a single edge) — the transformation `τ` used throughout the paper's
//! proofs. [`CanonicalModels`] enumerates the models whose per-descendant-edge
//! expansion lengths range over `1..=bound`.
//!
//! Containment `P1 ⊑ P2` is decided on the finitely many canonical models of
//! `P1` with lengths bounded by [`expansion_bound`]`(P2)` — see DESIGN.md §3
//! for the self-contained proof that `2·s + 3` expansion steps suffice, where
//! `s` is the longest rigid wildcard chain of `P2`. (Miklau & Suciu prove a
//! tighter bound; a looser bound only adds models to check and cannot change
//! the verdict.)

use xpv_model::{Label, NodeId, Tree};
use xpv_pattern::{star_chain_len, Axis, PatId, Pattern};

/// A sound-and-complete per-edge expansion bound for testing whether
/// embeddings of `q` survive arbitrary canonical expansions.
pub fn expansion_bound(q: &Pattern) -> usize {
    2 * star_chain_len(q) + 3
}

/// One canonical model: the tree, the image of every pattern node
/// (indexed by `PatId::index`), and the canonical output node.
#[derive(Clone, Debug)]
pub struct CanonicalModel {
    /// The document.
    pub tree: Tree,
    /// The canonical embedding: image of each pattern node.
    pub node_map: Vec<NodeId>,
    /// Image of the pattern's output node.
    pub output: NodeId,
}

/// Builds a canonical model of `p` with the given expansion length (number of
/// edges, `≥ 1`) for each descendant edge. `desc_edges` lists the pattern
/// nodes with an incoming descendant edge, in the order matching `lengths`.
fn build_model(p: &Pattern, desc_edges: &[PatId], lengths: &[usize]) -> CanonicalModel {
    debug_assert_eq!(desc_edges.len(), lengths.len());
    let bottom = Label::bottom();
    let label_of = |q: PatId| p.test(q).as_label().unwrap_or(bottom);

    let mut tree = Tree::new(label_of(p.root()));
    let mut node_map: Vec<NodeId> = vec![NodeId(0); p.len()];
    node_map[p.root().index()] = tree.root();

    // Arena order is parent-first, so parents are mapped before children.
    for q in p.node_ids().skip(1) {
        let parent_img = node_map[p.parent(q).expect("non-root").index()];
        let img = match p.axis(q) {
            Axis::Child => tree.add_child(parent_img, label_of(q)),
            Axis::Descendant => {
                let pos = desc_edges
                    .iter()
                    .position(|&e| e == q)
                    .expect("every descendant edge is registered");
                let len = lengths[pos];
                debug_assert!(len >= 1);
                let mut at = parent_img;
                for _ in 0..len - 1 {
                    at = tree.add_child(at, bottom);
                }
                tree.add_child(at, label_of(q))
            }
        };
        node_map[q.index()] = img;
    }
    let output = node_map[p.output().index()];
    CanonicalModel { tree, node_map, output }
}

/// The minimal canonical model `τ(P)`: every `*` becomes `⊥`, every
/// descendant edge becomes a single edge (footnote 1 of the paper).
pub fn tau(p: &Pattern) -> CanonicalModel {
    uniform_model(p, 1)
}

/// The canonical model that expands every descendant edge to `len` edges.
pub(crate) fn uniform_model(p: &Pattern, len: usize) -> CanonicalModel {
    let desc_edges = descendant_edge_targets(p);
    let lengths = vec![len; desc_edges.len()];
    build_model(p, &desc_edges, &lengths)
}

/// The pattern nodes with an incoming descendant edge, in arena order.
pub fn descendant_edge_targets(p: &Pattern) -> Vec<PatId> {
    p.node_ids().filter(|&q| p.parent(q).is_some() && p.axis(q) == Axis::Descendant).collect()
}

/// Iterator over the canonical models of a pattern with per-edge expansion
/// lengths in `1..=bound`. Yields `bound^m` models, where `m` is the number
/// of descendant edges — the exponential behind the coNP containment test.
pub struct CanonicalModels<'p> {
    p: &'p Pattern,
    desc_edges: Vec<PatId>,
    lengths: Vec<usize>,
    bound: usize,
    done: bool,
}

impl<'p> CanonicalModels<'p> {
    /// Creates the enumeration with the given per-edge bound (`≥ 1`).
    pub fn new(p: &'p Pattern, bound: usize) -> CanonicalModels<'p> {
        assert!(bound >= 1, "expansion bound must be at least 1");
        let desc_edges = descendant_edge_targets(p);
        let lengths = vec![1; desc_edges.len()];
        CanonicalModels { p, desc_edges, lengths, bound, done: false }
    }

    /// The total number of models this iterator yields.
    pub fn count_models(&self) -> u128 {
        (self.bound as u128).pow(self.desc_edges.len() as u32)
    }
}

impl Iterator for CanonicalModels<'_> {
    type Item = CanonicalModel;

    fn next(&mut self) -> Option<CanonicalModel> {
        if self.done {
            return None;
        }
        let model = build_model(self.p, &self.desc_edges, &self.lengths);
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == self.lengths.len() {
                self.done = true;
                break;
            }
            if self.lengths[i] < self.bound {
                self.lengths[i] += 1;
                break;
            }
            self.lengths[i] = 1;
            i += 1;
        }
        Some(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::{check_embedding, evaluate};
    use xpv_pattern::parse_xpath;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    #[test]
    fn tau_replaces_stars_and_keeps_shape() {
        let p = pat("a[*]//b/*");
        let m = tau(&p);
        assert_eq!(m.tree.len(), p.len());
        // Stars became bottom.
        let stars = p.node_ids().filter(|&q| p.test(q).is_wildcard()).count();
        let bottoms = m.tree.node_ids().filter(|&n| m.tree.label(n).is_bottom()).count();
        assert_eq!(stars, bottoms);
    }

    #[test]
    fn tau_is_a_model_of_p() {
        for s in ["a", "a//b", "a[*]//b/*", "x[y][.//z]/w//v"] {
            let p = pat(s);
            let m = tau(&p);
            // The canonical node map is itself an embedding.
            assert!(check_embedding(&p, &m.tree, &m.node_map, true), "{s}");
            // And the canonical output is an answer.
            assert!(evaluate(&p, &m.tree).contains(&m.output), "{s}");
        }
    }

    #[test]
    fn expansion_lengths_enumerate_fully() {
        let p = pat("a//b//c");
        let it = CanonicalModels::new(&p, 3);
        assert_eq!(it.count_models(), 9);
        let models: Vec<CanonicalModel> = it.collect();
        assert_eq!(models.len(), 9);
        // Sizes: 3 original nodes plus 0..=2 extra per edge.
        let mut sizes: Vec<usize> = models.iter().map(|m| m.tree.len()).collect();
        sizes.sort();
        assert_eq!(sizes, vec![3, 4, 4, 5, 5, 5, 6, 6, 7]);
    }

    #[test]
    fn every_canonical_model_is_a_model() {
        let p = pat("a[*//x]/b//c[.//d]");
        for m in CanonicalModels::new(&p, 3) {
            assert!(check_embedding(&p, &m.tree, &m.node_map, true));
            assert!(evaluate(&p, &m.tree).contains(&m.output));
        }
    }

    #[test]
    fn no_descendant_edges_single_model() {
        let p = pat("a/b[c]");
        let it = CanonicalModels::new(&p, 5);
        assert_eq!(it.count_models(), 1);
        assert_eq!(it.count(), 1);
    }

    #[test]
    fn interior_nodes_are_bottom() {
        let p = pat("a//b");
        let long = CanonicalModels::new(&p, 3).max_by_key(|m| m.tree.len()).expect("nonempty");
        assert_eq!(long.tree.len(), 4);
        // Interior chain nodes carry ⊥; endpoints carry a and b.
        let labels: Vec<&str> = long.tree.node_ids().map(|n| long.tree.label(n).name()).collect();
        assert_eq!(labels.iter().filter(|&&l| l == xpv_model::BOTTOM_NAME).count(), 2);
        assert!(labels.contains(&"a") && labels.contains(&"b"));
    }

    #[test]
    fn bound_grows_with_star_chains() {
        assert_eq!(expansion_bound(&pat("a/b")), 3);
        assert_eq!(expansion_bound(&pat("*/*")), 7);
        assert_eq!(expansion_bound(&pat("a[*/*/*]//b")), 9);
    }
}
