//! Evaluating a compensation over the intersection of materialized views,
//! on node **lists** and the reference `Tree` evaluator: the oracle of
//! `tests/intersect_properties.rs`.
//!
//! Each view is an output-*node* set over the shared document (views keep
//! node identity): the intersection is a merge of the ascending `NodeId`
//! runs and the compensation is evaluated *anchored* at the surviving
//! nodes (never copies data). The engine does the same thing on slot
//! bitsets — its view store — as word-ANDs inside the flat evaluator's
//! seed (`xpv_semantics::BatchEval::evaluate_seeded_into`), and calls
//! nothing here.

use xpv_model::{NodeId, Tree};
use xpv_pattern::Pattern;
use xpv_semantics::evaluate_anchored;

/// The node-set intersection `∩ sets[i]`, ascending. Every input must be
/// ascending, as view answer sets are (the evaluators emit slot order and
/// maintenance patches by merge), so this is a two-pointer merge per
/// participant and allocates nothing but its result. Returns the empty set
/// when `sets` is empty.
pub fn intersect_node_sets(sets: &[&[NodeId]]) -> Vec<NodeId> {
    let Some((first, rest)) = sets.split_first() else {
        return Vec::new();
    };
    debug_assert!(
        sets.iter().all(|s| s.windows(2).all(|w| w[0] < w[1])),
        "view node sets are ascending"
    );
    let mut acc = first.to_vec();
    for set in rest {
        // Disjoint participants empty the whole intersection: stop before
        // scanning further sets.
        if acc.is_empty() {
            break;
        }
        let mut other = set.iter().peekable();
        acc.retain(|n| {
            while other.next_if(|&m| m < n).is_some() {}
            other.peek() == Some(&n)
        });
    }
    acc
}

/// Evaluates `compensation` anchored on the node-set intersection of the
/// views' virtual answers: `R(V1(t) ∩ … ∩ Vn(t))` as output nodes of `doc`.
///
/// With a compensation from [`crate::plan_intersection_in`] this returns
/// exactly the query's direct answers (byte-identical, same order).
pub fn answer_intersection_virtual(
    doc: &Tree,
    sets: &[&[NodeId]],
    compensation: &Pattern,
) -> Vec<NodeId> {
    let anchors = intersect_node_sets(sets);
    evaluate_anchored(compensation, doc, &anchors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpv_model::TreeBuilder;
    use xpv_pattern::parse_xpath;
    use xpv_semantics::evaluate;

    fn pat(s: &str) -> Pattern {
        parse_xpath(s).expect("pattern parses")
    }

    /// Three items: one with bids only, one with shipping only, one with
    /// both.
    fn doc() -> Tree {
        TreeBuilder::root("site", |b| {
            b.child("region", |b| {
                b.child("item", |b| {
                    b.leaf("name");
                    b.leaf("bids");
                });
                b.child("item", |b| {
                    b.leaf("name");
                    b.leaf("shipping");
                });
                b.child("item", |b| {
                    b.leaf("name");
                    b.leaf("bids");
                    b.leaf("shipping");
                });
            });
        })
    }

    #[test]
    fn node_intersection_is_exact_and_ordered() {
        let t = doc();
        let v1 = evaluate(&pat("site/region/item[bids]/name"), &t);
        let v2 = evaluate(&pat("site/region/item[shipping]/name"), &t);
        let both = intersect_node_sets(&[&v1, &v2]);
        let direct = evaluate(&pat("site/region/item[bids][shipping]/name"), &t);
        assert_eq!(both, direct);
        assert_eq!(both.len(), 1);
        // Empty input and disjoint sets.
        assert!(intersect_node_sets(&[]).is_empty());
        let names = evaluate(&pat("site/region/item/name"), &t);
        let bids = evaluate(&pat("site/region/item/bids"), &t);
        assert!(intersect_node_sets(&[&names, &bids]).is_empty());
    }

    #[test]
    fn virtual_answer_matches_direct_evaluation() {
        let t = doc();
        let v1 = evaluate(&pat("site/region/item[bids]/name"), &t);
        let v2 = evaluate(&pat("site/region/item[shipping]/name"), &t);
        let ans = answer_intersection_virtual(&t, &[&v1, &v2], &pat("name"));
        assert_eq!(ans, evaluate(&pat("site/region/item[bids][shipping]/name"), &t));
    }
}
