//! Synthetic documents with real-world shapes, plus their query/view
//! catalogs.
//!
//! The paper's motivating applications are caching and information
//! integration over document collections like auction sites and
//! bibliographies. We cannot ship XMark or DBLP data, so these generators
//! produce documents with the *same shape* (element hierarchy, fanout
//! skew) at configurable scale — the documented substitution from
//! DESIGN.md §1. Each scenario comes with a catalog of queries and view
//! definitions that exercise the rewriting engine the way the paper's
//! introduction describes (views materialize hot subtrees; queries drill
//! into them).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xpv_model::{Label, Tree};
use xpv_pattern::{parse_xpath, Axis, PatId, Pattern};

fn l(name: &str) -> Label {
    Label::new(name)
}

fn pat(s: &str) -> Pattern {
    parse_xpath(s).expect("catalog patterns are well-formed")
}

/// An XMark-like auction site: `site/regions*/item*` with descriptions,
/// bidders and categories. `regions` controls the top-level fanout,
/// `items_per_region` the second level; sizes grow linearly.
pub fn site_doc(regions: usize, items_per_region: usize, seed: u64) -> Tree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Tree::new(l("site"));
    let root = t.root();
    let cats = t.add_child(root, l("categories"));
    for _ in 0..(regions.max(1)) {
        let c = t.add_child(cats, l("category"));
        t.add_child(c, l("name"));
    }
    for _ in 0..regions {
        let region = t.add_child(root, l("region"));
        for _ in 0..items_per_region {
            let item = t.add_child(region, l("item"));
            t.add_child(item, l("name"));
            let desc = t.add_child(item, l("description"));
            let para = t.add_child(desc, l("parlist"));
            for _ in 0..rng.gen_range(1..=3) {
                t.add_child(para, l("listitem"));
            }
            if rng.gen_bool(0.6) {
                let bids = t.add_child(item, l("bids"));
                for _ in 0..rng.gen_range(1..=4) {
                    let bid = t.add_child(bids, l("bid"));
                    t.add_child(bid, l("bidder"));
                    t.add_child(bid, l("price"));
                }
            }
            if rng.gen_bool(0.3) {
                let ship = t.add_child(item, l("shipping"));
                t.add_child(ship, l("cost"));
            }
        }
    }
    t
}

/// A DBLP-like bibliography: `bib/(article|inproceedings)*` with authors,
/// titles, venues and optional cite lists.
pub fn bib_doc(publications: usize, seed: u64) -> Tree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Tree::new(l("bib"));
    let root = t.root();
    for _ in 0..publications {
        let kind = if rng.gen_bool(0.5) { "article" } else { "inproceedings" };
        let p = t.add_child(root, l(kind));
        t.add_child(p, l("title"));
        for _ in 0..rng.gen_range(1..=4) {
            let a = t.add_child(p, l("author"));
            t.add_child(a, l("name"));
        }
        let venue = t.add_child(p, l("venue"));
        t.add_child(venue, l("year"));
        if rng.gen_bool(0.4) {
            let cites = t.add_child(p, l("cites"));
            for _ in 0..rng.gen_range(1..=3) {
                t.add_child(cites, l("cite"));
            }
        }
    }
    t
}

/// A named query/view workload over a scenario document.
#[derive(Clone, Debug)]
pub struct Catalog {
    /// Scenario name (`site` or `bib`).
    pub name: &'static str,
    /// View definitions to materialize, with names.
    pub views: Vec<(&'static str, Pattern)>,
    /// Queries to answer, with names.
    pub queries: Vec<(&'static str, Pattern)>,
}

/// The auction-site workload: views materialize the hot `item` subtrees;
/// queries drill into names, bids and descriptions.
pub fn site_catalog() -> Catalog {
    Catalog {
        name: "site",
        views: vec![
            ("items", pat("site/region/item")),
            ("all_bids", pat("site//bid")),
            ("descriptions", pat("site/region/item/description")),
        ],
        queries: vec![
            ("item_names", pat("site/region/item/name")),
            ("bid_prices", pat("site//bid/price")),
            ("item_listitems", pat("site/region/item/description/parlist/listitem")),
            ("bidders_of_shipped", pat("site/region/item[shipping]//bidder")),
            ("priced_bidders", pat("site//bid[price]/bidder")),
            ("categories", pat("site/categories/category/name")),
        ],
    }
}

/// An **overlapping-view** workload over the auction site: the views pin
/// *different* predicate branches on the item node (above their shared
/// `name` output), so no single view can rewrite the joint queries — only
/// pairs or triples, through their node-set **intersection**, can. The
/// catalog mixes intersection-only queries with single-view hits and
/// direct-only queries, so Zipf streams over it exercise every route kind
/// (`ViaView`, `Intersect`, `Direct`).
pub fn site_intersect_catalog() -> Catalog {
    Catalog {
        name: "site_intersect",
        views: vec![
            ("bid_names", pat("site/region/item[bids]/name")),
            ("ship_names", pat("site/region/item[shipping]/name")),
            ("desc_names", pat("site/region/item[description]/name")),
        ],
        queries: vec![
            // Hot rank: servable only by the {bids, shipping} pair.
            ("bid_ship_names", pat("site/region/item[bids][shipping]/name")),
            // Single-view hit on `bid_names`.
            ("bid_names_only", pat("site/region/item[bids]/name")),
            // Needs all three views (no pair covers three predicates).
            ("triple_names", pat("site/region/item[bids][shipping][description]/name")),
            // Another pair, deeper compensation work.
            ("ship_desc_names", pat("site/region/item[shipping][description]/name")),
            // No view and no intersection applies: direct evaluation.
            ("shipping_costs", pat("site/region/item/shipping/cost")),
            ("all_item_names", pat("site/region/item/name")),
        ],
    }
}

/// Splits a query into `parts` **overlapping views**: each view keeps the
/// full selection spine of `p` but only a share of its predicate branches,
/// assigned round-robin from a seeded shuffle. The union of the shares is
/// the whole branch set, so the views' exact intersection pattern is
/// equivalent to `p` — a pool that answers `p` jointly even though each
/// member is individually weaker.
///
/// Returns `None` when `p` cannot participate in exact intersections
/// (a descendant edge below the root edge of the selection path), when it
/// has no predicate branches to distribute, or when `parts < 2`.
pub fn split_into_overlapping_views(p: &Pattern, parts: usize, seed: u64) -> Option<Vec<Pattern>> {
    if parts < 2 {
        return None;
    }
    let path = p.selection_path();
    if path[1..].iter().skip(1).any(|&n| p.axis(n) != Axis::Child) {
        return None;
    }
    // Branch roots per selection position.
    let mut branches: Vec<(usize, PatId)> = Vec::new();
    for (j, &sel) in path.iter().enumerate() {
        for &c in p.children(sel) {
            if path.get(j + 1) != Some(&c) {
                branches.push((j, c));
            }
        }
    }
    if branches.is_empty() {
        return None;
    }
    // Seeded shuffle, then round-robin assignment.
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..branches.len()).rev() {
        branches.swap(i, rng.gen_range(0..=i));
    }
    let mut views = Vec::with_capacity(parts);
    for part in 0..parts {
        let mut v = Pattern::single(p.test(path[0]));
        let mut spine = vec![v.root()];
        for &n in &path[1..] {
            let prev = *spine.last().expect("spine nonempty");
            spine.push(v.add_child(prev, p.axis(n), p.test(n)));
        }
        v.set_output(spine[path.len() - 1]);
        let mut scratch: Vec<(PatId, PatId)> = Vec::new();
        for (i, &(j, branch)) in branches.iter().enumerate() {
            if i % parts == part {
                p.copy_subtree_into(branch, &mut v, spine[j], p.axis(branch), &mut scratch);
            }
        }
        views.push(v);
    }
    Some(views)
}

/// The bibliography workload.
pub fn bib_catalog() -> Catalog {
    Catalog {
        name: "bib",
        views: vec![("articles", pat("bib/article")), ("all_authors", pat("bib/*/author"))],
        queries: vec![
            ("article_titles", pat("bib/article/title")),
            ("author_names", pat("bib/*/author/name")),
            ("cited_articles", pat("bib/article[cites/cite]/title")),
            ("venues", pat("bib/article/venue/year")),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_doc_scales_linearly() {
        let small = site_doc(2, 3, 1);
        let large = site_doc(4, 6, 1);
        assert!(large.len() > small.len() * 2);
        assert_eq!(small.label(small.root()).name(), "site");
    }

    #[test]
    fn site_doc_deterministic() {
        assert!(site_doc(3, 4, 7).structurally_eq(&site_doc(3, 4, 7)));
    }

    #[test]
    fn bib_doc_has_expected_shape() {
        let t = bib_doc(10, 3);
        let pubs = t.children(t.root()).len();
        assert_eq!(pubs, 10);
        // Every publication has a title child.
        for &p in t.children(t.root()) {
            assert!(t.children(p).iter().any(|&c| t.label(c).name() == "title"));
        }
    }

    #[test]
    fn intersect_catalog_views_overlap_but_differ() {
        let cat = site_intersect_catalog();
        assert_eq!(cat.views.len(), 3);
        // Pairwise structurally distinct, same selection depth (the
        // precondition for exact intersections).
        for (i, (_, a)) in cat.views.iter().enumerate() {
            assert_eq!(a.depth(), 3);
            for (_, b) in &cat.views[i + 1..] {
                assert!(!a.structurally_eq(b));
            }
        }
        // The joint queries really are nonempty on the scenario document.
        let doc = site_doc(6, 8, 11);
        let joint = &cat.queries[0].1;
        assert!(!xpv_semantics::evaluate(joint, &doc).is_empty());
    }

    #[test]
    fn split_views_jointly_reconstruct_the_query() {
        let p = pat("site/region[item]/item[bids][shipping]/name");
        let views = split_into_overlapping_views(&p, 2, 7).expect("splits");
        assert_eq!(views.len(), 2);
        let doc = site_doc(6, 10, 3);
        // Each view is weaker (or equal), and their node-set intersection
        // equals the query's answers.
        let direct = xpv_semantics::evaluate(&p, &doc);
        assert!(!direct.is_empty(), "the scenario document must answer the joint query");
        let mut joint: Option<Vec<xpv_model::NodeId>> = None;
        for v in &views {
            let nodes = xpv_semantics::evaluate(v, &doc);
            assert!(direct.iter().all(|n| nodes.contains(n)), "view must cover the query");
            joint = Some(match joint {
                None => nodes,
                Some(j) => j.into_iter().filter(|n| nodes.contains(n)).collect(),
            });
        }
        assert_eq!(joint.expect("two views"), direct);
    }

    #[test]
    fn split_views_reject_unsuitable_shapes() {
        assert!(split_into_overlapping_views(&pat("a[b][c]/d"), 1, 0).is_none());
        assert!(split_into_overlapping_views(&pat("a/b/c"), 2, 0).is_none(), "no branches");
        assert!(
            split_into_overlapping_views(&pat("a/b[x]//c[y]"), 2, 0).is_none(),
            "descendant edge below the root edge"
        );
        // The root edge itself may be descendant.
        assert!(split_into_overlapping_views(&pat("a//b[x][y]"), 2, 0).is_some());
    }

    #[test]
    fn catalogs_parse_and_apply() {
        let doc = site_doc(3, 4, 11);
        let cat = site_catalog();
        for (name, q) in &cat.queries {
            // All catalog queries must be evaluable (some may be empty on
            // small documents, but item_names never is).
            let res = xpv_semantics::evaluate(q, &doc);
            if *name == "item_names" {
                assert_eq!(res.len(), 12);
            }
        }
        let bib = bib_doc(5, 2);
        for (_, q) in &bib_catalog().queries {
            let _ = xpv_semantics::evaluate(q, &bib);
        }
    }
}
