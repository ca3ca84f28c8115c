//! End-to-end correctness of the view-answering engine: every cache answer
//! must equal direct evaluation, on scenario documents and on random ones,
//! regardless of the route taken.

mod common;

use xpath_views::engine::Route;
use xpath_views::prelude::*;
use xpath_views::workload::{
    bib_catalog, bib_doc, edit_batches, edit_stream, site_catalog, site_doc, EditMix, Fragment,
};

use common::{instance_from_seed, tree_from_seed};

#[test]
fn site_catalog_cache_equals_direct() {
    let doc = site_doc(5, 7, 3);
    let catalog = site_catalog();
    let cache = ShardedViewCache::new(doc);
    for (name, def) in &catalog.views {
        cache.add_view(name, def.clone());
    }
    let mut hits = 0;
    for (name, q) in &catalog.queries {
        let ans = cache.answer(q);
        assert_eq!(ans.nodes, cache.answer_direct(q), "mismatch for {name}");
        if matches!(ans.route, Route::ViaView { .. }) {
            hits += 1;
        }
    }
    assert!(hits >= 4, "expected most catalog queries to hit views, got {hits}");
}

#[test]
fn bib_catalog_cache_equals_direct() {
    let doc = bib_doc(25, 9);
    let catalog = bib_catalog();
    let cache = ShardedViewCache::new(doc);
    for (name, def) in &catalog.views {
        cache.add_view(name, def.clone());
    }
    for (name, q) in &catalog.queries {
        let ans = cache.answer(q);
        assert_eq!(ans.nodes, cache.answer_direct(q), "mismatch for {name}");
    }
}

#[test]
fn random_views_and_queries_agree_with_direct() {
    // Derived (query, view) instances: when a rewriting exists the answer
    // comes from the view; either way it must equal direct evaluation.
    for seed in 0..30u64 {
        let (q, v) = instance_from_seed(seed * 11 + 2, Fragment::Full);
        let doc = tree_from_seed(seed, 40);
        let cache = ShardedViewCache::new(doc);
        cache.add_view("v", v);
        let ans = cache.answer(&q);
        assert_eq!(ans.nodes, cache.answer_direct(&q), "seed {seed}");
    }
}

#[test]
fn materialized_and_virtual_agree_by_value() {
    use xpath_views::engine::answer_value_set;
    for seed in 0..20u64 {
        let (q, v) = instance_from_seed(seed * 17 + 3, Fragment::Full);
        let doc = tree_from_seed(seed ^ 0xF0F0, 40);
        let planner = xpath_views::rewrite::RewritePlanner::without_fallback();
        if let RewriteAnswer::Rewriting(rw) = planner.decide(&q, &v) {
            let view = MaterializedView::materialize("v", v, &doc);
            let virt = view.apply_virtual(rw.pattern(), &doc);
            let mat = view.apply_materialized(rw.pattern(), &doc);
            let mut mat_keys: Vec<String> =
                mat.iter().map(xpath_views::model::Tree::canonical_key).collect();
            mat_keys.sort();
            mat_keys.dedup();
            assert_eq!(answer_value_set(&doc, &virt), mat_keys, "value mismatch for seed {seed}");
        }
    }
}

#[test]
fn cache_view_results_match_definition_semantics() {
    // The materialized node set is exactly evaluate(def, doc).
    let doc = site_doc(3, 5, 1);
    let def = parse_xpath("site//item[bids]").unwrap();
    let view = MaterializedView::materialize("hot", def.clone(), &doc);
    assert_eq!(view.nodes(), evaluate(&def, &doc).as_slice());
    // The on-demand copies are isomorphic to the source subtrees…
    for (n, copy) in view.nodes().iter().zip(view.trees(&doc)) {
        assert_eq!(copy.canonical_key(), doc.canonical_key_at(*n));
    }
    // …and stay so across maintenance: after edit batches through the
    // cache, copies taken from the maintained view equal a fresh
    // materialization of the edited document by canonical key.
    let cache = ShardedViewCache::new(doc.clone());
    cache.add_view("hot", def.clone());
    let edits = edit_stream(&doc, 60, EditMix::default(), 0xC0B1);
    for batch in edit_batches(&edits, 12) {
        cache.apply_edits(&batch).expect("generated streams are valid");
    }
    let after = cache.document();
    let keys = |mv: &MaterializedView| {
        let mut ks: Vec<String> = mv.trees(&after).iter().map(|t| t.canonical_key()).collect();
        ks.sort();
        ks
    };
    let maintained = cache.views_snapshot();
    let fresh = MaterializedView::materialize("fresh", def, &after);
    assert_ne!(fresh.nodes(), view.nodes(), "the stream must move the view");
    assert_eq!(maintained[0].nodes(), fresh.nodes());
    assert_eq!(keys(&maintained[0]), keys(&fresh));
}
