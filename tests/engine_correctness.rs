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

/// One [`AnswerArena`] serves every batch while edit batches grow the
/// document's arena: sets recycled from a batch before an edit have a
/// stale width, and must be dropped, not reused. Every answer still equals
/// direct evaluation, and the spare list stays within its bound though a
/// batch stores more sets than it keeps.
#[test]
fn one_answer_arena_serves_batches_across_edits_that_grow_the_arena() {
    use std::collections::HashSet;
    use xpath_views::model::arena::MAX_SPARE_SETS;
    use xpath_views::model::AnswerArena;

    let doc = tree_from_seed(0xA4E, 300);
    let cache = ShardedViewCache::new(doc.clone());
    for seed in 0..6 {
        cache.add_view(&format!("v{seed}"), instance_from_seed(seed * 5 + 1, Fragment::Full).1);
    }
    let queries: Vec<Pattern> = (0..MAX_SPARE_SETS as u64 + 40)
        .map(|s| instance_from_seed(s * 7 + 4, Fragment::Full).0)
        .collect();
    let edits = edit_stream(&doc, 80, EditMix::new(3, 1, 1), 0xA4E);
    let mut arena = AnswerArena::new();
    let mut widths = vec![doc.arena_len()];
    for batch in edit_batches(&edits, 16) {
        // Twice per document version: the second batch runs on spares of
        // the current width, the first on spares of the last version's.
        for _ in 0..2 {
            let answers = cache.answer_batch_refs(&queries, &mut arena);
            for (a, q) in answers.iter().zip(&queries) {
                let want = cache.answer_direct(q);
                assert_eq!(arena.get(a.nodes), want.as_slice(), "{q} at width {widths:?}");
                assert_eq!(a.nodes.len(), want.len());
            }
            let stored: HashSet<_> = answers.iter().map(|a| a.nodes).collect();
            assert!(stored.len() > MAX_SPARE_SETS, "{} sets stored", stored.len());
            assert!(arena.spare_count() <= MAX_SPARE_SETS);
        }
        cache.apply_edits(&batch).expect("generated streams are valid");
        widths.push(cache.document().arena_len());
    }
    assert!(widths.windows(2).filter(|w| w[1] > w[0]).count() >= 3, "widths {widths:?}");
    arena.clear();
    assert!(arena.spare_count() > 0 && arena.spare_count() <= MAX_SPARE_SETS);
}
