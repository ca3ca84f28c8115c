//! Correctness of incremental view maintenance under document updates.
//!
//! The contract of the engine's `apply_edits` (and of `xpv-maintain` below
//! it) is that incrementality is *invisible* in the state: after any edit
//! stream, every stored answer set equals `evaluate` on the edited document
//! — per view, by node identity *and* by value — and every plan-memo route
//! keeps serving answers byte-identical to direct evaluation with zero
//! re-planning. The engine is checked against the paper's definitions, not
//! against a second maintainer: each batch's region plan against the
//! memberships `evaluate` says moved, each stored set and counter against
//! `evaluate` (the `B`-vector bits are checked against their definition in
//! `tests/eval_flat_properties.rs`). An 8-thread stress case interleaves
//! `apply_edits` with `answer` and checks every observed answer against a
//! serial replay of the same batches (snapshot consistency: no torn
//! document/view pairings).

mod common;

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;
use xpath_views::engine::{
    answer_value_set, Edit, EditError, MaterializedView, Route, ShardedViewCache, UpdateReport,
};
use xpath_views::maintain::{
    apply_edits, coalesce_plan, prepare_batch, FlatSpines, ViewDisposition,
};
use xpath_views::model::FlatTree;
use xpath_views::prelude::*;
use xpath_views::workload::{
    catalog_zipf_stream, edit_batches, edit_stream, edit_stream_clustered, site_catalog, site_doc,
    EditLocality, EditMix, Fragment,
};

use common::{maintenance_batches, maintenance_views, pattern_from_seed, tree_from_seed};

/// Three deterministic view definitions for a seed, in the shared
/// tree/pattern label universe.
fn defs_from_seed(seed: u64) -> Vec<Pattern> {
    (0..3).map(|i| pattern_from_seed(seed.wrapping_add(i * 7919), Fragment::Full)).collect()
}

fn mix_from_seed(seed: u64) -> EditMix {
    match seed % 4 {
        0 => EditMix::default(),
        1 => EditMix::new(1, 0, 0),
        2 => EditMix::new(0, 1, 1),
        _ => EditMix::new(1, 1, 1),
    }
}

/// A cache over `doc` holding `defs` as the views `v0, v1, …`.
fn cache_with(doc: &Tree, defs: &[Pattern]) -> ShardedViewCache {
    let cache = ShardedViewCache::new(doc.clone());
    for (i, def) in defs.iter().enumerate() {
        cache.add_view(&format!("v{i}"), def.clone());
    }
    cache
}

/// `doc` with `edits` applied: the mirror the engine's document must equal.
fn edited(doc: &Tree, edits: &[Edit]) -> Tree {
    let mut t = doc.clone();
    apply_edits(&mut t, edits).expect("generated streams are valid");
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: for random documents, view pools, and edit
    /// streams, the engine's incremental maintenance ≡ full
    /// re-materialization — the document a mirror reaches by applying the
    /// same stream, and every stored set equal to `evaluate` there, by node
    /// id and by value.
    #[test]
    fn incremental_equals_full_rematerialization(
        tseed in any::<u64>(),
        vseed in any::<u64>(),
        eseed in any::<u64>(),
    ) {
        let doc = tree_from_seed(tseed, 32);
        let defs = defs_from_seed(vseed);
        let edits = edit_stream(&doc, 24, mix_from_seed(eseed), eseed);
        let cache = cache_with(&doc, &defs);
        let report = cache.apply_edits(&edits).expect("generated streams are valid");
        prop_assert_eq!(report.maintain.edits_applied, edits.len() as u64);

        let mirror = edited(&doc, &edits);
        let after = cache.document();
        prop_assert_eq!(
            after.canonical_key(), mirror.canonical_key(),
            "the engine and the mirror must hold the same document"
        );
        for (view, def) in cache.views_snapshot().iter().zip(&defs) {
            let full = evaluate(def, &mirror);
            prop_assert_eq!(
                &view.nodes(), &full,
                "incremental diverged from recomputation for view {}", def
            );
            prop_assert_eq!(
                answer_value_set(&after, &view.nodes()),
                answer_value_set(&mirror, &full)
            );
        }
    }

    /// Batch coalescing is invisible in the state: for random documents,
    /// view pools, and edit batches, maintaining the batch whole produces
    /// the same document and the same answer sets (node identity and value
    /// sets) as maintaining it one edit at a time (k one-edit batches
    /// through a second cache), both equal `evaluate` on a mirror, and the
    /// whole batch reports exactly the views whose sets moved as changed.
    #[test]
    fn coalesced_equals_per_edit_and_full(
        tseed in any::<u64>(),
        vseed in any::<u64>(),
        eseed in any::<u64>(),
    ) {
        let doc = tree_from_seed(tseed, 32);
        let defs = defs_from_seed(vseed);
        let edits = edit_stream(&doc, 24, mix_from_seed(eseed), eseed);
        let before: Vec<Vec<NodeId>> = defs.iter().map(|def| evaluate(def, &doc)).collect();

        let whole = cache_with(&doc, &defs);
        let report = whole.apply_edits(&edits).expect("generated streams are valid");
        prop_assert_eq!(report.maintain.edits_applied, edits.len() as u64);
        // A batch can never cost more region scans than its pre-merge root
        // count — coalescing only removes work.
        prop_assert!(report.maintain.regions_scanned <= report.maintain.regions_before_merge);
        let views = whole.views_snapshot();
        let moved = views.iter().zip(&before).filter(|(v, old)| &v.nodes() != *old).count();
        prop_assert_eq!(report.views_changed, moved);

        let per_edit = cache_with(&doc, &defs);
        for edit in &edits {
            per_edit.apply_edits(std::slice::from_ref(edit)).expect("generated streams are valid");
        }
        let mirror = edited(&doc, &edits);
        let (doc_co, doc_pe) = (whole.document(), per_edit.document());
        prop_assert_eq!(doc_co.canonical_key(), doc_pe.canonical_key());
        prop_assert_eq!(doc_co.canonical_key(), mirror.canonical_key());
        for ((co, pe), def) in views.iter().zip(per_edit.views_snapshot().iter()).zip(&defs) {
            prop_assert_eq!(
                &co.nodes(), &evaluate(def, &mirror),
                "coalesced diverged from recomputation for view {}", def
            );
            prop_assert_eq!(co.nodes(), pe.nodes(), "coalesced vs per-edit for view {}", def);
            prop_assert_eq!(
                answer_value_set(&doc_co, &co.nodes()),
                answer_value_set(&doc_pe, &pe.nodes())
            );
        }
    }

    /// §2.4's by-value reading survives coalesced maintenance: subtree
    /// copies computed on demand from the maintained node sets and the
    /// post-batch tree equal a fresh materialization by canonical key.
    #[test]
    fn coalesced_materialized_copies_match_fresh(
        tseed in any::<u64>(),
        vseed in any::<u64>(),
        eseed in any::<u64>(),
    ) {
        copies_match_fresh_after(usize::MAX, tseed, vseed, eseed)?;
    }

    /// The same agreement when the stream is maintained one edit at a time.
    #[test]
    fn materialized_copies_match_fresh_materialization(
        tseed in any::<u64>(),
        vseed in any::<u64>(),
        eseed in any::<u64>(),
    ) {
        copies_match_fresh_after(1, tseed, vseed, eseed)?;
    }
}

/// Maintains three random views through one random edit stream, in batches
/// of at most `chunk` edits, then checks that the on-demand copies of the
/// maintained views (node set replaced, nothing else stored) equal a fresh
/// materialization of the post-stream tree — by node identity and by
/// canonical key.
fn copies_match_fresh_after(
    chunk: usize,
    tseed: u64,
    vseed: u64,
    eseed: u64,
) -> Result<(), TestCaseError> {
    let doc = tree_from_seed(tseed, 28);
    let defs = defs_from_seed(vseed);
    let edits = edit_stream(&doc, 16, mix_from_seed(eseed), eseed);

    let cache = cache_with(&doc, &defs);
    for batch in edits.chunks(chunk) {
        cache.apply_edits(batch).expect("valid stream");
    }
    let after = cache.document();
    let keys = |mv: &MaterializedView| {
        let mut ks: Vec<String> = mv.trees(&after).iter().map(|t| t.canonical_key()).collect();
        ks.sort();
        ks
    };
    for (maintained, def) in cache.views_snapshot().iter().zip(&defs) {
        let fresh = MaterializedView::materialize("fresh", def.clone(), &after);
        prop_assert_eq!(maintained.nodes(), fresh.nodes());
        prop_assert_eq!(
            keys(maintained),
            keys(&fresh),
            "on-demand copies diverged for view {} (batches of {})",
            def,
            chunk
        );
    }
    Ok(())
}

/// Applies `batch` to `cache` and to `mirror`, its document's twin, and
/// checks the stored state against the definition: every stored set is
/// `evaluate(V, t1)`, `views_changed` counts the views with
/// `evaluate(V, t0) != evaluate(V, t1)`, and `answers_added` /
/// `answers_removed` are the two set differences summed over views. Returns
/// the report and each view's `(added, removed)` answer counts.
fn apply_and_check(
    cache: &ShardedViewCache,
    mirror: &mut Tree,
    batch: &[Edit],
) -> (UpdateReport, Vec<(usize, usize)>) {
    let views = cache.views_snapshot();
    let before: Vec<Vec<NodeId>> = views.iter().map(|v| evaluate(v.definition(), mirror)).collect();
    apply_edits(mirror, batch).expect("valid batch");
    let report = cache.apply_edits(batch).expect("valid batch");
    let mut moves = Vec::new();
    for (view, old) in cache.views_snapshot().iter().zip(&before) {
        let new = evaluate(view.definition(), mirror);
        assert_eq!(view.nodes(), new, "stored set of {}", view.definition());
        let added = new.iter().filter(|n| old.binary_search(n).is_err()).count();
        let removed = old.iter().filter(|n| new.binary_search(n).is_err()).count();
        moves.push((added, removed));
    }
    let changed = moves.iter().filter(|&&m| m != (0, 0)).count();
    assert_eq!(report.views_changed, changed, "views_changed");
    let (added, removed) = moves.iter().fold((0, 0), |(a, r), &(x, y)| (a + x, r + y));
    assert_eq!(report.maintain.answers_added, added as u64, "answers_added");
    assert_eq!(report.maintain.answers_removed, removed as u64, "answers_removed");
    (report, moves)
}

/// Plans `batch` over `t0` as the engine does — `prepare_batch` on a copy,
/// `coalesce_plan` over `freeze(t0)` and the snapshot derived from it — and
/// checks each view's disposition against `evaluate` on both sides:
/// * `Clean` ⇒ the answers did not move;
/// * `SpineClean` ⇒ the only change is answers dead in `t1`;
/// * `Regions(roots)` ⇒ the roots are live in `t1`, ascending and pairwise
///   disjoint (none a proper ancestor of another), and every `t1`-live slot
///   whose membership moved lies in some root's subtree.
///
/// Counts the `Clean`, `SpineClean` and `Regions` views into `seen` and
/// returns `t1` with, per view, whether its answers moved.
fn check_plan(
    t0: &Tree,
    batch: &[Edit],
    defs: &[&Pattern],
    seen: &mut [usize; 3],
) -> (Tree, Vec<bool>) {
    let mut t1 = t0.clone();
    let prep = prepare_batch(&mut t1, batch).expect("valid batch");
    let f0 = FlatTree::freeze(t0);
    let f1 = f0.derive(&t1, &prep.touched_slots());
    let (mut s0, mut s1) = (FlatSpines::new(&f0, defs), FlatSpines::new(&f1, defs));
    let plan = coalesce_plan(defs, &prep, &mut s0, &mut s1);
    // `root` is an ancestor-or-self of `n` in `t1`.
    let within = |n: NodeId, root: NodeId| {
        std::iter::successors(Some(n), |&m| t1.parent(m)).any(|m| m == root)
    };
    let mut moved = Vec::new();
    for (def, d) in defs.iter().zip(&plan.dispositions) {
        let (before, after) = (evaluate(def, t0), evaluate(def, &t1));
        match d {
            ViewDisposition::Clean => {
                seen[0] += 1;
                assert_eq!(after, before, "a Clean view moved: {def}");
            }
            ViewDisposition::SpineClean => {
                seen[1] += 1;
                let survivors: Vec<NodeId> =
                    before.iter().copied().filter(|&n| t1.is_alive(n)).collect();
                assert_eq!(after, survivors, "a SpineClean view moved beyond dead answers: {def}");
            }
            ViewDisposition::Regions(roots) => {
                seen[2] += 1;
                assert!(roots.iter().all(|&r| t1.is_alive(r)), "dead root in {roots:?} of {def}");
                assert!(roots.windows(2).all(|w| w[0] < w[1]), "{roots:?} of {def} not ascending");
                for &r in roots {
                    for &s in roots {
                        assert!(
                            r == s || !within(s, r),
                            "{r:?} contains {s:?} among {def}'s roots"
                        );
                    }
                }
                let gone = before.iter().filter(|n| after.binary_search(n).is_err());
                let new = after.iter().filter(|n| before.binary_search(n).is_err());
                for &n in gone.chain(new).filter(|&&n| t1.is_alive(n)) {
                    assert!(
                        roots.iter().any(|&r| within(n, r)),
                        "{n:?} moved outside the regions {roots:?} of {def}"
                    );
                }
            }
            ViewDisposition::Full => panic!("{def} is shallow enough to track"),
        }
        moved.push(before != after);
    }
    (t1, moved)
}

/// An `item` with one `name` child: the smallest graft the `items` /
/// `names` views can see.
fn named_item_graft() -> xpath_views::model::Tree {
    let mut t = xpath_views::model::Tree::new(xpath_views::model::Label::new("item"));
    let root = t.root();
    t.add_child(root, xpath_views::model::Label::new("name"));
    t
}

/// Engine-level: after edits, every cached answer equals direct evaluation,
/// and every route survives — counter-asserted via plan-memo misses and the
/// flat coNP counter.
#[test]
fn surviving_routes_answer_byte_identically_after_edits() {
    let doc = site_doc(10, 10, 7);
    let cache = ShardedViewCache::new(doc.clone());
    for (name, def) in site_catalog().views {
        cache.add_view(name, def);
    }
    let queries: Vec<(&str, Pattern)> = site_catalog().queries;
    for (_, q) in &queries {
        let _ = cache.answer(q); // warm every route
    }

    // Apply the stream in batches. After every batch each query must stay
    // byte-identical to direct evaluation, served by the route memoized
    // before the first edit: no planner miss, no fresh coNP work.
    let misses = cache.stats().plan_memo_misses;
    let runs = cache.session().oracle().stats().canonical_runs;
    let edits = edit_stream(&doc, 120, EditMix::new(1, 0, 0), 0xA11);
    let mut views_changed = 0;
    for batch in edit_batches(&edits, 6) {
        views_changed += cache.apply_edits(&batch).expect("valid batch").views_changed;
        for (name, q) in &queries {
            let ans = cache.answer(q);
            assert_eq!(ans.nodes, cache.answer_direct(q), "query {name} diverged after edits");
        }
    }
    let s = cache.stats();
    assert_eq!(s.updates_applied, 120);
    assert!(views_changed > 0, "some views must have been patched");
    assert_eq!(s.plan_memo_invalidations, 0, "document edits drop no route");
    assert_eq!(s.plan_memo_misses, misses, "post-edit traffic must be all memo hits");
    assert_eq!(cache.session().oracle().stats().canonical_runs, runs);
}

/// Routes are facts about patterns: a memoized view route and a memoized
/// intersection route survive an edit batch that changes the answers of
/// every view they go through, and still equal direct evaluation.
#[test]
fn memoized_routes_survive_an_edit_batch_that_changes_their_views() {
    let cache = ShardedViewCache::new(site_doc(6, 6, 7));
    cache.add_view("categories", parse_xpath("site/categories/category").unwrap());
    cache.add_view("bid_names", parse_xpath("site/region/item[bids]/name").unwrap());
    cache.add_view("ship_names", parse_xpath("site/region/item[shipping]/name").unwrap());
    let via_cats = parse_xpath("site/categories/category/name").unwrap();
    let joint = parse_xpath("site/region/item[bids][shipping]/name").unwrap();
    let cats_route = cache.answer(&via_cats).route;
    let joint_route = cache.answer(&joint).route;
    assert!(matches!(cats_route, Route::ViaView { .. }), "got {cats_route:?}");
    assert!(matches!(joint_route, Route::Intersect { .. }), "got {joint_route:?}");
    let before = cache.stats();

    // One new category and one new item with a name, bids and shipping:
    // all three views gain an answer.
    let snap = cache.document();
    let child_named = |label: &str| {
        snap.children(snap.root())
            .iter()
            .copied()
            .find(|&n| snap.label(n).name() == label)
            .unwrap_or_else(|| panic!("site has {label}"))
    };
    let mut category = Tree::new(Label::new("category"));
    category.add_child(category.root(), Label::new("name"));
    let mut item = named_item_graft();
    for label in ["bids", "shipping"] {
        item.add_child(item.root(), Label::new(label));
    }
    let report = cache
        .apply_edits(&[
            Edit::InsertSubtree { parent: child_named("categories"), subtree: category },
            Edit::InsertSubtree { parent: child_named("region"), subtree: item },
        ])
        .unwrap();
    assert_eq!(report.views_changed, 3, "every participant's answers changed");
    assert_eq!(report.routes_dropped, 0);

    for (q, route) in [(&via_cats, &cats_route), (&joint, &joint_route)] {
        let ans = cache.answer(q);
        assert_eq!(ans.nodes, cache.answer_direct(q), "{q} diverged on the edited document");
        assert_eq!(&ans.route, route, "{q} changed route");
    }
    let after = cache.stats();
    assert_eq!(after.plan_memo_misses, before.plan_memo_misses, "nothing re-planned");
    assert_eq!(after.plan_memo_invalidations, before.plan_memo_invalidations);
    assert_eq!(after.plan_memo_hits, before.plan_memo_hits + 2);
}

/// The pool is shared, not copied: `add_view` / `remove_view` leave every
/// other entry pointer-equal, and after an edit batch confined to one small
/// subtree exactly the views whose answer set changed are re-allocated
/// (sharing is decided on the delta).
#[test]
fn unchanged_views_stay_pointer_equal_across_pool_and_document_changes() {
    let doc = site_doc(8, 8, 7);
    let region = doc
        .children(doc.root())
        .iter()
        .copied()
        .find(|&n| doc.label(n).name() == "region")
        .expect("site has regions");
    let graft = named_item_graft();
    // One new item with a name: `items` and `names` grow; the bid,
    // description and category views cannot see it.
    let batch = [Edit::InsertSubtree { parent: region, subtree: graft }];
    let mut pool = site_catalog().views;
    pool.push(("names", parse_xpath("site/region/item/name").unwrap()));
    pool.push(("categories", parse_xpath("site/categories/category").unwrap()));

    let cache = ShardedViewCache::new(doc);
    for (name, def) in &pool {
        let before = cache.views_snapshot();
        cache.add_view(name, def.clone());
        let after = cache.views_snapshot();
        assert_eq!(after.len(), before.len() + 1);
        for (b, a) in before.iter().zip(after.iter()) {
            assert!(Arc::ptr_eq(b, a), "add_view re-allocated an earlier view");
        }
    }

    let before = cache.views_snapshot();
    let report = cache.apply_edits(&batch).expect("valid batch");
    let after = cache.views_snapshot();
    let doc_after = cache.document();
    let (mut shared, mut changed) = (0, 0);
    for (b, a) in before.iter().zip(after.iter()) {
        let fresh = evaluate(a.definition(), &doc_after);
        assert_eq!(a.nodes(), fresh.as_slice(), "view {} is stale", a.name());
        if b.nodes() == fresh.as_slice() {
            assert!(Arc::ptr_eq(b, a), "unchanged view {} was re-allocated", a.name());
            shared += 1;
        } else {
            assert!(!Arc::ptr_eq(b, a));
            changed += 1;
        }
    }
    assert_eq!((shared, changed), (3, 2), "one subtree's edit spares the unrelated views");
    assert_eq!(report.views_changed, changed);

    let gone = after[0].name().to_string();
    assert!(cache.remove_view(&gone));
    for (b, a) in after.iter().skip(1).zip(cache.views_snapshot().iter()) {
        assert!(Arc::ptr_eq(b, a), "remove_view re-allocated a surviving view");
    }
}

/// The maintainer's unit scenarios, through the engine: per row a fresh
/// cache over a small site document holding the row's views, one batch,
/// and what it must do — each view's `(added, removed)` answer counts and
/// the label-disjoint (view, edit) pairs skipped — besides what
/// [`apply_and_check`] checks of every batch. Then an invalid batch leaves
/// the document and every answer untouched.
#[test]
fn maintainer_scenarios_through_the_engine() {
    let doc = TreeBuilder::root("site", |b| {
        b.child("region", |b| {
            b.child("item", |b| {
                b.leaf("name");
                b.leaf("bids");
            });
            b.child("item", |b| {
                b.leaf("name");
            });
        });
    });
    let region = doc.children(doc.root())[0];
    let (first, second) = (doc.children(region)[0], doc.children(region)[1]);
    let bids = doc.children(first)[1];
    let graft = |label: &str, leaves: &[&str]| {
        TreeBuilder::root(label, |b| {
            for leaf in leaves {
                b.leaf(leaf);
            }
        })
    };
    let insert = |parent, subtree| Edit::InsertSubtree { parent, subtree };
    let relabel = |node, label| Edit::Relabel { node, label: Label::new(label) };
    let (names, bid_names) = ("site/region/item/name", "site/region/item[bids]/name");

    /// What a scenario is, its views, its batch, each view's `(added,
    /// removed)` and the label skips.
    type Row<'a> = (&'a str, Vec<&'a str>, Vec<Edit>, Vec<(usize, usize)>, u64);
    #[rustfmt::skip]
    let rows: Vec<Row> = vec![
        ("an insert extends answers", vec![names, bid_names],
            vec![insert(region, graft("item", &["name", "bids"]))], vec![(1, 0), (1, 0)], 0),
        // Deleting the bids leaf flips `B` at the item, an ancestor.
        ("a delete flips a predicate at an ancestor", vec![bid_names],
            vec![Edit::DeleteSubtree { node: bids }], vec![(0, 1)], 0),
        ("two relabels cancel out", vec![names],
            vec![relabel(second, "lot"), relabel(second, "item")], vec![(0, 0)], 0),
        ("a label-disjoint insert is skipped", vec![names],
            vec![insert(region, graft("comment", &["text"]))], vec![(0, 0)], 1),
        // A copy of the answer would change; the set, all a view stores, not.
        ("an insert inside a surviving answer moves none", vec!["site/region/item"],
            vec![insert(first, graft("shipping", &[]))], vec![(0, 0)], 1),
        ("an insert and a delete in one batch", vec![bid_names, "site//name"],
            vec![insert(region, graft("item", &["name", "bids"])), Edit::DeleteSubtree { node: second }],
            vec![(1, 0), (1, 1)], 0),
    ];
    for (what, views, batch, want, label_skips) in rows {
        let defs: Vec<Pattern> = views.iter().map(|q| parse_xpath(q).unwrap()).collect();
        let cache = cache_with(&doc, &defs);
        let mut mirror = doc.clone();
        let (report, moves) = apply_and_check(&cache, &mut mirror, &batch);
        assert_eq!(moves, want, "{what}");
        assert_eq!(report.maintain.label_skips, label_skips, "{what}");
    }

    let cache = cache_with(&doc, &[parse_xpath(names).unwrap()]);
    let before = cache.views_snapshot();
    let err = cache
        .apply_edits(&[
            insert(region, graft("item", &["name", "bids"])),
            Edit::DeleteSubtree { node: NodeId(9999) },
        ])
        .unwrap_err();
    assert!(matches!(err, EditError::NotLive { edit_index: 1, .. }));
    assert_eq!(cache.document().canonical_key(), doc.canonical_key());
    assert_eq!(cache.doc_version(), 0);
    assert!(Arc::ptr_eq(&before, &cache.views_snapshot()), "the pool was replaced");
    assert_eq!(before[0].nodes(), evaluate(before[0].definition(), &doc));
}

/// (b) Region soundness, against the definition ([`check_plan`]): for
/// every batch of seeded streams over random documents and views — random,
/// bursty, a nested graft, labels absent on either side — and then over a
/// site document for views whose spine label or branch label is absent
/// before a batch inserts it (by a graft or a relabel) and after a batch
/// deletes or relabels away its last carrier. Every disposition occurs,
/// and every absent label moves its views.
#[test]
fn region_plans_are_sound_against_evaluate() {
    let mut seen = [0usize; 3];
    for seed in 0..24u64 {
        let mut t = tree_from_seed(seed, 40);
        let views = maintenance_views(seed);
        let defs: Vec<&Pattern> = views.iter().collect();
        for batch in maintenance_batches(&t, seed) {
            t = check_plan(&t, &batch, &defs, &mut seen).0;
        }
    }

    let doc = site_doc(4, 4, 7);
    let views: Vec<Pattern> = [
        "site/region/lot/name",          // spine label
        "site/*/lot[name]",              // …under a wildcard: every edit reaches it
        "site/region[promo]/item/name",  // branch label
        "site/region[.//promo]//name",   // …below a `//` edge
        "site/categories/category/name", // spine label, relabeled away and back
        "site[categories]/region/item",  // …the same label in a root branch
        "site/region/item[bids]/name",   // present throughout
    ]
    .iter()
    .map(|q| parse_xpath(q).unwrap())
    .collect();
    let defs: Vec<&Pattern> = views.iter().collect();
    let child = |t: &Tree, parent: NodeId, label: &str| {
        t.children(parent).iter().copied().find(|&n| t.label(n).name() == label).unwrap()
    };
    let (site, categories) = (doc.root(), child(&doc, doc.root(), "categories"));
    let region = child(&doc, site, "region");
    let lot = TreeBuilder::root("lot", |b| {
        b.leaf("name");
    });
    let mut changed = vec![false; defs.len()];
    let mut step = |t: &Tree, batch: Vec<Edit>| {
        let (t1, moved) = check_plan(t, &batch, &defs, &mut seen);
        changed.iter_mut().zip(moved).for_each(|(c, m)| *c |= m);
        t1
    };
    let t = step(
        &doc,
        vec![
            Edit::InsertSubtree { parent: region, subtree: lot },
            Edit::InsertSubtree { parent: region, subtree: TreeBuilder::root("promo", |_| {}) },
        ],
    );
    // The reverse: the batch deletes the last carriers again.
    let gone = t.children(region).iter().copied();
    let gone = gone.filter(|&n| ["lot", "promo"].contains(&t.label(n).name()));
    let t = step(&t, gone.map(|node| Edit::DeleteSubtree { node }).collect());
    let t = step(&t, vec![Edit::Relabel { node: categories, label: Label::new("cats") }]);
    step(&t, vec![Edit::Relabel { node: categories, label: Label::new("categories") }]);
    assert_eq!(changed, [true, true, true, true, true, true, false], "every absent label mattered");
    assert!(seen.iter().all(|&n| n > 0), "Clean, SpineClean and Regions all planned: {seen:?}");
}

/// (c) Stored state, against the definition, after every
/// `ShardedViewCache::apply_edits` ([`apply_and_check`]): through seeded
/// streams over random documents and views — random, bursty, a nested
/// graft, labels absent on either side — then over the site catalog plus
/// two views over labels the document lacks (`lot` on the spine under a
/// wildcard, `promo` in a branch), through a bursty clustered stream, a
/// batch that inserts the only carriers of those labels and one that
/// deletes them again. On the site document every probe query also
/// answers like direct evaluation after each batch, over the routes it
/// memoized before the first.
#[test]
fn stored_sets_and_counters_match_evaluate_after_every_batch() {
    for seed in 0..16u64 {
        let doc = tree_from_seed(seed, 40);
        let cache = cache_with(&doc, &maintenance_views(seed));
        let mut mirror = doc.clone();
        for batch in maintenance_batches(&doc, seed) {
            apply_and_check(&cache, &mut mirror, &batch);
        }
        assert_eq!(cache.document().canonical_key(), mirror.canonical_key());
    }

    let doc = site_doc(10, 10, 7);
    let catalog = site_catalog();
    let probes: Vec<Pattern> = catalog_zipf_stream(&catalog, 24, 0xFA17).into_iter().collect();
    let mut pool = catalog.views.clone();
    pool.push(("lots", parse_xpath("site/*/lot/name").unwrap()));
    pool.push(("promoted", parse_xpath("site/region[promo]/item/name").unwrap()));
    let cache = ShardedViewCache::new(doc.clone());
    for (name, def) in pool.iter() {
        cache.add_view(name, def.clone());
    }
    for q in &probes {
        let _ = cache.answer(q); // warm the memo
    }
    let mut mirror = doc.clone();
    let mut step = |batch: &[Edit]| {
        let (_, moves) = apply_and_check(&cache, &mut mirror, batch);
        for q in &probes {
            let got = cache.answer(q).nodes;
            assert_eq!(got, cache.answer_direct(q), "cache wrong on {q}");
            assert_eq!(got, evaluate(q, &mirror), "cache and mirror documents diverged on {q}");
        }
        moves
    };

    // A bursty clustered stream — many edits under few hot subtrees — is
    // exactly the regime that gives one view several regions per batch.
    let edits =
        edit_stream_clustered(&doc, 160, EditMix::default(), EditLocality::new(4, 90), 0x5EED);
    let batches = edit_batches(&edits, 8);
    for batch in &batches {
        step(batch);
    }
    // The new labels' only carriers arrive, and go again.
    let region = doc.children(doc.root())[1];
    assert_eq!(doc.label(region).name(), "region");
    let lot = TreeBuilder::root("lot", |b| {
        b.leaf("name");
    });
    let promo = TreeBuilder::root("promo", |_| {});
    let gained = step(&[
        Edit::InsertSubtree { parent: region, subtree: lot },
        Edit::InsertSubtree { parent: region, subtree: promo },
    ]);
    assert!(gained[pool.len() - 2..].iter().all(|&(added, _)| added > 0), "{gained:?}");
    let now = cache.document();
    let carriers = now.children(region).iter().filter(|&&n| now.label(n).name() != "item");
    let batch: Vec<Edit> = carriers.map(|&node| Edit::DeleteSubtree { node }).collect();
    assert_eq!(batch.len(), 2);
    let lost = step(&batch);
    assert!(lost[pool.len() - 2..].iter().all(|&(_, removed)| removed > 0), "{lost:?}");
    assert!(
        cache.stats().maintain.regions_scanned > (batches.len() * catalog.views.len()) as u64,
        "bursty stream never gave a view two regions in one batch"
    );
}

/// 8-thread stress: one updater applies edit batches while 7 readers
/// answer concurrently. Every observed answer must equal the answer of
/// *some* serial-replay version (snapshot consistency — a torn
/// document/view pairing would produce an answer matching no version), and
/// the final state must match the last version exactly.
#[test]
fn concurrent_updates_and_answers_match_serial_replay() {
    const READERS: usize = 7;
    let doc = site_doc(8, 8, 7);
    let catalog = site_catalog();
    let probes: Vec<Pattern> =
        catalog_zipf_stream(&catalog, 24, 0xF00D).into_iter().collect::<Vec<_>>();
    let edits = edit_stream(&doc, 80, EditMix::default(), 0xBEEF);
    let batches = edit_batches(&edits, 8);

    // Serial replay: per probe query, the answer set at every version.
    let replay = ShardedViewCache::new(doc.clone());
    for (name, def) in catalog.views.iter() {
        replay.add_view(name, def.clone());
    }
    let mut versions: Vec<Vec<Vec<NodeId>>> = Vec::with_capacity(batches.len() + 1);
    versions.push(probes.iter().map(|q| replay.answer_direct(q)).collect());
    for batch in &batches {
        replay.apply_edits(batch).expect("valid batch");
        versions.push(probes.iter().map(|q| replay.answer_direct(q)).collect());
    }
    let admissible: Vec<HashSet<Vec<NodeId>>> =
        (0..probes.len()).map(|qi| versions.iter().map(|v| v[qi].clone()).collect()).collect();

    // Concurrent run.
    let cache = Arc::new(ShardedViewCache::new(doc));
    for (name, def) in catalog.views.iter() {
        cache.add_view(name, def.clone());
    }
    std::thread::scope(|scope| {
        let updater = {
            let cache = Arc::clone(&cache);
            let batches = batches.clone();
            scope.spawn(move || {
                for batch in &batches {
                    cache.apply_edits(batch).expect("valid batch");
                }
            })
        };
        for r in 0..READERS {
            let cache = Arc::clone(&cache);
            let probes = &probes;
            let admissible = &admissible;
            scope.spawn(move || {
                for round in 0..12 {
                    for (qi, q) in probes.iter().enumerate() {
                        let ans = cache.answer(q);
                        assert!(
                            admissible[qi].contains(&ans.nodes),
                            "reader {r} round {round}: answer for {q} matches no \
                             serial-replay version (torn snapshot?)"
                        );
                    }
                }
            });
        }
        updater.join().expect("updater thread");
    });

    // Quiesced: the final state equals the last serial version.
    let last = versions.last().expect("at least one version");
    for (qi, q) in probes.iter().enumerate() {
        assert_eq!(&cache.answer(q).nodes, &last[qi], "final state diverged for {q}");
        assert_eq!(cache.answer(q).nodes, cache.answer_direct(q));
    }
    assert_eq!(cache.doc_version(), batches.len() as u64);
}

/// Document depth must never become call-stack depth. A 200 000-deep chain
/// is frozen, masked from the root (the traversal behind every region scan)
/// and edited near the root through the engine, on this test's own thread:
/// the test harness gives it the 2 MiB stack a server worker has, where one
/// frame per level overflowed at a fraction of this depth.
#[test]
fn deep_chain_document_survives_mask_and_edit_batch() {
    use xpath_views::model::{FlatTree, Label, Tree};
    const DEPTH: usize = 200_000;

    let mut doc = Tree::new(Label::new("a"));
    let mut tip = doc.root();
    let mut near_root = tip;
    for level in 1..DEPTH {
        tip = doc.add_child(tip, Label::new(if level % 2 == 0 { "a" } else { "b" }));
        if level == 3 {
            near_root = tip;
        }
    }
    let flat = FlatTree::freeze(&doc);
    assert_eq!(flat.subtree_mask(0).count(), DEPTH);
    let mut seen = 0usize;
    doc.for_each_descendant(doc.root(), |_| seen += 1);
    assert_eq!(seen, DEPTH);
    drop(flat);

    let cache = ShardedViewCache::new(doc);
    cache.add_view("bs", parse_xpath("a//b").unwrap());
    cache.add_view("leafy", parse_xpath("a//b[c]").unwrap());
    let graft = TreeBuilder::root("c", |_| {});
    let report = cache
        .apply_edits(&[
            Edit::InsertSubtree { parent: near_root, subtree: graft },
            Edit::Relabel { node: NodeId(2), label: Label::new("b") },
        ])
        .expect("edits near the root apply");
    assert_eq!(report.edits_applied, 2);
    let views = cache.views_snapshot();
    assert_eq!(views[0].nodes().len(), DEPTH / 2 + 1, "a//b gained the relabelled node");
    assert_eq!(views[1].nodes(), &[near_root], "the graft made one b a parent of c");
    assert_eq!(cache.answer(&parse_xpath("a//b[c]").unwrap()).nodes, vec![near_root]);
}

/// The same for a descendant-axis branch: `coalesce_plan` checks `[.//z]`
/// at every spine node of every batch, and one frame per level under that
/// branch overflowed the stack on the first small edit — after `add_view`
/// (the flat evaluator) had accepted the view.
#[test]
fn deep_chain_document_survives_a_descendant_branch_view() {
    use xpath_views::model::{Label, Tree};
    const DEPTH: usize = 200_000;

    let mut doc = Tree::new(Label::new("a"));
    let mut tip = doc.root();
    for level in 1..DEPTH {
        tip = doc.add_child(tip, Label::new(if level % 2 == 0 { "a" } else { "b" }));
    }
    let cache = ShardedViewCache::new(doc);
    assert_eq!(cache.add_view("below_z", parse_xpath("a[.//z]//b").unwrap()), 0);
    let graft = TreeBuilder::root("z", |_| {});
    let report = cache
        .apply_edits(&[Edit::InsertSubtree { parent: NodeId(3), subtree: graft }])
        .expect("a small edit near the root applies");
    assert_eq!(report.views_changed, 1);
    let views = cache.views_snapshot();
    assert_eq!(views[0].nodes().len(), DEPTH / 2, "every b is below the root");
    assert_eq!(views[0].nodes(), evaluate(views[0].definition(), &cache.document()));
}

/// A peer's frame must never become call-stack depth either. An insert
/// subtree nested 200 000 deep is 1.4 MB of XML, far below `MAX_FRAME`; one
/// frame per level in the XML reader overflowed the 2 MiB stack of whichever
/// thread decoded it and aborted the process, every tenant with it. Here the
/// frame is encoded, decoded, applied through the engine and serialized
/// back, on this test's own (default-sized) stack.
#[test]
fn deep_xml_insert_survives_the_wire_and_an_edit_batch() {
    use xpath_views::model::{Label, Tree};
    use xpath_views::net::{Msg, MAX_FRAME};
    const DEPTH: usize = 200_000;

    let mut graft = Tree::new(Label::new("c"));
    let mut tip = graft.root();
    for level in 1..DEPTH {
        tip = graft.add_child(tip, Label::new(if level % 2 == 0 { "c" } else { "b" }));
    }
    let batch = Msg::EditBatch {
        id: 1,
        tenant: "writer".into(),
        edits: vec![Edit::InsertSubtree { parent: NodeId(1), subtree: graft }],
    };
    let frame = batch.encode();
    assert!(frame.len() > DEPTH * 6 && frame.len() < MAX_FRAME / 4);
    let Msg::EditBatch { edits, .. } = Msg::decode(&frame).expect("a deep subtree decodes") else {
        panic!("an edit batch decodes to an edit batch");
    };
    // The hostile variants of the same frame are errors, not crashes.
    assert!(parse_xml(&"<a>".repeat(DEPTH)).unwrap_err().message.contains("end of input"));
    let crossed = format!("{}{}", "<a>".repeat(DEPTH), "</b>");
    assert!(parse_xml(&crossed).unwrap_err().message.contains("mismatched"));

    let cache = ShardedViewCache::new(TreeBuilder::root("a", |b| {
        b.leaf("b");
    }));
    cache.add_view("bs", parse_xpath("a//b").unwrap());
    cache.add_view("leafy", parse_xpath("a//b[c]").unwrap());
    let report = cache.apply_edits(&edits).expect("the decoded batch applies");
    assert_eq!(report.edits_applied, 1);
    assert_eq!(report.views_changed, 2);
    let doc = cache.document();
    assert_eq!(doc.len(), DEPTH + 2);
    let views = cache.views_snapshot();
    assert_eq!(views[0].nodes().len(), 1 + DEPTH / 2, "every b of the chain is below a");
    // `b[c]`: the old leaf (its child is the graft's root) and every b of
    // the chain but the last node, which has no child.
    assert_eq!(views[1].nodes().len(), DEPTH / 2);

    // Out again: serialized, re-read, and compared by canonical key — each
    // of them one pass over the chain.
    let xml = to_xml(&doc);
    assert_eq!(xml.len(), (DEPTH + 1) * "<a></a>".len() + "<b/>".len());
    let back = parse_xml(&xml).expect("the serialized document re-reads");
    assert_eq!(back.len(), doc.len());
    assert_eq!(back.canonical_key(), doc.canonical_key());
    assert_eq!(doc.canonical_key().len(), (DEPTH + 2) * 3);
}
