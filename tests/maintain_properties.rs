//! Correctness of incremental view maintenance under document updates.
//!
//! The contract of `xpv-maintain` (and the engine's `apply_edits` above it)
//! is that incrementality is *invisible* in the state: after any edit
//! stream, incrementally patched answer sets equal a from-scratch
//! re-materialization — per view, by node identity *and* by value — and
//! every plan-memo route keeps serving answers byte-identical to direct
//! evaluation with zero re-planning. An 8-thread stress case
//! interleaves `apply_edits` with `answer` and checks every observed answer
//! against a serial replay of the same batches (snapshot consistency: no
//! torn document/view pairings).

mod common;

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xpath_views::engine::{answer_value_set, Edit, MaterializedView, Route, ShardedViewCache};
use xpath_views::maintain::{maintain_views, MaintainMode, ViewDelta};
use xpath_views::model::BitSet;
use xpath_views::prelude::*;
use xpath_views::workload::{
    catalog_zipf_stream, edit_batches, edit_stream, edit_stream_clustered, site_catalog, site_doc,
    EditLocality, EditMix, Fragment,
};

use common::{pattern_from_seed, tree_from_seed};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: for random documents, view pools, and edit
    /// streams, incremental maintenance ≡ full re-materialization — same
    /// final document, same answer sets (by node id), same value sets.
    #[test]
    fn incremental_equals_full_rematerialization(
        tseed in any::<u64>(),
        vseed in any::<u64>(),
        eseed in any::<u64>(),
    ) {
        let doc = tree_from_seed(tseed, 32);
        let defs = defs_from_seed(vseed);
        let def_refs: Vec<&Pattern> = defs.iter().collect();
        let edits = edit_stream(&doc, 24, mix_from_seed(eseed), eseed);

        let mut doc_inc = doc.clone();
        let mut ans_inc: Vec<Vec<NodeId>> =
            defs.iter().map(|d| evaluate(d, &doc_inc)).collect();
        let (deltas, stats) = maintain_views(
            &mut doc_inc, &def_refs, &mut ans_inc, &edits, MaintainMode::Coalesced,
        ).expect("generated streams are valid");
        prop_assert_eq!(stats.edits_applied, edits.len() as u64);

        let mut doc_full = doc.clone();
        let mut ans_full: Vec<Vec<NodeId>> =
            defs.iter().map(|d| evaluate(d, &doc_full)).collect();
        maintain_views(
            &mut doc_full, &def_refs, &mut ans_full, &edits, MaintainMode::FullRecompute,
        ).expect("same stream is valid");

        prop_assert_eq!(
            doc_inc.canonical_key(), doc_full.canonical_key(),
            "both modes must produce the same document"
        );
        for (i, def) in defs.iter().enumerate() {
            // Node-identity equality against a fresh evaluation…
            prop_assert_eq!(
                &ans_inc[i], &evaluate(def, &doc_inc),
                "incremental diverged from recomputation for view {}", def
            );
            prop_assert_eq!(&ans_inc[i], &ans_full[i], "modes disagree for view {}", def);
            // …and value equality of the answer sets.
            prop_assert_eq!(
                answer_value_set(&doc_inc, &ans_inc[i]),
                answer_value_set(&doc_full, &ans_full[i])
            );
            // The deltas must reconcile the old set into the new one.
            let d = &deltas[i];
            for n in &d.added {
                prop_assert!(ans_inc[i].binary_search(n).is_ok());
            }
            for n in &d.removed {
                prop_assert!(ans_inc[i].binary_search(n).is_err());
            }
        }
    }

    /// Batch coalescing is invisible in the state: for random documents,
    /// view pools, and edit batches, maintaining the batch whole produces
    /// the same document, the same answer sets (node identity and value
    /// sets) and the same net deltas as maintaining it one edit at a time
    /// (k one-edit batches through the same pipeline), and both equal full
    /// re-materialization and direct evaluation.
    #[test]
    fn coalesced_equals_per_edit_and_full(
        tseed in any::<u64>(),
        vseed in any::<u64>(),
        eseed in any::<u64>(),
    ) {
        let doc = tree_from_seed(tseed, 32);
        let defs = defs_from_seed(vseed);
        let def_refs: Vec<&Pattern> = defs.iter().collect();
        let edits = edit_stream(&doc, 24, mix_from_seed(eseed), eseed);
        let before: Vec<Vec<NodeId>> = defs.iter().map(|def| evaluate(def, &doc)).collect();

        let run = |mode: MaintainMode, chunk: usize| {
            let mut d = doc.clone();
            let mut ans = before.clone();
            let mut last = None;
            for batch in edits.chunks(chunk) {
                last = Some(
                    maintain_views(&mut d, &def_refs, &mut ans, batch, mode)
                        .expect("generated streams are valid"),
                );
            }
            (d, ans, last)
        };
        let (doc_co, ans_co, whole) = run(MaintainMode::Coalesced, edits.len().max(1));
        let (doc_pe, ans_pe, _) = run(MaintainMode::Coalesced, 1);
        let (doc_fu, ans_fu, _) = run(MaintainMode::FullRecompute, edits.len().max(1));

        if let Some((deltas_co, stats_co)) = &whole {
            prop_assert_eq!(stats_co.edits_applied, edits.len() as u64);
            // A batch can never cost more region scans than its pre-merge
            // root count — coalescing only removes work.
            prop_assert!(stats_co.regions_scanned <= stats_co.regions_before_merge);
            // The whole batch's delta is the net change, however many
            // one-edit steps it took to get there.
            for (i, delta) in deltas_co.iter().enumerate() {
                prop_assert_eq!(delta, &ViewDelta::between(&before[i], &ans_pe[i]));
            }
        }
        prop_assert_eq!(doc_co.canonical_key(), doc_pe.canonical_key());
        prop_assert_eq!(doc_co.canonical_key(), doc_fu.canonical_key());
        for (i, def) in defs.iter().enumerate() {
            prop_assert_eq!(
                &ans_co[i], &evaluate(def, &doc_co),
                "coalesced diverged from recomputation for view {}", def
            );
            prop_assert_eq!(&ans_co[i], &ans_pe[i], "coalesced vs per-edit for view {}", def);
            prop_assert_eq!(&ans_co[i], &ans_fu[i], "coalesced vs full for view {}", def);
            prop_assert_eq!(
                answer_value_set(&doc_co, &ans_co[i]),
                answer_value_set(&doc_pe, &ans_pe[i])
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

    /// The merge diff is the set-difference definition: for random
    /// ascending `old`/`new` sets, `removed = old ∖ new` and `added = new ∖
    /// old`, both ascending — including empty, disjoint and identical
    /// inputs (forced below, since random draws rarely hit them).
    #[test]
    fn merge_diff_equals_set_difference(
        seed in any::<u64>(),
        shape in any::<u8>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draw = |max_len: usize, universe: usize| {
            let n = rng.gen_range(0..max_len + 1);
            let set: BTreeSet<u32> = (0..n).map(|_| rng.gen_range(0..universe) as u32).collect();
            set.into_iter().map(NodeId).collect::<Vec<NodeId>>()
        };
        let (old, new) = match shape % 6 {
            0 => (Vec::new(), draw(24, 64)),
            1 => (draw(24, 64), Vec::new()),
            2 => { let a = draw(24, 64); (a.clone(), a) }
            3 => {
                // Disjoint: evens against odds.
                let a: Vec<NodeId> = draw(24, 64).into_iter().map(|n| NodeId(n.0 * 2)).collect();
                let b: Vec<NodeId> =
                    draw(24, 64).into_iter().map(|n| NodeId(n.0 * 2 + 1)).collect();
                (a, b)
            }
            // Overlapping, dense and sparse.
            4 => (draw(40, 48), draw(40, 48)),
            _ => (draw(24, 4096), draw(24, 4096)),
        };
        let delta = ViewDelta::between(&old, &new);
        let (o, n): (BTreeSet<NodeId>, BTreeSet<NodeId>) =
            (old.iter().copied().collect(), new.iter().copied().collect());
        prop_assert_eq!(&delta.removed, &o.difference(&n).copied().collect::<Vec<_>>());
        prop_assert_eq!(&delta.added, &n.difference(&o).copied().collect::<Vec<_>>());
        prop_assert_eq!(delta.is_empty(), old == new);
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
    let def_refs: Vec<&Pattern> = defs.iter().collect();
    let edits = edit_stream(&doc, 16, mix_from_seed(eseed), eseed);

    let views: Vec<MaterializedView> = defs
        .iter()
        .enumerate()
        .map(|(i, d)| MaterializedView::materialize(format!("v{i}"), d.clone(), &doc))
        .collect();
    let mut after = doc.clone();
    let mut answers: Vec<Vec<NodeId>> = views.iter().map(|v| v.nodes()).collect();
    for batch in edits.chunks(chunk) {
        maintain_views(&mut after, &def_refs, &mut answers, batch, MaintainMode::Coalesced)
            .expect("valid stream");
    }
    let keys = |mv: &MaterializedView| {
        let mut ks: Vec<String> = mv.trees(&after).iter().map(|t| t.canonical_key()).collect();
        ks.sort();
        ks
    };
    for ((view, ans), def) in views.iter().zip(answers).zip(&defs) {
        let maintained =
            view.with_set(BitSet::from_indices(after.arena_len(), ans.iter().map(|n| n.index())));
        let fresh = MaterializedView::materialize("fresh", def.clone(), &after);
        prop_assert_eq!(maintained.nodes(), fresh.nodes());
        prop_assert_eq!(
            keys(&maintained),
            keys(&fresh),
            "on-demand copies diverged for view {} (batches of {})",
            def,
            chunk
        );
    }
    Ok(())
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
    for batch in edit_batches(&edits, 6) {
        cache.apply_edits(&batch).expect("valid batch");
        for (name, q) in &queries {
            let ans = cache.answer(q);
            assert_eq!(ans.nodes, cache.answer_direct(q), "query {name} diverged after edits");
        }
    }
    let s = cache.stats();
    assert_eq!(s.updates_applied, 120);
    assert!(s.views_refreshed_incrementally > 0, "some views must have been patched");
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

/// The engine's region scan over the post-batch snapshot (one
/// `RegionScanner` per view and batch) is pinned to the `Tree` oracle:
/// through a bursty clustered stream, then a batch that inserts the only
/// carriers of two labels the document lacked and one that deletes them
/// again, the cache and `maintain_views(.., Coalesced)` on a mirrored `Tree`
/// scan the same regions and report the same counts per batch, every view's
/// stored answer set equals the mirror's, and every probe answer equals
/// direct evaluation.
#[test]
fn flat_region_refresh_matches_tree_path() {
    let doc = site_doc(10, 10, 7);
    let catalog = site_catalog();
    let probes: Vec<Pattern> = catalog_zipf_stream(&catalog, 24, 0xFA17).into_iter().collect();

    // Beside the catalog, two views over labels absent from the document:
    // `lot` on the spine (under a wildcard, so every edit reaches it) and
    // `promo` in a branch.
    let mut pool = catalog.views.clone();
    pool.push(("lots", parse_xpath("site/*/lot/name").unwrap()));
    pool.push(("promoted", parse_xpath("site/region[promo]/item/name").unwrap()));
    let flat = ShardedViewCache::new(doc.clone());
    let defs: Vec<&Pattern> = pool.iter().map(|(_, def)| def).collect();
    let mut mirror = doc.clone();
    let mut mirror_answers: Vec<Vec<NodeId>> = defs.iter().map(|d| evaluate(d, &mirror)).collect();
    for (name, def) in pool.iter() {
        flat.add_view(name, def.clone());
        let _ = flat.answer(def);
    }
    for q in &probes {
        let _ = flat.answer(q); // warm the memo
    }

    // One batch through both, checked; returns the oracle's deltas.
    let mut step = |batch: &[Edit]| {
        let (deltas, oracle) =
            maintain_views(&mut mirror, &defs, &mut mirror_answers, batch, MaintainMode::Coalesced)
                .expect("valid batch");
        let report = flat.apply_edits(batch).expect("valid batch");
        assert_eq!(report.views_changed, deltas.iter().filter(|d| !d.is_empty()).count());
        assert_eq!(report.maintain.regions_scanned, oracle.regions_scanned);
        assert_eq!(report.maintain.region_nodes, oracle.region_nodes);
        assert_eq!(report.maintain.answers_added, oracle.answers_added);
        assert_eq!(report.maintain.answers_removed, oracle.answers_removed);
        for (view, want) in flat.views_snapshot().iter().zip(&mirror_answers) {
            assert_eq!(view.nodes(), want.as_slice(), "flat-scan view {} diverged", view.name());
        }
        for q in &probes {
            let got = flat.answer(q).nodes;
            assert_eq!(got, flat.answer_direct(q), "cache wrong on {q}");
            assert_eq!(got, evaluate(q, &mirror), "cache and mirror documents diverged on {q}");
        }
        deltas
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
    assert!(gained[pool.len() - 2..].iter().all(|d| !d.added.is_empty()), "{gained:?}");
    let now = flat.document();
    let carriers = now.children(region).iter().filter(|&&n| now.label(n).name() != "item");
    let batch: Vec<Edit> = carriers.map(|&node| Edit::DeleteSubtree { node }).collect();
    assert_eq!(batch.len(), 2);
    let lost = step(&batch);
    assert!(lost[pool.len() - 2..].iter().all(|d| !d.removed.is_empty()), "{lost:?}");
    assert!(
        flat.stats().maintain.regions_scanned > (batches.len() * catalog.views.len()) as u64,
        "bursty stream never gave a view two regions in one batch"
    );
}

/// `B`-vectors are exact per position on the engine's snapshots: for views
/// whose spine label, or whose branch label, is absent from the document
/// before a batch inserts it (by a graft or a relabel) — and after a batch
/// deletes or relabels away its last carrier — the plan over the two
/// snapshots (`FlatSpines`) has the `Tree` oracle's dispositions, regions
/// and counters, the engine scans what `maintain_views` scans, and every
/// stored set equals direct evaluation.
#[test]
fn labels_absent_on_either_side_of_a_batch_plan_like_the_tree_oracle() {
    use xpath_views::maintain::ViewDisposition;
    use xpath_views::maintain::{coalesce_plan, prepare_batch, FlatSpines, TreeSpines};
    use xpath_views::model::FlatTree;

    let doc = site_doc(4, 4, 7);
    let defs: Vec<Pattern> = [
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
    let defs: Vec<&Pattern> = defs.iter().collect();
    let cache = ShardedViewCache::new(doc.clone());
    for (i, def) in defs.iter().enumerate() {
        cache.add_view(&format!("v{i}"), (*def).clone());
    }
    let mut mirror = doc.clone();
    let mut answers: Vec<Vec<NodeId>> = defs.iter().map(|d| evaluate(d, &mirror)).collect();

    let child = |t: &Tree, parent: NodeId, label: &str| {
        t.children(parent).iter().copied().find(|&n| t.label(n).name() == label).unwrap()
    };
    let (site, categories) = (doc.root(), child(&doc, doc.root(), "categories"));
    let region = child(&doc, site, "region");
    let lot = TreeBuilder::root("lot", |b| {
        b.leaf("name");
    });
    let mut batches = vec![
        vec![
            Edit::InsertSubtree { parent: region, subtree: lot },
            Edit::InsertSubtree { parent: region, subtree: TreeBuilder::root("promo", |_| {}) },
        ],
        vec![Edit::Relabel { node: categories, label: Label::new("cats") }],
        vec![Edit::Relabel { node: categories, label: Label::new("categories") }],
    ];
    let mut changed = vec![false; defs.len()];
    let mut b = 0;
    while b < batches.len() {
        let batch = batches[b].clone();
        let t0 = mirror.clone();
        let mut t1 = t0.clone();
        let prep = prepare_batch(&mut t1, &batch).expect("valid batch");
        let f0 = FlatTree::freeze(&t0);
        let f1 = f0.derive(&t1, &prep.touched_slots());
        let flat = coalesce_plan(
            &defs,
            &prep,
            &mut FlatSpines::new(&f0, &defs),
            &mut FlatSpines::new(&f1, &defs),
        );
        let tree = coalesce_plan(
            &defs,
            &prep,
            &mut TreeSpines::new(&t0, &defs),
            &mut TreeSpines::new(&t1, &defs),
        );
        assert_eq!(flat.dispositions, tree.dispositions, "batch {b}");
        assert_eq!(flat.stats, tree.stats, "batch {b}");
        assert!(flat.dispositions.iter().any(|d| matches!(d, ViewDisposition::Regions(_))));

        let (deltas, oracle) =
            maintain_views(&mut mirror, &defs, &mut answers, &batch, MaintainMode::Coalesced)
                .expect("valid batch");
        let report = cache.apply_edits(&batch).expect("valid batch");
        assert_eq!(report.maintain.regions_scanned, oracle.regions_scanned, "batch {b}");
        assert_eq!(report.maintain.region_nodes, oracle.region_nodes, "batch {b}");
        assert_eq!(report.views_changed, deltas.iter().filter(|d| !d.is_empty()).count());
        for ((view, def), ans) in cache.views_snapshot().iter().zip(&defs).zip(&answers) {
            let want = evaluate(def, &mirror);
            assert_eq!(view.nodes(), want, "engine's {def} after batch {b}");
            assert_eq!(ans, &want, "oracle's {def} after batch {b}");
        }
        for (c, d) in changed.iter_mut().zip(&deltas) {
            *c |= !d.is_empty();
        }
        if b == 0 {
            // The reverse: the batch deletes the last carriers again.
            let gone = mirror.children(region).iter().copied();
            let gone = gone.filter(|&n| ["lot", "promo"].contains(&mirror.label(n).name()));
            batches.insert(1, gone.map(|node| Edit::DeleteSubtree { node }).collect());
        }
        b += 1;
    }
    assert_eq!(changed, [true, true, true, true, true, true, false], "every absent label mattered");
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
    let cache = Arc::new(ShardedViewCache::new(doc).with_shards(8));
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
