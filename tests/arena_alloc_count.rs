//! Allocation accounting for the serving hot path's **eval → encode**
//! span: fused flat evaluation hands its answer sets to the reused
//! [`AnswerArena`] and takes the last batch's sets back as buffers, batch
//! fan-out copies 8-byte handles, and the wire encoder sends each set as its
//! words or its ids and each fanned-out handle as a back-reference — so after
//! warmup an answer allocates no set and no node list, and growing a batch's
//! fan-out must not grow the allocation count. The server's own
//! evaluate→encode section ([`evaluate_and_encode`]) on one worker's arena
//! is held to the same. (Plan *lookup*
//! still hashes each arriving pattern — that cost is per-position by
//! design and measured by the benches, not here.) The same holds for
//! queries routed through a view or an intersection of views: their anchors
//! are slot sets ANDed inside the evaluator, never a list.
//!
//! The same accounting pins the costs an edit batch must not pay per
//! document node: copying the document ([`Tree::clone`] is a fixed number
//! of allocations; a batch is applied to the document in place, and after
//! [`Tree::reserve_for`] applying it reallocates nothing), scanning a
//! region (the bytes a scan allocates depend on the region, not on the
//! document around it) and patching the answer sets (a set that does not
//! change is not rebuilt).
//!
//! These tests live in their own integration binary because the counting
//! `#[global_allocator]` is process-global; the counters are per thread, so
//! the tests of this binary do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xpath_views::engine::evaluate_and_encode;
use xpath_views::model::{AnswerArena, AnswerRef, FlatTree, Label, Tree, TreeBuilder};
use xpath_views::net::{AnswersEncoder, Msg, WireRouteRef};
use xpath_views::obs::Span;
use xpath_views::prelude::*;
use xpath_views::semantics::{BatchEval, RegionScanner};
use xpath_views::workload::{catalog_zipf_stream, site_catalog, site_doc};

/// Counts every allocation the calling thread makes through the global
/// allocator, and the bytes it asks for.
struct CountingAlloc;

thread_local! {
    // Const-initialized and without destructors: safe to touch from inside
    // the allocator at any point of a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    // Allocations of at least `WATCHED.0` bytes, counted in `WATCHED.1`.
    static WATCHED: Cell<(usize, u64)> = const { Cell::new((usize::MAX, 0)) };
    // Allocations of exactly `EXACT.0` bytes, counted in `EXACT.1`.
    static EXACT: Cell<(usize, u64)> = const { Cell::new((usize::MAX, 0)) };
}

fn count(bytes: usize) {
    ALLOCS.with(|a| a.set(a.get() + 1));
    BYTES.with(|b| b.set(b.get() + bytes as u64));
    WATCHED.with(|w| {
        let (min, n) = w.get();
        if bytes >= min {
            w.set((min, n + 1));
        }
    });
    EXACT.with(|w| {
        let (size, n) = w.get();
        if bytes == size {
            w.set((size, n + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// From now on, counts this thread's allocations of at least `min` bytes.
fn watch(min: usize) {
    WATCHED.with(|w| w.set((min, 0)));
}

fn watched() -> u64 {
    WATCHED.with(|w| w.get().1)
}

/// Counts this thread's allocations of exactly `size` bytes while `f` runs.
fn allocations_of<T>(size: usize, f: impl FnOnce() -> T) -> (T, u64) {
    EXACT.with(|w| w.set((size, 0)));
    let out = f();
    (out, EXACT.with(|w| w.replace((usize::MAX, 0)).1))
}

/// One eval→encode pass, shaped exactly like the server's arena lane
/// after the plan memo resolved every position: each unique query is
/// evaluated once into the arena, duplicates fan out by copying the
/// handle, and every answer is encoded from its set into the wire frame
/// through a borrowed route, a fanned-out handle as a repeat. Returns the
/// frame length so nothing is optimized away.
fn eval_encode_pass(
    eval: &mut BatchEval<'_>,
    uniques: &[Pattern],
    fanout: usize,
    arena: &mut AnswerArena,
) -> usize {
    arena.clear();
    let refs: Vec<AnswerRef> = uniques.iter().map(|q| eval.evaluate_into(q, arena)).collect();
    let mut enc = AnswersEncoder::new(7);
    for i in 0..fanout {
        let r = refs[i % refs.len()]; // handle copy — the fan-out
        enc.answer_ref(WireRouteRef::ViaView { view: "v", rewriting: "." }, arena, r);
    }
    enc.finish().len()
}

/// After warmup, 512 answers must cost the same number of allocations as
/// 64 answers (same uniques): per-pass scaffolding — the refs `Vec`, the
/// frame encoder and its O(log frame-size) growth doublings, the
/// fingerprint hashing inside the shared-table lookup — is allowed, but
/// one single per-answer allocation would add ~448 and fail the bound.
#[test]
fn eval_encode_allocations_do_not_scale_with_fanout() {
    let doc = site_doc(6, 6, 5);
    let ft = FlatTree::freeze(&doc);
    let uniques: Vec<Pattern> = catalog_zipf_stream(&site_catalog(), 8, 0x21F);

    let mut eval = BatchEval::new(&ft);
    let mut arena = AnswerArena::new();
    // Warmup: grow the arena, the scratch pool, the shared sub-match
    // tables, and the spare answer sets to their steady state.
    let warm_len = eval_encode_pass(&mut eval, &uniques, 512, &mut arena);
    assert!(warm_len > 0);
    eval_encode_pass(&mut eval, &uniques, 64, &mut arena);

    let before_small = allocs();
    eval_encode_pass(&mut eval, &uniques, 64, &mut arena);
    let small_allocs = allocs() - before_small;

    let before_large = allocs();
    let large_len = eval_encode_pass(&mut eval, &uniques, 512, &mut arena);
    let large_allocs = allocs() - before_large;

    assert_eq!(large_len, warm_len);
    assert!(
        large_allocs <= small_allocs + 16,
        "per-answer allocations in eval→encode: {small_allocs} allocs for 64 answers vs \
         {large_allocs} for 512"
    );
}

/// The server's evaluate→encode section on one worker's arena, as the
/// query handler runs it: once warm, a frame allocates no answer set — each
/// answer's set is a spare of the frame before — and its answers decode to
/// what direct evaluation answers. The set-sized buffers a warm frame does
/// allocate are the evaluator's scratch, a few per batch whatever its
/// answers; a fresh arena per frame, as the server built before it kept
/// one per worker, allocates every answer set anew, and the count sees them.
#[test]
fn a_warm_worker_frame_allocates_no_answer_set() {
    let doc = site_doc(20, 40, 5);
    // An answer set's buffer, of a size nothing else on this path asks for.
    let set_bytes = doc.len().div_ceil(64) * 8;
    assert!(set_bytes >= 1024 && !set_bytes.is_power_of_two(), "{set_bytes}-byte sets");
    let catalog = site_catalog();
    let cache = ShardedViewCache::new(doc);
    for (name, def) in &catalog.views {
        cache.add_view(name, def.clone());
    }
    let distinct: Vec<Pattern> = [
        "site/region/item/name",
        "site//bid/price",
        "site//bidder",
        "site/region/item[shipping]/name",
        "site/region/item[bids]//price",
        "site/region/item/description//listitem",
        "site//name",
        "site/categories/category/name",
        "site/region/item[shipping]//bidder",
        "site//bid[price]/bidder",
        "site/region",
        "site/region/item",
        "site//item[bids]/description",
        "site//cost",
        "site//parlist",
        "site/region/item/bids/bid",
        "site//item[shipping]/bids",
        "site/region/*/name",
        "site/*/item/shipping",
        "site//*[bidder]",
    ]
    .iter()
    .map(|q| parse_xpath(q).expect("pattern parses"))
    .collect();
    // Every query three times over: two of each three answers fan out.
    let stream: Vec<Pattern> = (0..3).flat_map(|_| distinct.iter().cloned()).collect();
    let frame = |arena: &mut AnswerArena| {
        let (answers, enc) = evaluate_and_encode(&cache, 9, &stream, &mut Span::disabled(), arena);
        assert_eq!(answers.len(), stream.len());
        enc.finish()
    };

    let mut arena = AnswerArena::new();
    let warm = frame(&mut arena);
    frame(&mut arena);
    let (body, scratch) = allocations_of(set_bytes, || frame(&mut arena));
    assert_eq!(body, warm, "the same batch encodes to the same frame");
    assert_eq!(arena.node_count(), 0, "no node list was built");
    match Msg::decode(&body).expect("the frame decodes") {
        Msg::Answers { answers, .. } => {
            for (q, a) in stream.iter().zip(&answers) {
                assert_eq!(a.nodes, cache.answer_direct(q), "{q}");
            }
        }
        other => panic!("wrong frame {other:?}"),
    }

    let (_, fresh) = allocations_of(set_bytes, || frame(&mut AnswerArena::new()));
    assert!(fresh >= distinct.len() as u64, "{fresh} sets for {} answers", distinct.len());
    assert!(scratch <= 8, "a warm frame allocated {scratch} sets for {} answers", distinct.len());
}

/// `r` with `groups` children `m`, each with nine leaves (`x`, and one `y`
/// in every third group): `10 * groups + 1` nodes, every `m` a 10-node
/// region one step below the root.
fn grouped_doc(groups: usize) -> Tree {
    let mut t = Tree::new(Label::new("r"));
    for g in 0..groups {
        let m = t.add_child(t.root(), Label::new("m"));
        for leaf in 0..9 {
            t.add_child(m, Label::new(if leaf == 0 && g % 3 == 0 { "y" } else { "x" }));
        }
    }
    t
}

/// A copy of the document (what `ShardedViewCache::document` returns) is
/// two buffers — the node arena and the child pool — whatever the node
/// count.
#[test]
fn tree_clone_allocations_do_not_scale_with_the_document() {
    let doc = grouped_doc(5_000);
    assert_eq!(doc.len(), 50_001);
    let before = allocs();
    let copy = doc.clone();
    let cloned = allocs() - before;
    assert_eq!(copy.len(), doc.len());
    assert!(cloned <= 4, "Tree::clone of 50k nodes made {cloned} allocations");
}

/// `r` with `groups` children `m` of 2, 4, 8 and 16 leaves in turn: every
/// `m`'s child list is full, so the first graft under one relocates it.
fn full_lists_doc(groups: usize) -> Tree {
    let mut t = Tree::new(Label::new("r"));
    for g in 0..groups {
        let m = t.add_child(t.root(), Label::new("m"));
        for leaf in 0..2 << (g % 4) {
            t.add_child(m, Label::new(if leaf % 5 == 0 { "y" } else { "x" }));
        }
    }
    t
}

/// The document an edit batch is applied to in place has room reserved for
/// the batch ([`Tree::reserve_for`]): applying it allocates nothing of the
/// document's size — neither node arena nor child pool grows — over
/// generated batches, inserts under full child lists, several inserts
/// under one parent and inserts under a node the batch grafted. A plain
/// copy, which has no room, reallocates on the same batches.
#[test]
fn a_reserved_document_applies_its_batch_in_place_without_growing() {
    use xpath_views::maintain::{apply_edits, Edit};
    use xpath_views::workload::{edit_batches, edit_stream, EditMix};

    let doc = full_lists_doc(2_000);
    let m = |g: usize| doc.children(doc.root())[g];
    let leaf = |label: &str| Tree::new(Label::new(label));
    let pair = TreeBuilder::root("m", |b| {
        b.leaf("x").leaf("y");
    });
    let grafted = NodeId(doc.arena_len() as u32);
    let forced: [Vec<Edit>; 3] = [
        // Full lists of 2 and 16, one graft each; the root's own list.
        vec![
            Edit::InsertSubtree { parent: m(0), subtree: leaf("x") },
            Edit::InsertSubtree { parent: m(3), subtree: pair.clone() },
            Edit::InsertSubtree { parent: doc.root(), subtree: leaf("m") },
        ],
        // Twenty under one full list of 8: it relocates to 16, then 32.
        (0..20).map(|_| Edit::InsertSubtree { parent: m(2), subtree: leaf("y") }).collect(),
        // Under the batch's own graft, deletes and relabels in between.
        vec![
            Edit::InsertSubtree { parent: m(1), subtree: pair.clone() },
            Edit::InsertSubtree { parent: grafted, subtree: pair.clone() },
            Edit::DeleteSubtree { node: doc.children(m(5))[0] },
            Edit::InsertSubtree { parent: grafted, subtree: leaf("x") },
            Edit::Relabel { node: m(6), label: Label::new("y") },
            Edit::InsertSubtree { parent: NodeId(grafted.0 + 1), subtree: leaf("x") },
        ],
    ];
    let big = doc.arena_len();
    // Applies `batch` in place to `doc` after reserving room, and to a
    // plain copy taken before: the first must grow nothing; returns how
    // often the plain one grew.
    let apply = |doc: &mut Tree, batch: &[Edit], what: &str| {
        let mut plain = doc.clone();
        doc.reserve_for(batch.iter().filter_map(Edit::graft));
        watch(big);
        apply_edits(doc, batch).expect("the batch applies");
        assert_eq!(watched(), 0, "{what} grew a buffer of the document");
        watch(big);
        apply_edits(&mut plain, batch).expect("the batch applies");
        assert_eq!(doc.canonical_key(), plain.canonical_key());
        watched()
    };
    for (i, batch) in forced.iter().enumerate() {
        let grew = apply(&mut doc.clone(), batch, &format!("forced batch {i}"));
        assert!(grew > 0, "forced batch {i}: a plain copy has no room");
    }
    // Generated batches, applied one after another to one document.
    let stream = edit_stream(&doc, 32 * 8, EditMix::default(), 0xC0B1);
    let mut cur = doc.clone();
    for (i, batch) in edit_batches(&stream, 8).iter().enumerate() {
        apply(&mut cur, batch, &format!("generated batch {i}"));
    }
}

/// A batch that changes no answer set makes `apply_region_results`
/// allocate nothing of a set's size, though its views are not clean: one
/// has a region scanned (a graft no view selects, under a wildcard step)
/// and one is spine-clean (a relabel to the same label, nothing dead).
#[test]
fn a_patch_that_changes_nothing_allocates_no_set() {
    use xpath_views::maintain::{
        apply_region_results, coalesce_plan, prepare_batch, scan_regions_flat, Edit, FlatSpines,
        ViewDisposition,
    };
    use xpath_views::model::BitSet;
    use xpath_views::semantics::evaluate_flat;

    let mut doc = grouped_doc(5_000);
    let f0 = FlatTree::freeze(&doc);
    let defs: Vec<Pattern> =
        ["r/*/y", "r/m[y]/x", "r//z"].iter().map(|q| parse_xpath(q).expect("parses")).collect();
    let defs: Vec<&Pattern> = defs.iter().collect();
    let old: Vec<BitSet> = defs
        .iter()
        .map(|p| {
            BitSet::from_indices(f0.arena_len(), evaluate_flat(p, &f0).iter().map(|n| n.index()))
        })
        .collect();
    let m = doc.children(doc.root())[3];
    let x = doc.children(m)[4];
    let edits = [
        Edit::InsertSubtree { parent: m, subtree: Tree::new(Label::new("w")) },
        Edit::Relabel { node: x, label: Label::new("x") },
    ];
    let prep = prepare_batch(&mut doc, &edits).expect("valid batch");
    let f1 = f0.derive(&doc, &prep.touched_slots());
    let mut after = FlatSpines::new(&f1, &defs);
    let plan = coalesce_plan(&defs, &prep, &mut FlatSpines::new(&f0, &defs), &mut after);
    assert!(matches!(plan.dispositions[0], ViewDisposition::Regions(_)), "{plan:?}");
    assert_eq!(plan.dispositions[1], ViewDisposition::SpineClean);
    let results = scan_regions_flat(&mut after, &plan.region_tasks());
    let olds: Vec<&BitSet> = old.iter().collect();
    let mut stats = plan.stats;
    let set_bytes = f1.arena_len().div_ceil(64) * 8;
    watch(set_bytes);
    let fresh = |v: usize| evaluate_flat(defs[v], &f1);
    let patched =
        apply_region_results(f1.arena_len(), &prep, &olds, &plan, &results, fresh, &mut stats);
    assert_eq!(watched(), 0, "an unchanged set was built anew");
    assert!(patched.iter().all(Option::is_none));
    assert_eq!((stats.answers_added, stats.answers_removed, stats.regions_scanned), (0, 0, 1));
}

/// A region scan allocates for the region (its slot list, its answers, the
/// walk's stack) and for the pattern, never for the document: the same
/// 10-node region costs the same bytes inside 1k and inside 100k nodes,
/// once the snapshot's witness memo holds the pattern's branches.
#[test]
fn region_scan_bytes_do_not_scale_with_the_document() {
    let p = parse_xpath("r/m[y]/x").expect("pattern parses");
    let scan_bytes = |groups: usize| {
        let doc = grouped_doc(groups);
        let ft = FlatTree::freeze(&doc);
        let region = doc.children(doc.root())[3];
        let warm = RegionScanner::new(&p, &ft).scan(region);
        assert_eq!((warm.0.len(), warm.1.len()), (8, 10), "m[y] region: 8 x of 10 slots");
        let before = bytes();
        let again = RegionScanner::new(&p, &ft).scan(region);
        let spent = bytes() - before;
        assert_eq!(again, warm);
        spent
    };
    let (small, large) = (scan_bytes(100), scan_bytes(10_000));
    assert!(small > 0);
    assert_eq!(small, large, "scan bytes grew with the document around the region");
}

/// Routed evaluation: the anchors of a `ViaView` route are the view's slot
/// set and those of an `Intersect` route the word-AND of several, taken
/// inside the evaluator's seed. A routed query therefore allocates exactly
/// what evaluating its rewriting from a ready-made anchor list allocates
/// (the pattern's spine lay-out, nothing per anchor, nothing per
/// participant) — the merged anchor `Vec` a node-list intersection needs is
/// gone — and, as on the direct lane, growing the batch's fan-out does not
/// grow the count. The level masks the down-steps read belong to the
/// snapshot: the warm-up builds them, a warm batch builds (and allocates)
/// none, on any of the three routes.
///
/// Nor does a warm batch allocate for its answers: each answer set is a
/// spare the arena kept from the last batch, and no node list is built,
/// whatever the batch's size (up to [`MAX_SPARE_SETS`]) and fan-out.
#[test]
fn routed_evaluation_allocates_nothing_for_its_anchors() {
    use xpath_views::model::arena::MAX_SPARE_SETS;
    use xpath_views::model::BitSet;
    use xpath_views::semantics::{evaluate_anchored_flat, evaluate_flat};

    let doc = site_doc(12, 20, 5);
    let ft = FlatTree::freeze(&doc);
    let pat = |s: &str| parse_xpath(s).expect("pattern parses");
    let views: Vec<BitSet> = ["bids", "shipping", "description"]
        .iter()
        .map(|branch| evaluate_flat(&pat(&format!("site/region/item[{branch}]")), &ft))
        .map(|nodes| BitSet::from_indices(ft.arena_len(), nodes.iter().map(|n| n.index())))
        .collect();
    // (rewriting, participants): one view, pairs, and all three.
    let routes: Vec<(Pattern, Vec<&BitSet>)> = vec![
        (pat("item/name"), vec![&views[0]]),
        (pat("item[name]//bidder"), vec![&views[0], &views[1]]),
        (pat("item/description//listitem"), vec![&views[1], &views[2]]),
        (pat("item/name"), vec![&views[0], &views[1], &views[2]]),
    ];
    let direct = [pat("site/region/item/name"), pat("site//item[bids]//bidder")];
    let uniques = routes.len() + direct.len();
    // An answer set's buffer: no other allocation of evaluation is as large.
    let set_bytes = ft.arena_len().div_ceil(64) * 8;
    let mut eval = BatchEval::new(&ft);
    let mut arena = AnswerArena::new();
    // `evals` evaluations, cycling over the routes and the direct queries,
    // then `fanout` answers encoded; also returns the allocations of at
    // least `set_bytes` the evaluations made.
    let mut pass = |evals: usize, fanout: usize, arena: &mut AnswerArena| {
        arena.clear();
        let mut refs: Vec<AnswerRef> = Vec::with_capacity(evals);
        watch(set_bytes);
        for i in 0..evals {
            refs.push(match routes.get(i % uniques) {
                Some((r, sets)) => eval.evaluate_seeded_into(r, sets.iter().copied(), arena),
                None => eval.evaluate_into(&direct[i % uniques - routes.len()], arena),
            });
        }
        let large = watched();
        let mut enc = AnswersEncoder::new(7);
        for i in 0..fanout {
            enc.answer_ref(WireRouteRef::Direct, arena, refs[i % uniques.min(evals)]);
        }
        (refs, enc.finish().len(), large)
    };
    // Warm-up: the arena and its spares, the scratch pool, the witness memo.
    let (refs, warm_len, _) = pass(MAX_SPARE_SETS, 256, &mut arena);
    assert!(refs.iter().all(|r| !r.is_empty()), "every route selects something");
    pass(uniques, 64, &mut arena);
    let masks = ft.levels_built();
    assert!((2..=7).contains(&masks), "{masks} level masks; the document has depths 0 to 5");

    let before = allocs();
    pass(uniques, 64, &mut arena);
    let small = allocs() - before;
    let before = allocs();
    let (_, large_len, _) = pass(uniques, 256, &mut arena);
    let large = allocs() - before;
    assert_eq!(large_len, warm_len);
    assert!(large <= small + 16, "per-answer allocations: {small} for 64 answers, {large} for 256");
    assert_eq!(ft.levels_built(), masks, "a warm batch built a level mask");

    assert!(set_bytes >= 256, "a {set_bytes}-byte set is too small to tell apart");
    for (evals, fanout) in [(1, 1), (uniques, 256), (4 * uniques, 64), (MAX_SPARE_SETS, 512)] {
        let (_, _, sets_allocated) = pass(evals, fanout, &mut arena);
        assert_eq!(sets_allocated, 0, "{evals} evaluations allocated answer-sized buffers");
        assert_eq!(arena.node_count(), 0, "{evals} evaluations built node lists");
    }

    // Route by route: the same count as the by-node-list entry point given
    // the anchors ready-made, whatever the number of participants.
    for (r, sets) in &routes {
        let mut anchors = ft.live_mask().clone();
        sets.iter().for_each(|set| anchors.intersect_with(set));
        let anchors: Vec<NodeId> = anchors.nodes().collect();
        let want = evaluate_anchored_flat(r, &ft, &anchors);
        arena.clear();
        let before = allocs();
        let by_list = eval.evaluate_anchored_into(r, &anchors, &mut arena);
        let list_allocs = allocs() - before;
        let before = allocs();
        let by_sets = eval.evaluate_seeded_into(r, sets.iter().copied(), &mut arena);
        let set_allocs = allocs() - before;
        assert_eq!(arena.get(by_sets), want.as_slice());
        assert_eq!(arena.get(by_list), want.as_slice());
        assert_eq!(set_allocs, list_allocs, "{r} over {} views", sets.len());
    }
}
