//! Equivalence of the word-parallel flat evaluation core with the
//! reference `Tree` matcher.
//!
//! The flat path ([`FlatTree`] + `xpv_semantics::flat`) is a pure
//! performance layer: its contract is **byte-identical answers** against
//! the reference dynamic program, on every document — including post-edit
//! documents whose arenas carry tombstoned slots and appended slots out of
//! pre-order, and on arenas laid out depth-first (wholly in document order:
//! both down-steps are level passes), breadth-first and at random (hardly
//! any ordered prefix: a `/` step tests parents, a `//` step climbs) —
//! whatever the state of the snapshot's witness memo (empty, full, shared
//! by racing threads). These properties pin that contract over
//! seeded random trees, patterns, anchor sets and edit streams, plus an
//! 8-thread stress interleaving edits with fused batch answering (the
//! copy-on-write snapshot contract: every batch sees one frozen, internally
//! consistent document version).

mod common;

use std::collections::VecDeque;
use std::sync::Arc;

use xpath_views::engine::ShardedViewCache;
use xpath_views::maintain::apply_edits as apply_tree_edits;
use xpath_views::model::{AnswerArena, BitSet, FlatTree, Tree, WitnessKey, WITNESS_MEMO_BOUND};
use xpath_views::pattern::Axis;
use xpath_views::prelude::*;
use xpath_views::semantics::{
    evaluate_anchored, evaluate_anchored_flat, evaluate_batch_flat, evaluate_flat, BatchEval,
    RegionScanner,
};
use xpath_views::workload::{edit_batches, edit_stream, EditMix};

/// A seeded random document.
fn tree_from_seed(seed: u64, size: usize) -> Tree {
    let cfg = TreeGenConfig { size, max_depth: 8, max_children: 5, label_count: 5 };
    TreeGen::new(cfg, seed).tree()
}

/// A batch of seeded random patterns over the shared label universe.
fn patterns_from_seed(seed: u64, count: usize) -> Vec<Pattern> {
    let cfg = PatternGenConfig { depth: (1, 4), label_count: 5, ..PatternGenConfig::default() };
    let mut gen = PatternGen::new(cfg, seed);
    (0..count).map(|_| gen.pattern()).collect()
}

/// Applies a seeded edit stream in place, leaving tombstoned arena slots
/// behind (deletes detach whole subtrees without compacting).
fn edit_in_place(doc: &mut Tree, edits: usize, seed: u64) {
    let stream = edit_stream(doc, edits, EditMix::new(2, 2, 1), seed);
    apply_tree_edits(doc, &stream).expect("generated edits apply");
}

/// Every arena slot of `doc` as a `NodeId`, tombstones included.
fn all_slots(doc: &Tree) -> Vec<NodeId> {
    (0..doc.arena_len()).map(|i| NodeId(i as u32)).collect()
}

/// Asserts every flat path agrees with the reference on one document.
fn assert_flat_matches_reference(doc: &Tree, queries: &[Pattern]) {
    assert_snapshot_matches_reference(&FlatTree::freeze(doc), doc, queries);
}

/// Asserts every flat path over `ft`, a snapshot of `doc`, agrees with the
/// reference on `doc`.
fn assert_snapshot_matches_reference(ft: &FlatTree, doc: &Tree, queries: &[Pattern]) {
    assert_eq!(ft.len(), doc.len(), "the snapshot holds exactly the live nodes");
    // Anchor sets: a sparse one, a single slot (a 1-slot frontier), and
    // every slot — anchors nested inside other anchors' subtrees, dead
    // anchors on edited documents, and a frontier as large as it gets.
    let sparse: Vec<NodeId> = doc.node_ids().step_by(3).collect();
    let deepest: Vec<NodeId> = doc.node_ids().last().into_iter().collect();
    let every = all_slots(doc);
    let (mut seeded, mut arena) = (BatchEval::new(ft), AnswerArena::new());
    for q in queries {
        let want = evaluate(q, doc);
        assert_eq!(evaluate_flat(q, ft), want, "answers differ for {q}");
        // The answer kept as a set: its handle's length is its popcount, and
        // the node list built on demand is the reference's.
        arena.clear();
        let r = seeded.evaluate_into(q, &mut arena);
        assert_eq!(arena.get(r), want.as_slice(), "arena answers differ for {q}");
        assert_eq!(r.len(), want.len(), "handle length of {q}");
        for anchors in [&sparse, &deepest, &every] {
            let want = evaluate_anchored(q, doc, anchors);
            assert_eq!(
                evaluate_anchored_flat(q, ft, anchors),
                want,
                "anchored answers differ for {q} from {} anchors",
                anchors.len()
            );
            // The same anchors as a slot set — how a view route seeds the
            // evaluator — and the answer set stored in an arena.
            let set = BitSet::from_indices(ft.arena_len(), anchors.iter().map(|n| n.index()));
            let r = seeded.evaluate_seeded_into(q, [&set], &mut arena);
            assert_eq!(arena.get(r), want.as_slice(), "set-seeded answers differ for {q}");
            assert_eq!(r.len(), want.len(), "set-seeded handle length of {q}");
        }
    }
}

/// `doc` with its arena laid out afresh: depth-first (pre-order, the layout
/// of a parsed document) or breadth-first (level by level).
fn relaid(doc: &Tree, depth_first: bool) -> Tree {
    let mut out = Tree::new(doc.label(doc.root()));
    let mut work: VecDeque<(NodeId, NodeId)> =
        doc.children(doc.root()).iter().map(|&c| (c, out.root())).collect();
    while let Some((old, parent)) = if depth_first { work.pop_back() } else { work.pop_front() } {
        let new = out.add_child(parent, doc.label(old));
        work.extend(doc.children(old).iter().map(|&c| (c, new)));
    }
    assert!(out.structurally_eq(doc));
    out
}

/// The flat ≡ reference property over arena layouts: the generator's trees
/// grow at random open slots, so their ordered prefix is a handful of slots
/// and every other test here runs the down-steps per candidate (parent
/// tests, climbs). Laid out depth-first the same documents are wholly in
/// document order (level passes only); after an edit batch the grafts sit
/// behind the prefix and tombstones inside it (both procedures in one
/// step); breadth-first the prefix is the root's children.
#[test]
fn flat_matcher_matches_reference_whatever_the_arena_order() {
    for seed in 0..16u64 {
        let cfg = TreeGenConfig { size: 150, max_depth: 9, max_children: 6, label_count: 4 };
        let random = TreeGen::new(cfg, seed).tree();
        let mut queries = forced_patterns();
        queries.extend(patterns_from_seed(seed ^ 0x0DE2, 6));

        let mut ordered = relaid(&random, true);
        assert_eq!(FlatTree::freeze(&ordered).ordered_len(), ordered.arena_len());
        assert_flat_matches_reference(&ordered, &queries);
        let before = ordered.arena_len();
        edit_in_place(&mut ordered, 30, seed ^ 0xA11);
        let ft = FlatTree::freeze(&ordered);
        assert!(ordered.arena_len() > before, "the batch grafted something");
        assert!(ft.ordered_len() >= before, "deletes and relabels keep the prefix");
        assert_flat_matches_reference(&ordered, &queries);

        let mut level_order = relaid(&random, false);
        let root_fanout = level_order.children(level_order.root()).len();
        assert!(FlatTree::freeze(&level_order).ordered_len() <= 2 + root_fanout);
        assert_flat_matches_reference(&level_order, &queries);
        edit_in_place(&mut level_order, 30, seed ^ 0xA11);
        assert_flat_matches_reference(&level_order, &queries);

        assert!(FlatTree::freeze(&random).ordered_len() < random.arena_len());
        assert_flat_matches_reference(&random, &queries);
    }
}

/// `derived` (a snapshot of `doc` derived from an older one) holds what a
/// fresh freeze of `doc` holds in every column a reader sees: labels,
/// parents, children and liveness of every slot, the live mask, and the
/// posting of every label any slot ever carried (`extra` adds labels no
/// slot carries any more) — present or absent alike.
fn assert_derived_reads_like_a_freeze(derived: &FlatTree, doc: &Tree, extra: &[Label]) {
    let fresh = FlatTree::freeze(doc);
    assert_eq!((derived.arena_len(), derived.len()), (fresh.arena_len(), fresh.len()));
    for i in 0..fresh.arena_len() {
        assert_eq!(derived.label_id(i), fresh.label_id(i), "label of slot {i}");
        assert_eq!(derived.parent(i), fresh.parent(i), "parent of slot {i}");
        assert_eq!(derived.children(i), fresh.children(i), "children of slot {i}");
    }
    assert_eq!(derived.live_mask(), fresh.live_mask());
    let mut labels: Vec<Label> = all_slots(doc).into_iter().map(|n| doc.label(n)).collect();
    labels.extend_from_slice(extra);
    for l in labels {
        assert_eq!(derived.posting(l), fresh.posting(l), "posting of {}", l.name());
    }
    assert!(derived.ordered_len() <= fresh.ordered_len(), "a derived prefix is never longer");
}

/// The next snapshot derived from the last one
/// ([`FlatTree::derive`], what the engine publishes after an edit batch)
/// reads like a fresh freeze, batch after batch: on documents laid out
/// depth-first, breadth-first and at random, through edit streams whose
/// every batch also relabels a node to a label new to the document (so
/// postings are created, and emptied when a later delete takes their only
/// slot), every column a reader sees equals the freeze's and every flat
/// evaluation over the derived snapshot equals the reference.
#[test]
fn derived_snapshots_read_like_fresh_freezes_over_edit_streams() {
    use xpath_views::maintain::{prepare_batch, Edit};

    for seed in 0..8u64 {
        let cfg = TreeGenConfig { size: 120, max_depth: 8, max_children: 5, label_count: 4 };
        let random = TreeGen::new(cfg, seed ^ 0xDE21).tree();
        let mut queries = forced_patterns();
        queries.extend(patterns_from_seed(seed ^ 0x0DE2, 4));
        for mut doc in [relaid(&random, true), relaid(&random, false), random.clone()] {
            let edits = edit_stream(&doc, 48, EditMix::new(2, 2, 1), seed ^ 0xD371);
            let mut ft = FlatTree::freeze(&doc);
            let mut fresh_labels = Vec::new();
            for (i, mut batch) in edit_batches(&edits, 6).into_iter().enumerate() {
                let fresh = Label::new(&format!("fresh{i}"));
                fresh_labels.push(fresh);
                let node = doc.node_ids().last().expect("the root at least");
                batch.insert(0, Edit::Relabel { node, label: fresh });
                let prep = prepare_batch(&mut doc, &batch).expect("generated batches apply");
                ft = ft.derive(&doc, &prep.touched_slots());
                assert_derived_reads_like_a_freeze(&ft, &doc, &fresh_labels);
                assert_snapshot_matches_reference(&ft, &doc, &queries);
            }
        }
    }
}

/// Recursive documents: two or three labels drawn at every depth, so a
/// label's posting — and with it the frontier of a step — spans every depth
/// of documents 4 to some 16 levels tall. A step peels a fixed number of depths
/// as level passes (8) and walks what is left slot by slot, so these
/// frontiers fall on both sides of that bound; before and after an edit
/// batch (tombstones inside segments, grafts behind the prefix).
#[test]
fn flat_matcher_matches_reference_on_recursive_label_documents() {
    let queries: Vec<Pattern> = ["l0//l0/l1", "*//l0//l1", "*//*/*", "*//*//l0/*", "*//l1[l0]/l0"]
        .iter()
        .map(|q| parse_xpath(q).expect("pattern parses"))
        .collect();
    let (mut tallest, mut lowest) = (0, usize::MAX);
    for seed in 0..12u64 {
        let (label_count, max_depth) = (2 + (seed as usize % 2), 4 + 2 * seed as usize);
        let cfg = TreeGenConfig {
            size: 120 + 20 * seed as usize,
            max_depth,
            max_children: 3,
            label_count,
        };
        let mut doc = relaid(&TreeGen::new(cfg, seed ^ 0x2EC).tree(), true);
        assert_eq!(FlatTree::freeze(&doc).ordered_len(), doc.arena_len());
        tallest = tallest.max(doc.height());
        lowest = lowest.min(doc.height());
        let mut queries = queries.clone();
        queries.extend(patterns_from_seed(seed ^ 0x5EED, 4));
        assert_flat_matches_reference(&doc, &queries);
        edit_in_place(&mut doc, 24, seed ^ 0xED17);
        assert_flat_matches_reference(&doc, &queries);
    }
    assert!(lowest < 8 && tallest > 10, "heights {lowest}..{tallest} straddle the pass bound");
}

#[test]
fn flat_matcher_matches_reference_on_random_documents() {
    for seed in 0..40u64 {
        let doc = tree_from_seed(seed, 20 + (seed as usize % 60));
        let queries = patterns_from_seed(seed ^ 0xABCD, 6);
        assert_flat_matches_reference(&doc, &queries);
    }
}

#[test]
fn flat_matcher_matches_reference_on_tombstoned_documents() {
    for seed in 0..30u64 {
        let mut doc = tree_from_seed(seed, 50);
        edit_in_place(&mut doc, 20, seed ^ 0xED17);
        assert!(doc.arena_len() >= doc.len(), "edits leave tombstoned slots behind");
        let queries = patterns_from_seed(seed ^ 0xF00D, 6);
        assert_flat_matches_reference(&doc, &queries);
    }
}

/// Shapes the random generator rarely draws on its own: a 1-node pattern,
/// an output node that itself carries branches, wildcard and `//` steps on
/// the spine, branches below branches.
fn forced_patterns() -> Vec<Pattern> {
    [
        "l0",
        "*",
        "*/*",
        "*//*",
        "*//l1",
        "*/l0[l1]",
        "*//*[l1][.//l2]",
        "*//l0[*]/*",
        "*[.//l1[l2]]//l0",
        "*[l0/l1]/*//l2[l3]",
        "*//*//*",
        "*/*/*/*",
    ]
    .iter()
    .map(|q| parse_xpath(q).expect("forced pattern parses"))
    .collect()
}

/// The spine-and-branch evaluator against the reference on documents large
/// enough that wide fans, narrow targets under many parents and long `//`
/// climbs occur, before and after edits (tombstones, and inserted subtrees whose
/// slots land at the end of the arena, out of pre-order).
#[test]
fn evaluator_matches_reference_on_forced_shapes() {
    for seed in 0..12u64 {
        let cfg = TreeGenConfig { size: 400, max_depth: 10, max_children: 12, label_count: 4 };
        let mut doc = TreeGen::new(cfg, seed).tree();
        if seed % 3 != 0 {
            edit_in_place(&mut doc, 40, seed ^ 0x0DD);
            assert!(doc.arena_len() > doc.len(), "edits left tombstones");
        }
        let mut queries = forced_patterns();
        queries.extend(patterns_from_seed(seed ^ 0x5A17, 8));
        assert_flat_matches_reference(&doc, &queries);
    }
}

#[test]
fn fused_batch_evaluation_matches_per_query() {
    for seed in 0..20u64 {
        let mut doc = tree_from_seed(seed, 60);
        if seed % 2 == 1 {
            edit_in_place(&mut doc, 15, seed ^ 0xBEEF);
        }
        let ft = FlatTree::freeze(&doc);
        let queries = patterns_from_seed(seed ^ 0x1234, 5);
        let per_query: Vec<Vec<NodeId>> = queries.iter().map(|q| evaluate(q, &doc)).collect();

        let mut fused = BatchEval::new(&ft);
        let first: Vec<Vec<NodeId>> = queries.iter().map(|q| fused.evaluate(q)).collect();
        assert_eq!(first, per_query);
        // A repeat of the batch, through another evaluator, computes no
        // witness set: every branch it carries is served from the memo.
        let (hits, misses, _) = ft.witness_memo_counts();
        let refs: Vec<&Pattern> = queries.iter().collect();
        assert_eq!(evaluate_batch_flat(&ft, &refs), per_query);
        let (hits_after, misses_after, _) = ft.witness_memo_counts();
        assert_eq!(misses_after, misses, "a repeated branch was recomputed");
        assert_eq!(hits_after > hits, misses > 0, "repeated branches must hit the memo");
    }
}

/// Answers do not depend on the memo's state. Filling it to its bound with
/// unrelated entries before every query makes each evaluation's first insert
/// reset it, so witness sets are dropped and rebuilt mid-mix; four threads
/// starting together on an empty memo race on every miss.
#[test]
fn answers_are_identical_with_the_memo_full_or_contended() {
    for seed in 0..6u64 {
        let mut doc = tree_from_seed(seed, 120);
        edit_in_place(&mut doc, 20, seed ^ 0xFEED);
        let mut queries = forced_patterns();
        queries.extend(patterns_from_seed(seed ^ 0xC0DE, 10));
        let anchors: Vec<NodeId> = all_slots(&doc);
        let want: Vec<(Vec<NodeId>, Vec<NodeId>)> = queries
            .iter()
            .map(|q| (evaluate(q, &doc), evaluate_anchored(q, &doc, &anchors)))
            .collect();

        let full = FlatTree::freeze(&doc);
        let mut filler = 0u64;
        for (q, (direct, anchored)) in queries.iter().zip(&want) {
            for _ in 0..WITNESS_MEMO_BOUND {
                filler += 1;
                full.witness((filler, false), |_| BitSet::new(full.arena_len()));
            }
            assert_eq!(&evaluate_flat(q, &full), direct, "full memo changed {q}");
            assert_eq!(&evaluate_anchored_flat(q, &full, &anchors), anchored, "full memo: {q}");
        }

        let shared = FlatTree::freeze(&doc);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let (shared, queries, want, anchors) = (&shared, &queries, &want, &anchors);
                scope.spawn(move || {
                    let mut eval = BatchEval::new(shared);
                    // Each thread starts at its own offset, so misses on
                    // different keys and on the same key both occur.
                    for i in 0..queries.len() * 2 {
                        let j = (i + t * 3) % queries.len();
                        assert_eq!(eval.evaluate(&queries[j]), want[j].0);
                        assert_eq!(eval.evaluate_anchored(&queries[j], anchors), want[j].1);
                    }
                });
            }
        });
    }
}

/// The flat region scanner agrees with the reference `Tree` evaluator on
/// **tombstoned post-edit documents**: for seeded random docs run through
/// an edit stream, every (pattern, live region root) pair yields the slots
/// of `subtree(root)` and exactly the reference answers that lie inside it
/// — the definition of a region scan — from one scanner per pattern serving
/// every region, as in an engine batch.
#[test]
fn flat_region_evaluation_matches_tree_oracle() {
    for seed in 0..25u64 {
        let mut doc = tree_from_seed(seed, 45);
        edit_in_place(&mut doc, 18, seed ^ 0x9A5);
        let ft = FlatTree::freeze(&doc);
        let mut queries = patterns_from_seed(seed ^ 0xCAFE, 5);
        if seed % 5 == 0 {
            queries.extend(forced_patterns());
        }
        for q in &queries {
            let scanner = RegionScanner::new(q, &ft);
            let global = evaluate(q, &doc);
            // Every live node doubles as a region root — including the
            // document root (whole-tree region) and deep leaves.
            for root in doc.node_ids().step_by(2) {
                let (got_nodes, mut got_slots) = scanner.scan(root);
                let mut subtree = doc.descendants_inclusive(root);
                subtree.sort();
                got_slots.sort();
                assert_eq!(got_slots, subtree, "slots of {q} at {root:?}");
                let restricted: Vec<NodeId> =
                    global.iter().copied().filter(|n| subtree.binary_search(n).is_ok()).collect();
                assert_eq!(got_nodes, restricted, "region answers differ for {q} at {root:?}");
            }
        }
    }
}

/// `B`-vectors by definition: bit `i` of `RegionScanner::b_vector(v)` is set
/// iff `u_i` — the pattern `P≤i` cut to `P≥i` (§3.1), so `u_i` with its
/// non-spine branches and itself as output — embeds at `v`, i.e. the
/// reference `evaluate_anchored` from `v` returns `[v]`. Checked at every
/// live slot of every snapshot the engine would hold through seeded edit
/// streams (each derived from the last, as `apply_edits` derives them):
/// random and bursty batches, and batches after which a label is absent
/// on either side — for random views and for wildcard, `//`-branch and
/// absent-label ones.
#[test]
fn b_vectors_match_their_definition_over_edit_streams() {
    use xpath_views::maintain::prepare_batch;

    for seed in 0..12u64 {
        let mut doc = common::tree_from_seed(seed, 40);
        let views = common::maintenance_views(seed);
        // Per view, `u_i` for every spine position `i`.
        let positions: Vec<Vec<Pattern>> = views
            .iter()
            .map(|p| (0..=p.depth()).map(|i| p.upper_pattern_leq(i).sub_pattern_geq(i)).collect())
            .collect();
        let mut ft = FlatTree::freeze(&doc);
        let mut batches = common::maintenance_batches(&doc, seed).into_iter();
        loop {
            // `u_i`'s output is its root, so anchoring it at every live slot
            // at once returns exactly the slots `v` with `evaluate_anchored(
            // u_i, t, [v]) == [v]`.
            let live: Vec<NodeId> = doc.node_ids().collect();
            for (p, us) in views.iter().zip(&positions) {
                let holds: Vec<Vec<NodeId>> =
                    us.iter().map(|u| evaluate_anchored(u, &doc, &live)).collect();
                let scanner = RegionScanner::new(p, &ft);
                for &v in &live {
                    let want = (0..us.len())
                        .filter(|&i| holds[i].binary_search(&v).is_ok())
                        .fold(0u64, |b, i| b | 1 << i);
                    assert_eq!(scanner.b_vector(v), want, "B-vector of {p} at {v:?}, seed {seed}");
                }
            }
            let Some(batch) = batches.next() else { break };
            let prep = prepare_batch(&mut doc, &batch).expect("generated batches apply");
            ft = ft.derive(&doc, &prep.touched_slots());
        }
    }
}

/// The pool of the carried-memo property: `/` and `//` branches, nested
/// branches, `*`, and [`common::ABSENT`] as a branch and on the spine. Every
/// nested branch hangs under a `*`, which no batch can make absent, so laying
/// a pattern out files every key of its branches.
fn carried_pool() -> Vec<Pattern> {
    [
        "l0[l1]//l2",
        "*[.//l3]/l1",
        "l0//*[*/l2]",
        "*[.//*[l1][.//l2]]//*",
        "l0/*[*//l3]/l2",
        "*//*[*[l0]/l1]",
        "l0[zz]//l2",
        "*[.//zz]/*",
        "l0//zz/l1",
    ]
    .iter()
    .map(|q| parse_xpath(q).expect("pool pattern parses"))
    .collect()
}

/// The witness keys of `p`'s branches: `(subtree fingerprint, axis)` of
/// every node off the selection path.
fn branch_keys(p: &Pattern) -> Vec<WitnessKey> {
    let (fps, spine) = (p.subtree_fingerprints(), p.selection_path());
    let branches = p.node_ids().filter(|n| !spine.contains(n));
    branches.map(|c| (fps[c.index()], p.axis(c) == Axis::Descendant)).collect()
}

/// Lays `pool` out on `ft` — every branch's witness set into the memo —
/// on one thread, or on two started together so they miss on the same
/// keys, inherited ones included.
fn lay_out(ft: &FlatTree, pool: &[Pattern], threads: usize) {
    let start = std::sync::Barrier::new(threads);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                start.wait();
                pool.iter().for_each(|p| drop(RegionScanner::new(p, ft)));
            });
        }
    });
}

/// A derived snapshot's witness sets are the predecessor's carried over
/// and re-decided on the dirty closure, never computed from scratch when
/// the predecessor held them — and equal to the sets a fresh freeze
/// computes. Along `freeze` → `derive` → … chains over
/// [`common::maintenance_batches`], every witness set a derived snapshot
/// holds equals the fresh freeze's and every evaluation equals the
/// reference. Forced on the way: a generation that lays out only half of
/// [`carried_pool`] (the next one computes the rest from scratch), a
/// predecessor whose memo was emptied at [`WITNESS_MEMO_BOUND`] (nothing
/// is carried), and two threads laying the pool out together (each
/// inherited key is taken once, by one of them). Which keys are carried is
/// pinned exactly: every key of the pool the predecessor held, so after a
/// generation that laid everything out, every miss.
#[test]
fn carried_witness_sets_equal_fresh_ones_along_derive_chains() {
    use xpath_views::maintain::prepare_batch;

    let pool = carried_pool();
    let mut keys: Vec<WitnessKey> = pool.iter().flat_map(branch_keys).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut shapes = [0usize; 3];
    for seed in 0..10u64 {
        let mut doc = common::tree_from_seed(seed, 40);
        let mut every = pool.clone();
        every.extend(common::maintenance_views(seed));
        let mut all_keys: Vec<WitnessKey> = every.iter().flat_map(branch_keys).collect();
        all_keys.sort_unstable();
        all_keys.dedup();
        let mut ft = FlatTree::freeze(&doc);
        lay_out(&ft, &every, 1);
        // Whether the predecessor holds every key of the pool.
        let mut whole = true;
        for (g, batch) in common::maintenance_batches(&doc, seed).into_iter().enumerate() {
            let prep = prepare_batch(&mut doc, &batch).expect("generated batches apply");
            if g % 5 == 3 {
                // Emptied at the bound: only fillers are left to inherit.
                for filler in 0..WITNESS_MEMO_BOUND as u64 {
                    ft.witness((filler, true), |_| BitSet::new(ft.arena_len()));
                }
                whole = false;
            }
            let held = keys.iter().filter(|&&k| ft.memoized(k).is_some()).count();
            assert!(!whole || held == keys.len(), "seed {seed} batch {g}: {held} held");
            let next = ft.derive(&doc, &prep.touched_slots());
            let (half, threads) = (g % 4 == 1, if g % 3 == 2 { 2 } else { 1 });
            let laid = if half { &pool[..pool.len() / 2] } else { &pool[..] };
            lay_out(&next, laid, threads);
            let (_, misses, carried) = next.witness_memo_counts();
            let computed = keys.iter().filter(|&&k| next.memoized(k).is_some()).count();
            if threads == 1 {
                assert_eq!(misses, computed as u64, "one miss a key, seed {seed} batch {g}");
            }
            if !half {
                assert_eq!(computed, keys.len(), "the pool files every key");
                assert_eq!(carried, held as u64, "every held key carried, seed {seed} batch {g}");
                let pinned = whole && threads == 1;
                assert!(!pinned || carried == misses, "a miss not carried, seed {seed} batch {g}");
                shapes[0] += usize::from(held < keys.len());
                shapes[1] += usize::from(held == 0);
                shapes[2] += usize::from(threads == 2 && held > 0);
                lay_out(&next, &every, 1);
            }
            whole = !half;
            let fresh = FlatTree::freeze(&doc);
            lay_out(&fresh, &every, 1);
            for &k in &all_keys {
                if let Some(got) = next.memoized(k) {
                    let want = fresh.memoized(k).expect("the freeze filed every key");
                    assert_eq!(*got, *want, "witness set {k:?}, seed {seed} batch {g}");
                }
            }
            for p in &every {
                assert_eq!(evaluate_flat(p, &next), evaluate(p, &doc), "{p}, seed {seed}");
            }
            ft = next;
        }
    }
    assert!(shapes.iter().all(|&n| n > 0), "skipped, emptied, contended: {shapes:?}");
}

/// 8 writer/reader threads interleaving `apply_edits` with fused batch
/// answering: every answer must equal direct evaluation on *some* frozen
/// document version — verified here through the engine's own consistency
/// check (each batch runs against one snapshot) plus a final quiescent
/// comparison against the reference matcher.
#[test]
fn concurrent_edits_and_fused_batches_stay_consistent() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 6;

    let doc = tree_from_seed(0x5EED, 80);
    let edits = edit_stream(&doc, 48, EditMix::new(2, 1, 1), 0xE017);
    let batches = edit_batches(&edits, THREADS * ROUNDS / 2);
    let queries = patterns_from_seed(0x77, 8);

    let cache = Arc::new(ShardedViewCache::new(doc).with_shards(4));
    std::thread::scope(|scope| {
        // Writers: half the threads apply disjoint slices of the edit
        // stream in order (each slice is internally valid because the
        // stream was generated against the evolving document).
        for w in 0..THREADS / 2 {
            let cache = Arc::clone(&cache);
            let slices: Vec<_> = batches.iter().skip(w).step_by(THREADS / 2).cloned().collect();
            scope.spawn(move || {
                for batch in slices {
                    // Edits generated against one evolution of the
                    // document may be stale under interleaving; rejected
                    // batches are fine — torn snapshots are not.
                    let _ = cache.apply_edits(&batch);
                }
            });
        }
        // Readers: fused batches racing the writers. Each answer batch
        // runs on one frozen snapshot, so within a batch all answers must
        // agree with direct evaluation on that same snapshot — which is
        // exactly what answer_batch's internal routing verifies; here we
        // assert the output shape and that no answer names a node that
        // never existed (indices stay within the arena bound).
        for _ in 0..THREADS / 2 {
            let cache = Arc::clone(&cache);
            let queries = queries.clone();
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    let answers = cache.answer_batch(&queries);
                    assert_eq!(answers.len(), queries.len());
                }
            });
        }
    });

    // Quiescent: the surviving document's flat snapshot agrees with the
    // reference matcher on every query.
    let final_doc = cache.document();
    assert_flat_matches_reference(&final_doc, &queries);
}
