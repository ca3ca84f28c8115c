//! Shared helpers for the integration test suite: seeded generators wrapped
//! for use inside proptest strategies, and pattern mutation utilities.
#![allow(dead_code)] // each integration test binary uses a subset of these helpers

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xpath_views::maintain::{apply_edits, Edit};
use xpath_views::model::{Label, NodeId, Tree};
use xpath_views::pattern::{parse_xpath, NodeTest, PatId, Pattern};
use xpath_views::workload::{
    edit_batches, edit_stream, edit_stream_clustered, EditLocality, EditMix, Fragment, PatternGen,
    PatternGenConfig, TreeGen, TreeGenConfig,
};

/// A small random pattern from a seed (deterministic).
pub fn pattern_from_seed(seed: u64, fragment: Fragment) -> Pattern {
    let cfg =
        PatternGenConfig { depth: (1, 3), max_branch_size: 2, fragment, ..Default::default() };
    PatternGen::new(cfg, seed).pattern()
}

/// A correlated (query, view) instance from a seed.
pub fn instance_from_seed(seed: u64, fragment: Fragment) -> (Pattern, Pattern) {
    let cfg =
        PatternGenConfig { depth: (1, 3), max_branch_size: 2, fragment, ..Default::default() };
    PatternGen::new(cfg, seed).instance()
}

/// A small random document from a seed.
pub fn tree_from_seed(seed: u64, size: usize) -> xpath_views::model::Tree {
    let cfg = TreeGenConfig { size, max_depth: 6, max_children: 4, label_count: 4 };
    TreeGen::new(cfg, seed).tree()
}

/// Weakenings: each step transforms `p` into some `p'` with `p ⊑ p'`.
pub fn weaken(p: &Pattern, seed: u64) -> Pattern {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = p.clone();
    match rng.gen_range(0..3) {
        0 => out = out.relax_root_edges(),
        1 => {
            // Wildcard a random node's test.
            let ids: Vec<PatId> = out.node_ids().collect();
            let n = ids[rng.gen_range(0..ids.len())];
            out.set_test(n, NodeTest::Wildcard);
        }
        _ => {
            // Relax a random non-root edge.
            let ids: Vec<PatId> = out.node_ids().filter(|&n| out.parent(n).is_some()).collect();
            if !ids.is_empty() {
                let n = ids[rng.gen_range(0..ids.len())];
                out.set_axis(n, xpath_views::pattern::Axis::Descendant);
            }
        }
    }
    out
}

/// A label no [`tree_from_seed`] document carries (they draw `l0…l3`): a
/// view testing it has an empty position until a batch of
/// [`maintenance_batches`] brings a carrier in, and again after it takes
/// the carrier away.
pub const ABSENT: &str = "zz";

/// The views the maintenance properties run over [`tree_from_seed`]
/// documents: three seeded random ones, plus shapes random generation
/// seldom draws — wildcard and `//` steps, `//` branches, and [`ABSENT`] on
/// the spine and in a branch (under a wildcard too, which no edit's labels
/// can skip). `l0//l1[l2]` is the view [`maintenance_batches`]' nested
/// graft gives two nested regions before the merge.
pub fn maintenance_views(seed: u64) -> Vec<Pattern> {
    let forced = [
        "*//l1",
        "l0//*[l2]",
        "*[.//l3]//l1",
        "l0/*/l2[.//l1]",
        "l0//l1[l2]",
        "l0//zz/l1",
        "*/*/zz",
        "l0[zz]//l2",
        "*[.//zz]/*",
    ];
    let random = (0..3).map(|i| pattern_from_seed(seed.wrapping_add(i * 7919), Fragment::Full));
    random.chain(forced.iter().map(|q| parse_xpath(q).expect("view parses"))).collect()
}

/// A seeded edit stream over `doc` in batches, valid applied in order from
/// `doc`:
/// * a random stream cut into batches of 1–8 edits;
/// * a bursty one, clustered under two hot subtrees, in three batches;
/// * a chain `l2(l2(l2(l2)))` grafted under a node not labelled `l1`, with
///   its third node relabelled `l1` in the same batch (the graft's root and
///   that node are nested regions of `l0//l1[l2]`), then deleted;
/// * labels absent on either side of a batch: a carrier of [`ABSENT`]
///   grafted and a node relabelled to it, both undone in the next batch;
///   then every carrier of one present label relabelled to [`ABSENT`], and
///   back.
pub fn maintenance_batches(doc: &Tree, seed: u64) -> Vec<Vec<Edit>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut work = doc.clone();
    let mut out: Vec<Vec<Edit>> = Vec::new();
    let mut push = |work: &mut Tree, batch: Vec<Edit>| {
        apply_edits(work, &batch).expect("generated batches apply");
        out.push(batch);
    };
    let mixes = [EditMix::default(), EditMix::new(1, 0, 0), EditMix::new(0, 1, 1)];
    let stream = edit_stream(&work, 24, mixes[seed as usize % 3], seed);
    let mut rest = &stream[..];
    while !rest.is_empty() {
        let (batch, tail) = rest.split_at(rng.gen_range(1..=8usize).min(rest.len()));
        push(&mut work, batch.to_vec());
        rest = tail;
    }
    let bursty = edit_stream_clustered(
        &work,
        24,
        EditMix::default(),
        EditLocality::new(2, 90),
        seed ^ 0xB0057,
    );
    for batch in edit_batches(&bursty, 3) {
        push(&mut work, batch);
    }

    let label = Label::new;
    let host = work.node_ids().find(|&n| work.label(n) != label("l1")).unwrap_or(work.root());
    let mut chain = Tree::new(label("l2"));
    let mut tip = chain.root();
    for _ in 0..3 {
        tip = chain.add_child(tip, label("l2"));
    }
    let graft = NodeId(work.arena_len() as u32);
    let third = NodeId(graft.0 + 2);
    push(
        &mut work,
        vec![
            Edit::InsertSubtree { parent: host, subtree: chain },
            Edit::Relabel { node: third, label: label("l1") },
        ],
    );
    push(&mut work, vec![Edit::DeleteSubtree { node: graft }]);

    let live: Vec<NodeId> = work.node_ids().collect();
    let (host, renamed) = (live[rng.gen_range(0..live.len())], live[rng.gen_range(0..live.len())]);
    let was = work.label(renamed);
    let mut carrier = Tree::new(label(ABSENT));
    carrier.add_child(carrier.root(), label("l1"));
    let carrier_root = NodeId(work.arena_len() as u32);
    push(
        &mut work,
        vec![
            Edit::InsertSubtree { parent: host, subtree: carrier },
            Edit::Relabel { node: renamed, label: label(ABSENT) },
        ],
    );
    push(
        &mut work,
        vec![
            Edit::DeleteSubtree { node: carrier_root },
            Edit::Relabel { node: renamed, label: was },
        ],
    );

    let gone = work.label(live[rng.gen_range(0..live.len())]);
    let carriers: Vec<NodeId> = work.node_ids().filter(|&n| work.label(n) == gone).collect();
    let relabel = |to: Label| carriers.iter().map(move |&node| Edit::Relabel { node, label: to });
    push(&mut work, relabel(label(ABSENT)).collect());
    push(&mut work, relabel(gone).collect());
    out
}
