//! Seeded input generation: documents, the view pool, query universes and
//! streams, edit streams.
//!
//! What the seed moves and what it does not is deliberate. The *corpus and
//! shape* of a workload — the documents, the view pool, the hot query set
//! and its rank order, the route-class quotas of the cold stream — are
//! fixed, because runs with different seeds are compared and a workload
//! whose dominant layer depends on the luck of the draw measures nothing.
//! The *traffic* is seeded: which cold queries are drawn from each class,
//! the order of every stream, and the edit stream.

use crate::adapter::{self, Edit, Pattern, Tree};

/// SplitMix64: the benchmark's own generator, so that streams do not move
/// when the repository swaps its `rand` stand-in for the published crate.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A generator for an independent sub-stream, so that adding a draw to
    /// one input does not shift every other input.
    pub fn fork(&self, stream: u64) -> Rng {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }
}

/// Predicates that can sit on the `region` step, as paths below an
/// `item` child. No one implies another, and every region of a site
/// document satisfies all of them: they change planning, not answers.
pub const REGION_PREDS: [&str; 5] =
    ["name", "shipping/cost", "bids/bid/price", "bids/bid/bidder", "description/parlist/listitem"];

/// Predicates that can sit on the `item` step.
pub const ITEM_PREDS: [&str; 8] = [
    "bids",
    "shipping",
    "description",
    "name",
    "bids/bid/price",
    "bids/bid/bidder",
    "shipping/cost",
    "description/parlist/listitem",
];

/// Paths from `item` to the output node.
pub const TAILS: [&str; 16] = [
    "",
    "/name",
    "/description",
    "/description/parlist",
    "/description/parlist/listitem",
    "/bids",
    "/bids/bid",
    "/bids/bid/bidder",
    "/bids/bid/price",
    "/shipping",
    "/shipping/cost",
    "//bidder",
    "//price",
    "//listitem",
    "/*",
    "/*/*",
];

/// Item predicates some pool view pins at item level (see [`view_pool`]):
/// a query with no region predicate is rewritable over one view exactly
/// when it carries one of these.
const ITEM_VIEW_PREDS: [usize; 2] = [4, 6];

/// The route a query of the universe is built to take against
/// [`view_pool`]. The builder's intent, not the program's verdict: the
/// unit tests and the `--trace` route shares check that the two agree in
/// bulk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// One pool view admits an equivalent rewriting.
    View,
    /// Two region-predicate views, intersected, admit one.
    Intersect,
    /// No view or small intersection does.
    Direct,
}

/// One query of the universe, as text (what travels on the wire is the
/// parsed pattern; the text is kept for the parse probe and the reports).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    pub text: String,
    pub class: Class,
}

fn subsets(n: usize, max: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new()];
    let mut frontier = vec![Vec::new()];
    for _ in 0..max {
        let mut next = Vec::new();
        for s in &frontier {
            let start = s.last().map_or(0, |&l: &usize| l + 1);
            for i in start..n {
                let mut t = s.clone();
                t.push(i);
                next.push(t);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

fn preds(names: &[&str], picked: &[usize]) -> String {
    picked.iter().map(|&i| format!("[{}]", names[i])).collect()
}

/// Is the region predicate `[item/<path>]` implied by the item the query
/// selects — because one of that item's own predicates, or the child-axis
/// tail, starts with `path`? An implied predicate is redundant: the
/// planner reasons about the query without it.
fn implied_by_item(path: &str, item_preds: &[usize], tail: &str) -> bool {
    let covers = |p: &str| p == path || p.strip_prefix(path).is_some_and(|r| r.starts_with('/'));
    let tail_path = tail.strip_prefix('/').filter(|t| !t.starts_with('/') && !t.contains('*'));
    item_preds.iter().any(|&i| covers(ITEM_PREDS[i])) || tail_path.is_some_and(covers)
}

/// Every query `site/region[R]/item[S]T` with `|S| <= 3` that carries a
/// region predicate or an item predicate some view pins, plus the same
/// item part under the heads `site//item` and `site/*/item` (which no pool
/// view matches). Deterministic, in a fixed order.
///
/// The class follows the region predicates the selected item does not
/// already imply: none or one leaves a single-view rewriting, two need an
/// intersection of two views, three or more exceed what the planner's
/// subset budget reaches in [`view_pool`].
pub fn query_universe() -> Vec<QuerySpec> {
    let region_sets = subsets(REGION_PREDS.len(), REGION_PREDS.len());
    let item_sets = subsets(ITEM_PREDS.len(), 3);
    let mut out = Vec::new();
    for r in &region_sets {
        for s in &item_sets {
            for tail in TAILS {
                let effective =
                    r.iter().filter(|&&i| !implied_by_item(REGION_PREDS[i], s, tail)).count();
                let class = match effective {
                    0 if !r.is_empty() => Class::View,
                    0 if s.iter().any(|i| ITEM_VIEW_PREDS.contains(i)) => Class::View,
                    0 => continue,
                    1 => Class::View,
                    2 => Class::Intersect,
                    _ => Class::Direct,
                };
                let region: String =
                    r.iter().map(|&i| format!("[item/{}]", REGION_PREDS[i])).collect();
                let text = format!("site/region{region}/item{}{tail}", preds(&ITEM_PREDS, s));
                out.push(QuerySpec { text, class });
            }
        }
    }
    for head in ["site//item", "site/*/item"] {
        for s in &item_sets {
            for tail in TAILS {
                let text = format!("{head}{}{tail}", preds(&ITEM_PREDS, s));
                out.push(QuerySpec { text, class: Class::Direct });
            }
        }
    }
    out
}

/// Share of each class in a drawn stream, in percent: view, intersect,
/// direct.
pub const CLASS_QUOTA: [usize; 3] = [40, 30, 30];

fn class_index(c: Class) -> usize {
    match c {
        Class::View => 0,
        Class::Intersect => 1,
        Class::Direct => 2,
    }
}

/// `count` **distinct** queries from the universe at the fixed class
/// quotas; which members of each class, and their order, come from `rng`.
pub fn draw_distinct(universe: &[QuerySpec], count: usize, rng: &mut Rng) -> Vec<QuerySpec> {
    let mut by_class: [Vec<&QuerySpec>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for q in universe {
        by_class[class_index(q.class)].push(q);
    }
    let mut takes = CLASS_QUOTA.map(|quota| count * quota / 100);
    takes[2] += count - takes.iter().sum::<usize>();
    let mut out = Vec::with_capacity(count);
    for (members, take) in by_class.iter_mut().zip(takes) {
        assert!(take <= members.len(), "class too small for {take} distinct queries");
        rng.shuffle(members);
        out.extend(members[..take].iter().map(|&q| q.clone()));
    }
    rng.shuffle(&mut out);
    out
}

/// Seed of the hot set: a constant, so that every run ranks the same
/// queries in the same order and only the stream order is seeded.
const HOT_SET_SEED: u64 = 0x5EED_0407;

/// The hot query set: `n` distinct queries at the class quotas, in rank
/// order (rank 0 is the hottest).
pub fn hot_set(universe: &[QuerySpec], n: usize) -> Vec<QuerySpec> {
    draw_distinct(universe, n, &mut Rng::new(HOT_SET_SEED))
}

/// `count` Zipf(1)-distributed indices in `0..n`.
pub fn zipf_indices(n: usize, count: usize, rng: &mut Rng) -> Vec<usize> {
    let mut cumulative = Vec::with_capacity(n);
    let mut total = 0.0;
    for i in 0..n {
        total += 1.0 / (i + 1) as f64;
        cumulative.push(total);
    }
    (0..count)
        .map(|_| {
            let x = rng.unit() * total;
            cumulative.partition_point(|&c| c <= x).min(n - 1)
        })
        .collect()
}

/// The view pool every workload registers, in registration order.
///
/// * five `site/region[item/r]/item` views: a query with one region
///   predicate is rewritable over one of them, a query with two only over
///   the intersection of two (the predicates sit above the output, so no
///   compensation can re-check them), a query with three or more over
///   nothing the planner finds — the expensive failed search;
/// * two item-level views, for queries without region predicates;
/// * "deep" views whose output sits below a predicated item: they survive
///   the signature filter for queries that name their labels and reach
///   their depth, and cost the planner a refuted decision each;
/// * foreign views (bibliography, categories, `//`-spined site views) the
///   signature filter dismisses with word operations.
///
/// The pool is shaped around how the program searches, because a pool the
/// intersection planner cannot search leaves the paper's expensive case
/// unmeasured. The planner enumerates equal-depth subsets of **all**
/// mergeable views no deeper than the query — deepest group first, pool
/// order within a group, pairs before triples — and stops after 64 subsets
/// whether or not the signature union dismissed them. So the pool keeps
/// the groups deeper than the region views small (6, 5 and 4 views: 31
/// pairs), registers the region views first in their own group, and gives
/// the foreign views depth 1 or a `//` below the root edge, which keeps
/// them out of the subset search. It deliberately has no bare
/// `site/region/item` view: that one admits a rewriting of every query of
/// the universe and would leave the intersection planner idle.
pub fn view_pool() -> Vec<(String, String)> {
    let mut pool: Vec<(String, String)> = Vec::new();
    let (depth_two, light) = FOREIGN_VIEWS.split_at(2);
    for (i, def) in light.iter().enumerate() {
        pool.push((format!("foreign_{i}"), def.to_string()));
    }
    for (i, def) in DEEP_VIEWS.iter().enumerate() {
        pool.push((format!("deep_{i}"), format!("site/region/item{def}")));
    }
    // The large views last: the program clones the whole pool, answer
    // subtrees included, on every registration.
    for (i, r) in REGION_PREDS.iter().enumerate() {
        pool.push((format!("region_{i}"), format!("site/region[item/{r}]/item")));
    }
    for i in ITEM_VIEW_PREDS {
        pool.push((format!("items_{i}"), format!("site/region/item[{}]", ITEM_PREDS[i])));
    }
    for (i, def) in depth_two.iter().enumerate() {
        pool.push((format!("foreign_late_{i}"), def.to_string()));
    }
    pool
}

/// Below `site/region/item`. Selective predicates, because the program
/// copies every answer subtree of every view on each pool change and
/// these views are in the pool to be refuted, not to be used.
const DEEP_VIEWS: [&str; 21] = [
    // depth 3 (with the region and item views: a group of 6)
    "[bids]/name",
    "[shipping]/name",
    "[shipping]/description",
    "[shipping]/bids",
    "[shipping]/shipping",
    "[shipping]/*",
    // depth 4 (a group of 5)
    "[shipping]/description/parlist",
    "[shipping]/bids/bid",
    "[shipping]/shipping/cost",
    "[shipping]/*/*",
    "[shipping][bids]/bids/bid",
    // depth 5 (a group of 4)
    "[shipping]/description/parlist/listitem",
    "[shipping]/bids/bid/bidder",
    "[shipping]/bids/bid/price",
    "[shipping][bids]/bids/bid/price",
    // a `//` below the root edge: never part of an intersection
    "[shipping]//bidder",
    "[shipping]//price",
    "[shipping]//listitem",
    "[shipping][bids]//bidder",
    "[shipping][bids]//price",
    "[shipping][bids]//listitem",
];

const FOREIGN_VIEWS: [&str; 38] = [
    // depth 2: registered after the region views (see `view_pool`)
    "site/categories/category",
    "bib/article/title",
    // depth 1
    "site/categories",
    "site//category",
    "site//bid",
    "site//bidder",
    "site//price",
    "site//listitem",
    "site//cost",
    "bib/article",
    "bib/inproceedings",
    "bib/*",
    "bib//author",
    "bib//name",
    "bib//year",
    "bib//cite",
    "bib//title",
    "bib//venue",
    "bib//cites",
    "bib/article[cites/cite]",
    "bib/article[venue/year]",
    "bib/*[author/name]",
    "bib/inproceedings[venue]",
    // a `//` below the root edge
    "site/categories//name",
    "site/region//bid",
    "site/region//price",
    "site/region//bidder",
    "site/*//listitem",
    "site/region//cost",
    "bib/article//name",
    "bib/article//cite",
    "bib/article//year",
    "bib/inproceedings//name",
    "bib/inproceedings//year",
    "bib/*//name",
    "bib/*//cite",
    "bib/*[venue]//name",
    "bib/article[cites]//year",
];

/// Parses a list of query texts (panics on a malformed one: the texts are
/// the benchmark's own).
pub fn parse_all(specs: &[QuerySpec]) -> Vec<Pattern> {
    specs.iter().map(|q| adapter::parse_query(&q.text)).collect()
}

/// The two document sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DocSize {
    /// About 1 700 nodes: planning and framing dominate.
    Small,
    /// About 100 000 nodes: evaluation, freezing and copying dominate.
    Large,
}

/// The corpus is fixed; the traffic is seeded. An edit stream clusters
/// under the document's four largest items, and on the small document
/// which items those are — and so which views an edit disturbs — changes
/// the cost of a batch by half from one document seed to the next.
const DOCUMENT_SEED: u64 = 7;

pub fn document(size: DocSize) -> Tree {
    match size {
        DocSize::Small => adapter::site_document(12, 12, DOCUMENT_SEED),
        DocSize::Large => adapter::site_document(24, 360, DOCUMENT_SEED),
    }
}

/// A replayable clustered edit stream over `doc`, cut into batches of
/// `batch` edits.
pub fn edit_batches(doc: &Tree, batches: usize, batch: usize, rng: &Rng) -> Vec<Vec<Edit>> {
    let stream = adapter::clustered_edits(doc, batches * batch, rng.fork(2).next_u64());
    stream.chunks(batch).map(<[Edit]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_bit_identical_per_seed_and_differs_across_seeds() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn subsets_count_matches_binomials() {
        assert_eq!(subsets(5, 5).len(), 32);
        assert_eq!(subsets(8, 3).len(), 1 + 8 + 28 + 56);
        assert!(subsets(8, 3).iter().all(|s| s.windows(2).all(|w| w[0] < w[1])));
    }

    #[test]
    fn universe_is_distinct_and_parses() {
        let u = query_universe();
        let mut texts: Vec<&str> = u.iter().map(|q| q.text.as_str()).collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), u.len(), "universe texts are pairwise distinct");
        for q in u.iter().step_by(97) {
            adapter::parse_query(&q.text);
        }
    }

    #[test]
    fn generators_are_bit_identical_per_seed_and_differ_across_seeds() {
        let u = query_universe();
        let draw = |seed| draw_distinct(&u, 2000, &mut Rng::new(seed));
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
        let zipf = |seed| zipf_indices(48, 500, &mut Rng::new(seed));
        assert_eq!(zipf(3), zipf(3));
        assert_ne!(zipf(3), zipf(4));
        let d = document(DocSize::Small);
        assert_eq!(
            adapter::tree_fingerprint(&d),
            adapter::tree_fingerprint(&document(DocSize::Small))
        );
        let edits = |seed| format!("{:?}", edit_batches(&d, 4, 8, &Rng::new(seed)));
        assert_eq!(edits(5), edits(5));
        assert_ne!(edits(5), edits(6));
        // The shape is seed-free by design.
        assert_eq!(hot_set(&u, 48), hot_set(&u, 48));
    }

    #[test]
    fn drawn_streams_are_distinct_and_hold_the_quotas() {
        let u = query_universe();
        let drawn = draw_distinct(&u, 5000, &mut Rng::new(1));
        let mut texts: Vec<&str> = drawn.iter().map(|q| q.text.as_str()).collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), 5000);
        for (class, quota) in [Class::View, Class::Intersect, Class::Direct].iter().zip(CLASS_QUOTA)
        {
            let n = drawn.iter().filter(|q| q.class == *class).count();
            assert_eq!(n, 5000 * quota / 100);
        }
    }

    #[test]
    fn zipf_is_skewed_toward_rank_zero() {
        let idx = zipf_indices(48, 20_000, &mut Rng::new(9));
        assert!(idx.iter().all(|&i| i < 48));
        let top = idx.iter().filter(|&&i| i == 0).count() as f64 / idx.len() as f64;
        // 1 / H(48) = 0.2243
        assert!((top - 0.2243).abs() < 0.02, "rank 0 share {top}");
    }

    #[test]
    fn pool_is_large_and_names_are_unique() {
        let pool = view_pool();
        assert!(pool.len() >= 64, "{} views", pool.len());
        let mut names: Vec<&str> = pool.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), pool.len());
        for (_, def) in &pool {
            adapter::parse_query(def);
        }
    }
}
