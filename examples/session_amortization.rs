//! The oracle/session/batch API end to end: repeated traffic against a
//! `ShardedViewCache` is planned once and served from the plan memo
//! thereafter, and a plan miss asks the oracle only about the pairs its
//! filter cannot dismiss.
//!
//! Run with `cargo run --release --example session_amortization`.

use xpath_views::prelude::*;

fn main() {
    // A document and a pool of materialized views.
    let doc = TreeBuilder::root("site", |b| {
        for _ in 0..4 {
            b.child("region", |b| {
                b.child("item", |b| {
                    b.leaf("name");
                    b.child("desc", |b| {
                        b.leaf("keyword");
                    });
                });
            });
        }
    });
    let cache = ShardedViewCache::new(doc);
    cache.add_view("items", parse_xpath("site/region/item").unwrap());
    cache.add_view("keywords", parse_xpath("site//keyword").unwrap());

    // A repeated workload slice, answered in one pass.
    let hot = parse_xpath("site/region/item/name").unwrap();
    let cold = parse_xpath("site//desc/keyword").unwrap();
    let batch: Vec<Pattern> =
        vec![hot.clone(), cold.clone(), hot.clone(), hot.clone(), cold.clone(), hot.clone()];
    let answers = cache.answer_batch(&batch);
    for (q, a) in batch.iter().zip(&answers) {
        println!("{q}  ->  {} node(s) via {:?}", a.nodes.len(), a.route);
    }

    let s = cache.stats();
    println!("\nstats: {s}");
    assert_eq!(s.plan_memo_misses, 2, "two distinct queries planned once each");
    assert_eq!(s.plan_memo_hits, 4, "four repeats served from the plan memo");

    // What the misses asked: the filter dismissed every pair whose
    // signature rejects it or whose labels refute both natural candidates,
    // and only the rest had a candidate tested by the session's oracle. The
    // repeats asked nothing.
    let asked = cache.session().oracle().stats().queries;
    println!(
        "\nplan misses: {} pair(s) dismissed by word ops, {} tested, {asked} containment(s)",
        s.sig_rejects, s.sig_passes
    );
    assert_eq!(s.sig_passes, 1, "only (hot, items) reaches a candidate test");
    cache.answer_batch(&batch);
    assert_eq!(cache.session().oracle().stats().queries, asked, "repeats ask nothing");

    // The library decision for one pair: the candidate tests plus the
    // completeness certificate that the engine, routing verified
    // candidates only, never needs.
    let session = RewritePlanner::default().session();
    let p = parse_xpath("a[b]//*/e[d]").unwrap();
    let v = parse_xpath("a[b]/*").unwrap();
    let (answer, stats) = session.decide_with_stats(&p, &v);
    println!(
        "decide: {} equivalence test(s), {} coNP loop(s), certificate found: {}",
        stats.candidate_tests.equivalence_tests, stats.canonical_runs, stats.condition_found
    );
    println!("rewriting: {}", answer.rewriting().expect("figure-2 instance rewrites"));
}
