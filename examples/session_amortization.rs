//! The oracle/session/batch API end to end: repeated traffic against a
//! `ShardedViewCache` is planned once and served from the plan memo thereafter.
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

    // The same sharing, one level down: a PlanningSession memoizes the
    // containment oracle across decide() calls.
    let session = RewritePlanner::default().session();
    let p = parse_xpath("a[b]//*/e[d]").unwrap();
    let v = parse_xpath("a[b]/*").unwrap();
    let (_, first) = session.decide_with_stats(&p, &v);
    let (answer, second) = session.decide_with_stats(&p, &v);
    println!(
        "\nsession: first decide misses={} coNP={}, repeat decide hits={} coNP={}",
        first.memo_misses, first.canonical_runs, second.memo_hits, second.canonical_runs
    );
    assert_eq!(second.canonical_runs, 0);
    println!("rewriting: {}", answer.rewriting().expect("figure-2 instance rewrites"));
}
