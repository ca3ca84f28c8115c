//! The caching scenario that motivates the paper (Section 1): a server keeps
//! materialized XPath views; incoming queries are answered from the cache
//! whenever an *equivalent* rewriting exists, with complete (not
//! best-effort) rewritability decisions.
//!
//! ```sh
//! cargo run --example xml_cache
//! ```

use xpath_views::engine::Route;
use xpath_views::prelude::*;
use xpath_views::workload::{site_catalog, site_doc};

fn main() {
    // A synthetic XMark-shaped auction site (see xpv-workload).
    let doc = site_doc(8, 12, 42);
    println!("document: {} nodes", doc.len());

    let catalog = site_catalog();
    let cache = ShardedViewCache::new(doc);
    for (name, def) in &catalog.views {
        let n = cache.add_view(name, def.clone());
        println!("materialized view {name:<14} = {def:<40} ({n} answers)");
    }

    println!("\n{:<22} {:>8} {:<12} rewriting", "query", "answers", "route");
    for (name, query) in &catalog.queries {
        let answer = cache.answer(query);
        // Every answer must equal direct evaluation — the cache is sound.
        assert_eq!(answer.nodes, cache.answer_direct(query), "cache soundness for {name}");
        let (route, rw) = match &answer.route {
            Route::ViaView { view, rewriting } => (format!("view:{view}"), rewriting.clone()),
            Route::Intersect { views, compensation } => {
                (format!("∩{views:?}"), compensation.clone())
            }
            Route::Direct => ("direct".to_string(), String::new()),
        };
        println!("{name:<22} {:>8} {route:<12} {rw}", answer.nodes.len());
    }

    let stats = cache.stats();
    println!("\ncache stats: {stats}");
    assert!(stats.view_hits >= 3, "the catalog is built to hit the cache");
}
