//! End-to-end wire-protocol walkthrough: start an [`AsyncCacheServer`] on
//! a Unix-domain socket, connect a [`WireClient`], answer query batches,
//! apply a document edit over the wire (version-checked), read tenant
//! stats, and drain gracefully.
//!
//! ```text
//! cargo run --example socket_client
//! ```

use std::sync::Arc;

use xpath_views::engine::{AsyncCacheServer, ShardedViewCache};
use xpath_views::maintain::Edit;
use xpath_views::net::WireClient;
use xpath_views::prelude::*;
use xpath_views::workload::{site_doc, site_intersect_catalog};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A cache over the site document with the overlapping-view catalog:
    // some queries hit single views, some need multi-view intersections.
    let catalog = site_intersect_catalog();
    let cache = ShardedViewCache::new(site_doc(6, 6, 4));
    for (name, def) in catalog.views.iter() {
        println!("view {name:<12} = {def}");
        cache.add_view(name, def.clone());
    }
    let cache = Arc::new(cache);

    // Serve it: 2 CPU workers, any number of connections.
    let server = AsyncCacheServer::start(Arc::clone(&cache), 2);
    let path = std::env::temp_dir().join(format!("xpv-example-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    server.listen_unix(&path)?;
    println!("\nserving on unix://{} (window {})", path.display(), server.conn_window());

    // Connect and answer a batch. The handshake grants a credit window;
    // `WireClient` tracks it so pipelined sends self-throttle.
    let mut client = WireClient::connect_unix(&path)?;
    let queries: Vec<Pattern> = catalog.queries.iter().map(|(_, q)| q.clone()).collect();
    let answers = client.answer_batch("example-tenant", &queries)?;
    println!("\nanswers:");
    for (q, a) in queries.iter().zip(&answers) {
        let route = match &a.route {
            Route::Direct => "direct".to_string(),
            Route::ViaView { view, .. } => format!("view {view}"),
            Route::Intersect { views, .. } => format!("intersection {views:?}"),
        };
        println!("  {q}: {} node(s)  [{route}]", a.nodes.len());
    }

    // Update the document over the wire: graft an item under the first
    // region and check the acked version.
    let doc = cache.document();
    let region = *doc
        .children(doc.root())
        .iter()
        .find(|&&n| doc.label(n).name() == "region")
        .expect("site documents have regions");
    let graft = TreeBuilder::root("item", |b| {
        b.leaf("name");
        b.leaf("bids");
    });
    let report = client
        .apply_edits("example-tenant", &[Edit::InsertSubtree { parent: region, subtree: graft }])?
        .expect("valid edit");
    println!(
        "\nedit applied: doc version {} ({} views changed, {} routes dropped)",
        report.doc_version, report.views_changed, report.routes_dropped
    );
    assert_eq!(report.doc_version, cache.doc_version());

    // Post-edit answers stay consistent with the server's own cache.
    let after = client.answer_batch("example-tenant", &queries)?;
    for (q, a) in queries.iter().zip(&after) {
        assert_eq!(a.nodes, cache.answer(q).nodes, "wire and in-process answers agree for {q}");
    }
    println!("post-edit answers verified against the in-process cache");

    // Tenant accounting is shared with the in-process API.
    let stats = client.tenant_stats("example-tenant")?.expect("tenant seen");
    println!(
        "\ntenant stats: {} queries in {} batches, {} edits applied",
        stats.queries, stats.batches, stats.updates_applied
    );

    // Clean close, then graceful server drain.
    client.goodbye()?;
    server.shutdown();
    println!("drained cleanly");
    Ok(())
}
