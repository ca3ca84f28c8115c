//! `xpv` — command-line front end for the xpath-views library.
//!
//! ```text
//! xpv rewrite  <QUERY> <VIEW>        decide rewritability, print R + certificate
//! xpv intersect <QUERY> <VIEW> <VIEW>...
//!                                    rewrite the query over a multi-view
//!                                    intersection from the given pool
//! xpv contain  <P1> <P2>             decide P1 ⊑ P2 (and the reverse)
//! xpv eval     <QUERY> <FILE.xml>    evaluate a query over a document ('-' = stdin)
//! xpv reduce   <PATTERN>             remove redundant branches
//! xpv figures                        verify the paper's figures
//! xpv listen   (--tcp ADDR | --unix PATH) [--workers N] [--window W]
//!              [--xml FILE] [--view NAME=DEF]...
//!                                    serve the wire protocol until killed
//!                                    (default: the site document with the
//!                                    overlapping-view catalog)
//! xpv client   (--tcp ADDR | --unix PATH) [--tenant T] [--stats] QUERY...
//!                                    answer a query batch over a socket and
//!                                    print nodes + routes
//! xpv stats    (--tcp ADDR | --unix PATH)
//!                                    fetch the server's full metrics
//!                                    snapshot (every family: oracle, cache,
//!                                    tenants, maintain, net, server) and
//!                                    print the text exposition
//! xpv dump     (--tcp ADDR | --unix PATH) [--out FILE] [--traces N]
//!                                    pull the server's flight-recorder
//!                                    artifact — live metrics, watchdog
//!                                    alerts, drained trace spans,
//!                                    config — and print it
//!                                    (or write it to FILE); draining is
//!                                    destructive server-side
//! ```
//!
//! Patterns use the fragment's XPath syntax: `a[b]//c[.//d]/e`.

use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;

use xpath_views::engine::{AsyncCacheServer, ShardedViewCache};
use xpath_views::intersect::{plan_intersection_in, MAX_ARITY, MAX_CANDIDATES};
use xpath_views::net::WireClient;
use xpath_views::prelude::*;
use xpath_views::rewrite::{figure1, figure2, figure3, figure4, NoRewriteReason};
use xpath_views::semantics::remove_redundant_branches;
use xpath_views::workload::{site_doc, site_intersect_catalog};

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage:\n  xpv rewrite <QUERY> <VIEW>\n  xpv intersect <QUERY> <VIEW> <VIEW>...\n  \
         xpv contain <P1> <P2>\n  \
         xpv eval <QUERY> <FILE.xml|->\n  xpv reduce <PATTERN>\n  xpv figures\n  \
         xpv listen (--tcp ADDR | --unix PATH) [--workers N] [--window W] [--xml FILE] \
         [--view NAME=DEF]...\n  \
         xpv client (--tcp ADDR | --unix PATH) [--tenant T] [--stats] QUERY...\n  \
         xpv stats (--tcp ADDR | --unix PATH)\n  \
         xpv dump (--tcp ADDR | --unix PATH) [--out FILE] [--traces N]"
    );
    ExitCode::FAILURE
}

fn parse(label: &str, s: &str) -> Result<Pattern, String> {
    parse_xpath(s).map_err(|e| format!("{label}: {e}"))
}

fn cmd_rewrite(query: &str, view: &str) -> Result<ExitCode, String> {
    let p = parse("query", query)?;
    let v = parse("view", view)?;
    match RewritePlanner::default().decide(&p, &v) {
        RewriteAnswer::Rewriting(rw) => {
            println!("rewriting: {}", rw.pattern());
            println!("method:    {:?}", rw.method);
            if let Some(c) = &rw.condition {
                println!("condition: {c}  [{}]", c.source());
            }
            let rv = compose(rw.pattern(), &v).expect("verified rewriting composes");
            println!("check:     R∘V = {rv} ≡ P");
            Ok(ExitCode::SUCCESS)
        }
        RewriteAnswer::NoRewriting(reason) => {
            match reason {
                NoRewriteReason::ViewDeeperThanQuery => {
                    println!("no rewriting: the view is deeper than the query (Prop 3.1)")
                }
                NoRewriteReason::KNodeLabelClash { query_k_test, view_out_test } => println!(
                    "no rewriting: k-node test {query_k_test} clashes with out(V) test \
                     {view_out_test} (Prop 3.1(3))"
                ),
                NoRewriteReason::CandidatesFailUnderCondition(c) => println!(
                    "no rewriting: natural candidates fail and the instance is covered by \
                     {c} [{}]",
                    c.source()
                ),
            }
            Ok(ExitCode::from(2))
        }
        RewriteAnswer::Unknown(info) => {
            println!(
                "undecided: no completeness condition applies{}",
                if info.no_small_rewriting {
                    "; no rewriting up to the brute-force size budget"
                } else {
                    ""
                }
            );
            Ok(ExitCode::from(3))
        }
    }
}

/// Plans `query` over the intersection of a view pool: picks a small view
/// subset whose node-set intersection supports a verified compensation.
fn cmd_intersect(query: &str, views: &[String]) -> Result<ExitCode, String> {
    let p = parse("query", query)?;
    let pool: Vec<Pattern> = views.iter().map(|v| parse("view", v)).collect::<Result<_, _>>()?;
    let refs: Vec<&Pattern> = pool.iter().collect();
    let session = RewritePlanner::default().session();

    // Report single-view coverage first, so the intersection's added value
    // is visible.
    let singles: Vec<usize> =
        (0..refs.len()).filter(|&i| session.decide(&p, refs[i]).rewriting().is_some()).collect();
    if !singles.is_empty() {
        println!(
            "note: view(s) {:?} already rewrite the query individually",
            singles.iter().map(|&i| views[i].as_str()).collect::<Vec<_>>()
        );
    }

    let (answer, stats) = plan_intersection_in(&session, &p, &refs);
    println!("search:       {stats}");
    match answer {
        Some(ans) => {
            let names: Vec<&str> = ans.views.iter().map(|&i| views[i].as_str()).collect();
            println!("participants: {names:?}");
            println!("intersection: {}", ans.intersection);
            println!("compensation: {}", ans.compensation);
            let rm = compose(&ans.compensation, &ans.intersection)
                .expect("verified compensation composes");
            println!("check:        R∘M = {rm} ≡ P");
            Ok(ExitCode::SUCCESS)
        }
        None => {
            println!(
                "no intersection rewriting found (tree-expressible subsets up to arity \
                 {MAX_ARITY}, budget {MAX_CANDIDATES})"
            );
            Ok(ExitCode::from(2))
        }
    }
}

fn cmd_contain(a: &str, b: &str) -> Result<ExitCode, String> {
    let p1 = parse("P1", a)?;
    let p2 = parse("P2", b)?;
    let fwd = contained(&p1, &p2);
    let bwd = contained(&p2, &p1);
    println!("P1 ⊑ P2: {fwd}");
    println!("P2 ⊑ P1: {bwd}");
    println!(
        "verdict: {}",
        match (fwd, bwd) {
            (true, true) => "equivalent",
            (true, false) => "P1 strictly contained in P2",
            (false, true) => "P2 strictly contained in P1",
            (false, false) => "incomparable",
        }
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_eval(query: &str, file: &str) -> Result<ExitCode, String> {
    let p = parse("query", query)?;
    let xml = if file == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf).map_err(|e| format!("stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?
    };
    let doc = parse_xml(&xml).map_err(|e| format!("{file}: {e}"))?;
    let answers = evaluate(&p, &doc);
    println!("{} answer(s)", answers.len());
    for n in answers {
        println!("{}", to_xml(&doc.subtree(n).0));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_reduce(pattern: &str) -> Result<ExitCode, String> {
    let p = parse("pattern", pattern)?;
    let r = remove_redundant_branches(&p);
    println!("{r}");
    if r.len() < p.len() {
        eprintln!("removed {} redundant node(s)", p.len() - r.len());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_figures() -> Result<ExitCode, String> {
    let f1 = figure1();
    let rv = compose(&f1.r, &f1.v).expect("composes");
    assert!(equivalent(&rv, &f1.p));
    println!("figure 1: R = {} rewrites P = {} using V = {}", f1.r, f1.p, f1.v);
    let f2 = figure2();
    assert!(!equivalent(&compose(&f2.cand_base, &f2.v).expect("composes"), &f2.p));
    assert!(equivalent(&compose(&f2.cand_relaxed, &f2.v).expect("composes"), &f2.p));
    println!("figure 2: P≥1 = {} fails; P≥1_r// = {} succeeds", f2.cand_base, f2.cand_relaxed);
    let f3 = figure3();
    assert!(equivalent(&f3.b, &f3.b_prime) && equivalent(&f3.b, &f3.b_relaxed));
    println!("figure 3: B ≡ B_r// ≡ B′ for B = {}", f3.b);
    let f4 = figure4();
    let planner = RewritePlanner::default();
    for (name, p) in [("P1", &f4.p1), ("P2", &f4.p2), ("P3", &f4.p3)] {
        let r = planner.decide(p, &f4.v).rewriting().expect("rewriting").clone();
        println!("figure 4: {name} = {p} rewritten by {r}");
    }
    println!("all figure claims verified");
    Ok(ExitCode::SUCCESS)
}

/// Knobs for `xpv listen`.
struct ListenOpts {
    tcp: Option<String>,
    unix: Option<String>,
    workers: usize,
    window: Option<u32>,
    xml: Option<String>,
    views: Vec<(String, Pattern)>,
}

impl ListenOpts {
    fn parse(args: &[String]) -> Result<ListenOpts, String> {
        let mut opts = ListenOpts {
            tcp: None,
            unix: None,
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            window: None,
            xml: None,
            views: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
            match flag.as_str() {
                "--tcp" => opts.tcp = Some(value.clone()),
                "--unix" => opts.unix = Some(value.clone()),
                "--workers" => {
                    opts.workers = parse_num(flag, value)?.max(1);
                }
                "--window" => opts.window = Some(parse_num(flag, value)? as u32),
                "--xml" => opts.xml = Some(value.clone()),
                "--view" => {
                    let (name, def) = value
                        .split_once('=')
                        .ok_or_else(|| format!("--view: expected NAME=DEF, got {value}"))?;
                    opts.views.push((name.to_string(), parse("view", def)?));
                }
                other => return Err(format!("unknown listen flag {other}")),
            }
        }
        if opts.tcp.is_none() && opts.unix.is_none() {
            return Err("listen: need --tcp ADDR or --unix PATH".to_string());
        }
        Ok(opts)
    }
}

/// Serves the wire protocol until the process is killed. Without `--xml`
/// / `--view`, serves the site document with the overlapping-view catalog,
/// so a fresh checkout can demo end to end.
fn cmd_listen(args: &[String]) -> Result<ExitCode, String> {
    let opts = ListenOpts::parse(args)?;
    let (doc, views) = match &opts.xml {
        Some(file) => {
            let xml = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            (parse_xml(&xml).map_err(|e| format!("{file}: {e}"))?, opts.views.clone())
        }
        None => {
            let catalog = site_intersect_catalog();
            let mut views = opts.views.clone();
            if views.is_empty() {
                views = catalog.views.iter().map(|(n, d)| (n.to_string(), d.clone())).collect();
            }
            (site_doc(12, 12, 7), views)
        }
    };
    let cache = Arc::new(ShardedViewCache::new(doc));
    for (name, def) in &views {
        let n = cache.add_view(name, def.clone());
        println!("view {name} = {def}  ({n} answers materialized)");
    }
    let server = AsyncCacheServer::start(cache, opts.workers);
    if let Some(window) = opts.window {
        server.set_conn_window(window);
    }
    if let Some(addr) = &opts.tcp {
        let bound = server.listen_tcp(addr).map_err(|e| format!("listen {addr}: {e}"))?;
        println!(
            "listening on tcp://{bound} ({} workers, window {})",
            server.workers(),
            server.conn_window()
        );
    }
    if let Some(path) = &opts.unix {
        let _ = std::fs::remove_file(path);
        server
            .listen_unix(std::path::Path::new(path))
            .map_err(|e| format!("listen {path}: {e}"))?;
        println!(
            "listening on unix://{path} ({} workers, window {})",
            server.workers(),
            server.conn_window()
        );
    }
    loop {
        std::thread::park();
    }
}

/// Knobs for `xpv client`.
struct ClientOpts {
    tcp: Option<String>,
    unix: Option<String>,
    tenant: String,
    stats: bool,
    queries: Vec<Pattern>,
}

impl ClientOpts {
    fn parse(args: &[String]) -> Result<ClientOpts, String> {
        let mut opts = ClientOpts {
            tcp: None,
            unix: None,
            tenant: "cli".to_string(),
            stats: false,
            queries: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--stats" => opts.stats = true,
                "--tcp" | "--unix" | "--tenant" => {
                    let value = it.next().ok_or_else(|| format!("{arg}: missing value"))?;
                    match arg.as_str() {
                        "--tcp" => opts.tcp = Some(value.clone()),
                        "--unix" => opts.unix = Some(value.clone()),
                        _ => opts.tenant = value.clone(),
                    }
                }
                query => opts.queries.push(parse("query", query)?),
            }
        }
        if opts.tcp.is_none() && opts.unix.is_none() {
            return Err("client: need --tcp ADDR or --unix PATH".to_string());
        }
        if opts.queries.is_empty() && !opts.stats {
            return Err("client: need at least one query (or --stats)".to_string());
        }
        Ok(opts)
    }
}

/// Connects to an `xpv listen` server, answers one query batch, and
/// prints each query's node count and serving route.
fn cmd_client(args: &[String]) -> Result<ExitCode, String> {
    let opts = ClientOpts::parse(args)?;
    let mut client = match (&opts.tcp, &opts.unix) {
        (Some(addr), _) => WireClient::connect_tcp(addr).map_err(|e| format!("{addr}: {e}"))?,
        (None, Some(path)) => WireClient::connect_unix(std::path::Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?,
        (None, None) => unreachable!("parse enforces an endpoint"),
    };
    if !opts.queries.is_empty() {
        let answers =
            client.answer_batch(&opts.tenant, &opts.queries).map_err(|e| format!("batch: {e}"))?;
        for (q, a) in opts.queries.iter().zip(&answers) {
            let route = match &a.route {
                Route::Direct => "direct".to_string(),
                Route::ViaView { view, rewriting } => format!("view {view} via {rewriting}"),
                Route::Intersect { views, compensation } => {
                    format!("intersection {views:?} via {compensation}")
                }
            };
            println!("{q}: {} node(s)  [{route}]", a.nodes.len());
        }
    }
    if opts.stats {
        match client.tenant_stats(&opts.tenant).map_err(|e| format!("stats: {e}"))? {
            Some(s) => println!(
                "tenant {}: {} queries in {} batches ({} via views, {} via intersections, \
                 {} direct)",
                opts.tenant, s.queries, s.batches, s.view_hits, s.intersect_hits, s.direct
            ),
            None => println!("tenant {}: not seen by this server yet", opts.tenant),
        }
    }
    client.goodbye().map_err(|e| format!("goodbye: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

/// Endpoint and output knobs shared by `xpv stats` and `xpv dump`.
struct StatsOpts {
    tcp: Option<String>,
    unix: Option<String>,
    /// `xpv dump --out`: write the artifact here instead of stdout.
    out: Option<String>,
    /// `xpv dump --traces`: print at most this many trace spans.
    traces: usize,
}

impl StatsOpts {
    fn parse(args: &[String]) -> Result<StatsOpts, String> {
        let mut opts = StatsOpts { tcp: None, unix: None, out: None, traces: 20 };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
            match flag.as_str() {
                "--tcp" => opts.tcp = Some(value.clone()),
                "--unix" => opts.unix = Some(value.clone()),
                "--out" => opts.out = Some(value.clone()),
                "--traces" => opts.traces = parse_num(flag, value)?,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if opts.tcp.is_none() && opts.unix.is_none() {
            return Err("need --tcp ADDR or --unix PATH".to_string());
        }
        Ok(opts)
    }

    fn connect(&self) -> Result<WireClient, String> {
        match (&self.tcp, &self.unix) {
            (Some(addr), _) => WireClient::connect_tcp(addr).map_err(|e| format!("{addr}: {e}")),
            (None, Some(path)) => WireClient::connect_unix(std::path::Path::new(path))
                .map_err(|e| format!("{path}: {e}")),
            (None, None) => unreachable!("parse enforces an endpoint"),
        }
    }
}

/// Fetches an `xpv listen` server's full metrics snapshot over the
/// `StatsV2` frames and prints the text exposition — every family the
/// server accounts (oracle, cache, per-tenant, maintain, net, server
/// gauges, phase histograms) in one sorted listing.
fn cmd_stats(args: &[String]) -> Result<ExitCode, String> {
    let opts = StatsOpts::parse(args).map_err(|e| format!("stats: {e}"))?;
    let mut client = opts.connect()?;
    let metrics = client.metrics().map_err(|e| format!("stats: {e}"))?;
    print!("{}", metrics.to_text());
    client.goodbye().map_err(|e| format!("goodbye: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

/// Pulls the flight-recorder artifact (`DebugDumpReq`) and renders it as
/// text: watchdog alerts, config state, up to `--traces` drained spans,
/// and the live metric exposition.
/// `--out FILE` writes the rendering to a file instead of stdout.
fn cmd_dump(args: &[String]) -> Result<ExitCode, String> {
    use std::fmt::Write as _;

    let opts = StatsOpts::parse(args).map_err(|e| format!("dump: {e}"))?;
    let mut client = opts.connect()?;
    let dump = client.debug_dump().map_err(|e| format!("dump: {e}"))?;
    client.goodbye().map_err(|e| format!("goodbye: {e}"))?;

    let mut text = String::new();
    let _ = writeln!(text, "# xpv flight-recorder dump");
    let _ = writeln!(text, "\n## alerts ({})", dump.alerts.len());
    for a in &dump.alerts {
        let state = if a.firing { "FIRING" } else { "ok" };
        let _ = writeln!(
            text,
            "{:<24} {:<16} {:<7} fired_total={} since_tick={} {}",
            a.name, a.kind, state, a.fired_total, a.since_tick, a.detail
        );
    }
    let _ = writeln!(text, "\n## config");
    for (k, v) in &dump.config {
        let _ = writeln!(text, "{k} = {v}");
    }
    let shown = dump.traces.len().min(opts.traces);
    let _ = writeln!(text, "\n## traces ({} drained, showing {shown})", dump.traces.len());
    for t in dump.traces.iter().take(opts.traces) {
        let phases: Vec<String> =
            t.phases.iter().map(|(p, us)| format!("{}={us}us", p.as_str())).collect();
        let _ = writeln!(text, "{:<16} {:>8}us  {}", t.kind, t.total_us, phases.join(" "));
    }
    let _ = writeln!(text, "\n## metrics");
    let _ = write!(text, "{}", dump.metrics.to_text());

    match &opts.out {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("dump: {path}: {e}"))?;
            println!("wrote {path} ({} alerts, {} traces)", dump.alerts.len(), dump.traces.len());
        }
        None => print!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn parse_num(flag: &str, value: &str) -> Result<usize, String> {
    value.parse::<usize>().map_err(|e| format!("{flag}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [cmd, q, v] if cmd == "rewrite" => cmd_rewrite(q, v),
        [cmd, q, views @ ..] if cmd == "intersect" && views.len() >= 2 => cmd_intersect(q, views),
        [cmd, a, b] if cmd == "contain" => cmd_contain(a, b),
        [cmd, q, f] if cmd == "eval" => cmd_eval(q, f),
        [cmd, p] if cmd == "reduce" => cmd_reduce(p),
        [cmd] if cmd == "figures" => cmd_figures(),
        [cmd, rest @ ..] if cmd == "listen" => cmd_listen(rest),
        [cmd, rest @ ..] if cmd == "client" => cmd_client(rest),
        [cmd, rest @ ..] if cmd == "stats" => cmd_stats(rest),
        [cmd, rest @ ..] if cmd == "dump" => cmd_dump(rest),
        _ => return fail("expected a subcommand"),
    };
    match result {
        Ok(code) => code,
        Err(msg) => fail(&msg),
    }
}
