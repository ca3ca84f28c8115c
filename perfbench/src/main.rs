//! `xpv-perfbench` — the repository's benchmark.
//!
//! ```text
//! xpv-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! xpv-perfbench [--seed <n>] [--seconds <s>] [--trace <0|1>]      all workloads, one process each
//! xpv-perfbench --repeat-check [--seed <n>] [--seconds <s>]       the suite twice, compared
//! xpv-perfbench --list
//! ```
//!
//! With `--workload`, the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `README.md` beside this package for what the numbers mean.

mod adapter;
mod gen;
mod json;
mod machine;
mod metrics;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Value;
use metrics::{Better, Metric};
use run::{Options, Report};
use workloads::{Spec, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    repeat_check: bool,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15,
        trace: false,
        out: None,
        repeat_check: false,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--repeat-check" => args.repeat_check = true,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// `<target dir>/benchmark`: the one place a run writes to. The target
/// directory is where cargo put this executable, so it lies inside the
/// checkout whether or not `CARGO_TARGET_DIR` is set. A copy of the
/// executable elsewhere refuses to run rather than write beside itself.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent()
        .filter(|profile| profile.ends_with("release"))
        .and_then(Path::parent)
        .map(|target| target.join("benchmark"))
        .ok_or_else(|| format!("{} is not in a cargo target directory", exe.display()))
}

fn frozen_counts(spec: &Spec) -> Value {
    Value::obj(vec![
        ("callers", Value::Num(spec.callers as f64)),
        ("queries_per_batch", Value::Num(spec.batch as f64)),
        ("batches_per_caller_per_round", Value::Num(spec.batches_per_caller as f64)),
        ("steps_per_round", Value::Num(spec.steps_per_round as f64)),
        ("edits_per_batch", Value::Num(workloads::EDITS_PER_BATCH as f64)),
        ("hot_queries", Value::Num(workloads::HOT_QUERIES as f64)),
    ])
}

fn metric_value(metric: &Metric, value: f64) -> (String, Value) {
    (
        metric.name.to_string(),
        Value::obj(vec![("value", Value::Num(value)), ("unit", Value::str(metric.unit))]),
    )
}

/// The line the driver reads.
fn result_line(report: &Report, trace: bool) -> Value {
    let metrics = if trace {
        report.per_layer.iter().map(|(m, v)| metric_value(m, *v)).collect()
    } else {
        report.end_to_end.iter().map(|(m, s)| metric_value(m, s.value)).collect()
    };
    Value::obj(vec![
        ("correct", Value::Bool(report.failed == 0)),
        ("attempted", Value::Num(report.attempted as f64)),
        ("failed", Value::Num(report.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
}

/// The full record of a run, for `--out`.
fn full_report(opts: &Options, report: &Report) -> Value {
    let end_to_end = report
        .end_to_end
        .iter()
        .map(|(m, s)| {
            (
                m.name.to_string(),
                Value::obj(vec![
                    ("unit", Value::str(m.unit)),
                    ("better", Value::str(m.better.as_str())),
                    ("value", Value::Num(s.value)),
                    ("median", Value::Num(s.median)),
                    ("min", Value::Num(s.min)),
                    ("max", Value::Num(s.max)),
                    ("mad", Value::Num(s.mad)),
                    ("per_round", Value::Arr(s.per_round.iter().map(|&v| Value::Num(v)).collect())),
                ]),
            )
        })
        .collect();
    Value::obj(vec![
        ("workload", Value::str(opts.spec.name)),
        ("why", Value::str(opts.spec.why)),
        ("seed", Value::Num(opts.seed as f64)),
        ("seconds", Value::Num(opts.seconds as f64)),
        ("traced", Value::Bool(opts.trace)),
        ("machine", machine::describe()),
        ("counts", frozen_counts(opts.spec)),
        ("document_nodes", Value::Num(report.doc_nodes as f64)),
        ("rounds", Value::Num(report.rounds as f64)),
        ("attempted", Value::Num(report.attempted as f64)),
        ("failed", Value::Num(report.failed as f64)),
        ("end_to_end", Value::Obj(end_to_end)),
        (
            "per_layer",
            Value::Obj(report.per_layer.iter().map(|(m, v)| metric_value(m, *v)).collect()),
        ),
    ])
}

fn print_report(opts: &Options, report: &Report) {
    println!(
        "{}: seed {} · {} rounds · {} document nodes · {} operations, {} failed",
        opts.spec.name, opts.seed, report.rounds, report.doc_nodes, report.attempted, report.failed
    );
    for (m, s) in &report.end_to_end {
        println!(
            "  {:<22} {:>14.3} {:<4} (median {:.3} min {:.3} max {:.3} mad {:.3}, {} rounds, {} is better)",
            m.name,
            s.value,
            m.unit,
            s.median,
            s.min,
            s.max,
            s.mad,
            s.per_round.len(),
            m.better.as_str()
        );
    }
    for (m, v) in &report.per_layer {
        println!("  {:<40} {:>14.4} {}", m.name, v, m.unit);
    }
    if !report.span_table.is_empty() {
        println!("  {:<28} {:>8} {:>12} {:>12}", "span", "count", "total ms", "self ms");
        for (name, count, total, own) in &report.span_table {
            println!("  {name:<28} {count:>8} {total:>12.2} {own:>12.2}");
        }
    }
    if let Some(path) = &report.trace_file {
        println!("  spans written to {}", path.display());
    }
}

fn run_one(spec: &'static Spec, args: &Args) -> Result<ExitCode, String> {
    let opts = Options {
        spec,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch: scratch_dir()?,
    };
    let report = run::run(&opts)?;
    print_report(&opts, &report);
    if let Some(out) = &args.out {
        std::fs::write(out, full_report(&opts, &report).to_json() + "\n")
            .map_err(|e| format!("write {}: {e}", out.display()))?;
    }
    println!("{}", result_line(&report, args.trace).to_json());
    Ok(if report.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Runs one workload in a child process (its own allocator state, its own
/// memory high-water mark) and returns the metrics of its result line.
fn run_child(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} exited with {}: {}{}",
            spec.name,
            out.status,
            stdout,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let line = stdout.lines().last().ok_or("no output")?;
    let result = json::parse(line)?;
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        return Err(format!("{}: no metrics in {line}", spec.name));
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// Per workload, the metrics of one run by name.
type SuiteRun = Vec<(&'static str, Vec<(String, f64)>)>;

fn run_suite(seed: u64, seconds: u64, trace: bool) -> Result<SuiteRun, String> {
    let mut all = Vec::new();
    for spec in &WORKLOADS {
        let metrics = run_child(spec, seed, seconds, trace)?;
        println!("{}", spec.name);
        for (name, value) in &metrics {
            println!("  {name:<40} {value:>16.4}");
        }
        all.push((spec.name, metrics));
    }
    Ok(all)
}

/// The bounds of `BENCHMARK.json` in the working directory.
fn read_bounds() -> Result<Vec<(String, Better, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let manifest = json::parse(&text)?;
    manifest
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).ok_or("metric without a name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = m.get("bound").and_then(Value::as_f64).ok_or("metric without a bound")?;
            Ok((name.to_string(), better, bound))
        })
        .collect()
}

/// Two back-to-back runs of the untraced suite agree when, for every
/// metric on every workload, the second is not worse than the first by
/// more than the metric's bound, nor the first worse than the second.
fn repeat_check(args: &Args) -> Result<ExitCode, String> {
    let bounds = read_bounds()?;
    let first = run_suite(args.seed, args.seconds, false)?;
    let second = run_suite(args.seed, args.seconds, false)?;
    let mut disagreements = 0;
    println!(
        "{:<12} {:<20} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        for (name, better, bound) in &bounds {
            let find = |run: &[(String, f64)]| run.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            let (Some(x), Some(y)) = (find(a), find(b)) else {
                return Err(format!("{workload}: metric {name} missing from a run"));
            };
            let (best, worst) = match better {
                Better::Lower => (x.min(y), x.max(y)),
                Better::Higher => (x.max(y), x.min(y)),
            };
            let worse = ((worst - best) / best).abs();
            let ok = worse <= *bound;
            disagreements += usize::from(!ok);
            println!(
                "{workload:<12} {name:<20} {x:>14.3} {y:>14.3} {:>7.1}% {:>5.0}%{}",
                worse * 100.0,
                bound * 100.0,
                if ok { "" } else { "  <-- outside the bound" }
            );
        }
    }
    if disagreements == 0 {
        println!("repeat check passed: every metric on every workload agrees within its bound");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("repeat check FAILED: {disagreements} metric x workload pairs disagree");
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("xpv-perfbench measures optimized builds only: build with --release");
        return ExitCode::from(2);
    }
    let outcome = parse_args().and_then(|args| {
        if args.list {
            for w in &WORKLOADS {
                println!("{:<12} {}", w.name, w.why);
            }
            return Ok(ExitCode::SUCCESS);
        }
        if args.repeat_check {
            return repeat_check(&args);
        }
        match &args.workload {
            Some(name) => {
                let spec = workloads::find(name).ok_or_else(|| {
                    format!("unknown workload {name:?}; --list names the workloads")
                })?;
                run_one(spec, &args)
            }
            None => run_suite(args.seed, args.seconds, args.trace).map(|_| ExitCode::SUCCESS),
        }
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("xpv-perfbench: {message}");
            ExitCode::from(2)
        }
    }
}
