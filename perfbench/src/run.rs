//! One run of one workload: set-up, warm-up, timed rounds, checks, the
//! write tail, and — in the trace pass — the per-layer ledger.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::adapter::{self, Counter, Counters, Phase, PhaseSums};
use crate::metrics::{self, Metric};
use crate::stats::{fastest_eighth, median, percentile, share, summarize, Summary};
use crate::workloads::{
    self, Fixture, Mirror, Round, Spec, Stream, Tally, TraceTally, Transport, EDITS_PER_BATCH,
    MIN_ROUNDS, SETUP_BUDGET, SETUP_REPEATS, SETUP_REPEATS_MAX,
};

pub struct Options {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Directory for the socket and the trace file, inside the checkout.
    pub scratch: PathBuf,
}

/// What a run measured.
pub struct Report {
    /// Query answers and edit batches requested after set-up, and how many
    /// of them errored, were rejected, or differed from the reference.
    pub attempted: u64,
    pub failed: u64,
    pub rounds: usize,
    pub doc_nodes: usize,
    pub end_to_end: Vec<(Metric, Summary)>,
    /// Empty unless the run traced.
    pub per_layer: Vec<(Metric, f64)>,
    pub span_table: Vec<(String, u64, f64, f64)>,
    pub trace_file: Option<PathBuf>,
}

/// The untraced timed rounds of a run, and the figures the run reports.
///
/// Rounds are short (half a second, some thirty to a run) and the run's
/// read figures come from the **fastest eighth** of them, because of the
/// machine. The benchmark's box is a two-core guest on a shared host, and
/// for spells of 5 to 20 seconds, in some quarters of an hour and not in
/// others, everything on it runs 40 % slower (no steal time is reported;
/// a neighbour on the sibling hyperthreads would look like this). Rounds
/// of identical work then fall into two modes that each repeat within a
/// few percent: `hot_large` 9.4k and 5.5k queries/s, `cold_plan` 1.55k and
/// 0.92k. Over eight such runs the median of the rounds spread (quartile
/// distance over median) by 26 and 45 %, their fastest quarter by 14 and
/// 13 %, their fastest eighth by 11 %; what is left are the runs that
/// never saw the fast mode. On a quiet box all rules agree within 3 %.
/// The disturbance only ever slows a round, so the fastest rounds are the
/// undisturbed ones; an eighth of them rather than the fastest alone, so
/// that one lucky round does not decide a run and the latency percentiles
/// have a few hundred batches under them.
#[derive(Default)]
struct Series {
    wall_s: Vec<f64>,
    correct: Vec<f64>,
    /// Latency of every read batch of the round, microseconds.
    batch_us: Vec<Vec<f64>>,
}

impl Series {
    fn push(&mut self, round: &Round) {
        let t = &round.tally;
        self.wall_s.push(round.wall.as_secs_f64());
        self.correct.push((t.answers - t.failed) as f64);
        self.batch_us.push(t.batch_us.clone());
    }

    /// Correct answers over the round's wall time, per round — in
    /// `edit_mix` that wall includes the edit batches, which is how a
    /// slower maintainer shows end to end.
    fn queries_per_s(&self) -> Vec<f64> {
        self.correct.iter().zip(&self.wall_s).map(|(&n, &s)| share(n, s)).collect()
    }

    /// The `q`-quantile of each round's read batches.
    fn batch_us(&self, q: f64) -> Vec<f64> {
        self.batch_us.iter().map(|lat| percentile(&mut lat.clone(), q)).collect()
    }

    /// Throughput, and batch p50, p95 and p99, over the fastest eighth of
    /// the rounds, their batches pooled. Every round does the same work,
    /// so the shortest wall time is the fastest round.
    fn figures(&self) -> [f64; 4] {
        let kept = fastest_eighth(&self.wall_s);
        let sum = |v: &[f64]| kept.iter().map(|&i| v[i]).sum::<f64>();
        let mut pooled: Vec<f64> =
            kept.iter().flat_map(|&i| self.batch_us[i].iter().copied()).collect();
        [
            share(sum(&self.correct), sum(&self.wall_s)),
            percentile(&mut pooled, 0.50),
            percentile(&mut pooled, 0.95),
            percentile(&mut pooled, 0.99),
        ]
    }
}

/// Everything the trace pass adds up on the side.
#[derive(Default)]
struct Ledger {
    /// Engine counters over all timed rounds, and over the traced ones.
    counters: Counters,
    traced_counters: Counters,
    /// Server-side phase sums over all timed rounds.
    phases: PhaseSums,
    /// Latency of every timed edit batch, milliseconds.
    edit_ms: Vec<f64>,
    traced: Option<TraceTally>,
    traced_answers: u64,
    traced_batches: u64,
    traced_edit_batches: u64,
    /// All read round trips of the timed rounds, microseconds.
    rtt_sum_us: f64,
    read_batches: u64,
    traced_qps: Vec<f64>,
}

/// Every timed set-up of a run.
#[derive(Default)]
struct SetUps {
    seconds: Vec<f64>,
    add_view_ms: Vec<f64>,
}

impl SetUps {
    /// One window of timed set-ups: at least [`SETUP_REPEATS`], and up to
    /// [`SETUP_REPEATS_MAX`] while [`SETUP_BUDGET`] lasts. Returns the last
    /// fixture; the earlier ones are torn down.
    fn time(&mut self, opts: &Options) -> Result<Fixture, String> {
        let started = Instant::now();
        let mut fixtures = 0;
        let mut fixture: Option<Fixture> = None;
        while fixtures < SETUP_REPEATS
            || (fixtures < SETUP_REPEATS_MAX && started.elapsed() < SETUP_BUDGET)
        {
            if let Some(previous) = fixture.take() {
                workloads::tear_down(previous);
            }
            let socket = workloads::socket_path(&opts.scratch, self.seconds.len())?;
            let t = Instant::now();
            let f = workloads::set_up(opts.spec, opts.seed, opts.seconds, &socket)?;
            self.seconds.push(t.elapsed().as_secs_f64());
            self.add_view_ms.push(f.add_view_ms);
            fixture = Some(f);
            fixtures += 1;
        }
        Ok(fixture.expect("SETUP_REPEATS > 0"))
    }

    /// The run's set-up time: the mean of the fastest eighth of the
    /// repeats, by the rule of [`Series`].
    fn figure(&self) -> f64 {
        let kept = fastest_eighth(&self.seconds);
        share(kept.iter().map(|&i| self.seconds[i]).sum(), kept.len() as f64)
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let spec = opts.spec;
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("create {}: {e}", opts.scratch.display()))?;

    let mut set_ups = SetUps::default();
    let mut fixture = set_ups.time(opts)?;
    let doc_nodes = adapter::tree_len(&fixture.inputs.doc);

    let reference = workloads::reference_answers(&fixture.inputs, &fixture.inputs.doc);
    let expected_len: Vec<usize> = reference.iter().map(Vec::len).collect();
    let mut mirror = Mirror { doc: fixture.inputs.doc.clone(), next_edit: 0 };
    let mut steps_done = 0usize;
    let epoch = Instant::now();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut count = |tally: &Tally| {
        attempted += tally.answers + tally.edit_batches;
        failed += tally.failed + tally.edit_failed;
    };

    // One round of the workload, on the engine the round should use.
    let play = |fixture: &mut Fixture,
                mirror: &mut Mirror,
                steps_done: &mut usize,
                trace: Option<Instant>|
     -> Round {
        if spec.stream == Stream::Cold {
            // Built outside the timed round: a cold round measures plan
            // misses, not registration.
            fixture.engine = workloads::fresh_engine(&fixture.inputs);
        }
        if spec.steps_per_round > 0 {
            workloads::step_round(spec, fixture, mirror, steps_done, trace)
        } else {
            let engine = fixture.engine.clone();
            workloads::read_round(spec, spec.transport, fixture, &engine, &expected_len, trace)
        }
    };
    // Every distinct answer, node for node, against `reference`.
    let verify = |fixture: &mut Fixture, reference: &[Vec<adapter::NodeId>]| {
        let engine = fixture.engine.clone();
        let (checked, wrong) = workloads::verify_all(spec, fixture, &engine, reference);
        Tally { answers: checked, failed: wrong, ..Tally::default() }
    };

    // Warm-up: one untimed round, then the full check. (`edit_mix` has
    // moved its document by then; its rounds check themselves against the
    // mirror, and the full check follows the last round.)
    let warm = play(&mut fixture, &mut mirror, &mut steps_done, None);
    count(&warm.tally);
    if spec.steps_per_round == 0 {
        count(&verify(&mut fixture, &reference));
    }

    // Timed rounds; in the trace pass every second one is traced.
    let mut series = Series::default();
    let mut ledger = Ledger::default();
    let mut measured = Duration::ZERO;
    let budget = Duration::from_secs(opts.seconds);
    let mut rounds = 0usize;
    while measured < budget || rounds < MIN_ROUNDS {
        let traced = opts.trace && rounds % 2 == 1;
        let before = (fixture.engine.counters(), fixture.engine.phase_sums());
        let round = play(&mut fixture, &mut mirror, &mut steps_done, traced.then_some(epoch));
        if (round.tally.edit_batches as usize) < spec.steps_per_round {
            // The edit stream ran out mid-round: drop the partial round.
            break;
        }
        let delta = match spec.stream {
            // A fresh engine replaced the one `before` was read from.
            Stream::Cold => fixture.engine.counters(),
            Stream::Hot => fixture.engine.counters().since(&before.0),
        };
        ledger.counters.add(&delta);
        if spec.stream == Stream::Hot {
            ledger.phases.add(&fixture.engine.phase_sums().since(&before.1));
        }
        measured += round.wall;
        rounds += 1;
        count(&round.tally);
        ledger.rtt_sum_us += round.tally.batch_us.iter().sum::<f64>();
        ledger.read_batches += round.tally.batch_us.len() as u64;
        ledger.edit_ms.extend_from_slice(&round.tally.edit_ms);
        if traced {
            let t = &round.tally;
            ledger.traced_qps.push(share((t.answers - t.failed) as f64, round.wall.as_secs_f64()));
            ledger.traced_counters.add(&delta);
            ledger.traced_answers += round.tally.answers;
            ledger.traced_batches += round.tally.batch_us.len() as u64;
            ledger.traced_edit_batches += round.tally.edit_batches;
        } else {
            series.push(&round);
        }
        TraceTally::merge(&mut ledger.traced, round.tally.trace);
    }

    // After the rounds: every distinct answer in full again, against the
    // document as the edits (if any) left it.
    let peak_rss = peak_rss_mib();
    let now = workloads::reference_answers(&fixture.inputs, &mirror.doc);
    count(&verify(&mut fixture, &now));

    // A second window of set-ups, a run's length after the first: a slow
    // spell of the machine seldom covers both. (The peak memory has been
    // read, so the spare fixtures do not count.)
    workloads::tear_down(set_ups.time(opts)?);

    let [queries_per_s, batch_p50_us, ..] = series.figures();
    let figures: [(f64, &[f64]); 4] = [
        (set_ups.figure(), &set_ups.seconds),
        (queries_per_s, &series.queries_per_s()),
        (batch_p50_us, &series.batch_us(0.50)),
        (peak_rss, &[peak_rss]),
    ];
    let end_to_end = metrics::END_TO_END
        .iter()
        .zip(figures)
        .map(|(m, (value, per_round))| (*m, summarize(value, per_round)))
        .collect();

    let mut report = Report {
        attempted,
        failed,
        rounds,
        doc_nodes,
        end_to_end,
        per_layer: Vec::new(),
        span_table: Vec::new(),
        trace_file: None,
    };
    if opts.trace {
        trace_pass(
            opts,
            &mut fixture,
            &mut ledger,
            &expected_len,
            &series,
            median(&set_ups.add_view_ms),
            &mut report,
        )?;
    }
    workloads::tear_down(fixture);
    Ok(report)
}

/// Probes, derived ratios, the span file. The operations the probes
/// attempt and fail are added to the report's.
fn trace_pass(
    opts: &Options,
    fixture: &mut Fixture,
    ledger: &mut Ledger,
    expected_len: &[usize],
    series: &Series,
    add_view_ms: f64,
    report: &mut Report,
) -> Result<(), String> {
    let spec = opts.spec;
    let wire = spec.transport == Transport::Wire;
    let mut m: Vec<(Metric, f64)> = Vec::new();
    let c = ledger.counters;
    let get = |k: Counter| c.get(k) as f64;
    let traced = ledger.traced.take();
    let spans = traced.as_ref().map(|t| t.spans.by_name()).unwrap_or_default();

    // --- pattern, semantics, core: standalone probes on this workload's
    // own queries and views.
    let inputs = &fixture.inputs;
    let sample: Vec<adapter::Pattern> = inputs.queries.iter().take(96).cloned().collect();
    let texts: Vec<&str> = inputs.specs.iter().take(96).map(|q| q.text.as_str()).collect();
    let views: Vec<adapter::Pattern> = inputs.pool.iter().map(|(_, v)| v.clone()).collect();
    let passes = adapter::signature_passes(&sample, &views);
    m.push((metrics::PATTERN_PARSE_US, adapter::probe_parse_us(&texts, 20)));
    m.push((metrics::PATTERN_SIG_US, adapter::probe_signature_us(&sample, &views, 50)));
    m.push((
        metrics::PATTERN_SIG_REJECT_SHARE,
        share(get(Counter::SigRejects), get(Counter::SigRejects) + get(Counter::SigPasses)),
    ));
    m.push((
        metrics::SEMANTICS_CONTAIN_US,
        adapter::probe_containment_us(&sample, &views, &passes, 3),
    ));
    m.push((metrics::CORE_DECIDE_US, adapter::probe_decide_us(&sample, &views, &passes, 3)));
    let distinct: Vec<adapter::Pattern> = inputs.queries.iter().take(48).cloned().collect();
    m.push((
        metrics::SEMANTICS_EVAL_FLAT_PROBE_US,
        adapter::probe_eval_flat_us(&distinct, &inputs.doc, 2),
    ));
    let (freeze_us, clone_us) = adapter::probe_freeze_and_clone_us(&inputs.doc, 5);
    m.push((metrics::MODEL_FREEZE_US, freeze_us));
    m.push((metrics::MODEL_TREE_CLONE_US, clone_us));

    // --- program-made numbers of the timed rounds.
    let phases = ledger.phases;
    let phase_mean = |p: Phase| share(phases.get(p).1 as f64, phases.get(p).0 as f64);
    let tc = ledger.traced_counters;
    let (eval_us, plan_us_per_miss, overhead_us) = match (&traced, wire) {
        // In process the answers carry their own timings, to the
        // nanosecond; the engine's share of a batch that is neither is the
        // self time of the benchmark's span around the call.
        (Some(t), false) => (
            share(t.reported.evaluation.as_nanos() as f64 / 1e3, t.reported.evaluated as f64),
            share(t.reported.planning.as_nanos() as f64 / 1e3, tc.get(Counter::MemoMisses) as f64),
            spans
                .get("engine.answer_batch")
                .map_or(0.0, |s| share(s.self_ns as f64 / 1e3, s.count as f64)),
        ),
        // Over the wire only the server's histograms see inside.
        _ => (
            phase_mean(Phase::Eval),
            0.0,
            share(
                phases.get(Phase::Batch).1 as f64
                    - phases.get(Phase::Plan).1 as f64
                    - phases.get(Phase::Eval).1 as f64,
                phases.get(Phase::Batch).0 as f64,
            ),
        ),
    };
    m.push((metrics::SEMANTICS_EVAL_US, eval_us));
    m.push((
        metrics::SEMANTICS_CANONICAL_RUNS,
        share(get(Counter::CanonicalRuns) * 1e3, get(Counter::Queries)),
    ));
    m.push((
        metrics::SEMANTICS_ORACLE_MEMO_HIT_SHARE,
        share(get(Counter::OracleMemoHits), get(Counter::OracleQueries)),
    ));
    m.push((metrics::CORE_PLAN_US_PER_MISS, plan_us_per_miss));
    m.push((
        metrics::INTERSECT_CANDIDATES_PER_ROUTE,
        share(get(Counter::IntersectCandidates), get(Counter::IntersectRoutes)),
    ));
    m.push((
        metrics::INTERSECT_ROUTE_SHARE,
        share(get(Counter::IntersectRoutes), get(Counter::MemoMisses)),
    ));
    let t = traced.as_ref();
    m.push((
        metrics::MODEL_ANSWER_NODES,
        t.map_or(0.0, |t| share(t.answer_nodes as f64, ledger.traced_answers as f64)),
    ));
    m.push((
        metrics::MODEL_ARENA_NODES,
        t.map_or(0.0, |t| share(t.arena_nodes as f64, ledger.traced_batches as f64)),
    ));

    // --- maintenance, over the edit batches of the timed rounds.
    let edit_batches = ledger.edit_ms.len() as f64;
    let phase_us = [
        Counter::MaintainApplyUs,
        Counter::MaintainFreezeUs,
        Counter::MaintainCoalesceUs,
        Counter::MaintainScanUs,
        Counter::MaintainPatchUs,
    ]
    .map(get);
    for (metric, us) in metrics::MAINTAIN_PHASE_US.iter().zip(phase_us) {
        m.push((*metric, share(us, edit_batches)));
    }
    let edit_wall_us = ledger.edit_ms.iter().sum::<f64>() * 1e3;
    let unaccounted =
        if edit_wall_us > 0.0 { 1.0 - phase_us.iter().sum::<f64>() / edit_wall_us } else { 0.0 };
    m.push((metrics::MAINTAIN_UNACCOUNTED_SHARE, unaccounted));
    m.push((metrics::MAINTAIN_REGIONS_SCANNED, share(get(Counter::RegionsScanned), edit_batches)));
    m.push((
        metrics::MAINTAIN_SCANS_SAVED_SHARE,
        share(get(Counter::ScansSaved), get(Counter::RegionsBeforeMerge)),
    ));
    m.push((
        metrics::MAINTAIN_LABEL_SKIP_SHARE,
        share(get(Counter::LabelSkips), get(Counter::ViewEditChecks)),
    ));

    // --- engine.
    m.push((metrics::ENGINE_MEMO_HIT_SHARE, share(get(Counter::MemoHits), get(Counter::Queries))));
    m.push((metrics::ENGINE_DEDUP_SHARE, share(get(Counter::DedupHits), get(Counter::Queries))));
    m.push((
        metrics::ENGINE_ROUTE_VIEW_SHARE,
        share(get(Counter::ViewHits), get(Counter::Queries)),
    ));
    m.push((
        metrics::ENGINE_ROUTE_INTERSECT_SHARE,
        share(get(Counter::IntersectHits), get(Counter::Queries)),
    ));
    m.push((
        metrics::ENGINE_ROUTE_DIRECT_SHARE,
        share(get(Counter::Direct), get(Counter::Queries)),
    ));
    m.push((metrics::ENGINE_OVERHEAD_US, overhead_us));
    m.push((
        metrics::ENGINE_ROUTES_DROPPED,
        t.map_or(0.0, |t| share(t.routes_dropped as f64, ledger.traced_edit_batches as f64)),
    ));
    m.push((
        metrics::ENGINE_READ_AFTER_EDIT_P50_US,
        t.map_or(0.0, |t| percentile(&mut t.after_edit_us.clone(), 0.5)),
    ));
    m.push((metrics::ENGINE_ADD_VIEW_MS, add_view_ms));

    // --- net: frame probes on this workload's own batches, then the
    // server's phases and the ledger of a round trip.
    let frames: Vec<Vec<adapter::Pattern>> =
        fixture.inputs.callers[0].iter().take(24).map(|b| b.patterns.clone()).collect();
    let (encode_query_us, decode_query_us) = adapter::probe_query_frame_us(&frames, 5);
    let (encode_answers_us, decode_answers_us, answer_bytes) =
        adapter::probe_answer_frame(&fixture.engine, &frames, 3);
    m.push((metrics::NET_ENCODE_QUERY_US, encode_query_us));
    m.push((metrics::NET_DECODE_QUERY_US, decode_query_us));
    m.push((metrics::NET_ENCODE_ANSWERS_US, encode_answers_us));
    m.push((metrics::NET_DECODE_ANSWERS_US, decode_answers_us));
    m.push((metrics::NET_ANSWER_BYTES, answer_bytes));
    let mut rtt_floor = workloads::rtt_floor_us(fixture, 2000);
    m.push((metrics::NET_RTT_FLOOR_US, percentile(&mut rtt_floor, 0.5)));
    let (mut wire_overhead, mut unaccounted) = (0.0, 0.0);
    if wire {
        // The same batches, same callers, straight into the server's engine.
        let engine = fixture.engine.clone();
        let direct =
            workloads::read_round(spec, Transport::InProcess, fixture, &engine, expected_len, None);
        report.attempted += direct.tally.answers;
        report.failed += direct.tally.failed;
        let in_process_p50 = percentile(&mut direct.tally.batch_us.clone(), 0.5);
        wire_overhead = median(&series.batch_us(0.50)) - in_process_p50;
        let client_us = ledger.read_batches as f64 * (encode_query_us + decode_answers_us);
        let server_us: u64 = [Phase::Admission, Phase::Batch, Phase::Encode, Phase::Flush]
            .iter()
            .map(|&p| phases.get(p).1)
            .sum();
        unaccounted = 1.0 - share(client_us + server_us as f64, ledger.rtt_sum_us);
    }
    m.push((metrics::NET_ADMISSION_US, if wire { phase_mean(Phase::Admission) } else { 0.0 }));
    m.push((metrics::NET_SERVER_BATCH_US, if wire { phase_mean(Phase::Batch) } else { 0.0 }));
    m.push((metrics::NET_SERVER_ENCODE_US, if wire { phase_mean(Phase::Encode) } else { 0.0 }));
    m.push((metrics::NET_FLUSH_US, if wire { phase_mean(Phase::Flush) } else { 0.0 }));
    m.push((metrics::NET_WIRE_OVERHEAD_US, wire_overhead));
    m.push((metrics::NET_UNACCOUNTED_SHARE, unaccounted));
    let mut paced = workloads::Paced::default();
    if spec.paced_probe {
        paced = workloads::paced_probe(fixture, Duration::from_millis(1), Duration::from_secs(3));
        report.attempted += (paced.latency_us.len() as u64 + paced.failed) * spec.batch as u64;
        report.failed += paced.failed * spec.batch as u64;
    }
    m.push((metrics::NET_PACED_P50_US, percentile(&mut paced.latency_us, 0.50)));
    m.push((metrics::NET_PACED_P95_US, percentile(&mut paced.latency_us, 0.95)));
    m.push((metrics::NET_PACED_MAX_US, percentile(&mut paced.latency_us, 1.0)));
    m.push((metrics::NET_PACED_LATE_MAX_US, paced.late_max_us));

    // --- obs, and the benchmark's own tracing.
    let (span_ns, record_ns, snapshot_us) = adapter::probe_obs(&fixture.engine, 200);
    m.push((metrics::OBS_SPAN_DISABLED_NS, span_ns));
    m.push((metrics::OBS_HISTOGRAM_RECORD_NS, record_ns));
    m.push((metrics::OBS_SNAPSHOT_US, snapshot_us));
    let untraced = median(&series.queries_per_s());
    m.push((
        metrics::BENCH_TRACE_OVERHEAD_SHARE,
        share(untraced - median(&ledger.traced_qps), untraced),
    ));

    // --- printed, not gated: moved here from the end-to-end list.
    let [.., batch_p95_us, batch_p99_us] = series.figures();
    m.push((metrics::BATCH_P95_US, batch_p95_us));
    m.push((metrics::BATCH_P99_US, batch_p99_us));
    let edits = ledger.edit_ms.len() as f64 * EDITS_PER_BATCH as f64;
    m.push((metrics::EDITS_PER_S, share(edits, ledger.edit_ms.iter().sum::<f64>() / 1e3)));
    m.push((metrics::EDIT_BATCH_P50_MS, percentile(&mut ledger.edit_ms.clone(), 0.50)));
    m.push((metrics::EDIT_BATCH_P95_MS, percentile(&mut ledger.edit_ms.clone(), 0.95)));
    m.push((metrics::FAILED_SHARE, share(report.failed as f64, report.attempted as f64)));

    report.span_table = spans
        .iter()
        .map(|(name, t)| {
            (name.to_string(), t.count, t.total_ns as f64 / 1e6, t.self_ns as f64 / 1e6)
        })
        .collect();
    if let Some(t) = &traced {
        let path = opts.scratch.join(format!("trace-{}.jsonl", spec.name));
        t.spans.write_jsonl(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
        report.trace_file = Some(path);
    }
    // In the published order, and complete: a metric `BENCHMARK.json`
    // lists but no probe measured is a bug in this function.
    assert_eq!(m.len(), metrics::PER_LAYER.len(), "per-layer metrics measured once each");
    report.per_layer = metrics::PER_LAYER
        .iter()
        .map(|want| {
            *m.iter()
                .find(|(got, _)| got == want)
                .unwrap_or_else(|| panic!("{} was not measured", want.name))
        })
        .collect();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(wall_ms: u64, batch_us: &[f64], failed: u64) -> Round {
        let tally = Tally { answers: 100, failed, batch_us: batch_us.to_vec(), ..Tally::default() };
        Round { wall: Duration::from_millis(wall_ms), tally }
    }

    #[test]
    fn a_run_reports_its_fastest_eighth_of_rounds_pooled() {
        let mut series = Series::default();
        // Sixteen rounds of the same work: two undisturbed, fourteen slowed.
        series.push(&round(900, &[9.0, 9.5, 30.0], 0));
        series.push(&round(500, &[5.0, 4.0, 6.0], 0));
        for _ in 0..13 {
            series.push(&round(800, &[8.0, 8.0, 8.0], 0));
        }
        series.push(&round(300, &[3.5, 2.0, 3.0], 10));
        let [queries_per_s, p50, p95, p99] = series.figures();
        // Rounds 15 and 1: 190 correct answers in 0.8 s, six batches.
        assert_eq!(queries_per_s, 190.0 / 0.8);
        assert_eq!(p50, 3.5);
        assert_eq!((p95, p99), (6.0, 6.0));
        assert_eq!(series.queries_per_s()[..2], [100.0 / 0.9, 200.0]);
        assert_eq!(series.batch_us(0.5)[..2], [9.5, 5.0]);
    }

    #[test]
    fn set_up_time_is_the_mean_of_the_fastest_eighth_of_repeats() {
        let sixteen: Vec<f64> = (1..=16).rev().map(f64::from).collect();
        assert_eq!(SetUps { seconds: sixteen, add_view_ms: Vec::new() }.figure(), 1.5);
        assert_eq!(SetUps { seconds: vec![0.9, 0.5, 0.7], add_view_ms: Vec::new() }.figure(), 0.5);
    }
}
