//! Every metric the benchmark prints, by name, with its unit and the
//! direction in which it is better. `BENCHMARK.json` lists the same names;
//! a unit test keeps the two in step. Bounds live in `BENCHMARK.json` only.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Higher }
}

// --- end to end: what a user of the cache sees. The read metrics are
// taken over the fastest eighth of a run's timed rounds (see
// `run::Series`).

/// Inputs from the seed, engine, views, server, connections, memo warm-up.
pub const SETUP_S: Metric = lower("setup_s", "s");
/// Correct query answers over timed wall time (in `edit_mix` the wall
/// includes the edit batches between the reads).
pub const QUERIES_PER_S: Metric = higher("queries_per_s", "1/s");
/// Caller-observed latency of one read batch: call to answers readable,
/// over the wire `send_queries` to answers decoded.
pub const BATCH_P50_US: Metric = lower("batch_p50_us", "us");
/// `VmHWM` after the timed rounds.
pub const PEAK_RSS_MB: Metric = lower("peak_rss_mb", "MiB");

pub const END_TO_END: [Metric; 4] = [SETUP_S, QUERIES_PER_S, BATCH_P50_US, PEAK_RSS_MB];

// --- per layer: `<crate>.<metric>`, from the trace pass. Not bounded.

pub const PATTERN_PARSE_US: Metric = lower("pattern.parse_us_per_query", "us");
pub const PATTERN_SIG_US: Metric = lower("pattern.sig_us_per_pair", "us");
pub const PATTERN_SIG_REJECT_SHARE: Metric = higher("pattern.sig_reject_share", "ratio");
pub const SEMANTICS_EVAL_US: Metric = lower("semantics.eval_us_per_query", "us");
pub const SEMANTICS_EVAL_FLAT_PROBE_US: Metric = lower("semantics.eval_flat_probe_us", "us");
pub const SEMANTICS_CONTAIN_US: Metric = lower("semantics.contain_us_per_decision", "us");
pub const SEMANTICS_CANONICAL_RUNS: Metric = lower("semantics.canonical_runs_per_kquery", "count");
pub const SEMANTICS_ORACLE_MEMO_HIT_SHARE: Metric =
    higher("semantics.oracle_memo_hit_share", "ratio");
pub const CORE_PLAN_US_PER_MISS: Metric = lower("core.plan_us_per_miss", "us");
pub const CORE_DECIDE_US: Metric = lower("core.decide_us_per_pair", "us");
pub const INTERSECT_CANDIDATES_PER_ROUTE: Metric = lower("intersect.candidates_per_route", "count");
pub const INTERSECT_ROUTE_SHARE: Metric = higher("intersect.route_share", "ratio");
pub const MODEL_FREEZE_US: Metric = lower("model.freeze_us", "us");
pub const MODEL_TREE_CLONE_US: Metric = lower("model.tree_clone_us", "us");
pub const MODEL_ANSWER_NODES: Metric = lower("model.answer_nodes_per_query", "count");
pub const MODEL_ARENA_NODES: Metric = lower("model.arena_nodes_per_batch", "count");
/// Apply, freeze, coalesce, scan, patch.
pub const MAINTAIN_PHASE_US: [Metric; 5] = [
    lower("maintain.apply_us_per_batch", "us"),
    lower("maintain.freeze_us_per_batch", "us"),
    lower("maintain.coalesce_us_per_batch", "us"),
    lower("maintain.scan_us_per_batch", "us"),
    lower("maintain.patch_us_per_batch", "us"),
];
pub const MAINTAIN_UNACCOUNTED_SHARE: Metric = lower("maintain.unaccounted_share", "ratio");
pub const MAINTAIN_REGIONS_SCANNED: Metric = lower("maintain.regions_scanned_per_batch", "count");
pub const MAINTAIN_SCANS_SAVED_SHARE: Metric = higher("maintain.scans_saved_share", "ratio");
pub const MAINTAIN_LABEL_SKIP_SHARE: Metric = higher("maintain.label_skip_share", "ratio");
pub const ENGINE_MEMO_HIT_SHARE: Metric = higher("engine.plan_memo_hit_share", "ratio");
pub const ENGINE_DEDUP_SHARE: Metric = higher("engine.batch_dedup_share", "ratio");
pub const ENGINE_ROUTE_VIEW_SHARE: Metric = higher("engine.route_view_share", "ratio");
pub const ENGINE_ROUTE_INTERSECT_SHARE: Metric = higher("engine.route_intersect_share", "ratio");
pub const ENGINE_ROUTE_DIRECT_SHARE: Metric = lower("engine.route_direct_share", "ratio");
pub const ENGINE_OVERHEAD_US: Metric = lower("engine.overhead_us_per_batch", "us");
pub const ENGINE_ROUTES_DROPPED: Metric = lower("engine.routes_dropped_per_edit_batch", "count");
pub const ENGINE_READ_AFTER_EDIT_P50_US: Metric = lower("engine.read_after_edit_p50_us", "us");
pub const ENGINE_ADD_VIEW_MS: Metric = lower("engine.add_view_ms_per_view", "ms");
pub const NET_RTT_FLOOR_US: Metric = lower("net.rtt_floor_us", "us");
pub const NET_ENCODE_QUERY_US: Metric = lower("net.encode_query_us_per_batch", "us");
pub const NET_DECODE_QUERY_US: Metric = lower("net.decode_query_us_per_batch", "us");
pub const NET_ENCODE_ANSWERS_US: Metric = lower("net.encode_answers_us_per_batch", "us");
pub const NET_DECODE_ANSWERS_US: Metric = lower("net.decode_answers_us_per_batch", "us");
pub const NET_ANSWER_BYTES: Metric = lower("net.answer_bytes_per_query", "B");
pub const NET_ADMISSION_US: Metric = lower("net.admission_us_mean", "us");
pub const NET_SERVER_BATCH_US: Metric = lower("net.server_batch_us_mean", "us");
pub const NET_SERVER_ENCODE_US: Metric = lower("net.server_encode_us_mean", "us");
pub const NET_FLUSH_US: Metric = lower("net.flush_us_mean", "us");
pub const NET_WIRE_OVERHEAD_US: Metric = lower("net.wire_overhead_us_per_batch", "us");
pub const NET_UNACCOUNTED_SHARE: Metric = lower("net.unaccounted_share", "ratio");
pub const NET_PACED_P50_US: Metric = lower("net.paced_p50_us", "us");
pub const NET_PACED_P95_US: Metric = lower("net.paced_p95_us", "us");
pub const NET_PACED_MAX_US: Metric = lower("net.paced_max_us", "us");
pub const NET_PACED_LATE_MAX_US: Metric = lower("net.paced_late_max_us", "us");
pub const OBS_SPAN_DISABLED_NS: Metric = lower("obs.span_disabled_ns", "ns");
pub const OBS_HISTOGRAM_RECORD_NS: Metric = lower("obs.histogram_record_ns", "ns");
pub const OBS_SNAPSHOT_US: Metric = lower("obs.snapshot_us", "us");
pub const BENCH_TRACE_OVERHEAD_SHARE: Metric = lower("bench.trace_overhead_share", "ratio");
// Measured like end-to-end metrics, but not bounded: the tail percentiles
// move by a third when the shared box changes its mood (see the README),
// the edit metrics are zero on the four workloads that do not edit (an
// end-to-end metric must be reported, and never zero, on every workload),
// and the failed share is zero by design.
pub const BATCH_P95_US: Metric = lower("batch_p95_us", "us");
pub const BATCH_P99_US: Metric = lower("batch_p99_us", "us");
/// Edits applied over the time inside `apply_edits`, and the latency of
/// one edit batch over all timed batches (`edit_mix` only).
pub const EDITS_PER_S: Metric = higher("edits_per_s", "1/s");
pub const EDIT_BATCH_P50_MS: Metric = lower("edit_batch_p50_ms", "ms");
pub const EDIT_BATCH_P95_MS: Metric = lower("edit_batch_p95_ms", "ms");
pub const FAILED_SHARE: Metric = lower("failed_share", "ratio");

/// Every per-layer metric, in the order the trace pass prints them.
pub const PER_LAYER: [Metric; 60] = [
    PATTERN_PARSE_US,
    PATTERN_SIG_US,
    PATTERN_SIG_REJECT_SHARE,
    SEMANTICS_EVAL_US,
    SEMANTICS_EVAL_FLAT_PROBE_US,
    SEMANTICS_CONTAIN_US,
    SEMANTICS_CANONICAL_RUNS,
    SEMANTICS_ORACLE_MEMO_HIT_SHARE,
    CORE_PLAN_US_PER_MISS,
    CORE_DECIDE_US,
    INTERSECT_CANDIDATES_PER_ROUTE,
    INTERSECT_ROUTE_SHARE,
    MODEL_FREEZE_US,
    MODEL_TREE_CLONE_US,
    MODEL_ANSWER_NODES,
    MODEL_ARENA_NODES,
    MAINTAIN_PHASE_US[0],
    MAINTAIN_PHASE_US[1],
    MAINTAIN_PHASE_US[2],
    MAINTAIN_PHASE_US[3],
    MAINTAIN_PHASE_US[4],
    MAINTAIN_UNACCOUNTED_SHARE,
    MAINTAIN_REGIONS_SCANNED,
    MAINTAIN_SCANS_SAVED_SHARE,
    MAINTAIN_LABEL_SKIP_SHARE,
    ENGINE_MEMO_HIT_SHARE,
    ENGINE_DEDUP_SHARE,
    ENGINE_ROUTE_VIEW_SHARE,
    ENGINE_ROUTE_INTERSECT_SHARE,
    ENGINE_ROUTE_DIRECT_SHARE,
    ENGINE_OVERHEAD_US,
    ENGINE_ROUTES_DROPPED,
    ENGINE_READ_AFTER_EDIT_P50_US,
    ENGINE_ADD_VIEW_MS,
    NET_RTT_FLOOR_US,
    NET_ENCODE_QUERY_US,
    NET_DECODE_QUERY_US,
    NET_ENCODE_ANSWERS_US,
    NET_DECODE_ANSWERS_US,
    NET_ANSWER_BYTES,
    NET_ADMISSION_US,
    NET_SERVER_BATCH_US,
    NET_SERVER_ENCODE_US,
    NET_FLUSH_US,
    NET_WIRE_OVERHEAD_US,
    NET_UNACCOUNTED_SHARE,
    NET_PACED_P50_US,
    NET_PACED_P95_US,
    NET_PACED_MAX_US,
    NET_PACED_LATE_MAX_US,
    OBS_SPAN_DISABLED_NS,
    OBS_HISTOGRAM_RECORD_NS,
    OBS_SNAPSHOT_US,
    BENCH_TRACE_OVERHEAD_SHARE,
    BATCH_P95_US,
    BATCH_P99_US,
    EDITS_PER_S,
    EDIT_BATCH_P50_MS,
    EDIT_BATCH_P95_MS,
    FAILED_SHARE,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` at the repository root names exactly the workloads
    /// and metrics this package defines, with the same units and
    /// directions.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| manifest.get(key).and_then(Value::as_arr).expect(key).to_vec();
        let text =
            |v: &Value, key: &str| v.get(key).and_then(Value::as_str).expect(key).to_string();

        let workloads: Vec<(String, String)> =
            list("workloads").iter().map(|w| (text(w, "name"), text(w, "why"))).collect();
        let defined: Vec<(String, String)> =
            WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(workloads, defined);
        assert!(defined.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        for (key, metrics) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed: Vec<(String, String, String)> = list(key)
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
                .collect();
            let defined: Vec<(String, String, String)> = metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.as_str().to_string()))
                .collect();
            assert_eq!(listed, defined, "{key}");
        }
        for m in list("end_to_end") {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", text(&m, "name"));
        }
        let names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a metric name is used once");
        assert!(names.iter().all(|n| n.len() <= 64));
    }
}
