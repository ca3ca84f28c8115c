//! Observability exposition glue: `xpv-obs` structures ⇄ their wire
//! forms ([`WireMetric`], `WireAlert`, `WireTraceEvent`).
//!
//! `xpv-obs` owns the snapshot/health model and `xpv-net` owns the frame
//! encoding; neither depends on the other, so the engine — which depends
//! on both — is where a snapshot becomes a `StatsV2Resp` payload and
//! alerts/trace events become `DebugDumpResp` fields (and the reverse,
//! client side, e.g. the `xpv stats` command rendering
//! [`MetricsSnapshot::to_text`]). The metric conversion is lossless for
//! the wire's vocabulary: counters and gauges carry their value,
//! histograms carry the `[count, sum, max, p50, p90, p99]` summary (raw
//! buckets never travel).

use xpv_net::{
    WireAlert, WireMetric, WireTraceEvent, METRIC_COUNTER, METRIC_GAUGE, METRIC_HISTOGRAM,
};
use xpv_obs::{Alert, HistogramSummary, MetricsSnapshot, Sample, SampleValue, TraceEvent};

/// Encodes a snapshot as the `StatsV2Resp` metric list (order preserved).
pub fn wire_metrics(snapshot: &MetricsSnapshot) -> Vec<WireMetric> {
    snapshot
        .samples
        .iter()
        .map(|s| {
            let (kind, values) = match s.value {
                SampleValue::Counter(v) => (METRIC_COUNTER, vec![v]),
                SampleValue::Gauge(v) => (METRIC_GAUGE, vec![v]),
                SampleValue::Histogram(h) => {
                    (METRIC_HISTOGRAM, vec![h.count, h.sum, h.max, h.p50, h.p90, h.p99])
                }
            };
            WireMetric { name: s.name.clone(), labels: s.labels.clone(), kind, values }
        })
        .collect()
}

/// Rebuilds a snapshot from a received metric list (order preserved).
/// Tolerant of short `values` payloads (missing positions read as 0) so a
/// newer server with a wider summary cannot break an older client.
pub fn metrics_from_wire(metrics: &[WireMetric]) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::new();
    for m in metrics {
        let at = |i: usize| m.values.get(i).copied().unwrap_or(0);
        let value = match m.kind {
            METRIC_GAUGE => SampleValue::Gauge(at(0)),
            METRIC_HISTOGRAM => SampleValue::Histogram(HistogramSummary {
                count: at(0),
                sum: at(1),
                max: at(2),
                p50: at(3),
                p90: at(4),
                p99: at(5),
            }),
            _ => SampleValue::Counter(at(0)),
        };
        snap.samples.push(Sample { name: m.name.clone(), labels: m.labels.clone(), value });
    }
    snap
}

/// Encodes watchdog alert states for a `DebugDumpResp`.
pub fn wire_alerts(alerts: &[Alert]) -> Vec<WireAlert> {
    alerts
        .iter()
        .map(|a| WireAlert {
            name: a.name.clone(),
            kind: a.kind.clone(),
            firing: a.firing,
            since_tick: a.since_tick,
            fired_total: a.fired_total,
            detail: a.detail.clone(),
        })
        .collect()
}

/// Encodes drained trace spans for a `DebugDumpResp` (phases travel as
/// their names, so a client needs no `Phase` enum agreement).
pub fn wire_traces(events: &[TraceEvent]) -> Vec<WireTraceEvent> {
    events
        .iter()
        .map(|e| WireTraceEvent {
            kind: e.kind.to_string(),
            total_us: e.total_us,
            phases: e.phases.iter().map(|(p, us)| (p.as_str().to_string(), *us)).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_through_the_wire_form() {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("xpv_cache_queries", 42);
        snap.push_gauge("xpv_server_connections", 3);
        snap.push_counter_labeled("xpv_tenant_queries", ("tenant", "acme"), 7);
        snap.push_histogram(
            "xpv_phase_eval_us",
            HistogramSummary { count: 100, sum: 12345, max: 900, p50: 80, p90: 300, p99: 800 },
        );
        snap.sort();
        let rebuilt = metrics_from_wire(&wire_metrics(&snap));
        assert_eq!(rebuilt, snap);
        assert_eq!(rebuilt.to_text(), snap.to_text());
    }

    #[test]
    fn alerts_and_traces_convert_structurally() {
        let alerts = vec![Alert {
            name: "maintain_stall".into(),
            kind: "heartbeat_stall".into(),
            firing: true,
            since_tick: 7,
            fired_total: 3,
            detail: "1 in flight".into(),
        }];
        let wired = wire_alerts(&alerts);
        assert_eq!(wired[0].name, "maintain_stall");
        assert!(wired[0].firing);
        assert_eq!(wired[0].since_tick, 7);

        let events = vec![TraceEvent {
            kind: "cache.update",
            total_us: 500,
            phases: vec![(xpv_obs::Phase::Apply, 200), (xpv_obs::Phase::Patch, 300)],
        }];
        let wired = wire_traces(&events);
        assert_eq!(wired[0].kind, "cache.update");
        assert_eq!(wired[0].phases, vec![("apply".to_string(), 200), ("patch".to_string(), 300)]);
    }

    #[test]
    fn short_histogram_payloads_read_as_zero() {
        let m = WireMetric {
            name: "h".into(),
            labels: vec![],
            kind: METRIC_HISTOGRAM,
            values: vec![5, 50],
        };
        let snap = metrics_from_wire(std::slice::from_ref(&m));
        match snap.samples[0].value {
            SampleValue::Histogram(h) => {
                assert_eq!((h.count, h.sum, h.max, h.p99), (5, 50, 0, 0));
            }
            ref other => panic!("wrong kind: {other:?}"),
        }
    }
}
