//! `xpv-obs`: the unified observability layer — a lock-free metrics
//! registry, log-bucketed latency histograms, and sampled
//! request-lifecycle tracing. Dependency-free (std only), in the same
//! offline discipline as the rest of the workspace.
//!
//! ## What lives here
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`] — the instruments, all
//!   relaxed-atomic and lock-free on the record path (see
//!   [`metrics`] for the striping and bucket schemes).
//! - [`Registry`] — a string-named get-or-create table of instruments;
//!   callers look a handle up once and hold the `Arc`.
//! - [`Span`] / [`Phase`] / [`drain_trace_events`] — sampled per-request
//!   phase timelines recorded into per-thread rings (see [`trace`]).
//! - [`MetricsSnapshot`] — the frozen render form: every exposition
//!   surface (the `StatsResp` v2 wire frame, the `xpv stats` text
//!   output, the legacy stats structs' `Display` impls via
//!   [`write_kv_line`]) renders from it or from the same `visit`
//!   enumeration that fills it.
//! - [`History`] / [`Sampler`] — per-metric ring buffers fed by a
//!   background sampler thread: counter deltas, gauge levels, and
//!   per-tick histogram percentiles over a retained window (see
//!   [`history`]).
//! - [`Heartbeat`] / [`HealthRule`] / [`Health`] — liveness gauges and
//!   the per-tick watchdog that turns a stall or an SLO burn into
//!   `xpv_alert_*` counters and forced always-on trace capture (see
//!   [`health`]).
//!
//! The full metric catalogue — every family, the heartbeat gauges, and
//! the alert-rule semantics — is documented in `docs/METRICS.md` at the
//! repository root.
//!
//! ## Naming scheme
//!
//! Metric names are `snake_case` with an `xpv_` prefix and a family
//! segment naming the subsystem of record:
//!
//! | family | source | examples |
//! |---|---|---|
//! | `xpv_oracle_*` | containment oracle counters | `xpv_oracle_queries`, `xpv_oracle_canonical_runs` |
//! | `xpv_cache_*` | sharded cache counters | `xpv_cache_queries`, `xpv_cache_plan_memo_hits` |
//! | `xpv_tenant_*` | per-tenant counters, labeled `tenant="id"` | `xpv_tenant_queries{tenant="acme"}` |
//! | `xpv_maintain_*` | maintenance counters | `xpv_maintain_regions_scanned` |
//! | `xpv_net_*` | wire counters | `xpv_net_frames_in`, `xpv_net_credit_stalls` |
//! | `xpv_server_*` | serving-front-end gauges | `xpv_server_connections` |
//! | `xpv_phase_*_us` | latency histograms, microseconds | `xpv_phase_eval_us`, `xpv_phase_maintain_scan_us` |
//! | `xpv_hb_*` | heartbeat gauges (liveness) | `xpv_hb_maintain_inflight`, `xpv_hb_maintain_beats` |
//! | `xpv_alert_*`, `xpv_alerts_total` | watchdog alert counters/gauges | `xpv_alert_stall_total`, `xpv_alert_firing` |
//!
//! Every counter has **one** name: a number that reaches the snapshot
//! through one family is never re-exported under another (the
//! engine's `CacheStats` keeps its `oracle_*` mirror fields for API
//! compatibility, but the exposition emits those numbers only under
//! `xpv_oracle_*`).
//!
//! ## Sampling semantics
//!
//! Tracing is governed by one global knob, [`set_trace_sampling`]:
//! `0` = off, `1` = every request, `n` = one in `n` per thread
//! (default [`DEFAULT_TRACE_SAMPLING`] = 64). The decision is made once
//! per request at [`Span::begin`]; a span is either fully recorded or
//! free. Histograms are **not** sampled — every record lands.
//!
//! ## Overhead budget
//!
//! Measured on this repo's CI container (1–2 cores, release build) by the
//! trace pass of `perfbench/` (`--trace 1`), which reports them as the
//! per-layer figures `obs.span_disabled_ns`, `obs.histogram_record_ns`,
//! `obs.snapshot_us` and `bench.trace_overhead_share`:
//!
//! - disabled span (`Span::begin` + drop, sampling off): **~3 ns** —
//!   one relaxed atomic load and a branch;
//! - enabled histogram record: **~20 ns** — three relaxed atomic RMWs
//!   plus the bucket index.
//!
//! The end-to-end cost of always-on tracing with the sampler running has
//! no committed figure: it needs a paired `wire_small` run with the
//! sampler on and off (ROADMAP item 6c).

pub mod health;
pub mod history;
pub mod metrics;
pub mod snapshot;
pub mod trace;

pub use health::{
    Alert, Health, HealthRule, Heartbeat, HeartbeatGuard, Quantile, DEFAULT_COOLDOWN_TICKS,
};
pub use history::{
    series_key, History, HistoryPoint, PointValue, Sampler, SamplerConfig, SeriesData, SeriesKind,
    TickObservation, WindowStats, DEFAULT_HISTORY_CAPACITY, DEFAULT_SAMPLE_INTERVAL,
};
pub use metrics::{
    bucket_index, bucket_upper, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
    COUNTER_STRIPES, HIST_BUCKETS,
};
pub use snapshot::{write_kv_line, HistogramSummary, MetricsSnapshot, Sample, SampleValue};
pub use trace::{
    drain_trace_events, set_trace_sampling, trace_ring_count, trace_sampling, Phase, Span,
    TraceEvent, DEFAULT_TRACE_SAMPLING, RING_CAPACITY,
};
