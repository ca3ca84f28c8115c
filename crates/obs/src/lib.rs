//! `xpv-obs`: the observability layer, std only.
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`] — relaxed-atomic instruments,
//!   lock-free on the record path; [`Registry`] names them (see
//!   [`metrics`]).
//! - [`Span`] / [`Phase`] / [`drain_trace_events`] — sampled per-request
//!   phase timelines in per-thread rings (see [`trace`]).
//! - [`MetricsSnapshot`] — the one render form: the `StatsV2Resp` wire
//!   frame carries it, the `xpv stats` text prints it, and (via
//!   [`write_kv_line`]) the stats structs' `Display` renders the `visit`
//!   enumeration that fills it. `xpv-net` encodes it, the watchdog's
//!   [`Alert`]s and the drained [`TraceEvent`]s as they are.
//! - [`Heartbeat`] / [`HealthRule`] / [`Watchdog`] — liveness gauges and
//!   the thread that turns a stalled heartbeat into `xpv_alert_*`
//!   counters and forced always-on tracing (see [`health`]).
//!
//! Metric names are `snake_case`, with an `xpv_` prefix and one family
//! segment naming the subsystem of record (`xpv_cache_queries`,
//! `xpv_phase_eval_us`, `xpv_hb_maintain_beats`). Every number has **one**
//! name. The catalogue — every family with its reader, the heartbeat
//! gauges, and the alert rule — is `docs/METRICS.md` at the repository
//! root. Histograms are **not** sampled: every record lands.
//!
//! Costs, reported by `perfbench/`'s trace pass (`--trace 1`) as
//! `obs.span_disabled_ns` and `obs.histogram_record_ns` (CI container,
//! 1–2 cores, release build): a disabled span is **~3 ns** (one relaxed
//! load and a branch), a histogram record **~20 ns** (three relaxed
//! RMWs). The end-to-end cost of always-on tracing has no committed
//! figure yet: it needs a paired `wire_small` run with sampling on and
//! off (ROADMAP item 13(d)).

pub mod health;
pub mod metrics;
pub mod snapshot;
pub mod trace;

pub use health::{
    Alert, HealthRule, Heartbeat, HeartbeatGuard, Watchdog, DEFAULT_COOLDOWN_TICKS,
    DEFAULT_WATCHDOG_INTERVAL,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use snapshot::{write_kv_line, HistogramSummary, MetricsSnapshot, Sample, SampleValue};
pub use trace::{
    drain_trace_events, force_trace_sampling, set_trace_sampling, trace_sampling, ForcedSampling,
    Phase, Span, TraceEvent, DEFAULT_TRACE_SAMPLING,
};
