//! Time-series retention over the metric [`Registry`]: per-metric ring
//! buffers fed by a background [`Sampler`].
//!
//! A snapshot answers "what is the number now"; this module answers
//! "what did it do over the last few minutes". Each sampler tick walks a
//! full [`MetricsSnapshot`] (plus the registry's raw histograms) and
//! appends one [`HistoryPoint`] per metric to that metric's fixed-capacity
//! ring (default [`DEFAULT_HISTORY_CAPACITY`] points — at the default
//! 1 s interval, a bit over four minutes of retention):
//!
//! - **counters** record the tick-over-tick *delta* (the basis for rates);
//! - **gauges** record the *level* at the tick;
//! - **histograms** record the *interval* distribution — the sampler keeps
//!   the previous raw bucket snapshot per histogram and records the
//!   count/p50/p90/p99 of the ticks's observations only
//!   ([`HistogramSnapshot::since`]), so a long-healthy history cannot
//!   dilute a slow minute the way cumulative percentiles do.
//!
//! The ring keying is the *rendered* metric name (labels inlined, e.g.
//! `xpv_tenant_queries{tenant="acme"}`), which is also what the wire
//! history frame and `xpv top` display.
//!
//! [`Sampler`] owns the dedicated thread (configurable interval, default
//! [`DEFAULT_SAMPLE_INTERVAL`]), runs the [`Health`] watchdog rules after
//! every tick, and stops on [`Sampler::stop`] or drop. The tick cost is
//! one snapshot walk off the hot path — request threads never touch the
//! history lock.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::health::{Health, HealthRule, DEFAULT_COOLDOWN_TICKS};
use crate::metrics::{HistogramSnapshot, Registry};
use crate::snapshot::{HistogramSummary, MetricsSnapshot, SampleValue};

/// Points kept per metric ring before the oldest is dropped.
pub const DEFAULT_HISTORY_CAPACITY: usize = 256;

/// Default sampler tick interval.
pub const DEFAULT_SAMPLE_INTERVAL: Duration = Duration::from_secs(1);

/// Which instrument kind a history series tracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    Counter,
    Gauge,
    Histogram,
}

/// One tick's value in a series (kind-dependent, see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointValue {
    /// Counter increment over the tick interval.
    Delta(u64),
    /// Gauge level at the tick.
    Level(u64),
    /// Interval histogram summary: observations recorded during the tick
    /// and the tick-local percentiles.
    Quantiles { count: u64, p50: u64, p90: u64, p99: u64 },
}

/// One recorded tick of one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistoryPoint {
    /// Microseconds since the history started, at the tick.
    pub at_us: u64,
    pub value: PointValue,
}

impl HistoryPoint {
    /// The point's headline number: the delta for counters, the level
    /// for gauges, the interval p99 for histograms — what sparklines and
    /// window statistics aggregate.
    pub fn headline(&self) -> u64 {
        match self.value {
            PointValue::Delta(v) | PointValue::Level(v) => v,
            PointValue::Quantiles { p99, .. } => p99,
        }
    }
}

/// A copied-out series: the ring's points, oldest first.
#[derive(Clone, Debug)]
pub struct SeriesData {
    /// Rendered metric key (labels inlined).
    pub name: String,
    pub kind: SeriesKind,
    pub points: Vec<HistoryPoint>,
}

/// Aggregates over the last `n` points of a series (see
/// [`History::window`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowStats {
    /// Points actually covered (≤ the requested window).
    pub samples: usize,
    /// Minimum headline value in the window.
    pub min: u64,
    /// Maximum headline value in the window.
    pub max: u64,
    /// Sum of headline values in the window.
    pub sum: u64,
    /// Wall-clock span the window covers, microseconds.
    pub span_us: u64,
    /// `sum` per second over the span — for counter series, the windowed
    /// event rate. Zero when the span is empty.
    pub rate_per_sec: f64,
}

/// What one tick observed — handed to the [`Health`] rules so history
/// recording and watchdog evaluation walk the snapshot once.
#[derive(Clone, Debug, Default)]
pub struct TickObservation {
    /// Tick ordinal (1 = first recorded tick).
    pub tick: u64,
    /// Microseconds since the history started.
    pub at_us: u64,
    /// Gauge levels by rendered key.
    pub gauges: BTreeMap<String, u64>,
    /// Counter deltas by rendered key.
    pub counter_deltas: BTreeMap<String, u64>,
    /// Interval histogram summaries by name (registry histograms only).
    pub intervals: BTreeMap<String, HistogramSummary>,
}

struct SeriesState {
    kind: SeriesKind,
    /// Last cumulative counter value (delta basis).
    prev: u64,
    points: VecDeque<HistoryPoint>,
}

#[derive(Default)]
struct HistoryInner {
    ticks: u64,
    series: BTreeMap<String, SeriesState>,
    /// Previous raw bucket snapshot per histogram (interval basis).
    prev_hists: BTreeMap<String, HistogramSnapshot>,
}

/// The per-metric ring buffers (see the module docs). Shared between the
/// sampler thread (writer) and query/wire consumers (readers) behind one
/// `RwLock` — never on a request hot path.
pub struct History {
    capacity: usize,
    start: Instant,
    inner: RwLock<HistoryInner>,
}

/// Renders a sample's ring key: the metric name with labels inlined.
pub fn series_key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", pairs.join(","))
}

impl History {
    pub fn new(capacity: usize) -> History {
        History {
            capacity: capacity.max(2),
            start: Instant::now(),
            inner: RwLock::new(HistoryInner::default()),
        }
    }

    /// Ticks recorded so far.
    pub fn ticks(&self) -> u64 {
        self.inner.read().expect("history poisoned").ticks
    }

    /// Ring capacity (points per metric).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one tick: counter deltas and gauge levels from `snap`,
    /// interval quantiles from `raw_hists` (the registry's raw bucket
    /// snapshots — histogram *summaries* in `snap` are ignored, the raw
    /// buckets carry strictly more information). Returns the tick's
    /// observation for watchdog evaluation.
    pub fn record_tick(
        &self,
        snap: &MetricsSnapshot,
        raw_hists: &[(String, HistogramSnapshot)],
    ) -> TickObservation {
        let at_us = self.start.elapsed().as_micros() as u64;
        let mut inner = self.inner.write().expect("history poisoned");
        inner.ticks += 1;
        let mut obs = TickObservation { tick: inner.ticks, at_us, ..TickObservation::default() };
        let capacity = self.capacity;
        for s in &snap.samples {
            let key = series_key(&s.name, &s.labels);
            match s.value {
                SampleValue::Counter(v) => {
                    let state = inner.series.entry(key.clone()).or_insert_with(|| SeriesState {
                        kind: SeriesKind::Counter,
                        prev: 0,
                        points: VecDeque::with_capacity(capacity.min(64)),
                    });
                    let delta = v.saturating_sub(state.prev);
                    state.prev = v;
                    push_point(
                        state,
                        capacity,
                        HistoryPoint { at_us, value: PointValue::Delta(delta) },
                    );
                    obs.counter_deltas.insert(key, delta);
                }
                SampleValue::Gauge(v) => {
                    let state = inner.series.entry(key.clone()).or_insert_with(|| SeriesState {
                        kind: SeriesKind::Gauge,
                        prev: 0,
                        points: VecDeque::with_capacity(capacity.min(64)),
                    });
                    push_point(
                        state,
                        capacity,
                        HistoryPoint { at_us, value: PointValue::Level(v) },
                    );
                    obs.gauges.insert(key, v);
                }
                SampleValue::Histogram(_) => {}
            }
        }
        for (name, raw) in raw_hists {
            let prev = inner.prev_hists.get(name).copied().unwrap_or_default();
            let interval = raw.since(&prev);
            inner.prev_hists.insert(name.clone(), *raw);
            let summary = interval.summary();
            let state = inner.series.entry(name.clone()).or_insert_with(|| SeriesState {
                kind: SeriesKind::Histogram,
                prev: 0,
                points: VecDeque::with_capacity(capacity.min(64)),
            });
            push_point(
                state,
                capacity,
                HistoryPoint {
                    at_us,
                    value: PointValue::Quantiles {
                        count: summary.count,
                        p50: summary.p50,
                        p90: summary.p90,
                        p99: summary.p99,
                    },
                },
            );
            obs.intervals.insert(name.clone(), summary);
        }
        obs
    }

    /// Every tracked series key, sorted.
    pub fn names(&self) -> Vec<String> {
        self.inner.read().expect("history poisoned").series.keys().cloned().collect()
    }

    /// One series' points (oldest first), or `None` if never recorded.
    pub fn series(&self, key: &str) -> Option<SeriesData> {
        let inner = self.inner.read().expect("history poisoned");
        inner.series.get(key).map(|s| SeriesData {
            name: key.to_string(),
            kind: s.kind,
            points: s.points.iter().copied().collect(),
        })
    }

    /// Every series, sorted by key (the wire history frame's payload).
    pub fn all_series(&self) -> Vec<SeriesData> {
        let inner = self.inner.read().expect("history poisoned");
        inner
            .series
            .iter()
            .map(|(name, s)| SeriesData {
                name: name.clone(),
                kind: s.kind,
                points: s.points.iter().copied().collect(),
            })
            .collect()
    }

    /// Windowed aggregates over the last `window` points of `key`:
    /// min/max/sum of the headline values and the rate per second over
    /// the covered wall-clock span. `None` for an unknown or empty series.
    pub fn window(&self, key: &str, window: usize) -> Option<WindowStats> {
        let inner = self.inner.read().expect("history poisoned");
        let state = inner.series.get(key)?;
        if state.points.is_empty() {
            return None;
        }
        let n = window.max(1).min(state.points.len());
        let pts: Vec<HistoryPoint> =
            state.points.iter().skip(state.points.len() - n).copied().collect();
        let (mut min, mut max, mut sum) = (u64::MAX, 0u64, 0u64);
        for p in &pts {
            let v = p.headline();
            min = min.min(v);
            max = max.max(v);
            sum = sum.saturating_add(v);
        }
        // The first windowed point's delta accrued over the tick that
        // *ended* at its timestamp; approximate that leading interval by
        // the window's mean tick spacing when a predecessor is missing.
        let span_us = if pts.len() >= 2 {
            let observed = pts[pts.len() - 1].at_us.saturating_sub(pts[0].at_us);
            observed + observed / (pts.len() as u64 - 1).max(1)
        } else {
            pts[0].at_us
        };
        let rate_per_sec = if span_us > 0 { sum as f64 / (span_us as f64 / 1e6) } else { 0.0 };
        Some(WindowStats { samples: n, min, max, sum, span_us, rate_per_sec })
    }
}

fn push_point(state: &mut SeriesState, capacity: usize, point: HistoryPoint) {
    if state.points.len() == capacity {
        state.points.pop_front();
    }
    state.points.push_back(point);
}

/// Sampler configuration (see [`Sampler::start`]).
pub struct SamplerConfig {
    /// Tick interval (floored at 1 ms).
    pub interval: Duration,
    /// Ring capacity per metric.
    pub capacity: usize,
    /// Watchdog rules evaluated after every tick.
    pub rules: Vec<HealthRule>,
    /// Quiet ticks before a fired alert releases its forced always-on
    /// trace sampling (see [`Health`]).
    pub cooldown_ticks: u32,
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig {
            interval: DEFAULT_SAMPLE_INTERVAL,
            capacity: DEFAULT_HISTORY_CAPACITY,
            rules: Vec::new(),
            cooldown_ticks: DEFAULT_COOLDOWN_TICKS,
        }
    }
}

struct SamplerCore {
    history: Arc<History>,
    health: Arc<Health>,
    registry: Arc<Registry>,
    source: Box<dyn Fn() -> MetricsSnapshot + Send + Sync>,
    /// Serializes the thread's periodic tick against `tick_now` callers.
    tick_gate: Mutex<()>,
    stop: Mutex<bool>,
    wake: Condvar,
}

impl SamplerCore {
    fn tick(&self) {
        let _gate = self.tick_gate.lock().expect("sampler tick gate poisoned");
        let snap = (self.source)();
        let raw = self.registry.histograms_raw();
        let obs = self.history.record_tick(&snap, &raw);
        self.health.evaluate(&obs);
    }
}

/// The background history/watchdog thread (see the module docs). Stops
/// on [`Sampler::stop`]; dropping the sampler stops and joins it.
pub struct Sampler {
    core: Arc<SamplerCore>,
    interval: Duration,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Sampler {
    /// Starts the sampler thread: every `config.interval` it pulls one
    /// snapshot from `source`, diffs `registry`'s raw histograms for
    /// interval percentiles, records the tick into a fresh [`History`],
    /// and evaluates `config.rules` through a fresh [`Health`] (whose
    /// alert counters live in `registry`, so the *next* tick's snapshot
    /// covers the alerts themselves).
    pub fn start(
        registry: Arc<Registry>,
        source: impl Fn() -> MetricsSnapshot + Send + Sync + 'static,
        config: SamplerConfig,
    ) -> Sampler {
        let interval = config.interval.max(Duration::from_millis(1));
        let core = Arc::new(SamplerCore {
            history: Arc::new(History::new(config.capacity)),
            health: Arc::new(Health::new(
                Arc::clone(&registry),
                config.rules,
                config.cooldown_ticks,
            )),
            registry,
            source: Box::new(source),
            tick_gate: Mutex::new(()),
            stop: Mutex::new(false),
            wake: Condvar::new(),
        });
        let thread_core = Arc::clone(&core);
        let thread = std::thread::Builder::new()
            .name("xpv-obs-sampler".to_string())
            .spawn(move || loop {
                // The flag is the wait's predicate, checked under the lock
                // *before* sleeping: a `stop()` that sets it and notifies
                // before this thread first reaches the wait is seen here
                // instead of being a lost wakeup that costs a full interval.
                let stopped = {
                    let guard = thread_core.stop.lock().expect("sampler stop flag poisoned");
                    let (guard, _) = thread_core
                        .wake
                        .wait_timeout_while(guard, interval, |stopped| !*stopped)
                        .expect("sampler stop flag poisoned");
                    *guard
                };
                if stopped {
                    return;
                }
                thread_core.tick();
            })
            .expect("spawn sampler thread");
        Sampler { core, interval, thread: Mutex::new(Some(thread)) }
    }

    /// The recorded history.
    pub fn history(&self) -> &Arc<History> {
        &self.core.history
    }

    /// The watchdog state (rules, alerts, trace forcing).
    pub fn health(&self) -> &Arc<Health> {
        &self.core.health
    }

    /// The configured tick interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Runs one tick synchronously on the calling thread (tests and
    /// dump-on-demand paths that cannot wait out an interval).
    pub fn tick_now(&self) {
        self.core.tick();
    }

    /// Signals the thread to exit and joins it (idempotent; also run on
    /// drop). After `stop` returns no further tick will record.
    pub fn stop(&self) {
        {
            let mut stopped = self.core.stop.lock().expect("sampler stop flag poisoned");
            *stopped = true;
        }
        self.core.wake.notify_all();
        if let Some(handle) = self.thread.lock().expect("sampler thread slot poisoned").take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler")
            .field("interval", &self.interval)
            .field("ticks", &self.core.history.ticks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    fn counter_snap(name: &str, v: u64) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter(name, v);
        snap
    }

    #[test]
    fn counters_record_deltas_and_gauges_record_levels() {
        let h = History::new(8);
        let mut snap = counter_snap("c", 10);
        snap.push_gauge("g", 3);
        h.record_tick(&snap, &[]);
        let mut snap = counter_snap("c", 25);
        snap.push_gauge("g", 1);
        let obs = h.record_tick(&snap, &[]);
        assert_eq!(obs.counter_deltas["c"], 15);
        assert_eq!(obs.gauges["g"], 1);
        let c = h.series("c").expect("series exists");
        assert_eq!(c.kind, SeriesKind::Counter);
        assert_eq!(
            c.points.iter().map(|p| p.headline()).collect::<Vec<_>>(),
            vec![10, 15],
            "first tick delta is the full value (prev = 0)"
        );
        let g = h.series("g").expect("series exists");
        assert_eq!(g.points.last().expect("points").value, PointValue::Level(1));
    }

    #[test]
    fn labeled_counters_key_their_own_series() {
        let h = History::new(8);
        let mut snap = MetricsSnapshot::new();
        snap.push_counter_labeled("t", ("tenant", "a"), 5);
        snap.push_counter_labeled("t", ("tenant", "b"), 7);
        h.record_tick(&snap, &[]);
        assert_eq!(h.names(), vec!["t{tenant=\"a\"}", "t{tenant=\"b\"}"]);
    }

    #[test]
    fn rings_drop_oldest_beyond_capacity() {
        let h = History::new(4);
        for i in 0..10u64 {
            h.record_tick(&counter_snap("c", i * 2), &[]);
        }
        let s = h.series("c").expect("series exists");
        assert_eq!(s.points.len(), 4, "ring capped at capacity");
        assert_eq!(
            s.points.iter().map(|p| p.headline()).collect::<Vec<_>>(),
            vec![2, 2, 2, 2],
            "oldest points dropped, deltas intact"
        );
        assert_eq!(h.ticks(), 10);
    }

    #[test]
    fn histogram_ticks_record_interval_quantiles_not_cumulative() {
        let h = History::new(8);
        let hist = Histogram::new();
        for _ in 0..100 {
            hist.record(10);
        }
        h.record_tick(&MetricsSnapshot::new(), &[("lat".to_string(), hist.snapshot())]);
        // A slow tick after a long fast history: interval p99 must see it.
        for _ in 0..5 {
            hist.record(100_000);
        }
        let obs = h.record_tick(&MetricsSnapshot::new(), &[("lat".to_string(), hist.snapshot())]);
        let interval = obs.intervals["lat"];
        assert_eq!(interval.count, 5, "only the tick's observations");
        assert!(
            interval.p50 >= 100_000 / 2,
            "interval p50 {} reflects the slow tick, not the fast history",
            interval.p50
        );
        let s = h.series("lat").expect("series exists");
        assert_eq!(s.kind, SeriesKind::Histogram);
        match s.points[1].value {
            PointValue::Quantiles { count, .. } => assert_eq!(count, 5),
            other => panic!("wrong point kind: {other:?}"),
        }
    }

    #[test]
    fn window_stats_cover_min_max_and_rate() {
        let h = History::new(16);
        for v in [0u64, 100, 250, 450] {
            h.record_tick(&counter_snap("c", v), &[]);
        }
        let w = h.window("c", 3).expect("window");
        assert_eq!(w.samples, 3);
        assert_eq!((w.min, w.max), (100, 200));
        assert_eq!(w.sum, 450);
        assert!(w.rate_per_sec > 0.0, "ticks are microseconds apart, rate is huge");
        assert!(h.window("missing", 3).is_none());
        // Window larger than the ring clamps.
        assert_eq!(h.window("c", 99).expect("window").samples, 4);
    }

    #[test]
    fn sampler_thread_ticks_and_stops() {
        let registry = Arc::new(Registry::new());
        let counter = registry.counter("work");
        let reg_for_source = Arc::clone(&registry);
        let sampler = Sampler::start(
            Arc::clone(&registry),
            move || reg_for_source.snapshot(),
            SamplerConfig { interval: Duration::from_millis(5), ..SamplerConfig::default() },
        );
        counter.add(42);
        let deadline = Instant::now() + Duration::from_secs(5);
        while sampler.history().ticks() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(sampler.history().ticks() >= 3, "sampler thread ticked");
        let w = sampler.history().window("work", 64).expect("counter tracked");
        assert_eq!(w.sum, 42, "deltas sum to the counter total");
        sampler.stop();
        let after = sampler.history().ticks();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(sampler.history().ticks(), after, "no ticks after stop");
        sampler.stop(); // idempotent
    }

    /// Regression: a `stop()` that wins the race against the freshly
    /// spawned thread (flag set and notified before the thread first
    /// waits) must not cost a full interval. Start-then-drop is exactly
    /// that race; the join runs on a helper thread so a regression fails
    /// the deadline instead of hanging the suite for an hour.
    #[test]
    fn immediate_drop_of_long_interval_sampler_returns_promptly() {
        for _ in 0..20 {
            let registry = Arc::new(Registry::new());
            let reg_for_source = Arc::clone(&registry);
            let sampler = Sampler::start(
                Arc::clone(&registry),
                move || reg_for_source.snapshot(),
                SamplerConfig { interval: Duration::from_secs(3600), ..SamplerConfig::default() },
            );
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let dropper = std::thread::spawn(move || {
                drop(sampler);
                let _ = done_tx.send(());
            });
            done_rx
                .recv_timeout(Duration::from_secs(2))
                .expect("dropping a just-started 3600 s sampler must not wait out the interval");
            dropper.join().expect("dropper thread panicked");
        }
    }

    #[test]
    fn tick_now_is_synchronous() {
        let registry = Arc::new(Registry::new());
        registry.counter("c").add(7);
        let reg_for_source = Arc::clone(&registry);
        let sampler = Sampler::start(
            Arc::clone(&registry),
            move || reg_for_source.snapshot(),
            SamplerConfig { interval: Duration::from_secs(3600), ..SamplerConfig::default() },
        );
        sampler.tick_now();
        sampler.tick_now();
        assert_eq!(sampler.history().ticks(), 2);
        assert_eq!(sampler.history().window("c", 8).expect("tracked").sum, 7);
    }
}
