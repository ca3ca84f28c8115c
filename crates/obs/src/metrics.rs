//! The lock-free metric primitives and the named [`Registry`], all on
//! relaxed `AtomicU64`s:
//!
//! - [`Counter`] — a monotone count.
//! - [`Gauge`] — a last-write-wins level.
//! - [`Histogram`] — a log-bucketed latency distribution (bucket `i ≥ 1`
//!   holds `[2^(i-1), 2^i - 1]`, bucket 0 exactly `0`): a record is three
//!   relaxed RMWs, no locks, no allocation. A reported percentile is the
//!   rank bucket's upper bound clamped to the observed max — never below
//!   the true order statistic, at most 2× above it.
//!
//! Registry lookup takes a read lock (a write lock on a name's first
//! appearance only); callers look a handle up once and hold the `Arc`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use crate::snapshot::{HistogramSummary, MetricsSnapshot};

/// Histogram buckets: `{0}` plus one per bit position up to
/// `2^(HIST_BUCKETS-2)` µs (past six days).
pub const HIST_BUCKETS: usize = 41;

/// A monotone counter: `add` is one relaxed `fetch_add`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` (relaxed; one atomic RMW).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins level.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Saturating decrement (a racing `sub` past zero floors, it does not
    /// wrap — gauges are diagnostics, not invariants).
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(n)));
    }

    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The bucket a value lands in: `0 → 0`, otherwise the value's bit length
/// (so bucket `i ≥ 1` covers `[2^(i-1), 2^i - 1]`), clamped to the last
/// bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// The largest value bucket `i` can hold (the last bucket is unbounded).
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A log-bucketed latency histogram (see the module docs for the bucket
/// scheme and the cost of a record).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation: three relaxed atomic RMWs, no locks.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in **microseconds** — the unit every latency
    /// histogram in this workspace uses (the `_us` naming suffix).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros() as u64);
    }

    /// A point-in-time copy of the distribution. Concurrent records may
    /// tear across bucket/sum/max (each is individually consistent), which
    /// is fine for diagnostics and benchmark deltas.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A frozen [`Histogram`]: what percentile math runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation count per bucket (see [`bucket_index`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `q`-quantile, reported as in the module docs. An **empty**
    /// histogram reads `0`; `q` **clamps** to `[0, 1]` (`q ≤ 0` is the
    /// minimum order statistic, `q ≥ 1` the maximum); **NaN** reads as `0`.
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean of recorded values (integer floor; zero when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// The six-number summary the wire frame and text exposition carry.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum,
            max: self.max,
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
        }
    }
}

/// A named get-or-create table of [`Counter`]s, [`Gauge`]s, and
/// [`Histogram`]s (see the module docs for the locking discipline and
/// the naming scheme in the crate docs).
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

fn get_or_create<T: Default>(table: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(m) = table.read().expect("registry poisoned").get(name) {
        return Arc::clone(m);
    }
    let mut map = table.write().expect("registry poisoned");
    Arc::clone(map.entry(name.to_string()).or_default())
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created zeroed on first sight. Callers
    /// hold the returned `Arc`; the same name always yields the same
    /// instrument.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// The gauge named `name` (get-or-create; see [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// The histogram named `name` (get-or-create; see
    /// [`Registry::counter`]).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Every registered instrument as one [`MetricsSnapshot`], sorted by
    /// name (the `BTreeMap` order).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for (name, c) in self.counters.read().expect("registry poisoned").iter() {
            snap.push_counter(name.clone(), c.value());
        }
        for (name, g) in self.gauges.read().expect("registry poisoned").iter() {
            snap.push_gauge(name.clone(), g.value());
        }
        for (name, h) in self.histograms.read().expect("registry poisoned").iter() {
            snap.push_histogram(name.clone(), h.snapshot().summary());
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_increments_sum_exactly() {
        // The linearity contract: 8 threads × 10_000 increments lose
        // nothing.
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no panic");
        }
        assert_eq!(c.value(), 80_000);
    }

    #[test]
    fn gauge_set_add_sub_floor() {
        let g = Gauge::new();
        g.set(5);
        g.add(3);
        assert_eq!(g.value(), 8);
        g.sub(10);
        assert_eq!(g.value(), 0, "sub floors at zero");
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1 << 20), 21);
        assert_eq!(bucket_index((1 << 20) - 1), 20);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        for i in 1..HIST_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_upper(i)), i, "upper bound stays in bucket {i}");
            assert_eq!(bucket_index(bucket_upper(i) + 1), i + 1);
        }
    }

    #[test]
    fn percentiles_bracket_a_sorted_vector_oracle() {
        // Deterministic pseudo-random values (an LCG; the crate has no
        // dependencies, shims included), checked against exact order
        // statistics: a histogram pXX is never below the true value and
        // at most 2× above it.
        let h = Histogram::new();
        let mut values: Vec<u64> = Vec::new();
        let mut state: u64 = 0x243F_6A88_85A3_08D3;
        for _ in 0..5_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = (state >> 33) % 1_000_000;
            values.push(v);
            h.record(v);
        }
        values.sort_unstable();
        let snap = h.snapshot();
        assert_eq!(snap.count(), 5_000);
        assert_eq!(snap.max, *values.last().expect("non-empty"));
        assert_eq!(snap.sum, values.iter().sum::<u64>());
        for q in [0.50, 0.90, 0.99, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let approx = snap.percentile(q);
            assert!(approx >= exact, "p{q}: approx {approx} < exact {exact}");
            assert!(approx <= exact * 2 + 1, "p{q}: approx {approx} > 2x exact {exact}");
        }
        assert_eq!(snap.percentile(1.0), snap.max, "p100 is the exact max");
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.percentile(0.5), 0);
        assert_eq!(snap.mean(), 0);
    }

    #[test]
    fn percentile_edge_cases_are_defined() {
        // Empty: zero for every q, including the weird ones.
        let empty = Histogram::new().snapshot();
        for q in [-1.0, 0.0, 0.5, 1.0, 7.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(empty.percentile(q), 0, "empty histogram, q={q}");
        }
        // Non-empty: out-of-range q clamps to [0, 1], NaN acts as 0.
        let h = Histogram::new();
        h.record(1);
        h.record(1000);
        let snap = h.snapshot();
        let min = snap.percentile(0.0);
        let max = snap.percentile(1.0);
        assert_eq!(snap.percentile(-3.0), min, "q below range clamps to the minimum");
        assert_eq!(snap.percentile(f64::NEG_INFINITY), min);
        assert_eq!(snap.percentile(42.0), max, "q above range clamps to the maximum");
        assert_eq!(snap.percentile(f64::INFINITY), max);
        assert_eq!(snap.percentile(f64::NAN), min, "NaN is treated as q = 0");
        assert_eq!(max, snap.max, "q = 1 is the exact observed max");
    }

    #[test]
    fn registry_returns_the_same_instrument_for_a_name() {
        let r = Registry::new();
        r.counter("a").add(2);
        r.counter("a").add(3);
        assert_eq!(r.counter("a").value(), 5);
        r.histogram("h").record(7);
        assert_eq!(r.histogram("h").snapshot().count(), 1);
        let snap = r.snapshot();
        assert_eq!(snap.samples.len(), 2);
        assert_eq!(snap.samples[0].name, "a");
    }
}
