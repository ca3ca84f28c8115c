//! Sampled request-lifecycle tracing: [`Span`]s, phase timelines, and
//! per-thread event rings.
//!
//! A [`Span`] follows one request (or one update batch) across tasks and
//! threads, accumulating a monotonic-clock phase timeline — admission
//! wait → plan/route → eval → encode → flush for a served query batch,
//! apply → freeze → coalesce → scan → patch for maintenance. Finished
//! spans land as [`TraceEvent`]s in the **recording thread's** ring
//! ([`RING_CAPACITY`] events; a slow drainer loses the oldest, never
//! blocks a recorder); [`drain_trace_events`] steals every ring at once.
//!
//! Whether a span records is decided **once, at [`Span::begin`]**, by the
//! global knob [`set_trace_sampling`]: `0` disables tracing, `1` traces
//! every request, `n` one in `n` (per-thread round-robin; default
//! [`DEFAULT_TRACE_SAMPLING`]). With tracing off, `begin` is one relaxed
//! load and a branch, and every [`Span::mark`] on the disabled span one
//! branch.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default sampling rate: one traced request per 64.
pub const DEFAULT_TRACE_SAMPLING: u32 = 64;

/// Events kept per thread ring before the oldest is dropped.
pub const RING_CAPACITY: usize = 256;

static SAMPLING: AtomicU32 = AtomicU32::new(DEFAULT_TRACE_SAMPLING);

/// Sets the global trace sampling: `0` = off, `1` = every request,
/// `n` = one in `n`. Takes effect for spans begun after the call.
pub fn set_trace_sampling(n: u32) {
    SAMPLING.store(n, Ordering::Relaxed);
}

/// The current sampling knob (see [`set_trace_sampling`]).
pub fn trace_sampling() -> u32 {
    SAMPLING.load(Ordering::Relaxed)
}

/// Live [`ForcedSampling`] guards, and the knob to restore after the last.
static FORCE: Mutex<(u32, u32)> = Mutex::new((0, 0));

/// Holds trace sampling at `1` while alive (see [`force_trace_sampling`]).
#[must_use = "sampling is forced only while the guard lives"]
#[derive(Debug)]
pub struct ForcedSampling(());

/// Forces trace sampling to `1` until the guard drops. Forces nest across
/// the process: the knob is saved by the first guard and restored by the
/// last, so overlapping watchdogs never restore one another's forced `1`.
pub fn force_trace_sampling() -> ForcedSampling {
    let mut force = FORCE.lock().expect("trace force poisoned");
    if force.0 == 0 {
        force.1 = trace_sampling();
        set_trace_sampling(1);
    }
    force.0 += 1;
    ForcedSampling(())
}

impl Drop for ForcedSampling {
    fn drop(&mut self) {
        let mut force = FORCE.lock().expect("trace force poisoned");
        force.0 -= 1;
        if force.0 == 0 {
            set_trace_sampling(force.1);
        }
    }
}

/// A lifecycle phase in a span's timeline, serving or maintenance (the
/// event's `kind` says which family to expect).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Waiting for admission (a free worker slot).
    Admission,
    /// Routing: plan-memo lookup or a planner call.
    Plan,
    /// Evaluating the routed queries.
    Eval,
    /// Encoding the response frame.
    Encode,
    /// Writing the response frame to the socket.
    Flush,
    /// Maintenance: applying the edit batch to the tree.
    Apply,
    /// Maintenance: deriving the post-batch flat snapshot.
    Freeze,
    /// Maintenance: diffing spines and merging regions.
    Coalesce,
    /// Maintenance: scanning merged regions.
    Scan,
    /// Maintenance: patching answer sets.
    Patch,
}

impl Phase {
    pub fn as_str(&self) -> &'static str {
        match self {
            Phase::Admission => "admission",
            Phase::Plan => "plan",
            Phase::Eval => "eval",
            Phase::Encode => "encode",
            Phase::Flush => "flush",
            Phase::Apply => "apply",
            Phase::Freeze => "freeze",
            Phase::Coalesce => "coalesce",
            Phase::Scan => "scan",
            Phase::Patch => "patch",
        }
    }

    /// The phase named `name` by [`Phase::as_str`].
    pub fn from_name(name: &str) -> Option<Phase> {
        Some(match name {
            "admission" => Phase::Admission,
            "plan" => Phase::Plan,
            "eval" => Phase::Eval,
            "encode" => Phase::Encode,
            "flush" => Phase::Flush,
            "apply" => Phase::Apply,
            "freeze" => Phase::Freeze,
            "coalesce" => Phase::Coalesce,
            "scan" => Phase::Scan,
            "patch" => Phase::Patch,
            _ => return None,
        })
    }
}

/// One finished span, as drained from a ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// What kind of request this span followed (e.g. `serve.request`,
    /// `cache.batch`, `cache.update`).
    pub kind: String,
    /// Wall time from `begin` to `finish`, microseconds.
    pub total_us: u64,
    /// `(phase, duration_us)` in the order the phases were marked.
    pub phases: Vec<(Phase, u64)>,
}

#[derive(Debug)]
struct SpanInner {
    kind: &'static str,
    start: Instant,
    last: Instant,
    phases: Vec<(Phase, u64)>,
}

/// A request-lifecycle span (see the module docs). Cheap to move across
/// tasks and threads; records into the **finishing** thread's ring on
/// drop.
#[must_use = "a span records on drop; an unused span traces nothing"]
#[derive(Debug, Default)]
pub struct Span(Option<Box<SpanInner>>);

impl Span {
    /// Begins a span if the sampling knob elects this request; otherwise
    /// returns a disabled span whose every operation is one branch.
    #[inline]
    pub fn begin(kind: &'static str) -> Span {
        let n = SAMPLING.load(Ordering::Relaxed);
        if n == 0 || (n > 1 && !sampled_tick(n)) {
            return Span(None);
        }
        Span::forced(kind)
    }

    /// A span that records regardless of the sampling knob (tests, and
    /// call sites that already decided to trace).
    pub fn forced(kind: &'static str) -> Span {
        let now = Instant::now();
        Span(Some(Box::new(SpanInner {
            kind,
            start: now,
            last: now,
            phases: Vec::with_capacity(6),
        })))
    }

    /// The permanently-disabled span (control frames, default fields).
    pub fn disabled() -> Span {
        Span(None)
    }

    /// Whether this span records (callers can skip preparing phase data
    /// for disabled spans).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Ends `phase` now: its duration is the time since the previous
    /// mark (or since `begin` for the first).
    #[inline]
    pub fn mark(&mut self, phase: Phase) {
        if let Some(inner) = self.0.as_deref_mut() {
            let now = Instant::now();
            let us = now.duration_since(inner.last).as_micros() as u64;
            inner.phases.push((phase, us));
            inner.last = now;
        }
    }

    /// Records an externally timed phase (maintenance times its own);
    /// does not advance the mark clock.
    #[inline]
    pub fn mark_us(&mut self, phase: Phase, us: u64) {
        if let Some(inner) = self.0.as_deref_mut() {
            inner.phases.push((phase, us));
        }
    }

    /// Finishes the span (as dropping it does), naming the intent.
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            let event = TraceEvent {
                kind: inner.kind.to_string(),
                total_us: inner.start.elapsed().as_micros() as u64,
                phases: inner.phases,
            };
            record_event(event);
        }
    }
}

/// Per-thread round-robin sampling: true once every `n` calls.
fn sampled_tick(n: u32) -> bool {
    use std::cell::Cell;
    thread_local! {
        static TICK: Cell<u32> = const { Cell::new(0) };
    }
    TICK.with(|t| {
        let v = t.get().wrapping_add(1);
        t.set(v);
        v % n == 0
    })
}

/// One thread's bounded event ring. The mutex is effectively
/// uncontended: only the owning thread pushes, and a drainer visits
/// briefly.
type TraceRing = Mutex<VecDeque<TraceEvent>>;

/// Every thread's ring, held strongly (see [`drain_trace_events`]).
static RINGS: Mutex<Vec<Arc<TraceRing>>> = Mutex::new(Vec::new());

fn record_event(event: TraceEvent) {
    thread_local! {
        static RING: Arc<TraceRing> = {
            let ring = Arc::new(TraceRing::default());
            RINGS.lock().expect("ring registry poisoned").push(Arc::clone(&ring));
            ring
        };
    }
    // A recording thread that outlives TLS destruction would re-register
    // on every event; `try_with` just drops the event instead.
    let _ = RING.try_with(|ring| {
        let mut events = ring.lock().expect("trace ring poisoned");
        if events.len() == RING_CAPACITY {
            events.pop_front();
        }
        events.push_back(event);
    });
}

/// Steals every thread's buffered events (oldest first per thread). Rings
/// are held **strongly**, so an exited thread's events survive until a
/// drain empties its ring and drops it.
pub fn drain_trace_events() -> Vec<TraceEvent> {
    let mut out = Vec::new();
    RINGS.lock().expect("ring registry poisoned").retain(|ring| {
        out.extend(ring.lock().expect("trace ring poisoned").drain(..));
        // Strong count 1 ⇒ only the registry owns it: the thread is gone.
        Arc::strong_count(ring) > 1
    });
    out
}

/// Rings currently registered: live recording threads plus dead threads
/// whose rings a drain has not yet pruned. A leak diagnostic — under
/// thread churn with periodic drains this must stay bounded by the live
/// thread count, not grow with every thread ever spawned.
pub fn trace_ring_count() -> usize {
    RINGS.lock().expect("ring registry poisoned").len()
}

#[cfg(test)]
pub(crate) mod tests_support {
    use std::sync::Mutex;

    /// Serializes the tests (across this crate's modules) that touch the
    /// global sampling knob and the global rings (cargo runs tests in
    /// parallel within the crate).
    pub(crate) fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().expect("trace test lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::trace_lock;
    use super::*;

    #[test]
    fn span_records_phases_in_mark_order() {
        let _guard = trace_lock();
        let _ = drain_trace_events();
        let mut span = Span::forced("test.request");
        span.mark(Phase::Admission);
        span.mark(Phase::Plan);
        span.mark_us(Phase::Eval, 17);
        span.finish();
        let events = drain_trace_events();
        let e = events.iter().find(|e| e.kind == "test.request").expect("event recorded");
        let order: Vec<Phase> = e.phases.iter().map(|p| p.0).collect();
        assert_eq!(order, vec![Phase::Admission, Phase::Plan, Phase::Eval]);
        assert_eq!(e.phases[2].1, 17);
    }

    #[test]
    fn every_phase_is_found_by_its_name() {
        let all = [
            Phase::Admission,
            Phase::Plan,
            Phase::Eval,
            Phase::Encode,
            Phase::Flush,
            Phase::Apply,
            Phase::Freeze,
            Phase::Coalesce,
            Phase::Scan,
            Phase::Patch,
        ];
        for phase in all {
            assert_eq!(Phase::from_name(phase.as_str()), Some(phase));
        }
        assert_eq!(Phase::from_name("Eval"), None);
    }

    #[test]
    fn sampling_zero_disables_and_one_traces_everything() {
        let _guard = trace_lock();
        let _ = drain_trace_events();
        set_trace_sampling(0);
        assert!(!Span::begin("test.off").is_enabled());
        set_trace_sampling(1);
        let span = Span::begin("test.on");
        assert!(span.is_enabled());
        span.finish();
        set_trace_sampling(DEFAULT_TRACE_SAMPLING);
        let events = drain_trace_events();
        assert!(events.iter().any(|e| e.kind == "test.on"));
        assert!(!events.iter().any(|e| e.kind == "test.off"));
    }

    #[test]
    fn sampling_n_elects_one_in_n() {
        let _guard = trace_lock();
        let _ = drain_trace_events();
        set_trace_sampling(8);
        let enabled = (0..800).filter(|_| Span::begin("test.sampled").is_enabled()).count();
        set_trace_sampling(DEFAULT_TRACE_SAMPLING);
        let _ = drain_trace_events();
        assert_eq!(enabled, 100, "one in 8 of 800 on one thread");
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let _guard = trace_lock();
        let _ = drain_trace_events();
        for _ in 0..RING_CAPACITY + 10 {
            Span::forced("test.flood").finish();
        }
        let flood = drain_trace_events().into_iter().filter(|e| e.kind == "test.flood").count();
        assert_eq!(flood, RING_CAPACITY);
    }

    #[test]
    fn thread_churn_does_not_grow_the_ring_registry() {
        let _guard = trace_lock();
        let _ = drain_trace_events();
        let baseline = trace_ring_count();
        // Many generations of short-lived instrumented threads, with a
        // drain between generations (as a live server's stats path does).
        for _ in 0..8 {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    std::thread::spawn(|| {
                        for _ in 0..4 {
                            Span::forced("test.churn").finish();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("no panic");
            }
            let drained =
                drain_trace_events().into_iter().filter(|e| e.kind == "test.churn").count();
            assert_eq!(drained, 32, "dead threads' events survive until the drain");
        }
        // 64 dead threads later: the registry pruned their rings instead
        // of accumulating a strong Arc per thread ever spawned.
        let _ = drain_trace_events();
        assert!(
            trace_ring_count() <= baseline + 1,
            "ring registry grew under thread churn: {} rings (baseline {baseline})",
            trace_ring_count()
        );
    }

    #[test]
    fn spans_cross_threads_and_land_in_the_finishing_ring() {
        let _guard = trace_lock();
        let _ = drain_trace_events();
        let mut span = Span::forced("test.cross");
        span.mark(Phase::Plan);
        let handle = std::thread::spawn(move || {
            span.mark(Phase::Flush);
            span.finish();
        });
        handle.join().expect("no panic");
        let events = drain_trace_events();
        let e = events.iter().find(|e| e.kind == "test.cross").expect("cross-thread event");
        assert_eq!(e.phases.len(), 2);
    }
}
