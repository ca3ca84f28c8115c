//! The health watchdog: heartbeats, stall rules, and tail-based trace
//! capture.
//!
//! A metrics snapshot can show a stall only as an *absence* (a counter
//! that stopped moving); this module makes absences first-class:
//!
//! - A [`Heartbeat`] is a pair of gauges an operation bumps:
//!   `xpv_hb_<name>_inflight` while it runs, `xpv_hb_<name>_beats` when
//!   it completes. A wedged operation is then *visible*: inflight > 0
//!   with beats frozen across ticks.
//! - A [`Watchdog`] thread reads each [`HealthRule`]'s two gauges every
//!   tick. A firing rule bumps its `xpv_alert_<rule>_total` counter and
//!   the `xpv_alerts_total` / `xpv_alert_stall_total` roll-ups, and —
//!   tail-based sampling — **forces trace sampling to always-on**
//!   ([`force_trace_sampling`]), so the trace rings fill with exactly the
//!   slow period's spans, until every rule has been quiet for the
//!   cooldown.
//!
//! The alert instruments are registered when the watchdog starts, so they
//! expose as zeros before anything fires.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::metrics::{Counter, Gauge, Registry};
use crate::trace::{force_trace_sampling, ForcedSampling};

/// Default quiet ticks before forced always-on sampling is released
/// (30 s at the default watchdog interval).
pub const DEFAULT_COOLDOWN_TICKS: u32 = 30;

/// Default [`Watchdog`] tick interval.
pub const DEFAULT_WATCHDOG_INTERVAL: Duration = Duration::from_secs(1);

/// A liveness instrument (the gauges `xpv_hb_<name>_{inflight,beats}`):
/// `begin` marks an operation in flight, and the guard beats on drop —
/// an unwound operation still beats, a *wedged* one does not, which is
/// exactly the signal.
#[derive(Clone, Debug)]
pub struct Heartbeat {
    inflight: Arc<Gauge>,
    beats: Arc<Gauge>,
}

impl Heartbeat {
    pub fn new(registry: &Registry, name: &str) -> Heartbeat {
        Heartbeat {
            inflight: registry.gauge(&format!("xpv_hb_{name}_inflight")),
            beats: registry.gauge(&format!("xpv_hb_{name}_beats")),
        }
    }

    /// Marks an operation in flight; the guard beats when dropped.
    pub fn begin(&self) -> HeartbeatGuard {
        self.inflight.add(1);
        HeartbeatGuard { hb: self.clone() }
    }

    /// A bare beat with no inflight window — for loops that want to
    /// prove liveness per iteration without bracketing each step.
    pub fn beat_now(&self) {
        self.beats.add(1);
    }
}

/// Beats its [`Heartbeat`] on drop (see [`Heartbeat::begin`]).
#[derive(Debug)]
pub struct HeartbeatGuard {
    hb: Heartbeat,
}

impl Drop for HeartbeatGuard {
    fn drop(&mut self) {
        self.hb.inflight.sub(1);
        self.hb.beats.add(1);
    }
}

/// One declarative watchdog rule.
#[derive(Clone, Debug)]
pub enum HealthRule {
    /// Named `<heartbeat>_stall`: fires when heartbeat `heartbeat` shows
    /// work in flight but no beat for `max_stalled_ticks` consecutive
    /// ticks. An idle heartbeat never fires.
    HeartbeatStall { heartbeat: String, max_stalled_ticks: u32 },
}

impl HealthRule {
    /// A stall rule over the heartbeat registered as `xpv_hb_<heartbeat>_*`.
    pub fn heartbeat_stall(heartbeat: &str, max_stalled_ticks: u32) -> HealthRule {
        HealthRule::HeartbeatStall {
            heartbeat: heartbeat.to_string(),
            max_stalled_ticks: max_stalled_ticks.max(1),
        }
    }
}

/// One rule's externally visible state (dump / wire payload).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Alert {
    /// Rule name (`xpv_alert_<name>_total` is its counter).
    pub name: String,
    /// Rule kind tag (`heartbeat_stall`).
    pub kind: String,
    /// Firing as of the last evaluated tick.
    pub firing: bool,
    /// Tick the current firing streak started at (0 = never fired).
    pub since_tick: u64,
    /// Ticks this rule has fired over its lifetime.
    pub fired_total: u64,
    /// Human-readable evidence from the last firing evaluation.
    pub detail: String,
}

#[derive(Debug)]
struct RuleState {
    alert: Alert,
    counter: Arc<Counter>,
    inflight: Arc<Gauge>,
    beats: Arc<Gauge>,
    max_stalled_ticks: u32,
    /// Beats at the previous tick.
    last_beats: Option<u64>,
    /// Consecutive no-progress ticks with work in flight.
    stalled_ticks: u32,
}

impl RuleState {
    /// One tick of this rule: whether it fires (with fresh evidence).
    fn judge(&mut self) -> bool {
        let (inflight, beats) = (self.inflight.value(), self.beats.value());
        let stalled = inflight > 0 && self.last_beats == Some(beats);
        self.last_beats = Some(beats);
        self.stalled_ticks = if stalled { self.stalled_ticks + 1 } else { 0 };
        if self.stalled_ticks < self.max_stalled_ticks {
            return false;
        }
        self.alert.detail = format!(
            "{inflight} in flight, no beat for {} ticks (beats={beats})",
            self.stalled_ticks
        );
        true
    }
}

#[derive(Debug)]
struct State {
    rules: Vec<RuleState>,
    alerts_total: Arc<Counter>,
    stall_total: Arc<Counter>,
    firing_gauge: Arc<Gauge>,
    forced_gauge: Arc<Gauge>,
    cooldown_ticks: u32,
    ticks: u64,
    /// Quiet ticks left before the force is released.
    cooldown_left: u32,
    forced: Option<ForcedSampling>,
    /// Set by [`Watchdog::stop`]: the thread's wait predicate.
    stopped: bool,
}

impl State {
    fn tick(&mut self) {
        self.ticks += 1;
        let mut firing_count = 0u64;
        for rule in self.rules.iter_mut() {
            let firing = rule.judge();
            if firing {
                firing_count += 1;
                if !rule.alert.firing {
                    rule.alert.since_tick = self.ticks;
                }
                rule.alert.fired_total += 1;
                rule.counter.inc();
                self.alerts_total.inc();
                self.stall_total.inc();
            }
            rule.alert.firing = firing;
        }
        self.firing_gauge.set(firing_count);
        if firing_count > 0 {
            // Take the force on the quiet→firing edge; re-arm the
            // cooldown on every firing tick.
            if self.forced.is_none() {
                self.forced = Some(force_trace_sampling());
                self.forced_gauge.set(1);
            }
            self.cooldown_left = self.cooldown_ticks;
        } else if self.forced.is_some() {
            self.cooldown_left = self.cooldown_left.saturating_sub(1);
            if self.cooldown_left == 0 {
                self.forced = None;
                self.forced_gauge.set(0);
            }
        }
    }
}

/// The rules, their alert instruments and the forced-sampling state (see
/// the module docs), and the thread that ticks them. Dropping the
/// watchdog stops and joins the thread, and releases its force.
#[derive(Debug)]
pub struct Watchdog {
    shared: Arc<(Mutex<State>, Condvar)>,
    interval: Duration,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Watchdog {
    /// Registers the alert instruments in `registry` and starts the
    /// thread, ticking every `interval` (at least 1 ms).
    pub fn start(
        registry: &Registry,
        rules: Vec<HealthRule>,
        interval: Duration,
        cooldown_ticks: u32,
    ) -> Watchdog {
        let rules = rules
            .into_iter()
            .map(|HealthRule::HeartbeatStall { heartbeat, max_stalled_ticks }| {
                let name = format!("{heartbeat}_stall");
                RuleState {
                    counter: registry.counter(&format!("xpv_alert_{name}_total")),
                    inflight: registry.gauge(&format!("xpv_hb_{heartbeat}_inflight")),
                    beats: registry.gauge(&format!("xpv_hb_{heartbeat}_beats")),
                    alert: Alert { name, kind: "heartbeat_stall".to_string(), ..Alert::default() },
                    max_stalled_ticks,
                    last_beats: None,
                    stalled_ticks: 0,
                }
            })
            .collect();
        let state = State {
            rules,
            alerts_total: registry.counter("xpv_alerts_total"),
            stall_total: registry.counter("xpv_alert_stall_total"),
            firing_gauge: registry.gauge("xpv_alert_firing"),
            forced_gauge: registry.gauge("xpv_alert_trace_forced"),
            cooldown_ticks: cooldown_ticks.max(1),
            ticks: 0,
            cooldown_left: 0,
            forced: None,
            stopped: false,
        };
        let shared = Arc::new((Mutex::new(state), Condvar::new()));
        let interval = interval.max(Duration::from_millis(1));
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("xpv-obs-watchdog".to_string())
            .spawn(move || {
                let (lock, wake) = &*thread_shared;
                let mut state = lock.lock().expect("watchdog poisoned");
                loop {
                    // The flag is the wait's predicate, checked under the
                    // lock *before* sleeping: a `stop()` that lands before
                    // this thread first waits is seen, not a lost wakeup
                    // that costs a full interval.
                    state = wake
                        .wait_timeout_while(state, interval, |s| !s.stopped)
                        .expect("watchdog poisoned")
                        .0;
                    if state.stopped {
                        return;
                    }
                    state.tick();
                }
            })
            .expect("spawn watchdog thread");
        Watchdog { shared, interval, thread: Mutex::new(Some(thread)) }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.shared.0.lock().expect("watchdog poisoned")
    }

    /// Evaluates every rule once, now, on the calling thread.
    pub fn tick(&self) {
        self.lock().tick();
    }

    /// Ticks evaluated so far.
    pub fn ticks(&self) -> u64 {
        self.lock().ticks
    }

    /// Every rule's current state, in registration order.
    pub fn alerts(&self) -> Vec<Alert> {
        self.lock().rules.iter().map(|r| r.alert.clone()).collect()
    }

    /// Whether the watchdog is currently forcing always-on sampling.
    pub fn trace_forced(&self) -> bool {
        self.lock().forced.is_some()
    }

    /// The configured tick interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Stops the thread and joins it (idempotent; also run on drop).
    pub fn stop(&self) {
        self.lock().stopped = true;
        self.shared.1.notify_all();
        if let Some(handle) = self.thread.lock().expect("watchdog thread poisoned").take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests_support::trace_lock;
    use crate::trace::{set_trace_sampling, trace_sampling, DEFAULT_TRACE_SAMPLING};
    use std::time::Instant;

    /// A watchdog whose thread never ticks during a test: `tick` is the
    /// only evaluation path (deterministic).
    fn manual(registry: &Registry, rules: Vec<HealthRule>, cooldown_ticks: u32) -> Watchdog {
        Watchdog::start(registry, rules, Duration::from_secs(3600), cooldown_ticks)
    }

    fn alert_count(registry: &Registry, name: &str) -> u64 {
        registry.counter(name).value()
    }

    #[test]
    fn heartbeat_guard_beats_even_on_unwind() {
        let registry = Registry::new();
        let hb = Heartbeat::new(&registry, "t");
        let read = || {
            (registry.gauge("xpv_hb_t_inflight").value(), registry.gauge("xpv_hb_t_beats").value())
        };
        {
            let _g = hb.begin();
            assert_eq!(read().0, 1);
        }
        assert_eq!(read(), (0, 1));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = hb.begin();
            panic!("unwind");
        }));
        assert!(result.is_err());
        assert_eq!(read(), (0, 2), "unwound op still beats");
    }

    #[test]
    fn stall_rule_fires_on_frozen_inflight_heartbeat_and_clears() {
        let _guard = trace_lock();
        let registry = Arc::new(Registry::new());
        let hb = Heartbeat::new(&registry, "maintain");
        let dog = manual(&registry, vec![HealthRule::heartbeat_stall("maintain", 2)], 3);

        // Healthy traffic: begin/end between ticks — never fires.
        for _ in 0..4 {
            drop(hb.begin());
            dog.tick();
        }
        assert_eq!(alert_count(&registry, "xpv_alert_maintain_stall_total"), 0);

        // Wedge: in flight, beats frozen. The healthy ticks already
        // established the beat baseline, so the stall is observed from
        // the first wedged tick and fires on the second.
        let wedged = hb.begin();
        dog.tick();
        assert_eq!(alert_count(&registry, "xpv_alert_stall_total"), 0, "below threshold");
        dog.tick();
        assert_eq!(alert_count(&registry, "xpv_alert_maintain_stall_total"), 1, "fires at 2 ticks");
        assert_eq!(alert_count(&registry, "xpv_alert_stall_total"), 1);
        assert_eq!(alert_count(&registry, "xpv_alerts_total"), 1);
        let alerts = dog.alerts();
        assert!(alerts[0].firing, "alert visible: {alerts:?}");
        assert_eq!(alerts[0].since_tick, 6);
        assert!(alerts[0].detail.contains("no beat"), "detail: {}", alerts[0].detail);

        // Unwedge: the beat advances, the rule clears.
        drop(wedged);
        dog.tick();
        assert!(!dog.alerts()[0].firing);
        assert_eq!(registry.gauge("xpv_alert_firing").value(), 0);
    }

    #[test]
    fn idle_heartbeat_never_fires() {
        let _guard = trace_lock();
        let registry = Arc::new(Registry::new());
        let _hb = Heartbeat::new(&registry, "flush");
        let dog = manual(&registry, vec![HealthRule::heartbeat_stall("flush", 1)], 3);
        for _ in 0..10 {
            dog.tick();
        }
        assert_eq!(alert_count(&registry, "xpv_alerts_total"), 0, "idle is not a stall");
    }

    #[test]
    fn firing_forces_always_on_sampling_then_cooldown_restores() {
        let _guard = trace_lock();
        set_trace_sampling(64);
        let registry = Arc::new(Registry::new());
        let hb = Heartbeat::new(&registry, "w");
        let dog = manual(&registry, vec![HealthRule::heartbeat_stall("w", 1)], 2);

        let wedged = hb.begin();
        dog.tick(); // baseline
        dog.tick(); // stalled 1 tick → fires
        assert_eq!(trace_sampling(), 1, "firing forces always-on");
        assert!(dog.trace_forced());
        assert_eq!(registry.gauge("xpv_alert_trace_forced").value(), 1);

        // Recovery: cooldown of 2 quiet ticks, then the knob restores.
        drop(wedged);
        dog.tick();
        assert_eq!(trace_sampling(), 1, "still in cooldown");
        dog.tick();
        assert_eq!(trace_sampling(), 64, "cooldown elapsed, knob restored");
        assert!(!dog.trace_forced());
        assert_eq!(registry.gauge("xpv_alert_trace_forced").value(), 0);
        set_trace_sampling(DEFAULT_TRACE_SAMPLING);
    }

    /// Two watchdogs whose firing windows overlap: the knob stays forced
    /// while either fires and ends at its original value, whichever
    /// cools down first.
    #[test]
    fn overlapping_watchdogs_keep_sampling_forced_until_the_last_cools_down() {
        let _guard = trace_lock();
        for a_cools_first in [true, false] {
            set_trace_sampling(64);
            let registry = Arc::new(Registry::new());
            let (hb_a, hb_b) = (Heartbeat::new(&registry, "a"), Heartbeat::new(&registry, "b"));
            let a = manual(&registry, vec![HealthRule::heartbeat_stall("a", 1)], 1);
            let b = manual(&registry, vec![HealthRule::heartbeat_stall("b", 1)], 1);
            let (wedged_a, wedged_b) = (hb_a.begin(), hb_b.begin());
            a.tick();
            b.tick(); // baselines
            a.tick();
            assert!(a.trace_forced(), "A fires");
            b.tick();
            assert!(b.trace_forced(), "B fires while A fires");
            assert_eq!(trace_sampling(), 1);

            let (first, second, wedged_first, wedged_second) = if a_cools_first {
                (&a, &b, wedged_a, wedged_b)
            } else {
                (&b, &a, wedged_b, wedged_a)
            };
            drop(wedged_first);
            first.tick(); // one quiet tick: cooldown 1 elapses
            assert!(!first.trace_forced());
            assert_eq!(trace_sampling(), 1, "still forced while the other fires");
            second.tick();
            assert_eq!(trace_sampling(), 1, "still forced while the other fires");
            drop(wedged_second);
            second.tick();
            assert!(!second.trace_forced());
            assert_eq!(trace_sampling(), 64, "both cooled down: the original knob is back");
        }
        set_trace_sampling(DEFAULT_TRACE_SAMPLING);
    }

    #[test]
    fn alert_instruments_exist_before_any_firing() {
        let registry = Arc::new(Registry::new());
        let _dog = manual(
            &registry,
            vec![HealthRule::heartbeat_stall("maintain", 5)],
            DEFAULT_COOLDOWN_TICKS,
        );
        let snap = registry.snapshot();
        for name in ["xpv_alerts_total", "xpv_alert_stall_total", "xpv_alert_maintain_stall_total"]
        {
            assert!(snap.get(name).is_some(), "{name} pre-registered");
        }
        assert!(snap.get("xpv_alert_firing").is_some());
    }

    #[test]
    fn watchdog_thread_ticks_and_stops() {
        let _guard = trace_lock();
        let before = trace_sampling();
        let registry = Arc::new(Registry::new());
        let hb = Heartbeat::new(&registry, "w");
        let watchdog = Watchdog::start(
            &registry,
            vec![HealthRule::heartbeat_stall("w", 1)],
            Duration::from_millis(5),
            1,
        );
        let wedged = hb.begin();
        let deadline = Instant::now() + Duration::from_secs(5);
        while alert_count(&registry, "xpv_alert_w_stall_total") == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(watchdog.ticks() >= 2, "watchdog thread ticked");
        assert!(alert_count(&registry, "xpv_alert_w_stall_total") >= 1, "the thread's ticks fire");
        // Stopped mid-incident: no tick can cool the rule down, so it
        // still holds its force until the watchdog drops.
        watchdog.stop();
        drop(wedged);
        let after = watchdog.ticks();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(watchdog.ticks(), after, "no ticks after stop");
        watchdog.stop(); // idempotent
        assert_eq!(trace_sampling(), 1);
        drop(watchdog);
        assert_eq!(trace_sampling(), before, "a dropped watchdog releases its force");
    }

    /// Regression: a `stop()` that wins the race against the freshly
    /// spawned thread (flag set and notified before the thread first
    /// waits) must not cost a full interval. Start-then-drop is exactly
    /// that race; the join runs on a helper thread so a regression fails
    /// the deadline instead of hanging the suite for an hour.
    #[test]
    fn immediate_drop_of_long_interval_watchdog_returns_promptly() {
        for _ in 0..20 {
            let watchdog =
                Watchdog::start(&Registry::new(), Vec::new(), Duration::from_secs(3600), 1);
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let dropper = std::thread::spawn(move || {
                drop(watchdog);
                let _ = done_tx.send(());
            });
            done_rx
                .recv_timeout(Duration::from_secs(2))
                .expect("dropping a just-started 3600 s watchdog must not wait out the interval");
            dropper.join().expect("dropper thread panicked");
        }
    }
}
