//! A small hand-rolled executor: a fixed pool of worker threads polling
//! `std::future::Future` tasks, paired with one [`Reactor`] thread.
//!
//! This is the **fixed CPU worker pool** the async serving front-end
//! multiplexes connections onto: each connection is one task, suspended
//! (zero threads, zero stack) while idle, scheduled onto a worker only
//! when its socket has bytes or its batch finishes. CPU-bound work (query
//! answering) runs directly on the worker that polls the task — the pool's
//! size, not the connection count, bounds parallelism.
//!
//! Scheduling is the textbook wake-to-queue design: every spawned task
//! carries an atomic 4-state flag (`IDLE`/`QUEUED`/`RUNNING`/`NOTIFIED`)
//! so a wake during a poll re-queues the task exactly once and a task is
//! never polled by two workers at a time. There is no work stealing — a
//! single injector queue + condvar is enough at serving batch granularity
//! (the per-batch work dwarfs the queue hop).
//!
//! [`Runtime::wait_idle`] blocks until every spawned task has completed —
//! the building block for graceful drain: signal the server's
//! [`crate::sync::DrainSignal`], then `wait_idle`, then [`Runtime::shutdown`].

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::thread::JoinHandle;

use crate::reactor::Reactor;

const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

struct Task {
    future: Mutex<Option<BoxFuture>>,
    state: AtomicU8,
    rt: Arc<RtShared>,
}

impl Task {
    /// Schedules the task unless it is already queued (or will observe the
    /// wake through `NOTIFIED` after its current poll).
    fn wake_task(self: &Arc<Task>) {
        loop {
            let state = self.state.load(Ordering::Acquire);
            let (target, enqueue) = match state {
                IDLE => (QUEUED, true),
                RUNNING => (NOTIFIED, false),
                QUEUED | NOTIFIED => return,
                _ => unreachable!("invalid task state"),
            };
            if self
                .state
                .compare_exchange(state, target, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                if enqueue {
                    self.rt.enqueue(Arc::clone(self));
                }
                return;
            }
        }
    }

    /// Polls the task once on the calling worker.
    fn run(self: Arc<Task>) {
        self.state.store(RUNNING, Ordering::Release);
        let waker = waker_for(Arc::clone(&self));
        let mut cx = Context::from_waker(&waker);
        let mut slot = self.future.lock().expect("task future poisoned");
        let Some(future) = slot.as_mut() else {
            return;
        };
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                *slot = None;
                drop(slot);
                self.state.store(IDLE, Ordering::Release);
                self.rt.task_done();
            }
            Poll::Pending => {
                drop(slot);
                // A wake that arrived mid-poll left NOTIFIED: re-queue.
                if self
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    self.state.store(QUEUED, Ordering::Release);
                    let rt = Arc::clone(&self.rt);
                    rt.enqueue(self);
                }
            }
        }
    }
}

fn waker_for(task: Arc<Task>) -> Waker {
    unsafe fn clone(ptr: *const ()) -> RawWaker {
        let task = unsafe { Arc::from_raw(ptr as *const Task) };
        let cloned = Arc::clone(&task);
        std::mem::forget(task);
        RawWaker::new(Arc::into_raw(cloned) as *const (), &VTABLE)
    }
    unsafe fn wake(ptr: *const ()) {
        let task = unsafe { Arc::from_raw(ptr as *const Task) };
        task.wake_task();
    }
    unsafe fn wake_by_ref(ptr: *const ()) {
        let task = unsafe { Arc::from_raw(ptr as *const Task) };
        task.wake_task();
        std::mem::forget(task);
    }
    unsafe fn drop_raw(ptr: *const ()) {
        drop(unsafe { Arc::from_raw(ptr as *const Task) });
    }
    static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, wake, wake_by_ref, drop_raw);
    unsafe { Waker::from_raw(RawWaker::new(Arc::into_raw(task) as *const (), &VTABLE)) }
}

struct RtShared {
    ready: Mutex<VecDeque<Arc<Task>>>,
    ready_cv: Condvar,
    stopping: AtomicBool,
    /// Spawned-but-unfinished task count, guarded for `wait_idle`.
    live: Mutex<usize>,
    idle_cv: Condvar,
    reactor: Arc<Reactor>,
}

impl RtShared {
    fn enqueue(&self, task: Arc<Task>) {
        self.ready.lock().expect("run queue poisoned").push_back(task);
        self.ready_cv.notify_one();
    }

    fn task_done(&self) {
        let mut live = self.live.lock().expect("live count poisoned");
        *live -= 1;
        if *live == 0 {
            self.idle_cv.notify_all();
        }
    }
}

/// A worker pool + reactor pair driving spawned futures to completion.
pub struct Runtime {
    shared: Arc<RtShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    reactor_thread: Mutex<Option<JoinHandle<()>>>,
}

impl Runtime {
    /// Starts `workers` poll threads (minimum 1) and the reactor thread.
    pub fn new(workers: usize) -> std::io::Result<Runtime> {
        let reactor = Arc::new(Reactor::new()?);
        let shared = Arc::new(RtShared {
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            stopping: AtomicBool::new(false),
            live: Mutex::new(0),
            idle_cv: Condvar::new(),
            reactor: Arc::clone(&reactor),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("xpv-async-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn async worker")
            })
            .collect();
        let reactor_thread = std::thread::Builder::new()
            .name("xpv-reactor".to_string())
            .spawn(move || reactor.run())
            .expect("spawn reactor thread");
        Ok(Runtime {
            shared,
            workers: Mutex::new(handles),
            reactor_thread: Mutex::new(Some(reactor_thread)),
        })
    }

    /// The reactor descriptors register with.
    pub fn reactor(&self) -> &Arc<Reactor> {
        &self.shared.reactor
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.lock().expect("worker handles poisoned").len()
    }

    /// Spawns `future` onto the pool. Returns `false` (dropping the
    /// future) if the runtime is already stopping — callers treat that as
    /// a rejected admission.
    pub fn spawn(&self, future: impl Future<Output = ()> + Send + 'static) -> bool {
        {
            let mut live = self.shared.live.lock().expect("live count poisoned");
            *live += 1;
        }
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(future))),
            state: AtomicU8::new(QUEUED),
            rt: Arc::clone(&self.shared),
        });
        // The `stopping` check happens under the run-queue lock — the same
        // lock a worker holds when it decides to exit — so a task is
        // either pushed before some worker's final empty-queue check (and
        // gets run) or rejected here; it can never be stranded in a queue
        // no worker will ever drain again.
        let pushed = {
            let mut ready = self.shared.ready.lock().expect("run queue poisoned");
            if self.shared.stopping.load(Ordering::Acquire) {
                false
            } else {
                ready.push_back(task);
                true
            }
        };
        if pushed {
            self.shared.ready_cv.notify_one();
        } else {
            self.shared.task_done();
        }
        pushed
    }

    /// Blocks until every spawned task has completed. Only meaningful once
    /// the caller has stopped the sources of new work (drain signal set,
    /// listeners closed); the runtime keeps polling while we wait.
    pub fn wait_idle(&self) {
        let mut live = self.shared.live.lock().expect("live count poisoned");
        while *live != 0 {
            live = self.shared.idle_cv.wait(live).expect("live count poisoned");
        }
    }

    /// Stops accepting spawns, joins the workers (which finish the queue
    /// first), and stops the reactor. Idempotent.
    pub fn shutdown(&self) {
        // Set the flag under the run-queue lock: a parking worker checks it
        // under that lock and `Condvar::wait` releases the lock atomically,
        // so the worker either sees the flag or is already waiting when the
        // notification below fires. Storing it unlocked could land between
        // a worker's check and its wait — a lost wakeup that leaves the
        // join below blocked forever.
        {
            let _ready = self.shared.ready.lock().expect("run queue poisoned");
            self.shared.stopping.store(true, Ordering::Release);
        }
        self.shared.ready_cv.notify_all();
        let mut workers = self.workers.lock().expect("worker handles poisoned");
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
        self.shared.reactor.shutdown();
        if let Some(handle) = self.reactor_thread.lock().expect("reactor handle poisoned").take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &RtShared) {
    loop {
        let task = {
            let mut ready = shared.ready.lock().expect("run queue poisoned");
            loop {
                if let Some(task) = ready.pop_front() {
                    break task;
                }
                if shared.stopping.load(Ordering::Acquire) {
                    return;
                }
                ready = shared.ready_cv.wait(ready).expect("run queue poisoned");
            }
        };
        task.run();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn spawned_tasks_run_to_completion() {
        let rt = Runtime::new(2).expect("runtime");
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let counter = Arc::clone(&counter);
            assert!(rt.spawn(async move {
                counter.fetch_add(1, Ordering::Relaxed);
            }));
        }
        rt.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn wakes_reschedule_a_pending_task() {
        struct YieldOnce(bool);
        impl Future for YieldOnce {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.0 {
                    Poll::Ready(())
                } else {
                    self.0 = true;
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
            }
        }
        let rt = Runtime::new(1).expect("runtime");
        let (tx, rx) = mpsc::channel();
        rt.spawn(async move {
            YieldOnce(false).await;
            tx.send(()).expect("receiver alive");
        });
        rx.recv_timeout(std::time::Duration::from_secs(5)).expect("task completed");
        rt.wait_idle();
    }

    #[test]
    fn spawn_after_shutdown_is_rejected() {
        let rt = Runtime::new(1).expect("runtime");
        rt.shutdown();
        assert!(!rt.spawn(async {}));
    }
}
