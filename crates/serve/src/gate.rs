//! The scheduler work gate: one mutex-guarded state block, a condition
//! variable announcing new work, and the shutdown latch — the admission
//! half of the server's Mutex+Condvar protocol, factored out so the
//! loom models in `tests/loom_queue.rs` check the exact production
//! type.
//!
//! The protocol rules the models prove:
//!
//! - consumers re-check their predicate under the lock before every
//!   wait, so a notification arriving while no one waits is harmless;
//! - producers call [`WorkGate::notify_work`] after **every** push
//!   (even when the queue was non-empty), because with several
//!   consumers a single coalesced notification can strand a waiter —
//!   this is exactly the `loom_mutation` seeded bug;
//! - correctness never relies on the timed backstop the worker loop
//!   uses for retry-backoff expiry: the models wait unbounded.

use std::time::Duration;

use momsynth_sync::sync::atomic::{AtomicBool, Ordering};
use momsynth_sync::sync::{Condvar, Mutex, MutexGuard};

/// Mutex-guarded scheduler state plus the work-announcement condition
/// variable and the shutdown latch.
///
/// Generic over the state block so the loom models can drive a bare
/// [`crate::queue::PendingQueue`] through the identical code path the
/// server uses with its full `Sched` block.
pub struct WorkGate<S> {
    state: Mutex<S>,
    work_ready: Condvar,
    shutdown: AtomicBool,
}

impl<S> WorkGate<S> {
    /// A gate around `state`, not yet shut down.
    pub fn new(state: S) -> Self {
        Self {
            state: Mutex::new(state),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Locks the state block. A poisoned lock is a bug upstream (a
    /// panic while holding the scheduler state); propagate it loudly.
    pub fn lock(&self) -> MutexGuard<'_, S> {
        self.state.lock().expect("work-gate state poisoned")
    }

    /// Blocks on the work condition until notified. The caller must
    /// re-check its predicate afterwards (condition variables admit
    /// spurious wakeups and stale notifications).
    pub fn wait_for_work<'a>(&self, guard: MutexGuard<'a, S>) -> MutexGuard<'a, S> {
        self.work_ready.wait(guard).expect("work-gate state poisoned")
    }

    /// Like [`Self::wait_for_work`] with a timeout backstop; the worker
    /// loop uses this so retry-backoff expiries are observed without a
    /// dedicated timer thread. Correctness must never depend on the
    /// timeout (the loom models wait unbounded).
    pub fn wait_for_work_timeout<'a>(
        &self,
        guard: MutexGuard<'a, S>,
        timeout: Duration,
    ) -> MutexGuard<'a, S> {
        let (guard, _) =
            self.work_ready.wait_timeout(guard, timeout).expect("work-gate state poisoned");
        guard
    }

    /// Announces that work may be available. `queued` is the queue
    /// depth observed when the work was produced; the correct protocol
    /// ignores it and wakes every waiter on every push.
    ///
    /// The `loom_mutation` variant applies the tempting "only the
    /// 0→1 transition needs a wakeup" coalescing, which loses
    /// notifications when a second item is pushed before the first is
    /// popped — `tests/loom_queue.rs` proves loom catches the
    /// resulting stranded-consumer deadlock.
    pub fn notify_work(&self, queued: usize) {
        #[cfg(loom_mutation)]
        {
            if queued == 1 {
                self.work_ready.notify_one();
            }
        }
        #[cfg(not(loom_mutation))]
        {
            let _ = queued;
            self.work_ready.notify_all();
        }
    }

    /// Latches shutdown and wakes every waiter so blocked consumers
    /// observe it promptly. Release pairs with the Acquire in
    /// [`Self::is_shutting_down`]: a consumer that sees the latch also
    /// sees every write made before shutdown began.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.work_ready.notify_all();
    }

    /// Whether shutdown has been requested (Acquire; see
    /// [`Self::begin_shutdown`]).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

impl<S> std::fmt::Debug for WorkGate<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkGate")
            .field("shutdown", &self.is_shutting_down())
            .finish_non_exhaustive()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use momsynth_sync::sync::Arc;
    use std::collections::VecDeque;

    #[test]
    fn gate_round_trips_items_between_threads() {
        let gate = Arc::new(WorkGate::new(VecDeque::new()));
        let consumer = {
            let gate = Arc::clone(&gate);
            momsynth_sync::thread::spawn(move || {
                let mut q = gate.lock();
                loop {
                    if let Some(v) = q.pop_front() {
                        return v;
                    }
                    q = gate.wait_for_work_timeout(q, Duration::from_millis(50));
                }
            })
        };
        {
            let mut q = gate.lock();
            q.push_back(7u32);
            let queued = q.len();
            drop(q);
            gate.notify_work(queued);
        }
        assert_eq!(consumer.join().unwrap(), 7);
    }

    #[test]
    fn shutdown_latch_is_sticky_and_wakes_waiters() {
        let gate = Arc::new(WorkGate::new(()));
        assert!(!gate.is_shutting_down());
        let waiter = {
            let gate = Arc::clone(&gate);
            momsynth_sync::thread::spawn(move || {
                let mut guard = gate.lock();
                while !gate.is_shutting_down() {
                    guard = gate.wait_for_work_timeout(guard, Duration::from_millis(50));
                }
            })
        };
        gate.begin_shutdown();
        waiter.join().unwrap();
        assert!(gate.is_shutting_down());
    }
}
