//! The workspace synchronization facade.
//!
//! Every crate that spawns threads or shares state imports its
//! primitives from here instead of `std::sync`/`std::thread` (enforced
//! by the `raw-std-sync-import` rule in `momsynth-lint`). A normal
//! build re-exports `std`, so the facade costs nothing. Building with
//! `RUSTFLAGS="--cfg loom"` swaps in the vendored [`loom`] model
//! checker, whose primitives exhaustively explore thread interleavings
//! and weak-memory behaviours inside `loom::model(..)` — see the
//! `tests/loom*.rs` suites in core, metrics, serve and telemetry, and
//! DESIGN.md §17 for the methodology.
//!
//! What is deliberately *not* swapped:
//!
//! - `mpsc` channels: loom does not model them. They are re-exported
//!   from `std` under both cfgs; this is sound inside a model because
//!   only one controlled thread runs at a time (use `try_recv`, never
//!   a blocking `recv`, inside a model).
//! - `thread::scope`: only available under `cfg(not(loom))`. Code with
//!   scoped parallelism keeps a serial fallback under `cfg(loom)` (see
//!   `momsynth-core`'s batch evaluator).
//!
//! Under `cfg(loom)` the atomic types are **not** `const`-constructible
//! (loom registers cells lazily per execution), so `static` cells must
//! either stay out of loom builds or be wrapped in `Once`-style
//! initialization. The workspace's only `static` atomic (the CLI's
//! interrupt flag) lives in a binary crate that is never built under
//! loom.

/// Synchronization primitives (`std::sync` or `loom::sync`).
pub mod sync {
    #[cfg(not(loom))]
    pub use std::sync::{
        Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, TryLockError, TryLockResult,
        WaitTimeoutResult, Weak,
    };

    #[cfg(loom)]
    pub use loom::sync::{
        Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, TryLockError, TryLockResult,
        WaitTimeoutResult,
    };

    /// Channels are never modeled; `std`'s are safe under the checker
    /// because controlled threads run one at a time.
    pub use std::sync::mpsc;

    /// Atomic types and memory orderings (`std` or loom's modeled
    /// cells).
    pub mod atomic {
        #[cfg(not(loom))]
        pub use std::sync::atomic::{
            AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering,
        };

        #[cfg(loom)]
        pub use loom::sync::atomic::{
            AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering,
        };
    }
}

/// Thread spawning and scheduling hints (`std::thread` or
/// `loom::thread`).
pub mod thread {
    #[cfg(not(loom))]
    pub use std::thread::*;

    #[cfg(loom)]
    pub use loom::thread::{spawn, yield_now, JoinHandle};
}

/// Runs `f` under the loom model checker when built with `--cfg loom`.
///
/// Exposed so model tests depend only on `momsynth-sync`; test modules
/// call `momsynth_sync::model(|| ...)`.
#[cfg(loom)]
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    loom::model(f);
}

#[cfg(all(test, not(loom)))]
mod tests {
    #[test]
    fn facade_reexports_std_under_normal_builds() {
        use super::sync::atomic::{AtomicU64, Ordering};
        use super::sync::{Arc, Condvar, Mutex};
        use std::time::Duration;

        let counter = Arc::new(AtomicU64::new(0));
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let (c2, p2) = (Arc::clone(&counter), Arc::clone(&pair));
        let t = super::thread::spawn(move || {
            c2.fetch_add(1, Ordering::Relaxed);
            let (lock, cv) = &*p2;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        });
        let (lock, cv) = &*pair;
        let mut done = lock.lock().unwrap();
        while !*done {
            let (guard, _) = cv.wait_timeout(done, Duration::from_millis(50)).unwrap();
            done = guard;
        }
        drop(done);
        t.join().unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }
}
