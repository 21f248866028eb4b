//! Loom models for the server's admission/shed protocol on
//! [`WorkGate`] + [`PendingQueue`], and for the subscriber hub.
//!
//! Properties proved:
//!
//! - **No shed-vs-admit double count.** Racing submissions into a full
//!   queue leave the queue, the shed set and the rejection count in
//!   exact agreement: every submission is admitted, shed or rejected
//!   exactly once.
//! - **No lost wakeup.** Producers that notify after every push always
//!   wake enough unbounded-waiting consumers to drain the queue — with
//!   no reliance on the worker loop's timed backstop. The
//!   `loom_mutation` variant coalesces notifications ("only the 0→1
//!   transition wakes") and must deadlock under loom.
//! - **Subscriber hub.** Subscribing races a broadcast without losing
//!   the subscription: a later broadcast always reaches the
//!   subscriber.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p momsynth-serve
//! --test loom_queue --release`; add `--cfg loom_mutation` for the
//! seeded lost-notification check.

#![cfg(loom)]

use momsynth_serve::{PendingQueue, PushOutcome, QueueEntry, SubscriberHub, WorkGate};
use momsynth_sync::sync::atomic::{AtomicU64, Ordering};
use momsynth_sync::sync::Arc;
use momsynth_sync::thread;

fn entry(id: &str, priority: u8, seq: u64) -> QueueEntry {
    QueueEntry { id: id.into(), priority, seq, not_before: None }
}

/// Two submitters race into a capacity-1 queue through the production
/// admission path: the low-priority job is either shed by the high one
/// (low arrived first) or rejected (high arrived first). In every
/// interleaving the high-priority job wins the slot and the
/// shed/reject counters account for the loser exactly once.
#[cfg(not(loom_mutation))]
#[test]
fn shed_and_admit_never_double_count() {
    momsynth_sync::model(|| {
        let gate = Arc::new(WorkGate::new(PendingQueue::new(1)));
        let shed = Arc::new(AtomicU64::new(0));
        let rejected = Arc::new(AtomicU64::new(0));
        let submitters: Vec<_> = [("low", 1u8, 1u64), ("high", 5, 2)]
            .into_iter()
            .map(|(id, priority, seq)| {
                let gate = Arc::clone(&gate);
                let shed = Arc::clone(&shed);
                let rejected = Arc::clone(&rejected);
                let entry = entry(id, priority, seq);
                thread::spawn(move || {
                    let mut queue = gate.lock();
                    let outcome = queue.push(entry);
                    let queued = queue.len();
                    drop(queue);
                    // Counters are bumped outside the lock, like the
                    // server's metrics: the model proves the atomic
                    // bookkeeping still balances.
                    match outcome {
                        PushOutcome::Enqueued => gate.notify_work(queued),
                        PushOutcome::EnqueuedShedding(_) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                            gate.notify_work(queued);
                        }
                        PushOutcome::Rejected { .. } => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }
        let queue = gate.lock();
        let shed = shed.load(Ordering::Relaxed);
        let rejected = rejected.load(Ordering::Relaxed);
        assert_eq!(queue.len(), 1, "exactly one submission holds the slot");
        assert_eq!(
            queue.len() as u64 + shed + rejected,
            2,
            "every submission is admitted, shed or rejected exactly once"
        );
        assert_eq!(shed + rejected, 1, "the low-priority job lost exactly once");
    });
}

/// The wakeup model shared by the pass/mutation tests: two consumers
/// wait **unbounded** for one item each while a producer pushes two
/// items, notifying after every push. With per-push notification every
/// interleaving drains the queue; with the `loom_mutation` coalescing
/// ("only when the queue was empty") a consumer can be stranded after
/// the second push and loom reports the deadlock.
fn wakeup_model() {
    let gate = Arc::new(WorkGate::new(PendingQueue::new(4)));
    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                let mut queue = gate.lock();
                loop {
                    let now = std::time::Instant::now();
                    if let Some(e) = queue.pop_due(now) {
                        return e.seq;
                    }
                    // Unbounded wait: correctness must come from the
                    // producer's notifications, not a timed backstop.
                    queue = gate.wait_for_work(queue);
                }
            })
        })
        .collect();
    let producer = {
        let gate = Arc::clone(&gate);
        thread::spawn(move || {
            for seq in [1u64, 2] {
                let mut queue = gate.lock();
                queue.push_retry(entry("job", 0, seq));
                let queued = queue.len();
                drop(queue);
                gate.notify_work(queued);
            }
        })
    };
    producer.join().unwrap();
    let mut seqs: Vec<u64> = consumers.into_iter().map(|c| c.join().unwrap()).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, vec![1, 2], "both items are consumed exactly once");
}

#[cfg(not(loom_mutation))]
#[test]
fn every_push_notification_prevents_stranded_consumers() {
    momsynth_sync::model(wakeup_model);
}

/// A subscription racing a broadcast is never lost: the subscriber may
/// or may not see the in-flight line, but a broadcast sent after both
/// threads joined always reaches it.
#[cfg(not(loom_mutation))]
#[test]
fn racing_subscription_is_never_lost() {
    momsynth_sync::model(|| {
        let hub = Arc::new(SubscriberHub::default());
        let subscriber = {
            let hub = Arc::clone(&hub);
            thread::spawn(move || hub.subscribe(None))
        };
        let broadcaster = {
            let hub = Arc::clone(&hub);
            thread::spawn(move || hub.broadcast("job", "early"))
        };
        broadcaster.join().unwrap();
        let rx = subscriber.join().unwrap();
        hub.broadcast("job", "late");
        let mut lines = Vec::new();
        while let Ok(line) = rx.try_recv() {
            lines.push(line);
        }
        assert_eq!(hub.len(), 1, "the subscription must survive the race");
        assert!(
            lines == ["late"] || lines == ["early", "late"],
            "the post-join broadcast must always arrive, got {lines:?}"
        );
    });
}

/// With `--cfg loom_mutation`, `WorkGate::notify_work` coalesces to
/// "notify only on the 0→1 transition"; the second push then strands a
/// waiting consumer forever, and loom must report the deadlock.
#[cfg(loom_mutation)]
#[test]
fn seeded_coalesced_notification_is_caught() {
    let result = std::panic::catch_unwind(|| momsynth_sync::model(wakeup_model));
    let message = match result {
        Ok(()) => panic!("loom missed the seeded notification coalescing in WorkGate"),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default(),
    };
    assert!(message.contains("deadlock"), "expected a stranded-consumer deadlock, got: {message}");
}
