//! Loom models for the telemetry fan-out path: concurrent writers
//! through a shared [`Fanout`] must deliver every event to every
//! member sink, whole, with an exact lock-free recorded count.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p momsynth-telemetry
//! --test loom_fanout --release`; add `--cfg loom_mutation` to arm the
//! seeded lost-update in `MemorySink`'s recorded counter and assert
//! loom catches it.

#![cfg(loom)]

use momsynth_sync::sync::Arc;
use momsynth_sync::thread;
use momsynth_telemetry::{Event, Fanout, MemorySink, Sink, Warning};

fn warning(message: &str) -> Event {
    Event::Warning(Warning { message: message.into() })
}

/// Two threads record through one shared sink; both events must land
/// and the lock-free hint must agree.
fn memory_sink_model() {
    let sink = Arc::new(MemorySink::new());
    let writers: Vec<_> = ["a", "b"]
        .into_iter()
        .map(|tag| {
            let sink = Arc::clone(&sink);
            thread::spawn(move || sink.record(&warning(tag)))
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    assert_eq!(sink.events().len(), 2, "no event may be lost or torn");
    assert_eq!(sink.recorded_hint(), 2, "the lock-free count must be exact");
}

#[cfg(not(loom_mutation))]
#[test]
fn concurrent_memory_sink_records_are_atomic() {
    momsynth_sync::model(memory_sink_model);
}

/// With `--cfg loom_mutation` the recorded counter is a non-atomic
/// load+store; the model must fail, proving detection power.
#[cfg(loom_mutation)]
#[test]
fn seeded_lost_update_in_recorded_hint_is_caught() {
    let result = std::panic::catch_unwind(|| momsynth_sync::model(memory_sink_model));
    assert!(result.is_err(), "loom failed to detect the seeded lost-update in MemorySink::record");
}

/// Delegating wrapper so the model keeps handles to sinks owned by the
/// fan-out.
struct Shared(Arc<MemorySink>);

impl Sink for Shared {
    fn record(&self, event: &Event) {
        self.0.record(event);
    }
}

#[cfg(not(loom_mutation))]
#[test]
fn fanout_delivers_every_event_to_every_member() {
    momsynth_sync::model(|| {
        let members = [Arc::new(MemorySink::new()), Arc::new(MemorySink::new())];
        let mut fanout = Fanout::new();
        for member in &members {
            fanout.push(Box::new(Shared(Arc::clone(member))));
        }
        let fanout = Arc::new(fanout);
        let writers: Vec<_> = ["x", "y"]
            .into_iter()
            .map(|tag| {
                let fanout = Arc::clone(&fanout);
                thread::spawn(move || fanout.record(&warning(tag)))
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        // Each member saw both events exactly once; members may
        // disagree on order (delivery is not globally serialized).
        for member in &members {
            let mut tags: Vec<String> = member
                .events()
                .iter()
                .map(|e| match e {
                    Event::Warning(w) => w.message.clone(),
                    other => panic!("unexpected event {other:?}"),
                })
                .collect();
            tags.sort();
            assert_eq!(tags, ["x", "y"], "every member sees every event once");
        }
    });
}
