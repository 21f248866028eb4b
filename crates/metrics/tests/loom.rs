//! Loom models for the metrics instruments: exhaustively explore
//! concurrent use of `Counter`/`Gauge`/`Histogram` cells and registry
//! registration, proving the counters linearizable under the weak
//! memory model.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p momsynth-metrics
//! --test loom --release`. Adding `--cfg loom_mutation` arms a seeded
//! lost-update bug in `Counter::add` and flips the suite into
//! detection-power mode: it then asserts that loom *catches* the bug.

#![cfg(loom)]

use momsynth_metrics::Registry;
use momsynth_sync::thread;

/// Two writers increment one counter family; every interleaving must
/// observe all four increments.
fn counter_model() {
    let registry = Registry::new();
    let counter = registry.counter("m_total", "model counter", &[]);
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let counter = counter.clone();
            thread::spawn(move || {
                counter.inc();
                counter.add(1);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(counter.value(), 4, "increments must never be lost");
}

#[cfg(not(loom_mutation))]
#[test]
fn concurrent_counter_increments_are_linearizable() {
    momsynth_sync::model(counter_model);
}

/// With `--cfg loom_mutation`, `Counter::add` is a non-atomic
/// load+store; the model must fail, proving it has teeth.
#[cfg(loom_mutation)]
#[test]
fn seeded_lost_update_in_counter_add_is_caught() {
    let result = std::panic::catch_unwind(|| momsynth_sync::model(counter_model));
    assert!(result.is_err(), "loom failed to detect the seeded lost-update bug in Counter::add");
}

#[cfg(not(loom_mutation))]
#[test]
fn concurrent_gauge_adds_balance_out() {
    momsynth_sync::model(|| {
        let registry = Registry::new();
        let gauge = registry.gauge("m_level", "model gauge", &[]);
        let up = {
            let gauge = gauge.clone();
            thread::spawn(move || gauge.add(2))
        };
        let down = {
            let gauge = gauge.clone();
            thread::spawn(move || gauge.sub(1))
        };
        up.join().unwrap();
        down.join().unwrap();
        assert_eq!(gauge.value(), 1, "adds and subs must commute");
    });
}

#[cfg(not(loom_mutation))]
#[test]
fn concurrent_histogram_observations_stay_consistent() {
    momsynth_sync::model(|| {
        let registry = Registry::new();
        let histogram = registry.histogram("m_seconds", "model histogram", &[0.1, 1.0], &[]);
        let writers: Vec<_> = [0.05, 5.0]
            .into_iter()
            .map(|v| {
                let histogram = histogram.clone();
                thread::spawn(move || histogram.observe(v))
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(histogram.count(), 2, "observation count must be exact");
        let snap = registry.snapshot();
        let sample = snap.histogram_sample("m_seconds", &[]).unwrap();
        assert_eq!(sample.count, 2);
        assert!((sample.sum - 5.05).abs() < 1e-12, "sum CAS loop must not lose adds");
        assert_eq!(sample.counts.iter().sum::<u64>(), 2, "bucket counts must add up");
    });
}

/// Registering the same family from two threads must converge on one
/// cell (the registry mutex serializes registration) and lose no
/// increments made through either handle.
#[cfg(not(loom_mutation))]
#[test]
fn concurrent_registration_converges_on_one_cell() {
    momsynth_sync::model(|| {
        let registry = Registry::new();
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let registry = registry.clone();
                thread::spawn(move || {
                    let counter = registry.counter("m_shared_total", "shared", &[]);
                    counter.inc();
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("m_shared_total", &[]), Some(2));
        assert_eq!(
            snap.counters.iter().filter(|c| c.name == "m_shared_total").count(),
            1,
            "double registration must not fork the family"
        );
    });
}
