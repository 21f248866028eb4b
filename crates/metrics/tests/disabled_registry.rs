//! Property test: a disabled [`Registry`] is observationally a no-op
//! under arbitrary concurrent instrument traffic — it never allocates
//! a cell, never records a value, and renders an empty exposition —
//! including through the [`MetricsSink`] telemetry path the job server
//! uses.

use momsynth_metrics::{MetricsSink, Registry, RunMetrics};
use momsynth_sync::sync::Arc;
use momsynth_sync::thread;
use momsynth_telemetry::{Counters, Event, GenerationEvent, Sink, Warning};
use proptest::prelude::*;

/// One randomly chosen instrument operation.
#[derive(Debug, Clone)]
enum Op {
    CounterInc { name: usize, by: u64 },
    GaugeSet { name: usize, to: i64 },
    GaugeAdd { name: usize, by: i64 },
    Observe { name: usize, value: f64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..4, 0usize..4, 0u64..1000, -500i64..500, -1.0f64..100.0).prop_map(
        |(kind, name, by, delta, value)| match kind {
            0 => Op::CounterInc { name, by },
            1 => Op::GaugeSet { name, to: delta },
            2 => Op::GaugeAdd { name, by: delta },
            _ => Op::Observe { name, value },
        },
    )
}

fn apply(registry: &Registry, op: &Op) {
    const NAMES: [&str; 4] = [
        "momsynth_a_total",
        "momsynth_b_total",
        "momsynth_c_seconds",
        "momsynth_d_things",
    ];
    match op {
        Op::CounterInc { name, by } => {
            let c = registry.counter(NAMES[*name], "h", &[("k", "v")]);
            c.add(*by);
            assert_eq!(c.value(), 0, "disabled counters never accumulate");
            assert!(
                format!("{c:?}").contains("cell: None"),
                "disabled registry must not allocate cells: {c:?}"
            );
        }
        Op::GaugeSet { name, to } => {
            let g = registry.gauge(NAMES[*name], "h", &[]);
            g.set(*to);
            assert!(format!("{g:?}").contains("cell: None"), "{g:?}");
        }
        Op::GaugeAdd { name, by } => {
            let g = registry.gauge(NAMES[*name], "h", &[]);
            g.add(*by);
            g.sub(*by);
            assert!(format!("{g:?}").contains("cell: None"), "{g:?}");
        }
        Op::Observe { name, value } => {
            let h = registry.histogram(NAMES[*name], "h", &[0.5, 5.0], &[]);
            h.observe(*value);
            assert!(format!("{h:?}").contains("cell: None"), "{h:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Arbitrary operation sequences applied from two threads leave a
    /// disabled registry completely empty.
    #[test]
    fn disabled_registry_is_a_noop_under_concurrent_use(
        ops_a in proptest::collection::vec(op_strategy(), 1..40),
        ops_b in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let registry = Registry::disabled();
        prop_assert!(!registry.is_enabled());
        let workers: Vec<_> = [ops_a, ops_b]
            .into_iter()
            .map(|ops| {
                let registry = registry.clone();
                thread::spawn(move || {
                    for op in &ops {
                        apply(&registry, op);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let snapshot = registry.snapshot();
        prop_assert!(snapshot.counters.is_empty());
        prop_assert!(snapshot.gauges.is_empty());
        prop_assert!(snapshot.histograms.is_empty());
        prop_assert_eq!(snapshot.to_prometheus(), "");
    }

    /// The serve-path telemetry bridge: a `MetricsSink` over a disabled
    /// registry swallows arbitrary generation events without recording
    /// anything.
    #[test]
    fn metrics_sink_over_disabled_registry_records_nothing(
        generations in proptest::collection::vec(
            (0..10_000u64, 0..1_000_000u64, -1e6..1e6f64, 0.0..1e6f64),
            1..25,
        ),
    ) {
        let registry = Registry::disabled();
        let sink = Arc::new(MetricsSink::new(&RunMetrics::new(&registry)));
        let events: Vec<Event> = generations
            .into_iter()
            .map(|(generation, evaluations, best, evals_per_sec)| {
                Event::Generation(GenerationEvent {
                    generation,
                    evaluations,
                    best,
                    mean: best + 1.0,
                    worst: best + 2.0,
                    stagnation: 0,
                    evals_per_sec,
                    counters: Counters::default(),
                })
            })
            .collect();
        let half = events.len() / 2;
        let workers: Vec<_> = [events[..half].to_vec(), events[half..].to_vec()]
            .into_iter()
            .map(|chunk| {
                let sink = Arc::clone(&sink);
                thread::spawn(move || {
                    for event in &chunk {
                        sink.record(event);
                    }
                    sink.record(&Event::Warning(Warning { message: "w".into() }));
                    sink.flush();
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let snapshot = registry.snapshot();
        prop_assert!(snapshot.counters.is_empty());
        prop_assert!(snapshot.gauges.is_empty());
        prop_assert!(snapshot.histograms.is_empty());
    }
}
