//! Bridges telemetry events into registry instruments.

use momsynth_sync::sync::Mutex;
use momsynth_telemetry::{Counters, Event, Phase, Sink};

use crate::{Counter, Gauge, Histogram, Registry, DEFAULT_DURATION_BOUNDS_S};

/// Per-phase wall-time bucket bounds in seconds: synthesis phases on the
/// seed workloads run from microseconds to a few seconds.
const PHASE_BOUNDS_S: [f64; 16] = [
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.5, 1.0,
    5.0,
];

/// The counter families delta-decoded from the cumulative
/// per-generation [`Counters`]: family, help string and the field read.
type CounterFamily = (&'static str, &'static str, fn(&Counters) -> u64);

const COUNTER_FAMILIES: [CounterFamily; 3] = [
    ("momsynth_evaluations_total", "Fitness evaluations actually priced", |c| c.evaluated),
    (
        "momsynth_evaluations_rejected_total",
        "Evaluations rejected (errored, panicked or non-finite)",
        |c| c.rejected,
    ),
    ("momsynth_dvs_iterations_total", "PV-DVS inner-loop iterations spent", |c| c.dvs_iterations),
];

/// The core-loop instrument families: per-phase wall time as
/// histograms (observed from each run's phase spans), three counters
/// mirroring fields of [`Counters`], live `evals/sec` as a gauge, and
/// run counts and durations. Registered once per registry — the job
/// server does it at start, next to its own families — and shared by
/// every run's [`MetricsSink`]; a clone shares the same cells.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    enabled: bool,
    runs_started: Counter,
    runs_finished: Counter,
    run_duration: Histogram,
    generations: Counter,
    evals_per_sec: Gauge,
    /// One counter per [`COUNTER_FAMILIES`] entry, in table order.
    counters: Vec<Counter>,
    /// One histogram per phase, indexed by [`Phase::index`].
    phase_seconds: Vec<Histogram>,
}

impl RunMetrics {
    /// Registers the core-loop families on `registry`. All of them exist
    /// (at zero) from this point, so scrapes before the first run still
    /// see the full taxonomy.
    pub fn new(registry: &Registry) -> Self {
        Self {
            enabled: registry.is_enabled(),
            runs_started: registry.counter(
                "momsynth_runs_started_total",
                "Synthesis runs started (resumes included)",
                &[],
            ),
            runs_finished: registry.counter(
                "momsynth_runs_finished_total",
                "Synthesis runs that produced a summary",
                &[],
            ),
            run_duration: registry.histogram(
                "momsynth_run_duration_seconds",
                "Wall time of finished synthesis runs",
                &DEFAULT_DURATION_BOUNDS_S,
                &[],
            ),
            generations: registry.counter(
                "momsynth_generations_total",
                "GA generations completed",
                &[],
            ),
            evals_per_sec: registry.gauge(
                "momsynth_evals_per_sec",
                "Live evaluation throughput of the most recent generation",
                &[],
            ),
            counters: COUNTER_FAMILIES
                .iter()
                .map(|(name, help, _)| registry.counter(name, help, &[]))
                .collect(),
            phase_seconds: Phase::ALL
                .iter()
                .map(|phase| {
                    registry.histogram(
                        "momsynth_run_phase_seconds",
                        "Wall time per synthesis phase, one observation per run",
                        &PHASE_BOUNDS_S,
                        &[("phase", phase.name())],
                    )
                })
                .collect(),
        }
    }
}

/// A telemetry [`Sink`] that re-emits one run's events on the shared
/// [`RunMetrics`]. The counter families are delta-decoded from the
/// cumulative per-generation [`Counters`], so the sink keeps only its
/// run's decoder state and registers nothing itself.
///
/// The sink reports [`Sink::enabled`] only when its registry is
/// enabled, so the synthesis core skips event construction entirely for
/// a disabled registry — the same zero-cost contract as every other
/// sink.
#[derive(Debug)]
pub struct MetricsSink {
    metrics: RunMetrics,
    /// Delta-decoder state: the cumulative counters of the last
    /// generation seen, and whether the next generation event is the
    /// baseline of a resumed run (whose deltas must not be re-counted).
    state: Mutex<DeltaState>,
}

#[derive(Debug, Default)]
struct DeltaState {
    last: Option<Counters>,
    resumed: bool,
}

impl MetricsSink {
    /// A sink for one run, recording on `metrics`.
    pub fn new(metrics: &RunMetrics) -> Self {
        Self { metrics: metrics.clone(), state: Mutex::new(DeltaState::default()) }
    }
}

impl Sink for MetricsSink {
    fn enabled(&self) -> bool {
        self.metrics.enabled
    }

    fn record(&self, event: &Event) {
        let metrics = &self.metrics;
        match event {
            Event::RunStart(start) => {
                metrics.runs_started.inc();
                let mut state = self.state.lock().expect("metrics sink poisoned");
                state.last = None;
                state.resumed = start.resumed_generation.is_some();
            }
            Event::Generation(g) => {
                metrics.evals_per_sec.set(g.evals_per_sec as i64);
                let mut state = self.state.lock().expect("metrics sink poisoned");
                // A fresh run counts everything since zero. A resumed
                // run's first event only sets the baseline: its counters
                // were counted before the interruption.
                let zero = Counters::default();
                let base = match &state.last {
                    Some(last) => Some(last),
                    None => (!state.resumed).then_some(&zero),
                };
                if let Some(base) = base {
                    metrics.generations.inc();
                    for ((_, _, field), counter) in COUNTER_FAMILIES.iter().zip(&metrics.counters) {
                        counter.add(field(&g.counters).saturating_sub(field(base)));
                    }
                }
                state.last = Some(g.counters.clone());
            }
            // A run records one span per timed phase; its root span
            // matches no phase.
            Event::Span(span) => {
                if let Some(phase) = Phase::at_path(&span.path) {
                    metrics.phase_seconds[phase.index()].observe(span.nanos as f64 / 1e9);
                }
            }
            Event::Summary(summary) => {
                metrics.runs_finished.inc();
                metrics.run_duration.observe(summary.wall_time_s);
                metrics.evals_per_sec.set(0);
            }
            Event::Warning(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use momsynth_telemetry::{GenerationEvent, RunStart, SpanEvent, RUN_PATH};

    use super::*;

    fn start(resumed: Option<u64>) -> Event {
        Event::RunStart(RunStart {
            system: "s".into(),
            seed: 1,
            probability_aware: true,
            dvs: false,
            modes: 2,
            genome_len: 8,
            resumed_generation: resumed,
            power_lower_bound_mw: 0.0,
            pruned_domain_ratio: 0.0,
            trace_id: String::new(),
        })
    }

    fn generation(generation: u64, evaluated: u64, rejected: u64, dvs: u64) -> Event {
        let counters = Counters { evaluated, rejected, dvs_iterations: dvs, ..Counters::default() };
        Event::Generation(GenerationEvent {
            generation,
            evaluations: evaluated,
            best: 1.0,
            mean: 1.0,
            worst: 1.0,
            stagnation: 0,
            evals_per_sec: 100.0,
            counters,
        })
    }

    #[test]
    fn deltas_accumulate_from_cumulative_counters() {
        let registry = Registry::new();
        let sink = MetricsSink::new(&RunMetrics::new(&registry));
        sink.record(&start(None));
        sink.record(&generation(0, 2, 10, 1));
        sink.record(&generation(1, 5, 14, 3));
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("momsynth_evaluations_total", &[]), Some(5));
        assert_eq!(snap.counter_value("momsynth_evaluations_rejected_total", &[]), Some(14));
        assert_eq!(snap.counter_value("momsynth_dvs_iterations_total", &[]), Some(3));
        assert_eq!(snap.counter_value("momsynth_generations_total", &[]), Some(2));
        assert_eq!(snap.gauge_value("momsynth_evals_per_sec", &[]), Some(100));
    }

    #[test]
    fn resumed_runs_do_not_recount_their_baseline() {
        let registry = Registry::new();
        let sink = MetricsSink::new(&RunMetrics::new(&registry));
        sink.record(&start(Some(3)));
        // The resumed baseline carries everything counted before the
        // crash; only growth beyond it may be added.
        sink.record(&generation(4, 100, 200, 50));
        sink.record(&generation(5, 101, 205, 50));
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("momsynth_evaluations_total", &[]), Some(1));
        assert_eq!(snap.counter_value("momsynth_evaluations_rejected_total", &[]), Some(5));
        assert_eq!(snap.counter_value("momsynth_dvs_iterations_total", &[]), Some(0));
    }

    #[test]
    fn phase_spans_feed_histograms() {
        let registry = Registry::new();
        let sink = MetricsSink::new(&RunMetrics::new(&registry));
        for path in [RUN_PATH, Phase::ListScheduling.path(), "run;elsewhere"] {
            sink.record(&Event::Span(SpanEvent {
                trace_id: "t".into(),
                path: path.into(),
                nanos: 2_000_000,
                spans: 10,
            }));
        }
        let snap = registry.snapshot();
        // All five phase families are pre-registered even before a run;
        // only the span at a phase path is observed.
        for phase in Phase::ALL {
            let sample = snap
                .histogram_sample("momsynth_run_phase_seconds", &[("phase", phase.name())])
                .unwrap();
            assert_eq!(sample.count, u64::from(phase == Phase::ListScheduling), "{}", phase.name());
            if phase == Phase::ListScheduling {
                assert!((sample.sum - 0.002).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn disabled_registry_disables_the_sink() {
        let registry = Registry::disabled();
        let sink = MetricsSink::new(&RunMetrics::new(&registry));
        assert!(!Sink::enabled(&sink));
    }
}
