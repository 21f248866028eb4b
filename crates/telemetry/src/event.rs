//! The typed event model.

use serde::{Deserialize, Serialize};

/// Number of improvement operators tracked by [`Counters`] (the paper's
/// shut-down, area, timing and transition strategies, in that order).
pub const OPERATOR_COUNT: usize = 4;

/// Display names of the improvement operators, indexed like the
/// `improve_*` vectors of [`Counters`].
pub const OPERATOR_NAMES: [&str; OPERATOR_COUNT] = ["shutdown", "area", "timing", "transition"];

/// One telemetry event. Serialises externally tagged, so a JSONL trace
/// reads `{"Generation": {...}}` per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// The run began (or resumed).
    RunStart(RunStart),
    /// A GA generation completed.
    Generation(GenerationEvent),
    /// A non-fatal problem occurred.
    Warning(Warning),
    /// An accumulated trace span (collapsed-stack path + wall time): the
    /// run's only timing record.
    Span(SpanEvent),
    /// The run finished.
    Summary(RunSummary),
}

/// An accumulated wall-time span of a traced region, identified by a
/// flamegraph-style collapsed-stack path.
///
/// A synthesis run ends with one span at
/// [`RUN_PATH`](crate::RUN_PATH) covering its wall time and one per
/// timed [`Phase`](crate::Phase) at [`Phase::path`](crate::Phase::path).
/// Spans carry the job's trace identifier end to end: the serve layer
/// mints one ID per job at submission, the synthesis core emits its
/// phase spans under that ID, and the journal persists it — so a status
/// response, a trace line and a journal record of the same job all
/// agree. `momsynth profile` folds these lines into a per-phase
/// self-time report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Identifier threading all spans of one traced unit of work
    /// (typically one job attempt). Empty for untraced runs.
    #[serde(default)]
    pub trace_id: String,
    /// `;`-separated path from the root span down to this region, e.g.
    /// `run;fitness_eval;voltage_scaling` — the collapsed-stack format
    /// flamegraph tooling expects.
    pub path: String,
    /// Total nanoseconds accumulated in this region (children
    /// included; self time is derived by subtracting child paths).
    pub nanos: u64,
    /// Number of individual spans folded into this total.
    pub spans: u64,
}

/// Identity of a starting synthesis run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStart {
    /// Name of the system being synthesised.
    pub system: String,
    /// GA seed.
    pub seed: u64,
    /// `true` for the probability-aware flow, `false` for the
    /// probability-neglecting baseline.
    pub probability_aware: bool,
    /// Whether voltage scaling is enabled.
    pub dvs: bool,
    /// Number of operational modes.
    pub modes: u64,
    /// Genome length (mapping loci across all modes).
    pub genome_len: u64,
    /// When resuming from a checkpoint, the generation it froze.
    pub resumed_generation: Option<u64>,
    /// Provable Eq. 1 power lower bound p̄_LB of the pre-synthesis static
    /// analyzer, in mW (`0.0` in traces written before the analyzer
    /// existed).
    pub power_lower_bound_mw: f64,
    /// Fraction of (task, candidate PE) pairs the static analyzer proved
    /// infeasible and pruned from the genome domain, in `[0, 1]`.
    pub pruned_domain_ratio: f64,
    /// Trace identifier threading this run's spans, status records and
    /// journal entries together. Empty in traces written before tracing
    /// existed and for untraced runs.
    #[serde(default)]
    pub trace_id: String,
}

/// Cumulative run counters, carried by every [`GenerationEvent`] and
/// persisted in checkpoints so resumed traces stay continuous.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Evaluations rejected (errored, panicked or non-finite fitness).
    pub rejected: u64,
    /// Evaluated candidates that violated a timing constraint.
    pub timing_violations: u64,
    /// Evaluated candidates that violated an area constraint.
    pub area_violations: u64,
    /// Evaluated candidates that violated a transition-time constraint.
    pub transition_violations: u64,
    /// Total PV-DVS inner-loop iterations spent.
    pub dvs_iterations: u64,
    /// Always 0: no genome's cost is served from memory. Kept, with
    /// [`Counters::cache_misses`], because the benchmark's per-layer
    /// report reads both (`core.cache.hit_rate`,
    /// `core.cache.priced_ratio`).
    pub cache_hits: u64,
    /// Every genome handed to batch pricing, repeats included. Kept for
    /// the benchmark's per-layer report, like [`Counters::cache_hits`].
    pub cache_misses: u64,
    /// Genomes actually run through the constructive inner loop. At most
    /// `cache_misses`: identical genomes within one batch are priced once.
    pub evaluated: u64,
    /// Applications of each improvement operator (see [`OPERATOR_NAMES`]).
    pub improve_applied: Vec<u64>,
    /// Applications that actually changed the genome, per operator.
    pub improve_accepted: Vec<u64>,
}

impl Counters {
    /// Adds `other` onto these totals, field by field. Addition
    /// commutes, so folding per-worker counters back in after a
    /// parallel batch yields thread-count-independent totals. The
    /// destructuring names every field, so a new counter does not
    /// compile until it is added here too.
    pub fn add(&mut self, other: &Self) {
        let Self {
            rejected,
            timing_violations,
            area_violations,
            transition_violations,
            dvs_iterations,
            cache_hits,
            cache_misses,
            evaluated,
            improve_applied,
            improve_accepted,
        } = other;
        self.rejected += rejected;
        self.timing_violations += timing_violations;
        self.area_violations += area_violations;
        self.transition_violations += transition_violations;
        self.dvs_iterations += dvs_iterations;
        self.cache_hits += cache_hits;
        self.cache_misses += cache_misses;
        self.evaluated += evaluated;
        for (mine, theirs) in self.improve_applied.iter_mut().zip(improve_applied) {
            *mine += theirs;
        }
        for (mine, theirs) in self.improve_accepted.iter_mut().zip(improve_accepted) {
            *mine += theirs;
        }
    }
}

impl Default for Counters {
    fn default() -> Self {
        Self {
            rejected: 0,
            timing_violations: 0,
            area_violations: 0,
            transition_violations: 0,
            dvs_iterations: 0,
            cache_hits: 0,
            cache_misses: 0,
            evaluated: 0,
            improve_applied: vec![0; OPERATOR_COUNT],
            improve_accepted: vec![0; OPERATOR_COUNT],
        }
    }
}

/// Per-generation fitness statistics.
///
/// All fields except [`GenerationEvent::evals_per_sec`] are deterministic
/// for a fixed seed: a run and its checkpoint-resumed counterpart produce
/// identical generation events once [`GenerationEvent::normalized`]
/// zeroes the throughput. Live consumers (a job server's status endpoint,
/// a progress view) read throughput directly from the periodic event instead of waiting for the end-of-run
/// [`RunSummary`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationEvent {
    /// Generation index (0 = initial population).
    pub generation: u64,
    /// Cumulative cost evaluations.
    pub evaluations: u64,
    /// Best cost in the run so far.
    pub best: f64,
    /// Mean cost of the current population.
    pub mean: f64,
    /// Worst cost of the current population.
    pub worst: f64,
    /// Generations without improvement so far.
    pub stagnation: u64,
    /// Live evaluation throughput since the run (or resume) started, in
    /// evaluations per second. Wall-clock derived: zeroed by
    /// [`GenerationEvent::normalized`] when comparing deterministic
    /// replays. Absent in traces written before this field existed.
    #[serde(default)]
    pub evals_per_sec: f64,
    /// Cumulative run counters at this generation.
    pub counters: Counters,
}

impl GenerationEvent {
    /// A copy with the wall-clock-derived throughput zeroed, for
    /// comparing the generation streams of deterministic replays (a run
    /// against its checkpoint-resumed counterpart). All other fields are
    /// deterministic and survive.
    #[must_use]
    pub fn normalized(&self) -> Self {
        let mut g = self.clone();
        g.evals_per_sec = 0.0;
        g
    }
}

/// A non-fatal condition worth reporting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Warning {
    /// Human-readable description.
    pub message: String,
}

/// An [`Event`] tagged with the job it belongs to.
///
/// A multi-job producer (the `momsynth serve` daemon) fans events from
/// concurrent synthesis runs into shared consumers — subscriber streams,
/// a combined log — which need to know *whose* generation just completed.
/// Per-job trace files stay plain [`Event`] lines so single-run tooling
/// and the resume tail-equivalence oracle keep working unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobEvent {
    /// Identifier of the job that produced the event.
    pub job: String,
    /// The underlying telemetry event.
    pub event: Event,
}

/// Power breakdown of one mode in a [`RunSummary`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModeSummary {
    /// Mode name.
    pub mode: String,
    /// Mode execution probability `Ψ_O`.
    pub probability: f64,
    /// Average dynamic power `p̄_O^dyn` in mW.
    pub dynamic_mw: f64,
    /// Static power `p̄_O^stat` of the powered components in mW.
    pub static_mw: f64,
    /// Total mode power in mW.
    pub total_mw: f64,
}

/// Machine-readable end-of-run metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Name of the synthesised system.
    pub system: String,
    /// `true` for the probability-aware flow.
    pub probability_aware: bool,
    /// Whether voltage scaling was enabled.
    pub dvs: bool,
    /// GA seed.
    pub seed: u64,
    /// Final probability-weighted average power p̄ (Eq. 1) in mW.
    pub average_power_mw: f64,
    /// Whether the best solution satisfies all constraints.
    pub feasible: bool,
    /// Per-mode dynamic/static power breakdown.
    pub modes: Vec<ModeSummary>,
    /// Why the optimisation stopped.
    pub stop_reason: String,
    /// Generations executed.
    pub generations: u64,
    /// Fitness evaluations performed.
    pub evaluations: u64,
    /// Evaluations rejected for faults.
    pub rejected: u64,
    /// Wall-clock optimisation time in seconds.
    pub wall_time_s: f64,
    /// Evaluation throughput (`evaluations / wall_time_s`).
    pub evals_per_sec: f64,
    /// Worker threads used for batch fitness evaluation.
    pub threads: u64,
    /// Provable Eq. 1 power lower bound p̄_LB of the pre-synthesis static
    /// analyzer, in mW.
    pub power_lower_bound_mw: f64,
    /// Relative optimality gap `(p̄ − p̄_LB) / p̄_LB` of the final
    /// solution against the static power lower bound (`0.0` when the
    /// bound is degenerate). Non-negative for every sound bound.
    pub optimality_gap: f64,
    /// Final cumulative counters.
    pub counters: Counters,
}

impl RunSummary {
    /// A copy with every wall-clock-derived field zeroed, for comparing
    /// the summaries of deterministic replays (e.g. a run against its
    /// checkpoint-resumed counterpart). `threads` survives
    /// normalisation: it is deterministic for a fixed seed.
    pub fn normalized(&self) -> Self {
        let mut s = self.clone();
        s.wall_time_s = 0.0;
        s.evals_per_sec = 0.0;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            Event::RunStart(RunStart {
                system: "s".into(),
                seed: 7,
                probability_aware: true,
                dvs: false,
                modes: 3,
                genome_len: 12,
                resumed_generation: Some(4),
                power_lower_bound_mw: 0.75,
                pruned_domain_ratio: 0.125,
                trace_id: "trace-1234".into(),
            }),
            Event::Generation(GenerationEvent {
                generation: 5,
                evaluations: 300,
                best: 1.25,
                mean: 2.5,
                worst: 9.0,
                stagnation: 1,
                evals_per_sec: 120.5,
                counters: Counters { rejected: 2, ..Counters::default() },
            }),
            Event::Warning(Warning { message: "checkpoint not saved".into() }),
            Event::Span(SpanEvent {
                trace_id: "trace-1234".into(),
                path: "run;fitness_eval;voltage_scaling".into(),
                nanos: 98765,
                spans: 42,
            }),
        ];
        for event in events {
            let json = serde_json::to_string(&event).unwrap();
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(back, event);
        }
    }

    #[test]
    fn counters_add_component_wise() {
        let mut total =
            Counters { cache_hits: 3, cache_misses: 5, evaluated: 4, ..Counters::default() };
        total.improve_applied[2] = 2;

        let mut worker =
            Counters { rejected: 1, dvs_iterations: 7, evaluated: 2, ..Counters::default() };
        worker.improve_applied[1] = 1;
        worker.improve_accepted[1] = 1;
        total.add(&worker);
        assert_eq!(total.rejected, 1);
        assert_eq!(total.dvs_iterations, 7);
        assert_eq!(total.evaluated, 6);
        assert_eq!(total.cache_hits, 3);
        assert_eq!(total.improve_applied, vec![0, 1, 2, 0]);
        assert_eq!(total.improve_accepted, vec![0, 1, 0, 0]);
    }

    #[test]
    fn generation_normalization_zeroes_only_throughput() {
        let g = GenerationEvent {
            generation: 3,
            evaluations: 90,
            best: 2.0,
            mean: 3.0,
            worst: 5.0,
            stagnation: 0,
            evals_per_sec: 750.0,
            counters: Counters::default(),
        };
        let norm = g.normalized();
        assert_eq!(norm.evals_per_sec, 0.0);
        assert_eq!(norm.best, g.best);
        assert_eq!(norm.counters, g.counters);
    }

    #[test]
    fn generation_events_without_live_progress_fields_still_parse() {
        // A trace line written before evals_per_sec existed.
        let json = r#"{"Generation":{"generation":1,"evaluations":10,
            "best":1.0,"mean":2.0,"worst":3.0,"stagnation":0,
            "counters":{"rejected":0,"timing_violations":0,
            "area_violations":0,"transition_violations":0,
            "dvs_iterations":0,"cache_hits":0,"cache_misses":0,
            "evaluated":0,"improve_applied":[0,0,0,0],
            "improve_accepted":[0,0,0,0]}}}"#;
        let event: Event = serde_json::from_str(json).unwrap();
        let Event::Generation(g) = event else { panic!("not a generation") };
        assert_eq!(g.evals_per_sec, 0.0);
    }

    #[test]
    fn run_starts_without_trace_id_still_parse() {
        // A trace line written before span tracing existed.
        let json = r#"{"RunStart":{"system":"s","seed":1,
            "probability_aware":true,"dvs":false,"modes":2,
            "genome_len":8,"resumed_generation":null,
            "power_lower_bound_mw":0.0,"pruned_domain_ratio":0.0}}"#;
        let event: Event = serde_json::from_str(json).unwrap();
        let Event::RunStart(start) = event else { panic!("not a run start") };
        assert_eq!(start.trace_id, "");
    }

    #[test]
    fn span_events_are_externally_tagged_and_round_trip() {
        let span = SpanEvent {
            trace_id: "t-1".into(),
            path: "run;fitness_eval".into(),
            nanos: 1_000,
            spans: 3,
        };
        let json = serde_json::to_string(&Event::Span(span.clone())).unwrap();
        assert!(json.starts_with("{\"Span\""), "{json}");
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Event::Span(span));
    }

    #[test]
    fn events_are_externally_tagged_single_objects() {
        let json = serde_json::to_string(&Event::Warning(Warning { message: "m".into() })).unwrap();
        assert!(json.starts_with("{\"Warning\""), "{json}");
    }

    #[test]
    fn summary_normalization_zeroes_wall_clock_fields() {
        let summary = RunSummary {
            system: "s".into(),
            probability_aware: true,
            dvs: true,
            seed: 0,
            average_power_mw: 3.5,
            feasible: true,
            modes: vec![ModeSummary {
                mode: "m".into(),
                probability: 1.0,
                dynamic_mw: 2.0,
                static_mw: 1.5,
                total_mw: 3.5,
            }],
            stop_reason: "stalled (no improvement)".into(),
            generations: 10,
            evaluations: 500,
            rejected: 0,
            wall_time_s: 1.25,
            evals_per_sec: 400.0,
            threads: 4,
            power_lower_bound_mw: 1.75,
            optimality_gap: 1.0,
            counters: Counters::default(),
        };
        let norm = summary.normalized();
        assert_eq!(norm.wall_time_s, 0.0);
        assert_eq!(norm.evals_per_sec, 0.0);
        assert_eq!(norm.average_power_mw, summary.average_power_mw);
        assert_eq!(norm.threads, summary.threads);
        let json = serde_json::to_string(&Event::Summary(summary)).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert!(matches!(back, Event::Summary(_)));
    }
}
