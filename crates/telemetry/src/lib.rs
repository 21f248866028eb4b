//! Structured telemetry for synthesis runs.
//!
//! The GA co-synthesis loop is driven by quantities worth watching: the
//! per-generation fitness statistics and penalty counters, the efficacy
//! of the four improvement operators, and the wall-clock split between
//! core allocation, list scheduling, voltage scaling and power pricing.
//! This crate defines a typed event model for those quantities and a
//! [`Sink`] abstraction that is **zero-cost when disabled**: producers
//! check [`Sink::enabled`] before building an event, so a run without an
//! attached sink (or with the [`NullSink`]) pays only a branch.
//!
//! # Event model
//!
//! Events serialise as externally tagged JSON objects, one per line in a
//! JSONL trace (`{"Generation": {...}}`, `{"Summary": {...}}`, …):
//!
//! * [`RunStart`] — run identity: system, seed, flow flags, genome size;
//! * [`GenerationEvent`] — per-generation fitness statistics plus the
//!   cumulative [`Counters`] and live throughput (`evals_per_sec`).
//!   Apart from that wall-clock-derived throughput — zeroed by
//!   [`GenerationEvent::normalized`] — every field is deterministic, so
//!   the traces of a run and its checkpoint-resumed counterpart are
//!   comparable once normalised;
//! * [`PhaseTiming`] — accumulated monotonic-clock spans of one inner
//!   [`Phase`];
//! * [`Warning`] — a non-fatal condition (e.g. a failed checkpoint save);
//! * [`SpanEvent`] — an accumulated trace span: a flamegraph-style
//!   collapsed-stack path (`run;fitness_eval;voltage_scaling`) plus the
//!   job-wide trace ID, consumed by `momsynth profile`;
//! * [`RunSummary`] — the machine-readable end-of-run metrics: final
//!   p̄ per Eq. 1 of the paper, per-mode dynamic/static power breakdown,
//!   stop reason, wall time and evaluation throughput.
//!
//! # One instrument model
//!
//! [`Counters`] is the only counter type and [`PhaseAccumulator`] the
//! only phase timer. Each pricing unit (the synthesis core's evaluator,
//! and each parallel worker it spawns) owns one of each; a worker folds
//! back with one component-wise [`Counters::add`] and one
//! [`PhaseAccumulator::absorb`], and a checkpoint restores a run's
//! counters by cloning them. The event stream is the single source of
//! truth: every [`GenerationEvent`] carries the cumulative counters, and
//! consumers such as `momsynth-metrics`' `MetricsSink` derive their
//! totals from it instead of counting on their own.
//!
//! # Sinks
//!
//! | sink | purpose |
//! |------|---------|
//! | [`NullSink`] | discard everything; `enabled() == false` |
//! | [`JsonlSink`] | append one JSON object per event to a file |
//! | [`MemorySink`] | collect events in memory (tests, harnesses) |
//! | [`ProgressSink`] | human one-line-per-generation view on stderr |
//! | [`WarningSink`] | print only [`Warning`] events to stderr |
//! | [`Fanout`] | broadcast to several sinks |
//!
//! # Example
//!
//! ```
//! use momsynth_telemetry::{Counters, Event, GenerationEvent, MemorySink, Sink};
//!
//! let sink = MemorySink::new();
//! if sink.enabled() {
//!     sink.record(&Event::Generation(GenerationEvent {
//!         generation: 0,
//!         evaluations: 50,
//!         best: 1.5,
//!         mean: 2.0,
//!         worst: 4.0,
//!         stagnation: 0,
//!         evals_per_sec: 0.0,
//!         counters: Counters::default(),
//!     }));
//! }
//! assert_eq!(sink.events().len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod sink;
mod timing;

pub use event::{
    Counters, Event, GenerationEvent, JobEvent, ModeSummary, RunStart, RunSummary, SpanEvent,
    Warning, OPERATOR_COUNT, OPERATOR_NAMES,
};
pub use sink::{Fanout, JsonlSink, MemorySink, NullSink, ProgressSink, Sink, WarningSink};
pub use timing::{Phase, PhaseAccumulator, PhaseTiming};
