//! Telemetry contract of the synthesis runner.
//!
//! The central guarantee: a fixed-seed run and its checkpoint-resumed
//! counterpart emit *identical* event streams modulo wall-clock fields.
//! [`GenerationEvent`] carries a single wall-clock field (the live
//! `evals_per_sec` throughput), zeroed by [`GenerationEvent::normalized`]
//! before comparison; [`RunSummary`] is compared through
//! [`RunSummary::normalized`], which zeroes its timing fields.

use std::path::PathBuf;

use momsynth_core::telemetry::{
    Event, GenerationEvent, JsonlSink, MemorySink, Phase, RunSummary, Sink, OPERATOR_COUNT,
};
use momsynth_core::{Checkpoint, CheckpointSpec, SynthControl, SynthesisConfig, Synthesizer};
use momsynth_gen::suite::{generate, GeneratorParams};
use momsynth_model::System;

fn small_system() -> System {
    let mut params = GeneratorParams::new("telemetry", 7);
    params.modes = 2;
    params.tasks_per_mode = (5, 7);
    generate(&params)
}

fn small_config(seed: u64) -> SynthesisConfig {
    let mut cfg = SynthesisConfig::fast_preset(seed).with_dvs();
    cfg.ga.population_size = 12;
    cfg.ga.max_generations = 12;
    cfg.ga.stagnation_limit = 8;
    cfg
}

fn tmp_file(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("momsynth_telemetry_it_{}_{name}", std::process::id()));
    p
}

fn generations(events: &[Event]) -> Vec<GenerationEvent> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Generation(g) => Some(g.normalized()),
            _ => None,
        })
        .collect()
}

fn summary(events: &[Event]) -> RunSummary {
    events
        .iter()
        .find_map(|e| match e {
            Event::Summary(s) => Some(s.clone()),
            _ => None,
        })
        .expect("run emits a summary")
}

#[test]
fn run_emits_start_generations_phases_and_summary() {
    let system = small_system();
    let sink = MemorySink::new();
    let result = Synthesizer::new(&system, small_config(1))
        .run_controlled(SynthControl { sink: Some(&sink), ..SynthControl::default() })
        .unwrap();
    let events = sink.take();

    let Some(Event::RunStart(start)) = events.first() else {
        panic!("first event must be RunStart, got {:?}", events.first());
    };
    assert_eq!(start.system, system.name());
    assert_eq!(start.seed, 1);
    assert!(start.dvs);
    assert_eq!(start.modes, 2);
    assert_eq!(start.resumed_generation, None);
    assert!(matches!(events.last(), Some(Event::Summary(_))));

    let gens = generations(&events);
    assert_eq!(gens.len(), result.generations + 1, "one event per generation plus init");
    for (i, g) in gens.iter().enumerate() {
        assert_eq!(g.generation, i as u64);
        assert_eq!(g.best, result.history[i]);
        assert_eq!(g.counters.improve_applied.len(), OPERATOR_COUNT);
    }
    // DVS is on, so the deterministic iteration counter must move.
    assert!(gens.last().unwrap().counters.dvs_iterations > 0);

    // Live progress: each periodic event reports throughput, so a
    // status endpoint needs no end-of-run summary.
    let raw_gens: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::Generation(g) => Some(g.clone()),
            _ => None,
        })
        .collect();
    assert!(
        raw_gens.iter().any(|g| g.evals_per_sec > 0.0),
        "per-generation events must carry live throughput"
    );

    // Phase timing was enabled by the sink; the trace carries one span
    // per phase timing, at the phase's path.
    assert!(!result.phase_timings.is_empty());
    let phases: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, Event::Span(s) if Phase::at_path(&s.path).is_some()))
        .collect();
    assert_eq!(phases.len(), result.phase_timings.len());

    let s = summary(&events);
    assert_eq!(s.generations, result.generations as u64);
    assert_eq!(s.evaluations, result.evaluations as u64);
    assert_eq!(s.stop_reason, result.stop_reason.to_string());
    assert_eq!(s.modes.len(), 2);
    let weighted: f64 = s.modes.iter().map(|m| m.total_mw * m.probability).sum();
    assert!(
        (weighted - s.average_power_mw).abs() <= 1e-9 * s.average_power_mw.abs().max(1.0),
        "Eq. 1: p̄ must equal the probability-weighted mode powers ({weighted} vs {})",
        s.average_power_mw
    );
}

#[test]
fn runs_without_a_sink_emit_nothing_and_skip_phase_timing() {
    let system = small_system();
    let result = Synthesizer::new(&system, small_config(1)).run().unwrap();
    assert!(result.phase_timings.is_empty());
    assert_eq!(result.counters.rejected, 0);
}

/// The acceptance criterion: interrupt a checkpointed run, resume it,
/// and require the resumed event stream to be the exact tail of the
/// uninterrupted run's stream (and the summaries to agree modulo
/// wall-clock fields).
#[test]
fn resumed_trace_is_the_exact_tail_of_the_uninterrupted_trace() {
    let system = small_system();
    let cfg = small_config(9);

    let full_sink = MemorySink::new();
    let full = Synthesizer::new(&system, cfg.clone())
        .run_controlled(SynthControl { sink: Some(&full_sink), ..SynthControl::default() })
        .unwrap();
    assert!(!full.stop_reason.is_interrupted());
    let full_events = full_sink.take();

    // Interrupt an identical run early, checkpointing every generation.
    let cp_path = tmp_file("resume_cp.json");
    let mut cut_cfg = cfg.clone();
    cut_cfg.ga.max_evaluations = Some(40);
    Synthesizer::new(&system, cut_cfg)
        .run_controlled(SynthControl {
            checkpoint: Some(CheckpointSpec::every_generations(cp_path.clone(), 1)),
            ..SynthControl::default()
        })
        .unwrap();

    let checkpoint = Checkpoint::load(&cp_path).unwrap();
    let cut_generation = checkpoint.generation as u64;
    let resumed_sink = MemorySink::new();
    let resumed = Synthesizer::new(&system, cfg)
        .run_controlled(SynthControl {
            resume: Some(checkpoint),
            sink: Some(&resumed_sink),
            ..SynthControl::default()
        })
        .unwrap();
    let resumed_events = resumed_sink.take();

    let Some(Event::RunStart(start)) = resumed_events.first() else {
        panic!("resumed run must announce itself");
    };
    assert_eq!(start.resumed_generation, Some(cut_generation));

    // Generation events (counters included) must continue seamlessly:
    // the resumed stream is exactly the post-checkpoint tail.
    let full_gens = generations(&full_events);
    let resumed_gens = generations(&resumed_events);
    let tail: Vec<GenerationEvent> =
        full_gens.iter().filter(|g| g.generation > cut_generation).cloned().collect();
    assert!(!tail.is_empty(), "the cut must land before the natural end of the run");
    assert_eq!(resumed_gens, tail);

    // Summaries agree once wall-clock fields are zeroed out.
    assert_eq!(summary(&resumed_events).normalized(), summary(&full_events).normalized());
    assert_eq!(full.best.mapping, resumed.best.mapping);
    std::fs::remove_file(&cp_path).ok();
}

#[test]
fn jsonl_trace_round_trips_through_serde() {
    let system = small_system();
    let path = tmp_file("trace.jsonl");
    {
        let sink = JsonlSink::create(&path).unwrap();
        Synthesizer::new(&system, small_config(3))
            .run_controlled(SynthControl { sink: Some(&sink), ..SynthControl::default() })
            .unwrap();
        sink.flush();
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let events: Vec<Event> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("every line parses as an Event"))
        .collect();
    assert!(matches!(events.first(), Some(Event::RunStart(_))));
    assert!(matches!(events.last(), Some(Event::Summary(_))));
    assert!(events.iter().any(|e| matches!(e, Event::Generation(_))));
    assert!(events.iter().any(|e| matches!(e, Event::Span(_))));
    std::fs::remove_file(&path).ok();
}
