//! A traced run reports its timings once, as trace spans: one span at
//! the run root covering its wall time, and one per phase timing at the
//! phase's collapsed-stack path, all under the run's trace id. Tracing
//! moves nothing else: a traced run follows the untraced run's
//! trajectory.

use momsynth::generators::suite::mul;
use momsynth::synthesis::{SynthControl, SynthesisConfig, Synthesizer};
use momsynth::telemetry::{Event, MemorySink, Phase, SpanEvent, RUN_PATH};

fn trace_holds_one_span_per_timing(config: SynthesisConfig) {
    let system = mul(9);
    let dvs = config.dvs.is_some();
    let untraced = Synthesizer::new(&system, config.clone()).run().expect("mul9 synthesises");
    let sink = MemorySink::new();
    let traced = Synthesizer::new(&system, config)
        .run_controlled(SynthControl { sink: Some(&sink), ..SynthControl::default() })
        .expect("mul9 synthesises");

    let bits = |history: &[f64]| history.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&traced.history), bits(&untraced.history), "dvs {dvs}");
    assert_eq!(traced.evaluations, untraced.evaluations, "dvs {dvs}");
    assert_eq!(traced.best.fitness.to_bits(), untraced.best.fitness.to_bits(), "dvs {dvs}");
    assert_eq!(traced.counters, untraced.counters, "dvs {dvs}");
    assert!(untraced.phase_timings.is_empty(), "an untraced run times nothing");
    assert_eq!(
        traced.phase_timings.iter().any(|t| t.phase == Phase::VoltageScaling),
        dvs,
        "PV-DVS is timed exactly when it runs"
    );

    let events = sink.take();
    let trace_id = events
        .iter()
        .find_map(|e| match e {
            Event::RunStart(start) => Some(start.trace_id.clone()),
            _ => None,
        })
        .expect("the run announces its trace id");
    let spans: Vec<&SpanEvent> = events
        .iter()
        .filter_map(|e| match e {
            Event::Span(span) => Some(span),
            _ => None,
        })
        .collect();
    assert_eq!(spans.len(), 1 + traced.phase_timings.len(), "dvs {dvs}: {spans:?}");
    let (root, phases) = spans.split_first().expect("a root span");
    assert_eq!(root.path, RUN_PATH);
    assert_eq!(root.spans, 1);
    assert_eq!(root.nanos, traced.wall_time.as_nanos() as u64);
    for (span, timing) in phases.iter().zip(&traced.phase_timings) {
        assert_eq!(span.path, timing.phase.path());
        assert_eq!((span.nanos, span.spans), (timing.nanos, timing.spans), "{}", span.path);
    }
    for span in &spans {
        assert_eq!(span.trace_id, trace_id, "{}", span.path);
    }

    let summary = events
        .iter()
        .find_map(|e| match e {
            Event::Summary(summary) => Some(summary),
            _ => None,
        })
        .expect("the run ends with its summary");
    let summary = serde_json::to_value(summary);
    assert!(summary.get("phases").is_none(), "the spans alone carry the timings");
}

#[test]
fn a_fixed_voltage_trace_records_each_timing_once_as_a_span() {
    trace_holds_one_span_per_timing(SynthesisConfig::fast_preset(3));
}

#[test]
fn a_dvs_trace_records_each_timing_once_as_a_span() {
    trace_holds_one_span_per_timing(SynthesisConfig::fast_preset(3).with_dvs());
}
