//! End-to-end reproduction checks on the paper's closed-form example:
//! Fig. 2 energies are exact, and the GA rediscovers the probability-aware
//! optimum.

use momsynth::generators::examples::{
    example1_mapping_aware, example1_mapping_neglecting, example1_system, PE0,
};
use momsynth::model::ids::ModeId;
use momsynth::power::{power_report, ModeImplementation};
use momsynth::sched::{schedule_mode, CoreAllocation, SchedulerOptions, SystemMapping};
use momsynth::synthesis::{SynthesisConfig, Synthesizer};

fn evaluate_mw(system: &momsynth::model::System, mapping: &SystemMapping) -> f64 {
    let alloc = CoreAllocation::minimal(system, mapping);
    let schedules: Vec<_> = system
        .omsm()
        .mode_ids()
        .map(|m| schedule_mode(system, m, mapping, &alloc, SchedulerOptions::default()).unwrap())
        .collect();
    let imps: Vec<ModeImplementation> = schedules.iter().map(ModeImplementation::nominal).collect();
    power_report(system, &imps).average.as_milli()
}

#[test]
fn fig2_energies_match_paper_to_the_microwatt() {
    let system = example1_system();
    let neglecting = evaluate_mw(&system, &example1_mapping_neglecting());
    let aware = evaluate_mw(&system, &example1_mapping_aware());
    assert!((neglecting - 26.7158).abs() < 1e-9, "Fig. 2b: {neglecting}");
    assert!((aware - 15.7423).abs() < 1e-9, "Fig. 2c: {aware}");
    assert!(((1.0 - aware / neglecting) * 100.0 - 41.0).abs() < 0.2);
}

#[test]
fn ga_rediscovers_the_fig2c_optimum() {
    // The GA is stochastic (the paper averages 40 runs); take the best of
    // a few deterministic seeds, as a user of the library would.
    let system = example1_system();
    let best = (1..=3)
        .map(|seed| {
            Synthesizer::new(&system, SynthesisConfig::fast_preset(seed))
                .run()
                .expect("schedulable system")
        })
        .min_by(|a, b| a.best.fitness.total_cmp(&b.best.fitness))
        .expect("at least one run");
    assert!(best.best.is_feasible());
    assert!(
        (best.best.power.average.as_milli() - 15.7423).abs() < 1e-9,
        "GA found {} mWs",
        best.best.power.average.as_milli()
    );
    // And the optimum keeps mode O1 pure software.
    assert_eq!(best.best.mapping.active_pes(ModeId::new(0)), vec![PE0]);
}

#[test]
fn probability_neglecting_ga_finds_the_fig2b_class_solution() {
    let system = example1_system();
    let cfg = SynthesisConfig::fast_preset(0).probability_neglecting();
    let result = Synthesizer::new(&system, cfg).run().expect("schedulable system");
    // Under uniform weights the best *reported* power (true Ψ) is worse
    // than the probability-aware optimum.
    assert!(result.best.power.average.as_milli() > 15.7423 - 1e-9);
}

#[test]
fn solution_exposes_full_implementation_artifacts() {
    let system = example1_system();
    let result = Synthesizer::new(&system, SynthesisConfig::fast_preset(1))
        .run()
        .expect("schedulable system");
    let best = &result.best;
    assert_eq!(best.schedules.len(), 2);
    assert_eq!(best.voltage_schedules.len(), 2);
    assert_eq!(best.transitions.len(), 2);
    assert!(best.transitions.iter().all(|t| t.is_feasible()));
    assert!(best.area_overruns.is_empty());
    assert_eq!(best.power.modes.len(), 2);
    // History is monotone non-increasing and matches generations.
    assert_eq!(result.history.len(), result.generations + 1);
    for pair in result.history.windows(2) {
        assert!(pair[1] <= pair[0]);
    }
}
