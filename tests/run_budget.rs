//! The run budget: where a capped, timed or cancelled synthesis stops,
//! what it reports, and what `prove` certifies under a spent budget.
//!
//! The GA and the memetic polish after it spend one budget: an
//! evaluation cap the GA does not reach is spent by the polish, and the
//! run then reports the polish's own stop reason. The evaluation counts
//! are pinned, so a change to where either stage checks its budget
//! shows here.

use std::sync::atomic::AtomicBool;
use std::time::Instant;

use momsynth::generators::suite::mul;
use momsynth::model::System;
use momsynth::synthesis::{
    prove, CertificateStatus, LocalSearchOptions, ProveOptions, StopReason, SynthControl,
    SynthesisConfig, SynthesisResult, Synthesizer,
};

fn system() -> System {
    mul(9)
}

fn synth(config: SynthesisConfig) -> SynthesisResult {
    Synthesizer::new(&system(), config).run().expect("mul9 synthesises")
}

#[test]
fn a_cap_the_ga_reaches_stops_the_ga() {
    let mut config = SynthesisConfig::fast_preset(3);
    config.ga.max_evaluations = Some(50);
    let result = synth(config);
    assert_eq!(result.stop_reason, StopReason::EvaluationBudget);
    assert_eq!(result.evaluations, 50);
    assert_eq!(result.generations, 1);
    assert!(result.best.fitness.is_finite());
}

#[test]
fn a_cap_the_ga_leaves_is_spent_by_the_polish() {
    let mut ga_only = SynthesisConfig::fast_preset(3);
    ga_only.local_search = LocalSearchOptions { max_passes: 0 };
    let ga_only = synth(ga_only);
    let g = ga_only.evaluations;
    assert_eq!(g, 740);

    let uncapped = synth(SynthesisConfig::fast_preset(3));
    assert!(
        uncapped.evaluations > g + 3,
        "the polish must need more than 3 evaluations ({} after the GA's {g})",
        uncapped.evaluations - g
    );

    let mut capped = SynthesisConfig::fast_preset(3);
    capped.ga.max_evaluations = Some(g + 3);
    let capped = synth(capped);
    assert_eq!(capped.stop_reason, StopReason::EvaluationBudget);
    assert_eq!(capped.evaluations, g + 3);
    assert_eq!(capped.history, uncapped.history);
    assert_eq!(capped.generations, uncapped.generations);
}

#[test]
fn a_stop_raised_before_the_run_cancels_it() {
    let stop = AtomicBool::new(true);
    let result = Synthesizer::new(&system(), SynthesisConfig::fast_preset(3))
        .run_controlled(SynthControl { stop: Some(&stop), ..SynthControl::default() })
        .expect("a cancelled run still returns its best-so-far");
    assert_eq!(result.stop_reason, StopReason::Cancelled);
    assert!(!result.history.is_empty());
    assert!(result.best.fitness.is_finite());
}

#[test]
fn spent_and_unreachable_wall_clock_budgets() {
    for spent in [0.0, -1.0] {
        let mut config = SynthesisConfig::fast_preset(3);
        config.ga.max_seconds = Some(spent);
        let result = synth(config);
        assert_eq!(result.stop_reason, StopReason::WallClock, "max_seconds {spent}");
        assert!(!result.history.is_empty());
        assert!(result.best.fitness.is_finite());
    }

    let unbudgeted = synth(SynthesisConfig::fast_preset(3));
    for never in [f64::NAN, 1e300, f64::INFINITY] {
        let mut config = SynthesisConfig::fast_preset(3);
        config.ga.max_seconds = Some(never);
        let result = synth(config);
        assert_eq!(result.stop_reason, unbudgeted.stop_reason, "max_seconds {never}");
        assert_eq!(result.evaluations, unbudgeted.evaluations, "max_seconds {never}");
        assert_eq!(
            result.best.fitness.to_bits(),
            unbudgeted.best.fitness.to_bits(),
            "max_seconds {never}"
        );
        assert_eq!(result.best.mapping, unbudgeted.best.mapping, "max_seconds {never}");
    }
}

#[test]
fn prove_under_a_spent_budget_still_certifies_soundly() {
    let system = system();
    let config = SynthesisConfig::fast_preset(3);

    let none = prove(&system, &config, &ProveOptions { max_evals: 0, ..ProveOptions::default() })
        .expect("mul9 is feasible");
    assert!(matches!(none.status, CertificateStatus::GapBound { .. }), "{:?}", none.status);
    assert_eq!(none.explored, 0);
    assert!(none.lower_bound.is_finite());
    assert_eq!(none.max_evals, Some(0));
    assert_eq!(none.to_json()["max_evals"], serde_json::json!(0));

    let expired = prove(
        &system,
        &config,
        &ProveOptions { deadline: Some(Instant::now()), ..ProveOptions::default() },
    )
    .expect("mul9 is feasible");
    // The clock is read once every 256 search nodes, so a deadline that
    // has passed stops the search at its 256th node: 73 leaves here.
    assert_eq!(expired.explored, 73);
    assert_eq!(expired.max_evals, Some(ProveOptions::default().max_evals));
    if let Some(best) = expired.best_fitness {
        assert!(expired.lower_bound <= best, "{} > {best}", expired.lower_bound);
    }

    // `u64::MAX` is no cap: a search bounded by its deadline alone
    // reports none.
    let timed = prove(
        &system,
        &config,
        &ProveOptions {
            max_evals: u64::MAX,
            deadline: Some(Instant::now()),
            ..ProveOptions::default()
        },
    )
    .expect("mul9 is feasible");
    assert_eq!(timed.explored, 73);
    assert_eq!(timed.max_evals, None);
    assert!(timed.to_json()["max_evals"].is_null());
}
