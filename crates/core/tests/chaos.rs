//! Fault-injection (chaos) tests of the synthesis runtime.
//!
//! A deterministic faulty-evaluator wrapper ([`FaultInjection`]) rejects
//! candidate evaluations as panicked, NaN-priced or failed at
//! configurable rates.
//! These tests assert the resilience contract of the runner: it always
//! terminates with either a well-formed, finite [`SynthesisResult`] or a
//! typed [`SynthesisError`] — never a crash, hang or poisoned result.

use momsynth_sync::sync::atomic::AtomicBool;
use std::path::PathBuf;

use proptest::prelude::*;

use momsynth_core::{
    Checkpoint, CheckpointSpec, FaultInjection, StopReason, SynthControl, SynthesisConfig,
    SynthesisError, Synthesizer,
};
use momsynth_gen::suite::{generate, GeneratorParams};

fn small_system() -> momsynth_model::System {
    let mut params = GeneratorParams::new("chaos", 23);
    params.modes = 2;
    params.tasks_per_mode = (5, 7);
    generate(&params)
}

fn small_config(seed: u64) -> SynthesisConfig {
    let mut cfg = SynthesisConfig::fast_preset(seed);
    cfg.ga.population_size = 12;
    cfg.ga.max_generations = 12;
    cfg.ga.stagnation_limit = 8;
    cfg
}

fn tmp_file(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("momsynth_chaos_{}_{name}", std::process::id()));
    p
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The runner's core guarantee, under arbitrary fault-rate mixes: it
    /// terminates, and the outcome is either a well-formed result (finite
    /// fitness, consistent history/counters, accurate stop reason) or a
    /// typed error with populated diagnostics.
    #[test]
    fn faulty_runs_terminate_with_well_formed_outcomes(
        panic_rate in 0.0f64..0.5,
        nan_rate in 0.0f64..0.5,
        err_rate in 0.0f64..0.5,
        fault_seed in 0u64..1000,
        ga_seed in 0u64..8,
    ) {
        let system = small_system();
        let mut cfg = small_config(ga_seed);
        cfg.fault_injection = Some(FaultInjection {
            panic_rate,
            nan_rate,
            err_rate,
            seed: fault_seed,
        });
        match Synthesizer::new(&system, cfg).run() {
            Ok(result) => {
                prop_assert!(result.best.fitness.is_finite());
                prop_assert!(result.evaluations > 0);
                prop_assert_eq!(result.history.len(), result.generations + 1);
                prop_assert!(result.history.iter().all(|c| c.is_finite()));
                // No budgets or stop flag were set, so only natural stop
                // reasons are accurate.
                prop_assert!(!result.stop_reason.is_interrupted());
            }
            Err(SynthesisError::Unschedulable { best, fallback }) => {
                prop_assert!(!best.is_empty());
                prop_assert!(!fallback.is_empty());
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }
}

#[test]
fn double_digit_panic_rate_is_survivable() {
    let system = small_system();
    let mut cfg = small_config(3);
    cfg.fault_injection =
        Some(FaultInjection { panic_rate: 0.15, nan_rate: 0.0, err_rate: 0.0, seed: 41 });
    let result = Synthesizer::new(&system, cfg).run().expect("run survives 15% panics");
    assert!(result.rejected > 0, "some candidates must have drawn a panic");
    assert!(result.best.fitness.is_finite());
}

#[test]
fn faulty_runs_are_deterministic() {
    let system = small_system();
    let mut cfg = small_config(1);
    cfg.fault_injection =
        Some(FaultInjection { panic_rate: 0.1, nan_rate: 0.1, err_rate: 0.1, seed: 5 });
    let a = Synthesizer::new(&system, cfg.clone()).run();
    let b = Synthesizer::new(&system, cfg).run();
    match (a, b) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.best.mapping, b.best.mapping);
            assert_eq!(a.history, b.history);
            assert_eq!(a.rejected, b.rejected);
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        (a, b) => panic!("outcomes diverged: {a:?} vs {b:?}"),
    }
}

#[test]
fn evaluation_budget_holds_under_faults() {
    let system = small_system();
    let mut cfg = small_config(2);
    cfg.ga.max_evaluations = Some(40);
    cfg.fault_injection =
        Some(FaultInjection { panic_rate: 0.2, nan_rate: 0.1, err_rate: 0.1, seed: 17 });
    match Synthesizer::new(&system, cfg).run() {
        Ok(result) => {
            assert_eq!(result.stop_reason, StopReason::EvaluationBudget);
            // One offspring may be mid-flight when the budget trips.
            assert!(result.evaluations <= 41, "{}", result.evaluations);
        }
        Err(SynthesisError::Unschedulable { .. }) => {}
        Err(other) => panic!("unexpected error: {other}"),
    }
}

#[test]
fn cancellation_holds_under_faults() {
    let system = small_system();
    let mut cfg = small_config(4);
    cfg.fault_injection =
        Some(FaultInjection { panic_rate: 0.2, nan_rate: 0.1, err_rate: 0.1, seed: 29 });
    let stop = AtomicBool::new(true);
    match Synthesizer::new(&system, cfg)
        .run_controlled(SynthControl { stop: Some(&stop), ..SynthControl::default() })
    {
        Ok(result) => {
            assert_eq!(result.stop_reason, StopReason::Cancelled);
            assert!(!result.history.is_empty());
        }
        Err(SynthesisError::Unschedulable { .. }) => {}
        Err(other) => panic!("unexpected error: {other}"),
    }
}

/// Interrupt a run on an evaluation budget while checkpointing every
/// generation, then resume from the checkpoint without the budget: the
/// resumed run must reproduce the uninterrupted run exactly.
fn assert_resume_equivalence(mut cfg: SynthesisConfig, name: &str) {
    let system = small_system();
    let full = Synthesizer::new(&system, cfg.clone()).run().expect("uninterrupted run");
    assert!(!full.stop_reason.is_interrupted());

    let cp_path = tmp_file(name);
    let mut cut_cfg = cfg.clone();
    cut_cfg.ga.max_evaluations = Some(40);
    let cut = Synthesizer::new(&system, cut_cfg)
        .run_controlled(SynthControl {
            checkpoint: Some(CheckpointSpec::every_generations(cp_path.clone(), 1)),
            ..SynthControl::default()
        })
        .expect("interrupted run still returns its best-so-far");
    assert_eq!(cut.stop_reason, StopReason::EvaluationBudget);
    assert!(cp_path.exists(), "checkpoint must have been written");

    let checkpoint = Checkpoint::load(&cp_path).expect("checkpoint loads");
    cfg.ga.max_evaluations = None;
    let resumed = Synthesizer::new(&system, cfg)
        .run_controlled(SynthControl { resume: Some(checkpoint), ..SynthControl::default() })
        .expect("resumed run");

    assert_eq!(full.best.mapping, resumed.best.mapping);
    assert_eq!(full.best.fitness, resumed.best.fitness);
    assert_eq!(full.history, resumed.history);
    assert_eq!(full.stop_reason, resumed.stop_reason);
    std::fs::remove_file(&cp_path).ok();
}

#[test]
fn resume_reproduces_the_uninterrupted_run() {
    assert_resume_equivalence(small_config(9), "clean_cp.json");
}

#[test]
fn resume_reproduces_the_uninterrupted_run_under_faults() {
    // Fault decisions are pure functions of the genome, so equivalence
    // must hold even with a faulty evaluator.
    let mut cfg = small_config(10);
    cfg.fault_injection =
        Some(FaultInjection { panic_rate: 0.05, nan_rate: 0.05, err_rate: 0.05, seed: 53 });
    assert_resume_equivalence(cfg, "faulty_cp.json");
}
