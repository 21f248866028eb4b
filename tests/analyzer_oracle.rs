//! The static analyzer's bounds held against real synthesis results.
//!
//! `momsynth-analyze` promises *provable* bounds: no feasible
//! implementation can beat the critical-path, area or Eq. 1 power floors
//! it derives from the specification alone. This suite treats the full
//! synthesis flow as the adversary — on the named benchmarks and on
//! randomly generated systems, every verifier-accepted solution must
//! satisfy every analyzer bound, and the analyzer may never reject a
//! system the synthesiser goes on to solve. A second group pins the
//! soundness of genome-domain pruning: removing statically infeasible
//! genes must not change the best solution the GA finds.

use proptest::prelude::*;

use momsynth::analyze::analyze_system;
use momsynth::generators::automotive::automotive_ecu;
use momsynth::generators::smartphone::smartphone;
use momsynth::generators::suite::{generate, GeneratorParams};
use momsynth::model::units::Cells;
use momsynth::model::System;
use momsynth::synthesis::{verify_solution, Solution, SynthesisConfig, Synthesizer};

/// Slack for floating-point comparisons between independently computed
/// quantities (the analyzer sums in specification order, the evaluator
/// in schedule order).
const EPS: f64 = 1e-9;

/// Asserts every analyzer bound against a finished solution: the Eq. 1
/// average power, each mode's schedule length, and the core area each
/// hardware PE actually carries.
fn assert_bounds_hold(system: &System, best: &Solution, context: &str) {
    let analysis = analyze_system(system);
    assert!(
        !analysis.has_errors(),
        "{context}: analyzer rejected a system the synthesiser solved:\n{analysis}"
    );

    let lb = analysis.power_lower_bound();
    assert!(
        best.power.average.value() >= lb.value() - EPS,
        "{context}: p̄ {} W beats the static lower bound {} W",
        best.power.average.value(),
        lb.value(),
    );

    for bounds in analysis.mode_bounds() {
        let schedule = &best.schedules[bounds.mode.index()];
        assert_eq!(schedule.mode(), bounds.mode);
        assert!(
            schedule.makespan().value() >= bounds.critical_path_lb.value() - EPS,
            "{context}: mode {} schedule length {} s beats the critical-path bound {} s",
            bounds.name,
            schedule.makespan().value(),
            bounds.critical_path_lb.value(),
        );
    }

    for bound in analysis.area_bounds() {
        // Mirror the verifier's notion of occupied area: reconfigurable
        // fabric is reloaded between modes so only the busiest mode
        // counts; static (ASIC) cores coexist across all modes.
        let info = system.arch().pe(bound.pe);
        let used = if info.kind().is_reconfigurable() {
            system
                .omsm()
                .mode_ids()
                .map(|m| best.alloc.mode_area(system, bound.pe, m))
                .max()
                .unwrap_or(Cells::ZERO)
        } else {
            best.alloc.static_area(system, bound.pe)
        };
        assert!(
            used >= bound.floor,
            "{context}: PE {} carries {} cells, below the static floor of {} cells",
            bound.name,
            used.value(),
            bound.floor.value(),
        );
    }
}

/// Synthesises, keeps only verifier-accepted feasible solutions, and
/// holds them to the analyzer's bounds.
fn synthesise_and_bound(system: &System, config: SynthesisConfig, context: &str) {
    let result = Synthesizer::new(system, config).run().expect("schedulable system");
    if result.best.is_feasible() {
        let report = verify_solution(system, &result.best);
        assert!(report.is_clean(), "{context}: feasible solution failed verification:\n{report}");
        assert_bounds_hold(system, &result.best, context);
    }
    // The gap the synthesiser reports is measured against the same
    // bound, so it can never be negative on a finite result.
    assert!(result.power_lower_bound.value() >= 0.0, "{context}: negative power lower bound");
}

#[test]
fn smartphone_solutions_satisfy_every_static_bound() {
    let system = smartphone();
    synthesise_and_bound(&system, SynthesisConfig::fast_preset(1), "smartphone fixed");
    synthesise_and_bound(&system, SynthesisConfig::fast_preset(2).with_dvs(), "smartphone dvs");
}

#[test]
fn automotive_solutions_satisfy_every_static_bound() {
    let system = automotive_ecu();
    synthesise_and_bound(&system, SynthesisConfig::fast_preset(1), "automotive fixed");
    synthesise_and_bound(&system, SynthesisConfig::fast_preset(2).with_dvs(), "automotive dvs");
}

/// Domain pruning only removes genes the analyzer *proved* infeasible,
/// so it must be trajectory-invariant: the GA visits the same solutions
/// in the same order and returns the identical best, history and stop
/// reason whether or not pruning is enabled.
#[test]
fn domain_pruning_changes_no_best_solution_on_the_seed_examples() {
    for (system, dvs) in [(smartphone(), true), (automotive_ecu(), false)] {
        let mut on = SynthesisConfig::fast_preset(7);
        let mut off = SynthesisConfig::fast_preset(7);
        if dvs {
            on = on.with_dvs();
            off = off.with_dvs();
        }
        assert!(on.prune_domains, "pruning is on by default");
        off.prune_domains = false;

        let pruned = Synthesizer::new(&system, on.clone()).run().expect("schedulable system");
        let unpruned = Synthesizer::new(&system, off).run().expect("schedulable system");
        assert_eq!(
            pruned.best,
            unpruned.best,
            "{}: pruning changed the best solution",
            system.name()
        );
        assert_eq!(pruned.history, unpruned.history);
        assert_eq!(pruned.stop_reason, unpruned.stop_reason);

        // Only the pruned run reports a pruning ratio, and only it may
        // be non-zero; the gap is identical because the bound is.
        assert_eq!(unpruned.pruned_domain_ratio, 0.0);
        let summary = pruned.summary(&system, &on);
        assert!(summary.optimality_gap >= 0.0, "negative optimality gap: {summary:?}");
        assert!(summary.power_lower_bound_mw > 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Randomised systems: the analyzer never rejects what the
    /// synthesiser solves, and its bounds survive contact with every
    /// verifier-accepted solution.
    #[test]
    fn randomised_systems_never_beat_the_static_bounds(
        seed in 1u64..300,
        modes in 1usize..3,
        dvs in any::<bool>(),
    ) {
        let mut params = GeneratorParams::new("oracle", seed);
        params.modes = modes;
        params.tasks_per_mode = (4, 8);
        let system = generate(&params);
        let analysis = analyze_system(&system);
        prop_assert!(
            !analysis.has_errors(),
            "analyzer rejected a generated (solvable) system:\n{}",
            analysis
        );

        let mut config = SynthesisConfig::fast_preset(seed);
        config.ga.max_generations = 10;
        if dvs {
            config = config.with_dvs();
        }
        let result = Synthesizer::new(&system, config).run().expect("schedulable system");
        if result.best.is_feasible() {
            let report = verify_solution(&system, &result.best);
            prop_assert!(report.is_clean(), "feasible solution failed verification:\n{report}");
            assert_bounds_hold(&system, &result.best, "generated");
        }
    }
}
