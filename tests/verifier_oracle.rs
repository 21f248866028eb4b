//! The independent verifier as an oracle over the whole flow.
//!
//! `momsynth-check` shares no code with the constructive inner loop, so
//! agreement between the two is genuine evidence: every solution the
//! synthesiser returns — on the named benchmarks and on randomly
//! generated systems — must re-prove all paper constraints ((a) area,
//! (b) timing, (c) transitions) and the Eq. 1 average power from the
//! model alone. Deliberately corrupted solutions must be rejected.

use proptest::prelude::*;

use momsynth::check::{check_solution, CheckReport, SolutionView, Violation};
use momsynth::generators::automotive::automotive_ecu;
use momsynth::generators::smartphone::smartphone;
use momsynth::generators::suite::{generate, GeneratorParams};
use momsynth::model::ids::{ClId, CommId};
use momsynth::model::System;
use momsynth::sched::{Schedule, ScheduledComm};
use momsynth::synthesis::{verify_solution, Solution, SynthesisConfig, Synthesizer};

/// Runs synthesis and holds the result against the oracle: a feasible
/// solution must be completely clean; an infeasible one may carry
/// design-constraint findings but never an internal inconsistency.
fn synthesise_and_verify(system: &System, config: SynthesisConfig) -> Solution {
    let result = Synthesizer::new(system, config).run().expect("schedulable system");
    let report = verify_solution(system, &result.best);
    if result.best.is_feasible() {
        assert!(report.is_clean(), "feasible solution failed verification:\n{report}");
    } else {
        assert!(
            !report.has_consistency_violations(),
            "solution is internally inconsistent:\n{report}"
        );
    }
    result.best
}

#[test]
fn smartphone_solutions_reverify_with_zero_violations() {
    let system = smartphone();
    let fixed = synthesise_and_verify(&system, SynthesisConfig::fast_preset(1));
    assert!(fixed.is_feasible());
    let scaled = synthesise_and_verify(&system, SynthesisConfig::fast_preset(2).with_dvs());
    assert!(scaled.is_feasible());
}

#[test]
fn automotive_solutions_reverify_with_zero_violations() {
    let system = automotive_ecu();
    synthesise_and_verify(&system, SynthesisConfig::fast_preset(1));
    synthesise_and_verify(&system, SynthesisConfig::fast_preset(2).with_dvs());
}

#[test]
fn corrupted_smartphone_solutions_are_rejected() {
    let system = smartphone();
    let config = SynthesisConfig::fast_preset(1).with_dvs();
    let good = Synthesizer::new(&system, config).run().expect("schedulable system").best;

    // Inflated Eq. 1 average: the checker recomputes p̄ from the
    // schedules and must notice the report no longer matches.
    let mut inflated = good.clone();
    inflated.power.average = inflated.power.average * 1.01;
    let report = verify_solution(&system, &inflated);
    assert!(
        report
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::AveragePowerMismatch { .. })),
        "inflated p̄ not caught:\n{report}"
    );

    // A mutated voltage slot breaks the first-principles re-derivation
    // of the scaled execution time (and/or the power recompute).
    let mut mutated = good.clone();
    let slot = mutated
        .voltage_schedules
        .iter_mut()
        .flatten()
        .find_map(Option::as_mut)
        .expect("DVS run scales at least one task");
    let mut segments = slot.segments().to_vec();
    segments[0].voltage = segments[0].voltage * 0.8;
    *slot = serde_json::from_value(&serde_json::json!({ "segments": segments }))
        .expect("corrupted schedule still deserialises");
    let report = verify_solution(&system, &mutated);
    assert!(!report.is_clean(), "mutated voltage slot not caught");
}

/// `good` with mode `mode`'s comm table replaced by what `edit` makes
/// of it, checked by the independent checker.
fn check_edited(
    system: &System,
    good: &Solution,
    mode: usize,
    edit: impl FnOnce(&mut Vec<Option<ScheduledComm>>),
) -> CheckReport {
    let schedule = &good.schedules[mode];
    let graph = system.omsm().mode(schedule.mode()).graph();
    let mut comms: Vec<Option<ScheduledComm>> =
        graph.comm_ids().map(|c| schedule.comm(c).copied()).collect();
    edit(&mut comms);
    let mut edited = good.clone();
    edited.schedules[mode] = Schedule::from_parts(
        schedule.mode(),
        schedule.tasks().copied().collect(),
        comms,
        schedule.sequences().to_vec(),
    );
    verify_solution(system, &edited)
}

/// A comm table shorter than the mode's graph, a transfer over a link
/// the architecture lacks and a transfer filed under another edge's
/// slot are malformed findings. The shape pass must catch them, because
/// the deeper checks index both the comm table and the link table.
#[test]
fn malformed_comm_tables_are_reported_not_panicked_on() {
    let system = automotive_ecu();
    let good = Synthesizer::new(&system, SynthesisConfig::fast_preset(1))
        .run()
        .expect("schedulable system")
        .best;
    let malformed = |report: &CheckReport| {
        !report.is_clean()
            && report.violations().iter().all(|v| matches!(v, Violation::Malformed { .. }))
    };

    assert!(good.schedules[0].comm_count() > 1, "mode 0 must have a comm table to cut");
    let report = check_edited(&system, &good, 0, |comms| comms.truncate(1));
    assert!(malformed(&report), "short comm table:\n{report}");

    let (mode, slot) = good
        .schedules
        .iter()
        .enumerate()
        .find_map(|(m, s)| s.remote_comms().next().map(|c| (m, c.comm.index())))
        .expect("the solution routes at least one transfer");
    let report = check_edited(&system, &good, mode, |comms| {
        comms[slot].as_mut().expect("remote transfer").cl = ClId::new(99);
    });
    assert!(malformed(&report), "unknown link:\n{report}");

    let report = check_edited(&system, &good, mode, |comms| {
        comms[slot].as_mut().expect("remote transfer").comm = CommId::new(slot + 1);
    });
    assert!(malformed(&report), "misplaced comm entry:\n{report}");
}

#[test]
fn cache_hits_never_skip_final_reverification() {
    // The evaluation cache serves memoised fitness values to the GA, but
    // the returned solution is always re-built and re-polished from
    // scratch — a cache hit must never short-circuit the final
    // verification. Run with the cache and worker threads on, confirm
    // the cache actually fired, and hold the result to the oracle and to
    // the serial cache-less run bit for bit.
    let system = automotive_ecu();
    let mut config = SynthesisConfig::fast_preset(3);
    config.verify_each_generation = true;
    config.threads = 4;
    assert!(config.cache_capacity > 0, "the cache is on by default");
    let cached = Synthesizer::new(&system, config).run().expect("schedulable system");
    assert!(cached.counters.cache_hits > 0, "run never exercised the cache");

    let report = verify_solution(&system, &cached.best);
    if cached.best.is_feasible() {
        assert!(report.is_clean(), "cached solution failed verification:\n{report}");
    } else {
        assert!(
            !report.has_consistency_violations(),
            "cached solution is internally inconsistent:\n{report}"
        );
    }

    let mut plain = SynthesisConfig::fast_preset(3);
    plain.verify_each_generation = true;
    plain.threads = 1;
    plain.cache_capacity = 0;
    let serial = Synthesizer::new(&system, plain).run().expect("schedulable system");
    assert_eq!(cached.best, serial.best);
    assert_eq!(cached.history, serial.history);
    assert_eq!(cached.evaluations, serial.evaluations);
    assert_eq!(cached.stop_reason, serial.stop_reason);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The full pipeline on randomised systems, with the verifier as the
    /// oracle: whatever the GA returns must re-prove every constraint.
    #[test]
    fn randomised_systems_synthesise_to_verified_solutions(
        seed in 1u64..300,
        modes in 1usize..3,
        dvs in any::<bool>(),
    ) {
        let mut params = GeneratorParams::new("oracle", seed);
        params.modes = modes;
        params.tasks_per_mode = (4, 8);
        let system = generate(&params);
        let mut config = SynthesisConfig::fast_preset(seed);
        config.ga.max_generations = 10;
        if dvs {
            config = config.with_dvs();
        }
        let best = synthesise_and_verify(&system, config);

        // The adapter and the raw entry point agree.
        let report = check_solution(&system, &SolutionView {
            mapping: &best.mapping,
            alloc: &best.alloc,
            schedules: &best.schedules,
            voltage_schedules: &best.voltage_schedules,
            power: &best.power,
        });
        prop_assert_eq!(report, verify_solution(&system, &best));
    }
}
