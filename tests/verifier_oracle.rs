//! The independent verifier as an oracle over the whole flow.
//!
//! `momsynth-check` shares no code with the constructive inner loop, so
//! agreement between the two is genuine evidence: every solution the
//! synthesiser returns — on the named benchmarks and on randomly
//! generated systems — must re-prove all paper constraints ((a) area,
//! (b) timing, (c) transitions) and the Eq. 1 average power from the
//! model alone. Deliberately corrupted solutions must be rejected.

use proptest::prelude::*;

use serde_json::Value;

use momsynth::check::{check_solution, CheckReport, SolutionView, StoredSolution, Violation};
use momsynth::generators::automotive::automotive_ecu;
use momsynth::generators::smartphone::smartphone;
use momsynth::generators::suite::{generate, mul, GeneratorParams};
use momsynth::model::ids::{ClId, CommId, ModeId, PeId, TaskTypeId};
use momsynth::model::units::{Cells, Seconds, Watts};
use momsynth::model::{
    ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, System, TaskGraphBuilder,
    TechLibraryBuilder,
};
use momsynth::sched::{Schedule, ScheduledComm, SystemMapping};
use momsynth::synthesis::{verify_solution, Evaluator, Solution, SynthesisConfig, Synthesizer};

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
        report.violations().iter().any(|v| matches!(v, Violation::AveragePowerMismatch { .. })),
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
fn threaded_verified_runs_equal_the_serial_run() {
    // Worker threads price the GA's batches, but the returned solution
    // is always re-built and re-polished on the driver thread. Run with
    // per-generation verification and worker threads on, hold the result
    // to the oracle, and to the serial run bit for bit.
    let system = automotive_ecu();
    let mut config = SynthesisConfig::fast_preset(3);
    config.verify_each_generation = true;
    config.threads = 4;
    let threaded = Synthesizer::new(&system, config).run().expect("schedulable system");

    let report = verify_solution(&system, &threaded.best);
    if threaded.best.is_feasible() {
        assert!(report.is_clean(), "threaded solution failed verification:\n{report}");
    } else {
        assert!(
            !report.has_consistency_violations(),
            "threaded solution is internally inconsistent:\n{report}"
        );
    }

    let mut plain = SynthesisConfig::fast_preset(3);
    plain.verify_each_generation = true;
    plain.threads = 1;
    let serial = Synthesizer::new(&system, plain).run().expect("schedulable system");
    assert_eq!(threaded.best, serial.best);
    assert_eq!(threaded.history, serial.history);
    assert_eq!(threaded.evaluations, serial.evaluations);
    assert_eq!(threaded.stop_reason, serial.stop_reason);
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

/// A CPU, a 300-cell ASIC and a 300-cell FPGA (1 µs per cell) on one
/// bus. Types X and Y each run on the CPU or as a 100-cell core on
/// either fabric; mode `a` runs one X task, mode `b` one Y task, and
/// each direction of the `a`–`b` transition allows 0.1 ms.
fn two_fabric_system() -> System {
    let mut tech = TechLibraryBuilder::new();
    let x = tech.add_type("X");
    let y = tech.add_type("Y");
    let mut arch = ArchitectureBuilder::new();
    let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(0.2)));
    let asic = arch.add_pe(Pe::hardware("asic", PeKind::Asic, Cells::new(300), Watts::ZERO));
    let fpga = arch.add_pe(
        Pe::hardware("fpga", PeKind::Fpga, Cells::new(300), Watts::ZERO)
            .with_reconfig_time_per_cell(Seconds::from_micros(1.0)),
    );
    arch.add_cl(Cl::bus(
        "bus",
        vec![cpu, asic, fpga],
        Seconds::from_micros(1.0),
        Watts::from_milli(1.0),
        Watts::ZERO,
    ))
    .unwrap();
    for ty in [x, y] {
        let sw = Implementation::software(Seconds::from_millis(5.0), Watts::from_milli(50.0));
        tech.set_impl(ty, cpu, sw);
        for hw in [asic, fpga] {
            let core = Implementation::hardware(
                Seconds::from_millis(1.0),
                Watts::from_milli(5.0),
                Cells::new(100),
            );
            tech.set_impl(ty, hw, core);
        }
    }
    let mut omsm = OmsmBuilder::new();
    let mut modes = Vec::new();
    for (name, ty) in [("a", x), ("b", y)] {
        let mut g = TaskGraphBuilder::new(name, Seconds::from_millis(20.0));
        g.add_task("t", ty);
        modes.push(omsm.add_mode(name, 0.5, g.build().unwrap()));
    }
    omsm.add_transition(modes[0], modes[1], Seconds::from_micros(100.0)).unwrap();
    omsm.add_transition(modes[1], modes[0], Seconds::from_micros(100.0)).unwrap();
    System::new("two_fabric", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
}

/// The checker folds area and reconfiguration from the allocation's
/// cores and the library itself: an ASIC whose modes each fit alone but
/// whose static union does not, and an FPGA transition that must load
/// more than `t_T^max` allows, are found with the exact cells and time.
#[test]
fn area_and_reconfiguration_are_recomputed_from_the_allocation() {
    let system = two_fabric_system();
    let (a, b) = (ModeId::new(0), ModeId::new(1));
    let (x, y) = (TaskTypeId::new(0), TaskTypeId::new(1));
    let (asic, fpga) = (PeId::new(1), PeId::new(2));
    let config = SynthesisConfig::fast_preset(0);
    let mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
    let solved = Evaluator::new(&system, &config).evaluate(mapping, None).unwrap();
    assert!(verify_solution(&system, &solved).is_clean());

    // Two 100-cell cores per mode fit the 300-cell ASIC; both pairs do
    // not.
    let mut union = solved.clone();
    union.alloc.set_instances(a, asic, x, 2);
    union.alloc.set_instances(b, asic, y, 2);
    let overflow =
        Violation::AreaOverflow { pe: asic, required: Cells::new(400), capacity: Cells::new(300) };
    assert_eq!(verify_solution(&system, &union).violations(), &[overflow]);

    // Entering `b` keeps `a`'s X core and loads two Y cores `a` lacks:
    // 200 cells, 200 µs of a 100 µs budget. Leaving it loads nothing.
    let mut reload = solved.clone();
    reload.alloc.set_instances(a, fpga, x, 1);
    reload.alloc.set_instances(b, fpga, x, 1);
    reload.alloc.set_instances(b, fpga, y, 2);
    let (into_b, _) = system.omsm().transitions().find(|(_, t)| t.to() == b).unwrap();
    let overrun = Violation::TransitionOverrun {
        transition: into_b,
        time: Seconds::new(system.arch().pe(fpga).reconfig_time_per_cell().value() * 200.0),
        limit: Seconds::from_micros(100.0),
    };
    assert_eq!(verify_solution(&system, &reload).violations(), &[overrun]);
}

/// A stored solution whose allocation names a PE the architecture lacks
/// — however large its id — is a malformed finding, never a panic or an
/// allocation sized by the id; a zero-count entry for a real core is
/// harmless.
#[test]
fn hostile_allocation_entries_in_a_stored_solution_stay_findings() {
    let system = mul(3);
    let best = Synthesizer::new(&system, SynthesisConfig::fast_preset(1))
        .run()
        .expect("schedulable system");
    assert!(best.best.is_feasible());
    let mode0 = ModeId::new(0);
    // Checks the solution file with `entry` appended to mode 0's
    // allocation row.
    let check_with = |entry: Option<serde_json::Value>| {
        let mut json = best.report(&system);
        if let Some(entry) = entry {
            let mut v = &mut json;
            for key in ["alloc", "per_mode"] {
                let Value::Object(fields) = v else { panic!("`{key}` sits in an object") };
                v = &mut fields.iter_mut().find(|(k, _)| k == key).expect("field present").1;
            }
            let Value::Array(modes) = v else { panic!("per-mode rows are an array") };
            let Value::Array(row) = &mut modes[0] else { panic!("a row is an array") };
            row.push(entry);
        }
        StoredSolution::from_json(&json).expect("the edited file parses").check(&system)
    };
    assert!(check_with(None).is_clean());

    for pe in [99u64, 4_000_000_000] {
        let report = check_with(Some(serde_json::json!([pe, 0, 1])));
        assert!(
            report.violations().iter().any(|v| matches!(v, Violation::Malformed { detail }
                if detail.contains("allocation names unknown core"))),
            "PE {pe}:\n{report}"
        );
    }

    let (pe, ty) = system
        .tech()
        .type_ids()
        .find_map(|ty| {
            system
                .tech()
                .pes_supporting(ty)
                .find(|&pe| {
                    system.arch().pe(pe).kind().is_hardware()
                        && best.best.alloc.instances(mode0, pe, ty) == 0
                })
                .map(|pe| (pe, ty))
        })
        .expect("mul3 has a hardware core mode 0 leaves unallocated");
    assert!(check_with(Some(serde_json::json!([pe.index(), ty.index(), 0]))).is_clean());
}
