//! The PV-DVS kernel: pinned synthesis trajectories under DVS, and the
//! virtual-task fallback that re-enters the scaler when merging a DVS
//! rail's cores into virtual tasks makes the constraint graph cyclic.

use momsynth::dvs::{scale_mode, scale_mode_with, DvsOptions, DvsScratch};
use momsynth::generators::smartphone::smartphone;
use momsynth::generators::suite::mul;
use momsynth::model::ids::{ModeId, PeId, TaskId};
use momsynth::model::units::{Cells, Seconds, Volts, Watts};
use momsynth::model::{
    ArchitectureBuilder, Cl, DvsCapability, Implementation, OmsmBuilder, Pe, PeKind, System,
    TaskGraphBuilder, TechLibraryBuilder,
};
use momsynth::sched::{schedule_mode, CoreAllocation, Schedule, SchedulerOptions, SystemMapping};
use momsynth::synthesis::{SynthesisConfig, Synthesizer};

/// Best fitness bits, PV-DVS iterations and evaluations of a
/// `fast_preset(0)` DVS synthesis. The `mul` systems scale DVS ASICs
/// through virtual tasks; the smartphone scales a DVS GPP.
///
/// The memetic polish prices each single-gene move against its current
/// solution, so the modes a move leaves unchanged skip PV-DVS: the
/// iteration counts are those of the modes actually re-scaled (48 772,
/// 67 983, 104 508 and 118 176 while every move re-scaled every mode).
#[test]
fn dvs_synthesis_trajectories_are_pinned() {
    let cases = [
        ("mul1", mul(1), 0x3fa2_68e0_31a5_d5c7_u64, 44_726_u64, 807_usize),
        ("mul6", mul(6), 0x3f8a_5c97_1b82_cba2, 64_511, 801),
        ("mul12", mul(12), 0x3f96_f586_e6d7_5291, 91_497, 870),
        ("smartphone", smartphone(), 0x3f76_8587_af90_87e0, 90_499, 961),
    ];
    for (name, system, fitness, dvs_iterations, evaluations) in cases {
        let result = Synthesizer::new(&system, SynthesisConfig::fast_preset(0).with_dvs())
            .run()
            .expect("schedulable system");
        assert_eq!(
            (result.best.fitness.to_bits(), result.counters.dvs_iterations, result.evaluations),
            (fitness, dvs_iterations, evaluations),
            "{name}: fitness {}",
            result.best.fitness
        );
    }
}

fn dvs_cap() -> DvsCapability {
    DvsCapability::new(
        Volts::new(3.3),
        Volts::new(0.8),
        vec![Volts::new(1.2), Volts::new(1.8), Volts::new(2.4), Volts::new(3.3)],
    )
}

/// A DVS ASIC and a DVS GPP on one bus. Task `x` (10 ms, ASIC) is
/// independent of the chain `a` (1 ms, ASIC) → `b` (1 ms) → `c` (1 ms,
/// ASIC), where `a` and `c` share a type and so one core. `b` runs on
/// the GPP or on the ASIC.
fn fork_system() -> System {
    let mut tech = TechLibraryBuilder::new();
    let tx = tech.add_type("X");
    let ta = tech.add_type("A");
    let tb = tech.add_type("B");
    let mut arch = ArchitectureBuilder::new();
    let asic = arch.add_pe(
        Pe::hardware("asic", PeKind::Asic, Cells::new(1000), Watts::ZERO).with_dvs(dvs_cap()),
    );
    let gpp = arch.add_pe(Pe::software("gpp", PeKind::Gpp, Watts::ZERO).with_dvs(dvs_cap()));
    let bus_time = Seconds::from_micros(10.0);
    arch.add_cl(Cl::bus("bus", vec![asic, gpp], bus_time, Watts::ZERO, Watts::ZERO)).unwrap();
    let hw = |ms: f64| {
        let exec = Seconds::from_millis(ms);
        Implementation::hardware(exec, Watts::from_milli(10.0), Cells::new(100))
    };
    tech.set_impl(tx, asic, hw(10.0));
    tech.set_impl(ta, asic, hw(1.0));
    tech.set_impl(tb, asic, hw(1.0));
    tech.set_impl(
        tb,
        gpp,
        Implementation::software(Seconds::from_millis(1.0), Watts::from_milli(10.0)),
    );
    let mut g = TaskGraphBuilder::new("fork", Seconds::from_millis(100.0));
    g.add_task("x", tx);
    let a = g.add_task("a", ta);
    let b = g.add_task("b", tb);
    let c = g.add_task("c", ta);
    g.add_comm(a, b, 10.0).unwrap();
    g.add_comm(b, c, 10.0).unwrap();
    let mut omsm = OmsmBuilder::new();
    omsm.add_mode("m", 1.0, g.build().unwrap());
    System::new("fork", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
}

/// The schedule of `system` with task `b` on `b_pe` and every other task
/// on the ASIC.
fn fork_schedule(system: &System, b_pe: PeId) -> Schedule {
    let b = TaskId::new(2);
    let mapping =
        SystemMapping::from_fn(system, |id| if id.task == b { b_pe } else { PeId::new(0) });
    let alloc = CoreAllocation::minimal(system, &mapping);
    schedule_mode(system, ModeId::new(0), &mapping, &alloc, SchedulerOptions::default()).unwrap()
}

#[test]
fn cyclic_virtual_tasks_fall_back_to_group_free_scaling() {
    let system = fork_system();
    let hw_off = DvsOptions { scale_hw: false, ..DvsOptions::default() };

    // With `b` on the ASIC as well, the four tasks form one acyclic
    // virtual task and the rail scales them together.
    let grouped = fork_schedule(&system, PeId::new(0));
    let mut used = DvsScratch::default();
    let scaled = scale_mode_with(&system, &grouped, &DvsOptions::default(), &mut used);
    assert!(scaled.iterations() > 0);
    assert!(scaled.task_voltage(TaskId::new(0)).is_some());

    // With `b` on the GPP, the group {x, a, c} reaches itself through
    // `b` and its two bus transfers: the scaler drops the groups, so the
    // ASIC stays nominal and only `b` is scaled.
    let cyclic = fork_schedule(&system, PeId::new(1));
    let expected = scale_mode(&system, &cyclic, &hw_off);
    assert!(expected.iterations() > 0);
    for (t, scaled) in [(0, false), (1, false), (2, true), (3, false)] {
        assert_eq!(expected.task_voltage(TaskId::new(t)).is_some(), scaled, "task {t}");
    }
    let fresh = scale_mode(&system, &cyclic, &DvsOptions::default());
    assert_eq!(fresh, expected);
    let reused = scale_mode_with(&system, &cyclic, &DvsOptions::default(), &mut used);
    assert_eq!(reused, expected);
}
