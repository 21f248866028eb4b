//! Pricing a candidate against a base solution: the reuse key must
//! include each mode's core-allocation row, because core replication in
//! one mode reads an ASIC's static area, which spans every mode; and an
//! evaluation that panics must not leave a stale timing analysis behind
//! for the next one.

use momsynth::model::ids::{ModeId, PeId, TaskTypeId};
use momsynth::model::units::{Cells, Seconds, Watts};
use momsynth::model::{
    ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, System, TaskGraphBuilder,
    TechLibraryBuilder,
};
use momsynth::sched::SystemMapping;
use momsynth::synthesis::{EvalFailure, Evaluator, SynthesisConfig};

const CPU: PeId = PeId::new(0);
const ASIC: PeId = PeId::new(1);
const X: TaskTypeId = TaskTypeId::new(0);
const MODE_B: ModeId = ModeId::new(1);

/// A CPU and a 250-cell ASIC on one bus. Types X and Y each have a
/// 100-cell hardware core and a CPU implementation. Mode A runs one Y
/// task; mode B runs three independent 10 ms X tasks under a 12 ms
/// period, low-mobility enough to replicate X's core while area allows.
fn cross_mode_system() -> System {
    let mut tech = TechLibraryBuilder::new();
    let x = tech.add_type("X");
    let y = tech.add_type("Y");
    let mut arch = ArchitectureBuilder::new();
    let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(0.2)));
    let asic =
        arch.add_pe(Pe::hardware("asic", PeKind::Asic, Cells::new(250), Watts::from_milli(0.1)));
    arch.add_cl(Cl::bus(
        "bus",
        vec![cpu, asic],
        Seconds::from_micros(1.0),
        Watts::from_milli(1.0),
        Watts::from_milli(0.05),
    ))
    .unwrap();
    for ty in [x, y] {
        tech.set_impl(
            ty,
            cpu,
            Implementation::software(Seconds::from_millis(30.0), Watts::from_milli(50.0)),
        );
        tech.set_impl(
            ty,
            asic,
            Implementation::hardware(
                Seconds::from_millis(10.0),
                Watts::from_milli(5.0),
                Cells::new(100),
            ),
        );
    }
    let mut a = TaskGraphBuilder::new("a", Seconds::from_millis(100.0));
    a.add_task("y", y);
    let mut b = TaskGraphBuilder::new("b", Seconds::from_millis(12.0));
    for name in ["x0", "x1", "x2"] {
        b.add_task(name, x);
    }
    let mut omsm = OmsmBuilder::new();
    omsm.add_mode("a", 0.5, a.build().unwrap());
    omsm.add_mode("b", 0.5, b.build().unwrap());
    System::new("cross_mode", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
}

/// Mode B on the ASIC, mode A's Y task on `y_pe`.
fn mapping(y_pe: PeId) -> SystemMapping {
    SystemMapping::from_vecs(vec![vec![y_pe], vec![ASIC; 3]])
}

#[test]
fn a_move_in_one_mode_that_caps_another_modes_replication_reprices_it() {
    let system = cross_mode_system();
    let config = SynthesisConfig::fast_preset(0);
    let evaluator = Evaluator::new(&system, &config);
    let base = evaluator.try_evaluate(mapping(CPU), None, None).unwrap();
    // Alone on the ASIC, X replicates to two cores (a third would need
    // 300 cells).
    assert_eq!(base.alloc.instances(MODE_B, ASIC, X), 2);

    // Moving A's Y task onto the ASIC takes 100 static cells, which caps
    // B at one X core although B's mapping row is unchanged.
    let neighbour = evaluator.try_evaluate(mapping(ASIC), None, Some(&base)).unwrap();
    assert_eq!(neighbour.mapping.row(MODE_B), base.mapping.row(MODE_B));
    assert_eq!(neighbour.alloc.instances(MODE_B, ASIC, X), 1);
    assert!(!neighbour.alloc.mode_eq(&base.alloc, MODE_B));

    let fresh =
        Evaluator::new(&system, &config).try_evaluate(mapping(ASIC), None, None).unwrap();
    assert_ne!(neighbour.schedules[MODE_B.index()], base.schedules[MODE_B.index()]);
    assert_eq!(neighbour.fitness.to_bits(), fresh.fitness.to_bits());
    assert_eq!(neighbour, fresh);
}

#[test]
fn a_panicking_evaluation_leaves_no_stale_timing_analysis() {
    let system = cross_mode_system();
    let config = SynthesisConfig::fast_preset(0);
    let evaluator = Evaluator::new(&system, &config);
    let valid = mapping(CPU);
    let fresh = || Evaluator::new(&system, &config).try_evaluate(valid.clone(), None, None);
    assert_eq!(evaluator.try_evaluate(valid.clone(), None, None), fresh());

    // Mode B's row is one task short: its timing analysis panics half
    // way through, while mode A's row is the valid mapping's.
    let short = SystemMapping::from_vecs(vec![vec![CPU], vec![ASIC; 2]]);
    // A PE id the architecture lacks: the evaluator panics after the
    // timing analyses.
    let unknown_pe = SystemMapping::from_fn(&system, |_| PeId::new(9));
    for hostile in [short, unknown_pe] {
        let failure = evaluator.try_evaluate(hostile, None, None).unwrap_err();
        assert!(matches!(failure, EvalFailure::Panic(_)), "{failure:?}");
        // The same evaluator still prices the valid mapping exactly as a
        // fresh one does.
        assert_eq!(evaluator.try_evaluate(valid.clone(), None, None), fresh());
    }
}
