//! `momsynth-analyze` is the one spec diagnostic: the shipped corpus
//! analyses with zero findings, and each advisory it took over from the
//! deleted linter fires on a minimal fixture.

use momsynth::analyze::{analyze_system, Finding, Severity};
use momsynth::generators::automotive::automotive_ecu;
use momsynth::generators::smartphone::smartphone;
use momsynth::generators::suite::mul;
use momsynth::model::ids::{ModeId, PeId, TaskId};
use momsynth::model::units::{Cells, Seconds, Volts, Watts};
use momsynth::model::{
    ArchitectureBuilder, DvsCapability, Implementation, OmsmBuilder, Pe, PeKind, System,
    TaskGraphBuilder, TechLibraryBuilder,
};

#[test]
fn shipped_systems_analyse_with_zero_findings() {
    for system in (1..=12).map(mul).chain([smartphone(), automotive_ecu()]) {
        let analysis = analyze_system(&system);
        assert!(analysis.is_clean(), "{}: {analysis}", system.name());
    }
}

/// Two modes of period 1 s, half the probability mass each, with
/// transitions both ways, over one task type only `cpu` runs. Mode 0 has
/// `tasks` tasks, the first with `deadline`; mode 1 has two. `extra`
/// joins the architecture unconnected.
fn fixture(cpu: Pe, extra: Option<Pe>, tasks: usize, deadline: Option<f64>) -> System {
    let mut tech = TechLibraryBuilder::new();
    let ty = tech.add_type("T");
    let mut arch = ArchitectureBuilder::new();
    let cpu = arch.add_pe(cpu);
    if let Some(pe) = extra {
        arch.add_pe(pe);
    }
    tech.set_impl(ty, cpu, Implementation::software(Seconds::new(0.01), Watts::new(0.1)));
    let mut omsm = OmsmBuilder::new();
    for (name, n) in [("m0", tasks), ("m1", 2)] {
        let mut g = TaskGraphBuilder::new(name, Seconds::new(1.0));
        for t in 0..n {
            g.add_task(format!("t{t}"), ty);
        }
        if let (Some(d), "m0") = (deadline, name) {
            g.set_deadline(TaskId::new(0), Seconds::new(d)).unwrap();
        }
        omsm.add_mode(name, 0.5, g.build().unwrap());
    }
    let (m0, m1) = (ModeId::new(0), ModeId::new(1));
    omsm.add_transition(m0, m1, Seconds::new(0.1)).unwrap();
    omsm.add_transition(m1, m0, Seconds::new(0.1)).unwrap();
    System::new("fixture", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
}

#[test]
fn each_advisory_fires_on_a_minimal_fixture() {
    let cpu = || Pe::software("cpu", PeKind::Gpp, Watts::ZERO);
    let asic = Pe::hardware("asic", PeKind::Asic, Cells::new(100), Watts::ZERO);
    let rail = DvsCapability::new(Volts::new(3.3), Volts::new(0.8), vec![Volts::new(3.3)]);
    let (m0, t0) = (ModeId::new(0), TaskId::new(0));
    for (system, expected) in [
        (fixture(cpu(), None, 2, Some(2.0)), Finding::DeadlineBeyondPeriod { mode: m0, task: t0 }),
        (fixture(cpu(), None, 1, None), Finding::ProbableStubMode { mode: m0 }),
        (fixture(cpu(), Some(asic), 2, None), Finding::UnusableHardwarePe { pe: PeId::new(1) }),
        (
            fixture(cpu().with_dvs(rail), None, 2, None),
            Finding::SingleLevelDvsRail { pe: PeId::new(0) },
        ),
    ] {
        let analysis = analyze_system(&system);
        assert_eq!(expected.severity(), Severity::Info);
        assert_eq!(analysis.findings(), [expected], "{analysis}");
    }
    // The same fixture without any of the four is clean.
    assert!(analyze_system(&fixture(cpu(), None, 2, None)).is_clean());
}
