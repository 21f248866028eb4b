//! Independent end-to-end verification of finished synthesis results.
//!
//! The constructive pipeline — mapping GA, list scheduler, PV-DVS,
//! power report — *produces* a solution; this crate *re-proves* it. It
//! takes the finished parts and independently re-derives every claim the
//! paper's co-synthesis makes:
//!
//! * constraint (a): allocated hardware cores fit each PE's area budget;
//! * constraint (b): every task meets `min(θ, φ)` and every mode fits
//!   its period, on the DVS-extended execution times;
//! * constraint (c): every mode transition's FPGA reconfiguration stays
//!   within `t_T^max`;
//! * voltage-schedule legality under the alpha-power delay model;
//! * Eq. 1: the reported average power `p̄ = Σ_O (p̄_O^dyn + p̄_O^stat) ·
//!   Ψ_O`, matched to `1e-9` relative.
//!
//! Findings are typed [`Violation`]s aggregated into a [`CheckReport`].
//! [`Violation::is_constraint`] separates legitimate infeasibility (a
//! solution the optimiser itself reports as constraint-violating) from
//! internal inconsistency, which always indicates a bug.
//!
//! The crate deliberately sits *below* `momsynth-core` in the dependency
//! graph and shares no code with it: the scheduler validator
//! ([`momsynth_sched::validate_schedule`]) is reused as a building block,
//! but area, transition and power arithmetic are re-implemented here from
//! the model alone.

mod checks;
mod violation;

pub use checks::{check_solution, SolutionView, StoredSolution};
pub use violation::{CheckReport, Violation};

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_dvs::{scale_mode, DvsOptions, VoltageSchedule};
    use momsynth_model::arch::DvsCapability;
    use momsynth_model::ids::{ModeId, PeId};
    use momsynth_model::units::{Cells, Seconds, Volts, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Implementation, OmsmBuilder, Pe, PeKind, System, TaskGraphBuilder,
        TechLibraryBuilder,
    };
    use momsynth_power::{power_report, ModeImplementation};
    use momsynth_sched::{
        schedule_mode, CoreAllocation, Schedule, SchedulerOptions, SystemMapping,
    };

    /// One mode, two chained tasks on a DVS-capable CPU with ample slack.
    fn dvs_system() -> System {
        let mut tech = TechLibraryBuilder::new();
        let ta = tech.add_type("A");
        let tb = tech.add_type("B");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(1.0)).with_dvs(
            DvsCapability::new(
                Volts::new(3.3),
                Volts::new(0.8),
                vec![Volts::new(1.2), Volts::new(2.1), Volts::new(3.3)],
            ),
        ));
        tech.set_impl(
            ta,
            cpu,
            Implementation::software(Seconds::from_millis(10.0), Watts::from_milli(20.0)),
        );
        tech.set_impl(
            tb,
            cpu,
            Implementation::software(Seconds::from_millis(5.0), Watts::from_milli(10.0)),
        );
        let mut g = TaskGraphBuilder::new("g", Seconds::from_millis(100.0));
        let a = g.add_task("a", ta);
        let b = g.add_task("b", tb);
        g.add_comm(a, b, 0.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        System::new("dvs-sys", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    type Solved = (
        SystemMapping,
        CoreAllocation,
        Vec<Schedule>,
        Vec<Vec<Option<VoltageSchedule>>>,
        momsynth_power::PowerReport,
    );

    /// Builds a clean scaled solution for [`dvs_system`] through the
    /// mid-level pipeline (scheduler → PV-DVS → power report).
    fn solved(system: &System) -> Solved {
        let mapping = SystemMapping::from_fn(system, |_| PeId::new(0));
        let alloc = CoreAllocation::minimal(system, &mapping);
        let schedule =
            schedule_mode(system, ModeId::new(0), &mapping, &alloc, SchedulerOptions::default())
                .unwrap();
        let scaled = scale_mode(system, &schedule, &DvsOptions::default());
        let factors = scaled.energy_factors().to_vec();
        let voltage_schedules = vec![(0..2)
            .map(|t| scaled.task_voltage(momsynth_model::ids::TaskId::new(t)).cloned())
            .collect()];
        let schedules = vec![scaled.schedule().clone()];
        let power = power_report(system, &[ModeImplementation::scaled(&schedules[0], &factors)]);
        (mapping, alloc, schedules, voltage_schedules, power)
    }

    #[test]
    fn clean_scaled_solution_passes() {
        let system = dvs_system();
        let (mapping, alloc, schedules, voltage_schedules, power) = solved(&system);
        let report = check_solution(
            &system,
            &SolutionView {
                mapping: &mapping,
                alloc: &alloc,
                schedules: &schedules,
                voltage_schedules: &voltage_schedules,
                power: &power,
            },
        );
        assert!(report.is_clean(), "{report}");
        // The slack must actually have been used, or this test proves
        // nothing about voltage checking.
        assert!(voltage_schedules[0].iter().flatten().count() > 0);
    }

    #[test]
    fn corrupted_voltage_slot_is_caught() {
        let system = dvs_system();
        let (mapping, alloc, schedules, mut voltage_schedules, power) = solved(&system);
        let vs = voltage_schedules[0][0].as_mut().expect("task 0 is scaled");
        // Mutate the first segment's supply (through the serde surface —
        // the in-memory type is intentionally unforgeable): the slot
        // re-derivation no longer adds up.
        let mut segments = vs.segments().to_vec();
        let old = segments[0].voltage;
        segments[0].voltage =
            if (old.value() - 2.1).abs() < 1e-9 { Volts::new(1.2) } else { Volts::new(2.1) };
        *vs = serde_json::from_value(&serde_json::json!({ "segments": segments }))
            .expect("voltage schedule deserialises");
        let report = check_solution(
            &system,
            &SolutionView {
                mapping: &mapping,
                alloc: &alloc,
                schedules: &schedules,
                voltage_schedules: &voltage_schedules,
                power: &power,
            },
        );
        assert!(!report.is_clean());
        assert!(report.has_consistency_violations(), "{report}");
    }

    #[test]
    fn inflated_average_power_is_caught() {
        let system = dvs_system();
        let (mapping, alloc, schedules, voltage_schedules, mut power) = solved(&system);
        power.average = power.average * 1.05;
        let report = check_solution(
            &system,
            &SolutionView {
                mapping: &mapping,
                alloc: &alloc,
                schedules: &schedules,
                voltage_schedules: &voltage_schedules,
                power: &power,
            },
        );
        assert!(
            report.violations().iter().any(|v| matches!(v, Violation::AveragePowerMismatch { .. })),
            "{report}"
        );
    }

    #[test]
    fn missed_deadline_is_a_constraint_violation() {
        let system = dvs_system();
        let (mapping, alloc, mut schedules, voltage_schedules, power) = solved(&system);
        // Push the last task past the period.
        let mut tasks: Vec<_> = schedules[0].tasks().cloned().collect();
        tasks[1].start = Seconds::from_millis(200.0);
        let comms = system
            .omsm()
            .mode(ModeId::new(0))
            .graph()
            .comm_ids()
            .map(|c| schedules[0].comm(c).cloned())
            .collect();
        schedules[0] =
            Schedule::from_parts(ModeId::new(0), tasks, comms, schedules[0].sequences().to_vec());
        let report = check_solution(
            &system,
            &SolutionView {
                mapping: &mapping,
                alloc: &alloc,
                schedules: &schedules,
                voltage_schedules: &voltage_schedules,
                power: &power,
            },
        );
        assert!(report.has_constraint_violations(), "{report}");
        assert!(report.violations().iter().any(|v| matches!(v, Violation::DeadlineMissed { .. })));
        assert!(report.violations().iter().any(|v| matches!(v, Violation::PeriodExceeded { .. })));
    }

    #[test]
    fn shape_mismatch_reports_malformed() {
        let system = dvs_system();
        let (mapping, alloc, schedules, _, power) = solved(&system);
        let report = check_solution(
            &system,
            &SolutionView {
                mapping: &mapping,
                alloc: &alloc,
                schedules: &schedules,
                voltage_schedules: &[], // wrong mode count
                power: &power,
            },
        );
        assert!(report.violations().iter().all(|v| matches!(v, Violation::Malformed { .. })));
        assert!(!report.is_clean());
    }

    #[test]
    fn area_overflow_is_recomputed_independently() {
        // Two types on a tiny ASIC: both cores allocated statically
        // overflow its area.
        let mut tech = TechLibraryBuilder::new();
        let ta = tech.add_type("A");
        let tb = tech.add_type("B");
        let mut arch = ArchitectureBuilder::new();
        let hw = arch.add_pe(Pe::hardware("hw", PeKind::Asic, Cells::new(300), Watts::ZERO));
        tech.set_impl(
            ta,
            hw,
            Implementation::hardware(Seconds::from_millis(1.0), Watts::ZERO, Cells::new(200)),
        );
        tech.set_impl(
            tb,
            hw,
            Implementation::hardware(Seconds::from_millis(1.0), Watts::ZERO, Cells::new(200)),
        );
        let mut g = TaskGraphBuilder::new("g", Seconds::from_millis(100.0));
        g.add_task("a", ta);
        g.add_task("b", tb);
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let system =
            System::new("tight", omsm.build().unwrap(), arch.build().unwrap(), tech.build())
                .unwrap();
        let mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
        let alloc = CoreAllocation::minimal(&system, &mapping);
        let schedule =
            schedule_mode(&system, ModeId::new(0), &mapping, &alloc, SchedulerOptions::default())
                .unwrap();
        let schedules = vec![schedule];
        let voltage_schedules = vec![vec![None, None]];
        let power = power_report(&system, &[ModeImplementation::nominal(&schedules[0])]);
        let report = check_solution(
            &system,
            &SolutionView {
                mapping: &mapping,
                alloc: &alloc,
                schedules: &schedules,
                voltage_schedules: &voltage_schedules,
                power: &power,
            },
        );
        assert!(
            report.violations().iter().any(|v| matches!(v, Violation::AreaOverflow { .. })),
            "{report}"
        );
    }

    #[test]
    fn stored_solution_round_trips_and_checks() {
        let system = dvs_system();
        let (mapping, alloc, schedules, voltage_schedules, power) = solved(&system);
        let json = serde_json::json!({
            "mapping": mapping,
            "alloc": alloc,
            "schedules": schedules,
            "voltage_schedules": voltage_schedules,
            "power": power,
            "extra": "ignored",
        });
        let stored = StoredSolution::from_json(&json).unwrap();
        assert!(stored.check(&system).is_clean());
        // Without the voltage schedules the timing no longer matches the
        // nominal execution times — the checker must notice.
        let json = serde_json::json!({
            "mapping": mapping,
            "alloc": alloc,
            "schedules": schedules,
            "power": power,
        });
        let stored = StoredSolution::from_json(&json).unwrap();
        assert!(stored.voltage_schedules.is_none());
        let report = stored.check(&system);
        assert!(
            report.violations().iter().any(|v| matches!(v, Violation::ExecTimeMismatch { .. })),
            "{report}"
        );
        // Missing required fields are reported, not panicked on.
        assert!(StoredSolution::from_json(&serde_json::json!({})).is_err());
    }
}
