//! The paper's Fig. 5 transformation: parallel hardware-core activity on a
//! single-rail component rewritten as equivalent sequential virtual tasks.
//!
//! All cores on one hardware PE share a single supply rail (adding one
//! DC/DC converter per core would cost area and power), so scaling the
//! voltage affects every core simultaneously. To compute a voltage
//! schedule, the potentially parallel core executions are merged into
//! *virtual tasks*: transitively overlapping executions form one virtual
//! task whose span is their union and whose energy is their sum. The
//! resulting sequence behaves like software tasks and can be scaled with
//! the same PV-DVS machinery; the chosen stretch is then mapped back onto
//! every member. The transformation is virtual — it only drives voltage
//! selection and never changes the real implementation.

use momsynth_model::ids::{PeId, TaskId};
use momsynth_model::units::{Joules, Seconds};
use momsynth_model::System;
use momsynth_sched::{Schedule, ScheduleView};

/// A merged group of transitively overlapping hardware executions.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualTask {
    /// Member tasks, ordered by scheduled start time.
    pub members: Vec<TaskId>,
    /// Earliest member start.
    pub start: Seconds,
    /// Latest member finish.
    pub end: Seconds,
    /// Total nominal dynamic energy of all members.
    pub energy: Joules,
}

impl VirtualTask {
    /// The virtual task's nominal duration (`end − start`).
    pub fn duration(&self) -> Seconds {
        self.end - self.start
    }

    /// Equivalent constant power over the span (`energy / duration`).
    ///
    /// Returns zero power for a zero-length span.
    pub fn mean_power(&self) -> momsynth_model::units::Watts {
        if self.duration().value() <= 0.0 {
            momsynth_model::units::Watts::ZERO
        } else {
            self.energy / self.duration()
        }
    }
}

/// Merges the scheduled executions on hardware PE `pe` into virtual tasks.
///
/// Executions whose time intervals overlap (transitively, strict overlap —
/// back-to-back executions stay separate) form one virtual task. The
/// result is ordered by start time and its spans are pairwise disjoint.
///
/// # Panics
///
/// Panics if `schedule` does not belong to a mode of `system`, or if a
/// member task has no implementation on `pe` (both indicate caller bugs —
/// schedules produced by `momsynth-sched` are always consistent).
pub fn virtual_tasks(system: &System, schedule: &Schedule, pe: PeId) -> Vec<VirtualTask> {
    virtual_tasks_of(system, schedule.view(), pe)
}

/// [`virtual_tasks`] of a schedule's timing, which is all it reads.
pub(crate) fn virtual_tasks_of(
    system: &System,
    timing: ScheduleView<'_>,
    pe: PeId,
) -> Vec<VirtualTask> {
    let graph = system.omsm().mode(timing.mode()).graph();
    let mut entries: Vec<(TaskId, Seconds, Seconds)> = timing
        .tasks()
        .iter()
        .filter(|e| e.pe == pe)
        .map(|e| (e.task, e.start, e.finish()))
        .collect();
    entries.sort_by(|a, b| a.1.value().total_cmp(&b.1.value()).then(a.0.cmp(&b.0)));

    let mut groups: Vec<VirtualTask> = Vec::new();
    for (task, start, finish) in entries {
        let energy = {
            let ty = graph.task(task).task_type();
            system
                .tech()
                .impl_of(ty, pe)
                .expect("scheduled task has an implementation on its PE")
                .energy()
        };
        match groups.last_mut() {
            Some(last) if start.value() < last.end.value() - 1e-15 => {
                last.members.push(task);
                last.end = last.end.max(finish);
                last.energy += energy;
            }
            _ => groups.push(VirtualTask { members: vec![task], start, end: finish, energy }),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::ids::{ClId, CommId, ModeId, TaskTypeId};
    use momsynth_model::units::{Cells, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Implementation, OmsmBuilder, Pe, PeKind, TaskGraphBuilder,
        TechLibraryBuilder,
    };
    use momsynth_sched::{ActivityId, ResourceKey, ScheduledTask};

    /// System with 5 independent HW tasks of two types (cores), mirroring
    /// Fig. 5's two-core scenario.
    fn fig5_system() -> System {
        let mut tech = TechLibraryBuilder::new();
        let t0 = tech.add_type("core0");
        let t1 = tech.add_type("core1");
        let mut arch = ArchitectureBuilder::new();
        let _cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        let hw = arch.add_pe(Pe::hardware("hw", PeKind::Asic, Cells::new(1000), Watts::ZERO));
        for (ty, t_ms, p_mw) in [(t0, 2.0, 10.0), (t1, 3.0, 20.0)] {
            tech.set_impl(
                ty,
                hw,
                Implementation::hardware(
                    Seconds::from_millis(t_ms),
                    Watts::from_milli(p_mw),
                    Cells::new(100),
                ),
            );
        }
        let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(100.0));
        for i in 0..5 {
            g.add_task(format!("t{i}"), if i % 2 == 0 { t0 } else { t1 });
        }
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        System::new("fig5", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    /// Hand-built schedule:
    /// core0: t0 @ 0..2, t2 @ 5..7, t4 @ 7..9
    /// core1: t1 @ 1..4, t3 @ 6..9
    /// Overlap groups: {t0,t1}, {t2,t3,t4}.
    fn fig5_schedule() -> Schedule {
        let hw = PeId::new(1);
        let e = |task: usize, ty: usize, inst: usize, start_ms: f64, dur_ms: f64| ScheduledTask {
            task: TaskId::new(task),
            pe: hw,
            resource: ResourceKey::HwCore(hw, TaskTypeId::new(ty), inst),
            start: Seconds::from_millis(start_ms),
            exec_time: Seconds::from_millis(dur_ms),
        };
        let tasks = vec![
            e(0, 0, 0, 0.0, 2.0),
            e(1, 1, 0, 1.0, 3.0),
            e(2, 0, 0, 5.0, 2.0),
            e(3, 1, 0, 6.0, 3.0),
            e(4, 0, 0, 7.0, 2.0),
        ];
        let seqs = vec![
            (
                ResourceKey::HwCore(hw, TaskTypeId::new(0), 0),
                vec![
                    ActivityId::Task(TaskId::new(0)),
                    ActivityId::Task(TaskId::new(2)),
                    ActivityId::Task(TaskId::new(4)),
                ],
            ),
            (
                ResourceKey::HwCore(hw, TaskTypeId::new(1), 0),
                vec![ActivityId::Task(TaskId::new(1)), ActivityId::Task(TaskId::new(3))],
            ),
        ];
        Schedule::from_parts(ModeId::new(0), tasks, vec![], seqs)
    }

    #[test]
    fn overlapping_executions_merge() {
        let sys = fig5_system();
        let groups = virtual_tasks(&sys, &fig5_schedule(), PeId::new(1));
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].members, vec![TaskId::new(0), TaskId::new(1)]);
        assert_eq!(groups[1].members, vec![TaskId::new(2), TaskId::new(3), TaskId::new(4)]);
    }

    #[test]
    fn group_spans_and_energies_accumulate() {
        let sys = fig5_system();
        let groups = virtual_tasks(&sys, &fig5_schedule(), PeId::new(1));
        // Group 0 spans 0..4 ms; energy = 2ms*10mW + 3ms*20mW = 80 uJ.
        assert_eq!(groups[0].start, Seconds::ZERO);
        assert!((groups[0].end.as_millis() - 4.0).abs() < 1e-9);
        assert!((groups[0].energy.as_milli_joules() - 0.08).abs() < 1e-12);
        assert!((groups[0].duration().as_millis() - 4.0).abs() < 1e-9);
        assert!((groups[0].mean_power().as_milli() - 20.0).abs() < 1e-9);
        // Group 1 spans 5..9 ms; energy = 2*10 + 3*20 + 2*10 uJ = 100 uJ.
        assert!((groups[1].start.as_millis() - 5.0).abs() < 1e-9);
        assert!((groups[1].end.as_millis() - 9.0).abs() < 1e-9);
        assert!((groups[1].energy.as_milli_joules() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn back_to_back_executions_stay_separate() {
        // t4 starts exactly when t2 ends on core0 — but t3 (6..9) bridges
        // them; remove t3 and they must split into three groups.
        let sys = fig5_system();
        let hw = PeId::new(1);
        let mk = |task: usize, ty: usize, start_ms: f64, dur_ms: f64| ScheduledTask {
            task: TaskId::new(task),
            pe: hw,
            resource: ResourceKey::HwCore(hw, TaskTypeId::new(ty), 0),
            start: Seconds::from_millis(start_ms),
            exec_time: Seconds::from_millis(dur_ms),
        };
        let tasks = vec![
            mk(0, 0, 0.0, 2.0),
            mk(1, 1, 2.0, 3.0),
            mk(2, 0, 5.0, 2.0),
            mk(3, 1, 20.0, 3.0),
            mk(4, 0, 7.0, 2.0),
        ];
        let s = Schedule::from_parts(ModeId::new(0), tasks, vec![], vec![]);
        let groups = virtual_tasks(&sys, &s, hw);
        assert_eq!(groups.len(), 5);
    }

    #[test]
    fn other_pe_tasks_are_ignored() {
        let sys = fig5_system();
        let groups = virtual_tasks(&sys, &fig5_schedule(), PeId::new(0));
        assert!(groups.is_empty());
    }

    #[test]
    fn groups_are_disjoint_and_ordered() {
        let sys = fig5_system();
        let groups = virtual_tasks(&sys, &fig5_schedule(), PeId::new(1));
        for pair in groups.windows(2) {
            assert!(pair[0].end.value() <= pair[1].start.value() + 1e-15);
        }
    }

    #[test]
    fn zero_duration_mean_power_is_zero() {
        let v = VirtualTask {
            members: vec![],
            start: Seconds::ZERO,
            end: Seconds::ZERO,
            energy: Joules::new(1.0),
        };
        assert_eq!(v.mean_power(), Watts::ZERO);
        let _ = ClId::new(0);
        let _ = CommId::new(0);
    }
}
