//! Structural validation of schedules against their specification.
//!
//! [`validate_schedule`] re-checks everything the list scheduler
//! guarantees by construction — useful for schedules produced by other
//! tools, hand-written schedules in tests, and as an oracle for
//! property-based testing of scheduler changes.

use std::collections::BTreeMap;
use std::fmt;

use momsynth_model::ids::{CommId, TaskId};
use momsynth_model::units::Seconds;
use momsynth_model::System;

use crate::mapping::{CoreAllocation, SystemMapping};
use crate::schedule::{ActivityId, ResourceKey, Schedule};

/// A violation found by [`validate_schedule`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScheduleViolation {
    /// A task starts before its input data arrives.
    PrecedenceViolated {
        /// The communication edge involved.
        comm: CommId,
        /// The producing task.
        src: TaskId,
        /// The consuming task.
        dst: TaskId,
    },
    /// Two activities overlap on the same sequential resource.
    ResourceOverlap {
        /// The contended resource.
        resource: ResourceKey,
        /// The activity that starts too early.
        second: ActivityId,
    },
    /// A task executes on a PE other than its mapping says.
    MappingMismatch {
        /// The offending task.
        task: TaskId,
    },
    /// A task's resource does not belong to its PE.
    ForeignResource {
        /// The offending task.
        task: TaskId,
    },
    /// A hardware task uses a core instance beyond the allocation.
    UnallocatedCore {
        /// The offending task.
        task: TaskId,
        /// The core instance index used.
        instance: usize,
        /// Instances actually allocated.
        allocated: usize,
    },
    /// A remote communication is routed over a link that does not connect
    /// the two PEs.
    BadRoute {
        /// The offending communication.
        comm: CommId,
    },
    /// A communication between co-located tasks is scheduled on a link
    /// (local transfers must be free), or a remote one is missing.
    WrongLocality {
        /// The offending communication.
        comm: CommId,
    },
    /// An activity has a negative start time or non-finite timing.
    InvalidTiming {
        /// The offending activity.
        activity: ActivityId,
    },
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::PrecedenceViolated { comm, src, dst } => {
                write!(f, "precedence violated on {comm}: {src} -> {dst}")
            }
            Self::ResourceOverlap { resource, second } => {
                write!(f, "overlap on {resource:?} at {second:?}")
            }
            Self::MappingMismatch { task } => {
                write!(f, "task {task} executes on a PE other than its mapping")
            }
            Self::ForeignResource { task } => {
                write!(f, "task {task} occupies a resource of another PE")
            }
            Self::UnallocatedCore { task, instance, allocated } => write!(
                f,
                "task {task} uses core instance {instance} but only {allocated} allocated"
            ),
            Self::BadRoute { comm } => {
                write!(f, "communication {comm} routed over a non-connecting link")
            }
            Self::WrongLocality { comm } => {
                write!(f, "communication {comm} has wrong local/remote classification")
            }
            Self::InvalidTiming { activity } => {
                write!(f, "activity {activity:?} has invalid timing")
            }
        }
    }
}

const EPS: f64 = 1e-12;

/// Checks `schedule` for structural consistency with the system, mapping
/// and core allocation. Returns all violations found (empty = valid).
/// Timing *feasibility* (deadlines) is a separate concern — see
/// [`Schedule::is_timing_feasible`].
pub fn validate_schedule(
    system: &System,
    mapping: &SystemMapping,
    alloc: &CoreAllocation,
    schedule: &Schedule,
) -> Vec<ScheduleViolation> {
    let mode = schedule.mode();
    let graph = system.omsm().mode(mode).graph();
    let mut violations = Vec::new();

    // Per-task checks: timing sanity, mapping, resource ownership, cores.
    for entry in schedule.tasks() {
        let act = ActivityId::Task(entry.task);
        if !(entry.start.value() >= -EPS
            && entry.start.is_finite()
            && entry.exec_time.value() >= 0.0
            && entry.exec_time.is_finite())
        {
            violations.push(ScheduleViolation::InvalidTiming { activity: act });
        }
        if mapping.pe_of(mode, entry.task) != entry.pe {
            violations.push(ScheduleViolation::MappingMismatch { task: entry.task });
        }
        match entry.resource {
            ResourceKey::SwPe(pe) => {
                if pe != entry.pe || !system.arch().pe(entry.pe).kind().is_software() {
                    violations.push(ScheduleViolation::ForeignResource { task: entry.task });
                }
            }
            ResourceKey::HwCore(pe, ty, instance) => {
                if pe != entry.pe
                    || !system.arch().pe(entry.pe).kind().is_hardware()
                    || ty != graph.task(entry.task).task_type()
                {
                    violations.push(ScheduleViolation::ForeignResource { task: entry.task });
                } else {
                    let allocated = alloc.instances(mode, pe, ty).max(1);
                    if instance >= allocated {
                        violations.push(ScheduleViolation::UnallocatedCore {
                            task: entry.task,
                            instance,
                            allocated,
                        });
                    }
                }
            }
            ResourceKey::Link(_) => {
                violations.push(ScheduleViolation::ForeignResource { task: entry.task });
            }
        }
    }

    // Per-communication checks: locality, routing, precedence.
    for (comm_id, edge) in graph.comms() {
        let src_entry = schedule.task(edge.src());
        let dst_entry = schedule.task(edge.dst());
        let local = src_entry.pe == dst_entry.pe;
        match schedule.comm(comm_id) {
            None => {
                if !local {
                    violations.push(ScheduleViolation::WrongLocality { comm: comm_id });
                } else if dst_entry.start.value() < src_entry.finish().value() - EPS {
                    violations.push(ScheduleViolation::PrecedenceViolated {
                        comm: comm_id,
                        src: edge.src(),
                        dst: edge.dst(),
                    });
                }
            }
            Some(comm) => {
                if local {
                    violations.push(ScheduleViolation::WrongLocality { comm: comm_id });
                    continue;
                }
                if !(comm.start.value() >= -EPS && comm.start.is_finite()) {
                    violations.push(ScheduleViolation::InvalidTiming {
                        activity: ActivityId::Comm(comm_id),
                    });
                }
                let cl = system.arch().cl(comm.cl);
                if !(cl.connects(src_entry.pe) && cl.connects(dst_entry.pe)) {
                    violations.push(ScheduleViolation::BadRoute { comm: comm_id });
                }
                if comm.start.value() < src_entry.finish().value() - EPS
                    || dst_entry.start.value() < comm.finish().value() - EPS
                {
                    violations.push(ScheduleViolation::PrecedenceViolated {
                        comm: comm_id,
                        src: edge.src(),
                        dst: edge.dst(),
                    });
                }
            }
        }
    }

    // Resource exclusivity from actual activity intervals (not only the
    // declared sequences, which could themselves be wrong).
    let mut by_resource: BTreeMap<ResourceKey, Vec<(Seconds, Seconds, ActivityId)>> =
        BTreeMap::new();
    for entry in schedule.tasks() {
        by_resource.entry(entry.resource).or_default().push((
            entry.start,
            entry.finish(),
            ActivityId::Task(entry.task),
        ));
    }
    for comm in schedule.remote_comms() {
        by_resource.entry(ResourceKey::Link(comm.cl)).or_default().push((
            comm.start,
            comm.finish(),
            ActivityId::Comm(comm.comm),
        ));
    }
    for (resource, mut intervals) in by_resource {
        intervals.sort_by(|a, b| a.0.value().total_cmp(&b.0.value()));
        for pair in intervals.windows(2) {
            if pair[1].0.value() < pair[0].1.value() - EPS {
                violations.push(ScheduleViolation::ResourceOverlap { resource, second: pair[1].2 });
            }
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{schedule_mode, SchedulerOptions};
    use crate::schedule::{ScheduledComm, ScheduledTask};
    use momsynth_model::ids::{ModeId, PeId, TaskTypeId};
    use momsynth_model::units::{Cells, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, TaskGraphBuilder,
        TechLibraryBuilder,
    };

    fn testbed() -> System {
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        let hw = arch.add_pe(Pe::hardware("hw", PeKind::Asic, Cells::new(200), Watts::ZERO));
        arch.add_cl(Cl::bus(
            "bus",
            vec![cpu, hw],
            Seconds::from_micros(10.0),
            Watts::ZERO,
            Watts::ZERO,
        ))
        .unwrap();
        tech.set_impl(
            tx,
            cpu,
            Implementation::software(Seconds::from_millis(10.0), Watts::from_milli(1.0)),
        );
        tech.set_impl(
            tx,
            hw,
            Implementation::hardware(
                Seconds::from_millis(1.0),
                Watts::from_micro(10.0),
                Cells::new(100),
            ),
        );
        let mut g = TaskGraphBuilder::new("g", Seconds::from_millis(100.0));
        let a = g.add_task("a", tx);
        let b = g.add_task("b", tx);
        g.add_comm(a, b, 100.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        System::new("t", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    #[test]
    fn scheduler_output_validates_cleanly() {
        let system = testbed();
        for pe_b in [PeId::new(0), PeId::new(1)] {
            let mapping = SystemMapping::from_vecs(vec![vec![PeId::new(0), pe_b]]);
            let alloc = CoreAllocation::minimal(&system, &mapping);
            let schedule = schedule_mode(
                &system,
                ModeId::new(0),
                &mapping,
                &alloc,
                SchedulerOptions::default(),
            )
            .unwrap();
            assert_eq!(validate_schedule(&system, &mapping, &alloc, &schedule), vec![]);
        }
    }

    #[test]
    fn detects_precedence_violation() {
        let system = testbed();
        let mapping = SystemMapping::from_vecs(vec![vec![PeId::new(0), PeId::new(0)]]);
        let alloc = CoreAllocation::minimal(&system, &mapping);
        // Both tasks start at 0 on the same PE.
        let mk = |task: usize, start_ms: f64| ScheduledTask {
            task: TaskId::new(task),
            pe: PeId::new(0),
            resource: ResourceKey::SwPe(PeId::new(0)),
            start: Seconds::from_millis(start_ms),
            exec_time: Seconds::from_millis(10.0),
        };
        let schedule =
            Schedule::from_parts(ModeId::new(0), vec![mk(0, 0.0), mk(1, 0.0)], vec![None], vec![]);
        let violations = validate_schedule(&system, &mapping, &alloc, &schedule);
        assert!(violations
            .iter()
            .any(|v| matches!(v, ScheduleViolation::PrecedenceViolated { .. })));
        assert!(violations.iter().any(|v| matches!(v, ScheduleViolation::ResourceOverlap { .. })));
    }

    #[test]
    fn detects_mapping_mismatch_and_wrong_locality() {
        let system = testbed();
        // Mapping says task 1 on hw, schedule runs it on cpu without a comm.
        let mapping = SystemMapping::from_vecs(vec![vec![PeId::new(0), PeId::new(1)]]);
        let alloc = CoreAllocation::minimal(&system, &mapping);
        let schedule = Schedule::from_parts(
            ModeId::new(0),
            vec![
                ScheduledTask {
                    task: TaskId::new(0),
                    pe: PeId::new(0),
                    resource: ResourceKey::SwPe(PeId::new(0)),
                    start: Seconds::ZERO,
                    exec_time: Seconds::from_millis(10.0),
                },
                ScheduledTask {
                    task: TaskId::new(1),
                    pe: PeId::new(0),
                    resource: ResourceKey::SwPe(PeId::new(0)),
                    start: Seconds::from_millis(10.0),
                    exec_time: Seconds::from_millis(10.0),
                },
            ],
            vec![None],
            vec![],
        );
        let violations = validate_schedule(&system, &mapping, &alloc, &schedule);
        assert!(violations.iter().any(
            |v| matches!(v, ScheduleViolation::MappingMismatch { task } if task.index() == 1)
        ));
    }

    #[test]
    fn detects_unallocated_core_instance() {
        let system = testbed();
        let mapping = SystemMapping::from_vecs(vec![vec![PeId::new(1), PeId::new(1)]]);
        let alloc = CoreAllocation::minimal(&system, &mapping); // one instance
        let mk = |task: usize, inst: usize, start_ms: f64| ScheduledTask {
            task: TaskId::new(task),
            pe: PeId::new(1),
            resource: ResourceKey::HwCore(PeId::new(1), TaskTypeId::new(0), inst),
            start: Seconds::from_millis(start_ms),
            exec_time: Seconds::from_millis(1.0),
        };
        let schedule = Schedule::from_parts(
            ModeId::new(0),
            vec![mk(0, 0, 0.0), mk(1, 1, 1.0)],
            vec![None],
            vec![],
        );
        let violations = validate_schedule(&system, &mapping, &alloc, &schedule);
        assert!(violations
            .iter()
            .any(|v| matches!(v, ScheduleViolation::UnallocatedCore { instance: 1, .. })));
    }

    #[test]
    fn detects_bad_route() {
        // Second bus connects nothing relevant: build arch with two buses
        // where bus 1 only connects (cpu, cpu2).
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        let cpu2 = arch.add_pe(Pe::software("cpu2", PeKind::Gpp, Watts::ZERO));
        let hw = arch.add_pe(Pe::hardware("hw", PeKind::Asic, Cells::new(200), Watts::ZERO));
        arch.add_cl(Cl::bus(
            "bus0",
            vec![cpu, cpu2, hw],
            Seconds::from_micros(10.0),
            Watts::ZERO,
            Watts::ZERO,
        ))
        .unwrap();
        arch.add_cl(Cl::bus(
            "bus1",
            vec![cpu, cpu2],
            Seconds::from_micros(10.0),
            Watts::ZERO,
            Watts::ZERO,
        ))
        .unwrap();
        for pe in [cpu, cpu2] {
            tech.set_impl(
                tx,
                pe,
                Implementation::software(Seconds::from_millis(10.0), Watts::ZERO),
            );
        }
        tech.set_impl(
            tx,
            hw,
            Implementation::hardware(Seconds::from_millis(1.0), Watts::ZERO, Cells::new(100)),
        );
        let mut g = TaskGraphBuilder::new("g", Seconds::from_millis(100.0));
        let a = g.add_task("a", tx);
        let b = g.add_task("b", tx);
        g.add_comm(a, b, 100.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let system =
            System::new("t", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap();

        let mapping = SystemMapping::from_vecs(vec![vec![cpu, hw]]);
        let alloc = CoreAllocation::minimal(&system, &mapping);
        // Route cpu -> hw over bus1, which does not reach hw.
        let schedule = Schedule::from_parts(
            ModeId::new(0),
            vec![
                ScheduledTask {
                    task: TaskId::new(0),
                    pe: cpu,
                    resource: ResourceKey::SwPe(cpu),
                    start: Seconds::ZERO,
                    exec_time: Seconds::from_millis(10.0),
                },
                ScheduledTask {
                    task: TaskId::new(1),
                    pe: hw,
                    resource: ResourceKey::HwCore(hw, TaskTypeId::new(0), 0),
                    start: Seconds::from_millis(12.0),
                    exec_time: Seconds::from_millis(1.0),
                },
            ],
            vec![Some(ScheduledComm {
                comm: CommId::new(0),
                cl: momsynth_model::ids::ClId::new(1),
                start: Seconds::from_millis(10.0),
                duration: Seconds::from_millis(1.0),
            })],
            vec![],
        );
        let violations = validate_schedule(&system, &mapping, &alloc, &schedule);
        assert!(violations.iter().any(|v| matches!(v, ScheduleViolation::BadRoute { .. })));
    }

    #[test]
    fn violation_display_is_informative() {
        let v =
            ScheduleViolation::UnallocatedCore { task: TaskId::new(3), instance: 2, allocated: 1 };
        let text = v.to_string();
        assert!(text.contains("t3") && text.contains('2') && text.contains('1'));
    }
}
