//! The complete co-synthesis problem instance.
//!
//! A [`System`] bundles the functional specification ([`Omsm`]), the
//! allocated target architecture ([`Architecture`]) and the technology
//! library ([`TechLibrary`]), and performs the cross-validation that none
//! of the three can do alone: every task type used by any mode must have at
//! least one implementation on an existing PE, implementation rows must
//! reference valid PEs, and execution characteristics must be physically
//! meaningful.
//!
//! # Examples
//!
//! See [`crate`]-level documentation for a complete worked example.

use serde::{Deserialize, Serialize};

use crate::arch::Architecture;
use crate::error::ModelError;
use crate::ids::{GlobalTaskId, ModeId, PeId, TaskId, TaskTypeId};
use crate::omsm::Omsm;
use crate::tech::TechLibrary;
use crate::units::Cells;
use crate::wire;

/// A validated co-synthesis problem instance.
///
/// A deserialised system is assembled through [`System::new`] from parts
/// that each load through their own builder, so a spec read from JSON
/// passes every check a spec built in code does.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct System {
    name: String,
    omsm: Omsm,
    arch: Architecture,
    tech: TechLibrary,
}

impl<'de> Deserialize<'de> for System {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let wire::System { name, omsm, arch, tech } = Deserialize::from_value(value)?;
        Self::new(name, omsm, arch, tech).map_err(serde::Error::custom)
    }
}

impl System {
    /// Assembles and cross-validates a system.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownTaskType`] if a task references a type
    /// missing from the library, [`ModelError::UnknownPe`] if an
    /// implementation references a PE outside the architecture,
    /// [`ModelError::InvalidImplementation`] for non-positive execution
    /// times, negative powers, area on software PEs or missing area on
    /// hardware PEs, [`ModelError::UnimplementableType`] if a used type
    /// has no implementation at all, and [`ModelError::Unreachable`] if a
    /// communication edge has no connected candidate PE pair (a fully
    /// disconnected architecture).
    pub fn new(
        name: impl Into<String>,
        omsm: Omsm,
        arch: Architecture,
        tech: TechLibrary,
    ) -> Result<Self, ModelError> {
        // Implementation rows must reference valid PEs and be physically
        // meaningful.
        for ty in tech.type_ids() {
            for (pe, imp) in tech.impls_of(ty) {
                if pe.index() >= arch.pe_count() {
                    return Err(ModelError::UnknownPe { pe });
                }
                let invalid = |reason: &str| ModelError::InvalidImplementation {
                    task_type: ty,
                    pe,
                    reason: reason.to_owned(),
                };
                if !(imp.exec_time().value() > 0.0 && imp.exec_time().is_finite()) {
                    return Err(invalid("execution time must be positive"));
                }
                if !(imp.dyn_power().value() >= 0.0 && imp.dyn_power().is_finite()) {
                    return Err(invalid("dynamic power must be non-negative"));
                }
                let kind = arch.pe(pe).kind();
                if kind.is_software() && imp.area() != Cells::ZERO {
                    return Err(invalid("software implementations must not occupy area"));
                }
                if kind.is_hardware() && imp.area() == Cells::ZERO {
                    return Err(invalid("hardware implementations must declare core area"));
                }
            }
        }
        // Every used type must exist and be implementable somewhere.
        for (_, mode) in omsm.modes() {
            for (_, task) in mode.graph().tasks() {
                let ty = task.task_type();
                if !tech.contains_type(ty) {
                    return Err(ModelError::UnknownTaskType { task_type: ty });
                }
                if tech.pes_supporting(ty).next().is_none() {
                    return Err(ModelError::UnimplementableType { task_type: ty });
                }
            }
        }
        // Every communication edge needs at least one connected candidate
        // PE pair, or no mapping can ever route it. (Joint routability of
        // a *complete* mapping is the synthesiser's problem; a single
        // fully disconnected edge is a specification error.)
        for (_, mode) in omsm.modes() {
            let graph = mode.graph();
            for (_, comm) in graph.comms() {
                let src_ty = graph.task(comm.src()).task_type();
                let dst_ty = graph.task(comm.dst()).task_type();
                let routable = tech
                    .pes_supporting(src_ty)
                    .any(|a| tech.pes_supporting(dst_ty).any(|b| arch.connected(a, b)));
                if !routable {
                    return Err(ModelError::Unreachable {
                        from: tech.pes_supporting(src_ty).next().expect("checked above"),
                        to: tech.pes_supporting(dst_ty).next().expect("checked above"),
                    });
                }
            }
        }
        Ok(Self { name: name.into(), omsm, arch, tech })
    }

    /// Returns the system's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the functional specification.
    pub fn omsm(&self) -> &Omsm {
        &self.omsm
    }

    /// Returns the target architecture.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// Returns the technology library.
    pub fn tech(&self) -> &TechLibrary {
        &self.tech
    }

    /// Returns the task type of a globally addressed task.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this system.
    pub fn task_type_of(&self, id: GlobalTaskId) -> TaskTypeId {
        self.omsm.mode(id.mode).graph().task(id.task).task_type()
    }

    /// Returns the PEs able to execute the given task, ascending.
    pub fn candidate_pes(&self, id: GlobalTaskId) -> Vec<PeId> {
        self.tech.pes_supporting(self.task_type_of(id)).collect()
    }

    /// Iterates over all tasks of all modes in `(mode, task)` order.
    pub fn global_tasks(&self) -> impl Iterator<Item = GlobalTaskId> + '_ {
        self.omsm.modes().flat_map(|(mode, m)| {
            m.graph().task_ids().map(move |task| GlobalTaskId::new(mode, task))
        })
    }

    /// Returns the distinct task types shared by two or more modes — the
    /// hardware-sharing opportunities the paper highlights.
    pub fn shared_types(&self) -> Vec<TaskTypeId> {
        let mut counts = vec![0usize; self.tech.type_count()];
        for (_, mode) in self.omsm.modes() {
            for ty in mode.graph().used_types() {
                counts[ty.index()] += 1;
            }
        }
        counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= 2)
            .map(|(i, _)| TaskTypeId::new(i))
            .collect()
    }

    /// Formats a short human-readable summary (modes, tasks, PEs, links).
    pub fn summary(&self) -> String {
        format!(
            "{}: {} modes, {} tasks, {} comms, {} PEs, {} CLs, {} task types",
            self.name,
            self.omsm.mode_count(),
            self.omsm.total_task_count(),
            self.omsm.total_comm_count(),
            self.arch.pe_count(),
            self.arch.cl_count(),
            self.tech.type_count(),
        )
    }
}

/// Convenience handle naming one mode of a system; used pervasively by the
/// scheduling and power layers.
#[derive(Debug, Clone, Copy)]
pub struct ModeRef<'a> {
    system: &'a System,
    mode: ModeId,
}

impl<'a> ModeRef<'a> {
    /// Creates a handle for `mode` of `system`.
    ///
    /// # Panics
    ///
    /// Panics if `mode` does not belong to `system`.
    pub fn new(system: &'a System, mode: ModeId) -> Self {
        assert!(
            mode.index() < system.omsm().mode_count(),
            "mode {mode} out of range for system `{}`",
            system.name()
        );
        Self { system, mode }
    }

    /// Returns the owning system.
    pub fn system(&self) -> &'a System {
        self.system
    }

    /// Returns the mode identifier.
    pub fn id(&self) -> ModeId {
        self.mode
    }

    /// Returns the mode's task graph.
    pub fn graph(&self) -> &'a crate::task_graph::TaskGraph {
        self.system.omsm().mode(self.mode).graph()
    }

    /// Returns the mode's execution probability.
    pub fn probability(&self) -> f64 {
        self.system.omsm().mode(self.mode).probability()
    }

    /// Returns the global identifier of a mode-local task.
    pub fn global(&self, task: TaskId) -> GlobalTaskId {
        GlobalTaskId::new(self.mode, task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{ArchitectureBuilder, Cl, Pe, PeKind};
    use crate::omsm::OmsmBuilder;
    use crate::task_graph::TaskGraphBuilder;
    use crate::tech::{Implementation, TechLibraryBuilder};
    use crate::units::{Seconds, Watts};

    fn build_parts(sw_time: Seconds) -> (Omsm, Architecture, TechLibrary, TaskTypeId, TaskTypeId) {
        let mut tech = TechLibraryBuilder::new();
        let ta = tech.add_type("A");
        let tb = tech.add_type("B");

        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(0.1)));
        let asic = arch.add_pe(Pe::hardware(
            "asic",
            PeKind::Asic,
            Cells::new(600),
            Watts::from_milli(0.05),
        ));
        arch.add_cl(Cl::bus(
            "bus",
            vec![cpu, asic],
            Seconds::from_micros(1.0),
            Watts::from_milli(1.0),
            Watts::from_milli(0.01),
        ))
        .unwrap();

        tech.set_impl(ta, cpu, Implementation::software(sw_time, Watts::from_milli(500.0)));
        tech.set_impl(
            ta,
            asic,
            Implementation::hardware(
                Seconds::from_millis(2.0),
                Watts::from_milli(5.0),
                Cells::new(240),
            ),
        );
        tech.set_impl(tb, cpu, Implementation::software(sw_time, Watts::from_milli(700.0)));

        let mut g0 = TaskGraphBuilder::new("m0", Seconds::from_millis(100.0));
        let t0 = g0.add_task("x", ta);
        let t1 = g0.add_task("y", tb);
        g0.add_comm(t0, t1, 64.0).unwrap();
        let mut g1 = TaskGraphBuilder::new("m1", Seconds::from_millis(100.0));
        g1.add_task("z", ta);

        let mut omsm = OmsmBuilder::new();
        let m0 = omsm.add_mode("m0", 0.4, g0.build().unwrap());
        let m1 = omsm.add_mode("m1", 0.6, g1.build().unwrap());
        omsm.add_transition(m0, m1, Seconds::from_millis(10.0)).unwrap();

        (omsm.build().unwrap(), arch.build().unwrap(), tech.build(), ta, tb)
    }

    fn sample_system() -> System {
        let (omsm, arch, tech, ..) = build_parts(Seconds::from_millis(20.0));
        System::new("sample", omsm, arch, tech).unwrap()
    }

    #[test]
    fn valid_system_builds_and_summarises() {
        let sys = sample_system();
        assert_eq!(sys.name(), "sample");
        let s = sys.summary();
        assert!(s.contains("2 modes"));
        assert!(s.contains("3 tasks"));
        assert!(s.contains("2 PEs"));
    }

    #[test]
    fn global_tasks_enumerates_all_modes() {
        let sys = sample_system();
        let all: Vec<_> = sys.global_tasks().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0], GlobalTaskId::new(ModeId::new(0), TaskId::new(0)));
        assert_eq!(all[2], GlobalTaskId::new(ModeId::new(1), TaskId::new(0)));
    }

    #[test]
    fn candidate_pes_follow_library_support() {
        let sys = sample_system();
        let g0t0 = GlobalTaskId::new(ModeId::new(0), TaskId::new(0)); // type A
        let g0t1 = GlobalTaskId::new(ModeId::new(0), TaskId::new(1)); // type B
        assert_eq!(sys.candidate_pes(g0t0), vec![PeId::new(0), PeId::new(1)]);
        assert_eq!(sys.candidate_pes(g0t1), vec![PeId::new(0)]);
    }

    #[test]
    fn shared_types_are_detected() {
        let sys = sample_system();
        // Type A appears in both modes; type B only in mode 0.
        assert_eq!(sys.shared_types(), vec![TaskTypeId::new(0)]);
    }

    #[test]
    fn rejects_unimplementable_or_unknown_types() {
        let (omsm, arch, ..) = build_parts(Seconds::from_millis(20.0));
        // Library without any types: tasks reference unknown types.
        let empty = TechLibraryBuilder::new().build();
        assert!(matches!(
            System::new("bad", omsm.clone(), arch.clone(), empty),
            Err(ModelError::UnknownTaskType { .. })
        ));
        // Library with the types declared but no implementations.
        let mut b = TechLibraryBuilder::new();
        b.add_type("A");
        b.add_type("B");
        assert!(matches!(
            System::new("bad", omsm, arch, b.build()),
            Err(ModelError::UnimplementableType { .. })
        ));
    }

    #[test]
    fn rejects_invalid_execution_time() {
        let (omsm, arch, ..) = build_parts(Seconds::ZERO);
        let (_, _, tech, ..) = build_parts(Seconds::ZERO);
        assert!(matches!(
            System::new("bad", omsm, arch, tech),
            Err(ModelError::InvalidImplementation { .. })
        ));
    }

    #[test]
    fn rejects_impl_on_unknown_pe() {
        let (omsm, arch, _, ta, _) = build_parts(Seconds::from_millis(20.0));
        let mut tech = TechLibraryBuilder::new();
        let a2 = tech.add_type("A");
        tech.add_type("B");
        assert_eq!(a2, ta);
        tech.set_impl(a2, PeId::new(9), Implementation::software(Seconds::new(1.0), Watts::ZERO));
        assert!(matches!(
            System::new("bad", omsm, arch, tech.build()),
            Err(ModelError::UnknownPe { .. })
        ));
    }

    #[test]
    fn rejects_area_on_software_pe_and_missing_area_on_hardware() {
        let (omsm, arch, _, ta, tb) = build_parts(Seconds::from_millis(20.0));
        // Area on software PE.
        let mut tech = TechLibraryBuilder::new();
        let a2 = tech.add_type("A");
        let b2 = tech.add_type("B");
        assert_eq!((a2, b2), (ta, tb));
        tech.set_impl(
            a2,
            PeId::new(0),
            Implementation::hardware(Seconds::new(1.0), Watts::ZERO, Cells::new(10)),
        );
        tech.set_impl(b2, PeId::new(0), Implementation::software(Seconds::new(1.0), Watts::ZERO));
        assert!(matches!(
            System::new("bad", omsm.clone(), arch.clone(), tech.build()),
            Err(ModelError::InvalidImplementation { .. })
        ));
        // Missing area on hardware PE.
        let mut tech = TechLibraryBuilder::new();
        let a3 = tech.add_type("A");
        let b3 = tech.add_type("B");
        tech.set_impl(a3, PeId::new(1), Implementation::software(Seconds::new(1.0), Watts::ZERO));
        tech.set_impl(b3, PeId::new(0), Implementation::software(Seconds::new(1.0), Watts::ZERO));
        assert!(matches!(
            System::new("bad", omsm, arch, tech.build()),
            Err(ModelError::InvalidImplementation { .. })
        ));
    }

    #[test]
    fn rejects_edges_with_no_connected_candidate_pair() {
        // cpu0 and asic1 share a bus; cpu2 is isolated. An edge between a
        // type pinned to cpu0 and a type pinned to cpu2 can never route.
        let mut tech = TechLibraryBuilder::new();
        let ta = tech.add_type("A");
        let tc = tech.add_type("C");
        let mut arch = ArchitectureBuilder::new();
        let cpu0 = arch.add_pe(Pe::software("cpu0", PeKind::Gpp, Watts::from_milli(0.1)));
        let asic1 = arch.add_pe(Pe::hardware(
            "asic1",
            PeKind::Asic,
            Cells::new(600),
            Watts::from_milli(0.05),
        ));
        let cpu2 = arch.add_pe(Pe::software("cpu2", PeKind::Gpp, Watts::from_milli(0.1)));
        arch.add_cl(Cl::bus(
            "bus",
            vec![cpu0, asic1],
            Seconds::from_micros(1.0),
            Watts::from_milli(1.0),
            Watts::from_milli(0.01),
        ))
        .unwrap();
        tech.set_impl(
            ta,
            cpu0,
            Implementation::software(Seconds::from_millis(1.0), Watts::from_milli(10.0)),
        );
        tech.set_impl(
            tc,
            cpu2,
            Implementation::software(Seconds::from_millis(1.0), Watts::from_milli(10.0)),
        );
        let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(100.0));
        let x = g.add_task("x", ta);
        let w = g.add_task("w", tc);
        g.add_comm(x, w, 8.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let err = System::new("split", omsm.build().unwrap(), arch.build().unwrap(), tech.build())
            .unwrap_err();
        match err {
            ModelError::Unreachable { from, to } => {
                assert_eq!(from, cpu0);
                assert_eq!(to, cpu2);
            }
            other => panic!("expected Unreachable, got {other:?}"),
        }
    }

    #[test]
    fn accepts_self_communication_without_any_cl() {
        // Both endpoints can land on the same PE: no CL is required.
        let mut tech = TechLibraryBuilder::new();
        let ta = tech.add_type("A");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(0.1)));
        tech.set_impl(
            ta,
            cpu,
            Implementation::software(Seconds::from_millis(1.0), Watts::from_milli(10.0)),
        );
        let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(100.0));
        let x = g.add_task("x", ta);
        let y = g.add_task("y", ta);
        g.add_comm(x, y, 8.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        assert!(
            System::new("solo", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).is_ok()
        );
    }

    #[test]
    fn mode_ref_accessors() {
        let sys = sample_system();
        let m0 = ModeRef::new(&sys, ModeId::new(0));
        assert_eq!(m0.id(), ModeId::new(0));
        assert!((m0.probability() - 0.4).abs() < 1e-12);
        assert_eq!(m0.graph().task_count(), 2);
        assert_eq!(m0.global(TaskId::new(1)), GlobalTaskId::new(ModeId::new(0), TaskId::new(1)));
        assert!(std::ptr::eq(m0.system(), &sys));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mode_ref_rejects_out_of_range_mode() {
        let sys = sample_system();
        let _ = ModeRef::new(&sys, ModeId::new(9));
    }

    #[test]
    fn serde_round_trip_preserves_system() {
        let sys = sample_system();
        let json = serde_json::to_string(&sys).unwrap();
        let back: System = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sys);
    }
}
