//! Mode-transition timing: FPGA reconfiguration against `t_T^max`.
//!
//! When the system changes from mode `O_x` to `O_y`, every reconfigurable
//! PE must load the cores `O_y` needs that are not already present. The
//! reconfiguration time is the area of those cores times the PE's per-cell
//! reconfiguration time; the transition is feasible when the total stays
//! within the transition's limit. ASIC cores are static and never
//! contribute.

use momsynth_model::ids::{ModeId, PeId, TransitionId};
use momsynth_model::units::{Cells, Seconds};
use momsynth_model::System;
use momsynth_sched::CoreAllocation;

/// The reconfiguration timing of one mode transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionTiming {
    /// The transition.
    pub transition: TransitionId,
    /// Total reconfiguration time over all FPGAs.
    pub time: Seconds,
    /// The specification's limit `t_T^max`.
    pub limit: Seconds,
}

impl TransitionTiming {
    /// Whether the transition meets its limit.
    pub fn is_feasible(&self) -> bool {
        self.time.value() <= self.limit.value() + 1e-12
    }

    /// Overrun ratio `time / limit` (1.0 when exactly at the limit).
    pub fn overrun(&self) -> f64 {
        if self.limit.value() <= 0.0 {
            return f64::INFINITY;
        }
        self.time / self.limit
    }
}

/// Computes the reconfiguration timing of every transition under `alloc`.
pub fn transition_timings(system: &System, alloc: &CoreAllocation) -> Vec<TransitionTiming> {
    let mut timings = Vec::new();
    transition_times(system, &mut timings, |pe, from, to| {
        alloc.reconfig_area(system, pe, from, to)
    });
    timings
}

/// Leaves in `out` the reconfiguration timing of every transition, in
/// transition order: its time sums, FPGA by FPGA in PE order, the FPGA's
/// time per cell times `cells(fpga, from, to)`, the cells of the cores
/// the FPGA loads between the transition's modes.
pub(crate) fn transition_times(
    system: &System,
    out: &mut Vec<TransitionTiming>,
    cells: impl Fn(PeId, ModeId, ModeId) -> Cells,
) {
    out.clear();
    out.extend(system.omsm().transitions().map(|(transition, t)| TransitionTiming {
        transition,
        time: Seconds::ZERO,
        limit: t.max_time(),
    }));
    for (pe, info) in system.arch().pes().filter(|(_, info)| info.kind().is_reconfigurable()) {
        for (timing, (_, t)) in out.iter_mut().zip(system.omsm().transitions()) {
            let area = cells(pe, t.from(), t.to());
            timing.time += info.reconfig_time_per_cell() * area.value() as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::ids::{ModeId, PeId, TaskTypeId};
    use momsynth_model::units::{Cells, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Implementation, OmsmBuilder, Pe, PeKind, TaskGraphBuilder,
        TechLibraryBuilder,
    };
    use momsynth_sched::SystemMapping;

    /// Two modes with disjoint types A/B; both implementable on the FPGA
    /// (200-cell cores) or the CPU. Transition limits given per direction.
    fn sys(reconfig_us_per_cell: f64, limit_ms: f64, kind: PeKind) -> System {
        let mut tech = TechLibraryBuilder::new();
        let ta = tech.add_type("A");
        let tb = tech.add_type("B");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        let hw = arch.add_pe(
            Pe::hardware("hw", kind, Cells::new(400), Watts::ZERO)
                .with_reconfig_time_per_cell(Seconds::from_micros(reconfig_us_per_cell)),
        );
        for ty in [ta, tb] {
            tech.set_impl(ty, cpu, Implementation::software(Seconds::new(0.01), Watts::ZERO));
            tech.set_impl(
                ty,
                hw,
                Implementation::hardware(Seconds::new(0.001), Watts::ZERO, Cells::new(200)),
            );
        }
        let mk = |name: &str, ty| {
            let mut g = TaskGraphBuilder::new(name, Seconds::new(1.0));
            g.add_task("t", ty);
            g.build().unwrap()
        };
        let mut omsm = OmsmBuilder::new();
        let m0 = omsm.add_mode("m0", 0.5, mk("m0", ta));
        let m1 = omsm.add_mode("m1", 0.5, mk("m1", tb));
        omsm.add_transition(m0, m1, Seconds::from_millis(limit_ms)).unwrap();
        omsm.add_transition(m1, m0, Seconds::from_millis(limit_ms)).unwrap();
        System::new("s", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    fn hw_alloc(system: &System) -> CoreAllocation {
        let mapping = SystemMapping::from_fn(system, |_| PeId::new(1));
        CoreAllocation::minimal(system, &mapping)
    }

    #[test]
    fn fpga_reconfiguration_is_charged() {
        // 200 cells at 10 us/cell = 2 ms per direction, limit 5 ms: feasible.
        let system = sys(10.0, 5.0, PeKind::Fpga);
        let timings = transition_timings(&system, &hw_alloc(&system));
        assert_eq!(timings.len(), 2);
        for t in &timings {
            assert!((t.time.as_millis() - 2.0).abs() < 1e-9);
            assert!(t.is_feasible());
            assert!((t.overrun() - 0.4).abs() < 1e-9);
        }
    }

    #[test]
    fn tight_limit_is_violated() {
        // 2 ms reconfiguration against a 1 ms limit.
        let system = sys(10.0, 1.0, PeKind::Fpga);
        let timings = transition_timings(&system, &hw_alloc(&system));
        for t in &timings {
            assert!(!t.is_feasible());
            assert!((t.overrun() - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn asic_never_reconfigures() {
        let system = sys(10.0, 1.0, PeKind::Asic);
        let timings = transition_timings(&system, &hw_alloc(&system));
        for t in &timings {
            assert_eq!(t.time, Seconds::ZERO);
            assert!(t.is_feasible());
        }
    }

    #[test]
    fn shared_cores_avoid_reconfiguration() {
        // Same type in both modes: nothing to reload.
        let system = sys(10.0, 1.0, PeKind::Fpga);
        let mut alloc = CoreAllocation::new(2);
        alloc.set_instances(ModeId::new(0), PeId::new(1), TaskTypeId::new(0), 1);
        alloc.set_instances(ModeId::new(1), PeId::new(1), TaskTypeId::new(0), 1);
        let timings = transition_timings(&system, &alloc);
        for t in &timings {
            assert_eq!(t.time, Seconds::ZERO);
        }
    }

    #[test]
    fn software_only_mapping_transitions_freely() {
        let system = sys(10.0, 1.0, PeKind::Fpga);
        let mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
        let alloc = CoreAllocation::minimal(&system, &mapping);
        let timings = transition_timings(&system, &alloc);
        for t in &timings {
            assert_eq!(t.time, Seconds::ZERO);
            assert!(t.is_feasible());
        }
    }
}
