//! Per-component energy attribution and battery-life estimation.
//!
//! While [`PowerReport`] answers *how much* power an
//! implementation draws, the breakdown answers *where*: probability-
//! weighted average power per processing element and per link, split into
//! dynamic and static shares. This is the view a designer uses to decide
//! which component to attack next — and the battery-life estimator turns
//! the abstract milliwatts into the prolonged operation time the paper's
//! introduction motivates.

use serde::{Deserialize, Serialize};

use momsynth_model::ids::{ClId, PeId};
use momsynth_model::units::{Joules, Seconds, Watts};
use momsynth_model::System;

use crate::report::{ModeImplementation, PowerReport};

/// A hardware component: a PE or a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ComponentId {
    /// A processing element.
    Pe(PeId),
    /// A communication link.
    Cl(ClId),
}

impl std::fmt::Display for ComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Pe(pe) => write!(f, "{pe}"),
            Self::Cl(cl) => write!(f, "{cl}"),
        }
    }
}

/// Probability-weighted average power of one component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentPower {
    /// The component.
    pub component: ComponentId,
    /// Average dynamic power attributed to activities on this component.
    pub dynamic: Watts,
    /// Average static power (zero while the component is shut down).
    pub static_power: Watts,
}

impl ComponentPower {
    /// Total average power of the component.
    pub fn total(&self) -> Watts {
        self.dynamic + self.static_power
    }
}

/// A per-component view of an implementation's average power.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    components: Vec<ComponentPower>,
}

impl EnergyBreakdown {
    /// All components in architecture order (PEs first, then links).
    pub fn components(&self) -> &[ComponentPower] {
        &self.components
    }

    /// Components sorted by descending total power — the designer's
    /// hit list.
    pub fn top_consumers(&self) -> Vec<&ComponentPower> {
        let mut v: Vec<&ComponentPower> = self.components.iter().collect();
        v.sort_by(|a, b| b.total().value().total_cmp(&a.total().value()));
        v
    }

    /// Sum over all components; equals the report's average power.
    pub fn total(&self) -> Watts {
        self.components.iter().map(ComponentPower::total).sum()
    }

    /// Renders a table with component names.
    pub fn to_table_string(&self, system: &System) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>12} {:>12} {:>12}\n",
            "component", "dyn [mW]", "stat [mW]", "total [mW]"
        ));
        for c in self.top_consumers() {
            let name = match c.component {
                ComponentId::Pe(pe) => system.arch().pe(pe).name().to_owned(),
                ComponentId::Cl(cl) => system.arch().cl(cl).name().to_owned(),
            };
            out.push_str(&format!(
                "{:<16} {:>12.4} {:>12.4} {:>12.4}\n",
                name,
                c.dynamic.as_milli(),
                c.static_power.as_milli(),
                c.total().as_milli()
            ));
        }
        out
    }
}

/// Attributes the probability-weighted average power of an implementation
/// to its components.
///
/// # Panics
///
/// Panics under the same conditions as
/// [`power_report`](crate::power_report): implementations must cover every
/// mode in order.
pub fn energy_breakdown(
    system: &System,
    implementations: &[ModeImplementation<'_>],
) -> EnergyBreakdown {
    let mode_count = system.omsm().mode_count();
    assert_eq!(implementations.len(), mode_count, "one implementation per mode");

    let pe_count = system.arch().pe_count();
    let cl_count = system.arch().cl_count();
    let mut dynamic = vec![Watts::ZERO; pe_count + cl_count];
    let mut static_power = vec![Watts::ZERO; pe_count + cl_count];

    for (i, imp) in implementations.iter().enumerate() {
        let schedule = imp.schedule;
        assert_eq!(schedule.mode().index(), i, "implementations in mode order");
        let mode = schedule.mode();
        let graph = system.omsm().mode(mode).graph();
        let weight = system.omsm().mode(mode).probability();
        let period = graph.period();

        for entry in schedule.tasks() {
            let imp_entry = system
                .tech()
                .impl_of(graph.task(entry.task).task_type(), entry.pe)
                .expect("scheduled task has an implementation");
            let factor = imp.energy_factors.map(|f| f[entry.task.index()]).unwrap_or(1.0);
            let energy: Joules = imp_entry.energy() * factor;
            dynamic[entry.pe.index()] += (energy / period) * weight;
        }
        for comm in schedule.remote_comms() {
            let cl = system.arch().cl(comm.cl);
            let energy: Joules = cl.transfer_power() * comm.duration;
            dynamic[pe_count + comm.cl.index()] += (energy / period) * weight;
        }

        // Static power of powered components, weighted by Ψ.
        let mut active_pes: Vec<PeId> = schedule.tasks().map(|t| t.pe).collect();
        active_pes.sort_unstable();
        active_pes.dedup();
        for pe in active_pes {
            static_power[pe.index()] += system.arch().pe(pe).static_power() * weight;
        }
        let mut active_cls: Vec<ClId> = schedule.remote_comms().map(|c| c.cl).collect();
        active_cls.sort_unstable();
        active_cls.dedup();
        for cl in active_cls {
            static_power[pe_count + cl.index()] += system.arch().cl(cl).static_power() * weight;
        }
    }

    let components = (0..pe_count)
        .map(|i| ComponentPower {
            component: ComponentId::Pe(PeId::new(i)),
            dynamic: dynamic[i],
            static_power: static_power[i],
        })
        .chain((0..cl_count).map(|i| ComponentPower {
            component: ComponentId::Cl(ClId::new(i)),
            dynamic: dynamic[pe_count + i],
            static_power: static_power[pe_count + i],
        }))
        .collect();
    EnergyBreakdown { components }
}

/// Energy stored in a battery of `capacity_mah` at `voltage` — the usual
/// datasheet parameters.
pub fn battery_energy(capacity_mah: f64, voltage: momsynth_model::units::Volts) -> Joules {
    Joules::new(capacity_mah / 1000.0 * 3600.0 * voltage.value())
}

/// Expected operation time of an implementation on the given stored
/// energy: `capacity / p̄`.
///
/// Returns an infinite duration for a zero-power report.
pub fn battery_lifetime(report: &PowerReport, capacity: Joules) -> Seconds {
    if report.average.value() <= 0.0 {
        return Seconds::new(f64::INFINITY);
    }
    capacity / report.average
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{power_report, ModeImplementation};
    use momsynth_model::ids::{ModeId, TaskId};
    use momsynth_model::units::{Cells, Volts};
    use momsynth_model::{
        ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, TaskGraphBuilder,
        TechLibraryBuilder,
    };
    use momsynth_sched::{schedule_mode, CoreAllocation, SchedulerOptions, SystemMapping};

    fn testbed() -> System {
        let mut tech = TechLibraryBuilder::new();
        let ta = tech.add_type("A");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(2.0)));
        let hw =
            arch.add_pe(Pe::hardware("hw", PeKind::Asic, Cells::new(100), Watts::from_milli(1.0)));
        arch.add_cl(Cl::bus(
            "bus",
            vec![cpu, hw],
            Seconds::from_micros(10.0),
            Watts::from_milli(5.0),
            Watts::from_milli(0.5),
        ))
        .unwrap();
        tech.set_impl(
            ta,
            cpu,
            Implementation::software(Seconds::from_millis(10.0), Watts::from_milli(100.0)),
        );
        tech.set_impl(
            ta,
            hw,
            Implementation::hardware(
                Seconds::from_millis(1.0),
                Watts::from_milli(10.0),
                Cells::new(50),
            ),
        );
        let mk = |name: &str| {
            let mut g = TaskGraphBuilder::new(name, Seconds::from_millis(100.0));
            let a = g.add_task("a", ta);
            let b = g.add_task("b", ta);
            g.add_comm(a, b, 100.0).unwrap();
            g.build().unwrap()
        };
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m0", 0.25, mk("m0"));
        omsm.add_mode("m1", 0.75, mk("m1"));
        System::new("s", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    fn implementations(system: &System, mapping: &SystemMapping) -> Vec<momsynth_sched::Schedule> {
        let alloc = CoreAllocation::minimal(system, mapping);
        system
            .omsm()
            .mode_ids()
            .map(|m| {
                schedule_mode(system, m, mapping, &alloc, SchedulerOptions::default()).unwrap()
            })
            .collect()
    }

    #[test]
    fn breakdown_total_matches_report_average() {
        let system = testbed();
        let mut mapping = SystemMapping::from_fn(&system, |_| momsynth_model::ids::PeId::new(0));
        mapping.set(ModeId::new(0), TaskId::new(1), momsynth_model::ids::PeId::new(1));
        let schedules = implementations(&system, &mapping);
        let imps: Vec<ModeImplementation> =
            schedules.iter().map(ModeImplementation::nominal).collect();
        let report = power_report(&system, &imps);
        let breakdown = energy_breakdown(&system, &imps);
        assert!((breakdown.total().value() - report.average.value()).abs() < 1e-12);
        assert_eq!(breakdown.components().len(), 3);
    }

    #[test]
    fn dynamic_power_is_attributed_to_the_executing_component() {
        let system = testbed();
        // Everything on the CPU: the ASIC and bus must be fully idle.
        let mapping = SystemMapping::from_fn(&system, |_| momsynth_model::ids::PeId::new(0));
        let schedules = implementations(&system, &mapping);
        let imps: Vec<ModeImplementation> =
            schedules.iter().map(ModeImplementation::nominal).collect();
        let breakdown = energy_breakdown(&system, &imps);
        let hw = &breakdown.components()[1];
        let bus = &breakdown.components()[2];
        assert_eq!(hw.total(), Watts::ZERO);
        assert_eq!(bus.total(), Watts::ZERO);
        // CPU carries everything: 2 tasks x 1 mWs / 100 ms = 20 mW + 2 static.
        let cpu = &breakdown.components()[0];
        assert!((cpu.dynamic.as_milli() - 20.0).abs() < 1e-9);
        assert!((cpu.static_power.as_milli() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn shutdown_scales_static_share_by_probability() {
        let system = testbed();
        // HW used only in mode 0 (Ψ = 0.25).
        let mut mapping = SystemMapping::from_fn(&system, |_| momsynth_model::ids::PeId::new(0));
        mapping.set(ModeId::new(0), TaskId::new(1), momsynth_model::ids::PeId::new(1));
        let schedules = implementations(&system, &mapping);
        let imps: Vec<ModeImplementation> =
            schedules.iter().map(ModeImplementation::nominal).collect();
        let breakdown = energy_breakdown(&system, &imps);
        let hw = &breakdown.components()[1];
        assert!((hw.static_power.as_milli() - 0.25).abs() < 1e-9); // 1 mW x 0.25
    }

    #[test]
    fn top_consumers_are_sorted_descending() {
        let system = testbed();
        let mapping = SystemMapping::from_fn(&system, |_| momsynth_model::ids::PeId::new(0));
        let schedules = implementations(&system, &mapping);
        let imps: Vec<ModeImplementation> =
            schedules.iter().map(ModeImplementation::nominal).collect();
        let breakdown = energy_breakdown(&system, &imps);
        let top = breakdown.top_consumers();
        for pair in top.windows(2) {
            assert!(pair[0].total() >= pair[1].total());
        }
        let table = breakdown.to_table_string(&system);
        assert!(table.contains("cpu"));
        assert!(table.contains("total [mW]"));
    }

    #[test]
    fn battery_math() {
        // 1000 mAh at 3.7 V = 13320 J; at 10 mW that's 1332000 s.
        let capacity = battery_energy(1000.0, Volts::new(3.7));
        assert!((capacity.value() - 13_320.0).abs() < 1e-9);
        let report = PowerReport { modes: vec![], average: Watts::from_milli(10.0) };
        let life = battery_lifetime(&report, capacity);
        assert!((life.value() - 1_332_000.0).abs() < 1e-6);
        // Zero power -> infinite life.
        let idle = PowerReport { modes: vec![], average: Watts::ZERO };
        assert!(battery_lifetime(&idle, capacity).value().is_infinite());
    }

    #[test]
    fn serde_round_trip() {
        let system = testbed();
        let mapping = SystemMapping::from_fn(&system, |_| momsynth_model::ids::PeId::new(0));
        let schedules = implementations(&system, &mapping);
        let imps: Vec<ModeImplementation> =
            schedules.iter().map(ModeImplementation::nominal).collect();
        let breakdown = energy_breakdown(&system, &imps);
        let json = serde_json::to_string(&breakdown).unwrap();
        assert_eq!(serde_json::from_str::<EnergyBreakdown>(&json).unwrap(), breakdown);
    }
}
