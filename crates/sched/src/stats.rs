//! Schedule statistics: per-resource utilisation and slack summaries.
//!
//! These figures drive the intuition behind the paper's DVS results —
//! utilisation far below one means slack, and slack is what PV-DVS
//! converts into voltage reduction.

use serde::{Deserialize, Serialize};

use momsynth_model::ids::ModeId;
use momsynth_model::units::Seconds;
use momsynth_model::System;

use crate::schedule::{ActivityId, ResourceKey, Schedule};

/// Busy/idle accounting of one resource over the mode's hyper-period.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceStats {
    /// The resource.
    pub resource: ResourceKey,
    /// Number of activities executed.
    pub activities: usize,
    /// Total busy time.
    pub busy: Seconds,
    /// Busy time divided by the hyper-period, in `[0, 1]` for feasible
    /// schedules.
    pub utilization: f64,
}

/// Statistics of a whole mode schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleStats {
    /// The mode.
    pub mode: ModeId,
    /// The mode's hyper-period.
    pub period: Seconds,
    /// Time the last activity finishes.
    pub makespan: Seconds,
    /// `1 − makespan/period`: the fraction of the period left after the
    /// last activity — an upper bound on trailing DVS slack.
    pub trailing_slack_fraction: f64,
    /// Per-resource accounting, in resource order.
    pub resources: Vec<ResourceStats>,
}

impl ScheduleStats {
    /// Mean utilisation over all resources (0 for an empty schedule).
    pub fn mean_utilization(&self) -> f64 {
        if self.resources.is_empty() {
            return 0.0;
        }
        self.resources.iter().map(|r| r.utilization).sum::<f64>() / self.resources.len() as f64
    }

    /// The busiest resource — the bottleneck the mapping should attack.
    pub fn bottleneck(&self) -> Option<&ResourceStats> {
        self.resources.iter().max_by(|a, b| a.utilization.total_cmp(&b.utilization))
    }
}

/// Computes busy/idle statistics of `schedule`.
///
/// # Panics
///
/// Panics if `schedule` does not belong to a mode of `system`.
pub fn schedule_stats(system: &System, schedule: &Schedule) -> ScheduleStats {
    let graph = system.omsm().mode(schedule.mode()).graph();
    let period = graph.period();
    let resources = schedule
        .sequences()
        .iter()
        .map(|(resource, acts)| {
            let busy: Seconds = acts
                .iter()
                .map(|act| match act {
                    ActivityId::Task(t) => schedule.task(*t).exec_time,
                    ActivityId::Comm(c) => {
                        schedule.comm(*c).expect("sequenced comm is remote").duration
                    }
                })
                .sum();
            ResourceStats {
                resource: *resource,
                activities: acts.len(),
                busy,
                utilization: busy / period,
            }
        })
        .collect();
    let makespan = schedule.makespan();
    ScheduleStats {
        mode: schedule.mode(),
        period,
        makespan,
        trailing_slack_fraction: (1.0 - makespan / period).max(0.0),
        resources,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{schedule_mode, SchedulerOptions};
    use crate::mapping::{CoreAllocation, SystemMapping};
    use momsynth_model::ids::{PeId, TaskTypeId};
    use momsynth_model::units::{Cells, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, TaskGraphBuilder,
        TechLibraryBuilder,
    };

    /// One CPU + one ASIC; a -> b chain where b can go to hardware.
    fn testbed() -> System {
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        let hw = arch.add_pe(Pe::hardware("hw", PeKind::Asic, Cells::new(100), Watts::ZERO));
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
                Seconds::from_millis(2.0),
                Watts::from_micro(10.0),
                Cells::new(50),
            ),
        );
        let mut g = TaskGraphBuilder::new("g", Seconds::from_millis(50.0));
        let a = g.add_task("a", tx);
        let b = g.add_task("b", tx);
        g.add_comm(a, b, 100.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        System::new("t", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    fn stats_for(system: &System, mapping: &SystemMapping) -> ScheduleStats {
        let alloc = CoreAllocation::minimal(system, mapping);
        let schedule = schedule_mode(
            system,
            momsynth_model::ids::ModeId::new(0),
            mapping,
            &alloc,
            SchedulerOptions::default(),
        )
        .unwrap();
        schedule_stats(system, &schedule)
    }

    #[test]
    fn single_cpu_utilization_and_slack() {
        let system = testbed();
        let mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
        let stats = stats_for(&system, &mapping);
        // 20 ms of work in a 50 ms period on one resource.
        assert_eq!(stats.resources.len(), 1);
        assert!((stats.resources[0].utilization - 0.4).abs() < 1e-9);
        assert_eq!(stats.resources[0].activities, 2);
        assert!((stats.trailing_slack_fraction - 0.6).abs() < 1e-9);
        assert!((stats.mean_utilization() - 0.4).abs() < 1e-9);
        assert_eq!(stats.bottleneck().unwrap().resource, ResourceKey::SwPe(PeId::new(0)));
    }

    #[test]
    fn split_mapping_accounts_bus_and_core() {
        let system = testbed();
        let mapping = SystemMapping::from_vecs(vec![vec![PeId::new(0), PeId::new(1)]]);
        let stats = stats_for(&system, &mapping);
        assert_eq!(stats.resources.len(), 3); // cpu, core, bus
        let bus = stats
            .resources
            .iter()
            .find(|r| matches!(r.resource, ResourceKey::Link(_)))
            .expect("bus accounted");
        assert!((bus.busy.as_millis() - 1.0).abs() < 1e-9);
        assert_eq!(bus.activities, 1);
        let core = stats
            .resources
            .iter()
            .find(
                |r| matches!(r.resource, ResourceKey::HwCore(_, ty, _) if ty == TaskTypeId::new(0)),
            )
            .expect("core accounted");
        assert!((core.busy.as_millis() - 2.0).abs() < 1e-9);
        // CPU remains the bottleneck (10 ms of 50 ms).
        assert_eq!(stats.bottleneck().unwrap().resource, ResourceKey::SwPe(PeId::new(0)));
        // Makespan = 10 + 1 + 2 = 13 ms.
        assert!((stats.makespan.as_millis() - 13.0).abs() < 1e-9);
    }

    #[test]
    fn serde_round_trip() {
        let system = testbed();
        let mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
        let stats = stats_for(&system, &mapping);
        let json = serde_json::to_string(&stats).unwrap();
        assert_eq!(serde_json::from_str::<ScheduleStats>(&json).unwrap(), stats);
    }
}
