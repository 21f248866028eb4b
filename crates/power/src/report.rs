//! Probability-weighted power accounting (Equation 1 of the paper).
//!
//! For every mode `O`, the dynamic power is the energy of all activities
//! divided by the mode's hyper-period, and the static power is the sum
//! over all *active* components — PEs executing at least one task and
//! links carrying at least one transfer; everything else is shut down.
//! The system's average power weights each mode by its execution
//! probability:
//!
//! ```text
//! p̄ = Σ_O (p̄_O^dyn + p̄_O^stat) · Ψ_O
//! ```

use serde::{Deserialize, Serialize};

use momsynth_model::ids::{ClId, ModeId, PeId};
use momsynth_model::units::{Joules, Seconds, Watts};
use momsynth_model::System;
use momsynth_sched::{Schedule, ScheduleView};

/// One mode's implementation as seen by the power model: its schedule and,
/// when DVS was applied, the per-task dynamic-energy factors.
#[derive(Debug, Clone, Copy)]
pub struct ModeImplementation<'a> {
    /// The mode's static schedule (possibly voltage-stretched).
    pub schedule: &'a Schedule,
    /// Per-task energy factors from voltage scaling (indexed by task id);
    /// `None` means nominal energy everywhere.
    pub energy_factors: Option<&'a [f64]>,
}

impl<'a> ModeImplementation<'a> {
    /// A fixed-voltage implementation: nominal energies.
    pub fn nominal(schedule: &'a Schedule) -> Self {
        Self { schedule, energy_factors: None }
    }

    /// A voltage-scaled implementation.
    pub fn scaled(schedule: &'a Schedule, energy_factors: &'a [f64]) -> Self {
        Self { schedule, energy_factors: Some(energy_factors) }
    }
}

/// Power breakdown of one mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModePower {
    /// The mode.
    pub mode: ModeId,
    /// Total dynamic task energy per hyper-period.
    pub task_energy: Joules,
    /// Total communication energy per hyper-period.
    pub comm_energy: Joules,
    /// The mode's hyper-period.
    pub period: Seconds,
    /// Average dynamic power (`(task + comm energy) / period`).
    pub dynamic: Watts,
    /// Static power of all powered components.
    pub static_power: Watts,
    /// PEs that cannot be shut down during this mode.
    pub active_pes: Vec<PeId>,
    /// Links that cannot be shut down during this mode.
    pub active_cls: Vec<ClId>,
}

impl ModePower {
    /// Total average power of the mode (`dynamic + static`).
    pub fn total(&self) -> Watts {
        self.dynamic + self.static_power
    }
}

/// System-wide power report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerReport {
    /// Per-mode breakdowns, indexed by mode id.
    pub modes: Vec<ModePower>,
    /// Probability-weighted average power (Equation 1).
    pub average: Watts,
}

impl PowerReport {
    /// Assembles the report from one breakdown per mode under the mode
    /// weights: Eq. 1's weighted sum, accumulated in mode order. Every
    /// report is built here.
    ///
    /// # Panics
    ///
    /// Panics if `modes` and `weights` differ in length or `modes` is not
    /// in mode-id order.
    pub fn from_modes(modes: Vec<ModePower>, weights: &[f64]) -> Self {
        assert_eq!(weights.len(), modes.len(), "one weight per mode");
        for (i, m) in modes.iter().enumerate() {
            assert_eq!(m.mode.index(), i, "implementations in mode order");
        }
        let average: Watts = modes.iter().zip(weights).map(|(m, &w)| m.total() * w).sum();
        Self { modes, average }
    }

    /// Relative reduction of this report's average power versus `other`,
    /// in percent (positive when `self` is lower).
    pub fn reduction_vs(&self, other: &PowerReport) -> f64 {
        if other.average.value() == 0.0 {
            return 0.0;
        }
        (1.0 - self.average / other.average) * 100.0
    }
}

impl std::fmt::Display for PowerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "average power: {:.6} mW", self.average.as_milli())?;
        for m in &self.modes {
            writeln!(
                f,
                "  {}: dyn {:.6} mW + stat {:.6} mW = {:.6} mW  ({} PEs, {} CLs on)",
                m.mode,
                m.dynamic.as_milli(),
                m.static_power.as_milli(),
                m.total().as_milli(),
                m.active_pes.len(),
                m.active_cls.len()
            )?;
        }
        Ok(())
    }
}

/// One mode's Eq. 1 sums, as [`price_mode`] computes them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeSums {
    /// Total dynamic task energy per hyper-period.
    pub task_energy: Joules,
    /// Total communication energy per hyper-period.
    pub comm_energy: Joules,
    /// The mode's hyper-period.
    pub period: Seconds,
    /// Static power of all powered components.
    pub static_power: Watts,
}

impl ModeSums {
    /// Average dynamic power (`(task + comm energy) / period`).
    pub fn dynamic(&self) -> Watts {
        (self.task_energy + self.comm_energy) / self.period
    }

    /// Total average power of the mode (`dynamic + static`), bit for bit
    /// [`ModePower::total`] of the same mode.
    pub fn total(&self) -> Watts {
        self.dynamic() + self.static_power
    }
}

/// The components a mode keeps powered, as flags per PE and per link:
/// the reusable buffer of [`price_mode`], which clears it on entry.
#[derive(Debug, Default)]
pub struct ActiveSet {
    pes: Vec<bool>,
    cls: Vec<bool>,
}

impl ActiveSet {
    /// The powered PEs of the last mode priced, ascending.
    pub fn pes(&self) -> impl Iterator<Item = PeId> + '_ {
        self.pes.iter().enumerate().filter(|&(_, &on)| on).map(|(pe, _)| PeId::new(pe))
    }

    /// The powered links of the last mode priced, ascending.
    pub fn cls(&self) -> impl Iterator<Item = ClId> + '_ {
        self.cls.iter().enumerate().filter(|&(_, &on)| on).map(|(cl, _)| ClId::new(cl))
    }
}

/// The pricing kernel of one mode: its task energy over the tasks in
/// task-id order, its communication energy over the remote transfers in
/// comm-id order, and the static power of the PEs and links it keeps
/// powered, summed over the PEs ascending, then the links ascending.
/// `energy_factors` scales each task's energy (indexed by task id;
/// `None` is nominal energy). Marks the powered components in `active`.
/// [`mode_power`] is built on it.
///
/// # Panics
///
/// Panics if the schedule does not belong to `system`, or if
/// `energy_factors` is present with the wrong length — both indicate
/// caller bugs.
pub fn price_mode(
    system: &System,
    schedule: ScheduleView<'_>,
    energy_factors: Option<&[f64]>,
    active: &mut ActiveSet,
) -> ModeSums {
    let graph = system.omsm().mode(schedule.mode()).graph();
    let arch = system.arch();
    if let Some(f) = energy_factors {
        assert_eq!(f.len(), graph.task_count(), "energy factor per task required");
    }
    active.pes.clear();
    active.pes.resize(arch.pe_count(), false);
    active.cls.clear();
    active.cls.resize(arch.cl_count(), false);

    let mut task_energy = Joules::ZERO;
    for entry in schedule.tasks() {
        let ty = graph.task(entry.task).task_type();
        let imp = system
            .tech()
            .impl_of(ty, entry.pe)
            .expect("scheduled task has an implementation on its PE");
        let factor = energy_factors.map(|f| f[entry.task.index()]).unwrap_or(1.0);
        task_energy += imp.energy() * factor;
        active.pes[entry.pe.index()] = true;
    }

    let mut comm_energy = Joules::ZERO;
    for comm in schedule.remote_comms() {
        comm_energy += arch.cl(comm.cl).transfer_power() * comm.duration;
        active.cls[comm.cl.index()] = true;
    }

    let static_power: Watts = active
        .pes()
        .map(|pe| arch.pe(pe).static_power())
        .chain(active.cls().map(|cl| arch.cl(cl).static_power()))
        .sum();
    ModeSums { task_energy, comm_energy, period: graph.period(), static_power }
}

/// Computes the power breakdown of one mode through [`price_mode`].
///
/// # Panics
///
/// Panics if the schedule does not belong to `system`, or if
/// `energy_factors` is present with the wrong length — both indicate
/// caller bugs.
pub fn mode_power(system: &System, implementation: ModeImplementation<'_>) -> ModePower {
    let schedule = implementation.schedule;
    let mut active = ActiveSet::default();
    let sums = price_mode(system, schedule.view(), implementation.energy_factors, &mut active);
    ModePower {
        mode: schedule.mode(),
        task_energy: sums.task_energy,
        comm_energy: sums.comm_energy,
        period: sums.period,
        dynamic: sums.dynamic(),
        static_power: sums.static_power,
        active_pes: active.pes().collect(),
        active_cls: active.cls().collect(),
    }
}

/// Computes the full report under the system's mode execution
/// probabilities `Ψ_O`.
///
/// # Panics
///
/// Panics if `implementations` does not cover every mode exactly once in
/// mode-id order.
pub fn power_report(system: &System, implementations: &[ModeImplementation<'_>]) -> PowerReport {
    let probabilities: Vec<f64> = system.omsm().modes().map(|(_, m)| m.probability()).collect();
    power_report_with(system, implementations, &probabilities)
}

/// Computes the full report under caller-supplied mode weights — used by
/// the probability-neglecting baseline, which optimises with uniform
/// weights but is always *evaluated* with the true probabilities.
///
/// # Panics
///
/// Panics if `implementations` or `weights` do not cover every mode
/// exactly once in mode-id order.
pub fn power_report_with(
    system: &System,
    implementations: &[ModeImplementation<'_>],
    weights: &[f64],
) -> PowerReport {
    assert_eq!(implementations.len(), system.omsm().mode_count(), "one implementation per mode");
    let modes = implementations.iter().map(|imp| mode_power(system, *imp)).collect();
    PowerReport::from_modes(modes, weights)
}

/// Uniform mode weights (`1/|Ω|`), the paper's probability-neglecting
/// optimisation target.
pub fn uniform_weights(system: &System) -> Vec<f64> {
    let n = system.omsm().mode_count();
    vec![1.0 / n as f64; n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::ids::{ModeId, PeId, TaskId};
    use momsynth_model::units::{Cells, Seconds};
    use momsynth_model::{
        ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, TaskGraphBuilder,
        TechLibraryBuilder,
    };
    use momsynth_sched::{schedule_mode, CoreAllocation, SchedulerOptions, SystemMapping};

    /// Two modes (Ψ = 0.25 / 0.75), CPU + ASIC + bus.
    /// Type A: SW 10 ms @ 100 mW (1 mWs), HW 1 ms @ 10 mW (0.01 mWs).
    fn sys() -> System {
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

    fn schedules(system: &System, mapping: &SystemMapping) -> Vec<Schedule> {
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
    fn all_software_mode_power() {
        let system = sys();
        let mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
        let sch = schedules(&system, &mapping);
        let mp = mode_power(&system, ModeImplementation::nominal(&sch[0]));
        // Two 1 mWs tasks per 100 ms = 20 mW dynamic; only the CPU is on.
        assert!((mp.dynamic.as_milli() - 20.0).abs() < 1e-9);
        assert_eq!(mp.active_pes, vec![PeId::new(0)]);
        assert!(mp.active_cls.is_empty());
        assert!((mp.static_power.as_milli() - 2.0).abs() < 1e-12);
        assert!((mp.total().as_milli() - 22.0).abs() < 1e-9);
        assert_eq!(mp.comm_energy, Joules::ZERO);
    }

    #[test]
    fn remote_comm_and_shutdown_accounting() {
        let system = sys();
        // Mode 0: task b on HW; mode 1: all on CPU.
        let mut mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
        mapping.set(ModeId::new(0), TaskId::new(1), PeId::new(1));
        let sch = schedules(&system, &mapping);
        let mp0 = mode_power(&system, ModeImplementation::nominal(&sch[0]));
        // Dynamic: task a 1 mWs + task b 0.01 mWs + comm (1 ms @ 5 mW =
        // 0.005 mWs) over 100 ms.
        assert!((mp0.task_energy.as_milli_joules() - 1.01).abs() < 1e-9);
        assert!((mp0.comm_energy.as_milli_joules() - 0.005).abs() < 1e-9);
        // Static: CPU 2 + ASIC 1 + bus 0.5.
        assert!((mp0.static_power.as_milli() - 3.5).abs() < 1e-12);
        assert_eq!(mp0.active_cls, vec![momsynth_model::ids::ClId::new(0)]);

        let mp1 = mode_power(&system, ModeImplementation::nominal(&sch[1]));
        // Mode 1 shuts down ASIC and bus.
        assert!((mp1.static_power.as_milli() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn average_power_weights_by_probability() {
        let system = sys();
        let mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
        let sch = schedules(&system, &mapping);
        let imps: Vec<ModeImplementation> = sch.iter().map(ModeImplementation::nominal).collect();
        let report = power_report(&system, &imps);
        // Both modes identical at 22 mW: average is 22 regardless of Ψ.
        assert!((report.average.as_milli() - 22.0).abs() < 1e-9);

        // Now make mode 1 cheaper by mapping to HW: Ψ weighting matters.
        let mut mapping2 = SystemMapping::from_fn(&system, |_| PeId::new(0));
        mapping2.set(ModeId::new(1), TaskId::new(0), PeId::new(1));
        mapping2.set(ModeId::new(1), TaskId::new(1), PeId::new(1));
        let sch2 = schedules(&system, &mapping2);
        let imps2: Vec<ModeImplementation> = sch2.iter().map(ModeImplementation::nominal).collect();
        let report2 = power_report(&system, &imps2);
        // Mode 1 dynamic: 0.02 mWs / 100 ms = 0.2 mW; static HW only = 1 mW.
        let m1 = &report2.modes[1];
        assert!((m1.dynamic.as_milli() - 0.2).abs() < 1e-9);
        assert!((m1.static_power.as_milli() - 1.0).abs() < 1e-12);
        let expected = 0.25 * 22.0 + 0.75 * 1.2;
        assert!((report2.average.as_milli() - expected).abs() < 1e-9);
        assert!(report2.reduction_vs(&report) > 0.0);
    }

    #[test]
    fn energy_factors_scale_task_energy_only() {
        let system = sys();
        let mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
        let sch = schedules(&system, &mapping);
        let factors = vec![0.5, 0.25];
        let mp = mode_power(&system, ModeImplementation::scaled(&sch[0], &factors));
        // 1 mWs * 0.5 + 1 mWs * 0.25 = 0.75 mWs over 100 ms = 7.5 mW.
        assert!((mp.dynamic.as_milli() - 7.5).abs() < 1e-9);
        // Static power is unaffected by DVS.
        assert!((mp.static_power.as_milli() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn a_reused_active_set_prices_as_a_fresh_one() {
        let system = sys();
        // Mode 0 powers the CPU, the ASIC and the bus; mode 1 the CPU.
        let mut mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
        mapping.set(ModeId::new(0), TaskId::new(1), PeId::new(1));
        let sch = schedules(&system, &mapping);
        let mut active = ActiveSet::default();
        for schedule in [&sch[0], &sch[1], &sch[0]] {
            let sums = price_mode(&system, schedule.view(), None, &mut active);
            let fresh = mode_power(&system, ModeImplementation::nominal(schedule));
            assert_eq!(sums.total().value().to_bits(), fresh.total().value().to_bits());
            assert_eq!(active.pes().collect::<Vec<_>>(), fresh.active_pes);
            assert_eq!(active.cls().collect::<Vec<_>>(), fresh.active_cls);
        }
    }

    #[test]
    fn uniform_weights_sum_to_one() {
        let system = sys();
        let w = uniform_weights(&system);
        assert_eq!(w.len(), 2);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_report_with_uniform_weights_differs_from_true_probabilities() {
        let system = sys();
        let mut mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
        mapping.set(ModeId::new(1), TaskId::new(0), PeId::new(1));
        mapping.set(ModeId::new(1), TaskId::new(1), PeId::new(1));
        let sch = schedules(&system, &mapping);
        let imps: Vec<ModeImplementation> = sch.iter().map(ModeImplementation::nominal).collect();
        let true_report = power_report(&system, &imps);
        let uniform = power_report_with(&system, &imps, &uniform_weights(&system));
        // Mode 0 is the expensive one; uniform weighting overweights it
        // relative to its true Ψ = 0.25.
        assert!(uniform.average > true_report.average);
    }

    #[test]
    fn display_formats_report() {
        let system = sys();
        let mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
        let sch = schedules(&system, &mapping);
        let imps: Vec<ModeImplementation> = sch.iter().map(ModeImplementation::nominal).collect();
        let report = power_report(&system, &imps);
        let text = report.to_string();
        assert!(text.contains("average power"));
        assert!(text.contains("O0"));
        assert!(text.contains("O1"));
    }

    #[test]
    #[should_panic(expected = "one implementation per mode")]
    fn report_rejects_missing_modes() {
        let system = sys();
        let mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
        let sch = schedules(&system, &mapping);
        let imps = vec![ModeImplementation::nominal(&sch[0])];
        let _ = power_report(&system, &imps);
    }

    #[test]
    fn serde_round_trip() {
        let system = sys();
        let mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
        let sch = schedules(&system, &mapping);
        let imps: Vec<ModeImplementation> = sch.iter().map(ModeImplementation::nominal).collect();
        let report = power_report(&system, &imps);
        let json = serde_json::to_string(&report).unwrap();
        assert_eq!(serde_json::from_str::<PowerReport>(&json).unwrap(), report);
    }
}
