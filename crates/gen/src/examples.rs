//! The paper's motivational examples as executable models.
//!
//! * **Example 1 (Fig. 2)** — two modes with probabilities 0.1/0.9 on a
//!   GPP + ASIC architecture, the six-row technology table of Section 2.3
//!   reproduced to the µWs. The two hand-derived mappings of Fig. 2b/2c
//!   evaluate to the paper's exact energies (26.7158 mWs vs 15.7423 mWs,
//!   a 41% reduction).
//! * **Example 2 (Fig. 3)** — resource sharing vs multiple task
//!   implementations: implementing the shared type twice (hardware for
//!   one mode, software for the other) lets the hardware component and
//!   bus shut down in the mode that no longer needs them.
//!
//! All periods are one second and static/communication power is zero in
//! Example 1, so the reported average power in mW is numerically the
//! paper's per-activation energy in mWs.

use momsynth_model::ids::PeId;
use momsynth_model::units::{Cells, Seconds, Volts, Watts};
use momsynth_model::{
    ArchitectureBuilder, Cl, DvsCapability, Implementation, OmsmBuilder, Pe, PeKind, System,
    TaskGraphBuilder, TechLibraryBuilder,
};
use momsynth_sched::SystemMapping;

/// The software PE of both examples.
pub const PE0: PeId = PeId::new(0);
/// The hardware PE (ASIC) of both examples.
pub const PE1: PeId = PeId::new(1);

/// One row of the Section 2.3 technology table.
struct TypeRow {
    name: &'static str,
    sw_time_ms: f64,
    sw_energy_mws: f64,
    hw_time_ms: f64,
    hw_energy_mws: f64,
    area: u64,
}

/// The exact table of Section 2.3 (energies converted to powers).
const TABLE: [TypeRow; 6] = [
    TypeRow {
        name: "A",
        sw_time_ms: 20.0,
        sw_energy_mws: 10.0,
        hw_time_ms: 2.0,
        hw_energy_mws: 0.010,
        area: 240,
    },
    TypeRow {
        name: "B",
        sw_time_ms: 28.0,
        sw_energy_mws: 14.0,
        hw_time_ms: 2.2,
        hw_energy_mws: 0.012,
        area: 300,
    },
    TypeRow {
        name: "C",
        sw_time_ms: 32.0,
        sw_energy_mws: 16.0,
        hw_time_ms: 1.6,
        hw_energy_mws: 0.023,
        area: 275,
    },
    TypeRow {
        name: "D",
        sw_time_ms: 26.0,
        sw_energy_mws: 13.0,
        hw_time_ms: 3.1,
        hw_energy_mws: 0.047,
        area: 245,
    },
    TypeRow {
        name: "E",
        sw_time_ms: 30.0,
        sw_energy_mws: 15.0,
        hw_time_ms: 1.8,
        hw_energy_mws: 0.015,
        area: 210,
    },
    TypeRow {
        name: "F",
        sw_time_ms: 24.0,
        sw_energy_mws: 14.0,
        hw_time_ms: 2.2,
        hw_energy_mws: 0.032,
        area: 280,
    },
];

fn table_tech(arch_cpu: PeId, arch_hw: PeId) -> momsynth_model::TechLibrary {
    let mut tech = TechLibraryBuilder::new();
    for row in &TABLE {
        let ty = tech.add_type(row.name);
        let sw_time = Seconds::from_millis(row.sw_time_ms);
        let sw_power = Watts::from_milli(row.sw_energy_mws / row.sw_time_ms * 1000.0);
        tech.set_impl(ty, arch_cpu, Implementation::software(sw_time, sw_power));
        let hw_time = Seconds::from_millis(row.hw_time_ms);
        let hw_power = Watts::from_milli(row.hw_energy_mws / row.hw_time_ms * 1000.0);
        tech.set_impl(
            ty,
            arch_hw,
            Implementation::hardware(hw_time, hw_power, Cells::new(row.area)),
        );
    }
    tech.build()
}

/// Builds the Fig. 2 system: two modes (`Ψ₁ = 0.1`, `Ψ₂ = 0.9`), tasks
/// `τ1..τ3` of types A/B/C in mode `O1` and `τ4..τ6` of types D/E/F in
/// mode `O2`, mapped onto a GPP (PE0) and a 600-cell ASIC (PE1) joined by
/// a bus (CL0).
///
/// # Examples
///
/// ```
/// let system = momsynth_gen::examples::example1_system();
/// assert_eq!(system.omsm().mode_count(), 2);
/// assert_eq!(system.arch().pe_count(), 2);
/// ```
pub fn example1_system() -> System {
    let mut arch = ArchitectureBuilder::new();
    let cpu = arch.add_pe(Pe::software("PE0", PeKind::Gpp, Watts::ZERO));
    let hw = arch.add_pe(Pe::hardware("PE1", PeKind::Asic, Cells::new(600), Watts::ZERO));
    arch.add_cl(Cl::bus("CL0", vec![cpu, hw], Seconds::ZERO, Watts::ZERO, Watts::ZERO))
        .expect("bus endpoints exist");
    let tech = table_tech(cpu, hw);

    let period = Seconds::new(1.0);
    let mut g1 = TaskGraphBuilder::new("O1", period);
    for (i, ty) in [0usize, 1, 2].iter().enumerate() {
        g1.add_task(format!("tau{}", i + 1), momsynth_model::ids::TaskTypeId::new(*ty));
    }
    let mut g2 = TaskGraphBuilder::new("O2", period);
    for (i, ty) in [3usize, 4, 5].iter().enumerate() {
        g2.add_task(format!("tau{}", i + 4), momsynth_model::ids::TaskTypeId::new(*ty));
    }

    let mut omsm = OmsmBuilder::new();
    let m1 = omsm.add_mode("O1", 0.1, g1.build().expect("valid graph"));
    let m2 = omsm.add_mode("O2", 0.9, g2.build().expect("valid graph"));
    omsm.add_transition(m1, m2, Seconds::new(0.1)).expect("valid transition");
    omsm.add_transition(m2, m1, Seconds::new(0.1)).expect("valid transition");

    System::new(
        "example1",
        omsm.build().expect("valid OMSM"),
        arch.build().expect("valid architecture"),
        tech,
    )
    .expect("example 1 is a valid system")
}

/// The Fig. 2b mapping — optimal when execution probabilities are
/// *neglected*: the highest-energy tasks (`τ3`, `τ5`) go to hardware.
/// Total energy 26.7158 mWs.
pub fn example1_mapping_neglecting() -> SystemMapping {
    SystemMapping::from_vecs(vec![vec![PE0, PE0, PE1], vec![PE0, PE1, PE0]])
}

/// The Fig. 2c mapping — optimal under `Ψ = (0.1, 0.9)`: mode `O1` stays
/// pure software (PE1 and CL0 can shut down), mode `O2` uses hardware for
/// `τ5`, `τ6`. Total energy 15.7423 mWs — 41% lower.
pub fn example1_mapping_aware() -> SystemMapping {
    SystemMapping::from_vecs(vec![vec![PE0, PE0, PE0], vec![PE0, PE1, PE1]])
}

/// Builds the Fig. 3 system: type A appears in both modes (`τ1` in `O1`,
/// `τ4` in `O2`), enabling hardware sharing. Static powers are non-zero
/// here — that is the whole point: multiple implementations of type A
/// allow PE1 and CL0 to power off during `O2`.
///
/// Mode probabilities: `Ψ₁ = 0.4`, `Ψ₂ = 0.6`.
pub fn example2_system() -> System {
    let mut arch = ArchitectureBuilder::new();
    let cpu = arch.add_pe(Pe::software("PE0", PeKind::Gpp, Watts::from_milli(1.0)));
    // Static powers are sized so that shutting PE1+CL0 down during O2
    // outweighs implementing the shared type A in software there — the
    // trade-off Fig. 3 illustrates.
    let hw = arch.add_pe(
        Pe::hardware("PE1", PeKind::Asic, Cells::new(600), Watts::from_milli(12.0)).with_dvs(
            DvsCapability::new(
                Volts::new(3.3),
                Volts::new(0.8),
                vec![Volts::new(1.2), Volts::new(2.1), Volts::new(3.3)],
            ),
        ),
    );
    arch.add_cl(Cl::bus(
        "CL0",
        vec![cpu, hw],
        Seconds::from_micros(5.0),
        Watts::from_milli(2.0),
        Watts::from_milli(2.0),
    ))
    .expect("bus endpoints exist");
    let tech = table_tech(cpu, hw);

    let period = Seconds::new(1.0);
    // O1: τ1 (A), τ2 (B), τ3 (C); O2: τ4 (A), τ5 (E), τ6 (F).
    let mut g1 = TaskGraphBuilder::new("O1", period);
    let t1 = g1.add_task("tau1", momsynth_model::ids::TaskTypeId::new(0));
    let t2 = g1.add_task("tau2", momsynth_model::ids::TaskTypeId::new(1));
    let t3 = g1.add_task("tau3", momsynth_model::ids::TaskTypeId::new(2));
    g1.add_comm(t1, t2, 64.0).expect("valid edge");
    g1.add_comm(t2, t3, 64.0).expect("valid edge");
    let mut g2 = TaskGraphBuilder::new("O2", period);
    let t4 = g2.add_task("tau4", momsynth_model::ids::TaskTypeId::new(0));
    let t5 = g2.add_task("tau5", momsynth_model::ids::TaskTypeId::new(4));
    let t6 = g2.add_task("tau6", momsynth_model::ids::TaskTypeId::new(5));
    g2.add_comm(t4, t5, 64.0).expect("valid edge");
    g2.add_comm(t5, t6, 64.0).expect("valid edge");

    let mut omsm = OmsmBuilder::new();
    let m1 = omsm.add_mode("O1", 0.4, g1.build().expect("valid graph"));
    let m2 = omsm.add_mode("O2", 0.6, g2.build().expect("valid graph"));
    omsm.add_transition(m1, m2, Seconds::new(0.1)).expect("valid transition");
    omsm.add_transition(m2, m1, Seconds::new(0.1)).expect("valid transition");

    System::new(
        "example2",
        omsm.build().expect("valid OMSM"),
        arch.build().expect("valid architecture"),
        tech,
    )
    .expect("example 2 is a valid system")
}

/// The Fig. 3b mapping — resource sharing: both type-A tasks use the same
/// hardware core, so PE1 (and the bus) must stay powered in both modes.
pub fn example2_mapping_shared() -> SystemMapping {
    SystemMapping::from_vecs(vec![vec![PE1, PE0, PE0], vec![PE1, PE0, PE0]])
}

/// The Fig. 3c mapping — multiple implementations: `τ4` additionally
/// implemented in software, so PE1 and CL0 shut down during `O2`.
pub fn example2_mapping_multiple() -> SystemMapping {
    SystemMapping::from_vecs(vec![vec![PE1, PE0, PE0], vec![PE0, PE0, PE0]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::ids::ModeId;
    use momsynth_power::{mode_power, power_report, ModeImplementation};
    use momsynth_sched::{schedule_mode, CoreAllocation, SchedulerOptions};

    fn report(system: &System, mapping: &SystemMapping) -> momsynth_power::PowerReport {
        let alloc = CoreAllocation::minimal(system, mapping);
        let schedules: Vec<_> = system
            .omsm()
            .mode_ids()
            .map(|m| {
                schedule_mode(system, m, mapping, &alloc, SchedulerOptions::default())
                    .expect("examples schedule cleanly")
            })
            .collect();
        let imps: Vec<ModeImplementation> =
            schedules.iter().map(ModeImplementation::nominal).collect();
        power_report(system, &imps)
    }

    #[test]
    fn example1_neglecting_matches_paper_exactly() {
        let system = example1_system();
        let r = report(&system, &example1_mapping_neglecting());
        // 0.1·(10+14+0.023) + 0.9·(13+0.015+14) = 26.7158 mWs.
        assert!((r.average.as_milli() - 26.7158).abs() < 1e-9, "got {}", r.average.as_milli());
    }

    #[test]
    fn example1_aware_matches_paper_exactly() {
        let system = example1_system();
        let r = report(&system, &example1_mapping_aware());
        // 0.1·(10+14+16) + 0.9·(13+0.015+0.032) = 15.7423 mWs.
        assert!((r.average.as_milli() - 15.7423).abs() < 1e-9, "got {}", r.average.as_milli());
    }

    #[test]
    fn example1_reduction_is_41_percent() {
        let system = example1_system();
        let neglect = report(&system, &example1_mapping_neglecting());
        let aware = report(&system, &example1_mapping_aware());
        let reduction = aware.reduction_vs(&neglect);
        assert!((reduction - 41.0).abs() < 0.2, "reduction {reduction}%");
    }

    #[test]
    fn example1_per_mode_energies_match_paper() {
        let system = example1_system();
        let mapping = example1_mapping_neglecting();
        let alloc = CoreAllocation::minimal(&system, &mapping);
        let s0 =
            schedule_mode(&system, ModeId::new(0), &mapping, &alloc, SchedulerOptions::default())
                .unwrap();
        let mp = mode_power(&system, ModeImplementation::nominal(&s0));
        assert!((mp.task_energy.as_milli_joules() - 24.023).abs() < 1e-9);
    }

    #[test]
    fn example1_aware_mapping_shuts_down_hardware_in_mode_one() {
        let system = example1_system();
        let r = report(&system, &example1_mapping_aware());
        assert_eq!(r.modes[0].active_pes, vec![PE0]);
        assert!(r.modes[0].active_cls.is_empty());
        assert_eq!(r.modes[1].active_pes, vec![PE0, PE1]);
    }

    #[test]
    fn example1_both_mappings_fit_the_asic() {
        let system = example1_system();
        for mapping in [example1_mapping_neglecting(), example1_mapping_aware()] {
            let alloc = CoreAllocation::minimal(&system, &mapping);
            assert!(alloc.static_area(&system, PE1) <= Cells::new(600));
            assert!(mapping.validate(&system).is_ok());
        }
    }

    #[test]
    fn example2_multiple_implementations_enable_shutdown() {
        let system = example2_system();
        let shared = report(&system, &example2_mapping_shared());
        let multiple = report(&system, &example2_mapping_multiple());
        // Sharing keeps PE1 alive in both modes…
        assert!(shared.modes[1].active_pes.contains(&PE1));
        // …while the multiple-implementation mapping powers it off in O2.
        assert_eq!(multiple.modes[1].active_pes, vec![PE0]);
        assert!(multiple.modes[1].active_cls.is_empty());
        // The shut-down saves static power overall.
        assert!(
            multiple.average < shared.average,
            "multiple {} should beat shared {}",
            multiple.average,
            shared.average
        );
    }

    #[test]
    fn example2_mappings_validate() {
        let system = example2_system();
        assert!(example2_mapping_shared().validate(&system).is_ok());
        assert!(example2_mapping_multiple().validate(&system).is_ok());
    }
}
