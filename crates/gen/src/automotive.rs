//! A second real-life-style benchmark: a multi-mode automotive body/ADAS
//! controller.
//!
//! Beyond the paper's smart phone, this system exercises a different
//! corner of the model: hard per-task deadlines everywhere (braking!),
//! an FPGA with mode-dependent reconfiguration under tight transition
//! limits, and a usage profile dominated by highway cruising. Four modes:
//!
//! * `cruise` (Ψ = 0.55) — engine control + adaptive cruise radar.
//! * `city` (Ψ = 0.35) — engine control + camera-based pedestrian
//!   detection + traffic-sign recognition.
//! * `parking` (Ψ = 0.08) — ultrasonic array + rear camera + overlay
//!   rendering.
//! * `diagnostic` (Ψ = 0.02) — bus scan and health reporting in the shop.
//!
//! The engine-control block is shared by `cruise` and `city`; the camera
//! pre-processing is shared by `city` and `parking` — the cross-mode
//! sharing opportunities the paper's methodology lives on.

use momsynth_model::ids::TaskTypeId;
use momsynth_model::units::{Cells, Seconds, Volts, Watts};
use momsynth_model::{
    ArchitectureBuilder, Cl, DvsCapability, Implementation, OmsmBuilder, Pe, PeKind, System,
    TaskGraphBuilder, TechLibraryBuilder,
};

/// Task types of the automotive controller, in technology-library order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum EcuType {
    SensorAcq = 0,
    EngineMap,
    InjectionCtrl,
    KnockFilter,
    RadarFft,
    RadarTrack,
    CameraPre,
    PedestrianNet,
    SignNet,
    UltrasonicArr,
    OverlayRender,
    BusScan,
    HealthReport,
    CanTx,
}

impl EcuType {
    /// The task-type id in the controller's technology library.
    pub fn id(self) -> TaskTypeId {
        TaskTypeId::new(self as usize)
    }
}

/// `(name, sw_ms, sw_mw, fpga, speedup, hw_mw, hw_area)` — `fpga` marks
/// types with an FPGA implementation.
const TYPES: [(&str, f64, f64, bool, f64, f64, u64); 14] = [
    ("sensor_acq", 0.3, 80.0, false, 0.0, 0.0, 0),
    ("engine_map", 1.2, 220.0, true, 12.0, 9.0, 260),
    ("injection_ctrl", 0.8, 180.0, true, 10.0, 7.0, 220),
    ("knock_filter", 1.5, 240.0, true, 25.0, 8.0, 280),
    ("radar_fft", 2.5, 300.0, true, 40.0, 10.0, 340),
    ("radar_track", 1.8, 260.0, false, 0.0, 0.0, 0),
    ("camera_pre", 2.0, 280.0, true, 30.0, 9.0, 320),
    ("pedestrian_net", 6.0, 380.0, true, 60.0, 14.0, 420),
    ("sign_net", 4.0, 340.0, true, 50.0, 12.0, 380),
    ("ultrasonic_arr", 1.0, 150.0, false, 0.0, 0.0, 0),
    ("overlay_render", 2.2, 260.0, false, 0.0, 0.0, 0),
    ("bus_scan", 3.0, 120.0, false, 0.0, 0.0, 0),
    ("health_report", 1.5, 100.0, false, 0.0, 0.0, 0),
    ("can_tx", 0.4, 90.0, false, 0.0, 0.0, 0),
];

fn ty(t: EcuType) -> TaskTypeId {
    t.id()
}

/// Engine-control block (shared by cruise and city): acquisition →
/// map lookup → knock filter → injection → CAN, with a hard 4 ms
/// actuation deadline.
fn engine_block(g: &mut TaskGraphBuilder) {
    let acq = g.add_task("eng_acq", ty(EcuType::SensorAcq));
    let map = g.add_task("eng_map", ty(EcuType::EngineMap));
    let knock = g.add_task("eng_knock", ty(EcuType::KnockFilter));
    let inj = g.add_task_with_deadline(
        "eng_inject",
        ty(EcuType::InjectionCtrl),
        Seconds::from_millis(4.0),
    );
    let tx = g.add_task("eng_can", ty(EcuType::CanTx));
    g.add_comm(acq, map, 32.0).expect("forward edge");
    g.add_comm(acq, knock, 64.0).expect("forward edge");
    g.add_comm(map, inj, 16.0).expect("forward edge");
    g.add_comm(knock, inj, 16.0).expect("forward edge");
    g.add_comm(inj, tx, 8.0).expect("forward edge");
}

/// Radar block (cruise): 4 FFT channels joined by a tracker.
fn radar_block(g: &mut TaskGraphBuilder) {
    let track = g.add_task("radar_track", ty(EcuType::RadarTrack));
    let tx = g.add_task("radar_can", ty(EcuType::CanTx));
    for c in 0..4 {
        let fft = g.add_task(format!("radar_fft{c}"), ty(EcuType::RadarFft));
        g.add_comm(fft, track, 128.0).expect("forward edge");
    }
    g.add_comm(track, tx, 32.0).expect("forward edge");
}

/// Camera vision block (city): two pre-processed streams feeding the
/// pedestrian and sign networks; pedestrian detection has a hard 15 ms
/// deadline.
fn vision_block(g: &mut TaskGraphBuilder) {
    let pre0 = g.add_task("cam_pre0", ty(EcuType::CameraPre));
    let pre1 = g.add_task("cam_pre1", ty(EcuType::CameraPre));
    let ped = g.add_task_with_deadline(
        "pedestrian",
        ty(EcuType::PedestrianNet),
        Seconds::from_millis(15.0),
    );
    let sign = g.add_task("sign", ty(EcuType::SignNet));
    let tx = g.add_task("vision_can", ty(EcuType::CanTx));
    g.add_comm(pre0, ped, 512.0).expect("forward edge");
    g.add_comm(pre1, sign, 512.0).expect("forward edge");
    g.add_comm(ped, tx, 16.0).expect("forward edge");
    g.add_comm(sign, tx, 16.0).expect("forward edge");
}

/// Builds the four-mode automotive controller.
///
/// # Examples
///
/// ```
/// let ecu = momsynth_gen::automotive::automotive_ecu();
/// assert_eq!(ecu.omsm().mode_count(), 4);
/// assert!(!ecu.shared_types().is_empty());
/// ```
pub fn automotive_ecu() -> System {
    let ms = Seconds::from_millis;

    // ---- Architecture: DVS MCU + FPGA accelerator on a CAN-like bus ----
    let mut arch = ArchitectureBuilder::new();
    let mcu = arch.add_pe(Pe::software("MCU", PeKind::Gpp, Watts::from_milli(2.0)).with_dvs(
        DvsCapability::new(
            Volts::new(3.3),
            Volts::new(0.8),
            vec![Volts::new(1.2), Volts::new(1.8), Volts::new(2.4), Volts::new(3.3)],
        ),
    ));
    let dsp = arch.add_pe(Pe::software("DSP", PeKind::Asip, Watts::from_milli(1.5)));
    let fpga = arch.add_pe(
        Pe::hardware("FPGA", PeKind::Fpga, Cells::new(1100), Watts::from_milli(3.0))
            .with_reconfig_time_per_cell(Seconds::from_micros(5.0)),
    );
    arch.add_cl(Cl::bus(
        "CAN",
        vec![mcu, dsp, fpga],
        Seconds::from_micros(0.5),
        Watts::from_milli(2.0),
        Watts::from_milli(0.3),
    ))
    .expect("bus endpoints exist");

    // ---- Technology library ---------------------------------------------
    let mut tech = TechLibraryBuilder::new();
    for &(name, sw_ms, sw_mw, fpga_impl, speedup, hw_mw, hw_area) in &TYPES {
        let t = tech.add_type(name);
        tech.set_impl(t, mcu, Implementation::software(ms(sw_ms), Watts::from_milli(sw_mw)));
        // The DSP runs signal-processing types ~30% faster.
        tech.set_impl(
            t,
            dsp,
            Implementation::software(ms(sw_ms * 0.7), Watts::from_milli(sw_mw * 0.9)),
        );
        if fpga_impl {
            tech.set_impl(
                t,
                fpga,
                Implementation::hardware(
                    ms(sw_ms / speedup),
                    Watts::from_milli(hw_mw),
                    Cells::new(hw_area),
                ),
            );
        }
    }

    // ---- Modes -------------------------------------------------------------
    let mut omsm = OmsmBuilder::new();

    // Cruise: engine control (10 ms frame) + radar pipeline.
    let mut g = TaskGraphBuilder::new("cruise", ms(10.0));
    engine_block(&mut g);
    radar_block(&mut g);
    let cruise = omsm.add_mode("cruise", 0.55, g.build().expect("valid graph"));

    // City: engine control + vision, 20 ms camera frame.
    let mut g = TaskGraphBuilder::new("city", ms(20.0));
    engine_block(&mut g);
    vision_block(&mut g);
    let city = omsm.add_mode("city", 0.35, g.build().expect("valid graph"));

    // Parking: ultrasonics + rear camera + overlay, 40 ms frame.
    let mut g = TaskGraphBuilder::new("parking", ms(40.0));
    let tx = g.add_task("park_can", ty(EcuType::CanTx));
    for c in 0..6 {
        let us = g.add_task(format!("ultra{c}"), ty(EcuType::UltrasonicArr));
        g.add_comm(us, tx, 16.0).expect("forward edge");
    }
    let pre = g.add_task("rear_pre", ty(EcuType::CameraPre));
    let ovl = g.add_task("overlay", ty(EcuType::OverlayRender));
    g.add_comm(pre, ovl, 512.0).expect("forward edge");
    g.add_comm(ovl, tx, 32.0).expect("forward edge");
    let parking = omsm.add_mode("parking", 0.08, g.build().expect("valid graph"));

    // Diagnostic: slow bus scan, 100 ms frame.
    let mut g = TaskGraphBuilder::new("diagnostic", ms(100.0));
    let scan = g.add_task("bus_scan", ty(EcuType::BusScan));
    let health = g.add_task("health", ty(EcuType::HealthReport));
    let tx = g.add_task("diag_can", ty(EcuType::CanTx));
    g.add_comm(scan, health, 64.0).expect("forward edge");
    g.add_comm(health, tx, 16.0).expect("forward edge");
    let diagnostic = omsm.add_mode("diagnostic", 0.02, g.build().expect("valid graph"));

    // ---- Transitions (tight where a driver is waiting) --------------------
    let t = |omsm: &mut OmsmBuilder, a, b, limit_ms: f64| {
        omsm.add_transition(a, b, ms(limit_ms)).expect("valid transition");
        omsm.add_transition(b, a, ms(limit_ms)).expect("valid transition");
    };
    t(&mut omsm, cruise, city, 50.0);
    t(&mut omsm, city, parking, 100.0);
    t(&mut omsm, cruise, parking, 100.0);
    t(&mut omsm, city, diagnostic, 500.0);
    t(&mut omsm, parking, diagnostic, 500.0);

    System::new(
        "automotive_ecu",
        omsm.build().expect("probabilities sum to one"),
        arch.build().expect("valid architecture"),
        tech.build(),
    )
    .expect("automotive controller is a valid system")
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::ids::PeId;
    use momsynth_sched::{schedule_mode, CoreAllocation, SchedulerOptions, SystemMapping};

    #[test]
    fn structure_matches_the_design() {
        let ecu = automotive_ecu();
        assert_eq!(ecu.omsm().mode_count(), 4);
        assert_eq!(ecu.arch().pe_count(), 3);
        assert_eq!(ecu.arch().software_pes().count(), 2);
        let probs: Vec<f64> = ecu.omsm().modes().map(|(_, m)| m.probability()).collect();
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((probs[0] - 0.55).abs() < 1e-12);
    }

    #[test]
    fn engine_and_camera_blocks_are_shared_across_modes() {
        let ecu = automotive_ecu();
        let shared = ecu.shared_types();
        for t in [EcuType::EngineMap, EcuType::CameraPre, EcuType::CanTx] {
            assert!(shared.contains(&t.id()), "{t:?} should be shared");
        }
    }

    #[test]
    fn split_dsp_fpga_mapping_is_feasible_in_every_mode() {
        // The tight 10 ms cruise frame does NOT fit any single software
        // PE — the system forces hardware acceleration (that is the
        // point). Radar FFTs and the pedestrian network on the FPGA, the
        // rest on the DSP, is feasible everywhere.
        let ecu = automotive_ecu();
        let fpga = PeId::new(2);
        let dsp = PeId::new(1);
        let mapping = SystemMapping::from_fn(&ecu, |id| {
            let t = ecu.task_type_of(id);
            if t == EcuType::RadarFft.id() || t == EcuType::PedestrianNet.id() {
                fpga
            } else {
                dsp
            }
        });
        assert!(mapping.validate(&ecu).is_ok());
        let alloc = momsynth_core_free_alloc(&ecu, &mapping);
        for mode in ecu.omsm().mode_ids() {
            let s = schedule_mode(&ecu, mode, &mapping, &alloc, SchedulerOptions::default())
                .expect("split mapping schedules");
            assert!(
                s.is_timing_feasible(ecu.omsm().mode(mode).graph()),
                "mode {} infeasible under the split mapping:\n{}",
                ecu.omsm().mode(mode).graph().name(),
                s.to_gantt_string(&ecu)
            );
        }
    }

    /// Minimal allocation plus two extra radar-FFT cores — stand-in for
    /// the synthesis layer's replication, which this crate cannot depend
    /// on.
    fn momsynth_core_free_alloc(ecu: &System, mapping: &SystemMapping) -> CoreAllocation {
        let mut alloc = CoreAllocation::minimal(ecu, mapping);
        alloc.ensure(momsynth_model::ids::ModeId::new(0), PeId::new(2), EcuType::RadarFft.id(), 3);
        alloc
    }

    #[test]
    fn no_single_software_pe_fits_the_cruise_mode() {
        // Documents the design intent: cruise needs acceleration.
        let ecu = automotive_ecu();
        for pe in ecu.arch().software_pes().collect::<Vec<_>>() {
            let mapping = SystemMapping::from_fn(&ecu, |_| pe);
            let alloc = CoreAllocation::minimal(&ecu, &mapping);
            let s = schedule_mode(
                &ecu,
                momsynth_model::ids::ModeId::new(0),
                &mapping,
                &alloc,
                SchedulerOptions::default(),
            )
            .expect("software mapping schedules");
            assert!(
                !s.is_timing_feasible(ecu.omsm().mode(momsynth_model::ids::ModeId::new(0)).graph()),
                "cruise unexpectedly fits {} alone",
                ecu.arch().pe(pe).name()
            );
        }
    }

    #[test]
    fn hard_deadlines_are_present() {
        let ecu = automotive_ecu();
        let cruise = ecu.omsm().mode(momsynth_model::ids::ModeId::new(0)).graph();
        let with_deadline = cruise.tasks().filter(|(_, t)| t.deadline().is_some()).count();
        assert!(with_deadline >= 1, "injection deadline missing");
    }

    #[test]
    fn fpga_reconfiguration_is_modelled() {
        let ecu = automotive_ecu();
        let fpga = ecu.arch().pe(PeId::new(2));
        assert!(fpga.kind().is_reconfigurable());
        assert!(fpga.reconfig_time_per_cell().value() > 0.0);
    }

    #[test]
    fn construction_is_deterministic() {
        assert_eq!(automotive_ecu(), automotive_ecu());
    }
}
