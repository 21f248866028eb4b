//! The smart-phone real-life benchmark (paper Fig. 1a, Table 3).
//!
//! The device combines a GSM phone, an MP3 player and a digital camera:
//! eight operational modes built from five functional blocks — radio link
//! control (RLC), network search, the GSM 06.10 codec, MPEG-1 layer-III
//! decoding and JPEG decoding — with the paper's published execution
//! probabilities (74% RLC, 9% GSM call, 10% MP3 playback, …).
//!
//! The paper extracted the task graphs from public C sources and profiled
//! them on real hardware; here both the graph structure (frame/granule/
//! MCU pipelines of those codecs) and the execution characteristics are
//! synthesised to the paper's stated envelope: 5–88 tasks and up to 137
//! edges per mode, hardware implementations 5–100× faster than software,
//! and a target architecture of one DVS-enabled GPP plus two ASICs on a
//! single bus (see `DESIGN.md` for the substitution note).
//!
//! Task types are deliberately shared across modes — the Huffman decoder,
//! dequantiser and inverse DCT serve both the MP3 and the JPEG pipeline,
//! exactly the sharing opportunity the paper exploits.

use momsynth_model::ids::{TaskId, TaskTypeId};
use momsynth_model::units::{Cells, Seconds, Volts, Watts};
use momsynth_model::{
    ArchitectureBuilder, Cl, DvsCapability, Implementation, OmsmBuilder, Pe, PeKind, System,
    TaskGraphBuilder, TechLibraryBuilder,
};

/// Task types of the smart phone, in technology-library order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum PhoneType {
    RlcMeasure = 0,
    RlcHandover,
    RlcPowerCtrl,
    RlcChannelDec,
    RlcChannelEnc,
    NsScan,
    NsCorrelate,
    NsSync,
    GsmPre,
    GsmLpc,
    GsmLtp,
    GsmRpe,
    GsmDec,
    GsmPost,
    Huffman,
    Dequant,
    Stereo,
    Idct,
    Synth,
    ColorTransform,
    Display,
    Camera,
    Ui,
}

impl PhoneType {
    /// The task-type id in the smart phone's technology library.
    pub fn id(self) -> TaskTypeId {
        TaskTypeId::new(self as usize)
    }
}

/// `(name, sw_ms, sw_mw, asic, hw_speedup, hw_mw, hw_area)` — `asic` is
/// which ASIC implements the type in hardware (0 = none, 1 = codec
/// accelerator, 2 = imaging accelerator).
const TYPES: [(&str, f64, f64, u8, f64, f64, u64); 23] = [
    ("rlc_measure", 0.8, 120.0, 0, 0.0, 0.0, 0),
    ("rlc_handover", 0.5, 100.0, 0, 0.0, 0.0, 0),
    ("rlc_power_ctrl", 0.3, 90.0, 0, 0.0, 0.0, 0),
    ("rlc_channel_dec", 1.2, 150.0, 2, 12.0, 6.0, 180),
    ("rlc_channel_enc", 0.9, 130.0, 2, 10.0, 5.0, 160),
    ("ns_scan", 2.0, 180.0, 2, 20.0, 8.0, 220),
    ("ns_correlate", 3.0, 220.0, 1, 40.0, 9.0, 260),
    ("ns_sync", 1.0, 140.0, 0, 0.0, 0.0, 0),
    ("gsm_pre", 0.6, 110.0, 0, 0.0, 0.0, 0),
    ("gsm_lpc", 2.2, 240.0, 1, 25.0, 10.0, 280),
    ("gsm_ltp", 2.8, 260.0, 1, 30.0, 11.0, 300),
    ("gsm_rpe", 2.4, 250.0, 1, 28.0, 10.0, 290),
    ("gsm_dec", 2.0, 230.0, 1, 22.0, 9.0, 270),
    ("gsm_post", 0.5, 100.0, 0, 0.0, 0.0, 0),
    ("huffman", 0.25, 160.0, 2, 8.0, 4.0, 150),
    ("dequant", 0.1, 120.0, 2, 6.0, 3.0, 120),
    ("stereo", 0.3, 140.0, 1, 10.0, 4.0, 140),
    ("idct", 0.4, 280.0, 2, 50.0, 7.0, 240),
    ("synth", 1.8, 260.0, 1, 35.0, 10.0, 310),
    ("color_transform", 0.15, 130.0, 2, 10.0, 4.0, 130),
    ("display", 1.0, 200.0, 0, 0.0, 0.0, 0),
    ("camera", 1.5, 180.0, 0, 0.0, 0.0, 0),
    ("ui", 0.4, 100.0, 0, 0.0, 0.0, 0),
];

fn ty(t: PhoneType) -> TaskTypeId {
    t.id()
}

/// Appends the radio-link-control frame pipeline; returns its sink.
fn rlc_block(g: &mut TaskGraphBuilder) -> TaskId {
    let dec = g.add_task("rlc_dec", ty(PhoneType::RlcChannelDec));
    let meas = g.add_task("rlc_meas", ty(PhoneType::RlcMeasure));
    let ho = g.add_task("rlc_ho", ty(PhoneType::RlcHandover));
    let pc = g.add_task("rlc_pc", ty(PhoneType::RlcPowerCtrl));
    let enc = g.add_task("rlc_enc", ty(PhoneType::RlcChannelEnc));
    g.add_comm(dec, meas, 64.0).expect("rlc edges are forward");
    g.add_comm(meas, ho, 32.0).expect("rlc edges are forward");
    g.add_comm(meas, pc, 32.0).expect("rlc edges are forward");
    g.add_comm(ho, enc, 32.0).expect("rlc edges are forward");
    g.add_comm(pc, enc, 32.0).expect("rlc edges are forward");
    enc
}

/// Appends `reps` network-search correlation chains.
fn ns_block(g: &mut TaskGraphBuilder, reps: usize) {
    for r in 0..reps {
        let scan = g.add_task(format!("ns_scan{r}"), ty(PhoneType::NsScan));
        let corr = g.add_task(format!("ns_corr{r}"), ty(PhoneType::NsCorrelate));
        let sync = g.add_task(format!("ns_sync{r}"), ty(PhoneType::NsSync));
        g.add_comm(scan, corr, 128.0).expect("ns edges are forward");
        g.add_comm(corr, sync, 64.0).expect("ns edges are forward");
    }
}

/// Appends the GSM 06.10 encoder + decoder frame pipeline.
fn gsm_block(g: &mut TaskGraphBuilder) {
    let pre = g.add_task("gsm_pre", ty(PhoneType::GsmPre));
    let lpc = g.add_task("gsm_lpc", ty(PhoneType::GsmLpc));
    let ltp = g.add_task("gsm_ltp", ty(PhoneType::GsmLtp));
    let rpe = g.add_task("gsm_rpe", ty(PhoneType::GsmRpe));
    g.add_comm(pre, lpc, 160.0).expect("gsm edges are forward");
    g.add_comm(lpc, ltp, 160.0).expect("gsm edges are forward");
    g.add_comm(ltp, rpe, 160.0).expect("gsm edges are forward");
    let dec = g.add_task("gsm_dec", ty(PhoneType::GsmDec));
    let post = g.add_task("gsm_post", ty(PhoneType::GsmPost));
    g.add_comm(dec, post, 160.0).expect("gsm edges are forward");
}

/// Appends the MP3 decoder (two granules × two channels) ending in an
/// audio-output task.
fn mp3_block(g: &mut TaskGraphBuilder) {
    let out = g.add_task("audio_out", ty(PhoneType::Ui));
    for granule in 0..2 {
        let huff = g.add_task(format!("mp3_huff{granule}"), ty(PhoneType::Huffman));
        let deq = g.add_task(format!("mp3_deq{granule}"), ty(PhoneType::Dequant));
        let stereo = g.add_task(format!("mp3_stereo{granule}"), ty(PhoneType::Stereo));
        g.add_comm(huff, deq, 192.0).expect("mp3 edges are forward");
        g.add_comm(deq, stereo, 192.0).expect("mp3 edges are forward");
        for channel in 0..2 {
            let idct = g.add_task(format!("mp3_imdct{granule}_{channel}"), ty(PhoneType::Idct));
            let synth = g.add_task(format!("mp3_synth{granule}_{channel}"), ty(PhoneType::Synth));
            g.add_comm(stereo, idct, 96.0).expect("mp3 edges are forward");
            g.add_comm(idct, synth, 96.0).expect("mp3 edges are forward");
            g.add_comm(synth, out, 96.0).expect("mp3 edges are forward");
        }
    }
}

/// Appends a JPEG decoder over `mcus` MCU pipelines joined into a display
/// task; returns the display task.
fn jpeg_block(g: &mut TaskGraphBuilder, mcus: usize) -> TaskId {
    let disp = g.add_task("display", ty(PhoneType::Display));
    for m in 0..mcus {
        let huff = g.add_task(format!("jpg_huff{m}"), ty(PhoneType::Huffman));
        let deq = g.add_task(format!("jpg_deq{m}"), ty(PhoneType::Dequant));
        let idct = g.add_task(format!("jpg_idct{m}"), ty(PhoneType::Idct));
        let color = g.add_task(format!("jpg_color{m}"), ty(PhoneType::ColorTransform));
        g.add_comm(huff, deq, 256.0).expect("jpeg edges are forward");
        g.add_comm(deq, idct, 256.0).expect("jpeg edges are forward");
        g.add_comm(idct, color, 256.0).expect("jpeg edges are forward");
        g.add_comm(color, disp, 256.0).expect("jpeg edges are forward");
    }
    disp
}

/// Builds the eight-mode smart-phone system.
///
/// # Examples
///
/// ```
/// let phone = momsynth_gen::smartphone::smartphone();
/// assert_eq!(phone.omsm().mode_count(), 8);
/// // The paper's usage profile: 74% of the time in radio link control.
/// let rlc = phone
///     .omsm()
///     .modes()
///     .find(|(_, m)| m.name() == "rlc")
///     .map(|(_, m)| m.probability())
///     .unwrap();
/// assert!((rlc - 0.74).abs() < 1e-12);
/// ```
pub fn smartphone() -> System {
    // ---- Architecture: one DVS GPP + two ASICs on one bus ----------------
    let mut arch = ArchitectureBuilder::new();
    let gpp = arch.add_pe(Pe::software("GPP", PeKind::Gpp, Watts::from_milli(1.0)).with_dvs(
        DvsCapability::new(
            Volts::new(3.3),
            Volts::new(0.8),
            vec![Volts::new(1.2), Volts::new(1.8), Volts::new(2.4), Volts::new(3.3)],
        ),
    ));
    let codec_asic = arch.add_pe(Pe::hardware(
        "CODEC_ASIC",
        PeKind::Asic,
        Cells::new(1200),
        Watts::from_milli(0.5),
    ));
    let imaging_asic = arch.add_pe(Pe::hardware(
        "IMG_ASIC",
        PeKind::Asic,
        Cells::new(1000),
        Watts::from_milli(0.4),
    ));
    arch.add_cl(Cl::bus(
        "BUS",
        vec![gpp, codec_asic, imaging_asic],
        Seconds::from_micros(0.2),
        Watts::from_milli(3.0),
        Watts::from_milli(0.2),
    ))
    .expect("bus endpoints exist");

    // ---- Technology library ----------------------------------------------
    let mut tech = TechLibraryBuilder::new();
    for &(name, sw_ms, sw_mw, asic, speedup, hw_mw, hw_area) in &TYPES {
        let t = tech.add_type(name);
        tech.set_impl(
            t,
            gpp,
            Implementation::software(Seconds::from_millis(sw_ms), Watts::from_milli(sw_mw)),
        );
        let target = match asic {
            1 => Some(codec_asic),
            2 => Some(imaging_asic),
            _ => None,
        };
        if let Some(pe) = target {
            tech.set_impl(
                t,
                pe,
                Implementation::hardware(
                    Seconds::from_millis(sw_ms / speedup),
                    Watts::from_milli(hw_mw),
                    Cells::new(hw_area),
                ),
            );
        }
    }

    // ---- Modes --------------------------------------------------------------
    let ms = Seconds::from_millis;
    let mut omsm = OmsmBuilder::new();

    // O0: GSM codec + RLC (incoming/outgoing call), 20 ms speech frame.
    let mut g = TaskGraphBuilder::new("gsm_rlc", ms(20.0));
    gsm_block(&mut g);
    rlc_block(&mut g);
    let gsm_rlc = omsm.add_mode("gsm_rlc", 0.09, g.build().expect("valid graph"));

    // O1: Radio Link Control only — where the phone lives 74% of the time.
    let mut g = TaskGraphBuilder::new("rlc", ms(20.0));
    rlc_block(&mut g);
    let rlc = omsm.add_mode("rlc", 0.74, g.build().expect("valid graph"));

    // O2: Network Search.
    let mut g = TaskGraphBuilder::new("network_search", ms(50.0));
    ns_block(&mut g, 4);
    let ns = omsm.add_mode("network_search", 0.01, g.build().expect("valid graph"));

    // O3: decode Photo + RLC — the largest mode (86 tasks).
    let mut g = TaskGraphBuilder::new("photo_rlc", ms(25.0));
    let disp = jpeg_block(&mut g, 20);
    g.set_deadline(disp, ms(24.0)).expect("display task exists");
    rlc_block(&mut g);
    let photo_rlc = omsm.add_mode("photo_rlc", 0.02, g.build().expect("valid graph"));

    // O4: decode Photo + Network Search.
    let mut g = TaskGraphBuilder::new("photo_ns", ms(25.0));
    jpeg_block(&mut g, 16);
    ns_block(&mut g, 1);
    let photo_ns = omsm.add_mode("photo_ns", 0.02, g.build().expect("valid graph"));

    // O5: MP3 play + RLC — fixed 25 ms sampling, as in the paper.
    let mut g = TaskGraphBuilder::new("mp3_rlc", ms(25.0));
    mp3_block(&mut g);
    rlc_block(&mut g);
    let mp3_rlc = omsm.add_mode("mp3_rlc", 0.10, g.build().expect("valid graph"));

    // O6: MP3 play + Network Search.
    let mut g = TaskGraphBuilder::new("mp3_ns", ms(25.0));
    mp3_block(&mut g);
    ns_block(&mut g, 1);
    let mp3_ns = omsm.add_mode("mp3_ns", 0.01, g.build().expect("valid graph"));

    // O7: Take/Show Photo (camera preview + small decode), 15 ms display
    // deadline (the paper's θ = 0.015 s).
    let mut g = TaskGraphBuilder::new("camera", ms(25.0));
    let cam = g.add_task("capture", ty(PhoneType::Camera));
    let disp = jpeg_block(&mut g, 6);
    g.set_deadline(disp, ms(15.0)).expect("display task exists");
    let ui = g.add_task("ui", ty(PhoneType::Ui));
    g.add_comm(cam, disp, 256.0).expect("camera edges are forward");
    g.add_comm(disp, ui, 32.0).expect("camera edges are forward");
    let camera = omsm.add_mode("camera", 0.01, g.build().expect("valid graph"));

    // ---- Transitions (Fig. 1a) --------------------------------------------
    let t = |omsm: &mut OmsmBuilder, a, b, limit_ms: f64| {
        omsm.add_transition(a, b, ms(limit_ms)).expect("transition endpoints exist");
        omsm.add_transition(b, a, ms(limit_ms)).expect("transition endpoints exist");
    };
    t(&mut omsm, ns, rlc, 10.0); // network found / lost
    t(&mut omsm, rlc, gsm_rlc, 5.0); // incoming call / terminate call
    t(&mut omsm, rlc, mp3_rlc, 20.0); // play / terminate audio
    t(&mut omsm, mp3_rlc, mp3_ns, 10.0); // network lost / found
    t(&mut omsm, ns, mp3_ns, 20.0); // play audio while searching
    t(&mut omsm, rlc, photo_rlc, 25.0); // show photo / terminate photo
    t(&mut omsm, photo_rlc, photo_ns, 10.0); // network lost / found
    t(&mut omsm, ns, photo_ns, 25.0);
    t(&mut omsm, rlc, camera, 25.0); // take photo
    t(&mut omsm, camera, photo_rlc, 25.0); // photo taken -> show

    System::new(
        "smartphone",
        omsm.build().expect("probabilities sum to one"),
        arch.build().expect("valid architecture"),
        tech.build(),
    )
    .expect("smart phone is a valid system")
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::ids::PeId;
    use momsynth_sched::{schedule_mode, CoreAllocation, SchedulerOptions, SystemMapping};

    #[test]
    fn has_eight_modes_with_paper_probabilities() {
        let phone = smartphone();
        assert_eq!(phone.omsm().mode_count(), 8);
        let probs: Vec<f64> = phone.omsm().modes().map(|(_, m)| m.probability()).collect();
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((probs[1] - 0.74).abs() < 1e-12);
        assert!((probs[0] - 0.09).abs() < 1e-12);
        assert!((probs[5] - 0.10).abs() < 1e-12);
    }

    #[test]
    fn mode_sizes_match_paper_envelope() {
        let phone = smartphone();
        let mut max_tasks = 0;
        let mut min_tasks = usize::MAX;
        for (_, m) in phone.omsm().modes() {
            let t = m.graph().task_count();
            let e = m.graph().comm_count();
            assert!((5..=88).contains(&t), "{}: {t} tasks", m.graph().name());
            assert!(e <= 137, "{}: {e} edges", m.graph().name());
            max_tasks = max_tasks.max(t);
            min_tasks = min_tasks.min(t);
        }
        // The spread matters: small RLC-only mode vs large photo mode.
        assert_eq!(min_tasks, 5);
        assert!(max_tasks >= 80, "largest mode has {max_tasks} tasks");
    }

    #[test]
    fn architecture_is_one_dvs_gpp_plus_two_asics_on_one_bus() {
        let phone = smartphone();
        assert_eq!(phone.arch().pe_count(), 3);
        assert_eq!(phone.arch().cl_count(), 1);
        assert_eq!(phone.arch().software_pes().count(), 1);
        assert_eq!(phone.arch().hardware_pes().count(), 2);
        assert_eq!(phone.arch().dvs_pes().collect::<Vec<_>>(), vec![PeId::new(0)]);
    }

    #[test]
    fn hardware_is_5_to_100_times_faster() {
        let phone = smartphone();
        for t in phone.tech().type_ids() {
            let sw = phone.tech().impl_of(t, PeId::new(0)).expect("SW impl exists");
            for pe in [PeId::new(1), PeId::new(2)] {
                if let Some(hw) = phone.tech().impl_of(t, pe) {
                    let speedup = sw.exec_time() / hw.exec_time();
                    assert!(
                        (5.0..=100.0).contains(&speedup),
                        "{}: speedup {speedup}",
                        phone.tech().type_name(t)
                    );
                }
            }
        }
    }

    #[test]
    fn codec_types_are_shared_across_modes() {
        let phone = smartphone();
        let shared = phone.shared_types();
        // huffman, dequant and idct serve both MP3 and JPEG pipelines.
        for t in [PhoneType::Huffman, PhoneType::Dequant, PhoneType::Idct] {
            assert!(shared.contains(&t.id()), "{t:?} should be shared");
        }
    }

    #[test]
    fn single_gpp_mapping_is_feasible_in_every_mode() {
        let phone = smartphone();
        let mapping = SystemMapping::from_fn(&phone, |_| PeId::new(0));
        assert!(mapping.validate(&phone).is_ok());
        let alloc = CoreAllocation::minimal(&phone, &mapping);
        for mode in phone.omsm().mode_ids() {
            let s = schedule_mode(&phone, mode, &mapping, &alloc, SchedulerOptions::default())
                .expect("single-GPP schedules");
            assert!(
                s.is_timing_feasible(phone.omsm().mode(mode).graph()),
                "mode {} infeasible on the GPP alone",
                phone.omsm().mode(mode).graph().name()
            );
        }
    }

    #[test]
    fn transitions_cover_the_fig1_activation_scenarios() {
        let phone = smartphone();
        assert!(phone.omsm().transition_count() >= 20);
        // Every mode is reachable and leavable.
        for mode in phone.omsm().mode_ids() {
            assert!(phone.omsm().transitions_from(mode).count() >= 1);
            assert!(
                phone.omsm().transitions().any(|(_, t)| t.to() == mode),
                "mode {mode} unreachable"
            );
        }
    }

    #[test]
    fn construction_is_deterministic() {
        assert_eq!(smartphone(), smartphone());
    }
}
