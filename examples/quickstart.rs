//! Quickstart: build a small two-mode system, synthesise it with and
//! without mode execution probabilities, and compare the average power.
//!
//! Run with: `cargo run --example quickstart`

use momsynth::model::units::{Cells, Seconds, Volts, Watts};
use momsynth::model::{
    ArchitectureBuilder, Cl, DvsCapability, Implementation, OmsmBuilder, Pe, PeKind, System,
    TaskGraphBuilder, TechLibraryBuilder,
};
use momsynth::synthesis::{SynthesisConfig, Synthesizer};

fn build_system() -> Result<System, Box<dyn std::error::Error>> {
    // Technology library: three coarse-grained task types.
    let mut tech = TechLibraryBuilder::new();
    let fft = tech.add_type("FFT");
    let fir = tech.add_type("FIR");
    let ctl = tech.add_type("CTRL");

    // Architecture: a DVS-enabled CPU and an ASIC on one bus.
    let mut arch = ArchitectureBuilder::new();
    let cpu = arch.add_pe(Pe::software("CPU", PeKind::Gpp, Watts::from_milli(0.5)).with_dvs(
        DvsCapability::new(
            Volts::new(3.3),
            Volts::new(0.8),
            vec![Volts::new(1.2), Volts::new(1.8), Volts::new(2.4), Volts::new(3.3)],
        ),
    ));
    let asic =
        arch.add_pe(Pe::hardware("ASIC", PeKind::Asic, Cells::new(600), Watts::from_milli(1.5)));
    arch.add_cl(Cl::bus(
        "BUS",
        vec![cpu, asic],
        Seconds::from_micros(1.0),
        Watts::from_milli(2.0),
        Watts::from_milli(0.3),
    ))?;

    // Implementation alternatives: hardware is much faster and cheaper per
    // execution, but keeps the ASIC (and bus) powered.
    tech.set_impl(
        fft,
        cpu,
        Implementation::software(Seconds::from_millis(12.0), Watts::from_milli(300.0)),
    );
    tech.set_impl(
        fft,
        asic,
        Implementation::hardware(
            Seconds::from_millis(0.8),
            Watts::from_milli(8.0),
            Cells::new(280),
        ),
    );
    tech.set_impl(
        fir,
        cpu,
        Implementation::software(Seconds::from_millis(8.0), Watts::from_milli(250.0)),
    );
    tech.set_impl(
        fir,
        asic,
        Implementation::hardware(
            Seconds::from_millis(0.5),
            Watts::from_milli(6.0),
            Cells::new(220),
        ),
    );
    tech.set_impl(
        ctl,
        cpu,
        Implementation::software(Seconds::from_millis(2.0), Watts::from_milli(120.0)),
    );

    // Mode "active" (10% of the time): FFT -> FIR -> CTRL per 30 ms frame.
    let mut active = TaskGraphBuilder::new("active", Seconds::from_millis(30.0));
    let a_fft = active.add_task("fft", fft);
    let a_fir = active.add_task("fir", fir);
    let a_ctl = active.add_task("ctrl", ctl);
    active.add_comm(a_fft, a_fir, 128.0)?;
    active.add_comm(a_fir, a_ctl, 32.0)?;

    // Mode "monitor" (90% of the time): a single FIR + CTRL per 50 ms.
    let mut monitor = TaskGraphBuilder::new("monitor", Seconds::from_millis(50.0));
    let m_fir = monitor.add_task("fir", fir);
    let m_ctl = monitor.add_task("ctrl", ctl);
    monitor.add_comm(m_fir, m_ctl, 32.0)?;

    let mut omsm = OmsmBuilder::new();
    let m_active = omsm.add_mode("active", 0.1, active.build()?);
    let m_monitor = omsm.add_mode("monitor", 0.9, monitor.build()?);
    omsm.add_transition(m_active, m_monitor, Seconds::from_millis(5.0))?;
    omsm.add_transition(m_monitor, m_active, Seconds::from_millis(5.0))?;

    Ok(System::new("quickstart", omsm.build()?, arch.build()?, tech.build())?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = build_system()?;
    println!("{}\n", system.summary());

    // Proposed flow: optimise with the real usage profile, DVS enabled.
    let aware = Synthesizer::new(&system, SynthesisConfig::fast_preset(7).with_dvs())
        .run()
        .expect("schedulable system");
    // Baseline: same flow, probabilities ignored during optimisation.
    let neglecting = Synthesizer::new(
        &system,
        SynthesisConfig::fast_preset(7).with_dvs().probability_neglecting(),
    )
    .run()
    .expect("schedulable system");

    println!(
        "probability-aware:      {:.4} mW (feasible: {})",
        aware.best.power.average.as_milli(),
        aware.best.is_feasible()
    );
    println!(
        "probability-neglecting: {:.4} mW (feasible: {})",
        neglecting.best.power.average.as_milli(),
        neglecting.best.is_feasible()
    );
    println!("reduction: {:.1} %\n", aware.best.power.reduction_vs(&neglecting.best.power));

    println!("best mapping (per-mode task -> PE): {}", aware.best.mapping.mapping_string());
    for (mode, m) in system.omsm().modes() {
        let active: Vec<String> = aware
            .best
            .mapping
            .active_pes(mode)
            .iter()
            .map(|&pe| system.arch().pe(pe).name().to_owned())
            .collect();
        println!(
            "  mode {:<8} (Ψ={:.2}): powered PEs: {}",
            m.name(),
            m.probability(),
            active.join(", ")
        );
    }

    println!("\nGantt of mode `active`:");
    print!("{}", aware.best.schedules[0].to_gantt_string(&system));
    Ok(())
}
