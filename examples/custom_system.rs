//! Building a custom multi-mode system with the builder API, persisting
//! it as JSON (the whole model is serde-serialisable) and synthesising
//! the reloaded copy.
//!
//! Run with: `cargo run --example custom_system`

use momsynth::model::ids::TaskTypeId;
use momsynth::model::units::{Cells, Seconds, Watts};
use momsynth::model::{
    ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, System, TaskGraphBuilder,
    TechLibraryBuilder,
};
use momsynth::synthesis::{SynthesisConfig, Synthesizer};

/// A sensor node: "sample" mode (frequent) and "burst upload" mode (rare).
fn build() -> Result<System, Box<dyn std::error::Error>> {
    let mut tech = TechLibraryBuilder::new();
    let sample: TaskTypeId = tech.add_type("sample");
    let filter = tech.add_type("filter");
    let pack = tech.add_type("pack");
    let crypto = tech.add_type("crypto");

    let mut arch = ArchitectureBuilder::new();
    let mcu = arch.add_pe(Pe::software("MCU", PeKind::Gpp, Watts::from_milli(0.2)));
    let acc = arch.add_pe(
        Pe::hardware("CRYPTO_ACC", PeKind::Fpga, Cells::new(800), Watts::from_milli(0.8))
            .with_reconfig_time_per_cell(Seconds::from_micros(2.0)),
    );
    arch.add_cl(Cl::bus(
        "SPI",
        vec![mcu, acc],
        Seconds::from_micros(4.0),
        Watts::from_milli(1.0),
        Watts::from_milli(0.1),
    ))?;

    tech.set_impl(
        sample,
        mcu,
        Implementation::software(Seconds::from_millis(1.0), Watts::from_milli(50.0)),
    );
    tech.set_impl(
        filter,
        mcu,
        Implementation::software(Seconds::from_millis(4.0), Watts::from_milli(150.0)),
    );
    tech.set_impl(
        pack,
        mcu,
        Implementation::software(Seconds::from_millis(2.0), Watts::from_milli(100.0)),
    );
    tech.set_impl(
        crypto,
        mcu,
        Implementation::software(Seconds::from_millis(18.0), Watts::from_milli(300.0)),
    );
    tech.set_impl(
        crypto,
        acc,
        Implementation::hardware(
            Seconds::from_millis(0.6),
            Watts::from_milli(5.0),
            Cells::new(500),
        ),
    );

    let mut sampling = TaskGraphBuilder::new("sampling", Seconds::from_millis(20.0));
    let s = sampling.add_task("sample", sample);
    let f = sampling.add_task("filter", filter);
    sampling.add_comm(s, f, 64.0)?;

    let mut upload = TaskGraphBuilder::new("upload", Seconds::from_millis(40.0));
    let p = upload.add_task("pack", pack);
    let c = upload.add_task("encrypt", crypto);
    upload.add_comm(p, c, 512.0)?;

    let mut omsm = OmsmBuilder::new();
    let m_sampling = omsm.add_mode("sampling", 0.97, sampling.build()?);
    let m_upload = omsm.add_mode("upload", 0.03, upload.build()?);
    omsm.add_transition(m_sampling, m_upload, Seconds::from_millis(8.0))?;
    omsm.add_transition(m_upload, m_sampling, Seconds::from_millis(8.0))?;

    Ok(System::new("sensor_node", omsm.build()?, arch.build()?, tech.build())?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = build()?;

    // Persist and reload: System (and every sub-model) round-trips through
    // serde, so specifications can live in version control as JSON.
    let path = std::env::temp_dir().join("momsynth_sensor_node.json");
    std::fs::write(&path, serde_json::to_string_pretty(&system)?)?;
    let reloaded: System = serde_json::from_str(&std::fs::read_to_string(&path)?)?;
    assert_eq!(reloaded, system);
    println!("round-tripped through {}", path.display());

    let result = Synthesizer::new(&reloaded, SynthesisConfig::fast_preset(5))
        .run()
        .expect("schedulable system");
    println!("{}", reloaded.summary());
    println!(
        "best implementation: {:.4} mW, feasible: {}, mapping {}",
        result.best.power.average.as_milli(),
        result.best.is_feasible(),
        result.best.mapping.mapping_string()
    );
    for t in &result.best.transitions {
        println!(
            "  transition {}: reconfiguration {:.3} ms (limit {:.1} ms)",
            t.transition,
            t.time.as_millis(),
            t.limit.as_millis()
        );
    }
    Ok(())
}
