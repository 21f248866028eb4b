//! Co-synthesis of the automotive ADAS controller: hard deadlines, FPGA
//! reconfiguration between modes, and waveform/utilisation inspection of
//! the result.
//!
//! Run with: `cargo run --release --example automotive`

use momsynth::generators::automotive::automotive_ecu;
use momsynth::sched::{schedule_stats, schedule_to_vcd};
use momsynth::synthesis::{SynthesisConfig, Synthesizer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ecu = automotive_ecu();
    println!("{}", ecu.summary());

    let result = Synthesizer::new(&ecu, SynthesisConfig::fast_preset(3).with_dvs())
        .run()
        .expect("schedulable system");
    print!("{}", result.best.describe(&ecu));

    // Per-resource utilisation of the dominant mode.
    let cruise = &result.best.schedules[0];
    let stats = schedule_stats(&ecu, cruise);
    println!(
        "cruise mode: makespan {:.3} ms of {:.1} ms period, mean utilisation {:.0} %",
        stats.makespan.as_millis(),
        stats.period.as_millis(),
        stats.mean_utilization() * 100.0
    );
    if let Some(bottleneck) = stats.bottleneck() {
        println!(
            "bottleneck resource: {:?} at {:.0} % utilisation",
            bottleneck.resource,
            bottleneck.utilization * 100.0
        );
    }

    // Waveform trace of the cruise mode for GTKWave.
    let path = std::env::temp_dir().join("momsynth_cruise.vcd");
    std::fs::write(&path, schedule_to_vcd(&ecu, cruise))?;
    println!("wrote {} (open with GTKWave)", path.display());
    Ok(())
}
