//! Co-synthesis of the smart-phone real-life benchmark (paper Fig. 1a,
//! Table 3): one probability-aware DVS run with a per-mode power
//! breakdown.
//!
//! Run with: `cargo run --release --example smartphone`

use momsynth::generators::smartphone::smartphone;
use momsynth::synthesis::{SynthesisConfig, Synthesizer};

fn main() {
    let phone = smartphone();
    println!("{}", phone.summary());
    for (_, m) in phone.omsm().modes() {
        println!(
            "  {:<16} Ψ={:<5.2} {:>3} tasks {:>4} edges, period {:.1} ms",
            m.name(),
            m.probability(),
            m.graph().task_count(),
            m.graph().comm_count(),
            m.graph().period().as_millis(),
        );
    }

    println!("\nsynthesising (probability-aware, DVS on the GPP) …");
    let result = Synthesizer::new(&phone, SynthesisConfig::fast_preset(11).with_dvs())
        .run()
        .expect("schedulable system");

    println!(
        "\naverage power: {:.4} mW after {} generations ({} evaluations, {:.1} s), feasible: {}",
        result.best.power.average.as_milli(),
        result.generations,
        result.evaluations,
        result.wall_time.as_secs_f64(),
        result.best.is_feasible(),
    );
    println!("\nper-mode breakdown:");
    print!("{}", result.best.power);

    println!("\ncomponent shut-down per mode:");
    for (mode, m) in phone.omsm().modes() {
        let on: Vec<&str> = result.best.power.modes[mode.index()]
            .active_pes
            .iter()
            .map(|&pe| phone.arch().pe(pe).name())
            .collect();
        println!("  {:<16} -> {}", m.name(), on.join(" + "));
    }
}
