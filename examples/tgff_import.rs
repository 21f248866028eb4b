//! Importing a TGFF-dialect specification and synthesising it.
//!
//! Run with: `cargo run --example tgff_import`

use momsynth::analyze::analyze_system;
use momsynth::generators::tgff::parse_system;
use momsynth::synthesis::{SynthesisConfig, Synthesizer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/assets/sample.tgff");
    let text = std::fs::read_to_string(path)?;
    let system = parse_system("sample", &text)?;
    println!("{}", system.summary());
    println!("{}", analyze_system(&system));

    let result = Synthesizer::new(&system, SynthesisConfig::fast_preset(2).with_dvs())
        .run()
        .expect("schedulable system");
    print!("{}", result.best.describe(&system));
    println!(
        "synthesis: {} generations, {} evaluations, {:.2} s",
        result.generations,
        result.evaluations,
        result.wall_time.as_secs_f64()
    );
    Ok(())
}
