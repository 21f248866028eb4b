//! Regenerates Fig. 2 (motivational Example 1): evaluates the paper's two
//! hand-derived mappings exactly, then lets the synthesizer rediscover
//! the probability-aware optimum.

use momsynth_core::{SynthesisConfig, Synthesizer};
use momsynth_gen::examples::{
    example1_mapping_aware, example1_mapping_neglecting, example1_system,
};
use momsynth_power::{power_report, ModeImplementation};
use momsynth_sched::{schedule_mode, CoreAllocation, SchedulerOptions, SystemMapping};

fn evaluate(system: &momsynth_model::System, mapping: &SystemMapping) -> f64 {
    let alloc = CoreAllocation::minimal(system, mapping);
    let schedules: Vec<_> = system
        .omsm()
        .mode_ids()
        .map(|m| {
            schedule_mode(system, m, mapping, &alloc, SchedulerOptions::default())
                .expect("example 1 schedules cleanly")
        })
        .collect();
    let imps: Vec<ModeImplementation> = schedules.iter().map(ModeImplementation::nominal).collect();
    power_report(system, &imps).average.as_milli()
}

fn main() {
    let system = example1_system();
    println!("{}", system.summary());

    let neglecting = evaluate(&system, &example1_mapping_neglecting());
    let aware = evaluate(&system, &example1_mapping_aware());
    println!("Fig. 2b (probability-neglecting mapping): {neglecting:.4} mWs  (paper: 26.7158)");
    println!("Fig. 2c (probability-aware mapping):      {aware:.4} mWs  (paper: 15.7423)");
    println!("reduction: {:.1} % (paper: 41 %)", (1.0 - aware / neglecting) * 100.0);

    // The synthesizer should rediscover the Fig. 2c optimum (best of a
    // few seeds, as the paper's 40-run averaging does).
    let result = (0..5)
        .map(|seed| {
            Synthesizer::new(&system, SynthesisConfig::fast_preset(seed))
                .run()
                .expect("schedulable system")
        })
        .min_by(|a, b| a.best.fitness.total_cmp(&b.best.fitness))
        .expect("at least one run");
    println!(
        "GA rediscovery (best of 5 seeds): {:.4} mWs with mapping {}",
        result.best.power.average.as_milli(),
        result.best.mapping.mapping_string()
    );
}
