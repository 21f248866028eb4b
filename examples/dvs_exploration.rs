//! Exploring the voltage-scaling layer by hand: the alpha-power delay
//! model, discrete-level voltage schedules and the Fig. 5 transformation
//! of parallel hardware cores.
//!
//! Run with: `cargo run --example dvs_exploration`

use momsynth::dvs::{scale_mode, virtual_tasks, DvsOptions, VoltageModel, VoltageSchedule};
use momsynth::generators::suite::{generate, GeneratorParams};
use momsynth::model::arch::DvsCapability;
use momsynth::model::ids::ModeId;
use momsynth::model::units::{Seconds, Volts};
use momsynth::sched::{schedule_mode, CoreAllocation, SchedulerOptions, SystemMapping};

fn main() {
    // 1. The delay/energy model of a 3.3 V rail with 0.8 V threshold.
    let model = VoltageModel::new(Volts::new(3.3), Volts::new(0.8));
    println!("voltage  stretch  energy-factor");
    for v in [3.3, 2.4, 1.8, 1.2] {
        let v = Volts::new(v);
        println!("{:>6.1} V {:>8.3} {:>14.3}", v.value(), model.stretch(v), model.energy_factor(v));
    }

    // 2. Fitting a discrete voltage schedule: a 10 ms task with 6 ms slack.
    let cap = DvsCapability::new(
        Volts::new(3.3),
        Volts::new(0.8),
        vec![Volts::new(1.2), Volts::new(1.8), Volts::new(2.4), Volts::new(3.3)],
    );
    let schedule =
        VoltageSchedule::fit(&cap, &model, Seconds::from_millis(10.0), Seconds::from_millis(16.0));
    println!("\n10 ms task stretched to 16 ms:");
    for seg in schedule.segments() {
        println!(
            "  {:.2} V for {:.3} ms ({:.0} % of cycles)",
            seg.voltage.value(),
            seg.duration.as_millis(),
            seg.cycle_fraction * 100.0
        );
    }
    println!("  energy factor: {:.3}", schedule.energy_factor(&model));

    // 3. Whole-mode scaling with the Fig. 5 hardware transformation.
    let mut params = GeneratorParams::new("explore", 3);
    params.modes = 1;
    params.tasks_per_mode = (12, 12);
    params.slack_factor = 1.9;
    let system = generate(&params);
    let hw = system.arch().hardware_pes().next().expect("generated HW PE");
    let mapping = SystemMapping::from_fn(&system, |id| {
        let candidates = system.candidate_pes(id);
        *candidates.iter().find(|&&pe| pe == hw).unwrap_or(&candidates[0])
    });
    let alloc = CoreAllocation::minimal(&system, &mapping);
    let sched =
        schedule_mode(&system, ModeId::new(0), &mapping, &alloc, SchedulerOptions::default())
            .expect("generated system schedules");

    let groups = virtual_tasks(&system, &sched, hw);
    println!(
        "\n{} tasks on {} merge into {} virtual task(s) for single-rail scaling",
        sched.tasks().filter(|t| t.pe == hw).count(),
        system.arch().pe(hw).name(),
        groups.len()
    );

    let scaled = scale_mode(&system, &sched, &DvsOptions::fine());
    let saved: f64 =
        1.0 - scaled.energy_factors().iter().sum::<f64>() / scaled.energy_factors().len() as f64;
    println!(
        "PV-DVS distributed the slack in {} steps; mean per-task energy factor {:.3} ({:.0} % saved)",
        scaled.iterations(),
        1.0 - saved,
        saved * 100.0
    );
}
