//! Regenerates Fig. 3 (motivational Example 2): hardware sharing vs
//! multiple task implementations with component shut-down.

use momsynth_gen::examples::{example2_mapping_multiple, example2_mapping_shared, example2_system};
use momsynth_power::{power_report, ModeImplementation};
use momsynth_sched::{schedule_mode, CoreAllocation, SchedulerOptions, SystemMapping};

fn report(system: &momsynth_model::System, mapping: &SystemMapping) -> momsynth_power::PowerReport {
    let alloc = CoreAllocation::minimal(system, mapping);
    let schedules: Vec<_> = system
        .omsm()
        .mode_ids()
        .map(|m| {
            schedule_mode(system, m, mapping, &alloc, SchedulerOptions::default())
                .expect("example 2 schedules cleanly")
        })
        .collect();
    let imps: Vec<ModeImplementation> = schedules.iter().map(ModeImplementation::nominal).collect();
    power_report(system, &imps)
}

fn main() {
    let system = example2_system();
    println!("{}", system.summary());

    let shared = report(&system, &example2_mapping_shared());
    let multiple = report(&system, &example2_mapping_multiple());

    println!("\nFig. 3b — resource sharing (both type-A tasks on the HW core):");
    print!("{shared}");
    println!("\nFig. 3c — multiple implementations (tau4 additionally in SW):");
    print!("{multiple}");
    println!(
        "\nshut-down of PE1+CL0 during O2 saves {:.2} % average power",
        multiple.reduction_vs(&shared)
    );
}
