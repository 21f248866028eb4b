//! Ablations of the design decisions called out in `DESIGN.md`:
//!
//! * **D2** — the four improvement mutation operators on/off;
//! * **D3** — hardware-rail DVS (Fig. 5 transform) vs software-only DVS;
//! * **D4** — core replication for parallel low-mobility tasks on/off;
//! * **D5** — mobility-priority list scheduling vs FIFO ordering.
//!
//! Each ablation synthesises the same benchmark with one knob flipped and
//! reports the achieved average power (mean over runs).
//!
//! Usage: `cargo run --release -p momsynth-bench --bin ablations [--runs N] [--seed S] [--quick] [--out DIR]`

use std::fmt::Write;

use momsynth_bench::{write_results, HarnessOptions};
use momsynth_core::{DvsSynthesisOptions, SynthesisConfig, Synthesizer};
use momsynth_gen::suite::{generate, mul, GeneratorParams};
use momsynth_model::units::{Cells, Seconds, Volts, Watts};
use momsynth_model::{
    ArchitectureBuilder, Cl, DvsCapability, Implementation, OmsmBuilder, Pe, PeKind, System,
    TaskGraphBuilder, TechLibraryBuilder,
};
use momsynth_telemetry::RunSummary;

/// A tight workload that actually stresses core replication and list
/// scheduling: few types, many tasks, little slack, two DVS-capable
/// hardware PEs.
fn tight_system() -> System {
    let mut params = GeneratorParams::new("ablation_tight", 97);
    params.modes = 2;
    params.tasks_per_mode = (20, 24);
    params.type_pool = 2; // many same-type tasks -> replication matters
    params.hardware_pes = 2;
    params.dvs_hardware_pes = 2;
    params.slack_factor = 1.06;
    generate(&params)
}

/// Six independent type-A tasks against a period that needs three
/// parallel hardware cores: replication (D4) decides feasibility.
fn replication_system() -> System {
    let mut tech = TechLibraryBuilder::new();
    let ta = tech.add_type("A");
    let mut arch = ArchitectureBuilder::new();
    let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(2.0)));
    let hw = arch.add_pe(
        Pe::hardware("hw", PeKind::Asic, Cells::new(2_000), Watts::from_milli(1.0)).with_dvs(
            DvsCapability::new(
                Volts::new(3.3),
                Volts::new(0.8),
                vec![Volts::new(1.2), Volts::new(1.8), Volts::new(2.4), Volts::new(3.3)],
            ),
        ),
    );
    arch.add_cl(Cl::bus(
        "bus",
        vec![cpu, hw],
        Seconds::from_micros(1.0),
        Watts::from_milli(1.0),
        Watts::from_milli(0.2),
    ))
    .expect("valid bus");
    // SW: 40 ms @ 300 mW; HW: 10 ms @ 5 mW, 300 cells.
    tech.set_impl(
        ta,
        cpu,
        Implementation::software(Seconds::from_millis(40.0), Watts::from_milli(300.0)),
    );
    tech.set_impl(
        ta,
        hw,
        Implementation::hardware(
            Seconds::from_millis(10.0),
            Watts::from_milli(5.0),
            Cells::new(300),
        ),
    );
    // Six independent tasks in an 11 ms period: SW impossible (240 ms),
    // one HW core impossible (60 ms) — only six replicated cores fit, and
    // the 1 ms mobility is low enough to trigger replication.
    let mut g = TaskGraphBuilder::new("burst", Seconds::from_millis(11.0));
    for i in 0..6 {
        g.add_task(format!("t{i}"), ta);
    }
    let mut omsm = OmsmBuilder::new();
    omsm.add_mode("burst", 1.0, g.build().expect("valid graph"));
    System::new(
        "replication",
        omsm.build().expect("valid OMSM"),
        arch.build().expect("valid architecture"),
        tech.build(),
    )
    .expect("valid system")
}

/// Mean reported power and feasible fraction over the runs; appends one
/// [`RunSummary`] per run to `summaries`.
fn measure(
    system: &System,
    options: &HarnessOptions,
    summaries: &mut Vec<RunSummary>,
    make: impl Fn(u64) -> SynthesisConfig,
) -> (f64, f64) {
    let mut power = 0.0;
    let mut feasible = 0u64;
    for i in 0..options.runs {
        let synthesizer = Synthesizer::new(system, make(options.base_seed + i));
        let result = synthesizer.run().expect("schedulable system");
        power += result.best.power.average.as_milli();
        if result.best.is_feasible() {
            feasible += 1;
        }
        if let Some(summary) = momsynth_bench::verified_summary(system, &synthesizer, &result) {
            summaries.push(summary);
        }
    }
    (power / options.runs as f64, feasible as f64 / options.runs as f64)
}

fn main() {
    let options = HarnessOptions::from_args();
    let bench = mul(6);
    let tight = tight_system();
    let mut summaries = Vec::new();
    let mut report = String::new();

    writeln!(report, "Ablations ({} runs each)", options.runs).unwrap();
    writeln!(report, "{:<48} {:>14} {:>10}", "variant", "power [mW]", "feasible").unwrap();
    writeln!(report, "{}", "-".repeat(76)).unwrap();
    writeln!(report, "(power is only meaningful at feasible = 1.00)").unwrap();

    // D2: improvement operators.
    for (label, on) in
        [("D2 improvement operators ON (default)", true), ("D2 improvement operators OFF", false)]
    {
        let (p, f) = measure(&bench, &options, &mut summaries, |seed| {
            let mut cfg = options.config(seed, true, false);
            if !on {
                cfg.ga.improvement_rate = 0.0;
            }
            cfg
        });
        writeln!(report, "{label:<48} {p:>14.4} {f:>10.2}").unwrap();
    }

    // D3: hardware-rail DVS on mul6, whose two hardware PEs are
    // DVS-enabled.
    for (label, sw_only) in
        [("D3 DVS on SW+HW rails (default)", false), ("D3 DVS on SW rails only", true)]
    {
        let (p, f) = measure(&bench, &options, &mut summaries, |seed| {
            let mut cfg = options.config(seed, true, true);
            cfg.dvs = Some(if sw_only {
                DvsSynthesisOptions::software_only()
            } else {
                DvsSynthesisOptions::default()
            });
            cfg
        });
        writeln!(report, "{label:<48} {p:>14.4} {f:>10.2}").unwrap();
    }

    // D4: core replication, on a burst workload where only replicated
    // cores can meet the period.
    let burst = replication_system();
    for (label, replicate) in
        [("D4 core replication ON (default)", true), ("D4 core replication OFF", false)]
    {
        let (p, f) = measure(&burst, &options, &mut summaries, |seed| {
            let mut cfg = options.config(seed, true, true);
            cfg.alloc.replicate = replicate;
            cfg
        });
        writeln!(report, "{label:<48} {p:>14.4} {f:>10.2}").unwrap();
    }

    // D5: scheduler priority rule, on the tight workload where ordering
    // decides deadline feasibility.
    for (label, priority) in [
        ("D5 mobility priorities (default)", momsynth_sched::Priority::Mobility),
        ("D5 FIFO priorities", momsynth_sched::Priority::Fifo),
    ] {
        let (p, f) = measure(&tight, &options, &mut summaries, |seed| {
            let mut cfg = options.config(seed, true, false);
            cfg.scheduler.priority = priority;
            cfg
        });
        writeln!(report, "{label:<48} {p:>14.4} {f:>10.2}").unwrap();
    }

    print!("{report}");
    write_results(&options, "ablations", &report, &summaries);
}
