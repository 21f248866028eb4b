//! Extension figure: how the value of probability-awareness grows with
//! the skew of the usage profile.
//!
//! Sweeps the mode probabilities of the paper's Fig. 2 system from
//! uniform (Ψ₂ = 0.5) to extreme (Ψ₂ = 0.99) and, because the design
//! space has only 2⁶ = 64 mappings, computes the *exact* optimum of both
//! flows by enumeration — no GA noise. The printed series is the
//! reduction column of Table 1 as a function of skew.
//!
//! Alongside stdout, the series is persisted as
//! `results_sweep_probability.{txt,json}` (no [`RunSummary`] records —
//! this binary enumerates exactly instead of running the GA).
//!
//! Usage: `cargo run --release -p momsynth-bench --bin sweep_probability [--out DIR]`

use std::fmt::Write;

use momsynth_bench::HarnessOptions;
use momsynth_core::{Evaluator, GenomeLayout, SynthesisConfig};
use momsynth_gen::examples::example1_system;
use momsynth_model::System;
use serde::Serialize;

/// One point of the skew sweep, serialised to the JSON results file.
#[derive(Serialize)]
struct SweepPoint {
    psi2: f64,
    neglecting_mws: f64,
    aware_mws: f64,
    reduction_percent: f64,
}

/// Exact best reported power (true-Ψ weighted) over all mappings, when
/// the optimiser weights modes by `weights`.
fn exact_optimum(system: &System, probability_aware: bool) -> f64 {
    let mut cfg = SynthesisConfig::new(0);
    cfg.probability_aware = probability_aware;
    let evaluator = Evaluator::new(system, &cfg);
    let layout = GenomeLayout::new(system);
    let mut best_fitness = f64::INFINITY;
    let mut best_power = f64::INFINITY;
    // Enumerate every genome (each locus has exactly 2 candidates here).
    let total: usize = 1 << layout.len();
    for code in 0..total {
        let genes: Vec<u16> = (0..layout.len()).map(|l| ((code >> l) & 1) as u16).collect();
        let solution =
            evaluator.evaluate(layout.decode(&genes), None).expect("example 1 schedules cleanly");
        if !solution.is_feasible() {
            continue;
        }
        if solution.fitness < best_fitness {
            best_fitness = solution.fitness;
            best_power = solution.power.average.as_milli();
        }
    }
    best_power
}

fn main() {
    let options = HarnessOptions::from_args();
    let base = example1_system();
    let mut report = String::new();
    writeln!(report, "exact optima of the Fig. 2 design space vs probability skew").unwrap();
    writeln!(
        report,
        "{:>6} {:>16} {:>16} {:>10}",
        "Ψ(O2)", "neglecting [mWs]", "aware [mWs]", "red. %"
    )
    .unwrap();
    let mut series = Vec::new();
    for psi2 in [0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.99] {
        let omsm =
            base.omsm().with_probabilities(&[1.0 - psi2, psi2]).expect("valid probabilities");
        let system = System::new(
            format!("example1_psi{psi2}"),
            omsm,
            base.arch().clone(),
            base.tech().clone(),
        )
        .expect("valid system");
        let aware = exact_optimum(&system, true);
        let neglecting = exact_optimum(&system, false);
        let reduction = (1.0 - aware / neglecting) * 100.0;
        writeln!(report, "{psi2:>6.2} {neglecting:>16.4} {aware:>16.4} {reduction:>10.2}").unwrap();
        series.push(SweepPoint {
            psi2,
            neglecting_mws: neglecting,
            aware_mws: aware,
            reduction_percent: reduction,
        });
    }
    writeln!(report, "\n(at Ψ = 0.5 the flows coincide; the gap grows with skew — the").unwrap();
    writeln!(report, " quantitative core of the paper's argument)").unwrap();
    print!("{report}");

    let txt_path = options.results_path("sweep_probability", "txt");
    if let Err(e) = std::fs::write(&txt_path, &report) {
        eprintln!("warning: cannot write {}: {e}", txt_path.display());
    } else {
        println!("wrote {}", txt_path.display());
    }
    let json_path = options.results_path("sweep_probability", "json");
    let json = serde_json::to_string_pretty(&series).expect("series serialises");
    if let Err(e) = std::fs::write(&json_path, json) {
        eprintln!("warning: cannot write {}: {e}", json_path.display());
    } else {
        println!("wrote {}", json_path.display());
    }
}
