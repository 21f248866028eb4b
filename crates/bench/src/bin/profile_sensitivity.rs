//! Usage-profile sensitivity study (an extension beyond the paper's
//! experiments, enabled by its own observation that "mode probabilities
//! vary from user to user"): synthesise the smart phone for three user
//! profiles derived from semi-Markov usage models and compare both the
//! resulting implementations and the cost of running the *wrong* user's
//! implementation.
//!
//! Usage: `cargo run --release -p momsynth-bench --bin profile_sensitivity [--runs N] [--seed S] [--quick] [--out DIR]`

use std::fmt::Write;

use momsynth_bench::{write_results, HarnessOptions};
use momsynth_core::{Evaluator, SynthesisResult, Synthesizer};
use momsynth_dvs::DvsOptions;
use momsynth_gen::smartphone::smartphone;
use momsynth_model::units::Seconds;
use momsynth_model::usage::UsageModel;
use momsynth_model::System;
use momsynth_telemetry::RunSummary;

/// Builds a usage profile as (sojourn seconds, ring weights) over the
/// phone's 8 modes: gsm_rlc, rlc, network_search, photo_rlc, photo_ns,
/// mp3_rlc, mp3_ns, camera.
fn profile(sojourns: [f64; 8]) -> Vec<f64> {
    let mut usage = UsageModel::new(8);
    for (i, &s) in sojourns.iter().enumerate() {
        usage.set_sojourn(i, Seconds::new(s));
    }
    // Everything cycles through the RLC hub (mode 1), like Fig. 1a.
    for m in [0, 2, 3, 4, 5, 6, 7] {
        usage.set_transition_weight(1, m, 1.0);
        usage.set_transition_weight(m, 1, 1.0);
    }
    usage.mode_probabilities().expect("profiles are ergodic")
}

fn main() {
    let options = HarnessOptions::from_args();
    let base = smartphone();
    let mut summaries: Vec<RunSummary> = Vec::new();
    let mut report = String::new();

    // Sojourn seconds per visit: [gsm_rlc, rlc, ns, photo_rlc, photo_ns,
    // mp3_rlc, mp3_ns, camera].
    let profiles: [(&str, [f64; 8]); 3] = [
        ("talker", [600.0, 900.0, 10.0, 5.0, 5.0, 30.0, 5.0, 5.0]),
        ("music_lover", [60.0, 400.0, 10.0, 5.0, 5.0, 1800.0, 60.0, 5.0]),
        ("photographer", [60.0, 400.0, 10.0, 300.0, 30.0, 60.0, 5.0, 300.0]),
    ];

    // Synthesise one implementation per profile.
    let mut systems: Vec<(String, System)> = Vec::new();
    for (name, sojourns) in &profiles {
        let psi = profile(*sojourns);
        let omsm = base.omsm().with_probabilities(&psi).expect("valid probabilities");
        let system = System::new(
            format!("smartphone_{name}"),
            omsm,
            base.arch().clone(),
            base.tech().clone(),
        )
        .expect("valid system");
        systems.push((name.to_string(), system));
    }

    writeln!(report, "derived mode probabilities:").unwrap();
    for (name, system) in &systems {
        let psi: Vec<String> = system
            .omsm()
            .modes()
            .map(|(_, m)| format!("{}={:.2}", m.name(), m.probability()))
            .collect();
        writeln!(report, "  {:<13} {}", name, psi.join("  ")).unwrap();
    }

    let mut results = Vec::new();
    for (name, system) in &systems {
        eprintln!("synthesising for {name} ({} runs) …", options.runs);
        let mut best: Option<SynthesisResult> = None;
        for i in 0..options.runs {
            let cfg = options.config(options.base_seed + i, true, true);
            let synthesizer = Synthesizer::new(system, cfg);
            let result = synthesizer.run().expect("schedulable system");
            if let Some(summary) = momsynth_bench::verified_summary(system, &synthesizer, &result) {
                summaries.push(summary);
            }
            if best.as_ref().is_none_or(|b| result.best.fitness < b.best.fitness) {
                best = Some(result);
            }
        }
        let result = best.expect("at least one run");
        writeln!(
            report,
            "\n{name}: {:.4} mW (feasible: {})",
            result.best.power.average.as_milli(),
            result.best.is_feasible()
        )
        .unwrap();
        results.push((name.clone(), result));
    }

    // Cross-evaluation: what does user B pay for running user A's mapping?
    writeln!(
        report,
        "\ncross-evaluation (rows: mapping optimised for; columns: actual user) [mW]:"
    )
    .unwrap();
    write!(report, "{:<13}", "").unwrap();
    for (name, _) in &systems {
        write!(report, " {name:>13}").unwrap();
    }
    writeln!(report).unwrap();
    for (row_name, result) in &results {
        write!(report, "{row_name:<13}").unwrap();
        for (_, system) in &systems {
            let cfg = options.config(options.base_seed, true, true);
            let evaluator = Evaluator::new(system, &cfg);
            let solution = evaluator
                .evaluate(result.best.mapping.clone(), Some(&DvsOptions::fine()))
                .expect("mapping transfers across profiles");
            write!(report, " {:>13.4}", solution.power.average.as_milli()).unwrap();
        }
        writeln!(report).unwrap();
    }
    writeln!(report, "\n(each column's minimum should sit on or near the diagonal: a user is served best\n by an implementation synthesised for a profile like theirs, and running a very\n different user's implementation can cost integer factors)").unwrap();

    print!("{report}");
    write_results(&options, "profile_sensitivity", &report, &summaries);
}
