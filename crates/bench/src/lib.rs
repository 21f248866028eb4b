//! Shared harness for regenerating the paper's tables and figures.
//!
//! Every binary in this crate reproduces one experiment:
//!
//! | binary | regenerates |
//! |--------|-------------|
//! | `table1` | Table 1 — mul1–mul12 without DVS |
//! | `table2` | Table 2 — mul1–mul12 with DVS |
//! | `table3` | Table 3 — smart phone, with and without DVS |
//! | `fig2_example1` | Fig. 2 — motivational Example 1 (exact energies) |
//! | `fig3_example2` | Fig. 3 — multiple task implementations |
//! | `fig5_transform` | Fig. 5 — DVS transformation of HW cores |
//! | `ablations` | design-decision ablations D2–D5 |
//!
//! Absolute numbers will not match the paper (the workloads are
//! regenerated and the hardware numbers synthesised), but the *shape* —
//! who wins, roughly by how much, and where DVS helps — is asserted by
//! the integration tests in the workspace root.
//!
//! Alongside the human-readable `results_<name>.txt` table, each table
//! binary persists the per-run [`RunSummary`] records as
//! `results_<name>.json` so downstream tooling can consume the raw
//! numbers without scraping stdout. Use `--out DIR` to pick the
//! destination directory.

#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::time::Instant;

use momsynth_core::{invariant_breach, SynthesisConfig, SynthesisResult, Synthesizer};
use momsynth_model::System;
use momsynth_telemetry::RunSummary;

/// One row of a Table 1/2-style comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Benchmark name.
    pub name: String,
    /// Number of operational modes.
    pub modes: usize,
    /// Average power (mW) of the probability-neglecting flow.
    pub power_neglecting_mw: f64,
    /// Mean optimisation wall time (s) of the neglecting flow.
    pub time_neglecting_s: f64,
    /// Average power (mW) of the proposed probability-aware flow.
    pub power_aware_mw: f64,
    /// Mean optimisation wall time (s) of the proposed flow.
    pub time_aware_s: f64,
    /// Fraction of runs whose best solution met all constraints.
    pub feasible_fraction: f64,
    /// Mean relative optimality gap `(p̄ − p̄_LB)/p̄_LB` of the aware
    /// flow's runs against the static power lower bound, in percent.
    pub optimality_gap_percent: f64,
    /// Whether every run behind this row passed the independent
    /// `momsynth-check` re-verification. Unverified rows must not be
    /// persisted — see [`retain_verified`].
    pub verified: bool,
}

impl ComparisonRow {
    /// Power reduction of the proposed flow in percent.
    pub fn reduction_percent(&self) -> f64 {
        if self.power_neglecting_mw == 0.0 {
            return 0.0;
        }
        (1.0 - self.power_aware_mw / self.power_neglecting_mw) * 100.0
    }
}

/// Harness options shared by the table binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOptions {
    /// Optimisation repetitions per flow; reported powers/times are means
    /// over these runs (the paper averages 40 runs; default here is 5).
    pub runs: u64,
    /// Base RNG seed; run `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Shrink the GA (population/generations) for smoke tests.
    pub quick: bool,
    /// Directory receiving `results_<name>.{txt,json}` (default: cwd).
    pub out: Option<String>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        Self { runs: 5, base_seed: 1000, quick: false, out: None }
    }
}

impl HarnessOptions {
    /// Parses `--runs N`, `--seed N`, `--quick` and `--out DIR` from the
    /// process arguments, ignoring anything else. A flag without its
    /// value, a value that is not a `u64` and `--runs 0` (every mean
    /// would divide by zero) print a usage error and exit with status 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|error| {
            eprintln!("error: {error}\nusage: [--runs N] [--seed N] [--quick] [--out DIR]");
            std::process::exit(2)
        })
    }

    /// [`HarnessOptions::from_args`] over `args`, returning the usage
    /// error.
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut options = Self::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            let mut number = || value()?.parse().map_err(|e| format!("invalid {flag} value: {e}"));
            match flag.as_str() {
                "--runs" => options.runs = number()?,
                "--seed" => options.base_seed = number()?,
                "--quick" => options.quick = true,
                "--out" => options.out = Some(value()?.clone()),
                _ => {}
            }
        }
        if options.runs == 0 {
            return Err("--runs must be at least 1".into());
        }
        Ok(options)
    }

    /// The synthesis configuration for one run.
    pub fn config(&self, seed: u64, probability_aware: bool, dvs: bool) -> SynthesisConfig {
        let mut cfg = if self.quick {
            SynthesisConfig::fast_preset(seed)
        } else {
            SynthesisConfig::new(seed)
        };
        cfg.probability_aware = probability_aware;
        if dvs {
            cfg = cfg.with_dvs();
        }
        cfg
    }

    /// Resolves `results_<name>.<ext>` inside the `--out` directory.
    pub fn results_path(&self, name: &str, ext: &str) -> PathBuf {
        let dir = self.out.as_deref().map_or_else(|| Path::new(".").to_path_buf(), PathBuf::from);
        dir.join(format!("results_{name}.{ext}"))
    }
}

/// Runs both flows (`probability-aware` and `-neglecting`) on one system
/// and averages power and wall time over `options.runs` repetitions.
/// Also returns one [`RunSummary`] per individual optimisation run (both
/// flows, in execution order) for machine-readable persistence.
pub fn compare_flows_detailed(
    system: &System,
    dvs: bool,
    options: &HarnessOptions,
) -> (ComparisonRow, Vec<RunSummary>) {
    let mut summaries = Vec::new();
    let mut run_flow = |aware: bool| -> (f64, f64, u64, bool, f64) {
        let mut power_sum = 0.0;
        let mut time_sum = 0.0;
        let mut feasible = 0u64;
        let mut verified = true;
        let mut gap_sum = 0.0;
        for i in 0..options.runs {
            let cfg = options.config(options.base_seed + i, aware, dvs);
            let synthesizer = Synthesizer::new(system, cfg);
            let start = Instant::now();
            let result = synthesizer.run().expect("schedulable system");
            time_sum += start.elapsed().as_secs_f64();
            power_sum += result.best.power.average.as_milli();
            if result.best.is_feasible() {
                feasible += 1;
            }
            let lb = result.power_lower_bound;
            if lb.value() > 0.0 {
                gap_sum += (result.best.power.average - lb) / lb;
            }
            match verified_summary(system, &synthesizer, &result) {
                Some(summary) => summaries.push(summary),
                None => verified = false,
            }
        }
        let n = options.runs as f64;
        (power_sum / n, time_sum / n, feasible, verified, gap_sum / n)
    };

    let (power_neglecting_mw, time_neglecting_s, feas_n, ver_n, _) = run_flow(false);
    let (power_aware_mw, time_aware_s, feas_a, ver_a, gap_a) = run_flow(true);
    let row = ComparisonRow {
        name: system.name().to_owned(),
        modes: system.omsm().mode_count(),
        power_neglecting_mw,
        time_neglecting_s,
        power_aware_mw,
        time_aware_s,
        feasible_fraction: (feas_n + feas_a) as f64 / (2 * options.runs) as f64,
        optimality_gap_percent: gap_a * 100.0,
        verified: ver_n && ver_a,
    };
    (row, summaries)
}

/// Re-proves a finished run with the independent `momsynth-check` oracle
/// and renders its [`RunSummary`]. Returns `None` — after a stderr
/// warning — when the checker disagrees with the synthesiser, so the
/// record never reaches `results_*.json` (every persisted Eq. 1 average
/// was independently recomputed to 1e-9).
pub fn verified_summary(
    system: &System,
    synthesizer: &Synthesizer<'_>,
    result: &SynthesisResult,
) -> Option<RunSummary> {
    match invariant_breach(system, &result.best) {
        Some(report) => {
            eprintln!(
                "warning: dropping a `{}` run from results — verification failed: {report}",
                system.name()
            );
            None
        }
        None => Some(result.summary(system, synthesizer.config())),
    }
}

/// Drops rows backed by any run that failed independent verification,
/// warning on stderr; returns how many were dropped. Table binaries call
/// this before rendering so `results_*.txt` never publishes a row the
/// checker rejected.
pub fn retain_verified(rows: &mut Vec<ComparisonRow>) -> usize {
    let before = rows.len();
    rows.retain(|row| {
        if !row.verified {
            eprintln!(
                "warning: dropping `{}` from the results table: a run failed verification",
                row.name
            );
        }
        row.verified
    });
    before - rows.len()
}

/// Renders rows in the paper's Table 1/2 layout.
pub fn render_table(title: &str, rows: &[ComparisonRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "{title}").unwrap();
    writeln!(
        out,
        "{:<14} {:>6} | {:>14} {:>10} | {:>14} {:>10} | {:>8} {:>8} {:>6}",
        "Example",
        "modes",
        "p (w/o) [mW]",
        "CPU [s]",
        "p (with) [mW]",
        "CPU [s]",
        "Red. %",
        "Gap %",
        "feas"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(109)).unwrap();
    for row in rows {
        writeln!(
            out,
            "{:<14} {:>6} | {:>14.4} {:>10.2} | {:>14.4} {:>10.2} | {:>8.2} {:>8.2} {:>6.2}",
            row.name,
            row.modes,
            row.power_neglecting_mw,
            row.time_neglecting_s,
            row.power_aware_mw,
            row.time_aware_s,
            row.reduction_percent(),
            row.optimality_gap_percent,
            row.feasible_fraction,
        )
        .unwrap();
    }
    let mean: f64 =
        rows.iter().map(ComparisonRow::reduction_percent).sum::<f64>() / rows.len().max(1) as f64;
    let max = rows.iter().map(ComparisonRow::reduction_percent).fold(f64::NEG_INFINITY, f64::max);
    writeln!(out, "{}", "-".repeat(109)).unwrap();
    writeln!(out, "mean reduction {mean:.2} %, max reduction {max:.2} %").unwrap();
    out
}

/// Persists one experiment's outputs: `results_<name>.txt` holds the
/// rendered human-readable report, `results_<name>.json` the raw
/// per-run [`RunSummary`] records. Write failures are reported on
/// stderr but do not abort the binary — the table already went to
/// stdout.
pub fn write_results(options: &HarnessOptions, name: &str, text: &str, summaries: &[RunSummary]) {
    let txt_path = options.results_path(name, "txt");
    if let Err(e) = std::fs::write(&txt_path, text) {
        eprintln!("warning: cannot write {}: {e}", txt_path.display());
    } else {
        println!("wrote {}", txt_path.display());
    }
    let json_path = options.results_path(name, "json");
    let json = serde_json::to_string_pretty(summaries).expect("summaries serialise");
    if let Err(e) = std::fs::write(&json_path, json) {
        eprintln!("warning: cannot write {}: {e}", json_path.display());
    } else {
        println!("wrote {}", json_path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_gen::suite::mul;

    #[test]
    fn comparison_row_reduction() {
        let row = ComparisonRow {
            name: "x".into(),
            modes: 3,
            power_neglecting_mw: 10.0,
            time_neglecting_s: 1.0,
            power_aware_mw: 7.5,
            time_aware_s: 1.0,
            feasible_fraction: 1.0,
            optimality_gap_percent: 50.0,
            verified: true,
        };
        assert!((row.reduction_percent() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn retain_verified_drops_unverified_rows() {
        let row = |name: &str, verified: bool| ComparisonRow {
            name: name.into(),
            modes: 1,
            power_neglecting_mw: 1.0,
            time_neglecting_s: 0.0,
            power_aware_mw: 1.0,
            time_aware_s: 0.0,
            feasible_fraction: 1.0,
            optimality_gap_percent: 0.0,
            verified,
        };
        let mut rows = vec![row("good", true), row("bad", false), row("also_good", true)];
        assert_eq!(retain_verified(&mut rows), 1);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["good", "also_good"]);
    }

    #[test]
    fn verified_summary_rejects_corrupted_results() {
        let system = mul(9);
        let options = HarnessOptions { runs: 1, base_seed: 5, quick: true, out: None };
        let synthesizer = Synthesizer::new(&system, options.config(5, true, false));
        let mut result = synthesizer.run().expect("schedulable system");
        assert!(verified_summary(&system, &synthesizer, &result).is_some());
        result.best.power.average = result.best.power.average * 2.0;
        assert!(verified_summary(&system, &synthesizer, &result).is_none());
    }

    #[test]
    fn quick_compare_runs_end_to_end() {
        let system = mul(9); // the smallest benchmark
        let options = HarnessOptions { runs: 1, base_seed: 5, quick: true, out: None };
        let (row, summaries) = compare_flows_detailed(&system, false, &options);
        assert!(row.power_aware_mw > 0.0);
        assert!(row.power_neglecting_mw > 0.0);
        assert_eq!(row.modes, 4);
        // One summary per run per flow, in execution order.
        assert_eq!(summaries.len(), 2);
        assert!(!summaries[0].probability_aware);
        assert!(summaries[1].probability_aware);
        assert_eq!(summaries[0].system, row.name);
        assert!((summaries[1].average_power_mw - row.power_aware_mw).abs() < 1e-9);
        assert!(row.verified, "genuine runs must pass re-verification");
        assert!(
            row.optimality_gap_percent >= 0.0,
            "a sound lower bound never exceeds an achieved power: {}",
            row.optimality_gap_percent
        );
        assert!(summaries.iter().all(|s| s.optimality_gap >= 0.0 && s.power_lower_bound_mw > 0.0));
    }

    #[test]
    fn options_config_respects_flags() {
        let options = HarnessOptions { runs: 1, base_seed: 0, quick: true, out: None };
        let cfg = options.config(3, false, true);
        assert_eq!(cfg.ga.seed, 3);
        assert!(!cfg.probability_aware);
        assert!(cfg.dvs.is_some());
    }

    fn parse(args: &[&str]) -> Result<HarnessOptions, String> {
        HarnessOptions::parse(&args.iter().map(|&a| a.to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn valid_command_lines_parse() {
        assert_eq!(parse(&[]), Ok(HarnessOptions::default()));
        let all = parse(&["--bench", "--runs", "2", "--seed", "7", "--quick", "--out", "o"]);
        let expected = HarnessOptions { runs: 2, base_seed: 7, quick: true, out: Some("o".into()) };
        assert_eq!(all, Ok(expected));
    }

    #[test]
    fn flags_without_a_value_are_usage_errors() {
        for flag in ["--runs", "--seed", "--out"] {
            assert_eq!(parse(&["--quick", flag]), Err(format!("{flag} needs a value")));
        }
    }

    #[test]
    fn unparsable_numbers_are_usage_errors() {
        for flag in ["--runs", "--seed"] {
            for value in ["x", "-1", "1.5", ""] {
                let error = parse(&[flag, value]).expect_err(value);
                assert!(error.starts_with(&format!("invalid {flag} value")), "{error}");
            }
        }
    }

    #[test]
    fn zero_runs_is_a_usage_error() {
        assert_eq!(parse(&["--runs", "0"]), Err("--runs must be at least 1".into()));
    }

    #[test]
    fn results_path_respects_out_dir() {
        let options = HarnessOptions { out: Some("/tmp/bench".into()), ..Default::default() };
        assert_eq!(
            options.results_path("table1", "json"),
            PathBuf::from("/tmp/bench/results_table1.json")
        );
        let default = HarnessOptions::default();
        assert_eq!(default.results_path("table1", "txt"), PathBuf::from("./results_table1.txt"));
    }
}
