//! `benchmark` — the end-to-end and per-layer benchmark of momsynth.
//!
//! The system's cost is the paper's inner loop (Fig. 4), run once per GA
//! candidate: core allocation, list scheduling with communication
//! mapping, PV-DVS and Eq. 1 pricing. Users meet that cost as the wall
//! time of `synth`, the time to an optimality certificate from `prove`,
//! and the submit-to-verified latency of a job on the server. The
//! benchmark drives those three entry points through the public API
//! (`Synthesizer::run`, `prove`, `momsynth_serve::Server`) and, in a
//! separate traced pass, the layer functions themselves.
//!
//! # Usage
//!
//! ```text
//! benchmark [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--out DIR]
//! benchmark compare DIR_A DIR_B
//! ```
//!
//! One workload runs in its own process, so its peak RSS is its own;
//! without `--workload` the binary re-executes itself once per workload.
//! Each pass prints `workload metric value unit n=…` lines, writes
//! `DIR/W.json` (untraced) or `DIR/W.layers.json` plus the span file
//! `DIR/trace-W.jsonl` (traced), and ends its standard output with one
//! JSON line `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is 0 only when every correctness check passed. `compare` judges
//! two directories of such runs against the bounds in `BENCHMARK.json`;
//! `baseline.json` beside this package summarises two sets of ten runs
//! measured when the benchmark was added, with the machine they ran on.
//!
//! # Workloads
//!
//! | name | unit of work | why |
//! |---|---|---|
//! | `phone-dvs` | one synth of `smartphone()` with DVS, one thread, 60 generations | PV-DVS dominates each evaluation and the genome cache never hits, so DVS-layer work shows here and cache or thread changes must not move it. |
//! | `suite-fixed` | one round: mul1–mul12 and `automotive_ecu()` without DVS, one thread, 100 generations, each synth followed by a 5 000-leaf `prove` seeded with its best fitness | List scheduling dominates and the genome cache hits; the only workload that prices leaves in branch-and-bound order, where consecutive leaves differ in one gene. |
//! | `many-modes` | one synth of a generated 32-mode system (16–32 tasks per mode) without DVS, two threads, 40 generations, one local-search pass | The scale case: allocation and scheduling of many modes, no cache hits, one mutation touches ~1 of 32 modes; per-mode reuse and the batch thread pool have the most to win here. |
//! | `serve-small` | a batch of 25 quick jobs, submitted to an in-process `Server` (2 workers, metrics on) by a client thread that keeps 2 jobs outstanding and drains the server after the batch, cycling mul9, mul11, mul2 and `automotive_ecu()` | Each job's synth is short, so queueing, journal fsyncs and the checker re-proof show only here. |
//!
//! Every synth workload runs its GA for a fixed number of generations
//! (the stagnation stop is set to the generation cap), so the work per
//! synth does not depend on when a seed's search stalls. The server
//! checkpoints every 40 generations instead of every 5, so a quick job
//! is not dominated by checkpoint writes.
//!
//! # Seeds and run length
//!
//! The input systems are fixed: the smartphone, the mul presets, the
//! automotive ECU, and for `many-modes` the system generated with
//! generator seed 1 (32 modes, 16–32 tasks each, 20 task types, 2
//! software and 3 hardware PEs, 2 links). `--seed S` (default 1000) sets
//! every GA seed, so the same seed gives the same inputs and nothing else
//! is random:
//!
//! - `phone-dvs`: synth `k` uses GA seed `S + k`.
//! - `suite-fixed`: round `r` synthesises all 13 systems with GA seed
//!   `S + r`.
//! - `many-modes`: synth `k` uses GA seed `S + k`.
//! - `serve-small`: job `i` carries seed `S + i`.
//!
//! `--seconds T` (default 20) sizes the run: it does a fixed number of
//! units proportional to `T` (see `Workload::units`), about `T` seconds
//! of work on a 2-vCPU 2.0 GHz x86-64 machine. Fixing the work rather
//! than the time keeps two commits' runs comparable unit for unit.
//!
//! # Passes
//!
//! The untraced pass (`--trace 0`) reports the end-to-end metrics with no
//! telemetry sink attached. It sets up once, runs one untimed warm-up
//! synth, and then runs its units of work with 15 further set-ups spread
//! evenly among them, so 16 set-ups (generation, a JSON round trip through
//! `System` deserialization, a zero-budget `prove` of every input, and for
//! `serve-small` `Server::start`) are timed across the run. A fixed CPU
//! probe runs before the first set-up, after each group of set-ups and
//! after each unit (each system, for the suite), and every time is scaled
//! by the probes around it to the reference machine's speed (see
//! `host.rs`), so a slow spell of a shared host does not move the medians.
//! Peak RSS and power are not scaled. The traced pass (`--trace 1`) reports per-layer
//! metrics: it reruns each workload's first synths untraced, at the
//! other thread count, and serially with a `MemorySink` attached, then
//! replays a corpus (each first run's best mapping and all its
//! single-gene neighbours) three times through the layer functions with
//! benchmark-owned spans. `serve-small` also serves 40% of a run's jobs
//! and splits their latency with the server's own histograms.
//!
//! # Which end-to-end metric each layer metric should move
//!
//! | per-layer metrics | end-to-end metric | workloads |
//! |---|---|---|
//! | `core.fitness.us_per_eval`, `power.us_per_eval`, `core.transition.us_per_eval` | `evals_per_s` | all four |
//! | `dvs.eval_share`, `dvs.iters_per_eval`, `dvs.iterations` | `evals_per_s` | `phone-dvs` (0 elsewhere) |
//! | `sched.us_per_eval`, `sched.calls_per_eval` | `evals_per_s`, `request_s_p50` | `suite-fixed`, `many-modes` |
//! | `core.alloc.us_per_eval`, `ga.outside_eval_share`, `core.batch.parallel_speedup` | `request_s_p50` | `many-modes` |
//! | `core.cache.hit_rate`, `core.cache.priced_ratio` | `evals_per_s` | `suite-fixed`, `serve-small` |
//! | `prove.share`, `ga.bnb.explored`, `ga.bnb.pruned_by_bound` | `request_s_p50` | `suite-fixed` |
//! | `check.us_per_call`, `serve.*` except `serve.start_share` | `request_s_p50` | `serve-small` |
//! | `analyze.ms`, `model.spec_load_ms`, `serve.start_share` | `setup_s` | all four |
//! | `ga.best_power_mw`, `ga.evaluations`, `ga.rejected` | `power_mw_mean` | all four |
//!
//! `ga.evaluations`, `ga.generations`, `ga.rejected`, `ga.best_power_mw`
//! and `ga.bnb.certified_gap` repeat exactly for a seed and change only
//! with the GA's trajectory. The `phase.*` shares are the program's own
//! timers and cross-check the replay; `trace.overhead_pct` is what those
//! timers cost.

mod compare;
mod host;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use serde_json::{Number, Value};

use workload::Workload;

/// Default `--seed`.
const DEFAULT_SEED: u64 = 1000;

/// Default `--seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Default `--out`.
const DEFAULT_OUT: &str = "target/benchmark";

/// End-to-end metrics as `(name, unit)`: what a user of each workload
/// sees. `request_s_p50` times a request — a synth, the suite synthesised
/// and certified once, or a job from submit to verified. `power_mw_mean`
/// is the mean best average power p̄ of every synth or job, so a change
/// that buys speed with worse solutions shows.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("evals_per_s", "1/s"),
    ("request_s_p50", "s"),
    ("power_mw_mean", "mW"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics as `(name, unit)`, named after the module whose
/// work they measure. Layers a workload does not exercise read 0; those
/// metrics are ratios or counts, never times.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Replay of the layer functions under benchmark-owned spans.
    ("core.fitness.us_per_eval", "us"),
    ("core.fitness.coverage", "ratio"),
    ("core.alloc.us_per_eval", "us"),
    ("sched.us_per_eval", "us"),
    ("sched.calls_per_eval", "count"),
    ("dvs.eval_share", "ratio"),
    ("dvs.iters_per_eval", "count"),
    ("power.us_per_eval", "us"),
    ("core.transition.us_per_eval", "us"),
    ("check.us_per_call", "us"),
    ("replay.requests", "count"),
    ("replay.errors", "count"),
    // Program counters of the first synths (deterministic per seed).
    ("ga.evaluations", "count"),
    ("ga.generations", "count"),
    ("ga.rejected", "count"),
    ("ga.best_power_mw", "mW"),
    ("dvs.iterations", "count"),
    ("core.cache.hit_rate", "ratio"),
    ("core.cache.priced_ratio", "ratio"),
    // The program's own phase timers, from the traced synths.
    ("phase.fitness_eval.ns_per_eval", "ns"),
    ("phase.core_allocation.share", "ratio"),
    ("phase.list_scheduling.share", "ratio"),
    ("phase.voltage_scaling.share", "ratio"),
    ("phase.power_pricing.share", "ratio"),
    ("ga.outside_eval_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("core.batch.parallel_speedup", "ratio"),
    // Certificates and static analysis.
    ("prove.share", "ratio"),
    ("ga.bnb.explored", "count"),
    ("ga.bnb.pruned_by_bound", "count"),
    ("ga.bnb.certified_gap", "ratio"),
    ("analyze.ms", "ms"),
    ("model.spec_load_ms", "ms"),
    // The job server, as shares of the client-side job latency.
    ("serve.overhead_share", "ratio"),
    ("serve.queue_wait_share", "ratio"),
    ("serve.journal_write_share", "ratio"),
    ("serve.journal_fsync_share", "ratio"),
    ("serve.journal_writes_per_job", "count"),
    ("serve.submit_share", "ratio"),
    ("serve.start_share", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Catalogue unit.
    pub unit: &'static str,
    /// The value, with all its digits.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
    /// `(percentile, value)` of the highest percentile with at least ten
    /// samples beyond it, for timings that have one.
    pub tail: Option<(f64, f64)>,
}

/// The metrics, operation counts and correctness findings of one pass.
#[derive(Debug)]
pub struct Report {
    catalogue: &'static [(&'static str, &'static str)],
    metrics: Vec<Metric>,
    /// Operations attempted: synths, proofs and job submissions.
    pub attempted: u64,
    /// Operations that failed; see [`Report::fail`].
    pub failed: u64,
    /// Every failed correctness check, in order.
    pub errors: Vec<String>,
}

impl Report {
    /// An empty report for the traced or the untraced catalogue.
    pub fn new(traced: bool) -> Self {
        Self {
            catalogue: if traced { PER_LAYER } else { END_TO_END },
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Records `name` (which must be in this pass's catalogue, once).
    ///
    /// # Panics
    ///
    /// On an unknown or repeated name: both are bugs in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) -> &mut Metric {
        let &(name, unit) = self
            .catalogue
            .iter()
            .find(|(known, _)| *known == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric `{name}` set twice"
        );
        self.metrics.push(Metric {
            name,
            unit,
            value,
            n,
            tail: None,
        });
        self.metrics.last_mut().expect("just pushed")
    }

    /// Records a failed operation and why.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.error(message);
    }

    /// Records a failed correctness check that is not an operation.
    pub fn error(&mut self, message: String) {
        self.errors.push(message);
    }

    /// Whether every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Flags catalogue metrics that were never set or are not finite, and
    /// returns the metrics in catalogue order.
    fn finish(&mut self) -> Vec<Metric> {
        let mut ordered = Vec::with_capacity(self.catalogue.len());
        for &(name, _) in self.catalogue {
            match self.metrics.iter().find(|m| m.name == name) {
                Some(m) if m.value.is_finite() => ordered.push(m.clone()),
                Some(m) => self.error(format!("metric `{name}` is not finite ({})", m.value)),
                None => self.error(format!("metric `{name}` was not measured")),
            }
        }
        ordered
    }
}

/// A JSON number from an `f64` (JSON has no NaN or infinity; callers
/// pass finite values).
pub fn number(value: f64) -> Value {
    Value::Number(Number::from_f64(value))
}

/// A JSON object from `(key, value)` pairs.
pub fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// Command-line options of one pass.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from(DEFAULT_OUT),
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                options.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(options.seconds.is_finite() && options.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => options.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

const USAGE: &str = "usage: benchmark [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--out DIR]\n       benchmark compare DIR_A DIR_B";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&options.out) {
        eprintln!("error: cannot create {}: {e}", options.out.display());
        return ExitCode::from(2);
    }
    match options.workload {
        Some(workload) => run_one(workload, &options),
        None => run_all(&options),
    }
}

/// Runs one pass of one workload in this process.
fn run_one(workload: Workload, options: &Options) -> ExitCode {
    let mut report = if options.trace {
        trace::layers(workload, options.seed, options.seconds, &options.out)
    } else {
        workload::end_to_end(workload, options.seed, options.seconds, &options.out)
    };
    let metrics = report.finish();
    for m in &metrics {
        let tail = m.tail.map_or(String::new(), |(p, v)| format!(" p{p}={v}"));
        println!(
            "{} {} {} {} n={}{tail}",
            workload.name(),
            m.name,
            m.value,
            m.unit,
            m.n
        );
    }
    for e in &report.errors {
        eprintln!("error: {}: {e}", workload.name());
    }
    let outcome = vec![
        ("correct", Value::Bool(report.correct())),
        ("attempted", serde_json::to_value(&report.attempted.max(1))),
        ("failed", serde_json::to_value(&report.failed)),
        (
            "metrics",
            object(
                metrics
                    .iter()
                    .map(|m| {
                        let fields = vec![
                            ("value", number(m.value)),
                            ("unit", Value::String(m.unit.to_owned())),
                        ];
                        (m.name, object(fields))
                    })
                    .collect(),
            ),
        ),
    ];
    // The file holds the same result, what identifies the run, and each
    // metric's sample count and tail.
    let mut record = vec![
        ("workload", Value::String(workload.name().to_owned())),
        ("seed", serde_json::to_value(&options.seed)),
        ("seconds", number(options.seconds)),
        ("trace", Value::Bool(options.trace)),
    ];
    record.extend(outcome.iter().cloned());
    record.push((
        "samples",
        object(
            metrics
                .iter()
                .map(|m| {
                    let mut fields = vec![("n", serde_json::to_value(&(m.n as u64)))];
                    if let Some((p, v)) = m.tail {
                        fields.push(("tail_percentile", number(p)));
                        fields.push(("tail_value", number(v)));
                    }
                    (m.name, object(fields))
                })
                .collect(),
        ),
    ));
    let file = if options.trace {
        format!("{}.layers.json", workload.name())
    } else {
        format!("{}.json", workload.name())
    };
    let path = options.out.join(file);
    let text = serde_json::to_string_pretty(&object(record)).expect("JSON values always print");
    if let Err(e) = std::fs::write(&path, text + "\n") {
        eprintln!("error: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        serde_json::to_string(&object(outcome)).expect("JSON values always print")
    );
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Re-executes this binary once per workload, so each has its own
/// process and peak RSS.
fn run_all(options: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&options.out)
            .status();
        match status {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("{} ({status})", workload.name())),
            Err(e) => failed.push(format!("{} ({e})", workload.name())),
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

/// The repository's `BENCHMARK.json`, for tests and `compare`.
pub fn read_spec() -> Result<Value, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Value {
        read_spec().expect("BENCHMARK.json parses")
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// `(name, unit)` of every entry in one of the spec's metric lists.
    fn listed(spec: &Value, key: &str) -> Vec<(String, String)> {
        spec[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_owned(),
                    m["unit"].as_str().expect("unit").to_owned(),
                )
            })
            .collect()
    }

    #[test]
    fn every_emitted_name_is_in_the_spec_with_its_unit() {
        let spec = spec();
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = listed(&spec, key);
            let emitted: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(listed, emitted, "{key} differs from the catalogue");
            for (name, _) in &emitted {
                assert!(valid_name(name), "bad metric name `{name}`");
            }
        }
        let workloads: Vec<&str> = spec["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        assert!(ours.iter().all(|n| valid_name(n)));
    }

    #[test]
    fn options_parse_the_driver_command_line() {
        let args: Vec<String> = [
            "--workload",
            "serve-small",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let options = parse_options(&args).expect("valid");
        assert_eq!(options.workload, Some(Workload::ServeSmall));
        assert_eq!(options.seed, 7);
        assert_eq!(options.seconds, 3.0);
        assert!(options.trace);
        assert!(parse_options(&["--trace".to_owned(), "2".to_owned()]).is_err());
        assert!(parse_options(&["--workload".to_owned(), "nope".to_owned()]).is_err());
        assert!(parse_options(&["--seconds".to_owned()]).is_err());
    }

    #[test]
    fn a_report_flags_missing_and_non_finite_metrics() {
        let mut report = Report::new(false);
        report.set("setup_s", 0.5, 5);
        report.set("evals_per_s", f64::NAN, 1);
        let metrics = report.finish();
        assert_eq!(metrics.len(), 1);
        assert!(!report.correct());
        // One error per metric never set, and one for the NaN.
        assert_eq!(
            report.errors.len(),
            END_TO_END.len() - 1,
            "{:?}",
            report.errors
        );
    }
}
