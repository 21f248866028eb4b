//! The workloads: their inputs, set-up and untraced end-to-end pass.

use std::path::Path;
use std::time::Instant;

use momsynth_core::{
    invariant_breach, prove, Certificate, ProveOptions, Solution, SynthesisConfig, SynthesisResult,
    Synthesizer,
};
use momsynth_gen::automotive::automotive_ecu;
use momsynth_gen::smartphone::smartphone;
use momsynth_gen::{generate, mul, GeneratorParams};
use momsynth_model::System;

use crate::host::{HostSpeed, REFERENCE_PROBE_S};
use crate::serve::{self, ServeHarness};
use crate::stats::{median, tail};
use crate::Report;

/// Set-ups an untraced pass times besides the one whose inputs it uses.
/// They are spread evenly over the run, so a slow spell of the host moves
/// few of them, and `setup_s` is the median of all.
const MIN_SETUPS: u64 = 15;

/// GA generations of every `phone-dvs` synth.
const PHONE_GENERATIONS: usize = 60;

/// GA generations of every `suite-fixed` synth.
const SUITE_GENERATIONS: usize = 100;

/// GA generations of every `many-modes` synth.
const MANY_MODES_GENERATIONS: usize = 40;

/// Leaf budget of each `suite-fixed` certificate.
pub const PROVE_BUDGET: u64 = 5_000;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The smartphone with DVS.
    PhoneDvs,
    /// The mul1–mul12 suite and the automotive ECU, each synth certified.
    SuiteFixed,
    /// Generated 32-mode systems, two threads.
    ManyModes,
    /// Quick jobs through an in-process job server.
    ServeSmall,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Self; 4] = [
        Self::PhoneDvs,
        Self::SuiteFixed,
        Self::ManyModes,
        Self::ServeSmall,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::PhoneDvs => "phone-dvs",
            Self::SuiteFixed => "suite-fixed",
            Self::ManyModes => "many-modes",
            Self::ServeSmall => "serve-small",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Units of work in a run of `seconds`: `round(seconds × rate)`, at
    /// least one, with rates that make a run last about `seconds` on a
    /// 2-vCPU 2.0 GHz x86-64 machine. A unit is a synth (`phone-dvs`,
    /// `many-modes`), a certified round of the suite (`suite-fixed`) or a
    /// batch of [`serve::JOBS_PER_BATCH`] jobs (`serve-small`, about 70
    /// jobs a second). The work of a run depends only on its seed and
    /// `seconds`, so runs of two commits measure the same work however
    /// fast either is.
    pub fn units(self, seconds: f64) -> u64 {
        let rate = match self {
            Self::PhoneDvs => 0.7,
            Self::SuiteFixed => 0.25,
            Self::ManyModes => 0.5,
            Self::ServeSmall => 70.0 / serve::JOBS_PER_BATCH as f64,
        };
        ((seconds * rate).round() as u64).max(1)
    }

    /// The workload's input systems before their JSON round trip. All are
    /// fixed; the seed varies the GA seeds only.
    fn generate_systems(self) -> Vec<System> {
        match self {
            Self::PhoneDvs => vec![smartphone()],
            Self::SuiteFixed => (1..=12).map(mul).chain([automotive_ecu()]).collect(),
            Self::ManyModes => {
                let mut params = GeneratorParams::new("many-modes", 1);
                params.modes = 32;
                params.tasks_per_mode = (16, 32);
                params.type_pool = 20;
                params.software_pes = 2;
                params.hardware_pes = 3;
                params.cls = 2;
                vec![generate(&params)]
            }
            Self::ServeSmall => vec![mul(9), mul(11), mul(2), automotive_ecu()],
        }
    }

    /// The synthesis configuration of one unit of work under GA seed
    /// `seed`. Synth workloads run a fixed number of generations;
    /// `serve-small` uses exactly the configuration its jobs carry.
    pub fn config(self, system: &System, seed: u64) -> SynthesisConfig {
        let fixed = |generations: usize, threads: usize| {
            let mut cfg = SynthesisConfig::new(seed);
            cfg.ga.max_generations = generations;
            cfg.ga.stagnation_limit = generations;
            cfg.threads = threads;
            cfg
        };
        match self {
            Self::PhoneDvs => fixed(PHONE_GENERATIONS, 1).with_dvs(),
            Self::SuiteFixed => fixed(SUITE_GENERATIONS, 1),
            Self::ManyModes => {
                // One local-search pass instead of two: the pass, whose
                // single-gene moves each touch one mode, is most of the
                // synth and finds the solution (the GA alone does not
                // beat its seed mapping here), while a second pass would
                // make units too long for the host probes to follow.
                let mut cfg = fixed(MANY_MODES_GENERATIONS, 2);
                cfg.local_search.max_passes = 1;
                cfg
            }
            Self::ServeSmall => serve::job_spec(system, seed).config(),
        }
    }
}

/// Prepared inputs of one pass.
#[derive(Debug)]
pub struct Inputs {
    /// The input systems, as loaded from their JSON documents.
    pub systems: Vec<System>,
    /// The running job server (`serve-small` only).
    pub server: Option<ServeHarness>,
}

/// Where one set-up's time went, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupTiming {
    /// The whole set-up.
    pub total_s: f64,
    /// Parsing the JSON documents back into `System`s.
    pub load_s: f64,
    /// Zero-budget `prove` (static analysis) of every input.
    pub analyze_s: f64,
    /// `Server::start`.
    pub start_s: f64,
}

/// Prepares a workload's inputs the way a user's run would: generate
/// each system, round-trip it through JSON, analyse it, and for
/// `serve-small` start the server under `out`.
pub fn set_up(workload: Workload, seed: u64, out: &Path) -> Result<(Inputs, SetupTiming), String> {
    let started = Instant::now();
    let mut load_s = 0.0;
    let mut analyze_s = 0.0;
    let mut systems = Vec::new();
    for generated in workload.generate_systems() {
        let text = serde_json::to_string(&generated)
            .map_err(|e| format!("cannot serialise {}: {e}", generated.name()))?;
        let t = Instant::now();
        let system: System = serde_json::from_str(&text)
            .map_err(|e| format!("cannot load {}: {e}", generated.name()))?;
        load_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let analysis = prove(&system, &workload.config(&system, seed), &zero_budget());
        analyze_s += t.elapsed().as_secs_f64();
        if let Err(e) = analysis {
            return Err(format!("{} fails static analysis: {e}", system.name()));
        }
        systems.push(system);
    }
    let (server, start_s) = if workload == Workload::ServeSmall {
        let t = Instant::now();
        let harness = ServeHarness::start(out, workload.name())?;
        (Some(harness), t.elapsed().as_secs_f64())
    } else {
        (None, 0.0)
    };
    let timing = SetupTiming {
        total_s: started.elapsed().as_secs_f64(),
        load_s,
        analyze_s,
        start_s,
    };
    Ok((Inputs { systems, server }, timing))
}

fn zero_budget() -> ProveOptions {
    ProveOptions {
        max_evals: 0,
        ..ProveOptions::default()
    }
}

/// One untimed short synth of the first input, so the timed runs start
/// with warm caches and a grown allocator.
pub fn warm_up(workload: Workload, inputs: &Inputs, seed: u64) {
    let system = &inputs.systems[0];
    let mut cfg = workload.config(system, seed);
    cfg.ga.max_generations = 5;
    cfg.local_search.max_passes = 0;
    // The result is discarded; a failure shows up in the timed runs.
    let _ = Synthesizer::new(system, cfg).run();
}

/// Runs one synthesis, timed, and checks its best solution.
pub fn synth(
    system: &System,
    cfg: SynthesisConfig,
    report: &mut Report,
) -> Option<(SynthesisResult, f64)> {
    report.attempted += 1;
    let started = Instant::now();
    let outcome = Synthesizer::new(system, cfg).run();
    let wall = started.elapsed().as_secs_f64();
    match outcome {
        Ok(result) => {
            check_best(system, &result.best, report);
            Some((result, wall))
        }
        Err(e) => {
            report.fail(format!("synth of {} failed: {e}", system.name()));
            None
        }
    }
}

/// A synth's best must be feasible and accepted by the independent
/// checker.
pub fn check_best(system: &System, best: &Solution, report: &mut Report) {
    if !best.is_feasible() {
        report.fail(format!("best solution of {} is infeasible", system.name()));
    } else if let Some(breach) = invariant_breach(system, best) {
        report.fail(format!(
            "best solution of {} fails the checker: {breach}",
            system.name()
        ));
    }
}

/// Certifies a synth's best fitness with a fixed-budget `prove`, timed.
pub fn certify(
    system: &System,
    cfg: &SynthesisConfig,
    incumbent: f64,
    report: &mut Report,
) -> Option<(Certificate, f64)> {
    report.attempted += 1;
    let options = ProveOptions {
        max_evals: PROVE_BUDGET,
        incumbent: Some(incumbent),
        ..ProveOptions::default()
    };
    let started = Instant::now();
    let outcome = prove(system, cfg, &options);
    let wall = started.elapsed().as_secs_f64();
    match outcome {
        Ok(certificate) if certificate.epsilon().is_finite() && certificate.epsilon() >= 0.0 => {
            Some((certificate, wall))
        }
        Ok(certificate) => {
            report.fail(format!(
                "certificate of {} has gap {}",
                system.name(),
                certificate.epsilon()
            ));
            None
        }
        Err(e) => {
            report.fail(format!("prove of {} failed: {e}", system.name()));
            None
        }
    }
}

/// Samples of one unit of work, scaled to the reference machine.
#[derive(Debug, Default)]
struct Unit {
    /// Latency of each request: the synth, the certified round of the
    /// suite, or each job from submit to verified.
    requests_s: Vec<f64>,
    /// GA evaluations per second of synthesis: the unit's, or each job's.
    evals_per_s: Vec<f64>,
    /// Best average power p̄ of each synth or job, in mW.
    power_mw: Vec<f64>,
}

/// Runs unit `k` of a run, probing the host after it (after each system,
/// for the suite) and scaling its times by the probes around them.
fn run_unit(
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    k: u64,
    host: &mut HostSpeed,
    report: &mut Report,
) -> Unit {
    let mut unit = Unit::default();
    match workload {
        Workload::ServeSmall => {
            let server = inputs.server.as_ref().expect("serve-small starts a server");
            let first = k * serve::JOBS_PER_BATCH;
            let jobs = serve::closed_loop(
                server,
                &inputs.systems,
                seed,
                first..first + serve::JOBS_PER_BATCH,
                report,
            );
            let factor = host.factor();
            unit.requests_s = jobs.latency_s.iter().map(|s| s * factor).collect();
            unit.evals_per_s = jobs.evals_per_s.iter().map(|r| r / factor).collect();
            unit.power_mw = jobs.power_mw;
        }
        Workload::SuiteFixed => {
            // One request certifies the whole suite: the systems differ
            // too much in size for a per-system median to be steady.
            let (mut round_s, mut synth_s, mut evaluations) = (0.0, 0.0, 0);
            for system in &inputs.systems {
                let cfg = workload.config(system, seed + k);
                let outcome = synth(system, cfg.clone(), report).map(|(result, wall)| {
                    let proof = certify(system, &cfg, result.best.fitness, report);
                    (result, wall, proof.map_or(0.0, |(_, proof_s)| proof_s))
                });
                let factor = host.factor();
                let Some((result, wall, proof_s)) = outcome else {
                    continue;
                };
                evaluations += result.evaluations;
                synth_s += wall * factor;
                round_s += (wall + proof_s) * factor;
                unit.power_mw.push(result.best.power.average.as_milli());
            }
            unit.requests_s.push(round_s);
            unit.evals_per_s.push(evaluations as f64 / synth_s);
        }
        Workload::PhoneDvs | Workload::ManyModes => {
            let system = &inputs.systems[0];
            let outcome = synth(system, workload.config(system, seed + k), report);
            let factor = host.factor();
            if let Some((result, wall)) = outcome {
                unit.requests_s.push(wall * factor);
                unit.evals_per_s
                    .push(result.evaluations as f64 / (wall * factor));
                unit.power_mw.push(result.best.power.average.as_milli());
            }
        }
    }
    unit
}

/// The untraced pass: set-up, warm-up, then the run's units of work, with
/// [`MIN_SETUPS`] more set-ups spread among them. The host is probed
/// before the first set-up, after each group of set-ups and after each
/// unit, and every time is scaled by the probes around it (see
/// [`crate::host`]); the metrics are medians over the scaled samples.
pub fn end_to_end(workload: Workload, seed: u64, seconds: f64, out: &Path) -> Report {
    let mut report = Report::new(false);
    let units = workload.units(seconds);
    let mut host = HostSpeed::new();
    let (inputs, first) = match set_up(workload, seed, out) {
        Ok(prepared) => prepared,
        Err(e) => {
            report.error(e);
            return report;
        }
    };
    warm_up(workload, &inputs, seed);

    let mut setups = Vec::new();
    let mut requests = Vec::new();
    let mut throughputs = Vec::new();
    let mut powers = Vec::new();
    // Raw set-up times since the last probe.
    let mut pending_setups = vec![first.total_s];
    for k in 0..units {
        // Set-ups due before unit `k`, so that MIN_SETUPS are spread
        // evenly over the units.
        let due = ((k + 1) * MIN_SETUPS).div_ceil(units) - (k * MIN_SETUPS).div_ceil(units);
        for _ in 0..due {
            // The repetition's inputs, and its server, are dropped at once.
            match set_up(workload, seed, out) {
                Ok((_, timing)) => pending_setups.push(timing.total_s),
                Err(e) => {
                    report.error(e);
                    return report;
                }
            }
        }
        if !pending_setups.is_empty() {
            let factor = host.factor();
            setups.extend(pending_setups.drain(..).map(|s| s * factor));
        }
        let unit = run_unit(workload, &inputs, seed, k, &mut host, &mut report);
        requests.extend(unit.requests_s);
        throughputs.extend(unit.evals_per_s);
        powers.extend(unit.power_mw);
    }
    let probes = host.probes_s();
    eprintln!(
        "{}: host probe median {:.6} s over {} probes, reference {REFERENCE_PROBE_S} s",
        workload.name(),
        median(probes).expect("the first probe ran"),
        probes.len()
    );

    if let Some(p50) = median(&setups) {
        report.set("setup_s", p50, setups.len());
    }
    if let Some(p50) = median(&throughputs) {
        report.set("evals_per_s", p50, throughputs.len());
    }
    if let Some(p50) = median(&requests) {
        report.set("request_s_p50", p50, requests.len()).tail = tail(&requests);
    }
    if !powers.is_empty() {
        let mean = powers.iter().sum::<f64>() / powers.len() as f64;
        report.set("power_mw_mean", mean, powers.len());
    }
    match peak_rss_mb() {
        Ok(mb) => {
            report.set("peak_rss_mb", mb, 1);
        }
        Err(e) => report.error(e),
    }
    report
}

/// This process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}
