//! The traced pass: per-layer costs from a replay of the layer functions
//! under benchmark-owned spans, the program's counters and phase timers
//! from each workload's first synths, and the server's own histograms.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use momsynth_core::{
    derive_allocation, invariant_breach, transition_timings, Evaluator, GenomeLayout, SynthControl,
    SynthesisConfig, SynthesisResult, Synthesizer,
};
use momsynth_dvs::{scale_mode_with, DvsScratch, ScaledMode};
use momsynth_model::System;
use momsynth_power::{power_report_with, ModeImplementation, PowerReport};
use momsynth_sched::{schedule_mode_with, ListScratch, SchedError, Schedule, SystemMapping};
use momsynth_telemetry::{MemorySink, Phase};

use crate::serve;
use crate::stats::median;
use crate::workload::{certify, check_best, set_up, warm_up, Inputs, Workload};
use crate::{object, Report};

/// Times the corpus is replayed; layer times are averaged over all.
const REPLAY_PASSES: usize = 3;

/// Share of `--seconds` worth of jobs the traced `serve-small` pass
/// serves.
const SERVE_SHARE_OF_RUN: f64 = 0.4;

/// One timed interval: a layer call, or the evaluation that contains
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Module-prefixed layer name.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The replayed request this span belongs to.
    pub request: usize,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Records spans in memory; they are written out when the pass ends.
#[derive(Debug)]
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&mut self, name: &'static str, request: usize) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    fn span<T>(&mut self, name: &'static str, request: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, request);
        let value = f();
        self.close(id);
        value
    }

    /// Drops span `id`, still open, and everything recorded inside it.
    fn abandon(&mut self, id: usize) {
        self.spans.truncate(id);
        self.open.retain(|&open| open < id);
    }
}

/// Self time and count per span name. A span's self time is its
/// duration minus the part of it its child spans cover.
pub fn fold_self_time(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    let mut folded: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, kids) in spans.iter().zip(&mut children) {
        let duration = span.end_ns - span.start_ns;
        let covered = covered_ns(kids, span.start_ns, span.end_ns);
        let entry = folded.entry(span.name).or_default();
        entry.0 += duration - covered;
        entry.1 += 1;
    }
    folded
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Total duration and count per span name.
fn total_time(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for span in spans {
        let entry = totals.entry(span.name).or_default();
        entry.0 += span.end_ns - span.start_ns;
        entry.1 += 1;
    }
    totals
}

/// One replayed request: a mapping of one of the pass's systems.
struct Request<'a> {
    system: &'a System,
    config: &'a SynthesisConfig,
    mapping: SystemMapping,
}

/// Working memory reused across replayed requests, as the evaluator
/// reuses its own.
#[derive(Default)]
struct Scratch {
    sched: ListScratch,
    dvs: DvsScratch,
}

/// Prices `request` through the layer functions in the evaluator's order
/// — allocation, then scheduling and PV-DVS per mode, then pricing and
/// transition timing — each under its own span inside a `core.fitness`
/// span. Returns the power report and the PV-DVS iterations it took.
fn replay(
    tracer: &mut Tracer,
    id: usize,
    request: &Request<'_>,
    scratch: &mut Scratch,
) -> Result<(PowerReport, u64), SchedError> {
    let Request {
        system,
        config,
        mapping,
    } = request;
    let evaluate = tracer.open("core.fitness", id);
    let alloc = tracer.span("core.alloc", id, || {
        derive_allocation(system, mapping, &config.alloc)
    });
    let dvs = config.dvs.as_ref().map(|d| d.eval);
    let mut schedules: Vec<Schedule> = Vec::new();
    let mut scaled: Vec<ScaledMode> = Vec::new();
    for mode in system.omsm().mode_ids() {
        let sched = &mut scratch.sched;
        let schedule = tracer.span("sched", id, || {
            schedule_mode_with(system, mode, mapping, &alloc, config.scheduler, sched)
        });
        let schedule = match schedule {
            Ok(schedule) => schedule,
            Err(e) => {
                tracer.abandon(evaluate);
                return Err(e);
            }
        };
        match &dvs {
            Some(options) => {
                let dvs_scratch = &mut scratch.dvs;
                scaled.push(tracer.span("dvs", id, || {
                    scale_mode_with(system, &schedule, options, dvs_scratch)
                }));
            }
            None => schedules.push(schedule),
        }
    }
    let iterations = scaled.iter().map(|s| s.iterations() as u64).sum();
    let power = tracer.span("power", id, || {
        let implementations: Vec<ModeImplementation<'_>> = if dvs.is_some() {
            scaled
                .iter()
                .map(|s| ModeImplementation::scaled(s.schedule(), s.energy_factors()))
                .collect()
        } else {
            schedules.iter().map(ModeImplementation::nominal).collect()
        };
        let probabilities: Vec<f64> = system
            .omsm()
            .modes()
            .map(|(_, m)| m.probability())
            .collect();
        power_report_with(system, &implementations, &probabilities)
    });
    tracer.span("core.transition", id, || transition_timings(system, &alloc));
    tracer.close(evaluate);
    Ok((power, iterations))
}

/// The best mapping of `best` and every mapping one gene away from it
/// over the full candidate lists of [`GenomeLayout::new`].
fn neighbourhood(system: &System, best: &SystemMapping) -> Vec<SystemMapping> {
    let layout = GenomeLayout::new(system);
    let mut mappings = vec![best.clone()];
    for locus in 0..layout.len() {
        let id = layout.global(locus);
        let current = best.pe_of_global(id);
        for &pe in layout.candidates(locus).iter().filter(|&&pe| pe != current) {
            let mut neighbour = best.clone();
            neighbour.set(id.mode, id.task, pe);
            mappings.push(neighbour);
        }
    }
    mappings
}

/// What the first synths of a traced pass measured.
#[derive(Default)]
struct FirstRuns {
    /// Wall time of the untraced runs at the workload's thread count.
    untraced_s: f64,
    /// Wall time of the traced runs, which are serial.
    traced_s: f64,
    /// Untraced wall time at one and at two threads.
    serial_s: f64,
    parallel_s: f64,
    prove_s: f64,
    phase_ns: [u64; Phase::COUNT],
    phase_spans: [u64; Phase::COUNT],
    results: Vec<SynthesisResult>,
    explored: u64,
    pruned_by_bound: u64,
    gaps: Vec<f64>,
}

/// Runs one first synth three times — untraced, at the other thread
/// count, and serially with a `MemorySink` attached — and checks that all
/// three follow the same trajectory. The traced run is serial because the
/// program's phase timers add up the time of every worker thread.
fn first_run(
    workload: Workload,
    system: &System,
    cfg: &SynthesisConfig,
    firsts: &mut FirstRuns,
    report: &mut Report,
) {
    let timed = |control: SynthControl<'_>, threads: usize| {
        let cfg = SynthesisConfig {
            threads,
            ..cfg.clone()
        };
        let started = Instant::now();
        let outcome = Synthesizer::new(system, cfg).run_controlled(control);
        (outcome, started.elapsed().as_secs_f64())
    };
    report.attempted += 3;
    let (untraced, untraced_s) = timed(SynthControl::default(), cfg.threads);
    let other_threads = if cfg.threads == 1 { 2 } else { 1 };
    let (threaded, threaded_s) = timed(SynthControl::default(), other_threads);
    let sink = MemorySink::new();
    let (traced, traced_s) = timed(
        SynthControl {
            sink: Some(&sink),
            ..SynthControl::default()
        },
        1,
    );
    let (untraced, traced, threaded) = match (untraced, traced, threaded) {
        (Ok(a), Ok(b), Ok(c)) => (a, b, c),
        (a, b, c) => {
            for e in [a.err(), b.err(), c.err()].into_iter().flatten() {
                report.fail(format!("synth of {} failed: {e}", system.name()));
            }
            return;
        }
    };
    check_best(system, &untraced.best, report);
    for (label, run) in [("traced", &traced), ("re-threaded", &threaded)] {
        if run.best.fitness != untraced.best.fitness || run.evaluations != untraced.evaluations {
            report.error(format!(
                "{label} synth of {} diverged: fitness {} vs {}, evaluations {} vs {}",
                system.name(),
                run.best.fitness,
                untraced.best.fitness,
                run.evaluations,
                untraced.evaluations
            ));
        }
    }
    if sink.events().is_empty() {
        report.error(format!(
            "traced synth of {} recorded no events",
            system.name()
        ));
    }
    firsts.untraced_s += untraced_s;
    firsts.traced_s += traced_s;
    let (serial_s, parallel_s) = if cfg.threads == 1 {
        (untraced_s, threaded_s)
    } else {
        (threaded_s, untraced_s)
    };
    firsts.serial_s += serial_s;
    firsts.parallel_s += parallel_s;
    for timing in &traced.phase_timings {
        firsts.phase_ns[timing.phase.index()] += timing.nanos;
        firsts.phase_spans[timing.phase.index()] += timing.spans;
    }
    if workload == Workload::SuiteFixed {
        if let Some((certificate, prove_s)) = certify(system, cfg, untraced.best.fitness, report) {
            firsts.prove_s += prove_s;
            firsts.explored += certificate.explored;
            firsts.pruned_by_bound += certificate.pruned_by_bound;
            firsts.gaps.push(certificate.epsilon());
        }
    }
    firsts.results.push(untraced);
}

/// The traced pass of `workload`.
pub fn layers(workload: Workload, seed: u64, seconds: f64, out: &Path) -> Report {
    let mut report = Report::new(true);
    let (inputs, setup) = match set_up(workload, seed, out) {
        Ok(prepared) => prepared,
        Err(e) => {
            report.error(e);
            return report;
        }
    };
    let systems = inputs.systems.len();
    report.set("analyze.ms", setup.analyze_s * 1e3, systems);
    report.set("model.spec_load_ms", setup.load_s * 1e3, systems);
    report.set("serve.start_share", setup.start_s / setup.total_s, 1);
    warm_up(workload, &inputs, seed);

    // The first synth of every system the workload's first units touch,
    // with the configuration those units use.
    let firsts_of: Vec<(&System, SynthesisConfig)> = match workload {
        Workload::PhoneDvs | Workload::ManyModes => {
            vec![(
                &inputs.systems[0],
                workload.config(&inputs.systems[0], seed),
            )]
        }
        Workload::SuiteFixed => inputs
            .systems
            .iter()
            .map(|s| (s, workload.config(s, seed)))
            .collect(),
        Workload::ServeSmall => (0u64..)
            .zip(&inputs.systems)
            .map(|(i, s)| (s, workload.config(s, seed + i)))
            .collect(),
    };
    let mut firsts = FirstRuns::default();
    for (system, cfg) in &firsts_of {
        first_run(workload, system, cfg, &mut firsts, &mut report);
    }
    record_first_runs(&firsts, &mut report);

    if workload == Workload::ServeSmall {
        let batches = workload.units(seconds * SERVE_SHARE_OF_RUN);
        record_serve(&inputs, seed, batches * serve::JOBS_PER_BATCH, &mut report);
    } else {
        for name in [
            "serve.overhead_share",
            "serve.queue_wait_share",
            "serve.journal_write_share",
            "serve.journal_fsync_share",
            "serve.journal_writes_per_job",
            "serve.submit_share",
        ] {
            report.set(name, 0.0, 0);
        }
    }

    let corpus: Vec<Request<'_>> = firsts_of
        .iter()
        .zip(&firsts.results)
        .flat_map(|((system, config), result)| {
            neighbourhood(system, &result.best.mapping)
                .into_iter()
                .map(move |mapping| Request {
                    system,
                    config,
                    mapping,
                })
        })
        .collect();
    let spans = replay_corpus(&corpus, &mut report);
    // Later passes repeat the first request for request; the file keeps
    // one pass so its size depends on the corpus only.
    let first_pass = spans
        .iter()
        .take_while(|s| s.request < corpus.len())
        .count();
    let path = out.join(format!("trace-{}.jsonl", workload.name()));
    if let Err(e) = write_spans(&path, &spans[..first_pass]) {
        report.error(format!("cannot write {}: {e}", path.display()));
    }
    report
}

fn record_first_runs(firsts: &FirstRuns, report: &mut Report) {
    let runs = firsts.results.len();
    let sum = |f: &dyn Fn(&SynthesisResult) -> u64| firsts.results.iter().map(f).sum::<u64>();
    let lookups = sum(&|r| r.counters.cache_hits + r.counters.cache_misses);
    let ratio = |part: u64| {
        if lookups == 0 {
            0.0
        } else {
            part as f64 / lookups as f64
        }
    };
    report.set(
        "ga.evaluations",
        sum(&|r| r.evaluations as u64) as f64,
        runs,
    );
    report.set(
        "ga.generations",
        sum(&|r| r.generations as u64) as f64,
        runs,
    );
    report.set("ga.rejected", sum(&|r| r.rejected as u64) as f64, runs);
    let power: f64 = firsts
        .results
        .iter()
        .map(|r| r.best.power.average.as_milli())
        .sum();
    report.set("ga.best_power_mw", power / runs.max(1) as f64, runs);
    report.set(
        "dvs.iterations",
        sum(&|r| r.counters.dvs_iterations) as f64,
        runs,
    );
    report.set(
        "core.cache.hit_rate",
        ratio(sum(&|r| r.counters.cache_hits)),
        runs,
    );
    report.set(
        "core.cache.priced_ratio",
        ratio(sum(&|r| r.counters.evaluated)),
        runs,
    );

    let eval = Phase::FitnessEval.index();
    let eval_ns = firsts.phase_ns[eval] as f64;
    let share = |phase: Phase| {
        if eval_ns > 0.0 {
            firsts.phase_ns[phase.index()] as f64 / eval_ns
        } else {
            0.0
        }
    };
    let evals = firsts.phase_spans[eval] as usize;
    report.set(
        "phase.fitness_eval.ns_per_eval",
        eval_ns / evals.max(1) as f64,
        evals,
    );
    report.set(
        "phase.core_allocation.share",
        share(Phase::CoreAllocation),
        evals,
    );
    report.set(
        "phase.list_scheduling.share",
        share(Phase::ListScheduling),
        evals,
    );
    report.set(
        "phase.voltage_scaling.share",
        share(Phase::VoltageScaling),
        evals,
    );
    report.set(
        "phase.power_pricing.share",
        share(Phase::PowerPricing),
        evals,
    );
    report.set(
        "ga.outside_eval_share",
        1.0 - eval_ns / (firsts.traced_s * 1e9),
        runs,
    );
    report.set(
        "trace.overhead_pct",
        (firsts.traced_s / firsts.serial_s - 1.0) * 100.0,
        runs,
    );
    report.set(
        "core.batch.parallel_speedup",
        firsts.serial_s / firsts.parallel_s,
        runs,
    );

    report.set(
        "prove.share",
        firsts.prove_s / (firsts.untraced_s + firsts.prove_s),
        firsts.gaps.len(),
    );
    report.set("ga.bnb.explored", firsts.explored as f64, firsts.gaps.len());
    report.set(
        "ga.bnb.pruned_by_bound",
        firsts.pruned_by_bound as f64,
        firsts.gaps.len(),
    );
    report.set(
        "ga.bnb.certified_gap",
        median(&firsts.gaps).unwrap_or(0.0),
        firsts.gaps.len(),
    );
}

/// Serves `jobs` quick jobs and splits their client-side latency into
/// the server's own timers.
fn record_serve(inputs: &Inputs, seed: u64, jobs: u64, report: &mut Report) {
    let harness = inputs.server.as_ref().expect("serve-small starts a server");
    let jobs = serve::closed_loop(harness, &inputs.systems, seed, 0..jobs, report);
    let snapshot = harness.server().metrics_snapshot();
    let histogram = |name: &str| {
        snapshot
            .histogram_sample(name, &[])
            .map_or((0.0, 0), |h| (h.sum, h.count))
    };
    let n = jobs.latency_s.len();
    let latency: f64 = jobs.latency_s.iter().sum();
    let share = |seconds: f64| {
        if latency > 0.0 {
            seconds / latency
        } else {
            0.0
        }
    };
    let (queue_wait_s, _) = histogram("momsynth_job_queue_wait_seconds");
    let (write_s, writes) = histogram("momsynth_journal_write_seconds");
    let (fsync_s, _) = histogram("momsynth_journal_fsync_seconds");
    report.set(
        "serve.overhead_share",
        share(latency - jobs.synth_s.iter().sum::<f64>()),
        n,
    );
    report.set("serve.queue_wait_share", share(queue_wait_s), n);
    report.set("serve.journal_write_share", share(write_s), n);
    report.set("serve.journal_fsync_share", share(fsync_s), n);
    report.set(
        "serve.journal_writes_per_job",
        writes as f64 / n.max(1) as f64,
        n,
    );
    report.set("serve.submit_share", share(jobs.submit_s.iter().sum()), n);
}

/// Replays the corpus [`REPLAY_PASSES`] times, checks each replay against the
/// program's evaluator and the checker, and records the layer metrics.
fn replay_corpus(corpus: &[Request<'_>], report: &mut Report) -> Vec<Span> {
    let mut tracer = Tracer::new();
    let mut scratch = Scratch::default();
    let (mut replayed, mut errors, mut iterations) = (0u64, 0u64, 0u64);
    for pass in 0..REPLAY_PASSES {
        for (offset, request) in corpus.iter().enumerate() {
            let id = pass * corpus.len() + offset;
            let replayed_power = replay(&mut tracer, id, request, &mut scratch);
            let evaluator = Evaluator::new(request.system, request.config);
            let dvs = request.config.dvs.as_ref().map(|d| d.eval);
            let evaluated = evaluator.evaluate(request.mapping.clone(), dvs.as_ref());
            match (replayed_power, evaluated) {
                (Ok((power, n)), Ok(solution)) => {
                    if power != solution.power {
                        report.error(format!(
                            "replayed power of a {} mapping differs from the evaluator's",
                            request.system.name()
                        ));
                    }
                    let breach =
                        tracer.span("check", id, || invariant_breach(request.system, &solution));
                    if let Some(breach) = breach {
                        report.error(format!(
                            "a {} neighbour breaks the evaluator's invariant: {breach}",
                            request.system.name()
                        ));
                    }
                    replayed += 1;
                    iterations += n;
                }
                (Err(_), Err(_)) => errors += 1,
                (replayed, evaluated) => report.error(format!(
                    "replay and evaluator disagree on whether a {} mapping schedules \
                     (replay ok: {}, evaluator ok: {})",
                    request.system.name(),
                    replayed.is_ok(),
                    evaluated.is_ok()
                )),
            }
        }
    }

    let own = fold_self_time(&tracer.spans);
    let totals = total_time(&tracer.spans);
    let self_ns = |name: &str| own.get(name).map_or(0.0, |&(ns, _)| ns as f64);
    let (fitness_ns, _) = totals.get("core.fitness").copied().unwrap_or_default();
    let fitness_ns = fitness_ns as f64;
    let per_eval_us = |ns: f64| {
        if replayed > 0 {
            ns / replayed as f64 / 1e3
        } else {
            0.0
        }
    };
    let n = replayed as usize;
    report.set("core.fitness.us_per_eval", per_eval_us(fitness_ns), n);
    report.set(
        "core.fitness.coverage",
        if fitness_ns > 0.0 {
            1.0 - self_ns("core.fitness") / fitness_ns
        } else {
            0.0
        },
        n,
    );
    report.set(
        "core.alloc.us_per_eval",
        per_eval_us(self_ns("core.alloc")),
        n,
    );
    report.set("sched.us_per_eval", per_eval_us(self_ns("sched")), n);
    let sched_calls = own.get("sched").map_or(0, |&(_, count)| count);
    report.set(
        "sched.calls_per_eval",
        sched_calls as f64 / replayed.max(1) as f64,
        n,
    );
    report.set(
        "dvs.eval_share",
        if fitness_ns > 0.0 {
            self_ns("dvs") / fitness_ns
        } else {
            0.0
        },
        n,
    );
    report.set(
        "dvs.iters_per_eval",
        iterations as f64 / replayed.max(1) as f64,
        n,
    );
    report.set("power.us_per_eval", per_eval_us(self_ns("power")), n);
    report.set(
        "core.transition.us_per_eval",
        per_eval_us(self_ns("core.transition")),
        n,
    );
    let (check_ns, checks) = totals.get("check").copied().unwrap_or_default();
    report.set(
        "check.us_per_call",
        check_ns as f64 / checks.max(1) as f64 / 1e3,
        checks as usize,
    );
    report.set("replay.requests", replayed as f64, REPLAY_PASSES);
    report.set("replay.errors", errors as f64, REPLAY_PASSES);
    if fitness_ns > 0.0 && self_ns("core.fitness") / fitness_ns > 0.1 {
        report.error("layer spans cover less than 90% of the evaluation".into());
    }
    tracer.spans
}

/// Writes one JSON object per span.
fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in spans.iter().enumerate() {
        let line = object(vec![
            ("id", serde_json::to_value(&(id as u64))),
            (
                "parent",
                span.parent.map_or(serde_json::Value::Null, |p| {
                    serde_json::to_value(&(p as u64))
                }),
            ),
            ("request", serde_json::to_value(&(span.request as u64))),
            ("name", serde_json::Value::String(span.name.to_owned())),
            ("start_ns", serde_json::to_value(&span.start_ns)),
            ("end_ns", serde_json::to_value(&span.end_ns)),
        ]);
        writeln!(
            file,
            "{}",
            serde_json::to_string(&line).expect("JSON values always print")
        )?;
    }
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_spans() {
        let spans = [
            span("core.fitness", None, 0, 100),
            span("core.alloc", Some(0), 10, 20),
            // Two overlapping children cover 20..60 once, not 30 + 20.
            span("sched", Some(0), 20, 50),
            span("sched", Some(0), 40, 60),
            span("power", Some(0), 70, 80),
            // A child reaching past its parent counts only inside it.
            span("core.transition", Some(0), 95, 105),
            span("check", None, 105, 110),
        ];
        let folded = fold_self_time(&spans);
        assert_eq!(folded["core.fitness"], (100 - 10 - 40 - 10 - 5, 1));
        assert_eq!(folded["core.alloc"], (10, 1));
        assert_eq!(folded["sched"], (30 + 20, 2));
        assert_eq!(folded["power"], (10, 1));
        assert_eq!(folded["core.transition"], (10, 1));
        assert_eq!(folded["check"], (5, 1));
        let totals = total_time(&spans);
        assert_eq!(totals["core.fitness"], (100, 1));
    }

    #[test]
    fn nested_spans_fold_level_by_level() {
        let spans = [
            span("core.fitness", None, 0, 50),
            span("sched", Some(0), 0, 40),
            span("dvs", Some(1), 10, 30),
        ];
        let folded = fold_self_time(&spans);
        assert_eq!(folded["core.fitness"], (10, 1));
        assert_eq!(folded["sched"], (20, 1));
        assert_eq!(folded["dvs"], (20, 1));
    }

    #[test]
    fn an_abandoned_span_leaves_no_trace() {
        let mut tracer = Tracer::new();
        tracer.span("check", 0, || ());
        let evaluate = tracer.open("core.fitness", 1);
        tracer.span("core.alloc", 1, || ());
        tracer.abandon(evaluate);
        assert_eq!(tracer.spans.len(), 1);
        assert!(tracer.open.is_empty());
        let next = tracer.open("core.fitness", 2);
        assert_eq!(tracer.spans[next].parent, None);
    }
}
