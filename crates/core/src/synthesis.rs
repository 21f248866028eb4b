//! The co-synthesis driver: the paper's nested two-loop optimisation.
//!
//! The outer loop (the GA over multi-mode mapping strings, Fig. 4)
//! optimises task mapping and core allocation; the inner loop
//! (list scheduling + communication mapping + PV-DVS) constructs the rest
//! of each implementation candidate. [`Synthesizer::run`] wires the
//! [`GenomeLayout`], [`Evaluator`] and improvement operators into the
//! generic GA engine and refines the winning candidate with fine-grained
//! voltage scaling.
//!
//! # Failure semantics
//!
//! The driver is designed to always come back with either a well-formed
//! [`SynthesisResult`] or a typed [`SynthesisError`]:
//!
//! - GA candidates whose evaluation fails, panics or prices to a
//!   non-finite fitness are isolated by [`Evaluator::try_cost`]'s guard,
//!   the one [`Evaluator::try_evaluate`] shares, charged
//!   [`REJECTED_COST`] and counted in [`SynthesisResult::rejected`]; the
//!   run continues.
//! - Budgets ([`momsynth_ga::GaConfig::max_seconds`],
//!   [`momsynth_ga::GaConfig::max_evaluations`]) and a cooperative stop
//!   flag degrade the run gracefully: the engine stops mid-generation and
//!   the best-so-far solution is still refined and returned, tagged with
//!   an accurate [`StopReason`].
//! - If even the final refinement of the winner fails, the driver falls
//!   back to the all-software seed mapping; only when that fails too does
//!   it return [`SynthesisError::Unschedulable`].

use momsynth_sync::sync::atomic::AtomicBool;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rand::{Rng, RngCore};

use momsynth_analyze::{analyze_system, Analysis, Severity};
use momsynth_ga::{Budget, GaProblem, GaSnapshot, RunControl, StopReason, REJECTED_COST};
use momsynth_model::ids::ModeId;
use momsynth_model::units::Watts;
use momsynth_model::System;
use momsynth_telemetry::{
    Counters, Event, ModeSummary, PhaseTiming, RunStart, RunSummary, Sink, SpanEvent, Warning,
    RUN_PATH,
};

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::config::{InjectedFault, SynthesisConfig};
use crate::fitness::{Evaluator, Solution};
use crate::genome::{Gene, GenomeLayout};
use crate::improve::improve_random;
use crate::local_search::{polish, LocalSearchOptions};
use crate::parents::{ParentRecord, ParentTable};
use momsynth_dvs::DvsOptions;

/// The outcome of a synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisResult {
    /// The best implementation found, refined with fine-grained DVS.
    pub best: Solution,
    /// Generations executed by the GA.
    pub generations: usize,
    /// Fitness evaluations performed.
    pub evaluations: usize,
    /// Candidate evaluations rejected because they errored, panicked or
    /// priced to a non-finite fitness.
    pub rejected: usize,
    /// Best fitness after each generation.
    pub history: Vec<f64>,
    /// Why the optimisation stopped.
    pub stop_reason: StopReason,
    /// Wall-clock optimisation time.
    pub wall_time: Duration,
    /// Cumulative telemetry counters (violations seen, rejected
    /// evaluations, improvement-operator efficacy, DVS iterations).
    pub counters: Counters,
    /// Per-phase wall-clock breakdown of the inner loop. Empty unless a
    /// trace-enabled sink was attached to the run, which receives each
    /// entry as the span at its [`Phase::path`](momsynth_telemetry::Phase::path).
    pub phase_timings: Vec<PhaseTiming>,
    /// Provable Eq. 1 power lower bound p̄_LB computed by the
    /// pre-synthesis static analyzer. The reported average power of any
    /// verifier-accepted solution is at least this value.
    pub power_lower_bound: Watts,
    /// Fraction of (task, candidate PE) pairs the static analyzer proved
    /// infeasible and removed from the genome domain; `0.0` when
    /// [`SynthesisConfig::prune_domains`] is off.
    pub pruned_domain_ratio: f64,
}

impl SynthesisResult {
    /// Renders the run as a machine-readable [`RunSummary`]: final p̄
    /// per Eq. 1, per-mode dynamic/static power breakdown, stop reason
    /// and throughput.
    pub fn summary(&self, system: &System, config: &SynthesisConfig) -> RunSummary {
        let modes = system
            .omsm()
            .modes()
            .map(|(mode, m)| {
                let mp = &self.best.power.modes[mode.index()];
                ModeSummary {
                    mode: m.name().to_owned(),
                    probability: m.probability(),
                    dynamic_mw: mp.dynamic.as_milli(),
                    static_mw: mp.static_power.as_milli(),
                    total_mw: mp.total().as_milli(),
                }
            })
            .collect();
        let wall = self.wall_time.as_secs_f64();
        let lb = self.power_lower_bound;
        let optimality_gap = if lb.value() > 0.0 && self.best.power.average.value().is_finite() {
            (self.best.power.average - lb) / lb
        } else {
            0.0
        };
        RunSummary {
            system: system.name().to_owned(),
            probability_aware: config.probability_aware,
            dvs: config.dvs.is_some(),
            seed: config.ga.seed,
            average_power_mw: self.best.power.average.as_milli(),
            feasible: self.best.is_feasible(),
            modes,
            stop_reason: self.stop_reason.to_string(),
            generations: self.generations as u64,
            evaluations: self.evaluations as u64,
            rejected: self.rejected as u64,
            wall_time_s: wall,
            evals_per_sec: if wall > 0.0 { self.evaluations as f64 / wall } else { 0.0 },
            threads: config.effective_threads() as u64,
            power_lower_bound_mw: lb.as_milli(),
            optimality_gap,
            counters: self.counters.clone(),
        }
    }

    /// Renders the full solution (mapping, allocation, schedules, power)
    /// as the machine-readable JSON report that `momsynth run --output`
    /// writes and the job server returns from its result endpoint.
    pub fn report(&self, system: &System) -> serde_json::Value {
        serde_json::json!({
            "system": system.name(),
            "average_power_mw": self.best.power.average.as_milli(),
            "feasible": self.best.is_feasible(),
            "mapping": self.best.mapping,
            "alloc": self.best.alloc,
            "schedules": self.best.schedules,
            "voltage_schedules": self.best.voltage_schedules,
            "power": self.best.power,
            "generations": self.generations,
            "evaluations": self.evaluations,
            "rejected": self.rejected,
            "stop_reason": self.stop_reason.to_string(),
        })
    }
}

/// A synthesis run failed in a way no fallback could absorb.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthesisError {
    /// The pre-synthesis static analyzer proved the specification
    /// infeasible — some constraint is violated by *every* candidate
    /// implementation (a deadline below the critical-path floor, a task
    /// with no capable PE, a hardware area floor above capacity) — so the
    /// GA never started. The carried [`Analysis`] lists the proofs.
    Infeasible(Box<Analysis>),
    /// Neither the GA's winner nor the all-software fallback mapping
    /// could be scheduled — the system specification admits no routable
    /// implementation (or the evaluator fails persistently).
    Unschedulable {
        /// Why the best genome's final evaluation failed.
        best: String,
        /// Why the all-software fallback failed as well.
        fallback: String,
    },
    /// A resume checkpoint could not be applied to this run.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Infeasible(analysis) => {
                write!(
                    f,
                    "specification is provably infeasible ({} error finding(s)): ",
                    analysis.count(Severity::Error)
                )?;
                let mut first = true;
                for finding in analysis.errors() {
                    if !first {
                        write!(f, "; ")?;
                    }
                    first = false;
                    write!(f, "{finding}")?;
                }
                Ok(())
            }
            Self::Unschedulable { best, fallback } => write!(
                f,
                "no schedulable implementation: best genome failed ({best}), \
                 all-software fallback failed ({fallback})"
            ),
            Self::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for SynthesisError {}

impl From<CheckpointError> for SynthesisError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

/// Periodic checkpointing of a synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointSpec {
    /// File the checkpoint JSON is (atomically) written to.
    pub path: PathBuf,
    /// Save every this many generations (0 is treated as 1).
    pub every: usize,
    /// Additionally save whenever this much wall-clock time has passed
    /// since the last save, regardless of the generation cadence. A
    /// long-running server sets this so slow generations cannot stretch
    /// the crash-recovery window arbitrarily. `None` disables the time
    /// cadence.
    pub every_seconds: Option<f64>,
}

impl CheckpointSpec {
    /// Generation-cadence-only checkpointing (no time cadence).
    pub fn every_generations(path: PathBuf, every: usize) -> Self {
        Self { path, every, every_seconds: None }
    }
}

/// Resilience controls for [`Synthesizer::run_controlled`]. The default
/// runs to completion without checkpoints, like [`Synthesizer::run`].
#[derive(Default)]
pub struct SynthControl<'a> {
    /// Cooperative cancellation flag (e.g. raised by a Ctrl-C handler);
    /// checked between evaluations by both the GA and the polish stage.
    pub stop: Option<&'a AtomicBool>,
    /// Periodically checkpoint the GA state to a file. Save failures are
    /// reported as [`Warning`] events (stderr when no sink is attached)
    /// but never abort the run.
    pub checkpoint: Option<CheckpointSpec>,
    /// Resume from a previously saved checkpoint instead of a fresh
    /// population. Validated against the loaded system and seed.
    pub resume: Option<Checkpoint>,
    /// Telemetry sink receiving run/generation/span/summary events.
    /// Expensive events are only built when the sink reports
    /// [`Sink::enabled`].
    pub sink: Option<&'a dyn Sink>,
    /// Trace identifier stamped on the run's `RunStart` and `Span`
    /// events, threading them to the submitting job (the serve layer
    /// mints one per job). `None` derives a deterministic local ID from
    /// the system name and seed.
    pub trace_id: Option<String>,
}

impl std::fmt::Debug for SynthControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SynthControl")
            .field("stop", &self.stop)
            .field("checkpoint", &self.checkpoint)
            .field("resume", &self.resume.as_ref().map(|c| c.generation))
            .field("sink", &self.sink.map(|s| s.enabled()))
            .field("trace_id", &self.trace_id)
            .finish()
    }
}

/// Multi-mode mapping as a [`GaProblem`].
#[derive(Debug)]
struct MappingProblem<'a> {
    layout: &'a GenomeLayout,
    /// The run's pricing unit; its counters are the run's counters.
    evaluator: &'a Evaluator<'a>,
    /// The batch workers that price beside the calling thread, created
    /// when a batch first needs them and kept for the whole run, so each
    /// worker's scratch stays warm across generations. Never more than
    /// `threads − 1`, nor more than the largest batch's unique genomes
    /// but one; empty at one thread, absent under loom.
    #[cfg(not(loom))]
    workers: RefCell<Vec<Evaluator<'a>>>,
    system: &'a System,
    config: &'a SynthesisConfig,
    /// Resolved pricing-thread count, the calling thread included.
    threads: usize,
}

/// Prices one genome for the GA against its parents' `table`: an
/// injected fault or any [`Evaluator::try_cost`] failure rejects the
/// candidate with [`REJECTED_COST`] and leaves its record empty. Counts
/// on `evaluator`. The genome's gene slices are hashed here, once: the
/// table's lookups read the hashes, and the record keeps them for the
/// tables it joins as a parent. A free function (rather than a method)
/// so parallel workers can run it against their own evaluator without
/// sharing the `!Sync` [`MappingProblem`].
fn price_genome(
    layout: &GenomeLayout,
    config: &SynthesisConfig,
    evaluator: &Evaluator<'_>,
    table: &ParentTable<'_>,
    genome: &[Gene],
) -> (f64, ParentRecord) {
    let dvs = config.dvs.as_ref().map(|d| d.eval);
    let slices = layout.slice_hashes(genome);
    let priced = if config.fault_injection.is_some_and(|f| f.roll(genome).is_some()) {
        None
    } else {
        let known =
            |mode: ModeId, alloc: &_| table.known_hashed(slices[mode.index()], genome, mode, alloc);
        evaluator.try_cost(&layout.decode(genome), dvs.as_ref(), known).ok()
    };
    let record = ParentRecord::new(genome.to_vec(), priced.as_ref()).with_slices(slices);
    match priced {
        Some(cost) => {
            evaluator.count(|c| {
                c.timing_violations += u64::from(cost.violations.timing);
                c.area_violations += u64::from(cost.violations.area);
                c.transition_violations += u64::from(cost.violations.transition);
            });
            (cost.fitness, record)
        }
        None => {
            evaluator.count(|c| c.rejected += 1);
            (REJECTED_COST, record)
        }
    }
}

impl GaProblem for MappingProblem<'_> {
    type Gene = Gene;
    /// The genome's per-mode Eq. 1 terms, which its offspring reuse.
    type Record = ParentRecord;

    fn genome_len(&self) -> usize {
        self.layout.len()
    }

    fn random_gene(&self, locus: usize, rng: &mut dyn RngCore) -> Gene {
        rng.gen_range(0..self.layout.candidates(locus).len()) as Gene
    }

    /// Batched pricing: the GA hands over each generation's unevaluated
    /// genomes at once, with the population they were bred from, each
    /// parent with its record. Identical genomes within the batch are
    /// priced once against the parents' table (a mode whose gene slice
    /// and core counts equal a parent's reuses its term): at one thread
    /// in batch order on the calling thread, otherwise on the calling
    /// thread and the kept workers, each claiming the next unpriced
    /// genome until none remain. The costs and records are scattered back
    /// in batch order, a repeated genome getting a copy of its first
    /// occurrence's record. Fitness and record are pure functions of the
    /// genome and the table a function of the parents' records, so worker
    /// scheduling cannot influence any returned cost or counter, and the
    /// dedup never depends on the thread count: trajectories and counters
    /// are bit-identical for any `threads`.
    fn cost_batch(
        &self,
        parents: &[(&[Gene], &ParentRecord)],
        genomes: &[Vec<Gene>],
    ) -> Vec<(f64, ParentRecord)> {
        // Any record of a gene slice under the same core counts holds the
        // same term, so neither a parent's duplicates nor the order of the
        // records changes what the table answers.
        let table = ParentTable::new(self.layout, parents.iter().map(|&(_, record)| record));
        // `slot_of[i]` maps the i-th genome to its unique-genome slot,
        // and `unique[slot]` is the slot's first genome.
        let mut unique: Vec<usize> = Vec::new();
        let mut first: HashMap<&[Gene], usize> = HashMap::with_capacity(genomes.len());
        let slot_of: Vec<usize> = genomes
            .iter()
            .enumerate()
            .map(|(i, genome)| {
                *first.entry(genome.as_slice()).or_insert_with(|| {
                    unique.push(i);
                    unique.len() - 1
                })
            })
            .collect();
        self.evaluator.count(|c| {
            c.cache_misses += genomes.len() as u64;
            c.evaluated += unique.len() as u64;
        });
        let price = |evaluator: &Evaluator<'_>, i: usize| {
            price_genome(self.layout, self.config, evaluator, &table, &genomes[i])
        };
        // `priced[slot]` is the unique genome's cost and record.
        let mut priced: Vec<Option<(f64, ParentRecord)>> = Vec::with_capacity(unique.len());
        // The caller prices beside `spawned` threads, never more threads
        // in all than unique genomes. Under the loom model checker the
        // scoped parallel arm is compiled out (loom has no scoped
        // threads); batches price serially, which the determinism
        // contract already permits.
        let spawned = (self.threads - 1).min(unique.len().saturating_sub(1));
        let serial = cfg!(loom) || spawned == 0;
        if serial {
            priced.extend(unique.iter().map(|&i| Some(price(self.evaluator, i))));
        }
        #[cfg(not(loom))]
        if !serial {
            use momsynth_sync::sync::atomic::{AtomicUsize, Ordering};
            // Every pricing thread, the caller included, claims the next
            // unpriced slot until none remain, so none idles while another
            // holds a backlog. The join publishes the claimed records.
            let mut workers = self.workers.borrow_mut();
            if workers.len() < spawned {
                workers.resize_with(spawned, || self.evaluator.worker());
            }
            let next = AtomicUsize::new(0);
            let claim = |evaluator: &Evaluator<'_>| {
                let mut claimed = Vec::new();
                loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = unique.get(slot) else { return claimed };
                    claimed.push((slot, price(evaluator, i)));
                }
            };
            let claim = &claim;
            priced.resize_with(unique.len(), || None);
            momsynth_sync::thread::scope(|scope| {
                let handles: Vec<_> = workers[..spawned]
                    .iter_mut()
                    .map(|worker| scope.spawn(move || claim(worker)))
                    .collect();
                let own = claim(self.evaluator);
                let joined = handles.into_iter().map(|handle| {
                    handle.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                });
                for (slot, entry) in std::iter::once(own).chain(joined).flatten() {
                    priced[slot] = Some(entry);
                }
            });
            // Each worker is a pricing unit of its own; folding it back is
            // a commutative sum that empties it, so totals are independent
            // of worker scheduling and a warm worker is never counted twice.
            for worker in &workers[..spawned] {
                self.evaluator.absorb(worker);
            }
        }
        // A genome's first occurrence takes the record, a repeat a copy.
        let mut batch: Vec<(f64, ParentRecord)> = Vec::with_capacity(genomes.len());
        for (i, &slot) in slot_of.iter().enumerate() {
            let first = unique[slot];
            let entry = if first == i { priced[slot].take() } else { Some(batch[first].clone()) };
            batch.push(entry.expect("one record per unique genome"));
        }
        batch
    }

    /// Each restored genome's record, priced against no parents on one
    /// throwaway worker whose counters and phase timings are dropped, so
    /// the run's counters stay those of the uninterrupted run.
    fn restore(&self, genomes: &[Vec<Gene>]) -> Vec<ParentRecord> {
        let (empty, throwaway) = (ParentTable::new(self.layout, []), self.evaluator.worker());
        let record = |genome: &Vec<Gene>| {
            price_genome(self.layout, self.config, &throwaway, &empty, genome).1
        };
        genomes.iter().map(record).collect()
    }

    fn improve(&self, genome: &mut [Gene], rng: &mut dyn RngCore) {
        let (op, changed) = improve_random(self.system, self.layout, genome, rng);
        self.evaluator.count(|c| {
            c.improve_applied[op.index()] += 1;
            c.improve_accepted[op.index()] += u64::from(changed);
        });
    }

    fn counters(&self) -> Counters {
        self.evaluator.counters()
    }

    /// Seed the population with the trivial all-software mapping (every
    /// task on its lowest-index software candidate). This keeps scarce
    /// hardware area from being squandered by random rare-mode genes and
    /// gives selection a clean baseline to add hardware onto — a small,
    /// documented deviation from the paper's purely random initialisation.
    fn seeds(&self) -> Vec<Vec<Gene>> {
        let genome = (0..self.layout.len())
            .map(|l| {
                self.layout
                    .candidates(l)
                    .iter()
                    .position(|&pe| self.system.arch().pe(pe).kind().is_software())
                    .unwrap_or(0) as Gene
            })
            .collect();
        vec![genome]
    }
}

/// Runs the paper's co-synthesis on one system.
#[derive(Debug)]
pub struct Synthesizer<'a> {
    system: &'a System,
    config: SynthesisConfig,
}

impl<'a> Synthesizer<'a> {
    /// Creates a synthesizer for `system` under `config`.
    pub fn new(system: &'a System, config: SynthesisConfig) -> Self {
        Self { system, config }
    }

    /// The configuration this synthesizer runs with.
    pub fn config(&self) -> &SynthesisConfig {
        &self.config
    }

    /// Runs the GA and returns the refined best implementation.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::Unschedulable`] when neither the winning
    /// genome nor the all-software fallback mapping can be scheduled —
    /// possible only when the architecture cannot route *any* complete
    /// mapping (a specification error) or the evaluator fails
    /// persistently.
    pub fn run(&self) -> Result<SynthesisResult, SynthesisError> {
        self.run_controlled(SynthControl::default())
    }

    /// Like [`Synthesizer::run`], with cooperative cancellation,
    /// checkpointing and resume.
    ///
    /// When the run is interrupted (stop flag, wall-clock or evaluation
    /// budget) the best-so-far solution is still refined and returned;
    /// [`SynthesisResult::stop_reason`] records why the run ended. On
    /// resume, wall-clock budgets restart with this process.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::Checkpoint`] if the resume checkpoint
    /// does not match this system/seed, and
    /// [`SynthesisError::Unschedulable`] as for [`Synthesizer::run`].
    pub fn run_controlled(
        &self,
        control: SynthControl<'_>,
    ) -> Result<SynthesisResult, SynthesisError> {
        let start = Instant::now();
        let sink = control.sink;
        let trace = sink.is_some_and(momsynth_telemetry::Sink::enabled);
        // Static feasibility pass: fail fast on proven infeasibility, and
        // (optionally) shrink the genome domains to the candidates the
        // analyzer could not rule out. Pruning only removes provably
        // infeasible genes, so it never changes the reachable optimum.
        let analysis = analyze_system(self.system);
        if analysis.has_errors() {
            return Err(SynthesisError::Infeasible(Box::new(analysis)));
        }
        let power_lower_bound = analysis.power_lower_bound();
        let (layout, reduction) =
            GenomeLayout::from_analysis(self.system, &analysis, self.config.prune_domains);
        let pruned_domain_ratio = reduction.ratio();
        let mut evaluator = Evaluator::new(self.system, &self.config);
        if trace {
            evaluator.enable_phase_timing();
        }
        let ga_config = &self.config.ga;
        // Resolve the trace ID once: an externally minted one (a job
        // server threading submission → run → journal) wins; otherwise a
        // deterministic local ID keeps standalone traces self-labelled.
        let trace_id = control
            .trace_id
            .clone()
            .unwrap_or_else(|| format!("synth-{}-{}", self.system.name(), ga_config.seed));
        let problem = MappingProblem {
            layout: &layout,
            evaluator: &evaluator,
            system: self.system,
            config: &self.config,
            #[cfg(not(loom))]
            workers: RefCell::default(),
            threads: self.config.effective_threads(),
        };

        let resume = match control.resume {
            Some(checkpoint) => {
                checkpoint.validate(self.system, &layout, ga_config.seed)?;
                // Restore the cumulative counters so the resumed trace
                // continues exactly where the original left off.
                evaluator.count(|c| *c = checkpoint.counters.clone());
                Some(checkpoint.into_snapshot())
            }
            None => None,
        };
        if trace {
            if let Some(sink) = sink {
                sink.record(&Event::RunStart(RunStart {
                    system: self.system.name().to_owned(),
                    seed: ga_config.seed,
                    probability_aware: self.config.probability_aware,
                    dvs: self.config.dvs.is_some(),
                    modes: self.system.omsm().mode_count() as u64,
                    genome_len: layout.len() as u64,
                    resumed_generation: resume.as_ref().map(|s| s.generation as u64),
                    power_lower_bound_mw: power_lower_bound.as_milli(),
                    pruned_domain_ratio,
                    trace_id: trace_id.clone(),
                }));
            }
        }
        type GenerationHook<'h> = Box<dyn FnMut(&GaSnapshot<Gene>) + 'h>;
        let problem_ref = &problem;
        let verify_generations = self.config.verify_each_generation;
        let checkpoint_spec = control
            .checkpoint
            .as_ref()
            .map(|spec| (spec.every.max(1), spec.path.clone(), spec.every_seconds));
        // The freshest capture and the generation last written to disk,
        // kept outside the hook so an interrupted run (cancellation,
        // budget, shutdown) can flush one final checkpoint even when the
        // generation cadence left the file stale.
        let latest_checkpoint: RefCell<Option<Checkpoint>> = RefCell::new(None);
        let last_saved_generation = Cell::new(None::<usize>);
        let last_save_time = Cell::new(Instant::now());
        // The oracle re-derives solutions through a dedicated evaluator so
        // its DVS passes never leak into the run's deterministic counters
        // or phase timings (checkpoint/resume trace equivalence).
        let verify_evaluator = Evaluator::new(self.system, &self.config);
        let on_generation: Option<GenerationHook<'_>> = if checkpoint_spec.is_some()
            || verify_generations
        {
            let (system, layout, seed) = (self.system, &layout, ga_config.seed);
            let evaluator = &verify_evaluator;
            let dvs_eval = self.config.dvs.as_ref().map(|d| d.eval);
            let latest_ref = &latest_checkpoint;
            let saved_gen_ref = &last_saved_generation;
            let save_time_ref = &last_save_time;
            Some(Box::new(move |snapshot: &GaSnapshot<Gene>| {
                if let Some((every, path, every_seconds)) = &checkpoint_spec {
                    let cp = Checkpoint::capture(
                        system,
                        layout,
                        seed,
                        snapshot,
                        problem_ref.evaluator.counters(),
                    );
                    let due = snapshot.generation.is_multiple_of(*every)
                        || every_seconds
                            .is_some_and(|s| save_time_ref.get().elapsed().as_secs_f64() >= s);
                    if due {
                        if let Err(e) = cp.save(path) {
                            // Checkpointing is best-effort: losing a
                            // checkpoint must not lose the run.
                            warn(sink, format!("checkpoint not saved: {e}"));
                        } else {
                            saved_gen_ref.set(Some(cp.generation));
                            save_time_ref.set(Instant::now());
                        }
                    }
                    *latest_ref.borrow_mut() = Some(cp);
                }
                if verify_generations {
                    // Invariant mode: re-derive the generation's best
                    // individual and hold it against the independent
                    // checker. An unschedulable best (every candidate
                    // rejected) has nothing to verify.
                    let solution =
                        evaluator.try_evaluate(layout.decode(&snapshot.best.0), dvs_eval.as_ref());
                    if let Ok(solution) = solution {
                        if let Some(report) = crate::verify::invariant_breach(system, &solution) {
                            report_breach(
                                sink,
                                &format!(
                                    "generation {}: best individual failed verification: {report}",
                                    snapshot.generation
                                ),
                            );
                        }
                    }
                }
            }) as GenerationHook<'_>)
        } else {
            None
        };

        let outcome = momsynth_ga::run_controlled(
            &problem,
            ga_config,
            RunControl { stop: control.stop, resume, on_generation, sink },
        );

        // Graceful-shutdown guarantee: an interrupted run flushes its
        // freshest completed generation to the checkpoint file, so a
        // restart resumes from exactly where the run stopped even when
        // the periodic cadence (`every` > 1) left the file stale. The
        // capture was taken inside the generation hook, so its counters
        // exclude any discarded partial generation.
        if outcome.stop_reason.is_interrupted() {
            if let Some(spec) = &control.checkpoint {
                if let Some(cp) = latest_checkpoint.borrow_mut().take() {
                    if last_saved_generation.get() != Some(cp.generation) {
                        if let Err(e) = cp.save(&spec.path) {
                            warn(sink, format!("final checkpoint not saved: {e}"));
                        }
                    }
                }
            }
        }

        // Memetic polish: single-gene best-move sweeps remove the
        // drift artefacts evolution under skewed weights leaves behind.
        // Skipped when the GA was already interrupted; otherwise it spends
        // what is left of the run's budget (its deadline counts from this
        // run's start) and names its own stop reason.
        let mut genes = outcome.best.clone();
        let mut evaluations = outcome.evaluations;
        let mut stop_reason = outcome.stop_reason;
        if !stop_reason.is_interrupted()
            && self.config.local_search != (LocalSearchOptions { max_passes: 0 })
        {
            let dvs_eval = self.config.dvs.as_ref().map(|d| d.eval);
            let budget = Budget::from_seconds(
                control.stop,
                start,
                ga_config.max_seconds,
                ga_config.max_evaluations.map(|cap| cap.saturating_sub(evaluations)),
            );
            let stats = polish(
                &evaluator,
                &layout,
                &mut genes,
                dvs_eval.as_ref(),
                &self.config.local_search,
                ga_config.seed,
                &budget,
            );
            evaluations += stats.evaluations;
            stop_reason = stats.stop_reason.unwrap_or(stop_reason);
        }

        let refine = self.config.dvs.as_ref().map(|d| d.refine);
        let best = match self.evaluate_final(&evaluator, &layout, &genes, refine.as_ref()) {
            Ok(solution) => solution,
            Err(best_err) => {
                // The winner cannot be scheduled (should only happen when
                // every candidate was rejected): degrade to the trivial
                // all-software seed mapping before giving up.
                let fallback = problem.seeds().swap_remove(0);
                match self.evaluate_final(&evaluator, &layout, &fallback, refine.as_ref()) {
                    Ok(solution) => solution,
                    Err(fallback_err) => {
                        return Err(SynthesisError::Unschedulable {
                            best: best_err,
                            fallback: fallback_err,
                        })
                    }
                }
            }
        };

        if self.config.verify_each_generation {
            if let Some(report) = crate::verify::invariant_breach(self.system, &best) {
                report_breach(sink, &format!("final solution failed verification: {report}"));
            }
        }

        let counters = evaluator.counters();
        let result = SynthesisResult {
            best,
            generations: outcome.generations,
            evaluations,
            rejected: counters.rejected as usize,
            history: outcome.history,
            stop_reason,
            wall_time: start.elapsed(),
            counters,
            phase_timings: evaluator.phase_timings(),
            power_lower_bound,
            pruned_domain_ratio,
        };
        if let Some(sink) = sink {
            if sink.enabled() {
                // The run's timings, as trace spans under the run-wide
                // trace ID: a root span carries the run's total wall time
                // so `momsynth profile` can attribute non-evaluation time
                // (selection, checkpointing, polish) as root self-time,
                // and each phase timing nests under it at its path.
                sink.record(&Event::Span(SpanEvent {
                    trace_id: trace_id.clone(),
                    path: RUN_PATH.into(),
                    nanos: result.wall_time.as_nanos() as u64,
                    spans: 1,
                }));
                for timing in &result.phase_timings {
                    sink.record(&Event::Span(SpanEvent {
                        trace_id: trace_id.clone(),
                        path: timing.phase.path().into(),
                        nanos: timing.nanos,
                        spans: timing.spans,
                    }));
                }
                sink.record(&Event::Summary(result.summary(self.system, &self.config)));
            }
            sink.flush();
        }
        Ok(result)
    }

    /// Final (fine-DVS) evaluation with the same fault isolation and
    /// fault injection as candidate pricing, reporting failures as text.
    fn evaluate_final(
        &self,
        evaluator: &Evaluator<'_>,
        layout: &GenomeLayout,
        genes: &[Gene],
        refine: Option<&DvsOptions>,
    ) -> Result<Solution, String> {
        if let Some(fault) = &self.config.fault_injection {
            match fault.roll(genes) {
                Some(InjectedFault::Panic) => return Err("injected evaluator panic".into()),
                Some(InjectedFault::Nan) => return Err("injected NaN fitness".into()),
                Some(InjectedFault::Err) => return Err("injected scheduling error".into()),
                None => {}
            }
        }
        evaluator.try_evaluate(layout.decode(genes), refine).map_err(|e| e.to_string())
    }
}

/// Reports a verification-invariant breach: fatal in debug builds (so
/// tests fail loudly), a telemetry warning in release builds (so a
/// production run degrades instead of dying on a checker disagreement).
fn report_breach(sink: Option<&dyn Sink>, message: &str) {
    if cfg!(debug_assertions) {
        panic!("{message}");
    }
    warn(sink, message.to_owned());
}

/// Reports a non-fatal problem: a [`Warning`] event on the run's sink,
/// or a line on stderr when the run has none.
fn warn(sink: Option<&dyn Sink>, message: String) {
    match sink {
        Some(sink) => sink.record(&Event::Warning(Warning { message })),
        None => eprintln!("warning: {message}"),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::FaultInjection;
    use momsynth_model::ids::{ModeId, PeId};
    use momsynth_model::units::{Cells, Seconds, Volts, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Cl, DvsCapability, Implementation, OmsmBuilder, Pe, PeKind,
        TaskGraphBuilder, TechLibraryBuilder,
    };

    /// A two-mode system with skewed probabilities where the optimal
    /// probability-aware mapping is known by construction: the common mode
    /// should run entirely in software so that ASIC and bus shut down.
    fn skewed_system() -> System {
        let mut tech = TechLibraryBuilder::new();
        let ta = tech.add_type("A");
        let tb = tech.add_type("B");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(0.1)));
        let hw =
            arch.add_pe(Pe::hardware("hw", PeKind::Asic, Cells::new(600), Watts::from_milli(4.0)));
        arch.add_cl(Cl::bus(
            "bus",
            vec![cpu, hw],
            Seconds::from_micros(1.0),
            Watts::from_milli(1.0),
            Watts::from_milli(0.5),
        ))
        .unwrap();
        for ty in [ta, tb] {
            tech.set_impl(
                ty,
                cpu,
                Implementation::software(Seconds::from_millis(5.0), Watts::from_milli(30.0)),
            );
            tech.set_impl(
                ty,
                hw,
                Implementation::hardware(
                    Seconds::from_millis(0.5),
                    Watts::from_milli(1.0),
                    Cells::new(240),
                ),
            );
        }
        let mk = |name: &str, ty| {
            let mut g = TaskGraphBuilder::new(name, Seconds::from_millis(100.0));
            let x = g.add_task("x", ty);
            let y = g.add_task("y", ty);
            g.add_comm(x, y, 10.0).unwrap();
            g.build().unwrap()
        };
        let mut omsm = OmsmBuilder::new();
        let m0 = omsm.add_mode("rare", 0.05, mk("rare", ta));
        let m1 = omsm.add_mode("common", 0.95, mk("common", tb));
        omsm.add_transition(m0, m1, Seconds::from_millis(10.0)).unwrap();
        omsm.add_transition(m1, m0, Seconds::from_millis(10.0)).unwrap();
        System::new("skewed", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    /// Every edge of this chain has *some* routable candidate pair, so
    /// `System::new` accepts it, but no complete mapping is routable: `x`
    /// lives on P0, `z` on P3, and `y` must sit on a bus with both — yet
    /// `{P0, P1}` and `{P2, P3}` are disjoint buses.
    pub(crate) fn unroutable_system() -> System {
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let ty_ = tech.add_type("Y");
        let tz = tech.add_type("Z");
        let mut arch = ArchitectureBuilder::new();
        let pes: Vec<_> = (0..4)
            .map(|i| {
                arch.add_pe(Pe::software(format!("cpu{i}"), PeKind::Gpp, Watts::from_milli(0.1)))
            })
            .collect();
        arch.add_cl(Cl::bus(
            "bus-a",
            vec![pes[0], pes[1]],
            Seconds::from_micros(1.0),
            Watts::from_milli(1.0),
            Watts::from_milli(0.5),
        ))
        .unwrap();
        arch.add_cl(Cl::bus(
            "bus-b",
            vec![pes[2], pes[3]],
            Seconds::from_micros(1.0),
            Watts::from_milli(1.0),
            Watts::from_milli(0.5),
        ))
        .unwrap();
        let sw = |ms| Implementation::software(Seconds::from_millis(ms), Watts::from_milli(20.0));
        tech.set_impl(tx, pes[0], sw(1.0));
        tech.set_impl(ty_, pes[1], sw(1.0));
        tech.set_impl(ty_, pes[2], sw(1.0));
        tech.set_impl(tz, pes[3], sw(1.0));
        let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(100.0));
        let x = g.add_task("x", tx);
        let y = g.add_task("y", ty_);
        let z = g.add_task("z", tz);
        g.add_comm(x, y, 1.0).unwrap();
        g.add_comm(y, z, 1.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        System::new("unroutable", omsm.build().unwrap(), arch.build().unwrap(), tech.build())
            .unwrap()
    }

    #[test]
    fn synthesis_finds_feasible_low_power_solution() {
        let system = skewed_system();
        let result = Synthesizer::new(&system, SynthesisConfig::fast_preset(1)).run().unwrap();
        assert!(result.best.is_feasible(), "best must be feasible");
        assert!(result.generations > 0);
        assert!(result.evaluations > 0);
        assert_eq!(result.rejected, 0, "clean runs reject nothing");
        assert!(!result.stop_reason.is_interrupted());
        // The common mode must end up pure software so the ASIC and bus
        // power down during 95% of operation.
        let active = result.best.mapping.active_pes(ModeId::new(1));
        assert_eq!(active, vec![PeId::new(0)], "common mode should shut the ASIC down");
    }

    #[test]
    fn probability_aware_beats_neglecting_on_skewed_systems() {
        let system = skewed_system();
        // Average over a few seeds to smooth GA noise.
        let runs = 3;
        let avg = |aware: bool| -> f64 {
            (0..runs)
                .map(|seed| {
                    let mut cfg = SynthesisConfig::fast_preset(seed);
                    cfg.probability_aware = aware;
                    Synthesizer::new(&system, cfg).run().unwrap().best.power.average.value()
                })
                .sum::<f64>()
                / runs as f64
        };
        let aware = avg(true);
        let neglect = avg(false);
        assert!(
            aware <= neglect * 1.001,
            "probability-aware {aware} should not lose to neglecting {neglect}"
        );
    }

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let system = skewed_system();
        let cfg = SynthesisConfig::fast_preset(3);
        let a = Synthesizer::new(&system, cfg.clone()).run().unwrap();
        let b = Synthesizer::new(&system, cfg).run().unwrap();
        assert_eq!(a.best.mapping, b.best.mapping);
        assert_eq!(a.best.fitness, b.best.fitness);
        assert_eq!(a.history, b.history);
        assert_eq!(a.stop_reason, b.stop_reason);
    }

    #[test]
    fn threads_leave_the_trajectory_bit_identical() {
        let system = skewed_system();
        let run = |threads: usize| {
            let mut cfg = SynthesisConfig::fast_preset(7);
            cfg.threads = threads;
            Synthesizer::new(&system, cfg).run().unwrap()
        };
        let serial = run(1);
        let threaded = run(4);
        assert_eq!(serial.history, threaded.history);
        assert_eq!(serial.best.mapping, threaded.best.mapping);
        assert_eq!(serial.best.fitness, threaded.best.fitness);
        assert_eq!(serial.evaluations, threaded.evaluations);
        assert_eq!(serial.stop_reason, threaded.stop_reason);
        assert_eq!(serial.counters, threaded.counters);
        // Every genome handed over is looked up and none is served from
        // memory; in-batch repeats are priced once.
        assert_eq!(serial.counters.cache_hits, 0);
        assert!(serial.counters.evaluated > 0);
        assert!(serial.counters.evaluated <= serial.counters.cache_misses);
    }

    #[test]
    fn dvs_synthesis_reduces_power_further() {
        let mut tech = TechLibraryBuilder::new();
        let ta = tech.add_type("A");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(0.1)).with_dvs(
            DvsCapability::new(
                Volts::new(3.3),
                Volts::new(0.8),
                vec![Volts::new(1.2), Volts::new(2.1), Volts::new(3.3)],
            ),
        ));
        tech.set_impl(
            ta,
            cpu,
            Implementation::software(Seconds::from_millis(10.0), Watts::from_milli(100.0)),
        );
        let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(100.0));
        g.add_task("x", ta);
        g.add_task("y", ta);
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let system =
            System::new("s", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap();

        let fixed = Synthesizer::new(&system, SynthesisConfig::fast_preset(0)).run().unwrap();
        let dvs =
            Synthesizer::new(&system, SynthesisConfig::fast_preset(0).with_dvs()).run().unwrap();
        assert!(
            dvs.best.power.average < fixed.best.power.average,
            "DVS {} must beat fixed voltage {}",
            dvs.best.power.average,
            fixed.best.power.average
        );
        assert!(dvs.best.is_feasible());
    }

    #[test]
    fn unroutable_system_yields_typed_error() {
        let system = unroutable_system();
        let err = Synthesizer::new(&system, SynthesisConfig::fast_preset(0))
            .run()
            .expect_err("no complete mapping is routable");
        match err {
            SynthesisError::Unschedulable { best, fallback } => {
                assert!(!best.is_empty());
                assert!(!fallback.is_empty());
            }
            other => panic!("expected Unschedulable, got {other:?}"),
        }
    }

    #[test]
    fn injected_errors_are_counted_not_fatal() {
        let system = skewed_system();
        let mut cfg = SynthesisConfig::fast_preset(2);
        // Err/NaN faults only: panic faults are exercised in the chaos
        // integration tests, where the panic hook is silenced.
        cfg.fault_injection =
            Some(FaultInjection { panic_rate: 0.0, nan_rate: 0.1, err_rate: 0.1, seed: 11 });
        let result = Synthesizer::new(&system, cfg).run().unwrap();
        assert!(result.rejected > 0, "some candidates must have drawn a fault");
        assert!(result.best.fitness.is_finite());
        assert!(result.best.is_feasible());
    }

    #[test]
    fn evaluation_budget_is_respected_and_tagged() {
        let system = skewed_system();
        let mut cfg = SynthesisConfig::fast_preset(4);
        cfg.ga.max_evaluations = Some(25);
        let result = Synthesizer::new(&system, cfg).run().unwrap();
        assert_eq!(result.stop_reason, StopReason::EvaluationBudget);
        // One offspring may be mid-flight when the budget trips, and the
        // final refinement is not a candidate evaluation.
        assert!(result.evaluations <= 26, "{}", result.evaluations);
        assert!(result.best.fitness.is_finite());
    }

    #[test]
    fn preset_stop_flag_cancels_immediately_with_well_formed_result() {
        let system = skewed_system();
        let stop = AtomicBool::new(true);
        let result = Synthesizer::new(&system, SynthesisConfig::fast_preset(5))
            .run_controlled(SynthControl { stop: Some(&stop), ..SynthControl::default() })
            .unwrap();
        assert_eq!(result.stop_reason, StopReason::Cancelled);
        assert!(!result.history.is_empty());
        assert!(result.best.fitness.is_finite());
    }

    #[test]
    fn resume_requires_matching_checkpoint() {
        let system = skewed_system();
        let layout = GenomeLayout::new(&system);
        let cfg = SynthesisConfig::fast_preset(6);
        let snapshot = GaSnapshot {
            generation: 0,
            evaluations: 1,
            stagnation: 0,
            low_diversity_generations: 0,
            history: vec![1.0],
            best: (vec![0; layout.len()], 1.0),
            population: vec![(vec![0; layout.len()], 1.0)],
        };
        // Captured with a different seed than the run uses.
        let checkpoint = Checkpoint::capture(&system, &layout, 999, &snapshot, Counters::default());
        let err = Synthesizer::new(&system, cfg)
            .run_controlled(SynthControl { resume: Some(checkpoint), ..SynthControl::default() })
            .expect_err("seed mismatch must be rejected");
        assert!(matches!(err, SynthesisError::Checkpoint(CheckpointError::Mismatch { .. })));
    }
}
