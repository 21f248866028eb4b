//! A generic genetic-algorithm engine.
//!
//! Implements the optimisation skeleton of the paper's Fig. 4: an initial
//! random population, cost-ranked tournament selection, two-point
//! crossover, per-gene mutation, elitism, problem-specific *improvement
//! operators* (hooks applied to a few individuals per generation, like the
//! paper's shut-down/area/timing/transition strategies) and a convergence
//! criterion based on stagnation.
//!
//! The engine is domain-agnostic: a [`GaProblem`] supplies the gene type,
//! the per-locus random gene distribution, the batch cost function (lower
//! is better) and optionally the improvement hook. The multi-mode mapping
//! problem in `momsynth-core` is one instance; the unit tests here use
//! simple numeric problems.
//!
//! # Robustness
//!
//! Every run terminates with the best individual seen so far and a
//! [`StopReason`] saying why. Beyond the paper's convergence criteria
//! (stagnation, diversity collapse, generation cap), [`GaConfig`] carries
//! optional wall-clock and evaluation budgets, and [`run_controlled`]
//! accepts a cooperative cancellation flag plus a per-generation snapshot
//! hook / resume point for checkpointing. Randomness is re-seeded per
//! generation from `(seed, generation)`, so a run resumed from a
//! [`GaSnapshot`] replays exactly the generations an uninterrupted run
//! would have produced.
//!
//! Non-finite costs returned by a problem (NaN, ±∞) are clamped to
//! [`REJECTED_COST`] so they can never win the cost-sorted ranking.
//!
//! # Batch evaluation
//!
//! Each generation's unevaluated genomes are priced through a single
//! [`GaProblem::cost_batch`] call and the results written back by index.
//! A problem may evaluate the batch on worker threads or price repeated
//! genomes once, with a bit-identical trajectory for a fixed seed because
//! the engine's randomness never depends on how a batch was priced.
//! Elites keep their known cost and are never re-evaluated.
//!
//! # Examples
//!
//! ```
//! use momsynth_ga::{run, GaConfig, GaProblem, StopReason};
//! use rand::Rng;
//!
//! /// Minimise the number of non-zero genes.
//! struct AllZeros;
//!
//! impl GaProblem for AllZeros {
//!     type Gene = u8;
//!     fn genome_len(&self) -> usize { 16 }
//!     fn random_gene(&self, _locus: usize, rng: &mut dyn rand::RngCore) -> u8 {
//!         rand::Rng::gen_range(rng, 0..4)
//!     }
//!     fn cost_batch(&self, genomes: &[Vec<u8>]) -> Vec<f64> {
//!         genomes.iter().map(|g| g.iter().filter(|&&x| x != 0).count() as f64).collect()
//!     }
//! }
//!
//! let outcome = run(&AllZeros, &GaConfig { seed: 7, ..GaConfig::default() });
//! assert_eq!(outcome.best_cost, 0.0);
//! assert_eq!(outcome.stop_reason, StopReason::Stalled);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bnb;

use std::fmt;
use momsynth_sync::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use momsynth_telemetry::{Counters, Event, GenerationEvent, Sink};

/// Sentinel cost for rejected individuals (evaluation failed, panicked or
/// produced a non-finite fitness). Far above any real cost, but far enough
/// from `f64::MAX` that penalty arithmetic cannot overflow to infinity.
pub const REJECTED_COST: f64 = f64::MAX / 4.0;

/// An optimisation problem over fixed-length genomes.
pub trait GaProblem {
    /// The gene type at every locus.
    type Gene: Clone;

    /// Number of genes in a genome.
    fn genome_len(&self) -> usize;

    /// Samples a random gene for the given locus; used for initialisation
    /// and mutation. Loci may have different domains (e.g. per-task
    /// candidate PE lists, possibly pruned by a static pre-analysis).
    ///
    /// Contract: the engine itself never invents gene values — it only
    /// recombines genes produced by this method, [`GaProblem::seeds`]
    /// and [`GaProblem::improve`]. A problem that draws all three from
    /// the same per-locus candidate list therefore confines the whole
    /// search to that domain; narrowing the list (as `momsynth-core`'s
    /// statically pruned genome layouts do) soundly restricts the
    /// search space without any engine-side changes.
    fn random_gene(&self, locus: usize, rng: &mut dyn RngCore) -> Self::Gene;

    /// Prices a batch of genomes, returning exactly one cost per genome,
    /// index-aligned with the input; lower is better. Infeasibility is
    /// expressed through penalty terms, not through rejection. Non-finite
    /// values are clamped to [`REJECTED_COST`] by the engine.
    ///
    /// The engine routes every unevaluated genome of a generation through
    /// this method in one call and writes the results back by index, so an
    /// implementation is free to evaluate out of order — in parallel
    /// worker threads, pricing repeated genomes once — without perturbing
    /// the evolution trajectory: for a fixed seed the outcome is
    /// bit-identical at any thread count as long as each returned cost is
    /// a pure function of its genome.
    fn cost_batch(&self, genomes: &[Vec<Self::Gene>]) -> Vec<f64>;

    /// Problem-specific improvement operator, applied to a few individuals
    /// per generation. The default does nothing.
    fn improve(&self, genome: &mut [Self::Gene], rng: &mut dyn RngCore) {
        let _ = (genome, rng);
    }

    /// Genomes injected into the initial population (e.g. known trivial
    /// feasible solutions). The default seeds nothing; the engine fills
    /// the rest of the population randomly.
    fn seeds(&self) -> Vec<Vec<Self::Gene>> {
        Vec::new()
    }

    /// Cumulative problem-side counters (rejections, penalty classes,
    /// operator efficacy) attached to every telemetry
    /// [`GenerationEvent`]. Called only when the attached sink is
    /// enabled. The default reports zeroes.
    fn counters(&self) -> Counters {
        Counters::default()
    }
}

/// Parent-selection scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Selection {
    /// Tournament over the cost-sorted population: sample `k` individuals,
    /// take the best.
    Tournament {
        /// Tournament size (≥ 1; larger = more selection pressure).
        k: usize,
    },
    /// Linear-ranking roulette (the paper's line 15–16 combination):
    /// individual at rank `r` (0 = best) is selected with probability
    /// proportional to `2 − s + 2·(s − 1)·(N − 1 − r)/(N − 1)`, where the
    /// pressure `s ∈ [1, 2]` interpolates between uniform (`1`) and
    /// strongly elitist (`2`) selection.
    LinearRanking {
        /// Selection pressure `s ∈ [1, 2]`.
        pressure: f64,
    },
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    /// Number of individuals kept each generation.
    pub population_size: usize,
    /// Probability that an offspring is produced by crossover (otherwise
    /// it is a mutated copy of one parent).
    pub crossover_rate: f64,
    /// Per-gene probability of random reset in offspring.
    pub mutation_rate: f64,
    /// Parent-selection scheme.
    pub selection: Selection,
    /// Number of best individuals copied unchanged into the next
    /// generation.
    pub elitism: usize,
    /// Fraction of offspring handed to [`GaProblem::improve`] each
    /// generation (the paper found a small rate effective).
    pub improvement_rate: f64,
    /// Hard cap on generations.
    pub max_generations: usize,
    /// Stop after this many generations without improvement of the best
    /// cost (the convergence criterion).
    pub stagnation_limit: usize,
    /// Additional diversity-based convergence (the paper combines both
    /// criteria): stop once the relative cost spread of the population,
    /// `(worst − best) / |best|`, stays below this threshold for a few
    /// generations. `0.0` disables the check.
    pub diversity_epsilon: f64,
    /// Optional wall-clock budget in seconds, measured from the start of
    /// this call (a resumed run gets a fresh timer). Checked between
    /// offspring while a generation is produced, so the engine overruns
    /// by at most one evaluation batch (one generation's offspring).
    pub max_seconds: Option<f64>,
    /// Optional cap on cost evaluations (cumulative across resume: the
    /// snapshot's evaluation count carries over). At least one individual
    /// is always evaluated so a best solution exists.
    pub max_evaluations: Option<usize>,
    /// RNG seed; equal seeds give identical runs. Each generation draws
    /// from a generator re-seeded with `(seed, generation)`.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        Self {
            population_size: 50,
            crossover_rate: 0.9,
            mutation_rate: 0.06,
            selection: Selection::Tournament { k: 2 },
            elitism: 2,
            improvement_rate: 0.08,
            max_generations: 300,
            stagnation_limit: 40,
            diversity_epsilon: 0.0,
            max_seconds: None,
            max_evaluations: None,
            seed: 0,
        }
    }
}

/// Why a GA run returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The population's cost spread stayed below `diversity_epsilon`.
    Converged,
    /// No improvement for `stagnation_limit` generations.
    Stalled,
    /// `max_generations` reached.
    GenerationLimit,
    /// `max_seconds` elapsed.
    WallClock,
    /// `max_evaluations` spent.
    EvaluationBudget,
    /// The cancellation flag was raised (e.g. Ctrl-C).
    Cancelled,
}

impl StopReason {
    /// `true` for reasons that cut the search short rather than letting it
    /// converge (budget exhaustion or cancellation).
    pub fn is_interrupted(self) -> bool {
        matches!(
            self,
            StopReason::WallClock | StopReason::EvaluationBudget | StopReason::Cancelled
        )
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            StopReason::Converged => "converged (diversity collapsed)",
            StopReason::Stalled => "stalled (no improvement)",
            StopReason::GenerationLimit => "generation limit reached",
            StopReason::WallClock => "wall-clock budget exhausted",
            StopReason::EvaluationBudget => "evaluation budget exhausted",
            StopReason::Cancelled => "cancelled",
        };
        f.write_str(text)
    }
}

/// The result of a GA run.
#[derive(Debug, Clone, PartialEq)]
pub struct GaOutcome<G> {
    /// The best genome found.
    pub best: Vec<G>,
    /// Its cost.
    pub best_cost: f64,
    /// Generations executed.
    pub generations: usize,
    /// Cost evaluations performed.
    pub evaluations: usize,
    /// Best cost after each generation (index 0 = initial population).
    pub history: Vec<f64>,
    /// Why the run stopped.
    pub stop_reason: StopReason,
}

/// Complete engine state between generations: enough to resume a run so
/// that it replays exactly what the uninterrupted run would have done.
#[derive(Debug, Clone, PartialEq)]
pub struct GaSnapshot<G> {
    /// Generations completed when the snapshot was taken (0 = after the
    /// initial population).
    pub generation: usize,
    /// Cost evaluations spent so far.
    pub evaluations: usize,
    /// Generations without improvement so far.
    pub stagnation: usize,
    /// Consecutive low-diversity generations so far.
    pub low_diversity_generations: usize,
    /// Best cost after each generation so far.
    pub history: Vec<f64>,
    /// Best genome and cost seen so far.
    pub best: (Vec<G>, f64),
    /// The population, cost-sorted: `(genome, cost)` pairs.
    pub population: Vec<(Vec<G>, f64)>,
}

/// Cooperative controls for [`run_controlled`]: cancellation, resume and
/// checkpoint observation. `RunControl::default()` behaves like [`run`].
pub struct RunControl<'a, G> {
    /// Checked between offspring; when it becomes `true` the run returns
    /// the best-so-far with [`StopReason::Cancelled`].
    pub stop: Option<&'a AtomicBool>,
    /// Restart from this snapshot instead of a fresh population.
    pub resume: Option<GaSnapshot<G>>,
    /// Called after the initial population and after every completed
    /// generation with the current engine state.
    #[allow(clippy::type_complexity)]
    pub on_generation: Option<Box<dyn FnMut(&GaSnapshot<G>) + 'a>>,
    /// Telemetry sink receiving one [`GenerationEvent`] per completed
    /// generation (and for the initial population). Events are built only
    /// when [`Sink::enabled`] returns `true`; `None` behaves like a
    /// disabled sink.
    pub sink: Option<&'a dyn Sink>,
}

impl<G> Default for RunControl<'_, G> {
    fn default() -> Self {
        Self { stop: None, resume: None, on_generation: None, sink: None }
    }
}

impl<G> fmt::Debug for RunControl<'_, G> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunControl")
            .field("stop", &self.stop.map(|s| s.load(Ordering::Acquire)))
            .field("resume", &self.resume.as_ref().map(|s| s.generation))
            .field("on_generation", &self.on_generation.is_some())
            .field("sink", &self.sink.map(|s| s.enabled()))
            .finish()
    }
}

#[derive(Clone)]
struct Individual<G> {
    genome: Vec<G>,
    cost: f64,
}

/// Clamps a problem cost so that NaN and infinities can never win the
/// cost-sorted ranking (`total_cmp` would otherwise order NaN above all
/// finite costs or let an errant -∞ become "best").
#[inline]
fn sanitize_cost(cost: f64) -> f64 {
    if cost.is_finite() {
        cost
    } else {
        REJECTED_COST
    }
}

/// Derives the RNG seed for one generation (0 = initialisation) so resumed
/// runs replay the same randomness. SplitMix64 over `(seed, generation)`.
fn generation_seed(seed: u64, generation: usize) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((generation as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the genetic algorithm on `problem` under `config`.
///
/// Deterministic for a fixed seed. Returns the best individual ever seen
/// (with elitism this is also the best of the final generation).
///
/// # Panics
///
/// Panics if `config.population_size == 0`, the selection scheme is
/// degenerate (tournament size 0, ranking pressure outside `[1, 2]`) or
/// `problem.genome_len() == 0`.
pub fn run<P: GaProblem>(problem: &P, config: &GaConfig) -> GaOutcome<P::Gene> {
    run_controlled(problem, config, RunControl::default())
}

/// Like [`run`], with cooperative cancellation, resume and a snapshot hook.
///
/// The engine checks the budgets and the stop flag between offspring while
/// a generation is generated; a raised flag or an expired budget discards
/// the partial generation unpriced, so cancellation costs at most one
/// batch evaluation before the best-so-far is returned. Resuming from a
/// [`GaSnapshot`] of generation `g` replays generations `g+1..` with the
/// same randomness an uninterrupted run would have used, so the final best
/// is identical.
///
/// # Panics
///
/// As [`run`]; additionally if a resume snapshot's genome lengths do not
/// match `problem.genome_len()`.
pub fn run_controlled<P: GaProblem>(
    problem: &P,
    config: &GaConfig,
    mut control: RunControl<'_, P::Gene>,
) -> GaOutcome<P::Gene> {
    assert!(config.population_size > 0, "population must be non-empty");
    match config.selection {
        Selection::Tournament { k } => {
            assert!(k > 0, "tournament size must be positive");
        }
        Selection::LinearRanking { pressure } => {
            assert!(
                (1.0..=2.0).contains(&pressure),
                "ranking pressure must be in [1, 2]"
            );
        }
    }
    let len = problem.genome_len();
    assert!(len > 0, "genome must be non-empty");

    let start = Instant::now();
    // Events are built lazily: a missing or disabled sink costs a branch.
    let sink = control.sink;
    let emit_generation = |generation: usize,
                           evaluations: usize,
                           stagnation: usize,
                           best: &Individual<P::Gene>,
                           population: &[Individual<P::Gene>]| {
        let Some(sink) = sink else { return };
        if !sink.enabled() {
            return;
        }
        let mean =
            population.iter().map(|i| i.cost).sum::<f64>() / population.len().max(1) as f64;
        let worst = population.last().map_or(best.cost, |i| i.cost);
        let counters = problem.counters();
        let elapsed = start.elapsed().as_secs_f64();
        let evals_per_sec = if elapsed > 0.0 { evaluations as f64 / elapsed } else { 0.0 };
        sink.record(&Event::Generation(GenerationEvent {
            generation: generation as u64,
            evaluations: evaluations as u64,
            best: best.cost,
            mean,
            worst,
            stagnation: stagnation as u64,
            evals_per_sec,
            counters,
        }));
    };
    // Acquire pairs with the raiser's Release store (serve stop path,
    // CLI Ctrl-C handler): observing the cancellation must also show
    // the state written before it was raised.
    let stop_requested =
        |flag: Option<&AtomicBool>| flag.is_some_and(|f| f.load(Ordering::Acquire));
    let out_of_time = |start: &Instant| {
        config
            .max_seconds
            .is_some_and(|limit| start.elapsed().as_secs_f64() >= limit)
    };
    let out_of_evaluations =
        |evaluations: usize| config.max_evaluations.is_some_and(|limit| evaluations >= limit);

    let mut evaluations = 0usize;
    let mut interrupted: Option<StopReason> = None;

    let mut population: Vec<Individual<P::Gene>>;
    let mut best: Individual<P::Gene>;
    let mut history: Vec<f64>;
    let mut stagnation: usize;
    let mut generations: usize;
    let mut low_diversity_generations: usize;

    if let Some(snapshot) = control.resume.take() {
        for (genome, _) in &snapshot.population {
            assert_eq!(genome.len(), len, "resume snapshot genome has wrong length");
        }
        assert_eq!(snapshot.best.0.len(), len, "resume snapshot best has wrong length");
        population = snapshot
            .population
            .into_iter()
            .map(|(genome, cost)| Individual { genome, cost: sanitize_cost(cost) })
            .collect();
        assert!(!population.is_empty(), "resume snapshot population is empty");
        population.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        best = Individual { genome: snapshot.best.0, cost: sanitize_cost(snapshot.best.1) };
        history = snapshot.history;
        stagnation = snapshot.stagnation;
        generations = snapshot.generation;
        low_diversity_generations = snapshot.low_diversity_generations;
        evaluations = snapshot.evaluations;
    } else {
        let mut rng = StdRng::seed_from_u64(generation_seed(config.seed, 0));
        // The initial population is generated first — budget checks and
        // evaluation accounting exactly as if each genome were priced on
        // the spot — then priced as one batch, so a parallel or caching
        // `cost_batch` sees the whole population at once.
        let mut genomes: Vec<Vec<P::Gene>> = Vec::with_capacity(config.population_size);
        for genome in problem.seeds().into_iter().take(config.population_size) {
            assert_eq!(genome.len(), len, "seed genome has wrong length");
            if interrupted.is_none() && !genomes.is_empty() {
                if stop_requested(control.stop) {
                    interrupted = Some(StopReason::Cancelled);
                } else if out_of_time(&start) {
                    interrupted = Some(StopReason::WallClock);
                } else if out_of_evaluations(evaluations) {
                    interrupted = Some(StopReason::EvaluationBudget);
                }
            }
            if interrupted.is_some() {
                break;
            }
            evaluations += 1;
            genomes.push(genome);
        }
        while interrupted.is_none() && genomes.len() < config.population_size {
            if !genomes.is_empty() {
                if stop_requested(control.stop) {
                    interrupted = Some(StopReason::Cancelled);
                    break;
                } else if out_of_time(&start) {
                    interrupted = Some(StopReason::WallClock);
                    break;
                } else if out_of_evaluations(evaluations) {
                    interrupted = Some(StopReason::EvaluationBudget);
                    break;
                }
            }
            let genome: Vec<P::Gene> =
                (0..len).map(|l| problem.random_gene(l, &mut rng)).collect();
            evaluations += 1;
            genomes.push(genome);
        }
        population = evaluate_batch(problem, genomes);
        population.sort_by(|a, b| a.cost.total_cmp(&b.cost));

        best = population[0].clone();
        history = vec![best.cost];
        stagnation = 0;
        generations = 0;
        low_diversity_generations = 0;

        if interrupted.is_none() {
            emit_generation(generations, evaluations, stagnation, &best, &population);
            if let Some(hook) = control.on_generation.as_mut() {
                hook(&make_snapshot(
                    generations,
                    evaluations,
                    stagnation,
                    low_diversity_generations,
                    &history,
                    &best,
                    &population,
                ));
            }
        }
    }

    let stop_reason = loop {
        if let Some(reason) = interrupted {
            break reason;
        }
        if stop_requested(control.stop) {
            break StopReason::Cancelled;
        }
        if out_of_time(&start) {
            break StopReason::WallClock;
        }
        if out_of_evaluations(evaluations) {
            break StopReason::EvaluationBudget;
        }
        if generations >= config.max_generations {
            break StopReason::GenerationLimit;
        }
        if stagnation >= config.stagnation_limit {
            break StopReason::Stalled;
        }
        if config.diversity_epsilon > 0.0 {
            let best_cost = population[0].cost;
            let worst_cost = population[population.len() - 1].cost;
            let spread = if best_cost.abs() > 0.0 {
                (worst_cost - best_cost) / best_cost.abs()
            } else {
                worst_cost - best_cost
            };
            if spread.is_finite() && spread < config.diversity_epsilon {
                low_diversity_generations += 1;
                if low_diversity_generations >= 3 {
                    break StopReason::Converged;
                }
            } else {
                low_diversity_generations = 0;
            }
        }

        generations += 1;
        let mut rng = StdRng::seed_from_u64(generation_seed(config.seed, generations));
        let mut next: Vec<Individual<P::Gene>> = Vec::with_capacity(config.population_size);
        // Elites survive unchanged (population is kept sorted).
        for elite in population.iter().take(config.elitism.min(population.len())) {
            next.push(elite.clone());
        }
        // Offspring are generated first — consuming this generation's RNG
        // and checking budgets exactly as the serial engine did — and
        // priced as one batch afterwards. Elites keep their known cost
        // and are never re-priced.
        let mut pending: Vec<Vec<P::Gene>> =
            Vec::with_capacity(config.population_size.saturating_sub(next.len()));
        while next.len() + pending.len() < config.population_size {
            if stop_requested(control.stop) {
                interrupted = Some(StopReason::Cancelled);
                break;
            }
            if out_of_time(&start) {
                interrupted = Some(StopReason::WallClock);
                break;
            }
            if out_of_evaluations(evaluations) {
                interrupted = Some(StopReason::EvaluationBudget);
                break;
            }
            let mut child = if rng.gen_bool(config.crossover_rate.clamp(0.0, 1.0)) {
                let a = select(population.len(), config.selection, &mut rng);
                let b = select(population.len(), config.selection, &mut rng);
                two_point_crossover(&population[a].genome, &population[b].genome, &mut rng)
            } else {
                let a = select(population.len(), config.selection, &mut rng);
                population[a].genome.clone()
            };
            for (locus, gene) in child.iter_mut().enumerate() {
                if rng.gen_bool(config.mutation_rate.clamp(0.0, 1.0)) {
                    *gene = problem.random_gene(locus, &mut rng);
                }
            }
            if rng.gen_bool(config.improvement_rate.clamp(0.0, 1.0)) {
                problem.improve(&mut child, &mut rng);
            }
            evaluations += 1;
            pending.push(child);
        }
        if let Some(reason) = interrupted {
            // The generation was cut short: discard the partial offspring
            // without pricing them (they are already counted against the
            // evaluation budget, exactly like the serial engine; their
            // costs would be thrown away with them). The current
            // population and best-so-far remain valid. A later resume
            // replays this generation in full from the last snapshot.
            generations -= 1;
            break reason;
        }
        next.extend(evaluate_batch(problem, pending));
        next.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        population = next;

        if population[0].cost < best.cost {
            best = population[0].clone();
            stagnation = 0;
        } else {
            stagnation += 1;
        }
        history.push(best.cost);

        emit_generation(generations, evaluations, stagnation, &best, &population);
        if let Some(hook) = control.on_generation.as_mut() {
            hook(&make_snapshot(
                generations,
                evaluations,
                stagnation,
                low_diversity_generations,
                &history,
                &best,
                &population,
            ));
        }
    };

    GaOutcome {
        best: best.genome,
        best_cost: best.cost,
        generations,
        evaluations,
        history,
        stop_reason,
    }
}

/// Prices `genomes` through [`GaProblem::cost_batch`] and pairs each
/// genome with its sanitised cost, preserving order.
fn evaluate_batch<P: GaProblem>(
    problem: &P,
    genomes: Vec<Vec<P::Gene>>,
) -> Vec<Individual<P::Gene>> {
    let costs = problem.cost_batch(&genomes);
    assert_eq!(
        costs.len(),
        genomes.len(),
        "cost_batch must return exactly one cost per genome"
    );
    genomes
        .into_iter()
        .zip(costs)
        .map(|(genome, cost)| Individual { genome, cost: sanitize_cost(cost) })
        .collect()
}

fn make_snapshot<G: Clone>(
    generation: usize,
    evaluations: usize,
    stagnation: usize,
    low_diversity_generations: usize,
    history: &[f64],
    best: &Individual<G>,
    population: &[Individual<G>],
) -> GaSnapshot<G> {
    GaSnapshot {
        generation,
        evaluations,
        stagnation,
        low_diversity_generations,
        history: history.to_vec(),
        best: (best.genome.clone(), best.cost),
        population: population.iter().map(|i| (i.genome.clone(), i.cost)).collect(),
    }
}

/// Selects a parent index from a cost-sorted population (index 0 = best).
fn select(len: usize, scheme: Selection, rng: &mut impl Rng) -> usize {
    match scheme {
        Selection::Tournament { k } => (0..k)
            .map(|_| rng.gen_range(0..len))
            .min()
            .expect("tournament size is positive"),
        Selection::LinearRanking { pressure } => {
            if len == 1 {
                return 0;
            }
            // Weight of rank r: 2 - s + 2(s-1)(len-1-r)/(len-1); total = len.
            let s = pressure;
            let mut ticket = rng.gen_range(0.0..len as f64);
            for r in 0..len {
                let weight =
                    2.0 - s + 2.0 * (s - 1.0) * (len - 1 - r) as f64 / (len - 1) as f64;
                if ticket < weight {
                    return r;
                }
                ticket -= weight;
            }
            len - 1
        }
    }
}

/// Classic two-point crossover; degenerates gracefully for short genomes.
fn two_point_crossover<G: Clone>(a: &[G], b: &[G], rng: &mut impl Rng) -> Vec<G> {
    let len = a.len();
    debug_assert_eq!(len, b.len());
    if len < 2 {
        return a.to_vec();
    }
    let mut p1 = rng.gen_range(0..len);
    let mut p2 = rng.gen_range(0..len);
    if p1 > p2 {
        std::mem::swap(&mut p1, &mut p2);
    }
    let mut child = a.to_vec();
    child[p1..p2].clone_from_slice(&b[p1..p2]);
    child
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise the squared distance of integer genes to a target vector.
    struct MatchTarget {
        target: Vec<i64>,
    }

    impl GaProblem for MatchTarget {
        type Gene = i64;
        fn genome_len(&self) -> usize {
            self.target.len()
        }
        fn random_gene(&self, _locus: usize, rng: &mut dyn RngCore) -> i64 {
            rng.gen_range(-10..=10)
        }
        fn cost_batch(&self, genomes: &[Vec<i64>]) -> Vec<f64> {
            genomes.iter().map(|g| self.distance(g)).collect()
        }
    }

    impl MatchTarget {
        fn distance(&self, genome: &[i64]) -> f64 {
            genome.iter().zip(&self.target).map(|(&g, &t)| ((g - t) * (g - t)) as f64).sum()
        }
    }

    /// A problem whose improvement hook plants the known optimum — checks
    /// the hook is actually invoked.
    struct HookProblem;

    impl GaProblem for HookProblem {
        type Gene = u8;
        fn genome_len(&self) -> usize {
            8
        }
        fn random_gene(&self, _locus: usize, rng: &mut dyn RngCore) -> u8 {
            rng.gen_range(1..=9)
        }
        fn cost_batch(&self, genomes: &[Vec<u8>]) -> Vec<f64> {
            genomes.iter().map(|g| g.iter().map(|&x| f64::from(x)).sum()).collect()
        }
        fn improve(&self, genome: &mut [u8], _rng: &mut dyn RngCore) {
            genome.fill(0);
        }
    }

    #[test]
    fn converges_on_simple_problem() {
        let problem = MatchTarget { target: vec![3, -7, 0, 5, 5, -2] };
        let outcome = run(
            &problem,
            &GaConfig {
                max_generations: 500,
                stagnation_limit: 100,
                seed: 42,
                ..GaConfig::default()
            },
        );
        assert_eq!(outcome.best_cost, 0.0, "best genome {:?}", outcome.best);
        assert_eq!(outcome.best, vec![3, -7, 0, 5, 5, -2]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let problem = MatchTarget { target: vec![1, 2, 3, 4] };
        let cfg = GaConfig { seed: 9, ..GaConfig::default() };
        let a = run(&problem, &cfg);
        let b = run(&problem, &cfg);
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.history, b.history);
    }

    /// Wraps a problem, prices batches in reverse order and records every
    /// batch size.
    struct ReversedBatch<P> {
        inner: P,
        batches: std::cell::RefCell<Vec<usize>>,
    }

    impl<P> ReversedBatch<P> {
        fn new(inner: P) -> Self {
            Self { inner, batches: std::cell::RefCell::new(Vec::new()) }
        }
    }

    impl<P: GaProblem> GaProblem for ReversedBatch<P> {
        type Gene = P::Gene;
        fn genome_len(&self) -> usize {
            self.inner.genome_len()
        }
        fn random_gene(&self, locus: usize, rng: &mut dyn RngCore) -> Self::Gene {
            self.inner.random_gene(locus, rng)
        }
        fn improve(&self, genome: &mut [Self::Gene], rng: &mut dyn RngCore) {
            self.inner.improve(genome, rng);
        }
        fn seeds(&self) -> Vec<Vec<Self::Gene>> {
            self.inner.seeds()
        }
        fn cost_batch(&self, genomes: &[Vec<Self::Gene>]) -> Vec<f64> {
            self.batches.borrow_mut().push(genomes.len());
            let reversed: Vec<_> = genomes.iter().rev().cloned().collect();
            let mut costs = self.inner.cost_batch(&reversed);
            costs.reverse();
            costs
        }
    }

    #[test]
    fn out_of_order_cost_batch_preserves_the_trajectory() {
        let cfg = GaConfig { seed: 11, max_generations: 30, ..GaConfig::default() };
        let serial = run(&MatchTarget { target: vec![5, -3, 2, 8] }, &cfg);
        let batched = ReversedBatch::new(MatchTarget { target: vec![5, -3, 2, 8] });
        let reversed = run(&batched, &cfg);
        assert_eq!(serial.best, reversed.best);
        assert_eq!(serial.best_cost, reversed.best_cost);
        assert_eq!(serial.history, reversed.history);
        assert_eq!(serial.evaluations, reversed.evaluations);
        assert_eq!(serial.stop_reason, reversed.stop_reason);
    }

    #[test]
    fn batches_cover_generations_and_elites_are_never_repriced() {
        let elitism = 3;
        let cfg = GaConfig {
            population_size: 12,
            elitism,
            max_generations: 7,
            stagnation_limit: 100,
            seed: 4,
            ..GaConfig::default()
        };
        let problem = ReversedBatch::new(MatchTarget { target: vec![1, 2, 3, 4, 5] });
        let outcome = run(&problem, &cfg);
        assert_eq!(outcome.generations, 7);

        // The problem priced exactly as many genomes as the engine
        // reports: elites carry their known cost and are never handed to
        // cost_batch() a second time.
        assert_eq!(problem.batches.borrow().iter().sum::<usize>(), outcome.evaluations);
        assert_eq!(
            outcome.evaluations,
            cfg.population_size + outcome.generations * (cfg.population_size - elitism)
        );

        // One batch for the initial population, then one per generation
        // covering everything but the elites.
        let batches = problem.batches.borrow();
        assert_eq!(batches.len(), outcome.generations + 1);
        assert_eq!(batches[0], cfg.population_size);
        for &size in &batches[1..] {
            assert_eq!(size, cfg.population_size - elitism);
        }
    }

    #[test]
    fn different_seeds_explore_differently() {
        let problem = MatchTarget { target: vec![1, 2, 3, 4, 5, 6, 7, 8] };
        let a = run(&problem, &GaConfig { seed: 1, max_generations: 3, ..GaConfig::default() });
        let b = run(&problem, &GaConfig { seed: 2, max_generations: 3, ..GaConfig::default() });
        // Early histories from different seeds should differ.
        assert_ne!(a.history, b.history);
    }

    #[test]
    fn history_is_monotone_non_increasing() {
        let problem = MatchTarget { target: vec![4; 10] };
        let outcome = run(&problem, &GaConfig { seed: 3, ..GaConfig::default() });
        for pair in outcome.history.windows(2) {
            assert!(pair[1] <= pair[0]);
        }
        assert_eq!(outcome.history.len(), outcome.generations + 1);
    }

    #[test]
    fn stagnation_stops_early() {
        // A constant cost function stagnates immediately.
        struct Flat;
        impl GaProblem for Flat {
            type Gene = u8;
            fn genome_len(&self) -> usize {
                4
            }
            fn random_gene(&self, _l: usize, rng: &mut dyn RngCore) -> u8 {
                rng.gen_range(0..2)
            }
            fn cost_batch(&self, genomes: &[Vec<u8>]) -> Vec<f64> {
                vec![1.0; genomes.len()]
            }
        }
        let outcome = run(
            &Flat,
            &GaConfig {
                stagnation_limit: 5,
                max_generations: 1000,
                seed: 0,
                ..GaConfig::default()
            },
        );
        assert_eq!(outcome.generations, 5);
        assert_eq!(outcome.stop_reason, StopReason::Stalled);
    }

    #[test]
    fn improvement_hook_is_used() {
        let outcome = run(
            &HookProblem,
            &GaConfig {
                improvement_rate: 0.5,
                max_generations: 10,
                stagnation_limit: 10,
                seed: 0,
                ..GaConfig::default()
            },
        );
        assert_eq!(outcome.best_cost, 0.0);
    }

    #[test]
    fn elites_preserve_best_cost() {
        let problem = MatchTarget { target: vec![0; 12] };
        let outcome = run(
            &problem,
            &GaConfig { elitism: 4, seed: 11, max_generations: 50, ..GaConfig::default() },
        );
        // With elitism the final best equals the minimum of the history.
        let min = outcome.history.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(outcome.best_cost, min);
    }

    #[test]
    fn crossover_preserves_locus_alleles() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = vec![0; 10];
        let b = vec![1; 10];
        for _ in 0..50 {
            let child = two_point_crossover(&a, &b, &mut rng);
            assert_eq!(child.len(), 10);
            // Every gene comes from one of the parents at the same locus.
            assert!(child.iter().all(|&g| g == 0 || g == 1));
        }
    }

    #[test]
    fn single_gene_genomes_work() {
        let problem = MatchTarget { target: vec![7] };
        let outcome = run(&problem, &GaConfig { seed: 0, ..GaConfig::default() });
        assert_eq!(outcome.best, vec![7]);
    }

    #[test]
    #[should_panic(expected = "population")]
    fn rejects_empty_population() {
        let problem = MatchTarget { target: vec![1] };
        let _ = run(&problem, &GaConfig { population_size: 0, ..GaConfig::default() });
    }

    #[test]
    fn linear_ranking_selection_also_converges() {
        let problem = MatchTarget { target: vec![2, -3, 4, 0, 1, -1] };
        let outcome = run(
            &problem,
            &GaConfig {
                selection: Selection::LinearRanking { pressure: 1.8 },
                max_generations: 500,
                stagnation_limit: 120,
                seed: 21,
                ..GaConfig::default()
            },
        );
        assert_eq!(outcome.best_cost, 0.0, "best {:?}", outcome.best);
    }

    #[test]
    fn linear_ranking_prefers_better_ranks() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut counts = vec![0usize; 10];
        for _ in 0..20_000 {
            counts[select(10, Selection::LinearRanking { pressure: 2.0 }, &mut rng)] += 1;
        }
        // With s = 2 the best rank is selected ~2/N of the time and the
        // worst almost never.
        assert!(counts[0] > counts[9] * 5, "{counts:?}");
        assert!(counts[0] > counts[4], "{counts:?}");
    }

    #[test]
    #[should_panic(expected = "pressure")]
    fn invalid_ranking_pressure_is_rejected() {
        let problem = MatchTarget { target: vec![1] };
        let _ = run(
            &problem,
            &GaConfig {
                selection: Selection::LinearRanking { pressure: 3.0 },
                ..GaConfig::default()
            },
        );
    }

    #[test]
    fn diversity_convergence_stops_homogeneous_populations() {
        // A two-valued cost landscape collapses diversity almost instantly.
        struct NearFlat;
        impl GaProblem for NearFlat {
            type Gene = u8;
            fn genome_len(&self) -> usize {
                4
            }
            fn random_gene(&self, _l: usize, rng: &mut dyn RngCore) -> u8 {
                rng.gen_range(0..2)
            }
            fn cost_batch(&self, genomes: &[Vec<u8>]) -> Vec<f64> {
                genomes.iter().map(|g| 1.0 + f64::from(g[0]) * 1e-9).collect()
            }
        }
        let with_diversity = run(
            &NearFlat,
            &GaConfig {
                diversity_epsilon: 1e-6,
                stagnation_limit: 1000,
                max_generations: 1000,
                seed: 0,
                ..GaConfig::default()
            },
        );
        assert!(
            with_diversity.generations < 1000,
            "diversity criterion should stop early, ran {} generations",
            with_diversity.generations
        );
        assert_eq!(with_diversity.stop_reason, StopReason::Converged);
    }

    #[test]
    fn evaluations_are_counted() {
        let problem = MatchTarget { target: vec![1, 2] };
        let cfg = GaConfig { max_generations: 5, stagnation_limit: 99, ..GaConfig::default() };
        let outcome = run(&problem, &cfg);
        // Initial pop + (pop - elites) per generation.
        let expected =
            cfg.population_size + outcome.generations * (cfg.population_size - cfg.elitism);
        assert_eq!(outcome.evaluations, expected);
        assert_eq!(outcome.stop_reason, StopReason::GenerationLimit);
    }

    #[test]
    fn non_finite_costs_are_clamped() {
        // NaN for most genomes; total_cmp would sort NaN *above* +inf, so
        // without clamping a NaN genome would be reported as "best".
        struct Poisoned;
        impl GaProblem for Poisoned {
            type Gene = u8;
            fn genome_len(&self) -> usize {
                4
            }
            fn random_gene(&self, _l: usize, rng: &mut dyn RngCore) -> u8 {
                rng.gen_range(0..4)
            }
            fn cost_batch(&self, genomes: &[Vec<u8>]) -> Vec<f64> {
                genomes
                    .iter()
                    .map(|g| match g[0] {
                        0 => f64::NAN,
                        1 => f64::NEG_INFINITY,
                        2 => f64::INFINITY,
                        _ => g.iter().map(|&x| f64::from(x)).sum(),
                    })
                    .collect()
            }
        }
        let outcome = run(
            &Poisoned,
            &GaConfig { max_generations: 30, stagnation_limit: 30, seed: 2, ..GaConfig::default() },
        );
        assert!(outcome.best_cost.is_finite());
        assert!(outcome.best_cost < REJECTED_COST);
        assert_eq!(outcome.best[0], 3, "only genomes starting with 3 are valid");
    }

    #[test]
    fn evaluation_budget_stops_the_run() {
        let problem = MatchTarget { target: vec![1, 2, 3, 4, 5, 6] };
        let cfg = GaConfig {
            max_evaluations: Some(120),
            max_generations: 10_000,
            stagnation_limit: 10_000,
            seed: 4,
            ..GaConfig::default()
        };
        let outcome = run(&problem, &cfg);
        assert_eq!(outcome.stop_reason, StopReason::EvaluationBudget);
        assert!(outcome.evaluations <= 120, "spent {}", outcome.evaluations);
        assert!(!outcome.best.is_empty());
        assert!(outcome.best_cost.is_finite());
    }

    #[test]
    fn tiny_evaluation_budget_still_returns_a_solution() {
        let problem = MatchTarget { target: vec![1, 2, 3] };
        let outcome = run(
            &problem,
            &GaConfig { max_evaluations: Some(1), seed: 0, ..GaConfig::default() },
        );
        assert_eq!(outcome.stop_reason, StopReason::EvaluationBudget);
        assert_eq!(outcome.evaluations, 1);
        assert_eq!(outcome.best.len(), 3);
    }

    #[test]
    fn zero_wall_clock_budget_stops_immediately() {
        let problem = MatchTarget { target: vec![1, 2, 3] };
        let outcome = run(
            &problem,
            &GaConfig { max_seconds: Some(0.0), seed: 0, ..GaConfig::default() },
        );
        assert_eq!(outcome.stop_reason, StopReason::WallClock);
        // The engine always evaluates at least one individual.
        assert!(outcome.evaluations >= 1);
        assert_eq!(outcome.best.len(), 3);
    }

    #[test]
    fn stop_flag_cancels_mid_run() {
        let problem = MatchTarget { target: vec![5; 8] };
        let flag = AtomicBool::new(false);
        let outcome = run_controlled(
            &problem,
            &GaConfig {
                max_generations: 10_000,
                stagnation_limit: 10_000,
                seed: 1,
                ..GaConfig::default()
            },
            RunControl {
                stop: Some(&flag),
                on_generation: Some(Box::new(|snapshot: &GaSnapshot<i64>| {
                    if snapshot.generation >= 3 {
                        flag.store(true, Ordering::Release);
                    }
                })),
                ..RunControl::default()
            },
        );
        assert_eq!(outcome.stop_reason, StopReason::Cancelled);
        assert_eq!(outcome.generations, 3);
        assert!(outcome.best_cost.is_finite());
    }

    #[test]
    fn pre_raised_stop_flag_still_yields_a_best() {
        let problem = MatchTarget { target: vec![1, 2] };
        let flag = AtomicBool::new(true);
        let outcome = run_controlled(
            &problem,
            &GaConfig { seed: 0, ..GaConfig::default() },
            RunControl { stop: Some(&flag), ..RunControl::default() },
        );
        assert_eq!(outcome.stop_reason, StopReason::Cancelled);
        assert_eq!(outcome.best.len(), 2);
        assert!(outcome.best_cost.is_finite());
    }

    #[test]
    fn resume_replays_the_uninterrupted_run() {
        let problem = MatchTarget { target: vec![3, 1, -4, 1, -5, 9, 2, -6] };
        let cfg = GaConfig {
            max_generations: 40,
            stagnation_limit: 100,
            seed: 17,
            ..GaConfig::default()
        };

        // Uninterrupted run, capturing the snapshot after generation 12.
        let mut mid: Option<GaSnapshot<i64>> = None;
        let full = run_controlled(
            &problem,
            &cfg,
            RunControl {
                on_generation: Some(Box::new(|snapshot: &GaSnapshot<i64>| {
                    if snapshot.generation == 12 {
                        mid = Some(snapshot.clone());
                    }
                })),
                ..RunControl::default()
            },
        );
        let snapshot = mid.expect("run reached generation 12");

        let resumed = run_controlled(
            &problem,
            &cfg,
            RunControl { resume: Some(snapshot), ..RunControl::default() },
        );
        assert_eq!(resumed.best, full.best);
        assert_eq!(resumed.best_cost, full.best_cost);
        assert_eq!(resumed.history, full.history);
        assert_eq!(resumed.generations, full.generations);
        assert_eq!(resumed.evaluations, full.evaluations);
        assert_eq!(resumed.stop_reason, full.stop_reason);
    }

    #[test]
    fn sink_receives_one_generation_event_per_generation() {
        use momsynth_telemetry::MemorySink;
        let problem = MatchTarget { target: vec![1, 2, 3] };
        let sink = MemorySink::new();
        let cfg =
            GaConfig { max_generations: 4, stagnation_limit: 99, seed: 8, ..GaConfig::default() };
        let outcome = run_controlled(
            &problem,
            &cfg,
            RunControl { sink: Some(&sink), ..RunControl::default() },
        );
        let events = sink.events();
        assert_eq!(events.len(), outcome.generations + 1, "init population + generations");
        for (i, event) in events.iter().enumerate() {
            let Event::Generation(g) = event else { panic!("unexpected event {event:?}") };
            assert_eq!(g.generation as usize, i);
            assert!(g.best <= g.mean && g.mean <= g.worst, "{g:?}");
            assert_eq!(g.best, outcome.history[i]);
            assert_eq!(g.counters, Counters::default(), "default counters are zero");
        }
    }

    #[test]
    fn disabled_sink_never_sees_a_record_call() {
        struct PanicSink;
        impl Sink for PanicSink {
            fn enabled(&self) -> bool {
                false
            }
            fn record(&self, _event: &Event) {
                panic!("record must not be called through a disabled sink");
            }
        }
        let problem = MatchTarget { target: vec![1, 2] };
        let cfg =
            GaConfig { max_generations: 3, stagnation_limit: 99, seed: 0, ..GaConfig::default() };
        let outcome = run_controlled(
            &problem,
            &cfg,
            RunControl { sink: Some(&PanicSink), ..RunControl::default() },
        );
        assert_eq!(outcome.generations, 3);
    }

    #[test]
    fn resumed_runs_emit_exactly_the_remaining_generation_events() {
        use momsynth_telemetry::MemorySink;
        let problem = MatchTarget { target: vec![3, 1, -4, 1, -5, 9] };
        let cfg = GaConfig {
            max_generations: 20,
            stagnation_limit: 100,
            seed: 13,
            ..GaConfig::default()
        };

        let full_sink = MemorySink::new();
        let mut mid: Option<GaSnapshot<i64>> = None;
        let _ = run_controlled(
            &problem,
            &cfg,
            RunControl {
                sink: Some(&full_sink),
                on_generation: Some(Box::new(|snapshot: &GaSnapshot<i64>| {
                    if snapshot.generation == 7 {
                        mid = Some(snapshot.clone());
                    }
                })),
                ..RunControl::default()
            },
        );
        let snapshot = mid.expect("run reached generation 7");

        let resumed_sink = MemorySink::new();
        let _ = run_controlled(
            &problem,
            &cfg,
            RunControl {
                sink: Some(&resumed_sink),
                resume: Some(snapshot),
                ..RunControl::default()
            },
        );
        // Normalise away the only wall-clock field (evals_per_sec) before
        // comparing: everything else must replay bit for bit.
        let normalize = |events: Vec<Event>| -> Vec<Event> {
            events
                .into_iter()
                .filter_map(|e| match e {
                    Event::Generation(g) if g.generation > 7 => {
                        Some(Event::Generation(g.normalized()))
                    }
                    _ => None,
                })
                .collect()
        };
        let tail = normalize(full_sink.events());
        assert!(!tail.is_empty());
        assert_eq!(
            normalize(resumed_sink.events()),
            tail,
            "resumed trace must replay the tail exactly"
        );
    }

    #[test]
    fn snapshots_carry_consistent_state() {
        let problem = MatchTarget { target: vec![2; 6] };
        let cfg = GaConfig { max_generations: 5, stagnation_limit: 99, ..GaConfig::default() };
        let mut seen = 0usize;
        let _ = run_controlled(
            &problem,
            &cfg,
            RunControl {
                on_generation: Some(Box::new(|snapshot: &GaSnapshot<i64>| {
                    assert_eq!(snapshot.generation, seen);
                    seen += 1;
                    assert_eq!(snapshot.population.len(), cfg.population_size);
                    assert_eq!(snapshot.history.len(), snapshot.generation + 1);
                    assert_eq!(snapshot.best.1, *snapshot.history.last().unwrap());
                    // Population is cost-sorted.
                    for pair in snapshot.population.windows(2) {
                        assert!(pair[0].1 <= pair[1].1);
                    }
                })),
                ..RunControl::default()
            },
        );
        assert_eq!(seen, 6, "initial population + 5 generations");
    }
}
