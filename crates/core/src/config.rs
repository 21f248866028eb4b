//! Configuration of the co-synthesis flow.

use momsynth_dvs::DvsOptions;
use momsynth_ga::GaConfig;
use momsynth_sched::SchedulerOptions;

use crate::alloc::AllocOptions;
use crate::genome::genome_hash;
use crate::local_search::LocalSearchOptions;

/// Weights of the penalty terms in the mapping fitness `F_M`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PenaltyWeights {
    /// Weight of the timing penalty (`tp`): per unit of lateness relative
    /// to the mode period.
    pub timing: f64,
    /// `w_A`: weight of the area penalty, applied per percent of area
    /// overshoot (the paper's `(a_U − a_max)/(a_max · 0.01)` term).
    pub area: f64,
    /// `w_R`: weight of the transition-time penalty, applied per violating
    /// transition's overrun ratio.
    pub transition: f64,
    /// Extra multiplicative factor applied once to any candidate with at
    /// least one constraint violation. The paper's purely relative
    /// penalties can let a massively cheaper infeasible mapping outrank a
    /// feasible one (e.g. area-violating all-hardware mappings three
    /// orders of magnitude below any software alternative); this boost
    /// keeps the search ordered among infeasible candidates while
    /// guaranteeing that feasible candidates dominate. Set to `1.0` to
    /// reproduce the paper's formula verbatim.
    pub infeasibility_boost: f64,
}

impl Default for PenaltyWeights {
    fn default() -> Self {
        Self { timing: 20.0, area: 0.5, transition: 2.0, infeasibility_boost: 1e6 }
    }
}

/// DVS settings used inside the synthesis loop.
///
/// Fitness evaluation runs thousands of voltage-scaling passes, so it uses
/// a coarse slack quantum; the final best solution is re-scaled with a
/// fine quantum before reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvsSynthesisOptions {
    /// Coarse options used for every fitness evaluation.
    pub eval: DvsOptions,
    /// Fine options used once, on the final best solution.
    pub refine: DvsOptions,
}

impl Default for DvsSynthesisOptions {
    fn default() -> Self {
        Self {
            eval: DvsOptions { quantum_divisor: 24.0, max_iterations: 4_000, scale_hw: true },
            refine: DvsOptions::fine(),
        }
    }
}

impl DvsSynthesisOptions {
    /// DVS restricted to software PEs (ablation D3).
    pub fn software_only() -> Self {
        let mut o = Self::default();
        o.eval.scale_hw = false;
        o.refine.scale_hw = false;
        o
    }
}

/// A fault injected into one candidate evaluation by [`FaultInjection`].
/// The candidate is rejected without being evaluated, as if the
/// evaluator had failed in the named way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The evaluator panics.
    Panic,
    /// The evaluator reports a NaN fitness.
    Nan,
    /// The evaluator returns a scheduling error.
    Err,
}

/// Deterministic fault injection into candidate evaluation (chaos
/// testing).
///
/// Each rate is the probability (in `[0, 1]`) that an evaluation fails in
/// the corresponding way. The decision is a pure function of the genome
/// and `seed` — the same candidate always fails the same way regardless of
/// evaluation order — so faulty runs stay reproducible and
/// checkpoint/resume equivalence holds even under injected faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjection {
    /// Probability that an evaluation panics.
    pub panic_rate: f64,
    /// Probability that an evaluation produces a NaN fitness.
    pub nan_rate: f64,
    /// Probability that an evaluation returns a scheduling error.
    pub err_rate: f64,
    /// Seed decorrelating the fault pattern from the GA seed.
    pub seed: u64,
}

impl FaultInjection {
    /// Decides whether (and how) the evaluation of `genome` fails.
    pub fn roll(&self, genome: &[u16]) -> Option<InjectedFault> {
        let unit = (genome_hash(self.seed, genome) >> 11) as f64 / (1u64 << 53) as f64;
        if unit < self.panic_rate {
            Some(InjectedFault::Panic)
        } else if unit < self.panic_rate + self.nan_rate {
            Some(InjectedFault::Nan)
        } else if unit < self.panic_rate + self.nan_rate + self.err_rate {
            Some(InjectedFault::Err)
        } else {
            None
        }
    }
}

/// Complete configuration of a synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisConfig {
    /// Genetic-algorithm engine settings.
    pub ga: GaConfig,
    /// Optimise with the true mode execution probabilities (the paper's
    /// proposal). When `false`, the optimiser weights all modes uniformly
    /// — the baseline both result tables compare against. The *reported*
    /// power always uses the true probabilities.
    pub probability_aware: bool,
    /// Voltage scaling; `None` synthesises a fixed-voltage implementation
    /// (Table 1), `Some` enables DVS (Table 2).
    pub dvs: Option<DvsSynthesisOptions>,
    /// Penalty weights of the fitness function.
    pub weights: PenaltyWeights,
    /// Hardware core allocation options.
    pub alloc: AllocOptions,
    /// List-scheduler options.
    pub scheduler: SchedulerOptions,
    /// Apply the paper's four improvement mutation operators (design
    /// decision D2; disable for the ablation).
    pub improvement_operators: bool,
    /// Single-gene local search applied to the GA's winner before
    /// the final refinement (memetic polish; set `max_passes` to 0 to
    /// disable).
    pub local_search: LocalSearchOptions,
    /// Deterministic evaluator fault injection for chaos testing; `None`
    /// (the default) evaluates faithfully.
    pub fault_injection: Option<FaultInjection>,
    /// Re-verify the best individual of every generation (and the final
    /// refined solution) with the independent `momsynth-check` oracle.
    /// A failed check panics in debug builds and emits a telemetry
    /// `Warning` event in release builds. Defaults to `true` under
    /// `debug_assertions` (tests), `false` in release builds.
    pub verify_each_generation: bool,
    /// Threads for batch fitness evaluation, the calling thread
    /// included: `1` (the default) evaluates serially on the calling
    /// thread, `N` prices each batch on it and up to `N − 1` spawned
    /// threads, one per unique genome of the batch but the caller's,
    /// `0` uses every available core. The evolution trajectory is
    /// bit-identical at any thread count.
    pub threads: usize,
    /// Build the genome from the statically pruned capable-PE domains of
    /// the pre-synthesis analyzer, so mutation and crossover never
    /// generate a gene that provably violates a deadline or period.
    /// Pruning only removes provably infeasible genes; it never changes
    /// which solutions are reachable.
    pub prune_domains: bool,
}

impl SynthesisConfig {
    /// The default configuration with the given GA seed.
    pub fn new(seed: u64) -> Self {
        Self {
            ga: GaConfig { seed, ..GaConfig::default() },
            probability_aware: true,
            dvs: None,
            weights: PenaltyWeights::default(),
            alloc: AllocOptions::default(),
            scheduler: SchedulerOptions::default(),
            improvement_operators: true,
            local_search: LocalSearchOptions::default(),
            fault_injection: None,
            verify_each_generation: cfg!(debug_assertions),
            threads: 1,
            prune_domains: true,
        }
    }

    /// The pricing-thread count, the calling thread included, that
    /// [`SynthesisConfig::threads`] resolves to:
    /// itself when non-zero, otherwise the machine's available
    /// parallelism (at least 1).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        }
    }

    /// A small/fast configuration for examples and tests.
    pub fn fast_preset(seed: u64) -> Self {
        let mut cfg = Self::new(seed);
        cfg.ga.population_size = 20;
        cfg.ga.max_generations = 40;
        cfg.ga.stagnation_limit = 12;
        cfg.local_search = LocalSearchOptions { max_passes: 1 };
        cfg
    }

    /// Enables DVS with default synthesis options.
    #[must_use]
    pub fn with_dvs(mut self) -> Self {
        self.dvs = Some(DvsSynthesisOptions::default());
        self
    }

    /// Switches to the probability-neglecting baseline (uniform mode
    /// weights during optimisation).
    #[must_use]
    pub fn probability_neglecting(mut self) -> Self {
        self.probability_aware = false;
        self
    }
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = SynthesisConfig::default();
        assert!(cfg.probability_aware);
        assert!(cfg.dvs.is_none());
        assert!(cfg.improvement_operators);
        assert!(cfg.weights.timing > 0.0);
        assert_eq!(cfg.threads, 1, "parallelism is opt-in");
        assert!(cfg.prune_domains, "static domain pruning defaults on");
    }

    #[test]
    fn effective_threads_resolves_zero_to_the_machine() {
        let mut cfg = SynthesisConfig::default();
        assert_eq!(cfg.effective_threads(), 1);
        cfg.threads = 3;
        assert_eq!(cfg.effective_threads(), 3);
        cfg.threads = 0;
        assert!(cfg.effective_threads() >= 1);
    }

    #[test]
    fn builder_helpers_compose() {
        let cfg = SynthesisConfig::new(7).with_dvs().probability_neglecting();
        assert_eq!(cfg.ga.seed, 7);
        assert!(cfg.dvs.is_some());
        assert!(!cfg.probability_aware);
    }

    #[test]
    fn fast_preset_is_smaller() {
        let fast = SynthesisConfig::fast_preset(0);
        let full = SynthesisConfig::new(0);
        assert!(fast.ga.population_size < full.ga.population_size);
        assert!(fast.ga.max_generations < full.ga.max_generations);
    }

    #[test]
    fn fault_injection_is_deterministic_per_genome() {
        let fault = FaultInjection { panic_rate: 0.2, nan_rate: 0.2, err_rate: 0.2, seed: 7 };
        for genome in [vec![0u16, 1, 2], vec![3, 3], vec![]] {
            assert_eq!(fault.roll(&genome), fault.roll(&genome));
        }
        // Roughly 60% of random genomes should draw some fault.
        let faulty =
            (0..1000u16).filter(|&i| fault.roll(&[i, i.wrapping_mul(31)]).is_some()).count();
        assert!((450..750).contains(&faulty), "{faulty}");
        let none = FaultInjection { panic_rate: 0.0, nan_rate: 0.0, err_rate: 0.0, seed: 7 };
        assert_eq!(none.roll(&[1, 2, 3]), None);
        let always = FaultInjection { panic_rate: 1.0, nan_rate: 0.0, err_rate: 0.0, seed: 7 };
        assert_eq!(always.roll(&[1, 2, 3]), Some(InjectedFault::Panic));
    }

    #[test]
    fn software_only_dvs_disables_hw_scaling() {
        let o = DvsSynthesisOptions::software_only();
        assert!(!o.eval.scale_hw);
        assert!(!o.refine.scale_hw);
        assert!(DvsSynthesisOptions::default().eval.scale_hw);
    }
}
