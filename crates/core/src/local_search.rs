//! Best-move-per-locus local search over mapping genomes.
//!
//! A memetic polish stage applied to the GA's winner: sweep the loci in a
//! seeded random order, try every alternative candidate PE at each locus
//! and keep the best one that strictly improves on the current fitness;
//! repeat until a full sweep finds nothing (or the pass budget is
//! exhausted). Single-gene moves cannot escape the coordinated local
//! optima of the multi-mode landscape, but they reliably remove drift
//! artefacts — rare-mode genes parked on hardware the mode does not
//! need — which the probability-weighted fitness is nearly blind to
//! during evolution.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use momsynth_ga::{Budget, StopReason, REJECTED_COST};

use crate::fitness::{Cost, Evaluator};
use crate::genome::{Gene, GenomeLayout};
use crate::parents::ParentRecord;
use momsynth_dvs::DvsOptions;
use momsynth_sched::SystemMapping;

/// Options of the local-search polish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalSearchOptions {
    /// Maximum number of full sweeps over the genome (0 disables).
    pub max_passes: usize,
}

impl Default for LocalSearchOptions {
    fn default() -> Self {
        Self { max_passes: 2 }
    }
}

/// The outcome of a polish run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalSearchStats {
    /// Number of single-gene moves accepted.
    pub moves_accepted: usize,
    /// Number of candidate evaluations performed.
    pub evaluations: usize,
    /// Fitness before and after.
    pub fitness_before: f64,
    /// Final fitness.
    pub fitness_after: f64,
    /// Why the budget cut the polish short; `None` when it ran to its
    /// end.
    pub stop_reason: Option<StopReason>,
}

/// Polishes `genes` in place; returns statistics.
///
/// `dvs` selects the voltage-scaling resolution used to price candidate
/// moves (usually the coarse evaluation options of the synthesis config).
/// Each move is priced with [`Evaluator::try_cost`] against the
/// [`ParentRecord`] of the current genome, so it schedules,
/// voltage-scales and prices only the modes whose terms it can change.
/// Candidates whose evaluation fails, panics or prices to a non-finite
/// fitness are treated as [`REJECTED_COST`] and never accepted. `budget`
/// is asked before each move is priced, with the polish's own
/// evaluations; once it is spent the genome keeps the best state reached
/// so far. Pricing the input itself is never refused.
pub fn polish(
    evaluator: &Evaluator<'_>,
    layout: &GenomeLayout,
    genes: &mut [Gene],
    dvs: Option<&DvsOptions>,
    options: &LocalSearchOptions,
    seed: u64,
    budget: &Budget<'_>,
) -> LocalSearchStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let fitness = |cost: &Option<Cost>| cost.as_ref().map_or(REJECTED_COST, |c| c.fitness);

    let mut mapping = layout.decode(genes);
    let priced = evaluator.try_cost(&mapping, dvs, |_, _| None).ok();
    let mut evaluations = 1usize;
    let mut current = fitness(&priced);
    // The record of the current genome, which every move is priced
    // against: a single-gene move leaves every other mode as it is here.
    let mut base = ParentRecord::new(genes.to_vec(), priced.as_ref());
    let fitness_before = current;
    let mut moves_accepted = 0usize;
    let mut stop_reason = None;

    'passes: for _ in 0..options.max_passes {
        let mut improved = false;
        // Random sweep order avoids systematic bias across passes.
        let mut order: Vec<usize> = (0..layout.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for &locus in &order {
            let original = genes[locus];
            let alternatives = layout.candidates(locus).len();
            if alternatives < 2 {
                continue;
            }
            let mut best_alt: Option<(Gene, f64, SystemMapping, Option<Cost>)> = None;
            for alt in 0..alternatives as Gene {
                if alt == original {
                    continue;
                }
                stop_reason = budget.stop_reason(evaluations);
                if stop_reason.is_some() {
                    genes[locus] = original;
                    break 'passes;
                }
                genes[locus] = alt;
                // The current mapping is `genes` before this move, so the
                // move is one copied entry.
                let moved = layout.with_gene(&mapping, locus, alt);
                let known = |mode, alloc: &_| base.known(layout, genes, mode, alloc);
                let cost = evaluator.try_cost(&moved, dvs, known).ok();
                evaluations += 1;
                let c = fitness(&cost);
                if c < current && best_alt.as_ref().is_none_or(|(_, b, _, _)| c < *b) {
                    best_alt = Some((alt, c, moved, cost));
                }
            }
            match best_alt {
                Some((alt, c, moved, cost)) => {
                    genes[locus] = alt;
                    mapping = moved;
                    current = c;
                    base = ParentRecord::new(genes.to_vec(), cost.as_ref());
                    moves_accepted += 1;
                    improved = true;
                }
                None => genes[locus] = original,
            }
        }
        if !improved {
            break;
        }
    }

    LocalSearchStats {
        moves_accepted,
        evaluations,
        fitness_before,
        fitness_after: current,
        stop_reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthesisConfig;
    use momsynth_gen::suite::{generate, GeneratorParams};

    fn small_system() -> momsynth_model::System {
        let mut params = GeneratorParams::new("ls", 17);
        params.modes = 2;
        params.tasks_per_mode = (6, 8);
        generate(&params)
    }

    #[test]
    fn polish_never_worsens_fitness() {
        let system = small_system();
        let config = SynthesisConfig::new(0);
        let evaluator = Evaluator::new(&system, &config);
        let layout = GenomeLayout::new(&system);
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut genes: Vec<Gene> = (0..layout.len())
                .map(|l| rng.gen_range(0..layout.candidates(l).len()) as Gene)
                .collect();
            let stats = polish(
                &evaluator,
                &layout,
                &mut genes,
                None,
                &LocalSearchOptions::default(),
                seed,
                &Budget::default(),
            );
            assert!(stats.fitness_after <= stats.fitness_before);
            // Result must still decode to a valid mapping.
            assert!(layout.decode(&genes).validate(&system).is_ok());
        }
    }

    #[test]
    fn polish_improves_a_random_genome() {
        let system = small_system();
        let config = SynthesisConfig::new(0);
        let evaluator = Evaluator::new(&system, &config);
        let layout = GenomeLayout::new(&system);
        let mut rng = StdRng::seed_from_u64(1);
        let mut genes: Vec<Gene> = (0..layout.len())
            .map(|l| rng.gen_range(0..layout.candidates(l).len()) as Gene)
            .collect();
        let stats = polish(
            &evaluator,
            &layout,
            &mut genes,
            None,
            &LocalSearchOptions::default(),
            0,
            &Budget::default(),
        );
        assert!(stats.moves_accepted > 0, "random genome should be improvable");
        assert!(stats.fitness_after < stats.fitness_before);
        assert!(stats.evaluations > 0);
    }

    #[test]
    fn zero_passes_is_a_noop() {
        let system = small_system();
        let config = SynthesisConfig::new(0);
        let evaluator = Evaluator::new(&system, &config);
        let layout = GenomeLayout::new(&system);
        let mut genes: Vec<Gene> = vec![0; layout.len()];
        let before = genes.clone();
        let stats = polish(
            &evaluator,
            &layout,
            &mut genes,
            None,
            &LocalSearchOptions { max_passes: 0 },
            0,
            &Budget::default(),
        );
        assert_eq!(genes, before);
        assert_eq!(stats.moves_accepted, 0);
        assert_eq!(stats.fitness_before, stats.fitness_after);
    }

    #[test]
    fn polish_is_deterministic_per_seed() {
        let system = small_system();
        let config = SynthesisConfig::new(0);
        let evaluator = Evaluator::new(&system, &config);
        let layout = GenomeLayout::new(&system);
        let mut a: Vec<Gene> = vec![1; layout.len()]
            .iter()
            .enumerate()
            .map(|(l, _)| 1u16.min(layout.candidates(l).len() as u16 - 1))
            .collect();
        let mut b = a.clone();
        let ctl = Budget::default();
        let sa = polish(&evaluator, &layout, &mut a, None, &LocalSearchOptions::default(), 9, &ctl);
        let sb = polish(&evaluator, &layout, &mut b, None, &LocalSearchOptions::default(), 9, &ctl);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }
}
