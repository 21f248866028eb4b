//! A deterministic depth-first branch-and-bound engine.
//!
//! The GA in this crate finds good solutions fast but certifies nothing.
//! This module is its exact counterpart: an exhaustive depth-first
//! enumeration of a finite per-locus choice space, cut by an admissible
//! lower bound, that either *proves* the returned incumbent optimal or —
//! when an evaluation budget runs out first — returns the incumbent
//! together with a still-valid global lower bound, from which the caller
//! derives a gap certificate.
//!
//! The engine is domain-agnostic like [`GaProblem`](crate::GaProblem): a
//! [`BnbProblem`] supplies the per-locus domain sizes, an admissible
//! bound on every completion of a prefix, and the exact cost of a leaf.
//! Search order is fixed (locus 0 outermost, choices in domain order) and
//! no randomness is consulted, so a run under an evaluation cap alone is
//! a pure function of the problem — certificates are reproducible bit
//! for bit.
//!
//! # Soundness
//!
//! With an admissible [`BnbProblem::prefix_bound`] (never above the cost
//! of any completion of the prefix):
//!
//! - a subtree is pruned only when its bound is at or above the
//!   incumbent's cost, so some optimum always survives enumeration and
//!   [`Outcome::proven`] implies the incumbent *is* an optimum;
//! - when the budget interrupts the search, every abandoned subtree's
//!   bound is folded into [`Outcome::lower_bound`], so the true optimum
//!   can never lie below it.

use crate::Budget;

/// A finite assignment problem searchable by [`branch_and_bound`].
pub trait BnbProblem {
    /// Number of loci (depth of the search tree).
    fn len(&self) -> usize;

    /// `true` when the problem has no loci at all.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of choices at `locus`; must be at least 1.
    fn domain_size(&self, locus: usize) -> usize;

    /// Admissible lower bound on the cost of *every* completion of the
    /// prefix `choices[..depth]`. Need not be monotone in `depth`, but
    /// tighter bounds prune more. `depth == 0` bounds the whole space.
    fn prefix_bound(&self, choices: &[usize], depth: usize) -> f64;

    /// Exact cost of the complete assignment `choices` (lower is
    /// better). Counted against the evaluation budget.
    fn leaf_cost(&mut self, choices: &[usize]) -> f64;
}

/// The result of a [`branch_and_bound`] search.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The best complete assignment found, with its cost; `None` if the
    /// budget expired before the first leaf, the space is empty, or an
    /// external incumbent pruned every subtree.
    pub best: Option<(Vec<usize>, f64)>,
    /// `true` when the search space was exhausted: no assignment costs
    /// less than [`Outcome::lower_bound`], so the cheaper of `best` and
    /// any externally seeded incumbent is optimal.
    pub proven: bool,
    /// A valid lower bound on the optimal cost, whether or not the
    /// search finished: the minimum of the incumbent's cost and every
    /// abandoned subtree's bound.
    pub lower_bound: f64,
    /// Leaves priced through [`BnbProblem::leaf_cost`].
    pub explored: u64,
    /// Subtrees cut because their bound reached the incumbent.
    pub pruned_by_bound: u64,
}

impl Outcome {
    /// Relative optimality gap `(best − lower_bound) / lower_bound`
    /// certified by this outcome: `0` when proven optimal, positive when
    /// the budget left a gap, `None` without an incumbent or with a
    /// non-positive bound (the gap is then meaningless).
    pub fn gap(&self) -> Option<f64> {
        let (_, cost) = self.best.as_ref()?;
        if self.proven {
            return Some(0.0);
        }
        if self.lower_bound <= 0.0 {
            return None;
        }
        Some(((cost - self.lower_bound) / self.lower_bound).max(0.0))
    }
}

/// Exhausts `problem` depth-first within `budget`, whose evaluations are
/// the leaves priced through [`BnbProblem::leaf_cost`].
///
/// A spent budget interrupts the search: abandoned subtrees fold their
/// bounds into [`Outcome::lower_bound`], so the certificate stays valid
/// and only `proven` is lost. A search under a deadline is *not*
/// deterministic; one under an evaluation cap alone is.
///
/// `incumbent` optionally seeds the search with an externally known cost
/// (e.g. the GA's best): subtrees at or above it are cut immediately,
/// which can only speed the proof up. The seed is *not* returned as
/// `best` — only genuinely explored leaves are.
pub fn branch_and_bound<P: BnbProblem>(
    problem: &mut P,
    budget: Budget<'_>,
    incumbent: Option<f64>,
) -> Outcome {
    let n = problem.len();
    let mut outcome = Outcome {
        best: None,
        proven: true,
        lower_bound: f64::INFINITY,
        explored: 0,
        pruned_by_bound: 0,
    };
    if n == 0 {
        outcome.lower_bound = f64::NEG_INFINITY;
        return outcome;
    }

    let mut cutoff = incumbent.unwrap_or(f64::INFINITY);
    // Bound on costs no explored subtree can beat; folded into the final
    // lower bound. Starts at the externally seeded cutoff: if the seed
    // prunes everything, the seed's cost itself is the certified bound.
    let mut abandoned = incumbent.unwrap_or(f64::INFINITY);
    let mut choices = vec![0usize; n];
    let mut best_cost = f64::INFINITY;

    // The clock is read every 256 nodes: cheap against leaf pricing,
    // tight enough that an expired deadline stops within a short burst.
    // Between reads the budget is asked without its deadline. A spent
    // budget stays spent.
    let between_reads = Budget { deadline: None, ..budget };
    let mut node = 0u32;
    let mut spent = false;
    let mut out_of_budget = |explored: u64| {
        node = node.wrapping_add(1);
        let asked = if node & 0xFF == 0 { &budget } else { &between_reads };
        let explored = usize::try_from(explored).unwrap_or(usize::MAX);
        spent = spent || asked.stop_reason(explored).is_some();
        spent
    };

    // Iterative DFS: `depth` is the locus currently being assigned,
    // `choices[..depth]` the fixed prefix.
    let mut depth = 0usize;
    loop {
        if depth == n {
            // A complete assignment: price it.
            if out_of_budget(outcome.explored) {
                // Budget exhausted at a leaf that was never priced: its
                // subtree (itself) counts as abandoned at prefix bound.
                outcome.proven = false;
                let bound = problem.prefix_bound(&choices, n);
                abandoned = abandoned.min(bound);
            } else {
                outcome.explored += 1;
                let cost = problem.leaf_cost(&choices);
                if cost < best_cost {
                    best_cost = cost;
                    outcome.best = Some((choices.clone(), cost));
                    cutoff = cutoff.min(cost);
                }
            }
            // Backtrack to the deepest locus with an untried choice.
            match backtrack(problem, &mut choices, depth) {
                Some(d) => depth = d,
                None => break,
            }
            continue;
        }

        let bound = problem.prefix_bound(&choices, depth);
        let out_of_budget = out_of_budget(outcome.explored);
        if bound >= cutoff || out_of_budget {
            if out_of_budget && bound < cutoff {
                outcome.proven = false;
                abandoned = abandoned.min(bound);
            } else {
                outcome.pruned_by_bound += 1;
            }
            match backtrack(problem, &mut choices, depth) {
                Some(d) => depth = d,
                None => break,
            }
            continue;
        }

        // Descend with the first choice at this locus.
        choices[depth] = 0;
        depth += 1;
    }

    // Exhausted: the cheaper of the incumbent and the seed is optimal.
    // Interrupted: no abandoned subtree can beat `abandoned`, no explored
    // leaf beat `best_cost`, so their minimum still bounds the optimum.
    outcome.lower_bound = best_cost.min(abandoned);
    outcome
}

/// Advances `choices` to the next unvisited sibling at or above the
/// parent of `depth`, returning the new depth to expand, or `None` when
/// the whole tree has been visited. After the call, `choices[..returned
/// depth]` is the next prefix to consider.
fn backtrack<P: BnbProblem>(problem: &P, choices: &mut [usize], depth: usize) -> Option<usize> {
    let mut d = depth;
    while d > 0 {
        let locus = d - 1;
        if choices[locus] + 1 < problem.domain_size(locus) {
            choices[locus] += 1;
            return Some(d);
        }
        d -= 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cost = Σ table[locus][choice]; the prefix bound prices assigned
    /// loci exactly and unassigned loci at their row minimum — tight and
    /// admissible, so the optimum is the per-row minimum sum.
    struct Table {
        rows: Vec<Vec<f64>>,
        evals: u64,
    }

    impl Table {
        fn new(rows: Vec<Vec<f64>>) -> Self {
            Self { rows, evals: 0 }
        }

        fn optimum(&self) -> f64 {
            self.rows.iter().map(|r| r.iter().cloned().fold(f64::INFINITY, f64::min)).sum()
        }
    }

    impl BnbProblem for Table {
        fn len(&self) -> usize {
            self.rows.len()
        }
        fn domain_size(&self, locus: usize) -> usize {
            self.rows[locus].len()
        }
        fn prefix_bound(&self, choices: &[usize], depth: usize) -> f64 {
            let assigned: f64 = (0..depth).map(|l| self.rows[l][choices[l]]).sum();
            let free: f64 = self.rows[depth..]
                .iter()
                .map(|r| r.iter().cloned().fold(f64::INFINITY, f64::min))
                .sum();
            assigned + free
        }
        fn leaf_cost(&mut self, choices: &[usize]) -> f64 {
            self.evals += 1;
            (0..self.rows.len()).map(|l| self.rows[l][choices[l]]).sum()
        }
    }

    fn rows() -> Vec<Vec<f64>> {
        vec![vec![3.0, 1.0, 2.0], vec![5.0, 4.0], vec![0.5, 0.25, 9.0, 1.0]]
    }

    #[test]
    fn finds_and_proves_the_optimum() {
        let mut p = Table::new(rows());
        let optimum = p.optimum();
        let outcome = branch_and_bound(&mut p, Budget::default(), None);
        assert!(outcome.proven);
        assert_eq!(outcome.gap(), Some(0.0));
        let (choices, cost) = outcome.best.expect("searched to completion");
        assert_eq!(choices, vec![1, 1, 1]);
        assert!((cost - optimum).abs() < 1e-12);
        assert!((outcome.lower_bound - optimum).abs() < 1e-12);
    }

    #[test]
    fn bound_prunes_but_never_cuts_the_optimum() {
        let mut with_bound = Table::new(rows());
        let full = branch_and_bound(&mut with_bound, Budget::default(), None);
        // The tight bound must visit far fewer than all 24 leaves.
        assert!(with_bound.evals < 24, "{} leaves priced", with_bound.evals);
        assert!(full.pruned_by_bound > 0);
        assert_eq!(full.best.unwrap().1, Table::new(rows()).optimum());
    }

    #[test]
    fn exhausted_budget_degrades_to_a_valid_gap_bound() {
        let mut p = Table::new(rows());
        let optimum = p.optimum();
        let outcome = branch_and_bound(&mut p, Budget::new(None, None, Some(2)), None);
        assert!(!outcome.proven);
        assert!(outcome.explored <= 2);
        // The bound stays below (or at) the true optimum…
        assert!(outcome.lower_bound <= optimum + 1e-12);
        // …and the incumbent above it, so the gap is non-negative.
        if let Some(gap) = outcome.gap() {
            assert!(gap >= 0.0);
        }
    }

    #[test]
    fn external_incumbent_only_accelerates_the_proof() {
        let optimum = Table::new(rows()).optimum();
        let mut seeded = Table::new(rows());
        let outcome = branch_and_bound(&mut seeded, Budget::default(), Some(optimum + 0.01));
        assert!(outcome.proven);
        assert_eq!(outcome.best.unwrap().1, optimum);

        // A seed at the optimum prunes everything; the certificate is
        // then the seed's own cost.
        let mut tight = Table::new(rows());
        let outcome = branch_and_bound(&mut tight, Budget::default(), Some(optimum));
        assert!(outcome.proven);
        assert!(outcome.best.is_none());
        assert!((outcome.lower_bound - optimum).abs() < 1e-12);
    }

    #[test]
    fn zero_budget_still_returns_a_root_bound() {
        let mut p = Table::new(rows());
        let outcome = branch_and_bound(&mut p, Budget::new(None, None, Some(0)), None);
        assert!(!outcome.proven);
        assert!(outcome.best.is_none());
        assert!(outcome.lower_bound <= p.optimum());
        assert!(outcome.lower_bound.is_finite());
    }

    #[test]
    fn empty_problem_is_trivially_proven() {
        let mut p = Table::new(Vec::new());
        let outcome = branch_and_bound(&mut p, Budget::default(), None);
        assert!(outcome.proven);
        assert!(outcome.best.is_none());
    }

    #[test]
    fn search_is_deterministic() {
        let a = branch_and_bound(&mut Table::new(rows()), Budget::new(None, None, Some(5)), None);
        let b = branch_and_bound(&mut Table::new(rows()), Budget::new(None, None, Some(5)), None);
        assert_eq!(a, b);
    }
}
