//! Exact optimality certification of mapping fitness (`momsynth prove`).
//!
//! The GA returns a good mapping; this module says how good. It wraps
//! the deterministic branch-and-bound engine of `momsynth-ga` around the
//! same [`Evaluator`] the GA prices candidates with, enumerating the
//! statically pruned assignment space of the pre-synthesis analyzer and
//! cutting subtrees with an admissible fitness lower bound. The result
//! is a [`Certificate`]: either *Optimal* (the space was exhausted, the
//! cheapest assignment is known exactly) or *GapBound(ε)* (the budget
//! ran out first, but no assignment can price more than a factor `1+ε`
//! below the incumbent).
//!
//! # Bound soundness
//!
//! The fitness is `F_M = p̄ · tp · ap · rp [· boost]` with every penalty
//! factor at least 1, so any lower bound on the optimisation-weighted
//! average power `p̄` lower-bounds the fitness. For a prefix with loci
//! `0..depth` assigned, the bound sums, per mode `m` with weight `w_m`
//! and period `φ_m`:
//!
//! - **assigned loci** — `w_m · E(τ, pe) · δ(pe) / φ_m` for the chosen
//!   PE, where `δ(pe) = (V_min/V_max)²` on DVS-capable PEs under a DVS
//!   configuration (the quadratic energy factor at the lowest supply
//!   level — no voltage schedule can price below it) and `1` otherwise;
//! - **unassigned loci** — the minimum of that term over the locus's
//!   candidate domain;
//! - **communications with both endpoints assigned** to distinct PEs —
//!   `w_m / φ_m` times the cheapest transfer energy over the CLs
//!   connecting the two PEs (infinite when no CL does: the leaf cannot
//!   be scheduled at all, so the subtree prunes).
//!
//! Static power, idle CL power and transfers whose endpoints are not
//! both fixed contribute nothing — every dropped term is non-negative,
//! so the bound stays admissible for *any* completion, feasible or not,
//! at any DVS resolution (coarse search pricing, fine refinement, or
//! none).

use momsynth_analyze::{analyze_system, DomainReduction};
use momsynth_ga::bnb::{branch_and_bound, BnbProblem};
use momsynth_ga::Budget;
use momsynth_model::System;
use momsynth_sched::SystemMapping;

use crate::config::SynthesisConfig;
use crate::fitness::{Evaluator, Solution};
use crate::genome::{Gene, GenomeLayout};
use crate::parents::ParentRecord;
use crate::synthesis::SynthesisError;

/// Controls of one [`prove`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProveOptions {
    /// Maximum leaf evaluations before the search degrades from a proof
    /// to a gap bound. `u64::MAX` means no cap (a search bounded by
    /// [`ProveOptions::deadline`] alone).
    pub max_evals: u64,
    /// Optional wall-clock deadline for the search (same graceful
    /// degradation; makes the run non-deterministic).
    pub deadline: Option<std::time::Instant>,
    /// Externally known achievable fitness (the GA's best) seeding the
    /// search: subtrees at or above it are cut immediately.
    pub incumbent: Option<f64>,
    /// Use the admissible prefix bound to prune. Disabled only by the
    /// soundness oracle, which compares bounded search against plain
    /// exhaustive enumeration.
    pub use_bounds: bool,
}

impl Default for ProveOptions {
    fn default() -> Self {
        Self { max_evals: 100_000, deadline: None, incumbent: None, use_bounds: true }
    }
}

/// How strong a [`Certificate`] is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CertificateStatus {
    /// The pruned assignment space was exhausted: no mapping prices
    /// below [`Certificate::lower_bound`], and
    /// [`Certificate::best_fitness`] attains it (up to bound slack).
    Optimal,
    /// The budget ran out first. `epsilon` is the certified relative
    /// gap: the optimum lies within `[lower_bound, best_fitness]` and
    /// `best_fitness ≤ (1 + epsilon) · lower_bound`. Infinite when no
    /// incumbent exists at all.
    GapBound {
        /// The certified relative optimality gap.
        epsilon: f64,
    },
}

impl CertificateStatus {
    /// The certified relative gap: `0` for [`CertificateStatus::Optimal`].
    pub fn epsilon(&self) -> f64 {
        match self {
            Self::Optimal => 0.0,
            Self::GapBound { epsilon } => *epsilon,
        }
    }
}

impl std::fmt::Display for CertificateStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Optimal => write!(f, "optimal"),
            Self::GapBound { epsilon } => write!(f, "gap-bound(ε = {epsilon:.6})"),
        }
    }
}

/// The outcome of [`prove`]: a machine-checkable optimality statement
/// about the mapping fitness of one system under one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Proof strength.
    pub status: CertificateStatus,
    /// Certified fitness lower bound: no complete assignment in the
    /// (full) mapping space prices below this.
    pub lower_bound: f64,
    /// The cheapest *achievable* fitness known: the minimum of the
    /// search's best leaf and the seeded incumbent. `None` only when the
    /// budget expired before any leaf and no incumbent was given.
    pub best_fitness: Option<f64>,
    /// The search's own best solution, fully evaluated — absent when the
    /// seeded incumbent already priced at or below every explored leaf.
    pub best: Option<Solution>,
    /// Leaves priced by the evaluator.
    pub explored: u64,
    /// Subtrees cut by the admissible bound.
    pub pruned_by_bound: u64,
    /// Genome-domain reduction of the static analyzer (deadline and
    /// dominance candidate pruning) the search space was built from.
    pub domain_reduction: DomainReduction,
    /// Number of complete assignments in the searched (pruned) space.
    pub search_space: f64,
    /// The evaluation cap the search ran under; `None` when it had
    /// none ([`ProveOptions::max_evals`] was `u64::MAX`).
    pub max_evals: Option<u64>,
}

impl Certificate {
    /// The certified relative optimality gap (`0` when optimal).
    pub fn epsilon(&self) -> f64 {
        self.status.epsilon()
    }

    /// Renders the certificate as the JSON document `momsynth prove`
    /// writes and the CI smoke job asserts over.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "status": match self.status {
                CertificateStatus::Optimal => "optimal",
                CertificateStatus::GapBound { .. } => "gap-bound",
            },
            "certified_gap": self.epsilon(),
            "lower_bound": self.lower_bound,
            "best_fitness": self.best_fitness,
            "explored": self.explored,
            "pruned_by_bound": self.pruned_by_bound,
            "pruned_by_deadline": self.domain_reduction.pruned_by_deadline,
            "pruned_by_dominance": self.domain_reduction.pruned_by_dominance,
            "total_candidates": self.domain_reduction.total_candidates,
            "search_space": self.search_space,
            "max_evals": self.max_evals,
        })
    }
}

/// The mapping space as a [`BnbProblem`]: leaves priced by the real
/// [`Evaluator`], prefixes bounded by the admissible power floor
/// described in the module docs.
struct MappingBnb<'a> {
    layout: &'a GenomeLayout,
    evaluator: &'a Evaluator<'a>,
    dvs: Option<momsynth_dvs::DvsOptions>,
    /// `terms[locus][choice]`: the locus's certified average-power
    /// contribution when mapped on its `choice`-th candidate.
    terms: Vec<Vec<f64>>,
    /// `suffix_min[depth]`: Σ over loci ≥ `depth` of the cheapest term.
    suffix_min: Vec<f64>,
    /// Per communication: both endpoint loci and the cost matrix
    /// `[src_choice][dst_choice]` (0 when PE-local, ∞ when unroutable).
    edges: Vec<(usize, usize, Vec<Vec<f64>>)>,
    use_bounds: bool,
    genes: Vec<Gene>,
    /// `genes` decoded; a leaf re-maps only the loci whose choice changed
    /// since the previous leaf.
    mapping: SystemMapping,
    /// The record of the last leaf that priced, which the next leaf is
    /// priced against: depth-first order changes few loci between leaves.
    last: ParentRecord,
}

impl<'a> MappingBnb<'a> {
    fn new(
        system: &'a System,
        config: &SynthesisConfig,
        layout: &'a GenomeLayout,
        evaluator: &'a Evaluator<'a>,
        use_bounds: bool,
    ) -> Self {
        let arch = system.arch();
        let tech = system.tech();
        let dvs_on = config.dvs.is_some();
        // δ(pe): the quadratic energy factor at the lowest supply level —
        // no voltage schedule prices a task below it.
        let dvs_floor = |pe: momsynth_model::ids::PeId| -> f64 {
            if !dvs_on {
                return 1.0;
            }
            match arch.pe(pe).dvs() {
                Some(cap) => {
                    let r = cap.v_min().value() / cap.v_max().value();
                    (r * r).clamp(0.0, 1.0)
                }
                None => 1.0,
            }
        };

        let mut terms = Vec::with_capacity(layout.len());
        for locus in 0..layout.len() {
            let id = layout.global(locus);
            let graph = system.omsm().mode(id.mode).graph();
            let ty = graph.task(id.task).task_type();
            let weight = evaluator.weights()[id.mode.index()];
            let period = graph.period().value();
            let row: Vec<f64> = layout
                .candidates(locus)
                .iter()
                .map(|&pe| {
                    let energy = tech.impl_of(ty, pe).map_or(0.0, |i| i.energy().value());
                    if period > 0.0 {
                        weight * energy * dvs_floor(pe) / period
                    } else {
                        0.0
                    }
                })
                .collect();
            terms.push(row);
        }

        let mut suffix_min = vec![0.0; layout.len() + 1];
        for locus in (0..layout.len()).rev() {
            let cheapest = terms[locus].iter().cloned().fold(f64::INFINITY, f64::min);
            suffix_min[locus] = suffix_min[locus + 1] + cheapest.max(0.0);
        }

        let mut edges = Vec::new();
        for (mode, m) in system.omsm().modes() {
            let graph = m.graph();
            let weight = evaluator.weights()[mode.index()];
            let period = graph.period().value();
            if period <= 0.0 {
                continue;
            }
            for (_, comm) in graph.comms() {
                let src = layout.locus(mode, comm.src());
                let dst = layout.locus(mode, comm.dst());
                let matrix: Vec<Vec<f64>> = layout
                    .candidates(src)
                    .iter()
                    .map(|&pa| {
                        layout
                            .candidates(dst)
                            .iter()
                            .map(|&pb| {
                                if pa == pb {
                                    return 0.0;
                                }
                                arch.cls_between(pa, pb)
                                    .map(|cl_id| {
                                        let cl = arch.cl(cl_id);
                                        let t = cl.transfer_time(comm.data_units());
                                        (cl.transfer_power() * t).value()
                                    })
                                    .fold(f64::INFINITY, f64::min)
                                    * weight
                                    / period
                            })
                            .collect()
                    })
                    .collect();
                edges.push((src, dst, matrix));
            }
        }

        let genes = vec![0; layout.len()];
        Self {
            layout,
            evaluator,
            dvs: config.dvs.as_ref().map(|d| d.eval),
            terms,
            suffix_min,
            edges,
            use_bounds,
            mapping: layout.decode(&genes),
            genes,
            last: ParentRecord::new(Vec::new(), None),
        }
    }
}

impl BnbProblem for MappingBnb<'_> {
    fn len(&self) -> usize {
        self.layout.len()
    }

    fn domain_size(&self, locus: usize) -> usize {
        self.layout.candidates(locus).len()
    }

    fn prefix_bound(&self, choices: &[usize], depth: usize) -> f64 {
        if !self.use_bounds {
            return f64::NEG_INFINITY;
        }
        let mut bound = self.suffix_min[depth];
        for (locus, row) in self.terms[..depth].iter().enumerate() {
            bound += row[choices[locus]];
        }
        for (src, dst, matrix) in &self.edges {
            if *src < depth && *dst < depth {
                bound += matrix[choices[*src]][choices[*dst]];
            }
        }
        bound
    }

    fn leaf_cost(&mut self, choices: &[usize]) -> f64 {
        for (locus, (gene, &choice)) in self.genes.iter_mut().zip(choices).enumerate() {
            if usize::from(*gene) != choice {
                *gene = choice as Gene;
                let id = self.layout.global(locus);
                self.mapping.set(id.mode, id.task, self.layout.pe_at(locus, *gene));
            }
        }
        // Unschedulable or panicking assignments cannot be the optimum;
        // infinity keeps them out of `best` and above every admissible
        // bound.
        let known = |mode, alloc: &_| self.last.known(self.layout, &self.genes, mode, alloc);
        match self.evaluator.try_cost(&self.mapping, self.dvs.as_ref(), known) {
            Ok(cost) => {
                self.last = ParentRecord::new(self.genes.clone(), Some(&cost));
                cost.fitness
            }
            Err(_) => f64::INFINITY,
        }
    }
}

/// Certifies the optimal mapping fitness of `system` under `config` by
/// exact branch-and-bound over the statically pruned assignment space.
///
/// The fitness domain is the same one the GA optimises (coarse-DVS
/// pricing, [`Evaluator::weights`] objective), so a GA best fitness
/// passed as [`ProveOptions::incumbent`] is directly comparable.
///
/// # Errors
///
/// Returns [`SynthesisError::Infeasible`] when the static analyzer
/// proves the specification unsatisfiable (same failure as synthesis).
pub fn prove(
    system: &System,
    config: &SynthesisConfig,
    options: &ProveOptions,
) -> Result<Certificate, SynthesisError> {
    let analysis = analyze_system(system);
    if analysis.has_errors() {
        return Err(SynthesisError::Infeasible(Box::new(analysis)));
    }
    let (layout, domain_reduction) =
        GenomeLayout::from_analysis(system, &analysis, config.prune_domains);
    let search_space: f64 = (0..layout.len()).map(|l| layout.candidates(l).len() as f64).product();

    let evaluator = Evaluator::new(system, config);
    let mut problem = MappingBnb::new(system, config, &layout, &evaluator, options.use_bounds);
    let max_evals = (options.max_evals != u64::MAX).then_some(options.max_evals);
    let cap = max_evals.map(|n| usize::try_from(n).unwrap_or(usize::MAX));
    let budget = Budget::new(None, options.deadline, cap);
    let outcome = branch_and_bound(&mut problem, budget, options.incumbent);

    let explored_best = outcome.best.as_ref().filter(|(_, c)| c.is_finite());
    let best_fitness = match (explored_best.map(|(_, c)| *c), options.incumbent) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let status = if outcome.proven {
        CertificateStatus::Optimal
    } else {
        let epsilon = match best_fitness {
            Some(best) if outcome.lower_bound > 0.0 => {
                ((best - outcome.lower_bound) / outcome.lower_bound).max(0.0)
            }
            _ => f64::INFINITY,
        };
        CertificateStatus::GapBound { epsilon }
    };
    // Re-evaluate the winning leaf into a full Solution so callers can
    // re-prove it with the independent checker.
    let best = explored_best
        .filter(|(_, cost)| options.incumbent.is_none_or(|seed| *cost <= seed))
        .and_then(|(choices, _)| {
            let genes: Vec<Gene> = choices.iter().map(|&c| c as Gene).collect();
            let dvs = config.dvs.as_ref().map(|d| d.eval);
            evaluator.try_evaluate(layout.decode(&genes), dvs.as_ref()).ok()
        });
    Ok(Certificate {
        status,
        lower_bound: outcome.lower_bound,
        best_fitness,
        best,
        explored: outcome.explored,
        pruned_by_bound: outcome.pruned_by_bound,
        domain_reduction,
        search_space,
        max_evals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::units::{Cells, Seconds, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, TaskGraphBuilder,
        TechLibraryBuilder,
    };

    /// Two tasks on {CPU, ASIC} each: 4 assignments, optimum known by
    /// hand (both on the ASIC — cheapest energy, no transfer needed).
    fn small_system() -> System {
        let mut tech = TechLibraryBuilder::new();
        let ta = tech.add_type("A");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(0.1)));
        let hw =
            arch.add_pe(Pe::hardware("hw", PeKind::Asic, Cells::new(600), Watts::from_milli(0.05)));
        arch.add_cl(Cl::bus(
            "bus",
            vec![cpu, hw],
            Seconds::from_micros(1.0),
            Watts::from_milli(1.0),
            Watts::from_milli(0.01),
        ))
        .unwrap();
        tech.set_impl(
            ta,
            cpu,
            Implementation::software(Seconds::from_millis(5.0), Watts::from_milli(30.0)),
        );
        tech.set_impl(
            ta,
            hw,
            Implementation::hardware(
                Seconds::from_millis(0.5),
                Watts::from_milli(1.0),
                Cells::new(200),
            ),
        );
        let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(100.0));
        let x = g.add_task("x", ta);
        let y = g.add_task("y", ta);
        g.add_comm(x, y, 10.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        System::new("small", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    #[test]
    fn small_space_is_certified_optimal() {
        let system = small_system();
        let config = SynthesisConfig::fast_preset(0);
        let cert = prove(&system, &config, &ProveOptions::default()).expect("feasible");
        assert_eq!(cert.status, CertificateStatus::Optimal);
        assert_eq!(cert.epsilon(), 0.0);
        let best = cert.best_fitness.expect("space was searched");
        assert!(cert.lower_bound <= best + 1e-12);
        assert!(cert.explored >= 1);
        assert_eq!(cert.search_space, 4.0);
        // The certified optimum is the exhaustive optimum.
        let exhaustive = prove(
            &system,
            &{
                let mut c = config.clone();
                c.prune_domains = false;
                c
            },
            &ProveOptions { use_bounds: false, ..ProveOptions::default() },
        )
        .unwrap();
        assert_eq!(exhaustive.status, CertificateStatus::Optimal);
        let reference = exhaustive.best_fitness.unwrap();
        assert!((best - reference).abs() <= 1e-9 * reference.max(1.0));
        // The winning leaf comes back as a full, checkable solution.
        let solution = cert.best.expect("unseeded search returns its best");
        assert!((solution.fitness - best).abs() <= 1e-12);
    }

    #[test]
    fn zero_budget_degrades_to_gap_bound_with_incumbent() {
        let system = small_system();
        let config = SynthesisConfig::fast_preset(0);
        // Price the all-software seed as the external incumbent.
        let evaluator = Evaluator::new(&system, &config);
        let layout = GenomeLayout::new(&system);
        let seed = evaluator.evaluate(layout.decode(&vec![0; layout.len()]), None).unwrap().fitness;
        let options =
            ProveOptions { max_evals: 0, incumbent: Some(seed), ..ProveOptions::default() };
        let cert = prove(&system, &config, &options).unwrap();
        match cert.status {
            CertificateStatus::GapBound { epsilon } => {
                assert!(epsilon >= 0.0 && epsilon.is_finite())
            }
            CertificateStatus::Optimal => panic!("zero budget cannot prove"),
        }
        assert_eq!(cert.explored, 0);
        assert!(cert.lower_bound <= seed);
        assert_eq!(cert.best_fitness, Some(seed));
        assert!(cert.best.is_none(), "no leaf was explored");
        let json = cert.to_json();
        assert_eq!(json["status"], serde_json::json!("gap-bound"));
        assert!(json["certified_gap"].as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn infeasible_spec_is_rejected_like_synthesis() {
        // A deadline below any execution time is statically infeasible.
        let mut tech = TechLibraryBuilder::new();
        let ta = tech.add_type("A");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(0.1)));
        tech.set_impl(
            ta,
            cpu,
            Implementation::software(Seconds::from_millis(50.0), Watts::from_milli(30.0)),
        );
        let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(1.0));
        g.add_task("x", ta);
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let system =
            System::new("bad", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap();
        let err = prove(&system, &SynthesisConfig::fast_preset(0), &ProveOptions::default())
            .expect_err("statically infeasible");
        assert!(matches!(err, SynthesisError::Infeasible(_)));
    }

    #[test]
    fn ga_best_lies_inside_its_own_certificate() {
        let system = small_system();
        let config = SynthesisConfig::fast_preset(1);
        let result = crate::synthesis::Synthesizer::new(&system, config.clone()).run().unwrap();
        let options =
            ProveOptions { incumbent: Some(result.best.fitness), ..ProveOptions::default() };
        let cert = prove(&system, &config, &options).unwrap();
        // The refined GA fitness can price *below* coarse leaves, but
        // never below the certified bound.
        assert!(
            result.best.fitness >= cert.lower_bound - 1e-9,
            "GA best {} under certificate bound {}",
            result.best.fitness,
            cert.lower_bound
        );
        assert_eq!(cert.status, CertificateStatus::Optimal);
    }
}
