//! The four improvement mutation operators (Fig. 4, lines 19–22).
//!
//! These problem-specific operators push the GA away from infeasible and
//! low-quality design-space regions:
//!
//! * **Shut-down improvement** — empty a non-essential PE in one mode so
//!   the component can be powered off there (static power);
//! * **Area improvement** — move hardware tasks back to software when
//!   area-infeasible regions dominate;
//! * **Timing improvement** — move software tasks to faster
//!   implementations when deadlines are missed;
//! * **Transition improvement** — move tasks away from FPGAs that cause
//!   transition-time violations.
//!
//! The paper triggers each strategy after observing repeated
//! infeasibility; this implementation applies a uniformly random one of
//! the four to each individual handed to the hook, which keeps the engine
//! generic while exercising the same moves (documented deviation).

use rand::{Rng, RngCore};

use momsynth_model::ids::{ModeId, PeId};
use momsynth_model::System;

use crate::genome::{Gene, GenomeLayout};

/// Which operator to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImprovementOp {
    /// Empty a non-essential PE in one mode.
    Shutdown,
    /// Re-map a hardware task to software.
    Area,
    /// Re-map a software task to its fastest implementation.
    Timing,
    /// Re-map a task away from reconfigurable hardware.
    Transition,
}

impl ImprovementOp {
    /// All four operators.
    pub const ALL: [Self; 4] = [Self::Shutdown, Self::Area, Self::Timing, Self::Transition];

    /// Dense index of the operator in [`ImprovementOp::ALL`]; matches the
    /// per-operator telemetry counters
    /// ([`momsynth_telemetry::OPERATOR_NAMES`]).
    pub fn index(self) -> usize {
        match self {
            Self::Shutdown => 0,
            Self::Area => 1,
            Self::Timing => 2,
            Self::Transition => 3,
        }
    }

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Shutdown => "shutdown",
            Self::Area => "area",
            Self::Timing => "timing",
            Self::Transition => "transition",
        }
    }
}

/// Applies a uniformly random improvement operator to `genes`. Returns
/// the operator drawn and whether it changed the genome, so callers can
/// track per-operator efficacy.
pub fn improve_random(
    system: &System,
    layout: &GenomeLayout,
    genes: &mut [Gene],
    rng: &mut dyn RngCore,
) -> (ImprovementOp, bool) {
    let op = ImprovementOp::ALL[rng.gen_range(0..ImprovementOp::ALL.len())];
    let changed = apply(system, layout, genes, op, rng);
    (op, changed)
}

/// Applies one specific improvement operator to `genes`. Returns `true`
/// if the genome was changed.
pub fn apply(
    system: &System,
    layout: &GenomeLayout,
    genes: &mut [Gene],
    op: ImprovementOp,
    rng: &mut dyn RngCore,
) -> bool {
    match op {
        ImprovementOp::Shutdown => shutdown_improvement(system, layout, genes, rng),
        ImprovementOp::Area => area_improvement(system, layout, genes, rng),
        ImprovementOp::Timing => timing_improvement(system, layout, genes, rng),
        ImprovementOp::Transition => transition_improvement(system, layout, genes, rng),
    }
}

/// Loci of one mode, with their current PEs.
fn mode_loci(layout: &GenomeLayout, genes: &[Gene], mode: ModeId) -> Vec<(usize, PeId)> {
    layout.mode_loci(mode).map(|l| (l, layout.pe_at(l, genes[l]))).collect()
}

fn shutdown_improvement(
    system: &System,
    layout: &GenomeLayout,
    genes: &mut [Gene],
    rng: &mut dyn RngCore,
) -> bool {
    let mode = ModeId::new(rng.gen_range(0..system.omsm().mode_count()));
    let loci = mode_loci(layout, genes, mode);
    // Candidate victims: PEs used in this mode where every task has an
    // alternative implementation elsewhere ("non-essential" PEs).
    let mut used: Vec<PeId> = loci.iter().map(|&(_, pe)| pe).collect();
    used.sort_unstable();
    used.dedup();
    let victims: Vec<PeId> = used
        .into_iter()
        .filter(|&pe| {
            loci.iter().filter(|&&(_, p)| p == pe).all(|&(l, _)| layout.candidates(l).len() >= 2)
        })
        .collect();
    let Some(&victim) = pick(&victims, rng) else { return false };
    let mut changed = false;
    for (l, pe) in loci {
        if pe != victim {
            continue;
        }
        let alternatives: Vec<Gene> = layout
            .candidates(l)
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != victim)
            .map(|(i, _)| i as Gene)
            .collect();
        if let Some(&g) = pick(&alternatives, rng) {
            genes[l] = g;
            changed = true;
        }
    }
    changed
}

fn area_improvement(
    system: &System,
    layout: &GenomeLayout,
    genes: &mut [Gene],
    rng: &mut dyn RngCore,
) -> bool {
    // Loci currently on hardware that have a software alternative.
    let movable: Vec<usize> = (0..layout.len())
        .filter(|&l| {
            system.arch().pe(layout.pe_at(l, genes[l])).kind().is_hardware()
                && layout.candidates(l).iter().any(|&c| system.arch().pe(c).kind().is_software())
        })
        .collect();
    let Some(&locus) = pick(&movable, rng) else { return false };
    let sw: Vec<Gene> = layout
        .candidates(locus)
        .iter()
        .enumerate()
        .filter(|&(_, &c)| system.arch().pe(c).kind().is_software())
        .map(|(i, _)| i as Gene)
        .collect();
    if let Some(&g) = pick(&sw, rng) {
        genes[locus] = g;
        true
    } else {
        false
    }
}

fn timing_improvement(
    system: &System,
    layout: &GenomeLayout,
    genes: &mut [Gene],
    rng: &mut dyn RngCore,
) -> bool {
    // Loci on software whose type has a strictly faster candidate.
    let exec = |locus: usize, pe: PeId| {
        let id = layout.global(locus);
        system
            .tech()
            .impl_of(system.task_type_of(id), pe)
            .expect("candidates are implementable")
            .exec_time()
    };
    let movable: Vec<usize> = (0..layout.len())
        .filter(|&l| {
            let current = layout.pe_at(l, genes[l]);
            system.arch().pe(current).kind().is_software()
                && layout.candidates(l).iter().any(|&c| exec(l, c) < exec(l, current))
        })
        .collect();
    let Some(&locus) = pick(&movable, rng) else { return false };
    // Jump to the fastest implementation.
    let best = layout
        .candidates(locus)
        .iter()
        .enumerate()
        .min_by(|(_, &a), (_, &b)| exec(locus, a).value().total_cmp(&exec(locus, b).value()))
        .map(|(i, _)| i as Gene)
        .expect("candidate list is non-empty");
    genes[locus] = best;
    true
}

fn transition_improvement(
    system: &System,
    layout: &GenomeLayout,
    genes: &mut [Gene],
    rng: &mut dyn RngCore,
) -> bool {
    // Loci on reconfigurable hardware with any non-FPGA alternative.
    let movable: Vec<usize> = (0..layout.len())
        .filter(|&l| {
            system.arch().pe(layout.pe_at(l, genes[l])).kind().is_reconfigurable()
                && layout
                    .candidates(l)
                    .iter()
                    .any(|&c| !system.arch().pe(c).kind().is_reconfigurable())
        })
        .collect();
    let Some(&locus) = pick(&movable, rng) else { return false };
    let alternatives: Vec<Gene> = layout
        .candidates(locus)
        .iter()
        .enumerate()
        .filter(|&(_, &c)| !system.arch().pe(c).kind().is_reconfigurable())
        .map(|(i, _)| i as Gene)
        .collect();
    if let Some(&g) = pick(&alternatives, rng) {
        genes[locus] = g;
        true
    } else {
        false
    }
}

fn pick<'a, T>(items: &'a [T], rng: &mut dyn RngCore) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[rng.gen_range(0..items.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::units::{Cells, Seconds, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, TaskGraphBuilder,
        TechLibraryBuilder,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// CPU + ASIC + FPGA, all connected; type X implementable everywhere
    /// (HW faster), type Y on CPU only. Mode 0 has two X and one Y task.
    fn sys() -> System {
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let ty = tech.add_type("Y");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        let asic = arch.add_pe(Pe::hardware("asic", PeKind::Asic, Cells::new(500), Watts::ZERO));
        let fpga = arch.add_pe(
            Pe::hardware("fpga", PeKind::Fpga, Cells::new(500), Watts::ZERO)
                .with_reconfig_time_per_cell(Seconds::from_micros(10.0)),
        );
        arch.add_cl(Cl::bus(
            "bus",
            vec![cpu, asic, fpga],
            Seconds::from_micros(1.0),
            Watts::ZERO,
            Watts::ZERO,
        ))
        .unwrap();
        tech.set_impl(
            tx,
            cpu,
            Implementation::software(Seconds::from_millis(10.0), Watts::from_milli(10.0)),
        );
        for hw in [asic, fpga] {
            tech.set_impl(
                tx,
                hw,
                Implementation::hardware(
                    Seconds::from_millis(1.0),
                    Watts::from_milli(1.0),
                    Cells::new(100),
                ),
            );
        }
        tech.set_impl(
            ty,
            cpu,
            Implementation::software(Seconds::from_millis(5.0), Watts::from_milli(5.0)),
        );
        let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(100.0));
        g.add_task("x0", tx);
        g.add_task("x1", tx);
        g.add_task("y", ty);
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        System::new("s", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    #[test]
    fn area_improvement_moves_hw_task_to_software() {
        let system = sys();
        let layout = GenomeLayout::new(&system);
        let mut rng = StdRng::seed_from_u64(0);
        // Start with both X tasks on the ASIC (candidate index 1).
        let mut genes = vec![1, 1, 0];
        assert!(apply(&system, &layout, &mut genes, ImprovementOp::Area, &mut rng));
        let moved = (0..2)
            .filter(|&l| system.arch().pe(layout.pe_at(l, genes[l])).kind().is_software())
            .count();
        assert_eq!(moved, 1);
    }

    #[test]
    fn area_improvement_noop_without_hw_tasks() {
        let system = sys();
        let layout = GenomeLayout::new(&system);
        let mut rng = StdRng::seed_from_u64(0);
        let mut genes = vec![0, 0, 0];
        assert!(!apply(&system, &layout, &mut genes, ImprovementOp::Area, &mut rng));
        assert_eq!(genes, vec![0, 0, 0]);
    }

    #[test]
    fn timing_improvement_moves_to_fastest() {
        let system = sys();
        let layout = GenomeLayout::new(&system);
        let mut rng = StdRng::seed_from_u64(1);
        let mut genes = vec![0, 0, 0]; // everything on CPU
        assert!(apply(&system, &layout, &mut genes, ImprovementOp::Timing, &mut rng));
        // One X task must now sit on hardware (the fastest candidate).
        let on_hw = (0..2)
            .filter(|&l| system.arch().pe(layout.pe_at(l, genes[l])).kind().is_hardware())
            .count();
        assert_eq!(on_hw, 1);
        // Task y (type Y) has a single candidate and can never move.
        assert_eq!(genes[2], 0);
    }

    #[test]
    fn transition_improvement_evacuates_fpga() {
        let system = sys();
        let layout = GenomeLayout::new(&system);
        let mut rng = StdRng::seed_from_u64(2);
        let mut genes = vec![2, 2, 0]; // both X tasks on the FPGA
        assert!(apply(&system, &layout, &mut genes, ImprovementOp::Transition, &mut rng));
        let on_fpga = (0..2)
            .filter(|&l| system.arch().pe(layout.pe_at(l, genes[l])).kind().is_reconfigurable())
            .count();
        assert_eq!(on_fpga, 1);
    }

    #[test]
    fn shutdown_improvement_can_empty_a_pe() {
        let system = sys();
        let layout = GenomeLayout::new(&system);
        // Mix: x0 on ASIC, x1 on CPU, y on CPU. CPU is essential for y (one
        // candidate) so the ASIC is the only victim; after the move the
        // ASIC must be empty.
        let mut emptied = false;
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut genes = vec![1, 0, 0];
            if apply(&system, &layout, &mut genes, ImprovementOp::Shutdown, &mut rng) {
                let on_asic = (0..3).filter(|&l| layout.pe_at(l, genes[l]) == PeId::new(1)).count();
                assert_eq!(on_asic, 0);
                emptied = true;
            }
        }
        assert!(emptied, "shutdown improvement never fired over 20 seeds");
    }

    #[test]
    fn random_improvement_keeps_genome_decodable() {
        let system = sys();
        let layout = GenomeLayout::new(&system);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let mut genes = vec![rng.gen_range(0..3) as Gene, rng.gen_range(0..3) as Gene, 0];
            improve_random(&system, &layout, &mut genes, &mut rng);
            let mapping = layout.decode(&genes);
            assert!(mapping.validate(&system).is_ok());
        }
    }
}
