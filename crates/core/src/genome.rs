//! The multi-mode mapping string and its genome encoding.
//!
//! Every task of every mode is one locus; the allele is an index into the
//! task's *candidate list* — the PEs that implement its type according to
//! the technology library. Encoding candidates (rather than raw PE ids)
//! guarantees that crossover and mutation always produce mappings where
//! every task lands on a capable PE, so the GA never wastes evaluations on
//! trivially broken individuals.

use std::ops::Range;

use momsynth_analyze::{Analysis, DomainReduction};
use momsynth_model::ids::{GlobalTaskId, ModeId, PeId, TaskId};
use momsynth_model::System;
use momsynth_sched::SystemMapping;

/// The gene type: an index into the locus's candidate PE list.
pub type Gene = u16;

/// FNV-1a over `seed` and the genes, finished with a SplitMix mix so
/// low-entropy genomes still spread over all 64 bits. Keys the
/// fault-injection pattern, which seeded chaos runs replay, so the
/// output must never change.
pub(crate) fn genome_hash(seed: u64, genes: &[Gene]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &gene in genes {
        hash = (hash ^ u64::from(gene)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut z = hash.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Static description of the genome: one locus per `(mode, task)` with its
/// candidate PEs.
#[derive(Debug, Clone)]
pub struct GenomeLayout {
    /// The task of every locus.
    ids: Vec<GlobalTaskId>,
    /// Every locus's candidate list back to back: locus `l`'s is
    /// `candidates[candidate_starts[l]..candidate_starts[l + 1]]`.
    candidates: Vec<PeId>,
    candidate_starts: Vec<usize>,
    /// The first locus of every mode, then the locus count: loci run in
    /// mode order, so these are also a decoded mapping's row starts.
    starts: Vec<usize>,
}

impl GenomeLayout {
    /// Builds the layout for `system`.
    ///
    /// # Panics
    ///
    /// Panics if a task type has no implementation (rejected by
    /// [`System::new`], so unreachable for valid systems) or if a candidate
    /// list exceeds [`Gene`] range.
    pub fn new(system: &System) -> Self {
        Self::build(system, |_, id| system.candidate_pes(id))
    }

    /// Builds the layout for `system` with externally supplied per-locus
    /// candidate domains — typically the statically pruned capable-PE
    /// sets of `momsynth-analyze`, in the same `(mode, task)` locus
    /// order. Mutation and crossover then never generate a gene outside
    /// its proven domain.
    ///
    /// # Panics
    ///
    /// Panics if `domains` has the wrong length, contains an empty
    /// domain, lists a PE that is not a library candidate for its task,
    /// or exceeds [`Gene`] range.
    pub fn with_domains(system: &System, domains: &[Vec<PeId>]) -> Self {
        assert_eq!(
            domains.len(),
            system.omsm().total_task_count(),
            "domain count must match the total task count"
        );
        Self::build(system, |locus, id| {
            let domain = domains[locus].clone();
            debug_assert!(
                {
                    let full = system.candidate_pes(id);
                    domain.iter().all(|pe| full.contains(pe))
                },
                "domain of task {id} lists a PE outside its candidate list"
            );
            domain
        })
    }

    /// The layout a synthesis or a proof of `system` searches and what
    /// it leaves out of the library's domain: `analysis`'s capable-PE
    /// domains when `prune` is set, otherwise every library candidate.
    pub(crate) fn from_analysis(
        system: &System,
        analysis: &Analysis,
        prune: bool,
    ) -> (Self, DomainReduction) {
        let reduction = analysis.domain_reduction();
        if prune {
            return (Self::with_domains(system, analysis.capable_pes()), reduction);
        }
        (
            Self::new(system),
            DomainReduction { pruned_by_deadline: 0, pruned_by_dominance: 0, ..reduction },
        )
    }

    fn build(
        system: &System,
        mut candidates_of: impl FnMut(usize, GlobalTaskId) -> Vec<PeId>,
    ) -> Self {
        let loci = system.omsm().total_task_count();
        let mut ids = Vec::with_capacity(loci);
        let mut candidates = Vec::new();
        let mut candidate_starts = Vec::with_capacity(loci + 1);
        candidate_starts.push(0);
        let mut starts = Vec::with_capacity(system.omsm().mode_count() + 1);
        for (mode, m) in system.omsm().modes() {
            starts.push(ids.len());
            for task in m.graph().task_ids() {
                let id = GlobalTaskId::new(mode, task);
                let domain = candidates_of(ids.len(), id);
                assert!(!domain.is_empty(), "task {id} has no candidate PEs");
                assert!(domain.len() <= Gene::MAX as usize, "too many candidate PEs for gene type");
                ids.push(id);
                candidates.extend(domain);
                candidate_starts.push(candidates.len());
            }
        }
        starts.push(ids.len());
        Self { ids, candidates, candidate_starts, starts }
    }

    /// Number of loci (total tasks across all modes).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the system has no tasks (impossible for validated
    /// systems, provided for completeness).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The candidate PEs of a locus.
    ///
    /// # Panics
    ///
    /// Panics if `locus` is out of range.
    pub fn candidates(&self, locus: usize) -> &[PeId] {
        &self.candidates[self.candidate_starts[locus]..self.candidate_starts[locus + 1]]
    }

    /// The task a locus encodes.
    ///
    /// # Panics
    ///
    /// Panics if `locus` is out of range.
    pub fn global(&self, locus: usize) -> GlobalTaskId {
        self.ids[locus]
    }

    /// The loci of a mode's tasks, in task order: a genome's slice of
    /// them is the mode's gene slice.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    pub fn mode_loci(&self, mode: ModeId) -> Range<usize> {
        self.starts[mode.index()]..self.starts[mode.index() + 1]
    }

    /// The hash of each mode's gene slice of `genes`, in mode order: what
    /// [`ParentTable`](crate::ParentTable) indexes a record's modes by,
    /// and what [`ParentRecord::with_slices`](crate::ParentRecord::with_slices)
    /// keeps.
    pub fn slice_hashes(&self, genes: &[Gene]) -> Vec<u64> {
        self.starts.windows(2).map(|loci| genome_hash(0, &genes[loci[0]..loci[1]])).collect()
    }

    /// The locus of a task.
    ///
    /// # Panics
    ///
    /// Panics if the identifiers are out of range.
    pub fn locus(&self, mode: ModeId, task: TaskId) -> usize {
        self.starts[mode.index()] + task.index()
    }

    /// Decodes a genome into a [`SystemMapping`]. In release builds
    /// out-of-range alleles are clamped to the last candidate (cannot
    /// occur for genes produced by the engine, but keeps decoding total);
    /// debug builds assert instead, catching mapping-string corruption at
    /// the source rather than as a constructive-loop penalty.
    ///
    /// # Panics
    ///
    /// Panics if `genes.len()` differs from [`GenomeLayout::len`], and in
    /// debug builds if an allele is outside its locus's candidate domain.
    pub fn decode(&self, genes: &[Gene]) -> SystemMapping {
        assert_eq!(genes.len(), self.len(), "genome length mismatch");
        let pes = (0..genes.len()).map(|locus| self.pe_at(locus, genes[locus])).collect();
        SystemMapping::from_rows(pes, self.starts.clone())
    }

    /// `mapping` with `locus` moved to the PE `gene` encodes: the other
    /// loci's PEs are copied, not decoded. Prices a one-gene move.
    ///
    /// # Panics
    ///
    /// As [`GenomeLayout::pe_at`], and if `mapping` lacks the locus's
    /// task.
    pub fn with_gene(&self, mapping: &SystemMapping, locus: usize, gene: Gene) -> SystemMapping {
        let mut moved = mapping.clone();
        let id = self.global(locus);
        moved.set(id.mode, id.task, self.pe_at(locus, gene));
        moved
    }

    /// Encodes a mapping back into a genome.
    ///
    /// # Panics
    ///
    /// Panics if the mapping assigns a task to a PE outside its candidate
    /// list or has the wrong shape.
    pub fn encode(&self, mapping: &SystemMapping) -> Vec<Gene> {
        (0..self.len())
            .map(|locus| {
                let id = self.ids[locus];
                let pe = mapping.pe_of_global(id);
                let idx = self
                    .candidates(locus)
                    .iter()
                    .position(|&c| c == pe)
                    .unwrap_or_else(|| panic!("{pe} is not a candidate for task {id}"));
                idx as Gene
            })
            .collect()
    }

    /// Looks up the PE a gene encodes at a locus (with the same clamping
    /// — and debug-build domain assertion — as [`GenomeLayout::decode`]).
    ///
    /// # Panics
    ///
    /// Panics if `locus` is out of range, and in debug builds if `gene`
    /// is outside the locus's candidate domain.
    pub fn pe_at(&self, locus: usize, gene: Gene) -> PeId {
        let candidates = self.candidates(locus);
        debug_assert!(
            (gene as usize) < candidates.len(),
            "gene {gene} at locus {locus} is outside the candidate domain (len {})",
            candidates.len()
        );
        candidates[(gene as usize).min(candidates.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::units::{Cells, Seconds, Watts};

    #[test]
    fn genome_hash_is_pinned() {
        // Replayed fault patterns depend on these.
        assert_eq!(genome_hash(0, &[]), 0xc381_7c01_6ba4_ff30);
        assert_eq!(genome_hash(0, &[1, 2, 3]), 0x8766_8959_ade0_90f8);
        assert_eq!(genome_hash(11, &[4, 0, 65535]), 0xe8be_29ea_34cc_910b);
    }
    use momsynth_model::{
        ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, TaskGraphBuilder,
        TechLibraryBuilder,
    };

    /// Two modes; type A on {PE0, PE1}, type B on {PE0} only.
    fn sys() -> System {
        let mut tech = TechLibraryBuilder::new();
        let ta = tech.add_type("A");
        let tb = tech.add_type("B");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        let hw = arch.add_pe(Pe::hardware("hw", PeKind::Asic, Cells::new(100), Watts::ZERO));
        arch.add_cl(Cl::bus(
            "bus",
            vec![cpu, hw],
            Seconds::from_micros(1.0),
            Watts::ZERO,
            Watts::ZERO,
        ))
        .unwrap();
        tech.set_impl(ta, cpu, Implementation::software(Seconds::new(0.01), Watts::ZERO));
        tech.set_impl(
            ta,
            hw,
            Implementation::hardware(Seconds::new(0.001), Watts::ZERO, Cells::new(10)),
        );
        tech.set_impl(tb, cpu, Implementation::software(Seconds::new(0.01), Watts::ZERO));
        let mut g0 = TaskGraphBuilder::new("m0", Seconds::new(1.0));
        g0.add_task("a", ta);
        g0.add_task("b", tb);
        let mut g1 = TaskGraphBuilder::new("m1", Seconds::new(1.0));
        g1.add_task("c", ta);
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m0", 0.5, g0.build().unwrap());
        omsm.add_mode("m1", 0.5, g1.build().unwrap());
        System::new("s", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    #[test]
    fn layout_covers_all_tasks_in_order() {
        let system = sys();
        let layout = GenomeLayout::new(&system);
        assert_eq!(layout.len(), 3);
        assert!(!layout.is_empty());
        assert_eq!(layout.global(0), GlobalTaskId::new(ModeId::new(0), TaskId::new(0)));
        assert_eq!(layout.global(2), GlobalTaskId::new(ModeId::new(1), TaskId::new(0)));
        assert_eq!(layout.locus(ModeId::new(1), TaskId::new(0)), 2);
        assert_eq!(layout.mode_loci(ModeId::new(0)), 0..2);
        assert_eq!(layout.mode_loci(ModeId::new(1)), 2..3);
        assert_eq!(layout.candidates(0), &[PeId::new(0), PeId::new(1)]);
        assert_eq!(layout.candidates(1), &[PeId::new(0)]);
    }

    #[test]
    fn decode_produces_candidate_respecting_mapping() {
        let system = sys();
        let layout = GenomeLayout::new(&system);
        let mapping = layout.decode(&[1, 0, 0]);
        assert_eq!(mapping.pe_of(ModeId::new(0), TaskId::new(0)), PeId::new(1));
        assert_eq!(mapping.pe_of(ModeId::new(0), TaskId::new(1)), PeId::new(0));
        assert_eq!(mapping.pe_of(ModeId::new(1), TaskId::new(0)), PeId::new(0));
        assert!(mapping.validate(&system).is_ok());
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn out_of_range_gene_is_clamped_in_release() {
        let system = sys();
        let layout = GenomeLayout::new(&system);
        let mapping = layout.decode(&[9, 9, 9]);
        assert!(mapping.validate(&system).is_ok());
        assert_eq!(mapping.pe_of(ModeId::new(0), TaskId::new(1)), PeId::new(0));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside the candidate domain")]
    fn out_of_range_gene_asserts_in_debug() {
        let system = sys();
        let layout = GenomeLayout::new(&system);
        let _ = layout.decode(&[9, 9, 9]);
    }

    #[test]
    fn with_domains_restricts_candidates() {
        let system = sys();
        let domains = vec![vec![PeId::new(1)], vec![PeId::new(0)], vec![PeId::new(0)]];
        let layout = GenomeLayout::with_domains(&system, &domains);
        assert_eq!(layout.candidates(0), &[PeId::new(1)]);
        let mapping = layout.decode(&[0, 0, 0]);
        assert_eq!(mapping.pe_of(ModeId::new(0), TaskId::new(0)), PeId::new(1));
        assert!(mapping.validate(&system).is_ok());
    }

    #[test]
    #[should_panic(expected = "domain count")]
    fn with_domains_rejects_wrong_length() {
        let system = sys();
        let _ = GenomeLayout::with_domains(&system, &[vec![PeId::new(0)]]);
    }

    #[test]
    #[should_panic(expected = "no candidate PEs")]
    fn with_domains_rejects_empty_domain() {
        let system = sys();
        let domains = vec![vec![], vec![PeId::new(0)], vec![PeId::new(0)]];
        let _ = GenomeLayout::with_domains(&system, &domains);
    }

    #[test]
    fn encode_round_trips_decode() {
        let system = sys();
        let layout = GenomeLayout::new(&system);
        for genes in [[0, 0, 0], [1, 0, 1], [1, 0, 0]] {
            let mapping = layout.decode(&genes);
            assert_eq!(layout.encode(&mapping), genes.to_vec());
        }
    }

    #[test]
    fn pe_at_matches_decode() {
        let system = sys();
        let layout = GenomeLayout::new(&system);
        assert_eq!(layout.pe_at(0, 1), PeId::new(1));
        assert_eq!(layout.pe_at(1, 0), PeId::new(0));
    }

    #[test]
    #[should_panic(expected = "genome length mismatch")]
    fn decode_rejects_wrong_length() {
        let system = sys();
        let layout = GenomeLayout::new(&system);
        let _ = layout.decode(&[0, 0]);
    }

    #[test]
    #[should_panic(expected = "not a candidate")]
    fn encode_rejects_foreign_pe() {
        let system = sys();
        let layout = GenomeLayout::new(&system);
        let mapping = momsynth_sched::SystemMapping::from_vecs(vec![
            vec![PeId::new(0), PeId::new(1)], // b on PE1 is not a candidate
            vec![PeId::new(0)],
        ]);
        let _ = layout.encode(&mapping);
    }
}
