//! Candidates priced against the per-mode terms of genomes priced before.
//!
//! Eq. 1 sums per-mode terms, and a mode's term and lateness depend only
//! on its mapping row, its core-allocation row and the DVS options. A
//! child of crossover and mutation inherits most of its modes unchanged
//! from a parent, a polish move changes one gene of the current genome,
//! and consecutive branch-and-bound leaves share every mode but the
//! deepest loci's. A [`ParentRecord`] holds one priced genome's per-mode
//! terms, and [`ParentRecord::known`] is the one reuse rule: a
//! candidate's mode takes the record's term when its gene slice and core
//! counts equal the record's, and
//! [`Evaluator::try_cost`](crate::Evaluator::try_cost) then skips
//! scheduling, voltage-scaling and pricing it again. The GA asks a
//! [`ParentTable`] of the records of the population its offspring were
//! bred from, each kept with its individual, which indexes them per mode
//! by the mode's gene slice; the polish asks the record of its current
//! genome and `prove` the record of its last leaf that priced. The
//! allocation, area, transitions and every penalty are still computed
//! over all modes, so a record changes how a fitness is computed, never
//! its value.
//!
//! A record keeps the genome, the hash of each mode's gene slice and two
//! scalars per mode, plus a mode's core counts when replication raised
//! one above 1: never a schedule, a voltage schedule or a power
//! breakdown.

use std::borrow::Cow;

use momsynth_model::ids::ModeId;
use momsynth_sched::CoreAllocation;

use crate::fitness::{Cost, ModeCost};
use crate::genome::{genome_hash, Gene, GenomeLayout};

/// What a child may take of one parent's mode.
#[derive(Debug, Clone, PartialEq)]
struct ModeRecord {
    cost: ModeCost,
    /// The mode's core counts in allocation order, kept only when one of
    /// them is not 1.
    counts: Option<Box<[usize]>>,
}

impl ModeRecord {
    fn new(cost: ModeCost, alloc: &CoreAllocation, mode: ModeId) -> Self {
        let replicated = alloc.mode_cores(mode).any(|(_, n)| n != 1);
        let counts = replicated.then(|| alloc.mode_cores(mode).map(|(_, n)| n).collect());
        Self { cost, counts }
    }

    /// `true` when `alloc` gives `mode` the core counts this record was
    /// priced under. It is asked only of equal gene slices, which map
    /// the mode's tasks alike and so list the same cores.
    fn counts_match(&self, alloc: &CoreAllocation, mode: ModeId) -> bool {
        let mut counts = alloc.mode_cores(mode).map(|(_, n)| n);
        match &self.counts {
            Some(kept) => counts.eq(kept.iter().copied()),
            None => counts.all(|n| n == 1),
        }
    }
}

/// One priced genome's per-mode terms: all a candidate priced against it
/// needs of it.
#[derive(Debug, Clone, PartialEq)]
pub struct ParentRecord {
    genome: Vec<Gene>,
    /// Each mode's gene-slice hash, hashed where the record was priced
    /// for the GA; empty otherwise, and every [`ParentTable`] the record
    /// joins hashes its genome.
    slices: Vec<u64>,
    /// One per mode; empty when the genome's pricing failed.
    modes: Vec<ModeRecord>,
}

impl ParentRecord {
    /// The record of `genome`, which priced to `cost`. `None` (its
    /// pricing failed) leaves the record empty: no child reuses it.
    pub fn new(genome: Vec<Gene>, cost: Option<&Cost>) -> Self {
        let modes = cost.map_or_else(Vec::new, |cost| {
            let modes = cost.modes.iter().enumerate();
            modes.map(|(m, &term)| ModeRecord::new(term, &cost.alloc, ModeId::new(m))).collect()
        });
        Self { genome, slices: Vec::new(), modes }
    }

    /// This record with its genome's gene-slice hashes,
    /// [`GenomeLayout::slice_hashes`], already computed, so that no
    /// [`ParentTable`] it joins hashes them again. Hashes of another
    /// genome can only hide the record's terms from a table's lookups,
    /// never give a wrong term: [`ParentRecord::known`] compares genes.
    pub fn with_slices(self, slices: Vec<u64>) -> Self {
        Self { slices, ..self }
    }

    /// The term of `genome`'s `mode` when its allocation is `alloc`, if
    /// this record's gene slice of the mode and core counts in it are the
    /// same; `None` otherwise, and always for an empty record. Both
    /// genomes are of `layout`.
    pub fn known(
        &self,
        layout: &GenomeLayout,
        genome: &[Gene],
        mode: ModeId,
        alloc: &CoreAllocation,
    ) -> Option<ModeCost> {
        let record = self.modes.get(mode.index())?;
        let loci = layout.mode_loci(mode);
        let same = self.genome[loci.clone()] == genome[loci] && record.counts_match(alloc, mode);
        same.then_some(record.cost)
    }
}

/// The records of a GA population, borrowed and indexed per mode by the
/// mode's gene slice.
#[derive(Debug)]
pub struct ParentTable<'a> {
    layout: &'a GenomeLayout,
    records: Vec<&'a ParentRecord>,
    /// Every mode's `(gene-slice hash, record)` pairs, sorted: mode `m`'s
    /// are `index[starts[m]..starts[m + 1]]`. Records of one hash are in
    /// record order, so the first record that knows a term gives it.
    index: Vec<(u64, usize)>,
    starts: Vec<usize>,
}

impl<'a> ParentTable<'a> {
    /// Indexes `records`, priced for genomes of `layout`; a genome may
    /// come more than once. A record whose pricing failed is kept but not
    /// indexed, whatever its genome, and a priced one without gene-slice
    /// hashes ([`ParentRecord::with_slices`]) is hashed here.
    pub fn new(
        layout: &'a GenomeLayout,
        records: impl IntoIterator<Item = &'a ParentRecord>,
    ) -> Self {
        let records: Vec<&ParentRecord> = records.into_iter().collect();
        // Only a priced record is indexed, so only its slices are read.
        let slices: Vec<Cow<'_, [u64]>> = records
            .iter()
            .map(|r| {
                if r.slices.is_empty() && !r.modes.is_empty() {
                    Cow::Owned(layout.slice_hashes(&r.genome))
                } else {
                    Cow::Borrowed(r.slices.as_slice())
                }
            })
            .collect();
        let modes = records.iter().map(|r| r.modes.len()).max().unwrap_or(0);
        let mut index = Vec::with_capacity(modes * records.len());
        let mut starts = Vec::with_capacity(modes + 1);
        starts.push(0);
        for m in 0..modes {
            let priced = records.iter().zip(&slices).enumerate();
            let priced = priced.filter(|(_, (record, _))| m < record.modes.len());
            index.extend(priced.map(|(r, (_, slices))| (slices[m], r)));
            index[starts[m]..].sort_unstable();
            starts.push(index.len());
        }
        Self { layout, records, index, starts }
    }

    /// The term of `genome`'s `mode` when its allocation is `alloc`,
    /// taken from the first parent with the mode's gene-slice hash whose
    /// [`ParentRecord::known`] has it; `None` when no parent does.
    pub fn known(&self, genome: &[Gene], mode: ModeId, alloc: &CoreAllocation) -> Option<ModeCost> {
        let hash = genome_hash(0, &genome[self.layout.mode_loci(mode)]);
        self.known_hashed(hash, genome, mode, alloc)
    }

    /// [`ParentTable::known`] for a genome whose `mode` has gene-slice
    /// hash `hash`.
    pub(crate) fn known_hashed(
        &self,
        hash: u64,
        genome: &[Gene],
        mode: ModeId,
        alloc: &CoreAllocation,
    ) -> Option<ModeCost> {
        let m = mode.index();
        let entries = &self.index[*self.starts.get(m)?..*self.starts.get(m + 1)?];
        let first = entries.partition_point(|&(h, _)| h < hash);
        let mut same = entries[first..].iter().take_while(|&&(h, _)| h == hash);
        same.find_map(|&(_, r)| self.records[r].known(self.layout, genome, mode, alloc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::ids::{PeId, TaskTypeId};
    use momsynth_model::units::{Cells, Seconds, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, System, TaskGraphBuilder,
        TechLibraryBuilder,
    };

    use crate::fitness::Violations;

    /// Two modes of two tasks each, every task on a CPU or an ASIC.
    fn system() -> System {
        let mut tech = TechLibraryBuilder::new();
        let ty = tech.add_type("T");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        let asic = arch.add_pe(Pe::hardware("asic", PeKind::Asic, Cells::new(100), Watts::ZERO));
        let bus =
            Cl::bus("bus", vec![cpu, asic], Seconds::from_micros(1.0), Watts::ZERO, Watts::ZERO);
        arch.add_cl(bus).unwrap();
        tech.set_impl(ty, cpu, Implementation::software(Seconds::new(0.01), Watts::ZERO));
        let hw = Implementation::hardware(Seconds::new(0.001), Watts::ZERO, Cells::new(10));
        tech.set_impl(ty, asic, hw);
        let mut omsm = OmsmBuilder::new();
        for name in ["m0", "m1"] {
            let mut g = TaskGraphBuilder::new(name, Seconds::new(1.0));
            g.add_task("a", ty);
            g.add_task("b", ty);
            omsm.add_mode(name, 0.5, g.build().unwrap());
        }
        System::new("s", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    fn cost(alloc: CoreAllocation, totals: [f64; 2]) -> Cost {
        let modes = totals
            .iter()
            .map(|&t| ModeCost { total: Watts::new(t), lateness: Seconds::ZERO })
            .collect();
        Cost { fitness: 1.0, violations: Violations::default(), alloc, modes, reused: 0 }
    }

    #[test]
    fn a_mode_is_known_by_its_gene_slice_and_core_counts() {
        let system = system();
        let layout = GenomeLayout::new(&system);
        let parent = vec![1, 1, 0, 0];
        let alloc = CoreAllocation::minimal(&system, &layout.decode(&parent));
        let record = ParentRecord::new(parent, Some(&cost(alloc.clone(), [2.0, 3.0])));
        let table = ParentTable::new(&layout, [&record]);
        let (m0, m1) = (ModeId::new(0), ModeId::new(1));

        // Mode 1 moved, mode 0 did not.
        let child = [1, 1, 0, 1];
        assert_eq!(table.known(&child, m0, &alloc).map(|c| c.total), Some(Watts::new(2.0)));
        assert_eq!(table.known(&child, m1, &alloc), None);

        // Mode 0's genes under two T cores instead of one: only a parent
        // priced under two cores knows that term.
        let mut replicated = alloc.clone();
        replicated.set_instances(m0, PeId::new(1), TaskTypeId::new(0), 2);
        assert_eq!(table.known(&child, m0, &replicated), None);
        let twin = ParentRecord::new(vec![1, 1, 1, 1], Some(&cost(replicated.clone(), [5.0, 3.0])));
        let table = ParentTable::new(&layout, [&record, &twin]);
        assert_eq!(table.known(&child, m0, &replicated).map(|c| c.total), Some(Watts::new(5.0)));
        assert_eq!(table.known(&child, m0, &alloc).map(|c| c.total), Some(Watts::new(2.0)));
    }

    #[test]
    fn a_failed_parent_offers_nothing() {
        let system = system();
        let layout = GenomeLayout::new(&system);
        let parent = vec![0, 0, 0, 0];
        let alloc = CoreAllocation::minimal(&system, &layout.decode(&parent));
        let record = ParentRecord::new(parent.clone(), None);
        let table = ParentTable::new(&layout, [&record]);
        assert_eq!(table.known(&parent, ModeId::new(0), &alloc), None);
    }

    #[test]
    fn a_failed_record_of_any_genome_joins_a_table_unindexed() {
        let system = system();
        let layout = GenomeLayout::new(&system);
        let parent = vec![1, 0, 1, 0];
        let alloc = CoreAllocation::minimal(&system, &layout.decode(&parent));
        let priced = ParentRecord::new(parent.clone(), Some(&cost(alloc.clone(), [2.0, 3.0])));
        let empty = ParentRecord::new(Vec::new(), None);
        let table = ParentTable::new(&layout, [&empty, &priced]);
        assert_eq!(
            table.known(&parent, ModeId::new(1), &alloc).map(|c| c.total),
            Some(Watts::new(3.0))
        );
    }
}
