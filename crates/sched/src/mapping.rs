//! Task mappings and hardware core allocations.
//!
//! A [`SystemMapping`] is the paper's *multi-mode mapping string*: for every
//! mode and every task, the PE it executes on (`Mτ^O`). A
//! [`CoreAllocation`] records, per mode and hardware PE, how many core
//! instances of each task type are available; tasks of a type contend for
//! the allocated instances and sequentialise when none is free.
//!
//! # Examples
//!
//! ```
//! use momsynth_sched::SystemMapping;
//! use momsynth_model::ids::{ModeId, PeId, TaskId};
//!
//! let mapping = SystemMapping::from_vecs(vec![
//!     vec![PeId::new(0), PeId::new(1)], // mode 0: t0 -> PE0, t1 -> PE1
//!     vec![PeId::new(0)],               // mode 1: t0 -> PE0
//! ]);
//! assert_eq!(mapping.pe_of(ModeId::new(0), TaskId::new(1)), PeId::new(1));
//! ```

use serde::{Deserialize, Serialize};

use momsynth_model::ids::{GlobalTaskId, ModeId, PeId, TaskId, TaskTypeId};
use momsynth_model::units::Cells;
use momsynth_model::{System, TaskGraph};

use crate::error::SchedError;
use crate::mobility::TimingAnalysis;

/// Task mapping for every mode of a system (`Mτ^O` for all `O ∈ Ω`).
///
/// Every mode's row is stored back to back in one buffer, so copying a
/// mapping to move one task is one buffer copy. A mapping serialises as
/// `{"pes": [[…], …]}`, one array per mode.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SystemMapping {
    /// Every mode's row, mode 0 first: `pes[starts[m] + t]` is the PE
    /// executing task `t` of mode `m`.
    pes: Vec<PeId>,
    /// `pes[starts[m]..starts[m + 1]]` is mode `m`'s row.
    starts: Vec<usize>,
}

/// The serialised shape of a [`SystemMapping`]: one PE row per mode.
#[derive(Serialize, Deserialize)]
struct MappingRows {
    pes: Vec<Vec<PeId>>,
}

impl Serialize for SystemMapping {
    fn to_value(&self) -> serde::Value {
        let pes = (0..self.mode_count()).map(|m| self.row(ModeId::new(m)).to_vec()).collect();
        MappingRows { pes }.to_value()
    }
}

impl<'de> Deserialize<'de> for SystemMapping {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let MappingRows { pes } = Deserialize::from_value(value)?;
        Ok(Self::from_vecs(pes))
    }
}

impl SystemMapping {
    /// Creates a mapping from per-mode PE vectors.
    pub fn from_vecs(rows: Vec<Vec<PeId>>) -> Self {
        let mut starts = Vec::with_capacity(rows.len() + 1);
        starts.push(0);
        let mut pes = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        for row in rows {
            pes.extend(row);
            starts.push(pes.len());
        }
        Self { pes, starts }
    }

    /// Creates a mapping from every mode's row back to back, mode `m`'s
    /// row being `pes[starts[m]..starts[m + 1]]`.
    ///
    /// # Panics
    ///
    /// Panics unless `starts` begins at 0, never decreases and ends at
    /// `pes.len()`.
    pub fn from_rows(pes: Vec<PeId>, starts: Vec<usize>) -> Self {
        assert!(
            starts.first() == Some(&0)
                && starts.windows(2).all(|w| w[0] <= w[1])
                && starts.last() == Some(&pes.len()),
            "row starts must run from 0 to the PE count without decreasing"
        );
        Self { pes, starts }
    }

    /// Creates a mapping by evaluating `f` for every task of every mode.
    pub fn from_fn<F>(system: &System, mut f: F) -> Self
    where
        F: FnMut(GlobalTaskId) -> PeId,
    {
        let mut pes = Vec::with_capacity(system.omsm().total_task_count());
        let mut starts = Vec::with_capacity(system.omsm().mode_count() + 1);
        starts.push(0);
        for (mode, m) in system.omsm().modes() {
            pes.extend(m.graph().task_ids().map(|t| f(GlobalTaskId::new(mode, t))));
            starts.push(pes.len());
        }
        Self { pes, starts }
    }

    /// Returns the number of modes covered by this mapping.
    pub fn mode_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Returns the number of tasks mapped in `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    pub fn task_count(&self, mode: ModeId) -> usize {
        self.row(mode).len()
    }

    /// Returns the PE executing `task` of `mode`.
    ///
    /// # Panics
    ///
    /// Panics if the identifiers are out of range.
    pub fn pe_of(&self, mode: ModeId, task: TaskId) -> PeId {
        self.row(mode)[task.index()]
    }

    /// Returns the PE executing a globally addressed task.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is out of range.
    pub fn pe_of_global(&self, id: GlobalTaskId) -> PeId {
        self.pe_of(id.mode, id.task)
    }

    /// Returns the PEs of `mode`'s tasks, indexed by task id: the row of
    /// the mapping string that everything mode-local depends on.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    pub fn row(&self, mode: ModeId) -> &[PeId] {
        &self.pes[self.starts[mode.index()]..self.starts[mode.index() + 1]]
    }

    /// Re-maps `task` of `mode` onto `pe`.
    ///
    /// # Panics
    ///
    /// Panics if the identifiers are out of range.
    pub fn set(&mut self, mode: ModeId, task: TaskId, pe: PeId) {
        let (start, end) = (self.starts[mode.index()], self.starts[mode.index() + 1]);
        self.pes[start..end][task.index()] = pe;
    }

    /// Iterates over the tasks of `mode` with their mapped PEs.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    pub fn mode_assignments(&self, mode: ModeId) -> impl Iterator<Item = (TaskId, PeId)> + '_ {
        self.row(mode).iter().enumerate().map(|(i, &pe)| (TaskId::new(i), pe))
    }

    /// Checks that the mapping matches the system's shape and that every
    /// task lands on a PE implementing its type.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::ShapeMismatch`] or
    /// [`SchedError::UnsupportedMapping`].
    pub fn validate(&self, system: &System) -> Result<(), SchedError> {
        if self.mode_count() != system.omsm().mode_count() {
            return Err(SchedError::ShapeMismatch {
                detail: format!(
                    "mapping covers {} modes, system has {}",
                    self.mode_count(),
                    system.omsm().mode_count()
                ),
            });
        }
        for (mode, m) in system.omsm().modes() {
            let row = self.row(mode);
            if row.len() != m.graph().task_count() {
                return Err(SchedError::ShapeMismatch {
                    detail: format!(
                        "mode {mode} maps {} tasks, graph has {}",
                        row.len(),
                        m.graph().task_count()
                    ),
                });
            }
            for (task, t) in m.graph().tasks() {
                let pe = row[task.index()];
                if system.tech().impl_of(t.task_type(), pe).is_none() {
                    return Err(SchedError::UnsupportedMapping { mode, task, pe });
                }
            }
        }
        Ok(())
    }

    /// Returns the set of PEs used by `mode` — the complement are the
    /// components that can be shut down during that mode.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    pub fn active_pes(&self, mode: ModeId) -> Vec<PeId> {
        let mut pes = self.row(mode).to_vec();
        pes.sort_unstable();
        pes.dedup();
        pes
    }

    /// Renders the paper-style mapping string, e.g. `[0 1 1 | 0 0 1]`.
    pub fn mapping_string(&self) -> String {
        let rows: Vec<String> = (0..self.mode_count())
            .map(|m| {
                let row = self.row(ModeId::new(m));
                row.iter().map(|p| p.index().to_string()).collect::<Vec<_>>().join(" ")
            })
            .collect();
        format!("[{}]", rows.join(" | "))
    }
}

/// One allocated core: `count` instances of type `ty` on PE `pe`.
type Core = (PeId, TaskTypeId, usize);

/// Per-mode hardware core allocation.
///
/// For every mode, maps `(hardware PE, task type)` to the number of core
/// instances available. An allocation of `n` lets up to `n` tasks of that
/// type execute concurrently on the PE; further tasks contend and
/// sequentialise, exactly as the paper describes for hardware sharing.
///
/// Every mode's entries are stored back to back as one row sorted by
/// `(pe, type)`, so comparing or copying a mode's cores touches only its
/// row, and nothing is sized by the largest id an entry names: a stored
/// solution may name any PE or type. An entry set to zero instances
/// stays listed. An allocation serialises as
/// `{"per_mode": [[[pe, type, count], …], …]}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreAllocation {
    /// Every mode's row, mode 0 first, each sorted by `(pe, type)`
    /// without repeated pairs.
    cores: Vec<Core>,
    /// `cores[starts[m]..starts[m + 1]]` is mode `m`'s row.
    starts: Vec<usize>,
}

/// The serialised shape of a [`CoreAllocation`]: one entry list per mode.
#[derive(Serialize, Deserialize)]
struct AllocationRows {
    per_mode: Vec<Vec<Core>>,
}

impl Serialize for CoreAllocation {
    fn to_value(&self) -> serde::Value {
        let per_mode = (0..self.mode_count()).map(|m| self.row(ModeId::new(m)).to_vec()).collect();
        AllocationRows { per_mode }.to_value()
    }
}

impl<'de> Deserialize<'de> for CoreAllocation {
    /// Sorts each row by `(pe, type)`; of repeated pairs the last entry
    /// wins.
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let AllocationRows { per_mode } = Deserialize::from_value(value)?;
        let mut cores = Vec::with_capacity(per_mode.iter().map(Vec::len).sum());
        let mut starts = Vec::with_capacity(per_mode.len() + 1);
        starts.push(0);
        for mut row in per_mode {
            // Reversed, a stable sort puts each pair's last entry first.
            row.reverse();
            row.sort_by_key(|&(pe, ty, _)| (pe, ty));
            row.dedup_by_key(|&mut (pe, ty, _)| (pe, ty));
            cores.extend(row);
            starts.push(cores.len());
        }
        Ok(Self { cores, starts })
    }
}

impl CoreAllocation {
    /// Creates an empty allocation for `mode_count` modes.
    pub fn new(mode_count: usize) -> Self {
        Self { cores: Vec::new(), starts: vec![0; mode_count + 1] }
    }

    /// Derives the minimal allocation implied by a mapping: one core per
    /// `(mode, hardware PE, task type)` actually used. This is the
    /// baseline; the synthesis layer may replicate cores for parallel
    /// low-mobility tasks on top of it. A PE outside `system`'s
    /// architecture gets no cores.
    pub fn minimal(system: &System, mapping: &SystemMapping) -> Self {
        let mut alloc = Self::with_capacity(0, system.omsm().mode_count());
        let mut used = Vec::new();
        for (mode, m) in system.omsm().modes() {
            hardware_cores(system, m.graph(), mapping.row(mode), &mut used);
            alloc.push_single_cores(&used);
        }
        alloc
    }

    /// The minimal allocation of the mapping `timing` analyses, one
    /// analysis per mode in mode order: one instance of each of every
    /// analysis's [`TimingAnalysis::cores`]. Equals
    /// [`CoreAllocation::minimal`] of that mapping without deriving the
    /// cores again.
    pub fn from_analyses(timing: &[TimingAnalysis]) -> Self {
        let entries = timing.iter().map(|analysis| analysis.cores().len()).sum();
        let mut alloc = Self::with_capacity(entries, timing.len());
        for analysis in timing {
            alloc.push_single_cores(analysis.cores());
        }
        alloc
    }

    /// An allocation of no modes with room for `entries` entries over
    /// `modes` modes.
    fn with_capacity(entries: usize, modes: usize) -> Self {
        let mut starts = Vec::with_capacity(modes + 1);
        starts.push(0);
        Self { cores: Vec::with_capacity(entries), starts }
    }

    /// Appends a mode with one instance of each of `cores`, which are
    /// sorted and distinct.
    fn push_single_cores(&mut self, cores: &[(PeId, TaskTypeId)]) {
        self.cores.extend(cores.iter().map(|&(pe, ty)| (pe, ty, 1)));
        self.starts.push(self.cores.len());
    }

    /// Returns the number of modes covered.
    pub fn mode_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// `mode`'s entries, sorted by `(pe, type)`.
    fn row(&self, mode: ModeId) -> &[Core] {
        &self.cores[self.starts[mode.index()]..self.starts[mode.index() + 1]]
    }

    /// `mode`'s entries on `pe`, sorted by type.
    fn pe_row(&self, mode: ModeId, pe: PeId) -> &[Core] {
        let row = self.row(mode);
        let first = row.partition_point(|&(p, _, _)| p < pe);
        let end = first + row[first..].partition_point(|&(p, _, _)| p == pe);
        &row[first..end]
    }

    /// The index in `cores` of `(mode, pe, ty)`'s entry, or where to
    /// insert it.
    fn find(&self, mode: ModeId, pe: PeId, ty: TaskTypeId) -> Result<usize, usize> {
        let start = self.starts[mode.index()];
        self.row(mode)
            .binary_search_by_key(&(pe, ty), |&(p, t, _)| (p, t))
            .map(|i| start + i)
            .map_err(|i| start + i)
    }

    /// Applies `count` to the instance count of `(mode, pe, ty)`,
    /// entering the pair at zero instances first if it is missing.
    fn update(
        &mut self,
        mode: ModeId,
        pe: PeId,
        ty: TaskTypeId,
        count: impl FnOnce(usize) -> usize,
    ) {
        let at = match self.find(mode, pe, ty) {
            Ok(at) => at,
            Err(at) => {
                self.cores.insert(at, (pe, ty, 0));
                for start in &mut self.starts[mode.index() + 1..] {
                    *start += 1;
                }
                at
            }
        };
        self.cores[at].2 = count(self.cores[at].2);
    }

    /// Sets the instance count for `(mode, pe, ty)`.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    pub fn set_instances(&mut self, mode: ModeId, pe: PeId, ty: TaskTypeId, count: usize) {
        self.update(mode, pe, ty, |_| count);
    }

    /// Raises the instance count for `(mode, pe, ty)` to at least `count`.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    pub fn ensure(&mut self, mode: ModeId, pe: PeId, ty: TaskTypeId, count: usize) {
        self.update(mode, pe, ty, |have| have.max(count));
    }

    /// Returns the instance count for `(mode, pe, ty)` (zero if never set).
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    pub fn instances(&self, mode: ModeId, pe: PeId, ty: TaskTypeId) -> usize {
        self.find(mode, pe, ty).map_or(0, |at| self.cores[at].2)
    }

    /// Iterates over the cores allocated in `mode` as `((pe, ty), count)`,
    /// ascending by `(pe, ty)`.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    pub fn mode_cores(
        &self,
        mode: ModeId,
    ) -> impl Iterator<Item = ((PeId, TaskTypeId), usize)> + '_ {
        self.row(mode).iter().map(|&(pe, ty, count)| ((pe, ty), count))
    }

    /// Area occupied on `pe` during `mode` (FPGA view: only that mode's
    /// cores are loaded).
    pub fn mode_area(&self, system: &System, pe: PeId, mode: ModeId) -> Cells {
        row_area(system, pe, self.pe_row(mode, pe))
    }

    /// Area occupied on `pe` by the union of all modes' cores (ASIC view:
    /// cores are static, a type needs its maximal instance count).
    pub fn static_area(&self, system: &System, pe: PeId) -> Cells {
        let rows = (0..self.mode_count()).map(|mode| self.pe_row(ModeId::new(mode), pe));
        union_area(system, pe, rows, &mut Vec::new())
    }

    /// Area of the cores that must be (re)configured when switching from
    /// `from` to `to` on reconfigurable `pe`: every core instance required
    /// by `to` that is not already present from `from`. Merges the two
    /// modes' rows on `pe`.
    pub fn reconfig_area(&self, system: &System, pe: PeId, from: ModeId, to: ModeId) -> Cells {
        added_area(system, pe, self.pe_row(from, pe), self.pe_row(to, pe))
    }
}

/// Chosen PEs' rows of a [`CoreAllocation`] in every mode, read in one
/// pass over its entries into reused buffers, with the allocation's area
/// queries answered from them: what an evaluation judges every hardware
/// PE's area and every transition's reconfiguration from, without
/// searching the allocation for each PE and mode again.
///
/// # Examples
///
/// ```
/// use momsynth_model::ids::{ModeId, PeId, TaskTypeId};
/// use momsynth_sched::{CoreAllocation, PeRows};
///
/// let mut alloc = CoreAllocation::new(2);
/// alloc.set_instances(ModeId::new(1), PeId::new(2), TaskTypeId::new(0), 2);
/// let mut rows = PeRows::default();
/// rows.read(&alloc, [PeId::new(1), PeId::new(2)]);
/// assert_eq!(rows.pes(), &[PeId::new(1), PeId::new(2)]);
/// ```
#[derive(Debug, Default)]
pub struct PeRows {
    /// The PEs read, ascending; `p` below indexes them.
    pes: Vec<PeId>,
    /// The number of modes read.
    modes: usize,
    /// Every entry read: mode by mode, within a mode PE by PE, within a
    /// PE by type.
    cores: Vec<Core>,
    /// `cores[starts[m * P + p]..starts[m * P + p + 1]]` is PE `p`'s row
    /// in mode `m`, `P` being the number of PEs read.
    starts: Vec<usize>,
    /// Working memory of [`PeRows::static_area`].
    most: Vec<usize>,
}

impl PeRows {
    /// Reads `alloc`'s rows on `pes`, which are ascending and distinct;
    /// entries on any other PE are left out.
    pub fn read(&mut self, alloc: &CoreAllocation, pes: impl IntoIterator<Item = PeId>) {
        let Self { pes: read, modes, cores, starts, .. } = self;
        read.clear();
        read.extend(pes);
        *modes = alloc.mode_count();
        cores.clear();
        starts.clear();
        for mode in 0..alloc.mode_count() {
            // The PEs read whose row in this mode has begun.
            let mut begun = 0;
            for &core in alloc.row(ModeId::new(mode)) {
                while begun < read.len() && read[begun] <= core.0 {
                    starts.push(cores.len());
                    begun += 1;
                }
                if begun > 0 && read[begun - 1] == core.0 {
                    cores.push(core);
                }
            }
            starts.extend((begun..read.len()).map(|_| cores.len()));
        }
        starts.push(cores.len());
    }

    /// The PEs read, ascending.
    pub fn pes(&self) -> &[PeId] {
        &self.pes
    }

    /// PE `p`'s entries in `mode`, sorted by type; `p` indexes the PEs
    /// read.
    fn row(&self, mode: ModeId, p: usize) -> &[Core] {
        let at = mode.index() * self.pes.len() + p;
        &self.cores[self.starts[at]..self.starts[at + 1]]
    }

    /// [`CoreAllocation::mode_area`] of PE `p` in `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `mode` is out of range.
    pub fn mode_area(&self, system: &System, p: usize, mode: ModeId) -> Cells {
        row_area(system, self.pes[p], self.row(mode, p))
    }

    /// [`CoreAllocation::static_area`] of PE `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn static_area(&mut self, system: &System, p: usize) -> Cells {
        // Taken, so that a panic leaves no stale slot behind.
        let mut most = std::mem::take(&mut self.most);
        let rows = (0..self.modes).map(|mode| self.row(ModeId::new(mode), p));
        let area = union_area(system, self.pes[p], rows, &mut most);
        self.most = most;
        area
    }

    /// [`CoreAllocation::reconfig_area`] of PE `p` from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `p`, `from` or `to` is out of range.
    pub fn reconfig_area(&self, system: &System, p: usize, from: ModeId, to: ModeId) -> Cells {
        added_area(system, self.pes[p], self.row(from, p), self.row(to, p))
    }
}

/// The cells `row`, one PE's entries in one mode, occupies.
fn row_area(system: &System, pe: PeId, row: &[Core]) -> Cells {
    row.iter().map(|&(_, ty, count)| core_area(system, pe, ty) * count as u64).sum()
}

/// The cells of the union of `rows`, one PE's entries in each mode: each
/// type at its most instances. `most` is working memory, all zero on
/// entry and on return.
fn union_area<'r>(
    system: &System,
    pe: PeId,
    rows: impl Iterator<Item = &'r [Core]> + Clone,
    most: &mut Vec<usize>,
) -> Cells {
    // A type outside the library has no core area, so the most
    // instances of each type need one slot per library type only.
    most.resize(system.tech().type_count(), 0);
    for &(_, ty, count) in rows.clone().flatten() {
        if let Some(slot) = most.get_mut(ty.index()) {
            *slot = (*slot).max(count);
        }
    }
    // Each type is added where it first appears, and its slot cleared.
    let mut area = Cells::ZERO;
    for &(_, ty, _) in rows.flatten() {
        if let Some(slot) = most.get_mut(ty.index()).filter(|count| **count > 0) {
            area += core_area(system, pe, ty) * *slot as u64;
            *slot = 0;
        }
    }
    area
}

/// The cells of the cores `to` needs beyond the instances `from` leaves
/// loaded, `from` and `to` being one PE's entries in two modes.
fn added_area(system: &System, pe: PeId, from: &[Core], to: &[Core]) -> Cells {
    let mut loaded = from.iter().peekable();
    let mut area = Cells::ZERO;
    for &(_, ty, need) in to {
        while loaded.next_if(|&&(_, t, _)| t < ty).is_some() {}
        let have = loaded.next_if(|&&(_, t, _)| t == ty).map_or(0, |&(_, _, n)| n);
        if need > have {
            area += core_area(system, pe, ty) * (need - have) as u64;
        }
    }
    area
}

/// The one rule for a mode's hardware cores, which
/// [`CoreAllocation::minimal`] and [`TimingAnalysis::cores`] share:
/// leaves in `out` the sorted, distinct `(PE, type)` pairs of `graph`'s
/// tasks that `row` maps to a hardware PE. A PE outside `system`'s
/// architecture is not one: it implements no type, which the list
/// scheduler reports.
pub(crate) fn hardware_cores(
    system: &System,
    graph: &TaskGraph,
    row: &[PeId],
    out: &mut Vec<(PeId, TaskTypeId)>,
) {
    let arch = system.arch();
    out.clear();
    // Only the hardware tasks' pairs are sorted, usually a few.
    out.extend(graph.tasks().filter_map(|(task, t)| {
        let pe = row[task.index()];
        let hardware = pe.index() < arch.pe_count() && arch.pe(pe).kind().is_hardware();
        hardware.then(|| (pe, t.task_type()))
    }));
    out.sort_unstable();
    out.dedup();
}

/// The area of one `ty` core on `pe` (zero without an implementation).
fn core_area(system: &System, pe: PeId, ty: TaskTypeId) -> Cells {
    system.tech().impl_of(ty, pe).map(|imp| imp.area()).unwrap_or(Cells::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::units::{Seconds, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, TaskGraphBuilder,
        TechLibraryBuilder,
    };

    /// Two modes; type A implementable on both PEs, type B only on PE0.
    fn sample_system() -> System {
        let mut tech = TechLibraryBuilder::new();
        let ta = tech.add_type("A");
        let tb = tech.add_type("B");

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
            Implementation::software(Seconds::from_millis(20.0), Watts::from_milli(500.0)),
        );
        tech.set_impl(
            ta,
            hw,
            Implementation::hardware(
                Seconds::from_millis(2.0),
                Watts::from_milli(5.0),
                Cells::new(240),
            ),
        );
        tech.set_impl(
            tb,
            cpu,
            Implementation::software(Seconds::from_millis(28.0), Watts::from_milli(500.0)),
        );

        let mut g0 = TaskGraphBuilder::new("m0", Seconds::from_millis(200.0));
        let a = g0.add_task("a", ta);
        let b = g0.add_task("b", tb);
        g0.add_comm(a, b, 100.0).unwrap();
        let mut g1 = TaskGraphBuilder::new("m1", Seconds::from_millis(200.0));
        g1.add_task("c", ta);
        g1.add_task("d", ta);

        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m0", 0.5, g0.build().unwrap());
        omsm.add_mode("m1", 0.5, g1.build().unwrap());
        System::new("s", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    #[test]
    fn mapping_accessors_and_mutation() {
        let sys = sample_system();
        let mut m = SystemMapping::from_fn(&sys, |_| PeId::new(0));
        assert_eq!(m.mode_count(), 2);
        assert_eq!(m.task_count(ModeId::new(0)), 2);
        m.set(ModeId::new(1), TaskId::new(0), PeId::new(1));
        assert_eq!(m.pe_of(ModeId::new(1), TaskId::new(0)), PeId::new(1));
        assert_eq!(m.pe_of_global(GlobalTaskId::new(ModeId::new(1), TaskId::new(0))), PeId::new(1));
        assert_eq!(m.active_pes(ModeId::new(0)), vec![PeId::new(0)]);
        assert_eq!(m.active_pes(ModeId::new(1)), vec![PeId::new(0), PeId::new(1)]);
        assert_eq!(m.mapping_string(), "[0 0 | 1 0]");
        assert_eq!(m.row(ModeId::new(1)), &[PeId::new(1), PeId::new(0)]);
    }

    #[test]
    fn validate_accepts_supported_mapping() {
        let sys = sample_system();
        let m = SystemMapping::from_fn(&sys, |_| PeId::new(0));
        assert!(m.validate(&sys).is_ok());
    }

    #[test]
    fn validate_rejects_unsupported_pe() {
        let sys = sample_system();
        // Task b (type B) cannot run on PE1.
        let m = SystemMapping::from_vecs(vec![
            vec![PeId::new(0), PeId::new(1)],
            vec![PeId::new(0), PeId::new(0)],
        ]);
        assert!(matches!(m.validate(&sys), Err(SchedError::UnsupportedMapping { .. })));
    }

    #[test]
    fn validate_rejects_shape_mismatch() {
        let sys = sample_system();
        let m = SystemMapping::from_vecs(vec![vec![PeId::new(0), PeId::new(0)]]);
        assert!(matches!(m.validate(&sys), Err(SchedError::ShapeMismatch { .. })));
        let m = SystemMapping::from_vecs(vec![vec![PeId::new(0)], vec![PeId::new(0)]]);
        assert!(matches!(m.validate(&sys), Err(SchedError::ShapeMismatch { .. })));
    }

    #[test]
    fn minimal_allocation_covers_hw_tasks_only() {
        let sys = sample_system();
        // Map both mode-1 type-A tasks to the ASIC.
        let m = SystemMapping::from_vecs(vec![
            vec![PeId::new(0), PeId::new(0)],
            vec![PeId::new(1), PeId::new(1)],
        ]);
        let alloc = CoreAllocation::minimal(&sys, &m);
        assert_eq!(alloc.instances(ModeId::new(0), PeId::new(1), TaskTypeId::new(0)), 0);
        assert_eq!(alloc.instances(ModeId::new(1), PeId::new(1), TaskTypeId::new(0)), 1);
        assert_eq!(alloc.mode_cores(ModeId::new(1)).count(), 1);
    }

    #[test]
    fn allocation_area_queries() {
        let sys = sample_system();
        let mut alloc = CoreAllocation::new(2);
        alloc.set_instances(ModeId::new(0), PeId::new(1), TaskTypeId::new(0), 1);
        alloc.set_instances(ModeId::new(1), PeId::new(1), TaskTypeId::new(0), 2);
        // Mode areas differ; static (ASIC) area takes the max count.
        assert_eq!(alloc.mode_area(&sys, PeId::new(1), ModeId::new(0)), Cells::new(240));
        assert_eq!(alloc.mode_area(&sys, PeId::new(1), ModeId::new(1)), Cells::new(480));
        assert_eq!(alloc.static_area(&sys, PeId::new(1)), Cells::new(480));
        // Reconfiguration 0 -> 1 must add one more type-A core.
        assert_eq!(
            alloc.reconfig_area(&sys, PeId::new(1), ModeId::new(0), ModeId::new(1)),
            Cells::new(240)
        );
        // 1 -> 0 has everything already loaded.
        assert_eq!(
            alloc.reconfig_area(&sys, PeId::new(1), ModeId::new(1), ModeId::new(0)),
            Cells::ZERO
        );
    }

    #[test]
    fn ensure_raises_but_never_lowers() {
        let mut alloc = CoreAllocation::new(1);
        alloc.ensure(ModeId::new(0), PeId::new(1), TaskTypeId::new(0), 2);
        alloc.ensure(ModeId::new(0), PeId::new(1), TaskTypeId::new(0), 1);
        assert_eq!(alloc.instances(ModeId::new(0), PeId::new(1), TaskTypeId::new(0)), 2);
    }

    #[test]
    fn serde_round_trip() {
        let sys = sample_system();
        let m = SystemMapping::from_fn(&sys, |_| PeId::new(0));
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(serde_json::from_str::<SystemMapping>(&json).unwrap(), m);
        let alloc = CoreAllocation::minimal(&sys, &m);
        let json = serde_json::to_string(&alloc).unwrap();
        assert_eq!(serde_json::from_str::<CoreAllocation>(&json).unwrap(), alloc);
    }
}
