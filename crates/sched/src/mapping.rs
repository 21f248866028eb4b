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

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use momsynth_model::ids::{GlobalTaskId, ModeId, PeId, TaskId, TaskTypeId};
use momsynth_model::units::Cells;
use momsynth_model::System;

use crate::error::SchedError;

/// Task mapping for every mode of a system (`Mτ^O` for all `O ∈ Ω`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SystemMapping {
    /// `pes[mode][task]` is the PE executing that task.
    pes: Vec<Vec<PeId>>,
}

impl SystemMapping {
    /// Creates a mapping from per-mode PE vectors.
    pub fn from_vecs(pes: Vec<Vec<PeId>>) -> Self {
        Self { pes }
    }

    /// Creates a mapping by evaluating `f` for every task of every mode.
    pub fn from_fn<F>(system: &System, mut f: F) -> Self
    where
        F: FnMut(GlobalTaskId) -> PeId,
    {
        let pes = system
            .omsm()
            .modes()
            .map(|(mode, m)| {
                m.graph().task_ids().map(|t| f(GlobalTaskId::new(mode, t))).collect()
            })
            .collect();
        Self { pes }
    }

    /// Returns the number of modes covered by this mapping.
    pub fn mode_count(&self) -> usize {
        self.pes.len()
    }

    /// Returns the number of tasks mapped in `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    pub fn task_count(&self, mode: ModeId) -> usize {
        self.pes[mode.index()].len()
    }

    /// Returns the PE executing `task` of `mode`.
    ///
    /// # Panics
    ///
    /// Panics if the identifiers are out of range.
    pub fn pe_of(&self, mode: ModeId, task: TaskId) -> PeId {
        self.pes[mode.index()][task.index()]
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
        &self.pes[mode.index()]
    }

    /// Re-maps `task` of `mode` onto `pe`.
    ///
    /// # Panics
    ///
    /// Panics if the identifiers are out of range.
    pub fn set(&mut self, mode: ModeId, task: TaskId, pe: PeId) {
        self.pes[mode.index()][task.index()] = pe;
    }

    /// Iterates over the tasks of `mode` with their mapped PEs.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    pub fn mode_assignments(
        &self,
        mode: ModeId,
    ) -> impl Iterator<Item = (TaskId, PeId)> + '_ {
        self.pes[mode.index()]
            .iter()
            .enumerate()
            .map(|(i, &pe)| (TaskId::new(i), pe))
    }

    /// Checks that the mapping matches the system's shape and that every
    /// task lands on a PE implementing its type.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::ShapeMismatch`] or
    /// [`SchedError::UnsupportedMapping`].
    pub fn validate(&self, system: &System) -> Result<(), SchedError> {
        if self.pes.len() != system.omsm().mode_count() {
            return Err(SchedError::ShapeMismatch {
                detail: format!(
                    "mapping covers {} modes, system has {}",
                    self.pes.len(),
                    system.omsm().mode_count()
                ),
            });
        }
        for (mode, m) in system.omsm().modes() {
            let row = &self.pes[mode.index()];
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
        let mut pes = self.pes[mode.index()].clone();
        pes.sort_unstable();
        pes.dedup();
        pes
    }

    /// Renders the paper-style mapping string, e.g. `[0 1 1 | 0 0 1]`.
    pub fn mapping_string(&self) -> String {
        let rows: Vec<String> = self
            .pes
            .iter()
            .map(|row| {
                row.iter().map(|p| p.index().to_string()).collect::<Vec<_>>().join(" ")
            })
            .collect();
        format!("[{}]", rows.join(" | "))
    }
}

/// Per-mode hardware core allocation.
///
/// For every mode, maps `(hardware PE, task type)` to the number of core
/// instances available. An allocation of `n` lets up to `n` tasks of that
/// type execute concurrently on the PE; further tasks contend and
/// sequentialise, exactly as the paper describes for hardware sharing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreAllocation {
    #[serde(with = "core_map_serde")]
    per_mode: Vec<BTreeMap<(PeId, TaskTypeId), usize>>,
}

/// Serialises the per-mode core tables as entry lists so that formats with
/// string-only map keys (JSON) can represent the tuple keys.
mod core_map_serde {
    use super::*;
    use serde::{Deserializer, Serializer};

    type CoreMaps = Vec<BTreeMap<(PeId, TaskTypeId), usize>>;

    pub fn serialize<S: Serializer>(
        maps: &[BTreeMap<(PeId, TaskTypeId), usize>],
        serializer: S,
    ) -> Result<S::Ok, S::Error> {
        let entries: Vec<Vec<(PeId, TaskTypeId, usize)>> = maps
            .iter()
            .map(|m| m.iter().map(|(&(pe, ty), &n)| (pe, ty, n)).collect())
            .collect();
        serde::Serialize::serialize(&entries, serializer)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        deserializer: D,
    ) -> Result<CoreMaps, D::Error> {
        let entries: Vec<Vec<(PeId, TaskTypeId, usize)>> =
            serde::Deserialize::deserialize(deserializer)?;
        Ok(entries
            .into_iter()
            .map(|row| row.into_iter().map(|(pe, ty, n)| ((pe, ty), n)).collect())
            .collect())
    }
}

impl CoreAllocation {
    /// Creates an empty allocation for `mode_count` modes.
    pub fn new(mode_count: usize) -> Self {
        Self { per_mode: vec![BTreeMap::new(); mode_count] }
    }

    /// Derives the minimal allocation implied by a mapping: one core per
    /// `(mode, hardware PE, task type)` actually used. This is the
    /// baseline; the synthesis layer may replicate cores for parallel
    /// low-mobility tasks on top of it.
    pub fn minimal(system: &System, mapping: &SystemMapping) -> Self {
        let mut alloc = Self::new(system.omsm().mode_count());
        for (mode, m) in system.omsm().modes() {
            for (task, t) in m.graph().tasks() {
                let pe = mapping.pe_of(mode, task);
                if system.arch().pe(pe).kind().is_hardware() {
                    alloc.ensure(mode, pe, t.task_type(), 1);
                }
            }
        }
        alloc
    }

    /// Returns the number of modes covered.
    pub fn mode_count(&self) -> usize {
        self.per_mode.len()
    }

    /// Sets the instance count for `(mode, pe, ty)`.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    pub fn set_instances(&mut self, mode: ModeId, pe: PeId, ty: TaskTypeId, count: usize) {
        self.per_mode[mode.index()].insert((pe, ty), count);
    }

    /// Raises the instance count for `(mode, pe, ty)` to at least `count`.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    pub fn ensure(&mut self, mode: ModeId, pe: PeId, ty: TaskTypeId, count: usize) {
        let entry = self.per_mode[mode.index()].entry((pe, ty)).or_insert(0);
        *entry = (*entry).max(count);
    }

    /// Returns the instance count for `(mode, pe, ty)` (zero if never set).
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    pub fn instances(&self, mode: ModeId, pe: PeId, ty: TaskTypeId) -> usize {
        self.per_mode[mode.index()].get(&(pe, ty)).copied().unwrap_or(0)
    }

    /// Iterates over the cores allocated in `mode` as `((pe, ty), count)`.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    pub fn mode_cores(
        &self,
        mode: ModeId,
    ) -> impl Iterator<Item = ((PeId, TaskTypeId), usize)> + '_ {
        self.per_mode[mode.index()].iter().map(|(&k, &v)| (k, v))
    }

    /// `true` when `mode` has the same cores with the same instance counts
    /// here as in `other`, whatever the other modes hold.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range in either allocation.
    pub fn mode_eq(&self, other: &CoreAllocation, mode: ModeId) -> bool {
        self.per_mode[mode.index()] == other.per_mode[mode.index()]
    }

    /// Area occupied on `pe` during `mode` (FPGA view: only that mode's
    /// cores are loaded).
    pub fn mode_area(&self, system: &System, pe: PeId, mode: ModeId) -> Cells {
        self.per_mode[mode.index()]
            .iter()
            .filter(|((p, _), _)| *p == pe)
            .map(|((_, ty), &count)| self.core_area(system, pe, *ty) * count as u64)
            .sum()
    }

    /// Area occupied on `pe` by the union of all modes' cores (ASIC view:
    /// cores are static, a type needs its maximal instance count).
    pub fn static_area(&self, system: &System, pe: PeId) -> Cells {
        let mut max_counts: BTreeMap<TaskTypeId, usize> = BTreeMap::new();
        for per_mode in &self.per_mode {
            for ((p, ty), &count) in per_mode {
                if *p == pe {
                    let e = max_counts.entry(*ty).or_insert(0);
                    *e = (*e).max(count);
                }
            }
        }
        max_counts
            .iter()
            .map(|(&ty, &count)| self.core_area(system, pe, ty) * count as u64)
            .sum()
    }

    /// Area of the cores that must be (re)configured when switching from
    /// `from` to `to` on reconfigurable `pe`: every core instance required
    /// by `to` that is not already present from `from`.
    pub fn reconfig_area(&self, system: &System, pe: PeId, from: ModeId, to: ModeId) -> Cells {
        let mut area = Cells::ZERO;
        for ((p, ty), &need) in &self.per_mode[to.index()] {
            if *p != pe {
                continue;
            }
            let have = self.instances(from, pe, *ty);
            if need > have {
                area += self.core_area(system, pe, *ty) * (need - have) as u64;
            }
        }
        area
    }

    fn core_area(&self, system: &System, pe: PeId, ty: TaskTypeId) -> Cells {
        system
            .tech()
            .impl_of(ty, pe)
            .map(|imp| imp.area())
            .unwrap_or(Cells::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::{
        ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, TaskGraphBuilder,
        TechLibraryBuilder,
    };
    use momsynth_model::units::{Seconds, Watts};

    /// Two modes; type A implementable on both PEs, type B only on PE0.
    fn sample_system() -> System {
        let mut tech = TechLibraryBuilder::new();
        let ta = tech.add_type("A");
        let tb = tech.add_type("B");

        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(0.1)));
        let hw = arch.add_pe(Pe::hardware(
            "hw",
            PeKind::Asic,
            Cells::new(600),
            Watts::from_milli(0.05),
        ));
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
        assert_eq!(
            m.pe_of_global(GlobalTaskId::new(ModeId::new(1), TaskId::new(0))),
            PeId::new(1)
        );
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
    fn mode_equality_compares_one_mode_only() {
        let mut a = CoreAllocation::new(2);
        a.set_instances(ModeId::new(0), PeId::new(1), TaskTypeId::new(0), 1);
        let mut b = a.clone();
        b.set_instances(ModeId::new(1), PeId::new(1), TaskTypeId::new(0), 2);
        assert!(a.mode_eq(&b, ModeId::new(0)));
        assert!(!a.mode_eq(&b, ModeId::new(1)));
        b.set_instances(ModeId::new(0), PeId::new(1), TaskTypeId::new(0), 2);
        assert!(!a.mode_eq(&b, ModeId::new(0)));
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
