//! The technology library: implementation alternatives per task type.
//!
//! Every task type may be implemented on several PEs; each alternative is
//! an [`Implementation`] with a nominal execution time `t_min`, a dynamic
//! power `P_max` (both at the PE's nominal supply voltage) and — for
//! hardware PEs — the silicon area of the corresponding core. The paper's
//! motivational table (Section 2.3) is exactly such a library.
//!
//! # Examples
//!
//! ```
//! use momsynth_model::{Implementation, TechLibraryBuilder};
//! use momsynth_model::ids::PeId;
//! use momsynth_model::units::{Cells, Seconds, Watts};
//!
//! let mut b = TechLibraryBuilder::new();
//! let fft = b.add_type("FFT");
//! b.set_impl(
//!     fft,
//!     PeId::new(0),
//!     Implementation::software(Seconds::from_millis(20.0), Watts::from_milli(500.0)),
//! );
//! b.set_impl(
//!     fft,
//!     PeId::new(1),
//!     Implementation::hardware(
//!         Seconds::from_millis(2.0),
//!         Watts::from_milli(5.0),
//!         Cells::new(240),
//!     ),
//! );
//! let lib = b.build();
//! assert_eq!(lib.pes_supporting(fft).count(), 2);
//! assert!(lib.impl_of(fft, PeId::new(0)).is_some());
//! ```

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::ids::{PeId, TaskTypeId};
use crate::units::{Cells, Joules, Seconds, Watts};
use crate::wire;

/// One implementation alternative of a task type on a specific PE.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Implementation {
    exec_time: Seconds,
    dyn_power: Watts,
    area: Cells,
}

impl Implementation {
    /// Creates a software implementation (no core area).
    pub fn software(exec_time: Seconds, dyn_power: Watts) -> Self {
        Self { exec_time, dyn_power, area: Cells::ZERO }
    }

    /// Creates a hardware implementation with the given core area.
    pub fn hardware(exec_time: Seconds, dyn_power: Watts, area: Cells) -> Self {
        Self { exec_time, dyn_power, area }
    }

    /// Returns the nominal execution time `t_min` (at `V_max`).
    pub fn exec_time(&self) -> Seconds {
        self.exec_time
    }

    /// Returns the nominal dynamic power `P_max` (at `V_max`).
    pub fn dyn_power(&self) -> Watts {
        self.dyn_power
    }

    /// Returns the core area (zero for software implementations).
    pub fn area(&self) -> Cells {
        self.area
    }

    /// Returns the nominal dynamic energy `P_max · t_min`.
    pub fn energy(&self) -> Joules {
        self.dyn_power * self.exec_time
    }
}

/// A technology library mapping `(task type, PE)` to implementations.
///
/// A deserialised library is rebuilt through [`TechLibraryBuilder`], so
/// its rows load sorted however a spec lists them. A spec must carry one
/// `impls` row per task type: a missing row fails to load as
/// [`ModelError::UnimplementableType`], a surplus one as
/// [`ModelError::UnknownTaskType`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TechLibrary {
    type_names: Vec<String>,
    /// `impls[type]` is a sparse, sorted list of `(pe, implementation)`.
    impls: Vec<Vec<(PeId, Implementation)>>,
}

impl<'de> Deserialize<'de> for TechLibrary {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let wire::TechLibrary { type_names, impls } = Deserialize::from_value(value)?;
        if impls.len() < type_names.len() {
            let task_type = TaskTypeId::new(impls.len());
            return Err(serde::Error::custom(ModelError::UnimplementableType { task_type }));
        }
        if impls.len() > type_names.len() {
            let task_type = TaskTypeId::new(type_names.len());
            return Err(serde::Error::custom(ModelError::UnknownTaskType { task_type }));
        }
        let mut builder = TechLibraryBuilder::new();
        for (name, row) in type_names.into_iter().zip(impls) {
            let ty = builder.add_type(name);
            for (pe, implementation) in row {
                builder.set_impl(ty, pe, implementation);
            }
        }
        Ok(builder.build())
    }
}

impl TechLibrary {
    /// Returns the number of task types.
    pub fn type_count(&self) -> usize {
        self.type_names.len()
    }

    /// Returns the name of a task type.
    ///
    /// # Panics
    ///
    /// Panics if `ty` does not belong to this library.
    pub fn type_name(&self, ty: TaskTypeId) -> &str {
        &self.type_names[ty.index()]
    }

    /// Returns all task type identifiers.
    pub fn type_ids(&self) -> impl Iterator<Item = TaskTypeId> + '_ {
        (0..self.type_names.len()).map(TaskTypeId::new)
    }

    /// Returns `true` if `ty` is a valid type of this library.
    pub fn contains_type(&self, ty: TaskTypeId) -> bool {
        ty.index() < self.type_names.len()
    }

    /// Returns the implementation of `ty` on `pe`, if one exists.
    #[inline]
    pub fn impl_of(&self, ty: TaskTypeId, pe: PeId) -> Option<&Implementation> {
        let row = self.impls.get(ty.index())?;
        row.binary_search_by_key(&pe, |&(p, _)| p).ok().map(|i| &row[i].1)
    }

    /// Returns the PEs on which `ty` can be implemented, ascending.
    pub fn pes_supporting(&self, ty: TaskTypeId) -> impl Iterator<Item = PeId> + '_ {
        self.impls.get(ty.index()).map(Vec::as_slice).unwrap_or(&[]).iter().map(|&(p, _)| p)
    }

    /// Iterates over all `(pe, implementation)` alternatives for `ty`.
    pub fn impls_of(&self, ty: TaskTypeId) -> impl Iterator<Item = (PeId, &Implementation)> + '_ {
        self.impls
            .get(ty.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .map(|(p, imp)| (*p, imp))
    }

    /// Returns the fastest available execution time for `ty` across all PEs.
    pub fn fastest_exec_time(&self, ty: TaskTypeId) -> Option<Seconds> {
        self.impls_of(ty)
            .map(|(_, imp)| imp.exec_time())
            .min_by(|a, b| a.value().total_cmp(&b.value()))
    }

    /// Returns the lowest-energy implementation for `ty` across all PEs.
    pub fn min_energy(&self, ty: TaskTypeId) -> Option<Joules> {
        self.impls_of(ty)
            .map(|(_, imp)| imp.energy())
            .min_by(|a, b| a.value().total_cmp(&b.value()))
    }
}

/// Incremental builder for [`TechLibrary`].
///
/// Structural validation against a concrete architecture and OMSM happens
/// in [`System::new`](crate::System::new); the builder alone only keeps
/// rows sorted and replaces duplicates.
#[derive(Debug, Clone, Default)]
pub struct TechLibraryBuilder {
    type_names: Vec<String>,
    impls: Vec<Vec<(PeId, Implementation)>>,
}

impl TechLibraryBuilder {
    /// Starts an empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a task type and returns its identifier.
    pub fn add_type(&mut self, name: impl Into<String>) -> TaskTypeId {
        let id = TaskTypeId::new(self.type_names.len());
        self.type_names.push(name.into());
        self.impls.push(Vec::new());
        id
    }

    /// Registers (or replaces) the implementation of `ty` on `pe`.
    ///
    /// # Panics
    ///
    /// Panics if `ty` was not added to this builder.
    pub fn set_impl(&mut self, ty: TaskTypeId, pe: PeId, implementation: Implementation) {
        let row = &mut self.impls[ty.index()];
        match row.binary_search_by_key(&pe, |&(p, _)| p) {
            Ok(i) => row[i].1 = implementation,
            Err(i) => row.insert(i, (pe, implementation)),
        }
    }

    /// Returns the number of task types registered so far.
    pub fn type_count(&self) -> usize {
        self.type_names.len()
    }

    /// Freezes the library.
    pub fn build(self) -> TechLibrary {
        TechLibrary { type_names: self.type_names, impls: self.impls }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (TechLibrary, TaskTypeId, TaskTypeId) {
        let mut b = TechLibraryBuilder::new();
        let a = b.add_type("A");
        let c = b.add_type("C");
        b.set_impl(
            a,
            PeId::new(0),
            Implementation::software(Seconds::from_millis(20.0), Watts::from_milli(500.0)),
        );
        b.set_impl(
            a,
            PeId::new(1),
            Implementation::hardware(
                Seconds::from_millis(2.0),
                Watts::from_milli(5.0),
                Cells::new(240),
            ),
        );
        b.set_impl(
            c,
            PeId::new(1),
            Implementation::hardware(
                Seconds::from_millis(1.6),
                Watts::from_milli(14.375),
                Cells::new(275),
            ),
        );
        (b.build(), a, c)
    }

    #[test]
    fn lookup_and_support_queries() {
        let (lib, a, c) = sample();
        assert_eq!(lib.type_count(), 2);
        assert_eq!(lib.type_name(a), "A");
        assert!(lib.contains_type(c));
        assert!(!lib.contains_type(TaskTypeId::new(7)));
        assert!(lib.impl_of(a, PeId::new(0)).is_some());
        assert!(lib.impl_of(c, PeId::new(0)).is_none());
        assert_eq!(lib.pes_supporting(a).collect::<Vec<_>>(), vec![PeId::new(0), PeId::new(1)]);
        assert_eq!(lib.pes_supporting(c).collect::<Vec<_>>(), vec![PeId::new(1)]);
        assert_eq!(lib.pes_supporting(TaskTypeId::new(9)).count(), 0);
    }

    #[test]
    fn implementation_energy_is_power_times_time() {
        // Task type A on PE0 in the paper: 20 ms at 500 mW = 10 mWs.
        let (lib, a, _) = sample();
        let imp = lib.impl_of(a, PeId::new(0)).unwrap();
        assert!((imp.energy().as_milli_joules() - 10.0).abs() < 1e-9);
        // HW alternative: 2 ms at 5 mW = 0.010 mWs, as in the paper's table.
        let hw = lib.impl_of(a, PeId::new(1)).unwrap();
        assert!((hw.energy().as_milli_joules() - 0.010).abs() < 1e-9);
        assert_eq!(hw.area(), Cells::new(240));
    }

    #[test]
    fn set_impl_replaces_existing_entry() {
        let (_, a, _) = sample();
        let mut b = TechLibraryBuilder::new();
        let a2 = b.add_type("A");
        assert_eq!(a, a2);
        b.set_impl(a2, PeId::new(0), Implementation::software(Seconds::new(1.0), Watts::ZERO));
        b.set_impl(a2, PeId::new(0), Implementation::software(Seconds::new(2.0), Watts::ZERO));
        let lib = b.build();
        assert_eq!(lib.impl_of(a2, PeId::new(0)).unwrap().exec_time(), Seconds::new(2.0));
        assert_eq!(lib.pes_supporting(a2).count(), 1);
    }

    #[test]
    fn fastest_and_min_energy_queries() {
        let (lib, a, _) = sample();
        assert_eq!(lib.fastest_exec_time(a), Some(Seconds::from_millis(2.0)));
        assert!((lib.min_energy(a).unwrap().as_milli_joules() - 0.010).abs() < 1e-9);
        assert_eq!(lib.fastest_exec_time(TaskTypeId::new(9)), None);
        assert_eq!(lib.min_energy(TaskTypeId::new(9)), None);
    }

    #[test]
    fn software_impl_has_zero_area() {
        let imp = Implementation::software(Seconds::new(1.0), Watts::new(1.0));
        assert_eq!(imp.area(), Cells::ZERO);
    }

    #[test]
    fn serde_round_trip_preserves_library() {
        let (lib, ..) = sample();
        let json = serde_json::to_string(&lib).unwrap();
        let back: TechLibrary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, lib);
    }
}
