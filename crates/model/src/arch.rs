//! The target architecture: heterogeneous PEs connected by communication links.
//!
//! The architecture graph `G_A(P, L)` consists of processing elements
//! ([`Pe`]) — general-purpose processors, ASIPs, ASICs and FPGAs — and
//! communication links ([`Cl`]), each link a bus connecting two or more PEs.
//! Software PEs execute tasks sequentially; hardware PEs instantiate one
//! *core* per mapped task type (plus optional replicas) and run cores in
//! parallel. Any PE may be DVS-enabled ([`DvsCapability`]) — the paper
//! explicitly extends voltage scaling to hardware components.
//!
//! # Examples
//!
//! ```
//! use momsynth_model::{ArchitectureBuilder, Cl, DvsCapability, Pe, PeKind};
//! use momsynth_model::units::{Cells, Seconds, Volts, Watts};
//!
//! # fn main() -> Result<(), momsynth_model::ModelError> {
//! let mut b = ArchitectureBuilder::new();
//! let cpu = b.add_pe(
//!     Pe::software("CPU", PeKind::Gpp, Watts::from_milli(0.2))
//!         .with_dvs(DvsCapability::new(
//!             Volts::new(3.3),
//!             Volts::new(0.8),
//!             vec![Volts::new(1.2), Volts::new(2.1), Volts::new(3.3)],
//!         )),
//! );
//! let asic = b.add_pe(Pe::hardware(
//!     "ASIC",
//!     PeKind::Asic,
//!     Cells::new(600),
//!     Watts::from_milli(0.1),
//! ));
//! b.add_cl(Cl::bus(
//!     "BUS",
//!     vec![cpu, asic],
//!     Seconds::from_micros(1.0),
//!     Watts::from_milli(1.0),
//!     Watts::from_milli(0.05),
//! ))?;
//! let arch = b.build()?;
//! assert!(arch.connected(cpu, asic));
//! # Ok(())
//! # }
//! ```

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::ids::{ClId, PeId};
use crate::units::{Cells, Seconds, Volts, Watts};
use crate::wire;

/// The kind of a processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PeKind {
    /// General-purpose processor (software, sequential execution).
    Gpp,
    /// Application-specific instruction-set processor (software).
    Asip,
    /// Application-specific integrated circuit (hardware, static cores).
    Asic,
    /// Field-programmable gate array (hardware, reconfigurable cores).
    Fpga,
}

impl PeKind {
    /// Returns `true` for software PEs (GPP, ASIP), which sequentialise
    /// their mapped tasks.
    pub fn is_software(self) -> bool {
        matches!(self, Self::Gpp | Self::Asip)
    }

    /// Returns `true` for hardware PEs (ASIC, FPGA), which allocate cores
    /// and execute them in parallel.
    pub fn is_hardware(self) -> bool {
        !self.is_software()
    }

    /// Returns `true` if cores can be exchanged between modes at run time
    /// (only FPGAs are dynamically reconfigurable; ASIC cores are static).
    pub fn is_reconfigurable(self) -> bool {
        matches!(self, Self::Fpga)
    }
}

impl std::fmt::Display for PeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::Gpp => "GPP",
            Self::Asip => "ASIP",
            Self::Asic => "ASIC",
            Self::Fpga => "FPGA",
        };
        f.write_str(s)
    }
}

/// Dynamic voltage scaling capability of a PE.
///
/// Execution characteristics in the technology library are specified at the
/// nominal supply voltage `v_max`; at a scaled voltage `V` the dynamic
/// energy shrinks by `(V / v_max)²` while execution time stretches
/// according to the alpha-power delay model (see `momsynth-dvs`).
///
/// A deserialised capability goes through [`DvsCapability::new`], so its
/// levels are ascending and distinct however a spec lists them.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DvsCapability {
    v_max: Volts,
    v_threshold: Volts,
    levels: Vec<Volts>,
}

impl DvsCapability {
    /// Creates a DVS capability with the given nominal voltage, threshold
    /// voltage and discrete supply levels. Levels are sorted ascending;
    /// duplicates are removed. Validity is checked when the architecture is
    /// built.
    pub fn new(v_max: Volts, v_threshold: Volts, mut levels: Vec<Volts>) -> Self {
        levels.sort_by(|a, b| a.value().total_cmp(&b.value()));
        levels.dedup_by(|a, b| a.value() == b.value());
        Self { v_max, v_threshold, levels }
    }

    /// Returns the nominal (maximal) supply voltage `V_max`.
    pub fn v_max(&self) -> Volts {
        self.v_max
    }

    /// Returns the threshold voltage `V_t` of the delay model.
    pub fn v_threshold(&self) -> Volts {
        self.v_threshold
    }

    /// Returns the discrete supply levels, ascending.
    pub fn levels(&self) -> &[Volts] {
        &self.levels
    }

    /// Returns the lowest usable supply level.
    ///
    /// # Panics
    ///
    /// Panics if the capability has no levels; [`ArchitectureBuilder::build`]
    /// rejects such capabilities.
    pub fn v_min(&self) -> Volts {
        self.levels[0]
    }

    fn validate(&self, pe_name: &str) -> Result<(), ModelError> {
        let fail = |reason: &str| {
            Err(ModelError::InvalidDvs { pe: pe_name.to_owned(), reason: reason.to_owned() })
        };
        if self.levels.is_empty() {
            return fail("no discrete supply levels");
        }
        if !(self.v_max.value() > 0.0 && self.v_max.is_finite()) {
            return fail("nominal voltage must be positive");
        }
        if !(self.v_threshold.value() >= 0.0 && self.v_threshold.is_finite()) {
            return fail("threshold voltage must be non-negative");
        }
        for level in &self.levels {
            if level.value() <= self.v_threshold.value() {
                return fail("every level must exceed the threshold voltage");
            }
            if level.value() > self.v_max.value() + 1e-12 {
                return fail("levels must not exceed the nominal voltage");
            }
        }
        if (self.levels[self.levels.len() - 1].value() - self.v_max.value()).abs() > 1e-9 {
            return fail("the highest level must equal the nominal voltage");
        }
        Ok(())
    }
}

impl<'de> Deserialize<'de> for DvsCapability {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let wire::DvsCapability { v_max, v_threshold, levels } = Deserialize::from_value(value)?;
        Ok(Self::new(v_max, v_threshold, levels))
    }
}

/// A processing element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pe {
    name: String,
    kind: PeKind,
    area: Option<Cells>,
    static_power: Watts,
    dvs: Option<DvsCapability>,
    reconfig_time_per_cell: Seconds,
}

impl Pe {
    /// Creates a software PE (GPP or ASIP).
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a hardware kind; use [`Pe::hardware`] instead.
    pub fn software(name: impl Into<String>, kind: PeKind, static_power: Watts) -> Self {
        assert!(kind.is_software(), "Pe::software requires a software PeKind");
        Self {
            name: name.into(),
            kind,
            area: None,
            static_power,
            dvs: None,
            reconfig_time_per_cell: Seconds::ZERO,
        }
    }

    /// Creates a hardware PE (ASIC or FPGA) with the given area capacity.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a software kind; use [`Pe::software`] instead.
    pub fn hardware(
        name: impl Into<String>,
        kind: PeKind,
        area: Cells,
        static_power: Watts,
    ) -> Self {
        assert!(kind.is_hardware(), "Pe::hardware requires a hardware PeKind");
        Self {
            name: name.into(),
            kind,
            area: Some(area),
            static_power,
            dvs: None,
            reconfig_time_per_cell: Seconds::ZERO,
        }
    }

    /// Enables dynamic voltage scaling on this PE.
    #[must_use]
    pub fn with_dvs(mut self, dvs: DvsCapability) -> Self {
        self.dvs = Some(dvs);
        self
    }

    /// Sets the reconfiguration time per cell (meaningful for FPGAs; the
    /// time to reconfigure a set of cores is their total area times this).
    #[must_use]
    pub fn with_reconfig_time_per_cell(mut self, time: Seconds) -> Self {
        self.reconfig_time_per_cell = time;
        self
    }

    /// Returns the PE's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the PE kind.
    pub fn kind(&self) -> PeKind {
        self.kind
    }

    /// Returns the area capacity for hardware PEs, `None` for software PEs.
    pub fn area(&self) -> Option<Cells> {
        self.area
    }

    /// Returns the static power drawn while the PE is powered on.
    pub fn static_power(&self) -> Watts {
        self.static_power
    }

    /// Returns the DVS capability, if the PE is DVS-enabled.
    pub fn dvs(&self) -> Option<&DvsCapability> {
        self.dvs.as_ref()
    }

    /// Returns the per-cell reconfiguration time (zero for non-FPGAs).
    pub fn reconfig_time_per_cell(&self) -> Seconds {
        self.reconfig_time_per_cell
    }
}

/// A communication link: a bus connecting two or more PEs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cl {
    name: String,
    endpoints: Vec<PeId>,
    time_per_data_unit: Seconds,
    transfer_power: Watts,
    static_power: Watts,
}

impl Cl {
    /// Creates a bus connecting `endpoints`.
    ///
    /// A transfer of `d` data units occupies the bus for
    /// `d × time_per_data_unit` and dissipates `transfer_power` while
    /// active; `static_power` is drawn whenever the link is powered on.
    pub fn bus(
        name: impl Into<String>,
        endpoints: Vec<PeId>,
        time_per_data_unit: Seconds,
        transfer_power: Watts,
        static_power: Watts,
    ) -> Self {
        Self { name: name.into(), endpoints, time_per_data_unit, transfer_power, static_power }
    }

    /// Returns the link's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the PEs attached to this link.
    pub fn endpoints(&self) -> &[PeId] {
        &self.endpoints
    }

    /// Returns `true` if `pe` is attached to this link.
    pub fn connects(&self, pe: PeId) -> bool {
        self.endpoints.contains(&pe)
    }

    /// Returns the bus occupancy time per data unit.
    pub fn time_per_data_unit(&self) -> Seconds {
        self.time_per_data_unit
    }

    /// Returns the dynamic power drawn during a transfer (`P_C`).
    pub fn transfer_power(&self) -> Watts {
        self.transfer_power
    }

    /// Returns the static power drawn while the link is powered on.
    pub fn static_power(&self) -> Watts {
        self.static_power
    }

    /// Returns the time to transfer `data_units` over this link (`t_C`).
    pub fn transfer_time(&self, data_units: f64) -> Seconds {
        self.time_per_data_unit * data_units
    }
}

/// A validated architecture graph.
///
/// A deserialised architecture is rebuilt through [`ArchitectureBuilder`],
/// so a spec with a malformed link or DVS capability fails to load with
/// the builder's [`ModelError`] reason. The builder also derives which
/// links attach to each PE; that table is never written, so an
/// architecture serialises as its `pes` and `cls` alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Architecture {
    pes: Vec<Pe>,
    cls: Vec<Cl>,
    /// `attached[attached_start[p]..attached_start[p + 1]]` lists the
    /// links attached to PE `p`, ascending. It grows with the number of
    /// endpoints, not with the number of PE pairs, so a spec's size
    /// bounds it.
    attached: Vec<ClId>,
    attached_start: Vec<usize>,
}

impl Serialize for Architecture {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("pes".to_owned(), self.pes.to_value()),
            ("cls".to_owned(), self.cls.to_value()),
        ])
    }
}

impl<'de> Deserialize<'de> for Architecture {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let wire::Architecture { pes, cls } = Deserialize::from_value(value)?;
        let mut builder = ArchitectureBuilder::new();
        for pe in pes {
            builder.add_pe(pe);
        }
        for cl in cls {
            builder.add_cl(cl).map_err(serde::Error::custom)?;
        }
        builder.build().map_err(serde::Error::custom)
    }
}

impl Architecture {
    /// Returns the number of processing elements.
    pub fn pe_count(&self) -> usize {
        self.pes.len()
    }

    /// Returns the number of communication links.
    pub fn cl_count(&self) -> usize {
        self.cls.len()
    }

    /// Returns the PE with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this architecture.
    pub fn pe(&self, id: PeId) -> &Pe {
        &self.pes[id.index()]
    }

    /// Returns the link with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this architecture.
    pub fn cl(&self, id: ClId) -> &Cl {
        &self.cls[id.index()]
    }

    /// Iterates over `(id, pe)` pairs in identifier order.
    pub fn pes(&self) -> impl Iterator<Item = (PeId, &Pe)> + '_ {
        self.pes.iter().enumerate().map(|(i, p)| (PeId::new(i), p))
    }

    /// Iterates over `(id, cl)` pairs in identifier order.
    pub fn cls(&self) -> impl Iterator<Item = (ClId, &Cl)> + '_ {
        self.cls.iter().enumerate().map(|(i, c)| (ClId::new(i), c))
    }

    /// Returns all PE identifiers.
    pub fn pe_ids(&self) -> impl Iterator<Item = PeId> + '_ {
        (0..self.pes.len()).map(PeId::new)
    }

    /// Returns the links that connect both `a` and `b`, ascending (every
    /// link attached to `a` when `a == b`; none for a PE outside the
    /// architecture).
    #[inline]
    pub fn cls_between(&self, a: PeId, b: PeId) -> impl Iterator<Item = ClId> + '_ {
        Shared { a: self.attached_to(a), b: self.attached_to(b) }
    }

    /// Returns the fastest link connecting both `a` and `b`: of
    /// [`Architecture::cls_between`], the one with the least time per
    /// data unit, the lowest id among equally fast ones. `None` when they
    /// share no link. One merge of the two PEs' incidence rows.
    #[inline]
    pub fn fastest_cl(&self, a: PeId, b: PeId) -> Option<ClId> {
        let (mut x, mut y) = (self.attached_to(a), self.attached_to(b));
        let mut fastest: Option<(ClId, f64)> = None;
        while let (Some(&p), Some(&q)) = (x.first(), y.first()) {
            if p == q {
                let time = self.cls[p.index()].time_per_data_unit.value();
                if fastest.is_none_or(|(_, best)| time < best) {
                    fastest = Some((p, time));
                }
            }
            if p <= q {
                x = &x[1..];
            }
            if q <= p {
                y = &y[1..];
            }
        }
        fastest.map(|(cl, _)| cl)
    }

    /// The links attached to `pe`, ascending; empty for a PE outside the
    /// architecture.
    #[inline]
    fn attached_to(&self, pe: PeId) -> &[ClId] {
        let p = pe.index();
        if p >= self.pes.len() {
            return &[];
        }
        &self.attached[self.attached_start[p]..self.attached_start[p + 1]]
    }

    /// Returns `true` if at least one link connects `a` and `b` (or `a == b`).
    pub fn connected(&self, a: PeId, b: PeId) -> bool {
        a == b || self.cls_between(a, b).next().is_some()
    }

    /// Returns the identifiers of all software PEs.
    pub fn software_pes(&self) -> impl Iterator<Item = PeId> + '_ {
        self.pes().filter(|(_, p)| p.kind().is_software()).map(|(id, _)| id)
    }

    /// Returns the identifiers of all hardware PEs.
    pub fn hardware_pes(&self) -> impl Iterator<Item = PeId> + '_ {
        self.pes().filter(|(_, p)| p.kind().is_hardware()).map(|(id, _)| id)
    }

    /// Returns the identifiers of all DVS-enabled PEs.
    pub fn dvs_pes(&self) -> impl Iterator<Item = PeId> + '_ {
        self.pes().filter(|(_, p)| p.dvs().is_some()).map(|(id, _)| id)
    }
}

/// The links two PEs share: a merge of their ascending incidence rows.
struct Shared<'a> {
    a: &'a [ClId],
    b: &'a [ClId],
}

impl Iterator for Shared<'_> {
    type Item = ClId;

    #[inline]
    fn next(&mut self) -> Option<ClId> {
        while let (Some(&x), Some(&y)) = (self.a.first(), self.b.first()) {
            if x <= y {
                self.a = &self.a[1..];
            }
            if y <= x {
                self.b = &self.b[1..];
            }
            if x == y {
                return Some(x);
            }
        }
        None
    }
}

/// `true` for a finite, non-negative quantity: zero is legal for every
/// link and PE rate the builders check.
fn non_negative(value: f64) -> bool {
    value >= 0.0 && value.is_finite()
}

/// Incremental builder for [`Architecture`].
#[derive(Debug, Clone, Default)]
pub struct ArchitectureBuilder {
    pes: Vec<Pe>,
    cls: Vec<Cl>,
}

impl ArchitectureBuilder {
    /// Starts an empty architecture.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a processing element and returns its identifier.
    pub fn add_pe(&mut self, pe: Pe) -> PeId {
        let id = PeId::new(self.pes.len());
        self.pes.push(pe);
        id
    }

    /// Adds a communication link and returns its identifier.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownPe`] if an endpoint was not added,
    /// [`ModelError::DegenerateLink`] if fewer than two distinct PEs are
    /// connected, or [`ModelError::InvalidLink`] if its time per data
    /// unit, transfer power or static power is negative or non-finite.
    pub fn add_cl(&mut self, cl: Cl) -> Result<ClId, ModelError> {
        let mut distinct = cl.endpoints.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() < 2 {
            return Err(ModelError::DegenerateLink { link: cl.name.clone() });
        }
        for &pe in &cl.endpoints {
            if pe.index() >= self.pes.len() {
                return Err(ModelError::UnknownPe { pe });
            }
        }
        let rates = [
            (cl.time_per_data_unit.value(), "time per data unit"),
            (cl.transfer_power.value(), "transfer power"),
            (cl.static_power.value(), "static power"),
        ];
        if let Some((_, what)) = rates.iter().find(|(value, _)| !non_negative(*value)) {
            return Err(ModelError::InvalidLink {
                link: cl.name.clone(),
                reason: format!("{what} must be non-negative and finite"),
            });
        }
        let id = ClId::new(self.cls.len());
        self.cls.push(cl);
        Ok(id)
    }

    /// Validates the architecture and freezes it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoPes`] for an empty architecture,
    /// [`ModelError::InvalidPe`] for a negative or non-finite static power
    /// or reconfiguration time, and [`ModelError::InvalidDvs`] for
    /// malformed DVS capabilities.
    pub fn build(self) -> Result<Architecture, ModelError> {
        if self.pes.is_empty() {
            return Err(ModelError::NoPes);
        }
        for pe in &self.pes {
            let rates = [
                (pe.static_power.value(), "static power"),
                (pe.reconfig_time_per_cell.value(), "reconfiguration time per cell"),
            ];
            if let Some((_, what)) = rates.iter().find(|(value, _)| !non_negative(*value)) {
                return Err(ModelError::InvalidPe {
                    pe: pe.name.clone(),
                    reason: format!("{what} must be non-negative and finite"),
                });
            }
            if let Some(dvs) = &pe.dvs {
                dvs.validate(&pe.name)?;
            }
        }
        // Every (PE, link) incidence in link order; a stable sort by PE
        // keeps each PE's links ascending.
        let mut incidences: Vec<(PeId, ClId)> = Vec::new();
        for (id, cl) in self.cls.iter().enumerate() {
            let mut ends = cl.endpoints.clone();
            ends.sort_unstable();
            ends.dedup();
            incidences.extend(ends.into_iter().map(|pe| (pe, ClId::new(id))));
        }
        incidences.sort_by_key(|&(pe, _)| pe);
        let attached = incidences.iter().map(|&(_, cl)| cl).collect();
        let attached_start = (0..=self.pes.len())
            .map(|p| incidences.partition_point(|&(pe, _)| pe.index() < p))
            .collect();
        Ok(Architecture { pes: self.pes, cls: self.cls, attached, attached_start })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dvs() -> DvsCapability {
        DvsCapability::new(
            Volts::new(3.3),
            Volts::new(0.8),
            vec![Volts::new(3.3), Volts::new(1.2), Volts::new(2.1)],
        )
    }

    fn two_pe_arch() -> (Architecture, PeId, PeId, ClId) {
        let mut b = ArchitectureBuilder::new();
        let cpu = b.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(0.2)));
        let asic =
            b.add_pe(Pe::hardware("asic", PeKind::Asic, Cells::new(600), Watts::from_milli(0.1)));
        let bus = b
            .add_cl(Cl::bus(
                "bus",
                vec![cpu, asic],
                Seconds::from_micros(1.0),
                Watts::from_milli(1.0),
                Watts::from_milli(0.05),
            ))
            .unwrap();
        (b.build().unwrap(), cpu, asic, bus)
    }

    #[test]
    fn pe_kind_classification() {
        assert!(PeKind::Gpp.is_software());
        assert!(PeKind::Asip.is_software());
        assert!(PeKind::Asic.is_hardware());
        assert!(PeKind::Fpga.is_hardware());
        assert!(PeKind::Fpga.is_reconfigurable());
        assert!(!PeKind::Asic.is_reconfigurable());
        assert_eq!(PeKind::Fpga.to_string(), "FPGA");
    }

    #[test]
    fn dvs_levels_are_sorted_and_deduped() {
        let dvs = DvsCapability::new(
            Volts::new(3.3),
            Volts::new(0.8),
            vec![Volts::new(3.3), Volts::new(1.2), Volts::new(1.2)],
        );
        assert_eq!(dvs.levels(), &[Volts::new(1.2), Volts::new(3.3)]);
        assert_eq!(dvs.v_min(), Volts::new(1.2));
        assert_eq!(dvs.v_max(), Volts::new(3.3));
    }

    #[test]
    fn dvs_validation_rejects_malformed_capabilities() {
        let check = |dvs: DvsCapability| {
            let mut b = ArchitectureBuilder::new();
            b.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO).with_dvs(dvs));
            b.build()
        };
        // empty levels
        assert!(check(DvsCapability::new(Volts::new(3.3), Volts::new(0.8), vec![])).is_err());
        // level below threshold
        assert!(check(DvsCapability::new(
            Volts::new(3.3),
            Volts::new(0.8),
            vec![Volts::new(0.5), Volts::new(3.3)],
        ))
        .is_err());
        // level above nominal
        assert!(check(DvsCapability::new(
            Volts::new(3.3),
            Volts::new(0.8),
            vec![Volts::new(3.3), Volts::new(5.0)],
        ))
        .is_err());
        // highest level below nominal
        assert!(check(DvsCapability::new(
            Volts::new(3.3),
            Volts::new(0.8),
            vec![Volts::new(1.2), Volts::new(2.0)],
        ))
        .is_err());
        // well-formed
        assert!(check(sample_dvs()).is_ok());
    }

    #[test]
    #[should_panic(expected = "software PeKind")]
    fn software_constructor_rejects_hardware_kind() {
        let _ = Pe::software("x", PeKind::Asic, Watts::ZERO);
    }

    #[test]
    #[should_panic(expected = "hardware PeKind")]
    fn hardware_constructor_rejects_software_kind() {
        let _ = Pe::hardware("x", PeKind::Gpp, Cells::new(1), Watts::ZERO);
    }

    #[test]
    fn architecture_queries() {
        let (arch, cpu, asic, bus) = two_pe_arch();
        assert_eq!(arch.pe_count(), 2);
        assert_eq!(arch.cl_count(), 1);
        assert!(arch.connected(cpu, asic));
        assert!(arch.connected(cpu, cpu));
        assert_eq!(arch.cls_between(cpu, asic).collect::<Vec<_>>(), vec![bus]);
        assert_eq!(arch.software_pes().collect::<Vec<_>>(), vec![cpu]);
        assert_eq!(arch.hardware_pes().collect::<Vec<_>>(), vec![asic]);
        assert_eq!(arch.dvs_pes().count(), 0);
        assert_eq!(arch.pe(asic).area(), Some(Cells::new(600)));
        assert_eq!(arch.pe(cpu).area(), None);
    }

    #[test]
    fn unconnected_pes_are_not_connected() {
        let mut b = ArchitectureBuilder::new();
        let a = b.add_pe(Pe::software("a", PeKind::Gpp, Watts::ZERO));
        let c = b.add_pe(Pe::software("c", PeKind::Gpp, Watts::ZERO));
        let arch = b.build().unwrap();
        assert!(!arch.connected(a, c));
    }

    #[test]
    fn link_validation() {
        let mut b = ArchitectureBuilder::new();
        let a = b.add_pe(Pe::software("a", PeKind::Gpp, Watts::ZERO));
        assert!(matches!(
            b.add_cl(Cl::bus("bad", vec![a], Seconds::ZERO, Watts::ZERO, Watts::ZERO)),
            Err(ModelError::DegenerateLink { .. })
        ));
        assert!(matches!(
            b.add_cl(Cl::bus(
                "bad2",
                vec![a, PeId::new(9)],
                Seconds::ZERO,
                Watts::ZERO,
                Watts::ZERO
            )),
            Err(ModelError::UnknownPe { .. })
        ));
        // duplicate endpoints only do not make a link
        assert!(matches!(
            b.add_cl(Cl::bus("dup", vec![a, a], Seconds::ZERO, Watts::ZERO, Watts::ZERO)),
            Err(ModelError::DegenerateLink { .. })
        ));
    }

    #[test]
    fn negative_or_non_finite_rates_are_rejected() {
        let mut b = ArchitectureBuilder::new();
        let a = b.add_pe(Pe::software("a", PeKind::Gpp, Watts::ZERO));
        let c = b.add_pe(Pe::software("c", PeKind::Gpp, Watts::ZERO));
        let bus = |t: f64, p: f64, s: f64| {
            Cl::bus("bus", vec![a, c], Seconds::new(t), Watts::new(p), Watts::new(s))
        };
        for bad in [bus(-1e-3, 0.0, 0.0), bus(0.0, -5.0, 0.0), bus(0.0, 0.0, f64::NAN)] {
            assert!(matches!(b.add_cl(bad), Err(ModelError::InvalidLink { .. })));
        }
        assert!(b.add_cl(bus(0.0, 0.0, 0.0)).is_ok());

        let build_with = |pe: Pe| {
            let mut b = ArchitectureBuilder::new();
            b.add_pe(pe);
            b.build()
        };
        let fpga = || Pe::hardware("f", PeKind::Fpga, Cells::new(10), Watts::ZERO);
        for bad in [
            Pe::software("s", PeKind::Gpp, Watts::new(-1.0)),
            fpga().with_reconfig_time_per_cell(Seconds::new(f64::INFINITY)),
            fpga().with_reconfig_time_per_cell(Seconds::new(-1e-9)),
        ] {
            assert!(matches!(build_with(bad), Err(ModelError::InvalidPe { .. })));
        }
        assert!(build_with(fpga()).is_ok());
    }

    #[test]
    fn shared_links_come_out_ascending_for_every_pair() {
        let mut b = ArchitectureBuilder::new();
        let p: Vec<PeId> = (0..4)
            .map(|i| b.add_pe(Pe::software(format!("p{i}"), PeKind::Gpp, Watts::ZERO)))
            .collect();
        let link = |ends: Vec<PeId>| Cl::bus("l", ends, Seconds::ZERO, Watts::ZERO, Watts::ZERO);
        b.add_cl(link(vec![p[2], p[0], p[2]])).unwrap();
        b.add_cl(link(vec![p[1], p[2]])).unwrap();
        b.add_cl(link(vec![p[0], p[1], p[2]])).unwrap();
        let arch = b.build().unwrap();
        let cl = ClId::new;
        let between = |x: usize, y: usize| arch.cls_between(p[x], p[y]).collect::<Vec<_>>();
        assert_eq!(between(0, 2), vec![cl(0), cl(2)]);
        assert_eq!(between(2, 0), vec![cl(0), cl(2)]);
        assert_eq!(between(1, 2), vec![cl(1), cl(2)]);
        assert_eq!(between(2, 2), vec![cl(0), cl(1), cl(2)]);
        assert_eq!(between(0, 3), vec![]);
        assert_eq!(arch.cls_between(p[0], PeId::new(9)).count(), 0);
        assert_eq!(arch.cls_between(PeId::new(usize::MAX), p[0]).count(), 0);
        assert!(!arch.connected(p[3], p[0]));
    }

    #[test]
    fn empty_architecture_is_rejected() {
        assert!(matches!(ArchitectureBuilder::new().build(), Err(ModelError::NoPes)));
    }

    #[test]
    fn transfer_time_scales_with_data() {
        let cl = Cl::bus(
            "bus",
            vec![PeId::new(0), PeId::new(1)],
            Seconds::from_micros(2.0),
            Watts::ZERO,
            Watts::ZERO,
        );
        assert!((cl.transfer_time(500.0).as_millis() - 1.0).abs() < 1e-12);
        assert_eq!(cl.transfer_time(0.0), Seconds::ZERO);
    }

    #[test]
    fn serde_round_trip_preserves_architecture() {
        let (arch, ..) = two_pe_arch();
        let json = serde_json::to_string(&arch).unwrap();
        let back: Architecture = serde_json::from_str(&json).unwrap();
        assert_eq!(back, arch);
    }

    #[test]
    fn build_rejects_malformed_dvs_capabilities() {
        let build_with = |dvs: DvsCapability| {
            let mut b = ArchitectureBuilder::new();
            b.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(0.2)).with_dvs(dvs));
            b.build()
        };
        let expect_reason = |dvs: DvsCapability, fragment: &str| match build_with(dvs) {
            Err(crate::error::ModelError::InvalidDvs { pe, reason }) => {
                assert_eq!(pe, "cpu");
                assert!(reason.contains(fragment), "`{reason}` should mention `{fragment}`");
            }
            other => panic!("expected InvalidDvs({fragment}), got {other:?}"),
        };

        expect_reason(
            DvsCapability::new(Volts::new(3.3), Volts::new(0.8), vec![]),
            "no discrete supply levels",
        );
        expect_reason(
            DvsCapability::new(Volts::new(0.0), Volts::new(0.0), vec![Volts::new(0.0)]),
            "nominal voltage",
        );
        expect_reason(
            DvsCapability::new(Volts::new(3.3), Volts::new(-0.1), vec![Volts::new(3.3)]),
            "threshold voltage",
        );
        // A level at or below the threshold voltage.
        expect_reason(
            DvsCapability::new(
                Volts::new(3.3),
                Volts::new(0.8),
                vec![Volts::new(0.5), Volts::new(3.3)],
            ),
            "exceed the threshold",
        );
        // A level above the nominal voltage.
        expect_reason(
            DvsCapability::new(
                Volts::new(3.3),
                Volts::new(0.8),
                vec![Volts::new(3.3), Volts::new(4.0)],
            ),
            "must not exceed",
        );
        // Highest level short of the nominal voltage.
        expect_reason(
            DvsCapability::new(Volts::new(3.3), Volts::new(0.8), vec![Volts::new(2.0)]),
            "highest level",
        );
        // The sample capability is fine.
        assert!(build_with(sample_dvs()).is_ok());
    }
}
