//! Specification and architecture models for multi-mode embedded co-synthesis.
//!
//! This crate provides the data model of the DATE 2003 paper *“A Co-Design
//! Methodology for Energy-Efficient Multi-Mode Embedded Systems with
//! Consideration of Mode Execution Probabilities”* (Schmitz, Al-Hashimi,
//! Eles):
//!
//! * [`TaskGraph`] — the functional specification of one operational mode:
//!   a DAG of coarse-grained tasks with data-carrying precedence edges, a
//!   repetition period and optional per-task deadlines;
//! * [`Omsm`] — the *operational mode state machine*: the top-level finite
//!   state machine over modes, annotated with execution probabilities
//!   `Ψ_O` and maximal mode-transition times `t_T^max`;
//! * [`Architecture`] — heterogeneous PEs (GPP/ASIP/ASIC/FPGA, optionally
//!   DVS-enabled) connected by bus-style communication links;
//! * [`TechLibrary`] — per-(task type, PE) implementation alternatives
//!   (execution time, dynamic power, core area);
//! * [`System`] — the cross-validated bundle of the three.
//!
//! # Examples
//!
//! Building the skeleton of a two-mode system:
//!
//! ```
//! use momsynth_model::{
//!     ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, System,
//!     TaskGraphBuilder, TechLibraryBuilder,
//! };
//! use momsynth_model::units::{Cells, Seconds, Watts};
//!
//! # fn main() -> Result<(), momsynth_model::ModelError> {
//! // Technology library with one task type, implementable in SW and HW.
//! let mut tech = TechLibraryBuilder::new();
//! let fft = tech.add_type("FFT");
//!
//! // Architecture: one CPU and one ASIC on a bus.
//! let mut arch = ArchitectureBuilder::new();
//! let cpu = arch.add_pe(Pe::software("CPU", PeKind::Gpp, Watts::from_milli(0.2)));
//! let asic = arch.add_pe(Pe::hardware(
//!     "ASIC", PeKind::Asic, Cells::new(600), Watts::from_milli(0.1)));
//! arch.add_cl(Cl::bus("BUS", vec![cpu, asic],
//!     Seconds::from_micros(1.0), Watts::from_milli(1.0), Watts::from_milli(0.05)))?;
//!
//! tech.set_impl(fft, cpu,
//!     Implementation::software(Seconds::from_millis(20.0), Watts::from_milli(500.0)));
//! tech.set_impl(fft, asic,
//!     Implementation::hardware(Seconds::from_millis(2.0), Watts::from_milli(5.0),
//!         Cells::new(240)));
//!
//! // Two modes, each running one FFT per 100 ms frame.
//! let mut active = TaskGraphBuilder::new("active", Seconds::from_millis(100.0));
//! active.add_task("fft", fft);
//! let mut idle = TaskGraphBuilder::new("idle", Seconds::from_millis(100.0));
//! idle.add_task("fft", fft);
//!
//! let mut omsm = OmsmBuilder::new();
//! let m_active = omsm.add_mode("active", 0.1, active.build()?);
//! let m_idle = omsm.add_mode("idle", 0.9, idle.build()?);
//! omsm.add_transition(m_active, m_idle, Seconds::from_millis(10.0))?;
//! omsm.add_transition(m_idle, m_active, Seconds::from_millis(10.0))?;
//!
//! let system = System::new("demo", omsm.build()?, arch.build()?, tech.build())?;
//! assert_eq!(system.omsm().mode_count(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arch;
pub mod dot;
pub mod error;
pub mod ids;
pub mod omsm;
pub mod system;
pub mod task_graph;
pub mod tech;
pub mod units;
pub mod usage;
mod wire;

pub use arch::{Architecture, ArchitectureBuilder, Cl, DvsCapability, Pe, PeKind};
pub use error::ModelError;
pub use omsm::{Mode, Omsm, OmsmBuilder, Transition, PROBABILITY_SUM_TOLERANCE};
pub use system::{ModeRef, System};
pub use task_graph::{Comm, Task, TaskGraph, TaskGraphBuilder};
pub use tech::{Implementation, TechLibrary, TechLibraryBuilder};
pub use usage::{UsageError, UsageModel};
