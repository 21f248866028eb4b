//! Dynamic voltage scaling for distributed embedded schedules.
//!
//! Implements the voltage-scaling layer of the DATE 2003 multi-mode
//! co-synthesis flow:
//!
//! * [`VoltageModel`] — the alpha-power delay model and quadratic energy
//!   model of a DVS rail;
//! * [`VoltageSchedule`] — per-task voltage schedules over discrete supply
//!   levels, with the optimal two-adjacent-level split;
//! * [`hw_transform::virtual_tasks`] — the paper's Fig. 5 transformation
//!   of parallel single-rail hardware cores into sequential virtual tasks;
//! * [`scale_mode`] — PV-DVS greedy slack distribution over a mode's
//!   static schedule, stretching activities only into their slack
//!   against deadlines and the hyper-period, snapped to per-PE discrete
//!   levels; [`scale_pass`] runs the same kernel on the list scheduler's
//!   last pass, without a schedule.
//!
//! # Examples
//!
//! ```
//! use momsynth_dvs::VoltageModel;
//! use momsynth_model::units::{Seconds, Volts};
//!
//! let model = VoltageModel::new(Volts::new(3.3), Volts::new(0.8));
//! // Stretching a task 2x allows a much lower supply voltage …
//! let v = model.voltage_for_stretch(2.0);
//! assert!(v.value() < 2.5);
//! // … which cuts its dynamic energy by more than half.
//! assert!(model.energy_factor(v) < 0.5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hw_transform;
pub mod pvdvs;
pub mod voltage;
pub mod vschedule;

pub use hw_transform::{virtual_tasks, VirtualTask};
pub use pvdvs::{
    scale_mode, scale_mode_with, scale_pass, DvsOptions, DvsScratch, ScaledMode, ScaledPass,
};
pub use voltage::VoltageModel;
pub use vschedule::{VoltageSchedule, VoltageSegment};
