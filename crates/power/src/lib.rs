//! Probability-weighted power and energy accounting for multi-mode
//! embedded systems.
//!
//! Implements Equation 1 of the DATE 2003 paper: the system's average
//! power is the probability-weighted sum of each mode's dynamic power
//! (activity energy per hyper-period) and static power (components that
//! cannot be shut down during the mode). Component shut-down is derived
//! from the schedules themselves: a PE is powered only when it executes a
//! task in the mode, a link only when it carries a transfer.
//!
//! # Examples
//!
//! See [`power_report`] and the `quickstart` example of the workspace
//! root crate.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod breakdown;
pub mod report;

pub use breakdown::{
    battery_energy, battery_lifetime, energy_breakdown, ComponentId, ComponentPower,
    EnergyBreakdown,
};
pub use report::{
    mode_power, power_report, power_report_with, price_mode, uniform_weights, ActiveSet,
    ModeImplementation, ModePower, ModeSums, PowerReport,
};
