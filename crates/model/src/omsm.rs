//! The top-level specification: the operational mode state machine (OMSM).
//!
//! An [`Omsm`] `ϒ(Ω, Θ)` is a directed cyclic graph whose nodes are
//! [`Mode`]s and whose edges are [`Transition`]s. At any time exactly one
//! mode is active (modes are mutually exclusive). Each mode carries its
//! execution probability `Ψ_O` — the fraction of operational time the
//! device spends in it — and a [`TaskGraph`] describing its functionality.
//! Each transition carries a maximal transition time `t_T^max` that any
//! implementation (e.g. FPGA reconfiguration) must respect.
//!
//! # Examples
//!
//! ```
//! use momsynth_model::{OmsmBuilder, TaskGraphBuilder};
//! use momsynth_model::ids::TaskTypeId;
//! use momsynth_model::units::Seconds;
//!
//! # fn main() -> Result<(), momsynth_model::ModelError> {
//! let mut g1 = TaskGraphBuilder::new("standby", Seconds::from_millis(20.0));
//! g1.add_task("rlc", TaskTypeId::new(0));
//! let mut g2 = TaskGraphBuilder::new("call", Seconds::from_millis(20.0));
//! g2.add_task("codec", TaskTypeId::new(1));
//!
//! let mut b = OmsmBuilder::new();
//! let standby = b.add_mode("standby", 0.9, g1.build()?);
//! let call = b.add_mode("call", 0.1, g2.build()?);
//! b.add_transition(standby, call, Seconds::from_millis(5.0))?;
//! b.add_transition(call, standby, Seconds::from_millis(5.0))?;
//! let omsm = b.build()?;
//! assert_eq!(omsm.mode_count(), 2);
//! assert!((omsm.mode(standby).probability() - 0.9).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::ids::{ModeId, TransitionId};
use crate::task_graph::TaskGraph;
use crate::units::Seconds;
use crate::wire;

/// Tolerance accepted when checking that mode probabilities sum to one.
pub const PROBABILITY_SUM_TOLERANCE: f64 = 1e-6;

/// One operational mode: a name, an execution probability and a task graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mode {
    name: String,
    probability: f64,
    graph: TaskGraph,
}

impl Mode {
    /// Returns the mode's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the execution probability `Ψ_O` of this mode.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// Returns the mode's functional specification.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }
}

/// A mode change with its maximal allowed transition time `t_T^max`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    from: ModeId,
    to: ModeId,
    max_time: Seconds,
}

impl Transition {
    /// Returns the source mode.
    pub fn from(&self) -> ModeId {
        self.from
    }

    /// Returns the destination mode.
    pub fn to(&self) -> ModeId {
        self.to
    }

    /// Returns the maximal allowed transition time.
    pub fn max_time(&self) -> Seconds {
        self.max_time
    }
}

/// A validated operational mode state machine.
///
/// A deserialised machine is rebuilt through [`OmsmBuilder`], so a spec
/// with a dangling transition or probabilities that do not sum to one
/// fails to load with the builder's [`ModelError`] reason.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Omsm {
    modes: Vec<Mode>,
    transitions: Vec<Transition>,
}

impl<'de> Deserialize<'de> for Omsm {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let wire::Omsm { modes, transitions } = Deserialize::from_value(value)?;
        let mut builder = OmsmBuilder { modes, transitions: Vec::new() };
        for t in transitions {
            builder.add_transition(t.from, t.to, t.max_time).map_err(serde::Error::custom)?;
        }
        builder.build().map_err(serde::Error::custom)
    }
}

impl Omsm {
    /// Returns the number of modes.
    pub fn mode_count(&self) -> usize {
        self.modes.len()
    }

    /// Returns the number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Returns the mode with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this OMSM.
    pub fn mode(&self, id: ModeId) -> &Mode {
        &self.modes[id.index()]
    }

    /// Iterates over `(id, mode)` pairs in identifier order.
    pub fn modes(&self) -> impl Iterator<Item = (ModeId, &Mode)> + '_ {
        self.modes.iter().enumerate().map(|(i, m)| (ModeId::new(i), m))
    }

    /// Returns all mode identifiers.
    pub fn mode_ids(&self) -> impl Iterator<Item = ModeId> + '_ {
        (0..self.modes.len()).map(ModeId::new)
    }

    /// Returns the transition with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this OMSM.
    pub fn transition(&self, id: TransitionId) -> &Transition {
        &self.transitions[id.index()]
    }

    /// Iterates over `(id, transition)` pairs in identifier order.
    pub fn transitions(&self) -> impl Iterator<Item = (TransitionId, &Transition)> + '_ {
        self.transitions.iter().enumerate().map(|(i, t)| (TransitionId::new(i), t))
    }

    /// Iterates over transitions leaving `mode`.
    pub fn transitions_from(&self, mode: ModeId) -> impl Iterator<Item = &Transition> + '_ {
        self.transitions.iter().filter(move |t| t.from == mode)
    }

    /// Total number of tasks across all modes.
    pub fn total_task_count(&self) -> usize {
        self.modes.iter().map(|m| m.graph.task_count()).sum()
    }

    /// Total number of communication edges across all modes.
    pub fn total_comm_count(&self) -> usize {
        self.modes.iter().map(|m| m.graph.comm_count()).sum()
    }

    /// Returns a copy of this machine with replaced execution
    /// probabilities — the tool for per-user-profile sensitivity studies
    /// (see [`crate::usage`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidProbabilities`] or
    /// [`ModelError::InvalidProbability`] under the same rules as
    /// [`OmsmBuilder::build`], and [`ModelError::NoModes`] when
    /// `probabilities` has the wrong length.
    ///
    /// # Examples
    ///
    /// ```
    /// # use momsynth_model::{OmsmBuilder, TaskGraphBuilder};
    /// # use momsynth_model::ids::{ModeId, TaskTypeId};
    /// # use momsynth_model::units::Seconds;
    /// # fn graph(name: &str) -> momsynth_model::TaskGraph {
    /// #     let mut b = TaskGraphBuilder::new(name, Seconds::new(1.0));
    /// #     b.add_task("t", TaskTypeId::new(0));
    /// #     b.build().unwrap()
    /// # }
    /// let mut b = OmsmBuilder::new();
    /// b.add_mode("a", 0.5, graph("a"));
    /// b.add_mode("b", 0.5, graph("b"));
    /// let omsm = b.build().unwrap();
    /// let skewed = omsm.with_probabilities(&[0.9, 0.1]).unwrap();
    /// assert!((skewed.mode(ModeId::new(0)).probability() - 0.9).abs() < 1e-12);
    /// ```
    pub fn with_probabilities(&self, probabilities: &[f64]) -> Result<Self, ModelError> {
        if probabilities.len() != self.modes.len() {
            return Err(ModelError::NoModes);
        }
        let mut builder = OmsmBuilder::new();
        for (mode, &p) in self.modes.iter().zip(probabilities) {
            builder.add_mode(mode.name.clone(), p, mode.graph.clone());
        }
        for t in &self.transitions {
            builder.add_transition(t.from, t.to, t.max_time)?;
        }
        builder.build()
    }
}

/// Incremental builder for [`Omsm`].
#[derive(Debug, Clone, Default)]
pub struct OmsmBuilder {
    modes: Vec<Mode>,
    transitions: Vec<Transition>,
}

impl OmsmBuilder {
    /// Starts an empty OMSM.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a mode and returns its identifier.
    pub fn add_mode(
        &mut self,
        name: impl Into<String>,
        probability: f64,
        graph: TaskGraph,
    ) -> ModeId {
        let id = ModeId::new(self.modes.len());
        self.modes.push(Mode { name: name.into(), probability, graph });
        id
    }

    /// Adds a transition between two distinct modes.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownMode`] if either endpoint was not added,
    /// [`ModelError::SelfTransition`] if `from == to`, and
    /// [`ModelError::InvalidTransitionTime`] for a non-positive or
    /// non-finite `max_time`.
    pub fn add_transition(
        &mut self,
        from: ModeId,
        to: ModeId,
        max_time: Seconds,
    ) -> Result<TransitionId, ModelError> {
        for &m in &[from, to] {
            if m.index() >= self.modes.len() {
                return Err(ModelError::UnknownMode { mode: m });
            }
        }
        let id = TransitionId::new(self.transitions.len());
        if from == to {
            return Err(ModelError::SelfTransition { transition: id });
        }
        if !(max_time.value() > 0.0 && max_time.is_finite()) {
            return Err(ModelError::InvalidTransitionTime { transition: id });
        }
        self.transitions.push(Transition { from, to, max_time });
        Ok(id)
    }

    /// Validates the state machine and freezes it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoModes`] for an empty machine,
    /// [`ModelError::InvalidProbability`] for a negative or non-finite mode
    /// probability, and [`ModelError::InvalidProbabilities`] when the
    /// probabilities do not sum to one (within
    /// [`PROBABILITY_SUM_TOLERANCE`]).
    pub fn build(self) -> Result<Omsm, ModelError> {
        if self.modes.is_empty() {
            return Err(ModelError::NoModes);
        }
        let mut sum = 0.0;
        for (i, m) in self.modes.iter().enumerate() {
            if !(m.probability >= 0.0 && m.probability.is_finite()) {
                return Err(ModelError::InvalidProbability {
                    mode: ModeId::new(i),
                    probability: m.probability,
                });
            }
            sum += m.probability;
        }
        if (sum - 1.0).abs() > PROBABILITY_SUM_TOLERANCE {
            return Err(ModelError::InvalidProbabilities { sum });
        }
        Ok(Omsm { modes: self.modes, transitions: self.transitions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TaskTypeId;
    use crate::task_graph::TaskGraphBuilder;

    fn tiny_graph(name: &str) -> TaskGraph {
        let mut b = TaskGraphBuilder::new(name, Seconds::new(1.0));
        b.add_task("t", TaskTypeId::new(0));
        b.build().unwrap()
    }

    fn two_mode_builder() -> (OmsmBuilder, ModeId, ModeId) {
        let mut b = OmsmBuilder::new();
        let m0 = b.add_mode("a", 0.25, tiny_graph("a"));
        let m1 = b.add_mode("b", 0.75, tiny_graph("b"));
        (b, m0, m1)
    }

    #[test]
    fn builds_valid_machine() {
        let (mut b, m0, m1) = two_mode_builder();
        b.add_transition(m0, m1, Seconds::new(0.01)).unwrap();
        b.add_transition(m1, m0, Seconds::new(0.02)).unwrap();
        let omsm = b.build().unwrap();
        assert_eq!(omsm.mode_count(), 2);
        assert_eq!(omsm.transition_count(), 2);
        assert_eq!(omsm.mode(m1).name(), "b");
        assert_eq!(omsm.transitions_from(m0).count(), 1);
        assert_eq!(omsm.total_task_count(), 2);
        assert_eq!(omsm.total_comm_count(), 0);
    }

    #[test]
    fn rejects_empty_machine() {
        assert!(matches!(OmsmBuilder::new().build(), Err(ModelError::NoModes)));
    }

    #[test]
    fn rejects_probability_sum_mismatch() {
        let mut b = OmsmBuilder::new();
        b.add_mode("a", 0.3, tiny_graph("a"));
        b.add_mode("b", 0.3, tiny_graph("b"));
        assert!(matches!(b.build(), Err(ModelError::InvalidProbabilities { .. })));
    }

    #[test]
    fn accepts_probability_sum_within_tolerance() {
        let mut b = OmsmBuilder::new();
        b.add_mode("a", 0.3 + 1e-9, tiny_graph("a"));
        b.add_mode("b", 0.7, tiny_graph("b"));
        assert!(b.build().is_ok());
    }

    #[test]
    fn rejects_negative_or_nan_probability() {
        let mut b = OmsmBuilder::new();
        b.add_mode("a", -0.1, tiny_graph("a"));
        b.add_mode("b", 1.1, tiny_graph("b"));
        assert!(matches!(b.build(), Err(ModelError::InvalidProbability { .. })));

        let mut b = OmsmBuilder::new();
        b.add_mode("a", f64::NAN, tiny_graph("a"));
        assert!(matches!(b.build(), Err(ModelError::InvalidProbability { .. })));
    }

    #[test]
    fn zero_probability_mode_is_allowed() {
        let mut b = OmsmBuilder::new();
        b.add_mode("init", 0.0, tiny_graph("init"));
        b.add_mode("run", 1.0, tiny_graph("run"));
        assert!(b.build().is_ok());
    }

    #[test]
    fn rejects_bad_transitions() {
        let (mut b, m0, _) = two_mode_builder();
        assert!(matches!(
            b.add_transition(m0, m0, Seconds::new(0.01)),
            Err(ModelError::SelfTransition { .. })
        ));
        assert!(matches!(
            b.add_transition(m0, ModeId::new(9), Seconds::new(0.01)),
            Err(ModelError::UnknownMode { .. })
        ));
        assert!(matches!(
            b.add_transition(m0, ModeId::new(1), Seconds::ZERO),
            Err(ModelError::InvalidTransitionTime { .. })
        ));
    }

    #[test]
    fn serde_round_trip_preserves_machine() {
        let (mut b, m0, m1) = two_mode_builder();
        b.add_transition(m0, m1, Seconds::new(0.01)).unwrap();
        let omsm = b.build().unwrap();
        let json = serde_json::to_string(&omsm).unwrap();
        let back: Omsm = serde_json::from_str(&json).unwrap();
        assert_eq!(back, omsm);
    }
}
