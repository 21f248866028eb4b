//! Error types for model construction and validation.

use std::fmt;

use crate::ids::{ModeId, PeId, TaskId, TaskTypeId, TransitionId};

/// Error produced while building or validating a model.
///
/// # Examples
///
/// ```
/// use momsynth_model::{ModelError, TaskGraphBuilder};
/// use momsynth_model::ids::{TaskId, TaskTypeId};
/// use momsynth_model::units::Seconds;
///
/// let mut b = TaskGraphBuilder::new("m", Seconds::new(1.0));
/// let t = b.add_task("t0", TaskTypeId::new(0));
/// let err = b.add_comm(t, TaskId::new(99), 1.0).unwrap_err();
/// assert!(matches!(err, ModelError::UnknownTask { .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A task graph contains a dependency cycle.
    CycleDetected {
        /// Name of the offending task graph.
        graph: String,
    },
    /// An edge references a task that does not exist.
    UnknownTask {
        /// The missing task.
        task: TaskId,
        /// Name of the offending task graph.
        graph: String,
    },
    /// An edge connects a task to itself.
    SelfLoop {
        /// The offending task.
        task: TaskId,
        /// Name of the offending task graph.
        graph: String,
    },
    /// A task graph repetition period must be positive and finite.
    InvalidPeriod {
        /// Name of the offending task graph.
        graph: String,
        /// The rejected period value in seconds.
        period: f64,
    },
    /// A task deadline must be positive and finite.
    InvalidDeadline {
        /// The offending task.
        task: TaskId,
        /// Name of the offending task graph.
        graph: String,
    },
    /// A communication edge carries a negative or non-finite data volume.
    InvalidDataUnits {
        /// Name of the offending task graph.
        graph: String,
        /// The producing task.
        src: TaskId,
        /// The consuming task.
        dst: TaskId,
        /// The rejected volume.
        data_units: f64,
    },
    /// A task graph has no tasks.
    EmptyGraph {
        /// Name of the offending task graph.
        graph: String,
    },
    /// An OMSM has no modes.
    NoModes,
    /// Mode execution probabilities must be non-negative and sum to one.
    InvalidProbabilities {
        /// The actual sum of all mode probabilities.
        sum: f64,
    },
    /// A single mode probability is negative or non-finite.
    InvalidProbability {
        /// The offending mode.
        mode: ModeId,
        /// The rejected probability.
        probability: f64,
    },
    /// A transition references a mode that does not exist.
    UnknownMode {
        /// The missing mode.
        mode: ModeId,
    },
    /// A transition connects a mode to itself.
    SelfTransition {
        /// The offending transition.
        transition: TransitionId,
    },
    /// A transition time limit must be positive and finite.
    InvalidTransitionTime {
        /// The offending transition.
        transition: TransitionId,
    },
    /// An architecture has no processing elements.
    NoPes,
    /// A communication link references a processing element that does not exist.
    UnknownPe {
        /// The missing processing element.
        pe: PeId,
    },
    /// A communication link must connect at least two processing elements.
    DegenerateLink {
        /// Name of the offending link.
        link: String,
    },
    /// A communication link's transfer time or power is negative or
    /// non-finite.
    InvalidLink {
        /// Name of the offending link.
        link: String,
        /// Human-readable description of the defect.
        reason: String,
    },
    /// A processing element's static power or reconfiguration time is
    /// negative or non-finite.
    InvalidPe {
        /// Name of the offending processing element.
        pe: String,
        /// Human-readable description of the defect.
        reason: String,
    },
    /// A DVS capability is malformed (empty levels, levels above `v_max`,
    /// or threshold voltage not below the lowest level).
    InvalidDvs {
        /// Name of the offending processing element.
        pe: String,
        /// Human-readable description of the defect.
        reason: String,
    },
    /// A task type has no implementation on any processing element.
    UnimplementableType {
        /// The offending task type.
        task_type: TaskTypeId,
    },
    /// A technology-library entry is malformed (non-positive time, negative
    /// power, or area on a software processing element).
    InvalidImplementation {
        /// The offending task type.
        task_type: TaskTypeId,
        /// The target processing element.
        pe: PeId,
        /// Human-readable description of the defect.
        reason: String,
    },
    /// A task references a task type outside the technology library.
    UnknownTaskType {
        /// The missing task type.
        task_type: TaskTypeId,
    },
    /// Two processing elements host tasks that must communicate but share no
    /// communication link.
    Unreachable {
        /// Source processing element.
        from: PeId,
        /// Destination processing element.
        to: PeId,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CycleDetected { graph } => {
                write!(f, "task graph `{graph}` contains a dependency cycle")
            }
            Self::UnknownTask { task, graph } => {
                write!(f, "task graph `{graph}` references unknown task {task}")
            }
            Self::SelfLoop { task, graph } => {
                write!(f, "task graph `{graph}` contains a self-loop on {task}")
            }
            Self::InvalidPeriod { graph, period } => {
                write!(f, "task graph `{graph}` has invalid period {period} s")
            }
            Self::InvalidDeadline { task, graph } => {
                write!(f, "task {task} in graph `{graph}` has an invalid deadline")
            }
            Self::InvalidDataUnits { graph, src, dst, data_units } => write!(
                f,
                "task graph `{graph}` has invalid data volume {data_units} on {src} -> {dst}"
            ),
            Self::EmptyGraph { graph } => write!(f, "task graph `{graph}` has no tasks"),
            Self::NoModes => write!(f, "operational mode state machine has no modes"),
            Self::InvalidProbabilities { sum } => {
                write!(f, "mode execution probabilities sum to {sum}, expected 1")
            }
            Self::InvalidProbability { mode, probability } => {
                write!(f, "mode {mode} has invalid execution probability {probability}")
            }
            Self::UnknownMode { mode } => write!(f, "reference to unknown mode {mode}"),
            Self::SelfTransition { transition } => {
                write!(f, "transition {transition} connects a mode to itself")
            }
            Self::InvalidTransitionTime { transition } => {
                write!(f, "transition {transition} has an invalid time limit")
            }
            Self::NoPes => write!(f, "architecture has no processing elements"),
            Self::UnknownPe { pe } => write!(f, "reference to unknown processing element {pe}"),
            Self::DegenerateLink { link } => {
                write!(f, "communication link `{link}` connects fewer than two PEs")
            }
            Self::InvalidLink { link, reason } => {
                write!(f, "communication link `{link}` is invalid: {reason}")
            }
            Self::InvalidPe { pe, reason } => {
                write!(f, "processing element `{pe}` is invalid: {reason}")
            }
            Self::InvalidDvs { pe, reason } => {
                write!(f, "processing element `{pe}` has invalid DVS capability: {reason}")
            }
            Self::UnimplementableType { task_type } => {
                write!(f, "task type {task_type} has no implementation on any PE")
            }
            Self::InvalidImplementation { task_type, pe, reason } => {
                write!(f, "implementation of {task_type} on {pe} is invalid: {reason}")
            }
            Self::UnknownTaskType { task_type } => {
                write!(f, "reference to unknown task type {task_type}")
            }
            Self::Unreachable { from, to } => {
                write!(f, "no communication link connects {from} and {to}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = ModelError::CycleDetected { graph: "gsm".into() };
        let msg = e.to_string();
        assert!(msg.contains("gsm"));
        assert!(msg.contains("cycle"));

        let e = ModelError::InvalidProbabilities { sum: 0.5 };
        assert!(e.to_string().contains("0.5"));

        let e = ModelError::Unreachable { from: PeId::new(0), to: PeId::new(2) };
        assert!(e.to_string().contains("PE0"));
        assert!(e.to_string().contains("PE2"));
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: Send + Sync + 'static>() {}
        assert_bounds::<ModelError>();
    }
}
