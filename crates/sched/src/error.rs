//! Error types for mapping validation and scheduling.

use std::fmt;

use momsynth_model::ids::{ModeId, PeId, TaskId};

/// Error produced while validating a mapping or constructing a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SchedError {
    /// The mapping has the wrong number of modes or tasks for the system.
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A task is mapped to a PE that cannot implement its type.
    UnsupportedMapping {
        /// The mode containing the task.
        mode: ModeId,
        /// The offending task.
        task: TaskId,
        /// The PE lacking an implementation.
        pe: PeId,
    },
    /// Two tasks must communicate but their PEs share no link.
    NoRoute {
        /// The mode containing the communication.
        mode: ModeId,
        /// The producing PE.
        from: PeId,
        /// The consuming PE.
        to: PeId,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ShapeMismatch { detail } => {
                write!(f, "mapping shape does not match the system: {detail}")
            }
            Self::UnsupportedMapping { mode, task, pe } => {
                write!(
                    f,
                    "task {task} of mode {mode} is mapped to {pe}, which cannot implement its type"
                )
            }
            Self::NoRoute { mode, from, to } => {
                write!(f, "mode {mode}: no communication link connects {from} and {to}")
            }
        }
    }
}

impl std::error::Error for SchedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SchedError::NoRoute { mode: ModeId::new(1), from: PeId::new(0), to: PeId::new(2) };
        let msg = e.to_string();
        assert!(msg.contains("O1") && msg.contains("PE0") && msg.contains("PE2"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + 'static>() {}
        assert_bounds::<SchedError>();
    }
}
