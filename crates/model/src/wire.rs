//! The serialised shapes of the model types that rebuild themselves
//! through their builders on load, so a spec read from JSON passes the
//! same checks as one built in code.

use serde::Deserialize;

use crate::arch::{Architecture as Arch, Cl, Pe};
use crate::ids::PeId;
use crate::omsm::{Mode, Omsm as Machine, Transition};
use crate::task_graph::{Comm, Task};
use crate::tech::{Implementation, TechLibrary as Library};
use crate::units::{Seconds, Volts};

#[derive(Deserialize)]
pub(crate) struct DvsCapability {
    pub(crate) v_max: Volts,
    pub(crate) v_threshold: Volts,
    pub(crate) levels: Vec<Volts>,
}

#[derive(Deserialize)]
pub(crate) struct Architecture {
    pub(crate) pes: Vec<Pe>,
    pub(crate) cls: Vec<Cl>,
}

/// A task graph's builder input; a file's `succs`, `preds` and `topo`
/// keys are ignored and re-derived.
#[derive(Deserialize)]
pub(crate) struct TaskGraph {
    pub(crate) name: String,
    pub(crate) period: Seconds,
    pub(crate) tasks: Vec<Task>,
    pub(crate) comms: Vec<Comm>,
}

#[derive(Deserialize)]
pub(crate) struct Omsm {
    pub(crate) modes: Vec<Mode>,
    pub(crate) transitions: Vec<Transition>,
}

#[derive(Deserialize)]
pub(crate) struct TechLibrary {
    pub(crate) type_names: Vec<String>,
    pub(crate) impls: Vec<Vec<(PeId, Implementation)>>,
}

#[derive(Deserialize)]
pub(crate) struct System {
    pub(crate) name: String,
    pub(crate) omsm: Machine,
    pub(crate) arch: Arch,
    pub(crate) tech: Library,
}
