//! Static schedules for a single operational mode.
//!
//! A [`Schedule`] fixes, for one mode, the start and finish times of every
//! task and of every remote communication (the scheduling function `Sε^O`
//! of the paper), together with the resource each activity occupies and the
//! order of activities per resource. The per-resource sequences are what
//! the voltage-scaling layer needs to rebuild the schedule's constraint
//! graph without re-running the scheduler.

use serde::{Deserialize, Serialize};

use momsynth_model::ids::{ClId, CommId, ModeId, PeId, TaskId, TaskTypeId};
use momsynth_model::task_graph::TaskGraph;
use momsynth_model::units::Seconds;
use momsynth_model::System;

/// An activity: either a task or a (remote) communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ActivityId {
    /// A computational task.
    Task(TaskId),
    /// A communication edge routed over a link.
    Comm(CommId),
}

/// The resource an activity executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ResourceKey {
    /// A software PE: one sequential execution server.
    SwPe(PeId),
    /// One instance of a hardware core: `(pe, task type, instance index)`.
    HwCore(PeId, TaskTypeId, usize),
    /// A communication link.
    Link(ClId),
}

impl ResourceKey {
    /// Returns the PE this resource belongs to, if it is a PE resource.
    pub fn pe(&self) -> Option<PeId> {
        match self {
            Self::SwPe(pe) | Self::HwCore(pe, _, _) => Some(*pe),
            Self::Link(_) => None,
        }
    }

    /// Returns the link this resource is, if it is a link.
    pub fn link(&self) -> Option<ClId> {
        match self {
            Self::Link(cl) => Some(*cl),
            _ => None,
        }
    }
}

/// A scheduled task entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledTask {
    /// The task.
    pub task: TaskId,
    /// The PE executing the task.
    pub pe: PeId,
    /// The exact resource (software server or hardware core instance).
    pub resource: ResourceKey,
    /// Start time within the mode's hyper-period.
    pub start: Seconds,
    /// Nominal execution time at `V_max` on the mapped PE.
    pub exec_time: Seconds,
}

impl ScheduledTask {
    /// Finish time (`start + exec_time`).
    pub fn finish(&self) -> Seconds {
        self.start + self.exec_time
    }
}

/// A scheduled remote communication entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledComm {
    /// The communication edge.
    pub comm: CommId,
    /// The link carrying the transfer.
    pub cl: ClId,
    /// Start time within the mode's hyper-period.
    pub start: Seconds,
    /// Transfer duration.
    pub duration: Seconds,
}

impl ScheduledComm {
    /// Finish time (`start + duration`).
    pub fn finish(&self) -> Seconds {
        self.start + self.duration
    }
}

/// The timing of one mode's schedule, borrowed: every task's entry in
/// task-id order and the comm table in comm-id order. A [`Schedule`]
/// lends one through [`Schedule::view`], and the list scheduler's
/// scratch after a pass through
/// [`list_schedule`](crate::list::list_schedule) and
/// [`ListScratch::view`](crate::list::ListScratch::view); pricing and
/// lateness read nothing else of a schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleView<'a> {
    mode: ModeId,
    tasks: &'a [ScheduledTask],
    comms: &'a [Option<ScheduledComm>],
}

impl<'a> ScheduleView<'a> {
    /// A view of `tasks`, indexed by task id, and `comms`, indexed by
    /// comm id with `None` for a local transfer: the layout a
    /// [`Schedule`] keeps, e.g. a voltage-scaled copy of another view's
    /// timing.
    pub fn new(
        mode: ModeId,
        tasks: &'a [ScheduledTask],
        comms: &'a [Option<ScheduledComm>],
    ) -> Self {
        Self { mode, tasks, comms }
    }

    /// Returns the mode this schedule implements.
    pub fn mode(&self) -> ModeId {
        self.mode
    }

    /// Every scheduled task in task-id order.
    pub fn tasks(&self) -> &'a [ScheduledTask] {
        self.tasks
    }

    /// The comm table in comm-id order: `None` marks a local transfer.
    pub fn comms(&self) -> &'a [Option<ScheduledComm>] {
        self.comms
    }

    /// Iterates over all remote communications in comm-id order.
    pub fn remote_comms(&self) -> impl Iterator<Item = &'a ScheduledComm> + 'a {
        self.comms.iter().flatten()
    }

    /// Total lateness against effective deadlines: `Σ max(0, finish −
    /// min(θ, φ))` over the tasks in task-id order, plus each remote
    /// communication's overrun of the hyper-period in comm-id order.
    /// Zero means the schedule is timing-feasible. The one lateness
    /// function: [`Schedule::total_lateness`] is this.
    pub fn total_lateness(&self, graph: &TaskGraph) -> Seconds {
        let mut late = Seconds::ZERO;
        for entry in self.tasks {
            let deadline = graph.effective_deadline(entry.task);
            late += (entry.finish() - deadline).clamp_non_negative();
        }
        for comm in self.remote_comms() {
            late += (comm.finish() - graph.period()).clamp_non_negative();
        }
        late
    }
}

/// A complete static schedule of one mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    mode: ModeId,
    tasks: Vec<ScheduledTask>,
    /// Indexed by [`CommId`]; `None` marks a PE-local transfer (free).
    comms: Vec<Option<ScheduledComm>>,
    /// Execution order per resource, as produced by the scheduler.
    sequences: Vec<(ResourceKey, Vec<ActivityId>)>,
}

impl Schedule {
    /// Assembles a schedule from its parts. Intended for the scheduler and
    /// for tests; invariants (entries sorted by task id, sequences
    /// time-ordered) are the caller's responsibility.
    pub fn from_parts(
        mode: ModeId,
        tasks: Vec<ScheduledTask>,
        comms: Vec<Option<ScheduledComm>>,
        sequences: Vec<(ResourceKey, Vec<ActivityId>)>,
    ) -> Self {
        Self { mode, tasks, comms, sequences }
    }

    /// Returns the mode this schedule implements.
    pub fn mode(&self) -> ModeId {
        self.mode
    }

    /// The schedule's timing, borrowed: what pricing and lateness read.
    pub fn view(&self) -> ScheduleView<'_> {
        ScheduleView::new(self.mode, &self.tasks, &self.comms)
    }

    /// Returns the scheduled entry of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn task(&self, task: TaskId) -> &ScheduledTask {
        &self.tasks[task.index()]
    }

    /// Iterates over all scheduled tasks in task-id order.
    pub fn tasks(&self) -> impl Iterator<Item = &ScheduledTask> + '_ {
        self.tasks.iter()
    }

    /// Returns the scheduled entry of `comm`, or `None` for a local transfer.
    ///
    /// # Panics
    ///
    /// Panics if `comm` is out of range.
    pub fn comm(&self, comm: CommId) -> Option<&ScheduledComm> {
        self.comms[comm.index()].as_ref()
    }

    /// Returns the length of the comm table: one entry per communication
    /// edge of the mode, local ones included.
    pub fn comm_count(&self) -> usize {
        self.comms.len()
    }

    /// Iterates over all remote communications.
    pub fn remote_comms(&self) -> impl Iterator<Item = &ScheduledComm> + '_ {
        self.comms.iter().flatten()
    }

    /// Returns the per-resource execution sequences.
    pub fn sequences(&self) -> &[(ResourceKey, Vec<ActivityId>)] {
        &self.sequences
    }

    /// Returns the time the last activity finishes.
    pub fn makespan(&self) -> Seconds {
        let task_end =
            self.tasks.iter().map(ScheduledTask::finish).fold(Seconds::ZERO, Seconds::max);
        let comm_end =
            self.remote_comms().map(ScheduledComm::finish).fold(Seconds::ZERO, Seconds::max);
        task_end.max(comm_end)
    }

    /// Total lateness against effective deadlines: `Σ max(0, finish − min(θ, φ))`,
    /// plus any overrun of the hyper-period by communications. Zero means
    /// the schedule is timing-feasible. See [`ScheduleView::total_lateness`].
    pub fn total_lateness(&self, graph: &TaskGraph) -> Seconds {
        self.view().total_lateness(graph)
    }

    /// Returns `true` when every task meets `min(θ, φ)` and every
    /// communication fits inside the hyper-period.
    pub fn is_timing_feasible(&self, graph: &TaskGraph) -> bool {
        self.total_lateness(graph) <= Seconds::new(1e-12)
    }

    /// Renders a textual Gantt chart (one row per resource) for inspection
    /// in examples and debugging sessions.
    pub fn to_gantt_string(&self, system: &System) -> String {
        let mut out = String::new();
        let graph = system.omsm().mode(self.mode).graph();
        out.push_str(&format!(
            "mode {} `{}` (period {:.3})\n",
            self.mode,
            graph.name(),
            graph.period()
        ));
        for (res, acts) in &self.sequences {
            let label = match res {
                ResourceKey::SwPe(pe) => format!("{} [{}]", system.arch().pe(*pe).name(), pe),
                ResourceKey::HwCore(pe, ty, inst) => format!(
                    "{} [{}] core {}#{}",
                    system.arch().pe(*pe).name(),
                    pe,
                    system.tech().type_name(*ty),
                    inst
                ),
                ResourceKey::Link(cl) => format!("{} [{}]", system.arch().cl(*cl).name(), cl),
            };
            out.push_str(&format!("  {label}:\n"));
            for act in acts {
                match act {
                    ActivityId::Task(t) => {
                        let e = self.task(*t);
                        out.push_str(&format!(
                            "    {:<12} {:>10.6}s .. {:>10.6}s  ({})\n",
                            graph.task(*t).name(),
                            e.start.value(),
                            e.finish().value(),
                            t
                        ));
                    }
                    ActivityId::Comm(c) => {
                        if let Some(e) = self.comm(*c) {
                            let edge = graph.comm(*c);
                            out.push_str(&format!(
                                "    {:<12} {:>10.6}s .. {:>10.6}s  ({}->{})\n",
                                format!("xfer {c}"),
                                e.start.value(),
                                e.finish().value(),
                                edge.src(),
                                edge.dst()
                            ));
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::{ids::TaskTypeId, TaskGraphBuilder};

    fn chain_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("chain", Seconds::new(1.0));
        let a = b.add_task("a", TaskTypeId::new(0));
        let c = b.add_task_with_deadline("c", TaskTypeId::new(0), Seconds::new(0.5));
        b.add_comm(a, c, 10.0).unwrap();
        b.build().unwrap()
    }

    fn sample_schedule(c_start: f64) -> Schedule {
        let t0 = ScheduledTask {
            task: TaskId::new(0),
            pe: PeId::new(0),
            resource: ResourceKey::SwPe(PeId::new(0)),
            start: Seconds::ZERO,
            exec_time: Seconds::new(0.2),
        };
        let comm = ScheduledComm {
            comm: CommId::new(0),
            cl: ClId::new(0),
            start: Seconds::new(0.2),
            duration: Seconds::new(0.05),
        };
        let t1 = ScheduledTask {
            task: TaskId::new(1),
            pe: PeId::new(1),
            resource: ResourceKey::HwCore(PeId::new(1), TaskTypeId::new(0), 0),
            start: Seconds::new(c_start),
            exec_time: Seconds::new(0.1),
        };
        Schedule::from_parts(
            ModeId::new(0),
            vec![t0, t1],
            vec![Some(comm)],
            vec![
                (ResourceKey::SwPe(PeId::new(0)), vec![ActivityId::Task(TaskId::new(0))]),
                (ResourceKey::Link(ClId::new(0)), vec![ActivityId::Comm(CommId::new(0))]),
                (
                    ResourceKey::HwCore(PeId::new(1), TaskTypeId::new(0), 0),
                    vec![ActivityId::Task(TaskId::new(1))],
                ),
            ],
        )
    }

    #[test]
    fn makespan_is_last_finish() {
        let s = sample_schedule(0.25);
        assert!((s.makespan().value() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn feasible_schedule_has_zero_lateness() {
        let g = chain_graph();
        let s = sample_schedule(0.25);
        assert_eq!(s.total_lateness(&g), Seconds::ZERO);
        assert!(s.is_timing_feasible(&g));
    }

    #[test]
    fn late_task_accumulates_lateness() {
        let g = chain_graph();
        // Task c finishes at 0.6 against a 0.5 deadline -> 0.1 late.
        let s = sample_schedule(0.5);
        assert!((s.total_lateness(&g).value() - 0.1).abs() < 1e-12);
        assert!(!s.is_timing_feasible(&g));
    }

    #[test]
    fn resource_key_accessors() {
        assert_eq!(ResourceKey::SwPe(PeId::new(2)).pe(), Some(PeId::new(2)));
        assert_eq!(
            ResourceKey::HwCore(PeId::new(1), TaskTypeId::new(0), 3).pe(),
            Some(PeId::new(1))
        );
        assert_eq!(ResourceKey::Link(ClId::new(0)).pe(), None);
        assert_eq!(ResourceKey::Link(ClId::new(4)).link(), Some(ClId::new(4)));
        assert_eq!(ResourceKey::SwPe(PeId::new(0)).link(), None);
    }

    #[test]
    fn comm_lookup_distinguishes_local_and_remote() {
        let s = sample_schedule(0.25);
        assert!(s.comm(CommId::new(0)).is_some());
        assert_eq!(s.remote_comms().count(), 1);
    }

    #[test]
    fn serde_round_trip() {
        let s = sample_schedule(0.25);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<Schedule>(&json).unwrap(), s);
    }
}
