//! Per-mode functional specification: directed acyclic task graphs.
//!
//! Each operational mode of an [`Omsm`](crate::Omsm) is specified by a
//! [`TaskGraph`] `G_S(T, C)`: nodes are atomic, non-preemptable [`Task`]s
//! (coarse-grained functions such as *FFT* or *Huffman decoder*, classified
//! by a [`TaskTypeId`]), edges are [`Comm`]s carrying precedence constraints
//! and data volumes. The graph repeats with period `φ` (the mode's
//! hyper-period); individual tasks may carry tighter deadlines `θ`.
//!
//! Graphs are constructed through [`TaskGraphBuilder`] and validated once at
//! [`TaskGraphBuilder::build`]; a successfully built graph is immutable and
//! guaranteed acyclic, with adjacency and a topological order precomputed.
//!
//! # Examples
//!
//! ```
//! use momsynth_model::{TaskGraphBuilder, ids::TaskTypeId, units::Seconds};
//!
//! # fn main() -> Result<(), momsynth_model::ModelError> {
//! let mut b = TaskGraphBuilder::new("jpeg", Seconds::from_millis(25.0));
//! let hd = b.add_task("huffman", TaskTypeId::new(0));
//! let dq = b.add_task("dequant", TaskTypeId::new(1));
//! let idct = b.add_task("idct", TaskTypeId::new(2));
//! b.add_comm(hd, dq, 256.0)?;
//! b.add_comm(dq, idct, 256.0)?;
//! let graph = b.build()?;
//! assert_eq!(graph.task_count(), 3);
//! assert_eq!(graph.topological_order().len(), 3);
//! # Ok(())
//! # }
//! ```

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::ids::{CommId, TaskId, TaskTypeId};
use crate::units::Seconds;
use crate::wire;

/// An atomic, non-preemptable unit of functionality.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    name: String,
    task_type: TaskTypeId,
    deadline: Option<Seconds>,
}

impl Task {
    /// Returns the task's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the task's type, used for technology-library lookup and
    /// hardware-core sharing.
    pub fn task_type(&self) -> TaskTypeId {
        self.task_type
    }

    /// Returns the task's individual deadline `θ`, if any.
    pub fn deadline(&self) -> Option<Seconds> {
        self.deadline
    }
}

/// A precedence edge with an associated data volume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comm {
    src: TaskId,
    dst: TaskId,
    data_units: f64,
}

impl Comm {
    /// Returns the producing task.
    pub fn src(&self) -> TaskId {
        self.src
    }

    /// Returns the consuming task.
    pub fn dst(&self) -> TaskId {
        self.dst
    }

    /// Returns the transferred data volume in abstract units (the
    /// technology library defines per-unit link timing and power).
    pub fn data_units(&self) -> f64 {
        self.data_units
    }
}

/// An immutable, validated, acyclic task graph.
///
/// A graph is written as its builder input (name, period, tasks and
/// comms) and a deserialised graph is rebuilt through
/// [`TaskGraphBuilder`], so a spec with a cycle or a dangling comm fails
/// to load with the builder's [`ModelError`] reason.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    name: String,
    period: Seconds,
    tasks: Vec<Task>,
    comms: Vec<Comm>,
    succs: Vec<Vec<(CommId, TaskId)>>,
    preds: Vec<Vec<(CommId, TaskId)>>,
    topo: Vec<TaskId>,
}

impl Serialize for TaskGraph {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("name".to_owned(), self.name.to_value()),
            ("period".to_owned(), self.period.to_value()),
            ("tasks".to_owned(), self.tasks.to_value()),
            ("comms".to_owned(), self.comms.to_value()),
        ])
    }
}

impl<'de> Deserialize<'de> for TaskGraph {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let wire::TaskGraph { name, period, tasks, comms } = Deserialize::from_value(value)?;
        let mut builder = TaskGraphBuilder { name, period, tasks, comms: Vec::new() };
        for comm in comms {
            builder.add_comm(comm.src, comm.dst, comm.data_units).map_err(serde::Error::custom)?;
        }
        builder.build().map_err(serde::Error::custom)
    }
}

impl TaskGraph {
    /// Returns the graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the repetition period `φ` (the mode's hyper-period).
    pub fn period(&self) -> Seconds {
        self.period
    }

    /// Returns the number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Returns the number of communication edges.
    pub fn comm_count(&self) -> usize {
        self.comms.len()
    }

    /// Returns the task with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Returns the communication edge with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn comm(&self, id: CommId) -> &Comm {
        &self.comms[id.index()]
    }

    /// Iterates over `(id, task)` pairs in identifier order.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &Task)> + '_ {
        self.tasks.iter().enumerate().map(|(i, t)| (TaskId::new(i), t))
    }

    /// Iterates over `(id, comm)` pairs in identifier order.
    pub fn comms(&self) -> impl Iterator<Item = (CommId, &Comm)> + '_ {
        self.comms.iter().enumerate().map(|(i, c)| (CommId::new(i), c))
    }

    /// Returns all task identifiers.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId::new)
    }

    /// Returns all communication identifiers.
    pub fn comm_ids(&self) -> impl Iterator<Item = CommId> + '_ {
        (0..self.comms.len()).map(CommId::new)
    }

    /// Returns the outgoing edges of `task` as `(comm, consumer)` pairs.
    pub fn successors(&self, task: TaskId) -> &[(CommId, TaskId)] {
        &self.succs[task.index()]
    }

    /// Returns the incoming edges of `task` as `(comm, producer)` pairs.
    pub fn predecessors(&self, task: TaskId) -> &[(CommId, TaskId)] {
        &self.preds[task.index()]
    }

    /// Returns a topological order of all tasks (sources first).
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Returns tasks with no predecessors.
    pub fn sources(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.task_ids().filter(|t| self.preds[t.index()].is_empty())
    }

    /// Returns tasks with no successors.
    pub fn sinks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.task_ids().filter(|t| self.succs[t.index()].is_empty())
    }

    /// Returns the deadline actually enforced for `task`:
    /// `min(θ_τ, φ)` per the paper's feasibility requirement (b).
    pub fn effective_deadline(&self, task: TaskId) -> Seconds {
        match self.tasks[task.index()].deadline {
            Some(d) => d.min(self.period),
            None => self.period,
        }
    }

    /// Returns the distinct task types used by this graph, in ascending order.
    pub fn used_types(&self) -> Vec<TaskTypeId> {
        let mut types: Vec<_> = self.tasks.iter().map(|t| t.task_type).collect();
        types.sort_unstable();
        types.dedup();
        types
    }

    /// Counts tasks of the given type.
    pub fn count_of_type(&self, ty: TaskTypeId) -> usize {
        self.tasks.iter().filter(|t| t.task_type == ty).count()
    }
}

/// Incremental builder for [`TaskGraph`].
#[derive(Debug, Clone)]
pub struct TaskGraphBuilder {
    name: String,
    period: Seconds,
    tasks: Vec<Task>,
    comms: Vec<Comm>,
}

impl TaskGraphBuilder {
    /// Starts a new task graph with the given name and repetition period.
    pub fn new(name: impl Into<String>, period: Seconds) -> Self {
        Self { name: name.into(), period, tasks: Vec::new(), comms: Vec::new() }
    }

    /// Adds a task and returns its identifier.
    pub fn add_task(&mut self, name: impl Into<String>, task_type: TaskTypeId) -> TaskId {
        let id = TaskId::new(self.tasks.len());
        self.tasks.push(Task { name: name.into(), task_type, deadline: None });
        id
    }

    /// Adds a task with an individual deadline `θ` and returns its identifier.
    pub fn add_task_with_deadline(
        &mut self,
        name: impl Into<String>,
        task_type: TaskTypeId,
        deadline: Seconds,
    ) -> TaskId {
        let id = TaskId::new(self.tasks.len());
        self.tasks.push(Task { name: name.into(), task_type, deadline: Some(deadline) });
        id
    }

    /// Sets or replaces the deadline of an existing task.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownTask`] if `task` was not added to this
    /// builder.
    pub fn set_deadline(&mut self, task: TaskId, deadline: Seconds) -> Result<(), ModelError> {
        let graph = self.name.clone();
        let t = self.tasks.get_mut(task.index()).ok_or(ModelError::UnknownTask { task, graph })?;
        t.deadline = Some(deadline);
        Ok(())
    }

    /// Adds a precedence/data edge and returns its identifier.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownTask`] if either endpoint was not added
    /// to this builder, [`ModelError::SelfLoop`] if `src == dst`, or
    /// [`ModelError::InvalidDataUnits`] if `data_units` is negative or
    /// non-finite (zero is a pure precedence edge).
    pub fn add_comm(
        &mut self,
        src: TaskId,
        dst: TaskId,
        data_units: f64,
    ) -> Result<CommId, ModelError> {
        for &t in &[src, dst] {
            if t.index() >= self.tasks.len() {
                return Err(ModelError::UnknownTask { task: t, graph: self.name.clone() });
            }
        }
        if src == dst {
            return Err(ModelError::SelfLoop { task: src, graph: self.name.clone() });
        }
        if !(data_units >= 0.0 && data_units.is_finite()) {
            return Err(ModelError::InvalidDataUnits {
                graph: self.name.clone(),
                src,
                dst,
                data_units,
            });
        }
        let id = CommId::new(self.comms.len());
        self.comms.push(Comm { src, dst, data_units });
        Ok(id)
    }

    /// Returns the number of tasks added so far.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Validates the graph and freezes it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyGraph`] for a graph without tasks,
    /// [`ModelError::InvalidPeriod`] for a non-positive or non-finite
    /// period, [`ModelError::InvalidDeadline`] for a non-positive deadline,
    /// and [`ModelError::CycleDetected`] if the edges are not acyclic.
    pub fn build(self) -> Result<TaskGraph, ModelError> {
        if self.tasks.is_empty() {
            return Err(ModelError::EmptyGraph { graph: self.name });
        }
        if !(self.period.value() > 0.0 && self.period.is_finite()) {
            return Err(ModelError::InvalidPeriod {
                graph: self.name,
                period: self.period.value(),
            });
        }
        for (i, t) in self.tasks.iter().enumerate() {
            if let Some(d) = t.deadline {
                if !(d.value() > 0.0 && d.is_finite()) {
                    return Err(ModelError::InvalidDeadline {
                        task: TaskId::new(i),
                        graph: self.name,
                    });
                }
            }
        }

        let n = self.tasks.len();
        let mut succs: Vec<Vec<(CommId, TaskId)>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<(CommId, TaskId)>> = vec![Vec::new(); n];
        for (i, c) in self.comms.iter().enumerate() {
            succs[c.src.index()].push((CommId::new(i), c.dst));
            preds[c.dst.index()].push((CommId::new(i), c.src));
        }

        // Kahn's algorithm: detects cycles and produces the topological order.
        let mut indegree: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut queue: Vec<TaskId> =
            (0..n).filter(|&i| indegree[i] == 0).map(TaskId::new).collect();
        let mut topo = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let t = queue[head];
            head += 1;
            topo.push(t);
            for &(_, next) in &succs[t.index()] {
                indegree[next.index()] -= 1;
                if indegree[next.index()] == 0 {
                    queue.push(next);
                }
            }
        }
        if topo.len() != n {
            return Err(ModelError::CycleDetected { graph: self.name });
        }

        Ok(TaskGraph {
            name: self.name,
            period: self.period,
            tasks: self.tasks,
            comms: self.comms,
            succs,
            preds,
            topo,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ty(i: usize) -> TaskTypeId {
        TaskTypeId::new(i)
    }

    fn diamond() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("diamond", Seconds::new(1.0));
        let a = b.add_task("a", ty(0));
        let l = b.add_task("l", ty(1));
        let r = b.add_task("r", ty(2));
        let s = b.add_task("s", ty(3));
        b.add_comm(a, l, 1.0).unwrap();
        b.add_comm(a, r, 2.0).unwrap();
        b.add_comm(l, s, 3.0).unwrap();
        b.add_comm(r, s, 4.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_diamond_with_adjacency() {
        let g = diamond();
        assert_eq!(g.task_count(), 4);
        assert_eq!(g.comm_count(), 4);
        assert_eq!(g.successors(TaskId::new(0)).len(), 2);
        assert_eq!(g.predecessors(TaskId::new(3)).len(), 2);
        assert_eq!(g.sources().collect::<Vec<_>>(), vec![TaskId::new(0)]);
        assert_eq!(g.sinks().collect::<Vec<_>>(), vec![TaskId::new(3)]);
    }

    #[test]
    fn topological_order_respects_precedence() {
        let g = diamond();
        let pos: Vec<usize> = {
            let mut pos = vec![0; g.task_count()];
            for (i, &t) in g.topological_order().iter().enumerate() {
                pos[t.index()] = i;
            }
            pos
        };
        for (_, c) in g.comms() {
            assert!(pos[c.src().index()] < pos[c.dst().index()]);
        }
    }

    #[test]
    fn rejects_cycles() {
        let mut b = TaskGraphBuilder::new("cyc", Seconds::new(1.0));
        let a = b.add_task("a", ty(0));
        let c = b.add_task("c", ty(0));
        b.add_comm(a, c, 1.0).unwrap();
        b.add_comm(c, a, 1.0).unwrap();
        assert!(matches!(b.build(), Err(ModelError::CycleDetected { .. })));
    }

    #[test]
    fn rejects_self_loop_and_unknown_endpoints() {
        let mut b = TaskGraphBuilder::new("g", Seconds::new(1.0));
        let a = b.add_task("a", ty(0));
        assert!(matches!(b.add_comm(a, a, 1.0), Err(ModelError::SelfLoop { .. })));
        assert!(matches!(b.add_comm(a, TaskId::new(5), 1.0), Err(ModelError::UnknownTask { .. })));
    }

    #[test]
    fn rejects_negative_and_non_finite_data_volumes() {
        let mut b = TaskGraphBuilder::new("g", Seconds::new(1.0));
        let a = b.add_task("a", ty(0));
        let c = b.add_task("c", ty(0));
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(b.add_comm(a, c, bad), Err(ModelError::InvalidDataUnits { .. })));
        }
        assert!(b.add_comm(a, c, 0.0).is_ok());
    }

    #[test]
    fn rejects_empty_graph_and_bad_period() {
        let b = TaskGraphBuilder::new("empty", Seconds::new(1.0));
        assert!(matches!(b.build(), Err(ModelError::EmptyGraph { .. })));

        let mut b = TaskGraphBuilder::new("bad", Seconds::ZERO);
        b.add_task("a", ty(0));
        assert!(matches!(b.build(), Err(ModelError::InvalidPeriod { .. })));

        let mut b = TaskGraphBuilder::new("nan", Seconds::new(f64::NAN));
        b.add_task("a", ty(0));
        assert!(matches!(b.build(), Err(ModelError::InvalidPeriod { .. })));
    }

    #[test]
    fn rejects_invalid_deadline() {
        let mut b = TaskGraphBuilder::new("g", Seconds::new(1.0));
        b.add_task_with_deadline("a", ty(0), Seconds::ZERO);
        assert!(matches!(b.build(), Err(ModelError::InvalidDeadline { .. })));
    }

    #[test]
    fn set_deadline_overwrites_and_validates_task() {
        let mut b = TaskGraphBuilder::new("g", Seconds::new(1.0));
        let a = b.add_task("a", ty(0));
        b.set_deadline(a, Seconds::new(0.5)).unwrap();
        assert!(b.set_deadline(TaskId::new(9), Seconds::new(0.5)).is_err());
        let g = b.build().unwrap();
        assert_eq!(g.task(a).deadline(), Some(Seconds::new(0.5)));
    }

    #[test]
    fn effective_deadline_clamps_to_period() {
        let mut b = TaskGraphBuilder::new("g", Seconds::new(1.0));
        let a = b.add_task_with_deadline("a", ty(0), Seconds::new(5.0));
        let c = b.add_task_with_deadline("c", ty(0), Seconds::new(0.3));
        let d = b.add_task("d", ty(0));
        let g = b.build().unwrap();
        assert_eq!(g.effective_deadline(a), Seconds::new(1.0));
        assert_eq!(g.effective_deadline(c), Seconds::new(0.3));
        assert_eq!(g.effective_deadline(d), Seconds::new(1.0));
    }

    #[test]
    fn used_types_deduplicates_and_sorts() {
        let mut b = TaskGraphBuilder::new("g", Seconds::new(1.0));
        b.add_task("a", ty(3));
        b.add_task("b", ty(1));
        b.add_task("c", ty(3));
        let g = b.build().unwrap();
        assert_eq!(g.used_types(), vec![ty(1), ty(3)]);
        assert_eq!(g.count_of_type(ty(3)), 2);
        assert_eq!(g.count_of_type(ty(0)), 0);
    }

    #[test]
    fn serde_round_trip_preserves_graph() {
        let g = diamond();
        let json = serde_json::to_string(&g).unwrap();
        let back: TaskGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
    }
}
