//! PV-DVS: power-variation-driven voltage scaling on a static schedule.
//!
//! This is the voltage-scaling substrate of the paper's reference \[10\] extended, as in
//! the paper's Section 4.2, to hardware components: given a mode's static
//! schedule, the scaler distributes the schedule's slack over the
//! scalable activities, always giving the next time quantum to the
//! activity whose extension saves the most energy, then snaps each
//! extension to the PE's discrete supply levels.
//!
//! The constraint graph is rebuilt from the schedule's timing and its
//! resource order: precedence edges from the task graph (through remote
//! communications where they exist) plus resource-order edges between
//! consecutive activities on one resource. One kernel serves two inputs:
//! a [`Schedule`], whose per-resource sequences give the order
//! ([`scale_mode_with`]), and the list scheduler's last pass, whose
//! placements give it ([`scale_pass`], the evaluator's cost path, which
//! keeps no schedule). Activities on single-rail DVS hardware are first
//! merged into virtual tasks (see [`crate::hw_transform`]) so all cores
//! scale together.

use std::mem;

use momsynth_model::ids::{CommId, PeId, TaskId};
use momsynth_model::units::{Joules, Seconds};
use momsynth_model::System;
use momsynth_sched::{
    ActivityId, ListScratch, ResourceKey, Schedule, ScheduleView, ScheduledComm, ScheduledTask,
};

use crate::hw_transform::virtual_tasks_of;
use crate::voltage::VoltageModel;
use crate::vschedule::{Fit, VoltageSchedule};

/// Options controlling the PV-DVS scaler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvsOptions {
    /// Slack is distributed in quanta of `period / quantum_divisor`.
    /// Larger divisors approximate the continuous optimum more closely at
    /// higher cost; the synthesis loop uses a coarse divisor and re-scales
    /// the final solution finely.
    pub quantum_divisor: f64,
    /// Hard cap on greedy iterations (safety valve).
    pub max_iterations: usize,
    /// Scale single-rail hardware PEs through the virtual-task
    /// transformation (the paper's extension). Disable for the D3
    /// ablation, which scales software PEs only.
    pub scale_hw: bool,
}

impl Default for DvsOptions {
    fn default() -> Self {
        Self { quantum_divisor: 50.0, max_iterations: 20_000, scale_hw: true }
    }
}

impl DvsOptions {
    /// A fine-grained configuration for re-scaling a final solution.
    pub fn fine() -> Self {
        Self { quantum_divisor: 400.0, max_iterations: 200_000, scale_hw: true }
    }
}

/// The result of voltage-scaling one mode.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledMode {
    schedule: Schedule,
    task_voltages: Vec<Option<VoltageSchedule>>,
    task_energy_factors: Vec<f64>,
    iterations: usize,
}

impl ScaledMode {
    /// The stretched schedule (same mapping and resource order, new start
    /// times and execution times).
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The voltage schedule derived for `task`: `Some` for every task on a
    /// scaled DVS rail (a single nominal-level segment when the task got
    /// no slack), `None` for tasks on fixed-voltage PEs and on DVS
    /// hardware that was left nominal.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn task_voltage(&self, task: TaskId) -> Option<&VoltageSchedule> {
        self.task_voltages[task.index()].as_ref()
    }

    /// The dynamic-energy factor of `task` relative to nominal execution
    /// (`1.0` for unscaled tasks).
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn energy_factor(&self, task: TaskId) -> f64 {
        self.task_energy_factors[task.index()]
    }

    /// All per-task energy factors, indexed by task id.
    pub fn energy_factors(&self) -> &[f64] {
        &self.task_energy_factors
    }

    /// Number of greedy extension steps performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Splits the result into the stretched schedule, the per-task voltage
    /// schedules and the per-task energy factors (both indexed by task
    /// id) without copying them.
    pub fn into_parts(self) -> (Schedule, Vec<Option<VoltageSchedule>>, Vec<f64>) {
        (self.schedule, self.task_voltages, self.task_energy_factors)
    }
}

/// A list pass voltage-scaled by [`scale_pass`], borrowed from its
/// [`DvsScratch`] until the scratch's next call: the stretched timing,
/// each task's energy factor and the greedy's step count — what
/// [`scale_mode_with`]'s [`ScaledMode`] holds of the same mode, bit for
/// bit, without a schedule or voltage schedules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaledPass<'a> {
    view: ScheduleView<'a>,
    energy_factors: &'a [f64],
    iterations: usize,
}

impl<'a> ScaledPass<'a> {
    /// The stretched timing: new start and execution times, the pass's
    /// resources.
    pub fn view(&self) -> ScheduleView<'a> {
        self.view
    }

    /// All per-task energy factors, indexed by task id.
    pub fn energy_factors(&self) -> &'a [f64] {
        self.energy_factors
    }

    /// Number of greedy extension steps performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

/// Where a mode's resource order comes from; with the timing, it is all
/// the kernel reads of a schedule.
#[derive(Debug, Clone, Copy)]
enum ResourceOrder<'a> {
    /// A [`Schedule`]'s per-resource sequences.
    Sequences(&'a [(ResourceKey, Vec<ActivityId>)]),
    /// A list pass's placements with their slot indices, in placement
    /// order, and its slot count.
    Placements { placed: &'a [(usize, ActivityId)], slots: usize },
}

/// A member of a virtual task: where it starts within the group's span
/// and how long it runs at nominal voltage.
#[derive(Debug, Clone, Copy)]
struct GroupMember {
    task: TaskId,
    rel_start: Seconds,
    nominal: Seconds,
}

#[derive(Debug, Clone, Copy)]
enum UnitPayload {
    Task(TaskId),
    Comm(CommId),
    /// A virtual task: its members are `members[first..end]`.
    Group {
        first: usize,
        end: usize,
    },
}

/// A scalable unit's DVS PE and nominal dynamic energy; the rail's model
/// and stretch limit are looked up through `pe`.
#[derive(Debug, Clone, Copy)]
struct Scale {
    pe: PeId,
    energy: Joules,
}

/// A unit of the constraint graph. Its current duration and its deadline
/// live in the dense `dur` and `deadline` slot vectors, which the passes
/// read.
#[derive(Debug, Clone, Copy)]
struct Unit {
    payload: UnitPayload,
    nominal: Seconds,
    scale: Option<Scale>,
}

/// A DVS PE's voltage model and the largest stretch its lowest level
/// allows, worked out once per call.
#[derive(Debug, Clone, Copy)]
struct Rail {
    model: VoltageModel,
    max_stretch: f64,
}

/// A scalable unit as the greedy reads it: its nominal time, the longest
/// its rail can stretch it (`limit`), its rail's model and nominal
/// energy, and its energies at its current duration (`now`) and one
/// quantum longer (`next`).
#[derive(Debug, Clone, Copy)]
struct Scalable {
    unit: usize,
    nominal: Seconds,
    limit: Seconds,
    model: VoltageModel,
    energy: Joules,
    now: f64,
    next: f64,
}

impl Scalable {
    /// The unit's dynamic energy when stretched to `dur`.
    fn energy_at(&self, dur: Seconds) -> f64 {
        self.energy.value() * self.model.energy_factor_for_stretch(dur / self.nominal)
    }
}

/// Adjacency in compressed rows: the neighbours of unit `u` are
/// `targets[offsets[u]..offsets[u + 1]]`.
#[derive(Debug, Default)]
struct Csr {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl Csr {
    /// Refills the rows of `rows` units from `(row, target)` pairs. Each
    /// row lists its targets in pair order (a stable counting sort).
    fn fill(&mut self, rows: usize, pairs: impl Iterator<Item = (usize, usize)> + Clone) {
        let Self { offsets, targets } = self;
        offsets.clear();
        offsets.resize(rows + 1, 0);
        for (row, _) in pairs.clone() {
            offsets[row + 1] += 1;
        }
        for u in 0..rows {
            offsets[u + 1] += offsets[u];
        }
        targets.clear();
        targets.resize(offsets[rows], 0);
        // While filling, `offsets[row]` is the row's next free slot; it
        // ends at the next row's start, so one shift restores the starts.
        for (row, target) in pairs {
            targets[offsets[row]] = target;
            offsets[row] += 1;
        }
        offsets.copy_within(0..rows, 1);
        offsets[0] = 0;
    }

    fn row(&self, u: usize) -> &[usize] {
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }
}

/// Reusable working memory for [`scale_mode_with`] and [`scale_pass`].
/// A call builds its mode's constraint graph here — each DVS PE's rail,
/// the scaling units with their durations and deadlines, the edge list
/// in discovery order, successor and predecessor rows, the topological
/// order and each unit's position in it. The greedy loop keeps the
/// earliest/latest finish times in the `es`/`ef`/`lf` slot vectors and
/// each scalable unit's cached energies, and after an extension redoes
/// only what that extension can move. The snap leaves the scaled timing
/// and every task's energy factor here. Once the buffers have grown to a
/// mode's size, [`scale_pass`] allocates nothing but, on DVS hardware,
/// its virtual tasks; [`scale_mode_with`] also allocates what its
/// [`ScaledMode`] keeps. Every buffer is refilled on entry; reuse can
/// never leak state between calls.
#[derive(Debug, Default)]
pub struct DvsScratch {
    rails: Vec<Option<Rail>>,
    units: Vec<Unit>,
    members: Vec<GroupMember>,
    dur: Vec<Seconds>,
    deadline: Vec<Seconds>,
    task_unit: Vec<usize>,
    comm_unit: Vec<Option<usize>>,
    /// Per slot of a list pass: the unit placed on it last.
    last: Vec<usize>,
    edges: Vec<(usize, usize)>,
    succs: Csr,
    preds: Csr,
    indegree: Vec<usize>,
    topo: Vec<usize>,
    position: Vec<usize>,
    es: Vec<Seconds>,
    ef: Vec<Seconds>,
    lf: Vec<Seconds>,
    scalable: Vec<Scalable>,
    /// The scaled timing, indexed by task id and by comm id.
    tasks: Vec<ScheduledTask>,
    comms: Vec<Option<ScheduledComm>>,
    /// Each task's energy factor, indexed by task id.
    factors: Vec<f64>,
}

/// Applies PV-DVS to one mode's schedule.
///
/// Tasks on DVS-enabled software PEs are scaled individually; tasks on
/// DVS-enabled hardware PEs are scaled together through the virtual-task
/// transformation (unless `options.scale_hw` is off). Remote
/// communications and tasks on fixed-voltage PEs keep their nominal
/// durations.
///
/// The scaled timing starts each unit (a task, a remote transfer or a
/// virtual task) as soon as its predecessors and the unit before it on
/// its resource have finished, and stretches a unit only into its slack:
/// up to the latest finish that keeps its own deadline (a virtual task's
/// is its members' earliest, a transfer's the mode's period) and every
/// later unit's. So scaling makes no unit later than that timing at
/// nominal durations has it, up to the rounding of the level fit: a unit
/// that meets its deadline there still does, a late one gets no later,
/// and a path that already misses a deadline keeps its nominal durations.
///
/// Without virtual tasks, that nominal timing starts nothing later than
/// `schedule` does, so every deadline `schedule` meets is still met. A
/// virtual task, though, waits for every member's predecessors, so it
/// can start later than `schedule` ran its earliest member, and scaling
/// can then miss a deadline `schedule` met: root `tests/dvs_kernel.rs`'s
/// pushed-group system, in
/// `dvs_costs_scale_the_list_pass_like_the_full_evaluation`, is one.
///
/// A schedule whose resource order contradicts its precedences (a
/// resource sequence running a task before one it depends on, which the
/// list scheduler never produces) has no consistent timing to stretch:
/// it is returned unscaled, with its own timing, every energy factor
/// `1.0`, no voltage schedules and zero iterations.
///
/// Allocates fresh working buffers per call; the synthesis hot loop uses
/// [`scale_mode_with`] with a reusable [`DvsScratch`] instead.
pub fn scale_mode(system: &System, schedule: &Schedule, options: &DvsOptions) -> ScaledMode {
    scale_mode_with(system, schedule, options, &mut DvsScratch::default())
}

/// [`scale_mode`] with caller-provided scratch buffers; produces the
/// identical scaling.
pub fn scale_mode_with(
    system: &System,
    schedule: &Schedule,
    options: &DvsOptions,
    scratch: &mut DvsScratch,
) -> ScaledMode {
    let order = ResourceOrder::Sequences(schedule.sequences());
    let mut task_voltages = Vec::new();
    let iterations =
        scratch.scale(system, schedule.view(), order, options, Some(&mut task_voltages));
    let schedule = Schedule::from_parts(
        schedule.mode(),
        mem::take(&mut scratch.tasks),
        mem::take(&mut scratch.comms),
        schedule.sequences().to_vec(),
    );
    ScaledMode {
        schedule,
        task_voltages,
        task_energy_factors: mem::take(&mut scratch.factors),
        iterations,
    }
}

/// PV-DVS on the list scheduler's last pass, left in `pass`: the scaling
/// [`scale_mode_with`] gives the [`Schedule`] assembled from that pass,
/// bit for bit, read without assembling it. Each resource's order comes
/// from the pass's placements. The result is left in `scratch` and
/// borrowed from it; no voltage schedule is built.
///
/// # Panics
///
/// Panics if `pass` holds no successful pass
/// ([`ListScratch::view`] is `None`).
pub fn scale_pass<'s>(
    system: &System,
    pass: &ListScratch,
    options: &DvsOptions,
    scratch: &'s mut DvsScratch,
) -> ScaledPass<'s> {
    let timing = pass.view().expect("the list pass succeeded");
    let order = ResourceOrder::Placements { placed: pass.placements(), slots: pass.slots().len() };
    let iterations = scratch.scale(system, timing, order, options, None);
    ScaledPass {
        view: ScheduleView::new(timing.mode(), &scratch.tasks, &scratch.comms),
        energy_factors: &scratch.factors,
        iterations,
    }
}

impl DvsScratch {
    /// The one PV-DVS kernel behind [`scale_mode_with`] and
    /// [`scale_pass`]: scales `timing` under `order`, leaves the scaled
    /// timing and energy factors in `self.tasks`, `self.comms` and
    /// `self.factors`, fills `voltages` (when given) with each task's
    /// voltage schedule and returns the number of greedy steps.
    fn scale(
        &mut self,
        system: &System,
        timing: ScheduleView<'_>,
        order: ResourceOrder<'_>,
        options: &DvsOptions,
        mut voltages: Option<&mut Vec<Option<VoltageSchedule>>>,
    ) -> usize {
        let graph = system.omsm().mode(timing.mode()).graph();
        let n = graph.task_count();
        self.tasks.clear();
        self.tasks.extend_from_slice(timing.tasks());
        self.comms.clear();
        self.comms.extend_from_slice(timing.comms());
        self.factors.clear();
        self.factors.resize(n, 1.0);
        if let Some(voltages) = voltages.as_deref_mut() {
            voltages.clear();
            voltages.resize(n, None);
        }
        self.rails.clear();
        self.rails.extend(system.arch().pes().map(|(_, pe)| {
            pe.dvs().map(|cap| {
                let model = VoltageModel::from_capability(cap);
                Rail { model, max_stretch: model.max_stretch(cap.v_min()) }
            })
        }));
        // Virtual-task merging can, in rare interleavings, create cycles;
        // fall back to group-free scaling then. A cycle without groups is
        // the schedule's own: its own timing is returned.
        let acyclic = self.build_graph(system, timing, order, options.scale_hw)
            || (options.scale_hw && self.build_graph(system, timing, order, false));
        if !acyclic {
            return 0;
        }
        let iterations = self.distribute_slack(graph.period(), options);
        self.snap(system, voltages);
        iterations
    }

    /// Builds the units (with virtual tasks when `allow_groups`) and their
    /// constraint graph. Returns `false` if the graph is cyclic.
    fn build_graph(
        &mut self,
        system: &System,
        timing: ScheduleView<'_>,
        order: ResourceOrder<'_>,
        allow_groups: bool,
    ) -> bool {
        self.build_units(system, timing, allow_groups);
        self.build_constraint_graph(system, timing, order)
    }

    /// Fills `units`, with their durations and deadlines, with one unit
    /// per virtual task (when `allow_groups`), per task outside a virtual
    /// task and per remote communication.
    fn build_units(&mut self, system: &System, timing: ScheduleView<'_>, allow_groups: bool) {
        let graph = system.omsm().mode(timing.mode()).graph();
        let period = graph.period();
        let Self { rails, units, members, dur, deadline, task_unit, comm_unit, .. } = self;
        units.clear();
        members.clear();
        dur.clear();
        deadline.clear();
        task_unit.clear();
        task_unit.resize(graph.task_count(), usize::MAX);
        comm_unit.clear();
        comm_unit.resize(graph.comm_count(), None);

        if allow_groups {
            for pe in system.arch().dvs_pes() {
                if !system.arch().pe(pe).kind().is_hardware() {
                    continue;
                }
                for group in virtual_tasks_of(system, timing, pe) {
                    let idx = units.len();
                    let first = members.len();
                    let mut due = period;
                    members.extend(group.members.iter().map(|&t| {
                        due = due.min(graph.effective_deadline(t));
                        task_unit[t.index()] = idx;
                        let e = &timing.tasks()[t.index()];
                        GroupMember {
                            task: t,
                            rel_start: e.start - group.start,
                            nominal: e.exec_time,
                        }
                    }));
                    units.push(Unit {
                        payload: UnitPayload::Group { first, end: members.len() },
                        nominal: group.duration(),
                        scale: Some(Scale { pe, energy: group.energy }),
                    });
                    deadline.push(due);
                }
            }
        }

        for entry in timing.tasks() {
            let t = entry.task;
            if task_unit[t.index()] != usize::MAX {
                continue;
            }
            let scalable = rails[entry.pe.index()].is_some()
                && system.arch().pe(entry.pe).kind().is_software();
            let scale = scalable.then(|| {
                let energy = system
                    .tech()
                    .impl_of(graph.task(t).task_type(), entry.pe)
                    .expect("scheduled task has an implementation")
                    .energy();
                Scale { pe: entry.pe, energy }
            });
            task_unit[t.index()] = units.len();
            units.push(Unit { payload: UnitPayload::Task(t), nominal: entry.exec_time, scale });
            deadline.push(graph.effective_deadline(t));
        }

        for entry in timing.remote_comms() {
            comm_unit[entry.comm.index()] = Some(units.len());
            let payload = UnitPayload::Comm(entry.comm);
            units.push(Unit { payload, nominal: entry.duration, scale: None });
            deadline.push(period);
        }
        dur.extend(units.iter().map(|unit| unit.nominal));
    }

    /// Builds the constraint edges between units — precedence edges from
    /// the task graph (through remote communications where they exist)
    /// and resource-order edges between consecutive activities on one
    /// resource — with their successor/predecessor rows, a topological
    /// order and each unit's position in it. Returns `false` if the unit
    /// graph is cyclic.
    fn build_constraint_graph(
        &mut self,
        system: &System,
        timing: ScheduleView<'_>,
        order: ResourceOrder<'_>,
    ) -> bool {
        let graph = system.omsm().mode(timing.mode()).graph();
        let Self {
            units,
            task_unit,
            comm_unit,
            last,
            edges,
            succs,
            preds,
            indegree,
            topo,
            position,
            ..
        } = self;
        edges.clear();
        for (c, edge) in graph.comms() {
            let su = task_unit[edge.src().index()];
            let du = task_unit[edge.dst().index()];
            match comm_unit[c.index()] {
                Some(cu) => {
                    if su != cu {
                        edges.push((su, cu));
                    }
                    if cu != du {
                        edges.push((cu, du));
                    }
                }
                None => {
                    if su != du {
                        edges.push((su, du));
                    }
                }
            }
        }
        let (task_unit, comm_unit): (&[usize], &[Option<usize>]) = (task_unit, comm_unit);
        let unit_of = |act| activity_unit(act, task_unit, comm_unit);
        match order {
            ResourceOrder::Sequences(sequences) => {
                for (_, acts) in sequences {
                    for pair in acts.windows(2) {
                        let (ua, ub) = (unit_of(pair[0]), unit_of(pair[1]));
                        if ua != ub {
                            edges.push((ua, ub));
                        }
                    }
                }
            }
            // Consecutive placements on one slot are the consecutive pairs
            // of that resource's sequence, discovered in placement order.
            ResourceOrder::Placements { placed, slots } => {
                last.clear();
                last.resize(slots, usize::MAX);
                for &(slot, act) in placed {
                    let ub = unit_of(act);
                    let ua = mem::replace(&mut last[slot], ub);
                    if ua != usize::MAX && ua != ub {
                        edges.push((ua, ub));
                    }
                }
            }
        }
        // The list keeps discovery order and may repeat an edge (a
        // precedence that is also a resource order). Either only changes
        // the order in which the passes visit a unit's neighbours, and
        // their `max`/`min` folds over finite times are exact, so no
        // time depends on it.
        let n = units.len();
        succs.fill(n, edges.iter().copied());
        preds.fill(n, edges.iter().map(|&(a, b)| (b, a)));

        topo.clear();
        match order {
            // Every unit is one placed activity (no virtual task merges
            // two): a list pass places an activity after all it waits for
            // (its predecessors, its transfers, the activity before it on
            // its resource), so the placement order is topological. Any
            // topological order gives the passes the same times.
            ResourceOrder::Placements { placed, .. } if placed.len() == n => {
                topo.extend(placed.iter().map(|&(_, act)| unit_of(act)));
            }
            // Kahn's algorithm; the queue, read front to back, is the
            // order.
            _ => {
                indegree.clear();
                indegree.extend((0..n).map(|u| preds.row(u).len()));
                topo.extend((0..n).filter(|&u| indegree[u] == 0));
                let mut head = 0;
                while head < topo.len() {
                    let u = topo[head];
                    head += 1;
                    for &s in succs.row(u) {
                        indegree[s] -= 1;
                        if indegree[s] == 0 {
                            topo.push(s);
                        }
                    }
                }
                if topo.len() != n {
                    return false;
                }
            }
        }
        position.clear();
        position.resize(n, 0);
        for (i, &u) in topo.iter().enumerate() {
            position[u] = i;
        }
        true
    }

    /// Earliest start and finish, under the current durations, of the
    /// units from position `from` of the topological order on. A unit's
    /// times depend only on units before it in the order, so after a
    /// unit is extended the pass from its position redoes all that
    /// changed; from `0` it times every unit.
    fn forward(&mut self, from: usize) {
        let Self { dur, preds, topo, es, ef, .. } = self;
        for &u in &topo[from..] {
            let start = preds.row(u).iter().map(|&p| ef[p]).fold(Seconds::ZERO, Seconds::max);
            es[u] = start;
            ef[u] = start + dur[u];
        }
    }

    /// Latest finish, keeping all deadlines, of the units before
    /// position `to` of the topological order. A unit's latest finish
    /// depends only on units after it in the order (and not on its own
    /// duration), so after a unit is extended the pass up to its position
    /// redoes all that changed; up to the unit count it times every unit.
    fn backward(&mut self, to: usize) {
        let Self { dur, deadline, succs, topo, lf, .. } = self;
        for &u in topo[..to].iter().rev() {
            let mut latest = deadline[u];
            for &s in succs.row(u) {
                latest = latest.min(lf[s] - dur[s]);
            }
            lf[u] = latest;
        }
    }

    /// The greedy slack distribution: repeatedly extends the unit whose
    /// next quantum saves the most energy per second, scanning the
    /// scalable units in index order (the first of equal gains wins).
    /// Returns the number of extensions.
    ///
    /// The passes run in full once; after an extension they redo only the
    /// units the extended one can move. Each scalable unit's energies at
    /// its current duration and one quantum later are cached and redone
    /// only for the extended unit, so a step computes an energy only for
    /// a unit whose slack or stretch room cuts its step short.
    fn distribute_slack(&mut self, period: Seconds, options: &DvsOptions) -> usize {
        let quantum = period / options.quantum_divisor.max(1.0);
        let eps = period * 1e-9;
        let n = self.units.len();
        let Self { rails, units, dur, scalable, es, ef, lf, .. } = self;
        for times in [es, ef, lf] {
            times.clear();
            times.resize(n, Seconds::ZERO);
        }
        scalable.clear();
        for (u, unit) in units.iter().enumerate() {
            let Some(scale) = unit.scale else { continue };
            if unit.nominal.value() <= 0.0 {
                continue;
            }
            let rail = rails[scale.pe.index()].expect("scalable units run on DVS PEs");
            let mut cached = Scalable {
                unit: u,
                nominal: unit.nominal,
                limit: unit.nominal * rail.max_stretch,
                model: rail.model,
                energy: scale.energy,
                now: 0.0,
                next: 0.0,
            };
            cached.now = cached.energy_at(dur[u]);
            cached.next = cached.energy_at(dur[u] + quantum);
            scalable.push(cached);
        }
        // The positions whose times are stale: every one at first, then
        // those the last extension can move.
        let (mut from, mut to) = (0, n);
        let mut iterations = 0usize;
        while iterations < options.max_iterations {
            self.forward(from);
            self.backward(to);
            let Self { dur, scalable, ef, lf, .. } = &*self;
            let mut best: Option<(usize, Seconds, f64)> = None;
            for (i, cached) in scalable.iter().enumerate() {
                let u = cached.unit;
                let slack = lf[u] - ef[u];
                let room = cached.limit - dur[u];
                let delta = quantum.min(slack).min(room);
                if delta <= eps {
                    continue;
                }
                let e_new =
                    if delta == quantum { cached.next } else { cached.energy_at(dur[u] + delta) };
                let gain = (cached.now - e_new) / delta.value();
                if gain > 0.0 && best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((i, delta, gain));
                }
            }
            let Some((i, delta, _)) = best else { break };
            let cached = &mut self.scalable[i];
            let dur = &mut self.dur[cached.unit];
            *dur += delta;
            cached.now = cached.energy_at(*dur);
            cached.next = cached.energy_at(*dur + quantum);
            let at = self.position[cached.unit];
            (from, to) = (at, at);
            iterations += 1;
        }
        iterations
    }

    /// Snaps every extension to the discrete levels and writes the
    /// realised timing and each task's energy factor over the input's in
    /// `self.tasks`, `self.comms` and `self.factors`; fills `voltages`
    /// with each scaled task's voltage schedule when given.
    fn snap(&mut self, system: &System, mut voltages: Option<&mut Vec<Option<VoltageSchedule>>>) {
        let cap = |pe: PeId| system.arch().pe(pe).dvs().expect("scaled units run on DVS PEs");
        // First pass: apply snapped durations so the final forward pass
        // uses realised (discrete) times. Only each fit's total time is
        // read here; the second pass fits again, to the snapped time,
        // because a fit to its own total time need not repeat its
        // segments bit for bit.
        let Self { rails, units, dur, .. } = self;
        for (unit, dur) in units.iter().zip(dur.iter_mut()) {
            let Some(scale) = unit.scale else { continue };
            if dur.value() <= unit.nominal.value() * (1.0 + 1e-12) {
                *dur = unit.nominal;
                continue;
            }
            let rail = rails[scale.pe.index()].expect("scaled units run on DVS PEs");
            *dur = Fit::new(cap(scale.pe), &rail.model, unit.nominal, *dur).total_time();
        }
        self.forward(0);

        let Self { rails, units, members, dur, es, tasks, comms, factors, .. } = self;
        // A scaled task's fitted time and factor, and its voltage
        // schedule when asked for. `tasks` runs in task-id order, so
        // entry `t` is task `t`.
        let mut apply = |entry: &mut ScheduledTask, model: &VoltageModel, fit: Fit| {
            entry.exec_time = fit.total_time();
            factors[entry.task.index()] = fit.energy_factor(model);
            if let Some(voltages) = voltages.as_deref_mut() {
                voltages[entry.task.index()] = Some(fit.schedule());
            }
        };
        for (u, unit) in units.iter().enumerate() {
            match unit.payload {
                UnitPayload::Task(t) => {
                    let entry = &mut tasks[t.index()];
                    entry.start = es[u];
                    if let Some(scale) = unit.scale {
                        let rail = rails[scale.pe.index()].expect("scaled units run on DVS PEs");
                        let fit = Fit::new(cap(scale.pe), &rail.model, unit.nominal, dur[u]);
                        apply(entry, &rail.model, fit);
                    }
                }
                UnitPayload::Comm(c) => {
                    let entry =
                        comms[c.index()].as_mut().expect("comm unit exists only for remote comms");
                    entry.start = es[u];
                }
                UnitPayload::Group { first, end } => {
                    let scale = unit.scale.expect("groups are always scalable");
                    let rail = rails[scale.pe.index()].expect("groups run on DVS PEs");
                    let k = if unit.nominal.value() > 0.0 { dur[u] / unit.nominal } else { 1.0 };
                    for m in &members[first..end] {
                        let entry = &mut tasks[m.task.index()];
                        entry.start = es[u] + m.rel_start * k;
                        let fit = Fit::new(cap(scale.pe), &rail.model, m.nominal, m.nominal * k);
                        apply(entry, &rail.model, fit);
                    }
                }
            }
        }
    }
}

fn activity_unit(act: ActivityId, task_unit: &[usize], comm_unit: &[Option<usize>]) -> usize {
    match act {
        ActivityId::Task(t) => task_unit[t.index()],
        ActivityId::Comm(c) => {
            comm_unit[c.index()].expect("sequences only contain scheduled remote comms")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::ids::{ModeId, PeId};
    use momsynth_model::units::{Cells, Volts, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Cl, DvsCapability, Implementation, OmsmBuilder, Pe, PeKind,
        TaskGraphBuilder, TechLibraryBuilder,
    };
    use momsynth_sched::{schedule_mode, CoreAllocation, SchedulerOptions, SystemMapping};

    fn dvs_cap() -> DvsCapability {
        DvsCapability::new(
            Volts::new(3.3),
            Volts::new(0.8),
            vec![Volts::new(1.2), Volts::new(1.8), Volts::new(2.4), Volts::new(3.3)],
        )
    }

    /// One DVS CPU, one fixed CPU, chain of three 10 ms tasks, 100 ms period.
    fn sw_system(dvs_on_cpu: bool) -> momsynth_model::System {
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let mut cpu = Pe::software("cpu", PeKind::Gpp, Watts::from_milli(0.1));
        if dvs_on_cpu {
            cpu = cpu.with_dvs(dvs_cap());
        }
        let cpu = arch.add_pe(cpu);
        tech.set_impl(
            tx,
            cpu,
            Implementation::software(Seconds::from_millis(10.0), Watts::from_milli(100.0)),
        );
        let mut g = TaskGraphBuilder::new("chain", Seconds::from_millis(100.0));
        let a = g.add_task("a", tx);
        let b = g.add_task("b", tx);
        let c = g.add_task("c", tx);
        g.add_comm(a, b, 0.0).unwrap();
        g.add_comm(b, c, 0.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        momsynth_model::System::new("s", omsm.build().unwrap(), arch.build().unwrap(), tech.build())
            .unwrap()
    }

    fn schedule_of(sys: &momsynth_model::System) -> Schedule {
        let mapping = SystemMapping::from_fn(sys, |_| PeId::new(0));
        let alloc = CoreAllocation::minimal(sys, &mapping);
        schedule_mode(sys, ModeId::new(0), &mapping, &alloc, SchedulerOptions::default()).unwrap()
    }

    #[test]
    fn slack_is_converted_into_energy_savings() {
        let sys = sw_system(true);
        let schedule = schedule_of(&sys);
        let scaled = scale_mode(&sys, &schedule, &DvsOptions::default());
        assert!(scaled.iterations() > 0);
        // 30 ms of work in a 100 ms period: substantial savings expected.
        for t in 0..3 {
            let f = scaled.energy_factor(TaskId::new(t));
            assert!(f < 0.9, "task {t} factor {f}");
            assert!(f > 0.0);
            assert!(scaled.task_voltage(TaskId::new(t)).is_some());
        }
        // The stretched schedule still meets the period.
        let graph = sys.omsm().mode(ModeId::new(0)).graph();
        assert!(scaled.schedule().is_timing_feasible(graph));
        // And actually uses most of it.
        assert!(scaled.schedule().makespan().as_millis() > 60.0);
    }

    #[test]
    fn reused_scratch_produces_identical_scaling() {
        let mut scratch = DvsScratch::default();
        // Alternate between a DVS and a non-DVS system so every scratch
        // buffer is refilled with different shapes; each result must
        // match a fresh-buffer run.
        for dvs in [true, false, true] {
            let sys = sw_system(dvs);
            let schedule = schedule_of(&sys);
            let reused = scale_mode_with(&sys, &schedule, &DvsOptions::default(), &mut scratch);
            let fresh = scale_mode(&sys, &schedule, &DvsOptions::default());
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn no_dvs_pe_means_no_scaling() {
        let sys = sw_system(false);
        let schedule = schedule_of(&sys);
        let scaled = scale_mode(&sys, &schedule, &DvsOptions::default());
        assert_eq!(scaled.iterations(), 0);
        assert_eq!(scaled.energy_factors(), &[1.0, 1.0, 1.0]);
        assert_eq!(scaled.schedule(), &schedule);
    }

    #[test]
    fn zero_slack_schedule_is_untouched() {
        // Period exactly equals the critical path: nothing to exploit.
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO).with_dvs(dvs_cap()));
        tech.set_impl(
            tx,
            cpu,
            Implementation::software(Seconds::from_millis(10.0), Watts::from_milli(100.0)),
        );
        let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(10.0));
        g.add_task("a", tx);
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let sys = momsynth_model::System::new(
            "s",
            omsm.build().unwrap(),
            arch.build().unwrap(),
            tech.build(),
        )
        .unwrap();
        let schedule = schedule_of(&sys);
        let scaled = scale_mode(&sys, &schedule, &DvsOptions::default());
        assert_eq!(scaled.energy_factor(TaskId::new(0)), 1.0);
        assert_eq!(scaled.schedule().task(TaskId::new(0)).exec_time, Seconds::from_millis(10.0));
    }

    #[test]
    fn deadlines_are_respected_after_scaling() {
        // Chain with a tight mid-deadline: only downstream slack is usable.
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO).with_dvs(dvs_cap()));
        tech.set_impl(
            tx,
            cpu,
            Implementation::software(Seconds::from_millis(10.0), Watts::from_milli(100.0)),
        );
        let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(100.0));
        let a = g.add_task_with_deadline("a", tx, Seconds::from_millis(12.0));
        let b = g.add_task("b", tx);
        g.add_comm(a, b, 0.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let sys = momsynth_model::System::new(
            "s",
            omsm.build().unwrap(),
            arch.build().unwrap(),
            tech.build(),
        )
        .unwrap();
        let schedule = schedule_of(&sys);
        let scaled = scale_mode(&sys, &schedule, &DvsOptions::fine());
        let graph = sys.omsm().mode(ModeId::new(0)).graph();
        assert!(scaled.schedule().is_timing_feasible(graph));
        // Task a could stretch by at most 20%; task b by far more.
        let fa = scaled.energy_factor(TaskId::new(0));
        let fb = scaled.energy_factor(TaskId::new(1));
        assert!(fa > fb, "a={fa} b={fb}");
        let a_exec = scaled.schedule().task(TaskId::new(0)).exec_time;
        assert!(a_exec.as_millis() <= 12.0 + 1e-6);
    }

    /// DVS-enabled ASIC with two parallel tasks: the rail scales both
    /// together through the virtual-task transformation.
    fn hw_system() -> momsynth_model::System {
        let mut tech = TechLibraryBuilder::new();
        let t0 = tech.add_type("A");
        let t1 = tech.add_type("B");
        let mut arch = ArchitectureBuilder::new();
        let _cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        let hw = arch.add_pe(
            Pe::hardware("hw", PeKind::Asic, Cells::new(1000), Watts::ZERO).with_dvs(dvs_cap()),
        );
        arch.add_cl(Cl::bus(
            "bus",
            vec![PeId::new(0), hw],
            Seconds::from_micros(1.0),
            Watts::ZERO,
            Watts::ZERO,
        ))
        .unwrap();
        tech.set_impl(
            t0,
            hw,
            Implementation::hardware(
                Seconds::from_millis(4.0),
                Watts::from_milli(10.0),
                Cells::new(100),
            ),
        );
        tech.set_impl(
            t1,
            hw,
            Implementation::hardware(
                Seconds::from_millis(6.0),
                Watts::from_milli(20.0),
                Cells::new(100),
            ),
        );
        let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(60.0));
        g.add_task("p", t0);
        g.add_task("q", t1);
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        momsynth_model::System::new("s", omsm.build().unwrap(), arch.build().unwrap(), tech.build())
            .unwrap()
    }

    #[test]
    fn hw_rail_scales_parallel_tasks_together() {
        let sys = hw_system();
        let mapping = SystemMapping::from_fn(&sys, |_| PeId::new(1));
        let alloc = CoreAllocation::minimal(&sys, &mapping);
        let schedule =
            schedule_mode(&sys, ModeId::new(0), &mapping, &alloc, SchedulerOptions::default())
                .unwrap();
        let scaled = scale_mode(&sys, &schedule, &DvsOptions::fine());
        // Both members of the overlap group stretch by the same factor.
        let k0 = scaled.schedule().task(TaskId::new(0)).exec_time
            / schedule.task(TaskId::new(0)).exec_time;
        let k1 = scaled.schedule().task(TaskId::new(1)).exec_time
            / schedule.task(TaskId::new(1)).exec_time;
        assert!(k0 > 1.5);
        assert!((k0 - k1).abs() < 1e-6, "k0={k0} k1={k1}");
        assert!(
            (scaled.energy_factor(TaskId::new(0)) - scaled.energy_factor(TaskId::new(1))).abs()
                < 1e-9
        );
        let graph = sys.omsm().mode(ModeId::new(0)).graph();
        assert!(scaled.schedule().is_timing_feasible(graph));
    }

    #[test]
    fn scale_hw_off_leaves_hardware_nominal() {
        let sys = hw_system();
        let mapping = SystemMapping::from_fn(&sys, |_| PeId::new(1));
        let alloc = CoreAllocation::minimal(&sys, &mapping);
        let schedule =
            schedule_mode(&sys, ModeId::new(0), &mapping, &alloc, SchedulerOptions::default())
                .unwrap();
        let opts = DvsOptions { scale_hw: false, ..DvsOptions::default() };
        let scaled = scale_mode(&sys, &schedule, &opts);
        assert_eq!(scaled.energy_factors(), &[1.0, 1.0]);
    }

    #[test]
    fn energy_is_monotone_in_quantum_resolution() {
        // Finer quanta should never produce (meaningfully) worse energy.
        let sys = sw_system(true);
        let schedule = schedule_of(&sys);
        let coarse = scale_mode(
            &sys,
            &schedule,
            &DvsOptions { quantum_divisor: 10.0, ..DvsOptions::default() },
        );
        let fine = scale_mode(&sys, &schedule, &DvsOptions::fine());
        let total = |s: &ScaledMode| -> f64 { s.energy_factors().iter().sum() };
        assert!(total(&fine) <= total(&coarse) + 1e-6);
    }

    #[test]
    fn infeasible_schedule_gains_nothing_but_does_not_panic() {
        // Period shorter than the chain: negative slack everywhere.
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO).with_dvs(dvs_cap()));
        tech.set_impl(
            tx,
            cpu,
            Implementation::software(Seconds::from_millis(10.0), Watts::from_milli(100.0)),
        );
        let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(15.0));
        let a = g.add_task("a", tx);
        let b = g.add_task("b", tx);
        g.add_comm(a, b, 0.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let sys = momsynth_model::System::new(
            "s",
            omsm.build().unwrap(),
            arch.build().unwrap(),
            tech.build(),
        )
        .unwrap();
        let schedule = schedule_of(&sys);
        let scaled = scale_mode(&sys, &schedule, &DvsOptions::default());
        assert_eq!(scaled.energy_factors(), &[1.0, 1.0]);
    }
}
