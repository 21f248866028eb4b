//! PV-DVS: power-variation-driven voltage scaling on a static schedule.
//!
//! This is the voltage-scaling substrate of the paper's reference \[10\] extended, as in
//! the paper's Section 4.2, to hardware components: given a mode's static
//! [`Schedule`], the scaler distributes the schedule's slack over the
//! scalable activities, always giving the next time quantum to the
//! activity whose extension saves the most energy, then snaps each
//! extension to the PE's discrete supply levels.
//!
//! The constraint graph is rebuilt from the schedule itself: precedence
//! edges from the task graph (through remote communications where they
//! exist) plus resource-order edges from the per-resource sequences.
//! Activities on single-rail DVS hardware are first merged into virtual
//! tasks (see [`crate::hw_transform`]) so all cores scale together.

use momsynth_model::ids::{CommId, PeId, TaskId};
use momsynth_model::units::{Joules, Seconds};
use momsynth_model::System;
use momsynth_sched::{ActivityId, Schedule, ScheduledComm, ScheduledTask};

use crate::hw_transform::virtual_tasks;
use crate::voltage::VoltageModel;
use crate::vschedule::VoltageSchedule;

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

/// A member of a virtual task: where it starts within the group's span
/// and how long it runs at nominal voltage.
#[derive(Debug, Clone)]
struct GroupMember {
    task: TaskId,
    rel_start: Seconds,
    nominal: Seconds,
}

#[derive(Debug, Clone)]
enum UnitPayload {
    Task(TaskId),
    Comm(CommId),
    Group { members: Vec<GroupMember> },
}

/// How a scalable unit scales. The snap looks the DVS capability up
/// through `pe`, so a unit holds no copy of its level vector.
#[derive(Debug, Clone, Copy)]
struct ScaleInfo {
    pe: PeId,
    model: VoltageModel,
    energy: Joules,
    max_stretch: f64,
}

impl ScaleInfo {
    /// The unit's dynamic energy when its `nominal` execution is
    /// stretched to `dur`.
    fn energy_at(&self, nominal: Seconds, dur: Seconds) -> f64 {
        self.energy.value() * self.model.energy_factor_for_stretch(dur / nominal)
    }
}

#[derive(Debug, Clone)]
struct Unit {
    payload: UnitPayload,
    deadline: Seconds,
    nominal: Seconds,
    dur: Seconds,
    scale: Option<ScaleInfo>,
}

/// A scalable unit's energies between greedy steps: at its current
/// duration (`now`) and one quantum longer (`next`).
#[derive(Debug, Clone, Copy)]
struct UnitEnergy {
    unit: usize,
    now: f64,
    next: f64,
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

/// Reusable working memory for [`scale_mode_with`]. A call builds its
/// mode's constraint graph here — the scaling units, the edge list in
/// discovery order, successor and predecessor rows, the topological
/// order and each unit's position in it. The greedy loop keeps the
/// earliest/latest finish times in the `es`/`ef`/`lf` slot vectors and
/// each scalable unit's cached energies, and after an extension redoes
/// only what that extension can move. Once the buffers have grown to a
/// mode's size, a call allocates what its [`ScaledMode`] keeps, one
/// small throwaway level fit per stretched unit and, on DVS hardware,
/// its virtual tasks. Every buffer is refilled on entry; reuse can never
/// leak state between calls.
#[derive(Debug, Default)]
pub struct DvsScratch {
    units: Vec<Unit>,
    task_unit: Vec<usize>,
    comm_unit: Vec<Option<usize>>,
    edges: Vec<(usize, usize)>,
    succs: Csr,
    preds: Csr,
    indegree: Vec<usize>,
    topo: Vec<usize>,
    position: Vec<usize>,
    es: Vec<Seconds>,
    ef: Vec<Seconds>,
    lf: Vec<Seconds>,
    energies: Vec<UnitEnergy>,
}

/// Applies PV-DVS to one mode's schedule.
///
/// Tasks on DVS-enabled software PEs are scaled individually; tasks on
/// DVS-enabled hardware PEs are scaled together through the virtual-task
/// transformation (unless `options.scale_hw` is off). Remote
/// communications and tasks on fixed-voltage PEs keep their nominal
/// timing. The scaler never violates task deadlines or the mode's
/// hyper-period; on a schedule that already misses deadlines it simply
/// finds no slack and returns nominal timing.
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
    let graph = system.omsm().mode(schedule.mode()).graph();
    // Virtual-task merging can, in rare interleavings, create cycles;
    // fall back to group-free scaling then. A cycle without groups is
    // the schedule's own.
    let acyclic = scratch.build_graph(system, schedule, options.scale_hw)
        || (options.scale_hw && scratch.build_graph(system, schedule, false));
    if !acyclic {
        return ScaledMode {
            schedule: schedule.clone(),
            task_voltages: vec![None; graph.task_count()],
            task_energy_factors: vec![1.0; graph.task_count()],
            iterations: 0,
        };
    }
    let iterations = scratch.distribute_slack(graph.period(), options);
    scratch.snap(system, schedule, iterations)
}

impl DvsScratch {
    /// Builds the units (with virtual tasks when `allow_groups`) and their
    /// constraint graph. Returns `false` if the graph is cyclic.
    fn build_graph(&mut self, system: &System, schedule: &Schedule, allow_groups: bool) -> bool {
        self.build_units(system, schedule, allow_groups);
        self.build_constraint_graph(system, schedule)
    }

    /// Fills `units` with one unit per virtual task (when `allow_groups`),
    /// per task outside a virtual task and per remote communication.
    fn build_units(&mut self, system: &System, schedule: &Schedule, allow_groups: bool) {
        let graph = system.omsm().mode(schedule.mode()).graph();
        let period = graph.period();
        let Self { units, task_unit, comm_unit, .. } = self;
        units.clear();
        task_unit.clear();
        task_unit.resize(graph.task_count(), usize::MAX);
        comm_unit.clear();
        comm_unit.resize(graph.comm_count(), None);

        if allow_groups {
            for pe in system.arch().dvs_pes() {
                let pe_info = system.arch().pe(pe);
                if !pe_info.kind().is_hardware() {
                    continue;
                }
                let cap = pe_info.dvs().expect("dvs_pes yields DVS PEs");
                let model = VoltageModel::from_capability(cap);
                let max_stretch = model.max_stretch(cap.v_min());
                for group in virtual_tasks(system, schedule, pe) {
                    let idx = units.len();
                    let mut deadline = period;
                    let members: Vec<GroupMember> = group
                        .members
                        .iter()
                        .map(|&t| {
                            deadline = deadline.min(graph.effective_deadline(t));
                            task_unit[t.index()] = idx;
                            let e = schedule.task(t);
                            GroupMember {
                                task: t,
                                rel_start: e.start - group.start,
                                nominal: e.exec_time,
                            }
                        })
                        .collect();
                    units.push(Unit {
                        payload: UnitPayload::Group { members },
                        deadline,
                        nominal: group.duration(),
                        dur: group.duration(),
                        scale: Some(ScaleInfo { pe, model, energy: group.energy, max_stretch }),
                    });
                }
            }
        }

        for entry in schedule.tasks() {
            let t = entry.task;
            if task_unit[t.index()] != usize::MAX {
                continue;
            }
            let pe_info = system.arch().pe(entry.pe);
            let scale = match pe_info.dvs() {
                Some(cap) if pe_info.kind().is_software() => {
                    let model = VoltageModel::from_capability(cap);
                    let energy = system
                        .tech()
                        .impl_of(graph.task(t).task_type(), entry.pe)
                        .expect("scheduled task has an implementation")
                        .energy();
                    Some(ScaleInfo {
                        pe: entry.pe,
                        model,
                        energy,
                        max_stretch: model.max_stretch(cap.v_min()),
                    })
                }
                _ => None,
            };
            task_unit[t.index()] = units.len();
            units.push(Unit {
                payload: UnitPayload::Task(t),
                deadline: graph.effective_deadline(t),
                nominal: entry.exec_time,
                dur: entry.exec_time,
                scale,
            });
        }

        for entry in schedule.remote_comms() {
            comm_unit[entry.comm.index()] = Some(units.len());
            units.push(Unit {
                payload: UnitPayload::Comm(entry.comm),
                deadline: period,
                nominal: entry.duration,
                dur: entry.duration,
                scale: None,
            });
        }
    }

    /// Builds the constraint edges between units — precedence edges from
    /// the task graph (through remote communications where they exist)
    /// and resource-order edges from the per-resource sequences — with
    /// their successor/predecessor rows, a topological order and each
    /// unit's position in it. Returns `false` if the unit graph is
    /// cyclic.
    fn build_constraint_graph(&mut self, system: &System, schedule: &Schedule) -> bool {
        let graph = system.omsm().mode(schedule.mode()).graph();
        let Self {
            units, task_unit, comm_unit, edges, succs, preds, indegree, topo, position, ..
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
        for (_, acts) in schedule.sequences() {
            for pair in acts.windows(2) {
                let ua = activity_unit(pair[0], task_unit, comm_unit);
                let ub = activity_unit(pair[1], task_unit, comm_unit);
                if ua != ub {
                    edges.push((ua, ub));
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

        // Kahn's algorithm; the queue, read front to back, is the order.
        indegree.clear();
        indegree.extend((0..n).map(|u| preds.row(u).len()));
        topo.clear();
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
        let Self { units, preds, topo, es, ef, .. } = self;
        es.resize(units.len(), Seconds::ZERO);
        ef.resize(units.len(), Seconds::ZERO);
        for &u in &topo[from..] {
            let start = preds.row(u).iter().map(|&p| ef[p]).fold(Seconds::ZERO, Seconds::max);
            es[u] = start;
            ef[u] = start + units[u].dur;
        }
    }

    /// Latest finish, keeping all deadlines, of the units before
    /// position `to` of the topological order. A unit's latest finish
    /// depends only on units after it in the order (and not on its own
    /// duration), so after a unit is extended the pass up to its position
    /// redoes all that changed; up to the unit count it times every unit.
    fn backward(&mut self, to: usize) {
        let Self { units, succs, topo, lf, .. } = self;
        lf.resize(units.len(), Seconds::ZERO);
        for &u in topo[..to].iter().rev() {
            lf[u] = units[u].deadline;
            for &s in succs.row(u) {
                lf[u] = lf[u].min(lf[s] - units[s].dur);
            }
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
        let Self { units, energies, .. } = self;
        energies.clear();
        for (u, unit) in units.iter().enumerate() {
            let Some(scale) = &unit.scale else { continue };
            if unit.nominal.value() <= 0.0 {
                continue;
            }
            energies.push(UnitEnergy {
                unit: u,
                now: scale.energy_at(unit.nominal, unit.dur),
                next: scale.energy_at(unit.nominal, unit.dur + quantum),
            });
        }
        // The positions whose times are stale: every one at first, then
        // those the last extension can move.
        let (mut from, mut to) = (0, units.len());
        let mut iterations = 0usize;
        while iterations < options.max_iterations {
            self.forward(from);
            self.backward(to);
            let mut best: Option<(usize, Seconds, f64)> = None;
            for (i, cached) in self.energies.iter().enumerate() {
                let u = cached.unit;
                let unit = &self.units[u];
                let scale = unit.scale.as_ref().expect("cached units are scalable");
                let slack = self.lf[u] - self.ef[u];
                let room = unit.nominal * scale.max_stretch - unit.dur;
                let delta = quantum.min(slack).min(room);
                if delta <= eps {
                    continue;
                }
                let e_new = if delta == quantum {
                    cached.next
                } else {
                    scale.energy_at(unit.nominal, unit.dur + delta)
                };
                let gain = (cached.now - e_new) / delta.value();
                if gain > 0.0 && best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((i, delta, gain));
                }
            }
            let Some((i, delta, _)) = best else { break };
            let cached = &mut self.energies[i];
            let unit = &mut self.units[cached.unit];
            unit.dur += delta;
            let scale = unit.scale.as_ref().expect("cached units are scalable");
            cached.now = scale.energy_at(unit.nominal, unit.dur);
            cached.next = scale.energy_at(unit.nominal, unit.dur + quantum);
            let at = self.position[cached.unit];
            (from, to) = (at, at);
            iterations += 1;
        }
        iterations
    }

    /// Snaps every extension to the discrete levels and rebuilds the
    /// schedule from the realised durations.
    fn snap(&mut self, system: &System, schedule: &Schedule, iterations: usize) -> ScaledMode {
        let graph = system.omsm().mode(schedule.mode()).graph();
        let n = graph.task_count();
        let cap = |scale: &ScaleInfo| {
            system.arch().pe(scale.pe).dvs().expect("scaled units run on DVS PEs")
        };
        let mut task_voltages: Vec<Option<VoltageSchedule>> = vec![None; n];
        let mut task_factors = vec![1.0f64; n];
        // `Schedule::tasks` runs in task-id order, so entry `t` is task `t`.
        let mut new_tasks: Vec<ScheduledTask> = schedule.tasks().copied().collect();
        let mut new_comms: Vec<Option<ScheduledComm>> =
            graph.comm_ids().map(|c| schedule.comm(c).copied()).collect();

        // First pass: apply snapped durations so the final forward pass
        // uses realised (discrete) times. Only each fit's total time is
        // read here; the second pass fits again, to the snapped time,
        // because a fit to its own total time need not repeat its
        // segments bit for bit.
        for unit in &mut self.units {
            let Some(scale) = &unit.scale else { continue };
            if unit.dur.value() <= unit.nominal.value() * (1.0 + 1e-12) {
                unit.dur = unit.nominal;
                continue;
            }
            unit.dur =
                VoltageSchedule::fitted_time(cap(scale), &scale.model, unit.nominal, unit.dur);
        }
        self.forward(0);
        let es = &self.es;

        for (u, unit) in self.units.iter().enumerate() {
            match &unit.payload {
                UnitPayload::Task(t) => {
                    let entry = &mut new_tasks[t.index()];
                    entry.start = es[u];
                    if let Some(scale) = &unit.scale {
                        let vs =
                            VoltageSchedule::fit(cap(scale), &scale.model, unit.nominal, unit.dur);
                        entry.exec_time = vs.total_time();
                        task_factors[t.index()] = vs.energy_factor(&scale.model);
                        task_voltages[t.index()] = Some(vs);
                    }
                }
                UnitPayload::Comm(c) => {
                    let entry = new_comms[c.index()]
                        .as_mut()
                        .expect("comm unit exists only for remote comms");
                    entry.start = es[u];
                }
                UnitPayload::Group { members } => {
                    let scale = unit.scale.as_ref().expect("groups are always scalable");
                    let k = if unit.nominal.value() > 0.0 { unit.dur / unit.nominal } else { 1.0 };
                    for m in members {
                        let entry = &mut new_tasks[m.task.index()];
                        entry.start = es[u] + m.rel_start * k;
                        let vs = VoltageSchedule::fit(
                            cap(scale),
                            &scale.model,
                            m.nominal,
                            m.nominal * k,
                        );
                        entry.exec_time = vs.total_time();
                        task_factors[m.task.index()] = vs.energy_factor(&scale.model);
                        task_voltages[m.task.index()] = Some(vs);
                    }
                }
            }
        }

        let new_schedule = Schedule::from_parts(
            schedule.mode(),
            new_tasks,
            new_comms,
            schedule.sequences().to_vec(),
        );
        ScaledMode {
            schedule: new_schedule,
            task_voltages,
            task_energy_factors: task_factors,
            iterations,
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
