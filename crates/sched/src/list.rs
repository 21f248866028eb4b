//! Mobility-driven list scheduling with on-line communication mapping.
//!
//! This is the inner loop of the paper's co-synthesis (Fig. 4, line 10),
//! equivalent in role to the LOPOCOS scheduling substrate of the paper's
//! reference \[12\]: given a task mapping and a hardware core allocation, construct a
//! static schedule `Sε^O` for one mode and simultaneously derive the
//! communication mapping `Mγ^O` by routing each inter-PE transfer over the
//! connecting link that lets it finish earliest.
//!
//! Resources are modelled as sequential servers: one per software PE, one
//! per allocated hardware core instance, one per link. Hardware tasks of
//! different cores run in parallel; tasks contending for the same core
//! instance sequentialise — the paper's hardware-sharing semantics.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use momsynth_model::ids::{ClId, ModeId, TaskId};
use momsynth_model::units::Seconds;
use momsynth_model::System;

use crate::error::SchedError;
use crate::mapping::{CoreAllocation, SystemMapping};
use crate::mobility::{PriorityKey, TimingAnalysis};
use crate::schedule::{
    ActivityId, ResourceKey, Schedule, ScheduleView, ScheduledComm, ScheduledTask,
};

/// The rule used to order ready tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Ascending mobility (the paper's choice): urgent tasks first.
    #[default]
    Mobility,
    /// Task-id order; the ablation baseline for design decision D5.
    Fifo,
}

/// Options controlling the list scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerOptions {
    /// Ready-list ordering rule.
    pub priority: Priority,
}

/// Reusable buffers for [`list_schedule`], [`schedule_mode_with`] and
/// [`schedule_mode_timed`]. One instance per evaluation worker amortises
/// the scheduler's per-call allocations across the thousands of schedule
/// calls of a synthesis run. Buffers are cleared on entry, so reuse can
/// never leak state between calls.
///
/// A pass leaves its result here: each task's entry by task id, the comm
/// table and the placements, which the assembly of a [`Schedule`] sorts
/// into per-resource sequences. [`ListScratch::view`],
/// [`ListScratch::placements`] and [`ListScratch::slots`] read it, e.g.
/// for PV-DVS, which takes each resource's order from the placements.
///
/// Resources live in dense slots laid out in [`ResourceKey`] order: one
/// per PE (software PEs use theirs), then one per `(PE, type, instance)`
/// of the analysis's [`TimingAnalysis::cores`], then one per link.
#[derive(Debug, Default)]
pub struct ListScratch {
    /// The analysis [`schedule_mode_with`] computes for its own call.
    timing: TimingAnalysis,
    /// The mode of the last pass, if it succeeded.
    mode: Option<ModeId>,
    /// Each task's entry once the pass has placed it.
    scheduled: Vec<Option<ScheduledTask>>,
    /// The last pass's tasks, indexed by task id.
    tasks: Vec<ScheduledTask>,
    /// The last pass's comm table, indexed by comm id; `None` marks a
    /// PE-local transfer.
    comms: Vec<Option<ScheduledComm>>,
    pending_preds: Vec<usize>,
    /// The priority keys of the ready tasks; keys are distinct, so the
    /// heap pops the most urgent task as a scan for the least key would.
    ready: BinaryHeap<Reverse<PriorityKey>>,
    /// The first slot of each core's instances, plus the first link slot.
    core_slots: Vec<usize>,
    /// The resource of every slot, ascending.
    slot_keys: Vec<ResourceKey>,
    /// When each slot is next free.
    avail: Vec<Seconds>,
    /// Every placed activity with its slot, in placement order.
    placed: Vec<(usize, ActivityId)>,
    /// Per slot: its activity count, then its index among the sequences.
    bucket: Vec<usize>,
}

/// Schedules one mode of `system` under `mapping` and `alloc`.
///
/// Returns a [`Schedule`] with per-resource activity sequences; timing
/// feasibility is *not* enforced here — the caller inspects
/// [`Schedule::total_lateness`] and applies the paper's timing penalty.
///
/// Allocates fresh working buffers per call; the synthesis hot loop uses
/// [`schedule_mode_timed`] with a reusable [`ListScratch`] instead.
///
/// # Errors
///
/// Returns [`SchedError::UnsupportedMapping`] if a task is mapped to a PE
/// lacking an implementation of its type, and [`SchedError::NoRoute`] if
/// two communicating tasks sit on PEs with no common link.
pub fn schedule_mode(
    system: &System,
    mode: ModeId,
    mapping: &SystemMapping,
    alloc: &CoreAllocation,
    options: SchedulerOptions,
) -> Result<Schedule, SchedError> {
    schedule_mode_with(system, mode, mapping, alloc, options, &mut ListScratch::default())
}

/// [`schedule_mode`] with caller-provided scratch buffers; produces the
/// identical schedule. Analyses the mode's timing into `scratch` and
/// then runs [`schedule_mode_timed`].
///
/// # Errors
///
/// As [`schedule_mode`].
pub fn schedule_mode_with(
    system: &System,
    mode: ModeId,
    mapping: &SystemMapping,
    alloc: &CoreAllocation,
    options: SchedulerOptions,
    scratch: &mut ListScratch,
) -> Result<Schedule, SchedError> {
    let mut timing = std::mem::take(&mut scratch.timing);
    timing.refresh(system, mode, mapping);
    let schedule = schedule_mode_timed(system, mapping, alloc, &timing, options, scratch);
    scratch.timing = timing;
    schedule
}

/// [`schedule_mode`] for the mode of `timing`, an analysis of that mode
/// under `mapping` that the caller computed once and shares, e.g. with
/// core allocation. Produces the identical schedule: the pass of
/// [`list_schedule`] followed by the assembly of its per-resource
/// sequences.
///
/// # Errors
///
/// As [`schedule_mode`].
pub fn schedule_mode_timed(
    system: &System,
    mapping: &SystemMapping,
    alloc: &CoreAllocation,
    timing: &TimingAnalysis,
    options: SchedulerOptions,
    scratch: &mut ListScratch,
) -> Result<Schedule, SchedError> {
    list_schedule(system, mapping, alloc, timing, options, scratch)?;
    Ok(scratch.assemble(timing.mode()))
}

/// The list scheduler's one pass, for the mode of `timing` (see
/// [`schedule_mode_timed`]): places every task and remote transfer and
/// leaves the result in `scratch`. Returns the view of its tasks and
/// comm table, which is all that pricing and lateness read, so a caller
/// that needs no per-resource sequences keeps no [`Schedule`]. The view
/// borrows `scratch` and ends with the next pass.
///
/// # Errors
///
/// As [`schedule_mode`]; the scratch then holds no result.
pub fn list_schedule<'s>(
    system: &System,
    mapping: &SystemMapping,
    alloc: &CoreAllocation,
    timing: &TimingAnalysis,
    options: SchedulerOptions,
    scratch: &'s mut ListScratch,
) -> Result<ScheduleView<'s>, SchedError> {
    let mode = timing.mode();
    let graph = system.omsm().mode(mode).graph();
    let arch = system.arch();
    let n = graph.task_count();
    let ListScratch {
        mode: passed,
        scheduled,
        tasks,
        comms,
        pending_preds,
        ready,
        core_slots,
        slot_keys,
        avail,
        placed,
        ..
    } = scratch;
    *passed = None;

    // A task's key is computed once, when it becomes ready. Under FIFO
    // only the task id ranks.
    let key = |task: TaskId| match options.priority {
        Priority::Mobility => timing.priority_key(task),
        Priority::Fifo => (0, 0, task.index()),
    };

    // Dense resource slots in `ResourceKey` order; each core's instance
    // count is read in one merge over the mode's allocation row.
    let row = mapping.row(mode);
    let cores = timing.cores();
    slot_keys.clear();
    slot_keys.extend(arch.pe_ids().map(ResourceKey::SwPe));
    core_slots.clear();
    let mut allocated = alloc.mode_cores(mode).peekable();
    for &(pe, ty) in cores {
        core_slots.push(slot_keys.len());
        while allocated.next_if(|&(core, _)| core < (pe, ty)).is_some() {}
        let instances = allocated.next_if(|&(core, _)| core == (pe, ty)).map_or(0, |(_, n)| n);
        slot_keys.extend((0..instances.max(1)).map(|i| ResourceKey::HwCore(pe, ty, i)));
    }
    let first_link = slot_keys.len();
    core_slots.push(first_link);
    slot_keys.extend((0..arch.cl_count()).map(|cl| ResourceKey::Link(ClId::new(cl))));
    avail.clear();
    avail.resize(slot_keys.len(), Seconds::ZERO);
    placed.clear();

    scheduled.clear();
    scheduled.resize(n, None);
    tasks.clear();
    comms.clear();
    comms.resize(graph.comm_count(), None);

    pending_preds.clear();
    pending_preds.extend(graph.task_ids().map(|t| graph.predecessors(t).len()));
    ready.clear();
    ready.extend(
        graph.task_ids().filter(|t| pending_preds[t.index()] == 0).map(|t| Reverse(key(t))),
    );

    while let Some(Reverse((_, _, next))) = ready.pop() {
        let task = TaskId::new(next);
        let pe = row[task.index()];
        if !timing.is_implemented(task) {
            return Err(SchedError::UnsupportedMapping { mode, task, pe });
        }
        let ty = graph.task(task).task_type();

        // Route incoming data, scheduling remote transfers on links.
        let mut est = Seconds::ZERO;
        for &(comm, pred) in graph.predecessors(task) {
            let pred_entry = scheduled[pred.index()]
                .expect("predecessor scheduled before successor became ready");
            let src_pe = pred_entry.pe;
            if src_pe == pe {
                est = est.max(pred_entry.finish());
                continue;
            }
            let edge = graph.comm(comm);
            // Pick the connecting link with the earliest transfer finish.
            let mut best: Option<(usize, ScheduledComm)> = None;
            for cl in arch.cls_between(src_pe, pe) {
                let slot = first_link + cl.index();
                let start = avail[slot].max(pred_entry.finish());
                let duration = arch.cl(cl).transfer_time(edge.data_units());
                let candidate = ScheduledComm { comm, cl, start, duration };
                let better = match &best {
                    None => true,
                    Some((_, b)) => candidate.finish() < b.finish(),
                };
                if better {
                    best = Some((slot, candidate));
                }
            }
            let (slot, entry) = best.ok_or(SchedError::NoRoute { mode, from: src_pe, to: pe })?;
            avail[slot] = entry.finish();
            placed.push((slot, ActivityId::Comm(comm)));
            comms[comm.index()] = Some(entry);
            est = est.max(entry.finish());
        }

        // Pick the execution resource: the PE's own slot, or the core
        // instance that is free first (the lowest index on a tie).
        let slot = if arch.pe(pe).kind().is_software() {
            pe.index()
        } else {
            let pair =
                cores.binary_search(&(pe, ty)).expect("every hardware task's core is laid out");
            let mut best = core_slots[pair];
            for instance in best + 1..core_slots[pair + 1] {
                if avail[instance].value().total_cmp(&avail[best].value()) == Ordering::Less {
                    best = instance;
                }
            }
            best
        };
        let start = est.max(avail[slot]);
        let resource = slot_keys[slot];
        let entry = ScheduledTask { task, pe, resource, start, exec_time: timing.exec_time(task) };
        avail[slot] = entry.finish();
        placed.push((slot, ActivityId::Task(task)));
        scheduled[task.index()] = Some(entry);

        for &(_, succ) in graph.successors(task) {
            pending_preds[succ.index()] -= 1;
            if pending_preds[succ.index()] == 0 {
                ready.push(Reverse(key(succ)));
            }
        }
    }

    tasks.extend(
        scheduled.iter_mut().map(|t| t.take().expect("acyclic graph schedules every task")),
    );
    *passed = Some(mode);
    Ok(ScheduleView::new(mode, tasks, comms))
}

impl ListScratch {
    /// The timing of the last pass, the view [`list_schedule`] returned;
    /// `None` before the first pass and after a failed one.
    pub fn view(&self) -> Option<ScheduleView<'_>> {
        self.mode.map(|mode| ScheduleView::new(mode, &self.tasks, &self.comms))
    }

    /// Every activity the last pass placed, with the index of its
    /// resource in [`ListScratch::slots`], in placement order: each
    /// resource's activities in the order it runs them.
    pub fn placements(&self) -> &[(usize, ActivityId)] {
        &self.placed
    }

    /// The resources of the last pass, one per slot, ascending.
    pub fn slots(&self) -> &[ResourceKey] {
        &self.slot_keys
    }

    /// The assembly step: the [`Schedule`] of the last pass, which was of
    /// `mode` and succeeded.
    fn assemble(&mut self, mode: ModeId) -> Schedule {
        let Self { tasks, comms, slot_keys, placed, bucket, .. } = self;
        // A stable counting sort of the placements by slot gives every
        // used resource's activities in placement order, resources
        // ascending.
        bucket.clear();
        bucket.resize(slot_keys.len(), 0);
        for &(slot, _) in placed.iter() {
            bucket[slot] += 1;
        }
        let mut sequences: Vec<(ResourceKey, Vec<ActivityId>)> = Vec::new();
        for (slot, entry) in bucket.iter_mut().enumerate() {
            if *entry > 0 {
                sequences.push((slot_keys[slot], Vec::with_capacity(*entry)));
                *entry = sequences.len() - 1;
            }
        }
        for &(slot, activity) in placed.iter() {
            sequences[bucket[slot]].1.push(activity);
        }
        Schedule::from_parts(mode, tasks.clone(), comms.clone(), sequences)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::ids::{PeId, TaskTypeId};
    use momsynth_model::units::{Cells, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, TaskGraphBuilder,
        TechLibraryBuilder,
    };

    /// One CPU + one ASIC on a bus; types X (SW 10 ms / HW 1 ms) and
    /// Y (SW only, 5 ms). Mode 0: fork-join a->(l,r)->s with l,r of type X
    /// and a,s of type Y.
    fn testbed() -> System {
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let ty = tech.add_type("Y");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        let hw = arch.add_pe(Pe::hardware("hw", PeKind::Asic, Cells::new(100), Watts::ZERO));
        arch.add_cl(Cl::bus(
            "bus",
            vec![cpu, hw],
            Seconds::from_micros(10.0),
            Watts::ZERO,
            Watts::ZERO,
        ))
        .unwrap();
        tech.set_impl(
            tx,
            cpu,
            Implementation::software(Seconds::from_millis(10.0), Watts::from_milli(1.0)),
        );
        tech.set_impl(
            tx,
            hw,
            Implementation::hardware(
                Seconds::from_millis(1.0),
                Watts::from_micro(10.0),
                Cells::new(50),
            ),
        );
        tech.set_impl(
            ty,
            cpu,
            Implementation::software(Seconds::from_millis(5.0), Watts::from_milli(1.0)),
        );

        let mut g = TaskGraphBuilder::new("fj", Seconds::from_millis(100.0));
        let a = g.add_task("a", ty);
        let l = g.add_task("l", tx);
        let r = g.add_task("r", tx);
        let s = g.add_task("s", ty);
        g.add_comm(a, l, 100.0).unwrap();
        g.add_comm(a, r, 100.0).unwrap();
        g.add_comm(l, s, 100.0).unwrap();
        g.add_comm(r, s, 100.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("fj", 1.0, g.build().unwrap());
        System::new("tb", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    fn cpu_mapping(sys: &System) -> SystemMapping {
        SystemMapping::from_fn(sys, |_| PeId::new(0))
    }

    fn run(sys: &System, mapping: &SystemMapping) -> Schedule {
        let alloc = CoreAllocation::minimal(sys, mapping);
        schedule_mode(sys, ModeId::new(0), mapping, &alloc, SchedulerOptions::default()).unwrap()
    }

    #[test]
    fn software_tasks_sequentialise() {
        let sys = testbed();
        let s = run(&sys, &cpu_mapping(&sys));
        // a(5) then l(10), r(10) in some order, then s(5): makespan 30 ms.
        assert!((s.makespan().as_millis() - 30.0).abs() < 1e-9);
        assert_eq!(s.remote_comms().count(), 0);
        // All four tasks on the single software server, no overlap.
        let seq = s.sequences();
        assert_eq!(seq.len(), 1);
        assert_eq!(seq[0].0, ResourceKey::SwPe(PeId::new(0)));
        assert_eq!(seq[0].1.len(), 4);
        let mut last_finish = Seconds::ZERO;
        for act in &seq[0].1 {
            if let ActivityId::Task(t) = act {
                let e = s.task(*t);
                assert!(e.start + Seconds::new(1e-15) >= last_finish);
                last_finish = e.finish();
            }
        }
    }

    /// Two independent type-X tasks on the ASIC: parallel with two core
    /// instances, sequential with one.
    fn independent_pair_system() -> System {
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let _cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        let hw = arch.add_pe(Pe::hardware("hw", PeKind::Asic, Cells::new(100), Watts::ZERO));
        tech.set_impl(
            tx,
            hw,
            Implementation::hardware(
                Seconds::from_millis(2.0),
                Watts::from_micro(10.0),
                Cells::new(50),
            ),
        );
        let mut g = TaskGraphBuilder::new("pair", Seconds::from_millis(100.0));
        g.add_task("p", tx);
        g.add_task("q", tx);
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("pair", 1.0, g.build().unwrap());
        System::new("pair", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    #[test]
    fn hardware_cores_run_in_parallel_when_replicated() {
        let sys = independent_pair_system();
        let mapping = SystemMapping::from_fn(&sys, |_| PeId::new(1));
        let mut alloc = CoreAllocation::minimal(&sys, &mapping);
        alloc.set_instances(ModeId::new(0), PeId::new(1), TaskTypeId::new(0), 2);
        let s = schedule_mode(&sys, ModeId::new(0), &mapping, &alloc, SchedulerOptions::default())
            .unwrap();
        let p = s.task(TaskId::new(0));
        let q = s.task(TaskId::new(1));
        assert_ne!(p.resource, q.resource);
        assert_eq!(p.start, Seconds::ZERO);
        assert_eq!(q.start, Seconds::ZERO);
        assert!((s.makespan().as_millis() - 2.0).abs() < 1e-9);

        // With the minimal single-core allocation the pair sequentialises.
        let alloc1 = CoreAllocation::minimal(&sys, &mapping);
        let s1 =
            schedule_mode(&sys, ModeId::new(0), &mapping, &alloc1, SchedulerOptions::default())
                .unwrap();
        assert!((s1.makespan().as_millis() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn single_core_contention_sequentialises() {
        let sys = testbed();
        let mut mapping = cpu_mapping(&sys);
        mapping.set(ModeId::new(0), TaskId::new(1), PeId::new(1));
        mapping.set(ModeId::new(0), TaskId::new(2), PeId::new(1));
        let s = run(&sys, &mapping); // minimal alloc: one core
        let l = s.task(TaskId::new(1));
        let r = s.task(TaskId::new(2));
        assert_eq!(l.resource, r.resource);
        let (first, second) = if l.start < r.start { (l, r) } else { (r, l) };
        assert!(second.start + Seconds::new(1e-15) >= first.finish());
    }

    #[test]
    fn remote_comm_is_routed_and_timed() {
        let sys = testbed();
        let mut mapping = cpu_mapping(&sys);
        mapping.set(ModeId::new(0), TaskId::new(1), PeId::new(1));
        let s = run(&sys, &mapping);
        // a finishes at 5 ms; a->l transfers 100 units at 10 us = 1 ms.
        let c = s.comm(momsynth_model::ids::CommId::new(0)).unwrap();
        assert!((c.start.as_millis() - 5.0).abs() < 1e-9);
        assert!((c.duration.as_millis() - 1.0).abs() < 1e-9);
        // l executes 6..7 on hw; l->s transfers back 7..8.
        let l = s.task(TaskId::new(1));
        assert!((l.start.as_millis() - 6.0).abs() < 1e-9);
        let back = s.comm(momsynth_model::ids::CommId::new(2)).unwrap();
        assert!((back.start.as_millis() - 7.0).abs() < 1e-9);
        // Local comms have no entries.
        assert!(s.comm(momsynth_model::ids::CommId::new(1)).is_none());
        assert_eq!(s.remote_comms().count(), 2);
    }

    #[test]
    fn bus_contention_serialises_transfers() {
        let sys = testbed();
        let mut mapping = cpu_mapping(&sys);
        mapping.set(ModeId::new(0), TaskId::new(1), PeId::new(1));
        mapping.set(ModeId::new(0), TaskId::new(2), PeId::new(1));
        let mut alloc = CoreAllocation::minimal(&sys, &mapping);
        alloc.set_instances(ModeId::new(0), PeId::new(1), TaskTypeId::new(0), 2);
        let s = schedule_mode(&sys, ModeId::new(0), &mapping, &alloc, SchedulerOptions::default())
            .unwrap();
        // Both a->l and a->r become ready at 5 ms but share the bus.
        let c0 = s.comm(momsynth_model::ids::CommId::new(0)).unwrap();
        let c1 = s.comm(momsynth_model::ids::CommId::new(1)).unwrap();
        let (first, second) = if c0.start < c1.start { (c0, c1) } else { (c1, c0) };
        assert!(second.start + Seconds::new(1e-15) >= first.finish());
    }

    #[test]
    fn missing_implementation_is_reported() {
        let sys = testbed();
        // Task a has type Y with no HW implementation.
        let mut mapping = cpu_mapping(&sys);
        mapping.set(ModeId::new(0), TaskId::new(0), PeId::new(1));
        let alloc = CoreAllocation::minimal(&sys, &mapping);
        let err =
            schedule_mode(&sys, ModeId::new(0), &mapping, &alloc, SchedulerOptions::default())
                .unwrap_err();
        assert!(matches!(err, SchedError::UnsupportedMapping { .. }));
    }

    #[test]
    fn a_pe_outside_the_architecture_is_reported() {
        let sys = testbed();
        let outside = PeId::new(sys.arch().pe_count());
        let mut mapping = cpu_mapping(&sys);
        mapping.set(ModeId::new(0), TaskId::new(0), outside);
        // The PE is no hardware PE, so it gets no cores.
        let alloc = CoreAllocation::minimal(&sys, &mapping);
        assert_eq!(alloc, CoreAllocation::minimal(&sys, &cpu_mapping(&sys)));
        let options = SchedulerOptions::default();
        let err = schedule_mode(&sys, ModeId::new(0), &mapping, &alloc, options).unwrap_err();
        assert!(matches!(err, SchedError::UnsupportedMapping { pe, .. } if pe == outside), "{err}");
    }

    #[test]
    fn no_route_is_reported() {
        // Two CPUs without any link.
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let c0 = arch.add_pe(Pe::software("c0", PeKind::Gpp, Watts::ZERO));
        let c1 = arch.add_pe(Pe::software("c1", PeKind::Gpp, Watts::ZERO));
        tech.set_impl(tx, c0, Implementation::software(Seconds::new(0.01), Watts::ZERO));
        tech.set_impl(tx, c1, Implementation::software(Seconds::new(0.01), Watts::ZERO));
        let mut g = TaskGraphBuilder::new("g", Seconds::new(1.0));
        let a = g.add_task("a", tx);
        let b = g.add_task("b", tx);
        g.add_comm(a, b, 1.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let sys =
            System::new("s", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap();
        let mapping = SystemMapping::from_vecs(vec![vec![c0, c1]]);
        let alloc = CoreAllocation::minimal(&sys, &mapping);
        let err =
            schedule_mode(&sys, ModeId::new(0), &mapping, &alloc, SchedulerOptions::default())
                .unwrap_err();
        assert!(matches!(err, SchedError::NoRoute { .. }));
    }

    #[test]
    fn scheduling_is_deterministic() {
        let sys = testbed();
        let mapping = cpu_mapping(&sys);
        let a = run(&sys, &mapping);
        let b = run(&sys, &mapping);
        assert_eq!(a, b);
    }

    #[test]
    fn reused_scratch_produces_identical_schedules() {
        let sys = testbed();
        let mut scratch = ListScratch::default();
        // Alternate between mappings so every buffer is refilled with
        // different contents; each result must match a fresh-buffer run.
        for hw_task in [1usize, 2, 1] {
            let mut mapping = cpu_mapping(&sys);
            mapping.set(ModeId::new(0), TaskId::new(hw_task), PeId::new(1));
            let alloc = CoreAllocation::minimal(&sys, &mapping);
            let reused = schedule_mode_with(
                &sys,
                ModeId::new(0),
                &mapping,
                &alloc,
                SchedulerOptions::default(),
                &mut scratch,
            )
            .unwrap();
            let fresh =
                schedule_mode(&sys, ModeId::new(0), &mapping, &alloc, SchedulerOptions::default())
                    .unwrap();
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn the_pass_leaves_the_assembled_schedules_timing() {
        let sys = testbed();
        let mode = ModeId::new(0);
        let options = SchedulerOptions::default();
        let mut scratch = ListScratch::default();
        for hw_tasks in [&[1usize][..], &[1, 2], &[]] {
            let mut mapping = cpu_mapping(&sys);
            for &t in hw_tasks {
                mapping.set(mode, TaskId::new(t), PeId::new(1));
            }
            let alloc = CoreAllocation::minimal(&sys, &mapping);
            let timing = TimingAnalysis::analyze(&sys, mode, &mapping);
            let view =
                list_schedule(&sys, &mapping, &alloc, &timing, options, &mut scratch).unwrap();
            let schedule = schedule_mode(&sys, mode, &mapping, &alloc, options).unwrap();
            assert_eq!(view, schedule.view());
            assert_eq!(view.tasks(), schedule.tasks().copied().collect::<Vec<_>>());
            let remote: Vec<_> = view.remote_comms().copied().collect();
            assert_eq!(remote, schedule.remote_comms().copied().collect::<Vec<_>>());
            assert_eq!(remote.len(), 2 * hw_tasks.len());
            let graph = sys.omsm().mode(mode).graph();
            assert_eq!(view.total_lateness(graph), schedule.total_lateness(graph));
        }
    }

    #[test]
    fn the_placements_give_each_resources_sequence() {
        let sys = testbed();
        let mode = ModeId::new(0);
        let options = SchedulerOptions::default();
        let mut scratch = ListScratch::default();
        assert_eq!(scratch.view(), None);
        let mut mapping = cpu_mapping(&sys);
        mapping.set(mode, TaskId::new(1), PeId::new(1));
        mapping.set(mode, TaskId::new(2), PeId::new(1));
        let alloc = CoreAllocation::minimal(&sys, &mapping);
        let schedule =
            schedule_mode_with(&sys, mode, &mapping, &alloc, options, &mut scratch).unwrap();
        assert_eq!(scratch.view(), Some(schedule.view()));
        let mut sequences: Vec<(ResourceKey, Vec<ActivityId>)> = Vec::new();
        for (slot, resource) in scratch.slots().iter().enumerate() {
            let on_slot = scratch.placements().iter().filter(|&&(s, _)| s == slot);
            let acts: Vec<ActivityId> = on_slot.map(|&(_, act)| act).collect();
            if !acts.is_empty() {
                sequences.push((*resource, acts));
            }
        }
        assert_eq!(sequences, schedule.sequences());
        let placed = scratch.placements().len();
        assert_eq!(placed, 4 + schedule.remote_comms().count());

        // A failed pass leaves no view.
        mapping.set(mode, TaskId::new(0), PeId::new(1));
        assert!(schedule_mode_with(&sys, mode, &mapping, &alloc, options, &mut scratch).is_err());
        assert_eq!(scratch.view(), None);
    }

    /// Three CPUs, only the first two on a bus; a chain a -> b -> c.
    fn bus_pair_system() -> System {
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let pes: Vec<PeId> = ["c0", "c1", "c2"]
            .into_iter()
            .map(|name| arch.add_pe(Pe::software(name, PeKind::Gpp, Watts::ZERO)))
            .collect();
        let bus = Cl::bus(
            "bus",
            vec![pes[0], pes[1]],
            Seconds::from_micros(10.0),
            Watts::ZERO,
            Watts::ZERO,
        );
        arch.add_cl(bus).unwrap();
        for pe in pes {
            tech.set_impl(tx, pe, Implementation::software(Seconds::from_millis(1.0), Watts::ZERO));
        }
        let mut g = TaskGraphBuilder::new("chain", Seconds::from_millis(100.0));
        let a = g.add_task("a", tx);
        let b = g.add_task("b", tx);
        let c = g.add_task("c", tx);
        g.add_comm(a, b, 100.0).unwrap();
        g.add_comm(b, c, 100.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        System::new("pair", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    #[test]
    fn a_failed_pass_leaves_nothing_for_the_next() {
        let sys = bus_pair_system();
        let mode = ModeId::new(0);
        let options = SchedulerOptions::default();
        let pe = PeId::new;
        // a -> b crosses the bus and is placed; b -> c has no route.
        let stranded = SystemMapping::from_vecs(vec![vec![pe(0), pe(1), pe(2)]]);
        // a -> b is local; b -> c crosses the bus.
        let routed = SystemMapping::from_vecs(vec![vec![pe(0), pe(0), pe(1)]]);
        let run = |mapping: &SystemMapping, scratch: &mut ListScratch| {
            let alloc = CoreAllocation::minimal(&sys, mapping);
            let timing = TimingAnalysis::analyze(&sys, mode, mapping);
            let view = list_schedule(&sys, mapping, &alloc, &timing, options, scratch)?;
            let timing_of =
                (view.tasks().to_vec(), view.remote_comms().copied().collect::<Vec<_>>());
            let schedule = schedule_mode_timed(&sys, mapping, &alloc, &timing, options, scratch)?;
            Ok::<_, SchedError>((timing_of, schedule))
        };
        let mut scratch = ListScratch::default();
        let failure = run(&stranded, &mut scratch).unwrap_err();
        assert!(matches!(failure, SchedError::NoRoute { .. }), "{failure:?}");
        let after_failure = run(&routed, &mut scratch).unwrap();
        let fresh = run(&routed, &mut ListScratch::default()).unwrap();
        assert_eq!(after_failure, fresh);
        assert_eq!(fresh.1.comm(momsynth_model::ids::CommId::new(0)), None);
        assert_eq!(fresh.0 .1.len(), 1);
    }

    #[test]
    fn fifo_priority_is_supported() {
        let sys = testbed();
        let mapping = cpu_mapping(&sys);
        let alloc = CoreAllocation::minimal(&sys, &mapping);
        let s = schedule_mode(
            &sys,
            ModeId::new(0),
            &mapping,
            &alloc,
            SchedulerOptions { priority: Priority::Fifo },
        )
        .unwrap();
        // Same makespan on a single resource regardless of order.
        assert!((s.makespan().as_millis() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn gantt_rendering_mentions_resources_and_tasks() {
        let sys = testbed();
        let mut mapping = cpu_mapping(&sys);
        mapping.set(ModeId::new(0), TaskId::new(1), PeId::new(1));
        let s = run(&sys, &mapping);
        let gantt = s.to_gantt_string(&sys);
        assert!(gantt.contains("cpu"));
        assert!(gantt.contains("hw"));
        assert!(gantt.contains("bus"));
        assert!(gantt.contains("xfer"));
    }
}
