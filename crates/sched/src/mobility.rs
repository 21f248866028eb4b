//! ASAP/ALAP timing analysis and task mobility.
//!
//! Mobility — the difference between a task's as-late-as-possible and
//! as-soon-as-possible start times — drives two things in the paper's flow
//! (Fig. 4, lines 4–5): the priority order of the list scheduler and the
//! decision to replicate hardware cores for parallel tasks with low
//! mobility.
//!
//! Execution times are taken from the technology library for the mapped
//! PE; inter-PE communication delays are estimated optimistically with the
//! fastest link connecting the two PEs (the scheduler makes the final
//! choice).

use momsynth_model::ids::{ModeId, PeId, TaskId, TaskTypeId};
use momsynth_model::units::Seconds;
use momsynth_model::System;

use crate::mapping::{hardware_cores, SystemMapping};

/// A task's place in the list scheduler's priority order as integers:
/// its mobility, then its ASAP time, each as [`total_order_bits`], then
/// its id. Distinct per task, so sorting keys is sorting tasks.
pub(crate) type PriorityKey = (u64, u64, usize);

/// The ASAP/ALAP start times of every task in one mode, and the hardware
/// cores the mode's mapping row needs.
///
/// An analysis can be refilled in place with [`TimingAnalysis::refresh`],
/// so one evaluation worker keeps one per mode and re-analyses each
/// candidate without allocating; core allocation and the list scheduler
/// then read the same analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingAnalysis {
    mode: ModeId,
    /// The sorted, distinct `(PE, type)` pairs of the mode's hardware
    /// tasks.
    cores: Vec<(PeId, TaskTypeId)>,
    /// The tasks whose PE lacks an implementation of their type,
    /// ascending: none in a mapping built from candidate PEs.
    unimplemented: Vec<TaskId>,
    exec: Vec<Seconds>,
    /// Per comm: the fastest transfer between its tasks' PEs (zero when
    /// they share one), estimated once for both passes.
    transfer: Vec<Seconds>,
    asap: Vec<Seconds>,
    alap: Vec<Seconds>,
}

impl Default for TimingAnalysis {
    /// An empty analysis of mode 0, to be filled by
    /// [`TimingAnalysis::refresh`].
    fn default() -> Self {
        Self {
            mode: ModeId::new(0),
            cores: Vec::new(),
            unimplemented: Vec::new(),
            exec: Vec::new(),
            transfer: Vec::new(),
            asap: Vec::new(),
            alap: Vec::new(),
        }
    }
}

impl TimingAnalysis {
    /// Analyses `mode` of `system` under `mapping`.
    ///
    /// Tasks mapped to PEs without an implementation of their type are
    /// given the fastest available execution time of the type so that
    /// analysis stays total; such mappings are rejected later by
    /// [`SystemMapping::validate`] and the scheduler.
    pub fn analyze(system: &System, mode: ModeId, mapping: &SystemMapping) -> Self {
        let mut analysis = Self::default();
        analysis.refresh(system, mode, mapping);
        analysis
    }

    /// Re-analyses `mode` of `system` under `mapping` in place, reusing
    /// the buffers' capacity. Leaves exactly the analysis
    /// [`TimingAnalysis::analyze`] returns.
    pub fn refresh(&mut self, system: &System, mode: ModeId, mapping: &SystemMapping) {
        let graph = system.omsm().mode(mode).graph();
        let n = graph.task_count();
        let Self { mode: analysed, cores, unimplemented, exec, transfer, asap, alap } = self;
        *analysed = mode;

        let row = mapping.row(mode);
        hardware_cores(system, graph, row, cores);
        unimplemented.clear();
        exec.clear();
        exec.reserve(n);
        for (task, t) in graph.tasks() {
            let imp = system.tech().impl_of(t.task_type(), row[task.index()]);
            if imp.is_none() {
                unimplemented.push(task);
            }
            let fastest = || system.tech().fastest_exec_time(t.task_type());
            exec.push(imp.map(|imp| imp.exec_time()).or_else(fastest).unwrap_or(Seconds::ZERO));
        }

        // The fastest link gives the least transfer time of the shared
        // links: a transfer time is the link's time per data unit times
        // a non-negative, finite volume, which is monotone in the former.
        let arch = system.arch();
        transfer.clear();
        transfer.extend(graph.comms().map(|(_, edge)| {
            let (src_pe, dst_pe) = (row[edge.src().index()], row[edge.dst().index()]);
            if src_pe == dst_pe {
                return Seconds::ZERO;
            }
            let fastest = arch.fastest_cl(src_pe, dst_pe);
            fastest.map_or(Seconds::ZERO, |cl| arch.cl(cl).transfer_time(edge.data_units()))
        }));

        // Forward pass: earliest start ignoring resource contention.
        asap.clear();
        asap.resize(n, Seconds::ZERO);
        for &t in graph.topological_order() {
            let mut start = Seconds::ZERO;
            for &(comm, pred) in graph.predecessors(t) {
                let arrival = asap[pred.index()] + exec[pred.index()] + transfer[comm.index()];
                start = start.max(arrival);
            }
            asap[t.index()] = start;
        }

        // Backward pass: latest finish meeting min(θ, φ) everywhere, held
        // in `alap` until every successor's finish is known.
        alap.clear();
        alap.resize(n, Seconds::ZERO);
        for &t in graph.topological_order().iter().rev() {
            let mut finish = graph.effective_deadline(t);
            for &(comm, succ) in graph.successors(t) {
                let succ_start = alap[succ.index()] - exec[succ.index()];
                finish = finish.min(succ_start - transfer[comm.index()]);
            }
            alap[t.index()] = finish;
        }
        for (latest, &e) in alap.iter_mut().zip(exec.iter()) {
            *latest -= e;
        }
    }

    /// `task`'s [`PriorityKey`]: the list scheduler readies each task
    /// once and orders its ready heap on these keys.
    pub(crate) fn priority_key(&self, task: TaskId) -> PriorityKey {
        priority_key(&self.asap, &self.alap, task.index())
    }

    /// Returns the analysed mode.
    pub fn mode(&self) -> ModeId {
        self.mode
    }

    /// Returns the sorted, distinct `(PE, type)` pairs of the mode's
    /// hardware tasks: the cores
    /// [`CoreAllocation::minimal`](crate::CoreAllocation::minimal) gives
    /// the mode one instance each of.
    pub fn cores(&self) -> &[(PeId, TaskTypeId)] {
        &self.cores
    }

    /// Whether `task`'s PE implements its type; when it does,
    /// [`TimingAnalysis::exec_time`] is the implementation's.
    pub(crate) fn is_implemented(&self, task: TaskId) -> bool {
        self.unimplemented.binary_search(&task).is_err()
    }

    /// Returns the execution time assumed for `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn exec_time(&self, task: TaskId) -> Seconds {
        self.exec[task.index()]
    }

    /// Returns the earliest possible start of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn asap(&self, task: TaskId) -> Seconds {
        self.asap[task.index()]
    }

    /// Returns the latest deadline-feasible start of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn alap(&self, task: TaskId) -> Seconds {
        self.alap[task.index()]
    }

    /// Returns the mobility `ALAP − ASAP` of `task`. Negative mobility
    /// means no resource-unconstrained schedule can meet the deadlines
    /// under this mapping.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn mobility(&self, task: TaskId) -> Seconds {
        self.alap[task.index()] - self.asap[task.index()]
    }

    /// Returns all tasks sorted by ascending mobility (most urgent first),
    /// ties broken by ASAP time and then task id — the list-scheduler
    /// priority order.
    pub fn priority_order(&self) -> Vec<TaskId> {
        key_order(&self.asap, &self.alap)
    }
}

/// Maps `x` to an integer whose unsigned order is [`f64::total_cmp`]'s
/// order: a negative number's bits are inverted, a positive number's
/// sign bit is set.
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// The [`PriorityKey`] of task `task` from every task's ASAP and ALAP
/// times.
fn priority_key(asap: &[Seconds], alap: &[Seconds], task: usize) -> PriorityKey {
    let (early, late) = (asap[task], alap[task]);
    (total_order_bits((late - early).value()), total_order_bits(early.value()), task)
}

/// The task ids `0..asap.len()` sorted by ascending `alap − asap` under
/// [`f64::total_cmp`], then ASAP time, then task id: an unstable sort of
/// distinct [`PriorityKey`]s.
fn key_order(asap: &[Seconds], alap: &[Seconds]) -> Vec<TaskId> {
    let mut keys: Vec<PriorityKey> = (0..asap.len()).map(|t| priority_key(asap, alap, t)).collect();
    keys.sort_unstable();
    keys.into_iter().map(|(_, _, task)| TaskId::new(task)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::ids::PeId;
    use momsynth_model::units::{Cells, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, TaskGraphBuilder,
        TechLibraryBuilder,
    };

    /// Fork-join: a -> (l, r) -> s, all on one CPU (type X, 10 ms each),
    /// period 100 ms.
    fn fork_join_system(period_ms: f64) -> System {
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
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

        let mut g = TaskGraphBuilder::new("fj", Seconds::from_millis(period_ms));
        let a = g.add_task("a", tx);
        let l = g.add_task("l", tx);
        let r = g.add_task("r", tx);
        let s = g.add_task("s", tx);
        g.add_comm(a, l, 100.0).unwrap();
        g.add_comm(a, r, 100.0).unwrap();
        g.add_comm(l, s, 100.0).unwrap();
        g.add_comm(r, s, 100.0).unwrap();

        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("fj", 1.0, g.build().unwrap());
        System::new("fj", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    fn all_cpu_mapping(system: &System) -> SystemMapping {
        SystemMapping::from_fn(system, |_| PeId::new(0))
    }

    #[test]
    fn asap_follows_precedence_same_pe() {
        let sys = fork_join_system(100.0);
        let ta = TimingAnalysis::analyze(&sys, ModeId::new(0), &all_cpu_mapping(&sys));
        // All on one PE: comm estimates are zero.
        assert_eq!(ta.asap(TaskId::new(0)), Seconds::ZERO);
        assert_eq!(ta.asap(TaskId::new(1)), Seconds::from_millis(10.0));
        assert_eq!(ta.asap(TaskId::new(2)), Seconds::from_millis(10.0));
        assert_eq!(ta.asap(TaskId::new(3)), Seconds::from_millis(20.0));
    }

    #[test]
    fn alap_backs_off_from_period() {
        let sys = fork_join_system(100.0);
        let ta = TimingAnalysis::analyze(&sys, ModeId::new(0), &all_cpu_mapping(&sys));
        // Sink must start by 90 ms; its predecessors by 80 ms; source by 70 ms.
        assert!((ta.alap(TaskId::new(3)).as_millis() - 90.0).abs() < 1e-9);
        assert!((ta.alap(TaskId::new(1)).as_millis() - 80.0).abs() < 1e-9);
        assert!((ta.alap(TaskId::new(0)).as_millis() - 70.0).abs() < 1e-9);
        // All tasks share the same 70 ms mobility on the critical path.
        assert!((ta.mobility(TaskId::new(0)).as_millis() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn tight_period_gives_zero_mobility() {
        let sys = fork_join_system(30.0);
        let ta = TimingAnalysis::analyze(&sys, ModeId::new(0), &all_cpu_mapping(&sys));
        for t in 0..4 {
            assert!(ta.mobility(TaskId::new(t)).value().abs() < 1e-9);
        }
    }

    #[test]
    fn infeasible_period_gives_negative_mobility() {
        let sys = fork_join_system(20.0);
        let ta = TimingAnalysis::analyze(&sys, ModeId::new(0), &all_cpu_mapping(&sys));
        assert!(ta.mobility(TaskId::new(0)).value() < 0.0);
    }

    #[test]
    fn cross_pe_comm_is_estimated() {
        let sys = fork_join_system(100.0);
        // Map task l to hardware: comms a->l and l->s become remote
        // (100 units at 10 us/unit = 1 ms each); l runs in 1 ms.
        let mut mapping = all_cpu_mapping(&sys);
        mapping.set(ModeId::new(0), TaskId::new(1), PeId::new(1));
        let ta = TimingAnalysis::analyze(&sys, ModeId::new(0), &mapping);
        assert!((ta.asap(TaskId::new(1)).as_millis() - 11.0).abs() < 1e-9);
        // Sink waits for r (slower path through cpu): max(11+1+1, 10+10) = 20.
        assert!((ta.asap(TaskId::new(3)).as_millis() - 20.0).abs() < 1e-9);
        assert_eq!(ta.exec_time(TaskId::new(1)), Seconds::from_millis(1.0));
    }

    #[test]
    fn priority_order_puts_critical_tasks_first() {
        let sys = fork_join_system(100.0);
        let mut mapping = all_cpu_mapping(&sys);
        mapping.set(ModeId::new(0), TaskId::new(1), PeId::new(1));
        let ta = TimingAnalysis::analyze(&sys, ModeId::new(0), &mapping);
        let order = ta.priority_order();
        assert_eq!(order.len(), 4);
        // The HW-mapped branch l finishes quickly, so it has more slack
        // than the r branch; r must come before l in priority order.
        let pos = |t: usize| order.iter().position(|&x| x == TaskId::new(t)).unwrap();
        assert!(pos(2) < pos(1));
    }

    #[test]
    fn deadline_tightens_alap() {
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        tech.set_impl(tx, cpu, Implementation::software(Seconds::from_millis(10.0), Watts::ZERO));
        let mut g = TaskGraphBuilder::new("g", Seconds::from_millis(100.0));
        let a = g.add_task_with_deadline("a", tx, Seconds::from_millis(15.0));
        let b = g.add_task("b", tx);
        g.add_comm(a, b, 0.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let sys =
            System::new("s", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap();
        let mapping = SystemMapping::from_fn(&sys, |_| cpu);
        let ta = TimingAnalysis::analyze(&sys, ModeId::new(0), &mapping);
        // a must start by 5 ms to meet its own 15 ms deadline.
        assert!((ta.alap(TaskId::new(0)).as_millis() - 5.0).abs() < 1e-9);
        assert_eq!(ta.asap(TaskId::new(0)), Seconds::ZERO);
        assert!((ta.mobility(TaskId::new(0)).as_millis() - 5.0).abs() < 1e-9);
    }

    /// The order the keys replace: a comparator sort by mobility under
    /// `total_cmp`, then ASAP time, then task id.
    fn comparator_order(asap: &[Seconds], alap: &[Seconds]) -> Vec<TaskId> {
        let mut order: Vec<TaskId> = (0..asap.len()).map(TaskId::new).collect();
        order.sort_by(|&a, &b| {
            let mob = |t: TaskId| (alap[t.index()] - asap[t.index()]).value();
            mob(a)
                .total_cmp(&mob(b))
                .then(asap[a.index()].value().total_cmp(&asap[b.index()].value()))
                .then(a.index().cmp(&b.index()))
        });
        order
    }

    proptest::proptest! {
        /// Sorting the integer keys orders tasks exactly as the
        /// comparator does, over times drawn mostly from a few values, so
        /// ties, negative mobility, ±0.0, infinities and NaN are common.
        #[test]
        fn key_sorted_priority_order_equals_the_comparator_sort(
            times in proptest::collection::vec((0usize..10, 0usize..10, -1.0f64..1.0), 0..40),
        ) {
            let pick = |choice: usize, random: f64| {
                let values = [0.0, -0.0, 1.0, -1.0, 0.5, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
                Seconds::new(values.get(choice).copied().unwrap_or(random))
            };
            let asap: Vec<Seconds> = times.iter().map(|&(a, _, r)| pick(a, r)).collect();
            let alap: Vec<Seconds> = times.iter().map(|&(_, l, r)| pick(l, -r)).collect();
            proptest::prop_assert_eq!(key_order(&asap, &alap), comparator_order(&asap, &alap));
        }
    }

    #[test]
    fn refresh_reproduces_a_fresh_analysis() {
        let sys = fork_join_system(100.0);
        let mut reused = TimingAnalysis::default();
        // Reuse one analysis across different mappings: stale buffer
        // contents must not leak into later analyses.
        for hw_task in [1usize, 2, 3] {
            let mut mapping = all_cpu_mapping(&sys);
            mapping.set(ModeId::new(0), TaskId::new(hw_task), PeId::new(1));
            reused.refresh(&sys, ModeId::new(0), &mapping);
            let fresh = TimingAnalysis::analyze(&sys, ModeId::new(0), &mapping);
            assert_eq!(reused, fresh);
            assert_eq!(reused.priority_order(), fresh.priority_order());
        }
    }
}
