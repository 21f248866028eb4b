//! Hardware core allocation (Fig. 4, lines 4–5).
//!
//! Every task type mapped to a hardware PE needs at least one core. On top
//! of that minimum, the paper allocates *additional* cores for parallel
//! tasks with low mobility, increasing the chance to exploit application
//! parallelism — which also helps energy, especially under DVS, where the
//! shortened schedule leaves more slack to convert into voltage reduction.
//! Replication stops as soon as it would violate the PE's area constraint
//! (ASICs count the static union of all modes' cores; FPGAs count each
//! mode separately because cores are swapped at mode changes).

use momsynth_model::ids::{PeId, TaskTypeId};
use momsynth_model::System;
use momsynth_sched::{CoreAllocation, SystemMapping, TimingAnalysis};

/// Options controlling core replication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocOptions {
    /// Replicate cores for parallel low-mobility tasks (design decision
    /// D4; disable for the ablation).
    pub replicate: bool,
    /// A task counts as low-mobility when its mobility is below this
    /// fraction of the mode's period.
    pub mobility_threshold: f64,
}

impl Default for AllocOptions {
    fn default() -> Self {
        Self { replicate: true, mobility_threshold: 0.25 }
    }
}

/// One replication demand of a mode: `n > 1` instances of the `ty` core
/// on `pe`, as `(pe, ty, n)`.
pub(crate) type Raise = (PeId, TaskTypeId, usize);

/// Derives the core allocation implied by `mapping`, optionally
/// replicating cores for parallel low-mobility tasks while area allows.
/// Without replication this is [`CoreAllocation::minimal`]; with it,
/// each mode's part is derived as the evaluator derives it — its timing
/// analysis and the replication demands found from it — and the one
/// replication loop turns the parts into the allocation.
pub fn derive_allocation(
    system: &System,
    mapping: &SystemMapping,
    options: &AllocOptions,
) -> CoreAllocation {
    if !options.replicate {
        return CoreAllocation::minimal(system, mapping);
    }
    let mut sweep = DemandSweep::default();
    let (timing, raises): (Vec<TimingAnalysis>, Vec<Vec<Raise>>) = system
        .omsm()
        .mode_ids()
        .map(|mode| {
            let analysis = TimingAnalysis::analyze(system, mode, mapping);
            let mut raises = Vec::new();
            sweep.demands(system, mapping.row(mode), &analysis, options, &mut raises);
            (analysis, raises)
        })
        .unzip();
    assemble(system, &timing, raises.iter().map(Vec::as_slice))
}

/// The one replication loop, behind [`derive_allocation`] and the
/// evaluator: one instance of each of every mode's cores, read off
/// `timing`, then mode by mode, in mode order, each of the mode's
/// `raises` (one slice per mode, fewer meaning none) applied in order,
/// one instance at a time while the PE's area allows. An FPGA counts
/// the mode's own cores, an ASIC the union of every mode's.
pub(crate) fn assemble<'r>(
    system: &System,
    timing: &[TimingAnalysis],
    raises: impl IntoIterator<Item = &'r [Raise]>,
) -> CoreAllocation {
    let mut alloc = CoreAllocation::from_analyses(timing);
    for (mode, raises) in system.omsm().mode_ids().zip(raises) {
        for &(pe, ty, demand) in raises {
            let info = system.arch().pe(pe);
            let capacity = info.area().expect("hardware PEs declare area");
            for want in 2..=demand {
                alloc.set_instances(mode, pe, ty, want);
                let used = if info.kind().is_reconfigurable() {
                    alloc.mode_area(system, pe, mode)
                } else {
                    alloc.static_area(system, pe)
                };
                if used > capacity {
                    alloc.set_instances(mode, pe, ty, want - 1);
                    break;
                }
            }
        }
    }
    alloc
}

/// Reused buffers of the demand sweep, which finds a mode's replication
/// demands from its timing analysis.
#[derive(Debug, Default)]
pub(crate) struct DemandSweep {
    /// The mode's groups of low-mobility tasks of one type on one
    /// hardware PE, in first-appearance order.
    groups: Vec<(PeId, TaskTypeId)>,
    /// Each group's ASAP windows as events `(group, instant, delta)`:
    /// `+1` opens a window, `-1` closes one.
    events: Vec<(usize, f64, i32)>,
}

impl DemandSweep {
    /// Appends to `raises` the replication demands of `analysis`'s mode,
    /// analysed under mapping row `row`: for each group of the mode's
    /// low-mobility tasks of one type on one hardware PE, in
    /// first-appearance order, the peak number of them whose ASAP windows
    /// overlap, where it exceeds the one core every group has.
    pub(crate) fn demands(
        &mut self,
        system: &System,
        row: &[PeId],
        analysis: &TimingAnalysis,
        options: &AllocOptions,
        raises: &mut Vec<Raise>,
    ) {
        let graph = system.omsm().mode(analysis.mode()).graph();
        let threshold = graph.period() * options.mobility_threshold;
        let Self { groups, events } = self;
        groups.clear();
        events.clear();
        for (task, t) in graph.tasks() {
            let pe = row[task.index()];
            if !system.arch().pe(pe).kind().is_hardware() || analysis.mobility(task) > threshold {
                continue;
            }
            let key = (pe, t.task_type());
            let group = groups.iter().position(|&g| g == key).unwrap_or_else(|| {
                groups.push(key);
                groups.len() - 1
            });
            let start = analysis.asap(task);
            events.push((group, start.value(), 1));
            events.push((group, (start + analysis.exec_time(task)).value(), -1));
        }
        // Close before open at identical instants: back-to-back tasks
        // share a core.
        events.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut events = events.iter().peekable();
        for (group, &(pe, ty)) in groups.iter().enumerate() {
            let (mut open, mut peak) = (0, 0);
            while let Some((_, _, delta)) = events.next_if(|e| e.0 == group) {
                open += delta;
                peak = peak.max(open);
            }
            if peak > 1 {
                raises.push((pe, ty, peak as usize));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::ids::ModeId;
    use momsynth_model::units::{Cells, Seconds, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, TaskGraphBuilder,
        TechLibraryBuilder,
    };

    /// `n` independent type-X tasks on an ASIC of `area` cells; each core
    /// is 100 cells, runs 10 ms against the given period.
    fn parallel_system(n: usize, area: u64, period_ms: f64, kind: PeKind) -> System {
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let _cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        let hw = arch.add_pe(Pe::hardware("hw", kind, Cells::new(area), Watts::ZERO));
        tech.set_impl(
            tx,
            hw,
            Implementation::hardware(
                Seconds::from_millis(10.0),
                Watts::from_milli(1.0),
                Cells::new(100),
            ),
        );
        let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(period_ms));
        for i in 0..n {
            g.add_task(format!("t{i}"), tx);
        }
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        System::new("s", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    fn hw_mapping(system: &System) -> SystemMapping {
        SystemMapping::from_fn(system, |_| PeId::new(1))
    }

    /// The demands the sweep finds in one mode where every task counts as
    /// low-mobility: a lone 1 s type-D task on the CPU, and per entry of
    /// `delays` a 2 s type-X task on the ASIC behind a chain of that many
    /// 1 s type-D tasks on the CPU, so its ASAP window is `(delay, delay +
    /// 2)` seconds.
    fn demands_of(delays: &[usize]) -> Vec<Raise> {
        let mut tech = TechLibraryBuilder::new();
        let (tx, td) = (tech.add_type("X"), tech.add_type("D"));
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        let hw = arch.add_pe(Pe::hardware("hw", PeKind::Asic, Cells::new(1000), Watts::ZERO));
        let bus = Cl::bus("bus", vec![cpu, hw], Seconds::new(1.0), Watts::ZERO, Watts::ZERO);
        arch.add_cl(bus).unwrap();
        let x = Implementation::hardware(Seconds::new(2.0), Watts::ZERO, Cells::new(1));
        tech.set_impl(tx, hw, x);
        tech.set_impl(td, cpu, Implementation::software(Seconds::new(1.0), Watts::ZERO));
        let mut g = TaskGraphBuilder::new("m", Seconds::new(16.0));
        g.add_task("idle", td);
        let mut row = vec![cpu];
        for (i, &delay) in delays.iter().enumerate() {
            let mut before = None;
            for d in 0..=delay {
                let (pe, ty) = if d < delay { (cpu, td) } else { (hw, tx) };
                let task = g.add_task(format!("t{i}.{d}"), ty);
                row.push(pe);
                // No data: a transfer takes no time.
                if let Some(before) = before.replace(task) {
                    g.add_comm(before, task, 0.0).unwrap();
                }
            }
        }
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let system =
            System::new("s", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap();
        let mapping = SystemMapping::from_vecs(vec![row]);
        let mode = ModeId::new(0);
        let analysis = TimingAnalysis::analyze(&system, mode, &mapping);
        let options = AllocOptions { mobility_threshold: 1.0, ..AllocOptions::default() };
        let mut raises = Vec::new();
        DemandSweep::default().demands(
            &system,
            mapping.row(mode),
            &analysis,
            &options,
            &mut raises,
        );
        raises
    }

    #[test]
    fn peak_overlap_counts_concurrency() {
        let x_cores = |n| vec![(PeId::new(1), TaskTypeId::new(0), n)];
        // No window, and one window: the one core every group has.
        assert_eq!(demands_of(&[]), []);
        assert_eq!(demands_of(&[0]), []);
        // Two overlapping, one after: (0, 2), (1, 3), (3, 5).
        assert_eq!(demands_of(&[0, 1, 3]), x_cores(2));
        // Staggered starts: (0, 2), (1, 3), (1, 3), (2, 4) peak at 1.
        assert_eq!(demands_of(&[0, 1, 1, 2]), x_cores(3));
        // Back-to-back windows do not stack: (0, 2), (2, 4).
        assert_eq!(demands_of(&[0, 2]), []);
    }

    /// Two groups on the ASIC, type Y appearing first, each two chains
    /// of two 10 ms tasks under a 20 ms period: every task is urgent, and
    /// each chain's second task starts as its first ends, so a group
    /// needs two cores, not four.
    #[test]
    fn demands_are_peak_overlaps_in_first_appearance_order() {
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let ty = tech.add_type("Y");
        let mut arch = ArchitectureBuilder::new();
        let _cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        let hw = arch.add_pe(Pe::hardware("hw", PeKind::Asic, Cells::new(1000), Watts::ZERO));
        for t in [tx, ty] {
            let imp =
                Implementation::hardware(Seconds::from_millis(10.0), Watts::ZERO, Cells::new(1));
            tech.set_impl(t, hw, imp);
        }
        let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(20.0));
        let tasks: Vec<_> = [ty, tx, tx, tx, tx, ty, ty, ty]
            .iter()
            .enumerate()
            .map(|(i, &t)| g.add_task(format!("t{i}"), t))
            .collect();
        for (a, b) in [(0, 6), (5, 7), (1, 3), (2, 4)] {
            g.add_comm(tasks[a], tasks[b], 0.0).unwrap();
        }
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let system =
            System::new("s", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap();
        let mapping = hw_mapping(&system);
        let mode = ModeId::new(0);
        let analysis = TimingAnalysis::analyze(&system, mode, &mapping);
        let mut raises = vec![(hw, tx, 9)];
        let mut sweep = DemandSweep::default();
        let options = AllocOptions::default();
        sweep.demands(&system, mapping.row(mode), &analysis, &options, &mut raises);
        assert_eq!(raises, [(hw, tx, 9), (hw, ty, 2), (hw, tx, 2)]);
    }

    #[test]
    fn low_mobility_parallel_tasks_get_replicas() {
        // Period 20 ms, three 10 ms tasks: mobility 10 ms = 0.5 period with
        // one core each would be needed… at threshold 0.25 the mobility
        // (20-10=10ms → 0.5·period) is *not* low.
        // Use a tight 12 ms period: mobility 2 ms = 0.1667 < 0.25.
        let system = parallel_system(3, 1000, 12.0, PeKind::Asic);
        let mapping = hw_mapping(&system);
        let alloc = derive_allocation(&system, &mapping, &AllocOptions::default());
        assert_eq!(alloc.instances(ModeId::new(0), PeId::new(1), TaskTypeId::new(0)), 3);
    }

    #[test]
    fn replication_respects_area() {
        // Three parallel tasks but only room for two 100-cell cores.
        let system = parallel_system(3, 250, 12.0, PeKind::Asic);
        let mapping = hw_mapping(&system);
        let alloc = derive_allocation(&system, &mapping, &AllocOptions::default());
        assert_eq!(alloc.instances(ModeId::new(0), PeId::new(1), TaskTypeId::new(0)), 2);
    }

    #[test]
    fn high_mobility_tasks_share_one_core() {
        // Plenty of slack: period 100 ms, mobility 90 ms — no replication.
        let system = parallel_system(3, 1000, 100.0, PeKind::Asic);
        let mapping = hw_mapping(&system);
        let alloc = derive_allocation(&system, &mapping, &AllocOptions::default());
        assert_eq!(alloc.instances(ModeId::new(0), PeId::new(1), TaskTypeId::new(0)), 1);
    }

    #[test]
    fn replication_can_be_disabled() {
        let system = parallel_system(3, 1000, 12.0, PeKind::Asic);
        let mapping = hw_mapping(&system);
        let opts = AllocOptions { replicate: false, ..AllocOptions::default() };
        let alloc = derive_allocation(&system, &mapping, &opts);
        assert_eq!(alloc.instances(ModeId::new(0), PeId::new(1), TaskTypeId::new(0)), 1);
    }

    #[test]
    fn fpga_uses_per_mode_area() {
        // FPGA with room for two cores per mode still replicates to 2.
        let system = parallel_system(3, 250, 12.0, PeKind::Fpga);
        let mapping = hw_mapping(&system);
        let alloc = derive_allocation(&system, &mapping, &AllocOptions::default());
        assert_eq!(alloc.instances(ModeId::new(0), PeId::new(1), TaskTypeId::new(0)), 2);
    }

    #[test]
    fn software_only_mapping_needs_no_cores() {
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        tech.set_impl(tx, cpu, Implementation::software(Seconds::new(0.01), Watts::ZERO));
        let mut g = TaskGraphBuilder::new("m", Seconds::new(1.0));
        g.add_task("t", tx);
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let system =
            System::new("s", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap();
        let mapping = SystemMapping::from_fn(&system, |_| cpu);
        let alloc = derive_allocation(&system, &mapping, &AllocOptions::default());
        assert_eq!(alloc.mode_cores(ModeId::new(0)).count(), 0);
    }
}
