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
use momsynth_model::units::Seconds;
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

/// Derives the core allocation implied by `mapping`, optionally
/// replicating cores for parallel low-mobility tasks while area allows.
/// Analyses every mode's timing and then runs
/// [`derive_allocation_timed`].
pub fn derive_allocation(
    system: &System,
    mapping: &SystemMapping,
    options: &AllocOptions,
) -> CoreAllocation {
    let timing: Vec<TimingAnalysis> = if options.replicate {
        system
            .omsm()
            .mode_ids()
            .map(|mode| TimingAnalysis::analyze(system, mode, mapping))
            .collect()
    } else {
        Vec::new()
    };
    derive_allocation_timed(system, mapping, &timing, options)
}

/// [`derive_allocation`] from `timing`, one analysis per mode in mode
/// order under `mapping`, which the caller computed once and shares,
/// e.g. with the list scheduler. Reads `timing` only when
/// `options.replicate` is set.
///
/// # Panics
///
/// Panics if replication is on and `timing` covers fewer modes than
/// `system` has.
pub fn derive_allocation_timed(
    system: &System,
    mapping: &SystemMapping,
    timing: &[TimingAnalysis],
    options: &AllocOptions,
) -> CoreAllocation {
    let mut alloc = CoreAllocation::minimal(system, mapping);
    if !options.replicate {
        return alloc;
    }

    for (mode, m) in system.omsm().modes() {
        let graph = m.graph();
        let analysis = &timing[mode.index()];
        let threshold = graph.period() * options.mobility_threshold;

        // Demand per (hardware PE, type): the peak number of concurrently
        // runnable low-mobility tasks, estimated by sweeping ASAP windows.
        type Window = (Seconds, Seconds);
        let mut groups: Vec<((PeId, TaskTypeId), Vec<Window>)> = Vec::new();
        let row = mapping.row(mode);
        for (task, t) in graph.tasks() {
            let pe = row[task.index()];
            if !system.arch().pe(pe).kind().is_hardware() {
                continue;
            }
            if analysis.mobility(task) > threshold {
                continue;
            }
            let window = (analysis.asap(task), analysis.asap(task) + analysis.exec_time(task));
            let key = (pe, t.task_type());
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, windows)) => windows.push(window),
                None => groups.push((key, vec![window])),
            }
        }

        for ((pe, ty), windows) in groups {
            let demand = peak_overlap(&windows);
            let current = alloc.instances(mode, pe, ty);
            let capacity = system.arch().pe(pe).area().expect("hardware PEs declare area");
            for want in (current + 1)..=demand {
                alloc.set_instances(mode, pe, ty, want);
                let used = if system.arch().pe(pe).kind().is_reconfigurable() {
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

/// Maximum number of simultaneously open intervals.
fn peak_overlap(windows: &[(Seconds, Seconds)]) -> usize {
    let mut events: Vec<(f64, i32)> = Vec::with_capacity(windows.len() * 2);
    for &(start, end) in windows {
        events.push((start.value(), 1));
        events.push((end.value(), -1));
    }
    // Close before open at identical instants: back-to-back tasks share a core.
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut open = 0i32;
    let mut peak = 0i32;
    for (_, delta) in events {
        open += delta;
        peak = peak.max(open);
    }
    peak.max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::ids::ModeId;
    use momsynth_model::units::{Cells, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Implementation, OmsmBuilder, Pe, PeKind, TaskGraphBuilder,
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

    #[test]
    fn peak_overlap_counts_concurrency() {
        let s = Seconds::new;
        assert_eq!(peak_overlap(&[]), 0);
        assert_eq!(peak_overlap(&[(s(0.0), s(1.0))]), 1);
        // Two overlapping, one after.
        assert_eq!(peak_overlap(&[(s(0.0), s(2.0)), (s(1.0), s(3.0)), (s(3.0), s(4.0))]), 2);
        // Back-to-back intervals do not stack.
        assert_eq!(peak_overlap(&[(s(0.0), s(1.0)), (s(1.0), s(2.0))]), 1);
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
