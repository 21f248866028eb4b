//! Core allocations assembled from per-mode parts. The evaluator keeps
//! each mode's part — its analysis's hardware cores and its replication
//! demands — beside the mode's timing analysis and re-derives it only
//! when the mode's mapping row changes; `derive_allocation` derives every
//! part afresh; both assemble the allocation through one replication
//! loop. None of the shipped systems replicates a core, so this file
//! builds systems where replication fires and where the order of the
//! raises decides what fits: on an ASIC, parallel low-mobility tasks of
//! two types compete for the area of one more core, and the union over
//! modes decides which mode's replica fits; an FPGA replicates per mode
//! and pays for it at transitions. Every allocation is held to an
//! independent model of the replication rule, and every cost to a fresh
//! full evaluation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use momsynth::model::ids::{ModeId, PeId, TaskTypeId};
use momsynth::model::units::{Cells, Seconds, Watts};
use momsynth::model::{
    ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, System, TaskGraphBuilder,
    TechLibraryBuilder,
};
use momsynth::sched::{CoreAllocation, SystemMapping, TimingAnalysis};
use momsynth::synthesis::{
    derive_allocation, AllocOptions, Evaluator, GenomeLayout, ParentRecord, Solution,
    SynthesisConfig, Violations,
};

const CPU: PeId = PeId::new(0);
const ASIC: PeId = PeId::new(1);
const FPGA: PeId = PeId::new(2);

/// Types A and B, each 30 ms on the CPU and 10 ms in a 100-cell core on
/// the ASIC (300 cells: one core of each type plus one replica) and on
/// the FPGA (300 cells per mode, 2 µs per cell to load). Three modes of
/// independent tasks under a 12 ms period, so a hardware task's mobility
/// (2 ms) is below the replication threshold (3 ms): B's tasks come first
/// in mode 0, A's in mode 1, and they alternate in mode 2, where one
/// transfer joins two tasks. Every transition allows 0.3 ms of
/// reconfiguration, which one 100-cell core needs 0.2 ms of.
fn system() -> System {
    let mut tech = TechLibraryBuilder::new();
    let a = tech.add_type("A");
    let b = tech.add_type("B");
    let mut arch = ArchitectureBuilder::new();
    let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(0.2)));
    let asic =
        arch.add_pe(Pe::hardware("asic", PeKind::Asic, Cells::new(300), Watts::from_milli(0.1)));
    let fpga = arch.add_pe(
        Pe::hardware("fpga", PeKind::Fpga, Cells::new(300), Watts::from_milli(0.3))
            .with_reconfig_time_per_cell(Seconds::from_micros(2.0)),
    );
    let bus = Cl::bus(
        "bus",
        vec![cpu, asic, fpga],
        Seconds::from_micros(1.0),
        Watts::from_milli(1.0),
        Watts::from_milli(0.05),
    );
    arch.add_cl(bus).unwrap();
    for ty in [a, b] {
        let sw = Implementation::software(Seconds::from_millis(30.0), Watts::from_milli(40.0));
        tech.set_impl(ty, cpu, sw);
        for (pe, mw) in [(asic, 2.0), (fpga, 4.0)] {
            let hw = Implementation::hardware(
                Seconds::from_millis(10.0),
                Watts::from_milli(mw),
                Cells::new(100),
            );
            tech.set_impl(ty, pe, hw);
        }
    }
    let mut omsm = OmsmBuilder::new();
    let modes: [(&str, f64, &[_]); 3] =
        [("m0", 0.5, &[b, b, a, a]), ("m1", 0.3, &[a, a, a, b, b]), ("m2", 0.2, &[b, a, b, a])];
    let mut ids = Vec::new();
    for (name, probability, types) in modes {
        let mut g = TaskGraphBuilder::new(name, Seconds::from_millis(12.0));
        let tasks: Vec<_> =
            types.iter().enumerate().map(|(i, &ty)| g.add_task(format!("t{i}"), ty)).collect();
        if name == "m2" {
            g.add_comm(tasks[0], tasks[3], 10.0).unwrap();
        }
        ids.push(omsm.add_mode(name, probability, g.build().unwrap()));
    }
    for (from, to) in [(0, 1), (1, 2), (2, 0), (1, 0)] {
        omsm.add_transition(ids[from], ids[to], Seconds::from_micros(300.0)).unwrap();
    }
    System::new("replicating", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
}

/// The replication rule, written out on its own: the minimal allocation,
/// then mode by mode each group of low-mobility tasks of one type on one
/// hardware PE, in the order the group's first task appears, raised one
/// instance at a time towards the peak overlap of its tasks' ASAP windows
/// (back-to-back windows do not overlap) while the PE's area allows.
fn reference_allocation(
    system: &System,
    mapping: &SystemMapping,
    options: &AllocOptions,
) -> CoreAllocation {
    let mut alloc = CoreAllocation::minimal(system, mapping);
    for (mode, m) in system.omsm().modes() {
        let analysis = TimingAnalysis::analyze(system, mode, mapping);
        let threshold = m.graph().period() * options.mobility_threshold;
        // Each group's core and its windows' opening (+1) and closing
        // (-1) instants.
        type Events = Vec<(f64, i32)>;
        let mut groups: Vec<((PeId, TaskTypeId), Events)> = Vec::new();
        for (task, t) in m.graph().tasks() {
            let pe = mapping.pe_of(mode, task);
            if !system.arch().pe(pe).kind().is_hardware() || analysis.mobility(task) > threshold {
                continue;
            }
            let start = analysis.asap(task);
            let end = start + analysis.exec_time(task);
            let key = (pe, t.task_type());
            if !groups.iter().any(|(k, _)| *k == key) {
                groups.push((key, Vec::new()));
            }
            let events = &mut groups.iter_mut().find(|(k, _)| *k == key).unwrap().1;
            events.extend([(start.value(), 1), (end.value(), -1)]);
        }
        for ((pe, ty), mut events) in groups {
            events.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
            let open = events.iter().scan(0, |open, &(_, delta)| {
                *open += delta;
                Some(*open)
            });
            let demand = open.max().unwrap_or(0).max(0) as usize;
            let capacity = system.arch().pe(pe).area().unwrap();
            for want in alloc.instances(mode, pe, ty) + 1..=demand {
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

/// The violation flags a full solution implies.
fn violations(solution: &Solution) -> Violations {
    Violations {
        timing: solution.total_lateness.value() > 1e-12,
        area: !solution.area_overruns.is_empty(),
        transition: solution.transitions.iter().any(|t| !t.is_feasible()),
    }
}

/// Maps every task of `mode` onto a PE drawn towards the ASIC.
fn redraw(system: &System, mapping: &mut SystemMapping, mode: ModeId, rng: &mut StdRng) {
    for task in system.omsm().mode(mode).graph().task_ids() {
        let pe = match rng.gen_range(0..20) {
            0..=11 => ASIC,
            12..=16 => FPGA,
            _ => CPU,
        };
        mapping.set(mode, task, pe);
    }
}

/// Mode 0's B tasks come first: its B core takes the ASIC's one spare
/// core, and A, which sorts first, gets none. Mode 1 then gets a second
/// B core for free, since the ASIC's union already holds two, but no
/// second A core. Mode 2's FPGA counts mode 2's cores only: its B tasks
/// run in parallel, its A tasks one after the other.
#[test]
fn raises_follow_first_appearance_and_the_asic_union() {
    let system = system();
    let mut mapping = SystemMapping::from_fn(&system, |_| ASIC);
    for task in system.omsm().mode(ModeId::new(2)).graph().task_ids() {
        mapping.set(ModeId::new(2), task, FPGA);
    }
    let alloc = derive_allocation(&system, &mapping, &AllocOptions::default());
    let (a, b) = (TaskTypeId::new(0), TaskTypeId::new(1));
    let cores = |m: usize| alloc.mode_cores(ModeId::new(m)).collect::<Vec<_>>();
    assert_eq!(cores(0), [((ASIC, a), 1), ((ASIC, b), 2)]);
    assert_eq!(cores(1), [((ASIC, a), 1), ((ASIC, b), 2)]);
    assert_eq!(cores(2), [((FPGA, a), 1), ((FPGA, b), 2)]);
    assert_eq!(alloc, reference_allocation(&system, &mapping, &AllocOptions::default()));
}

/// A chain of mappings, each redrawing one or two modes of the one
/// before, priced on one evaluator against the record of the mapping
/// before: its parts carry over for the modes whose rows stayed and are
/// re-derived for the rest. Each cost's allocation equals the model's and
/// `derive_allocation`'s, and its fitness bits and violations equal a
/// fresh evaluator's full evaluation, whose allocation equals them too.
#[test]
fn allocations_from_parts_equal_the_replication_model() {
    let system = system();
    let config = SynthesisConfig::new(0);
    let layout = GenomeLayout::new(&system);
    let evaluator = Evaluator::new(&system, &config);
    let mut rng = StdRng::seed_from_u64(30);
    let mut mapping = SystemMapping::from_fn(&system, |_| CPU);
    for mode in system.omsm().mode_ids() {
        redraw(&system, &mut mapping, mode, &mut rng);
    }
    let mut record = ParentRecord::new(Vec::new(), None);
    let (mut replicated, mut reused, mut capped) = (0, 0, 0);
    for _ in 0..120 {
        for _ in 0..rng.gen_range(1..3) {
            let mode = ModeId::new(rng.gen_range(0..system.omsm().mode_count()));
            redraw(&system, &mut mapping, mode, &mut rng);
        }
        let genome = layout.encode(&mapping);
        let expected = reference_allocation(&system, &mapping, &config.alloc);
        assert_eq!(derive_allocation(&system, &mapping, &config.alloc), expected);

        let known = |mode, alloc: &_| record.known(&layout, &genome, mode, alloc);
        let cost = evaluator.try_cost(&mapping, None, known).unwrap();
        let full = Evaluator::new(&system, &config).try_evaluate(mapping.clone(), None).unwrap();
        assert_eq!(cost.alloc, expected);
        assert_eq!(full.alloc, expected);
        assert_eq!(cost.fitness.to_bits(), full.fitness.to_bits());
        assert_eq!(cost.violations, violations(&full));

        let raised = system.omsm().mode_ids().any(|m| expected.mode_cores(m).any(|(_, n)| n > 1));
        replicated += usize::from(raised);
        reused += cost.reused;
        capped += usize::from(cost.violations.transition || cost.violations.area);
        record = ParentRecord::new(genome, Some(&cost));
    }
    assert!(replicated >= 100, "replication fired in {replicated} of 120 mappings");
    assert!(reused >= 100, "{reused} modes reused");
    assert!(capped >= 20, "{capped} mappings broke an area or transition limit");
}
