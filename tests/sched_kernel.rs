//! The list-scheduling kernel without DVS: pinned synthesis trajectories,
//! a fingerprint of the schedules of seeded random mappings under each
//! priority rule, the replicated-core instance choice, and scratch reuse
//! across systems.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use momsynth::generators::automotive::automotive_ecu;
use momsynth::generators::suite::{generate, mul, GeneratorParams};
use momsynth::model::ids::{ClId, ModeId, PeId, TaskId, TaskTypeId};
use momsynth::model::units::{Cells, Seconds, Watts};
use momsynth::model::{
    ArchitectureBuilder, Implementation, OmsmBuilder, Pe, PeKind, System, TaskGraphBuilder,
    TechLibraryBuilder,
};
use momsynth::sched::{
    schedule_mode, schedule_mode_with, ActivityId, ListScratch, Priority, ResourceKey, Schedule,
    SchedulerOptions, SystemMapping,
};
use momsynth::synthesis::{
    derive_allocation, AllocOptions, Gene, GenomeLayout, SynthesisConfig, Synthesizer,
};

/// An eight-mode generated system with two software PEs, three hardware
/// PEs and two links, so transfers have a link to choose.
fn pin_modes() -> System {
    let mut p = GeneratorParams::new("pin-modes", 1);
    p.modes = 8;
    p.tasks_per_mode = (12, 24);
    p.type_pool = 12;
    p.software_pes = 2;
    p.hardware_pes = 3;
    p.cls = 2;
    generate(&p)
}

/// Three independent 10 ms tasks of one type on an ASIC with room for
/// two 100-cell cores, under a 12 ms period: every task has low
/// mobility, so allocation replicates the core as far as area allows.
fn replicated_cores() -> System {
    let mut tech = TechLibraryBuilder::new();
    let tx = tech.add_type("X");
    let mut arch = ArchitectureBuilder::new();
    arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
    let hw = arch.add_pe(Pe::hardware("hw", PeKind::Asic, Cells::new(250), Watts::ZERO));
    tech.set_impl(
        tx,
        hw,
        Implementation::hardware(
            Seconds::from_millis(10.0),
            Watts::from_milli(1.0),
            Cells::new(100),
        ),
    );
    let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(12.0));
    for i in 0..3 {
        g.add_task(format!("t{i}"), tx);
    }
    let mut omsm = OmsmBuilder::new();
    omsm.add_mode("m", 1.0, g.build().unwrap());
    System::new("replicated", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
}

/// Best fitness bits and evaluations of a `fast_preset(0)` synthesis at
/// fixed voltage, where list scheduling is the largest layer.
#[test]
fn dvs_free_synthesis_trajectories_are_pinned() {
    let cases = [
        ("mul2", mul(2), 0x3f9d_5781_f0c0_36a8_u64, 773_usize),
        ("mul9", mul(9), 0x3fbb_8c33_df31_b858, 776),
        ("automotive", automotive_ecu(), 0x3fa9_5b14_ce99_2ab3, 789),
        ("pin-modes", pin_modes(), 0x3fa7_e8c4_0dfc_8ffe, 1207),
    ];
    for (name, system, fitness, evaluations) in cases {
        let result = Synthesizer::new(&system, SynthesisConfig::fast_preset(0))
            .run()
            .expect("schedulable system");
        assert_eq!(
            (result.best.fitness.to_bits(), result.evaluations),
            (fitness, evaluations),
            "{name}: fitness {}",
            result.best.fitness
        );
    }
}

/// `count` seeded random mappings of `system`, decoded from uniform
/// genes over each locus's candidate PEs.
fn random_mappings(system: &System, seed: u64, count: usize) -> Vec<SystemMapping> {
    let layout = GenomeLayout::new(system);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let genes: Vec<Gene> = (0..layout.len())
                .map(|locus| rng.gen_range(0..layout.candidates(locus).len()) as Gene)
                .collect();
            layout.decode(&genes)
        })
        .collect()
}

/// A 64-bit FNV-1a fold over little-endian words.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn seconds(&mut self, value: Seconds) {
        self.word(value.value().to_bits());
    }

    fn resource(&mut self, key: ResourceKey) {
        match key {
            ResourceKey::SwPe(pe) => {
                self.word(0);
                self.word(pe.index() as u64);
            }
            ResourceKey::HwCore(pe, ty, instance) => {
                self.word(1);
                self.word(pe.index() as u64);
                self.word(ty.index() as u64);
                self.word(instance as u64);
            }
            ResourceKey::Link(cl) => {
                self.word(2);
                self.word(cl.index() as u64);
            }
        }
    }

    /// Folds every task's start, execution time and PE, every
    /// transfer's link, start and duration, and every resource sequence.
    fn schedule(&mut self, schedule: &Schedule) {
        for task in schedule.tasks() {
            self.seconds(task.start);
            self.seconds(task.exec_time);
            self.word(task.pe.index() as u64);
        }
        for comm in schedule.remote_comms() {
            self.word(comm.comm.index() as u64);
            self.word(comm.cl.index() as u64);
            self.seconds(comm.start);
            self.seconds(comm.duration);
        }
        for (key, activities) in schedule.sequences() {
            self.resource(*key);
            self.word(activities.len() as u64);
            for activity in activities {
                match activity {
                    ActivityId::Task(t) => self.word(t.index() as u64),
                    ActivityId::Comm(c) => self.word((1 << 32) | c.index() as u64),
                }
            }
        }
    }
}

/// The schedules of every mode of 64 seeded random mappings per system,
/// each under its derived core allocation, folded into one fingerprint
/// per system, with the count of transfers routed over link 1.
fn random_mapping_fingerprint(system: &System, options: SchedulerOptions) -> (u64, usize) {
    let mut fingerprint = Fingerprint::new();
    let mut second_link_transfers = 0;
    for mapping in random_mappings(system, 0x5eed, 64) {
        let alloc = derive_allocation(system, &mapping, &AllocOptions::default());
        for mode in system.omsm().mode_ids() {
            match schedule_mode(system, mode, &mapping, &alloc, options) {
                Ok(schedule) => {
                    fingerprint.schedule(&schedule);
                    second_link_transfers +=
                        schedule.remote_comms().filter(|c| c.cl == ClId::new(1)).count();
                }
                Err(e) => panic!("{}: mode {mode} does not schedule: {e}", system.name()),
            }
        }
    }
    (fingerprint.0, second_link_transfers)
}

/// The mobility-ordered schedules of 64 seeded random mappings per
/// system. The generated system routes thousands of transfers over its
/// second link, so the earliest-finish link choice is covered.
#[test]
fn random_mapping_schedules_are_pinned() {
    let cases = [
        ("mul2", mul(2), 0x1fe2_ed4e_eea9_d286_u64, 0_usize),
        ("mul9", mul(9), 0x2e28_98cd_b4c8_b034, 0),
        ("automotive", automotive_ecu(), 0x64a2_86d2_23ad_bccc, 0),
        ("pin-modes", pin_modes(), 0x5c0b_c0b4_406f_9a41, 3141),
    ];
    for (name, system, expected, on_second_link) in cases {
        let (fingerprint, second_link_transfers) =
            random_mapping_fingerprint(&system, SchedulerOptions::default());
        assert_eq!(fingerprint, expected, "{name}: fingerprint {fingerprint:#018x}");
        assert_eq!(second_link_transfers, on_second_link, "{name}");
    }
}

/// The same mappings' schedules under the task-id order of ablation D5,
/// which ranks the ready tasks without the timing analysis's mobility.
#[test]
fn fifo_schedules_are_pinned() {
    let cases = [
        ("mul2", mul(2), 0x69ac_9c74_790a_65d4_u64, 0_usize),
        ("mul9", mul(9), 0x3ddd_5e85_9a8b_68e9, 0),
        ("automotive", automotive_ecu(), 0xfee7_4bd6_e871_7fbf, 0),
        ("pin-modes", pin_modes(), 0x6a48_1634_7403_8aae, 2880),
    ];
    let options = SchedulerOptions { priority: Priority::Fifo };
    for (name, system, expected, on_second_link) in cases {
        let (fingerprint, second_link_transfers) = random_mapping_fingerprint(&system, options);
        assert_eq!(fingerprint, expected, "{name}: fingerprint {fingerprint:#018x}");
        assert_eq!(second_link_transfers, on_second_link, "{name}");
    }
}

/// Three parallel tasks share two core instances: the allocation
/// replicates the core to two, and ties between equally free instances
/// go to the lower index, so the tasks land on instances 0, 1, 0.
#[test]
fn replicated_cores_take_the_first_free_instance() {
    let system = replicated_cores();
    let (mode, hw, x) = (ModeId::new(0), PeId::new(1), TaskTypeId::new(0));
    let mapping = SystemMapping::from_fn(&system, |_| hw);
    let alloc = derive_allocation(&system, &mapping, &AllocOptions::default());
    assert_eq!(alloc.instances(mode, hw, x), 2);

    let schedule = schedule_mode(&system, mode, &mapping, &alloc, SchedulerOptions::default())
        .expect("schedulable");
    let instances: Vec<ResourceKey> =
        (0..3).map(|t| schedule.task(TaskId::new(t)).resource).collect();
    assert_eq!(
        instances,
        [
            ResourceKey::HwCore(hw, x, 0),
            ResourceKey::HwCore(hw, x, 1),
            ResourceKey::HwCore(hw, x, 0)
        ]
    );
    let starts: Vec<f64> =
        (0..3).map(|t| schedule.task(TaskId::new(t)).start.as_millis()).collect();
    assert_eq!(starts, [0.0, 0.0, 10.0]);
}

/// One scratch reused across systems of different PE, link and core
/// counts reproduces every fresh-scratch schedule.
#[test]
fn one_scratch_serves_every_system() {
    let systems = [mul(2), mul(9), automotive_ecu(), pin_modes(), replicated_cores()];
    let mut scratch = ListScratch::default();
    for round in 0..2 {
        for system in &systems {
            for mapping in random_mappings(system, round, 4) {
                let alloc = derive_allocation(system, &mapping, &AllocOptions::default());
                for mode in system.omsm().mode_ids() {
                    let options = SchedulerOptions::default();
                    let reused =
                        schedule_mode_with(system, mode, &mapping, &alloc, options, &mut scratch);
                    let fresh = schedule_mode(system, mode, &mapping, &alloc, options);
                    assert_eq!(reused, fresh, "{}: mode {mode}", system.name());
                }
            }
        }
    }
}
