//! The PV-DVS kernel: pinned synthesis trajectories under DVS, a digest
//! of the scalings of seeded random mappings — each also scaled straight
//! from its list pass, as the evaluator's cost path scales it —, the
//! virtual-task fallback that re-enters the scaler when merging a DVS
//! rail's cores into virtual tasks makes the constraint graph cyclic,
//! on a schedule and through `try_cost`, and the nominal result of a
//! schedule whose resource order contradicts its precedences.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use momsynth::dvs::{
    scale_mode, scale_mode_with, scale_pass, virtual_tasks, DvsOptions, DvsScratch, ScaledMode,
    ScaledPass,
};
use momsynth::generators::smartphone::smartphone;
use momsynth::generators::suite::mul;
use momsynth::model::ids::{CommId, ModeId, PeId, TaskId};
use momsynth::model::units::{Cells, Seconds, Volts, Watts};
use momsynth::model::{
    ArchitectureBuilder, Cl, DvsCapability, Implementation, OmsmBuilder, Pe, PeKind, System,
    TaskGraphBuilder, TechLibraryBuilder,
};
use momsynth::sched::{
    schedule_mode, schedule_mode_with, ActivityId, CoreAllocation, ListScratch, Schedule,
    ScheduledComm, ScheduledTask, SchedulerOptions, SystemMapping,
};
use momsynth::synthesis::{
    derive_allocation, AllocOptions, DvsSynthesisOptions, Evaluator, Gene, GenomeLayout, Solution,
    SynthesisConfig, Synthesizer, Violations,
};

/// Best fitness bits, PV-DVS iterations and evaluations of a
/// `fast_preset(0)` DVS synthesis. The `mul` systems scale DVS ASICs
/// through virtual tasks; the smartphone scales a DVS GPP.
///
/// The memetic polish prices each single-gene move against its current
/// solution, and each GA offspring is priced against the population it
/// was bred from, so the modes a move leaves unchanged and the modes a
/// child shares with a parent skip PV-DVS: the iteration counts are
/// those of the modes actually re-scaled (48 772, 67 983, 104 508 and
/// 118 176 while every move re-scaled every mode; 44 726, 64 511,
/// 91 497 and 90 499 while every offspring re-scaled every mode).
#[test]
fn dvs_synthesis_trajectories_are_pinned() {
    let cases = [
        ("mul1", mul(1), 0x3fa2_68e0_31a5_d5c7_u64, 20_382_u64, 807_usize),
        ("mul6", mul(6), 0x3f8a_5c97_1b82_cba2, 24_533, 801),
        ("mul12", mul(12), 0x3f96_f586_e6d7_5291, 52_946, 870),
        ("smartphone", smartphone(), 0x3f76_8587_af90_87e0, 40_332, 961),
    ];
    for (name, system, fitness, dvs_iterations, evaluations) in cases {
        let result = Synthesizer::new(&system, SynthesisConfig::fast_preset(0).with_dvs())
            .run()
            .expect("schedulable system");
        assert_eq!(
            (result.best.fitness.to_bits(), result.counters.dvs_iterations, result.evaluations),
            (fitness, dvs_iterations, evaluations),
            "{name}: fitness {}",
            result.best.fitness
        );
    }
}

fn dvs_cap() -> DvsCapability {
    DvsCapability::new(
        Volts::new(3.3),
        Volts::new(0.8),
        vec![Volts::new(1.2), Volts::new(1.8), Volts::new(2.4), Volts::new(3.3)],
    )
}

/// A DVS ASIC and a DVS GPP on one bus. Task `x` (10 ms, ASIC) is
/// independent of the chain `a` (1 ms, ASIC) → `b` (1 ms) → `c` (1 ms,
/// ASIC), where `a` and `c` share a type and so one core. `b` runs on
/// the GPP or on the ASIC.
fn fork_system() -> System {
    let mut tech = TechLibraryBuilder::new();
    let tx = tech.add_type("X");
    let ta = tech.add_type("A");
    let tb = tech.add_type("B");
    let mut arch = ArchitectureBuilder::new();
    let asic = arch.add_pe(
        Pe::hardware("asic", PeKind::Asic, Cells::new(1000), Watts::ZERO).with_dvs(dvs_cap()),
    );
    let gpp = arch.add_pe(Pe::software("gpp", PeKind::Gpp, Watts::ZERO).with_dvs(dvs_cap()));
    let bus_time = Seconds::from_micros(10.0);
    arch.add_cl(Cl::bus("bus", vec![asic, gpp], bus_time, Watts::ZERO, Watts::ZERO)).unwrap();
    let hw = |ms: f64| {
        let exec = Seconds::from_millis(ms);
        Implementation::hardware(exec, Watts::from_milli(10.0), Cells::new(100))
    };
    tech.set_impl(tx, asic, hw(10.0));
    tech.set_impl(ta, asic, hw(1.0));
    tech.set_impl(tb, asic, hw(1.0));
    tech.set_impl(
        tb,
        gpp,
        Implementation::software(Seconds::from_millis(1.0), Watts::from_milli(10.0)),
    );
    let mut g = TaskGraphBuilder::new("fork", Seconds::from_millis(100.0));
    g.add_task("x", tx);
    let a = g.add_task("a", ta);
    let b = g.add_task("b", tb);
    let c = g.add_task("c", ta);
    g.add_comm(a, b, 10.0).unwrap();
    g.add_comm(b, c, 10.0).unwrap();
    let mut omsm = OmsmBuilder::new();
    omsm.add_mode("m", 1.0, g.build().unwrap());
    System::new("fork", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
}

/// The mapping of `system` with task `b` on `b_pe` and every other task
/// on the ASIC.
fn fork_mapping(system: &System, b_pe: PeId) -> SystemMapping {
    let b = TaskId::new(2);
    SystemMapping::from_fn(system, |id| if id.task == b { b_pe } else { PeId::new(0) })
}

/// The schedule of [`fork_mapping`].
fn fork_schedule(system: &System, b_pe: PeId) -> Schedule {
    let mapping = fork_mapping(system, b_pe);
    let alloc = CoreAllocation::minimal(system, &mapping);
    schedule_mode(system, ModeId::new(0), &mapping, &alloc, SchedulerOptions::default()).unwrap()
}

#[test]
fn cyclic_virtual_tasks_fall_back_to_group_free_scaling() {
    let system = fork_system();
    let hw_off = DvsOptions { scale_hw: false, ..DvsOptions::default() };

    // With `b` on the ASIC as well, the four tasks form one acyclic
    // virtual task and the rail scales them together.
    let grouped = fork_schedule(&system, PeId::new(0));
    let mut used = DvsScratch::default();
    let scaled = scale_mode_with(&system, &grouped, &DvsOptions::default(), &mut used);
    assert!(scaled.iterations() > 0);
    assert!(scaled.task_voltage(TaskId::new(0)).is_some());

    // With `b` on the GPP, the group {x, a, c} reaches itself through
    // `b` and its two bus transfers: the scaler drops the groups, so the
    // ASIC stays nominal and only `b` is scaled.
    let cyclic = fork_schedule(&system, PeId::new(1));
    let expected = scale_mode(&system, &cyclic, &hw_off);
    assert!(expected.iterations() > 0);
    for (t, scaled) in [(0, false), (1, false), (2, true), (3, false)] {
        assert_eq!(expected.task_voltage(TaskId::new(t)).is_some(), scaled, "task {t}");
    }
    let fresh = scale_mode(&system, &cyclic, &DvsOptions::default());
    assert_eq!(fresh, expected);
    let reused = scale_mode_with(&system, &cyclic, &DvsOptions::default(), &mut used);
    assert_eq!(reused, expected);
}

/// A DVS ASIC and a DVS GPP on one bus. Task `x` (10 ms, ASIC, due at
/// 11 ms) runs before `e` (1 ms, ASIC, due at 14 ms); `p` (2 ms, GPP)
/// sends to `c` (1 ms, ASIC), which overlaps `x`. The list pass places
/// `x`, then `e`, then `p`, its transfer and `c`.
fn pushed_group_system() -> System {
    let mut tech = TechLibraryBuilder::new();
    let types = ["X", "E", "P", "C"].map(|name| tech.add_type(name));
    let mut arch = ArchitectureBuilder::new();
    let asic = arch.add_pe(
        Pe::hardware("asic", PeKind::Asic, Cells::new(1000), Watts::ZERO).with_dvs(dvs_cap()),
    );
    let gpp = arch.add_pe(Pe::software("gpp", PeKind::Gpp, Watts::ZERO).with_dvs(dvs_cap()));
    let bus_time = Seconds::from_micros(10.0);
    arch.add_cl(Cl::bus("bus", vec![asic, gpp], bus_time, Watts::ZERO, Watts::ZERO)).unwrap();
    for (ty, ms) in [(types[0], 10.0), (types[1], 1.0), (types[3], 1.0)] {
        let exec = Seconds::from_millis(ms);
        tech.set_impl(
            ty,
            asic,
            Implementation::hardware(exec, Watts::from_milli(10.0), Cells::new(100)),
        );
    }
    let exec = Seconds::from_millis(2.0);
    tech.set_impl(types[2], gpp, Implementation::software(exec, Watts::from_milli(10.0)));
    let mut g = TaskGraphBuilder::new("pushed", Seconds::from_millis(100.0));
    let x = g.add_task_with_deadline("x", types[0], Seconds::from_millis(11.0));
    let e = g.add_task_with_deadline("e", types[1], Seconds::from_millis(14.0));
    let p = g.add_task("p", types[2]);
    let c = g.add_task("c", types[3]);
    g.add_comm(x, e, 10.0).unwrap();
    g.add_comm(p, c, 10.0).unwrap();
    let mut omsm = OmsmBuilder::new();
    omsm.add_mode("m", 1.0, g.build().unwrap());
    System::new("pushed", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
}

/// Prices `system`'s one mode under `mapping` both ways: through
/// `try_cost`, whose PV-DVS scales the list pass in place, and through
/// `try_evaluate`, which scales the assembled schedule. Holds the pass's
/// scaling to the schedule's bit for bit, and the cost's fitness,
/// violations, term, lateness and PV-DVS iterations to the
/// evaluation's. Returns the evaluation and the list pass.
fn price_both_ways(
    system: &System,
    mapping: &SystemMapping,
    options: &DvsOptions,
    name: &str,
) -> (Solution, ListScratch) {
    let (mode, scheduler) = (ModeId::new(0), SchedulerOptions::default());
    let alloc = derive_allocation(system, mapping, &AllocOptions::default());
    let mut pass = ListScratch::default();
    let schedule = schedule_mode_with(system, mode, mapping, &alloc, scheduler, &mut pass).unwrap();
    let scaled = scale_mode(system, &schedule, options);
    let mut scratch = DvsScratch::default();
    assert_same_scaling(scale_pass(system, &pass, options, &mut scratch), &scaled, name);

    let config = SynthesisConfig::new(0).with_dvs();
    let evaluating = Evaluator::new(system, &config);
    let solution = evaluating.try_evaluate(mapping.clone(), Some(options)).unwrap();
    let costing = Evaluator::new(system, &config);
    let cost = costing.try_cost(mapping, Some(options), |_, _| None).unwrap();
    assert_eq!(cost.reused, 0);
    assert_eq!(cost.fitness.to_bits(), solution.fitness.to_bits(), "{name}");
    let violations = Violations {
        timing: solution.total_lateness.value() > 1e-12,
        area: !solution.area_overruns.is_empty(),
        transition: solution.transitions.iter().any(|t| !t.is_feasible()),
    };
    assert_eq!(cost.violations, violations, "{name}");
    let graph = system.omsm().mode(mode).graph();
    let term = (solution.power.modes[0].total(), solution.schedules[0].total_lateness(graph));
    let bits = |(total, late): (Watts, Seconds)| (total.value().to_bits(), late.value().to_bits());
    let priced = (cost.modes[0].total, cost.modes[0].lateness);
    assert_eq!(bits(priced), bits(term), "{name}");
    let iterations = costing.counters().dvs_iterations;
    assert!(iterations > 0, "{name}");
    assert_eq!(iterations, evaluating.counters().dvs_iterations, "{name}");
    (solution, pass)
}

/// DVS modes priced through `try_cost`, which scales each list pass in
/// place, equal their full evaluation, which scales the assembled
/// schedule (see [`price_both_ways`]).
///
/// On the fork system with `b` on the GPP the virtual task is cyclic
/// and both fall back to group-free scaling (only `b` gets a voltage
/// schedule); with `b` on the ASIC the rail scales its one virtual task.
/// On the pushed-group system the virtual task {x, c} waits for `p`'s
/// transfer, so the scaled timing starts `x` later than the list pass
/// did and misses its deadline, which the pass met: pricing the pass's
/// own timing would miss that lateness. And `e`, which waits for the
/// virtual task, is placed between its members, so the placement order
/// is no order of the scaling units there: timed in that order, `e`
/// would read the virtual task's finish before its transfer is timed
/// and take more slack than it has.
#[test]
fn dvs_costs_scale_the_list_pass_like_the_full_evaluation() {
    let fork = fork_system();
    let pushed = pushed_group_system();
    let on = |pe: usize| PeId::new(pe);
    let pushed_mapping =
        SystemMapping::from_fn(&pushed, |id| on(usize::from(id.task.index() == 2)));
    for options in [DvsOptions::default(), DvsSynthesisOptions::default().eval] {
        for (b_pe, scaled) in [(1, [false, false, true, false]), (0, [true; 4])] {
            let (solution, _) =
                price_both_ways(&fork, &fork_mapping(&fork, on(b_pe)), &options, "fork");
            let seen: Vec<bool> =
                solution.voltage_schedules[0].iter().map(Option::is_some).collect();
            assert_eq!(seen, scaled, "b on PE {b_pe}");
        }
        let (solution, pass) = price_both_ways(&pushed, &pushed_mapping, &options, "pushed");
        let task = |t| ActivityId::Task(TaskId::new(t));
        let placed: Vec<ActivityId> = pass.placements().iter().map(|&(_, act)| act).collect();
        assert_eq!(placed, [task(0), task(1), task(2), ActivityId::Comm(CommId::new(1)), task(3)]);
        let nominal = pass.view().unwrap();
        let (x, c) = (nominal.tasks()[0], nominal.tasks()[3]);
        assert!(x.start < c.start && c.start < x.finish());
        let graph = pushed.omsm().mode(ModeId::new(0)).graph();
        assert_eq!(nominal.total_lateness(graph), Seconds::ZERO);
        assert!(solution.total_lateness > Seconds::from_millis(1.0), "{}", solution.total_lateness);
    }
}

/// A 64-bit FNV-1a fold over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    /// Folds the iteration count, every task's start and execution time,
    /// every remote transfer's start, every energy factor and every
    /// voltage segment's voltage, cycle fraction and duration.
    fn scaled(&mut self, scaled: &ScaledMode) {
        self.word(scaled.iterations() as u64);
        let schedule = scaled.schedule();
        for task in schedule.tasks() {
            self.float(task.start.value());
            self.float(task.exec_time.value());
        }
        for comm in schedule.remote_comms() {
            self.float(comm.start.value());
        }
        for &factor in scaled.energy_factors() {
            self.float(factor);
        }
        for task in schedule.tasks() {
            let Some(voltages) = scaled.task_voltage(task.task) else {
                self.word(u64::MAX);
                continue;
            };
            self.word(voltages.segments().len() as u64);
            for segment in voltages.segments() {
                self.float(segment.voltage.value());
                self.float(segment.cycle_fraction);
                self.float(segment.duration.value());
            }
        }
    }
}

/// A mode schedule with the mapping and allocation it was scheduled
/// under.
struct ModeSchedule {
    mapping: SystemMapping,
    alloc: CoreAllocation,
    schedule: Schedule,
}

impl ModeSchedule {
    /// Re-runs the mode's list pass into `pass`, where the cost path's
    /// PV-DVS reads it.
    fn list_pass(&self, system: &System, pass: &mut ListScratch) {
        let (mode, options) = (self.schedule.mode(), SchedulerOptions::default());
        let again = schedule_mode_with(system, mode, &self.mapping, &self.alloc, options, pass);
        assert_eq!(again.as_ref(), Ok(&self.schedule));
    }

    /// `true` when a DVS hardware rail merges two or more of the mode's
    /// tasks into one virtual task.
    fn merges_tasks(&self, system: &System) -> bool {
        let arch = system.arch();
        let mut rails = arch.dvs_pes().filter(|&pe| arch.pe(pe).kind().is_hardware());
        rails.any(|pe| {
            virtual_tasks(system, &self.schedule, pe).iter().any(|group| group.members.len() >= 2)
        })
    }
}

/// The routable mode schedules of `count` seeded random mappings of
/// `system`, each under its derived core allocation; mappings whose
/// transfers find no link are skipped.
fn random_schedules(system: &System, seed: u64, count: usize) -> Vec<ModeSchedule> {
    let layout = GenomeLayout::new(system);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut schedules = Vec::new();
    for _ in 0..count {
        let genes: Vec<Gene> = (0..layout.len())
            .map(|locus| rng.gen_range(0..layout.candidates(locus).len()) as Gene)
            .collect();
        let mapping = layout.decode(&genes);
        let alloc = derive_allocation(system, &mapping, &AllocOptions::default());
        for mode in system.omsm().mode_ids() {
            if let Ok(schedule) =
                schedule_mode(system, mode, &mapping, &alloc, SchedulerOptions::default())
            {
                schedules.push(ModeSchedule {
                    mapping: mapping.clone(),
                    alloc: alloc.clone(),
                    schedule,
                });
            }
        }
    }
    schedules
}

/// Holds a list pass's scaling to the scaling of its assembled schedule,
/// bit for bit: every task's and remote transfer's timing, the comm
/// table, every energy factor and the iteration count.
fn assert_same_scaling(pass: ScaledPass<'_>, scaled: &ScaledMode, name: &str) {
    let schedule = scaled.schedule();
    let view = pass.view();
    assert_eq!(view.mode(), schedule.mode(), "{name}");
    let task_bits = |t: &ScheduledTask| {
        (t.task, t.pe, t.resource, t.start.value().to_bits(), t.exec_time.value().to_bits())
    };
    let tasks: Vec<_> = view.tasks().iter().map(task_bits).collect();
    assert_eq!(tasks, schedule.tasks().map(task_bits).collect::<Vec<_>>(), "{name}");
    let comm_bits = |c: Option<&ScheduledComm>| {
        c.map(|c| (c.comm, c.cl, c.start.value().to_bits(), c.duration.value().to_bits()))
    };
    let comms: Vec<_> = view.comms().iter().map(|c| comm_bits(c.as_ref())).collect();
    let graph_comms = (0..schedule.comm_count()).map(CommId::new);
    let expected: Vec<_> = graph_comms.map(|c| comm_bits(schedule.comm(c))).collect();
    assert_eq!(comms, expected, "{name}");
    let factor_bits = |f: &[f64]| f.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(factor_bits(pass.energy_factors()), factor_bits(scaled.energy_factors()), "{name}");
    assert_eq!(pass.iterations(), scaled.iterations(), "{name}");
}

/// PV-DVS outputs, bit for bit, on the routable mode schedules of 12
/// seeded random mappings per system: the smartphone scales a DVS GPP,
/// the `mul` systems DVS GPPs and, through virtual tasks, DVS ASICs.
/// Each system's digest folds every scaling under the synthesis loop's
/// coarse options, the default and the fine options and, on the `mul`
/// systems, the coarse options without hardware scaling (the smartphone
/// has no DVS hardware). One scratch serves all systems in turn, and
/// every result equals a fresh scratch's. The last two numbers per
/// system count the scaled schedules and the hardware tasks given a
/// voltage schedule.
///
/// Each mode is also scaled straight from its list pass, as the
/// evaluator's cost path scales it, on the same scratch: the scaled
/// timing and energy factors equal the schedule's scaling bit for bit.
/// On the `mul` systems both kinds of mode occur: modes whose DVS
/// hardware rail merges two or more tasks into one virtual task (where
/// the pass's placement order is no order of the scaling units) and
/// modes where no virtual task merges two.
#[test]
fn random_mapping_scalings_are_pinned() {
    let options = [
        DvsSynthesisOptions::default().eval,
        DvsOptions::default(),
        DvsOptions::fine(),
        DvsSynthesisOptions::software_only().eval,
    ];
    let cases = [
        ("smartphone", smartphone(), &options[..3], 0x2e40_54cf_715b_f5b9_u64, 96, 0),
        ("mul6", mul(6), &options[..], 0xcf85_f834_4d51_544b, 48, 849),
        ("mul12", mul(12), &options[..], 0x5c64_e9d3_b5ca_721e, 48, 1062),
    ];
    let schedules: Vec<Vec<ModeSchedule>> =
        cases.iter().map(|(_, system, ..)| random_schedules(system, 0xd5, 12)).collect();
    let mut digests: Vec<Digest> = cases.iter().map(|_| Digest::new()).collect();
    let mut hw_scaled = vec![0_usize; cases.len()];
    let mut merging = vec![0_usize; cases.len()];
    let mut scratch = DvsScratch::default();
    let mut pass = ListScratch::default();
    let rounds = schedules.iter().map(Vec::len).max().unwrap_or(0);
    for round in 0..rounds {
        for (i, (name, system, options, ..)) in cases.iter().enumerate() {
            let Some(mode) = schedules[i].get(round) else { continue };
            let schedule = &mode.schedule;
            mode.list_pass(system, &mut pass);
            merging[i] += usize::from(mode.merges_tasks(system));
            for options in options.iter() {
                let scaled = scale_mode_with(system, schedule, options, &mut scratch);
                assert_eq!(scaled, scale_mode(system, schedule, options), "{name}");
                assert_same_scaling(
                    scale_pass(system, &pass, options, &mut scratch),
                    &scaled,
                    name,
                );
                hw_scaled[i] += schedule
                    .tasks()
                    .filter(|t| system.arch().pe(t.pe).kind().is_hardware())
                    .filter(|t| scaled.task_voltage(t.task).is_some())
                    .count();
                digests[i].scaled(&scaled);
            }
        }
    }
    let seen: Vec<(&str, String, usize, usize)> = cases
        .iter()
        .enumerate()
        .map(|(i, (name, ..))| {
            (*name, format!("{:#018x}", digests[i].0), schedules[i].len(), hw_scaled[i])
        })
        .collect();
    let pinned: Vec<(&str, String, usize, usize)> = cases
        .iter()
        .map(|(name, _, _, digest, scaled, hw)| (*name, format!("{digest:#018x}"), *scaled, *hw))
        .collect();
    assert_eq!(seen, pinned);
    assert_eq!(merging[0], 0, "the smartphone has no DVS hardware");
    for i in 1..cases.len() {
        let (name, all) = (cases[i].0, schedules[i].len());
        assert!(0 < merging[i] && merging[i] < all, "{name}: {} of {all} modes merge", merging[i]);
    }
}

/// One DVS CPU running the chain `a` → `b` (10 ms each, 100 ms period).
fn chain_system() -> System {
    let mut tech = TechLibraryBuilder::new();
    let tx = tech.add_type("X");
    let mut arch = ArchitectureBuilder::new();
    let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO).with_dvs(dvs_cap()));
    tech.set_impl(
        tx,
        cpu,
        Implementation::software(Seconds::from_millis(10.0), Watts::from_milli(100.0)),
    );
    let mut g = TaskGraphBuilder::new("chain", Seconds::from_millis(100.0));
    let a = g.add_task("a", tx);
    let b = g.add_task("b", tx);
    g.add_comm(a, b, 0.0).unwrap();
    let mut omsm = OmsmBuilder::new();
    omsm.add_mode("m", 1.0, g.build().unwrap());
    System::new("chain", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
}

/// A schedule whose CPU sequence runs `b` before `a` contradicts the
/// chain `a` → `b`: its constraint graph is cyclic even without virtual
/// tasks. The scaler returns it unscaled instead of recursing without
/// end, and the scratch it used still scales a consistent schedule
/// exactly as a fresh one.
#[test]
fn contradictory_resource_order_is_left_nominal() {
    let system = chain_system();
    let mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
    let alloc = CoreAllocation::minimal(&system, &mapping);
    let consistent =
        schedule_mode(&system, ModeId::new(0), &mapping, &alloc, SchedulerOptions::default())
            .unwrap();
    let mut sequences = consistent.sequences().to_vec();
    assert_eq!(sequences.len(), 1);
    sequences[0].1 = vec![ActivityId::Task(TaskId::new(1)), ActivityId::Task(TaskId::new(0))];
    let graph = system.omsm().mode(ModeId::new(0)).graph();
    let contradictory = Schedule::from_parts(
        consistent.mode(),
        consistent.tasks().copied().collect(),
        graph.comm_ids().map(|c| consistent.comm(c).copied()).collect(),
        sequences,
    );

    let mut scratch = DvsScratch::default();
    for options in [DvsOptions::default(), DvsOptions { scale_hw: false, ..DvsOptions::fine() }] {
        let scaled = scale_mode_with(&system, &contradictory, &options, &mut scratch);
        assert_eq!(scaled.iterations(), 0);
        assert_eq!(scaled.energy_factors(), &[1.0, 1.0]);
        assert!(scaled.task_voltage(TaskId::new(0)).is_none());
        assert!(scaled.task_voltage(TaskId::new(1)).is_none());
        assert_eq!(scaled.schedule(), &contradictory);
        assert_eq!(scaled, scale_mode(&system, &contradictory, &options));
    }

    let reused = scale_mode_with(&system, &consistent, &DvsOptions::default(), &mut scratch);
    assert!(reused.iterations() > 0);
    assert_eq!(reused, scale_mode(&system, &consistent, &DvsOptions::default()));
}
