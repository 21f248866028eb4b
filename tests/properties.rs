//! Property-based tests over randomly generated systems and mappings:
//! scheduler invariants (precedence, resource exclusivity, determinism),
//! DVS invariants (never slower than deadlines allow, never more energy),
//! power-model invariants (non-negativity, probability weighting), and
//! the mapping, allocation and core rows against ordered-collection
//! models.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use momsynth::dvs::{scale_mode, DvsOptions};
use momsynth::generators::suite::{generate, mul, GeneratorParams};
use momsynth::model::ids::{ClId, ModeId, PeId, TaskTypeId};
use momsynth::model::units::{Cells, Seconds, Watts};
use momsynth::model::{Architecture, ArchitectureBuilder, Cl, Pe, PeKind, System};
use momsynth::power::{mode_power, ModeImplementation, ModePower};
use momsynth::sched::{
    schedule_mode, ActivityId, CoreAllocation, PeRows, Schedule, SchedulerOptions, SystemMapping,
    TimingAnalysis,
};
use momsynth::synthesis::{
    Cost, Evaluator, FaultInjection, Gene, GenomeLayout, ParentRecord, Solution, SynthesisConfig,
    Synthesizer, Violations,
};

/// A small generated system plus a random (valid) mapping for it.
fn system_and_mapping() -> impl Strategy<Value = (System, SystemMapping)> {
    (1u64..500, 1usize..3, 4usize..14, 0usize..2, proptest::collection::vec(0usize..8, 64))
        .prop_map(|(seed, modes, tasks, extra_hw, picks)| {
            let mut params = GeneratorParams::new("prop", seed);
            params.modes = modes;
            params.tasks_per_mode = (tasks, tasks + 4);
            params.hardware_pes = 1 + extra_hw;
            params.type_pool = 8;
            let system = generate(&params);
            let mut i = 0;
            let mapping = SystemMapping::from_fn(&system, |id| {
                let candidates = system.candidate_pes(id);
                let pick = picks[i % picks.len()];
                i += 1;
                candidates[pick % candidates.len()]
            });
            (system, mapping)
        })
}

fn schedules_of(system: &System, mapping: &SystemMapping) -> Vec<Schedule> {
    let alloc = CoreAllocation::minimal(system, mapping);
    system
        .omsm()
        .mode_ids()
        .map(|m| {
            schedule_mode(system, m, mapping, &alloc, SchedulerOptions::default())
                .expect("generated architectures are fully connected")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn schedules_respect_precedence((system, mapping) in system_and_mapping()) {
        for schedule in schedules_of(&system, &mapping) {
            let graph = system.omsm().mode(schedule.mode()).graph();
            for (c, edge) in graph.comms() {
                let src_finish = schedule.task(edge.src()).finish();
                let dst_start = schedule.task(edge.dst()).start;
                match schedule.comm(c) {
                    Some(comm) => {
                        prop_assert!(comm.start.value() >= src_finish.value() - 1e-12);
                        prop_assert!(dst_start.value() >= comm.finish().value() - 1e-12);
                    }
                    None => {
                        prop_assert!(dst_start.value() >= src_finish.value() - 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn resources_never_overlap((system, mapping) in system_and_mapping()) {
        for schedule in schedules_of(&system, &mapping) {
            for (_, acts) in schedule.sequences() {
                let mut last_finish = f64::NEG_INFINITY;
                for act in acts {
                    let (start, finish) = match act {
                        ActivityId::Task(t) => {
                            let e = schedule.task(*t);
                            (e.start.value(), e.finish().value())
                        }
                        ActivityId::Comm(c) => {
                            let e = schedule.comm(*c).expect("sequenced comm is remote");
                            (e.start.value(), e.finish().value())
                        }
                    };
                    prop_assert!(start >= last_finish - 1e-12);
                    last_finish = finish;
                }
            }
        }
    }

    #[test]
    fn scheduling_is_deterministic((system, mapping) in system_and_mapping()) {
        let a = schedules_of(&system, &mapping);
        let b = schedules_of(&system, &mapping);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn dvs_preserves_feasibility_and_saves_energy((system, mapping) in system_and_mapping()) {
        for schedule in schedules_of(&system, &mapping) {
            let graph = system.omsm().mode(schedule.mode()).graph();
            let feasible_before = schedule.is_timing_feasible(graph);
            let scaled = scale_mode(&system, &schedule, &DvsOptions::default());
            // Energy factors are in (0, 1].
            for (i, &f) in scaled.energy_factors().iter().enumerate() {
                prop_assert!(f > 0.0 && f <= 1.0 + 1e-12, "task {i}: factor {f}");
            }
            // Scaling never breaks a feasible schedule.
            if feasible_before {
                prop_assert!(scaled.schedule().is_timing_feasible(graph));
            }
            // Execution times never shrink below nominal.
            for t in graph.task_ids() {
                prop_assert!(
                    scaled.schedule().task(t).exec_time.value()
                        >= schedule.task(t).exec_time.value() - 1e-12
                );
            }
        }
    }

    #[test]
    fn voltage_schedules_are_consistent((system, mapping) in system_and_mapping()) {
        for schedule in schedules_of(&system, &mapping) {
            let graph = system.omsm().mode(schedule.mode()).graph();
            let scaled = scale_mode(&system, &schedule, &DvsOptions::default());
            for t in graph.task_ids() {
                if let Some(vs) = scaled.task_voltage(t) {
                    // Segment durations add up to the new execution time.
                    let total = vs.total_time().value();
                    let exec = scaled.schedule().task(t).exec_time.value();
                    prop_assert!((total - exec).abs() < 1e-9);
                    // Cycle fractions cover the task exactly once.
                    let cycles: f64 =
                        vs.segments().iter().map(|s| s.cycle_fraction).sum();
                    prop_assert!((cycles - 1.0).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn mode_power_is_non_negative_and_additive((system, mapping) in system_and_mapping()) {
        let schedules = schedules_of(&system, &mapping);
        for schedule in &schedules {
            let mp = mode_power(&system, ModeImplementation::nominal(schedule));
            prop_assert!(mp.dynamic.value() >= 0.0);
            prop_assert!(mp.static_power.value() >= 0.0);
            prop_assert!((mp.total().value()
                - (mp.dynamic.value() + mp.static_power.value()))
            .abs() < 1e-15);
            // Active components are a subset of the architecture.
            prop_assert!(mp.active_pes.len() <= system.arch().pe_count());
            prop_assert!(mp.active_cls.len() <= system.arch().cl_count());
        }
    }

    #[test]
    fn probability_weighting_is_convex((system, mapping) in system_and_mapping()) {
        let schedules = schedules_of(&system, &mapping);
        let imps: Vec<ModeImplementation> =
            schedules.iter().map(ModeImplementation::nominal).collect();
        let report = momsynth::power::power_report(&system, &imps);
        let min = report.modes.iter().map(|m| m.total().value()).fold(f64::INFINITY, f64::min);
        let max = report
            .modes
            .iter()
            .map(|m| m.total().value())
            .fold(f64::NEG_INFINITY, f64::max);
        // The weighted average lies between the best and worst mode.
        prop_assert!(report.average.value() >= min - 1e-12);
        prop_assert!(report.average.value() <= max + 1e-12);
    }

    #[test]
    fn mapping_round_trips_through_genome(seed in 1u64..200) {
        let mut params = GeneratorParams::new("roundtrip", seed);
        params.modes = 2;
        params.tasks_per_mode = (5, 9);
        let system = generate(&params);
        let layout = momsynth::synthesis::GenomeLayout::new(&system);
        let genes: Vec<u16> = (0..layout.len())
            .map(|l| (seed as usize + l) as u16 % layout.candidates(l).len() as u16)
            .collect();
        let mapping = layout.decode(&genes);
        prop_assert!(mapping.validate(&system).is_ok());
        prop_assert_eq!(layout.encode(&mapping), genes);
    }

    #[test]
    fn scheduler_output_passes_the_independent_validator((system, mapping) in system_and_mapping()) {
        // `validate_schedule` re-derives every structural guarantee from
        // scratch; the list scheduler must always satisfy it.
        let alloc = CoreAllocation::minimal(&system, &mapping);
        for schedule in schedules_of(&system, &mapping) {
            let violations =
                momsynth::sched::validate_schedule(&system, &mapping, &alloc, &schedule);
            prop_assert!(violations.is_empty(), "{violations:?}");
        }
    }

    #[test]
    fn scaled_schedules_also_pass_the_validator((system, mapping) in system_and_mapping()) {
        let alloc = CoreAllocation::minimal(&system, &mapping);
        for schedule in schedules_of(&system, &mapping) {
            let scaled = scale_mode(&system, &schedule, &DvsOptions::default());
            let violations = momsynth::sched::validate_schedule(
                &system,
                &mapping,
                &alloc,
                scaled.schedule(),
            );
            prop_assert!(violations.is_empty(), "{violations:?}");
        }
    }

    #[test]
    fn first_task_of_each_resource_starts_at_data_readiness((system, mapping) in system_and_mapping()) {
        // Sanity: no schedule starts in the past.
        for schedule in schedules_of(&system, &mapping) {
            for entry in schedule.tasks() {
                prop_assert!(entry.start.value() >= 0.0);
            }
            for comm in schedule.remote_comms() {
                prop_assert!(comm.start.value() >= 0.0);
            }
        }
    }
}

/// A short synthesis run on a small generated system, for the
/// trajectory-invariance properties below.
fn short_synthesis_config(seed: u64) -> (System, SynthesisConfig) {
    let mut params = GeneratorParams::new("invariance", seed);
    params.modes = 2;
    params.tasks_per_mode = (4, 8);
    let system = generate(&params);
    let mut config = SynthesisConfig::fast_preset(seed);
    config.ga.max_generations = 8;
    (system, config)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Batches are priced out of order across workers, but the GA
    /// trajectory must not depend on the thread count: scatter happens
    /// serially in batch order, and the fitness of a genome is a pure
    /// function of the genome. Injected NaN and error faults, rejected
    /// on whichever worker prices the genome, must not change that.
    #[test]
    fn synthesis_is_thread_count_invariant(
        seed in 1u64..200,
        threads in 2usize..6,
        faults in any::<bool>(),
    ) {
        let (system, mut config) = short_synthesis_config(seed);
        config.fault_injection = faults
            .then_some(FaultInjection { panic_rate: 0.0, nan_rate: 0.1, err_rate: 0.1, seed });
        let mut parallel_cfg = config.clone();
        parallel_cfg.threads = threads;
        let serial = Synthesizer::new(&system, config).run().expect("schedulable system");
        let parallel =
            Synthesizer::new(&system, parallel_cfg).run().expect("schedulable system");
        prop_assert_eq!(&serial.best, &parallel.best);
        prop_assert_eq!(&serial.history, &parallel.history);
        prop_assert_eq!(serial.evaluations, parallel.evaluations);
        prop_assert_eq!(serial.stop_reason, parallel.stop_reason);
        prop_assert_eq!(&serial.counters, &parallel.counters);
        prop_assert_eq!(serial.rejected, parallel.rejected);
    }
}

/// The batch's edge cases price alike at one thread and at many: with
/// `population_size == elitism` every GA batch is empty, and a
/// population of 3 at 8 threads has fewer unique genomes than threads.
/// At `usize::MAX` threads a run spawns no more workers than its batches
/// have unique genomes, so it neither overflows nor exhausts memory.
#[test]
fn edge_batches_are_thread_count_invariant() {
    let system = mul(3);
    for (population_size, elitism, threads) in [(4, 4, 4), (3, 1, 8), (8, 1, usize::MAX)] {
        let run = |threads| {
            let mut config = SynthesisConfig::fast_preset(5);
            config.ga.population_size = population_size;
            config.ga.elitism = elitism;
            config.ga.max_generations = 10;
            config.threads = threads;
            Synthesizer::new(&system, config).run().expect("mul3 synthesises")
        };
        let (serial, parallel) = (run(1), run(threads));
        let bits = |history: &[f64]| history.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let case = (population_size, elitism, threads);
        assert!(serial.generations > 0, "{case:?}");
        assert_eq!(bits(&parallel.history), bits(&serial.history), "{case:?}");
        assert_eq!(parallel.best, serial.best, "{case:?}");
        assert_eq!(parallel.evaluations, serial.evaluations, "{case:?}");
        assert_eq!(parallel.counters, serial.counters, "{case:?}");
    }
}

/// A generated system of two or three modes plus a random genome of it.
fn multi_mode_system_and_genome() -> impl Strategy<Value = (System, Vec<Gene>)> {
    (1u64..500, 2usize..4, 0usize..2, proptest::collection::vec(0usize..8, 64)).prop_map(
        |(seed, modes, extra_hw, picks)| {
            let mut params = GeneratorParams::new("neighbours", seed);
            params.modes = modes;
            params.tasks_per_mode = (3, 8);
            params.hardware_pes = 1 + extra_hw;
            params.type_pool = 6;
            let system = generate(&params);
            let layout = GenomeLayout::new(&system);
            let genes = (0..layout.len())
                .map(|l| (picks[l % picks.len()] % layout.candidates(l).len()) as Gene)
                .collect();
            (system, genes)
        },
    )
}

/// Holds a cost-only pricing against a fresh evaluation of the same
/// mapping: the same fitness bits, violation flags, allocation and
/// per-mode totals.
fn assert_prices_as_fresh(cost: &Cost, fresh: &Solution) {
    assert_eq!(cost.fitness.to_bits(), fresh.fitness.to_bits());
    let violations = Violations {
        timing: fresh.total_lateness.value() > 1e-12,
        area: !fresh.area_overruns.is_empty(),
        transition: fresh.transitions.iter().any(|t| !t.is_feasible()),
    };
    assert_eq!(cost.violations, violations);
    assert_eq!(cost.alloc, fresh.alloc);
    let totals: Vec<Watts> = cost.modes.iter().map(|m| m.total).collect();
    assert_eq!(totals, fresh.power.modes.iter().map(ModePower::total).collect::<Vec<_>>());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Pricing a single-gene neighbour with `try_cost` against the record
    /// of the genome it moved from, as the polish does, reuses modes the
    /// move left alone and prices exactly as a fresh `try_evaluate` does,
    /// at fixed voltage and under the synthesis's PV-DVS options alike.
    #[test]
    fn neighbour_pricing_equals_fresh_pricing((system, genes) in multi_mode_system_and_genome()) {
        let layout = GenomeLayout::new(&system);
        let fixed_voltage = SynthesisConfig::fast_preset(0);
        for config in [fixed_voltage.clone(), fixed_voltage.with_dvs()] {
            let dvs = config.dvs.as_ref().map(|d| d.eval);
            let reused = Evaluator::new(&system, &config);
            let priced = reused
                .try_cost(&layout.decode(&genes), dvs.as_ref(), |_, _| None)
                .expect("generated architectures are fully connected");
            let base = ParentRecord::new(genes.clone(), Some(&priced));
            let (mut moves, mut modes_reused) = (0, 0);
            let mut neighbour = genes.clone();
            for locus in 0..layout.len() {
                for alt in 0..layout.candidates(locus).len() as Gene {
                    if alt == genes[locus] {
                        continue;
                    }
                    neighbour[locus] = alt;
                    let mapping = layout.decode(&neighbour);
                    let known = |mode, alloc: &_| base.known(&layout, &neighbour, mode, alloc);
                    let cost = reused.try_cost(&mapping, dvs.as_ref(), known);
                    let fresh =
                        Evaluator::new(&system, &config).try_evaluate(mapping, dvs.as_ref());
                    match (cost, fresh) {
                        (Ok(cost), Ok(fresh)) => {
                            assert_prices_as_fresh(&cost, &fresh);
                            modes_reused += cost.reused;
                        }
                        (cost, fresh) => prop_assert_eq!(cost.err(), fresh.err()),
                    }
                    moves += 1;
                }
                neighbour[locus] = genes[locus];
            }
            prop_assert!(moves == 0 || modes_reused > 0, "no neighbour reused a mode");
        }
    }
}

/// The allocation model the flat rows replace: one ordered map per mode.
struct ReferenceAllocation(Vec<BTreeMap<(PeId, TaskTypeId), usize>>);

impl ReferenceAllocation {
    fn core_area(system: &System, pe: PeId, ty: TaskTypeId) -> Cells {
        system.tech().impl_of(ty, pe).map_or(Cells::ZERO, |imp| imp.area())
    }

    fn mode_area(&self, system: &System, pe: PeId, mode: usize) -> Cells {
        self.0[mode]
            .iter()
            .filter(|((p, _), _)| *p == pe)
            .map(|(&(_, ty), &n)| Self::core_area(system, pe, ty) * n as u64)
            .sum()
    }

    fn static_area(&self, system: &System, pe: PeId) -> Cells {
        let mut most: BTreeMap<TaskTypeId, usize> = BTreeMap::new();
        for row in &self.0 {
            for (&(p, ty), &n) in row {
                if p == pe {
                    let slot = most.entry(ty).or_insert(0);
                    *slot = (*slot).max(n);
                }
            }
        }
        most.iter().map(|(&ty, &n)| Self::core_area(system, pe, ty) * n as u64).sum()
    }

    fn reconfig_area(&self, system: &System, pe: PeId, from: usize, to: usize) -> Cells {
        let mut area = Cells::ZERO;
        for (&(p, ty), &need) in &self.0[to] {
            let have = self.0[from].get(&(p, ty)).copied().unwrap_or(0);
            if p == pe && need > have {
                area += Self::core_area(system, pe, ty) * (need - have) as u64;
            }
        }
        area
    }

    fn json(&self) -> String {
        let rows: Vec<Vec<(PeId, TaskTypeId, usize)>> = self
            .0
            .iter()
            .map(|row| row.iter().map(|(&(pe, ty), &n)| (pe, ty, n)).collect())
            .collect();
        serde_json::to_string(&serde_json::json!({ "per_mode": rows })).expect("serialises")
    }
}

/// One allocation edit: `(ensure?, mode, pe, type, count)`.
type AllocationEdit = (bool, usize, usize, usize, usize);

/// A small generated system plus a random sequence of allocation edits,
/// some naming ids the system lacks.
fn system_and_allocation_edits() -> impl Strategy<Value = (System, Vec<AllocationEdit>)> {
    let edit = (0u8..2, 0usize..8, 0usize..6, 0usize..10, 0usize..4);
    (1u64..500, 1usize..4, proptest::collection::vec(edit, 0..40)).prop_map(
        |(seed, modes, edits)| {
            let mut params = GeneratorParams::new("alloc", seed);
            params.modes = modes;
            params.tasks_per_mode = (3, 6);
            params.hardware_pes = 2;
            params.type_pool = 6;
            let edits =
                edits.into_iter().map(|(e, m, pe, ty, n)| (e == 1, m % modes, pe, ty, n)).collect();
            (generate(&params), edits)
        },
    )
}

/// One row pick per mode: a row kind (see
/// `hardware_cores_match_the_ordered_set_model`) and random PE draws.
type CoreRow = (u8, Vec<usize>);

/// A small generated system with at most three task types, so four or
/// more tasks on one PE repeat a `(PE, type)` pair, and one row pick per
/// mode.
fn system_and_core_rows() -> impl Strategy<Value = (System, Vec<CoreRow>)> {
    let row = (0u8..4, proptest::collection::vec(0usize..64, 10));
    (1u64..500, 1usize..4, 0usize..3, proptest::collection::vec(row, 3)).prop_map(
        |(seed, modes, extra_hw, rows)| {
            let mut params = GeneratorParams::new("cores", seed);
            params.modes = modes;
            params.tasks_per_mode = (4, 10);
            params.hardware_pes = 1 + extra_hw;
            params.type_pool = 3;
            (generate(&params), rows)
        },
    )
}

/// A random architecture: `pes` PEs and links over random endpoint lists
/// (repeats allowed, each with at least two distinct PEs).
fn architecture() -> impl Strategy<Value = Architecture> {
    let link = proptest::collection::vec(0usize..8, 2..6);
    (1usize..8, proptest::collection::vec(link, 0..6)).prop_map(|(pes, links)| {
        let mut b = ArchitectureBuilder::new();
        for i in 0..pes {
            b.add_pe(Pe::software(format!("p{i}"), PeKind::Gpp, Watts::ZERO));
        }
        for (i, ends) in links.into_iter().enumerate() {
            let ends: Vec<PeId> = ends.into_iter().map(|e| PeId::new(e % pes)).collect();
            let link = Cl::bus(format!("l{i}"), ends, Seconds::ZERO, Watts::ZERO, Watts::ZERO);
            // A link over fewer than two distinct PEs is refused.
            let _ = b.add_cl(link);
        }
        b.build().expect("at least one PE")
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The flat allocation rows behave exactly like one ordered map per
    /// mode under any sequence of edits: the same counts, the same core
    /// order, the same areas (queried of the allocation and of its rows
    /// read in one pass) and JSON.
    #[test]
    fn core_allocation_matches_the_ordered_map_model(
        (system, edits) in system_and_allocation_edits()
    ) {
        let modes = system.omsm().mode_count();
        let mut alloc = CoreAllocation::new(modes);
        let mut reference = ReferenceAllocation(vec![BTreeMap::new(); modes]);
        for (ensure, m, pe, ty, n) in edits {
            let (mode, pe, ty) = (ModeId::new(m), PeId::new(pe), TaskTypeId::new(ty));
            if ensure {
                alloc.ensure(mode, pe, ty, n);
                let slot = reference.0[m].entry((pe, ty)).or_insert(0);
                *slot = (*slot).max(n);
            } else {
                alloc.set_instances(mode, pe, ty, n);
                reference.0[m].insert((pe, ty), n);
            }
        }
        for m in 0..modes {
            let mode = ModeId::new(m);
            let cores: Vec<_> = alloc.mode_cores(mode).collect();
            let expected: Vec<_> = reference.0[m].iter().map(|(&k, &n)| (k, n)).collect();
            prop_assert_eq!(cores, expected);
            for pe in 0..6 {
                let pe = PeId::new(pe);
                for ty in 0..10 {
                    let ty = TaskTypeId::new(ty);
                    let n = reference.0[m].get(&(pe, ty)).copied().unwrap_or(0);
                    prop_assert_eq!(alloc.instances(mode, pe, ty), n);
                }
                prop_assert_eq!(
                    alloc.mode_area(&system, pe, mode),
                    reference.mode_area(&system, pe, m)
                );
                for to in 0..modes {
                    prop_assert_eq!(
                        alloc.reconfig_area(&system, pe, mode, ModeId::new(to)),
                        reference.reconfig_area(&system, pe, m, to)
                    );
                }
            }
        }
        for pe in 0..6 {
            let pe = PeId::new(pe);
            prop_assert_eq!(alloc.static_area(&system, pe), reference.static_area(&system, pe));
        }
        // The same areas from rows read in one pass, on every PE and on
        // a few, reusing the buffers.
        let mut rows = PeRows::default();
        for read in [&[0, 1, 2, 3, 4, 5][..], &[1, 4]] {
            rows.read(&alloc, read.iter().map(|&pe| PeId::new(pe)));
            for (p, &pe) in read.iter().enumerate() {
                let pe = PeId::new(pe);
                prop_assert_eq!(rows.static_area(&system, p), reference.static_area(&system, pe));
                for m in 0..modes {
                    let mode = ModeId::new(m);
                    prop_assert_eq!(
                        rows.mode_area(&system, p, mode),
                        reference.mode_area(&system, pe, m)
                    );
                    for to in 0..modes {
                        prop_assert_eq!(
                            rows.reconfig_area(&system, p, mode, ModeId::new(to)),
                            reference.reconfig_area(&system, pe, m, to)
                        );
                    }
                }
            }
        }
        let json = serde_json::to_string(&alloc).expect("serialises");
        prop_assert_eq!(&json, &reference.json());
        prop_assert_eq!(serde_json::from_str::<CoreAllocation>(&json).unwrap(), alloc);
    }

    /// A mode's hardware cores, as the timing analysis (fresh and
    /// refreshed in place) and the minimal allocation give them, are the
    /// ordered set of the `(PE, type)` pairs of its tasks on the
    /// architecture's hardware PEs. Rows are of four kinds: random PEs,
    /// some outside the architecture (kind 0); every task on a software
    /// PE (kind 1); every task on one hardware PE, so a pair repeats
    /// (kind 2); random hardware PEs with the last task outside the
    /// architecture, which gives that PE no cores (kind 3).
    #[test]
    fn hardware_cores_match_the_ordered_set_model((system, rows) in system_and_core_rows()) {
        let arch = system.arch();
        let hardware: BTreeSet<PeId> = arch.hardware_pes().collect();
        let hw: Vec<PeId> = hardware.iter().copied().collect();
        let software = arch.software_pes().next().expect("a software PE");
        let outside = arch.pe_count();
        let mapping = SystemMapping::from_vecs(
            system
                .omsm()
                .modes()
                .map(|(mode, m)| {
                    let (kind, picks) = &rows[mode.index()];
                    let n = m.graph().task_count();
                    (0..n)
                        .map(|t| match kind {
                            0 => PeId::new(picks[t] % (outside + 2)),
                            1 => software,
                            2 => hw[picks[0] % hw.len()],
                            _ if t + 1 == n => PeId::new(outside + picks[t] % 2),
                            _ => hw[picks[t] % hw.len()],
                        })
                        .collect()
                })
                .collect(),
        );
        let minimal = CoreAllocation::minimal(&system, &mapping);
        let mut refreshed = TimingAnalysis::default();
        for (mode, m) in system.omsm().modes() {
            let model: BTreeSet<(PeId, TaskTypeId)> = m
                .graph()
                .tasks()
                .map(|(task, t)| (mapping.pe_of(mode, task), t.task_type()))
                .filter(|(pe, _)| hardware.contains(pe))
                .collect();
            let kind = rows[mode.index()].0;
            prop_assert!(kind != 1 || model.is_empty());
            prop_assert!(kind != 2 || model.len() < m.graph().task_count(), "no pair repeats");
            let expected: Vec<(PeId, TaskTypeId)> = model.iter().copied().collect();
            refreshed.refresh(&system, mode, &mapping);
            prop_assert_eq!(refreshed.cores(), &expected[..]);
            prop_assert_eq!(TimingAnalysis::analyze(&system, mode, &mapping).cores(), &expected[..]);
            let single: Vec<_> = model.iter().map(|&core| (core, 1)).collect();
            prop_assert_eq!(minimal.mode_cores(mode).collect::<Vec<_>>(), single);
        }
    }

    /// The links two PEs share, read from the architecture's incidence
    /// table, are exactly the ascending ids an endpoint scan finds, for
    /// every pair, a PE with itself and a PE the architecture lacks.
    #[test]
    fn shared_links_match_an_endpoint_scan(arch in architecture()) {
        for a in 0..=arch.pe_count() {
            for b in 0..=arch.pe_count() {
                let (a, b) = (PeId::new(a), PeId::new(b));
                let scan: Vec<ClId> = arch
                    .cls()
                    .filter(|(_, cl)| cl.connects(a) && cl.connects(b))
                    .map(|(id, _)| id)
                    .collect();
                prop_assert_eq!(arch.cls_between(a, b).collect::<Vec<_>>(), scan);
            }
        }
        let json = serde_json::to_value(&arch);
        let keys: Vec<&str> =
            json.as_object().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
        prop_assert_eq!(keys, vec!["pes", "cls"]);
        prop_assert_eq!(serde_json::from_value::<Architecture>(&json).unwrap(), arch);
    }

    /// A mapping serialises as one PE array per mode and reads back
    /// equal, whichever constructor built it.
    #[test]
    fn mapping_json_is_one_array_per_mode((system, mapping) in system_and_mapping()) {
        let rows: Vec<Vec<PeId>> =
            system.omsm().mode_ids().map(|m| mapping.row(m).to_vec()).collect();
        let json = serde_json::to_string(&mapping).expect("serialises");
        let expected =
            serde_json::to_string(&serde_json::json!({ "pes": rows })).expect("serialises");
        prop_assert_eq!(&json, &expected);
        prop_assert_eq!(serde_json::from_str::<SystemMapping>(&json).unwrap(), mapping.clone());
        prop_assert_eq!(SystemMapping::from_vecs(rows), mapping);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// A chain of 20 accepted single-gene moves, each priced with
    /// `try_cost` against the record of the move before, prices every
    /// step exactly as a fresh `try_evaluate` does, at fixed voltage and
    /// under PV-DVS: terms carried along a chain stay correct.
    #[test]
    fn chained_neighbour_pricing_equals_fresh_pricing(
        ((system, genes), moves) in (
            multi_mode_system_and_genome(),
            proptest::collection::vec((0usize..1000, 0usize..8), 20),
        )
    ) {
        let layout = GenomeLayout::new(&system);
        let fixed_voltage = SynthesisConfig::fast_preset(0);
        for config in [fixed_voltage.clone(), fixed_voltage.with_dvs()] {
            let dvs = config.dvs.as_ref().map(|d| d.eval);
            let reused = Evaluator::new(&system, &config);
            let mut genome = genes.clone();
            let mut mapping = layout.decode(&genome);
            let priced = reused
                .try_cost(&mapping, dvs.as_ref(), |_, _| None)
                .expect("generated architectures are fully connected");
            let mut base = ParentRecord::new(genome.clone(), Some(&priced));
            for &(locus, pick) in &moves {
                let locus = locus % layout.len();
                let gene = (pick % layout.candidates(locus).len()) as Gene;
                genome[locus] = gene;
                mapping = layout.with_gene(&mapping, locus, gene);
                let known = |mode, alloc: &_| base.known(&layout, &genome, mode, alloc);
                let cost = reused
                    .try_cost(&mapping, dvs.as_ref(), known)
                    .expect("generated architectures are fully connected");
                let fresh = Evaluator::new(&system, &config)
                    .try_evaluate(mapping.clone(), dvs.as_ref())
                    .expect("generated architectures are fully connected");
                assert_prices_as_fresh(&cost, &fresh);
                base = ParentRecord::new(genome.clone(), Some(&cost));
            }
        }
    }
}
