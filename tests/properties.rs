//! Property-based tests over randomly generated systems and mappings:
//! scheduler invariants (precedence, resource exclusivity, determinism),
//! DVS invariants (never slower than deadlines allow, never more energy),
//! and power-model invariants (non-negativity, probability weighting).

use proptest::prelude::*;

use momsynth::dvs::{scale_mode, DvsOptions};
use momsynth::generators::suite::{generate, GeneratorParams};
use momsynth::model::System;
use momsynth::power::{mode_power, ModeImplementation};
use momsynth::sched::{
    schedule_mode, ActivityId, CoreAllocation, Schedule, SchedulerOptions, SystemMapping,
};
use momsynth::synthesis::{
    Evaluator, FaultInjection, Gene, GenomeLayout, SynthesisConfig, Synthesizer,
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Pricing a single-gene neighbour against the solution it moved
    /// from reuses every mode the move left alone, and must give exactly
    /// the solution a fresh evaluator gives without a base, at fixed
    /// voltage and under the synthesis's PV-DVS options alike.
    #[test]
    fn neighbour_pricing_equals_fresh_pricing((system, genes) in multi_mode_system_and_genome()) {
        let layout = GenomeLayout::new(&system);
        let fixed_voltage = SynthesisConfig::fast_preset(0);
        for config in [fixed_voltage.clone(), fixed_voltage.with_dvs()] {
            let dvs = config.dvs.as_ref().map(|d| d.eval);
            let reused = Evaluator::new(&system, &config);
            let base = reused
                .try_evaluate(layout.decode(&genes), dvs.as_ref(), None)
                .expect("generated architectures are fully connected");
            let mut neighbour = genes.clone();
            for locus in 0..layout.len() {
                for alt in 0..layout.candidates(locus).len() as Gene {
                    if alt == genes[locus] {
                        continue;
                    }
                    neighbour[locus] = alt;
                    let mapping = layout.decode(&neighbour);
                    let priced = reused.try_evaluate(mapping.clone(), dvs.as_ref(), Some(&base));
                    let fresh = Evaluator::new(&system, &config)
                        .try_evaluate(mapping, dvs.as_ref(), None);
                    prop_assert_eq!(
                        priced.as_ref().map(|s| s.fitness.to_bits()),
                        fresh.as_ref().map(|s| s.fitness.to_bits())
                    );
                    prop_assert_eq!(priced, fresh);
                }
                neighbour[locus] = genes[locus];
            }
        }
    }
}
