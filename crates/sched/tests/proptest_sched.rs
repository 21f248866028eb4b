//! Property-based tests of mobility analysis and list scheduling on
//! randomly shaped single-mode systems (built locally, without the
//! workload-generator crate).

use proptest::prelude::*;

use momsynth_model::ids::{ModeId, PeId, TaskId, TaskTypeId};
use momsynth_model::units::{Cells, Seconds, Watts};
use momsynth_model::{
    ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, System, TaskGraphBuilder,
    TechLibraryBuilder,
};
use momsynth_sched::{
    schedule_mode, validate_schedule, CoreAllocation, Priority, SchedulerOptions, SystemMapping,
    TimingAnalysis,
};

/// Random single-mode system: layered DAG of `n` tasks over `types`
/// types, one GPP plus one ASIC, every type implementable on both.
fn random_system() -> impl Strategy<Value = System> {
    (
        2usize..16,
        1usize..4,
        proptest::collection::vec((1u32..40, 1u32..500, 0usize..1000), 16),
        1.05f64..3.0,
    )
        .prop_map(|(n, types, raw, slack)| {
            let mut tech = TechLibraryBuilder::new();
            let mut arch = ArchitectureBuilder::new();
            let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(1.0)));
            let hw = arch.add_pe(Pe::hardware(
                "hw",
                PeKind::Asic,
                Cells::new(5_000),
                Watts::from_milli(1.0),
            ));
            arch.add_cl(Cl::bus(
                "bus",
                vec![cpu, hw],
                Seconds::from_micros(1.0),
                Watts::from_milli(1.0),
                Watts::from_milli(0.1),
            ))
            .expect("bus is valid");

            let mut sw_times_ms = Vec::with_capacity(types);
            for t in 0..types {
                let ty = tech.add_type(format!("T{t}"));
                let (ms, mw, _) = raw[t % raw.len()];
                sw_times_ms.push(f64::from(ms));
                tech.set_impl(
                    ty,
                    cpu,
                    Implementation::software(
                        Seconds::from_millis(f64::from(ms)),
                        Watts::from_milli(f64::from(mw)),
                    ),
                );
                tech.set_impl(
                    ty,
                    hw,
                    Implementation::hardware(
                        Seconds::from_millis(f64::from(ms) / 10.0),
                        Watts::from_milli(f64::from(mw) / 50.0),
                        Cells::new(100),
                    ),
                );
            }
            // Serial software bound for the period (task i has type i % types).
            let serial_ms: f64 = (0..n).map(|i| sw_times_ms[i % types]).sum();
            let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(serial_ms * slack));
            let tasks: Vec<TaskId> =
                (0..n).map(|i| g.add_task(format!("t{i}"), TaskTypeId::new(i % types))).collect();
            for (i, &(_, _, pick)) in raw.iter().enumerate().take(n.saturating_sub(1)) {
                let dst = i + 1;
                let src = pick % (dst);
                let _ = g.add_comm(tasks[src], tasks[dst], (pick % 300) as f64 + 1.0);
            }
            let mut omsm = OmsmBuilder::new();
            omsm.add_mode("m", 1.0, g.build().expect("layered DAG is valid"));
            System::new(
                "prop",
                omsm.build().expect("valid"),
                arch.build().expect("valid"),
                tech.build(),
            )
            .expect("valid system")
        })
}

fn mapping_for(system: &System, picks: &[usize]) -> SystemMapping {
    let mut i = 0;
    SystemMapping::from_fn(system, |id| {
        let candidates = system.candidate_pes(id);
        let pe = candidates[picks[i % picks.len()] % candidates.len()];
        i += 1;
        pe
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn asap_is_a_lower_bound_on_any_schedule(
        system in random_system(),
        picks in proptest::collection::vec(0usize..4, 32),
    ) {
        let mapping = mapping_for(&system, &picks);
        let analysis = TimingAnalysis::analyze(&system, ModeId::new(0), &mapping);
        let alloc = CoreAllocation::minimal(&system, &mapping);
        let schedule = schedule_mode(
            &system,
            ModeId::new(0),
            &mapping,
            &alloc,
            SchedulerOptions::default(),
        )
        .expect("connected architecture");
        for t in system.omsm().mode(ModeId::new(0)).graph().task_ids() {
            prop_assert!(
                schedule.task(t).start.value() >= analysis.asap(t).value() - 1e-9,
                "{t}: start {} < asap {}",
                schedule.task(t).start.value(),
                analysis.asap(t).value()
            );
        }
    }

    #[test]
    fn both_priorities_schedule_validly(
        system in random_system(),
        picks in proptest::collection::vec(0usize..4, 32),
    ) {
        let mapping = mapping_for(&system, &picks);
        let alloc = CoreAllocation::minimal(&system, &mapping);
        for priority in [Priority::Mobility, Priority::Fifo] {
            let schedule = schedule_mode(
                &system,
                ModeId::new(0),
                &mapping,
                &alloc,
                SchedulerOptions { priority },
            )
            .expect("connected architecture");
            let violations = validate_schedule(&system, &mapping, &alloc, &schedule);
            prop_assert!(violations.is_empty(), "{priority:?}: {violations:?}");
        }
    }

    #[test]
    fn all_software_mapping_meets_generous_periods(
        system in random_system(),
    ) {
        // The period was set to serial SW time x slack >= 1.05, so the
        // single-CPU schedule always fits.
        let mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
        let alloc = CoreAllocation::minimal(&system, &mapping);
        let schedule = schedule_mode(
            &system,
            ModeId::new(0),
            &mapping,
            &alloc,
            SchedulerOptions::default(),
        )
        .expect("software mapping schedules");
        let graph = system.omsm().mode(ModeId::new(0)).graph();
        prop_assert!(schedule.is_timing_feasible(graph));
    }

    #[test]
    fn mobility_is_non_negative_under_generous_periods(system in random_system()) {
        let mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
        let analysis = TimingAnalysis::analyze(&system, ModeId::new(0), &mapping);
        for t in system.omsm().mode(ModeId::new(0)).graph().task_ids() {
            prop_assert!(
                analysis.mobility(t).value() >= -1e-9,
                "{t}: mobility {}",
                analysis.mobility(t).value()
            );
        }
    }

    #[test]
    fn priority_order_is_a_permutation(system in random_system()) {
        let mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
        let analysis = TimingAnalysis::analyze(&system, ModeId::new(0), &mapping);
        let order = analysis.priority_order();
        let n = system.omsm().mode(ModeId::new(0)).graph().task_count();
        prop_assert_eq!(order.len(), n);
        let mut seen = vec![false; n];
        for t in order {
            prop_assert!(!seen[t.index()]);
            seen[t.index()] = true;
        }
    }
}
