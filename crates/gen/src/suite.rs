//! Seeded random benchmark generator: the `mul1`–`mul12` suite.
//!
//! The paper evaluates on 12 automatically generated examples with 3–5
//! operational modes of 8–32 tasks each, mapped onto 2–4 heterogeneous
//! PEs (some DVS-enabled) connected by 1–3 communication links. The
//! original examples were never published, so this module regenerates
//! workloads with exactly those published parameter ranges under fixed
//! seeds (the substitution is documented in `DESIGN.md`).
//!
//! Generated systems are guaranteed to admit at least one feasible
//! implementation: every task type is implementable on the first GPP and
//! each mode's period covers its serialised software execution there with
//! configurable slack.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use momsynth_model::ids::TaskTypeId;
use momsynth_model::units::{Cells, Seconds, Volts, Watts};
use momsynth_model::{
    ArchitectureBuilder, Cl, DvsCapability, Implementation, OmsmBuilder, Pe, PeKind, System,
    TaskGraphBuilder, TechLibraryBuilder,
};

/// Parameters of one generated system.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorParams {
    /// Benchmark name (becomes the system name).
    pub name: String,
    /// RNG seed; equal parameters give identical systems.
    pub seed: u64,
    /// Number of operational modes.
    pub modes: usize,
    /// Inclusive range of tasks per mode.
    pub tasks_per_mode: (usize, usize),
    /// Number of distinct task types shared by all modes.
    pub type_pool: usize,
    /// Number of software PEs (GPPs); at least 1.
    pub software_pes: usize,
    /// Number of hardware PEs (alternating ASIC/FPGA).
    pub hardware_pes: usize,
    /// Number of communication links (the first connects all PEs).
    pub cls: usize,
    /// How many software PEs are DVS-enabled (from the front).
    pub dvs_software_pes: usize,
    /// How many hardware PEs are DVS-enabled (from the front).
    pub dvs_hardware_pes: usize,
    /// Mode period = serialised software time on GPP0 × this factor.
    pub slack_factor: f64,
    /// Probability of extra forward edges beyond the layered skeleton.
    pub edge_probability: f64,
    /// Probability that a sink task receives an individual deadline of
    /// `0.85 × period`.
    pub deadline_probability: f64,
}

impl GeneratorParams {
    /// Reasonable defaults matching the paper's ranges.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Self {
            name: name.into(),
            seed,
            modes: 4,
            tasks_per_mode: (8, 32),
            type_pool: 12,
            software_pes: 1,
            hardware_pes: 2,
            cls: 1,
            dvs_software_pes: 1,
            dvs_hardware_pes: 1,
            slack_factor: 1.25,
            edge_probability: 0.15,
            deadline_probability: 0.2,
        }
    }
}

fn standard_dvs() -> DvsCapability {
    DvsCapability::new(
        Volts::new(3.3),
        Volts::new(0.8),
        vec![Volts::new(1.2), Volts::new(1.8), Volts::new(2.4), Volts::new(3.3)],
    )
}

/// Generates a system from `params`. Deterministic in `params`.
///
/// # Panics
///
/// Panics if `params` is degenerate (zero modes, zero software PEs, an
/// empty task range or an empty type pool).
pub fn generate(params: &GeneratorParams) -> System {
    assert!(params.modes > 0, "at least one mode required");
    assert!(params.software_pes > 0, "at least one software PE required");
    assert!(params.type_pool > 0, "type pool must be non-empty");
    assert!(
        params.tasks_per_mode.0 >= 1 && params.tasks_per_mode.0 <= params.tasks_per_mode.1,
        "invalid tasks-per-mode range"
    );
    let mut rng = StdRng::seed_from_u64(params.seed);

    // ---- Architecture ------------------------------------------------------
    let mut arch = ArchitectureBuilder::new();
    let mut pes = Vec::new();
    for i in 0..params.software_pes {
        // Alternate general-purpose processors and ASIPs.
        let kind = if i % 2 == 0 { PeKind::Gpp } else { PeKind::Asip };
        let mut pe =
            Pe::software(format!("{kind}{i}"), kind, Watts::from_milli(rng.gen_range(2.0..10.0)));
        if i < params.dvs_software_pes {
            pe = pe.with_dvs(standard_dvs());
        }
        pes.push(arch.add_pe(pe));
    }
    for i in 0..params.hardware_pes {
        let kind = if i % 2 == 0 { PeKind::Asic } else { PeKind::Fpga };
        let capacity = Cells::new(rng.gen_range(500..1500));
        let mut pe = Pe::hardware(
            format!("{kind}{i}"),
            kind,
            capacity,
            Watts::from_milli(rng.gen_range(1.0..8.0)),
        );
        if kind.is_reconfigurable() {
            pe = pe.with_reconfig_time_per_cell(Seconds::from_micros(1.0));
        }
        if i < params.dvs_hardware_pes {
            pe = pe.with_dvs(standard_dvs());
        }
        pes.push(arch.add_pe(pe));
    }

    for c in 0..params.cls.max(1) {
        let endpoints = if c == 0 {
            pes.clone()
        } else {
            // A random subset of at least two PEs.
            let mut subset: Vec<_> = pes.iter().copied().filter(|_| rng.gen_bool(0.6)).collect();
            while subset.len() < 2 {
                let pe = pes[rng.gen_range(0..pes.len())];
                if !subset.contains(&pe) {
                    subset.push(pe);
                }
            }
            subset
        };
        arch.add_cl(Cl::bus(
            format!("BUS{c}"),
            endpoints,
            Seconds::from_micros(rng.gen_range(0.5..2.0)),
            Watts::from_milli(rng.gen_range(1.0..5.0)),
            Watts::from_milli(rng.gen_range(0.5..3.0)),
        ))
        .expect("generated links are valid");
    }

    // ---- Technology library -----------------------------------------------
    let mut tech = TechLibraryBuilder::new();
    let mut sw_time_on_gpp0 = Vec::with_capacity(params.type_pool);
    for t in 0..params.type_pool {
        let ty = tech.add_type(format!("T{t}"));
        let base_ms = rng.gen_range(5.0..40.0);
        let base_mw = rng.gen_range(50.0..500.0);
        for (i, &pe) in pes.iter().take(params.software_pes).enumerate() {
            // Every type runs on GPP0; other GPPs support it with p = 0.8.
            if i > 0 && !rng.gen_bool(0.8) {
                continue;
            }
            let scale = rng.gen_range(0.7..1.3);
            let time = Seconds::from_millis(base_ms * scale);
            if i == 0 {
                sw_time_on_gpp0.push(time);
            }
            tech.set_impl(
                ty,
                pe,
                Implementation::software(time, Watts::from_milli(base_mw * scale)),
            );
        }
        for &pe in pes.iter().skip(params.software_pes) {
            // Hardware implementation with p = 0.7; 5–100x faster than SW.
            if !rng.gen_bool(0.7) {
                continue;
            }
            let speedup = rng.gen_range(5.0..100.0);
            tech.set_impl(
                ty,
                pe,
                Implementation::hardware(
                    Seconds::from_millis(base_ms / speedup),
                    Watts::from_milli(rng.gen_range(1.0..20.0)),
                    Cells::new(rng.gen_range(100..350)),
                ),
            );
        }
    }
    let tech = tech.build();

    // ---- Modes --------------------------------------------------------------
    // Skewed execution probabilities: raising uniform samples to the 4th
    // power concentrates mass in few modes, mirroring real usage profiles
    // (the paper's phone spends 74% of its time in one mode).
    let raw: Vec<f64> = (0..params.modes).map(|_| rng.gen_range(0.05f64..1.0).powi(4)).collect();
    let total: f64 = raw.iter().sum();

    let mut omsm = OmsmBuilder::new();
    let mut mode_ids = Vec::with_capacity(params.modes);
    #[allow(clippy::needless_range_loop)] // m indexes both raw and mode_ids
    for m in 0..params.modes {
        let n = rng.gen_range(params.tasks_per_mode.0..=params.tasks_per_mode.1);
        let types: Vec<TaskTypeId> =
            (0..n).map(|_| TaskTypeId::new(rng.gen_range(0..params.type_pool))).collect();
        let serial: Seconds = types.iter().map(|ty| sw_time_on_gpp0[ty.index()]).sum();
        let period = serial * params.slack_factor;

        let mut g = TaskGraphBuilder::new(format!("{}_m{m}", params.name), period);
        let tasks: Vec<_> =
            types.iter().enumerate().map(|(i, &ty)| g.add_task(format!("t{i}"), ty)).collect();

        // Layered skeleton: width 2–4, every non-first-layer task gets at
        // least one predecessor from the previous layer.
        let width = rng.gen_range(2..=4usize);
        for (i, &task) in tasks.iter().enumerate() {
            let layer = i / width;
            if layer == 0 {
                continue;
            }
            let prev_start = (layer - 1) * width;
            let prev_end = (layer * width).min(tasks.len());
            let pred = tasks[rng.gen_range(prev_start..prev_end)];
            g.add_comm(pred, task, rng.gen_range(10.0..500.0)).expect("layered edges are forward");
            // Occasional second predecessor.
            if rng.gen_bool(params.edge_probability) {
                let pred2 = tasks[rng.gen_range(0..prev_end)];
                if pred2 != task && pred2 != pred {
                    let _ = g.add_comm(pred2, task, rng.gen_range(10.0..500.0));
                }
            }
        }
        // Individual deadlines on some sinks (tasks in the last layer).
        let last_layer_start = (tasks.len().saturating_sub(1) / width) * width;
        for &task in &tasks[last_layer_start..] {
            if rng.gen_bool(params.deadline_probability.clamp(0.0, 1.0)) {
                g.set_deadline(task, period * 0.85).expect("task exists");
            }
        }
        mode_ids.push(omsm.add_mode(
            format!("mode{m}"),
            raw[m] / total,
            g.build().expect("generated graphs are valid"),
        ));
    }

    // Transitions: a ring plus a few random chords.
    for m in 0..params.modes {
        if params.modes < 2 {
            break;
        }
        let next = (m + 1) % params.modes;
        omsm.add_transition(
            mode_ids[m],
            mode_ids[next],
            Seconds::from_millis(rng.gen_range(20.0..80.0)),
        )
        .expect("ring transitions are valid");
    }
    for _ in 0..params.modes {
        let a = rng.gen_range(0..params.modes);
        let b = rng.gen_range(0..params.modes);
        if a != b {
            let _ = omsm.add_transition(
                mode_ids[a],
                mode_ids[b],
                Seconds::from_millis(rng.gen_range(20.0..80.0)),
            );
        }
    }

    System::new(
        params.name.clone(),
        omsm.build().expect("generated OMSM is valid"),
        arch.build().expect("generated architecture is valid"),
        tech,
    )
    .expect("generated systems are valid")
}

/// Parameters of benchmark `mulN` (`1 ≤ n ≤ 12`), matching the paper's
/// published ranges (modes per example, 8–32 tasks, 2–4 PEs, 1–3 CLs).
///
/// # Panics
///
/// Panics unless `1 <= n && n <= 12`.
pub fn mul_params(n: usize) -> GeneratorParams {
    assert!((1..=12).contains(&n), "mul benchmarks are mul1..mul12");
    // (modes, sw PEs, hw PEs, cls, dvs sw, dvs hw, tasks lo, tasks hi)
    type Spec = (usize, usize, usize, usize, usize, usize, usize, usize);
    const SPECS: [Spec; 12] = [
        (4, 1, 2, 1, 1, 1, 8, 16),  // mul1
        (4, 1, 1, 1, 1, 0, 8, 12),  // mul2
        (5, 2, 2, 2, 1, 1, 16, 32), // mul3
        (5, 1, 2, 1, 1, 1, 12, 24), // mul4
        (3, 1, 2, 2, 1, 1, 8, 20),  // mul5
        (4, 1, 2, 1, 1, 2, 8, 16),  // mul6
        (4, 2, 2, 2, 2, 1, 10, 20), // mul7
        (4, 2, 2, 3, 1, 1, 16, 32), // mul8
        (4, 1, 1, 1, 1, 1, 8, 12),  // mul9
        (5, 2, 2, 2, 1, 2, 16, 32), // mul10
        (3, 1, 2, 1, 1, 1, 8, 16),  // mul11
        (4, 2, 2, 2, 2, 2, 12, 24), // mul12
    ];
    let (modes, sw, hw, cls, dvs_sw, dvs_hw, lo, hi) = SPECS[n - 1];
    let mut p = GeneratorParams::new(format!("mul{n}"), 7919 * n as u64);
    p.modes = modes;
    p.software_pes = sw;
    p.hardware_pes = hw;
    p.cls = cls;
    p.dvs_software_pes = dvs_sw;
    p.dvs_hardware_pes = dvs_hw;
    p.tasks_per_mode = (lo, hi);
    p.type_pool = (hi * 2 / 3).max(6);
    p
}

/// Generates benchmark `mulN`.
///
/// # Panics
///
/// Panics unless `1 <= n && n <= 12`.
pub fn mul(n: usize) -> System {
    generate(&mul_params(n))
}

/// Generates the full 12-benchmark suite.
pub fn mul_suite() -> Vec<System> {
    (1..=12).map(mul).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::ids::PeId;
    use momsynth_sched::{schedule_mode, CoreAllocation, SchedulerOptions, SystemMapping};

    #[test]
    fn generation_is_deterministic() {
        let a = mul(1);
        let b = mul(1);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&GeneratorParams::new("x", 1));
        let b = generate(&GeneratorParams::new("x", 2));
        assert_ne!(a, b);
    }

    #[test]
    fn suite_matches_paper_parameter_ranges() {
        for (i, system) in mul_suite().into_iter().enumerate() {
            let n = i + 1;
            let modes = system.omsm().mode_count();
            assert!((3..=5).contains(&modes), "mul{n}: {modes} modes");
            for (_, m) in system.omsm().modes() {
                let t = m.graph().task_count();
                assert!((8..=32).contains(&t), "mul{n}: {t} tasks in a mode");
            }
            let pes = system.arch().pe_count();
            assert!((2..=4).contains(&pes), "mul{n}: {pes} PEs");
            let cls = system.arch().cl_count();
            assert!((1..=3).contains(&cls), "mul{n}: {cls} CLs");
        }
    }

    #[test]
    fn probabilities_are_skewed_and_normalised() {
        for system in mul_suite() {
            let probs: Vec<f64> = system.omsm().modes().map(|(_, m)| m.probability()).collect();
            let sum: f64 = probs.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            // Skew: the largest probability clearly dominates the smallest.
            let max = probs.iter().cloned().fold(0.0, f64::max);
            let min = probs.iter().cloned().fold(1.0, f64::min);
            assert!(max / min > 1.5, "{}: probabilities too uniform {probs:?}", system.name());
        }
    }

    #[test]
    fn first_bus_connects_everything() {
        for system in mul_suite() {
            let pes: Vec<_> = system.arch().pe_ids().collect();
            for &a in &pes {
                for &b in &pes {
                    assert!(system.arch().connected(a, b));
                }
            }
        }
    }

    #[test]
    fn trivial_single_gpp_mapping_is_feasible() {
        for system in mul_suite() {
            let mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
            assert!(mapping.validate(&system).is_ok(), "{}", system.name());
            let alloc = CoreAllocation::minimal(&system, &mapping);
            for mode in system.omsm().mode_ids() {
                let s = schedule_mode(&system, mode, &mapping, &alloc, SchedulerOptions::default())
                    .expect("single-GPP mapping schedules");
                assert!(
                    s.is_timing_feasible(system.omsm().mode(mode).graph()),
                    "{} mode {mode} infeasible on single GPP",
                    system.name()
                );
            }
        }
    }

    #[test]
    fn every_type_used_is_implementable_on_gpp0() {
        for system in mul_suite() {
            for (_, m) in system.omsm().modes() {
                for ty in m.graph().used_types() {
                    assert!(system.tech().impl_of(ty, PeId::new(0)).is_some());
                }
            }
        }
    }

    #[test]
    fn graphs_have_edges_and_shared_types() {
        for system in mul_suite() {
            assert!(system.omsm().total_comm_count() > 0, "{}", system.name());
            assert!(
                !system.shared_types().is_empty(),
                "{} has no cross-mode shared types",
                system.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "mul1..mul12")]
    fn mul_rejects_out_of_range() {
        let _ = mul(13);
    }
}
