//! Shape checks from DESIGN.md §4: the qualitative results of Tables 1–3
//! must reproduce — probability-aware synthesis does not lose to the
//! neglecting baseline, and DVS strictly lowers power. Run on a subset of
//! the suite with reduced GA budgets to stay fast.

use momsynth::generators::suite::mul;
use momsynth::synthesis::{SynthesisConfig, Synthesizer};

fn mean_power(system: &momsynth::model::System, aware: bool, dvs: bool, runs: u64) -> f64 {
    (0..runs)
        .map(|seed| {
            let mut cfg = SynthesisConfig::fast_preset(seed);
            cfg.probability_aware = aware;
            if dvs {
                cfg = cfg.with_dvs();
            }
            Synthesizer::new(system, cfg)
                .run()
                .expect("schedulable system")
                .best
                .power
                .average
                .as_milli()
        })
        .sum::<f64>()
        / runs as f64
}

#[test]
fn probability_aware_flow_wins_on_suite_benchmarks() {
    // Table 1 shape on the two smallest benchmarks.
    for n in [2, 9] {
        let system = mul(n);
        let aware = mean_power(&system, true, false, 3);
        let neglecting = mean_power(&system, false, false, 3);
        assert!(aware <= neglecting * 1.02, "mul{n}: aware {aware} vs neglecting {neglecting}");
    }
}

#[test]
fn dvs_strictly_reduces_power() {
    // Table 2 vs Table 1 shape: with DVS-enabled PEs in the architecture,
    // scaling must lower the average power of the same flow.
    for n in [2, 9] {
        let system = mul(n);
        let fixed = mean_power(&system, true, false, 2);
        let dvs = mean_power(&system, true, true, 2);
        assert!(dvs < fixed, "mul{n}: DVS {dvs} vs fixed {fixed}");
    }
}

#[test]
fn synthesised_suite_solutions_are_feasible() {
    for n in [2, 9, 11] {
        let system = mul(n);
        let result = Synthesizer::new(&system, SynthesisConfig::fast_preset(42))
            .run()
            .expect("schedulable system");
        assert!(
            result.best.is_feasible(),
            "mul{n}: lateness {:?}, area overruns {:?}",
            result.best.total_lateness,
            result.best.area_overruns
        );
    }
}
