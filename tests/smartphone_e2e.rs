//! End-to-end checks on the smart-phone real-life benchmark (Table 3
//! shape): feasibility, the dominance of the RLC mode in the average, and
//! the DVS < fixed-voltage ordering.

use momsynth::generators::smartphone::smartphone;
use momsynth::model::ids::ModeId;
use momsynth::synthesis::{SynthesisConfig, Synthesizer};

#[test]
fn smartphone_synthesis_is_feasible_and_shuts_components_down() {
    let phone = smartphone();
    let result = Synthesizer::new(&phone, SynthesisConfig::fast_preset(2))
        .run()
        .expect("schedulable system");
    assert!(result.best.is_feasible(), "lateness {:?}", result.best.total_lateness);
    // In at least one mode some component must be powered down — running
    // all three components all the time cannot be optimal given the 74%
    // RLC-only residency.
    let any_shutdown =
        result.best.power.modes.iter().any(|m| m.active_pes.len() < phone.arch().pe_count());
    assert!(any_shutdown, "no component ever shuts down");
}

#[test]
fn rlc_mode_dominates_the_weighted_average() {
    let phone = smartphone();
    let result = Synthesizer::new(&phone, SynthesisConfig::fast_preset(3))
        .run()
        .expect("schedulable system");
    let rlc = &result.best.power.modes[ModeId::new(1).index()];
    // Ψ = 0.74: the weighted RLC contribution must be the single largest.
    let rlc_contrib = rlc.total().value() * 0.74;
    for (mode, m) in phone.omsm().modes() {
        if mode.index() == 1 {
            continue;
        }
        let contrib = result.best.power.modes[mode.index()].total().value() * m.probability();
        assert!(
            contrib <= rlc_contrib * 1.5,
            "mode {} contributes {contrib} vs RLC {rlc_contrib}",
            m.name()
        );
    }
}

#[test]
fn table3_shape_dvs_and_probabilities_compose() {
    // The GA is stochastic; compare mean-of-3-seeds like the tables do.
    let phone = smartphone();
    let run = |aware: bool, dvs: bool| -> f64 {
        (5..8)
            .map(|seed| {
                let mut cfg = SynthesisConfig::fast_preset(seed);
                cfg.probability_aware = aware;
                if dvs {
                    cfg = cfg.with_dvs();
                }
                Synthesizer::new(&phone, cfg)
                    .run()
                    .expect("schedulable system")
                    .best
                    .power
                    .average
                    .as_milli()
            })
            .sum::<f64>()
            / 3.0
    };
    let fixed_neglect = run(false, false);
    let fixed_aware = run(true, false);
    let dvs_aware = run(true, true);
    // Table 3 ordering: probabilities help, DVS helps further, the
    // combination is the global minimum.
    assert!(fixed_aware <= fixed_neglect * 1.05, "{fixed_aware} vs {fixed_neglect}");
    assert!(dvs_aware < fixed_aware, "{dvs_aware} vs {fixed_aware}");
    assert!(dvs_aware < fixed_neglect, "{dvs_aware} vs {fixed_neglect}");
}
