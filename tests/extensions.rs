//! Integration tests of the beyond-the-paper extensions: usage-profile
//! derivation, probability replacement, component breakdown, battery
//! life and DOT export — exercised together on real systems.

use momsynth::generators::smartphone::smartphone;
use momsynth::generators::suite::mul;
use momsynth::model::units::Volts;
use momsynth::model::usage::UsageModel;
use momsynth::model::{dot, System};
use momsynth::power::{
    battery_energy, battery_lifetime, energy_breakdown, power_report, ModeImplementation,
};
use momsynth::sched::{schedule_mode, CoreAllocation, SchedulerOptions, SystemMapping};
use momsynth::synthesis::{SynthesisConfig, Synthesizer};

#[test]
fn usage_model_reweights_the_smartphone() {
    let phone = smartphone();
    // A music lover: long MP3 sojourns.
    let mut usage = UsageModel::new(8);
    let sojourns = [60.0, 400.0, 10.0, 5.0, 5.0, 1800.0, 60.0, 5.0];
    for (i, &s) in sojourns.iter().enumerate() {
        usage.set_sojourn(i, momsynth::model::units::Seconds::new(s));
    }
    for m in [0, 2, 3, 4, 5, 6, 7] {
        usage.set_transition_weight(1, m, 1.0);
        usage.set_transition_weight(m, 1, 1.0);
    }
    let psi = usage.mode_probabilities().expect("ergodic profile");
    assert!((psi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    // MP3 playback dominates everything except the RLC hub.
    assert!(psi[5] > psi[0] && psi[5] > psi[3] && psi[5] > psi[7]);

    let omsm = phone.omsm().with_probabilities(&psi).expect("valid probabilities");
    let music_phone =
        System::new("smartphone_music", omsm, phone.arch().clone(), phone.tech().clone())
            .expect("valid system");
    assert_eq!(music_phone.omsm().mode_count(), 8);
    // Synthesis on the reweighted system works end to end.
    let result = Synthesizer::new(&music_phone, SynthesisConfig::fast_preset(1))
        .run()
        .expect("schedulable system");
    assert!(result.best.power.average.value() > 0.0);
}

#[test]
fn breakdown_attributes_all_power_and_estimates_battery_life() {
    let system = mul(9);
    let mapping = SystemMapping::from_fn(&system, |id| system.candidate_pes(id)[0]);
    let alloc = CoreAllocation::minimal(&system, &mapping);
    let schedules: Vec<_> = system
        .omsm()
        .mode_ids()
        .map(|m| schedule_mode(&system, m, &mapping, &alloc, SchedulerOptions::default()).unwrap())
        .collect();
    let imps: Vec<ModeImplementation> = schedules.iter().map(ModeImplementation::nominal).collect();
    let report = power_report(&system, &imps);
    let breakdown = energy_breakdown(&system, &imps);
    assert!((breakdown.total().value() - report.average.value()).abs() < 1e-12);

    // A 1000 mAh / 3.7 V battery at tens of mW lasts days, not minutes.
    let life = battery_lifetime(&report, battery_energy(1000.0, Volts::new(3.7)));
    assert!(life.value() > 3600.0, "battery life {life}");
    assert!(life.is_finite());
}

#[test]
fn smartphone_exports_dot() {
    let phone = smartphone();
    let omsm_dot = dot::omsm_to_dot(phone.omsm());
    assert!(omsm_dot.contains("rlc"));
    assert!(omsm_dot.contains("Ψ=0.74"));
    let arch_dot = dot::architecture_to_dot(phone.arch());
    assert!(arch_dot.contains("GPP"));
    assert!(arch_dot.contains("DVS"));
    let graph_dot =
        dot::task_graph_to_dot(phone.omsm().mode(momsynth::model::ids::ModeId::new(0)).graph());
    assert!(graph_dot.contains("gsm_lpc"));
}

#[test]
fn solution_describe_is_complete_on_the_smartphone() {
    let phone = smartphone();
    let result = Synthesizer::new(&phone, SynthesisConfig::fast_preset(4))
        .run()
        .expect("schedulable system");
    let text = result.best.describe(&phone);
    for (_, m) in phone.omsm().modes() {
        assert!(text.contains(m.name()), "mode {} missing from report", m.name());
    }
    assert!(text.contains("mW average"));
}
