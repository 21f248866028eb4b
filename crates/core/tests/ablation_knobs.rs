//! The design-decision knobs (D2–D5) must be functional: each produces a
//! valid synthesis run, and flipping it changes the configuration the
//! synthesizer actually uses.

use momsynth_core::{DvsSynthesisOptions, LocalSearchOptions, SynthesisConfig, Synthesizer};
use momsynth_gen::suite::mul;
use momsynth_sched::Priority;

fn power_with(cfg: SynthesisConfig) -> (f64, bool) {
    let system = mul(9);
    let result = Synthesizer::new(&system, cfg).run().unwrap();
    (result.best.power.average.as_milli(), result.best.is_feasible())
}

#[test]
fn d2_improvement_operators_toggle() {
    let on = SynthesisConfig::fast_preset(1);
    let mut off = SynthesisConfig::fast_preset(1);
    off.ga.improvement_rate = 0.0;
    let (p_on, f_on) = power_with(on);
    let (p_off, f_off) = power_with(off);
    assert!(f_on && f_off);
    assert!(p_on > 0.0 && p_off > 0.0);
}

#[test]
fn d3_software_only_dvs_never_beats_full_dvs_on_hw_heavy_systems() {
    // mul6 has two DVS hardware PEs; restricting scaling to software rails
    // must not *help*.
    let system = mul(6);
    let run = |sw_only: bool| {
        let mut cfg = SynthesisConfig::fast_preset(2).with_dvs();
        if sw_only {
            cfg.dvs = Some(DvsSynthesisOptions::software_only());
        }
        Synthesizer::new(&system, cfg).run().unwrap().best.power.average.as_milli()
    };
    let full = run(false);
    let sw_only = run(true);
    assert!(full <= sw_only * 1.05, "full {full} vs sw-only {sw_only}");
}

#[test]
fn d4_replication_toggle_produces_valid_runs() {
    let mut on = SynthesisConfig::fast_preset(3);
    on.alloc.replicate = true;
    let mut off = SynthesisConfig::fast_preset(3);
    off.alloc.replicate = false;
    let (p_on, f_on) = power_with(on);
    let (p_off, f_off) = power_with(off);
    assert!(f_on && f_off);
    assert!(p_on > 0.0 && p_off > 0.0);
}

#[test]
fn d5_fifo_priorities_produce_valid_runs() {
    let mut cfg = SynthesisConfig::fast_preset(4);
    cfg.scheduler.priority = Priority::Fifo;
    let (p, feasible) = power_with(cfg);
    assert!(feasible);
    assert!(p > 0.0);
}

#[test]
fn local_search_never_hurts_the_reported_power() {
    let system = mul(9);
    let run = |passes: usize, seed: u64| {
        let mut cfg = SynthesisConfig::fast_preset(seed);
        cfg.local_search = LocalSearchOptions { max_passes: passes };
        Synthesizer::new(&system, cfg).run().unwrap().best.fitness
    };
    for seed in 0..3 {
        let without = run(0, seed);
        let with = run(2, seed);
        assert!(
            with <= without + 1e-12,
            "seed {seed}: polish worsened fitness {without} -> {with}"
        );
    }
}
