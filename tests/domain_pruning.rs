//! Dominance-driven genome-domain pruning, pinned on a checked-in spec.
//!
//! `specs/redundant_gpp.json` is a deliberately redundant system: its
//! spare GPP is strictly worse than the main GPP (more energy on every
//! task type, more static power) on a DVS-free single-bus architecture
//! with ample slack, so the analyzer's shadowing rule (DESIGN.md §16)
//! can prove the spare away from every genome locus. These tests pin the
//! regression where `pruned_domain_ratio` silently reported `0.0` on
//! every input: at least one checked-in spec must keep a provably
//! positive reduction through analysis, synthesis and certification.

use momsynth::analyze::analyze_system;
use momsynth::model::units::{Cells, Seconds, Watts};
use momsynth::model::{
    ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, System, TaskGraphBuilder,
    TechLibraryBuilder,
};
use momsynth::synthesis::{prove, CertificateStatus, ProveOptions, SynthesisConfig, Synthesizer};

/// Where the checked-in fixture lives.
const SPEC_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/redundant_gpp.json");

/// Builds the fixture system. The spare GPP is capable of everything the
/// main GPP is, but strictly worse along every axis the dominance rule
/// compares: per-type energy and static power. The architecture is
/// DVS-free with a single bus, and both modes have an order of magnitude
/// of slack, so every shadowing precondition holds.
fn redundant_gpp_system() -> System {
    let mut tech = TechLibraryBuilder::new();
    let control = tech.add_type("control");
    let dsp = tech.add_type("dsp");
    let logging = tech.add_type("logging");

    let mut arch = ArchitectureBuilder::new();
    let main_gpp = arch.add_pe(Pe::software("main_gpp", PeKind::Gpp, Watts::from_milli(1.0)));
    let spare_gpp = arch.add_pe(Pe::software("spare_gpp", PeKind::Gpp, Watts::from_milli(1.5)));
    let dsp_asic = arch.add_pe(Pe::hardware(
        "dsp_asic",
        PeKind::Asic,
        Cells::new(1000),
        Watts::from_milli(0.2),
    ));
    arch.add_cl(Cl::bus(
        "bus",
        vec![main_gpp, spare_gpp, dsp_asic],
        Seconds::from_micros(1.0),
        Watts::from_milli(1.0),
        Watts::from_milli(0.05),
    ))
    .unwrap();

    // main_gpp beats spare_gpp on energy for every type (20 < 26 mW at
    // equal time, 150 < 180 µJ, 10 < 12 µJ), so the witness search
    // succeeds for every task the spare could host.
    tech.set_impl(
        control,
        main_gpp,
        Implementation::software(Seconds::from_millis(2.0), Watts::from_milli(20.0)),
    );
    tech.set_impl(
        control,
        spare_gpp,
        Implementation::software(Seconds::from_millis(2.0), Watts::from_milli(26.0)),
    );
    tech.set_impl(
        dsp,
        main_gpp,
        Implementation::software(Seconds::from_millis(5.0), Watts::from_milli(30.0)),
    );
    tech.set_impl(
        dsp,
        spare_gpp,
        Implementation::software(Seconds::from_millis(4.0), Watts::from_milli(45.0)),
    );
    tech.set_impl(
        dsp,
        dsp_asic,
        Implementation::hardware(
            Seconds::from_millis(0.8),
            Watts::from_milli(2.0),
            Cells::new(300),
        ),
    );
    tech.set_impl(
        logging,
        main_gpp,
        Implementation::software(Seconds::from_millis(1.0), Watts::from_milli(10.0)),
    );
    tech.set_impl(
        logging,
        spare_gpp,
        Implementation::software(Seconds::from_millis(1.0), Watts::from_milli(12.0)),
    );

    let mut active = TaskGraphBuilder::new("active", Seconds::from_millis(100.0));
    let t0 = active.add_task("sense", control);
    let t1 = active.add_task("transform", dsp);
    let t2 = active.add_task("log", logging);
    active.add_comm(t0, t1, 5.0).unwrap();
    active.add_comm(t1, t2, 5.0).unwrap();

    let mut standby = TaskGraphBuilder::new("standby", Seconds::from_millis(200.0));
    let s0 = standby.add_task("watchdog", control);
    let s1 = standby.add_task("heartbeat", logging);
    standby.add_comm(s0, s1, 2.0).unwrap();

    let mut omsm = OmsmBuilder::new();
    let m_active = omsm.add_mode("active", 0.75, active.build().unwrap());
    let m_standby = omsm.add_mode("standby", 0.25, standby.build().unwrap());
    omsm.add_transition(m_active, m_standby, Seconds::from_millis(50.0)).unwrap();
    omsm.add_transition(m_standby, m_active, Seconds::from_millis(50.0)).unwrap();

    System::new("redundant_gpp", omsm.build().unwrap(), arch.build().unwrap(), tech.build())
        .unwrap()
}

/// The checked-in JSON is exactly the serialisation of the builder
/// system above. Regenerate it with
/// `REGEN_FIXTURES=1 cargo test --test domain_pruning`.
#[test]
fn checked_in_spec_matches_the_builder() {
    let built = serde_json::to_string_pretty(&redundant_gpp_system()).unwrap();
    if std::env::var_os("REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/specs")).unwrap();
        std::fs::write(SPEC_PATH, &built).unwrap();
    }
    let text = std::fs::read_to_string(SPEC_PATH)
        .expect("specs/redundant_gpp.json is checked in (REGEN_FIXTURES=1 regenerates it)");
    assert_eq!(text, built, "fixture drifted from its builder; regenerate it");
}

/// The analyzer proves the spare GPP away: a strictly positive share of
/// all (task, candidate-PE) pairs is removed, attributed to dominance.
#[test]
fn dominance_prunes_the_spare_gpp() {
    let text = std::fs::read_to_string(SPEC_PATH).unwrap();
    let system: System = serde_json::from_str(&text).unwrap();
    let analysis = analyze_system(&system);
    assert!(!analysis.has_errors(), "fixture must be feasible:\n{analysis}");

    let reduction = analysis.domain_reduction();
    // The spare is a candidate for all 3 active and 2 standby tasks.
    assert_eq!(reduction.pruned_by_dominance, 5, "spare_gpp leaves every locus");
    assert_eq!(reduction.total_candidates, 11);
    assert!(analysis.pruned_domain_ratio() > 0.0);
    // No locus may keep the spare in its domain.
    let spare = system.arch().pe_ids().nth(1).unwrap();
    for domain in analysis.capable_pes() {
        assert!(!domain.contains(&spare), "spare_gpp survived in {domain:?}");
    }
}

/// End-to-end regression pin: a synthesis run over the fixture reports a
/// strictly positive `pruned_domain_ratio` (it was silently `0.0` for
/// every input before dominance analysis landed), and certification
/// proves its best optimal inside the reduced space.
#[test]
fn synthesis_and_certificate_report_the_reduction() {
    let text = std::fs::read_to_string(SPEC_PATH).unwrap();
    let system: System = serde_json::from_str(&text).unwrap();

    let config = SynthesisConfig::fast_preset(7);
    let result = Synthesizer::new(&system, config.clone()).run().expect("schedulable");
    assert!(
        result.pruned_domain_ratio > 0.0,
        "regression: pruned_domain_ratio must be positive on redundant_gpp"
    );
    assert!(result.best.is_feasible());

    let options = ProveOptions { incumbent: Some(result.best.fitness), ..ProveOptions::default() };
    let cert = prove(&system, &config, &options).expect("feasible");
    assert_eq!(cert.status, CertificateStatus::Optimal, "12-leaf space must be exhausted");
    assert!(cert.domain_reduction.pruned_by_dominance > 0);
    assert!(
        result.best.fitness >= cert.lower_bound - 1e-9,
        "GA best {} under certified bound {}",
        result.best.fitness,
        cert.lower_bound
    );
    // Dominance collapses every software-only locus to the main GPP:
    // 2·3·2 · 2·2 = 48 assignments without it, 1·2·1 · 1·1 = 2 with.
    assert_eq!(cert.search_space, 2.0);
}
