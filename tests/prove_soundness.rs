//! Soundness oracle for `momsynth prove`: pruning never changes the
//! optimum.
//!
//! The certificate's claim rests on two reductions — dominance-pruned
//! genome domains and admissible bound-based subtree cuts. Each must
//! preserve at least one optimal assignment. This suite compares the
//! full machinery (dominance pruning on, bounds on) against a plain
//! exhaustive enumeration of the *unreduced* space (both off) on
//! randomised small systems: the certified optimal fitness has to match
//! exactly, every time, or one of the reductions cut the optimum.

use proptest::prelude::*;

use momsynth::analyze::analyze_system;
use momsynth::generators::suite::{generate, GeneratorParams};
use momsynth::synthesis::{prove, CertificateStatus, ProveOptions, SynthesisConfig};

/// Independently computed optima may differ only by float noise
/// (identical evaluator, different exploration order).
const EPS: f64 = 1e-9;

/// A generated system small enough to enumerate exhaustively: at most
/// two modes of 2–4 tasks over 3 PEs, DVS-free so dominance can engage.
fn small_system(seed: u64, modes: usize) -> momsynth::model::System {
    let mut params = GeneratorParams::new("prove_oracle", seed);
    params.modes = modes;
    params.tasks_per_mode = (2, 4);
    params.type_pool = 4;
    params.software_pes = 2;
    params.hardware_pes = 1;
    params.cls = 1;
    params.dvs_software_pes = 0;
    params.dvs_hardware_pes = 0;
    params.slack_factor = 2.0;
    generate(&params)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Branch-and-bound with dominance pruning and admissible bounds
    /// finds exactly the optimum that exhaustive enumeration of the
    /// full space finds.
    #[test]
    fn pruned_search_matches_exhaustive_enumeration(
        seed in 1u64..500,
        modes in 1usize..3,
    ) {
        let system = small_system(seed, modes);
        let analysis = analyze_system(&system);
        // Vendored proptest has no prop_assume; skip infeasible draws.
        if analysis.has_errors() {
            return;
        }

        // Reference: plain enumeration — no domain pruning, no bounds.
        let mut exhaustive_config = SynthesisConfig::fast_preset(seed);
        exhaustive_config.prune_domains = false;
        let exhaustive = prove(
            &system,
            &exhaustive_config,
            &ProveOptions { max_evals: u64::MAX, use_bounds: false, ..ProveOptions::default() },
        )
        .expect("analysis was clean");
        prop_assert_eq!(exhaustive.status, CertificateStatus::Optimal);
        prop_assert_eq!(
            exhaustive.explored as f64, exhaustive.search_space,
            "an unbounded unseeded search must price every leaf"
        );

        // Full machinery: dominance-pruned domains, bound-cut subtrees.
        let config = SynthesisConfig::fast_preset(seed);
        let cert = prove(&system, &config, &ProveOptions::default())
            .expect("analysis was clean");
        prop_assert_eq!(cert.status, CertificateStatus::Optimal);
        prop_assert!(cert.explored <= exhaustive.explored);

        match (cert.best_fitness, exhaustive.best_fitness) {
            (Some(pruned), Some(full)) => {
                prop_assert!(
                    (pruned - full).abs() <= EPS * full.abs().max(1.0),
                    "pruning changed the optimum: {} (pruned) vs {} (exhaustive)",
                    pruned,
                    full
                );
                prop_assert!(cert.lower_bound <= full + EPS);
            }
            // No schedulable assignment exists at all; both searches
            // must agree on that too.
            (None, None) => {}
            (pruned, full) => prop_assert!(
                false,
                "searches disagree on schedulability: {pruned:?} (pruned) vs {full:?} (exhaustive)"
            ),
        }
    }

    /// Seeding the search with a known achievable fitness can only
    /// accelerate the proof, never weaken it: the certified bound still
    /// equals the exhaustive optimum.
    #[test]
    fn seeded_proofs_certify_the_same_optimum(seed in 1u64..500) {
        let system = small_system(seed, 1);
        let analysis = analyze_system(&system);
        // Vendored proptest has no prop_assume; skip infeasible draws.
        if analysis.has_errors() {
            return;
        }

        let config = SynthesisConfig::fast_preset(seed);
        let unseeded = prove(&system, &config, &ProveOptions::default()).unwrap();
        let Some(optimum) = unseeded.best_fitness else {
            return; // nothing schedulable to seed with
        };

        // Seed with the optimum itself — the strongest legal incumbent.
        let seeded = prove(
            &system,
            &config,
            &ProveOptions { incumbent: Some(optimum), ..ProveOptions::default() },
        )
        .unwrap();
        prop_assert_eq!(seeded.status, CertificateStatus::Optimal);
        prop_assert_eq!(seeded.best_fitness, Some(optimum));
        prop_assert!(seeded.explored <= unseeded.explored);
        prop_assert!(
            (seeded.lower_bound - unseeded.lower_bound).abs()
                <= EPS * unseeded.lower_bound.abs().max(1.0)
        );
    }
}

/// Certificates of 2 000-leaf searches on three suite systems, with and
/// without DVS, pinned as `(best fitness bits, lower bound bits,
/// explored, pruned by bound)`. Leaves are priced in depth-first order,
/// each against the previous leaf, so a change to how a leaf is priced
/// that is meant to be bit-identical must keep these green.
#[test]
fn mul_certificates_are_pinned() {
    use momsynth::generators::suite::mul;

    let cases = [
        (7, false, 0x3fca_acb3_4e11_7c8a_u64, 0x3fa2_21a2_e4db_d43b_u64, 2000, 5514),
        (9, false, 0x3fc1_8841_18b0_864c, 0x3faa_7ae3_0d07_0aaa, 2000, 145),
        (11, false, 0x3fae_0c01_4ea0_97e0, 0x3fa0_bbeb_00f0_08b4, 2000, 2489),
        (11, true, 0x3fa4_23e6_2c94_8bce, 0x3f72_29d9_a0c1_07ca, 2000, 0),
    ];
    for (n, dvs, best, lower_bound, explored, pruned_by_bound) in cases {
        let mut config = SynthesisConfig::fast_preset(1);
        if dvs {
            config = config.with_dvs();
        }
        let cert =
            prove(&mul(n), &config, &ProveOptions { max_evals: 2000, ..ProveOptions::default() })
                .expect("the suite systems analyse clean");
        let best_bits = cert.best_fitness.expect("leaves were priced").to_bits();
        assert_eq!(
            (best_bits, cert.lower_bound.to_bits(), cert.explored, cert.pruned_by_bound),
            (best, lower_bound, explored, pruned_by_bound),
            "mul{n} (dvs {dvs}): best {:?}, lower bound {}",
            cert.best_fitness,
            cert.lower_bound
        );
    }
}
