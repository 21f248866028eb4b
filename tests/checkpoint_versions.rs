//! Checkpoint format versions. `tests/golden/checkpoint_v3.json` is a
//! version 3 checkpoint written by the last build that kept a
//! genome-keyed evaluation cache (its `cache` key holds 80 entries), by
//!
//! ```text
//! momsynth generate --seed 29 --modes 2 -o sys.json
//! momsynth synth sys.json --quick --seed 7 \
//!     --checkpoint checkpoint_v3.json --checkpoint-every 1 --max-evals 100
//! ```
//!
//! It still loads, and resumes to the uninterrupted run. This build
//! writes version 4, without a `cache` key, and refuses version 5.

use std::path::{Path, PathBuf};

use serde_json::Value;

use momsynth::generators::suite::{generate, GeneratorParams};
use momsynth::model::System;
use momsynth::synthesis::{
    Checkpoint, CheckpointError, CheckpointSpec, SynthControl, SynthesisConfig, Synthesizer,
    CHECKPOINT_VERSION,
};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/checkpoint_v3.json");

/// `momsynth generate --seed 29 --modes 2`.
fn fixture_system() -> System {
    let mut params = GeneratorParams::new("generated_29", 29);
    params.modes = 2;
    generate(&params)
}

fn read_json(path: &Path) -> Value {
    serde_json::from_str(&std::fs::read_to_string(path).expect("readable")).expect("JSON")
}

#[test]
fn a_version_3_checkpoint_resumes_to_the_uninterrupted_run() {
    let raw = read_json(Path::new(FIXTURE));
    assert_eq!(raw["version"].as_u64(), Some(3));
    assert!(
        raw["cache"]["entries"].as_array().is_some_and(|entries| !entries.is_empty()),
        "the fixture must carry cache entries"
    );

    let checkpoint = Checkpoint::load(Path::new(FIXTURE)).expect("version 3 still loads");
    let system = fixture_system();
    let resumed = Synthesizer::new(&system, SynthesisConfig::fast_preset(7))
        .run_controlled(SynthControl { resume: Some(checkpoint), ..SynthControl::default() })
        .expect("the checkpoint resumes");
    let full = Synthesizer::new(&system, SynthesisConfig::fast_preset(7))
        .run()
        .expect("uninterrupted run");
    assert_eq!(resumed.best, full.best);
    assert_eq!(resumed.history, full.history);
    assert_eq!(resumed.evaluations, full.evaluations);
    assert_eq!(resumed.stop_reason, full.stop_reason);
}

#[test]
fn this_build_writes_version_4_without_a_cache_and_refuses_version_5() {
    let mut path = std::env::temp_dir();
    path.push(format!("momsynth_checkpoint_versions_{}.json", std::process::id()));
    let cleanup = |path: &PathBuf| {
        for suffix in ["", ".bak", ".tmp"] {
            let mut p = path.as_os_str().to_owned();
            p.push(suffix);
            std::fs::remove_file(PathBuf::from(p)).ok();
        }
    };
    cleanup(&path);

    // The fixture's run, on this build.
    let mut config = SynthesisConfig::fast_preset(7);
    config.ga.max_evaluations = Some(100);
    Synthesizer::new(&fixture_system(), config)
        .run_controlled(SynthControl {
            checkpoint: Some(CheckpointSpec::every_generations(path.clone(), 1)),
            ..SynthControl::default()
        })
        .expect("budgeted run");
    let raw = read_json(&path);
    assert_eq!(CHECKPOINT_VERSION, 4);
    assert_eq!(raw["version"].as_u64(), Some(4));
    assert!(raw.get("cache").is_none(), "version 4 has no cache key");

    // The same engine state as the version 3 fixture.
    let written = Checkpoint::load(&path).expect("version 4 loads");
    let fixture = Checkpoint::load(Path::new(FIXTURE)).expect("version 3 loads");
    assert_eq!(written.generation, fixture.generation);
    assert_eq!(written.evaluations, fixture.evaluations);
    assert_eq!(written.history, fixture.history);
    assert_eq!(written.best_genome, fixture.best_genome);
    assert_eq!(written.population, fixture.population);

    let mut future = written;
    future.version = 5;
    future.save(&path).expect("saved");
    match Checkpoint::load(&path) {
        Err(CheckpointError::Version { found: 5, supported: 4 }) => {}
        other => panic!("version 5 must be refused, got {other:?}"),
    }
    cleanup(&path);
}
