//! Torn-write fuzz for [`Checkpoint::load_resilient`]: truncate and
//! corrupt the primary at every byte boundary and assert the loader
//! recovers the `.bak` sibling or fails with a typed
//! [`CheckpointError`] — never panics (DESIGN.md §17).

use std::path::{Path, PathBuf};

use momsynth_core::{Checkpoint, Gene, GenomeLayout};
use momsynth_ga::GaSnapshot;
use momsynth_telemetry::Counters;
use momsynth_gen::suite::{generate, GeneratorParams};

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("momsynth_cp_torn_{}_{name}.json", std::process::id()));
    std::fs::remove_file(&p).ok();
    p
}

fn checkpoint_pair(path: &Path) -> (Checkpoint, Checkpoint) {
    let mut params = GeneratorParams::new("cp-torn", 5);
    params.modes = 2;
    params.tasks_per_mode = (4, 5);
    let system = generate(&params);
    let layout = GenomeLayout::new(&system);
    let len = layout.len();
    let snapshot = |generation: usize| GaSnapshot::<Gene> {
        generation,
        evaluations: generation * 10,
        stagnation: 0,
        low_diversity_generations: 0,
        history: vec![9.0; generation.max(1)],
        best: (vec![0; len], 4.5),
        population: vec![(vec![0; len], 4.5), (vec![1; len], 6.0)],
    };
    let older = Checkpoint::capture(&system, &layout, 5, &snapshot(2), Counters::default());
    older.save(path).unwrap();
    let newer = Checkpoint::capture(&system, &layout, 5, &snapshot(4), Counters::default());
    newer.save(path).unwrap(); // keeps `older` as `.bak`
    (older, newer)
}

#[test]
fn truncation_at_every_boundary_recovers_or_fails_typed() {
    let path = tmp_path("trunc");
    let (older, newer) = checkpoint_pair(&path);
    let full = std::fs::read(&path).unwrap();
    for cut in 0..=full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let (cp, note) = Checkpoint::load_resilient(&path)
            .expect("the backup must cover every torn prefix");
        if cut == full.len() {
            assert_eq!(cp, newer);
            assert!(note.is_none(), "clean primary needs no recovery note");
        } else {
            assert_eq!(cp, older, "fallback must be the previous checkpoint (cut={cut})");
            assert!(note.is_some(), "recovery must be reported (cut={cut})");
        }
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(Checkpoint::backup_path(&path)).ok();
}

#[test]
fn corruption_at_every_byte_never_panics() {
    let path = tmp_path("flip");
    let (older, newer) = checkpoint_pair(&path);
    let full = std::fs::read(&path).unwrap();
    for at in 0..full.len() {
        let mut bytes = full.clone();
        bytes[at] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        match Checkpoint::load_resilient(&path) {
            // Either copy is acceptable: a benign flip (inside a string
            // value) can leave the primary parseable. A flip that
            // corrupts a *value* but not the JSON shape may also load —
            // the version/geometry guards in `Synthesizer` reject
            // incompatible resumes downstream.
            Ok((cp, _note)) => {
                assert_eq!(
                    (cp.seed, cp.genome_len),
                    (newer.seed, newer.genome_len),
                    "a loaded checkpoint keeps its geometry (at={at})"
                );
            }
            // Both torn would be a typed error; with a good `.bak` this
            // only happens if the flip made the primary parse *and*
            // fail validation — still typed, never a panic.
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
    let _ = older;
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(Checkpoint::backup_path(&path)).ok();
}
