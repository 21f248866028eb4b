//! Versioned JSON checkpoints of a running synthesis.
//!
//! A [`Checkpoint`] freezes the GA engine state between generations —
//! seed, generation and evaluation counters, cost history, best-so-far and
//! the full cost-annotated population — together with a header identifying
//! the system it belongs to. Because the engine re-seeds its RNG per
//! generation, resuming from a checkpoint replays exactly the generations
//! an uninterrupted run would have produced (see
//! [`momsynth_ga::run_controlled`]).
//!
//! Files are plain JSON with a `version` field; [`Checkpoint::load`]
//! reads versions [`OLDEST_READABLE_VERSION`] to [`CHECKPOINT_VERSION`]
//! and rejects the rest, and [`Checkpoint::validate`] cross-checks the
//! header against the system a resume targets (name, mode/task counts,
//! genome length, GA seed) so a checkpoint can never silently resume onto
//! the wrong problem. Writes go through [`durable::write`], so an
//! interrupted write never destroys the previous checkpoint, and the
//! previous good file is kept as a `.bak` sibling:
//! [`Checkpoint::load_resilient`] falls back to it when the primary is
//! torn or corrupt, reporting the recovery instead of aborting.

use std::fmt;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use momsynth_ga::GaSnapshot;
use momsynth_model::System;
use momsynth_telemetry::Counters;

use crate::durable;
use crate::genome::{Gene, GenomeLayout};

/// The checkpoint format version this build writes.
///
/// Version 2 added the cumulative telemetry [`Counters`], so resumed
/// runs produce continuous traces. Version 3 added the contents of a
/// genome-keyed evaluation cache. Version 4 drops them again: the cache
/// is gone, and fitness is a pure function of the genome, so nothing a
/// resumed run computes depends on them.
pub const CHECKPOINT_VERSION: u32 = 4;

/// The oldest format version [`Checkpoint::load`] still reads. A
/// version 3 file differs from version 4 only in its `cache` key, which
/// loading ignores.
pub const OLDEST_READABLE_VERSION: u32 = 3;

/// A failure while saving, loading or validating a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Reading or writing the checkpoint file failed.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying I/O error message.
        reason: String,
    },
    /// The file is not a valid checkpoint document.
    Parse {
        /// The offending path.
        path: PathBuf,
        /// The underlying parse error message.
        reason: String,
    },
    /// The file uses a format version this build does not understand.
    Version {
        /// The version found in the file.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The checkpoint does not match the system or configuration it is
    /// being resumed onto.
    Mismatch {
        /// Human-readable description of the disagreement.
        reason: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, reason } => {
                write!(f, "checkpoint I/O error on `{}`: {reason}", path.display())
            }
            Self::Parse { path, reason } => {
                write!(f, "cannot parse checkpoint `{}`: {reason}", path.display())
            }
            Self::Version { found, supported } => write!(
                f,
                "checkpoint format version {found} is not supported \
                 (this build reads {OLDEST_READABLE_VERSION} to {supported})"
            ),
            Self::Mismatch { reason } => write!(f, "checkpoint does not match: {reason}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Frozen GA engine state plus a header tying it to one system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version: [`CHECKPOINT_VERSION`] when written by this
    /// build, as read from the file when loaded.
    pub version: u32,
    /// Name of the system the run optimises.
    pub system: String,
    /// Mode count of that system.
    pub modes: usize,
    /// Total task count across all modes.
    pub tasks: usize,
    /// Genome length (loci across all modes).
    pub genome_len: usize,
    /// GA seed of the run.
    pub seed: u64,
    /// Generations completed when the checkpoint was taken.
    pub generation: usize,
    /// Cost evaluations spent so far.
    pub evaluations: usize,
    /// Generations without improvement so far.
    pub stagnation: usize,
    /// Consecutive low-diversity generations so far.
    pub low_diversity_generations: usize,
    /// Best cost after each generation so far.
    pub history: Vec<f64>,
    /// Best genome seen so far.
    pub best_genome: Vec<Gene>,
    /// Cost of the best genome.
    pub best_cost: f64,
    /// The cost-sorted population as `(genome, cost)` pairs.
    pub population: Vec<(Vec<Gene>, f64)>,
    /// Cumulative telemetry counters at the time of capture, so a
    /// resumed run emits a trace continuous with the original.
    pub counters: Counters,
}

impl Checkpoint {
    /// Freezes an engine snapshot for `system` into a checkpoint.
    pub fn capture(
        system: &System,
        layout: &GenomeLayout,
        seed: u64,
        snapshot: &GaSnapshot<Gene>,
        counters: Counters,
    ) -> Self {
        Self {
            version: CHECKPOINT_VERSION,
            system: system.name().to_owned(),
            modes: system.omsm().mode_count(),
            tasks: system.omsm().total_task_count(),
            genome_len: layout.len(),
            seed,
            generation: snapshot.generation,
            evaluations: snapshot.evaluations,
            stagnation: snapshot.stagnation,
            low_diversity_generations: snapshot.low_diversity_generations,
            history: snapshot.history.clone(),
            best_genome: snapshot.best.0.clone(),
            best_cost: snapshot.best.1,
            population: snapshot.population.clone(),
            counters,
        }
    }

    /// The `.bak` sibling where [`Checkpoint::save`] keeps the previous
    /// good checkpoint.
    pub fn backup_path(path: &Path) -> PathBuf {
        durable::backup_path(path)
    }

    /// Writes the checkpoint as pretty JSON through [`durable::write`]:
    /// the rename never publishes unsynced bytes, and the previous good
    /// checkpoint is kept as the `.bak` sibling that
    /// [`Checkpoint::load_resilient`] falls back to.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if writing, syncing or renaming
    /// fails. A failure to keep the `.bak` link is not an error — the
    /// backup is best-effort (some filesystems lack hard links).
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let io = |reason: String| CheckpointError::Io { path: path.to_owned(), reason };
        let json = serde_json::to_string_pretty(self).map_err(|e| io(e.to_string()))?;
        durable::write(path, json.as_bytes()).map_err(|e| io(e.to_string()))?;
        Ok(())
    }

    /// Loads `path`, falling back to the `.bak` sibling kept by
    /// [`Checkpoint::save`] when the primary is unreadable, corrupt or of
    /// an unknown version.
    ///
    /// On fallback the second element describes what happened, suitable
    /// for a telemetry [`Warning`](momsynth_telemetry::Warning); it is
    /// `None` when the primary loaded cleanly.
    ///
    /// # Errors
    ///
    /// Returns the *primary* file's error when neither the primary nor
    /// the backup loads.
    pub fn load_resilient(path: &Path) -> Result<(Self, Option<String>), CheckpointError> {
        let (cp, primary_err) = durable::read(path, Self::load)?;
        let note = primary_err.map(|e| {
            format!(
                "checkpoint `{}` is unreadable ({e}); \
                 recovered previous good checkpoint `{}` at generation {}",
                path.display(),
                Self::backup_path(path).display(),
                cp.generation
            )
        });
        Ok((cp, note))
    }

    /// Reads and version-checks a checkpoint file. Keys this build does
    /// not know, such as a version 3 file's `cache`, are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the file cannot be read,
    /// [`CheckpointError::Parse`] if it is not a checkpoint document, and
    /// [`CheckpointError::Version`] for versions outside
    /// [`OLDEST_READABLE_VERSION`]`..=`[`CHECKPOINT_VERSION`].
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CheckpointError::Io { path: path.to_owned(), reason: e.to_string() })?;
        let checkpoint: Self = serde_json::from_str(&text)
            .map_err(|e| CheckpointError::Parse { path: path.to_owned(), reason: e.to_string() })?;
        if !(OLDEST_READABLE_VERSION..=CHECKPOINT_VERSION).contains(&checkpoint.version) {
            return Err(CheckpointError::Version {
                found: checkpoint.version,
                supported: CHECKPOINT_VERSION,
            });
        }
        Ok(checkpoint)
    }

    /// Cross-checks the checkpoint against the system and seed a resumed
    /// run will use, plus its own internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Mismatch`] describing the first
    /// disagreement found.
    pub fn validate(
        &self,
        system: &System,
        layout: &GenomeLayout,
        seed: u64,
    ) -> Result<(), CheckpointError> {
        let mismatch = |reason: String| Err(CheckpointError::Mismatch { reason });
        if self.system != system.name() {
            return mismatch(format!(
                "checkpoint is for system `{}`, loaded system is `{}`",
                self.system,
                system.name()
            ));
        }
        if self.modes != system.omsm().mode_count() {
            return mismatch(format!(
                "checkpoint has {} modes, system has {}",
                self.modes,
                system.omsm().mode_count()
            ));
        }
        if self.tasks != system.omsm().total_task_count() {
            return mismatch(format!(
                "checkpoint has {} tasks, system has {}",
                self.tasks,
                system.omsm().total_task_count()
            ));
        }
        if self.genome_len != layout.len() {
            return mismatch(format!(
                "checkpoint genome length {} does not match layout length {}",
                self.genome_len,
                layout.len()
            ));
        }
        if self.seed != seed {
            return mismatch(format!(
                "checkpoint was taken with seed {}, run uses seed {seed}",
                self.seed
            ));
        }
        if self.population.is_empty() {
            return mismatch("checkpoint population is empty".to_owned());
        }
        if self.best_genome.len() != self.genome_len
            || self.population.iter().any(|(g, _)| g.len() != self.genome_len)
        {
            return mismatch("checkpoint contains genomes of the wrong length".to_owned());
        }
        if self.history.len() != self.generation + 1 {
            return mismatch(format!(
                "checkpoint history has {} entries for generation {}",
                self.history.len(),
                self.generation
            ));
        }
        if self.counters.improve_applied.len() != momsynth_telemetry::OPERATOR_COUNT
            || self.counters.improve_accepted.len() != momsynth_telemetry::OPERATOR_COUNT
        {
            return mismatch("checkpoint operator counters have the wrong arity".to_owned());
        }
        Ok(())
    }

    /// Converts the checkpoint into the engine snapshot it froze.
    pub fn into_snapshot(self) -> GaSnapshot<Gene> {
        GaSnapshot {
            generation: self.generation,
            evaluations: self.evaluations,
            stagnation: self.stagnation,
            low_diversity_generations: self.low_diversity_generations,
            history: self.history,
            best: (self.best_genome, self.best_cost),
            population: self.population,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_gen::suite::{generate, GeneratorParams};

    fn small_system() -> System {
        let mut params = GeneratorParams::new("cp", 3);
        params.modes = 2;
        params.tasks_per_mode = (4, 6);
        generate(&params)
    }

    fn sample_snapshot(len: usize) -> GaSnapshot<Gene> {
        GaSnapshot {
            generation: 2,
            evaluations: 30,
            stagnation: 1,
            low_diversity_generations: 0,
            history: vec![9.0, 5.0, 4.5],
            best: (vec![0; len], 4.5),
            population: vec![(vec![0; len], 4.5), (vec![1; len], 6.0)],
        }
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("momsynth_checkpoint_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn save_load_round_trip_preserves_everything() {
        let system = small_system();
        let layout = GenomeLayout::new(&system);
        let cp = Checkpoint::capture(
            &system,
            &layout,
            42,
            &sample_snapshot(layout.len()),
            Counters::default(),
        );
        let path = tmp_path("round_trip.json");
        cp.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back, cp);
        back.validate(&system, &layout, 42).unwrap();
        assert_eq!(back.into_snapshot(), sample_snapshot(layout.len()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn huge_sentinel_costs_survive_the_json_round_trip() {
        let system = small_system();
        let layout = GenomeLayout::new(&system);
        let mut snapshot = sample_snapshot(layout.len());
        snapshot.population[1].1 = momsynth_ga::REJECTED_COST;
        let cp = Checkpoint::capture(&system, &layout, 0, &snapshot, Counters::default());
        let path = tmp_path("sentinel.json");
        cp.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.population[1].1, momsynth_ga::REJECTED_COST);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_missing_garbage_and_unknown_versions() {
        let missing = tmp_path("missing.json");
        assert!(matches!(Checkpoint::load(&missing), Err(CheckpointError::Io { .. })));

        let garbage = tmp_path("garbage.json");
        std::fs::write(&garbage, "not json").unwrap();
        assert!(matches!(Checkpoint::load(&garbage), Err(CheckpointError::Parse { .. })));
        std::fs::write(&garbage, "{\"unrelated\": 1}").unwrap();
        assert!(matches!(Checkpoint::load(&garbage), Err(CheckpointError::Parse { .. })));
        std::fs::remove_file(&garbage).ok();

        let system = small_system();
        let layout = GenomeLayout::new(&system);
        let mut cp = Checkpoint::capture(
            &system,
            &layout,
            0,
            &sample_snapshot(layout.len()),
            Counters::default(),
        );
        cp.version = CHECKPOINT_VERSION + 1;
        let future = tmp_path("future.json");
        cp.save(&future).unwrap();
        assert!(matches!(
            Checkpoint::load(&future),
            Err(CheckpointError::Version { found, supported })
                if found == CHECKPOINT_VERSION + 1 && supported == CHECKPOINT_VERSION
        ));
        cp.version = OLDEST_READABLE_VERSION - 1;
        cp.save(&future).unwrap();
        assert!(matches!(
            Checkpoint::load(&future),
            Err(CheckpointError::Version { found, .. }) if found == OLDEST_READABLE_VERSION - 1
        ));
        std::fs::remove_file(&future).ok();
    }

    #[test]
    fn load_resilient_recovers_a_truncated_checkpoint_from_the_backup() {
        let system = small_system();
        let layout = GenomeLayout::new(&system);
        let path = tmp_path("truncated.json");
        let bak = Checkpoint::backup_path(&path);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bak).ok();

        // Two consecutive saves: the second keeps the first as `.bak`.
        let mut snapshot = sample_snapshot(layout.len());
        let older = Checkpoint::capture(&system, &layout, 7, &snapshot, Counters::default());
        older.save(&path).unwrap();
        snapshot.generation = 3;
        snapshot.evaluations = 45;
        snapshot.history.push(4.0);
        let newer = Checkpoint::capture(&system, &layout, 7, &snapshot, Counters::default());
        newer.save(&path).unwrap();
        assert!(bak.exists(), "save must keep the previous good checkpoint");

        // A clean primary loads without a warning.
        let (cp, note) = Checkpoint::load_resilient(&path).unwrap();
        assert_eq!(cp, newer);
        assert!(note.is_none());

        // Tear the primary (external truncation fixture): the resilient
        // loader falls back to the previous good checkpoint and says so.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let (cp, note) = Checkpoint::load_resilient(&path).unwrap();
        assert_eq!(cp, older, "fallback must be the previous good checkpoint");
        let note = note.expect("recovery must be reported");
        assert!(note.contains("recovered"), "{note}");

        // Both torn: the primary's error surfaces.
        std::fs::write(&bak, "{").unwrap();
        assert!(matches!(Checkpoint::load_resilient(&path), Err(CheckpointError::Parse { .. })));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bak).ok();
    }

    #[test]
    fn save_survives_a_missing_backup_target() {
        // First-ever save has no previous checkpoint to back up.
        let system = small_system();
        let layout = GenomeLayout::new(&system);
        let path = tmp_path("first_save.json");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(Checkpoint::backup_path(&path)).ok();
        let cp = Checkpoint::capture(
            &system,
            &layout,
            1,
            &sample_snapshot(layout.len()),
            Counters::default(),
        );
        cp.save(&path).unwrap();
        assert!(!Checkpoint::backup_path(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_rejects_wrong_system_seed_and_shapes() {
        let system = small_system();
        let layout = GenomeLayout::new(&system);
        let cp = Checkpoint::capture(
            &system,
            &layout,
            5,
            &sample_snapshot(layout.len()),
            Counters::default(),
        );

        let mut other_params = GeneratorParams::new("other", 4);
        other_params.modes = 3;
        let other = generate(&other_params);
        let other_layout = GenomeLayout::new(&other);
        assert!(matches!(
            cp.validate(&other, &other_layout, 5),
            Err(CheckpointError::Mismatch { .. })
        ));
        assert!(matches!(cp.validate(&system, &layout, 6), Err(CheckpointError::Mismatch { .. })));

        let mut broken = cp.clone();
        broken.population.clear();
        assert!(broken.validate(&system, &layout, 5).is_err());
        let mut broken = cp.clone();
        broken.best_genome.pop();
        assert!(broken.validate(&system, &layout, 5).is_err());
        let mut broken = cp.clone();
        broken.history.pop();
        assert!(broken.validate(&system, &layout, 5).is_err());

        cp.validate(&system, &layout, 5).unwrap();
    }
}
