//! The crash-safe job journal: one directory tree holding everything a
//! restarted server needs to account for every job it ever accepted.
//!
//! ```text
//! <root>/
//!   jobs/<id>.json         lifecycle record, rewritten atomically on
//!                          every transition (fsync + rename, previous
//!                          good record kept as `.bak`)
//!   specs/<id>.json        the submitted spec, written once
//!   checkpoints/<id>.json  Checkpoint v4 of the in-flight run
//!   traces/<id>.jsonl      telemetry trace, appended across attempts
//!   results/<id>.json      final solution report of a verified job
//!   metrics/<id>.json      metrics snapshot taken when the job went
//!                          terminal; metrics/server.json is the
//!                          periodic whole-server snapshot
//! ```
//!
//! Records are the source of truth for recovery: a torn primary falls
//! back to its `.bak` sibling, so a crash mid-write (or external
//! corruption) never loses a job's lifecycle.
//!
//! They are also the server's only copy of a finished job. The server
//! keeps a job in memory while it is in flight; once its terminal record
//! (with the job's last progress) is written here, it leaves memory, and
//! `status`, `list`, `cancel`, `wait` and `result` read it back through
//! [`Journal::load_record`], [`Journal::load_all`] and
//! [`Journal::load_result`]. A caller's id reaches a path only through
//! those loaders, which accept nothing but the form the server mints
//! (`job-` and ASCII digits), so no id names a file outside the journal.

use std::path::{Path, PathBuf};
use std::time::Instant;

use momsynth_core::durable;
use momsynth_metrics::{Histogram, MetricsSnapshot};

use crate::job::{is_job_id, JobRecord, JobSpec};

/// A failure while reading or writing the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalError {
    /// The offending path.
    pub path: PathBuf,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "journal error on `{}`: {}", self.path.display(), self.reason)
    }
}

impl std::error::Error for JournalError {}

/// Latency instruments for durable writes. Defaults to disabled
/// handles, so an un-instrumented journal pays only a branch per write.
#[derive(Debug, Clone, Default)]
pub struct JournalTimers {
    /// Whole durable-write latency (tmp + fsync + backup + rename).
    pub write: Histogram,
    /// The fsync portion alone.
    pub fsync: Histogram,
}

/// Handle to a journal directory tree. Cloneable and thread-safe: all
/// state lives on disk, and every write is atomic.
#[derive(Debug, Clone)]
pub struct Journal {
    root: PathBuf,
    timers: JournalTimers,
}

/// Reads and parses `path` through [`durable::read`], falling back to
/// the `.bak` sibling when the primary is missing, torn or corrupt.
/// Returns the value and whether the fallback was used.
fn read_resilient<T: serde::de::DeserializeOwned>(path: &Path) -> Result<(T, bool), JournalError> {
    let parse = |p: &Path| -> Result<T, String> {
        let text = std::fs::read_to_string(p).map_err(|e| e.to_string())?;
        serde_json::from_str(&text).map_err(|e| e.to_string())
    };
    durable::read(path, parse)
        .map(|(value, primary_err)| (value, primary_err.is_some()))
        .map_err(|reason| JournalError { path: path.to_owned(), reason })
}

impl Journal {
    /// Opens (creating if needed) the journal tree rooted at `root`.
    ///
    /// # Errors
    ///
    /// Fails when the directories cannot be created.
    pub fn open(root: &Path) -> Result<Self, JournalError> {
        for sub in ["jobs", "specs", "checkpoints", "traces", "results", "metrics"] {
            let dir = root.join(sub);
            std::fs::create_dir_all(&dir)
                .map_err(|e| JournalError { path: dir.clone(), reason: e.to_string() })?;
        }
        Ok(Self { root: root.to_owned(), timers: JournalTimers::default() })
    }

    /// Attaches latency instruments to every subsequent durable write.
    pub fn set_timers(&mut self, timers: JournalTimers) {
        self.timers = timers;
    }

    /// The journal's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of a job's lifecycle record.
    pub fn record_path(&self, id: &str) -> PathBuf {
        self.root.join("jobs").join(format!("{id}.json"))
    }

    /// Path of a job's submitted spec.
    pub fn spec_path(&self, id: &str) -> PathBuf {
        self.root.join("specs").join(format!("{id}.json"))
    }

    /// Path of a job's synthesis checkpoint.
    pub fn checkpoint_path(&self, id: &str) -> PathBuf {
        self.root.join("checkpoints").join(format!("{id}.json"))
    }

    /// Path of a job's telemetry trace (JSONL, appended across attempts).
    pub fn trace_path(&self, id: &str) -> PathBuf {
        self.root.join("traces").join(format!("{id}.jsonl"))
    }

    /// Path of a verified job's solution report.
    pub fn result_path(&self, id: &str) -> PathBuf {
        self.root.join("results").join(format!("{id}.json"))
    }

    /// Path of the metrics snapshot taken when job `id` went terminal.
    pub fn metrics_path(&self, id: &str) -> PathBuf {
        self.root.join("metrics").join(format!("{id}.json"))
    }

    /// Path of the periodically refreshed whole-server metrics snapshot.
    pub fn server_metrics_path(&self) -> PathBuf {
        self.root.join("metrics").join("server.json")
    }

    /// Durably writes a job's lifecycle record.
    ///
    /// # Errors
    ///
    /// Propagates write failures; callers decide whether a failed
    /// journal write is transient.
    pub fn write_record(&self, record: &JobRecord) -> Result<(), JournalError> {
        self.write_json(&self.record_path(&record.id), record)
    }

    /// Durably writes a job's spec (once, at submission).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_spec(&self, id: &str, spec: &JobSpec) -> Result<(), JournalError> {
        self.write_json(&self.spec_path(id), spec)
    }

    /// Durably writes a verified job's solution report.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_result(&self, id: &str, report: &serde_json::Value) -> Result<(), JournalError> {
        self.write_json(&self.result_path(id), report)
    }

    /// Durably writes a metrics snapshot to `path` (a job's terminal
    /// snapshot or the periodic server snapshot).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_metrics(
        &self,
        path: &Path,
        snapshot: &MetricsSnapshot,
    ) -> Result<(), JournalError> {
        self.write_json(path, snapshot)
    }

    /// Serialises `value` as pretty JSON and writes it to `path` through
    /// [`durable::write`]. The timers observe the whole write and its
    /// fsync portion (no-ops when metrics are disabled).
    fn write_json<T: serde::Serialize>(&self, path: &Path, value: &T) -> Result<(), JournalError> {
        let err = |reason: String| JournalError { path: path.to_owned(), reason };
        let json = serde_json::to_string_pretty(value).map_err(|e| err(e.to_string()))?;
        let started = Instant::now();
        let fsync = durable::write(path, json.as_bytes()).map_err(|e| err(e.to_string()))?;
        self.timers.fsync.observe(fsync.as_secs_f64());
        self.timers.write.observe(started.elapsed().as_secs_f64());
        Ok(())
    }

    /// Loads a job's spec, tolerating a torn primary.
    ///
    /// # Errors
    ///
    /// Fails when neither the primary nor the backup parses.
    pub fn load_spec(&self, id: &str) -> Result<JobSpec, JournalError> {
        read_resilient(&self.spec_path(id)).map(|(spec, _)| spec)
    }

    /// Loads a verified job's solution report, if present. `None` too for
    /// an id the server cannot have minted (see [`Journal::load_record`]).
    pub fn load_result(&self, id: &str) -> Option<serde_json::Value> {
        self.load_by_id(id, Self::result_path)
    }

    /// Loads job `id`'s lifecycle record, tolerating a torn primary.
    /// `None` when there is no readable record, and for any id that is
    /// not `job-` followed by ASCII digits, whose path could lie outside
    /// the journal.
    pub fn load_record(&self, id: &str) -> Option<JobRecord> {
        self.load_by_id(id, Self::record_path)
    }

    /// Reads the file `path` names for a caller's `id`, checking the id
    /// before any path is built from it: an absolute id would replace the
    /// root, and a `/` or `..` would climb out of it.
    fn load_by_id<T: serde::de::DeserializeOwned>(
        &self,
        id: &str,
        path: fn(&Self, &str) -> PathBuf,
    ) -> Option<T> {
        if !is_job_id(id) {
            return None;
        }
        read_resilient(&path(self, id)).ok().map(|(value, _)| value)
    }

    /// Scans the journal and returns every job record, with a list of
    /// recovery notes (records read from a `.bak`, unreadable files).
    /// Unreadable records are reported, never silently dropped on the
    /// floor — but they cannot be resumed.
    pub fn load_all(&self) -> (Vec<JobRecord>, Vec<String>) {
        let mut records = Vec::new();
        let mut notes = Vec::new();
        let dir = self.root.join("jobs");
        let entries = match std::fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) => {
                notes.push(format!("cannot scan `{}`: {e}", dir.display()));
                return (records, notes);
            }
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            if !name.ends_with(".json") || name.ends_with(".tmp") {
                continue;
            }
            match read_resilient::<JobRecord>(&path) {
                Ok((record, false)) => records.push(record),
                Ok((record, true)) => {
                    notes.push(format!(
                        "record `{}` was torn; recovered from backup at state `{}`",
                        path.display(),
                        record.state
                    ));
                    records.push(record);
                }
                Err(e) => notes.push(format!("unreadable job record: {e}")),
            }
        }
        records.sort_by_key(|r| r.seq);
        (records, notes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobState;

    fn tmp_root(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("momsynth_journal_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    #[test]
    fn records_survive_a_torn_primary() {
        let root = tmp_root("torn");
        let journal = Journal::open(&root).unwrap();
        let mut record = JobRecord::new("job-000001".into(), 1, 3);
        journal.write_record(&record).unwrap();
        record.transition(JobState::Running, "attempt 1");
        journal.write_record(&record).unwrap();

        // Tear the primary: load_all falls back to the previous good
        // record and reports the recovery.
        let path = journal.record_path("job-000001");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 3]).unwrap();
        let (records, notes) = journal.load_all();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].state, JobState::Queued, "backup is the previous state");
        assert_eq!(notes.len(), 1);
        assert!(notes[0].contains("recovered"), "{}", notes[0]);
        std::fs::remove_dir_all(&root).ok();
    }

    /// A verified record as builds before the trace spans became the only
    /// timing record wrote it: its summary still carries `phases`.
    const RECORD_WITH_SUMMARY_PHASES: &str = r#"{"id": "job-000004", "seq": 4,
        "priority": 0, "trace_id": "job-000004-1a14d8f6f09",
        "submitted_unix_ms": 1792302608137, "state": "Verified", "attempts": 1,
        "transitions": ["queued", "analyzing: attempt 1", "running", "verified"],
        "error": null, "summary": {"system": "smartphone",
        "probability_aware": true, "dvs": true, "seed": 1,
        "average_power_mw": 5.271838093516587, "feasible": true,
        "modes": [{"mode": "gsm_rlc", "probability": 0.09,
        "dynamic_mw": 13.351808397879337, "static_mw": 2.1,
        "total_mw": 15.451808397879336}],
        "stop_reason": "generation limit reached", "generations": 40,
        "evaluations": 961, "rejected": 0, "wall_time_s": 0.382194915,
        "evals_per_sec": 2514.42382481724, "threads": 1,
        "power_lower_bound_mw": 1.3473882596323967,
        "optimality_gap": 2.9126347256097396, "counters": {"rejected": 0,
        "timing_violations": 0, "area_violations": 339,
        "transition_violations": 0, "dvs_iterations": 94243, "cache_hits": 0,
        "cache_misses": 740, "evaluated": 740, "improve_applied": [11, 17, 11, 11],
        "improve_accepted": [11, 17, 11, 0]}, "phases": [
        {"phase": "FitnessEval", "nanos": 341510425, "spans": 962, "depth": 0},
        {"phase": "CoreAllocation", "nanos": 24592253, "spans": 962, "depth": 1},
        {"phase": "ListScheduling", "nanos": 63791946, "spans": 6156, "depth": 1},
        {"phase": "VoltageScaling", "nanos": 233140092, "spans": 6156, "depth": 1},
        {"phase": "PowerPricing", "nanos": 16072861, "spans": 962, "depth": 1}]}}"#;

    #[test]
    fn load_all_returns_records_in_submission_order() {
        let root = tmp_root("order");
        let journal = Journal::open(&root).unwrap();
        for seq in [3u64, 1, 2] {
            let record = JobRecord::new(format!("job-{seq:06}"), seq, 0);
            journal.write_record(&record).unwrap();
        }
        std::fs::write(journal.record_path("job-000004"), RECORD_WITH_SUMMARY_PHASES).unwrap();
        let (records, notes) = journal.load_all();
        assert!(notes.is_empty(), "{notes:?}");
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4]);
        let summary = records[3].summary.as_ref().expect("a verified record keeps its summary");
        assert_eq!((summary.generations, summary.evaluations), (40, 961));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn only_minted_ids_name_journal_files() {
        use crate::job::job_id;
        for id in [job_id(1), job_id(u64::MAX), "job-1".into(), "job-00000000000000000000".into()] {
            assert!(is_job_id(&id), "{id}");
        }
        for id in [
            "",
            "job-",
            "job-000001.json",
            "job-00000000000000000000 0",
            "job-000000000000000000000",
            "job-1/../../x",
            "job-\u{661}",
            "/tmp/job-000001",
            "../job-000001",
            "JOB-000001",
        ] {
            assert!(!is_job_id(id), "{id}");
        }
        let root = tmp_root("ids");
        let journal = Journal::open(&root).unwrap();
        let record = JobRecord::new("job-000001".into(), 1, 0);
        journal.write_record(&record).unwrap();
        assert_eq!(journal.load_record("job-000001"), Some(record));
        assert_eq!(journal.load_record("../jobs/job-000001"), None);
        assert_eq!(journal.load_result("../jobs/job-000001"), None);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn unreadable_records_are_reported_not_dropped_silently() {
        let root = tmp_root("garbage");
        let journal = Journal::open(&root).unwrap();
        std::fs::write(journal.record_path("job-000009"), "not json").unwrap();
        let (records, notes) = journal.load_all();
        assert!(records.is_empty());
        assert_eq!(notes.len(), 1);
        assert!(notes[0].contains("unreadable"), "{}", notes[0]);
        std::fs::remove_dir_all(&root).ok();
    }
}
