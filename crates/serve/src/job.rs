//! Job model: submission specs, lifecycle states and journal records.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use momsynth_core::SynthesisConfig;
use momsynth_model::System;
use momsynth_telemetry::RunSummary;

/// A synthesis request as submitted by a client. Everything but the
/// system spec is optional and defaults to the field type's zero value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The system specification to synthesise (the same JSON document
    /// `momsynth run` loads from a file).
    pub system: System,
    /// Scheduling priority: higher runs first, and when the submission
    /// queue is full a higher-priority job sheds the lowest-priority
    /// queued one. Defaults to 0 (lowest).
    #[serde(default)]
    pub priority: u8,
    /// GA seed (defaults to 0).
    #[serde(default)]
    pub seed: u64,
    /// Use the small/fast preset instead of the full configuration.
    #[serde(default)]
    pub quick: bool,
    /// Enable voltage scaling.
    #[serde(default)]
    pub dvs: bool,
    /// Run the probability-neglecting baseline flow.
    #[serde(default)]
    pub neglect: bool,
    /// Worker threads for batch fitness evaluation. 0 is automatic: the
    /// server divides the host's cores among its workers (at least 1
    /// each), so concurrent jobs do not oversubscribe the host.
    #[serde(default)]
    pub threads: usize,
    /// Optimisation wall-clock budget in seconds (the run stops
    /// gracefully with its best-so-far when exceeded).
    #[serde(default)]
    pub max_seconds: Option<f64>,
    /// Optimisation evaluation budget.
    #[serde(default)]
    pub max_evaluations: Option<usize>,
    /// Hard wall-clock timeout for one attempt of this job: the server
    /// cancels the run and marks the job `TimedOut` when exceeded.
    #[serde(default)]
    pub timeout_seconds: Option<f64>,
}

impl JobSpec {
    /// A minimal spec for `system` with all defaults.
    pub fn new(system: System) -> Self {
        Self {
            system,
            priority: 0,
            seed: 0,
            quick: false,
            dvs: false,
            neglect: false,
            threads: 0,
            max_seconds: None,
            max_evaluations: None,
            timeout_seconds: None,
        }
    }

    /// Checks the spec's time budgets: `max_seconds` and
    /// `timeout_seconds` must each be a non-negative, finite number of
    /// seconds that fits the clock.
    ///
    /// # Errors
    ///
    /// Names the first out-of-range budget and its value.
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (name, value) in
            [("max_seconds", self.max_seconds), ("timeout_seconds", self.timeout_seconds)]
        {
            if let Some(seconds) = value.filter(|&s| deadline_after(s).is_none()) {
                return Err(format!(
                    "invalid job spec: `{name}` must be a non-negative, finite number of \
                     seconds (got {seconds})"
                ));
            }
        }
        Ok(())
    }

    /// The [`SynthesisConfig`] this spec describes.
    pub fn config(&self) -> SynthesisConfig {
        let mut cfg = if self.quick {
            SynthesisConfig::fast_preset(self.seed)
        } else {
            SynthesisConfig::new(self.seed)
        };
        cfg.probability_aware = !self.neglect;
        if self.dvs {
            cfg = cfg.with_dvs();
        }
        cfg.threads = self.threads;
        cfg.ga.max_seconds = self.max_seconds;
        cfg.ga.max_evaluations = self.max_evaluations;
        cfg
    }
}

/// The id of the job with sequence number `seq`: `job-` and the number,
/// zero-padded to six digits.
pub(crate) fn job_id(seq: u64) -> String {
    format!("job-{seq:06}")
}

/// Whether `id` has the form [`job_id`] mints: `job-` followed by 1 to 20
/// ASCII digits (a `u64`). Only such an id names a journal file.
pub(crate) fn is_job_id(id: &str) -> bool {
    id.strip_prefix("job-").is_some_and(|digits| {
        (1..=20).contains(&digits.len()) && digits.bytes().all(|b| b.is_ascii_digit())
    })
}

/// The instant `seconds` from now, or `None` when `seconds` is negative,
/// not finite or beyond the clock's range.
pub(crate) fn deadline_after(seconds: f64) -> Option<Instant> {
    Duration::try_from_secs_f64(seconds).ok().and_then(|d| Instant::now().checked_add(d))
}

/// Lifecycle state of a job. The journal records every transition, so
/// after a crash each job is in a well-defined state:
///
/// ```text
/// Queued ──► Analyzing ──► Running ──► Verified
///   │   ▲                  │  │ │
///   │   └──────────────────┘  │ └────► Failed / TimedOut
///   │      (transient retry,  │
///   │       crash recovery)   └──────► Cancelled
///   └────► Shed / Cancelled
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Accepted and waiting for a worker slot (also the state a
    /// transient failure returns to while awaiting its retry).
    Queued,
    /// A worker is validating the spec and preparing the run.
    Analyzing,
    /// The synthesis loop is executing (checkpointed periodically).
    Running,
    /// Terminal: the run completed, the solution is feasible and the
    /// independent verifier accepted it.
    Verified,
    /// Terminal: permanent failure (provably infeasible spec,
    /// unschedulable result, verification breach, retries exhausted).
    Failed,
    /// Terminal: cancelled by a client.
    Cancelled,
    /// Terminal: the per-attempt wall-clock timeout expired.
    TimedOut,
    /// Terminal: evicted from a full queue by a higher-priority
    /// submission (graceful degradation).
    Shed,
}

impl JobState {
    /// Whether the state is terminal (the job will never run again).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            Self::Verified | Self::Failed | Self::Cancelled | Self::TimedOut | Self::Shed
        )
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::Queued => "queued",
            Self::Analyzing => "analyzing",
            Self::Running => "running",
            Self::Verified => "verified",
            Self::Failed => "failed",
            Self::Cancelled => "cancelled",
            Self::TimedOut => "timed-out",
            Self::Shed => "shed",
        };
        f.write_str(s)
    }
}

/// The durable journal record of one job: everything needed to resume
/// or account for it after a crash. Written atomically on every state
/// transition. Live progress stays out until the job goes terminal, when
/// its last value is journalled with the terminal record; retry
/// deadlines never go in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Stable job identifier (`job-<seq>`).
    pub id: String,
    /// Monotonic submission sequence number (FIFO tie-breaker).
    pub seq: u64,
    /// Scheduling priority copied from the spec.
    pub priority: u8,
    /// Trace/span correlation id minted at submission and threaded
    /// through the synthesis run, its telemetry trace and the journal
    /// (empty for records written before tracing existed).
    #[serde(default)]
    pub trace_id: String,
    /// Submission wall-clock time in Unix milliseconds (0 for records
    /// written before tracing existed).
    #[serde(default)]
    pub submitted_unix_ms: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// Attempts started so far (1 on the first run).
    pub attempts: u32,
    /// Audit trail of transitions, oldest first (state plus cause).
    #[serde(default)]
    pub transitions: Vec<String>,
    /// Terminal error description, if the job failed.
    #[serde(default)]
    pub error: Option<String>,
    /// End-of-run metrics, present once the job is `Verified`.
    #[serde(default)]
    pub summary: Option<RunSummary>,
    /// The job's last progress, filled by the terminal transition (`None`
    /// before it, for a job that never completed a generation, and in
    /// records written before progress was journalled).
    #[serde(default)]
    pub progress: Option<JobProgress>,
}

/// Current wall-clock time in Unix milliseconds (0 on a pre-1970
/// clock).
pub(crate) fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .ok()
        .and_then(|d| u64::try_from(d.as_millis()).ok())
        .unwrap_or(0)
}

impl JobRecord {
    /// A fresh `Queued` record for a new submission, stamped with the
    /// submission time and a journal-unique trace id.
    pub fn new(id: String, seq: u64, priority: u8) -> Self {
        let submitted_unix_ms = unix_ms();
        let trace_id = format!("{id}-{submitted_unix_ms:x}");
        Self {
            id,
            seq,
            priority,
            trace_id,
            submitted_unix_ms,
            state: JobState::Queued,
            attempts: 0,
            transitions: vec!["queued".to_owned()],
            error: None,
            summary: None,
            progress: None,
        }
    }

    /// Seconds since this job was submitted, when the submission time
    /// is known (`None` for pre-tracing records).
    pub fn age_s(&self) -> Option<f64> {
        if self.submitted_unix_ms == 0 {
            return None;
        }
        let elapsed_ms = unix_ms().saturating_sub(self.submitted_unix_ms);
        #[allow(clippy::cast_precision_loss)]
        Some(elapsed_ms as f64 / 1000.0)
    }

    /// Applies a state transition, appending `note` to the audit trail.
    pub fn transition(&mut self, state: JobState, note: &str) {
        self.state = state;
        self.transitions.push(if note.is_empty() {
            state.to_string()
        } else {
            format!("{state}: {note}")
        });
    }
}

/// Progress of a job, fed by the telemetry stream. A running job's
/// progress lives in the server's memory (the checkpoint is the durable
/// copy of the run itself); the terminal transition journals its last
/// value in [`JobRecord::progress`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct JobProgress {
    /// Last completed generation.
    pub generation: u64,
    /// Cumulative cost evaluations.
    pub evaluations: u64,
    /// Best cost so far.
    pub best: f64,
    /// Live evaluation throughput in evaluations per second.
    pub evals_per_sec: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_states_are_exactly_the_five_end_states() {
        for state in [JobState::Queued, JobState::Analyzing, JobState::Running] {
            assert!(!state.is_terminal(), "{state}");
        }
        for state in [
            JobState::Verified,
            JobState::Failed,
            JobState::Cancelled,
            JobState::TimedOut,
            JobState::Shed,
        ] {
            assert!(state.is_terminal(), "{state}");
        }
    }

    #[test]
    fn records_round_trip_and_keep_an_audit_trail() {
        let mut record = JobRecord::new("job-000001".into(), 1, 7);
        record.transition(JobState::Analyzing, "");
        record.transition(JobState::Running, "attempt 1");
        record.transition(JobState::Verified, "");
        let json = serde_json::to_string(&record).unwrap();
        let back: JobRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, record);
        assert_eq!(back.transitions.len(), 4);
        assert!(back.state.is_terminal());
    }

    #[test]
    fn new_records_carry_a_trace_id_and_submission_time() {
        let record = JobRecord::new("job-000042".into(), 42, 0);
        assert!(record.trace_id.starts_with("job-000042-"), "{}", record.trace_id);
        assert!(record.submitted_unix_ms > 0);
        let age = record.age_s().expect("fresh records know their age");
        assert!((0.0..60.0).contains(&age), "{age}");
    }

    #[test]
    fn pre_tracing_records_parse_with_empty_trace_context() {
        let json = r#"{
            "id": "job-000001", "seq": 1, "priority": 0,
            "state": "Queued", "attempts": 0
        }"#;
        let record: JobRecord = serde_json::from_str(json).unwrap();
        assert_eq!(record.trace_id, "");
        assert_eq!(record.submitted_unix_ms, 0);
        assert_eq!(record.age_s(), None, "unknown submission time has no age");
    }

    #[test]
    fn specs_parse_with_defaults_for_everything_but_the_system() {
        let mut params = momsynth_gen::suite::GeneratorParams::new("spec", 1);
        params.modes = 2;
        params.tasks_per_mode = (3, 4);
        let system = momsynth_gen::suite::generate(&params);
        let json = format!("{{\"system\": {}}}", serde_json::to_string(&system).unwrap());
        let spec: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec.priority, 0);
        assert_eq!(spec.seed, 0);
        assert!(!spec.quick);
        assert!(spec.timeout_seconds.is_none());
        let cfg = spec.config();
        assert!(cfg.probability_aware);
        assert!(cfg.dvs.is_none());
    }
}
