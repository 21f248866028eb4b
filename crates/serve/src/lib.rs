//! Synthesis-as-a-service: a crash-safe resident job server for
//! multi-mode co-synthesis.
//!
//! The server accepts system specifications as jobs, runs them through
//! [`momsynth_core::Synthesizer`] on a bounded worker pool, and makes
//! every accepted job's fate durable:
//!
//! * **Durable journal** — every lifecycle transition is written with an
//!   fsync + atomic-rename protocol ([`Journal`]); a SIGKILL at any
//!   point leaves each job either in a terminal state or resumable.
//! * **Crash recovery** — on restart, non-terminal jobs are re-enqueued
//!   and resume from their periodic [`momsynth_core::Checkpoint`], so an
//!   interrupted run continues as an exact trajectory tail (the same
//!   guarantee `momsynth run --resume` gives, applied automatically).
//! * **Back-pressure** — the submission queue is bounded; when it is
//!   full of equal-or-higher-priority work, submissions are rejected
//!   with a typed retry-after hint instead of queuing without bound.
//! * **Graceful degradation** — a higher-priority submission to a full
//!   queue sheds the lowest-priority queued job (recorded as
//!   [`JobState::Shed`]) rather than failing the important work.
//! * **Retry policy** — transient failures (worker panics, checkpoint
//!   I/O) retry with exponential backoff; permanent ones (provably
//!   infeasible specs, verification breaches) fail fast.
//! * **Graceful shutdown** — SIGTERM/Ctrl-C checkpoints every running
//!   job and leaves it `Running` in the journal for the next start.
//!
//! * **Observability** — every scheduler, journal and synthesis
//!   instrument lives in one [`momsynth_metrics::Registry`]
//!   ([`ServeMetrics`]): queue depth, admissions/sheds/rejections,
//!   worker utilisation, journal write + fsync and recovery-scan
//!   latencies, and per-terminal-state job lifecycle latencies.
//!   Snapshots are served over the protocol (`metrics`), exposed in
//!   Prometheus text format ([`spawn_exposition`]), and journaled —
//!   per job at its terminal transition and periodically for the whole
//!   server. Each job carries a trace id threaded from submission
//!   through the GA's span events to its journal record.
//!
//! Clients speak a line-delimited JSON protocol ([`protocol`]) over a
//! Unix-domain socket or stdin/stdout ([`socket`]); live telemetry
//! streams to subscribers as job-tagged events.

pub mod gate;
pub mod job;
pub mod journal;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod sink;
pub mod socket;

pub use gate::WorkGate;
pub use job::{JobProgress, JobRecord, JobSpec, JobState};
pub use journal::{Journal, JournalError, JournalTimers};
pub use metrics::{spawn_exposition, ServeMetrics};
pub use queue::{PendingQueue, PushOutcome, QueueEntry};
pub use server::{JobStatus, Server, ServerConfig, SubmitRejection};
pub use sink::SubscriberHub;
