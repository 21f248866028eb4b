//! The resident job server: worker pool, scheduling state, watchdog,
//! crash recovery and graceful shutdown.

use momsynth_sync::sync::atomic::{AtomicBool, Ordering};
use momsynth_sync::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use momsynth_core::{
    invariant_breach, Checkpoint, CheckpointSpec, StopReason, SynthControl, SynthesisError,
    Synthesizer,
};
use momsynth_metrics::{MetricsSink, MetricsSnapshot, Registry};
use momsynth_telemetry::{Event, Fanout, JsonlSink, RunSummary, Sink, Warning};

use crate::gate::WorkGate;
use crate::job::{deadline_after, JobProgress, JobRecord, JobSpec, JobState};
use crate::journal::{Journal, JournalTimers};
use crate::metrics::ServeMetrics;
use crate::queue::{PendingQueue, PushOutcome, QueueEntry};
use crate::sink::{ServeSink, SubscriberHub};

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Journal directory (created if missing).
    pub root: PathBuf,
    /// Worker slots running synthesis jobs concurrently (min 1).
    pub workers: usize,
    /// Bound of the submission queue; beyond it, back-pressure applies.
    pub queue_capacity: usize,
    /// Checkpoint a running job every this many generations.
    pub checkpoint_every: usize,
    /// Additionally checkpoint when this much wall-clock time passed
    /// since the last save (bounds the crash-recovery window).
    pub checkpoint_every_seconds: Option<f64>,
    /// Retries after a transient failure before the job fails for good.
    pub max_retries: u32,
    /// Base of the exponential retry backoff, in seconds (attempt `n`
    /// waits `base * 2^(n-1)`).
    pub retry_backoff_s: f64,
    /// Whether the in-process metrics registry is enabled. Disabled,
    /// every instrument is a no-op handle and the server does no
    /// metrics work at all.
    pub metrics: bool,
}

impl ServerConfig {
    /// Defaults rooted at `root`: 2 workers, queue of 16, checkpoint
    /// every 5 generations or 2 seconds, 2 retries with 1 s base backoff.
    pub fn new(root: PathBuf) -> Self {
        Self {
            root,
            workers: 2,
            queue_capacity: 16,
            checkpoint_every: 5,
            checkpoint_every_seconds: Some(2.0),
            max_retries: 2,
            retry_backoff_s: 1.0,
            metrics: true,
        }
    }
}

/// Why a submission was not accepted. Typed back-pressure: the client
/// should retry after `retry_after_s` seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRejection {
    /// Suggested client back-off in seconds; `None` when the spec itself
    /// is invalid, so resubmitting it unchanged cannot succeed.
    pub retry_after_s: Option<f64>,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for SubmitRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.retry_after_s {
            Some(s) => write!(f, "{} (retry after {s:.1} s)", self.reason),
            None => f.write_str(&self.reason),
        }
    }
}

impl std::error::Error for SubmitRejection {}

/// A job's externally visible state: the journal record plus live
/// progress when the job is (or was) running.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// The lifecycle record.
    pub record: JobRecord,
    /// Latest per-generation progress, if any generation completed.
    pub progress: Option<JobProgress>,
}

/// Why a job's stop flag was raised (the GA only reports `Cancelled`,
/// so the server remembers which actor asked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StopCause {
    Cancel,
    Timeout,
    Shutdown,
}

/// Book-keeping for a job currently owned by a worker.
#[derive(Debug)]
struct RunningHandle {
    stop: Arc<AtomicBool>,
    cause: Option<StopCause>,
    deadline: Option<Instant>,
}

/// Mutable scheduling state, guarded by one mutex.
#[derive(Debug)]
struct Sched {
    pending: PendingQueue,
    jobs: HashMap<String, JobRecord>,
    progress: HashMap<String, Arc<Mutex<Option<JobProgress>>>>,
    running: HashMap<String, RunningHandle>,
    next_seq: u64,
}

/// State shared between the public handle, workers and the watchdog.
#[derive(Debug)]
struct Shared {
    config: ServerConfig,
    journal: Journal,
    /// Scheduler state + work announcement + shutdown latch. The
    /// admission/shed protocol on this gate is loom-checked in
    /// `tests/loom_queue.rs`.
    gate: WorkGate<Sched>,
    hub: Arc<SubscriberHub>,
    recovery_notes: Vec<String>,
    metrics: ServeMetrics,
}

impl Shared {
    /// Applies and persists a state transition. Journal-write failures
    /// are reported on stderr but never block the state machine — the
    /// in-memory state stays authoritative until the next successful
    /// write.
    ///
    /// This is the single site where jobs go terminal, so terminal
    /// bookkeeping (per-state counters, lifecycle latency, the per-job
    /// metrics snapshot) lives here and fires exactly once per job.
    fn transition(&self, sched: &mut Sched, id: &str, state: JobState, note: &str) {
        if let Some(record) = sched.jobs.get_mut(id) {
            record.transition(state, note);
            let snapshot = record.clone();
            if let Err(e) = self.journal.write_record(&snapshot) {
                eprintln!("warning: {e}");
            }
            if state.is_terminal() {
                self.metrics.job_terminal(state, snapshot.age_s());
                if self.metrics.registry().is_enabled() {
                    let metrics_snapshot = self.metrics.snapshot();
                    let path = self.journal.metrics_path(id);
                    if let Err(e) = self.journal.write_metrics(&path, &metrics_snapshot) {
                        eprintln!("warning: {e}");
                    }
                }
            }
        }
    }

    /// Mirrors the pending-queue length into its gauge.
    fn note_queue_depth(&self, sched: &Sched) {
        self.metrics.queue_depth.set(i64::try_from(sched.pending.len()).unwrap_or(i64::MAX));
    }
}

/// The resident job server. Dropping the handle shuts it down
/// gracefully (checkpointing all running jobs).
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Opens the journal at `config.root`, recovers every non-terminal
    /// job it finds (re-enqueued; in-flight runs resume from their
    /// checkpoints), and starts the worker pool and watchdog.
    ///
    /// # Errors
    ///
    /// Fails when the journal directory cannot be created.
    pub fn start(config: ServerConfig) -> Result<Self, crate::journal::JournalError> {
        let registry = if config.metrics { Registry::new() } else { Registry::disabled() };
        let metrics = ServeMetrics::new(&registry);
        let mut journal = Journal::open(&config.root)?;
        journal.set_timers(JournalTimers {
            write: metrics.journal_write.clone(),
            fsync: metrics.journal_fsync.clone(),
        });
        let scan_started = Instant::now();
        let (records, mut notes) = journal.load_all();
        metrics.recovery_scan.observe(scan_started.elapsed().as_secs_f64());

        let mut sched = Sched {
            pending: PendingQueue::new(config.queue_capacity),
            jobs: HashMap::new(),
            progress: HashMap::new(),
            running: HashMap::new(),
            next_seq: 1,
        };
        for mut record in records {
            sched.next_seq = sched.next_seq.max(record.seq + 1);
            if !record.state.is_terminal() {
                let from = record.state;
                record.transition(JobState::Queued, &format!("recovered from `{from}`"));
                if let Err(e) = journal.write_record(&record) {
                    notes.push(format!("cannot persist recovery of `{}`: {e}", record.id));
                }
                // Recovered jobs bypass the capacity bound: they were
                // admitted before the crash and must not be lost to
                // back-pressure now.
                sched.pending.push_retry(QueueEntry {
                    id: record.id.clone(),
                    priority: record.priority,
                    seq: record.seq,
                    not_before: None,
                });
                notes.push(format!("recovered `{}` (was `{from}`)", record.id));
            }
            sched.jobs.insert(record.id.clone(), record);
        }
        metrics.queue_depth.set(i64::try_from(sched.pending.len()).unwrap_or(i64::MAX));

        let shared = Arc::new(Shared {
            config: config.clone(),
            journal,
            gate: WorkGate::new(sched),
            hub: Arc::new(SubscriberHub::default()),
            recovery_notes: notes,
            metrics,
        });

        let mut threads = Vec::new();
        for index in 0..config.workers.max(1) {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("momsynth-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    // lint: allow(unwrap-in-serve-path) startup, before any request
                    .expect("spawn worker"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("momsynth-watchdog".into())
                    .spawn(move || watchdog_loop(&shared))
                    // lint: allow(unwrap-in-serve-path) startup, before any request
                    .expect("spawn watchdog"),
            );
        }
        Ok(Self { shared, threads })
    }

    /// What recovery found when the journal was opened (restart
    /// diagnostics; empty on a fresh journal).
    pub fn recovery_notes(&self) -> &[String] {
        &self.shared.recovery_notes
    }

    /// The journal this server persists to.
    pub fn journal(&self) -> &Journal {
        &self.shared.journal
    }

    /// Submits a job. Returns its id, or a typed rejection when the
    /// spec's `max_seconds` or `timeout_seconds` is negative, not finite
    /// or beyond the clock's range, the queue is full of
    /// equal-or-higher-priority work (back-pressure) or the server is
    /// shutting down.
    ///
    /// # Errors
    ///
    /// [`SubmitRejection`] carries the suggested retry delay.
    pub fn submit(&self, spec: &JobSpec) -> Result<String, SubmitRejection> {
        if let Err(reason) = spec.validate() {
            self.shared.metrics.jobs_rejected.inc();
            return Err(SubmitRejection { retry_after_s: None, reason });
        }
        if self.shared.gate.is_shutting_down() {
            self.shared.metrics.jobs_rejected.inc();
            return Err(SubmitRejection {
                retry_after_s: Some(5.0),
                reason: "server is shutting down".into(),
            });
        }
        let mut sched = self.lock_sched();
        let seq = sched.next_seq;
        let id = format!("job-{seq:06}");
        let outcome = sched.pending.push(QueueEntry {
            id: id.clone(),
            priority: spec.priority,
            seq,
            not_before: None,
        });
        let shed = match outcome {
            PushOutcome::Rejected { retry_after_s } => {
                self.shared.metrics.jobs_rejected.inc();
                return Err(SubmitRejection {
                    retry_after_s: Some(retry_after_s),
                    reason: "submission queue is full".into(),
                });
            }
            PushOutcome::Enqueued => None,
            PushOutcome::EnqueuedShedding(shed) => Some(shed),
        };
        sched.next_seq += 1;
        if let Err(e) = self.shared.journal.write_spec(&id, spec) {
            // Without a durable spec the job could never survive a
            // restart; reject rather than accept a half-recorded job.
            sched.pending.remove(&id);
            self.shared.metrics.jobs_rejected.inc();
            self.shared.note_queue_depth(&sched);
            return Err(SubmitRejection {
                retry_after_s: Some(1.0),
                reason: format!("cannot persist job spec: {e}"),
            });
        }
        let record = JobRecord::new(id.clone(), seq, spec.priority);
        if let Err(e) = self.shared.journal.write_record(&record) {
            sched.pending.remove(&id);
            self.shared.metrics.jobs_rejected.inc();
            self.shared.note_queue_depth(&sched);
            return Err(SubmitRejection {
                retry_after_s: Some(1.0),
                reason: format!("cannot persist job record: {e}"),
            });
        }
        sched.jobs.insert(id.clone(), record);
        self.shared.metrics.jobs_submitted.inc();
        if let Some(shed_id) = shed {
            self.shared.metrics.jobs_shed.inc();
            self.shared.transition(
                &mut sched,
                &shed_id,
                JobState::Shed,
                &format!("evicted by higher-priority `{id}`"),
            );
        }
        self.shared.note_queue_depth(&sched);
        let queued = sched.pending.len();
        drop(sched);
        self.shared.gate.notify_work(queued);
        Ok(id)
    }

    /// A job's current status, or `None` for an unknown id.
    pub fn status(&self, id: &str) -> Option<JobStatus> {
        let sched = self.lock_sched();
        let record = sched.jobs.get(id)?.clone();
        let progress = sched.progress.get(id).and_then(|p| *p.lock().expect("progress poisoned"));
        Some(JobStatus { record, progress })
    }

    /// All jobs, in submission order.
    pub fn list(&self) -> Vec<JobStatus> {
        let sched = self.lock_sched();
        let mut statuses: Vec<JobStatus> = sched
            .jobs
            .values()
            .map(|record| JobStatus {
                record: record.clone(),
                progress: sched
                    .progress
                    .get(&record.id)
                    .and_then(|p| *p.lock().expect("progress poisoned")),
            })
            .collect();
        statuses.sort_by_key(|s| s.record.seq);
        statuses
    }

    /// A verified job's solution report, if it exists.
    pub fn result(&self, id: &str) -> Option<serde_json::Value> {
        self.shared.journal.load_result(id)
    }

    /// Cancels a job: removed immediately while queued, cooperatively
    /// stopped while running. Idempotent on terminal jobs. Returns the
    /// state observed at call time, or `None` for an unknown id.
    pub fn cancel(&self, id: &str) -> Option<JobState> {
        let mut sched = self.lock_sched();
        let state = sched.jobs.get(id)?.state;
        match state {
            JobState::Queued => {
                sched.pending.remove(id);
                self.shared.note_queue_depth(&sched);
                self.shared.transition(&mut sched, id, JobState::Cancelled, "while queued");
            }
            JobState::Analyzing | JobState::Running => {
                if let Some(handle) = sched.running.get_mut(id) {
                    if handle.cause.is_none() {
                        handle.cause = Some(StopCause::Cancel);
                        // Release pairs with the GA loop's Acquire load:
                        // the cause recorded above must be visible to
                        // whoever observes the cancellation.
                        handle.stop.store(true, Ordering::Release);
                    }
                }
            }
            _ => {}
        }
        Some(state)
    }

    /// The server-side instrument bundle (cheap handle clones around
    /// one shared registry). Disabled when `config.metrics` is false.
    pub fn metrics(&self) -> ServeMetrics {
        self.shared.metrics.clone()
    }

    /// A point-in-time snapshot of every server and synthesis
    /// instrument (empty when metrics are disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Jobs currently waiting in the submission queue.
    pub fn queue_depth(&self) -> usize {
        self.lock_sched().pending.len()
    }

    /// Seconds since this server started.
    pub fn uptime_s(&self) -> f64 {
        self.shared.metrics.uptime_s()
    }

    /// Subscribes to job-tagged telemetry events (serialized
    /// [`momsynth_telemetry::JobEvent`] lines). `job` restricts the
    /// stream to one job id.
    pub fn subscribe(&self, job: Option<String>) -> mpsc::Receiver<String> {
        self.shared.hub.subscribe(job)
    }

    /// Blocks until `id` reaches a terminal state or `timeout` expires.
    /// Returns the final status, or `None` on timeout or unknown id.
    pub fn wait_terminal(&self, id: &str, timeout: Duration) -> Option<JobStatus> {
        // A timeout beyond the clock's range waits without a deadline.
        let deadline = Instant::now().checked_add(timeout);
        loop {
            let status = self.status(id)?;
            if status.record.state.is_terminal() {
                return Some(status);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return None;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Blocks until every known job is terminal or `timeout` expires.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let sched = self.lock_sched();
                if sched.jobs.values().all(|r| r.state.is_terminal()) {
                    return true;
                }
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Graceful shutdown: stops accepting work, cooperatively cancels
    /// all running jobs (each saves a final checkpoint and stays
    /// `Running` in the journal, so a restart resumes it), and joins
    /// every thread.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        {
            let mut sched = self.lock_sched();
            for handle in sched.running.values_mut() {
                if handle.cause.is_none() {
                    handle.cause = Some(StopCause::Shutdown);
                    // Release: the recorded cause must travel with the
                    // flag (see `cancel`).
                    handle.stop.store(true, Ordering::Release);
                }
            }
        }
        // Latches the shutdown flag (Release) and wakes every worker.
        self.shared.gate.begin_shutdown();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    fn lock_sched(&self) -> MutexGuard<'_, Sched> {
        self.shared.gate.lock()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shutdown_in_place();
        }
    }
}

/// Worker: pop the highest-priority due job, run it, repeat until
/// shutdown.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let entry = {
            let mut sched = shared.gate.lock();
            loop {
                if shared.gate.is_shutting_down() {
                    return;
                }
                let now = Instant::now();
                if let Some(entry) = sched.pending.pop_due(now) {
                    shared.note_queue_depth(&sched);
                    break entry;
                }
                // Wake for the earliest backoff expiry, or periodically
                // as a shutdown/spurious-wakeup backstop.
                let wait = sched
                    .pending
                    .earliest_not_before()
                    .map(|t| t.saturating_duration_since(now))
                    .filter(|d| !d.is_zero())
                    .unwrap_or(Duration::from_millis(100));
                sched = shared.gate.wait_for_work_timeout(sched, wait);
            }
        };
        run_job(shared, &entry);
    }
}

/// Watchdog: raises the stop flag of running jobs past their deadline,
/// and refreshes the journaled whole-server metrics snapshot roughly
/// once a second.
fn watchdog_loop(shared: &Arc<Shared>) {
    let mut ticks: u64 = 0;
    while !shared.gate.is_shutting_down() {
        {
            let mut sched = shared.gate.lock();
            let now = Instant::now();
            for handle in sched.running.values_mut() {
                if handle.cause.is_none() && handle.deadline.is_some_and(|d| now >= d) {
                    handle.cause = Some(StopCause::Timeout);
                    // Release: the recorded cause must travel with the
                    // flag (see `cancel`).
                    handle.stop.store(true, Ordering::Release);
                }
            }
        }
        ticks += 1;
        if ticks.is_multiple_of(50) && shared.metrics.registry().is_enabled() {
            let snapshot = shared.metrics.snapshot();
            let path = shared.journal.server_metrics_path();
            if let Err(e) = shared.journal.write_metrics(&path, &snapshot) {
                eprintln!("warning: {e}");
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Decrements the busy-workers gauge on every exit path of `run_job`.
struct BusyGuard(momsynth_metrics::Gauge);

impl Drop for BusyGuard {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// Executes one attempt of one job, driving its record to the next
/// state (terminal, retry-queued, or left `Running` across a graceful
/// shutdown).
fn run_job(shared: &Arc<Shared>, entry: &QueueEntry) {
    let id = &entry.id;
    let stop = Arc::new(AtomicBool::new(false));
    shared.metrics.workers_busy.add(1);
    let _busy = BusyGuard(shared.metrics.workers_busy.clone());
    let (progress, trace_id) = {
        let mut sched = shared.gate.lock();
        sched.running.insert(
            id.clone(),
            RunningHandle { stop: Arc::clone(&stop), cause: None, deadline: None },
        );
        let (attempt, trace_id, queue_wait_s) = match sched.jobs.get_mut(id) {
            Some(record) => {
                record.attempts += 1;
                let wait = if record.attempts == 1 { record.age_s() } else { None };
                (record.attempts, record.trace_id.clone(), wait)
            }
            None => (1, String::new(), None),
        };
        if let Some(wait) = queue_wait_s {
            shared.metrics.queue_wait.observe(wait);
        }
        shared.transition(&mut sched, id, JobState::Analyzing, &format!("attempt {attempt}"));
        let progress =
            sched.progress.entry(id.clone()).or_insert_with(|| Arc::new(Mutex::new(None)));
        (Arc::clone(progress), trace_id)
    };

    // Load the durable spec; a journal that lost it is a permanent
    // failure (nothing to retry against).
    let spec = match shared.journal.load_spec(id) {
        Ok(spec) => spec,
        Err(e) => {
            finish(shared, id, JobState::Failed, Some(format!("spec unreadable: {e}")), None);
            return;
        }
    };
    // A journal written before `submit` checked budgets can still hold
    // an out-of-range one: fail the job rather than crash-loop on it.
    if let Err(e) = spec.validate() {
        finish(shared, id, JobState::Failed, Some(e), None);
        return;
    }
    let mut config = spec.config();
    if config.threads == 0 {
        config.threads = automatic_threads(shared.config.workers);
    }
    let system = spec.system.clone();

    // Resume from the job's checkpoint when one exists (crash recovery
    // or a retried attempt); a torn checkpoint falls back to `.bak`.
    let cp_path = shared.journal.checkpoint_path(id);
    let mut resume_note = None;
    let resume = if cp_path.exists() {
        match Checkpoint::load_resilient(&cp_path) {
            Ok((cp, note)) => {
                resume_note = note;
                Some(cp)
            }
            Err(e) => {
                resume_note = Some(format!(
                    "checkpoint unreadable ({e}); restarting job `{id}` from scratch"
                ));
                None
            }
        }
    } else {
        None
    };

    // Arm the per-attempt deadline and flip to Running.
    {
        let mut sched = shared.gate.lock();
        if let Some(handle) = sched.running.get_mut(id) {
            handle.deadline = spec.timeout_seconds.and_then(deadline_after);
        }
        let note = match resume.as_ref() {
            Some(cp) => format!("resuming from generation {}", cp.generation),
            None => String::new(),
        };
        shared.transition(&mut sched, id, JobState::Running, &note);
    }

    // Worker-owned sink: durable JSONL trace (appended across attempts)
    // + live progress/subscriber fan-out + core-loop instruments.
    let mut sink = Fanout::new();
    match JsonlSink::append(&shared.journal.trace_path(id)) {
        Ok(jsonl) => sink.push(Box::new(jsonl)),
        Err(e) => eprintln!("warning: cannot open trace for `{id}`: {e}"),
    }
    sink.push(Box::new(ServeSink::new(id.clone(), Arc::clone(&progress), Arc::clone(&shared.hub))));
    if shared.metrics.registry().is_enabled() {
        sink.push(Box::new(MetricsSink::new(&shared.metrics.run)));
    }
    if let Some(note) = resume_note {
        sink.record(&Event::Warning(Warning { message: note }));
    }

    let checkpoint = CheckpointSpec {
        path: cp_path,
        every: shared.config.checkpoint_every,
        every_seconds: shared.config.checkpoint_every_seconds,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        Synthesizer::new(&system, config.clone()).run_controlled(SynthControl {
            stop: Some(&stop),
            checkpoint: Some(checkpoint),
            resume,
            sink: Some(&sink),
            trace_id: Some(trace_id.clone()).filter(|t| !t.is_empty()),
        })
    }));
    sink.flush();
    drop(sink);

    // Why did we stop? The GA only reports `Cancelled`; the handle
    // remembers which actor raised the flag.
    let cause = {
        let mut sched = shared.gate.lock();
        sched.running.remove(id).and_then(|h| h.cause)
    };

    match outcome {
        Err(panic) => {
            let message = panic_message(&panic);
            transient_failure(shared, entry, &format!("worker panicked: {message}"));
        }
        Ok(Err(SynthesisError::Checkpoint(e))) => {
            // An unusable checkpoint would fail every retry the same
            // way: drop it so the next attempt restarts from scratch.
            let cp = shared.journal.checkpoint_path(id);
            std::fs::remove_file(&cp).ok();
            std::fs::remove_file(Checkpoint::backup_path(&cp)).ok();
            transient_failure(shared, entry, &format!("checkpoint error: {e}"));
        }
        // Infeasible and Unschedulable are properties of the spec:
        // retrying cannot change them, so fail fast and permanently.
        Ok(Err(e)) => {
            finish(shared, id, JobState::Failed, Some(e.to_string()), None);
        }
        Ok(Ok(result)) => {
            if result.stop_reason == StopReason::Cancelled {
                match cause {
                    Some(StopCause::Cancel) => {
                        finish(shared, id, JobState::Cancelled, None, None);
                    }
                    Some(StopCause::Timeout) => {
                        finish(
                            shared,
                            id,
                            JobState::TimedOut,
                            Some("per-job wall-clock timeout".into()),
                            None,
                        );
                    }
                    // Graceful shutdown: the run already flushed a final
                    // checkpoint; the record stays `Running` so a
                    // restart resumes the trajectory tail.
                    Some(StopCause::Shutdown) | None => {}
                }
                return;
            }
            // Completed: gate `Verified` on feasibility plus the
            // independent checker.
            let breach = invariant_breach(&system, &result.best);
            if !result.best.is_feasible() {
                finish(
                    shared,
                    id,
                    JobState::Failed,
                    Some("best solution violates constraints".into()),
                    None,
                );
            } else if let Some(report) = breach {
                finish(
                    shared,
                    id,
                    JobState::Failed,
                    Some(format!("verification failed: {report}")),
                    None,
                );
            } else {
                let summary = result.summary(&system, &config);
                if let Err(e) = shared.journal.write_result(id, &result.report(&system)) {
                    eprintln!("warning: {e}");
                }
                finish(shared, id, JobState::Verified, None, Some(summary));
            }
        }
    }
}

/// The batch-pricing threads of a job that asked for the automatic
/// count (0): its worker's share of the host's cores, at least 1, so the
/// server's workers together never price on more threads than there are
/// cores. The count includes the job's own worker thread, which prices
/// beside the threads its batches spawn.
fn automatic_threads(workers: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    (cores / workers.max(1)).max(1)
}

/// Applies a terminal transition.
fn finish(
    shared: &Arc<Shared>,
    id: &str,
    state: JobState,
    error: Option<String>,
    summary: Option<RunSummary>,
) {
    let mut sched = shared.gate.lock();
    sched.running.remove(id);
    if let Some(record) = sched.jobs.get_mut(id) {
        record.error = error;
        record.summary = summary;
    }
    let note = sched.jobs.get(id).and_then(|r| r.error.clone()).unwrap_or_default();
    shared.transition(&mut sched, id, state, &note);
}

/// Retry policy for transient failures (panics, checkpoint I/O):
/// exponential backoff up to `max_retries`, then permanent failure.
fn transient_failure(shared: &Arc<Shared>, entry: &QueueEntry, message: &str) {
    let mut sched = shared.gate.lock();
    sched.running.remove(&entry.id);
    let attempts = sched.jobs.get(&entry.id).map_or(1, |r| r.attempts);
    if attempts > shared.config.max_retries {
        if let Some(record) = sched.jobs.get_mut(&entry.id) {
            record.error = Some(format!("retries exhausted after attempt {attempts}: {message}"));
        }
        let note = format!("retries exhausted: {message}");
        shared.transition(&mut sched, &entry.id, JobState::Failed, &note);
        return;
    }
    let backoff = shared.config.retry_backoff_s * f64::from(1u32 << (attempts - 1).min(16));
    let note =
        format!("transient failure on attempt {attempts}, retrying in {backoff:.2} s: {message}");
    shared.metrics.jobs_retried.inc();
    shared.transition(&mut sched, &entry.id, JobState::Queued, &note);
    sched.pending.push_retry(QueueEntry {
        id: entry.id.clone(),
        priority: entry.priority,
        seq: entry.seq,
        not_before: Some(Instant::now() + Duration::from_secs_f64(backoff)),
    });
    shared.note_queue_depth(&sched);
    let queued = sched.pending.len();
    drop(sched);
    shared.gate.notify_work(queued);
}

/// Best-effort extraction of a panic payload message.
fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
