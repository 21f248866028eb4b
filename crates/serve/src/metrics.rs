//! Server-level instruments and the Prometheus-style exposition
//! listener.
//!
//! [`ServeMetrics`] bundles every instrument the job server maintains —
//! scheduler gauges, admission and retry counters, journal I/O and job
//! lifecycle latency histograms — around one shared
//! [`momsynth_metrics::Registry`]. Every handle is a cheap clone of an
//! atomic cell; when the registry is disabled each operation is a single
//! branch, so a server run with metrics off does no extra work.
//!
//! [`spawn_exposition`] serves the registry over a minimal HTTP/1.1
//! listener in Prometheus text exposition format, so a stock Prometheus
//! scrape config (or `curl`) can watch a resident server.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use momsynth_sync::sync::atomic::{AtomicBool, Ordering};
use momsynth_sync::sync::Arc;
use std::time::{Duration, Instant};

use momsynth_metrics::{
    Counter, Gauge, Histogram, MetricsSnapshot, Registry, RunMetrics, DEFAULT_DURATION_BOUNDS_S,
    DEFAULT_LATENCY_BOUNDS_S,
};

use crate::job::JobState;

/// The terminal states instrumented per label (everything
/// [`JobState::is_terminal`] accepts).
const TERMINAL_STATES: [JobState; 5] = [
    JobState::Verified,
    JobState::Failed,
    JobState::Cancelled,
    JobState::TimedOut,
    JobState::Shed,
];

/// All server-side instruments, and the core-loop families every job's
/// run records on, pre-registered against one registry so a scrape taken
/// before any job ran already shows the full taxonomy.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    registry: Registry,
    started: Instant,
    /// Jobs currently waiting in the submission queue.
    pub queue_depth: Gauge,
    /// Worker slots currently executing a job attempt.
    pub workers_busy: Gauge,
    /// Seconds this server process has been up (set at snapshot time).
    pub uptime: Gauge,
    /// Submissions accepted into the queue.
    pub jobs_submitted: Counter,
    /// Submissions rejected by back-pressure (or during shutdown).
    pub jobs_rejected: Counter,
    /// Queued jobs evicted by a higher-priority submission.
    pub jobs_shed: Counter,
    /// Attempts re-queued after a transient failure (retry/backoff).
    pub jobs_retried: Counter,
    /// Admission-to-first-attempt latency.
    pub queue_wait: Histogram,
    /// Whole durable-write latency (tmp + fsync + backup + rename).
    pub journal_write: Histogram,
    /// The fsync portion of a durable write.
    pub journal_fsync: Histogram,
    /// Recovery scan (`Journal::load_all`) latency at startup.
    pub recovery_scan: Histogram,
    /// Per-terminal-state counter and submission-to-terminal latency.
    terminal: Vec<(JobState, Counter, Histogram)>,
    /// The synthesis core-loop families, fed by each job's
    /// [`momsynth_metrics::MetricsSink`].
    pub run: RunMetrics,
}

impl ServeMetrics {
    /// Registers every server and core-loop instrument family against
    /// `registry` — the one place any family is registered. With a
    /// disabled registry every handle is a no-op.
    pub fn new(registry: &Registry) -> Self {
        let terminal = TERMINAL_STATES
            .iter()
            .map(|&state| {
                let label = state.to_string();
                let labels: &[(&str, &str)] = &[("state", label.as_str())];
                (
                    state,
                    registry.counter(
                        "momsynth_jobs_terminal_total",
                        "Jobs that reached a terminal state, by state",
                        labels,
                    ),
                    registry.histogram(
                        "momsynth_job_duration_seconds",
                        "Submission-to-terminal-state latency, by terminal state",
                        &DEFAULT_DURATION_BOUNDS_S,
                        labels,
                    ),
                )
            })
            .collect();
        Self {
            registry: registry.clone(),
            started: Instant::now(),
            queue_depth: registry.gauge(
                "momsynth_queue_depth",
                "Jobs waiting in the submission queue",
                &[],
            ),
            workers_busy: registry.gauge(
                "momsynth_workers_busy",
                "Worker slots currently executing a job attempt",
                &[],
            ),
            uptime: registry.gauge(
                "momsynth_server_uptime_seconds",
                "Seconds since the server started",
                &[],
            ),
            jobs_submitted: registry.counter(
                "momsynth_jobs_submitted_total",
                "Submissions accepted into the queue",
                &[],
            ),
            jobs_rejected: registry.counter(
                "momsynth_jobs_rejected_total",
                "Submissions rejected by back-pressure or shutdown",
                &[],
            ),
            jobs_shed: registry.counter(
                "momsynth_jobs_shed_total",
                "Queued jobs evicted by higher-priority submissions",
                &[],
            ),
            jobs_retried: registry.counter(
                "momsynth_jobs_retried_total",
                "Attempts re-queued after a transient failure",
                &[],
            ),
            queue_wait: registry.histogram(
                "momsynth_job_queue_wait_seconds",
                "Admission-to-first-attempt latency",
                &DEFAULT_DURATION_BOUNDS_S,
                &[],
            ),
            journal_write: registry.histogram(
                "momsynth_journal_write_seconds",
                "Durable journal write latency (fsync + atomic rename)",
                &DEFAULT_LATENCY_BOUNDS_S,
                &[],
            ),
            journal_fsync: registry.histogram(
                "momsynth_journal_fsync_seconds",
                "fsync portion of a durable journal write",
                &DEFAULT_LATENCY_BOUNDS_S,
                &[],
            ),
            recovery_scan: registry.histogram(
                "momsynth_journal_recovery_scan_seconds",
                "Journal recovery scan latency at startup",
                &DEFAULT_LATENCY_BOUNDS_S,
                &[],
            ),
            terminal,
            run: RunMetrics::new(registry),
        }
    }

    /// The registry behind these instruments.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Seconds since the server started.
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Records one job reaching terminal `state`; `age_s` is its
    /// submission-to-now latency when the submission time is known.
    pub fn job_terminal(&self, state: JobState, age_s: Option<f64>) {
        if let Some((_, counter, duration)) =
            self.terminal.iter().find(|(s, _, _)| *s == state)
        {
            counter.inc();
            if let Some(age) = age_s {
                duration.observe(age);
            }
        }
    }

    /// A point-in-time snapshot of every instrument (uptime refreshed
    /// first, so scrapes and journal snapshots carry it).
    pub fn snapshot(&self) -> MetricsSnapshot {
        #[allow(clippy::cast_possible_truncation)]
        self.uptime.set(self.started.elapsed().as_secs() as i64);
        self.registry.snapshot()
    }
}

/// Binds `addr` (e.g. `127.0.0.1:9464`; port 0 picks a free port) and
/// serves `GET /metrics` in Prometheus text exposition format until
/// `shutdown` is raised. Returns the bound address and the listener
/// thread's handle.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn spawn_exposition(
    addr: &str,
    metrics: ServeMetrics,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let handle = std::thread::Builder::new()
        .name("momsynth-metrics-http".into())
        .spawn(move || loop {
            if shutdown.load(Ordering::Acquire) {
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    // One scrape at a time: exposition is tiny and a
                    // failed client must never take the server down.
                    if let Err(e) = serve_scrape(stream, &metrics) {
                        eprintln!("warning: metrics scrape failed: {e}");
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        })?;
    Ok((local, handle))
}

/// Largest request head (request line plus headers) a scrape may send.
const MAX_REQUEST_HEAD: u64 = 8 * 1024;

/// Time one scrape exchange may take, from the first byte read to the
/// last byte written. Scrapes are served one at a time, so this also
/// bounds how long one client can hold up the next.
const SCRAPE_DEADLINE: Duration = Duration::from_secs(2);

/// Reads a stream until a deadline, however slowly the peer sends: each
/// read may block only for the time left.
struct Deadline<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// Answers one HTTP request on `stream`: the exposition text for
/// `GET /metrics` (or `/`), 400 for a request head over
/// [`MAX_REQUEST_HEAD`], 404 otherwise. A client that has not sent its
/// head within [`SCRAPE_DEADLINE`] is dropped unanswered.
fn serve_scrape(stream: TcpStream, metrics: &ServeMetrics) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    let deadline = Instant::now() + SCRAPE_DEADLINE;
    let mut reader = BufReader::new(Deadline { stream: &stream, deadline }.take(MAX_REQUEST_HEAD));
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let mut head_ended = false;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        if header == "\r\n" || header == "\n" {
            head_ended = true;
            break;
        }
    }
    let too_large = !head_ended && reader.get_ref().limit() == 0;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if too_large {
        ("400 Bad Request", "text/plain", "request head too large\n".to_owned())
    } else if method == "GET" && (path == "/metrics" || path == "/") {
        ("200 OK", "text/plain; version=0.0.4; charset=utf-8", metrics.snapshot().to_prometheus())
    } else {
        ("404 Not Found", "text/plain", "not found\n".to_owned())
    };
    let left = deadline.saturating_duration_since(Instant::now());
    stream.set_write_timeout(Some(left.max(Duration::from_millis(1))))?;
    let mut stream = stream;
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn disabled_registry_yields_noop_instruments() {
        let metrics = ServeMetrics::new(&Registry::disabled());
        metrics.jobs_submitted.inc();
        metrics.queue_depth.set(7);
        metrics.queue_wait.observe(1.0);
        metrics.job_terminal(JobState::Verified, Some(2.0));
        let snapshot = metrics.snapshot();
        assert!(snapshot.counters.is_empty());
        assert!(snapshot.gauges.is_empty());
        assert!(snapshot.histograms.is_empty());
    }

    #[test]
    fn enabled_metrics_pre_register_every_family() {
        let metrics = ServeMetrics::new(&Registry::new());
        let snapshot = metrics.snapshot();
        let text = snapshot.to_prometheus();
        for family in [
            "momsynth_queue_depth",
            "momsynth_workers_busy",
            "momsynth_server_uptime_seconds",
            "momsynth_jobs_submitted_total",
            "momsynth_jobs_rejected_total",
            "momsynth_jobs_shed_total",
            "momsynth_jobs_retried_total",
            "momsynth_jobs_terminal_total",
            "momsynth_job_duration_seconds",
            "momsynth_job_queue_wait_seconds",
            "momsynth_journal_write_seconds",
            "momsynth_journal_fsync_seconds",
            "momsynth_journal_recovery_scan_seconds",
            // The core-loop families every job's run records on.
            "momsynth_runs_started_total",
            "momsynth_runs_finished_total",
            "momsynth_run_duration_seconds",
            "momsynth_generations_total",
            "momsynth_evaluations_total",
            "momsynth_evaluations_rejected_total",
            "momsynth_dvs_iterations_total",
            "momsynth_evals_per_sec",
            "momsynth_run_phase_seconds",
        ] {
            assert!(text.contains(family), "exposition must mention {family}");
        }
        for state in ["verified", "failed", "cancelled", "timed-out", "shed"] {
            assert!(
                text.contains(&format!("state=\"{state}\"")),
                "terminal label {state} must be pre-registered"
            );
        }
        for phase in [
            "fitness_eval",
            "core_allocation",
            "list_scheduling",
            "voltage_scaling",
            "power_pricing",
        ] {
            assert!(
                text.contains(&format!("phase=\"{phase}\"")),
                "phase label {phase} must be pre-registered"
            );
        }
    }

    #[test]
    fn terminal_bookkeeping_counts_and_times_by_state() {
        let metrics = ServeMetrics::new(&Registry::new());
        metrics.job_terminal(JobState::Verified, Some(1.5));
        metrics.job_terminal(JobState::Verified, None);
        metrics.job_terminal(JobState::Failed, Some(0.25));
        let snapshot = metrics.snapshot();
        assert_eq!(
            snapshot.counter_value("momsynth_jobs_terminal_total", &[("state", "verified")]),
            Some(2)
        );
        assert_eq!(
            snapshot.counter_value("momsynth_jobs_terminal_total", &[("state", "failed")]),
            Some(1)
        );
        let verified = snapshot
            .histogram_sample("momsynth_job_duration_seconds", &[("state", "verified")])
            .expect("duration family");
        assert_eq!(verified.count, 1, "only known ages are observed");
    }

    #[test]
    fn exposition_listener_answers_scrapes_and_404s() {
        let metrics = ServeMetrics::new(&Registry::new());
        metrics.jobs_submitted.inc();
        let shutdown = Arc::new(AtomicBool::new(false));
        let (addr, handle) =
            spawn_exposition("127.0.0.1:0", metrics, Arc::clone(&shutdown)).unwrap();

        let scrape = |path: &str| -> String {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut body = String::new();
            stream.read_to_string(&mut body).unwrap();
            body
        };
        let ok = scrape("/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        assert!(ok.contains("momsynth_jobs_submitted_total 1"), "{ok}");
        assert!(ok.contains("momsynth_server_uptime_seconds"), "{ok}");
        let missing = scrape("/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        shutdown.store(true, Ordering::Release);
        handle.join().unwrap();
    }
}
