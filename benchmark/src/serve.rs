//! The in-process job server and the closed-loop client that loads it.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use momsynth_model::System;
use momsynth_serve::{JobSpec, JobState, Server, ServerConfig};

use crate::Report;

/// Jobs the client keeps outstanding: one per server worker.
const OUTSTANDING: usize = 2;

/// Interval of the client's `status()` polls.
const POLL: Duration = Duration::from_millis(1);

/// A job is abandoned as failed after this long without a terminal
/// state.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Checkpoint cadence of the server, in generations. A quick job runs at
/// most 40 generations in a few tens of milliseconds; the default cadence
/// of 5 would write eight checkpoints per job and turn the workload into
/// a benchmark of the disk.
const CHECKPOINT_EVERY: usize = 40;

/// Jobs per unit of work: the client drains the server after each batch,
/// so set-ups and host-speed probes run with no job in flight.
pub const JOBS_PER_BATCH: u64 = 25;

/// The spec of job `seed`: quick, one thread, so two workers load at
/// most two cores.
pub fn job_spec(system: &System, seed: u64) -> JobSpec {
    JobSpec {
        quick: true,
        seed,
        threads: 1,
        ..JobSpec::new(system.clone())
    }
}

/// A server with a journal of its own, shut down and deleted on drop.
#[derive(Debug)]
pub struct ServeHarness {
    server: Option<Server>,
    root: PathBuf,
}

impl ServeHarness {
    /// Starts a server (2 workers, metrics on, default settings apart
    /// from [`CHECKPOINT_EVERY`]) journalling under a fresh directory in
    /// `out`, so servers of the same process never share a journal.
    pub fn start(out: &Path, name: &str) -> Result<Self, String> {
        static STARTED: AtomicU64 = AtomicU64::new(0);
        // Relaxed: the counter only makes names unique and publishes no
        // other data.
        let n = STARTED.fetch_add(1, Ordering::Relaxed);
        let root = out.join(format!("journal-{name}-{}-{n}", std::process::id()));
        // A journal left by an earlier, killed run would be recovered
        // and replayed; start from nothing.
        if root.exists() {
            std::fs::remove_dir_all(&root)
                .map_err(|e| format!("cannot clear {}: {e}", root.display()))?;
        }
        let config = ServerConfig {
            checkpoint_every: CHECKPOINT_EVERY,
            ..ServerConfig::new(root.clone())
        };
        let server = Server::start(config).map_err(|e| format!("cannot start the server: {e}"))?;
        Ok(Self {
            server: Some(server),
            root,
        })
    }

    /// The running server.
    pub fn server(&self) -> &Server {
        self.server.as_ref().expect("the server runs until drop")
    }
}

impl Drop for ServeHarness {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// What the client saw of the jobs it ran.
#[derive(Debug, Default)]
pub struct JobStats {
    /// Submit-to-verified latency of each verified job.
    pub latency_s: Vec<f64>,
    /// Time each accepted `submit()` call took.
    pub submit_s: Vec<f64>,
    /// Each verified job's own synthesis wall time.
    pub synth_s: Vec<f64>,
    /// Each verified job's GA evaluations per second of synthesis.
    pub evals_per_s: Vec<f64>,
    /// Each verified job's best average power p̄, in mW.
    pub power_mw: Vec<f64>,
}

/// Runs the jobs numbered `jobs`, keeping [`OUTSTANDING`] in flight and
/// returning when the last has ended. Job `i` synthesises
/// `systems[i % len]` with seed `seed + i`. Every job must end `Verified`.
pub fn closed_loop(
    harness: &ServeHarness,
    systems: &[System],
    seed: u64,
    jobs: Range<u64>,
    report: &mut Report,
) -> JobStats {
    let server = harness.server();
    let mut stats = JobStats::default();
    let mut in_flight: Vec<(String, Instant)> = Vec::with_capacity(OUTSTANDING);
    let mut next = jobs.start;
    loop {
        while in_flight.len() < OUTSTANDING && next < jobs.end {
            let spec = job_spec(&systems[next as usize % systems.len()], seed + next);
            next += 1;
            report.attempted += 1;
            let submitted = Instant::now();
            match server.submit(&spec) {
                Ok(id) => {
                    stats.submit_s.push(submitted.elapsed().as_secs_f64());
                    in_flight.push((id, submitted));
                }
                Err(rejection) => report.fail(format!("submission rejected: {rejection}")),
            }
        }
        if in_flight.is_empty() {
            return stats;
        }
        std::thread::sleep(POLL);
        in_flight.retain(|(id, submitted)| {
            let Some(status) = server.status(id) else {
                report.fail(format!("job {id} vanished"));
                return false;
            };
            let state = status.record.state;
            if !state.is_terminal() {
                if submitted.elapsed() < JOB_TIMEOUT {
                    return true;
                }
                report.fail(format!("job {id} still {state} after {JOB_TIMEOUT:?}"));
                return false;
            }
            match (state, status.record.summary) {
                (JobState::Verified, Some(summary)) => {
                    stats.latency_s.push(submitted.elapsed().as_secs_f64());
                    stats.synth_s.push(summary.wall_time_s);
                    stats.evals_per_s.push(summary.evals_per_sec);
                    stats.power_mw.push(summary.average_power_mw);
                }
                (state, _) => report.fail(format!(
                    "job {id} ended {state}: {}",
                    status.record.error.unwrap_or_default()
                )),
            }
            false
        });
    }
}
