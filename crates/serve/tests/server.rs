//! Integration tests of the resident job server: end-to-end synthesis,
//! typed back-pressure, priority shedding, cancellation, timeouts,
//! transient-failure retry and restart recovery.

use momsynth_sync::sync::atomic::AtomicBool;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use momsynth_core::{CheckpointSpec, SynthControl, Synthesizer};
use momsynth_gen::suite::{generate, GeneratorParams};
use momsynth_model::System;
use momsynth_serve::{socket, JobSpec, JobState, Server, ServerConfig};
use momsynth_telemetry::{Event, MemorySink};

fn small_system(name: &str, seed: u64) -> System {
    let mut params = GeneratorParams::new(name, seed);
    params.modes = 2;
    params.tasks_per_mode = (4, 6);
    generate(&params)
}

/// A system big enough that a full (non-quick) run of it outlasts the
/// 0.2 s per-job timeout many times over, so `Running` can be observed
/// (and the job cancelled, timed out or interrupted) with margin.
fn slow_system(name: &str, seed: u64) -> System {
    let mut params = GeneratorParams::new(name, seed);
    params.modes = 4;
    params.tasks_per_mode = (12, 16);
    generate(&params)
}

fn quick_spec(system: System) -> JobSpec {
    let mut spec = JobSpec::new(system);
    spec.quick = true;
    spec.max_evaluations = Some(60);
    spec
}

/// The default GA, not the quick preset: at least 40 generations of 50
/// (the stagnation limit) before the two local-search passes.
fn slow_spec(system: System) -> JobSpec {
    JobSpec::new(system)
}

fn tmp_root(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("momsynth_serve_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn config(root: PathBuf) -> ServerConfig {
    let mut config = ServerConfig::new(root);
    config.checkpoint_every = 1;
    config.retry_backoff_s = 0.05;
    config
}

/// Polls `status` until `pred` holds or `timeout` expires.
fn wait_for(
    server: &Server,
    id: &str,
    timeout: Duration,
    pred: impl Fn(&momsynth_serve::JobStatus) -> bool,
) -> momsynth_serve::JobStatus {
    let deadline = Instant::now() + timeout;
    loop {
        let status = server.status(id).expect("job exists");
        if pred(&status) {
            return status;
        }
        assert!(Instant::now() < deadline, "timed out waiting on `{id}`; last status: {status:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn submitted_jobs_run_to_verified_with_durable_results() {
    let root = tmp_root("verified");
    let server = Server::start(config(root.clone())).unwrap();
    let a = server.submit(&quick_spec(small_system("serve-a", 1))).unwrap();
    let b = server.submit(&quick_spec(small_system("serve-b", 2))).unwrap();
    assert_ne!(a, b);

    assert!(server.wait_idle(Duration::from_secs(120)), "jobs must finish");
    for id in [&a, &b] {
        let status = server.status(id).unwrap();
        assert_eq!(status.record.state, JobState::Verified, "{:?}", status.record);
        assert!(status.record.summary.is_some(), "verified jobs carry a summary");
        let progress = status.progress.expect("progress was reported");
        assert!(progress.evaluations > 0);
        let result = server.result(id).expect("verified jobs persist a result");
        assert_eq!(result.get("feasible").and_then(|v| v.as_bool()), Some(true));
        assert!(server.journal().trace_path(id).exists(), "trace is durable");
    }
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn full_queues_reject_with_retry_hints_and_shed_for_priority() {
    let root = tmp_root("backpressure");
    let mut cfg = config(root.clone());
    cfg.workers = 1;
    cfg.queue_capacity = 1;
    let server = Server::start(cfg).unwrap();

    // Occupy the single worker, then the single queue slot. Waiting for
    // `Running` rather than just past `Queued` keeps the job out of its
    // analysis when it is cancelled below.
    let running = server.submit(&slow_spec(slow_system("serve-busy", 3))).unwrap();
    wait_for(&server, &running, Duration::from_secs(30), |s| s.record.state == JobState::Running);
    let queued = server.submit(&quick_spec(small_system("serve-q", 4))).unwrap();

    // Equal priority: typed rejection with a retry hint, nothing lost.
    let rejection = server
        .submit(&quick_spec(small_system("serve-rejected", 5)))
        .expect_err("a full queue must reject equal-priority work");
    assert!(rejection.retry_after_s.is_some_and(|s| s > 0.0), "{rejection:?}");
    assert_eq!(server.status(&queued).unwrap().record.state, JobState::Queued);

    // Higher priority: the queued lowest-priority job is shed.
    let mut urgent_spec = quick_spec(small_system("serve-urgent", 6));
    urgent_spec.priority = 9;
    let urgent = server.submit(&urgent_spec).expect("higher priority must be admitted");
    let shed = server.status(&queued).unwrap();
    assert_eq!(shed.record.state, JobState::Shed, "{:?}", shed.record);
    assert!(
        shed.record.transitions.last().unwrap().contains(&urgent),
        "the shed record names its evictor: {:?}",
        shed.record.transitions
    );

    assert_eq!(server.cancel(&running), Some(JobState::Running));
    assert!(server.wait_idle(Duration::from_secs(120)));
    assert_eq!(server.status(&urgent).unwrap().record.state, JobState::Verified);
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn cancellation_is_immediate_when_queued_and_cooperative_when_running() {
    let root = tmp_root("cancel");
    let mut cfg = config(root.clone());
    cfg.workers = 1;
    let server = Server::start(cfg).unwrap();

    let running = server.submit(&slow_spec(slow_system("serve-run", 7))).unwrap();
    wait_for(&server, &running, Duration::from_secs(30), |s| s.record.state == JobState::Running);
    let queued = server.submit(&quick_spec(small_system("serve-queued", 8))).unwrap();

    assert_eq!(server.cancel(&queued), Some(JobState::Queued));
    assert_eq!(server.status(&queued).unwrap().record.state, JobState::Cancelled);

    assert_eq!(server.cancel(&running), Some(JobState::Running));
    let status = server
        .wait_terminal(&running, Duration::from_secs(60))
        .expect("cancel must terminate the job");
    assert_eq!(status.record.state, JobState::Cancelled);
    // Idempotent on terminal jobs.
    assert_eq!(server.cancel(&running), Some(JobState::Cancelled));
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn per_job_timeouts_mark_jobs_timed_out() {
    let root = tmp_root("timeout");
    let server = Server::start(config(root.clone())).unwrap();
    let mut spec = slow_spec(slow_system("serve-deadline", 9));
    spec.timeout_seconds = Some(0.2);
    let id = server.submit(&spec).unwrap();
    let status =
        server.wait_terminal(&id, Duration::from_secs(60)).expect("the watchdog must stop the job");
    assert_eq!(status.record.state, JobState::TimedOut, "{:?}", status.record);
    assert!(status.record.error.as_deref().unwrap_or("").contains("timeout"));
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn unusable_checkpoints_are_retried_transiently_and_self_heal() {
    let root = tmp_root("retry");
    let server = Server::start(config(root.clone())).unwrap();

    // Plant a checkpoint from a *different* system at the path the next
    // job (deterministically `job-000001`) will resume from: attempt 1
    // fails with a checkpoint error, the server drops the bad file and
    // retries, attempt 2 verifies.
    let alien = small_system("serve-alien", 77);
    let cp_path = server.journal().checkpoint_path("job-000001");
    Synthesizer::new(&alien, momsynth_core::SynthesisConfig::fast_preset(77))
        .run_controlled(SynthControl {
            checkpoint: Some(CheckpointSpec::every_generations(cp_path.clone(), 1)),
            ..SynthControl::default()
        })
        .expect("alien run");
    assert!(cp_path.exists());

    let id = server.submit(&quick_spec(small_system("serve-heal", 10))).unwrap();
    assert_eq!(id, "job-000001");
    let status =
        server.wait_terminal(&id, Duration::from_secs(120)).expect("the retry must converge");
    assert_eq!(status.record.state, JobState::Verified, "{:?}", status.record);
    assert_eq!(status.record.attempts, 2, "{:?}", status.record.transitions);
    assert!(
        status.record.transitions.iter().any(|t| t.contains("transient failure")),
        "{:?}",
        status.record.transitions
    );
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// Graceful shutdown leaves in-flight jobs `Running` with a fresh
/// checkpoint; a restarted server re-enqueues and resumes them, and the
/// stitched trace equals an uninterrupted run of the same spec — the
/// exact-trajectory-tail guarantee, at the server layer.
#[test]
fn restart_resumes_interrupted_jobs_as_an_exact_trajectory_tail() {
    let root = tmp_root("restart");
    let system = slow_system("serve-resume", 11);
    let spec = slow_spec(system.clone());

    let server = Server::start(config(root.clone())).unwrap();
    let id = server.submit(&spec).unwrap();
    wait_for(&server, &id, Duration::from_secs(60), |s| {
        s.record.state == JobState::Running && s.progress.is_some_and(|p| p.generation >= 2)
    });
    server.shutdown();

    // The journal still says Running: the job survives the stop.
    let (records, _) = momsynth_serve::Journal::open(&root).unwrap().load_all();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].state, JobState::Running);

    let server = Server::start(config(root.clone())).unwrap();
    assert!(
        server.recovery_notes().iter().any(|n| n.contains(&id)),
        "{:?}",
        server.recovery_notes()
    );
    let status =
        server.wait_terminal(&id, Duration::from_secs(300)).expect("recovered job must finish");
    assert_eq!(status.record.state, JobState::Verified, "{:?}", status.record);
    assert!(
        status.record.transitions.iter().any(|t| t.contains("recovered")),
        "{:?}",
        status.record.transitions
    );
    let report = server.result(&id).expect("recovered job persists a result");
    let trace = std::fs::read_to_string(server.journal().trace_path(&id)).unwrap();
    server.shutdown();

    // Oracle: one uninterrupted run of the same spec.
    let sink = MemorySink::new();
    let full = Synthesizer::new(&system, spec.config())
        .run_controlled(SynthControl { sink: Some(&sink), ..SynthControl::default() })
        .expect("uninterrupted run");

    // Final answers agree exactly.
    assert_eq!(
        report.get("average_power_mw").and_then(|v| v.as_f64()),
        Some(full.best.power.average.as_milli()),
    );
    assert_eq!(report.get("generations").and_then(|v| v.as_u64()), Some(full.generations as u64),);

    // And the stitched per-generation trajectory (attempt 1 + resumed
    // attempt 2, deduplicated on the overlap generation) is the
    // uninterrupted one, event for event.
    let mut stitched: Vec<momsynth_telemetry::GenerationEvent> = Vec::new();
    for line in trace.lines() {
        if let Ok(Event::Generation(g)) = serde_json::from_str::<Event>(line) {
            stitched.retain(|seen| seen.generation != g.generation);
            stitched.push(g.normalized());
        }
    }
    stitched.sort_by_key(|g| g.generation);
    let expected: Vec<momsynth_telemetry::GenerationEvent> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Generation(g) => Some(g.normalized()),
            _ => None,
        })
        .collect();
    assert!(!stitched.is_empty());
    assert_eq!(stitched, expected, "resumed trace must be an exact tail");
    std::fs::remove_dir_all(&root).ok();
}

/// One job observed end to end: the trace id handed out in `status`
/// must be the id threaded through every span in the durable trace and
/// the id in the journalled record; the `metrics` protocol request, the
/// HTTP exposition endpoint and the per-job journalled snapshot must
/// all report the lifecycle the job just went through.
#[test]
fn trace_ids_and_metrics_agree_across_status_trace_journal_and_scrape() {
    use momsynth_sync::sync::atomic::Ordering;
    use momsynth_sync::sync::Arc;
    use std::io::{Read, Write};

    let root = tmp_root("observability");
    let server = Server::start(config(root.clone())).unwrap();
    let id = server.submit(&quick_spec(small_system("serve-obs", 13))).unwrap();
    assert!(server.wait_idle(Duration::from_secs(120)), "job must finish");

    // (1) The status response carries the job's trace id.
    let status = server.status(&id).unwrap();
    assert_eq!(status.record.state, JobState::Verified, "{:?}", status.record);
    let trace_id = status.record.trace_id.clone();
    assert!(trace_id.starts_with(&format!("{id}-")), "{trace_id}");

    // (2) Every span in the durable trace threads the same id, and the
    // run announces it up front.
    let trace = std::fs::read_to_string(server.journal().trace_path(&id)).unwrap();
    let (mut run_starts, mut spans) = (0u32, 0u32);
    for line in trace.lines() {
        match serde_json::from_str::<Event>(line).expect("every trace line parses") {
            Event::RunStart(start) => {
                assert_eq!(start.trace_id, trace_id, "{line}");
                run_starts += 1;
            }
            Event::Span(span) => {
                assert_eq!(span.trace_id, trace_id, "{line}");
                assert!(span.path.starts_with("run"), "{}", span.path);
                spans += 1;
            }
            _ => {}
        }
    }
    assert!(run_starts >= 1, "the run start is on the trace");
    assert!(spans >= 2, "phase spans are on the trace: {trace}");

    // (3) The journalled record reloads with the same trace id.
    let (records, _) = momsynth_serve::Journal::open(&root).unwrap().load_all();
    let record = records.iter().find(|r| r.id == id).expect("record journalled");
    assert_eq!(record.trace_id, trace_id);

    // (4) The protocol agrees: `status` echoes the trace id, `metrics`
    // reports the lifecycle, the text variant is scrape-ready.
    let input = format!(
        "{}\n{}\n{}\n",
        format_args!(r#"{{"cmd":"status","id":"{id}"}}"#),
        r#"{"cmd":"metrics"}"#,
        r#"{"cmd":"metrics","format":"text"}"#,
    );
    let mut output = Vec::new();
    let stop = AtomicBool::new(false);
    socket::serve_session(&server, input.as_bytes(), &mut output, &stop);
    let lines: Vec<serde_json::Value> = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(lines.len(), 3);
    let job = lines[0].get("job").expect("status reply");
    assert_eq!(job.get("trace_id").and_then(|v| v.as_str()), Some(trace_id.as_str()));
    let server_block = lines[0].get("server").expect("server health block");
    assert_eq!(server_block.get("queue_depth").and_then(|v| v.as_u64()), Some(0));
    assert!(server_block.get("uptime_s").and_then(|v| v.as_f64()).unwrap_or(-1.0) >= 0.0);

    let counter = |name: &str| -> u64 {
        lines[1]["metrics"]["counters"]
            .as_array()
            .expect("counters array")
            .iter()
            .filter(|c| c.get("name").and_then(|v| v.as_str()) == Some(name))
            .filter_map(|c| c.get("value").and_then(|v| v.as_u64()))
            .sum()
    };
    assert_eq!(counter("momsynth_jobs_submitted_total"), 1);
    assert_eq!(counter("momsynth_jobs_terminal_total"), 1);
    assert!(counter("momsynth_evaluations_total") > 0, "core loop is instrumented");
    let histogram_count = |name: &str| -> u64 {
        lines[1]["metrics"]["histograms"]
            .as_array()
            .expect("histograms array")
            .iter()
            .filter(|h| h.get("name").and_then(|v| v.as_str()) == Some(name))
            .filter_map(|h| h.get("count").and_then(|v| v.as_u64()))
            .sum()
    };
    assert!(histogram_count("momsynth_run_phase_seconds") > 0, "phase latencies recorded");
    assert!(histogram_count("momsynth_journal_write_seconds") > 0, "journal writes timed");
    let text = lines[2].get("text").and_then(|v| v.as_str()).expect("text exposition");
    assert!(text.contains("# TYPE momsynth_jobs_submitted_total counter"), "{text}");

    // (5) A live HTTP scrape of the same registry tells the same story.
    let shutdown = Arc::new(AtomicBool::new(false));
    let (addr, handle) =
        momsynth_serve::spawn_exposition("127.0.0.1:0", server.metrics(), Arc::clone(&shutdown))
            .unwrap();
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    write!(conn, "GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").unwrap();
    let mut scrape = String::new();
    conn.read_to_string(&mut scrape).unwrap();
    assert!(scrape.starts_with("HTTP/1.1 200 OK"), "{scrape}");
    assert!(scrape.contains("momsynth_jobs_submitted_total 1"), "{scrape}");
    assert!(scrape.contains("state=\"verified\""), "{scrape}");
    shutdown.store(true, Ordering::Release);
    handle.join().unwrap();

    // (6) Going terminal journalled a per-job metrics snapshot.
    let snapshot_path = server.journal().metrics_path(&id);
    assert!(snapshot_path.exists(), "terminal transition snapshots metrics");
    let snapshot: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&snapshot_path).unwrap()).unwrap();
    assert!(
        snapshot["counters"].as_array().is_some_and(|c| !c.is_empty()),
        "journalled snapshot is populated"
    );

    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn the_stdio_protocol_round_trips_submit_wait_result() {
    let root = tmp_root("stdio");
    let server = Server::start(config(root.clone())).unwrap();
    let spec = quick_spec(small_system("serve-proto", 12));
    let submit = format!(r#"{{"cmd":"submit","spec":{}}}"#, serde_json::to_string(&spec).unwrap());
    let input = format!(
        "{}\n{submit}\n{}\n{}\n{}\n{}\n",
        r#"{"cmd":"ping"}"#,
        r#"{"cmd":"wait","id":"job-000001","timeout_s":120}"#,
        r#"{"cmd":"result","id":"job-000001"}"#,
        r#"{"cmd":"bogus"}"#,
        r#"{"cmd":"shutdown"}"#,
    );
    let mut output = Vec::new();
    let stop = AtomicBool::new(false);
    let saw_shutdown = socket::serve_session(&server, input.as_bytes(), &mut output, &stop);
    assert!(saw_shutdown, "the shutdown command must be honoured");
    server.shutdown();

    let text = String::from_utf8(output).unwrap();
    let lines: Vec<serde_json::Value> =
        text.lines().map(|l| serde_json::from_str(l).unwrap()).collect();
    assert_eq!(lines.len(), 6, "{text}");
    assert_eq!(lines[0].get("pong").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(lines[1].get("id").and_then(|v| v.as_str()), Some("job-000001"));
    assert_eq!(
        lines[2].get("job").and_then(|j| j.get("state")).and_then(|v| v.as_str()),
        Some("verified"),
        "{text}"
    );
    assert_eq!(
        lines[3].get("result").and_then(|r| r.get("feasible")).and_then(|v| v.as_bool()),
        Some(true)
    );
    assert_eq!(lines[4].get("ok").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(lines[5].get("shutting_down").and_then(|v| v.as_bool()), Some(true));
    std::fs::remove_dir_all(&root).ok();
}
