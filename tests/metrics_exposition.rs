//! The job server's metrics exposition is a pure consumer of the
//! telemetry event stream: after one served job, every core-loop family
//! equals what the job's own trace says. The families exist from server
//! start, and the HTTP exposition survives hostile scrape clients.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use momsynth::metrics::{MetricsSnapshot, Registry};
use momsynth::telemetry::{Counters, Event, Phase};
use momsynth_gen::suite::{generate, mul_params};
use momsynth_serve::{spawn_exposition, JobSpec, JobState, ServeMetrics, Server, ServerConfig};

/// The `Counters` field a counter family mirrors.
type Field = fn(&Counters) -> u64;

/// The three counter families decoded from `Counters`.
const COUNTER_FAMILIES: [(&str, Field); 3] = [
    ("momsynth_evaluations_total", |c| c.evaluated),
    ("momsynth_evaluations_rejected_total", |c| c.rejected),
    ("momsynth_dvs_iterations_total", |c| c.dvs_iterations),
];

/// Every family the core loop records on.
const CORE_LOOP_FAMILIES: [&str; 9] = [
    "momsynth_runs_started_total",
    "momsynth_runs_finished_total",
    "momsynth_run_duration_seconds",
    "momsynth_generations_total",
    "momsynth_evaluations_total",
    "momsynth_evaluations_rejected_total",
    "momsynth_dvs_iterations_total",
    "momsynth_evals_per_sec",
    "momsynth_run_phase_seconds",
];

fn tmp_root(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("momsynth_exposition_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn has_family(snapshot: &MetricsSnapshot, name: &str) -> bool {
    snapshot.counters.iter().any(|c| c.name == name)
        || snapshot.gauges.iter().any(|g| g.name == name)
        || snapshot.histograms.iter().any(|h| h.name == name)
}

/// Serves one quick job of `mul<n>` on a fresh server and checks its
/// exposition against its trace.
fn exposition_matches_trace(n: usize, dvs: bool) {
    let root = tmp_root(&format!("mul{n}_{dvs}"));
    let server = Server::start(ServerConfig::new(root.clone())).expect("server starts");
    let mut spec = JobSpec::new(generate(&mul_params(n)));
    spec.quick = true;
    spec.dvs = dvs;
    let id = server.submit(&spec).expect("job admitted");
    let status = server.wait_terminal(&id, Duration::from_secs(300)).expect("job finishes");
    assert_eq!(status.record.state, JobState::Verified, "mul{n}: {status:?}");

    let trace = std::fs::read_to_string(server.journal().trace_path(&id)).expect("trace");
    let events: Vec<Event> =
        trace.lines().map(|l| serde_json::from_str(l).expect("trace line parses")).collect();
    let generations: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::Generation(g) => Some(g),
            _ => None,
        })
        .collect();
    let phases = events.iter().filter(|e| matches!(e, Event::Phase(_))).count() as u64;
    let last = &generations.last().expect("at least one generation").counters;

    let snapshot = server.metrics_snapshot();
    let counter = |name: &str| snapshot.counter_value(name, &[]).expect(name);
    assert_eq!(counter("momsynth_generations_total"), generations.len() as u64, "mul{n}");
    for (name, field) in COUNTER_FAMILIES {
        assert_eq!(counter(name), field(last), "mul{n}: {name}");
    }
    assert_eq!(counter("momsynth_runs_started_total"), 1, "mul{n}");
    assert_eq!(counter("momsynth_runs_finished_total"), 1, "mul{n}");
    let observed: u64 = Phase::ALL
        .iter()
        .map(|p| {
            snapshot
                .histogram_sample("momsynth_run_phase_seconds", &[("phase", p.name())])
                .map_or(0, |h| h.count)
        })
        .sum();
    assert_eq!(observed, phases, "mul{n}: one observation per Phase event");
    if dvs {
        assert!(last.dvs_iterations > 0, "mul{n}: a DVS run scales voltages");
    }

    drop(server);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn mul9_exposition_equals_its_event_stream() {
    exposition_matches_trace(9, false);
}

#[test]
fn mul11_exposition_equals_its_event_stream() {
    exposition_matches_trace(11, false);
}

#[test]
fn mul2_dvs_exposition_equals_its_event_stream() {
    exposition_matches_trace(2, true);
}

#[test]
fn a_fresh_server_exposes_every_core_loop_family() {
    let root = tmp_root("fresh");
    let server = Server::start(ServerConfig::new(root.clone())).expect("server starts");
    let snapshot = server.metrics_snapshot();
    for family in CORE_LOOP_FAMILIES {
        assert!(has_family(&snapshot, family), "{family} missing before the first job");
    }
    for phase in Phase::ALL {
        assert!(
            snapshot
                .histogram_sample("momsynth_run_phase_seconds", &[("phase", phase.name())])
                .is_some(),
            "phase {} missing before the first job",
            phase.name()
        );
    }
    drop(server);
    std::fs::remove_dir_all(&root).ok();
}

/// Sends a well-formed scrape and returns the reply and how long it took.
fn scrape(addr: SocketAddr) -> (String, Duration) {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).ok();
    (reply, started.elapsed())
}

#[test]
fn hostile_scrape_clients_neither_stall_nor_bloat_the_listener() {
    let metrics = ServeMetrics::new(&Registry::new());
    metrics.jobs_submitted.inc();
    let shutdown = Arc::new(AtomicBool::new(false));
    let (addr, listener) =
        spawn_exposition("127.0.0.1:0", metrics, Arc::clone(&shutdown)).expect("bind");

    // A slow client trickles one byte every 300 ms for up to 8 s and
    // never finishes its request head.
    let mut slow = TcpStream::connect(addr).expect("connect");
    let trickle = std::thread::spawn(move || {
        let started = Instant::now();
        for byte in b"GET /metrics HTTP/1.1\r\nX-Slow: ".iter().cycle() {
            if started.elapsed() > Duration::from_secs(8) || slow.write_all(&[*byte]).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(300));
        }
    });
    // A well-formed scrape queued behind it (connections are accepted
    // in order) is answered once the slow client's deadline passes, not
    // when that client chooses to stop.
    let (reply, waited) = scrape(addr);
    assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
    assert!(waited < Duration::from_secs(6), "scrape stalled for {waited:?}");

    // A 64 MiB head without a newline is refused at the cap, not
    // buffered: the listener hangs up long before the client is done,
    // with a 400 or a bare close, never a 200.
    let mut flood = TcpStream::connect(addr).expect("connect");
    flood.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = flood.try_clone().unwrap();
    let pump = std::thread::spawn(move || {
        let chunk = [b'A'; 64 * 1024];
        (0..1024).take_while(|_| flood.write_all(&chunk).is_ok()).count()
    });
    let mut reply = Vec::new();
    reader.read_to_end(&mut reply).ok();
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.is_empty() || reply.starts_with("HTTP/1.1 400"), "{reply}");
    let chunks = pump.join().unwrap();
    assert!(chunks < 1024, "the listener swallowed the whole 64 MiB head");
    drop(reader);

    // The listener still answers normal scrapes afterwards.
    let (reply, _) = scrape(addr);
    assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
    assert!(reply.contains("momsynth_jobs_submitted_total 1"), "{reply}");

    trickle.join().unwrap();
    shutdown.store(true, Ordering::Release);
    listener.join().unwrap();
}
