//! A served job that asks for the automatic thread count (0) prices on
//! its worker's share of the host's cores, so the server's workers
//! together never oversubscribe the host.

use std::time::Duration;

use momsynth::telemetry::Event;
use momsynth_gen::suite::{generate, mul_params};
use momsynth_serve::{JobSpec, JobState, Server, ServerConfig};

#[test]
fn an_automatic_thread_count_is_the_workers_share_of_the_cores() {
    let mut root = std::env::temp_dir();
    root.push(format!("momsynth_serve_threads_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let mut config = ServerConfig::new(root.clone());
    config.workers = 2;
    let server = Server::start(config).expect("server starts");

    let mut spec = JobSpec::new(generate(&mul_params(9)));
    spec.quick = true;
    assert_eq!(spec.threads, 0, "the automatic count");
    let id = server.submit(&spec).expect("job admitted");
    let status = server.wait_terminal(&id, Duration::from_secs(300)).expect("job finishes");
    assert_eq!(status.record.state, JobState::Verified, "{status:?}");

    let trace = std::fs::read_to_string(server.journal().trace_path(&id)).expect("trace");
    let threads = trace
        .lines()
        .rev()
        .find_map(|l| match serde_json::from_str(l).expect("trace line parses") {
            Event::Summary(summary) => Some(summary.threads),
            _ => None,
        })
        .expect("the run summary is traced");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(threads, (cores / 2).max(1) as u64);

    drop(server);
    std::fs::remove_dir_all(&root).ok();
}
