//! End-to-end tests of the job server: the `--oneshot` stdio transport,
//! the `job` client's documented exit codes, and a SIGKILL chaos run
//! asserting that no admitted job is ever lost, duplicated, or left
//! non-terminal.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn momsynth(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_momsynth")).args(args).output().expect("binary runs")
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("momsynth_serve_test_{}_{name}", std::process::id()));
    p
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

fn generate_system(name: &str, extra: &[&str]) -> PathBuf {
    let path = tmp_path(name);
    let mut args = vec!["generate", "-o", path.to_str().expect("utf-8 temp path")];
    args.extend_from_slice(extra);
    let out = momsynth(&args);
    assert!(out.status.success(), "{}", stderr(&out));
    path
}

/// A single 10 ms software task against a 1 ms period: provably
/// unschedulable, so a submitted job must fail fast and permanently.
fn infeasible_system_json() -> String {
    use momsynth_model::units::{Seconds, Watts};
    use momsynth_model::{
        ArchitectureBuilder, OmsmBuilder, Pe, PeKind, System, TaskGraphBuilder, TechLibraryBuilder,
    };
    let mut tech = TechLibraryBuilder::new();
    let ty = tech.add_type("T");
    let mut arch = ArchitectureBuilder::new();
    let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(0.1)));
    tech.set_impl(
        ty,
        cpu,
        momsynth_model::Implementation::software(
            Seconds::from_millis(10.0),
            Watts::from_milli(20.0),
        ),
    );
    let mut g = TaskGraphBuilder::new("m", Seconds::from_millis(1.0));
    g.add_task("t", ty);
    let mut omsm = OmsmBuilder::new();
    omsm.add_mode("m", 1.0, g.build().unwrap());
    let system =
        System::new("overload", omsm.build().unwrap(), arch.build().unwrap(), tech.build())
            .unwrap();
    serde_json::to_string_pretty(&system).unwrap()
}

/// The whole protocol over stdin/stdout, no socket involved: submit a
/// spec, wait for the verdict, fetch the durable result, shut down.
#[test]
fn oneshot_serves_submit_wait_result_shutdown() {
    let root = tmp_path("oneshot_root");
    let sys_path = generate_system("oneshot_sys.json", &["--preset", "mul9"]);
    let system = std::fs::read_to_string(&sys_path).expect("system readable");
    let system_value: serde_json::Value = serde_json::from_str(&system).expect("valid JSON");

    let spec = serde_json::json!({"system": system_value, "quick": true, "seed": 3});
    let script = [
        r#"{"cmd": "ping"}"#.to_owned(),
        serde_json::to_string(&serde_json::json!({"cmd": "submit", "spec": spec})).unwrap(),
        r#"{"cmd": "wait", "id": "job-000001", "timeout_s": 300}"#.to_owned(),
        r#"{"cmd": "result", "id": "job-000001"}"#.to_owned(),
        r#"{"cmd": "shutdown"}"#.to_owned(),
    ]
    .join("\n");

    let mut child = Command::new(env!("CARGO_BIN_EXE_momsynth"))
        .args(["serve", "--root", root.to_str().expect("utf-8"), "--oneshot"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server spawns");
    child.stdin.take().expect("stdin piped").write_all(script.as_bytes()).expect("script written");
    let out = child.wait_with_output().expect("server exits");
    assert!(out.status.success(), "{}", stderr(&out));

    let lines: Vec<serde_json::Value> = stdout(&out)
        .lines()
        .map(|l| serde_json::from_str(l).expect("every response line is JSON"))
        .collect();
    assert_eq!(lines.len(), 5, "one response per request: {}", stdout(&out));
    assert_eq!(lines[0].get("pong").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(lines[1].get("id").and_then(|v| v.as_str()), Some("job-000001"));
    let state = lines[2].get("job").and_then(|j| j.get("state")).and_then(|v| v.as_str());
    assert_eq!(state, Some("verified"), "{}", lines[2]);
    let result = lines[3].get("result").expect("result payload");
    assert_eq!(result.get("feasible").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(result.get("system").and_then(|v| v.as_str()), Some("mul9"));
    assert_eq!(lines[4].get("shutting_down").and_then(|v| v.as_bool()), Some(true));

    std::fs::remove_file(&sys_path).ok();
    std::fs::remove_dir_all(&root).ok();
}

#[cfg(unix)]
fn spawn_server(root: &str, socket: &str, extra: &[&str]) -> Child {
    let mut args = vec!["serve", "--root", root, "--socket", socket];
    args.extend_from_slice(extra);
    Command::new(env!("CARGO_BIN_EXE_momsynth"))
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server spawns")
}

#[cfg(unix)]
fn await_ping(socket: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if momsynth(&["job", "ping", "--socket", socket]).status.success() {
            return;
        }
        assert!(Instant::now() < deadline, "server never became reachable");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Exercises the client against a live server and pins each documented
/// exit code: 0 verified/reachable, 1 unreachable, 2 failed, 3 cancelled.
#[cfg(unix)]
#[test]
fn job_client_round_trips_and_pins_exit_codes() {
    let root = tmp_path("client_root");
    let socket = tmp_path("client.sock");
    let root_str = root.to_str().expect("utf-8");
    let socket_str = socket.to_str().expect("utf-8");
    let mut server = spawn_server(root_str, socket_str, &["--workers", "2"]);
    await_ping(socket_str);

    // An unreachable socket is exit code 1.
    let out = momsynth(&["job", "ping", "--socket", "/nonexistent/momsynth.sock"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("cannot connect"), "{}", stderr(&out));

    // A feasible quick job verifies: exit code 0.
    let sys_path = generate_system("client_sys.json", &["--preset", "mul9"]);
    let sys_str = sys_path.to_str().expect("utf-8");
    let out = momsynth(&[
        "job", "submit", sys_str, "--socket", socket_str, "--quick", "--seed", "2", "--wait",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("\"verified\""), "{}", stdout(&out));

    // A provably unschedulable system fails permanently: exit code 2.
    let bad_path = tmp_path("client_infeasible.json");
    std::fs::write(&bad_path, infeasible_system_json()).expect("write");
    let out = momsynth(&[
        "job",
        "submit",
        bad_path.to_str().expect("utf-8"),
        "--socket",
        socket_str,
        "--quick",
        "--wait",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}\n{}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("\"failed\""), "{}", stdout(&out));

    // Cancelling a long full-size run is exit code 3 on wait.
    let slow_path = generate_system("client_slow.json", &["--seed", "1", "--modes", "8"]);
    let out = momsynth(&[
        "job",
        "submit",
        slow_path.to_str().expect("utf-8"),
        "--socket",
        socket_str,
        "--seed",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));
    let submitted: serde_json::Value =
        serde_json::from_str(stdout(&out).trim()).expect("submit response is JSON");
    let id = submitted.get("id").and_then(|v| v.as_str()).expect("job id").to_owned();
    let out = momsynth(&["job", "cancel", &id, "--socket", socket_str]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let out = momsynth(&["job", "wait", &id, "--socket", socket_str, "--timeout-s", "60"]);
    assert_eq!(out.status.code(), Some(3), "{}\n{}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("\"cancelled\""), "{}", stdout(&out));

    // `list` sees all three jobs; `status` answers for each of them.
    let out = momsynth(&["job", "list", "--socket", socket_str]);
    assert_eq!(out.status.code(), Some(0));
    let listed: serde_json::Value = serde_json::from_str(stdout(&out).trim()).expect("JSON");
    assert_eq!(listed.get("jobs").and_then(|j| j.as_array()).map(Vec::len), Some(3));

    // Graceful client-driven shutdown: both sides exit 0.
    let out = momsynth(&["job", "shutdown", "--socket", socket_str]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let status = server.wait().expect("server exits");
    assert!(status.success(), "server exits cleanly after shutdown");

    std::fs::remove_file(&sys_path).ok();
    std::fs::remove_file(&bad_path).ok();
    std::fs::remove_file(&slow_path).ok();
    std::fs::remove_dir_all(&root).ok();
}

/// SIGKILL the server mid-synthesis with two admitted jobs, restart it
/// on the same journal, and require that both jobs reach exactly one
/// terminal state each — nothing lost, duplicated, or stuck.
#[cfg(unix)]
#[test]
fn sigkill_mid_run_loses_no_jobs_and_resumes_to_verified() {
    let root = tmp_path("chaos_root");
    let socket = tmp_path("chaos.sock");
    let root_str = root.to_str().expect("utf-8");
    let socket_str = socket.to_str().expect("utf-8");
    let serve_flags =
        ["--workers", "2", "--checkpoint-every", "1", "--checkpoint-every-seconds", "0.2"];
    let mut server = spawn_server(root_str, socket_str, &serve_flags);
    await_ping(socket_str);

    let sys_a = generate_system("chaos_a.json", &["--seed", "4", "--modes", "6"]);
    let sys_b = generate_system("chaos_b.json", &["--seed", "5", "--modes", "6"]);
    let mut ids = Vec::new();
    for sys in [&sys_a, &sys_b] {
        let out = momsynth(&[
            "job",
            "submit",
            sys.to_str().expect("utf-8"),
            "--socket",
            socket_str,
            "--quick",
            "--seed",
            "1",
        ]);
        assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));
        let resp: serde_json::Value = serde_json::from_str(stdout(&out).trim()).expect("JSON");
        ids.push(resp.get("id").and_then(|v| v.as_str()).expect("job id").to_owned());
    }

    // Give synthesis a moment to get under way (and checkpoint), then
    // kill the server without any chance to clean up. The kill point is
    // randomized (wall-clock jitter) so repeated runs strike at
    // different generations — recovery must hold at any of them.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let out = momsynth(&["job", "status", &ids[0], "--socket", socket_str]);
        let state =
            serde_json::from_str::<serde_json::Value>(stdout(&out).trim()).ok().and_then(|v| {
                v.get("job")
                    .and_then(|j| j.get("state"))
                    .and_then(|s| s.as_str())
                    .map(str::to_owned)
            });
        if state.as_deref() != Some("queued") || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let jitter_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .subsec_nanos() as u64
        % 500;
    std::thread::sleep(Duration::from_millis(jitter_ms));
    let kill =
        Command::new("kill").args(["-KILL", &server.id().to_string()]).status().expect("kill runs");
    assert!(kill.success());
    let status = server.wait().expect("server reaped");
    assert!(!status.success(), "SIGKILL is not a clean exit");

    // The journal survived: exactly one record per admitted job.
    let records: Vec<_> = std::fs::read_dir(root.join("jobs"))
        .expect("journal survives the kill")
        .map(|e| e.expect("entry").file_name())
        .filter(|n| n.to_string_lossy().ends_with(".json"))
        .collect();
    assert_eq!(records.len(), 2, "one durable record per job: {records:?}");

    // Restart on the same journal and wait both jobs out.
    let mut server = spawn_server(root_str, socket_str, &serve_flags);
    await_ping(socket_str);
    for id in &ids {
        let out = momsynth(&["job", "wait", id, "--socket", socket_str, "--timeout-s", "300"]);
        assert_eq!(out.status.code(), Some(0), "{id}: {}\n{}", stdout(&out), stderr(&out));
        let resp: serde_json::Value = serde_json::from_str(stdout(&out).trim()).expect("JSON");
        let job = resp.get("job").expect("job status");
        assert_eq!(job.get("state").and_then(|v| v.as_str()), Some("verified"), "{job}");
        assert_eq!(job.get("id").and_then(|v| v.as_str()), Some(id.as_str()));

        let out = momsynth(&["job", "result", id, "--socket", socket_str]);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        let resp: serde_json::Value = serde_json::from_str(stdout(&out).trim()).expect("JSON");
        let result = resp.get("result").expect("durable result");
        assert_eq!(result.get("feasible").and_then(|v| v.as_bool()), Some(true));
    }

    // No duplicates: the restarted server lists exactly the two admitted
    // jobs, each in exactly one terminal state.
    let out = momsynth(&["job", "list", "--socket", socket_str]);
    assert_eq!(out.status.code(), Some(0));
    let listed: serde_json::Value = serde_json::from_str(stdout(&out).trim()).expect("JSON");
    let jobs = listed.get("jobs").and_then(|j| j.as_array()).expect("jobs array");
    assert_eq!(jobs.len(), 2, "{listed}");
    let mut seen: Vec<&str> =
        jobs.iter().map(|j| j.get("id").and_then(|v| v.as_str()).expect("id")).collect();
    seen.sort_unstable();
    let mut expected: Vec<&str> = ids.iter().map(String::as_str).collect();
    expected.sort_unstable();
    assert_eq!(seen, expected);

    let out = momsynth(&["job", "shutdown", "--socket", socket_str]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(server.wait().expect("server exits").success());

    std::fs::remove_file(&sys_a).ok();
    std::fs::remove_file(&sys_b).ok();
    std::fs::remove_dir_all(&root).ok();
}
