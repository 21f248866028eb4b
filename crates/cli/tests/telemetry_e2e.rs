//! End-to-end telemetry checks against the real `momsynth` binary:
//! `--trace-out` emits schema-valid JSONL, `--metrics-out` emits a
//! parseable [`RunSummary`], and `--quiet` runs are silent.

use std::path::PathBuf;
use std::process::{Command, Output};

use momsynth_telemetry::{Event, RunSummary};

fn momsynth(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_momsynth")).args(args).output().expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("momsynth_cli_e2e_{}_{name}", std::process::id()));
    p
}

/// Generates the smartphone example system into a temp file.
fn smartphone_json(name: &str) -> PathBuf {
    let path = tmp(name);
    let out = momsynth(&["generate", "--preset", "smartphone", "-o", path.to_str().unwrap()]);
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    path
}

#[test]
fn quiet_run_writes_valid_trace_and_metrics_and_stays_silent() {
    let system = smartphone_json("sys_quiet.json");
    let trace = tmp("events.jsonl");
    let metrics = tmp("summary.json");
    let out = momsynth(&[
        "synth",
        system.to_str().unwrap(),
        "--quick",
        "--seed",
        "1",
        "--quiet",
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "synth failed (status {:?}): {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "quiet run printed to stdout: {:?}", out.stdout);
    assert!(out.stderr.is_empty(), "quiet run printed to stderr: {:?}", out.stderr);

    // Every trace line must parse as a typed event; the stream is
    // bracketed by RunStart and Summary.
    let text = std::fs::read_to_string(&trace).unwrap();
    let events: Vec<Event> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("trace line parses as Event"))
        .collect();
    assert!(events.len() >= 3, "expected a non-trivial trace, got {} events", events.len());
    assert!(matches!(events.first(), Some(Event::RunStart(_))));
    assert!(matches!(events.last(), Some(Event::Summary(_))));
    let generations = events.iter().filter(|e| matches!(e, Event::Generation(_))).count();
    assert!(generations > 0, "trace must contain generation events");

    // The metrics document is the same summary the trace ends with.
    let summary: RunSummary =
        serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(summary.system, "smartphone");
    assert!(summary.generations as usize + 1 >= generations);
    let Some(Event::Summary(trace_summary)) = events.last() else { unreachable!() };
    assert_eq!(summary.normalized(), trace_summary.clone().normalized());

    for p in [system, trace, metrics] {
        std::fs::remove_file(&p).ok();
    }
}

/// `momsynth profile` folds a real trace into per-phase self time, in
/// both the human table and the flamegraph collapsed-stack format.
#[test]
fn profile_folds_a_real_trace_into_self_time() {
    let system = smartphone_json("sys_profile.json");
    let trace = tmp("profile_events.jsonl");
    let out = momsynth(&[
        "synth",
        system.to_str().unwrap(),
        "--quick",
        "--seed",
        "1",
        "--quiet",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Human-readable report: a ranked table of phase paths.
    let out = momsynth(&["profile", trace.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("SELF"), "header missing: {table}");
    assert!(table.contains("run;fitness_eval"), "phase paths missing: {table}");

    // Collapsed-stack output: `path self_nanos` lines flamegraph
    // tooling accepts, written through `-o`.
    let collapsed_path = tmp("profile.collapsed");
    let out = momsynth(&[
        "profile",
        trace.to_str().unwrap(),
        "--collapsed",
        "-o",
        collapsed_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let collapsed = std::fs::read_to_string(&collapsed_path).unwrap();
    for line in collapsed.lines() {
        let (path, nanos) = line.rsplit_once(' ').expect("`path nanos` shape");
        assert!(path.starts_with("run"), "{line}");
        assert!(nanos.parse::<u64>().expect("nanos parse") > 0, "{line}");
    }
    assert!(
        collapsed.lines().any(|l| l.starts_with("run;fitness_eval;")),
        "inner phases present: {collapsed}"
    );

    // A file with no timing data is a clean, documented failure.
    let empty = tmp("profile_empty.jsonl");
    std::fs::write(&empty, "\n").unwrap();
    let out = momsynth(&["profile", empty.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no timing data"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    for p in [system, trace, collapsed_path, empty] {
        std::fs::remove_file(&p).ok();
    }
}

#[test]
fn progress_run_reports_generations_on_stderr() {
    let system = smartphone_json("sys_progress.json");
    let out =
        momsynth(&["synth", system.to_str().unwrap(), "--quick", "--seed", "1", "--progress"]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("gen "), "progress output missing: {stderr}");
    assert!(stderr.contains("done:"), "summary line missing: {stderr}");
    std::fs::remove_file(&system).ok();
}

#[test]
fn progress_and_quiet_conflict_is_a_usage_error() {
    let out = momsynth(&["synth", "sys.json", "--progress", "--quiet"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
}
