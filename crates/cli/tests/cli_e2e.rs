//! End-to-end tests of the `momsynth` binary: generate → info → analyze
//! → dot → synth, via real process invocations.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output};

fn momsynth(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_momsynth")).args(args).output().expect("binary runs")
}

fn tmp_file(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("momsynth_cli_test_{}_{name}", std::process::id()));
    p
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = momsynth(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
    let out = momsynth(&[]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("COMMANDS"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = momsynth(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("frobnicate"));
}

#[test]
fn generate_info_analyze_dot_round_trip() {
    let path = tmp_file("sys.json");
    let path_str = path.to_str().expect("utf-8 temp path");

    let out = momsynth(&["generate", "--preset", "mul9", "-o", path_str]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(path.exists());

    let out = momsynth(&["info", path_str]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("mul9"));
    assert!(text.contains("modes"));
    assert!(text.contains("analysis: clean"), "{text}");

    let out = momsynth(&["analyze", path_str]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("ok: no findings"), "{}", stdout(&out));

    // The analysis is the only spec diagnostic: `lint` is gone.
    let out = momsynth(&["lint", path_str]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown command `lint`"), "{}", stderr(&out));

    for what in ["omsm", "arch", "mode:0"] {
        let out = momsynth(&["dot", path_str, "--what", what]);
        assert!(out.status.success(), "dot --what {what}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("graph"), "dot --what {what} produced: {text}");
    }

    // Out-of-range mode is a clean error.
    let out = momsynth(&["dot", path_str, "--what", "mode:99"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("out of range"));

    std::fs::remove_file(&path).ok();
}

#[test]
fn synth_runs_and_writes_solution() {
    let sys_path = tmp_file("synth_sys.json");
    let sol_path = tmp_file("solution.json");
    let sys_str = sys_path.to_str().expect("utf-8 temp path");
    let sol_str = sol_path.to_str().expect("utf-8 temp path");

    let out = momsynth(&["generate", "--preset", "mul9", "-o", sys_str]);
    assert!(out.status.success());

    let out = momsynth(&["synth", sys_str, "--quick", "--seed", "3", "-o", sol_str]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("average power"));
    assert!(text.contains("mapping:"));
    assert!(text.contains("component"));

    let solution: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&sol_path).expect("solution written"))
            .expect("valid JSON");
    assert_eq!(solution["system"], "mul9");
    assert!(solution["average_power_mw"].as_f64().expect("number") > 0.0);
    assert!(
        solution["mapping"].is_object()
            || solution["mapping"].is_array()
            || !solution["mapping"].is_null()
    );

    std::fs::remove_file(&sys_path).ok();
    std::fs::remove_file(&sol_path).ok();
}

#[test]
fn convert_imports_tgff_and_synthesises() {
    let tgff = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets/sample.tgff");
    let sys_path = tmp_file("converted.json");
    let sys_str = sys_path.to_str().expect("utf-8 temp path");

    let out = momsynth(&["convert", tgff, "-o", sys_str]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("2 modes"));

    let out = momsynth(&["synth", sys_str, "--quick", "--dvs"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("average power"));

    std::fs::remove_file(&sys_path).ok();
}

#[test]
fn convert_reports_parse_errors_with_lines() {
    let bad = tmp_file("bad.tgff");
    std::fs::write(&bad, "@TASK_GRAPH 0 {\n    BOGUS 1\n}\n").expect("write");
    let out = momsynth(&["convert", bad.to_str().expect("utf-8")]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("line 2"), "{}", stderr(&out));
    std::fs::remove_file(&bad).ok();
}

#[test]
fn synth_on_missing_file_fails_cleanly() {
    let out = momsynth(&["synth", "/nonexistent/system.json", "--quick"]);
    assert_eq!(out.status.code(), Some(1), "load errors exit with code 1");
    assert!(stderr(&out).contains("cannot read"));
}

#[test]
fn usage_errors_exit_with_code_1() {
    assert_eq!(momsynth(&["frobnicate"]).status.code(), Some(1));
    assert_eq!(momsynth(&["synth"]).status.code(), Some(1));
    assert_eq!(momsynth(&["synth", "s.json", "--max-seconds", "nope"]).status.code(), Some(1));
}

/// Flag values the engine cannot take are usage errors, not crashes.
#[test]
fn out_of_range_flag_values_exit_with_code_1() {
    let out = momsynth(&["generate", "--modes", "0"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("invalid --modes"), "{}", stderr(&out));

    let sys_path = tmp_file("budget_range_sys.json");
    let sys_str = sys_path.to_str().expect("utf-8 temp path");
    assert!(momsynth(&["generate", "--preset", "mul1", "-o", sys_str]).status.success());
    let out = momsynth(&["prove", sys_str, "--quick", "--budget", "1e300s"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("invalid --budget"), "{}", stderr(&out));
    std::fs::remove_file(&sys_path).ok();
}

/// A single 10 ms software task against a 1 ms period: the static
/// analyzer proves no mapping can be feasible, so `synth` must fail fast
/// with exit code 2 and `analyze` must report the same proof.
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

#[test]
fn infeasible_best_solution_exits_with_code_2() {
    let sys_path = tmp_file("infeasible.json");
    std::fs::write(&sys_path, infeasible_system_json()).expect("write");
    let out = momsynth(&["synth", sys_path.to_str().expect("utf-8"), "--quick"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("provably infeasible"), "{}", stderr(&out));
    assert!(stdout(&out).contains("period-below-critical-path"), "{}", stdout(&out));
    std::fs::remove_file(&sys_path).ok();
}

#[test]
fn analyze_reports_infeasibility_with_code_2() {
    let sys_path = tmp_file("analyze_infeasible.json");
    let report_path = tmp_file("analyze_infeasible_report.json");
    std::fs::write(&sys_path, infeasible_system_json()).expect("write");
    let out = momsynth(&[
        "analyze",
        sys_path.to_str().expect("utf-8"),
        "--report-out",
        report_path.to_str().expect("utf-8"),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("period-below-critical-path"), "{text}");
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&report_path).expect("report written"))
            .expect("valid JSON report");
    assert_eq!(report.get("clean").and_then(|v| v.as_bool()), Some(false));
    std::fs::remove_file(&sys_path).ok();
    std::fs::remove_file(&report_path).ok();
}

#[test]
fn analyze_accepts_a_feasible_system() {
    let sys_path = tmp_file("analyze_feasible.json");
    let sys_str = sys_path.to_str().expect("utf-8");
    let out = momsynth(&["generate", "--preset", "smartphone", "-o", sys_str]);
    assert!(out.status.success());
    let out = momsynth(&["analyze", sys_str]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("p̄_LB"), "{}", stdout(&out));
    std::fs::remove_file(&sys_path).ok();
}

#[test]
fn evaluation_budget_reports_stop_reason() {
    let sys_path = tmp_file("budget_sys.json");
    let sys_str = sys_path.to_str().expect("utf-8 temp path");
    let out = momsynth(&["generate", "--preset", "mul9", "-o", sys_str]);
    assert!(out.status.success());

    let out = momsynth(&["synth", sys_str, "--quick", "--seed", "1", "--max-evals", "30"]);
    // Feasibility of the truncated best is system-dependent; either way
    // the run must report a well-formed result tagged with the budget.
    assert!(matches!(out.status.code(), Some(0 | 2)), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("evaluation budget exhausted"), "{text}");
    assert!(text.contains("mapping:"), "{text}");

    std::fs::remove_file(&sys_path).ok();
}

#[test]
fn checkpoint_resume_reproduces_uninterrupted_mapping() {
    let sys_path = tmp_file("cp_sys.json");
    let cp_path = tmp_file("cp.json");
    let sys_str = sys_path.to_str().expect("utf-8 temp path");
    let cp_str = cp_path.to_str().expect("utf-8 temp path");
    let out = momsynth(&["generate", "--preset", "mul9", "-o", sys_str]);
    assert!(out.status.success());

    let mapping_line = |out: &Output| {
        stdout(out).lines().find(|l| l.starts_with("mapping:")).expect("mapping line").to_owned()
    };

    let full = momsynth(&["synth", sys_str, "--quick", "--seed", "7"]);
    assert!(full.status.success(), "{}", stderr(&full));

    // Interrupt an identical run mid-flight, checkpointing every
    // generation …
    let cut = momsynth(&[
        "synth",
        sys_str,
        "--quick",
        "--seed",
        "7",
        "--max-evals",
        "60",
        "--checkpoint",
        cp_str,
        "--checkpoint-every",
        "1",
    ]);
    assert!(matches!(cut.status.code(), Some(0 | 2)), "{}", stderr(&cut));
    assert!(cp_path.exists(), "checkpoint must have been written");

    // … then resume without the budget: the final mapping must match the
    // uninterrupted run's.
    let resumed = momsynth(&["synth", sys_str, "--quick", "--seed", "7", "--resume", cp_str]);
    assert!(resumed.status.success(), "{}", stderr(&resumed));
    assert_eq!(mapping_line(&full), mapping_line(&resumed));

    // Resuming against the wrong seed is a clean, typed failure.
    let mismatched = momsynth(&["synth", sys_str, "--quick", "--seed", "8", "--resume", cp_str]);
    assert_eq!(mismatched.status.code(), Some(1));
    assert!(stderr(&mismatched).contains("seed"), "{}", stderr(&mismatched));

    std::fs::remove_file(&sys_path).ok();
    std::fs::remove_file(&cp_path).ok();
}

#[cfg(unix)]
#[test]
fn sigint_reports_best_so_far_and_exits_with_code_3() {
    let sys_path = tmp_file("sigint_sys.json");
    let sys_str = sys_path.to_str().expect("utf-8 temp path");
    let out = momsynth(&["generate", "--seed", "1", "--modes", "10", "-o", sys_str]);
    assert!(out.status.success());

    // Interrupt a full-size (non --quick) synthesis once its first
    // generation line shows it is inside the GA loop, however fast the
    // host runs it.
    let mut child = Command::new(env!("CARGO_BIN_EXE_momsynth"))
        .args(["synth", sys_str, "--seed", "0", "--progress"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let pipe = child.stderr.take().expect("stderr is piped");
    let mut progress = BufReader::new(pipe).lines().map_while(Result::ok);
    let started = progress.by_ref().any(|line| line.trim_start().starts_with("gen "));
    assert!(started, "synth exited before its first generation");
    let kill =
        Command::new("kill").args(["-INT", &child.id().to_string()]).status().expect("kill runs");
    assert!(kill.success());
    // Keep draining stderr so the child never blocks on a full pipe.
    let drain = std::thread::spawn(move || progress.collect::<Vec<_>>().join("\n"));
    let out = child.wait_with_output().expect("child exits");
    let seen = drain.join().expect("drain thread");

    assert_eq!(out.status.code(), Some(3), "{seen}");
    let text = stdout(&out);
    assert!(text.contains("stopped: cancelled"), "{text}");
    assert!(text.contains("mapping:"), "{text}");

    std::fs::remove_file(&sys_path).ok();
}

#[test]
fn generate_freeform_respects_modes() {
    let path = tmp_file("freeform.json");
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = momsynth(&["generate", "--seed", "5", "--modes", "3", "-o", path_str]);
    assert!(out.status.success());
    let system: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("written")).expect("JSON");
    assert_eq!(system["omsm"]["modes"].as_array().expect("modes array").len(), 3);
    std::fs::remove_file(&path).ok();
}

/// The field `name` of a JSON object.
fn field<'a>(value: &'a mut serde_json::Value, name: &str) -> &'a mut serde_json::Value {
    let serde_json::Value::Object(entries) = value else { panic!("expected an object") };
    &mut entries.iter_mut().find(|(key, _)| key == name).expect("field present").1
}

/// The items of a JSON array.
fn items(value: &mut serde_json::Value) -> &mut Vec<serde_json::Value> {
    let serde_json::Value::Array(items) = value else { panic!("expected an array") };
    items
}

/// `check` reports a solution whose comm table is cut short, or whose
/// transfer names a link the architecture lacks, as malformed: exit 2
/// with a report, not a panic.
#[test]
fn check_reports_malformed_comm_tables() {
    let sys_path = tmp_file("comm_sys.json");
    let sol_path = tmp_file("comm_sol.json");
    let bad_path = tmp_file("comm_bad.json");
    let rep_path = tmp_file("comm_rep.json");
    let sys_str = sys_path.to_str().expect("utf-8 temp path");
    let sol_str = sol_path.to_str().expect("utf-8 temp path");
    let bad_str = bad_path.to_str().expect("utf-8 temp path");
    let rep_str = rep_path.to_str().expect("utf-8 temp path");

    let out = momsynth(&["generate", "--preset", "automotive", "-o", sys_str]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = momsynth(&["synth", sys_str, "--quick", "--seed", "1", "-o", sol_str]);
    assert!(out.status.success(), "{}", stderr(&out));
    let solution: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&sol_path).expect("written")).expect("JSON");

    let cut = |comms: &mut Vec<serde_json::Value>| comms.truncate(1);
    let relink = |comms: &mut Vec<serde_json::Value>| {
        let transfer = comms.iter_mut().find(|c| !c.is_null()).expect("a routed transfer");
        *field(transfer, "cl") = serde_json::json!(99);
    };
    for (name, edit) in [("cut", &cut as &dyn Fn(&mut Vec<serde_json::Value>)), ("relink", &relink)]
    {
        let mut bad = solution.clone();
        edit(items(field(&mut items(field(&mut bad, "schedules"))[0], "comms")));
        std::fs::write(&bad_path, serde_json::to_string_pretty(&bad).expect("JSON"))
            .expect("write");
        let out = momsynth(&["check", sys_str, bad_str, "--report-out", rep_str]);
        assert_eq!(out.status.code(), Some(2), "{name}: {}\n{}", stdout(&out), stderr(&out));
        assert!(!stderr(&out).contains("panicked"), "{name}: {}", stderr(&out));
        let report: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&rep_path).expect("report written"))
                .expect("valid JSON");
        assert_eq!(report["clean"].as_bool(), Some(false), "{name}");
        let codes: Vec<&str> = report["violations"]
            .as_array()
            .expect("violations")
            .iter()
            .map(|v| v["code"].as_str().expect("code"))
            .collect();
        assert!(!codes.is_empty() && codes.iter().all(|&c| c == "malformed"), "{name}: {codes:?}");
        std::fs::remove_file(&rep_path).ok();
    }

    for path in [&sys_path, &sol_path, &bad_path] {
        std::fs::remove_file(path).ok();
    }
}

/// `check` re-proves a clean solution (exit 0) and rejects a corrupted
/// one (exit 2), with the JSON report mirroring both verdicts.
#[test]
fn check_verifies_clean_solutions_and_rejects_corrupted_ones() {
    let sys_path = tmp_file("check_sys.json");
    let sol_path = tmp_file("check_sol.json");
    let rep_path = tmp_file("check_rep.json");
    let sys_str = sys_path.to_str().expect("utf-8 temp path");
    let sol_str = sol_path.to_str().expect("utf-8 temp path");
    let rep_str = rep_path.to_str().expect("utf-8 temp path");

    let out = momsynth(&["generate", "--preset", "smartphone", "-o", sys_str]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = momsynth(&["synth", sys_str, "--quick", "--dvs", "--seed", "1", "-o", sol_str]);
    assert!(out.status.success(), "{}", stderr(&out));

    // The genuine solution re-verifies with zero violations.
    let out = momsynth(&["check", sys_str, sol_str, "--report-out", rep_str]);
    assert_eq!(out.status.code(), Some(0), "{}\n{}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("no violations"), "{}", stdout(&out));
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&rep_path).expect("report written"))
            .expect("valid JSON");
    assert_eq!(report["clean"].as_bool(), Some(true));
    assert_eq!(report["violation_count"].as_u64(), Some(0));

    // Inflate the reported Eq. 1 average (its field appears exactly once
    // in the report); the independent recompute must notice.
    let text = std::fs::read_to_string(&sol_path).expect("solution readable");
    assert_eq!(text.matches("\"average\":").count(), 1, "p̄ field must be unique");
    let start = text.find("\"average\":").expect("p̄ field") + "\"average\":".len();
    let end = start + text[start..].find([',', '\n', '}']).expect("number terminator");
    let average: f64 = text[start..end].trim().parse().expect("p̄ is a number");
    let corrupted = format!("{}{}{}", &text[..start], average * 1.5, &text[end..]);
    std::fs::write(&sol_path, corrupted).expect("write");

    let out = momsynth(&["check", sys_str, sol_str, "--report-out", rep_str]);
    assert_eq!(out.status.code(), Some(2), "{}\n{}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("average-power-mismatch"), "{}", stdout(&out));
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&rep_path).expect("report written"))
            .expect("valid JSON");
    assert_eq!(report["clean"].as_bool(), Some(false));
    assert!(report["violation_count"].as_u64().expect("count") >= 1);

    // A structurally broken solution file is a load error (exit 1), not
    // a crash and not a "verified" verdict.
    std::fs::write(&sol_path, "{\"system\": \"smartphone\"}").expect("write");
    let out = momsynth(&["check", sys_str, sol_str]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("not a solution report"), "{}", stderr(&out));

    std::fs::remove_file(&sys_path).ok();
    std::fs::remove_file(&sol_path).ok();
    std::fs::remove_file(&rep_path).ok();
}
