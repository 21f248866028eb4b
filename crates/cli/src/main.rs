//! `momsynth` — command-line front end for multi-mode co-synthesis.
//!
//! See [`args::HELP`] or run `momsynth help` for usage. System
//! specifications are the JSON serialisation of
//! [`momsynth_model::System`]; the `generate` subcommand produces them and
//! `synth` consumes them.
//!
//! # Exit codes
//!
//! | code | meaning                                                    |
//! |------|------------------------------------------------------------|
//! | 0    | success; for `synth`, the best solution is feasible        |
//! | 1    | usage error, unreadable/invalid input, or synthesis failure|
//! | 2    | `synth` finished but the best solution violates constraints|
//! | 3    | `synth` was cancelled (Ctrl-C); best-so-far was reported   |

mod args;
mod profile;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use momsynth_check::StoredSolution;
use momsynth_core::telemetry::{Fanout, JsonlSink, ProgressSink, Sink, WarningSink};
use momsynth_core::{
    Checkpoint, CheckpointSpec, ProveOptions, StopReason, SynthControl, SynthesisError, Synthesizer,
};
use momsynth_gen::suite::{generate, mul, GeneratorParams};
use momsynth_model::{dot, lint, System};
use momsynth_power::energy_breakdown;
use momsynth_serve::JobSpec;

use args::{parse, Command, DotTarget, Flow, GeneratePreset, JobRequest, ProveBudget, HELP};

/// `synth` finished but the best solution violates constraints.
const EXIT_INFEASIBLE: u8 = 2;
/// `synth` was cancelled (Ctrl-C) and reported its best-so-far solution.
const EXIT_CANCELLED: u8 = 3;

/// Cooperative Ctrl-C handling: the first SIGINT raises a stop flag the
/// synthesis loop polls between evaluations, so the run winds down and
/// still reports (and checkpoints) its best-so-far solution.
#[cfg(unix)]
#[allow(unsafe_code)] // libc signal(2) shim; the only unsafe in the workspace
mod sigint {
    use momsynth_sync::sync::atomic::{AtomicBool, Ordering};

    /// Raised by the signal handler, polled by the synthesis loop.
    /// SeqCst on both sides: a signal handler may fire on any thread
    /// and this flag is the only channel out of it.
    pub static STOP: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    extern "C" fn handle(_: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    /// Installs the SIGINT handler (idempotent).
    pub fn install() {
        unsafe {
            signal(SIGINT, handle);
        }
    }

    /// Additionally treats SIGTERM as a graceful-stop request (the job
    /// server installs this so service managers can stop it cleanly).
    pub fn install_term() {
        unsafe {
            signal(SIGTERM, handle);
        }
    }
}

#[cfg(not(unix))]
mod sigint {
    use momsynth_sync::sync::atomic::AtomicBool;

    /// Never raised on platforms without the Unix signal shim.
    pub static STOP: AtomicBool = AtomicBool::new(false);

    /// No-op.
    pub fn install() {}

    /// No-op.
    pub fn install_term() {}
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(command) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load_system(path: &str) -> Result<System, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Ok(serde_json::from_str(&text).map_err(|e| format!("cannot parse `{path}`: {e}"))?)
}

/// The job spec of a `flow` run on `system`. `synth` and `prove` take
/// their synthesis config from it too, so every front end configures a
/// run the way the job server does.
fn job_spec(system: System, flow: &Flow) -> JobSpec {
    JobSpec {
        seed: flow.seed,
        quick: flow.quick,
        dvs: flow.dvs,
        neglect: flow.neglect,
        threads: flow.threads,
        max_seconds: flow.max_seconds,
        max_evaluations: flow.max_evals,
        ..JobSpec::new(system)
    }
}

/// The flow's optimisation target and voltage mode, for progress lines.
fn flow_label(flow: &Flow) -> String {
    format!(
        "{}, {}",
        if flow.neglect { "probability-neglecting" } else { "probability-aware" },
        if flow.dvs { "DVS" } else { "fixed voltage" },
    )
}

fn write_output(path: &str, contents: &str, quiet: bool) -> Result<(), Box<dyn std::error::Error>> {
    if path == "-" {
        print!("{contents}");
    } else {
        std::fs::write(path, contents).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        if !quiet {
            eprintln!("wrote {path}");
        }
    }
    Ok(())
}

fn run(command: Command) -> Result<ExitCode, Box<dyn std::error::Error>> {
    match command {
        Command::Help => {
            print!("{HELP}");
            Ok(ExitCode::SUCCESS)
        }
        Command::Info { path } => {
            let system = load_system(&path)?;
            println!("{}", system.summary());
            for (_, mode) in system.omsm().modes() {
                println!(
                    "  {:<20} Ψ={:<6.3} {:>4} tasks {:>4} edges  period {:.3} ms",
                    mode.name(),
                    mode.probability(),
                    mode.graph().task_count(),
                    mode.graph().comm_count(),
                    mode.graph().period().as_millis(),
                );
            }
            let shared = system.shared_types();
            if !shared.is_empty() {
                let names: Vec<&str> =
                    shared.iter().map(|&t| system.tech().type_name(t)).collect();
                println!("shared task types: {}", names.join(", "));
            }
            let warnings = lint::lint_system(&system);
            if warnings.is_empty() {
                println!("lint: clean");
            } else {
                println!("lint: {} warning(s) — run `momsynth lint`", warnings.len());
            }
            Ok(ExitCode::SUCCESS)
        }
        Command::Lint { path } => {
            let system = load_system(&path)?;
            let warnings = lint::lint_system(&system);
            if warnings.is_empty() {
                println!("no diagnostics");
            }
            for w in warnings {
                println!("warning: {w}");
            }
            Ok(ExitCode::SUCCESS)
        }
        Command::Dot { path, what } => {
            let system = load_system(&path)?;
            let text = match what {
                DotTarget::Omsm => dot::omsm_to_dot(system.omsm()),
                DotTarget::Arch => dot::architecture_to_dot(system.arch()),
                DotTarget::Mode(n) => {
                    if n >= system.omsm().mode_count() {
                        return Err(format!(
                            "mode {n} out of range (system has {})",
                            system.omsm().mode_count()
                        )
                        .into());
                    }
                    dot::task_graph_to_dot(
                        system.omsm().mode(momsynth_model::ids::ModeId::new(n)).graph(),
                    )
                }
            };
            print!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        Command::Convert { path, output } => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let stem = std::path::Path::new(&path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("imported");
            let system = momsynth_gen::tgff::parse_system(stem, &text)?;
            let json = serde_json::to_string_pretty(&system)?;
            write_output(&output, &json, false)?;
            eprintln!("{}", system.summary());
            Ok(ExitCode::SUCCESS)
        }
        Command::Generate { preset, seed, modes, output } => {
            let system = match preset {
                Some(GeneratePreset::Mul(n)) => mul(n),
                Some(GeneratePreset::Smartphone) => momsynth_gen::smartphone::smartphone(),
                Some(GeneratePreset::Automotive) => momsynth_gen::automotive::automotive_ecu(),
                None => {
                    let mut params = GeneratorParams::new(format!("generated_{seed}"), seed);
                    params.modes = modes;
                    generate(&params)
                }
            };
            let json = serde_json::to_string_pretty(&system)?;
            write_output(&output, &json, false)?;
            eprintln!("{}", system.summary());
            Ok(ExitCode::SUCCESS)
        }
        Command::Analyze { path, report_out } => {
            let system = load_system(&path)?;
            let analysis = momsynth_analyze::analyze_system(&system);
            println!("{analysis}");
            if let Some(p) = &report_out {
                write_output(p, &serde_json::to_string_pretty(&analysis.to_json())?, false)?;
            }
            Ok(if analysis.has_errors() {
                ExitCode::from(EXIT_INFEASIBLE)
            } else {
                ExitCode::SUCCESS
            })
        }
        Command::Prove { path, budget, flow, report_out, quiet } => {
            let spec = job_spec(load_system(&path)?, &flow);
            let (system, config) = (&spec.system, spec.config());
            if !quiet {
                eprintln!(
                    "synthesising `{}` for an incumbent ({}) …",
                    system.name(),
                    flow_label(&flow)
                );
            }
            let result = match Synthesizer::new(system, config.clone()).run() {
                Ok(result) => result,
                Err(SynthesisError::Infeasible(analysis)) => {
                    if !quiet {
                        eprintln!("specification is provably infeasible; nothing to certify");
                        print!("{analysis}");
                    }
                    return Ok(ExitCode::from(EXIT_INFEASIBLE));
                }
                Err(e) => return Err(e.into()),
            };
            let mut options =
                ProveOptions { incumbent: Some(result.best.fitness), ..ProveOptions::default() };
            match budget {
                ProveBudget::Evals(n) => options.max_evals = n,
                ProveBudget::Seconds(t) => {
                    options.max_evals = u64::MAX;
                    // The parser bounds `t` to a valid `Duration`; the
                    // clock may still be unable to reach it.
                    let deadline = Instant::now().checked_add(Duration::from_secs_f64(t));
                    options.deadline = Some(deadline.ok_or(format!("invalid --budget `{t}s`"))?);
                }
            }
            if !quiet {
                eprintln!("certifying with branch-and-bound ({budget:?}) …");
            }
            let cert = match momsynth_core::prove(system, &config, &options) {
                Ok(cert) => cert,
                Err(SynthesisError::Infeasible(analysis)) => {
                    if !quiet {
                        print!("{analysis}");
                    }
                    return Ok(ExitCode::from(EXIT_INFEASIBLE));
                }
                Err(e) => return Err(e.into()),
            };

            // Re-prove the reported best — the search's own winner when
            // it undercut the GA, the GA's otherwise — with the
            // independent checker before trusting the certificate.
            let reported = cert.best.as_ref().unwrap_or(&result.best);
            let report = momsynth_core::verify_solution(system, reported);
            if !report.is_clean() {
                if !quiet {
                    eprintln!("certified solution failed independent re-verification:");
                    print!("{report}");
                }
                return Ok(ExitCode::from(EXIT_INFEASIBLE));
            }

            if !quiet {
                println!("certificate: {}", cert.status);
                println!("  GA best fitness        {:.9}", result.best.fitness);
                if let Some(best) = cert.best_fitness {
                    println!("  certified best fitness {best:.9}");
                }
                println!("  certified lower bound  {:.9}", cert.lower_bound);
                // Search spaces routinely exceed u64; keep big ones
                // readable in scientific notation.
                let space = if cert.search_space < 1e9 {
                    format!("{:.0}", cert.search_space)
                } else {
                    format!("{:.2e}", cert.search_space)
                };
                println!(
                    "  searched {space} assignments: {} leaves priced, {} subtrees cut by bound",
                    cert.explored, cert.pruned_by_bound,
                );
                println!(
                    "  static domain pruning: {} of {} candidates ({} deadline, {} dominance)",
                    cert.domain_reduction.pruned_by_deadline
                        + cert.domain_reduction.pruned_by_dominance,
                    cert.domain_reduction.total_candidates,
                    cert.domain_reduction.pruned_by_deadline,
                    cert.domain_reduction.pruned_by_dominance,
                );
                println!("  independent re-verification: clean");
            }

            if let Some(p) = &report_out {
                let mut json = cert.to_json();
                if let serde_json::Value::Object(fields) = &mut json {
                    fields.push(("system".into(), serde_json::json!(system.name())));
                    fields.push((
                        "ga_best_fitness".into(),
                        serde_json::json!(result.best.fitness),
                    ));
                }
                write_output(p, &serde_json::to_string_pretty(&json)?, quiet)?;
            }
            Ok(ExitCode::SUCCESS)
        }
        Command::Check { path, solution, report_out } => {
            let system = load_system(&path)?;
            let text = std::fs::read_to_string(&solution)
                .map_err(|e| format!("cannot read `{solution}`: {e}"))?;
            let value: serde_json::Value = serde_json::from_str(&text)
                .map_err(|e| format!("cannot parse `{solution}`: {e}"))?;
            let stored = StoredSolution::from_json(&value)
                .map_err(|e| format!("`{solution}` is not a solution report: {e}"))?;
            // A deeply corrupted solution (e.g. ids far out of range that
            // the shape pass cannot anticipate) may panic inside model
            // accessors; surface that as a load error, not a crash.
            let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                stored.check(&system)
            }))
            .map_err(|_| format!("`{solution}` is malformed beyond checking"))?;
            println!("{report}");
            if let Some(p) = &report_out {
                write_output(p, &serde_json::to_string_pretty(&report.to_json())?, false)?;
            }
            Ok(if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(EXIT_INFEASIBLE)
            })
        }
        Command::Synth {
            path,
            flow,
            checkpoint,
            checkpoint_every,
            resume,
            output,
            vcd,
            trace_out,
            metrics_out,
            progress,
            quiet,
        } => {
            let spec = job_spec(load_system(&path)?, &flow);
            let system = &spec.system;
            let resume = match resume {
                Some(p) => {
                    // Torn or corrupt primary checkpoints fall back to the
                    // `.bak` sibling kept by every save, with a warning.
                    let (cp, recovered) = Checkpoint::load_resilient(Path::new(&p))?;
                    if let Some(note) = recovered {
                        eprintln!("warning: {note}");
                    }
                    Some(cp)
                }
                None => None,
            };
            sigint::install();

            // Telemetry: a fan-out of whatever the flags ask for. The
            // warning-only sink keeps checkpoint-save failures visible on
            // stderr without the cost of building trace events.
            let mut sink = Fanout::new();
            if let Some(p) = &trace_out {
                let jsonl = JsonlSink::create(Path::new(p))
                    .map_err(|e| format!("cannot create `{p}`: {e}"))?;
                sink.push(Box::new(jsonl));
            }
            if progress {
                sink.push(Box::new(ProgressSink));
            } else if !quiet {
                sink.push(Box::new(WarningSink));
            }

            let control = SynthControl {
                stop: Some(&sigint::STOP),
                checkpoint: checkpoint
                    .map(|p| CheckpointSpec::every_generations(PathBuf::from(p), checkpoint_every)),
                resume,
                sink: Some(&sink),
                trace_id: None,
            };
            if !quiet {
                eprintln!("synthesising `{}` ({}) …", system.name(), flow_label(&flow));
            }
            let synthesizer = Synthesizer::new(system, spec.config());
            let result = match synthesizer.run_controlled(control) {
                Ok(result) => result,
                Err(SynthesisError::Infeasible(analysis)) => {
                    // The pre-synthesis analyzer proved no implementation
                    // can meet the constraints; report the proof instead
                    // of a solution and exit like an infeasible best.
                    sink.flush();
                    if !quiet {
                        eprintln!("specification is provably infeasible; synthesis not started");
                        print!("{analysis}");
                    }
                    return Ok(ExitCode::from(EXIT_INFEASIBLE));
                }
                Err(e) => return Err(e.into()),
            };
            sink.flush();
            if !quiet {
                print_solution(system, &result);
            }

            if let Some(p) = &metrics_out {
                let summary = result.summary(system, synthesizer.config());
                write_output(p, &serde_json::to_string_pretty(&summary)?, quiet)?;
            }

            if let Some(dir) = vcd {
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("cannot create `{dir}`: {e}"))?;
                for schedule in &result.best.schedules {
                    let mode = system.omsm().mode(schedule.mode());
                    let text = momsynth_sched::schedule_to_vcd(system, schedule);
                    let file = format!("{dir}/{}.vcd", mode.name().replace(char::is_whitespace, "_"));
                    std::fs::write(&file, text)
                        .map_err(|e| format!("cannot write `{file}`: {e}"))?;
                    if !quiet {
                        eprintln!("wrote {file}");
                    }
                }
            }

            if let Some(path) = output {
                let report = result.report(system);
                write_output(&path, &serde_json::to_string_pretty(&report)?, quiet)?;
            }
            Ok(if result.stop_reason == StopReason::Cancelled {
                ExitCode::from(EXIT_CANCELLED)
            } else if !result.best.is_feasible() {
                ExitCode::from(EXIT_INFEASIBLE)
            } else {
                ExitCode::SUCCESS
            })
        }
        Command::Serve { config, socket, oneshot, metrics_listen } => {
            use momsynth_sync::sync::atomic::{AtomicBool, Ordering};
            use momsynth_sync::sync::Arc;

            let root = config.root.clone();
            let server = momsynth_serve::Server::start(config)?;
            for note in server.recovery_notes() {
                eprintln!("recovery: {note}");
            }
            sigint::install();
            sigint::install_term();
            // Prometheus exposition endpoint, stopped when serving ends.
            let exposition_stop = Arc::new(AtomicBool::new(false));
            let exposition = match &metrics_listen {
                Some(addr) => {
                    let (bound, handle) = momsynth_serve::spawn_exposition(
                        addr,
                        server.metrics(),
                        Arc::clone(&exposition_stop),
                    )
                    .map_err(|e| format!("cannot listen on `{addr}`: {e}"))?;
                    eprintln!("metrics exposition on http://{bound}/metrics");
                    Some(handle)
                }
                None => None,
            };
            let served = if oneshot {
                let stdin = std::io::stdin();
                let stdout = std::io::stdout();
                momsynth_serve::socket::serve_session(
                    &server,
                    stdin.lock(),
                    stdout.lock(),
                    &sigint::STOP,
                );
                server.shutdown();
                Ok(ExitCode::SUCCESS)
            } else {
                serve_on_socket(server, &socket.expect("parser guarantees a socket"), &root)
            };
            exposition_stop.store(true, Ordering::Release);
            if let Some(handle) = exposition {
                let _ = handle.join();
            }
            served
        }
        Command::Job { socket, request } => run_job_client(&socket, &request),
        Command::Profile { trace, collapsed, output } => {
            let text = std::fs::read_to_string(&trace)
                .map_err(|e| format!("cannot read `{trace}`: {e}"))?;
            let Some(report) = profile::ProfileReport::from_trace(&text) else {
                return Err(format!("`{trace}` contains no timing data").into());
            };
            if report.skipped_lines > 0 {
                eprintln!("warning: skipped {} unparseable line(s)", report.skipped_lines);
            }
            let rendered =
                if collapsed { report.to_collapsed() } else { report.to_table() };
            match output {
                Some(p) => write_output(&p, &rendered, false)?,
                None => print!("{rendered}"),
            }
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// Runs the job server on a Unix socket until SIGINT/SIGTERM or a
/// client's `shutdown` command, then shuts down gracefully (running
/// jobs checkpoint and stay resumable in the journal).
#[cfg(unix)]
fn serve_on_socket(
    server: momsynth_serve::Server,
    socket: &str,
    root: &Path,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    use momsynth_sync::sync::atomic::{AtomicBool, Ordering};
    use momsynth_sync::sync::Arc;

    let server = Arc::new(server);
    let stop = Arc::new(AtomicBool::new(false));
    // Bridge the static signal flag into the shareable stop flag the
    // accept loop and connection threads poll.
    let bridge_stop = Arc::clone(&stop);
    let bridge = std::thread::spawn(move || {
        while !bridge_stop.load(Ordering::Acquire) {
            if sigint::STOP.load(Ordering::SeqCst) {
                bridge_stop.store(true, Ordering::Release);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    });
    eprintln!("serving on `{socket}` (journal `{}`)", root.display());
    let served = momsynth_serve::socket::serve_unix(&server, Path::new(socket), &stop);
    stop.store(true, Ordering::Release);
    let _ = bridge.join();
    match Arc::try_unwrap(server) {
        Ok(server) => server.shutdown(),
        Err(server) => drop(server),
    }
    served.map_err(|e| format!("cannot serve on `{socket}`: {e}"))?;
    eprintln!("server stopped; journal preserved in `{}`", root.display());
    Ok(ExitCode::SUCCESS)
}

#[cfg(not(unix))]
fn serve_on_socket(
    _server: momsynth_serve::Server,
    _socket: &str,
    _root: &Path,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    Err("unix sockets are not supported on this platform; use --oneshot".into())
}

/// Maps the terminal job state in a `wait` reply to the CLI's documented
/// exit codes: verified → 0, cancelled → 3, any other state → 2.
#[cfg(unix)]
fn job_state_exit(reply: &serde_json::Value) -> ExitCode {
    match reply.get("job").and_then(|j| j.get("state")).and_then(|v| v.as_str()) {
        Some("verified") => ExitCode::SUCCESS,
        Some("cancelled") => ExitCode::from(EXIT_CANCELLED),
        _ => ExitCode::from(EXIT_INFEASIBLE),
    }
}

/// The protocol request line of a client request.
#[cfg(unix)]
fn request_line(request: &JobRequest) -> Result<serde_json::Value, Box<dyn std::error::Error>> {
    use serde_json::json;
    Ok(match request {
        JobRequest::Submit { path, priority, flow, timeout_seconds, .. } => {
            let spec = JobSpec {
                priority: *priority,
                timeout_seconds: *timeout_seconds,
                ..job_spec(load_system(path)?, flow)
            };
            json!({"cmd": "submit", "spec": spec})
        }
        JobRequest::Status { id } => json!({"cmd": "status", "id": id}),
        JobRequest::Result { id } => json!({"cmd": "result", "id": id}),
        JobRequest::Cancel { id } => json!({"cmd": "cancel", "id": id}),
        JobRequest::Wait { id, timeout_s } => {
            json!({"cmd": "wait", "id": id, "timeout_s": timeout_s})
        }
        JobRequest::List => json!({"cmd": "list"}),
        JobRequest::Ping => json!({"cmd": "ping"}),
        JobRequest::Metrics { text: true } => json!({"cmd": "metrics", "format": "text"}),
        JobRequest::Metrics { text: false } => json!({"cmd": "metrics"}),
        JobRequest::Shutdown => json!({"cmd": "shutdown"}),
    })
}

/// The `job` client: sends one protocol request to a running server and
/// prints the JSON response line. `submit --wait` follows up with a
/// `wait` request; both wait forms exit by the job's terminal state (0
/// verified, 3 cancelled, 2 otherwise).
#[cfg(unix)]
fn run_job_client(
    socket: &str,
    request: &JobRequest,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    use std::io::{BufRead, Write};
    use std::os::unix::net::UnixStream;

    let mut stream = UnixStream::connect(socket)
        .map_err(|e| format!("cannot connect to `{socket}`: {e}"))?;
    let mut reader = std::io::BufReader::new(stream.try_clone()?);
    let mut roundtrip =
        |request: &JobRequest| -> Result<serde_json::Value, Box<dyn std::error::Error>> {
            writeln!(stream, "{}", serde_json::to_string(&request_line(request)?)?)?;
            let mut response = String::new();
            reader.read_line(&mut response)?;
            if response.trim().is_empty() {
                return Err("server closed the connection".into());
            }
            Ok(serde_json::from_str(response.trim())?)
        };
    let ok = |v: &serde_json::Value| v.get("ok").and_then(|o| o.as_bool()) == Some(true);

    let mut reply = roundtrip(request)?;
    // With --text, print the exposition body itself so the output can be
    // piped straight into Prometheus tooling.
    let text_only = matches!(request, JobRequest::Metrics { text: true }) && ok(&reply);
    match reply.get("text").and_then(|v| v.as_str()).filter(|_| text_only) {
        Some(body) => print!("{body}"),
        None => println!("{}", serde_json::to_string(&reply)?),
    }
    let waits = match request {
        JobRequest::Submit { wait: true, .. } if ok(&reply) => {
            let id = reply
                .get("id")
                .and_then(|v| v.as_str())
                .ok_or("submit response carries no job id")?
                .to_owned();
            reply = roundtrip(&JobRequest::Wait { id, timeout_s: 3600.0 })?;
            println!("{}", serde_json::to_string(&reply)?);
            true
        }
        JobRequest::Wait { .. } => true,
        _ => false,
    };
    Ok(if !ok(&reply) {
        ExitCode::FAILURE
    } else if waits {
        job_state_exit(&reply)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(not(unix))]
fn run_job_client(
    _socket: &str,
    _request: &JobRequest,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    Err("the job client needs unix sockets; drive a `serve --oneshot` server instead".into())
}

/// Prints the human-readable solution report to stdout.
fn print_solution(system: &System, result: &momsynth_core::SynthesisResult) {
    println!(
        "average power: {:.6} mW  (feasible: {}, {} generations, {} evaluations, {:.2} s)",
        result.best.power.average.as_milli(),
        result.best.is_feasible(),
        result.generations,
        result.evaluations,
        result.wall_time.as_secs_f64(),
    );
    println!("stopped: {} ({} rejected evaluations)", result.stop_reason, result.rejected);
    if result.power_lower_bound.value() > 0.0 {
        println!(
            "static bound: p̄_LB {:.6} mW, optimality gap {:.1} %, pruned domain {:.1} %",
            result.power_lower_bound.as_milli(),
            (result.best.power.average - result.power_lower_bound) / result.power_lower_bound
                * 100.0,
            result.pruned_domain_ratio * 100.0,
        );
    }
    println!("mapping: {}", result.best.mapping.mapping_string());
    print!("{}", result.best.power);

    // Per-component attribution.
    let factors: Vec<Vec<f64>> = system
        .omsm()
        .modes()
        .map(|(mode, m)| {
            (0..m.graph().task_count())
                .map(|t| {
                    result.best.voltage_schedules[mode.index()][t]
                        .as_ref()
                        .map(|vs| {
                            let pe = result.best.mapping.pe_of(
                                mode,
                                momsynth_model::ids::TaskId::new(t),
                            );
                            let cap = system.arch().pe(pe).dvs().expect("scaled on DVS PE");
                            vs.energy_factor(&momsynth_dvs::VoltageModel::from_capability(cap))
                        })
                        .unwrap_or(1.0)
                })
                .collect()
        })
        .collect();
    let imps: Vec<momsynth_power::ModeImplementation> = result
        .best
        .schedules
        .iter()
        .zip(&factors)
        .map(|(s, f)| momsynth_power::ModeImplementation::scaled(s, f))
        .collect();
    let breakdown = energy_breakdown(system, &imps);
    print!("{}", breakdown.to_table_string(system));
}
