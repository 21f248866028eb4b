//! Minimal argument parsing for the `momsynth` CLI.
//!
//! Hand-rolled on purpose: the CLI has a handful of subcommands with a
//! handful of flags each, and keeping the workspace's dependency footprint
//! small (see `DESIGN.md`) beats pulling in a full parser generator.

use std::fmt;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `info <system.json>` — summary, sizes, shared types.
    Info {
        /// Path of the system specification.
        path: String,
    },
    /// `lint <system.json>` — specification diagnostics.
    Lint {
        /// Path of the system specification.
        path: String,
    },
    /// `dot <system.json> [--what omsm|arch|mode:<n>]` — Graphviz export.
    Dot {
        /// Path of the system specification.
        path: String,
        /// What to render.
        what: DotTarget,
    },
    /// `generate [--preset mulN|smartphone|automotive | --seed S --modes M ...]
    /// [-o out.json]`.
    Generate {
        /// Named preset, if chosen.
        preset: Option<GeneratePreset>,
        /// Seed for free-form generation.
        seed: u64,
        /// Mode count for free-form generation.
        modes: usize,
        /// Output path (`-` = stdout).
        output: String,
    },
    /// `convert <spec.tgff> [-o system.json]` — import a TGFF-dialect
    /// specification.
    Convert {
        /// Path of the TGFF input.
        path: String,
        /// Output path (`-` = stdout).
        output: String,
    },
    /// `synth <system.json> [--dvs] [--neglect-probabilities] [--seed S]
    /// [--quick] [--threads N] [--max-seconds T] [--max-evals N]
    /// [--checkpoint file] [--checkpoint-every N] [--resume file]
    /// [-o solution.json]`.
    Synth {
        /// Path of the system specification.
        path: String,
        /// Enable voltage scaling.
        dvs: bool,
        /// Use the probability-neglecting baseline flow.
        neglect: bool,
        /// GA seed.
        seed: u64,
        /// Use the fast preset.
        quick: bool,
        /// Worker threads for batch fitness evaluation (0 = all cores).
        threads: usize,
        /// Wall-clock budget in seconds.
        max_seconds: Option<f64>,
        /// Fitness-evaluation budget.
        max_evals: Option<usize>,
        /// File to periodically checkpoint the GA state to.
        checkpoint: Option<String>,
        /// Checkpoint period in generations.
        checkpoint_every: usize,
        /// Checkpoint file to resume from.
        resume: Option<String>,
        /// Where to write the solution report (`-` = stdout only).
        output: Option<String>,
        /// Directory to write per-mode VCD traces into.
        vcd: Option<String>,
        /// File to write the JSONL event trace to.
        trace_out: Option<String>,
        /// File to write the machine-readable run summary to.
        metrics_out: Option<String>,
        /// Print a one-line-per-generation progress view on stderr.
        progress: bool,
        /// Silence all human chatter on stdout/stderr.
        quiet: bool,
    },
    /// `analyze <system.json> [--report-out report.json]` — pre-synthesis
    /// static feasibility analysis with provable bounds.
    Analyze {
        /// Path of the system specification.
        path: String,
        /// Where to write the JSON analysis report.
        report_out: Option<String>,
    },
    /// `prove <system.json> [--budget N|Ts] [--dvs]
    /// [--neglect-probabilities] [--seed S] [--quick]
    /// [--report-out cert.json] [--quiet]` — certify a synthesis run with
    /// an exact branch-and-bound optimality proof or a residual gap bound.
    Prove {
        /// Path of the system specification.
        path: String,
        /// Exploration budget for the branch-and-bound proof.
        budget: ProveBudget,
        /// Enable voltage scaling (the GA incumbent and the certificate
        /// bound both account for it).
        dvs: bool,
        /// Use the probability-neglecting baseline flow.
        neglect: bool,
        /// GA seed for the incumbent run.
        seed: u64,
        /// Use the fast GA preset for the incumbent run.
        quick: bool,
        /// Where to write the JSON certificate.
        report_out: Option<String>,
        /// Silence all human chatter on stdout/stderr.
        quiet: bool,
    },
    /// `check <system.json> <solution.json> [--report-out report.json]` —
    /// independently re-verify a finished solution against every paper
    /// constraint.
    Check {
        /// Path of the system specification.
        path: String,
        /// Path of the solution report written by `synth -o`.
        solution: String,
        /// Where to write the JSON verification report.
        report_out: Option<String>,
    },
    /// `serve --root DIR [--socket PATH | --oneshot] [--workers N]
    /// [--queue-capacity N] [--checkpoint-every N]
    /// [--checkpoint-every-seconds T] [--max-retries N]
    /// [--metrics-listen ADDR] [--no-metrics]` — run the resident job
    /// server.
    Serve {
        /// Journal directory (jobs, specs, checkpoints, traces, results).
        root: String,
        /// Unix-socket path to listen on.
        socket: Option<String>,
        /// Speak the protocol on stdin/stdout instead of a socket.
        oneshot: bool,
        /// Worker slots running jobs concurrently.
        workers: usize,
        /// Submission-queue bound (back-pressure beyond it).
        queue_capacity: usize,
        /// Checkpoint running jobs every N generations.
        checkpoint_every: usize,
        /// Also checkpoint whenever this many seconds passed.
        checkpoint_every_seconds: Option<f64>,
        /// Retries after a transient failure before failing for good.
        max_retries: u32,
        /// TCP address for the Prometheus text exposition endpoint.
        metrics_listen: Option<String>,
        /// Whether the metrics registry is enabled at all.
        metrics: bool,
    },
    /// `job <request> --socket PATH` — client for a running job server.
    Job {
        /// Unix-socket path of the server.
        socket: String,
        /// The request to send.
        request: JobRequest,
    },
    /// `profile <trace.jsonl> [--collapsed] [-o out.txt]` — fold a JSONL
    /// event trace into per-phase self time.
    Profile {
        /// Path of the trace file (`synth --trace-out` or a server job
        /// trace).
        trace: String,
        /// Emit collapsed-stack lines instead of the human table.
        collapsed: bool,
        /// Write the output to this file instead of stdout.
        output: Option<String>,
    },
    /// `help` or no arguments.
    Help,
}

/// One client request of the `job` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum JobRequest {
    /// `job submit <system.json> [synthesis flags] [--wait]`.
    Submit {
        /// Path of the system specification.
        path: String,
        /// Scheduling priority (higher runs first, sheds lower).
        priority: u8,
        /// Use the fast preset.
        quick: bool,
        /// Enable voltage scaling.
        dvs: bool,
        /// Run the probability-neglecting baseline flow.
        neglect: bool,
        /// GA seed.
        seed: u64,
        /// Wall-clock optimisation budget in seconds.
        max_seconds: Option<f64>,
        /// Fitness-evaluation budget.
        max_evals: Option<usize>,
        /// Hard per-attempt timeout; the server marks the job timed-out.
        timeout_seconds: Option<f64>,
        /// Block until the job is terminal and exit by its state.
        wait: bool,
    },
    /// `job status <id>`.
    Status {
        /// Job id.
        id: String,
    },
    /// `job result <id>`.
    Result {
        /// Job id.
        id: String,
    },
    /// `job cancel <id>`.
    Cancel {
        /// Job id.
        id: String,
    },
    /// `job wait <id> [--timeout-s T]`.
    Wait {
        /// Job id.
        id: String,
        /// Give up after this many seconds.
        timeout_s: f64,
    },
    /// `job list`.
    List,
    /// `job ping`.
    Ping,
    /// `job metrics [--text]` — fetch the server's metrics snapshot.
    Metrics {
        /// Print the Prometheus text exposition instead of JSON.
        text: bool,
    },
    /// `job shutdown` — ask the server to stop gracefully.
    Shutdown,
}

/// A named system preset for `generate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeneratePreset {
    /// One of the paper's hypothetical `mulN` benchmarks (1..=12).
    Mul(usize),
    /// The smartphone example (paper Table 2 flavour).
    Smartphone,
    /// The automotive ECU example (paper Table 3 flavour).
    Automotive,
}

/// The exploration budget of a `prove` run.
///
/// A bare integer (`--budget 50000`) caps the number of leaf evaluations
/// the branch-and-bound search may price; an `s`-suffixed number
/// (`--budget 10s`) caps its wall-clock time instead. Either way an
/// exhausted budget degrades the certificate to a sound gap bound — the
/// proof never hangs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProveBudget {
    /// At most this many leaf evaluations (deterministic).
    Evals(u64),
    /// At most this many wall-clock seconds (non-deterministic).
    Seconds(f64),
}

/// What the `dot` subcommand renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DotTarget {
    /// The top-level mode state machine.
    Omsm,
    /// The architecture graph.
    Arch,
    /// One mode's task graph.
    Mode(usize),
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn take_value<'a>(
    args: &'a [String],
    i: &mut usize,
    flag: &str,
) -> Result<&'a str, ParseError> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| ParseError(format!("{flag} requires a value")))
}

/// Takes a flag's value as a non-negative, finite number of seconds.
fn take_seconds(args: &[String], i: &mut usize, flag: &str) -> Result<f64, ParseError> {
    let v: f64 =
        take_value(args, i, flag)?.parse().map_err(|_| ParseError(format!("invalid {flag}")))?;
    if !v.is_finite() || v < 0.0 {
        return Err(ParseError(format!("invalid {flag}")));
    }
    Ok(v)
}

/// Parses the argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "info" | "lint" => {
            let path = args
                .get(1)
                .ok_or_else(|| ParseError(format!("{cmd} requires a system file")))?
                .clone();
            Ok(if cmd == "info" { Command::Info { path } } else { Command::Lint { path } })
        }
        "dot" => {
            let path = args
                .get(1)
                .ok_or_else(|| ParseError("dot requires a system file".into()))?
                .clone();
            let mut what = DotTarget::Omsm;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--what" => {
                        let v = take_value(args, &mut i, "--what")?;
                        what = match v {
                            "omsm" => DotTarget::Omsm,
                            "arch" => DotTarget::Arch,
                            other => match other.strip_prefix("mode:") {
                                Some(n) => DotTarget::Mode(n.parse().map_err(|_| {
                                    ParseError(format!("invalid mode index `{n}`"))
                                })?),
                                None => {
                                    return Err(ParseError(format!(
                                        "unknown dot target `{other}` (use omsm, arch or mode:<n>)"
                                    )))
                                }
                            },
                        };
                    }
                    other => return Err(ParseError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(Command::Dot { path, what })
        }
        "generate" => {
            let mut preset = None;
            let mut seed = 1;
            let mut modes = 4;
            let mut output = "-".to_owned();
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--preset" => {
                        let v = take_value(args, &mut i, "--preset")?;
                        preset = Some(match v {
                            "smartphone" => GeneratePreset::Smartphone,
                            "automotive" => GeneratePreset::Automotive,
                            _ => {
                                let n = v
                                    .strip_prefix("mul")
                                    .and_then(|n| n.parse().ok())
                                    .filter(|n| (1..=12).contains(n))
                                    .ok_or_else(|| {
                                        ParseError(format!(
                                            "unknown preset `{v}` (use mul1..mul12, smartphone \
                                             or automotive)"
                                        ))
                                    })?;
                                GeneratePreset::Mul(n)
                            }
                        });
                    }
                    "--seed" => {
                        seed = take_value(args, &mut i, "--seed")?
                            .parse()
                            .map_err(|_| ParseError("invalid --seed".into()))?;
                    }
                    "--modes" => {
                        modes = take_value(args, &mut i, "--modes")?
                            .parse()
                            .map_err(|_| ParseError("invalid --modes".into()))?;
                    }
                    "-o" | "--output" => {
                        output = take_value(args, &mut i, "--output")?.to_owned();
                    }
                    other => return Err(ParseError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(Command::Generate { preset, seed, modes, output })
        }
        "convert" => {
            let path = args
                .get(1)
                .ok_or_else(|| ParseError("convert requires a tgff file".into()))?
                .clone();
            let mut output = "-".to_owned();
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "-o" | "--output" => {
                        output = take_value(args, &mut i, "--output")?.to_owned();
                    }
                    other => return Err(ParseError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(Command::Convert { path, output })
        }
        "synth" => {
            let path = args
                .get(1)
                .ok_or_else(|| ParseError("synth requires a system file".into()))?
                .clone();
            let mut dvs = false;
            let mut neglect = false;
            let mut seed = 0;
            let mut quick = false;
            let mut threads = 1;
            let mut max_seconds = None;
            let mut max_evals = None;
            let mut checkpoint = None;
            let mut checkpoint_every = 10;
            let mut resume = None;
            let mut output = None;
            let mut vcd = None;
            let mut trace_out = None;
            let mut metrics_out = None;
            let mut progress = false;
            let mut quiet = false;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--dvs" => dvs = true,
                    "--neglect-probabilities" => neglect = true,
                    "--quick" => quick = true,
                    "--seed" => {
                        seed = take_value(args, &mut i, "--seed")?
                            .parse()
                            .map_err(|_| ParseError("invalid --seed".into()))?;
                    }
                    "--threads" => {
                        threads = take_value(args, &mut i, "--threads")?
                            .parse()
                            .map_err(|_| ParseError("invalid --threads".into()))?;
                    }
                    "--max-seconds" => {
                        max_seconds = Some(take_seconds(args, &mut i, "--max-seconds")?);
                    }
                    "--max-evals" => {
                        max_evals = Some(
                            take_value(args, &mut i, "--max-evals")?
                                .parse()
                                .map_err(|_| ParseError("invalid --max-evals".into()))?,
                        );
                    }
                    "--checkpoint" => {
                        checkpoint = Some(take_value(args, &mut i, "--checkpoint")?.to_owned());
                    }
                    "--checkpoint-every" => {
                        checkpoint_every = take_value(args, &mut i, "--checkpoint-every")?
                            .parse()
                            .map_err(|_| ParseError("invalid --checkpoint-every".into()))?;
                    }
                    "--resume" => {
                        resume = Some(take_value(args, &mut i, "--resume")?.to_owned());
                    }
                    "-o" | "--output" => {
                        output = Some(take_value(args, &mut i, "--output")?.to_owned());
                    }
                    "--vcd" => {
                        vcd = Some(take_value(args, &mut i, "--vcd")?.to_owned());
                    }
                    "--trace-out" => {
                        trace_out = Some(take_value(args, &mut i, "--trace-out")?.to_owned());
                    }
                    "--metrics-out" => {
                        metrics_out = Some(take_value(args, &mut i, "--metrics-out")?.to_owned());
                    }
                    "--progress" => progress = true,
                    "--quiet" | "-q" => quiet = true,
                    other => return Err(ParseError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            if progress && quiet {
                return Err(ParseError("--progress and --quiet are mutually exclusive".into()));
            }
            Ok(Command::Synth {
                path,
                dvs,
                neglect,
                seed,
                quick,
                threads,
                max_seconds,
                max_evals,
                checkpoint,
                checkpoint_every,
                resume,
                output,
                vcd,
                trace_out,
                metrics_out,
                progress,
                quiet,
            })
        }
        "analyze" => {
            let path = args
                .get(1)
                .ok_or_else(|| ParseError("analyze requires a system file".into()))?
                .clone();
            let mut report_out = None;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--report-out" => {
                        report_out = Some(take_value(args, &mut i, "--report-out")?.to_owned());
                    }
                    other => return Err(ParseError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(Command::Analyze { path, report_out })
        }
        "prove" => {
            let path = args
                .get(1)
                .ok_or_else(|| ParseError("prove requires a system file".into()))?
                .clone();
            let mut budget = ProveBudget::Evals(100_000);
            let mut dvs = false;
            let mut neglect = false;
            let mut seed = 0;
            let mut quick = false;
            let mut report_out = None;
            let mut quiet = false;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--budget" => {
                        let v = take_value(args, &mut i, "--budget")?;
                        budget = match v.strip_suffix('s') {
                            Some(secs) => {
                                let t: f64 = secs.parse().map_err(|_| {
                                    ParseError(format!("invalid --budget `{v}`"))
                                })?;
                                if !t.is_finite() || t < 0.0 {
                                    return Err(ParseError(format!("invalid --budget `{v}`")));
                                }
                                ProveBudget::Seconds(t)
                            }
                            None => ProveBudget::Evals(v.parse().map_err(|_| {
                                ParseError(format!(
                                    "invalid --budget `{v}` (use an eval count or `<T>s`)"
                                ))
                            })?),
                        };
                    }
                    "--dvs" => dvs = true,
                    "--neglect-probabilities" => neglect = true,
                    "--seed" => {
                        seed = take_value(args, &mut i, "--seed")?
                            .parse()
                            .map_err(|_| ParseError("invalid --seed".into()))?;
                    }
                    "--quick" => quick = true,
                    "--report-out" => {
                        report_out = Some(take_value(args, &mut i, "--report-out")?.to_owned());
                    }
                    "--quiet" | "-q" => quiet = true,
                    other => return Err(ParseError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(Command::Prove { path, budget, dvs, neglect, seed, quick, report_out, quiet })
        }
        "check" => {
            let path = args
                .get(1)
                .ok_or_else(|| ParseError("check requires a system file".into()))?
                .clone();
            let solution = args
                .get(2)
                .ok_or_else(|| ParseError("check requires a solution file".into()))?
                .clone();
            let mut report_out = None;
            let mut i = 3;
            while i < args.len() {
                match args[i].as_str() {
                    "--report-out" => {
                        report_out = Some(take_value(args, &mut i, "--report-out")?.to_owned());
                    }
                    other => return Err(ParseError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(Command::Check { path, solution, report_out })
        }
        "serve" => {
            let mut root = None;
            let mut socket = None;
            let mut oneshot = false;
            let mut workers = 2;
            let mut queue_capacity = 16;
            let mut checkpoint_every = 5;
            let mut checkpoint_every_seconds = Some(2.0);
            let mut max_retries = 2;
            let mut metrics_listen = None;
            let mut metrics = true;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--root" => root = Some(take_value(args, &mut i, "--root")?.to_owned()),
                    "--socket" => {
                        socket = Some(take_value(args, &mut i, "--socket")?.to_owned());
                    }
                    "--oneshot" => oneshot = true,
                    "--workers" => {
                        workers = take_value(args, &mut i, "--workers")?
                            .parse()
                            .map_err(|_| ParseError("invalid --workers".into()))?;
                    }
                    "--queue-capacity" => {
                        queue_capacity = take_value(args, &mut i, "--queue-capacity")?
                            .parse()
                            .map_err(|_| ParseError("invalid --queue-capacity".into()))?;
                    }
                    "--checkpoint-every" => {
                        checkpoint_every = take_value(args, &mut i, "--checkpoint-every")?
                            .parse()
                            .map_err(|_| ParseError("invalid --checkpoint-every".into()))?;
                    }
                    "--checkpoint-every-seconds" => {
                        let v: f64 = take_value(args, &mut i, "--checkpoint-every-seconds")?
                            .parse()
                            .map_err(|_| ParseError("invalid --checkpoint-every-seconds".into()))?;
                        if !v.is_finite() || v <= 0.0 {
                            return Err(ParseError("invalid --checkpoint-every-seconds".into()));
                        }
                        checkpoint_every_seconds = Some(v);
                    }
                    "--max-retries" => {
                        max_retries = take_value(args, &mut i, "--max-retries")?
                            .parse()
                            .map_err(|_| ParseError("invalid --max-retries".into()))?;
                    }
                    "--metrics-listen" => {
                        metrics_listen =
                            Some(take_value(args, &mut i, "--metrics-listen")?.to_owned());
                    }
                    "--no-metrics" => metrics = false,
                    other => return Err(ParseError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            let root = root.ok_or_else(|| ParseError("serve requires --root DIR".into()))?;
            if oneshot && socket.is_some() {
                return Err(ParseError("--oneshot and --socket are mutually exclusive".into()));
            }
            if !oneshot && socket.is_none() {
                return Err(ParseError("serve requires --socket PATH or --oneshot".into()));
            }
            if !metrics && metrics_listen.is_some() {
                return Err(ParseError(
                    "--no-metrics and --metrics-listen are mutually exclusive".into(),
                ));
            }
            Ok(Command::Serve {
                root,
                socket,
                oneshot,
                workers,
                queue_capacity,
                checkpoint_every,
                checkpoint_every_seconds,
                max_retries,
                metrics_listen,
                metrics,
            })
        }
        "job" => {
            let verb = args
                .get(1)
                .ok_or_else(|| {
                    ParseError(
                        "job requires a request (submit, status, result, cancel, wait, list, \
                         metrics, ping, shutdown)"
                            .into(),
                    )
                })?
                .clone();
            let mut socket = None;
            let needs_path = verb == "submit";
            let mut positional = None;
            let mut priority = 0u8;
            let mut quick = false;
            let mut dvs = false;
            let mut neglect = false;
            let mut seed = 0u64;
            let mut max_seconds = None;
            let mut max_evals = None;
            let mut timeout_seconds = None;
            let mut wait = false;
            let mut timeout_s = 600.0f64;
            let mut text = false;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--socket" => {
                        socket = Some(take_value(args, &mut i, "--socket")?.to_owned());
                    }
                    "--priority" if needs_path => {
                        priority = take_value(args, &mut i, "--priority")?
                            .parse()
                            .map_err(|_| ParseError("invalid --priority".into()))?;
                    }
                    "--quick" if needs_path => quick = true,
                    "--dvs" if needs_path => dvs = true,
                    "--neglect-probabilities" if needs_path => neglect = true,
                    "--seed" if needs_path => {
                        seed = take_value(args, &mut i, "--seed")?
                            .parse()
                            .map_err(|_| ParseError("invalid --seed".into()))?;
                    }
                    "--max-seconds" if needs_path => {
                        max_seconds = Some(take_seconds(args, &mut i, "--max-seconds")?);
                    }
                    "--max-evals" if needs_path => {
                        max_evals = Some(
                            take_value(args, &mut i, "--max-evals")?
                                .parse()
                                .map_err(|_| ParseError("invalid --max-evals".into()))?,
                        );
                    }
                    "--timeout-seconds" if needs_path => {
                        timeout_seconds = Some(take_seconds(args, &mut i, "--timeout-seconds")?);
                    }
                    "--wait" if needs_path => wait = true,
                    "--timeout-s" if verb == "wait" => {
                        timeout_s = take_seconds(args, &mut i, "--timeout-s")?;
                    }
                    "--text" if verb == "metrics" => text = true,
                    other if !other.starts_with('-') && positional.is_none() => {
                        positional = Some(other.to_owned());
                    }
                    other => return Err(ParseError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            let socket =
                socket.ok_or_else(|| ParseError("job requires --socket PATH".into()))?;
            let request = match verb.as_str() {
                "submit" => {
                    let path = positional
                        .ok_or_else(|| ParseError("job submit requires a system file".into()))?;
                    JobRequest::Submit {
                        path,
                        priority,
                        quick,
                        dvs,
                        neglect,
                        seed,
                        max_seconds,
                        max_evals,
                        timeout_seconds,
                        wait,
                    }
                }
                "status" | "result" | "cancel" | "wait" => {
                    let id = positional
                        .ok_or_else(|| ParseError(format!("job {verb} requires a job id")))?;
                    match verb.as_str() {
                        "status" => JobRequest::Status { id },
                        "result" => JobRequest::Result { id },
                        "cancel" => JobRequest::Cancel { id },
                        _ => JobRequest::Wait { id, timeout_s },
                    }
                }
                "list" => JobRequest::List,
                "metrics" => JobRequest::Metrics { text },
                "ping" => JobRequest::Ping,
                "shutdown" => JobRequest::Shutdown,
                other => {
                    return Err(ParseError(format!(
                        "unknown job request `{other}` (use submit, status, result, cancel, \
                         wait, list, metrics, ping or shutdown)"
                    )))
                }
            };
            Ok(Command::Job { socket, request })
        }
        "profile" => {
            let trace = args
                .get(1)
                .ok_or_else(|| ParseError("profile requires a trace file".into()))?
                .clone();
            let mut collapsed = false;
            let mut output = None;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--collapsed" => collapsed = true,
                    "-o" | "--output" => {
                        output = Some(take_value(args, &mut i, "--output")?.to_owned());
                    }
                    other => return Err(ParseError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(Command::Profile { trace, collapsed, output })
        }
        other => Err(ParseError(format!("unknown command `{other}` (try `momsynth help`)"))),
    }
}

/// The help text.
pub const HELP: &str = "\
momsynth — energy-efficient co-synthesis for multi-mode embedded systems

USAGE:
    momsynth <COMMAND> [OPTIONS]

COMMANDS:
    info <system.json>       summarise a system specification
    lint <system.json>       report specification diagnostics
    dot <system.json>        export Graphviz (--what omsm|arch|mode:<n>)
    generate                 emit a system (--preset mul1..mul12|smartphone|automotive
                             | --seed S --modes M) [-o file]
    convert <spec.tgff>      import a TGFF-dialect specification [-o file]
    synth <system.json>      run co-synthesis (--dvs,
                             --neglect-probabilities, --seed S, --quick,
                             --threads N, --max-seconds T, --max-evals N,
                             --checkpoint file [--checkpoint-every N],
                             --resume file,
                             -o solution.json, --vcd trace_dir,
                             --trace-out events.jsonl,
                             --metrics-out summary.json,
                             --progress, --quiet)
    analyze <system.json>    pre-synthesis static feasibility analysis
                             with provable bounds [--report-out report.json]
    prove <system.json>      certify a synthesis run with an exact
                             branch-and-bound optimality proof
                             (--budget N|Ts, --dvs,
                             --neglect-probabilities, --seed S, --quick,
                             --report-out cert.json, --quiet)
    check <system.json> <solution.json>
                             re-verify a synthesis result against every
                             paper constraint [--report-out report.json]
    serve --root DIR         run the resident job server
                             (--socket PATH | --oneshot, --workers N,
                             --queue-capacity N, --checkpoint-every N,
                             --checkpoint-every-seconds T, --max-retries N,
                             --metrics-listen ADDR, --no-metrics)
    job <request> --socket PATH
                             client for a running server: submit
                             <system.json> [--priority P --quick --dvs
                             --neglect-probabilities --seed S
                             --max-seconds T --max-evals N
                             --timeout-seconds T --wait], status <id>,
                             result <id>, cancel <id>, wait <id>
                             [--timeout-s T], list, metrics [--text],
                             ping, shutdown
    profile <trace.jsonl>    fold a JSONL event trace into per-phase
                             self time [--collapsed] [-o file]
    help                     show this text

ANALYZE:
    Computes provable pre-synthesis bounds from the specification alone:
    per-mode critical-path lower bounds against deadlines and periods,
    hardware area floors from must-be-hardware task types, a
    probability-weighted Eq. 1 power lower bound p̄_LB, mode-transition
    reconfiguration floors and OMSM reachability. Exit code 2 when the
    specification is provably infeasible (any error finding).

PROVE:
    Runs synthesis first (same flags as `synth`: --dvs,
    --neglect-probabilities, --seed, --quick), then certifies the result
    with a dominance-pruned branch-and-bound search over the whole
    mapping space, bounded by the analyzer's admissible per-mode power
    floors. The certificate is either `optimal` (the incumbent provably
    attains the minimum fitness) or `gap-bound` with the residual
    relative gap ε; an exhausted --budget (default 100000 evaluations;
    `10s` caps wall-clock instead) degrades to a sound gap bound with
    exit code 0 — the proof never hangs. The certified best solution is
    re-proved by the independent checker before the certificate is
    trusted. --report-out writes the certificate as JSON (`certified_gap`,
    `lower_bound`, `explored`, `pruned_by_bound`, `pruned_by_dominance`).
    Exit code 2 when the specification is infeasible or the checker
    rejects the certified solution.

CHECK:
    Re-derives mapping feasibility, schedule legality, deadline/period
    satisfaction, voltage-schedule legality, transition-time limits and
    the Eq. 1 average power from the model alone (no shared code with the
    synthesis inner loop) and compares against the solution file written
    by `synth -o`. Exit code 2 when any violation is found.

SYNTH PERFORMANCE:
    --threads N evaluates each generation's candidates on N worker
    threads (0 = all cores). The search trajectory is bit-identical for
    every thread count; only the wall clock changes.

SYNTH BUDGETS AND RESILIENCE:
    --max-seconds / --max-evals stop the search once the budget is spent
    and still report the best solution found so far. Ctrl-C does the same
    (exit code 3). --checkpoint saves the GA state every N generations
    (default 10); --resume continues from such a file with the same system
    and seed.

SYNTH OBSERVABILITY:
    --trace-out writes one JSON event per line (RunStart, Generation,
    Phase, Warning, Summary); --metrics-out writes the end-of-run summary
    as a single JSON document. --progress prints a one-line-per-generation
    view on stderr; --quiet silences all human output (traces and metrics
    files are still written). Resumed runs continue the original trace's
    generation numbering and counters seamlessly. `profile` folds a trace
    written by --trace-out (or a server job trace) into per-phase self
    time; --collapsed emits flamegraph collapsed-stack lines.

SERVING:
    `serve` runs a resident, crash-safe job server: submissions are
    journalled durably, running jobs checkpoint periodically, and a
    restart resumes every interrupted job as an exact continuation of
    its trajectory. The queue is bounded: when full, lower-priority work
    is shed for higher-priority submissions and equal-priority ones are
    rejected with a typed retry-after hint. SIGTERM/Ctrl-C shuts down
    gracefully, checkpointing all running jobs first. `job` talks to the
    server over its Unix socket; `job wait` (and `submit --wait`) exits
    0/2/3 by the job's terminal state, mirroring `synth`.

SERVER MONITORING:
    The server keeps every scheduler, journal and synthesis instrument in
    one metrics registry: queue depth, admissions/sheds/rejections, worker
    utilisation, journal write/fsync latencies and per-state job lifecycle
    latencies. `job metrics` fetches a snapshot over the socket (--text
    for Prometheus exposition format); `serve --metrics-listen ADDR`
    additionally serves GET /metrics over TCP for scraping. Snapshots are
    also journalled under <root>/metrics/. `serve --no-metrics` disables
    the registry entirely (instruments become no-ops).

EXIT CODES:
    0  success, best solution feasible / check found no violations /
       prove certified (optimal or gap bound) / job verified
    1  usage, load or synthesis error / server unreachable
    2  finished, but the best solution violates constraints / check
       found violations / analyze proved the specification infeasible /
       prove hit an infeasible spec or a rejected certificate /
       job failed, timed out or was shed
    3  cancelled (Ctrl-C); best-so-far solution was reported / job was
       cancelled
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn empty_and_help_yield_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn info_and_lint_need_a_path() {
        assert_eq!(
            parse(&argv("info sys.json")).unwrap(),
            Command::Info { path: "sys.json".into() }
        );
        assert!(parse(&argv("info")).is_err());
        assert_eq!(
            parse(&argv("lint sys.json")).unwrap(),
            Command::Lint { path: "sys.json".into() }
        );
    }

    #[test]
    fn dot_targets_parse() {
        assert_eq!(
            parse(&argv("dot s.json")).unwrap(),
            Command::Dot { path: "s.json".into(), what: DotTarget::Omsm }
        );
        assert_eq!(
            parse(&argv("dot s.json --what arch")).unwrap(),
            Command::Dot { path: "s.json".into(), what: DotTarget::Arch }
        );
        assert_eq!(
            parse(&argv("dot s.json --what mode:3")).unwrap(),
            Command::Dot { path: "s.json".into(), what: DotTarget::Mode(3) }
        );
        assert!(parse(&argv("dot s.json --what nonsense")).is_err());
        assert!(parse(&argv("dot s.json --what mode:x")).is_err());
    }

    #[test]
    fn generate_flags_parse() {
        let cmd = parse(&argv("generate --preset mul7 -o out.json")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                preset: Some(GeneratePreset::Mul(7)),
                seed: 1,
                modes: 4,
                output: "out.json".into()
            }
        );
        let cmd = parse(&argv("generate --preset smartphone")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                preset: Some(GeneratePreset::Smartphone),
                seed: 1,
                modes: 4,
                output: "-".into()
            }
        );
        let cmd = parse(&argv("generate --preset automotive")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                preset: Some(GeneratePreset::Automotive),
                seed: 1,
                modes: 4,
                output: "-".into()
            }
        );
        let cmd = parse(&argv("generate --seed 9 --modes 3")).unwrap();
        assert_eq!(cmd, Command::Generate { preset: None, seed: 9, modes: 3, output: "-".into() });
        assert!(parse(&argv("generate --preset mul13")).is_err());
        assert!(parse(&argv("generate --seed")).is_err());
    }

    #[test]
    fn convert_parses() {
        assert_eq!(
            parse(&argv("convert spec.tgff -o sys.json")).unwrap(),
            Command::Convert { path: "spec.tgff".into(), output: "sys.json".into() }
        );
        assert!(parse(&argv("convert")).is_err());
    }

    #[test]
    fn synth_flags_parse() {
        let cmd = parse(&argv(
            "synth s.json --dvs --neglect-probabilities --seed 4 --quick -o sol.json --vcd traces",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Synth {
                path: "s.json".into(),
                dvs: true,
                neglect: true,
                seed: 4,
                quick: true,
                threads: 1,
                max_seconds: None,
                max_evals: None,
                checkpoint: None,
                checkpoint_every: 10,
                resume: None,
                output: Some("sol.json".into()),
                vcd: Some("traces".into()),
                trace_out: None,
                metrics_out: None,
                progress: false,
                quiet: false,
            }
        );
        assert!(parse(&argv("synth")).is_err());
        assert!(parse(&argv("synth s.json --bogus")).is_err());
    }

    #[test]
    fn synth_threads_flag_parses() {
        match parse(&argv("synth s.json --threads 8")).unwrap() {
            Command::Synth { threads, .. } => assert_eq!(threads, 8),
            other => panic!("unexpected parse: {other:?}"),
        }
        match parse(&argv("synth s.json --threads 0")).unwrap() {
            Command::Synth { threads, .. } => assert_eq!(threads, 0),
            other => panic!("unexpected parse: {other:?}"),
        }
        match parse(&argv("synth s.json")).unwrap() {
            Command::Synth { threads, .. } => assert_eq!(threads, 1),
            other => panic!("unexpected parse: {other:?}"),
        }
        assert!(parse(&argv("synth s.json --threads")).is_err());
        assert!(parse(&argv("synth s.json --threads many")).is_err());
    }

    #[test]
    fn synth_telemetry_flags_parse() {
        let cmd = parse(&argv(
            "synth s.json --trace-out events.jsonl --metrics-out summary.json --progress",
        ))
        .unwrap();
        match cmd {
            Command::Synth { trace_out, metrics_out, progress, quiet, .. } => {
                assert_eq!(trace_out.as_deref(), Some("events.jsonl"));
                assert_eq!(metrics_out.as_deref(), Some("summary.json"));
                assert!(progress);
                assert!(!quiet);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        match parse(&argv("synth s.json -q")).unwrap() {
            Command::Synth { quiet, .. } => assert!(quiet),
            other => panic!("unexpected parse: {other:?}"),
        }
        assert!(parse(&argv("synth s.json --progress --quiet")).is_err());
        assert!(parse(&argv("synth s.json --trace-out")).is_err());
    }

    #[test]
    fn synth_resilience_flags_parse() {
        let cmd = parse(&argv(
            "synth s.json --max-seconds 1.5 --max-evals 500 \
             --checkpoint cp.json --checkpoint-every 3 --resume old.json",
        ))
        .unwrap();
        match cmd {
            Command::Synth {
                max_seconds,
                max_evals,
                checkpoint,
                checkpoint_every,
                resume,
                ..
            } => {
                assert_eq!(max_seconds, Some(1.5));
                assert_eq!(max_evals, Some(500));
                assert_eq!(checkpoint.as_deref(), Some("cp.json"));
                assert_eq!(checkpoint_every, 3);
                assert_eq!(resume.as_deref(), Some("old.json"));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        assert!(parse(&argv("synth s.json --max-seconds nope")).is_err());
        assert!(parse(&argv("synth s.json --max-seconds -2")).is_err());
        assert!(parse(&argv("synth s.json --max-evals -1")).is_err());
        assert!(parse(&argv("synth s.json --checkpoint")).is_err());
    }

    #[test]
    fn check_parses() {
        assert_eq!(
            parse(&argv("check sys.json sol.json")).unwrap(),
            Command::Check { path: "sys.json".into(), solution: "sol.json".into(), report_out: None }
        );
        assert_eq!(
            parse(&argv("check sys.json sol.json --report-out rep.json")).unwrap(),
            Command::Check {
                path: "sys.json".into(),
                solution: "sol.json".into(),
                report_out: Some("rep.json".into()),
            }
        );
        assert!(parse(&argv("check sys.json")).is_err());
        assert!(parse(&argv("check")).is_err());
        assert!(parse(&argv("check sys.json sol.json --report-out")).is_err());
        assert!(parse(&argv("check sys.json sol.json --bogus")).is_err());
    }

    #[test]
    fn analyze_parses() {
        assert_eq!(
            parse(&argv("analyze sys.json")).unwrap(),
            Command::Analyze { path: "sys.json".into(), report_out: None }
        );
        assert_eq!(
            parse(&argv("analyze sys.json --report-out rep.json")).unwrap(),
            Command::Analyze { path: "sys.json".into(), report_out: Some("rep.json".into()) }
        );
        assert!(parse(&argv("analyze")).is_err());
        assert!(parse(&argv("analyze sys.json --report-out")).is_err());
        assert!(parse(&argv("analyze sys.json --bogus")).is_err());
    }

    #[test]
    fn prove_parses() {
        assert_eq!(
            parse(&argv("prove sys.json")).unwrap(),
            Command::Prove {
                path: "sys.json".into(),
                budget: ProveBudget::Evals(100_000),
                dvs: false,
                neglect: false,
                seed: 0,
                quick: false,
                report_out: None,
                quiet: false,
            }
        );
        assert_eq!(
            parse(&argv(
                "prove sys.json --budget 5000 --dvs --neglect-probabilities --seed 7 --quick \
                 --report-out cert.json -q"
            ))
            .unwrap(),
            Command::Prove {
                path: "sys.json".into(),
                budget: ProveBudget::Evals(5000),
                dvs: true,
                neglect: true,
                seed: 7,
                quick: true,
                report_out: Some("cert.json".into()),
                quiet: true,
            }
        );
        match parse(&argv("prove sys.json --budget 2.5s")).unwrap() {
            Command::Prove { budget, .. } => assert_eq!(budget, ProveBudget::Seconds(2.5)),
            other => panic!("unexpected parse: {other:?}"),
        }
        assert!(parse(&argv("prove")).is_err());
        assert!(parse(&argv("prove sys.json --budget")).is_err());
        assert!(parse(&argv("prove sys.json --budget nope")).is_err());
        assert!(parse(&argv("prove sys.json --budget -3s")).is_err());
        assert!(parse(&argv("prove sys.json --bogus")).is_err());
    }

    #[test]
    fn serve_flags_parse() {
        let cmd = parse(&argv(
            "serve --root jobs --socket momsynth.sock --workers 4 --queue-capacity 8 \
             --checkpoint-every 3 --checkpoint-every-seconds 1.5 --max-retries 5",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                root: "jobs".into(),
                socket: Some("momsynth.sock".into()),
                oneshot: false,
                workers: 4,
                queue_capacity: 8,
                checkpoint_every: 3,
                checkpoint_every_seconds: Some(1.5),
                max_retries: 5,
                metrics_listen: None,
                metrics: true,
            }
        );
        match parse(&argv("serve --root jobs --oneshot")).unwrap() {
            Command::Serve { oneshot, socket, metrics, metrics_listen, .. } => {
                assert!(oneshot);
                assert_eq!(socket, None);
                assert!(metrics, "metrics are on by default");
                assert_eq!(metrics_listen, None);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        assert!(parse(&argv("serve --socket s.sock")).is_err(), "--root is required");
        assert!(parse(&argv("serve --root jobs")).is_err(), "a transport is required");
        assert!(parse(&argv("serve --root jobs --oneshot --socket s.sock")).is_err());
        assert!(parse(&argv("serve --root jobs --oneshot --checkpoint-every-seconds 0")).is_err());
    }

    #[test]
    fn serve_metrics_flags_parse() {
        match parse(&argv("serve --root jobs --oneshot --metrics-listen 127.0.0.1:9187")).unwrap()
        {
            Command::Serve { metrics_listen, metrics, .. } => {
                assert_eq!(metrics_listen.as_deref(), Some("127.0.0.1:9187"));
                assert!(metrics);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        match parse(&argv("serve --root jobs --oneshot --no-metrics")).unwrap() {
            Command::Serve { metrics, .. } => assert!(!metrics),
            other => panic!("unexpected parse: {other:?}"),
        }
        assert!(parse(&argv("serve --root jobs --oneshot --metrics-listen")).is_err());
        assert!(
            parse(&argv("serve --root jobs --oneshot --no-metrics --metrics-listen 127.0.0.1:0"))
                .is_err(),
            "an exposition endpoint needs the registry"
        );
    }

    #[test]
    fn job_requests_parse() {
        let cmd = parse(&argv(
            "job submit sys.json --socket s.sock --priority 7 --quick --seed 3 \
             --timeout-seconds 30 --wait",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Job {
                socket: "s.sock".into(),
                request: JobRequest::Submit {
                    path: "sys.json".into(),
                    priority: 7,
                    quick: true,
                    dvs: false,
                    neglect: false,
                    seed: 3,
                    max_seconds: None,
                    max_evals: None,
                    timeout_seconds: Some(30.0),
                    wait: true,
                },
            }
        );
        assert_eq!(
            parse(&argv("job status job-000001 --socket s.sock")).unwrap(),
            Command::Job {
                socket: "s.sock".into(),
                request: JobRequest::Status { id: "job-000001".into() },
            }
        );
        assert_eq!(
            parse(&argv("job wait job-000002 --socket s.sock --timeout-s 5")).unwrap(),
            Command::Job {
                socket: "s.sock".into(),
                request: JobRequest::Wait { id: "job-000002".into(), timeout_s: 5.0 },
            }
        );
        assert_eq!(
            parse(&argv("job list --socket s.sock")).unwrap(),
            Command::Job { socket: "s.sock".into(), request: JobRequest::List }
        );
        assert_eq!(
            parse(&argv("job metrics --socket s.sock")).unwrap(),
            Command::Job { socket: "s.sock".into(), request: JobRequest::Metrics { text: false } }
        );
        assert_eq!(
            parse(&argv("job metrics --socket s.sock --text")).unwrap(),
            Command::Job { socket: "s.sock".into(), request: JobRequest::Metrics { text: true } }
        );
        assert!(parse(&argv("job")).is_err());
        assert!(parse(&argv("job submit sys.json")).is_err(), "--socket is required");
        assert!(parse(&argv("job status --socket s.sock")).is_err(), "an id is required");
        assert!(parse(&argv("job frobnicate --socket s.sock")).is_err());
        assert!(parse(&argv("job list --socket s.sock --priority 3")).is_err());
        assert!(parse(&argv("job list --socket s.sock --text")).is_err());
        for bad in [
            "job submit sys.json --socket s.sock --max-seconds -1",
            "job submit sys.json --socket s.sock --max-seconds NaN",
            "job submit sys.json --socket s.sock --timeout-seconds -1",
            "job submit sys.json --socket s.sock --timeout-seconds inf",
            "job wait job-000002 --socket s.sock --timeout-s -5",
            "job wait job-000002 --socket s.sock --timeout-s NaN",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn profile_parses() {
        assert_eq!(
            parse(&argv("profile events.jsonl")).unwrap(),
            Command::Profile { trace: "events.jsonl".into(), collapsed: false, output: None }
        );
        assert_eq!(
            parse(&argv("profile events.jsonl --collapsed -o folded.txt")).unwrap(),
            Command::Profile {
                trace: "events.jsonl".into(),
                collapsed: true,
                output: Some("folded.txt".into()),
            }
        );
        assert!(parse(&argv("profile")).is_err());
        assert!(parse(&argv("profile events.jsonl --bogus")).is_err());
        assert!(parse(&argv("profile events.jsonl -o")).is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = parse(&argv("frobnicate")).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }
}
