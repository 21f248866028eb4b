//! Minimal argument parsing for the `momsynth` CLI.
//!
//! Hand-rolled on purpose: the CLI has a handful of subcommands with a
//! handful of flags each, and keeping the workspace's dependency footprint
//! small (see `DESIGN.md`) beats pulling in a full parser generator.
//! Each subcommand declares its flags in a table; one scanner walks argv
//! against the table and a few typed getters read what it found.

use std::str::FromStr;
use std::time::Duration;

use momsynth_serve::ServerConfig;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `info <system.json>` — summary, sizes, shared types, analysis
    /// counts.
    Info {
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
        /// Mode count for free-form generation (at least 1).
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
        /// The synthesis flow to run.
        flow: Flow,
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
        /// The flow of the incumbent run (with DVS, the certificate bound
        /// accounts for it too).
        flow: Flow,
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
        /// The server's journal root and tuning; flags left out keep the
        /// [`ServerConfig::new`] defaults.
        config: ServerConfig,
        /// Unix-socket path to listen on.
        socket: Option<String>,
        /// Speak the protocol on stdin/stdout instead of a socket.
        oneshot: bool,
        /// TCP address for the Prometheus text exposition endpoint.
        metrics_listen: Option<String>,
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
        /// The synthesis flow to run (`threads` stays 0, the server's
        /// automatic choice).
        flow: Flow,
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

/// The synthesis-flow flags `synth`, `prove` and `job submit` share.
/// A field whose flag a subcommand does not accept keeps its default.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// GA seed (`--seed`, default 0).
    pub seed: u64,
    /// Use the fast preset (`--quick`).
    pub quick: bool,
    /// Enable voltage scaling (`--dvs`).
    pub dvs: bool,
    /// Use the probability-neglecting baseline flow
    /// (`--neglect-probabilities`).
    pub neglect: bool,
    /// Worker threads for batch fitness evaluation, 0 = all cores
    /// (`--threads`).
    pub threads: usize,
    /// Wall-clock budget in seconds (`--max-seconds`).
    pub max_seconds: Option<f64>,
    /// Fitness-evaluation budget (`--max-evals`).
    pub max_evals: Option<usize>,
}

impl Flow {
    /// Reads the flow flags from `scan`; `threads` applies when
    /// `--threads` is absent.
    fn read(scan: &Scan<'_>, threads: usize) -> Result<Self, String> {
        Ok(Self {
            seed: scan.get("--seed")?.unwrap_or(0),
            quick: scan.has("--quick"),
            dvs: scan.has("--dvs"),
            neglect: scan.has("--neglect-probabilities"),
            threads: scan.get("--threads")?.unwrap_or(threads),
            max_seconds: scan.seconds("--max-seconds")?,
            max_evals: scan.get("--max-evals")?,
        })
    }
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

impl FromStr for GeneratePreset {
    type Err = String;

    fn from_str(v: &str) -> Result<Self, String> {
        match v {
            "smartphone" => Ok(Self::Smartphone),
            "automotive" => Ok(Self::Automotive),
            _ => v
                .strip_prefix("mul")
                .and_then(|n| n.parse().ok())
                .filter(|n| (1..=12).contains(n))
                .map(Self::Mul)
                .ok_or_else(|| {
                    format!("unknown preset `{v}` (use mul1..mul12, smartphone or automotive)")
                }),
        }
    }
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

impl FromStr for ProveBudget {
    type Err = String;

    fn from_str(v: &str) -> Result<Self, String> {
        match v.strip_suffix('s') {
            Some(secs) => {
                seconds(secs).map(Self::Seconds).ok_or_else(|| format!("invalid --budget `{v}`"))
            }
            None => v
                .parse()
                .map(Self::Evals)
                .map_err(|_| format!("invalid --budget `{v}` (use an eval count or `<T>s`)")),
        }
    }
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

impl FromStr for DotTarget {
    type Err = String;

    fn from_str(v: &str) -> Result<Self, String> {
        match v {
            "omsm" => Ok(Self::Omsm),
            "arch" => Ok(Self::Arch),
            _ => match v.strip_prefix("mode:") {
                Some(n) => {
                    n.parse().map(Self::Mode).map_err(|_| format!("invalid mode index `{n}`"))
                }
                None => Err(format!("unknown dot target `{v}` (use omsm, arch or mode:<n>)")),
            },
        }
    }
}

fn invalid(flag: &str) -> String {
    format!("invalid {flag}")
}

fn missing(cmd: &str, what: &str) -> String {
    format!("{cmd} requires a {what}")
}

/// Parses a number of seconds that is non-negative, finite and small
/// enough for a [`Duration`] — the bound the job server applies to the
/// time budgets of a submitted spec.
fn seconds(v: &str) -> Option<f64> {
    v.parse().ok().filter(|&s| Duration::try_from_secs_f64(s).is_ok())
}

/// One flag a subcommand accepts.
struct Flag {
    /// The long name; error messages use it.
    name: &'static str,
    /// A short alias.
    alias: Option<&'static str>,
    /// Whether the next word is the flag's value.
    takes_value: bool,
}

const fn switch(name: &'static str) -> Flag {
    Flag { name, alias: None, takes_value: false }
}

const fn value(name: &'static str) -> Flag {
    Flag { name, alias: None, takes_value: true }
}

const OUTPUT: Flag = Flag { name: "--output", alias: Some("-o"), takes_value: true };
const QUIET: Flag = Flag { name: "--quiet", alias: Some("-q"), takes_value: false };

const DOT: &[Flag] = &[value("--what")];
const GENERATE: &[Flag] = &[value("--preset"), value("--seed"), value("--modes"), OUTPUT];
const CONVERT: &[Flag] = &[OUTPUT];
/// The flow flags of `synth`, `prove` and `job submit`.
const FLOW: &[Flag] =
    &[value("--seed"), switch("--quick"), switch("--dvs"), switch("--neglect-probabilities")];
/// The budget flags of `synth` and `job submit`.
const BUDGETS: &[Flag] = &[value("--max-seconds"), value("--max-evals")];
const SYNTH: &[Flag] = &[
    value("--threads"),
    value("--checkpoint"),
    value("--checkpoint-every"),
    value("--resume"),
    OUTPUT,
    value("--vcd"),
    value("--trace-out"),
    value("--metrics-out"),
    switch("--progress"),
    QUIET,
];
/// The report flag of `analyze`, `check` and `prove`.
const REPORT: &[Flag] = &[value("--report-out")];
const PROVE: &[Flag] = &[value("--budget"), QUIET];
const SERVE: &[Flag] = &[
    value("--root"),
    value("--socket"),
    switch("--oneshot"),
    value("--workers"),
    value("--queue-capacity"),
    value("--checkpoint-every"),
    value("--checkpoint-every-seconds"),
    value("--max-retries"),
    value("--metrics-listen"),
    switch("--no-metrics"),
];
/// The flag every `job` request accepts.
const JOB: &[Flag] = &[value("--socket")];
const SUBMIT: &[Flag] = &[value("--priority"), value("--timeout-seconds"), switch("--wait")];
const WAIT: &[Flag] = &[value("--timeout-s")];
const METRICS: &[Flag] = &[switch("--text")];
const PROFILE: &[Flag] = &[switch("--collapsed"), OUTPUT];

/// What [`scan`] found: the positional words in order, and every flag
/// occurrence under its long name (a switch with an empty value).
struct Scan<'a> {
    positionals: Vec<&'a str>,
    flags: Vec<(&'static str, &'a str)>,
}

/// Walks `args` against the flag `tables`. The first `leading` words are
/// positional whatever they look like. Every later word is a flag, a
/// flag's value or, when `floating`, the one extra positional, which may
/// sit anywhere among the flags.
fn scan<'a>(
    args: &'a [String],
    leading: usize,
    floating: bool,
    tables: &[&[Flag]],
) -> Result<Scan<'a>, String> {
    let (head, tail) = args.split_at(leading.min(args.len()));
    let mut found =
        Scan { positionals: head.iter().map(String::as_str).collect(), flags: Vec::new() };
    let mut words = tail.iter().map(String::as_str);
    while let Some(word) = words.next() {
        let flag =
            tables.iter().flat_map(|t| t.iter()).find(|f| f.name == word || f.alias == Some(word));
        match flag {
            Some(flag) if flag.takes_value => {
                let value =
                    words.next().ok_or_else(|| format!("{} requires a value", flag.name))?;
                found.flags.push((flag.name, value));
            }
            Some(flag) => found.flags.push((flag.name, "")),
            None if floating && !word.starts_with('-') && found.positionals.len() == leading => {
                found.positionals.push(word);
            }
            None => return Err(format!("unknown flag `{word}`")),
        }
    }
    Ok(found)
}

impl Scan<'_> {
    /// Whether the switch `name` was given.
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|&(n, _)| n == name)
    }

    /// The last value of `name` as `read` converts it, `None` when the
    /// flag is absent. Every occurrence is converted, so a bad value is
    /// never masked by a later good one.
    fn read<T>(
        &self,
        name: &str,
        read: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let mut last = None;
        for &(_, v) in self.flags.iter().filter(|&&(n, _)| n == name) {
            last = Some(read(v)?);
        }
        Ok(last)
    }

    /// The last value of `name` parsed as a `T`.
    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.read(name, |v| v.parse().map_err(|_| invalid(name)))
    }

    /// The last value of `name` as a number of [`seconds`].
    fn seconds(&self, name: &str) -> Result<Option<f64>, String> {
        self.read(name, |v| seconds(v).ok_or_else(|| invalid(name)))
    }

    /// Positional `i`, which `cmd` requires as its `what`.
    fn positional(&self, i: usize, cmd: &str, what: &str) -> Result<String, String> {
        self.positionals.get(i).map(|&p| p.to_owned()).ok_or_else(|| missing(cmd, what))
    }
}

/// Parses the argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "info" => {
            // Takes the path and ignores any words after it.
            let path = rest.first().cloned().ok_or_else(|| missing(cmd, "system file"))?;
            Ok(Command::Info { path })
        }
        "dot" => {
            let s = scan(rest, 1, false, &[DOT])?;
            Ok(Command::Dot {
                path: s.positional(0, cmd, "system file")?,
                what: s.read("--what", str::parse)?.unwrap_or(DotTarget::Omsm),
            })
        }
        "generate" => {
            let s = scan(rest, 0, false, &[GENERATE])?;
            Ok(Command::Generate {
                preset: s.read("--preset", str::parse)?,
                seed: s.get("--seed")?.unwrap_or(1),
                modes: s
                    .read("--modes", |v| {
                        v.parse().ok().filter(|&m| m > 0).ok_or_else(|| invalid("--modes"))
                    })?
                    .unwrap_or(4),
                output: s.get("--output")?.unwrap_or_else(|| "-".to_owned()),
            })
        }
        "convert" => {
            let s = scan(rest, 1, false, &[CONVERT])?;
            Ok(Command::Convert {
                path: s.positional(0, cmd, "tgff file")?,
                output: s.get("--output")?.unwrap_or_else(|| "-".to_owned()),
            })
        }
        "synth" => {
            let s = scan(rest, 1, false, &[FLOW, BUDGETS, SYNTH])?;
            let synth = Command::Synth {
                path: s.positional(0, cmd, "system file")?,
                flow: Flow::read(&s, 1)?,
                checkpoint: s.get("--checkpoint")?,
                checkpoint_every: s.get("--checkpoint-every")?.unwrap_or(10),
                resume: s.get("--resume")?,
                output: s.get("--output")?,
                vcd: s.get("--vcd")?,
                trace_out: s.get("--trace-out")?,
                metrics_out: s.get("--metrics-out")?,
                progress: s.has("--progress"),
                quiet: s.has("--quiet"),
            };
            if s.has("--progress") && s.has("--quiet") {
                return Err("--progress and --quiet are mutually exclusive".into());
            }
            Ok(synth)
        }
        "analyze" => {
            let s = scan(rest, 1, false, &[REPORT])?;
            Ok(Command::Analyze {
                path: s.positional(0, cmd, "system file")?,
                report_out: s.get("--report-out")?,
            })
        }
        "prove" => {
            let s = scan(rest, 1, false, &[FLOW, REPORT, PROVE])?;
            Ok(Command::Prove {
                path: s.positional(0, cmd, "system file")?,
                budget: s.read("--budget", str::parse)?.unwrap_or(ProveBudget::Evals(100_000)),
                flow: Flow::read(&s, 1)?,
                report_out: s.get("--report-out")?,
                quiet: s.has("--quiet"),
            })
        }
        "check" => {
            let s = scan(rest, 2, false, &[REPORT])?;
            Ok(Command::Check {
                path: s.positional(0, cmd, "system file")?,
                solution: s.positional(1, cmd, "solution file")?,
                report_out: s.get("--report-out")?,
            })
        }
        "serve" => {
            let s = scan(rest, 0, false, &[SERVE])?;
            let defaults = ServerConfig::new(s.get("--root")?.unwrap_or_default());
            let config = ServerConfig {
                workers: s.get("--workers")?.unwrap_or(defaults.workers),
                queue_capacity: s.get("--queue-capacity")?.unwrap_or(defaults.queue_capacity),
                checkpoint_every: s.get("--checkpoint-every")?.unwrap_or(defaults.checkpoint_every),
                checkpoint_every_seconds: s
                    .read("--checkpoint-every-seconds", |v| {
                        seconds(v)
                            .filter(|&t| t > 0.0)
                            .ok_or_else(|| invalid("--checkpoint-every-seconds"))
                    })?
                    .or(defaults.checkpoint_every_seconds),
                max_retries: s.get("--max-retries")?.unwrap_or(defaults.max_retries),
                metrics: !s.has("--no-metrics"),
                ..defaults
            };
            let serve = Command::Serve {
                config,
                socket: s.get("--socket")?,
                oneshot: s.has("--oneshot"),
                metrics_listen: s.get("--metrics-listen")?,
            };
            if !s.has("--root") {
                return Err("serve requires --root DIR".into());
            }
            if s.has("--oneshot") && s.has("--socket") {
                return Err("--oneshot and --socket are mutually exclusive".into());
            }
            if !s.has("--oneshot") && !s.has("--socket") {
                return Err("serve requires --socket PATH or --oneshot".into());
            }
            if s.has("--no-metrics") && s.has("--metrics-listen") {
                return Err("--no-metrics and --metrics-listen are mutually exclusive".into());
            }
            Ok(serve)
        }
        "job" => {
            let verb = rest.first().map(String::as_str).ok_or(
                "job requires a request (submit, status, result, cancel, wait, list, metrics, \
                 ping, shutdown)",
            )?;
            let tables: &[&[Flag]] = match verb {
                "submit" => &[JOB, FLOW, BUDGETS, SUBMIT],
                "wait" => &[JOB, WAIT],
                "metrics" => &[JOB, METRICS],
                _ => &[JOB],
            };
            let s = scan(&rest[1..], 0, true, tables)?;
            let priority = s.get("--priority")?.unwrap_or(0);
            let flow = Flow::read(&s, 0)?;
            let timeout_seconds = s.seconds("--timeout-seconds")?;
            let timeout_s = s.seconds("--timeout-s")?.unwrap_or(600.0);
            let socket = s.get("--socket")?.ok_or("job requires --socket PATH")?;
            let cmd = format!("job {verb}");
            let id = || s.positional(0, &cmd, "job id");
            let request = match verb {
                "submit" => JobRequest::Submit {
                    path: s.positional(0, &cmd, "system file")?,
                    priority,
                    flow,
                    timeout_seconds,
                    wait: s.has("--wait"),
                },
                "status" => JobRequest::Status { id: id()? },
                "result" => JobRequest::Result { id: id()? },
                "cancel" => JobRequest::Cancel { id: id()? },
                "wait" => JobRequest::Wait { id: id()?, timeout_s },
                "list" => JobRequest::List,
                "metrics" => JobRequest::Metrics { text: s.has("--text") },
                "ping" => JobRequest::Ping,
                "shutdown" => JobRequest::Shutdown,
                other => {
                    return Err(format!(
                        "unknown job request `{other}` (use submit, status, result, cancel, \
                         wait, list, metrics, ping or shutdown)"
                    ))
                }
            };
            Ok(Command::Job { socket, request })
        }
        "profile" => {
            let s = scan(rest, 1, false, &[PROFILE])?;
            Ok(Command::Profile {
                trace: s.positional(0, cmd, "trace file")?,
                collapsed: s.has("--collapsed"),
                output: s.get("--output")?,
            })
        }
        other => Err(format!("unknown command `{other}` (try `momsynth help`)")),
    }
}

/// The help text.
pub const HELP: &str = "\
momsynth — energy-efficient co-synthesis for multi-mode embedded systems

USAGE:
    momsynth <COMMAND> [OPTIONS]

COMMANDS:
    info <system.json>       summarise a system specification
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
    fn info_needs_a_path() {
        assert_eq!(
            parse(&argv("info sys.json")).unwrap(),
            Command::Info { path: "sys.json".into() }
        );
        assert!(parse(&argv("info")).is_err());
        assert!(parse(&argv("lint sys.json")).unwrap_err().contains("unknown command `lint`"));
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
        let err = parse(&argv("generate --modes 0")).unwrap_err();
        assert_eq!(err.to_string(), "invalid --modes");
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
                flow: Flow {
                    seed: 4,
                    quick: true,
                    dvs: true,
                    neglect: true,
                    threads: 1,
                    max_seconds: None,
                    max_evals: None,
                },
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
            Command::Synth { flow, .. } => assert_eq!(flow.threads, 8),
            other => panic!("unexpected parse: {other:?}"),
        }
        match parse(&argv("synth s.json --threads 0")).unwrap() {
            Command::Synth { flow, .. } => assert_eq!(flow.threads, 0),
            other => panic!("unexpected parse: {other:?}"),
        }
        match parse(&argv("synth s.json")).unwrap() {
            Command::Synth { flow, .. } => assert_eq!(flow.threads, 1),
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
            Command::Synth { flow, checkpoint, checkpoint_every, resume, .. } => {
                assert_eq!(flow.max_seconds, Some(1.5));
                assert_eq!(flow.max_evals, Some(500));
                assert_eq!(checkpoint.as_deref(), Some("cp.json"));
                assert_eq!(checkpoint_every, 3);
                assert_eq!(resume.as_deref(), Some("old.json"));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        assert!(parse(&argv("synth s.json --max-seconds nope")).is_err());
        assert!(parse(&argv("synth s.json --max-seconds -2")).is_err());
        assert!(parse(&argv("synth s.json --max-seconds 1e300")).is_err());
        assert!(parse(&argv("synth s.json --max-evals -1")).is_err());
        assert!(parse(&argv("synth s.json --checkpoint")).is_err());
    }

    #[test]
    fn check_parses() {
        assert_eq!(
            parse(&argv("check sys.json sol.json")).unwrap(),
            Command::Check {
                path: "sys.json".into(),
                solution: "sol.json".into(),
                report_out: None
            }
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
                flow: Flow {
                    seed: 0,
                    quick: false,
                    dvs: false,
                    neglect: false,
                    threads: 1,
                    max_seconds: None,
                    max_evals: None,
                },
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
                flow: Flow {
                    seed: 7,
                    quick: true,
                    dvs: true,
                    neglect: true,
                    threads: 1,
                    max_seconds: None,
                    max_evals: None,
                },
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
        let err = parse(&argv("prove sys.json --budget 1e300s")).unwrap_err();
        assert_eq!(err.to_string(), "invalid --budget `1e300s`");
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
                config: ServerConfig {
                    workers: 4,
                    queue_capacity: 8,
                    checkpoint_every: 3,
                    checkpoint_every_seconds: Some(1.5),
                    max_retries: 5,
                    ..ServerConfig::new("jobs".into())
                },
                socket: Some("momsynth.sock".into()),
                oneshot: false,
                metrics_listen: None,
            }
        );
        match parse(&argv("serve --root jobs --oneshot")).unwrap() {
            Command::Serve { oneshot, socket, config, metrics_listen } => {
                assert!(oneshot);
                assert_eq!(socket, None);
                assert!(config.metrics, "metrics are on by default");
                assert_eq!(metrics_listen, None);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        assert!(parse(&argv("serve --socket s.sock")).is_err(), "--root is required");
        assert!(parse(&argv("serve --root jobs")).is_err(), "a transport is required");
        assert!(parse(&argv("serve --root jobs --oneshot --socket s.sock")).is_err());
        assert!(parse(&argv("serve --root jobs --oneshot --checkpoint-every-seconds 0")).is_err());
        assert!(
            parse(&argv("serve --root jobs --oneshot --checkpoint-every-seconds 1e300")).is_err()
        );
    }

    #[test]
    fn serve_metrics_flags_parse() {
        match parse(&argv("serve --root jobs --oneshot --metrics-listen 127.0.0.1:9187")).unwrap() {
            Command::Serve { metrics_listen, config, .. } => {
                assert_eq!(metrics_listen.as_deref(), Some("127.0.0.1:9187"));
                assert!(config.metrics);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        match parse(&argv("serve --root jobs --oneshot --no-metrics")).unwrap() {
            Command::Serve { config, .. } => assert!(!config.metrics),
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
                    flow: Flow {
                        seed: 3,
                        quick: true,
                        dvs: false,
                        neglect: false,
                        threads: 0,
                        max_seconds: None,
                        max_evals: None,
                    },
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
            "job submit sys.json --socket s.sock --max-seconds 1e300",
            "job submit sys.json --socket s.sock --timeout-seconds 1e300",
            "job wait job-000002 --socket s.sock --timeout-s 1e300",
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

    /// `HELP` and the flag tables cannot drift apart: every table flag is
    /// documented, and every documented `--flag` is accepted somewhere.
    #[test]
    fn help_matches_the_flag_tables() {
        let tables = [
            DOT, GENERATE, CONVERT, FLOW, BUDGETS, SYNTH, REPORT, PROVE, SERVE, JOB, SUBMIT, WAIT,
            METRICS, PROFILE,
        ];
        let flags = || tables.iter().flat_map(|t| t.iter());
        let words: Vec<&str> =
            HELP.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')).collect();
        for flag in flags() {
            assert!(
                words.contains(&flag.name) || flag.alias.is_some_and(|a| words.contains(&a)),
                "HELP does not mention {}",
                flag.name
            );
        }
        for word in words.iter().filter(|w| w.starts_with("--")) {
            assert!(flags().any(|f| f.name == *word), "HELP mentions {word}, which no table has");
        }
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = parse(&argv("frobnicate")).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }
}
