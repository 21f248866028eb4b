//! Importing TGFF-style specifications.
//!
//! TGFF (*Task Graphs For Free*, Dick/Rhodes/Wolf) is the de-facto
//! exchange format for task-graph benchmarks in the co-synthesis
//! literature — the paper's own generated examples are TGFF-class
//! workloads. This module parses a documented dialect of the format and
//! builds a complete [`System`]:
//!
//! ```text
//! # comments run to the end of the line
//! @TASK_GRAPH 0 {
//!     PERIOD 0.020              # seconds
//!     PROBABILITY 0.74          # momsynth extension: mode probability
//!     NAME rlc                  # momsynth extension: mode name
//!     TASK t0 TYPE 2
//!     TASK t1 TYPE 5
//!     ARC a0 FROM t0 TO t1 TYPE 64        # TYPE = transferred data units
//!     HARD_DEADLINE d0 ON t1 AT 0.015     # seconds
//! }
//!
//! @PE 0 {
//!     KIND GPP                  # GPP | ASIP | ASIC | FPGA
//!     STATIC_POWER 0.005        # watts
//!     AREA 1000                 # cells, hardware kinds only
//!     RECONFIG_TIME_PER_CELL 1e-6   # seconds, FPGA only
//!     DVS 3.3 0.8 1.2 1.8 2.4 3.3   # v_max v_t level...
//!     # type  exec_time  power  area
//!     2       0.010      0.30   0
//!     5       0.012      0.25   0
//! }
//!
//! @LINK 0 {
//!     CONNECTS 0 1
//!     TIME_PER_UNIT 1e-6
//!     POWER 0.002
//!     STATIC_POWER 0.0005
//! }
//!
//! @TRANSITION 0 FROM 0 TO 1 MAX_TIME 0.010
//! ```
//!
//! Unknown directives inside blocks are rejected with a line-accurate
//! error — silent misparses of benchmark files are worse than strictness.
//! Graphs with a single `@TASK_GRAPH` and no `PROBABILITY` default to
//! probability 1; multi-graph files must specify probabilities.

use std::collections::HashMap;
use std::fmt;

use momsynth_model::ids::{PeId, TaskId};
use momsynth_model::units::{Cells, Seconds, Volts, Watts};
use momsynth_model::{
    ArchitectureBuilder, Cl, DvsCapability, Implementation, ModelError, OmsmBuilder, Pe, PeKind,
    System, TaskGraphBuilder, TechLibraryBuilder,
};

/// A TGFF parse or consistency error, with the 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct TgffError {
    /// 1-based line of the offending input (0 for file-level errors).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl TgffError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        Self { line, message: message.into() }
    }
}

impl fmt::Display for TgffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "tgff: {}", self.message)
        } else {
            write!(f, "tgff line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for TgffError {}

impl From<ModelError> for TgffError {
    fn from(e: ModelError) -> Self {
        Self::new(0, e.to_string())
    }
}

#[derive(Debug, Default)]
struct GraphBlock {
    index: usize,
    name: Option<String>,
    period: Option<f64>,
    probability: Option<f64>,
    tasks: Vec<(String, usize, usize)>,      // (name, type, line)
    arcs: Vec<(String, String, f64, usize)>, // (from, to, data, line)
    deadlines: Vec<(String, f64, usize)>,    // (task, deadline, line)
}

#[derive(Debug, Default)]
struct PeBlock {
    index: usize,
    kind: Option<PeKind>,
    static_power: f64,
    area: Option<u64>,
    reconfig: Option<f64>,
    dvs: Option<(f64, f64, Vec<f64>)>,
    rows: Vec<(usize, f64, f64, u64, usize)>, // (type, time, power, area, line)
}

#[derive(Debug, Default)]
struct LinkBlock {
    index: usize,
    connects: Vec<usize>,
    time_per_unit: f64,
    power: f64,
    static_power: f64,
}

#[derive(Debug)]
struct TransitionLine {
    from: usize,
    to: usize,
    max_time: f64,
    line: usize,
}

/// Parses a TGFF-dialect specification into a [`System`].
///
/// # Errors
///
/// Returns a [`TgffError`] with the offending line for syntax errors,
/// unknown directives, dangling references and model-level validation
/// failures.
pub fn parse_system(name: &str, input: &str) -> Result<System, TgffError> {
    let mut graphs: Vec<GraphBlock> = Vec::new();
    let mut pes: Vec<PeBlock> = Vec::new();
    let mut links: Vec<LinkBlock> = Vec::new();
    let mut transitions: Vec<TransitionLine> = Vec::new();

    #[derive(Debug)]
    enum BlockKind {
        Graph,
        Pe,
        Link,
    }
    let mut current: Option<BlockKind> = None;

    for (i, raw) in input.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();

        if let Some(rest) = line.strip_prefix('@') {
            if current.is_some() && !rest.contains('{') && tokens[0] != "@TRANSITION" {
                return Err(TgffError::new(line_no, "new section while a block is open"));
            }
            match tokens[0] {
                "@TASK_GRAPH" => {
                    let index = parse_index(&tokens, line_no)?;
                    graphs.push(GraphBlock { index, ..GraphBlock::default() });
                    current = Some(BlockKind::Graph);
                }
                "@PE" | "@CORE" => {
                    let index = parse_index(&tokens, line_no)?;
                    pes.push(PeBlock { index, ..PeBlock::default() });
                    current = Some(BlockKind::Pe);
                }
                "@LINK" | "@WIRE" => {
                    let index = parse_index(&tokens, line_no)?;
                    links.push(LinkBlock { index, ..LinkBlock::default() });
                    current = Some(BlockKind::Link);
                }
                "@TRANSITION" => {
                    // @TRANSITION i FROM a TO b MAX_TIME t
                    let get = |k: &str| -> Result<f64, TgffError> {
                        let pos = tokens
                            .iter()
                            .position(|&t| t == k)
                            .ok_or_else(|| TgffError::new(line_no, format!("missing {k}")))?;
                        tokens
                            .get(pos + 1)
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| TgffError::new(line_no, format!("invalid {k} value")))
                    };
                    transitions.push(TransitionLine {
                        from: get("FROM")? as usize,
                        to: get("TO")? as usize,
                        max_time: get("MAX_TIME")?,
                        line: line_no,
                    });
                }
                other => return Err(TgffError::new(line_no, format!("unknown section `{other}`"))),
            }
            continue;
        }

        if line == "}" {
            if current.take().is_none() {
                return Err(TgffError::new(line_no, "unmatched `}`"));
            }
            continue;
        }

        let Some(kind) = &current else {
            return Err(TgffError::new(
                line_no,
                format!("directive `{}` outside any block", tokens[0]),
            ));
        };
        match kind {
            BlockKind::Graph => {
                let g = graphs.last_mut().expect("open graph block");
                match tokens[0] {
                    "PERIOD" => g.period = Some(parse_f64(&tokens, 1, line_no)?),
                    "PROBABILITY" => g.probability = Some(parse_f64(&tokens, 1, line_no)?),
                    "NAME" => {
                        g.name = Some(
                            tokens
                                .get(1)
                                .ok_or_else(|| TgffError::new(line_no, "NAME requires a value"))?
                                .to_string(),
                        )
                    }
                    "TASK" => {
                        // TASK <name> TYPE <n>
                        let name = tokens
                            .get(1)
                            .ok_or_else(|| TgffError::new(line_no, "TASK requires a name"))?;
                        expect_keyword(&tokens, 2, "TYPE", line_no)?;
                        let ty = parse_f64(&tokens, 3, line_no)? as usize;
                        g.tasks.push((name.to_string(), ty, line_no));
                    }
                    "ARC" => {
                        // ARC <name> FROM <a> TO <b> TYPE <data>
                        expect_keyword(&tokens, 2, "FROM", line_no)?;
                        expect_keyword(&tokens, 4, "TO", line_no)?;
                        expect_keyword(&tokens, 6, "TYPE", line_no)?;
                        let from = tokens
                            .get(3)
                            .ok_or_else(|| TgffError::new(line_no, "ARC missing FROM task"))?;
                        let to = tokens
                            .get(5)
                            .ok_or_else(|| TgffError::new(line_no, "ARC missing TO task"))?;
                        let data = parse_f64(&tokens, 7, line_no)?;
                        g.arcs.push((from.to_string(), to.to_string(), data, line_no));
                    }
                    "HARD_DEADLINE" => {
                        // HARD_DEADLINE <name> ON <task> AT <t>
                        expect_keyword(&tokens, 2, "ON", line_no)?;
                        expect_keyword(&tokens, 4, "AT", line_no)?;
                        let task = tokens
                            .get(3)
                            .ok_or_else(|| TgffError::new(line_no, "deadline missing task"))?;
                        let at = parse_f64(&tokens, 5, line_no)?;
                        g.deadlines.push((task.to_string(), at, line_no));
                    }
                    other => {
                        return Err(TgffError::new(
                            line_no,
                            format!("unknown task-graph directive `{other}`"),
                        ))
                    }
                }
            }
            BlockKind::Pe => {
                let p = pes.last_mut().expect("open PE block");
                match tokens[0] {
                    "KIND" => {
                        p.kind = Some(match tokens.get(1).copied() {
                            Some("GPP") => PeKind::Gpp,
                            Some("ASIP") => PeKind::Asip,
                            Some("ASIC") => PeKind::Asic,
                            Some("FPGA") => PeKind::Fpga,
                            other => {
                                return Err(TgffError::new(
                                    line_no,
                                    format!("unknown PE kind {other:?}"),
                                ))
                            }
                        })
                    }
                    "STATIC_POWER" => p.static_power = parse_f64(&tokens, 1, line_no)?,
                    "AREA" => p.area = Some(parse_f64(&tokens, 1, line_no)? as u64),
                    "RECONFIG_TIME_PER_CELL" => p.reconfig = Some(parse_f64(&tokens, 1, line_no)?),
                    "DVS" => {
                        if tokens.len() < 4 {
                            return Err(TgffError::new(
                                line_no,
                                "DVS requires v_max v_t and at least one level",
                            ));
                        }
                        let nums: Result<Vec<f64>, _> =
                            tokens[1..].iter().map(|t| t.parse::<f64>()).collect();
                        let nums =
                            nums.map_err(|_| TgffError::new(line_no, "invalid DVS voltage"))?;
                        p.dvs = Some((nums[0], nums[1], nums[2..].to_vec()));
                    }
                    _ => {
                        // Implementation row: type time power area
                        if tokens.len() != 4 {
                            return Err(TgffError::new(
                                line_no,
                                "implementation rows are `type exec_time power area`",
                            ));
                        }
                        let ty = tokens[0].parse::<usize>().map_err(|_| {
                            TgffError::new(line_no, format!("invalid type `{}`", tokens[0]))
                        })?;
                        let time = parse_f64(&tokens, 1, line_no)?;
                        let power = parse_f64(&tokens, 2, line_no)?;
                        let area = parse_f64(&tokens, 3, line_no)? as u64;
                        p.rows.push((ty, time, power, area, line_no));
                    }
                }
            }
            BlockKind::Link => {
                let l = links.last_mut().expect("open link block");
                match tokens[0] {
                    "CONNECTS" => {
                        l.connects = tokens[1..]
                            .iter()
                            .map(|t| {
                                t.parse::<usize>().map_err(|_| {
                                    TgffError::new(line_no, format!("invalid PE index `{t}`"))
                                })
                            })
                            .collect::<Result<_, _>>()?;
                    }
                    "TIME_PER_UNIT" => l.time_per_unit = parse_f64(&tokens, 1, line_no)?,
                    "POWER" => l.power = parse_f64(&tokens, 1, line_no)?,
                    "STATIC_POWER" => l.static_power = parse_f64(&tokens, 1, line_no)?,
                    other => {
                        return Err(TgffError::new(
                            line_no,
                            format!("unknown link directive `{other}`"),
                        ))
                    }
                }
            }
        }
    }
    if current.is_some() {
        return Err(TgffError::new(0, "unterminated block at end of input"));
    }
    if graphs.is_empty() {
        return Err(TgffError::new(0, "no @TASK_GRAPH sections"));
    }
    if pes.is_empty() {
        return Err(TgffError::new(0, "no @PE sections"));
    }
    graphs.sort_by_key(|g| g.index);
    pes.sort_by_key(|p| p.index);
    links.sort_by_key(|l| l.index);

    // ---- Technology library: the union of all implementation rows --------
    let max_type = pes
        .iter()
        .flat_map(|p| p.rows.iter().map(|r| r.0))
        .chain(graphs.iter().flat_map(|g| g.tasks.iter().map(|t| t.1)))
        .max()
        .unwrap_or(0);
    let mut tech = TechLibraryBuilder::new();
    for t in 0..=max_type {
        tech.add_type(format!("type{t}"));
    }

    let mut arch = ArchitectureBuilder::new();
    for (i, p) in pes.iter().enumerate() {
        let kind =
            p.kind.ok_or_else(|| TgffError::new(0, format!("@PE {} missing KIND", p.index)))?;
        let mut pe = if kind.is_software() {
            Pe::software(format!("PE{i}"), kind, Watts::new(p.static_power))
        } else {
            let area = p.area.ok_or_else(|| {
                TgffError::new(0, format!("hardware @PE {} missing AREA", p.index))
            })?;
            Pe::hardware(format!("PE{i}"), kind, Cells::new(area), Watts::new(p.static_power))
        };
        if let Some(r) = p.reconfig {
            pe = pe.with_reconfig_time_per_cell(Seconds::new(r));
        }
        if let Some((v_max, v_t, levels)) = &p.dvs {
            pe = pe.with_dvs(DvsCapability::new(
                Volts::new(*v_max),
                Volts::new(*v_t),
                levels.iter().map(|&v| Volts::new(v)).collect(),
            ));
        }
        let pe_id = arch.add_pe(pe);
        debug_assert_eq!(pe_id, PeId::new(i));
        for &(ty, time, power, area, line) in &p.rows {
            if kind.is_hardware() && area == 0 {
                return Err(TgffError::new(line, "hardware rows need a non-zero area"));
            }
            let implementation = if kind.is_software() {
                Implementation::software(Seconds::new(time), Watts::new(power))
            } else {
                Implementation::hardware(Seconds::new(time), Watts::new(power), Cells::new(area))
            };
            tech.set_impl(momsynth_model::ids::TaskTypeId::new(ty), pe_id, implementation);
        }
    }
    for l in &links {
        arch.add_cl(Cl::bus(
            format!("LINK{}", l.index),
            l.connects.iter().map(|&i| PeId::new(i)).collect(),
            Seconds::new(l.time_per_unit),
            Watts::new(l.power),
            Watts::new(l.static_power),
        ))?;
    }

    // ---- Modes ---------------------------------------------------------
    let mut omsm = OmsmBuilder::new();
    let single = graphs.len() == 1;
    let mut mode_ids = Vec::with_capacity(graphs.len());
    for g in &graphs {
        let period = g
            .period
            .ok_or_else(|| TgffError::new(0, format!("@TASK_GRAPH {} missing PERIOD", g.index)))?;
        let probability = match g.probability {
            Some(p) => p,
            None if single => 1.0,
            None => {
                return Err(TgffError::new(
                    0,
                    format!("@TASK_GRAPH {} missing PROBABILITY", g.index),
                ))
            }
        };
        let mode_name = g.name.clone().unwrap_or_else(|| format!("graph{}", g.index));
        let mut builder = TaskGraphBuilder::new(mode_name.clone(), Seconds::new(period));
        let mut by_name: HashMap<&str, TaskId> = HashMap::new();
        for (task_name, ty, line) in &g.tasks {
            if by_name.contains_key(task_name.as_str()) {
                return Err(TgffError::new(*line, format!("duplicate task `{task_name}`")));
            }
            let id = builder.add_task(task_name.clone(), momsynth_model::ids::TaskTypeId::new(*ty));
            by_name.insert(task_name.as_str(), id);
        }
        for (from, to, data, line) in &g.arcs {
            let src = *by_name.get(from.as_str()).ok_or_else(|| {
                TgffError::new(*line, format!("arc references unknown task `{from}`"))
            })?;
            let dst = *by_name.get(to.as_str()).ok_or_else(|| {
                TgffError::new(*line, format!("arc references unknown task `{to}`"))
            })?;
            builder.add_comm(src, dst, *data).map_err(|e| TgffError::new(*line, e.to_string()))?;
        }
        for (task, at, line) in &g.deadlines {
            let id = *by_name.get(task.as_str()).ok_or_else(|| {
                TgffError::new(*line, format!("deadline references unknown task `{task}`"))
            })?;
            builder
                .set_deadline(id, Seconds::new(*at))
                .map_err(|e| TgffError::new(*line, e.to_string()))?;
        }
        let graph = builder.build().map_err(|e| TgffError::new(0, e.to_string()))?;
        mode_ids.push(omsm.add_mode(mode_name, probability, graph));
    }
    for t in &transitions {
        let get = |i: usize| -> Result<_, TgffError> {
            mode_ids.get(i).copied().ok_or_else(|| {
                TgffError::new(t.line, format!("transition references unknown graph {i}"))
            })
        };
        omsm.add_transition(get(t.from)?, get(t.to)?, Seconds::new(t.max_time))
            .map_err(|e| TgffError::new(t.line, e.to_string()))?;
    }

    Ok(System::new(name, omsm.build()?, arch.build()?, tech.build())?)
}

/// Renders `system` in the same TGFF dialect [`parse_system`] accepts.
///
/// The export loses only the system name and free-form type names (types
/// are referenced by index in TGFF); everything else round-trips:
/// `parse_system(name, &to_tgff(&s))` reproduces the modes, architecture,
/// technology library, probabilities, deadlines and transitions of `s`.
pub fn to_tgff(system: &System) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# exported by momsynth from system `{}`", system.name());

    for (mode_id, mode) in system.omsm().modes() {
        let graph = mode.graph();
        let _ = writeln!(out, "\n@TASK_GRAPH {} {{", mode_id.index());
        let _ = writeln!(out, "    PERIOD {}", graph.period().value());
        let _ = writeln!(out, "    PROBABILITY {}", mode.probability());
        let _ = writeln!(out, "    NAME {}", mode.name().replace(char::is_whitespace, "_"));
        for (task_id, task) in graph.tasks() {
            let _ =
                writeln!(out, "    TASK t{} TYPE {}", task_id.index(), task.task_type().index());
        }
        for (comm_id, comm) in graph.comms() {
            let _ = writeln!(
                out,
                "    ARC a{} FROM t{} TO t{} TYPE {}",
                comm_id.index(),
                comm.src().index(),
                comm.dst().index(),
                comm.data_units()
            );
        }
        for (task_id, task) in graph.tasks() {
            if let Some(d) = task.deadline() {
                let _ = writeln!(
                    out,
                    "    HARD_DEADLINE d{} ON t{} AT {}",
                    task_id.index(),
                    task_id.index(),
                    d.value()
                );
            }
        }
        out.push_str("}\n");
    }

    for (pe_id, pe) in system.arch().pes() {
        let _ = writeln!(out, "\n@PE {} {{", pe_id.index());
        let _ = writeln!(out, "    KIND {}", pe.kind());
        let _ = writeln!(out, "    STATIC_POWER {}", pe.static_power().value());
        if let Some(area) = pe.area() {
            let _ = writeln!(out, "    AREA {}", area.value());
        }
        if pe.reconfig_time_per_cell().value() > 0.0 {
            let _ =
                writeln!(out, "    RECONFIG_TIME_PER_CELL {}", pe.reconfig_time_per_cell().value());
        }
        if let Some(dvs) = pe.dvs() {
            let levels: Vec<String> = dvs.levels().iter().map(|v| v.value().to_string()).collect();
            let _ = writeln!(
                out,
                "    DVS {} {} {}",
                dvs.v_max().value(),
                dvs.v_threshold().value(),
                levels.join(" ")
            );
        }
        for ty in system.tech().type_ids() {
            if let Some(imp) = system.tech().impl_of(ty, pe_id) {
                let _ = writeln!(
                    out,
                    "    {} {} {} {}",
                    ty.index(),
                    imp.exec_time().value(),
                    imp.dyn_power().value(),
                    imp.area().value()
                );
            }
        }
        out.push_str("}\n");
    }

    for (cl_id, cl) in system.arch().cls() {
        let _ = writeln!(out, "\n@LINK {} {{", cl_id.index());
        let endpoints: Vec<String> = cl.endpoints().iter().map(|p| p.index().to_string()).collect();
        let _ = writeln!(out, "    CONNECTS {}", endpoints.join(" "));
        let _ = writeln!(out, "    TIME_PER_UNIT {}", cl.time_per_data_unit().value());
        let _ = writeln!(out, "    POWER {}", cl.transfer_power().value());
        let _ = writeln!(out, "    STATIC_POWER {}", cl.static_power().value());
        out.push_str("}\n");
    }

    for (t_id, t) in system.omsm().transitions() {
        let _ = writeln!(
            out,
            "@TRANSITION {} FROM {} TO {} MAX_TIME {}",
            t_id.index(),
            t.from().index(),
            t.to().index(),
            t.max_time().value()
        );
    }
    out
}

fn parse_index(tokens: &[&str], line: usize) -> Result<usize, TgffError> {
    tokens
        .get(1)
        .and_then(|t| t.trim_end_matches('{').trim().parse().ok())
        .ok_or_else(|| TgffError::new(line, "section requires an index"))
}

fn parse_f64(tokens: &[&str], pos: usize, line: usize) -> Result<f64, TgffError> {
    tokens
        .get(pos)
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| TgffError::new(line, format!("expected a number at position {pos}")))
}

fn expect_keyword(tokens: &[&str], pos: usize, kw: &str, line: usize) -> Result<(), TgffError> {
    if tokens.get(pos).copied() == Some(kw) {
        Ok(())
    } else {
        Err(TgffError::new(line, format!("expected `{kw}` at position {pos}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::ids::ModeId;

    const SAMPLE: &str = r#"
# two-mode sample in the momsynth TGFF dialect
@TASK_GRAPH 0 {
    PERIOD 0.020
    PROBABILITY 0.9
    NAME standby
    TASK t0 TYPE 0
    TASK t1 TYPE 1
    ARC a0 FROM t0 TO t1 TYPE 64
    HARD_DEADLINE d0 ON t1 AT 0.015
}

@TASK_GRAPH 1 {
    PERIOD 0.040
    PROBABILITY 0.1
    TASK u0 TYPE 1
}

@PE 0 {
    KIND GPP
    STATIC_POWER 0.005
    DVS 3.3 0.8 1.2 3.3
    0 0.002 0.30 0
    1 0.004 0.25 0
}

@PE 1 {
    KIND ASIC
    STATIC_POWER 0.001
    AREA 600
    1 0.0005 0.01 240
}

@LINK 0 {
    CONNECTS 0 1
    TIME_PER_UNIT 1e-6
    POWER 0.002
    STATIC_POWER 0.0005
}

@TRANSITION 0 FROM 0 TO 1 MAX_TIME 0.010
@TRANSITION 1 FROM 1 TO 0 MAX_TIME 0.010
"#;

    #[test]
    fn parses_the_sample_end_to_end() {
        let system = parse_system("sample", SAMPLE).expect("sample parses");
        assert_eq!(system.omsm().mode_count(), 2);
        assert_eq!(system.arch().pe_count(), 2);
        assert_eq!(system.arch().cl_count(), 1);
        assert_eq!(system.omsm().transition_count(), 2);
        let standby = system.omsm().mode(ModeId::new(0));
        assert_eq!(standby.name(), "standby");
        assert!((standby.probability() - 0.9).abs() < 1e-12);
        assert_eq!(standby.graph().task_count(), 2);
        assert_eq!(standby.graph().comm_count(), 1);
        assert_eq!(standby.graph().task(TaskId::new(1)).deadline(), Some(Seconds::new(0.015)));
        // DVS on the GPP.
        assert!(system.arch().pe(PeId::new(0)).dvs().is_some());
        // The parsed system is schedulable end to end.
        let mapping = momsynth_sched::SystemMapping::from_fn(&system, |_| PeId::new(0));
        assert!(mapping.validate(&system).is_ok());
    }

    #[test]
    fn single_graph_defaults_to_probability_one() {
        let input = r#"
@TASK_GRAPH 0 {
    PERIOD 0.01
    TASK t0 TYPE 0
}
@PE 0 {
    KIND GPP
    0 0.001 0.1 0
}
"#;
        let system = parse_system("one", input).expect("parses");
        assert!((system.omsm().mode(ModeId::new(0)).probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn missing_probability_on_multi_graph_is_an_error() {
        let input = r#"
@TASK_GRAPH 0 {
    PERIOD 0.01
    TASK t0 TYPE 0
}
@TASK_GRAPH 1 {
    PERIOD 0.01
    TASK u0 TYPE 0
}
@PE 0 {
    KIND GPP
    0 0.001 0.1 0
}
"#;
        let err = parse_system("bad", input).unwrap_err();
        assert!(err.message.contains("PROBABILITY"), "{err}");
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let input = "@TASK_GRAPH 0 {\n    BOGUS 1\n}\n";
        let err = parse_system("bad", input).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));

        let input = "@TASK_GRAPH 0 {\n    PERIOD 0.01\n    TASK t0 TYPE 0\n    ARC a FROM t0 TO missing TYPE 1\n}\n@PE 0 {\n    KIND GPP\n    0 0.001 0.1 0\n}\n";
        let err = parse_system("bad", input).unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.message.contains("missing"));
    }

    #[test]
    fn duplicate_tasks_and_unmatched_braces_are_rejected() {
        let input = "@TASK_GRAPH 0 {\n    PERIOD 0.01\n    TASK t TYPE 0\n    TASK t TYPE 0\n}\n@PE 0 {\n    KIND GPP\n    0 0.001 0.1 0\n}\n";
        let err = parse_system("bad", input).unwrap_err();
        assert!(err.message.contains("duplicate"));

        let err = parse_system("bad", "@TASK_GRAPH 0 {\n PERIOD 0.01\n").unwrap_err();
        assert!(err.message.contains("unterminated"));

        let err = parse_system("bad", "}\n").unwrap_err();
        assert!(err.message.contains("unmatched"));
    }

    #[test]
    fn hardware_rows_require_area() {
        let input = r#"
@TASK_GRAPH 0 {
    PERIOD 0.01
    TASK t0 TYPE 0
}
@PE 0 {
    KIND ASIC
    AREA 100
    0 0.001 0.1 0
}
"#;
        let err = parse_system("bad", input).unwrap_err();
        assert!(err.message.contains("non-zero area"), "{err}");
    }

    #[test]
    fn empty_inputs_are_rejected() {
        assert!(parse_system("x", "").is_err());
        assert!(parse_system("x", "# only a comment\n").is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let input = "\n# header\n\n@TASK_GRAPH 0 { # trailing\n PERIOD 0.01 # p\n TASK t0 TYPE 0\n}\n@PE 0 {\n KIND GPP\n 0 0.001 0.1 0\n}\n";
        assert!(parse_system("ok", input).is_ok());
    }

    #[test]
    fn export_round_trips_through_import() {
        // mul9's structure must survive export -> import (names differ:
        // TGFF references types by index and loses the system name).
        let original = crate::suite::mul(9);
        let text = to_tgff(&original);
        let back = parse_system("mul9", &text).expect("export parses");
        assert_eq!(back.omsm().mode_count(), original.omsm().mode_count());
        assert_eq!(back.arch().pe_count(), original.arch().pe_count());
        assert_eq!(back.arch().cl_count(), original.arch().cl_count());
        assert_eq!(back.omsm().transition_count(), original.omsm().transition_count());
        for (mode, m) in original.omsm().modes() {
            let bm = back.omsm().mode(mode);
            assert_eq!(bm.graph().task_count(), m.graph().task_count());
            assert_eq!(bm.graph().comm_count(), m.graph().comm_count());
            assert!((bm.probability() - m.probability()).abs() < 1e-12);
            assert!((bm.graph().period().value() - m.graph().period().value()).abs() < 1e-15);
            for (t, task) in m.graph().tasks() {
                let bt = bm.graph().task(t);
                assert_eq!(bt.task_type(), task.task_type());
                assert_eq!(bt.deadline(), task.deadline());
            }
        }
        // Technology library entries survive exactly.
        for ty in original.tech().type_ids() {
            for (pe, imp) in original.tech().impls_of(ty) {
                let b = back.tech().impl_of(ty, pe).expect("impl survives");
                assert_eq!(b, imp);
            }
        }
        // DVS capabilities survive.
        for (pe, info) in original.arch().pes() {
            let b = back.arch().pe(pe);
            assert_eq!(b.kind(), info.kind());
            assert_eq!(b.dvs().is_some(), info.dvs().is_some());
            if let (Some(a), Some(c)) = (info.dvs(), b.dvs()) {
                assert_eq!(a.levels(), c.levels());
            }
        }
    }

    #[test]
    fn smartphone_round_trips_structurally() {
        let original = crate::smartphone::smartphone();
        let back = parse_system("phone", &to_tgff(&original)).expect("smartphone exports cleanly");
        assert_eq!(back.omsm().mode_count(), 8);
        assert_eq!(back.omsm().total_task_count(), original.omsm().total_task_count());
        assert_eq!(back.omsm().total_comm_count(), original.omsm().total_comm_count());
    }

    #[test]
    fn parsed_system_synthesises() {
        let system = parse_system("sample", SAMPLE).expect("parses");
        // Smoke: the imported system runs through scheduling end to end.
        let mapping =
            momsynth_sched::SystemMapping::from_fn(&system, |id| system.candidate_pes(id)[0]);
        let alloc = momsynth_sched::CoreAllocation::minimal(&system, &mapping);
        for mode in system.omsm().mode_ids() {
            let s = momsynth_sched::schedule_mode(
                &system,
                mode,
                &mapping,
                &alloc,
                momsynth_sched::SchedulerOptions::default(),
            )
            .expect("schedules");
            assert!(s.makespan().value() > 0.0);
        }
    }
}
