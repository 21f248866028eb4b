//! Typed findings and the [`Analysis`] report.
//!
//! Mirrors the shape of `momsynth-check`'s `Violation`/`CheckReport` pair:
//! a `#[non_exhaustive]` diagnostic enum with stable kebab-case codes plus
//! a report wrapper with a manual JSON rendering, so downstream tooling
//! never depends on Rust enum layout.

use std::fmt;

use momsynth_model::ids::{ModeId, PeId, TaskId, TransitionId};
use momsynth_model::units::{Cells, Seconds, Watts};

/// How severe a [`Finding`] is.
///
/// `Error` findings are *proofs of infeasibility*: no mapping, schedule or
/// voltage assignment can satisfy the specification. `Warning` findings
/// flag specifications that are very likely broken but not provably so;
/// `Info` findings document facts the analyzer derived (e.g. pruned
/// genome domains) without judging them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Derived fact, no judgement attached.
    Info,
    /// Suspicious but not provably infeasible.
    Warning,
    /// Provable infeasibility — synthesis cannot succeed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Info => "info",
            Self::Warning => "warning",
            Self::Error => "error",
        })
    }
}

/// One static-analysis diagnostic.
///
/// Every variant carries enough context to render a self-contained
/// message; [`Finding::code`] gives a stable machine-readable identifier.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Finding {
    /// A task's effective deadline `min(θ, φ)` is below its earliest
    /// possible finish time — the task's critical-path floor — even with
    /// every task at its fastest nominal implementation and every
    /// transfer at its unavoidable link latency. No mapping can meet it
    /// (DVS only stretches times).
    DeadlineBelowCriticalPathFloor {
        /// The mode containing the task.
        mode: ModeId,
        /// The over-constrained task.
        task: TaskId,
        /// The provable lower bound on the task's finish time.
        floor: Seconds,
        /// The task's effective deadline.
        deadline: Seconds,
    },
    /// A mode's period is below its critical-path lower bound — the
    /// whole-graph analogue of [`Finding::DeadlineBelowCriticalPathFloor`].
    PeriodBelowCriticalPathFloor {
        /// The over-constrained mode.
        mode: ModeId,
        /// The critical-path lower bound.
        floor: Seconds,
        /// The mode's period.
        period: Seconds,
    },
    /// Task types implementable *only* on one hardware PE force more core
    /// area onto it than it has — constraint (a) is unmeetable.
    HardwareAreaFloorExceedsCapacity {
        /// The over-subscribed hardware PE.
        pe: PeId,
        /// The provable lower bound on the area used on that PE.
        floor: Cells,
        /// The PE's area capacity.
        capacity: Cells,
    },
    /// A transition's `t_T^max` is below the time to reconfigure even the
    /// smallest loadable core of some FPGA. Not a proof of infeasibility —
    /// a mapping may simply avoid reconfiguring that PE here — but any
    /// mapping that does reconfigure it violates constraint (c).
    TransitionTimeBelowReconfigFloor {
        /// The over-constrained transition.
        transition: TransitionId,
        /// The reconfigurable PE.
        pe: PeId,
        /// The reconfiguration time of the PE's smallest loadable core.
        floor: Seconds,
    },
    /// A mode cannot be entered from any other mode.
    ModeUnreachable {
        /// The unreachable mode.
        mode: ModeId,
    },
    /// A mode has no outgoing transition; once entered it is never left.
    ModeTrapping {
        /// The trapping mode.
        mode: ModeId,
    },
    /// A `(task, PE)` pair was removed from the genome domain: mapping
    /// the task there provably violates a deadline or the period, so the
    /// GA never needs to try it.
    GenePruned {
        /// The mode containing the task.
        mode: ModeId,
        /// The task whose domain shrank.
        task: TaskId,
        /// The PE that was removed from the task's candidate list.
        pe: PeId,
        /// The provable finish-time floor of the task on that PE.
        floor: Seconds,
        /// The bound the floor exceeds (effective deadline or period).
        deadline: Seconds,
    },
    /// A `(task, PE)` pair was removed from the genome domain because
    /// another PE dominates it in this mode: any assignment using the
    /// dominated PE here can be rewritten onto the witness without
    /// making timing, energy, area or static power worse, so at least
    /// one optimum survives the removal.
    GeneDominated {
        /// The mode containing the task.
        mode: ModeId,
        /// The task whose domain shrank.
        task: TaskId,
        /// The dominated PE removed from the task's candidate list.
        pe: PeId,
        /// The dominating witness PE that remains in the domain.
        by: PeId,
    },
    /// A task's deadline exceeds its mode's period and is therefore
    /// ignored (the effective deadline is `min(θ, φ)`).
    DeadlineBeyondPeriod {
        /// The mode containing the task.
        mode: ModeId,
        /// The task with the oversized deadline.
        task: TaskId,
    },
    /// A mode with meaningful probability mass (`> 1 %`) whose task graph
    /// is a single task — probably an unfinished specification.
    ProbableStubMode {
        /// The suspicious mode.
        mode: ModeId,
    },
    /// A hardware PE that no task type can be implemented on.
    UnusableHardwarePe {
        /// The unusable PE.
        pe: PeId,
    },
    /// A DVS-enabled PE with a single supply level: scaling can never
    /// change anything.
    SingleLevelDvsRail {
        /// The affected PE.
        pe: PeId,
    },
}

impl Finding {
    /// The finding's severity.
    pub fn severity(&self) -> Severity {
        match self {
            Self::DeadlineBelowCriticalPathFloor { .. }
            | Self::PeriodBelowCriticalPathFloor { .. }
            | Self::HardwareAreaFloorExceedsCapacity { .. } => Severity::Error,
            Self::TransitionTimeBelowReconfigFloor { .. } | Self::ModeUnreachable { .. } => {
                Severity::Warning
            }
            Self::ModeTrapping { .. }
            | Self::GenePruned { .. }
            | Self::GeneDominated { .. }
            | Self::DeadlineBeyondPeriod { .. }
            | Self::ProbableStubMode { .. }
            | Self::UnusableHardwarePe { .. }
            | Self::SingleLevelDvsRail { .. } => Severity::Info,
        }
    }

    /// A stable machine-readable identifier for this kind of finding.
    pub fn code(&self) -> &'static str {
        match self {
            Self::DeadlineBelowCriticalPathFloor { .. } => "deadline-below-critical-path",
            Self::PeriodBelowCriticalPathFloor { .. } => "period-below-critical-path",
            Self::HardwareAreaFloorExceedsCapacity { .. } => "area-floor-exceeds-capacity",
            Self::TransitionTimeBelowReconfigFloor { .. } => "transition-below-reconfig-floor",
            Self::ModeUnreachable { .. } => "mode-unreachable",
            Self::ModeTrapping { .. } => "mode-trapping",
            Self::GenePruned { .. } => "gene-pruned",
            Self::GeneDominated { .. } => "gene-dominated",
            Self::DeadlineBeyondPeriod { .. } => "deadline-beyond-period",
            Self::ProbableStubMode { .. } => "probable-stub-mode",
            Self::UnusableHardwarePe { .. } => "unusable-hardware-pe",
            Self::SingleLevelDvsRail { .. } => "single-level-dvs-rail",
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DeadlineBelowCriticalPathFloor { mode, task, floor, deadline } => write!(
                f,
                "task {task} of mode {mode}: effective deadline {deadline:.6} is below the \
                 critical-path finish floor {floor:.6} — no mapping can meet it"
            ),
            Self::PeriodBelowCriticalPathFloor { mode, floor, period } => write!(
                f,
                "mode {mode}: period {period:.6} is below the critical-path lower bound \
                 {floor:.6} — no mapping can meet it"
            ),
            Self::HardwareAreaFloorExceedsCapacity { pe, floor, capacity } => write!(
                f,
                "hardware PE {pe}: must-be-here task types force at least {floor} cells onto \
                 a capacity of {capacity} cells — constraint (a) is unmeetable"
            ),
            Self::TransitionTimeBelowReconfigFloor { transition, pe, floor } => write!(
                f,
                "transition {transition}: t_T^max is below {floor:.6}, the time to reconfigure \
                 even the smallest loadable core of {pe}"
            ),
            Self::ModeUnreachable { mode } => {
                write!(f, "mode {mode} is unreachable from every other mode")
            }
            Self::ModeTrapping { mode } => write!(f, "mode {mode} has no outgoing transition"),
            Self::GenePruned { mode, task, pe, floor, deadline } => write!(
                f,
                "task {task} of mode {mode} can never run on {pe}: its finish floor there is \
                 {floor:.6}, beyond the bound {deadline:.6} — gene pruned"
            ),
            Self::GeneDominated { mode, task, pe, by } => write!(
                f,
                "task {task} of mode {mode} never needs {pe}: {by} is a no-worse host for \
                 every task of the mode — gene dominated"
            ),
            Self::DeadlineBeyondPeriod { mode, task } => {
                write!(f, "task {task} of mode {mode} has a deadline beyond the period (ignored)")
            }
            Self::ProbableStubMode { mode } => {
                write!(f, "mode {mode} carries probability mass but contains a single task")
            }
            Self::UnusableHardwarePe { pe } => {
                write!(f, "hardware PE {pe} cannot implement any task type")
            }
            Self::SingleLevelDvsRail { pe } => {
                write!(f, "PE {pe} is DVS-enabled but offers a single supply level")
            }
        }
    }
}

/// Static timing bounds of one operational mode.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeBounds {
    /// The mode.
    pub mode: ModeId,
    /// The mode's name, for self-contained rendering.
    pub name: String,
    /// Critical-path lower bound: every task at its fastest nominal
    /// implementation, every transfer whose endpoints can never share a
    /// PE at its fastest link. No schedule of this mode can finish
    /// earlier, with or without DVS.
    pub critical_path_lb: Seconds,
    /// The mode's period `φ`.
    pub period: Seconds,
    /// Lower bound on the mode's Eq. 1 power: the sum of
    /// [`ModeBounds::dvs_floor`] and [`ModeBounds::comm_floor`], static
    /// power excluded.
    pub power_lb: Watts,
    /// Load component of the bound: every task priced at its cheapest
    /// capable PE at *nominal* supply voltage, communication free.
    pub load_floor: Watts,
    /// DVS-aware task component: like the load floor, but each candidate
    /// is granted its deepest provably reachable supply drop — limited
    /// by the rail's lowest legal level and by the slack window the
    /// task's path floors leave it. Equal to the load floor on DVS-free
    /// architectures; never above it.
    pub dvs_floor: Watts,
    /// Communication component: transfers whose endpoint candidate sets
    /// are disjoint are remote under every mapping and priced at the
    /// cheapest routable link.
    pub comm_floor: Watts,
}

/// How much of the genome domain the analyzer proved away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainReduction {
    /// Total `(task, PE)` candidate pairs in the technology library,
    /// summed over all modes.
    pub total_candidates: usize,
    /// Pairs removed because the task provably misses a deadline or the
    /// period on that PE.
    pub pruned_by_deadline: usize,
    /// Pairs removed because another PE dominates the candidate across
    /// the whole mode.
    pub pruned_by_dominance: usize,
}

impl DomainReduction {
    /// Fraction of all candidate pairs removed, in `[0, 1]`.
    pub fn ratio(&self) -> f64 {
        if self.total_candidates == 0 {
            0.0
        } else {
            (self.pruned_by_deadline + self.pruned_by_dominance) as f64
                / self.total_candidates as f64
        }
    }
}

/// Static area bound of one hardware PE.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaBound {
    /// The hardware PE.
    pub pe: PeId,
    /// The PE's name, for self-contained rendering.
    pub name: String,
    /// Lower bound on the core area any feasible mapping places on this
    /// PE: the cores of task types implementable *only* here (counted
    /// once per type; for reconfigurable PEs the maximum over modes,
    /// since cores can be swapped between modes).
    pub floor: Cells,
    /// The PE's area capacity.
    pub capacity: Cells,
}

/// The full static-analysis report of a system.
///
/// Produced by [`analyze_system`](crate::analyze_system). Carries every
/// [`Finding`], the per-mode and per-PE bounds, the probability-weighted
/// Eq. 1 power lower bound `p̄_LB`, and the statically proven per-locus
/// capable-PE sets the synthesiser feeds into genome construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    pub(crate) findings: Vec<Finding>,
    pub(crate) mode_bounds: Vec<ModeBounds>,
    pub(crate) area_bounds: Vec<AreaBound>,
    pub(crate) power_lower_bound: Watts,
    pub(crate) capable_pes: Vec<Vec<PeId>>,
    pub(crate) domain_reduction: DomainReduction,
}

impl Analysis {
    /// All findings, in detection order.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Per-mode timing and power bounds, in mode order.
    pub fn mode_bounds(&self) -> &[ModeBounds] {
        &self.mode_bounds
    }

    /// Per-hardware-PE area bounds, in PE order (hardware PEs only).
    pub fn area_bounds(&self) -> &[AreaBound] {
        &self.area_bounds
    }

    /// The probability-weighted Eq. 1 power lower bound `p̄_LB`: a
    /// provable floor under every feasible (and infeasible) mapping, with
    /// or without DVS.
    pub fn power_lower_bound(&self) -> Watts {
        self.power_lower_bound
    }

    /// The statically proven capable-PE set of every `(mode, task)`
    /// locus, in the genome's locus order (modes in order, tasks in
    /// order). A subset of the technology library's candidate list: PEs
    /// on which the task provably violates a deadline or the period are
    /// removed. Never empty: a loaded system implements every used task
    /// type somewhere.
    pub fn capable_pes(&self) -> &[Vec<PeId>] {
        &self.capable_pes
    }

    /// Fraction of the technology library's `(task, PE)` candidate pairs
    /// that were proven dead (or dominated) and removed from the genome
    /// domain, in `[0, 1]`. `0.0` when nothing was pruned.
    pub fn pruned_domain_ratio(&self) -> f64 {
        self.domain_reduction.ratio()
    }

    /// The domain-reduction tally behind
    /// [`Analysis::pruned_domain_ratio`], split by pruning rule.
    pub fn domain_reduction(&self) -> DomainReduction {
        self.domain_reduction
    }

    /// `true` when no findings were produced at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// `true` when at least one finding proves the system infeasible.
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity() == Severity::Error)
    }

    /// The infeasibility proofs among the findings.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> + '_ {
        self.findings.iter().filter(|f| f.severity() == Severity::Error)
    }

    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity() == severity).count()
    }

    /// Renders the report as a JSON value with stable field names.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "clean": self.is_clean(),
            "errors": self.count(Severity::Error),
            "warnings": self.count(Severity::Warning),
            "infos": self.count(Severity::Info),
            "power_lower_bound_mw": self.power_lower_bound.as_milli(),
            "pruned_domain_ratio": self.pruned_domain_ratio(),
            "domain_reduction": serde_json::json!({
                "total_candidates": self.domain_reduction.total_candidates,
                "pruned_by_deadline": self.domain_reduction.pruned_by_deadline,
                "pruned_by_dominance": self.domain_reduction.pruned_by_dominance,
            }),
            "modes": self.mode_bounds.iter().map(|b| serde_json::json!({
                "mode": b.name,
                "critical_path_lb_s": b.critical_path_lb.value(),
                "period_s": b.period.value(),
                "power_lb_mw": b.power_lb.as_milli(),
                "load_floor_mw": b.load_floor.as_milli(),
                "dvs_floor_mw": b.dvs_floor.as_milli(),
                "comm_floor_mw": b.comm_floor.as_milli(),
            })).collect::<Vec<_>>(),
            "area": self.area_bounds.iter().map(|b| serde_json::json!({
                "pe": b.name,
                "floor_cells": b.floor.value(),
                "capacity_cells": b.capacity.value(),
            })).collect::<Vec<_>>(),
            "findings": self.findings.iter().map(|f| serde_json::json!({
                "code": f.code(),
                "severity": f.severity().to_string(),
                "message": f.to_string(),
            })).collect::<Vec<_>>(),
        })
    }
}

impl fmt::Display for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "p̄_LB = {:.4} mW, pruned domain ratio {:.1}%",
            self.power_lower_bound.as_milli(),
            self.pruned_domain_ratio() * 100.0
        )?;
        for b in &self.mode_bounds {
            writeln!(
                f,
                "  mode {:<12} critical path ≥ {:.6}s (period {:.6}s), power ≥ {:.4} mW \
                 (load {:.4}, dvs {:.4}, comm {:.4})",
                b.name,
                b.critical_path_lb.value(),
                b.period.value(),
                b.power_lb.as_milli(),
                b.load_floor.as_milli(),
                b.dvs_floor.as_milli(),
                b.comm_floor.as_milli()
            )?;
        }
        for b in &self.area_bounds {
            writeln!(
                f,
                "  PE {:<14} area ≥ {} of {} cells",
                b.name,
                b.floor.value(),
                b.capacity.value()
            )?;
        }
        if self.findings.is_empty() {
            write!(f, "ok: no findings")
        } else {
            write!(
                f,
                "{} error(s), {} warning(s), {} info(s)",
                self.count(Severity::Error),
                self.count(Severity::Warning),
                self.count(Severity::Info)
            )?;
            for finding in &self.findings {
                write!(f, "\n  [{}] [{}] {finding}", finding.severity(), finding.code())?;
            }
            Ok(())
        }
    }
}
