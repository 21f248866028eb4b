//! Candidate evaluation: schedules, voltage scaling, power and the
//! penalty fitness `F_M` (Fig. 4, lines 3–14).
//!
//! For a given multi-mode mapping the evaluator derives the core
//! allocation, schedules every mode, optionally applies PV-DVS, and
//! computes
//!
//! ```text
//! F_M = p̄ · tp · (1 + w_A · Σ_{π ∈ P_v} (a_U − a_max)/(a_max · 0.01))
//!           · Π_{T ∈ Θ_v} max(1, w_R · t_T/t_T^max)
//! ```
//!
//! where `p̄` is the average power under the *optimisation* weights (true
//! probabilities for the proposed flow, uniform weights for the
//! probability-neglecting baseline), `tp` the timing penalty, `P_v` the
//! PEs with area violations and `Θ_v` the transitions exceeding their
//! limits. The reported [`Solution::power`] always uses the true
//! probabilities.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use momsynth_dvs::{scale_mode_with, scale_pass, DvsOptions, DvsScratch, VoltageSchedule};
use momsynth_model::ids::{ModeId, PeId};
use momsynth_model::units::{Cells, Seconds, Watts};
use momsynth_model::System;
use momsynth_power::{
    mode_power, price_mode, ActiveSet, ModeImplementation, ModePower, PowerReport,
};
use momsynth_sched::{
    list_schedule, schedule_mode_timed, CoreAllocation, ListScratch, PeRows, SchedError, Schedule,
    ScheduleView, SystemMapping, TimingAnalysis,
};
use momsynth_telemetry::{Counters, Phase, PhaseAccumulator, PhaseTiming};

use crate::alloc::{assemble, AllocOptions, DemandSweep, Raise};
use crate::config::SynthesisConfig;
use crate::transition::{transition_times, TransitionTiming};

/// An area violation on one hardware PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaOverrun {
    /// The over-subscribed PE.
    pub pe: PeId,
    /// Cells required by the allocation.
    pub used: Cells,
    /// The PE's capacity.
    pub capacity: Cells,
}

/// A fully elaborated implementation candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The task mapping (`Mτ^O` for every mode).
    pub mapping: SystemMapping,
    /// The hardware core allocation.
    pub alloc: CoreAllocation,
    /// Per-mode schedules (voltage-stretched when DVS is enabled).
    pub schedules: Vec<Schedule>,
    /// Per-mode, per-task voltage schedules: `Some` for every task on a
    /// scaled DVS rail, `None` for the rest and everywhere when DVS is off.
    pub voltage_schedules: Vec<Vec<Option<VoltageSchedule>>>,
    /// Power report under the true mode execution probabilities.
    pub power: PowerReport,
    /// Total deadline/period lateness over all modes.
    pub total_lateness: Seconds,
    /// Hardware PEs whose area constraint is violated.
    pub area_overruns: Vec<AreaOverrun>,
    /// Reconfiguration timing of every mode transition.
    pub transitions: Vec<TransitionTiming>,
    /// The fitness `F_M` this candidate was judged by.
    pub fitness: f64,
}

impl Solution {
    /// `true` when the candidate satisfies all timing, area and
    /// transition-time constraints.
    pub fn is_feasible(&self) -> bool {
        self.total_lateness.value() <= 1e-12
            && self.area_overruns.is_empty()
            && self.transitions.iter().all(TransitionTiming::is_feasible)
    }

    /// Renders a complete human-readable implementation report: average
    /// power, per-mode mapping with shut-down state, hardware core
    /// allocation and transition timing.
    pub fn describe(&self, system: &System) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "implementation of `{}` — {:.6} mW average, {}",
            system.name(),
            self.power.average.as_milli(),
            if self.is_feasible() { "feasible" } else { "INFEASIBLE" }
        );
        for (mode, m) in system.omsm().modes() {
            let mp = &self.power.modes[mode.index()];
            let on: Vec<&str> =
                mp.active_pes.iter().map(|&pe| system.arch().pe(pe).name()).collect();
            let _ = writeln!(
                out,
                "  mode {:<16} Ψ={:<6.3} {:>10.4} mW   on: {}",
                m.name(),
                m.probability(),
                mp.total().as_milli(),
                on.join(", ")
            );
            let cores: Vec<String> = self
                .alloc
                .mode_cores(mode)
                .map(|((pe, ty), count)| {
                    format!(
                        "{}×{} on {}",
                        count,
                        system.tech().type_name(ty),
                        system.arch().pe(pe).name()
                    )
                })
                .collect();
            if !cores.is_empty() {
                let _ = writeln!(out, "    cores: {}", cores.join(", "));
            }
        }
        for t in &self.transitions {
            if t.time.value() > 0.0 || !t.is_feasible() {
                let _ = writeln!(
                    out,
                    "  transition {}: {:.3} ms / limit {:.3} ms{}",
                    t.transition,
                    t.time.as_millis(),
                    t.limit.as_millis(),
                    if t.is_feasible() { "" } else { "  VIOLATED" }
                );
            }
        }
        for a in &self.area_overruns {
            let _ = writeln!(
                out,
                "  AREA VIOLATION on {}: {} of {}",
                system.arch().pe(a.pe).name(),
                a.used,
                a.capacity
            );
        }
        out
    }
}

/// Why [`Evaluator::try_evaluate`] produced no usable candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalFailure {
    /// The scheduler rejected the mapping (see [`Evaluator::evaluate`]).
    Sched(SchedError),
    /// The evaluator panicked; carries the panic message when it was a
    /// string.
    Panic(Option<String>),
    /// The candidate priced to a NaN or infinite fitness.
    NonFinite,
}

impl std::fmt::Display for EvalFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Sched(e) => e.fmt(f),
            Self::Panic(Some(message)) => write!(f, "evaluator panicked: {message}"),
            Self::Panic(None) => f.write_str("evaluator panicked"),
            Self::NonFinite => f.write_str("non-finite fitness"),
        }
    }
}

impl std::error::Error for EvalFailure {}

/// Reusable working memory for one evaluator: each mode's analysis of
/// its mapping row — its timing, which the list scheduler reads, and its
/// allocation part: the analysis's cores plus its replication demands —
/// the scheduler's and PV-DVS's per-call buffers, the pricing kernel's
/// flags and the judge's buffers. One evaluation allocates these once
/// and every later evaluation on the same [`Evaluator`] reuses them, so a
/// cost allocates little beyond the core allocation and one term per
/// mode: a fresh mode, voltage-scaled or not, allocates nothing but, on
/// DVS hardware, its virtual tasks.
#[derive(Debug, Default)]
struct EvalScratch {
    timing: Vec<TimingAnalysis>,
    /// Per mode: the replication demands derived beside its analysis;
    /// empty without replication.
    raises: Vec<Vec<Raise>>,
    /// The mapping row each mode was analysed under, or `None` while its
    /// analysis is being refreshed: a mode is analysed again only when
    /// its row changed since.
    analysed_rows: Vec<Option<Vec<PeId>>>,
    sweep: DemandSweep,
    sched: ListScratch,
    dvs: DvsScratch,
    active: ActiveSet,
    judged: Judged,
}

impl EvalScratch {
    /// Brings every mode's analysis up to date with `mapping`: its timing
    /// and, when `options` replicate, its demands.
    fn analyse(&mut self, system: &System, mapping: &SystemMapping, options: &AllocOptions) {
        let modes = system.omsm().mode_count();
        self.timing.resize_with(modes, TimingAnalysis::default);
        self.raises.resize_with(modes, Vec::new);
        self.analysed_rows.resize(modes, None);
        let parts = self.timing.iter_mut().zip(&mut self.raises).zip(&mut self.analysed_rows);
        for (mode, ((analysis, raises), key)) in system.omsm().mode_ids().zip(parts) {
            let row = mapping.row(mode);
            if key.as_deref() == Some(row) {
                continue;
            }
            // Invalidate before refreshing: a refresh that panics must not
            // leave a half-written analysis under a valid key.
            let mut kept = key.take().unwrap_or_default();
            analysis.refresh(system, mode, mapping);
            raises.clear();
            if options.replicate {
                self.sweep.demands(system, row, analysis, options, raises);
            }
            kept.clear();
            kept.extend_from_slice(row);
            *key = Some(kept);
        }
    }
}

/// The judge's reused buffers and the penalty lists of its last verdict.
#[derive(Debug, Default)]
struct Judged {
    rows: PeRows,
    area_overruns: Vec<AreaOverrun>,
    transitions: Vec<TransitionTiming>,
}

/// One mode's Eq. 1 term and lateness: all the fitness reads of a mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeCost {
    /// The mode's average power, [`ModePower::total`].
    pub total: Watts,
    /// The mode's deadline and period lateness.
    pub lateness: Seconds,
}

/// The constraints a candidate violates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Violations {
    /// Some mode misses a deadline or its period.
    pub timing: bool,
    /// Some hardware PE needs more area than it has.
    pub area: bool,
    /// Some mode transition takes longer than its limit.
    pub transition: bool,
}

impl Violations {
    /// `true` when any constraint is violated.
    pub fn any(self) -> bool {
        self.timing || self.area || self.transition
    }
}

/// A candidate as [`Evaluator::try_cost`] prices it: its fitness, the
/// constraints it violates, its allocation and each mode's term — no
/// schedule, voltage schedule or power breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Cost {
    /// The fitness `F_M`, bit for bit the one [`Evaluator::try_evaluate`]
    /// gives the same mapping.
    pub fitness: f64,
    /// The constraints the candidate violates.
    pub violations: Violations,
    /// The hardware core allocation.
    pub alloc: CoreAllocation,
    /// Each mode's Eq. 1 term and lateness, in mode order.
    pub modes: Vec<ModeCost>,
    /// How many modes were taken from the known terms rather than
    /// scheduled, voltage-scaled and priced.
    pub reused: usize,
}

/// A mode of a full evaluation scheduled, assembled and voltage-scaled,
/// waiting for its Eq. 1 term.
struct Scheduled {
    schedule: Schedule,
    /// Per-task voltage schedules and energy factors; `None` at nominal
    /// voltage.
    scaled: Option<(Vec<Option<VoltageSchedule>>, Vec<f64>)>,
}

impl Scheduled {
    fn energy_factors(&self) -> Option<&[f64]> {
        self.scaled.as_ref().map(|(_, factors)| factors.as_slice())
    }

    /// The mode's power breakdown, and its term and lateness.
    fn price(&self, system: &System) -> (ModePower, ModeCost) {
        let graph = system.omsm().mode(self.schedule.mode()).graph();
        let implementation =
            ModeImplementation { schedule: &self.schedule, energy_factors: self.energy_factors() };
        let power = mode_power(system, implementation);
        let lateness = self.schedule.total_lateness(graph);
        let cost = ModeCost { total: power.total(), lateness };
        (power, cost)
    }
}

/// A mode's term and lateness from its timing alone, through the pricing
/// kernel and the lateness function that [`mode_power`] and
/// [`Schedule::total_lateness`] are built on: the same operands in the
/// same order, so the same bits, without a power breakdown.
fn mode_cost(
    system: &System,
    schedule: ScheduleView<'_>,
    energy_factors: Option<&[f64]>,
    active: &mut ActiveSet,
) -> ModeCost {
    let graph = system.omsm().mode(schedule.mode()).graph();
    let total = price_mode(system, schedule, energy_factors, active).total();
    ModeCost { total, lateness: schedule.total_lateness(graph) }
}

/// A candidate's fitness and penalties, judged from its per-mode terms;
/// the penalty lists are left in [`Judged`].
struct Verdict {
    fitness: f64,
    total_lateness: Seconds,
    violations: Violations,
}

/// Evaluates mapping candidates for one system under one configuration.
///
/// An evaluator is one pricing unit: it owns the run [`Counters`] and
/// the phase timers of everything priced through it. Not `Sync`
/// (scratch buffers, counters and timers use interior mutability):
/// parallel batch evaluation prices on the run's evaluator on the
/// calling thread and on one [`Evaluator::worker`] per spawned thread,
/// kept for the whole run and folded back after each batch with
/// [`Evaluator::absorb`].
#[derive(Debug)]
pub struct Evaluator<'a> {
    system: &'a System,
    config: &'a SynthesisConfig,
    /// Mode weights used in the optimisation objective.
    weights: Vec<f64>,
    /// The true mode execution probabilities, which weight the reported
    /// average power.
    probabilities: Vec<f64>,
    /// Per-phase wall-clock accumulator (disabled unless a telemetry
    /// sink asks for traces).
    phases: PhaseAccumulator,
    /// This unit's run counters. Evaluation itself counts PV-DVS
    /// iterations; callers count the rest through [`Evaluator::count`].
    counters: RefCell<Counters>,
    /// Scratch buffers reused across evaluations (`RefCell` because
    /// [`Evaluator::evaluate`] takes `&self`; evaluation never re-enters).
    scratch: RefCell<EvalScratch>,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator; the optimisation weights are the true mode
    /// probabilities when `config.probability_aware`, uniform otherwise.
    pub fn new(system: &'a System, config: &'a SynthesisConfig) -> Self {
        let probabilities: Vec<f64> = system.omsm().modes().map(|(_, m)| m.probability()).collect();
        let weights = if config.probability_aware {
            probabilities.clone()
        } else {
            momsynth_power::uniform_weights(system)
        };
        Self {
            system,
            config,
            weights,
            probabilities,
            phases: PhaseAccumulator::disabled(),
            counters: RefCell::default(),
            scratch: RefCell::default(),
        }
    }

    /// A fresh evaluator for the same system and configuration that
    /// times phases exactly when this one does: a parallel batch worker
    /// pricing beside the calling thread, which keeps its scratch across
    /// batches and is folded back after each with [`Evaluator::absorb`].
    pub fn worker(&self) -> Self {
        Self {
            weights: self.weights.clone(),
            probabilities: self.probabilities.clone(),
            phases: PhaseAccumulator::new(self.phases.enabled()),
            counters: RefCell::default(),
            scratch: RefCell::default(),
            ..*self
        }
    }

    /// The mode weights driving the optimisation objective.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Turns on per-phase wall-clock measurement for subsequent
    /// evaluations.
    pub fn enable_phase_timing(&mut self) {
        self.phases.enable();
    }

    /// Accumulated per-phase timings (empty while timing is disabled).
    pub fn phase_timings(&self) -> Vec<PhaseTiming> {
        self.phases.timings()
    }

    /// The run counters so far. PV-DVS iterations are counted
    /// deterministically, whether or not phase timing is on.
    pub fn counters(&self) -> Counters {
        self.counters.borrow().clone()
    }

    /// Updates the run counters, e.g. to count a rejected candidate or
    /// to restore a checkpoint's totals.
    pub fn count(&self, update: impl FnOnce(&mut Counters)) {
        update(&mut self.counters.borrow_mut());
    }

    /// Folds a worker's counters and phase timings into this evaluator
    /// after a parallel batch and clears them on the worker, which keeps
    /// its scratch: a worker kept across batches and folded back after
    /// each adds every count once. Both are sums, so the totals do not
    /// depend on how the batch was split.
    pub fn absorb(&self, worker: &Evaluator<'_>) {
        self.counters.borrow_mut().add(&worker.counters.take());
        self.phases.absorb(&worker.phases);
    }

    /// Fully evaluates a mapping. `dvs` selects the voltage-scaling
    /// resolution (coarse during search, fine for the final solution);
    /// `None` evaluates at fixed voltage.
    ///
    /// # Errors
    ///
    /// Returns the scheduler's error when two communicating tasks are
    /// mapped to unconnected PEs — possible only on architectures whose
    /// communication graph is not complete.
    pub fn evaluate(
        &self,
        mapping: SystemMapping,
        dvs: Option<&DvsOptions>,
    ) -> Result<Solution, SchedError> {
        self.phases.measure(Phase::FitnessEval, || self.evaluate_inner(mapping, dvs))
    }

    /// [`Evaluator::evaluate`] with fault isolation: a scheduler error, a
    /// panic inside the evaluator and a non-finite fitness all come back
    /// as an [`EvalFailure`], so one hostile candidate cannot take a
    /// search down or win it. Every pricing path of the crate goes
    /// through here or through [`Evaluator::try_cost`], which share the
    /// guard, and keeps only its own policy for a failure.
    ///
    /// # Errors
    ///
    /// Returns the [`EvalFailure`] that kept the candidate from pricing.
    pub fn try_evaluate(
        &self,
        mapping: SystemMapping,
        dvs: Option<&DvsOptions>,
    ) -> Result<Solution, EvalFailure> {
        self.guarded(|| self.evaluate_inner(mapping, dvs), |s| s.fitness)
    }

    /// The cost-only entry: prices `mapping` like
    /// [`Evaluator::try_evaluate`], behind the same guard, but keeps only
    /// its [`Cost`]. `known` offers a mode's term: called with each mode
    /// and the candidate's allocation, it returns the term of a candidate
    /// priced under the same `dvs` whose mode has the same mapping row
    /// and core-allocation row, or `None` — what
    /// [`ParentRecord::known`](crate::ParentRecord::known) answers. A
    /// known mode skips list scheduling, PV-DVS and pricing; the
    /// allocation, Eq. 1's sums and every penalty are computed over all
    /// modes, so the fitness and violations are the ones pricing from
    /// scratch gives, bit for bit. Any other mode keeps two scalars,
    /// priced straight from the list scheduler's scratch or, under DVS,
    /// from PV-DVS's scaling of it: no [`Schedule`], voltage schedule or
    /// [`ModePower`] is built.
    ///
    /// # Errors
    ///
    /// Returns the [`EvalFailure`] that kept the candidate from pricing.
    pub fn try_cost(
        &self,
        mapping: &SystemMapping,
        dvs: Option<&DvsOptions>,
        known: impl FnMut(ModeId, &CoreAllocation) -> Option<ModeCost>,
    ) -> Result<Cost, EvalFailure> {
        self.guarded(|| self.cost_inner(mapping, dvs, known), |c| c.fitness)
    }

    /// The fault-isolation guard of both fallible entries: runs `price`
    /// as one fitness evaluation and turns a scheduler error, a panic or
    /// a non-finite `fitness` into an [`EvalFailure`].
    fn guarded<T>(
        &self,
        price: impl FnOnce() -> Result<T, SchedError>,
        fitness: fn(&T) -> f64,
    ) -> Result<T, EvalFailure> {
        match catch_unwind(AssertUnwindSafe(|| self.phases.measure(Phase::FitnessEval, price))) {
            Ok(Ok(priced)) if fitness(&priced).is_finite() => Ok(priced),
            Ok(Ok(_)) => Err(EvalFailure::NonFinite),
            Ok(Err(e)) => Err(EvalFailure::Sched(e)),
            Err(payload) => Err(EvalFailure::Panic(
                payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned()),
            )),
        }
    }

    fn evaluate_inner(
        &self,
        mapping: SystemMapping,
        dvs: Option<&DvsOptions>,
    ) -> Result<Solution, SchedError> {
        let (alloc, scheduled) = {
            // One borrow for the scheduling; never re-entered.
            let scratch = &mut *self.scratch.borrow_mut();
            let alloc = self.allocate(&mapping, scratch);
            let scheduled: Result<Vec<Scheduled>, SchedError> = self
                .system
                .omsm()
                .mode_ids()
                .map(|mode| self.schedule_and_scale(mode, &mapping, &alloc, dvs, scratch))
                .collect();
            (alloc, scheduled?)
        };
        Ok(self.phases.measure(Phase::PowerPricing, move || {
            let mode_count = scheduled.len();
            let mut schedules = Vec::with_capacity(mode_count);
            let mut voltage_schedules = Vec::with_capacity(mode_count);
            let mut modes = Vec::with_capacity(mode_count);
            let mut costs = Vec::with_capacity(mode_count);
            for scheduled in scheduled {
                let (power, cost) = scheduled.price(self.system);
                let voltages = match scheduled.scaled {
                    Some((voltages, _)) => voltages,
                    None => vec![None; scheduled.schedule.tasks().count()],
                };
                schedules.push(scheduled.schedule);
                voltage_schedules.push(voltages);
                modes.push(power);
                costs.push(cost);
            }
            let power = PowerReport::from_modes(modes, &self.probabilities);
            let judged = &mut self.scratch.borrow_mut().judged;
            let verdict = self.judge(&alloc, &costs, judged);
            Solution {
                mapping,
                alloc,
                schedules,
                voltage_schedules,
                power,
                total_lateness: verdict.total_lateness,
                area_overruns: judged.area_overruns.clone(),
                transitions: judged.transitions.clone(),
                fitness: verdict.fitness,
            }
        }))
    }

    /// Every mode `known` has no term for is priced by
    /// [`Evaluator::fresh_cost`]. A mode's Eq. 1 term and lateness depend
    /// only on its mapping row, its allocation row and `dvs`, which is
    /// what `known` may key on.
    fn cost_inner(
        &self,
        mapping: &SystemMapping,
        dvs: Option<&DvsOptions>,
        mut known: impl FnMut(ModeId, &CoreAllocation) -> Option<ModeCost>,
    ) -> Result<Cost, SchedError> {
        let system = self.system;
        // One borrow for the whole pricing; never re-entered.
        let scratch = &mut *self.scratch.borrow_mut();
        let alloc = self.allocate(mapping, scratch);
        let mut reused = 0;
        let mut modes = Vec::with_capacity(system.omsm().mode_count());
        for mode in system.omsm().mode_ids() {
            let cost = match known(mode, &alloc) {
                Some(cost) => {
                    reused += 1;
                    cost
                }
                None => self.fresh_cost(mode, mapping, &alloc, dvs, scratch)?,
            };
            modes.push(cost);
        }
        let judged = &mut scratch.judged;
        let verdict =
            self.phases.measure(Phase::PowerPricing, || self.judge(&alloc, &modes, judged));
        Ok(Cost { fitness: verdict.fitness, violations: verdict.violations, alloc, modes, reused })
    }

    /// Derives `mapping`'s core allocation. Each mode is analysed here,
    /// once per change of its row: its timing, which scheduling reads,
    /// and its allocation part, which the one replication loop
    /// assembles.
    fn allocate(&self, mapping: &SystemMapping, scratch: &mut EvalScratch) -> CoreAllocation {
        self.phases.measure(Phase::CoreAllocation, || {
            scratch.analyse(self.system, mapping, &self.config.alloc);
            assemble(self.system, &scratch.timing, scratch.raises.iter().map(Vec::as_slice))
        })
    }

    /// Schedules `mode` into a [`Schedule`] and voltage-scales it under
    /// `dvs`, with its voltage schedules: every mode of a full
    /// evaluation.
    fn schedule_and_scale(
        &self,
        mode: ModeId,
        mapping: &SystemMapping,
        alloc: &CoreAllocation,
        dvs: Option<&DvsOptions>,
        scratch: &mut EvalScratch,
    ) -> Result<Scheduled, SchedError> {
        let system = self.system;
        let EvalScratch { timing, sched, dvs: dvs_scratch, .. } = scratch;
        let schedule = self.phases.measure(Phase::ListScheduling, || {
            let analysis = &timing[mode.index()];
            schedule_mode_timed(system, mapping, alloc, analysis, self.config.scheduler, sched)
        })?;
        let Some(options) = dvs else {
            return Ok(Scheduled { schedule, scaled: None });
        };
        let scaled = self.phases.measure(Phase::VoltageScaling, || {
            scale_mode_with(system, &schedule, options, dvs_scratch)
        });
        self.count(|c| c.dvs_iterations += scaled.iterations() as u64);
        let (schedule, voltages, energy_factors) = scaled.into_parts();
        Ok(Scheduled { schedule, scaled: Some((voltages, energy_factors)) })
    }

    /// The term and lateness of a cost's mode that no known term covers,
    /// priced where it is scheduled: from the list scheduler's scratch
    /// at fixed voltage, and under DVS from PV-DVS's scratch, which
    /// scales the pass in place. No [`Schedule`] or voltage schedule is
    /// built.
    fn fresh_cost(
        &self,
        mode: ModeId,
        mapping: &SystemMapping,
        alloc: &CoreAllocation,
        dvs: Option<&DvsOptions>,
        scratch: &mut EvalScratch,
    ) -> Result<ModeCost, SchedError> {
        let system = self.system;
        let EvalScratch { timing, sched, dvs: dvs_scratch, active, .. } = scratch;
        let pass = self.phases.measure(Phase::ListScheduling, || {
            let analysis = &timing[mode.index()];
            list_schedule(system, mapping, alloc, analysis, self.config.scheduler, sched)
        })?;
        let Some(options) = dvs else {
            return Ok(self
                .phases
                .measure(Phase::PowerPricing, || mode_cost(system, pass, None, active)));
        };
        let scaled = self
            .phases
            .measure(Phase::VoltageScaling, || scale_pass(system, sched, options, dvs_scratch));
        self.count(|c| c.dvs_iterations += scaled.iterations() as u64);
        let (view, factors) = (scaled.view(), Some(scaled.energy_factors()));
        Ok(self.phases.measure(Phase::PowerPricing, || mode_cost(system, view, factors, active)))
    }

    /// The one assembly of `F_M`: Eq. 1 under the optimisation weights
    /// and every penalty, from the per-mode terms and the allocation. The
    /// hardware PEs' rows are read in one pass over the allocation, and
    /// their areas and the transitions are judged from them; the penalty
    /// lists are left in `judged`.
    fn judge(&self, alloc: &CoreAllocation, modes: &[ModeCost], judged: &mut Judged) -> Verdict {
        let system = self.system;
        let weighted: Watts = modes.iter().zip(&self.weights).map(|(m, &w)| m.total * w).sum();

        let total_lateness: Seconds = modes.iter().map(|m| m.lateness).sum();
        let mut timing_penalty = 1.0;
        for (cost, (_, m)) in modes.iter().zip(system.omsm().modes()) {
            timing_penalty += self.config.weights.timing * (cost.lateness / m.graph().period());
        }

        let Judged { rows, area_overruns, transitions } = judged;
        rows.read(alloc, system.arch().hardware_pes());
        area_overruns.clear();
        let mut area_penalty = 1.0;
        for p in 0..rows.pes().len() {
            let pe = rows.pes()[p];
            let info = system.arch().pe(pe);
            let capacity = info.area().expect("hardware PEs declare area");
            let used = if info.kind().is_reconfigurable() {
                system
                    .omsm()
                    .mode_ids()
                    .map(|m| rows.mode_area(system, p, m))
                    .max()
                    .unwrap_or(Cells::ZERO)
            } else {
                rows.static_area(system, p)
            };
            if used > capacity {
                area_overruns.push(AreaOverrun { pe, used, capacity });
                let overshoot_percent = (used.value() - capacity.value()) as f64
                    / (capacity.value().max(1) as f64 * 0.01);
                area_penalty += self.config.weights.area * overshoot_percent;
            }
        }

        // Every FPGA is a hardware PE, so its rows were read.
        transition_times(system, transitions, |pe, from, to| {
            let p = rows.pes().binary_search(&pe).expect("an FPGA's rows were read");
            rows.reconfig_area(system, p, from, to)
        });
        let mut transition_penalty = 1.0;
        for t in transitions.iter() {
            if !t.is_feasible() {
                transition_penalty *= (self.config.weights.transition * t.overrun()).max(1.0);
            }
        }

        let violations = Violations {
            timing: total_lateness.value() > 1e-12,
            area: !area_overruns.is_empty(),
            transition: transitions.iter().any(|t| !t.is_feasible()),
        };
        let mut fitness = weighted.value() * timing_penalty * area_penalty * transition_penalty;
        if violations.any() {
            fitness *= self.config.weights.infeasibility_boost.max(1.0);
        }
        Verdict { fitness, total_lateness, violations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_model::ids::{ModeId, TaskId};
    use momsynth_model::units::{Seconds, Volts, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Cl, DvsCapability, Implementation, OmsmBuilder, Pe, PeKind,
        TaskGraphBuilder, TechLibraryBuilder,
    };

    /// The testbed mirrors the paper's Example 1 flavour: one CPU, one
    /// small ASIC, two modes with very different probabilities.
    fn sys(asic_cells: u64, period_ms: f64) -> System {
        let mut tech = TechLibraryBuilder::new();
        let ta = tech.add_type("A");
        let tb = tech.add_type("B");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(0.2)).with_dvs(
            DvsCapability::new(
                Volts::new(3.3),
                Volts::new(0.8),
                vec![Volts::new(1.2), Volts::new(2.1), Volts::new(3.3)],
            ),
        ));
        let hw = arch.add_pe(Pe::hardware(
            "hw",
            PeKind::Asic,
            Cells::new(asic_cells),
            Watts::from_milli(0.1),
        ));
        arch.add_cl(Cl::bus(
            "bus",
            vec![cpu, hw],
            Seconds::from_micros(1.0),
            Watts::from_milli(1.0),
            Watts::from_milli(0.05),
        ))
        .unwrap();
        for ty in [ta, tb] {
            tech.set_impl(
                ty,
                cpu,
                Implementation::software(Seconds::from_millis(20.0), Watts::from_milli(500.0)),
            );
            tech.set_impl(
                ty,
                hw,
                Implementation::hardware(
                    Seconds::from_millis(2.0),
                    Watts::from_milli(5.0),
                    Cells::new(240),
                ),
            );
        }
        let mk = |name: &str, ty| {
            let mut g = TaskGraphBuilder::new(name, Seconds::from_millis(period_ms));
            let x = g.add_task("x", ty);
            let y = g.add_task("y", ty);
            g.add_comm(x, y, 10.0).unwrap();
            g.build().unwrap()
        };
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("rare", 0.1, mk("rare", ta));
        omsm.add_mode("common", 0.9, mk("common", tb));
        System::new("s", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    fn all_cpu(system: &System) -> SystemMapping {
        SystemMapping::from_fn(system, |_| PeId::new(0))
    }

    #[test]
    fn feasible_software_solution_has_plain_power_fitness() {
        let system = sys(600, 100.0);
        let config = SynthesisConfig::new(0);
        let ev = Evaluator::new(&system, &config);
        let sol = ev.evaluate(all_cpu(&system), None).unwrap();
        assert!(sol.is_feasible());
        // No penalties: fitness equals the weighted average power.
        assert!((sol.fitness - sol.power.average.value()).abs() < 1e-15);
        assert_eq!(sol.total_lateness, Seconds::ZERO);
        assert!(sol.area_overruns.is_empty());
    }

    #[test]
    fn probability_neglecting_weights_change_fitness_not_report() {
        let system = sys(600, 100.0);
        // Put the common mode on hardware so the modes differ in power.
        let mut mapping = all_cpu(&system);
        mapping.set(ModeId::new(1), TaskId::new(0), PeId::new(1));
        mapping.set(ModeId::new(1), TaskId::new(1), PeId::new(1));

        let aware_cfg = SynthesisConfig::new(0);
        let neglect_cfg = SynthesisConfig::new(0).probability_neglecting();
        let aware = Evaluator::new(&system, &aware_cfg).evaluate(mapping.clone(), None).unwrap();
        let neglect = Evaluator::new(&system, &neglect_cfg).evaluate(mapping, None).unwrap();
        // The reported power is identical (true probabilities)…
        assert_eq!(aware.power.average, neglect.power.average);
        // …but the fitness differs (uniform weights overweight the rare,
        // expensive mode).
        assert!(neglect.fitness > aware.fitness);
    }

    #[test]
    fn timing_violation_inflates_fitness() {
        // 30 ms period cannot hold two sequential 20 ms software tasks.
        let system = sys(600, 30.0);
        let config = SynthesisConfig::new(0);
        let ev = Evaluator::new(&system, &config);
        let sol = ev.evaluate(all_cpu(&system), None).unwrap();
        assert!(!sol.is_feasible());
        assert!(sol.total_lateness.value() > 0.0);
        assert!(sol.fitness > sol.power.average.value() * 2.0);
    }

    #[test]
    fn area_violation_is_detected_and_penalised() {
        // ASIC of 300 cells cannot hold two 240-cell cores (types A and B).
        let system = sys(300, 100.0);
        let config = SynthesisConfig::new(0);
        let ev = Evaluator::new(&system, &config);
        let mapping = SystemMapping::from_fn(&system, |_| PeId::new(1));
        let sol = ev.evaluate(mapping, None).unwrap();
        assert_eq!(sol.area_overruns.len(), 1);
        assert_eq!(sol.area_overruns[0].used, Cells::new(480));
        assert!(!sol.is_feasible());
        let feasible = ev.evaluate(all_cpu(&system), None).unwrap();
        assert!(sol.fitness > feasible.fitness);
    }

    #[test]
    fn dvs_reduces_fitness_and_power() {
        let system = sys(600, 100.0);
        let config = SynthesisConfig::new(0).with_dvs();
        let ev = Evaluator::new(&system, &config);
        let nominal = ev.evaluate(all_cpu(&system), None).unwrap();
        let scaled = ev.evaluate(all_cpu(&system), Some(&DvsOptions::fine())).unwrap();
        assert!(scaled.power.average < nominal.power.average);
        assert!(scaled.is_feasible());
        // Voltage schedules are populated for scaled tasks.
        let vs = &scaled.voltage_schedules[0];
        assert!(vs.iter().any(Option::is_some));
        assert!(nominal.voltage_schedules[0].iter().all(Option::is_none));
    }

    #[test]
    fn describe_reports_modes_cores_and_feasibility() {
        let system = sys(600, 100.0);
        let config = SynthesisConfig::new(0);
        let ev = Evaluator::new(&system, &config);
        let mut mapping = all_cpu(&system);
        mapping.set(ModeId::new(1), TaskId::new(0), PeId::new(1));
        let sol = ev.evaluate(mapping, None).unwrap();
        let text = sol.describe(&system);
        assert!(text.contains("feasible"));
        assert!(text.contains("rare"));
        assert!(text.contains("common"));
        assert!(text.contains("cores:"));
        assert!(text.contains("mW average"));

        // An infeasible solution is called out.
        let tight = sys(600, 30.0);
        let ev = Evaluator::new(&tight, &config);
        let sol = ev.evaluate(SystemMapping::from_fn(&tight, |_| PeId::new(0)), None).unwrap();
        assert!(sol.describe(&tight).contains("INFEASIBLE"));
    }

    #[test]
    fn scratch_reuse_across_evaluations_is_transparent() {
        // One evaluator reused over alternating mappings must price each
        // exactly like a fresh evaluator: the scratch buffers carry no
        // state between evaluations.
        let system = sys(600, 100.0);
        let config = SynthesisConfig::new(0).with_dvs();
        let shared = Evaluator::new(&system, &config);
        let mut hw = all_cpu(&system);
        hw.set(ModeId::new(1), TaskId::new(0), PeId::new(1));
        hw.set(ModeId::new(1), TaskId::new(1), PeId::new(1));
        for mapping in [all_cpu(&system), hw.clone(), all_cpu(&system), hw] {
            let fresh = Evaluator::new(&system, &config);
            let reused = shared.evaluate(mapping.clone(), Some(&DvsOptions::fine())).unwrap();
            let pristine = fresh.evaluate(mapping, Some(&DvsOptions::fine())).unwrap();
            assert_eq!(reused, pristine);
        }
    }

    #[test]
    fn try_evaluate_reports_a_scheduler_error() {
        // No complete mapping of this system is routable.
        let system = crate::synthesis::tests::unroutable_system();
        let config = SynthesisConfig::new(0);
        let mapping = crate::genome::GenomeLayout::new(&system).decode(&[0, 0, 0]);
        let failure = Evaluator::new(&system, &config).try_evaluate(mapping, None).unwrap_err();
        let EvalFailure::Sched(e) = &failure else { panic!("expected Sched, got {failure:?}") };
        assert_eq!(failure.to_string(), e.to_string());
    }

    #[test]
    fn try_evaluate_contains_a_panicking_evaluation() {
        // A PE index the architecture does not have makes the evaluator
        // panic; the guard turns that into a typed failure.
        let system = sys(600, 100.0);
        let config = SynthesisConfig::new(0);
        let mapping = SystemMapping::from_fn(&system, |_| PeId::new(9));
        let failure = Evaluator::new(&system, &config).try_evaluate(mapping, None).unwrap_err();
        assert!(matches!(failure, EvalFailure::Panic(_)), "{failure:?}");
        assert!(failure.to_string().starts_with("evaluator panicked"), "{failure}");
    }

    #[test]
    fn without_replication_a_pe_outside_the_architecture_is_a_scheduler_error() {
        // Only the demand sweep asks a mapped PE's kind of the
        // architecture; without it the scheduler finds the PE implements
        // no type.
        let system = sys(600, 100.0);
        let mut config = SynthesisConfig::new(0);
        config.alloc.replicate = false;
        let mapping = SystemMapping::from_fn(&system, |_| PeId::new(9));
        let failure = Evaluator::new(&system, &config).try_evaluate(mapping, None).unwrap_err();
        let EvalFailure::Sched(SchedError::UnsupportedMapping { pe, .. }) = failure else {
            panic!("expected an unsupported mapping, got {failure:?}")
        };
        assert_eq!(pe, PeId::new(9));
    }

    #[test]
    fn try_evaluate_rejects_a_non_finite_fitness() {
        // Infeasible (30 ms period, 40 ms of software) under an infinite
        // infeasibility boost: the fitness is +∞.
        let system = sys(600, 30.0);
        let mut config = SynthesisConfig::new(0);
        config.weights.infeasibility_boost = f64::INFINITY;
        let ev = Evaluator::new(&system, &config);
        assert_eq!(ev.evaluate(all_cpu(&system), None).unwrap().fitness, f64::INFINITY);
        let failure = ev.try_evaluate(all_cpu(&system), None).unwrap_err();
        assert_eq!(failure, EvalFailure::NonFinite);
        assert_eq!(failure.to_string(), "non-finite fitness");
    }

    #[test]
    fn shutdown_is_rewarded_for_rare_mode_hardware() {
        // With probabilities 0.1/0.9, keeping the common mode pure-software
        // lets the ASIC+bus power down 90% of the time; putting the *rare*
        // mode on HW instead keeps the expensive SW execution in the
        // common mode. The evaluator must price this correctly.
        let system = sys(600, 100.0);
        let config = SynthesisConfig::new(0);
        let ev = Evaluator::new(&system, &config);
        // Variant 1: common mode on HW (shuts CPU-heavy work down where it
        // matters most).
        let mut common_hw = all_cpu(&system);
        common_hw.set(ModeId::new(1), TaskId::new(0), PeId::new(1));
        common_hw.set(ModeId::new(1), TaskId::new(1), PeId::new(1));
        // Variant 2: rare mode on HW.
        let mut rare_hw = all_cpu(&system);
        rare_hw.set(ModeId::new(0), TaskId::new(0), PeId::new(1));
        rare_hw.set(ModeId::new(0), TaskId::new(1), PeId::new(1));
        let s1 = ev.evaluate(common_hw, None).unwrap();
        let s2 = ev.evaluate(rare_hw, None).unwrap();
        assert!(
            s1.power.average < s2.power.average,
            "common-mode HW {} should beat rare-mode HW {}",
            s1.power.average,
            s2.power.average
        );
    }
}
