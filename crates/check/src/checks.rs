//! The five independent check families over a finished solution.

use std::collections::BTreeMap;

use momsynth_dvs::{VoltageModel, VoltageSchedule};
use momsynth_model::ids::{ModeId, PeId, TaskTypeId};
use momsynth_model::units::Cells;
use momsynth_model::System;
use momsynth_power::PowerReport;
use momsynth_sched::{validate_schedule, CoreAllocation, Schedule, SystemMapping};

use crate::violation::{CheckReport, Violation};

/// Structural slack shared with the rest of the workspace: finishing
/// `≤ limit + EPS` counts as on time.
const EPS: f64 = 1e-12;

/// Relative tolerance for re-derived floating-point quantities (scaled
/// execution times, energy factors, Eq. 1 powers).
const REL_EPS: f64 = 1e-9;

/// `true` when `actual` matches `reference` to [`REL_EPS`], relative to
/// `max(1, |reference|)`.
fn close(actual: f64, reference: f64) -> bool {
    (actual - reference).abs() <= REL_EPS * reference.abs().max(1.0)
}

/// Borrowed view of the constituent parts of a finished solution.
///
/// The checker deliberately takes the raw parts instead of a concrete
/// result type so that it can verify solutions from any producer — the
/// synthesizer's in-memory result, a deserialised `--output` file, or a
/// hand-constructed test fixture.
#[derive(Debug, Clone, Copy)]
pub struct SolutionView<'a> {
    /// Task-to-PE mapping, per mode.
    pub mapping: &'a SystemMapping,
    /// Hardware core allocation, per mode.
    pub alloc: &'a CoreAllocation,
    /// One schedule per mode, in mode-id order.
    pub schedules: &'a [Schedule],
    /// Per-mode, per-task voltage schedules (`None` = runs at nominal).
    pub voltage_schedules: &'a [Vec<Option<VoltageSchedule>>],
    /// The power report whose Eq. 1 claim is to be re-proved.
    pub power: &'a PowerReport,
}

/// Independently re-derives and verifies every paper constraint on a
/// finished solution, sharing no code path with the constructive inner
/// loop (scheduler, PV-DVS and power report are only *inputs* here).
///
/// The families, in check order:
///
/// 1. mapping feasibility — implementations exist, constraint (a) area;
/// 2. schedule legality — [`validate_schedule`] plus constraint (b)
///    deadlines and periods on the DVS-extended timing;
/// 3. voltage-schedule legality — supply range, cycle fractions,
///    first-principles timing, and never-increased energy;
/// 4. constraint (c) — transition-time limits `t_T^max` against FPGA
///    reconfiguration re-derived from the allocation;
/// 5. Eq. 1 — the reported average power re-derived from raw `f64`
///    arithmetic, matched to `1e-9` relative.
pub fn check_solution(system: &System, view: &SolutionView<'_>) -> CheckReport {
    let mut violations = Vec::new();
    if check_shape(system, view, &mut violations) {
        check_mapping(system, view, &mut violations);
        check_schedules(system, view, &mut violations);
        check_voltages(system, view, &mut violations);
        check_transitions(system, view, &mut violations);
        check_power(system, view, &mut violations);
    }
    CheckReport::new(violations)
}

/// Validates that every part has the system's shape and only uses ids
/// the system defines, so the deeper checks can index freely. Returns
/// `false` (after recording [`Violation::Malformed`] findings) when the
/// deeper checks cannot run.
fn check_shape(system: &System, view: &SolutionView<'_>, out: &mut Vec<Violation>) -> bool {
    let omsm = system.omsm();
    let modes = omsm.mode_count();
    let pes = system.arch().pe_count();
    let cls = system.arch().cl_count();
    let types = system.tech().type_count();
    let before = out.len();
    let malformed =
        |out: &mut Vec<Violation>, detail: String| out.push(Violation::Malformed { detail });

    if view.mapping.mode_count() != modes {
        malformed(
            out,
            format!("mapping covers {} modes, system has {modes}", view.mapping.mode_count()),
        );
    } else {
        for (m, mode) in omsm.modes() {
            let tasks = mode.graph().task_count();
            if view.mapping.task_count(m) != tasks {
                malformed(
                    out,
                    format!(
                        "mode {m}: mapping covers {} tasks, graph has {tasks}",
                        view.mapping.task_count(m)
                    ),
                );
                continue;
            }
            for (t, pe) in view.mapping.mode_assignments(m) {
                if pe.index() >= pes {
                    malformed(out, format!("mode {m}: task {t} mapped to unknown PE {pe}"));
                }
            }
        }
    }

    if view.alloc.mode_count() != modes {
        malformed(
            out,
            format!("allocation covers {} modes, system has {modes}", view.alloc.mode_count()),
        );
    } else {
        for m in omsm.mode_ids() {
            for ((pe, ty), _) in view.alloc.mode_cores(m) {
                if pe.index() >= pes || ty.index() >= types {
                    malformed(out, format!("mode {m}: allocation names unknown core ({pe}, {ty})"));
                }
            }
        }
    }

    if view.schedules.len() != modes {
        malformed(out, format!("{} schedules for {modes} modes", view.schedules.len()));
    } else {
        for (m, mode) in omsm.modes() {
            let schedule = &view.schedules[m.index()];
            let tasks = mode.graph().task_count();
            if schedule.mode() != m {
                malformed(out, format!("schedule {} claims mode {}", m.index(), schedule.mode()));
                continue;
            }
            let entries: Vec<_> = schedule.tasks().collect();
            if entries.len() != tasks {
                malformed(
                    out,
                    format!("mode {m}: schedule has {} of {tasks} tasks", entries.len()),
                );
                continue;
            }
            for (i, entry) in entries.iter().enumerate() {
                if entry.task.index() != i || entry.pe.index() >= pes {
                    malformed(out, format!("mode {m}: schedule entry {i} is inconsistent"));
                }
            }
            let comms = mode.graph().comm_count();
            if schedule.comm_count() != comms {
                malformed(
                    out,
                    format!(
                        "mode {m}: schedule has {} of {comms} comm entries",
                        schedule.comm_count()
                    ),
                );
                continue;
            }
            for c in mode.graph().comm_ids() {
                if let Some(entry) = schedule.comm(c) {
                    if entry.comm != c || entry.cl.index() >= cls {
                        malformed(out, format!("mode {m}: comm entry {c} is inconsistent"));
                    }
                }
            }
        }
    }

    if view.voltage_schedules.len() != modes {
        malformed(
            out,
            format!("{} voltage-schedule modes for {modes} modes", view.voltage_schedules.len()),
        );
    } else {
        for (m, mode) in omsm.modes() {
            let tasks = mode.graph().task_count();
            let have = view.voltage_schedules[m.index()].len();
            if have != tasks {
                malformed(out, format!("mode {m}: {have} voltage schedules for {tasks} tasks"));
            }
        }
    }

    if view.power.modes.len() != modes {
        malformed(out, format!("power report covers {} of {modes} modes", view.power.modes.len()));
    } else {
        for (i, mp) in view.power.modes.iter().enumerate() {
            if mp.mode.index() != i {
                malformed(out, format!("power report entry {i} claims mode {}", mp.mode));
            }
        }
    }

    out.len() == before
}

/// The cells of one `ty` core on `pe`, from the technology library.
fn core_cells(system: &System, pe: PeId, ty: TaskTypeId) -> u64 {
    system.tech().impl_of(ty, pe).map_or(0, |imp| imp.area().value())
}

/// The cells `count` instances of each `(type, count)` core on `pe`
/// occupy together.
fn cells_of(system: &System, pe: PeId, cores: impl Iterator<Item = (TaskTypeId, usize)>) -> u64 {
    cores.fold(0, |sum: u64, (ty, count)| {
        sum.saturating_add(core_cells(system, pe, ty).saturating_mul(count as u64))
    })
}

/// The `(type, instances)` cores `mode` allocates on `pe`.
fn cores_on<'a>(
    view: &SolutionView<'a>,
    mode: ModeId,
    pe: PeId,
) -> impl Iterator<Item = (TaskTypeId, usize)> + 'a {
    view.alloc.mode_cores(mode).filter(move |&((p, _), _)| p == pe).map(|((_, ty), n)| (ty, n))
}

/// Family 1: every task's type must have an implementation on its mapped
/// PE, and the allocated cores must fit each hardware PE's area budget —
/// the paper's constraint (a). The area is folded here from the
/// allocation's cores and the library, not by the allocation's own area
/// helpers, which the evaluator prices with.
fn check_mapping(system: &System, view: &SolutionView<'_>, out: &mut Vec<Violation>) {
    let omsm = system.omsm();
    for (m, mode) in omsm.modes() {
        for (t, task) in mode.graph().tasks() {
            let pe = view.mapping.pe_of(m, t);
            if system.tech().impl_of(task.task_type(), pe).is_none() {
                out.push(Violation::MissingImplementation { mode: m, task: t, pe });
            }
        }
    }

    for (pe, info) in system.arch().pes() {
        let Some(capacity) = info.area() else { continue };
        // Reconfigurable fabric is reloaded between modes, so only the
        // busiest mode must fit; static (ASIC) cores coexist across all
        // modes and their union must fit.
        let required = if info.kind().is_reconfigurable() {
            omsm.mode_ids().map(|m| cells_of(system, pe, cores_on(view, m, pe))).max().unwrap_or(0)
        } else {
            let mut most: BTreeMap<TaskTypeId, usize> = BTreeMap::new();
            for m in omsm.mode_ids() {
                for (ty, count) in cores_on(view, m, pe) {
                    let slot = most.entry(ty).or_insert(0);
                    *slot = (*slot).max(count);
                }
            }
            cells_of(system, pe, most.into_iter())
        };
        if required > capacity.value() {
            out.push(Violation::AreaOverflow { pe, required: Cells::new(required), capacity });
        }
    }
}

/// Family 2: structural schedule legality via the independent validator,
/// plus constraint (b) — deadlines and periods — on the (possibly
/// DVS-extended) timing actually recorded in the schedule.
fn check_schedules(system: &System, view: &SolutionView<'_>, out: &mut Vec<Violation>) {
    for (m, mode) in system.omsm().modes() {
        let graph = mode.graph();
        let schedule = &view.schedules[m.index()];
        for violation in validate_schedule(system, view.mapping, view.alloc, schedule) {
            out.push(Violation::ScheduleIllegal { mode: m, violation });
        }
        for entry in schedule.tasks() {
            let deadline = graph.effective_deadline(entry.task);
            if entry.finish().value() > deadline.value() + EPS {
                out.push(Violation::DeadlineMissed {
                    mode: m,
                    task: entry.task,
                    finish: entry.finish(),
                    deadline,
                });
            }
        }
        let finish = schedule.makespan();
        if finish.value() > graph.period().value() + EPS {
            out.push(Violation::PeriodExceeded { mode: m, finish, period: graph.period() });
        }
    }
}

/// Family 3: voltage-schedule legality, re-derived from first principles
/// under the alpha-power delay model: supplies within the PE's range,
/// cycle fractions covering the task, segment timing consistent with
/// `Σ fraction · t_min · stretch(V)`, energy never above nominal — and
/// no voltage schedule at all on fixed-voltage PEs.
fn check_voltages(system: &System, view: &SolutionView<'_>, out: &mut Vec<Violation>) {
    for (m, mode) in system.omsm().modes() {
        let graph = mode.graph();
        let schedule = &view.schedules[m.index()];
        for (t, task) in graph.tasks() {
            let entry = schedule.task(t);
            let Some(imp) = system.tech().impl_of(task.task_type(), entry.pe) else {
                continue; // already reported by check_mapping
            };
            let t_min = imp.exec_time();
            let Some(vs) = view.voltage_schedules[m.index()][t.index()].as_ref() else {
                // Unscaled task: the schedule must use the nominal time.
                if !close(entry.exec_time.value(), t_min.value()) {
                    out.push(Violation::ExecTimeMismatch {
                        mode: m,
                        task: t,
                        expected: t_min,
                        actual: entry.exec_time,
                    });
                }
                continue;
            };
            let Some(cap) = system.arch().pe(entry.pe).dvs() else {
                out.push(Violation::VoltageOnFixedPe { mode: m, task: t, pe: entry.pe });
                continue;
            };
            let model = VoltageModel::from_capability(cap);

            let mut fraction_sum = 0.0;
            let mut derived = 0.0;
            let mut stored = 0.0;
            let mut usable = true;
            for segment in vs.segments() {
                let v = segment.voltage.value();
                if v <= cap.v_threshold().value()
                    || v < cap.v_min().value() - REL_EPS
                    || v > cap.v_max().value() + REL_EPS
                {
                    out.push(Violation::VoltageOutOfRange {
                        mode: m,
                        task: t,
                        voltage: segment.voltage,
                    });
                    usable = false;
                    continue;
                }
                fraction_sum += segment.cycle_fraction;
                derived += segment.cycle_fraction * t_min.value() * model.stretch(segment.voltage);
                stored += segment.duration.value();
            }
            if !usable {
                continue; // stretch() is undefined below threshold
            }
            if (fraction_sum - 1.0).abs() > REL_EPS {
                out.push(Violation::CycleFractionsInvalid { mode: m, task: t, sum: fraction_sum });
                continue;
            }
            // Both the first-principles derivation and the stored segment
            // durations must reproduce the schedule slot.
            for total in [derived, stored] {
                if !close(total, entry.exec_time.value()) {
                    out.push(Violation::VoltageTimeMismatch {
                        mode: m,
                        task: t,
                        derived: momsynth_model::units::Seconds::new(total),
                        scheduled: entry.exec_time,
                    });
                    break;
                }
            }
            let factor = vs.energy_factor(&model);
            if factor > 1.0 + REL_EPS {
                out.push(Violation::EnergyIncreased { mode: m, task: t, factor });
            }
        }
    }
}

/// Family 4: constraint (c) — every mode transition's FPGA
/// reconfiguration, re-derived as `Σ reconfig_time_per_cell · area of the
/// cores to load`, must stay within the specification's `t_T^max`. The
/// cores to load are the `to` mode's instances the `from` mode lacks.
fn check_transitions(system: &System, view: &SolutionView<'_>, out: &mut Vec<Violation>) {
    for (id, t) in system.omsm().transitions() {
        let mut time = 0.0;
        for (pe, info) in system.arch().pes() {
            if !info.kind().is_reconfigurable() {
                continue;
            }
            let loaded: BTreeMap<TaskTypeId, usize> = cores_on(view, t.from(), pe).collect();
            let missing = cores_on(view, t.to(), pe)
                .map(|(ty, need)| (ty, need.saturating_sub(loaded.get(&ty).copied().unwrap_or(0))));
            time += info.reconfig_time_per_cell().value() * cells_of(system, pe, missing) as f64;
        }
        if time > t.max_time().value() + EPS {
            out.push(Violation::TransitionOverrun {
                transition: id,
                time: momsynth_model::units::Seconds::new(time),
                limit: t.max_time(),
            });
        }
    }
}

/// Family 5: Eq. 1 — `p̄ = Σ_O (p̄_O^dyn + p̄_O^stat) · Ψ_O` — recomputed
/// with raw `f64` arithmetic from the technology library, the schedules
/// and the voltage schedules, then matched against the report to `1e-9`.
fn check_power(system: &System, view: &SolutionView<'_>, out: &mut Vec<Violation>) {
    let mut average = 0.0;
    for (m, mode) in system.omsm().modes() {
        let graph = mode.graph();
        let schedule = &view.schedules[m.index()];

        let mut task_energy = 0.0;
        let mut active_pes: Vec<usize> = Vec::new();
        for entry in schedule.tasks() {
            let ty = graph.task(entry.task).task_type();
            let Some(imp) = system.tech().impl_of(ty, entry.pe) else {
                continue; // already reported by check_mapping
            };
            let factor = match view.voltage_schedules[m.index()][entry.task.index()].as_ref() {
                Some(vs) => match system.arch().pe(entry.pe).dvs() {
                    Some(cap) => vs.energy_factor(&VoltageModel::from_capability(cap)),
                    None => 1.0, // reported by check_voltages
                },
                None => 1.0,
            };
            task_energy += imp.dyn_power().value() * imp.exec_time().value() * factor;
            active_pes.push(entry.pe.index());
        }
        active_pes.sort_unstable();
        active_pes.dedup();

        let mut comm_energy = 0.0;
        let mut active_cls: Vec<usize> = Vec::new();
        for comm in schedule.remote_comms() {
            comm_energy +=
                system.arch().cl(comm.cl).transfer_power().value() * comm.duration.value();
            active_cls.push(comm.cl.index());
        }
        active_cls.sort_unstable();
        active_cls.dedup();

        // Shut-down analysis: only resources that actually execute in the
        // mode draw static power.
        let static_power = active_pes
            .iter()
            .map(|&pe| system.arch().pe(momsynth_model::ids::PeId::new(pe)).static_power().value())
            .sum::<f64>()
            + active_cls
                .iter()
                .map(|&cl| {
                    system.arch().cl(momsynth_model::ids::ClId::new(cl)).static_power().value()
                })
                .sum::<f64>();

        let total = (task_energy + comm_energy) / graph.period().value() + static_power;
        let reported = view.power.modes[m.index()].total();
        if !close(total, reported.value()) {
            out.push(Violation::ModePowerMismatch {
                mode: m,
                reported,
                recomputed: momsynth_model::units::Watts::new(total),
            });
        }
        average += total * mode.probability();
    }
    if !close(average, view.power.average.value()) {
        out.push(Violation::AveragePowerMismatch {
            reported: view.power.average,
            recomputed: momsynth_model::units::Watts::new(average),
        });
    }
}

/// A solution as persisted by `momsynth synth --output` — the parts of
/// the solution JSON the checker needs.
#[derive(Debug, Clone)]
pub struct StoredSolution {
    /// Task-to-PE mapping, per mode.
    pub mapping: SystemMapping,
    /// Hardware core allocation, per mode.
    pub alloc: CoreAllocation,
    /// One schedule per mode.
    pub schedules: Vec<Schedule>,
    /// Per-mode, per-task voltage schedules; `None` when the file predates
    /// the field (treated as all-nominal).
    pub voltage_schedules: Option<Vec<Vec<Option<VoltageSchedule>>>>,
    /// The reported power breakdown.
    pub power: PowerReport,
}

impl StoredSolution {
    /// Extracts the checkable parts from a solution-JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(value: &serde_json::Value) -> Result<Self, String> {
        fn field<T: serde::de::DeserializeOwned>(
            value: &serde_json::Value,
            name: &str,
        ) -> Result<T, String> {
            let v = value.get(name).ok_or_else(|| format!("missing field `{name}`"))?;
            serde_json::from_value(v).map_err(|e| format!("field `{name}`: {e}"))
        }
        let voltage_schedules = match value.get("voltage_schedules") {
            None => None,
            Some(v) if v.is_null() => None,
            Some(v) => Some(
                serde_json::from_value(v).map_err(|e| format!("field `voltage_schedules`: {e}"))?,
            ),
        };
        Ok(Self {
            mapping: field(value, "mapping")?,
            alloc: field(value, "alloc")?,
            schedules: field(value, "schedules")?,
            voltage_schedules,
            power: field(value, "power")?,
        })
    }

    /// Runs [`check_solution`] over the stored parts, treating a missing
    /// `voltage_schedules` field as all-nominal execution.
    pub fn check(&self, system: &System) -> CheckReport {
        let nominal: Vec<Vec<Option<VoltageSchedule>>>;
        let voltage_schedules: &[Vec<Option<VoltageSchedule>>] = match &self.voltage_schedules {
            Some(vs) => vs,
            None => {
                nominal = self.schedules.iter().map(|s| vec![None; s.tasks().count()]).collect();
                &nominal
            }
        };
        check_solution(
            system,
            &SolutionView {
                mapping: &self.mapping,
                alloc: &self.alloc,
                schedules: &self.schedules,
                voltage_schedules,
                power: &self.power,
            },
        )
    }
}
