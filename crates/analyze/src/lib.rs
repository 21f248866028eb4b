//! # momsynth-analyze — pre-synthesis static feasibility analysis
//!
//! Statically analyzes a [`System`] *before* synthesis and derives
//! provable bounds from the model alone:
//!
//! - **Timing.** Per mode, the critical-path lower bound (every task at
//!   its fastest nominal implementation, plus the fastest link latency of
//!   every transfer that must cross a link) against the period, and
//!   per-task finish-time floors against effective deadlines
//!   `min(θ, φ)`. DVS only *stretches* execution times relative to the
//!   nominal fastest implementation, so these floors hold for scaled
//!   runs too.
//! - **Area.** Per hardware PE, the core area forced onto it by task
//!   types implementable nowhere else (constraint (a) of the paper);
//!   for reconfigurable PEs the per-mode maximum, since cores can be
//!   swapped between modes.
//! - **Power.** A probability-weighted Eq. 1 lower bound `p̄_LB` built
//!   from three per-mode floors: a *load floor* pricing each task at its
//!   cheapest capable PE at nominal voltage; a *DVS floor* that grants
//!   each candidate its deepest provably reachable supply drop — limited
//!   by the rail's lowest legal level and by the slack window the task's
//!   path floors leave it (the PV-DVS scaler never stretches past
//!   deadlines or the period); and a *communication floor* pricing
//!   transfers whose endpoint candidate sets are disjoint (remote under
//!   every mapping) at the cheapest routable link. Static power is
//!   excluded, so `p̄ ≥ p̄_LB` for every mapping the evaluator can
//!   produce.
//! - **Transitions.** The `t_T^max` floor from FPGA reconfiguration
//!   times, and OMSM reachability.
//! - **Advisories.** Legal but suspicious specifications: deadlines
//!   beyond the period, probable stub modes, hardware PEs no task type
//!   can use and DVS rails with a single level.
//! - **Genome domains.** The per-`(mode, task)` capable-PE sets, with
//!   `(task, PE)` pairs removed when mapping the task there provably
//!   violates a deadline or the period, and whole PEs removed from a
//!   mode when another PE *dominates* them — is provably no worse along
//!   every fitness axis for every task of the mode (see `dominance.rs`).
//!   The synthesiser feeds these into genome construction so mutation
//!   and crossover never generate a gene outside its statically proven
//!   domain, and `momsynth prove` branches only over the reduced space.
//!
//! The analysis takes a loaded [`System`], whose builders have already
//! rejected structurally broken specifications (cycles, dangling
//! references, unimplementable task types, probabilities that do not sum
//! to one). Findings are graded [`Severity::Error`] (a *proof* of
//! infeasibility), [`Severity::Warning`] or [`Severity::Info`]. Like
//! `momsynth-check`, this crate sits *below* the synthesis core and
//! shares no code with the constructive inner loop: it re-derives
//! everything from `momsynth-model` and the `momsynth-dvs` voltage
//! mathematics, so its verdicts are independent evidence, not an echo
//! of the optimiser.
//!
//! # Examples
//!
//! ```
//! use momsynth_analyze::analyze_system;
//! # use momsynth_model::{ArchitectureBuilder, Implementation, OmsmBuilder, Pe, PeKind,
//! #     System, TaskGraphBuilder, TechLibraryBuilder};
//! # use momsynth_model::units::{Seconds, Watts};
//! # let mut tech = TechLibraryBuilder::new();
//! # let t = tech.add_type("T");
//! # let mut arch = ArchitectureBuilder::new();
//! # let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
//! # tech.set_impl(t, cpu, Implementation::software(Seconds::new(0.01), Watts::new(0.1)));
//! # let mut g = TaskGraphBuilder::new("m", Seconds::new(1.0));
//! # g.add_task("t", t);
//! # let mut omsm = OmsmBuilder::new();
//! # omsm.add_mode("m", 1.0, g.build().unwrap());
//! # let system = System::new("s", omsm.build().unwrap(), arch.build().unwrap(),
//! #     tech.build()).unwrap();
//! let analysis = analyze_system(&system);
//! assert!(!analysis.has_errors(), "{analysis}");
//! assert!(analysis.power_lower_bound().value() > 0.0);
//! ```

#![warn(missing_docs)]

mod dominance;
mod report;

pub use report::{Analysis, AreaBound, DomainReduction, Finding, ModeBounds, Severity};

use momsynth_dvs::VoltageModel;
use momsynth_model::ids::{GlobalTaskId, PeId, TaskTypeId};
use momsynth_model::units::{Cells, Joules, Seconds, Watts};
use momsynth_model::{Pe, System, TaskGraph};

/// `true` when `value` exceeds `bound` by more than float noise. Used
/// for every infeasibility verdict so an *exactly* tight specification —
/// which the constructive flow can still schedule — is never rejected.
pub(crate) fn exceeds(value: Seconds, bound: Seconds) -> bool {
    value.value() > bound.value() + (1e-9 * bound.value().abs()).max(1e-12)
}

/// The provable multiplicative floor on the energy of a task with
/// nominal execution time `exec` on `pe`, given that no evaluated
/// schedule ever stretches the task beyond `allowed` seconds (the PV-DVS
/// scaler never violates deadlines or the period, and leaves already-late
/// schedules at nominal timing).
///
/// Two floors compose: the supply cannot drop below the lowest legal
/// level `v_min`, and it cannot drop below the continuous voltage whose
/// stretch factor fills the `allowed / exec` window (the convex Eq. 1
/// energy/stretch trade-off of the alpha-power model). Without DVS the
/// nominal energy stands.
fn dvs_energy_floor(pe: &Pe, exec: Seconds, allowed: Seconds) -> f64 {
    let Some(cap) = pe.dvs() else { return 1.0 };
    let (v_max, v_t) = (cap.v_max(), cap.v_threshold());
    if !v_max.value().is_finite() || !v_t.value().is_finite() || v_max <= v_t {
        return 1.0; // Degenerate capability: fall back to the nominal energy.
    }
    let model = VoltageModel::from_capability(cap);
    let v_min = cap.v_min();
    let vmin_floor = model.energy_factor(v_min).clamp(0.0, 1.0);
    let k_vmin = if v_min.value() > v_t.value() && v_min.value().is_finite() {
        model.max_stretch(v_min)
    } else {
        f64::INFINITY
    };
    let k_allowed = if exec.value() > 0.0 && allowed.value().is_finite() {
        (allowed.value() / exec.value()).max(1.0)
    } else {
        f64::INFINITY
    };
    let k = k_vmin.min(k_allowed);
    if !k.is_finite() {
        return vmin_floor;
    }
    model.energy_factor_for_stretch(k).clamp(vmin_floor, 1.0)
}

/// Per-task path floors of one mode: earliest-finish and downstream-tail
/// lower bounds with every task at its fastest nominal implementation
/// and every transfer at its unavoidable link latency.
struct PathFloors {
    /// Earliest possible start of each task (longest predecessor chain).
    start_lb: Vec<Seconds>,
    /// Earliest possible finish of each task (`start_lb + fastest exec`).
    finish_lb: Vec<Seconds>,
    /// Longest successor chain *after* each task finishes.
    tail_lb: Vec<Seconds>,
}

/// `comm_delay` holds, per communication, a provable lower bound on the
/// edge's latency (non-zero only for provably remote transfers), so the
/// path floors price unavoidable link traffic on the critical path.
fn path_floors(graph: &TaskGraph, t_min: &[Seconds], comm_delay: &[Seconds]) -> PathFloors {
    let n = graph.task_count();
    let mut start_lb = vec![Seconds::ZERO; n];
    let mut finish_lb = vec![Seconds::ZERO; n];
    for &task in graph.topological_order() {
        let start = graph
            .predecessors(task)
            .iter()
            .map(|&(c, pred)| finish_lb[pred.index()] + comm_delay[c.index()])
            .fold(Seconds::ZERO, Seconds::max);
        start_lb[task.index()] = start;
        finish_lb[task.index()] = start + t_min[task.index()];
    }
    let mut tail_lb = vec![Seconds::ZERO; n];
    for &task in graph.topological_order().iter().rev() {
        tail_lb[task.index()] = graph
            .successors(task)
            .iter()
            .map(|&(c, succ)| comm_delay[c.index()] + t_min[succ.index()] + tail_lb[succ.index()])
            .fold(Seconds::ZERO, Seconds::max);
    }
    PathFloors { start_lb, finish_lb, tail_lb }
}

/// Statically analyzes `system` and returns the full [`Analysis`]
/// report: findings, per-mode and per-PE bounds, the Eq. 1 power lower
/// bound `p̄_LB` and the pruned per-locus capable-PE sets.
pub fn analyze_system(system: &System) -> Analysis {
    let omsm = system.omsm();
    let arch = system.arch();
    let tech = system.tech();
    let mut findings = Vec::new();
    let mut mode_bounds = Vec::new();
    let mut capable_pes: Vec<Vec<PeId>> = Vec::with_capacity(omsm.total_task_count());
    let mut total_candidates = 0usize;
    let mut pruned_candidates = 0usize;
    let mut dominated_candidates = 0usize;
    let mut power_lower_bound = Watts::ZERO;

    // OMSM reachability (meaningful for multi-mode systems only).
    if omsm.mode_count() > 1 {
        for mode in omsm.mode_ids() {
            if !omsm.transitions().any(|(_, t)| t.to() == mode) {
                findings.push(Finding::ModeUnreachable { mode });
            }
            if omsm.transitions_from(mode).next().is_none() {
                findings.push(Finding::ModeTrapping { mode });
            }
        }
    }

    for (mode, m) in omsm.modes() {
        let graph = m.graph();
        let period = graph.period();

        // A single task carrying real probability mass in a multi-mode
        // system is probably an unfinished specification.
        if m.probability() > 0.01 && graph.task_count() == 1 && omsm.mode_count() > 1 {
            findings.push(Finding::ProbableStubMode { mode });
        }

        // Candidate lists and fastest nominal execution times. Every
        // used task type has at least one implementation (`System::new`).
        let candidates: Vec<Vec<PeId>> =
            graph.task_ids().map(|t| system.candidate_pes(GlobalTaskId::new(mode, t))).collect();
        let t_min: Vec<Seconds> = graph
            .task_ids()
            .map(|t| tech.fastest_exec_time(graph.task(t).task_type()).unwrap_or(Seconds::ZERO))
            .collect();

        // Communication floors. When the candidate sets of a
        // communication's endpoints are disjoint the transfer is remote
        // under *every* mapping: the cheapest routable link prices an
        // unavoidable energy term and the fastest routable link an
        // unavoidable latency on the path floors.
        let mut comm_floor = Watts::ZERO;
        let mut comm_delay = vec![Seconds::ZERO; graph.comm_count()];
        for (cid, comm) in graph.comms() {
            let src = &candidates[comm.src().index()];
            let dst = &candidates[comm.dst().index()];
            if src.iter().any(|pe| dst.contains(pe)) {
                continue; // The transfer may be PE-local (free) under some mapping.
            }
            let mut min_time: Option<Seconds> = None;
            let mut min_energy: Option<Joules> = None;
            for &pa in src {
                for &pb in dst {
                    for cl_id in arch.cls_between(pa, pb) {
                        let cl = arch.cl(cl_id);
                        let time = cl.transfer_time(comm.data_units());
                        let energy = cl.transfer_power() * time;
                        min_time = Some(min_time.map_or(time, |t| t.min(time)));
                        min_energy = Some(min_energy.map_or(energy, |e| {
                            if energy.value() < e.value() {
                                energy
                            } else {
                                e
                            }
                        }));
                    }
                }
            }
            // If no link can route any capable pair, every mapping is
            // unroutable — the scheduler will reject the system, so no
            // floor is claimed here.
            if let Some(time) = min_time {
                comm_delay[cid.index()] = time;
            }
            if let Some(energy) = min_energy {
                if period > Seconds::ZERO {
                    comm_floor += energy / period;
                }
            }
        }

        let floors = path_floors(graph, &t_min, &comm_delay);
        let critical_path_lb = floors.finish_lb.iter().copied().fold(Seconds::ZERO, Seconds::max);
        if exceeds(critical_path_lb, period) {
            findings.push(Finding::PeriodBelowCriticalPathFloor {
                mode,
                floor: critical_path_lb,
                period,
            });
        }

        // Mode-level dominance: PEs shadowed by a no-worse witness leave
        // every genome domain of this mode (soundness: `dominance`).
        let shadowings = dominance::mode_shadowings(system, mode, &candidates);

        let mut load_floor = Watts::ZERO;
        let mut dvs_floor = Watts::ZERO;
        for task in graph.task_ids() {
            let i = task.index();
            let ty = graph.task(task).task_type();
            let effective = graph.effective_deadline(task);

            if graph.task(task).deadline().is_some_and(|d| d > period) {
                findings.push(Finding::DeadlineBeyondPeriod { mode, task });
            }

            // A task whose own deadline (strictly tighter than the
            // period) sits below its finish floor is a proof of
            // infeasibility in itself; period-level floors are reported
            // once per mode above.
            if graph.task(task).deadline().is_some()
                && effective < period
                && exceeds(floors.finish_lb[i], effective)
            {
                findings.push(Finding::DeadlineBelowCriticalPathFloor {
                    mode,
                    task,
                    floor: floors.finish_lb[i],
                    deadline: effective,
                });
            }

            // Prune `(task, PE)` pairs that provably violate the task's
            // effective deadline or — through the cheapest possible
            // downstream chain — the period. If *every* candidate is
            // dead the mode already carries an Error finding (the floor
            // with the fastest implementation is itself too late), so
            // the full list is kept and synthesis fails fast instead.
            let full = &candidates[i];
            let mut kept: Vec<PeId> = Vec::with_capacity(full.len());
            let mut pruned: Vec<Finding> = Vec::new();
            for &pe in full {
                let exec = tech
                    .impl_of(ty, pe)
                    .map_or(Seconds::ZERO, momsynth_model::Implementation::exec_time);
                let finish = floors.start_lb[i] + exec;
                if exceeds(finish, effective) {
                    pruned.push(Finding::GenePruned {
                        mode,
                        task,
                        pe,
                        floor: finish,
                        deadline: effective,
                    });
                } else if exceeds(finish + floors.tail_lb[i], period) {
                    pruned.push(Finding::GenePruned {
                        mode,
                        task,
                        pe,
                        floor: finish + floors.tail_lb[i],
                        deadline: period,
                    });
                } else {
                    kept.push(pe);
                }
            }
            total_candidates += full.len();
            if kept.is_empty() {
                capable_pes.push(full.clone());
            } else {
                pruned_candidates += pruned.len();
                findings.append(&mut pruned);
                // A shadowing's witness is never deadline-pruned (it only
                // fires in slack-safe modes, where no candidate is late),
                // so removing dominated PEs cannot empty the domain.
                for s in &shadowings {
                    if let Some(at) = kept.iter().position(|&pe| pe == s.dominated) {
                        kept.remove(at);
                        dominated_candidates += 1;
                        findings.push(Finding::GeneDominated {
                            mode,
                            task,
                            pe: s.dominated,
                            by: s.by,
                        });
                    }
                }
                capable_pes.push(kept);
            }

            // Cheapest capable implementation, over the *full* candidate
            // list: the energy floor must hold for any mapping, not only
            // unpruned ones. `load_floor` prices nominal voltage;
            // `dvs_floor` additionally grants each candidate its largest
            // provably reachable supply drop — limited both by the rail's
            // lowest level and by the slack window `allowed` that any
            // evaluated schedule leaves the task (the PV-DVS scaler never
            // stretches past deadlines or the period).
            let allowed = (effective - floors.start_lb[i])
                .min(period - floors.start_lb[i] - floors.tail_lb[i]);
            let mut nominal_min: Option<Joules> = None;
            let mut scaled_min: Option<Joules> = None;
            for &pe in full {
                let Some(imp) = tech.impl_of(ty, pe) else { continue };
                let nominal = imp.energy();
                let scaled = nominal * dvs_energy_floor(arch.pe(pe), imp.exec_time(), allowed);
                let keep_min = |slot: &mut Option<Joules>, candidate: Joules| {
                    let better = slot.is_none_or(|best| candidate.value() < best.value());
                    if better {
                        *slot = Some(candidate);
                    }
                };
                keep_min(&mut nominal_min, nominal);
                keep_min(&mut scaled_min, scaled);
            }
            if period > Seconds::ZERO {
                if let Some(energy) = nominal_min {
                    load_floor += energy / period;
                }
                if let Some(energy) = scaled_min {
                    dvs_floor += energy / period;
                }
            }
        }

        let power_lb = dvs_floor + comm_floor;
        power_lower_bound += power_lb * m.probability();
        mode_bounds.push(ModeBounds {
            mode,
            name: m.name().to_owned(),
            critical_path_lb,
            period,
            power_lb,
            load_floor,
            dvs_floor,
            comm_floor,
        });
    }

    // Area floors: a used task type whose only capable PE is hardware PE
    // `h` forces its core onto `h`. Cores are shared per type; on a
    // reconfigurable PE they can be swapped between modes, so the floor
    // is the per-mode maximum, otherwise the union over all modes.
    let mut area_bounds = Vec::new();
    for pe in arch.hardware_pes() {
        let info = arch.pe(pe);
        let forced = |ty: TaskTypeId| {
            let mut caps = tech.pes_supporting(ty);
            caps.next() == Some(pe) && caps.next().is_none()
        };
        let mode_floor = |graph: &TaskGraph| -> Cells {
            graph
                .used_types()
                .into_iter()
                .filter(|&ty| forced(ty))
                .filter_map(|ty| tech.impl_of(ty, pe))
                .map(momsynth_model::Implementation::area)
                .sum()
        };
        let floor = if info.kind().is_reconfigurable() {
            omsm.modes().map(|(_, m)| mode_floor(m.graph())).max().unwrap_or(Cells::ZERO)
        } else {
            let mut types: Vec<TaskTypeId> = omsm
                .modes()
                .flat_map(|(_, m)| m.graph().used_types())
                .filter(|&ty| forced(ty))
                .collect();
            types.sort_unstable();
            types.dedup();
            types
                .into_iter()
                .filter_map(|ty| tech.impl_of(ty, pe))
                .map(momsynth_model::Implementation::area)
                .sum()
        };
        let capacity = info.area().unwrap_or(Cells::ZERO);
        if floor > capacity {
            findings.push(Finding::HardwareAreaFloorExceedsCapacity { pe, floor, capacity });
        }
        if !tech.type_ids().any(|ty| tech.impl_of(ty, pe).is_some()) {
            findings.push(Finding::UnusableHardwarePe { pe });
        }
        area_bounds.push(AreaBound { pe, name: info.name().to_owned(), floor, capacity });
    }

    for (pe, info) in arch.pes() {
        if info.dvs().is_some_and(|cap| cap.levels().len() < 2) {
            findings.push(Finding::SingleLevelDvsRail { pe });
        }
    }

    // Transition-time floors: loading even the smallest loadable core of
    // a reconfigurable PE takes `reconfig_time_per_cell · min area`; a
    // `t_T^max` below that dooms any mapping that reconfigures the PE at
    // this transition (a warning — mappings may simply avoid it).
    for pe in arch.hardware_pes() {
        let info = arch.pe(pe);
        if !info.kind().is_reconfigurable() || info.reconfig_time_per_cell() <= Seconds::ZERO {
            continue;
        }
        let floor = tech
            .type_ids()
            .filter_map(|ty| tech.impl_of(ty, pe))
            .filter(|imp| imp.area() > Cells::ZERO)
            .map(|imp| info.reconfig_time_per_cell() * imp.area().value() as f64)
            .min_by(|a, b| a.value().total_cmp(&b.value()));
        let Some(floor) = floor else { continue };
        for (transition, t) in omsm.transitions() {
            if t.max_time() < floor {
                findings.push(Finding::TransitionTimeBelowReconfigFloor { transition, pe, floor });
            }
        }
    }

    let domain_reduction = DomainReduction {
        total_candidates,
        pruned_by_deadline: pruned_candidates,
        pruned_by_dominance: dominated_candidates,
    };
    Analysis {
        findings,
        mode_bounds,
        area_bounds,
        power_lower_bound,
        capable_pes,
        domain_reduction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_gen::automotive::automotive_ecu;
    use momsynth_gen::smartphone::smartphone;
    use momsynth_model::ids::ModeId;
    use momsynth_model::units::Volts;
    use momsynth_model::{
        ArchitectureBuilder, Cl, DvsCapability, Implementation, OmsmBuilder, Pe, PeKind,
        TaskGraphBuilder, TechLibraryBuilder,
    };

    /// One CPU + one ASIC on a bus; type A runs on both (0.9 s / 0.01 s),
    /// type B on the CPU only. One mode, period 1 s, task `a` then `b`.
    fn cpu_asic_system(deadline_a: Option<Seconds>) -> System {
        let mut tech = TechLibraryBuilder::new();
        let ta = tech.add_type("A");
        let tb = tech.add_type("B");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(0.1)));
        let asic = arch.add_pe(Pe::hardware(
            "asic",
            PeKind::Asic,
            Cells::new(600),
            Watts::from_milli(0.05),
        ));
        arch.add_cl(Cl::bus(
            "bus",
            vec![cpu, asic],
            Seconds::from_micros(1.0),
            Watts::from_milli(1.0),
            Watts::from_milli(0.01),
        ))
        .unwrap();
        tech.set_impl(ta, cpu, Implementation::software(Seconds::new(0.9), Watts::new(0.5)));
        tech.set_impl(
            ta,
            asic,
            Implementation::hardware(Seconds::new(0.01), Watts::new(0.005), Cells::new(240)),
        );
        tech.set_impl(tb, cpu, Implementation::software(Seconds::new(0.05), Watts::new(0.7)));
        let mut g = TaskGraphBuilder::new("m", Seconds::new(1.0));
        let a = match deadline_a {
            Some(d) => g.add_task_with_deadline("a", ta, d),
            None => g.add_task("a", ta),
        };
        let b = g.add_task("b", tb);
        g.add_comm(a, b, 8.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        System::new("cpu-asic", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    fn codes(analysis: &Analysis) -> Vec<&'static str> {
        analysis.findings().iter().map(Finding::code).collect()
    }

    /// Descends a serialized [`System`] tree by field names / array
    /// indices, for editing one field of a built specification.
    fn path_mut<'a>(mut v: &'a mut serde_json::Value, path: &[&str]) -> &'a mut serde_json::Value {
        for seg in path {
            v = match v {
                serde_json::Value::Array(items) => &mut items[seg.parse::<usize>().unwrap()],
                serde_json::Value::Object(fields) => {
                    &mut fields.iter_mut().find(|(k, _)| k == seg).unwrap().1
                }
                other => panic!("cannot descend into {} at `{seg}`", other.kind()),
            };
        }
        v
    }

    /// Two GPPs on one bus, no DVS. `spare` is capable of both types but
    /// strictly more energetic and no cheaper in static power, so in the
    /// (slack-safe) single mode it is shadowed by `main`.
    fn redundant_gpp_system(period: f64) -> System {
        let mut tech = TechLibraryBuilder::new();
        let ta = tech.add_type("A");
        let tb = tech.add_type("B");
        let mut arch = ArchitectureBuilder::new();
        let main = arch.add_pe(Pe::software("main", PeKind::Gpp, Watts::from_milli(0.1)));
        let spare = arch.add_pe(Pe::software("spare", PeKind::Gpp, Watts::from_milli(0.2)));
        arch.add_cl(Cl::bus(
            "bus",
            vec![main, spare],
            Seconds::from_micros(1.0),
            Watts::from_milli(1.0),
            Watts::from_milli(0.01),
        ))
        .unwrap();
        tech.set_impl(ta, main, Implementation::software(Seconds::new(0.1), Watts::new(0.2)));
        tech.set_impl(ta, spare, Implementation::software(Seconds::new(0.1), Watts::new(0.3)));
        tech.set_impl(tb, main, Implementation::software(Seconds::new(0.05), Watts::new(0.1)));
        tech.set_impl(tb, spare, Implementation::software(Seconds::new(0.05), Watts::new(0.2)));
        let mut g = TaskGraphBuilder::new("m", Seconds::new(period));
        let a = g.add_task("a", ta);
        let b = g.add_task("b", tb);
        g.add_comm(a, b, 4.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        System::new("redundant-gpp", omsm.build().unwrap(), arch.build().unwrap(), tech.build())
            .unwrap()
    }

    #[test]
    fn dominated_gpp_is_removed_from_every_locus() {
        let system = redundant_gpp_system(1.0);
        let analysis = analyze_system(&system);
        assert!(!analysis.has_errors(), "{analysis}");
        // `spare` leaves both loci; `main` survives.
        assert_eq!(analysis.capable_pes()[0], vec![PeId::new(0)]);
        assert_eq!(analysis.capable_pes()[1], vec![PeId::new(0)]);
        assert!((analysis.pruned_domain_ratio() - 0.5).abs() < 1e-12, "{analysis}");
        let reduction = analysis.domain_reduction();
        assert_eq!(reduction.total_candidates, 4);
        assert_eq!(reduction.pruned_by_deadline, 0);
        assert_eq!(reduction.pruned_by_dominance, 2);
        assert_eq!(codes(&analysis).iter().filter(|&&c| c == "gene-dominated").count(), 2);
    }

    #[test]
    fn dominance_requires_slack_safety() {
        // Worst case serialised: 0.1 + 0.05 + a 4 µs transfer, so
        // W ≈ 0.150004 s. A period of exactly 0.15 s admits the
        // critical path (0.15 s, communication-free floor) but sits
        // below W: not every assignment is provably on time, so
        // dominance must stand down.
        let system = redundant_gpp_system(0.15);
        let analysis = analyze_system(&system);
        assert!(!analysis.has_errors(), "{analysis}");
        assert_eq!(analysis.domain_reduction().pruned_by_dominance, 0, "{analysis}");
        assert_eq!(analysis.capable_pes()[0].len(), 2);
    }

    #[test]
    fn dominance_stands_down_under_dvs() {
        // Same architecture, but the spare gains a DVS rail: voltage
        // scaling redistributes slack globally, so shadowing is unsound
        // and must not fire.
        let system = redundant_gpp_system(1.0);
        let mut v = serde_json::to_value(&system);
        *path_mut(&mut v, &["arch", "pes", "1", "dvs"]) = serde_json::json!({
            "v_max": 3.3, "v_threshold": 0.8, "levels": [1.65, 3.3],
        });
        let with_dvs: System = serde_json::from_value(&v).unwrap();
        let analysis = analyze_system(&with_dvs);
        assert_eq!(analysis.domain_reduction().pruned_by_dominance, 0, "{analysis}");
        assert_eq!(analysis.capable_pes()[0].len(), 2);
    }

    #[test]
    fn anchored_witness_justifies_higher_static_power() {
        // Make the *cheap-energy* PE statically hungrier, so the plain
        // static test fails — but anchor it with a task only it can run,
        // and the shadowing goes through again.
        let system = redundant_gpp_system(1.0);
        let mut v = serde_json::to_value(&system);
        *path_mut(&mut v, &["arch", "pes", "0", "static_power"]) = serde_json::json!(0.5e-3);
        let expensive_main: System = serde_json::from_value(&v).unwrap();
        let analysis = analyze_system(&expensive_main);
        assert_eq!(analysis.domain_reduction().pruned_by_dominance, 0, "{analysis}");

        // Strip type B's spare implementation: task `b` anchors `main`.
        let mut v = serde_json::to_value(&system);
        *path_mut(&mut v, &["arch", "pes", "0", "static_power"]) = serde_json::json!(0.5e-3);
        let impls = path_mut(&mut v, &["tech", "impls", "1"]);
        let serde_json::Value::Array(rows) = impls else { panic!("impls not an array") };
        rows.retain(|row| row[0] == serde_json::json!(0));
        let anchored: System = serde_json::from_value(&v).unwrap();
        let analysis = analyze_system(&anchored);
        assert!(!analysis.has_errors(), "{analysis}");
        assert_eq!(analysis.domain_reduction().pruned_by_dominance, 1, "{analysis}");
        assert_eq!(analysis.capable_pes()[0], vec![PeId::new(0)]);
    }

    #[test]
    fn mode_bounds_report_the_floor_breakdown() {
        let system = redundant_gpp_system(1.0);
        let analysis = analyze_system(&system);
        let b = &analysis.mode_bounds()[0];
        // No DVS, no provably-remote comm: load = dvs floor, comm = 0.
        let expected = (0.2 * 0.1 + 0.1 * 0.05) / 1.0;
        assert!((b.load_floor.value() - expected).abs() < 1e-12);
        assert_eq!(b.load_floor, b.dvs_floor);
        assert_eq!(b.comm_floor, Watts::ZERO);
        assert_eq!(b.power_lb, b.dvs_floor);
        let json = analysis.to_json();
        assert!(json["modes"][0]["load_floor_mw"].as_f64().unwrap() > 0.0);
        assert_eq!(json["modes"][0]["comm_floor_mw"], serde_json::json!(0.0));
        assert_eq!(json["domain_reduction"]["pruned_by_dominance"], serde_json::json!(2));
    }

    #[test]
    fn provably_remote_comm_prices_link_floors() {
        // Task `a` only on the CPU, `b` only on the ASIC: the transfer is
        // remote under every mapping, so the bus prices a time floor on
        // the critical path and an energy floor on the mode power.
        let mut tech = TechLibraryBuilder::new();
        let ta = tech.add_type("A");
        let tb = tech.add_type("B");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::from_milli(0.1)));
        let asic = arch.add_pe(Pe::hardware(
            "asic",
            PeKind::Asic,
            Cells::new(600),
            Watts::from_milli(0.05),
        ));
        arch.add_cl(Cl::bus(
            "bus",
            vec![cpu, asic],
            Seconds::from_millis(1.0),
            Watts::new(2.0),
            Watts::from_milli(0.01),
        ))
        .unwrap();
        tech.set_impl(ta, cpu, Implementation::software(Seconds::new(0.1), Watts::new(0.5)));
        tech.set_impl(
            tb,
            asic,
            Implementation::hardware(Seconds::new(0.01), Watts::new(0.005), Cells::new(240)),
        );
        let mut g = TaskGraphBuilder::new("m", Seconds::new(1.0));
        let a = g.add_task("a", ta);
        let b = g.add_task("b", tb);
        g.add_comm(a, b, 8.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let system =
            System::new("remote", omsm.build().unwrap(), arch.build().unwrap(), tech.build())
                .unwrap();
        let analysis = analyze_system(&system);
        assert!(!analysis.has_errors(), "{analysis}");
        let bounds = &analysis.mode_bounds()[0];
        // Transfer: 8 units × 1 ms = 8 ms on the path, 2 W × 8 ms = 16 mJ.
        assert!((bounds.critical_path_lb.value() - (0.1 + 0.008 + 0.01)).abs() < 1e-12);
        assert!((bounds.comm_floor.value() - 2.0 * 0.008).abs() < 1e-12);
        let exec = 0.5 * 0.1 + 0.005 * 0.01;
        assert!((bounds.power_lb.value() - (exec + 0.016)).abs() < 1e-12);
    }

    #[test]
    fn smartphone_and_automotive_are_clean_of_errors() {
        for system in [smartphone(), automotive_ecu()] {
            let analysis = analyze_system(&system);
            assert!(!analysis.has_errors(), "{}: {analysis}", system.name());
            assert!(analysis.power_lower_bound() > Watts::ZERO);
            assert_eq!(analysis.capable_pes().len(), system.omsm().total_task_count());
            for (locus, pes) in analysis.capable_pes().iter().enumerate() {
                assert!(!pes.is_empty(), "locus {locus} has no capable PE");
            }
            assert_eq!(analysis.mode_bounds().len(), system.omsm().mode_count());
            for b in analysis.mode_bounds() {
                assert!(b.critical_path_lb > Seconds::ZERO);
                assert!(b.critical_path_lb <= b.period, "mode {}", b.name);
            }
        }
    }

    #[test]
    fn capable_pes_follow_genome_locus_order() {
        let system = smartphone();
        let analysis = analyze_system(&system);
        for (locus, id) in system.global_tasks().enumerate() {
            let full = system.candidate_pes(id);
            for pe in &analysis.capable_pes()[locus] {
                assert!(full.contains(pe), "locus {locus}: {pe} not a library candidate");
            }
        }
    }

    #[test]
    fn impossible_deadline_is_a_provable_error() {
        let system = cpu_asic_system(Some(Seconds::new(1e-6)));
        let analysis = analyze_system(&system);
        assert!(analysis.has_errors());
        assert!(codes(&analysis).contains(&"deadline-below-critical-path"), "{analysis}");
        // All candidates of task `a` are dead, so the full list is kept
        // for the fail-fast path rather than an empty domain.
        assert_eq!(analysis.capable_pes()[0].len(), 2);
    }

    #[test]
    fn exactly_tight_deadline_is_not_rejected() {
        // Deadline exactly equal to the fastest finish floor: feasible.
        let system = cpu_asic_system(Some(Seconds::new(0.01)));
        let analysis = analyze_system(&system);
        assert!(!analysis.has_errors(), "{analysis}");
        // The slow CPU candidate (0.9 s) is provably late and pruned.
        assert_eq!(analysis.capable_pes()[0], vec![PeId::new(1)]);
    }

    #[test]
    fn provably_late_candidate_is_pruned_without_error() {
        let system = cpu_asic_system(Some(Seconds::new(0.5)));
        let analysis = analyze_system(&system);
        assert!(!analysis.has_errors(), "{analysis}");
        assert!(codes(&analysis).contains(&"gene-pruned"));
        assert_eq!(analysis.capable_pes()[0], vec![PeId::new(1)]);
        // 1 of 3 (task,PE) pairs pruned.
        assert!((analysis.pruned_domain_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(analysis.count(Severity::Info), 1);
    }

    #[test]
    fn unconstrained_system_prunes_nothing() {
        let system = cpu_asic_system(None);
        let analysis = analyze_system(&system);
        assert!(analysis.is_clean(), "{analysis}");
        assert_eq!(analysis.pruned_domain_ratio(), 0.0);
        assert_eq!(analysis.capable_pes()[0], vec![PeId::new(0), PeId::new(1)]);
    }

    #[test]
    fn power_lower_bound_prices_cheapest_implementation() {
        let system = cpu_asic_system(None);
        let analysis = analyze_system(&system);
        // Task a: min energy = asic 0.005 W × 0.01 s; task b: cpu only,
        // 0.7 W × 0.05 s. No DVS anywhere, period 1 s, probability 1.
        let expected = (0.005 * 0.01 + 0.7 * 0.05) / 1.0;
        assert!((analysis.power_lower_bound().value() - expected).abs() < 1e-12);
    }

    #[test]
    fn dvs_scales_the_energy_floor() {
        let mut tech = TechLibraryBuilder::new();
        let ta = tech.add_type("A");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO).with_dvs(
            DvsCapability::new(
                Volts::new(3.3),
                Volts::new(0.8),
                vec![Volts::new(1.65), Volts::new(3.3)],
            ),
        ));
        tech.set_impl(ta, cpu, Implementation::software(Seconds::new(0.1), Watts::new(0.4)));
        let mut g = TaskGraphBuilder::new("m", Seconds::new(1.0));
        g.add_task("t", ta);
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let system =
            System::new("dvs", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap();
        let analysis = analyze_system(&system);
        // Energy floor: 0.4 W × 0.1 s × (1.65/3.3)² = 0.04 × 0.25.
        assert!((analysis.power_lower_bound().value() - 0.04 * 0.25).abs() < 1e-12);
        assert!(!analysis.has_errors());
    }

    #[test]
    fn mutated_period_below_floor_is_an_error() {
        let system = cpu_asic_system(None);
        let mut v = serde_json::to_value(&system);
        *path_mut(&mut v, &["omsm", "modes", "0", "graph", "period"]) = serde_json::json!(1e-6);
        let broken: System = serde_json::from_value(&v).unwrap();
        let analysis = analyze_system(&broken);
        assert!(analysis.has_errors());
        assert!(codes(&analysis).contains(&"period-below-critical-path"), "{analysis}");
    }

    #[test]
    fn mutated_smartphone_deadline_below_floor_is_an_error() {
        let system = smartphone();
        let mut v = serde_json::to_value(&system);
        // Give the first task of the first mode a deadline no mapping can
        // meet; the builders never see it, the analyzer must.
        *path_mut(&mut v, &["omsm", "modes", "0", "graph", "tasks", "0", "deadline"]) =
            serde_json::json!(1e-9);
        let broken: System = serde_json::from_value(&v).unwrap();
        let analysis = analyze_system(&broken);
        assert!(analysis.has_errors());
        assert!(codes(&analysis).contains(&"deadline-below-critical-path"), "{analysis}");
        let finding = analysis
            .findings()
            .iter()
            .find(|f| f.code() == "deadline-below-critical-path")
            .unwrap();
        assert_eq!(finding.severity(), Severity::Error);
    }

    #[test]
    fn forced_types_bound_hardware_area() {
        // Type H is implementable only on the ASIC and its core (700)
        // exceeds the capacity (600): a provable area violation.
        let mut tech = TechLibraryBuilder::new();
        let th = tech.add_type("H");
        let mut arch = ArchitectureBuilder::new();
        let asic = arch.add_pe(Pe::hardware(
            "asic",
            PeKind::Asic,
            Cells::new(600),
            Watts::from_milli(0.05),
        ));
        tech.set_impl(
            th,
            asic,
            Implementation::hardware(Seconds::new(0.01), Watts::new(0.01), Cells::new(700)),
        );
        let mut g = TaskGraphBuilder::new("m", Seconds::new(1.0));
        g.add_task("h", th);
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        let system =
            System::new("area", omsm.build().unwrap(), arch.build().unwrap(), tech.build())
                .unwrap();
        let analysis = analyze_system(&system);
        assert!(analysis.has_errors());
        assert!(codes(&analysis).contains(&"area-floor-exceeds-capacity"), "{analysis}");
        assert_eq!(analysis.area_bounds().len(), 1);
        assert_eq!(analysis.area_bounds()[0].floor, Cells::new(700));
    }

    #[test]
    fn reconfigurable_area_floor_is_per_mode_maximum() {
        // Two modes each force one 400-cell type onto a 600-cell FPGA.
        // Statically that would need 800 cells, but the FPGA swaps cores
        // between modes: the floor is max(400, 400), within capacity.
        let mut tech = TechLibraryBuilder::new();
        let t1 = tech.add_type("F1");
        let t2 = tech.add_type("F2");
        let mut arch = ArchitectureBuilder::new();
        let fpga = arch.add_pe(Pe::hardware(
            "fpga",
            PeKind::Fpga,
            Cells::new(600),
            Watts::from_milli(0.05),
        ));
        for ty in [t1, t2] {
            tech.set_impl(
                ty,
                fpga,
                Implementation::hardware(Seconds::new(0.01), Watts::new(0.01), Cells::new(400)),
            );
        }
        let graph = |name: &str, ty| {
            let mut g = TaskGraphBuilder::new(name, Seconds::new(1.0));
            g.add_task("t", ty);
            g.build().unwrap()
        };
        let mut omsm = OmsmBuilder::new();
        let m0 = omsm.add_mode("m0", 0.5, graph("m0", t1));
        let m1 = omsm.add_mode("m1", 0.5, graph("m1", t2));
        omsm.add_transition(m0, m1, Seconds::new(0.5)).unwrap();
        omsm.add_transition(m1, m0, Seconds::new(0.5)).unwrap();
        let system =
            System::new("fpga", omsm.build().unwrap(), arch.build().unwrap(), tech.build())
                .unwrap();
        let analysis = analyze_system(&system);
        assert!(!analysis.has_errors(), "{analysis}");
        assert_eq!(analysis.area_bounds()[0].floor, Cells::new(400));
    }

    #[test]
    fn tight_transition_time_is_flagged_against_reconfig_floor() {
        // Reconfiguring the FPGA's smallest core takes 400 × 1 ms = 0.4 s,
        // but the transitions allow only 1 ms.
        let mut tech = TechLibraryBuilder::new();
        let tf = tech.add_type("F");
        let mut arch = ArchitectureBuilder::new();
        let fpga = arch.add_pe(
            Pe::hardware("fpga", PeKind::Fpga, Cells::new(600), Watts::from_milli(0.05))
                .with_reconfig_time_per_cell(Seconds::from_millis(1.0)),
        );
        tech.set_impl(
            tf,
            fpga,
            Implementation::hardware(Seconds::new(0.01), Watts::new(0.01), Cells::new(400)),
        );
        let graph = |name: &str| {
            let mut g = TaskGraphBuilder::new(name, Seconds::new(1.0));
            g.add_task("t", tf);
            g.build().unwrap()
        };
        let mut omsm = OmsmBuilder::new();
        let m0 = omsm.add_mode("m0", 0.5, graph("m0"));
        let m1 = omsm.add_mode("m1", 0.5, graph("m1"));
        omsm.add_transition(m0, m1, Seconds::from_millis(1.0)).unwrap();
        omsm.add_transition(m1, m0, Seconds::from_millis(1.0)).unwrap();
        let system =
            System::new("recfg", omsm.build().unwrap(), arch.build().unwrap(), tech.build())
                .unwrap();
        let analysis = analyze_system(&system);
        assert!(!analysis.has_errors(), "{analysis}");
        let count = |code| codes(&analysis).iter().filter(|&&c| c == code).count();
        assert_eq!(count("transition-below-reconfig-floor"), 2);
        // Each single-task mode carries half the probability mass.
        assert_eq!(count("probable-stub-mode"), 2);
    }

    #[test]
    fn reachability_warnings_for_disconnected_omsm() {
        let system = cpu_asic_system(None);
        let mut v = serde_json::to_value(&system);
        // Clone the single mode into a second, unconnected one.
        let modes = path_mut(&mut v, &["omsm", "modes"]);
        let serde_json::Value::Array(items) = modes else { panic!("modes is not an array") };
        let mut second = items[0].clone();
        *path_mut(&mut second, &["probability"]) = serde_json::json!(0.0);
        items.push(second);
        let disconnected: System = serde_json::from_value(&v).unwrap();
        let analysis = analyze_system(&disconnected);
        assert!(!analysis.has_errors(), "{analysis}");
        // Both modes: unreachable (no incoming) and trapping (no outgoing).
        assert_eq!(codes(&analysis).iter().filter(|&&c| c == "mode-unreachable").count(), 2);
        assert_eq!(codes(&analysis).iter().filter(|&&c| c == "mode-trapping").count(), 2);
    }

    #[test]
    fn severity_order_and_codes_are_stable() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        let f = Finding::PeriodBelowCriticalPathFloor {
            mode: ModeId::new(0),
            floor: Seconds::new(1.0),
            period: Seconds::new(0.5),
        };
        assert_eq!(f.code(), "period-below-critical-path");
        assert_eq!(f.severity(), Severity::Error);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn report_renders_display_and_json() {
        let system = cpu_asic_system(Some(Seconds::new(0.5)));
        let analysis = analyze_system(&system);
        let text = format!("{analysis}");
        assert!(text.contains("p̄_LB"), "{text}");
        assert!(text.contains("gene-pruned"), "{text}");
        let json = analysis.to_json();
        assert_eq!(json["clean"], serde_json::json!(false));
        assert_eq!(json["errors"], serde_json::json!(0));
        assert_eq!(json["infos"], serde_json::json!(1));
        assert!(json["power_lower_bound_mw"].as_f64().unwrap() > 0.0);
        assert_eq!(json["findings"][0]["code"], serde_json::json!("gene-pruned"));
        assert_eq!(json["modes"].as_array().unwrap().len(), 1);
    }

    #[test]
    fn exceeds_uses_relative_epsilon() {
        assert!(!exceeds(Seconds::new(1.0), Seconds::new(1.0)));
        assert!(!exceeds(Seconds::new(1.0 + 1e-13), Seconds::new(1.0)));
        assert!(exceeds(Seconds::new(1.0 + 1e-6), Seconds::new(1.0)));
        assert!(exceeds(Seconds::new(1e-9), Seconds::ZERO));
    }
}
