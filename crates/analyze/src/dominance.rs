//! Mode-level PE dominance ("shadowing") analysis.
//!
//! A PE `b` is *shadowed* by a PE `a` in mode `m` when every assignment
//! that maps any of `m`'s tasks onto `b` can be rewritten — by moving all
//! of those tasks to `a` — into an assignment whose fitness is no worse.
//! The rewritten assignment exists inside the reduced search space, so
//! deleting `b` from every locus of `m` preserves at least one optimum.
//!
//! The soundness argument (DESIGN.md §16) needs the move to be harmless
//! along *every* fitness axis, which this implementation guarantees with
//! deliberately conservative preconditions:
//!
//! - **Timing.** The mode must be *slack-safe*: the serialised worst case
//!   `W_m` — every task at its slowest capable implementation plus every
//!   communication remote on the slowest link — fits under the smallest
//!   effective deadline. A work-conserving list schedule never idles all
//!   resources while work remains, so any assignment's makespan is at
//!   most `W_m` and every timing penalty is exactly 1 before and after
//!   the move.
//! - **Energy.** For every task of the mode that could map to `b`, `a`
//!   must also be capable and no more energetic. Probabilities multiply
//!   both sides of a same-mode comparison, so the rule is mode-local: a
//!   task alive only in other modes never blocks `m`'s reduction.
//! - **Communication.** Only single-CL architectures qualify, so a moved
//!   communication either stays on the same bus (same energy) or becomes
//!   PE-local (free): the scheduler's link choice cannot back-fire.
//! - **Static power.** Emptying `b` in `m` stops charging `b`'s static
//!   power there; activating `a` is free when `a` is *anchored* (some
//!   task of `m` is only implementable on `a`, so `a` is always active)
//!   and otherwise needs `P_a^static ≤ P_b^static`.
//! - **Area / reconfiguration.** Both `a` and `b` must be software PEs,
//!   so the move touches no core area and no FPGA reconfiguration.
//! - **DVS.** Voltage scaling redistributes slack globally, so moving a
//!   task can raise *other* tasks' energies; shadowing is only attempted
//!   on architectures with no DVS-capable PE at all.
//!
//! Removals are found greedily in PE-id order against witnesses that are
//! still in the domain, so chains compose (`b → a`, later `a → c`) and
//! mutually-dominating twins never eliminate each other.

use momsynth_model::ids::{ModeId, PeId};
use momsynth_model::units::Seconds;
use momsynth_model::System;

use crate::exceeds;

/// One mode-level shadowing: `dominated` can be removed from every locus
/// of the mode because `by` is a no-worse host for all of its tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Shadowing {
    /// The PE removed from the mode's genome domains.
    pub(crate) dominated: PeId,
    /// The surviving witness PE.
    pub(crate) by: PeId,
}

/// Finds every PE shadowed in `mode`. `candidates` holds the *full*
/// technology-library candidate list of each task, in task order.
pub(crate) fn mode_shadowings(
    system: &System,
    mode: ModeId,
    candidates: &[Vec<PeId>],
) -> Vec<Shadowing> {
    let arch = system.arch();
    let tech = system.tech();

    // Global gates: no DVS anywhere (slack externalities) and at most one
    // CL (the scheduler's link choice is then energy-neutral).
    if arch.dvs_pes().next().is_some() || arch.cl_count() > 1 {
        return Vec::new();
    }

    let graph = system.omsm().mode(mode).graph();

    // Slack-safety: serialised worst case under the tightest deadline.
    let mut worst = Seconds::ZERO;
    let mut min_deadline = graph.period();
    for (task, c) in graph.task_ids().zip(candidates) {
        let ty = graph.task(task).task_type();
        let slowest = c
            .iter()
            .filter_map(|&pe| tech.impl_of(ty, pe))
            .map(momsynth_model::Implementation::exec_time)
            .fold(Seconds::ZERO, Seconds::max);
        worst += slowest;
        min_deadline = min_deadline.min(graph.effective_deadline(task));
    }
    for (_, comm) in graph.comms() {
        let slowest = arch
            .cls()
            .map(|(_, cl)| cl.transfer_time(comm.data_units()))
            .fold(Seconds::ZERO, Seconds::max);
        worst += slowest;
    }
    if exceeds(worst, min_deadline) {
        return Vec::new();
    }

    // A PE is anchored when some task of the mode can run nowhere else:
    // it is active under every assignment, so moving work onto it never
    // adds static power. Anchored PEs are also never removable (their
    // tasks have no witness), keeping shadowing chains well-founded.
    let anchored = |pe: PeId| candidates.iter().any(|c| c.len() == 1 && c[0] == pe);

    let energy = |ty, pe| tech.impl_of(ty, pe).map(momsynth_model::Implementation::energy);

    let mut removed: Vec<PeId> = Vec::new();
    let mut shadowings = Vec::new();
    for b in arch.software_pes() {
        if !candidates.iter().any(|c| c.contains(&b)) {
            continue;
        }
        let witness = arch.software_pes().find(|&a| {
            if a == b || removed.contains(&a) {
                return false;
            }
            let static_ok = arch.pe(a).static_power() <= arch.pe(b).static_power() || anchored(a);
            if !static_ok {
                return false;
            }
            graph.task_ids().zip(candidates).all(|(task, c)| {
                if !c.contains(&b) {
                    return true;
                }
                let ty = graph.task(task).task_type();
                match (energy(ty, a), energy(ty, b)) {
                    (Some(ea), Some(eb)) => c.contains(&a) && ea <= eb,
                    _ => false,
                }
            })
        });
        if let Some(by) = witness {
            removed.push(b);
            shadowings.push(Shadowing { dominated: b, by });
        }
    }
    shadowings
}
