//! VCD (Value Change Dump) export of schedules.
//!
//! Renders one mode's schedule as an IEEE-1364 VCD trace viewable in
//! GTKWave and other waveform viewers — the natural way for a hardware
//! designer to inspect a co-synthesis result. Each resource (software PE,
//! hardware core instance, link) contributes two signals:
//!
//! * `busy` — a 1-bit wire, high while the resource executes anything;
//! * `act` — an 8-bit vector carrying `activity id + 1` (task id for PE
//!   resources, communication id for links), `0` when idle.
//!
//! Timestamps use a 1 ns timescale.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use momsynth_model::units::Seconds;
use momsynth_model::System;

use crate::schedule::{ActivityId, ResourceKey, Schedule};

/// Identifier characters for VCD symbol allocation.
const SYMBOLS: &[u8] = b"!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~";

fn symbol(index: usize) -> String {
    // Multi-character symbols once the single characters run out.
    let mut i = index;
    let mut s = String::new();
    loop {
        s.push(SYMBOLS[i % SYMBOLS.len()] as char);
        i /= SYMBOLS.len();
        if i == 0 {
            break;
        }
        i -= 1;
    }
    s
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_whitespace() { '_' } else { c }).collect()
}

fn resource_name(system: &System, resource: &ResourceKey) -> String {
    match resource {
        ResourceKey::SwPe(pe) => sanitize(system.arch().pe(*pe).name()),
        ResourceKey::HwCore(pe, ty, instance) => format!(
            "{}_{}_{}",
            sanitize(system.arch().pe(*pe).name()),
            sanitize(system.tech().type_name(*ty)),
            instance
        ),
        ResourceKey::Link(cl) => sanitize(system.arch().cl(*cl).name()),
    }
}

fn to_nanos(t: Seconds) -> u64 {
    (t.value() * 1e9).round() as u64
}

/// Renders `schedule` as a VCD document.
///
/// # Panics
///
/// Panics if `schedule` does not belong to a mode of `system`.
pub fn schedule_to_vcd(system: &System, schedule: &Schedule) -> String {
    let graph = system.omsm().mode(schedule.mode()).graph();

    // Events per resource: (time_ns, activity id + 1 or 0 for idle).
    let mut events: BTreeMap<u64, Vec<(usize, u16)>> = BTreeMap::new();
    let mut resources: Vec<(ResourceKey, String)> = Vec::new();
    for (idx, (resource, acts)) in schedule.sequences().iter().enumerate() {
        resources.push((*resource, resource_name(system, resource)));
        for act in acts {
            let (start, finish, code) = match act {
                ActivityId::Task(t) => {
                    let e = schedule.task(*t);
                    (e.start, e.finish(), t.index() as u16 + 1)
                }
                ActivityId::Comm(c) => {
                    let e = schedule.comm(*c).expect("sequenced comm is remote");
                    (e.start, e.finish(), c.index() as u16 + 1)
                }
            };
            events.entry(to_nanos(start)).or_default().push((idx, code));
            events.entry(to_nanos(finish)).or_default().push((idx, 0));
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "$comment momsynth schedule of mode `{}` $end", graph.name());
    let _ = writeln!(out, "$timescale 1ns $end");
    let _ = writeln!(out, "$scope module {} $end", sanitize(graph.name()));
    for (idx, (_, name)) in resources.iter().enumerate() {
        let _ = writeln!(out, "$var wire 1 {} {}_busy $end", symbol(2 * idx), name);
        let _ = writeln!(out, "$var wire 8 {} {}_act $end", symbol(2 * idx + 1), name);
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");

    // Initial values: everything idle.
    let _ = writeln!(out, "#0");
    let _ = writeln!(out, "$dumpvars");
    for (idx, _) in resources.iter().enumerate() {
        let _ = writeln!(out, "0{}", symbol(2 * idx));
        let _ = writeln!(out, "b0 {}", symbol(2 * idx + 1));
    }
    let _ = writeln!(out, "$end");

    // A resource may end one activity and start the next at the same
    // instant; emit the start last so the resource stays busy.
    for (time, mut changes) in events {
        if time > 0 {
            let _ = writeln!(out, "#{time}");
        }
        changes.sort_by_key(|&(idx, code)| (idx, code != 0));
        // Keep only the final state per resource at this instant.
        let mut last: BTreeMap<usize, u16> = BTreeMap::new();
        for (idx, code) in changes {
            last.insert(idx, code);
        }
        for (idx, code) in last {
            let _ = writeln!(out, "{}{}", u8::from(code != 0), symbol(2 * idx));
            let _ = writeln!(out, "b{:b} {}", code, symbol(2 * idx + 1));
        }
    }
    // Close the trace at the hyper-period.
    let _ = writeln!(out, "#{}", to_nanos(graph.period()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{schedule_mode, SchedulerOptions};
    use crate::mapping::{CoreAllocation, SystemMapping};
    use momsynth_model::ids::{ModeId, PeId};
    use momsynth_model::units::{Cells, Watts};
    use momsynth_model::{
        ArchitectureBuilder, Cl, Implementation, OmsmBuilder, Pe, PeKind, TaskGraphBuilder,
        TechLibraryBuilder,
    };

    fn testbed() -> System {
        let mut tech = TechLibraryBuilder::new();
        let tx = tech.add_type("X");
        let mut arch = ArchitectureBuilder::new();
        let cpu = arch.add_pe(Pe::software("cpu", PeKind::Gpp, Watts::ZERO));
        let hw = arch.add_pe(Pe::hardware("hw", PeKind::Asic, Cells::new(200), Watts::ZERO));
        arch.add_cl(Cl::bus(
            "bus",
            vec![cpu, hw],
            Seconds::from_micros(10.0),
            Watts::ZERO,
            Watts::ZERO,
        ))
        .unwrap();
        tech.set_impl(
            tx,
            cpu,
            Implementation::software(Seconds::from_millis(10.0), Watts::from_milli(1.0)),
        );
        tech.set_impl(
            tx,
            hw,
            Implementation::hardware(
                Seconds::from_millis(1.0),
                Watts::from_micro(10.0),
                Cells::new(100),
            ),
        );
        let mut g = TaskGraphBuilder::new("vcd demo", Seconds::from_millis(50.0));
        let a = g.add_task("a", tx);
        let b = g.add_task("b", tx);
        let c = g.add_task("c", tx);
        g.add_comm(a, b, 100.0).unwrap();
        g.add_comm(b, c, 100.0).unwrap();
        let mut omsm = OmsmBuilder::new();
        omsm.add_mode("m", 1.0, g.build().unwrap());
        System::new("t", omsm.build().unwrap(), arch.build().unwrap(), tech.build()).unwrap()
    }

    fn vcd_for(mapping: &SystemMapping) -> (System, String) {
        let system = testbed();
        let alloc = CoreAllocation::minimal(&system, mapping);
        let schedule =
            schedule_mode(&system, ModeId::new(0), mapping, &alloc, SchedulerOptions::default())
                .unwrap();
        let vcd = schedule_to_vcd(&system, &schedule);
        (system, vcd)
    }

    #[test]
    fn vcd_has_well_formed_header_and_signals() {
        let mapping =
            SystemMapping::from_vecs(vec![vec![PeId::new(0), PeId::new(1), PeId::new(0)]]);
        let (_, vcd) = vcd_for(&mapping);
        assert!(vcd.contains("$timescale 1ns $end"));
        assert!(vcd.contains("$enddefinitions $end"));
        assert!(vcd.contains("$scope module vcd_demo $end"));
        // cpu, hw core, bus — two signals each.
        assert!(vcd.contains("cpu_busy"));
        assert!(vcd.contains("cpu_act"));
        assert!(vcd.contains("hw_X_0_busy"));
        assert!(vcd.contains("bus_busy"));
        assert!(vcd.contains("$dumpvars"));
    }

    #[test]
    fn timestamps_are_monotone() {
        let mapping =
            SystemMapping::from_vecs(vec![vec![PeId::new(0), PeId::new(1), PeId::new(0)]]);
        let (_, vcd) = vcd_for(&mapping);
        let mut last = -1i64;
        for line in vcd.lines() {
            if let Some(t) = line.strip_prefix('#') {
                let t: i64 = t.parse().expect("numeric timestamp");
                assert!(t >= last, "timestamp {t} after {last}");
                last = t;
            }
        }
        // The final timestamp is the 50 ms period in ns.
        assert_eq!(last, 50_000_000);
    }

    #[test]
    fn busy_intervals_match_schedule() {
        let mapping = SystemMapping::from_fn(&testbed(), |_| PeId::new(0));
        let (_, vcd) = vcd_for(&mapping);
        // One resource (cpu), three tasks back to back: the busy signal
        // drops exactly twice — the initial idle value and the final drop
        // at 30 ms — i.e. no idle gaps between the tasks.
        let drops = vcd.lines().filter(|l| *l == "0!").count();
        assert_eq!(drops, 2, "{vcd}");
        assert!(vcd.contains("#30000000"));
    }

    #[test]
    fn symbols_are_unique_for_many_resources() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..300 {
            assert!(seen.insert(symbol(i)), "duplicate symbol at {i}");
        }
    }
}
