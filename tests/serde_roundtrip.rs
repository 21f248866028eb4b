//! Serialisation round-trips across the public model and result types:
//! systems (all three sub-models), mappings, allocations, schedules and
//! power reports survive JSON, a synthesised solution's report is
//! pinned to the byte, and a loaded spec goes through the same builder
//! checks as one built in code.

use momsynth::generators::automotive::automotive_ecu;
use momsynth::generators::smartphone::smartphone;
use momsynth::generators::suite::{generate, mul, GeneratorParams};
use momsynth::model::ids::PeId;
use momsynth::model::System;
use momsynth::power::{power_report, ModeImplementation, PowerReport};
use momsynth::sched::{schedule_mode, CoreAllocation, Schedule, SchedulerOptions, SystemMapping};
use momsynth::synthesis::{SynthesisConfig, Synthesizer};

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    serde_json::from_str(&serde_json::to_string(value).expect("serialises")).expect("deserialises")
}

/// The benchmark's 32-mode system: 16–32 tasks per mode.
fn many_modes() -> System {
    let mut params = GeneratorParams::new("many-modes", 1);
    params.modes = 32;
    params.tasks_per_mode = (16, 32);
    params.type_pool = 20;
    params.software_pes = 2;
    params.hardware_pes = 3;
    params.cls = 2;
    generate(&params)
}

/// Every shipped system (mul1–12, the smartphone, the automotive ECU)
/// and the benchmark's 32-mode system load back equal, and a task graph
/// is written as its builder input, without the derived graph state.
#[test]
fn suite_systems_round_trip() {
    let systems = (1..=12).map(mul).chain([smartphone(), automotive_ecu(), many_modes()]);
    for system in systems {
        let json = serde_json::to_string(&system).expect("serialises");
        for key in ["succs", "preds", "topo"] {
            assert!(!json.contains(&format!("\"{key}\"")), "{}: `{key}` written", system.name());
        }
        let back: System = serde_json::from_str(&json).expect("deserialises");
        assert_eq!(back, system, "{}", system.name());
    }
}

#[test]
fn smartphone_round_trips() {
    let phone = smartphone();
    let back: System = roundtrip(&phone);
    assert_eq!(back, phone);
}

#[test]
fn implementation_artifacts_round_trip() {
    let system = mul(9);
    let mapping = SystemMapping::from_fn(&system, |_| PeId::new(0));
    let back: SystemMapping = roundtrip(&mapping);
    assert_eq!(back, mapping);

    let alloc = CoreAllocation::minimal(&system, &mapping);
    let back: CoreAllocation = roundtrip(&alloc);
    assert_eq!(back, alloc);

    let schedules: Vec<Schedule> = system
        .omsm()
        .mode_ids()
        .map(|m| schedule_mode(&system, m, &mapping, &alloc, SchedulerOptions::default()).unwrap())
        .collect();
    for s in &schedules {
        let back: Schedule = roundtrip(s);
        assert_eq!(&back, s);
    }

    let imps: Vec<ModeImplementation> = schedules.iter().map(ModeImplementation::nominal).collect();
    let report = power_report(&system, &imps);
    let back: PowerReport = roundtrip(&report);
    assert_eq!(back, report);
}

/// A 64-bit FNV-1a hash of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The JSON a synthesised solution is written as — mapping, allocation,
/// schedules, voltage schedules and power report — keeps its bytes: the
/// FNV-1a digest and length of three `fast_preset(0)` reports are
/// pinned, and the power report and voltage schedules round-trip.
#[test]
fn solution_reports_are_pinned_to_the_byte() {
    let cases = [
        ("smartphone", smartphone(), true, 0x8e01_924d_3e74_bcb5, 50_486),
        ("mul3", mul(3), false, 0x2e6d_651a_9ce2_93b3, 27_009),
        ("mul9", mul(9), true, 0x1598_fed6_614b_7159, 13_429),
    ];
    for (name, system, dvs, digest, len) in cases {
        let mut config = SynthesisConfig::fast_preset(0);
        if dvs {
            config = config.with_dvs();
        }
        let result = Synthesizer::new(&system, config).run().expect("schedulable system");
        let json = serde_json::to_string(&result.report(&system)).expect("serialises");
        assert_eq!((fnv1a(json.as_bytes()), json.len()), (digest, len), "{name}");
        assert_eq!(roundtrip(&result.best.power), result.best.power, "{name}");
        let voltages = &result.best.voltage_schedules;
        assert_eq!(&roundtrip(voltages), voltages, "{name}");
    }
}

#[test]
fn pretty_json_is_stable() {
    let system = mul(2);
    let a = serde_json::to_string_pretty(&system).unwrap();
    let b = serde_json::to_string_pretty(&roundtrip::<System>(&system)).unwrap();
    assert_eq!(a, b);
}

/// The smartphone spec with its GPP's DVS levels written as `levels`.
fn phone_with_gpp_levels(levels: &str) -> String {
    let json = serde_json::to_string(&smartphone()).expect("serialises");
    let listed = r#""levels":[1.2,1.8,2.4,3.3]"#;
    assert_eq!(json.matches(listed).count(), 1, "the GPP is the only DVS PE");
    json.replace(listed, &format!(r#""levels":{levels}"#))
}

#[test]
fn unsorted_dvs_levels_load_in_ascending_order() {
    // A spec may list levels in any order and repeat one; it loads as the
    // builder would have built it, so PV-DVS sees ascending levels.
    let back: System =
        serde_json::from_str(&phone_with_gpp_levels("[2.4,1.2,1.8,3.3,1.8]")).expect("loads");
    assert_eq!(back, smartphone());
}

#[test]
fn dvs_levels_below_the_nominal_voltage_fail_to_load() {
    let error = serde_json::from_str::<System>(&phone_with_gpp_levels("[1.2,1.8,2.4]"))
        .expect_err("the top level must be v_max");
    assert!(
        error.to_string().contains(
            "processing element `GPP` has invalid DVS capability: \
             the highest level must equal the nominal voltage"
        ),
        "{error}"
    );
}

/// The smartphone spec with its bus's endpoints written as `endpoints`.
fn phone_with_bus_endpoints(endpoints: &str) -> String {
    let json = serde_json::to_string(&smartphone()).expect("serialises");
    let listed = r#""endpoints":[0,1,2]"#;
    assert_eq!(json.matches(listed).count(), 1, "the bus is the only link");
    json.replace(listed, &format!(r#""endpoints":{endpoints}"#))
}

#[test]
fn malformed_links_fail_to_load() {
    for (endpoints, reason) in [
        ("[0,1,7]", "reference to unknown processing element PE7"),
        ("[1,1]", "communication link `BUS` connects fewer than two PEs"),
    ] {
        let error = serde_json::from_str::<System>(&phone_with_bus_endpoints(endpoints))
            .expect_err("the builder refuses the link");
        assert!(error.to_string().contains(reason), "{endpoints}: {error}");
    }
}
