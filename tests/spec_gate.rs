//! The load gate: a spec read from JSON is rebuilt through the model
//! builders and `System::new`, so a structurally broken spec fails to
//! load with the builder's typed reason instead of reaching the analysis
//! or the synthesiser, and the graph state the builders derive is never
//! read from a file.

use serde_json::{json, Value};

use momsynth::generators::automotive::automotive_ecu;
use momsynth::generators::smartphone::smartphone;
use momsynth::generators::suite::mul;
use momsynth::model::ids::{ClId, CommId, GlobalTaskId, ModeId, PeId, TaskId, TaskTypeId};
use momsynth::model::{ModelError, System};

/// Descends a JSON tree by field names and array indices.
fn at<'a>(mut v: &'a mut Value, path: &[&str]) -> &'a mut Value {
    for seg in path {
        v = match v {
            Value::Array(items) => &mut items[seg.parse::<usize>().expect("array index")],
            Value::Object(fields) => {
                &mut fields.iter_mut().find(|(k, _)| k == seg).expect("field present").1
            }
            other => panic!("cannot descend into {} at `{seg}`", other.kind()),
        };
    }
    v
}

/// The items of a JSON array.
fn items(v: &mut Value) -> &mut Vec<Value> {
    let Value::Array(items) = v else { panic!("expected an array") };
    items
}

/// Asserts that `system`'s JSON, edited by `edit`, fails to load with
/// exactly `expected` as its reason.
fn assert_refused(system: &System, edit: impl FnOnce(&mut Value), expected: ModelError) {
    let mut v = serde_json::to_value(system);
    edit(&mut v);
    let text = serde_json::to_string(&v).expect("serialises");
    let error = serde_json::from_str::<System>(&text).expect_err("the gate must refuse the spec");
    assert_eq!(error.to_string(), expected.to_string());
}

/// The type of mode 0's first task.
fn first_task_type(system: &System) -> TaskTypeId {
    system.task_type_of(GlobalTaskId::new(ModeId::new(0), TaskId::new(0)))
}

#[test]
fn structurally_broken_specs_fail_with_the_builders_reason() {
    let system = mul(3);
    let tech = system.tech();
    let graph = system.omsm().mode(ModeId::new(0)).graph().name().to_owned();
    let (ty0, used) = (TaskTypeId::new(0), first_task_type(&system));
    let pe0 = tech.pes_supporting(ty0).next().expect("type 0 is implemented");
    let (hw_type, hw_slot, hw_pe) = tech
        .type_ids()
        .find_map(|ty| {
            let mut row = tech.pes_supporting(ty).enumerate();
            row.find(|&(_, pe)| system.arch().pe(pe).kind().is_hardware())
                .map(|(i, pe)| (ty, i, pe))
        })
        .expect("mul3 has a hardware implementation");
    let [used_ix, hw_ix, slot_ix] = [used.index(), hw_type.index(), hw_slot].map(|i| i.to_string());
    let invalid = |task_type, pe, reason: &str| ModelError::InvalidImplementation {
        task_type,
        pe,
        reason: reason.to_owned(),
    };

    let edits: [(&[&str], Value, ModelError); 6] = [
        (&["tech", "impls", "0", "0", "0"], json!(99), ModelError::UnknownPe { pe: PeId::new(99) }),
        (
            &["tech", "impls", "0", "0", "1", "exec_time"],
            json!(0.0),
            invalid(ty0, pe0, "execution time must be positive"),
        ),
        (
            &["tech", "impls", &used_ix],
            json!([]),
            ModelError::UnimplementableType { task_type: used },
        ),
        (
            &["tech", "impls", &hw_ix, &slot_ix, "1", "area"],
            json!(0),
            invalid(hw_type, hw_pe, "hardware implementations must declare core area"),
        ),
        (
            &["omsm", "modes", "0", "graph", "comms", "0", "dst"],
            json!(999),
            ModelError::UnknownTask { task: TaskId::new(999), graph: graph.clone() },
        ),
        (
            &["omsm", "transitions", "0", "to"],
            json!(42),
            ModelError::UnknownMode { mode: ModeId::new(42) },
        ),
    ];
    for (path, value, expected) in edits {
        assert_refused(&system, |v| *at(v, path) = value, expected);
    }

    // A comm that reverses an existing one closes a dependency cycle.
    let cycle = |v: &mut Value| {
        let comms = items(at(v, &["omsm", "modes", "0", "graph", "comms"]));
        let reverse = json!({"src": comms[0]["dst"].clone(), "dst": comms[0]["src"].clone(),
            "data_units": 1.0});
        comms.push(reverse);
    };
    assert_refused(&system, cycle, ModelError::CycleDetected { graph });
    // Every one of mul3's five modes at probability 1.
    let five = |v: &mut Value| {
        for mode in items(at(v, &["omsm", "modes"])) {
            *at(mode, &["probability"]) = json!(1.0);
        }
    };
    assert_refused(&system, five, ModelError::InvalidProbabilities { sum: 5.0 });
    // `impls` one row short of `type_names`.
    let last = TaskTypeId::new(tech.type_count() - 1);
    let short = |v: &mut Value| drop(items(at(v, &["tech", "impls"])).pop());
    assert_refused(&system, short, ModelError::UnimplementableType { task_type: last });
}

#[test]
fn emptied_library_rows_and_drifted_probabilities_fail_to_load() {
    // No PE can run the automotive ECU's first task any more.
    let ecu = automotive_ecu();
    let ty = first_task_type(&ecu);
    let row = ty.index().to_string();
    let expected = ModelError::UnimplementableType { task_type: ty };
    assert_refused(&ecu, |v| *at(v, &["tech", "impls", &row]) = json!([]), expected);

    // A 0.1% drift of the smartphone's probability mass is beyond the
    // builder's tolerance, so Eq. 1 never averages a mis-weighted profile.
    let phone = smartphone();
    let mut psi: Vec<f64> = phone.omsm().modes().map(|(_, m)| m.probability()).collect();
    psi[0] = 0.999;
    let expected = ModelError::InvalidProbabilities { sum: psi.iter().sum() };
    assert_refused(
        &phone,
        |v| *at(v, &["omsm", "modes", "0", "probability"]) = json!(0.999),
        expected,
    );
}

#[test]
fn files_with_derived_graph_state_load_as_the_valid_spec() {
    let pairs = |list: &[(CommId, TaskId)]| -> Vec<[usize; 2]> {
        list.iter().map(|&(c, t)| [c.index(), t.index()]).collect()
    };
    for system in [mul(3), smartphone()] {
        // A file written before the gate: each graph also lists its
        // derived `succs`, `preds` and `topo`.
        let mut v = serde_json::to_value(&system);
        for (mode, m) in system.omsm().modes() {
            let g = m.graph();
            let succs: Vec<_> = g.task_ids().map(|t| pairs(g.successors(t))).collect();
            let preds: Vec<_> = g.task_ids().map(|t| pairs(g.predecessors(t))).collect();
            let topo: Vec<usize> = g.topological_order().iter().map(|t| t.index()).collect();
            let path = ["omsm", "modes", &mode.index().to_string(), "graph"];
            let Value::Object(fields) = at(&mut v, &path) else { panic!("a graph is an object") };
            fields.push(("succs".to_owned(), serde_json::to_value(&succs)));
            fields.push(("preds".to_owned(), serde_json::to_value(&preds)));
            fields.push(("topo".to_owned(), serde_json::to_value(&topo)));
        }
        let back: System = serde_json::from_value(&v).expect("the older format loads");
        assert_eq!(back, system);

        // The derived keys are ignored, not trusted: a short `topo` and a
        // `preds` entry naming a missing task load as the valid spec.
        items(at(&mut v, &["omsm", "modes", "0", "graph", "topo"])).pop();
        items(at(&mut v, &["omsm", "modes", "0", "graph", "preds", "0"])).push(json!([0, 999]));
        let back: System = serde_json::from_value(&v).expect("stale derived state is ignored");
        assert_eq!(back, system, "{}", system.name());
    }
}

#[test]
fn negative_or_non_finite_link_comm_and_pe_numbers_fail_to_load() {
    let system = mul(3);
    let graph = system.omsm().mode(ModeId::new(0)).graph();
    let comm = graph.comm(CommId::new(0));
    let link = system.arch().cl(ClId::new(0)).name().to_owned();
    let pe = system.arch().pe(PeId::new(0)).name().to_owned();
    let bad_link = |reason: &str| ModelError::InvalidLink {
        link: link.clone(),
        reason: format!("{reason} must be non-negative and finite"),
    };
    let bad_pe = |reason: &str| ModelError::InvalidPe {
        pe: pe.clone(),
        reason: format!("{reason} must be non-negative and finite"),
    };

    let edits: [(&[&str], Value, ModelError); 5] = [
        (
            &["omsm", "modes", "0", "graph", "comms", "0", "data_units"],
            json!(-1e6),
            ModelError::InvalidDataUnits {
                graph: graph.name().to_owned(),
                src: comm.src(),
                dst: comm.dst(),
                data_units: -1e6,
            },
        ),
        (&["arch", "cls", "0", "time_per_data_unit"], json!(-1e-3), bad_link("time per data unit")),
        (&["arch", "cls", "0", "transfer_power"], json!(-5), bad_link("transfer power")),
        (&["arch", "pes", "0", "static_power"], json!(-1), bad_pe("static power")),
        (
            &["arch", "pes", "0", "reconfig_time_per_cell"],
            json!(-1e-9),
            bad_pe("reconfiguration time per cell"),
        ),
    ];
    for (path, value, expected) in edits {
        assert_refused(&system, |v| *at(v, path) = value, expected);
    }

    // Zero stays legal: a pure precedence edge, a free and instant link.
    let mut v = serde_json::to_value(&system);
    *at(&mut v, &["omsm", "modes", "0", "graph", "comms", "0", "data_units"]) = json!(0.0);
    for field in ["time_per_data_unit", "transfer_power", "static_power"] {
        *at(&mut v, &["arch", "cls", "0", field]) = json!(0.0);
    }
    serde_json::from_value::<System>(&v).expect("zero volumes and rates load");
}
