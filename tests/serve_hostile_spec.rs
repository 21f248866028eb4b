//! Hostile job specs through the job server's request protocol: every
//! out-of-range time budget and every structurally broken system is
//! refused with `ok: false`, and the server keeps serving valid jobs
//! afterwards.

use std::path::{Path, PathBuf};

use serde_json::{json, Value};

use momsynth_gen::suite::{generate, mul_params};
use momsynth_serve::protocol::{handle_line, Reply};
use momsynth_serve::{JobState, Server, ServerConfig};

fn tmp_root(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("momsynth_hostile_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn request(server: &Server, request: Value) -> Value {
    let line = serde_json::to_string(&request).expect("request serializes");
    match handle_line(server, &line) {
        Reply::Line(reply) => reply,
        other => panic!("expected a single reply line, got {other:?}"),
    }
}

fn ok(reply: &Value) -> Option<bool> {
    reply.get("ok").and_then(Value::as_bool)
}

/// Submits `system` as a valid job, asserts it reaches `Verified`, then
/// stops the server and removes its root.
fn serves_a_valid_job(server: Server, root: &Path, system: Value) {
    let valid = json!({"system": system, "quick": true, "seed": 3});
    let reply = request(&server, json!({"cmd": "submit", "spec": valid}));
    assert_eq!(ok(&reply), Some(true), "{reply:?}");
    let id = reply["id"].as_str().expect("submit returns an id").to_owned();
    let reply = request(&server, json!({"cmd": "wait", "id": id, "timeout_s": 300.0}));
    assert_eq!(ok(&reply), Some(true), "{reply:?}");
    assert_eq!(reply["job"]["state"].as_str(), Some(JobState::Verified.to_string().as_str()));
    drop(server);
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn out_of_range_budgets_are_refused_and_the_server_keeps_serving() {
    let root = tmp_root("budgets");
    let server = Server::start(ServerConfig::new(root.clone())).expect("server starts");
    let system = serde_json::to_value(&generate(&mul_params(9)));

    for hostile in [
        json!({"system": system.clone(), "quick": true, "timeout_seconds": -1.0}),
        json!({"system": system.clone(), "quick": true, "timeout_seconds": 1e300}),
        json!({"system": system.clone(), "quick": true, "max_seconds": -0.5}),
    ] {
        let reply = request(&server, json!({"cmd": "submit", "spec": hostile}));
        assert_eq!(ok(&reply), Some(false), "hostile spec accepted: {reply:?}");
    }
    let reply = request(&server, json!({"cmd": "wait", "id": "job-000001", "timeout_s": 1e300}));
    assert_eq!(ok(&reply), Some(false), "{reply:?}");

    serves_a_valid_job(server, &root, system);
}

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

#[test]
fn structurally_broken_systems_are_refused_and_the_server_keeps_serving() {
    let root = tmp_root("broken");
    let server = Server::start(ServerConfig::new(root.clone())).expect("server starts");
    let system = serde_json::to_value(&generate(&mul_params(9)));

    // A comm that reverses an existing one closes a dependency cycle.
    let mut cyclic = system.clone();
    let Value::Array(comms) = at(&mut cyclic, &["omsm", "modes", "0", "graph", "comms"]) else {
        panic!("comms is an array")
    };
    let reverse = json!({"src": comms[0]["dst"].clone(), "dst": comms[0]["src"].clone(),
        "data_units": 1.0});
    comms.push(reverse);
    // An implementation row on a PE the architecture lacks.
    let mut missing_pe = system.clone();
    *at(&mut missing_pe, &["tech", "impls", "0", "0", "0"]) = json!(99);

    for (hostile, reason) in
        [(cyclic, "dependency cycle"), (missing_pe, "unknown processing element PE99")]
    {
        let spec = json!({"system": hostile, "quick": true, "seed": 3});
        let reply = request(&server, json!({"cmd": "submit", "spec": spec}));
        assert_eq!(ok(&reply), Some(false), "broken system accepted: {reply:?}");
        assert!(reply.to_string().contains(reason), "{reply:?}");
    }

    serves_a_valid_job(server, &root, system);
}
